"""Shared fixtures."""

import sys
from collections import Counter

import pytest


@pytest.fixture
def count_calls(monkeypatch):
    """Wrap krl functions wherever a krl module binds them and count calls.

    ``count_calls(f, g, ...)`` returns a Counter keyed by function name
    that fills as the wrapped functions run.
    """
    counts = Counter()

    def install(*fns):
        modules = [m for key, m in sys.modules.items()
                   if key == "krl" or key.startswith("krl.")]
        for fn in fns:
            def counted(*args, _fn=fn, **kwargs):
                counts[_fn.__name__] += 1
                return _fn(*args, **kwargs)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is fn:
                        monkeypatch.setattr(mod, attr, counted)
        return counts

    return install
