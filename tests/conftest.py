"""Shared fixtures."""

import sys
from collections import Counter

import pytest


@pytest.fixture
def count_calls(monkeypatch):
    """Wrap krl functions wherever a krl module binds them and count calls.

    ``count_calls(f, g, ...)`` returns a Counter keyed by function name
    that fills as the wrapped functions run.  Its ``per_object`` Counter
    counts the calls by function name and first argument, by identity.
    """
    counts = Counter()
    counts.per_object = Counter()
    first_args = []  # kept alive, so that no two of them share an id

    def install(*fns):
        modules = [m for key, m in sys.modules.items()
                   if key == "krl" or key.startswith("krl.")]
        for fn in fns:
            def counted(*args, _fn=fn, **kwargs):
                counts[_fn.__name__] += 1
                if args:
                    first_args.append(args[0])
                    counts.per_object[_fn.__name__, id(args[0])] += 1
                return _fn(*args, **kwargs)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is fn:
                        monkeypatch.setattr(mod, attr, counted)
        return counts

    return install
