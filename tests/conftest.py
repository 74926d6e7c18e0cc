"""Shared fixtures."""

import sys
from collections import Counter

import pytest


@pytest.fixture
def count_calls(monkeypatch):
    """Wrap krl functions wherever a krl module binds them, and methods on
    the classes krl modules bind, and count calls.

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
            owners = modules + [v for m in modules for v in vars(m).values()
                                if isinstance(v, type)]
            for owner in owners:
                for attr, value in list(vars(owner).items()):
                    if value is fn:
                        monkeypatch.setattr(owner, attr, counted)
        return counts

    return install
