"""The benchmark harness in ``bench/`` calls krl by dotted name; every
name it uses must still exist, with the signature it calls."""

import importlib
import inspect
import re
from pathlib import Path

import pytest

import krl
from krl.bridge import PowersetStructure
from krl.fixtures import aks2

BENCH = Path(__file__).resolve().parent.parent / "bench"
if not BENCH.is_dir():
    pytest.skip("no bench/ directory", allow_module_level=True)

REFERENCES = sorted({ref for path in BENCH.glob("*.py")
                     for ref in re.findall(r"\bkrl(?:\.[A-Za-z_]\w*)+", path.read_text())})


def resolve(dotted):
    obj = krl
    path = "krl"
    for part in dotted.split(".")[1:]:
        path += "." + part
        obj = getattr(obj, part) if hasattr(obj, part) else importlib.import_module(path)
    return obj


@pytest.mark.parametrize("dotted", REFERENCES)
def test_bench_reference_resolves(dotted):
    resolve(dotted)


def test_traced_search_signature():
    # bench/tracing.py wraps the search as fn(f, hint, budget)
    inspect.signature(krl.check_comp_dense).bind(object(), None, None)


def test_a_built_structure_takes_a_wrapped_implication():
    # bench/tracing.py counts the implications a structure computes by
    # reassigning _imp on every structure once __init__ has run
    for st in (krl.ImplicativeStructure(krl.ExplicitLattice.chain(2), ((1, 1), (0, 1))),
               PowersetStructure(aks2())):
        inner, calls = st._imp, []

        def computed(a, b):
            calls.append((a, b))
            return inner(a, b)
        st._imp = computed
        assert st.imp(1, 0) == inner(1, 0) and calls == [(1, 0)]
