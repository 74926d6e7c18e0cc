"""Regenerate ``pools.json`` and ``reference.json``.

The pools are the finite sets the seed draws from; the reference holds
the answer digest of every op on every pool item, recorded from the
krl in ``src/``.  Re-record only when a change of answers is intended,
and say so where the change is described.

    python3 bench/record.py
"""

from __future__ import annotations

import json
import os
import shutil
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import krl  # noqa: E402
import krl.enumerators  # noqa: E402
import krl.fixtures  # noqa: E402

DOCS = ("l2.krl", "heyting3.krl", "diamond.krl", "diamond-open-x.kop", "aks2.krl",
        "aks3.krl", "aks3-hat.kop", "h3-to-l2.kmap", "id-l2.kmap")
TEST_DOCS = ("bad-antisym.krl", "bad-imp.krl")


def _aks_data(aks):
    return {"names": list(aks.names), "perp_rows": list(aks.perp_rows),
            "push": [list(r) for r in aks.push], "app": [list(r) for r in aks.app],
            "qp": aks.qp, "k": aks.k_elem, "s": aks.s_elem}


def make_pools() -> dict:
    import workloads as wl
    bases = wl.interior_bases()
    join_closed = {}
    for key, data in bases.items():
        L = wl.build_algebra(data).lattice
        join_closed[key] = [sorted(op.opens())
                            for op in krl.enumerators.enumerate_interiors(L)]
    docs = {name: (ROOT / "fixtures" / name).read_text() for name in DOCS}
    docs.update({name: (ROOT / "tests" / "data" / name).read_text() for name in TEST_DOCS})
    pools = {
        "lattice6": [list(lat.up) for lat in krl.enumerators.enumerate_lattices(6)],
        "join_closed": join_closed,
        "kchain": {str(n): _aks_data(krl.functor_K_obj(
            wl.build_algebra(wl.heyting_chain_data(n))).aks) for n in range(1, 9)},
        "aks": {name: _aks_data(getattr(krl.fixtures, name)())
                for name in ("aks1", "aks2", "aks3")},
        "docs": docs,
    }
    structures = wl.powerset_structures(pools)
    pools["applicative_maps"] = [
        wl.map_key(item) for item in wl.map_pool(structures)
        if krl.check_applicative(krl.MorphismSpec(
            "aks", wl.build_aks(structures[item[0]]), wl.build_aks(structures[item[1]]),
            item[2])).ok]
    return pools


def record_reference() -> dict:
    import answers
    import workloads as wl
    reference = {}
    workdir = ROOT / ".bench_tmp" / "record"
    for workload in wl.WORKLOADS:
        shutil.rmtree(workdir, ignore_errors=True)
        workdir.mkdir(parents=True)
        try:
            os.chdir(workdir)
            inputs = wl.setup(workload, 0, full=True, workdir=workdir)
            session = answers.Session(record=reference)
            wl.run_pass(inputs, session)
            print(f"{workload}: {session.attempted} ops, known defects:",
                  [name for name, _ in session.known])
        finally:
            os.chdir(ROOT)
            shutil.rmtree(workdir, ignore_errors=True)
    return reference


def main() -> None:
    pools = make_pools()
    (BENCH / "pools.json").write_text(json.dumps(pools, sort_keys=True) + "\n")
    reference = record_reference()
    (BENCH / "reference.json").write_text(json.dumps(reference, indent=0, sort_keys=True)
                                          + "\n")
    print(f"{len(reference)} reference answers")


if __name__ == "__main__":
    main()
