"""Size ladders and their ceilings.

A ladder runs one op on growing inputs, from its smallest size up to a
cap, and stops at the first rung that does not finish cleanly within
``LIMIT_S``.  Its ceiling is the largest rung that did.  Each rung runs
in its own child process, one at a time, with an address-space limit,
so a rung that asks for a 2^32-entry list ends in ``MemoryError`` and a
rung still running at the limit is stopped (``timeout``); neither stops
the benchmark.  A rung that finishes is then checked against a theorem
invariant (functor images validate, composites and the adjunction pass,
found certificates re-verify without search, emitted documents re-parse
to the same text); a broken invariant is status ``error``.

Children are forked from a process that has already imported krl, so a
rung's time is its op alone; the process that forks starts no threads.
Each child runs pinned to the CPU that runs fastest when it is forked.
"""

from __future__ import annotations

import json
import os
import resource
import select
import shutil
import signal
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import cpus
import krl
import krl.enumerators
import workloads as wl
from krl.errors import SizeLimitExceeded
from krl.fixtures import identity_interior

LIMIT_S = 1.0                   # a rung must finish within this
ADDRESS_SPACE = 1 << 30         # bytes a rung child may map
CHILD_DEADLINE_S = 30.0         # build + op + invariant check
ROOT = Path(__file__).resolve().parent.parent
TMP = ROOT / ".bench_tmp"


class RungTimeout(BaseException):
    """Raised by the alarm inside a rung child; not an ``Exception`` so
    that no handler in the library can swallow it."""


@dataclass(frozen=True)
class Ladder:
    name: str
    workload: str
    sizes: range
    build: Callable      # size -> input (untimed)
    run: Callable        # input -> result (timed)
    check: Callable      # (input, result) -> problem text or None


def _report_ok(_inp, rep):
    return None if rep.ok else f"report fails: {rep.failures()[0].clause}"


def _heyting(n):
    return wl.build_algebra(wl.heyting_chain_data(n))


def _kchain(m):
    return wl.build_aks(wl.load_pools()["kchain"][str(m)])


def _full(m):
    return wl.build_aks(wl.full_polarity(m))


def _changed_ok(_inp, changed):
    return _report_ok(None, changed.report)


def _all_lattices_valid(_n, lattices):
    bad = [lat for lat in lattices if not krl.validate_lattice(lat).ok]
    return f"{len(bad)} invalid lattices" if bad else None


def _interior_count(lattice, ops):
    # every subset of a chain that holds the bottom is join-closed
    want = 2 ** (lattice.size - 1)
    return None if len(ops) == want else f"{len(ops)} interiors, expected {want}"


def _dense_reverifies(f, cert):
    if cert is None:
        return "no certificate for the identity"
    return _report_ok(None, krl.verify_certificate(f, cert))


def _approx_fixed(op, approx):
    return None if approx.table == op.table else "identity is not its own approximation"


# ---------------------------------------------------------------- cli rungs


def _cli_docs(docs, argv):
    """Write the rung's documents into the child's working directory."""
    for fname, text in docs.items():
        Path(fname).write_text(text, encoding="utf-8")
    return argv


def _cli_run(argv):
    return wl.cli_call(argv)


def _cli_exit0(_argv, res):
    return None if res.code == 0 else f"exit {res.code}: {res.err.strip()[:80]}"


def _cli_reparses(_argv, res):
    problem = _cli_exit0(_argv, res)
    if problem:
        return problem
    spec = krl.specfile
    if spec.emit_spec(spec.parse_spec(res.out)) != res.out:
        return "emitted document does not re-parse to the same text"
    return None


def _full_ia_doc(m):
    return _cli_docs({"a.krl": wl.doc_aks(f"full{m}", wl.full_polarity(m), kind="ia")},
                     ["validate", "a.krl"])


def _chain_doc(n):
    return _cli_docs({"h.krl": wl.doc_ia(f"H{n}", wl.heyting_chain_data(n))},
                     ["combinators", "h.krl"])


def _kchain_doc(m):
    return _cli_docs({"k.krl": wl.doc_aks(f"KH{m}", wl.load_pools()["kchain"][str(m)])},
                     ["adjunction", "k.krl"])


def _full_approx_docs(m):
    data = wl.full_polarity(m)
    return _cli_docs({"x.krl": wl.doc_aks(f"full{m}", data),
                      "x.kop": wl.doc_kop(f"full{m}", data["names"], list(range(1 << m)))},
                     ["interior", "approx", "x.krl", "x.kop"])


LADDERS = (
    Ladder("validate_structure.chain", "explicit", range(2, 25), _heyting,
           lambda A: krl.validate_structure(A.structure), _report_ok),
    Ladder("validate_algebra.chain", "explicit", range(2, 25), _heyting,
           krl.validate_algebra, _report_ok),
    Ladder("composite_ak.chain", "explicit", range(2, 25), _heyting,
           krl.composite_AK_check, _report_ok),
    Ladder("change.chain", "explicit", range(2, 25),
           lambda n: (_heyting(n), identity_interior(_heyting(n).lattice)),
           lambda inp: krl.change_implication(inp[0], inp[1]), _changed_ok),
    Ladder("enumerate_lattices", "explicit", range(1, 10), lambda n: n,
           lambda n: list(krl.enumerators.enumerate_lattices(n)), _all_lattices_valid),
    Ladder("enumerate_interiors.chain", "explicit", range(2, 25),
           lambda n: krl.ExplicitLattice.chain(n),
           lambda L: list(krl.enumerators.enumerate_interiors(L)), _interior_count),
    Ladder("validate_algebra.a_full", "powerset", range(1, 9),
           lambda m: krl.functor_A_obj(_full(m)).algebra, krl.validate_algebra, _report_ok),
    Ladder("applicative.id_full", "powerset", range(1, 9),
           lambda m: krl.identity_morphism(_full(m), "aks"), krl.check_applicative,
           _report_ok),
    Ladder("dense.id_kchain", "powerset", range(1, 9),
           lambda m: krl.identity_morphism(_kchain(m), "aks"), krl.check_comp_dense,
           _dense_reverifies),
    Ladder("validate_interior.id_full", "powerset", range(1, 9),
           lambda m: identity_interior(krl.PowersetLattice(_full(m).names)),
           krl.validate_interior, _report_ok),
    Ladder("al_approx.id_full", "powerset", range(1, 9),
           lambda m: identity_interior(krl.PowersetLattice(_full(m).names)),
           krl.al_approx, _approx_fixed),
    Ladder("adjunction.kchain", "powerset", range(1, 9),
           lambda m: (krl.functor_A_obj(_kchain(m)).algebra, _kchain(m)),
           lambda inp: krl.check_adjunction_instance(*inp), _report_ok),
    Ladder("cli.validate.a_full", "cli", range(1, 9), _full_ia_doc, _cli_run, _cli_exit0),
    Ladder("cli.combinators.chain", "cli", range(2, 25), _chain_doc, _cli_run, _cli_exit0),
    Ladder("cli.adjunction.kchain", "cli", range(1, 9), _kchain_doc, _cli_run, _cli_exit0),
    Ladder("cli.interior_approx.id_full", "cli", range(1, 9), _full_approx_docs, _cli_run,
           _cli_reparses),
    Ladder("cli.enumerate_lattice", "cli", range(1, 10),
           lambda n: ["enumerate", "--kind", "lattice", "--size", str(n)], _cli_run,
           _cli_exit0),
)
BY_NAME = {lad.name: lad for lad in LADDERS}


def _on_alarm(_signum, _frame):
    raise RungTimeout()


def _rung_body(lad: Ladder, size: int) -> dict:
    """Runs inside the child: build, time the op under the alarm, check."""
    inp = lad.build(size)
    signal.signal(signal.SIGALRM, _on_alarm)
    status, detail, result = "ok", None, None
    t0 = time.perf_counter()
    signal.setitimer(signal.ITIMER_REAL, LIMIT_S)
    try:
        result = lad.run(inp)
    except RungTimeout:
        status = "timeout"
    except SizeLimitExceeded as exc:
        status, detail = "refused", str(exc)
    except MemoryError:
        status = "MemoryError"
    except Exception as exc:  # a rung's own boundary: record, do not stop the ladder
        status, detail = "error", f"{type(exc).__name__}: {exc}"
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    ms = (time.perf_counter() - t0) * 1000.0
    if status == "ok" and isinstance(result, wl.CliResult) and result.code == 2 \
            and "refused" in result.err:
        status, detail = "refused", result.err.strip()
    elif status == "ok":
        detail = lad.check(inp, result)
        if detail is not None:
            status = "error"
    return {"size": size, "status": status, "ms": ms, "detail": detail}


def run_rung(lad: Ladder, size: int) -> dict:
    workdir = TMP / f"rung-{os.getpid()}-{lad.name}-{size}"
    read_fd, write_fd = os.pipe()
    with cpus.on_fastest():
        pid = os.fork()
    if pid == 0:  # child
        os.close(read_fd)
        try:
            resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE, ADDRESS_SPACE))
            workdir.mkdir(parents=True)
            os.chdir(workdir)
            out = _rung_body(lad, size)
        except BaseException as exc:  # report anything, then leave without cleanup handlers
            out = {"size": size, "status": "error", "ms": 0.0,
                   "detail": f"{type(exc).__name__}: {exc}"}
        os.write(write_fd, json.dumps(out).encode())
        os._exit(0)
    os.close(write_fd)
    chunks = []
    deadline = time.monotonic() + CHILD_DEADLINE_S
    try:
        while True:
            left = deadline - time.monotonic()
            ready, _, _ = select.select([read_fd], [], [], max(left, 0))
            if not ready:
                os.kill(pid, signal.SIGKILL)
                break
            chunk = os.read(read_fd, 65536)
            if not chunk:
                break
            chunks.append(chunk)
    finally:
        os.close(read_fd)
        os.waitpid(pid, 0)
        shutil.rmtree(workdir, ignore_errors=True)
    if not chunks:
        return {"size": size, "status": "timeout", "ms": CHILD_DEADLINE_S * 1000.0,
                "detail": "child gave no result before its deadline"}
    return json.loads(b"".join(chunks))


def run_ladder(lad: Ladder) -> dict:
    rungs, ceiling, status = [], 0, "ok"
    for size in lad.sizes:
        rung = run_rung(lad, size)
        rungs.append(rung)
        if rung["status"] != "ok":
            status = rung["status"]
            break
        ceiling = size
    return {"workload": lad.workload, "ceiling": ceiling, "status": status,
            "rungs": rungs}


def run_ladders(names) -> dict:
    return {name: run_ladder(BY_NAME[name]) for name in names}


def names_for(workload: str | None) -> list[str]:
    return [lad.name for lad in LADDERS if workload is None or lad.workload == workload]
