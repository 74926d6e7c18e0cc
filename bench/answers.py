"""Canonical answers, their digests, and the session that runs ops.

Every op of a workload goes through :class:`Session.op`: the call is
timed, its result (or the library error it raised) is turned into a
canonical JSON value, and that value's digest is compared with the
reference answer recorded for the same op id.  Recording mode fills the
reference instead of checking it.
"""

from __future__ import annotations

import hashlib
import json
import signal
import time
from dataclasses import dataclass

import krl
from krl.errors import KrlError


# Far beyond the slowest op of any pass (under 1 s), so only a hang or a
# pathological slowdown trips it.
OP_TIMEOUT_S = 10.0


class OpTimeout(BaseException):
    """Raised by the alarm in an op still running after ``OP_TIMEOUT_S``;
    a BaseException, so that no ``except Exception`` in krl swallows it."""


def _on_alarm(_signum, _frame):
    raise OpTimeout()


@dataclass(frozen=True)
class CliResult:
    """What one in-process CLI call produced."""

    code: int
    out: str
    err: str
    written: str | None = None


def _sort_key(value):
    return json.dumps(value, sort_keys=True)


def canon(x):
    """A JSON value that pins everything an answer reports.

    Reports keep every clause, witness, note, flag and data entry;
    certificates keep t, h and r; exceptions keep their type and message.
    Powerset algebras are described by their data, never expanded, so
    canonicalizing one does no lattice work.
    """
    if x is None or isinstance(x, (bool, int, float, str)):
        return x
    if isinstance(x, BaseException):
        return ["raise", type(x).__name__, str(x)]
    if isinstance(x, krl.Report):
        return ["report", x.name, x.ok,
                [[c.clause, c.passed, c.witness, c.note] for c in x.checks],
                sorted(x.flags.items()), canon(x.data)]
    if isinstance(x, krl.DensityCertificate):
        return ["cert", x.t, canon(x.h), x.r]
    if isinstance(x, krl.MorphismSpec):
        return ["morphism", x.kind, list(x.carrier), x.name]
    if isinstance(x, krl.InteriorOperator):
        return ["interior", list(x.table)]
    if isinstance(x, krl.ChangedAlgebra):
        return ["changed", list(x.opens), list(x.closure), x.strong_imp_condition,
                canon(x.report), canon(x.algebra)]
    if isinstance(x, krl.FunctorImageIA):
        return ["A", canon(x.source_aks), canon(x.algebra)]
    if isinstance(x, krl.FunctorImageAKS):
        return canon(x.aks)
    if isinstance(x, krl.ImplicativeAlgebra):
        L = x.lattice
        if isinstance(L, krl.PowersetLattice):
            return ["ia-powerset", list(L.base_names), sorted(x.separator), x.k, x.s]
        return ["ia", canon(L), [list(row) for row in x.structure.imp_table()],
                sorted(x.separator), x.k, x.s]
    if isinstance(x, krl.ExplicitLattice):
        return ["lattice", list(x.names), list(x.up)]
    if isinstance(x, krl.AbstractKrivineStructure):
        return ["aks", list(x.names), list(x.perp_rows), [list(r) for r in x.push],
                [list(r) for r in x.app], x.qp, x.k_elem, x.s_elem]
    if isinstance(x, CliResult):
        return ["cli", x.code, x.out, x.err, x.written]
    if isinstance(x, (tuple, list)):
        return [canon(v) for v in x]
    if isinstance(x, (set, frozenset)):
        return sorted((canon(v) for v in x), key=_sort_key)
    if isinstance(x, dict):
        return sorted(([canon(k), canon(v)] for k, v in x.items()), key=_sort_key)
    raise TypeError(f"no canonical form for {type(x).__name__}")


def digest(x) -> str:
    text = json.dumps(canon(x), sort_keys=True, separators=(",", ":"))
    return hashlib.sha1(text.encode()).hexdigest()[:16]


def ok(result) -> bool:
    """True when an op produced a value rather than an error or nothing."""
    return result is not None and not isinstance(result, BaseException)


class Session:
    """Runs ops one at a time (a closed loop with one caller) and checks them.

    ``reference`` maps op ids to answer digests.  With ``record`` given,
    digests are stored there instead of being checked.  A failed op is a
    wrong answer, an unexpected exception, a timeout, or a broken spec
    (exit code); failures of ops named as known defects are kept apart,
    by name.
    """

    def __init__(self, reference=None, record=None, tracer=None):
        self.reference = reference or {}
        self.record = record
        self.tracer = tracer
        self.latencies: list[float] = []
        self.attempted = 0
        self.failures: list[tuple[str, str]] = []
        self.known: list[tuple[str, str]] = []
        self.expect_misses = 0
        self.before_op = None     # called, untimed, before each op starts
        signal.signal(signal.SIGALRM, _on_alarm)

    def op(self, op_id, fn, *args, expect=None, known_defect=None):
        """Time ``fn(*args)`` and check its answer.

        ``expect`` is a predicate on the result that must hold (used for
        CLI exit codes).  An op with ``known_defect`` set has no recorded
        answer: only ``expect`` is checked, and a miss is listed as that
        known defect rather than as a failure.  An op still running after
        ``OP_TIMEOUT_S`` is stopped and fails with the reason ``timeout``.
        """
        if self.before_op is not None:
            self.before_op()
        tracer = self.tracer
        if tracer is not None:
            tracer.op_id = op_id
            tracer.paused = False
        self.attempted += 1
        t0 = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, OP_TIMEOUT_S)
        escaped = None
        try:
            try:
                result = fn(*args)
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
        except KrlError as exc:
            result = exc
        except OpTimeout:
            escaped = f"timeout after {OP_TIMEOUT_S} s"
        except Exception as exc:  # the op boundary: an escaped exception fails the op
            escaped = f"traceback {type(exc).__name__}: {exc}"
        self.latencies.append(time.perf_counter() - t0)
        if tracer is not None:
            tracer.paused = True
        if escaped is not None:
            self._miss(op_id, escaped, known_defect)
            return None
        if expect is not None and not expect(result):
            self.expect_misses += 1
            shown = result.code if isinstance(result, CliResult) else canon(result)
            self._miss(op_id, f"unexpected result {str(shown)[:120]}", known_defect)
            return result
        if known_defect is not None:
            return result
        got = digest(result)
        if self.record is not None:
            self.record[op_id] = got
        else:
            want = self.reference.get(op_id)
            if want is None:
                self._miss(op_id, "no reference answer", None)
            elif want != got:
                self._miss(op_id, f"answer {got} differs from reference {want}", None)
        return result

    def _miss(self, op_id, reason, known_defect):
        if known_defect is not None:
            self.known.append((op_id, f"{known_defect}: {reason}"))
        elif self.record is not None:
            raise RuntimeError(f"cannot record {op_id}: {reason}")
        else:
            self.failures.append((op_id, reason))
