"""Pass/fail reports with witnesses, shared by every validator.

A report is a flat list of named clause checks.  Failures carry a
concrete witness; descriptive properties (classical, consistent,
alexandroff, ...) are recorded as flags and never fail a report.

A passing clause with no witness and no note is one shared
:class:`CheckResult` per clause name, taken from a bounded cache, so a
pass costs one lookup; every other clause is built afresh.  Results are
frozen and compare by value, so the sharing cannot be observed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache


@dataclass(frozen=True)
class CheckResult:
    clause: str
    passed: bool
    witness: str | None = None
    note: str | None = None


@lru_cache(maxsize=1024)
def _passed(clause: str) -> CheckResult:
    return CheckResult(clause, True)


@dataclass
class Report:
    name: str
    checks: list[CheckResult] = field(default_factory=list)
    flags: dict[str, bool] = field(default_factory=dict)
    data: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return all(c.passed for c in self.checks)

    def failures(self) -> list[CheckResult]:
        return [c for c in self.checks if not c.passed]

    def check(self, clause: str, passed: bool, witness=None, note=None) -> bool:
        if passed and witness is None and note is None:
            self.checks.append(_passed(clause))
            return True
        if witness is not None and not isinstance(witness, str):
            witness = str(witness)
        self.checks.append(CheckResult(clause, bool(passed), witness, note))
        return bool(passed)

    def flag(self, name: str, value: bool, note: str | None = None) -> None:
        self.flags[name] = bool(value)
        if note:
            self.data.setdefault("flag_notes", {})[name] = note

    def copy(self) -> "Report":
        """A report equal to this one that a caller may rename or extend
        without changing this one."""
        data = {key: dict(value) if isinstance(value, dict) else value
                for key, value in self.data.items()}
        return Report(self.name, list(self.checks), dict(self.flags), data)

    def extend(self, other: "Report") -> None:
        self.checks.extend(other.checks)
        self.flags.update(other.flags)
        for key, value in other.data.items():
            self.data.setdefault(key, value)

    def render(self) -> str:
        lines = [f"report {self.name}: {'PASS' if self.ok else 'FAIL'}"]
        for c in self.checks:
            line = f"{'PASS' if c.passed else 'FAIL'} {c.clause}"
            if c.witness is not None:
                line += f" witness={c.witness}"
            if c.note:
                line += f" ({c.note})"
            lines.append(line)
        notes = self.data.get("flag_notes", {})
        for name, value in self.flags.items():
            line = f"FLAG {name}={'yes' if value else 'no'}"
            if name in notes:
                line += f" ({notes[name]})"
            lines.append(line)
        return "\n".join(lines)

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "ok": self.ok,
            "checks": [
                {"clause": c.clause, "passed": c.passed, "witness": c.witness, "note": c.note}
                for c in self.checks
            ],
            "flags": dict(self.flags),
        }
