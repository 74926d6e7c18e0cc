"""Every op of the benchmark's three workloads, over the whole pools, gives
the answer pinned in ``bench/reference.json``: reports, witnesses, flag
notes, exit codes and emitted documents stay as they were recorded."""

import importlib
import json
import signal
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"
if not BENCH.is_dir():
    pytest.skip("no bench/ directory", allow_module_level=True)


@pytest.mark.parametrize("workload", ["explicit", "powerset", "cli"])
def test_workload_replays_the_reference_answers(workload, tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    monkeypatch.chdir(tmp_path)
    answers = importlib.import_module("answers")
    workloads = importlib.import_module("workloads")
    reference = json.loads((BENCH / "reference.json").read_text(encoding="utf-8"))
    handler = signal.getsignal(signal.SIGALRM)
    try:
        session = answers.Session(reference=reference)
        workloads.run_pass(workloads.setup(workload, 0, full=True, workdir=tmp_path), session)
    finally:
        signal.signal(signal.SIGALRM, handler)
    assert session.attempted >= sum(op.startswith(workload + "/") for op in reference)
    assert session.failures == [] and session.known == []
