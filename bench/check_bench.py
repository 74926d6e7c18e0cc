"""Smoke test of the benchmark itself.

    python3 bench/check_bench.py [workload ...]

For each workload (all three by default) it makes three short runs:

* tracing off: every end-to-end metric of ``BENCHMARK.json`` is printed
  with its unit, and the answers are correct;
* tracing off, against a copy of the reference with one answer
  corrupted: that op is reported as failed, the run is not correct and
  ``ok_rate`` drops;
* tracing on: every per-layer metric is printed with its unit.

Exits 1 and names the first broken expectation otherwise.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SEED = 3
SECONDS = "1"
# an op that every pass of the workload runs, whatever the seed
CORRUPTED = {"explicit": "explicit/H3/validate_algebra",
             "powerset": "powerset/aks3/validate_aks",
             "cli": "cli/golden.01"}


def run(workload, trace, reference=None):
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload,
           "--seed", str(SEED), "--seconds", SECONDS, "--trace", str(trace)]
    if reference:
        cmd += ["--reference", str(reference)]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300,
                         check=True).stdout.strip().splitlines()
    return json.loads(out[-2]), json.loads(out[-1])


def expect(cond, what):
    if not cond:
        raise AssertionError(what)


def check_metrics(result, declared, label):
    got = result["metrics"]
    expect(set(got) == {m["name"] for m in declared},
           f"{label}: metrics differ from BENCHMARK.json: "
           f"{sorted(set(got) ^ {m['name'] for m in declared})}")
    for m in declared:
        expect(got[m["name"]]["unit"] == m["unit"], f"{label}: unit of {m['name']}")
        expect(isinstance(got[m["name"]]["value"], (int, float)),
               f"{label}: value of {m['name']}")


def check_workload(workload, bench):
    detail, clean = run(workload, 0)
    check_metrics(clean, bench["end_to_end"], f"{workload} untraced")
    expect(clean["correct"] and clean["failed"] == 0,
           f"{workload}: failed ops {detail['failed_ops']}")
    expect(detail["op_samples"] >= 200, f"{workload}: only {detail['op_samples']} op samples")

    reference = json.loads((BENCH / "reference.json").read_text())
    op = CORRUPTED[workload]
    reference[op] = "0" * 16
    tmp = ROOT / ".bench_tmp" / "check"
    tmp.mkdir(parents=True, exist_ok=True)
    corrupt = tmp / "reference.json"
    corrupt.write_text(json.dumps(reference))
    try:
        detail, broken = run(workload, 0, corrupt)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    expect(op in detail["failed_ops"], f"{workload}: corrupted {op} was not caught")
    expect(not broken["correct"] and broken["failed"] >= 1,
           f"{workload}: corrupted reference still correct")
    expect(broken["metrics"]["ok_rate"]["value"] < clean["metrics"]["ok_rate"]["value"],
           f"{workload}: ok_rate did not drop")

    _, traced = run(workload, 1)
    check_metrics(traced, bench["per_layer"], f"{workload} traced")
    print(f"{workload}: ok")


def main(argv) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    try:
        for workload in argv or [w["name"] for w in bench["workloads"]]:
            check_workload(workload, bench)
    except (AssertionError, subprocess.CalledProcessError) as exc:
        print(f"FAIL {exc}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
