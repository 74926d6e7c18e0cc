"""Run every workload over several seeds and write the summary.

    python3 bench/baseline.py --seeds 1-10 --out bench/results/NAME.json

For each workload of ``BENCHMARK.json`` it makes one untraced run per
seed and one traced run (first seed), all with the file's
``run_seconds``.  The summary gives, per end-to-end metric, the median,
the quartiles (``statistics.quantiles(values, n=4)``) and the spread
(quartile distance over the median) next to the metric's bound, plus
the ladder end states, the failed ops and the known defects of the
runs, each run's calibration loop times (how fast the host ran) and the
traced per-layer metrics.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run(workload, seed, seconds, trace):
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    lines = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600,
                           check=True).stdout.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


def summarize(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0, "values": values}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    ap.add_argument("--out", required=True)
    ap.add_argument("--workloads", nargs="*")
    args = ap.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    out = {"run_seconds": seconds, "seeds": args.seeds, "workloads": {}}
    for workload in args.workloads or [w["name"] for w in bench["workloads"]]:
        runs = [run(workload, seed, seconds, 0) for seed in args.seeds]
        detail, traced = run(workload, args.seeds[0], seconds, 1)
        out["env"] = detail["env"]
        metrics = {}
        for m in bench["end_to_end"]:
            summary = summarize([r["metrics"][m["name"]]["value"] for _, r in runs])
            summary.update(unit=m["unit"], bound=m["bound"])
            metrics[m["name"]] = summary
            print(f"{workload:9s} {m['name']:12s} median {summary['median']:.5g} "
                  f"spread {summary['spread']:.3f} (bound {m['bound']})", flush=True)
        out["workloads"][workload] = {
            "metrics": metrics,
            "correct": all(r["correct"] for _, r in runs) and traced["correct"],
            "failed_ops": sorted({op for d, _ in runs for op in d["failed_ops"]}),
            "known_defects": sorted({op for d, _ in runs for op in d["known_defects"]}),
            "ladders": {name: {"ceilings": [d["ladders"][name]["ceiling"] for d, _ in runs],
                               "end_states": sorted({d["ladders"][name]["status"]
                                                     for d, _ in runs})}
                        for name in runs[0][0]["ladders"]},
            "calib_ms": [d["env"]["calib_ms"] for d, _ in runs],
            "traced_seed": args.seeds[0],
            "per_layer": {k: v["value"] for k, v in traced["metrics"].items()},
            "traced_ladders": detail["ladders"],
        }
    Path(args.out).parent.mkdir(parents=True, exist_ok=True)
    Path(args.out).write_text(json.dumps(out, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
