"""Child process of the benchmark.

``--mode setup``   start, import krl, generate the workload's inputs,
                   print ``ready`` and exit (one set-up sample).
``--mode pass``    the same set-up, then timed passes over the op list
                   until ``--seconds`` have gone by (at least one pass);
                   prints one JSON result line.
                   With ``--trace 1`` krl is traced and the per-layer
                   figures of each pass are returned.
``--mode ladders`` run the ladders of ``--workload`` (or of ``all``) and
                   print their rungs as JSON.

The parent (``run.py``) times set-up from the spawn to the ``ready``
line and reads peak memory from this process's resource usage.

Between two ops, at most once a second, a pass child moves itself to the
CPU that runs fastest just then (``cpus.picker``).  Moving is all it
does: it is still one process with one caller, and the move is not timed.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import time
from pathlib import Path

import cpus

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))


def _args(argv):
    ap = argparse.ArgumentParser()
    ap.add_argument("--mode", choices=("setup", "pass", "ladders"), required=True)
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=1.0)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--reference", default=str(BENCH / "reference.json"))
    ap.add_argument("--spans", help="file to write the traced spans to")
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = _args(argv)
    if args.mode == "ladders":
        import ladders
        workload = None if args.workload == "all" else args.workload
        print(json.dumps(ladders.run_ladders(ladders.names_for(workload))))
        return 0

    import answers
    import workloads
    workdir = ROOT / ".bench_tmp" / f"{args.mode}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        os.chdir(workdir)
        inputs = workloads.setup(args.workload, args.seed, workdir=workdir)
        print("ready", flush=True)
        if args.mode == "pass":
            print(json.dumps(_passes(args, inputs, answers, workloads)), flush=True)
    finally:
        os.chdir(ROOT)
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


def _passes(args, inputs, answers, workloads) -> dict:
    with open(args.reference, encoding="utf-8") as fh:
        reference = json.load(fh)
    tracer = None
    if args.trace:
        import tracing
        tracer = tracing.Tracer().install()
    session = answers.Session(reference, tracer=tracer)
    session.before_op = cpus.picker()
    walls, layers, latencies = [], [], []
    start = time.perf_counter()
    while True:
        if tracer is not None:
            tracer.reset()
        session.latencies = []
        t0 = time.perf_counter()
        workloads.run_pass(inputs, session)
        walls.append(time.perf_counter() - t0)
        latencies.append([t * 1000.0 for t in session.latencies])
        if tracer is not None:
            layers.append(tracer.metrics())
        if time.perf_counter() - start >= args.seconds:
            break
    if tracer is not None and args.spans:
        Path(args.spans).parent.mkdir(parents=True, exist_ok=True)
        with open(args.spans, "a", encoding="utf-8") as fh:
            for span in tracer.spans:
                fh.write(json.dumps(span) + "\n")
    return {
        "walls": walls,
        "latencies_ms": latencies,
        "attempted": session.attempted,
        "failures": session.failures,
        "known": session.known,
        "exit_mismatch": session.expect_misses,
        "layers": layers,
    }


if __name__ == "__main__":
    sys.exit(main())
