"""krl's benchmark: one workload, one seed, every metric.

    python3 bench/run.py --workload explicit|powerset|cli --seed N \\
        --seconds S --trace 0|1

A run does, one child process at a time:

1. Set-up children, ``SETUP_RUNS`` at a time, at the start, before each
   pass child and at the end: each starts the interpreter, imports krl
   and generates the inputs from the seed, and its set-up sample is the
   time from spawn to its ``ready`` line.  The pass children give one
   sample each too.  ``setup_s`` is the least of these samples: the host
   has slow spells of several seconds, and, as for the op times below,
   the best of samples spread over the run is what they disturb least.
2. ``PASS_CHILDREN`` pass children, one after another, sharing
   ``--seconds``: each repeats the set-up, then runs a closed loop with
   one caller over the workload's fixed op list.  Every answer is
   checked against ``reference.json``.  ``peak_rss_mb`` is the largest
   peak resident memory among them, each read from ``wait4`` on that
   child alone.  Each op's time is its best over all their passes;
   ``wall_s`` sums them and ``op_p50_ms``/``op_p95_ms`` are their
   percentiles (the samples are the ops of one pass).
3. The workload's ladders, each rung in a child of its own with a time
   and an address-space limit; ``ceiling`` sums their ceilings.

Every child starts pinned to the CPU that runs fastest at that moment,
and a pass child moves again, between ops, at most once a second (see
``cpus.py``): the host's CPUs slow down independently of each other.

``ok_rate`` is one minus the share of failed ops (wrong answers, escaped
exceptions, op timeouts, broken exit codes, ladder invariants), counting
the named known defects of the cli workload.  The top-level ``failed``
count and ``correct`` leave the known defects out, so ``correct`` means:
every answer matches the reference.

With ``--trace 1`` the pass time is split between untraced and traced
pass children, every ladder of every workload runs, and the per-layer
metrics are printed instead of the end-to-end ones.

The last line of standard output is the JSON result; the line before it
holds the details (failed ops by name, known defects, ladder rungs and
the environment).  Without ``src/krl`` next to this directory the run
exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import cpus

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKER = BENCH / "worker.py"
SETUP_RUNS = 3
PASS_CHILDREN = 5
CHILD_TIMEOUT_S = 150.0


def calibrate_ms() -> float:
    """A fixed pure-Python loop; shows how fast the host runs right now."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(300_000):
        acc = (acc + i * i) % 1_000_003
    return (time.perf_counter() - t0) * 1000.0


def src_lines() -> int:
    return sum(len(p.read_text(encoding="utf-8").splitlines())
               for p in sorted((ROOT / "src" / "krl").glob("*.py")))


def commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.exists():
        return "unknown"
    ref = head.read_text().strip()
    if ref.startswith("ref: "):
        target = ROOT / ".git" / ref[5:]
        return target.read_text().strip() if target.exists() else "unknown"
    return ref


class ChildFailed(RuntimeError):
    pass


def spawn(args: list[str]) -> tuple[float | None, str | None, int]:
    """Run a worker, pinned to the CPU that runs fastest just then; return
    (seconds to its ready line, last stdout line, peak RSS in KiB of that
    child alone).  Set-up workers print no result.

    The child is reaped with ``wait4`` so that its own resource usage is
    read; a child still running after ``CHILD_TIMEOUT_S`` is killed.
    """
    with cpus.on_fastest():
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, str(WORKER), *args], cwd=ROOT,
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                text=True, start_new_session=True)
    ready, lines, errors = [], [], []

    def read_stdout():
        for line in proc.stdout:
            if not ready and line.strip() == "ready":
                ready.append(time.perf_counter() - t0)
            else:
                lines.append(line)

    readers = [threading.Thread(target=read_stdout),
               threading.Thread(target=lambda: errors.append(proc.stderr.read()))]
    for reader in readers:
        reader.start()
    try:
        while True:
            pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
            if pid:
                break
            if time.perf_counter() - t0 > CHILD_TIMEOUT_S:
                raise ChildFailed(f"worker {' '.join(args)} still running after "
                                  f"{CHILD_TIMEOUT_S} s")
            time.sleep(0.02)
    except BaseException:
        # the worker and any rung child it forked share its process group
        os.killpg(proc.pid, signal.SIGKILL)
        os.wait4(proc.pid, 0)
        proc.returncode = -signal.SIGKILL
        raise
    finally:
        for reader in readers:
            reader.join()
        proc.stdout.close()
        proc.stderr.close()
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0 or ("setup" not in args and not lines):
        raise ChildFailed(f"worker {' '.join(args)} exited {proc.returncode}: "
                          f"{''.join(errors).strip()[-2000:]}")
    return (ready[0] if ready else None), (lines[-1] if lines else None), usage.ru_maxrss


def setup_children(workload, seed) -> list[float]:
    """``SETUP_RUNS`` set-up samples, one child after another."""
    return [spawn(["--mode", "setup", "--workload", workload, "--seed", str(seed)])[0]
            for _ in range(SETUP_RUNS)]


def pass_children(workload, seed, seconds, trace, reference, spans=None):
    """``PASS_CHILDREN`` pass children one after another, each after
    ``SETUP_RUNS`` set-up children; returns the set-up times (their own
    and those of the pass children), the merged passes and the largest
    peak RSS.  A slow spell of the host, or a child placed badly on it,
    then spoils only part of the run.

    The children share the seconds: each gets an even share of what the
    passes before it left over, so that a child whose last pass ran over
    its share shortens the others and the passes take about ``seconds``
    in all."""
    readies, results, peak, spent = [], [], 0, 0.0
    for i in range(PASS_CHILDREN):
        share = max(seconds - spent, 0.0) / (PASS_CHILDREN - i)
        args = ["--mode", "pass", "--workload", workload, "--seed", str(seed),
                "--seconds", str(share), "--trace", str(trace), "--reference", reference]
        if spans:
            args += ["--spans", spans]
        readies += setup_children(workload, seed)
        ready_s, line, rss_kib = spawn(args)
        readies.append(ready_s)
        results.append(json.loads(line))
        spent += sum(results[-1]["walls"])
        peak = max(peak, rss_kib)
    merged = {key: [x for r in results for x in r[key]]
              for key in ("walls", "latencies_ms", "failures", "known", "layers")}
    merged["attempted"] = sum(r["attempted"] for r in results)
    merged["exit_mismatch"] = sum(r["exit_mismatch"] for r in results)
    return readies, merged, peak


def ladder_child(workload=None):
    """Every ladder of the workload, or of all workloads."""
    _, line, _ = spawn(["--mode", "ladders", "--workload", workload or "all"])
    return json.loads(line)


def best_of_passes(per_pass: list[list[float]]) -> list[float]:
    """Each op's best time over the run's passes.

    Every pass runs the same op list, so position i is the same op in
    each.  Other tenants of the host slow it in bursts of a few seconds;
    like ``timeit``, the best of several repetitions is the figure that
    such interference disturbs least.
    """
    return [min(times) for times in zip(*per_pass)]


def percentile(values, q):
    """The q-th percentile (1..99) by the inclusive method."""
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def _merge_layers(per_pass: list[dict]) -> dict:
    return {key: statistics.median(p[key] for p in per_pass) for key in per_pass[0]}


LAYER_UNITS = (("calls", "count"), ("computed", "count"), ("by_definition", "count"),
               ("_ms", "ms"), (".ms", "ms"), ("_ratio", "ratio"), ("bytes_", "bytes"),
               ("exit_mismatch", "count"))


def layer_unit(name: str) -> str:
    return next(unit for key, unit in LAYER_UNITS if key in name)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=("explicit", "powerset", "cli"), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--reference", default=str(BENCH / "reference.json"),
                    help="reference answers to check against")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "krl" / "__init__.py").exists():
        print(f"krl sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2

    calib = [calibrate_ms()]
    setups = setup_children(args.workload, args.seed)
    if args.trace:
        half = args.seconds / 2
        readies, plain, rss = pass_children(args.workload, args.seed, half, 0,
                                            args.reference)
        spans = ROOT / ".bench_out" / f"spans-{args.workload}-{args.seed}.jsonl"
        spans.unlink(missing_ok=True)
        _, traced, _ = pass_children(args.workload, args.seed, half, 1, args.reference,
                                     str(spans))
        ladders = ladder_child()
    else:
        readies, plain, rss = pass_children(args.workload, args.seed, args.seconds, 0,
                                            args.reference)
        traced = None
        ladders = ladder_child(args.workload)
    setups += readies + setup_children(args.workload, args.seed)
    calib.append(calibrate_ms())

    own = [name for name, lad in ladders.items() if lad["workload"] == args.workload]
    runs = [plain] + ([traced] if traced else [])
    rung_count = sum(len(lad["rungs"]) for lad in ladders.values())
    rung_errors = [(f"ladder.{name}", rung["detail"]) for name, lad in ladders.items()
                   for rung in lad["rungs"] if rung["status"] == "error"]
    failures = [f for run in runs for f in run["failures"]] + rung_errors
    known = [k for run in runs for k in run["known"]]
    attempted = sum(run["attempted"] for run in runs) + rung_count
    best_ms = best_of_passes(plain["latencies_ms"])
    wall_s = sum(best_ms) / 1000.0

    if args.trace:
        layers = _merge_layers(traced["layers"])
        layers["cli.exit_mismatch"] = traced["exit_mismatch"] / len(traced["walls"])
        metrics = {key: {"value": value, "unit": layer_unit(key)}
                   for key, value in layers.items()}
        for name, lad in ladders.items():
            metrics[f"ceiling.{name}"] = {"value": lad["ceiling"], "unit": "rungs"}
        metrics["env.calib_ms"] = {"value": statistics.mean(calib), "unit": "ms"}
        metrics["trace.overhead"] = {
            "value": sum(best_of_passes(traced["latencies_ms"])) / 1000.0 / wall_s,
            "unit": "ratio"}
        metrics["src.lines"] = {"value": src_lines(), "unit": "lines"}
    else:
        metrics = {
            "wall_s": {"value": wall_s, "unit": "s"},
            "op_p50_ms": {"value": percentile(best_ms, 50), "unit": "ms"},
            "op_p95_ms": {"value": percentile(best_ms, 95), "unit": "ms"},
            "ceiling": {"value": sum(ladders[n]["ceiling"] for n in own), "unit": "rungs"},
            "peak_rss_mb": {"value": rss / 1024.0, "unit": "MB"},
            "ok_rate": {"value": 1.0 - (len(failures) + len(known)) / attempted,
                        "unit": "ratio"},
            "setup_s": {"value": min(setups), "unit": "s"},
        }

    detail = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "passes": len(plain["walls"]), "op_samples": len(best_ms),
        "pass_walls_s": plain["walls"],
        "failed_ops": sorted({name for name, _ in failures}),
        "failures": failures[:20],
        "known_defects": sorted({name for name, _ in known}),
        "ladders": {name: {"ceiling": lad["ceiling"], "status": lad["status"],
                           "rungs": [(r["size"], r["status"], round(r["ms"], 1))
                                     for r in lad["rungs"]]}
                    for name, lad in ladders.items()},
        "setup_samples_s": setups,
        "env": {"commit": commit(), "python": platform.python_version(),
                "nproc": os.cpu_count(), "src_lines": src_lines(), "calib_ms": calib},
    }
    result = {"correct": not failures, "attempted": attempted, "failed": len(failures),
              "metrics": metrics}
    print(json.dumps(detail))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        sys.exit(main())
    except ChildFailed as exc:
        print(f"benchmark child failed: {exc}", file=sys.stderr)
        sys.exit(1)
