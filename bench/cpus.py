"""Which CPU the benchmark's processes run on.

The host's CPUs slow down and recover independently of each other, for
seconds to minutes at a time; on a CPU that has just slowed, all Python
code runs up to twice as long.  ``fastest`` times a short fixed loop on
each CPU the process may use and returns the quickest, so that a process
pinned there measures the program rather than the other tenants of that
CPU.  Where affinity cannot be set, or only one CPU is allowed, there is
nothing to choose and every function here does nothing.
"""

from __future__ import annotations

import os
import time
from contextlib import contextmanager

PROBE_LOOPS = 60_000        # about 6 ms of pure Python
PICK_EVERY_S = 1.0


def allowed() -> list[int]:
    """Every CPU this process may use.  A child inherits its parent's pin,
    so the mask is first widened to all CPUs; the kernel keeps only those
    that the process is allowed."""
    if not hasattr(os, "sched_setaffinity"):
        return []
    os.sched_setaffinity(0, range(os.cpu_count() or 1))
    return sorted(os.sched_getaffinity(0))


def _probe_s() -> float:
    t0 = time.perf_counter()
    acc = 0
    for i in range(PROBE_LOOPS):
        acc = (acc + i * i) % 1_000_003
    return time.perf_counter() - t0


def fastest(cpus: list[int]) -> int:
    """The CPU of ``cpus`` on which the probe loop runs fastest now (the
    better of two probes on each); leaves this process pinned to it."""
    timed = []
    for cpu in cpus:
        os.sched_setaffinity(0, {cpu})
        timed.append((min(_probe_s(), _probe_s()), cpu))
    best = min(timed)[1]
    os.sched_setaffinity(0, {best})
    return best


@contextmanager
def on_fastest():
    """Run the block pinned to the fastest CPU now, then let this process
    use all its CPUs again; a child started inside keeps the pin."""
    cpus = allowed()
    if len(cpus) < 2:
        yield
        return
    fastest(cpus)
    try:
        yield
    finally:
        os.sched_setaffinity(0, set(cpus))


def picker():
    """A callable that, when ``PICK_EVERY_S`` have gone by since it last
    did, pins this process to the fastest CPU now.  A pass child calls it
    between ops, so that the pick is never timed."""
    cpus = allowed()
    picked = None

    def pick():
        nonlocal picked
        if len(cpus) < 2 or picked is not None and time.perf_counter() - picked < PICK_EVERY_S:
            return
        fastest(cpus)
        picked = time.perf_counter()

    return pick
