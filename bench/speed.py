"""Speed of the CPU a child process runs on, sampled while it runs.

On a small shared machine each CPU's speed wanders: a fixed interpreter loop
takes from 0.8 to 1.4 times its median time, in phases of five to fifteen
seconds, two CPUs of one machine wander independently, and the mix of
phases drifts over minutes. Averaged over a 50 s run, the same CLI command
still took 15-21% longer in some runs than in others.

The benchmark therefore runs each child process on one CPU, and a thread of
the benchmark process, pinned to the same CPU, times a fixed loop of about
a millisecond every ``PERIOD_S``. The loop's mean time during the child
over ``REF_LOOP_S`` says how much slower that CPU ran than the reference;
the CLI slows more than the loop does, as that ratio to the power
``SENSITIVITY``. The child's time divided by this slowdown is its time at
the reference speed. The thread takes about 2% of the child's CPU.
"""

from __future__ import annotations

import os
import random
import statistics
import threading
from time import perf_counter

import numpy as np

PERIOD_S = 0.05
# The loop's time on a 2.0 GHz Xeon vCPU in its fast phase: the reference speed.
REF_LOOP_S = 0.9e-3
# How much more than the loop the CLI slows in a slow phase: CLI time goes
# as the loop's time to this power (fitted over runs of both workloads on
# the reference machine; with 1 the spread of wall_s between runs halves,
# with 1.5 it falls to a third).
SENSITIVITY = 1.5
# A loop that took longer than this many times the interval's median was
# preempted, not slowed; phases differ by less than a factor of two.
PREEMPTED = 2.0

_POOL = 50_000  # scattered small objects, ~15 MB: the CLI slows most where memory is slow
_WALK = 300
_STIFFNESS = np.diag([4.0, 5.0, 6.0, 7.0, 8.0]) - 0.5


def _objects() -> list:
    objs = [{"k": i, "v": [i, i + 1]} for i in range(_POOL)]
    random.Random(0).shuffle(objs)
    return objs


def _loop(objs: list, offset: int) -> float:
    """Fixed work in the CLI's mix: interpreter, small eigensolves, scattered memory."""
    total = 0.0
    for i in range(3000):
        total += i * i
    for i in range(15):
        total += float(np.linalg.eigh(_STIFFNESS + i * 1e-3 * np.eye(5))[0][0])
    for o in objs[offset : offset + _WALK]:
        total += o["k"] + o["v"][1]
    return total


class SpeedProbe:
    """Timing loop on the CPU set in ``cpu``; use as a context manager."""

    def __init__(self):
        self.cpu = None
        self.samples = []  # (end time, cpu, loop seconds)
        self._objs = _objects()
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()

    def _run(self) -> None:
        tid = threading.get_native_id()
        offset = 0
        pinned = None
        while not self._stop.wait(PERIOD_S):
            cpu = self.cpu
            if cpu is None:
                continue
            if cpu != pinned:
                os.sched_setaffinity(tid, {cpu})
                pinned = cpu
            start = perf_counter()
            _loop(self._objs, offset)
            end = perf_counter()
            offset = (offset + _WALK) % (_POOL - _WALK)
            self.samples.append((end, cpu, end - start))

    def slowdown(self, cpu: int, start: float, end: float) -> float:
        """Mean loop time on ``cpu`` between ``start`` and ``end``, over
        ``REF_LOOP_S``, to the power ``SENSITIVITY``.

        Falls back to every sample on ``cpu``, then to 1, when the interval
        holds none.
        """
        on_cpu = [(t, s) for t, c, s in self.samples if c == cpu]
        during = [s for t, s in on_cpu if start <= t <= end] or [s for _, s in on_cpu]
        if not during:
            return 1.0
        limit = PREEMPTED * statistics.median(during)
        return (statistics.fmean(s for s in during if s <= limit) / REF_LOOP_S) ** SENSITIVITY
