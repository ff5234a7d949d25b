"""A host-speed gauge that shares the benchmark's CPU with each sample.

The shared host the benchmark was tuned on changes the speed at which it
runs the same instructions by up to 1.6x, in phases from seconds to
minutes long, so raw times of the same code spread past any useful bound
from one run to the next.  The gauge measures that speed where and when
the sample runs: a forked process pinned to the same CPU repeats a fixed
piece of pure Python (no minflag code) for the whole run, and publishes
how many units it has done and the CPU time they took.  The kernel
interleaves it with each child in slices of a few milliseconds, so both
see the same host speed, and

    time in reference seconds = CPU time * REFERENCE_UNIT_S / unit time

over the same window follows the program and not the host.  The gauge
does not depend on the program, so a change to minflag moves the scaled
times as it moves the raw ones.
"""
from __future__ import annotations

import ctypes
import mmap
import multiprocessing
import os
import time

# One unit's CPU time on the 2-core Xeon host the benchmark was tuned on,
# in a typical phase, with a sample sharing the CPU.  It only sets the
# scale of the reported times.
REFERENCE_UNIT_S = 0.0033

_ROOTS = [tuple(1 if j == i else -1 if j == i + 1 else 0 for j in range(6)) for i in range(5)]
_START = (3, 2, 1, 1, 0, 0)


def orbit_size(start: tuple[int, ...], roots: list[tuple[int, ...]]) -> int:
    """Breadth-first orbit of ``start`` under the reflections in ``roots``.

    Integer tuples, set lookups and small loops: the kind of work minflag
    does, written independently of it.
    """
    seen = {start}
    queue = [start]
    for v in queue:
        for a in roots:
            d = sum(x * y for x, y in zip(v, a))
            w = tuple(x - d * y for x, y in zip(v, a)) if d else v
            if w not in seen:
                seen.add(w)
                queue.append(w)
    return len(seen)


def _repeat(shared, parent: int) -> None:
    base = time.process_time()
    units = 0
    while os.getppid() == parent:  # stop if the runner dies without stopping us
        if orbit_size(_START, _ROOTS) != 180:
            raise SystemExit("calibration computed a wrong orbit")
        units += 1
        shared[1] = time.process_time() - base
        shared[0] = units


def pin_to_one_cpu() -> None:
    """Run this process and every process it starts on one CPU."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


class Calibrator:
    """The gauge process; use as a context manager so it always stops."""

    def __enter__(self) -> Calibrator:
        # Anonymous shared memory: inherited by the fork, no file anywhere.
        self.buffer = mmap.mmap(-1, 2 * ctypes.sizeof(ctypes.c_double))
        self.shared = (ctypes.c_double * 2).from_buffer(self.buffer)  # units done, their CPU seconds
        ctx = multiprocessing.get_context("fork")
        self.proc = ctx.Process(target=_repeat, args=(self.shared, os.getpid()), daemon=True)
        self.proc.start()
        return self

    def __exit__(self, *exc) -> None:
        self.proc.terminate()
        self.proc.join()

    def mark(self) -> tuple[float, float]:
        # Units are published after their CPU time, so a read between
        # the two writes errs by one unit in thousands.
        return self.shared[0], self.shared[1]

    def unit_s(self, since: tuple[float, float]) -> float:
        """Mean CPU time of one unit since ``since`` (from ``mark``)."""
        units, cpu = self.mark()
        return (cpu - since[1]) / (units - since[0])
