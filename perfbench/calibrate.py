"""Interpreter speed, measured while the timed operations run.

On a shared machine the speed of a CPU-bound Python process drifts by up to
a factor of two within seconds.  On a shared 2-vCPU virtual machine the same
klogic call took 9 ms in one second and 17 ms a few seconds later, and CPU
time tracked wall time.  Most of the drift is common to all pure-Python
work.  So the benchmark times a fixed loop, which owes nothing to klogic,
right before and after each operation and every SAMPLE_S during it, from a
SIGALRM handler whose own time is left out.  An operation's time is then
the integral of REFERENCE_S / loop time over its wall time: milliseconds at
the reference speed, the speed at which one loop takes REFERENCE_S.  A
change to klogic moves the operation and leaves the loop alone, so it shows
in full.  Raw wall times are printed beside the scaled ones.
"""

from __future__ import annotations

import argparse
import signal
import time

REFERENCE_S = 0.0006
SAMPLE_S = 0.05


def _pass() -> float:
    """Build a small argparse parser and parse one argv.  Of the loops
    tried, this general mix of small objects, attribute lookups and string
    work followed klogic's own drift most closely."""
    start = time.perf_counter()
    parser = argparse.ArgumentParser(prog="calibrate")
    sub = parser.add_subparsers(dest="command")
    p = sub.add_parser("check")
    p.add_argument("formula")
    p.add_argument("--mode", choices=("valid", "sat"), default="valid")
    p.add_argument("--limit", type=int)
    p = sub.add_parser("table")
    p.add_argument("formulas", nargs="+")
    p.add_argument("--format", choices=("text", "csv", "json"), default="text")
    parser.parse_args(["check", "a & b", "--mode", "sat", "--limit", "3"])
    return time.perf_counter() - start


def loop_s() -> float:
    """Seconds for one pass of the loop, the best of three."""
    return min(_pass(), _pass(), _pass())


def scale(before_s: float, after_s: float) -> float:
    """Factor from wall time to time at the reference speed."""
    return REFERENCE_S / ((before_s + after_s) / 2)


class Sampler:
    """Reads the loop's time every SAMPLE_S while `timed` runs, so an
    operation lasting seconds is scaled by the speed along its whole length."""

    def __init__(self):
        self._points: list[tuple[float, float, float]] = []

    def _sample(self, signum, frame) -> None:
        start = time.perf_counter()
        k = loop_s()  # best of three: the first pass after klogic ran starts cold
        self._points.append((start, k, time.perf_counter() - start))

    def timed(self, sample: bool, fn, *args):
        """(wall seconds without the samples, seconds at the reference speed,
        fn's result).  Without `sample` only the readings before and after
        count: a child process runs on its own while this one waits."""
        self._points = []
        before = loop_s()
        previous = signal.signal(signal.SIGALRM, self._sample)
        start = time.perf_counter()
        if sample:
            signal.setitimer(signal.ITIMER_REAL, SAMPLE_S, SAMPLE_S)
        try:
            result = fn(*args)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            end = time.perf_counter()
            signal.signal(signal.SIGALRM, previous)
        after = loop_s()
        # Each stretch between two speed readings runs at their mean speed;
        # the time spent reading is left out.
        points = [(start, before, 0.0), *self._points, (end, after, 0.0)]
        wall = end - start - sum(d for _, _, d in points)
        reference = 0.0
        for (t0, k0, d0), (t1, k1, _) in zip(points, points[1:]):
            reference += (t1 - t0 - d0) * REFERENCE_S / ((k0 + k1) / 2)
        return wall, reference, result
