"""A fixed reference kernel that measures how fast the machine runs right now.

On a shared virtual machine the same call can take 1.6 times longer for
seconds at a time while a neighbour loads the host, and a 20-second run
can fall mostly in either state.  Over ten runs, a median call time then
spreads by 13-42% of its value, more than a regression bound can allow.
The benchmark therefore times this kernel between timed calls (at most
once per CADENCE_S) and divides each call's time by the kernel's mean
slowdown against REFERENCE_S just before and just after the call.  The
result reads as the time the call would take on the quiet reference
machine.  The kernel is independent of clone_sim: small numpy
operations, object construction and number formatting, the mix the
program does, and in trials it slowed down by the same factor as a sweep
call.  A change to the program moves the scaled timings; a change in the
neighbours' load mostly does not.  Raw wall times are reported alongside,
and ``scaling_check`` tests, on each run's own calls, that the kernel
still slows down as much as they do.
"""

from __future__ import annotations

import math
import statistics
import time

import numpy as np

# Median kernel time on the reference machine (2-core x86-64 VM, Python
# 3.11, numpy 2.4 with OpenBLAS) while the host was quiet.
REFERENCE_S = 0.0020
CADENCE_S = 0.05  # kernel samples are taken at most this often
MAX_SAMPLES_PER_GAP = 10
# Host states for the speed-scaling check: a call ran on the quiet host
# when the readings before and after it were both at most QUIET_MAX, on
# the slow host when both were at least SLOW_MIN.  A state counts once it
# holds MIN_STATE_CALLS calls and MIN_STATE_S of call time, so that one
# kernel sample caught in a brief spike does not make a state.
QUIET_MAX = 1.2
SLOW_MIN = 1.4
MIN_STATE_CALLS = 5
MIN_STATE_S = 1.0


class _Pair:
    __slots__ = ("index", "values")

    def __init__(self, index: int, values: list[float]) -> None:
        self.index = index
        self.values = values


def kernel_seconds(reps: int = 250) -> float:
    """Wall time of one fixed unit of interpreter and small-array work."""
    start = time.perf_counter()
    base = np.ones((3, 3, 3, 3), dtype=np.complex128)
    acc = 0.0
    for k in range(reps):
        arr = base.copy()
        index = [slice(None)] * 4
        index[k % 4] = k % 3
        arr[tuple(index)] = arr[tuple(index)] * (0.5 + 1j)
        acc += float(np.linalg.norm(arr)) + float(np.vdot(arr, base).real)
        pair = _Pair(k, [k, k + 1.0, math.sqrt(k)])
        acc += sum(pair.values) + len(f"{acc:.12g}")
    return time.perf_counter() - start


class SpeedProbe:
    """Slowdown readings against REFERENCE_S, taken at most once per CADENCE_S."""

    def __init__(self) -> None:
        self.samples = [kernel_seconds()]
        self.readings = [self.samples[0] / REFERENCE_S]
        self._last = time.perf_counter()

    def update(self) -> None:
        """Add a reading from the kernel samples due since the last one, if any
        are (at most MAX_SAMPLES_PER_GAP of them)."""
        owed = min(MAX_SAMPLES_PER_GAP, int((time.perf_counter() - self._last) / CADENCE_S))
        if owed:
            fresh = [kernel_seconds() for _ in range(owed)]
            self.samples += fresh
            self.readings.append(statistics.fmean(fresh) / REFERENCE_S)
            self._last = time.perf_counter()

    def around(self, index: int) -> float:
        """Slowdown over a call made after reading ``index``: the mean of that
        reading and the next one, if there is a next one."""
        return statistics.fmean(self.readings[index:index + 2])


def _median_se(values: list[float]) -> float:
    """Standard error of the median of ``values``, as a share of it, estimated
    from their quartile spread."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return 1.2533 * (q3 - q1) / 1.349 / statistics.median(values) / math.sqrt(len(values))


def scaling_check(wall: list[float], pairs: list[list[float]], bound: float) -> tuple[dict, str | None]:
    """Whether the calls slow down as much as the speed kernel does.

    ``pairs`` holds the slowdown readings before and after each call (one,
    if no reading followed it).  The check compares the median scaled time
    of the calls made on the slow host with that of the calls made on the
    quiet one.  If scaling fits the calls, the two agree; if it does not,
    the scaled figures depend on which state each run fell in.  It fails
    once they differ by more than ``bound`` plus two standard errors of that
    difference, so that a few calls caught in a state change do not fail a
    run.  A run that stayed in one state cannot tell.
    """
    quiet, slow = [], []
    for t, pair in zip(wall, pairs):
        if max(pair) <= QUIET_MAX:
            quiet.append((t, t / statistics.fmean(pair)))
        elif min(pair) >= SLOW_MIN:
            slow.append((t, t / statistics.fmean(pair)))
    report = {"quiet_calls": len(quiet), "slow_calls": len(slow), "mismatch": None, "mismatch_se": None}
    if any(len(state) < MIN_STATE_CALLS or sum(t for t, _ in state) < MIN_STATE_S
           for state in (quiet, slow)):
        return report, None
    quiet_scaled, slow_scaled = [s for _, s in quiet], [s for _, s in slow]
    mismatch = statistics.median(slow_scaled) / statistics.median(quiet_scaled) - 1.0
    se = math.hypot(_median_se(quiet_scaled), _median_se(slow_scaled))
    report.update(mismatch=mismatch, mismatch_se=se)
    if abs(mismatch) - 2.0 * se <= bound:
        return report, None
    return report, (f"scaled calls on the slow host differ by {mismatch:+.1%} (standard error "
                    f"{se:.1%}) from those on the quiet host: speed.py's kernel no longer "
                    f"tracks this workload")
