"""Self-test of the benchmark harness; run.py runs it before every run.

    python3 benchmarks/selftest.py

It checks that the sweep output check accepts a correct synthetic sweep
and flags a doctored row (f2 = 0.8) and a nonzero exit code, that self
times come out right on a synthetic span tree, and that the speed-scaling
check passes calls that slow down with the kernel and flags calls that
do not.
"""

from __future__ import annotations

import json
import sys

from speed import scaling_check
from tracer import self_times
from workloads import (
    CSV_HEADER,
    FIVE_SIXTHS,
    SWEEP_N,
    Call,
    Outcome,
    check_sweep_ideal,
    sweep_inputs,
)


def _synthetic_sweep(seed: int, f2_row0: float, rc: int) -> tuple[Call, Outcome]:
    thetas, phis = sweep_inputs(seed, SWEEP_N)
    lines = [CSV_HEADER]
    for k in range(SWEEP_N):
        f2 = f2_row0 if k == 0 else FIVE_SIXTHS
        lines.append(f"{k},{thetas[k]:.12g},{phis[k]:.12g},{f2:.12g},{FIVE_SIXTHS:.12g},1,0")
    summary = json.dumps({"variance": 0.0, "n": SWEEP_N})
    return Call(("sweep",), seed=seed), Outcome(rc, 0.0, "\n".join(lines) + "\n", "", None, summary)


def check_output_checker() -> str | None:
    if check_sweep_ideal(*_synthetic_sweep(7, FIVE_SIXTHS, 0)) is not None:
        return "output check rejects a correct sweep"
    if check_sweep_ideal(*_synthetic_sweep(7, 0.8, 0)) is None:
        return "output check accepts a sweep row with f2 = 0.8"
    if check_sweep_ideal(*_synthetic_sweep(7, FIVE_SIXTHS, 1)) is None:
        return "output check accepts exit code 1"
    return None


def check_self_time() -> str | None:
    # root [0, 100] holds a [10, 40] (which holds c [15, 25]), b [50, 60],
    # and two overlapping children d [70, 90], e [80, 95]: the root's
    # children cover 30 + 10 + 25 = 65 of its 100.
    spans = [
        ("root", 0, 100, -1),
        ("a", 10, 40, 0),
        ("c", 15, 25, 1),
        ("b", 50, 60, 0),
        ("d", 70, 90, 0),
        ("e", 80, 95, 0),
    ]
    got = self_times(spans)
    want = [35, 20, 10, 10, 20, 15]
    return None if got == want else f"self times {got}, expected {want}"


def check_scaling_check() -> str | None:
    # Forty quiet calls (slowdown 1.0) and forty slow ones (1.8) of 100 ms
    # work each, with 1% noise.
    pairs = [[1.0, 1.0]] * 40 + [[1.8, 1.8]] * 40
    noise = [1.0 + 0.01 * ((7 * k) % 5 - 2) for k in range(80)]
    tracking = [0.1 * n * p[0] for n, p in zip(noise, pairs)]
    report, problem = scaling_check(tracking, pairs, bound=0.2)
    if problem is not None or abs(report["mismatch"]) > 1e-12:
        return f"flags calls that track the kernel: {report}"
    if scaling_check([0.1 * n for n in noise], pairs, bound=0.2)[1] is None:
        return "accepts calls that do not slow down with the kernel"
    if scaling_check(tracking[:40], pairs[:40], bound=0.2)[0]["mismatch"] is not None:
        return "judges a run that stayed in one host state"
    return None


def run_all() -> str | None:
    """The first self-test failure, or None if all pass."""
    for check in (check_output_checker, check_self_time, check_scaling_check):
        problem = check()
        if problem is not None:
            return f"{check.__name__}: {problem}"
    return None


if __name__ == "__main__":
    problem = run_all()
    print(problem or "harness self-test passed")
    sys.exit(1 if problem else 0)
