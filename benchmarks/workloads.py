"""The four benchmark workloads: how each call is generated and checked.

Every call goes through ``clone_sim.cli.main`` with flags generated from
the benchmark seed and the call index, so the same seed gives the same
calls.  Each workload's check reads only what the call printed (and the
summary file it wrote) and returns None when the output is right, or a
one-line reason when it is not.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

FIVE_SIXTHS = 5.0 / 6.0
FIDELITY_TOL = 1e-9
LEAK_TOL = 1e-10
VARIANCE_TOL = 1e-18
SWEEP_N = 100
JITTER = 0.05
# Cloning runs in one ``validate`` call: check_step_conformance and
# check_basis_run_amplitudes clone the two basis inputs each,
# check_clone_quality five random inputs, check_run_hygiene one.
VALIDATE_CLONES = 10
CSV_HEADER = "sample,theta,phi,f2,f3,target_overlap,leakage"


@dataclass(frozen=True)
class Call:
    """One unit call: the argv given to ``cli.main`` and what it should produce."""

    argv: tuple[str, ...]
    seed: int | None = None  # the --seed flag, for sweeps and validate
    theta: float | None = None
    phi: float | None = None
    summary: Path | None = None  # file the call writes with --summary


@dataclass(frozen=True)
class Outcome:
    """What one call did: exit code (None if it raised), wall time, and output."""

    rc: int | None
    seconds: float
    stdout: str
    stderr: str
    error: str | None = None
    summary: str | None = None


@dataclass(frozen=True)
class Workload:
    name: str
    # Clones one unit call scores: rows of a sweep (the sweep check makes
    # sure there are exactly SWEEP_N), one per run, VALIDATE_CLONES per
    # validate.  clones_per_s and the per-clone work counts divide by it.
    clones_per_call: int
    # Calls in a timed run continue past --seconds until there are this
    # many, so the tail percentile 100 * (1 - 10 / min_calls) always has at
    # least ten samples beyond it.
    min_calls: int
    # Calls in each traced pass, per second of --seconds.
    trace_calls_per_s: float
    make_call: Callable[[int, int, Path], Call]
    check: Callable[[Call, Outcome], str | None]

    @property
    def tail_pct(self) -> float:
        return 100.0 * (1.0 - 10.0 / self.min_calls)


def _rng(seed: int, index: int) -> np.random.Generator:
    return np.random.default_rng([seed, index])


def _call_seed(seed: int, index: int) -> int:
    return int(_rng(seed, index).integers(0, 2**31))


def sweep_inputs(seed: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The Bloch angles ``sweep --seed`` documents: theta = arccos(1 - 2u), phi = 2 pi v."""
    rng = np.random.default_rng(seed)
    thetas = np.arccos(1.0 - 2.0 * rng.random(n))
    phis = 2.0 * math.pi * rng.random(n)
    return thetas, phis


def _exit_problem(outcome: Outcome, expected: tuple[int, ...] = (0,)) -> str | None:
    if outcome.error is not None:
        return f"raised {outcome.error}"
    if outcome.rc not in expected:
        return f"exit code {outcome.rc}, expected {expected}: {outcome.stderr.strip()[:200]}"
    return None


def _g12(x: float) -> float:
    return float(f"{x:.12g}")


def parse_sweep(call: Call, outcome: Outcome) -> list[tuple[float, ...]] | str:
    """Rows of a sweep CSV as (f2, f3, target_overlap, leakage), or a reason it is wrong."""
    lines = outcome.stdout.splitlines()
    if not lines or lines[0] != CSV_HEADER:
        return "sweep output lacks the CSV header"
    if len(lines) != SWEEP_N + 1:
        return f"sweep printed {len(lines) - 1} rows, expected {SWEEP_N}"
    thetas, phis = sweep_inputs(call.seed, SWEEP_N)
    rows = []
    for k, line in enumerate(lines[1:]):
        fields = line.split(",")
        try:
            sample, theta, phi, *values = int(fields[0]), *map(float, fields[1:])
        except ValueError:
            return f"row {k} is not numeric: {line!r}"
        if len(values) != 4:
            return f"row {k} has {len(fields)} fields"
        if sample != k or theta != _g12(thetas[k]) or phi != _g12(phis[k]):
            return f"row {k} input ({sample}, {theta}, {phi}) is not the seeded sample"
        rows.append(tuple(values))
    return rows


def _sweep_call(seed: int, index: int, out_dir: Path, jitter: bool) -> Call:
    s = _call_seed(seed, index)
    argv = ("sweep", "-n", str(SWEEP_N), "--seed", str(s))
    if jitter:
        return Call(argv + ("--timing-jitter", str(JITTER)), seed=s)
    summary = out_dir / "summary.json"
    return Call(argv + ("--summary", str(summary)), seed=s, summary=summary)


def check_sweep_ideal(call: Call, outcome: Outcome) -> str | None:
    problem = _exit_problem(outcome)
    if problem:
        return problem
    rows = parse_sweep(call, outcome)
    if isinstance(rows, str):
        return rows
    for k, (f2, f3, _, leakage) in enumerate(rows):
        if abs(f2 - FIVE_SIXTHS) > FIDELITY_TOL or abs(f3 - FIVE_SIXTHS) > FIDELITY_TOL:
            return f"row {k} fidelities ({f2}, {f3}) are not 5/6"
        if leakage > LEAK_TOL:
            return f"row {k} leakage {leakage} above {LEAK_TOL}"
    try:
        summary = json.loads(outcome.summary or "")
    except json.JSONDecodeError:
        return "summary file missing or not JSON"
    if summary.get("n") != SWEEP_N or not summary.get("variance", 1.0) < VARIANCE_TOL:
        return f"summary {summary} fails n = {SWEEP_N}, variance < {VARIANCE_TOL}"
    return None


def make_check_sweep_jitter(invoke: Callable[[Call], Outcome]):
    """The jittered-sweep check; ``invoke`` runs the independent single-clone call."""

    def check(call: Call, outcome: Outcome) -> str | None:
        problem = _exit_problem(outcome)
        if problem:
            return problem
        rows = parse_sweep(call, outcome)
        if isinstance(rows, str):
            return rows
        for k, row in enumerate(rows):
            if not all(0.0 <= value <= 1.0 for value in row):
                return f"row {k} has a field outside [0, 1]: {row}"
        thetas, phis = sweep_inputs(call.seed, SWEEP_N)
        argv = ("run", "--timing-jitter", str(JITTER), "--seed", str(call.seed),
                "--theta", repr(float(thetas[0])), "--phi", repr(float(phis[0])))
        single = invoke(Call(argv))
        # run exits 1 (gate) or 3 (leakage) on a jittered clone; it still reports.
        problem = _exit_problem(single, expected=(0, 1, 3))
        if problem:
            return f"independent run: {problem}"
        try:
            report = json.loads(single.stdout)
            expected = tuple(report[key] for key in
                             ("fidelity_squid2", "fidelity_squid3", "target_overlap", "leakage"))
        except (json.JSONDecodeError, KeyError):
            return "independent run printed no report"
        if rows[0] != expected:
            return f"row 0 {rows[0]} differs from the independent run {expected}"
        return None

    return check


def _cavity_call(seed: int, index: int, out_dir: Path) -> Call:
    u, v = (float(x) for x in _rng(seed, index).random(2))
    theta, phi = math.acos(1.0 - 2.0 * u), 2.0 * math.pi * v
    argv = ("run", "--fock-cutoff", "32", "--theta", repr(theta), "--phi", repr(phi))
    return Call(argv, theta=theta, phi=phi)


def check_run_cavity32(call: Call, outcome: Outcome) -> str | None:
    problem = _exit_problem(outcome)
    if problem:
        return problem
    try:
        report = json.loads(outcome.stdout)
    except json.JSONDecodeError:
        return "run printed no JSON report"
    if report.get("passed") is not True:
        return "run report has passed != true"
    if not report.get("leakage", 1.0) <= LEAK_TOL:
        return f"run leakage {report.get('leakage')} above {LEAK_TOL}"
    echoed = report.get("input", {})
    if (echoed.get("theta"), echoed.get("phi")) != (_g12(call.theta), _g12(call.phi)):
        return f"run echoed input {echoed}, not the generated angles"
    return None


def _validate_call(seed: int, index: int, out_dir: Path) -> Call:
    s = _call_seed(seed, index)
    return Call(("validate", "--seed", str(s)), seed=s)


def check_validate(call: Call, outcome: Outcome) -> str | None:
    problem = _exit_problem(outcome)
    if problem:
        return problem
    lines = outcome.stdout.splitlines()
    words = lines[-1].split() if lines else []
    if len(words) != 3 or words[1:] != ["checks", "passed"]:
        return "validate printed no 'k/n checks passed' line"
    passed, _, total = words[0].partition("/")
    if not total.isdigit() or passed != total or int(total) < 1 or len(lines) != 1:
        return f"validate reported failures: {outcome.stdout.strip()[:200]}"
    return None


def workloads(invoke: Callable[[Call], Outcome]) -> dict[str, Workload]:
    # Minimum call counts fix the tail percentile: p90, and only p50 for
    # validate (~1 s a call), since about twenty calls fit in one run.
    # run_cavity32 makes ~2500 calls, enough for p99, but its p99 is made
    # of bursts shorter than the speed probe's cadence: scaled, it spread
    # by 18-20% over ten runs, against about 6% for p90.
    table = (
        Workload("sweep_ideal", SWEEP_N, 100, 1.0,
                 lambda s, i, out: _sweep_call(s, i, out, jitter=False), check_sweep_ideal),
        Workload("sweep_jitter", SWEEP_N, 100, 1.0,
                 lambda s, i, out: _sweep_call(s, i, out, jitter=True),
                 make_check_sweep_jitter(invoke)),
        Workload("run_cavity32", 1, 100, 25.0, _cavity_call, check_run_cavity32),
        Workload("validate", VALIDATE_CLONES, 20, 0.2, _validate_call, check_validate),
    )
    return {w.name: w for w in table}
