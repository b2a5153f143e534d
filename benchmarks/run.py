"""Benchmark of the clone-sim command line, run in-process.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from ``src/``.
Every call goes through ``clone_sim.cli.main`` in this one process, one
after another, with ``--jobs`` left at 1.  Workloads, metrics and the
seed-commit baseline are described in ``benchmarks/README.md``.

With ``--trace 0`` the run measures the end-to-end metrics: set-up time
in fresh interpreters, then unit calls timed for ``--seconds`` (and at
least the workload's minimum call count), scaled by the machine's
slowdown measured alongside (``speed.py``); when a run spans both of the
host's speed states, it also checks that this slowdown still tracks the
calls.  With ``--trace 1`` it runs a fixed number of calls, each
untraced and then twice with every layer function wrapped in spans, and
reports per-layer call counts, self times and per-clone work counts,
which must repeat exactly across the two traced passes.  Every call's output is checked.  The last line of
standard output is one JSON object: correct, attempted, failed and
metrics.  The exit code is 0 only if every check passed.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_RUNS = 5
SETUP_TIMEOUT_S = 60
MEASURE_CAP_S = 120  # stop timing calls here even below the minimum count

# Set-up time: a fresh interpreter, from before importing clone_sim to the
# end of the workload's first call, then the machine's slowdown right
# after it.  Prints "<seconds> <slowdown> <exit code>".
SETUP_CODE = """
import sys, time
start = time.perf_counter()
sys.path.insert(0, sys.argv[1])
from clone_sim import cli
import contextlib, io
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    rc = cli.main(sys.argv[3:])
seconds = time.perf_counter() - start
sys.path.insert(0, sys.argv[2])
from speed import REFERENCE_S, kernel_seconds
kernel_seconds()
print(seconds, sum(kernel_seconds() for _ in range(3)) / 3 / REFERENCE_S, rc)
"""


def _import_program():
    if not (SRC / "clone_sim" / "__init__.py").is_file():
        sys.exit(f"benchmark: no program at {SRC / 'clone_sim'}; run from a clone-sim checkout")
    sys.path.insert(0, str(SRC))
    from clone_sim import cli

    if Path(cli.__file__).resolve().parent.parent != SRC:
        sys.exit(f"benchmark: imported clone_sim from {cli.__file__}, not from {SRC}")
    return cli


cli = _import_program()

import numpy as np  # noqa: E402  (after the program, which requires it)

import selftest  # noqa: E402
from speed import REFERENCE_S, SpeedProbe, scaling_check  # noqa: E402
from tracer import LAYERS, SPAN_NAMES, Tracer  # noqa: E402
from workloads import Call, Outcome, Workload, workloads  # noqa: E402


def invoke(call: Call) -> Outcome:
    """Run one call through ``cli.main``, capturing its output and timing it."""
    if call.summary is not None:
        call.summary.unlink(missing_ok=True)
    out, err = io.StringIO(), io.StringIO()
    rc, error = None, None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            rc = cli.main(list(call.argv))
        except SystemExit as exc:  # argparse rejects flags this way
            rc = exc.code if isinstance(exc.code, int) else 2
        except Exception as exc:  # a crash is a failed call, not a failed benchmark
            error = f"{type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - start
    summary = None
    if call.summary is not None and call.summary.exists():
        summary = call.summary.read_text(encoding="utf-8")
    return Outcome(rc, seconds, out.getvalue(), err.getvalue(), error, summary)


class Tally:
    """Attempted and failed program calls, plus failed harness checks."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []  # the first few failures
        self.harness_ok = True

    def _keep(self, label: str, reason: str) -> None:
        if len(self.reasons) < 5:
            self.reasons.append(f"{label}: {reason}")

    def record(self, label: str, reason: str | None) -> None:
        """One program call and the reason its output is wrong, if it is."""
        self.attempted += 1
        if reason is not None:
            self.failed += 1
            self._keep(label, reason)

    def harness(self, label: str, reason: str | None) -> None:
        """A check of the harness itself, not of a program call."""
        if reason is not None:
            self.harness_ok = False
            self._keep(label, reason)

    @property
    def correct(self) -> bool:
        return self.harness_ok and self.failed == 0


def percentile(sorted_values: list[float], pct: float) -> float:
    """Nearest-rank percentile: at least (100 - pct)% of samples lie at or above it."""
    rank = max(1, math.ceil(round(pct / 100.0 * len(sorted_values), 9)))
    return sorted_values[rank - 1]


def measure_setup(workload: Workload, seed: int, tally: Tally) -> list[tuple[float, float]]:
    """(seconds, slowdown) of SETUP_RUNS fresh interpreters, each running the first call."""
    call = workload.make_call(seed, 0, OUT)
    runs = []
    for k in range(SETUP_RUNS):
        try:
            done = subprocess.run(
                [sys.executable, "-c", SETUP_CODE, str(SRC), str(HERE), *call.argv],
                cwd=ROOT, capture_output=True, text=True, timeout=SETUP_TIMEOUT_S,
            )
            seconds, slowdown, rc = done.stdout.split()
            runs.append((float(seconds), float(slowdown)))
            problem = None if rc == "0" else f"exit code {rc}"
        except subprocess.TimeoutExpired:
            problem = f"no result within {SETUP_TIMEOUT_S} s"
        except ValueError:
            problem = f"interpreter failed: {done.stderr.strip()[-300:]}"
        tally.record(f"set-up {k}", problem)
    return runs


def call_metrics(times: list[float], clones_per_call: int, tail_pct: float) -> dict[str, float]:
    ordered = sorted(times)
    return {
        "clones_per_s": clones_per_call * len(times) / sum(times),
        "call_ms_p50": 1e3 * statistics.median(ordered),
        "call_ms_tail": 1e3 * percentile(ordered, tail_pct),
    }


def timed_run(workload: Workload, seed: int, seconds: int, bound: float,
              tally: Tally) -> tuple[dict, dict]:
    OUT.mkdir(exist_ok=True)
    setups = measure_setup(workload, seed, tally)
    first = workload.make_call(seed, 0, OUT)
    tally.record("warm-up", workload.check(first, invoke(first)))

    # Each call's time is also divided by the slowdown measured around it.
    wall: list[float] = []
    reading_before: list[int] = []
    probe = SpeedProbe()
    start = time.perf_counter()
    index = 1
    while True:
        elapsed = time.perf_counter() - start
        if elapsed >= MEASURE_CAP_S or (elapsed >= seconds and len(wall) >= workload.min_calls):
            break
        call = workload.make_call(seed, index, OUT)
        reading_before.append(len(probe.readings) - 1)
        outcome = invoke(call)
        probe.update()
        wall.append(outcome.seconds)
        tally.record(f"call {index}", workload.check(call, outcome))
        index += 1
    scaled = [t / probe.around(k) for t, k in zip(wall, reading_before)]
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    pairs = [probe.readings[k:k + 2] for k in reading_before]
    scaling, problem = scaling_check(wall, pairs, bound)
    tally.harness("speed scaling", problem)

    metrics = {
        "setup_s": statistics.median(s / slow for s, slow in setups) if setups else math.nan,
        **call_metrics(scaled, workload.clones_per_call, workload.tail_pct),
        "peak_rss_mb": peak_rss_mb,
    }
    raw = {
        "setup_s": statistics.median(s for s, _ in setups) if setups else math.nan,
        **call_metrics(wall, workload.clones_per_call, workload.tail_pct),
    }
    tail = percentile(sorted(scaled), workload.tail_pct)
    detail = {
        "calls": len(wall),
        "clones_per_call": workload.clones_per_call,
        "tail_percentile": workload.tail_pct,
        "beyond_tail": sum(t > tail for t in scaled),
        "wall": raw,
        "mean_slowdown": statistics.fmean(probe.samples) / REFERENCE_S,
        "kernel_samples": len(probe.samples),
        "scaling_check": scaling,
        "setup_runs": setups,
    }
    return metrics, detail


def work_counts(tracer: Tracer, clones: int) -> dict[str, float]:
    """Exact per-clone work counts of one traced pass that scored ``clones`` clones."""
    calls = tracer.calls()
    counts = {
        f"dynamics.pulses_per_clone.{fn[len('apply_'):]}": calls[f"dynamics.{fn}"] / clones
        for fn in ("apply_jc", "apply_drive_ge", "apply_drive_ie", "apply_raman",
                   "apply_free_evolution")
    }
    counts["hilbert.states_per_clone"] = calls["hilbert.PureState"] / clones
    counts["hilbert.amplitude_bytes_per_clone"] = 16 * tracer.amplitudes / clones
    counts["verify.target_builds_per_clone"] = calls["verify.target_state"] / clones
    return counts


def traced_run(workload: Workload, seed: int, seconds: int, tally: Tally) -> tuple[dict, dict]:
    OUT.mkdir(exist_ok=True)
    n_calls = max(2, round(workload.trace_calls_per_s * seconds))
    first = workload.make_call(seed, 0, OUT)
    tally.record("warm-up", workload.check(first, invoke(first)))
    # Each call runs untraced and then under each of two tracers, back to
    # back, so the overhead ratio compares calls made at the same speed.
    tracer, repeat = Tracer(), Tracer()
    untraced_s = traced_s = 0.0
    for k in range(1, n_calls + 1):
        call = workload.make_call(seed, k, OUT)
        plain = invoke(call)
        with tracer.installed():
            traced = invoke(call)
        with repeat.installed():
            again = invoke(call)
        untraced_s += plain.seconds
        traced_s += traced.seconds
        for label, outcome in (("untraced", plain), ("traced", traced), ("repeat", again)):
            tally.record(f"{label} call {k}", workload.check(call, outcome))
    clones = workload.clones_per_call * n_calls
    first_counts = (tracer.calls(), work_counts(tracer, clones))
    repeat_counts = (repeat.calls(), work_counts(repeat, clones))
    tally.harness("count repeat", None if first_counts == repeat_counts else
                 "work counts differ between two traced passes of the same calls")

    tracer.write_csv(OUT / f"spans_{workload.name}.csv")
    calls_by_name, self_s = tracer.calls(), tracer.self_seconds()
    total_self = sum(self_s.values())
    metrics: dict[str, float] = {}
    for name in SPAN_NAMES:
        metrics[f"{name}.calls"] = calls_by_name[name]
        metrics[f"{name}.self_s"] = self_s[name]
    for module in LAYERS:
        module_self = sum(v for k, v in self_s.items() if k.startswith(module + "."))
        metrics[f"{module}.self_s"] = module_self
        metrics[f"{module}.share"] = module_self / total_self
    metrics.update(work_counts(tracer, clones))
    metrics["trace.overhead_ratio"] = traced_s / untraced_s
    detail = {
        "calls_per_pass": n_calls,
        "clones_per_pass": clones,
        "spans_per_pass": len(tracer.spans),
        "untraced_wall_s": untraced_s,
        "traced_wall_s": traced_s,
        "spans_file": str((OUT / f"spans_{workload.name}.csv").relative_to(ROOT)),
    }
    return metrics, detail


def _command_output(argv: list[str]) -> str | None:
    try:
        done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def provenance(args: argparse.Namespace) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    cache = {}
    for level in ("LEVEL2", "LEVEL3"):
        size = _command_output(["getconf", f"{level}_CACHE_SIZE"])
        cache[f"{level.lower()}_cache_bytes"] = int(size) if size and size.isdigit() else None
    sha = _command_output(["git", "rev-parse", "HEAD"]) if (ROOT / ".git").exists() else None
    return {
        "git_sha": sha or "unknown (not a git checkout)",
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        **cache,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def load_declared() -> dict[str, dict[str, dict]]:
    """Metric name -> declaration from BENCHMARK.json, for end-to-end and per-layer runs."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {kind: {m["name"]: m for m in spec[kind]} for kind in ("end_to_end", "per_layer")}


def main() -> int:
    catalogue = workloads(invoke)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(catalogue))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    declared = load_declared()["per_layer" if args.trace else "end_to_end"]
    workload = catalogue[args.workload]

    tally = Tally()
    tally.harness("self-test", selftest.run_all())
    if args.trace:
        metrics, detail = traced_run(workload, args.seed, args.seconds, tally)
    else:
        bound = declared["call_ms_p50"]["bound"]
        metrics, detail = timed_run(workload, args.seed, args.seconds, bound, tally)
    if set(metrics) != set(declared):
        missing, extra = sorted(set(declared) - set(metrics)), sorted(set(metrics) - set(declared))
        sys.exit(f"benchmark: metrics differ from BENCHMARK.json: missing {missing}, extra {extra}")

    print(f"workload {workload.name}  seed {args.seed}  trace {args.trace}")
    wall = detail.get("wall", {})
    for name in sorted(metrics) if args.trace else metrics:
        raw = f"  (wall {wall[name]:.6g})" if name in wall else ""
        print(f"  {name:44s} {metrics[name]:14.6g} {declared[name]['unit']}{raw}")
    print(f"  {'failed_fraction':44s} {tally.failed / tally.attempted:14.6g} "
          f"fraction ({tally.failed}/{tally.attempted})")
    scaling = detail.get("scaling_check")
    if scaling and scaling["mismatch"] is not None:
        print(f"  speed scaling: slow-host calls differ by {scaling['mismatch']:+.1%} "
              f"(standard error {scaling['mismatch_se']:.1%}) from quiet-host calls")
    for reason in tally.reasons:
        print(f"  FAILED {reason}")
    print("detail " + json.dumps(detail))
    print("provenance " + json.dumps(provenance(args)))
    print(json.dumps({
        "correct": tally.correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": declared[name]["unit"]} for name, value in metrics.items()},
    }))
    return 0 if tally.correct else 1


if __name__ == "__main__":
    sys.exit(main())
