"""The benchmark's own output checks and self-test pass on this program.

``benchmarks/run.py`` checks every call with the checks in
``benchmarks/workloads.py`` and runs ``benchmarks/selftest.py`` before it
times anything, so output those checks reject would otherwise only show
when the benchmark runs.  Here two calls of each workload go through
``clone_sim.cli.main`` and are checked as the benchmark checks them.
"""

import contextlib
import importlib.util
import io
import pathlib
import sys

import pytest

from clone_sim import cli

BENCH = pathlib.Path(__file__).resolve().parent.parent / "benchmarks"
SEED = 20210
# selftest imports these siblings by their plain names
SIBLINGS = ("speed", "tracer", "workloads")


def _load(name):
    spec = importlib.util.spec_from_file_location(f"_benchmark_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def harness():
    added = [name for name in SIBLINGS if name not in sys.modules]
    sys.path.insert(0, str(BENCH))
    try:
        yield _load("workloads"), _load("selftest")
    finally:
        sys.path.remove(str(BENCH))
        for name in added + [f"_benchmark_{name}" for name in ("workloads", "selftest")]:
            sys.modules.pop(name, None)


def _invoke(workloads, call):
    """One call through ``cli.main`` with its output captured, as the benchmark runs it."""
    if call.summary is not None:
        call.summary.unlink(missing_ok=True)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(list(call.argv))
    summary = None
    if call.summary is not None and call.summary.exists():
        summary = call.summary.read_text(encoding="utf-8")
    return workloads.Outcome(rc, 0.0, out.getvalue(), err.getvalue(), None, summary)


@pytest.mark.parametrize("name", ["sweep_ideal", "sweep_jitter", "run_cavity32", "validate"])
@pytest.mark.parametrize("index", [0, 1])
def test_benchmark_output_checks_pass(harness, tmp_path, name, index):
    workloads, _ = harness
    workload = workloads.workloads(lambda call: _invoke(workloads, call))[name]
    call = workload.make_call(SEED, index, tmp_path)
    assert workload.check(call, _invoke(workloads, call)) is None


def test_benchmark_self_test_passes(harness):
    _, selftest = harness
    assert selftest.run_all() is None
