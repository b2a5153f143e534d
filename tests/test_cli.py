"""Command-line interface: exit codes, JSON/CSV output, config plumbing."""

import cmath
import contextlib
import dataclasses
import functools
import io
import itertools
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import clone_sim
from clone_sim.cli import main

FIVE_SIXTHS = 5.0 / 6.0


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ----------------------------------------------------------------- run


def test_run_default_input_reports_five_sixths(capsys):
    code, out, err = run_cli(capsys, "run", "--theta", "0", "--phi", "0")
    assert code == 0 and err == ""
    payload = json.loads(out)
    assert payload["fidelity_squid2"] == 0.833333333333  # 12 significant digits
    assert payload["fidelity_squid3"] == 0.833333333333
    assert payload["target_overlap"] == 1.0
    assert payload["passed"] is True
    assert payload["seed"] == 20210
    assert payload["input"]["theta"] == 0.0
    assert payload["leakage"] <= 1e-10


def test_run_accepts_amplitudes_instead_of_angles(capsys):
    code, out, _ = run_cli(capsys, "run", "--alpha", "1", "--beta", "0")
    assert code == 0
    payload = json.loads(out)
    assert payload["input"]["theta"] is None
    assert payload["input"]["alpha"] == [1.0, 0.0]
    assert payload["fidelity_squid2"] == 0.833333333333


def test_run_normalizes_amplitude_input(capsys):
    code, out, _ = run_cli(capsys, "run", "--alpha", "3,0", "--beta", "0,4")
    assert code == 0
    payload = json.loads(out)
    assert abs(payload["input"]["alpha"][0] - 0.6) < 1e-12
    assert abs(payload["input"]["beta"][1] - 0.8) < 1e-12


def test_run_writes_trace_file(tmp_path, capsys):
    path = tmp_path / "trace.json"
    code, _, _ = run_cli(capsys, "run", "--alpha", "1", "--beta", "0",
                         "--trace", str(path))
    assert code == 0
    entries = json.loads(path.read_text())
    labels = [entry["label"] for entry in entries]
    assert labels == ["input"] + [f"step{k}" for k in range(1, 11)]
    dim = len(entries[0]["state"]["amplitudes"])
    assert dim == 81


def test_run_tiny_jitter_trips_the_tolerance_gate(capsys):
    # perturbation too small to leak photons but large enough to miss 5/6
    code, out, err = run_cli(capsys, "run", "--theta", "0.4", "--phi", "0.2",
                             "--timing-jitter", "1e-8", "--seed", "5")
    assert code == 1
    payload = json.loads(out)
    assert payload["passed"] is False
    assert payload["leakage"] <= 1e-10
    assert abs(payload["fidelity_squid2"] - FIVE_SIXTHS) > 1e-9


def test_run_large_jitter_exits_with_physics_code(capsys):
    code, out, err = run_cli(capsys, "run", "--theta", "1.1", "--phi", "0.3",
                             "--timing-jitter", "0.05", "--seed", "3")
    assert code == 3
    assert "leakage" in err
    assert json.loads(out)["passed"] is False


# ----------------------------------------------------------------- trace


def test_trace_command_prints_full_history(capsys):
    code, out, _ = run_cli(capsys, "trace", "--theta", "0.3", "--phi", "0.9")
    assert code == 0
    entries = json.loads(out)
    assert len(entries) == 11
    assert entries[0]["t_elapsed"] == 0.0
    assert entries[-1]["label"] == "step10"


# ----------------------------------------------------------------- sweep


def test_sweep_emits_csv_rows(capsys):
    code, out, _ = run_cli(capsys, "sweep", "-n", "6", "--seed", "7")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "sample,theta,phi,f2,f3,target_overlap,leakage"
    assert len(lines) == 7
    for line in lines[1:]:
        f2 = float(line.split(",")[3])
        assert abs(f2 - FIVE_SIXTHS) < 1e-9


def test_sweep_output_is_bit_identical_across_invocations(capsys):
    _, first, _ = run_cli(capsys, "sweep", "-n", "9", "--seed", "123")
    _, second, _ = run_cli(capsys, "sweep", "-n", "9", "--seed", "123")
    assert first == second


def test_sweep_single_sample_matches_run_for_the_same_input(capsys):
    _, csv_out, _ = run_cli(capsys, "sweep", "-n", "1", "--seed", "55")
    row = csv_out.strip().split("\n")[1].split(",")
    rng = np.random.default_rng(55)
    theta = float(np.arccos(1.0 - 2.0 * rng.random(1))[0])
    phi = 2.0 * math.pi * float(rng.random(1)[0])
    _, run_out, _ = run_cli(capsys, "run", "--theta", repr(theta), "--phi", repr(phi))
    payload = json.loads(run_out)
    assert float(row[1]) == float(f"{theta:.12g}")
    assert float(row[3]) == payload["fidelity_squid2"]
    assert float(row[4]) == payload["fidelity_squid3"]
    assert float(row[6]) == payload["leakage"]


@pytest.mark.parametrize("argv", [("run", "--theta", "1.1", "--phi", "0.4"),
                                  ("sweep", "-n", "300", "--seed", "3")])
def test_nominal_output_does_not_depend_on_the_photon_cutoff(tmp_path, capsys, argv):
    # a nominal clone is scored at its walked cutoff, min(cutoff, 2), so every
    # cutoff from 2 up prints the same bytes (cutoff 1 is a real truncation)
    outputs = set()
    for cutoff in (2, 3, 8, 32, 10_000):
        summary = tmp_path / f"s{cutoff}.json"
        extra = ("--summary", str(summary)) if argv[0] == "sweep" else ()
        code, out, err = run_cli(capsys, *argv, "--fock-cutoff", str(cutoff), *extra)
        assert (code, err) == (0, "")
        outputs.add((out, summary.read_bytes() if extra else b""))
    assert len(outputs) == 1


@pytest.mark.parametrize("argv", [
    ("run", "--theta", "1.1", "--phi", "0.4", "--timing-jitter", "0.05"),
    ("sweep", "-n", "40", "--seed", "3", "--timing-jitter", "0.05"),
])
def test_jittered_output_does_not_depend_on_the_photon_cutoff(tmp_path, capsys, argv):
    # a jittered clone walks and scores on its basis list, the 45 states it
    # can reach, which every cutoff from 2 up shares; cutoff 1 truncates
    from clone_sim.protocol import DEFAULT_COUPLINGS, _uqcm_program

    outputs = {}
    for cutoff in (1, 2, 3, 8, 32, 10_000):
        summary = tmp_path / f"s{cutoff}.json"
        extra = ("--summary", str(summary)) if argv[0] == "sweep" else ()
        code, out, err = run_cli(capsys, *argv, "--fock-cutoff", str(cutoff), *extra)
        outputs[cutoff] = (code, out, err, summary.read_bytes() if extra else b"")
        if cutoff > 1:
            listed = _uqcm_program(DEFAULT_COUPLINGS, cutoff).basis_list
            assert (listed.spec.fock_cutoff, len(listed.index)) == (2, 45)
    assert len(set(outputs.values())) == 2
    assert outputs[1] != outputs[2] and outputs[2][0] in (0, 1, 3)


def test_a_nominal_run_clones_only_for_its_trace(tmp_path, capsys, monkeypatch):
    import clone_sim.cli as cli
    from clone_sim.protocol import clone_trace

    calls = []
    monkeypatch.setattr(cli, "clone_trace",
                        lambda *args, **kwargs: calls.append(args) or clone_trace(*args, **kwargs))
    argv = ("run", "--theta", "1.1", "--phi", "0.4")
    code, plain, _ = run_cli(capsys, *argv)
    assert code == 0 and calls == []
    path = tmp_path / "t.json"
    code, traced, _ = run_cli(capsys, *argv, "--trace", str(path))
    assert (code, traced) == (0, plain) and len(calls) == 1
    _, printed, _ = run_cli(capsys, "trace", "--theta", "1.1", "--phi", "0.4")
    assert path.read_text() == printed


@pytest.mark.parametrize("seed", [0, 2**32])
def test_jittered_run_reports_sweep_row_zero(capsys, seed):
    # run and sweep row 0 read the same first eleven draws of the seed's jitter stream;
    # the angles are sample 0's exact draws, not the CSV's 12-digit rounding
    code, out, _ = run_cli(capsys, "sweep", "-n", "1", "--seed", str(seed),
                           "--timing-jitter", "0.05")
    assert code == 0
    row = out.strip().split("\n")[1].split(",")
    rng = np.random.default_rng(seed)  # the sweep's input stream, as it draws n = 1
    theta = float(np.arccos(1.0 - 2.0 * rng.random(1))[0])
    phi = float(2.0 * math.pi * rng.random(1)[0])
    code, out, _ = run_cli(capsys, "run", "--theta", repr(theta), "--phi", repr(phi),
                           "--seed", str(seed), "--timing-jitter", "0.05")
    assert code in (1, 3)
    report = json.loads(out)
    fields = ("fidelity_squid2", "fidelity_squid3", "target_overlap", "leakage")
    assert [report[name] for name in fields] == [float(value) for value in row[3:]]


def test_sweep_summary_file(tmp_path, capsys):
    path = tmp_path / "summary.json"
    code, _, _ = run_cli(capsys, "sweep", "-n", "5", "--seed", "11",
                         "--summary", str(path))
    assert code == 0
    summary = json.loads(path.read_text())
    assert summary["n"] == 5 and summary["seed"] == 11
    assert summary["variance"] < 1e-18


def test_sweep_with_jitter_reports_without_asserting(capsys):
    code, out, _ = run_cli(capsys, "sweep", "-n", "3", "--seed", "7",
                           "--timing-jitter", "0.01")
    assert code == 0  # degraded numbers are data, not failures
    for line in out.strip().split("\n")[1:]:
        fields = line.split(",")
        assert abs(float(fields[3]) - FIVE_SIXTHS) > 1e-6
        assert float(fields[6]) > 1e-10


# ----------------------------------------------------------------- validate


def test_validate_passes_and_verbose_lists_every_check(capsys):
    code, out, _ = run_cli(capsys, "validate")
    assert code == 0
    assert out.strip() == "13/13 checks passed"
    code, out, _ = run_cli(capsys, "validate", "--verbose")
    assert code == 0
    lines = out.strip().split("\n")
    assert len(lines) == 14  # 13 checks plus the tally
    assert all("PASS" in line for line in lines[:-1])


# ------------------------------------------------------------ configuration


def test_config_file_supplies_defaults_and_flags_override(tmp_path, capsys):
    cfg = tmp_path / "sim.cfg"
    cfg.write_text("theta = 0.25  # polar angle\nphi = 1.5\nseed = 77\n")
    _, out, _ = run_cli(capsys, "run", "--config", str(cfg))
    payload = json.loads(out)
    assert payload["input"]["theta"] == 0.25
    assert payload["seed"] == 77
    _, out, _ = run_cli(capsys, "run", "--config", str(cfg), "--theta", "0.5")
    assert json.loads(out)["input"]["theta"] == 0.5


def test_config_file_found_through_environment(tmp_path, capsys, monkeypatch):
    cfg = tmp_path / "env.cfg"
    cfg.write_text("seed = 4242\n")
    monkeypatch.setenv("CLONE_SIM_CONFIG", str(cfg))
    _, out, _ = run_cli(capsys, "run", "--theta", "0", "--phi", "0")
    assert json.loads(out)["seed"] == 4242


@pytest.mark.parametrize("content", [
    "volume = 11\n",           # unknown key
    "lambda 0.5\n",            # missing equals sign
    "lambda = 0\n",            # rate must be positive
    "timing_jitter = 1.5\n",   # outside [0, 1)
    "tolerance = 0\n",
    "fock_cutoff = 0\n",
    "jobs = 0\n",
    "num_samples = 0\n",
])
def test_bad_config_files_exit_with_code_two(tmp_path, capsys, content):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(content)
    code, _, err = run_cli(capsys, "run", "--config", str(cfg))
    assert code == 2
    assert err.startswith("config error:")


def test_missing_config_file_exits_with_code_two(capsys):
    code, _, err = run_cli(capsys, "run", "--config", "/nonexistent/sim.cfg")
    assert code == 2 and "cannot read" in err


@pytest.mark.parametrize("argv", [
    ("run", "--trace", "{tmp}/missing/t.json"),                # no such directory
    ("run", "--trace", "{tmp}"),                               # a directory
    ("sweep", "-n", "2", "--summary", "{tmp}/missing/s.json"),
    ("run", "--config", "{tmp}/binary.cfg"),                   # not UTF-8
])
def test_unwritable_outputs_and_undecodable_configs_exit_with_code_two(tmp_path, capsys, argv):
    (tmp_path / "binary.cfg").write_bytes(b"\xff\xfe")
    code, out, err = run_cli(capsys, *(arg.format(tmp=tmp_path) for arg in argv))
    assert (code, out) == (2, "")
    assert err.startswith("config error:") and err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ("run", "--theta", "0.1", "--alpha", "1", "--beta", "0"),  # two input styles
    ("run", "--alpha", "1"),                                   # beta missing
    ("run", "--alpha", "0", "--beta", "0"),                    # zero vector
    ("run", "--alpha", "one", "--beta", "0"),                  # unparseable
    ("run", "--timing-jitter", "-0.1"),
])
def test_inconsistent_flags_exit_with_code_two(capsys, argv):
    code, _, err = run_cli(capsys, *argv)
    assert code == 2
    assert err.startswith("config error:")


def test_unknown_flag_is_a_usage_error():
    with pytest.raises(SystemExit) as info:
        main(["run", "--frequency", "9"])
    assert info.value.code == 2


# Each flag: (its dest, the words after it, the value it parses to).
FLAGS = {
    "--config": ("config", ["sim.cfg"], "sim.cfg"), "--theta": ("theta", ["0.5"], 0.5),
    "--phi": ("phi", ["1.5"], 1.5), "--alpha": ("alpha", ["1"], "1"),
    "--beta": ("beta", ["0"], "0"), "--seed": ("seed", ["7"], 7),
    "--timing-jitter": ("timing_jitter", ["0.05"], 0.05),
    "--fock-cutoff": ("fock_cutoff", ["3"], 3), "--tolerance": ("tolerance", ["1e-6"], 1e-6),
    "--trace": ("trace", ["t.json"], "t.json"), "-n": ("num_samples", ["4"], 4),
    "--summary": ("summary", ["s.json"], "s.json"), "--verbose": ("verbose", [], True),
}
INPUT_FLAGS = {"--theta", "--phi", "--alpha", "--beta"}
# The flags each command reads; every other flag is one it would ignore.
READS = {
    "run": set(FLAGS) - {"-n", "--summary", "--verbose"},
    "trace": {"--config", "--seed", "--timing-jitter", "--fock-cutoff"} | INPUT_FLAGS,
    "sweep": {"--config", "--seed", "--timing-jitter", "--fock-cutoff", "-n", "--summary"},
    "validate": {"--config", "--seed", "--verbose"},
}


@pytest.mark.parametrize("command, flag", [
    (command, flag) for command in READS for flag in sorted(set(FLAGS) - READS[command])])
def test_a_flag_the_command_ignores_is_a_usage_error(capsys, command, flag):
    with pytest.raises(SystemExit) as info:
        main([command, flag, *FLAGS[flag][1]])
    assert info.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert f"unrecognized arguments: {flag}" in err


@pytest.mark.parametrize("command, flag", [
    (command, flag) for command in READS for flag in sorted(READS[command])])
def test_every_flag_a_command_reads_still_parses(command, flag):
    import clone_sim.cli as cli

    dest, words, value = FLAGS[flag]
    assert getattr(cli._build_parser().parse_args([command, flag, *words]), dest) == value


def test_console_script_entry_point():
    # the child imports the same clone_sim as this process, with or without PYTHONPATH
    src = os.path.dirname(os.path.dirname(clone_sim.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    proc = subprocess.run(
        [sys.executable, "-m", "clone_sim.cli", "run", "--theta", "0", "--phi", "0"],
        capture_output=True, text=True, timeout=120, env=env,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["passed"] is True


def test_a_reader_that_closes_stdout_gets_exit_141_and_no_traceback():
    # The summary goes to the same pipe first, as one line; the reader reads
    # it and closes the pipe while the sweep still formats its 20000 CSV
    # lines, so the CSV meets a closed pipe.
    src = os.path.dirname(os.path.dirname(clone_sim.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    proc = subprocess.Popen(
        [sys.executable, "-m", "clone_sim.cli", "sweep", "-n", "20000", "--seed", "3",
         "--summary", "/dev/stdout"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    assert json.loads(proc.stdout.readline())["n"] == 20000
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=120) == 141
    assert err == b""


# --------------------------------------------------- non-finite and edge inputs


@pytest.mark.parametrize("argv", [
    ("run", "--theta", "nan"),
    ("run", "--theta", "inf"),
    ("run", "--phi", "nan"),
    ("run", "--alpha", "nan", "--beta", "0"),
    ("run", "--alpha", "1,inf", "--beta", "0"),
    ("run", "--tolerance", "nan"),
    ("run", "--seed", "-1"),
    ("sweep", "-n", "2", "--seed", "-1"),
    ("sweep", "-n", str(2**32 + 1), "--timing-jitter", "0.05"),
    ("run", "--fock-cutoff", str(10**11)),
])
def test_non_finite_and_negative_inputs_exit_with_code_two(capsys, argv):
    code, _, err = run_cli(capsys, *argv)
    assert code == 2
    assert err.startswith("config error:")


@pytest.mark.parametrize("command", [("run",), ("trace",), ("sweep", "-n", "2")])
@pytest.mark.parametrize("cutoff", [10_001, 10**11])
def test_a_cutoff_above_the_maximum_exits_two_before_any_state_is_built(
        capsys, monkeypatch, command, cutoff):
    # 10**11 photons would ask for a 39 TiB state; the bound must stop it first
    import clone_sim.cli as cli

    def refuse(*args, **kwargs):
        raise AssertionError("a state was built for an out-of-range cutoff")

    for name in ("clone_trace", "perturbed_schedule", "universality_sweep"):
        monkeypatch.setattr(cli, name, refuse)
    code, out, err = run_cli(capsys, *command, "--fock-cutoff", str(cutoff))
    assert code == 2 and out == ""
    assert err == f"config error: fock_cutoff must be <= 10000, got {cutoff}\n"


def test_the_maximum_cutoff_is_accepted():
    import clone_sim.cli as cli

    args = cli._build_parser().parse_args(["run", "--fock-cutoff", str(cli.MAX_FOCK_CUTOFF)])
    assert cli._resolve_settings(args).fock_cutoff == cli.MAX_FOCK_CUTOFF == 10_000


@pytest.mark.parametrize("content", ["lambda = inf\n", "omega_gi = nan\n", "delta = inf\n"])
def test_non_finite_config_values_exit_with_code_two(tmp_path, capsys, content):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(content)
    code, _, err = run_cli(capsys, "run", "--config", str(cfg))
    assert code == 2
    assert err.startswith("config error:")


@pytest.mark.parametrize("content, first", [
    ("theta = nan\nlambda = inf\nalpha = inf\nbeta = 1\n", "lambda must be finite, got inf"),
    ("beta = nan\nalpha = 1,inf\nphi = nan\n", "phi must be finite, got nan"),
    ("alpha = 1,inf\nbeta = nan\n", "alpha must be finite, got (1+infj)"),
])
def test_a_config_with_several_non_finite_values_names_the_first_in_key_order(
        tmp_path, capsys, content, first):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(content)
    code, _, err = run_cli(capsys, "run", "--config", str(cfg))
    assert code == 2
    assert err == f"config error: {first}\n"


@pytest.mark.parametrize("argv, rows", [
    (("run", "--seed", str(10**400)), None),
    (("sweep", "-n", "2", "--seed", str(10**400), "--timing-jitter", "0.1"), 2),
])
def test_huge_seeds_run_without_a_traceback(capsys, argv, rows):
    # an int this large overflows float(), so the finiteness check must skip ints
    code, out, err = run_cli(capsys, *argv)
    assert code == 0 and err == ""
    if rows is None:
        assert json.loads(out)["seed"] == 10**400
    else:
        assert len(out.splitlines()) == rows + 1


@given(flag=st.sampled_from(["--theta", "--phi", "--tolerance", "--timing-jitter", "--alpha"]),
       value=st.floats(allow_nan=True, allow_infinity=True))
@settings(max_examples=60, deadline=None)
def test_float_flags_map_to_documented_exit_codes(flag, value):
    argv = ["run", f"{flag}={value!r}"]  # "=" keeps argparse from reading -1e+16 as a flag
    if flag == "--alpha":
        argv += ["--beta", "1"]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2, 3)
    if not math.isfinite(value):
        assert code == 2
    if code == 2:
        assert err.getvalue().startswith("config error:")


def test_sweep_maps_a_tripped_raman_guard_to_exit_three(capsys, monkeypatch):
    # a schedule without the step6 parking drives reaches step7 with e population
    import clone_sim.protocol as protocol

    full = protocol.build_uqcm_schedule()
    truncated = protocol.Schedule(full.slots[:5] + full.slots[6:])
    monkeypatch.setattr(protocol, "build_uqcm_schedule", lambda cfg=None: truncated)
    # a fresh program cache, so the sweep compiles the truncated schedule
    monkeypatch.setattr(protocol, "_uqcm_program",
                        functools.lru_cache(protocol._uqcm_program.__wrapped__))
    code, out, err = run_cli(capsys, "sweep", "-n", "3", "--seed", "1")
    assert code == 3
    assert out == ""
    assert err.startswith("physics error: step7: sample 0: squid2 e-level population")


def _programs_with_one_faulty_pulse(index, position, factor):
    """A fresh program cache whose pulse ``index`` has coefficient ``position`` times ``factor``."""
    from clone_sim import protocol

    compile_program = protocol._uqcm_program.__wrapped__

    def build(cfg, fock_cutoff):
        program = compile_program(cfg, fock_cutoff)
        count = itertools.count()

        def faulty(coeffs):
            if next(count) != index:
                return coeffs
            return tuple(array * factor if k == position else array
                         for k, array in enumerate(coeffs))

        runs = tuple((step, elapsed, tuple((slot, op, faulty(coeffs), rows)
                                           for slot, op, coeffs, rows in run))
                     for step, elapsed, run in program.runs)
        return dataclasses.replace(program, runs=runs)

    return functools.lru_cache(build)


@pytest.mark.parametrize("index, position, factor, step, basis_walks", [
    (0, 0, 1.0 + 1e-9, "step1", False),  # step 1's cos: the basis walk itself trips
    (7, 1, cmath.exp(1e-9j), "step7", True),  # squid 1's coupling: only superposed rows drift
])
def test_a_kernel_fault_in_one_pulse_exits_three_naming_a_sample(capsys, monkeypatch, index,
                                                                 position, factor, step,
                                                                 basis_walks):
    # the error names the pulse's own step, as the walk's check after that pulse does
    from clone_sim import protocol

    monkeypatch.setattr(protocol, "_uqcm_program",
                        _programs_with_one_faulty_pulse(index, position, factor))
    program = protocol._uqcm_program(protocol.DEFAULT_COUPLINGS, 2)
    assert (program.basis is not None) == basis_walks
    for argv in (("run", "--theta", "1.1", "--phi", "0.4"), ("sweep", "-n", "5", "--seed", "1")):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (3, "")
        assert err.startswith(f"physics error: {step}: sample 0: state norm is "), err


@pytest.mark.parametrize("content", [
    "lambda = 1e-308\n",       # the full-period exchange lasts inf
    "omega_ie = 1e-310\n",     # the i-e quarter period lasts inf
    "omega_gi = 1e-310\n",     # the phase-closure idle lasts inf
    "lambda_prime = 1e-310\n",  # the process pulse lasts inf
    "omega_gi = 1e308\n",      # omega_gi times the pulse time overflows
])
@pytest.mark.parametrize("command", [("run",), ("sweep", "-n", "2"), ("validate",)])
def test_finite_rates_without_a_finite_schedule_exit_with_code_two(tmp_path, capsys, content,
                                                                   command):
    cfg = tmp_path / "extreme.cfg"
    cfg.write_text(content)
    code, out, err = run_cli(capsys, *command, "--config", str(cfg))
    assert code == 2
    assert out == ""
    assert err.startswith("config error: the rates give no cloning schedule: ")
    assert err.count("\n") == 1 and "Traceback" not in err


@pytest.mark.parametrize("content", [
    "omega_gi = 24\nlambda_prime = 0.3\n",  # the process pulse ends on a closure
    "omega_gi = 173.33333333333334\n",
])
def test_a_pulse_ending_on_a_phase_closure_gets_a_zero_idle(tmp_path, capsys, content):
    # rounding left the idle at -8.9e-16 and -4.4e-16, which no pulse accepts
    cfg = tmp_path / "closure.cfg"
    cfg.write_text(content)
    code, out, _ = run_cli(capsys, "validate", "--config", str(cfg))
    assert (code, out) == (0, "13/13 checks passed\n")
    code, out, _ = run_cli(capsys, "run", "--config", str(cfg))
    assert code == 0
    assert abs(json.loads(out)["fidelity_squid2"] - FIVE_SIXTHS) < 1e-9


def test_jittered_runs_leave_the_program_cache_alone(capsys):
    # every jittered run compiles its own perturbed schedule for that call only
    from clone_sim.protocol import _uqcm_program

    info = _uqcm_program.cache_info()
    for seed in range(9000, 9050):
        code, _, _ = run_cli(capsys, "run", "--theta", "0.8", "--timing-jitter", "0.05",
                             "--seed", str(seed))
        assert code in (0, 1, 3)
    assert _uqcm_program.cache_info() == info