"""Command line front end.

Commands: run (one clone, JSON report), sweep (CSV over Bloch-uniform
inputs), trace (per-step state dump as JSON), validate (self checks).
Each command takes only the flags it reads, so a flag it would ignore is
a usage error.  Flags override config-file keys, which every command
shares; the config file is flat ``key = value`` lines and defaults to the
path in $CLONE_SIM_CONFIG.  Exit codes:
0 success, 1 a tolerance gate or self check failed, 2 bad
configuration, 3 a physical precondition or leakage gate tripped, 141
the reader closed stdout before the output was written.
All reported numbers carry 12 significant digits.
"""

from __future__ import annotations

import argparse
import cmath
import functools
import json
import math
import os
import sys
from dataclasses import dataclass

from .checks import run_all_checks
from .dynamics import CouplingConfig
from .errors import PhysicsError
from .hilbert import E_LEAK_TOL
from .protocol import InputQubit, build_uqcm_schedule, clone_trace, jitter_rng, perturbed_schedule
from .verify import (
    MAX_FOCK_CUTOFF,
    MAX_SWEEP_SAMPLES,
    CloneReport,
    entry_fidelities,
    score_nominal,
    universality_sweep,
)

ENV_CONFIG = "CLONE_SIM_CONFIG"

# Config key -> (type, default).  Where a command has a flag of the key's
# name, the flag overrides the file; no command has one for the five rates,
# which only a config file sets.  The finiteness check runs over the float
# and complex keys in this order.
_SETTINGS: dict[str, tuple[type, object]] = {
    "lambda": (float, 1.0),
    "omega_ge": (float, 1.0),
    "omega_ie": (float, 1.0),
    "lambda_prime": (float, 1.0),
    "omega_gi": (float, 20.0),
    "fock_cutoff": (int, 2),
    "tolerance": (float, 1e-9),
    "seed": (int, 20210),
    "timing_jitter": (float, 0.0),
    "num_samples": (int, 100),
    "theta": (float, None),
    "phi": (float, None),
    "alpha": (complex, None),
    "beta": (complex, None),
}


class ConfigError(Exception):
    pass


@dataclass
class Settings:
    cfg: CouplingConfig
    fock_cutoff: int
    tolerance: float
    seed: int
    timing_jitter: float
    num_samples: int
    q: InputQubit | None
    theta: float | None
    phi: float | None
    trace_path: str | None
    summary_path: str | None
    verbose: bool


def _parse(key: str, value):
    """A config-file text or flag value as the key's type."""
    kind = _SETTINGS[key][0]
    if kind is complex:
        parts = [p.strip() for p in value.split(",")]
        try:
            if len(parts) == 1:
                return complex(float(parts[0]), 0.0)
            if len(parts) == 2:
                return complex(float(parts[0]), float(parts[1]))
        except ValueError:
            pass
        raise ConfigError(f"{key} must be 're' or 're,im', got {value!r}")
    try:
        return kind(value)
    except ValueError as exc:
        raise ConfigError(f"bad value for {key}: {value!r}") from exc


def _read_config_file(path: str) -> dict[str, str]:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            lines = handle.readlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    out: dict[str, str] = {}
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {raw.strip()!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _SETTINGS:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        out[key] = value
    return out


def _resolve_settings(args: argparse.Namespace) -> Settings:
    values = {key: default for key, (_, default) in _SETTINGS.items()}
    config_path = args.config or os.environ.get(ENV_CONFIG)
    if config_path:
        for key, text in _read_config_file(config_path).items():
            values[key] = _parse(key, text)
    for key in _SETTINGS:
        given = getattr(args, key, None)
        if given is not None:
            values[key] = _parse(key, given)
    for key, (kind, _) in _SETTINGS.items():
        # ints are exact; cmath.isfinite would overflow on a huge one
        if kind is not int and values[key] is not None and not cmath.isfinite(values[key]):
            raise ConfigError(f"{key} must be finite, got {values[key]}")

    try:
        cfg = CouplingConfig(
            lam=values["lambda"], omega_ge=values["omega_ge"], omega_ie=values["omega_ie"],
            lambda_prime=values["lambda_prime"], omega_gi=values["omega_gi"],
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    fock_cutoff = values["fock_cutoff"]
    if fock_cutoff < 1:
        raise ConfigError(f"fock_cutoff must be >= 1, got {fock_cutoff}")
    if fock_cutoff > MAX_FOCK_CUTOFF:
        raise ConfigError(f"fock_cutoff must be <= {MAX_FOCK_CUTOFF}, got {fock_cutoff}")
    tolerance = values["tolerance"]
    if tolerance <= 0.0:
        raise ConfigError(f"tolerance must be positive, got {tolerance}")
    seed = values["seed"]
    if seed < 0:
        raise ConfigError(f"seed must be >= 0, got {seed}")
    jitter = values["timing_jitter"]
    if not 0.0 <= jitter < 1.0:
        raise ConfigError(f"timing_jitter must lie in [0, 1), got {jitter}")
    num_samples = values["num_samples"]
    if num_samples < 1:
        raise ConfigError(f"num_samples must be >= 1, got {num_samples}")
    if num_samples > MAX_SWEEP_SAMPLES:
        raise ConfigError(f"num_samples must be <= 2**32, got {num_samples}")

    has_bloch = values["theta"] is not None or values["phi"] is not None
    has_amps = values["alpha"] is not None or values["beta"] is not None
    if has_bloch and has_amps:
        raise ConfigError("give either theta/phi or alpha/beta, not both")
    theta = phi = None
    if has_amps:
        if values["alpha"] is None or values["beta"] is None:
            raise ConfigError("alpha and beta must be given together")
        alpha, beta = values["alpha"], values["beta"]
        norm = math.hypot(abs(alpha), abs(beta))
        if norm == 0.0:
            raise ConfigError("alpha and beta cannot both be zero")
        try:
            q = InputQubit(alpha / norm, beta / norm)
        except ValueError as exc:
            raise ConfigError(f"cannot normalize alpha and beta: {exc}") from exc
    else:
        theta = values["theta"] if values["theta"] is not None else 0.0
        phi = values["phi"] if values["phi"] is not None else 0.0
        q = InputQubit.from_bloch(theta, phi)

    try:
        build_uqcm_schedule(cfg)  # every command runs it; finite rates can overflow its times
    except ValueError as exc:
        raise ConfigError(f"the rates give no cloning schedule: {exc}") from exc

    return Settings(
        cfg=cfg, fock_cutoff=fock_cutoff, tolerance=tolerance,
        seed=seed, timing_jitter=jitter,
        num_samples=num_samples, q=q, theta=theta, phi=phi,
        trace_path=getattr(args, "trace", None),
        summary_path=getattr(args, "summary", None),
        verbose=getattr(args, "verbose", False),
    )


def _sig12(obj):
    if isinstance(obj, bool):
        return obj
    if isinstance(obj, float):
        return float(f"{obj:.12g}")
    if isinstance(obj, dict):
        return {key: _sig12(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_sig12(item) for item in obj]
    return obj


def _write_json(path: str, payload) -> None:
    try:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(_sig12(payload), handle)
            handle.write("\n")
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc}") from exc


def _execute(settings: Settings):
    """Clone the input once, for its trace; with timing jitter, under sample 0's perturbed schedule."""
    schedule = None
    if settings.timing_jitter > 0.0:
        schedule = perturbed_schedule(build_uqcm_schedule(settings.cfg), settings.timing_jitter,
                                      jitter_rng(settings.seed))
    return clone_trace(
        settings.q, settings.cfg, fock_cutoff=settings.fock_cutoff,
        schedule=schedule, enforce_preconditions=settings.timing_jitter == 0.0,
    )


def cmd_run(settings: Settings) -> int:
    # A nominal clone is scored from the basis walk, as an ideal sweep row
    # is, and any other clone on its walk's basis list, as a jittered sweep
    # row is, so run and sweep print the same bytes for one input; the clone
    # runs only for its trace or where the basis walk does not serve it.
    report = None
    if settings.timing_jitter == 0.0:
        fields = score_nominal([settings.q.alpha], [settings.q.beta], settings.cfg,
                               settings.fock_cutoff)
        report = None if fields is None else CloneReport.from_fields(fields)
    if report is None or settings.trace_path:
        trace = _execute(settings)
        if report is None:
            report = entry_fidelities(trace.entries[-1], settings.q)
        if settings.trace_path:
            _write_json(settings.trace_path, trace.to_dict())
    five_sixths = 5.0 / 6.0
    gates_ok = (
        abs(report.fidelity_squid2 - five_sixths) <= settings.tolerance
        and abs(report.fidelity_squid3 - five_sixths) <= settings.tolerance
        and 1.0 - report.target_overlap <= settings.tolerance
        and report.leakage <= E_LEAK_TOL
    )
    payload = dict(report.to_dict())
    payload["input"] = {
        "alpha": [settings.q.alpha.real, settings.q.alpha.imag],
        "beta": [settings.q.beta.real, settings.q.beta.imag],
        "theta": settings.theta,
        "phi": settings.phi,
    }
    payload["seed"] = settings.seed
    payload["timing_jitter"] = settings.timing_jitter
    payload["tolerance"] = settings.tolerance
    payload["passed"] = gates_ok
    print(json.dumps(_sig12(payload), indent=2))
    if report.leakage > E_LEAK_TOL:
        print(f"physics error: leakage {report.leakage:.3e} above {E_LEAK_TOL:.0e}",
              file=sys.stderr)
        return 3
    return 0 if gates_ok else 1


def cmd_trace(settings: Settings) -> int:
    trace = _execute(settings)
    print(json.dumps(_sig12(trace.to_dict())))
    return 0


def cmd_sweep(settings: Settings) -> int:
    result = universality_sweep(
        settings.num_samples, settings.seed, settings.cfg,
        fock_cutoff=settings.fock_cutoff, timing_jitter=settings.timing_jitter,
    )
    if settings.summary_path:
        _write_json(settings.summary_path, result.summary())
    sys.stdout.write(result.to_csv())
    return 0


def cmd_validate(settings: Settings) -> int:
    results = run_all_checks(settings.cfg, seed=settings.seed)
    failures = [r for r in results if not r.passed]
    if settings.verbose:
        for result in results:
            print(result.describe())
    else:
        for result in failures:
            print(result.describe())
    print(f"{len(results) - len(failures)}/{len(results)} checks passed")
    return 0 if not failures else 1


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="clone-sim",
        description="Pulse-level simulator of a three-SQUID, one-cavity qubit cloner.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    handlers = {
        "run": (cmd_run, "clone one input and print a JSON quality report"),
        "sweep": (cmd_sweep, "clone many sampled inputs and print a CSV"),
        "trace": (cmd_trace, "print the per-step state trace as JSON"),
        "validate": (cmd_validate, "run the self-check suite"),
    }
    for name, (handler, help_text) in handlers.items():
        cmd = sub.add_parser(name, help=help_text)
        cmd.set_defaults(handler=handler)
        # A command offers only the flags it reads, so passing one it would
        # ignore is a usage error (exit 2), not a silent no-op.
        cmd.add_argument("--config", help=f"key = value config file (default ${ENV_CONFIG})")
        if name in ("run", "trace"):
            cmd.add_argument("--theta", type=float, help="Bloch polar angle of the input")
            cmd.add_argument("--phi", type=float, help="Bloch azimuth of the input")
            cmd.add_argument("--alpha", help="plus-component amplitude as 're' or 're,im'")
            cmd.add_argument("--beta", help="minus-component amplitude as 're' or 're,im'")
        cmd.add_argument("--seed", type=int, help="PRNG seed (sampling and jitter)")
        if name != "validate":
            cmd.add_argument("--timing-jitter", dest="timing_jitter", type=float,
                             help="fractional slot-duration error, uniform in +-value")
            cmd.add_argument("--fock-cutoff", dest="fock_cutoff", type=int,
                             help=f"cavity photon cutoff (1 to {MAX_FOCK_CUTOFF})")
        if name == "run":
            cmd.add_argument("--tolerance", type=float, help="pass/fail gate width")
            cmd.add_argument("--trace", help="also write the step trace to this path")
        if name == "sweep":
            cmd.add_argument("-n", "--num-samples", dest="num_samples", type=int,
                             help="number of sampled inputs (default 100)")
            cmd.add_argument("--summary", help="write a JSON summary to this path")
        if name == "validate":
            cmd.add_argument("--verbose", action="store_true",
                             help="print every check, not only failures")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        code = args.handler(_resolve_settings(args))
        sys.stdout.flush()  # a closed pipe shows here, not in the interpreter's exit
        return code
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except PhysicsError as exc:
        print(f"physics error: {exc}", file=sys.stderr)
        return 3
    except BrokenPipeError:
        # The reader closed stdout.  The rest of the output goes to the null
        # device, so the flush at exit raises nothing, and the exit code is
        # the shell's for a process that SIGPIPE ended (128 + 13).
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141


if __name__ == "__main__":
    sys.exit(main())
