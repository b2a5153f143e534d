"""python tools/cli_digest.py SRC: one line per fixed CLI case, run in-process on SRC's clone_sim.

The first line names the Python and numpy versions.  Each case's line
gives its exit code (or the exception that escaped ``main``) and sha256
digests of its stdout, stderr and each file it wrote.  Diff the output for
two checkouts to see whether a change moved any byte a command emits.
``tests/cli_ledger.txt`` holds this output for the committed tree, and
``tests/test_cli_ledger.py`` reruns the cases against it; regenerate it
with ``python tools/cli_digest.py . > tests/cli_ledger.txt``.
"""

import contextlib
import hashlib
import io
import os
import platform
import sys
import tempfile

CONFIGS = {"gi1e7.cfg": b"omega_gi = 1e7\n", "closure.cfg": b"omega_gi = 24\nlambda_prime = 0.3\n",
           "overflow.cfg": b"omega_gi = 1e308\n", "binary.cfg": b"\xff\xfe",
           "gi1e5.cfg": b"omega_gi = 1e5\n", "lp1e300.cfg": b"lambda_prime = 1e300\n",
           "rates.cfg": b"lambda = 1.7\nomega_ge = 0.8\nlambda_prime = 1.3\nomega_gi = 35.5\n"}
CASES = [
    "trace --alpha 1 --beta 0", "trace --alpha 0 --beta 1", "trace --theta 1.1 --phi 2.3",
    "trace --theta 2.0 --phi 0.4", "trace --theta 0.7 --phi 5.0 --fock-cutoff 8",
    "trace --theta 0.9 --timing-jitter 0.05", "trace --theta 0.9 --timing-jitter 0.3 --seed 3",
    "run --theta 1.3 --fock-cutoff 1", "run --theta 1.3 --phi 0.2 --fock-cutoff 32",
    "run --theta 0.8 --timing-jitter 0.05 --seed 11", "run --theta 2.5 --trace out/t.json",
    "sweep -n 300", "sweep -n 300 --timing-jitter 0.2 --fock-cutoff 8 --seed 4",
    "sweep -n 1100 --timing-jitter 0.05 --seed 9 --summary out/s.json",
    "validate --verbose", "validate --verbose --seed 7",
    "validate --verbose --config gi1e7.cfg", "validate --verbose --config closure.cfg",
    "run --config overflow.cfg",
    "run --trace missing/t.json", "run --trace out", "sweep -n 2 --summary missing/s.json",
    "run --config binary.cfg",
    "validate --verbose --seed 77", "validate --verbose --config rates.cfg",
    "validate --verbose --config gi1e5.cfg",
    "validate --fock-cutoff 8", "sweep -n 2 --theta 1",
    "trace --theta 0.7 --phi 5.0 --fock-cutoff 32 --timing-jitter 0.5 --seed 4",
    "sweep -n 300 --fock-cutoff 32 --timing-jitter 0.2 --seed 4",
    "sweep -n 300 --fock-cutoff 32 --summary out/s.json",
    "run --theta 1.3 --phi 0.2 --fock-cutoff 10000",
    "run --theta 2.5 --fock-cutoff 8 --trace out/t.json",
    "validate --verbose --seed 0", "validate --verbose --seed 12345",
    "trace --theta 1.3 --phi 0.2 --fock-cutoff 1",
    "trace --theta 1.3 --timing-jitter 0.3 --seed 5 --fock-cutoff 1",
    "run --theta 1.1 --phi 0.4 --config gi1e7.cfg",
    "sweep -n 300 --seed 3 --fock-cutoff 1 --summary out/s.json",
    "sweep -n 20 --seed 3 --fock-cutoff 10000 --summary out/s.json",
    "sweep -n 20 --seed 3 --fock-cutoff 2 --summary out/s.json",
    "sweep -n 8 --seed 3 --timing-jitter 0.05 --fock-cutoff 2 --summary out/s.json",
    "sweep -n 8 --seed 3 --timing-jitter 0.05 --fock-cutoff 10000 --summary out/s.json",
    "run --theta 1.1 --phi 0.4 --timing-jitter 0.05 --fock-cutoff 10000",
    "sweep -n 1100 --seed 9 --fock-cutoff 32 --summary out/s.json",
    "sweep -n 1100 --seed 9 --fock-cutoff 2 --summary out/s.json",
    "validate --verbose --config lp1e300.cfg",
]


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def versions() -> str:
    """The ledger's header: the Python and numpy versions the digests were made with."""
    import numpy

    return f"# python {platform.python_version()} numpy {numpy.__version__}"


def case_lines() -> list[str]:
    """Run every case through the importable ``clone_sim.cli.main``: one line per case.

    The cases run in a fresh temporary directory holding ``CONFIGS``; the
    working directory is restored afterwards.  ``$CLONE_SIM_CONFIG`` must
    be unset, or every case reads it.
    """
    home = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            for name, data in CONFIGS.items():
                with open(name, "wb") as handle:
                    handle.write(data)
            return [_run_case(case) for case in CASES]
        finally:
            os.chdir(home)


def _run_case(case: str) -> str:
    from clone_sim.cli import main as cli_main

    os.mkdir("out")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = str(cli_main(case.split()))
        except SystemExit as exc:  # argparse's usage error
            code = str(exc.code)
        except Exception as exc:  # what the console script would print a traceback for
            code = type(exc).__name__
    files = ""
    for name in sorted(os.listdir("out")):
        path = os.path.join("out", name)
        with open(path, "rb") as handle:
            files += f" {name}={digest(handle.read())}"
        os.remove(path)
    os.rmdir("out")
    return (f"{case} | exit={code} out={digest(out.getvalue().encode())} "
            f"err={digest(err.getvalue().encode())}{files}")


def main() -> None:
    sys.path.insert(0, os.path.join(os.path.abspath(sys.argv[1]), "src"))
    os.environ.pop("CLONE_SIM_CONFIG", None)
    print(versions())
    for line in case_lines():
        print(line)


if __name__ == "__main__":
    main()
