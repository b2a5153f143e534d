"""Reference states and measures for checking a cloning run.

The reference for each protocol step is assembled symbolically from
per-factor amplitude vectors, never by running pulses, so agreement
between a trace and these states is a genuine two-route check.  Clone
quality is the overlap of each copy's reduced density matrix with the
input qubit; the ideal machine puts both at exactly 5/6.

Scoring is batched: ``score_rows`` takes final states as an array of
shape (B, 3, 3, 3, fock_cutoff + 1) with the inputs' (alpha, beta) and
scores every row, both copies in one pass, using only per-row stacked
matrix products, so a row's score does not depend on the batch size.
Each copy's reduced matrix is a computed Gram product, so its eigenvalue
floor follows from the product's rounding bound, and no photon cutoff the
command line accepts needs ``eigvalsh``.
``clone_fidelities`` is the same scoring for one state.
``universality_sweep`` clones and scores its samples in chunks of
``SWEEP_CHUNK`` rows; with timing jitter each chunk carries its samples'
slot factors as one array, the next rows of the seed's one jitter
stream, and every row is walked pulse by pulse.  An ideal chunk is read
from the cloning program's one walk of the two basis inputs, Psi x for
each input's (g, i) pair x, once a certificate from that walk clears the
chunk's least and largest |x|^2 for every per-pulse check; a chunk it
does not clear is walked (``protocol.clone_batch``).  Either way a row
equals ``run_uqcm`` plus ``clone_fidelities`` of its input, bit for bit.
Its ``SweepResult`` keeps one array per CSV column.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .dynamics import DEFAULT_COUPLINGS, CouplingConfig
from .hilbert import KET_E as _E
from .hilbert import KET_G as _G
from .hilbert import KET_I as _I
from .hilbert import MINUS_GI as _MINUS
from .hilbert import PLUS_GI as _PLUS
from .hilbert import BasisSpec, PureState, _kron_product, density_defect
from .protocol import (
    InputQubit,
    bloch_amplitudes,
    build_uqcm_schedule,
    clone_batch,
    draw_slot_factors,
    gi_amplitudes,
    jitter_rng,
)

# Rows cloned and scored per batch by universality_sweep; bounds the
# sweep's buffers whatever the sample count.
SWEEP_CHUNK = 1024
# Largest sample count a sweep accepts.  The sweep keeps O(n) columns, so
# memory runs out far below it; the cap gives a huge n a config error.
MAX_SWEEP_SAMPLES = 2 ** 32
# Largest photon cutoff the command line accepts.  Below a cutoff of about
# 1.2e4 the Gram bound of density_defect proves every scored copy's
# eigenvalue floor (score_rows), so no command runs eigvalsh; the cap also
# gives a huge cutoff a config error before any state is allocated.
MAX_FOCK_CUTOFF = 10_000

_R23 = math.sqrt(2.0 / 3.0)
_R13 = math.sqrt(1.0 / 3.0)
_R16 = math.sqrt(1.0 / 6.0)


def _fock(spec: BasisSpec, n: int) -> np.ndarray:
    vec = np.zeros(spec.fock_cutoff + 1, dtype=np.complex128)
    vec[n] = 1.0
    return vec


def _assemble(spec: BasisSpec, terms) -> PureState:
    """Sum of product terms (coeff, squid1, squid2, squid3, cavity)."""
    if spec.num_squids != 3:
        raise ValueError(f"references are defined for 3 SQUIDs, got {spec.num_squids}")
    vec = np.zeros(spec.dimension, dtype=np.complex128)
    for coeff, s1, s2, s3, cav in terms:
        vec += coeff * _kron_product((s1, s2, s3, cav))
    return PureState(vec, spec)


def _phi_terms(coeff: complex, s1: np.ndarray, cav: np.ndarray):
    # The symmetric two-SQUID state (|+->+|-+>)/sqrt(2) on SQUIDs 2, 3.
    half = coeff / math.sqrt(2.0)
    return [(half, s1, _PLUS, _MINUS, cav), (half, s1, _MINUS, _PLUS, cav)]


def reference_step_state(label: str, q: InputQubit, spec: BasisSpec | None = None) -> PureState:
    """Closed-form state expected after the labelled step, for input ``q``."""
    spec = spec or BasisSpec()
    a, b = q.alpha, q.beta
    f0, f1 = _fock(spec, 0), _fock(spec, 1)
    sig = a * _PLUS + b * _MINUS  # the input qubit on a single SQUID
    swp = a * _MINUS + b * _PLUS  # the same with plus/minus exchanged

    if label == "input":
        terms = [(1.0, sig, _G, _G, f0)]
    elif label == "step1":
        terms = [(_R23, sig, _G, _G, f0), (1j * _R13, sig, _E, _G, f0)]
    elif label == "step2":
        terms = [(_R23, sig, _G, _G, f0), (_R13, sig, _G, _G, f1)]
    elif label == "step3":
        terms = [(_R23, sig, _G, _G, f0), (_R13, swp, _G, _G, f1)]
    elif label == "step4":
        terms = [
            (_R23, sig, _G, _G, f0),
            (_R16, swp, _G, _G, f1),
            (-1j * _R16, swp, _E, _G, f0),
        ]
    elif label == "step5":
        terms = [
            (_R23, sig, _G, _G, f0),
            (-1j * _R16, swp, _G, _E, f0),
            (-1j * _R16, swp, _E, _G, f0),
        ]
    elif label == "step6":
        terms = [
            (_R23, sig, _G, _G, f0),
            (-_R16, swp, _G, _I, f0),
            (-_R16, swp, _I, _G, f0),
        ]
    elif label == "step7":
        terms = [(_R23, -a * _I + b * _G, _MINUS, _MINUS, f0)]
        terms += _phi_terms(_R13, a * _G - b * _I, f0)
    elif label == "step8":
        terms = [(_R23, 1j * a * _E + b * _G, _MINUS, _MINUS, f0)]
        terms += _phi_terms(_R13, a * _G + 1j * b * _E, f0)
    elif label == "step9":
        terms = [(_R23 * a, _G, _MINUS, _MINUS, f1), (_R23 * b, _G, _MINUS, _MINUS, f0)]
        terms += _phi_terms(_R13 * a, _G, f0)
        terms += _phi_terms(_R13 * b, _G, f1)
    elif label == "step10":
        terms = [(_R23 * a, _G, _PLUS, _PLUS, f1), (_R23 * b, _G, _MINUS, _MINUS, f0)]
        terms += _phi_terms(_R13 * a, _G, f0)
        terms += _phi_terms(_R13 * b, _G, f1)
    else:
        raise ValueError(f"unknown step label {label!r}")
    return _assemble(spec, terms)


def target_state(q: InputQubit, spec: BasisSpec | None = None) -> PureState:
    """Ideal cloning output: both copies at fidelity 5/6, ancilla on squid1+cavity."""
    return reference_step_state("step10", q, spec)


@functools.lru_cache(maxsize=8)
def _target_branches(spec: BasisSpec) -> np.ndarray:
    """(dimension, 2) read-only columns: the targets of the |+> and |-> inputs.

    ``target_state`` is linear in (alpha, beta), so the target of any
    input is alpha * column 0 + beta * column 1.
    """
    branches = np.stack([
        reference_step_state("step10", InputQubit(1.0, 0.0), spec).amplitudes,
        reference_step_state("step10", InputQubit(0.0, 1.0), spec).amplitudes,
    ], axis=1)
    branches.setflags(write=False)
    return branches


def _leakage_rows(amps: np.ndarray) -> np.ndarray:
    """Each row's population outside levels {g, i} and photon numbers {0, 1}."""
    comp = amps[(slice(None),) + (slice(0, 2),) * (amps.ndim - 1)]
    pops = np.sum((np.abs(comp) ** 2).reshape(len(amps), -1), axis=1)
    return np.maximum(0.0, 1.0 - pops)


REPORT_FIELDS = ("fidelity_squid2", "fidelity_squid3", "target_overlap", "leakage")


def _in_unit_range(value):
    return (-1e-9 <= value) & (value <= 1.0 + 1e-9)


@dataclass(frozen=True)
class CloneReport:
    """Quality measures of one cloning run; every field lies in [0, 1]."""

    fidelity_squid2: float
    fidelity_squid3: float
    target_overlap: float
    leakage: float

    def __post_init__(self) -> None:
        for name in REPORT_FIELDS:
            value = getattr(self, name)
            if not _in_unit_range(value):
                raise ValueError(f"{name} = {value} outside [0, 1]")

    def to_dict(self) -> dict:
        return {name: getattr(self, name) for name in REPORT_FIELDS}


def score_rows(
    amps: np.ndarray, alpha: np.ndarray, beta: np.ndarray, first_sample: int = 0
) -> dict[str, np.ndarray]:
    """Score B final states against their inputs; one (B,) array per ``CloneReport`` field.

    ``amps`` has shape (B, 3, 3, 3, fock_cutoff + 1) with fock_cutoff >= 1;
    any other shape raises ``ValueError`` before any arithmetic.  Each
    copy's reduced matrix is checked like a ``DensityMatrix`` (Hermitian,
    unit trace, eigenvalue floor) and every field must lie in [0, 1]; a
    failure raises ``ValueError`` naming sample ``first_sample + row``.
    The matrix is the computed product C C^H of the copy's
    3 x 9 (fock_cutoff + 1) amplitude block C, so ``density_defect``'s
    Gram bound proves its floor at any cutoff below about 1.2 * 10^4;
    only above that does ``eigvalsh`` decide.  The fidelity reads the
    (g, i) block of the reduced matrix; e population shows up in the
    leakage field.
    """
    if amps.ndim != 5 or amps.shape[1:4] != (3, 3, 3) or amps.shape[4] < 2:
        raise ValueError(f"amps must have shape (B, 3, 3, 3, fock_cutoff + 1) with "
                         f"fock_cutoff >= 1, got {amps.shape}")
    rows = len(amps)
    if not rows:
        raise ValueError("the batch is empty: amps needs at least one row")
    spec = BasisSpec(num_squids=3, fock_cutoff=amps.shape[-1] - 1)
    alpha = np.asarray(alpha, dtype=np.complex128)
    beta = np.asarray(beta, dtype=np.complex128)
    if alpha.shape != (rows,) or beta.shape != (rows,):
        raise ValueError(f"alpha and beta must be 1-D with one entry per row of amps "
                         f"({rows}), got shapes {alpha.shape} and {beta.shape}")
    psi = np.concatenate([gi_amplitudes(alpha, beta)] * 2)
    # Rows 0..B-1 hold squid 2's copy, rows B..2B-1 squid 3's.  A stacked
    # matmul reduces each row on its own; one product over the flattened
    # batch could round a row differently for another B.
    copies = np.empty((2,) + amps.shape, dtype=np.complex128)
    for half, squid in enumerate((2, 3)):
        copies[half] = np.moveaxis(amps, squid, 1)
    copies = copies.reshape(2 * rows, 3, -1)
    rho = copies @ np.conj(copies).transpose(0, 2, 1)
    terms = copies.shape[-1]
    if density_defect(rho, terms) is not None:
        # name the failure as squid by squid: every squid2 row before squid3's
        for half, squid in enumerate((2, 3)):
            defect = density_defect(rho[half * rows:(half + 1) * rows], terms)
            if defect is not None:
                raise ValueError(f"sample {first_sample + defect[0]}: squid{squid} {defect[1]}")
    fid = (np.conj(psi)[:, None, :] @ rho[:, :2, :2] @ psi[:, :, None])[:, 0, 0].real
    fields = {"fidelity_squid2": fid[:rows], "fidelity_squid3": fid[rows:]}
    overlaps = (np.conj(amps.reshape(rows, 1, -1)) @ _target_branches(spec))[:, 0, :]
    fields["target_overlap"] = np.abs(alpha * overlaps[:, 0] + beta * overlaps[:, 1])
    fields["leakage"] = _leakage_rows(amps)
    for name in REPORT_FIELDS:
        bad = np.flatnonzero(~_in_unit_range(fields[name]))
        if bad.size:
            k = int(bad[0])
            raise ValueError(f"sample {first_sample + k}: {name} = "
                             f"{float(fields[name][k])} outside [0, 1]")
    return fields


def clone_fidelities(final: PureState, q: InputQubit) -> CloneReport:
    """Reduce the final state onto each copy and score it against the input."""
    fields = score_rows(final.tensor()[None], np.array([q.alpha]), np.array([q.beta]))
    return CloneReport(**{name: float(values[0]) for name, values in fields.items()})


@dataclass(frozen=True)
class SweepRow:
    sample: int
    theta: float
    phi: float
    f2: float
    f3: float
    target_overlap: float
    leakage: float


SWEEP_COLUMNS = ("theta", "phi", "f2", "f3", "target_overlap", "leakage")


@dataclass(frozen=True, eq=False)
class SweepResult:
    """A sweep's samples as one (n,) float array per ``SWEEP_COLUMNS`` entry.

    Sample k is row k of every column; ``rows`` builds the per-sample
    ``SweepRow`` tuple on demand.
    """

    theta: np.ndarray
    phi: np.ndarray
    f2: np.ndarray
    f3: np.ndarray
    target_overlap: np.ndarray
    leakage: np.ndarray
    seed: int
    n: int

    @property
    def rows(self) -> tuple[SweepRow, ...]:
        return tuple(SweepRow(k, *values) for k, values in enumerate(self._column_lists()))

    def _column_lists(self):
        return zip(*(getattr(self, name).tolist() for name in SWEEP_COLUMNS))

    def summary(self) -> dict:
        """Statistics of the squid2 clone fidelity (population variance)."""
        return {
            "min": float(np.min(self.f2)),
            "max": float(np.max(self.f2)),
            "mean": float(np.mean(self.f2)),
            "variance": float(np.var(self.f2)),
            "seed": self.seed,
            "n": self.n,
        }

    def to_csv(self) -> str:
        """Header and one line per sample; each block of up to SWEEP_CHUNK lines is one format."""
        row = "%d" + ",%.12g" * len(SWEEP_COLUMNS) + "\n"
        blocks = ["sample," + ",".join(SWEEP_COLUMNS) + "\n"]
        count = len(self.theta)
        for start in range(0, count, SWEEP_CHUNK):
            stop = min(start + SWEEP_CHUNK, count)
            columns = [range(start, stop)]
            columns += [getattr(self, name)[start:stop].tolist() for name in SWEEP_COLUMNS]
            blocks.append(row * (stop - start) % tuple(itertools.chain.from_iterable(zip(*columns))))
        return "".join(blocks)


def universality_sweep(
    n: int,
    seed: int,
    cfg: CouplingConfig = DEFAULT_COUPLINGS,
    fock_cutoff: int = 2,
    timing_jitter: float = 0.0,
) -> SweepResult:
    """Clone ``n`` Bloch-uniform inputs drawn from a seeded PCG64 stream.

    theta = arccos(1 - 2u), phi = 2 pi v with u, v uniform on [0, 1).
    With ``timing_jitter`` f > 0, sample k's slot factors are draws
    k*n_slots ... (k+1)*n_slots - 1 of ``jitter_rng(seed)``, read chunk by
    chunk in sample order with ``draw_slot_factors``, and the two-pulse
    leakage guard is off; with f = 0 the nominal schedule runs guarded.
    Repeat calls with one seed are bit-identical, and each row equals a
    single ``run_uqcm`` (with the same perturbed schedule) plus
    ``clone_fidelities`` of its input; row 0's schedule is the one
    ``perturbed_schedule(base, f, jitter_rng(seed))`` builds.  ``n`` is
    at most 2**32.
    """
    if n < 1:
        raise ValueError(f"sample count must be >= 1, got {n}")
    if n > MAX_SWEEP_SAMPLES:
        raise ValueError(f"sample count must be <= 2**32, got {n}")
    if not 0.0 <= timing_jitter < 1.0:
        raise ValueError(f"timing_jitter must lie in [0, 1), got {timing_jitter}")
    rng = np.random.default_rng(seed)
    thetas = np.arccos(1.0 - 2.0 * rng.random(n))
    phis = 2.0 * math.pi * rng.random(n)
    alpha, beta = bloch_amplitudes(thetas, phis)
    ideal = timing_jitter == 0.0
    n_slots = 0 if ideal else len(build_uqcm_schedule(cfg).slots)
    jitter = None if ideal else jitter_rng(seed)
    scores: dict[str, list[np.ndarray]] = {name: [] for name in REPORT_FIELDS}
    for start in range(0, n, SWEEP_CHUNK):
        rows = slice(start, min(start + SWEEP_CHUNK, n))
        factors = None if ideal else draw_slot_factors(
            timing_jitter, (rows.stop - start, n_slots), jitter)
        final = clone_batch(alpha[rows], beta[rows], cfg, fock_cutoff, factors, ideal,
                            first_sample=start)
        for name, values in score_rows(final, alpha[rows], beta[rows], start).items():
            scores[name].append(values)
    columns = [np.concatenate(scores[name]) for name in REPORT_FIELDS]
    return SweepResult(thetas, phis, *columns, seed=seed, n=n)
