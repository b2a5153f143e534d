"""Reference states and measures for checking a cloning run.

The reference for each protocol step is assembled symbolically from
per-factor amplitude vectors, never by running pulses, so agreement
between a trace and these states is a genuine two-route check.  Clone
quality is the overlap of each copy's reduced density matrix with the
input qubit; the ideal machine puts both at exactly 5/6.

Scoring is batched and comes in two routes, which share one check of
each copy's reduced matrix and the fields (``_scored``), so the clone
fidelity has one definition.  ``score_rows`` scores built states, batch
axis first, over a listed basis (``hilbert.BasisList``): the whole
register, as ``clone_fidelities`` passes one state, or the 45 states a
clone can reach, as every walked clone passes its rows.  It scores every
row, both copies in one pass, using only per-row stacked matrix products;
each copy's reduced matrix is a computed Gram product of one block
gathered by the list's ``score_blocks``, so its eigenvalue floor follows
from the product's rounding bound, and no photon cutoff the command line
accepts needs ``eigvalsh``.  ``score_nominal`` scores nominal clones
without building a row: a clone is Psi x, x its (g, i) pair and Psi the
cloning program's walk of the two basis injections, (N, 2) rows over the
program's basis list, so each copy's reduced matrix is
sum_jk x_j conj(x_k) R_jk, and the target overlap and the leakage are
forms in x too, all from blocks fixed once per program and gathered from
Psi by the same ``score_blocks`` (``protocol._BasisWalk``), with their
own floor proof.  Both routes read the target branches on the listed
states alone (``_listed_targets``), and both read the cutoff only through
the walked one, min(cutoff, 2), so every cutoff from 2 up gives the same
bytes, and a row of either route does not depend on its batch.  ``universality_sweep`` clones and scores its
samples in chunks of ``SWEEP_CHUNK`` rows; with timing jitter each chunk
carries its samples' slot factors as one array, the next rows of the
seed's one jitter stream, and every row is walked pulse by pulse over the
reached states (``protocol.clone_rows``) and scored there by
``score_rows``, so it equals what ``run`` prints for its input with that
schedule, bit for bit (``entry_fidelities``), and lies within 1e-14 of
``run_uqcm`` plus ``clone_fidelities``.  An ideal chunk is scored by
``score_nominal`` once the basis walk's certificate clears it for every
per-pulse check; a row then equals what ``run`` prints for its input, bit
for bit, and lies within 1e-14 of ``run_uqcm`` plus ``clone_fidelities``.
A chunk the certificate does not clear is walked and scored as a jittered
chunk is, so a failure names its step and sample.  Its ``SweepResult``
keeps one array per CSV column.
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
from .hilbert import BasisList, BasisSpec, PureState, _kron_product, density_defect
from .protocol import (
    InputQubit,
    TraceEntry,
    bloch_amplitudes,
    build_uqcm_schedule,
    certified_basis,
    clone_pairs,
    clone_rows,
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


def _listed_targets(basis: BasisList) -> np.ndarray:
    """(N, 2) target branches (``_target_branches``) on the N states ``basis`` lists."""
    return _target_branches(basis.spec).take(basis.index, axis=0)


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

    @classmethod
    def from_fields(cls, fields: dict[str, np.ndarray]) -> "CloneReport":
        """The report of row 0 of ``score_rows`` or ``score_nominal`` fields."""
        return cls(**{name: float(fields[name][0]) for name in REPORT_FIELDS})

    def to_dict(self) -> dict:
        return {name: getattr(self, name) for name in REPORT_FIELDS}


def _scored(
    rho: np.ndarray, gi: np.ndarray, gram_terms: int, overlap: np.ndarray, leakage: np.ndarray,
    first_sample: int,
) -> dict[str, np.ndarray]:
    """The ``CloneReport`` fields of B rows, once their copies' matrices and fields pass.

    ``rho`` stacks the (3, 3) reduced matrices of squid 2's copies, rows
    0..B-1, and then squid 3's; ``gi`` holds the inputs' (g, i) pairs,
    ``overlap`` and ``leakage`` the rows' (B,) fields.  Each matrix is
    checked like a ``DensityMatrix`` by ``density_defect`` with
    ``gram_terms``, squid 2's copies before squid 3's, and every field
    must lie in [0, 1]; a failure raises ``ValueError`` naming sample
    ``first_sample + row``.  The fidelity of a copy is x^H rho_gi x, x the
    (g, i) pair and rho_gi the (g, i) block of its matrix; e population
    shows up in the leakage field.
    """
    rows = len(gi)
    if density_defect(rho, gram_terms) is not None:
        # name the failure as squid by squid: every squid2 row before squid3's
        for half, squid in enumerate((2, 3)):
            defect = density_defect(rho[half * rows:(half + 1) * rows], gram_terms)
            if defect is not None:
                raise ValueError(f"sample {first_sample + defect[0]}: squid{squid} {defect[1]}")
    psi = np.concatenate([gi] * 2)
    fid = (np.conj(psi)[:, None, :] @ rho[:, :2, :2] @ psi[:, :, None])[:, 0, 0].real
    fields = {"fidelity_squid2": fid[:rows], "fidelity_squid3": fid[rows:],
              "target_overlap": overlap, "leakage": leakage}
    for name in REPORT_FIELDS:
        bad = np.flatnonzero(~_in_unit_range(fields[name]))
        if bad.size:
            k = int(bad[0])
            raise ValueError(f"sample {first_sample + k}: {name} = "
                             f"{float(fields[name][k])} outside [0, 1]")
    return fields


def score_rows(
    amps: np.ndarray,
    alpha: np.ndarray,
    beta: np.ndarray,
    first_sample: int = 0,
    basis: BasisList | None = None,
) -> dict[str, np.ndarray]:
    """Score B final states against their inputs; one (B,) array per ``CloneReport`` field.

    ``amps`` holds the states batch axis first: shape
    (B, 3, 3, 3, fock_cutoff + 1) over the whole register, fock_cutoff >= 1,
    or with ``basis`` (B, N) over the N states it lists, every other
    amplitude zero; any other shape raises ``ValueError`` before any
    arithmetic.  Each copy's reduced matrix is the computed product C C^H
    of the copy's 3 x K block C, gathered in one step by the basis list's
    ``score_blocks`` (K at most 9 (fock_cutoff + 1)), so ``density_defect``'s
    Gram bound proves its floor at any cutoff below about 1.2 * 10^4; only
    above that does ``eigvalsh`` decide.  The target overlap reads the
    target branches on the listed states (``_listed_targets``) and the
    leakage the amplitudes ``score_blocks`` gathers outside the
    computational levels, squares of real and imaginary parts summed
    directly.  ``_scored`` checks the matrices and fields and names a
    failing sample ``first_sample + row``.  It scores rows that were
    walked: jittered sweep rows and jittered or uncertified ``run`` reports
    on the walk's basis list, and single states through
    ``clone_fidelities`` on the whole register.
    """
    if basis is None:
        if amps.ndim != 5 or amps.shape[1:4] != (3, 3, 3) or amps.shape[4] < 2:
            raise ValueError(f"amps must have shape (B, 3, 3, 3, fock_cutoff + 1) with "
                             f"fock_cutoff >= 1, got {amps.shape}")
        basis = BasisList.full(BasisSpec(num_squids=3, fock_cutoff=amps.shape[-1] - 1))
        amps = amps.reshape(len(amps), basis.spec.dimension)
    elif amps.ndim != 2 or amps.shape[1] != len(basis.index):
        raise ValueError(f"amps must have shape (B, {len(basis.index)}) over the basis list, "
                         f"got {amps.shape}")
    rows = len(amps)
    if not rows:
        raise ValueError("the batch is empty: amps needs at least one row")
    alpha = np.asarray(alpha, dtype=np.complex128)
    beta = np.asarray(beta, dtype=np.complex128)
    if alpha.shape != (rows,) or beta.shape != (rows,):
        raise ValueError(f"alpha and beta must be 1-D with one entry per row of amps "
                         f"({rows}), got shapes {alpha.shape} and {beta.shape}")
    # Rows 0..B-1 hold squid 2's copy, rows B..2B-1 squid 3's.  A stacked
    # matmul reduces each row on its own; one product over the flattened
    # batch could round a row differently for another B.
    copies, outside = basis.score_blocks(amps)
    copies = copies.reshape(2 * rows, 3, -1)
    rho = copies @ np.conj(copies).transpose(0, 2, 1)
    overlaps = (np.conj(amps[:, None, :]) @ _listed_targets(basis))[:, 0, :]
    overlap = np.abs(alpha * overlaps[:, 0] + beta * overlaps[:, 1])
    leakage = np.sum(np.square(outside.view(np.float64)), axis=1)
    return _scored(rho, gi_amplitudes(alpha, beta), copies.shape[-1], overlap, leakage,
                   first_sample)


def score_nominal(
    alpha: np.ndarray,
    beta: np.ndarray,
    cfg: CouplingConfig = DEFAULT_COUPLINGS,
    fock_cutoff: int = 2,
    first_sample: int = 0,
) -> dict[str, np.ndarray] | None:
    """Score B nominal clones from the cloning program's basis walk; None where it does not serve.

    The inputs are checked as ``clone_batch`` checks them, errors naming
    sample ``first_sample + b``.  None unless the program's basis walk
    exists and its certificate ``clears`` the batch with the Raman guards
    on; the caller then walks and scores the batch (``clone_batch`` and
    ``score_rows``), so a failing check names its step and its sample.
    Otherwise no row is built: with x a row's (g, i) pair and
    w_jk = x_j conj(x_k), copy s's reduced matrix is
    w_00 R_00 + w_01 R_01 + w_10 R_10 + w_11 R_11 from the walk's blocks
    R_s,jk (``_BasisWalk.copies``), the target overlap is
    |alpha (conj(x) M)_0 + beta (conj(x) M)_1|, M = Psi^H T the final
    snapshot's (N, 2) listed rows against the two target branches on the
    listed states, and the leakage is
    x^H G x, G the walk's outside Gram, as
    w_00 G_00 + w_01 G_10 + w_10 G_01 + w_11 G_11, clamped at 0.  Each
    is elementwise in that order, so a row's score does not depend on its
    batch, and all depend on the photon cutoff only through the walked one,
    min(fock_cutoff, reach): every cutoff from 2 up scores alike.
    ``_scored`` checks every row's two matrices and its fields; the trace
    test is the row's final norm check, since tr rho_s = |Psi x|^2.

    Floor proof, for ``density_defect`` with gram_terms 2 (n + 8),
    n = K the length of a row of the gathered blocks C_j
    (``_BasisWalk.terms``, at most 9 (m + 1) at the walked cutoff m),
    u = 2^-53 and gamma_n = 8 (n + 2) u as there.  The weights are of the
    stored x, so the exact weighted sum is C(x) C(x)^H, C(x) = sum_j x_j C_j,
    which is positive semidefinite.  Each computed R_jk entry lies within
    gamma_n (|C_j| |C_k|^T) of exact (Higham, Accuracy and Stability of
    Numerical Algorithms, 2nd ed., sections 3.5-3.6); each weight and each
    product w R is one complex product, within sqrt(5) u relative (Brent,
    Percival & Zimmermann, Math. Comp. 76 (2007) 1469); the four-term
    sum rounds each part three times, within sqrt(2) gamma_3 of the sum of
    the terms' moduli (section 3.1).  So each entry of rho lies within
    (gamma_n + gamma') (D D^T) of exact, D = sum_j |x_j| |C_j| and
    gamma' = 10 u, and the matrix ``eigvalsh`` reads differs from
    C(x) C(x)^H by at most
    (gamma_n + gamma') (sum_j |x_j| ||C_j||_F)^2
    <= 2 (gamma_n + gamma') |x|^2 max_j ||C_j||_F^2 in Frobenius norm
    (Cauchy-Schwarz).  ||C_j||_F is the norm of a basis column, which
    passed the walk's norm check, so ||C_j||_F^2 < 1 + 2.3e-12, and
    |x|^2 < 1 + 1.1e-12 after the input check; the bound is then below
    2 (gamma_n + 56 u) = gamma_(2 (n + 8)), while a matrix that passes the
    trace test has |t| + NORM_TOL > 1.  That is ``density_defect``'s
    premise for gram_terms 2 (n + 8), at every requested cutoff.
    """
    gi = clone_pairs(alpha, beta, fock_cutoff, first_sample)
    alpha = np.asarray(alpha, dtype=np.complex128)
    beta = np.asarray(beta, dtype=np.complex128)
    basis = certified_basis(gi, cfg, fock_cutoff)
    if basis is None:
        return None
    copies, outside = basis.copies, basis.outside
    psi_t = np.conj(basis.psi).T @ _listed_targets(basis.basis_list)
    x0, x1 = gi[:, 0], gi[:, 1]
    x0c, x1c = np.conj(x0), np.conj(x1)
    w00, w01, w10, w11 = x0 * x0c, x0 * x1c, x1 * x0c, x1 * x1c
    rho = (w00[:, None, None] * copies[:, None, 0, 0] + w01[:, None, None] * copies[:, None, 0, 1]
           + w10[:, None, None] * copies[:, None, 1, 0] + w11[:, None, None] * copies[:, None, 1, 1])
    overlap = np.abs(alpha * (x0c * psi_t[0, 0] + x1c * psi_t[1, 0])
                     + beta * (x0c * psi_t[0, 1] + x1c * psi_t[1, 1]))
    leakage = (w00 * outside[0, 0] + w01 * outside[1, 0]
               + w10 * outside[0, 1] + w11 * outside[1, 1]).real
    return _scored(rho.reshape(-1, 3, 3), gi, 2 * (basis.terms + 8), overlap,
                   np.maximum(leakage, 0.0), first_sample)


def clone_fidelities(final: PureState, q: InputQubit) -> CloneReport:
    """Reduce the final state onto each copy and score it against the input, on the whole register."""
    fields = score_rows(final.tensor()[None], np.array([q.alpha]), np.array([q.beta]))
    return CloneReport.from_fields(fields)


def entry_fidelities(entry: TraceEntry, q: InputQubit) -> CloneReport:
    """``clone_fidelities`` of a walked snapshot, scored on the basis list it was walked over.

    A clone's last entry scores as its sweep row does, bit for bit, and
    nothing is built at the trace's cutoff.
    """
    fields = score_rows(entry.amplitudes[None], np.array([q.alpha]), np.array([q.beta]),
                        basis=entry.basis)
    return CloneReport.from_fields(fields)


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
    Repeat calls with one seed are bit-identical.  A jittered row equals a
    single ``run_uqcm`` with the same perturbed schedule plus
    ``clone_fidelities`` of its input; row 0's schedule is the one
    ``perturbed_schedule(base, f, jitter_rng(seed))`` builds.  An ideal
    chunk is scored by ``score_nominal``, each row equal to that function
    for its input alone, and walked only where it returns None.  ``n`` is
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
        fields = score_nominal(alpha[rows], beta[rows], cfg, fock_cutoff, start) if ideal else None
        if fields is None:
            factors = None if ideal else draw_slot_factors(
                timing_jitter, (rows.stop - start, n_slots), jitter)
            walked, basis = clone_rows(alpha[rows], beta[rows], cfg, fock_cutoff, factors, ideal,
                                       first_sample=start)
            fields = score_rows(walked.T, alpha[rows], beta[rows], start, basis)
        for name, values in fields.items():
            scores[name].append(values)
    columns = [np.concatenate(scores[name]) for name in REPORT_FIELDS]
    return SweepResult(thetas, phis, *columns, seed=seed, n=n)
