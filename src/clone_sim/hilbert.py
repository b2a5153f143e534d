"""Basis indexing, state vectors, partial traces, and fidelity measures.

The register holds ``num_squids`` three-level systems (levels g, i, e,
encoded 0, 1, 2) sharing one cavity mode truncated at ``fock_cutoff``
photons.  The flat index convention is fixed once, here: SQUID 1 is the
slowest axis and the cavity photon number is the fastest, so

    index = ((l1 * 3 + l2) * 3 + ... + lN) * (fock_cutoff + 1) + n

State vectors are immutable once constructed.  Operations never
renormalize silently; a drifted norm raises ``NormalizationError`` and
``normalized_row`` is the one explicit way to rescale, for a bare row or
through ``PureState.from_amplitudes(..., normalize=True)``.

The batched engine holds B states as one (N, B) array, batch axis last,
row b (index b of that axis) being sample b, over a ``BasisList``: the N
basis states the rows hold, in register order, every other amplitude
zero.  The whole register is one such list; a clone's reached states are
another.  The physics checks are defined here once each.
``check_row_norms`` applies the norm rule to every row of such an array at
once.  ``level_populations`` is the one sum of the population of a list
of states, per row, and ``level_rows`` lists the states of a SQUID level;
``PureState.level_population`` reads the sum for a batch of one, and
``population_screen`` bounds how far a faster sum may stray from it.
The Raman guard of ``dynamics`` reads those two, and the |g> precondition
of ``protocol.prepare_input`` reads ``PureState.level_population``, at the
one leakage tolerance, ``E_LEAK_TOL``.  ``density_defect`` applies
the density-matrix rules to a stack of matrices; for a stack of computed
Gram products it proves the eigenvalue floor from the product's rounding
bound, and otherwise asks ``eigvalsh``.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import LeakageError, NormalizationError

LEVEL_G, LEVEL_I, LEVEL_E = 0, 1, 2
LEVEL_NAMES = ("g", "i", "e")
NUM_LEVELS = 3

NORM_TOL = 1e-12
HERMITICITY_TOL = 1e-12
EIGENVALUE_FLOOR = -1e-10
_EPS = float(np.finfo(np.float64).eps)
_TINY = float(np.finfo(np.float64).smallest_subnormal)
E_LEAK_TOL = 1e-10

# Level vectors of one SQUID over (g, i, e), and its qubit basis
# |+> = (|i> + |g>)/sqrt(2), |-> = (|i> - |g>)/sqrt(2).
KET_G, KET_I, KET_E = np.eye(NUM_LEVELS, dtype=np.complex128)
PLUS_GI = np.array([1.0, 1.0, 0.0], dtype=np.complex128) / math.sqrt(2.0)
MINUS_GI = np.array([-1.0, 1.0, 0.0], dtype=np.complex128) / math.sqrt(2.0)


def level_code(level: int | str) -> int:
    """Map 'g'/'i'/'e' (or 0/1/2) to the numeric level code."""
    if isinstance(level, str):
        try:
            return LEVEL_NAMES.index(level)
        except ValueError:
            raise ValueError(f"unknown level {level!r}; expected one of {LEVEL_NAMES}") from None
    code = int(level)
    if code not in (LEVEL_G, LEVEL_I, LEVEL_E):
        raise ValueError(f"level code {level!r} outside 0..2")
    return code


@dataclass(frozen=True)
class BasisSpec:
    """Shape of the register: SQUID count and cavity photon cutoff."""

    num_squids: int = 3
    fock_cutoff: int = 2

    def __post_init__(self) -> None:
        if self.num_squids < 1:
            raise ValueError(f"num_squids must be >= 1, got {self.num_squids}")
        if self.fock_cutoff < 1:
            raise ValueError(f"fock_cutoff must be >= 1, got {self.fock_cutoff}")

    @property
    def dimension(self) -> int:
        return NUM_LEVELS**self.num_squids * (self.fock_cutoff + 1)

    @property
    def factor_dims(self) -> tuple[int, ...]:
        return (NUM_LEVELS,) * self.num_squids + (self.fock_cutoff + 1,)

    @property
    def factor_labels(self) -> tuple[str, ...]:
        return tuple(f"squid{k}" for k in range(1, self.num_squids + 1)) + ("cavity",)


def basis_index(spec: BasisSpec, levels: Sequence[int | str], photons: int) -> int:
    """Flat index of the product basis state with the given SQUID levels and photon number."""
    if len(levels) != spec.num_squids:
        raise ValueError(f"expected {spec.num_squids} levels, got {len(levels)}")
    if not 0 <= photons <= spec.fock_cutoff:
        raise ValueError(f"photon number {photons} outside 0..{spec.fock_cutoff}")
    idx = 0
    for lev in levels:
        idx = idx * NUM_LEVELS + level_code(lev)
    return idx * (spec.fock_cutoff + 1) + photons


def basis_tuple(spec: BasisSpec, index: int) -> tuple[tuple[int, ...], int]:
    """Inverse of ``basis_index``: (levels, photons) for a flat index."""
    if not 0 <= index < spec.dimension:
        raise ValueError(f"index {index} outside 0..{spec.dimension - 1}")
    index, photons = divmod(index, spec.fock_cutoff + 1)
    levels = []
    for _ in range(spec.num_squids):
        index, lev = divmod(index, NUM_LEVELS)
        levels.append(lev)
    return tuple(reversed(levels)), photons


@dataclass(frozen=True, eq=False)
class BasisList:
    """The basis states a stack of rows holds: row k is the amplitude of state ``index[k]``.

    ``index`` lists flat indices over ``spec`` in ascending order, so the
    rows keep the register's own order; every state it leaves out has
    amplitude zero.  ``full`` lists every state.  The index tables below are
    built on first read and kept with the list.
    """

    spec: BasisSpec
    index: np.ndarray

    @classmethod
    def full(cls, spec: BasisSpec) -> "BasisList":
        return cls(spec, np.arange(spec.dimension))

    @functools.cached_property
    def labels(self) -> np.ndarray:
        """Each basis state's row, shaped ``spec.factor_dims``; -1 for a state not listed."""
        labels = np.full(self.spec.dimension, -1)
        labels[self.index] = np.arange(len(self.index))
        return labels.reshape(self.spec.factor_dims)

    @functools.cached_property
    def reduced(self) -> np.ndarray:
        """(num_squids, 3, K) rows whose Gram is each SQUID's reduced matrix.

        Row l of SQUID s's block lists, for each assignment of the other
        factors in C order, the row of the state with s in level l; an
        assignment with no listed state in any level is left out, and the
        index N = len(index) marks a state not listed, to be read as a zero
        amplitude.  Blocks shorter than the longest end in N.
        """
        absent = len(self.index)
        labels = np.where(self.labels >= 0, self.labels, absent)
        blocks = [np.moveaxis(labels, squid, 0).reshape(NUM_LEVELS, -1)
                  for squid in range(self.spec.num_squids)]
        blocks = [block[:, np.any(block < absent, axis=0)] for block in blocks]
        out = np.full((len(blocks), NUM_LEVELS, max(block.shape[1] for block in blocks)), absent)
        for squid, block in enumerate(blocks):
            out[squid, :, :block.shape[1]] = block
        return out

    @functools.cached_property
    def outside(self) -> np.ndarray:
        """Rows of the states outside levels {g, i} and photon numbers {0, 1}."""
        coords = np.unravel_index(self.index, self.spec.factor_dims)
        return np.flatnonzero(np.any(np.stack(coords[:-1]) == LEVEL_E, axis=0) | (coords[-1] >= 2))

    def score_blocks(self, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(copies, outside): the amplitudes of the (B, N) ``rows`` that a clone's scores read.

        ``copies[s - 2, b]`` is the 3 x K block of row b that ``reduced``
        lists for SQUID s, s = 2 .. num_squids, a state off the list read as
        zero, so its Gram is the SQUID's reduced matrix; ``outside[b]`` holds
        row b's amplitudes of the ``outside`` states.
        """
        padded = np.zeros((len(rows), len(self.index) + 1), dtype=np.complex128)
        padded[:, :-1] = rows
        copies = np.moveaxis(padded.take(self.reduced[1:], axis=1), 1, 0)
        return copies, padded.take(self.outside, axis=1)

    def dense(self, rows: np.ndarray, fock_cutoff: int) -> np.ndarray:
        """The (B, N) ``rows`` over the register at ``fock_cutoff`` >= spec's, +0 off the list.

        The result has shape (B,) + factor_dims at that cutoff.
        """
        spec = BasisSpec(self.spec.num_squids, fock_cutoff)
        levels, photons = np.divmod(self.index, self.spec.fock_cutoff + 1)
        out = np.zeros((len(rows), spec.dimension), dtype=np.complex128)
        out[:, levels * (fock_cutoff + 1) + photons] = rows
        return out.reshape((len(rows),) + spec.factor_dims)


@dataclass(frozen=True, eq=False)
class PureState:
    """Normalized state vector over a ``BasisSpec`` register.

    The amplitude array is copied on construction and marked read-only.
    Construction fails if the norm is off unity by more than ``NORM_TOL``.
    """

    amplitudes: np.ndarray
    spec: BasisSpec

    def __post_init__(self) -> None:
        amps = np.array(self.amplitudes, dtype=np.complex128).reshape(-1)
        if amps.shape != (self.spec.dimension,):
            raise ValueError(
                f"amplitude vector has length {amps.shape[0]}, "
                f"basis dimension is {self.spec.dimension}"
            )
        nrm = float(np.linalg.norm(amps))
        if not abs(nrm - 1.0) < NORM_TOL:
            raise NormalizationError(
                f"state norm is {nrm!r}; use from_amplitudes(..., normalize=True) to rescale"
            )
        amps.setflags(write=False)
        object.__setattr__(self, "amplitudes", amps)

    @classmethod
    def from_amplitudes(
        cls, amplitudes: Iterable[complex], spec: BasisSpec, normalize: bool = False
    ) -> "PureState":
        amps = np.asarray(list(amplitudes) if not isinstance(amplitudes, np.ndarray) else amplitudes)
        amps = amps.astype(np.complex128).reshape(-1)
        return cls(normalized_row(amps) if normalize else amps, spec)

    @classmethod
    def basis_state(cls, spec: BasisSpec, levels: Sequence[int | str], photons: int) -> "PureState":
        amps = np.zeros(spec.dimension, dtype=np.complex128)
        amps[basis_index(spec, levels, photons)] = 1.0
        return cls(amps, spec)

    def tensor(self) -> np.ndarray:
        """Read-only view shaped (3, ..., 3, fock_cutoff + 1)."""
        return self.amplitudes.reshape(self.spec.factor_dims)

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    def level_population(self, squid: int, level: int | str) -> float:
        """Total probability of finding the given SQUID in the given level.

        The value is ``level_populations`` for the state as a batch of one.
        """
        picks = level_rows(self.spec.factor_dims, squid, level_code(level))
        return float(level_populations(self.amplitudes[:, None], picks)[0])

    def photon_tail_population(self, min_photons: int) -> float:
        """Total probability of the cavity holding at least ``min_photons`` photons."""
        if min_photons <= 0:
            return 1.0
        if min_photons > self.spec.fock_cutoff:
            return 0.0
        return float(np.sum(np.abs(self.tensor()[..., min_photons:]) ** 2))

    def to_dict(self) -> dict:
        return {
            "basis": {"num_squids": self.spec.num_squids, "fock_cutoff": self.spec.fock_cutoff},
            "amplitudes": [[float(a.real), float(a.imag)] for a in self.amplitudes],
        }


def _check_squid(spec: BasisSpec, squid: int) -> None:
    if not 1 <= squid <= spec.num_squids:
        raise ValueError(f"squid index {squid} outside 1..{spec.num_squids}")


def _check_same_spec(a: PureState, b: PureState) -> None:
    if a.spec != b.spec:
        raise ValueError(f"basis mismatch: {a.spec} vs {b.spec}")


def _kron_product(vectors: Sequence[np.ndarray]) -> np.ndarray:
    """Flat Kronecker product of one amplitude vector per factor, first factor slowest.

    One broadcast product whose factors multiply in the order of the nested
    ``np.kron(np.kron(a, b), c)``, so every entry, the sign of each zero
    included, is the one the nested ``np.kron`` gives.
    """
    product = vectors[0]
    for vector in vectors[1:]:
        product = product[..., None] * vector
    return product.reshape(-1)


def normalized_row(amps: np.ndarray) -> np.ndarray:
    """``amps / ||amps||`` as a new array: the one rescaling, which
    ``PureState.from_amplitudes(..., normalize=True)`` applies.

    Nothing checks the result; a NaN or infinite norm passes through, for
    ``check_row_norms`` or ``PureState`` to reject.  The norm of the complex
    row is formed as ``np.linalg.norm`` forms it, by two real dot products,
    without its dispatch.
    """
    nrm = math.sqrt(amps.real.dot(amps.real) + amps.imag.dot(amps.imag))
    if nrm == 0.0:
        raise ValueError("cannot normalize a zero vector")
    return amps / nrm


def _row_norms(rows: np.ndarray) -> np.ndarray:
    """Norms of a (B, ...) stack, each row summed as one contiguous run."""
    parts = np.ascontiguousarray(rows).reshape(len(rows), -1).view(np.float64)
    return np.sqrt(np.einsum("ij,ij->i", parts, parts))


def check_row_norms(amps: np.ndarray, first_sample: int = 0) -> None:
    """Raise ``NormalizationError`` naming the first row whose norm is off unity by NORM_TOL.

    ``amps`` holds one state per index of its last axis; rows are
    numbered from ``first_sample``.  A screen first squares every row's
    norm at once: a batch of one is one vector, squared by one BLAS dot
    product (``np.vdot``), and a larger batch is summed down the batch-last
    array by one ``einsum``.  Only the rows the screen does not clear are
    summed again as contiguous runs (``_row_norms``), so the verdict and
    the norm a failure reports are the ones ``_row_norms`` alone gives, in
    any layout.

    A row holds M complex amplitudes, 2M real parts.  Both screens and
    ``_row_norms`` add the 2M squares in some order: rounded products or
    fused multiply-adds, split over any number of accumulators, each
    partial sum rounded once.  Every such order leaves a sum of
    non-negative terms within gamma_2M = 2M u / (1 - 2M u) of the exact
    one, u = 2^-53 (Higham, Accuracy and Stability of Numerical
    Algorithms, 2nd ed., section 3.1), plus under 2^-1074 for each product
    that underflows, which is nothing against a sum near 1.  A screened
    square and the one ``_row_norms`` sums therefore differ by at most
    2 gamma_2M times the exact one, and the two norms, the square root
    rounded once more, by less than (2M + 2) u.  The screen clears a row
    when its square lies strictly inside ((1 - band)^2, (1 + band)^2),
    band = NORM_TOL - 4 (M + 2) u, which leaves more than that margin, so
    every cleared row passes; a NaN clears nothing and goes to the
    contiguous sum.
    """
    rows = amps.shape[-1]
    if rows == 1:
        band = NORM_TOL - 2 * (amps.size + 2) * _EPS
        if (1.0 - band) ** 2 < np.vdot(amps, amps).real < (1.0 + band) ** 2:
            return
        suspects = np.zeros(1, dtype=np.intp)
    else:
        parts = np.ascontiguousarray(amps).reshape(-1, rows).view(np.float64)
        sums = np.einsum("ij,ij->j", parts, parts)
        squares = sums[0::2] + sums[1::2]
        band = NORM_TOL - 2 * (len(parts) + 2) * _EPS
        low, high = (1.0 - band) ** 2, (1.0 + band) ** 2
        if low < squares.min() and squares.max() < high:  # a NaN clears neither
            return
        suspects = np.flatnonzero(~((low < squares) & (squares < high)))
    norms = _row_norms(np.moveaxis(amps[..., suspects], -1, 0))
    ok = np.abs(norms - 1.0) < NORM_TOL
    if not ok.all():
        k = int(np.argmin(ok))
        raise NormalizationError(f"sample {first_sample + int(suspects[k])}: "
                                 f"state norm is {float(norms[k])!r}")


def _level(amps: np.ndarray, squid: int, level: int) -> np.ndarray:
    """Writable view of every row's amplitudes with ``squid`` in ``level``."""
    if not 1 <= squid <= amps.ndim - 2:
        raise ValueError(f"squid index {squid} outside 1..{amps.ndim - 2}")
    index: list = [slice(None)] * amps.ndim
    index[squid - 1] = level
    return amps[tuple(index)]


def level_rows(dims: tuple[int, ...], squid: int, level: int) -> np.ndarray:
    """Flat indices, in C order, of the states of a ``dims`` register with ``squid`` in ``level``."""
    return _level(np.arange(math.prod(dims)).reshape(dims)[..., None], squid, level).reshape(-1)


def level_populations(rows: np.ndarray, picks: np.ndarray) -> np.ndarray:
    """(B,) population of the states ``picks`` names, per row of the (N, B) ``rows``."""
    # Sum each row as one contiguous run, in the order of picks, so the
    # rounding, and with it the population a guard reports, does not depend
    # on the batch layout.
    return np.sum(np.abs(np.ascontiguousarray(rows.take(picks, axis=0).T)) ** 2, axis=1)


def population_screen(rows: np.ndarray, picks: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(B,) populations of the states ``picks`` names, summed down the rows at once, and their slack.

    A batch of one is reduced by one BLAS dot product of its picked
    amplitudes with themselves (``np.vdot``), a larger batch by one
    ``einsum`` down the batch-last (N, B) ``rows``.  Each value differs from
    the one ``level_populations`` gives for the row by less than its slack.
    All three routes add the squares of the same n amplitudes, 2n real
    parts, in some order: rounded products or fused multiply-adds, over any
    number of accumulators, each partial sum rounded once.  A sum of
    non-negative terms formed that way lies within
    gamma_2n = 2n u / (1 - 2n u) of the exact one, u = 2^-53 (Higham,
    Accuracy and Stability of Numerical Algorithms, 2nd ed., section 3.1),
    plus under 2^-1074 for each product that underflows.
    ``level_populations`` rounds a modulus and a square per term before
    its n - 1 additions, so it lies within (n + 4) u of the exact sum,
    plus under 2^-1074 per term.  Their gap, under (3n + 4) u times the
    population plus 2n subnormals, lies inside the slack, 8 (n + 3) u
    times the population plus 4 (n + 3) subnormals.  A guard clears the
    rows that lie farther than the slack from its threshold and, only if
    some row is not cleared, reads those rows from ``level_populations``,
    so its verdict and the population it reports are the ones
    ``level_populations`` alone gives.
    """
    view = rows.take(picks, axis=0)
    terms = len(view)
    if view.shape[-1] == 1:
        # the same slack in float arithmetic, which rounds as numpy's does
        pop = float(np.vdot(view, view).real)
        return np.array([pop]), np.array([4 * (terms + 3) * (_EPS * pop + _TINY)])
    parts = view.view(np.float64)
    sums = np.einsum("ij,ij->j", parts, parts)
    pops = sums[0::2] + sums[1::2]
    return pops, 4 * (terms + 3) * (_EPS * pops + _TINY)


def inner_product(a: PureState, b: PureState) -> complex:
    """<a|b>, conjugate-linear in the first argument."""
    _check_same_spec(a, b)
    return complex(np.vdot(a.amplitudes, b.amplitudes))


def phase_aligned_distance(a: PureState, b: PureState) -> float:
    """min over theta of ||a - exp(i theta) b||.

    The minimizing phase is theta = arg <a|b>; the residual norm is then
    measured directly, which stays exact down to machine precision where
    the algebraic shortcut sqrt(2 - 2|<a|b>|) bottoms out near 1e-8.
    """
    ip = inner_product(a, b)
    # minimizer of ||a - e^{i theta} b||: e^{i theta} = conj(<a|b>)/|<a|b>|
    phase = ip.conjugate() / abs(ip) if abs(ip) > 0.0 else 1.0
    return float(np.linalg.norm(a.amplitudes - phase * b.amplitudes))


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """Reduced density matrix over a subset of register factors.

    ``subsystem`` lists the kept factor labels in canonical register
    order (squid1, squid2, ..., cavity).  Construction validates
    Hermiticity, unit trace, and positivity up to small tolerances.
    """

    entries: np.ndarray
    subsystem: tuple[str, ...]
    spec: BasisSpec

    def __post_init__(self) -> None:
        mat = np.array(self.entries, dtype=np.complex128)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise ValueError(f"density matrix must be square, got shape {mat.shape}")
        expected = 1
        labels = self.spec.factor_labels
        dims = dict(zip(labels, self.spec.factor_dims))
        order = {label: k for k, label in enumerate(labels)}
        if not self.subsystem:
            raise ValueError("subsystem must name at least one kept factor")
        for label in self.subsystem:
            if label not in dims:
                raise ValueError(f"unknown factor {label!r}; expected one of {labels}")
            expected *= dims[label]
        if list(self.subsystem) != sorted(self.subsystem, key=order.__getitem__):
            raise ValueError(f"subsystem labels must follow register order, got {self.subsystem}")
        if mat.shape[0] != expected:
            raise ValueError(f"matrix dimension {mat.shape[0]} != subsystem dimension {expected}")
        defect = density_defect(mat[None])
        if defect is not None:
            raise ValueError(defect[1])
        mat.setflags(write=False)
        object.__setattr__(self, "entries", mat)


def density_defect(mats: np.ndarray, gram_terms: int | None = None) -> tuple[int, str] | None:
    """First (row, reason) in a stack of square matrices that is no density matrix.

    Checks Hermiticity, unit trace and the eigenvalue floor, in that
    order; returns None when every matrix passes.  The floor is proved
    for the whole stack by the Gram bound below, which clears it by 1e-12,
    far above ``eigvalsh``'s own roundoff, or else every matrix is
    diagonalised, so the verdict and the eigenvalue a failure reports are
    ``eigvalsh``'s.

    Gram bound, only when ``gram_terms`` = n is given, with
    gamma = 8 (n + 2) u, u = 2^-53.  Its premise: every matrix that passes
    the trace test, as ``eigvalsh`` reads it (real diagonal, lower
    triangle mirrored), differs from a positive semidefinite matrix by an
    E with ||E||_F <= gamma (|t| + NORM_TOL) / (1 - gamma), t its computed
    trace.  By Weyl's inequality its smallest eigenvalue is then at least
    -||E||_2 >= -||E||_F.  The stack passes when
    gamma (|t| + NORM_TOL) <= (1 - gamma) (-EIGENVALUE_FLOOR - 1e-12)
    for its largest |t|; multiplied out, the test also fails once
    gamma >= 1.  Every |t| lies within about NORM_TOL of 1 here, so one
    bound serves the whole stack.

    A computed Gram product fl(C C^H) of a complex matrix C with rows of
    length n meets the premise.  For any summation order, blocking or FMA
    use in a conventional product, each computed entry lies within
    gamma * sum_l |c_il| |c_jl| of the exact one (Higham, Accuracy and
    Stability of Numerical Algorithms, 2nd ed., sections 3.5-3.6), gamma
    a generous complex gamma_{n+2}, so the matrix differs from the
    positive semidefinite C C^H by an E with ||E||_F <= gamma ||C||_F^2.
    ||C||_F^2 is the exact trace T, and the computed trace t, two more
    additions, has |t - T| <= gamma T, so T <= (|t| + NORM_TOL) / (1 - gamma),
    NORM_TOL covering the rounding of |t| and of the test.  A copy's matrix
    in the three-SQUID register has n = 9 (n_max + 1) and passes for every
    photon cutoff n_max below about 1.2 * 10^4.  ``verify.score_nominal``
    proves the premise for its weighted sums of Gram blocks with
    n = 2 (K + 8), K the row length of the blocks ``BasisList.score_blocks``
    gathers, at most 9 (n_max + 1).
    """
    skew = np.max(np.abs(mats - np.conj(np.swapaxes(mats, -1, -2))), axis=(-2, -1))
    trace = np.trace(mats, axis1=-2, axis2=-1)
    bad_skew = ~(skew < HERMITICITY_TOL)
    bad_trace = ~(np.abs(trace.real - 1.0) < NORM_TOL)
    bad = np.flatnonzero(bad_skew | bad_trace)
    if bad.size:
        k = int(bad[0])
        if bad_skew[k]:
            return k, "density matrix is not Hermitian within tolerance"
        return k, f"density matrix trace {complex(trace[k])!r} != 1 within tolerance"
    if gram_terms is not None:
        gamma = 8 * (gram_terms + 2) * (_EPS / 2)
        largest = float(np.max(np.abs(trace), initial=0.0))
        if gamma * (largest + NORM_TOL) <= (1.0 - gamma) * (-EIGENVALUE_FLOOR - 1e-12):
            return None
    low = np.linalg.eigvalsh(mats)[:, 0]
    bad = np.flatnonzero(~(low >= EIGENVALUE_FLOOR))
    if bad.size:
        k = int(bad[0])
        return k, f"density matrix has eigenvalue {float(low[k])} below {EIGENVALUE_FLOOR}"
    return None


def partial_trace(state: PureState, keep: Iterable[str]) -> DensityMatrix:
    """Trace out every factor not named in ``keep``.

    ``keep`` is a non-empty subset of the register's factor labels
    ("squid1", ..., "cavity"); the kept axes stay in register order.
    """
    labels = state.spec.factor_labels
    requested = list(keep)
    if not requested:
        raise ValueError("keep must name at least one factor")
    seen = set()
    for label in requested:
        if label not in labels:
            raise ValueError(f"unknown factor {label!r}; expected one of {labels}")
        if label in seen:
            raise ValueError(f"duplicate factor {label!r} in keep")
        seen.add(label)
    keep_axes = [k for k, label in enumerate(labels) if label in seen]
    traced_axes = [k for k in range(len(labels)) if k not in keep_axes]
    arr = state.tensor()
    rho = np.tensordot(arr, arr.conj(), axes=(traced_axes, traced_axes))
    dim = int(np.prod([state.spec.factor_dims[k] for k in keep_axes], dtype=int))
    rho = rho.reshape(dim, dim)
    kept_labels = tuple(labels[k] for k in keep_axes)
    return DensityMatrix(rho, kept_labels, state.spec)


def fidelity_against_dm(psi: Sequence[complex], rho: DensityMatrix) -> float:
    """<psi|rho|psi> for a (g, i) qubit state against a single-SQUID density matrix.

    ``psi`` is a normalized length-2 vector of (g, i) amplitudes.  The
    matrix must sit on exactly one SQUID and carry negligible population
    in the e level; otherwise the qubit reading is invalid and a
    ``LeakageError`` is raised.
    """
    if len(rho.subsystem) != 1 or not rho.subsystem[0].startswith("squid"):
        raise ValueError(f"expected a single-SQUID density matrix, got subsystem {rho.subsystem}")
    vec = np.asarray(psi, dtype=np.complex128).reshape(-1)
    if vec.shape != (2,):
        raise ValueError(f"psi must be a length-2 (g, i) vector, got shape {vec.shape}")
    if abs(float(np.linalg.norm(vec)) - 1.0) >= NORM_TOL:
        raise ValueError("psi must be normalized")
    e_pop = float(rho.entries[LEVEL_E, LEVEL_E].real)
    if e_pop > E_LEAK_TOL:
        raise LeakageError(f"e-level population {e_pop} exceeds {E_LEAK_TOL}")
    block = rho.entries[:2, :2]
    return float(np.real(vec.conj() @ block @ vec))
