"""Closed-form pulse primitives and their matrix-exponential cross-check.

Every primitive follows the -i*sin rotation convention:

  cavity exchange   |g, n+1>  ->  cos(L sqrt(n+1) t)|g, n+1> - i sin(...)|e, n>
  g-e drive         |g>       ->  cos(W t)|g> - i sin(W t)|e>
  i-e drive         |i>       ->  cos(W t)|i> - i sin(W t)|e>
  free evolution    |i>       ->  exp(-i w_gi t)|i>

The two-pulse (Raman) map on {|g>, |i>} with drive phase difference
dphi = phi1 - phi2 reads

  |g>  ->  cos(L' t)|g> + i exp(-i dphi) exp(-i w_gi t) sin(L' t)|i>
  |i>  ->  i exp(+i dphi) sin(L' t)|g> + exp(-i w_gi t) cos(L' t)|i>

which factors exactly as free_evolution(t) applied after the plain
rotation exp(+i L' t M), M = exp(i dphi)|g><i| + h.c.  It is the
adiabatic limit of the Lambda system driven by both pulses at a common
detuning Delta from |e>, and it assumes equal Rabi rates Omega on the two
legs: then L' = Omega^2 / Delta and g and i share one ac-Stark phase,
which the map drops (unequal rates would add a relative g-i phase).
The factored form is what ``build_generator`` exposes: the Raman
generator is the coupling factor -L'M, and composing its exponential with
the free-evolution generator's exponential reproduces the map above.  No
single time-independent Hermitian generator can, because the map is not a
one-parameter group in t.

Each map is one kernel that acts in place on a batch: a complex array of
shape (N, B) holding one register state per column (a "row"), batch axis
last, over a listed basis (``hilbert.BasisList``): entry (k, b) is row b's
amplitude of the k-th listed basis state, and every state the list leaves
out has amplitude zero.  A (B,) array of durations lets every row carry
its own pulse length.  A kernel is three parts.  ``pulse_coefficients``
turns the durations into read-only coefficient arrays, the entries of the
map's 2x2 matrix (cos and -i sin of the rotation angles, the two-pulse
couplings) and the |i> phase.  ``pulse_rows`` turns the list into index
lists: the pairs of rows the pulse mixes, each cavity-exchange pair's
photon number, which picks its coefficient row, the |i> rows free
evolution multiplies and the e rows the two-pulse guard sums.  It passes
the list's index array through the level views of the pulse's SQUID, so
a list of the whole register gives exactly the amplitudes the views name.
``apply_coefficients`` then mixes the listed pairs by index.  One table,
``COUPLED_LEVELS``, says which pair of levels each pulse mixes and by how
many photons; one routine, ``_mix``, mixes the pairs, and puts the
two-pulse map's |i> phase on in the same write; free evolution is that
phase alone.  The photon-support proof in ``protocol`` reads the same
table, and its basis-walk certificate reads ``map_norm_bound``, a bound
on the norm of the map a pulse's coefficients define.  Coefficients
built from a (1,) duration broadcast over every row, so a caller that
runs one pulse many times at one duration can build them once.  The
kernels use only elementwise arithmetic, in the order the map is
written, so in a batch of two or more rows a row's result depends
neither on the batch size nor on which other states the list holds.  A
batch of one row differs in one case, measured with numpy 2.4.6 on an
AVX-512 host: numpy multiplies two complex operands that hold a single
element in a scalar loop without fused multiply-adds, so a ``RAMAN`` or
``FREE_EVOLVE`` pulse that reads one pair, or one |i> row, can round
such a row differently from the same row in a longer list.  Real and
purely imaginary coefficients, the rotations' cos and -i sin, round
alike in both loops.

``run_pulse`` is what every pulse application runs: the two-pulse
guard, the kernel and the row-norm check.  ``protocol``'s walk (over the
states a program's start states reach), the ``checks`` oracles
and ``apply_pulse_op`` (one ``PureState`` as a batch of one over the whole
register) all call it; each ``apply_*`` is
``apply_pulse_op`` with its variant.  The two-pulse map is guarded by
``check_two_pulse_domain`` at the one leakage tolerance
``hilbert.E_LEAK_TOL``, read from ``hilbert``'s one population sum: a
row it lets through holds e population below E_LEAK_TOL on the pulse's
SQUID, so the e component that the map leaves untouched, and does not
model, has norm below sqrt(E_LEAK_TOL) = 1e-5.
``build_generator`` assembles each generator as the Kronecker product of
a one-SQUID matrix with identities on the other factors (one broadcast
product, entry for entry the nested ``np.kron``); it states its
couplings on its own, not from ``COUPLED_LEVELS``, so it stays an
independent oracle.  A generator that is the lift h (x) I of its block h
on the factors it acts on exponentiates to exp(-i h t) (x) I, so that
block alone (3x3 on a SQUID, or over a SQUID and the cavity for ``JC``)
determines the propagator; every ``checks`` oracle decomposes only the
block.  ``evolve_exact`` is two steps: ``diagonalize_generator`` (once per
generator, or once for a stack of them) and the row kernel
``evolve_rows``, which applies the decomposition to a (B, dimension)
stack of states, row b for its own duration.
"""

from __future__ import annotations

import cmath
import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import LeakageError
from .hilbert import (
    E_LEAK_TOL,
    LEVEL_E,
    LEVEL_G,
    LEVEL_I,
    NUM_LEVELS,
    BasisList,
    BasisSpec,
    PureState,
    _EPS,
    _check_squid,
    _level,
    check_row_norms,
    level_populations,
    population_screen,
)


@dataclass(frozen=True)
class CouplingConfig:
    """Rates of the pulse primitives; each must be positive and finite.

    lam            cavity exchange rate (resonant SQUID-cavity coupling)
    omega_ge       classical g-e drive Rabi rate
    omega_ie       classical i-e drive Rabi rate
    lambda_prime   effective two-pulse (Raman) rotation rate
    omega_gi       g-i level splitting, sets the free phase on |i>
    """

    lam: float = 1.0
    omega_ge: float = 1.0
    omega_ie: float = 1.0
    lambda_prime: float = 1.0
    omega_gi: float = 20.0

    def __post_init__(self) -> None:
        for name in ("lam", "omega_ge", "omega_ie", "lambda_prime", "omega_gi"):
            value = getattr(self, name)
            if not value > 0.0:
                raise ValueError(f"{name} must be positive, got {value}")
            if value == math.inf:
                raise ValueError(f"{name} must be finite, got {value}")


DEFAULT_COUPLINGS = CouplingConfig()


class PulseVariant(str, enum.Enum):
    JC = "jc"
    DRIVE_GE = "drive_ge"
    DRIVE_IE = "drive_ie"
    RAMAN = "raman"
    FREE_EVOLVE = "free_evolve"


# The levels each coupling pulse mixes: (a, b, s) couples |a, n + s> with
# |b, n> on the pulse's SQUID, for every n >= 0.  Free evolution is
# diagonal and couples nothing.
COUPLED_LEVELS = {
    PulseVariant.JC: (LEVEL_G, LEVEL_E, 1),
    PulseVariant.DRIVE_GE: (LEVEL_G, LEVEL_E, 0),
    PulseVariant.DRIVE_IE: (LEVEL_I, LEVEL_E, 0),
    PulseVariant.RAMAN: (LEVEL_G, LEVEL_I, 0),
}


@dataclass(frozen=True)
class PulseOp:
    """One primitive pulse on one SQUID (plus the cavity for ``JC``)."""

    variant: PulseVariant
    squid: int
    duration: float
    phi1: float = 0.0
    phi2: float = 0.0

    def __post_init__(self) -> None:
        if self.squid < 1:
            raise ValueError(f"squid index must be >= 1, got {self.squid}")
        if not 0.0 <= self.duration < math.inf:  # also rejects NaN
            raise ValueError(f"duration must be finite and >= 0, got {self.duration}")
        for name in ("phi1", "phi2"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")


def pulse_coefficients(
    op: PulseOp, durations: np.ndarray, fock_cutoff: int, cfg: CouplingConfig = DEFAULT_COUPLINGS
) -> tuple[np.ndarray, ...]:
    """Read-only coefficients of ``op``'s map, row b lasting ``durations[b]``.

    The coefficients are the entries of the map's 2x2 matrix on the pair
    of levels ``COUPLED_LEVELS`` names, (c, ab, ba) for [[c, ab], [ba, c]]:
    a rotation (``JC``, ``DRIVE_GE``, ``DRIVE_IE``) gets (cos, m, m) of its
    angle, m = -i sin one array in both slots, with shape (fock_cutoff, B)
    for ``JC``, whose photon sectors rotate at lam * sqrt(n+1); ``RAMAN``
    gets (cos, up, down, free), where up and down are i exp(+-i dphi) sin
    and free is the |i> phase; ``FREE_EVOLVE`` gets (free,).  cos is cast
    to complex, which is what numpy does with it in every product it
    enters, so the arrays give the same bits as the real values would.
    Any array that broadcasts against the rows may stand in for
    ``durations``: a (1,) array serves every row with one duration.
    """
    t = np.asarray(durations, dtype=np.float64)
    if op.variant is PulseVariant.JC:
        rates = cfg.lam * np.sqrt(np.arange(1, fock_cutoff + 1, dtype=np.float64))
        coeffs = _rotation(rates[:, None] * t)
    elif op.variant is PulseVariant.DRIVE_GE:
        coeffs = _rotation(cfg.omega_ge * t)
    elif op.variant is PulseVariant.DRIVE_IE:
        coeffs = _rotation(cfg.omega_ie * t)
    elif op.variant is PulseVariant.RAMAN:
        dphi = op.phi1 - op.phi2
        angle = cfg.lambda_prime * t
        s = np.sin(angle)
        coeffs = (np.cos(angle).astype(np.complex128), 1j * cmath.exp(1j * dphi) * s,
                  1j * cmath.exp(-1j * dphi) * s, _free_phase(t, cfg))
    elif op.variant is PulseVariant.FREE_EVOLVE:
        coeffs = (_free_phase(t, cfg),)
    else:
        raise ValueError(f"unknown pulse variant {op.variant!r}")
    for array in coeffs:
        array.flags.writeable = False
    return coeffs


def map_norm_bound(op: PulseOp, coeffs: tuple[np.ndarray, ...]) -> float:
    """An upper bound on the 2-norm of the exact map that ``coeffs`` define for ``op``.

    A coupling pulse maps each pair it mixes by A = [[c, ab], [ba, c]], and
    the largest eigenvalue of A^H A is at most its largest diagonal entry
    plus its off-diagonal modulus (Gershgorin); the two-pulse map's |i>
    phase scales A's second row by |free|, and free evolution is |free|
    alone.  The factor 1 + 8 u, u = 2^-53, covers the dozen roundings of
    evaluating the bound.
    """
    if op.variant is PulseVariant.FREE_EVOLVE:
        bound = float(np.max(np.abs(coeffs[0])))
    else:
        c, ab, ba = coeffs[:3]
        diagonal = np.maximum(np.abs(c) ** 2 + np.abs(ba) ** 2, np.abs(ab) ** 2 + np.abs(c) ** 2)
        bound = math.sqrt(float(np.max(diagonal + np.abs(np.conj(c) * ab + np.conj(ba) * c))))
        if op.variant is PulseVariant.RAMAN:
            bound *= max(1.0, float(np.max(np.abs(coeffs[-1]))))
    return bound * (1.0 + 4.0 * _EPS)  # _EPS = 2u


def _rotation(theta: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    m = -1j * np.sin(theta)
    return np.cos(theta).astype(np.complex128), m, m


def _free_phase(t: np.ndarray, cfg: CouplingConfig) -> np.ndarray:
    return np.exp(-1j * cfg.omega_gi * t)


@dataclass(frozen=True, eq=False)
class PulseRows:
    """The rows of a listed basis that one pulse reads (``pulse_rows``).

    ``a[k]`` and ``b[k]`` are the rows of a pair |a, n + s> <-> |b, n> that
    ``COUPLED_LEVELS`` names on the pulse's SQUID, both listed; for ``JC``
    ``photons[k]`` is the pair's n, which picks its coefficient row.
    ``FREE_EVOLVE`` lists its SQUID's |i> rows as ``b``.  ``e``, for
    ``RAMAN`` only, lists the SQUID's e-level rows, which its guard sums.
    Every list follows the register's C order.
    """

    a: np.ndarray
    b: np.ndarray
    photons: np.ndarray | None = None
    e: np.ndarray | None = None


def _listed(view: np.ndarray) -> np.ndarray:
    return view[view >= 0]


def pulse_rows(op: PulseOp, labels: np.ndarray) -> PulseRows:
    """The rows ``op`` reads, for rows labelled by ``labels`` (``hilbert.BasisList.labels``).

    ``labels`` holds each basis state's row, shaped like the register, -1
    for a state the rows do not hold.  The lists come from the index array
    passed through the level views of ``op``'s SQUID, so a list over the
    whole register names exactly the amplitudes the level views name, in
    their order, and a list over fewer states is that list restricted to
    the states held.  A SQUID outside the register raises ``ValueError``.
    """
    tensor = labels[..., None]  # the level views take a batch axis
    if op.variant is PulseVariant.FREE_EVOLVE:
        return PulseRows(np.empty(0, dtype=np.intp), _listed(_level(tensor, op.squid, LEVEL_I)))
    a, b, shift = COUPLED_LEVELS[op.variant]
    a_rows = _level(tensor, op.squid, a)[..., shift:, 0]
    b_rows = _level(tensor, op.squid, b)[..., :a_rows.shape[-1], 0]
    kept = (a_rows >= 0) & (b_rows >= 0)
    photons = kept.nonzero()[-1] if shift else None  # each kept pair's photon number
    e = _listed(_level(tensor, op.squid, LEVEL_E)) if op.variant is PulseVariant.RAMAN else None
    return PulseRows(a_rows[kept], b_rows[kept], photons, e)


def _mix(
    rows: np.ndarray, a: np.ndarray, b: np.ndarray, c: np.ndarray, ab: np.ndarray,
    ba: np.ndarray, free: np.ndarray | None = None,
) -> None:
    # rows a -> c a + ab b, rows b -> free (ba a + c b), in place; no free means 1.
    a_old, b_old = rows.take(a, axis=0), rows.take(b, axis=0)
    rows[a] = c * a_old + ab * b_old
    b_new = ba * a_old + c * b_old
    rows[b] = b_new if free is None else free * b_new


def apply_coefficients(
    rows: np.ndarray, op: PulseOp, coeffs: tuple[np.ndarray, ...], lists: PulseRows
) -> None:
    """Apply ``op``'s map in place to every row of ``rows``, given its ``pulse_coefficients``.

    The raw kernel, with no guard and no norm check (``run_pulse`` adds
    both).  ``rows`` is (N, B), batch axis last, over a listed basis, and
    ``lists`` is ``op``'s ``pulse_rows`` over it.  A coupling pulse mixes
    each pair of rows by its coefficients (``_mix``), ``JC`` reading the
    coefficient row of each pair's photon number, and for ``RAMAN`` the
    free phase goes onto the new |i> amplitudes as they are written;
    ``FREE_EVOLVE`` multiplies the |i> rows by its phase.  Cavity exchange
    thus rotates each excitation sector {|g, n+1>, |e, n>} by its own
    angle; |i, n> and |g, 0> are dark, and |e, fock_cutoff> has no partner
    within the truncated space and stays put.  The two-pulse map leaves e
    amplitudes untouched.  Every product is elementwise, in the order the
    map is written, so a row's result does not depend on the batch or on
    which states the basis lists, but for a batch of one row under the
    complex coefficients of a one-pair list (the module docstring).
    """
    if lists.photons is not None:
        coeffs = tuple(array.take(lists.photons, axis=0) for array in coeffs)
    if op.variant is PulseVariant.FREE_EVOLVE:
        rows[lists.b] = coeffs[0] * rows.take(lists.b, axis=0)
        return
    _mix(rows, lists.a, lists.b, *coeffs)


def check_two_pulse_domain(
    amps: np.ndarray, squid: int, first_sample: int, picks: np.ndarray
) -> None:
    """Raise ``LeakageError`` naming the first row whose ``squid`` holds e population >= E_LEAK_TOL.

    The two-pulse map eliminated the e level, so it is valid only where
    that population is negligible.  ``amps`` holds (N, B) rows over a
    listed basis, batch axis last, whose e-level rows of ``squid`` are
    ``picks``.  Rows are numbered from ``first_sample``.
    """
    screen, slack = population_screen(amps, picks)
    suspects = np.flatnonzero(~(screen + slack < E_LEAK_TOL))
    if not suspects.size:
        return
    pops = level_populations(amps, picks)[suspects]
    bad = pops >= E_LEAK_TOL
    if bad.any():
        k = int(np.argmax(bad))
        raise LeakageError(
            f"sample {first_sample + int(suspects[k])}: squid{squid} e-level population "
            f"{float(pops[k])} exceeds {E_LEAK_TOL}; "
            f"two-pulse map undefined outside the g-i subspace"
        )


def run_pulse(
    rows: np.ndarray,
    op: PulseOp,
    coeffs: tuple[np.ndarray, ...],
    lists: PulseRows,
    first_sample: int = 0,
    guarded: bool = True,
) -> None:
    """Apply ``op`` in place to every row of ``rows`` with the checks every pulse gets.

    ``rows`` is (N, B) over a listed basis and ``lists`` ``op``'s
    ``pulse_rows`` over it.  A ``RAMAN`` op is first guarded by
    ``check_two_pulse_domain`` on the SQUID's e-level rows (skipped with
    ``guarded`` off); ``apply_coefficients`` then applies ``coeffs``, and
    ``check_row_norms`` checks every row after it.  Either check names a
    failing row as sample ``first_sample + row``.
    """
    if guarded and op.variant is PulseVariant.RAMAN:
        check_two_pulse_domain(rows, op.squid, first_sample, lists.e)
    apply_coefficients(rows, op, coeffs, lists)
    check_row_norms(rows, first_sample)


def apply_pulse_op(
    state: PureState, op: PulseOp, cfg: CouplingConfig = DEFAULT_COUPLINGS
) -> PureState:
    """``run_pulse`` on one state as a batch of one, at ``op.duration``, over the whole register.

    A ``RAMAN`` op is guarded by ``check_two_pulse_domain``; the raw map,
    which leaves e amplitudes untouched, is ``apply_coefficients``.  A
    SQUID outside the register raises ``ValueError`` from the level views.
    """
    rows = state.amplitudes[:, None].copy()
    coeffs = pulse_coefficients(op, np.array([op.duration]), state.spec.fock_cutoff, cfg)
    run_pulse(rows, op, coeffs, pulse_rows(op, BasisList.full(state.spec).labels))
    return PureState(rows[:, 0], state.spec)


def apply_jc(
    state: PureState, squid: int, duration: float, cfg: CouplingConfig = DEFAULT_COUPLINGS
) -> PureState:
    """One cavity-exchange pulse on one state."""
    return apply_pulse_op(state, PulseOp(PulseVariant.JC, squid, duration), cfg)


def apply_drive_ge(
    state: PureState, squid: int, duration: float, cfg: CouplingConfig = DEFAULT_COUPLINGS
) -> PureState:
    """One g-e drive pulse on one state."""
    return apply_pulse_op(state, PulseOp(PulseVariant.DRIVE_GE, squid, duration), cfg)


def apply_drive_ie(
    state: PureState, squid: int, duration: float, cfg: CouplingConfig = DEFAULT_COUPLINGS
) -> PureState:
    """One i-e drive pulse on one state."""
    return apply_pulse_op(state, PulseOp(PulseVariant.DRIVE_IE, squid, duration), cfg)


def apply_raman(
    state: PureState,
    squid: int,
    duration: float,
    phi1: float,
    phi2: float,
    cfg: CouplingConfig = DEFAULT_COUPLINGS,
) -> PureState:
    """One two-pulse rotation on one state, guarded as ``apply_pulse_op`` guards it."""
    return apply_pulse_op(state, PulseOp(PulseVariant.RAMAN, squid, duration, phi1, phi2), cfg)


def apply_free_evolution(
    state: PureState, squid: int, duration: float, cfg: CouplingConfig = DEFAULT_COUPLINGS
) -> PureState:
    """Free evolution of one state."""
    return apply_pulse_op(state, PulseOp(PulseVariant.FREE_EVOLVE, squid, duration), cfg)


def _lift(
    spec: BasisSpec, squid: int, mat: np.ndarray, cavity: np.ndarray | None = None
) -> np.ndarray:
    """Kronecker product of ``mat`` on ``squid`` with identities on the other factors.

    ``cavity``, when given, replaces the identity on the cavity factor.  The
    product is one broadcast multiply whose factors pair up in the order of
    ``kron(kron(kron(before, mat), between), cavity)``, so every entry, the
    sign of each zero included, is the one the nested ``np.kron`` gives.
    """
    before = np.eye(NUM_LEVELS ** (squid - 1))
    between = np.eye(NUM_LEVELS ** (spec.num_squids - squid))
    if cavity is None:
        cavity = np.eye(spec.fock_cutoff + 1)
    # Factor k spans row axis k and column axis 4 + k; numpy aligns the
    # shorter index expressions from the right.
    product = (before[:, None, None, None, :, None, None, None]
               * mat[:, None, None, None, :, None, None]
               * between[:, None, None, None, :, None]
               * cavity[:, None, None, None, :])
    return product.reshape(spec.dimension, spec.dimension)


def build_generator(op: PulseOp, spec: BasisSpec, cfg: CouplingConfig = DEFAULT_COUPLINGS) -> np.ndarray:
    """Hermitian generator H whose exponential exp(-i H t) realizes ``op``.

    For ``RAMAN`` this is the coupling factor of the exact two-factor
    split described in the module docstring; compose its exponential
    with the ``FREE_EVOLVE`` generator's exponential (same target, same
    duration, free factor applied last) to rebuild the full map.
    """
    _check_squid(spec, op.squid)
    mat = np.zeros((NUM_LEVELS, NUM_LEVELS), dtype=np.complex128)
    if op.variant is PulseVariant.JC:
        # lam (|g><e| a^dag + |e><g| a), with a^dag |n> = sqrt(n+1) |n+1>
        mat[LEVEL_G, LEVEL_E] = 1.0
        photons = np.arange(1, spec.fock_cutoff + 1, dtype=np.float64)
        raising = np.diag(cfg.lam * np.sqrt(photons), -1)
        up = _lift(spec, op.squid, mat, raising)
        return up + up.T
    if op.variant is PulseVariant.DRIVE_GE:
        mat[LEVEL_G, LEVEL_E] = mat[LEVEL_E, LEVEL_G] = cfg.omega_ge
    elif op.variant is PulseVariant.DRIVE_IE:
        mat[LEVEL_I, LEVEL_E] = mat[LEVEL_E, LEVEL_I] = cfg.omega_ie
    elif op.variant is PulseVariant.RAMAN:
        coupling = cmath.exp(1j * (op.phi1 - op.phi2))
        mat[LEVEL_G, LEVEL_I] = -cfg.lambda_prime * coupling
        mat[LEVEL_I, LEVEL_G] = -cfg.lambda_prime * coupling.conjugate()
    elif op.variant is PulseVariant.FREE_EVOLVE:
        mat[LEVEL_I, LEVEL_I] = cfg.omega_gi
    else:
        raise ValueError(f"unknown pulse variant {op.variant!r}")
    return _lift(spec, op.squid, mat)


def _check_generator_shape(shape: tuple, dim: int) -> None:
    if shape != (dim, dim):
        raise ValueError(f"generator shape {shape} does not match dimension {dim}")


def diagonalize_generator(generator: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues and eigenvectors of a finite square generator, Hermitian within 1e-12,
    or of each in a (..., n, n) stack of them.

    The once-per-generator half of ``evolve_exact``.  A stack is checked
    as a whole and decomposed by one ``np.linalg.eigh``, matrix by matrix.
    """
    ham = np.asarray(generator, dtype=np.complex128)
    if ham.ndim < 2 or ham.shape[-1] != ham.shape[-2]:
        raise ValueError(f"generator shape {ham.shape} is not square")
    if not np.isfinite(ham).all():
        raise ValueError("generator has a NaN or infinite entry")
    if not float(np.max(np.abs(ham - np.swapaxes(ham, -1, -2).conj()))) < 1e-12:
        raise ValueError("generator is not Hermitian within 1e-12")
    return np.linalg.eigh(ham)


def evolve_rows(
    rows: np.ndarray, eigen: tuple[np.ndarray, np.ndarray], durations: np.ndarray
) -> np.ndarray:
    """Apply exp(-i * H * durations[b]) to row b of the (B, dimension) ``rows``.

    ``eigen`` is H's ``diagonalize_generator`` output.  Each product is a
    stacked matmul with a trailing axis of 1, which numpy runs as one
    matrix-vector product per row, so a row's result does not depend on B.
    """
    evals, evecs = eigen
    _check_generator_shape(evecs.shape, rows.shape[-1])
    phases = np.exp(-1j * evals[None, :] * np.asarray(durations, dtype=np.float64)[:, None])
    return (evecs @ (phases * (evecs.conj().T @ rows[..., None])[..., 0])[..., None])[..., 0]


def evolve_exact(state: PureState, generator: np.ndarray, duration: float) -> PureState:
    """Apply exp(-i * generator * duration) via Hermitian eigendecomposition.

    ``diagonalize_generator`` and then ``evolve_rows`` on the state as a
    batch of one.
    """
    _check_generator_shape(np.shape(generator), state.spec.dimension)
    amps = evolve_rows(state.amplitudes[None], diagonalize_generator(generator),
                       np.array([duration]))[0]
    return PureState(amps, state.spec)
