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
shape ``(3, ..., 3, fock_cutoff + 1, B)`` holding one register state per
index of its last axis (a "row"), with a ``(B,)`` array of durations, so
every row may carry its own pulse length.  A kernel is two parts:
``pulse_coefficients`` turns the durations into read-only coefficient
arrays, the entries of the map's 2x2 matrix (cos and -i sin of the
rotation angles, the two-pulse couplings) and the |i> phase, and
``apply_coefficients`` applies them to the level views.  One table,
``COUPLED_LEVELS``, says which pair of levels each pulse mixes and by how
many photons; one routine, ``_mix``, mixes that pair, and puts the
two-pulse map's |i> phase on in the same write; free evolution is that
phase alone.  The photon-support proof in ``protocol`` reads the same
table, and its basis-walk certificate reads ``map_norm_bound``, a bound
on the norm of the map a pulse's coefficients define.  Coefficients
built from a (1,) duration broadcast over every row, so a caller that
runs one pulse many times at one duration can build them once.  With
the batch axis last, each per-row coefficient broadcasts along a
contiguous run of B amplitudes.  The kernels use only elementwise
arithmetic, so a row's result does not depend on the batch size.

``run_pulse`` is what every pulse application runs: the two-pulse
guard, the kernel and the row-norm check.  ``protocol``'s walk, the
``checks`` oracles and ``apply_pulse_op`` (one ``PureState`` as a batch
of one, a trailing axis of length 1) all call it; each ``apply_*`` is
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
independent oracle.  A generator I (x) h (x) I exponentiates to
I (x) exp(-i h t) (x) I, so its 3x3 block h alone determines the
propagator; ``checks`` uses that for the Raman coupling.
``evolve_exact`` is two steps: ``diagonalize_generator`` (once per
generator) and the row kernel ``evolve_rows``, which applies the
decomposition to a (B, dimension) stack of states, row b for its own
duration.
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


def _mix(
    a: np.ndarray, b: np.ndarray, c: np.ndarray, ab: np.ndarray, ba: np.ndarray,
    free: np.ndarray | None = None,
) -> None:
    # a -> c a + ab b, b -> free (ba a + c b), in place; no free means 1.
    a_old = a.copy()
    a[...] = c * a_old + ab * b
    if free is None:
        b[...] = ba * a_old + c * b
    else:
        np.multiply(free, ba * a_old + c * b, out=b)


def apply_coefficients(amps: np.ndarray, op: PulseOp, coeffs: tuple[np.ndarray, ...]) -> None:
    """Apply ``op``'s map in place to every row of ``amps``, given its ``pulse_coefficients``.

    The raw kernel, with no guard and no norm check (``run_pulse`` adds
    both).  A coupling pulse mixes the pair of level views that
    ``COUPLED_LEVELS`` names by its coefficients (``_mix``), and for
    ``RAMAN`` the free phase goes onto the new |i> amplitudes as they are
    written; ``FREE_EVOLVE`` multiplies |i> by its phase.  Cavity
    exchange thus rotates each excitation sector {|g, n+1>, |e, n>} by its
    own angle; |i, n> and |g, 0> are dark, and |e, fock_cutoff> has no
    partner within the truncated space and stays put.  The two-pulse map
    leaves e amplitudes untouched.
    """
    if op.variant is PulseVariant.FREE_EVOLVE:
        i_view = _level(amps, op.squid, LEVEL_I)
        np.multiply(coeffs[0], i_view, out=i_view)
        return
    a, b, shift = COUPLED_LEVELS[op.variant]
    a_view, b_view = _level(amps, op.squid, a), _level(amps, op.squid, b)
    if shift:
        a_view, b_view = a_view[..., shift:, :], b_view[..., :-shift, :]
    _mix(a_view, b_view, *coeffs)


def check_two_pulse_domain(amps: np.ndarray, squid: int, first_sample: int = 0) -> None:
    """Raise ``LeakageError`` naming the first row whose ``squid`` holds e population >= E_LEAK_TOL.

    The two-pulse map eliminated the e level, so it is valid only where
    that population is negligible.  Rows are numbered from ``first_sample``.
    """
    screen, slack = population_screen(amps, squid, LEVEL_E)
    suspects = np.flatnonzero(~(screen + slack < E_LEAK_TOL))
    if not suspects.size:
        return
    pops = level_populations(amps, squid, LEVEL_E)[suspects]
    bad = pops >= E_LEAK_TOL
    if bad.any():
        k = int(np.argmax(bad))
        raise LeakageError(
            f"sample {first_sample + int(suspects[k])}: squid{squid} e-level population "
            f"{float(pops[k])} exceeds {E_LEAK_TOL}; "
            f"two-pulse map undefined outside the g-i subspace"
        )


def run_pulse(
    amps: np.ndarray,
    op: PulseOp,
    coeffs: tuple[np.ndarray, ...],
    first_sample: int = 0,
    guarded: bool = True,
) -> None:
    """Apply ``op`` in place to every row of ``amps`` with the checks every pulse gets.

    A ``RAMAN`` op is first guarded by ``check_two_pulse_domain`` (skipped
    with ``guarded`` off); ``apply_coefficients`` then applies ``coeffs``,
    and ``check_row_norms`` checks every row after it.  Either check
    names a failing row as sample ``first_sample + row``.
    """
    if guarded and op.variant is PulseVariant.RAMAN:
        check_two_pulse_domain(amps, op.squid, first_sample)
    apply_coefficients(amps, op, coeffs)
    check_row_norms(amps, first_sample)


def apply_pulse_op(
    state: PureState, op: PulseOp, cfg: CouplingConfig = DEFAULT_COUPLINGS
) -> PureState:
    """``run_pulse`` on one state as a batch of one, at ``op.duration``.

    A ``RAMAN`` op is guarded by ``check_two_pulse_domain``; the raw map,
    which leaves e amplitudes untouched, is ``apply_coefficients``.  A
    SQUID outside the register raises ``ValueError`` from the level views.
    """
    amps = state.tensor()[..., None].copy()
    coeffs = pulse_coefficients(op, np.array([op.duration]), state.spec.fock_cutoff, cfg)
    run_pulse(amps, op, coeffs)
    return PureState(amps.reshape(-1), state.spec)


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
    """Eigenvalues and eigenvectors of a finite square generator, Hermitian within 1e-12.

    The once-per-generator half of ``evolve_exact``.
    """
    ham = np.asarray(generator, dtype=np.complex128)
    if ham.ndim != 2 or ham.shape[0] != ham.shape[1]:
        raise ValueError(f"generator shape {ham.shape} is not square")
    if not np.isfinite(ham).all():
        raise ValueError("generator has a NaN or infinite entry")
    if not float(np.max(np.abs(ham - ham.conj().T))) < 1e-12:
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
