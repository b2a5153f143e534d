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
rotation exp(+i L' t M), M = exp(i dphi)|g><i| + h.c.  The factored form
is what ``build_generator`` exposes: the Raman generator is the coupling
factor -L'M, and composing its exponential with the free-evolution
generator's exponential reproduces the map above.  No single
time-independent Hermitian generator can, because the map is not a
one-parameter group in t.

Each map is one kernel that acts in place on a batch: a complex array of
shape ``(B, 3, ..., 3, fock_cutoff + 1)`` holding one register state per
row, with a ``(B,)`` array of durations, so every row may carry its own
pulse length.  The kernels use only elementwise arithmetic, so a row's
result does not depend on the batch size.  ``pulse_kernel`` is the one
dispatch on the pulse variant, and ``apply_pulse_op`` runs it on one
``PureState`` as a batch of one; each ``apply_*`` is ``apply_pulse_op``
with its variant.  ``build_generator`` assembles each generator from
Kronecker products with identities on the other factors.
``evolve_exact`` is two steps: ``diagonalize_generator`` (once per
generator) and ``evolve_diagonalized`` (once per state and duration).
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
    _check_squid,
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

    def to_dict(self) -> dict:
        return {
            "variant": self.variant.value,
            "target": self.squid,
            "duration": self.duration,
            "phi1": self.phi1,
            "phi2": self.phi2,
        }


def _level(amps: np.ndarray, squid: int, level: int) -> np.ndarray:
    """Writable view of every row's amplitudes with ``squid`` in ``level``."""
    if not 1 <= squid <= amps.ndim - 2:
        raise ValueError(f"squid index {squid} outside 1..{amps.ndim - 2}")
    index: list = [slice(None)] * amps.ndim
    index[squid] = level
    return amps[tuple(index)]


def _per_row(values: np.ndarray, ndim: int) -> np.ndarray:
    """Shape a (B,) array to broadcast against a (B, ...) view with ``ndim`` axes."""
    return np.asarray(values, dtype=np.float64).reshape((-1,) + (1,) * (ndim - 1))


def _rotate(a: np.ndarray, b: np.ndarray, theta: np.ndarray) -> None:
    # |a> -> cos|a> - i sin|b>, |b> -> cos|b> - i sin|a>, in place.
    c, s = np.cos(theta), np.sin(theta)
    a_old = a.copy()
    a[...] = c * a_old - 1j * s * b
    b[...] = c * b - 1j * s * a_old


def level_populations(amps: np.ndarray, squid: int, level: int) -> np.ndarray:
    """(B,) probability of finding ``squid`` in ``level``, one entry per row."""
    view = _level(amps, squid, level)
    return np.sum(np.abs(view.reshape(len(amps), -1)) ** 2, axis=1)


def jc_kernel(
    amps: np.ndarray, squid: int, durations: np.ndarray, cfg: CouplingConfig = DEFAULT_COUPLINGS
) -> None:
    """Resonant cavity exchange on one SQUID's g-e transition, row b for ``durations[b]``.

    Each excitation sector {|g, n+1>, |e, n>} rotates by the angle
    lam * sqrt(n+1) * duration; |i, n> and |g, 0> are dark.  Within the
    truncated space |e, fock_cutoff> has no partner and stays put.  All
    sectors rotate in one step.
    """
    fock = amps.shape[-1] - 1
    rates = cfg.lam * np.sqrt(np.arange(1, fock + 1, dtype=np.float64))
    theta = rates * np.asarray(durations, dtype=np.float64)[:, None]
    g_view = _level(amps, squid, LEVEL_G)[..., 1:]
    e_view = _level(amps, squid, LEVEL_E)[..., :-1]
    theta = theta.reshape((len(amps),) + (1,) * (g_view.ndim - 2) + (fock,))
    _rotate(g_view, e_view, theta)


def _drive_kernel(amps: np.ndarray, squid: int, angles: np.ndarray, lower: int) -> None:
    lo_view = _level(amps, squid, lower)
    _rotate(lo_view, _level(amps, squid, LEVEL_E), _per_row(angles, lo_view.ndim))


def drive_ge_kernel(
    amps: np.ndarray, squid: int, durations: np.ndarray, cfg: CouplingConfig = DEFAULT_COUPLINGS
) -> None:
    """Classical drive on the g-e transition; |i> is a spectator."""
    _drive_kernel(amps, squid, cfg.omega_ge * np.asarray(durations, dtype=np.float64), LEVEL_G)


def drive_ie_kernel(
    amps: np.ndarray, squid: int, durations: np.ndarray, cfg: CouplingConfig = DEFAULT_COUPLINGS
) -> None:
    """Classical drive on the i-e transition; |g> is a spectator."""
    _drive_kernel(amps, squid, cfg.omega_ie * np.asarray(durations, dtype=np.float64), LEVEL_I)


def raman_kernel(
    amps: np.ndarray,
    squid: int,
    durations: np.ndarray,
    phi1: float,
    phi2: float,
    cfg: CouplingConfig = DEFAULT_COUPLINGS,
) -> None:
    """Effective two-pulse rotation between |g> and |i> (module docstring map).

    e amplitudes are left untouched; callers that need the map to be
    valid run ``check_two_pulse_domain`` first.
    """
    dphi = phi1 - phi2
    g_view = _level(amps, squid, LEVEL_G)
    i_view = _level(amps, squid, LEVEL_I)
    t = _per_row(durations, g_view.ndim)
    c = np.cos(cfg.lambda_prime * t)
    s = np.sin(cfg.lambda_prime * t)
    free = np.exp(-1j * cfg.omega_gi * t)
    g_old = g_view.copy()
    g_view[...] = c * g_old + 1j * cmath.exp(1j * dphi) * s * i_view
    i_view[...] = free * (1j * cmath.exp(-1j * dphi) * s * g_old + c * i_view)


def free_evolution_kernel(
    amps: np.ndarray, squid: int, durations: np.ndarray, cfg: CouplingConfig = DEFAULT_COUPLINGS
) -> None:
    """Free phase accumulation: |i> -> exp(-i omega_gi t)|i>, |g> and |e> fixed."""
    i_view = _level(amps, squid, LEVEL_I)
    i_view[...] = np.exp(-1j * cfg.omega_gi * _per_row(durations, i_view.ndim)) * i_view


def pulse_kernel(
    amps: np.ndarray, op: PulseOp, durations: np.ndarray, cfg: CouplingConfig = DEFAULT_COUPLINGS
) -> None:
    """Apply ``op`` to every row of ``amps`` in place, row b lasting ``durations[b]``.

    ``op.duration`` is ignored; the per-row durations replace it.
    """
    if op.variant is PulseVariant.JC:
        jc_kernel(amps, op.squid, durations, cfg)
    elif op.variant is PulseVariant.DRIVE_GE:
        drive_ge_kernel(amps, op.squid, durations, cfg)
    elif op.variant is PulseVariant.DRIVE_IE:
        drive_ie_kernel(amps, op.squid, durations, cfg)
    elif op.variant is PulseVariant.RAMAN:
        raman_kernel(amps, op.squid, durations, op.phi1, op.phi2, cfg)
    elif op.variant is PulseVariant.FREE_EVOLVE:
        free_evolution_kernel(amps, op.squid, durations, cfg)
    else:
        raise ValueError(f"unknown pulse variant {op.variant!r}")


def check_two_pulse_domain(
    amps: np.ndarray, squid: int, e_tol: float = E_LEAK_TOL, first_sample: int = 0
) -> None:
    """Raise ``LeakageError`` naming the first row whose ``squid`` holds e population >= e_tol.

    The two-pulse map eliminated the e level, so it is valid only where
    that population is negligible.  Rows are numbered from ``first_sample``.
    """
    if e_tol == math.inf:
        return
    pops = level_populations(amps, squid, LEVEL_E)
    bad = pops >= e_tol
    if bad.any():
        k = int(np.argmax(bad))
        raise LeakageError(
            f"sample {first_sample + k}: squid{squid} e-level population {float(pops[k])} "
            f"exceeds {e_tol}; two-pulse map undefined outside the g-i subspace"
        )


def apply_pulse_op(
    state: PureState,
    op: PulseOp,
    cfg: CouplingConfig = DEFAULT_COUPLINGS,
    e_tol: float = E_LEAK_TOL,
) -> PureState:
    """``pulse_kernel`` on one state as a batch of one.

    A ``RAMAN`` op is guarded by ``check_two_pulse_domain``; pass
    ``e_tol=math.inf`` to skip the guard (the e amplitudes are then
    simply left untouched).
    """
    _check_squid(state.spec, op.squid)
    amps = state.tensor()[None].copy()
    if op.variant is PulseVariant.RAMAN:
        check_two_pulse_domain(amps, op.squid, e_tol)
    pulse_kernel(amps, op, np.array([op.duration], dtype=np.float64), cfg)
    return PureState(amps.reshape(-1), state.spec)


def apply_jc(
    state: PureState, squid: int, duration: float, cfg: CouplingConfig = DEFAULT_COUPLINGS
) -> PureState:
    """``jc_kernel`` on one state."""
    return apply_pulse_op(state, PulseOp(PulseVariant.JC, squid, duration), cfg)


def apply_drive_ge(
    state: PureState, squid: int, duration: float, cfg: CouplingConfig = DEFAULT_COUPLINGS
) -> PureState:
    """``drive_ge_kernel`` on one state."""
    return apply_pulse_op(state, PulseOp(PulseVariant.DRIVE_GE, squid, duration), cfg)


def apply_drive_ie(
    state: PureState, squid: int, duration: float, cfg: CouplingConfig = DEFAULT_COUPLINGS
) -> PureState:
    """``drive_ie_kernel`` on one state."""
    return apply_pulse_op(state, PulseOp(PulseVariant.DRIVE_IE, squid, duration), cfg)


def apply_raman(
    state: PureState,
    squid: int,
    duration: float,
    phi1: float,
    phi2: float,
    cfg: CouplingConfig = DEFAULT_COUPLINGS,
    e_tol: float = E_LEAK_TOL,
) -> PureState:
    """``raman_kernel`` on one state, guarded as ``apply_pulse_op`` guards it."""
    op = PulseOp(PulseVariant.RAMAN, squid, duration, phi1, phi2)
    return apply_pulse_op(state, op, cfg, e_tol)


def apply_free_evolution(
    state: PureState, squid: int, duration: float, cfg: CouplingConfig = DEFAULT_COUPLINGS
) -> PureState:
    """``free_evolution_kernel`` on one state."""
    return apply_pulse_op(state, PulseOp(PulseVariant.FREE_EVOLVE, squid, duration), cfg)


def _lift(
    spec: BasisSpec, squid: int, mat: np.ndarray, cavity: np.ndarray | None = None
) -> np.ndarray:
    """Kronecker product of ``mat`` on ``squid`` with identities on the other factors.

    ``cavity``, when given, replaces the identity on the cavity factor.
    """
    before = np.eye(NUM_LEVELS ** (squid - 1))
    between = np.eye(NUM_LEVELS ** (spec.num_squids - squid))
    if cavity is None:
        cavity = np.eye(spec.fock_cutoff + 1)
    return np.kron(np.kron(np.kron(before, mat), between), cavity)


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


def evolve_diagonalized(
    state: PureState, eigen: tuple[np.ndarray, np.ndarray], duration: float
) -> PureState:
    """Apply exp(-i * H * duration) given H's ``diagonalize_generator`` output."""
    evals, evecs = eigen
    _check_generator_shape(evecs.shape, state.spec.dimension)
    phases = np.exp(-1j * evals * duration)
    amps = evecs @ (phases * (evecs.conj().T @ state.amplitudes))
    return PureState(amps, state.spec)


def evolve_exact(state: PureState, generator: np.ndarray, duration: float) -> PureState:
    """Apply exp(-i * generator * duration) via Hermitian eigendecomposition."""
    _check_generator_shape(np.shape(generator), state.spec.dimension)
    return evolve_diagonalized(state, diagonalize_generator(generator), duration)
