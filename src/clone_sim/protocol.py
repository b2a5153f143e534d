"""The ten-step cloning schedule and its building blocks.

A run starts from |g, g, g> with an empty cavity, writes the input qubit
onto SQUID 1 in the (g, i) basis, and then walks a fixed schedule of
pulse slots.  Slots hold one or more tracks; a track is a back-to-back
sequence of primitive pulses on a single target, and tracks within a
slot address pairwise distinct SQUIDs so they commute.  Snapshots are
recorded after the last slot of each named step, giving a trace with
labels "input", "step1", ..., "step10".

Step roles, in schedule order:

  step1   g-e drive puts SQUID 2 into sqrt(2/3)|g> + i sqrt(1/3)|e>
  step2   quarter-period exchange loads that excitation into the cavity
  step3   full-period exchange: cavity-photon-controlled flip of SQUID 1
  step4   eighth-period exchange splits SQUID 2 against the cavity
  step5   quarter-period exchange moves the photon share onto SQUID 3
  step6   i-e drives park the e amplitudes of SQUIDs 2, 3 in |i>
  step7   two-pulse rotations on all three SQUIDs (plus/minus basis maps)
  step8   i-e drive lifts SQUID 1's |i> into |e>
  step9   quarter-period exchange emits SQUID 1's share into the cavity
  step10  two controlled flips copy the cavity bit onto SQUIDs 2 and 3

A schedule is data: a slot's duration is its longest track, and a
timing perturbation is one factor per slot, 1 + f*u with u ~ U(-1, 1)
(``draw_slot_factors``).  One seed has one jitter stream,
``jitter_rng(seed)``, and sample k reads its n_slots factors from draws
k*n_slots ... (k+1)*n_slots - 1 of it.  ``perturbed_schedule`` applies
one sample's factors to a ``Schedule``; a batch carries them as a
(B, n_slots) array drawn in one call.

Every schedule runs on the batched kernels of ``dynamics``: ``clone_batch``
clones B inputs at once in an array of shape (3, 3, 3, fock_cutoff + 1, B),
batch axis last, pulse j of slot k in row b lasting its nominal duration
times ``slot_factors[b, k]``, and returns the rows batch axis first;
``run_uqcm``/``execute_schedule`` run one state as a batch of one, with
all-ones factors.  Both apply the schedule through one walk, ``_walk``,
which checks every row before and after each pulse, so a row's result
and its checks do not depend on the batch it ran in.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .dynamics import (
    DEFAULT_COUPLINGS,
    E_LEAK_TOL,
    CouplingConfig,
    PulseOp,
    PulseVariant,
    _level,
    apply_free_evolution,
    apply_jc,
    apply_pulse_op,
    apply_raman,
    check_two_pulse_domain,
    level_populations,
    pulse_kernel,
)
from .errors import LeakageError, PhysicsError, PreconditionError
from .hilbert import (
    LEVEL_E,
    LEVEL_G,
    LEVEL_I,
    BasisSpec,
    PureState,
    _check_squid,
    check_row_norms,
)

PROCESS_ONE_PHASE = 3.0 * math.pi / 2.0
PROCESS_TWO_PHASE = math.pi / 2.0
STEP_LABELS = ("step1", "step2", "step3", "step4", "step5",
               "step6", "step7", "step8", "step9", "step10")
_JITTER_STREAM = 17  # tag separating jitter draws from input sampling


@dataclass(frozen=True)
class InputQubit:
    """Input qubit alpha|+> + beta|-> in the plus/minus basis of one SQUID."""

    alpha: complex
    beta: complex

    def __post_init__(self) -> None:
        total = abs(self.alpha) ** 2 + abs(self.beta) ** 2
        if not abs(total - 1.0) < 1e-12:  # also rejects NaN and infinite amplitudes
            raise ValueError(f"|alpha|^2 + |beta|^2 = {total}, must be 1")

    @classmethod
    def from_bloch(cls, theta: float, phi: float) -> "InputQubit":
        alpha, beta = bloch_amplitudes(np.array([theta]), np.array([phi]))
        return cls(complex(alpha[0]), complex(beta[0]))

    def gi_vector(self) -> np.ndarray:
        """(g, i) amplitudes of the same state: |+-> = (|i> +- |g>)/sqrt(2)."""
        return gi_amplitudes(np.array([self.alpha]), np.array([self.beta]))[0]


def bloch_amplitudes(thetas: np.ndarray, phis: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(alpha, beta) arrays of the inputs cos(theta/2)|+> + exp(i phi) sin(theta/2)|->."""
    thetas = np.asarray(thetas, dtype=np.float64)
    alpha = np.cos(thetas / 2.0).astype(np.complex128)
    beta = np.exp(1j * np.asarray(phis, dtype=np.float64)) * np.sin(thetas / 2.0)
    return alpha, beta


def gi_amplitudes(alpha: np.ndarray, beta: np.ndarray) -> np.ndarray:
    """(B, 2) array of the (g, i) amplitudes of inputs alpha|+> + beta|->."""
    alpha = np.asarray(alpha, dtype=np.complex128)
    beta = np.asarray(beta, dtype=np.complex128)
    pairs = np.stack([alpha - beta, alpha + beta], axis=1)
    # Divide real and imaginary parts on their own, as Python's complex
    # division by a real does; numpy's would multiply by the reciprocal.
    return (pairs.view(np.float64) / math.sqrt(2.0)).view(np.complex128)


@dataclass(frozen=True)
class Slot:
    """One schedule slot: parallel tracks of pulses on disjoint SQUIDs."""

    step: str
    description: str
    tracks: tuple[tuple[PulseOp, ...], ...]

    def __post_init__(self) -> None:
        if not self.tracks or any(not track for track in self.tracks):
            raise ValueError("each slot needs at least one non-empty track")
        targets = []
        jc_count = 0
        for track in self.tracks:
            squids = {op.squid for op in track}
            if len(squids) != 1:
                raise ValueError(f"track mixes targets {sorted(squids)}")
            targets.append(squids.pop())
            jc_count += sum(op.variant is PulseVariant.JC for op in track)
        if len(set(targets)) != len(targets):
            raise ValueError(f"slot tracks must target distinct SQUIDs, got {targets}")
        if jc_count > 1:
            raise ValueError("at most one cavity-exchange pulse per slot")

    @property
    def duration(self) -> float:
        """Length of the longest track."""
        return max(sum(op.duration for op in track) for track in self.tracks)

    def to_dict(self) -> dict:
        return {
            "step": self.step,
            "description": self.description,
            "duration": self.duration,
            "tracks": [[op.to_dict() for op in track] for track in self.tracks],
        }


@dataclass(frozen=True)
class Schedule:
    """Ordered slot sequence; an empty schedule is legal and does nothing."""

    slots: tuple[Slot, ...]

    @property
    def total_duration(self) -> float:
        return float(sum(slot.duration for slot in self.slots))

    def to_dict(self) -> dict:
        return {"slots": [slot.to_dict() for slot in self.slots]}


def draw_slot_factors(
    fraction: float, shape: int | tuple[int, int], rng: np.random.Generator
) -> np.ndarray:
    """Duration factors 1 + fraction*u, u ~ U(-1, 1), of ``shape`` n_slots or (rows, n_slots).

    Each factor takes one draw of ``rng`` in row-major order, so row k of a
    (rows, n_slots) draw reads draws k*n_slots ... (k+1)*n_slots - 1, and a
    draw split into consecutive chunks gives the same rows bit for bit.
    """
    return 1.0 + fraction * rng.uniform(-1.0, 1.0, shape)


def jitter_rng(seed: int) -> np.random.Generator:
    """The jitter stream of ``seed``, separate from its input sampling stream."""
    return np.random.default_rng([seed, _JITTER_STREAM])


def perturbed_schedule(base: Schedule, fraction: float, rng: np.random.Generator) -> Schedule:
    """``base`` with every pulse of slot k lasting its duration times factor k.

    The factors are one ``draw_slot_factors`` draw from ``rng``.
    """
    factors = draw_slot_factors(fraction, len(base.slots), rng).tolist()
    slots = []
    for slot, factor in zip(base.slots, factors):
        tracks = tuple(
            tuple(PulseOp(op.variant, op.squid, op.duration * factor, op.phi1, op.phi2)
                  for op in track)
            for track in slot.tracks
        )
        slots.append(Slot(slot.step, slot.description, tracks))
    return Schedule(tuple(slots))


@dataclass(frozen=True)
class TraceEntry:
    label: str
    t_elapsed: float
    state: PureState

    def to_dict(self) -> dict:
        return {"label": self.label, "t_elapsed": self.t_elapsed, "state": self.state.to_dict()}


@dataclass(frozen=True)
class StepTrace:
    entries: tuple[TraceEntry, ...]

    def labels(self) -> tuple[str, ...]:
        return tuple(entry.label for entry in self.entries)

    def entry(self, label: str) -> TraceEntry:
        for item in self.entries:
            if item.label == label:
                return item
        raise ValueError(f"trace has no entry labelled {label!r}")

    def to_dict(self) -> list[dict]:
        return [entry.to_dict() for entry in self.entries]


def _require_rows_in_g(amps: np.ndarray, squid: int, first_sample: int = 0) -> None:
    pops = level_populations(amps, squid, LEVEL_G)
    bad = np.flatnonzero(~(np.abs(pops - 1.0) <= 1e-10))
    if bad.size:
        k = int(bad[0])
        raise PreconditionError(f"sample {first_sample + k}: squid{squid} must start in |g> "
                                f"(population {float(pops[k])})")


def _inject_rows(amps: np.ndarray, squid: int, gi: np.ndarray) -> None:
    """Move each row's |g> amplitudes of ``squid`` onto the (g, i) pair in ``gi`` (B, 2)."""
    g_view, i_view = _level(amps, squid, LEVEL_G), _level(amps, squid, LEVEL_I)
    g_old = g_view.copy()
    g_view[...] = gi[:, 0] * g_old
    i_view[...] = gi[:, 1] * g_old


def prepare_input(
    state: PureState,
    squid: int,
    q: InputQubit,
    cfg: CouplingConfig = DEFAULT_COUPLINGS,
    mode: str = "ideal",
) -> PureState:
    """Write the input qubit onto a SQUID currently resting in |g>.

    "ideal" injects the (g, i) amplitudes directly.  "pulsed" realizes
    the same state with one two-pulse rotation plus free evolution to
    the next phase closure; the result then matches the ideal state up
    to a global phase.
    """
    _check_squid(state.spec, squid)
    _require_rows_in_g(state.tensor()[..., None], squid)
    target = q.gi_vector()
    if mode == "ideal":
        amps = state.tensor()[..., None].copy()
        _inject_rows(amps, squid, target[None])
        return PureState(amps.reshape(-1), state.spec)
    if mode == "pulsed":
        a_g, a_i = complex(target[0]), complex(target[1])
        ref = cmath.phase(a_g) if abs(a_g) > 0.0 else 0.0
        b_i = a_i * cmath.exp(-1j * ref)
        t_pulse = math.acos(min(1.0, abs(a_g))) / cfg.lambda_prime
        if abs(a_i) > 0.0:
            dphi = -cmath.phase(b_i / (1j * abs(a_i)))
        else:
            dphi = 0.0
        state = apply_raman(state, squid, t_pulse, dphi, 0.0, cfg)
        return apply_free_evolution(state, squid, _phase_closure_idle(t_pulse, cfg), cfg)
    raise ValueError(f"unknown preparation mode {mode!r}")


def _step1_op(cfg: CouplingConfig) -> PulseOp:
    """The g-e drive taking SQUID 2 from |g> to sqrt(2/3)|g> + i sqrt(1/3)|e>.

    The pulse angle 2 pi - arcsin(sqrt(1/3)) leaves cos at +sqrt(2/3)
    while -i sin comes out at +i sqrt(1/3), which is the sign the rest
    of the schedule relies on.
    """
    angle = 2.0 * math.pi - math.asin(math.sqrt(1.0 / 3.0))
    return PulseOp(PulseVariant.DRIVE_GE, 2, angle / cfg.omega_ge)


def cnot_cavity_control(
    state: PureState,
    squid: int,
    cfg: CouplingConfig = DEFAULT_COUPLINGS,
    leak_tol: float = E_LEAK_TOL,
) -> PureState:
    """Full-period cavity exchange: flips |+> <-> |-> of the target iff one photon.

    Defined on cavity support {0, 1} and target support {g, i}; the
    photon-2 sector would rotate by an irrational angle and the e level
    would dump population into the cavity, so either kind of occupation
    raises ``LeakageError``.
    """
    tail = state.photon_tail_population(2)
    if tail > leak_tol:
        raise LeakageError(f"photon population {tail} above one-photon subspace")
    e_pop = state.level_population(squid, LEVEL_E)
    if e_pop > leak_tol:
        raise LeakageError(f"squid{squid} e-level population {e_pop} breaks the controlled flip")
    return apply_jc(state, squid, math.pi / cfg.lam, cfg)


def _phase_closure_idle(t_pulse: float, cfg: CouplingConfig) -> float:
    """Idle time after a pulse of ``t_pulse``, so the |i> phase closes.

    Pulse plus idle span the first whole number of 2 pi / omega_gi phase
    periods at or after the pulse end.
    """
    periods = math.ceil(cfg.omega_gi * t_pulse / (2.0 * math.pi))
    return 2.0 * math.pi * periods / cfg.omega_gi - t_pulse


def process_times(cfg: CouplingConfig = DEFAULT_COUPLINGS) -> tuple[float, float]:
    """(pulse time, idle time) of the basis-rotation processes.

    The pulse lasts 3 pi / (4 lambda_prime), followed by the phase-closure idle.
    """
    t_pulse = 3.0 * math.pi / (4.0 * cfg.lambda_prime)
    return t_pulse, _phase_closure_idle(t_pulse, cfg)


def _process_track(squid: int, dphi: float, cfg: CouplingConfig) -> tuple[PulseOp, ...]:
    t_pulse, t_idle = process_times(cfg)
    return (
        PulseOp(PulseVariant.RAMAN, squid, t_pulse, phi1=dphi, phi2=0.0),
        PulseOp(PulseVariant.FREE_EVOLVE, squid, t_idle),
    )


def _run_process(
    state: PureState, squid: int, dphi: float, cfg: CouplingConfig, e_tol: float
) -> tuple[PureState, float]:
    elapsed = 0.0
    for op in _process_track(squid, dphi, cfg):
        state = apply_pulse_op(state, op, cfg, e_tol=e_tol)
        elapsed += op.duration
    return state, elapsed


def process_one(
    state: PureState,
    squid: int,
    cfg: CouplingConfig = DEFAULT_COUPLINGS,
    e_tol: float = E_LEAK_TOL,
) -> tuple[PureState, float]:
    """Basis rotation |+> -> -|i>, |-> -> |g> (drive phase difference 3 pi / 2)."""
    return _run_process(state, squid, PROCESS_ONE_PHASE, cfg, e_tol)


def process_two(
    state: PureState,
    squid: int,
    cfg: CouplingConfig = DEFAULT_COUPLINGS,
    e_tol: float = E_LEAK_TOL,
) -> tuple[PureState, float]:
    """Basis rotation |g> -> |->, |i> -> -|+> (drive phase difference pi / 2)."""
    return _run_process(state, squid, PROCESS_TWO_PHASE, cfg, e_tol)


@functools.lru_cache(maxsize=8)
def build_uqcm_schedule(cfg: CouplingConfig = DEFAULT_COUPLINGS) -> Schedule:
    """The eleven-slot cloning schedule for a three-SQUID register.

    One slot per step, except step10 whose two controlled flips share
    the cavity and therefore run in consecutive slots (their order does
    not matter for the final state).
    """
    quarter = math.pi / (2.0 * cfg.lam)
    eighth = math.pi / (4.0 * cfg.lam)
    full = math.pi / cfg.lam
    ie_quarter = math.pi / (2.0 * cfg.omega_ie)

    def jc(squid: int, duration: float) -> tuple[tuple[PulseOp, ...], ...]:
        return ((PulseOp(PulseVariant.JC, squid, duration),),)

    def ie(squid: int) -> tuple[PulseOp, ...]:
        return (PulseOp(PulseVariant.DRIVE_IE, squid, ie_quarter),)

    slots = (
        Slot("step1", "drive squid2 toward e", ((_step1_op(cfg),),)),
        Slot("step2", "load squid2 excitation into the cavity", jc(2, quarter)),
        Slot("step3", "photon-controlled flip of squid1", jc(1, full)),
        Slot("step4", "split squid2 against the cavity", jc(2, eighth)),
        Slot("step5", "move the photon share onto squid3", jc(3, quarter)),
        Slot("step6", "park e amplitudes of squid2, squid3 in i", (ie(2), ie(3))),
        Slot(
            "step7",
            "basis rotations: squid1 plus/minus readout, squid2, squid3 encode",
            (
                _process_track(1, PROCESS_ONE_PHASE, cfg),
                _process_track(2, PROCESS_TWO_PHASE, cfg),
                _process_track(3, PROCESS_TWO_PHASE, cfg),
            ),
        ),
        Slot("step8", "lift squid1 i into e", (ie(1),)),
        Slot("step9", "emit squid1 excitation into the cavity", jc(1, quarter)),
        Slot("step10", "copy the cavity bit onto squid2", jc(2, full)),
        Slot("step10", "copy the cavity bit onto squid3", jc(3, full)),
    )
    return Schedule(slots)


def _walk(
    amps: np.ndarray,
    schedule: Schedule,
    factors: np.ndarray,
    cfg: CouplingConfig,
    enforce_preconditions: bool,
    first_sample: int = 0,
    on_pulse: Callable[[str, PulseOp], None] | None = None,
    on_step: Callable[[str, float], None] | None = None,
) -> None:
    """Apply ``schedule`` in place to the batch-last rows ``amps``.

    Each pulse of slot k in row b lasts its nominal duration times
    ``factors[b, k]``.  Every pulse runs the two-pulse leakage guard
    (Raman only, skipped with ``enforce_preconditions`` off), the kernel
    and the row-norm check; a tripped check raises its ``PhysicsError``
    type, prefixed with the step label and naming the row as sample
    ``first_sample + row``.  ``on_pulse(step, op)`` runs after every
    pulse, ``on_step(step, elapsed)`` after the last slot of each step,
    with the nominal schedule time so far.
    """
    e_tol = E_LEAK_TOL if enforce_preconditions else math.inf
    slots = schedule.slots
    elapsed = 0.0
    for k, slot in enumerate(slots):
        for track in slot.tracks:
            for op in track:
                try:
                    if op.variant is PulseVariant.RAMAN:
                        check_two_pulse_domain(amps, op.squid, e_tol, first_sample)
                    pulse_kernel(amps, op, op.duration * factors[:, k], cfg)
                    check_row_norms(amps, first_sample)
                except PhysicsError as exc:
                    raise type(exc)(f"{slot.step}: {exc}") from exc
                if on_pulse is not None:
                    on_pulse(slot.step, op)
        if on_step is not None:
            elapsed += slot.duration
            if k + 1 == len(slots) or slots[k + 1].step != slot.step:
                on_step(slot.step, elapsed)


def execute_schedule(
    state: PureState,
    schedule: Schedule,
    cfg: CouplingConfig = DEFAULT_COUPLINGS,
    observer: Callable[[str, PulseOp, PureState], None] | None = None,
    enforce_preconditions: bool = True,
) -> tuple[PureState, StepTrace]:
    """Run the slots in order, snapshotting after the last slot of each step.

    ``observer`` is called after every primitive pulse.  With
    ``enforce_preconditions`` off, the two-pulse leakage guard is
    skipped, which perturbed (timing-jittered) schedules need.  The
    state runs through the batched kernels as a batch of one.
    """
    spec = state.spec
    amps = state.tensor()[..., None].copy()
    entries: list[TraceEntry] = []

    def observe(step: str, op: PulseOp) -> None:
        observer(step, op, PureState(amps.reshape(-1), spec))

    def snapshot(step: str, elapsed: float) -> None:
        entries.append(TraceEntry(step, elapsed, PureState(amps.reshape(-1), spec)))

    _walk(amps, schedule, np.ones((1, len(schedule.slots))), cfg, enforce_preconditions,
          on_pulse=None if observer is None else observe, on_step=snapshot)
    final = entries[-1].state if entries else state
    return final, StepTrace(tuple(entries))


def run_uqcm(
    q: InputQubit,
    cfg: CouplingConfig = DEFAULT_COUPLINGS,
    fock_cutoff: int = 2,
    schedule: Schedule | None = None,
    enforce_preconditions: bool = True,
) -> tuple[PureState, StepTrace]:
    """Clone ``q``: prepare SQUID 1, run the schedule, return (final, trace).

    The trace starts with the prepared state under the label "input"
    followed by one snapshot per step.  The default cutoff of two
    photons is one more than the protocol ever uses, so any truncation
    artifact would show up as photon-2 population instead of being
    silently projected away.
    """
    spec = BasisSpec(num_squids=3, fock_cutoff=fock_cutoff)
    state = PureState.basis_state(spec, (LEVEL_G, LEVEL_G, LEVEL_G), 0)
    state = prepare_input(state, 1, q, cfg)
    if schedule is None:
        schedule = build_uqcm_schedule(cfg)
    final, trace = execute_schedule(state, schedule, cfg,
                                    enforce_preconditions=enforce_preconditions)
    entries = (TraceEntry("input", 0.0, state),) + trace.entries
    return final, StepTrace(entries)


def clone_batch(
    alpha: np.ndarray,
    beta: np.ndarray,
    cfg: CouplingConfig = DEFAULT_COUPLINGS,
    fock_cutoff: int = 2,
    slot_factors: np.ndarray | None = None,
    enforce_preconditions: bool = True,
    first_sample: int = 0,
) -> np.ndarray:
    """Clone B inputs alpha[b]|+> + beta[b]|-> at once; return the final amplitudes.

    The result has shape (B, 3, 3, 3, fock_cutoff + 1); the rows run
    batch axis last and come back through one transpose.  Every row runs
    the cloning schedule; ``slot_factors``, an array of shape
    (B, n_slots), scales each pulse of slot k in row b by
    ``slot_factors[b, k]`` (default: all ones).  Each row is prepared in
    the ideal mode and checked exactly as ``run_uqcm`` checks a single
    run; errors name the row as sample ``first_sample + b``.
    """
    alpha = np.asarray(alpha, dtype=np.complex128)
    beta = np.asarray(beta, dtype=np.complex128)
    if alpha.ndim != 1 or alpha.shape != beta.shape:
        raise ValueError(f"alpha and beta must be equal-length 1-D arrays, "
                         f"got {alpha.shape} and {beta.shape}")
    if not alpha.size:
        raise ValueError("the batch is empty: alpha and beta need at least one row")
    total = np.abs(alpha) ** 2 + np.abs(beta) ** 2
    bad = np.flatnonzero(~(np.abs(total - 1.0) < 1e-12))
    if bad.size:
        raise ValueError(f"sample {first_sample + int(bad[0])}: |alpha|^2 + |beta|^2 = "
                         f"{float(total[bad[0]])}, must be 1")
    spec = BasisSpec(num_squids=3, fock_cutoff=fock_cutoff)
    rows = len(alpha)
    schedule = build_uqcm_schedule(cfg)
    shape = (rows, len(schedule.slots))
    if slot_factors is None:
        factors = np.ones(shape)
    else:
        factors = np.asarray(slot_factors, dtype=np.float64)
        if factors.shape != shape:
            raise ValueError(f"slot_factors has shape {factors.shape}, expected {shape}")
        bad = np.flatnonzero(~np.all((0.0 <= factors) & (factors < math.inf), axis=1))
        if bad.size:
            k = int(bad[0])
            raise ValueError(f"sample {first_sample + k}: slot factors must be finite "
                             f"and >= 0, got {factors[k].tolist()}")
    amps = np.zeros(spec.factor_dims + (rows,), dtype=np.complex128)
    amps[LEVEL_G, LEVEL_G, LEVEL_G, 0] = 1.0
    _require_rows_in_g(amps, 1, first_sample)
    _inject_rows(amps, 1, gi_amplitudes(alpha, beta))
    _walk(amps, schedule, factors, cfg, enforce_preconditions, first_sample)
    return np.ascontiguousarray(np.moveaxis(amps, -1, 0))
