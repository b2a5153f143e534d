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
  step7   two-pulse rotations: process one on SQUID 1, process two on SQUIDs 2, 3
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

Every schedule runs on the batched kernels of ``dynamics``, over (N, B)
rows, batch axis last, that hold a listed basis (``hilbert.BasisList``):
``clone_rows`` clones B inputs at once, pulse j of slot k in row b lasting
its nominal duration times ``slot_factors[b, k]``; ``clone_batch`` returns
those rows scattered into the register, batch axis first; ``run_uqcm`` and
``clone_trace`` run one input as a batch of one, every pulse at the
schedule's own duration, and ``execute_schedule`` runs any start state
that way over the whole register at its own cutoff.  All of them apply
the schedule through one walk, ``_walk``, which runs every pulse through
``dynamics.run_pulse``, the two-pulse guard, kernel and row-norm check
that every pulse application shares, so a row's result and its checks do
not depend on the batch it ran in.  The walk reads a pulse program, which
``_compile`` builds from a schedule, a coupling config and a start
register: the basis list its rows hold and the pulses in walk order with
their slot index, their coefficients at nominal duration and the row
lists they read, grouped into one run per stretch of consecutive slots of
one step, each with the nominal time at its end.  The cloning schedule's
program is compiled once per coupling config and requested cutoff
(``_uqcm_program``); any other schedule, a perturbed cloning schedule
included, is compiled per call.  A walk with slot factors builds each pulse's coefficients per
call, with the same arithmetic.

A clone walks on the states it can reach.  The cavity exchange conserves
#e + n and the other pulses leave n alone, and each pulse only mixes a
basis state with its partners, so from SQUID 1's (g, i) injection a
schedule can only reach so many states: ``_photon_reach`` walks the basis
states each pulse couples, as ``dynamics.COUPLED_LEVELS`` names them, the
one table the kernel mixes by, reading only the pulses' (variant, SQUID)
in walk order, and finds 45 of the 81 states for the cloning schedule,
whatever its durations, with at most 2 photons.  Every other amplitude is
an exact zero, so a clone's program lists those states at
m = min(fock_cutoff, 2) photons, each pulse reads the pairs of them it
mixes, less the pairs not yet reached, and every guard and norm check on
the listed rows gives the verdict it would give on the whole register.
Cutoff 2 is therefore exact and any larger cutoff gives the same
amplitudes padded with zeros (a zero amplitude may differ in sign only);
cutoff 1 truncates the photon-2 population that timing errors put into
the cavity.  No clone's walk, nor its scoring (``verify.score_rows`` on
the list), costs more at a larger cutoff.  A trace entry keeps a
read-only copy of its listed amplitudes and scatters them into its
``PureState`` only when read; the rows it copies have passed the norm
check.

A nominal clone need not be walked to be scored.  A clone is linear in
the (g, i) pair x it injects, so its final state is Psi x, Psi the walk of
the two basis injections (Buzek & Hillery, PRA 54, 1844 (1996), for the
cloning map's linearity).  A clone program walks that pair once, on
first read of ``_Program.basis``, with every guard and norm check, and
keeps Psi's final snapshot, its (N, 2) rows over the program's basis
list, with a certificate over all inputs: the 2 x 2 Grams of Psi after
each pulse and of its e-level rows before each Raman pulse bound every
row's norm and guarded e population (``_BasisWalk``).  The walk also
keeps the final snapshot's score blocks, each copy's reduced matrix and
the population outside the computational levels as forms in x, gathered
from Psi by the basis list's ``score_blocks``, as ``verify.score_rows``
gathers a walked row's; ``verify.score_nominal`` reads them for any batch
``certified_basis`` clears, checking only its least and largest |x|^2.
Every clone that is built, nominal or jittered, is walked: ``run_uqcm``'s
trace, ``clone_batch`` and every sweep chunk the certificate does not
clear.

``_walk`` is the only code here that applies a pulse.  The single-state
operations are pulse data too: ``process_one``, ``process_two``,
``cnot_cavity_control`` and ``prepare_input(mode="pulsed")`` each walk
their track as a one-slot schedule labelled "process_one", "process_two",
"cnot" or "input", so their errors carry that label.  A two-pulse
rotation followed by the idle that closes the |i> phase is built in one
place, ``_raman_track``, for the processes, step 7 and the pulsed
preparation alike.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .dynamics import (
    COUPLED_LEVELS,
    DEFAULT_COUPLINGS,
    CouplingConfig,
    PulseOp,
    PulseRows,
    PulseVariant,
    map_norm_bound,
    pulse_coefficients,
    pulse_rows,
    run_pulse,
)
from .errors import LeakageError, PhysicsError, PreconditionError
from .hilbert import (
    E_LEAK_TOL,
    LEVEL_E,
    LEVEL_G,
    LEVEL_I,
    NORM_TOL,
    BasisList,
    BasisSpec,
    PureState,
    _EPS,
    _check_squid,
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
    """One slot of ``step``: parallel tracks of pulses on disjoint SQUIDs.

    The module docstring's "Step roles" table says what each step does.
    """

    step: str
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


@dataclass(frozen=True)
class Schedule:
    """Ordered slot sequence; an empty schedule is legal and does nothing."""

    slots: tuple[Slot, ...]


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
        slots.append(Slot(slot.step, tracks))
    return Schedule(tuple(slots))


@dataclass(frozen=True, eq=False)
class TraceEntry:
    """One snapshot of a walk: a read-only copy of its amplitudes over the basis it walked.

    ``amplitudes[k]`` is the amplitude of ``basis.index[k]``, a state of a
    register at most ``spec.fock_cutoff`` photons deep; every state the
    basis leaves out has amplitude zero.  ``state`` scatters the amplitudes
    into +0 at ``spec`` on first read and keeps that ``PureState``.
    """

    label: str
    t_elapsed: float
    amplitudes: np.ndarray
    basis: BasisList
    spec: BasisSpec

    @functools.cached_property
    def state(self) -> PureState:
        return PureState(self.basis.dense(self.amplitudes[None], self.spec.fock_cutoff).reshape(-1),
                         self.spec)

    def to_dict(self) -> dict:
        return {"label": self.label, "t_elapsed": self.t_elapsed, "state": self.state.to_dict()}


@dataclass(frozen=True)
class StepTrace:
    entries: tuple[TraceEntry, ...]

    def entry(self, label: str) -> TraceEntry:
        for item in self.entries:
            if item.label == label:
                return item
        raise ValueError(f"trace has no entry labelled {label!r}")

    def to_dict(self) -> list[dict]:
        return [entry.to_dict() for entry in self.entries]


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
    to a global phase.  The SQUID's |g> population, as
    ``PureState.level_population`` sums it, must lie within E_LEAK_TOL of 1,
    or ``PreconditionError`` is raised.  The ideal injection overwrites the
    SQUID's |i> amplitudes, which can shorten the norm by up to their
    population, so it also raises ``PreconditionError`` for an |i>
    population of NORM_TOL or more.
    """
    population = state.level_population(squid, LEVEL_G)
    if not abs(population - 1.0) <= E_LEAK_TOL:
        raise PreconditionError(f"squid{squid} must start in |g> (population {population})")
    target = q.gi_vector()
    if mode == "ideal":
        population = state.level_population(squid, LEVEL_I)
        if not population < NORM_TOL:
            raise PreconditionError(f"squid{squid} holds |i> population {population}, which "
                                    f"the ideal injection would overwrite")
        amps = state.tensor().copy()
        at = (slice(None),) * (squid - 1)
        g = amps[at + (LEVEL_G,)].copy()
        amps[at + (LEVEL_G,)] = target[0] * g
        amps[at + (LEVEL_I,)] = target[1] * g
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
        return _run_track(state, "input", _raman_track(squid, t_pulse, dphi, cfg), cfg)[0]
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
    state: PureState, squid: int, cfg: CouplingConfig = DEFAULT_COUPLINGS
) -> PureState:
    """Full-period cavity exchange: flips |+> <-> |-> of the target iff one photon.

    Defined on cavity support {0, 1} and target support {g, i}; the
    photon-2 sector would rotate by an irrational angle and the e level
    would dump population into the cavity, so either kind of occupation
    raises ``LeakageError``.
    """
    tail = state.photon_tail_population(2)
    if tail > E_LEAK_TOL:
        raise LeakageError(f"photon population {tail} above one-photon subspace")
    e_pop = state.level_population(squid, LEVEL_E)
    if e_pop > E_LEAK_TOL:
        raise LeakageError(f"squid{squid} e-level population {e_pop} breaks the controlled flip")
    return _run_track(state, "cnot", (PulseOp(PulseVariant.JC, squid, math.pi / cfg.lam),), cfg)[0]


def _phase_closure_idle(t_pulse: float, cfg: CouplingConfig) -> float:
    """Idle time after a pulse of ``t_pulse``, so the |i> phase closes.

    Pulse plus idle span the first whole number of 2 pi / omega_gi phase
    periods at or after the pulse end.
    """
    phase = cfg.omega_gi * t_pulse / (2.0 * math.pi)
    if phase == math.inf:
        raise ValueError(f"no phase closure: omega_gi = {cfg.omega_gi} times the pulse time "
                         f"{t_pulse} overflows")
    periods = math.ceil(phase)
    # Zero in exact arithmetic when the pulse ends on a closure; rounding can
    # leave it a few ulps below, which no PulseOp accepts.
    return max(0.0, 2.0 * math.pi * periods / cfg.omega_gi - t_pulse)


def process_times(cfg: CouplingConfig = DEFAULT_COUPLINGS) -> tuple[float, float]:
    """(pulse time, idle time) of the basis-rotation processes.

    The pulse lasts 3 pi / (4 lambda_prime), followed by the phase-closure idle.
    """
    t_pulse = 3.0 * math.pi / (4.0 * cfg.lambda_prime)
    return t_pulse, _phase_closure_idle(t_pulse, cfg)


def _raman_track(
    squid: int, t_pulse: float, dphi: float, cfg: CouplingConfig
) -> tuple[PulseOp, ...]:
    """A two-pulse rotation of ``t_pulse`` and then the idle that closes the |i> phase."""
    return (
        PulseOp(PulseVariant.RAMAN, squid, t_pulse, phi1=dphi, phi2=0.0),
        PulseOp(PulseVariant.FREE_EVOLVE, squid, _phase_closure_idle(t_pulse, cfg)),
    )


def _process_track(squid: int, dphi: float, cfg: CouplingConfig) -> tuple[PulseOp, ...]:
    return _raman_track(squid, process_times(cfg)[0], dphi, cfg)


def process_one(
    state: PureState, squid: int, cfg: CouplingConfig = DEFAULT_COUPLINGS
) -> tuple[PureState, float]:
    """Basis rotation |+> -> -|i>, |-> -> |g> (drive phase difference 3 pi / 2)."""
    return _run_track(state, "process_one", _process_track(squid, PROCESS_ONE_PHASE, cfg), cfg)


def process_two(
    state: PureState, squid: int, cfg: CouplingConfig = DEFAULT_COUPLINGS
) -> tuple[PureState, float]:
    """Basis rotation |g> -> |->, |i> -> -|+> (drive phase difference pi / 2)."""
    return _run_track(state, "process_two", _process_track(squid, PROCESS_TWO_PHASE, cfg), cfg)


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
        Slot("step1", ((_step1_op(cfg),),)),
        Slot("step2", jc(2, quarter)),
        Slot("step3", jc(1, full)),
        Slot("step4", jc(2, eighth)),
        Slot("step5", jc(3, quarter)),
        Slot("step6", (ie(2), ie(3))),
        Slot("step7", (
            _process_track(1, PROCESS_ONE_PHASE, cfg),
            _process_track(2, PROCESS_TWO_PHASE, cfg),
            _process_track(3, PROCESS_TWO_PHASE, cfg),
        )),
        Slot("step8", (ie(1),)),
        Slot("step9", jc(1, quarter)),
        Slot("step10", jc(2, full)),
        Slot("step10", jc(3, full)),
    )
    return Schedule(slots)


@functools.lru_cache(maxsize=32)
def _photon_reach(
    pattern: tuple[tuple[PulseVariant, int], ...]
) -> tuple[tuple[tuple[int, int, int, int], int], ...]:
    """The basis states (l1, l2, l3, n) a three-SQUID clone can reach under ``pattern``, sorted.

    Each state comes with j, the number of pulses run before it is
    reached: it is in the set before pulse j and every later one, and the
    start states have 0.  ``pattern`` lists each pulse's (variant, SQUID) in walk order; the
    walk reads nothing else, so every timing of a schedule shares one
    result.  It starts from SQUID 1 in g or i, SQUIDs 2 and 3 in g and an
    empty cavity, and after each pulse adds the partners of every reached
    basis state under that pulse's couplings, read from the table the
    kernel mixes by (``dynamics.COUPLED_LEVELS``), so the proof covers the
    couplings the kernel applies.  A pulse only mixes a basis state with
    its partners, so amplitude that starts inside the reached set stays
    inside it, whatever the pulse durations, at any photon cutoff: every
    amplitude outside it is an exact zero.  Walking only the reached
    states, and only the pairs of them a pulse mixes, therefore gives the
    amplitudes of the whole register on the set and zeros elsewhere; a pair
    with one state outside the set holds two zeros when its pulse runs, or
    the outside one would have been reached.  The largest photon number in
    the set, m (2 for the cloning schedule), bounds the walk: walking at a
    cutoff no smaller than m gives the amplitudes of any larger cutoff,
    since the one state the cutoff-m exchange treats differently, |e, m>
    (no partner |g, m + 1>), is never reached on a SQUID before an exchange
    pulse on it, or |g, m + 1> would be.  Only the sign of a zero amplitude
    can differ.
    """
    reached = {(level, LEVEL_G, LEVEL_G, 0): 0 for level in (LEVEL_G, LEVEL_I)}
    for j, (variant, squid) in enumerate(pattern):
        if variant not in COUPLED_LEVELS:
            continue
        a, b, shift = COUPLED_LEVELS[variant]
        partners = []
        for state in reached:
            level, photons = state[squid - 1], state[-1]
            if level == a and photons >= shift:
                partners.append(state[:squid - 1] + (b,) + state[squid:-1] + (photons - shift,))
            elif level == b:
                partners.append(state[:squid - 1] + (a,) + state[squid:-1] + (photons + shift,))
        for state in partners:
            reached.setdefault(state, j + 1)
    return tuple(sorted(reached.items()))


@dataclass(frozen=True, eq=False)
class _Program:
    """A schedule compiled for ``_walk`` at one coupling config, over one basis list.

    ``basis_list`` names the states a walk's (N, B) rows hold, at the
    program's photon cutoff ``basis_list.spec.fock_cutoff``.  ``runs``
    holds one entry per stretch of consecutive slots of one step: (step,
    nominal time at its last slot's end, pulses), where pulses are (slot
    index, op, ``pulse_coefficients`` at the op's duration, ``pulse_rows``
    over the basis list) in walk order.  Each coefficient array is
    read-only with shape (1,) or (fock_cutoff, 1) and broadcasts over the
    rows.  ``basis``, the walk of the identity (g, i) pair with its
    certificate, is built on first read and kept with the program, so a
    program built under a test's patch never serves another; only clone
    programs read it.
    """

    cfg: CouplingConfig
    basis_list: BasisList
    n_slots: int
    runs: tuple[tuple[str, float, tuple[tuple[int, PulseOp, tuple[np.ndarray, ...], PulseRows],
                                        ...]], ...]

    @property
    def fock_cutoff(self) -> int:
        return self.basis_list.spec.fock_cutoff

    @functools.cached_property
    def basis(self) -> _BasisWalk | None:
        """The walk of the identity (g, i) pair, built on first read; None if it raises."""
        return _walk_basis(self)


def _compile(schedule: Schedule, cfg: CouplingConfig, spec: BasisSpec, clone: bool) -> _Program:
    """``schedule``'s pulse program for a start state over ``spec``.

    The basis list and each pulse's row lists come from ``_layout``; the
    coefficients are the schedule's, and the nominal time is summed slot
    by slot.
    """
    ops = [op for slot in schedule.slots for track in slot.tracks for op in track]
    basis_list, lists = _layout(ops, spec, clone)
    fock_cutoff = basis_list.spec.fock_cutoff
    runs, elapsed, pulse_lists = [], 0.0, iter(lists)
    for k, slot in enumerate(schedule.slots):
        pulses = tuple((k, op, pulse_coefficients(op, np.array([op.duration]), fock_cutoff, cfg),
                        next(pulse_lists))
                       for track in slot.tracks for op in track)
        elapsed += slot.duration
        if runs and runs[-1][0] == slot.step:
            pulses = runs.pop()[2] + pulses
        runs.append((slot.step, elapsed, pulses))
    return _Program(cfg, basis_list, len(schedule.slots), tuple(runs))


def _layout(ops: list[PulseOp], spec: BasisSpec, clone: bool) -> tuple[BasisList, list[PulseRows]]:
    """The basis list a program over ``spec`` walks, and the rows each of ``ops`` reads.

    Without ``clone`` the list is the whole register and each op reads its
    ``pulse_rows``.  With ``clone`` on, the start state is a clone's
    prepared input: the list holds the states ``_photon_reach`` finds for
    the ops, up to min(cutoff, their largest photon number), at least one
    photon deep, and each op reads its ``pulse_rows`` over that list less
    the pairs of two states not reached before it (``_photon_reach`` counts
    the pulses run before each state is reached); such a pair holds two
    zeros, which the op would leave zero.
    """
    if not clone:
        basis_list = BasisList.full(spec)
        return basis_list, [pulse_rows(op, basis_list.labels) for op in ops]
    for op in ops:
        _check_squid(spec, op.squid)  # before the reach walk reads the op's SQUID
    pattern = tuple((op.variant, op.squid) for op in ops)
    reach = [(state, first) for state, first in _photon_reach(pattern)
             if state[-1] <= spec.fock_cutoff]
    states = np.array([state for state, _ in reach])
    first = np.array([first for _, first in reach])
    walked = BasisSpec(3, max(1, int(states[:, -1].max())))
    basis_list = BasisList(walked, np.ravel_multi_index(states.T, walked.factor_dims))
    labels = basis_list.labels
    lists = []
    for j, op in enumerate(ops):
        reached = first <= j  # the states reached before op
        rows = pulse_rows(op, labels)
        if op.variant is PulseVariant.FREE_EVOLVE:
            lists.append(PulseRows(rows.a, rows.b[reached[rows.b]]))
            continue
        kept = reached[rows.a] | reached[rows.b]
        photons = None if rows.photons is None else rows.photons[kept]
        lists.append(PulseRows(rows.a[kept], rows.b[kept], photons, rows.e))
    return basis_list, lists


@functools.lru_cache(maxsize=8)
def _uqcm_program(cfg: CouplingConfig, fock_cutoff: int) -> _Program:
    """The cloning schedule's clone program at ``fock_cutoff``, shared by all its walks."""
    return _compile(build_uqcm_schedule(cfg), cfg, BasisSpec(3, fock_cutoff), clone=True)


def _walk(
    rows: np.ndarray,
    program: _Program,
    factors: np.ndarray | None,
    enforce_preconditions: bool,
    first_sample: int = 0,
    on_pulse: Callable[[str, PulseOp, np.ndarray], None] | None = None,
    on_step: Callable[[str, float, np.ndarray], None] | None = None,
) -> None:
    """Apply ``program`` in place to the (N, B) ``rows`` over its basis list, batch axis last.

    Each pulse of slot k in row b lasts its nominal duration times
    ``factors[b, k]``, with coefficients built per call; with ``factors``
    None every pulse reads the program's nominal coefficients.  Every
    pulse goes through ``dynamics.run_pulse``: the two-pulse leakage guard
    (Raman only, skipped with ``enforce_preconditions`` off), the kernel
    and the row-norm check; a tripped check raises its ``PhysicsError``
    type, prefixed with the step label and naming the row as sample
    ``first_sample + row``.  Every amplitude outside the basis list is an
    exact zero (``_photon_reach``), so the guard and the norm check read
    the listed rows and give the verdict they would give on the whole
    register.  ``on_pulse(step, op, rows)`` runs after every pulse,
    ``on_step(step, elapsed, rows)`` after each of the program's runs, with
    the nominal schedule time so far.
    """
    for step, elapsed, pulses in program.runs:
        for k, op, coeffs, lists in pulses:
            if factors is not None:
                coeffs = pulse_coefficients(op, op.duration * factors[:, k], program.fock_cutoff,
                                            program.cfg)
            try:
                run_pulse(rows, op, coeffs, lists, first_sample, guarded=enforce_preconditions)
            except PhysicsError as exc:
                raise type(exc)(f"{step}: {exc}") from exc
            if on_pulse is not None:
                on_pulse(step, op, rows)
        if on_step is not None:
            on_step(step, elapsed, rows)


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
    state runs through the batched kernels as a batch of one, over the
    whole register at its own photon cutoff.
    """
    spec = state.spec
    program = _compile(schedule, cfg, spec, False)
    rows = state.amplitudes[:, None].copy()
    entries: list[TraceEntry] = []

    def observe(step: str, op: PulseOp, rows: np.ndarray) -> None:
        observer(step, op, PureState(rows[:, 0], spec))

    _walk(rows, program, None, enforce_preconditions,
          on_pulse=None if observer is None else observe,
          on_step=_recorder(entries, program.basis_list, spec))
    final = entries[-1].state if entries else state
    return final, StepTrace(tuple(entries))


def _recorder(
    entries: list[TraceEntry], basis_list: BasisList, spec: BasisSpec
) -> Callable[[str, float, np.ndarray], None]:
    """An ``on_step`` that appends a read-only copy of a batch of one to ``entries``."""

    def record(step: str, elapsed: float, rows: np.ndarray) -> None:
        amplitudes = rows[:, 0].copy()
        amplitudes.flags.writeable = False
        entries.append(TraceEntry(step, elapsed, amplitudes, basis_list, spec))

    return record


def _run_track(
    state: PureState, label: str, track: tuple[PulseOp, ...], cfg: CouplingConfig
) -> tuple[PureState, float]:
    """Walk ``track`` as a one-slot schedule labelled ``label``: (final state, its duration)."""
    final, trace = execute_schedule(state, Schedule((Slot(label, (track,)),)), cfg)
    return final, trace.entries[-1].t_elapsed


def _prepared(gi: np.ndarray, program: _Program) -> np.ndarray:
    """(N, B) rows over clone ``program``'s basis list: SQUID 1 in x_0|g> + x_1|i>, per pair x of ``gi``.

    SQUIDs 2 and 3 rest in |g> and the cavity is empty, as ``prepare_input``
    leaves the register in its ideal mode.
    """
    labels = program.basis_list.labels
    rows = np.zeros((len(program.basis_list.index), len(gi)), dtype=np.complex128)
    rows[labels[LEVEL_G, LEVEL_G, LEVEL_G, 0]] = gi[:, 0]
    rows[labels[LEVEL_I, LEVEL_G, LEVEL_G, 0]] = gi[:, 1]
    return rows


def _walked_clones(
    gi: np.ndarray,
    program: _Program,
    factors: np.ndarray | None,
    enforce_preconditions: bool,
    first_sample: int = 0,
    on_step: Callable[[str, float, np.ndarray], None] | None = None,
) -> np.ndarray:
    """Prepare one clone per (g, i) pair of ``gi`` (B, 2) and walk ``program`` on them all.

    ``program`` is a clone's program (``_compile`` with ``clone`` on) for
    the caller's cutoff.  The (N, B) rows, batch axis last, hold the
    program's basis list, the states a clone can reach, at its photon
    cutoff, min(cutoff, 2) for the cloning schedule; every other amplitude
    of a walk at the caller's cutoff is zero, up to its sign.  ``on_step``
    sees the prepared rows as step "input" at time 0 and then runs as
    ``_walk`` runs it.
    """
    rows = _prepared(gi, program)
    if on_step is not None:
        on_step("input", 0.0, rows)
    _walk(rows, program, factors, enforce_preconditions, first_sample, on_step=on_step)
    return rows


@dataclass(frozen=True, eq=False)
class _BasisWalk:
    """A clone program's walk of the identity (g, i) pair, and a certificate over all inputs.

    A clone walk is linear in the (g, i) pair x it injects, so a nominal
    row is Psi x, Psi the (N, 2) walk of the two basis injections over the
    program's basis list.  ``psi`` holds the last Psi, read-only, over
    ``basis_list``.  After pulse k, row x's squared norm is
    x^H G_k x with G_k = Psi_k^H Psi_k, and before a Raman pulse on SQUID
    s its e population is x^H E_k x, E_k the Gram of the e-level view of
    s in Psi; each lies between its matrix's extreme eigenvalues times
    |x|^2 (Rayleigh-Ritz; Horn & Johnson, Matrix Analysis, Thm 4.2.2).
    ``norm_lo`` and ``norm_hi`` bound the eigenvalues of every G_k,
    ``leak_hi`` those of every E_k (0 without a Raman pulse), from the
    Gershgorin discs of the computed 2 x 2 matrices, so no eigensolver
    error enters.

    ``clears`` certifies a batch from its least and largest |x|^2 alone,
    and ``margin`` is mu = D + 8 (N + 3) u, u = 2^-53, for rows of N
    amplitudes walked through P pulses, N = |S| the size of the basis list
    (45 for the cloning schedule at any cutoff from 2 up):

    - Kernel.  A pulse writes c a + ab b, or free times it on a Raman
      |i>: complex products, each within sqrt(5) u of exact relative
      (Brent, Percival & Zimmermann, Math. Comp. 76 (2007) 1469), and a
      complex sum within u.  So a pulse leaves a row within eta = 7 u rho
      times its norm of the exact map of its coefficients, rho >= 1
      bounding every pulse's ``dynamics.map_norm_bound``; underflow adds
      under 2^-1070 per amplitude, nothing against a norm near 1.
    - Walks.  The injection multiplies by 1 and is exact.  After k pulses
      a walked row is within k eta (rho + eta)^k times its start norm of
      the exact product of the pulse maps applied to its start, and so is
      each basis column.  With |x_0| + |x_1| <= sqrt(2) |x|, the walked
      row w_k(x) and Psi_k x differ by at most D |x|,
      D = (1 + sqrt(2)) P eta (rho + eta)^P.
    - Grams.  Each computed 2 x 2 entry is a sum of 2N real products per
      part, within sqrt(2) gamma_2N of exact times the two columns' norms
      in any order (Higham, Accuracy and Stability of Numerical
      Algorithms, 2nd ed., section 3.1), so the computed discs widened by
      twice that times the largest diagonal hold every exact eigenvalue.
    - Checks.  ``check_row_norms`` decides on a norm within (N + 1) u of
      exact, and ``level_populations`` on a population within (n + 4) u
      of exact plus subnormals; |x|^2 from its four squares is within
      gamma_4, and ``clears`` rounds three more times.

    For inputs with |x|^2 within 1e-12 of 1, which both entry points
    require, the Gram, check and evaluation terms sum to under 4 (N + 3) u
    in norm, half the slack.  So if sqrt(norm_lo min|x|^2) - mu exceeds
    1 - NORM_TOL and sqrt(norm_hi max|x|^2) + mu stays below
    1 + NORM_TOL, the walk's norm check passes on every row after every
    pulse; if also (sqrt(leak_hi max|x|^2) + mu)^2 < E_LEAK_TOL / 2, every
    Raman guard passes, the factor 2 covering the population's relative
    rounding.  At cutoff 2, mu is about 1.1e-13 against NORM_TOL = 1e-12.
    Every amplitude off the list is an exact zero, so these checks on the
    listed rows are the checks on the whole register.

    ``copies``, ``outside`` and ``terms`` are the read-only blocks that
    ``verify.score_nominal`` scores a certified batch from, gathered from
    ``psi`` by ``BasisList.score_blocks``, the gather ``verify.score_rows``
    scores a walked row through.  With C_j copy s's 3 x K block of the
    column Psi[:, j], ``copies[s - 2, j, k]`` is the computed
    R_s,jk = C_j C_k^H for s in {2, 3}, so copy s of the row Psi x has the
    reduced matrix sum_jk x_j conj(x_k) R_s,jk; ``terms`` is K, at most
    9 (m + 1) at the walked cutoff m.  ``outside[j, k]`` sums
    conj(Psi_j) Psi_k over the listed states outside levels {g, i} and
    photon numbers {0, 1}, so x^H outside x is the row's population there.
    """

    psi: np.ndarray
    basis_list: BasisList
    copies: np.ndarray
    outside: np.ndarray
    terms: int
    norm_lo: float
    norm_hi: float
    leak_hi: float
    margin: float

    def clears(self, gi: np.ndarray) -> bool:
        """Whether walking the (B, 2) pairs ``gi`` passes every check, the Raman guards included."""
        parts = gi.view(np.float64)
        squares = np.einsum("ij,ij->i", parts, parts)
        least, largest = float(np.min(squares)), float(np.max(squares))
        return (math.sqrt(max(self.norm_lo, 0.0) * least) - self.margin > 1.0 - NORM_TOL
                and math.sqrt(self.norm_hi * largest) + self.margin < 1.0 + NORM_TOL
                and (math.sqrt(self.leak_hi * largest) + self.margin) ** 2 < E_LEAK_TOL / 2)


def _gram_bounds(pairs: list[np.ndarray]) -> tuple[float, float]:
    """Gershgorin bounds (least, largest) on the eigenvalues of each (k, 2) pair's 2 x 2 Gram."""
    gram = np.stack([np.conj(pair).T @ pair for pair in pairs])
    diagonal = np.stack([gram[:, 0, 0].real, gram[:, 1, 1].real])
    off = np.abs(gram[:, 0, 1])
    return float(np.min(diagonal.min(axis=0) - off)), float(np.max(diagonal.max(axis=0) + off))


def _walk_basis(program: _Program) -> _BasisWalk | None:
    """Walk the identity (g, i) pair through clone ``program``, guarded; None where it raises."""
    rows = _prepared(np.eye(2, dtype=np.complex128), program)
    before = [rows.copy()]  # the pair before each pulse, and at the end after the last
    try:
        _walk(rows, program, None, True,
              on_pulse=lambda step, op, rows: before.append(rows.copy()))
    except PhysicsError:
        return None
    pulses = [(op, coeffs, lists) for _, _, run in program.runs for _, op, coeffs, lists in run]
    e_views = [before[k][lists.e]
               for k, (op, _, lists) in enumerate(pulses) if op.variant is PulseVariant.RAMAN]
    basis_list = program.basis_list
    blocks, outside = basis_list.score_blocks(rows.T)
    copies = blocks[:, :, None] @ np.conj(blocks[:, None]).swapaxes(-1, -2)
    outside = np.conj(outside) @ outside.T
    for array in (rows, copies, outside):
        array.flags.writeable = False
    u = _EPS / 2.0
    rho = max([1.0] + [map_norm_bound(op, coeffs) for op, coeffs, _ in pulses])
    eta = 7.0 * u * rho
    walk = (1.0 + math.sqrt(2.0)) * len(pulses) * eta * (rho + eta) ** len(pulses)
    return _BasisWalk(rows, basis_list, copies, outside, blocks.shape[-1],
                      *_gram_bounds(before[1:]), _gram_bounds(e_views)[1] if e_views else 0.0,
                      walk + 8.0 * (len(basis_list.index) + 3) * u)


def certified_basis(gi: np.ndarray, cfg: CouplingConfig, fock_cutoff: int) -> _BasisWalk | None:
    """The cloning program's basis walk at ``fock_cutoff`` if it ``clears`` the (B, 2) pairs ``gi``.

    The Raman guards are on.  None if the basis walk raised or does not
    clear the batch, which must then be walked.
    """
    basis = _uqcm_program(cfg, fock_cutoff).basis
    return basis if basis is not None and basis.clears(gi) else None


def clone_trace(
    q: InputQubit,
    cfg: CouplingConfig = DEFAULT_COUPLINGS,
    fock_cutoff: int = 2,
    schedule: Schedule | None = None,
    enforce_preconditions: bool = True,
) -> StepTrace:
    """``run_uqcm``'s trace alone: "input" and one entry per step, each over the walk's basis list.

    No entry builds its ``PureState`` until it is read, so a caller that
    scores the last entry's amplitudes (``verify.entry_fidelities``) never
    builds the register at ``fock_cutoff``.
    """
    spec = BasisSpec(num_squids=3, fock_cutoff=fock_cutoff)
    if schedule is None:
        program = _uqcm_program(cfg, fock_cutoff)
    else:
        program = _compile(schedule, cfg, spec, clone=True)
    entries: list[TraceEntry] = []
    _walked_clones(q.gi_vector()[None], program, None, enforce_preconditions,
                   on_step=_recorder(entries, program.basis_list, spec))
    return StepTrace(tuple(entries))


def run_uqcm(
    q: InputQubit,
    cfg: CouplingConfig = DEFAULT_COUPLINGS,
    fock_cutoff: int = 2,
    schedule: Schedule | None = None,
    enforce_preconditions: bool = True,
) -> tuple[PureState, StepTrace]:
    """Clone ``q``: prepare SQUID 1, run the schedule, return (final, trace).

    The trace starts with the prepared state under the label "input"
    followed by one snapshot per step; the final state is the last
    entry's.  The default cutoff of two photons is exact: the cloning
    schedule never reaches a third photon (``_photon_reach``), whatever
    its pulse durations, so every larger cutoff gives the same state
    padded with zeros, while a cutoff of one truncates the photon-2
    population that timing errors put into the cavity.  Without
    ``schedule`` the run walks the cloning schedule's cached program; a
    given ``schedule`` is compiled and walked for this call.  Either way
    the walk runs over the program's basis list, the 45 states a clone can
    reach.
    """
    trace = clone_trace(q, cfg, fock_cutoff, schedule, enforce_preconditions)
    return trace.entries[-1].state, trace


def clone_pairs(
    alpha: np.ndarray, beta: np.ndarray, fock_cutoff: int, first_sample: int = 0
) -> np.ndarray:
    """The (B, 2) (g, i) pairs of a clone batch's inputs, once the inputs and cutoff pass.

    ``alpha`` and ``beta`` must be equal-length, non-empty 1-D arrays with
    |alpha|^2 + |beta|^2 within 1e-12 of 1 on every row, an error naming
    the row as sample ``first_sample + b``, and the cutoff must be >= 1.
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
    BasisSpec(num_squids=3, fock_cutoff=fock_cutoff)  # rejects a cutoff below 1
    return gi_amplitudes(alpha, beta)


def clone_rows(
    alpha: np.ndarray,
    beta: np.ndarray,
    cfg: CouplingConfig = DEFAULT_COUPLINGS,
    fock_cutoff: int = 2,
    slot_factors: np.ndarray | None = None,
    enforce_preconditions: bool = True,
    first_sample: int = 0,
) -> tuple[np.ndarray, BasisList]:
    """``clone_batch``'s clones as walked: (N, B) rows, batch axis last, and the basis list they hold.

    The list is the cloning program's, the states a clone can reach at
    min(fock_cutoff, 2) photons; every other amplitude is zero.
    ``verify.score_rows`` scores the rows on that list.
    """
    gi = clone_pairs(alpha, beta, fock_cutoff, first_sample)
    program = _uqcm_program(cfg, fock_cutoff)
    shape = (len(gi), program.n_slots)
    factors = None
    if slot_factors is not None:
        factors = np.asarray(slot_factors, dtype=np.float64)
        if factors.shape != shape:
            raise ValueError(f"slot_factors has shape {factors.shape}, expected {shape}")
        bad = np.flatnonzero(~np.all((0.0 <= factors) & (factors < math.inf), axis=1))
        if bad.size:
            k = int(bad[0])
            raise ValueError(f"sample {first_sample + k}: slot factors must be finite "
                             f"and >= 0, got {factors[k].tolist()}")
    rows = _walked_clones(gi, program, factors, enforce_preconditions, first_sample)
    return rows, program.basis_list


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

    The result has shape (B, 3, 3, 3, fock_cutoff + 1), batch axis
    first.  Every row runs the cloning schedule; ``slot_factors``, an
    array of shape (B, n_slots), scales each pulse of slot k in row b by
    ``slot_factors[b, k]`` (default: every pulse at its nominal duration).
    Each row is prepared in the ideal mode, walked over the program's
    basis list and checked exactly as ``run_uqcm`` checks a single run;
    errors name the row as sample ``first_sample + b``.  The walked rows
    (``clone_rows``) are scattered into zeros for this dense return.
    """
    rows, basis_list = clone_rows(alpha, beta, cfg, fock_cutoff, slot_factors,
                                  enforce_preconditions, first_sample)
    return basis_list.dense(rows.T, fock_cutoff)
