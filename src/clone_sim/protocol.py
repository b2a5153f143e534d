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
(``draw_slot_factors``), sample k drawing from its own stream
``jitter_rng(seed, k)``.  ``perturbed_schedule`` applies the factors to
a ``Schedule``; a batch carries them as a (B, n_slots) array, which
``jitter_factors`` draws for many samples at once, bit-identical to their
streams.

Every schedule runs on the batched kernels of ``dynamics``: ``clone_batch``
clones B inputs at once in an array of shape (B, 3, 3, 3, fock_cutoff + 1),
pulse j of slot k in row b lasting its nominal duration times
``slot_factors[b, k]``, and ``run_uqcm``/``execute_schedule`` run one
state as a batch of one.  Both take each pulse through ``_pulse_rows``,
which checks every row before and after the pulse, so a row's result
and its checks do not depend on the batch it ran in.
"""

from __future__ import annotations

import cmath
import functools
import json
import math
import operator
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

    def to_json(self, indent: int | None = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)


def draw_slot_factors(fraction: float, n_slots: int, rng: np.random.Generator) -> np.ndarray:
    """(n_slots,) duration factors 1 + fraction*u, u ~ U(-1, 1), one per slot in slot order."""
    return 1.0 + fraction * rng.uniform(-1.0, 1.0, n_slots)


def jitter_rng(seed: int, sample: int) -> np.random.Generator:
    """The stream sample ``sample`` draws its slot factors from, separate from input sampling."""
    return np.random.default_rng([seed, _JITTER_STREAM, sample])


# jitter_factors runs numpy's SeedSequence pool hash (numpy/random/bit_generator.pyx)
# and PCG64 XSL-RR (O'Neill 2014, HMC-CS-2014-0905) on whole arrays of samples.
_MASK32 = 0xFFFFFFFF
_MASK64 = (1 << 64) - 1
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _wrap32(x):
    # Python ints grow where uint32 arrays wrap; mask the ints to match.
    return x & _MASK32 if isinstance(x, int) else x


def _seed_words(entropy: list) -> list:
    """``SeedSequence(entropy).generate_state(8, np.uint32)``, word by word.

    Each entropy word is a Python int (shared by every sample) or a
    uint32 array (one word per sample); a word that some array word has
    mixed into is an array, the rest stay Python ints.
    """
    hash_const = _INIT_A

    def hashmix(value):
        nonlocal hash_const
        value = value ^ hash_const
        hash_const = (hash_const * _MULT_A) & _MASK32
        value = _wrap32(value * hash_const)
        return value ^ (value >> 16)

    def mix(x, y):
        result = _wrap32(_wrap32(_MIX_MULT_L * x) - _wrap32(_MIX_MULT_R * y))
        return result ^ (result >> 16)

    pool = [hashmix(entropy[i] if i < len(entropy) else 0) for i in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = mix(pool[dst], hashmix(word))
    hash_const = _INIT_B
    out = []
    for i in range(8):
        value = pool[i % _POOL_SIZE] ^ hash_const
        hash_const = (hash_const * _MULT_B) & _MASK32
        value = _wrap32(value * hash_const)
        out.append(value ^ (value >> 16))
    return out


def _join64(low, high) -> np.ndarray:
    """uint64 array from two 32-bit words, as numpy's little-endian view forms it."""
    return np.asarray(low, dtype=np.uint64) | (np.asarray(high, dtype=np.uint64) << 32)


def _split128(values: list[int]) -> tuple[np.ndarray, ...]:
    """(hi, lo, lo & 0xFFFFFFFF, lo >> 32) uint64 arrays of 128-bit constants."""
    lo = [v & _MASK64 for v in values]
    return tuple(np.array(words, dtype=np.uint64) for words in
                 ([v >> 64 for v in values], lo, [w & _MASK32 for w in lo], [w >> 32 for w in lo]))


def _mul128(x_hi: np.ndarray, x_lo: np.ndarray, table: tuple[np.ndarray, ...]):
    """(hi, lo) of x * c mod 2**128 for a ``_split128`` table c, broadcast."""
    c_hi, c_lo, c_lo0, c_lo1 = table
    x_lo0, x_lo1 = x_lo & _MASK32, x_lo >> 32
    cross01, cross10 = x_lo0 * c_lo1, x_lo1 * c_lo0
    middle = ((x_lo0 * c_lo0) >> 32) + (cross01 & _MASK32) + (cross10 & _MASK32)
    carry = x_lo1 * c_lo1 + (cross01 >> 32) + (cross10 >> 32) + (middle >> 32)
    return carry + x_lo * c_hi + x_hi * c_lo, x_lo * c_lo


def _add128(a_hi, a_lo, b_hi, b_lo):
    lo = a_lo + b_lo
    return a_hi + b_hi + (lo < a_lo), lo


@functools.lru_cache(maxsize=8)
def _pcg_jump_tables(n_draws: int) -> tuple[tuple[np.ndarray, ...], tuple[np.ndarray, ...]]:
    """Jump-ahead constants of the PCG64 LCG s -> M s + inc, for draws 1..n_draws.

    After seeding, the state before the first draw's step is
    x = inc + initstate; draw j reads the state k = j + 1 steps on,
    M^k x + (1 + M + ... + M^(k-1)) inc.  Returns the tables of M^k and
    of that geometric sum.
    """
    powers = [pow(_PCG_MULT, k, 1 << 128) for k in range(n_draws + 2)]
    sums = [0]
    for power in powers[:-1]:
        sums.append((sums[-1] + power) % (1 << 128))
    return _split128(powers[2:]), _split128(sums[2:])


def jitter_factors(seed: int, fraction: float, samples: np.ndarray, n_slots: int) -> np.ndarray:
    """(len(samples), n_slots) slot factors: row k is sample ``samples[k]``'s draw.

    Row k equals ``draw_slot_factors(fraction, n_slots, jitter_rng(seed,
    samples[k]))`` bit for bit, computed for all samples at once: the
    SeedSequence hash of [seed, 17, sample], PCG64 seeding and its first
    n_slots outputs, and ``Generator.uniform``'s -1 + 2 * (x >> 11) / 2**53.
    Sample indices must lie in [0, 2**32), one entropy word each.
    """
    samples = np.asarray(samples)
    if samples.ndim != 1:
        raise ValueError(f"samples must be a 1-D array, got shape {samples.shape}")
    if samples.size and not (samples.min() >= 0 and samples.max() <= _MASK32):
        raise ValueError(f"sample indices must lie in [0, 2**32), got {samples.min()} "
                         f"to {samples.max()}")
    seed = operator.index(seed)
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    seed_words = [(seed >> shift) & _MASK32 for shift in range(0, max(seed.bit_length(), 1), 32)]
    words = _seed_words(seed_words + [_JITTER_STREAM, samples.astype(np.uint32)])
    init_hi, init_lo = _join64(words[0], words[1]), _join64(words[2], words[3])
    seq_hi, seq_lo = _join64(words[4], words[5]), _join64(words[6], words[7])
    inc_hi, inc_lo = (seq_hi << 1) | (seq_lo >> 63), (seq_lo << 1) | 1
    x_hi, x_lo = _add128(inc_hi, inc_lo, init_hi, init_lo)
    powers, sums = _pcg_jump_tables(n_slots)
    hi, lo = _add128(*_mul128(x_hi[:, None], x_lo[:, None], powers),
                     *_mul128(inc_hi[:, None], inc_lo[:, None], sums))
    xored, rot = hi ^ lo, hi >> 58
    draws = (xored >> rot) | (xored << ((64 - rot) & 63))
    return 1.0 + fraction * (-1.0 + 2.0 * ((draws >> 11) * 2.0 ** -53))


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

    def to_json(self, indent: int | None = None) -> str:
        return json.dumps(self.to_dict(), indent=indent)


def _require_in_g(state: PureState, squid: int) -> None:
    _require_rows_in_g(state.tensor()[None], squid)


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
    shape = (len(amps),) + (1,) * (g_view.ndim - 1)
    g_old = g_view.copy()
    g_view[...] = gi[:, 0].reshape(shape) * g_old
    i_view[...] = gi[:, 1].reshape(shape) * g_old


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
    _require_in_g(state, squid)
    target = q.gi_vector()
    if mode == "ideal":
        amps = state.tensor()[None].copy()
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


def step1_prepare_squid2(state: PureState, cfg: CouplingConfig = DEFAULT_COUPLINGS) -> PureState:
    """Drive SQUID 2 from |g> to sqrt(2/3)|g> + i sqrt(1/3)|e>.

    The pulse angle 2 pi - arcsin(sqrt(1/3)) leaves cos at +sqrt(2/3)
    while -i sin comes out at +i sqrt(1/3), which is the sign the rest
    of the schedule relies on.
    """
    _require_in_g(state, 2)
    return apply_pulse_op(state, _step1_op(cfg), cfg)


def _step1_op(cfg: CouplingConfig) -> PulseOp:
    angle = 2.0 * math.pi - math.asin(math.sqrt(1.0 / 3.0))
    return PulseOp(PulseVariant.DRIVE_GE, 2, angle / cfg.omega_ge)


def cnot_cavity_control(
    state: PureState,
    squid: int,
    cfg: CouplingConfig = DEFAULT_COUPLINGS,
    leak_tol: float = 1e-10,
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


def _pulse_rows(
    amps: np.ndarray,
    step: str,
    op: PulseOp,
    durations: np.ndarray,
    cfg: CouplingConfig,
    e_tol: float,
    first_sample: int = 0,
) -> None:
    """One pulse on every row: two-pulse guard, kernel, then the norm check.

    A tripped check raises its ``PhysicsError`` type, prefixed with the
    step label and naming the row as sample ``first_sample + row``.
    """
    try:
        if op.variant is PulseVariant.RAMAN:
            check_two_pulse_domain(amps, op.squid, e_tol, first_sample)
        pulse_kernel(amps, op, durations, cfg)
        check_row_norms(amps, first_sample)
    except PhysicsError as exc:
        raise type(exc)(f"{step}: {exc}") from exc


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
    e_tol = E_LEAK_TOL if enforce_preconditions else math.inf
    spec = state.spec
    amps = state.tensor()[None].copy()
    entries: list[TraceEntry] = []
    elapsed = 0.0
    for k, slot in enumerate(schedule.slots):
        for track in slot.tracks:
            for op in track:
                _pulse_rows(amps, slot.step, op, np.array([op.duration], dtype=np.float64),
                            cfg, e_tol)
                if observer is not None:
                    observer(slot.step, op, PureState(amps.reshape(-1), spec))
        elapsed += slot.duration
        if k + 1 == len(schedule.slots) or schedule.slots[k + 1].step != slot.step:
            entries.append(TraceEntry(slot.step, elapsed, PureState(amps.reshape(-1), spec)))
    final = entries[-1].state if entries else state
    return final, StepTrace(tuple(entries))


def run_uqcm(
    q: InputQubit,
    cfg: CouplingConfig = DEFAULT_COUPLINGS,
    fock_cutoff: int = 2,
    schedule: Schedule | None = None,
    prep_mode: str = "ideal",
    observer: Callable[[str, PulseOp, PureState], None] | None = None,
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
    state = prepare_input(state, 1, q, cfg, mode=prep_mode)
    if schedule is None:
        schedule = build_uqcm_schedule(cfg)
    final, trace = execute_schedule(
        state, schedule, cfg, observer=observer, enforce_preconditions=enforce_preconditions
    )
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

    The result has shape (B, 3, 3, 3, fock_cutoff + 1).  Every row runs
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
    e_tol = E_LEAK_TOL if enforce_preconditions else math.inf
    amps = np.zeros((rows,) + spec.factor_dims, dtype=np.complex128)
    amps[:, LEVEL_G, LEVEL_G, LEVEL_G, 0] = 1.0
    _require_rows_in_g(amps, 1, first_sample)
    _inject_rows(amps, 1, gi_amplitudes(alpha, beta))
    for k, slot in enumerate(schedule.slots):
        for track in slot.tracks:
            for op in track:
                _pulse_rows(amps, slot.step, op, op.duration * factors[:, k], cfg, e_tol,
                            first_sample)
    return amps
