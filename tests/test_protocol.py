"""Protocol steps, schedule construction, and the end-to-end cloning run."""

import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from clone_sim import (
    BasisSpec,
    CouplingConfig,
    InputQubit,
    LeakageError,
    PhysicsError,
    PreconditionError,
    PulseOp,
    PulseVariant,
    PureState,
    Schedule,
    Slot,
    basis_index,
    build_uqcm_schedule,
    cnot_cavity_control,
    execute_schedule,
    phase_aligned_distance,
    prepare_input,
    process_one,
    process_times,
    process_two,
    run_uqcm,
    target_state,
)
from clone_sim.dynamics import COUPLED_LEVELS
from clone_sim.hilbert import E_LEAK_TOL, LEVEL_E, LEVEL_G, LEVEL_I
from clone_sim.protocol import STEP_LABELS, StepTrace

CFG = CouplingConfig()
RT2 = math.sqrt(2.0)
RT3 = math.sqrt(3.0)


def fresh(spec=None):
    spec = spec or BasisSpec(1, 1)
    return PureState.basis_state(spec, ("g",) * spec.num_squids, 0)


def amp(state, levels, photons):
    return state.amplitudes[basis_index(state.spec, levels, photons)]


# --------------------------------------------------------------- InputQubit


def test_input_qubit_validation_and_bloch_form():
    with pytest.raises(ValueError):
        InputQubit(1.0, 1.0)
    north = InputQubit.from_bloch(0.0, 0.0)
    assert north.alpha == 1.0 and north.beta == 0.0
    south = InputQubit.from_bloch(math.pi, 0.7)
    assert abs(south.alpha) < 1e-15 and abs(abs(south.beta) - 1.0) < 1e-15


def test_gi_vector_of_the_three_reference_inputs():
    assert np.allclose(InputQubit(1.0, 0.0).gi_vector(), [1 / RT2, 1 / RT2])
    assert np.allclose(InputQubit(0.0, 1.0).gi_vector(), [-1 / RT2, 1 / RT2])
    assert np.allclose(InputQubit(1 / RT2, 1 / RT2).gi_vector(), [0.0, 1.0], atol=1e-15)


# ------------------------------------------------------------ input loading


def test_prepare_input_ideal_injects_gi_amplitudes():
    for q in (InputQubit(1.0, 0.0), InputQubit(0.0, 1.0), InputQubit(1 / RT2, 1 / RT2)):
        out = prepare_input(fresh(), 1, q, CFG, mode="ideal")
        want = q.gi_vector()
        assert abs(amp(out, ("g",), 0) - want[0]) < 1e-15
        assert abs(amp(out, ("i",), 0) - want[1]) < 1e-15


def test_prepare_input_requires_ground_state():
    loaded = PureState.basis_state(BasisSpec(1, 1), ("i",), 0)
    with pytest.raises(PreconditionError):
        prepare_input(loaded, 1, InputQubit(1.0, 0.0), CFG)


def test_prepare_input_ideal_refuses_an_i_population_it_would_overwrite():
    # within E_LEAK_TOL of |g>, so the |g> precondition alone lets it through
    spec = BasisSpec(3, 2)
    amps = np.zeros(spec.factor_dims, dtype=complex)
    amps[0, 0, 0, 0], amps[1, 0, 0, 0] = math.sqrt(1.0 - 5e-11), math.sqrt(5e-11)
    state = PureState(amps.reshape(-1), spec)
    q = InputQubit.from_bloch(1.1, 0.4)
    with pytest.raises(PreconditionError) as info:
        prepare_input(state, 1, q, CFG)
    population = state.level_population(1, LEVEL_I)
    assert abs(population - 5e-11) < 1e-20
    assert str(info.value) == (f"squid1 holds |i> population {population}, which the ideal "
                               f"injection would overwrite")
    # squid 2 holds no |i> population, and pulsed mode never overwrites
    assert prepare_input(state, 2, q, CFG).norm() == pytest.approx(1.0, abs=1e-15)
    prepare_input(state, 1, q, CFG, mode="pulsed")


def test_prepare_input_pulsed_matches_ideal_up_to_phase():
    rng = np.random.default_rng(61)
    for _ in range(8):
        theta, phi = rng.uniform(0, math.pi), rng.uniform(0, 2 * math.pi)
        q = InputQubit.from_bloch(theta, phi)
        ideal = prepare_input(fresh(), 1, q, CFG, mode="ideal")
        pulsed = prepare_input(fresh(), 1, q, CFG, mode="pulsed")
        assert phase_aligned_distance(ideal, pulsed) < 1e-10


def test_prepare_input_pulsed_reaches_the_pole():
    q = InputQubit(1 / RT2, 1 / RT2)  # lands on |i>, the g amplitude vanishes
    out = prepare_input(fresh(), 1, q, CFG, mode="pulsed")
    assert abs(abs(amp(out, ("i",), 0)) - 1.0) < 1e-12


def test_prepare_input_rejects_unknown_mode():
    with pytest.raises(ValueError):
        prepare_input(fresh(), 1, InputQubit(1.0, 0.0), CFG, mode="adiabatic")


# ----------------------------------------------------------------- step one


def test_step1_splits_two_thirds_one_third():
    # |+> puts squid1 in (|g> + |i>)/sqrt(2); squid2's split carries that factor
    _, trace = run_uqcm(InputQubit(1.0, 0.0), CFG)
    out = trace.entry("step1").state
    a_g = amp(out, ("g", "g", "g"), 0)
    a_e = amp(out, ("g", "e", "g"), 0)
    assert abs(a_g - math.sqrt(2.0 / 3.0) / RT2) < 1e-12
    assert abs(a_e - 1j * math.sqrt(1.0 / 3.0) / RT2) < 1e-12
    assert abs(out.level_population(2, "g") - 2.0 / 3.0) < 1e-12
    assert abs(out.level_population(2, "e") - 1.0 / 3.0) < 1e-12
    assert abs(out.norm() - 1.0) < 1e-12


# ------------------------------------------------------- photon-gated flip


def embedded_pm(sign, photons, spec=None):
    spec = spec or BasisSpec(1, 1)
    vec = np.zeros(spec.dimension, dtype=complex)
    vec[basis_index(spec, ("g",), photons)] = sign / RT2
    vec[basis_index(spec, ("i",), photons)] = 1 / RT2
    return PureState(vec, spec)


@pytest.mark.parametrize("sign,photons,out_sign", [
    (1.0, 0, 1.0),    # |+>|0> fixed
    (-1.0, 0, -1.0),  # |->|0> fixed
    (1.0, 1, -1.0),   # |+>|1> flips to |->|1>
    (-1.0, 1, 1.0),   # |->|1> flips to |+>|1>
])
def test_cnot_truth_table(sign, photons, out_sign):
    got = cnot_cavity_control(embedded_pm(sign, photons), 1, CFG)
    want = embedded_pm(out_sign, photons)
    assert np.max(np.abs(got.amplitudes - want.amplitudes)) < 1e-12


def test_cnot_twice_is_identity():
    rng = np.random.default_rng(67)
    spec = BasisSpec(1, 1)
    vec = np.zeros(spec.dimension, dtype=complex)
    gi = [basis_index(spec, (lev,), n) for lev in ("g", "i") for n in (0, 1)]
    vec[gi] = rng.normal(size=4) + 1j * rng.normal(size=4)
    psi = PureState.from_amplitudes(vec, spec, normalize=True)
    twice = cnot_cavity_control(cnot_cavity_control(psi, 1, CFG), 1, CFG)
    assert np.max(np.abs(twice.amplitudes - psi.amplitudes)) < 1e-12


def test_cnot_rejects_states_outside_its_domain():
    spec = BasisSpec(1, 2)
    two_photons = PureState.basis_state(spec, ("g",), 2)
    with pytest.raises(LeakageError):
        cnot_cavity_control(two_photons, 1, CFG)
    excited = PureState.basis_state(spec, ("e",), 0)
    with pytest.raises(LeakageError):
        cnot_cavity_control(excited, 1, CFG)


# ---------------------------------------------------------- basis rotations


def gi_state(g, i, spec=None):
    spec = spec or BasisSpec(1, 1)
    vec = np.zeros(spec.dimension, dtype=complex)
    vec[basis_index(spec, ("g",), 0)] = g
    vec[basis_index(spec, ("i",), 0)] = i
    return PureState(vec, spec)


@pytest.mark.parametrize("start,want", [
    ((1 / RT2, 1 / RT2), (0.0, -1.0)),        # |+> -> -|i>
    ((-1 / RT2, 1 / RT2), (1.0, 0.0)),        # |-> -> |g>
    ((1.0, 0.0), (-1 / RT2, -1 / RT2)),       # |g> -> -(|i>+|g>)/sqrt(2)
])
def test_process_one_table(start, want):
    out, _ = process_one(gi_state(*start), 1, CFG)
    assert abs(amp(out, ("g",), 0) - want[0]) < 1e-10
    assert abs(amp(out, ("i",), 0) - want[1]) < 1e-10


@pytest.mark.parametrize("start,want", [
    ((1.0, 0.0), (-1 / RT2, 1 / RT2)),        # |g> -> |->
    ((0.0, 1.0), (-1 / RT2, -1 / RT2)),       # |i> -> -|+>
    ((-1 / RT2, 1 / RT2), (0.0, -1.0)),       # |-> -> -|i>, by linearity
])
def test_process_two_table(start, want):
    out, _ = process_two(gi_state(*start), 1, CFG)
    assert abs(amp(out, ("g",), 0) - want[0]) < 1e-10
    assert abs(amp(out, ("i",), 0) - want[1]) < 1e-10


def test_processes_cost_the_same_time():
    _, t_one = process_one(gi_state(1.0, 0.0), 1, CFG)
    _, t_two = process_two(gi_state(1.0, 0.0), 1, CFG)
    assert t_one == t_two
    # defaults: pulse 3pi/4, idle pi/20, eight full phase periods
    assert abs(t_one - 0.8 * math.pi) < 1e-15


def test_process_times_defaults_and_closure():
    t_pulse, t_idle = process_times(CFG)
    assert abs(t_pulse - 3.0 * math.pi / 4.0) < 1e-15
    assert abs(t_idle - math.pi / 20.0) < 1e-15
    cycles = CFG.omega_gi * (t_pulse + t_idle) / (2.0 * math.pi)
    assert abs(cycles - round(cycles)) < 1e-12


def test_process_rejects_e_population():
    excited = PureState.basis_state(BasisSpec(1, 1), ("e",), 0)
    with pytest.raises(LeakageError):
        process_one(excited, 1, CFG)


@pytest.mark.parametrize("process, label", [(process_one, "process_one"),
                                            (process_two, "process_two")])
def test_a_process_error_carries_its_slot_label(process, label):
    excited = PureState.basis_state(BasisSpec(1, 1), ("e",), 0)
    with pytest.raises(LeakageError, match=f"^{label}: sample 0: squid1 e-level population"):
        process(excited, 1, CFG)


def test_protocol_operations_apply_their_pulses_only_through_the_walk(monkeypatch):
    import sys

    from clone_sim import dynamics, protocol

    calls, callers = [], []
    original = dynamics.run_pulse

    def counting(*args, **kwargs):
        calls.append(args[1])
        return original(*args, **kwargs)

    def walked(*args, **kwargs):
        callers.append(sys._getframe(1).f_code.co_name)
        return original(*args, **kwargs)

    monkeypatch.setattr(dynamics, "run_pulse", counting)
    monkeypatch.setattr(protocol, "run_pulse", walked)
    q = InputQubit.from_bloch(1.1, 2.3)
    process_one(gi_state(1.0, 0.0), 1, CFG)
    process_two(gi_state(1.0, 0.0), 1, CFG)
    cnot_cavity_control(embedded_pm(1.0, 1), 1, CFG)
    prepare_input(fresh(), 1, q, CFG, mode="pulsed")
    run_uqcm(q, CFG)
    assert calls == []
    assert callers and set(callers) == {"_walk"}
    dynamics.apply_pulse_op(fresh(), PulseOp(PulseVariant.FREE_EVOLVE, 1, 1.0), CFG)
    assert len(calls) == 1  # the counter sees the single-pulse route


@pytest.mark.parametrize("omega_gi", [20.0, 1e5, 1e7])
def test_process_one_is_a_walk_of_the_schedules_step7_track(omega_gi):
    cfg = CouplingConfig(omega_gi=omega_gi)
    step7 = next(slot for slot in build_uqcm_schedule(cfg).slots if slot.step == "step7")
    track = next(track for track in step7.tracks if track[0].squid == 1)
    rng = np.random.default_rng(71)
    spec = BasisSpec(3, 2)
    amps = (rng.standard_normal(spec.dimension)
            + 1j * rng.standard_normal(spec.dimension)).reshape(spec.factor_dims)
    amps[2] = 0.0  # squid 1 leaves e empty, as the two-pulse map needs
    state = PureState.from_amplitudes(amps.reshape(-1), spec, normalize=True)
    walked, trace = execute_schedule(state, Schedule((Slot("step7", (track,)),)), cfg)
    out, took = process_one(state, 1, cfg)
    assert np.array_equal(out.amplitudes, walked.amplitudes)
    assert took == trace.entries[-1].t_elapsed


# ------------------------------------------------------- slots and schedule


def op(variant, squid, duration=1.0):
    return PulseOp(variant, squid, duration)


def test_slot_rejects_track_mixing_targets():
    with pytest.raises(ValueError):
        Slot("s", ((op(PulseVariant.DRIVE_GE, 1), op(PulseVariant.DRIVE_GE, 2)),))


def test_slot_rejects_duplicate_targets_across_tracks():
    with pytest.raises(ValueError):
        Slot("s", ((op(PulseVariant.DRIVE_GE, 1),), (op(PulseVariant.DRIVE_IE, 1),)))


def test_slot_rejects_two_cavity_ops():
    with pytest.raises(ValueError):
        Slot("s", ((op(PulseVariant.JC, 1),), (op(PulseVariant.JC, 2),)))


def test_slot_rejects_empty_tracks_and_short_duration():
    with pytest.raises(ValueError):
        Slot("s", ())
    with pytest.raises(ValueError):
        Slot("s", ((),))


def test_slot_duration_defaults_to_longest_track():
    slot = Slot("s", (
        (op(PulseVariant.RAMAN, 1, 1.0), op(PulseVariant.FREE_EVOLVE, 1, 0.5)),
        (op(PulseVariant.DRIVE_GE, 2, 0.4),),
    ))
    assert slot.duration == 1.5


def test_uqcm_schedule_structure():
    schedule = build_uqcm_schedule(CFG)
    assert len(schedule.slots) == 11
    assert [slot.step for slot in schedule.slots] == [
        "step1", "step2", "step3", "step4", "step5", "step6",
        "step7", "step8", "step9", "step10", "step10",
    ]
    step7 = schedule.slots[6]
    assert len(step7.tracks) == 3
    t_pulse, t_idle = process_times(CFG)
    assert abs(step7.duration - (t_pulse + t_idle)) < 1e-12


def test_uqcm_schedule_total_duration_frozen():
    # independent arithmetic over the published slot lengths
    pi = math.pi
    expected = (
        (2 * pi - math.asin(math.sqrt(1.0 / 3.0)))  # split pulse
        + pi / 2 + pi + pi / 4 + pi / 2              # cavity moves, steps 2-5
        + pi / 2                                     # parking drives
        + 0.8 * pi                                   # parallel rotations
        + pi / 2 + pi / 2                            # lift and emit
        + 2 * pi                                     # two controlled flips
    )
    _, trace = run_uqcm(InputQubit(1.0, 0.0), CFG)
    assert abs(trace.entries[-1].t_elapsed - expected) < 1e-12


# --------------------------------------------------------------- execution


def test_execute_schedule_observer_sees_every_op():
    q = InputQubit.from_bloch(0.9, 0.3)
    seen = []
    start = prepare_input(fresh(BasisSpec(3, 2)), 1, q, CFG)
    execute_schedule(start, build_uqcm_schedule(CFG), CFG,
                     observer=lambda step, op_, state: seen.append(step))
    assert len(seen) == 17  # 9 single-op slots + two-track step6 + 6-op step7
    assert seen[0] == "step1" and seen[-1] == "step10"


def test_execute_schedule_prefixes_errors_with_step_label():
    bad = Schedule((
        Slot("lift", ((op(PulseVariant.DRIVE_GE, 1, math.pi / 2),),)),
        Slot("rotate", ((op(PulseVariant.RAMAN, 1, 1.0),),)),
    ))
    start = fresh(BasisSpec(3, 2))
    with pytest.raises(LeakageError, match="^rotate: "):
        execute_schedule(start, bad, CFG)


def test_a_step_that_returns_after_another_gets_an_entry_of_its_own():
    from clone_sim.dynamics import apply_pulse_op

    pulses = [op(PulseVariant.DRIVE_GE, 2, 0.3), op(PulseVariant.JC, 2, 0.7),
              op(PulseVariant.DRIVE_IE, 3, 0.2)]
    schedule = Schedule(tuple(Slot(step, ((pulse,),)) for step, pulse in zip("aba", pulses)))
    state = fresh(BasisSpec(3, 2))
    final, trace = execute_schedule(state, schedule, CFG)
    assert [(e.label, e.t_elapsed) for e in trace.entries] == [("a", 0.3), ("b", 1.0), ("a", 1.2)]
    for entry, pulse in zip(trace.entries, pulses):
        state = apply_pulse_op(state, pulse, CFG)
        assert np.array_equal(entry.state.amplitudes, state.amplitudes), entry.label
    assert final is trace.entries[-1].state


def test_an_empty_schedule_walks_nothing():
    start = fresh(BasisSpec(3, 4))
    final, trace = execute_schedule(start, Schedule(()), CFG)
    assert final is start and trace.entries == ()
    q = InputQubit.from_bloch(1.1, 2.3)
    final, trace = run_uqcm(q, CFG, fock_cutoff=4, schedule=Schedule(()))
    assert [(e.label, e.t_elapsed) for e in trace.entries] == [("input", 0.0)]
    assert final is trace.entries[0].state
    assert np.array_equal(final.amplitudes, prepare_input(start, 1, q, CFG).amplitudes)


def test_trace_snapshots_per_step_with_increasing_clock():
    q = InputQubit(1.0, 0.0)
    _, trace = run_uqcm(q, CFG)
    assert tuple(e.label for e in trace.entries) == ("input",) + STEP_LABELS
    times = [entry.t_elapsed for entry in trace.entries]
    assert times == sorted(times)
    assert times[0] == 0.0
    assert abs(times[-1] - sum(slot.duration for slot in build_uqcm_schedule(CFG).slots)) < 1e-12
    for entry in trace.entries:
        assert abs(entry.state.norm() - 1.0) < 1e-12


def test_trace_lookup_and_json_round_trip():
    _, trace = run_uqcm(InputQubit(0.0, 1.0), CFG)
    entry = trace.entry("step4")
    assert entry.label == "step4"
    with pytest.raises(ValueError):
        trace.entry("step99")
    payload = trace.to_dict()
    assert [item["label"] for item in payload] == [e.label for e in trace.entries]


def test_run_uqcm_hits_target_for_basis_inputs():
    for q in (InputQubit(1.0, 0.0), InputQubit(0.0, 1.0)):
        final, _ = run_uqcm(q, CFG)
        assert phase_aligned_distance(final, target_state(q, final.spec)) < 1e-10


def test_run_uqcm_is_linear_in_the_input():
    alpha, beta = 0.6, complex(0.0, 0.8)
    final_mix, _ = run_uqcm(InputQubit(alpha, beta), CFG)
    final_plus, _ = run_uqcm(InputQubit(1.0, 0.0), CFG)
    final_minus, _ = run_uqcm(InputQubit(0.0, 1.0), CFG)
    combined = alpha * final_plus.amplitudes + beta * final_minus.amplitudes
    assert np.max(np.abs(final_mix.amplitudes - combined)) < 1e-12


def test_run_uqcm_with_pulsed_preparation():
    q = InputQubit.from_bloch(1.2, 0.4)
    start = prepare_input(fresh(BasisSpec(3, 2)), 1, q, CFG, mode="pulsed")
    pulsed, _ = execute_schedule(start, build_uqcm_schedule(CFG), CFG)
    ideal, _ = run_uqcm(q, CFG)
    assert phase_aligned_distance(pulsed, ideal) < 1e-10


def test_run_uqcm_at_higher_cutoff_stays_in_the_low_sector():
    final, _ = run_uqcm(InputQubit.from_bloch(0.5, 2.0), CFG, fock_cutoff=3)
    assert final.photon_tail_population(2) < 1e-12


def test_run_uqcm_wraps_physics_errors_with_step_label():
    # a schedule whose step7 rotation fires while squid2 still holds e
    schedule = build_uqcm_schedule(CFG)
    truncated = Schedule(schedule.slots[:5] + schedule.slots[6:])  # drop step6
    with pytest.raises(PhysicsError, match="^step7: "):
        run_uqcm(InputQubit(1.0, 0.0), CFG, schedule=truncated)


@pytest.mark.parametrize("alpha, beta", [
    (math.nan, 0.0), (0.0, complex(math.nan, 0.0)), (math.inf, 0.0), (1.0, math.inf),
])
def test_input_qubit_rejects_non_finite_amplitudes(alpha, beta):
    with pytest.raises(ValueError):
        InputQubit(alpha, beta)
    with pytest.raises(ValueError):
        InputQubit.from_bloch(math.nan, 0.0)


def test_clone_batch_checks_every_input_row():
    from clone_sim import clone_batch

    alpha = np.array([1.0, 0.6, 0.6])
    beta = np.array([0.0, 0.8, math.nan])
    with pytest.raises(ValueError, match="sample 7"):
        clone_batch(alpha, beta, CFG, first_sample=5)
    with pytest.raises(ValueError):
        clone_batch(alpha, beta[:2], CFG)


def test_clone_batch_rejects_an_empty_batch():
    from clone_sim import clone_batch

    with pytest.raises(ValueError, match="batch is empty"):
        clone_batch(np.array([]), np.array([]))


def test_clone_batch_rows_equal_run_uqcm_finals():
    from clone_sim import clone_batch

    qs = [InputQubit(1.0, 0.0), InputQubit(0.0, 1.0), InputQubit.from_bloch(1.2, 0.4)]
    amps = clone_batch(np.array([q.alpha for q in qs]), np.array([q.beta for q in qs]), CFG)
    assert amps.shape == (3, 3, 3, 3, 3)
    for row, q in zip(amps, qs):
        final, _ = run_uqcm(q, CFG)
        assert np.array_equal(row.reshape(-1), final.amplitudes)


@pytest.mark.parametrize("fock_cutoff", [2, 8])
@pytest.mark.parametrize("jitter", [0.0, 0.2])
def test_clone_batch_rows_do_not_depend_on_the_batch(fock_cutoff, jitter):
    # batches of 1, 2, 100, 1024 and 1030 rows, cut from one sample range at
    # several first_sample offsets, against each other and single runs; ideal
    # rows take the nominal route (no slot factors), as run_uqcm without a
    # schedule does
    from clone_sim import clone_batch
    from clone_sim.protocol import (bloch_amplitudes, build_uqcm_schedule, draw_slot_factors,
                                    jitter_rng, perturbed_schedule)

    n, seed, ideal = 1030, 4242, jitter == 0.0
    rng = np.random.default_rng(seed)
    alpha, beta = bloch_amplitudes(np.arccos(1.0 - 2.0 * rng.random(n)),
                                   2.0 * math.pi * rng.random(n))
    factors = None if ideal else draw_slot_factors(jitter, (n, 11), jitter_rng(seed))
    whole = clone_batch(alpha, beta, CFG, fock_cutoff, factors, ideal)
    assert whole.shape == (n, 3, 3, 3, fock_cutoff + 1)
    for start, size in [(0, 1), (1029, 1), (511, 2), (7, 100), (0, 1024), (6, 1024)]:
        rows = slice(start, start + size)
        part = clone_batch(alpha[rows], beta[rows], CFG, fock_cutoff,
                           None if ideal else factors[rows], ideal, first_sample=start)
        assert np.array_equal(part, whole[rows]), (start, size)
    if ideal:  # each nominal row against its own walk
        walked = clone_batch(alpha, beta, CFG, fock_cutoff, np.ones((n, 11)))
        assert np.max(np.abs(whole - walked)) <= 1e-14
    base = build_uqcm_schedule(CFG)
    for k in sorted({0, 1, 99, 100, 1023, 1024, 1029} | set(range(0, n, 149))):
        q = InputQubit(complex(alpha[k]), complex(beta[k]))
        schedule = None if ideal else perturbed_schedule(base, jitter, _stream_at(seed, k))
        final, _ = run_uqcm(q, CFG, fock_cutoff, schedule=schedule, enforce_preconditions=ideal)
        assert np.array_equal(whole[k].reshape(-1), final.amplitudes), k


# ------------------------------------------------------------ jitter stream


def _stream_at(seed, k, n_slots=11):
    # the seed's jitter stream after sample k's predecessors, spelled out on its own
    bits = np.random.PCG64(np.random.SeedSequence([seed, 17]))
    return np.random.Generator(bits.advance(n_slots * k))


@given(seed=st.integers(0, 2**100), k=st.integers(0, 2100), n_slots=st.integers(1, 16))
@settings(max_examples=80, deadline=None)
def test_row_k_of_a_factor_draw_reads_the_stream_from_draw_k_times_n_slots(seed, k, n_slots):
    from clone_sim.protocol import draw_slot_factors, jitter_rng

    rows = draw_slot_factors(0.3, (k + 1, n_slots), jitter_rng(seed))
    assert rows.shape == (k + 1, n_slots)
    alone = draw_slot_factors(0.3, n_slots, _stream_at(seed, k, n_slots))
    assert rows[k].tobytes() == alone.tobytes()


def test_nominal_schedule_is_built_once_per_config():
    other = CouplingConfig(lam=2.0)
    assert build_uqcm_schedule(CFG) is build_uqcm_schedule(CFG)
    assert build_uqcm_schedule(other) is not build_uqcm_schedule(CFG)
    assert build_uqcm_schedule.__wrapped__(other) == build_uqcm_schedule(other)


# ------------------------------------------------- nominal coefficient table

RATES = st.floats(1e-3, 1e3)


@given(lam=RATES, omega_ge=RATES, omega_ie=RATES, lambda_prime=RATES,
       omega_gi=st.floats(1e-3, 1e9), fock_cutoff=st.integers(1, 8), rows=st.integers(1, 64),
       seed=st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_cached_nominal_route_equals_the_computed_route_bit_for_bit(
        lam, omega_ge, omega_ie, lambda_prime, omega_gi, fock_cutoff, rows, seed):
    # The cached program's nominal coefficients and all-ones factors, which
    # build every pulse per call, walk alike bit for bit: the identity pair
    # (the basis walk) and any nominal batch, or both raise the same error.
    # The basis walk keeps its final pair as the walked rows over the
    # program's basis list.
    from clone_sim import clone_batch
    from clone_sim.protocol import _uqcm_program, _walked_clones, bloch_amplitudes

    cfg = CouplingConfig(lam=lam, omega_ge=omega_ge, omega_ie=omega_ie,
                         lambda_prime=lambda_prime, omega_gi=omega_gi)
    rng = np.random.default_rng(seed)
    alpha, beta = bloch_amplitudes(np.arccos(1.0 - 2.0 * rng.random(rows)),
                                   2.0 * math.pi * rng.random(rows))
    program = _uqcm_program(cfg, fock_cutoff)
    basis_walks = [_outcome(lambda: _walked_clones(np.eye(2, dtype=complex), program, factors,
                                                   True))
                   for factors in (None, np.ones((2, 11)))]
    assert _same(*basis_walks)
    nominal = _outcome(lambda: clone_batch(alpha, beta, cfg, fock_cutoff))
    walked = _outcome(lambda: clone_batch(alpha, beta, cfg, fock_cutoff, np.ones((rows, 11))))
    assert _same(nominal, walked)
    if program.basis is None:
        assert isinstance(basis_walks[0], tuple)
        return
    assert program.basis.basis_list is program.basis_list
    assert program.basis.psi.tobytes() == basis_walks[0].tobytes()


def _outcome(call):
    """``call()``'s array, or the (type, message) of the PhysicsError or ValueError it raised."""
    try:
        return call()
    except (PhysicsError, ValueError) as exc:
        return type(exc), str(exc)


def _same(first, second):
    if isinstance(first, tuple) or isinstance(second, tuple):
        return first == second
    return first.tobytes() == second.tobytes()


@pytest.mark.parametrize("fock_cutoff", [2, 32])
def test_nominal_trace_entries_are_the_basis_snapshots_times_the_input(fock_cutoff):
    # a nominal trace walks the cached program over its basis list, bit for
    # bit the walk of the schedule compiled for this call, and its last
    # entry lies within 1e-14 of Psi x, the basis walk's final pair times
    # the input's (g, i) pair
    from clone_sim.protocol import _uqcm_program

    q = InputQubit.from_bloch(1.1, 0.4)
    x = q.gi_vector()
    program = _uqcm_program(CFG, fock_cutoff)
    _, trace = run_uqcm(q, CFG, fock_cutoff)
    _, walked = run_uqcm(q, CFG, fock_cutoff, schedule=build_uqcm_schedule(CFG))
    assert [(e.label, e.t_elapsed) for e in trace.entries] == (
        [(e.label, e.t_elapsed) for e in walked.entries])
    for entry, other in zip(trace.entries, walked.entries, strict=True):
        assert entry.basis is program.basis_list and len(entry.amplitudes) == 45
        assert entry.amplitudes.tobytes() == other.amplitudes.tobytes()
    psi = program.basis.psi
    psi_x = psi[:, 0] * x[0] + psi[:, 1] * x[1]
    assert np.max(np.abs(trace.entries[-1].amplitudes - psi_x)) <= 1e-14
    dense = program.basis_list.dense(psi_x[None], fock_cutoff)[0]
    assert np.max(np.abs(trace.entries[-1].state.tensor() - dense)) <= 1e-14


@pytest.mark.parametrize("alpha, beta", [
    (math.sqrt(1.0 - 9e-13), 0.0),
    (0.0, complex(0.0, math.sqrt(1.0 - 9e-13))),
    (0.6 * math.sqrt(1.0 - 9e-13), 0.8j * math.sqrt(1.0 - 9e-13)),
])
def test_an_input_at_the_edge_of_the_accepted_norm_gets_the_walks_verdict(alpha, beta):
    # |alpha|^2 + |beta|^2 = 1 - 9e-13 passes the input check, and the
    # certificate's margin still clears it: the rows are Psi x, within
    # 1e-14 of the walk, and pass every check the walk passes
    from clone_sim import clone_batch
    from clone_sim.protocol import _uqcm_program, gi_amplitudes

    alpha, beta = np.array([alpha], dtype=complex), np.array([beta], dtype=complex)
    assert 8e-13 < 1.0 - (abs(alpha[0]) ** 2 + abs(beta[0]) ** 2) < 1e-12
    assert _uqcm_program(CFG, 2).basis.clears(gi_amplitudes(alpha, beta))
    nominal = clone_batch(alpha, beta, CFG)
    walked = clone_batch(alpha, beta, CFG, slot_factors=np.ones((1, 11)))
    assert np.max(np.abs(nominal - walked)) <= 1e-14
    final, _ = run_uqcm(InputQubit(complex(alpha[0]), complex(beta[0])), CFG)
    assert final.amplitudes.tobytes() == nominal[0].tobytes()


def test_a_batch_the_certificate_does_not_clear_is_walked(monkeypatch):
    import dataclasses

    from clone_sim import clone_batch, protocol
    from clone_sim.protocol import bloch_amplitudes, gi_amplitudes

    rng = np.random.default_rng(28)
    alpha, beta = bloch_amplitudes(np.arccos(1.0 - 2.0 * rng.random(40)),
                                   2.0 * math.pi * rng.random(40))
    gi = gi_amplitudes(alpha, beta)
    program = protocol._uqcm_program.__wrapped__(CFG, 2)
    basis = program.basis
    assert basis.clears(gi)
    leaky = dataclasses.replace(basis, leak_hi=E_LEAK_TOL)
    assert not leaky.clears(gi)
    program.__dict__["basis"] = dataclasses.replace(basis, margin=math.inf)
    monkeypatch.setattr(protocol, "_uqcm_program", lambda cfg, fock_cutoff: program)
    assert clone_batch(alpha, beta, CFG).tobytes() == clone_batch(
        alpha, beta, CFG, slot_factors=np.ones((40, 11))).tobytes()
    q = InputQubit.from_bloch(1.1, 0.4)
    _, trace = run_uqcm(q, CFG)
    _, walked = run_uqcm(q, CFG, schedule=build_uqcm_schedule(CFG))
    for entry, other in zip(trace.entries, walked.entries, strict=True):
        assert entry.state.amplitudes.tobytes() == other.state.amplitudes.tobytes()


def test_one_cached_program_serves_clones_with_read_only_coefficients():
    from clone_sim import clone_batch
    from clone_sim.protocol import _uqcm_program

    schedule = build_uqcm_schedule(CFG)
    program = _uqcm_program(CFG, 2)
    pulses = [pulse for _, _, run in program.runs for pulse in run]
    assert program.n_slots == len(schedule.slots)
    assert [(k, op) for k, op, _, _ in pulses] == [
        (k, op) for k, slot in enumerate(schedule.slots) for track in slot.tracks for op in track]
    info = _uqcm_program.cache_info()
    clone_batch(np.ones(3), np.zeros(3), CFG, 2)
    assert _uqcm_program.cache_info()[:2] == (info.hits + 1, info.misses)
    run_uqcm(InputQubit(1.0, 0.0), CFG, 2)
    assert _uqcm_program.cache_info()[:2] == (info.hits + 2, info.misses)
    for _, _, coeffs, _ in pulses:
        for array in coeffs:
            assert array.shape in {(1,), (2, 1)}
            before = array.copy()
            with pytest.raises(ValueError, match="read-only"):
                array[...] = 0.0
            assert np.array_equal(array, before)


def test_a_warm_nominal_clone_hashes_no_schedule_and_at_most_one_config(monkeypatch):
    from clone_sim import clone_batch
    from clone_sim.protocol import bloch_amplitudes

    rng = np.random.default_rng(26)
    alpha, beta = bloch_amplitudes(np.arccos(1.0 - 2.0 * rng.random(100)),
                                   2.0 * math.pi * rng.random(100))
    q = InputQubit.from_bloch(1.3, 0.2)
    calls = [lambda: run_uqcm(q, CFG, fock_cutoff=32), lambda: clone_batch(alpha, beta, CFG)]
    for call in calls:
        call()  # warm-up
    counts = {}
    for cls in (PulseOp, Slot, Schedule, CouplingConfig):
        def counting(self, original=cls.__hash__, name=cls.__name__):
            counts[name] = counts.get(name, 0) + 1
            return original(self)

        monkeypatch.setattr(cls, "__hash__", counting)
    for call in calls:
        counts.clear()
        call()
        assert counts.get("CouplingConfig", 0) <= 1
        assert [counts.get(name, 0) for name in ("PulseOp", "Slot", "Schedule")] == [0, 0, 0]


def test_phase_closure_overflow_names_the_rate_and_the_pulse_time():
    with pytest.raises(ValueError, match=r"omega_gi = 1e\+308 .* pulse time 2\.35619449019"):
        process_times(CouplingConfig(omega_gi=1e308))
    with pytest.raises(ValueError, match=r"omega_gi = 20\.0 .* pulse time inf"):
        build_uqcm_schedule(CouplingConfig(lambda_prime=1e-310))


# ------------------------------------------------------ proven photon support


def _pattern(schedule):
    return tuple((op.variant, op.squid)
                 for slot in schedule.slots for track in slot.tracks for op in track)


CLONE_START = ((LEVEL_G, LEVEL_G, LEVEL_G, 0), (LEVEL_I, LEVEL_G, LEVEL_G, 0))


def _check_reach(pattern, start, fock_cutoff, reach):
    from clone_sim.protocol import _photon_reach

    states, first = _photon_reach(pattern, start, fock_cutoff)
    assert not states.flags.writeable and not first.flags.writeable
    reached = [tuple(state) for state in states.tolist()]
    assert max(state[-1] for state in reached) == reach
    assert reached == sorted(set(reached))
    assert [state for state, j in zip(reached, first.tolist()) if j == 0] == sorted(start)
    # a state reached by pulse j - 1 is one of its partners, within the cutoff
    for state, j in zip(reached, first.tolist()):
        assert state[-1] <= fock_cutoff
        if j:
            variant, squid = pattern[j - 1]
            a, b, shift = COUPLED_LEVELS[variant]
            assert state[squid - 1] in (a, b)
    return reached


@pytest.mark.parametrize("pattern, reach", [
    ((), 0),
    (((PulseVariant.JC, 1), (PulseVariant.JC, 2)), 0),  # |g, 0> is dark
    (((PulseVariant.DRIVE_GE, 2), (PulseVariant.JC, 2)), 1),
    (((PulseVariant.DRIVE_IE, 1), (PulseVariant.JC, 1)), 1),  # the input's |i> part
    (((PulseVariant.RAMAN, 3), (PulseVariant.DRIVE_GE, 3), (PulseVariant.JC, 3)), 1),
    (((PulseVariant.DRIVE_GE, 2), (PulseVariant.JC, 2)) * 2, 2),
    (((PulseVariant.DRIVE_GE, 2), (PulseVariant.FREE_EVOLVE, 2), (PulseVariant.JC, 3)), 0),
    (((PulseVariant.JC, 2), (PulseVariant.DRIVE_GE, 2)), 0),  # order matters
])
def test_photon_reach_follows_each_pulse_in_walk_order(pattern, reach):
    _check_reach(pattern, CLONE_START, 8, reach)


@pytest.mark.parametrize("pattern, start, fock_cutoff, reach, size", [
    (((PulseVariant.DRIVE_GE, 2), (PulseVariant.JC, 2)) * 2, CLONE_START, 8, 2, 10),
    (((PulseVariant.DRIVE_GE, 2), (PulseVariant.JC, 2)) * 2, CLONE_START, 1, 1, 8),
    (((PulseVariant.JC, 1),),
     ((LEVEL_E, LEVEL_G, LEVEL_G, 0), (LEVEL_E, LEVEL_E, LEVEL_G, 1)), 3, 2, 4),
    (((PulseVariant.JC, 1),), ((LEVEL_E, LEVEL_G, LEVEL_G, 1),), 2, 2, 2),
    (((PulseVariant.JC, 1),), ((LEVEL_E, LEVEL_G, LEVEL_G, 1),), 1, 1, 1),  # no |g, 2>
    (((PulseVariant.JC, 2), (PulseVariant.RAMAN, 1)), ((LEVEL_G, LEVEL_E, 0),), 4, 1, 4),
])
def test_photon_reach_walks_any_start_in_the_truncated_register(pattern, start, fock_cutoff,
                                                               reach, size):
    # other start sets, a two-SQUID register, and partners beyond the cutoff,
    # which do not exist: |e, g, g, 1> under JC on SQUID 1 at cutoff 1 reaches nothing new
    assert len(_check_reach(pattern, start, fock_cutoff, reach)) == size


def test_a_clone_schedule_on_a_squid_outside_the_register_raises_before_any_walk():
    schedule = Schedule((Slot("x", ((PulseOp(PulseVariant.JC, 4, 1.0),),)),))
    with pytest.raises(ValueError, match=r"^squid index 4 outside 1\.\.3$"):
        run_uqcm(InputQubit(1.0, 0.0), CFG, schedule=schedule)


def _inject_dense(amps, gi):
    """Move SQUID 1's |g> amplitudes of the batch-last register rows onto the (g, i) pairs ``gi``."""
    g_old = amps[LEVEL_G].copy()
    amps[LEVEL_G] = gi[:, 0] * g_old
    amps[LEVEL_I] = gi[:, 1] * g_old


def _register_walk(amps, schedule, fock_cutoff, factors=None):
    """Walk the (..., B) register rows ``amps`` through ``schedule``, unguarded, in place.

    Every pulse runs through ``run_pulse`` over the whole register's
    ``pulse_rows``, not through a compiled program; row b of slot k lasts
    its nominal duration times ``factors[b, k]``, or the nominal duration.
    """
    from clone_sim.dynamics import pulse_coefficients, pulse_rows, run_pulse
    from clone_sim.hilbert import BasisList

    labels = BasisList.full(BasisSpec(3, fock_cutoff)).labels
    rows = amps.reshape(-1, amps.shape[-1])
    assert np.shares_memory(rows, amps)
    for k, slot in enumerate(schedule.slots):
        for track in slot.tracks:
            for op in track:
                durations = op.duration * (np.ones(1) if factors is None else factors[:, k])
                coeffs = pulse_coefficients(op, durations, fock_cutoff, CFG)
                run_pulse(rows, op, coeffs, pulse_rows(op, labels), guarded=False)


def _support_defects(fock_cutoff, rows=1000, seed=2024):
    """What fails of the support walk's promise on ``rows`` jittered clones at ``fock_cutoff``.

    The reached set comes from each pulse's ``build_generator`` nonzero
    pattern, not from ``_photon_reach``'s coupling table.  Every row runs
    its own slot factors, with jitter up to 0.99, through
    ``_register_walk`` over the whole register.
    """
    from clone_sim import build_generator, clone_batch
    from clone_sim.protocol import _photon_reach, _uqcm_program, bloch_amplitudes, gi_amplitudes

    schedule = build_uqcm_schedule(CFG)
    spec = BasisSpec(3, fock_cutoff)
    reached = np.zeros(spec.dimension, dtype=bool)
    for level in ("g", "i"):
        reached[basis_index(spec, (level, "g", "g"), 0)] = True
    couples = {}
    for slot in schedule.slots:
        for track in slot.tracks:
            for pulse in track:
                key = (pulse.variant, pulse.squid)
                if key not in couples:
                    couples[key] = build_generator(pulse, spec, CFG) != 0
                reached |= couples[key] @ reached
    reached = reached.reshape(spec.factor_dims)

    rng = np.random.default_rng((seed, fock_cutoff))
    alpha, beta = bloch_amplitudes(np.arccos(1.0 - 2.0 * rng.random(rows)),
                                   2.0 * math.pi * rng.random(rows))
    jitter = rng.uniform(0.0, 0.99, (rows, 1))
    factors = 1.0 + jitter * rng.uniform(-1.0, 1.0, (rows, len(schedule.slots)))
    amps = np.zeros(spec.factor_dims + (rows,), dtype=complex)
    amps[0, 0, 0, 0] = 1.0
    _inject_dense(amps, gi_amplitudes(alpha, beta))
    _register_walk(amps, schedule, fock_cutoff, factors)
    full = np.moveaxis(amps, -1, 0)

    states = [tuple(state) for state in
              _photon_reach(_pattern(schedule), CLONE_START, fock_cutoff)[0].tolist()]
    reach = max(state[-1] for state in states)
    photons = np.nonzero(reached)[-1]
    defects = []
    if int(photons.max()) != reach:
        defects.append(f"generator walk reaches {int(photons.max())} photons, not {reach}")
    if set(zip(*(axis.tolist() for axis in np.nonzero(reached)))) != set(states):
        defects.append("the generator walk reaches another set of states")
    listed = _uqcm_program(CFG, fock_cutoff).basis_list
    if listed.index.tolist() != np.flatnonzero(reached[..., :listed.spec.fock_cutoff + 1]).tolist():
        defects.append("the clone program lists another set of states")
    if np.any(full[:, ~reached] != 0.0):
        defects.append("amplitude outside the reached set")
    if not np.all(np.any(full[:, reached] != 0.0, axis=0)):
        defects.append("a reached state is zero in every row")
    walked = clone_batch(alpha, beta, CFG, fock_cutoff, factors, False)
    if not np.array_equal(walked[..., :reach + 1], full[..., :reach + 1]):
        defects.append("n <= reach block differs from the walk over the whole register")
    if np.any(walked[..., reach + 1:] != 0.0):
        defects.append("padding is not zero")
    if not np.any(full[..., reach] != 0.0):
        defects.append(f"no row reaches {reach} photons")
    return defects


@pytest.mark.parametrize("fock_cutoff", [3, 8, 32])
def test_clones_stay_on_the_proven_photon_support(fock_cutoff):
    # equality up to the sign of zero: a zero the walk over the whole
    # register reaches through states off the list may carry the other sign;
    # the 45 reached states are the generators' set, each nonzero in some row
    from clone_sim.protocol import _photon_reach

    assert _support_defects(fock_cutoff) == []
    assert len(_photon_reach(_pattern(build_uqcm_schedule(CFG)), CLONE_START, fock_cutoff)[0]) == 45


def test_a_reach_one_too_low_breaks_the_support_check(monkeypatch):
    from clone_sim import protocol

    def lowered(pattern, start, fock_cutoff):
        states, first = original(pattern, start, fock_cutoff)
        kept = states[:, -1] < states[:, -1].max()
        return states[kept], first[kept]

    original = protocol._photon_reach
    monkeypatch.setattr(protocol, "_photon_reach", lowered)
    # a fresh program cache, so clone_batch compiles under the lowered reach
    monkeypatch.setattr(protocol, "_uqcm_program",
                        functools.lru_cache(protocol._uqcm_program.__wrapped__))
    defects = _support_defects(8)
    assert "n <= reach block differs from the walk over the whole register" in defects
    assert "the generator walk reaches another set of states" in defects


def _sparse_start(rng, spec, batch):
    """(support, start states, (S, batch) columns): 1-4 random basis states of ``spec``.

    The states are in C order, and each column of amplitudes on them has
    norm 1.
    """
    support = np.sort(rng.choice(spec.dimension, rng.integers(1, 5), replace=False))
    start = tuple(zip(*(axis.tolist() for axis in np.unravel_index(support, spec.factor_dims))))
    columns = rng.standard_normal((len(support), batch, 2)).view(complex)[..., 0]
    return support, start, columns / np.linalg.norm(columns, axis=0)


def _schedules_under_test():
    from clone_sim.protocol import PROCESS_ONE_PHASE, PROCESS_TWO_PHASE, _process_track

    tracks = (("process_one", _process_track(1, PROCESS_ONE_PHASE, CFG)),
              ("process_two", _process_track(2, PROCESS_TWO_PHASE, CFG)),
              ("cnot", (PulseOp(PulseVariant.JC, 3, math.pi / CFG.lam),)))
    return [build_uqcm_schedule(CFG)] + [Schedule((Slot(label, (track,)),))
                                         for label, track in tracks]


@pytest.mark.parametrize("fock_cutoff", [1, 2, 3, 8])
def test_a_sparse_start_walks_its_reached_set_as_the_whole_register_does(fock_cutoff):
    from clone_sim.protocol import _compile, _start_rows, _walk

    spec = BasisSpec(3, fock_cutoff)
    rng = np.random.default_rng((37, fock_cutoff))
    for schedule in _schedules_under_test():
        for _ in range(8):
            support, start, columns = _sparse_start(rng, spec, 2)
            full = np.zeros((spec.dimension, 2), dtype=complex)
            full[support] = columns
            _register_walk(full, schedule, fock_cutoff)
            program = _compile(schedule, CFG, spec, start)
            rows = _start_rows(program, columns)
            _walk(rows, program, None, False)
            basis_list = program.basis_list
            on_list = basis_list.dense(np.ones((1, len(rows))), fock_cutoff).reshape(-1) == 1.0
            listed = basis_list.dense(rows.T, fock_cutoff).reshape(2, -1).T
            # a batch of two shares the whole-register walk's rounding, so every
            # listed amplitude is the same number; off the list it is zero
            assert np.array_equal(listed[on_list], full[on_list])
            assert not np.any(full[~on_list])
            amplitudes = np.zeros(spec.dimension, dtype=complex)
            amplitudes[support] = columns[:, 0]
            final, _ = execute_schedule(PureState(amplitudes, spec), schedule, CFG,
                                        enforce_preconditions=False)
            assert np.max(np.abs(final.amplitudes - full[:, 0])) <= 1e-15


def test_execute_schedule_at_cutoff_1000_pads_the_cutoff_2_walk_with_zeros():
    q = InputQubit.from_bloch(1.1, 0.4)
    finals = []
    for fock_cutoff in (2, 1000):
        spec = BasisSpec(3, fock_cutoff)
        start = prepare_input(PureState.basis_state(spec, ("g", "g", "g"), 0), 1, q, CFG)
        final, trace = execute_schedule(start, build_uqcm_schedule(CFG), CFG)
        assert max(len(entry.basis.index) for entry in trace.entries) <= 45
        finals.append(final.tensor())
    assert np.array_equal(finals[1][..., :3], finals[0])
    assert not np.any(finals[1][..., 3:])


@pytest.mark.parametrize("jitter", [0.0, 0.5])
def test_run_uqcm_builds_snapshots_only_when_they_are_read(monkeypatch, jitter):
    from clone_sim.protocol import jitter_rng, perturbed_schedule

    q = InputQubit.from_bloch(1.3, 0.2)
    schedule = build_uqcm_schedule(CFG)
    if jitter:
        schedule = perturbed_schedule(schedule, jitter, jitter_rng(4))
    built = []
    post_init = PureState.__post_init__

    def counting(self):
        built.append(self.spec)
        post_init(self)

    monkeypatch.setattr(PureState, "__post_init__", counting)
    final, trace = run_uqcm(q, CFG, 32, schedule, enforce_preconditions=not jitter)
    assert len(built) <= 1
    assert trace.entries[-1].state is final
    monkeypatch.undo()

    spec = BasisSpec(3, 32)
    start = prepare_input(PureState.basis_state(spec, ("g", "g", "g"), 0), 1, q, CFG)
    _, full = execute_schedule(start, schedule, CFG, enforce_preconditions=not jitter)
    assert [(e.label, e.t_elapsed) for e in trace.entries] == (
        [("input", 0.0)] + [(e.label, e.t_elapsed) for e in full.entries])
    for entry, state in zip(trace.entries, [start] + [e.state for e in full.entries]):
        assert entry.state.spec == spec
        assert np.array_equal(entry.state.amplitudes, state.amplitudes), entry.label
