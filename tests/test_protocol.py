"""Protocol steps, schedule construction, and the end-to-end cloning run."""

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
    equal_up_to_global_phase,
    execute_schedule,
    phase_aligned_distance,
    prepare_input,
    process_one,
    process_times,
    process_two,
    run_uqcm,
    target_state,
)
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


def test_process_rejects_e_population_unless_told_not_to():
    spec = BasisSpec(1, 1)
    excited = PureState.basis_state(spec, ("e",), 0)
    with pytest.raises(LeakageError):
        process_one(excited, 1, CFG)
    out, _ = process_one(excited, 1, CFG, e_tol=math.inf)
    assert abs(amp(out, ("e",), 0) - 1.0) < 1e-15


# ------------------------------------------------------- slots and schedule


def op(variant, squid, duration=1.0):
    return PulseOp(variant, squid, duration)


def test_slot_rejects_track_mixing_targets():
    with pytest.raises(ValueError):
        Slot("s", "bad", ((op(PulseVariant.DRIVE_GE, 1), op(PulseVariant.DRIVE_GE, 2)),))


def test_slot_rejects_duplicate_targets_across_tracks():
    with pytest.raises(ValueError):
        Slot("s", "bad", ((op(PulseVariant.DRIVE_GE, 1),), (op(PulseVariant.DRIVE_IE, 1),)))


def test_slot_rejects_two_cavity_ops():
    with pytest.raises(ValueError):
        Slot("s", "bad", ((op(PulseVariant.JC, 1),), (op(PulseVariant.JC, 2),)))


def test_slot_rejects_empty_tracks_and_short_duration():
    with pytest.raises(ValueError):
        Slot("s", "bad", ())
    with pytest.raises(ValueError):
        Slot("s", "bad", ((),))


def test_slot_duration_defaults_to_longest_track():
    slot = Slot("s", "ok", (
        (op(PulseVariant.RAMAN, 1, 1.0), op(PulseVariant.FREE_EVOLVE, 1, 0.5)),
        (op(PulseVariant.DRIVE_GE, 2, 0.4),),
    ))
    assert slot.duration == 1.5


def test_schedule_durations():
    assert Schedule(()).total_duration == 0.0
    lone = Schedule((Slot("s", "swap", ((op(PulseVariant.JC, 1, math.pi),),)),))
    assert abs(lone.total_duration - math.pi) < 1e-15


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
    assert abs(build_uqcm_schedule(CFG).total_duration - expected) < 1e-12


def test_schedule_to_dict_shape():
    payload = build_uqcm_schedule(CFG).to_dict()
    assert len(payload["slots"]) == 11
    first = payload["slots"][0]["tracks"][0][0]
    assert first["variant"] == "drive_ge" and first["target"] == 2


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
        Slot("lift", "push g into e", ((op(PulseVariant.DRIVE_GE, 1, math.pi / 2),),)),
        Slot("rotate", "two-pulse on loaded e", ((op(PulseVariant.RAMAN, 1, 1.0),),)),
    ))
    start = fresh(BasisSpec(3, 2))
    with pytest.raises(LeakageError, match="^rotate: "):
        execute_schedule(start, bad, CFG)


def test_trace_snapshots_per_step_with_increasing_clock():
    q = InputQubit(1.0, 0.0)
    _, trace = run_uqcm(q, CFG)
    assert trace.labels() == ("input",) + STEP_LABELS
    times = [entry.t_elapsed for entry in trace.entries]
    assert times == sorted(times)
    assert times[0] == 0.0
    assert abs(times[-1] - build_uqcm_schedule(CFG).total_duration) < 1e-12
    for entry in trace.entries:
        assert abs(entry.state.norm() - 1.0) < 1e-12


def test_trace_lookup_and_json_round_trip():
    _, trace = run_uqcm(InputQubit(0.0, 1.0), CFG)
    entry = trace.entry("step4")
    assert entry.label == "step4"
    with pytest.raises(ValueError):
        trace.entry("step99")
    payload = trace.to_dict()
    assert [item["label"] for item in payload] == list(trace.labels())


def test_run_uqcm_hits_target_for_basis_inputs():
    for q in (InputQubit(1.0, 0.0), InputQubit(0.0, 1.0)):
        final, _ = run_uqcm(q, CFG)
        assert equal_up_to_global_phase(final, target_state(q, final.spec), tol=1e-10)


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
    # several first_sample offsets, against each other and single runs
    from clone_sim import clone_batch
    from clone_sim.protocol import (bloch_amplitudes, build_uqcm_schedule, draw_slot_factors,
                                    jitter_rng, perturbed_schedule)

    n, seed, ideal = 1030, 4242, jitter == 0.0
    rng = np.random.default_rng(seed)
    alpha, beta = bloch_amplitudes(np.arccos(1.0 - 2.0 * rng.random(n)),
                                   2.0 * math.pi * rng.random(n))
    factors = np.ones((n, 11)) if ideal else draw_slot_factors(jitter, (n, 11), jitter_rng(seed))
    whole = clone_batch(alpha, beta, CFG, fock_cutoff, factors, ideal)
    assert whole.shape == (n, 3, 3, 3, fock_cutoff + 1)
    for start, size in [(0, 1), (1029, 1), (511, 2), (7, 100), (0, 1024), (6, 1024)]:
        rows = slice(start, start + size)
        part = clone_batch(alpha[rows], beta[rows], CFG, fock_cutoff, factors[rows], ideal,
                           first_sample=start)
        assert np.array_equal(part, whole[rows]), (start, size)
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
