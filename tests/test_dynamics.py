"""Pulse primitives: closed-form values, unitarity, composition, generator oracle."""

import math

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st

from clone_sim import (
    BasisSpec,
    CouplingConfig,
    LeakageError,
    PulseOp,
    PulseVariant,
    PureState,
    apply_drive_ge,
    apply_drive_ie,
    apply_free_evolution,
    apply_jc,
    apply_pulse_op,
    apply_raman,
    basis_index,
    basis_tuple,
    build_generator,
    diagonalize_generator,
    evolve_diagonalized,
    evolve_exact,
    inner_product,
    partial_trace,
)
from conftest import random_pure_state

CFG = CouplingConfig()
RT2 = math.sqrt(2.0)

ALL_VARIANTS = (
    PulseVariant.JC,
    PulseVariant.DRIVE_GE,
    PulseVariant.DRIVE_IE,
    PulseVariant.RAMAN,
    PulseVariant.FREE_EVOLVE,
)


def single(levels="g", photons=0, fock=2):
    spec = BasisSpec(1, fock)
    return PureState.basis_state(spec, (levels,), photons)


def amp(state, levels, photons):
    return state.amplitudes[basis_index(state.spec, levels, photons)]


# --------------------------------------------------------------- validation


def test_coupling_config_rejects_nonpositive_rates():
    for field in ("lam", "omega_ge", "omega_ie", "lambda_prime", "omega_gi"):
        with pytest.raises(ValueError):
            CouplingConfig(**{field: 0.0})


def test_coupling_config_rejects_non_finite_rates():
    with pytest.raises(ValueError, match="lam must be finite"):
        CouplingConfig(lam=math.inf)
    with pytest.raises(ValueError, match="omega_gi"):
        CouplingConfig(omega_gi=math.nan)


def test_pulse_op_validation():
    with pytest.raises(ValueError):
        PulseOp(PulseVariant.JC, 0, 1.0)
    with pytest.raises(ValueError):
        PulseOp(PulseVariant.JC, 1, -0.1)
    op = PulseOp(PulseVariant.RAMAN, 2, 1.5, phi1=0.25, phi2=0.5)
    assert op.to_dict() == {
        "variant": "raman", "target": 2, "duration": 1.5, "phi1": 0.25, "phi2": 0.5,
    }


@pytest.mark.parametrize("duration", [math.nan, math.inf])
def test_non_finite_durations_are_argument_errors(duration):
    # a ValueError for the bad argument, not the norm check's NormalizationError
    with pytest.raises(ValueError, match="duration must be finite"):
        PulseOp(PulseVariant.JC, 1, duration)
    state = PureState.basis_state(BasisSpec(1, 1), ("g",), 1)
    with pytest.raises(ValueError, match="duration must be finite"):
        apply_jc(state, 1, duration, CFG)


@pytest.mark.parametrize("phase", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("name", ["phi1", "phi2"])
def test_non_finite_phases_are_argument_errors(name, phase):
    phases = {"phi1": 0.0, "phi2": 0.0, name: phase}
    with pytest.raises(ValueError, match=f"{name} must be finite"):
        PulseOp(PulseVariant.RAMAN, 1, 1.0, **phases)
    state = PureState.basis_state(BasisSpec(1, 1), ("g",), 0)
    with pytest.raises(ValueError, match=f"{name} must be finite"):
        apply_raman(state, 1, 1.0, phases["phi1"], phases["phi2"], CFG)
    with pytest.raises(ValueError, match=f"{name} must be finite"):
        build_generator(PulseOp(PulseVariant.RAMAN, 1, 1.0, **phases), BasisSpec(1, 1), CFG)


# ------------------------------------------------------------ cavity swap


def test_jc_half_period_moves_g1_to_e0():
    out = apply_jc(single("g", 1), 1, math.pi / 2.0, CFG)
    assert abs(amp(out, ("e",), 0) - (-1j)) < 1e-15
    assert abs(amp(out, ("g",), 1)) < 1e-15


def test_jc_dark_states():
    assert np.array_equal(apply_jc(single("g", 0), 1, 0.83, CFG).amplitudes,
                          single("g", 0).amplitudes)
    assert np.array_equal(apply_jc(single("i", 1), 1, 0.83, CFG).amplitudes,
                          single("i", 1).amplitudes)


def test_jc_two_photon_block_runs_at_sqrt2_rate():
    # frozen from the closed form on the {|g,2>, |e,1>} block
    theta = math.sqrt(2.0) * math.pi / 4.0
    out = apply_jc(single("e", 1), 1, math.pi / 4.0, CFG)
    assert abs(amp(out, ("e",), 1) - math.cos(theta)) < 1e-15
    assert abs(amp(out, ("g",), 2) - (-1j * math.sin(theta))) < 1e-15


def test_jc_respects_truncation_edge():
    # |e, fock_cutoff> has no |g, fock_cutoff+1> partner and must stay put
    out = apply_jc(single("e", 2), 1, 1.3, CFG)
    assert abs(amp(out, ("e",), 2) - 1.0) < 1e-15


def test_jc_excitation_sector_populations_conserved():
    spec = BasisSpec(1, 2)
    psi = random_pure_state(41, spec)

    def sector_pops(state):
        pops = {}
        for idx, a in enumerate(state.amplitudes):
            (lev,), n = basis_tuple(spec, idx)
            key = n + (1 if lev == 2 else 0)
            pops[key] = pops.get(key, 0.0) + abs(a) ** 2
        return pops

    before = sector_pops(psi)
    after = sector_pops(apply_jc(psi, 1, 0.9, CFG))
    for key in sorted(set(before) | set(after)):
        assert abs(before.get(key, 0.0) - after.get(key, 0.0)) < 1e-12


# ----------------------------------------------------------- level drives


def test_drive_ge_quarter_rotation_and_spectator():
    out = apply_drive_ge(single("g"), 1, math.pi / 2.0, CFG)
    assert abs(amp(out, ("e",), 0) - (-1j)) < 1e-15
    idle = apply_drive_ge(single("i"), 1, 1.7, CFG)
    assert abs(amp(idle, ("i",), 0) - 1.0) < 1e-15
    same = apply_drive_ge(single("g"), 1, 0.0, CFG)
    assert np.array_equal(same.amplitudes, single("g").amplitudes)


def test_drive_ie_both_rows_and_spectator():
    up = apply_drive_ie(single("i"), 1, math.pi / 2.0, CFG)
    assert abs(amp(up, ("e",), 0) - (-1j)) < 1e-15
    down = apply_drive_ie(single("e"), 1, math.pi / 2.0, CFG)
    assert abs(amp(down, ("i",), 0) - (-1j)) < 1e-15
    idle = apply_drive_ie(single("g"), 1, 2.3, CFG)
    assert abs(amp(idle, ("g",), 0) - 1.0) < 1e-15


# ------------------------------------------------------- two-pulse rotation


def closure_times(cfg):
    t1 = 3.0 * math.pi / (4.0 * cfg.lambda_prime)
    periods = math.ceil(cfg.omega_gi * t1 / (2.0 * math.pi))
    return t1, 2.0 * math.pi * periods / cfg.omega_gi - t1


def test_raman_with_phase_3pi2_sends_g_to_minus_plus():
    t1, t2 = closure_times(CFG)
    out = apply_raman(single("g"), 1, t1, 3.0 * math.pi / 2.0, 0.0, CFG)
    out = apply_free_evolution(out, 1, t2, CFG)
    assert abs(amp(out, ("g",), 0) - (-1.0 / RT2)) < 1e-12
    assert abs(amp(out, ("i",), 0) - (-1.0 / RT2)) < 1e-12


def test_raman_with_phase_pi2_sends_i_to_minus_plus():
    t1, t2 = closure_times(CFG)
    out = apply_raman(single("i"), 1, t1, math.pi / 2.0, 0.0, CFG)
    out = apply_free_evolution(out, 1, t2, CFG)
    assert abs(amp(out, ("g",), 0) - (-1.0 / RT2)) < 1e-12
    assert abs(amp(out, ("i",), 0) - (-1.0 / RT2)) < 1e-12


def test_raman_zero_duration_is_identity():
    psi = PureState.from_amplitudes([0.6, 0.8j, 0, 0, 0, 0], BasisSpec(1, 1))
    out = apply_raman(psi, 1, 0.0, 1.1, 0.4, CFG)
    assert np.max(np.abs(out.amplitudes - psi.amplitudes)) < 1e-15


def test_raman_guards_against_e_population():
    with pytest.raises(LeakageError):
        apply_raman(single("e"), 1, 1.0, 0.0, 0.0, CFG)
    # with the guard off the e amplitudes ride along untouched
    out = apply_raman(single("e"), 1, 1.0, 0.0, 0.0, CFG, e_tol=math.inf)
    assert abs(amp(out, ("e",), 0) - 1.0) < 1e-15


def test_free_evolution_phases():
    w = CFG.omega_gi
    fixed = apply_free_evolution(single("g"), 1, 0.77, CFG)
    assert abs(amp(fixed, ("g",), 0) - 1.0) < 1e-15
    full = apply_free_evolution(single("i"), 1, 2.0 * math.pi / w, CFG)
    assert abs(amp(full, ("i",), 0) - 1.0) < 1e-12
    half = apply_free_evolution(single("i"), 1, math.pi / w, CFG)
    assert abs(amp(half, ("i",), 0) - (-1.0)) < 1e-12


# ---------------------------------------------------------------- locality


@pytest.mark.parametrize("variant", ALL_VARIANTS)
def test_primitives_leave_spectator_squids_alone(variant):
    spec = BasisSpec(3, 1)
    psi = random_pure_state((43, ALL_VARIANTS.index(variant)), spec)
    op = PulseOp(variant, 2, 0.9, phi1=0.3, phi2=0.1)
    out = apply_pulse_op(psi, op, CFG, e_tol=math.inf)
    for spectator in ("squid1", "squid3"):
        before = partial_trace(psi, (spectator,)).entries
        after = partial_trace(out, (spectator,)).entries
        assert np.max(np.abs(before - after)) < 1e-12


# --------------------------------------------------------------- unitarity


@given(seed=st.integers(0, 2**31), duration=st.floats(0.0, 6.0))
@settings(max_examples=30, deadline=None)
def test_primitives_preserve_inner_products(seed, duration):
    spec = BasisSpec(2, 2)
    a = random_pure_state((seed, 0), spec)
    b = random_pure_state((seed, 1), spec)
    want = inner_product(a, b)
    for variant in ALL_VARIANTS:
        op = PulseOp(variant, 1, duration, phi1=0.7, phi2=0.2)
        got = inner_product(apply_pulse_op(a, op, CFG, e_tol=math.inf),
                            apply_pulse_op(b, op, CFG, e_tol=math.inf))
        assert abs(got - want) < 1e-12


# ------------------------------------------------------------- composition


@given(seed=st.integers(0, 2**31), t1=st.floats(0.0, 3.0), t2=st.floats(0.0, 3.0))
@settings(max_examples=30, deadline=None)
def test_group_primitives_compose_additively(seed, t1, t2):
    spec = BasisSpec(1, 2)
    psi = random_pure_state(seed, spec)
    for variant in (PulseVariant.JC, PulseVariant.DRIVE_GE,
                    PulseVariant.DRIVE_IE, PulseVariant.FREE_EVOLVE):
        def run(t, v=variant):
            return lambda s: apply_pulse_op(s, PulseOp(v, 1, t), CFG)
        split = run(t2)(run(t1)(psi))
        joint = run(t1 + t2)(psi)
        assert np.max(np.abs(split.amplitudes - joint.amplitudes)) < 1e-12


@given(seed=st.integers(0, 2**31), t1=st.floats(0.01, 3.0), t2=st.floats(0.01, 3.0),
       dphi=st.floats(0.0, 2.0 * math.pi))
@settings(max_examples=30, deadline=None)
def test_raman_composes_with_phase_advance(seed, t1, t2, dphi):
    # the free factor re-references the drive phase: splitting a rotation
    # requires advancing phi1 - phi2 by omega_gi * t1 on the second leg
    spec = BasisSpec(1, 1)
    vec = np.zeros(6, dtype=complex)
    rng = np.random.default_rng(seed)
    vec[[0, 2]] = rng.normal(size=2) + 1j * rng.normal(size=2)
    psi = PureState.from_amplitudes(vec, spec, normalize=True)
    first = apply_raman(psi, 1, t1, dphi, 0.0, CFG)
    split = apply_raman(first, 1, t2, dphi + CFG.omega_gi * t1, 0.0, CFG)
    joint = apply_raman(psi, 1, t1 + t2, dphi, 0.0, CFG)
    assert np.max(np.abs(split.amplitudes - joint.amplitudes)) < 1e-12


# ---------------------------------------------------------------- generator


def test_drive_ge_generator_matrix_elements():
    spec = BasisSpec(1, 1)
    ham = build_generator(PulseOp(PulseVariant.DRIVE_GE, 1, 1.0), spec, CFG)
    for n in range(2):
        g_idx = basis_index(spec, ("g",), n)
        e_idx = basis_index(spec, ("e",), n)
        assert ham[g_idx, e_idx] == CFG.omega_ge
        assert ham[e_idx, g_idx] == CFG.omega_ge
    expected_nonzeros = 4
    assert np.count_nonzero(ham) == expected_nonzeros


def test_free_evolve_generator_is_diagonal_on_i():
    spec = BasisSpec(1, 1)
    ham = build_generator(PulseOp(PulseVariant.FREE_EVOLVE, 1, 1.0), spec, CFG)
    diag = np.zeros(spec.dimension)
    for n in range(2):
        diag[basis_index(spec, ("i",), n)] = CFG.omega_gi
    assert np.max(np.abs(ham - np.diag(diag))) == 0.0


def test_jc_generator_matrix_element():
    spec = BasisSpec(1, 2)
    ham = build_generator(PulseOp(PulseVariant.JC, 1, 1.0), spec, CFG)
    g1 = basis_index(spec, ("g",), 1)
    e0 = basis_index(spec, ("e",), 0)
    assert ham[g1, e0] == CFG.lam
    g2 = basis_index(spec, ("g",), 2)
    e1 = basis_index(spec, ("e",), 1)
    assert abs(ham[g2, e1] - CFG.lam * math.sqrt(2.0)) < 1e-15


def test_evolve_exact_identity_and_full_period():
    spec = BasisSpec(1, 2)
    psi = random_pure_state(47, spec)
    same = evolve_exact(psi, np.zeros((spec.dimension, spec.dimension)), 2.2)
    assert np.max(np.abs(same.amplitudes - psi.amplitudes)) < 1e-14
    ham = build_generator(PulseOp(PulseVariant.JC, 1, 1.0), spec, CFG)
    g1 = PureState.basis_state(spec, ("g",), 1)
    flipped = evolve_exact(g1, ham, math.pi / CFG.lam)
    assert abs(amp(flipped, ("g",), 1) - (-1.0)) < 1e-12


def test_evolve_exact_rejects_bad_generators():
    spec = BasisSpec(1, 1)
    psi = PureState.basis_state(spec, ("g",), 0)
    with pytest.raises(ValueError):
        evolve_exact(psi, np.zeros((4, 4)), 1.0)
    skew = np.zeros((6, 6), dtype=complex)
    skew[0, 1] = 1.0  # missing the conjugate partner
    with pytest.raises(ValueError):
        evolve_exact(psi, skew, 1.0)
    for bad in (math.nan, math.inf):
        ham = np.zeros((6, 6), dtype=complex)
        ham[0, 0] = bad  # NaN also slips past a plain max|H - H^dag| >= tol test
        with pytest.raises(ValueError, match="NaN or infinite"):
            evolve_exact(psi, ham, 1.0)


def test_diagonalize_generator_rejects_bad_generators():
    skew = np.zeros((6, 6), dtype=complex)
    skew[0, 1] = 1.0
    with pytest.raises(ValueError, match="not Hermitian"):
        diagonalize_generator(skew)
    with pytest.raises(ValueError, match="not square"):
        diagonalize_generator(np.zeros((6, 5)))
    with pytest.raises(ValueError, match="NaN or infinite"):
        diagonalize_generator(np.full((6, 6), math.nan))


def test_evolve_exact_is_decomposition_then_apply():
    spec = BasisSpec(2, 2)
    psi = random_pure_state(61, spec)
    ham = build_generator(PulseOp(PulseVariant.JC, 2, 1.0), spec, CFG)
    eigen = diagonalize_generator(ham)
    for duration in (0.0, 0.7, 5.3):
        once = evolve_exact(psi, ham, duration)
        reused = evolve_diagonalized(psi, eigen, duration)
        assert np.array_equal(once.amplitudes, reused.amplitudes)
    with pytest.raises(ValueError, match="does not match dimension"):
        evolve_diagonalized(PureState.basis_state(BasisSpec(1, 1), ("g",), 0), eigen, 1.0)


# ----------------------------------------------- independent expm cross-check


@pytest.mark.parametrize("variant", ALL_VARIANTS)
def test_closed_forms_match_scipy_expm(variant):
    # scipy's Pade expm shares no code with either the closed forms or the
    # eigendecomposition route inside the package
    spec = BasisSpec(2, 2)
    rng = np.random.default_rng(53)
    for _ in range(5):
        raw = rng.normal(size=spec.dimension) + 1j * rng.normal(size=spec.dimension)
        psi = PureState.from_amplitudes(raw, spec, normalize=True)
        duration = float(rng.uniform(0.0, 4.0))
        phi1, phi2 = (float(x) for x in rng.uniform(0.0, 2.0 * math.pi, size=2))
        op = PulseOp(variant, 1, duration, phi1=phi1, phi2=phi2)
        closed = apply_pulse_op(psi, op, CFG, e_tol=math.inf)
        unitary = scipy.linalg.expm(-1j * duration * build_generator(op, spec, CFG))
        if variant is PulseVariant.RAMAN:
            free = PulseOp(PulseVariant.FREE_EVOLVE, 1, duration)
            unitary = scipy.linalg.expm(
                -1j * duration * build_generator(free, spec, CFG)) @ unitary
        expected = unitary @ psi.amplitudes
        assert np.max(np.abs(closed.amplitudes - expected)) < 1e-9


# --------------------------------------------------- batched kernels vs oracles


def _apply_by_name(variant, state, duration, phi1, phi2):
    # each public wrapper called directly, not through apply_pulse_op
    if variant is PulseVariant.JC:
        return apply_jc(state, 1, duration, CFG)
    if variant is PulseVariant.DRIVE_GE:
        return apply_drive_ge(state, 1, duration, CFG)
    if variant is PulseVariant.DRIVE_IE:
        return apply_drive_ie(state, 1, duration, CFG)
    if variant is PulseVariant.RAMAN:
        return apply_raman(state, 1, duration, phi1, phi2, CFG, e_tol=math.inf)
    return apply_free_evolution(state, 1, duration, CFG)


def _expm_unitary(op, spec):
    unitary = scipy.linalg.expm(-1j * op.duration * build_generator(op, spec, CFG))
    if op.variant is PulseVariant.RAMAN:
        free = PulseOp(PulseVariant.FREE_EVOLVE, op.squid, op.duration)
        unitary = scipy.linalg.expm(-1j * op.duration * build_generator(free, spec, CFG)) @ unitary
    return unitary


@pytest.mark.parametrize("variant", ALL_VARIANTS)
def test_each_apply_function_matches_expm_and_the_eigh_oracle(variant):
    spec = BasisSpec(2, 3)
    rng = np.random.default_rng(59)
    for _ in range(4):
        psi = random_pure_state(int(rng.integers(2**31)), spec)
        duration = float(rng.uniform(0.0, 4.0))
        phi1, phi2 = (float(x) for x in rng.uniform(0.0, 2.0 * math.pi, size=2))
        op = PulseOp(variant, 1, duration, phi1=phi1, phi2=phi2)
        closed = _apply_by_name(variant, psi, duration, phi1, phi2)
        exact = evolve_exact(psi, build_generator(op, spec, CFG), duration)
        if variant is PulseVariant.RAMAN:
            free = PulseOp(PulseVariant.FREE_EVOLVE, 1, duration)
            exact = evolve_exact(exact, build_generator(free, spec, CFG), duration)
        assert np.max(np.abs(closed.amplitudes - _expm_unitary(op, spec) @ psi.amplitudes)) < 1e-9
        assert np.max(np.abs(closed.amplitudes - exact.amplitudes)) < 1e-9


@pytest.mark.parametrize("variant", ALL_VARIANTS)
def test_kernel_rows_each_follow_their_own_duration(variant):
    # one kernel call on six rows, each with its own state and duration
    from clone_sim.dynamics import pulse_kernel

    spec = BasisSpec(3, 2)
    rng = np.random.default_rng(67)
    rows = [random_pure_state((67, k), spec) for k in range(6)]
    durations = rng.uniform(0.0, 5.0, size=6)
    op = PulseOp(variant, 2, 1.0, phi1=0.4, phi2=1.3)
    amps = np.stack([state.tensor() for state in rows])
    pulse_kernel(amps, op, durations, CFG)
    for k, state in enumerate(rows):
        row_op = PulseOp(variant, 2, float(durations[k]), phi1=0.4, phi2=1.3)
        want = _expm_unitary(row_op, spec) @ state.amplitudes
        assert np.max(np.abs(amps[k].reshape(-1) - want)) < 1e-9
        single = apply_pulse_op(state, row_op, CFG, e_tol=math.inf)
        assert np.array_equal(amps[k].reshape(-1), single.amplitudes)


def test_kernels_reject_targets_outside_the_register():
    from clone_sim.dynamics import pulse_kernel

    amps = np.zeros((2, 3, 3, 3), dtype=complex)
    with pytest.raises(ValueError):
        pulse_kernel(amps, PulseOp(PulseVariant.JC, 3, 1.0), np.ones(2), CFG)
