"""Pulse primitives: closed-form values, unitarity, composition, generator oracle."""

import itertools
import math
from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st

from clone_sim import (
    BasisSpec,
    CouplingConfig,
    LeakageError,
    PhysicsError,
    PreconditionError,
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
    evolve_exact,
    inner_product,
    partial_trace,
)
from clone_sim import dynamics
from clone_sim.hilbert import E_LEAK_TOL, LEVEL_E, LEVEL_G, LEVEL_I, BasisList
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


def kernel(amps, op, durations):
    # the raw kernel over the whole register, no guard and no norm check: row b
    # lasts durations[b]; amps is contiguous, so the flat rows are a view of it
    coeffs = dynamics.pulse_coefficients(op, durations, amps.shape[-2] - 1, CFG)
    labels = np.arange(amps[..., 0].size).reshape(amps.shape[:-1])
    rows = amps.reshape(-1, amps.shape[-1])
    assert np.shares_memory(rows, amps)
    dynamics.apply_coefficients(rows, op, coeffs, dynamics.pulse_rows(op, labels))


def unguarded(state, op):
    # the kernel apply_pulse_op runs, on a batch of one, without its Raman guard
    amps = state.tensor()[..., None].copy()
    kernel(amps, op, np.array([op.duration]))
    return PureState(amps.reshape(-1), state.spec)


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


LAMBDA_SPEC = BasisSpec(1, 1)


def _lambda_system(ratio, phi1, phi2):
    """Decomposed Lambda Hamiltonian of one SQUID with detuning Delta = ratio.

    H = Delta |e><e| + Omega (e^{i phi1} |g><e| + e^{i phi2} |i><e| + h.c.) with
    Omega = 1, on a one-SQUID register, the cavity idle.
    """
    ham = np.zeros((3, 3), dtype=complex)
    ham[LEVEL_E, LEVEL_E] = ratio
    ham[LEVEL_G, LEVEL_E] = np.exp(1j * phi1)
    ham[LEVEL_I, LEVEL_E] = np.exp(1j * phi2)
    ham += np.triu(ham, 1).conj().T
    return diagonalize_generator(np.kron(ham, np.eye(2)))


def _gi_block(eigen, duration):
    """The g-i block of exp(-i H duration): column j is where |g> (j = 0) or |i> (j = 1) goes."""
    starts = [PureState.basis_state(LAMBDA_SPEC, (level,), 0) for level in ("g", "i")]
    columns = [dynamics.evolve_rows(start.amplitudes[None], eigen, np.array([duration]))[0]
               for start in starts]
    gi = [basis_index(LAMBDA_SPEC, (level,), 0) for level in ("g", "i")]
    return np.array([[column[k] for column in columns] for k in gi])


def _raman_rotation(op, cfg):
    """``op``'s RAMAN map on (g, i) without its free factor, from ``pulse_coefficients``."""
    c, up, down, _ = dynamics.pulse_coefficients(op, np.array([op.duration]), 1, cfg)
    return np.array([[c[0], up[0]], [down[0], c[0]]])


def _raman_deviation(ratio, phi1=2.2, phi2=0.5):
    """Worst distance of the Lambda g-i block from the RAMAN rotation at lambda' = Omega^2 / Delta.

    Omega = 1; the common ac-Stark phase e^{i Omega^2 t / Delta} is removed.
    """
    cfg = CouplingConfig(lambda_prime=1.0 / ratio)
    eigen = _lambda_system(ratio, phi1, phi2)
    worst = 0.0
    for angle in (0.4, 1.1, 2.5):  # lambda' t
        duration = angle * ratio
        rotation = _raman_rotation(PulseOp(PulseVariant.RAMAN, 1, duration, phi1=phi1,
                                           phi2=phi2), cfg)
        block = _gi_block(eigen, duration) * np.exp(-1j * duration / ratio)
        worst = max(worst, float(np.max(np.abs(block - rotation))))
    return worst


def _peak_e_population(ratio):
    """Largest e population of |g> over the first two periods of the fast e oscillation."""
    times = np.linspace(0.0, 4.0 * math.pi / ratio, 401)
    ground = PureState.basis_state(LAMBDA_SPEC, ("g",), 0).amplitudes
    rows = dynamics.evolve_rows(np.tile(ground, (len(times), 1)), _lambda_system(ratio, 2.2, 0.5),
                                times)
    return float(np.max(np.abs(rows[:, basis_index(LAMBDA_SPEC, ("e",), 0)]) ** 2))


def test_raman_map_is_the_adiabatic_limit_of_the_lambda_system():
    # Eliminating e from the Lambda system gives the two-pulse rotation at
    # lambda' = Omega^2 / Delta; what it neglects falls as (Omega / Delta)^2.
    ratios = (10.0, 100.0, 1000.0)
    deviations = [_raman_deviation(ratio) for ratio in ratios]
    assert deviations[-1] < 1e-5
    for coarse, fine in zip(deviations, deviations[1:]):
        assert coarse > 50.0 * fine
    scaled = [_peak_e_population(ratio) * ratio ** 2 for ratio in ratios]
    assert max(scaled) < 1.1 * min(scaled)


def test_a_flipped_raman_phase_difference_leaves_the_lambda_limit(monkeypatch):
    original = dynamics.pulse_coefficients

    def flipped(op, durations, fock_cutoff, cfg=CFG):
        return original(replace(op, phi1=op.phi2, phi2=op.phi1), durations, fock_cutoff, cfg)

    monkeypatch.setattr(dynamics, "pulse_coefficients", flipped)
    assert _raman_deviation(1000.0) > 0.1


def test_raman_guards_against_e_population():
    with pytest.raises(LeakageError):
        apply_raman(single("e"), 1, 1.0, 0.0, 0.0, CFG)
    # with the guard off the e amplitudes ride along untouched
    out = unguarded(single("e"), PulseOp(PulseVariant.RAMAN, 1, 1.0))
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
    out = unguarded(psi, op)
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
        got = inner_product(unguarded(a, op), unguarded(b, op))
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


def test_a_stack_of_generators_is_checked_and_decomposed_matrix_by_matrix():
    rng = np.random.default_rng(2003)
    raw = rng.normal(size=(100, 9, 9)) + 1j * rng.normal(size=(100, 9, 9))
    stack = raw + np.swapaxes(raw, -1, -2).conj()
    evals, evecs = diagonalize_generator(stack)
    for ham, vals, vecs in zip(stack, evals, evecs):
        alone = diagonalize_generator(ham)
        assert vals.tobytes() == alone[0].tobytes() and vecs.tobytes() == alone[1].tobytes()
    # one bad matrix anywhere in the stack is refused as a lone one is
    for bad, match in ((1.0, "not Hermitian"), (math.nan, "NaN or infinite")):
        broken = stack.copy()
        broken[57, 0, 1] = bad
        with pytest.raises(ValueError, match=match):
            diagonalize_generator(broken)
    with pytest.raises(ValueError, match="not square"):
        diagonalize_generator(stack[:, :, :8])
    with pytest.raises(ValueError, match="not square"):
        diagonalize_generator(np.zeros(9))


def test_evolve_exact_is_decomposition_then_apply():
    spec = BasisSpec(2, 2)
    psi = random_pure_state(61, spec)
    ham = build_generator(PulseOp(PulseVariant.JC, 2, 1.0), spec, CFG)
    eigen = diagonalize_generator(ham)
    for duration in (0.0, 0.7, 5.3):
        once = evolve_exact(psi, ham, duration)
        reused = dynamics.evolve_rows(psi.amplitudes[None], eigen, np.array([duration]))[0]
        assert np.array_equal(once.amplitudes, reused)
    with pytest.raises(ValueError, match="does not match dimension"):
        dynamics.evolve_rows(PureState.basis_state(BasisSpec(1, 1), ("g",), 0).amplitudes[None],
                             eigen, np.array([1.0]))


@pytest.mark.parametrize("fock_cutoff", [1, 2, 4])
@pytest.mark.parametrize("variant", ALL_VARIANTS)
def test_evolve_rows_equals_the_per_state_route_bit_for_bit(variant, fock_cutoff):
    # one matrix-vector product per row: a row's bits do not depend on the batch size
    spec = BasisSpec(3, fock_cutoff)
    rng = np.random.default_rng([fock_cutoff, ALL_VARIANTS.index(variant)])
    for squid in (1, 2, 3):
        eigen = diagonalize_generator(build_generator(
            PulseOp(variant, squid, 0.0, phi1=0.7, phi2=2.1), spec, CFG))
        evals, evecs = eigen
        for rows in (1, 2, 7, 64):
            states = [random_pure_state(int(rng.integers(2**32)), spec) for _ in range(rows)]
            durations = rng.uniform(0.0, 8.0, rows)
            batch = dynamics.evolve_rows(np.stack([psi.amplitudes for psi in states]), eigen,
                                         durations)
            assert batch.shape == (rows, spec.dimension)
            for psi, t, row in zip(states, durations, batch):
                one = evecs @ (np.exp(-1j * evals * float(t)) * (evecs.conj().T @ psi.amplitudes))
                assert np.array_equal(row, one)
                alone = dynamics.evolve_rows(psi.amplitudes[None], eigen, np.array([float(t)]))
                assert np.array_equal(row, alone[0])


def _kron_lift(spec, squid, mat, cavity=None):
    """``dynamics._lift`` as three nested Kronecker products."""
    before = np.eye(3 ** (squid - 1))
    between = np.eye(3 ** (spec.num_squids - squid))
    if cavity is None:
        cavity = np.eye(spec.fock_cutoff + 1)
    return np.kron(np.kron(np.kron(before, mat), between), cavity)


def test_lift_is_the_nested_kron_entry_for_entry(monkeypatch):
    # the signs of zeros too: phases put negative parts on both axes
    cfg = CouplingConfig(lam=1.7, omega_ge=0.8, omega_ie=1.1, lambda_prime=1.3, omega_gi=35.5)
    for num_squids in (1, 2, 3):
        for fock_cutoff in (1, 2, 3):
            spec = BasisSpec(num_squids, fock_cutoff)
            for variant in ALL_VARIANTS:
                for squid in range(1, num_squids + 1):
                    for phi1 in (0.4, 2.0, 3.9, 5.6):
                        op = PulseOp(variant, squid, 1.0, phi1=phi1, phi2=0.3)
                        broadcast = build_generator(op, spec, cfg)
                        with monkeypatch.context() as patched:
                            patched.setattr(dynamics, "_lift", _kron_lift)
                            nested = build_generator(op, spec, cfg)
                        assert broadcast.dtype == nested.dtype
                        assert np.array_equal(broadcast, nested)
                        for part in (np.real, np.imag):
                            assert np.array_equal(np.signbit(part(broadcast)),
                                                  np.signbit(part(nested)))


def _table_couplings(variant, squid, spec):
    """(row, column) of every pair |a, n + s> <-> |b, n> that ``COUPLED_LEVELS`` names."""
    if variant not in dynamics.COUPLED_LEVELS:
        return set()
    a, b, shift = dynamics.COUPLED_LEVELS[variant]
    pairs = set()
    for levels in itertools.product(range(3), repeat=spec.num_squids):
        if levels[squid - 1] != a:
            continue
        partner = levels[:squid - 1] + (b,) + levels[squid:]
        for n in range(shift, spec.fock_cutoff + 1):
            one = int(np.ravel_multi_index(levels + (n,), spec.factor_dims))
            other = int(np.ravel_multi_index(partner + (n - shift,), spec.factor_dims))
            pairs |= {(one, other), (other, one)}
    return pairs


def _generator_couplings(variant, squid, spec):
    """(row, column) of every nonzero off-diagonal entry of ``build_generator``."""
    generator = build_generator(PulseOp(variant, squid, 1.0, phi1=0.7, phi2=2.1), spec, CFG)
    return {(int(r), int(c)) for r, c in zip(*np.nonzero(generator)) if r != c}


@pytest.mark.parametrize("fock_cutoff", [1, 2, 3])
@pytest.mark.parametrize("variant", ALL_VARIANTS)
def test_the_coupling_table_names_exactly_the_generators_couplings(variant, fock_cutoff):
    # two routes: the table the kernel and the support walk read, the oracle's generator
    spec = BasisSpec(3, fock_cutoff)
    for squid in (1, 2, 3):
        couplings = _generator_couplings(variant, squid, spec)
        assert couplings == _table_couplings(variant, squid, spec)
        assert bool(couplings) == (variant is not PulseVariant.FREE_EVOLVE)


def test_a_wrong_coupling_table_entry_fails_the_two_route_check(monkeypatch):
    spec = BasisSpec(3, 2)
    generator = _generator_couplings(PulseVariant.DRIVE_IE, 2, spec)
    monkeypatch.setitem(dynamics.COUPLED_LEVELS, PulseVariant.DRIVE_IE, (LEVEL_G, LEVEL_E, 0))
    # the generator does not read the table, so only the table's side moves
    assert _generator_couplings(PulseVariant.DRIVE_IE, 2, spec) == generator
    assert _table_couplings(PulseVariant.DRIVE_IE, 2, spec) != generator


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
        closed = unguarded(psi, op)
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
        return apply_raman(state, 1, duration, phi1, phi2, CFG)
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
        if variant is PulseVariant.RAMAN:  # apply_raman's guard wants squid 1 out of |e>
            amps = psi.tensor().copy()
            amps[LEVEL_E] = 0.0
            psi = PureState.from_amplitudes(amps, spec, normalize=True)
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
    spec = BasisSpec(3, 2)
    rng = np.random.default_rng(67)
    rows = [random_pure_state((67, k), spec) for k in range(6)]
    durations = rng.uniform(0.0, 5.0, size=6)
    op = PulseOp(variant, 2, 1.0, phi1=0.4, phi2=1.3)
    amps = np.stack([state.tensor() for state in rows], axis=-1)  # batch axis last
    kernel(amps, op, durations)
    for k, state in enumerate(rows):
        row_op = PulseOp(variant, 2, float(durations[k]), phi1=0.4, phi2=1.3)
        want = _expm_unitary(row_op, spec) @ state.amplitudes
        assert np.max(np.abs(amps[..., k].reshape(-1) - want)) < 1e-9
        single = unguarded(state, row_op)
        assert np.array_equal(amps[..., k].reshape(-1), single.amplitudes)


@pytest.mark.parametrize("variant, batch", [(variant, 2) for variant in ALL_VARIANTS] + [
    (PulseVariant.JC, 1), (PulseVariant.DRIVE_GE, 1), (PulseVariant.DRIVE_IE, 1)])
def test_a_row_does_not_depend_on_the_states_its_list_holds(variant, batch):
    # the rows of the first k pairs the pulse reads, alone, for every k; a batch
    # of one over a one-pair list is left out for RAMAN and FREE_EVOLVE, whose
    # complex coefficients can round differently there (dynamics' docstring)
    spec = BasisSpec(3, 2)
    op = PulseOp(variant, 2, 0.7, phi1=1.2, phi2=0.3)
    whole = dynamics.pulse_rows(op, BasisList.full(spec).labels)
    coeffs = dynamics.pulse_coefficients(op, np.array([op.duration]), spec.fock_cutoff, CFG)
    rows = np.random.default_rng(37).normal(size=(spec.dimension, batch, 2)).view(complex)[..., 0]
    want = rows.copy()
    dynamics.apply_coefficients(want, op, coeffs, whole)
    for pairs in range(1, len(whole.b) + 1):
        index = np.sort(np.concatenate([whole.a[:pairs], whole.b[:pairs]]))
        got = rows[index]
        lists = dynamics.pulse_rows(op, BasisList(spec, index).labels)
        dynamics.apply_coefficients(got, op, coeffs, lists)
        assert got.tobytes() == want[index].tobytes(), pairs
    assert len(whole.b) == (18 if variant is PulseVariant.JC else 27)


def test_kernels_reject_targets_outside_the_register():
    # two squids and a cavity of cutoff 2, two rows on the last axis
    amps = np.zeros((3, 3, 3, 2), dtype=complex)
    with pytest.raises(ValueError):
        kernel(amps, PulseOp(PulseVariant.JC, 3, 1.0), np.ones(2))


@pytest.mark.parametrize("variant", ALL_VARIANTS)
def test_apply_pulse_op_rejects_a_squid_outside_the_register(variant):
    state = PureState.basis_state(BasisSpec(2, 2), ("g", "g"), 0)
    with pytest.raises(ValueError, match=r"^squid index 3 outside 1\.\.2$"):
        apply_pulse_op(state, PulseOp(variant, 3, 1.0))


# ------------------------------------------------------ guard population screen

EPS = float(np.finfo(np.float64).eps)
TINY = float(np.finfo(np.float64).smallest_subnormal)


def _pops(amps, squid, level):
    """``level_populations`` of ``squid`` in ``level``, for batch-last rows over the whole register."""
    from clone_sim.hilbert import level_populations, level_rows

    return level_populations(amps.reshape(-1, amps.shape[-1]),
                             level_rows(amps.shape[:-1], squid, level))


def _screen(amps, squid, level):
    """``population_screen`` of ``squid`` in ``level``, as ``_pops`` reads it."""
    from clone_sim.hilbert import level_rows, population_screen

    return population_screen(amps.reshape(-1, amps.shape[-1]),
                             level_rows(amps.shape[:-1], squid, level))


def _raman_guard(amps, squid, first_sample):
    """``check_two_pulse_domain`` on batch-last rows over the whole register."""
    from clone_sim.dynamics import check_two_pulse_domain
    from clone_sim.hilbert import level_rows

    check_two_pulse_domain(amps.reshape(-1, amps.shape[-1]), squid, first_sample,
                           level_rows(amps.shape[:-1], squid, LEVEL_E))


def _rows_at(level, squid, targets, fock_cutoff, seed):
    """Random batch-last rows whose ``level`` population on ``squid`` is ``targets[b]``.

    The population is set through ``level_populations``, so it lands within
    an ulp or so of each target; a NaN target gives a NaN row.
    """
    from clone_sim.hilbert import _level

    rng = np.random.default_rng(seed)
    shape = (3, 3, 3, fock_cutoff + 1, len(targets))
    amps = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    view = _level(amps, squid, level)
    view *= np.sqrt(np.asarray(targets) / _pops(amps, squid, level))
    return amps


def _outcome(guard, *args):
    try:
        guard(*args)
    except PhysicsError as exc:
        return type(exc).__name__, str(exc)
    return None


def _raman_reference(amps, squid, first_sample):
    # the guard's rule on level_populations alone, as it read before the screen
    pops = _pops(amps, squid, LEVEL_E)
    bad = np.flatnonzero(pops >= E_LEAK_TOL)
    if not bad.size:
        return None
    k = int(bad[0])
    return "LeakageError", (
        f"sample {first_sample + k}: squid{squid} e-level population {float(pops[k])} "
        f"exceeds {E_LEAK_TOL}; two-pulse map undefined outside the g-i subspace")


def _g_reference(row, squid):
    # prepare_input's |g> precondition on level_populations alone
    pop = float(_pops(row, squid, LEVEL_G)[0])
    if abs(pop - 1.0) <= 1e-10:
        return None
    return "PreconditionError", f"squid{squid} must start in |g> (population {pop})"


def _near(threshold):
    # threshold * (1 -+ 1e-13), and threshold nudged by -24 ... 24 units of roundoff
    return ([threshold * (1.0 - 1e-13), threshold * (1.0 + 1e-13)]
            + [threshold * (1.0 + k * EPS) for k in range(-24, 25)])


@pytest.mark.parametrize("fock_cutoff", [1, 8])
@pytest.mark.parametrize("squid", [1, 2, 3])
def test_raman_guard_screen_agrees_with_level_populations(fock_cutoff, squid):
    targets = _near(E_LEAK_TOL) + [math.nan, 0.0]
    for seed in range(4):
        amps = _rows_at(LEVEL_E, squid, targets, fock_cutoff, (seed, squid))
        for b in range(amps.shape[-1]):
            row = amps[..., b:b + 1].copy()
            assert (_outcome(_raman_guard, row, squid, b)
                    == _raman_reference(row, squid, b)), (seed, b)
        # the whole batch, in order and with the threshold rows last
        for batch in (amps, np.concatenate([amps[..., 2:], amps[..., :2]], axis=-1)):
            assert (_outcome(_raman_guard, batch, squid, 7)
                    == _raman_reference(batch, squid, 7))


@pytest.mark.parametrize("fock_cutoff", [1, 8])
@pytest.mark.parametrize("squid", [1, 2, 3])
def test_ground_state_screen_agrees_with_level_populations(fock_cutoff, squid):
    # prepare_input's |g> precondition on single states whose g population
    # lies at the threshold; the rest of each state's norm lies in |e>,
    # which the injection leaves alone, so a state that passes stays normalized
    from clone_sim import InputQubit, prepare_input
    from clone_sim.hilbert import _level

    targets = np.array(_near(1.0 - 1e-10) + [1.0])
    spec = BasisSpec(3, fock_cutoff)
    q = InputQubit.from_bloch(1.1, 0.4)
    for seed in range(4):
        amps = _rows_at(LEVEL_G, squid, targets, fock_cutoff, (seed, squid, 1))
        _level(amps, squid, LEVEL_I)[...] = 0.0
        _level(amps, squid, LEVEL_E)[...] *= np.sqrt((1.0 - targets) / _pops(amps, squid, LEVEL_E))
        for b in range(amps.shape[-1]):
            state = PureState(amps[..., b].reshape(-1), spec)
            assert (_outcome(prepare_input, state, squid, q)
                    == _g_reference(amps[..., b:b + 1], squid)), (seed, b)


@pytest.mark.parametrize("fock_cutoff", [1, 2, 32])
@pytest.mark.parametrize("scale", [1.0, 1e-9, 1e-160])
def test_population_screen_lies_within_its_slack(fock_cutoff, scale):
    for seed in range(3):
        rng = np.random.default_rng((seed, fock_cutoff))
        shape = (3, 3, 3, fock_cutoff + 1, 64)
        amps = scale * (rng.normal(size=shape) + 1j * rng.normal(size=shape))
        for squid in (1, 2, 3):
            for level in (LEVEL_G, LEVEL_I, LEVEL_E):
                screen, slack = _screen(amps, squid, level)
                exact = _pops(amps, squid, level)
                assert np.all(np.abs(screen - exact) <= slack)
                assert np.all(slack <= 1e-11 * screen + 1e-300)
                terms = 9 * (fock_cutoff + 1)
                for b in range(0, 64, 7):  # a row alone takes the one-dot route
                    one, one_slack = _screen(amps[..., b:b + 1], squid, level)
                    assert one.shape == one_slack.shape == (1,)
                    assert abs(one[0] - exact[b]) <= one_slack[0]
                    assert np.array_equal(one_slack, 4 * (terms + 3) * (EPS * one + TINY))


@pytest.mark.parametrize("fill", [math.nan, math.inf, -math.inf, 0.0])
@pytest.mark.parametrize("squid", [1, 2, 3])
def test_guards_judge_a_non_finite_or_zero_row_alone_as_in_a_batch(fill, squid):
    amps = np.zeros((3, 3, 3, 3, 3), dtype=complex)  # three rows, all in |ggg, 0>
    amps[0, 0, 0, 0] = 1.0
    if fill == 0.0:
        amps[..., 1] = 0.0
    else:
        amps[2, 2, 2, 0, 1] = fill  # every squid's e level
        amps[0, 0, 0, 1, 1] = fill  # every squid's g level
    row = amps[..., 1:2].copy()
    raman = _outcome(_raman_guard, amps, squid, 4)
    assert raman == _raman_reference(amps, squid, 4)
    assert _outcome(_raman_guard, row, squid, 5) == raman


def test_tripped_guards_print_the_level_populations_value():
    from clone_sim import InputQubit, prepare_input

    amps = np.zeros((3, 3, 3, 3, 5), dtype=complex)  # three squids, five rows, all in |g>
    amps[0, 0, 0, 0] = 1.0
    amps[0, 0, 0, 0, 3] = math.sqrt(0.75)  # row 3: squid2 a quarter in |e>
    amps[0, 2, 0, 0, 3] = 0.5
    with pytest.raises(LeakageError) as info:
        _raman_guard(amps, 2, 10)
    assert str(info.value) == ("sample 13: squid2 e-level population 0.25 exceeds 1e-10; "
                               "two-pulse map undefined outside the g-i subspace")
    amps[0, 2, 0, 0, 3], amps[0, 1, 0, 0, 3] = 0.0, 0.5  # now a quarter in |i>
    _raman_guard(amps, 2, 10)
    state = PureState(amps[..., 3].reshape(-1), BasisSpec(3, 2))
    q = InputQubit.from_bloch(1.1, 0.4)
    prepare_input(state, 1, q)
    with pytest.raises(PreconditionError) as info:
        prepare_input(state, 2, q)
    assert str(info.value) == "squid2 must start in |g> (population 0.7499999999999999)"


@pytest.mark.parametrize("squid", [1, 2, 3])
def test_level_populations_of_a_row_do_not_depend_on_the_batch(squid):
    # SQUID 1's level view is contiguous, so its rows came out strided in a
    # batch and were summed in another order than a row alone
    rng = np.random.default_rng(17)
    amps = rng.normal(size=(3, 3, 3, 9, 6)) + 1j * rng.normal(size=(3, 3, 3, 9, 6))
    for level in range(3):
        batch = _pops(amps, squid, level)
        alone = [_pops(amps[..., b:b + 1], squid, level)[0] for b in range(6)]
        assert batch.tolist() == alone, level
