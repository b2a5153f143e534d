"""The validate checks: the per-state route's verdicts from batched closed forms and
fewer decompositions, and closed-form mutations that each fail their oracle."""

import dataclasses
import math

import numpy as np
import pytest

from clone_sim import (
    BasisSpec,
    CouplingConfig,
    LeakageError,
    NormalizationError,
    PulseOp,
    PulseVariant,
    PureState,
    apply_pulse_op,
    build_generator,
    diagonalize_generator,
    evolve_diagonalized,
    evolve_exact,
    inner_product,
)
from clone_sim import checks, dynamics
from clone_sim.checks import ORACLE_TOL, CheckResult, check_oracle
from clone_sim.hilbert import LEVEL_E

CFG = CouplingConfig()
N_STATES = 30


def per_state_oracle(variant, cfg, seed, n_states):
    """check_oracle's draws with one generator build and evolve_exact per state."""
    spec = BasisSpec(num_squids=3, fock_cutoff=2)
    rng = np.random.default_rng([seed, list(PulseVariant).index(variant)])
    worst = 0.0
    for _ in range(n_states):
        squid = int(rng.integers(1, spec.num_squids + 1))
        duration = float(rng.uniform(0.0, 2.0 * math.pi))
        phi1, phi2 = (float(x) for x in rng.uniform(0.0, 2.0 * math.pi, 2))
        op = PulseOp(variant, squid, duration, phi1=phi1, phi2=phi2)
        z = rng.standard_normal(spec.dimension) + 1j * rng.standard_normal(spec.dimension)
        state = PureState.from_amplitudes(z, spec, normalize=True)
        if variant is PulseVariant.RAMAN:
            arr = state.tensor().copy()
            index = [slice(None)] * arr.ndim
            index[squid - 1] = LEVEL_E
            arr[tuple(index)] = 0.0
            state = PureState.from_amplitudes(arr.reshape(-1), spec, normalize=True)
        closed = apply_pulse_op(state, op, cfg)
        exact = evolve_exact(state, build_generator(op, spec, cfg), duration)
        if variant is PulseVariant.RAMAN:
            free = PulseOp(PulseVariant.FREE_EVOLVE, squid, duration)
            exact = evolve_exact(exact, build_generator(free, spec, cfg), duration)
        worst = max(worst, float(np.max(np.abs(closed.amplitudes - exact.amplitudes))))
    return CheckResult(f"dynamics.{variant.value}.oracle", worst, ORACLE_TOL, worst < ORACLE_TOL)


@pytest.mark.parametrize("seed", [20210, 3, 77])
@pytest.mark.parametrize("variant", list(PulseVariant))
def test_oracle_check_equals_the_per_state_route(variant, seed):
    # == compares max_deviation bit for bit
    expected = per_state_oracle(variant, CFG, seed, 100)
    if variant is PulseVariant.RAMAN:
        # the 3x3 block rounds differently from the 81x81 decomposition
        got = check_oracle(variant, CFG, seed=seed, n_states=100)
        assert_same_verdict_within_roundoff(got, expected)
        return
    assert check_oracle(variant, CFG, seed=seed, n_states=100) == expected


def test_oracle_check_equals_the_per_state_route_under_other_rates():
    cfg = CouplingConfig(lam=1.7, omega_ge=0.8, lambda_prime=1.3, omega_gi=35.5)
    for variant in PulseVariant:
        if variant is PulseVariant.RAMAN:
            got = check_oracle(variant, cfg, seed=5, n_states=N_STATES)
            assert_same_verdict_within_roundoff(got, per_state_oracle(variant, cfg, 5, N_STATES))
            continue
        assert check_oracle(variant, cfg, seed=5, n_states=N_STATES) == per_state_oracle(
            variant, cfg, 5, N_STATES)


def assert_same_verdict_within_roundoff(got, expected):
    assert got.name == expected.name and got.tolerance == expected.tolerance
    assert got.passed == expected.passed
    assert got.max_deviation < 1e-14 and expected.max_deviation < 1e-14


@pytest.fixture
def decompositions(monkeypatch):
    """Count the decomposition step as ``checks`` binds it."""
    calls = []
    original = checks.diagonalize_generator

    def counting(generator):
        calls.append(1)
        return original(generator)

    monkeypatch.setattr(checks, "diagonalize_generator", counting)
    return calls


@pytest.mark.parametrize("variant", list(PulseVariant))
def test_oracle_decomposes_each_phase_free_generator_once_per_call(variant, decompositions):
    first = check_oracle(variant, CFG, seed=20210, n_states=N_STATES)
    once = len(decompositions)
    if variant is PulseVariant.RAMAN:
        # one coupling per state, plus the free factor of each squid
        assert N_STATES < once <= N_STATES + 3
    else:
        assert 1 <= once <= 3
    # nothing is carried over: a second call decomposes again, with the same result
    assert check_oracle(variant, CFG, seed=20210, n_states=N_STATES) == first
    assert len(decompositions) == 2 * once


# ------------------------------------------------- batched routes vs per-state


@pytest.mark.parametrize("variant", list(PulseVariant))
def test_batched_closed_forms_equal_apply_pulse_op_bit_for_bit(variant):
    spec = BasisSpec(num_squids=3, fock_cutoff=2)
    rng = np.random.default_rng(41)
    ops, states = [], []
    for _ in range(24):
        squid = int(rng.integers(1, 4))
        phi1, phi2 = (float(x) for x in rng.uniform(0.0, 2.0 * math.pi, 2))
        ops.append(PulseOp(variant, squid, float(rng.uniform(0.0, 8.0)), phi1=phi1, phi2=phi2))
        state = checks._random_state(rng, spec)
        states.append(checks._without_e(state, squid) if variant is PulseVariant.RAMAN else state)
    seen = []
    for squid, rows, amps in checks._closed_forms_by_squid(ops, states, CFG):
        assert {ops[k].squid for k in rows} == {squid}
        seen += rows
        for k, row in zip(rows, amps):
            assert np.array_equal(row, apply_pulse_op(states[k], ops[k], CFG).amplitudes)
    assert sorted(seen) == list(range(len(ops)))


def test_batched_raman_rows_are_guarded_as_apply_pulse_op_guards_one():
    spec = BasisSpec(num_squids=3, fock_cutoff=2)
    rng = np.random.default_rng(43)
    ops = [PulseOp(PulseVariant.RAMAN, 2, 1.0, phi1=0.5) for _ in range(4)]
    states = [checks._without_e(checks._random_state(rng, spec), 2) for _ in range(3)]
    states.insert(2, checks._random_state(rng, spec))  # carries e population on SQUID 2
    with pytest.raises(LeakageError):
        apply_pulse_op(states[2], ops[2], CFG)
    with pytest.raises(LeakageError, match="sample 2: squid2"):
        list(checks._closed_forms_by_squid(ops, states, CFG))


def per_state_unitarity(cfg, seed):
    """check_unitarity's draws with one apply_pulse_op per state."""
    spec = BasisSpec(num_squids=3, fock_cutoff=2)
    rng = np.random.default_rng([seed, 11])
    worst = 0.0
    for variant in PulseVariant:
        for _ in range(20):
            squid = int(rng.integers(1, 4))
            op = PulseOp(variant, squid, float(rng.uniform(0.0, 8.0)),
                         phi1=float(rng.uniform(0, 2 * math.pi)))
            a, b = checks._random_state(rng, spec), checks._random_state(rng, spec)
            if variant is PulseVariant.RAMAN:
                a, b = checks._without_e(a, squid), checks._without_e(b, squid)
            after = inner_product(apply_pulse_op(a, op, cfg), apply_pulse_op(b, op, cfg))
            worst = max(worst, abs(after - inner_product(a, b)))
    return worst


def per_state_jc_sectors(cfg, seed):
    """check_jc_sector_conservation's draws with one apply_pulse_op per state."""
    spec = BasisSpec(num_squids=3, fock_cutoff=2)
    rng = np.random.default_rng([seed, 12])
    worst = 0.0
    for _ in range(50):
        squid = int(rng.integers(1, 4))
        op = PulseOp(PulseVariant.JC, squid, float(rng.uniform(0.0, 8.0)))
        state = checks._random_state(rng, spec)
        before = checks._jc_sector_populations(state.tensor(), squid)
        after = checks._jc_sector_populations(apply_pulse_op(state, op, cfg).tensor(), squid)
        worst = max(worst, float(np.max(np.abs(after - before))))
    return worst


@pytest.mark.parametrize("seed", [20210, 3, 77])
def test_batched_unitarity_and_jc_checks_equal_the_per_state_route(seed):
    assert checks.check_unitarity(CFG, seed).max_deviation == per_state_unitarity(CFG, seed)
    assert (checks.check_jc_sector_conservation(CFG, seed).max_deviation
            == per_state_jc_sectors(CFG, seed))


def test_block_route_matches_the_full_raman_generator():
    # exp(-i (I x h x I) t) = I x exp(-i h t) x I, checked against the 81 x 81 route
    spec = BasisSpec(num_squids=3, fock_cutoff=2)
    rng = np.random.default_rng(2007)
    for k in range(100):
        squid = k % 3 + 1
        phi1, phi2 = (float(x) for x in rng.uniform(0.0, 2.0 * math.pi, 2))
        op = PulseOp(PulseVariant.RAMAN, squid, float(rng.uniform(0.0, 2.0 * math.pi)),
                     phi1=phi1, phi2=phi2)
        state = checks._without_e(checks._random_state(rng, spec), squid)
        free = build_generator(PulseOp(PulseVariant.FREE_EVOLVE, squid, 0.0), spec, CFG)
        propagator = checks._coupling_by_block(op, spec, CFG)
        rotated = np.moveaxis(np.tensordot(propagator, state.tensor(), axes=(1, squid - 1)),
                              0, squid - 1)
        block = evolve_diagonalized(PureState(rotated, spec), diagonalize_generator(free),
                                    op.duration)
        full = evolve_exact(evolve_exact(state, build_generator(op, spec, CFG), op.duration),
                            free, op.duration)
        assert np.max(np.abs(block.amplitudes - full.amplitudes)) < 1e-14


# ------------------------------------------------ mutations fail their oracle

RATE = {
    PulseVariant.JC: "lam",
    PulseVariant.DRIVE_GE: "omega_ge",
    PulseVariant.DRIVE_IE: "omega_ie",
    PulseVariant.RAMAN: "lambda_prime",
    PulseVariant.FREE_EVOLVE: "omega_gi",
}


def patch_coefficients(monkeypatch, mutate):
    """Route every pulse_coefficients call through ``mutate(op, cfg) -> (op, cfg)``."""
    original = dynamics.pulse_coefficients

    def call(op, durations, fock_cutoff, cfg=CFG):
        op, cfg = mutate(op, cfg)
        return original(op, durations, fock_cutoff, cfg)

    monkeypatch.setattr(dynamics, "pulse_coefficients", call)
    monkeypatch.setattr(checks, "pulse_coefficients", call)


@pytest.mark.parametrize("variant", list(PulseVariant))
def test_a_closed_form_rate_off_by_one_ppm_fails_its_oracle(variant, monkeypatch):
    rate = RATE[variant]
    patch_coefficients(monkeypatch, lambda op, cfg: (
        op, dataclasses.replace(cfg, **{rate: getattr(cfg, rate) * (1 + 1e-6)})))
    result = check_oracle(variant, CFG, seed=20210, n_states=N_STATES)
    assert not result.passed and result.max_deviation > ORACLE_TOL


def test_a_flipped_phase_difference_fails_the_raman_oracle(monkeypatch):
    patch_coefficients(monkeypatch, lambda op, cfg: (
        dataclasses.replace(op, phi1=op.phi2, phi2=op.phi1), cfg))
    result = check_oracle(PulseVariant.RAMAN, CFG, seed=20210, n_states=N_STATES)
    assert not result.passed and result.max_deviation > ORACLE_TOL


def test_a_coupling_lifted_onto_the_wrong_squid_fails_the_block_check(monkeypatch):
    original = checks.build_generator

    def misplaced(op, spec, cfg=CFG):
        if op.variant is PulseVariant.RAMAN:
            op = dataclasses.replace(op, squid=op.squid % spec.num_squids + 1)
        return original(op, spec, cfg)

    monkeypatch.setattr(checks, "build_generator", misplaced)
    result = check_oracle(PulseVariant.RAMAN, CFG, seed=20210, n_states=N_STATES)
    assert not result.passed and result.max_deviation == math.inf


def test_a_nan_closed_form_stops_every_batched_check(monkeypatch):
    # each row meets the norm check apply_pulse_op's PureState made
    original = dynamics.pulse_coefficients

    def poisoned(op, durations, fock_cutoff, cfg=CFG):
        return tuple(c * math.nan for c in original(op, durations, fock_cutoff, cfg))

    monkeypatch.setattr(dynamics, "pulse_coefficients", poisoned)
    monkeypatch.setattr(checks, "pulse_coefficients", poisoned)
    for variant in PulseVariant:
        with pytest.raises(NormalizationError, match="state norm is nan"):
            check_oracle(variant, CFG, seed=20210, n_states=N_STATES)
    for check in (checks.check_unitarity, checks.check_jc_sector_conservation):
        with pytest.raises(NormalizationError, match="state norm is nan"):
            check(CFG)


# ------------------------------------------- the two basis runs, shared once


def test_all_checks_run_the_basis_inputs_once(monkeypatch):
    calls = []
    original = checks.run_uqcm

    def counting(q, cfg=CFG, *args, **kwargs):
        calls.append((q.alpha, q.beta))
        return original(q, cfg, *args, **kwargs)

    monkeypatch.setattr(checks, "run_uqcm", counting)
    results = {r.name: r for r in checks.run_all_checks(CFG)}
    # two basis runs shared by two checks, five random inputs for clone quality
    assert len(calls) == 7 and calls[:2] == [(1.0, 0.0), (0.0, 1.0)]
    steps = checks._basis_steps(CFG)
    assert results["protocol.steps.conformance"] == checks.check_step_conformance(steps)
    assert results["protocol.steps.basis_amplitudes"] == checks.check_basis_run_amplitudes(steps)
