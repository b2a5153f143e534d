"""The validate checks: the per-state route's verdicts from drawn rows, batched closed
forms and fewer decompositions, and closed-form mutations that each fail their oracle."""

import dataclasses
import functools
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
    evolve_exact,
    inner_product,
)
from clone_sim import checks, dynamics
from clone_sim.checks import ORACLE_TOL, CheckResult, check_oracle
from clone_sim.hilbert import LEVEL_E, LEVEL_G, LEVEL_I

CFG = CouplingConfig()
N_STATES = 30


def block_route(amplitudes, op, cfg, spec):
    """exp(-i H t) on one state's amplitudes, H = build_generator(op): H's block on the
    factors ``op`` acts on, checked to lift to H, decomposed and applied to this state alone."""
    block, lifted = checks._lifted_block(op, spec, cfg)
    assert lifted
    evals, evecs = diagonalize_generator(block)
    acted = [op.squid - 1] + ([spec.num_squids] if op.variant is PulseVariant.JC else [])
    lead = list(range(len(acted)))
    tensor = np.moveaxis(amplitudes.reshape(spec.factor_dims), acted, lead)
    x = tensor.reshape(len(evals), -1)
    y = evecs @ (np.exp(-1j * evals * op.duration)[:, None] * (evecs.conj().T @ x))
    return np.moveaxis(y.reshape(tensor.shape), lead, acted).reshape(-1)


def per_state_oracle(variant, cfg, seed, n_states):
    """check_oracle's draws, each state through its own generator build and ``block_route``."""
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
        exact = block_route(state.amplitudes, op, cfg, spec)
        if variant is PulseVariant.RAMAN:
            free = PulseOp(PulseVariant.FREE_EVOLVE, squid, duration)
            exact = block_route(exact, free, cfg, spec)
        worst = max(worst, float(np.max(np.abs(closed.amplitudes - exact))))
    return CheckResult(f"dynamics.{variant.value}.oracle", worst, ORACLE_TOL, worst < ORACLE_TOL)


@pytest.mark.parametrize("seed", [20210, 3, 77])
@pytest.mark.parametrize("variant", list(PulseVariant))
def test_oracle_check_equals_the_per_state_route(variant, seed):
    # == compares max_deviation bit for bit
    assert check_oracle(variant, CFG, seed=seed, n_states=100) == per_state_oracle(
        variant, CFG, seed, 100)


def test_oracle_check_equals_the_per_state_route_under_other_rates():
    cfg = CouplingConfig(lam=1.7, omega_ge=0.8, lambda_prime=1.3, omega_gi=35.5)
    for variant in PulseVariant:
        assert check_oracle(variant, cfg, seed=5, n_states=N_STATES) == per_state_oracle(
            variant, cfg, 5, N_STATES)


@pytest.fixture
def decompositions(monkeypatch):
    """The shape of every generator or stack the decomposition step gets, as ``checks`` binds it."""
    shapes = []
    original = checks.diagonalize_generator

    def recording(generator):
        shapes.append(np.shape(generator))
        return original(generator)

    monkeypatch.setattr(checks, "diagonalize_generator", recording)
    return shapes


@pytest.mark.parametrize("variant", list(PulseVariant))
def test_oracle_decomposes_each_phase_free_generator_once_per_call(variant, decompositions):
    first = check_oracle(variant, CFG, seed=20210, n_states=N_STATES)
    once = list(decompositions)
    blocks = [shape for shape in once if len(shape) == 2]
    # one block per drawn squid: the squid's 3x3, or 9x9 with the cavity for JC
    assert 1 <= len(blocks) <= 3
    assert set(blocks) == {(9, 9) if variant is PulseVariant.JC else (3, 3)}
    stacks = [shape for shape in once if len(shape) == 3]
    if variant is PulseVariant.RAMAN:
        # every state's coupling block, one stack per squid, beside that squid's free factor
        assert len(stacks) == len(blocks) and {shape[1:] for shape in stacks} == {(3, 3)}
        assert sum(shape[0] for shape in stacks) == N_STATES
    else:
        assert not stacks
    # nothing is carried over: a second call decomposes again, with the same result
    assert check_oracle(variant, CFG, seed=20210, n_states=N_STATES) == first
    assert decompositions == 2 * once


# ------------------------------------------------- batched routes vs per-state


@pytest.mark.parametrize("variant", list(PulseVariant))
def test_batched_closed_forms_equal_apply_pulse_op_bit_for_bit(variant):
    spec = BasisSpec(num_squids=3, fock_cutoff=2)
    rng = np.random.default_rng(41)
    ops, rows = [], []
    for _ in range(24):
        squid = int(rng.integers(1, 4))
        phi1, phi2 = (float(x) for x in rng.uniform(0.0, 2.0 * math.pi, 2))
        ops.append(PulseOp(variant, squid, float(rng.uniform(0.0, 8.0)), phi1=phi1, phi2=phi2))
        row = checks._random_state(rng, spec)
        rows.append(checks._without_e(row, squid, spec) if variant is PulseVariant.RAMAN else row)
    drawn = np.stack(rows)
    seen = []
    for squid, picks, amps in checks._closed_forms_by_squid(ops, drawn, spec, CFG):
        assert {ops[k].squid for k in picks} == {squid}
        seen += picks
        for k, row in zip(picks, amps):
            state = PureState(drawn[k], spec)
            assert np.array_equal(row, apply_pulse_op(state, ops[k], CFG).amplitudes)
    assert sorted(seen) == list(range(len(ops)))


def test_batched_raman_rows_are_guarded_as_apply_pulse_op_guards_one():
    spec = BasisSpec(num_squids=3, fock_cutoff=2)
    rng = np.random.default_rng(43)
    ops = [PulseOp(PulseVariant.RAMAN, 2, 1.0, phi1=0.5) for _ in range(4)]
    rows = [checks._without_e(checks._random_state(rng, spec), 2, spec) for _ in range(3)]
    rows.insert(2, checks._random_state(rng, spec))  # carries e population on SQUID 2
    with pytest.raises(LeakageError):
        apply_pulse_op(PureState(rows[2], spec), ops[2], CFG)
    with pytest.raises(LeakageError, match="sample 2: squid2"):
        list(checks._closed_forms_by_squid(ops, np.stack(rows), spec, CFG))


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
                a, b = checks._without_e(a, squid, spec), checks._without_e(b, squid, spec)
            a, b = PureState(a, spec), PureState(b, spec)
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
        state = PureState(checks._random_state(rng, spec), spec)
        before = jc_sectors_of_one(state.tensor(), squid)
        after = jc_sectors_of_one(apply_pulse_op(state, op, cfg).tensor(), squid)
        worst = max(worst, float(np.max(np.abs(after - before))))
    return worst


@pytest.mark.parametrize("seed", [20210, 3, 77])
def test_batched_unitarity_and_jc_checks_equal_the_per_state_route(seed):
    assert checks.check_unitarity(CFG, seed).max_deviation == per_state_unitarity(CFG, seed)
    assert (checks.check_jc_sector_conservation(CFG, seed).max_deviation
            == per_state_jc_sectors(CFG, seed))


OTHER_RATES = CouplingConfig(lam=1.7, omega_ge=0.8, lambda_prime=1.3, omega_gi=35.5)


def test_block_route_matches_the_full_register_generator():
    # exp(-i (h x I) t) = exp(-i h t) x I, checked against the 81 x 81 route
    spec = BasisSpec(num_squids=3, fock_cutoff=2)
    for cfg in (CFG, OTHER_RATES, CouplingConfig(omega_gi=1e5)):
        rng = np.random.default_rng(2007)
        for variant in PulseVariant:
            for k in range(30):
                squid = k % 3 + 1
                phi1, phi2 = (float(x) for x in rng.uniform(0.0, 2.0 * math.pi, 2))
                op = PulseOp(variant, squid, float(rng.uniform(0.0, 2.0 * math.pi)),
                             phi1=phi1, phi2=phi2)
                state = PureState(checks._random_state(rng, spec), spec)
                block = block_route(state.amplitudes, op, cfg, spec)
                full = evolve_exact(state, build_generator(op, spec, cfg), op.duration)
                if variant is PulseVariant.RAMAN:
                    free = PulseOp(PulseVariant.FREE_EVOLVE, squid, op.duration)
                    block = block_route(block, free, cfg, spec)
                    full = evolve_exact(full, build_generator(free, spec, cfg), op.duration)
                assert np.max(np.abs(block - full.amplitudes)) < 1e-14


# ------------------------------------------- drawn rows and shared decompositions


def e_free_state(state, squid):
    """The e level of ``squid`` emptied and the state renormalized, as a PureState."""
    arr = state.tensor().copy()
    index = [slice(None)] * arr.ndim
    index[squid - 1] = LEVEL_E
    arr[tuple(index)] = 0.0
    return PureState.from_amplitudes(arr.reshape(-1), state.spec, normalize=True)


@pytest.mark.parametrize("seed", [0, 7, 20210])
def test_drawn_rows_equal_the_pure_state_route_bit_for_bit(seed):
    spec = BasisSpec(num_squids=3, fock_cutoff=2)
    rows_rng, states_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    for k in range(30):
        squid = k % 3 + 1
        row = checks._random_state(rows_rng, spec)
        z = (states_rng.standard_normal(spec.dimension)
             + 1j * states_rng.standard_normal(spec.dimension))
        state = PureState.from_amplitudes(z, spec, normalize=True)
        assert row.shape == (spec.dimension,) and row.dtype == np.complex128
        assert row.tobytes() == state.amplitudes.tobytes()
        e_free = checks._without_e(row, squid, spec)
        assert e_free.tobytes() == e_free_state(state, squid).amplitudes.tobytes()
        assert row.tobytes() == state.amplitudes.tobytes()  # the draw is left as it was


def standalone_checks(cfg, seed):
    """run_all_checks' results, each from its own check call."""
    steps = checks._basis_steps(cfg)
    return [check_oracle(variant, cfg, seed=seed) for variant in PulseVariant] + [
        checks.check_unitarity(cfg, seed=seed),
        checks.check_jc_sector_conservation(cfg, seed=seed),
        checks.check_cnot_truth_table(cfg),
        checks.check_process_tables(cfg),
        checks.check_step_conformance(steps),
        checks.check_basis_run_amplitudes(steps),
        checks.check_clone_quality(cfg, seed=seed),
        checks.check_run_hygiene(cfg),
    ]


@pytest.mark.parametrize("cfg", [CFG, OTHER_RATES, CouplingConfig(omega_gi=1e5)],
                         ids=["default", "other_rates", "gi1e5"])
@pytest.mark.parametrize("seed", [20210, 3, 77])
def test_run_all_checks_equals_each_standalone_check(cfg, seed):
    # == compares every max_deviation bit for bit
    assert checks.run_all_checks(cfg, seed=seed) == standalone_checks(cfg, seed)


def test_one_run_decomposes_each_generator_block_once(monkeypatch):
    generators, ops = [], []
    decompose, lifted_block = checks.diagonalize_generator, checks._lifted_block

    def recording(generator):
        generators.append(np.array(generator))
        return decompose(generator)

    def building(op, spec, cfg):
        ops.append(op)
        return lifted_block(op, spec, cfg)

    monkeypatch.setattr(checks, "diagonalize_generator", recording)
    monkeypatch.setattr(checks, "_lifted_block", building)
    checks.run_all_checks(CFG)
    # no decomposition spans the 81-dimensional register
    assert all(g.shape[-1] < 81 for g in generators)
    # the phase-free generators of four variants on three SQUIDs, each built
    # once; the Raman oracle's free factor is the free-evolution oracle's
    phase_free = [(op.variant, op.squid) for op in ops if op.variant is not PulseVariant.RAMAN]
    assert len(phase_free) == 12 and len(set(phase_free)) == 12
    # and each block decomposed once, JC's with the cavity; a variant's block
    # is the same matrix on every SQUID
    blocks = [g for g in generators if g.ndim == 2]
    assert sorted(g.shape[0] for g in blocks) == [3] * 9 + [9] * 3
    assert len({(g.shape, g.tobytes()) for g in blocks}) == 4
    # every state's Raman coupling built once, its blocks one stack per SQUID
    assert len(ops) == 12 + 100
    stacks = [g for g in generators if g.ndim == 3]
    assert len(stacks) == 3 and sum(len(g) for g in stacks) == 100


def jc_sectors_of_one(tensor, squid):
    """One state's sector populations, level by level and photon by photon."""
    arr = np.abs(tensor) ** 2
    fock = tensor.shape[-1] - 1
    pops = np.zeros(fock + 2)
    for level in (LEVEL_G, LEVEL_I, LEVEL_E):
        index = [slice(None)] * arr.ndim
        index[squid - 1] = level
        by_photon = arr[tuple(index)].reshape(-1, fock + 1).sum(axis=0)
        for n in range(fock + 1):
            pops[n + (1 if level == LEVEL_E else 0)] += by_photon[n]
    return pops


@pytest.mark.parametrize("fock_cutoff", [1, 2, 3])
@pytest.mark.parametrize("squid", [1, 2, 3])
def test_batched_jc_sectors_equal_the_per_state_sums_bit_for_bit(fock_cutoff, squid):
    spec = BasisSpec(num_squids=3, fock_cutoff=fock_cutoff)
    rng = np.random.default_rng([fock_cutoff, squid])
    rows = [checks._random_state(rng, spec) for _ in range(17)]
    batched = checks._jc_sector_populations(np.stack(rows).reshape((17,) + spec.factor_dims),
                                            squid)
    expected = np.stack([jc_sectors_of_one(row.reshape(spec.factor_dims), squid) for row in rows])
    assert batched.tobytes() == expected.tobytes()


RANDOM_STATE_CHECKS = {
    **{variant.value: functools.partial(check_oracle, variant, CFG, n_states=N_STATES)
       for variant in PulseVariant},
    "unitarity": functools.partial(checks.check_unitarity, CFG),
    "jc_sectors": functools.partial(checks.check_jc_sector_conservation, CFG),
}


@pytest.mark.parametrize("check", RANDOM_STATE_CHECKS.values(), ids=RANDOM_STATE_CHECKS.keys())
def test_a_nan_draw_is_named_by_its_row_before_any_kernel(check, monkeypatch):
    original = checks._random_state
    draws = []

    def poisoned(rng, spec):
        draws.append(1)
        row = original(rng, spec)
        return row * math.nan if len(draws) == 8 else row

    def no_kernel(*args, **kwargs):
        raise AssertionError("a kernel ran on an unchecked row")

    monkeypatch.setattr(checks, "_random_state", poisoned)
    monkeypatch.setattr(checks, "run_pulse", no_kernel)
    # emptying the e level of a NaN row divides zeros by a NaN norm
    with np.errstate(invalid="ignore"), pytest.raises(NormalizationError,
                                                      match=r"^sample 7: state norm is nan$"):
        check()


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


def misplaced_generators(monkeypatch, variant, wrong):
    """Pass each ``variant`` generator ``checks`` builds through ``wrong(generator, op, spec)``."""
    original = checks.build_generator

    def build(op, spec, cfg=CFG):
        generator = original(op, spec, cfg)
        return wrong(generator, op, spec) if op.variant is variant else generator

    monkeypatch.setattr(checks, "build_generator", build)


def on_the_next_squid(generator, op, spec):
    return build_generator(dataclasses.replace(op, squid=op.squid % spec.num_squids + 1), spec)


def with_the_cavity_on_the_next_squid(generator, op, spec):
    # the cavity and a SQUID both span 3 states at cutoff 2, so the axes swap
    other, cavity = op.squid % spec.num_squids, spec.num_squids
    tensor = generator.reshape(spec.factor_dims * 2)
    tensor = np.swapaxes(np.swapaxes(tensor, other, cavity), 4 + other, 4 + cavity)
    return tensor.reshape(generator.shape)


@pytest.mark.parametrize("variant, wrong", [
    (PulseVariant.DRIVE_GE, on_the_next_squid), (PulseVariant.FREE_EVOLVE, on_the_next_squid),
    (PulseVariant.JC, on_the_next_squid), (PulseVariant.JC, with_the_cavity_on_the_next_squid),
], ids=["drive_ge-squid", "free_evolve-squid", "jc-squid", "jc-cavity"])
def test_a_phase_free_generator_on_the_wrong_factors_fails_the_block_check(variant, wrong,
                                                                          monkeypatch):
    misplaced_generators(monkeypatch, variant, wrong)
    result = check_oracle(variant, CFG, seed=20210, n_states=N_STATES)
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
