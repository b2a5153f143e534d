"""The validate oracle: same verdicts as the per-state route, fewer decompositions."""

import math

import numpy as np
import pytest

from clone_sim import (
    BasisSpec,
    CouplingConfig,
    PulseOp,
    PulseVariant,
    PureState,
    apply_pulse_op,
    build_generator,
    evolve_exact,
)
from clone_sim import checks
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
    assert check_oracle(variant, CFG, seed=seed, n_states=100) == expected


def test_oracle_check_equals_the_per_state_route_under_other_rates():
    cfg = CouplingConfig(lam=1.7, omega_ge=0.8, lambda_prime=1.3, omega_gi=35.5)
    for variant in PulseVariant:
        assert check_oracle(variant, cfg, seed=5, n_states=N_STATES) == per_state_oracle(
            variant, cfg, 5, N_STATES)


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
