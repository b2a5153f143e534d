"""Register encoding, state container, overlaps, and reduced density matrices."""

import itertools
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from clone_sim import (
    BasisSpec,
    DensityMatrix,
    InputQubit,
    NormalizationError,
    LeakageError,
    PureState,
    basis_index,
    basis_tuple,
    fidelity_against_dm,
    inner_product,
    level_code,
    partial_trace,
    phase_aligned_distance,
    target_state,
)
from conftest import brute_force_partial_trace, random_pure_state

RT2 = math.sqrt(2.0)


# ---------------------------------------------------------------- encoding


def test_level_code_accepts_names_and_codes():
    assert [level_code(c) for c in "gie"] == [0, 1, 2]
    assert [level_code(k) for k in (0, 1, 2)] == [0, 1, 2]
    with pytest.raises(ValueError):
        level_code("x")
    with pytest.raises(ValueError):
        level_code(3)


def test_basis_spec_validation_and_shape():
    spec = BasisSpec(3, 2)
    assert spec.dimension == 81
    assert spec.factor_dims == (3, 3, 3, 3)
    assert spec.factor_labels == ("squid1", "squid2", "squid3", "cavity")
    with pytest.raises(ValueError):
        BasisSpec(0, 2)
    with pytest.raises(ValueError):
        BasisSpec(3, 0)


def test_basis_index_corner_values():
    spec = BasisSpec(3, 2)
    assert basis_index(spec, ("g", "g", "g"), 0) == 0
    assert basis_index(spec, ("e", "e", "e"), 2) == spec.dimension - 1
    # mixed-radix layout: ((0*3+1)*3+2)*3+1
    assert basis_index(spec, ("g", "i", "e"), 1) == 16


def test_basis_index_rejects_out_of_range():
    spec = BasisSpec(3, 2)
    with pytest.raises(ValueError):
        basis_index(spec, ("g", "g"), 0)
    with pytest.raises(ValueError):
        basis_index(spec, ("g", "g", "g"), 3)
    with pytest.raises(ValueError):
        basis_tuple(spec, spec.dimension)


@pytest.mark.parametrize("num_squids", [1, 2, 3])
@pytest.mark.parametrize("fock_cutoff", [1, 2, 3])
def test_basis_index_bijection_exhaustive(num_squids, fock_cutoff):
    spec = BasisSpec(num_squids, fock_cutoff)
    seen = set()
    for levels in itertools.product(range(3), repeat=num_squids):
        for n in range(fock_cutoff + 1):
            idx = basis_index(spec, levels, n)
            assert basis_tuple(spec, idx) == (levels, n)
            seen.add(idx)
    assert seen == set(range(spec.dimension))


# ---------------------------------------------------------------- PureState


def test_pure_state_rejects_unnormalized_amplitudes():
    spec = BasisSpec(1, 1)
    with pytest.raises(NormalizationError):
        PureState(np.array([1.0, 1.0, 0.0, 0.0, 0.0, 0.0]), spec)
    with pytest.raises(ValueError):
        PureState(np.zeros(5), spec)


def test_from_amplitudes_normalize_and_zero_vector():
    spec = BasisSpec(1, 1)
    psi = PureState.from_amplitudes([3.0, 0, 0, 4.0, 0, 0], spec, normalize=True)
    assert abs(psi.norm() - 1.0) < 1e-15
    assert abs(psi.amplitudes[0] - 0.6) < 1e-15
    with pytest.raises(ValueError):
        PureState.from_amplitudes(np.zeros(6), spec, normalize=True)


def test_amplitudes_are_read_only():
    psi = PureState.basis_state(BasisSpec(1, 1), ("g",), 0)
    with pytest.raises(ValueError):
        psi.amplitudes[0] = 0.0


def test_populations_and_photon_tail():
    spec = BasisSpec(2, 2)
    amps = np.zeros(spec.dimension, dtype=complex)
    amps[basis_index(spec, ("g", "i"), 2)] = 1.0 / RT2
    amps[basis_index(spec, ("e", "g"), 0)] = 1.0 / RT2
    psi = PureState(amps, spec)
    assert abs(psi.level_population(1, "g") - 0.5) < 1e-15
    assert abs(psi.level_population(2, "i") - 0.5) < 1e-15
    assert abs(psi.photon_tail_population(2) - 0.5) < 1e-15
    assert psi.photon_tail_population(0) == 1.0
    assert psi.photon_tail_population(3) == 0.0


@pytest.mark.parametrize("fock_cutoff", [1, 2, 32])
@pytest.mark.parametrize("num_squids", [1, 2, 3])
def test_level_population_is_the_one_batched_sum(num_squids, fock_cutoff):
    # PureState reads its populations from level_populations, bit for bit,
    # on states with exact zeros and with amplitudes 1e-7 times the rest
    from clone_sim.hilbert import LEVEL_NAMES, level_populations, level_rows

    spec = BasisSpec(num_squids, fock_cutoff)
    rng = np.random.default_rng((num_squids, fock_cutoff))
    raw = rng.normal(size=spec.dimension) + 1j * rng.normal(size=spec.dimension)
    raw *= np.where(rng.random(spec.dimension) < 0.3, 1e-7, 1.0)
    raw[rng.random(spec.dimension) < 0.3] = 0.0
    states = [PureState.from_amplitudes(raw, spec, normalize=True),
              PureState.basis_state(spec, ("i",) * num_squids, fock_cutoff)]
    for psi in states:
        for squid in range(1, num_squids + 1):
            for level in LEVEL_NAMES:
                got = psi.level_population(squid, level)
                batch = psi.tensor()[..., None]
                picks = level_rows(spec.factor_dims, squid, level_code(level))
                assert got == level_populations(batch.reshape(-1, 1), picks)[0]
                plain = np.sum(np.abs(psi.tensor().take(level_code(level), squid - 1)) ** 2)
                assert abs(got - plain) < 1e-15


def test_state_dict_round_trip():
    psi = random_pure_state(7, BasisSpec(3, 2))
    payload = json.loads(json.dumps(psi.to_dict()))
    assert payload["basis"] == {"num_squids": 3, "fock_cutoff": 2}
    again = np.array([complex(re, im) for re, im in payload["amplitudes"]])
    assert np.array_equal(again, psi.amplitudes)


# ---------------------------------------------------------------- overlaps


def test_inner_product_examples(spec332):
    psi = random_pure_state(3, spec332)
    assert abs(inner_product(psi, psi) - 1.0) < 1e-14
    a = PureState.basis_state(spec332, ("g", "g", "g"), 0)
    b = PureState.basis_state(spec332, ("i", "g", "g"), 0)
    assert inner_product(a, b) == 0.0


def test_inner_product_single_squid_plus_vs_g():
    spec = BasisSpec(1, 1)
    plus = PureState.from_amplitudes([1 / RT2, 1 / RT2, 0, 0, 0, 0], spec)
    g = PureState.basis_state(spec, ("g",), 0)
    assert abs(inner_product(plus, g) - 1 / RT2) < 1e-15


def test_inner_product_conjugates_first_argument():
    spec = BasisSpec(1, 1)
    a = PureState.from_amplitudes([1j, 0, 0, 0, 0, 0], spec)
    b = PureState.basis_state(spec, ("g",), 0)
    assert abs(inner_product(a, b) - (-1j)) < 1e-15
    assert abs(inner_product(b, a) - 1j) < 1e-15


def test_inner_product_rejects_mismatched_registers():
    a = PureState.basis_state(BasisSpec(1, 1), ("g",), 0)
    b = PureState.basis_state(BasisSpec(1, 2), ("g",), 0)
    with pytest.raises(ValueError):
        inner_product(a, b)


def test_fidelity_examples():
    spec = BasisSpec(1, 1)
    plus = PureState.from_amplitudes([1 / RT2, 1 / RT2, 0, 0, 0, 0], spec)
    g = PureState.basis_state(spec, ("g",), 0)
    i = PureState.basis_state(spec, ("i",), 0)
    rotated = PureState.from_amplitudes(np.exp(0.37j) * plus.amplitudes, spec)
    assert abs(abs(inner_product(plus, rotated)) ** 2 - 1.0) < 1e-14
    assert abs(inner_product(g, i)) ** 2 == 0.0
    assert abs(abs(inner_product(plus, g)) ** 2 - 0.5) < 1e-15


@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_fidelity_symmetric_and_bounded(seed):
    spec = BasisSpec(2, 1)
    a = random_pure_state((seed, 0), spec)
    b = random_pure_state((seed, 1), spec)
    fab, fba = abs(inner_product(a, b)) ** 2, abs(inner_product(b, a)) ** 2
    assert abs(fab - fba) < 1e-12
    assert -1e-12 <= fab <= 1.0 + 1e-12


# ------------------------------------------------- phase-blind comparison


def test_equal_up_to_global_phase_accepts_sign_flip(spec332):
    psi = random_pure_state(11, spec332)
    minus = PureState(-psi.amplitudes, spec332)
    assert phase_aligned_distance(psi, minus) < 1e-10


def test_equal_up_to_global_phase_rejects_orthogonal(spec332):
    a = PureState.basis_state(spec332, ("g", "g", "g"), 0)
    b = PureState.basis_state(spec332, ("g", "g", "g"), 1)
    assert not phase_aligned_distance(a, b) < 1e-10


def test_equal_up_to_global_phase_tolerance_semantics(spec332):
    psi = random_pure_state(13, spec332)
    bumped = psi.amplitudes.copy()
    bumped[0] += 1e-14
    other = PureState.from_amplitudes(bumped, spec332, normalize=True)
    assert phase_aligned_distance(psi, other) < 1e-9


@given(seed=st.integers(0, 2**32 - 1), theta=st.floats(0.0, 2 * math.pi))
@settings(max_examples=40, deadline=None)
def test_phase_aligned_distance_resolves_below_sqrt_eps(seed, theta):
    # the metric must not bottom out near 1e-8 the way sqrt(2 - 2|<a|b>|) does
    spec = BasisSpec(2, 1)
    psi = random_pure_state(seed, spec)
    rotated = PureState(np.exp(1j * theta) * psi.amplitudes, spec)
    assert phase_aligned_distance(psi, rotated) < 1e-13


def test_phase_aligned_distance_on_orthogonal_pair():
    spec = BasisSpec(1, 1)
    g = PureState.basis_state(spec, ("g",), 0)
    i = PureState.basis_state(spec, ("i",), 0)
    assert abs(phase_aligned_distance(g, i) - RT2) < 1e-15


# ------------------------------------------------------------ partial trace


def test_partial_trace_of_product_state_is_pure(spec332):
    psi = PureState.basis_state(spec332, ("g", "g", "g"), 0)
    rho = partial_trace(psi, ("squid2",))
    expect = np.zeros((3, 3))
    expect[0, 0] = 1.0
    assert np.allclose(rho.entries, expect, atol=1e-15)
    assert rho.subsystem == ("squid2",)


def test_partial_trace_of_embedded_bell_pair_is_maximally_mixed(spec332):
    # (|+->_23 + |-+>_23)/sqrt(2) with squid1, cavity in |g>, |0>
    plus = np.array([1.0, 1.0, 0.0]) / RT2
    minus = np.array([-1.0, 1.0, 0.0]) / RT2
    g = np.array([1.0, 0.0, 0.0])
    f0 = np.array([1.0, 0.0, 0.0])
    vec = (np.kron(np.kron(np.kron(g, plus), minus), f0)
           + np.kron(np.kron(np.kron(g, minus), plus), f0)) / RT2
    psi = PureState(vec, spec332)
    rho = partial_trace(psi, ("squid2",))
    expect = np.diag([0.5, 0.5, 0.0])
    assert np.allclose(rho.entries, expect, atol=1e-14)


def test_partial_trace_of_cloner_output_matches_frozen_matrix():
    # reduced copy of the ideal output for the plus-input: in (g, i)
    # coordinates the 5/6 vs 1/6 mixture collapses to this matrix
    psi = target_state(InputQubit(1.0, 0.0))
    rho = partial_trace(psi, ("squid2",))
    frozen = np.array([
        [1.0 / 2.0, 1.0 / 3.0, 0.0],
        [1.0 / 3.0, 1.0 / 2.0, 0.0],
        [0.0, 0.0, 0.0],
    ])
    assert np.max(np.abs(rho.entries - frozen)) < 1e-14
    assert np.max(np.abs(rho.entries - brute_force_partial_trace(psi, ("squid2",)))) < 1e-14


@pytest.mark.parametrize("keep", [
    ("squid1",), ("squid3",), ("cavity",),
    ("squid1", "squid2"), ("squid2", "cavity"),
    ("squid1", "squid2", "squid3", "cavity"),
])
def test_partial_trace_matches_brute_force(keep):
    spec = BasisSpec(3, 1)
    psi = random_pure_state((5, len(keep)), spec)
    rho = partial_trace(psi, keep)
    assert np.max(np.abs(rho.entries - brute_force_partial_trace(psi, keep))) < 1e-13


def test_partial_trace_invariants(spec331):
    psi = random_pure_state(17, spec331)
    rho = partial_trace(psi, ("squid2", "cavity"))
    assert abs(np.trace(rho.entries).real - 1.0) < 1e-12
    assert np.min(np.linalg.eigvalsh(rho.entries)) >= -1e-10


def test_partial_trace_keeping_everything_is_rank_one(spec331):
    psi = random_pure_state(19, spec331)
    rho = partial_trace(psi, spec331.factor_labels)
    evals = np.sort(np.linalg.eigvalsh(rho.entries))
    assert abs(evals[-1] - 1.0) < 1e-12
    assert np.max(np.abs(evals[:-1])) < 1e-12


def test_partial_trace_rejects_bad_keep_lists(spec331):
    psi = random_pure_state(23, spec331)
    with pytest.raises(ValueError):
        partial_trace(psi, ())
    with pytest.raises(ValueError):
        partial_trace(psi, ("squid9",))
    with pytest.raises(ValueError):
        partial_trace(psi, ("squid1", "squid1"))


# ------------------------------------------------------------ DensityMatrix


def test_density_matrix_validation(spec332):
    ok = np.diag([0.5, 0.5, 0.0])
    DensityMatrix(ok, ("squid1",), spec332)
    with pytest.raises(ValueError):
        DensityMatrix(ok + np.array([[0, 1e-3, 0], [0, 0, 0], [0, 0, 0]]),
                      ("squid1",), spec332)  # not Hermitian
    with pytest.raises(ValueError):
        DensityMatrix(np.diag([0.7, 0.5, 0.0]), ("squid1",), spec332)  # trace
    with pytest.raises(ValueError):
        DensityMatrix(np.diag([1.5, -0.5, 0.0]), ("squid1",), spec332)  # negative
    with pytest.raises(ValueError):
        DensityMatrix(ok, ("laser",), spec332)
    with pytest.raises(ValueError):
        DensityMatrix(np.eye(9) / 9.0, ("squid2", "squid1"), spec332)  # order


# ------------------------------------------------- qubit-vs-matrix fidelity


def _qubit_dm(mat2, spec):
    full = np.zeros((3, 3), dtype=complex)
    full[:2, :2] = mat2
    return DensityMatrix(full, ("squid1",), spec)


def test_fidelity_against_dm_examples(spec332):
    plus = np.array([1.0, 1.0]) / RT2
    minus = np.array([-1.0, 1.0]) / RT2
    pure = _qubit_dm(np.outer(plus, plus), spec332)
    mixed = _qubit_dm(np.eye(2) / 2.0, spec332)
    clone = _qubit_dm(5.0 / 6.0 * np.outer(plus, plus) + 1.0 / 6.0 * np.outer(minus, minus),
                      spec332)
    assert abs(fidelity_against_dm(plus, pure) - 1.0) < 1e-15
    assert abs(fidelity_against_dm(plus, mixed) - 0.5) < 1e-15
    assert abs(fidelity_against_dm(plus, clone) - 5.0 / 6.0) < 1e-15


def test_fidelity_against_dm_rejects_leaky_or_bad_input(spec332):
    plus = np.array([1.0, 1.0]) / RT2
    leaky = DensityMatrix(np.diag([0.5, 0.3, 0.2]), ("squid1",), spec332)
    with pytest.raises(LeakageError):
        fidelity_against_dm(plus, leaky)
    ok = _qubit_dm(np.eye(2) / 2.0, spec332)
    with pytest.raises(ValueError):
        fidelity_against_dm(np.array([1.0, 1.0]), ok)  # not normalized
    with pytest.raises(ValueError):
        fidelity_against_dm(np.array([1.0, 0.0, 0.0]), ok)  # wrong length
    cavity = DensityMatrix(np.diag([1.0, 0.0, 0.0]), ("cavity",), spec332)
    with pytest.raises(ValueError):
        fidelity_against_dm(plus, cavity)


# ------------------------------------------------- density-matrix floor screen


FLOOR = -1e-10  # hilbert.EIGENVALUE_FLOOR


def _stack_with_lowest(rng, lows, diagonal=False):
    # Hermitian unit-trace 3x3 matrices whose smallest eigenvalue is lows[k]
    count = len(lows)
    rest = rng.uniform(0.2, 0.8, count)
    evals = np.stack([lows, rest * (1.0 - lows), (1.0 - rest) * (1.0 - lows)], axis=1)
    if diagonal:
        return evals[:, :, None] * np.eye(3)
    gauss = rng.normal(size=(count, 3, 3)) + 1j * rng.normal(size=(count, 3, 3))
    vecs = np.linalg.qr(gauss)[0]
    mats = (vecs * evals[:, None, :]) @ np.conj(vecs).transpose(0, 2, 1)
    return (mats + np.conj(mats).transpose(0, 2, 1)) / 2.0


def _eigvalsh_verdicts(mats):
    return np.linalg.eigvalsh(mats)[:, 0] >= FLOOR


def _screen_cases():
    rng = np.random.default_rng(8)
    shifts = np.array([-1e-11, -1e-13, 1e-13, 1e-11] * 6)
    return [
        _stack_with_lowest(rng, rng.uniform(0.0, 0.3, 40)),
        _stack_with_lowest(rng, rng.uniform(-0.2, 0.0, 40)),
        _stack_with_lowest(rng, FLOOR + shifts),
        _stack_with_lowest(rng, FLOOR + shifts, diagonal=True),
    ]


@pytest.mark.parametrize("case", range(4))
def test_density_screen_gives_the_eigvalsh_verdict(case):
    from clone_sim.hilbert import density_defect

    mats = _screen_cases()[case]
    want = _eigvalsh_verdicts(mats)
    for k in range(len(mats)):
        assert (density_defect(mats[k:k + 1]) is None) == want[k], k
    defect = density_defect(mats)
    if want.all():
        assert defect is None
    else:
        k = int(np.flatnonzero(~want)[0])
        low = float(np.linalg.eigvalsh(mats)[k, 0])
        assert defect == (k, f"density matrix has eigenvalue {low} below {FLOOR}")


def test_density_screen_decides_near_the_floor_both_ways():
    # eigvalsh passes a matrix at floor + 1e-11 or + 1e-13 and fails one at
    # floor - 1e-13 or - 1e-11, diagonal or not
    from clone_sim.hilbert import density_defect

    rng = np.random.default_rng(3)
    for shift, passes in ((1e-11, True), (1e-13, True), (-1e-13, False), (-1e-11, False)):
        for diagonal in (True, False):
            mats = _stack_with_lowest(rng, np.array([FLOOR + shift]), diagonal)
            assert (density_defect(mats) is None) == passes, (shift, diagonal)


def _counting_eigvalsh(monkeypatch):
    seen = []
    original = np.linalg.eigvalsh

    def counted(mats):
        seen.append(len(mats))
        return original(mats)

    monkeypatch.setattr(np.linalg, "eigvalsh", counted)
    return seen


def test_density_screen_diagonalises_every_matrix_it_cannot_clear(monkeypatch):
    from clone_sim.hilbert import density_defect

    # with no Gram bound to prove the floor, every matrix goes to eigvalsh
    rng = np.random.default_rng(13)
    mats = _stack_with_lowest(rng, FLOOR + rng.uniform(0.0, 5e-13, 30))
    seen = _counting_eigvalsh(monkeypatch)
    assert density_defect(mats) is None
    assert seen == [30]


def test_density_defect_names_the_first_failing_row_with_its_eigenvalue():
    from clone_sim.hilbert import density_defect

    rng = np.random.default_rng(21)
    lows = np.array([0.1, 0.05, FLOOR + 1e-11, FLOOR - 1e-11, 0.2, -0.3])
    mats = _stack_with_lowest(rng, lows)
    low = float(np.linalg.eigvalsh(mats[3])[0])
    assert low < FLOOR
    assert density_defect(mats) == (3, f"density matrix has eigenvalue {low} below {FLOOR}")
    with pytest.raises(ValueError, match=f"^density matrix has eigenvalue {low} below"):
        DensityMatrix(mats[3], ("squid1",), BasisSpec(3, 2))


def _unit_trace_grams(rng, n, count=24):
    # stacks C of complex 3 x n matrices, full rank, rank 2 and rank 1, and
    # fl(C C^H) formed as score_rows forms it; the rank-deficient rows are
    # scaled by 2 or 0.5i, which is exact, so their true smallest eigenvalue is 0
    blocks = rng.normal(size=(count, 3, n)) + 1j * rng.normal(size=(count, 3, n))
    blocks[count // 3:, 2] = 2.0 * blocks[count // 3:, 0]
    blocks[2 * count // 3:, 1] = 0.5j * blocks[2 * count // 3:, 0]
    blocks /= np.linalg.norm(blocks.reshape(count, -1), axis=1)[:, None, None]
    return blocks @ np.conj(blocks).transpose(0, 2, 1)


@pytest.mark.parametrize("n", [18, 27, 81, 297])
def test_gram_bound_holds_and_clears_the_floor(n, monkeypatch):
    from clone_sim.hilbert import density_defect

    rho = _unit_trace_grams(np.random.default_rng(n), n)
    gamma = 8 * (n + 2) * 2.0 ** -53
    bound = gamma * (np.abs(np.trace(rho, axis1=1, axis2=2)) + 1e-12) / (1 - gamma)
    assert np.all(np.linalg.eigvalsh(rho)[:, 0] >= -bound)
    assert np.all(bound <= -FLOOR - 1e-12)
    seen = _counting_eigvalsh(monkeypatch)
    assert density_defect(rho, gram_terms=n) is None
    assert seen == []


@pytest.mark.parametrize("terms", [10 ** 15, 2 ** 62])
@pytest.mark.parametrize("case", range(4))
def test_gram_screen_that_cannot_clear_falls_back_to_the_full_check(case, terms, monkeypatch):
    # gamma near 1, or above it, proves nothing: eigvalsh decides, passing
    # and failing stacks alike
    from clone_sim.hilbert import density_defect

    mats = _screen_cases()[case]
    seen = _counting_eigvalsh(monkeypatch)
    want = density_defect(mats)
    calls = list(seen)
    assert density_defect(mats, gram_terms=terms) == want
    assert seen == calls * 2


def test_gram_screen_runs_after_the_hermiticity_and_trace_checks():
    from clone_sim.hilbert import density_defect

    rho = _unit_trace_grams(np.random.default_rng(5), 27, count=6)
    assert density_defect(rho[:0], 27) is None
    rho[2] *= 1.5
    assert density_defect(rho, 27) == density_defect(rho)
    assert density_defect(rho, 27)[0] == 2
    rho[1, 0, 1] += 1e-9
    assert density_defect(rho, 27) == (1, "density matrix is not Hermitian within tolerance")


# ---------------------------------------------------------- row-norm screen


def _contiguous_norms(amps):
    # each row summed as one contiguous run, the route a failure reports
    rows = np.ascontiguousarray(np.moveaxis(amps, -1, 0)).reshape(amps.shape[-1], -1)
    parts = rows.view(np.float64)
    return np.sqrt(np.einsum("ij,ij->i", parts, parts))


def _rows_with_norms(norms, spec=BasisSpec(3, 2)):
    states = [random_pure_state((91, k), spec).tensor() * norm for k, norm in enumerate(norms)]
    return np.stack(states, axis=-1)


@pytest.mark.parametrize("offsets", [
    [0.0, 2e-13, -5e-13, 0.0],
    [0.0, 1e-12 - 2e-16, -(1e-12 - 2e-16), 9.9e-13],
    [0.0, 1e-12 + 2e-16, 0.0, -2e-12],
    [-(1e-12 + 2e-16), 0.0, 3e-12, 0.0],
    [0.0, 0.0, math.nan, 1e-12],
])
def test_row_norm_screen_gives_the_contiguous_verdict_and_norm(offsets):
    amps = _rows_with_norms(1.0 + np.array(offsets))
    assert _norm_outcome(amps, 40) == _contiguous_verdict(amps, 40)
    for b in range(amps.shape[-1]):  # a row alone takes the one-dot route
        row = amps[..., b:b + 1].copy()
        assert _norm_outcome(row, 40 + b) == _contiguous_verdict(row, 40 + b), b


def _norm_outcome(amps, first_sample):
    from clone_sim.hilbert import check_row_norms

    try:
        check_row_norms(amps, first_sample)
    except NormalizationError as exc:
        return str(exc)
    return None


def _contiguous_verdict(amps, first_sample):
    # the norm rule on the contiguous sums alone, as it read before the screens
    norms = _contiguous_norms(amps)
    bad = np.flatnonzero(~(np.abs(norms - 1.0) < 1e-12))
    if not bad.size:
        return None
    k = int(bad[0])
    return f"sample {first_sample + k}: state norm is {float(norms[k])!r}"


@pytest.mark.parametrize("fock_cutoff", [2, 32])
def test_row_norm_screen_at_the_tolerance_edge(fock_cutoff):
    # norms 1 +- (NORM_TOL + k ulp): alone, in a batch and in reverse order
    eps = float(np.finfo(np.float64).eps)
    offsets = [sign * (1e-12 + k * eps) for sign in (1.0, -1.0) for k in range(-12, 13)]
    amps = _rows_with_norms(1.0 + np.array(offsets), BasisSpec(3, fock_cutoff))
    verdicts = [_contiguous_verdict(amps[..., b:b + 1], 3 + b) for b in range(len(offsets))]
    assert verdicts.count(None) not in (0, len(verdicts))  # the edge lies inside the range
    for b, verdict in enumerate(verdicts):
        assert _norm_outcome(amps[..., b:b + 1].copy(), 3 + b) == verdict, b
    for batch in (amps, amps[..., ::-1].copy()):
        assert _norm_outcome(batch, 3) == _contiguous_verdict(batch, 3)


@pytest.mark.parametrize("fill", [math.nan, math.inf, -math.inf, 0.0])
@pytest.mark.parametrize("fock_cutoff", [2, 32])
def test_a_non_finite_or_zero_row_fails_alone_as_in_a_batch(fill, fock_cutoff):
    amps = _rows_with_norms([1.0, 1.0, 1.0], BasisSpec(3, fock_cutoff))
    if fill == 0.0:
        amps[..., 1] = 0.0
    else:
        amps[1, 0, 2, 1, 1] = fill
    want = "nan" if math.isnan(fill) else ("0.0" if fill == 0.0 else "inf")
    assert _norm_outcome(amps, 5) == f"sample 6: state norm is {want}"
    assert _norm_outcome(amps[..., 1:2].copy(), 6) == f"sample 6: state norm is {want}"
