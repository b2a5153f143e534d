"""Reference states, clone scoring, and the seeded universality sweep."""

import math

import numpy as np
import pytest

from clone_sim import (
    BasisSpec,
    CloneReport,
    InputQubit,
    PureState,
    basis_index,
    clone_fidelities,
    computational_leakage,
    partial_trace,
    reference_step_state,
    run_uqcm,
    step_conformance,
    target_state,
    universality_sweep,
)
from clone_sim.protocol import STEP_LABELS, StepTrace
from conftest import brute_force_partial_trace

RT6 = math.sqrt(6.0)
FIVE_SIXTHS = 5.0 / 6.0


def amp(state, levels, photons):
    return state.amplitudes[basis_index(state.spec, levels, photons)]


# ---------------------------------------------------------- reference states


def test_target_state_alpha_branch_amplitudes():
    # every nonzero amplitude of the plus-input target is +-1/sqrt(6):
    # four copy terms with one photon, two correlated terms with none
    psi = target_state(InputQubit(1.0, 0.0))
    for levels in (("g", "g", "g"), ("g", "g", "i"), ("g", "i", "g"), ("g", "i", "i")):
        assert abs(amp(psi, levels, 1) - 1.0 / RT6) < 1e-14
    assert abs(amp(psi, ("g", "g", "g"), 0) - (-1.0 / RT6)) < 1e-14
    assert abs(amp(psi, ("g", "i", "i"), 0) - 1.0 / RT6) < 1e-14
    assert abs(amp(psi, ("g", "g", "i"), 0)) < 1e-14
    assert np.count_nonzero(np.abs(psi.amplitudes) > 1e-14) == 6


def test_target_state_beta_branch_amplitudes():
    psi = target_state(InputQubit(0.0, 1.0))
    signs = {("g", "g", "g"): 1.0, ("g", "g", "i"): -1.0,
             ("g", "i", "g"): -1.0, ("g", "i", "i"): 1.0}
    for levels, sign in signs.items():
        assert abs(amp(psi, levels, 0) - sign / RT6) < 1e-14
    assert abs(amp(psi, ("g", "g", "g"), 1) - (-1.0 / RT6)) < 1e-14
    assert abs(amp(psi, ("g", "i", "i"), 1) - 1.0 / RT6) < 1e-14


def test_reference_states_are_normalized_for_arbitrary_inputs():
    rng = np.random.default_rng(71)
    for _ in range(6):
        q = InputQubit.from_bloch(rng.uniform(0, math.pi), rng.uniform(0, 2 * math.pi))
        for label in ("input",) + STEP_LABELS:
            ref = reference_step_state(label, q)
            assert abs(ref.norm() - 1.0) < 1e-12


def test_reference_step_state_rejects_unknown_label():
    with pytest.raises(ValueError):
        reference_step_state("step11", InputQubit(1.0, 0.0))


# ------------------------------------------------------------- clone scoring


def test_target_state_scores_five_sixths_for_random_inputs():
    rng = np.random.default_rng(73)
    for _ in range(8):
        q = InputQubit.from_bloch(rng.uniform(0, math.pi), rng.uniform(0, 2 * math.pi))
        report = clone_fidelities(target_state(q), q)
        assert abs(report.fidelity_squid2 - FIVE_SIXTHS) < 1e-12
        assert abs(report.fidelity_squid3 - FIVE_SIXTHS) < 1e-12
        assert abs(report.fidelity_squid2 - report.fidelity_squid3) < 1e-12
        assert abs(report.target_overlap - 1.0) < 1e-12
        assert report.leakage < 1e-10


def test_perfect_copies_would_score_one():
    q = InputQubit.from_bloch(0.8, 1.1)
    spec = BasisSpec(3, 2)
    g = np.array([1.0, 0.0, 0.0])
    qubit = np.append(q.gi_vector(), 0.0)
    f0 = np.zeros(3)
    f0[0] = 1.0
    vec = np.kron(np.kron(np.kron(g, qubit), qubit), f0)
    impossible = PureState(vec, spec)
    report = clone_fidelities(impossible, q)
    assert abs(report.fidelity_squid2 - 1.0) < 1e-12
    assert abs(report.fidelity_squid3 - 1.0) < 1e-12


def test_reduced_copy_matches_brute_force_partial_trace():
    psi = target_state(InputQubit(1.0, 0.0))
    rho = partial_trace(psi, ("squid3",))
    assert np.max(np.abs(rho.entries - brute_force_partial_trace(psi, ("squid3",)))) < 1e-13


def test_computational_leakage_flags_the_right_populations():
    spec = BasisSpec(3, 2)
    assert computational_leakage(PureState.basis_state(spec, ("g", "i", "g"), 1)) == 0.0
    assert abs(computational_leakage(PureState.basis_state(spec, ("g", "e", "g"), 0)) - 1.0) < 1e-15
    assert abs(computational_leakage(PureState.basis_state(spec, ("g", "g", "g"), 2)) - 1.0) < 1e-15


def test_clone_report_rejects_out_of_range_fields():
    with pytest.raises(ValueError):
        CloneReport(1.2, 0.5, 0.5, 0.0)
    with pytest.raises(ValueError):
        CloneReport(0.5, 0.5, 0.5, -0.1)


# ----------------------------------------------------------- step conformance


def test_step_conformance_reports_unit_overlaps():
    for q in (InputQubit(1.0, 0.0), InputQubit(0.0, 1.0)):
        _, trace = run_uqcm(q)
        rows = step_conformance(trace, q)
        assert [label for label, _ in rows] == ["input"] + list(STEP_LABELS)
        for _, overlap in rows:
            assert overlap > 1.0 - 1e-10


def test_step_conformance_requires_complete_traces():
    q = InputQubit(1.0, 0.0)
    _, trace = run_uqcm(q)
    truncated = StepTrace(trace.entries[:4])
    with pytest.raises(ValueError):
        step_conformance(truncated, q)


# -------------------------------------------------------------------- sweep


def test_sweep_is_deterministic_and_job_count_invariant():
    a = universality_sweep(12, seed=99)
    b = universality_sweep(12, seed=99)
    assert a.rows == b.rows
    assert a.to_csv() == b.to_csv()


def test_sweep_fidelities_are_universal():
    result = universality_sweep(25, seed=2027)
    f2 = np.array([row.f2 for row in result.rows])
    f3 = np.array([row.f3 for row in result.rows])
    assert np.max(np.abs(f2 - FIVE_SIXTHS)) < 1e-9
    assert np.max(np.abs(f3 - FIVE_SIXTHS)) < 1e-9
    assert float(np.var(f2)) < 1e-18
    for row in result.rows:
        assert row.target_overlap > 1.0 - 1e-9
        assert row.leakage < 1e-10


def test_sweep_csv_schema_and_precision():
    result = universality_sweep(3, seed=5)
    lines = result.to_csv().strip().split("\n")
    assert lines[0] == "sample,theta,phi,f2,f3,target_overlap,leakage"
    assert len(lines) == 4
    for line, row in zip(lines[1:], result.rows):
        fields = line.split(",")
        assert int(fields[0]) == row.sample
        assert abs(float(fields[1]) - row.theta) <= 1e-11 * max(1.0, abs(row.theta))
        assert abs(float(fields[3]) - row.f2) <= 1e-11


def test_sweep_summary_contents():
    result = universality_sweep(10, seed=31)
    summary = result.summary()
    assert set(summary) == {"min", "max", "mean", "variance", "seed", "n"}
    assert summary["seed"] == 31 and summary["n"] == 10
    f2 = [row.f2 for row in result.rows]
    assert summary["min"] == min(f2) and summary["max"] == max(f2)


def test_sweep_validates_arguments():
    with pytest.raises(ValueError):
        universality_sweep(0, seed=1)
    # a sample count above 2**32 is refused, as the CLI's exit 2 relies on
    with pytest.raises(ValueError, match=r"sample count must be <= 2\*\*32"):
        universality_sweep(2**32 + 1, seed=1, timing_jitter=0.05)
    for jitter in (-0.1, 1.0, math.nan):
        with pytest.raises(ValueError, match="timing_jitter"):
            universality_sweep(1, seed=1, timing_jitter=jitter)


def test_sweep_with_perturbed_schedules_reports_degradation():
    result = universality_sweep(4, seed=404, timing_jitter=0.01)
    for row in result.rows:
        assert abs(row.f2 - FIVE_SIXTHS) > 1e-6  # visibly off the ideal value
        assert row.leakage > 0.0


# ------------------------------------------------------------ batched route


def _jitter_factory(fraction, seed=606):
    # the single-run side spells the jitter stream out on its own
    from clone_sim.protocol import build_uqcm_schedule, perturbed_schedule

    if fraction == 0.0:
        return None
    base = build_uqcm_schedule()

    def schedule(k):
        bits = np.random.PCG64(np.random.SeedSequence([seed, 17])).advance(11 * k)
        return perturbed_schedule(base, fraction, np.random.Generator(bits))

    return schedule


@pytest.mark.parametrize("fock_cutoff", [2, 8])
@pytest.mark.parametrize("jitter", [0.0, 0.05, 0.2])
def test_sweep_rows_equal_single_runs_bit_for_bit(fock_cutoff, jitter):
    # each row of one 300-row batch against the same sample cloned alone
    factory = _jitter_factory(jitter)
    result = universality_sweep(300, seed=606, fock_cutoff=fock_cutoff, timing_jitter=jitter)
    for row in result.rows:
        q = InputQubit.from_bloch(row.theta, row.phi)
        final, _ = run_uqcm(q, fock_cutoff=fock_cutoff,
                            schedule=factory(row.sample) if factory else None,
                            enforce_preconditions=jitter == 0.0)
        report = clone_fidelities(final, q)
        assert (row.f2, row.f3, row.target_overlap, row.leakage) == (
            report.fidelity_squid2, report.fidelity_squid3,
            report.target_overlap, report.leakage)


def test_sweep_rows_do_not_depend_on_the_chunk_size(monkeypatch):
    import clone_sim.verify as verify

    whole = universality_sweep(50, seed=8, timing_jitter=0.05)
    monkeypatch.setattr(verify, "SWEEP_CHUNK", 16)
    chunked = universality_sweep(50, seed=8, timing_jitter=0.05)
    assert chunked.rows == whole.rows


def test_batched_scores_match_the_independent_route():
    # random final states with no e population on the copies, so the
    # guarded fidelity_against_dm route applies; photon 2 gives leakage
    from clone_sim import fidelity_against_dm, inner_product, score_rows
    from clone_sim.protocol import bloch_amplitudes

    spec = BasisSpec(3, 2)
    rng = np.random.default_rng(97)
    rows = 40
    amps = rng.normal(size=(rows,) + spec.factor_dims) \
        + 1j * rng.normal(size=(rows,) + spec.factor_dims)
    amps[:, :, 2] = 0.0
    amps[:, :, :, 2] = 0.0
    amps /= np.linalg.norm(amps.reshape(rows, -1), axis=1).reshape(rows, 1, 1, 1, 1)
    alpha, beta = bloch_amplitudes(rng.uniform(0, math.pi, rows),
                                   rng.uniform(0, 2 * math.pi, rows))
    scores = score_rows(amps, alpha, beta)
    for k in range(rows):
        state = PureState(amps[k].reshape(-1), spec)
        q = InputQubit(complex(alpha[k]), complex(beta[k]))
        psi = q.gi_vector()
        want = {
            "fidelity_squid2": fidelity_against_dm(psi, partial_trace(state, ("squid2",))),
            "fidelity_squid3": fidelity_against_dm(psi, partial_trace(state, ("squid3",))),
            "target_overlap": abs(inner_product(state, reference_step_state("step10", q, spec))),
            "leakage": 1.0 - float(np.sum(np.abs(amps[k, :2, :2, :2, :2]) ** 2)),
        }
        for name, value in want.items():
            assert abs(scores[name][k] - value) < 1e-13, name


def test_batched_raman_guard_names_the_step_and_the_sample():
    # only sample 1030 of 1040 keeps e population into step7
    from clone_sim import LeakageError, clone_batch

    rows = 1040
    factors = np.ones((rows, 11))
    factors[1030] = 1.0 + 0.2 * np.random.default_rng(5).uniform(-1.0, 1.0, 11)
    alpha, beta = np.ones(rows), np.zeros(rows)
    with pytest.raises(LeakageError, match=r"^step7: sample 1030: squid\d e-level population"):
        clone_batch(alpha, beta, slot_factors=factors)
    # the same row as part of the second sweep chunk, numbered from first_sample
    with pytest.raises(LeakageError, match=r"^step7: sample 1030: "):
        clone_batch(alpha[1024:], beta[1024:], slot_factors=factors[1024:], first_sample=1024)


@pytest.mark.parametrize("row, bad, match", [
    (None, np.ones((4, 10)), r"shape \(4, 10\), expected \(4, 11\)"),
    (None, np.ones((3, 11)), r"shape \(3, 11\), expected \(4, 11\)"),
    (2, -0.5, "^sample 7: slot factors must be finite and >= 0"),
    (1, math.nan, "^sample 6: slot factors must be finite and >= 0"),
    (3, math.inf, "^sample 8: slot factors must be finite and >= 0"),
])
def test_batched_route_rejects_bad_slot_factors(row, bad, match):
    # rows are numbered from first_sample = 5, as in a later sweep chunk
    from clone_sim import clone_batch

    factors = bad
    if row is not None:
        factors = np.ones((4, 11))
        factors[row, 4] = bad
    with pytest.raises(ValueError, match=match):
        clone_batch(np.ones(4), np.zeros(4), slot_factors=factors, first_sample=5)


def test_score_rows_names_the_first_bad_row_and_copy():
    from clone_sim import clone_batch, score_rows

    alpha, beta = np.ones(4, dtype=complex), np.zeros(4, dtype=complex)
    final = clone_batch(alpha, beta)
    stretched = final.copy()
    stretched[1] *= 1.1  # both copies' traces are 1.21
    with pytest.raises(ValueError, match=r"^sample 6: squid2 density matrix trace"):
        score_rows(stretched, alpha, beta, first_sample=5)
    stretched[0, 0, 0, 0, 0] = math.nan
    with pytest.raises(ValueError, match=r"^sample 5: squid2 density matrix is not Hermitian"):
        score_rows(stretched, alpha, beta, first_sample=5)


def test_score_rows_rejects_an_empty_batch():
    from clone_sim import score_rows

    with pytest.raises(ValueError, match="batch is empty"):
        score_rows(np.zeros((0, 3, 3, 3, 3), dtype=complex), np.array([]), np.array([]))


@pytest.mark.parametrize("inputs", [2, 4])
def test_score_rows_rejects_inputs_that_do_not_match_the_rows(inputs):
    from clone_sim import clone_batch, score_rows

    final = clone_batch(np.ones(3), np.zeros(3))
    with pytest.raises(ValueError, match=rf"one entry per row of amps \(3\), got shapes "
                                         rf"\({inputs},\) and \({inputs},\)"):
        score_rows(final, np.ones(inputs), np.zeros(inputs))


def test_score_rows_builds_its_reference_vectors_once_per_register(monkeypatch):
    from clone_sim import clone_batch, score_rows

    alpha, beta = np.ones(2, dtype=complex), np.zeros(2, dtype=complex)
    final = clone_batch(alpha, beta, fock_cutoff=5)
    first = score_rows(final, alpha, beta)
    calls = []
    kron = np.kron
    monkeypatch.setattr(np, "kron", lambda *args: calls.append(args) or kron(*args))
    again = score_rows(final, alpha, beta)
    assert calls == []
    for name, values in first.items():
        assert np.array_equal(values, again[name])


def _f_string_csv(result):
    # the per-row f-string form the CSV had before the columns
    lines = ["sample,theta,phi,f2,f3,target_overlap,leakage"]
    for row in result.rows:
        lines.append(f"{row.sample},{row.theta:.12g},{row.phi:.12g},{row.f2:.12g},"
                     f"{row.f3:.12g},{row.target_overlap:.12g},{row.leakage:.12g}")
    return "\n".join(lines) + "\n"


def test_sweep_columns_give_the_rows_the_csv_and_the_summary():
    from clone_sim import SweepResult, SweepRow

    result = universality_sweep(40, seed=515, timing_jitter=0.1)
    assert isinstance(result, SweepResult)
    assert result.to_csv() == _f_string_csv(result)
    rows = result.rows
    assert len(rows) == 40 and all(isinstance(row, SweepRow) for row in rows)
    assert [row.sample for row in rows] == list(range(40))
    assert [row.f3 for row in rows] == result.f3.tolist()
    assert result.summary()["variance"] == float(np.var([row.f2 for row in rows]))
    odd = np.array([-0.0, math.nan, math.inf, -math.inf, 1e-300, 123456789012.5, 5.0 / 6.0])
    columns = [odd, odd[::-1], odd, odd[::-1], odd, odd]
    special = SweepResult(*columns, seed=1, n=len(odd))
    assert special.to_csv() == _f_string_csv(special)
