"""Reference states, clone scoring, and the seeded universality sweep."""

import math
import re

import numpy as np
import pytest

from clone_sim import (
    DEFAULT_COUPLINGS,
    BasisSpec,
    CloneReport,
    InputQubit,
    PureState,
    basis_index,
    clone_fidelities,
    inner_product,
    partial_trace,
    reference_step_state,
    run_uqcm,
    score_rows,
    target_state,
    universality_sweep,
)
from clone_sim.protocol import STEP_LABELS, StepTrace
from clone_sim.verify import REPORT_FIELDS, SWEEP_CHUNK, score_nominal
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


def _nested_kron(vectors):
    """``hilbert._kron_product`` as nested Kronecker products."""
    product = vectors[0]
    for vector in vectors[1:]:
        product = np.kron(product, vector)
    return product


@pytest.mark.parametrize("fock_cutoff", [1, 2, 5])
def test_references_are_the_nested_kron_entry_for_entry(monkeypatch, fock_cutoff):
    # the signs of zeros too: complex amplitudes and minus signs meet zero entries
    from clone_sim import verify

    spec = BasisSpec(3, fock_cutoff)
    inputs = [InputQubit(1.0, 0.0), InputQubit(0.0, 1.0), InputQubit.from_bloch(1.1, 2.3),
              InputQubit.from_bloch(2.6, 4.4), InputQubit(-0.6, 0.8j)]
    for label in ("input",) + STEP_LABELS:
        for q in inputs:
            broadcast = reference_step_state(label, q, spec).amplitudes
            with monkeypatch.context() as patched:
                patched.setattr(verify, "_kron_product", _nested_kron)
                nested = reference_step_state(label, q, spec).amplitudes
            assert np.array_equal(broadcast, nested)
            for part in (np.real, np.imag):
                assert np.array_equal(np.signbit(part(broadcast)), np.signbit(part(nested)))


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
    states = [PureState.basis_state(spec, ("g", "i", "g"), 1),
              PureState.basis_state(spec, ("g", "e", "g"), 0),
              PureState.basis_state(spec, ("g", "g", "g"), 2)]
    amps = np.stack([state.tensor() for state in states])
    leakage = score_rows(amps, np.ones(3), np.zeros(3))["leakage"]
    assert leakage[0] == 0.0
    assert abs(leakage[1] - 1.0) < 1e-15
    assert abs(leakage[2] - 1.0) < 1e-15


def test_clone_report_rejects_out_of_range_fields():
    with pytest.raises(ValueError):
        CloneReport(1.2, 0.5, 0.5, 0.0)
    with pytest.raises(ValueError):
        CloneReport(0.5, 0.5, 0.5, -0.1)


# ----------------------------------------------------------- step conformance


def test_step_conformance_reports_unit_overlaps():
    for q in (InputQubit(1.0, 0.0), InputQubit(0.0, 1.0)):
        _, trace = run_uqcm(q)
        assert [e.label for e in trace.entries] == ["input"] + list(STEP_LABELS)
        for entry in trace.entries:
            ref = reference_step_state(entry.label, q, entry.state.spec)
            assert abs(inner_product(entry.state, ref)) > 1.0 - 1e-10


def test_step_conformance_requires_complete_traces():
    q = InputQubit(1.0, 0.0)
    _, trace = run_uqcm(q)
    truncated = StepTrace(trace.entries[:4])
    with pytest.raises(ValueError, match="no entry labelled 'step4'"):
        truncated.entry("step4")


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


@pytest.mark.parametrize("fock_cutoff", [2, 8, 32])
@pytest.mark.parametrize("jitter", [0.0, 0.05, 0.2])
def test_sweep_rows_equal_single_runs_bit_for_bit(fock_cutoff, jitter):
    # each row of one 300-row batch against the same sample cloned alone: a
    # row is, bit for bit, what run prints for its input alone (an ideal row
    # the nominal score, a jittered row its walk scored on the walk's basis
    # list), and lies within 1e-14 of its clone scored on the whole register
    from clone_sim.verify import entry_fidelities

    factory = _jitter_factory(jitter)
    result = universality_sweep(300, seed=606, fock_cutoff=fock_cutoff, timing_jitter=jitter)
    for row in result.rows:
        q = InputQubit.from_bloch(row.theta, row.phi)
        final, trace = run_uqcm(q, fock_cutoff=fock_cutoff,
                                schedule=factory(row.sample) if factory else None,
                                enforce_preconditions=jitter == 0.0)
        report = clone_fidelities(final, q)
        fields = (row.f2, row.f3, row.target_overlap, row.leakage)
        walked = (report.fidelity_squid2, report.fidelity_squid3,
                  report.target_overlap, report.leakage)
        if factory is None:
            alone = score_nominal([q.alpha], [q.beta], fock_cutoff=fock_cutoff)
            assert fields == tuple(float(alone[name][0]) for name in REPORT_FIELDS)
        else:
            alone = entry_fidelities(trace.entries[-1], q)
            assert fields == tuple(getattr(alone, name) for name in REPORT_FIELDS)
        assert max(abs(a - b) for a, b in zip(fields, walked)) <= 1e-14


def test_a_jittered_sweep_at_the_largest_cutoff_stays_small():
    # the rows walk and score on the 45 reached states, never on the
    # register at the requested cutoff (330 MB here when they did)
    import tracemalloc

    tracemalloc.start()
    try:
        universality_sweep(16, 3, fock_cutoff=10_000, timing_jitter=0.05)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


@pytest.mark.parametrize("jitter", [0.05, 0.3])
def test_a_jittered_row_matches_the_eigendecomposition_route_pulse_by_pulse(jitter):
    # the whole perturbed schedule applied to the dense register as exp(-iHt)
    # per pulse, H from build_generator, the Raman track as the product of
    # its coupling and free exponentials; the walked row, scattered, agrees
    from clone_sim import build_generator, clone_batch, diagonalize_generator
    from clone_sim.checks import ORACLE_TOL
    from clone_sim.dynamics import PulseOp, PulseVariant, evolve_rows
    from clone_sim.protocol import (build_uqcm_schedule, draw_slot_factors, jitter_rng,
                                    perturbed_schedule)

    spec = BasisSpec(3, 2)
    base = build_uqcm_schedule(DEFAULT_COUPLINGS)
    for seed, (theta, phi) in enumerate([(1.1, 0.4), (2.5, 5.0), (0.3, 2.0)]):
        q = InputQubit.from_bloch(theta, phi)
        schedule = perturbed_schedule(base, jitter, jitter_rng(seed))
        factors = draw_slot_factors(jitter, (1, len(base.slots)), jitter_rng(seed))
        walked = clone_batch([q.alpha], [q.beta], fock_cutoff=2, slot_factors=factors,
                             enforce_preconditions=False)[0].reshape(-1)
        state = np.zeros(spec.factor_dims, dtype=complex)
        state[0, 0, 0, 0], state[1, 0, 0, 0] = q.gi_vector()
        state = state.reshape(1, -1)
        for op in (op for slot in schedule.slots for track in slot.tracks for op in track):
            steps = [op]
            if op.variant is PulseVariant.RAMAN:  # the free factor applies after the coupling
                steps.append(PulseOp(PulseVariant.FREE_EVOLVE, op.squid, op.duration))
            for step in steps:
                eigen = diagonalize_generator(build_generator(step, spec, DEFAULT_COUPLINGS))
                state = evolve_rows(state, eigen, np.array([step.duration]))
        assert np.max(np.abs(state[0] - walked)) < ORACLE_TOL


def test_sweep_rows_do_not_depend_on_the_chunk_size(monkeypatch):
    import clone_sim.verify as verify

    whole = universality_sweep(50, seed=8, timing_jitter=0.05)
    monkeypatch.setattr(verify, "SWEEP_CHUNK", 16)
    chunked = universality_sweep(50, seed=8, timing_jitter=0.05)
    assert chunked.rows == whole.rows


def test_batched_scores_match_the_independent_route():
    # random final states with no e population on the copies, so the
    # guarded fidelity_against_dm route applies; photon 2 gives leakage
    from clone_sim import fidelity_against_dm
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


@pytest.mark.parametrize("shape", [(1, 2, 3, 3, 3), (1, 3, 3, 3), (1, 3, 3, 3, 3, 3),
                                   (1, 3, 3, 3, 1)])
def test_score_rows_rejects_amplitudes_of_another_shape(shape):
    # a copy's Gram screen reads its inner length from the shape, so the
    # shape is checked before any arithmetic
    from clone_sim import score_rows

    amps = np.zeros(shape, dtype=complex)
    amps.reshape(-1)[0] = 1.0
    expected = re.escape(f"amps must have shape (B, 3, 3, 3, fock_cutoff + 1) with "
                         f"fock_cutoff >= 1, got {shape}")
    with pytest.raises(ValueError, match=f"^{expected}$"):
        score_rows(amps, np.ones(1), np.zeros(1))


@pytest.mark.parametrize("shape", [(1, 44), (1, 46), (45,), (1, 45, 1)])
def test_score_rows_rejects_listed_rows_of_another_shape(shape):
    from clone_sim import score_rows
    from clone_sim.protocol import _uqcm_program

    listed = _uqcm_program(DEFAULT_COUPLINGS, 2).basis_list
    expected = re.escape(f"amps must have shape (B, 45) over the basis list, got {shape}")
    with pytest.raises(ValueError, match=f"^{expected}$"):
        score_rows(np.ones(shape, dtype=complex), np.ones(1), np.zeros(1), basis=listed)


@pytest.mark.parametrize("fock_cutoff", [2, 32])
def test_jittered_scoring_runs_no_eigvalsh(fock_cutoff, monkeypatch):
    # without the Gram bound every copy goes to eigvalsh; with it, scoring a
    # 1,024-row sweep chunk at jitter 0.2 diagonalises none
    from clone_sim import clone_batch, score_rows
    from clone_sim.hilbert import density_defect
    from clone_sim.protocol import bloch_amplitudes, draw_slot_factors, jitter_rng
    from test_hilbert import _counting_eigvalsh

    rows = 1024
    rng = np.random.default_rng(11)
    alpha, beta = bloch_amplitudes(np.arccos(1.0 - 2.0 * rng.random(rows)),
                                   2.0 * math.pi * rng.random(rows))
    factors = draw_slot_factors(0.2, (rows, 11), jitter_rng(11))
    final = clone_batch(alpha, beta, fock_cutoff=fock_cutoff, slot_factors=factors,
                        enforce_preconditions=False)
    seen = _counting_eigvalsh(monkeypatch)
    score_rows(final, alpha, beta)
    assert seen == []
    copies = np.moveaxis(final, 2, 1).reshape(rows, 3, -1)
    assert density_defect(copies @ np.conj(copies).transpose(0, 2, 1)) is None
    assert seen == [rows]


def test_gram_screen_clears_the_largest_cli_cutoff(monkeypatch):
    # a stack the Gram bound does not clear goes to eigvalsh, so the bound
    # must clear a copy's matrix at every photon cutoff the CLI accepts
    from clone_sim.hilbert import density_defect
    from clone_sim.verify import MAX_FOCK_CUTOFF
    from test_hilbert import _counting_eigvalsh, _unit_trace_grams

    terms = 9 * (MAX_FOCK_CUTOFF + 1)
    rho = _unit_trace_grams(np.random.default_rng(4), terms, count=3)
    seen = _counting_eigvalsh(monkeypatch)
    assert density_defect(rho, gram_terms=terms) is None
    assert seen == []


@pytest.mark.parametrize("inputs", [2, 4])
def test_score_rows_rejects_inputs_that_do_not_match_the_rows(inputs):
    from clone_sim import clone_batch, score_rows

    final = clone_batch(np.ones(3), np.zeros(3))
    with pytest.raises(ValueError, match=rf"one entry per row of amps \(3\), got shapes "
                                         rf"\({inputs},\) and \({inputs},\)"):
        score_rows(final, np.ones(inputs), np.zeros(inputs))


def test_score_rows_builds_its_reference_vectors_once_per_register(monkeypatch):
    from clone_sim import clone_batch, score_rows, verify

    alpha, beta = np.ones(2, dtype=complex), np.zeros(2, dtype=complex)
    final = clone_batch(alpha, beta, fock_cutoff=5)
    first = score_rows(final, alpha, beta)
    calls = []
    product = verify._kron_product
    monkeypatch.setattr(verify, "_kron_product",
                        lambda vectors: calls.append(vectors) or product(vectors))
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


@pytest.mark.parametrize("count", [1, SWEEP_CHUNK - 1, SWEEP_CHUNK, 2 * SWEEP_CHUNK + 5])
def test_csv_blocks_give_the_per_row_bytes_across_block_edges(count):
    from clone_sim import SweepResult

    rng = np.random.default_rng((77, count))
    columns = [rng.normal(size=count) * 10.0 ** rng.integers(-300, 300, size=count)
               for _ in range(6)]
    columns[3][::7] = -0.0
    columns[4][::11] = math.nan
    result = SweepResult(*columns, seed=0, n=count)
    assert result.to_csv() == _f_string_csv(result)


def _bloch_inputs(rows, seed):
    from clone_sim.protocol import bloch_amplitudes

    rng = np.random.default_rng(seed)
    return bloch_amplitudes(np.arccos(1.0 - 2.0 * rng.random(rows)),
                            2.0 * math.pi * rng.random(rows))


@pytest.mark.parametrize("size", [1, 7, 1024])
def test_nominal_scores_do_not_depend_on_the_partition(size):
    alpha, beta = _bloch_inputs(1030, 30)
    whole = score_nominal(alpha, beta)
    parts = [score_nominal(alpha[start:start + size], beta[start:start + size],
                           first_sample=start) for start in range(0, 1030, size)]
    for name in REPORT_FIELDS:
        assert np.concatenate([part[name] for part in parts]).tobytes() == whole[name].tobytes()


def test_leakage_is_the_population_outside_summed_directly():
    # 1 - the population inside would read the rounding of a sum near 1, ~1e-16
    from clone_sim import clone_batch

    alpha, beta = _bloch_inputs(300, 3)
    walked = score_rows(clone_batch(alpha, beta), alpha, beta)["leakage"]
    nominal = score_nominal(alpha, beta)["leakage"]
    assert 0.0 < np.max(walked) < 1e-30 and 0.0 < np.max(nominal) < 1e-30


def test_weighted_copy_matrices_stay_within_their_floor_proof(monkeypatch):
    # score_nominal's bound on |rho - C(x) C(x)^H|_F, with C(x) = sum_j x_j C_j
    # formed in extended precision, for 2,000 inputs and |x|^2 = 1 +- 9e-13
    from clone_sim import verify
    from clone_sim.protocol import _uqcm_program, gi_amplitudes
    from test_hilbert import _counting_eigvalsh

    alpha, beta = _bloch_inputs(2000, 31)
    for scale in (1.0 - 9e-13, 1.0 + 9e-13):
        alpha = np.append(alpha, math.sqrt(scale) * np.array([1.0, 0.6, 0.0]))
        beta = np.append(beta, math.sqrt(scale) * np.array([0.0, 0.8j, -1.0]))
    x = gi_amplitudes(alpha, beta)
    seen = _counting_eigvalsh(monkeypatch)
    captured, scored = [], verify._scored
    monkeypatch.setattr(verify, "_scored",
                        lambda rho, *args: captured.append((rho, args[1])) or scored(rho, *args))
    assert score_nominal(alpha, beta) is not None
    assert seen == []
    (rho, gram_terms), = captured
    basis = _uqcm_program(DEFAULT_COUPLINGS, 2).basis
    final = np.moveaxis(basis.basis_list.dense(basis.psi.T, 2), 0, -1).astype(np.clongdouble)
    u = np.finfo(np.float64).eps / 2
    n = basis.terms  # K, the row length of the gathered blocks
    assert gram_terms == 2 * (n + 8)
    for half, squid in enumerate((2, 3)):
        columns = np.moveaxis(final, squid - 1, 0).reshape(3, -1, 2)
        assert n <= columns.shape[1]
        norms = np.sqrt(np.sum(np.abs(columns) ** 2, axis=(0, 1))).astype(np.float64)
        copy = np.einsum("ank,bk->ban", columns, x.astype(np.clongdouble))
        exact = copy @ np.conj(copy).transpose(0, 2, 1)
        error = np.sqrt(np.sum(np.abs(rho[half * len(x):(half + 1) * len(x)] - exact) ** 2,
                               axis=(1, 2))).astype(np.float64)
        bound = (8 * (n + 2) + 10) * u * (np.abs(x) @ norms) ** 2
        assert np.all(error <= bound)
        assert np.all(bound <= 8 * (2 * (n + 8) + 2) * u)


@pytest.mark.parametrize("entry, shift, match", [
    ((0, 0, 0, 0, 1), 1e-9, "density matrix is not Hermitian"),
    ((0, 0, 0, 0, 0), 2e-12, "density matrix trace"),
])
def test_a_corrupted_copy_block_names_the_sample_and_the_copy(monkeypatch, entry, shift, match):
    import dataclasses

    from clone_sim import protocol

    program = protocol._uqcm_program.__wrapped__(DEFAULT_COUPLINGS, 2)
    bad = program.basis.copies.copy()
    bad[entry] += shift
    if entry[-2:] == (0, 0):  # the trace moves on the x_1 block too, so every row trips
        bad[(0, 1, 1, 0, 0)] += shift
    program.__dict__["basis"] = dataclasses.replace(program.basis, copies=bad)
    monkeypatch.setattr(protocol, "_uqcm_program", lambda cfg, fock_cutoff: program)
    alpha, beta = _bloch_inputs(6, 32)
    with pytest.raises(ValueError, match=rf"^sample 5: squid2 {match}"):
        score_nominal(alpha, beta, first_sample=5)


@pytest.mark.parametrize("fock_cutoff", [2, 3])
@pytest.mark.parametrize("jittered", [False, True])
def test_both_scoring_routes_match_oracles_on_the_dense_state(monkeypatch, fock_cutoff, jittered):
    # score_rows on the walked rows and, for the nominal schedule,
    # score_nominal's weighted blocks share one gather, so each is checked
    # against oracles that read only the dense clone_batch state: the
    # brute-force partial trace for each copy, a direct sum outside
    # {g, i}^3 x {0, 1} for the leakage and the closed-form step-10 state
    # for the target overlap
    from clone_sim import verify
    from clone_sim.protocol import clone_batch, clone_rows, draw_slot_factors

    rows = 20
    alpha, beta = _bloch_inputs(rows, 33)
    factors = None
    if jittered:  # one perturbed schedule shared by every row
        factors = np.tile(draw_slot_factors(0.05, 11, np.random.default_rng(34)), (rows, 1))
    captured, scored = [], verify._scored
    monkeypatch.setattr(verify, "_scored",
                        lambda rho, *args: captured.append(rho) or scored(rho, *args))
    walked, basis = clone_rows(alpha, beta, fock_cutoff=fock_cutoff, slot_factors=factors,
                               enforce_preconditions=not jittered)
    routes = [score_rows(walked.T, alpha, beta, basis=basis)]
    if not jittered:
        routes.append(score_nominal(alpha, beta, fock_cutoff=fock_cutoff))
    assert len(captured) == len(routes)
    dense = clone_batch(alpha, beta, fock_cutoff=fock_cutoff, slot_factors=factors,
                        enforce_preconditions=not jittered)
    spec = BasisSpec(3, fock_cutoff)
    coords = np.indices(spec.factor_dims)
    outside = np.any(coords[:3] == 2, axis=0) | (coords[3] >= 2)
    for b in range(rows):
        state = PureState(dense[b].reshape(-1), spec)
        copies = [brute_force_partial_trace(state, [f"squid{squid}"]) for squid in (2, 3)]
        leakage = float(np.sum(np.abs(dense[b][outside]) ** 2))
        target = reference_step_state("step10", InputQubit(complex(alpha[b]), complex(beta[b])),
                                      spec)
        overlap = abs(inner_product(target, state))
        for rho, fields in zip(captured, routes, strict=True):
            for half in range(2):
                assert np.max(np.abs(rho[half * rows + b] - copies[half])) <= 1e-14, (b, half)
            assert abs(fields["leakage"][b] - leakage) <= 1e-14, b
            assert abs(fields["target_overlap"][b] - overlap) <= 1e-14, b
    if jittered:
        assert np.min(routes[0]["leakage"]) > 1e-6  # the oracle's outside sum is exercised


def test_an_ideal_sweep_at_the_largest_cutoff_builds_no_padded_row():
    # a padded row at cutoff 10,000 holds 270,027 amplitudes (4.3 MB)
    import tracemalloc

    tracemalloc.start()
    try:
        universality_sweep(16, 3, fock_cutoff=10_000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20
