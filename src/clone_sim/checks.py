"""Self-contained consistency checks behind the ``validate`` command.

Each check pits an independent route against the closed-form one (matrix
exponentials vs trig formulas, symbolic references vs simulated traces)
and reports the worst deviation it saw.

The oracle, unitarity and JC-sector checks draw their random states as
amplitude rows, not as ``PureState``s.  ``normalized_row`` rescales each
draw exactly as ``PureState.from_amplitudes(..., normalize=True)`` does,
and each check stacks its rows once and checks every row's norm with
``check_row_norms`` before any kernel runs.

The five oracles share one exact route.  Every pulse generator acts on one
SQUID, and ``JC`` on the cavity too, so each generator H that
``build_generator`` builds on the whole register is checked, entry for
entry, to be the lift of its block h on those factors: 3x3 on a SQUID, 9x9
over a SQUID and the cavity.  Then exp(-i H t) = exp(-i h t) (x) I, so only
h is decomposed, and the propagator is applied along those factors.
``run_all_checks`` decomposes each phase-free block once per SQUID per
run, and each SQUID's Raman coupling blocks, one per drawn state, as one
stack; a lone ``check_oracle`` call decomposes its own.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .dynamics import (
    DEFAULT_COUPLINGS,
    CouplingConfig,
    PulseOp,
    PulseVariant,
    build_generator,
    diagonalize_generator,
    pulse_coefficients,
    pulse_rows,
    run_pulse,
)
from .hilbert import (
    LEVEL_E,
    LEVEL_G,
    LEVEL_I,
    KET_G,
    KET_I,
    MINUS_GI,
    PLUS_GI,
    BasisList,
    BasisSpec,
    PureState,
    _kron_product,
    check_row_norms,
    normalized_row,
    phase_aligned_distance,
)
from .protocol import (
    InputQubit,
    build_uqcm_schedule,
    cnot_cavity_control,
    execute_schedule,
    prepare_input,
    process_one,
    process_two,
    run_uqcm,
)
from .verify import clone_fidelities, reference_step_state

ORACLE_TOL = 1e-9
EXACT_TOL = 1e-12
STEP_TOL = 1e-10


@dataclass(frozen=True)
class CheckResult:
    name: str
    max_deviation: float
    tolerance: float
    passed: bool

    def describe(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"{status} {self.name} max_dev={self.max_deviation:.3e} tol={self.tolerance:.0e}"


def _random_state(rng: np.random.Generator, spec: BasisSpec) -> np.ndarray:
    """A random amplitude row, bit for bit the one
    ``PureState.from_amplitudes(z, spec, normalize=True)`` would hold."""
    z = rng.standard_normal(2 * spec.dimension)  # the stream of two draws of dimension each
    return normalized_row(z[:spec.dimension] + 1j * z[spec.dimension:])


def _without_e(row: np.ndarray, squid: int, spec: BasisSpec) -> np.ndarray:
    """``row`` with the e level of ``squid`` emptied, renormalized as ``_random_state`` is."""
    arr = row.reshape(spec.factor_dims).copy()
    sl = [slice(None)] * arr.ndim
    sl[squid - 1] = LEVEL_E
    arr[tuple(sl)] = 0.0
    return normalized_row(arr.reshape(-1))


def _checked_stack(rows: list[np.ndarray]) -> np.ndarray:
    """The drawn rows as one (len(rows), dimension) stack, each row's norm checked.

    ``check_row_norms`` is the batch form of the check a ``PureState`` makes,
    and names a failing row by its place in ``rows``.
    """
    drawn = np.stack(rows)
    check_row_norms(drawn.T)
    return drawn


def _amp_dev(a: PureState, b: PureState) -> float:
    return float(np.max(np.abs(a.amplitudes - b.amplitudes)))


def _closed_forms_by_squid(
    ops: list[PulseOp], drawn: np.ndarray, spec: BasisSpec, cfg: CouplingConfig
) -> Iterator[tuple[int, list[int], np.ndarray]]:
    """Yield (squid, rows, amplitudes) once per SQUID, over the ops that target it.

    ``drawn`` holds one amplitude row over ``spec`` per op.  Row j of the
    (len(rows), dimension) amplitudes is what
    ``apply_pulse_op(PureState(drawn[rows[j]], spec), ops[rows[j]], cfg)``
    gives, bit for bit: the ops share one variant, the rows of one SQUID
    run as one batch through ``run_pulse``, the checked apply that
    ``apply_pulse_op`` runs on its batch of one, and every kernel is
    elementwise in the rows.  A batch of ``RAMAN`` rows gets each row's
    own coefficients, because every op carries its own phase difference;
    any other batch gets one set for its (B,) durations.  ``run_pulse``
    guards a ``RAMAN`` batch by ``check_two_pulse_domain`` and checks every
    row's norm by ``check_row_norms``, the batch form of the check a
    ``PureState`` makes; either check names a failing row by its place in
    the SQUID's batch.
    """
    labels = BasisList.full(spec).labels
    for squid in sorted({op.squid for op in ops}):
        rows = [k for k, op in enumerate(ops) if op.squid == squid]
        amps = np.stack([drawn[k] for k in rows], axis=-1)
        head = ops[rows[0]]
        if head.variant is PulseVariant.RAMAN:
            parts = [pulse_coefficients(ops[k], np.array([ops[k].duration]), spec.fock_cutoff,
                                        cfg) for k in rows]
            coeffs = tuple(np.concatenate(c, axis=-1) for c in zip(*parts))
        else:
            coeffs = pulse_coefficients(head, np.array([ops[k].duration for k in rows]),
                                        spec.fock_cutoff, cfg)
        run_pulse(amps, head, coeffs, pulse_rows(head, labels))
        # Contiguous rows, as a PureState holds them: a strided row would
        # round differently in the BLAS products the checks take.
        yield squid, rows, np.ascontiguousarray(amps.T)


def _acted_on(variant: PulseVariant, squid: int, spec: BasisSpec) -> list[int]:
    """The register factors that a ``variant`` generator on ``squid`` acts on:
    the SQUID, and the cavity for ``JC``."""
    return [squid - 1, spec.num_squids] if variant is PulseVariant.JC else [squid - 1]


def _lifted_block(op: PulseOp, spec: BasisSpec, cfg: CouplingConfig) -> tuple[np.ndarray, bool]:
    """h, the block of ``op``'s generator H on the factors it acts on, and whether H is h's lift.

    H is built on the whole register by ``build_generator``.  It is the lift
    h (x) I, entry for entry, if its entries diagonal in every other factor
    repeat one block h and it has no other nonzero entry; then
    exp(-i H t) = exp(-i h t) (x) I, so h alone is decomposed.  A generator
    that is not a lift gives a zero block, whose propagator is the identity.
    """
    acted, n = _acted_on(op.variant, op.squid, spec), len(spec.factor_dims)
    # H's axes are its rows' factors 0 ... n - 1, then its columns' n ... 2n - 1.
    cols = [n + k if k in acted else k for k in range(n)]
    rest = [k for k in range(n) if k not in acted]
    generator = build_generator(op, spec, cfg)
    size = math.prod(spec.factor_dims[k] for k in acted)
    # H's entries diagonal in the other factors: one block per index of theirs.
    diagonal = np.einsum(generator.reshape(spec.factor_dims * 2), list(range(n)) + cols,
                         rest + acted + [n + k for k in acted]).reshape(-1, size, size)
    block = diagonal[0].copy()  # not a view, which would keep all of H alive
    if (diagonal == block).all() and np.count_nonzero(generator) == np.count_nonzero(diagonal):
        return block, True
    return np.zeros_like(block), False


def _evolve_blocks(
    rows: np.ndarray, eigen: tuple[np.ndarray, np.ndarray], durations: np.ndarray,
    variant: PulseVariant, squid: int, spec: BasisSpec,
) -> np.ndarray:
    """Row b of the (B, dimension) ``rows`` with exp(-i h durations[b]) on the factors a
    ``variant`` generator on ``squid`` acts on.

    ``eigen`` is h's ``diagonalize_generator`` output, or a stack of B of
    them, row b's at b.  Row b's amplitudes form one (len(h), rest) matrix
    over those factors, and each product takes one matmul per row, in the
    operand order of ``evolve_rows``, V (phases (V^H x)), so a diagonal h
    stays exact and a row's result does not depend on B.
    """
    axes = [k + 1 for k in _acted_on(variant, squid, spec)]
    lead = list(range(1, len(axes) + 1))
    tensors = np.moveaxis(rows.reshape((len(rows),) + spec.factor_dims), axes, lead)
    evals, evecs = eigen
    phases = np.exp(-1j * evals * durations[:, None])[..., None]
    blocks = tensors.reshape(len(rows), evals.shape[-1], -1)
    evolved = evecs @ (phases * (np.swapaxes(evecs, -1, -2).conj() @ blocks))
    return np.moveaxis(evolved.reshape(tensors.shape), lead, axes).reshape(len(rows), -1)


def check_oracle(
    variant: PulseVariant,
    cfg: CouplingConfig = DEFAULT_COUPLINGS,
    seed: int = 20210,
    n_states: int = 100,
) -> CheckResult:
    """Closed form vs exp(-iHt) built by eigendecomposition, on random states.

    The states are drawn as amplitude rows and stacked once, and every row
    passes the norm check of ``check_row_norms``, the batch form of the
    check a ``PureState`` makes, before any kernel runs.  Both sides of
    each SQUID's rows run as one batch.  Every variant takes one exact
    route, through blocks: each generator H is built on the whole
    register by ``build_generator`` and checked to be the lift of its
    block h on the factors it acts on, the SQUID's 3x3 or, for ``JC``,
    the 9x9 over the SQUID and the cavity (``_lifted_block``; a
    generator that is not fails the check with an infinite deviation).
    Only h is decomposed, and exp(-i h t) is applied along those factors
    (``_evolve_blocks``).  A phase-free generator depends only on its
    variant and SQUID, so its block is built and decomposed once per
    call.  The Raman coupling carries the drawn phase difference, so each
    state's generator is built and checked, and the SQUID's blocks are
    decomposed as one stack; the free factor then applies after it.
    Every closed-form row and every exact row passes ``check_row_norms``
    too.
    """
    return _oracle_results((variant,), cfg, seed, n_states)[0]


def _oracle_results(
    variants: tuple[PulseVariant, ...], cfg: CouplingConfig, seed: int, n_states: int
) -> list[CheckResult]:
    """``check_oracle`` of each variant in turn, with one decomposition per
    phase-free block over them all.

    The Raman oracle's free factor is the ``FREE_EVOLVE`` generator of its
    SQUID, so the two oracles share its block.  Each variant draws from its
    own generator, as a lone ``check_oracle`` call does.  Each SQUID's
    phase-free blocks are kept, decomposed, with whether their generators
    were lifts, for the whole run.
    """
    spec = BasisSpec(num_squids=3, fock_cutoff=2)
    eigens: dict[tuple[PulseVariant, int], tuple[tuple[np.ndarray, np.ndarray], bool]] = {}
    results = []
    for variant in variants:
        # The generator decomposed once per SQUID: the Raman oracle's is its free factor.
        phase_free = PulseVariant.FREE_EVOLVE if variant is PulseVariant.RAMAN else variant
        rng = np.random.default_rng([seed, list(PulseVariant).index(variant)])
        ops: list[PulseOp] = []
        rows: list[np.ndarray] = []
        for _ in range(n_states):
            squid = int(rng.integers(1, spec.num_squids + 1))
            duration = float(rng.uniform(0.0, 2.0 * math.pi))
            phi1, phi2 = (float(x) for x in rng.uniform(0.0, 2.0 * math.pi, 2))
            ops.append(PulseOp(variant, squid, duration, phi1=phi1, phi2=phi2))
            row = _random_state(rng, spec)
            rows.append(_without_e(row, squid, spec) if variant is PulseVariant.RAMAN else row)
        drawn = _checked_stack(rows)
        deviations = []
        for squid, picks, closed in _closed_forms_by_squid(ops, drawn, spec, cfg):
            if (phase_free, squid) not in eigens:
                block, lifted = _lifted_block(PulseOp(phase_free, squid, 0.0), spec, cfg)
                eigens[phase_free, squid] = diagonalize_generator(block), lifted
            eigen, lifted = eigens[phase_free, squid]
            durations = np.array([ops[k].duration for k in picks])
            exact = drawn[picks]
            if variant is PulseVariant.RAMAN:
                # Exact factorization: the free-phase factor applies after the rotation.
                blocks, lifts = zip(*(_lifted_block(ops[k], spec, cfg) for k in picks))
                exact = _evolve_blocks(exact, diagonalize_generator(np.stack(blocks)), durations,
                                       variant, squid, spec)
                lifted = lifted & np.array(lifts)
            exact = _evolve_blocks(exact, eigen, durations, phase_free, squid, spec)
            check_row_norms(exact.T)
            # A row with no exact route got the identity and gets an infinite deviation.
            deviations += np.where(lifted, np.max(np.abs(closed - exact), axis=1),
                                   math.inf).tolist()
        worst = float(np.max(deviations, initial=0.0))
        results.append(CheckResult(f"dynamics.{variant.value}.oracle", worst, ORACLE_TOL,
                                   worst < ORACLE_TOL))
    return results


def check_unitarity(cfg: CouplingConfig = DEFAULT_COUPLINGS, seed: int = 20210) -> CheckResult:
    """Inner products between random state pairs survive every primitive.

    The pairs of all five variants are drawn as amplitude rows, stacked
    once and norm-checked by ``check_row_norms`` before any kernel runs.
    A pair's product before the pulse is ``np.vdot`` of its two rows, what
    ``inner_product`` computes for two states.
    """
    spec = BasisSpec(num_squids=3, fock_cutoff=2)
    rng = np.random.default_rng([seed, 11])
    per_variant = 40  # 20 pairs
    ops: list[PulseOp] = []
    rows: list[np.ndarray] = []
    for variant in PulseVariant:
        for _ in range(per_variant // 2):
            squid = int(rng.integers(1, 4))
            op = PulseOp(variant, squid, float(rng.uniform(0.0, 8.0)),
                         phi1=float(rng.uniform(0, 2 * math.pi)))
            a, b = _random_state(rng, spec), _random_state(rng, spec)
            if variant is PulseVariant.RAMAN:
                a, b = _without_e(a, squid, spec), _without_e(b, squid, spec)
            ops += [op, op]
            rows += [a, b]
    drawn = _checked_stack(rows)
    deviations = []
    for first in range(0, len(ops), per_variant):
        # A pair's two rows are adjacent: picks[j] is even, picks[j + 1] is next.
        batch = drawn[first:first + per_variant]
        for _, picks, after in _closed_forms_by_squid(ops[first:first + per_variant], batch,
                                                      spec, cfg):
            deviations += [abs(complex(np.vdot(after[j], after[j + 1]))
                               - complex(np.vdot(batch[picks[j]], batch[picks[j + 1]])))
                           for j in range(0, len(picks), 2)]
    worst = float(np.max(deviations))
    return CheckResult("dynamics.unitarity", worst, EXACT_TOL, worst < EXACT_TOL)


def _jc_sector_populations(tensors: np.ndarray, squid: int) -> np.ndarray:
    """Populations by excitation number n_photons + [level == e] of one SQUID, per row.

    ``tensors`` holds B states' amplitudes shaped (B, 3, ..., 3, fock_cutoff + 1);
    row b of the (B, fock_cutoff + 2) result is state b's populations.  Each
    level's photon populations are summed down the other factors in their
    order, and the levels are added into the sectors in the order g, i, e,
    so a row's sums do not depend on B.
    """
    arr = np.abs(tensors) ** 2
    fock = tensors.shape[-1] - 1
    pops = np.zeros((len(tensors), fock + 2))
    for level in (LEVEL_G, LEVEL_I, LEVEL_E):
        sl = [slice(None)] * arr.ndim
        sl[squid] = level
        by_photon = arr[tuple(sl)].reshape(len(tensors), -1, fock + 1).sum(axis=1)
        shift = 1 if level == LEVEL_E else 0
        pops[:, shift:shift + fock + 1] += by_photon
    return pops


def check_jc_sector_conservation(
    cfg: CouplingConfig = DEFAULT_COUPLINGS, seed: int = 20210
) -> CheckResult:
    """Cavity exchange keeps every excitation sector's population, random states.

    The states are drawn as amplitude rows, stacked once and norm-checked by
    ``check_row_norms`` before any kernel runs; each SQUID's sectors are
    summed over its whole stack at once, before and after.
    """
    spec = BasisSpec(num_squids=3, fock_cutoff=2)
    rng = np.random.default_rng([seed, 12])
    ops: list[PulseOp] = []
    rows: list[np.ndarray] = []
    for _ in range(50):
        squid = int(rng.integers(1, 4))
        duration = float(rng.uniform(0.0, 8.0))
        rows.append(_random_state(rng, spec))
        ops.append(PulseOp(PulseVariant.JC, squid, duration))
    drawn = _checked_stack(rows)
    deviations = []
    for squid, picks, after in _closed_forms_by_squid(ops, drawn, spec, cfg):
        shape = (len(picks),) + spec.factor_dims
        before = _jc_sector_populations(drawn[picks].reshape(shape), squid)
        deviations += np.max(np.abs(_jc_sector_populations(after.reshape(shape), squid)
                                    - before), axis=1).tolist()
    worst = float(np.max(deviations))
    return CheckResult("dynamics.jc.sector_conservation", worst, EXACT_TOL, worst < EXACT_TOL)


def _embedded_qubit(spec: BasisSpec, squid: int, gi: np.ndarray, photons: int) -> PureState:
    vecs = [KET_G] * spec.num_squids
    vecs[squid - 1] = gi
    cav = np.zeros(spec.fock_cutoff + 1, dtype=np.complex128)
    cav[photons] = 1.0
    return PureState(_kron_product(vecs + [cav]), spec)


def check_cnot_truth_table(cfg: CouplingConfig = DEFAULT_COUPLINGS) -> CheckResult:
    """Plus/minus flip iff one photon, exact amplitudes, and involution."""
    spec = BasisSpec(num_squids=3, fock_cutoff=2)
    worst = 0.0
    cases = [
        (PLUS_GI, 0, PLUS_GI), (MINUS_GI, 0, MINUS_GI),
        (PLUS_GI, 1, MINUS_GI), (MINUS_GI, 1, PLUS_GI),
    ]
    for gi_in, photons, gi_out in cases:
        start = _embedded_qubit(spec, 2, gi_in, photons)
        once = cnot_cavity_control(start, 2, cfg)
        worst = max(worst, _amp_dev(once, _embedded_qubit(spec, 2, gi_out, photons)))
        twice = cnot_cavity_control(once, 2, cfg)
        worst = max(worst, _amp_dev(twice, start))
    return CheckResult("protocol.cnot.truth_table", worst, EXACT_TOL, worst < EXACT_TOL)


def check_process_tables(cfg: CouplingConfig = DEFAULT_COUPLINGS) -> CheckResult:
    """Both basis rotations against their printed tables, signs included."""
    spec = BasisSpec(num_squids=3, fock_cutoff=2)
    worst = 0.0
    elapsed = set()
    table_one = [(PLUS_GI, -KET_I), (MINUS_GI, KET_G)]
    table_two = [(KET_G, MINUS_GI), (KET_I, -PLUS_GI)]
    for process, table in ((process_one, table_one), (process_two, table_two)):
        for gi_in, gi_out in table:
            start = _embedded_qubit(spec, 1, gi_in, 0)
            out, took = process(start, 1, cfg)
            elapsed.add(took)
            worst = max(worst, _amp_dev(out, _embedded_qubit(spec, 1, gi_out, 0)))
    if len(elapsed) != 1:
        worst = max(worst, max(elapsed) - min(elapsed))
    return CheckResult("protocol.process.tables", worst, STEP_TOL, worst < STEP_TOL)


def _basis_steps(cfg: CouplingConfig) -> list[tuple[PureState, PureState]]:
    """Every step of the two basis inputs' cloning runs: (traced state, symbolic reference)."""
    steps = []
    for q in (InputQubit(1.0, 0.0), InputQubit(0.0, 1.0)):
        _, trace = run_uqcm(q, cfg)
        steps += [(entry.state, reference_step_state(entry.label, q, entry.state.spec))
                  for entry in trace.entries]
    return steps


def check_step_conformance(steps: list[tuple[PureState, PureState]]) -> CheckResult:
    """The basis runs' ``_basis_steps`` against their symbolic references, phase-blind."""
    worst = 0.0
    for state, ref in steps:
        worst = max(worst, phase_aligned_distance(state, ref))
    return CheckResult("protocol.steps.conformance", worst, STEP_TOL, worst < STEP_TOL)


def check_basis_run_amplitudes(steps: list[tuple[PureState, PureState]]) -> CheckResult:
    """The basis runs' ``_basis_steps`` must match the printed signs exactly, not up to phase."""
    worst = 0.0
    for state, ref in steps:
        worst = max(worst, _amp_dev(state, ref))
    return CheckResult("protocol.steps.basis_amplitudes", worst, STEP_TOL, worst < STEP_TOL)


def check_clone_quality(cfg: CouplingConfig = DEFAULT_COUPLINGS, seed: int = 20210) -> CheckResult:
    """Fidelity 5/6 on both copies and unit target overlap, random inputs."""
    rng = np.random.default_rng([seed, 13])
    worst = 0.0
    for _ in range(5):
        theta = math.acos(1.0 - 2.0 * rng.random())
        phi = 2.0 * math.pi * rng.random()
        q = InputQubit.from_bloch(theta, phi)
        final, _ = run_uqcm(q, cfg)
        report = clone_fidelities(final, q)
        worst = max(worst, abs(report.fidelity_squid2 - 5.0 / 6.0))
        worst = max(worst, abs(report.fidelity_squid3 - 5.0 / 6.0))
        worst = max(worst, 1.0 - report.target_overlap)
    return CheckResult("verify.clone_quality", worst, ORACLE_TOL, worst < ORACLE_TOL)


def check_run_hygiene(cfg: CouplingConfig = DEFAULT_COUPLINGS) -> CheckResult:
    """Norm and photon-tail bounds after every single pulse of a full run."""
    worst = 0.0

    def watch(step: str, op, state: PureState) -> None:
        nonlocal worst
        worst = max(worst, abs(state.norm() - 1.0))
        worst = max(worst, state.photon_tail_population(2))

    spec = BasisSpec(num_squids=3, fock_cutoff=2)
    state = PureState.basis_state(spec, (LEVEL_G, LEVEL_G, LEVEL_G), 0)
    state = prepare_input(state, 1, InputQubit.from_bloch(1.1, 2.3), cfg)
    execute_schedule(state, build_uqcm_schedule(cfg), cfg, observer=watch)
    return CheckResult("protocol.run_hygiene", worst, EXACT_TOL, worst < EXACT_TOL)


def run_all_checks(cfg: CouplingConfig = DEFAULT_COUPLINGS, seed: int = 20210) -> list[CheckResult]:
    results = _oracle_results(tuple(PulseVariant), cfg, seed, n_states=100)
    steps = _basis_steps(cfg)
    results += [
        check_unitarity(cfg, seed=seed),
        check_jc_sector_conservation(cfg, seed=seed),
        check_cnot_truth_table(cfg),
        check_process_tables(cfg),
        check_step_conformance(steps),
        check_basis_run_amplitudes(steps),
        check_clone_quality(cfg, seed=seed),
        check_run_hygiene(cfg),
    ]
    return results
