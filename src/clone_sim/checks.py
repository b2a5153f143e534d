"""Self-contained consistency checks behind the ``validate`` command.

Each check pits an independent route against the closed-form one (matrix
exponentials vs trig formulas, symbolic references vs simulated traces)
and reports the worst deviation it saw.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dynamics import (
    DEFAULT_COUPLINGS,
    CouplingConfig,
    PulseOp,
    PulseVariant,
    apply_pulse_op,
    build_generator,
    diagonalize_generator,
    evolve_diagonalized,
)
from .hilbert import (
    LEVEL_E,
    LEVEL_G,
    LEVEL_I,
    KET_G,
    KET_I,
    MINUS_GI,
    PLUS_GI,
    BasisSpec,
    PureState,
    inner_product,
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


def _random_state(rng: np.random.Generator, spec: BasisSpec) -> PureState:
    z = rng.standard_normal(spec.dimension) + 1j * rng.standard_normal(spec.dimension)
    return PureState.from_amplitudes(z, spec, normalize=True)


def _without_e(state: PureState, squid: int) -> PureState:
    arr = state.tensor().copy()
    sl = [slice(None)] * arr.ndim
    sl[squid - 1] = LEVEL_E
    arr[tuple(sl)] = 0.0
    return PureState.from_amplitudes(arr.reshape(-1), state.spec, normalize=True)


def _amp_dev(a: PureState, b: PureState) -> float:
    return float(np.max(np.abs(a.amplitudes - b.amplitudes)))


def check_oracle(
    variant: PulseVariant,
    cfg: CouplingConfig = DEFAULT_COUPLINGS,
    seed: int = 20210,
    n_states: int = 100,
) -> CheckResult:
    """Closed form vs exp(-iHt) built by eigendecomposition, on random states.

    A phase-free generator depends only on its variant and squid, so each
    is decomposed once per call; the Raman coupling carries the drawn
    phase difference and is decomposed for every state.
    """
    spec = BasisSpec(num_squids=3, fock_cutoff=2)
    rng = np.random.default_rng([seed, list(PulseVariant).index(variant)])
    phase_free = PulseVariant.FREE_EVOLVE if variant is PulseVariant.RAMAN else variant
    eigen: dict[int, tuple[np.ndarray, np.ndarray]] = {}
    worst = 0.0
    for _ in range(n_states):
        squid = int(rng.integers(1, spec.num_squids + 1))
        duration = float(rng.uniform(0.0, 2.0 * math.pi))
        phi1, phi2 = (float(x) for x in rng.uniform(0.0, 2.0 * math.pi, 2))
        op = PulseOp(variant, squid, duration, phi1=phi1, phi2=phi2)
        state = _random_state(rng, spec)
        if variant is PulseVariant.RAMAN:
            state = _without_e(state, squid)
        closed = apply_pulse_op(state, op, cfg)
        if squid not in eigen:
            generator = build_generator(PulseOp(phase_free, squid, 0.0), spec, cfg)
            eigen[squid] = diagonalize_generator(generator)
        exact = state
        if variant is PulseVariant.RAMAN:
            # Exact factorization: the free-phase factor applies after the rotation.
            coupling = diagonalize_generator(build_generator(op, spec, cfg))
            exact = evolve_diagonalized(exact, coupling, duration)
        exact = evolve_diagonalized(exact, eigen[squid], duration)
        worst = max(worst, _amp_dev(closed, exact))
    name = f"dynamics.{variant.value}.oracle"
    return CheckResult(name, worst, ORACLE_TOL, worst < ORACLE_TOL)


def check_unitarity(cfg: CouplingConfig = DEFAULT_COUPLINGS, seed: int = 20210) -> CheckResult:
    """Inner products between random state pairs survive every primitive."""
    spec = BasisSpec(num_squids=3, fock_cutoff=2)
    rng = np.random.default_rng([seed, 11])
    worst = 0.0
    for variant in PulseVariant:
        for _ in range(20):
            squid = int(rng.integers(1, 4))
            op = PulseOp(variant, squid, float(rng.uniform(0.0, 8.0)),
                         phi1=float(rng.uniform(0, 2 * math.pi)))
            a, b = _random_state(rng, spec), _random_state(rng, spec)
            if variant is PulseVariant.RAMAN:
                a, b = _without_e(a, squid), _without_e(b, squid)
            before = inner_product(a, b)
            after = inner_product(apply_pulse_op(a, op, cfg), apply_pulse_op(b, op, cfg))
            worst = max(worst, abs(after - before))
    return CheckResult("dynamics.unitarity", worst, EXACT_TOL, worst < EXACT_TOL)


def _jc_sector_populations(state: PureState, squid: int) -> np.ndarray:
    """Populations by excitation number n_photons + [level == e] of one SQUID."""
    arr = np.abs(state.tensor()) ** 2
    fock = state.spec.fock_cutoff
    pops = np.zeros(fock + 2)
    for level in (LEVEL_G, LEVEL_I, LEVEL_E):
        sl = [slice(None)] * arr.ndim
        sl[squid - 1] = level
        by_photon = arr[tuple(sl)].reshape(-1, fock + 1).sum(axis=0)
        for n in range(fock + 1):
            pops[n + (1 if level == LEVEL_E else 0)] += by_photon[n]
    return pops


def check_jc_sector_conservation(
    cfg: CouplingConfig = DEFAULT_COUPLINGS, seed: int = 20210
) -> CheckResult:
    spec = BasisSpec(num_squids=3, fock_cutoff=2)
    rng = np.random.default_rng([seed, 12])
    worst = 0.0
    for _ in range(50):
        squid = int(rng.integers(1, 4))
        duration = float(rng.uniform(0.0, 8.0))
        state = _random_state(rng, spec)
        op = PulseOp(PulseVariant.JC, squid, duration)
        before = _jc_sector_populations(state, squid)
        after = _jc_sector_populations(apply_pulse_op(state, op, cfg), squid)
        worst = max(worst, float(np.max(np.abs(after - before))))
    return CheckResult("dynamics.jc.sector_conservation", worst, EXACT_TOL, worst < EXACT_TOL)


def _embedded_qubit(spec: BasisSpec, squid: int, gi: np.ndarray, photons: int) -> PureState:
    vecs = [KET_G] * spec.num_squids
    vecs[squid - 1] = gi
    cav = np.zeros(spec.fock_cutoff + 1, dtype=np.complex128)
    cav[photons] = 1.0
    full = vecs[0]
    for v in vecs[1:]:
        full = np.kron(full, v)
    return PureState(np.kron(full, cav), spec)


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


def check_step_conformance(cfg: CouplingConfig = DEFAULT_COUPLINGS) -> CheckResult:
    """Basis-input traces against the symbolic per-step references, phase-blind."""
    worst = 0.0
    for alpha, beta in ((1.0, 0.0), (0.0, 1.0)):
        q = InputQubit(alpha, beta)
        _, trace = run_uqcm(q, cfg)
        for entry in trace.entries:
            ref = reference_step_state(entry.label, q, entry.state.spec)
            worst = max(worst, phase_aligned_distance(entry.state, ref))
    return CheckResult("protocol.steps.conformance", worst, STEP_TOL, worst < STEP_TOL)


def check_basis_run_amplitudes(cfg: CouplingConfig = DEFAULT_COUPLINGS) -> CheckResult:
    """For basis inputs the printed signs must come out exactly, not just up to phase."""
    worst = 0.0
    for alpha, beta in ((1.0, 0.0), (0.0, 1.0)):
        q = InputQubit(alpha, beta)
        _, trace = run_uqcm(q, cfg)
        for entry in trace.entries:
            ref = reference_step_state(entry.label, q, entry.state.spec)
            worst = max(worst, _amp_dev(entry.state, ref))
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


def run_all_checks(
    cfg: CouplingConfig = DEFAULT_COUPLINGS, seed: int = 20210, n_states: int = 100
) -> list[CheckResult]:
    results = [check_oracle(variant, cfg, seed=seed, n_states=n_states) for variant in PulseVariant]
    results += [
        check_unitarity(cfg, seed=seed),
        check_jc_sector_conservation(cfg, seed=seed),
        check_cnot_truth_table(cfg),
        check_process_tables(cfg),
        check_step_conformance(cfg),
        check_basis_run_amplitudes(cfg),
        check_clone_quality(cfg, seed=seed),
        check_run_hygiene(cfg),
    ]
    return results
