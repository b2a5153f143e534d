"""Pulse-level simulator of a one-cavity, three-SQUID qubit cloner."""

from .dynamics import (
    DEFAULT_COUPLINGS,
    CouplingConfig,
    PulseOp,
    PulseVariant,
    apply_drive_ge,
    apply_drive_ie,
    apply_free_evolution,
    apply_jc,
    apply_pulse_op,
    apply_raman,
    build_generator,
    diagonalize_generator,
    evolve_exact,
)
from .errors import LeakageError, NormalizationError, PhysicsError, PreconditionError
from .hilbert import (
    BasisSpec,
    DensityMatrix,
    PureState,
    basis_index,
    basis_tuple,
    fidelity_against_dm,
    inner_product,
    level_code,
    partial_trace,
    phase_aligned_distance,
)
from .protocol import (
    InputQubit,
    Schedule,
    Slot,
    StepTrace,
    TraceEntry,
    build_uqcm_schedule,
    clone_batch,
    cnot_cavity_control,
    execute_schedule,
    prepare_input,
    process_one,
    process_times,
    process_two,
    run_uqcm,
)
from .verify import (
    CloneReport,
    SweepResult,
    SweepRow,
    clone_fidelities,
    reference_step_state,
    score_rows,
    target_state,
    universality_sweep,
)

__version__ = "0.1.0"
