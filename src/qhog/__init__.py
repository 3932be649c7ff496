"""Quantum homogenization of a qubit by partial-swap collisions."""

from .bloch import QubitState, bloch_from_density, density_from_bloch, trace_distance
from .collision import (
    CollisionState,
    ExcitationState,
    excitation_collide,
    init_pure,
    run_mixed_system,
    run_pure,
)
from .entanglement import (
    ConcurrenceTable,
    TangleRecord,
    ckw_sum,
    closed_form_concurrences,
    concurrence,
    tangle_one_vs_rest,
    total_tangle_sum,
)
from .homogenizer import (
    AffineSuperOp,
    HomogenizationBudget,
    SwapAngle,
    Trajectory,
    budget_from_delta,
    check_universality,
    closed_form_system,
    contraction_coefficient,
    partial_swap_unitary,
    run_trajectory,
    step_reservoir,
    step_system,
    superoperator,
)
from .safe import UnwindHistogram, UnwindTrial, sweep_correct, sweep_incorrect, unwind

__version__ = "0.1.0"

__all__ = [
    "AffineSuperOp",
    "CollisionState",
    "ConcurrenceTable",
    "ExcitationState",
    "HomogenizationBudget",
    "QubitState",
    "SwapAngle",
    "TangleRecord",
    "Trajectory",
    "UnwindHistogram",
    "UnwindTrial",
    "bloch_from_density",
    "budget_from_delta",
    "check_universality",
    "ckw_sum",
    "closed_form_concurrences",
    "closed_form_system",
    "concurrence",
    "contraction_coefficient",
    "density_from_bloch",
    "excitation_collide",
    "init_pure",
    "partial_swap_unitary",
    "run_mixed_system",
    "run_pure",
    "run_trajectory",
    "step_reservoir",
    "step_system",
    "superoperator",
    "sweep_correct",
    "sweep_incorrect",
    "tangle_one_vs_rest",
    "total_tangle_sum",
    "trace_distance",
    "unwind",
]
