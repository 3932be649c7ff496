"""Quantum homogenization of a qubit by partial-swap collisions.

The names of ``__all__`` are loaded from their module on first use
(PEP 562), so ``import qhog`` by itself imports no numpy.
"""

import importlib

__version__ = "0.1.0"

_HOME = {
    "bloch": ("QubitState", "bloch_from_density", "density_from_bloch", "trace_distance"),
    "collision": ("CollisionState", "ExcitationState", "excitation_collide", "run_mixed_system",
                  "run_pure"),
    "entanglement": ("ckw_sum", "closed_form_concurrences", "concurrence", "tangle_one_vs_rest",
                     "total_tangle_sum"),
    "homogenizer": ("HomogenizationBudget", "SwapAngle", "Trajectory", "budget_from_delta",
                    "check_universality", "closed_form_system", "partial_swap_unitary",
                    "run_trajectory", "step_reservoir", "step_system", "superoperator"),
    "safe": ("UnwindHistogram", "sweep_correct", "sweep_incorrect", "unwind"),
}
_MODULE_OF = {name: module for module, names in _HOME.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value
