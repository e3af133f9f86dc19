"""Radial reaction problems for the p-Laplacian on the unit ball:
minimal/limiting solutions, parameter brackets, semi-stability spectra, and
sharp-regularity checks.

The package namespace is lazy: a public name, or a submodule such as
``plaplab.stability``, imports its module on first use, so a command that
imports ``plaplab.cli`` loads only the modules that command runs."""

import importlib

__version__ = "0.1.0"

# public name -> the submodule that defines it
_EXPORTS = {
    name: module
    for module, names in {
        "core": (
            "ConsistencyError",
            "EvaluationError",
            "Exponential",
            "ParameterError",
            "Power",
            "ProblemSpec",
            "QuadratureRule",
            "RadialGrid",
            "RadialProfile",
            "Tabulated",
            "energy",
            "make_grid",
            "make_rule",
        ),
        "exponents": (
            "ExponentReport",
            "classify_regime",
            "consistency_q0_mcs",
            "critical_dimension",
            "exponent_report",
            "m_cs",
            "q_exponent",
        ),
        "oracle": ("ExactSolution", "exact_exponential", "exact_power", "ode_residual"),
        "solver": (
            "BifurcationPoint",
            "BracketingError",
            "ContinuationResult",
            "IterationControls",
            "LambdaRecord",
            "bifurcation_curve",
            "lambda_star_estimate",
            "minimal_iterate",
            "shoot",
        ),
        "stability": (
            "HardyCheck",
            "PowerCutoff",
            "QPencil",
            "RScaled",
            "SineModes",
            "StabilityReport",
            "assemble_q",
            "hardy_inequality_check",
            "weighted_gradient_integral",
            "reaction_free_identity",
            "min_eigenvalue",
            "q_apply",
            "stability_report",
        ),
        "estimates": (
            "EstimateReport",
            "FluxCheck",
            "check_regularity_bounds",
            "flux_monotonicity_check",
            "gradient_L1_bound",
            "integrability_threshold",
            "lq_norm",
            "log_singularity_fit",
            "w1q_norm",
        ),
    }.items()
    for name in names
}
_SUBMODULES = {*_EXPORTS.values(), "cli"}

__all__ = list(_EXPORTS)


def __getattr__(name: str):
    # not cached here: a name always reads its module's current attribute,
    # so a patch of plaplab.stability.stability_report shows as
    # plaplab.stability_report too
    if name in _EXPORTS:
        return getattr(importlib.import_module(f"{__name__}.{_EXPORTS[name]}"), name)
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *_EXPORTS, *_SUBMODULES})
