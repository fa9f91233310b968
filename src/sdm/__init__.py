"""Learned descent maps for nonlinear least squares, with baselines and
benchmark suites. Each exported name is imported from its module when first
read, so importing one module of the package loads only what that module imports."""

from importlib import import_module

# module -> the names the package exports from it
_EXPORTS = {
    "core": ("DescentSequence", "DescentStep", "Mode", "NlsProblem", "SmoothMap", "apply_sequence"),
    "baselines": ("DescentRun", "RunStatus", "gauss_newton_minimize", "newton_minimize"),
    "online": ("OnlineState", "init_online", "rls_ingest"),
    "theory": ("AnchoredSample", "ContractionCertificate", "Neighborhood", "anchored_sample",
               "contraction_certify", "frobenius_dm_bound", "generic_dm_1d",
               "lipschitz_anchored", "monotone_anchored_1d", "monotone_operator_check"),
    "trainer": ("TrainerConfig", "TrainingSet", "grid_offsets", "solve_stage", "train"),
}
_OWNER = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_OWNER)

__version__ = "0.1.0"


def __getattr__(name):
    if name not in _OWNER:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f"{__name__}.{_OWNER[name]}"), name)


def __dir__():
    return sorted({*globals(), *__all__})
