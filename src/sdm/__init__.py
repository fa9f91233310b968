"""Learned descent maps for nonlinear least squares, with baselines and
benchmark suites."""

from .core import (
    DescentSequence,
    DescentStep,
    Mode,
    NlsProblem,
    SmoothMap,
    apply_sequence,
)
from .baselines import DescentRun, RunStatus, gauss_newton_minimize, newton_minimize
from .online import OnlineState, init_online, rls_ingest
from .theory import (
    AnchoredSample,
    ContractionCertificate,
    Neighborhood,
    anchored_sample,
    contraction_certify,
    frobenius_dm_bound,
    generic_dm_1d,
    lipschitz_anchored,
    monotone_anchored_1d,
    monotone_operator_check,
)
from .trainer import TrainerConfig, TrainingSet, grid_offsets, solve_stage, train

__all__ = [
    "AnchoredSample",
    "ContractionCertificate",
    "DescentRun",
    "DescentSequence",
    "DescentStep",
    "Mode",
    "Neighborhood",
    "NlsProblem",
    "OnlineState",
    "RunStatus",
    "SmoothMap",
    "TrainerConfig",
    "TrainingSet",
    "anchored_sample",
    "apply_sequence",
    "contraction_certify",
    "frobenius_dm_bound",
    "gauss_newton_minimize",
    "generic_dm_1d",
    "grid_offsets",
    "init_online",
    "lipschitz_anchored",
    "monotone_anchored_1d",
    "monotone_operator_check",
    "newton_minimize",
    "rls_ingest",
    "solve_stage",
    "train",
]

__version__ = "0.1.0"
