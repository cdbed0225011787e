"""Dense-network numeric kernel on plain arrays: layers, Adam, RNG,
likelihoods, the KL, and the hand-written VJPs that train them.

Importing the package sets two process-wide glibc malloc thresholds (see
:mod:`.runtime`).
"""

from . import runtime
from .layers import ACTIVATIONS, LEAKY_SLOPE, DenseLayer, Param
from .losses import (
    DEFAULT_SIGMA,
    LOGVAR_HI,
    LOGVAR_LO,
    PROB_EPS,
    DiagGaussian,
    diag_gaussian_logpdf,
    diag_gaussian_logpdf_grads,
    likelihood_kernel,
    logmeanexp_grads,
    logmeanexp_values,
)
from .optim import AdamState, ParamVector, adam_step
from .rng import Rng


def grad_enabled() -> bool:
    """Always False: nothing here records a tape. Kept only because the
    benchmark's tracer (``perfbench/run.py``) reads it on every run; ROADMAP
    item 1, the tape-agnostic tracer, removes that reader and this function."""
    return False


__all__ = [
    "ACTIVATIONS",
    "AdamState",
    "DEFAULT_SIGMA",
    "DenseLayer",
    "DiagGaussian",
    "LEAKY_SLOPE",
    "LOGVAR_HI",
    "LOGVAR_LO",
    "PROB_EPS",
    "Param",
    "ParamVector",
    "Rng",
    "adam_step",
    "diag_gaussian_logpdf",
    "diag_gaussian_logpdf_grads",
    "likelihood_kernel",
    "logmeanexp_grads",
    "logmeanexp_values",
]
