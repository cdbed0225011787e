"""Dense-network numeric kernel: tensors, tape, layers, Adam, RNG, likelihoods.

Importing the package sets two process-wide glibc malloc thresholds (see
:mod:`.runtime`).
"""

from . import runtime
from .autodiff import Tensor, affine, backprop, grad_enabled, no_grad, parameter
from .layers import ACTIVATIONS, LEAKY_SLOPE, DenseLayer, affine_forward
from .losses import (
    DEFAULT_SIGMA,
    LOGVAR_HI,
    LOGVAR_LO,
    PROB_EPS,
    bernoulli_log_likelihood,
    diag_gaussian_logpdf,
    gaussian_log_likelihood,
    kl_diag_gaussian_to_standard,
    logmeanexp,
    reparameterize,
)
from .optim import AdamState, adam_step
from .rng import Rng

__all__ = [
    "ACTIVATIONS",
    "AdamState",
    "DEFAULT_SIGMA",
    "DenseLayer",
    "LEAKY_SLOPE",
    "LOGVAR_HI",
    "LOGVAR_LO",
    "PROB_EPS",
    "Rng",
    "Tensor",
    "adam_step",
    "affine",
    "affine_forward",
    "backprop",
    "bernoulli_log_likelihood",
    "diag_gaussian_logpdf",
    "gaussian_log_likelihood",
    "grad_enabled",
    "kl_diag_gaussian_to_standard",
    "logmeanexp",
    "no_grad",
    "parameter",
    "reparameterize",
]
