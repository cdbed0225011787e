"""Dense-network numeric kernel: tensors, tape, layers, Adam, RNG, likelihoods,
each on the tape and on plain arrays.

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
    DiagGaussian,
    TapeGaussian,
    bernoulli_log_likelihood,
    diag_gaussian_logpdf,
    gaussian_log_likelihood,
    kl_diag_gaussian_to_standard,
    likelihood_kernel,
    logmeanexp,
    logmeanexp_grads,
    logmeanexp_values,
    reparameterize,
    tape_likelihood,
)
from .optim import AdamState, ParamVector, adam_step
from .rng import Rng

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
    "ParamVector",
    "Rng",
    "TapeGaussian",
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
    "likelihood_kernel",
    "logmeanexp",
    "logmeanexp_grads",
    "logmeanexp_values",
    "no_grad",
    "parameter",
    "reparameterize",
    "tape_likelihood",
]
