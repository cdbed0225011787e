"""Estimators that no command calls, kept as references for the tests: the
standalone discrepancy and KL-gap estimators that the bounds rows must agree
with, the NLL estimates of one data set, and the single-row reconstruction
metrics that ``reconstruction_metrics`` must equal bit for bit. Each is
written from the package's private pieces, as it was written in the
package."""

from __future__ import annotations

import numpy as np

from degm.bounds import _kl_gap, _kl_sets, _pair_gaps
from degm.errors import ContractError, DimensionError
from degm.graph import GraphModel
from degm.nnkit import Rng
from degm.select_eval import (
    _chosen_passes,
    _psnr_db,
    _selected_nll,
    _ssim_rows,
    select_component,
)


# -- bounds ------------------------------------------------------------------------------

def estimate_discrepancy(p_samples: np.ndarray, q_samples: np.ndarray,
                         models: dict) -> float:
    """max over pairs (h, h') of |E_P loss(h, h') - E_Q loss(h, h')|, where
    ``models`` maps a hypothesis name to its model.

    A lower bound on the true sup; 0 exactly when the two sample sets coincide
    and symmetric in (P, Q) by construction. Each unordered pair is scored
    once: loss(h, h') equals loss(h', h) bit for bit, as fl(a - b) = -fl(b - a),
    and loss(h, h) is identically zero on both sides.
    """
    if len(models) < 2:
        raise ContractError("discrepancy needs at least two hypotheses")
    p = np.asarray(p_samples, dtype=np.float64)
    q = np.asarray(q_samples, dtype=np.float64)
    if p.shape[0] == 0 or q.shape[0] == 0:
        raise ContractError("discrepancy needs nonempty sample sets")
    return max([0.0, *_pair_gaps([(model.reconstruct(p), model.reconstruct(q))
                                  for model in models.values()])])


def encoder_kl_values(model, data: np.ndarray) -> np.ndarray:
    """Closed-form posterior-to-prior KL per sample (no sampling involved)."""
    return model.node_pass(data).kl()


def estimate_kl_gap(model, target_sets: list[np.ndarray], source: np.ndarray,
                    sample_size: int = 10_000, rng: Rng | None = None) -> float:
    """|mean encoder-KL over the evolved source - task-average over targets|."""
    source = np.asarray(source, dtype=np.float64)
    if source.shape[0] == 0 or not target_sets or any(np.shape(t)[0] == 0 for t in target_sets):
        raise ContractError("kl gap needs nonempty source and target sets")
    kl_source, kl_targets = _kl_sets(target_sets, source, sample_size, rng or Rng(0))
    return _kl_gap(float(encoder_kl_values(model, kl_source).mean()),
                   [float(encoder_kl_values(model, t).mean()) for t in kl_targets])


# -- select_eval ---------------------------------------------------------------------------

def eval_nll(graph: GraphModel, data: np.ndarray, kprime: int = 1, seed: int = 0,
             k_eval: int = 1) -> float:
    """Mean negative log-likelihood estimate: select a node per sample, then
    score it with the K'-draw bound."""
    data = np.asarray(data, dtype=np.float64)
    selection = select_component(graph, data, k_eval=k_eval, seed=seed)
    passes = _chosen_passes(graph, data, selection.chosen)
    return _selected_nll([node_pass for _, node_pass in passes], kprime, seed)


def eval_nll_single(model, data: np.ndarray, kprime: int = 1, seed: int = 0) -> float:
    """Same estimator for a single-model baseline: no selection step, one
    pass of the model over every row."""
    return _selected_nll([model.node_pass(data)], kprime, seed)


def square_loss(x: np.ndarray, recon: np.ndarray) -> float:
    """Summed squared error over all entries."""
    x, recon = np.asarray(x), np.asarray(recon)
    if x.shape != recon.shape:
        raise DimensionError(f"shape mismatch {x.shape} vs {recon.shape}")
    return float(((x - recon) ** 2).sum())


def psnr(x: np.ndarray, recon: np.ndarray) -> float:
    """10 log10(max^2 / MSE) in dB, capped at 99 for (near-)exact matches."""
    x, recon = np.asarray(x), np.asarray(recon)
    if x.shape != recon.shape:
        raise DimensionError(f"shape mismatch {x.shape} vs {recon.shape}")
    return float(_psnr_db(((x - recon) ** 2).mean()))


def ssim(x: np.ndarray, recon: np.ndarray) -> float:
    """Mean local similarity over sliding windows; a flat vector (or an image
    smaller than the window) is treated as one window."""
    x, recon = np.asarray(x, dtype=np.float64).ravel(), np.asarray(recon, dtype=np.float64).ravel()
    if x.shape != recon.shape:
        raise DimensionError(f"shape mismatch {x.shape} vs {recon.shape}")
    return float(_ssim_rows(x[None], recon[None])[0])
