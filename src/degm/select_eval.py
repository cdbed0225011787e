"""Label-free component selection and reconstruction quality metrics.

Selection scores each node by its own bound on the sample (elbo family for
basic nodes, the mixture bound for specific ones) under a uniform prior over
nodes, which cancels in the argmax of the posterior. Evaluation draws are
broadcast per draw, so every per-sample number is independent of batch order
and composition.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContractError, DimensionError
from .graph import GraphModel
from .nnkit import Rng
from .nnkit.runtime import fork_map

MAX_VAL = 1.0  # the pixel range of every dataset, [0, 1]
PSNR_CAP_DB = 99.0
PSNR_MSE_FLOOR = 1e-12
SSIM_WINDOW = 8
SSIM_STRIDE = 4
METRIC_BLOCK_ROWS = 1024  # rows per SSIM pass; bounds the window copies' memory


@dataclass
class SelectionResult:
    chosen: np.ndarray  # [B] node indices, ties resolved to the lowest index
    scores: np.ndarray  # [B, nodes] mean per-sample bounds


def _eval_bank(node_pass, seed: int, draws: int, key: str) -> list:
    """``draws`` draws of the noise of ``node_pass``, a model's pass, each
    shared by every row: draw i from the stream ``key:i`` of ``Rng(seed)``.
    Every pass of one model gets the same bank, whatever its rows."""
    rng = Rng(seed)
    return [node_pass.draws(rng.spawn(f"{key}:{i}"), 1, rows=1)[0] for i in range(draws)]


def select_component(graph: GraphModel, x: np.ndarray, k_eval: int = 1,
                     seed: int = 0) -> SelectionResult:
    """Argmax of per-node bounds averaged over k_eval shared draws."""
    if graph.node_count == 0:
        raise ContractError("cannot select from an empty graph")
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2:
        raise DimensionError(f"expected [batch, dim], got {x.shape}")
    scores = np.zeros((x.shape[0], graph.node_count))
    for j, entry in enumerate(graph.entries):
        node_pass = graph.node_pass(entry, x)
        if j == 0:
            eps_bank = _eval_bank(node_pass, seed, k_eval, "select")
        scores[:, j] = np.mean([node_pass.bound([eps]) for eps in eps_bank], axis=0)
    return SelectionResult(chosen=np.argmax(scores, axis=1), scores=scores)


def _chosen_passes(graph: GraphModel, data: np.ndarray, chosen: np.ndarray) -> list:
    """(mask, pass) of each node that some sample chose, over the rows it chose."""
    passes = []
    for j, entry in enumerate(graph.entries):
        mask = chosen == j
        if mask.any():
            passes.append((mask, graph.node_pass(entry, data[mask])))
    return passes


def _selected_nll(passes: list, kprime: int, seed: int) -> float:
    """Mean negative K'-draw bound over the rows of ``passes``, passes of one
    model: a graph's, one per chosen node over the rows that chose it; a
    single model's, one over every row."""
    if kprime < 1:
        raise ContractError(f"kprime must be >= 1, got {kprime}")
    eps_bank = _eval_bank(passes[0], seed, kprime, "nll")
    total = 0.0
    for node_pass in passes:
        total += float(-node_pass.bound(eps_bank).sum())
    return total / sum(node_pass.x.shape[0] for node_pass in passes)


# -- reconstruction metrics ---------------------------------------------------------

def _psnr_db(mse: np.ndarray) -> np.ndarray:
    capped = mse < PSNR_MSE_FLOOR
    db = 10.0 * np.log10(MAX_VAL * MAX_VAL / np.where(capped, 1.0, mse))
    return np.where(capped, PSNR_CAP_DB, db)


def _ssim_rows(x: np.ndarray, recon: np.ndarray) -> np.ndarray:
    """ssim of each row pair of two [n, d] float64 arrays, all rows at once.
    Windows are copied out into contiguous runs: numpy sums a lone strided
    window in the order it sums such a copy, so each row's value is bitwise
    what scoring that window on its own gives."""
    c1 = (0.01 * MAX_VAL) ** 2
    c2 = (0.03 * MAX_VAL) ** 2
    n, d = x.shape
    side = int(round(np.sqrt(d)))
    if side * side != d or side < SSIM_WINDOW:
        wa, wb = x[:, None, :], recon[:, None, :]
    else:
        view = np.lib.stride_tricks.sliding_window_view
        wa, wb = (view(v.reshape(n, side, side), (SSIM_WINDOW, SSIM_WINDOW), axis=(1, 2))
                  [:, ::SSIM_STRIDE, ::SSIM_STRIDE].reshape(n, -1, SSIM_WINDOW * SSIM_WINDOW)
                  for v in (x, recon))
    mu_a, mu_b = wa.mean(axis=-1), wb.mean(axis=-1)
    dev_a, dev_b = wa - mu_a[..., None], wb - mu_b[..., None]
    var_a, var_b = (dev_a * dev_a).mean(axis=-1), (dev_b * dev_b).mean(axis=-1)
    cov = (dev_a * dev_b).mean(axis=-1)
    lum = (2.0 * mu_a * mu_b + c1) / (_libm_square(mu_a) + _libm_square(mu_b) + c1)
    struct = (2.0 * cov + c2) / (var_a + var_b + c2)
    return (lum * struct).mean(axis=1)


def _libm_square(v: np.ndarray) -> np.ndarray:
    # a float64 scalar's ** 2 calls libm pow, which differs from v * v in the
    # last bit for about 1 value in 1500; ssim has always squared the window
    # means that way, and keeping it keeps the logged metrics bit-identical
    return np.array([m ** 2 for m in v.ravel().tolist()]).reshape(v.shape)


def reconstruction_metrics(x: np.ndarray, recon: np.ndarray) -> tuple[float, float, float]:
    """Dataset-level (mean SL, mean PSNR, mean SSIM) over rows: a row's SL
    is its summed squared error, its PSNR 10 log10(max^2 / MSE) in dB,
    capped at 99 for (near-)exact matches, and its SSIM the mean local
    similarity over sliding windows (one window for a flat vector or an
    image smaller than the window)."""
    x = np.ascontiguousarray(x, dtype=np.float64)
    recon = np.ascontiguousarray(recon, dtype=np.float64)
    if x.shape != recon.shape:
        raise DimensionError(f"shape mismatch {x.shape} vs {recon.shape}")
    x, recon = x.reshape(x.shape[0], -1), recon.reshape(x.shape[0], -1)
    sq = (x - recon) ** 2
    ssims = [_ssim_rows(x[i:i + METRIC_BLOCK_ROWS], recon[i:i + METRIC_BLOCK_ROWS])
             for i in range(0, x.shape[0], METRIC_BLOCK_ROWS)]
    return (float(sq.sum(axis=1).mean()), float(_psnr_db(sq.mean(axis=1)).mean()),
            float(np.concatenate(ssims).mean()))


def task_metric_table(graph: GraphModel, stream, kprime: int = 1, seed: int = 0,
                      k_eval: int = 1) -> list[dict]:
    """Per-task row: NLL estimate, reconstruction metrics through the nodes
    selected over ``k_eval`` draws, and the histogram of which node each
    sample picked. No row reads another, so ``fork_map`` shares them out
    over the CPUs; each row is the same whichever process computes it."""
    def row(t: int) -> dict:
        task = stream.tasks[t]
        data = task.test.data
        selection = select_component(graph, data, k_eval=k_eval, seed=seed)
        passes = _chosen_passes(graph, data, selection.chosen)
        recon = np.zeros_like(data)
        for mask, node_pass in passes:
            recon[mask] = node_pass.reconstruction()
        sl, ps, ss = reconstruction_metrics(data, recon)
        hist = np.bincount(selection.chosen, minlength=graph.node_count)
        return {"task": task.name,
                "nll": _selected_nll([node_pass for _, node_pass in passes], kprime, seed),
                "sl": sl, "psnr": ps, "ssim": ss,
                "chosen_hist": "|".join(str(int(c)) for c in hist)}

    return fork_map(row, [task.test.n for task in stream.tasks])


def single_metric_table(model, stream, kprime: int = 1) -> list[dict]:
    """The same per-task rows for a single-model baseline: every sample goes
    to the one model, whose one pass per task gives the reconstruction and
    the K'-draw bound."""
    def row(t: int) -> dict:
        task = stream.tasks[t]
        node_pass = model.node_pass(task.test.data)
        sl, ps, ss = reconstruction_metrics(task.test.data, node_pass.reconstruction())
        return {"task": task.name, "nll": _selected_nll([node_pass], kprime, 0),
                "sl": sl, "psnr": ps, "ssim": ss, "chosen_hist": "1"}

    return fork_map(row, [task.test.n for task in stream.tasks])
