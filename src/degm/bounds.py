"""Empirical estimators for the generalization-bound quantities.

The true discrepancy distance takes a sup over all hypothesis pairs, which is
not computable; everything here evaluates a finite family of trained snapshots
(current model, an auxiliary model fitted to the evolved source, and per-task
reference models) and is therefore a *lower bound*. Output columns say so.

Losses follow the encode-decode-as-identity reading: the per-sample loss
between two hypotheses is the dimension-normalised squared distance of their
reconstructions, and the risk of a model is that loss against the input.

A bounds row holds what ``bounds_report.csv`` and ``bound_check.csv`` write
of one model: its risks, the KL gap, the discrepancy lower bound, both sides
of the bound check and its slack. ``task_rows`` computes a task's rows from
that task's sets and fixed models alone, for the per-epoch rows of
``bounds_run`` and the task-end rows of ``diagnose_snapshots``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import ContractError
from .lifelong import (TaskStream, TrainConfig, mean_square_loss, replay_mixture, run_gr_single,
                       train_epoch)
from .nnkit import AdamState, Rng, runtime
from .vae import VaeComponent, copy_model


def _sq_loss(a: np.ndarray, b: np.ndarray) -> float:
    """Mean over rows of the squared distance, normalised by the row width."""
    return mean_square_loss(a, b) / a.shape[1]


def risk(model, data: np.ndarray) -> float:
    """Mean squared reconstruction error, normalised by the input dimension."""
    data = np.asarray(data, dtype=np.float64)
    if data.shape[0] == 0:
        raise ContractError("risk needs a nonempty dataset")
    return _sq_loss(data, model.reconstruct(data))


def _pair_gaps(recons: list) -> list[float]:
    """|loss on P - loss on Q| of each unordered pair of hypotheses, in pair
    order, where ``recons`` holds each one's (P, Q) reconstructions."""
    return [abs(_sq_loss(a[0], b[0]) - _sq_loss(a[1], b[1]))
            for i, a in enumerate(recons) for b in recons[i + 1:]]


def _subsample(x: np.ndarray, size: int, rng: Rng, key: str) -> np.ndarray:
    """``x`` when it has at most ``size`` rows, else ``size`` of its rows drawn
    by the stream ``rng.spawn(key)``."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape[0] <= size:
        return x
    return x[rng.spawn(key).choice_without_replacement(x.shape[0], size)]


def _kl_sets(target_sets: list, source: np.ndarray, sample_size: int,
             rng: Rng) -> tuple[np.ndarray, list[np.ndarray]]:
    """The rows the KL gap scores: the source and each target set, each cut
    to at most ``sample_size`` rows by its own stream of ``rng``."""
    return (_subsample(source, sample_size, rng, "klgap:source"),
            [_subsample(t, sample_size, rng, f"klgap:target:{i}")
             for i, t in enumerate(target_sets)])


def _kl_gap(source_mean: float, target_means: list[float]) -> float:
    return abs(source_mean - float(np.mean(target_means)))


# -- diagnostics over a replay run -----------------------------------------------------

@dataclass
class BoundsRow:
    task_t: int  # 1-based task being learned
    epoch: int  # 1-based within the task
    source_risk: float
    target_risks: list[float]  # one per task seen so far
    target_risk_avg: float
    kl_gap: float
    disc_lower_bound: float
    lhs_target_neg_elbo: float
    rhs_source_neg_elbo: float
    eps_proxy: float
    slack: float  # RHS - LHS of the per-epoch bound check

    @property
    def ra_lower_bound(self) -> float:
        """disc + eps: the bound check's error term of this transition."""
        return self.disc_lower_bound + self.eps_proxy


@dataclass
class BoundsArtifacts:
    rows: list[BoundsRow] = field(default_factory=list)
    reference_models: list = field(default_factory=list)
    gr_model: object = None
    snapshots: list = field(default_factory=list)  # the replay model after each task
    metrics_log: object = None
    rows_s: float = 0.0  # wall seconds this process spent producing the rows


def _train_plain(data: np.ndarray, cfg: TrainConfig, rng: Rng, epochs: int,
                 name: str) -> VaeComponent:
    model = VaeComponent(data.shape[1], cfg.latent_dim, cfg.hidden_dim,
                         cfg.likelihood, rng.spawn("init"), name=name)
    state = AdamState(lr=cfg.lr)
    train_rng = rng.spawn("train")
    for _ in range(epochs):
        train_epoch(state, model.node_pass, 1, data, cfg.batch, train_rng)
    return model


def _fit_reference(stream: TaskStream, cfg: TrainConfig, rng: Rng, i: int,
                   epochs: int) -> VaeComponent:
    """The reference model of task i + 1, fitted on its training set alone."""
    task = stream.tasks[i]
    return _train_plain(task.train.data, cfg, rng.spawn(f"bounds:ref:{task.name}"), epochs,
                        name=f"ref{i}")


def _fit_aux(mixture: np.ndarray, cfg: TrainConfig, rng: Rng, t: int,
             epochs: int) -> VaeComponent:
    """The aux model of task t + 1, fitted on the mixture it trains on."""
    return _train_plain(mixture, cfg, rng.spawn(f"bounds:aux:{t}"), epochs, name=f"aux{t}")


def fit_references(stream: TaskStream, cfg: TrainConfig, rng: Rng,
                   aux_epochs: int) -> list[VaeComponent]:
    """The reference model of each task, fitted for ``aux_epochs`` on that
    task's training set alone; ``fork_map`` splits the fits over the CPUs."""
    return runtime.fork_map(lambda i: _fit_reference(stream, cfg, rng, i, aux_epochs),
                            [task.train.n for task in stream.tasks])


class SetNumbers(NamedTuple):
    """What a row reads of one model's pass over one row set."""

    losses: dict  # id of an array -> the loss of the reconstruction against it
    kl: float | None  # the mean encoder KL, where it is read
    neg_elbo: float | None  # the mean negative ELBO at the rows' draw, where it is read


def _set_numbers(model, x: np.ndarray, against: dict, kl: bool, elbo: bool,
                 eps: np.ndarray) -> SetNumbers:
    """From one pass of ``model`` over ``x``: the loss of its reconstruction
    against each array of ``against``, its mean encoder KL if ``kl``, its mean
    negative ELBO at the draw ``eps`` if ``elbo``."""
    node_pass = model.node_pass(x)
    recon = node_pass.reconstruction() if against else None
    return SetNumbers({key: _sq_loss(recon, other) for key, other in against.items()},
                      float(node_pass.kl().mean()) if kl else None,
                      -node_pass.bound([eps]).mean() if elbo else None)


def task_rows(models: list, epochs: list[int], source: np.ndarray,
              target_sets: list[np.ndarray], aux: VaeComponent | None, refs: list,
              eval_eps: np.ndarray, rng: Rng, sample_size: int) -> list[BoundsRow]:
    """One diagnostics row per model of ``models``, at its entry of
    ``epochs``, while it learns task t + 1: ``target_sets`` holds the test
    sets of tasks 1..t+1, ``aux`` the aux model fitted on the task's mixture
    (None at the first task, where the current model stands in for it),
    ``refs`` the reference models, of which those of tasks 1..t+1 are read,
    and ``eval_eps`` the fixed draw of every ELBO term of the bound check.

    The models that stay fixed, the aux model and the refs, are reconstructed
    on the union and the source first. Each model then passes each distinct
    row set once, and ``_set_numbers`` reduces the pass to the floats the row
    reads before the next one is made. A task's rows read nothing of another
    task's, so they are the same whatever process computes them.
    """
    source = np.asarray(source, dtype=np.float64)
    targets = [np.asarray(ts, dtype=np.float64) for ts in target_sets]
    if source.shape[0] == 0 or not targets or any(ts.shape[0] == 0 for ts in targets):
        raise ContractError("bounds rows need nonempty source and target sets")
    t = len(targets) - 1
    union = targets[0] if t == 0 else np.concatenate(targets)  # one set is its own union
    kl_source, kl_targets = _kl_sets(targets, source, sample_size, rng.spawn(f"bounds:kl:{t}"))
    # at the first task the aux model is the current model: its pairs would
    # repeat current's, and (current, aux) scores exactly 0
    fixed = [aux] if aux is not None else []
    kept = [(m.reconstruct(union), m.reconstruct(source)) for m in fixed + refs[:t + 1]]
    fixed_gaps = _pair_gaps(kept)
    # the aux model's eps_proxy; None at the first task, where it is the current model
    eps_fixed = (_sq_loss(source, kept[0][1]) + _sq_loss(union, kept[0][0])) if fixed else None
    # each distinct set once: [rows, the arrays its reconstruction is
    # scored against, whether its KL is read, whether its ELBO is read];
    # losses are symmetric bit for bit, so a set scored against itself
    # is its risk
    reads: dict[int, list] = {}

    def read(x: np.ndarray, against: list, kl: bool = False, elbo: bool = False):
        entry = reads.setdefault(id(x), [x, {}, False, False])
        entry[1].update((id(a), a) for a in against)
        entry[2] |= kl
        entry[3] |= elbo

    for ts in targets:
        read(ts, [ts], elbo=True)
    read(source, [source, *(s for _, s in kept)], elbo=True)
    read(union, [union, *(u for u, _ in kept)])
    for x in (kl_source, *kl_targets):
        read(x, [], kl=True)

    def row(model, epoch: int) -> BoundsRow:
        own = {key: _set_numbers(model, *entry, eval_eps) for key, entry in reads.items()}

        def loss(x: np.ndarray, other: np.ndarray) -> float:
            return own[id(x)].losses[id(other)]

        target_risks = [loss(ts, ts) for ts in targets]
        gap = _kl_gap(own[id(kl_source)].kl, [own[id(x)].kl for x in kl_targets])
        disc = max([0.0, *(abs(loss(union, u) - loss(source, s)) for u, s in kept),
                    *fixed_gaps])
        eps_proxy = eps_fixed
        if eps_proxy is None:
            eps_proxy = loss(source, source) + loss(union, union)
        lhs = float(np.mean([own[id(ts)].neg_elbo for ts in targets]))
        rhs_source = float(own[id(source)].neg_elbo)
        return BoundsRow(
            task_t=t + 1, epoch=epoch,
            source_risk=loss(source, source),
            target_risks=target_risks,
            target_risk_avg=float(np.mean(target_risks)),
            kl_gap=gap, disc_lower_bound=disc,
            lhs_target_neg_elbo=lhs, rhs_source_neg_elbo=rhs_source,
            eps_proxy=eps_proxy, slack=rhs_source + gap + disc + eps_proxy - lhs,
        )

    return [row(model, epoch) for model, epoch in zip(models, epochs)]


def bounds_run(stream: TaskStream, cfg: TrainConfig, rng: Rng, sample_size: int,
               aux_epochs: int) -> BoundsArtifacts:
    """Replay run instrumented per epoch with risk, KL-gap, discrepancy lower
    bound, and the slack of the target-vs-evolved-source inequality.

    The auxiliary model for task t is fitted once, for ``aux_epochs``, on
    the same evolved-source mixture the main model trains on; for the first
    task the auxiliary model *is* the current model (nothing has evolved
    yet). The reference models are fitted for ``aux_epochs`` too. Each
    epoch's row scores subsamples of at most ``sample_size`` rows, the same
    ones every epoch of a task.

    No fit reads another fit or the replay model, so the fits run beside the
    replay training, each started by ``runtime.start``: the references of
    tasks 2.. in one child at once, while this process fits the first one,
    which the first task's rows need; the aux model of each later task in a
    child started when its mixture is built. The model is copied after each
    epoch, and a task's rows are computed at its last epoch, in epoch order,
    once the fits they need are joined (``task_rows``); ``rows_s`` is the
    wall time that takes. The rows are the same for any number of CPUs.
    """
    out = BoundsArtifacts()
    eval_eps = rng.spawn("bounds:eval").normal((1, cfg.latent_dim))
    fits: dict = {}  # started fits: "refs" (tasks 2..) and t (the aux model of task t + 1)
    epoch_models: list = []  # the model after each epoch of the current task

    def task_hook(task_index: int, mixture: np.ndarray):
        if task_index > 0:
            fits[task_index] = runtime.start(
                lambda: _fit_aux(mixture, cfg, rng, task_index, aux_epochs))

    def epoch_hook(task_index: int, epoch: int, model, mixture: np.ndarray):
        t = task_index
        epoch_models.append(copy_model(model))
        if epoch + 1 < cfg.epochs:
            return
        if len(out.reference_models) <= t:
            out.reference_models.extend(fits["refs"].result())
        aux = fits[t].result() if t > 0 else None
        t0 = time.perf_counter()
        target_sets = [_subsample(task.test.data, sample_size, rng, f"bounds:tgt:{t}:{k}")
                       for k, task in enumerate(stream.tasks[:t + 1])]
        source = _subsample(mixture, sample_size, rng, f"bounds:src:{t}")
        out.rows.extend(task_rows(epoch_models, list(range(1, len(epoch_models) + 1)), source,
                                  target_sets, aux, out.reference_models, eval_eps, rng,
                                  sample_size))
        out.rows_s += time.perf_counter() - t0
        epoch_models.clear()

    try:
        if len(stream) > 1:
            fits["refs"] = runtime.start(lambda: [
                _fit_reference(stream, cfg, rng, i, aux_epochs) for i in range(1, len(stream))])
        out.reference_models.append(_fit_reference(stream, cfg, rng, 0, aux_epochs))
        out.gr_model, out.metrics_log, out.snapshots = run_gr_single(
            stream, cfg, rng, epoch_hook=epoch_hook, task_hook=task_hook)
    finally:
        for handle in fits.values():  # only left unjoined when the run failed
            handle.cancel()
    return out


def diagnose_snapshots(stream: TaskStream, cfg: TrainConfig, snapshots: list, refs: list,
                       rng: Rng, sample_size: int, aux_epochs: int) -> list[BoundsRow]:
    """One row per task, at task end, from the replay model's snapshot after
    each task; scores the whole mixture and test sets. ``refs`` are the
    reference models, loaded from the run or made by ``fit_references``; the
    auxiliary models are fitted again with the keys ``bounds_run`` uses.

    One ``fork_map`` splits the aux fits over the CPUs. A row reads nothing
    of another row, so once the fits are joined a second ``fork_map`` splits
    the rows."""
    # the rows of each training mixture, regenerated from the previous
    # snapshot; run_gr_single also shuffles them, which this does not
    mixtures = [replay_mixture(snapshots, task, t, rng) for t, task in enumerate(stream.tasks)]
    tests = [task.test.data for task in stream.tasks]
    aux_models = [None, *runtime.fork_map(
        lambda i: _fit_aux(mixtures[i + 1], cfg, rng, i + 1, aux_epochs),
        [mixture.shape[0] for mixture in mixtures[1:]])]
    eval_eps = rng.spawn("bounds:eval").normal((1, cfg.latent_dim))
    # a row's cost: passes over its union and its source, by the t + 2
    # fixed models and about twice by the snapshot
    return runtime.fork_map(
        lambda t: task_rows([snapshots[t]], [cfg.epochs], mixtures[t], tests[:t + 1],
                            aux_models[t], refs, eval_eps, rng, sample_size)[0],
        [(t + 4) * (mixtures[t].shape[0] + sum(x.shape[0] for x in tests[:t + 1]))
         for t in range(len(mixtures))])


def bound_check_report(rows: list[BoundsRow]) -> list[dict]:
    """Per-epoch view of the bound check: LHS, each RHS term, and the slack."""
    return [{"task_t": r.task_t, "epoch": r.epoch,
             "lhs_target_neg_elbo": r.lhs_target_neg_elbo,
             "rhs_source_neg_elbo": r.rhs_source_neg_elbo,
             "rhs_kl_gap": r.kl_gap, "rhs_ra_lower_bound": r.ra_lower_bound,
             "slack": r.slack} for r in rows]


def report_rows(rows: list[BoundsRow], n_tasks: int) -> list[dict]:
    """The bounds report: one line per row, one column per task's target
    risk, blank for tasks not yet seen."""
    records = []
    for r in rows:
        per_task = list(r.target_risks) + [""] * (n_tasks - len(r.target_risks))
        records.append({"epoch": r.epoch, "task_t": r.task_t, "source_risk": r.source_risk,
                        "target_risk_avg": r.target_risk_avg,
                        **{f"target_risk_task_{k + 1}": v for k, v in enumerate(per_task)},
                        "kl_gap": r.kl_gap, "disc_lower_bound": r.disc_lower_bound,
                        "slack": r.slack})
    return records


# -- curves and generation chains ----------------------------------------------------------

def forgetting_curves(degm_log, gr_log, input_dim: int) -> list[dict]:
    """Tidy per-epoch risk rows for the mixture model and the single model."""
    return [{"model": label, "task_index": r["task_index"], "epoch": r["epoch"],
             "eval_task": r["eval_task"], "risk": r["square_loss"] / input_dim}
            for label, log in (("mixture", degm_log), ("single", gr_log)) if log is not None
            for r in log.rows]


def accumulated_error_proxy(snapshots: list, stream: TaskStream, rng: Rng) -> list[dict]:
    """Per-task generation chains evaluated under the final model, the
    snapshot after the last task.

    Generation 0 of task i is its real training set. Generation k is the
    previous generation pushed through the snapshot taken after task i+k-1
    (reconstruct, then Bernoulli-resample for binary data): the lineage proxy
    for what the k-th replay round did to that task's data. The deltas across
    generations are the empirical counterpart of the per-generation
    discrepancy chain, and only a proxy for it.
    """
    if len(snapshots) != len(stream.tasks):
        raise ContractError("need one snapshot per task")
    rows = []
    for i, task in enumerate(stream.tasks):
        lineage = task.train.data
        rows.append({"task_index": i + 1, "generation": 0,
                     "risk_under_final": risk(snapshots[-1], lineage), "delta": 0.0})
        for k in range(1, len(stream.tasks) - i):
            snap = snapshots[i + k - 1]
            recon = snap.reconstruct(lineage)
            if snap.likelihood == "bernoulli":
                lineage = rng.spawn(f"accum:{i}:{k}").bernoulli(recon)
            else:
                lineage = recon
            prev = rows[-1]["risk_under_final"]
            value = risk(snapshots[-1], lineage)
            rows.append({"task_index": i + 1, "generation": k,
                         "risk_under_final": value, "delta": value - prev})
    return rows
