"""Empirical estimators for the generalization-bound quantities.

The true discrepancy distance takes a sup over all hypothesis pairs, which is
not computable; everything here evaluates a finite family of trained snapshots
(current model, an auxiliary model fitted to the evolved source, and per-task
reference models) and is therefore a *lower bound*. Output columns say so.

Losses follow the encode-decode-as-identity reading: the per-sample loss
between two hypotheses is the dimension-normalised squared distance of their
reconstructions, and the risk of a model is that loss against the input.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ContractError
from .lifelong import (TaskStream, TrainConfig, elbo_values, mean_square_loss, pass_grads,
                       run_gr_single, train_epoch)
from .nnkit import AdamState, Rng, runtime
from .persist import write_table
from .vae import HierVae, VaeComponent, copy_model


def _sq_loss(a: np.ndarray, b: np.ndarray) -> float:
    """Mean over rows of the squared distance, normalised by the row width."""
    return mean_square_loss(a, b) / a.shape[1]


def risk(model, data: np.ndarray) -> float:
    """Mean squared reconstruction error, normalised by the input dimension."""
    data = np.asarray(data, dtype=np.float64)
    if data.shape[0] == 0:
        raise ContractError("risk needs a nonempty dataset")
    return _sq_loss(data, model.reconstruct(data))


def replay_risk_differences(model, snapshots, aux_models, mixtures, gen_samples,
                            upto: int, fixed: dict | None = None) -> float:
    """Sum over past transitions of (loss vs the snapshot on its own
    generations) minus (loss vs the auxiliary model on the mixture it
    bridged); the empirical stand-in for the risk-difference chain.

    ``fixed`` maps a transition j to the reconstructions of ``snapshots[j]``
    on its generations and of ``aux_models[j]`` on its mixture rows. Those
    found there are not reconstructed again; the others are added, so a
    caller that keeps the dict reconstructs each fixed model once.
    """
    fixed = {} if fixed is None else fixed
    total = 0.0
    for j in range(1, upto):
        gen = gen_samples[j]
        mix = mixtures[j][:gen.shape[0]]
        if j not in fixed:
            fixed[j] = (snapshots[j].reconstruct(gen), aux_models[j].reconstruct(mix))
        snap_recon, aux_recon = fixed[j]
        total += (_sq_loss(model.reconstruct(gen), snap_recon)
                  - _sq_loss(model.reconstruct(mix), aux_recon))
    return total


def estimate_discrepancy(p_samples: np.ndarray, q_samples: np.ndarray, models: dict,
                         recons: dict | None = None) -> float:
    """max over pairs (h, h') of |E_P loss(h, h') - E_Q loss(h, h')|, where
    ``models`` maps a hypothesis name to its model.

    A lower bound on the true sup; 0 exactly when the two sample sets coincide
    and symmetric in (P, Q) by construction. Each unordered pair is scored
    once: loss(h, h') equals loss(h', h) bit for bit, as fl(a - b) = -fl(b - a),
    and loss(h, h) is identically zero on both sides.

    ``recons`` maps a hypothesis name to its (P, Q) reconstructions. Names
    found there are not reconstructed again; the others are added, so the
    caller can read or keep them.
    """
    if len(models) < 2:
        raise ContractError("discrepancy needs at least two hypotheses")
    p = np.asarray(p_samples, dtype=np.float64)
    q = np.asarray(q_samples, dtype=np.float64)
    if p.shape[0] == 0 or q.shape[0] == 0:
        raise ContractError("discrepancy needs nonempty sample sets")
    recons = {} if recons is None else recons
    for name, model in models.items():
        if name not in recons:
            recons[name] = (model.reconstruct(p), model.reconstruct(q))
    names = list(models)
    best = 0.0
    for i, a in enumerate(names):
        for b in names[i + 1:]:
            mean_p = _sq_loss(recons[a][0], recons[b][0])
            mean_q = _sq_loss(recons[a][1], recons[b][1])
            best = max(best, abs(mean_p - mean_q))
    return best


def encoder_kl_values(model, data: np.ndarray) -> np.ndarray:
    """Closed-form posterior-to-prior KL per sample (no sampling involved)."""
    base = model.base if isinstance(model, HierVae) else model
    return base.node_pass(data).kl()


def _subsample(x: np.ndarray, size: int, rng: Rng, key: str) -> np.ndarray:
    """``x`` when it has at most ``size`` rows, else ``size`` of its rows drawn
    by the stream ``rng.spawn(key)``."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape[0] <= size:
        return x
    return x[rng.spawn(key).choice_without_replacement(x.shape[0], size)]


def estimate_kl_gap(model, target_sets: list[np.ndarray], source: np.ndarray,
                    sample_size: int = 10_000, rng: Rng | None = None) -> float:
    """|mean encoder-KL over the evolved source - task-average over targets|."""
    source = np.asarray(source, dtype=np.float64)
    if source.shape[0] == 0 or not target_sets or any(np.shape(t)[0] == 0 for t in target_sets):
        raise ContractError("kl gap needs nonempty source and target sets")
    rng = rng or Rng(0)
    source_mean = float(encoder_kl_values(
        model, _subsample(source, sample_size, rng, "klgap:source")).mean())
    target_means = [float(encoder_kl_values(
        model, _subsample(t, sample_size, rng, f"klgap:target:{i}")).mean())
        for i, t in enumerate(target_sets)]
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
    err_a_proxy: float = 0.0  # accumulated bridging terms across replay rounds
    err_d_proxy: float = 0.0  # generator-vs-mixture risk differences (can dip negative)

    @property
    def ra_lower_bound(self) -> float:
        """disc + eps: this transition's term of the accumulated-error chain."""
        return self.disc_lower_bound + self.eps_proxy


@dataclass
class BoundsArtifacts:
    rows: list[BoundsRow] = field(default_factory=list)
    reference_models: list = field(default_factory=list)
    gr_model: object = None
    gr_artifacts: object = None
    metrics_log: object = None


def _train_plain(data: np.ndarray, cfg: TrainConfig, rng: Rng, epochs: int,
                 name: str) -> VaeComponent:
    model = VaeComponent(data.shape[1], cfg.latent_dim, cfg.hidden_dim,
                         cfg.likelihood, cfg.sigma, rng.spawn("init"), name=name)
    state = AdamState(lr=cfg.lr)
    train_rng = rng.spawn("train")
    grads_of = pass_grads(lambda x: model.node_pass(x, train=True), 1)
    for _ in range(epochs):
        train_epoch(state, model.params(), data, cfg.batch, grads_of, train_rng)
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
                   aux_epochs: int | None = None) -> list[VaeComponent]:
    """The reference model of each task, fitted on that task's training set
    alone; ``fork_map`` splits the fits over the CPUs, each on one OpenBLAS
    thread, also when there is one CPU."""
    epochs = aux_epochs or cfg.epochs
    with runtime.one_blas_thread():
        return runtime.fork_map(lambda i: _fit_reference(stream, cfg, rng, i, epochs),
                                [task.train.n for task in stream.tasks])


class BoundsChain:
    """The chain of per-transition terms, from one task's rows to the next.

    It holds the reference models, the fixed noise of every ELBO term of the
    bound check, the aux model of each transition, the generations of each
    snapshot, and the final ra term of each transition. While a task lasts,
    it keeps the reconstructions of every model that stays fixed: the aux
    model and the refs. For the whole chain it keeps the reconstructions
    the err_d chain compares against, of each earlier snapshot on its
    generations and each earlier aux model on its mixture.
    """

    def __init__(self, refs: list, cfg: TrainConfig, rng: Rng, sample_size: int):
        self.refs = refs
        self.rng = rng
        self.sample_size = sample_size
        self.eval_eps = rng.spawn("bounds:eval").normal((1, cfg.latent_dim))
        self.aux_models: dict[int, VaeComponent] = {}
        self.gen_samples: dict[int, np.ndarray] = {}
        self.ra: dict[int, float] = {}  # the final epoch's term wins
        self.kept: dict = {}
        self.err_d_fixed: dict[int, tuple[np.ndarray, np.ndarray]] = {}

    def start(self, t: int, aux: VaeComponent | None, snapshots: list) -> None:
        """Begin task t + 1 with ``aux``, the aux model fitted on its mixture
        (None at the first task), and draw, once per snapshot, the
        generations the err_d chain scores it on."""
        if aux is not None:
            self.aux_models[t] = aux
        for k in range(len(snapshots)):
            if k not in self.gen_samples:
                self.gen_samples[k] = snapshots[k].generate(min(self.sample_size, 512),
                                                            self.rng.spawn(f"bounds:gen:{k}"))
        self.kept = {}

    def row(self, model, source: np.ndarray, target_sets: list[np.ndarray], snapshots: list,
            mixtures: list, epoch: int) -> BoundsRow:
        """One diagnostics row for ``model`` while it learns task t + 1, where
        ``target_sets`` holds the test sets of tasks 1..t+1. The sets are scored
        as given, and must stay the same until the next ``start``.
        ``snapshots`` and ``mixtures`` hold the transitions the err_d chain
        sums over."""
        t = len(target_sets) - 1
        union = np.concatenate(target_sets)
        aux = self.aux_models.get(t, model)
        models = {"current": model}
        if aux is not model:
            # at the first task the aux model is the current model: its pairs would
            # repeat current's, and (current, aux) scores exactly 0
            models["aux"] = aux
        for k in range(t + 1):
            models[f"ref{k}"] = self.refs[k]
        disc = estimate_discrepancy(union, source, models, self.kept)
        current_union, current_source = self.kept.pop("current")  # it changes every epoch
        aux_union, aux_source = self.kept.get("aux", (current_union, current_source))
        target_risks = [risk(model, ts) for ts in target_sets]
        gap = estimate_kl_gap(model, target_sets, source, self.sample_size,
                              self.rng.spawn(f"bounds:kl:{t}"))
        eps_proxy = _sq_loss(source, aux_source) + _sq_loss(union, aux_union)
        lhs = float(np.mean([-elbo_values(model, ts, self.eval_eps).mean() for ts in target_sets]))
        rhs_source = float(-elbo_values(model, source, self.eval_eps).mean())
        row = BoundsRow(
            task_t=t + 1, epoch=epoch,
            source_risk=_sq_loss(source, current_source),
            target_risks=target_risks,
            target_risk_avg=float(np.mean(target_risks)),
            kl_gap=gap, disc_lower_bound=disc,
            lhs_target_neg_elbo=lhs, rhs_source_neg_elbo=rhs_source,
            eps_proxy=eps_proxy, slack=rhs_source + gap + disc + eps_proxy - lhs,
            err_d_proxy=replay_risk_differences(model, snapshots, self.aux_models, mixtures,
                                                self.gen_samples, t, self.err_d_fixed),
        )
        row.err_a_proxy = sum(self.ra[j] for j in range(t)) + row.ra_lower_bound
        self.ra[t] = row.ra_lower_bound
        return row


def bounds_run(stream: TaskStream, cfg: TrainConfig, rng: Rng,
               sample_size: int = 10_000, aux_epochs: int | None = None,
               run_id: str = "bounds") -> BoundsArtifacts:
    """Replay run instrumented per epoch with risk, KL-gap, discrepancy lower
    bound, and the slack of the target-vs-evolved-source inequality.

    The auxiliary model for task t is fitted once, on the same evolved-source
    mixture the main model trains on; for the first task the auxiliary model
    *is* the current model (nothing has evolved yet). Each epoch's row scores
    subsamples of at most ``sample_size`` rows, the same ones every epoch of
    a task.

    No fit reads another fit or the replay model, so the fits run beside the
    replay training, each started by ``runtime.start``: the references of
    tasks 2.. in one child at once, while this process fits the first one,
    which the first task's rows need; the aux model of each later task in a
    child started when its mixture is built. The model is copied after each
    epoch, and a task's rows are computed at its last epoch, in epoch order,
    once the fits they need are joined. Every process runs OpenBLAS on one
    thread meanwhile, so the rows are the same for any number of CPUs.
    """
    epochs = aux_epochs or cfg.epochs
    out = BoundsArtifacts()
    chain = BoundsChain(out.reference_models, cfg, rng, sample_size)
    fits: dict = {}  # started fits: "refs" (tasks 2..) and t (the aux model of task t + 1)
    epoch_models: list = []  # the model after each epoch of the current task

    def task_hook(task_index: int, mixture: np.ndarray):
        if task_index > 0:
            fits[task_index] = runtime.start(
                lambda: _fit_aux(mixture, cfg, rng, task_index, epochs))

    def epoch_hook(task_index: int, epoch: int, model, mixture: np.ndarray, artifacts):
        t = task_index
        epoch_models.append(copy_model(model))
        if epoch + 1 < cfg.epochs:
            return
        if len(chain.refs) <= t:
            chain.refs.extend(fits["refs"].result())
        chain.start(t, fits[t].result() if t > 0 else None, artifacts.snapshots)
        target_sets = [_subsample(task.test.data, sample_size, rng, f"bounds:tgt:{t}:{k}")
                       for k, task in enumerate(stream.tasks[:t + 1])]
        source = _subsample(mixture, sample_size, rng, f"bounds:src:{t}")
        for e, m in enumerate(epoch_models):
            out.rows.append(chain.row(m, source, target_sets, artifacts.snapshots,
                                      artifacts.mixtures, e + 1))
        epoch_models.clear()

    with runtime.one_blas_thread():
        try:
            if len(stream) > 1:
                fits["refs"] = runtime.start(lambda: [_fit_reference(stream, cfg, rng, i, epochs)
                                                      for i in range(1, len(stream))])
            out.reference_models.append(_fit_reference(stream, cfg, rng, 0, epochs))
            model, log, artifacts = run_gr_single(stream, cfg, rng, run_id=run_id,
                                                  epoch_hook=epoch_hook, task_hook=task_hook)
        finally:
            for handle in fits.values():  # only left unjoined when the run failed
                handle.cancel()
    out.gr_model, out.gr_artifacts, out.metrics_log = model, artifacts, log
    return out


def diagnose_snapshots(stream: TaskStream, cfg: TrainConfig, snapshots: list, refs: list,
                       rng: Rng, sample_size: int = 10_000,
                       aux_epochs: int | None = None) -> list[BoundsRow]:
    """One row per task, at task end, from the replay model's snapshot after
    each task; scores the whole mixture and test sets. ``refs`` are the
    reference models, loaded from the run or made by ``fit_references``; the
    auxiliary models are fitted again with the keys ``bounds_run`` uses,
    split over the CPUs by ``fork_map``, on one OpenBLAS thread as there."""
    epochs = aux_epochs or cfg.epochs
    mixtures = []
    rows: list[BoundsRow] = []
    with runtime.one_blas_thread():
        for t, task in enumerate(stream.tasks):
            if t == 0:
                mixtures.append(task.train.data)
            else:
                # the rows of the training mixture, regenerated from the previous
                # snapshot; run_gr_single also shuffles them, which this does not
                replay = snapshots[t - 1].generate(t * task.train.n,
                                                   rng.spawn(f"gr:replay:{t}"))
                mixtures.append(np.concatenate([task.train.data, replay]))
        aux_models = [None, *runtime.fork_map(
            lambda i: _fit_aux(mixtures[i + 1], cfg, rng, i + 1, epochs),
            [mixture.shape[0] for mixture in mixtures[1:]])]
        chain = BoundsChain(refs, cfg, rng, sample_size)
        for t, task in enumerate(stream.tasks):
            chain.start(t, aux_models[t], snapshots[:t])
            rows.append(chain.row(snapshots[t], mixtures[t],
                                  [seen.test.data for seen in stream.tasks[:t + 1]], snapshots,
                                  mixtures, cfg.epochs))
    return rows


def bound_check_report(artifacts: BoundsArtifacts) -> list[dict]:
    """Per-epoch view of the bound check: LHS, each RHS term, and the slack."""
    return [{"task_t": r.task_t, "epoch": r.epoch,
             "lhs_target_neg_elbo": r.lhs_target_neg_elbo,
             "rhs_source_neg_elbo": r.rhs_source_neg_elbo,
             "rhs_kl_gap": r.kl_gap, "rhs_ra_lower_bound": r.ra_lower_bound,
             "slack": r.slack} for r in artifacts.rows]


def write_bounds_csv(rows: list[BoundsRow], path: str, n_tasks: int,
                     config_hash: str | None = None) -> None:
    """bounds_report.csv: one line per row, one column per task's target
    risk, blank for tasks not yet seen."""
    records = []
    for r in rows:
        per_task = list(r.target_risks) + [""] * (n_tasks - len(r.target_risks))
        records.append({"epoch": r.epoch, "task_t": r.task_t, "source_risk": r.source_risk,
                        "target_risk_avg": r.target_risk_avg,
                        **{f"target_risk_task_{k + 1}": v for k, v in enumerate(per_task)},
                        "kl_gap": r.kl_gap, "disc_lower_bound": r.disc_lower_bound,
                        "slack": r.slack})
    write_table(path, records, config_hash)


# -- curves and generation chains ----------------------------------------------------------

def forgetting_curves(degm_log, gr_log, input_dim: int) -> list[dict]:
    """Tidy per-epoch risk rows for the mixture model and the single model."""
    return [{"model": label, "task_index": r["task_index"], "epoch": r["epoch"],
             "eval_task": r["eval_task"], "risk": r["square_loss"] / input_dim}
            for label, log in (("mixture", degm_log), ("single", gr_log)) if log is not None
            for r in log.rows]


def accumulated_error_proxy(snapshots: list, stream: TaskStream, final_model,
                            rng: Rng) -> list[dict]:
    """Per-task generation chains evaluated under the final model.

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
    with runtime.one_blas_thread():  # the same bits for any number of CPUs
        for i, task in enumerate(stream.tasks):
            lineage = task.train.data
            rows.append({"task_index": i + 1, "generation": 0,
                         "risk_under_final": risk(final_model, lineage), "delta": 0.0})
            for k in range(1, len(stream.tasks) - i):
                snap = snapshots[i + k - 1]
                recon = snap.reconstruct(lineage)
                if getattr(snap, "likelihood", "bernoulli") == "bernoulli":
                    lineage = rng.spawn(f"accum:{i}:{k}").bernoulli(recon)
                else:
                    lineage = recon
                prev = rows[-1]["risk_under_final"]
                value = risk(final_model, lineage)
                rows.append({"task_index": i + 1, "generation": k,
                             "risk_under_final": value, "delta": value - prev})
    return rows
