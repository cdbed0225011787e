"""Task-sequence training loops.

Two families live here: the expanding-graph run (one new node per task, old
nodes frozen) and the single-model generative-replay baselines (one parameter
set retrained on its own generations plus the new task).

Randomness is keyed by (seed, task name), never by stream position, so the
same task trains identically wherever it appears in the order. Evaluation
draws inside the metrics loop are fixed per task. A frozen node's parameters
never change, so its logged row is computed once, at the last epoch of its
task, and repeated unchanged in every later epoch; only the node in training
is evaluated. The replay model changes every epoch, so its rows for all
tasks so far are recomputed each epoch.

No expansion decision reads a specific node, and a basic node reads no
other node, so the graph run trains its nodes out of stream order and on
every CPU: each node returns its per-epoch rows, and the metrics log is
assembled from them at the end, in stream order.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import partial
from typing import Callable

import numpy as np

from .data import Task, TaskStream
from .errors import ConfigError
from .graph import GraphModel, SpecificNode, edge_weights, expansion_decide
from .nnkit import AdamState, Rng, adam_step, runtime
from .vae import BasicNode, HierVae, VaeComponent, copy_model


@dataclass
class TrainConfig:
    """Training hyper-parameters. The defaults are those of a config's train
    section; ``degm.config`` checks the values a config gives."""

    epochs: int = 500
    batch: int = 64
    lr: float = 1e-4
    objective: str = "elbo"  # elbo | iwelbo
    kprime: int = 1
    tau: float = 40.0
    probe_size: int = 1000
    seed: int = 0
    specific_epochs: int | None = None
    latent_dim: int = 100
    hidden_dim: int = 200
    likelihood: str = "bernoulli"
    hier_latent_dims: tuple[int, int] = (100, 50)
    hier_two_layers: bool = True

    @property
    def train_draws(self) -> int:
        """Draws per training bound: K' under the iwelbo objective, else one."""
        return self.kprime if self.objective == "iwelbo" else 1


@dataclass
class MetricsLog:
    rows: list[dict] = field(default_factory=list)
    expansion: list[dict] = field(default_factory=list)  # graph runs: one row per decision

    def add(self, **row) -> None:
        self.rows.append(row)

    def query(self, **match) -> list[dict]:
        return [r for r in self.rows if all(r[k] == v for k, v in match.items())]


def _minibatches(n: int, batch: int, rng: Rng):
    perm = rng.permutation(n)
    for start in range(0, n, batch):
        yield perm[start:start + batch]


def train_epoch(state: AdamState, make_pass: Callable, draws: int, data: np.ndarray,
                batch: int, train_rng: Rng,
                on_step: Callable[[np.ndarray], None] | None = None) -> None:
    """One epoch of Adam steps: the rows of ``data`` in minibatches of
    ``batch``, shuffled from ``train_rng``. Each step makes the training pass
    ``make_pass(x, train=True)``, takes ``draws`` draws of its noise from
    ``train_rng``, steps the pass's ``params`` by the gradient of its mean
    bound, and then calls ``on_step(x)``."""
    for idx in _minibatches(data.shape[0], batch, train_rng):
        x = data[idx]
        node_pass = make_pass(x, train=True)
        adam_step(state, node_pass.params,
                  node_pass.bound_and_grads(node_pass.draws(train_rng, draws))[1])
        if on_step is not None:
            on_step(x)


def _eval_eps(rng: Rng, task: Task, latent_dim: int) -> np.ndarray:
    # one fixed broadcast draw per task: frozen nodes then log constant values
    return rng.spawn(f"eval:{task.name}").normal((1, latent_dim))


def mean_square_loss(x: np.ndarray, recon: np.ndarray) -> float:
    """Mean over samples of the per-sample summed squared error."""
    return float(((x - recon) ** 2).sum(axis=1).mean())


# -- expanding graph -------------------------------------------------------------

EdgePolicy = Callable[[np.ndarray, GraphModel], np.ndarray]


def adaptive_edge_policy(scores: np.ndarray, graph: GraphModel) -> np.ndarray:
    return edge_weights(scores)


def ablation_edge_policy(name: str) -> EdgePolicy | None:
    """Alternative weight rules; the expand-or-reuse decision is untouched."""
    if name == "degm-4":
        def policy(scores: np.ndarray, graph: GraphModel) -> np.ndarray:
            # every learned node feeds the new one equally: a basic node its
            # own 1, a specific node its weights over the basics it blends
            acc = np.ones(len(graph.basics))
            for s in graph.specifics:
                acc[:s.weights.size] += s.weights
            return acc / len(graph.entries)
        return policy
    if name == "degm-5":
        def policy(scores: np.ndarray, graph: GraphModel) -> np.ndarray:
            mask = (scores < graph.tau).astype(np.float64)
            if mask.sum() == 0.0:  # only possible at exact ks == tau
                mask[int(np.argmin(scores))] = 1.0
            return mask / mask.sum()
        return policy
    if name == "degm-6":
        def policy(scores: np.ndarray, graph: GraphModel) -> np.ndarray:
            return np.full(scores.size, 1.0 / scores.size)
        return policy
    if name == "degm-7":
        def policy(scores: np.ndarray, graph: GraphModel) -> np.ndarray:
            one_hot = np.zeros(scores.size)
            one_hot[int(np.argmin(scores))] = 1.0
            return one_hot
        return policy
    if name == "degm-1":
        return None  # shortened specific training, not a weight rule
    raise ConfigError(f"unknown ablation {name!r}")


def run_ablation(stream: TaskStream, cfg: TrainConfig, name: str,
                 rng: Rng) -> tuple[list[dict], dict, dict]:
    """Baseline run plus the named variant; side-by-side square-loss table."""
    base_graph, base_log = run_degm(stream, cfg, rng, run_id="degm")
    if name == "degm-1":
        variant_graph, variant_log = run_degm(stream, replace(cfg, specific_epochs=5), rng,
                                              run_id=name)
    else:
        variant_graph, variant_log = run_degm(stream, cfg, rng, run_id=name,
                                              edge_policy=ablation_edge_policy(name))
    table = []
    last = len(stream)
    for t in range(1, last + 1):
        base_sl = base_log.query(task_index=last, eval_task=t)[-1]["square_loss"]
        var_sl = variant_log.query(task_index=last, eval_task=t)[-1]["square_loss"]
        table.append({"task": stream.tasks[t - 1].name, "sl_degm": base_sl,
                      f"sl_{name}": var_sl})
    graphs = {"degm": base_graph, name: variant_graph}
    logs = {"degm": base_log, name: variant_log}
    return table, graphs, logs


def run_degm(stream: TaskStream, cfg: TrainConfig, rng: Rng, run_id: str = "degm",
             edge_policy: EdgePolicy | None = None) -> tuple[GraphModel, MetricsLog]:
    """One new node per task; probe the next task, score the basic nodes, and
    expand with either a fresh basic node or a weighted specific node.

    This process walks the decision chain: basic nodes, knowledge scores and
    decisions. While it trains a basic node, a child started by
    ``runtime.start`` trains the next task as a basic node too, which is
    installed if the decision is basic and cancelled if not. Specific nodes
    are queued, and ``runtime.fork_map`` trains them after the chain. The
    graph and the log are the same for any number of CPUs; with one, nothing
    is forked and no candidate node is trained.
    """
    graph = GraphModel(stream.input_dim, cfg.latent_dim, cfg.hidden_dim, cfg.likelihood, cfg.tau)
    policy = edge_policy or adaptive_edge_policy
    eval_eps = [_eval_eps(rng, t, cfg.latent_dim) for t in stream.tasks]
    expansion: list[dict] = []
    live: list[list[tuple[float, float]]] = [[] for _ in stream.tasks]  # per node and epoch
    queued: list[int] = []  # specific nodes; node i learns task i
    candidate = None  # the next task trained as a basic node in a child

    def train(i: int):
        return _train_node(graph, graph.entries[i], stream.tasks[i], cfg, rng, eval_eps[i])

    pending: tuple[str, np.ndarray | None] = ("basic", None)
    try:
        for i, task in enumerate(stream.tasks):
            init_rng = rng.spawn(f"init:{task.name}")
            if pending[0] == "specific":
                graph.add_specific_node(pending[1], task_id=i, rng=init_rng)
                queued.append(i)
            else:
                graph.add_basic_node(task_id=i, rng=init_rng)
                if candidate is not None:
                    trained, candidate = candidate.result(), None
                else:
                    if i + 1 < len(stream) and runtime.share_count(2) > 1:
                        candidate = runtime.start(lambda k=i + 1: _basic_candidate(
                            graph, stream.tasks[k], k, cfg, rng, eval_eps[k]))
                    trained = train(i)
                live[i] = _install(graph.entries[i], trained)

            if i + 1 < len(stream):
                nxt = stream.tasks[i + 1]
                probe = _draw_probe(nxt, cfg.probe_size, rng.spawn(f"probe:{nxt.name}"))
                scores = graph.knowledge_scores(probe, rng.spawn(f"ks:{nxt.name}"))
                kind, _ = expansion_decide(scores, cfg.tau)
                pending = (kind, policy(scores, graph) if kind == "specific" else None)
                expansion.append(_expansion_row(graph, stream, nxt, probe, scores, cfg.tau,
                                                *pending))
                if kind == "specific" and candidate is not None:
                    candidate.cancel()
                    candidate = None
    finally:
        if candidate is not None:  # only left outstanding when the run failed
            candidate.cancel()
    costs = [_node_epochs(graph.entries[i], cfg) * stream.tasks[i].train.n for i in queued]
    pooled = runtime.fork_map(lambda q: train(queued[q]), costs)
    for i, trained in zip(queued, pooled):
        live[i] = _install(graph.entries[i], trained)
    return graph, _metrics_log(live, expansion, run_id)


def _basic_candidate(graph: GraphModel, task: Task, task_id: int, cfg: TrainConfig, rng: Rng,
                     eps: np.ndarray) -> tuple:
    """``task`` trained as the next basic node of ``graph``, with the keys,
    name and noise it gets in the command's process. Runs in a forked child,
    whose copy of the graph it changes."""
    graph.add_basic_node(task_id=task_id, rng=rng.spawn(f"init:{task.name}"))
    return _train_node(graph, graph.entries[-1], task, cfg, rng, eps)


def _install(entry: BasicNode | SpecificNode, trained: tuple) -> list[tuple[float, float]]:
    """Copy what ``_train_node`` returned into the node's parameter vector,
    in place; return the node's rows."""
    rows, flat, reference_elbo = trained
    entry.params().flat[...] = flat
    if entry.kind == "basic":
        entry.reference_elbo = reference_elbo
    return rows


def _metrics_log(live: list[list[tuple[float, float]]], expansion: list[dict],
                 run_id: str) -> MetricsLog:
    """Each epoch of task i logs one row per task so far: the end-of-task
    rows of the frozen nodes before it, then its own node's row."""
    log = MetricsLog(expansion=expansion)
    finals = [rows[-1] for rows in live]
    for i, rows in enumerate(live):
        for epoch, row in enumerate(rows):
            for t, (objective_value, square_loss) in enumerate([*finals[:i], row]):
                log.add(run_id=run_id, task_index=i + 1, epoch=epoch + 1, eval_task=t + 1,
                        objective_value=objective_value, square_loss=square_loss)
    return log


def _expansion_row(graph: GraphModel, stream: TaskStream, task: Task, probe: np.ndarray,
                   scores: np.ndarray, tau: float, kind: str,
                   weights: np.ndarray | None) -> dict:
    """Why ``task`` gets the node it gets: its knowledge score against each
    basic node (named by the task that node learned), their minimum against
    tau, and the edge weights of a specific node. Lists are joined by "|",
    each float at full precision."""
    def joined(values) -> str:
        return "|".join(repr(float(v)) for v in values)

    return {"task": task.name, "probe_size": int(probe.shape[0]),
            "basic_nodes": "|".join(stream.tasks[b.task_id].name for b in graph.basics),
            "knowledge_scores": joined(scores), "min_ks": float(scores.min()), "tau": tau,
            "decision": kind, "edge_weights": "" if weights is None else joined(weights)}


def _draw_probe(task: Task, probe_size: int, rng: Rng) -> np.ndarray:
    idx = rng.choice_without_replacement(task.train.n, probe_size)
    return task.train.data[idx]


def _node_epochs(entry: BasicNode | SpecificNode, cfg: TrainConfig) -> int:
    if entry.kind == "specific" and cfg.specific_epochs is not None:
        return cfg.specific_epochs
    return cfg.epochs


def _train_node(graph: GraphModel, entry: BasicNode | SpecificNode, task: Task,
                cfg: TrainConfig, rng: Rng, eps: np.ndarray) -> tuple:
    """Train one node on its task. Returns what ``_install`` puts back: its
    (objective, square loss) row on the test set after each epoch, its
    parameter vector, and its reference ELBO (None for a specific node)."""
    state = AdamState(lr=cfg.lr)
    params = entry.params()
    train_rng = rng.spawn(f"train:{task.name}")
    ref_rng = rng.spawn(f"ref:{task.name}")
    epochs = _node_epochs(entry, cfg)
    ref_sum, ref_count = 0.0, 0

    def add_reference(x: np.ndarray) -> None:  # a basic node's ELBO after its last steps
        nonlocal ref_sum, ref_count
        batch_elbo = entry.vae.node_pass(x).bound(
            [ref_rng.normal((x.shape[0], entry.vae.latent_dim))])
        ref_sum += float(batch_elbo.sum())
        ref_count += batch_elbo.size

    rows = []
    for epoch in range(epochs):
        final = epoch == epochs - 1 and entry.kind == "basic"
        train_epoch(state, partial(graph.node_pass, entry), cfg.train_draws, task.train.data,
                    cfg.batch, train_rng, add_reference if final else None)
        rows.append(_live_row(graph.node_pass(entry, task.test.data), eps))
    reference_elbo = ref_sum / ref_count if entry.kind == "basic" else None
    return rows, params.flat, reference_elbo


# -- generative replay ----------------------------------------------------------------

def replay_mixture(snapshots: list, task: Task, i: int, rng: Rng) -> np.ndarray:
    """The rows task i (from 0) of a replay run trains on, unshuffled: the
    task's training rows, then i x |train_i| generations of ``snapshots[i-1]``,
    the model after the previous task; the first task's rows alone."""
    if i == 0:
        return task.train.data
    replay = snapshots[i - 1].generate(i * task.train.n, rng.spawn(f"gr:replay:{i}"))
    return np.concatenate([task.train.data, replay])


def run_gr_single(stream: TaskStream, cfg: TrainConfig, rng: Rng, run_id: str = "gr",
                  model=None, epoch_hook=None, task_hook=None) -> tuple:
    """Single model (by default a ``VaeComponent``), trained and scored
    through its own pass; from the second task on it trains on its own
    generations mixed uniformly with the new task's data (replay count
    (i-1) x |train_i|).

    Returns the model, its log and its snapshots, a copy of the model after
    each task. ``task_hook(task_index, mixture)`` is called once per task,
    when its mixture is built and before its first epoch;
    ``epoch_hook(task_index, epoch, model, mixture)`` after every epoch."""
    if model is None:
        model = VaeComponent(stream.input_dim, cfg.latent_dim, cfg.hidden_dim,
                             cfg.likelihood, rng.spawn("gr:init"), name="gr")

    log = MetricsLog()
    snapshots: list = []
    state = AdamState(lr=cfg.lr)
    eval_eps = [_eval_eps(rng, t, cfg.latent_dim) for t in stream.tasks]

    for i, task in enumerate(stream.tasks):
        mixture = replay_mixture(snapshots, task, i, rng)
        if i > 0:
            mixture = mixture[rng.spawn(f"gr:mix:{i}").permutation(mixture.shape[0])]
        if task_hook is not None:
            task_hook(task_index=i, mixture=mixture)

        train_rng = rng.spawn(f"gr:train:{task.name}:{i}")
        for epoch in range(cfg.epochs):
            train_epoch(state, model.node_pass, cfg.train_draws, mixture, cfg.batch, train_rng)
            _log_gr_epoch(model, stream, i, epoch, log, run_id, eval_eps)
            if epoch_hook is not None:
                epoch_hook(task_index=i, epoch=epoch, model=model, mixture=mixture)
        snapshots.append(copy_model(model))
    return model, log, snapshots


def _live_row(node_pass, eps: np.ndarray) -> tuple[float, float]:
    """(objective, square loss) of ``node_pass``, a model's pass over test
    rows: its mean bound at the draw ``eps`` and the loss of its
    reconstruction."""
    return (float(node_pass.bound([eps]).mean()),
            mean_square_loss(node_pass.x, node_pass.reconstruction()))


def _log_gr_epoch(model, stream, task_i, epoch, log, run_id, eval_eps):
    for t in range(task_i + 1):
        row = _live_row(model.node_pass(stream.tasks[t].test.data), eval_eps[t])
        log.add(run_id=run_id, task_index=task_i + 1, epoch=epoch + 1, eval_task=t + 1,
                objective_value=row[0], square_loss=row[1])


def run_gr_hier(stream: TaskStream, cfg: TrainConfig, rng: Rng, run_id: str = "gr-hier") -> tuple:
    """Replay baseline with the two-stochastic-layer model, trained through
    its own pass by ``run_gr_single``; with ``hier_two_layers`` false, the
    plain component, as mode gr trains it."""
    model = None
    if cfg.hier_two_layers:
        model = HierVae(stream.input_dim, (cfg.latent_dim, cfg.hier_latent_dims[1]),
                        cfg.hidden_dim, cfg.likelihood, rng.spawn("gr:init"), name="gr")
    return run_gr_single(stream, cfg, rng, run_id=run_id, model=model)


# -- order study ------------------------------------------------------------------------

def order_experiment(orders: list[TaskStream], cfg: TrainConfig, rng: Rng) -> list[dict]:
    """Run the graph model and the replay baseline on each ordering (each a
    permutation of one task set); report the accumulated (summed) final
    per-task test risk for both."""
    report = []
    for k, stream in enumerate(orders):
        _, degm_log = run_degm(stream, cfg, rng, run_id=f"degm-order{k}")
        _, gr_log, _ = run_gr_single(stream, cfg, rng, run_id=f"gr-order{k}")
        report.append({
            "order_index": k,
            "order": ",".join(t.name for t in stream.tasks),
            "degm_accumulated_risk": accumulated_final_risk(degm_log, stream),
            "gr_accumulated_risk": accumulated_final_risk(gr_log, stream),
        })
    return report


def accumulated_final_risk(log: MetricsLog, stream: TaskStream) -> float:
    """Sum over tasks of the dimension-normalised final-epoch test risk."""
    total = 0.0
    last_task = len(stream)
    d = stream.input_dim
    for t in range(1, last_task + 1):
        rows = log.query(task_index=last_task, eval_task=t)
        total += rows[-1]["square_loss"] / d
    return total
