"""The expansion graph: basic nodes, specific nodes, edge weights, mixture bound.

A basic node is a complete component, frozen once its task ends. A specific
node owns only a fresh lower encoder and upper decoder; everything between
them is borrowed, frozen, from the basic nodes it connects to, blended by its
edge weights. Task-to-node assignment is recorded in the V matrix: the row of
a specific node is its edge-weight vector, the row of a basic node is zero.

Every node is trained and evaluated through one ``NodePass``
(``GraphModel.node_pass``): the ELBO or K'-draw bound of a basic node, the
mixture bound of a specific node.
"""

from __future__ import annotations

import numpy as np

from .errors import ContractError
from .nnkit import DenseLayer, Param, ParamVector, Rng
from .vae import BasicNode, NodePass, VaeComponent

SIMPLEX_TOL = 1e-9


def edge_weights(scores: np.ndarray) -> np.ndarray:
    """Adaptive weights: pi_i = (w* - ks_i) / sum_j (w* - ks_j), w* = sum_j ks_j.

    A node dissimilar to the new task (large ks) gets a small weight. The
    K=1 case is 0/0 by the formula and pins to [1]; all-zero scores mean all
    nodes fit equally and pin to uniform.
    """
    ks = np.asarray(scores, dtype=np.float64)
    if ks.ndim != 1 or ks.size == 0:
        raise ContractError("scores must be a nonempty vector")
    if (ks < 0.0).any():
        raise ContractError("knowledge scores must be nonnegative")
    k = ks.size
    if k == 1:
        return np.array([1.0])
    total = ks.sum()
    if total == 0.0:
        return np.full(k, 1.0 / k)
    return (total - ks) / ((k - 1) * total)


def expansion_decide(scores: np.ndarray, tau: float) -> str:
    """min(ks) > tau means nothing transfers: build a basic node. Otherwise a
    specific node, weighted by the run's edge policy. tau = 0 therefore forces
    per-task basic nodes whenever every score is strictly positive."""
    ks = np.asarray(scores, dtype=np.float64)
    if ks.size == 0:
        raise ContractError("expansion decision needs at least one score")
    if tau < 0.0:
        raise ContractError("tau must be nonnegative")
    return "basic" if ks.min() > tau else "specific"


def knowledge_similarity(node: BasicNode, probe: np.ndarray, rng: Rng) -> float:
    """|reference ELBO - mean probe ELBO| under one shared evaluation draw."""
    if node.reference_elbo is None:
        raise ContractError("basic node has no reference ELBO yet (untrained)")
    probe = np.asarray(probe, dtype=np.float64)
    if probe.ndim != 2 or probe.shape[0] == 0:
        raise ContractError("probe must be a nonempty [n, dim] array")
    eps = rng.normal((1, node.vae.latent_dim))
    mean = float(node.vae.node_pass(probe).bound([eps]).mean())
    return abs(node.reference_elbo - mean)


class SpecificNode:
    """New lower encoder and upper decoder around frozen basic sub-modules."""

    kind = "specific"

    def __init__(self, input_dim: int, hidden_dim: int, weights: np.ndarray, task_id: int,
                 likelihood: str = "bernoulli", rng: Rng | None = None, name: str = "s"):
        w = np.asarray(weights, dtype=np.float64)
        if (w < 0.0).any() or abs(w.sum() - 1.0) > SIMPLEX_TOL:
            raise ContractError(f"edge weights must form a simplex, got sum {w.sum()}")
        out_act = "sigmoid" if likelihood == "bernoulli" else "identity"
        self.enc_lower_new = DenseLayer(input_dim, hidden_dim, "leaky-relu", rng, f"{name}.enc_lower_new")
        self.dec_upper_new = DenseLayer(hidden_dim, input_dim, out_act, rng, f"{name}.dec_upper_new")
        self._params = ParamVector(self.enc_lower_new.params() + self.dec_upper_new.params())
        self.weights = w
        self.task_id = int(task_id)
        self.name = name

    def params(self) -> ParamVector:
        return self._params


class GraphModel:
    kind = "graph"  # its checkpoint kind

    def __init__(self, input_dim: int, latent_dim: int, hidden_dim: int = 200,
                 likelihood: str = "bernoulli", tau: float = 1.0):
        if tau < 0.0:
            raise ContractError("tau must be nonnegative")
        self.input_dim = int(input_dim)
        self.latent_dim = int(latent_dim)
        self.hidden_dim = int(hidden_dim)
        self.likelihood = likelihood
        self.tau = float(tau)
        self.entries: list[BasicNode | SpecificNode] = []  # every node, in creation order

    # -- description -------------------------------------------------------

    def spec(self) -> dict:
        """What rebuilds this graph's shape: its checkpoint manifest's fields,
        with each node's kind, task id, reference ELBO and edge weights."""
        nodes = [{"kind": e.kind, "task_id": e.task_id,
                  "reference_elbo": e.reference_elbo if e.kind == "basic" else None,
                  "weights": list(e.weights) if e.kind == "specific" else None}
                 for e in self.entries]
        return {"kind": self.kind, "input_dim": self.input_dim, "latent_dim": self.latent_dim,
                "hidden_dim": self.hidden_dim, "likelihood": self.likelihood, "tau": self.tau,
                "nodes": nodes}

    @classmethod
    def from_spec(cls, fields: dict) -> "GraphModel":
        """The graph ``fields``, a ``spec()``, describes; its parameters zero."""
        graph = cls(fields["input_dim"], fields["latent_dim"], fields["hidden_dim"],
                    fields["likelihood"], fields["tau"])
        for node in fields["nodes"]:
            if node["kind"] == "basic":
                idx = graph.add_basic_node(node["task_id"], rng=None)
                graph.entries[idx].reference_elbo = node["reference_elbo"]
            else:
                graph.add_specific_node(np.asarray(node["weights"]), node["task_id"], rng=None)
        return graph

    # -- structure ---------------------------------------------------------

    @property
    def node_count(self) -> int:
        return len(self.entries)

    @property
    def basics(self) -> tuple[BasicNode, ...]:
        """The basic nodes of ``entries``, in creation order."""
        return tuple(e for e in self.entries if e.kind == "basic")

    @property
    def specifics(self) -> tuple[SpecificNode, ...]:
        """The specific nodes of ``entries``, in creation order."""
        return tuple(e for e in self.entries if e.kind == "specific")

    def _check_task_free(self, task_id: int) -> None:
        if any(e.task_id == task_id for e in self.entries):
            raise ContractError(f"task id {task_id} already owned by a node")

    def add_basic_node(self, task_id: int, rng: Rng) -> int:
        self._check_task_free(task_id)
        vae = VaeComponent(self.input_dim, self.latent_dim, self.hidden_dim,
                           self.likelihood, rng, name=f"b{len(self.basics)}")
        self.entries.append(BasicNode(vae=vae, task_id=task_id))
        return len(self.entries) - 1

    def add_specific_node(self, weights: np.ndarray, task_id: int, rng: Rng) -> int:
        self._check_task_free(task_id)
        w = np.asarray(weights, dtype=np.float64)
        if w.size != len(self.basics):
            raise ContractError(f"{w.size} weights for {len(self.basics)} basic nodes")
        self.entries.append(SpecificNode(self.input_dim, self.hidden_dim, w, task_id,
                                         self.likelihood, rng, name=f"s{len(self.specifics)}"))
        return len(self.entries) - 1

    def v_matrix(self) -> np.ndarray:
        """Task-by-basic weight matrix in node creation order; basic rows are zero."""
        k = len(self.basics)
        rows = np.zeros((len(self.entries), k))
        for r, e in enumerate(self.entries):
            if e.kind == "specific":
                rows[r, :e.weights.size] = e.weights
        return rows

    def knowledge_scores(self, probe: np.ndarray, rng: Rng) -> np.ndarray:
        """One ks per basic node against the probe, shared evaluation draw."""
        return np.array([knowledge_similarity(b, probe, rng.spawn(f"ks:{i}"))
                         for i, b in enumerate(self.basics)])

    # -- the forward pass of a node ------------------------------------------------

    def node_pass(self, entry: BasicNode | SpecificNode, x, train: bool = False) -> NodePass:
        """The pass of one node over the rows ``x`` (with ``train``, one that
        gives gradients), its encoder run here: a basic node's own component,
        or a specific node's new lower encoder into the frozen heads of the
        basic nodes it blends."""
        if entry.kind == "basic":
            return entry.vae.node_pass(x, train)
        basics = [b.vae for b in self.basics[:entry.weights.size]]
        return NodePass(x, entry.enc_lower_new, [(v.enc_mu, v.enc_logvar) for v in basics],
                        entry.weights, [v.dec_lower for v in basics], entry.dec_upper_new,
                        self.likelihood, entry.params() if train else None)

    def params(self) -> list[Param]:
        """Every node's parameters: the basic nodes', then the specific ones'."""
        return [t for node in self.basics + self.specifics for t in node.params()]
