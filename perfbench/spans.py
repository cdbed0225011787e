"""In-memory span tracing of the degm package, installed from outside it.

Tracing wraps public functions and methods of each degm module. A function
that other modules import by name (``adam_step`` into ``lifelong`` and
``bounds``, ``affine_forward`` into the nnkit package, ...) is replaced at
every module global that holds it, so each place the name is looked up sees
the wrapper. Methods are replaced on their class. ``uninstall`` puts every
original object back and ``assert_clean`` proves it, so untraced runs time
the unmodified program.

A span records its name, start, end, parent span and run id, plus a few
exact counts (rows, calls, computed flops). Spans stay in memory and are
written out once, when the benchmark run ends.
"""

from __future__ import annotations

import csv
import functools
import os
import sys
from time import perf_counter

# Every wrapper carries this attribute, so a leftover one can be found by a scan.
MARK = "_perfbench_span"

AFFINE_ROLES = ("enc_lower", "enc_mu", "enc_logvar", "dec_lower", "dec_upper",
                "enc_lower_new", "dec_upper_new")

# Spans whose direct children are split into lifelong phases.
RUN_SPANS = ("lifelong.run_degm", "lifelong.run_gr_single")
# Nearest of these above a gradient step decides whether it is a bounds fit.
FIT_OWNERS = RUN_SPANS + ("bounds.epoch_hook", "bounds.bounds_run", "cli.cmd_diagnose")
GRAD_SPANS = ("nnkit.backprop", "nnkit.adam_step", "vae.elbo.train")
MODULES = ("nnkit", "vae", "graph", "lifelong", "select_eval", "bounds", "persist", "cli")


class Tracer:
    """Owns the span list and the installed wrappers."""

    def __init__(self):
        self.spans: list = []  # [name, t0, t1, parent, run_id, attrs]
        self.run_id = ""
        self._stack: list[int] = []
        self._patched: list[tuple] = []  # (owner, attr, original)
        self.missing: list[str] = []

    # -- wrapping ------------------------------------------------------------

    def _wrap(self, fn, name, annotate=None, prepare=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if prepare is not None:
                args, kwargs = prepare(self, args, kwargs)
            label = name() if callable(name) else name
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                spans[idx] = [label, t0, t1, parent, self.run_id, None]
            if annotate is not None:
                spans[idx][5] = annotate(args, kwargs, result)
            return result

        setattr(wrapper, MARK, name if isinstance(name, str) else fn.__qualname__)
        return wrapper

    def wrap_callable(self, fn, name):
        """A traced stand-in for a callable handed to the program as an argument."""
        return self._wrap(fn, name)

    def install(self, targets) -> None:
        """Wrap every target (see ``targets``); a target the program no longer
        has is listed in ``missing``."""
        if self._patched:
            raise RuntimeError("tracer already installed")
        self.missing = []
        for target in targets:
            found = _sites(target)
            if found is None:
                self.missing.append(f"{target[0]}.{target[1]}")
                continue
            original, sites = found
            wrapper = self._wrap(original, *target[2:])
            for owner, attr in sites:
                setattr(owner, attr, wrapper)
                self._patched.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched = []

    def assert_clean(self, originals: dict) -> None:
        """Raise unless no wrapper is left and every recorded original is back."""
        for (owner, attr), original in originals.items():
            current = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr)
            if current is not original:
                raise RuntimeError(f"{owner.__name__}.{attr} is not the original object")
        for mod in _degm_modules():
            for key, value in vars(mod).items():
                if hasattr(value, MARK):
                    raise RuntimeError(f"wrapper left at {mod.__name__}.{key}")
                if isinstance(value, type) and value.__module__ == mod.__name__:
                    for attr, member in vars(value).items():
                        if hasattr(member, MARK):
                            raise RuntimeError(f"wrapper left at {value.__name__}.{attr}")

    def write(self, path: str) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["run_id", "span", "parent", "name", "start_s", "end_s"])
            for i, (name, t0, t1, parent, run_id, _) in enumerate(self.spans):
                writer.writerow([run_id, i, parent, name, repr(t0), repr(t1)])


def _degm_modules():
    return [m for n, m in list(sys.modules.items())
            if m is not None and (n == "degm" or n.startswith("degm."))]


def _sites(target):
    """(original object, [(owner, attr), ...]) for one target, or None when
    the program lacks it. A qualname ``Class.method`` names one class
    attribute; a plain name, every degm module global bound to the function."""
    module_name, qualname = target[:2]
    owner_name, _, attr = qualname.rpartition(".")
    module = sys.modules.get(module_name)
    if owner_name:
        cls = getattr(module, owner_name, None)
        if cls is None or attr not in vars(cls):
            return None
        return vars(cls)[attr], [(cls, attr)]
    if not hasattr(module, attr):
        return None
    original = getattr(module, attr)
    return original, [(mod, key) for mod in _degm_modules()
                      for key, value in vars(mod).items() if value is original]


def snapshot_originals(targets) -> dict:
    """(owner, attr) -> object for every place install would patch."""
    out = {}
    for target in targets:
        found = _sites(target)
        if found is not None:
            original, sites = found
            out.update((site, original) for site in sites)
    return out


# -- what is traced -------------------------------------------------------------------

def _rows(x) -> int:
    return int(x.shape[0])


def _affine(args, kwargs, result):
    layer, x = args[0], args[1]
    frozen = kwargs.get("frozen", args[2] if len(args) > 2 else False)
    role = layer.name.rpartition(".")[2]
    return {"role": role, "frozen": bool(frozen),
            "flop": 2 * _rows(x) * layer.in_dim * layer.out_dim}


def _adam(args, kwargs, result):
    params = kwargs.get("params", args[1] if len(args) > 1 else ())
    return {"tensors": len(params)}


def _generate(args, kwargs, result):
    return {"rows": int(result.shape[0])}


def _x_rows(args, kwargs, result):
    return {"rows": _rows(args[1] if len(args) > 1 else kwargs["x"])}


def _node_rows(args, kwargs, result):
    graph, entry, x = args[0], args[1], args[2]
    return {"rows": _rows(x), "live": entry is graph.entries[-1]}


def _save_bytes(args, kwargs, result):
    directory = args[0]
    return {"bytes": sum(e.stat().st_size for e in os.scandir(directory) if e.is_file())}


def targets(grad_enabled):
    """The traced functions and methods as (module, qualname, span name,
    annotate, prepare) tuples; grad_enabled is degm.nnkit.grad_enabled."""

    def grad_tag(args, kwargs, result):
        return {"grad": grad_enabled()}

    def with_grad(annotate):
        def both(args, kwargs, result):
            return {**annotate(args, kwargs, result), "grad": grad_enabled()}
        return both

    def elbo_name():
        return "vae.elbo.train" if grad_enabled() else "vae.elbo.eval"

    def trace_epoch_hook(tracer, args, kwargs):
        hook = kwargs.get("epoch_hook")
        if hook is not None:
            kwargs = {**kwargs, "epoch_hook": tracer.wrap_callable(hook, "bounds.epoch_hook")}
        return args, kwargs

    T = []

    def add(module, qualname, name, annotate=None, prepare=None):
        T.append((module, qualname, name, annotate, prepare))

    add("degm.nnkit.layers", "affine_forward", "nnkit.affine", _affine)
    add("degm.nnkit.autodiff", "backprop", "nnkit.backprop")
    add("degm.nnkit.optim", "adam_step", "nnkit.adam_step", _adam)
    for method in ("leaky_relu", "sigmoid", "tanh"):
        add("degm.nnkit.autodiff", f"Tensor.{method}", "nnkit.activation")
    add("degm.nnkit.losses", "bernoulli_log_likelihood", "nnkit.likelihood")
    add("degm.nnkit.losses", "gaussian_log_likelihood", "nnkit.likelihood")
    add("degm.nnkit.losses", "kl_diag_gaussian_to_standard", "nnkit.kl")

    add("degm.vae", "VaeComponent.elbo", elbo_name, _x_rows)
    add("degm.vae", "VaeComponent.iwelbo", "vae.iwelbo", with_grad(_x_rows))
    add("degm.vae", "VaeComponent.generate", "vae.generate", _generate)
    add("degm.vae", "VaeComponent.reconstruct", "vae.reconstruct", _x_rows)

    add("degm.graph", "GraphModel.melbo", "graph.melbo", grad_tag)
    add("degm.graph", "GraphModel.melbo_iw", "graph.melbo_iw", grad_tag)
    add("degm.graph", "GraphModel.node_values", "graph.node_values", with_grad(_node_rows))
    add("degm.graph", "GraphModel.reconstruct_node", "graph.reconstruct_node", _node_rows)
    add("degm.graph", "GraphModel.knowledge_scores", "graph.knowledge_scores")

    add("degm.lifelong", "run_degm", "lifelong.run_degm")
    add("degm.lifelong", "run_gr_single", "lifelong.run_gr_single", prepare=trace_epoch_hook)

    add("degm.select_eval", "select_component", "select_eval.select_component")
    add("degm.select_eval", "eval_nll", "select_eval.eval_nll")
    add("degm.select_eval", "eval_nll_single", "select_eval.eval_nll")
    add("degm.select_eval", "reconstruction_metrics", "select_eval.reconstruction_metrics")
    add("degm.select_eval", "task_metric_table", "select_eval.task_metric_table")

    add("degm.bounds", "bounds_run", "bounds.bounds_run")
    add("degm.bounds", "estimate_discrepancy", "bounds.estimate_discrepancy")
    add("degm.bounds", "estimate_kl_gap", "bounds.estimate_kl_gap")
    add("degm.bounds", "risk", "bounds.risk")
    add("degm.bounds", "HypothesisSet.register", "bounds.hypotheses")
    add("degm.bounds", "accumulated_error_proxy", "bounds.accumulated_error_proxy")

    add("degm.persist", "save_graph", "persist.save", _save_bytes)
    add("degm.persist", "save_single", "persist.save", _save_bytes)
    add("degm.persist", "load_checkpoint", "persist.load")

    add("degm.cli", "parse_config", "cli.parse_config")
    add("degm.cli", "build_stream", "cli.build_stream")
    add("degm.cli", "cmd_train", "cli.cmd_train")
    add("degm.cli", "cmd_eval", "cli.cmd_eval")
    add("degm.cli", "cmd_diagnose", "cli.cmd_diagnose")
    add("degm.lifelong", "MetricsLog.to_csv", "cli.tables")
    add("degm.bounds", "write_bounds_csv", "cli.tables")
    add("degm.bounds", "write_curves_csv", "cli.tables")
    add("degm.cli", "export_v_csv", "cli.tables")
    return T


# -- per-layer metrics ------------------------------------------------------------------

# name -> unit; the order here is the order they are printed in.
LAYER_METRICS: dict[str, str] = {}
for _role in AFFINE_ROLES:
    LAYER_METRICS[f"nnkit.affine.{_role}.calls"] = "count"
    LAYER_METRICS[f"nnkit.affine.{_role}.s"] = "s"
LAYER_METRICS.update({
    "nnkit.affine.frozen.calls": "count",
    "nnkit.affine.gflop": "GFLOP",
    "nnkit.affine.gflops_per_s": "GFLOP/s",
    "nnkit.backprop.calls": "count", "nnkit.backprop.s": "s",
    "nnkit.adam_step.calls": "count", "nnkit.adam_step.s": "s",
    "nnkit.adam_step.tensors": "count",
    "nnkit.activation.s": "s", "nnkit.likelihood.s": "s", "nnkit.kl.s": "s",
    "vae.elbo.train.s": "s", "vae.elbo.eval.s": "s", "vae.iwelbo.s": "s",
    "vae.generate.s": "s", "vae.generate.rows": "rows",
    "vae.reconstruct.s": "s", "vae.reconstruct.rows": "rows",
    "graph.melbo.s": "s", "graph.melbo_iw.s": "s",
    "graph.node_values.s": "s", "graph.node_values.rows": "rows",
    "graph.reconstruct_node.s": "s", "graph.reconstruct_node.rows": "rows",
    "graph.knowledge_scores.s": "s",
    "lifelong.train.s": "s", "lifelong.log_eval.s": "s", "lifelong.log_eval.rows": "rows",
    "lifelong.log_eval.live_frac": "ratio", "lifelong.knowledge.s": "s",
    "lifelong.replay.s": "s", "lifelong.self.s": "s",
    "select_eval.select_component.s": "s", "select_eval.eval_nll.s": "s",
    "select_eval.reconstruction_metrics.s": "s",
    "bounds.fit.s": "s", "bounds.estimate_discrepancy.s": "s",
    "bounds.estimate_kl_gap.s": "s", "bounds.risk.s": "s", "bounds.hypotheses.s": "s",
    "bounds.accumulated_error_proxy.s": "s",
    "persist.save.s": "s", "persist.save.bytes": "bytes", "persist.load.s": "s",
    "cli.parse_config.s": "s", "cli.build_stream.s": "s", "cli.tables.s": "s",
})
for _module in MODULES:
    LAYER_METRICS[f"self.{_module}.s"] = "s"
LAYER_METRICS["trace.spans"] = "count"

# Exact counts: they must repeat bit for bit across traced runs of one seed.
COUNT_METRICS = tuple(n for n in LAYER_METRICS
                      if n.endswith((".calls", ".rows", ".tensors", ".bytes", ".gflop"))
                      or n == "trace.spans")

CHILD_COVER_TOL_S = 1e-9


def layer_metrics(spans: list, offset: int) -> dict:
    """Per-layer numbers of one traced run: ``spans`` is its slice of the
    tracer's list, starting at list index ``offset`` (parents are list indices).

    ``.s`` is self time: span time minus the time its child spans cover.
    Lifelong phases are the inclusive time of the direct children of a run
    span, and ``bounds.fit.s`` the inclusive time of gradient steps that
    belong to a bounds fit rather than to the replay training.
    """
    n = len(spans)
    dur = [s[2] - s[1] for s in spans]
    parents = [s[3] - offset if s[3] >= offset else -1 for s in spans]
    child = [0.0] * n
    for i, p in enumerate(parents):
        if p >= 0:
            child[p] += dur[i]
    for i in range(n):
        if child[i] > dur[i] + CHILD_COVER_TOL_S:
            raise ValueError(f"children of span {spans[i][0]!r} cover {child[i]:.9f} s "
                             f"of its {dur[i]:.9f} s")
    own = [dur[i] - child[i] for i in range(n)]

    m = {name: 0 for name in LAYER_METRICS}
    by_name: dict[str, float] = {}
    calls: dict[str, int] = {}
    flop = 0
    affine_self = 0.0
    for i, (name, _, _, _, _, attrs) in enumerate(spans):
        by_name[name] = by_name.get(name, 0.0) + own[i]
        calls[name] = calls.get(name, 0) + 1
        module = name.partition(".")[0]
        if module in MODULES:
            m[f"self.{module}.s"] += own[i]
        if name == "nnkit.affine":
            role = attrs["role"]
            if role in AFFINE_ROLES:
                m[f"nnkit.affine.{role}.calls"] += 1
                m[f"nnkit.affine.{role}.s"] += own[i]
            m["nnkit.affine.frozen.calls"] += int(attrs["frozen"])
            flop += attrs["flop"]
            affine_self += own[i]
        elif name == "nnkit.adam_step":
            m["nnkit.adam_step.tensors"] += attrs["tensors"]
        elif name == "persist.save":
            m["persist.save.bytes"] += attrs["bytes"]
        elif f"{name}.rows" in m:
            m[f"{name}.rows"] += attrs["rows"]

    for name in ("nnkit.backprop", "nnkit.adam_step"):
        m[f"{name}.calls"] = calls.get(name, 0)
    m["nnkit.affine.gflop"] = flop / 1e9
    m["nnkit.affine.gflops_per_s"] = flop / 1e9 / affine_self if affine_self > 0 else 0.0
    for name in LAYER_METRICS:
        if name.startswith(("self.", "lifelong.", "bounds.fit.")) or not name.endswith(".s"):
            continue
        if name[:-2] in by_name:
            m[name] = by_name[name[:-2]]

    # lifelong phases from the direct children of each run span
    run_total = 0.0
    phase = dict.fromkeys(("train", "log_eval", "knowledge", "replay", "hook", "other"), 0.0)
    log_rows = live_rows = 0
    for i, (name, _, _, _, _, attrs) in enumerate(spans):
        if name in RUN_SPANS:
            run_total += dur[i]
        p = parents[i]
        if p < 0 or spans[p][0] not in RUN_SPANS:
            continue
        attrs = attrs or {}
        kind = _phase(name, attrs, spans[p][0])
        phase[kind] += dur[i]
        if kind == "log_eval":
            log_rows += attrs["rows"]
            live_rows += attrs["rows"] if attrs.get("live", True) else 0
    for kind in ("train", "log_eval", "knowledge", "replay"):
        m[f"lifelong.{kind}.s"] = phase[kind]
    # the rest: the run spans' own time plus children no phase claims
    m["lifelong.self.s"] = run_total - sum(phase[k] for k in
                                           ("train", "log_eval", "knowledge", "replay", "hook"))
    m["lifelong.log_eval.rows"] = log_rows
    m["lifelong.log_eval.live_frac"] = live_rows / log_rows if log_rows else 0.0

    # bounds fits: gradient steps whose nearest owner is not the replay training
    owner = [-1] * n
    for i in range(n):
        p = parents[i]
        if p >= 0:
            owner[i] = p if spans[p][0] in FIT_OWNERS else owner[p]
    for i in range(n):
        if spans[i][0] in GRAD_SPANS and owner[i] >= 0 and spans[owner[i]][0] not in RUN_SPANS:
            m["bounds.fit.s"] += dur[i]
    m["trace.spans"] = n
    return m


def _phase(name: str, attrs: dict, run: str) -> str:
    if name in GRAD_SPANS or (name in ("vae.iwelbo", "graph.melbo", "graph.melbo_iw",
                                        "graph.node_values") and attrs.get("grad")):
        return "train"
    if name == "graph.knowledge_scores":
        return "knowledge"
    if name == "vae.elbo.eval":
        # under the graph run this is the reference ELBO the knowledge scores use
        return "knowledge" if run == "lifelong.run_degm" else "log_eval"
    if name in ("graph.node_values", "graph.reconstruct_node", "vae.reconstruct", "vae.iwelbo"):
        return "log_eval"
    if name == "vae.generate":
        return "replay"
    if name == "bounds.epoch_hook":
        return "hook"
    return "other"
