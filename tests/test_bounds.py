"""Bound-quantity estimators: risk, discrepancy, KL gap, per-epoch diagnostics."""

import csv
import hashlib
import json
import os
import weakref
from collections import Counter
from dataclasses import astuple, fields, replace

import numpy as np
import pytest

from degm import bounds as bounds_mod
from degm.bounds import (
    BoundsRow,
    _train_plain,
    accumulated_error_proxy,
    bounds_run,
    diagnose_snapshots,
    fit_references,
    forgetting_curves,
    bound_check_report,
    report_rows,
    risk,
)
from degm.cli import build_stream, cmd_diagnose, cmd_train, parse_config
from degm.data import synthetic_task
from degm.errors import ContractError
from degm.lifelong import (Task, TaskStream, TrainConfig, run_degm, run_gr_hier,
                           run_gr_single)
from degm.nnkit import Rng, runtime
from degm.persist import RunRecord, load_checkpoint, write_record
from degm.vae import HierVae, NodePass, VaeComponent

from helpers import tape_hier_objective, tape_pass_objective, train_elbo_steps
from reference import encoder_kl_values, estimate_discrepancy, estimate_kl_gap
from tape import no_grad

DIM, LATENT, HIDDEN = 16, 3, 8


def component(seed, likelihood="bernoulli"):
    return VaeComponent(DIM, LATENT, HIDDEN, likelihood, rng=Rng(seed), name=f"m{seed}")


def binary_data(seed, n, dim=DIM):
    return (Rng(seed).uniform(0, 1, (n, dim)) < 0.4).astype(np.float64)


# --- risk ------------------------------------------------------------------------

def test_risk_zero_for_memorised_point():
    c = component(1)
    point = binary_data(2, 1)
    train_elbo_steps(c, np.repeat(point, 16, axis=0), steps=500, lr=1e-2, seed=0)
    assert risk(c, point) < 5e-3


def test_risk_of_zero_decoder_is_mean_power():
    c = VaeComponent(DIM, LATENT, HIDDEN, "gaussian", rng=None)  # all-zero layers
    x = Rng(3).uniform(0, 1, (50, DIM))
    assert risk(c, x) == pytest.approx(float((x ** 2).sum(axis=1).mean()) / DIM, abs=1e-12)


def test_risk_permutation_invariant():
    c = component(4)
    x = binary_data(5, 40)
    assert risk(c, x) == pytest.approx(risk(c, x[Rng(6).permutation(40)]), abs=1e-12)


def test_risk_rejects_empty():
    with pytest.raises(ContractError):
        risk(component(7), np.zeros((0, DIM)))


# --- discrepancy ---------------------------------------------------------------------

def hypothesis_pair(seed_a, seed_b):
    return {"a": component(seed_a), "b": component(seed_b)}


def test_discrepancy_zero_on_identical_sample_sets():
    x = binary_data(8, 30)
    assert estimate_discrepancy(x, x.copy(), hypothesis_pair(9, 10)) == 0.0


def test_discrepancy_symmetric():
    p, q = binary_data(11, 30), binary_data(12, 30)
    h = hypothesis_pair(13, 14)
    assert estimate_discrepancy(p, q, h) == pytest.approx(estimate_discrepancy(q, p, h), abs=1e-15)


def test_discrepancy_identical_hypotheses_contribute_zero():
    c = component(15)
    h = {"a": c, "b": c}  # the same weights under two names
    p, q = binary_data(16, 20), binary_data(17, 20)
    assert estimate_discrepancy(p, q, h) == 0.0


def test_discrepancy_requires_two_hypotheses():
    h = {"only": component(18)}
    with pytest.raises(ContractError):
        estimate_discrepancy(binary_data(19, 5), binary_data(20, 5), h)


def test_discrepancy_separates_disjoint_distributions():
    # brute-force oracle over a two-model family trained on each support
    top = synthetic_task("half-active-top", 300, DIM, Rng(21)).data
    bottom = synthetic_task("half-active-bottom", 300, DIM, Rng(22)).data
    ref_top, ref_bottom = component(23), component(24)
    train_elbo_steps(ref_top, top, steps=800, lr=1e-2, seed=1)
    train_elbo_steps(ref_bottom, bottom, steps=800, lr=1e-2, seed=2)
    h = {"top": ref_top, "bottom": ref_bottom}
    value = estimate_discrepancy(top, bottom, h)
    assert value > 0.006  # calibration run at this seed gave 0.012


# --- KL gap -----------------------------------------------------------------------------

def test_kl_gap_zero_for_zero_encoder():
    c = VaeComponent(DIM, LATENT, HIDDEN, rng=None)
    targets = [binary_data(27, 30), binary_data(28, 30)]
    assert estimate_kl_gap(c, targets, np.concatenate(targets)) == 0.0


def test_kl_gap_exact_zero_on_balanced_union():
    c = component(29)
    targets = [binary_data(30, 40), binary_data(31, 40)]
    source = np.concatenate(targets)
    assert estimate_kl_gap(c, targets, source, sample_size=10_000) == pytest.approx(0.0, abs=1e-12)


def test_kl_gap_subsampled_within_noise():
    c = component(32)
    targets = [binary_data(33, 500), binary_data(34, 500)]
    source = np.concatenate(targets)
    gap = estimate_kl_gap(c, targets, source, sample_size=200, rng=Rng(35))
    values = encoder_kl_values(c, source)
    se = values.std(ddof=1) / np.sqrt(200.0)
    assert gap <= 3.0 * se * 2.0


def test_kl_gap_nonnegative_and_validates():
    c = component(36)
    assert estimate_kl_gap(c, [binary_data(37, 10)], binary_data(38, 10)) >= 0.0
    with pytest.raises(ContractError):
        estimate_kl_gap(c, [], binary_data(39, 10))


# --- instrumented replay run -----------------------------------------------------------------

def bounds_stream():
    def mk(kind, name, seed):
        return Task(name,
                    synthetic_task(kind, 160, DIM, Rng(seed)),
                    synthetic_task(kind, 80, DIM, Rng(seed + 1)))
    return TaskStream([mk("half-active-top", "top", 40), mk("half-active-bottom", "bottom", 42)])


def bounds_cfg(**kw):
    defaults = dict(epochs=3, batch=32, lr=2e-3, tau=1.0, probe_size=50,
                    latent_dim=LATENT, hidden_dim=HIDDEN, likelihood="gaussian")
    defaults.update(kw)
    return TrainConfig(**defaults)


def test_every_bounds_row_field_reaches_a_written_table():
    # a field is written when changing it changes a row of bounds_report.csv
    # or bound_check.csv, directly or through ra_lower_bound; a field that
    # neither reads is computed for nothing
    base_values = {"int": 1, "float": 0.5, "list[float]": [0.5]}
    other_values = {"int": 2, "float": 0.75, "list[float]": [0.75]}

    def written(row):
        return report_rows([row], 1), bound_check_report([row])

    base = BoundsRow(**{f.name: base_values[f.type] for f in fields(BoundsRow)})
    unwritten = [f.name for f in fields(BoundsRow)
                 if written(replace(base, **{f.name: other_values[f.type]})) == written(base)]
    assert unwritten == []


def test_bounds_run_row_bookkeeping(tmp_path):
    stream = bounds_stream()
    cfg = bounds_cfg()
    out = bounds_run(stream, cfg, Rng(50), sample_size=100, aux_epochs=2)
    assert len(out.rows) == cfg.epochs * len(stream)
    for r in out.rows:
        assert np.isfinite(r.slack)
        assert r.disc_lower_bound >= 0.0 and r.kl_gap >= 0.0
        assert r.source_risk >= 0.0 and all(v >= 0.0 for v in r.target_risks)
    path = tmp_path / "bounds_report.csv"
    write_record(str(tmp_path), RunRecord({path.name: report_rows(out.rows, len(stream))}))
    header = path.read_text().splitlines()[0].split(",")
    assert header[:4] == ["epoch", "task_t", "source_risk", "target_risk_avg"]
    assert header[-3:] == ["kl_gap", "disc_lower_bound", "slack"]


def test_bound_check_slack_single_task():
    # t=1 oracle: aux model is the current model, inequality reduces to
    # train-vs-test ELBO plus nonnegative terms
    def mk(kind, name, seed):
        return Task(name, synthetic_task(kind, 200, DIM, Rng(seed)),
                    synthetic_task(kind, 100, DIM, Rng(seed + 1)))
    stream = TaskStream([mk("bars", "bars", 60)])
    cfg = bounds_cfg(epochs=4)
    out = bounds_run(stream, cfg, Rng(61), sample_size=150, aux_epochs=2)
    report = bound_check_report(out.rows)
    assert len(report) == cfg.epochs
    model = out.gr_model
    test_data = stream.tasks[0].test.data
    eps = Rng(61).spawn("bounds:eval").normal((1, LATENT))
    per_sample = -model.node_pass(test_data).bound([eps])
    se = per_sample.std(ddof=1) / np.sqrt(per_sample.size)
    for row in report:
        assert row["slack"] >= -3.0 * se
        assert row["rhs_ra_lower_bound"] >= 0.0


def test_accumulated_error_proxy_chains():
    stream3 = TaskStream([
        Task("a", synthetic_task("half-active-top", 60, DIM, Rng(70)),
             synthetic_task("half-active-top", 30, DIM, Rng(71))),
        Task("b", synthetic_task("half-active-bottom", 60, DIM, Rng(72)),
             synthetic_task("half-active-bottom", 30, DIM, Rng(73))),
        Task("c", synthetic_task("bars", 60, DIM, Rng(74)),
             synthetic_task("bars", 30, DIM, Rng(75))),
    ])
    cfg = bounds_cfg(likelihood="bernoulli", epochs=2)
    model, _, snapshots = run_gr_single(stream3, cfg, Rng(76))
    rows = accumulated_error_proxy(snapshots, stream3, Rng(77))
    chain = {t: [r for r in rows if r["task_index"] == t] for t in (1, 2, 3)}
    assert [r["generation"] for r in chain[1]] == [0, 1, 2]
    assert [r["generation"] for r in chain[3]] == [0]
    gen0 = chain[1][0]
    assert gen0["risk_under_final"] == pytest.approx(risk(model, stream3.tasks[0].train.data))
    assert gen0["delta"] == 0.0


def test_accumulated_error_proxy_single_task():
    stream = TaskStream([Task("solo", synthetic_task("bars", 40, DIM, Rng(80)),
                              synthetic_task("bars", 20, DIM, Rng(81)))])
    cfg = bounds_cfg(likelihood="bernoulli", epochs=2)
    _, _, snapshots = run_gr_single(stream, cfg, Rng(82))
    rows = accumulated_error_proxy(snapshots, stream, Rng(83))
    assert [r["generation"] for r in rows] == [0]


def test_forgetting_curves_rows_and_flat_mixture():
    stream = bounds_stream()
    cfg = bounds_cfg(likelihood="bernoulli", tau=0.0)  # every node basic, frozen after its task
    graph_model, degm_log = run_degm(stream, cfg, Rng(90))
    _, gr_log, _ = run_gr_single(stream, cfg, Rng(90))
    rows = forgetting_curves(degm_log, gr_log, stream.input_dim)
    per_model = {m: [r for r in rows if r["model"] == m] for m in ("mixture", "single")}
    expected = sum(cfg.epochs * (i + 1) for i in range(len(stream)))
    assert len(per_model["mixture"]) == len(per_model["single"]) == expected
    # frozen nodes: task-1 risk is exactly constant once its own training ends
    t1 = [r["risk"] for r in per_model["mixture"]
          if r["eval_task"] == 1 and r["task_index"] == 2]
    assert len(set(t1)) == 1


# --- one bounds-row computation, pinned to the two computations it replaced -----------------

def _reference_neg_elbo_mean(model, data, eps):
    with no_grad():
        if isinstance(model, HierVae):
            return float(-tape_hier_objective(model, data, eps,
                                              np.zeros((1, model.latent_dims[1]))).data.mean())
        return float(-tape_pass_objective(model.node_pass(data), [eps]).data.mean())


def reference_bounds_rows(stream, cfg, rng, sample_size, aux_epochs):
    """The per-epoch hook of bounds_run as it was before the row computation
    was shared with diagnose, kept verbatim apart from its container and the
    two columns that no table wrote."""
    rows, aux_models, reference_models = [], {}, {}
    for i, task in enumerate(stream.tasks):
        reference_models[i] = _train_plain(task.train.data, cfg,
                                           rng.spawn(f"bounds:ref:{task.name}"),
                                           aux_epochs, name=f"ref{i}")

    eval_eps = rng.spawn("bounds:eval").normal((1, cfg.latent_dim))

    def subsample(x, key):
        if x.shape[0] <= sample_size:
            return x
        return x[rng.spawn(key).choice_without_replacement(x.shape[0], sample_size)]

    def hook(task_index, epoch, model, mixture):
        t = task_index
        if t not in aux_models:
            aux_models[t] = None if t == 0 else _train_plain(
                mixture, cfg, rng.spawn(f"bounds:aux:{t}"), aux_epochs, name=f"aux{t}")
        aux = aux_models[t] if aux_models[t] is not None else model

        source = subsample(mixture, f"bounds:src:{t}")
        target_sets = [subsample(stream.tasks[k].test.data, f"bounds:tgt:{t}:{k}")
                       for k in range(t + 1)]
        union = np.concatenate(target_sets)

        hset = {"current": model, "aux": aux}
        for k in range(t + 1):
            hset[f"ref{k}"] = reference_models[k]

        target_risks = [risk(model, ts) for ts in target_sets]
        disc = estimate_discrepancy(union, source, hset)
        gap = estimate_kl_gap(model, target_sets, source, sample_size, rng.spawn(f"bounds:kl:{t}"))
        eps_proxy = risk(aux, source) + risk(aux, union)
        lhs = float(np.mean([_reference_neg_elbo_mean(model, ts, eval_eps) for ts in target_sets]))
        rhs_source = _reference_neg_elbo_mean(model, source, eval_eps)
        slack = rhs_source + gap + disc + eps_proxy - lhs
        rows.append(BoundsRow(
            task_t=t + 1, epoch=epoch + 1,
            source_risk=risk(model, source),
            target_risks=target_risks,
            target_risk_avg=float(np.mean(target_risks)),
            kl_gap=gap, disc_lower_bound=disc,
            lhs_target_neg_elbo=lhs, rhs_source_neg_elbo=rhs_source,
            eps_proxy=eps_proxy, slack=slack,
        ))

    run_gr_single(stream, cfg, rng, epoch_hook=hook)
    return rows


def reference_diagnose_rows(stream, cfg, snapshots, rng, sample_size, aux_epochs):
    """The loop of cmd_diagnose as it was before the row computation was
    shared with bounds_run, kept verbatim apart from its arguments and the
    two columns that no table wrote."""
    rows = []
    refs = {}
    for i, task in enumerate(stream.tasks):
        refs[i] = _train_plain(task.train.data, cfg, rng.spawn(f"bounds:ref:{task.name}"),
                               aux_epochs, name=f"ref{i}")
    eval_eps = rng.spawn("bounds:eval").normal((1, cfg.latent_dim))
    for t, task in enumerate(stream.tasks):
        model = snapshots[t]
        if t == 0:
            mixture = task.train.data
            aux = model
        else:
            replay = snapshots[t - 1].generate(t * task.train.n, rng.spawn(f"gr:replay:{t}"))
            mixture = np.concatenate([task.train.data, replay])
            aux = _train_plain(mixture, cfg, rng.spawn(f"bounds:aux:{t}"),
                               aux_epochs, name=f"aux{t}")
        hset = {"current": model, "aux": aux}
        for k in range(t + 1):
            hset[f"ref{k}"] = refs[k]
        target_sets = [stream.tasks[k].test.data for k in range(t + 1)]
        union = np.concatenate(target_sets)
        disc = estimate_discrepancy(union, mixture, hset)
        gap = estimate_kl_gap(model, target_sets, mixture, sample_size, rng.spawn(f"bounds:kl:{t}"))
        target_risks = [risk(model, ts) for ts in target_sets]
        eps_proxy = risk(aux, mixture) + risk(aux, union)
        lhs = float(np.mean([_reference_neg_elbo_mean(model, ts, eval_eps)
                             for ts in target_sets]))
        rhs_source = _reference_neg_elbo_mean(model, mixture, eval_eps)
        rows.append(BoundsRow(
            task_t=t + 1, epoch=cfg.epochs,
            source_risk=risk(model, mixture),
            target_risks=target_risks, target_risk_avg=float(np.mean(target_risks)),
            kl_gap=gap, disc_lower_bound=disc, lhs_target_neg_elbo=lhs,
            rhs_source_neg_elbo=rhs_source, eps_proxy=eps_proxy,
            slack=rhs_source + gap + disc + eps_proxy - lhs))
    return rows


# Every set (mixtures of 80-240 rows, 40 test rows) is larger than the sample
# size, so the per-epoch rows score subsamples and diagnose whole sets. Three
# tasks, so that the last rows score a union of three sets by three refs.
PIN_SAMPLE, PIN_AUX_EPOCHS = 30, 2


def pinned_config(out_dir):
    tasks = [{"name": name, "source": "synthetic", "kind": kind, "n_train": 80, "n_test": 40,
              "dim": DIM, "seed": seed}
             for name, kind, seed in (("top", "half-active-top", 3), ("bars", "bars", 4),
                                      ("bottom", "half-active-bottom", 6))]
    return parse_config(json.dumps({
        "mode": "bounds", "out_dir": out_dir, "tasks": tasks,
        "train": {"epochs": 3, "batch": 32, "lr": 2e-3, "latent_dim": LATENT,
                  "hidden_dim": HIDDEN, "likelihood": "gaussian", "seed": 5},
        "bounds": {"sample_size": PIN_SAMPLE, "aux_epochs": PIN_AUX_EPOCHS},
    }))


def bits(rows):
    return [repr(astuple(r)) for r in rows]


def check_bounds_run_rows(tmp_path):
    cfg = pinned_config(str(tmp_path))
    stream = build_stream(cfg)
    assert all(t.test.n > PIN_SAMPLE for t in stream.tasks)
    out = bounds_run(stream, cfg.train, Rng(5), sample_size=PIN_SAMPLE,
                     aux_epochs=PIN_AUX_EPOCHS)
    expected = reference_bounds_rows(stream, cfg.train, Rng(5), PIN_SAMPLE, PIN_AUX_EPOCHS)
    assert len(out.rows) == 3 * len(stream)
    assert bits(out.rows) == bits(expected)


def check_diagnose_rows(tmp_path):
    cfg = pinned_config(str(tmp_path / "runs"))
    stream = build_stream(cfg)
    run_dir = cmd_train(cfg)
    snapshots = [load_checkpoint(os.path.join(run_dir, "checkpoint", f"task_{i + 1}"))[1]
                 for i in range(len(stream))]
    expected = reference_diagnose_rows(stream, cfg.train, snapshots, Rng(5),
                                       PIN_SAMPLE, PIN_AUX_EPOCHS)
    refs = fit_references(stream, cfg.train, Rng(5), PIN_AUX_EPOCHS)
    rows = diagnose_snapshots(stream, cfg.train, snapshots, refs, Rng(5), PIN_SAMPLE,
                              PIN_AUX_EPOCHS)
    assert bits(rows) == bits(expected)
    with open(cmd_diagnose(run_dir), newline="") as fh:
        written = list(csv.DictReader(fh))
    assert len(written) == len(expected)
    for got, want in zip(written, expected):
        assert (int(got["task_t"]), int(got["epoch"])) == (want.task_t, want.epoch)
        for key in ("source_risk", "target_risk_avg", "kl_gap", "disc_lower_bound", "slack"):
            assert got[key] == repr(getattr(want, key)), key
        for k, value in enumerate(want.target_risks):
            assert got[f"target_risk_task_{k + 1}"] == repr(value)


def test_diagnose_rows_of_hier_snapshots_equal_reference_loop():
    # a gr-hier run's snapshots: reconstruction and KL from the base pass,
    # the bound from its own HierPass, through the one pass per set
    cfg = replace(pinned_config("unused").train, hier_z2_dim=2)
    stream = build_stream(pinned_config("unused"))
    snapshots = run_gr_hier(stream, cfg, Rng(5))[2]
    assert all(type(s) is HierVae for s in snapshots)
    expected = reference_diagnose_rows(stream, cfg, snapshots, Rng(5), PIN_SAMPLE,
                                       PIN_AUX_EPOCHS)
    refs = fit_references(stream, cfg, Rng(5), PIN_AUX_EPOCHS)
    rows = diagnose_snapshots(stream, cfg, snapshots, refs, Rng(5), PIN_SAMPLE, PIN_AUX_EPOCHS)
    assert bits(rows) == bits(expected)


def one_process(monkeypatch):
    monkeypatch.setattr(runtime, "share_count", lambda items: 1)


# Each pair runs at the default process count (the fits, and diagnose's
# rows, split over the CPUs) and in one process.
def test_bounds_run_rows_equal_reference_hook(tmp_path):
    check_bounds_run_rows(tmp_path)


def test_bounds_run_rows_equal_reference_hook_in_one_process(tmp_path, monkeypatch):
    one_process(monkeypatch)
    check_bounds_run_rows(tmp_path)


def test_cmd_diagnose_rows_equal_reference_loop(tmp_path):
    check_diagnose_rows(tmp_path)


def test_cmd_diagnose_rows_equal_reference_loop_in_one_process(tmp_path, monkeypatch):
    one_process(monkeypatch)
    check_diagnose_rows(tmp_path)


def test_each_model_passes_each_row_set_once(tmp_path, monkeypatch):
    # counted by content per task_rows call, every pass in this process;
    # a pass of a row's model, and its reconstruction, must be gone before the
    # model's next pass, so that rows hold no array that grows with the epochs
    one_process(monkeypatch)
    calls = []  # per rows call: the ids of its models, and the passes by (model, rows)
    active = []
    row_passes = weakref.WeakSet()
    held = []  # weak references to the latest pass of a row's model and its reconstruction
    node_pass, rows = VaeComponent.node_pass, bounds_mod.task_rows
    reconstruction = NodePass.reconstruction

    def counted_pass(self, x, train=False):
        if active and not train:
            model_ids, counts = active[-1]
            x = np.ascontiguousarray(x, dtype=np.float64)
            counts[(id(self), x.shape, hashlib.sha256(x.tobytes()).digest())] += 1
            if id(self) in model_ids:
                assert all(ref() is None for ref in held)
                out = node_pass(self, x, train)
                row_passes.add(out)
                held[:] = [weakref.ref(out)]
                return out
        return node_pass(self, x, train)

    def tracked_reconstruction(self):
        out = reconstruction(self)
        if self in row_passes:
            held.append(weakref.ref(out))
        return out

    def counted_rows(models, *args):
        calls.append(([id(m) for m in models], Counter()))
        active.append(calls[-1])
        try:
            return rows(models, *args)
        finally:
            active.pop()

    monkeypatch.setattr(VaeComponent, "node_pass", counted_pass)
    monkeypatch.setattr(NodePass, "reconstruction", tracked_reconstruction)
    monkeypatch.setattr(bounds_mod, "task_rows", counted_rows)
    cfg = pinned_config(str(tmp_path))
    stream = build_stream(cfg)
    out = bounds_run(stream, cfg.train, Rng(5), sample_size=PIN_SAMPLE,
                     aux_epochs=PIN_AUX_EPOCHS)
    diagnose_snapshots(stream, cfg.train, out.snapshots, out.reference_models,
                       Rng(5), PIN_SAMPLE, PIN_AUX_EPOCHS)

    def sets_per_model(models, counts):
        return [sum(key[0] == model for key in counts) for model in models]

    assert len(calls) == 2 * len(stream)
    assert all(set(counts.values()) == {1} for _, counts in calls)
    # a train row: the targets, the source and, from the second task on, their
    # union
    assert [sets_per_model(*call) for call in calls[:3]] == [[2] * 3, [4] * 3, [5] * 3]
    # diagnose scores whole sets, so the KL gap's cuts are sets of their own
    assert [sets_per_model(*call) for call in calls[3:]] == [[4], [7], [9]]
