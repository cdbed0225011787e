"""degm diagnose reads the reference models a bounds run saved; the
discrepancy scores each unordered hypothesis pair once."""

import glob
import json
import os
import shutil

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from degm.bounds import HypothesisSet, estimate_discrepancy, write_bounds_csv
from degm.cli import build_stream, cmd_diagnose, cmd_train, config_hash, main, parse_config
from degm.errors import ContractError
from degm.nnkit import Rng
from degm.persist import load_checkpoint
from degm.vae import VaeComponent

from test_bounds import DIM, HIDDEN, LATENT, pinned_config, reference_diagnose_rows


def reference_discrepancy(p_samples, q_samples, hypotheses):
    """estimate_discrepancy as it was while it scanned ordered pairs, kept verbatim."""
    if len(hypotheses) < 2:
        raise ContractError("discrepancy needs at least two hypotheses")
    p = np.asarray(p_samples, dtype=np.float64)
    q = np.asarray(q_samples, dtype=np.float64)
    if p.shape[0] == 0 or q.shape[0] == 0:
        raise ContractError("discrepancy needs nonempty sample sets")
    d = p.shape[1]
    recon_p = {name: hypotheses.reconstruct(name, p) for name in hypotheses.names()}
    recon_q = {name: hypotheses.reconstruct(name, q) for name in hypotheses.names()}
    best = 0.0
    for a in hypotheses.names():
        for b in hypotheses.names():
            if a == b:
                continue  # loss(h, h) is identically zero on both sides
            mean_p = float(((recon_p[a] - recon_p[b]) ** 2).sum(axis=1).mean()) / d
            mean_q = float(((recon_q[a] - recon_q[b]) ** 2).sum(axis=1).mean()) / d
            best = max(best, abs(mean_p - mean_q))
    return best


@settings(max_examples=40, deadline=None)
@given(seeds=st.lists(st.integers(0, 5), min_size=2, max_size=5),
       likelihood=st.sampled_from(["bernoulli", "gaussian"]),
       n_p=st.integers(1, 20), n_q=st.integers(1, 20), data_seed=st.integers(0, 10_000))
def test_unordered_pair_discrepancy_bit_equal_to_ordered_scan(seeds, likelihood, n_p, n_q,
                                                              data_seed):
    # repeated seeds register identical models, whose pairs score exactly 0
    hset = HypothesisSet()
    for i, seed in enumerate(seeds):
        hset.register(f"h{i}", VaeComponent(DIM, LATENT, HIDDEN, likelihood, rng=Rng(seed)))
    rng = Rng(data_seed)
    p, q = rng.uniform(0, 1, (n_p, DIM)), rng.uniform(0, 1, (n_q, DIM))
    recons = {}
    got = estimate_discrepancy(p, q, hset, recons)
    assert repr(got) == repr(reference_discrepancy(p, q, hset))
    assert sorted(recons) == sorted(hset.names())
    # reconstructions handed back in are used, not made again
    assert repr(estimate_discrepancy(p, q, hset, recons)) == repr(got)


def _read(path):
    with open(path, "rb") as fh:
        return fh.read()


@pytest.fixture(scope="module")
def bounds_run_dir(tmp_path_factory):
    return cmd_train(pinned_config(str(tmp_path_factory.mktemp("runs"))))


def _copy_run(run_dir, tmp_path):
    copy = str(tmp_path / os.path.basename(run_dir))
    shutil.copytree(run_dir, copy)
    return copy


def test_bounds_run_saves_each_reference_model(bounds_run_dir):
    cfg = pinned_config("unused")
    for i in range(3):
        kind, model, manifest = load_checkpoint(
            os.path.join(bounds_run_dir, "checkpoint", f"ref_{i + 1}"))
        assert kind == "single" and model.name == f"ref{i}"
        assert manifest["extra"] == {"config_hash": config_hash(cfg), "task_index": i + 1}
    assert not os.path.exists(os.path.join(bounds_run_dir, "checkpoint", "ref_4"))


def test_diagnose_with_saved_references_equals_a_fresh_fit(bounds_run_dir, tmp_path):
    saved = _copy_run(bounds_run_dir, tmp_path / "saved")
    fitted = _copy_run(bounds_run_dir, tmp_path / "fitted")
    for ref_dir in glob.glob(os.path.join(fitted, "checkpoint", "ref_*")):
        shutil.rmtree(ref_dir)
    from_saved = _read(cmd_diagnose(saved))
    assert from_saved == _read(cmd_diagnose(fitted))
    assert from_saved != _read(os.path.join(bounds_run_dir, "bounds_report.csv"))


def _partial(run_dir):
    shutil.rmtree(os.path.join(run_dir, "checkpoint", "ref_2"))


def _other_config(run_dir):
    path = os.path.join(run_dir, "checkpoint", "ref_1", "manifest.json")
    with open(path) as fh:
        manifest = json.load(fh)
    manifest["extra"]["config_hash"] = "0" * 12
    with open(path, "w") as fh:
        json.dump(manifest, fh)


def _swapped(run_dir):
    ckpt = os.path.join(run_dir, "checkpoint")
    os.rename(os.path.join(ckpt, "ref_1"), os.path.join(ckpt, "ref_x"))
    os.rename(os.path.join(ckpt, "ref_2"), os.path.join(ckpt, "ref_1"))
    os.rename(os.path.join(ckpt, "ref_x"), os.path.join(ckpt, "ref_2"))


def _write_manifest(run_dir, model_dir, text):
    with open(os.path.join(run_dir, "checkpoint", model_dir, "manifest.json"), "w") as fh:
        fh.write(text)


def _not_json(run_dir):
    _write_manifest(run_dir, "ref_1", "{not json")


def _no_kind(run_dir):
    _write_manifest(run_dir, "task_1", json.dumps({"format_version": 1}))


def _no_hidden_dim(run_dir):
    path = os.path.join(run_dir, "checkpoint", "ref_2", "manifest.json")
    with open(path) as fh:
        manifest = json.load(fh)
    del manifest["hidden_dim"]
    _write_manifest(run_dir, "ref_2", json.dumps(manifest))


@pytest.mark.parametrize("damage", [_partial, _other_config, _swapped, _not_json, _no_kind,
                                    _no_hidden_dim],
                         ids=["partial", "other-config", "swapped", "not-json", "no-kind",
                              "no-hidden-dim"])
def test_diagnose_rejects_unusable_references(bounds_run_dir, tmp_path, capsys, damage):
    run_dir = _copy_run(bounds_run_dir, tmp_path)
    report = os.path.join(run_dir, "bounds_report.csv")
    before = _read(report)
    damage(run_dir)
    assert main(["diagnose", run_dir]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err
    assert _read(report) == before


@pytest.mark.parametrize("mode", ["gr", "gr-hier"])
def test_diagnose_on_replay_runs_fits_the_references(tmp_path, mode):
    raw = json.loads(json.dumps(pinned_config(str(tmp_path / "runs")).raw))
    raw["mode"] = mode
    raw["train"]["hier_latent_dims"] = [LATENT, 2]
    cfg = parse_config(json.dumps(raw))
    run_dir = cmd_train(cfg)
    assert not glob.glob(os.path.join(run_dir, "checkpoint", "ref_*"))
    stream = build_stream(cfg)
    snapshots = [load_checkpoint(os.path.join(run_dir, "checkpoint", f"task_{i + 1}"))[1]
                 for i in range(len(stream))]
    expected = reference_diagnose_rows(stream, cfg.train, snapshots, Rng(cfg.train.seed),
                                       cfg.bounds_sample_size, cfg.bounds_aux_epochs)
    want = tmp_path / "expected.csv"
    write_bounds_csv(expected, str(want), n_tasks=len(stream), config_hash=config_hash(cfg))
    assert _read(cmd_diagnose(run_dir)) == _read(str(want))
