"""IDX container, label splits, transforms, and the synthetic pattern families."""

import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from degm.data import (
    Dataset,
    attach_labels,
    downsample,
    load_idx,
    save_idx_images,
    save_idx_labels,
    split_by_labels,
    synthetic_task,
    transform,
    transform_chain,
)
from degm.errors import ConfigError, ContractError, FormatError
from degm.nnkit import Rng

from helpers import integers


# --- IDX -----------------------------------------------------------------------

def test_load_idx_handcrafted_fixture(tmp_path):
    path = tmp_path / "two.idx"
    pixels = bytes([0, 255, 128, 64, 255, 0, 0, 255])
    path.write_bytes(struct.pack(">IIII", 0x803, 2, 2, 2) + pixels)
    d = load_idx(str(path))
    assert d.data.shape == (2, 4)
    np.testing.assert_array_equal(d.data[0], np.array([0, 255, 128, 64]) / 255.0)
    np.testing.assert_array_equal(d.data[1], np.array([255, 0, 0, 255]) / 255.0)


def test_load_idx_labels(tmp_path):
    path = tmp_path / "labels.idx"
    path.write_bytes(struct.pack(">II", 0x801, 3) + bytes([7, 0, 2]))
    d = load_idx(str(path))
    np.testing.assert_array_equal(d.labels, [7, 0, 2])


def test_load_idx_empty_file(tmp_path):
    path = tmp_path / "empty.idx"
    path.write_bytes(b"")
    with pytest.raises(FormatError):
        load_idx(str(path))


def test_load_idx_bad_magic(tmp_path):
    path = tmp_path / "bad.idx"
    path.write_bytes(struct.pack(">IIII", 0xdeadbeef, 1, 1, 1) + b"\x00")
    with pytest.raises(FormatError, match="magic"):
        load_idx(str(path))


def test_load_idx_truncated_payload(tmp_path):
    path = tmp_path / "short.idx"
    path.write_bytes(struct.pack(">IIII", 0x803, 2, 2, 2) + b"\x01\x02")
    with pytest.raises(FormatError, match="offset"):
        load_idx(str(path))


def test_idx_round_trip_bit_identical(tmp_path):
    data = integers(Rng(0), 0, 256, (5, 9)).astype(np.float64) / 255.0
    img_path, lab_path = tmp_path / "img.idx", tmp_path / "lab.idx"
    save_idx_images(str(img_path), data, 3, 3)
    save_idx_labels(str(lab_path), np.array([0, 1, 2, 3, 4]))
    loaded = attach_labels(load_idx(str(img_path)), load_idx(str(lab_path)))
    assert np.array_equal(loaded.data, data)
    np.testing.assert_array_equal(loaded.labels, [0, 1, 2, 3, 4])


# --- dataset contract -------------------------------------------------------------

def test_dataset_rejects_out_of_range():
    with pytest.raises(ContractError):
        Dataset(np.array([[1.2]]))


def test_dataset_rejects_empty():
    with pytest.raises(ContractError):
        Dataset(np.zeros((0, 3)))


# --- splits --------------------------------------------------------------------------

def four_class_toy():
    rng = Rng(1)
    data = rng.uniform(0, 1, (40, 4))
    labels = np.repeat([0, 1, 2, 3], 10)
    return Dataset(data, labels), Dataset(data[::2].copy(), labels[::2].copy())


def test_split_counts_conserved():
    train, test = four_class_toy()
    tasks = split_by_labels(train, test, [{0, 1}, {2, 3}])
    assert len(tasks) == 2
    assert sum(t[1].n for t in tasks) == train.n
    assert sum(t[2].n for t in tasks) == test.n
    assert tasks[0][0] == "labels-0-1"


def test_split_rejects_empty_group():
    train, test = four_class_toy()
    with pytest.raises(ConfigError):
        split_by_labels(train, test, [set(), {1}])


def test_split_rejects_overlap():
    train, test = four_class_toy()
    with pytest.raises(ConfigError, match="overlap"):
        split_by_labels(train, test, [{0, 1}, {1, 2}])


def test_split_never_duplicates_indices():
    train, test = four_class_toy()
    tasks = split_by_labels(train, test, [{0}, {1}, {2, 3}])
    stacked = np.concatenate([t[1].data for t in tasks])
    assert stacked.shape[0] == train.n
    # every original row appears exactly once
    order = np.lexsort(stacked.T)
    orig = np.lexsort(train.data.T)
    np.testing.assert_array_equal(stacked[order], train.data[orig])


# --- transforms ----------------------------------------------------------------------------

def test_invert_is_involution():
    d = Dataset(Rng(2).uniform(0, 1, (6, 9)))
    np.testing.assert_array_equal(transform(transform(d, "invert"), "invert").data, d.data)


def test_rotate90_four_times_is_identity():
    d = Dataset(Rng(3).uniform(0, 1, (4, 16)))
    out = d
    for _ in range(4):
        out = transform(out, "rotate90")
    np.testing.assert_array_equal(out.data, d.data)


def test_rotate_rejects_non_square():
    with pytest.raises(ContractError):
        transform(Dataset(np.zeros((2, 6))), "rotate90")


def test_binarize_threshold():
    d = Dataset(np.array([[0.7, 0.5, 0.2]]))
    np.testing.assert_array_equal(transform(d, "binarize:0.5").data, [[1.0, 0.0, 0.0]])


def test_transform_chain_and_unknown_name():
    d = Dataset(np.array([[0.7, 0.1]]))
    out = transform_chain(d, ["invert", "binarize:0.5"])
    np.testing.assert_array_equal(out.data, [[0.0, 1.0]])
    with pytest.raises(ConfigError):
        transform(d, "sharpen")


@given(st.sampled_from(["invert", "rotate90", "binarize:0.3", "none"]),
       st.integers(min_value=0, max_value=10_000))
@settings(max_examples=100, deadline=None)
def test_transforms_preserve_unit_range(name, seed):
    d = Dataset(Rng(seed).uniform(0, 1, (3, 16)))
    out = transform(d, name)
    assert out.data.min() >= 0.0 and out.data.max() <= 1.0


def test_downsample_mean_pool():
    img = np.arange(16, dtype=np.float64).reshape(1, 16) / 15.0
    out = downsample(Dataset(img))
    expected = img.reshape(4, 4)
    pooled = expected.reshape(2, 2, 2, 2).mean(axis=(1, 3)).reshape(1, 4)
    np.testing.assert_allclose(out.data, pooled)


# --- synthetic tasks ------------------------------------------------------------------------

def test_half_active_top_support():
    d = synthetic_task("half-active-top", 50, 16, Rng(4))
    assert d.data[:, 8:].sum() == 0.0
    assert d.data[:, :8].sum() > 0.0


def test_half_active_bottom_support():
    d = synthetic_task("half-active-bottom", 50, 16, Rng(5))
    assert d.data[:, :8].sum() == 0.0


def test_bars_and_stripes_have_distant_means():
    dim = 64
    bars = synthetic_task("bars", 2000, dim, Rng(6)).data.mean(axis=0)
    stripes = synthetic_task("stripes", 2000, dim, Rng(7)).data.mean(axis=0)
    assert np.abs(bars - stripes).sum() > 0.3 * dim


def test_gauss_blob_range_and_shape():
    d = synthetic_task("gauss-blob", 20, 25, Rng(8), center=(1.0, 3.0))
    assert d.data.shape == (20, 25)
    assert d.data.min() >= 0.0 and d.data.max() <= 1.0


def test_synthetic_seed_determinism():
    a = synthetic_task("bars", 30, 36, Rng(9)).data
    b = synthetic_task("bars", 30, 36, Rng(9)).data
    assert np.array_equal(a, b)


def test_synthetic_unknown_kind():
    with pytest.raises(ConfigError):
        synthetic_task("plaid", 10, 16, Rng(0))
