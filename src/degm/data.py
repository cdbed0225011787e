"""Datasets, IDX ingestion, label splits, pixel transforms, synthetic tasks,
and the task streams a config describes.

Every dataset is a flat [n, dim] float64 array with values in [0, 1], plus
optional integer labels. Image-shaped operations (rotation, pooling, the grid
pattern generators) require dim to be a perfect square.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .errors import ConfigError, ContractError, FormatError
from .nnkit import Rng

if TYPE_CHECKING:  # degm.config imports this module
    from .config import ExperimentConfig

IDX_IMAGES_MAGIC = 0x00000803
IDX_LABELS_MAGIC = 0x00000801

SYNTHETIC_KINDS = ("half-active-top", "half-active-bottom", "bars", "stripes", "gauss-blob")
DESK_SCALE = 2  # --desk-scale pools each image side by this factor


@dataclass
class Dataset:
    data: np.ndarray
    labels: np.ndarray | None = None

    def __post_init__(self):
        self.data = np.asarray(self.data, dtype=np.float64)
        if self.data.ndim != 2 or self.data.shape[0] < 1:
            raise ContractError(f"dataset must be a nonempty [n, dim] array, got {self.data.shape}")
        if self.data.min() < 0.0 or self.data.max() > 1.0:
            raise ContractError("dataset values must lie in [0, 1]")
        if self.labels is not None:
            self.labels = np.asarray(self.labels, dtype=np.int64)
            if self.labels.shape != (self.data.shape[0],):
                raise ContractError("labels must be one integer per sample")

    @property
    def n(self) -> int:
        return self.data.shape[0]

    @property
    def dim(self) -> int:
        return self.data.shape[1]

    def subset(self, indices) -> "Dataset":
        labels = None if self.labels is None else self.labels[indices]
        return Dataset(self.data[indices].copy(), labels)


def _square_side(dim: int) -> int:
    side = int(round(np.sqrt(dim)))
    if side * side != dim:
        raise ContractError(f"operation needs square images, dim {dim} is not a perfect square")
    return side


# -- IDX container -------------------------------------------------------------

def load_idx(path: str) -> Dataset:
    """Decode big-endian IDX images (scaled to [0,1]) or labels.

    Label files come back as a 1-pixel dataset carrying the labels, so both
    kinds flow through the same return type.
    """
    try:
        with open(path, "rb") as fh:
            blob = fh.read()
    except OSError as err:
        raise FormatError(f"{path}: {err.strerror}") from err
    if len(blob) < 8:
        raise FormatError(f"{path}: truncated header at offset {len(blob)}")
    magic = struct.unpack(">I", blob[:4])[0]
    if magic == IDX_IMAGES_MAGIC:
        if len(blob) < 16:
            raise FormatError(f"{path}: truncated image dimensions at offset {len(blob)}")
        n, rows, cols = struct.unpack(">III", blob[4:16])
        expected = 16 + n * rows * cols
        if len(blob) != expected:
            raise FormatError(f"{path}: expected {expected} bytes, file ends at offset {len(blob)}")
        pixels = np.frombuffer(blob, dtype=np.uint8, offset=16).astype(np.float64) / 255.0
        return Dataset(pixels.reshape(n, rows * cols))
    if magic == IDX_LABELS_MAGIC:
        n = struct.unpack(">I", blob[4:8])[0]
        if len(blob) != 8 + n:
            raise FormatError(f"{path}: expected {8 + n} bytes, file ends at offset {len(blob)}")
        labels = np.frombuffer(blob, dtype=np.uint8, offset=8).astype(np.int64)
        return Dataset(np.zeros((n, 1)), labels)
    raise FormatError(f"{path}: bad magic 0x{magic:08x} at offset 0")


def save_idx_images(path: str, data: np.ndarray, rows: int, cols: int) -> None:
    """Encode [0,1] values back to the byte container (values scaled by 255)."""
    data = np.asarray(data)
    if data.shape[1] != rows * cols:
        raise ContractError(f"dim {data.shape[1]} != {rows}x{cols}")
    with open(path, "wb") as fh:
        fh.write(struct.pack(">IIII", IDX_IMAGES_MAGIC, data.shape[0], rows, cols))
        fh.write(np.round(data * 255.0).astype(np.uint8).tobytes())


def save_idx_labels(path: str, labels: np.ndarray) -> None:
    with open(path, "wb") as fh:
        fh.write(struct.pack(">II", IDX_LABELS_MAGIC, len(labels)))
        fh.write(np.asarray(labels, dtype=np.uint8).tobytes())


def cmd_gen_synthetic(kind: str, n: int, dim: int, seed: int, out_prefix: str) -> None:
    side = int(round(np.sqrt(dim)))
    if side * side != dim:
        raise ConfigError("gen-synthetic writes IDX images and needs a square dim")
    data = synthetic_task(kind, n, dim, Rng(seed).spawn(f"data:{kind}"))
    save_idx_images(out_prefix + "-images.idx", data.data, side, side)
    save_idx_labels(out_prefix + "-labels.idx", np.zeros(n, dtype=np.int64))


def attach_labels(images: Dataset, labels: Dataset) -> Dataset:
    if labels.labels is None:
        raise ContractError("second argument must be a label dataset")
    return Dataset(images.data, labels.labels)


# -- splits and transforms ---------------------------------------------------------

def split_by_labels(train: Dataset, test: Dataset, groups: list[set]) -> list[tuple[str, Dataset, Dataset]]:
    """One (name, train, test) triple per disjoint label group."""
    if train.labels is None or test.labels is None:
        raise ConfigError("split_by_labels needs labelled datasets")
    seen: set = set()
    cleaned = []
    for group in groups:
        group = set(int(g) for g in group)
        if not group:
            raise ConfigError("empty label group")
        if seen & group:
            raise ConfigError(f"label groups overlap on {sorted(seen & group)}")
        seen |= group
        cleaned.append(group)
    out = []
    for group in cleaned:
        name = "labels-" + "-".join(str(g) for g in sorted(group))
        tr = np.isin(train.labels, sorted(group))
        te = np.isin(test.labels, sorted(group))
        if not tr.any() or not te.any():
            raise ConfigError(f"label group {sorted(group)} matches no samples")
        out.append((name, train.subset(tr), test.subset(te)))
    return out


def transform(d: Dataset, spec: str) -> Dataset:
    """Apply one named transform: none | invert | rotate90 | binarize[:p]."""
    name, _, arg = spec.partition(":")
    if name == "none":
        return d
    if name == "invert":
        return Dataset(1.0 - d.data, d.labels)
    if name == "rotate90":
        side = _square_side(d.dim)
        imgs = d.data.reshape(d.n, side, side)
        return Dataset(np.rot90(imgs, k=1, axes=(1, 2)).reshape(d.n, d.dim), d.labels)
    if name == "binarize":
        try:
            threshold = float(arg) if arg else 0.5
        except ValueError:
            threshold = float("nan")
        if not np.isfinite(threshold):
            raise ConfigError(f"transform {spec!r} needs a finite threshold")
        return Dataset((d.data > threshold).astype(np.float64), d.labels)
    raise ConfigError(f"unknown transform {spec!r}")


def transform_chain(d: Dataset, specs: list[str]) -> Dataset:
    for spec in specs:
        d = transform(d, spec)
    return d


def downsample(d: Dataset) -> Dataset:
    """Mean-pool square images by DESK_SCALE x DESK_SCALE blocks (the
    desk-scale knob)."""
    side = _square_side(d.dim)
    if side % DESK_SCALE:
        raise ContractError(f"side {side} not divisible by {DESK_SCALE}")
    out = side // DESK_SCALE
    imgs = d.data.reshape(d.n, out, DESK_SCALE, out, DESK_SCALE)
    return Dataset(imgs.mean(axis=(2, 4)).reshape(d.n, out * out), d.labels)


# -- synthetic generators --------------------------------------------------------------

def synthetic_task(kind: str, n: int, dim: int, rng: Rng, center: tuple | None = None) -> Dataset:
    """Small binary/graded pattern families with documented, mostly disjoint support.

    half-active-top/-bottom light up only one half of the flattened vector;
    bars activate even columns, stripes even rows (each independently with
    probability 0.7); gauss-blob is a radial bump at a fixed centre with
    per-sample jitter.
    """
    if kind not in SYNTHETIC_KINDS:
        raise ConfigError(f"unknown synthetic kind {kind!r}")
    if kind in ("half-active-top", "half-active-bottom"):
        half = dim // 2
        x = np.zeros((n, dim))
        active = rng.bernoulli(np.full((n, half), 0.6))
        if kind == "half-active-top":
            x[:, :half] = active
        else:
            x[:, dim - half:] = active
        return Dataset(x)
    side = _square_side(dim)
    if kind in ("bars", "stripes"):
        lanes = rng.bernoulli(np.full((n, (side + 1) // 2), 0.7))
        imgs = np.zeros((n, side, side))
        if kind == "bars":
            imgs[:, :, 0::2] = lanes[:, None, :]
        else:
            imgs[:, 0::2, :] = lanes[:, :, None]
        return Dataset(imgs.reshape(n, dim))
    # gauss-blob
    if center is None:
        center = (side / 2.0, side / 2.0)
    r = np.arange(side)
    grid_r, grid_c = np.meshgrid(r, r, indexing="ij")
    spread = max(side / 6.0, 1.0)
    jitter = rng.normal((n, 2)) * 0.5
    cr = center[0] + jitter[:, 0:1, None]
    cc = center[1] + jitter[:, 1:2, None]
    dist = (grid_r[None] - cr) ** 2 + (grid_c[None] - cc) ** 2
    imgs = np.exp(-dist / (2.0 * spread ** 2))
    return Dataset(np.clip(imgs.reshape(n, dim), 0.0, 1.0))


# -- task streams ---------------------------------------------------------------------

@dataclass
class Task:
    name: str
    train: Dataset
    test: Dataset

    def __post_init__(self):
        if self.train.dim != self.test.dim:
            raise ConfigError(f"task {self.name!r}: train dim {self.train.dim} != test dim {self.test.dim}")


@dataclass
class TaskStream:
    tasks: list[Task]

    def __post_init__(self):
        if not self.tasks:
            raise ConfigError("task stream is empty")
        names = [t.name for t in self.tasks]
        repeated = sorted({n for n in names if names.count(n) > 1})
        if repeated:
            # every random stream is keyed by task name, so repeats would share draws
            raise ConfigError(f"task names must be unique, repeated: {repeated}")
        dims = {t.train.dim for t in self.tasks}
        if len(dims) != 1:
            raise ConfigError(f"tasks disagree on input_dim: {sorted(dims)}")

    @property
    def input_dim(self) -> int:
        return self.tasks[0].train.dim

    def __len__(self) -> int:
        return len(self.tasks)


def _load_split(spec: dict, which: str):
    images = load_idx(spec[f"{which}_images"])
    labels = spec[f"{which}_labels"]
    return images if labels is None else attach_labels(images, load_idx(labels))


def _task_data(spec: dict) -> list[tuple]:
    """(name, train, test) of each task a spec describes, before its transforms.
    Synthetic data is keyed by the task's seed and name."""
    if spec["source"] == "synthetic":
        center = None if spec["center"] is None else tuple(spec["center"])
        train, test = (synthetic_task(spec["kind"], spec[f"n_{which}"], spec["dim"],
                                      Rng(spec["seed"]).spawn(f"data:{spec['name']}:{which}"),
                                      center=center)
                       for which in ("train", "test"))
        return [(spec["name"], train, test)]
    train, test = _load_split(spec, "train"), _load_split(spec, "test")
    if spec["split_groups"] is not None:
        groups = [set(g) for g in spec["split_groups"]]
        return [(f"{spec['name']}-{gname}", tr, te)
                for gname, tr, te in split_by_labels(train, test, groups)]
    if spec["labels"] is not None:
        [(_, train, test)] = split_by_labels(train, test, [set(spec["labels"])])
    return [(spec["name"], train, test)]


def build_stream(cfg: ExperimentConfig) -> TaskStream:
    """The task stream of the config's specs, their defaults filled by
    degm.config; ``order_streams`` checks its orderings first."""
    tasks = []
    for spec in cfg.tasks:
        for name, train, test in _task_data(spec):
            train, test = (transform_chain(d, spec["transforms"]) for d in (train, test))
            if cfg.desk_scale:
                train, test = downsample(train), downsample(test)
            tasks.append(Task(name, train, test))
    order_streams(cfg, tasks)
    return TaskStream(tasks)


def order_streams(cfg: ExperimentConfig, tasks: list[Task]) -> list[TaskStream]:
    """One stream per configured ordering, none without ``orders``. Each
    ordering must name some of ``tasks`` and be a permutation of the first."""
    by_name = {t.name: t for t in tasks}
    streams = []
    for i, names in enumerate(cfg.orders or ()):
        missing = [n for n in names if n not in by_name]
        if missing:
            raise ConfigError(f"orders[{i}] references unknown tasks {missing}")
        if sorted(names) != sorted(cfg.orders[0]):
            raise ConfigError(f"orders[{i}] is not a permutation of orders[0]")
        streams.append(TaskStream([by_name[n] for n in names]))
    return streams
