"""What a command writes to disk: checkpoints, CSV tables and JSON files,
each written by ``write_record``.

A checkpoint is a JSON manifest plus one blob, ``params.bin``: the
little-endian float64 bytes of the model's tensors in ``params()`` order.
The manifest is the model's own ``spec()`` (for a graph: node kinds, edge
weights, task ids, reference bounds), the Gaussian decoder's ``sigma``, the
layout (each tensor's name and shape, in order) and the blob's sha256. Every
model's ``sigma`` is ``DEFAULT_SIGMA``: a save writes it and a load refuses
any other value. A load reads the blob into the parameters of the model that
``from_spec`` builds, and refuses another layout, a blob of another length,
a non-finite value or another sha256. Buffers are written byte-exact, so a
load reproduces every evaluation output bit for bit.

Every table goes through ``write_table``: a header from the first row's keys,
then one line per row, floats at full precision.

A command's run function returns a ``RunRecord``, and ``write_record`` writes
its tables, models and JSON files into a directory. Given the config hash, it
is the one writer of that hash into tables and manifests: each table gets a
trailing config_hash column, but for those the record names ``unhashed``,
and each manifest has config_hash in its ``extra``. Every JSON file, a
manifest too, goes through ``write_json``.
"""

from __future__ import annotations

import csv
import hashlib
import json
import os
import sys
from dataclasses import dataclass, field

import numpy as np

from .errors import ContractError, FormatError
from .graph import GraphModel
from .nnkit import DEFAULT_SIGMA
from .vae import HierVae, VaeComponent

FORMAT_VERSION = 2
BLOB = "params.bin"  # a checkpoint's one blob, beside its manifest.json
MODEL_CLASSES = (GraphModel, VaeComponent, HierVae)  # each names its checkpoint kind


def _layout(params) -> list[dict]:
    return [{"name": p.name, "shape": list(p.data.shape)} for p in params]


def save_checkpoint(directory: str, model, extra: dict | None = None) -> None:
    """Write ``model``'s tensors, one after another, into ``params.bin``, and
    its manifest: its ``spec()`` with ``sigma``, the format version, the
    layout, the blob's sha256 and ``extra``."""
    os.makedirs(directory, exist_ok=True)
    params = model.params()
    digest = hashlib.sha256()
    with open(os.path.join(directory, BLOB), "wb") as fh:
        for p in params:  # tensor by tensor, so no second copy of the model
            data = np.ascontiguousarray(p.data, dtype="<f8")
            digest.update(data)
            fh.write(data)
    manifest = {**model.spec(), "sigma": float(DEFAULT_SIGMA), "format_version": FORMAT_VERSION,
                "layout": _layout(params), "sha256": digest.hexdigest(), "extra": extra or {}}
    write_json(os.path.join(directory, "manifest.json"), manifest)


def load_checkpoint(directory: str):
    """Rebuild the saved model by the class its ``kind`` names and read
    ``params.bin`` into its parameters; returns (kind, model, manifest). A
    manifest that does not parse, is of another format version, lacks a
    field its kind needs, holds another ``sigma``, a field that cannot build
    the model or a layout other than that model's is a FormatError naming
    the manifest; a missing blob, or one of another length, holding a
    non-finite value or of another sha256, one naming the blob."""
    path = os.path.join(directory, "manifest.json")
    if not os.path.exists(path):
        raise FormatError(f"no manifest at {path}")
    with open(path) as fh:
        try:
            manifest = json.load(fh)
        except json.JSONDecodeError as err:
            raise FormatError(f"{path} is not valid JSON: {err}") from err
    version = manifest.get("format_version") if isinstance(manifest, dict) else None
    if version != FORMAT_VERSION:
        raise FormatError(f"{path}: unsupported checkpoint format version {version!r}; "
                          f"this version reads {FORMAT_VERSION}")
    try:  # every key read below is a manifest field
        kind = manifest["kind"]
        model_class = next((c for c in MODEL_CLASSES if c.kind == kind), None)
        if model_class is None:
            raise FormatError(f"{path}: unknown checkpoint kind {kind!r}")
        if manifest["sigma"] != float(DEFAULT_SIGMA):
            raise FormatError(f"{path} holds sigma {manifest['sigma']!r}; every model's "
                              f"decoder has sigma {float(DEFAULT_SIGMA)!r}")
        model = model_class.from_spec(manifest)
        layout, recorded = manifest["layout"], manifest["sha256"]
    except KeyError as err:
        raise FormatError(f"{path} lacks the field {err}") from err
    except FormatError:
        raise
    except (TypeError, ValueError) as err:  # ContractError and DimensionError too
        raise FormatError(f"{path} holds a field that cannot build the model: {err}") from err
    params = model.params()
    if layout != _layout(params):
        raise FormatError(f"{path}: its layout is not that of the {kind} model its fields build")
    blob = os.path.join(directory, BLOB)
    if not os.path.isfile(blob):
        raise FormatError(f"{blob}: missing")
    expected, size = sum(p.data.nbytes for p in params), os.path.getsize(blob)
    if size != expected:
        raise FormatError(f"{blob}: expected {expected} bytes, got {size}")
    digest = hashlib.sha256()
    with open(blob, "rb") as fh:
        for p in params:  # into the model's own views, so no second copy of the model
            fh.readinto(p.data)
            digest.update(p.data)
            if sys.byteorder == "big":
                p.data.byteswap(inplace=True)
    if not all(np.isfinite(p.data).all() for p in params):
        raise FormatError(f"{blob}: holds a non-finite value")
    if digest.hexdigest() != recorded:
        raise FormatError(f"{blob}: sha256 {digest.hexdigest()} is not the manifest's {recorded!r}")
    return kind, model, manifest


def write_table(path: str, rows: list[dict], config_hash: str | None = None) -> None:
    """Write ``rows`` as CSV, with a trailing config_hash column when given."""
    if not rows:
        raise ContractError(f"refusing to write empty table {path}")
    if config_hash is not None:
        rows = [{**r, "config_hash": config_hash} for r in rows]
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)


def write_json(path: str, doc) -> None:
    """Write ``doc`` as JSON, its keys sorted, indented by one space."""
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)


@dataclass
class RunRecord:
    """What a command writes and reports: its tables by file name, its models
    by path relative to the directory, each with its manifest ``extra``, its
    summary.json fields, the seconds of its named phases, the names of the
    tables written without the config_hash column, and its JSON files by
    file name."""

    tables: dict[str, list[dict]] = field(default_factory=dict)
    models: dict[str, tuple[object, dict]] = field(default_factory=dict)
    summary: dict = field(default_factory=dict)
    phases: dict[str, float] = field(default_factory=dict)
    unhashed: tuple[str, ...] = ()
    documents: dict[str, object] = field(default_factory=dict)


def write_record(directory: str, record: RunRecord, config_hash: str | None = None) -> None:
    """Write ``record``'s tables, models and JSON files into ``directory``,
    which must exist; with ``config_hash``, as the last column of each table
    not named in ``record.unhashed`` and in each model's ``extra``."""
    for name, rows in record.tables.items():
        write_table(os.path.join(directory, name), rows,
                    None if name in record.unhashed else config_hash)
    for path, (model, extra) in record.models.items():
        hashed = extra if config_hash is None else {**extra, "config_hash": config_hash}
        save_checkpoint(os.path.join(directory, path), model, hashed)
    for name, doc in record.documents.items():
        write_json(os.path.join(directory, name), doc)
