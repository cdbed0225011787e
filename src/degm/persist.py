"""What a command writes to disk: checkpoints, CSV tables and JSON files,
each written by ``write_record``.

A checkpoint is a JSON manifest plus one little-endian float64 blob per array.
The manifest is the model's own ``spec()`` (for a graph: node kinds, edge
weights, task ids, reference bounds), the Gaussian decoder's ``sigma``, and
a name/shape/file entry per parameter array. Every model's ``sigma`` is
``DEFAULT_SIGMA``: a save writes it and a load refuses any other value. Buffers are written byte-exact, so a load reproduces every
evaluation output bit for bit.

Every table goes through ``write_table``: a header from the first row's keys,
then one line per row, floats at full precision.

A command's run function returns a ``RunRecord``, and ``write_record`` writes
its tables, models and JSON files into a directory: each table with a
trailing config_hash column, but for ``UNHASHED_TABLES``, and each manifest
with config_hash in its ``extra``. Every JSON file, a manifest too, goes
through ``write_json``.
"""

from __future__ import annotations

import csv
import json
import os
from dataclasses import dataclass, field

import numpy as np

from .errors import ContractError, FormatError
from .graph import GraphModel
from .nnkit import DEFAULT_SIGMA
from .vae import HierVae, VaeComponent

FORMAT_VERSION = 1
MODEL_CLASSES = (GraphModel, VaeComponent, HierVae)  # each names its checkpoint kind
# metrics.csv carries the hash as its run_id; v_matrix.csv carries none
UNHASHED_TABLES = ("metrics.csv", "v_matrix.csv")


def _array_entries(params):
    entries = []
    for i, p in enumerate(params):
        entries.append({"name": p.name, "shape": list(p.data.shape), "file": f"arr_{i:04d}.bin"})
    return entries


def _write_arrays(directory: str, params, entries) -> None:
    for p, e in zip(params, entries):
        with open(os.path.join(directory, e["file"]), "wb") as fh:
            fh.write(p.data.astype("<f8").tobytes())


def _read_array(directory: str, entry) -> np.ndarray:
    path = os.path.join(directory, entry["file"])
    with open(path, "rb") as fh:
        blob = fh.read()
    shape = tuple(entry["shape"])
    expected = int(np.prod(shape)) * 8
    if len(blob) != expected:
        raise FormatError(f"{path}: expected {expected} bytes, got {len(blob)}")
    arr = np.frombuffer(blob, dtype="<f8").reshape(shape).astype(np.float64)
    if not np.isfinite(arr).all():
        raise FormatError(f"{path}: holds a non-finite value")
    return arr


def _load_into(params, directory: str, entries) -> None:
    by_name = {e["name"]: e for e in entries}
    for p in params:
        if p.name not in by_name:
            raise FormatError(f"checkpoint missing array {p.name!r}")
        arr = _read_array(directory, by_name[p.name])
        if arr.shape != p.data.shape:
            raise FormatError(f"array {p.name!r}: shape {arr.shape} != expected {p.data.shape}")
        p.data[:] = arr


def save_checkpoint(directory: str, model, extra: dict | None = None) -> None:
    """Write ``model``'s manifest, its ``spec()`` with ``sigma``, the format
    version, the array entries and ``extra``, and one blob per array of
    ``params()``."""
    os.makedirs(directory, exist_ok=True)
    params = model.params()
    entries = _array_entries(params)
    manifest = {**model.spec(), "sigma": float(DEFAULT_SIGMA), "format_version": FORMAT_VERSION,
                "arrays": entries, "extra": extra or {}}
    _write_arrays(directory, params, entries)
    write_json(os.path.join(directory, "manifest.json"), manifest)


def load_checkpoint(directory: str):
    """Rebuild the saved model by the class its ``kind`` names; returns (kind,
    model, manifest). A manifest that does not parse, lacks a field its kind
    needs, holds another ``sigma`` or a field that cannot build the model is
    a FormatError."""
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
        raise FormatError(f"unsupported checkpoint format version {version!r}")
    try:  # every key read below is a manifest field
        kind = manifest["kind"]
        model_class = next((c for c in MODEL_CLASSES if c.kind == kind), None)
        if model_class is None:
            raise FormatError(f"unknown checkpoint kind {kind!r}")
        if manifest["sigma"] != float(DEFAULT_SIGMA):
            raise FormatError(f"{path} holds sigma {manifest['sigma']!r}; every model's "
                              f"decoder has sigma {float(DEFAULT_SIGMA)!r}")
        model = model_class.from_spec(manifest)
        _load_into(model.params(), directory, manifest["arrays"])
        return kind, model, manifest
    except KeyError as err:
        raise FormatError(f"{path} lacks the field {err}") from err
    except FormatError:
        raise
    except (OSError, TypeError, ValueError) as err:  # ContractError and DimensionError too
        raise FormatError(f"{path} holds a field that cannot build the model: {err}") from err


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
    unhashed: tuple[str, ...] = UNHASHED_TABLES
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
