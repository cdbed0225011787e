"""What a run writes to disk: checkpoints and CSV tables.

A checkpoint is a JSON manifest plus one little-endian float64 blob per array.
The manifest is the model's own ``spec()`` (for a graph: node kinds, edge
weights, task ids, reference bounds) and a name/shape/file entry per
parameter array. Buffers are written byte-exact, so a load reproduces every
evaluation output bit for bit.

Every table goes through ``write_table``: a header from the first row's keys,
then one line per row, floats at full precision.
"""

from __future__ import annotations

import csv
import json
import os

import numpy as np

from .errors import ContractError, FormatError
from .graph import GraphModel
from .vae import HierVae, VaeComponent

FORMAT_VERSION = 1
MODEL_CLASSES = (GraphModel, VaeComponent, HierVae)  # each names its checkpoint kind


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
    return np.frombuffer(blob, dtype="<f8").reshape(shape).astype(np.float64)


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
    """Write ``model``'s manifest, its ``spec()`` with the format version, the
    array entries and ``extra``, and one blob per array of ``params()``."""
    os.makedirs(directory, exist_ok=True)
    params = model.params()
    entries = _array_entries(params)
    manifest = {**model.spec(), "format_version": FORMAT_VERSION, "arrays": entries,
                "extra": extra or {}}
    _write_arrays(directory, params, entries)
    with open(os.path.join(directory, "manifest.json"), "w") as fh:
        json.dump(manifest, fh, indent=1, sort_keys=True)


def load_checkpoint(directory: str):
    """Rebuild the saved model by the class its ``kind`` names; returns (kind,
    model, manifest). A manifest that does not parse, lacks a field its kind
    needs or holds one that cannot build the model is a FormatError."""
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
