"""Experiment configuration: one table per config section and one walker.

Each table row gives a key, its check and its default; a default that is a
function is computed from the keys above it, and the train defaults are those
of ``TrainConfig``. The walker rejects unknown keys by their dotted path
(``train.'lrr'``, ``tasks[0].'knd'``), checks each given value, fills each
absent one and words every error. ``_check_links`` then applies the rules that
tie fields together. The config hash covers the walked config with each task
spec as written, so task defaults are not hashed.
"""

from __future__ import annotations

import copy
import hashlib
import json
import math
from dataclasses import dataclass

from .data import SYNTHETIC_KINDS
from .errors import ConfigError
from .lifelong import TrainConfig

REQUIRED = object()  # the default of a key that must be given


# -- checks: each takes (value, path) and returns the value it accepts -------------------

def _rule(accepts, wording: str):
    def check(value, path: str):
        if not accepts(value):
            raise ConfigError(f"{path} must be {wording}, got {value!r}")
        return value
    return check


def count(minimum: int = 1):
    return _rule(lambda v: type(v) is int and v >= minimum, f"an integer >= {minimum}")


def real(minimum: float = -math.inf, strict: bool = False):
    """A finite number at least ``minimum``, or above it when ``strict``."""
    def accepts(v):
        finite = type(v) is int or type(v) is float and math.isfinite(v)
        return finite and (v > minimum if strict else v >= minimum)
    bound = f" {'>' if strict else '>='} {minimum}" if minimum > -math.inf else ""
    return _rule(accepts, "a finite number" + bound)


def choice(*options: str):
    return _rule(lambda v: isinstance(v, str) and v in options, f"one of {options}")


BOOL = _rule(lambda v: isinstance(v, bool), "true or false")
STRING = _rule(lambda v: isinstance(v, str), "a string")


def optional(check):
    return lambda value, path: None if value is None else check(value, path)


def list_of(item, size: int | None = None, at_least: int = 0):
    wording = "a list" + (f" of {size} items" if size is not None else
                          f" of at least {at_least} items" if at_least else "")
    shape = _rule(lambda v: isinstance(v, list) and len(v) >= at_least
                  and size in (None, len(v)), wording)
    return lambda value, path: [item(v, f"{path}[{i}]") for i, v in enumerate(shape(value, path))]


OBJECT = _rule(lambda v: isinstance(v, dict), "an object")


def section(rows):
    """An object with the keys of ``rows``; an absent section is an empty one."""
    def check(value, path: str):
        OBJECT(value, path or "config")
        prefix = f"{path}." if path else ""
        unknown = value.keys() - {key for key, _, _ in rows}
        if unknown:
            raise ConfigError(f"unknown key {prefix}{min(unknown)!r}")
        out = {}
        for key, check_value, default in rows:
            if key in value or isinstance(default, dict):
                out[key] = check_value(value.get(key, default), prefix + key)
            elif default is REQUIRED:
                raise ConfigError(f"{prefix}{key} is required")
            else:
                out[key] = default(out) if callable(default) else copy.deepcopy(default)
        return out
    return check


# -- the tables -------------------------------------------------------------------------

DEFAULT_TRAIN = TrainConfig()
TRAIN = (
    ("epochs", count(), DEFAULT_TRAIN.epochs),
    ("batch", count(), DEFAULT_TRAIN.batch),
    ("lr", real(0.0, strict=True), DEFAULT_TRAIN.lr),
    ("objective", choice("elbo", "iwelbo", "auto"), DEFAULT_TRAIN.objective),
    ("kprime", count(), DEFAULT_TRAIN.kprime),
    ("tau", real(0.0), DEFAULT_TRAIN.tau),
    ("probe_size", count(), DEFAULT_TRAIN.probe_size),
    ("seed", count(0), DEFAULT_TRAIN.seed),
    ("specific_epochs", optional(count()), DEFAULT_TRAIN.specific_epochs),
    ("latent_dim", count(), DEFAULT_TRAIN.latent_dim),
    ("hidden_dim", count(), DEFAULT_TRAIN.hidden_dim),
    ("likelihood", choice("bernoulli", "gaussian"), DEFAULT_TRAIN.likelihood),
    ("hier_latent_dims", list_of(count(), size=2), list(DEFAULT_TRAIN.hier_latent_dims)),
    ("hier_two_layers", BOOL, DEFAULT_TRAIN.hier_two_layers),
)
TASK = (
    ("source", choice("synthetic", "idx"), "synthetic"),
    ("kind", choice(*SYNTHETIC_KINDS), None),
    ("name", STRING, lambda spec: spec["kind"] or "task"),
    ("seed", count(0), 0),
    ("n_train", count(), 1000),
    ("n_test", count(), lambda spec: max(1, spec["n_train"] // 5)),
    ("dim", count(), None),
    ("center", list_of(real(), size=2), None),
    ("transforms", list_of(STRING), []),
    ("train_images", STRING, None),
    ("train_labels", STRING, None),
    ("test_images", STRING, None),
    ("test_labels", STRING, None),
    ("labels", list_of(count(0)), None),
    ("split_groups", list_of(list_of(count(0), at_least=1)), None),
)
EVAL = (
    ("kprime", count(), 1),
    ("k_eval", count(), 1),
)
BOUNDS = (
    ("sample_size", count(), 10000),
    ("aux_epochs", optional(count()), None),
)
TOP = (
    ("mode", choice("degm", "gr", "gr-hier", "bounds", "order-study", "ablation"), REQUIRED),
    ("out_dir", STRING, "runs"),
    ("desk_scale", BOOL, False),
    ("ablation", optional(choice("degm-1", "degm-4", "degm-5", "degm-6", "degm-7")), None),
    ("orders", optional(list_of(list_of(STRING), at_least=2)), None),
    ("tasks", list_of(section(TASK), at_least=1), REQUIRED),
    ("train", section(TRAIN), {}),
    ("eval", section(EVAL), {}),
    ("bounds", section(BOUNDS), {}),
)
TASK_NEEDS = {"synthetic": ("kind", "dim"), "idx": ("train_images", "test_images")}
MODE_ONLY = {"ablation": "ablation", "orders": "order-study"}  # key: the one mode it serves


def rule(rows, key: str):
    """The check the table ``rows`` applies to ``key``; a command-line flag
    that overrides the key is checked by it too."""
    return next(check for k, check, _ in rows if k == key)


def _check_links(cfg: dict) -> None:
    for key, mode in MODE_ONLY.items():
        if (cfg["mode"] == mode) != (cfg[key] is not None):
            raise ConfigError(f"{key} is needed by mode {mode!r} and valid with no other mode")
    for i, spec in enumerate(cfg["tasks"]):
        for key in TASK_NEEDS[spec["source"]]:
            if spec[key] is None:
                raise ConfigError(f"tasks[{i}].{key} is required for {spec['source']} tasks")


# -- the parsed config ------------------------------------------------------------------

@dataclass
class ExperimentConfig:
    mode: str
    tasks: list[dict]  # specs with their defaults filled; these build the stream
    train: TrainConfig
    out_dir: str
    ablation: str | None
    orders: list[list[str]] | None
    eval_kprime: int
    eval_k: int
    bounds_sample_size: int
    bounds_aux_epochs: int | None
    desk_scale: bool
    raw: dict  # the walked config with the task specs as written; hashing happens on this


def parse_config(text: str, seed: int | None = None, out_dir: str | None = None,
                 desk_scale: bool = False) -> ExperimentConfig:
    """Check the JSON config ``text``. The command line's --seed, --out and
    --desk-scale arrive as the keyword arguments and replace the text's values
    before the check."""
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as err:
        raise ConfigError(f"config is not valid JSON: {err}") from err
    if isinstance(raw, dict):  # anything else fails the walk
        if seed is not None and isinstance(raw.get("train", {}), dict):
            raw["train"] = {**raw.get("train", {}), "seed": seed}
        if out_dir is not None:
            raw["out_dir"] = out_dir
        if desk_scale:
            raw["desk_scale"] = True
    cfg = section(TOP)(raw, "")
    _check_links(cfg)
    train = TrainConfig(**{**cfg["train"],
                           "hier_latent_dims": tuple(cfg["train"]["hier_latent_dims"])})
    return ExperimentConfig(
        mode=cfg["mode"], tasks=cfg["tasks"], train=train, out_dir=cfg["out_dir"],
        ablation=cfg["ablation"], orders=cfg["orders"], eval_kprime=cfg["eval"]["kprime"],
        eval_k=cfg["eval"]["k_eval"], bounds_sample_size=cfg["bounds"]["sample_size"],
        bounds_aux_epochs=cfg["bounds"]["aux_epochs"], desk_scale=cfg["desk_scale"],
        raw={**cfg, "tasks": raw["tasks"]},
    )


def serialize_config(cfg: ExperimentConfig) -> str:
    return json.dumps(cfg.raw, sort_keys=True, indent=1)


def config_hash(cfg: ExperimentConfig) -> str:
    """Digest of every semantically meaningful field (out_dir excluded)."""
    material = {k: v for k, v in cfg.raw.items() if k != "out_dir"}
    blob = json.dumps(material, sort_keys=True).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()[:12]
