"""Run configuration: JSON schema, validation, and manifest round-trip.

A run is fully determined by one RunConfig plus the input files. The
schema is the library's: each section is a library config dataclass, or a
section type that wraps one with the run-level settings around it, and
that dataclass's fields, defaults and checks are the section's keys,
defaults and checks. One generic loader walks the fields, checks each
JSON value against the field's annotation and builds the object; a
ValueError from the object becomes a ConfigError naming the path (e.g.
``train.cost``). The resolved config (all defaults materialized,
data-derived values like the kernel bandwidth frozen to numbers) is
written back as the manifest, and re-running a manifest reproduces the
artifacts byte for byte.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import MISSING, dataclass, field, fields, is_dataclass, replace
from types import UnionType
from typing import Literal, Union, get_args, get_origin, get_type_hints

from .attacks import AttackSpec
from .bench import ProtocolConfig
from .bounds import BoundConfig
from .data import check_fraction, check_scheme
from .losses import SurrogateParams
from .model import FeatureMap
from .neural import NeuralTrainConfig
from .train import TrainConfig

SUBCOMMANDS = ("train", "eval", "attack", "bound", "bench", "neural-train")


class ConfigError(ValueError):
    """Invalid run configuration; message carries the field path."""


class _Section:
    """A section type: a library config in field ``config`` plus run-level
    fields. The fields of the config and of its surrogate parameters read
    as the section's own, as their keys sit in the section's JSON object."""

    def __getattr__(self, name):  # only called when the section lacks the name
        obj = self.config if name != "config" else None
        while obj is not None:
            if hasattr(obj, name):
                return getattr(obj, name)
            obj = getattr(obj, "params", None)
        raise AttributeError(f"{type(self).__name__} has no field {name!r}")


@dataclass
class FeatureSection(_Section):
    """train.features: a FeatureMap whose sigma may be "median", the median
    pairwise distance on the training split."""

    config: FeatureMap = field(default_factory=lambda: FeatureMap(dim=200))
    sigma: float | Literal["median"] = "median"

    def __post_init__(self):
        if self.sigma != "median":
            self.build(self.sigma, seed=0, input_dim=0)

    def build(self, sigma: float, seed: int, input_dim: int) -> FeatureMap:
        return replace(self.config, sigma=sigma, seed=seed, input_dim=input_dim)


@dataclass
class _Prep(_Section):
    """How a run splits and normalizes its dataset."""

    train_fraction: float = 0.8
    normalize: str = "minmax01"

    def __post_init__(self):
        check_fraction(self.train_fraction)
        check_scheme(self.normalize)


@dataclass
class TrainSection(_Prep):
    """train: a TrainConfig whose feature map is built from ``features``
    and the training split."""

    config: TrainConfig = field(default_factory=lambda: TrainConfig(params=SurrogateParams(cost=0.2)))
    features: FeatureSection = field(default_factory=FeatureSection)


@dataclass
class NeuralSection(_Prep):
    """neural: a NeuralTrainConfig whose inner attack is PGD of radius
    eps_train, or none when eps_train is 0."""

    normalize: str = "none"
    config: NeuralTrainConfig = field(default_factory=NeuralTrainConfig)
    eps_train: float = 0.0
    steps: int = 10

    def __post_init__(self):
        super().__post_init__()
        self.build(seed=0)

    def build(self, seed: int) -> NeuralTrainConfig:
        try:
            attack = AttackSpec(method="pgd" if self.eps_train > 0 else "none", eps=self.eps_train, steps=self.steps)
        except ValueError as exc:  # the attack's eps is this section's eps_train
            raise ValueError(re.sub(r"^eps\b", "eps_train", str(exc))) from None
        return replace(self.config, attack=attack, seed=seed)


@dataclass
class BoundSection(_Section):
    """bound: a BoundConfig whose w_bound may be "auto", the largest weight
    norm of the model. The surrogate parameters are the train section's."""

    config: BoundConfig = field(default_factory=BoundConfig)
    w_bound: float | Literal["auto"] = "auto"

    def __post_init__(self):
        if self.w_bound != "auto":
            self.build(self.w_bound, self.config.params)

    def build(self, w_bound: float, params: SurrogateParams) -> BoundConfig:
        return replace(self.config, w_bound=w_bound, params=params)


@dataclass
class RunConfig:
    subcommand: str = ""
    dataset: str = ""
    test_dataset: str | None = None
    model: str | None = None  # model JSON path for eval/attack/bound
    out: str = "out"
    seed: int = 0  # the master seed; every other seed of a run derives from it
    train: TrainSection = field(default_factory=TrainSection)
    attack: AttackSpec = field(default_factory=lambda: AttackSpec(method="analytic_linear", eps=0.01))
    bound: BoundSection = field(default_factory=BoundSection)
    neural: NeuralSection = field(default_factory=NeuralSection)
    bench: ProtocolConfig = field(default_factory=ProtocolConfig)

    def __post_init__(self):
        if self.subcommand not in SUBCOMMANDS:
            raise ValueError(f"subcommand must be one of {'/'.join(SUBCOMMANDS)}")

    def to_json(self) -> str:
        return json.dumps(_dump(self), indent=2, sort_keys=True)


# fields a run fills in itself, from the data, the master seed, another
# section or the section's placeholder field of the same name; they are
# neither read from the JSON nor written to the manifest
_DERIVED = {
    (TrainConfig, "feature_map"),
    (FeatureMap, "sigma"),
    (FeatureMap, "input_dim"),
    (BoundConfig, "w_bound"),
    (BoundConfig, "params"),
    (NeuralTrainConfig, "attack"),
    (NeuralTrainConfig, "seed"),
    (ProtocolConfig, "seed"),
}
# dataclass fields whose keys sit directly in the enclosing JSON object
_INLINE = ("config", "params")


def _at(path: str, rest: str) -> str:
    return f"{path}.{rest}" if path else rest


def _settable(cls) -> list:
    return [f for f in fields(cls) if (cls, f.name) not in _DERIVED]


def _keys(cls) -> set[str]:
    hints = get_type_hints(cls)
    keys = set()
    for f in _settable(cls):
        keys |= _keys(hints[f.name]) if f.name in _INLINE else {f.name}
    return keys


def _build(cls, obj, path: str, base=None):
    """A config object from its JSON object. Each key sets the field of its
    name; fields not given keep their value in ``base``, or their default."""
    if not isinstance(obj, dict):
        raise ConfigError(f"{path} must be an object, got {type(obj).__name__}")
    unknown = sorted(set(obj) - _keys(cls))
    if unknown:
        raise ConfigError(f"{_at(path, unknown[0])} is not a known key")
    return _make(cls, obj, path, base)


def _make(cls, obj: dict, path: str, base):
    hints = get_type_hints(cls)
    values = {}
    for f in _settable(cls):
        if base is not None:
            sub = getattr(base, f.name)
        else:
            sub = f.default_factory() if f.default_factory is not MISSING else f.default
        if f.name in _INLINE:
            values[f.name] = _make(hints[f.name], obj, path, sub)
        elif f.name in obj:
            values[f.name] = _coerce(obj[f.name], hints[f.name], _at(path, f.name), sub)
    try:
        return replace(base, **values) if base is not None else cls(**values)
    except ValueError as exc:
        raise ConfigError(_at(path, str(exc))) from None


def _coerce(value, tp, path: str, base=None):
    """A JSON value checked against the annotation ``tp``: an int becomes a
    float, "inf" an infinite float, a list a tuple, an object a dataclass."""
    if is_dataclass(tp):
        return _build(tp, value, path, base)
    origin, args = get_origin(tp), get_args(tp)
    if origin in (Union, UnionType):
        for arm in sorted(args, key=lambda a: a is float):  # so "auto" stays a string
            try:
                return _coerce(value, arm, path)
            except ConfigError:
                pass
    elif origin is Literal:
        if value in args:
            return value
    elif origin is tuple:
        if isinstance(value, list):
            if args[-1] is Ellipsis:
                args = (args[0],) * len(value)
            if len(value) == len(args):
                return tuple(_coerce(v, a, f"{path}[{i}]") for i, (v, a) in enumerate(zip(value, args)))
    elif tp is float:
        if value == "inf":
            return math.inf
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            return float(value)
    elif isinstance(value, tp) and not (tp is int and isinstance(value, bool)):
        return value
    raise ConfigError(f"{path} must be {_describe(tp)}, got {type(value).__name__}")


def _describe(tp) -> str:
    origin, args = get_origin(tp), get_args(tp)
    if origin in (Union, UnionType):
        return " or ".join(_describe(a) for a in args)
    if origin is Literal:
        return " or ".join(json.dumps(a) for a in args)
    if origin is tuple:
        return "a list" if args[-1] is Ellipsis else f"a list of {len(args)}"
    return "null" if tp is type(None) else tp.__name__


def _dump(obj):
    """The JSON value of a config object; the inverse of _build."""
    if is_dataclass(obj):
        out = {}
        for f in _settable(type(obj)):
            value = _dump(getattr(obj, f.name))
            if f.name in _INLINE:
                out.update(value)
            else:
                out[f.name] = value
        return out
    if isinstance(obj, tuple):
        return [_dump(v) for v in obj]
    return obj


def validate_config(raw: str) -> RunConfig:
    """Parse and validate JSON text into a RunConfig.

    Raises ConfigError naming the offending path, e.g.
    "train.cost must lie in (0, 0.5)".
    """
    try:
        obj = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from None
    if not isinstance(obj, dict):
        raise ConfigError("config must be a JSON object")
    return _build(RunConfig, obj, "")
