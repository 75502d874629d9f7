"""Classifier/rejector pairs over an explicit feature map.

A model scores an input twice: f decides the label via sign, r decides
whether to answer at all. The input is rejected when r(x) <= 0 (the
boundary r = 0 rejects, the conservative choice) and labelled +1 at
f(x) = 0; ``losses.verdict`` writes that rule once, and
``verdict(*m.scores(x))`` applies it to one vector or each row of a batch.
Both scores are linear in the features, so
f(x) = <phi(x), gamma> + bias_gamma and r(x) = <phi(x), theta> + bias_theta.

The combined vector zeta(y) = theta/y - gamma turns the margin gap into a
single linear form: r(x) - y*f(x) = y*(<phi(x), zeta(y)> + bias_theta/y -
bias_gamma). That identity is what makes the worst-case linear losses
tractable; ``losses.worst_case_l1`` builds zeta(+1) and zeta(-1).

The feature map is either the identity or random Fourier features
(cosine features approximating a Gaussian kernel). With Fourier features
the perturbation ball lives in feature space, an approximation of
input-space attacks that keeps the linear worst-case algebra exact.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .data import NormStats, check_numbers

_MODEL_KEYS = frozenset(("feature_map", "theta", "gamma", "bias_theta", "bias_gamma", "norm_stats"))
_JSON_NUMBERS = frozenset((int, float))  # the types of JSON numbers: a bool is an int to isinstance, not to type
_JSON_BOOLS = frozenset((bool,))


def json_object(text: str, keys: frozenset) -> dict:
    """The JSON object text holds; ValueError if it is not one or has a key outside ``keys``."""
    obj = json.loads(text)
    if type(obj) is not dict or not keys.issuperset(obj):
        raise ValueError(f"unknown key {min(set(obj) - keys)!r}" if type(obj) is dict else "not an object")
    return obj


def check_json_list(key: str, value, types: frozenset = _JSON_NUMBERS) -> None:
    """The element-type rule of a model file: ValueError naming key, or the
    innermost list at fault as ``key[i]``, unless value is a list whose
    items are of ``types`` or are such lists in turn (a matrix's rows). A
    bool or a string would pass float64 as 1.0 or be parsed, and a number
    would pass bool by truth."""
    if type(value) is list:
        kinds = set(map(type, value))
        for i, item in enumerate(value) if list in kinds else ():
            if type(item) is list:
                check_json_list(f"{key}[{i}]", item, types)
        if types.issuperset(kinds - {list}):
            return
    raise ValueError(f"{key} must be a list of {'booleans' if types is _JSON_BOOLS else 'numbers'}")


@dataclass(frozen=True)
class FeatureMap:
    """identity keeps the input; random_fourier maps to sqrt(2/D)*cos(Wx+b)
    with W ~ Normal(0, 1/sigma^2) and b ~ Uniform[0, 2pi), drawn once from
    the seed. input_dim > 0 pins the expected input dimension (a Fourier
    map silently redraws different weights for a different input size, so
    pinning turns that into an error)."""

    kind: str = "identity"  # identity | random_fourier
    dim: int = 0  # output dimension D (random_fourier only)
    sigma: float = 1.0  # bandwidth of the approximated Gaussian kernel
    seed: int = 0
    input_dim: int = 0  # 0 = unchecked

    def __post_init__(self):
        if self.kind not in ("identity", "random_fourier"):
            raise ValueError(f"kind must be identity or random_fourier, got {self.kind!r}")
        check_numbers(self, floats=("sigma",), ints=("dim",), naturals=("seed", "input_dim"))
        if self.kind == "random_fourier":
            check_numbers(self, counts=("dim",), positive=("sigma",))

    def weights(self, input_dim: int) -> tuple[np.ndarray, np.ndarray]:
        rng = np.random.default_rng(self.seed)
        w = rng.normal(0.0, 1.0 / self.sigma, size=(input_dim, self.dim))
        b = rng.uniform(0.0, 2.0 * np.pi, size=self.dim)
        return w, b


def featurize(fm: FeatureMap, x: np.ndarray) -> np.ndarray:
    """Apply the feature map to one vector or a (n, d) batch."""
    x = np.asarray(x, dtype=np.float64)
    d = x.shape[-1]
    if fm.input_dim and d != fm.input_dim:
        raise ValueError(f"feature map expects input dimension {fm.input_dim}, got {d}")
    if fm.kind == "identity":
        return x
    w, b = fm.weights(d)
    u = x @ w  # one buffer, worked in place
    u += b
    np.cos(u, out=u)
    u *= np.sqrt(2.0 / fm.dim)
    return u


@dataclass
class RejectionModel:
    """Weights (theta for the rejector, gamma for the classifier) in feature
    space, with biases kept apart: the bias acts like an appended constant
    feature that the attacker cannot perturb."""

    theta: np.ndarray
    gamma: np.ndarray
    bias_theta: float = 0.0
    bias_gamma: float = 0.0
    feature_map: FeatureMap = field(default_factory=FeatureMap)
    norm_stats: NormStats | None = None
    # (feature map, copy of x, read-only z) of the last random-Fourier batch
    _last_features: tuple | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        self.theta = np.asarray(self.theta, dtype=np.float64)
        self.gamma = np.asarray(self.gamma, dtype=np.float64)
        if self.theta.shape != self.gamma.shape or self.theta.ndim != 1:
            raise ValueError("theta and gamma must be 1-D with equal length")
        if not (
            np.isfinite(self.theta).all()
            and np.isfinite(self.gamma).all()
            and math.isfinite(self.bias_theta)
            and math.isfinite(self.bias_gamma)
        ):
            raise ValueError("parameters must be finite")

    def __eq__(self, other):
        """Equal weights, biases, map and stats; the remembered features are ignored."""
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (
            np.array_equal(self.theta, other.theta)
            and np.array_equal(self.gamma, other.gamma)
            and (self.bias_theta, self.bias_gamma, self.feature_map, self.norm_stats)
            == (other.bias_theta, other.bias_gamma, other.feature_map, other.norm_stats)
        )

    @property
    def feat_dim(self) -> int:
        return self.theta.shape[0]

    def featurize(self, x: np.ndarray) -> np.ndarray:
        """Features of one vector or a (n, d) batch under this model's map.

        The model remembers its last random-Fourier batch, one copy of x
        and its z, and returns that z while the map is equal and x has the
        same shape and contents. That is exact: the features are a pure
        function of the map and x, and comparing contents also catches an
        x changed in place. The features come back read-only, so no caller
        can corrupt the remembered array. The identity map returns x.
        """
        fm = self.feature_map
        x = np.asarray(x, dtype=np.float64)
        last = self._last_features
        if last is not None and last[0] == fm and np.array_equal(last[1], x):
            z = last[2]
        else:
            z = featurize(fm, x)
            if fm.kind != "identity":
                z.flags.writeable = False
                self._last_features = (fm, x.copy(), z)
        if z.shape[-1] != self.feat_dim:
            raise ValueError(f"expected feature dimension {self.feat_dim}, got {z.shape[-1]}")
        return z

    def scores_features(self, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(f, r) values from already-featurized input (vector or batch)."""
        z = np.asarray(z, dtype=np.float64)
        if z.shape[-1] != self.feat_dim:
            raise ValueError(f"expected feature dimension {self.feat_dim}, got {z.shape[-1]}")
        return z @ self.gamma + self.bias_gamma, z @ self.theta + self.bias_theta

    def scores(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        return self.scores_features(self.featurize(x))

    def to_json(self) -> str:
        fm = self.feature_map
        obj = {
            "feature_map": {
                "kind": fm.kind, "dim": fm.dim, "sigma": fm.sigma,
                "seed": fm.seed, "input_dim": fm.input_dim,
            },
            "theta": self.theta.tolist(),
            "gamma": self.gamma.tolist(),
            "bias_theta": self.bias_theta,
            "bias_gamma": self.bias_gamma,
            "norm_stats": None
            if self.norm_stats is None
            else {
                "scheme": self.norm_stats.scheme,
                "lo": self.norm_stats.lo.tolist(),
                "hi": self.norm_stats.hi.tolist(),
                "constant": self.norm_stats.constant.tolist(),
            },
        }
        return json.dumps(obj, indent=2)

    @classmethod
    def from_json(cls, text: str) -> "RejectionModel":
        """The model to_json wrote as text. ValueError names an unknown key, a
        number field that holds a bool or a string, which float64 would read as 1.0 or parse,
        and a norm_stats.constant that is not a list of booleans, which bool would read by truth."""
        obj = json_object(text, _MODEL_KEYS)
        ns = obj.get("norm_stats")
        check_json_list("theta", obj["theta"])
        check_json_list("gamma", obj["gamma"])
        if ns is not None:
            check_json_list("norm_stats.lo", ns["lo"])
            check_json_list("norm_stats.hi", ns["hi"])
            check_json_list("norm_stats.constant", ns["constant"], _JSON_BOOLS)
        for key in ("bias_theta", "bias_gamma"):
            if type(obj[key]) not in _JSON_NUMBERS:
                raise ValueError(f"{key} must be a number, got {obj[key]!r}")
        fm = FeatureMap(**obj["feature_map"])
        stats = None if ns is None else NormStats(**ns)
        return cls(
            theta=np.array(obj["theta"], dtype=np.float64),
            gamma=np.array(obj["gamma"], dtype=np.float64),
            bias_theta=float(obj["bias_theta"]),
            bias_gamma=float(obj["bias_gamma"]),
            feature_map=fm,
            norm_stats=stats,
        )
