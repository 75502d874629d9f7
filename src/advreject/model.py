"""Classifier/rejector pairs over an explicit feature map.

A model scores an input twice: f decides the label via sign, r decides
whether to answer at all. The input is rejected when r(x) <= 0 (the
boundary r = 0 rejects, the conservative choice) and labelled +1 at
f(x) = 0; ``losses.verdict`` writes that rule once. Both scores are linear
in the features, so f(x) = <phi(x), gamma> + bias_gamma and
r(x) = <phi(x), theta> + bias_theta.

The combined vector zeta(y) = theta/y - gamma turns the margin gap into a
single linear form: r(x) - y*f(x) = y*(<phi(x), zeta(y)> + zeta_bias(y)).
That identity is what makes the worst-case linear losses tractable.

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

from .data import NormStats
from .losses import verdict


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
        if self.kind == "random_fourier":
            if self.dim <= 0:
                raise ValueError("dim must be positive for random_fourier")
            if not 0 < self.sigma < math.inf:
                raise ValueError("sigma must be finite and positive")

    def weights(self, input_dim: int) -> tuple[np.ndarray, np.ndarray]:
        rng = np.random.default_rng(self.seed)
        w = rng.normal(0.0, 1.0 / self.sigma, size=(input_dim, self.dim))
        b = rng.uniform(0.0, 2.0 * np.pi, size=self.dim)
        return w, b

    def output_dim(self, input_dim: int) -> int:
        return input_dim if self.kind == "identity" else self.dim


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


@dataclass(frozen=True)
class Decision:
    verdict: int  # +1, -1, or 0 for reject
    f_value: float
    r_value: float

    REJECT = 0

    @property
    def rejected(self) -> bool:
        return self.verdict == 0


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

    def __post_init__(self):
        self.theta = np.asarray(self.theta, dtype=np.float64)
        self.gamma = np.asarray(self.gamma, dtype=np.float64)
        if self.theta.shape != self.gamma.shape or self.theta.ndim != 1:
            raise ValueError("theta and gamma must be 1-D with equal length")
        if not (
            np.all(np.isfinite(self.theta))
            and np.all(np.isfinite(self.gamma))
            and np.isfinite(self.bias_theta)
            and np.isfinite(self.bias_gamma)
        ):
            raise ValueError("parameters must be finite")

    @property
    def feat_dim(self) -> int:
        return self.theta.shape[0]

    def featurize(self, x: np.ndarray) -> np.ndarray:
        z = featurize(self.feature_map, x)
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

    def decide(self, x: np.ndarray) -> Decision:
        f, r = self.scores(np.atleast_1d(np.asarray(x, dtype=np.float64)))
        f, r = float(f), float(r)
        return Decision(int(verdict(f, r)), f, r)

    def zeta(self, y: int) -> np.ndarray:
        """theta/y - gamma over the weight coordinates (bias excluded)."""
        if y not in (-1, 1):
            raise ValueError("y must be -1 or +1")
        return self.theta / y - self.gamma

    def zeta_bias(self, y: int) -> float:
        if y not in (-1, 1):
            raise ValueError("y must be -1 or +1")
        return self.bias_theta / y - self.bias_gamma

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
        obj = json.loads(text)
        fm = FeatureMap(**obj["feature_map"])
        ns = obj.get("norm_stats")
        stats = None
        if ns is not None:
            stats = NormStats(
                scheme=ns["scheme"],
                lo=np.array(ns["lo"], dtype=np.float64),
                hi=np.array(ns["hi"], dtype=np.float64),
                constant=np.array(ns["constant"], dtype=bool),
            )
        return cls(
            theta=np.array(obj["theta"], dtype=np.float64),
            gamma=np.array(obj["gamma"], dtype=np.float64),
            bias_theta=float(obj["bias_theta"]),
            bias_gamma=float(obj["bias_gamma"]),
            feature_map=fm,
            norm_stats=stats,
        )
