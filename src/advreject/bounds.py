"""Rademacher-complexity estimates and the generalization bound report.

For the norm-bounded linear class {x -> <x, w> : ||w||_p <= W} the inner
supremum of the empirical Rademacher complexity has the closed form
W * ||sum_i sigma_i x_i||_q (Hoelder, 1/p + 1/q = 1); the outer expectation
is taken by Monte Carlo, or exhaustively over all 2^n sign vectors for
small n.

The adversarial linear class replaces the margin by its worst case over
the eps-ball, shifting every function by -eps * ||w||_1:

    h_w(x, y) = y <x, w> - eps ||w||_1

Its exhaustive complexity needs sup_{||w||_p <= W} [<v, w> - nu ||w||_1]
per sign vector (v the sign-weighted sample sum, nu = eps * sum sigma_i).
The objective is positively homogeneous and linear on each orthant, so the
supremum is exact by enumerating the 2^d orthant sign patterns (p = 2:
cone projection; p = inf: per-coordinate thresholding; p = 1: vertices).
A dense directional grid cross-checks these formulas in the tests.

The bound report itemizes

    risk + (alpha L / 2) R_zeta + (beta c L) R_gamma
         + 2 eps W d^(1/q) / sqrt(n) + sqrt(log(1/delta) / (2n))

with L = 1 for the hinge pair. The empirical risk fed to it should be the
surrogate clipped at 1.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .data import Dataset
from .losses import SurrogateParams, adv_loss_mh_linear_batch
from .model import RejectionModel

HINGE_LIPSCHITZ = 1.0


def dual_exponent(p: float) -> float:
    if p == 1:
        return np.inf
    if p == np.inf:
        return 1.0
    if p > 1:
        return p / (p - 1.0)
    raise ValueError("p must satisfy p >= 1")


@dataclass(frozen=True)
class BoundConfig:
    w_bound: float = 1.0  # norm bound W of the linear class
    p: float = 2.0
    delta: float = 0.05  # the bound holds with probability 1 - delta
    eps: float = 0.0
    params: SurrogateParams = field(default_factory=SurrogateParams)
    mc_draws: int = 2000

    def __post_init__(self):
        if not 0 < self.w_bound < math.inf:
            raise ValueError("w_bound must be finite and positive")
        dual_exponent(self.p)  # validates p
        if not 0.0 < self.delta < 1.0:
            raise ValueError("delta must lie in (0, 1)")
        if not 0 <= self.eps < math.inf:
            raise ValueError("eps must be finite and nonnegative")
        if self.mc_draws < 1:
            raise ValueError("mc_draws must be >= 1")

    @property
    def q(self) -> float:
        return dual_exponent(self.p)


def _qnorm(v: np.ndarray, q: float, axis=None):
    if q == np.inf:
        return np.max(np.abs(v), axis=axis)
    if q == 1:
        return np.sum(np.abs(v), axis=axis)
    return np.sum(np.abs(v) ** q, axis=axis) ** (1.0 / q)


def rademacher_linear_mc(x: np.ndarray, w_bound: float, q: float, mc_draws: int, seed: int) -> float:
    """Monte-Carlo empirical Rademacher complexity of the linear class."""
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    n = x.shape[0]
    if n == 0:
        raise ValueError("need a non-empty sample")
    rng = np.random.default_rng(seed)
    sigma = rng.choice((-1.0, 1.0), size=(mc_draws, n))
    sums = sigma @ x
    return w_bound / n * float(np.mean(_qnorm(sums, q, axis=1)))


def _all_signs(n: int) -> np.ndarray:
    """All 2^n sign vectors, shape (2^n, n)."""
    bits = (np.arange(2**n)[:, None] >> np.arange(n)[None, :]) & 1
    return 2.0 * bits - 1.0


def sup_shifted_linear(v: np.ndarray, nu: float, w_bound: float, p: float) -> float:
    """Exact sup of <v, w> - nu * ||w||_1 over the p-ball of radius w_bound.

    Positively homogeneous, so the sup is w_bound * max(0, sup over the
    unit sphere); the orthant decomposition makes each piece linear.
    """
    v = np.asarray(v, dtype=np.float64)
    d = v.shape[0]
    if p == np.inf:
        return w_bound * float(np.maximum(np.abs(v) - nu, 0.0).sum())
    if p == 1:
        return w_bound * max(0.0, float(np.max(np.abs(v)) - nu))
    if p == 2:
        best = 0.0
        for s in _all_signs(d):
            a = v - nu * s
            a = np.where(a * s > 0, a, 0.0)  # cone projection onto the orthant
            best = max(best, float(np.linalg.norm(a)))
        return w_bound * best
    raise ValueError("adversarial class supports p in {1, 2, inf}")


def rademacher_exhaustive(
    ds: Dataset, kind: str, w_bound: float, q: float, eps: float = 0.0
) -> float:
    """Exhaustive empirical Rademacher complexity (all 2^n sign vectors).

    kind "standard_linear" is the plain margin class; "adversarial_linear"
    uses the eps-shifted worst-case margins. Limited to n <= 12 and, for
    the adversarial class, d <= 3.
    """
    n, d = len(ds), ds.d
    if n > 12:
        raise ValueError("exhaustive enumeration is limited to n <= 12")
    sigmas = _all_signs(n)
    if kind == "standard_linear":
        sums = sigmas @ ds.x
        return w_bound / n * float(np.mean(_qnorm(sums, q, axis=1)))
    if kind == "adversarial_linear":
        if d > 3:
            raise ValueError("adversarial enumeration is limited to d <= 3")
        p = dual_exponent(q)
        yx = ds.y[:, None] * ds.x
        total = 0.0
        for s in sigmas:
            v = s @ yx
            nu = eps * float(s.sum())
            total += sup_shifted_linear(v, nu, w_bound, p)
        return total / (n * len(sigmas))
    raise ValueError(f"unknown class kind {kind!r}")


@dataclass
class BoundReport:
    empirical_risk: float
    rad_zeta: float
    rad_gamma: float
    eps_term: float
    conf_term: float
    total: float
    w_bound: float
    n: int
    d: int
    q: float

    def to_json(self) -> str:
        obj = {k: (v if not isinstance(v, float) or math.isfinite(v) else str(v)) for k, v in vars(self).items()}
        return json.dumps(obj, indent=2)


def generalization_bound(ds: Dataset, empirical_risk: float, cfg: BoundConfig, seed: int = 0) -> BoundReport:
    """Itemized high-probability bound on the adversarial surrogate risk.

    Both Rademacher terms use the same norm bound W; they are estimated
    with independently seeded Monte-Carlo draws, so they differ by MC noise
    only. The zeta term is scaled by alpha*L/2, the gamma term by
    beta*c*L.
    """
    if empirical_risk < 0:
        raise ValueError("empirical risk must be nonnegative")
    n, d = len(ds), ds.d
    seeds = np.random.SeedSequence(seed).spawn(2)
    rad_zeta = rademacher_linear_mc(ds.x, cfg.w_bound, cfg.q, cfg.mc_draws, seeds[0])
    rad_gamma = rademacher_linear_mc(ds.x, cfg.w_bound, cfg.q, cfg.mc_draws, seeds[1])
    d_pow = 1.0 if cfg.q == np.inf else float(d) ** (1.0 / cfg.q)
    eps_term = 2.0 * cfg.eps * cfg.w_bound * d_pow / np.sqrt(n)
    conf_term = float(np.sqrt(np.log(1.0 / cfg.delta) / (2.0 * n)))
    p = cfg.params
    total = (
        empirical_risk
        + 0.5 * p.alpha * HINGE_LIPSCHITZ * rad_zeta
        + p.beta * p.cost * HINGE_LIPSCHITZ * rad_gamma
        + eps_term
        + conf_term
    )
    return BoundReport(empirical_risk, rad_zeta, rad_gamma, eps_term, conf_term, total, cfg.w_bound, n, d, cfg.q)


def weight_bound(m: RejectionModel, p: float) -> float:
    """Largest p-norm among the trained weight vectors (theta, gamma, and
    both zeta variants); instantiates the norm-constrained class a
    posteriori. Biases are excluded, matching the perturbable coordinates."""
    vecs = [m.theta, m.gamma, m.zeta(1), m.zeta(-1)]
    return float(max(_qnorm(v, p) for v in vecs))


def clipped_adv_risk(m: RejectionModel, ds: Dataset, eps: float, params: SurrogateParams) -> float:
    """Mean of min(worst-case MH loss, 1), the clipped risk the
    high-probability bound is stated for."""
    z = m.featurize(ds.x)
    losses = adv_loss_mh_linear_batch(m, z, ds.y, eps, params)
    return float(np.mean(np.minimum(losses, 1.0)))
