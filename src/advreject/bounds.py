"""Rademacher-complexity bounds and the generalization bound report.

For the norm-bounded linear class {x -> <x, w> : ||w||_p <= W} the inner
supremum of the empirical Rademacher complexity has the closed form
W * ||sum_i sigma_i x_i||_q (Hoelder, 1/p + 1/q = 1). The report bounds the
outer expectation from above in closed form, from the column norms
c_j = ||x_{:,j}||_2 of the sample:

    1 <= q <= 2   (sum_j c_j^q)^(1/q)          Jensen per column
    q > 2         sqrt(sum_j c_j^2)            ||.||_q <= ||.||_2, then Jensen
    q = inf       min of the above and         Massart's finite-class lemma
                  sqrt(2 log 2d) * max_j c_j

each times W / n. These are certified upper bounds, and deterministic.
``rademacher_linear_mc`` (a Monte-Carlo estimate) computes the complexity
itself; the report does not use it. The exhaustive complexities over all
2^n sign vectors, of this class and of its adversarial counterpart, are
test references in tests/oracles.py.

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

from .data import Dataset, check_numbers
from .losses import SurrogateParams, adv_loss_mh_linear_batch, worst_case_l1
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
    # Ignored since the report's Rademacher terms are closed-form; kept so
    # that existing configs and callers that pass it keep working.
    mc_draws: int = 2000

    def __post_init__(self):
        check_numbers(self, positive=("w_bound",), floats=("p", "delta"), nonnegative=("eps",), counts=("mc_draws",))
        dual_exponent(self.p)  # validates p
        if not 0.0 < self.delta < 1.0:
            raise ValueError("delta must lie in (0, 1)")

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
    """Monte-Carlo estimate of the empirical Rademacher complexity of the
    linear class: a diagnostic, not an upper bound; the report does not
    use it."""
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    n = x.shape[0]
    if n == 0:
        raise ValueError("need a non-empty sample")
    rng = np.random.default_rng(seed)
    sigma = rng.choice((-1.0, 1.0), size=(mc_draws, n))
    sums = sigma @ x
    return w_bound / n * float(np.mean(_qnorm(sums, q, axis=1)))


def rademacher_linear_upper(x: np.ndarray, w_bound: float, q: float) -> tuple[float, str]:
    """Closed-form upper bound on the empirical Rademacher complexity of the
    linear class, and the name of the inequality that gave it (see the
    module docstring)."""
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    n, d = x.shape
    if n == 0:
        raise ValueError("need a non-empty sample")
    cols = np.sqrt(np.einsum("ij,ij->j", x, x))
    if q <= 2:
        return w_bound / n * float(_qnorm(cols, q)), "jensen_columns"
    l2 = float(np.sqrt(cols @ cols))
    if q == np.inf:
        massart = math.sqrt(2.0 * math.log(2 * d)) * float(cols.max())
        if massart < l2:
            return w_bound / n * massart, "massart"
    return w_bound / n * l2, "l2_domination"


@dataclass
class BoundReport:
    empirical_risk: float
    rad_zeta: float
    rad_gamma: float
    rad_inequality: str  # the inequality behind both Rademacher terms
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

    Both Rademacher terms use the same norm bound W, so both get the one
    closed-form upper bound of ``rademacher_linear_upper``: Jensen per
    column for q <= 2, l2 domination for q > 2, and at q = inf the smaller
    of that and Massart's lemma. The zeta term is scaled by alpha*L/2, the
    gamma term by beta*c*L. The report is deterministic; ``seed`` (like
    ``cfg.mc_draws``) is ignored and kept for existing callers.
    """
    if empirical_risk < 0:
        raise ValueError("empirical risk must be nonnegative")
    n, d = len(ds), ds.d
    rad, inequality = rademacher_linear_upper(ds.x, cfg.w_bound, cfg.q)
    d_pow = 1.0 if cfg.q == np.inf else float(d) ** (1.0 / cfg.q)
    eps_term = 2.0 * cfg.eps * cfg.w_bound * d_pow / np.sqrt(n)
    conf_term = float(np.sqrt(np.log(1.0 / cfg.delta) / (2.0 * n)))
    p = cfg.params
    total = (
        empirical_risk
        + 0.5 * p.alpha * HINGE_LIPSCHITZ * rad
        + p.beta * p.cost * HINGE_LIPSCHITZ * rad
        + eps_term
        + conf_term
    )
    return BoundReport(empirical_risk, rad, rad, inequality, eps_term, conf_term, total, cfg.w_bound, n, d, cfg.q)


def weight_bound(m: RejectionModel, p: float) -> float:
    """Largest p-norm among the trained weight vectors (theta, gamma, and
    both zeta variants); instantiates the norm-constrained class a
    posteriori. Biases are excluded, matching the perturbable coordinates."""
    (zeta_pos, zeta_neg, _), _ = worst_case_l1(m.theta, m.gamma, 0.0)
    return float(max(_qnorm(v, p) for v in (m.theta, m.gamma, zeta_pos, zeta_neg)))


def clipped_adv_risk(m: RejectionModel, ds: Dataset, eps: float, params: SurrogateParams) -> float:
    """Mean of min(worst-case MH loss, 1), the clipped risk the
    high-probability bound is stated for."""
    z = m.featurize(ds.x)
    losses = adv_loss_mh_linear_batch(m, z, ds.y, eps, params)
    return float(np.mean(np.minimum(losses, 1.0)))
