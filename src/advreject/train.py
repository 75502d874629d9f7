"""Subgradient training of linear classifier/rejector pairs.

The training problem is

    min  lam/2 ||theta||^2 + lam'/2 ||gamma||^2 + sum_i max(A~_i, B~_i, 0)

with the worst-case hinge branches of the MH loss per sample. It is convex
(piecewise linear plus a quadratic), so plain subgradient descent with an
eta0/sqrt(t+1) schedule converges; the returned model is the best iterate
by objective value, not the last one.

Four modes share the loop:
  svm   plain hinge, no rejection, eps = 0
  at    hinge with the exact linear worst case, no rejection
  mh    full MH objective at eps = 0
  atro  full MH objective at eps = eps_train

The no-rejection modes pin the rejector to the sentinel r(x) = 1, so
rejection never fires and the theta terms drop from the objective.
At every kink (inactive hinge, l1 terms at 0) the chosen subgradient is
the zero element: sgn(0) = 0 and an inactive hinge contributes nothing.
Biases are carried as appended constant features: they are regularized
like ordinary coordinates but never enter the l1/perturbation terms.

The order of an epoch's float operations is pinned bit for bit by
perfbench/test_perfbench.py::test_fixture_models_load_and_match_their_recipe,
which retrains a fixture model and compares its bytes. A change that
reassociates a sum here (one gemm for f and r, a gemv for a masked row sum)
changes the trained models and fails that test; speed-ups must do the same
operations with less overhead.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .data import Dataset
from .losses import SurrogateParams, mh_branches, worst_case_l1
from .model import FeatureMap, RejectionModel, featurize

MODES = ("svm", "at", "mh", "atro")

# r(x) = 1 for models whose rejector is disabled
SENTINEL_REJECT_BIAS = 1.0


@dataclass(frozen=True)
class TrainConfig:
    mode: str = "atro"
    params: SurrogateParams = field(default_factory=SurrogateParams)
    eps_train: float = 0.0
    lam: float = 1e-3
    lam_prime: float = 1e-3
    epochs: int = 2000
    lr0: float = 3.0  # per-sample-normalized steps; 0.1 barely moves the iterate
    feature_map: FeatureMap = field(default_factory=FeatureMap)

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {'/'.join(MODES)}, got {self.mode!r}")
        if not 0 <= self.eps_train < math.inf:
            raise ValueError("eps_train must be finite and nonnegative")
        if self.mode in ("svm", "mh") and self.eps_train != 0:
            raise ValueError(f"eps_train must be 0 for mode {self.mode}")
        if not 0 <= self.lam < math.inf:
            raise ValueError("lam must be finite and nonnegative")
        if not 0 <= self.lam_prime < math.inf:
            raise ValueError("lam_prime must be finite and nonnegative")
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if not 0 < self.lr0 < math.inf:
            raise ValueError("lr0 must be finite and positive")

    @property
    def rejection_enabled(self) -> bool:
        return self.mode in ("mh", "atro")


@dataclass
class TrainTrace:
    objective: np.ndarray
    best: np.ndarray
    best_objective: float
    best_epoch: int

    def to_csv(self) -> str:
        buf = io.StringIO()
        buf.write("epoch,objective,best\n")
        for t, (o, b) in enumerate(zip(self.objective, self.best)):
            buf.write(f"{t},{float(o)!r},{float(b)!r}\n")
        return buf.getvalue()


def _augment(z: np.ndarray) -> np.ndarray:
    return np.hstack([z, np.ones((z.shape[0], 1))])


def _warm_start(zb: np.ndarray, y: np.ndarray, cfg: TrainConfig) -> tuple[np.ndarray, np.ndarray]:
    """Deterministic ridge initialization.

    The classifier is fit to margin targets and rescaled so most training
    margins clear the hinge. For rejection modes the rejector is then fit
    to accept/reject targets derived from the warm classifier's own
    margins (a confidence-based start). Subgradient descent refines both;
    starting near a classifying solution matters because the objective has
    a broad reject-everything plateau that plain descent from zero rarely
    leaves.
    """
    p = cfg.params
    dim = zb.shape[1]
    margin_target = (2.0 / p.alpha + 1.0 / p.beta) if cfg.rejection_enabled else 1.0
    gram = zb.T @ zb
    gram_reg = gram + (1e-2 * np.trace(gram) / dim + 1e-10) * np.eye(dim)
    gamma = np.linalg.solve(gram_reg, zb.T @ (margin_target * y))

    if not cfg.rejection_enabled:
        theta = np.zeros(dim)
        theta[-1] = SENTINEL_REJECT_BIAS
    else:
        # confidence-based rejector start: accept where the warm classifier
        # is confidently right, dip to the hinge-balancing level elsewhere
        marg0 = y * (zb @ gamma)
        r_reject = -(1.0 - p.cost) / (0.5 * p.alpha + p.cost * p.beta)
        cut = float(np.quantile(marg0, 0.5))
        targets = np.where(marg0 < 0.5 * cut, r_reject, 1.0 / p.beta)
        theta = np.linalg.solve(gram_reg, zb.T @ targets)

    # the ridge fit underestimates hinge-friendly scale; pick the scale
    # that minimizes the actual objective rather than trusting targets
    best_s, best_val = 1.0, np.inf
    for s in np.geomspace(0.25, 32.0, 22):
        val = _objective_arrays(theta, s * gamma, zb, y, cfg)
        if val < best_val:
            best_s, best_val = float(s), val
    return theta, best_s * gamma


def _objective_arrays(
    theta: np.ndarray, gamma: np.ndarray, zb: np.ndarray, y: np.ndarray, cfg: TrainConfig, with_grad: bool = False
):
    """Objective on augmented arrays (last coordinate is the bias); with
    with_grad, (objective, g_theta, g_gamma) with a subgradient from the
    same pass. The gradients are fresh arrays the caller may overwrite.

    y holds only -1 and +1. The l1 sign vectors are taken over the whole
    augmented vector and their bias entry is then set to 0 (bias frozen)."""
    p, eps = cfg.params, cfg.eps_train
    f = zb @ gamma
    reg = 0.5 * cfg.lam_prime * float(gamma @ gamma)
    g_gamma = cfg.lam_prime * gamma
    if not cfg.rejection_enabled:
        margin = y * f
        np.subtract(1.0, margin, out=margin)
        margin += eps * np.abs(gamma[:-1]).sum()
        val = float(np.maximum(margin, 0.0).sum()) + reg
        if not with_grad:
            return val
        act = np.flatnonzero(margin > 0)
        if act.size:
            g_gamma -= y.take(act) @ zb.take(act, axis=0)
            sg = np.sign(gamma)
            sg[-1] = 0.0
            g_gamma += eps * act.size * sg
        return val, np.zeros_like(theta), g_gamma
    r = zb @ theta
    zeta_pos, zeta_neg, theta_l1 = worst_case_l1(theta[:-1], gamma[:-1], eps)
    gap = y * f
    np.subtract(r, gap, out=gap)
    gap += np.where(y > 0, zeta_pos, zeta_neg)
    mh = mh_branches(gap, r - theta_l1, p)
    val = float(mh.value.sum()) + reg + 0.5 * cfg.lam * float(theta @ theta)
    if not with_grad:
        return val
    g_theta = cfg.lam * theta
    ia = np.flatnonzero(mh.use_a)
    if ia.size:
        ha = 0.5 * p.alpha
        za, ya = zb.take(ia, axis=0), y.take(ia)
        g_theta += ha * za.sum(axis=0)
        g_gamma -= ha * (ya @ za)
        n_pos = np.count_nonzero(ya > 0)
        n_neg = ia.size - n_pos
        # d/dtheta eps*||zeta(y)||_1 = eps*y*sgn(zeta(y)); d/dgamma = -eps*sgn(zeta(y))
        szp, szm = np.sign(theta - gamma), np.sign(-theta - gamma)
        szp[-1] = szm[-1] = 0.0
        g_theta += ha * eps * (n_pos * szp - n_neg * szm)
        g_gamma -= ha * eps * (n_pos * szp + n_neg * szm)
    ib = np.flatnonzero(mh.use_b)
    if ib.size:
        st = np.sign(theta)
        st[-1] = 0.0
        g_theta -= p.cost * p.beta * (zb.take(ib, axis=0).sum(axis=0) - eps * ib.size * st)
    return val, g_theta, g_gamma


def objective(m: RejectionModel, ds: Dataset, cfg: TrainConfig) -> float:
    """Training objective of a model on a dataset under the given config."""
    if len(ds) == 0:
        raise ValueError("dataset is empty")
    z = featurize(cfg.feature_map, ds.x)
    zb = _augment(z)
    theta = np.append(m.theta, m.bias_theta)
    gamma = np.append(m.gamma, m.bias_gamma)
    return _objective_arrays(theta, gamma, zb, ds.y.astype(np.float64), cfg)


def train(ds: Dataset, cfg: TrainConfig) -> tuple[RejectionModel, TrainTrace]:
    """Subgradient descent from a deterministic warm start; the same data
    and config always give the same model and trace.

    A random Fourier map without input_dim comes back pinned to ds.d, so the
    model rejects inputs of another dimension instead of featurizing them
    with other weights.

    Raises FloatingPointError with the failing epoch and step size if the
    objective stops being finite.
    """
    if len(ds) == 0:
        raise ValueError("dataset is empty")
    fm = cfg.feature_map
    if fm.kind == "random_fourier" and not fm.input_dim:
        fm = replace(fm, input_dim=ds.d)
    z = featurize(fm, ds.x)
    zb = _augment(z)
    y = ds.y.astype(np.float64)
    theta, gamma = _warm_start(zb, y, cfg)

    n_evals = cfg.epochs + 1
    objs = np.empty(n_evals)
    bests = np.empty(n_evals)
    best_val = np.inf
    best_epoch = 0
    best_theta, best_gamma = theta, gamma  # iterates are rebound each epoch, never mutated
    for t in range(n_evals):
        last = t == cfg.epochs
        out = _objective_arrays(theta, gamma, zb, y, cfg, with_grad=not last)
        val = out if last else out[0]
        if not math.isfinite(val):
            raise FloatingPointError(
                f"objective diverged at epoch {t} (lr0={cfg.lr0}); lower the step size"
            )
        if val < best_val:
            best_val, best_epoch = val, t
            best_theta, best_gamma = theta, gamma
        objs[t] = val
        bests[t] = best_val
        if last:
            break
        _, g_theta, g_gamma = out
        # scale by n so lr0 means the same thing across dataset sizes
        step = cfg.lr0 / (math.sqrt(t + 1.0) * len(y))
        g_gamma *= step
        gamma = gamma - g_gamma
        if cfg.rejection_enabled:
            g_theta *= step
            theta = theta - g_theta

    model = RejectionModel(
        theta=best_theta[:-1],
        gamma=best_gamma[:-1],
        bias_theta=float(best_theta[-1]),
        bias_gamma=float(best_gamma[-1]),
        feature_map=fm,
    )
    trace = TrainTrace(objs, bests, best_val, best_epoch)
    return model, trace


def cross_validate(
    ds: Dataset,
    cfg_grid: list[TrainConfig],
    folds: int,
    seed: int,
    eval_eps: float | None = None,
) -> tuple[TrainConfig, list[dict]]:
    """Pick the config with the lowest mean validation adversarial 0-1-c
    risk. Evaluation eps defaults to each config's own eps_train. Ties go
    to the earlier grid entry."""
    from .attacks import AttackSpec
    from .evaluate import adv_risk_01c

    if folds < 2:
        raise ValueError("folds must be >= 2")
    if not cfg_grid:
        raise ValueError("empty config grid")
    n = len(ds)
    perm = np.random.default_rng(seed).permutation(n)
    fold_idx = np.array_split(perm, folds)
    table = []
    best_i, best_risk = 0, np.inf
    for i, cfg in enumerate(cfg_grid):
        eps_eval = cfg.eps_train if eval_eps is None else eval_eps
        risks = []
        for k in range(folds):
            val_ids = fold_idx[k]
            tr_ids = np.concatenate([fold_idx[j] for j in range(folds) if j != k])
            tr = Dataset(ds.x[tr_ids], ds.y[tr_ids], name=ds.name)
            va = Dataset(ds.x[val_ids], ds.y[val_ids], name=ds.name)
            model, _ = train(tr, cfg)
            spec = AttackSpec(method="analytic_linear" if eps_eval > 0 else "none", eps=eps_eval)
            risks.append(adv_risk_01c(model, va, spec, cfg.params))
        mean_risk = float(np.mean(risks))
        table.append(
            {
                "index": i,
                "mode": cfg.mode,
                "cost": cfg.params.cost,
                "eps_train": cfg.eps_train,
                "mean_risk": mean_risk,
                "fold_risks": risks,
            }
        )
        if mean_risk < best_risk:
            best_risk, best_i = mean_risk, i
    return cfg_grid[best_i], table
