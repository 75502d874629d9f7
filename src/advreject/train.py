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

An epoch's float operations are pinned bit for bit, for all four modes,
by tests/test_train.py::TestEpochAgainstOracle and TestTrainAgainstOracle,
which compare it with a reference in tests/oracles.py that computes every
eps term at every eps, and by
perfbench/test_perfbench.py::test_fixture_models_load_and_match_their_recipe,
which retrains an mh fixture model and compares its bytes. A change that
reassociates a sum here (one gemm for f and r, a gemv for a masked row sum)
changes the trained models and fails them; speed-ups must do the same
operations with less overhead, or do them fewer times. So each row sum of
the subgradient (over branch A's rows, branch B's rows, or the active rows
of svm/at) is computed once per distinct active set and reused while the
set stays among the last ROW_SUM_SETS of its branch. zb and y are fixed for
a train call, so a sum is a function of its row mask alone, and a reused
sum is the very array a fresh gather and reduction gave: it has their bits.

At eps = 0 the epoch skips the l1 norms, the eps*||zeta(y)||_1 shift of
the gap, the eps*||theta||_1 shift of r and every eps*sgn term of the
subgradient. For finite weights each would add or subtract an exact 0.0,
which leaves every number as it is, so the value keeps its bits. A
subgradient entry that is exactly 0 can come out as -0.0 where the full
sum gave +0.0. For gamma this needs a gamma coordinate of -0.0, or lam' = 0
and a negative one, on a feature whose label-weighted sum over the active
rows is exactly 0; for theta it needs feature values of -0.0. Such an
entry moves its weight by a zero, so the iterate keeps its bits unless
that weight is itself -0.0. An update never turns another value into
-0.0, and the warm start does not return one in practice, so trained
models and traces keep their bits.
"""

from __future__ import annotations

import io
import math
from collections import OrderedDict
from dataclasses import dataclass, field, replace

import numpy as np

from .data import Dataset
from .losses import SurrogateParams, mh_branches, worst_case_l1
from .model import FeatureMap, RejectionModel, featurize

MODES = ("svm", "at", "mh", "atro")

# r(x) = 1 for models whose rejector is disabled
SENTINEL_REJECT_BIAS = 1.0

# active sets per branch whose row sums a train call keeps: a run visits
# hundreds, and the oscillating subgradient keeps returning to recent ones
ROW_SUM_SETS = 64


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


class _RowSums:
    """Row sums of one problem's zb and y over sets of rows, each computed
    once and kept for the ROW_SUM_SETS most recently used sets per branch.

    get(branch, mask) gives (k, zsum, ysum) for the k rows where mask is
    True: zsum is the sum of their zb rows (branches "a" and "b") and ysum
    is y @ zb over them (branches "a" and "act"). A sum the branch does not
    use, or any sum over no rows, is None. The arrays are read-only."""

    def __init__(self, zb: np.ndarray, y: np.ndarray):
        self.zb, self.y = zb, y
        self.kept = {branch: OrderedDict() for branch in ("a", "b", "act")}

    def get(self, branch: str, mask: np.ndarray):
        kept, key = self.kept[branch], mask.tobytes()
        entry = kept.get(key)
        if entry is None:
            entry = kept[key] = self._sums(branch, mask)
            if len(kept) > ROW_SUM_SETS:
                kept.popitem(last=False)
        else:
            kept.move_to_end(key)
        return entry

    def _sums(self, branch: str, mask: np.ndarray):
        rows = mask.nonzero()[0]
        if not rows.size:
            return 0, None, None
        z = self.zb.take(rows, axis=0)
        zsum = None if branch == "act" else z.sum(axis=0)
        ysum = None if branch == "b" else self.y.take(rows) @ z
        for s in (zsum, ysum):
            if s is not None:
                s.setflags(write=False)
        return rows.size, zsum, ysum


def _objective_arrays(
    theta: np.ndarray,
    gamma: np.ndarray,
    zb: np.ndarray,
    y: np.ndarray,
    cfg: TrainConfig,
    with_grad: bool = False,
    sums: _RowSums | None = None,
):
    """Objective on augmented arrays (last coordinate is the bias); with
    with_grad, (objective, g_theta, g_gamma) with a subgradient from the
    same pass. The gradients are fresh arrays the caller may overwrite.
    sums is the memo of row sums for this zb and y; without one the call
    makes its own.

    y holds only -1 and +1. The l1 terms and their sign vectors cover the
    weight coordinates only (bias frozen); at eps = 0 they are not formed."""
    p, eps = cfg.params, cfg.eps_train
    if sums is None:
        sums = _RowSums(zb, y)
    f = zb @ gamma
    reg = 0.5 * cfg.lam_prime * float(gamma @ gamma)
    g_gamma = cfg.lam_prime * gamma
    if not cfg.rejection_enabled:
        margin = y * f
        np.subtract(1.0, margin, out=margin)
        if eps:
            # no rejector: zeta(+1) = zeta(-1) = -gamma for every label
            zeta, (zeta_l1, _, _) = worst_case_l1(np.zeros(gamma.size - 1), gamma[:-1], eps)
            margin += zeta_l1
        val = float(np.maximum(margin, 0.0).sum()) + reg
        if not with_grad:
            return val
        k, _, ysum = sums.get("act", margin > 0)
        if k:
            g_gamma -= ysum
            if eps:  # d/dgamma eps*||zeta||_1 = -eps*sgn(zeta)
                g_gamma[:-1] -= eps * k * np.sign(zeta[0])
        return val, np.zeros_like(theta), g_gamma
    r = zb @ theta
    gap = y * f
    np.subtract(r, gap, out=gap)
    if eps:
        zeta, (zeta_pos, zeta_neg, theta_l1) = worst_case_l1(theta[:-1], gamma[:-1], eps)
        gap += np.where(y > 0, zeta_pos, zeta_neg)
        mh = mh_branches(gap, r - theta_l1, p)
    else:
        mh = mh_branches(gap, r, p)
    val = float(mh.value.sum()) + reg + 0.5 * cfg.lam * float(theta @ theta)
    if not with_grad:
        return val
    g_theta = cfg.lam * theta
    if eps:
        signs = np.sign(zeta)
    k, zsum, ysum = sums.get("a", mh.use_a)
    if k:
        ha = 0.5 * p.alpha
        g_theta += ha * zsum
        g_gamma -= ha * ysum
        if eps:
            # d/dtheta eps*||zeta(y)||_1 = eps*y*sgn(zeta(y)); d/dgamma = -eps*sgn(zeta(y)),
            # summed over the rows as n+ sgn zeta(+1) -/+ n- sgn zeta(-1), where
            # n+ - n- is the bias entry of ysum (the bias feature is 1)
            n_pos = (k + int(ysum[-1])) // 2
            signs[0] *= n_pos
            signs[1] *= k - n_pos
            g_theta[:-1] += ha * eps * (signs[0] - signs[1])
            g_gamma[:-1] -= ha * eps * (signs[0] + signs[1])
    k, zsum, _ = sums.get("b", mh.use_b)
    if k:
        if eps:
            zsum = zsum.copy()
            zsum[:-1] -= eps * k * signs[2]
        g_theta -= p.cost * p.beta * zsum
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
    sums = _RowSums(zb, y)

    objs = np.empty(cfg.epochs + 1)
    # scale by n so lr0 means the same thing across dataset sizes
    steps = cfg.lr0 / (np.sqrt(np.arange(1.0, cfg.epochs + 1)) * len(y))
    best_val = np.inf
    best_epoch = 0
    best_theta, best_gamma = theta, gamma  # iterates are rebound each epoch, never mutated
    for t in range(cfg.epochs + 1):
        last = t == cfg.epochs
        out = _objective_arrays(theta, gamma, zb, y, cfg, with_grad=not last, sums=sums)
        val = out if last else out[0]
        if not math.isfinite(val):
            raise FloatingPointError(
                f"objective diverged at epoch {t} (lr0={cfg.lr0}); lower the step size"
            )
        if val < best_val:
            best_val, best_epoch = val, t
            best_theta, best_gamma = theta, gamma
        objs[t] = val
        if last:
            break
        _, g_theta, g_gamma = out  # fresh arrays: each becomes the next iterate
        g_gamma *= steps[t]
        gamma = np.subtract(gamma, g_gamma, out=g_gamma)
        if cfg.rejection_enabled:
            g_theta *= steps[t]
            theta = np.subtract(theta, g_theta, out=g_theta)

    model = RejectionModel(
        theta=best_theta[:-1],
        gamma=best_gamma[:-1],
        bias_theta=float(best_theta[-1]),
        bias_gamma=float(best_gamma[-1]),
        feature_map=fm,
    )
    trace = TrainTrace(objs, np.minimum.accumulate(objs), best_val, best_epoch)
    return model, trace
