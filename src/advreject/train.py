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
reassociates a sum here (one gemm for f and r, or a row sum taken as a
0/1-weighted gemv over all rows instead of a sum over the gathered ones)
changes the trained models and fails them; speed-ups must do the same
operations with less overhead, or do them fewer times.

So a train call sets up what it fixes once, in one _TrainCall: zb, y,
the label mask y > 0, the rejection flag, the config's scalars, and one
row-sum cache per branch (branch A's rows, branch B's rows, or the active
rows of svm/at). A cache is functools.lru_cache over _row_sums, keyed by
the row mask's bytes and bounded at ROW_SUM_SETS sets. zb and y are fixed
for a train call, so a sum is a function of its row mask alone, and a
reused sum is the very array a fresh gather and reduction gave. The sums
are kept scaled by the scalar the epoch multiplied them by (alpha/2, and
c*beta at eps = 0), and Python evaluates p.cost * p.beta * zsum left to
right, so a kept product has the bits of the one formed per epoch. The
products go through ndarray.dot, the same BLAS call as @ with less
dispatch. svm/at form no theta subgradient: their rejector stays put.

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

import math
from dataclasses import dataclass, field, replace
from functools import lru_cache, partial

import numpy as np

from .data import Dataset, check_numbers, csv_text
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
        check_numbers(self, nonnegative=("eps_train", "lam", "lam_prime"), counts=("epochs",), positive=("lr0",))
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {'/'.join(MODES)}, got {self.mode!r}")
        if self.mode in ("svm", "mh") and self.eps_train != 0:
            raise ValueError(f"eps_train must be 0 for mode {self.mode}")

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
        rows = zip(range(len(self.objective)), self.objective, self.best)
        return csv_text(("epoch", "objective", "best"), rows)


def _augment(z: np.ndarray) -> np.ndarray:
    return np.hstack([z, np.ones((z.shape[0], 1))])


def _warm_start(call: _TrainCall) -> tuple[np.ndarray, np.ndarray]:
    """Deterministic ridge initialization.

    The classifier is fit to margin targets and rescaled so most training
    margins clear the hinge. For rejection modes the rejector is then fit
    to accept/reject targets derived from the warm classifier's own
    margins (a confidence-based start). Subgradient descent refines both;
    starting near a classifying solution matters because the objective has
    a broad reject-everything plateau that plain descent from zero rarely
    leaves.
    """
    zb, y, p = call.zb, call.y, call.params
    dim = zb.shape[1]
    margin_target = (2.0 / p.alpha + 1.0 / p.beta) if call.rejection else 1.0
    gram = zb.T @ zb
    gram_reg = gram + (1e-2 * np.trace(gram) / dim + 1e-10) * np.eye(dim)
    gamma = np.linalg.solve(gram_reg, zb.T @ (margin_target * y))

    if not call.rejection:
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
        val = call.objective(theta, s * gamma)
        if val < best_val:
            best_s, best_val = float(s), val
    return theta, best_s * gamma


def _row_sums(zb: np.ndarray, y: np.ndarray, branch: str, scale: float | None, key: bytes):
    """The row sums of one branch over the rows where the bool mask with
    bytes ``key`` is True, k of them, each already scaled as the
    subgradient uses it:
      "a"    (k, ha*zsum, ha*ysum, n_pos), scale ha = alpha/2 and n_pos the
             number of rows labelled +1
      "b"    (k, (c*beta)*zsum) with scale c*beta at eps = 0; (k, zsum)
             with scale None at eps > 0, where the eps*k*sgn(theta) term
             goes in before the scale
      "act"  (k, ysum)
    zsum is the sum of the rows of zb and ysum is y @ zb over them. A sum
    over no rows is None. The arrays are read-only."""
    rows = np.frombuffer(key, dtype=bool).nonzero()[0]
    k = rows.size
    if not k:
        return (0, None, None, 0) if branch == "a" else (0, None)
    z = zb.take(rows, axis=0)
    if branch == "act":
        entry = (k, y.take(rows).dot(z))
    elif branch == "b":
        zsum = z.sum(axis=0)
        entry = (k, zsum if scale is None else scale * zsum)
    else:
        ysum = y.take(rows).dot(z)  # its bias entry is n+ - n-, as the bias feature is 1
        entry = (k, scale * z.sum(axis=0), scale * ysum, (k + int(ysum[-1])) // 2)
    for s in entry[1:3]:
        s.setflags(write=False)
    return entry


class _TrainCall:
    """One train call on augmented features zb (last coordinate the bias)
    and labels y in {-1, +1}: its set-up (see the module docstring) and its
    objective. ``sums[branch](mask.tobytes())`` gives the _row_sums entry
    of a branch, kept for the ROW_SUM_SETS most recently used masks. The
    caches hold zb and y but not the call, so the call and its sums are
    freed when the last reference to it goes."""

    def __init__(self, zb: np.ndarray, y: np.ndarray, cfg: TrainConfig):
        p = cfg.params
        self.zb, self.y, self.cfg, self.y_pos, self.params = zb, y, cfg, y > 0, p
        self.rejection, self.eps = cfg.rejection_enabled, cfg.eps_train
        self.lam, self.lam_prime = cfg.lam, cfg.lam_prime
        self.half_lam, self.half_lam_prime = 0.5 * cfg.lam, 0.5 * cfg.lam_prime
        self.cb = p.cost * p.beta
        ha = 0.5 * p.alpha
        self.ha_eps = ha * self.eps
        scales = {"a": ha, "b": None if self.eps else self.cb} if self.rejection else {"act": None}
        self.sums = {b: lru_cache(ROW_SUM_SETS)(partial(_row_sums, zb, y, b, s)) for b, s in scales.items()}

    def objective(self, theta: np.ndarray, gamma: np.ndarray, with_grad: bool = False):
        """The objective at (theta, gamma), bias last; with with_grad,
        (objective, g_theta, g_gamma) with a subgradient from the same
        pass. The gradients are fresh arrays the caller may overwrite;
        svm/at give g_theta None, as their rejector stays at the sentinel.
        The l1 terms and their sign vectors cover the weight coordinates
        only (bias frozen); at eps = 0 they are not formed."""
        zb, y, eps = self.zb, self.y, self.eps
        f = zb.dot(gamma)
        reg = self.half_lam_prime * float(gamma.dot(gamma))
        if not self.rejection:
            margin = y * f
            np.subtract(1.0, margin, out=margin)
            if eps:  # no rejector: zeta(+1) = zeta(-1) = -gamma for every label
                margin += eps * np.abs(gamma[:-1]).sum()
            val = float(np.maximum(margin, 0.0).sum()) + reg
            if not with_grad:
                return val
            g_gamma = self.lam_prime * gamma
            k, ysum = self.sums["act"]((margin > 0).tobytes())
            if k:
                g_gamma -= ysum
                if eps:  # d/dgamma eps*||zeta||_1 = -eps*sgn(zeta); sgn(-0.0) is +0.0, where -sgn(0.0) is -0.0
                    g_gamma[:-1] -= eps * k * np.sign(np.negative(gamma[:-1]))
            return val, None, g_gamma
        r = zb.dot(theta)
        gap = y * f
        np.subtract(r, gap, out=gap)
        if eps:
            zeta, (zeta_pos, zeta_neg, theta_l1) = worst_case_l1(theta[:-1], gamma[:-1], eps)
            gap += np.where(self.y_pos, zeta_pos, zeta_neg)
            mh = mh_branches(gap, r - theta_l1, self.params)
        else:
            mh = mh_branches(gap, r, self.params)
        val = float(mh.value.sum()) + reg + self.half_lam * float(theta.dot(theta))
        if not with_grad:
            return val
        g_theta = self.lam * theta
        g_gamma = self.lam_prime * gamma
        if eps:
            signs = np.sign(zeta)
        k, hz, hy, n_pos = self.sums["a"](mh.use_a.tobytes())
        if k:
            g_theta += hz
            g_gamma -= hy
            if eps:
                # d/dtheta eps*||zeta(y)||_1 = eps*y*sgn(zeta(y)); d/dgamma = -eps*sgn(zeta(y)),
                # summed over the rows as n+ sgn zeta(+1) -/+ n- sgn zeta(-1)
                signs[0] *= n_pos
                signs[1] *= k - n_pos
                g_theta[:-1] += self.ha_eps * (signs[0] - signs[1])
                g_gamma[:-1] -= self.ha_eps * (signs[0] + signs[1])
        k, zsum = self.sums["b"](mh.use_b.tobytes())
        if k:
            if eps:  # the entry is unscaled: the eps term goes in first
                zsum = zsum.copy()
                zsum[:-1] -= eps * k * signs[2]
                zsum *= self.cb
            g_theta -= zsum
        return val, g_theta, g_gamma


def objective(m: RejectionModel, ds: Dataset, cfg: TrainConfig) -> float:
    """Training objective of a model on a dataset under the given config."""
    if len(ds) == 0:
        raise ValueError("dataset is empty")
    z = featurize(cfg.feature_map, ds.x)
    theta = np.append(m.theta, m.bias_theta)
    gamma = np.append(m.gamma, m.bias_gamma)
    return _TrainCall(_augment(z), ds.y.astype(np.float64), cfg).objective(theta, gamma)


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
    call = _TrainCall(_augment(z), ds.y.astype(np.float64), cfg)
    theta, gamma = _warm_start(call)

    objs = np.empty(cfg.epochs + 1)
    # scale by n so lr0 means the same thing across dataset sizes
    steps = (cfg.lr0 / (np.sqrt(np.arange(1.0, cfg.epochs + 1)) * len(ds))).tolist()
    best_val = np.inf
    best_epoch = 0
    best_theta, best_gamma = theta, gamma  # iterates are rebound each epoch, never mutated
    for t in range(cfg.epochs + 1):
        last = t == cfg.epochs
        out = call.objective(theta, gamma, with_grad=not last)
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
        if g_theta is not None:  # svm/at keep the sentinel rejector
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
