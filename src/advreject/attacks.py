"""Adversarial perturbations: gradient attacks, exact linear candidates,
and a small-dimension brute-force oracle.

All attacks act on the perturbable coordinates only. Models keep their
biases outside the feature vector, so a perturbation has the same shape as
the (featurized) input and needs no masking.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .losses import SurrogateParams, loss_01c, mh_branches
from .model import RejectionModel


@dataclass(frozen=True)
class AttackSpec:
    """What the attacker is allowed to do at evaluation or training time.

    step_size "auto" resolves to eps/sqrt(steps).
    """

    method: str = "none"  # none | analytic_linear | fgsm | pgd
    eps: float = 0.0
    norm: str = "linf"  # linf | l2
    steps: int = 20
    step_size: float | str = "auto"
    random_start: bool = False
    seed: int = 0

    def __post_init__(self):
        if self.method not in ("none", "analytic_linear", "fgsm", "pgd"):
            raise ValueError(f"method must be one of none/analytic_linear/fgsm/pgd, got {self.method!r}")
        if self.eps < 0:
            raise ValueError("eps must be nonnegative")
        if self.norm not in ("linf", "l2"):
            raise ValueError(f"norm must be linf or l2, got {self.norm!r}")
        if self.method in ("analytic_linear", "fgsm") and self.norm != "linf":
            raise ValueError(f"norm must be linf for method {self.method}")
        if self.steps < 1:
            raise ValueError("steps must be >= 1")
        if self.step_size != "auto" and not (isinstance(self.step_size, (int, float)) and self.step_size > 0):
            raise ValueError("step_size must be positive or 'auto'")

    def resolved_step(self) -> float:
        if self.step_size == "auto":
            return self.eps / np.sqrt(self.steps)
        return float(self.step_size)


@dataclass(frozen=True)
class Perturbation:
    delta: np.ndarray
    achieved_loss: float


def linear_mh_value_grad(m: RejectionModel, z: np.ndarray, y, p: SurrogateParams, grad: bool = True):
    """MH loss of a linear model at feature points z (a vector or rows) and,
    if grad, its gradient in z (None otherwise). Branch A's gradient is
    (alpha/2)(theta - y*gamma), branch B's -c*beta*theta, an inactive
    hinge's 0."""
    f, r = m.scores_features(z)
    y = np.asarray(y, dtype=np.float64)
    mh = mh_branches(r - y * f, r, p)
    if not grad:
        return mh.value, None
    ga = 0.5 * p.alpha * (m.theta - y[..., None] * m.gamma)
    gb = -p.cost * p.beta * m.theta
    return mh.value, np.where(mh.use_a[..., None], ga, np.where(mh.use_b[..., None], gb, 0.0))


class LinearMHOracle:
    """Loss/gradient oracle for the MH loss of a linear model, in feature
    space. At branch ties the classification branch wins."""

    def __init__(self, m: RejectionModel, p: SurrogateParams):
        self.m = m
        self.p = p

    def loss(self, z: np.ndarray, y: int) -> float:
        return float(linear_mh_value_grad(self.m, z, y, self.p, grad=False)[0])

    def grad(self, z: np.ndarray, y: int) -> np.ndarray:
        return linear_mh_value_grad(self.m, z, y, self.p)[1]


def _check_finite(g: np.ndarray, context: str) -> None:
    if not np.all(np.isfinite(g)):
        raise FloatingPointError(f"non-finite gradient during {context}")


def fgsm(oracle, x: np.ndarray, y: int, eps: float) -> Perturbation:
    """Single sign-of-gradient step: delta = eps * sgn(grad), sgn(0) = 0."""
    if eps < 0:
        raise ValueError("eps must be nonnegative")
    x = np.asarray(x, dtype=np.float64)
    g = oracle.grad(x, y)
    _check_finite(g, "fgsm")
    delta = eps * np.sign(g)
    return Perturbation(delta, oracle.loss(x + delta, y))


def pgd(oracle, x: np.ndarray, y: int, spec: AttackSpec) -> Perturbation:
    """Iterated projected gradient ascent on the oracle's loss.

    linf takes sign steps with box clipping; l2 takes normalized-gradient
    steps with ball projection. Returns the best iterate seen, the start
    point included, so the achieved loss never falls below the clean loss.
    """
    x = np.asarray(x, dtype=np.float64)
    delta = _start(spec, x.shape)
    best = Perturbation(delta.copy(), oracle.loss(x + delta, y))
    if spec.eps == 0:
        return best
    for i in range(spec.steps):
        g = oracle.grad(x + delta, y)
        _check_finite(g, f"pgd step {i}")
        delta = _step(delta, g, spec)
        val = oracle.loss(x + delta, y)
        if val > best.achieved_loss:
            best = Perturbation(delta.copy(), val)
    return best


def _start(spec: AttackSpec, shape: tuple) -> np.ndarray:
    """The PGD start: 0, or with random_start one uniform(-eps, eps) draw
    from the spec's seed over the last axis, projected for l2 and shared by
    every row."""
    if not (spec.random_start and spec.eps > 0):
        return np.zeros(shape)
    delta = np.random.default_rng(spec.seed).uniform(-spec.eps, spec.eps, size=shape[-1])
    if spec.norm == "l2":
        delta = _project_l2(delta, spec.eps)
    return np.broadcast_to(delta, shape).copy()


def _step(delta: np.ndarray, g: np.ndarray, spec: AttackSpec) -> np.ndarray:
    """One ascent step per row: a sign step clipped to the box for linf, a
    normalized-gradient step projected onto the ball for l2 (no move where
    the gradient is 0)."""
    eps, step = spec.eps, spec.resolved_step()
    if spec.norm == "linf":
        return np.clip(delta + step * np.sign(g), -eps, eps)
    gn = np.linalg.norm(g, axis=-1, keepdims=True)
    return np.where(gn > 0, _project_l2(delta + step * g / np.where(gn > 0, gn, 1.0), eps), delta)


def _project_l2(delta: np.ndarray, eps: float) -> np.ndarray:
    """Each row of delta (or delta itself) scaled into the l2 ball of radius eps."""
    nrm = np.linalg.norm(delta, axis=-1, keepdims=True)
    return delta * (eps / np.maximum(nrm, eps))


def analytic_candidates(
    m: RejectionModel, z: np.ndarray, y: int, eps: float, cost: float
) -> list[Perturbation]:
    """The two corner maximizers of the linear worst case.

    delta_A = y*eps*sgn(zeta(y)) attains the branch maximum
    r - y*f + eps*||zeta(y)||_1; delta_B = -eps*sgn(theta) attains the
    rejection-branch maximum by driving r to r - eps*||theta||_1. The
    achieved loss reported is the zero-one-c loss at the perturbed point.
    """
    if eps < 0:
        raise ValueError("eps must be nonnegative")
    z = np.asarray(z, dtype=np.float64)
    delta_a = y * eps * np.sign(m.zeta(y))
    delta_b = -eps * np.sign(m.theta)
    out = []
    for delta in (delta_a, delta_b):
        f, r = m.scores_features(z + delta)
        out.append(Perturbation(delta, float(loss_01c(f, r, y, cost))))
    return out


def worst_case_01c(
    m: RejectionModel,
    z: np.ndarray,
    y: int,
    eps: float,
    cost: float,
    mode: str = "heuristic",
    params: SurrogateParams | None = None,
    steps: int = 20,
) -> float:
    """Max of the zero-one-c loss over the eps-box, by candidates or by force.

    heuristic: max over {clean, delta_A, delta_B, PGD on the MH surrogate}.
    exact_small_d: dense 21-point/axis grid plus every corner, d <= 6; a
    test oracle, exponential in d.
    """
    z = np.asarray(z, dtype=np.float64)
    if mode == "heuristic":
        if params is None:
            params = SurrogateParams(cost=cost)
        f, r = m.scores_features(z)
        best = float(loss_01c(f, r, y, cost))
        for cand in analytic_candidates(m, z, y, eps, cost):
            best = max(best, cand.achieved_loss)
        if eps > 0:
            spec = AttackSpec(method="pgd", eps=eps, steps=steps)
            pert = pgd(LinearMHOracle(m, params), z, y, spec)
            f, r = m.scores_features(z + pert.delta)
            best = max(best, float(loss_01c(f, r, y, cost)))
        return best
    if mode == "exact_small_d":
        return _exact_box_max_01c(m, z, y, eps, cost)
    raise ValueError(f"unknown mode {mode!r}")


def _exact_box_max_01c(m: RejectionModel, z: np.ndarray, y: int, eps: float, cost: float) -> float:
    """Grid+corner enumeration of the zero-one-c loss over the box.

    The loss only depends on the two inner products <delta, gamma> and
    <delta, theta>, so the grid is folded axis by axis instead of being
    materialized.
    """
    d = z.shape[0]
    if d > 6:
        raise ValueError("exact_small_d oracle is limited to d <= 6")
    f0, r0 = m.scores_features(z)
    f0, r0 = float(f0), float(r0)
    axis = np.linspace(-eps, eps, 21)
    # split axes so the vectorized inner block stays small
    n_inner = min(d, 4)
    inner_f = np.zeros(1)
    inner_r = np.zeros(1)
    for j in range(d - n_inner, d):
        inner_f = (inner_f[:, None] + axis[None, :] * m.gamma[j]).ravel()
        inner_r = (inner_r[:, None] + axis[None, :] * m.theta[j]).ravel()
    best = 0.0
    outer_axes = [axis] * (d - n_inner)
    for combo in itertools.product(*outer_axes) if outer_axes else [()]:
        of = sum(c * m.gamma[j] for j, c in enumerate(combo))
        orr = sum(c * m.theta[j] for j, c in enumerate(combo))
        f = f0 + of + inner_f
        r = r0 + orr + inner_r
        best = max(best, float(loss_01c(f, r, np.full_like(f, y), cost).max()))
    return best


def pgd_batch(value_grad, x: np.ndarray, spec: AttackSpec) -> np.ndarray:
    """PGD ascent vectorized over the rows of x, with the steps of ``pgd``.

    value_grad(points, grad) gives each row's objective at the points and,
    if grad, its gradient there, so one call both scores an iterate and
    sets the next step. Returns each row's delta at its best iterate, the
    start included.
    """
    delta = _start(spec, x.shape)
    if spec.eps == 0:
        return delta
    best_val, g = value_grad(x + delta, True)
    best_delta = delta.copy()
    for i in range(spec.steps):
        delta = _step(delta, g, spec)
        val, g = value_grad(x + delta, i + 1 < spec.steps)  # the last iterate is only scored
        better = val > best_val
        best_val = np.where(better, val, best_val)
        best_delta[better] = delta[better]
    return best_delta


def pgd_linear_mh_batch(
    m: RejectionModel, z: np.ndarray, y: np.ndarray, spec: AttackSpec, params: SurrogateParams
) -> np.ndarray:
    """PGD on the MH loss of a linear model, vectorized over rows of z.
    Returns per-row deltas of the best iterate (start included)."""
    z = np.asarray(z, dtype=np.float64)
    return pgd_batch(lambda zd, grad: linear_mh_value_grad(m, zd, y, params, grad), z, spec)
