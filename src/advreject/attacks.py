"""Adversarial perturbations: gradient attacks and the exact linf worst
case of a linear model.

All attacks act on the perturbable coordinates only. Models keep their
biases outside the feature vector, so a perturbation has the same shape as
the (featurized) input and needs no masking.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .losses import SurrogateParams, mh_branches
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
        if not 0 <= self.eps < math.inf:
            raise ValueError("eps must be finite and nonnegative")
        if self.norm not in ("linf", "l2"):
            raise ValueError(f"norm must be linf or l2, got {self.norm!r}")
        if self.method in ("analytic_linear", "fgsm") and self.norm != "linf":
            raise ValueError(f"norm must be linf for method {self.method}")
        if self.steps < 1:
            raise ValueError("steps must be >= 1")
        if self.step_size != "auto" and not (isinstance(self.step_size, (int, float)) and 0 < self.step_size < math.inf):
            raise ValueError("step_size must be finite and positive, or 'auto'")

    def resolved_step(self) -> float:
        if self.step_size == "auto":
            return self.eps / np.sqrt(self.steps)
        return float(self.step_size)


@dataclass(frozen=True)
class Perturbation:
    delta: np.ndarray
    achieved_loss: float


def linear_mh_value_grad(m: RejectionModel, z: np.ndarray, y, p: SurrogateParams, grad: bool = True):
    """MH loss of a linear model at feature points z (a vector or rows) with
    labels y = +-1 and, if grad, its gradient in z (None otherwise).

    Every row's gradient is one of four fixed vectors, so it is gathered from
    a per-branch table: 0 for an inactive hinge, branch A's
    (alpha/2)(theta - y*gamma) for y = +1 and for y = -1, and branch B's
    -c*beta*theta. Beyond the two score products and the branch test, a call
    costs one gather."""
    f, r = m.scores_features(z)
    y = np.asarray(y, dtype=np.float64)
    mh = mh_branches(r - y * f, r, p)
    if not grad:
        return mh.value, None
    rows = np.zeros((4, m.feat_dim))
    rows[1] = 0.5 * p.alpha * (m.theta - m.gamma)  # branch A, y = +1
    rows[2] = 0.5 * p.alpha * (m.theta + m.gamma)  # branch A, y = -1
    rows[3] = -p.cost * p.beta * m.theta  # branch B
    branch = np.where(mh.use_a, np.where(y > 0, 1, 2), np.where(mh.use_b, 3, 0))
    return mh.value, rows[branch]


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
    step = _stepper(spec)
    for i in range(spec.steps):
        g = oracle.grad(x + delta, y)
        _check_finite(g, f"pgd step {i}")
        delta = step(delta, g)
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


def _stepper(spec: AttackSpec):
    """The ascent step of spec as a function of (delta, g), with the radius
    and step size resolved once: per row, a sign step clipped to the box for
    linf, a normalized-gradient step projected onto the ball for l2 (no move
    where the gradient is 0)."""
    eps, step = spec.eps, spec.resolved_step()

    def linf_step(delta, g):
        out = np.sign(g)  # one buffer carries delta + step*sgn(g) to the clip
        out *= step
        out += delta
        np.minimum(out, eps, out=out)
        return np.maximum(out, -eps, out=out)

    def l2_step(delta, g):
        gn = np.linalg.norm(g, axis=-1, keepdims=True)
        out = step * g
        out /= np.where(gn > 0, gn, 1.0)
        out += delta
        _project_l2(out, eps)
        np.copyto(out, delta, where=~(gn > 0))
        return out

    return linf_step if spec.norm == "linf" else l2_step


def _project_l2(delta: np.ndarray, eps: float) -> np.ndarray:
    """Each row of delta (or delta itself) scaled into the l2 ball of radius
    eps, in place; returns delta."""
    delta *= eps / np.maximum(np.linalg.norm(delta, axis=-1, keepdims=True), eps)
    return delta


def accepted_error_delta(m: RejectionModel, z: np.ndarray, y: np.ndarray, eps: float) -> np.ndarray:
    """Per row of z with label y = +-1, a delta in the eps-box at which the
    model accepts z + delta with the wrong label, wherever such a delta
    exists: the exact linf worst case of the accepted-error outcome.

    First the fractional knapsack min y*<gamma, delta> subject to
    r(z + delta) >= 0 and |delta_j| <= eps. Start at delta0 =
    -eps*sgn(y*gamma), the minimum of y*f over the box, and raise
    <theta, delta> by the deficit -r(z + delta0) through the coordinates in
    ascending order of |gamma_j|/|theta_j|, the last one fractionally. A
    coordinate has room to move toward eps*sgn(theta_j) only where
    sgn(theta_j) = sgn(y*gamma_j) (2*eps*|theta_j|) or gamma_j = 0
    (eps*|theta_j|). When the deficit binds, the optimum lies on r = 0,
    where the model rejects, so the point then moves along the segment
    toward the max-r corner eps*sgn(theta) until y*f is half its optimum
    (or reaches the corner): where the optimum y*f < 0 and the max of r is
    > 0, that gives r > 0 with the label still wrong.
    """
    y = np.asarray(y, dtype=np.float64)
    theta, gamma = m.theta, m.gamma
    f0, r0 = m.scores_features(z)
    delta = -eps * np.sign(y[:, None] * gamma)
    room = eps * np.abs(theta) - delta * theta  # how much each coordinate can still raise r
    order = np.argsort(np.divide(np.abs(gamma), np.abs(theta), out=np.full(m.feat_dim, np.inf), where=theta != 0))
    room = room[:, order]
    deficit = -r0 - delta @ theta
    raised = np.clip(deficit[:, None] - (np.cumsum(room, axis=1) - room), 0.0, room)
    delta[:, order] += np.divide(raised, theta[order], out=np.zeros_like(raised), where=theta[order] != 0)
    # off r = 0: toward the max-r corner until y*f is half the optimum
    corner = eps * np.sign(theta)
    margin = y * (f0 + delta @ gamma)
    gain = y * (f0 + corner @ gamma) - margin
    t = np.clip(np.divide(-0.5 * margin, gain, out=np.ones_like(gain), where=gain > 0), 0.0, 1.0)
    return np.clip(delta + t[:, None] * (corner - delta), -eps, eps)  # rounding can leave the box by an ulp


def pgd_batch(value_grad, x: np.ndarray, spec: AttackSpec) -> np.ndarray:
    """PGD ascent vectorized over the rows of x, with the steps of ``pgd``.

    value_grad(points, grad) gives each row's objective at the points and,
    if grad, its gradient there, so one call both scores an iterate and
    sets the next step. One step is the ascent step with the radius and
    step size resolved once per call of pgd_batch, that call, and the
    best-iterate update; the last iterate is only scored. Returns each
    row's delta at its best iterate, the start included.

    The loop stops at its first fixed point: when a step leaves every row
    where it is. That is exact, not a tolerance. The gradient that set the
    step came from this very iterate, and value_grad is deterministic, so
    every later step would rescore the same points with the same values
    and gradients, and the best iterate (updated only on a strict gain)
    can no longer change. From the zero start with the automatic step
    size, sign steps on a linear model whose rows keep their MH branch
    reach such a point, a box corner, after ceil(sqrt(steps)) steps (one
    more where rounding leaves that many steps an ulp short of eps).
    """
    delta = _start(spec, x.shape)
    if spec.eps == 0:
        return delta
    step = _stepper(spec)
    best_val, g = value_grad(x + delta, True)
    best_val = np.array(best_val, dtype=np.float64)  # updated in place below
    best_delta = delta.copy()
    for i in range(spec.steps):
        moved = step(delta, g)
        if np.array_equal(moved, delta):
            break
        delta = moved
        val, g = value_grad(x + delta, i + 1 < spec.steps)  # the last iterate is only scored
        better = val > best_val
        np.copyto(best_val, val, where=better)
        np.copyto(best_delta, delta, where=better[..., None])
    return best_delta


def pgd_linear_mh_batch(
    m: RejectionModel, z: np.ndarray, y: np.ndarray, spec: AttackSpec, params: SurrogateParams
) -> np.ndarray:
    """PGD on the MH loss of a linear model, vectorized over rows of z.
    Returns per-row deltas of the best iterate (start included)."""
    z = np.asarray(z, dtype=np.float64)
    return pgd_batch(lambda zd, grad: linear_mh_value_grad(m, zd, y, params, grad), z, spec)
