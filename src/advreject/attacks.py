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

from .losses import SurrogateParams, loss_01c, loss_mh
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


class LinearMHOracle:
    """Loss/gradient oracle for the MH loss of a linear model, in feature
    space. At branch ties the classification branch wins."""

    def __init__(self, m: RejectionModel, p: SurrogateParams):
        self.m = m
        self.p = p
        self._grad_b = -p.cost * p.beta * m.theta

    def loss(self, z: np.ndarray, y: int) -> float:
        f, r = self.m.scores_features(z)
        return float(loss_mh(f, r, y, self.p))

    def grad(self, z: np.ndarray, y: int) -> np.ndarray:
        f, r = self.m.scores_features(z)
        a = 1.0 + 0.5 * self.p.alpha * (float(r) - y * float(f))
        b = self.p.cost * (1.0 - self.p.beta * float(r))
        if a <= 0.0 and b <= 0.0:
            return np.zeros_like(z)
        if a >= b:
            return 0.5 * self.p.alpha * (self.m.theta - y * self.m.gamma)
        return self._grad_b


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
    eps, step = spec.eps, spec.resolved_step()
    delta = np.zeros_like(x)
    if spec.random_start and eps > 0:
        rng = np.random.default_rng(spec.seed)
        delta = rng.uniform(-eps, eps, size=x.shape)
        if spec.norm == "l2":
            delta = _project_l2(delta, eps)
    best = Perturbation(delta.copy(), oracle.loss(x + delta, y))
    if eps == 0:
        return best
    for i in range(spec.steps):
        g = oracle.grad(x + delta, y)
        _check_finite(g, f"pgd step {i}")
        if spec.norm == "linf":
            delta = np.clip(delta + step * np.sign(g), -eps, eps)
        else:
            gn = np.linalg.norm(g)
            if gn > 0:
                delta = _project_l2(delta + step * g / gn, eps)
        val = oracle.loss(x + delta, y)
        if val > best.achieved_loss:
            best = Perturbation(delta.copy(), val)
    return best


def _project_l2(delta: np.ndarray, eps: float) -> np.ndarray:
    nrm = np.linalg.norm(delta)
    if nrm <= eps:
        return delta
    return delta * (eps / nrm)


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


def pgd_linear_mh_batch(
    m: RejectionModel,
    z: np.ndarray,
    y: np.ndarray,
    eps: float,
    params: SurrogateParams,
    steps: int = 20,
    step_size: float | str = "auto",
) -> np.ndarray:
    """PGD on the MH loss, vectorized over rows of z. Returns per-row deltas
    of the best iterate (start included)."""
    z = np.asarray(z, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if eps == 0:
        return np.zeros_like(z)
    step = eps / np.sqrt(steps) if step_size == "auto" else float(step_size)
    delta = np.zeros_like(z)
    grad_b = -params.cost * params.beta * m.theta

    def mh(dl):
        f, r = m.scores_features(z + dl)
        return np.maximum(
            np.maximum(1.0 + 0.5 * params.alpha * (r - y * f), params.cost * (1.0 - params.beta * r)),
            0.0,
        )

    best_loss = mh(delta)
    best_delta = delta.copy()
    for _ in range(steps):
        f, r = m.scores_features(z + delta)
        a = 1.0 + 0.5 * params.alpha * (r - y * f)
        b = params.cost * (1.0 - params.beta * r)
        g = np.zeros_like(z)
        use_a = (a >= b) & (a > 0)
        use_b = (b > a) & (b > 0)
        if np.any(use_a):
            ga = 0.5 * params.alpha * (m.theta[None, :] - y[:, None] * m.gamma[None, :])
            g[use_a] = ga[use_a]
        g[use_b] = grad_b
        delta = np.clip(delta + step * np.sign(g), -eps, eps)
        cur = mh(delta)
        improved = cur > best_loss
        best_loss = np.where(improved, cur, best_loss)
        best_delta[improved] = delta[improved]
    return best_delta
