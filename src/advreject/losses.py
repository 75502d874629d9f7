"""Rejection-aware losses and their exact worst-case forms for linear models.

The reference loss charges c for a rejection, 1 for an accepted
misclassification, and 0 otherwise, judged by the one decision rule
``verdict`` that the models and the evaluation also use: reject when
r <= 0, else predict +1 when f >= 0 and -1 when f < 0.

    L_01c(f, r, y) = c * 1{r <= 0} + 1{r > 0} * 1{verdict(f, r) != y}

The maximum-hinge surrogate upper-bounds L_01c everywhere:

    L_mh(f, r, y) = max(1 + (alpha/2) * (r - y*f), c * (1 - beta*r), 0)

For scores linear in the (perturbable) features, the supremum of L_mh over
an L-infinity ball of radius eps has a closed form: each branch is affine
in the input, so its maximum sits at a corner of the box, giving

    A~ = 1 + (alpha/2) * (r - y*f + eps * ||zeta(y)||_1)
    B~ = c * (1 - beta * (r - eps * ||theta||_1))

and the worst-case loss max(A~, B~, 0). The l1 norms run over the
perturbable weight coordinates only; biases are excluded.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

if TYPE_CHECKING:
    from .model import RejectionModel


@dataclass(frozen=True)
class SurrogateParams:
    """Hinge-scale parameters. Rejection only pays off for cost < 1/2."""

    alpha: float = 1.0
    beta: float = 1.0
    cost: float = 0.3

    def __post_init__(self):
        if not 0 < self.alpha < math.inf:
            raise ValueError("alpha must be finite and positive")
        if not 0 < self.beta < math.inf:
            raise ValueError("beta must be finite and positive")
        if not 0.0 < self.cost < 0.5:
            raise ValueError("cost must lie in (0, 0.5)")


# cost given to the no-rejection modes (svm/at): their rejector never
# fires, so any valid cost trains the same model; evaluation charges it
NO_REJECT_COST = 0.25


def verdict(f_val, r_val) -> np.ndarray:
    """The decision at scores (f, r): 0 (reject) where r <= 0, else the
    label, +1 where f >= 0 and -1 where f < 0. Accepts scalars or arrays;
    r = inf gives the classifier's label whether or not it would answer."""
    return np.where(np.asarray(r_val) <= 0.0, 0, np.where(np.asarray(f_val) >= 0.0, 1, -1))


def loss_01c(f_val, r_val, y, cost: float):
    """Zero-one loss with rejection at cost c: c where the verdict rejects,
    1 where it answers with the wrong label, 0 otherwise. Accepts scalars or
    arrays."""
    if not 0.0 < cost < 0.5:
        raise ValueError("cost must lie in (0, 0.5)")
    v = verdict(f_val, r_val)
    out = np.where(v == 0, cost, (v != np.asarray(y)).astype(np.float64))
    return out if out.ndim else float(out)


class MHBranches(NamedTuple):
    a: np.ndarray
    b: np.ndarray
    value: np.ndarray  # max(a, b, 0)
    use_a: np.ndarray  # where the loss is differentiated along branch A
    use_b: np.ndarray


def mh_branches(gap, r, p: SurrogateParams) -> MHBranches:
    """The two MH branches A = 1 + (alpha/2) gap and B = c (1 - beta r), the
    loss max(A, B, 0), and which branch is active per sample.

    gap is r - y*f, plus eps*||zeta(y)||_1 for the worst case, where r is
    lowered by eps*||theta||_1. A wins a tie; an inactive hinge (A, B <= 0)
    activates neither branch, so it contributes no gradient.
    """
    a = 1.0 + 0.5 * p.alpha * gap
    b = p.cost * (1.0 - p.beta * r)
    value = np.maximum(np.maximum(a, b), 0.0)
    return MHBranches(a, b, value, (a >= b) & (a > 0.0), (b > a) & (b > 0.0))


def loss_mh(f_val, r_val, y, p: SurrogateParams):
    """Maximum-hinge surrogate. Accepts scalars or arrays."""
    f_val = np.asarray(f_val, dtype=np.float64)
    r_val = np.asarray(r_val, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    out = mh_branches(r_val - y * f_val, r_val, p).value
    return out if out.ndim else float(out)


_SURROGATE_CATALOG = {
    "hinge": lambda u: np.maximum(1.0 + u, 0.0),
    "squared_hinge": lambda u: np.maximum(1.0 + u, 0.0) ** 2,
}


def surrogate_conv(f_val, r_val, y, p: SurrogateParams, phi: str = "hinge", psi: str = "hinge"):
    """Additive convex surrogate Phi((alpha/2)(r - y*f)) + c * Psi(-beta*r).

    Phi and Psi come from a fixed catalog of monotone convex upper bounds of
    the step function: "hinge" or "squared_hinge". The sum dominates the
    max-form surrogate, which in turn dominates the zero-one-c loss.
    """
    for name in (phi, psi):
        if name not in _SURROGATE_CATALOG:
            raise ValueError(f"unknown surrogate {name!r}; pick from {sorted(_SURROGATE_CATALOG)}")
    f_val = np.asarray(f_val, dtype=np.float64)
    r_val = np.asarray(r_val, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    out = _SURROGATE_CATALOG[phi](0.5 * p.alpha * (r_val - y * f_val)) + p.cost * _SURROGATE_CATALOG[
        psi
    ](-p.beta * r_val)
    return out if out.ndim else float(out)


@dataclass(frozen=True)
class AdvTerms:
    """Worst-case values of the two hinge branches over the eps-ball."""

    a_tilde: float
    b_tilde: float


def worst_case_l1(theta: np.ndarray, gamma: np.ndarray, eps: float) -> tuple[float, float, float]:
    """The l1 terms of the worst case over the eps-ball: eps*||zeta(+1)||_1,
    eps*||zeta(-1)||_1 and eps*||theta||_1, with zeta(+1) = theta - gamma
    and zeta(-1) = -theta - gamma. theta and gamma are the weight
    coordinates only; the biases are not perturbable."""
    return (
        eps * float(np.abs(theta - gamma).sum()),
        eps * float(np.abs(-theta - gamma).sum()),
        eps * float(np.abs(theta).sum()),
    )


def adv_terms_linear(
    m: RejectionModel, z: np.ndarray, y: int, eps: float, p: SurrogateParams
) -> AdvTerms:
    """Closed-form branch maxima for a linear model at a feature-space point.

    ``z`` is already featurized; ``eps`` bounds the attacker in the same
    space. The bias coordinates never enter the l1 terms.
    """
    if eps < 0:
        raise ValueError("eps must be nonnegative")
    if y not in (-1, 1):
        raise ValueError("y must be -1 or +1")
    f, r = m.scores_features(z)
    f, r = float(f), float(r)
    zeta_pos, zeta_neg, theta_l1 = worst_case_l1(m.theta, m.gamma, eps)
    t = mh_branches(r - y * f + (zeta_pos if y > 0 else zeta_neg), r - theta_l1, p)
    return AdvTerms(float(t.a), float(t.b))


def adv_loss_mh_linear(
    m: RejectionModel, z: np.ndarray, y: int, eps: float, p: SurrogateParams
) -> float:
    """Exact max of the MH loss over the eps-ball around z (linear model)."""
    t = adv_terms_linear(m, z, y, eps, p)
    return max(t.a_tilde, t.b_tilde, 0.0)


def adv_loss_mh_linear_batch(
    m: RejectionModel, z: np.ndarray, y: np.ndarray, eps: float, p: SurrogateParams
) -> np.ndarray:
    """Vectorized adv_loss_mh_linear over rows of z."""
    if eps < 0:
        raise ValueError("eps must be nonnegative")
    f, r = m.scores_features(z)
    y = np.asarray(y, dtype=np.float64)
    zeta_pos, zeta_neg, theta_l1 = worst_case_l1(m.theta, m.gamma, eps)
    return mh_branches(r - y * f + np.where(y > 0, zeta_pos, zeta_neg), r - theta_l1, p).value
