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

and the worst-case loss max(A~, B~, 0), which ``adv_loss_mh_linear_batch``
gives for one vector or each row of a batch. The l1 norms run over the
perturbable weight coordinates only; biases are excluded.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from .data import check_numbers

if TYPE_CHECKING:
    from .model import RejectionModel


@dataclass(frozen=True)
class SurrogateParams:
    """Hinge-scale parameters. Rejection only pays off for cost < 1/2."""

    alpha: float = 1.0
    beta: float = 1.0
    cost: float = 0.3

    def __post_init__(self):
        check_numbers(self, positive=("alpha", "beta"), floats=("cost",))
        if not 0.0 < self.cost < 0.5:
            raise ValueError("cost must lie in (0, 0.5)")


# read-only 0-d float64 operands: numpy converts a Python float operand on
# every ufunc call and a 0-d array not, with the same bits
ZERO, ONE = np.zeros(()), np.ones(())
ZERO.flags.writeable = ONE.flags.writeable = False

# cost given to the no-rejection modes (svm/at): their rejector never
# fires, so any valid cost trains the same model; evaluation charges it
NO_REJECT_COST = 0.25


def verdict(f_val, r_val) -> np.ndarray:
    """The decision at scores (f, r): 0 (reject) where r <= 0, else the
    label, +1 where f >= 0 and -1 where f < 0. Accepts scalars or arrays;
    r = inf gives the classifier's label whether or not it would answer."""
    return np.where(np.asarray(r_val) <= 0.0, 0, np.where(np.asarray(f_val) >= 0.0, 1, -1))


def pm1_labels(y) -> np.ndarray:
    """y as float64, after checking that every label is +1 or -1: the
    linear attacks and worst cases pick per-label rows by the sign of y."""
    y = np.asarray(y, dtype=np.float64)
    bad = (y != 1.0) & (y != -1.0)
    if bad.any():
        raise ValueError(f"labels must be +1 or -1, got {y[bad][0]:g}")
    return y


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


def mh_branches(gap, r, p: SurrogateParams, out: MHBranches | None = None) -> MHBranches:
    """The two MH branches A = 1 + (alpha/2) gap and B = c (1 - beta r), the
    loss max(A, B, 0), and which branch is active per sample.

    gap is r - y*f, plus eps*||zeta(y)||_1 for the worst case, where r is
    lowered by eps*||theta||_1. A wins a tie; an inactive hinge (A, B <= 0)
    activates neither branch, so it contributes no gradient.

    Accepts scalars or arrays. A, B and the masks are built in place after
    their first step, in new arrays or in the five of out, which then holds
    the result. The masks use_a = (A >= B) & (A > 0) and
    use_b = (B > A) & (B > 0) come from value > 0, which holds exactly
    where one of them does: value is max(A, 0) where A >= B, max(B, 0)
    where B > A, and NaN where A or B is.
    """
    a, b, value, use_a, use_b = out or (None,) * 5
    a = np.multiply(gap, 0.5 * p.alpha, out=a)
    a += ONE
    b = np.multiply(r, -p.beta, out=b)  # 1 + (-beta r) is 1 - beta r, bit for bit
    b += ONE
    b *= p.cost
    value = np.maximum(np.maximum(a, b, out=value), ZERO, out=value)
    use_a = np.greater_equal(a, b, out=use_a)
    use_b = np.greater(value, ZERO, out=use_b)
    use_a &= use_b  # where A >= B, value = max(A, 0)
    use_b ^= use_a  # the rest of value > 0, where B > A
    return out or MHBranches(a, b, value, use_a, use_b)


def worst_case_l1(theta: np.ndarray, gamma: np.ndarray, eps: float) -> tuple[np.ndarray, tuple[float, float, float]]:
    """The l1 terms of the worst case over the eps-ball and the vectors
    they are taken of. Returns (zeta, l1): zeta stacks zeta(+1) = theta -
    gamma, zeta(-1) = -theta - gamma and theta as its rows, whose signs are
    the worst-case directions and the l1 subgradients, and l1 holds
    eps*||zeta(+1)||_1, eps*||zeta(-1)||_1 and eps*||theta||_1. theta and
    gamma are the weight coordinates only; the biases are not perturbable."""
    zeta = np.empty((3, theta.size))
    np.subtract(theta, gamma, out=zeta[0])
    np.negative(theta, out=zeta[1])
    zeta[1] -= gamma
    zeta[2] = theta
    return zeta, tuple((eps * np.abs(zeta).sum(axis=1)).tolist())


def adv_loss_mh_linear_batch(
    m: RejectionModel, z: np.ndarray, y: np.ndarray, eps: float, p: SurrogateParams
) -> np.ndarray:
    """Exact max of the MH loss of a linear model over the eps-ball around
    z, for one feature vector z with label y or for each row of z with its
    label in y (ValueError unless +-1). eps bounds the attacker in feature
    space."""
    if eps < 0:
        raise ValueError("eps must be nonnegative")
    y = pm1_labels(y)
    f, r = m.scores_features(z)
    _, (zeta_pos, zeta_neg, theta_l1) = worst_case_l1(m.theta, m.gamma, eps)
    return mh_branches(r - y * f + np.where(y > 0, zeta_pos, zeta_neg), r - theta_l1, p).value
