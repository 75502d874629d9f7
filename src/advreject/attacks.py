"""Adversarial perturbations: PGD and the exact linf worst case of a
linear model, each vectorized over the rows of a batch (a single sample is
a batch of one row). The FGSM candidate of ``evaluate`` is one sign step
along ``linear_mh``.

There is one PGD loop per model kind, and both take the step of
``_stepper``. ``pgd`` is the dense loop that attacks the network: its
iterate and its gradients are one row per input row.
``pgd_linear_mh_batch`` attacks a linear model's MH loss. Its gradients
take four values, so it carries its iterate as a table of the distinct
deltas and each row's index into it, and a step works on a few rows.

On a linear model, what depends only on a row's MH branch or label is
computed once per call on a small table and read with one gather: the
branch table of ``linear_mh``, the step rows of PGD and the per-label
rows of the exact worst case. Only elementwise operations and per-row
reductions move onto a table; every score product keeps its n-row
operand, so the results are those of the per-row computation bit for bit.
Labels must be +1 or -1.

All attacks act on the perturbable coordinates only. Models keep their
biases outside the feature vector, so a perturbation has the same shape as
the (featurized) input and needs no masking.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data import check_numbers
from .losses import SurrogateParams, mh_branches, pm1_labels
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
        step = () if isinstance(self.step_size, str) else ("step_size",)  # "auto", or refused below
        check_numbers(self, nonnegative=("eps",), counts=("steps",), ints=("seed",), floats=step)
        if self.method not in ("none", "analytic_linear", "fgsm", "pgd"):
            raise ValueError(f"method must be one of none/analytic_linear/fgsm/pgd, got {self.method!r}")
        if self.norm not in ("linf", "l2"):
            raise ValueError(f"norm must be linf or l2, got {self.norm!r}")
        if self.method in ("analytic_linear", "fgsm") and self.norm != "linf":
            raise ValueError(f"norm must be linf for method {self.method}")
        if self.step_size != "auto" and not (step and 0 < self.step_size < math.inf):
            raise ValueError("step_size must be finite and positive, or 'auto'")

    def resolved_step(self) -> float:
        if self.step_size == "auto":
            return self.eps / np.sqrt(self.steps)
        return float(self.step_size)


def linear_mh(m: RejectionModel, y, p: SurrogateParams):
    """The MH loss of a linear model with labels y = +-1 (ValueError
    otherwise), as value_grad(z, grad) for pgd_linear_mh_batch: the loss
    at feature points z (a vector or rows) and, if grad, its gradient in z
    as a pair (table, index), where row i's gradient is table[index[i]];
    None otherwise.

    Every row's gradient is one of four fixed vectors, the rows of the
    table: 0 for an inactive hinge, branch A's (alpha/2)(theta - y*gamma)
    for y = +1 and for y = -1, and branch B's -c*beta*theta. The table and
    each row's branch-A index depend only on m, y and p, so they are built
    here, once; every call returns the same table object, read-only, and
    costs the two score products, the branch test and the index."""
    y = pm1_labels(y)
    table = np.zeros((4, m.feat_dim))
    table[1] = 0.5 * p.alpha * (m.theta - m.gamma)  # branch A, y = +1
    table[2] = 0.5 * p.alpha * (m.theta + m.gamma)  # branch A, y = -1
    table[3] = -p.cost * p.beta * m.theta  # branch B
    table.flags.writeable = False
    a_row = np.where(y > 0, 1, 2)

    def value_grad(z, grad):
        f, r = m.scores_features(z)
        mh = mh_branches(r - y * f, r, p)
        if not grad:
            return mh.value, None
        return mh.value, (table, np.where(mh.use_a, a_row, np.where(mh.use_b, 3, 0)))

    return value_grad


def _start(spec: AttackSpec, n: int, dim: int) -> np.ndarray:
    """The PGD start of n rows: 0, or with random_start one uniform(-eps,
    eps) draw of length dim from the spec's seed, projected for l2, that
    every row shares."""
    if not (spec.random_start and spec.eps > 0):
        return np.zeros((n, dim))
    delta = np.random.default_rng(spec.seed).uniform(-spec.eps, spec.eps, size=(1, dim))
    if spec.norm == "l2":
        _project_l2(delta, spec.eps)
    return delta.repeat(n, axis=0)


def _stepper(spec: AttackSpec):
    """The ascent step of spec as (rows, move), with the radius and step
    size resolved once per call: per row, a sign step clipped to the box
    for linf, a normalized-gradient step projected onto the ball for l2 (no
    move where the gradient is 0).

    rows(g, out) gives the step rows of the gradient rows g in out (new if
    None): step*sgn(g) for linf, step*g/||g|| for l2; and the rows that do
    not move (where g = 0 for l2; None for linf). move(delta, out, still) adds
    delta to the step rows out in place, clips or projects the sum, keeps
    delta where still, and returns out. Both act row by row, so step rows
    taken on a table of gradient rows and then gathered are those of the
    gathered gradient rows."""
    eps, neg_eps, step = np.array(spec.eps), np.array(-spec.eps), np.array(spec.resolved_step())

    def linf_rows(g, out=None):
        out = np.sign(g, out=out)
        out *= step
        return out, None

    def l2_rows(g, out=None):
        gn = _row_norms(g)
        moving = gn > 0
        out = np.multiply(step, g, out=out)
        out /= np.where(moving, gn, 1.0)
        return out, ~moving

    def linf_move(delta, out, still):
        out += delta  # one buffer carries delta + step*sgn(g) to the clip
        np.minimum(out, eps, out=out)
        return np.maximum(out, neg_eps, out=out)

    def l2_move(delta, out, still):
        out += delta
        _project_l2(out, eps)
        np.copyto(out, delta, where=still)
        return out

    return (linf_rows, linf_move) if spec.norm == "linf" else (l2_rows, l2_move)


def _project_l2(delta: np.ndarray, eps: float) -> np.ndarray:
    """Each row of delta (or delta itself) scaled into the l2 ball of radius
    eps, in place; returns delta."""
    delta *= eps / np.maximum(_row_norms(delta), eps)
    return delta


def _row_norms(x: np.ndarray) -> np.ndarray:
    """The l2 norm of each row of x (or of x), keeping the axis: the float
    operations np.linalg.norm(x, axis=-1, keepdims=True) runs on a real
    array, without its argument handling."""
    return np.sqrt(np.add.reduce(x * x, axis=-1, keepdims=True))


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
    y = pm1_labels(y)
    theta, gamma = m.theta, m.gamma
    f0, r0 = m.scores_features(z)
    # per label, row 0 for y = +1 and row 1 for y = -1: the start, each
    # coordinate's room and the room of the coordinates before it in order
    start = -eps * np.sign(np.array([[1.0], [-1.0]]) * gamma)
    room = eps * np.abs(theta) - start * theta  # how much each coordinate can still raise r
    order = np.argsort(np.divide(np.abs(gamma), np.abs(theta), out=np.full(m.feat_dim, np.inf), where=theta != 0))
    before = np.empty_like(room)
    before[:, order] = np.cumsum(room[:, order], axis=1) - room[:, order]
    label = np.where(y > 0, 0, 1)
    delta = start[label]
    deficit = -r0 - delta @ theta
    raised = deficit[:, None] - before[label]
    np.clip(raised, 0.0, room[label], out=raised)
    delta += np.divide(raised, theta, out=np.zeros_like(raised), where=theta != 0)
    # off r = 0: toward the max-r corner until y*f is half the optimum
    corner = eps * np.sign(theta)
    margin = y * (f0 + delta @ gamma)
    gain = y * (f0 + corner @ gamma) - margin
    t = np.clip(np.divide(-0.5 * margin, gain, out=np.ones_like(gain), where=gain > 0), 0.0, 1.0)
    out = corner - delta
    out *= t[:, None]
    out += delta
    return np.clip(out, -eps, eps, out=out)  # rounding can leave the box by an ulp


def pgd(value_grad, x: np.ndarray, spec: AttackSpec) -> np.ndarray:
    """Projected gradient ascent, vectorized over the rows of x; a single
    sample is a batch of one row. linf takes sign steps clipped to the box,
    l2 normalized-gradient steps projected onto the ball. x is left as it is.
    This is the network's loop; a linear model's MH loss has its own,
    pgd_linear_mh_batch, with the same steps and results.

    value_grad(points, grad) gives each row's objective at the points and,
    if grad, its gradient there, one row per point (None otherwise). One
    call both scores an iterate and sets the next step. points is one buffer
    that pgd rewrites every step, so value_grad must not keep it (nor a view
    of it) beyond the call. In turn value_grad may return the same value
    and gradient arrays on every call: pgd copies what it keeps of them
    before its next call. The iterate and the best iterate are n x D; a
    step writes the next iterate into a second buffer, then swaps the two.

    One step is the ascent step with the radius and step size resolved
    once per call of pgd, a call of value_grad, and the best-iterate
    update; the last iterate is only scored. Returns each row's delta at its
    best iterate, the start included, so no row's objective falls below its
    value at the start.

    The loop stops at its first fixed point: when a step leaves every row
    where it is. That is exact, not a tolerance. The gradient that set the
    step came from this very iterate, and value_grad is deterministic, so
    every later step would rescore the same points with the same values
    and gradients, and the best iterate (updated only on a strict gain)
    can no longer change.
    """
    if spec.eps == 0:
        return np.zeros(x.shape)
    rows, move = _stepper(spec)
    delta = _start(spec, *x.shape)
    points, spare, same = np.empty(x.shape), np.empty(x.shape), np.empty(x.shape, bool)
    best_val, g = value_grad(np.add(x, delta, out=points), True)
    best_val = np.array(best_val, dtype=np.float64)  # a copy, updated in place below
    best_delta = delta.copy()
    better = np.empty(best_val.shape, bool)
    better_rows = better[:, None]
    for i in range(spec.steps):
        moved = move(delta, *rows(g, spare))
        if np.equal(moved, delta, out=same).all():
            break
        delta, spare = moved, delta
        val, g = value_grad(np.add(x, delta, out=points), i + 1 < spec.steps)  # the last iterate is only scored
        np.greater(val, best_val, out=better)
        np.copyto(best_val, val, where=better)
        np.copyto(best_delta, delta, where=better_rows)
    return best_delta


def pgd_linear_mh_batch(
    m: RejectionModel, z: np.ndarray, y: np.ndarray, spec: AttackSpec, params: SurrogateParams
) -> np.ndarray:
    """PGD on the MH loss of a linear model (linear_mh), vectorized over the
    rows of z: the iterates, the stop and the result of pgd on the same
    objective with its gradient given row by row, bit for bit. Returns
    per-row deltas of the best iterate (start included).

    Every row's gradient is one of the four rows of linear_mh's table, and
    every row starts at the same delta, so the iterate is carried the same
    way: a table of the distinct deltas, dtab, and each row's index into it,
    hist. A step maps each (delta row, gradient row) pair that occurs to one
    new delta row, so it works on a few rows; only the points to score and
    the best iterate are n x D. Each table row takes the float operations
    that pgd applies to the rows sharing it, and dtab[hist] + z is
    z + dtab[hist] in IEEE arithmetic, so the result is pgd's bit for bit.
    linear_mh returns the same read-only table on every call, so its step
    rows are computed once per attack, and a step gathers them.

    From the zero start with the automatic step size, sign steps on rows
    that keep their MH branch reach pgd's fixed point, a box corner, after
    ceil(sqrt(steps)) steps (one more where rounding leaves that many steps
    an ulp short of eps). l2 steps seldom reach one: projecting
    delta + step*g/||g|| back onto the sphere leaves a row an ulp from where
    it was, so l2 PGD on a linear model usually runs every step.
    """
    z = np.asarray(z, dtype=np.float64)
    value_grad = linear_mh(m, y, params)
    if spec.eps == 0:
        return np.zeros(z.shape)
    rows, move = _stepper(spec)
    dtab = _start(spec, 1, z.shape[-1])  # the distinct deltas
    hist = np.zeros(len(z), dtype=np.intp)  # each row's index into dtab
    points = np.empty(z.shape)
    best_val, g = value_grad(np.add(z, dtab, out=points), True)  # the start row broadcasts
    step_rows, still_rows = rows(g[0])  # once: every call returns this table
    k = len(step_rows)
    best_delta = dtab.take(hist, axis=0)
    for i in range(spec.steps):
        pair = hist * k + g[1]  # one new row per (history, gradient row) pair that occurs
        present = np.zeros(len(dtab) * k, dtype=bool)
        present[pair] = True
        codes = present.nonzero()[0]
        old, row = dtab[codes // k], codes % k
        moved = move(old, step_rows.take(row, axis=0), None if still_rows is None else still_rows.take(row, axis=0))
        if (moved == old).all():
            break
        dtab, hist = moved, (np.cumsum(present) - 1).take(pair)
        dtab.take(hist, axis=0, out=points, mode="clip")  # "raise" would buffer the gather
        points += z
        val, g = value_grad(points, i + 1 < spec.steps)  # the last iterate is only scored
        better = val > best_val
        np.copyto(best_val, val, where=better)  # best_val is linear_mh's, a new array on every call
        up = better.nonzero()[0]  # only the rows that improved, gathered into points, which value_grad no longer holds
        best_delta[up] = dtab.take(hist.take(up), axis=0, out=points[: len(up)], mode="clip")
    return best_delta
