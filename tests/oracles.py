"""Independent brute-force oracles used only by the tests.

These deliberately avoid the library's closed-form code paths: box maxima
are taken by enumerating corners and dense grids, suprema over norm balls
by dense direction/volume grids, and gradients by central differences.
Two references at the end are not independent: ``LinearMHOracle`` adapts
the library's MH value/gradient to the single-sample attacks, and
``pgd_batch_full`` is the batched PGD loop without its early exit.
"""

import itertools

import numpy as np

from advreject.attacks import linear_mh_value_grad


def mh_loss_scalar(f, r, y, alpha, beta, cost):
    return max(1.0 + 0.5 * alpha * (r - y * f), cost * (1.0 - beta * r), 0.0)


def box_max_mh(model, z, y, eps, params, grid_points=21, grid_max_d=4):
    """Max of the MH loss over the eps-box by corner enumeration plus a
    dense grid (grid only when the dimension keeps it affordable)."""
    d = z.shape[0]
    theta, gamma = model.theta, model.gamma
    f0 = float(z @ gamma) + model.bias_gamma
    r0 = float(z @ theta) + model.bias_theta
    best = 0.0
    for corner in itertools.product((-eps, eps), repeat=d):
        delta = np.array(corner)
        best = max(
            best,
            mh_loss_scalar(
                f0 + float(delta @ gamma),
                r0 + float(delta @ theta),
                y,
                params.alpha,
                params.beta,
                params.cost,
            ),
        )
    if d <= grid_max_d:
        axes = [np.linspace(-eps, eps, grid_points)] * d
        for combo in itertools.product(*axes):
            delta = np.array(combo)
            best = max(
                best,
                mh_loss_scalar(
                    f0 + float(delta @ gamma),
                    r0 + float(delta @ theta),
                    y,
                    params.alpha,
                    params.beta,
                    params.cost,
                ),
            )
    return best


def train_objective_reference(theta, gamma, zb, y, cfg):
    """The training objective and its subgradient, one sample at a time.

    theta and gamma carry the bias as their last coordinate and zb ends in
    the matching constant feature; the biases are regularized but never
    enter the l1 terms. svm/at charge the hinge 1 - y*f + eps*||gamma||_1
    and leave the frozen rejector without gradient; mh/atro charge
    max(A~, B~, 0), where A wins a tie and an inactive row adds nothing.
    Returns (value, g_theta, g_gamma, per-row branch "A", "B" or "-")."""
    p, eps = cfg.params, cfg.eps_train
    tw, gw = theta[:-1], gamma[:-1]
    rejection = cfg.mode in ("mh", "atro")
    value = 0.5 * cfg.lam_prime * float(gamma @ gamma)
    g_gamma = cfg.lam_prime * gamma
    g_theta = np.zeros_like(theta)
    if rejection:
        value += 0.5 * cfg.lam * float(theta @ theta)
        g_theta = cfg.lam * theta
    branches = []
    for z, yi in zip(zb, y):
        f, r = float(z @ gamma), float(z @ theta)
        if not rejection:
            hinge = 1.0 - yi * f + eps * np.abs(gw).sum()
            value += max(hinge, 0.0)
            if hinge > 0:
                g_gamma = g_gamma - yi * z + eps * np.append(np.sign(gw), 0.0)
            branches.append("A" if hinge > 0 else "-")
            continue
        zeta = tw / yi - gw
        a = 1.0 + 0.5 * p.alpha * (r - yi * f + eps * np.abs(zeta).sum())
        b = p.cost * (1.0 - p.beta * (r - eps * np.abs(tw).sum()))
        value += max(a, b, 0.0)
        if a >= b and a > 0:
            # d||zeta||_1/dtheta = sgn(zeta)/y, d||zeta||_1/dgamma = -sgn(zeta)
            g_theta = g_theta + 0.5 * p.alpha * (z + eps * np.append(np.sign(zeta) / yi, 0.0))
            g_gamma = g_gamma + 0.5 * p.alpha * (-yi * z - eps * np.append(np.sign(zeta), 0.0))
            branches.append("A")
        elif b > a and b > 0:
            g_theta = g_theta - p.cost * p.beta * (z - eps * np.append(np.sign(tw), 0.0))
            branches.append("B")
        else:
            branches.append("-")
    return value, g_theta, g_gamma, branches


def box_max_01c(model, z, y, eps, cost, grid_points=21):
    """Max of the zero-one-c loss over the eps-box by dense grid plus
    corners. Exponential in the dimension; keep d small."""
    d = z.shape[0]
    theta, gamma = model.theta, model.gamma
    f0 = float(z @ gamma) + model.bias_gamma
    r0 = float(z @ theta) + model.bias_theta
    best = 0.0
    points = [np.linspace(-eps, eps, grid_points)] * d
    for combo in itertools.product(*points):
        delta = np.array(combo)
        f = f0 + float(delta @ gamma)
        r = r0 + float(delta @ theta)
        loss = cost if r <= 0 else float((1 if f >= 0 else -1) != y)
        best = max(best, loss)
    return best


def box_max_01c_vertices(model, z, y, eps, cost):
    """Exact max of the zero-one-c loss over the eps-box, from the vertices
    of the polytope box & {r >= 0}: every corner with r >= 0 and every point
    where a box edge crosses r = 0. Exponential in the dimension.

    An accepted error exists iff the max of r is > 0 and either some vertex
    has y*f < 0 (one at r = 0 moves into r > 0 with y*f still < 0) or some
    vertex with r > 0 is labelled wrong (+1 at f = 0). Otherwise the worst
    is c where some corner has r <= 0, else 0."""
    d = z.shape[0]
    theta, gamma = model.theta, model.gamma
    f0 = float(z @ gamma) + model.bias_gamma
    r0 = float(z @ theta) + model.bias_theta
    corners = np.array(list(itertools.product((-eps, eps), repeat=d)))
    f_c, r_c = f0 + corners @ gamma, r0 + corners @ theta
    fs, rs = [f_c[r_c >= 0]], [r_c[r_c >= 0]]
    for j in range(d):
        if theta[j] == 0:
            continue
        others = corners[corners[:, j] < 0]  # one corner per edge along axis j, coordinate j zeroed below
        others[:, j] = 0.0
        t = -(r0 + others @ theta) / theta[j]
        cross = np.abs(t) <= eps
        fs.append(f0 + others[cross] @ gamma + t[cross] * gamma[j])
        rs.append(np.zeros(int(cross.sum())))
    f, r = np.concatenate(fs), np.concatenate(rs)
    if r_c.max() > 0:
        label = np.where(f >= 0, 1, -1)
        if np.any(y * f < 0) or np.any((r > 0) & (label != y)):
            return 1.0
    return cost if r_c.min() <= 0 else 0.0


def ball_grid(w_bound, p, d, points_per_axis=41):
    """Grid of points inside the p-ball, from a box grid filtered to the ball."""
    axes = [np.linspace(-w_bound, w_bound, points_per_axis)] * d
    grid = np.array(list(itertools.product(*axes)))
    if p == np.inf:
        return grid
    if p == 1:
        keep = np.abs(grid).sum(axis=1) <= w_bound + 1e-12
    else:
        keep = (np.abs(grid) ** p).sum(axis=1) ** (1.0 / p) <= w_bound + 1e-12
    return grid[keep]


def sup_shifted_linear_grid(v, nu, w_bound, p, points_per_axis=41):
    """Grid approximation (from below) of sup <v, w> - nu * ||w||_1 over the
    p-ball, plus an explicit Lipschitz slack bound for the gap."""
    grid = ball_grid(w_bound, p, len(v), points_per_axis)
    vals = grid @ v - nu * np.abs(grid).sum(axis=1)
    spacing = 2.0 * w_bound / (points_per_axis - 1)
    lipschitz = float(np.linalg.norm(v) + abs(nu) * np.sqrt(len(v)))
    slack = lipschitz * spacing * np.sqrt(len(v))
    return max(0.0, float(vals.max())), slack


def central_difference(fun, x, h=1e-5):
    """Central-difference gradient of a scalar function of a flat vector."""
    g = np.zeros_like(x)
    for i in range(x.size):
        xp = x.copy()
        xm = x.copy()
        xp[i] += h
        xm[i] -= h
        g[i] = (fun(xp) - fun(xm)) / (2.0 * h)
    return g


def rel_err(a, b, floor=1e-8):
    return np.abs(a - b) / np.maximum(np.maximum(np.abs(a), np.abs(b)), floor)


class LinearMHOracle:
    """Loss/gradient oracle for the MH loss of a linear model, in feature
    space, one sample at a time: the single-sample interface of
    ``attacks.fgsm`` and ``attacks.pgd``. Unlike the oracles above it wraps
    the library's ``linear_mh_value_grad``; the tests use it to compare the
    single-sample attacks with the batched ones. At branch ties the
    classification branch wins."""

    def __init__(self, m, p):
        self.m = m
        self.p = p

    def loss(self, z: np.ndarray, y: int) -> float:
        return float(linear_mh_value_grad(self.m, z, y, self.p, grad=False)[0])

    def grad(self, z: np.ndarray, y: int) -> np.ndarray:
        return linear_mh_value_grad(self.m, z, y, self.p)[1]


def pgd_batch_full(value_grad, x, spec):
    """Batched PGD run for all spec.steps steps, with no early exit: the
    reference that ``attacks.pgd_batch`` must match bit for bit. The start,
    the steps and the best-iterate update are written out with the float
    operations of the library, in the same order."""
    eps, step = spec.eps, spec.resolved_step()
    delta = np.zeros(x.shape)
    if spec.random_start and eps > 0:
        start = np.random.default_rng(spec.seed).uniform(-eps, eps, size=x.shape[-1])
        if spec.norm == "l2":
            start *= eps / np.maximum(np.linalg.norm(start, axis=-1, keepdims=True), eps)
        delta[:] = start
    if eps == 0:
        return delta
    best_val, g = value_grad(x + delta, True)
    best_delta = delta.copy()
    for i in range(spec.steps):
        if spec.norm == "linf":
            delta = np.clip(delta + step * np.sign(g), -eps, eps)
        else:
            gn = np.linalg.norm(g, axis=-1, keepdims=True)
            moved = delta + step * g / np.where(gn > 0, gn, 1.0)
            moved *= eps / np.maximum(np.linalg.norm(moved, axis=-1, keepdims=True), eps)
            delta = np.where(gn > 0, moved, delta)
        val, g = value_grad(x + delta, i + 1 < spec.steps)
        better = val > best_val
        best_val = np.where(better, val, best_val)
        best_delta[better] = delta[better]
    return best_delta
