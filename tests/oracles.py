"""Independent brute-force oracles used only by the tests.

These deliberately avoid the library's closed-form code paths: box maxima
are taken by enumerating corners and dense grids, suprema over norm balls
by dense direction/volume grids, and gradients by central differences.
"""

import itertools

import numpy as np


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
        loss = float(y * f <= 0) * float(r >= 0) + cost * float(r <= 0)
        best = max(best, loss)
    return best


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
