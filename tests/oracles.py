"""Independent brute-force oracles used only by the tests.

These deliberately avoid the library's closed-form code paths: box maxima
are taken by enumerating corners and dense grids, suprema over norm balls
by dense direction/volume grids, and gradients by central differences.
``mh_loss_formula`` and ``surrogate_conv`` are the max-form and additive
surrogates written from their formulas, and ``rademacher_exhaustive``
takes the empirical Rademacher complexity over all 2^n sign vectors, with
``sup_shifted_linear`` the adversarial class's supremum in closed form
(checked against the grid and orthant oracles).
The references at the end are not independent: ``pgd_full`` is the
dense PGD loop without its early exit,
``linear_mh_dense`` the MH gradient of a linear model built row by row,
``accepted_error_delta_dense`` the exact linf attack on per-row arrays
instead of per-label tables, ``squared_mh_head_reference`` is
the squared-MH head of the toy network written with ``np.where`` over
fresh temporaries, the ``toynet_*_reference`` functions are the toy
network's forward pass, backward pass, head, PGD, training step and attack
candidates written with ``@`` products, the boolean relu mask and the
head's 2m factor, ``to_libsvm_reference``/``parse_libsvm_reference``
are the LIBSVM codec written value by value with numpy scalars, and
``objective_arrays_reference`` is the training epoch with every eps term
computed at every eps, and ``median_heuristic_reference`` is the median
heuristic on the full m x m distance matrix; the library's code must match
each of them bit for bit.
"""

import dataclasses
import itertools

import numpy as np

from advreject.attacks import pgd
from advreject.bounds import _qnorm, dual_exponent
from advreject.data import DataFormatError, Dataset, _label
from advreject.losses import SurrogateParams, mh_branches


def mh_loss_formula(f, r, y, alpha, beta, cost):
    """max(1 + (alpha/2)(r - y f), c (1 - beta r), 0) per element of scalars or
    arrays, written from the formula rather than ``losses.mh_branches``."""
    return np.maximum(np.maximum(1.0 + 0.5 * alpha * (r - y * f), cost * (1.0 - beta * r)), 0.0)


def surrogate_conv(f_val, r_val, y, p: SurrogateParams):
    """Additive hinge surrogate [1 + (alpha/2)(r - y*f)]_+ + c * [1 - beta*r]_+.

    The sum dominates the max-form surrogate, which in turn dominates the
    zero-one-c loss.
    """
    f_val = np.asarray(f_val, dtype=np.float64)
    r_val = np.asarray(r_val, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    phi = np.maximum(1.0 + 0.5 * p.alpha * (r_val - y * f_val), 0.0)
    psi = np.maximum(1.0 + -p.beta * r_val, 0.0)
    out = phi + p.cost * psi
    return out if out.ndim else float(out)


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
            mh_loss_formula(
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
                mh_loss_formula(
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


def sup_shifted_linear_orthants(v, nu, w_bound, p):
    """Exact sup of <v, w> - nu * ||w||_1 over the p-ball by enumerating the
    2^d orthants. On the orthant with sign pattern s the objective is the
    linear <v - nu * s, w>, whose sup over the ball within the orthant keeps
    the coordinates with (v_j - nu * s_j) * s_j > 0 (the cone projection)
    and takes their dual norm. Exponential in the dimension."""
    v = np.asarray(v, dtype=np.float64)
    q = np.inf if p == 1 else (1.0 if p == np.inf else p / (p - 1.0))
    best = 0.0
    for signs in itertools.product((-1.0, 1.0), repeat=len(v)):
        s = np.array(signs)
        a = v - nu * s
        a = np.where(a * s > 0, np.abs(a), 0.0)
        val = a.max() if q == np.inf else (a**q).sum() ** (1.0 / q)
        best = max(best, float(val))
    return w_bound * best


# The exhaustive empirical Rademacher complexities, the references for
# ``bounds.rademacher_linear_upper`` and the sandwich of criterion 5.
#
# The adversarial linear class replaces the margin by its worst case over
# the eps-ball, shifting every function by -eps * ||w||_1:
#
#     h_w(x, y) = y <x, w> - eps ||w||_1
#
# Its exhaustive complexity needs sup_{||w||_p <= W} [<v, w> - nu ||w||_1]
# per sign vector (v the sign-weighted sample sum, nu = eps * sum sigma_i).
# Each |w_j| is best spent with the sign of v_j, where it earns |v_j| - nu,
# so the supremum is W * ||(|v| - nu)_+||_q.


def _all_signs(n: int) -> np.ndarray:
    """All 2^n sign vectors, shape (2^n, n)."""
    bits = (np.arange(2**n)[:, None] >> np.arange(n)[None, :]) & 1
    return 2.0 * bits - 1.0


def sup_shifted_linear(v: np.ndarray, nu, w_bound: float, p: float):
    """Exact sup of <v, w> - nu * ||w||_1 over the p-ball of radius w_bound,
    W * ||(|v| - nu)_+||_q. v may be a stack of shape (..., d) with nu of
    shape (...); the result then has shape (...)."""
    if p not in (1, 2, np.inf):
        raise ValueError("adversarial class supports p in {1, 2, inf}")
    v = np.asarray(v, dtype=np.float64)
    gain = np.maximum(np.abs(v) - np.asarray(nu, dtype=np.float64)[..., None], 0.0)
    return w_bound * _qnorm(gain, dual_exponent(p), axis=-1)


def rademacher_exhaustive(
    ds: Dataset, kind: str, w_bound: float, q: float, eps: float = 0.0
) -> float:
    """Exhaustive empirical Rademacher complexity (all 2^n sign vectors).

    kind "standard_linear" is the plain margin class; "adversarial_linear"
    uses the eps-shifted worst-case margins. Limited to n <= 12.
    """
    n = len(ds)
    if n > 12:
        raise ValueError("exhaustive enumeration is limited to n <= 12")
    sigmas = _all_signs(n)
    if kind == "standard_linear":
        sums = sigmas @ ds.x
        return w_bound / n * float(np.mean(_qnorm(sums, q, axis=1)))
    if kind == "adversarial_linear":
        v = sigmas @ (ds.y[:, None] * ds.x)
        return float(np.mean(sup_shifted_linear(v, eps * sigmas.sum(axis=1), w_bound, dual_exponent(q)))) / n
    raise ValueError(f"unknown class kind {kind!r}")


def central_difference(fun, x, h=1e-5):
    """Central-difference gradient of a scalar function of an array, shaped
    like x; each entry is perturbed in turn through ``.flat``."""
    g = np.zeros_like(x)
    for i in range(x.size):
        xp = x.copy()
        xm = x.copy()
        xp.flat[i] += h
        xm.flat[i] -= h
        g.flat[i] = (fun(xp) - fun(xm)) / (2.0 * h)
    return g


def net_central_differences(loss, net, x):
    """Central differences of loss(net, x) over every weight, bias and input
    entry of a ToyNet: (weight grads, bias grads, input grad), each shaped
    like what it differentiates."""

    def with_array(name, i, a):
        arrays = list(getattr(net, name))
        arrays[i] = a
        return dataclasses.replace(net, **{name: arrays})

    grads = {
        name: [
            central_difference(lambda a: loss(with_array(name, i, a), x), arr)
            for i, arr in enumerate(getattr(net, name))
        ]
        for name in ("weights", "biases")
    }
    return grads["weights"], grads["biases"], central_difference(lambda xv: loss(net, xv), x)


def rel_err(a, b, floor=1e-8):
    return np.abs(a - b) / np.maximum(np.maximum(np.abs(a), np.abs(b)), floor)


def dense_step(spec, delta, g):
    """One PGD step of spec from delta along the per-row gradient g: a sign
    step clipped to the box for linf, a normalized step projected onto the
    ball for l2, with no move where a row's gradient is 0."""
    eps, step = spec.eps, spec.resolved_step()
    if spec.norm == "linf":
        return np.clip(delta + step * np.sign(g), -eps, eps)
    gn = np.linalg.norm(g, axis=-1, keepdims=True)
    moved = delta + step * g / np.where(gn > 0, gn, 1.0)
    moved *= eps / np.maximum(np.linalg.norm(moved, axis=-1, keepdims=True), eps)
    return np.where(gn > 0, moved, delta)


def pgd_full(value_grad, x, spec):
    """Batched PGD run for all spec.steps steps, with no early exit: the
    reference that ``attacks.pgd`` and ``attacks.pgd_linear_mh_batch``
    must match bit for bit. value_grad gives one gradient row per point, as
    for ``attacks.pgd``. The start, the steps and the best-iterate update
    are written out with the float operations of the library, in the same
    order."""
    eps = spec.eps
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
        delta = dense_step(spec, delta, g)
        val, g = value_grad(x + delta, i + 1 < spec.steps)
        better = val > best_val
        best_val = np.where(better, val, best_val)
        best_delta[better] = delta[better]
    return best_delta


def squared_mh_head_reference(f, r, y, p):
    """The squared MH loss per sample and its d/df and d/dr, written with
    fresh temporaries and ``np.where``; ``neural._mh_head`` must give
    the same bits. A wins a tie, and an inactive hinge (A, B <= 0) gets
    zero derivatives."""
    a = 1.0 + 0.5 * p.alpha * (r - y * f)
    b = p.cost * (1.0 - p.beta * r)
    value = np.maximum(np.maximum(a, b), 0.0)
    use_a = (a >= b) & (a > 0.0)
    use_b = (b > a) & (b > 0.0)
    m2 = 2.0 * value
    df = np.where(use_a, m2 * (-0.5 * p.alpha * y), 0.0)
    dr = np.where(use_a, m2 * (0.5 * p.alpha), np.where(use_b, m2 * (-p.cost * p.beta), 0.0))
    return value**2, df, dr


def toynet_forward_reference(net, x, biases=None):
    """``ToyNet._forward_cache`` written with ``@`` products and fresh
    activations: (f, r, activations), the input first. It adds net.biases
    by broadcast and does not read the library's bias rows."""
    a, acts = x, [x]
    for w, b in zip(net.weights[:-1], net.biases[:-1]):
        z = a @ w.T + b
        a = np.maximum(z, 0.0) if net.activation == "relu" else np.tanh(z)
        acts.append(a)
    out = a @ net.weights[-1].T + net.biases[-1]
    return out[:, 0], out[:, 1], acts


def toynet_backward_reference(net, head, acts, want_input, want_params=True):
    """``ToyNet._backward`` written with ``@`` products, the relu derivative
    as the boolean mask a > 0 and the tanh one as 1 - a**2."""
    dact = (lambda a: a > 0.0) if net.activation == "relu" else (lambda a: 1.0 - a**2)
    delta = head
    gws, gbs = [None] * len(net.weights), [None] * len(net.biases)
    for li in range(len(net.weights) - 1, -1, -1):
        if want_params:
            gws[li] = delta.T @ acts[li]
            gbs[li] = delta.sum(axis=0)
        if li > 0:
            delta = (delta @ net.weights[li]) * dact(acts[li])
        elif want_input:
            delta = delta @ net.weights[0]
    return gws, gbs, delta


def toynet_heads_pgd_reference(net, x, spec, heads, biases=None):
    """``neural._heads_pgd``: ``attacks.pgd`` on a net through the two
    references above; heads(f, r) gives the objective per row and its d/df
    and d/dr, each an array or a scalar. biases is not read."""

    def value_grad(xa, grad):
        f, r, acts = toynet_forward_reference(net, xa)
        value, df, dr = heads(f, r)
        if not grad:
            return value, None
        head = np.empty((xa.shape[0], 2))
        head[:, 0], head[:, 1] = df, dr
        return value, toynet_backward_reference(net, head, acts, want_input=True, want_params=False)[2]

    return pgd(value_grad, x, spec)


def toynet_mh_head_reference(y, p):
    """``neural._mh_head`` on the reference head, as the two references
    around it take it: heads(f, r) gives the squared MH and its d/df and d/dr."""
    return lambda f, r: squared_mh_head_reference(f, r, y, p)


def toynet_loss_grads_reference(net, x, heads, biases, cfg, want_input=False):
    """``neural._loss_grads`` on the references: the batch loss and a
    function giving its gradients, for heads from
    ``toynet_mh_head_reference``. biases is not read."""
    f, r, acts = toynet_forward_reference(net, x)
    sq, df, dr = heads(f, r)
    head = np.stack([df, dr], axis=1) / x.shape[0]
    w = net.top_weights
    loss = float(np.mean(sq)) + 0.5 * cfg.lam_w * float(w @ w)

    def grads():
        if not (np.all(np.isfinite(f)) and np.all(np.isfinite(r))):
            raise FloatingPointError("non-finite network output")
        gws, gbs, dx = toynet_backward_reference(net, head, acts, want_input)
        gws[-1][0] += cfg.lam_w * net.top_weights
        return gws, gbs, dx

    return loss, grads


def toynet_candidate_deltas_reference(net, z, y, spec, params):
    """``evaluate._candidate_deltas`` for a net on the references: pgd on
    -y f, on -r and on the squared MH, after the clean point."""
    deltas = {"clean": np.zeros(z.shape)}
    if spec.method == "none" or spec.eps == 0:
        return deltas
    deltas["pgd_margin"] = toynet_heads_pgd_reference(net, z, spec, lambda f, r: (-y * f, -y, 0.0))
    deltas["pgd_reject"] = toynet_heads_pgd_reference(net, z, spec, lambda f, r: (-r, 0.0, -1.0))
    deltas["pgd"] = toynet_heads_pgd_reference(net, z, spec, lambda f, r: squared_mh_head_reference(f, r, y, params))
    return deltas


def parse_libsvm_reference(text, name=""):
    """``data.parse_libsvm`` with a dict per row, a numpy finiteness test
    and one scalar store per value: the same checks in the same order."""
    rows: list[dict[int, float]] = []
    labels: list[int] = []
    max_idx = 0
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        y = _label(parts[0], lineno)
        entries: dict[int, float] = {}
        prev = 0
        for item in parts[1:]:
            idx_s, sep, val_s = item.partition(":")
            if not sep:
                raise DataFormatError(f"expected idx:val, got {item!r}", lineno)
            try:
                idx = int(idx_s)
                val = float(val_s)
            except ValueError:
                raise DataFormatError(f"non-numeric entry {item!r}", lineno) from None
            if not np.isfinite(val):
                raise DataFormatError(f"non-finite value {item!r}", lineno)
            if idx <= prev:
                raise DataFormatError(
                    f"indices must be strictly increasing and 1-based, got {idx} after {prev}",
                    lineno,
                )
            prev = idx
            entries[idx] = val
        max_idx = max(max_idx, prev)
        rows.append(entries)
        labels.append(y)
    if not rows:
        raise DataFormatError("empty dataset")
    x = np.zeros((len(rows), max_idx))
    for i, entries in enumerate(rows):
        for idx, val in entries.items():
            x[i, idx - 1] = val
    return Dataset(x, np.array(labels), name=name)


def to_libsvm_reference(ds):
    """``data.to_libsvm`` with ``np.nonzero`` per row and the repr of each
    numpy scalar converted to a Python float."""
    lines = []
    for i in range(len(ds)):
        fields = [f"{'+1' if ds.y[i] > 0 else '-1'}"]
        for j in np.nonzero(ds.x[i])[0]:
            fields.append(f"{j + 1}:{float(ds.x[i, j])!r}")
        lines.append(" ".join(fields))
    return "\n".join(lines) + "\n"


def linear_mh_dense(m, z, y, p, grad):
    """A value_grad for pgd: the MH loss of a linear model at the rows of z
    and, if grad, its gradient built per row from the branch formulas, one
    row per point: (alpha/2)(theta - y*gamma) on branch A, -c*beta*theta on
    branch B, 0 for an inactive hinge."""
    y = np.asarray(y, dtype=np.float64)
    f, r = m.scores_features(z)
    mh = mh_branches(r - y * f, r, p)
    if not grad:
        return mh.value, None
    branch_a = 0.5 * p.alpha * (m.theta - y[:, None] * m.gamma)
    branch_b = np.broadcast_to(-p.cost * p.beta * m.theta, z.shape)
    g = np.where(mh.use_a[:, None], branch_a, np.where(mh.use_b[:, None], branch_b, 0.0))
    return mh.value, g


def accepted_error_delta_dense(m, z, y, eps):
    """``attacks.accepted_error_delta`` written with one n x D array per
    step: the start, the room and its cumulative sums are built per row,
    in fill order, rather than on the two per-label rows. The library must
    give the same bits."""
    y = np.asarray(y, dtype=np.float64)
    theta, gamma = m.theta, m.gamma
    f0, r0 = m.scores_features(z)
    delta = -eps * np.sign(y[:, None] * gamma)
    room = eps * np.abs(theta) - delta * theta
    order = np.argsort(np.divide(np.abs(gamma), np.abs(theta), out=np.full(m.feat_dim, np.inf), where=theta != 0))
    room = room[:, order]
    deficit = -r0 - delta @ theta
    raised = np.clip(deficit[:, None] - (np.cumsum(room, axis=1) - room), 0.0, room)
    delta[:, order] += np.divide(raised, theta[order], out=np.zeros_like(raised), where=theta[order] != 0)
    corner = eps * np.sign(theta)
    margin = y * (f0 + delta @ gamma)
    gain = y * (f0 + corner @ gamma) - margin
    t = np.clip(np.divide(-0.5 * margin, gain, out=np.ones_like(gain), where=gain > 0), 0.0, 1.0)
    return np.clip(delta + t[:, None] * (corner - delta), -eps, eps)


def objective_arrays_reference(theta, gamma, zb, y, cfg, with_grad=False):
    """``train._objective_arrays`` without its shortcuts: every eps term is
    computed at every eps, eps = 0 included, each l1 norm is its own sum
    over the weight coordinates, and each sign vector is taken of a freshly
    formed theta - gamma, -theta - gamma or theta. svm/at give no theta
    subgradient (None): their rejector stays at the sentinel. The library
    must give the same bits."""
    p, eps = cfg.params, cfg.eps_train
    f = zb @ gamma
    reg = 0.5 * cfg.lam_prime * float(gamma @ gamma)
    g_gamma = cfg.lam_prime * gamma
    if not cfg.rejection_enabled:
        margin = y * f
        np.subtract(1.0, margin, out=margin)
        margin += eps * np.abs(gamma[:-1]).sum()
        val = float(np.maximum(margin, 0.0).sum()) + reg
        if not with_grad:
            return val
        act = (margin > 0).nonzero()[0]
        if act.size:
            g_gamma -= y.take(act) @ zb.take(act, axis=0)
            sg = np.sign(gamma)
            sg[-1] = 0.0
            g_gamma += eps * act.size * sg
        return val, None, g_gamma
    r = zb @ theta
    tw, gw = theta[:-1], gamma[:-1]
    zeta_pos = eps * float(np.abs(tw - gw).sum())
    zeta_neg = eps * float(np.abs(-tw - gw).sum())
    theta_l1 = eps * float(np.abs(tw).sum())
    gap = y * f
    np.subtract(r, gap, out=gap)
    gap += np.where(y > 0, zeta_pos, zeta_neg)
    mh = mh_branches(gap, r - theta_l1, p)
    val = float(mh.value.sum()) + reg + 0.5 * cfg.lam * float(theta @ theta)
    if not with_grad:
        return val
    g_theta = cfg.lam * theta
    ia = mh.use_a.nonzero()[0]
    if ia.size:
        ha = 0.5 * p.alpha
        za, ya = zb.take(ia, axis=0), y.take(ia)
        g_theta += ha * za.sum(axis=0)
        g_gamma -= ha * (ya @ za)
        n_pos = np.count_nonzero(ya > 0)
        n_neg = ia.size - n_pos
        # d/dtheta eps*||zeta(y)||_1 = eps*y*sgn(zeta(y)); d/dgamma = -eps*sgn(zeta(y))
        szp, szm = np.sign(theta - gamma), np.sign(-theta - gamma)
        szp[-1] = szm[-1] = 0.0
        g_theta += ha * eps * (n_pos * szp - n_neg * szm)
        g_gamma -= ha * eps * (n_pos * szp + n_neg * szm)
    ib = mh.use_b.nonzero()[0]
    if ib.size:
        st = np.sign(theta)
        st[-1] = 0.0
        g_theta -= p.cost * p.beta * (zb.take(ib, axis=0).sum(axis=0) - eps * ib.size * st)
    return val, g_theta, g_gamma


def median_heuristic_reference(x, seed=0, subsample=200):
    """``bench.median_heuristic_bandwidth`` from the full (m, m, d)
    difference tensor of its seeded subsample: every pair twice, and the
    zero diagonal."""
    rng = np.random.default_rng(seed)
    n = x.shape[0]
    idx = rng.choice(n, size=min(subsample, n), replace=False)
    sub = x[idx]
    d = np.sqrt(((sub[:, None, :] - sub[None, :, :]) ** 2).sum(-1))
    positive = d[d > 0]
    if positive.size == 0:
        return 1.0
    return float(np.median(positive))
