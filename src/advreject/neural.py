"""Toy two-head network trained with the squared max-hinge loss.

One fully-connected trunk feeds two scalar heads: f (label score) and r
(rejection score). The per-sample loss squares the max-hinge surrogate and
weight-decays only the f head's final-layer weights:

    loss = max(1 + (alpha/2)(r - y f), c (1 - beta r), 0)^2 + (lam_w/2) ||w_f||^2

Gradients are hand-written reverse mode (no autodiff dependency) and are
checked against central finite differences in the tests. At a tie between
the two hinge branches the classification branch is differentiated.

Training is a min-max loop: each minibatch is first pushed to the worst
point the inner PGD attack can find at the current parameters, then one
outer gradient step is taken at those points.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .attacks import AttackSpec, pgd_batch
from .data import Dataset
from .losses import SurrogateParams, loss_01c, mh_branches, verdict

# (activation, its derivative written in terms of the activation's output)
_ACTIVATIONS = {
    "relu": (lambda z: np.maximum(z, 0.0), lambda a: a > 0.0),
    "tanh": (np.tanh, lambda a: 1.0 - a**2),
}


@dataclass
class ToyNet:
    """MLP with layer list [d, hidden..., 2]; output row 0 is f, row 1 is r."""

    weights: list[np.ndarray]
    biases: list[np.ndarray]
    activation: str = "relu"

    def __post_init__(self):
        if self.activation not in _ACTIVATIONS:
            raise ValueError(f"unknown activation {self.activation!r}")
        if self.weights[-1].shape[0] != 2:
            raise ValueError("final layer must have exactly the two heads f and r")

    @classmethod
    def init(cls, d: int, hidden: tuple[int, ...] = (32, 32), activation: str = "relu", seed: int = 0):
        rng = np.random.default_rng(seed)
        sizes = [d, *hidden, 2]
        ws, bs = [], []
        for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
            ws.append(rng.normal(0.0, 1.0 / np.sqrt(fan_in), size=(fan_out, fan_in)))
            bs.append(np.zeros(fan_out))
        return cls(ws, bs, activation)

    @property
    def input_dim(self) -> int:
        return self.weights[0].shape[1]

    @property
    def top_weights(self) -> np.ndarray:
        """Final-layer weight vector of the f head (the decayed one)."""
        return self.weights[-1][0]

    def _forward_cache(self, x: np.ndarray):
        """x: (n, d). Returns (f, r, activations), the input first."""
        act, _ = _ACTIVATIONS[self.activation]
        a = x
        acts = [x]
        for w, b in zip(self.weights[:-1], self.biases[:-1]):
            a = act(a @ w.T + b)
            acts.append(a)
        out = a @ self.weights[-1].T + self.biases[-1]
        return out[:, 0], out[:, 1], acts

    def forward(self, x: np.ndarray):
        """(f, r) for a single input or a batch; scalars for 1-D input."""
        x = np.asarray(x, dtype=np.float64)
        single = x.ndim == 1
        f, r, _ = self._forward_cache(np.atleast_2d(x))
        if single:
            return float(f[0]), float(r[0])
        return f, r

    def _backward(self, df: np.ndarray, dr: np.ndarray, acts, want_input: bool, want_params: bool = True):
        """Backpropagate per-sample head gradients. Returns (param grads
        summed over the batch, input gradient per sample); without
        want_params the param-grad lists hold None and only the delta chain
        runs. The activation derivatives come from the cached outputs."""
        _, dact = _ACTIVATIONS[self.activation]
        delta = np.stack([df, dr], axis=1)
        gws = [None] * len(self.weights)
        gbs = [None] * len(self.biases)
        for li in range(len(self.weights) - 1, -1, -1):
            if want_params:
                gws[li] = delta.T @ acts[li]
                gbs[li] = delta.sum(axis=0)
            if li > 0:
                delta = (delta @ self.weights[li]) * dact(acts[li])
            elif want_input:
                delta = delta @ self.weights[0]
        return gws, gbs, delta

    def pack(self) -> np.ndarray:
        return np.concatenate([w.ravel() for w in self.weights] + [b.ravel() for b in self.biases])

    def unpack(self, flat: np.ndarray) -> "ToyNet":
        ws, bs = [], []
        i = 0
        for w in self.weights:
            ws.append(flat[i : i + w.size].reshape(w.shape).copy())
            i += w.size
        for b in self.biases:
            bs.append(flat[i : i + b.size].copy())
            i += b.size
        return ToyNet(ws, bs, self.activation)

    def to_json(self) -> str:
        import json

        return json.dumps(
            {
                "activation": self.activation,
                "weights": [w.tolist() for w in self.weights],
                "biases": [b.tolist() for b in self.biases],
            }
        )

    @classmethod
    def from_json(cls, text: str) -> "ToyNet":
        import json

        obj = json.loads(text)
        return cls(
            [np.array(w, dtype=np.float64) for w in obj["weights"]],
            [np.array(b, dtype=np.float64) for b in obj["biases"]],
            obj["activation"],
        )


@dataclass(frozen=True)
class NeuralTrainConfig:
    params: SurrogateParams = field(default_factory=SurrogateParams)
    lam_w: float = 1e-3
    attack: AttackSpec = field(default_factory=lambda: AttackSpec(method="none"))
    epochs: int = 200
    batch_size: int = 64
    lr: float = 0.05
    hidden: tuple[int, ...] = (32, 32)
    activation: str = "relu"
    seed: int = 0

    def __post_init__(self):
        if self.attack.method not in ("none", "pgd"):
            raise ValueError("inner attack must be pgd or none")
        if self.attack.random_start:
            raise ValueError("attack.random_start must be false: neural PGD starts at the clean point")
        if not 0 <= self.lam_w < math.inf:
            raise ValueError("lam_w must be finite and nonnegative")
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if not 0 < self.lr < math.inf:
            raise ValueError("lr must be finite and positive")
        if not all(isinstance(h, int) and h > 0 for h in self.hidden):
            raise ValueError("hidden must be positive integers")
        if self.activation not in _ACTIVATIONS:
            raise ValueError(f"activation must be one of {'/'.join(_ACTIVATIONS)}, got {self.activation!r}")


def _head_grads(f, r, y, p: SurrogateParams):
    """Squared MH per sample and its derivatives d/df and d/dr."""
    mh = mh_branches(r - y * f, r, p)
    m2 = 2.0 * mh.value
    df = np.where(mh.use_a, m2 * (-0.5 * p.alpha * y), 0.0)
    dr = np.where(mh.use_a, m2 * (0.5 * p.alpha), np.where(mh.use_b, m2 * (-p.cost * p.beta), 0.0))
    return mh.value**2, df, dr


def _loss_grads(net: ToyNet, x: np.ndarray, y: np.ndarray, cfg: NeuralTrainConfig, want_input=False):
    """Mean squared-MH loss plus the top-layer decay term, from one forward
    pass, and a function backpropagating it: parameter grads summed over
    the batch, input grads per sample (each carrying the 1/n factor)."""
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    y = np.asarray(y, dtype=np.float64)
    n = x.shape[0]
    f, r, acts = net._forward_cache(x)
    sq, df, dr = _head_grads(f, r, y, cfg.params)
    w = net.top_weights
    loss = float(np.mean(sq)) + 0.5 * cfg.lam_w * float(w @ w)

    def grads():
        if not (np.all(np.isfinite(f)) and np.all(np.isfinite(r))):
            raise FloatingPointError("non-finite network output")
        gws, gbs, dx = net._backward(df / n, dr / n, acts, want_input)
        gws[-1] = gws[-1].copy()
        gws[-1][0] += cfg.lam_w * net.top_weights
        return gws, gbs, dx

    return loss, grads


def loss_batch(net: ToyNet, x: np.ndarray, y: np.ndarray, cfg: NeuralTrainConfig) -> float:
    """Mean squared-MH loss plus the top-layer decay term."""
    return _loss_grads(net, x, y, cfg)[0]


def grad_params(net: ToyNet, x: np.ndarray, y: int, cfg: NeuralTrainConfig) -> np.ndarray:
    """Flat gradient (aligned with net.pack()) of the single-sample loss."""
    gws, gbs, _ = _loss_grads(net, x, np.array([y]), cfg)[1]()
    out = np.concatenate([g.ravel() for g in gws] + [g.ravel() for g in gbs])
    if not np.all(np.isfinite(out)):
        raise FloatingPointError("non-finite parameter gradient")
    return out


def grad_input(net: ToyNet, x: np.ndarray, y: int, cfg: NeuralTrainConfig) -> np.ndarray:
    """Gradient of the single-sample loss with respect to the input."""
    _, _, dx = _loss_grads(net, x, np.array([y]), cfg, want_input=True)[1]()
    if not np.all(np.isfinite(dx)):
        raise FloatingPointError("non-finite input gradient")
    return dx[0]


def _heads_pgd(net: ToyNet, x: np.ndarray, spec: AttackSpec, heads) -> np.ndarray:
    """Batch PGD on a per-sample objective of the two heads; heads(f, r)
    gives its value and d/df, d/dr. One step is one forward pass, which
    scores the iterate, and a backward pass to the input only (no
    parameter gradients), which sets the next step. Returns the per-row
    deltas of the best iterate, the clean point included."""

    def value_grad(xa, grad):
        f, r, acts = net._forward_cache(xa)
        value, df, dr = heads(f, r)
        return value, net._backward(df, dr, acts, want_input=True, want_params=False)[2] if grad else None

    return pgd_batch(value_grad, x, spec)


def _inner_pgd_batch(net: ToyNet, x: np.ndarray, y: np.ndarray, cfg: NeuralTrainConfig) -> np.ndarray:
    """Vectorized PGD on the squared-MH loss; returns perturbed inputs
    (best iterate per sample, the clean point included)."""
    if cfg.attack.method == "none" or cfg.attack.eps == 0:
        return x
    return x + _heads_pgd(net, x, cfg.attack, lambda f, r: _head_grads(f, r, y, cfg.params))


def train_neural(ds: Dataset, cfg: NeuralTrainConfig) -> tuple[ToyNet, np.ndarray]:
    """Min-max minibatch training. Returns the net and the per-epoch mean
    adversarial loss trace."""
    if len(ds) == 0:
        raise ValueError("dataset is empty")
    net = ToyNet.init(ds.d, cfg.hidden, cfg.activation, seed=cfg.seed)
    rng = np.random.default_rng(cfg.seed + 1)
    x_all = ds.x
    y_all = ds.y.astype(np.float64)
    n = len(ds)
    trace = np.empty(cfg.epochs)
    for epoch in range(cfg.epochs):
        order = rng.permutation(n)
        epoch_losses = []
        for start in range(0, n, cfg.batch_size):
            idx = order[start : start + cfg.batch_size]
            xb = _inner_pgd_batch(net, x_all[idx], y_all[idx], cfg)
            loss, grads = _loss_grads(net, xb, y_all[idx], cfg)
            if not np.isfinite(loss):
                raise FloatingPointError(f"training loss diverged at epoch {epoch}")
            epoch_losses.append(loss)
            gws, gbs, _ = grads()
            for w, gw in zip(net.weights, gws):
                w -= cfg.lr * gw
            for b, gb in zip(net.biases, gbs):
                b -= cfg.lr * gb
        trace[epoch] = float(np.mean(epoch_losses))
    return net, trace


def decide_net(net: ToyNet, x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(verdict, f, r) for a batch; verdict 0 means reject (r <= 0)."""
    f, r = net.forward(np.atleast_2d(x))
    return verdict(f, r), f, r


def adv_risk_01c_net(
    net: ToyNet, x: np.ndarray, y: np.ndarray, params: SurrogateParams, eps: float, steps: int = 20
) -> float:
    """Mean attacked zero-one-c risk of a net under PGD candidates, a lower
    bound on its worst case over the eps-ball.

    The squared hinge is flat wherever the net is confident, so PGD on the
    loss alone stalls there; candidates driving the classification margin
    down and the rejection score down cover those points, as shift_margin
    and shift_reject do exactly for a linear model. The clean point stays
    in the set, so the risk never drops below the clean risk.
    """
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    y = np.asarray(y, dtype=np.float64)
    f, r = net.forward(x)
    risk = loss_01c(f, r, y, params.cost)
    if eps == 0:
        return float(np.mean(risk))
    cfg = NeuralTrainConfig(params=params, attack=AttackSpec(method="pgd", eps=eps, steps=steps))
    candidates = [
        _heads_pgd(net, x, cfg.attack, lambda f, r: (-y * f, -y, np.zeros_like(f))),
        _heads_pgd(net, x, cfg.attack, lambda f, r: (-r, np.zeros_like(r), -np.ones_like(r))),
        _inner_pgd_batch(net, x, y, cfg) - x,
    ]
    for delta in candidates:
        fa, ra = net.forward(x + delta)
        risk = np.maximum(risk, loss_01c(fa, ra, y, params.cost))
    return float(np.mean(risk))
