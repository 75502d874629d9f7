"""Toy two-head network trained with the squared max-hinge loss.

One fully-connected trunk feeds two scalar heads: f (label score) and r
(rejection score). The per-sample loss squares the max-hinge surrogate and
weight-decays only the f head's final-layer weights:

    loss = max(1 + (alpha/2)(r - y f), c (1 - beta r), 0)^2 + (lam_w/2) ||w_f||^2

Gradients are hand-written reverse mode (no autodiff dependency); the
tests check those of ``_loss_grads``, the one gradient path, against
central finite differences. At a tie between the two hinge branches the
classification branch is differentiated. Inputs are rows; one input is a
batch of one row.

Training is a min-max loop. Each minibatch gets one ``_mh_head``, the
squared-MH kernel that gives the loss per sample and its d/df and d/dr as
the (n, 2) array ``ToyNet._backward`` takes, and one set of bias rows,
built after the previous update. The inner PGD attack pushes the batch to
the worst point it finds at the current parameters, and one outer
gradient step is taken there; both run on that head and those rows.

The loop works on arrays of 64 x 32 and smaller, so its time goes to numpy
dispatch more than to arithmetic. Every rule that cuts it is exact:
products go through ``ndarray.dot``, the BLAS call of ``@`` with less
dispatch; every forward pass adds biases repeated over its rows, as a full
add dispatches faster than a broadcast one; the head's buffers are made
once per label vector; scalar operands are 0-d arrays, which numpy does
not convert on every call; and the last, score-only iterate builds no
derivative. The relu derivative stays the boolean mask a > 0: a NaN
activation (an overflowing layer) gets derivative 0 from it, where np.sign
would give NaN and change what pgd finds. tests/test_neural_bytes.py pins
the bytes of trained nets, loss traces and attacked risks against the
references in tests/oracles.py.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .attacks import AttackSpec, pgd
from .data import Dataset, check_numbers
from .losses import ONE, ZERO, MHBranches, SurrogateParams, mh_branches
from .losses import loss_01c  # noqa: F401  perfbench's tracer wraps neural.loss_01c by name
from .model import check_json_list, json_object

# (activation applied in place, its derivative written in terms of the
# activation's output; relu's is the boolean mask, 0 at a NaN output)
_ACTIVATIONS = {
    "relu": (lambda z: np.maximum(z, ZERO, out=z), lambda a: a > ZERO),
    "tanh": (lambda z: np.tanh(z, out=z), lambda a: ONE - a**2),
}
_NET_KEYS = frozenset(("activation", "weights", "biases"))


@dataclass
class ToyNet:
    """MLP with layer list [d, hidden..., 2]; output row 0 is f, row 1 is r.
    Layer i is weights[i] (outputs x inputs) and biases[i]; a chain that
    does not fit, or a value that is not finite, is a ValueError naming
    the first bad layer."""

    weights: list[np.ndarray]
    biases: list[np.ndarray]
    activation: str = "relu"

    def __post_init__(self):
        if self.activation not in _ACTIVATIONS:
            raise ValueError(f"unknown activation {self.activation!r}")
        if not self.weights or len(self.weights) != len(self.biases):
            raise ValueError(
                f"a net needs one bias per weight, got {len(self.weights)} weights and {len(self.biases)} biases"
            )
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            if w.ndim != 2:
                raise ValueError(f"layer {i}: weights must be 2-D (outputs x inputs), got shape {w.shape}")
            if i and w.shape[1] != self.weights[i - 1].shape[0]:
                raise ValueError(
                    f"layer {i}: weights of shape {w.shape} take {w.shape[1]} inputs, "
                    f"but layer {i - 1} has {self.weights[i - 1].shape[0]} outputs"
                )
            if b.shape != (w.shape[0],):
                raise ValueError(f"layer {i}: bias of shape {b.shape} does not match the {w.shape[0]} outputs")
            if not (np.isfinite(w).all() and np.isfinite(b).all()):
                raise ValueError(f"layer {i}: weights and bias must be finite")
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
    def top_weights(self) -> np.ndarray:
        """Final-layer weight vector of the f head (the decayed one)."""
        return self.weights[-1][0]

    def _bias_rows(self, n: int) -> list[np.ndarray]:
        """Each layer's bias repeated over n rows, the form _forward_cache adds."""
        return [np.repeat(b[None], n, axis=0) for b in self.biases]

    def _forward_cache(self, x: np.ndarray, biases: list[np.ndarray]):
        """x: (n, d) and biases, this net's _bias_rows(n). Returns (f, r,
        activations), the input first."""
        act, _ = _ACTIVATIONS[self.activation]
        a = x
        acts = [x]
        for w, b in zip(self.weights[:-1], biases):
            a = a.dot(w.T)
            a += b
            act(a)
            acts.append(a)
        out = a.dot(self.weights[-1].T)
        out += biases[-1]
        return out[:, 0], out[:, 1], acts

    def forward(self, x: np.ndarray):
        """(f, r) for the rows of x; one input is a batch of one row."""
        x = np.asarray(x, dtype=np.float64)
        f, r, _ = self._forward_cache(x, self._bias_rows(len(x)))
        return f, r

    def _backward(self, head: np.ndarray, acts, want_input: bool, want_params: bool = True):
        """Backpropagate per-sample head gradients, an (n, 2) array with
        columns d/df and d/dr, which is left unchanged. Returns (param grads
        summed over the batch, input gradient per sample); without
        want_params the param-grad lists hold None and only the delta chain
        runs. The activation derivatives come from the cached outputs."""
        _, dact = _ACTIVATIONS[self.activation]
        delta = head
        gws = [None] * len(self.weights)
        gbs = [None] * len(self.biases)
        for li in range(len(self.weights) - 1, -1, -1):
            if want_params:
                gws[li] = delta.T.dot(acts[li])
                gbs[li] = delta.sum(axis=0)
            if li > 0:
                delta = delta.dot(self.weights[li])
                delta *= dact(acts[li])
            elif want_input:
                delta = delta.dot(self.weights[0])
        return gws, gbs, delta

    def to_json(self) -> str:
        return json.dumps(
            {
                "activation": self.activation,
                "weights": [w.tolist() for w in self.weights],
                "biases": [b.tolist() for b in self.biases],
            }
        )

    @classmethod
    def from_json(cls, text: str) -> "ToyNet":
        """The net to_json wrote as text. ValueError names an unknown key, a
        bool or a string among the weights or biases (``check_json_list``)
        and an activation that is not a string."""
        obj = json_object(text, _NET_KEYS)
        check_json_list("weights", obj["weights"])
        check_json_list("biases", obj["biases"])
        if type(obj["activation"]) is not str:
            raise ValueError(f"activation must be a string, got {obj['activation']!r}")
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
        check_numbers(self, nonnegative=("lam_w",), positive=("lr",), counts=("epochs", "batch_size", "hidden"),
                      ints=("seed",))
        if self.attack.method not in ("none", "pgd"):
            raise ValueError("inner attack must be pgd or none")
        if self.attack.random_start:
            raise ValueError("attack.random_start must be false: neural PGD starts at the clean point")
        if self.activation not in _ACTIVATIONS:
            raise ValueError(f"activation must be one of {'/'.join(_ACTIVATIONS)}, got {self.activation!r}")


def _mh_head(y, p: SurrogateParams):
    """The squared-MH head kernel for labels y: heads(f, r, grad) gives the
    loss per sample and, if grad, an (n, 2) array of its derivatives d/df
    and d/dr, the input of ``ToyNet._backward`` (None otherwise). With
    m = max(A, B, 0) they are 2m (-(alpha/2) y) and 2m (alpha/2) where
    branch A is active, 0 and 2m (-c beta) where B is, and 0 elsewhere.
    Doubling is exact, so they are computed as m (-alpha y), m alpha and
    m (-2 c beta), with no 2m array. Branch A's row of factors and every
    buffer are built once, here: every call rewrites and returns the same
    value and derivative arrays."""
    n = len(y)
    along_a = np.empty((n, 2))  # d/df and d/dr of branch A, over m
    along_a[:, 0], along_a[:, 1] = -p.alpha * y, p.alpha
    neg_2cb = np.array(-2.0 * p.cost * p.beta)
    gap = np.empty(n)
    branches = MHBranches(np.empty(n), np.empty(n), np.empty(n), np.empty(n, bool), np.empty(n, bool))
    m, m_col, use_a_col = branches.value, branches.value[:, None], branches.use_a[:, None]
    head = np.empty((n, 2))
    head_r = head[:, 1]

    def heads(f, r, grad=True):
        mh_branches(np.subtract(r, np.multiply(y, f, out=gap), out=gap), r, p, out=branches)
        if grad:
            head.fill(0.0)
            np.multiply(m_col, along_a, out=head, where=use_a_col)
            np.multiply(m, neg_2cb, out=head_r, where=branches.use_b)
        return np.square(m, out=m), head if grad else None

    return heads


def _loss_grads(net: ToyNet, x: np.ndarray, heads, biases, cfg: NeuralTrainConfig, want_input=False):
    """Mean squared-MH loss plus the top-layer decay term, from one forward
    pass on the batch's ``_bias_rows`` and ``_mh_head``, and a function
    backpropagating it, to run before the head is called again: parameter
    grads summed over the batch, input grads per sample (with the 1/n)."""
    f, r, acts = net._forward_cache(x, biases)
    sq, head = heads(f, r)
    head /= len(x)
    w = net.top_weights
    loss = float(np.mean(sq)) + 0.5 * cfg.lam_w * float(w @ w)

    def grads():
        if not (np.isfinite(f).all() and np.isfinite(r).all()):
            raise FloatingPointError("non-finite network output")
        gws, gbs, dx = net._backward(head, acts, want_input)
        gws[-1][0] += cfg.lam_w * net.top_weights
        return gws, gbs, dx

    return loss, grads


def _heads_pgd(net: ToyNet, x: np.ndarray, spec: AttackSpec, heads, biases) -> np.ndarray:
    """Batch PGD on a per-sample objective of the two heads; heads(f, r,
    grad) gives its value and, if grad, an (n, 2) array of its d/df and
    d/dr, the backward pass's input, each of which may be the same array on
    every call. biases is the net's ``_bias_rows(len(x))``. One step is one
    forward pass, which scores the iterate, and a backward pass to the
    input only (no parameter gradients), which sets the next step. Returns
    the per-row deltas of the best iterate, the clean point included."""

    def value_grad(xa, grad):
        f, r, acts = net._forward_cache(xa, biases)
        value, head = heads(f, r, grad)
        if not grad:
            return value, None
        return value, net._backward(head, acts, want_input=True, want_params=False)[2]

    return pgd(value_grad, x, spec)


def pgd_candidates(net: ToyNet, x: np.ndarray, y: np.ndarray, spec: AttackSpec, params: SurrogateParams) -> dict:
    """The per-row deltas of PGD with spec on -y f (pgd_margin), on -r
    (pgd_reject) and on the squared MH (pgd), on one set of bias rows. The
    first two cover the points where the squared MH is flat and PGD on it
    stalls."""
    biases = net._bias_rows(len(x))
    margin, reject = np.zeros((len(y), 2)), np.zeros((len(y), 2))  # the constant d/df, d/dr of -y f and -r
    margin[:, 0], reject[:, 1] = -y, -1.0
    heads = (lambda f, r, grad: (-y * f, margin), lambda f, r, grad: (-r, reject), _mh_head(y, params))
    return {name: _heads_pgd(net, x, spec, h, biases) for name, h in zip(("pgd_margin", "pgd_reject", "pgd"), heads)}


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
    attacked = cfg.attack.method != "none" and cfg.attack.eps != 0
    for epoch in range(cfg.epochs):
        order = rng.permutation(n)
        epoch_losses = []
        for start in range(0, n, cfg.batch_size):
            idx = order[start : start + cfg.batch_size]
            # one head and one set of bias rows serve the inner max and the outer step
            xb, heads, biases = x_all[idx], _mh_head(y_all[idx], cfg.params), net._bias_rows(len(idx))
            if attacked:
                xb = xb + _heads_pgd(net, xb, cfg.attack, heads, biases)
            loss, grads = _loss_grads(net, xb, heads, biases, cfg)
            if not np.isfinite(loss):
                raise FloatingPointError(f"training loss diverged at epoch {epoch}")
            epoch_losses.append(loss)
            gws, gbs, _ = grads()
            for w, gw in zip(net.weights + net.biases, gws + gbs):
                gw *= cfg.lr
                w -= gw
        trace[epoch] = float(np.mean(epoch_losses))
    return net, trace


def adv_risk_01c_net(
    net: ToyNet, x: np.ndarray, y: np.ndarray, params: SurrogateParams, eps: float, steps: int = 20
) -> float:
    """Mean attacked zero-one-c risk of a net under pgd, a lower bound on its
    worst case over the eps-ball: ``evaluate_model``'s mean loss."""
    from .evaluate import evaluate_model  # evaluate imports this module

    spec = AttackSpec(method="pgd", eps=eps, steps=steps)
    return evaluate_model(net, Dataset(np.atleast_2d(x), y), spec, params).mean_loss_01c
