import json
import re

import numpy as np
import pytest

from advreject import neural
from advreject.attacks import AttackSpec, pgd
from advreject.data import Dataset
from advreject.losses import SurrogateParams
from advreject.neural import NeuralTrainConfig, ToyNet, _mh_head, adv_risk_01c_net, train_neural
from advreject.synth import two_moons
from oracles import central_difference, net_central_differences, pgd_full, rel_err, squared_mh_head_reference

P13 = SurrogateParams(1.0, 1.0, 0.3)


def random_net(rng, d=3, hidden=(5, 4), activation="tanh"):
    return ToyNet.init(d, hidden, activation, seed=int(rng.integers(0, 2**31)))


def loss_grads(net, x, y, cfg, want_input=False):
    """The outer step on the batch x, y, with its own head and bias rows."""
    x = np.asarray(x, dtype=np.float64)
    heads = neural._mh_head(np.asarray(y, dtype=np.float64), cfg.params)
    return neural._loss_grads(net, x, heads, net._bias_rows(len(x)), cfg, want_input)


def inner_max(net, x, y, cfg):
    """The inner max on the batch x, y: x plus the PGD deltas on its squared MH."""
    return x + neural._heads_pgd(net, x, cfg.attack, neural._mh_head(y, cfg.params), net._bias_rows(len(x)))


def grads_at(net, x, y, cfg):
    """The weight, bias and input gradients of the loss at one input x, from
    the kernel training runs."""
    gws, gbs, dx = loss_grads(net, x[None], np.array([y]), cfg, want_input=True)[1]()
    return gws, gbs, dx[0]


class TestForward:
    def test_zero_net(self):
        net = ToyNet([np.zeros((2, 3))], [np.zeros(2)])
        f, r = net.forward(np.array([[1.0, -2.0, 3.0]]))
        assert f.tolist() == [0.0] and r.tolist() == [0.0]

    def test_tanh_boundedness(self, rng):
        net = random_net(rng, d=4, activation="tanh")
        w_last, b_last = net.weights[-1], net.biases[-1]
        bound = np.abs(w_last).sum(axis=1) + np.abs(b_last)
        x = 100 * rng.standard_normal((50, 4))
        f, r = net.forward(x)
        assert np.all(np.abs(f) <= bound[0] + 1e-12)
        assert np.all(np.abs(r) <= bound[1] + 1e-12)

    def test_deterministic_init(self):
        a = ToyNet.init(3, (8,), "relu", seed=4)
        b = ToyNet.init(3, (8,), "relu", seed=4)
        x = np.array([[0.3, -0.4, 0.9]])
        assert np.array_equal(a.forward(x), b.forward(x))

    def test_final_layer_must_have_two_heads(self):
        with pytest.raises(ValueError):
            ToyNet([np.zeros((3, 2))], [np.zeros(3)])

    @pytest.mark.parametrize(
        "weights, biases, message",
        [
            ([], [], "a net needs one bias per weight, got 0 weights and 0 biases"),
            ([np.zeros((3, 2)), np.zeros((2, 3))], [np.zeros(3)],
             "a net needs one bias per weight, got 2 weights and 1 biases"),
            ([np.zeros(2)], [np.zeros(2)], "layer 0: weights must be 2-D (outputs x inputs), got shape (2,)"),
            ([np.zeros((3, 2)), np.zeros((2, 4))], [np.zeros(3), np.zeros(2)],
             "layer 1: weights of shape (2, 4) take 4 inputs, but layer 0 has 3 outputs"),
            ([np.zeros((3, 2)), np.zeros((2, 3))], [np.zeros(2), np.zeros(2)],
             "layer 0: bias of shape (2,) does not match the 3 outputs"),
            ([np.zeros((3, 2)), np.zeros((2, 3))], [np.zeros(3), np.zeros((1, 2))],
             "layer 1: bias of shape (1, 2) does not match the 2 outputs"),
            ([np.zeros((3, 2)), np.full((2, 3), np.nan)], [np.zeros(3), np.zeros(2)],
             "layer 1: weights and bias must be finite"),
            ([np.zeros((3, 2)), np.zeros((2, 3))], [np.array([0.0, np.inf, 0.0]), np.zeros(2)],
             "layer 0: weights and bias must be finite"),
        ],
    )
    def test_bad_layer_chain_names_the_layer(self, weights, biases, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            ToyNet(weights, biases)
        if weights:  # the same check when the net is read back from JSON
            text = json.dumps({"activation": "relu", "weights": [w.tolist() for w in weights],
                               "biases": [b.tolist() for b in biases]})
            with pytest.raises(ValueError, match=re.escape(message)):
                ToyNet.from_json(text)


class TestGradients:
    def test_param_gradients_match_finite_differences(self, rng):
        cfg = NeuralTrainConfig(params=SurrogateParams(1.5, 0.8, 0.25), lam_w=0.01)
        for _ in range(10):
            net = random_net(rng)
            x = rng.standard_normal((1, 3))
            y = np.array([1 if rng.random() < 0.5 else -1])
            gws, gbs, _ = loss_grads(net, x, y, cfg)[1]()
            nws, nbs, _ = net_central_differences(lambda n, xv: loss_grads(n, xv, y, cfg)[0], net, x)
            for g, num in zip(gws + gbs, nws + nbs):
                assert g.shape == num.shape
                assert np.max(rel_err(g, num)) <= 1e-4

    def test_input_gradients_match_finite_differences(self, rng):
        cfg = NeuralTrainConfig(params=P13)
        for _ in range(10):
            net = random_net(rng)
            x = rng.standard_normal((1, 3))
            y = np.array([1 if rng.random() < 0.5 else -1])
            g = loss_grads(net, x, y, cfg, want_input=True)[1]()[2]
            num = central_difference(lambda xv: loss_grads(net, xv, y, cfg)[0], x)
            assert g.shape == num.shape
            assert np.max(rel_err(g, num)) <= 1e-4

    def test_head_kernel_matches_where_reference(self, rng):
        # y = +1 unless noted, alpha = beta = 1, c = 0.25, every value exact:
        # A == B > 0 (y = +1 and y = -1), A == 0 < B, A == 0 > B, B == 0 < A,
        # A == B == 0, both < 0, then non-finite scores
        ties = (
            np.array([1.5, -1.5, 2.5, 4.0, 1.0, 3.0, 6.0, np.inf, np.nan, 0.0, 1.0]),
            np.array([0.0, 0.0, 0.5, 2.0, 1.0, 1.0, 2.0, np.inf, 0.0, np.nan, -np.inf]),
            np.array([1.0, -1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, -1.0]),
            SurrogateParams(1.0, 1.0, 0.25),
        )
        cases = [ties] + [
            (3 * rng.standard_normal(500), 3 * rng.standard_normal(500), np.where(rng.random(500) < 0.5, 1.0, -1.0), p)
            for p in (P13, SurrogateParams(1.5, 0.7, 0.3))
        ]
        with np.errstate(invalid="ignore"):
            for f, r, y, p in cases:
                sq, head = _mh_head(y, p)(f, r)
                got, want = (sq, head[:, 0], head[:, 1]), squared_mh_head_reference(f, r, y, p)
                assert [g.tobytes() for g in got] == [w.tobytes() for w in want]

    @pytest.mark.parametrize("activation", ["relu", "tanh"])
    def test_pgd_input_gradient_matches_full_backward(self, rng, monkeypatch, activation):
        # the inner max's squared MH, then the three heads adv_risk_01c_net
        # attacks: -y*f, -r and the squared MH again
        net = random_net(rng, hidden=(6, 5), activation=activation)
        x = rng.standard_normal((20, 3))
        y = np.where(rng.random(20) < 0.5, 1.0, -1.0)
        captured = []

        def capture(value_grad, x0, spec):
            captured.append(value_grad)
            return np.zeros_like(x0)

        monkeypatch.setattr(neural, "pgd", capture)
        inner_max(net, x, y, NeuralTrainConfig(params=P13, attack=AttackSpec(method="pgd", eps=0.1)))
        adv_risk_01c_net(net, x, y, P13, eps=0.1)
        f, r, acts = net._forward_cache(x, net._bias_rows(len(x)))
        sq, head = _mh_head(y, P13)(f, r)
        df, dr = head.T
        zero = np.zeros_like(y)
        expected = [(sq, df, dr), (-y * f, -y, zero), (-r, zero, -np.ones_like(y)), (sq, df, dr)]
        assert len(captured) == len(expected)
        for value_grad, (want, df, dr) in zip(captured, expected):
            value, grad = value_grad(x, True)
            assert grad.shape == x.shape  # the network's gradient is dense: one row per point
            assert np.array_equal(value, want)
            assert np.array_equal(grad, net._backward(np.stack([df, dr], axis=1), acts, want_input=True)[2])
            assert value_grad(x, False)[1] is None

    @pytest.mark.parametrize("norm", ["linf", "l2"])
    def test_head_builds_a_derivative_only_for_a_gradient_call(self, rng, monkeypatch, norm):
        # one inner attack that runs every step: the last, score-only
        # iterate must leave the head's derivative array untouched
        net = random_net(rng, hidden=(6, 5), activation="tanh")
        x = rng.standard_normal((20, 3))
        y = np.where(rng.random(20) < 0.5, 1.0, -1.0)
        pgd_grads, head_grads, built = [], [], []
        real_mh_head = neural._mh_head

        def counting_pgd(value_grad, x0, spec):
            def counted(points, grad):
                pgd_grads.append(grad)
                return value_grad(points, grad)

            return pgd(counted, x0, spec)

        def counting_head(yv, p):
            heads = real_mh_head(yv, p)

            def counted(f, r, grad=True):
                last = built[-1].copy() if built else None
                value, head = heads(f, r, grad)
                head_grads.append(grad)
                if grad:
                    built.append(head)
                else:  # the last derivative built is as it was
                    assert head is None and np.array_equal(built[-1], last, equal_nan=True)
                return value, head

            return counted

        monkeypatch.setattr(neural, "pgd", counting_pgd)
        monkeypatch.setattr(neural, "_mh_head", counting_head)
        spec = AttackSpec(method="pgd", eps=0.5, norm=norm, steps=8)
        inner_max(net, x, y, NeuralTrainConfig(params=P13, attack=spec))
        assert head_grads == pgd_grads == [True] * spec.steps + [False]
        assert len(built) == pgd_grads.count(True)

    @pytest.mark.parametrize(
        "activation, dact",
        [
            ("relu", lambda z: (z > 0.0).astype(np.float64)),
            ("tanh", lambda z: 1.0 - np.tanh(z) ** 2),
        ],
    )
    def test_backward_matches_chain_rule_on_pre_activations(self, rng, activation, dact):
        # the derivative is taken from the cached activations; written out
        # on the pre-activations z it must give the same bits
        net = random_net(rng, hidden=(6, 5), activation=activation)
        (w0, w1, w2), (b0, b1, b2) = net.weights, net.biases
        x = rng.standard_normal((20, 3))
        df, dr = rng.standard_normal(20), rng.standard_normal(20)
        act = np.tanh if activation == "tanh" else (lambda z: np.maximum(z, 0.0))
        z1 = x @ w0.T + b0
        a1 = act(z1)
        z2 = a1 @ w1.T + b1
        a2 = act(z2)
        d2 = np.stack([df, dr], axis=1)
        d1 = (d2 @ w2) * dact(z2)
        d0 = (d1 @ w1) * dact(z1)
        want_w = [d0.T @ x, d1.T @ a1, d2.T @ a2]
        want_b = [d0.sum(axis=0), d1.sum(axis=0), d2.sum(axis=0)]
        gws, gbs, dx = net._backward(d2, net._forward_cache(x, net._bias_rows(20))[2], want_input=True)
        assert all(np.array_equal(g, w) for g, w in zip(gws, want_w))
        assert all(np.array_equal(g, w) for g, w in zip(gbs, want_b))
        assert np.array_equal(dx, d0 @ w0)

    def test_inactive_hinge_leaves_only_decay(self, rng):
        cfg = NeuralTrainConfig(params=P13, lam_w=0.5)
        # f = 10 + x1, r = 2 + x2: A = 1 + (r - f)/2 < 0, B = 0.3(1 - r) < 0
        net = ToyNet([np.array([[1.0, 0.0], [0.0, 1.0]])], [np.array([10.0, 2.0])])
        gws, gbs, _ = grads_at(net, np.array([0.1, 0.1]), 1, cfg)
        assert np.allclose(gws[0][0], 0.5 * net.top_weights)  # only the f-head row decays
        assert np.allclose(gws[0][1], 0.0) and np.allclose(gbs[0], 0.0)

    def test_zero_net_zero_input_gradient(self):
        cfg = NeuralTrainConfig(params=P13, lam_w=0.1)
        net = ToyNet([np.zeros((2, 2))], [np.zeros(2)])
        g = grads_at(net, np.array([0.5, -0.5]), 1, cfg)[2]
        # max(1, c, 0) is the active branch but its input gradient is zero
        assert np.array_equal(g, [0.0, 0.0])

    def test_linear_net_matches_analytic(self, rng):
        cfg = NeuralTrainConfig(params=SurrogateParams(2.0, 1.0, 0.3), lam_w=0.0)
        w = rng.standard_normal((2, 3))
        b = rng.standard_normal(2)
        net = ToyNet([w.copy()], [b.copy()])
        x = rng.standard_normal(3)
        y = 1
        (f,), (r,) = net.forward(x[None])
        a = 1 + 0.5 * 2.0 * (r - y * f)
        bb = 0.3 * (1 - r)
        m = max(a, bb, 0.0)
        if a >= bb and m > 0:
            want = 2 * m * 0.5 * 2.0 * (w[1] - y * w[0])
        elif m > 0:
            want = 2 * m * (-0.3) * w[1]
        else:
            want = np.zeros(3)
        assert np.allclose(grads_at(net, x, y, cfg)[2], want, atol=1e-12)

    def test_tie_uses_classification_branch(self):
        # craft f, r with the two branches exactly equal and positive
        cfg = NeuralTrainConfig(params=P13, lam_w=0.0)
        # a = 1 + (r - f)/2, b = 0.3(1 - r); equal at r=0, f = 2 - 2*b/..:
        # pick r = 0 -> b = 0.3, a = 1 - f/2 = 0.3 -> f = 1.4
        w = np.array([[1.0, 0.0], [0.0, 1.0]])
        net = ToyNet([w], [np.zeros(2)])
        x = np.array([1.4, 0.0])
        (f,), (r,) = net.forward(x[None])
        a = 1 + 0.5 * (r - f)
        b = 0.3 * (1 - r)
        assert a == pytest.approx(b)
        g = grads_at(net, x, 1, cfg)[2]
        m = a
        want = 2 * m * 0.5 * (w[1] - w[0])  # classification branch
        assert np.allclose(g, want)


class TestTraining:
    def test_eps_zero_equals_no_attack(self, rng):
        ds = two_moons(60, seed=3)
        base = dict(params=P13, epochs=5, batch_size=16, lr=0.05, hidden=(8,), seed=7)
        net_a, tr_a = train_neural(ds, NeuralTrainConfig(attack=AttackSpec(method="pgd", eps=0.0), **base))
        net_b, tr_b = train_neural(ds, NeuralTrainConfig(attack=AttackSpec(method="none"), **base))
        assert np.array_equal(tr_a, tr_b)
        assert all(np.array_equal(wa, wb) for wa, wb in zip(net_a.weights, net_b.weights))

    def test_two_moons_clean_risk(self):
        ds = two_moons(400, noise=0.15, seed=0)
        cfg = NeuralTrainConfig(params=P13, attack=AttackSpec(method="none"), epochs=150, lr=0.1, seed=0)
        net, trace = train_neural(ds, cfg)
        risk = adv_risk_01c_net(net, ds.x, ds.y, P13, eps=0.0)
        assert risk <= 0.15
        assert np.all(trace >= 0.0)

    def test_attack_increases_rejection_on_moons(self):
        ds = two_moons(400, noise=0.15, seed=1)
        cfg = NeuralTrainConfig(params=P13, attack=AttackSpec(method="none"), epochs=150, lr=0.1, seed=1)
        net, _ = train_neural(ds, cfg)
        _, r_clean = net.forward(ds.x)
        atk_cfg = NeuralTrainConfig(params=P13, attack=AttackSpec(method="pgd", eps=0.1, steps=20))
        xa = inner_max(net, ds.x, ds.y.astype(float), atk_cfg)
        _, r_atk = net.forward(xa)
        assert np.mean(r_atk <= 0) >= np.mean(r_clean <= 0)

    def test_inner_max_dominates_clean_loss(self, rng):
        ds = two_moons(80, seed=5)
        cfg = NeuralTrainConfig(params=P13, attack=AttackSpec(method="pgd", eps=0.2, steps=5))
        net = ToyNet.init(2, (8,), "relu", seed=2)
        y = ds.y.astype(float)
        xa = inner_max(net, ds.x, y, cfg)
        assert loss_grads(net, xa, y, cfg)[0] >= loss_grads(net, ds.x, y, cfg)[0] - 1e-12

    @pytest.mark.parametrize("eps", [0.01, 0.2])
    @pytest.mark.parametrize("norm", ["linf", "l2"])
    def test_pgd_matches_full_length_loop(self, monkeypatch, norm, eps):
        # the inner max and the two heads adv_risk_01c_net attacks; a relu
        # net's head gradients are piecewise constant, so at eps = 0.01 the
        # sign steps on -y*f reach a fixed point and stop after 5 steps
        ds = two_moons(80, seed=5)
        net = ToyNet.init(2, (8,), "relu", seed=2)
        y = ds.y.astype(float)
        spec = AttackSpec(method="pgd", eps=eps, norm=norm, steps=20)
        cfg = NeuralTrainConfig(params=P13, attack=spec)
        margin, reject = np.zeros((len(y), 2)), np.zeros((len(y), 2))
        margin[:, 0], reject[:, 1] = -y, -1.0

        biases = net._bias_rows(len(y))

        def attacks():
            return [
                inner_max(net, ds.x, y, cfg),
                neural._heads_pgd(net, ds.x, spec, lambda f, r, grad: (-y * f, margin), biases),
                neural._heads_pgd(net, ds.x, spec, lambda f, r, grad: (-r, reject), biases),
            ]

        early = attacks()
        monkeypatch.setattr(neural, "pgd", pgd_full)
        for got, full in zip(early, attacks()):
            assert np.array_equal(got, full)

    def test_adv_risk_includes_clean_point(self, rng):
        ds = two_moons(50, seed=6)
        net = ToyNet.init(2, (8,), "relu", seed=3)
        clean = adv_risk_01c_net(net, ds.x, ds.y, P13, eps=0.0)
        attacked = adv_risk_01c_net(net, ds.x, ds.y, P13, eps=0.1, steps=5)
        assert attacked >= clean - 1e-15

    @pytest.mark.parametrize("attack", [AttackSpec(method="pgd", eps=0.1, steps=3), AttackSpec(method="none")])
    def test_one_head_and_one_set_of_bias_rows_per_minibatch(self, monkeypatch, attack):
        # the inner max and the outer step share them: 3 epochs of 50 rows in batches of 16
        heads, bias_rows = [], []
        real_head, real_rows = neural._mh_head, ToyNet._bias_rows
        monkeypatch.setattr(neural, "_mh_head", lambda y, p: heads.append(len(y)) or real_head(y, p))
        monkeypatch.setattr(ToyNet, "_bias_rows", lambda net, n: bias_rows.append(n) or real_rows(net, n))
        train_neural(two_moons(50, seed=1), NeuralTrainConfig(params=P13, attack=attack, epochs=3, batch_size=16,
                                                              hidden=(4,)))
        assert heads == bias_rows == [16, 16, 16, 2] * 3

    def test_divergence_raises(self):
        ds = two_moons(40, seed=2)
        cfg = NeuralTrainConfig(params=P13, attack=AttackSpec(method="none"), epochs=50, lr=1e30)
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(FloatingPointError, match="epoch"):
            train_neural(ds, cfg)

    def test_inner_attack_must_be_pgd_or_none(self):
        with pytest.raises(ValueError):
            NeuralTrainConfig(attack=AttackSpec(method="fgsm", eps=0.1))

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"hidden": (True, 3)}, "hidden[0] must be int, got bool"),
            ({"hidden": (3, 2.0)}, "hidden[1] must be int, got float"),
            ({"batch_size": True}, "batch_size must be int, got bool"),
            ({"epochs": True}, "epochs must be int, got bool"),
            ({"seed": False}, "seed must be int, got bool"),
        ],
    )
    def test_ints_refuse_bools(self, kwargs, message):
        # True would pass as 1: a 1-unit layer, batches of one row, one epoch
        with pytest.raises(ValueError, match=re.escape(message)):
            NeuralTrainConfig(**kwargs)
        assert NeuralTrainConfig(hidden=(np.int64(3),), epochs=np.int64(2)).hidden == (3,)

    def test_random_start_rejected(self):
        with pytest.raises(ValueError, match="attack.random_start"):
            NeuralTrainConfig(attack=AttackSpec(method="pgd", eps=0.1, random_start=True))


class TestNetSerialization:
    def test_roundtrip(self, rng):
        net = random_net(rng, d=4, hidden=(6, 5), activation="relu")
        again = ToyNet.from_json(net.to_json())
        x = rng.standard_normal((1, 4))
        assert np.array_equal(net.forward(x), again.forward(x))
        assert again.activation == "relu"

    @pytest.mark.parametrize(
        "change, message",
        [
            ({"extra": 1}, "unknown key 'extra'"),
            ({"weights": [[[True, "1"]], [[0.5], [0.5]]]}, "weights[0][0] must be a list of numbers"),
            ({"weights": [[["1", 0.5]], [[0.5], [0.5]]]}, "weights[0][0] must be a list of numbers"),
            ({"biases": [[False], [0.0, 0.0]]}, "biases[0] must be a list of numbers"),
            ({"biases": "[[0.0], [0.0, 0.0]]"}, "biases must be a list of numbers"),
            ({"activation": 1}, "activation must be a string, got 1"),
        ],
    )
    def test_from_json_refuses_what_float64_would_misread(self, change, message):
        # float64 reads true as 1.0 and parses "1"; each is refused by its key
        text = ToyNet([np.ones((1, 2)), np.ones((2, 1))], [np.zeros(1), np.zeros(2)]).to_json()
        with pytest.raises(ValueError, match=re.escape(message)):
            ToyNet.from_json(json.dumps({**json.loads(text), **change}))
        with pytest.raises(ValueError, match="not an object"):
            ToyNet.from_json("[]")

