import numpy as np
import pytest

from advreject import neural
from advreject.attacks import AttackSpec
from advreject.data import Dataset
from advreject.losses import SurrogateParams
from advreject.neural import (
    NeuralTrainConfig,
    ToyNet,
    _head_grads,
    _inner_pgd_batch,
    adv_risk_01c_net,
    grad_input,
    grad_params,
    loss_batch,
    train_neural,
)
from advreject.synth import two_moons
from oracles import central_difference, pgd_batch_full, rel_err

P13 = SurrogateParams(1.0, 1.0, 0.3)


def random_net(rng, d=3, hidden=(5, 4), activation="tanh"):
    return ToyNet.init(d, hidden, activation, seed=int(rng.integers(0, 2**31)))


class TestForward:
    def test_zero_net(self):
        net = ToyNet([np.zeros((2, 3))], [np.zeros(2)])
        f, r = net.forward(np.array([1.0, -2.0, 3.0]))
        assert f == 0.0 and r == 0.0

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
        x = np.array([0.3, -0.4, 0.9])
        assert a.forward(x) == b.forward(x)

    def test_final_layer_must_have_two_heads(self):
        with pytest.raises(ValueError):
            ToyNet([np.zeros((3, 2))], [np.zeros(3)])


class TestGradients:
    def test_param_gradients_match_finite_differences(self, rng):
        cfg = NeuralTrainConfig(params=SurrogateParams(1.5, 0.8, 0.25), lam_w=0.01)
        for _ in range(10):
            net = random_net(rng)
            x = rng.standard_normal(3)
            y = 1 if rng.random() < 0.5 else -1
            g = grad_params(net, x, y, cfg)
            num = central_difference(
                lambda th: loss_batch(net.unpack(th), x, np.array([y]), cfg), net.pack()
            )
            assert np.max(rel_err(g, num)) <= 1e-4

    def test_input_gradients_match_finite_differences(self, rng):
        cfg = NeuralTrainConfig(params=P13)
        for _ in range(10):
            net = random_net(rng)
            x = rng.standard_normal(3)
            y = 1 if rng.random() < 0.5 else -1
            g = grad_input(net, x, y, cfg)
            num = central_difference(lambda xv: loss_batch(net, xv, np.array([y]), cfg), x.copy())
            assert np.max(rel_err(g, num)) <= 1e-4

    @pytest.mark.parametrize("activation", ["relu", "tanh"])
    def test_pgd_input_gradient_matches_full_backward(self, rng, monkeypatch, activation):
        net = random_net(rng, hidden=(6, 5), activation=activation)
        x = rng.standard_normal((20, 3))
        y = np.where(rng.random(20) < 0.5, 1.0, -1.0)
        captured = []

        def capture(value_grad, x0, spec):
            captured.append(value_grad)
            return np.zeros_like(x0)

        monkeypatch.setattr(neural, "pgd_batch", capture)
        _inner_pgd_batch(net, x, y, NeuralTrainConfig(params=P13, attack=AttackSpec(method="pgd", eps=0.1)))
        (value_grad,) = captured
        f, r, acts = net._forward_cache(x)
        sq, df, dr = _head_grads(f, r, y, P13)
        value, grad = value_grad(x, True)
        assert np.array_equal(value, sq)
        assert np.array_equal(grad, net._backward(df, dr, acts, want_input=True)[2])
        assert value_grad(x, False)[1] is None

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
        gws, gbs, dx = net._backward(df, dr, net._forward_cache(x)[2], want_input=True)
        assert all(np.array_equal(g, w) for g, w in zip(gws, want_w))
        assert all(np.array_equal(g, w) for g, w in zip(gbs, want_b))
        assert np.array_equal(dx, d0 @ w0)

    def test_inactive_hinge_leaves_only_decay(self, rng):
        cfg = NeuralTrainConfig(params=P13, lam_w=0.5)
        # f = 10 + x1, r = 2 + x2: A = 1 + (r - f)/2 < 0, B = 0.3(1 - r) < 0
        net = ToyNet([np.array([[1.0, 0.0], [0.0, 1.0]])], [np.array([10.0, 2.0])])
        g = grad_params(net, np.array([0.1, 0.1]), 1, cfg)
        expected = np.zeros_like(g)
        expected[:2] = 0.5 * net.top_weights  # only the f-head row decays
        assert np.allclose(g, expected)

    def test_zero_net_zero_input_gradient(self):
        cfg = NeuralTrainConfig(params=P13, lam_w=0.1)
        net = ToyNet([np.zeros((2, 2))], [np.zeros(2)])
        g = grad_input(net, np.array([0.5, -0.5]), 1, cfg)
        # max(1, c, 0) is the active branch but its input gradient is zero
        assert np.array_equal(g, [0.0, 0.0])

    def test_linear_net_matches_analytic(self, rng):
        cfg = NeuralTrainConfig(params=SurrogateParams(2.0, 1.0, 0.3), lam_w=0.0)
        w = rng.standard_normal((2, 3))
        b = rng.standard_normal(2)
        net = ToyNet([w.copy()], [b.copy()])
        x = rng.standard_normal(3)
        y = 1
        f, r = net.forward(x)
        a = 1 + 0.5 * 2.0 * (r - y * f)
        bb = 0.3 * (1 - r)
        m = max(a, bb, 0.0)
        if a >= bb and m > 0:
            want = 2 * m * 0.5 * 2.0 * (w[1] - y * w[0])
        elif m > 0:
            want = 2 * m * (-0.3) * w[1]
        else:
            want = np.zeros(3)
        assert np.allclose(grad_input(net, x, y, cfg), want, atol=1e-12)

    def test_tie_uses_classification_branch(self):
        # craft f, r with the two branches exactly equal and positive
        cfg = NeuralTrainConfig(params=P13, lam_w=0.0)
        # a = 1 + (r - f)/2, b = 0.3(1 - r); equal at r=0, f = 2 - 2*b/..:
        # pick r = 0 -> b = 0.3, a = 1 - f/2 = 0.3 -> f = 1.4
        w = np.array([[1.0, 0.0], [0.0, 1.0]])
        net = ToyNet([w], [np.zeros(2)])
        x = np.array([1.4, 0.0])
        f, r = net.forward(x)
        a = 1 + 0.5 * (r - f)
        b = 0.3 * (1 - r)
        assert a == pytest.approx(b)
        g = grad_input(net, x, 1, cfg)
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
        xa = _inner_pgd_batch(net, ds.x, ds.y.astype(float), atk_cfg)
        _, r_atk = net.forward(xa)
        assert np.mean(r_atk <= 0) >= np.mean(r_clean <= 0)

    def test_inner_max_dominates_clean_loss(self, rng):
        ds = two_moons(80, seed=5)
        cfg = NeuralTrainConfig(params=P13, attack=AttackSpec(method="pgd", eps=0.2, steps=5))
        net = ToyNet.init(2, (8,), "relu", seed=2)
        y = ds.y.astype(float)
        xa = _inner_pgd_batch(net, ds.x, y, cfg)
        assert loss_batch(net, xa, y, cfg) >= loss_batch(net, ds.x, y, cfg) - 1e-12

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

        def attacks():
            return [
                _inner_pgd_batch(net, ds.x, y, cfg),
                neural._heads_pgd(net, ds.x, spec, lambda f, r: (-y * f, -y, np.zeros_like(f))),
                neural._heads_pgd(net, ds.x, spec, lambda f, r: (-r, np.zeros_like(r), -np.ones_like(r))),
            ]

        early = attacks()
        monkeypatch.setattr(neural, "pgd_batch", pgd_batch_full)
        for got, full in zip(early, attacks()):
            assert np.array_equal(got, full)

    def test_adv_risk_includes_clean_point(self, rng):
        ds = two_moons(50, seed=6)
        net = ToyNet.init(2, (8,), "relu", seed=3)
        clean = adv_risk_01c_net(net, ds.x, ds.y, P13, eps=0.0)
        attacked = adv_risk_01c_net(net, ds.x, ds.y, P13, eps=0.1, steps=5)
        assert attacked >= clean - 1e-15

    def test_divergence_raises(self):
        ds = two_moons(40, seed=2)
        cfg = NeuralTrainConfig(params=P13, attack=AttackSpec(method="none"), epochs=50, lr=1e30)
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(FloatingPointError, match="epoch"):
            train_neural(ds, cfg)

    def test_inner_attack_must_be_pgd_or_none(self):
        with pytest.raises(ValueError):
            NeuralTrainConfig(attack=AttackSpec(method="fgsm", eps=0.1))

    def test_random_start_rejected(self):
        with pytest.raises(ValueError, match="attack.random_start"):
            NeuralTrainConfig(attack=AttackSpec(method="pgd", eps=0.1, random_start=True))


class TestNetSerialization:
    def test_roundtrip(self, rng):
        net = random_net(rng, d=4, hidden=(6, 5), activation="relu")
        again = ToyNet.from_json(net.to_json())
        x = rng.standard_normal(4)
        assert net.forward(x) == again.forward(x)
        assert again.activation == "relu"
