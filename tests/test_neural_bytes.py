"""The toy network's trained bytes, pinned: training and attacks on the
library's forward, backward and head give the same net, loss trace and
attacked risk, bit for bit, as on the references in tests/oracles.py
(``@`` products, the boolean relu mask and the head's 2m factor).
``TestPinnedBytes`` imports no private name and patches only
``ToyNet._forward_cache``, ``neural._mh_head``, ``neural._heads_pgd``,
``neural._loss_grads`` and ``evaluate._candidate_deltas``: the training
loop builds each minibatch's head and bias rows once and hands them to
the inner max and the outer step, and the references take them in the
same places. ``TestBatchShapeBytes`` runs the inner max and the outer
step on one shared head and one set of bias rows, at batch shapes the
training runs above do not reach."""

import numpy as np
import pytest

import oracles
from advreject import evaluate, neural
from advreject.attacks import AttackSpec
from advreject.data import Dataset
from advreject.evaluate import evaluate_model
from advreject.losses import SurrogateParams
from advreject.neural import NeuralTrainConfig, ToyNet, adv_risk_01c_net, train_neural
from advreject.synth import two_clusters

P13 = SurrogateParams(1.0, 1.0, 0.3)


def use_references(monkeypatch):
    """Run the net's forward pass, training step and attacks on the
    references in tests/oracles.py: ``@`` products, the boolean relu mask and
    the head's 2m factor."""
    monkeypatch.setattr(ToyNet, "_forward_cache", oracles.toynet_forward_reference)
    monkeypatch.setattr(neural, "_mh_head", oracles.toynet_mh_head_reference)
    monkeypatch.setattr(neural, "_heads_pgd", oracles.toynet_heads_pgd_reference)
    monkeypatch.setattr(neural, "_loss_grads", oracles.toynet_loss_grads_reference)
    monkeypatch.setattr(evaluate, "_candidate_deltas", oracles.toynet_candidate_deltas_reference)


def report_bytes(report):
    """Every field of an EvalReport, the per-row arrays as bytes."""
    return (report.to_json(), report.clean_loss.tobytes(), report.worst_loss.tobytes(), report.winner.tobytes())


class TestPinnedBytes:
    """The trained net, its loss trace and its attacked risk keep the bytes
    of the reference forward, backward and head."""

    @pytest.mark.parametrize("activation", ["relu", "tanh"])
    @pytest.mark.parametrize("norm", ["linf", "l2", None])
    @pytest.mark.parametrize(
        "n, batch_size, hidden, params",
        [
            (150, 64, (32, 32), SurrogateParams(alpha=2.0, beta=2.0, cost=0.2)),  # last minibatch: 22 rows
            (12, 1, (6, 5), SurrogateParams(1.5, 0.7, 0.3)),
        ],
    )
    def test_training_and_risk_match_reference(self, monkeypatch, activation, norm, n, batch_size, hidden, params):
        attack = AttackSpec(method="none") if norm is None else AttackSpec(method="pgd", eps=0.1, steps=6, norm=norm)
        cfg = NeuralTrainConfig(params=params, attack=attack, epochs=3, batch_size=batch_size, lr=0.05,
                                hidden=hidden, activation=activation, seed=3)
        ds, held_out = two_clusters(n, seed=4), two_clusters(40, seed=5)

        def run():
            net, trace = train_neural(ds, cfg)
            risks = [adv_risk_01c_net(net, x, y, params, eps=0.1, steps=8)
                     for x, y in ((held_out.x, held_out.y), (held_out.x[:1], held_out.y[:1]))]
            return net.to_json(), trace.tobytes(), risks

        got = run()
        use_references(monkeypatch)
        assert got == run()

    @staticmethod
    def overflowing_net():
        # hidden layer 1 is relu(1e308 x1), relu(x1), relu(x2 + 5): inf where
        # x1 > 1.7977 (float64's max / 1e308). Layer 2 is relu(0 * inf) = NaN
        # there, next to relu(x1 - 1.79), x1 and x2 + 5, which stay finite.
        # f is x1 + x2 - 2 below the overflow; above it f and r are NaN,
        # while the finite units' slope of f in x1 turns from +1 to -2. So
        # pgd on -y f at y = -1 runs into the overflow, and the boolean relu
        # mask steps back out of it with a larger x2 (the reference's
        # attacked loss is 1 on the first two rows), where a NaN derivative
        # would stall there.
        weights = [
            np.array([[1e308, 0.0], [1.0, 0.0], [0.0, 1.0]]),
            np.array([[0.0, 0.0, 0.0], [1e-308, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]),
            np.array([[1.0, -3.0, 1.0, 1.0], [1.0, 0.0, 0.0, 0.0]]),
        ]
        biases = [np.array([0.0, 0.0, 5.0]), np.array([0.0, -1.79, 0.0, 0.0]), np.array([-7.0, 1.0])]
        return ToyNet(weights, biases, "relu")

    def test_overflowing_hidden_layer_matches_reference(self, monkeypatch):
        ds = Dataset(np.array([[1.6, 0.0], [1.5, 0.2], [0.0, 0.0], [2.0, 0.0]]), np.array([-1, -1, 1, -1]))
        net = self.overflowing_net()
        with np.errstate(all="ignore"):
            f, _, acts = oracles.toynet_forward_reference(net, ds.x)
        assert np.isnan(acts[2]).any(axis=1).tolist() == [False, False, False, True]
        assert np.isfinite(f).tolist() == [True, True, True, False]
        cfg = NeuralTrainConfig(params=P13, attack=AttackSpec(method="pgd", eps=1.0, steps=10), epochs=2,
                                batch_size=2, hidden=(3, 4))
        monkeypatch.setattr(ToyNet, "init", classmethod(lambda cls, *args, **kwargs: self.overflowing_net()))

        def run():
            with np.errstate(all="ignore"):
                specs = [AttackSpec(method="pgd", eps=1.0, steps=10, norm=norm) for norm in ("linf", "l2")]
                reports = [report_bytes(evaluate_model(net, ds, spec, P13)) for spec in specs]
                with pytest.raises(FloatingPointError) as diverged:
                    train_neural(ds, cfg)
            return reports, str(diverged.value)

        got = run()
        use_references(monkeypatch)
        assert got == run()
        assert np.frombuffer(got[0][0][2])[:2].tolist() == [1.0, 1.0]  # linf's worst loss
        assert got[1] == "training loss diverged at epoch 0"


class TestBatchShapeBytes:
    """The inner max and then the outer step, on one head and one set of
    bias rows as training runs them, give the references' bytes at the
    neural-minmax workload's batches (64 rows, and 16 in its last: 400 =
    6 x 64 + 16) and at 37 and 38 rows, where OpenBLAS changes how it sums
    a product with a transposed 32 x 32 operand."""

    @pytest.mark.parametrize("norm", ["linf", "l2"])
    @pytest.mark.parametrize("activation", ["relu", "tanh"])
    @pytest.mark.parametrize("rows", [16, 37, 38, 64])
    def test_inner_max_and_outer_step_match_reference(self, rows, activation, norm):
        rng = np.random.default_rng(rows)
        x = rng.standard_normal((rows, 2))
        y = np.where(rng.random(rows) < 0.5, 1.0, -1.0)
        cfg = NeuralTrainConfig(params=SurrogateParams(alpha=2.0, beta=2.0, cost=0.2),
                                attack=AttackSpec(method="pgd", eps=0.1, steps=10, norm=norm), hidden=(32, 32),
                                activation=activation)
        net = ToyNet.init(2, (32, 32), activation, seed=1)
        net = ToyNet(net.weights, [rng.normal(0.0, 0.1, b.shape) for b in net.biases], activation)

        def step_bytes(loss, grads):
            gws, gbs, dx = grads()
            return loss, [g.tobytes() for g in gws + gbs + [dx]]

        ref_heads = oracles.toynet_mh_head_reference(y, cfg.params)
        attacked = x + oracles.toynet_heads_pgd_reference(net, x, cfg.attack, ref_heads)
        heads, biases = neural._mh_head(y, cfg.params), net._bias_rows(rows)
        assert (x + neural._heads_pgd(net, x, cfg.attack, heads, biases)).tobytes() == attacked.tobytes()
        want = step_bytes(*oracles.toynet_loss_grads_reference(net, attacked, ref_heads, None, cfg, want_input=True))
        assert step_bytes(*neural._loss_grads(net, attacked, heads, biases, cfg, want_input=True)) == want
