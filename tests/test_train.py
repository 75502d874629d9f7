import numpy as np
import pytest

from advreject.data import Dataset
from advreject.evaluate import evaluate_model
from advreject.attacks import AttackSpec
from advreject.losses import SurrogateParams
from advreject.model import FeatureMap, RejectionModel, featurize
from advreject.train import TrainConfig, _augment, _objective_arrays, cross_validate, objective, train
from oracles import train_objective_reference

P13 = SurrogateParams(1.0, 1.0, 0.3)


def toy_dataset(rng, n=40, d=3):
    x = rng.standard_normal((n, d))
    y = np.where(x[:, 0] > 0, 1, -1)
    return Dataset(x, y)


class TestConfigInvariants:
    def test_svm_requires_zero_eps(self):
        with pytest.raises(ValueError):
            TrainConfig(mode="svm", eps_train=0.1)

    def test_mh_requires_zero_eps(self):
        with pytest.raises(ValueError):
            TrainConfig(mode="mh", eps_train=0.1)

    def test_at_and_atro_allow_eps(self):
        TrainConfig(mode="at", eps_train=0.1)
        TrainConfig(mode="atro", eps_train=0.1)

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            TrainConfig(mode="ridge")


class TestObjective:
    def test_zero_model_costs_n(self, rng):
        ds = toy_dataset(rng, n=25)
        m = RejectionModel(theta=np.zeros(3), gamma=np.zeros(3))
        cfg = TrainConfig(mode="atro", params=P13, eps_train=0.0, lam=0.0, lam_prime=0.0)
        assert objective(m, ds, cfg) == pytest.approx(25.0)

    def test_constructed_zero_loss(self):
        # y=+1, f=10, r=2 -> both branches inactive
        ds = Dataset(np.array([[1.0]]), np.array([1]))
        m = RejectionModel(theta=np.array([0.0]), gamma=np.array([0.0]), bias_theta=2.0, bias_gamma=10.0)
        cfg = TrainConfig(mode="atro", params=P13, eps_train=0.0, lam=0.0, lam_prime=0.0)
        assert objective(m, ds, cfg) == 0.0

    def test_lambda_linearity(self, rng):
        ds = toy_dataset(rng)
        m = RejectionModel(theta=rng.standard_normal(3), gamma=rng.standard_normal(3), bias_theta=0.5)
        lam = 0.4
        cfg1 = TrainConfig(mode="atro", params=P13, lam=lam, lam_prime=0.0)
        cfg2 = TrainConfig(mode="atro", params=P13, lam=2 * lam, lam_prime=0.0)
        norm_sq = float(m.theta @ m.theta) + m.bias_theta**2
        assert objective(m, ds, cfg2) - objective(m, ds, cfg1) == pytest.approx(lam / 2 * norm_sq)

    def test_empty_dataset(self):
        with pytest.raises(ValueError):
            objective(
                RejectionModel(theta=np.zeros(1), gamma=np.zeros(1)),
                Dataset(np.zeros((0, 1)), np.zeros(0, dtype=int)),
                TrainConfig(mode="mh"),
            )


def _reference_problem(rng, features, cfg):
    """Dyadic weights and 40 rows of the given features labelled mostly by
    the classifier, then four rows t*e_0 + s*e_1 with label +1 that pin
    each branch state: an exact A~ = B~ > 0 tie, an inactive row, a B~ row
    and an A~ row.

    With alpha = 2, beta = 1, c = 1/4, theta_0 = 0, gamma_0 = 1, theta_1 =
    1/2 and theta_b = 1, such a row has r = 1 + s/2 and f = t + gamma_1 s +
    gamma_b. At s = -1, A~ - B~ is linear in t and, with dyadic weights and
    eps, its root is exact in floating point. Returns (theta, gamma, zb, y)
    with the bias last; svm/at get the sentinel rejector."""
    x = rng.integers(-8, 9, size=(40, 3)) / 8.0
    if features == "identity":
        z = x
    else:
        z = featurize(FeatureMap("random_fourier", dim=12, sigma=0.7, seed=5, input_dim=3), x)
    d = z.shape[1]
    theta = rng.integers(-4, 5, size=d + 1) / 4.0
    gamma = rng.integers(-8, 9, size=d + 1) / 2.0
    theta[0], gamma[0], theta[1], theta[-1] = 0.0, 1.0, 0.5, 1.0
    y = np.where(z @ gamma[:-1] + gamma[-1] >= 0, 1.0, -1.0)
    y[::4] *= -1
    eps = cfg.eps_train
    zeta_l1, theta_l1 = np.abs(theta[:-1] - gamma[:-1]).sum(), np.abs(theta[:-1]).sum()
    t_tie = 0.75 + 1.25 * 0.5 + eps * zeta_l1 - 0.25 * eps * theta_l1 + gamma[1] - gamma[-1]
    pinned = np.zeros((4, d))
    pinned[:, :2] = [[t_tie, -1.0], [64.0, 4.0], [64.0, -1.0], [-64.0, -1.0]]
    if not cfg.rejection_enabled:
        theta = np.zeros(d + 1)
        theta[-1] = 1.0
    return theta, gamma, _augment(np.vstack([z, pinned])), np.append(y, np.ones(4))


class TestObjectiveAgainstReference:
    @pytest.mark.parametrize("features", ["identity", "rff"])
    @pytest.mark.parametrize(
        "mode, eps", [("svm", 0.0), ("at", 0.0), ("at", 1 / 64), ("mh", 0.0), ("atro", 0.0), ("atro", 1 / 64)]
    )
    def test_value_and_subgradient(self, rng, features, mode, eps):
        cfg = TrainConfig(mode=mode, params=SurrogateParams(2.0, 1.0, 0.25), eps_train=eps, lam=0.5, lam_prime=0.25)
        theta, gamma, zb, y = _reference_problem(rng, features, cfg)
        want_val, want_gt, want_gg, branches = train_objective_reference(theta, gamma, zb, y, cfg)
        val, g_theta, g_gamma = _objective_arrays(theta, gamma, zb, y, cfg, with_grad=True)
        if cfg.rejection_enabled:
            assert branches[-4:] == ["A", "-", "B", "A"]
            tie = zb[-4]
            gap = float(tie @ theta - tie @ gamma) + eps * np.abs(theta[:-1] - gamma[:-1]).sum()
            b = 0.25 * (1.0 - (float(tie @ theta) - eps * np.abs(theta[:-1]).sum()))
            assert 1.0 + gap == b > 0
        else:
            assert branches[-3:] == ["-", "-", "A"]
            assert np.all(g_theta == 0.0)
        assert val == pytest.approx(want_val, rel=1e-12)
        assert _objective_arrays(theta, gamma, zb, y, cfg) == val
        np.testing.assert_allclose(g_theta, want_gt, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(g_gamma, want_gg, rtol=1e-12, atol=1e-12)


class TestTrain:
    def test_separable_pair_is_solved(self):
        ds = Dataset(np.array([[2.0, 0.0], [-2.0, 0.0]]), np.array([1, -1]))
        cfg = TrainConfig(mode="atro", params=P13, eps_train=0.01, epochs=300)
        model, trace = train(ds, cfg)
        rep = evaluate_model(model, ds, AttackSpec(method="none"), P13)
        assert rep.err == 0.0 and rep.rej == 0.0

    def test_lower_cost_rejects_more(self, rng):
        # overlapping clusters with label noise: cheap rejection abstains more
        n = 200
        x = np.vstack([rng.normal(0.6, 0.35, (n // 2, 2)), rng.normal(0.4, 0.35, (n // 2, 2))])
        y = np.concatenate([np.ones(n // 2, dtype=int), -np.ones(n // 2, dtype=int)])
        ds = Dataset(x, y)
        rates = {}
        for cost in (0.1, 0.4):
            cfg = TrainConfig(mode="mh", params=SurrogateParams(1, 1, cost), epochs=600)
            model, _ = train(ds, cfg)
            rep = evaluate_model(model, ds, AttackSpec(method="none"), SurrogateParams(1, 1, cost))
            rates[cost] = rep.rej
        assert rates[0.1] >= rates[0.4]

    def test_svm_never_rejects(self, rng):
        ds = toy_dataset(rng, n=60)
        model, _ = train(ds, TrainConfig(mode="svm", epochs=200))
        assert np.all(model.theta == 0.0) and model.bias_theta > 0
        rep = evaluate_model(model, ds, AttackSpec(method="none"), P13)
        assert rep.rej == 0.0

    def test_best_so_far_monotone(self, rng):
        ds = toy_dataset(rng)
        _, trace = train(ds, TrainConfig(mode="atro", epochs=150))
        assert np.all(np.diff(trace.best) <= 0)

    def test_objective_consistency(self, rng):
        ds = toy_dataset(rng, n=50)
        cfg = TrainConfig(mode="atro", params=P13, eps_train=0.05, epochs=200)
        model, trace = train(ds, cfg)
        assert objective(model, ds, cfg) == pytest.approx(trace.best_objective, abs=1e-9)

    def test_atro_eps0_identical_to_mh(self, rng):
        ds = toy_dataset(rng, n=30)
        cfg_a = TrainConfig(mode="atro", params=P13, eps_train=0.0, epochs=120)
        cfg_m = TrainConfig(mode="mh", params=P13, epochs=120)
        ma, ta = train(ds, cfg_a)
        mm, tm = train(ds, cfg_m)
        assert np.array_equal(ta.objective, tm.objective)
        assert np.array_equal(ma.theta, mm.theta) and np.array_equal(ma.gamma, mm.gamma)

    def test_at_eps0_identical_to_svm(self, rng):
        ds = toy_dataset(rng, n=30)
        ma, ta = train(ds, TrainConfig(mode="at", eps_train=0.0, epochs=120))
        ms, ts = train(ds, TrainConfig(mode="svm", epochs=120))
        assert np.array_equal(ta.objective, ts.objective)
        assert np.array_equal(ma.gamma, ms.gamma)

    def test_deterministic(self, rng):
        ds = toy_dataset(rng)
        cfg = TrainConfig(mode="atro", epochs=100)
        m1, t1 = train(ds, cfg)
        m2, t2 = train(ds, cfg)
        assert np.array_equal(m1.gamma, m2.gamma)
        assert np.array_equal(t1.objective, t2.objective)

    def test_huge_regularizer_shrinks_to_envelope(self, rng):
        ds = toy_dataset(rng, n=40)
        cfg = TrainConfig(mode="atro", params=P13, lam=1e3, lam_prime=1e3, epochs=400, lr0=0.3)
        model, trace = train(ds, cfg)
        # at the zero model every sample pays max(1, c) = 1
        assert trace.best_objective <= len(ds) * 1.0 + 1.0
        assert np.linalg.norm(model.theta) < 0.2 and np.linalg.norm(model.gamma) < 0.2

    def test_divergence_reports_epoch(self, rng):
        ds = toy_dataset(rng, n=10)
        cfg = TrainConfig(mode="atro", lam=1e300, lam_prime=1e300, lr0=1e6, epochs=50)
        with np.errstate(over="ignore"), pytest.raises(FloatingPointError, match="epoch"):
            train(ds, cfg)

    def test_trace_csv(self, rng):
        ds = toy_dataset(rng, n=10)
        _, trace = train(ds, TrainConfig(mode="mh", epochs=5))
        lines = trace.to_csv().strip().splitlines()
        assert lines[0] == "epoch,objective,best"
        assert len(lines) == 7  # header + epochs + final evaluation

    def test_fourier_features_path(self, rng):
        ds = toy_dataset(rng, n=40)
        fm = FeatureMap("random_fourier", dim=16, sigma=1.0, seed=0)
        cfg = TrainConfig(mode="atro", eps_train=0.01, epochs=150, feature_map=fm)
        model, _ = train(ds, cfg)
        assert model.feat_dim == 16
        assert model.decide(ds.x[0]) is not None

    def test_fourier_map_pinned_to_training_dimension(self, rng):
        x = rng.standard_normal((40, 14))
        ds = Dataset(x, np.where(x[:, 0] > 0, 1, -1))
        fm = FeatureMap("random_fourier", dim=200, sigma=0.8, seed=7)  # the README quick start map
        model, _ = train(ds, TrainConfig(mode="atro", eps_train=0.001, epochs=5, feature_map=fm))
        assert model.feature_map.input_dim == 14
        model.featurize(ds.x)
        with pytest.raises(ValueError, match="input dimension 14"):
            model.featurize(rng.standard_normal((3, 8)))


class TestCrossValidate:
    def test_single_config(self, rng):
        ds = toy_dataset(rng, n=30)
        grid = [TrainConfig(mode="mh", epochs=50)]
        best, table = cross_validate(ds, grid, folds=3, seed=0)
        assert best is grid[0]
        assert len(table) == 1 and len(table[0]["fold_risks"]) == 3

    def test_tie_prefers_first(self, rng):
        ds = toy_dataset(rng, n=20)
        cfg = TrainConfig(mode="mh", epochs=50)
        best, _ = cross_validate(ds, [cfg, TrainConfig(mode="mh", epochs=50)], folds=2, seed=0)
        assert best is cfg

    def test_two_folds_half_train(self, rng):
        ds = toy_dataset(rng, n=10)
        _, table = cross_validate(ds, [TrainConfig(mode="svm", epochs=30)], folds=2, seed=0)
        assert len(table[0]["fold_risks"]) == 2

    def test_empty_grid(self, rng):
        with pytest.raises(ValueError):
            cross_validate(toy_dataset(rng), [], folds=2, seed=0)

    def test_bad_folds(self, rng):
        with pytest.raises(ValueError):
            cross_validate(toy_dataset(rng), [TrainConfig(mode="svm")], folds=1, seed=0)
