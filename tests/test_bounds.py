import numpy as np
import pytest

from advreject.bounds import (
    BoundConfig,
    clipped_adv_risk,
    dual_exponent,
    rademacher_exhaustive,
    rademacher_linear_mc,
    sup_shifted_linear,
    generalization_bound,
    weight_bound,
)
from advreject.data import Dataset
from advreject.losses import SurrogateParams
from conftest import random_linear_model
from oracles import sup_shifted_linear_grid

P13 = SurrogateParams(1.0, 1.0, 0.3)


class TestDualExponent:
    def test_pairs(self):
        assert dual_exponent(1) == np.inf
        assert dual_exponent(2) == 2.0
        assert dual_exponent(np.inf) == 1.0
        assert dual_exponent(4.0) == pytest.approx(4 / 3)

    def test_invalid(self):
        with pytest.raises(ValueError):
            dual_exponent(0.5)


class TestRademacherMc:
    def test_single_point_exact(self):
        # both sign draws give the same norm, so MC is exact at any draw count
        x = np.array([[0.0, 2.0]])  # ||x||_2 = 2
        assert rademacher_linear_mc(x, 1.0, 2.0, 50, seed=0) == pytest.approx(2.0)

    def test_two_identical_points_exhaustive(self):
        x = np.array([[1.0, 0.0], [1.0, 0.0]])
        ds = Dataset(x, np.array([1, -1]))
        got = rademacher_exhaustive(ds, "standard_linear", 1.0, 2.0)
        assert got == pytest.approx(0.5)  # (1/2) * mean(2, 0, 0, 2) / ... = 0.5

    def test_w_homogeneity(self, rng):
        x = rng.standard_normal((6, 3))
        a = rademacher_linear_mc(x, 1.0, 2.0, 500, seed=4)
        b = rademacher_linear_mc(x, 2.0, 2.0, 500, seed=4)
        assert b == pytest.approx(2.0 * a)

    def test_mc_approaches_exhaustive(self, rng):
        x = rng.standard_normal((8, 2))
        ds = Dataset(x, np.ones(8, dtype=int))
        exact = rademacher_exhaustive(ds, "standard_linear", 1.0, 2.0)
        errs = []
        for draws in (200, 3200):
            mc = rademacher_linear_mc(x, 1.0, 2.0, draws, seed=11)
            errs.append(abs(mc - exact))
        # convergence tracked, not asserted with a hard rate constant
        print(f"\nmc errors at 200/3200 draws: {errs[0]:.4f} / {errs[1]:.4f}")
        assert errs[1] <= max(errs[0], 0.05 * exact)


class TestSupShiftedLinear:
    @pytest.mark.parametrize("p", [1.0, 2.0, np.inf])
    def test_matches_grid_oracle(self, p, rng):
        for _ in range(40):
            d = int(rng.integers(1, 4))
            v = 3 * rng.standard_normal(d)
            nu = float(2 * rng.standard_normal())
            w = float(rng.uniform(0.5, 2.0))
            exact = sup_shifted_linear(v, nu, w, p)
            grid, slack = sup_shifted_linear_grid(v, nu, w, p)
            assert exact >= grid - 1e-9  # grid is a lower bound
            assert exact <= grid + slack  # within the grid's Lipschitz slack

    def test_eps_zero_recovers_q_norm(self, rng):
        v = rng.standard_normal(3)
        assert sup_shifted_linear(v, 0.0, 1.0, 2.0) == pytest.approx(np.linalg.norm(v))
        assert sup_shifted_linear(v, 0.0, 1.0, 1.0) == pytest.approx(np.abs(v).max())
        assert sup_shifted_linear(v, 0.0, 1.0, np.inf) == pytest.approx(np.abs(v).sum())

    def test_unsupported_p(self):
        with pytest.raises(ValueError):
            sup_shifted_linear(np.ones(2), 0.1, 1.0, 3.0)


class TestRademacherExhaustive:
    def test_eps_zero_classes_agree(self, rng):
        for _ in range(20):
            n, d = int(rng.integers(2, 9)), int(rng.integers(1, 4))
            ds = Dataset(rng.standard_normal((n, d)), np.where(rng.random(n) < 0.5, 1, -1))
            std = rademacher_exhaustive(ds, "standard_linear", 1.0, 2.0)
            adv = rademacher_exhaustive(ds, "adversarial_linear", 1.0, 2.0, eps=0.0)
            assert adv == pytest.approx(std, abs=1e-12)

    def test_sandwich_quick(self, rng):
        # quick version of the acceptance sweep
        for _ in range(20):
            n, d = int(rng.integers(2, 9)), int(rng.integers(1, 4))
            ds = Dataset(rng.standard_normal((n, d)), np.where(rng.random(n) < 0.5, 1, -1))
            w = float(rng.uniform(0.5, 2.0))
            eps = float(rng.uniform(0.0, 0.5))
            std = rademacher_exhaustive(ds, "standard_linear", w, 2.0)
            adv = rademacher_exhaustive(ds, "adversarial_linear", w, 2.0, eps=eps)
            gap = eps * w * d ** 0.5 / np.sqrt(n)
            assert std - 1e-9 <= adv <= std + gap + 1e-9

    def test_size_limits(self, rng):
        big = Dataset(rng.standard_normal((13, 2)), np.ones(13, dtype=int))
        with pytest.raises(ValueError):
            rademacher_exhaustive(big, "standard_linear", 1.0, 2.0)
        wide = Dataset(rng.standard_normal((4, 4)), np.ones(4, dtype=int))
        with pytest.raises(ValueError):
            rademacher_exhaustive(wide, "adversarial_linear", 1.0, 2.0, eps=0.1)


class TestTheoremBound:
    def make_ds(self, rng, n=50, d=4):
        return Dataset(rng.standard_normal((n, d)), np.where(rng.random(n) < 0.5, 1, -1))

    def test_confidence_term_value(self, rng):
        ds = self.make_ds(rng, n=50)
        cfg = BoundConfig(w_bound=1.0, delta=0.01, params=P13, mc_draws=10)
        rep = generalization_bound(ds, 0.5, cfg, seed=0)
        assert rep.conf_term == pytest.approx(0.2146, abs=5e-5)

    def test_eps_zero_kills_eps_term(self, rng):
        ds = self.make_ds(rng)
        rep = generalization_bound(ds, 0.1, BoundConfig(w_bound=2.0, eps=0.0, params=P13), seed=0)
        assert rep.eps_term == 0.0

    def test_terms_nonnegative_and_total_dominates(self, rng):
        ds = self.make_ds(rng)
        rep = generalization_bound(ds, 0.37, BoundConfig(w_bound=1.5, eps=0.2, params=P13), seed=1)
        for term in (rep.rad_zeta, rep.rad_gamma, rep.eps_term, rep.conf_term):
            assert term >= 0.0
        assert rep.total >= rep.empirical_risk

    def test_monotone_in_eps_and_w(self, rng):
        ds = self.make_ds(rng)
        for _ in range(10):
            e1, e2 = sorted(rng.uniform(0, 1, 2))
            w1, w2 = sorted(rng.uniform(0.5, 3, 2))
            t_e1 = generalization_bound(ds, 0.2, BoundConfig(w_bound=1.0, eps=e1, params=P13), seed=3).total
            t_e2 = generalization_bound(ds, 0.2, BoundConfig(w_bound=1.0, eps=e2, params=P13), seed=3).total
            assert t_e1 <= t_e2 + 1e-12
            t_w1 = generalization_bound(ds, 0.2, BoundConfig(w_bound=w1, eps=0.1, params=P13), seed=3).total
            t_w2 = generalization_bound(ds, 0.2, BoundConfig(w_bound=w2, eps=0.1, params=P13), seed=3).total
            assert t_w1 <= t_w2 + 1e-12

    def test_p_one_uses_dual_infinity(self, rng):
        ds = self.make_ds(rng)
        cfg = BoundConfig(w_bound=1.0, p=1.0, eps=0.3, params=P13)
        rep = generalization_bound(ds, 0.0, cfg, seed=0)
        # d^(1/inf) = 1
        assert rep.eps_term == pytest.approx(2 * 0.3 * 1.0 / np.sqrt(len(ds)))

    def test_report_json(self, rng):
        ds = self.make_ds(rng)
        rep = generalization_bound(ds, 0.1, BoundConfig(w_bound=1.0, params=P13), seed=0)
        import json

        obj = json.loads(rep.to_json())
        assert set(obj) >= {"empirical_risk", "rad_zeta", "rad_gamma", "eps_term", "conf_term", "total"}

    def test_config_validation(self):
        with pytest.raises(ValueError):
            BoundConfig(w_bound=0.0)
        with pytest.raises(ValueError):
            BoundConfig(w_bound=1.0, delta=1.5)
        with pytest.raises(ValueError):
            BoundConfig(w_bound=1.0, mc_draws=0)


class TestModelDerived:
    def test_weight_bound(self, rng):
        m = random_linear_model(rng, 4)
        w = weight_bound(m, 2.0)
        for v in (m.theta, m.gamma, m.zeta(1), m.zeta(-1)):
            assert w >= np.linalg.norm(v) - 1e-12

    def test_clipped_risk_in_range(self, rng):
        m = random_linear_model(rng, 3)
        ds = Dataset(rng.standard_normal((30, 3)), np.where(rng.random(30) < 0.5, 1, -1))
        risk = clipped_adv_risk(m, ds, 0.1, P13)
        assert 0.0 <= risk <= 1.0
