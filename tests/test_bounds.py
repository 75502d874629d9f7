import numpy as np
import pytest

from advreject.bounds import (
    BoundConfig,
    clipped_adv_risk,
    dual_exponent,
    rademacher_linear_mc,
    rademacher_linear_upper,
    generalization_bound,
    weight_bound,
)
from advreject.data import Dataset
from advreject.losses import SurrogateParams
from conftest import random_linear_model
from oracles import rademacher_exhaustive, sup_shifted_linear, sup_shifted_linear_grid, sup_shifted_linear_orthants

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

    @pytest.mark.parametrize("p", [1.0, 2.0, np.inf])
    def test_matches_orthant_enumeration(self, p, rng):
        for _ in range(200):
            d = int(rng.integers(1, 8))
            v = 3 * rng.standard_normal(d)
            nu = float(rng.uniform(-2.0, 2.0))
            w = float(rng.uniform(0.5, 2.0))
            want = sup_shifted_linear_orthants(v, nu, w, p)
            assert sup_shifted_linear(v, nu, w, p) == pytest.approx(want, rel=1e-12)

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
        for d in (4, 5, 6):  # no dimension limit: the wide adversarial class satisfies the sandwich
            wide = Dataset(rng.standard_normal((6, d)), np.where(rng.random(6) < 0.5, 1, -1))
            std = rademacher_exhaustive(wide, "standard_linear", 1.0, 2.0)
            adv = rademacher_exhaustive(wide, "adversarial_linear", 1.0, 2.0, eps=0.1)
            assert std - 1e-9 <= adv <= std + 0.1 * d**0.5 / np.sqrt(6) + 1e-9


Q_VALUES = [1.0, 4.0 / 3.0, 2.0, 3.0, np.inf]


class TestRademacherUpper:
    """rademacher_linear_upper is a certified upper bound on the exact
    (exhaustive) empirical Rademacher complexity of the linear class."""

    @pytest.mark.parametrize("q", Q_VALUES)
    def test_dominates_exhaustive(self, q, rng):
        for _ in range(30):
            n, d = int(rng.integers(1, 13)), int(rng.integers(1, 7))
            scale = float(10.0 ** rng.uniform(-2, 1))
            ds = Dataset(scale * rng.standard_normal((n, d)), np.ones(n, dtype=int))
            w = float(rng.uniform(0.5, 2.0))
            exact = rademacher_exhaustive(ds, "standard_linear", w, q)
            upper, _ = rademacher_linear_upper(ds.x, w, q)
            assert upper >= exact * (1 - 1e-12)

    @pytest.mark.parametrize("q", [1.0, 4.0 / 3.0, 2.0])
    def test_exact_for_one_sample(self, q, rng):
        for _ in range(10):
            ds = Dataset(rng.standard_normal((1, int(rng.integers(1, 7)))), np.ones(1, dtype=int))
            exact = rademacher_exhaustive(ds, "standard_linear", 1.3, q)
            assert rademacher_linear_upper(ds.x, 1.3, q)[0] == pytest.approx(exact, rel=1e-12)

    @pytest.mark.parametrize("q", Q_VALUES)
    def test_exact_for_one_sample_in_one_dimension(self, q, rng):
        x = rng.standard_normal((1, 1))
        exact = rademacher_exhaustive(Dataset(x, np.ones(1, dtype=int)), "standard_linear", 1.0, q)
        assert rademacher_linear_upper(x, 1.0, q)[0] == pytest.approx(exact, rel=1e-12)

    @pytest.mark.parametrize("q", Q_VALUES)
    def test_homogeneous_in_scale_and_w(self, q, rng):
        x = rng.standard_normal((7, 5))
        base, rule = rademacher_linear_upper(x, 1.0, q)
        assert rademacher_linear_upper(3.0 * x, 1.0, q) == (pytest.approx(3.0 * base, rel=1e-12), rule)
        assert rademacher_linear_upper(0.01 * x, 2.0, q) == (pytest.approx(0.02 * base, rel=1e-12), rule)

    def test_inequality_per_q(self, rng):
        x = rng.standard_normal((20, 3))
        assert rademacher_linear_upper(x, 1.0, 1.0)[1] == "jensen_columns"
        assert rademacher_linear_upper(x, 1.0, 2.0)[1] == "jensen_columns"
        assert rademacher_linear_upper(x, 1.0, 3.0)[1] == "l2_domination"
        assert rademacher_linear_upper(x[:, :1], 1.0, np.inf)[1] == "l2_domination"
        assert rademacher_linear_upper(rng.standard_normal((20, 50)), 1.0, np.inf)[1] == "massart"

    def test_massart_branch_dominates_exhaustive(self, rng):
        for _ in range(10):
            x = rng.standard_normal((12, 6))
            x /= np.linalg.norm(x, axis=0)  # equal column norms: Massart beats l2 at d = 6
            exact = rademacher_exhaustive(Dataset(x, np.ones(12, dtype=int)), "standard_linear", 1.0, np.inf)
            upper, rule = rademacher_linear_upper(x, 1.0, np.inf)
            assert rule == "massart" and upper >= exact

    def test_infinity_takes_the_smaller_bound(self, rng):
        for d in (1, 2, 5, 50):
            x = rng.standard_normal((9, d))
            cols = np.linalg.norm(x, axis=0)
            l2, massart = np.linalg.norm(cols), np.sqrt(2 * np.log(2 * d)) * cols.max()
            assert rademacher_linear_upper(x, 1.0, np.inf)[0] == pytest.approx(min(l2, massart) / 9, rel=1e-12)

    def test_q2_is_root_sum_of_squared_row_norms(self, rng):
        x = rng.standard_normal((11, 4))
        want = np.sqrt(np.sum(np.linalg.norm(x, axis=1) ** 2)) / 11
        assert rademacher_linear_upper(x, 1.0, 2.0)[0] == pytest.approx(want, rel=1e-12)

    def test_empty_sample(self):
        with pytest.raises(ValueError):
            rademacher_linear_upper(np.zeros((0, 3)), 1.0, 2.0)


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
        assert set(obj) >= {"empirical_risk", "rad_zeta", "rad_gamma", "rad_inequality", "eps_term", "conf_term",
                            "total"}

    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 4.0, np.inf])
    def test_deterministic_and_certified(self, p, rng):
        ds = self.make_ds(rng, n=10, d=3)
        cfg = BoundConfig(w_bound=1.2, p=p, eps=0.1, params=P13)
        rep = generalization_bound(ds, 0.2, cfg, seed=0)
        for seed, draws in ((1, 2000), (99, 10), (0, 1)):
            other = generalization_bound(ds, 0.2, BoundConfig(w_bound=1.2, p=p, eps=0.1, params=P13, mc_draws=draws),
                                         seed=seed)
            assert other.to_json() == rep.to_json()
        assert rep.rad_zeta == rep.rad_gamma
        assert rep.rad_zeta >= rademacher_exhaustive(ds, "standard_linear", 1.2, cfg.q)
        assert (rep.rad_zeta, rep.rad_inequality) == rademacher_linear_upper(ds.x, 1.2, cfg.q)

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
        for v in (m.theta, m.gamma, m.theta - m.gamma, -m.theta - m.gamma):
            assert w >= np.linalg.norm(v) - 1e-12

    def test_clipped_risk_in_range(self, rng):
        m = random_linear_model(rng, 3)
        ds = Dataset(rng.standard_normal((30, 3)), np.where(rng.random(30) < 0.5, 1, -1))
        risk = clipped_adv_risk(m, ds, 0.1, P13)
        assert 0.0 <= risk <= 1.0
