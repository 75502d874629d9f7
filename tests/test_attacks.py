import numpy as np
import pytest

from advreject.attacks import (
    AttackSpec,
    LinearMHOracle,
    analytic_candidates,
    fgsm,
    pgd,
    pgd_linear_mh_batch,
    worst_case_01c,
)
from advreject.losses import SurrogateParams, adv_loss_mh_linear, loss_01c
from advreject.model import RejectionModel
from conftest import random_linear_model
from oracles import box_max_01c

P13 = SurrogateParams(1.0, 1.0, 0.3)


class HingeOracle:
    """Plain hinge max(0, 1 - y <x, w>) with hand-written gradient."""

    def __init__(self, w):
        self.w = np.asarray(w, dtype=np.float64)

    def loss(self, x, y):
        return max(0.0, 1.0 - y * float(x @ self.w))

    def grad(self, x, y):
        if 1.0 - y * float(x @ self.w) > 0:
            return -y * self.w
        return np.zeros_like(self.w)


class TestAttackSpec:
    def test_analytic_requires_linf(self):
        with pytest.raises(ValueError):
            AttackSpec(method="analytic_linear", norm="l2")

    def test_fgsm_requires_linf(self):
        with pytest.raises(ValueError):
            AttackSpec(method="fgsm", norm="l2")

    def test_auto_step(self):
        spec = AttackSpec(method="pgd", eps=0.5, steps=25)
        assert spec.resolved_step() == pytest.approx(0.5 / 5.0)

    def test_negative_eps(self):
        with pytest.raises(ValueError):
            AttackSpec(method="pgd", eps=-1.0)


class TestFgsm:
    def test_hand_derived_hinge_gradient(self):
        # active hinge at the origin: grad = -y*w = (-3, 1), delta = eps*sgn
        oracle = HingeOracle([3.0, -1.0])
        pert = fgsm(oracle, np.zeros(2), 1, 0.25)
        assert np.array_equal(pert.delta, [-0.25, 0.25])

    def test_eps_zero(self):
        pert = fgsm(HingeOracle([1.0, 1.0]), np.zeros(2), 1, 0.0)
        assert np.array_equal(pert.delta, [0.0, 0.0])

    def test_inactive_hinge_zero_gradient(self):
        oracle = HingeOracle([1.0, 0.0])
        pert = fgsm(oracle, np.array([10.0, 0.0]), 1, 0.5)
        assert np.array_equal(pert.delta, [0.0, 0.0])

    def test_nonfinite_gradient(self):
        class Bad:
            def loss(self, x, y):
                return 0.0

            def grad(self, x, y):
                return np.array([np.nan, 0.0])

        with pytest.raises(FloatingPointError):
            fgsm(Bad(), np.zeros(2), 1, 0.1)


class TestPgd:
    def test_eps_zero_returns_clean(self):
        oracle = HingeOracle([1.0, 1.0])
        x = np.array([0.3, -0.2])
        pert = pgd(oracle, x, 1, AttackSpec(method="pgd", eps=0.0))
        assert np.array_equal(pert.delta, [0.0, 0.0])
        assert pert.achieved_loss == oracle.loss(x, 1)

    def test_achieves_at_least_clean(self, rng):
        for _ in range(30):
            m = random_linear_model(rng, 3)
            oracle = LinearMHOracle(m, P13)
            x = rng.standard_normal(3)
            y = 1 if rng.random() < 0.5 else -1
            pert = pgd(oracle, x, y, AttackSpec(method="pgd", eps=0.2, steps=10))
            assert pert.achieved_loss >= oracle.loss(x, y) - 1e-15

    def test_never_exceeds_closed_form(self, rng):
        # the closed form is the true max; PGD must stay at or below it
        reached = 0
        for _ in range(50):
            m = random_linear_model(rng, 4)
            oracle = LinearMHOracle(m, P13)
            x = rng.standard_normal(4)
            y = 1 if rng.random() < 0.5 else -1
            pert = pgd(oracle, x, y, AttackSpec(method="pgd", eps=0.3, steps=25))
            exact = adv_loss_mh_linear(m, x, y, 0.3, P13)
            assert pert.achieved_loss <= exact + 1e-9
            if pert.achieved_loss >= exact - 1e-6:
                reached += 1
        # heuristic lower direction: reported, not asserted
        print(f"\npgd reached the closed-form max on {reached}/50 instances")

    def test_feasibility(self, rng):
        m = random_linear_model(rng, 5)
        oracle = LinearMHOracle(m, P13)
        x = rng.standard_normal(5)
        for norm in ("linf", "l2"):
            spec = AttackSpec(method="pgd", eps=0.4, norm=norm, steps=15)
            pert = pgd(oracle, x, 1, spec)
            if norm == "linf":
                assert np.max(np.abs(pert.delta)) <= 0.4 + 1e-12
            else:
                assert np.linalg.norm(pert.delta) <= 0.4 + 1e-12

    def test_random_start_deterministic(self, rng):
        m = random_linear_model(rng, 3)
        oracle = LinearMHOracle(m, P13)
        x = rng.standard_normal(3)
        spec = AttackSpec(method="pgd", eps=0.2, steps=5, random_start=True, seed=42)
        p1 = pgd(oracle, x, 1, spec)
        p2 = pgd(oracle, x, 1, spec)
        assert np.array_equal(p1.delta, p2.delta)


class TestAnalyticCandidates:
    def setup_method(self):
        self.m = RejectionModel(theta=np.array([1.0, -1.0]), gamma=np.array([2.0, 0.0]))
        self.x = np.array([1.0, 1.0])

    def test_frozen_deltas(self):
        cand = analytic_candidates(self.m, self.x, 1, 0.1, 0.3)
        assert np.allclose(cand[0].delta, [-0.1, -0.1])
        assert np.allclose(cand[1].delta, [-0.1, 0.1])

    def test_margin_candidate_attains_closed_form(self, rng):
        for _ in range(50):
            m = random_linear_model(rng, 4, bias=False)
            x = rng.standard_normal(4)
            y = 1 if rng.random() < 0.5 else -1
            eps = 0.2
            delta_a = analytic_candidates(m, x, y, eps, 0.3)[0].delta
            zeta = m.zeta(y)
            attained = y * float((x + delta_a) @ zeta)
            assert attained == pytest.approx(y * float(x @ zeta) + eps * np.abs(zeta).sum(), abs=1e-12)

    def test_reject_candidate_attains_min_r(self, rng):
        for _ in range(50):
            m = random_linear_model(rng, 4)
            x = rng.standard_normal(4)
            delta_b = analytic_candidates(m, x, 1, 0.15, 0.3)[1].delta
            _, r = m.scores_features(x + delta_b)
            _, r0 = m.scores_features(x)
            assert float(r) == pytest.approx(float(r0) - 0.15 * np.abs(m.theta).sum(), abs=1e-12)

    def test_eps_zero(self):
        cand = analytic_candidates(self.m, self.x, 1, 0.0, 0.3)
        assert np.array_equal(cand[0].delta, [0.0, 0.0])
        assert np.array_equal(cand[1].delta, [0.0, 0.0])

    def test_achieved_loss_is_01c(self):
        cand = analytic_candidates(self.m, self.x, 1, 0.1, 0.3)
        for pert in cand:
            f, r = self.m.scores_features(self.x + pert.delta)
            assert pert.achieved_loss == loss_01c(float(f), float(r), 1, 0.3)


class TestWorstCase01c:
    def test_reject_everything_model(self):
        m = RejectionModel(theta=np.array([0.0, 0.0]), gamma=np.array([1.0, 0.0]), bias_theta=-50.0)
        x = np.array([0.2, 0.1])
        for mode in ("heuristic", "exact_small_d"):
            assert worst_case_01c(m, x, 1, 0.1, 0.3, mode=mode) == pytest.approx(0.3)

    def test_wide_margins_are_safe(self):
        m = RejectionModel(theta=np.array([1.0]), gamma=np.array([1.0]), bias_theta=5.0, bias_gamma=5.0)
        x = np.array([1.0])
        for mode in ("heuristic", "exact_small_d"):
            assert worst_case_01c(m, x, 1, 0.1, 0.3, mode=mode) == 0.0

    def test_heuristic_below_exact(self, rng):
        hits = 0
        trials = 40
        for _ in range(trials):
            d = int(rng.integers(1, 5))
            m = random_linear_model(rng, d)
            x = rng.standard_normal(d)
            y = 1 if rng.random() < 0.5 else -1
            heur = worst_case_01c(m, x, y, 0.2, 0.3, mode="heuristic")
            exact = worst_case_01c(m, x, y, 0.2, 0.3, mode="exact_small_d")
            assert heur <= exact + 1e-12
            if heur == pytest.approx(exact, abs=1e-12):
                hits += 1
        print(f"\nheuristic matched the exact oracle on {hits}/{trials} instances")

    def test_exact_matches_independent_grid(self, rng):
        for _ in range(10):
            d = int(rng.integers(1, 4))
            m = random_linear_model(rng, d)
            x = rng.standard_normal(d)
            got = worst_case_01c(m, x, 1, 0.3, 0.25, mode="exact_small_d")
            want = box_max_01c(m, x, 1, 0.3, 0.25)
            assert got == pytest.approx(want, abs=1e-12)

    def test_dominates_clean(self, rng):
        for _ in range(50):
            m = random_linear_model(rng, 3)
            x = rng.standard_normal(3)
            y = 1 if rng.random() < 0.5 else -1
            f, r = m.scores_features(x)
            clean = loss_01c(float(f), float(r), y, 0.3)
            assert worst_case_01c(m, x, y, 0.1, 0.3, mode="heuristic") >= clean

    def test_exact_dimension_limit(self):
        m = RejectionModel(theta=np.zeros(7), gamma=np.ones(7))
        with pytest.raises(ValueError):
            worst_case_01c(m, np.zeros(7), 1, 0.1, 0.3, mode="exact_small_d")


class TestBatchPgd:
    @pytest.mark.parametrize("random_start", [False, True])
    @pytest.mark.parametrize("norm", ["linf", "l2"])
    def test_matches_single_sample_path(self, rng, norm, random_start):
        m = random_linear_model(rng, 4)
        z = rng.standard_normal((12, 4))
        y = np.where(rng.random(12) < 0.5, 1, -1)
        # steps too short to reach a corner from any start, so the start shows
        spec = AttackSpec(
            method="pgd", eps=0.2, norm=norm, steps=15, step_size=0.01, random_start=random_start, seed=5
        )
        deltas = pgd_linear_mh_batch(m, z, y, spec, P13)
        oracle = LinearMHOracle(m, P13)
        for i in range(12):
            single = pgd(oracle, z[i], int(y[i]), spec)
            assert oracle.loss(z[i] + deltas[i], int(y[i])) == pytest.approx(single.achieved_loss, abs=1e-12)

    def test_feasible(self, rng):
        m = random_linear_model(rng, 3)
        z = rng.standard_normal((8, 3))
        y = np.ones(8)
        deltas = pgd_linear_mh_batch(m, z, y, AttackSpec(method="pgd", eps=0.05), P13)
        assert np.max(np.abs(deltas)) <= 0.05 + 1e-12
