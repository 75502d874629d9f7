import numpy as np
import pytest

from advreject.attacks import (
    AttackSpec,
    LinearMHOracle,
    accepted_error_delta,
    fgsm,
    linear_mh_value_grad,
    pgd,
    pgd_linear_mh_batch,
)
from advreject.data import Dataset
from advreject.evaluate import RejectConfusion, _attack_and_score, _candidate_deltas, evaluate_model
from advreject.losses import SurrogateParams, adv_loss_mh_linear, loss_01c
from advreject.model import RejectionModel
from conftest import random_linear_model
from oracles import box_max_01c, box_max_01c_vertices, central_difference

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


def binding_row():
    """One row (label +1, eps = 1) whose knapsack optimum delta = (-1, 0)
    lies on r = 0 with f = -1: there the model rejects, but moving halfway
    in y*f toward the max-r corner (1, 1) gives delta = (-0.8, 0.1),
    f = -0.5 and r = 0.3, an accepted error."""
    m = RejectionModel(theta=np.array([1.0, 1.0]), gamma=np.array([2.0, 1.0]), bias_theta=1.0, bias_gamma=1.0)
    return m, Dataset(np.zeros((1, 2)), np.array([1]))


def attacked_losses(m, z, y, eps, params=P13):
    """Per-row zero-one-c loss of evaluate_model under analytic_linear."""
    spec = AttackSpec(method="analytic_linear", eps=eps)
    return [evaluate_model(m, Dataset(z[i : i + 1], y[i : i + 1]), spec, params).mean_loss_01c for i in range(len(y))]


class TestAnalyticCandidates:
    """The analytic_linear candidates: shift_reject, the minimum-r corner,
    and shift_margin, the exact accepted-error point."""

    def test_frozen_deltas(self):
        m, ds = binding_row()
        deltas = _candidate_deltas(m, ds.x, ds.y.astype(float), AttackSpec(method="analytic_linear", eps=1.0), P13)
        assert list(deltas) == ["clean", "shift_reject", "shift_margin"]
        assert np.allclose(deltas["shift_reject"], [[-1.0, -1.0]])
        assert np.allclose(deltas["shift_margin"], [[-0.8, 0.1]], rtol=0.0, atol=1e-15)

    def test_margin_candidate_attains_closed_form(self, rng):
        # a slack rejector budget leaves the knapsack start -eps*sgn(y*gamma),
        # whose y*f = y*f0 - eps*||gamma||_1; a negative optimum is then
        # halved, or replaced by the max-r corner's y*f where that is lower
        for _ in range(50):
            m = random_linear_model(rng, 4)
            m.bias_theta = 50.0
            z = rng.standard_normal((8, 4))
            y = np.where(rng.random(8) < 0.5, 1.0, -1.0)
            eps = 0.5
            f0, _ = m.scores_features(z)
            opt = y * f0 - eps * np.abs(m.gamma).sum()
            at_corner = y * (f0 + eps * np.sign(m.theta) @ m.gamma)
            want = np.where(opt < 0, np.minimum(opt / 2, at_corner), opt)
            f, _ = m.scores_features(z + accepted_error_delta(m, z, y, eps))
            assert np.allclose(y * f, want, rtol=0.0, atol=1e-12)

    def test_reject_candidate_attains_min_r(self, rng):
        for _ in range(50):
            m = random_linear_model(rng, 4)
            z = rng.standard_normal((3, 4))
            deltas = _candidate_deltas(m, z, np.ones(3), AttackSpec(method="analytic_linear", eps=0.15), P13)
            _, r = m.scores_features(z + deltas["shift_reject"])
            _, r0 = m.scores_features(z)
            assert np.allclose(r, r0 - 0.15 * np.abs(m.theta).sum(), rtol=0.0, atol=1e-12)

    def test_eps_zero(self, rng):
        m = random_linear_model(rng, 3)
        z = rng.standard_normal((5, 3))
        y = np.where(rng.random(5) < 0.5, 1.0, -1.0)
        assert np.array_equal(accepted_error_delta(m, z, y, 0.0), np.zeros((5, 3)))
        assert list(_candidate_deltas(m, z, y, AttackSpec(method="analytic_linear", eps=0.0), P13)) == ["clean"]

    def test_achieved_loss_is_01c(self, rng):
        m = random_linear_model(rng, 3)
        z = rng.standard_normal((20, 3))
        y = np.where(rng.random(20) < 0.5, 1.0, -1.0)
        spec = AttackSpec(method="analytic_linear", eps=0.3)
        losses = _attack_and_score(m, z, y, spec, P13)[4]
        for k, delta in enumerate(_candidate_deltas(m, z, y, spec, P13).values()):
            f, r = m.scores_features(z + delta)
            assert np.array_equal(losses[k], loss_01c(f, r, y, P13.cost))


class TestWorstCase01c:
    """analytic_linear's attacked zero-one-c loss is the exact worst case
    over the feature-space linf box."""

    def test_reject_everything_model(self):
        m = RejectionModel(theta=np.array([0.0, 0.0]), gamma=np.array([1.0, 0.0]), bias_theta=-50.0)
        assert attacked_losses(m, np.array([[0.2, 0.1]]), np.array([1]), 0.1) == [pytest.approx(0.3)]

    def test_wide_margins_are_safe(self):
        m = RejectionModel(theta=np.array([1.0]), gamma=np.array([1.0]), bias_theta=5.0, bias_gamma=5.0)
        assert attacked_losses(m, np.array([[1.0]]), np.array([1]), 0.1) == [0.0]

    def test_matches_vertex_oracle(self, rng):
        rows = 0
        for _ in range(240):
            d = int(rng.integers(1, 7))
            m = random_linear_model(rng, d)
            z = rng.standard_normal((4, d))
            y = np.array([1, -1, 1, -1])
            for eps in (0.05, 0.3, 1.0):
                got = attacked_losses(m, z, y, eps)
                for i in range(4):
                    want = box_max_01c_vertices(m, z[i], y[i], eps, P13.cost)
                    assert got[i] == want, (d, eps, i)
                    if d <= 3:
                        assert got[i] >= box_max_01c(m, z[i], y[i], eps, P13.cost, grid_points=5)
                    rows += 1
        assert rows >= 200 * 3 * 4

    def test_dominates_independent_grid(self, rng):
        # the grid is a subset of the box, so it can only fall short of the
        # exact value, and it reaches it on most rows
        hits = 0
        for _ in range(30):
            d = int(rng.integers(1, 4))
            m = random_linear_model(rng, d)
            x = rng.standard_normal((1, d))
            y = np.array([1 if rng.random() < 0.5 else -1])
            grid = box_max_01c(m, x[0], y[0], 0.3, 0.25)
            exact = attacked_losses(m, x, y, 0.3, SurrogateParams(cost=0.25))[0]
            assert exact == box_max_01c_vertices(m, x[0], y[0], 0.3, 0.25)
            assert grid <= exact
            hits += grid == exact
        assert hits >= 20

    def test_dominates_clean(self, rng):
        for _ in range(50):
            m = random_linear_model(rng, 3)
            x = rng.standard_normal((1, 3))
            y = np.array([1 if rng.random() < 0.5 else -1])
            f, r = m.scores_features(x)
            clean = loss_01c(float(f[0]), float(r[0]), y[0], 0.3)
            assert attacked_losses(m, x, y, 0.1)[0] >= clean

    def test_binding_row_counts_as_false_accept(self):
        m, ds = binding_row()
        rep = evaluate_model(m, ds, AttackSpec(method="analytic_linear", eps=1.0), P13)
        assert rep.counts == RejectConfusion(ta=0, tr=0, fa=1, fr=0)
        assert rep.candidate_wins == {"clean": 0, "shift_reject": 0, "shift_margin": 1}
        assert rep.mean_loss_01c == 1.0


class TestLinearMhValueGrad:
    P = SurrogateParams(alpha=2.0, beta=1.5, cost=0.3)

    def rows(self, rng):
        m = random_linear_model(rng, 4)
        z = 3.0 * rng.standard_normal((400, 4))
        y = np.where(rng.random(400) < 0.5, 1.0, -1.0)
        return m, z, y

    def test_rows_match_branch_formulas(self, rng):
        m, z, y = self.rows(rng)
        value, grad = linear_mh_value_grad(m, z, y, self.P)
        al, be, c = self.P.alpha, self.P.beta, self.P.cost
        seen = set()
        for zi, yi, vi, gi in zip(z, y, value, grad):
            f = float(zi @ m.gamma) + m.bias_gamma
            r = float(zi @ m.theta) + m.bias_theta
            a = 1.0 + 0.5 * al * (r - yi * f)
            b = c * (1.0 - be * r)
            if a >= b and a > 0:
                state, want = "A", 0.5 * al * (m.theta - yi * m.gamma)
            elif b > a and b > 0:
                state, want = "B", -c * be * m.theta
            else:
                state, want = "inactive", np.zeros(4)
            seen.add((yi, state))
            assert vi == pytest.approx(max(a, b, 0.0), abs=1e-12)
            assert np.array_equal(gi, want), (yi, state)
        assert len(seen) == 6  # both labels in each branch state

    def test_rows_match_central_differences_away_from_kinks(self, rng):
        m, z, y = self.rows(rng)
        _, grad = linear_mh_value_grad(m, z, y, self.P)
        f, r = m.scores_features(z)
        a = 1.0 + 0.5 * self.P.alpha * (r - y * f)
        b = self.P.cost * (1.0 - self.P.beta * r)
        away = (np.abs(a - b) > 1e-3) & (np.abs(a) > 1e-3) & (np.abs(b) > 1e-3)
        assert away.sum() > 300
        for i in np.flatnonzero(away):
            num = central_difference(
                lambda zi: float(linear_mh_value_grad(m, zi, y[i], self.P, grad=False)[0]), z[i].copy()
            )
            assert np.allclose(grad[i], num, rtol=0.0, atol=1e-6)


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
