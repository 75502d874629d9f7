import math

import numpy as np
import pytest

from advreject import attacks
from advreject.attacks import AttackSpec, accepted_error_delta, linear_mh, pgd, pgd_linear_mh_batch
from advreject.data import Dataset
from advreject.evaluate import RejectConfusion, _candidate_deltas, evaluate_model
from advreject.losses import SurrogateParams, adv_loss_mh_linear_batch, loss_01c, pm1_labels
from advreject.model import FeatureMap, RejectionModel
from conftest import random_linear_model, traced_peak
from oracles import (
    accepted_error_delta_dense,
    box_max_01c,
    box_max_01c_vertices,
    central_difference,
    dense_step,
    linear_mh_dense,
    pgd_full,
)

P13 = SurrogateParams(1.0, 1.0, 0.3)


def mh_value(m, z, y):
    """MH loss of a linear model at the rows of z."""
    return linear_mh(m, y, P13)(z, False)[0]


def one_row(rng, d):
    """A random linear model, one feature row and its label."""
    return random_linear_model(rng, d), rng.standard_normal((1, d)), np.array([1.0 if rng.random() < 0.5 else -1.0])


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
    """The fgsm candidate of evaluate: one sign step along the MH gradient."""

    @staticmethod
    def fgsm_delta(m, z, y, eps):
        return _candidate_deltas(m, z, y, AttackSpec(method="fgsm", eps=eps), P13)["fgsm"]

    def test_hand_derived_hinge_gradient(self):
        # branch A active at the origin (A = 1, B = 0.3): grad = (alpha/2)(theta - gamma) = (3, -1)
        m = RejectionModel(theta=np.array([1.0, 1.0]), gamma=np.array([-5.0, 3.0]))
        assert np.array_equal(self.fgsm_delta(m, np.zeros((1, 2)), np.ones(1), 0.25), [[0.25, -0.25]])

    def test_eps_zero(self):
        m = RejectionModel(theta=np.array([1.0, 1.0]), gamma=np.array([-5.0, 3.0]))
        deltas = _candidate_deltas(m, np.zeros((1, 2)), np.ones(1), AttackSpec(method="fgsm", eps=0.0), P13)
        assert list(deltas) == ["clean"] and np.array_equal(deltas["clean"], [[0.0, 0.0]])

    def test_inactive_hinge_zero_gradient(self):
        # f = 20, r = 10: A = -4 and B = -2.7, so no branch has a gradient
        m = RejectionModel(theta=np.array([1.0, 0.0]), gamma=np.array([2.0, 0.0]))
        assert np.array_equal(self.fgsm_delta(m, np.array([[10.0, 0.0]]), np.ones(1), 0.5), [[0.0, 0.0]])


class TestPgd:
    def test_eps_zero_returns_clean(self, rng):
        m, z, y = one_row(rng, 2)
        delta = pgd(lambda zd, grad: linear_mh_dense(m, zd, y, P13, grad), z, AttackSpec(method="pgd", eps=0.0))
        assert np.array_equal(delta, [[0.0, 0.0]])
        assert mh_value(m, z + delta, y) == mh_value(m, z, y)

    def test_achieves_at_least_clean(self, rng):
        for _ in range(30):
            m, z, y = one_row(rng, 3)
            delta = pgd_linear_mh_batch(m, z, y, AttackSpec(method="pgd", eps=0.2, steps=10), P13)
            assert mh_value(m, z + delta, y)[0] >= mh_value(m, z, y)[0] - 1e-15

    def test_never_exceeds_closed_form(self, rng):
        # the closed form is the true max; PGD must stay at or below it
        reached = 0
        for _ in range(50):
            m, z, y = one_row(rng, 4)
            delta = pgd_linear_mh_batch(m, z, y, AttackSpec(method="pgd", eps=0.3, steps=25), P13)
            achieved = mh_value(m, z + delta, y)[0]
            exact = adv_loss_mh_linear_batch(m, z, y, 0.3, P13)[0]
            assert achieved <= exact + 1e-9
            if achieved >= exact - 1e-6:
                reached += 1
        # heuristic lower direction: reported, not asserted
        print(f"\npgd reached the closed-form max on {reached}/50 instances")

    def test_feasibility(self, rng):
        m, z, _ = one_row(rng, 5)
        for norm in ("linf", "l2"):
            spec = AttackSpec(method="pgd", eps=0.4, norm=norm, steps=15)
            delta = pgd_linear_mh_batch(m, z, np.ones(1), spec, P13)
            if norm == "linf":
                assert np.max(np.abs(delta)) <= 0.4 + 1e-12
            else:
                assert np.linalg.norm(delta) <= 0.4 + 1e-12


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
        rep = evaluate_model(m, Dataset(z, y), spec, P13)
        losses = []
        for delta in _candidate_deltas(m, z, y, spec, P13).values():
            f, r = m.scores_features(z + delta)
            losses.append(loss_01c(f, r, y, P13.cost))
        assert np.array_equal(rep.clean_loss, losses[0])
        assert np.array_equal(rep.worst_loss, np.max(losses, axis=0))
        assert np.array_equal(rep.winner, np.argmax(losses, axis=0))
        assert list(rep.candidate_wins) == ["clean", "shift_reject", "shift_margin"]


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
        value, (table, index) = linear_mh(m, y, self.P)(z, True)
        assert table.shape == (4, 4) and index.shape == (400,)
        grad = table[index]
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
        table, index = linear_mh(m, y, self.P)(z, True)[1]
        grad = table[index]
        f, r = m.scores_features(z)
        a = 1.0 + 0.5 * self.P.alpha * (r - y * f)
        b = self.P.cost * (1.0 - self.P.beta * r)
        away = (np.abs(a - b) > 1e-3) & (np.abs(a) > 1e-3) & (np.abs(b) > 1e-3)
        assert away.sum() > 300
        for i in np.flatnonzero(away):
            num = central_difference(
                lambda zi: float(linear_mh(m, y[i], self.P)(zi, False)[0]), z[i].copy()
            )
            assert np.allclose(grad[i], num, rtol=0.0, atol=1e-6)


class TestBatchPgd:
    @pytest.mark.parametrize("norm", ["linf", "l2"])
    def test_matches_single_sample_path(self, rng, norm):
        # each row of a batch gets the attack it gets as a batch of one row
        m = random_linear_model(rng, 4)
        z = rng.standard_normal((12, 4))
        y = np.where(rng.random(12) < 0.5, 1.0, -1.0)
        # steps too short to reach a corner, so every row's whole path shows
        spec = AttackSpec(method="pgd", eps=0.2, norm=norm, steps=15, step_size=0.01)
        deltas = pgd_linear_mh_batch(m, z, y, spec, P13)
        for i in range(12):
            single = pgd_linear_mh_batch(m, z[i : i + 1], y[i : i + 1], spec, P13)
            want = mh_value(m, z[i : i + 1] + single, y[i : i + 1])[0]
            assert mh_value(m, z[i] + deltas[i], y[i]) == pytest.approx(want, abs=1e-12)

    def test_feasible(self, rng):
        m = random_linear_model(rng, 3)
        z = rng.standard_normal((8, 3))
        y = np.ones(8)
        deltas = pgd_linear_mh_batch(m, z, y, AttackSpec(method="pgd", eps=0.05), P13)
        assert np.max(np.abs(deltas)) <= 0.05 + 1e-12


class CountingObjective:
    """value_grad that counts its calls and records every gradient it
    returns."""

    def __init__(self, value_grad):
        self.value_grad = value_grad
        self.grads = []

    def __call__(self, points, grad):
        value, g = self.value_grad(points, grad)
        self.grads.append(g)
        return value, g

    @property
    def calls(self):
        return len(self.grads)


# Two step sizes for 20 PGD steps: "auto" (eps/sqrt(20)) takes a sign step to
# a box corner after 5 steps, where the delta-table walk stops; "short"
# (eps/40) covers half the radius in 20 steps, so most rows move on every step.
STEPS = ["auto", "short"]


def step_size(step, eps):
    return "auto" if step == "auto" else eps / 40


class TestPgdEarlyExit:
    """pgd_linear_mh_batch stops at its first fixed point, and its result is
    the one of the full-length loop bit for bit; pgd runs every step."""

    @staticmethod
    def linear_problem(rng, features):
        x = rng.standard_normal((30, 3))
        y = np.where(rng.random(30) < 0.5, 1.0, -1.0)
        if features == "identity":
            return random_linear_model(rng, 3), x, y
        fm = FeatureMap("random_fourier", dim=16, sigma=1.5, seed=int(rng.integers(0, 2**31)))
        m = RejectionModel(theta=rng.standard_normal(16), gamma=rng.standard_normal(16),
                           bias_theta=0.1, bias_gamma=-0.2, feature_map=fm)
        return m, m.featurize(x), y

    @pytest.mark.parametrize("eps", [1e-9, 0.01, 0.2, 1.0])  # 1e-9: steps far below np.allclose's tolerances
    @pytest.mark.parametrize("step", STEPS)
    @pytest.mark.parametrize("norm", ["linf", "l2"])
    @pytest.mark.parametrize("features", ["identity", "random_fourier"])
    def test_matches_full_length_loop(self, rng, features, norm, step, eps):
        for _ in range(3):
            m, z, y = self.linear_problem(rng, features)
            spec = AttackSpec(method="pgd", eps=eps, norm=norm, steps=20, step_size=step_size(step, eps))
            full = pgd_full(lambda zd, grad: linear_mh_dense(m, zd, y, P13, grad), z, spec)
            assert np.array_equal(pgd_linear_mh_batch(m, z, y, spec, P13), full)

    @pytest.mark.parametrize("steps", [10, 20, 50])
    def test_linf_stops_at_the_corner(self, monkeypatch, steps):
        # every row deep in the classification branch, which it keeps over
        # the box: each gradient is fixed, so sign steps reach the corner in
        # ceil(sqrt(steps)) steps and the next step moves nothing
        m = RejectionModel(theta=np.array([0.5, -1.0, 2.0]), gamma=np.array([1.0, 0.5, -0.25]))
        z = np.array([[-3.0, 0.2, 0.1], [4.0, -1.0, 0.3], [-2.5, 1.0, -0.4]])
        y = np.array([1.0, -1.0, 1.0])
        spec = AttackSpec(method="pgd", eps=0.05, steps=steps)
        objective = CountingObjective(lambda zd, grad: linear_mh_dense(m, zd, y, P13, grad))
        deltas = pgd(objective, z, spec)
        assert all(np.array_equal(g, objective.grads[0]) for g in objective.grads[:-1])
        assert np.array_equal(deltas, 0.05 * np.sign(objective.grads[0]))
        # the delta-table walk stops there, with the bytes of the dense loop's every step
        build, walks = attacks.linear_mh, []

        def counting_build(*args):
            walks.append(CountingObjective(build(*args)))
            return walks[-1]

        monkeypatch.setattr(attacks, "linear_mh", counting_build)
        assert pgd_linear_mh_batch(m, z, y, spec, P13).tobytes() == deltas.tobytes()
        assert walks[0].calls == math.ceil(math.sqrt(steps)) + 1 < objective.calls == steps + 1

    @pytest.mark.parametrize("norm", ["linf", "l2"])
    @pytest.mark.parametrize("gradient", ["fixed", "zero", "flipping"])
    def test_dense_loop_runs_every_step(self, gradient, norm):
        # a fixed gradient reaches a fixed point after ceil(sqrt(20)) linf
        # steps, a zero one leaves every row at the start, and one whose sign
        # flips on every call never rests; pgd runs all 20 steps in each case
        w, calls = np.array([1.0, -2.0, 0.5]), []

        def value_grad(xd, grad):
            calls.append(grad)
            sign = {"fixed": 1.0, "zero": 0.0, "flipping": 1.0 - 2.0 * (len(calls) % 2)}[gradient]
            return xd @ w, sign * np.broadcast_to(w, xd.shape) if grad else None

        x = np.random.default_rng(3).standard_normal((5, 3))
        spec = AttackSpec(method="pgd", eps=0.3, norm=norm, steps=20)
        deltas = pgd(value_grad, x, spec)
        assert calls == [True] * spec.steps + [False]
        calls.clear()
        assert deltas.tobytes() == pgd_full(value_grad, x, spec).tobytes()


class TestDeltaTable:
    """pgd_linear_mh_batch carries its iterate as a table of distinct
    deltas and each row's history into it, and gives the bytes of pgd on
    the same objective with dense gradients. Both loops leave x as it is,
    and the memory of a call does not grow with its steps."""

    @pytest.mark.parametrize("norm", ["linf", "l2"])
    def test_walk_gives_the_bytes_of_the_dense_loop(self, rng, monkeypatch, norm):
        # with gamma = 1.2*theta on the first coordinate, A's ascent
        # direction raises B faster than A, so a label +1 row in branch A
        # moves into B after a number of steps set by its distance to the
        # A = B boundary; the rows are spread over that distance
        m = RejectionModel(theta=np.array([1.0, 0.1, -0.2]), gamma=np.array([1.2, 0.05, -0.1]))
        spec = AttackSpec(method="pgd", eps=10.0, norm=norm, steps=20, step_size=0.25)
        z = rng.standard_normal((60, 3))
        z[:, 0] = rng.uniform(-3.4, 1.0, 60)
        y = np.where(rng.random(60) < 0.7, 1.0, -1.0)
        build, indices = attacks.linear_mh, []

        def recording_build(*args):
            value_grad = build(*args)

            def recording(points, grad):
                value, g = value_grad(points, grad)
                if g is not None:
                    indices.append(g[1])
                return value, g

            return recording

        monkeypatch.setattr(attacks, "linear_mh", recording_build)
        got = pgd_linear_mh_batch(m, z, y, spec, P13)
        assert got.tobytes() == pgd(lambda zd, grad: linear_mh_dense(m, zd, y, P13, grad), z, spec).tobytes()
        # a row's history is the gradient rows of the steps it took; the
        # last gradient may have set no step, so it is left out
        histories = np.unique(np.stack(indices[:-1], axis=1), axis=0)
        assert len(histories) > 4

    @pytest.mark.parametrize("norm", ["linf", "l2"])
    def test_leaves_x_unchanged(self, rng, norm):
        m = random_linear_model(rng, 4)
        z = rng.standard_normal((30, 4))
        y = np.where(rng.random(30) < 0.5, 1.0, -1.0)
        before = z.copy()
        spec = AttackSpec(method="pgd", eps=0.3, norm=norm, steps=10)
        pgd(lambda zd, grad: linear_mh_dense(m, zd, y, P13, grad), z, spec)
        assert z.tobytes() == before.tobytes()
        pgd_linear_mh_batch(m, z, y, spec, P13)
        assert z.tobytes() == before.tobytes()

    def test_memory_does_not_grow_with_steps(self, rng):
        # steps of 1e-3 in a ball of radius 1 reach no fixed point, so every call runs all its steps
        m = random_linear_model(rng, 100)
        z = 0.1 * rng.standard_normal((200, 100))
        y = np.where(rng.random(200) < 0.5, 1.0, -1.0)
        dense, walk = {}, {}
        for steps in (5, 100):
            spec = AttackSpec(method="pgd", eps=1.0, norm="l2", steps=steps, step_size=1e-3)
            calls = []

            def counting(zd, grad):
                calls.append(grad)
                return linear_mh_dense(m, zd, y, P13, grad)

            dense[steps], _ = traced_peak(pgd, counting, z, spec)
            assert len(calls) == steps + 1
            walk[steps], _ = traced_peak(pgd_linear_mh_batch, m, z, y, spec, P13)
        # no per-step history
        assert dense[100] <= dense[5] + z.nbytes // 20
        assert walk[100] <= walk[5] + z.nbytes // 20
        assert walk[100] < 3 * z.nbytes  # the points to score, the best iterate and small arrays


class TestOncePerAttack:
    """What a linear PGD step reads that depends only on the model, the
    labels and the spec is built once per attack: the branch table once per
    pgd_linear_mh_batch call, and its step rows from it. pgd, whose
    gradient may change with every call, takes its step rows from each."""

    @pytest.mark.parametrize("norm", ["linf", "l2"])
    def test_a_new_table_every_call_gives_the_full_loop_bytes(self, rng, norm):
        # each call draws its gradient rows from a fresh table of one shape
        # with new values, so step rows kept from an earlier call (as the
        # linear walk keeps its own) would step along an old gradient
        x = rng.standard_normal((40, 5))
        index = rng.integers(0, 4, 40)
        w = rng.standard_normal(5)
        calls = []

        def value_grad(points, grad):
            table = np.random.default_rng(len(calls)).standard_normal((4, 5))
            table[0] = 0.0  # no move for l2
            calls.append(table)
            return points @ w, table[index] if grad else None

        spec = AttackSpec(method="pgd", eps=0.3, norm=norm, steps=20)
        got = pgd(value_grad, x, spec)
        assert len(calls) == spec.steps + 1
        calls.clear()
        assert got.tobytes() == pgd_full(value_grad, x, spec).tobytes()

    def test_linear_objective_builds_its_table_once(self, rng, monkeypatch):
        builds, tables = [], []
        build = attacks.linear_mh

        def counting(m, y, p):
            value_grad = build(m, y, p)
            builds.append(m)

            def recording(points, grad):
                value, g = value_grad(points, grad)
                if g is not None:
                    tables.append(g[0])
                return value, g

            return recording

        monkeypatch.setattr(attacks, "linear_mh", counting)
        m = random_linear_model(rng, 6)
        z = rng.standard_normal((50, 6))
        y = np.where(rng.random(50) < 0.5, 1.0, -1.0)
        # steps of 1e-3 in a ball of radius 1 reach no fixed point, so the attack runs all its steps
        spec = AttackSpec(method="pgd", eps=1.0, norm="l2", steps=20, step_size=1e-3)
        pgd_linear_mh_batch(m, z, y, spec, P13)
        assert len(builds) == 1
        assert len(tables) == spec.steps  # the last iterate is only scored
        assert all(t is tables[0] for t in tables)
        assert not tables[0].flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            tables[0][0, 0] = 1.0


class TestReusedBuffers:
    """pgd's buffer rule: value_grad may return the same value and gradient
    arrays on every call, rewritten, because pgd copies what it keeps of
    them before its next call."""

    @pytest.mark.parametrize("norm", ["linf", "l2"])
    def test_one_reused_pair_gives_the_bytes_of_fresh_arrays(self, rng, norm):
        # a wavy objective: rows find their best iterate at different steps
        x = rng.standard_normal((30, 4))
        phase = rng.uniform(0, 2 * np.pi, (30, 4))

        def fresh(points, grad):
            return np.sin(3 * points + phase).sum(axis=1), 3 * np.cos(3 * points + phase) if grad else None

        value, gradient = np.empty(30), np.empty((30, 4))

        def reused(points, grad):
            v, g = fresh(points, grad)
            value[...] = v
            if g is None:
                return value, None
            gradient[...] = g
            return value, gradient

        spec = AttackSpec(method="pgd", eps=0.5, norm=norm, steps=20)
        want = pgd(fresh, x, spec)
        assert pgd(reused, x, spec).tobytes() == want.tobytes()
        assert want.tobytes() == pgd_full(fresh, x, spec).tobytes()


class TestLabelCheck:
    """The linear attacks and the linear worst case pick per-label table
    rows by the sign of y, so a label other than +-1 is an error."""

    m = RejectionModel(theta=np.array([1.0, -1.0]), gamma=np.array([2.0, 0.0]))
    z = np.array([[1.0, 1.0]])

    def entry_points(self, y):
        spec = AttackSpec(method="pgd", eps=0.1)
        yield lambda: adv_loss_mh_linear_batch(self.m, self.z[0], y, 0.1, P13)
        yield lambda: adv_loss_mh_linear_batch(self.m, self.z, np.array([y]), 0.1, P13)
        yield lambda: linear_mh(self.m, np.array([y]), P13)(self.z, True)
        yield lambda: linear_mh(self.m, y, P13)(self.z[0], False)
        yield lambda: accepted_error_delta(self.m, self.z, np.array([y]), 0.1)
        yield lambda: pgd_linear_mh_batch(self.m, self.z, np.array([y]), spec, P13)

    @pytest.mark.parametrize("y", [0, 7])
    def test_bad_label_is_named(self, y):
        for call in self.entry_points(y):
            with pytest.raises(ValueError, match=f"labels must be \\+1 or -1, got {y}$"):
                call()

    def test_good_labels_pass(self):
        for y in (1, -1):
            for call in self.entry_points(y):
                call()
        # the worst case of the example: A~ is 0.36 for y = +1 and 2.2 for y = -1
        got = adv_loss_mh_linear_batch(self.m, np.vstack([self.z, self.z]), np.array([1, -1]), 0.1, P13)
        assert np.allclose(got, [0.36, 2.2], rtol=0.0, atol=1e-12)

    def test_checked_once_per_pgd_call(self, monkeypatch):
        checks = []

        def counting(y):
            checks.append(y)
            return pm1_labels(y)

        monkeypatch.setattr(attacks, "pm1_labels", counting)
        spec = AttackSpec(method="pgd", eps=0.1, norm="l2", steps=20, step_size=0.001)
        pgd_linear_mh_batch(self.m, self.z, np.ones(1), spec, P13)
        assert len(checks) == 1


class TestTablesMatchDense:
    """The attacks that read per-branch and per-label tables give the bytes
    of the same attacks written with one n x D array per quantity."""

    @staticmethod
    def problem(rng, kind):
        """A model, feature rows and labels. The rows mix both labels with
        every MH branch, inactive hinges included; theta = 0 makes the B
        branch's gradient 0, so l2 steps hit their no-move rule there."""
        n, d = 40, 4
        x = 3.0 * rng.standard_normal((n, d))
        y = np.where(rng.random(n) < 0.5, 1.0, -1.0)
        if kind == "random_fourier":
            fm = FeatureMap("random_fourier", dim=24, sigma=1.5, seed=int(rng.integers(0, 2**31)))
            m = RejectionModel(theta=rng.standard_normal(24), gamma=3.0 * rng.standard_normal(24),
                               bias_theta=0.2, bias_gamma=-0.1, feature_map=fm)
            return m, m.featurize(x), y
        m = random_linear_model(rng, d)
        if kind == "zero_theta":
            m.theta = np.zeros(d)
            m.bias_theta = -0.5  # every row rejects; branch A or B by its margin
        return m, x, y

    KINDS = ["identity", "random_fourier", "zero_theta"]
    EPS = [1e-9, 0.01, 0.2, 1.0]

    @pytest.mark.parametrize("eps", EPS)
    @pytest.mark.parametrize("step", STEPS)
    @pytest.mark.parametrize("norm", ["linf", "l2"])
    @pytest.mark.parametrize("kind", KINDS)
    def test_pgd(self, rng, kind, norm, step, eps):
        branches = set()
        for _ in range(3):
            m, z, y = self.problem(rng, kind)
            branches.update(linear_mh(m, y, P13)(z, True)[1][1].tolist())
            spec = AttackSpec(method="pgd", eps=eps, norm=norm, steps=20, step_size=step_size(step, eps))
            full = pgd_full(lambda zd, grad: linear_mh_dense(m, zd, y, P13, grad), z, spec)
            assert pgd_linear_mh_batch(m, z, y, spec, P13).tobytes() == full.tobytes()
        assert 3 in branches and branches & {1, 2}  # B and A rows
        assert (0 in branches) == (kind != "zero_theta")  # inactive hinges, where r can be > 0

    @pytest.mark.parametrize("norm", ["linf", "l2"])
    def test_one_step_from_any_point(self, rng, norm):
        # points inside, on and outside the ball; a zero gradient moves no point
        spec = AttackSpec(method="pgd", eps=0.3, norm=norm, step_size=0.1)
        table = rng.standard_normal((4, 5))
        table[0] = 0.0
        g = table[rng.integers(0, 4, 300)]
        delta = rng.uniform(-1.0, 1.0, (300, 5)) * rng.choice([0.1, 0.3, 1.0], (300, 1))
        if norm == "l2":
            delta[::3] *= 0.3 / np.linalg.norm(delta[::3], axis=1, keepdims=True)
        rows, move = attacks._stepper(spec)
        got = move(delta, *rows(g))
        assert got.tobytes() == dense_step(spec, delta, g).tobytes()

    @pytest.mark.parametrize("eps", EPS)
    @pytest.mark.parametrize("kind", KINDS)
    def test_fgsm(self, rng, kind, eps):
        for _ in range(3):
            m, z, y = self.problem(rng, kind)
            got = _candidate_deltas(m, z, y, AttackSpec(method="fgsm", eps=eps), P13)["fgsm"]
            assert got.tobytes() == (eps * np.sign(linear_mh_dense(m, z, y, P13, True)[1])).tobytes()

    @pytest.mark.parametrize("eps", EPS)
    @pytest.mark.parametrize("kind", KINDS)
    def test_accepted_error_delta(self, rng, kind, eps):
        for _ in range(3):
            m, z, y = self.problem(rng, kind)
            got = accepted_error_delta(m, z, y, eps)
            assert got.tobytes() == accepted_error_delta_dense(m, z, y, eps).tobytes()
