import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from advreject.losses import (
    SurrogateParams,
    adv_loss_mh_linear,
    adv_loss_mh_linear_batch,
    adv_terms_linear,
    loss_01c,
    loss_mh,
    mh_branches,
    surrogate_conv,
)
from advreject.model import RejectionModel
from advreject.neural import _head_grads
from conftest import random_linear_model
from oracles import LinearMHOracle, box_max_mh

P13 = SurrogateParams(1.0, 1.0, 0.3)

finite = st.floats(-50, 50, allow_nan=False)


class TestLoss01c:
    def test_correct_accepted(self):
        assert loss_01c(2, 1, 1, 0.3) == 0.0

    def test_rejected(self):
        assert loss_01c(2, -1, 1, 0.3) == 0.3

    def test_accepted_wrong(self):
        assert loss_01c(-2, 1, 1, 0.3) == 1.0

    def test_overlap_at_zero(self):
        # no overlap on the boundaries: r = 0 rejects (c only, even with a
        # wrong label) and f = 0 answers +1
        assert loss_01c(-1, 0, 1, 0.3) == 0.3
        assert loss_01c(0, 1, 1, 0.3) == 0.0
        assert loss_01c(0, 1, -1, 0.3) == 1.0
        assert loss_01c(0, 0, -1, 0.3) == 0.3

    def test_cost_range(self):
        with pytest.raises(ValueError):
            loss_01c(1, 1, 1, 0.6)
        with pytest.raises(ValueError):
            loss_01c(1, 1, 1, 0.0)

    def test_vectorized(self):
        out = loss_01c(np.array([2.0, -2.0]), np.array([1.0, 1.0]), np.array([1, 1]), 0.3)
        assert np.array_equal(out, [0.0, 1.0])


class TestLossMh:
    def test_zero_point(self):
        assert loss_mh(0, 0, 1, P13) == 1.0

    def test_rejection_branch(self):
        assert loss_mh(4, -3, 1, P13) == pytest.approx(1.2)

    def test_floor(self):
        assert loss_mh(10, 10, 1, P13) == 1.0  # a = 1 + (10-10)/2, b < 0

    def test_large_margins_zero(self):
        assert loss_mh(10, 2, 1, P13) == 0.0

    def test_tie_rule(self):
        # (f, r) with y = +1 at A == B == 0.25, at A == B == 0 and at A, B < 0;
        # every value below is exact in binary floating point
        p = SurrogateParams(1.0, 1.0, 0.25)
        f, r = np.array([1.5, 3.0, 6.0]), np.array([0.0, 1.0, 2.0])
        mh = mh_branches(r - f, r, p)
        assert mh.a.tolist() == [0.25, 0.0, -1.0] and mh.b.tolist() == [0.25, 0.0, -0.25]
        assert mh.use_a.tolist() == [True, False, False]
        assert mh.use_b.tolist() == [False, False, False]
        assert loss_mh(f, r, 1, p).tolist() == [0.25, 0.0, 0.0]
        # f = z @ gamma and r = z @ theta give the same three points
        oracle = LinearMHOracle(RejectionModel(theta=np.array([0.0, 1.0]), gamma=np.array([1.5, 0.0])), p)
        assert oracle.grad(np.array([1.0, 0.0]), 1).tolist() == [-0.75, 0.5]  # (alpha/2)(theta - gamma)
        assert oracle.grad(np.array([2.0, 1.0]), 1).tolist() == [0.0, 0.0]
        assert oracle.grad(np.array([4.0, 2.0]), 1).tolist() == [0.0, 0.0]
        sq, df, dr = _head_grads(f, r, np.ones(3), p)
        assert sq.tolist() == [0.0625, 0.0, 0.0]
        assert df.tolist() == [-0.25, 0.0, 0.0] and dr.tolist() == [0.25, 0.0, 0.0]  # 2m * dA/df, dA/dr


class TestSurrogateConv:
    def test_hinge_hinge_example(self):
        assert surrogate_conv(0, 0, 1, P13) == pytest.approx(1.3)

    def test_inactive(self):
        assert surrogate_conv(100, 50, 1, P13) == 0.0

    def test_sum_dominates_max(self, rng):
        for _ in range(500):
            f, r = rng.standard_normal(2) * 3
            y = 1 if rng.random() < 0.5 else -1
            assert surrogate_conv(f, r, y, P13) >= loss_mh(f, r, y, P13) - 1e-15

    def test_catalog(self):
        v = surrogate_conv(0, 0, 1, P13, phi="squared_hinge", psi="squared_hinge")
        assert v == pytest.approx(1.0 + 0.3)
        with pytest.raises(ValueError):
            surrogate_conv(0, 0, 1, P13, phi="logistic")


class TestDominance:
    def test_seeded_draws(self):
        r = np.random.default_rng(99)
        n = 100_000
        f = 6 * r.standard_normal(n)
        rr = 6 * r.standard_normal(n)
        y = np.where(r.random(n) < 0.5, 1, -1)
        alpha = r.uniform(0.1, 5)
        beta = r.uniform(0.1, 5)
        cost = r.uniform(0.05, 0.45)
        p = SurrogateParams(alpha, beta, cost)
        l01 = loss_01c(f, rr, y, cost)
        assert np.all(loss_mh(f, rr, y, p) >= l01)
        assert np.all(surrogate_conv(f, rr, y, p) >= l01)

    @given(finite, finite, st.sampled_from([-1, 1]),
           st.floats(0.1, 4), st.floats(0.1, 4), st.floats(0.01, 0.49))
    @settings(max_examples=300, deadline=None)
    def test_property(self, f, r, y, alpha, beta, cost):
        p = SurrogateParams(alpha, beta, cost)
        l01 = loss_01c(f, r, y, cost)
        assert loss_mh(f, r, y, p) >= l01
        assert surrogate_conv(f, r, y, p) >= l01


class TestAdvTermsLinear:
    def setup_method(self):
        self.m = RejectionModel(theta=np.array([1.0, -1.0]), gamma=np.array([2.0, 0.0]))
        self.x = np.array([1.0, 1.0])

    def test_frozen_example(self):
        t = adv_terms_linear(self.m, self.x, 1, 0.1, P13)
        assert t.a_tilde == pytest.approx(0.1)
        assert t.b_tilde == pytest.approx(0.36)

    def test_example_matches_bruteforce(self):
        got = adv_loss_mh_linear(self.m, self.x, 1, 0.1, P13)
        want = box_max_mh(self.m, self.x, 1, 0.1, P13)
        assert got == pytest.approx(want, abs=1e-9)
        assert got == pytest.approx(0.36)

    def test_eps_zero_reduces_to_clean(self):
        t = adv_terms_linear(self.m, self.x, 1, 0.0, P13)
        f, r = self.m.scores_features(self.x)
        assert t.a_tilde == 1.0 + 0.5 * (r - f)
        assert t.b_tilde == 0.3 * (1.0 - r)

    def test_negative_label(self):
        t = adv_terms_linear(self.m, self.x, -1, 0.1, P13)
        assert t.a_tilde == pytest.approx(2.2)
        got = adv_loss_mh_linear(self.m, self.x, -1, 0.1, P13)
        assert got == pytest.approx(box_max_mh(self.m, self.x, -1, 0.1, P13), abs=1e-9)

    def test_negative_eps_rejected(self):
        with pytest.raises(ValueError):
            adv_terms_linear(self.m, self.x, 1, -0.1, P13)

    def test_bias_not_perturbable(self, rng):
        # adding biases shifts scores but never the l1 attack terms
        m0 = random_linear_model(rng, 3, bias=False)
        m1 = RejectionModel(theta=m0.theta, gamma=m0.gamma, bias_theta=0.7, bias_gamma=-0.4)
        x = rng.standard_normal(3)
        t0 = adv_terms_linear(m0, x, 1, 0.5, P13)
        t1 = adv_terms_linear(m1, x, 1, 0.5, P13)
        f0, r0 = m0.scores_features(x)
        f1, r1 = m1.scores_features(x)
        assert t1.a_tilde - t0.a_tilde == pytest.approx(0.5 * ((r1 - f1) - (r0 - f0)))
        assert t1.b_tilde - t0.b_tilde == pytest.approx(0.3 * (-(r1 - r0)))


class TestClosedFormAgainstBruteForce:
    def test_random_models(self, rng):
        # quick version; the acceptance suite runs the full 1000-model sweep
        for _ in range(200):
            d = int(rng.integers(1, 7))
            m = random_linear_model(rng, d, scale=2.0)
            x = rng.standard_normal(d)
            y = 1 if rng.random() < 0.5 else -1
            eps = float(rng.choice([0.01, 0.1, 1.0]))
            p = SurrogateParams(rng.uniform(0.5, 3), rng.uniform(0.5, 3), rng.uniform(0.05, 0.45))
            got = adv_loss_mh_linear(m, x, y, eps, p)
            want = box_max_mh(m, x, y, eps, p, grid_max_d=3)
            assert got == pytest.approx(want, abs=1e-6)

    def test_batch_matches_scalar(self, rng):
        m = random_linear_model(rng, 5)
        z = rng.standard_normal((40, 5))
        y = np.where(rng.random(40) < 0.5, 1, -1)
        batch = adv_loss_mh_linear_batch(m, z, y, 0.2, P13)
        singles = [adv_loss_mh_linear(m, z[i], int(y[i]), 0.2, P13) for i in range(40)]
        assert np.allclose(batch, singles, atol=1e-14)


class TestMonotonicityInEps:
    @given(st.integers(0, 10**6), st.floats(0, 1), st.floats(0, 1))
    @settings(max_examples=100, deadline=None)
    def test_nondecreasing(self, seed, e1, e2):
        lo, hi = sorted((e1, e2))
        r = np.random.default_rng(seed)
        m = random_linear_model(r, 4)
        x = r.standard_normal(4)
        y = 1 if r.random() < 0.5 else -1
        assert adv_loss_mh_linear(m, x, y, lo, P13) <= adv_loss_mh_linear(m, x, y, hi, P13) + 1e-12

    def test_eps_zero_identity_exact(self, rng):
        for _ in range(100):
            m = random_linear_model(rng, 3)
            x = rng.standard_normal(3)
            y = 1 if rng.random() < 0.5 else -1
            f, r = m.scores_features(x)
            assert adv_loss_mh_linear(m, x, y, 0.0, P13) == loss_mh(float(f), float(r), y, P13)
