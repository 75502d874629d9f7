from dataclasses import replace

import numpy as np
import pytest

from advreject.data import NormStats
from advreject.losses import verdict, worst_case_l1
from advreject.model import FeatureMap, RejectionModel, featurize
from conftest import random_linear_model


class TestFeaturize:
    def test_identity(self):
        fm = FeatureMap("identity")
        assert np.array_equal(featurize(fm, np.array([1.0, 2.0])), [1.0, 2.0])

    def test_fourier_range(self, rng):
        fm = FeatureMap("random_fourier", dim=64, sigma=1.5, seed=3)
        z = featurize(fm, rng.standard_normal((20, 5)))
        bound = np.sqrt(2.0 / 64)
        assert z.shape == (20, 64)
        assert np.all(np.abs(z) <= bound + 1e-15)

    def test_fourier_deterministic(self, rng):
        fm = FeatureMap("random_fourier", dim=32, sigma=1.0, seed=11)
        x = rng.standard_normal(4)
        assert np.array_equal(featurize(fm, x), featurize(fm, x))
        other = FeatureMap("random_fourier", dim=32, sigma=1.0, seed=12)
        assert not np.array_equal(featurize(fm, x), featurize(other, x))

    def test_bad_kind(self):
        with pytest.raises(ValueError):
            FeatureMap("poly")

    def test_bad_params(self):
        with pytest.raises(ValueError):
            FeatureMap("random_fourier", dim=0)
        with pytest.raises(ValueError):
            FeatureMap("random_fourier", dim=8, sigma=0.0)
        with pytest.raises(ValueError, match="seed must be >= 0"):
            FeatureMap("identity", seed=-1)
        with pytest.raises(ValueError, match="input_dim must be >= 0"):
            FeatureMap("random_fourier", dim=8, input_dim=-1)

    def test_integer_fields(self):
        # numpy integers pass as they are; floats and bools, Python or numpy, are refused
        assert FeatureMap("random_fourier", dim=np.int64(8), seed=np.uint32(3), input_dim=np.int32(2)).dim == 8
        for bad in (1.5, np.float64(2.0), True, np.bool_(True)):
            with pytest.raises(ValueError, match="seed must be int, got "):
                FeatureMap("identity", seed=bad)

    def test_pinned_input_dimension(self, rng):
        fm = FeatureMap("random_fourier", dim=8, sigma=1.0, seed=0, input_dim=3)
        featurize(fm, rng.standard_normal(3))
        with pytest.raises(ValueError, match="dimension"):
            featurize(fm, rng.standard_normal(4))


class TestLastFeatures:
    """RejectionModel.featurize remembers its last random-Fourier batch."""

    @staticmethod
    def rff_model(rng, dim=16):
        fm = FeatureMap("random_fourier", dim=dim, sigma=0.8, seed=4, input_dim=3)
        return RejectionModel(rng.standard_normal(dim), rng.standard_normal(dim), 0.1, -0.2, feature_map=fm)

    def test_hit_returns_the_stored_array(self, rng):
        m = self.rff_model(rng)
        x = rng.standard_normal((10, 3))
        z = m.featurize(x)
        assert np.array_equal(z, featurize(m.feature_map, x))
        assert m.featurize(x) is z
        assert m.featurize(x.copy()) is z  # equal contents, another array

    def test_input_changed_in_place_recomputes(self, rng):
        m = self.rff_model(rng)
        x = rng.standard_normal((10, 3))
        z = m.featurize(x)
        x[4, 1] += 0.5
        z2 = m.featurize(x)
        assert z2 is not z and not np.array_equal(z2, z)
        assert np.array_equal(z2, featurize(m.feature_map, x))

    def test_input_of_another_shape_recomputes(self, rng):
        m = self.rff_model(rng)
        x = rng.standard_normal((10, 3))
        m.featurize(x)
        for other in (x[:6], x[0]):
            z = m.featurize(other)
            assert z.shape == other.shape[:-1] + (16,)
            assert np.array_equal(z, featurize(m.feature_map, other))

    def test_reassigned_feature_map_recomputes(self, rng):
        m = self.rff_model(rng)
        x = rng.standard_normal((10, 3))
        z = m.featurize(x)
        m.feature_map = replace(m.feature_map, seed=5)
        z2 = m.featurize(x)
        assert not np.array_equal(z2, z)
        assert np.array_equal(z2, featurize(m.feature_map, x))
        m.feature_map = replace(m.feature_map)  # an equal map hits
        assert m.featurize(x) is z2

    def test_features_are_read_only(self, rng):
        m = self.rff_model(rng)
        x = rng.standard_normal((10, 3))
        with pytest.raises(ValueError, match="read-only"):
            m.featurize(x)[0, 0] = 1.0
        with pytest.raises(ValueError, match="read-only"):
            m.featurize(x)[1] += 1.0
        assert np.array_equal(m.featurize(x), featurize(m.feature_map, x))

    def test_identity_returns_the_input(self, rng):
        m = random_linear_model(rng, 4)
        x = rng.standard_normal((5, 4))
        assert m.featurize(x) is x and x.flags.writeable
        assert m._last_features is None

    def test_not_part_of_json_eq_or_repr(self, rng):
        m = self.rff_model(rng)
        text, shown, cold = m.to_json(), repr(m), replace(m)
        m.featurize(rng.standard_normal((10, 3)))
        assert m.to_json() == text and repr(m) == shown
        assert m == cold and cold == m

    def test_copies_start_cold(self, rng):
        m = self.rff_model(rng)
        m.featurize(rng.standard_normal((10, 3)))
        assert m._last_features is not None
        assert replace(m)._last_features is None
        assert RejectionModel.from_json(m.to_json())._last_features is None


class TestEquality:
    """Models and their stats compare by value, array fields included."""

    @staticmethod
    def model(**over):
        stats = NormStats("minmax01", lo=np.array([0.0, 0.0]), hi=np.array([2.0, 0.0]),
                          constant=np.array([False, True]))
        fields = dict(
            theta=np.array([0.5, -1.0, 2.0]), gamma=np.array([1.0, 0.0, -0.25]),
            bias_theta=0.1, bias_gamma=-0.2,
            feature_map=FeatureMap("random_fourier", dim=3, sigma=1.0, seed=7, input_dim=2),
            norm_stats=stats,
        )
        return RejectionModel(**{**fields, **over})

    def test_equal_copies_compare_equal(self):
        a, b = self.model(), self.model()
        assert a.theta is not b.theta and a.norm_stats.lo is not b.norm_stats.lo
        assert a == b and b == a and not a != b
        assert a == RejectionModel.from_json(a.to_json())

    @pytest.mark.parametrize(
        "over",
        [
            {"theta": np.array([0.5, -1.0, 2.5])},
            {"gamma": np.array([1.0, 0.0, 0.25])},
            {"theta": np.array([0.5, -1.0]), "gamma": np.array([1.0, 0.0])},
            {"bias_theta": 0.0},
            {"bias_gamma": 0.2},
            {"feature_map": FeatureMap("random_fourier", dim=3, sigma=1.0, seed=8, input_dim=2)},
            {"feature_map": FeatureMap("identity")},
            {"norm_stats": None},
            {"norm_stats": NormStats("zscore", lo=np.array([0.0, 0.0]), hi=np.array([2.0, 0.0]),
                                     constant=np.array([False, True]))},
            {"norm_stats": NormStats("minmax01", lo=np.array([0.5, 0.0]), hi=np.array([2.0, 0.0]),
                                     constant=np.array([False, True]))},
            {"norm_stats": NormStats("minmax01", lo=np.array([0.0, 0.0]), hi=np.array([4.0, 0.0]),
                                     constant=np.array([False, True]))},
            # constant follows hi == lo, so it cannot differ alone
            {"norm_stats": NormStats("minmax01", lo=np.array([0.0, 0.0]), hi=np.array([2.0, 1.0]),
                                     constant=np.array([False, False]))},
        ],
    )
    def test_a_differing_field_compares_unequal(self, over):
        a, b = self.model(), self.model(**over)
        assert a != b and b != a and not a == b

    def test_other_types_are_unequal(self):
        a = self.model()
        assert a != "model" and a.norm_stats != "stats"


class TestDecide:
    """The decision rule on a one-row batch: verdict(*m.scores(x))."""

    def setup_method(self):
        self.m = RejectionModel(theta=np.array([0.0]), gamma=np.array([1.0]))

    def test_reject_wins_regardless_of_f(self):
        m = RejectionModel(theta=np.array([0.0]), gamma=np.array([5.0]), bias_theta=-1.0)
        assert verdict(*m.scores(np.array([[3.0]]))).tolist() == [0]

    def test_negative_label(self):
        m = RejectionModel(theta=np.array([0.0]), gamma=np.array([1.0]), bias_theta=1.0)
        f, r = m.scores(np.array([[-3.0]]))
        assert verdict(f, r).tolist() == [-1] and f.tolist() == [-3.0]

    def test_boundary_rejects(self):
        m = RejectionModel(theta=np.array([0.0]), gamma=np.array([1.0]), bias_theta=0.0)
        assert verdict(*m.scores(np.array([[1.0]]))).tolist() == [0]

    def test_sign_zero_is_positive(self):
        m = RejectionModel(theta=np.array([0.0]), gamma=np.array([0.0]), bias_theta=1.0)
        assert verdict(*m.scores(np.array([[7.0]]))).tolist() == [1]

    def test_pure(self):
        m = RejectionModel(theta=np.array([0.5]), gamma=np.array([1.0]), bias_theta=0.2)
        x = np.array([[0.3]])
        assert np.array_equal(m.scores(x), m.scores(x))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            self.m.scores(np.array([[1.0, 2.0]]))


class TestZeta:
    # zeta(y) = theta/y - gamma, built by losses.worst_case_l1 as the rows zeta(+1), zeta(-1), theta
    def test_positive_label(self):
        zeta, _ = worst_case_l1(np.array([1.0, -1.0]), np.array([2.0, 0.0]), 0.0)
        assert np.array_equal(zeta[0], [-1.0, -1.0])

    def test_negative_label(self):
        zeta, _ = worst_case_l1(np.array([1.0, -1.0]), np.array([2.0, 0.0]), 0.0)
        assert np.array_equal(zeta[1], [-3.0, 1.0])

    def test_cancellation(self):
        zeta, l1 = worst_case_l1(np.array([1.0, 2.0]), np.array([1.0, 2.0]), 0.5)
        assert np.array_equal(zeta[0], [0.0, 0.0]) and l1 == (0.0, 3.0, 1.5)

    def test_margin_identity(self, rng):
        # r(x) - y f(x) = y * (<x, zeta(y)> + bias_theta/y - bias_gamma) for all x, y
        for _ in range(200):
            d = int(rng.integers(1, 8))
            m = random_linear_model(rng, d, scale=3.0)
            x = rng.standard_normal(d)
            for y in (-1, 1):
                f, r = m.scores(x)
                lhs = float(r) - y * float(f)
                rhs = y * (float(x @ (m.theta / y - m.gamma)) + m.bias_theta / y - m.bias_gamma)
                assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))


class TestSerialization:
    def test_roundtrip(self, rng):
        stats = NormStats(
            "minmax01", lo=np.array([0.0, 1.0]), hi=np.array([2.0, 3.0]),
            constant=np.array([False, False]),
        )
        m = RejectionModel(
            theta=rng.standard_normal(4),
            gamma=rng.standard_normal(4),
            bias_theta=0.5,
            bias_gamma=-0.25,
            feature_map=FeatureMap("random_fourier", dim=4, sigma=2.0, seed=9),
            norm_stats=None,
        )
        m2 = RejectionModel.from_json(m.to_json())
        assert np.array_equal(m.theta, m2.theta)
        assert np.array_equal(m.gamma, m2.gamma)
        assert m.bias_theta == m2.bias_theta and m.bias_gamma == m2.bias_gamma
        assert m.feature_map == m2.feature_map
        m.norm_stats = stats
        m3 = RejectionModel.from_json(m.to_json())
        assert m3.norm_stats.scheme == "minmax01"
        assert np.array_equal(m3.norm_stats.lo, stats.lo)

    def test_featurize_consistency_after_roundtrip(self, rng):
        m = RejectionModel(
            theta=rng.standard_normal(16),
            gamma=rng.standard_normal(16),
            feature_map=FeatureMap("random_fourier", dim=16, sigma=1.0, seed=2),
        )
        m2 = RejectionModel.from_json(m.to_json())
        x = rng.standard_normal(3)
        assert np.array_equal(m.scores(x), m2.scores(x))

    def test_invariant_validation(self):
        with pytest.raises(ValueError):
            RejectionModel(theta=np.array([1.0]), gamma=np.array([1.0, 2.0]))
        with pytest.raises(ValueError):
            RejectionModel(theta=np.array([np.nan]), gamma=np.array([1.0]))
