import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from advreject.data import (
    DataFormatError,
    Dataset,
    normalize,
    parse_csv,
    parse_libsvm,
    split,
    to_csv,
    to_libsvm,
)


class TestParseLibsvm:
    def test_basic(self):
        ds = parse_libsvm("+1 1:0.5 3:-2\n-1 2:1")
        assert len(ds) == 2 and ds.d == 3
        assert np.array_equal(ds.x[0], [0.5, 0, -2])
        assert np.array_equal(ds.x[1], [0, 1, 0])
        assert list(ds.y) == [1, -1]

    def test_empty_is_error(self):
        with pytest.raises(DataFormatError, match="empty"):
            parse_libsvm("")

    def test_indices_must_increase(self):
        with pytest.raises(DataFormatError, match="increasing"):
            parse_libsvm("+1 3:1 1:1")

    def test_duplicate_index(self):
        with pytest.raises(DataFormatError, match="increasing"):
            parse_libsvm("+1 1:1 1:2")

    def test_unknown_label(self):
        with pytest.raises(DataFormatError, match="unknown label"):
            parse_libsvm("2 1:1")

    def test_label_map(self):
        ds = parse_libsvm("0 1:1\n2 1:2\n+1 1:3", label_map={"0": -1, "2": -1, "+1": 1})
        assert list(ds.y) == [-1, -1, 1]

    def test_error_carries_line_number(self):
        with pytest.raises(DataFormatError, match="line 2"):
            parse_libsvm("+1 1:1\n+1 1:x")

    def test_non_numeric(self):
        with pytest.raises(DataFormatError, match="non-numeric"):
            parse_libsvm("+1 1:abc")

    def test_comments_and_blanks_skipped(self):
        ds = parse_libsvm("# header\n\n+1 1:1\n")
        assert len(ds) == 1


class TestRoundTrip:
    def test_example(self):
        text = "+1 1:0.5 3:-2\n-1 2:1"
        ds = parse_libsvm(text)
        again = parse_libsvm(to_libsvm(ds))
        assert np.array_equal(ds.x, again.x) and np.array_equal(ds.y, again.y)

    @given(st.integers(0, 2**31 - 1), st.integers(2, 12), st.integers(1, 5))
    @settings(max_examples=30, deadline=None)
    def test_random_roundtrip(self, seed, n, d):
        r = np.random.default_rng(seed)
        x = np.round(r.standard_normal((n, d)) * r.integers(1, 4, (n, d)), 6)
        x[r.random((n, d)) < 0.3] = 0.0
        x[0, d - 1] = 1.0  # keep the max dimension occupied
        ds = Dataset(x, np.where(r.random(n) < 0.5, 1, -1))
        again = parse_libsvm(to_libsvm(ds))
        assert again.d == ds.d
        assert np.array_equal(ds.x, again.x) and np.array_equal(ds.y, again.y)


class TestCsv:
    def test_parse(self):
        ds = parse_csv("a,b,y\n1,2,+1\n3,4,-1\n")
        assert ds.d == 2 and list(ds.y) == [1, -1]
        assert np.array_equal(ds.x, [[1, 2], [3, 4]])

    def test_roundtrip(self):
        ds = parse_csv("a,b,y\n1.5,2.25,+1\n-3,4,-1\n")
        again = parse_csv(to_csv(ds))
        assert np.array_equal(ds.x, again.x) and np.array_equal(ds.y, again.y)

    def test_column_mismatch(self):
        with pytest.raises(DataFormatError, match="line 3"):
            parse_csv("a,b,y\n1,2,+1\n1,+1\n")

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf", "NaN"])
    def test_non_finite_value_names_its_line(self, cell):
        with pytest.raises(DataFormatError, match="line 2: non-finite"):
            parse_csv(f"a,b,y\n0.1,{cell},1\n0.2,0.3,-1\n")

    def test_label_map_outside_pm1(self):
        with pytest.raises(DataFormatError, match="line 3: label map sends 'b' to 0"):
            parse_csv("a,y\n1,a\n2,b\n", label_map={"a": 1, "b": 0})

    def test_label_map(self):
        ds = parse_csv("a,y\n1,yes\n2,no\n", label_map={"yes": 1, "no": -1})
        assert list(ds.y) == [1, -1]


class TestNormalize:
    def test_two_point_scaling(self):
        ds = Dataset(np.array([[2.0], [4.0]]), np.array([1, -1]))
        out, stats = normalize(ds, "minmax01")
        assert np.array_equal(out.x, [[0.0], [1.0]])

    def test_constant_dimension(self):
        ds = Dataset(np.array([[3.0], [3.0], [3.0]]), np.array([1, -1, 1]))
        out, stats = normalize(ds, "minmax01")
        assert np.all(out.x == 0.0)
        assert stats.constant[0]

    def test_stats_reapply_bit_exact(self, rng):
        ds = Dataset(rng.standard_normal((20, 4)), np.where(rng.random(20) < 0.5, 1, -1))
        out, stats = normalize(ds, "minmax01")
        again = stats.apply(ds)
        assert np.array_equal(out.x, again.x)

    def test_minmax_range(self, rng):
        ds = Dataset(10 * rng.standard_normal((50, 6)), np.ones(50, dtype=int))
        out, _ = normalize(ds, "minmax01")
        assert out.x.min() >= 0.0 and out.x.max() <= 1.0

    def test_zscore(self, rng):
        ds = Dataset(rng.standard_normal((100, 3)) * 5 + 2, np.ones(100, dtype=int))
        out, _ = normalize(ds, "zscore")
        assert np.allclose(out.x.mean(axis=0), 0, atol=1e-10)
        assert np.allclose(out.x.std(axis=0), 1, atol=1e-10)

    def test_empty_error(self):
        with pytest.raises(ValueError):
            normalize(Dataset(np.zeros((0, 2)), np.zeros(0, dtype=int)), "minmax01")


class TestSplit:
    def test_sizes_and_determinism(self, rng):
        ds = Dataset(rng.standard_normal((10, 2)), np.where(rng.random(10) < 0.5, 1, -1))
        a1, b1 = split(ds, 0.8, seed=7)
        a2, b2 = split(ds, 0.8, seed=7)
        assert len(a1) == 8 and len(b1) == 2
        assert np.array_equal(a1.x, a2.x) and np.array_equal(b1.x, b2.x)

    def test_two_samples(self):
        ds = Dataset(np.array([[0.0], [1.0]]), np.array([1, -1]))
        a, b = split(ds, 0.5, seed=0)
        assert len(a) == 1 and len(b) == 1

    def test_single_sample_error(self):
        ds = Dataset(np.array([[0.0]]), np.array([1]))
        with pytest.raises(ValueError):
            split(ds, 0.5, seed=0)

    @given(st.integers(2, 40), st.integers(0, 10**6))
    @settings(max_examples=40, deadline=None)
    def test_partition_is_a_cover(self, n, seed):
        r = np.random.default_rng(0)
        ds = Dataset(np.arange(n, dtype=float).reshape(-1, 1), np.ones(n, dtype=int))
        try:
            a, b = split(ds, 0.7, seed=seed)
        except ValueError:
            return
        merged = np.sort(np.concatenate([a.x[:, 0], b.x[:, 0]]))
        assert np.array_equal(merged, np.arange(n, dtype=float))
