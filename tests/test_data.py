import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from advreject.attacks import AttackSpec
from advreject.bench import ProtocolConfig
from advreject.bounds import BoundConfig
from advreject.data import (
    DataFormatError,
    Dataset,
    csv_text,
    normalize,
    parse_csv,
    parse_libsvm,
    split,
    to_csv,
    to_libsvm,
)
from advreject.losses import SurrogateParams
from advreject.model import FeatureMap
from advreject.neural import NeuralTrainConfig, ToyNet, adv_risk_01c_net
from advreject.synth import clinical_surrogate, credit_surrogate
from advreject.train import TrainConfig
from oracles import parse_libsvm_reference, to_libsvm_reference


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

    def test_error_carries_line_number(self):
        with pytest.raises(DataFormatError, match="line 2"):
            parse_libsvm("+1 1:1\n+1 1:x")

    def test_non_numeric(self):
        with pytest.raises(DataFormatError, match="non-numeric"):
            parse_libsvm("+1 1:abc")

    def test_comments_and_blanks_skipped(self):
        ds = parse_libsvm("# header\n\n+1 1:1\n")
        assert len(ds) == 1

    @pytest.mark.parametrize(
        "entry, message",
        [
            ("1:nan", "non-finite value '1:nan'"),
            ("1:inf", "non-finite value '1:inf'"),
            ("1:-inf", "non-finite value '1:-inf'"),
            ("1:1e400", "non-finite value '1:1e400'"),
            ("1", "expected idx:val, got '1'"),
            ("0:1", "indices must be strictly increasing and 1-based, got 0 after 0"),
        ],
    )
    def test_bad_entry_names_its_line(self, entry, message):
        with pytest.raises(DataFormatError) as info:
            parse_libsvm(f"-1 1:0.5\n# note\n\n+1 {entry}\n-1 1:1\n")
        assert str(info.value) == f"line 4: {message}" and info.value.line == 4

    def test_bad_label_is_reported_before_a_bad_entry(self):
        with pytest.raises(DataFormatError) as info:
            parse_libsvm("+1 1:1\n2 1:nan 0:x")
        assert str(info.value) == "line 2: unknown label '2'"


# doubles whose text is easy to get wrong: both zeros, the smallest
# subnormal, huge magnitudes and values that need all 17 digits
SPECIAL_VALUES = [0.0, -0.0, 5e-324, -5e-324, 1e300, -1e300, 0.1 + 0.2, 1 / 3, -2 / 3,
                  1.7976931348623157e308, 2.2250738585072014e-308]


@st.composite
def libsvm_datasets(draw):
    n, d = draw(st.integers(1, 8)), draw(st.integers(1, 20))
    value = st.one_of(st.sampled_from(SPECIAL_VALUES), st.floats(allow_nan=False, allow_infinity=False))
    x = np.array(draw(st.lists(st.lists(value, min_size=d, max_size=d), min_size=n, max_size=n)))
    x[np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)))] = 0.0  # all-zero rows
    y = draw(st.lists(st.sampled_from([-1, 1]), min_size=n, max_size=n))
    return Dataset(x, y)


# tokens of LIBSVM lines, valid and not, for comparing whole texts
LINE_TOKENS = ["+1", "-1", "1", "0", "2", "1:0.5", "2:-3", "3:1e-3", "3:5e-324", "20:1e300",
               "1:-0.0", "0:1", "1:nan", "2:inf", "1:1e400", "x:1", "1:x", "1", "3:", ":2", "4:0"]


class TestCodecMatchesReference:
    """The codec is pinned, byte for byte, to the value-by-value reference
    in tests/oracles.py."""

    @given(libsvm_datasets())
    @settings(max_examples=150, deadline=None)
    def test_text_and_arrays_are_byte_identical(self, ds):
        text = to_libsvm(ds)
        assert text == to_libsvm_reference(ds)
        got, want = parse_libsvm(text), parse_libsvm_reference(text)
        assert got.x.shape == want.x.shape and got.x.tobytes() == want.x.tobytes()
        assert got.y.dtype == want.y.dtype and got.y.tobytes() == want.y.tobytes()

    @given(st.lists(st.one_of(st.lists(st.sampled_from(LINE_TOKENS), max_size=6).map(" ".join),
                              st.sampled_from(["", "  ", "# note"])), max_size=6))
    @settings(max_examples=300, deadline=None)
    def test_same_outcome_on_any_text(self, lines):
        text = "\n".join(lines)
        try:
            want = parse_libsvm_reference(text)
        except DataFormatError as exc:
            with pytest.raises(DataFormatError) as info:
                parse_libsvm(text)
            assert str(info.value) == str(exc) and info.value.line == exc.line
            return
        got = parse_libsvm(text)
        assert got.x.shape == want.x.shape and got.x.tobytes() == want.x.tobytes()
        assert got.y.tobytes() == want.y.tobytes()

    def test_zeros_are_omitted_and_values_written_shortest(self):
        ds = Dataset([[-0.0, 0.1 + 0.2, 0.0], [0.0, 0.0, 0.0], [5e-324, 0.0, -1e300]], [1, -1, -1])
        text = "+1 2:0.30000000000000004\n-1\n-1 1:5e-324 3:-1e+300\n"
        assert to_libsvm(ds) == text == to_libsvm_reference(ds)

    def test_surrogates(self):
        for make in (credit_surrogate, clinical_surrogate):
            ds = make(seed=3)
            text = to_libsvm(ds)
            assert text == to_libsvm_reference(ds)
            assert parse_libsvm(text).x.tobytes() == parse_libsvm_reference(text).x.tobytes()


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

    def test_blank_lines_count_toward_line_numbers(self):
        with pytest.raises(DataFormatError, match="line 5: non-numeric"):
            parse_csv("x1,y\n\n1.0,+1\n\nbad,+1\n")
        with pytest.raises(DataFormatError, match="line 2: need at least one feature column"):
            parse_csv("\ny\n+1\n")
        ds = parse_csv("\nx1,y\n\n1.0,+1\n  \n2.0,-1\n\n")
        assert np.array_equal(ds.x, [[1.0], [2.0]]) and list(ds.y) == [1, -1]


    def test_one_cell_rule(self):
        # None is empty, an int str(int(v)), a float repr(float(v)), numpy's alike, and a string itself
        rows = [(None, 3, np.int64(-2), 0.1, np.float64(1e-300), "pgd"), (0, np.float32(0.5), 2.0, -0.0, 1e20, "")]
        text = csv_text(("a", "b", "c", "d", "e", "f"), rows)
        assert text == "a,b,c,d,e,f\n,3,-2,0.1,1e-300,pgd\n0,0.5,2.0,-0.0,1e+20,\n"
        assert csv_text(("a",), []) == "a\n"


class TestDatasetLabels:
    @pytest.mark.parametrize("y", [[1.5, -1.9], [1.0, -0.5], [np.nan, 1.0], [1.0, -np.inf]])
    def test_checked_before_the_int_cast(self, y):
        # the cast would truncate 1.5 to 1 and -1.9 to -1
        with pytest.raises(ValueError, match=r"^labels must be -1 or \+1$"):
            Dataset(np.zeros((2, 1)), y)

    @pytest.mark.parametrize("y", [[1.0, -1.0], np.array([1, -1], dtype=np.int8)])
    def test_whole_labels_of_any_dtype_pass(self, y):
        ds = Dataset(np.zeros((2, 1)), y)
        assert ds.y.dtype == np.int64 and ds.y.tolist() == [1, -1]

    def test_adv_risk_01c_net_checks_its_labels(self):
        net = ToyNet.init(1, (2,), "relu", seed=0)
        with pytest.raises(ValueError, match=r"^labels must be -1 or \+1$"):
            adv_risk_01c_net(net, np.zeros((2, 1)), [1.5, -1.9], SurrogateParams(), eps=0.1)


class TestNumberFields:
    """Every library config refuses a bool where it takes a number: True
    would pass as 1 and False as 0. numpy's numbers pass."""

    @pytest.mark.parametrize(
        "cls, field, kind",
        [
            (SurrogateParams, "alpha", "float"), (SurrogateParams, "beta", "float"), (SurrogateParams, "cost", "float"),
            (TrainConfig, "eps_train", "float"), (TrainConfig, "lam", "float"), (TrainConfig, "lam_prime", "float"),
            (TrainConfig, "lr0", "float"), (TrainConfig, "epochs", "int"),
            (AttackSpec, "eps", "float"), (AttackSpec, "step_size", "float"), (AttackSpec, "steps", "int"),
            (BoundConfig, "w_bound", "float"), (BoundConfig, "p", "float"), (BoundConfig, "delta", "float"),
            (BoundConfig, "eps", "float"), (BoundConfig, "mc_draws", "int"),
            (ProtocolConfig, "trials", "int"), (ProtocolConfig, "train_size", "int"), (ProtocolConfig, "rff_dim", "int"),
            (ProtocolConfig, "attack_steps", "int"), (ProtocolConfig, "seed", "int"), (ProtocolConfig, "epochs", "int"),
            (ProtocolConfig, "alpha", "float"), (ProtocolConfig, "lam", "float"), (ProtocolConfig, "eps_train", "float"),
            (FeatureMap, "dim", "int"), (FeatureMap, "seed", "int"), (FeatureMap, "input_dim", "int"),
            (FeatureMap, "sigma", "float"),
            (NeuralTrainConfig, "lam_w", "float"), (NeuralTrainConfig, "lr", "float"),
            (NeuralTrainConfig, "epochs", "int"), (NeuralTrainConfig, "batch_size", "int"),
            (NeuralTrainConfig, "seed", "int"),
        ],
    )
    @pytest.mark.parametrize("value", [True, False, np.bool_(True)])
    def test_bools_are_refused(self, cls, field, kind, value):
        with pytest.raises(ValueError, match=f"^{field} must be {kind}, got bool$"):
            cls(**{field: value})

    @pytest.mark.parametrize("cls", [NeuralTrainConfig, ProtocolConfig, FeatureMap])
    def test_negative_seeds_are_refused(self, cls):
        # numpy would refuse them later, naming no field
        with pytest.raises(ValueError, match="^seed must be >= 0$"):
            cls(seed=-1)
        assert cls(seed=np.int64(0)).seed == 0

    def test_elements_and_other_types(self):
        with pytest.raises(ValueError, match=r"^attack_eps\[1\] must be float, got bool$"):
            ProtocolConfig(attack_eps=(0.0, True))
        with pytest.raises(ValueError, match="^steps must be int, got float$"):
            AttackSpec(steps=2.0)
        with pytest.raises(ValueError, match="^alpha must be float, got str$"):
            SurrogateParams(alpha="1")
        spec = AttackSpec(method="pgd", eps=np.float64(0.1), steps=np.int64(5), step_size=np.float32(0.05))
        assert (spec.eps, spec.steps) == (0.1, 5)
        assert TrainConfig(lam=0, epochs=np.int32(3)).lam == 0


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
