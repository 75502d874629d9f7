import json

import numpy as np
import pytest

import advreject.bench as bench_module
import advreject.train as train_module
from advreject.cli import main
from advreject.data import Dataset, normalize, to_libsvm
from advreject.evaluate import evaluate_model
from advreject.attacks import AttackSpec
from advreject.losses import SurrogateParams, verdict
from advreject.model import FeatureMap, RejectionModel, featurize
from advreject.synth import credit_surrogate
from advreject.train import ROW_SUM_SETS, SENTINEL_REJECT_BIAS, TrainConfig, _augment, _objective_arrays, _RowSums, objective, train
from oracles import objective_arrays_reference, train_objective_reference

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
            assert g_theta is None and np.all(want_gt == 0.0)  # the rejector stays at the sentinel
        assert val == pytest.approx(want_val, rel=1e-12)
        assert _objective_arrays(theta, gamma, zb, y, cfg) == val
        if g_theta is not None:
            np.testing.assert_allclose(g_theta, want_gt, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(g_gamma, want_gg, rtol=1e-12, atol=1e-12)


# eps = 0.01 and the parameters below are not powers of two, so a reordered
# product of them changes bits; the tie state needs the reference problem's
MODES_EPS = [
    ("svm", 0.0), ("at", 0.0), ("at", 1 / 64), ("at", 0.01), ("mh", 0.0), ("atro", 0.0), ("atro", 1 / 64), ("atro", 0.01)
]
EDGES = ("random", "theta_zero", "theta_pm_gamma", "tie", "inactive", "all_b", "zero_column")
EPOCH_PARAMS = {"params": SurrogateParams(1.7, 3.1, 0.23), "lam": 0.3, "lam_prime": 0.7}
TIE_PARAMS = {"params": SurrogateParams(2.0, 1.0, 0.25), "lam": 0.5, "lam_prime": 0.25}


def _epoch_state(rng, features, cfg, edge):
    """(theta, gamma, zb, y) for one probe of the epoch: random weights and
    labels, or a pinned edge state. theta_j = 0 and theta_j = +-gamma_j put
    zeros into sgn(theta) and sgn(zeta); "tie" is the reference problem's
    A~ = B~ row (exact at eps 0 and 1/64); "inactive" puts every row past
    both hinges; "all_b"
    puts every row of the rejection modes on branch B; "zero_column" zeroes
    one feature."""
    if edge == "tie":
        return _reference_problem(rng, features, cfg)
    x = rng.standard_normal((40, 3))
    z = x if features == "identity" else featurize(FeatureMap("random_fourier", dim=12, sigma=0.7, seed=5, input_dim=3), x)
    d = z.shape[1]
    theta, gamma = rng.standard_normal(d + 1), rng.standard_normal(d + 1)
    y = np.where(rng.random(len(z)) < 0.5, 1.0, -1.0)
    if edge == "theta_zero":
        theta[:2] = 0.0
    elif edge == "theta_pm_gamma":
        theta[0], theta[1] = gamma[0], -gamma[1]
    elif edge == "inactive":  # r about 2 > 1/beta, and y*f about 1000 > r + 2/alpha + eps*||zeta(y)||_1
        theta[:-1] *= 1e-3
        theta[-1], gamma[-1], y[:] = 2.0, 1e3, 1.0
    elif edge == "all_b":  # r about -1000
        theta[-1] = -1e3
    elif edge == "zero_column":
        z = z.copy()
        z[:, 0] = 0.0
    if not cfg.rejection_enabled:
        theta = np.zeros(d + 1)
        theta[-1] = 1.0
    return theta, gamma, _augment(z), y


def _bytes(values):
    return [None if v is None else np.asarray(v, dtype=np.float64).tobytes() for v in values]


class TestEpochAgainstOracle:
    """The epoch against ``objective_arrays_reference``, which computes every
    eps term at every eps: the same bits for the value and both
    subgradients."""

    @pytest.mark.parametrize("edge", EDGES)
    @pytest.mark.parametrize("features", ["identity", "rff"])
    @pytest.mark.parametrize("mode, eps", MODES_EPS)
    def test_same_bits(self, rng, mode, eps, features, edge):
        cfg = TrainConfig(mode=mode, eps_train=eps, **(TIE_PARAMS if edge == "tie" else EPOCH_PARAMS))
        theta, gamma, zb, y = _epoch_state(rng, features, cfg, edge)
        branches = train_objective_reference(theta, gamma, zb, y, cfg)[3]
        if edge == "inactive":
            assert set(branches) == {"-"}
        if edge == "all_b" and cfg.rejection_enabled:
            assert set(branches) == {"B"}
        want = objective_arrays_reference(theta, gamma, zb, y, cfg, with_grad=True)
        assert _bytes(_objective_arrays(theta, gamma, zb, y, cfg, with_grad=True)) == _bytes(want)
        assert _bytes([_objective_arrays(theta, gamma, zb, y, cfg)]) == _bytes(want[:1])

    @pytest.mark.parametrize("mode", ["svm", "at", "mh"])
    def test_eps0_changes_at_most_the_sign_of_a_zero_subgradient(self, rng, mode):
        # gamma_0 = -0.0 on an all-zero feature column makes the gamma_0 entry
        # -0.0 before the eps*sgn terms, which add +0.0 here (for mh: every
        # label +1, theta_0 < 0 and rows on branch A). At eps 0 the skip keeps
        # -0.0. at, at eps > 0, subtracts eps*k*sgn(zeta(+1)) over the weights
        # only, which keeps it too, and keeps a -0.0 bias entry (gamma_b = -0.0
        # and active labels that cancel) to which the oracle adds eps*k*0.0.
        # The same numbers, and gamma - s*g keeps the bits of every entry that
        # is not -0.0.
        cfg = TrainConfig(mode=mode, eps_train=1 / 64 if mode == "at" else 0.0, **EPOCH_PARAMS)
        theta, gamma, zb, y = _epoch_state(rng, "identity", cfg, "zero_column")
        y[:] = 1.0
        gamma[0] = -0.0
        probes = [0]
        if cfg.rejection_enabled:
            theta[0], theta[-1], gamma[-1] = -1.0, 2.0, -2.0
            assert "A" in train_objective_reference(theta, gamma, zb, y, cfg)[3]
        elif cfg.eps_train:
            y[1::2] = -1.0
            gamma[1:-1] *= 1e-3
            gamma[-1] = -0.0
            probes.append(len(gamma) - 1)
            assert set(train_objective_reference(theta, gamma, zb, y, cfg)[3]) == {"A"}  # 20 labels +1, 20 -1
        want = objective_arrays_reference(theta, gamma, zb, y, cfg, with_grad=True)
        got = _objective_arrays(theta, gamma, zb, y, cfg, with_grad=True)
        assert _bytes(got[:2]) == _bytes(want[:2])
        assert np.array_equal(got[2], want[2])
        for k in probes:  # the probe reaches the case
            assert np.signbit(got[2][k]) and not np.signbit(want[2][k])
        rest = np.delete(np.arange(len(gamma)), probes)
        assert _bytes([got[2][rest]]) == _bytes([want[2][rest]])
        assert _bytes([(gamma - 0.125 * got[2])[rest]]) == _bytes([(gamma - 0.125 * want[2])[rest]])


def _fresh_entry(zb, y, cfg, branch, mask):
    """The memo entry of the rows where mask is True, written out: gather,
    reduce, then scale as the subgradient does."""
    rows = mask.nonzero()[0]
    z, yr = zb[rows], y[rows]
    p = cfg.params
    if branch == "a":
        return rows.size, 0.5 * p.alpha * z.sum(axis=0), 0.5 * p.alpha * (yr @ z), int(np.count_nonzero(yr > 0))
    if branch == "b":
        return rows.size, z.sum(axis=0) if cfg.eps_train else p.cost * p.beta * z.sum(axis=0)
    return rows.size, yr @ z


class TestRowSumMemo:
    """``_RowSums`` hands back the pre-scaled sums a fresh gather, reduction
    and scale give, never lets a caller write into them, and keeps at most
    ROW_SUM_SETS active sets per branch."""

    @pytest.mark.parametrize("edge", EDGES)
    @pytest.mark.parametrize("features", ["identity", "rff"])
    @pytest.mark.parametrize("mode, eps", MODES_EPS)
    def test_reused_sums_keep_the_bits(self, rng, mode, eps, features, edge):
        cfg = TrainConfig(mode=mode, eps_train=eps, **(TIE_PARAMS if edge == "tie" else EPOCH_PARAMS))
        theta, gamma, zb, y = _epoch_state(rng, features, cfg, edge)
        want = _bytes(_objective_arrays(theta, gamma, zb, y, cfg, with_grad=True))
        sums = _RowSums(zb, y, cfg)
        first = _objective_arrays(theta, gamma, zb, y, cfg, with_grad=True, sums=sums)
        assert _bytes(first) == want
        for g in first[1:]:
            if g is not None:
                g[:] = np.nan
        sums._sums = lambda *_: pytest.fail("an active set was summed twice")
        assert _bytes(_objective_arrays(theta, gamma, zb, y, cfg, with_grad=True, sums=sums)) == want

    @pytest.mark.parametrize("features", ["identity", "rff"])
    @pytest.mark.parametrize("branch", ["a", "b", "act"])
    @pytest.mark.parametrize("eps", [0.0, 0.01])
    def test_entries_have_the_bits_of_a_fresh_gather_reduce_and_scale(self, rng, branch, eps, features):
        # EPOCH_PARAMS's alpha/2 and c*beta are not powers of two, so a sum
        # scaled in another order, or scaled at eps > 0, changes bits
        cfg = TrainConfig(mode="at" if branch == "act" else "atro", eps_train=eps, **EPOCH_PARAMS)
        _, _, zb, y = _epoch_state(rng, features, cfg, "random")
        sums = _RowSums(zb, y, cfg)
        for mask in [*(rng.random((4, len(y))) < 0.5), np.ones(len(y), dtype=bool)]:
            entry = sums.get(branch, mask)
            assert sums.get(branch, mask.copy()) is entry  # a hit hands back the same entry
            want = _fresh_entry(zb, y, cfg, branch, mask)
            assert entry[0] == want[0] == mask.sum()
            assert _bytes(entry[1:]) == _bytes(want[1:])
            assert not any(v.flags.writeable for v in entry[1:] if isinstance(v, np.ndarray))
        empty = sums.get(branch, np.zeros(len(y), dtype=bool))
        assert empty == ((0, None, None, 0) if branch == "a" else (0, None))

    @pytest.mark.parametrize("branch", ["a", "b", "act"])
    def test_bounded_and_least_recently_used_goes_first(self, rng, branch):
        zb, y = _augment(rng.standard_normal((40, 3))), np.where(rng.random(40) < 0.5, 1.0, -1.0)
        cfg = TrainConfig(mode="at" if branch == "act" else "atro", eps_train=0.01, **EPOCH_PARAMS)
        masks = rng.random((2 * ROW_SUM_SETS, 40)) < 0.5
        assert len({m.tobytes() for m in masks}) == len(masks)
        sums = _RowSums(zb, y, cfg)
        for i, m in enumerate(masks):
            sums.get(branch, m)
            sums.get(branch, masks[0])  # a hit keeps the first set
            assert len(sums.kept[branch]) == min(i + 1, ROW_SUM_SETS)
        kept = set(sums.kept[branch])
        assert masks[0].tobytes() in kept and masks[-ROW_SUM_SETS].tobytes() not in kept
        k, *got = sums.get(branch, masks[1])  # summed again after its eviction
        fresh = _fresh_entry(zb, y, cfg, branch, masks[1])
        assert k == fresh[0] == masks[1].sum()
        assert _bytes(got) == _bytes(fresh[1:])
        assert not any(v.flags.writeable for v in got if isinstance(v, np.ndarray))


def _reference_without_memo(*args, sums=None, **kwargs):
    return objective_arrays_reference(*args, **kwargs)


class TestTrainAgainstOracle:
    @pytest.mark.parametrize("features", ["identity", "rff"])
    @pytest.mark.parametrize("mode, eps", MODES_EPS)
    def test_model_and_trace_bytes(self, rng, monkeypatch, mode, eps, features):
        ds = toy_dataset(rng, n=60)
        fm = FeatureMap("identity") if features == "identity" else FeatureMap("random_fourier", dim=16, sigma=1.0, seed=0)
        cfg = TrainConfig(mode=mode, eps_train=eps, epochs=20, feature_map=fm, **EPOCH_PARAMS)
        model, trace = train(ds, cfg)
        monkeypatch.setattr(train_module, "_objective_arrays", _reference_without_memo)
        want_model, want_trace = train(ds, cfg)
        assert model.to_json() == want_model.to_json()
        assert trace.to_csv() == want_trace.to_csv()

    @pytest.mark.parametrize("mode, eps", [("mh", 0.0), ("atro", 0.01)])
    def test_bytes_across_evictions(self, monkeypatch, mode, eps):
        # a credit-like RFF problem whose run visits more active sets per
        # branch than the memo keeps, so it trains through evictions
        full = credit_surrogate(seed=0)
        ds, _ = normalize(Dataset(full.x[:300], full.y[:300]))
        fm = FeatureMap("random_fourier", dim=50, sigma=1.0, seed=0)
        cfg = TrainConfig(mode=mode, params=SurrogateParams(2.0, 4.0, 0.2), eps_train=eps, epochs=300, feature_map=fm)
        summed = {"a": set(), "b": set()}

        class Counting(_RowSums):
            def _sums(self, branch, mask):
                summed[branch].add(mask.tobytes())
                return super()._sums(branch, mask)

        monkeypatch.setattr(train_module, "_RowSums", Counting)
        model, trace = train(ds, cfg)
        assert min(map(len, summed.values())) > ROW_SUM_SETS
        monkeypatch.setattr(train_module, "_objective_arrays", _reference_without_memo)
        want_model, want_trace = train(ds, cfg)
        assert model.to_json() == want_model.to_json()
        assert trace.to_csv() == want_trace.to_csv()


class TestProtocolAgainstOracle:
    @pytest.mark.parametrize("rff_dim", [0, 24])
    def test_bench_csv_and_model_bytes(self, monkeypatch, tmp_path, rff_dim):
        # `advreject bench` over all four methods, with the library epoch and
        # with the reference: the same table and the same trained models
        full = credit_surrogate(seed=0)
        data = tmp_path / "credit.libsvm"
        data.write_text(to_libsvm(Dataset(full.x[:200], full.y[:200])))
        config = tmp_path / "bench.json"
        config.write_text(json.dumps({
            "subcommand": "bench", "dataset": str(data), "seed": 3,
            "bench": {
                "methods": [["svm", None], ["at", None], ["mh", 0.2], ["atro", 0.2]], "attack_eps": [0.0, 0.01, 0.1],
                "eps_train": 0.01, "trials": 2, "train_size": 100, "epochs": 80, "rff_dim": rff_dim,
            },
        }))
        library_train, trained = bench_module.train, []

        def capture(ds, cfg):
            model, trace = library_train(ds, cfg)
            trained.append(model.to_json())
            return model, trace

        monkeypatch.setattr(bench_module, "train", capture)

        def run(out):
            trained.clear()
            assert main(["bench", "--config", str(config), "--out", str(tmp_path / out)]) == 0
            return (tmp_path / out / "bench.csv").read_bytes(), list(trained)

        got = run("library")
        monkeypatch.setattr(train_module, "_objective_arrays", _reference_without_memo)
        want = run("reference")
        assert len(got[1]) == 2 * 4
        assert got == want


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

    @pytest.mark.parametrize("mode, eps", [("svm", 0.0), ("at", 0.01)])
    def test_no_reject_modes_leave_theta_at_the_sentinel(self, rng, mode, eps):
        # the epoch gives no theta subgradient, and train never moves theta
        cfg = TrainConfig(mode=mode, eps_train=eps, epochs=50, **EPOCH_PARAMS)
        theta, gamma, zb, y = _epoch_state(rng, "identity", cfg, "random")
        assert _objective_arrays(theta, gamma, zb, y, cfg, with_grad=True)[1] is None
        model, _ = train(toy_dataset(rng, n=60), cfg)
        assert model.theta.tobytes() == np.zeros(3).tobytes()
        assert model.bias_theta == SENTINEL_REJECT_BIAS

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
        assert verdict(*model.scores(ds.x[:1])).tolist()[0] in (-1, 0, 1)

    def test_fourier_map_pinned_to_training_dimension(self, rng):
        x = rng.standard_normal((40, 14))
        ds = Dataset(x, np.where(x[:, 0] > 0, 1, -1))
        fm = FeatureMap("random_fourier", dim=200, sigma=0.8, seed=7)  # the README quick start map
        model, _ = train(ds, TrainConfig(mode="atro", eps_train=0.001, epochs=5, feature_map=fm))
        assert model.feature_map.input_dim == 14
        model.featurize(ds.x)
        with pytest.raises(ValueError, match="input dimension 14"):
            model.featurize(rng.standard_normal((3, 8)))
