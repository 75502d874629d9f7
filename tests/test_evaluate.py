import numpy as np
import pytest

import advreject.bench
from advreject.attacks import AttackSpec
from advreject.bench import (
    ProtocolConfig,
    ProtocolDataError,
    bench_to_csv,
    bench_to_text,
    benchmark,
    feature_map,
    median_heuristic_bandwidth,
    run_protocol,
    spawn_seeds,
)
from advreject.data import Dataset, normalize, split
from advreject.evaluate import (
    RejectConfusion,
    evaluate_model,
    metrics,
)
from advreject.losses import SurrogateParams, loss_01c
from advreject.model import FeatureMap, RejectionModel
from advreject.neural import NeuralTrainConfig, adv_risk_01c_net, train_neural
from advreject.synth import two_moons
from conftest import random_linear_model, traced_peak
from oracles import median_heuristic_reference

P13 = SurrogateParams(1.0, 1.0, 0.3)


def accept_all_correct_model():
    # f = 10 * x1, r = 1: accepts everything and tracks the label
    return RejectionModel(theta=np.array([0.0]), gamma=np.array([10.0]), bias_theta=1.0)


class TestClassifyOutcomes:
    def test_all_true_accepts(self, rng):
        x = np.sign(rng.standard_normal((20, 1))) * (1 + rng.random((20, 1)))
        ds = Dataset(x, np.where(x[:, 0] > 0, 1, -1))
        conf = evaluate_model(accept_all_correct_model(), ds, AttackSpec(method="none"), P13).counts
        assert conf == RejectConfusion(ta=20, tr=0, fa=0, fr=0)

    def test_all_true_rejects(self, rng):
        # rejects everything while the underlying classifier is always wrong
        x = np.abs(rng.standard_normal((15, 1))) + 0.5
        ds = Dataset(x, np.ones(15, dtype=int))
        m = RejectionModel(theta=np.array([0.0]), gamma=np.array([-5.0]), bias_theta=-1.0)
        conf = evaluate_model(m, ds, AttackSpec(method="none"), P13).counts
        assert conf == RejectConfusion(ta=0, tr=15, fa=0, fr=0)

    def test_partition(self, rng):
        for _ in range(20):
            m = random_linear_model(rng, 3)
            ds = Dataset(rng.standard_normal((30, 3)), np.where(rng.random(30) < 0.5, 1, -1))
            conf = evaluate_model(m, ds, AttackSpec(method="analytic_linear", eps=0.1), P13).counts
            assert conf.total == 30

    def test_outcomes_counted_on_perturbed_point(self):
        # clean point is correct&accepted; attack at eps=1 flips it
        m = RejectionModel(theta=np.array([0.0]), gamma=np.array([1.0]), bias_theta=1.0)
        ds = Dataset(np.array([[0.5]]), np.array([1]))
        clean = evaluate_model(m, ds, AttackSpec(method="none"), P13).counts
        assert clean.ta == 1
        attacked = evaluate_model(m, ds, AttackSpec(method="analytic_linear", eps=1.0), P13).counts
        assert attacked.fa == 1


class TestMetrics:
    def test_formulas(self):
        err, rej, pr = metrics(RejectConfusion(ta=70, tr=10, fa=15, fr=5))
        assert err == pytest.approx(0.15)
        assert rej == pytest.approx(0.15)
        assert pr == pytest.approx(0.6667, abs=5e-5)

    def test_no_rejections_pr_undefined(self):
        err, rej, pr = metrics(RejectConfusion(ta=9, tr=0, fa=1, fr=0))
        assert pr is None and rej == 0.0

    def test_all_rejected(self):
        err, rej, pr = metrics(RejectConfusion(ta=0, tr=4, fa=0, fr=6))
        assert err == 0.0 and rej == 1.0 and pr == pytest.approx(0.4)

    def test_zero_total(self):
        with pytest.raises(ValueError):
            metrics(RejectConfusion(0, 0, 0, 0))


class TestAttackMonotonicity:
    def test_mean_loss_dominates_clean(self, rng):
        for method in ("analytic_linear", "fgsm", "pgd"):
            for _ in range(10):
                m = random_linear_model(rng, 4)
                ds = Dataset(rng.standard_normal((25, 4)), np.where(rng.random(25) < 0.5, 1, -1))
                z = m.featurize(ds.x)
                f, r = m.scores_features(z)
                clean = float(np.mean(loss_01c(f, r, ds.y, P13.cost)))
                spec = AttackSpec(method=method, eps=0.2, steps=5)
                assert evaluate_model(m, ds, spec, P13).mean_loss_01c >= clean

    def test_l2_pgd_path(self, rng):
        m = random_linear_model(rng, 3)
        ds = Dataset(rng.standard_normal((15, 3)), np.where(rng.random(15) < 0.5, 1, -1))
        z = m.featurize(ds.x)
        f, r = m.scores_features(z)
        clean = float(np.mean(loss_01c(f, r, ds.y, P13.cost)))
        spec = AttackSpec(method="pgd", eps=0.3, norm="l2", steps=8)
        assert evaluate_model(m, ds, spec, P13).mean_loss_01c >= clean


class TestEvaluateModel:
    def test_deterministic(self, rng):
        m = random_linear_model(rng, 3)
        ds = Dataset(rng.standard_normal((40, 3)), np.where(rng.random(40) < 0.5, 1, -1))
        spec = AttackSpec(method="analytic_linear", eps=0.05)
        r1 = evaluate_model(m, ds, spec, P13)
        r2 = evaluate_model(m, ds, spec, P13)
        assert r1.err == r2.err and r1.candidate_wins == r2.candidate_wins

    def test_candidate_names_by_method(self, rng):
        m = random_linear_model(rng, 2)
        ds = Dataset(rng.standard_normal((10, 2)), np.where(rng.random(10) < 0.5, 1, -1))
        rep = evaluate_model(m, ds, AttackSpec(method="analytic_linear", eps=0.1), P13)
        assert set(rep.candidate_wins) == {"clean", "shift_margin", "shift_reject"}
        rep = evaluate_model(m, ds, AttackSpec(method="fgsm", eps=0.1), P13)
        assert set(rep.candidate_wins) == {"clean", "fgsm"}
        rep = evaluate_model(m, ds, AttackSpec(method="none"), P13)
        assert set(rep.candidate_wins) == {"clean"}

    def test_win_counts_sum_to_n(self, rng):
        m = random_linear_model(rng, 2)
        ds = Dataset(rng.standard_normal((17, 2)), np.where(rng.random(17) < 0.5, 1, -1))
        rep = evaluate_model(m, ds, AttackSpec(method="analytic_linear", eps=0.3), P13)
        assert sum(rep.candidate_wins.values()) == 17

    def test_report_json(self, rng):
        import json

        m = random_linear_model(rng, 2)
        ds = Dataset(rng.standard_normal((5, 2)), np.where(rng.random(5) < 0.5, 1, -1))
        rep = evaluate_model(m, ds, AttackSpec(method="none"), P13)
        obj = json.loads(rep.to_json())
        assert obj["counts"]["TA"] + obj["counts"]["TR"] + obj["counts"]["FA"] + obj["counts"]["FR"] == 5


class TestNetwork:
    @pytest.fixture(scope="class")
    def net_and_data(self):
        ds = two_moons(80, seed=3)
        net, _ = train_neural(ds, NeuralTrainConfig(params=P13, epochs=150, lr=0.1, hidden=(8,), seed=3))
        return net, ds

    def test_candidates_and_rows(self, net_and_data):
        net, ds = net_and_data
        rep = evaluate_model(net, ds, AttackSpec(method="pgd", eps=0.3, steps=5), P13)
        assert list(rep.candidate_wins) == ["clean", "pgd_margin", "pgd_reject", "pgd"]
        assert sum(rep.candidate_wins.values()) == len(ds) == rep.counts.total
        assert np.array_equal(rep.clean_loss, loss_01c(*net.forward(ds.x), ds.y, P13.cost))
        assert np.all(rep.worst_loss >= rep.clean_loss)
        assert rep.candidate_wins["clean"] < len(ds)  # the attack moves some rows
        assert rep.mean_loss_01c == float(np.mean(rep.worst_loss))

    @pytest.mark.parametrize("eps, steps", [(0.0, 20), (0.1, 20), (0.3, 5)])
    def test_adv_risk_is_the_evaluated_mean_loss(self, net_and_data, eps, steps):
        net, ds = net_and_data
        rep = evaluate_model(net, ds, AttackSpec(method="pgd", eps=eps, steps=steps), P13)
        assert adv_risk_01c_net(net, ds.x, ds.y, P13, eps=eps, steps=steps) == rep.mean_loss_01c
        assert list(rep.candidate_wins)[0] == "clean" and len(rep.candidate_wins) == (1 if eps == 0 else 4)

    @pytest.mark.parametrize("method", ["fgsm", "analytic_linear"])
    def test_linear_only_methods_raise(self, net_and_data, method):
        net, ds = net_and_data
        with pytest.raises(ValueError, match=f"method '{method}' does not apply to a network"):
            evaluate_model(net, ds, AttackSpec(method=method, eps=0.1), P13)


class TestBenchmark:
    def make_trials(self, rng, k=1):
        trials = []
        for _ in range(k):
            m = random_linear_model(rng, 2)
            ds = Dataset(rng.standard_normal((12, 2)), np.where(rng.random(12) < 0.5, 1, -1))
            trials.append(({("mh", 0.3): m}, ds))
        return trials

    def protocol(self, attack_eps):
        return ProtocolConfig(alpha=1.0, beta=1.0, attack_eps=attack_eps)

    def test_single_trial_std_zero(self, rng):
        rows = benchmark(self.make_trials(rng, 1), self.protocol((0.0, 0.1)))
        assert all(r.err_std == 0.0 and r.rej_std == 0.0 for r in rows)
        assert len(rows) == 2

    def test_empty_grid_errors(self, rng):
        with pytest.raises(ValueError, match="attack_eps"):
            ProtocolConfig(attack_eps=())
        with pytest.raises(ValueError, match="^methods must be a non-empty list"):
            ProtocolConfig(methods=())
        with pytest.raises(ValueError):
            benchmark([], self.protocol((0.0,)))

    @pytest.mark.parametrize("n", [29, 30])
    def test_dataset_not_larger_than_train_size(self, rng, n):
        ds = Dataset(rng.standard_normal((n, 2)), np.where(rng.random(n) < 0.5, 1, -1))
        message = f"^train_size 30: a trial needs more samples than the {n} given$"
        with pytest.raises(ProtocolDataError, match=message):
            run_protocol(ds, ProtocolConfig(methods=(("mh", 0.2),), trials=1, train_size=30, epochs=5))

    def test_trial_seeds_are_pinned(self, rng, monkeypatch):
        # the (split, feature) seeds of trials 0 and 1 at master seed 7; if they move, every bench table moves
        splits = []
        monkeypatch.setattr(advreject.bench, "split", lambda *args, seed: splits.append(seed) or split(*args, seed))
        x = rng.standard_normal((50, 3))
        ds = Dataset(x, np.where(x[:, 0] > 0, 1, -1))
        pc = ProtocolConfig(methods=(("mh", 0.2),), trials=2, train_size=30, epochs=5, rff_dim=8, seed=7)
        _, trials = run_protocol(ds, pc)
        features = [models[("mh", 0.2)].feature_map.seed for models, _ in trials]
        assert list(zip(splits, features)) == [(1201125462, 788422957), (1471499523, 941218350)]

    @pytest.mark.parametrize("master", [0, 1, 5, 7, 2718, 2**31 - 1, 2**63])
    def test_fewer_children_keep_their_seeds(self, master):
        # a child's seeds do not depend on how many children are spawned, so
        # the CLI's two run seeds (split, feature) are those of three
        assert spawn_seeds(master, 2, 1) == spawn_seeds(master, 3, 1)[:2]
        assert spawn_seeds(master, 2, 2) == spawn_seeds(master, 10, 2)[:2]

    def test_csv_and_text(self, rng):
        rows = benchmark(self.make_trials(rng, 2), self.protocol((0.0, 0.01)))
        csv = bench_to_csv(rows)
        assert csv.splitlines()[0].startswith("method,cost,attack_eps")
        assert len(csv.strip().splitlines()) == 1 + len(rows)
        text = bench_to_text(rows)
        assert "mh" in text and "eps=0.01" in text


def _bandwidth_input(case, rng):
    """One seeded input of the median heuristic, by the property it tests."""
    if case == "one_row":
        return rng.standard_normal((1, 4))
    if case == "identical_rows":
        return np.full((20, 3), rng.standard_normal())
    if case == "one_column":
        return rng.standard_normal((150, 1))
    if case == "fewer_rows_than_subsample":
        return rng.standard_normal((37, 5))
    if case == "duplicate_rows":
        x = rng.standard_normal((240, 6))
        return x[rng.integers(0, 30, 240)]  # many zero distances, which are left out
    if case == "integer_ties":
        return rng.integers(0, 3, (260, 3)).astype(float)  # few distinct distances, ties at the median
    scale = 10.0 ** rng.uniform(-3, 3)
    return scale * rng.standard_normal((int(rng.integers(201, 400)), int(rng.integers(2, 61))))


class TestMedianHeuristic:
    @pytest.mark.parametrize(
        "case",
        ["one_row", "identical_rows", "one_column", "fewer_rows_than_subsample", "duplicate_rows", "integer_ties",
         "scaled"],
    )
    def test_same_bits_as_the_full_distance_matrix(self, case):
        rng = np.random.default_rng(24)
        for _ in range(10):
            x, seed = _bandwidth_input(case, rng), int(rng.integers(0, 2**31))
            sigma = median_heuristic_bandwidth(x, seed=seed)
            assert sigma.hex() == median_heuristic_reference(x, seed=seed).hex()
            if case in ("one_row", "identical_rows"):
                assert sigma == 1.0  # no pair is apart

    def test_memory_is_not_the_difference_tensor(self, rng):
        x = rng.standard_normal((300, 250))
        peak, _ = traced_peak(median_heuristic_bandwidth, x, seed=3)
        # 200 x 200 x 250 differences take 80 MB; one row of them, the pair distances and the subsample 1.1 MB
        assert peak < 4_000_000

    def test_overflowing_median_is_refused(self, rng):
        x = 1e200 * (1.0 + rng.random((30, 2)))  # every squared distance overflows
        with pytest.raises(ValueError, match="median pairwise distance of the training rows overflows float64"):
            median_heuristic_bandwidth(x, seed=0)


class TestFeatureMap:
    def test_dim_zero_is_the_identity(self, rng):
        assert feature_map(0, rng.standard_normal((30, 3)), seed=7) == FeatureMap("identity")
        assert feature_map(0, rng.standard_normal((30, 3)), seed=7, sigma=0.5) == FeatureMap("identity")

    def test_median_sigma_and_pins(self, rng, monkeypatch):
        x = rng.standard_normal((30, 3))
        sigma = median_heuristic_bandwidth(x, 7)
        assert feature_map(16, x, seed=7) == FeatureMap("random_fourier", dim=16, sigma=sigma, seed=7, input_dim=3)
        # perfbench's span wraps bench.median_heuristic_bandwidth, so the builder calls it by that name
        monkeypatch.setattr(advreject.bench, "median_heuristic_bandwidth", lambda x, seed: 0.75)
        assert feature_map(16, x, seed=7).sigma == 0.75

    def test_numeric_sigma_is_kept(self, rng, monkeypatch):
        monkeypatch.setattr(advreject.bench, "median_heuristic_bandwidth", None)  # fails if called
        fm = feature_map(16, rng.standard_normal((30, 3)), seed=7, sigma=0.5)
        assert fm == FeatureMap("random_fourier", dim=16, sigma=0.5, seed=7, input_dim=3)

    @pytest.mark.parametrize("rff_dim", [0, 8])
    def test_run_protocol_builds_its_maps_as_before(self, rng, rff_dim):
        # the map each trial's models carry is the one run_protocol built inline before the builder
        x = rng.standard_normal((50, 3))
        ds = Dataset(x, np.where(x[:, 0] > 0, 1, -1))
        pc = ProtocolConfig(methods=(("mh", 0.2),), trials=2, train_size=30, epochs=5, rff_dim=rff_dim, seed=4)
        _, trials = run_protocol(ds, pc)
        for (split_seed, feat_seed), (models, _) in zip(spawn_seeds(pc.seed, pc.trials, 2), trials):
            tr_n, _ = normalize(split(ds, pc.train_size / len(ds), seed=split_seed)[0], pc.normalize)
            if rff_dim > 0:
                sigma = median_heuristic_bandwidth(tr_n.x, seed=feat_seed)
                before = FeatureMap("random_fourier", dim=rff_dim, sigma=sigma, seed=feat_seed, input_dim=tr_n.d)
            else:
                before = FeatureMap("identity")
            assert models[("mh", 0.2)].feature_map == before
