import numpy as np
import pytest

from advreject.attacks import AttackSpec
from advreject.bench import ProtocolConfig, bench_to_csv, bench_to_text, benchmark
from advreject.data import Dataset
from advreject.evaluate import (
    RejectConfusion,
    evaluate_model,
    metrics,
)
from advreject.losses import SurrogateParams, loss_01c
from advreject.model import RejectionModel
from conftest import random_linear_model

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
        with pytest.raises(ValueError):
            benchmark([], self.protocol((0.0,)))

    def test_csv_and_text(self, rng):
        rows = benchmark(self.make_trials(rng, 2), self.protocol((0.0, 0.01)))
        csv = bench_to_csv(rows)
        assert csv.splitlines()[0].startswith("method,cost,attack_eps")
        assert len(csv.strip().splitlines()) == 1 + len(rows)
        text = bench_to_text(rows)
        assert "mh" in text and "eps=0.01" in text
