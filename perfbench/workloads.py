"""The benchmark's three workloads, their output checks, and the metrics
computed from a run.

Every workload is driven by one closed-loop caller: a pass starts only
after the previous one returned, in one process, with no threads. A pass
is timed as a whole; its outputs are checked after the timer stops, so the
checks never count as work. Each workload takes the seed and generates its
own inputs from it.

  table-credit   the CLI ``bench`` subcommand on a credit-surrogate LIBSVM
                 file (one protocol trial per pass)
  attack-sweep   four attacks x three radii on four fixture models, plus
                 one bound report per model (training bypassed)
  neural-minmax  min-max training of the two-head net, then its PGD
                 adversarial risk (every linear layer bypassed)
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import math
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from advreject import bench, bounds, cli, data, evaluate, model, neural, synth
from advreject.attacks import AttackSpec
from advreject.bounds import BoundConfig
from advreject.data import Dataset
from advreject.losses import SurrogateParams
from advreject.model import RejectionModel
from advreject.neural import NeuralTrainConfig

import make_fixtures
from tracer import Tracer

# the package re-exports the function train under the module's name
train = importlib.import_module("advreject.train")

LAYERS = ("data", "model", "losses", "attacks", "train", "evaluate", "bench", "bounds",
          "neural", "synth", "config", "cli")
METHODS = ("analytic_linear", "fgsm", "pgd_linf", "pgd_l2")
CANDIDATES = ("clean", "shift_margin", "shift_reject", "pgd", "fgsm")
ATTACK_EPS = (0.001, 0.01, 0.1)
P75_MIN_SAMPLES = 40  # ten samples beyond the 75th percentile
# figures of one workload; the others report them as 0
WORKLOAD_FIGURES = ("train_objective", "attack_loss_mean", "neural_adv_risk", "bound_s",
                    "neural_epochs_per_s") + tuple(f"eval_rows_per_s.{k}" for k in METHODS)


@dataclass(frozen=True)
class Sizes:
    """Input sizes; ``FULL`` is the benchmark, ``SMOKE`` the self-test."""

    epochs: int = 3000  # table-credit training epochs
    holdout_rows: int = 0  # attack-sweep rows per model; 0 = the whole pool
    mc_draws: int = 2000
    neural_n: int = 400
    neural_epochs: int = 150


FULL = Sizes()
SMOKE = Sizes(epochs=20, holdout_rows=12, mc_draws=50, neural_n=48, neural_epochs=2)


def method_key(spec: AttackSpec) -> str:
    """Metric suffix of an attack: analytic_linear, fgsm, pgd_linf, pgd_l2 or none."""
    if spec.method == "none" or spec.eps == 0:
        return "none"
    if spec.method == "pgd":
        return f"pgd_{spec.norm}"
    return spec.method


def attack_spec(key: str, eps: float) -> AttackSpec:
    if key.startswith("pgd_"):
        return AttackSpec(method="pgd", eps=eps, norm=key[4:], steps=20)
    return AttackSpec(method=key, eps=eps, steps=20)


class Workload:
    """One workload: ``setup`` makes the inputs, ``run_pass`` is the timed
    unit of work, ``check`` returns the problems found in its outputs."""

    def reset_timers(self):
        """Forget the timings taken so far (called after the warm-up pass)."""

    def close(self):
        """Undo what the constructor changed in the program's modules."""


class TableCredit(Workload):
    """``advreject bench`` in-process: svm/at/mh/atro, 4 attack radii, 1 trial."""

    def __init__(self, seed: int, sizes: Sizes, workdir: Path):
        self.seed, self.sizes = seed, sizes
        self.data_path = workdir / "credit.libsvm"
        self.config_path = workdir / "bench.json"
        self.out = workdir / "bench-out"
        self.trained: list[tuple] = []  # (train split, TrainConfig, model) of the last pass
        self.first_csv: bytes | None = None
        self.objectives: list[float] = []
        self.table = ""
        self._train = bench.train
        bench.train = self._capture  # pass-through: no timing

    def _capture(self, ds, cfg):
        trained_model, trace = self._train(ds, cfg)
        self.trained.append((ds, cfg, trained_model))
        return trained_model, trace

    def close(self):
        bench.train = self._train

    def setup(self):
        ds = synth.credit_surrogate(seed=self.seed)
        self.data_path.write_text(data.to_libsvm(ds))
        config = {
            "subcommand": "bench", "dataset": str(self.data_path), "out": str(self.out),
            "seed": self.seed,
            "bench": {
                "methods": [["svm", None], ["at", None], ["mh", 0.2], ["atro", 0.2]],
                "attack_eps": [0.0, 0.001, 0.01, 0.1], "eps_train": 0.001, "trials": 1,
                "train_size": 500, "alpha": 2.0, "beta": 4.0, "lam": 1e-3, "lam_prime": 1e-3,
                "epochs": self.sizes.epochs, "lr0": 3.0, "rff_dim": 200, "normalize": "minmax01",
                "attack_steps": 20,
            },
        }
        self.config_path.write_text(json.dumps(config, indent=2))

    def run_pass(self):
        self.trained = []
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(["bench", "--config", str(self.config_path)])
        if code != 0:
            raise RuntimeError(f"advreject bench exited with {code}")

    def check(self, _outcome) -> list[str]:
        problems = []
        raw = (self.out / "bench.csv").read_bytes()
        if self.first_csv is None:
            self.first_csv = raw
            self.table = (self.out / "bench.txt").read_text()
        elif raw != self.first_csv:
            problems.append("bench.csv differs from the first pass")
        rows = raw.decode().strip().splitlines()[1:]
        if len(rows) != 4 * 4:
            problems.append(f"bench.csv has {len(rows)} rows, expected 16")
        for line in rows:
            method, _, eps, err, _, rej, _, _ = line.split(",")
            err, rej = float(err), float(rej)
            if not (0 <= err <= 1 and 0 <= rej <= 1 and err + rej <= 1):
                problems.append(f"{method} eps={eps}: Err {err} / Rej {rej} out of range")
            if method in ("svm", "at") and rej != 0:
                problems.append(f"{method} eps={eps}: Rej {rej} != 0 with the sentinel rejector")
        if len(self.trained) != 4:
            problems.append(f"{len(self.trained)} models trained, expected 4")
        objectives = []
        for ds, cfg, m in self.trained:
            zero = RejectionModel(np.zeros(m.feat_dim), np.zeros(m.feat_dim), feature_map=cfg.feature_map)
            value, zero_value = train.objective(m, ds, cfg), train.objective(zero, ds, cfg)
            if not (math.isfinite(value) and value <= zero_value):
                problems.append(f"{cfg.mode}: objective {value} is not finite or worse than the zero model's {zero_value}")
            objectives.append(value / len(ds))
        self.objectives = objectives
        return problems

    def figures(self, pass_s: float) -> dict:
        return {
            "table_trial_s": pass_s,
            "train_objective": float(np.mean(self.objectives)) if self.objectives else math.nan,
        }


class AttackSweep(Workload):
    """Four attacks x three radii on four fixture models, then one bound
    report per model; ``train`` is never called."""

    params = SurrogateParams(make_fixtures.ALPHA, make_fixtures.BETA, make_fixtures.COST)
    bound_eps = make_fixtures.EPS_TRAIN

    def __init__(self, seed: int, sizes: Sizes, workdir: Path):
        self.seed, self.sizes = seed, sizes
        self.first: list | None = None
        self.rows = dict.fromkeys(METHODS, 0)
        self.seconds = dict.fromkeys(METHODS, 0.0)
        self.bound_times: list[float] = []
        self.losses: list[float] = []

    def setup(self):
        boot = np.random.default_rng(self.seed)
        pools = {}
        self.models = []
        for stem, generator, _, _ in make_fixtures.FIXTURES:
            if generator not in pools:
                pool = make_fixtures.holdout_pool(generator)
                n = self.sizes.holdout_rows or len(pool)
                idx = boot.integers(0, len(pool), n)  # bootstrap draw of held-out rows
                pools[generator] = Dataset(pool.x[idx], pool.y[idx], name=pool.name)
            text = (make_fixtures.FIXTURE_DIR / f"{stem}.json").read_text()
            self.models.append((stem, RejectionModel.from_json(text), pools[generator]))

    def run_pass(self):
        results, clock = [], _Clock()
        for stem, m, ds in self.models:
            clean = evaluate.evaluate_model(m, ds, AttackSpec(method="none"), self.params)
            for key in METHODS:
                for eps in ATTACK_EPS:
                    with clock:
                        rep = evaluate.evaluate_model(m, ds, attack_spec(key, eps), self.params)
                    self.rows[key] += len(ds)
                    self.seconds[key] += clock.last
                    results.append((stem, key, eps, len(ds), clean, rep))
            with clock:
                risk = bounds.clipped_adv_risk(m, ds, self.bound_eps, self.params)
                cfg = BoundConfig(w_bound=bounds.weight_bound(m, 2.0), p=2.0, eps=self.bound_eps,
                                  params=self.params, mc_draws=self.sizes.mc_draws)
                feats = Dataset(m.featurize(ds.x), ds.y, name=ds.name)
                report = bounds.generalization_bound(feats, risk, cfg, seed=self.seed)
            self.bound_times.append(clock.last)
            results.append((stem, "bound", self.bound_eps, len(ds), None, report))
        return results

    def check(self, results) -> list[str]:
        problems = []
        for stem, key, eps, n, clean, rep in results:
            if key == "bound":
                if not math.isfinite(rep.total):
                    problems.append(f"{stem}: bound total {rep.total} is not finite")
                continue
            if rep.counts.total != n:
                problems.append(f"{stem} {key} eps={eps}: TA+TR+FA+FR = {rep.counts.total} != {n}")
            if rep.mean_loss_01c < clean.mean_loss_01c:
                problems.append(f"{stem} {key} eps={eps}: attacked loss {rep.mean_loss_01c} < clean {clean.mean_loss_01c}")
        fingerprint = [(stem, key, eps, _fingerprint(key, rep)) for stem, key, eps, _, _, rep in results]
        if self.first is None:
            self.first = fingerprint
            self.losses = [r[5].mean_loss_01c for r in results if r[1] != "bound"]
        elif fingerprint != self.first:
            problems.append("attack or bound results differ from the first pass")
        return problems

    def figures(self, pass_s: float) -> dict:
        out = {f"eval_rows_per_s.{k}": self.rows[k] / self.seconds[k] if self.seconds[k] else 0.0
               for k in METHODS}
        out["bound_s"] = float(np.median(self.bound_times)) if self.bound_times else math.nan
        out["attack_loss_mean"] = float(np.mean(self.losses)) if self.losses else math.nan
        return out

    def reset_timers(self):
        self.rows = dict.fromkeys(METHODS, 0)
        self.seconds = dict.fromkeys(METHODS, 0.0)
        self.bound_times = []


def _fingerprint(key: str, report) -> tuple:
    if key == "bound":
        return (report.total,)
    c = report.counts
    return (c.ta, c.tr, c.fa, c.fr, report.mean_loss_01c)


class NeuralMinmax(Workload):
    """``train_neural`` with a PGD inner max, then ``adv_risk_01c_net``."""

    eps = 0.1
    params = SurrogateParams(alpha=2.0, beta=2.0, cost=0.2)

    def __init__(self, seed: int, sizes: Sizes, workdir: Path):
        self.seed, self.sizes = seed, sizes
        self.cfg = NeuralTrainConfig(
            params=self.params, attack=AttackSpec(method="pgd", eps=self.eps, steps=10),
            epochs=sizes.neural_epochs, batch_size=64, lr=0.05, hidden=(32, 32), seed=seed,
        )
        self.train_times: list[float] = []
        self.first: tuple | None = None
        self.risk = math.nan

    def setup(self):
        holdout_seed = int(np.random.SeedSequence(self.seed).generate_state(1)[0])
        self.train_set = synth.two_clusters(self.sizes.neural_n, seed=self.seed)
        self.test_set = synth.two_clusters(self.sizes.neural_n, seed=holdout_seed)

    def run_pass(self):
        clock = _Clock()
        with clock:
            net, trace = neural.train_neural(self.train_set, self.cfg)
        self.train_times.append(clock.last)
        te = self.test_set
        risk = neural.adv_risk_01c_net(net, te.x, te.y, self.params, eps=self.eps, steps=20)
        return net, trace, risk

    def check(self, outcome) -> list[str]:
        net, trace, risk = outcome
        problems = []
        if not np.all(np.isfinite(trace)):
            problems.append("training trace is not finite")
        te = self.test_set
        clean = neural.adv_risk_01c_net(net, te.x, te.y, self.params, eps=0.0)
        if not risk >= clean:
            problems.append(f"adversarial risk {risk} < clean risk {clean}")
        fingerprint = (float(trace[-1]), risk)
        if self.first is None:
            self.first, self.risk = fingerprint, risk
        elif fingerprint != self.first:
            problems.append("training trace or risk differs from the first pass")
        return problems

    def figures(self, pass_s: float) -> dict:
        train_s = float(np.median(self.train_times)) if self.train_times else math.nan
        return {"neural_epochs_per_s": self.cfg.epochs / train_s, "neural_adv_risk": self.risk}

    def reset_timers(self):
        self.train_times = []


WORKLOADS = {"table-credit": TableCredit, "attack-sweep": AttackSweep, "neural-minmax": NeuralMinmax}


class _Clock:
    """Context manager that stores the wall time of its block in ``last``."""

    def __enter__(self):
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.last = time.perf_counter() - self._t0
        return False


# --- traced runs -----------------------------------------------------------

def _rows(args, kwargs, out):
    return {"rows": int(out.shape[0]) if out.ndim == 2 else 1}


def _train_attrs(args, kwargs, out):
    return {"epochs": len(out[1].objective)}


def _neural_attrs(args, kwargs, out):
    return {"epochs": len(out[1])}


def _eval_attrs(args, kwargs, out):
    spec = args[2] if len(args) > 2 else kwargs["attack"]
    ds = args[1] if len(args) > 1 else kwargs["ds"]
    return {"method": method_key(spec), "rows": len(ds), "wins": dict(out.candidate_wins)}


def install_spans(tracer: Tracer) -> None:
    """Wrap each layer's public functions under the names their callers use."""
    for owner, attr, name, describe in (
        (cli, "main", "cli.main", None),
        (cli, "validate_config", "config.validate_config", None),
        (cli, "parse_libsvm", "data.parse_libsvm", None),
        (cli, "run_protocol", "bench.run_protocol", None),
        (bench, "split", "data.split", None),
        (bench, "normalize", "data.normalize", None),
        (bench, "median_heuristic_bandwidth", "bench.median_heuristic_bandwidth", None),
        (bench, "train", "train.train", _train_attrs),
        (bench, "benchmark", "evaluate.benchmark", None),
        (data, "split", "data.split", None),
        (data, "normalize", "data.normalize", None),
        (data, "to_libsvm", "data.to_libsvm", None),
        (train, "featurize", "model.featurize", _rows),
        (model, "featurize", "model.featurize", _rows),
        (RejectionModel, "from_json", "model.RejectionModel.from_json", None),
        (evaluate, "evaluate_model", "evaluate.evaluate_model", _eval_attrs),
        (evaluate, "pgd_linear_mh_batch", "attacks.pgd_linear_mh_batch", None),
        (evaluate, "pgd", "attacks.pgd", None),
        (evaluate, "loss_01c", "losses.loss_01c", None),
        (bounds, "clipped_adv_risk", "bounds.clipped_adv_risk", None),
        (bounds, "generalization_bound", "bounds.generalization_bound", None),
        (bounds, "rademacher_linear_mc", "bounds.rademacher_linear_mc", None),
        (bounds, "adv_loss_mh_linear_batch", "losses.adv_loss_mh_linear_batch", None),
        (neural, "train_neural", "neural.train_neural", _neural_attrs),
        (neural, "adv_risk_01c_net", "neural.adv_risk_01c_net", None),
        (neural, "loss_01c", "losses.loss_01c", None),
        (synth, "credit_surrogate", "synth.credit_surrogate", None),
        (synth, "clinical_surrogate", "synth.clinical_surrogate", None),
        (synth, "two_clusters", "synth.two_clusters", None),
    ):
        tracer.install(owner, attr, name, describe)


def layer_metrics(tracer: Tracer, passes: int) -> dict:
    """Per-layer metrics from the spans of ``passes`` traced passes. Counts
    and self times are per pass; spans outside a pass (set-up, checks) are
    left out."""
    by_name: dict[str, list] = {}
    for s in tracer.spans:
        if s.pass_id >= 0:
            by_name.setdefault(s.name, []).append(s)

    def self_s(spans):
        return sum(s.self_s for s in spans) / passes

    out = {}
    tr = by_name.get("train.train", [])
    epochs = sum(s.attrs["epochs"] for s in tr)
    out["train.calls"] = len(tr) / passes
    out["train.self_s"] = self_s(tr)
    out["train.epochs"] = epochs / len(tr) if tr else 0.0
    out["train.s_per_epoch"] = sum(s.duration for s in tr) / epochs if epochs else 0.0

    fz = by_name.get("model.featurize", [])
    out["model.featurize.calls"] = len(fz) / passes
    out["model.featurize.rows"] = sum(s.attrs["rows"] for s in fz) / passes
    out["model.featurize.self_s"] = self_s(fz)

    evals = by_name.get("evaluate.evaluate_model", [])
    for key in METHODS:
        spans = [s for s in evals if s.attrs["method"] == key]
        ms = [1e3 * s.duration for s in spans]
        out[f"evaluate.evaluate_model.self_s.{key}"] = self_s(spans)
        out[f"evaluate.evaluate_model.call_ms_p50.{key}"] = float(np.median(ms)) if ms else 0.0
        out[f"evaluate.evaluate_model.call_ms_p75.{key}"] = (
            float(np.percentile(ms, 75)) if len(ms) >= P75_MIN_SAMPLES else 0.0)
        out[f"evaluate.evaluate_model.call_samples.{key}"] = float(len(ms))

    attacked = [s for s in evals if s.attrs["method"] != "none"]
    rows = sum(s.attrs["rows"] for s in attacked)
    for cand in CANDIDATES:
        won = sum(s.attrs["wins"].get(cand, 0) for s in attacked)
        out[f"attacks.win_ratio.{cand}"] = won / rows if rows else 0.0

    for name in ("bounds.clipped_adv_risk", "bounds.generalization_bound", "bounds.rademacher_linear_mc",
                 "neural.train_neural", "neural.adv_risk_01c_net", "data.split", "data.normalize",
                 "data.parse_libsvm", "bench.median_heuristic_bandwidth", "config.validate_config", "cli.main"):
        out[f"{name}.self_s"] = self_s(by_name.get(name, []))
    nt = by_name.get("neural.train_neural", [])
    n_epochs = sum(s.attrs["epochs"] for s in nt)
    out["neural.s_per_epoch"] = sum(s.duration for s in nt) / n_epochs if n_epochs else 0.0

    for layer in LAYERS:
        out[f"{layer}.errors"] = float(tracer.errors[layer])
    out["trace.spans_per_pass"] = sum(len(v) for v in by_name.values()) / passes
    return out
