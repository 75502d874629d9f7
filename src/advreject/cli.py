"""Command-line entry point.

Subcommands: train, eval, attack, bound, bench, neural-train. Every run is
driven by a RunConfig (JSON via --config, overridable by flags) plus the
input files; the resolved config is echoed to <out>/manifest.json so a
single file reproduces the run. One master seed fans out deterministically
into split/feature/attack/Monte-Carlo seeds.

Exit codes: 0 ok, 2 configuration or input error, 3 numeric failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from .bench import median_heuristic_bandwidth, run_protocol
from .bounds import clipped_adv_risk, generalization_bound, weight_bound
from .config import ConfigError, NeuralSection, RunConfig, TrainSection, validate_config
from .data import DataFormatError, Dataset, normalize, parse_csv, parse_libsvm, split
from .evaluate import bench_to_csv, bench_to_text, evaluate_model
from .model import FeatureMap, RejectionModel
from .neural import train_neural
from .train import train

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3


def _fan_out_seeds(master: int) -> dict[str, int]:
    """split/feature/attack/mc seeds derived from one master seed."""
    ss = np.random.SeedSequence(master)
    vals = [int(c.generate_state(1)[0] % 2**31) for c in ss.spawn(4)]
    return {"split": vals[0], "features": vals[1], "attack": vals[2], "mc": vals[3]}


def _load_dataset(path: str) -> Dataset:
    p = Path(path)
    if not p.is_file():
        raise ConfigError(f"dataset path {path!r} does not exist")
    text = p.read_text()
    if p.suffix == ".csv":
        return parse_csv(text, name=p.stem)
    return parse_libsvm(text, name=p.stem)


def _load_model(path: str | None) -> RejectionModel:
    if not path:
        raise ConfigError("model path is required for this subcommand")
    p = Path(path)
    if not p.is_file():
        raise ConfigError(f"model path {path!r} does not exist")
    try:
        return RejectionModel.from_json(p.read_text())
    except (ValueError, KeyError, TypeError) as exc:  # JSONDecodeError is a ValueError
        raise ConfigError(f"model {path!r} is not a model JSON: {type(exc).__name__}: {exc}") from None


def _load_model_and_data(rc: RunConfig) -> tuple[RejectionModel, Dataset]:
    """The model and the dataset it is applied to, normalized by its stats."""
    model = _load_model(rc.model)
    ds = _load_dataset(rc.dataset)
    try:
        if model.norm_stats is not None:
            ds = model.norm_stats.apply(ds)
        model.featurize(ds.x[:1])  # raises on an input dimension the model does not take
    except ValueError as exc:
        raise ConfigError(f"dataset {rc.dataset!r} does not fit model {rc.model!r}: {exc}") from None
    return model, ds


def _write_manifest(rc: RunConfig, out: Path):
    out.joinpath("manifest.json").write_text(rc.to_json())


def _prepare_training_data(rc: RunConfig, prep: TrainSection | NeuralSection, seeds: dict):
    ds = _load_dataset(rc.dataset)
    if rc.test_dataset:
        tr, te = ds, _load_dataset(rc.test_dataset)
    else:
        tr, te = split(ds, prep.train_fraction, seed=seeds["split"])
    tr_n, stats = normalize(tr, prep.normalize)
    te_n = stats.apply(te)
    return tr_n, te_n, stats


def _resolve_feature_map(rc: RunConfig, tr_x: np.ndarray, seeds: dict) -> FeatureMap:
    fs = rc.train.features
    if fs.kind == "identity":
        return FeatureMap("identity")
    if fs.sigma == "median":
        fs.sigma = median_heuristic_bandwidth(tr_x, seed=seeds["features"])
    fs.config = fs.build(fs.sigma, seeds["features"], tr_x.shape[1])  # freeze into the manifest
    return fs.config


def _cmd_train(rc: RunConfig, out: Path) -> int:
    seeds = _fan_out_seeds(rc.seed)
    tr_n, te_n, stats = _prepare_training_data(rc, rc.train, seeds)
    cfg = replace(rc.train.config, feature_map=_resolve_feature_map(rc, tr_n.x, seeds))
    model, trace = train(tr_n, cfg)
    model.norm_stats = stats
    report = evaluate_model(model, te_n, replace(rc.attack, seed=seeds["attack"]), cfg.params)
    out.mkdir(parents=True, exist_ok=True)
    out.joinpath("model.json").write_text(model.to_json())
    out.joinpath("trace.csv").write_text(trace.to_csv())
    out.joinpath("report.json").write_text(report.to_json())
    _write_manifest(rc, out)
    print(
        f"trained {cfg.mode} on {rc.dataset} ({len(tr_n)} samples): "
        f"best objective {trace.best_objective:.4f} at epoch {trace.best_epoch}; "
        f"held-out err {report.err:.4f} rej {report.rej:.4f}"
    )
    return EXIT_OK


def _cmd_eval(rc: RunConfig, out: Path) -> int:
    seeds = _fan_out_seeds(rc.seed)
    model, ds = _load_model_and_data(rc)
    report = evaluate_model(model, ds, replace(rc.attack, seed=seeds["attack"]), rc.train.params)
    out.mkdir(parents=True, exist_ok=True)
    out.joinpath("report.json").write_text(report.to_json())
    c = report.counts
    out.joinpath("report.csv").write_text(
        "err,rej,pr,ta,tr,fa,fr,mean_loss_01c\n"
        f"{report.err!r},{report.rej!r},{'' if report.pr is None else repr(report.pr)},"
        f"{c.ta},{c.tr},{c.fa},{c.fr},{report.mean_loss_01c!r}\n"
    )
    _write_manifest(rc, out)
    print(f"eval {rc.dataset}: err {report.err:.4f} rej {report.rej:.4f} "
          f"pr {'-' if report.pr is None else f'{report.pr:.4f}'} wins {report.candidate_wins}")
    return EXIT_OK


def _cmd_attack(rc: RunConfig, out: Path) -> int:
    seeds = _fan_out_seeds(rc.seed)
    model, ds = _load_model_and_data(rc)
    params = rc.train.params
    from .evaluate import _attack_and_score  # per-sample detail

    spec = replace(rc.attack, seed=seeds["attack"])
    _, _, winner, names, losses = _attack_and_score(model, ds, spec, params)
    clean, worst = losses[0], losses.max(axis=0)
    out.mkdir(parents=True, exist_ok=True)
    lines = ["index,y,clean_loss,worst_loss,winner"]
    for i in range(len(ds)):
        lines.append(f"{i},{int(ds.y[i])},{float(clean[i])!r},{float(worst[i])!r},{names[winner[i]]}")
    out.joinpath("attack.csv").write_text("\n".join(lines) + "\n")
    _write_manifest(rc, out)
    print(
        f"attacked {len(ds)} samples with {spec.method} eps={spec.eps}: "
        f"mean 0-1-c loss {np.mean(worst):.4f} (clean {np.mean(clean):.4f})"
    )
    return EXIT_OK


def _cmd_bound(rc: RunConfig, out: Path) -> int:
    seeds = _fan_out_seeds(rc.seed)
    model, ds = _load_model_and_data(rc)
    params = rc.train.params
    b = rc.bound
    if b.w_bound == "auto":
        b.w_bound = weight_bound(model, b.p)  # freeze into the manifest
    cfg = b.build(b.w_bound, params)
    feats = Dataset(model.featurize(ds.x), ds.y, name=ds.name)
    risk = clipped_adv_risk(model, ds, cfg.eps, params)
    report = generalization_bound(feats, risk, cfg, seed=seeds["mc"])
    out.mkdir(parents=True, exist_ok=True)
    out.joinpath("bound.json").write_text(report.to_json())
    _write_manifest(rc, out)
    print(
        f"bound on {rc.dataset}: risk {report.empirical_risk:.4f} + terms -> total {report.total:.4f} "
        f"(W={report.w_bound:.4f})"
    )
    return EXIT_OK


def _cmd_bench(rc: RunConfig, out: Path) -> int:
    ds = _load_dataset(rc.dataset)
    if len(ds) <= rc.bench.train_size:
        raise ConfigError(
            f"bench.train_size is {rc.bench.train_size}, but dataset {rc.dataset!r} has only {len(ds)} samples"
        )
    rows, _ = run_protocol(ds, replace(rc.bench, seed=rc.seed))
    out.mkdir(parents=True, exist_ok=True)
    out.joinpath("bench.csv").write_text(bench_to_csv(rows))
    table = bench_to_text(rows)
    out.joinpath("bench.txt").write_text(table)
    _write_manifest(rc, out)
    print(table, end="")
    return EXIT_OK


def _cmd_neural_train(rc: RunConfig, out: Path) -> int:
    seeds = _fan_out_seeds(rc.seed)
    tr, te, _ = _prepare_training_data(rc, rc.neural, seeds)
    net, trace = train_neural(tr, rc.neural.build(seeds["features"]))
    from .neural import decide_net

    verdict, f, r = decide_net(net, te.x)
    rej = float(np.mean(verdict == 0))
    err = float(np.mean((verdict != 0) & (verdict != te.y)))
    out.mkdir(parents=True, exist_ok=True)
    out.joinpath("net.json").write_text(net.to_json())
    out.joinpath("trace.csv").write_text(
        "epoch,mean_loss\n" + "".join(f"{i},{float(v)!r}\n" for i, v in enumerate(trace))
    )
    _write_manifest(rc, out)
    print(f"neural-train on {rc.dataset}: final loss {trace[-1]:.4f}; held-out err {err:.4f} rej {rej:.4f}")
    return EXIT_OK


_DISPATCH = {
    "train": _cmd_train,
    "eval": _cmd_eval,
    "attack": _cmd_attack,
    "bound": _cmd_bound,
    "bench": _cmd_bench,
    "neural-train": _cmd_neural_train,
}


def run(rc: RunConfig) -> int:
    """Execute a validated RunConfig. Artifacts land in rc.out."""
    out = Path(rc.out)
    try:
        return _DISPATCH[rc.subcommand](rc, out)
    except (ConfigError, DataFormatError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except FloatingPointError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="advreject", description=__doc__)
    sub = ap.add_subparsers(dest="subcommand", required=True)
    for name in _DISPATCH:
        p = sub.add_parser(name)
        p.add_argument("--config", help="RunConfig JSON file")
        p.add_argument("--data", help="dataset path (.libsvm or .csv)")
        p.add_argument("--test-data", help="held-out dataset path")
        p.add_argument("--model", help="model JSON path")
        p.add_argument("--out", help="output directory")
        p.add_argument("--seed", type=int, help="master seed")
        p.add_argument("--mode", help="training mode: svm/at/mh/atro")
        p.add_argument("--cost", type=float, help="rejection cost c")
        p.add_argument("--eps", type=float, help="attack radius")
        p.add_argument("--eps-train", type=float, help="training perturbation radius")
        p.add_argument("--attack", help="attack method: none/analytic_linear/fgsm/pgd")
        p.add_argument("--steps", type=int, help="attack steps")
        p.add_argument("--norm", help="attack norm: linf/l2")
        p.add_argument("--epochs", type=int)
        p.add_argument("--features", help="feature map kind: identity/random_fourier")
        p.add_argument("--rff-dim", type=int, help="random Fourier feature dimension")
        p.add_argument("--trials", type=int, help="benchmark trials")
    return ap


def _merge_flags(obj: dict, args: argparse.Namespace) -> dict:
    """Overlay CLI flags onto the raw config dict (flags win)."""
    obj["subcommand"] = args.subcommand
    if args.data is not None:
        obj["dataset"] = args.data
    if args.test_data is not None:
        obj["test_dataset"] = args.test_data
    if args.model is not None:
        obj["model"] = args.model
    if args.out is not None:
        obj["out"] = args.out
    if args.seed is not None:
        obj["seed"] = args.seed
    train = obj.setdefault("train", {})
    if args.mode is not None:
        train["mode"] = args.mode
    if args.cost is not None:
        train["cost"] = args.cost
    if args.eps_train is not None:
        train["eps_train"] = args.eps_train
    if args.epochs is not None:
        train["epochs"] = args.epochs
        obj.setdefault("neural", {})["epochs"] = args.epochs
    if args.features is not None:
        train.setdefault("features", {})["kind"] = args.features
    if args.rff_dim is not None:
        train.setdefault("features", {})["dim"] = args.rff_dim
        train.setdefault("features", {})["kind"] = "random_fourier"
        obj.setdefault("bench", {})["rff_dim"] = args.rff_dim
    attack = obj.setdefault("attack", {})
    if args.attack is not None:
        attack["method"] = args.attack
    if args.eps is not None:
        attack["eps"] = args.eps
        obj.setdefault("bound", {})["eps"] = args.eps
    if args.steps is not None:
        attack["steps"] = args.steps
    if args.norm is not None:
        attack["norm"] = args.norm
    if args.trials is not None:
        obj.setdefault("bench", {})["trials"] = args.trials
    return obj


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    raw: dict = {}
    if args.config:
        path = Path(args.config)
        if not path.is_file():
            print(f"error: config file {args.config!r} does not exist", file=sys.stderr)
            return EXIT_CONFIG
        try:
            raw = json.loads(path.read_text())
        except json.JSONDecodeError as exc:
            print(f"error: config is not valid JSON: {exc}", file=sys.stderr)
            return EXIT_CONFIG
        if not isinstance(raw, dict):
            print("error: config must be a JSON object", file=sys.stderr)
            return EXIT_CONFIG
    raw = _merge_flags(raw, args)
    try:
        rc = validate_config(json.dumps(raw))
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    if not rc.dataset:
        print("error: dataset path is required (--data or config.dataset)", file=sys.stderr)
        return EXIT_CONFIG
    return run(rc)


if __name__ == "__main__":
    raise SystemExit(main())
