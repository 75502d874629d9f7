"""Command-line entry point.

Subcommands: train, eval, bound, bench, neural-train. Every run is
driven by a RunConfig (JSON via --config, overridable by flags) plus the
input files; the resolved config is echoed to <out>/manifest.json so a
single file reproduces the run. One master seed fans out deterministically
into split/feature/attack seeds.

Exit codes: 0 ok, 2 configuration or input error, 3 numeric failure.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import shutil
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

from .attacks import AttackSpec
from .bench import ProtocolDataError, bench_to_csv, bench_to_text, feature_map, run_protocol, spawn_seeds
from .bounds import clipped_adv_risk, generalization_bound, weight_bound
from .config import ConfigError, NeuralSection, RunConfig, TrainSection, config_object, validate_config
from .data import DataFormatError, Dataset, csv_text, normalize, parse_csv, parse_libsvm, split
from .evaluate import evaluate_model
from .model import RejectionModel
from .neural import train_neural
from .train import train

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3


def _read_text(path: str | None, what: str) -> str:
    """The text of the input file at path; ConfigError naming the file as
    ``what`` when no path is given, it is not a file or not text."""
    if not path:
        raise ConfigError(f"{what} path is required for this subcommand")
    if not Path(path).is_file():
        raise ConfigError(f"{what} path {path!r} does not exist")
    try:
        return Path(path).read_text()
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{what} {path!r} cannot be decoded as text: {exc}") from None


def _load_dataset(path: str) -> Dataset:
    text, p = _read_text(path, "dataset"), Path(path)
    ds = parse_csv(text, name=p.stem) if p.suffix == ".csv" else parse_libsvm(text, name=p.stem)
    if not ds.d:
        raise ConfigError(f"dataset {path!r} has labels but no feature column")
    return ds


def _load_model(path: str | None) -> RejectionModel:
    text = _read_text(path, "model")
    try:
        return RejectionModel.from_json(text)
    except (ValueError, KeyError, TypeError) as exc:  # JSONDecodeError is a ValueError
        raise ConfigError(f"model {path!r} is not a model JSON: {type(exc).__name__}: {exc}") from None


def _load_model_and_data(rc: RunConfig) -> tuple[RejectionModel, Dataset]:
    """The model and the dataset it is applied to, normalized by its stats."""
    model = _load_model(rc.model)
    ds = _load_dataset(rc.dataset)
    try:
        if model.norm_stats is not None:
            ds = model.norm_stats.apply(ds)
        model.featurize(ds.x)  # raises on an input dimension the model does not take; later calls reuse it
    except ValueError as exc:
        raise ConfigError(f"dataset {rc.dataset!r} does not fit model {rc.model!r}: {exc}") from None
    return model, ds


def _prepare_training_data(rc: RunConfig, section: str, split_seed: int):
    prep: TrainSection | NeuralSection = getattr(rc, section)
    ds = _load_dataset(rc.dataset)
    if rc.test_dataset:
        tr, te = ds, _load_dataset(rc.test_dataset)
        if te.d != tr.d:
            raise ConfigError(
                f"test dataset {rc.test_dataset!r} has dimension {te.d}, but dataset {rc.dataset!r} has {tr.d}"
            )
    else:
        try:
            tr, te = split(ds, prep.train_fraction, seed=split_seed)
        except ValueError as exc:
            raise ConfigError(f"dataset {rc.dataset!r} cannot be split by {section}.train_fraction: {exc}") from None
    try:
        tr_n, stats = normalize(tr, prep.normalize)
    except ValueError as exc:
        raise ConfigError(f"dataset {rc.dataset!r} cannot be normalized by {section}.normalize: {exc}") from None
    try:
        te_n = stats.apply(te)
    except ValueError as exc:
        raise ConfigError(
            f"the held-out rows of {rc.test_dataset or rc.dataset!r} cannot be normalized by the "
            f"{section}.normalize stats of the training rows: {exc}"
        ) from None
    return tr_n, te_n, stats


def _cmd_train(rc: RunConfig) -> tuple[dict[str, str], str]:
    (split_seed,), (feat_seed,), (attack_seed,) = spawn_seeds(rc.seed, 3, 1)
    tr_n, te_n, stats = _prepare_training_data(rc, "train", split_seed)
    fs = rc.train.features
    try:
        fm = feature_map(fs.dim, tr_n.x, feat_seed, fs.sigma)
    except ValueError as exc:  # only from sigma "median": a numeric sigma was checked with the config
        raise ConfigError(f"dataset {rc.dataset!r} gives no train.features.sigma: {exc}") from None
    if fs.dim:
        fs.sigma = fm.sigma  # freeze into the manifest
    cfg = replace(rc.train.config, feature_map=fm)
    model, trace = train(tr_n, cfg)
    model.norm_stats = stats
    report = evaluate_model(model, te_n, replace(rc.attack, seed=attack_seed), cfg.params)
    files = {"model.json": model.to_json(), "trace.csv": trace.to_csv(), "report.json": report.to_json()}
    return files, (
        f"trained {cfg.mode} on {rc.dataset} ({len(tr_n)} samples): "
        f"best objective {trace.best_objective:.4f} at epoch {trace.best_epoch}; "
        f"held-out err {report.err:.4f} rej {report.rej:.4f}"
    )


def _cmd_eval(rc: RunConfig) -> tuple[dict[str, str], str]:
    (attack_seed,) = spawn_seeds(rc.seed, 3, 1)[2]  # train's attack seed
    model, ds = _load_model_and_data(rc)
    report = evaluate_model(model, ds, replace(rc.attack, seed=attack_seed), rc.train.config.params)
    c = report.counts
    csv = csv_text(("err", "rej", "pr", "ta", "tr", "fa", "fr", "mean_loss_01c"),
                   [(report.err, report.rej, report.pr, c.ta, c.tr, c.fa, c.fr, report.mean_loss_01c)])
    names = list(report.candidate_wins)
    rows = zip(ds.y, report.clean_loss, report.worst_loss, report.winner)
    per_row = csv_text(("index", "y", "clean_loss", "worst_loss", "winner"),
                       ((i, y, clean, worst, names[k]) for i, (y, clean, worst, k) in enumerate(rows)))
    return {"report.json": report.to_json(), "report.csv": csv, "attack.csv": per_row}, (
        f"eval {rc.dataset}: err {report.err:.4f} rej {report.rej:.4f} "
        f"pr {'-' if report.pr is None else f'{report.pr:.4f}'} wins {report.candidate_wins}"
    )


def _cmd_bound(rc: RunConfig) -> tuple[dict[str, str], str]:
    model, ds = _load_model_and_data(rc)
    params = rc.train.config.params
    b = rc.bound
    if b.w_bound == "auto":
        b.w_bound = weight_bound(model, b.config.p)  # freeze into the manifest
    try:
        cfg = b.build(b.w_bound, params)
    except ValueError as exc:  # only from "auto": a w_bound set in the config was checked with it
        raise ConfigError(
            f'bound.w_bound "auto" is {b.w_bound!r}, the largest weight norm of model {rc.model!r}, but {exc}'
        ) from None
    feats = Dataset(model.featurize(ds.x), ds.y, name=ds.name)
    risk = clipped_adv_risk(model, ds, cfg.eps, params)
    report = generalization_bound(feats, risk, cfg)
    return {"bound.json": report.to_json()}, (
        f"bound on {rc.dataset}: risk {report.empirical_risk:.4f} + terms -> total {report.total:.4f} "
        f"(W={report.w_bound:.4f})"
    )


def _cmd_bench(rc: RunConfig) -> tuple[dict[str, str], str]:
    ds = _load_dataset(rc.dataset)
    try:
        rows, _ = run_protocol(ds, replace(rc.bench, seed=rc.seed))
    except ProtocolDataError as exc:
        raise ConfigError(f"dataset {rc.dataset!r} does not fit bench.{exc}") from None
    table = bench_to_text(rows)
    return {"bench.csv": bench_to_csv(rows), "bench.txt": table}, table.removesuffix("\n")


def _cmd_neural_train(rc: RunConfig) -> tuple[dict[str, str], str]:
    (split_seed,), (feat_seed,), _ = spawn_seeds(rc.seed, 3, 1)
    tr, te, _ = _prepare_training_data(rc, "neural", split_seed)
    net, trace = train_neural(tr, rc.neural.build(feat_seed))
    report = evaluate_model(net, te, AttackSpec(), rc.neural.config.params)
    return {"net.json": net.to_json(), "trace.csv": csv_text(("epoch", "mean_loss"), enumerate(trace))}, (
        f"neural-train on {rc.dataset}: final loss {trace[-1]:.4f}; held-out err {report.err:.4f} rej {report.rej:.4f}"
    )


# subcommand -> (command, the config keys and whole sections it reads)
_SCORED = ("dataset", "model", "out", "train.alpha", "train.beta", "train.cost")  # a model scored at train's params
_DISPATCH = {
    "train": (_cmd_train, ("dataset", "test_dataset", "out", "seed", "train", "attack")),
    "eval": (_cmd_eval, (*_SCORED, "seed", "attack")),
    "bound": (_cmd_bound, (*_SCORED, "bound")),  # deterministic: no seed
    "bench": (_cmd_bench, ("dataset", "out", "seed", "bench")),
    "neural-train": (_cmd_neural_train, ("dataset", "test_dataset", "out", "seed", "neural")),
}


def run(rc: RunConfig) -> None:
    """Execute a validated RunConfig: its files and manifest.json land in
    rc.out and its summary goes to stdout. No new file is left when the
    command or a write raises."""
    files, summary = _DISPATCH[rc.subcommand][0](rc)
    files["manifest.json"] = rc.to_json()  # after the command, which may freeze values into rc
    _write_all(Path(rc.out), files)
    print(summary)


def _write_all(out: Path, files: dict[str, str]) -> None:
    """Writes files (name -> text) into out, all or nothing. They are
    written to a staging directory inside out, then renamed into place.
    If any step raises, the files and directories this call created are
    removed; a file it had already renamed over an older one keeps the
    new text."""
    made = list(itertools.takewhile(lambda d: not d.exists(), (out, *out.parents)))  # innermost first
    placed = []
    try:
        out.mkdir(parents=True, exist_ok=True)
        stage = Path(tempfile.mkdtemp(prefix=".staging-", dir=out))
        try:
            for name, text in files.items():
                stage.joinpath(name).write_text(text)
            for name in files:
                target = out / name
                is_new = not target.exists()
                os.replace(stage / name, target)
                if is_new:
                    placed.append(target)
        finally:
            shutil.rmtree(stage, ignore_errors=True)
    except BaseException:
        for path in placed:
            path.unlink(missing_ok=True)
        if made:
            shutil.rmtree(made[-1], ignore_errors=True)
        raise


# (flag, type, help, the config paths it sets to its value). A subcommand
# offers a flag only if some of its paths lie under its reads in _DISPATCH,
# and sets only those; any other flag is an unrecognized argument (exit 2).
_FLAGS = (
    ("--data", str, "dataset path (.libsvm or .csv)", ("dataset",)),
    ("--test-data", str, "held-out dataset path", ("test_dataset",)),
    ("--model", str, "model JSON path", ("model",)),
    ("--out", str, "output directory", ("out",)),
    ("--seed", int, "master seed", ("seed",)),
    ("--mode", str, "training mode: svm/at/mh/atro", ("train.mode",)),
    ("--cost", float, "rejection cost c", ("train.cost", "neural.cost")),
    ("--eps", float, "attack radius", ("attack.eps", "bound.eps")),
    ("--eps-train", float, "training perturbation radius", ("train.eps_train", "neural.eps_train")),
    (
        "--attack", str, "attack method: none/analytic_linear (the exact feature-space linf worst case)/fgsm/pgd",
        ("attack.method",),
    ),
    ("--steps", int, "attack steps", ("attack.steps", "neural.steps")),
    ("--norm", str, "attack norm: linf/l2", ("attack.norm",)),
    ("--epochs", int, "training epochs", ("train.epochs", "neural.epochs")),
    ("--rff-dim", int, "random Fourier feature dimension, 0 = identity", ("train.features.dim", "bench.rff_dim")),
    ("--trials", int, "benchmark trials", ("bench.trials",)),
)


def _flags_of(subcommand: str):
    """The _FLAGS entries the subcommand offers, each with only the paths it reads."""
    reads = _DISPATCH[subcommand][1]
    for flag, tp, text, paths in _FLAGS:
        mine = tuple(p for p in paths if any(f"{p}.".startswith(f"{r}.") for r in reads))
        if mine:
            yield flag, tp, text, mine


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="advreject", description=__doc__)
    sub = ap.add_subparsers(dest="subcommand", required=True)
    for name in _DISPATCH:
        p = sub.add_parser(name, allow_abbrev=False)  # so --eps is not taken for --eps-train
        p.add_argument("--config", help="RunConfig JSON file")
        for flag, tp, text, paths in _flags_of(name):
            p.add_argument(flag, type=tp, help=f"{text}; sets {', '.join(paths)}")
    return ap


def _merge_flags(obj: dict, args: argparse.Namespace) -> dict:
    """Overlay CLI flags onto the raw config dict (flags win)."""
    obj["subcommand"] = args.subcommand
    for flag, _, _, paths in _flags_of(args.subcommand):
        value = getattr(args, flag[2:].replace("-", "_"))
        if value is None:
            continue
        for path in paths:
            *sections, key = path.split(".")
            node = obj
            for i, name in enumerate(sections):
                node = node.setdefault(name, {})
                if not isinstance(node, dict):
                    raise ConfigError(f"{'.'.join(sections[: i + 1])} must be an object, got {type(node).__name__}")
            node[key] = value
    return obj


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        obj = config_object(_read_text(args.config, "config file")) if args.config else {}
        rc = validate_config(json.dumps(_merge_flags(obj, args)))
        if not rc.dataset:
            raise ConfigError("dataset path is required (--data or config.dataset)")
        run(rc)
    except (ConfigError, DataFormatError, OSError) as exc:  # an OSError's message names its path
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except FloatingPointError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    return EXIT_OK


if __name__ == "__main__":
    raise SystemExit(main())
