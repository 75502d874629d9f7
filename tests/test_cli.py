import itertools
import json
import re
import shlex
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import advreject.cli
import advreject.model
from advreject.cli import main
from advreject.config import SUBCOMMANDS, ConfigError, RunConfig, validate_config
from advreject.attacks import AttackSpec
from advreject.data import parse_csv, parse_libsvm, to_csv, to_libsvm
from advreject.evaluate import evaluate_model
from advreject.losses import loss_01c
from advreject.model import RejectionModel
from advreject.neural import ToyNet
from advreject.synth import credit_surrogate, two_clusters, two_moons

README = Path(__file__).parents[1] / "README.md"


@pytest.fixture
def data_file(tmp_path):
    ds = two_clusters(120, seed=0)
    path = tmp_path / "clusters.libsvm"
    path.write_text(to_libsvm(ds))
    return path


class TestValidateConfig:
    def base(self, **over):
        obj = {"subcommand": "train", "dataset": "x.libsvm"}
        obj.update(over)
        return json.dumps(obj)

    def test_minimal_ok(self):
        rc = validate_config(self.base())
        assert rc.subcommand == "train" and rc.train.config.params.cost == 0.2

    def test_cost_out_of_range(self):
        with pytest.raises(ConfigError, match=r"train.cost must lie in \(0, 0.5\)"):
            validate_config(self.base(train={"cost": 0.6}))

    def test_negative_eps(self):
        with pytest.raises(ConfigError, match="attack.eps"):
            validate_config(self.base(attack={"eps": -0.1}))

    def test_p_one_maps_to_dual_infinity(self):
        rc = validate_config(self.base(bound={"p": 1}))
        assert rc.bound.config.p == 1.0

    def test_p_inf_accepted(self):
        rc = validate_config(self.base(bound={"p": "inf"}))
        assert rc.bound.config.p == np.inf

    def test_mode_eps_constraint(self):
        with pytest.raises(ConfigError, match="train.eps_train"):
            validate_config(self.base(train={"mode": "svm", "eps_train": 0.1}))

    def test_unknown_subcommand(self):
        with pytest.raises(ConfigError, match="subcommand"):
            validate_config(json.dumps({"subcommand": "serve"}))

    def test_bad_json(self):
        with pytest.raises(ConfigError, match="JSON"):
            validate_config("{not json")

    def test_bench_methods_validated(self):
        with pytest.raises(ConfigError, match=r"bench.methods\[0\]"):
            validate_config(self.base(bench={"methods": [["svm", 0.2]]}))

    def test_manifest_roundtrip(self):
        rc = validate_config(self.base(train={"cost": 0.25, "mode": "atro", "eps_train": 0.01}))
        again = validate_config(rc.to_json())
        assert again.to_json() == rc.to_json()

    @pytest.mark.parametrize(
        "section,key,value",
        [
            ("bench", "epochs", 0),
            ("bench", "lr0", -1),
            ("bench", "attack_steps", 0),
            ("bench", "lam", -1),
            ("train", "epochz", 5),
            ("attack", "seed", 123),  # derived from the master seed
            ("train", "features", {"seed": 123}),
            ("train", "features", {"kind": "random_fourier"}),  # dim alone picks the map
            ("train", "features", {"dim": -1}),
            ("train", "features", {"dim": 16, "sigma": 0}),
            ("bench", "normalize", "bogus"),  # the config key, not the model JSON's norm_stats.scheme
        ],
    )
    def test_bad_field_names_its_path(self, section, key, value, data_file, tmp_path):
        obj = {"subcommand": "bench", "dataset": str(data_file), "out": str(tmp_path / "o"), section: {key: value}}
        with pytest.raises(ConfigError, match=rf"^{section}\.{key}\b"):
            validate_config(json.dumps(obj))
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(obj))
        assert main(["bench", "--config", str(p)]) == 2
        assert not (tmp_path / "o").exists()


def _under(path: str, reads) -> bool:
    """Whether a config path lies under one of the keys or sections in reads."""
    return any(f"{path}.".startswith(f"{r}.") for r in reads)


def _leaves(obj: dict, prefix: str = ""):
    """(path, value) of each leaf key of a JSON object."""
    for key, value in obj.items():
        if isinstance(value, dict):
            yield from _leaves(value, f"{prefix}{key}.")
        else:
            yield f"{prefix}{key}", value


def _nested(flat: dict) -> dict:
    """The JSON object of {path: value}."""
    obj = {}
    for path, value in flat.items():
        *sections, key = path.split(".")
        node = obj
        for name in sections:
            node = node.setdefault(name, {})
        node[key] = value
    return obj


@pytest.fixture
def stubbed(monkeypatch):
    """Every command replaced by one that computes nothing: a run validates
    its config and writes only manifest.json."""
    for name, (_, reads) in list(advreject.cli._DISPATCH.items()):
        monkeypatch.setitem(advreject.cli._DISPATCH, name, (lambda rc: ({}, "stub"), reads))


class TestFlags:
    @pytest.mark.parametrize(
        "config,flag,message",
        [
            ({"train": 5}, ["--cost", "0.1"], "train must be an object, got int"),
            ({"bench": []}, ["--trials", "1"], "bench must be an object, got list"),
            ({"train": {"features": 3}}, ["--rff-dim", "10"], "train.features must be an object, got int"),
            ({"attack": "pgd"}, ["--eps", "0.1"], "attack must be an object, got str"),
        ],
    )
    def test_flag_under_a_non_object_section(self, config, flag, message, data_file, tmp_path, capsys):
        section = next(iter(config))  # read by the subcommand of its name; eval reads attack
        command = {"attack": "eval"}.get(section, section)
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(config))
        out = tmp_path / "o"
        assert main([command, "--config", str(p), "--data", str(data_file), "--out", str(out), *flag]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    def test_flags_set_every_key_they_name(self, stubbed, tmp_path):
        # each subcommand sets the keys it reads; together they set every key a flag names
        def manifest(command, *flags):
            out = tmp_path / command
            assert main([command, "--data", "d.libsvm", "--out", str(out), *flags]) == 0
            return json.loads((out / "manifest.json").read_text())

        train = manifest("train", "--rff-dim", "16", "--eps", "0.03", "--epochs", "7")
        assert train["train"]["features"] == {"dim": 16, "sigma": "median"}
        assert (train["attack"]["eps"], train["train"]["epochs"]) == (0.03, 7)
        assert (train["bench"]["rff_dim"], train["bound"]["eps"], train["neural"]["epochs"]) == (200, 0.0, 200)
        assert manifest("bench", "--rff-dim", "16")["bench"]["rff_dim"] == 16
        assert manifest("bound", "--eps", "0.03")["bound"]["eps"] == 0.03
        assert manifest("neural-train", "--epochs", "7")["neural"]["epochs"] == 7

    def test_help_names_the_keys_a_flag_sets(self, capsys):
        def help_text(command):
            with pytest.raises(SystemExit):
                main([command, "--help"])
            return " ".join(capsys.readouterr().out.split())

        text = help_text("eval")
        assert "attack radius; sets attack.eps " in text and "bound.eps" not in text
        text = help_text("bound")
        assert text.endswith("attack radius; sets bound.eps") and "attack.eps" not in text
        text = help_text("train")
        assert text.endswith("feature dimension, 0 = identity; sets train.features.dim") and "bench" not in text
        text = help_text("bench")
        assert "random Fourier feature dimension, 0 = identity; sets bench.rff_dim " in text and "train." not in text

    def test_readme_flag_table_matches_the_flags(self):
        # the same flags in the same order, each with the keys it sets
        lines = README.read_text().splitlines()
        start = lines.index("| flag | config keys |") + 2
        rows = list(itertools.takewhile(lambda line: line.startswith("|"), lines[start:]))
        expected = [f"| `{flag}` | " + ", ".join(f"`{p}`" for p in paths) + " |" for flag, *_, paths in advreject.cli._FLAGS]
        assert rows == expected

    def test_readme_commands_parse(self):
        # every advreject command in README's sh blocks, its continuation lines joined
        blocks = re.findall(r"^```sh\n(.*?)^```", README.read_text(), flags=re.M | re.S)
        lines = "\n".join(blocks).replace("\\\n", " ").splitlines()
        commands = [shlex.split(line)[1:] for line in lines if line.startswith("advreject ")]
        assert len(commands) == 5
        for argv in commands:
            advreject.cli._build_parser().parse_args(argv)


# a valid value for each flag, unlike the value in TestFlagRule's base config of every key it sets
FLAG_VALUES = {
    "--data": "other.libsvm", "--test-data": "held-out.libsvm", "--model": "model.json", "--out": "o", "--seed": "3",
    "--mode": "mh", "--cost": "0.1", "--eps": "0.03", "--eps-train": "0.05", "--attack": "fgsm", "--steps": "7",
    "--norm": "l2", "--epochs": "7", "--rff-dim": "16", "--trials": "3",
}
# a flag the CLI no longer has, with a value it once took: every subcommand rejects it
REMOVED_FLAGS = {"--features": "random_fourier"}
# a subcommand the CLI no longer has (eval writes its attack.csv): it exits 2 and writes nothing
REMOVED_COMMANDS = ("attack",)
# a valid value for each key that some subcommand does not read, unlike its
# value in SMALL_RUNS or its default
UNREAD_VALUES = {
    "model": "elsewhere.json", "seed": 5, "test_dataset": "elsewhere.libsvm",
    "attack.eps": 0.05, "attack.method": "none", "attack.norm": "l2", "attack.random_start": False,
    "attack.step_size": 0.01, "attack.steps": 5,
    "bench.alpha": 1.5, "bench.attack_eps": [0.0, 0.05], "bench.attack_steps": 5, "bench.beta": 3.0,
    "bench.epochs": 10, "bench.eps_train": 0.01, "bench.lam": 0.01, "bench.lam_prime": 0.01, "bench.lr0": 1.0,
    "bench.methods": [["atro", 0.1]], "bench.normalize": "zscore", "bench.rff_dim": 8, "bench.train_size": 50,
    "bench.trials": 2,
    "bound.delta": 0.1, "bound.eps": 0.01, "bound.mc_draws": 100, "bound.p": "inf", "bound.w_bound": 5.0,
    "neural.activation": "tanh", "neural.alpha": 1.5, "neural.batch_size": 16, "neural.beta": 1.5,
    "neural.cost": 0.2, "neural.epochs": 5, "neural.eps_train": 0.05, "neural.hidden": [6], "neural.lam_w": 0.01,
    "neural.lr": 0.1, "neural.normalize": "zscore", "neural.steps": 2, "neural.train_fraction": 0.7,
    "train.alpha": 1.5, "train.beta": 1.5, "train.cost": 0.3, "train.epochs": 5, "train.eps_train": 0.01,
    "train.features.dim": 8, "train.features.sigma": 1.0,
    "train.lam": 0.01, "train.lam_prime": 0.01, "train.lr0": 1.0, "train.mode": "at", "train.normalize": "zscore",
    "train.train_fraction": 0.7,
}
# the settings that keep each subcommand's run small; the attack uses its seed
SMALL_RUNS = {
    "attack.method": "pgd", "attack.eps": 0.1, "attack.random_start": True, "attack.steps": 3,
    "train.epochs": 20, "neural.epochs": 3, "neural.hidden": [4], "bench.methods": [["mh", 0.2]],
    "bench.attack_eps": [0.0], "bench.trials": 1, "bench.train_size": 60, "bench.rff_dim": 0, "bench.epochs": 20,
}


def _assert_removed_command(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert f"error: argument subcommand: invalid choice: {argv[0]!r}" in capsys.readouterr().err


class TestFlagRule:
    """_DISPATCH declares the config paths each subcommand reads. A flag is
    offered where some of its paths lie under them and sets only those;
    elsewhere it is an unrecognized argument."""

    def test_config_lists_the_dispatched_subcommands(self):
        assert SUBCOMMANDS == tuple(advreject.cli._DISPATCH)
        assert len(SUBCOMMANDS) * len(advreject.cli._FLAGS) == 75

    def test_table_paths_are_config_keys(self):
        keys = set()
        for path, _ in _leaves(json.loads(RunConfig(subcommand="train").to_json())):
            parts = path.split(".")
            keys |= {".".join(parts[: i + 1]) for i in range(len(parts))}
        flag_paths = {p for *_, paths in advreject.cli._FLAGS for p in paths}
        read_paths = {r for _, reads in advreject.cli._DISPATCH.values() for r in reads}
        assert flag_paths <= keys and read_paths <= keys

    def test_every_flag_path_is_read_somewhere(self):
        all_reads = [reads for _, reads in advreject.cli._DISPATCH.values()]
        for flag, _, _, paths in advreject.cli._FLAGS:
            for path in paths:
                assert any(_under(path, reads) for reads in all_reads), (flag, path)
        offered = sum(any(_under(p, reads) for p in paths) for reads in all_reads for *_, paths in advreject.cli._FLAGS)
        assert offered == 40

    @pytest.mark.parametrize("command", [*advreject.cli._DISPATCH, *REMOVED_COMMANDS])
    @pytest.mark.parametrize("flag", [*(flag for flag, *_ in advreject.cli._FLAGS), *REMOVED_FLAGS])
    def test_flag_sets_only_what_the_subcommand_reads(self, flag, command, stubbed, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        base_config = {"dataset": "base.libsvm", "out": "base", "attack": {"method": "pgd"}}  # pgd takes l2
        Path("cfg.json").write_text(json.dumps(base_config))
        argv, value = [command, "--config", "cfg.json"], {**FLAG_VALUES, **REMOVED_FLAGS}[flag]
        if command in REMOVED_COMMANDS:
            _assert_removed_command([*argv, flag, value], capsys)
            assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]
            return
        reads = advreject.cli._DISPATCH[command][1]
        paths = {f: p for f, *_, p in advreject.cli._FLAGS}.get(flag, ())
        expected = {p for p in paths if _under(p, reads)}
        if not expected:
            with pytest.raises(SystemExit) as exc:
                main([*argv, flag, value])
            assert exc.value.code == 2
            assert f"error: unrecognized arguments: {flag} {value}\n" in capsys.readouterr().err
            assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]
            return
        assert main(argv) == 0
        base = dict(_leaves(json.loads(Path("base/manifest.json").read_text())))
        assert main([*argv, flag, value]) == 0
        out = value if flag == "--out" else "base"
        got = dict(_leaves(json.loads(Path(out, "manifest.json").read_text())))
        assert {k for k in base if got[k] != base[k]} == expected

    @pytest.mark.parametrize("command", [*advreject.cli._DISPATCH, *REMOVED_COMMANDS])
    def test_keys_outside_the_reads_change_nothing(self, command, tmp_path, capsys):
        # every key the subcommand does not read moves to another valid value:
        # the files it writes and its summary keep their bytes. On the moons
        # the model rejects some points, so the cost shows in eval's loss.
        data_file = tmp_path / "moons.libsvm"
        data_file.write_text(to_libsvm(two_moons(120, seed=0)))
        if command in REMOVED_COMMANDS:
            _assert_removed_command([command, "--data", str(data_file), "--out", str(tmp_path / "o")], capsys)
            assert [p.name for p in tmp_path.iterdir()] == ["moons.libsvm"]
            return
        reads = advreject.cli._DISPATCH[command][1]
        every = dict(_leaves(json.loads(RunConfig(subcommand=command).to_json())))
        assert set(UNREAD_VALUES) == {
            k for k in every if k != "subcommand" and not all(_under(k, r) for _, r in advreject.cli._DISPATCH.values())
        }
        trained = tmp_path / "model"
        assert main(["train", "--data", str(data_file), "--epochs", "60", "--out", str(trained)]) == 0
        small = {"subcommand": command, "dataset": str(data_file), "model": str(trained / "model.json"), **SMALL_RUNS}
        unread = {k: v for k, v in UNREAD_VALUES.items() if not _under(k, reads)}
        small_values = dict(_leaves(json.loads(validate_config(json.dumps(_nested(small))).to_json())))
        assert all(v != small_values[k] for k, v in unread.items())
        files, stdout = [], []
        for name, flat in (("small", small), ("unread", {**small, **unread})):
            capsys.readouterr()
            cfg = tmp_path / f"{name}.json"
            cfg.write_text(json.dumps(_nested({**flat, "out": str(tmp_path / name)})))
            assert main([command, "--config", str(cfg)]) == 0
            stdout.append(capsys.readouterr().out)
            files.append({p.name: p.read_bytes() for p in (tmp_path / name).iterdir() if p.name != "manifest.json"})
        assert files[0] == files[1] and files[0]
        assert stdout[0] == stdout[1]

    def test_neural_train_flags_reach_the_neural_section(self, tmp_path):
        path = tmp_path / "moons.csv"
        path.write_text(to_csv(two_moons(80, seed=1)))
        plain, flagged = tmp_path / "plain", tmp_path / "flagged"
        argv = ["neural-train", "--data", str(path), "--epochs", "5"]
        assert main([*argv, "--out", str(plain)]) == 0
        assert main([*argv, "--eps-train", "0.1", "--cost", "0.1", "--steps", "3", "--out", str(flagged)]) == 0
        neural = json.loads((flagged / "manifest.json").read_text())["neural"]
        assert (neural["eps_train"], neural["cost"], neural["steps"]) == (0.1, 0.1, 3)
        assert (flagged / "net.json").read_bytes() != (plain / "net.json").read_bytes()

    def test_a_flag_prefix_is_not_a_flag(self, data_file, tmp_path, capsys):
        # neural-train offers --eps-train but not --eps
        out = tmp_path / "o"
        with pytest.raises(SystemExit) as exc:
            main(["neural-train", "--data", str(data_file), "--eps", "0.1", "--out", str(out)])
        assert exc.value.code == 2
        assert "error: unrecognized arguments: --eps 0.1\n" in capsys.readouterr().err
        assert not out.exists()


class TestNonFiniteValues:
    @pytest.mark.parametrize("command", ["eval", "bound"])
    @pytest.mark.parametrize("eps", ["nan", "inf"])
    def test_eps_flag(self, command, eps, data_file, tmp_path, capsys):
        out = tmp_path / "o"
        assert main([command, "--data", str(data_file), "--eps", eps, "--out", str(out)]) == 2
        key = "bound.eps" if command == "bound" else "attack.eps"  # the one --eps key each reads
        assert f"{key} must be finite" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "section,key,value",
        [
            ("attack", "eps", float("nan")),
            ("attack", "eps", "inf"),
            ("attack", "step_size", float("nan")),
            ("attack", "step_size", "inf"),
            ("train", "eps_train", float("nan")),
            ("train", "lam", float("nan")),
            ("train", "lam_prime", "inf"),
            ("train", "lr0", float("nan")),
            ("train", "alpha", "inf"),
            ("bench", "attack_eps", [0.0, float("nan")]),
            ("bench", "lam", float("nan")),
            ("bound", "eps", float("nan")),
            ("bound", "w_bound", "inf"),
            ("neural", "eps_train", float("nan")),
            ("neural", "lr", "inf"),
        ],
    )
    def test_config_value_names_its_field(self, section, key, value, data_file, tmp_path, capsys):
        obj = {"subcommand": "train", "dataset": str(data_file), "out": str(tmp_path / "o"), section: {key: value}}
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(obj))  # NaN is written as the JSON extension NaN
        assert main(["train", "--config", str(p)]) == 2
        err = capsys.readouterr().err
        assert f"{section}.{key} must" in err and "finite" in err
        assert not (tmp_path / "o").exists()

    _BENCH = {"methods": [["mh", 0.2]], "attack_eps": [0.0], "trials": 1, "train_size": 6, "epochs": 5}

    @pytest.mark.parametrize(
        "command, rows, config, message",
        [
            ("train", "zscore", {"train": {"normalize": "zscore"}},
             "cannot be normalized by train.normalize: the zscore statistics of feature 1 overflow float64"),
            ("neural-train", "zscore", {"neural": {"normalize": "zscore"}},
             "cannot be normalized by neural.normalize: the zscore statistics of feature 1 overflow float64"),
            ("bench", "zscore", {"bench": {**_BENCH, "normalize": "zscore", "rff_dim": 0}},
             "does not fit bench.normalize 'zscore' in trial 0: the zscore statistics of feature 1 overflow float64"),
            ("train", "minmax", {"train": {"normalize": "minmax01"}},
             "cannot be normalized by train.normalize: the minmax01 statistics of feature 1 overflow float64"),
            ("train", "far", {"train": {"normalize": "none", "features": {"dim": 8}}},
             "gives no train.features.sigma: the median pairwise distance of the training rows overflows float64"),
            ("bench", "far", {"bench": {**_BENCH, "normalize": "none", "rff_dim": 8}},
             "does not fit bench.rff_dim 8 in trial 0: "
             "the median pairwise distance of the training rows overflows float64"),
        ],
        ids=["train-zscore", "neural-train-zscore", "bench-zscore", "train-minmax", "train-rff", "bench-rff"],
    )
    def test_data_statistic_that_overflows(self, command, rows, config, message, tmp_path, capsys):
        # 8 rows whose feature 1 lies in 1e308..1.7e308, so its mean overflows; alternates between -1e308 and
        # 1e308, so its range overflows; or lies near 1e200, so every squared distance overflows
        rng = np.random.default_rng(8)
        first = {
            "zscore": 1e308 + 0.7e308 * rng.random(8),
            "minmax": 1e308 * (-1.0) ** np.arange(8),
            "far": 1e200 * (1.0 + rng.random(8)),
        }[rows]
        path = tmp_path / f"{rows}.libsvm"
        path.write_text("".join(f"{(-1) ** i:+d} 1:{v!r} 2:0.{i + 1}\n" for i, v in enumerate(first.tolist())))
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        out = tmp_path / "o"
        assert main([command, "--config", str(cfg), "--data", str(path), "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: dataset {str(path)!r} {message}\n"
        assert not out.exists()

    def test_held_out_rows_that_overflow_when_normalized(self, tmp_path, capsys):
        # the training range of feature 1 is 0.5, so 1.7e308 maps past the largest double
        data, held_out = tmp_path / "small.libsvm", tmp_path / "far.libsvm"
        data.write_text("-1 1:0.0 2:0.1\n+1 1:0.5 2:0.2\n-1 1:0.25 2:0.3\n+1 1:0.1 2:0.4\n")
        held_out.write_text("-1 1:1.7e308 2:0.1\n+1 1:0.5 2:0.2\n")
        out = tmp_path / "o"
        assert main(["train", "--data", str(data), "--test-data", str(held_out), "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"error: the held-out rows of {str(held_out)!r} cannot be normalized by the train.normalize stats "
            "of the training rows: features must be finite\n"
        )
        assert not out.exists()


class TestTrainCommand:
    def test_end_to_end_and_reproducible(self, data_file, tmp_path):
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        args = [
            "train", "--data", str(data_file), "--mode", "atro", "--cost", "0.2",
            "--eps-train", "0.05", "--epochs", "120", "--seed", "11",
        ]
        assert main(args + ["--out", str(out1)]) == 0
        for name in ("model.json", "trace.csv", "report.json", "manifest.json"):
            assert (out1 / name).is_file()
        assert main(args + ["--out", str(out2)]) == 0
        assert (out1 / "trace.csv").read_bytes() == (out2 / "trace.csv").read_bytes()
        assert (out1 / "report.json").read_bytes() == (out2 / "report.json").read_bytes()

    def test_rerun_from_manifest_is_identical(self, data_file, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["train", "--data", str(data_file), "--epochs", "80", "--out", str(out1)]) == 0
        manifest = json.loads((out1 / "manifest.json").read_text())
        manifest["out"] = str(out2)
        cfg_path = tmp_path / "rerun.json"
        cfg_path.write_text(json.dumps(manifest))
        assert main(["train", "--config", str(cfg_path)]) == 0
        assert (out1 / "trace.csv").read_bytes() == (out2 / "trace.csv").read_bytes()

    def test_missing_dataset_no_artifacts(self, tmp_path):
        out = tmp_path / "never"
        code = main(["train", "--data", str(tmp_path / "nope.libsvm"), "--out", str(out)])
        assert code == 2
        assert not out.exists()

    def test_non_finite_csv_cell_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("a,b,y\n0.1,nan,1\n0.2,0.3,-1\n")
        out = tmp_path / "o"
        assert main(["train", "--data", str(bad), "--out", str(out)]) == 2
        assert "line 2" in capsys.readouterr().err
        assert not out.exists()

    def test_undecodable_data_file_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bom.libsvm"
        bad.write_bytes(b"\xff\xfe\x00+\x001\x00")
        out = tmp_path / "o"
        assert main(["train", "--data", str(bad), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "bom.libsvm" in err and "cannot be decoded as text" in err
        assert not out.exists()

    def test_undecodable_config_file_exit_code(self, data_file, tmp_path, capsys):
        bad = tmp_path / "bom.json"
        bad.write_bytes(b"\xff\xfe\x00{\x00}\x00")
        out = tmp_path / "o"
        assert main(["train", "--config", str(bad), "--data", str(data_file), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "bom.json" in err and "cannot be decoded as text" in err
        assert not out.exists()

    def test_config_error_exit_code(self, data_file, tmp_path):
        code = main(["train", "--data", str(data_file), "--cost", "0.7", "--out", str(tmp_path / "o")])
        assert code == 2

    def test_numeric_failure_exit_code(self, data_file, tmp_path):
        cfg = {
            "subcommand": "train",
            "dataset": str(data_file),
            "out": str(tmp_path / "o"),
            "train": {"lam": 1e300, "lam_prime": 1e300, "lr0": 1e6, "epochs": 40},
        }
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(cfg))
        with np.errstate(over="ignore"):
            assert main(["train", "--config", str(p)]) == 3


class TestOtherCommands:
    @pytest.fixture
    def trained(self, data_file, tmp_path):
        out = tmp_path / "model_run"
        assert main(["train", "--data", str(data_file), "--epochs", "100", "--out", str(out)]) == 0
        return out / "model.json"

    def test_eval(self, trained, data_file, tmp_path):
        out = tmp_path / "eval_run"
        code = main([
            "eval", "--model", str(trained), "--data", str(data_file),
            "--attack", "analytic_linear", "--eps", "0.05", "--out", str(out),
        ])
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        counts = report["counts"]
        assert counts["TA"] + counts["TR"] + counts["FA"] + counts["FR"] == 120
        assert (out / "report.csv").is_file()

    def test_eval_writes_the_attack_csv(self, trained, data_file, tmp_path):
        out = tmp_path / "eval_run"
        assert main([
            "eval", "--model", str(trained), "--data", str(data_file),
            "--eps", "0.05", "--out", str(out),
        ]) == 0
        lines = (out / "attack.csv").read_text().strip().splitlines()
        assert lines[0] == "index,y,clean_loss,worst_loss,winner"
        assert len(lines) == 121
        model = RejectionModel.from_json(trained.read_text())
        ds = model.norm_stats.apply(parse_libsvm(data_file.read_text()))
        f, r = model.scores(ds.x)
        clean = loss_01c(f, r, ds.y, 0.2)  # the run-level default cost
        rows = [line.split(",") for line in lines[1:]]
        assert [row[2] for row in rows] == [repr(float(v)) for v in clean]
        assert all(float(row[3]) >= float(row[2]) for row in rows)
        # the rows add up to report.json's totals
        report = json.loads((out / "report.json").read_text())
        assert float(np.mean([float(row[3]) for row in rows])) == report["mean_loss_01c"]
        wins = {name: sum(row[4] == name for row in rows) for name in report["candidate_wins"]}
        assert wins == report["candidate_wins"] and sum(wins.values()) == 120

    def test_bound(self, trained, data_file, tmp_path):
        out = tmp_path / "bound_run"
        assert main([
            "bound", "--model", str(trained), "--data", str(data_file),
            "--eps", "0.01", "--out", str(out),
        ]) == 0
        rep = json.loads((out / "bound.json").read_text())
        assert rep["total"] >= rep["empirical_risk"]
        manifest = json.loads((out / "manifest.json").read_text())
        assert isinstance(manifest["bound"]["w_bound"], float)  # "auto" resolved

    def test_bound_auto_on_an_all_zero_model(self, data_file, tmp_path, capsys):
        zero = tmp_path / "zero.json"
        zero.write_text(RejectionModel(np.zeros(2), np.zeros(2)).to_json())
        out = tmp_path / "o"
        assert main(["bound", "--model", str(zero), "--data", str(data_file), "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            f'error: bound.w_bound "auto" is 0.0, the largest weight norm of model {str(zero)!r}, '
            "but w_bound must be finite and positive\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize("command", ["eval", "bound"])
    def test_dataset_featurized_once(self, command, data_file, tmp_path, monkeypatch):
        run = tmp_path / "rff_run"
        assert main(["train", "--data", str(data_file), "--rff-dim", "16", "--epochs", "60", "--out", str(run)]) == 0
        rows = []
        inner = advreject.model.featurize

        def counting(fm, x):
            rows.append(len(x))
            return inner(fm, x)

        monkeypatch.setattr(advreject.model, "featurize", counting)
        assert main([
            command, "--model", str(run / "model.json"), "--data", str(data_file),
            "--eps", "0.05", "--out", str(tmp_path / "o"),
        ]) == 0
        assert rows == [120]

    @pytest.mark.parametrize(
        "command,files",
        [
            ("train", {"model.json", "trace.csv", "report.json"}),
            ("eval", {"report.json", "report.csv", "attack.csv"}),
            ("attack", set()),  # removed: exits 2 and writes nothing
            ("bound", {"bound.json"}),
            ("bench", {"bench.csv", "bench.txt"}),
            ("neural-train", {"net.json", "trace.csv"}),
        ],
    )
    def test_out_holds_the_command_files(self, command, files, trained, data_file, tmp_path, capsys):
        bench = {"methods": [["mh", 0.2]], "attack_eps": [0.0], "trials": 1, "train_size": 60, "rff_dim": 0, "epochs": 20}
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps({"bench": bench}))
        out = tmp_path / "o"
        # each command takes only the flags it reads
        flags = {
            "train": ["--epochs", "20"], "neural-train": ["--epochs", "20"], "bench": [],
        }.get(command, ["--model", str(trained)])
        argv = [command, "--config", str(p), "--data", str(data_file), *flags, "--out", str(out)]
        if command in REMOVED_COMMANDS:
            _assert_removed_command(argv, capsys)
            assert not out.exists()
            return
        assert main(argv) == 0
        assert {f.name for f in out.iterdir()} == files | {"manifest.json"}

    def test_missing_model(self, data_file, tmp_path):
        assert main(["eval", "--data", str(data_file), "--out", str(tmp_path / "o")]) == 2

    @pytest.mark.parametrize("below", [False, True])
    def test_out_that_cannot_be_a_directory(self, below, trained, data_file, tmp_path, capsys):
        # --out names an existing file, or a path below one
        afile = tmp_path / "afile"
        afile.write_text("x")
        out = afile / "sub" if below else afile
        assert main(["eval", "--model", str(trained), "--data", str(data_file), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(out) in err and "Traceback" not in err
        assert afile.read_text() == "x"

    def test_failed_write_leaves_no_new_file(self, trained, data_file, tmp_path, capsys):
        # report.csv cannot be written, as a directory holds its name: the
        # run fails, and report.json and manifest.json are not left behind
        out = tmp_path / "partial"
        (out / "report.csv").mkdir(parents=True)
        assert main(["eval", "--model", str(trained), "--data", str(data_file), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "report.csv" in err and "Traceback" not in err
        assert [p.name for p in out.iterdir()] == ["report.csv"]
        assert list((out / "report.csv").iterdir()) == []

    def test_failed_rename_removes_the_directories_it_made(self, trained, data_file, tmp_path, monkeypatch):
        def fail(src, dst):
            raise OSError(f"cannot rename to {dst}")

        monkeypatch.setattr(advreject.cli, "os", SimpleNamespace(replace=fail))
        out = tmp_path / "new" / "run"
        assert main(["eval", "--model", str(trained), "--data", str(data_file), "--out", str(out)]) == 2
        assert not (tmp_path / "new").exists()

    @pytest.mark.parametrize("command", ["eval", "bound"])
    def test_malformed_model_json(self, command, data_file, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"theta": [1.0,')
        assert main([command, "--model", str(bad), "--data", str(data_file), "--out", str(tmp_path / "o")]) == 2
        assert "bad.json" in capsys.readouterr().err

    @pytest.mark.parametrize("text", ['"abc"', "[1, 2]", "null"])
    def test_model_json_not_an_object(self, text, data_file, tmp_path, capsys):
        bad = tmp_path / "scalar.json"
        bad.write_text(text)
        assert main(["eval", "--model", str(bad), "--data", str(data_file), "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == f"error: model {str(bad)!r} is not a model JSON: ValueError: not an object\n"

    def test_model_json_missing_feature_map(self, trained, data_file, tmp_path, capsys):
        obj = json.loads(trained.read_text())
        del obj["feature_map"]
        bad = tmp_path / "nofm.json"
        bad.write_text(json.dumps(obj))
        assert main(["eval", "--model", str(bad), "--data", str(data_file), "--out", str(tmp_path / "o")]) == 2
        assert "feature_map" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["eval", "bound"])
    @pytest.mark.parametrize(
        "section, key, value",
        [
            ("norm_stats", "constant", [False]), ("norm_stats", "lo", 5), ("feature_map", "seed", -1),
            # feature_map's integer fields refuse floats and bools, which numpy would reject or read as 1
            ("feature_map", "seed", 1.5), ("feature_map", "dim", 200.0), ("feature_map", "seed", True),
            ("feature_map", "input_dim", 14.5),
            # number fields refuse bools and strings, which float64 would read as 1.0 or parse, and unknown keys
            ("feature_map", "sigma", True), (None, "bias_theta", "0.5"), (None, "bias_gamma", True),
            (None, "theta", lambda old: [True] * len(old)), ("norm_stats", "lo", lambda old: ["0.1", *old[1:]]),
            (None, "thetaa", [0.0]),
            # flags refuse numbers and strings, which bool would read by truth
            ("norm_stats", "constant", lambda old: [0] * len(old)),
            ("norm_stats", "constant", lambda old: ["no", *old[1:]]), ("norm_stats", "constant", "false"),
        ],
    )
    def test_inconsistent_model_json_names_its_field(self, command, section, key, value, trained, data_file,
                                                     tmp_path, capsys):
        obj = json.loads(trained.read_text())
        node = obj if section is None else obj[section]
        node[key] = value(node[key]) if callable(value) else value
        bad = tmp_path / "inconsistent.json"
        bad.write_text(json.dumps(obj))
        assert main([command, "--model", str(bad), "--data", str(data_file), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert "inconsistent.json" in err and key in err and "Traceback" not in err

    @pytest.mark.parametrize("command", ["eval", "bound"])
    @pytest.mark.parametrize(
        "key, value, message",
        [
            ("hi", float("nan"), "norm_stats.hi must be finite"),
            ("lo", float("-inf"), "norm_stats.lo must be finite"),
            ("scheme", "bogus", "norm_stats.scheme must be one of minmax01/zscore/none, got 'bogus'"),
            # stats that normalize cannot write: (x - lo) / (hi - lo) would map the feature to 0
            (("lo", "hi"), (-1e308, 1e308),
             "norm_stats.hi - norm_stats.lo must be finite under minmax01, not at feature 1"),
            ("lo", 2.0, "norm_stats.hi must be >= norm_stats.lo under minmax01, not at feature 1"),
            ("constant", True,
             "norm_stats.constant must be true exactly where hi == lo under minmax01, not at feature 1"),
            (("scheme", "hi"), ("zscore", -1.0),
             "norm_stats.hi is a std under zscore and must be >= 0, not at feature 1"),
        ],
    )
    def test_bad_norm_stats_blame_the_model(self, command, key, value, message, trained, data_file, tmp_path,
                                            capsys):
        # the model file is at fault, not the dataset, and the field is named by its JSON path
        obj = json.loads(trained.read_text())
        stats = obj["norm_stats"]
        edits = zip(key, value) if isinstance(key, tuple) else [(key, value)]
        for k, v in edits:
            if isinstance(stats[k], list):
                stats[k][0] = v
            else:
                stats[k] = v
        bad = tmp_path / "bad_stats.json"
        bad.write_text(json.dumps(obj))
        assert main([command, "--model", str(bad), "--data", str(data_file), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert f"model {str(bad)!r} is not a model JSON: ValueError: {message}" in err
        assert "does not fit" not in err and "Traceback" not in err

    def test_dataset_dimension_mismatch(self, trained, tmp_path, capsys):
        wide = tmp_path / "wide.libsvm"
        wide.write_text(to_libsvm(credit_surrogate(seed=0)))
        assert main(["eval", "--model", str(trained), "--data", str(wide), "--out", str(tmp_path / "o")]) == 2
        assert "dimension" in capsys.readouterr().err

    def test_bench(self, data_file, tmp_path):
        out = tmp_path / "bench_run"
        cfg = {
            "subcommand": "bench",
            "dataset": str(data_file),
            "out": str(out),
            "seed": 5,
            "bench": {
                "methods": [["mh", 0.2], ["atro", 0.2]],
                "attack_eps": [0.0, 0.05],
                "trials": 2,
                "train_size": 60,
                "epochs": 80,
                "rff_dim": 16,
            },
        }
        p = tmp_path / "bench.json"
        p.write_text(json.dumps(cfg))
        assert main(["bench", "--config", str(p)]) == 0
        csv = (out / "bench.csv").read_text().strip().splitlines()
        assert len(csv) == 1 + 2 * 2  # header + methods x eps
        assert (out / "bench.txt").is_file()

    def test_bench_dataset_not_larger_than_train_size(self, data_file, tmp_path, capsys):
        cfg = {"subcommand": "bench", "dataset": str(data_file), "out": str(tmp_path / "o"), "bench": {"train_size": 120}}
        p = tmp_path / "bench.json"
        p.write_text(json.dumps(cfg))
        assert main(["bench", "--config", str(p)]) == 2
        assert "bench.train_size" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "master, seeds", [(0, (1610069009, 673228719, 1093961225)), (7, (1201125462, 1471499523, 1684166797))]
    )
    def test_run_seeds_are_pinned(self, master, seeds, data_file, tmp_path, monkeypatch):
        # the split, feature and attack seeds of a run; if they move, every trained model and report moves
        splits = []
        split = advreject.cli.split
        monkeypatch.setattr(advreject.cli, "split", lambda *args, seed: splits.append(seed) or split(*args, seed))
        args = ["--data", str(data_file), "--seed", str(master), "--attack", "pgd", "--eps", "0.1"]
        assert main(["train", *args, "--rff-dim", "8", "--epochs", "5", "--out", str(tmp_path / "t")]) == 0
        model = json.loads((tmp_path / "t" / "model.json").read_text())
        assert main(["eval", *args, "--model", str(tmp_path / "t" / "model.json"), "--out", str(tmp_path / "e")]) == 0
        attack = [json.loads((tmp_path / d / "report.json").read_text())["attack"]["seed"] for d in "te"]
        assert (splits, model["feature_map"]["seed"], attack) == ([seeds[0]], seeds[1], [seeds[2]] * 2)

    @pytest.mark.parametrize(
        "grid, message",
        [
            ({"methods": [["mh", 0.2], ["atro", 0.2], ["mh", 0.2]]}, "bench.methods[2] repeats methods[0]"),
            ({"attack_eps": [0.0, 0.01, 0.01]}, "bench.attack_eps must be a non-empty list of distinct"),
        ],
    )
    def test_bench_grid_with_a_repeated_entry(self, grid, message, data_file, tmp_path, capsys):
        # a repeated method trained twice and kept one csv row; a repeated radius wrote two
        bench = {"methods": [["mh", 0.2]], "attack_eps": [0.0], "trials": 1, "train_size": 60, "epochs": 10, **grid}
        p = tmp_path / "bench.json"
        p.write_text(json.dumps({"subcommand": "bench", "dataset": str(data_file), "bench": bench}))
        out = tmp_path / "o"
        assert main(["bench", "--config", str(p), "--out", str(out)]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_bench_rff_dim_flag_zero_is_identity_features(self, data_file, tmp_path):
        # bench reads only its own section: --rff-dim 0 there is bench.rff_dim 0, as from --config
        bench = {"methods": [["mh", 0.2]], "attack_eps": [0.0, 0.05], "trials": 1, "train_size": 60, "epochs": 20}
        cfg, cfg_zero = tmp_path / "bench.json", tmp_path / "bench-zero.json"
        run = {"subcommand": "bench", "dataset": str(data_file)}
        cfg.write_text(json.dumps({**run, "bench": bench}))
        cfg_zero.write_text(json.dumps({**run, "bench": {**bench, "rff_dim": 0}}))
        by_config, by_flag = tmp_path / "by-config", tmp_path / "by-flag"
        assert main(["bench", "--config", str(cfg_zero), "--out", str(by_config)]) == 0
        assert main(["bench", "--config", str(cfg), "--rff-dim", "0", "--out", str(by_flag)]) == 0
        assert (by_flag / "bench.csv").read_bytes() == (by_config / "bench.csv").read_bytes()
        assert json.loads((by_flag / "manifest.json").read_text())["bench"]["rff_dim"] == 0

    @pytest.mark.parametrize(
        "flag, value",
        [
            ("--test-data", "held-out.libsvm"), ("--model", "model.json"), ("--mode", "mh"), ("--cost", "0.2"),
            ("--eps", "0.1"), ("--eps-train", "0.01"), ("--attack", "fgsm"), ("--steps", "5"), ("--norm", "l2"),
            ("--epochs", "50"), ("--features", "identity"),
        ],
    )
    def test_bench_rejects_a_flag_it_does_not_read(self, flag, value, data_file, tmp_path, capsys, monkeypatch):
        # the bench row of TestFlagRule's matrix, with the protocol itself in place
        monkeypatch.setattr(advreject.cli, "run_protocol", None)  # fails the run if the protocol starts
        out = tmp_path / "o"
        with pytest.raises(SystemExit) as exc:
            main(["bench", "--data", str(data_file), "--out", str(out), flag, value])
        assert exc.value.code == 2
        assert f"error: unrecognized arguments: {flag} {value}\n" in capsys.readouterr().err
        assert not out.exists()

    def test_bench_takes_the_flags_it_reads(self, data_file, tmp_path):
        bench = {"methods": [["mh", 0.2]], "attack_eps": [0.0], "train_size": 60, "epochs": 10}
        p = tmp_path / "bench.json"
        p.write_text(json.dumps({"bench": bench}))
        out = tmp_path / "o"
        assert main([
            "bench", "--config", str(p), "--data", str(data_file), "--out", str(out), "--seed", "3",
            "--rff-dim", "8", "--trials", "2",
        ]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert (manifest["dataset"], manifest["out"], manifest["seed"]) == (str(data_file), str(out), 3)
        assert (manifest["bench"]["rff_dim"], manifest["bench"]["trials"]) == (8, 2)
        assert manifest["train"]["features"]["dim"] == 0  # --rff-dim sets only bench.rff_dim here

    def test_train_rff_dim_flag_zero_is_identity_features(self, data_file, tmp_path):
        # train.features.dim means what bench.rff_dim means: 0, the default, keeps the input
        plain, zero = tmp_path / "plain", tmp_path / "zero"
        assert main(["train", "--data", str(data_file), "--epochs", "20", "--out", str(plain)]) == 0
        assert main(["train", "--data", str(data_file), "--epochs", "20", "--rff-dim", "0", "--out", str(zero)]) == 0
        assert (zero / "model.json").read_bytes() == (plain / "model.json").read_bytes()
        assert json.loads((zero / "model.json").read_text())["feature_map"]["kind"] == "identity"
        assert json.loads((zero / "manifest.json").read_text())["train"]["features"] == {"dim": 0, "sigma": "median"}

    def test_train_rff_dim_freezes_the_median_bandwidth(self, data_file, tmp_path):
        out = tmp_path / "o"
        assert main(["train", "--data", str(data_file), "--epochs", "20", "--rff-dim", "16", "--out", str(out)]) == 0
        fm = json.loads((out / "model.json").read_text())["feature_map"]
        assert (fm["kind"], fm["dim"], fm["input_dim"]) == ("random_fourier", 16, 2)
        assert json.loads((out / "manifest.json").read_text())["train"]["features"] == {"dim": 16, "sigma": fm["sigma"]}

    @pytest.mark.parametrize("command", ["train", "neural-train"])
    @pytest.mark.parametrize("rows,problem", [(1, "need at least 2 samples"), (2, "fraction 0.8 leaves one side")])
    def test_dataset_too_small_to_split(self, command, rows, problem, tmp_path, capsys):
        path = tmp_path / "tiny.libsvm"
        path.write_text("".join(f"{(-1) ** i:+d} 1:0.{i + 1} 2:0.5\n" for i in range(rows)))
        out = tmp_path / "o"
        assert main([command, "--data", str(path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        section = "train" if command == "train" else "neural"
        assert err.startswith(f"error: dataset {str(path)!r} cannot be split by {section}.train_fraction: {problem}")
        assert not out.exists()

    @pytest.mark.parametrize("command", ["train", "neural-train"])
    def test_test_data_of_another_dimension(self, command, data_file, tmp_path, capsys, monkeypatch):
        wide = tmp_path / "wide.libsvm"
        wide.write_text(to_libsvm(credit_surrogate(seed=0)))
        monkeypatch.setattr(advreject.cli, "train", None)  # fails the run if training starts
        monkeypatch.setattr(advreject.cli, "train_neural", None)
        out = tmp_path / "o"
        assert main([command, "--data", str(data_file), "--test-data", str(wide), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"test dataset {str(wide)!r} has dimension 14, but dataset {str(data_file)!r} has 2" in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["train", "neural-train"])
    @pytest.mark.parametrize("held_out", [False, True])
    def test_dataset_of_labels_alone(self, command, held_out, data_file, tmp_path, capsys):
        labels = tmp_path / "labels.libsvm"
        labels.write_text("+1\n-1\n" * 10)
        data = ["--data", str(data_file), "--test-data", str(labels)] if held_out else ["--data", str(labels)]
        out = tmp_path / "o"
        assert main([command, *data, "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: dataset {str(labels)!r} has labels but no feature column\n"
        assert not out.exists()

    @pytest.mark.parametrize("command", ["train", "eval", "bench", "neural-train"])
    def test_negative_seed(self, command, trained, data_file, tmp_path, capsys):
        model = ["--model", str(trained)] if command == "eval" else []
        out = tmp_path / "o"
        assert main([command, "--data", str(data_file), *model, "--seed", "-1", "--out", str(out)]) == 2
        assert capsys.readouterr().err == "error: seed must be >= 0\n"
        assert not out.exists()

    def test_neural_train(self, tmp_path, capsys):
        path, held_out = tmp_path / "moons.csv", tmp_path / "held-out.csv"
        path.write_text(to_csv(two_moons(80, seed=1)))
        held_out.write_text(to_csv(two_moons(60, seed=2)))
        out = tmp_path / "nn_run"
        argv = ["neural-train", "--data", str(path), "--test-data", str(held_out), "--epochs", "200"]
        assert main([*argv, "--out", str(out)]) == 0
        assert (out / "net.json").is_file() and (out / "trace.csv").is_file()
        # the summary's held-out err/rej are evaluate_model's on the test split (normalize "none")
        net = ToyNet.from_json((out / "net.json").read_text())
        params = validate_config((out / "manifest.json").read_text()).neural.config.params
        report = evaluate_model(net, parse_csv(held_out.read_text()), AttackSpec(), params)
        assert 0 < report.rej < 1  # some rows accepted, some rejected
        assert capsys.readouterr().out.endswith(f"; held-out err {report.err:.4f} rej {report.rej:.4f}\n")
