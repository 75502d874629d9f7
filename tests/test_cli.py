import itertools
import json
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import advreject.cli
import advreject.model
from advreject.cli import main
from advreject.config import ConfigError, validate_config
from advreject.data import parse_libsvm, to_csv, to_libsvm
from advreject.losses import loss_01c
from advreject.model import RejectionModel
from advreject.synth import credit_surrogate, two_clusters, two_moons


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
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(config))
        out = tmp_path / "o"
        assert main(["train", "--config", str(p), "--data", str(data_file), "--out", str(out), *flag]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    def test_flags_set_every_key_they_name(self, data_file, tmp_path):
        out = tmp_path / "o"
        assert main([
            "train", "--data", str(data_file), "--features", "identity", "--rff-dim", "16",
            "--eps", "0.03", "--epochs", "7", "--out", str(out),
        ]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["train"]["features"]["kind"] == "random_fourier"
        assert manifest["train"]["features"]["dim"] == manifest["bench"]["rff_dim"] == 16
        assert manifest["attack"]["eps"] == manifest["bound"]["eps"] == 0.03
        assert manifest["train"]["epochs"] == manifest["neural"]["epochs"] == 7

    def test_help_names_the_keys_a_flag_sets(self, capsys):
        with pytest.raises(SystemExit):
            main(["eval", "--help"])
        text = " ".join(capsys.readouterr().out.split())
        assert "attack radius; sets attack.eps, bound.eps" in text
        assert "sets train.features.dim, train.features.kind=random_fourier, bench.rff_dim" in text

    def test_readme_flag_table_matches_the_flags(self):
        # the same flags in the same order, each with the keys it sets; a fixed value shows as `key` = `value`
        lines = (Path(__file__).parents[1] / "README.md").read_text().splitlines()
        start = lines.index("| flag | config keys |") + 2
        rows = list(itertools.takewhile(lambda line: line.startswith("|"), lines[start:]))

        def keys(paths):
            return ", ".join("`{}` = `{}`".format(*p.split("=")) if "=" in p else f"`{p}`" for p in paths)

        assert rows == [f"| `{flag}` | {keys(paths)} |" for flag, _, _, paths in advreject.cli._FLAGS]


class TestNonFiniteValues:
    @pytest.mark.parametrize("command", ["eval", "bound"])
    @pytest.mark.parametrize("eps", ["nan", "inf"])
    def test_eps_flag(self, command, eps, data_file, tmp_path, capsys):
        out = tmp_path / "o"
        assert main([command, "--data", str(data_file), "--eps", eps, "--out", str(out)]) == 2
        assert "attack.eps must be finite" in capsys.readouterr().err
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

    def test_attack_csv(self, trained, data_file, tmp_path):
        out = tmp_path / "atk_run"
        assert main([
            "attack", "--model", str(trained), "--data", str(data_file),
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

    @pytest.mark.parametrize("command", ["eval", "attack", "bound"])
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
            ("eval", {"report.json", "report.csv"}),
            ("attack", {"attack.csv"}),
            ("bound", {"bound.json"}),
            ("bench", {"bench.csv", "bench.txt"}),
            ("neural-train", {"net.json", "trace.csv"}),
        ],
    )
    def test_out_holds_the_command_files(self, command, files, trained, data_file, tmp_path):
        bench = {"methods": [["mh", 0.2]], "attack_eps": [0.0], "trials": 1, "train_size": 60, "rff_dim": 0, "epochs": 20}
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps({"bench": bench}))
        out = tmp_path / "o"
        # bench takes neither --model nor --epochs (it exits 2 on flags it does not read)
        flags = [] if command == "bench" else ["--model", str(trained), "--epochs", "20"]
        assert main([command, "--config", str(p), "--data", str(data_file), *flags, "--out", str(out)]) == 0
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

    @pytest.mark.parametrize("command", ["eval", "attack", "bound"])
    def test_malformed_model_json(self, command, data_file, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"theta": [1.0,')
        assert main([command, "--model", str(bad), "--data", str(data_file), "--out", str(tmp_path / "o")]) == 2
        assert "bad.json" in capsys.readouterr().err

    def test_model_json_missing_feature_map(self, trained, data_file, tmp_path, capsys):
        obj = json.loads(trained.read_text())
        del obj["feature_map"]
        bad = tmp_path / "nofm.json"
        bad.write_text(json.dumps(obj))
        assert main(["eval", "--model", str(bad), "--data", str(data_file), "--out", str(tmp_path / "o")]) == 2
        assert "feature_map" in capsys.readouterr().err

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
        monkeypatch.setattr(advreject.cli, "run_protocol", None)  # fails the run if the protocol starts
        out = tmp_path / "o"
        assert main(["bench", "--data", str(data_file), "--out", str(out), flag, value]) == 2
        assert capsys.readouterr().err.startswith(f"error: {flag} has no effect on bench: it sets ")
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
        assert manifest["train"]["features"]["kind"] == "identity"  # --rff-dim sets only bench.rff_dim here

    def test_train_rff_dim_flag_zero_is_an_error(self, data_file, tmp_path, capsys):
        out = tmp_path / "o"
        assert main(["train", "--data", str(data_file), "--rff-dim", "0", "--out", str(out)]) == 2
        assert "train.features.dim must be positive" in capsys.readouterr().err
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

    def test_neural_train(self, tmp_path):
        ds = two_moons(80, seed=1)
        path = tmp_path / "moons.csv"
        path.write_text(to_csv(ds))
        out = tmp_path / "nn_run"
        assert main(["neural-train", "--data", str(path), "--epochs", "10", "--out", str(out)]) == 0
        assert (out / "net.json").is_file() and (out / "trace.csv").is_file()
