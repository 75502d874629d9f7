"""Self-test of the benchmark harness at minimal input sizes.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

run.import_program()
import make_fixtures  # noqa: E402
import workloads  # noqa: E402
from advreject.model import RejectionModel  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
NAMES = [w["name"] for w in SPEC["workloads"]]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", NAMES)
def test_every_listed_metric_is_emitted_with_its_unit(name, trace):
    record = run.run_workload(name, seed=3, seconds=0.01, trace=bool(trace), sizes=workloads.SMOKE)
    assert record["failures"] == []
    line = run.result_line(record, SPEC)
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 2
    listed = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(line["metrics"]) == [m["name"] for m in listed]
    for m in listed:
        got = line["metrics"][m["name"]]
        assert got["unit"] == m["unit"] and math.isfinite(got["value"])
    if not trace:
        assert all(v["value"] > 0 for v in line["metrics"].values())
    else:
        assert record["figures"]["fail_ratio"] == 0
        assert record["spans"], "a traced run records spans"


def test_an_injected_failing_check_raises_fail_ratio():
    record = run.run_workload("neural-minmax", seed=3, seconds=0.01, trace=True,
                              sizes=workloads.SMOKE, extra_check=lambda outcome: ["injected"])
    line = run.result_line(record, SPEC)
    assert line["failed"] == line["attempted"] and not line["correct"]
    assert line["metrics"]["fail_ratio"]["value"] == 1.0


def test_an_exception_in_a_layer_counts_as_a_failed_pass_and_a_layer_error(monkeypatch):
    def broken(*args, **kwargs):
        raise FloatingPointError("injected")

    monkeypatch.setattr(workloads.neural, "adv_risk_01c_net", broken)
    record = run.run_workload("neural-minmax", seed=3, seconds=0.01, trace=True, sizes=workloads.SMOKE)
    assert record["failed"] == record["attempted"]
    assert record["figures"]["neural.errors"] >= 1


def test_fixture_models_load_and_match_their_recipe():
    for stem, generator, rff_dim, mode in make_fixtures.FIXTURES:
        model = RejectionModel.from_json((make_fixtures.FIXTURE_DIR / f"{stem}.json").read_text())
        assert model.feat_dim == (rff_dim or 8)
    stem, generator, rff_dim, mode = make_fixtures.FIXTURES[2]
    retrained = make_fixtures.train_fixture(generator, rff_dim, mode).to_json() + "\n"
    assert retrained == (make_fixtures.FIXTURE_DIR / f"{stem}.json").read_text()


def test_benchmark_file_follows_its_schema():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]] + NAMES
    assert len(names) == len(set(names))
    assert all(set(m) == {"name", "unit", "better", "bound"} and 0 < m["bound"] <= 0.25
               for m in SPEC["end_to_end"])
    assert all(set(m) == {"name", "unit", "better"} for m in SPEC["per_layer"])
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


def test_exits_nonzero_without_a_result_when_the_program_is_missing(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", NAMES[0], "--seed", "1", "--seconds", "1",
         "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
