"""Benchmark entry point.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

runs one workload of BENCHMARK.json in this process: it times the set-up
several times, runs one checked warm-up pass, then repeats checked passes
until ``--seconds`` have been measured. With ``--trace 0`` the passes run
bare and the last stdout line holds the end-to-end metrics; with
``--trace 1`` the first half of the time runs bare and the second half with
spans on every layer's public functions, and the last line holds the
per-layer metrics, including the tracing overhead (traced over bare median
pass time). ``--workload all`` runs every workload in its own fresh process,
one after another, and prefixes each metric of its last line with the
workload's name.

The last stdout line is one JSON object with the keys correct, attempted,
failed and metrics. A pass is one attempted operation; it fails when it
raises or when an output check fails. Earlier lines give the environment
record, every figure with its unit, and the check results. A full record
(and, when traced, every span) is written to .perfbench_out/ in the
checkout. BLAS runs single-threaded: the thread count is pinned before
numpy loads and recorded.

The gated times (set-up and pass) are normalized by a reference kernel
timed between passes, because the host's speed drifts by up to 2x over
minutes; reference.py explains how. The raw times are reported as well.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_MIN_REPS, SETUP_MIN_S, SETUP_MAX_REPS = 5, 0.5, 5000
REFERENCE_SHARE = 0.1  # reference-kernel time between passes, as a share of a pass
EXIT_NO_PROGRAM = 2


def parse_args(argv=None):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=names + ["all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv), spec


def import_program():
    """Import advreject from this checkout's src/ only; exit 2 if it is absent."""
    src = ROOT / "src"
    if not (src / "advreject" / "__init__.py").is_file():
        print(f"error: no program to benchmark: {src / 'advreject'} is missing", file=sys.stderr)
        raise SystemExit(EXIT_NO_PROGRAM)
    sys.path[:0] = [str(src), str(HERE)]
    import advreject

    if Path(advreject.__file__).resolve().parent != (src / "advreject").resolve():
        print(f"error: advreject was imported from {advreject.__file__}, not {src}", file=sys.stderr)
        raise SystemExit(EXIT_NO_PROGRAM)


def environment(seed: int) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "commit": git_commit(),
        "seed": seed,
        "src_lines": sum(len(p.read_text().splitlines()) for p in (ROOT / "src").rglob("*.py")),
        "loop": "closed, 1 caller, 1 process, no threads",
    }


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


class Runner:
    """Closed-loop runner of one workload: set-up, warm-up, timed passes.

    The reference kernel runs between passes; every time is reported raw
    and normalized to the kernel's nominal speed (see reference.py)."""

    def __init__(self, workload, extra_check=None):
        self.wl = workload
        self.extra_check = extra_check
        self.attempted = 0
        self.failed_passes: set[int] = set()
        self.failures: list[str] = []
        from reference import NOMINAL_S, ReferenceKernel  # imports numpy: after the thread pin

        self.kernel, self.nominal_s = ReferenceKernel(), NOMINAL_S
        self.reference_times: list[float] = []

    def reference(self, reps: int = 1) -> float:
        """Mean time of ``reps`` runs of the reference kernel."""
        times = [self.kernel.seconds() for _ in range(reps)]
        self.reference_times += times
        return statistics.fmean(times)

    def timed_setup(self) -> tuple[float, float]:
        """Median set-up time: (raw, normalized) seconds."""
        around = [self.reference() for _ in range(3)]
        times = []
        while len(times) < SETUP_MAX_REPS and (len(times) < SETUP_MIN_REPS or sum(times) < SETUP_MIN_S):
            t0 = time.perf_counter()
            self.wl.setup()
            times.append(time.perf_counter() - t0)
        around += [self.reference() for _ in range(3)]
        raw = statistics.median(times)
        return raw, raw * self.nominal_s / statistics.median(around)

    def one_pass(self, tracer=None) -> float | None:
        """Run, time and check one pass; the seconds, or None if it raised."""
        self.attempted += 1
        if tracer is not None:
            tracer.pass_id = self.attempted
        try:
            t0 = time.perf_counter()
            outcome = self.wl.run_pass()
            dt = time.perf_counter() - t0
        except Exception:
            self.fail(f"raised\n{traceback.format_exc()}")
            return None
        finally:
            if tracer is not None:
                tracer.pass_id = -1
        try:
            problems = self.wl.check(outcome)
            if self.extra_check is not None:
                problems += self.extra_check(outcome)
        except Exception:
            problems = [f"check raised\n{traceback.format_exc()}"]
        for problem in problems:
            self.fail(problem)
        return dt

    def fail(self, problem: str) -> None:
        self.failed_passes.add(self.attempted)
        self.failures.append(f"pass {self.attempted}: {problem}")

    def passes(self, seconds: float, tracer=None) -> list[tuple[float, float]]:
        """Closed loop: the next pass starts when the previous one returned.
        Returns (raw, normalized) seconds of each pass that did not raise."""
        times = []
        start = time.perf_counter()
        before = self.reference()
        while not times or time.perf_counter() - start < seconds:
            dt = self.one_pass(tracer)
            # sample the machine's speed for about a tenth of the pass time
            after = self.reference(max(1, round(REFERENCE_SHARE * (dt or 0.0) / before)))
            if dt is not None:
                times.append((dt, dt * self.nominal_s / ((before + after) / 2)))
            elif time.perf_counter() - start >= seconds:
                break
            before = after
        return times

    @property
    def failed(self) -> int:
        return len(self.failed_passes)


def run_workload(name: str, seed: int, seconds: float, trace: bool, sizes=None, extra_check=None) -> dict:
    """Run one workload in this process; returns its full record."""
    import workloads
    from tracer import Tracer

    sizes = sizes or workloads.FULL
    workdir = ROOT / ".perfbench_work" / f"{name}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    wl = workloads.WORKLOADS[name](seed, sizes, workdir)
    runner = Runner(wl, extra_check)
    tracer = Tracer() if trace else None
    try:
        setup_raw, setup_s = runner.timed_setup()
        runner.one_pass()  # warm-up: fills caches and the first-pass reference
        wl.reset_timers()
        bare = runner.passes(seconds / 2 if trace else seconds)
        pass_s = _median([n for _, n in bare])
        figures = dict.fromkeys(workloads.WORKLOAD_FIGURES, 0.0)
        figures.update(wl.figures(pass_s))
        figures.update(setup_s=setup_s, setup_raw_s=setup_raw, pass_s=pass_s,
                       pass_raw_s=_median([r for r, _ in bare]))
        if trace:
            workloads.install_spans(tracer)
            try:
                wl.setup()
                traced = runner.passes(seconds / 2, tracer)
            finally:
                tracer.uninstall()
            traced_s = _median([n for _, n in traced])
            figures.update(workloads.layer_metrics(tracer, max(len(traced), 1)))
            figures["trace.untraced_pass_s"] = pass_s
            figures["trace.traced_pass_s"] = traced_s
            figures["trace.overhead_ratio"] = traced_s / pass_s
    finally:
        wl.close()
        shutil.rmtree(workdir, ignore_errors=True)
    figures["reference_s"] = _median(runner.reference_times)
    figures["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    figures["fail_ratio"] = runner.failed / runner.attempted
    return {
        "workload": name, "trace": int(trace), "attempted": runner.attempted, "failed": runner.failed,
        "failures": runner.failures, "figures": figures, "pass_times": bare, "table": getattr(wl, "table", ""),
        "spans": [s.to_dict() for s in tracer.spans] if trace else None,
    }


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else math.nan


def result_line(record: dict, spec: dict) -> dict:
    """The last stdout line: every metric BENCHMARK.json lists for this mode."""
    listed = spec["per_layer"] if record["trace"] else spec["end_to_end"]
    metrics = {}
    for m in listed:
        value = record["figures"][m["name"]]
        # a value that could not be measured (every pass raised) is reported as 0
        metrics[m["name"]] = {"value": value if math.isfinite(value) else 0.0, "unit": m["unit"]}
    return {"correct": record["failed"] == 0, "attempted": record["attempted"],
            "failed": record["failed"], "metrics": metrics}


def report(record: dict, env: dict, spec: dict) -> None:
    units = {"table_trial_s": "s", **{m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}}
    print(f"# workload {record['workload']} trace={record['trace']}")
    print("# environment " + json.dumps(env, sort_keys=True))
    if record["trace"]:
        print("# wait time: none to report (one caller, one process, no queue)")
    for name, value in sorted(record["figures"].items()):
        print(f"{name:52s} {value:>16.6g} {units.get(name, '')}")
    if record["table"]:
        print("# Err/Rej table of the first pass (informational, not gated)")
        print(record["table"], end="")
    print(f"# checks: {record['attempted'] - record['failed']}/{record['attempted']} passes passed")
    for failure in record["failures"]:
        print("# FAILED " + failure.replace("\n", "\n#   "))


def save(record: dict, env: dict, seed: int) -> None:
    out = ROOT / ".perfbench_out"
    out.mkdir(exist_ok=True)
    stem = f"{record['workload']}-seed{seed}-trace{record['trace']}"
    if record["spans"] is not None:
        (out / f"{stem}.spans.json").write_text(json.dumps(record["spans"]))
    summary = {k: v for k, v in record.items() if k != "spans"}
    (out / f"{stem}.json").write_text(json.dumps({**summary, "environment": env}, indent=2))


def run_all(args, spec) -> int:
    """Each workload in its own fresh process, one after the other."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for w in spec["workloads"]:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", w["name"],
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            print(f"error: workload {w['name']} exited with {proc.returncode}", file=sys.stderr)
            return proc.returncode or 1
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            combined["metrics"][f"{w['name']}/{name}"] = metric
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    args, spec = parse_args(argv)
    if args.workload == "all":
        return run_all(args, spec)
    for var in THREAD_VARS:
        os.environ[var] = "1"  # before numpy is imported
    import_program()
    env = environment(args.seed)
    record = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    report(record, env, spec)
    save(record, env, args.seed)
    print(json.dumps(result_line(record, spec)))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
