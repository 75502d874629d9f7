"""One sha256 per benchmark workload, over one full-size pass of a source tree.

    python3 tests/fingerprint.py ROOT SEED

ROOT is a checkout of this repository; its src/ and perfbench/ are imported,
and the passes are built by perfbench/workloads.py's own classes at their
FULL sizes. Each line is a name and the hash of what a workload's pass
computed:

  table-credit          bench.csv and the four trained models
  attack-sweep          every report: each attacked and clean EvalReport with
                        its per-row losses and winners, and each bound report
  attack-sweep-numbers  the same reports without the AttackSpec each
                        EvalReport echoes under "attack", so a spec field
                        added or dropped moves attack-sweep but not this line
  neural-minmax         the trained net, its loss trace and its attacked risk

Two trees that print the same lines at a seed computed the same bytes.
BLAS runs on one thread, as in perfbench/run.py, because a trained RFF
model's last bits depend on the thread count. About 2 s per tree.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
import tempfile
from pathlib import Path

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def table_credit(wl) -> dict[str, list[bytes]]:
    wl.run_pass()
    return {"table-credit": [(wl.out / "bench.csv").read_bytes(), *(m.to_json().encode() for _, _, m in wl.trained)]}


def _without_attack(text: str) -> bytes:
    obj = json.loads(text)
    obj.pop("attack", None)  # a bound report has none
    return json.dumps(obj, sort_keys=True).encode()


def attack_sweep(wl) -> dict[str, list[bytes]]:
    lines = {"attack-sweep": [], "attack-sweep-numbers": []}
    for stem, key, eps, _, clean, rep in wl.run_pass():
        for name, parts in lines.items():
            parts.append(f"{stem} {key} {eps!r}".encode())
            for report in (rep,) if clean is None else (clean, rep):
                text = report.to_json()
                parts.append(text.encode() if name == "attack-sweep" else _without_attack(text))
                if clean is not None:
                    parts += [report.clean_loss.tobytes(), report.worst_loss.tobytes(), report.winner.tobytes()]
    return lines


def neural_minmax(wl) -> dict[str, list[bytes]]:
    import numpy as np

    net, trace, risk = wl.run_pass()
    return {"neural-minmax": [net.to_json().encode(), np.asarray(trace, dtype=np.float64).tobytes(),
                              float(risk).hex().encode()]}


PASSES = {"table-credit": table_credit, "attack-sweep": attack_sweep, "neural-minmax": neural_minmax}


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    root, seed = Path(argv[0]).resolve(), int(argv[1])
    for var in THREAD_VARS:
        os.environ[var] = "1"  # before numpy loads
    sys.path[:0] = [str(root / "src"), str(root / "perfbench")]
    import advreject
    import workloads

    for module in (advreject, workloads):
        if not Path(module.__file__).resolve().is_relative_to(root):
            print(f"error: {module.__name__} was imported from {module.__file__}, not {root}", file=sys.stderr)
            return 2
    for name, run in PASSES.items():
        with tempfile.TemporaryDirectory() as workdir:
            wl = workloads.WORKLOADS[name](seed, workloads.FULL, Path(workdir))
            try:
                wl.setup()
                lines = run(wl)
            finally:
                wl.close()
        for line, parts in lines.items():
            digest = hashlib.sha256()
            for part in parts:
                digest.update(len(part).to_bytes(8, "little") + part)
            print(line, digest.hexdigest())
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
