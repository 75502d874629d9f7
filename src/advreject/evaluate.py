"""Rejection-aware evaluation: confusion counts, Err/Rej/PR, benchmarks.

Outcomes are counted on the perturbed input: a rejection is "true" when
the classifier would have been wrong there (the rejection prevented an
error), "false" when it would have been right. Err is the accepted-and-
wrong fraction over all samples, Rej the rejected fraction over all
samples, PR the precision of rejection TR/(TR+FR).

Every attack keeps the clean point in its candidate set and picks the
candidate maximizing the zero-one-c loss, so the attacked loss can never
fall below the clean one. Ties go to the earliest candidate, the clean
point first.
"""

from __future__ import annotations

import io
import json
from dataclasses import asdict, dataclass, field

import numpy as np

from .attacks import AttackSpec, linear_mh_value_grad, pgd_linear_mh_batch
from .attacks import pgd  # noqa: F401  perfbench's tracer wraps evaluate.pgd by name
from .data import Dataset
from .losses import NO_REJECT_COST, SurrogateParams, loss_01c
from .model import RejectionModel


@dataclass(frozen=True)
class RejectConfusion:
    ta: int
    tr: int
    fa: int
    fr: int

    @property
    def total(self) -> int:
        return self.ta + self.tr + self.fa + self.fr


@dataclass
class EvalReport:
    err: float
    rej: float
    pr: float | None  # None when nothing was rejected
    counts: RejectConfusion
    attack: AttackSpec
    candidate_wins: dict[str, int] = field(default_factory=dict)
    mean_loss_01c: float = 0.0

    def to_json(self) -> str:
        return json.dumps(
            {
                "err": self.err,
                "rej": self.rej,
                "pr": self.pr,
                "counts": {"TA": self.counts.ta, "TR": self.counts.tr, "FA": self.counts.fa, "FR": self.counts.fr},
                "attack": asdict(self.attack),
                "candidate_wins": self.candidate_wins,
                "mean_loss_01c": self.mean_loss_01c,
            },
            indent=2,
        )


def _candidate_deltas(
    m: RejectionModel, z: np.ndarray, y: np.ndarray, spec: AttackSpec, params: SurrogateParams
) -> dict[str, np.ndarray]:
    """Per-method candidate perturbations by name, in order, vectorized over
    the rows of z."""
    deltas = {"clean": np.zeros_like(z)}
    if spec.method == "none" or spec.eps == 0:
        return deltas
    eps = spec.eps
    if spec.method == "analytic_linear":
        sz = np.where(y[:, None] > 0, np.sign(m.zeta(1))[None, :], np.sign(m.zeta(-1))[None, :])
        deltas["shift_margin"] = y[:, None] * eps * sz
        deltas["shift_reject"] = np.broadcast_to(-eps * np.sign(m.theta), z.shape).copy()
    if spec.method == "fgsm":
        deltas["fgsm"] = eps * np.sign(linear_mh_value_grad(m, z, y, params)[1])
    else:  # pgd, and the last analytic_linear candidate
        deltas["pgd"] = pgd_linear_mh_batch(m, z, y, spec, params)
    return deltas


def _attack_and_score(
    m: RejectionModel, ds: Dataset, spec: AttackSpec, params: SurrogateParams
):
    """Returns per-sample (f, r) at the winning perturbation, the winning
    candidate index, the candidate names, and the zero-one-c loss of every
    candidate per sample (row 0 is the clean point)."""
    z = m.featurize(ds.x)
    y = ds.y.astype(np.float64)
    deltas = _candidate_deltas(m, z, y, spec, params)
    losses = np.empty((len(deltas), len(ds)))
    fs = np.empty_like(losses)
    rs = np.empty_like(losses)
    for k, delta in enumerate(deltas.values()):
        f, r = m.scores_features(z + delta)
        fs[k], rs[k] = f, r
        losses[k] = loss_01c(f, r, y, params.cost)
    winner = np.argmax(losses, axis=0)  # first max wins; clean is index 0
    cols = np.arange(len(ds))
    return fs[winner, cols], rs[winner, cols], winner, list(deltas), losses


def _confusion(f: np.ndarray, r: np.ndarray, y: np.ndarray) -> RejectConfusion:
    """Counts of the decisions at scores (f, r): reject when r <= 0, else
    predict sign(f) with f = 0 counted as +1."""
    rejected = r <= 0.0
    wrong = np.where(f >= 0.0, 1, -1) != y
    return RejectConfusion(
        ta=int(np.sum(~rejected & ~wrong)),
        tr=int(np.sum(rejected & wrong)),
        fa=int(np.sum(~rejected & wrong)),
        fr=int(np.sum(rejected & ~wrong)),
    )


def classify_outcomes(
    m: RejectionModel, ds: Dataset, attack: AttackSpec, params: SurrogateParams | None = None
) -> RejectConfusion:
    """Confusion-with-rejection counts after the per-sample attack."""
    if params is None:
        params = SurrogateParams()
    f, r, _, _, _ = _attack_and_score(m, ds, attack, params)
    return _confusion(f, r, ds.y)


def metrics(conf: RejectConfusion) -> tuple[float, float, float | None]:
    """(err, rej, pr); pr is None when nothing was rejected."""
    total = conf.total
    if total == 0:
        raise ValueError("no samples evaluated")
    err = conf.fa / total
    rej = (conf.tr + conf.fr) / total
    pr = None if conf.tr + conf.fr == 0 else conf.tr / (conf.tr + conf.fr)
    return err, rej, pr


def evaluate_model(
    m: RejectionModel, ds: Dataset, attack: AttackSpec, params: SurrogateParams | None = None
) -> EvalReport:
    if params is None:
        params = SurrogateParams()
    f, r, winner, names, losses = _attack_and_score(m, ds, attack, params)
    conf = _confusion(f, r, ds.y)
    err, rej, pr = metrics(conf)
    wins = {name: int(np.sum(winner == k)) for k, name in enumerate(names)}
    return EvalReport(err, rej, pr, conf, attack, wins, float(np.mean(losses.max(axis=0))))


def adv_risk_01c(
    m: RejectionModel, ds: Dataset, attack: AttackSpec, params: SurrogateParams | None = None
) -> float:
    """Mean worst-case zero-one-c loss under the candidate-set attack."""
    if params is None:
        params = SurrogateParams()
    losses = _attack_and_score(m, ds, attack, params)[4]
    return float(np.mean(losses.max(axis=0)))


@dataclass(frozen=True)
class BenchCell:
    method: str
    cost: float | None
    attack_eps: float
    err_mean: float
    err_std: float
    rej_mean: float
    rej_std: float
    trials: int


def benchmark(
    trials: list[tuple[dict, Dataset]],
    attack_eps: list[float],
    alpha: float = 1.0,
    beta: float = 1.0,
    attack_method: str = "analytic_linear",
    steps: int = 20,
) -> list[BenchCell]:
    """Mean/std of Err and Rej across trials, one row per (method, cost,
    attack eps).

    ``trials`` is a list of (models, test set) pairs where models maps
    (method, cost) to a trained model; cost is None for methods without
    rejection. Single-trial std is 0 by construction (population std).
    """
    if not trials:
        raise ValueError("need at least one trial")
    if not attack_eps:
        raise ValueError("empty attack grid")
    keys = list(trials[0][0].keys())
    rows = []
    for method, cost in keys:
        params = SurrogateParams(alpha=alpha, beta=beta, cost=NO_REJECT_COST if cost is None else cost)
        for eps in attack_eps:
            spec = AttackSpec(method=attack_method if eps > 0 else "none", eps=eps, steps=steps)
            errs, rejs = [], []
            for models, test in trials:
                rep = evaluate_model(models[(method, cost)], test, spec, params)
                errs.append(rep.err)
                rejs.append(rep.rej)
            rows.append(
                BenchCell(
                    method,
                    cost,
                    eps,
                    float(np.mean(errs)),
                    float(np.std(errs)),
                    float(np.mean(rejs)),
                    float(np.std(rejs)),
                    len(trials),
                )
            )
    return rows


def bench_to_csv(rows: list[BenchCell]) -> str:
    buf = io.StringIO()
    buf.write("method,cost,attack_eps,err_mean,err_std,rej_mean,rej_std,trials\n")
    for r in rows:
        cost = "" if r.cost is None else repr(r.cost)
        buf.write(
            f"{r.method},{cost},{r.attack_eps!r},{r.err_mean!r},{r.err_std!r},"
            f"{r.rej_mean!r},{r.rej_std!r},{r.trials}\n"
        )
    return buf.getvalue()


def bench_to_text(rows: list[BenchCell]) -> str:
    """Table-style text: one row per method/cost, Err and Rej per attack."""
    eps_values = sorted({r.attack_eps for r in rows})
    by_key: dict[tuple, dict[float, BenchCell]] = {}
    for r in rows:
        by_key.setdefault((r.method, r.cost), {})[r.attack_eps] = r
    head = f"{'Method':>6} {'Cost':>5}"
    for e in eps_values:
        head += f" | {'eps=' + str(e):^27}"
    sub = f"{'':>6} {'':>5}"
    for _ in eps_values:
        sub += f" | {'Err(mean/std)':>13} {'Rej(mean/std)':>13}"
    lines = [head, sub, "-" * len(sub)]
    for (method, cost), cells in by_key.items():
        line = f"{method:>6} {('-' if cost is None else f'{cost:.2f}'):>5}"
        for e in eps_values:
            c = cells.get(e)
            if c is None:
                line += f" | {'':>13} {'':>13}"
                continue
            rej = f"{c.rej_mean:.3f}/{c.rej_std:.3f}" if cost is not None else "   -    "
            line += f" | {c.err_mean:.3f}/{c.err_std:.3f} {rej:>13}"
        lines.append(line)
    return "\n".join(lines) + "\n"
