"""Rejection-aware evaluation: confusion counts and Err/Rej/PR under attack.

``evaluate_model`` attacks a whole dataset at once and reports the
confusion counts, Err/Rej/PR, which candidate won on how many rows, and
the mean attacked zero-one-c loss, plus each row's clean and attacked
zero-one-c loss and winning candidate; a single sample is a dataset of
one row.

Outcomes are counted on the perturbed input: a rejection is "true" when
the classifier would have been wrong there (the rejection prevented an
error), "false" when it would have been right. Err is the accepted-and-
wrong fraction over all samples, Rej the rejected fraction over all
samples, PR the precision of rejection TR/(TR+FR).

Every attack keeps the clean point in its candidate set and picks the
candidate maximizing the zero-one-c loss, so the attacked loss can never
fall below the clean one. Ties go to the earliest candidate, the clean
point first.

analytic_linear is exact for the feature-space linf ball: shift_reject
attains the minimum of r, so it finds a rejection wherever one exists, and
shift_margin (attacks.accepted_error_delta) finds an accepted error
wherever one exists, so the winner's loss is the maximum of the zero-one-c
loss over the box. fgsm and pgd ascend the MH surrogate and give lower
bounds.

A ``ToyNet`` is attacked on its inputs by pgd alone, a lower bound, with
the candidates of ``neural.pgd_candidates``.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass

import numpy as np

from .attacks import AttackSpec, accepted_error_delta, linear_mh, pgd_linear_mh_batch
from .attacks import pgd  # noqa: F401  perfbench's tracer wraps evaluate.pgd by name
from .data import Dataset
from .losses import SurrogateParams, loss_01c, verdict
from .model import RejectionModel
from .neural import ToyNet, pgd_candidates


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
    candidate_wins: dict[str, int]  # by candidate name, in candidate order
    mean_loss_01c: float
    # per row, not in to_json: the clean and the attacked (worst) zero-one-c
    # loss, and the index of the winning candidate into candidate_wins
    clean_loss: np.ndarray
    worst_loss: np.ndarray
    winner: np.ndarray

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
    m: RejectionModel | ToyNet, z: np.ndarray, y: np.ndarray, spec: AttackSpec, params: SurrogateParams
) -> dict[str, np.ndarray]:
    """Per-method candidate perturbations by name, in order, vectorized over
    the rows of z."""
    deltas = {"clean": np.zeros(z.shape, z.dtype)}
    if spec.method == "none" or spec.eps == 0:
        return deltas
    eps = spec.eps
    if isinstance(m, ToyNet):
        if spec.method != "pgd":
            raise ValueError(f"method {spec.method!r} does not apply to a network, which takes pgd or none")
        deltas.update(pgd_candidates(m, z, y, spec, params))
    elif spec.method == "analytic_linear":
        # shift_reject first, so shift_margin wins only where it reaches an accepted error
        deltas["shift_reject"] = np.broadcast_to(-eps * np.sign(m.theta), z.shape)
        deltas["shift_margin"] = accepted_error_delta(m, z, y, eps)
    elif spec.method == "fgsm":
        table, branch = linear_mh(m, y, params)(z, True)[1]
        deltas["fgsm"] = (eps * np.sign(table))[branch]
    else:
        deltas["pgd"] = pgd_linear_mh_batch(m, z, y, spec, params)
    return deltas


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
    m: RejectionModel | ToyNet, ds: Dataset, attack: AttackSpec, params: SurrogateParams | None = None
) -> EvalReport:
    if params is None:
        params = SurrogateParams()
    z, scores = (ds.x, m.forward) if isinstance(m, ToyNet) else (m.featurize(ds.x), m.scores_features)
    y = np.asarray(ds.y, dtype=np.float64)
    deltas = _candidate_deltas(m, z, y, attack, params)
    losses = np.empty((len(deltas), len(y)))  # per candidate and row; row 0 is the clean point
    fs = np.empty_like(losses)
    rs = np.empty_like(losses)
    points = np.empty(z.shape)  # z + delta of each attacked candidate in turn
    for k, delta in enumerate(deltas.values()):
        f, r = scores(np.add(z, delta, out=points) if k else z)
        fs[k], rs[k] = f, r
        losses[k] = loss_01c(f, r, y, params.cost)
    winner = np.argmax(losses, axis=0)  # first max wins; clean is index 0
    cols = np.arange(len(y))
    f = fs[winner, cols]  # the verdicts are counted at the winner's scores
    rejected, wrong = verdict(f, rs[winner, cols]) == 0, verdict(f, np.inf) != ds.y
    n_rejected, n_wrong = int(np.count_nonzero(rejected)), int(np.count_nonzero(wrong))
    tr = int(np.count_nonzero(rejected & wrong))
    fa = n_wrong - tr
    conf = RejectConfusion(ta=len(y) - n_rejected - fa, tr=tr, fa=fa, fr=n_rejected - tr)
    err, rej, pr = metrics(conf)
    wins = dict(zip(deltas, np.bincount(winner, minlength=len(deltas)).tolist()))
    worst = losses.max(axis=0)
    return EvalReport(err, rej, pr, conf, attack, wins, float(np.mean(worst)), losses[0], worst, winner)
