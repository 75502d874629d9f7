"""Multi-trial benchmark protocol: split, normalize, train every method,
evaluate under an attack grid, aggregate mean/std, write the table.

Each trial draws a fresh train/test split and fresh kernel features from
the trial seed, trains one model per (mode, cost) cell, and evaluates the
whole grid of attack radii with the exact analytic_linear attack.
``feature_map`` builds every run's feature map, the CLI's ``train`` too;
the kernel bandwidth is the median distance over the distinct pairs of a
seeded subsample of at most 200 training rows.
``ProtocolConfig.params`` gives each method's surrogate parameters, for
training and scoring alike.
"""

from __future__ import annotations

import math
from dataclasses import astuple, dataclass, fields

import numpy as np

from . import evaluate  # called as evaluate.evaluate_model, the name perfbench's tracer wraps
from .attacks import AttackSpec
from .data import Dataset, check_numbers, check_scheme, csv_text, normalize, split
from .losses import NO_REJECT_COST, SurrogateParams
from .model import FeatureMap, RejectionModel
from .train import TrainConfig, train


MEDIAN_HEURISTIC_ROWS = 200  # the median heuristic's subsample size


def median_heuristic_bandwidth(x: np.ndarray, seed: int = 0) -> float:
    """Median positive Euclidean distance over the distinct pairs of a
    seeded subsample of at most ``MEDIAN_HEURISTIC_ROWS`` rows of x; 1.0
    when no pair is apart.

    The m(m-1)/2 distances are computed one subsample row at a time, so the
    working memory is O(m*d + m**2) for m subsample rows of dimension d, not
    the O(m**2 * d) of a full difference tensor. Each distance has the bits
    it has in the full m x m matrix, and the median of the distinct pairs
    equals the median of that matrix, which holds every pair twice.
    Raises ValueError when the median overflows float64.
    """
    rng = np.random.default_rng(seed)
    n = x.shape[0]
    idx = rng.choice(n, size=min(MEDIAN_HEURISTIC_ROWS, n), replace=False)
    sub = x[idx]
    m = len(sub)
    dist = np.empty(m * (m - 1) // 2)
    start = 0
    with np.errstate(over="ignore"):  # an overflowing distance is inf, and an inf median is refused below
        for i in range(m - 1):
            stop = start + m - 1 - i
            np.sqrt(((sub[i] - sub[i + 1 :]) ** 2).sum(-1), out=dist[start:stop])
            start = stop
        positive = dist[dist > 0]
        if positive.size == 0:
            return 1.0
        median = float(np.median(positive))
    if not math.isfinite(median):
        raise ValueError("the median pairwise distance of the training rows overflows float64")
    return median


def feature_map(dim: int, x: np.ndarray, seed: int, sigma: float | str = "median") -> FeatureMap:
    """The feature map of a run trained on inputs x: the identity when dim
    is 0, else dim random Fourier features drawn from seed and pinned to
    x's dimension, of bandwidth sigma ("median": the median heuristic on x)."""
    if dim == 0:
        return FeatureMap("identity")
    if sigma == "median":
        sigma = median_heuristic_bandwidth(x, seed=seed)
    return FeatureMap("random_fourier", dim=dim, sigma=sigma, seed=seed, input_dim=x.shape[1])


def spawn_seeds(master: int, n: int, words: int) -> list[tuple[int, ...]]:
    """n tuples of ``words`` seeds in [0, 2**31): the first ``words`` state words, mod
    2**31, of each of n children spawned from SeedSequence(master). A child's first word
    is the same for any ``words``, and its tuple the same for any n above its index: the
    CLI takes a run's split and feature seeds with n = 2 and one word, run_protocol each
    trial's split and feature seeds with two."""
    return [tuple(int(w % 2**31) for w in c.generate_state(words)) for c in np.random.SeedSequence(master).spawn(n)]


@dataclass(frozen=True)
class ProtocolConfig:
    """One Table-style experiment: methods x costs x attack radii.

    A method is (mode, cost) with cost None exactly for the modes without
    rejection (svm/at). ``attack_steps`` has no effect: the protocol attacks
    with the exact analytic_linear, which takes no steps.
    """

    methods: tuple[tuple[str, float | None], ...] = (("svm", None), ("at", None), ("mh", 0.2), ("atro", 0.2))
    attack_eps: tuple[float, ...] = (0.0, 0.001, 0.01, 0.1)
    eps_train: float = 0.001
    trials: int = 10
    train_size: int = 500
    alpha: float = 2.0
    beta: float = 4.0
    lam: float = 1e-3
    lam_prime: float = 1e-3
    epochs: int = 3000
    lr0: float = 3.0
    rff_dim: int = 200  # 0 = identity features
    normalize: str = "minmax01"
    attack_steps: int = 20
    seed: int = 0

    def __post_init__(self):
        # the other numbers are checked by the TrainConfig built below
        check_numbers(self, counts=("trials", "train_size", "attack_steps"), naturals=("rff_dim", "seed"),
                      floats=("attack_eps",))
        check_scheme(self.normalize)
        eps = self.attack_eps
        if not eps or len(set(eps)) < len(eps) or not all(0 <= e < math.inf for e in eps):
            raise ValueError(f"attack_eps must be a non-empty list of distinct finite nonnegative radii, got {eps}")
        if not self.methods:
            raise ValueError("methods must be a non-empty list of [mode, cost] pairs")
        # the settings every method shares, checked first so their errors name their own keys
        self.train_config("atro", None, FeatureMap())
        for i, (mode, cost) in enumerate(self.methods):
            try:
                cfg = self.train_config(mode, cost, FeatureMap())
            except ValueError as exc:
                raise ValueError(f"methods[{i}] {exc}") from None
            if (cost is None) == cfg.rejection_enabled:
                raise ValueError(f"methods[{i}] cost must be null for svm/at and a number for mh/atro")
            if (mode, cost) in self.methods[:i]:
                raise ValueError(f"methods[{i}] repeats methods[{self.methods.index((mode, cost))}]")

    def params(self, cost: float | None) -> SurrogateParams:
        """The surrogate parameters of a method with rejection cost ``cost``."""
        return SurrogateParams(self.alpha, self.beta, NO_REJECT_COST if cost is None else cost)

    def train_config(self, mode: str, cost: float | None, feature_map: FeatureMap) -> TrainConfig:
        """The TrainConfig of one method."""
        return TrainConfig(
            mode=mode,
            params=self.params(cost),
            eps_train=self.eps_train if mode in ("at", "atro") else 0.0,
            lam=self.lam,
            lam_prime=self.lam_prime,
            epochs=self.epochs,
            lr0=self.lr0,
            feature_map=feature_map,
        )


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


class ProtocolDataError(ValueError):
    """The data does not admit one of the protocol's settings, such as a
    dataset no larger than train_size or a trial's normalization statistics
    that overflow; the message starts with the setting's field name."""


def run_protocol(ds: Dataset, pc: ProtocolConfig) -> tuple[list[BenchCell], list[tuple[dict, Dataset]]]:
    """Train and evaluate the whole grid; returns (table rows, trials).
    Raises ProtocolDataError when the dataset is no larger than train_size,
    or a trial's data cannot be normalized or gives no median bandwidth."""
    if len(ds) <= pc.train_size:
        raise ProtocolDataError(f"train_size {pc.train_size}: a trial needs more samples than the {len(ds)} given")
    trials = []
    for t, (split_seed, feat_seed) in enumerate(spawn_seeds(pc.seed, pc.trials, 2)):
        tr, te = split(ds, pc.train_size / len(ds), seed=split_seed)
        try:
            tr_n, stats = normalize(tr, pc.normalize)
            te_n = stats.apply(te)
        except ValueError as exc:
            raise ProtocolDataError(f"normalize {pc.normalize!r} in trial {t}: {exc}") from None
        try:
            fm = feature_map(pc.rff_dim, tr_n.x, feat_seed)
        except ValueError as exc:
            raise ProtocolDataError(f"rff_dim {pc.rff_dim} in trial {t}: {exc}") from None
        models: dict[tuple[str, float | None], RejectionModel] = {}
        for mode, cost in pc.methods:
            model, _ = train(tr_n, pc.train_config(mode, cost, fm))
            model.norm_stats = stats
            models[(mode, cost)] = model
        trials.append((models, te_n))
    return benchmark(trials, pc), trials


def benchmark(trials: list[tuple[dict, Dataset]], pc: ProtocolConfig) -> list[BenchCell]:
    """Mean/std of Err and Rej across trials, one row per (method, cost,
    attack eps), each model attacked with analytic_linear at every radius
    of ``pc.attack_eps`` and scored with ``pc.params(cost)``.

    ``trials`` is a list of (models, test set) pairs where models maps
    (method, cost) to a trained model; cost is None for methods without
    rejection. Single-trial std is 0 by construction (population std).
    """
    if not trials:
        raise ValueError("need at least one trial")
    rows = []
    for method, cost in trials[0][0]:
        params = pc.params(cost)
        pairs = [(models[(method, cost)], test) for models, test in trials]
        for eps in pc.attack_eps:
            spec = AttackSpec(method="analytic_linear", eps=eps)
            reports = [evaluate.evaluate_model(m, test, spec, params) for m, test in pairs]
            errs, rejs = [rep.err for rep in reports], [rep.rej for rep in reports]
            moments = float(np.mean(errs)), float(np.std(errs)), float(np.mean(rejs)), float(np.std(rejs))
            rows.append(BenchCell(method, cost, eps, *moments, len(trials)))
    return rows


def bench_to_csv(rows: list[BenchCell]) -> str:
    return csv_text([f.name for f in fields(BenchCell)], map(astuple, rows))


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
            c = cells[e]
            rej = f"{c.rej_mean:.3f}/{c.rej_std:.3f}" if cost is not None else "   -    "
            line += f" | {c.err_mean:.3f}/{c.err_std:.3f} {rej:>13}"
        lines.append(line)
    return "\n".join(lines) + "\n"
