"""Multi-trial benchmark protocol: split, normalize, train every method,
evaluate under an attack grid, aggregate mean/std.

Each trial draws a fresh train/test split and fresh kernel features from
the trial seed, trains one model per (mode, cost) cell, and evaluates the
whole grid of attack radii. Kernel bandwidth uses the median pairwise
distance on the training split.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data import Dataset, check_scheme, normalize, split
from .evaluate import BenchCell, benchmark
from .losses import NO_REJECT_COST, SurrogateParams
from .model import FeatureMap, RejectionModel
from .train import TrainConfig, train


def median_heuristic_bandwidth(x: np.ndarray, seed: int = 0, subsample: int = 200) -> float:
    """Median pairwise distance on a seeded subsample."""
    rng = np.random.default_rng(seed)
    n = x.shape[0]
    idx = rng.choice(n, size=min(subsample, n), replace=False)
    sub = x[idx]
    d = np.sqrt(((sub[:, None, :] - sub[None, :, :]) ** 2).sum(-1))
    positive = d[d > 0]
    if positive.size == 0:
        return 1.0
    return float(np.median(positive))


@dataclass(frozen=True)
class ProtocolConfig:
    """One Table-style experiment: methods x costs x attack radii.

    A method is (mode, cost) with cost None exactly for the modes without
    rejection (svm/at).
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
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if not 0 < self.train_size:
            raise ValueError("train_size must be positive")
        if self.rff_dim < 0:
            raise ValueError("rff_dim must be >= 0 (0 = identity features)")
        check_scheme(self.normalize)
        if not self.attack_eps or not all(0 <= eps < math.inf for eps in self.attack_eps):
            raise ValueError("attack_eps must be a non-empty list of finite nonnegative radii")
        if self.attack_steps < 1:
            raise ValueError("attack_steps must be >= 1")
        # the settings every method shares, checked first so their errors name their own keys
        self.train_config("atro", None, FeatureMap())
        for i, (mode, cost) in enumerate(self.methods):
            try:
                cfg = self.train_config(mode, cost, FeatureMap())
            except ValueError as exc:
                raise ValueError(f"methods[{i}] {exc}") from None
            if (cost is None) == cfg.rejection_enabled:
                raise ValueError(f"methods[{i}] cost must be null for svm/at and a number for mh/atro")

    def train_config(self, mode: str, cost: float | None, feature_map: FeatureMap) -> TrainConfig:
        """The TrainConfig of one method."""
        return TrainConfig(
            mode=mode,
            params=SurrogateParams(self.alpha, self.beta, NO_REJECT_COST if cost is None else cost),
            eps_train=self.eps_train if mode in ("at", "atro") else 0.0,
            lam=self.lam,
            lam_prime=self.lam_prime,
            epochs=self.epochs,
            lr0=self.lr0,
            feature_map=feature_map,
        )


def _trial_seeds(master: int, trials: int) -> list[tuple[int, int]]:
    """(split seed, feature seed) per trial, spawned from the master seed."""
    ss = np.random.SeedSequence(master)
    children = ss.spawn(trials)
    out = []
    for child in children:
        a, b = child.generate_state(2)
        out.append((int(a % 2**31), int(b % 2**31)))
    return out


def run_protocol(ds: Dataset, pc: ProtocolConfig) -> tuple[list[BenchCell], list[tuple[dict, Dataset]]]:
    """Train and evaluate the whole grid; returns (table rows, trials)."""
    if len(ds) <= pc.train_size:
        raise ValueError(f"dataset has {len(ds)} samples; need more than train_size={pc.train_size}")
    trials = []
    for split_seed, feat_seed in _trial_seeds(pc.seed, pc.trials):
        tr, te = split(ds, pc.train_size / len(ds), seed=split_seed)
        tr_n, stats = normalize(tr, pc.normalize)
        te_n = stats.apply(te)
        if pc.rff_dim > 0:
            fm = FeatureMap(
                "random_fourier",
                dim=pc.rff_dim,
                sigma=median_heuristic_bandwidth(tr_n.x, seed=feat_seed),
                seed=feat_seed,
                input_dim=tr_n.d,
            )
        else:
            fm = FeatureMap("identity")
        models: dict[tuple[str, float | None], RejectionModel] = {}
        for mode, cost in pc.methods:
            model, _ = train(tr_n, pc.train_config(mode, cost, fm))
            model.norm_stats = stats
            models[(mode, cost)] = model
        trials.append((models, te_n))
    rows = benchmark(
        trials, list(pc.attack_eps), alpha=pc.alpha, beta=pc.beta, steps=pc.attack_steps
    )
    return rows, trials
