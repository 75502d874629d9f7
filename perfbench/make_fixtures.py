"""Recipe for the four fixture models the attack-sweep workload attacks.

Run from the repository root:

    python3 perfbench/make_fixtures.py

It trains a max-hinge (mh) and an ATRO model on the credit surrogate with
200 random Fourier features and on the clinical surrogate with identity
features (d = 8), and writes them to perfbench/fixtures/ with
``RejectionModel.to_json``. The benchmark loads them with
``RejectionModel.from_json``, so later versions of the package must keep
loading these files. ``holdout_pool`` regenerates the rows each model never
saw in training; the workload draws its evaluation rows from that pool.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
FIXTURE_DIR = HERE / "fixtures"

# (file stem, synth generator, rff_dim (0 = identity), mode)
FIXTURES = (
    ("credit-rff200-mh", "credit_surrogate", 200, "mh"),
    ("credit-rff200-atro", "credit_surrogate", 200, "atro"),
    ("clinical-identity-mh", "clinical_surrogate", 0, "mh"),
    ("clinical-identity-atro", "clinical_surrogate", 0, "atro"),
)
DATA_SEED = 0
TRAIN_FRACTION = 0.7
COST = 0.2
ALPHA, BETA = 2.0, 4.0
EPS_TRAIN = 0.001
EPOCHS = 3000


def _train_split(generator: str):
    """Normalized (train, held-out) split of the fixture's dataset."""
    from advreject import data, synth

    ds = getattr(synth, generator)(seed=DATA_SEED)
    tr, te = data.split(ds, TRAIN_FRACTION, seed=DATA_SEED)
    tr_n, stats = data.normalize(tr, "minmax01")
    return tr_n, stats.apply(te), stats


def holdout_pool(generator: str):
    """Held-out rows of a fixture's dataset, normalized with its training stats."""
    return _train_split(generator)[1]


def train_fixture(generator: str, rff_dim: int, mode: str):
    from advreject.bench import median_heuristic_bandwidth
    from advreject.losses import SurrogateParams
    from advreject.model import FeatureMap
    from advreject.train import TrainConfig, train

    tr, _, stats = _train_split(generator)
    if rff_dim:
        sigma = median_heuristic_bandwidth(tr.x, seed=DATA_SEED)
        fm = FeatureMap("random_fourier", dim=rff_dim, sigma=sigma, seed=DATA_SEED, input_dim=tr.d)
    else:
        fm = FeatureMap("identity")
    cfg = TrainConfig(
        mode=mode,
        params=SurrogateParams(ALPHA, BETA, COST),
        eps_train=EPS_TRAIN if mode == "atro" else 0.0,
        epochs=EPOCHS,
        feature_map=fm,
    )
    model, _ = train(tr, cfg)
    model.norm_stats = stats
    return model


def main() -> int:
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    sys.path.insert(0, str(HERE.parent / "src"))
    FIXTURE_DIR.mkdir(exist_ok=True)
    for stem, generator, rff_dim, mode in FIXTURES:
        path = FIXTURE_DIR / f"{stem}.json"
        path.write_text(train_fixture(generator, rff_dim, mode).to_json() + "\n")
        print(f"wrote {path.relative_to(HERE.parent)}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
