"""Adversarially robust binary classification with a reject option."""

from .attacks import AttackSpec, pgd
from .bench import ProtocolConfig, benchmark, run_protocol
from .bounds import BoundConfig, BoundReport, generalization_bound, rademacher_exhaustive
from .bounds import rademacher_linear_mc, rademacher_linear_upper
from .data import Dataset, NormStats, normalize, parse_csv, parse_libsvm, split, to_libsvm
from .evaluate import EvalReport, RejectConfusion, evaluate_model, metrics
from .losses import SurrogateParams, adv_loss_mh_linear_batch, loss_01c, loss_mh, surrogate_conv, verdict
from .model import FeatureMap, RejectionModel, featurize
from .neural import NeuralTrainConfig, ToyNet, train_neural
from .train import TrainConfig, TrainTrace, cross_validate, objective, train

__version__ = "0.1.0"

__all__ = [
    "ProtocolConfig",
    "run_protocol",
    "AttackSpec",
    "pgd",
    "BoundConfig",
    "BoundReport",
    "rademacher_exhaustive",
    "rademacher_linear_mc",
    "rademacher_linear_upper",
    "generalization_bound",
    "Dataset",
    "NormStats",
    "normalize",
    "parse_csv",
    "parse_libsvm",
    "split",
    "to_libsvm",
    "EvalReport",
    "RejectConfusion",
    "benchmark",
    "evaluate_model",
    "metrics",
    "SurrogateParams",
    "adv_loss_mh_linear_batch",
    "loss_01c",
    "loss_mh",
    "surrogate_conv",
    "verdict",
    "FeatureMap",
    "RejectionModel",
    "featurize",
    "NeuralTrainConfig",
    "ToyNet",
    "train_neural",
    "TrainConfig",
    "TrainTrace",
    "cross_validate",
    "objective",
    "train",
]
