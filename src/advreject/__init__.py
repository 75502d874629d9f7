"""Adversarially robust binary classification with a reject option."""

from .attacks import AttackSpec, Perturbation, analytic_candidates, fgsm, pgd, worst_case_01c
from .bench import ProtocolConfig, run_protocol
from .bounds import BoundConfig, BoundReport, rademacher_exhaustive, rademacher_linear_mc, generalization_bound
from .data import Dataset, NormStats, normalize, parse_csv, parse_libsvm, split, to_libsvm
from .evaluate import EvalReport, RejectConfusion, benchmark, classify_outcomes, evaluate_model, metrics
from .losses import AdvTerms, SurrogateParams, adv_loss_mh_linear, adv_terms_linear, loss_01c, loss_mh, surrogate_conv
from .model import Decision, FeatureMap, RejectionModel, featurize
from .neural import NeuralTrainConfig, ToyNet, grad_input, grad_params, train_neural
from .train import TrainConfig, TrainTrace, cross_validate, objective, train

__version__ = "0.1.0"

__all__ = [
    "ProtocolConfig",
    "run_protocol",
    "AttackSpec",
    "Perturbation",
    "analytic_candidates",
    "fgsm",
    "pgd",
    "worst_case_01c",
    "BoundConfig",
    "BoundReport",
    "rademacher_exhaustive",
    "rademacher_linear_mc",
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
    "classify_outcomes",
    "evaluate_model",
    "metrics",
    "AdvTerms",
    "SurrogateParams",
    "adv_loss_mh_linear",
    "adv_terms_linear",
    "loss_01c",
    "loss_mh",
    "surrogate_conv",
    "Decision",
    "FeatureMap",
    "RejectionModel",
    "featurize",
    "NeuralTrainConfig",
    "ToyNet",
    "grad_input",
    "grad_params",
    "train_neural",
    "TrainConfig",
    "TrainTrace",
    "cross_validate",
    "objective",
    "train",
]
