import advreject

PUBLIC = [
    "ProtocolConfig", "run_protocol",
    "AttackSpec", "pgd",
    "BoundConfig", "BoundReport", "rademacher_exhaustive", "rademacher_linear_mc", "rademacher_linear_upper",
    "generalization_bound",
    "Dataset", "NormStats", "normalize", "parse_csv", "parse_libsvm", "split", "to_libsvm",
    "EvalReport", "RejectConfusion", "benchmark", "evaluate_model", "metrics",
    "SurrogateParams", "adv_loss_mh_linear_batch", "loss_01c", "loss_mh", "surrogate_conv", "verdict",
    "FeatureMap", "RejectionModel", "featurize",
    "NeuralTrainConfig", "ToyNet", "train_neural",
    "TrainConfig", "TrainTrace", "cross_validate", "objective", "train",
]


def test_every_public_name_imports():
    namespace = {}
    exec("from advreject import *", namespace)  # raises AttributeError on a stale __all__ entry
    assert set(advreject.__all__) <= set(namespace)
    assert len(set(advreject.__all__)) == len(advreject.__all__)


def test_public_names_are_pinned():
    # a name added to or dropped from the package surface shows up here
    assert advreject.__all__ == PUBLIC
