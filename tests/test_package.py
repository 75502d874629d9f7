import ast
import re
from pathlib import Path

import advreject
from advreject.data import to_libsvm
from advreject.synth import credit_surrogate

ROOT = Path(__file__).parents[1]
README = ROOT / "README.md"
# the one reason an unused import may stay: perfbench's tracer wraps the name in that module
TRACER_HOOK = re.compile(r"# noqa: F401  perfbench's tracer wraps (\w+)\.(\w+) by name$")

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


def test_readme_quick_start_runs(tmp_path, monkeypatch, capsys):
    # README's library example, run where its dataset path names a credit surrogate
    section = README.read_text().split("## Library quick start\n", 1)[1]
    code = re.match(r"\n```python\n(.*?)^```", section, flags=re.M | re.S).group(1)
    (tmp_path / "data").mkdir()
    (tmp_path / "data" / "australian-surrogate.libsvm").write_text(to_libsvm(credit_surrogate(seed=0)))
    monkeypatch.chdir(tmp_path)
    exec(code, {})
    err, rej, _, wins = capsys.readouterr().out.split(" ", 3)
    assert 0 <= float(err) <= 1 and 0 <= float(rej) <= 1
    assert wins.startswith("{'clean': ")


def _used_names(tree: ast.Module) -> set[str]:
    """The names a module reads, plus the strings of its ``__all__``."""
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            used |= {e.value for e in node.value.elts}
    return used


def test_every_import_in_src_is_used():
    # an ast check in place of a linter's F401; an exempt line names the module
    # and the name perfbench/workloads.py installs a span on
    hooks = (ROOT / "perfbench" / "workloads.py").read_text()
    unused = []
    for path in sorted((ROOT / "src").rglob("*.py")):
        text = path.read_text()
        lines, tree = text.splitlines(), ast.parse(text)
        used = _used_names(tree)
        for node in ast.walk(tree):
            if not isinstance(node, (ast.Import, ast.ImportFrom)) or getattr(node, "module", None) == "__future__":
                continue
            for alias in node.names:
                name = (alias.asname or alias.name).split(".")[0]
                if name in used:
                    continue
                hook = TRACER_HOOK.search(lines[node.lineno - 1])
                if hook and hook.groups() == (path.stem, name) and f'({path.stem}, "{name}",' in hooks:
                    continue
                unused.append(f"{path.relative_to(ROOT)}:{node.lineno} {name}")
    assert unused == []
