import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from advreject.data import to_libsvm
from advreject.synth import credit_surrogate

ROOT = Path(__file__).parents[1]
README = ROOT / "README.md"
MODULES = sorted(p.stem for p in (ROOT / "src" / "advreject").glob("*.py") if p.stem != "__init__")
# the one reason an unused import may stay: perfbench's tracer wraps the name in that module
TRACER_HOOK = re.compile(r"# noqa: F401  perfbench's tracer wraps (\w+)\.(\w+) by name$")


def _fresh(code: str) -> str:
    """The stdout of code run in a new interpreter that imports advreject from this checkout."""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True).stdout


@pytest.mark.parametrize("module", MODULES)
def test_each_module_imports_alone(module):
    _fresh(f"import advreject.{module}")


def test_the_package_loads_no_submodule():
    assert _fresh("import sys, advreject; print([m for m in sys.modules if m.startswith('advreject.')])") == "[]\n"


def test_the_train_module_is_not_shadowed():
    assert _fresh("import types, advreject.train as t; print(isinstance(t, types.ModuleType))") == "True\n"


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


def test_every_import_in_src_is_used():
    # an ast check in place of a linter's F401; an exempt line names the module
    # and the name perfbench/workloads.py installs a span on
    hooks = (ROOT / "perfbench" / "workloads.py").read_text()
    unused = []
    for path in sorted((ROOT / "src").rglob("*.py")):
        text = path.read_text()
        lines, tree = text.splitlines(), ast.parse(text)
        used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
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


def _top_level_names(tree: ast.Module) -> list[str]:
    """The functions, classes and assigned names a module defines at its top level."""
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names += [t.id for t in targets if isinstance(t, ast.Name)]
    return names


def test_every_public_name_in_src_has_a_caller():
    # an ast check for dead library surface: a public top-level name must be read
    # in src/ or named by perfbench; a name only the tests or the README use
    # belongs in tests/oracles.py
    trees = [ast.parse(p.read_text()) for p in sorted((ROOT / "src").rglob("*.py"))]
    read = set()
    for tree in trees:
        for n in ast.walk(tree):
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
                read.add(n.id)
            elif isinstance(n, ast.Attribute):
                read.add(n.attr)
            elif isinstance(n, ast.ImportFrom):
                read.update(alias.name for alias in n.names)
    outside = "\n".join(p.read_text() for p in sorted((ROOT / "perfbench").glob("*.py")))
    uncalled = [
        name
        for tree in trees
        for name in _top_level_names(tree)
        if not name.startswith("_") and name not in read and not re.search(rf"\b{name}\b", outside)
    ]
    assert uncalled == []


def test_no_module_imports_a_private_name_of_another():
    # a _-prefixed name belongs to its own module; another module that needs it needs a public name
    private = []
    for path in sorted((ROOT / "src").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").startswith("advreject")):
                private += [f"{path.relative_to(ROOT)}:{node.lineno} {a.name}" for a in node.names if a.name[0] == "_"]
    assert private == []
