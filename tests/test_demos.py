"""The demo scripts run end to end against the package root exports,
every root export is used by a demo or the README, and every package
import in the demos and the README's examples resolves.
"""

import ast
import importlib
import re
import runpy
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = ROOT / "demos"


@pytest.mark.parametrize("script, expected", [
    ("01_systems_and_matrix_form.py", "last row = equations [3, 2, 1]: True"),
    ("02_symmetry_verification.py", "m=6: ok"),
    ("03_lie_algebra_tables.py", "m=1 vs m=8: identical tables: True"),
    ("04_exact_solutions.py", "four components from heat polynomials: symbolic"),
    ("05_solver_validation.py", "observed order 2.000"),
])
def test_demo_runs(script, expected, capsys):
    runpy.run_path(str(DEMOS / script), run_name="__main__")
    assert expected in capsys.readouterr().out


def _package_imports(source: str) -> set[tuple[str, str]]:
    """(module, name) for each ``from burgers_hierarchy[.<module>] import
    name`` in source."""
    return {(node.module, alias.name) for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.ImportFrom) and node.level == 0
            and (node.module or "").split(".")[0] == "burgers_hierarchy"
            for alias in node.names}


def test_every_root_export_is_used():
    # a root export is used when a demo or the README's library example
    # imports it from the root, or the README names it as
    # burgers_hierarchy.<name>
    init = ast.parse((ROOT / "src" / "burgers_hierarchy" / "__init__.py").read_text())
    exported = {alias.asname or alias.name for node in ast.walk(init)
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    readme = (ROOT / "README.md").read_text()
    examples = [block.split("```", 1)[0] for block in readme.split("```python\n")[1:]]
    pairs = set().union(*(_package_imports(p.read_text()) for p in DEMOS.glob("*.py")),
                        *(_package_imports(code) for code in examples))
    imported = {name for module, name in pairs if module == "burgers_hierarchy"}
    named = set(re.findall(r"\bburgers_hierarchy\.(\w+)", readme))
    assert examples and imported
    assert sorted(exported - imported - named) == []
    # every import, from the root or from a submodule, resolves
    assert sorted(f"{module}.{name}" for module, name in pairs
                  if not hasattr(importlib.import_module(module), name)) == []
