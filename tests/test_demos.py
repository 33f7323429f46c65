"""The demo scripts run end to end against the package root exports, and
every root export is used by a demo or the README.

Demo 05 is left out of the runs: it repeats the solver-validation ladder
of acceptance criterion 7 and takes several seconds.
"""

import ast
import re
import runpy
from pathlib import Path

import pytest

import burgers_hierarchy

ROOT = Path(__file__).resolve().parent.parent
DEMOS = ROOT / "demos"


@pytest.mark.parametrize("script, expected", [
    ("01_systems_and_matrix_form.py", "last row = equations [3, 2, 1]: True"),
    ("02_symmetry_verification.py", "m=6: ok"),
    ("03_lie_algebra_tables.py", "m=1 vs m=8: identical tables: True"),
    ("04_exact_solutions.py", "four components from heat polynomials: symbolic"),
])
def test_demo_runs(script, expected, capsys):
    runpy.run_path(str(DEMOS / script), run_name="__main__")
    assert expected in capsys.readouterr().out


def _root_imports(source: str) -> set[str]:
    """Names imported by ``from burgers_hierarchy import ...`` in source."""
    return {alias.name for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.ImportFrom) and node.module == "burgers_hierarchy"
            and node.level == 0 for alias in node.names}


def test_every_root_export_is_used():
    # a root export is used when a demo or the README's library example
    # imports it from the root, or the README names it as
    # burgers_hierarchy.<name>
    init = ast.parse((ROOT / "src" / "burgers_hierarchy" / "__init__.py").read_text())
    exported = {alias.asname or alias.name for node in ast.walk(init)
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    readme = (ROOT / "README.md").read_text()
    examples = [block.split("```", 1)[0] for block in readme.split("```python\n")[1:]]
    imported = set().union(*(_root_imports(p.read_text()) for p in DEMOS.glob("*.py")),
                           *(_root_imports(code) for code in examples))
    named = set(re.findall(r"\bburgers_hierarchy\.(\w+)", readme))
    assert examples and imported
    assert sorted(exported - imported - named) == []
    assert sorted(n for n in imported if not hasattr(burgers_hierarchy, n)) == []
