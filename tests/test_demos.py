"""The demo scripts run end to end against the package root exports.

Demo 05 is left out: it repeats the solver-validation ladder of
acceptance criterion 7 and takes several seconds.
"""

import runpy
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parent.parent / "demos"


@pytest.mark.parametrize("script, expected", [
    ("01_systems_and_matrix_form.py", "last row = equations [3, 2, 1]: True"),
    ("02_symmetry_verification.py", "m=6: ok"),
    ("03_lie_algebra_tables.py", "m=1 vs m=8: identical tables: True"),
    ("04_exact_solutions.py", "four components from heat polynomials: symbolic"),
])
def test_demo_runs(script, expected, capsys):
    runpy.run_path(str(DEMOS / script), run_name="__main__")
    assert expected in capsys.readouterr().out
