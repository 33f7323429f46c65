"""Heat-data catalog, the linear system, exact solutions, certification,
and the invariance properties of the construction."""

from fractions import Fraction
import math
import os
from pathlib import Path
import random
import subprocess
import sys
import textwrap

import pytest

from burgers_hierarchy import hopfcole, symcore
from burgers_hierarchy.hopfcole import (
    CertificationError,
    HeatSolution,
    HeatSolutionError,
    SingularSystemError,
    catalog_from_json,
    certify,
    heat_constant,
    heat_exponential,
    heat_gaussian,
    heat_polynomial,
    heat_sum,
    heat_trig,
    hopfcole_matrix,
    mix_heat_solutions,
    sample_points,
    solve_exact,
)
from burgers_hierarchy.symcore import ONE, T, X, ZERO, Expr, cos, cosh, exp, sin, total_derivative


ROOT = Path(__file__).resolve().parent.parent


def mixed_catalog(m: int):
    """v_k = exp(k^2 t + k x) + P_{k+1}, k = 1..m (P_n the heat polynomial)."""
    return [heat_sum([(1, heat_exponential(k)), (1, heat_polynomial(k + 1))])
            for k in range(1, m + 1)]


def traveling_wave_solution():
    v = heat_sum([(1, heat_constant(1)), (1, heat_exponential(1, sign=-1))])
    return solve_exact(1, [v])


def rational_pair_solution():
    return solve_exact(2, [HeatSolution(X, label="x"), heat_polynomial(2)])


class TestHeatCatalog:
    def test_constant_and_linear(self):
        heat_constant(Fraction(3, 2))
        HeatSolution(X)

    def test_heat_polynomials(self):
        assert heat_polynomial(0).expr == ONE
        assert heat_polynomial(2).expr == X ** 2 + 2 * T
        assert heat_polynomial(3).expr == X ** 3 + 6 * T * X
        for n in range(8):
            heat_polynomial(n)  # construction re-checks the equation

    def test_exponential_and_trig(self):
        heat_exponential(2, sign=1)
        heat_exponential(Fraction(1, 2), sign=-1)
        heat_trig(1, "sin")
        heat_trig(3, "cos")

    def test_gaussian_kernel(self):
        g = heat_gaussian(1)
        # closed form: (t+1)^(-1/2) exp(-x^2/(4(t+1)))
        val = g.numeric_atoms[next(iter(g.numeric_atoms))](0.5, 0.0)
        assert val == pytest.approx(1.5 ** -0.5)

    def test_non_solution_rejected(self):
        with pytest.raises(HeatSolutionError):
            HeatSolution(X ** 2)  # (x^2)_t - (x^2)_xx = -2
        with pytest.raises(HeatSolutionError):
            HeatSolution(exp(X))

    def test_sum_closure(self):
        s = heat_sum([(Fraction(1, 3), heat_polynomial(4)), (-2, heat_gaussian(2))])
        assert s.rules is not None

    def test_catalog_json(self):
        doc = [
            {"kind": "constant", "value": "1"},
            {"kind": "sum", "terms": [
                {"coeff": "2", "term": {"kind": "heat_polynomial", "degree": 2}},
                {"coeff": "-1/3", "term": {"kind": "trig", "a": "1", "func": "cos"}},
            ]},
        ]
        vs = catalog_from_json(doc)
        assert len(vs) == 2
        with pytest.raises(ValueError):
            catalog_from_json([{"kind": "mystery"}])

    @pytest.mark.parametrize("rec", [
        {"kind": "heat_polynomial", "degree": 2.5},  # used to become heatpoly(2)
        {"kind": "heat_polynomial", "degree": True},
        {"kind": "exponential", "a": "1", "sign": 1.5},  # used to become +1
        {"kind": "exponential", "a": "1", "sign": True},
    ])
    def test_catalog_integers_are_json_integers(self, rec):
        with pytest.raises(ValueError, match="expected an integer"):
            catalog_from_json([rec])


class TestLinearSystem:
    def test_single_row_is_classical_transform(self):
        v = heat_polynomial(2)
        rows, rhs = hopfcole_matrix(1, [v])
        assert rows == [[v.expr]]
        assert rhs == [-2 * total_derivative(v.expr, "x")]

    def test_single_component_structural_reduction(self):
        # the solved numerator/denominator are exactly (-2 v_x, v)
        v = heat_exponential(1, sign=-1)
        sol = solve_exact(1, [v])
        assert sol.det == v.expr
        assert sol.numerators[0] == -2 * total_derivative(v.expr, "x")

    def test_constant_linear_data_zero_solution(self):
        sol = solve_exact(2, [heat_constant(1), HeatSolution(X)])
        for n in sol.numerators:
            assert n.is_zero()

    def test_traveling_wave_pointwise(self):
        sol = traveling_wave_solution()
        assert sol.evaluate(0.0, 0.0)[0] == pytest.approx(1.0)
        assert sol.evaluate(0.3, -8.0)[0] == pytest.approx(2.0, abs=1e-3)
        assert sol.evaluate(0.3, 12.0)[0] == pytest.approx(0.0, abs=1e-4)

    def test_rational_pair(self):
        sol = rational_pair_solution()
        t, x = 0.7, 0.4
        u1, u2 = sol.evaluate(t, x)
        assert u1 == pytest.approx(4 * x / (2 * t - x * x))
        assert u2 == pytest.approx(8 / (2 * t - x * x))

    def test_dependent_data_reports_witness(self):
        with pytest.raises(SingularSystemError) as err:
            solve_exact(2, [HeatSolution(X), HeatSolution(3 * X)])
        assert err.value.witness is not None
        p2 = heat_polynomial(2)
        with pytest.raises(SingularSystemError) as err:
            solve_exact(2, [p2, heat_sum([(3, p2)])])
        assert err.value.witness == [-3, 1]
        assert all(type(c) is Fraction for c in err.value.witness)
        assert str(err.value).endswith("(-3)*v1 + (1)*v2 = 0")

    def test_wrong_catalog_length(self):
        with pytest.raises(ValueError):
            hopfcole_matrix(2, [heat_constant(1)])


# solve the m = 4 mixed catalog after interning its exp atoms in the order
# the arguments give (none: the catalog's own order), and print a digest
# of D and the numerators; each order needs a fresh interpreter
INTERNING_ORDER = textwrap.dedent("""
    import hashlib, sys
    from burgers_hierarchy.hopfcole import heat_exponential, heat_polynomial, heat_sum, solve_exact
    for k in map(int, sys.argv[1:]):
        heat_exponential(k)
    vs = [heat_sum([(1, heat_exponential(k)), (1, heat_polynomial(k + 1))]) for k in range(1, 5)]
    sol = solve_exact(4, vs)
    text = "\\n".join(e.render() for e in (sol.det, *sol.numerators))
    print(hashlib.sha256(text.encode()).hexdigest())
""")


class TestExactPastM4:
    def test_m5_mixed_catalog_solves_its_rows(self):
        vs = mixed_catalog(5)
        sol = solve_exact(5, vs)
        assert sol.det.term_count() == 583
        matrix, rhs = hopfcole_matrix(5, vs)
        unknowns = sol.numerators[::-1]  # (u_m, ..., u_1)
        for row, b in zip(matrix, rhs):
            assert sum((a * n for a, n in zip(row, unknowns)), ZERO) == b * sol.det

    def test_solution_does_not_depend_on_interning_order(self):
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        digests = set()
        for order in ([], [4, 3, 2, 1], [3, 1, 4, 2]):
            proc = subprocess.run([sys.executable, "-c", INTERNING_ORDER, *map(str, order)],
                                  capture_output=True, text=True, env=env, timeout=300)
            assert proc.returncode == 0, proc.stderr
            digests.add(proc.stdout.strip())
        assert len(digests) == 1, digests


class TestCertification:
    def test_traveling_wave_symbolic(self):
        report = certify(traveling_wave_solution())
        assert report.mode == "symbolic" and report.passed

    def test_tanh_profile_symbolic(self):
        sol = solve_exact(1, [HeatSolution(exp(T) * cosh(X), label="exp(t)cosh(x)")])
        report = certify(sol)
        assert report.mode == "symbolic" and report.passed
        assert sol.evaluate(0.2, 1.3)[0] == pytest.approx(-2 * math.tanh(1.3))

    def test_rational_pair_symbolic(self):
        report = certify(rational_pair_solution())
        assert report.mode == "symbolic" and report.passed

    @pytest.mark.parametrize("m", [3, 4])
    def test_heat_polynomial_numeric(self, m):
        sol = solve_exact(m, [heat_polynomial(n) for n in range(1, m + 1)])
        assert certify(sol).mode == "symbolic"
        pts = sample_points(sol, 100, (0.1, 1.0, -3.0, 3.0), seed=4)
        worst = max(abs(v) for (t, x) in pts for v in sol.residual_values(t, x))
        assert worst < 1e-10

    def test_sample_box_degenerate_or_reversed(self):
        sol = rational_pair_solution()
        pts = sample_points(sol, 5, (0.5, 0.5, 1.5, 3.0))
        assert len(pts) == 5 and all(t == 0.5 for t, _ in pts)
        with pytest.raises(ValueError, match="reversed") as exc:
            sample_points(sol, 5, (1.0, 0.0, 5.0, 4.0))
        assert not isinstance(exc.value, CertificationError)

    def test_gaussian_symbolic(self):
        report = certify(solve_exact(1, [heat_gaussian(1)]))
        assert report.mode == "symbolic" and report.passed

    def test_failed_certification_raises(self):
        sol = traveling_wave_solution()
        # sabotage one numerator; the residual holds exp atoms and does
        # not reduce to 0
        sol.numerators[0] = sol.numerators[0] + ONE
        sol._residuals = None
        with pytest.raises(CertificationError, match="equation 1"):
            certify(sol)

    def test_proved_nonzero_residual_raises_without_sampling(self, monkeypatch):
        sol = rational_pair_solution()
        # a 1e-20 perturbation is far below any sampling tolerance, but the
        # residuals are polynomials in t, x, so they prove it wrong
        sol.numerators[0] = sol.numerators[0] + Fraction(1, 10 ** 20) * X
        sol._residuals = None
        assert not sol.residuals()[0].num.is_zero()

        def no_sampling(*args, **kwargs):
            raise AssertionError("a proved-wrong solution must not be sampled")

        monkeypatch.setattr(hopfcole, "sample_points", no_sampling)
        with pytest.raises(CertificationError, match="equation 1"):
            certify(sol)

    def test_undecided_residual_raises(self):
        sol = rational_pair_solution()
        # multiply each numerator by sin^2 + cos^2: the same functions, but
        # the residuals vanish only through an identity the kernel does
        # not apply, so they are nonzero with sin/cos atoms
        pythagoras = sin(X) ** 2 + cos(X) ** 2
        sol.numerators = [n * pythagoras for n in sol.numerators]
        assert not any(r.num.is_zero() for r in sol.residuals())
        # still a solution, in a box away from the singular set 2t = x^2
        worst = max(abs(v) for (t, x) in sample_points(sol, 20, (0.1, 1.0, 2.0, 4.0))
                    for v in sol.residual_values(t, x))
        assert worst < 1e-12
        # but it is not solve_exact's output, so certify does not accept it
        with pytest.raises(CertificationError, match="equation 1"):
            certify(sol)

    def test_residuals_share_the_cubed_determinant(self):
        sol = rational_pair_solution()
        residuals = sol.residuals()
        assert sol.residuals() is residuals   # cached
        for r in residuals:
            assert r.den == sol.det ** 3
            assert r.num.is_zero()

    def test_guard_excludes_singular_points(self):
        sol = rational_pair_solution()   # determinant zero on 2t = x^2
        assert not sol.guard_ok(0.5, 1.0)
        assert sol.guard_ok(0.5, 3.0)


class TestSympyOracle:
    @pytest.mark.parametrize("name", ["wave", "pair", "heatpoly-m3"])
    def test_rendered_solution_solves_the_system(self, name):
        sympy = pytest.importorskip("sympy")
        from sympy.parsing.sympy_parser import (
            convert_xor, parse_expr, standard_transformations)

        sol = {
            "wave": traveling_wave_solution,
            "pair": rational_pair_solution,
            "heatpoly-m3": lambda: solve_exact(3, [heat_polynomial(n) for n in (1, 2, 3)]),
        }[name]()
        t, x = sympy.symbols("t x")

        def parse(text):
            return parse_expr(text, local_dict={"t": t, "x": x},
                              transformations=standard_transformations + (convert_xor,))

        doc = sol.to_json_dict()
        us = [parse(c["numerator"]) / parse(c["denominator"]) for c in doc["components"]]
        for a, u in enumerate(us):
            r = sympy.diff(u, t) + u * sympy.diff(us[0], x) - sympy.diff(u, x, 2)
            if a + 1 < len(us):
                r += sympy.diff(us[a + 1], x)
            assert sympy.simplify(r) == 0, f"equation {a + 1}"


class TestBenchmarkTracerNames:
    """perfbench/tracing.py counts residual terms from ``num``/``den`` and
    certify outcomes from ``CertifyReport.mode``."""

    def test_residual_pairs_and_modes(self):
        for sol in (traveling_wave_solution(), rational_pair_solution(),
                    solve_exact(1, [heat_gaussian(1)])):
            for r in sol.residuals():
                assert isinstance(r.num, Expr) and isinstance(r.den, Expr)
            assert certify(sol).mode == "symbolic"

    @pytest.mark.parametrize("doc, calls", [
        ([{"kind": "heat_polynomial", "degree": n} for n in (1, 2, 3)], 200),
        ([{"kind": "gaussian", "t0": "1/2"},
          {"kind": "sum", "terms": [{"coeff": "1", "term": {"kind": "gaussian", "t0": "3"}},
                                    {"coeff": "2", "term": {"kind": "constant", "value": "1"}}]}],
         140),
        ([{"kind": "exponential", "a": "1", "sign": 1}, {"kind": "trig", "a": "2", "func": "sin"},
          {"kind": "heat_polynomial", "degree": 3}], 280),
    ], ids=["heatpoly-m3", "gaussian", "exp-sin"])
    def test_guard_eval_expr_calls(self, monkeypatch, doc, calls):
        # the tracer counts eval_expr by attribute: one call per matrix entry
        # and one for det per draw, one per function atom's argument in _env
        counted = [0]
        fn = symcore.eval_expr

        def counting(*args):
            counted[0] += 1
            return fn(*args)

        for mod in (symcore, hopfcole):
            monkeypatch.setattr(mod, "eval_expr", counting)
        sample_points(solve_exact(len(doc), catalog_from_json(doc)), 20)
        assert counted[0] == calls


class TestInvariances:
    def test_row_scaling(self):
        vs = [HeatSolution(X, label="x"), heat_polynomial(2)]
        base = solve_exact(2, vs)
        scaled = solve_exact(2, mix_heat_solutions(vs, [[3, 0], [0, Fraction(-1, 2)]]))
        rng = random.Random(3)
        for _ in range(50):
            t, x = rng.uniform(0.1, 1.0), rng.uniform(2.0, 4.0)
            for a, b in zip(base.evaluate(t, x), scaled.evaluate(t, x)):
                assert abs(a - b) < 1e-12

    def test_permutation(self):
        vs = [heat_polynomial(1), heat_polynomial(2), heat_polynomial(3)]
        base = solve_exact(3, vs)
        perm = solve_exact(3, [vs[2], vs[0], vs[1]])
        rng = random.Random(5)
        for _ in range(25):
            t, x = rng.uniform(0.1, 1.0), rng.uniform(1.5, 3.0)
            if not (base.guard_ok(t, x) and perm.guard_ok(t, x)):
                continue
            for a, b in zip(base.evaluate(t, x), perm.evaluate(t, x)):
                assert abs(a - b) < 1e-11

    def test_invertible_mixing(self):
        vs = [HeatSolution(X, label="x"), heat_polynomial(2)]
        base = solve_exact(2, vs)
        mixed = solve_exact(2, mix_heat_solutions(vs, [[1, 2], [Fraction(1, 2), -1]]))
        rng = random.Random(8)
        for _ in range(50):
            t, x = rng.uniform(0.1, 1.0), rng.uniform(2.0, 4.0)
            for a, b in zip(base.evaluate(t, x), mixed.evaluate(t, x)):
                assert abs(a - b) < 1e-12


def test_solution_export():
    sol = rational_pair_solution()
    doc = sol.to_json_dict()
    assert doc["m"] == 2
    assert len(doc["components"]) == 2
    from burgers_hierarchy.parser import parse_expr

    for comp in doc["components"]:
        parse_expr(comp["numerator"])
        parse_expr(comp["denominator"])
