"""Acceptance gate: one test and one printed pass/fail line per
criterion, at the stated tolerances.

Run with ``pytest tests/test_acceptance.py -v -s``.
"""

import json
import random
import time
from fractions import Fraction
from itertools import product

from burgers_hierarchy.cli import main as cli_main
from burgers_hierarchy.fdsolve import (
    Grid1D,
    convergence_study,
    error_norms,
    field_from_exact,
    make_boundary,
    solve_ivp,
)
from burgers_hierarchy.hierarchy import (
    build_delta,
    build_symmetry_field,
    companion_row_permutation,
    matrix_burgers_residual,
)
from burgers_hierarchy.hopfcole import (
    HeatSolution,
    certify,
    heat_constant,
    heat_exponential,
    heat_polynomial,
    heat_sum,
    mix_heat_solutions,
    sample_points,
    solve_exact,
)
from burgers_hierarchy.liealg import structure_constants
from burgers_hierarchy.parser import parse_expr
from burgers_hierarchy.prolong import (
    determining_polynomials,
    generic_ansatz,
    kappa_poly_coefficients,
    verify_classical,
    verify_kappa_constraint,
    verify_theorem,
)
from burgers_hierarchy.symcore import cosh, exp, jet, T, X

from test_hierarchy import GOLDEN_FIELDS
from test_prolong import expected_cubic_pair, expected_cubic_single, poly_divides


def check(num: int, ok: bool, text: str):
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} - {text}")
    assert ok, f"criterion {num} failed: {text}"


# golden closed forms of the follow-up systems, one equation per line
GOLDEN_SYSTEMS = {
    3: [
        "u[2,1]_t + u[2,1]*u[2,1]_x - u[2,1]_x_x + u[2,2]_x",
        "u[2,2]_t + u[2,2]*u[2,1]_x - u[2,2]_x_x + u[2,3]_x",
        "u[2,3]_t + u[2,3]*u[2,1]_x - u[2,3]_x_x",
    ],
    4: [
        "u[2,1]_t + u[2,1]*u[2,1]_x - u[2,1]_x_x + u[2,2]_x",
        "u[2,2]_t + u[2,2]*u[2,1]_x - u[2,2]_x_x + u[2,3]_x",
        "u[2,3]_t + u[2,3]*u[2,1]_x - u[2,3]_x_x + u[2,4]_x",
        "u[2,4]_t + u[2,4]*u[2,1]_x - u[2,4]_x_x",
    ],
    5: [
        "u[3,1]_t + u[3,1]*u[3,1]_x - u[3,1]_x_x + u[3,2]_x",
        "u[3,2]_t + u[3,2]*u[3,1]_x - u[3,2]_x_x + u[3,3]_x",
        "u[3,3]_t + u[3,3]*u[3,1]_x - u[3,3]_x_x + u[3,4]_x",
        "u[3,4]_t + u[3,4]*u[3,1]_x - u[3,4]_x_x + u[3,5]_x",
        "u[3,5]_t + u[3,5]*u[3,1]_x - u[3,5]_x_x",
    ],
    6: [
        "u[3,1]_t + u[3,1]*u[3,1]_x - u[3,1]_x_x + u[3,2]_x",
        "u[3,2]_t + u[3,2]*u[3,1]_x - u[3,2]_x_x + u[3,3]_x",
        "u[3,3]_t + u[3,3]*u[3,1]_x - u[3,3]_x_x + u[3,4]_x",
        "u[3,4]_t + u[3,4]*u[3,1]_x - u[3,4]_x_x + u[3,5]_x",
        "u[3,5]_t + u[3,5]*u[3,1]_x - u[3,5]_x_x + u[3,6]_x",
        "u[3,6]_t + u[3,6]*u[3,1]_x - u[3,6]_x_x",
    ],
    7: [
        "u[4,1]_t + u[4,1]*u[4,1]_x - u[4,1]_x_x + u[4,2]_x",
        "u[4,2]_t + u[4,2]*u[4,1]_x - u[4,2]_x_x + u[4,3]_x",
        "u[4,3]_t + u[4,3]*u[4,1]_x - u[4,3]_x_x + u[4,4]_x",
        "u[4,4]_t + u[4,4]*u[4,1]_x - u[4,4]_x_x + u[4,5]_x",
        "u[4,5]_t + u[4,5]*u[4,1]_x - u[4,5]_x_x + u[4,6]_x",
        "u[4,6]_t + u[4,6]*u[4,1]_x - u[4,6]_x_x + u[4,7]_x",
        "u[4,7]_t + u[4,7]*u[4,1]_x - u[4,7]_x_x",
    ],
    8: [
        "u[4,1]_t + u[4,1]*u[4,1]_x - u[4,1]_x_x + u[4,2]_x",
        "u[4,2]_t + u[4,2]*u[4,1]_x - u[4,2]_x_x + u[4,3]_x",
        "u[4,3]_t + u[4,3]*u[4,1]_x - u[4,3]_x_x + u[4,4]_x",
        "u[4,4]_t + u[4,4]*u[4,1]_x - u[4,4]_x_x + u[4,5]_x",
        "u[4,5]_t + u[4,5]*u[4,1]_x - u[4,5]_x_x + u[4,6]_x",
        "u[4,6]_t + u[4,6]*u[4,1]_x - u[4,6]_x_x + u[4,7]_x",
        "u[4,7]_t + u[4,7]*u[4,1]_x - u[4,7]_x_x + u[4,8]_x",
        "u[4,8]_t + u[4,8]*u[4,1]_x - u[4,8]_x_x",
    ],
}


def traveling_wave():
    v = heat_sum([(1, heat_constant(1)), (1, heat_exponential(1, sign=-1))])
    return solve_exact(1, [v])


def rational_pair():
    return solve_exact(2, [HeatSolution(X, label="x"), heat_polynomial(2)])


def test_criterion_1_theorem_reproduction(tmp_path):
    t0 = time.perf_counter()
    # the stated command line, end to end
    assert cli_main(["verify", "theorem", "--m", "1..6",
                     "--out-dir", str(tmp_path)]) == 0
    for m in range(1, 7):
        doc = json.loads((tmp_path / f"verify_theorem_m{m}.json").read_text())
        assert doc["status"] == "ok", f"m={m}"
        report = verify_theorem(m)
        assert report.status == "ok", f"m={m}"
        field = build_symmetry_field(m)
        golden = GOLDEN_FIELDS[m]
        assert field.xi == parse_expr(golden["xi"]), f"m={m}: xi"
        assert [e for e in field.etas] == [parse_expr(s) for s in golden["etas"]], \
            f"m={m}: etas"
        follow_up = build_delta(m + 2)
        golden_sys = [parse_expr(s) for s in GOLDEN_SYSTEMS[m + 2]]
        assert list(follow_up.residuals) == golden_sys, f"m={m}: follow-up system"
    elapsed = time.perf_counter() - t0
    check(1, elapsed < 60.0,
          f"theorem verified for m=1..6 against the golden forms in {elapsed:.1f}s")


def test_criterion_2_kappa_constraints():
    target_m1 = [Fraction(0), Fraction(-1), Fraction(-1), Fraction(2)]
    target_gen = [Fraction(0), Fraction(1), Fraction(2)]
    c1 = kappa_poly_coefficients(verify_kappa_constraint(1))
    ok = poly_divides(target_m1, c1)
    for m in (2, 3):
        cm = kappa_poly_coefficients(verify_kappa_constraint(m))
        ok = ok and poly_divides(target_gen, cm)
    check(2, ok, "constraint divisible by k(k-1)(2k+1) for m=1 and k(2k+1) for m=2,3")


def test_criterion_3_determining_polynomial_fidelity():
    field1, syms1 = generic_ansatz(1)
    got1 = determining_polynomials(field1)[0]
    want1 = expected_cubic_single(syms1["xi"], syms1["eta1"], jet(1, 1), jet(1, 1, nx=1))
    field2, syms2 = generic_ansatz(2)
    got2 = determining_polynomials(field2)
    want2 = expected_cubic_pair(syms2["xi"], syms2["eta1"], syms2["eta2"],
                                jet(1, 1), jet(1, 2), jet(1, 1, nx=1), jet(1, 2, nx=1))
    ok = got1 == want1 and got2[0] == want2[0] and got2[1] == want2[1]
    check(3, ok, "generic-ansatz residuals match the golden cubics for m=1 and m=2")


def test_criterion_4_matrix_form():
    ok = True
    for m in range(1, 7):
        res = matrix_burgers_residual(m)
        system = build_delta(m)
        ok = ok and all(e.is_zero() for row in res[:m - 1] for e in row)
        perm = companion_row_permutation(m)
        ok = ok and all(res[m - 1][j] == system.residuals[perm[j] - 1]
                        for j in range(m))
    check(4, ok, "matrix residual rows vanish and the last row carries the system, m<=6")


def test_criterion_5_exact_solution_certification():
    wave = certify(traveling_wave())
    tanh_sol = certify(solve_exact(1, [HeatSolution(exp(T) * cosh(X), label="cosh")]))
    pair = certify(rational_pair())
    ok = all(r.mode == "symbolic" and r.passed for r in (wave, tanh_sol, pair))
    worst_overall = 0.0
    for m in (3, 4):
        sol = solve_exact(m, [heat_polynomial(n) for n in range(1, m + 1)])
        ok = ok and certify(sol).mode == "symbolic"
        pts = sample_points(sol, 100, (0.1, 1.0, -3.0, 3.0), seed=91)
        worst = max(abs(v) for (t, x) in pts for v in sol.residual_values(t, x))
        worst_overall = max(worst_overall, worst)
        ok = ok and worst < 1e-10
    check(5, ok, f"symbolic zeros for m=1..4; max numeric residual "
                 f"{worst_overall:.2e} < 1e-10 for m=3,4 at 100 points")


def test_criterion_6_gauge_invariance():
    vs = [HeatSolution(X, label="x"), heat_polynomial(2)]
    base = solve_exact(2, vs)
    scaled = solve_exact(2, mix_heat_solutions(vs, [[3, 0], [0, Fraction(-1, 2)]]))
    mixed = solve_exact(2, mix_heat_solutions(vs, [[1, 2], [Fraction(1, 2), -1]]))
    rng = random.Random(17)
    worst = 0.0
    count = 0
    while count < 50:
        t, x = rng.uniform(0.1, 1.0), rng.uniform(2.0, 4.0)
        if not base.guard_ok(t, x):
            continue
        count += 1
        b = base.evaluate(t, x)
        for other in (scaled, mixed):
            o = other.evaluate(t, x)
            worst = max(worst, max(abs(p - q) for p, q in zip(b, o)))
    check(6, worst < 1e-12,
          f"row scaling and invertible mixing leave components unchanged "
          f"(max diff {worst:.2e} at 50 points)")


def test_criterion_7_solver_validation():
    wave = traveling_wave()
    grid = Grid1D(-10.0, 10.0, 400, 1e-4, 0.5)
    init = field_from_exact(wave, grid, 0.0)
    final = solve_ivp(1, init, grid, [0.5], make_boundary(wave, grid))[-1]
    _, linf = error_norms(final, field_from_exact(wave, grid, 0.5), grid.dx)
    ladder1 = convergence_study(1, wave, [100, 200, 400], -10.0, 10.0, 0.5)
    ladder2 = convergence_study(2, rational_pair(), [100, 200, 400], 2.0, 4.0, 0.1)
    orders = ladder1.orders_l2 + ladder2.orders_l2
    ok = linf < 1e-3 and all(1.8 <= p <= 2.2 for p in orders)
    check(7, ok, f"Linf={linf:.2e} < 1e-3 at nx=400; observed orders "
                 f"{[round(p, 2) for p in orders]} within [1.8, 2.2]")


def test_criterion_8_lie_algebra():
    tables = {m: structure_constants(m) for m in range(1, 9)}
    ok = all(t.jacobi_residual() == 0 for t in tables.values())
    ok = ok and all(t.entry(i, j, k) == -t.entry(j, i, k) for t in tables.values()
                    for i, j, k in product(range(1, 6), repeat=3))
    ok = ok and all(tables[m].brackets == tables[1].brackets for m in range(2, 9))
    ok = ok and all(verify_classical(m).status == "ok" for m in range(1, 9))
    check(8, ok, "closure, identical tables, exact Jacobi, and classical "
                 "invariance for m=1..8")


def test_criterion_9_determinism(tmp_path):
    catalog = tmp_path / "catalog_m2.json"
    catalog.write_text(json.dumps([
        {"kind": "heat_polynomial", "degree": 1},
        {"kind": "heat_polynomial", "degree": 2},
    ]))
    commands = [
        ["gen", "--m", "3", "--format", "json", "--out", "{d}/gen_m3.json"],
        ["verify", "theorem", "--m", "1..2", "--out-dir", "{d}", "--no-meta"],
        ["verify", "kappa", "--m", "1..2", "--out-dir", "{d}", "--no-meta"],
        ["verify", "liealg", "--m", "1..2", "--out-dir", "{d}", "--no-meta"],
        ["exact", "--m", "2", "--catalog", str(catalog), "--certify",
         "--points", "25", "--box", "0.1", "1.0", "1.5", "3.0",
         "--out-dir", "{d}", "--no-meta"],
        ["solve", "--m", "2", "--catalog", str(catalog),
         "--x-min", "2", "--x-max", "4", "--nx", "64", "--dt", "1e-3",
         "--t-end", "0.02", "--out-dir", "{d}", "--no-meta"],
        ["convergence", "--m", "2", "--catalog", str(catalog),
         "--ladder", "32,64,128", "--x-min", "2", "--x-max", "4",
         "--t-end", "0.02", "--out-dir", "{d}", "--no-meta"],
    ]
    dirs = [tmp_path / "run1", tmp_path / "run2"]
    for d in dirs:
        d.mkdir()
        for cmd in commands:
            argv = [part.replace("{d}", str(d)) for part in cmd]
            assert cli_main(argv) == 0, argv
    names1 = sorted(p.name for p in dirs[0].iterdir())
    names2 = sorted(p.name for p in dirs[1].iterdir())
    ok = names1 == names2 and len(names1) >= 10
    for name in names1:
        ok = ok and (dirs[0] / name).read_bytes() == (dirs[1] / name).read_bytes()
    check(9, ok, f"two runs produced byte-identical artifacts ({len(names1)} files)")
