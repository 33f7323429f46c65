"""Exact solutions of the coupled systems from heat-equation data.

Writing the system as a matrix Burgers equation for the companion matrix
and linearizing with the matrix transformation O = -2 P_x P^{-1} turns
solving into linear algebra: pick m heat-equation solutions v_1..v_m,
then the row system (u_0 = -1)

    sum_{j=0..m} (-2)^j u_{m-j} d^j v_i / dx^j = 0,      i = 1..m,

determines (u_m, ..., u_1).  The solved components are rational
functions whose denominator is the system determinant; solutions blow up
on its zero set, which is kept as a runtime domain guard.

Heat data comes from a small closed-form catalog (constants,
exponentials, damped trigonometric modes, heat polynomials, shifted
Gaussian kernels, and rational-coefficient sums of these); each entry is
validated against v_t - v_xx = 0 exactly at construction.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from fractions import Fraction
from functools import cached_property
import math
import random
from typing import Callable, Iterable, NamedTuple, Sequence

from .linalg import cramer_solve, rational_nullvector
from .symcore import (
    Atom,
    Expr,
    FuncApp,
    ONE,
    OpaqueDeriv,
    OpaqueSymbol,
    T,
    T_ATOM,
    X,
    X_ATOM,
    ZERO,
    SymbolicError,
    _FUNC_EVAL,
    _float_form,
    as_expr,
    cos,
    eval_expr,
    exp,
    rational,
    sin,
    total_derivative,
)

SINGULARITY_REL_TOL = 1e-8


class HeatSolutionError(ValueError):
    """Catalog entry does not solve the heat equation."""


class SingularSystemError(ValueError):
    """The symbolic determinant vanishes identically."""

    def __init__(self, message: str, witness: list[Fraction] | None = None):
        super().__init__(message)
        self.witness = witness


class CertificationError(ValueError):
    """A residual does not reduce to 0."""


NumericAtomMap = dict[Atom, Callable[[float, float], float]]


@dataclass
class HeatSolution:
    """A closed-form solution of v_t = v_xx.

    ``closure`` holds the total t-derivative of each auxiliary atom (the
    shifted-Gaussian amplitude, a function of t alone, so its x-derivative
    is 0), ``numeric_atoms`` their pointwise values.  Construction
    verifies the heat equation exactly.
    """

    expr: Expr
    label: str = ""
    closure: dict[Atom, Expr] = field(default_factory=dict)
    numeric_atoms: NumericAtomMap = field(default_factory=dict)

    def __post_init__(self):
        residual = total_derivative(self.expr, "t", self.closure) - total_derivative(
            total_derivative(self.expr, "x"), "x"
        )
        if not residual.is_zero():
            raise HeatSolutionError(
                f"{self.label or self.expr}: v_t - v_xx = {residual} != 0"
            )


def heat_constant(value) -> HeatSolution:
    return HeatSolution(as_expr(_as_rat(value)), label=f"const({value})")


def heat_exponential(a, sign: int = 1) -> HeatSolution:
    """exp(a^2 t + a x) for sign=+1, exp(a^2 t - a x) for sign=-1."""
    a = _as_rat(a)
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    arg = as_expr(a * a) * T + as_expr(sign * a) * X
    return HeatSolution(exp(arg), label=f"exp({a * a}*t{'+' if sign > 0 else '-'}{abs(a)}*x)")


def heat_trig(a, func: str = "sin") -> HeatSolution:
    """exp(-a^2 t) * sin(a x) or * cos(a x)."""
    a = _as_rat(a)
    osc = {"sin": sin, "cos": cos}.get(func)
    if osc is None:
        raise ValueError("func must be 'sin' or 'cos'")
    e = exp(as_expr(-a * a) * T) * osc(as_expr(a) * X)
    return HeatSolution(e, label=f"exp(-{a * a}*t)*{func}({a}*x)")


def heat_polynomial(n: int) -> HeatSolution:
    """Degree-n polynomial solution from the two-term recursion
    p_n = x*p_{n-1} + 2(n-1)*t*p_{n-2}, p_0 = 1, p_1 = x."""
    if n < 0:
        raise ValueError("degree must be nonnegative")
    p_prev, p = ZERO, ONE
    for deg in range(1, n + 1):
        p_prev, p = p, X * p + rational(2 * (deg - 1)) * T * p_prev
    return HeatSolution(p, label=f"heatpoly({n})")


def heat_gaussian(t0) -> HeatSolution:
    """The kernel (t + t0)^(-1/2) * exp(-x^2 / (4 (t + t0))), t0 > 0.

    The amplitude s = (t + t0)^(-1/2) is kept as an auxiliary atom whose
    closure gives ds/dt = -s^3/2, which keeps the heat check and all
    residual computations polynomial.
    """
    t0 = _as_rat(t0)
    if t0 <= 0:
        raise ValueError("t0 must be positive")
    tag = f"{t0.numerator}" + (f"q{t0.denominator}" if t0.denominator != 1 else "")
    sym = OpaqueSymbol(f"gk{tag}", (T_ATOM,))
    amplitude = OpaqueDeriv(sym, (0,))
    s = sym.expr()
    expr = s * exp(-(X ** 2) * s ** 2 / 4)
    t0f = float(t0)
    numeric = {amplitude: lambda t, x: (t + t0f) ** -0.5}
    return HeatSolution(expr, label=f"gaussian(t0={t0})", closure={amplitude: -(s ** 3) / 2},
                        numeric_atoms=numeric)


def heat_sum(terms: Iterable[tuple[object, HeatSolution]]) -> HeatSolution:
    """Rational-coefficient combination of catalog entries."""
    terms = [(_as_rat(c), sol) for c, sol in terms]
    expr = ZERO
    for c, sol in terms:
        expr = expr + as_expr(c) * sol.expr
    closure, numeric = _merged_closure(sol for _, sol in terms)
    label = " + ".join(f"{c}*{sol.label}" for c, sol in terms)
    return HeatSolution(expr, label=label, closure=closure, numeric_atoms=numeric)


def _merged_closure(sols: Iterable[HeatSolution]):
    """(closure, numeric atoms) of ``sols`` merged in order."""
    closure: dict[Atom, Expr] = {}
    numeric: NumericAtomMap = {}
    for sol in sols:
        closure.update(sol.closure)
        numeric.update(sol.numeric_atoms)
    return closure, numeric


def _as_rat(v) -> Fraction:
    # bool is an int, but JSON true is no rational
    if isinstance(v, (Fraction, int, str)) and not isinstance(v, bool):
        return Fraction(v)
    raise TypeError(f"expected an exact rational, got {v!r}")


def catalog_from_json(doc: list) -> list[HeatSolution]:
    """Build heat solutions from a list of {"kind": ..., ...} records."""
    if not isinstance(doc, list):
        raise ValueError(f"a catalog is a list of records, got {type(doc).__name__}")
    return [_entry_from_json(rec) for rec in doc]


def _json_int(value) -> int:
    """A JSON integer as it is: ``int()`` would truncate 2.5 and read true as 1."""
    if type(value) is not int:
        raise ValueError(f"expected an integer, got {value!r}")
    return value


def _entry_from_json(rec: dict) -> HeatSolution:
    if not isinstance(rec, dict):
        raise ValueError(f"a catalog record is an object, got {rec!r}")
    kind = rec.get("kind")
    if kind == "constant":
        return heat_constant(rec["value"])
    if kind == "exponential":
        return heat_exponential(rec["a"], _json_int(rec.get("sign", 1)))
    if kind == "trig":
        return heat_trig(rec["a"], rec.get("func", "sin"))
    if kind == "heat_polynomial":
        return heat_polynomial(_json_int(rec["degree"]))
    if kind == "gaussian":
        return heat_gaussian(rec["t0"])
    if kind == "sum":
        return heat_sum(
            (term["coeff"], _entry_from_json(term["term"])) for term in rec["terms"]
        )
    raise ValueError(f"unknown catalog kind {kind!r}")


# ---------------------------------------------------------------------------
# the linear system and its exact solution


def hopfcole_matrix(m: int, vs: Sequence[HeatSolution]) -> tuple[list[list[Expr]], list[Expr]]:
    """Row i: ((-2)^j d^j v_i/dx^j, j = 0..m-1) against the unknown
    vector (u_m, ..., u_1); right-hand side (-2)^m d^m v_i/dx^m."""
    if m < 1:
        raise ValueError(f"m must be positive, got {m}")
    if len(vs) != m:
        raise ValueError(f"need exactly {m} heat solutions, got {len(vs)}")
    rows = []
    rhs = []
    for v in vs:
        derivs = [v.expr]
        e = v.expr
        for _ in range(m):
            e = total_derivative(e, "x")
            derivs.append(e)
        rows.append([as_expr(Fraction(-2) ** j) * derivs[j] for j in range(m)])
        rhs.append(as_expr(Fraction(-2) ** m) * derivs[m])
    return rows, rhs


def _float_plan(det: Expr, numerators: Sequence[Expr],
                numeric_atoms: NumericAtomMap) -> Callable[[float, float], list[float]]:
    """Compile (t, x) -> [N_a / D] into one generated function that does
    :func:`eval_expr`'s float work in its order, from the same float layout,
    so values are bit-identical: t and x coerced with ``float``; each
    numeric and function atom, and each power of an atom, computed once;
    each polynomial summed as ``0.0 + c * a ** k * b ** j + ...`` in the
    order of ``Expr.terms`` (a coefficient 1.0 and an exponent 1 are
    exact, so they are left out).  Coefficients,
    libm functions and numeric-atom callables enter through the namespace
    under generated names, never as source text."""
    namespace: dict = {}  # generated name -> coefficient, libm function or callable
    bound: dict = {}  # coefficient, function name or numeric atom -> generated name
    local: dict = {T_ATOM: "t", X_ATOM: "x"}  # atom or (atom, k) -> its local
    lines = ["t = float(t)", "x = float(x)"]

    def bind(value, key) -> str:
        if key not in bound:
            bound[key] = f"g{len(bound)}"
            namespace[bound[key]] = value
        return bound[key]

    def assign(value: str, key=None) -> str:
        name = f"v{len(lines)}"
        lines.append(f"{name} = {value}")
        if key is not None:
            local[key] = name
        return name

    def atom(a) -> str:
        if a in local:
            return local[a]
        if not isinstance(a, FuncApp):
            raise SymbolicError(f"no numeric value for atom {a.render()}")
        return assign(f"{bind(_FUNC_EVAL[a.fname], a.fname)}({poly(a.arg)})", a)

    def power(a, k: int) -> str:
        base = atom(a)
        if k == 1:
            return base
        return local.get((a, k)) or assign(f"{base} ** {k}", (a, k))

    def poly(e: Expr) -> str:
        atoms, layout = _float_form(e)
        terms = []
        for c, powers in layout:
            factors = [power(atoms[i], k) for i, k in powers]
            if c != 1.0 or not factors:
                factors.insert(0, bind(c, c))
            terms.append(" * ".join(factors))
        # one statement per 64 terms keeps the compiler's recursion shallow
        name = assign("0.0" + "".join(f" + {f}" for f in terms[:64]))
        for i in range(64, len(terms), 64):
            lines.append(f"{name} = {name}" + "".join(f" + {f}" for f in terms[i:i + 64]))
        return name

    for a, fn in numeric_atoms.items():
        assign(f"float({bind(fn, a)}(t, x))", a)
    d = poly(det)
    quotients = ", ".join(f"{poly(n)} / {d}" for n in numerators)
    source = "def plan(t, x):\n    " + "\n    ".join(lines) + f"\n    return [{quotients}]\n"
    exec(compile(source, "<exact-solution float plan>", "exec"), namespace)
    return namespace["plan"]


class RationalExpr(NamedTuple):
    """num/den over the polynomial kernel, kept as a pair: no gcd
    cancellation and no arithmetic."""

    num: Expr
    den: Expr


@dataclass(frozen=True)
class ExactSolution:
    """Closed-form m-tuple solving the coupled system, with the
    determinant of the linear system attached as a domain guard.  Frozen,
    with tuple numerators, so its cached properties cannot go stale;
    ``dataclasses.replace`` makes an edited copy."""

    m: int
    numerators: tuple[Expr, ...]
    det: Expr
    matrix: list[list[Expr]]
    closure: dict[Atom, Expr]
    numeric_atoms: NumericAtomMap
    labels: list[str]

    @cached_property
    def _fills(self) -> tuple:
        # _env's values beside t and x: the numeric atoms, then each function
        # atom of det and the numerators, once per point, not per occurrence
        atoms = set().union(*(e.atoms() for e in (self.det, *self.numerators)))
        return tuple((a, fn, None) for a, fn in self.numeric_atoms.items()) + tuple(
            (a, _FUNC_EVAL[a.fname], a.arg) for a in atoms if isinstance(a, FuncApp))

    @cached_property
    def _plan(self) -> Callable:
        return _float_plan(self.det, self.numerators, self.numeric_atoms)

    def _env(self, t: float, x: float) -> dict:
        env: dict = {T_ATOM: t, X_ATOM: x}
        for atom, fn, arg in self._fills:
            env[atom] = fn(t, x) if arg is None else fn(eval_expr(arg, env))
        return env

    def evaluate(self, t: float, x: float) -> list[float]:
        """u_a = N_a / D at (t, x) as Python floats, bit-identical to
        :func:`eval_expr` on :meth:`_env`, from the float plan compiled on
        the first call.  A zero determinant raises ``ZeroDivisionError``
        naming the point."""
        try:
            return self._plan(t, x)
        except ZeroDivisionError:
            raise ZeroDivisionError(f"the determinant vanishes at t={t}, x={x}") from None

    def guard_ok(self, t: float, x: float) -> bool:
        """Reject points on or too close to the determinant's zero set,
        measured against the product of matrix row norms (zero when a
        row vanishes, so the zero set itself needs its own test)."""
        env = self._env(t, x)
        scale = 1.0
        for row in self.matrix:
            norm = sum(eval_expr(e, env) ** 2 for e in row) ** 0.5
            scale *= norm
        det = abs(eval_expr(self.det, env))
        return det != 0 and det >= SINGULARITY_REL_TOL * scale

    def residuals(self) -> list[RationalExpr]:
        """Residual r_a = u_a,t + u_a u_1,x - u_a,xx + u_{a+1},x of each
        equation as R_a / D^3, with R_a = D^3 r_a built over the one common
        denominator; R_a = 0 proves equation a.

        With u_a = N_a / D, W_a = N_a,x D - N_a D_x and W_{m+1} = 0
        (u_{m+1} = 0),

            R_a = D ((N_a,t - N_a,xx) D - N_a (D_t - D_xx) + W_{a+1})
                  + N_a W_1 + 2 D_x W_a.
        """
        return self._residuals

    @cached_property
    def _residuals(self) -> list[RationalExpr]:
        def d(e: Expr, v: str) -> Expr:
            # an auxiliary atom depends on t alone: its D_x is 0, and the
            # closure is D_t's image of it
            return total_derivative(e, v, self.closure if v == "t" else None)

        det = self.det
        det_x = d(det, "x")
        det_heat = d(det, "t") - d(det_x, "x")
        nums = self.numerators
        nums_x = [d(n, "x") for n in nums]
        ws = [n_x * det - n * det_x for n, n_x in zip(nums, nums_x)] + [ZERO]
        den = det * det * det
        out = []
        for a in range(self.m):
            n = nums[a]
            inner = (d(n, "t") - d(nums_x[a], "x")) * det - n * det_heat + ws[a + 1]
            r = det * inner + n * ws[0] + 2 * det_x * ws[a]
            out.append(RationalExpr(r, den))
        return out

    def residual_values(self, t: float, x: float) -> list[float]:
        env = self._env(t, x)
        return [eval_expr(r.num, env) / eval_expr(r.den, env) for r in self.residuals()]

    def to_json_dict(self) -> dict:
        det = self.det.render()
        return {
            "m": self.m,
            "heat_data": self.labels,
            "determinant": det,
            "components": [{"numerator": n.render(), "denominator": det} for n in self.numerators],
        }


def solve_exact(m: int, vs: Sequence[HeatSolution]) -> ExactSolution:
    """Exact elimination of the linear system; raises
    :class:`SingularSystemError` (with a rational dependency witness when
    one exists) if the determinant vanishes identically."""
    matrix, rhs = hopfcole_matrix(m, vs)
    try:
        det, unknown_nums = cramer_solve(matrix, rhs)
    except ZeroDivisionError:
        witness = rational_nullvector([v.expr for v in vs])
        msg = "the heat data produce an identically singular system"
        if witness is not None:
            combo = " + ".join(f"({c})*v{i + 1}" for i, c in enumerate(witness) if c != 0)
            msg += f"; dependency witness: {combo} = 0"
        raise SingularSystemError(msg, witness) from None
    # unknown order is (u_m, ..., u_1): reverse into component order
    numerators = tuple(reversed(unknown_nums))
    closure, numeric = _merged_closure(vs)
    return ExactSolution(
        m=m,
        numerators=numerators,
        det=det,
        matrix=matrix,
        closure=closure,
        numeric_atoms=numeric,
        labels=[v.label for v in vs],
    )


# ---------------------------------------------------------------------------
# certification


@dataclass
class CertifyReport:
    """A proof that every residual is 0; :func:`certify` raises otherwise."""

    m: int
    mode: str
    passed: bool = True

    def to_json_dict(self) -> dict:
        return asdict(self)


def sample_points(
    sol: ExactSolution,
    n: int,
    box: tuple[float, float, float, float] = (0.1, 1.0, -3.0, 3.0),
    seed: int = 20250
) -> list[tuple[float, float]]:
    """Deterministic samples inside (t_min, t_max, x_min, x_max) that
    respect the singularity guard.  A non-finite or reversed box, or one
    with fewer than n guard-safe points in 200*n draws, raises
    ``ValueError``; a degenerate box (t_min == t_max, say) is valid."""
    t_min, t_max, x_min, x_max = box
    if not all(map(math.isfinite, box)):
        raise ValueError(f"sample box {box} has a non-finite bound")
    if t_min > t_max or x_min > x_max:
        raise ValueError(f"sample box {box} is reversed: need t_min <= t_max "
                         "and x_min <= x_max")
    rng = random.Random(seed)
    points = []
    attempts = 0
    while len(points) < n:
        attempts += 1
        if attempts > 200 * n:
            raise ValueError(f"could not find {n} guard-safe sample points in {box}")
        t = rng.uniform(t_min, t_max)
        x = rng.uniform(x_min, x_max)
        if sol.guard_ok(t, x):
            points.append((t, x))
    return points


def certify(sol: ExactSolution) -> CertifyReport:
    """Prove that sol solves the system: every residual R_a is 0.

    Heat data always pass.  Each :class:`HeatSolution` satisfies
    v_t = v_xx canonically (construction checks it, with D_t taking each
    auxiliary atom to its closure image); the kernel's D_t and D_x commute,
    since an auxiliary atom's D_x is 0 and its D_t image is free of x, so
    d_t d_x^j v = d_x^{j+2} v canonically.  R_a is a polynomial in the
    entries d_x^j v_i that the Hopf-Cole identity makes the zero
    polynomial, and a polynomial identity still holds mapped into the
    kernel.  So a nonzero R_a means sol did not come from
    :func:`solve_exact` on heat data (its numerators were edited, say):
    raise :class:`CertificationError` naming the first such equation.
    """
    for a, r in enumerate(sol.residuals(), start=1):
        if not r.num.is_zero():
            raise CertificationError(
                f"equation {a}: the residual R_{a} does not reduce to 0, so the "
                "solution was not built by solve_exact from heat data"
            )
    return CertifyReport(sol.m, "symbolic")


def mix_heat_solutions(vs: Sequence[HeatSolution], coeffs: Sequence[Sequence]) -> list[HeatSolution]:
    """Replace v_i by sum_j coeffs[i][j] * v_j (for gauge-invariance checks)."""
    return [heat_sum(zip(row, vs)) for row in coeffs]
