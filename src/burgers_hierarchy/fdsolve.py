"""Finite-difference initial-value solver for the coupled systems.

Semi-implicit scheme on a uniform 1-D grid: the stiff diffusion term is
treated by the trapezoidal rule (Crank-Nicolson), while the advection and
coupling terms u_a * u_1,x and u_{a+1},x use second-order central
differences evaluated at the previous time level, fused into one explicit
expression over the centre and neighbour views of the state (of one
wrapped copy on periodic grids).  The implicit operator and the explicit
scalars are built and factored once per (boundary, nx, dx, substep length
h).  On Dirichlet grids the end values are known, so the operator is the
constant symmetric positive definite tridiagonal matrix of the nx - 2
interior unknowns: LAPACK ``pttrf`` factors it once, the boundary data
moves into the first and last interior rows of the right-hand side, and
each substep is one O(nx) ``pttrs`` solve of all m components.  The
periodic operator, with its wraparound corners, is a sparse matrix
factored once.  The advective CFL constraint dt <= C_ADV * dx / max|u_1| is
enforced by adaptive substepping.

Boundary data either comes from an exact solution (Dirichlet, used for
validation runs) or is periodic (free exploration).  Exact initial data,
Dirichlet data at every substep and target fields all go through
``ExactSolution.evaluate``, which runs the float plan compiled once per
solution.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
import functools
import math
from typing import Callable, Sequence

import numpy as np
from scipy.linalg import LinAlgError
from scipy.linalg.lapack import dpttrf, dpttrs
from scipy.sparse import diags
from scipy.sparse.linalg import factorized


class SolverBlowupError(ArithmeticError):
    """Non-finite values appeared in the state."""


class CFLError(ArithmeticError):
    """The advective stability constraint could not be met by substepping."""


BoundaryFn = Callable[[float], np.ndarray]  # t -> array (m, 2): left, right values

C_ADV = 0.5  # advective Courant number each substep keeps to
THETA = 0.5  # implicit weight of the diffusion term (trapezoidal rule)
MAX_SUBSTEPS = 100_000  # CFL substeps allowed per step before CFLError


@dataclass
class Grid1D:
    """Uniform grid and time-stepping parameters."""

    x_min: float
    x_max: float
    nx: int
    dt: float
    t_end: float
    boundary: str = "dirichlet"  # or "periodic"

    def __post_init__(self):
        if not all(map(math.isfinite, (self.x_min, self.x_max, self.dt, self.t_end))):
            raise ValueError("x_min, x_max, dt and t_end must be finite")
        if not self.x_min < self.x_max:
            raise ValueError("the domain needs x_min < x_max")
        if self.nx < 8:
            raise ValueError("nx must be at least 8")
        if self.dt <= 0 or self.t_end < 0:
            raise ValueError("dt must be positive and t_end nonnegative")
        if self.boundary not in ("dirichlet", "periodic"):
            raise ValueError("boundary must be 'dirichlet' or 'periodic'")

    @property
    def dx(self) -> float:
        return (self.x_max - self.x_min) / (self.nx - 1)

    def xs(self) -> np.ndarray:
        return np.linspace(self.x_min, self.x_max, self.nx)


@dataclass
class GridField:
    """m-component state on the grid at one time level."""

    values: np.ndarray  # shape (m, nx)
    time: float

    def __post_init__(self):
        v = self.values
        # a 2-D float64 ndarray is what the conversion would return as is
        if not (type(v) is np.ndarray and v.ndim == 2 and v.dtype == np.float64):
            self.values = np.atleast_2d(np.asarray(v, dtype=float))

    @property
    def m(self) -> int:
        return self.values.shape[0]

    def check_finite(self):
        if not np.all(np.isfinite(self.values)):
            raise SolverBlowupError(f"non-finite state at t={self.time}")


def _explicit(c, right, left, r: float, g: float) -> np.ndarray:
    """Explicit part c + r (right - 2c + left) - g (c D_1 + D_{a+1}) of a
    substep from the centre, right- and left-neighbour views of an (m, n)
    state, with D = right - left, r = (1 - THETA) h / dx^2, g = h / (2 dx).
    The result is a fresh C-ordered array."""
    delta = right - left
    delta *= g
    adv = c * delta[0]
    adv[:-1] += delta[1:]
    out = right + left
    out *= r
    out += (1 - 2 * r) * c
    out -= adv
    return out


def solve_banded(d: np.ndarray, e: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve the symmetric positive definite tridiagonal system whose
    L D L^T factor ``dpttrf`` returned as (d, e), for an (n,) or (n, k)
    right-hand side, with one LAPACK ``dpttrs`` call.  An F-contiguous rhs
    is overwritten with the solution and returned; any other is copied
    first.  Non-finite entries propagate to their own columns."""
    x, info = dpttrs(d, e, rhs, overwrite_b=1)
    if info != 0:
        raise LinAlgError(f"dpttrs failed with info={info}")
    return x


@functools.lru_cache(maxsize=8)
def _implicit_solver(boundary: str, nx: int, dx: float, h: float):
    """(solve, r, g) for substeps of length h, where r, g are the scalars of
    :func:`_explicit` and ``solve`` inverts I - THETA*h*L.

    Dirichlet: ``solve(rhs, ends)`` takes the (m, nx - 2) explicit interior
    part, which it overwrites, and the (m, 2) boundary data at the new time,
    and returns the new interior.  The data enters the first and last rows
    of the right-hand side, and the constant SPD interior matrix (diagonal
    1 + 2 THETA h/dx^2, off-diagonal -THETA h/dx^2) is factored once here,
    so each call is one :func:`solve_banded`.  Periodic: ``solve(rhs)``
    takes an (nx, k) right-hand side; the sparse matrix with the
    wraparound corners is factored once.  A failed factorisation raises
    ``LinAlgError``.  Non-finite input propagates to the result, where the
    caller's blow-up check catches it."""
    r = THETA * h / dx ** 2
    explicit = (1 - THETA) * h / dx ** 2, h / (2 * dx)
    if boundary == "periodic":
        mat = diags([-r, -r, 1 + 2 * r, -r, -r], [1 - nx, -1, 0, 1, nx - 1],
                    shape=(nx, nx), format="csc")
        return (factorized(mat), *explicit)
    n = nx - 2
    d, e, info = dpttrf(np.full(n, 1 + 2 * r), np.full(n - 1, -r))
    if info != 0:
        raise LinAlgError(f"dpttrf failed with info={info}")
    d.setflags(write=False)  # shared by every caller of the cached solver
    e.setflags(write=False)

    def solve(rhs: np.ndarray, ends: np.ndarray) -> np.ndarray:
        rows = rhs[:, ::n - 1]  # the first and last interior rows
        rows += r * ends
        return solve_banded(d, e, rhs.T).T

    return (solve, *explicit)


def _substep(values: np.ndarray, t: float, h: float, grid: Grid1D,
             bc: BoundaryFn | None, solver) -> np.ndarray:
    """One substep; Dirichlet end columns are the boundary data."""
    solve, r, g = solver
    if grid.boundary == "periodic":
        w = np.concatenate((values[:, -1:], values, values[:, :1]), axis=1)
        return solve(_explicit(w[:, 1:-1], w[:, 2:], w[:, :-2], r, g).T).T
    ends = bc(t + h)
    new = np.empty_like(values)
    interior = _explicit(values[:, 1:-1], values[:, 2:], values[:, :-2], r, g)
    new[:, 1:-1] = solve(interior, ends)
    new[:, ::grid.nx - 1] = ends
    return new


def step(state: GridField, grid: Grid1D, bc: BoundaryFn | None = None,
         dt: float | None = None) -> GridField:
    """Advance by dt, or by grid.dt when dt is not given (with internal
    CFL substepping); returns a new field and never mutates the input.  A
    non-finite input raises :class:`SolverBlowupError`: from the CFL
    estimate when it is in u_1, else from the check after the first
    substep, which it reaches."""
    if grid.boundary == "dirichlet" and bc is None:
        raise ValueError("dirichlet boundaries need a boundary-data callable")
    if dt is None:
        dt = grid.dt
    elif not 0 < dt < math.inf:
        raise ValueError("dt must be positive and finite")
    dx = grid.dx
    values = state.values
    umax = float(np.abs(values[0]).max()) if values.size else 0.0
    if not math.isfinite(umax):
        raise SolverBlowupError(f"non-finite state at t={state.time}")
    dt_max = C_ADV * dx / max(umax, 1e-12)
    nsub = max(1, math.ceil(dt / dt_max))
    if nsub > MAX_SUBSTEPS:
        raise CFLError(
            f"advective CFL needs {nsub} substeps per dt (> {MAX_SUBSTEPS})"
        )
    h = dt / nsub
    solver = _implicit_solver(grid.boundary, grid.nx, dx, h)
    t = state.time
    for _ in range(nsub):
        values = _substep(values, t, h, grid, bc, solver)
        t += h
        if not np.isfinite(values).all():
            raise SolverBlowupError(f"solver blow-up at t={t}")
    return GridField(values, state.time + dt)


def solve_ivp(
    m: int,
    initial: GridField,
    grid: Grid1D,
    snapshot_times: Sequence[float] | None = None,
    bc: BoundaryFn | None = None,
) -> list[GridField]:
    """Iterated stepping with snapshots hit exactly by shortening the
    final step before each requested time.  Snapshot times are absolute;
    the last one ends the run.  Without snapshots the run ends at
    grid.t_end."""
    if initial.m != m:
        raise ValueError(f"initial data has {initial.m} components, expected {m}")
    times = sorted(set(snapshot_times or [])) or [grid.t_end]
    if not all(map(math.isfinite, (initial.time, *times))):
        raise ValueError(f"initial time {initial.time} and snapshot times {times} must be finite")
    if times[0] < initial.time:
        raise ValueError(f"snapshot t={times[0]} precedes the initial t={initial.time}")
    # each step checks its output, so the input is checked once, here
    initial.check_finite()
    state = initial
    out = []
    eps = 1e-12
    # step checks every substep's output and raises SolverBlowupError on a
    # non-finite value, so numpy's overflow warnings would only precede it
    with np.errstate(over="ignore", invalid="ignore"):
        for target in times:
            while state.time < target - eps:
                dt = min(grid.dt, target - state.time)
                state = step(state, grid, bc, dt)
            out.append(state)
    return out


# ---------------------------------------------------------------------------
# exact-solution plumbing


def field_from_exact(sol, grid: Grid1D, t: float) -> GridField:
    """Sample an ExactSolution on the grid at time t."""
    xs = grid.xs()
    vals = np.array([sol.evaluate(t, x) for x in xs]).T
    return GridField(vals, t)


def make_boundary(sol, grid: Grid1D) -> BoundaryFn:
    x_min, x_max = grid.x_min, grid.x_max

    def bc(t: float) -> np.ndarray:
        return np.array([sol.evaluate(t, x_min), sol.evaluate(t, x_max)]).T

    return bc


def error_norms(state: GridField, exact_field: GridField, dx: float) -> tuple[float, float]:
    """(L2, Linf) of the difference over all components."""
    diff = state.values - exact_field.values
    l2 = float(np.sqrt(dx * np.sum(diff ** 2)))
    linf = float(np.max(np.abs(diff)))
    return l2, linf


@dataclass
class ConvergenceEntry:
    nx: int
    dt: float
    l2: float
    linf: float


@dataclass
class ConvergenceReport:
    m: int
    entries: list[ConvergenceEntry]
    orders_l2: list[float]
    orders_linf: list[float]
    monotone: bool

    def to_json_dict(self) -> dict:
        return {
            "m": self.m,
            "entries": [
                {"nx": e.nx, "dt": e.dt, "L2": e.l2, "Linf": e.linf}
                for e in self.entries
            ],
            "orders_L2": self.orders_l2,
            "orders_Linf": self.orders_linf,
            "monotone": self.monotone,
        }


def convergence_study(
    m: int,
    exact,
    nx_list: Sequence[int],
    x_min: float,
    x_max: float,
    t_end: float,
    dt_scale: float = 0.25,
    t_start: float = 0.0,
) -> ConvergenceReport:
    """Refinement ladder (nx increasing) with dt scaled as dx^2 and
    Dirichlet data from the exact solution; the observed spatial order
    comes from successive error ratios."""
    if len(nx_list) < 3:
        raise ValueError("a convergence ladder needs at least 3 levels")
    if any(a >= b for a, b in zip(nx_list, nx_list[1:])):
        raise ValueError(f"a convergence ladder needs increasing nx, got {list(nx_list)}")
    if not t_end > 0:
        raise ValueError(f"a convergence study needs t_end > 0, got {t_end}")
    if not math.isfinite(t_start):
        raise ValueError(f"t_start must be finite, got {t_start}")
    grids = [Grid1D(x_min, x_max, nx, 1.0, t_end) for nx in nx_list]  # dt follows from dx
    grids = [replace(g, dt=dt_scale * g.dx ** 2) for g in grids]
    entries = []
    for grid in grids:
        initial = field_from_exact(exact, grid, t_start)
        final = solve_ivp(m, initial, grid, [t_start + t_end], make_boundary(exact, grid))[-1]
        target = field_from_exact(exact, grid, t_start + t_end)
        l2, linf = error_norms(final, target, grid.dx)
        entries.append(ConvergenceEntry(grid.nx, grid.dt, l2, linf))

    def orders(values):
        return [math.log(a / b) / math.log(ga.dx / gb.dx)
                for a, b, ga, gb in zip(values, values[1:], grids, grids[1:])]

    l2s = [e.l2 for e in entries]
    linfs = [e.linf for e in entries]
    return ConvergenceReport(m, entries, orders(l2s), orders(linfs),
                             monotone=all(b < a for a, b in zip(l2s, l2s[1:])))
