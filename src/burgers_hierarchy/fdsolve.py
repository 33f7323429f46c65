"""Finite-difference initial-value solver for the coupled systems.

Semi-implicit scheme on a uniform 1-D grid: the stiff diffusion term is
treated implicitly (theta-weighted, trapezoidal by default), while the
advection and coupling terms u_a * u_1,x and u_{a+1},x use second-order
central differences evaluated at the previous time level.  The implicit
operator is built and factored once per grid and substep length, and each
substep solves all m components in one call.  The advective CFL
constraint dt <= C_ADV * dx / max|u_1| is enforced by adaptive
substepping.

Boundary data either comes from an exact solution (Dirichlet, used for
validation runs) or is periodic (free exploration).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
import functools
import math
from typing import Callable, Sequence

import numpy as np
from scipy.linalg import solve_banded
from scipy.sparse import diags
from scipy.sparse.linalg import factorized


class SolverBlowupError(ArithmeticError):
    """Non-finite values appeared in the state."""


class CFLError(ArithmeticError):
    """The advective stability constraint could not be met by substepping."""


BoundaryFn = Callable[[float], np.ndarray]  # t -> array (m, 2): left, right values

C_ADV = 0.5  # advective Courant number each substep keeps to


@dataclass
class Grid1D:
    """Uniform grid and time-stepping parameters."""

    x_min: float
    x_max: float
    nx: int
    dt: float
    t_end: float
    boundary: str = "dirichlet"  # or "periodic"
    theta: float = 0.5
    max_substeps: int = 100_000

    def __post_init__(self):
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
        self.values = np.atleast_2d(np.asarray(self.values, dtype=float))

    @property
    def m(self) -> int:
        return self.values.shape[0]

    def check_finite(self):
        if not np.all(np.isfinite(self.values)):
            raise SolverBlowupError(f"non-finite state at t={self.time}")


def _central_dx(u: np.ndarray, dx: float, periodic: bool) -> np.ndarray:
    if periodic:
        return (np.roll(u, -1, axis=-1) - np.roll(u, 1, axis=-1)) / (2 * dx)
    out = np.empty_like(u)
    out[..., 1:-1] = (u[..., 2:] - u[..., :-2]) / (2 * dx)
    # one-sided at the ends; these rows are overwritten by boundary data
    out[..., 0] = (u[..., 1] - u[..., 0]) / dx
    out[..., -1] = (u[..., -1] - u[..., -2]) / dx
    return out


def _apply_diffusion(u: np.ndarray, dx: float, periodic: bool) -> np.ndarray:
    if periodic:
        return (np.roll(u, -1, axis=-1) - 2 * u + np.roll(u, 1, axis=-1)) / dx ** 2
    out = np.zeros_like(u)
    out[..., 1:-1] = (u[..., 2:] - 2 * u[..., 1:-1] + u[..., :-2]) / dx ** 2
    return out


@functools.lru_cache(maxsize=8)
def _implicit_solver(boundary: str, nx: int, dx: float, h: float,
                     theta: float) -> Callable[[np.ndarray], np.ndarray]:
    """Solver for (I - theta*h*L) y = rhs with an (nx, k) right-hand side.

    Dirichlet rows are identity rows (the boundary data sits in the
    right-hand side); periodic boundaries add the wraparound corners.
    Non-finite input is not checked here: it propagates to the result,
    where the caller's blow-up check catches it."""
    r = theta * h / dx ** 2
    if boundary == "periodic":
        mat = diags([-r, -r, 1 + 2 * r, -r, -r], [1 - nx, -1, 0, 1, nx - 1],
                    shape=(nx, nx), format="csc")
        return factorized(mat)
    ab = np.zeros((3, nx))
    ab[0, 2:] = -r          # superdiagonal (interior rows)
    ab[1, :] = 1 + 2 * r    # diagonal
    ab[2, :-2] = -r         # subdiagonal
    ab[1, 0] = ab[1, -1] = 1.0
    ab.setflags(write=False)  # shared by every caller of the cached solver

    def solve(rhs: np.ndarray) -> np.ndarray:
        return solve_banded((1, 1), ab, rhs, check_finite=False)

    return solve


def _substep(values: np.ndarray, t: float, h: float, grid: Grid1D,
             bc: BoundaryFn | None, solve) -> np.ndarray:
    periodic = grid.boundary == "periodic"
    dx = grid.dx
    adv = values * _central_dx(values[0], dx, periodic)
    adv[:-1] += _central_dx(values[1:], dx, periodic)
    rhs = values + h * ((1 - grid.theta) * _apply_diffusion(values, dx, periodic) - adv)
    if not periodic:
        rhs[:, [0, -1]] = bc(t + h)
    return solve(rhs.T).T


def step(state: GridField, grid: Grid1D, bc: BoundaryFn | None = None) -> GridField:
    """Advance by grid.dt (with internal CFL substepping); returns a new
    field and never mutates the input.  A non-finite input raises
    :class:`SolverBlowupError`: from the CFL estimate when it is in u_1,
    else from the check after the first substep, which it reaches."""
    if grid.boundary == "dirichlet" and bc is None:
        raise ValueError("dirichlet boundaries need a boundary-data callable")
    values = state.values
    umax = float(np.max(np.abs(values[0]))) if values.size else 0.0
    if not math.isfinite(umax):
        raise SolverBlowupError(f"non-finite state at t={state.time}")
    dt_max = C_ADV * grid.dx / max(umax, 1e-12)
    nsub = max(1, math.ceil(grid.dt / dt_max))
    if nsub > grid.max_substeps:
        raise CFLError(
            f"advective CFL needs {nsub} substeps per dt (> {grid.max_substeps})"
        )
    h = grid.dt / nsub
    solve = _implicit_solver(grid.boundary, grid.nx, grid.dx, h, grid.theta)
    t = state.time
    for _ in range(nsub):
        values = _substep(values, t, h, grid, bc, solve)
        t += h
        if not np.all(np.isfinite(values)):
            raise SolverBlowupError(f"solver blow-up at t={t}")
    return GridField(values, state.time + grid.dt)


def solve_ivp(
    m: int,
    initial: GridField,
    grid: Grid1D,
    snapshot_times: Sequence[float] | None = None,
    bc: BoundaryFn | None = None,
) -> list[GridField]:
    """Iterated stepping with snapshots hit exactly by shortening the
    final substep before each requested time."""
    if initial.m != m:
        raise ValueError(f"initial data has {initial.m} components, expected {m}")
    # each step checks its output, so the input is checked once, here
    initial.check_finite()
    times = sorted(set(snapshot_times or [])) or [grid.t_end]
    if times[-1] < grid.t_end:
        times.append(grid.t_end)
    state = initial
    out = []
    eps = 1e-12
    for target in times:
        while state.time < target - eps:
            dt = min(grid.dt, target - state.time)
            state = step(state, replace(grid, dt=dt), bc)
        out.append(state)
    return out


# ---------------------------------------------------------------------------
# exact-solution plumbing


def field_from_exact(sol, grid: Grid1D, t: float) -> GridField:
    """Sample an ExactSolution on the grid at time t."""
    xs = grid.xs()
    vals = np.array([[u for u in sol.evaluate(t, x)] for x in xs]).T
    return GridField(vals, t)


def make_boundary(sol, grid: Grid1D) -> BoundaryFn:
    x_min, x_max = grid.x_min, grid.x_max

    def bc(t: float) -> np.ndarray:
        lefts = sol.evaluate(t, x_min)
        rights = sol.evaluate(t, x_max)
        return np.array([[l, r] for l, r in zip(lefts, rights)])

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
    """Refinement ladder with dt scaled as dx^2 and Dirichlet data from
    the exact solution; the observed spatial order comes from successive
    error ratios."""
    if len(nx_list) < 3:
        raise ValueError("a convergence ladder needs at least 3 levels")
    entries = []
    for nx in nx_list:
        dx = (x_max - x_min) / (nx - 1)
        dt = dt_scale * dx ** 2
        grid = Grid1D(x_min, x_max, nx, dt, t_end)
        initial = field_from_exact(exact, grid, t_start)
        final = solve_ivp(m, initial, grid, [t_start + t_end], make_boundary(exact, grid))[-1]
        target = field_from_exact(exact, grid, t_start + t_end)
        l2, linf = error_norms(final, target, grid.dx)
        entries.append(ConvergenceEntry(nx, dt, l2, linf))

    def orders(values):
        out = []
        for a, b, na, nb in zip(values, values[1:], nx_list, nx_list[1:]):
            dxa = (x_max - x_min) / (na - 1)
            dxb = (x_max - x_min) / (nb - 1)
            out.append(math.log(a / b) / math.log(dxa / dxb))
        return out

    l2s = [e.l2 for e in entries]
    linfs = [e.linf for e in entries]
    non_monotone = sum(1 for a, b in zip(l2s, l2s[1:]) if b >= a)
    return ConvergenceReport(
        m, entries, orders(l2s), orders(linfs), monotone=non_monotone <= 1
    )
