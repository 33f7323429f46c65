"""Coupled Burgers-like systems and their companion-matrix form.

For m components at tier k = tier_of(m) = ceil(m/2), the system has residuals

    u_a,t + u_a * u_1,x - u_a,xx + u_{a+1},x     (a = 1..m)

read through :func:`components`: u_0 = -1, and u_{m+1}, every other index
outside 1..m and every derivative of u_0 are 0.  With u_0 = -1 the
Hopf-Cole row system is sum_{j=0..m} (-2)^j u_{m-j} d^j v / dx^j = 0.
Every component is advected by the first one and forced by the x
derivative of the next.  The same system is the last row of a single
matrix Burgers equation built from the m x m companion matrix with
superdiagonal ones and last row (u_m, ..., u_1).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
import math
from typing import Callable

from .symcore import (
    Atom,
    Expr,
    JetCoord,
    ONE,
    SubstitutionMap,
    T_ATOM,
    X_ATOM,
    ZERO,
    derivation,
    jet,
    partial_derivative,
    total_derivative,
)


def tier_of(m: int) -> int:
    return math.ceil(m / 2)


def _check_m(m: int):
    if not isinstance(m, int) or m < 1:
        raise ValueError(f"m must be a positive integer, got {m!r}")


def components(m: int) -> Callable[..., Expr]:
    """u(a, nt=0, nx=0) over the m components at tier ``tier_of(m)``: the
    jet coordinate for 1 <= a <= m, -1 for the undifferentiated u_0, and 0
    for every other index."""
    k = tier_of(m)

    def u(a: int, nt: int = 0, nx: int = 0) -> Expr:
        if 1 <= a <= m:
            return jet(k, a, nt, nx)
        return -ONE if (a, nt, nx) == (0, 0, 0) else ZERO

    return u


@dataclass(frozen=True)
class PdeSystem:
    """Ordered residuals of the m-component system at tier ``tier_of(m)``,
    each solved for the time derivative of its own component."""

    m: int
    residuals: tuple[Expr, ...]

    def __post_init__(self):
        if len(self.residuals) != self.m:
            raise ValueError("need one residual per component")
        for a, (res, lead) in enumerate(zip(self.residuals, self.solved_for), start=1):
            if partial_derivative(res, lead) != ONE:
                raise ValueError(f"equation {a}: coefficient of {lead.render()} is not 1")
            for atom in res.atoms():
                if isinstance(atom, JetCoord) and atom.nt > 0 and atom != lead:
                    raise ValueError(f"equation {a} contains extra time derivative {atom.render()}")
            forcing = JetCoord(self.tier, a + 1, nx=1)
            has_forcing = not partial_derivative(res, forcing).is_zero()
            if has_forcing != (a < self.m):
                raise ValueError(f"equation {a}: forcing term {forcing.render()} mismatch")

    @property
    def tier(self) -> int:
        return tier_of(self.m)

    @property
    def solved_for(self) -> tuple[JetCoord, ...]:
        k = self.tier
        return tuple(JetCoord(k, a, nt=1) for a in range(1, self.m + 1))

    def solved_rules(self) -> SubstitutionMap:
        """Rewrite each u_a,t as the rest of its equation, negated."""
        return SubstitutionMap(
            (lead, Expr.from_atom(lead) - res)
            for lead, res in zip(self.solved_for, self.residuals)
        )

    def to_json_dict(self) -> dict:
        return {
            "m": self.m,
            "tier": self.tier,
            "residuals": [r.render() for r in self.residuals],
            "solved_for": [c.render() for c in self.solved_for],
        }


def build_delta(m: int) -> PdeSystem:
    """The m-component system at tier ``tier_of(m)``."""
    _check_m(m)
    u = components(m)
    residuals = tuple(u(a, nt=1) + u(a) * u(1, nx=1) - u(a, nx=2) + u(a + 1, nx=1)
                      for a in range(1, m + 1))
    return PdeSystem(m, residuals)


def build_companion(m: int) -> list[list[Expr]]:
    """m x m matrix with superdiagonal ones and last row (u_m, ..., u_1)."""
    _check_m(m)
    u = components(m)
    rows = []
    for i in range(m - 1):
        rows.append([ONE if j == i + 1 else ZERO for j in range(m)])
    rows.append([u(m - j) for j in range(m)])
    return rows


def matrix_burgers_residual(m: int) -> list[list[Expr]]:
    """Entrywise O_t + O_x O - O_xx for the companion matrix O.

    Rows 1..m-1 vanish identically; row m carries the system residuals in
    reversed component order (see :func:`companion_row_permutation`).
    """
    omega = build_companion(m)
    o_t = [[total_derivative(e, "t") for e in row] for row in omega]
    o_x = [[total_derivative(e, "x") for e in row] for row in omega]
    o_xx = [[total_derivative(e, "x") for e in row] for row in o_x]
    out = []
    for i in range(m):
        row = []
        for j in range(m):
            prod = ZERO
            for l in range(m):
                prod = prod + o_x[i][l] * omega[l][j]
            row.append(o_t[i][j] + prod - o_xx[i][j])
        out.append(row)
    return out


def companion_row_permutation(m: int) -> list[int]:
    """Column j of the matrix residual's last row holds equation
    ``companion_row_permutation(m)[j]`` of the system (1-based)."""
    return [m - j for j in range(m)]


@dataclass(frozen=True)
class VectorField:
    """Infinitesimal generator tau*d/dt + xi*d/dx + sum eta_a*d/du_a over
    the m dependent variables at tier ``tier_of(m)``."""

    m: int
    tau: Expr
    xi: Expr
    etas: tuple[Expr, ...]
    name: str = field(default="", compare=False)

    def __post_init__(self):
        if len(self.etas) != self.m:
            raise ValueError("need one eta per dependent variable")

    @property
    def tier(self) -> int:
        return tier_of(self.m)

    @cached_property
    def images(self) -> dict[Atom, Expr]:
        """The field as a derivation: t, x and u_a go to tau, xi and eta_a."""
        return {T_ATOM: self.tau, X_ATOM: self.xi,
                **{JetCoord(self.tier, a): eta for a, eta in enumerate(self.etas, start=1)}}

    def apply_to(self, e: Expr) -> Expr:
        """First-order action on functions of (t, x, u_1..u_m)."""
        return derivation(e, self.images.get)

    def to_json_dict(self) -> dict:
        d = {
            "m": self.m,
            "tier": self.tier,
            "tau": self.tau.render(),
            "xi": self.xi.render(),
            "etas": [e.render() for e in self.etas],
        }
        if self.name:
            d["name"] = self.name
        return d


def build_symmetry_field(m: int) -> VectorField:
    """The conditional-symmetry generator of the m-component system.

    tau is 1; xi and the eta_a are polynomials in the tier-k variables u
    and m+2 fresh tier-(k+1) symbols w (undifferentiated dependent
    variables of the follow-up system), both read through
    :func:`components`.
    """
    _check_m(m)
    u, w = components(m), components(m + 2)
    xi = (w(1) - u(1)) / 2
    etas = tuple(
        (-u(1) ** 2 * u(a) - u(1) * u(a + 1) - u(2) * u(a)
         + w(1) * u(1) * u(a) + w(2) * u(a) + w(1) * u(a + 1)
         - u(a + 2) + w(a + 2)) / 4
        for a in range(1, m + 1)
    )
    return VectorField(m, ONE, xi, etas, name=f"conditional-{m}")
