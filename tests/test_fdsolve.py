"""Solver fixed points, discrete consistency, validation against exact
solutions, snapshots, and failure modes."""

import dataclasses
import math

import numpy as np
import pytest
import scipy.linalg

from burgers_hierarchy import fdsolve
from burgers_hierarchy.fdsolve import (
    CFLError,
    Grid1D,
    GridField,
    SolverBlowupError,
    _explicit,
    convergence_study,
    error_norms,
    field_from_exact,
    make_boundary,
    solve_ivp,
    step,
)
from burgers_hierarchy.hopfcole import (
    HeatSolution,
    heat_constant,
    heat_exponential,
    heat_polynomial,
    heat_sum,
    solve_exact,
)
from burgers_hierarchy.symcore import X


def traveling_wave():
    v = heat_sum([(1, heat_constant(1)), (1, heat_exponential(1, sign=-1))])
    return solve_exact(1, [v])


def rational_pair():
    return solve_exact(2, [HeatSolution(X, label="x"), heat_polynomial(2)])


def dense_substep(values, t, h, grid, bc=None, history=None):
    """One trapezoidal (Crank-Nicolson) substep from dense difference
    matrices and np.linalg.solve, one component at a time (reference for
    `step`).  The advection F = u_a u_1,x + u_{a+1},x is forward Euler on
    periodic grids and without history; on Dirichlet grids with the
    previous substep's (F, h_prev) it is (1 + w/2) F - (w/2) F_prev with
    w = h / h_prev.  Returns the new values and the history for the next
    substep: (F, h) on Dirichlet grids, None on periodic ones."""
    m, nx = values.shape
    dx = grid.dx
    d1 = np.zeros((nx, nx))
    d2 = np.zeros((nx, nx))
    for i in range(nx):
        if bc is None:
            lo, hi = (i - 1) % nx, (i + 1) % nx
        elif 0 < i < nx - 1:
            lo, hi = i - 1, i + 1
        else:
            continue  # Dirichlet rows hold the boundary data
        d1[i, hi] += 1 / (2 * dx)
        d1[i, lo] -= 1 / (2 * dx)
        d2[i, hi] += 1 / dx ** 2
        d2[i, lo] += 1 / dx ** 2
        d2[i, i] -= 2 / dx ** 2
    lhs = np.eye(nx) - 0.5 * h * d2
    u1x = d1 @ values[0]
    advection = np.array([values[a] * u1x + (d1 @ values[a + 1] if a + 1 < m else 0.0)
                          for a in range(m)])
    explicit = advection
    if bc is not None and history is not None:
        prev, h_prev = history
        w = h / h_prev
        explicit = (1 + w / 2) * advection - (w / 2) * prev
    new = np.empty_like(values)
    for a in range(m):
        rhs = values[a] + h * ((1 - 0.5) * (d2 @ values[a]) - explicit[a])
        if bc is not None:
            rhs[0], rhs[-1] = bc(t + h)[a]
        new[a] = np.linalg.solve(lhs, rhs)
    return new, (None if bc is None else (advection, h))


def moving_boundary(m):
    def bc(t):
        return np.array([[math.sin(t + a), math.cos(3 * t) - a] for a in range(m)])

    return bc


def assert_close_to_oracle(values, reference):
    assert np.max(np.abs(values - reference)) <= 1e-12 * np.max(np.abs(reference))


class TestFixedPoints:
    def test_zero_state(self):
        grid = Grid1D(0.0, 1.0, 16, 1e-3, 0.01, boundary="periodic")
        state = GridField(np.zeros((3, 16)), 0.0)
        out = step(state, grid)
        assert np.allclose(out.values, 0.0)
        assert out.time == pytest.approx(1e-3)

    def test_constant_state(self):
        grid = Grid1D(0.0, 1.0, 16, 1e-3, 0.01, boundary="periodic")
        vals = np.vstack([np.full(16, 2.0), np.zeros(16)])
        out = step(GridField(vals, 0.0), grid)
        assert np.allclose(out.values, vals, atol=1e-13)

    def test_input_not_mutated(self):
        grid = Grid1D(0.0, 1.0, 16, 1e-3, 0.01, boundary="periodic")
        vals = np.vstack([np.linspace(0, 1, 16)])
        state = GridField(vals.copy(), 0.0)
        step(state, grid)
        assert np.array_equal(state.values, vals)


class TestDiscreteConsistency:
    def test_spatial_operator_second_order(self):
        # the explicit part with h = 1 on samples of a smooth two-component
        # field against the analytic derivatives on a refinement ladder:
        # r = 1/dx^2, g = 0 leaves c + u_xx; r = 0, g = 1/(2 dx) leaves
        # c - (c u_1,x + u_{a+1},x); THETA's r and g leave both terms
        errors = []
        for nx in (64, 128, 256):
            xs = np.linspace(0.0, 1.0, nx)
            dx = xs[1] - xs[0]
            k = 2 * np.pi
            u = np.vstack([np.sin(k * xs), np.cos(k * xs)])
            ux = k * np.vstack([np.cos(k * xs), -np.sin(k * xs)])
            uxx = -k ** 2 * u
            adv = u * ux[0]
            adv[0] += ux[1]
            c, right, left = u[:, 1:-1], u[:, 2:], u[:, :-2]
            inner = np.s_[:, 1:-1]
            pieces = [
                (_explicit(c, right, left, 1 / dx ** 2, 0.0) - c, uxx[inner]),
                (c - _explicit(c, right, left, 0.0, 1 / (2 * dx)), adv[inner]),
                (_explicit(c, right, left, (1 - fdsolve.THETA) / dx ** 2, 1 / (2 * dx)) - c,
                 ((1 - fdsolve.THETA) * uxx - adv)[inner]),
            ]
            errors.append([np.max(np.abs(got - want)) for got, want in pieces])
        for coarse, fine in zip(errors, errors[1:]):
            assert all(1.8 < math.log2(a / b) < 2.2 for a, b in zip(coarse, fine))

    def test_periodic_stencils_match_roll(self):
        # a periodic substep's wrapped neighbour views are the np.roll
        # neighbours: one step is the solve of the rolled explicit part,
        # bit for bit
        u = np.random.default_rng(5).standard_normal((3, 37))
        grid = Grid1D(0.0, 36 * 0.173, 37, 1e-3, 1e-3, boundary="periodic")
        solve, r, g = fdsolve._implicit_solver("periodic", 37, grid.dx, grid.dt)
        right, left = np.roll(u, -1, axis=-1), np.roll(u, 1, axis=-1)
        ref = solve(_explicit(u, right, left, r, g).T).T
        assert np.array_equal(step(GridField(u, 0.0), grid).values, ref)

    def test_interpolation_only_when_no_steps(self):
        sol = traveling_wave()
        grid = Grid1D(-5.0, 5.0, 64, 1e-3, 0.0)
        init = field_from_exact(sol, grid, 0.0)
        out = solve_ivp(1, init, grid, [0.0], make_boundary(sol, grid))
        assert np.array_equal(out[-1].values, init.values)


class TestValidation:
    def test_traveling_wave_linf(self):
        sol = traveling_wave()
        grid = Grid1D(-10.0, 10.0, 200, 5e-4, 0.1)
        init = field_from_exact(sol, grid, 0.0)
        final = solve_ivp(1, init, grid, [0.1], make_boundary(sol, grid))[-1]
        target = field_from_exact(sol, grid, 0.1)
        _, linf = error_norms(final, target, grid.dx)
        assert linf < 5e-4

    def test_pair_error_decreases_with_refinement(self):
        sol = rational_pair()
        errs = []
        for nx in (50, 100, 200):
            dx = 2.0 / (nx - 1)
            grid = Grid1D(2.0, 4.0, nx, 0.25 * dx * dx, 0.05)
            init = field_from_exact(sol, grid, 0.0)
            final = solve_ivp(2, init, grid, [0.05], make_boundary(sol, grid))[-1]
            target = field_from_exact(sol, grid, 0.05)
            errs.append(error_norms(final, target, grid.dx)[0])
        assert errs[0] > errs[1] > errs[2]

    def test_three_components_from_heat_polynomials(self):
        sol = solve_exact(3, [heat_polynomial(n) for n in (1, 2, 3)])
        grid = Grid1D(3.0, 5.0, 128, 2e-5, 0.05)
        init = field_from_exact(sol, grid, 0.0)
        final = solve_ivp(3, init, grid, [0.05], make_boundary(sol, grid))[-1]
        l2, _ = error_norms(final, field_from_exact(sol, grid, 0.05), grid.dx)
        assert l2 < 1e-2

    def test_zero_data_zero_trajectory(self):
        grid = Grid1D(0.0, 1.0, 16, 1e-3, 0.01, boundary="periodic")
        states = solve_ivp(2, GridField(np.zeros((2, 16)), 0.0), grid,
                           [0.005, 0.01])
        assert all(np.allclose(s.values, 0.0) for s in states)

    def test_snapshot_before_initial_time_rejected(self):
        grid = Grid1D(0.0, 1.0, 16, 1e-3, 0.01, boundary="periodic")
        with pytest.raises(ValueError):
            solve_ivp(1, GridField(np.zeros((1, 16)), 0.0), grid, [-0.005, 0.01])

    def test_component_count_must_match_m(self):
        grid = Grid1D(0.0, 1.0, 16, 1e-3, 0.01, boundary="periodic")
        with pytest.raises(ValueError, match="initial data has 2 components, expected 3"):
            solve_ivp(3, GridField(np.zeros((2, 16)), 0.0), grid)

    def test_snapshot_times_hit_exactly(self):
        sol = traveling_wave()
        grid = Grid1D(-5.0, 5.0, 32, 7e-3, 0.02)  # dt does not divide targets
        init = field_from_exact(sol, grid, 0.0)
        out = solve_ivp(1, init, grid, [0.01, 0.02], make_boundary(sol, grid))
        assert [s.time for s in out] == pytest.approx([0.01, 0.02])


class TestTimeOrder:
    """Second order in time on its own: the m = 2 pair on one fixed fine
    grid, dt halved along a ladder, each error taken against the same
    grid's run at a 64 times smaller dt, so the spatial error cancels.
    max|u_1| stays below 2.11 on [2, 4] until t_end, so every dt is below
    the CFL limit C_ADV dx / max|u_1| > 2.37e-3 and takes one substep."""

    @pytest.mark.parametrize("t_end", [0.1, 0.1 + 2e-3 / 3],
                             ids=["multiple", "shortened-last-step"])
    def test_dirichlet_order_two_in_dt(self, t_end):
        # 0.1 + 2e-3/3 is 50 1/3, 100 2/3, 201 1/3 and 402 2/3 steps of the
        # ladder's dt, so every rung ends on a shortened step whose
        # h / h_prev is 1/3 or 2/3
        sol = rational_pair()

        def final(dt):
            grid = Grid1D(2.0, 4.0, 201, dt, t_end)
            initial = field_from_exact(sol, grid, 0.0)
            return solve_ivp(2, initial, grid, [t_end], make_boundary(sol, grid))[-1]

        dts = [2e-3, 1e-3, 5e-4, 2.5e-4]
        reference = final(dts[0] / 64)
        errors = [error_norms(final(dt), reference, 0.01)[0] for dt in dts]
        orders = [math.log2(a / b) for a, b in zip(errors, errors[1:])]
        assert all(1.8 <= p <= 2.2 for p in orders), orders


class TestDenseOracle:
    """Three components, one CFL substep per step (max|u1| <= 0.5)."""

    @staticmethod
    def case(boundary, x_max=1.0):
        grid = Grid1D(0.0, x_max, 12, 1e-2, 0.1, boundary=boundary)
        vals = np.random.default_rng(7).uniform(-0.5, 0.5, (3, 12))
        bc = moving_boundary(3) if boundary == "dirichlet" else None
        return grid, vals, bc

    @pytest.mark.parametrize("boundary", ["dirichlet", "periodic"])
    def test_one_step(self, boundary):
        grid, vals, bc = self.case(boundary)
        out = step(GridField(vals, 0.2), grid, bc)
        assert_close_to_oracle(out.values, dense_substep(vals, 0.2, grid.dt, grid, bc)[0])

    @pytest.mark.parametrize("boundary", ["dirichlet", "periodic"])
    def test_shortened_last_step(self, boundary):
        # 0.025 is not a multiple of dt: the last step uses h = 0.005
        grid, vals, bc = self.case(boundary)
        out = solve_ivp(3, GridField(vals, 0.0), grid, [0.025], bc)[0]
        t, ref, history = 0.0, vals, None
        while t < 0.025 - 1e-12:
            h = min(grid.dt, 0.025 - t)
            ref, history = dense_substep(ref, t, h, grid, bc, history)
            t += h
        assert out.time == pytest.approx(0.025)
        assert_close_to_oracle(out.values, ref)

    @pytest.mark.parametrize("boundary", ["dirichlet", "periodic"])
    def test_interleaved_grids_same_nx(self, boundary):
        grids = [self.case(boundary, x_max=x_max) for x_max in (1.0, 2.0)]
        states = [GridField(vals, 0.0) for _, vals, _ in grids]
        histories = [None, None]
        for _ in range(3):
            for k, (grid, _, bc) in enumerate(grids):
                ref, histories[k] = dense_substep(states[k].values, states[k].time, grid.dt,
                                                  grid, bc, histories[k])
                states[k] = step(states[k], grid, bc)
                assert_close_to_oracle(states[k].values, ref)


    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_dirichlet_end_columns_hold_boundary_data(self, m):
        # r = THETA * h / dx^2 = 0.605; the end columns are written from
        # bc(t + h), not solved for, so they are the data to the bit
        grid, vals, _ = self.case("dirichlet")
        bc = moving_boundary(m)
        assert fdsolve.THETA * grid.dt / grid.dx ** 2 < 1
        out = step(GridField(vals[:m], 0.2), grid, bc)
        assert np.array_equal(out.values[:, [0, -1]], bc(0.2 + grid.dt))


class TestBandedSolve:
    """The factored Dirichlet solve against scipy's banded solvers."""

    @staticmethod
    def system(nx, k):
        # r = THETA * h / dx^2 from 0.05 to about 5 over the cases, and
        # right-hand sides with their boundary values in the end rows
        rng = np.random.default_rng(nx + k)
        dx, h = 1.0 / (nx - 1), rng.uniform(0.1, 10.0) / (nx - 1) ** 2
        rhs = rng.standard_normal((k, nx))
        return dx, h, fdsolve.THETA * h / dx ** 2, rhs

    @pytest.mark.parametrize("nx", [8, 100, 400, 1600])
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_bit_identical_to_scipy(self, nx, k):
        # scipy.linalg.solveh_banded runs LAPACK ptsv (pttrf, then pttrs) on
        # the interior system with the data moved to the right-hand side:
        # the same arithmetic, so the same bits; the full system with its
        # identity rows, solved by Gaussian elimination, agrees to rounding
        dx, h, r, rhs = self.system(nx, k)
        solve = fdsolve._implicit_solver("dirichlet", nx, dx, h)[0]
        ends = rhs[:, [0, -1]]
        out = solve(rhs[:, 1:-1].copy(), ends)

        moved = rhs[:, 1:-1].copy()
        moved[:, 0] += r * ends[:, 0]
        moved[:, -1] += r * ends[:, 1]
        upper = np.zeros((2, nx - 2))
        upper[0, 1:] = -r
        upper[1] = 1 + 2 * r
        ref = scipy.linalg.solveh_banded(upper, moved.T, check_finite=False).T
        assert np.array_equal(out, ref)

        ab = np.zeros((3, nx))
        ab[0, 2:] = ab[2, :-2] = -r
        ab[1] = 1 + 2 * r
        ab[1, [0, -1]] = 1.0
        full = scipy.linalg.solve_banded((1, 1), ab, rhs.T, check_finite=False).T
        assert np.max(np.abs(out - full[:, 1:-1])) <= 1e-13 * np.max(np.abs(full))

    def test_nan_propagates(self):
        dx, h, _, rhs = self.system(100, 2)
        solve = fdsolve._implicit_solver("dirichlet", 100, dx, h)[0]
        interior = rhs[:, 1:-1].copy()
        interior[1, 40] = np.nan
        out = solve(interior, rhs[:, [0, -1]])
        assert np.isnan(out[1]).any()
        assert np.all(np.isfinite(out[0]))

    def test_singular_raises(self):
        # h < 0 makes the diagonal 1 + 2 THETA h / dx^2 = -1: not positive
        # definite, so dpttrf fails on the first pivot
        with pytest.raises(np.linalg.LinAlgError, match="dpttrf"):
            fdsolve._implicit_solver("dirichlet", 8, 1.0, -2.0)

    def test_factored_once_and_one_solve_per_substep(self, monkeypatch):
        # 0.025 is not a multiple of dt = 0.01: steps of h = 0.01, 0.01 and
        # a shortened 0.005, one CFL substep each, so two operators
        grid, vals, bc = TestDenseOracle.case("dirichlet")
        counts = {"dpttrf": 0, "solve_banded": 0, "bc": 0}
        for name in ("dpttrf", "solve_banded"):
            fn = getattr(fdsolve, name)
            monkeypatch.setattr(fdsolve, name, lambda *a, _fn=fn, _name=name, **kw:
                                counts.__setitem__(_name, counts[_name] + 1) or _fn(*a, **kw))

        def counted_bc(t):
            counts["bc"] += 1
            return bc(t)

        fdsolve._implicit_solver.cache_clear()
        solve_ivp(3, GridField(vals, 0.0), grid, [0.025], counted_bc)
        assert counts == {"dpttrf": 2, "solve_banded": 3, "bc": 3}


class TestStepDt:
    @pytest.mark.parametrize("boundary", ["dirichlet", "periodic"])
    def test_dt_argument_matches_shortened_grid(self, boundary):
        grid, vals, bc = TestDenseOracle.case(boundary)
        state = GridField(vals, 0.2)
        h = 0.3 * grid.dt
        out = step(state, grid, bc, dt=h)
        ref = step(state, dataclasses.replace(grid, dt=h), bc)
        assert np.array_equal(out.values, ref.values)
        assert out.time == ref.time

    def test_nonpositive_dt_rejected(self):
        grid, vals, bc = TestDenseOracle.case("dirichlet")
        with pytest.raises(ValueError):
            step(GridField(vals, 0.0), grid, bc, dt=0.0)

    @pytest.mark.parametrize("dt", [math.nan, math.inf, 0.0, -1.0])
    def test_non_finite_or_nonpositive_dt_rejected(self, dt):
        grid = Grid1D(0.0, 1.0, 16, 1e-2, 0.1, boundary="periodic")
        vals = np.random.default_rng(3).uniform(-0.5, 0.5, (2, 16))
        with pytest.raises(ValueError, match="dt must be positive and finite"):
            step(GridField(vals, 0.0), grid, dt=dt)

    @pytest.mark.parametrize("t0, snapshots", [(math.inf, [math.inf]), (math.nan, [0.1]),
                                               (0.0, [math.inf]), (0.0, [0.05, math.nan])])
    def test_non_finite_times_rejected(self, t0, snapshots):
        grid = Grid1D(0.0, 1.0, 16, 1e-2, 0.1, boundary="periodic")
        vals = np.random.default_rng(3).uniform(-0.5, 0.5, (2, 16))
        with pytest.raises(ValueError, match="must be finite"):
            solve_ivp(2, GridField(vals, t0), grid, snapshots)


class TestConvergence:
    def test_single_component_order_two(self):
        report = convergence_study(1, traveling_wave(), [50, 100, 200],
                                   -10.0, 10.0, 0.1)
        assert all(1.8 <= p <= 2.2 for p in report.orders_l2)
        assert report.monotone

    def test_needs_three_levels(self):
        with pytest.raises(ValueError):
            convergence_study(1, traveling_wave(), [50, 100], -5.0, 5.0, 0.1)

    @pytest.mark.parametrize("ladder", [[50, 200, 100], [100, 50, 200], [50, 100, 100]])
    def test_ladder_must_increase(self, ladder):
        with pytest.raises(ValueError, match="increasing"):
            convergence_study(1, traveling_wave(), ladder, -10.0, 10.0, 0.1)

    @pytest.mark.parametrize("l2s, monotone", [
        ([3.0, 2.0, 1.0], True),
        ([3.0, 1.0, 2.0], False),  # rises once
        ([3.0, 3.0, 1.0], False),  # stalls once
        ([1.0, 2.0, 3.0], False),
    ])
    def test_monotone_means_l2_falls_at_every_level(self, monkeypatch, l2s, monotone):
        norms = iter(l2s)
        monkeypatch.setattr(fdsolve, "error_norms", lambda *args: (next(norms), 1.0))
        report = convergence_study(1, traveling_wave(), [8, 9, 10], -1.0, 1.0, 1e-3)
        assert [e.l2 for e in report.entries] == l2s
        assert report.monotone is monotone
        assert report.to_json_dict()["monotone"] is monotone

    def test_report_json(self):
        report = convergence_study(1, traveling_wave(), [50, 100, 200],
                                   -10.0, 10.0, 0.05)
        doc = report.to_json_dict()
        assert len(doc["entries"]) == 3
        assert len(doc["orders_L2"]) == 2


class TestFailureModes:
    def test_blowup_detected(self):
        grid = Grid1D(0.0, 1.0, 16, 1e-3, 0.01, boundary="periodic")
        vals = np.vstack([np.full(16, 1e200)])
        state = GridField(vals, 0.0)
        state.values[0, 3] = np.inf
        with pytest.raises(SolverBlowupError):
            step(state, grid)

    @pytest.mark.parametrize("boundary", ["dirichlet", "periodic"])
    def test_overflowing_diffusion_is_blowup(self, boundary):
        # a finite state whose second differences overflow
        grid = Grid1D(0.0, 1.0, 16, 1e-3, 0.01, boundary=boundary)
        vals = np.vstack([np.zeros(16), 1e308 * (-1.0) ** np.arange(16)])
        bc = (lambda t: np.zeros((2, 2))) if boundary == "dirichlet" else None
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(SolverBlowupError):
                step(GridField(vals, 0.0), grid, bc)

    @pytest.mark.parametrize("boundary", ["dirichlet", "periodic"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("where", [(0, 5), (1, 0), (1, 15)])
    def test_non_finite_initial_state_is_blowup(self, boundary, bad, where):
        # u_1 sets the CFL substep count; a NaN there must not reach ceil()
        grid = Grid1D(0.0, 1.0, 16, 1e-3, 0.01, boundary=boundary)
        bc = moving_boundary(2) if boundary == "dirichlet" else None
        vals = np.zeros((2, 16))
        vals[where] = bad
        with pytest.raises(SolverBlowupError):
            solve_ivp(2, GridField(vals, 0.0), grid, bc=bc)
        with np.errstate(invalid="ignore", over="ignore"):
            with pytest.raises(SolverBlowupError):
                step(GridField(vals, 0.0), grid, bc)

    def test_non_finite_initial_state_exits_3(self, monkeypatch, tmp_path):
        from burgers_hierarchy import cli

        monkeypatch.setattr(fdsolve, "field_from_exact",
                            lambda sol, grid, t: GridField(np.full((1, grid.nx), np.nan), t))
        path = tmp_path / "catalog.json"
        path.write_text('[{"kind": "heat_polynomial", "degree": 1}]')
        assert cli.main(["solve", "--m", "1", "--catalog", str(path), "--x-min", "1",
                         "--x-max", "2", "--nx", "16", "--dt", "1e-3", "--t-end", "0.01",
                         "--out-dir", str(tmp_path)]) == 3

    def test_cfl_substep_limit(self):
        # C_ADV * dx / |u_1| = 1/3e5, so dt = 10 needs about 3e6 substeps,
        # past MAX_SUBSTEPS; the step raises before any substep runs
        grid = Grid1D(0.0, 1.0, 16, dt=10.0, t_end=10.0, boundary="periodic")
        vals = np.vstack([np.full(16, 1e4)])
        with pytest.raises(CFLError):
            step(GridField(vals, 0.0), grid)

    def test_cfl_substepping_succeeds(self):
        # the same configuration with an adequate budget just substeps
        grid = Grid1D(0.0, 1.0, 16, dt=0.05, t_end=0.05, boundary="periodic")
        vals = np.vstack([np.sin(np.linspace(0, 2 * np.pi, 16)) * 5.0])
        out = step(GridField(vals, 0.0), grid)
        assert np.all(np.isfinite(out.values))

    def test_dirichlet_needs_boundary(self):
        grid = Grid1D(0.0, 1.0, 16, 1e-3, 0.01)
        with pytest.raises(ValueError):
            step(GridField(np.zeros((1, 16)), 0.0), grid)

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            Grid1D(0.0, 1.0, 4, 1e-3, 0.01)
        with pytest.raises(ValueError):
            Grid1D(0.0, 1.0, 16, -1e-3, 0.01)
        with pytest.raises(ValueError):
            Grid1D(0.0, 1.0, 16, 1e-3, 0.01, boundary="mirror")
        with pytest.raises(ValueError):
            Grid1D(4.0, 2.0, 16, 1e-3, 0.01)  # reversed domain
        with pytest.raises(ValueError):
            Grid1D(2.0, 2.0, 16, 1e-3, 0.01)  # empty domain
        for field in ("x_min", "x_max", "dt", "t_end"):
            for bad in (np.nan, np.inf, -np.inf):
                settings = dict(x_min=0.0, x_max=1.0, nx=16, dt=1e-3, t_end=0.01)
                settings[field] = bad
                with pytest.raises(ValueError, match="finite"):
                    Grid1D(**settings)


class TestPeriodic:
    def test_periodic_diffusion_conserves_mass(self):
        grid = Grid1D(0.0, 1.0, 64, 1e-4, 0.01, boundary="periodic")
        xs = np.linspace(0.0, 1.0, 64)
        vals = np.vstack([0.1 * np.sin(2 * np.pi * xs)])
        state = GridField(vals, 0.0)
        total0 = state.values.sum()
        for _ in range(20):
            state = step(state, grid)
        assert state.values.sum() == pytest.approx(total0, abs=1e-9)


class TestModuleNames:
    def test_names_the_benchmark_tracer_wraps(self, monkeypatch):
        # perfbench/tracing.py replaces these module attributes to count
        # calls, so the solver must look them up through the module
        names = ("step", "solve_banded", "factorized", "field_from_exact", "make_boundary")
        assert all(callable(getattr(fdsolve, name, None)) for name in names)
        calls = []
        for name in ("solve_banded", "factorized"):
            fn = getattr(fdsolve, name)
            monkeypatch.setattr(fdsolve, name, lambda *a, _fn=fn, _name=name, **kw:
                                calls.append(_name) or _fn(*a, **kw))
        fdsolve._implicit_solver.cache_clear()
        for boundary, bc in (("dirichlet", moving_boundary(1)), ("periodic", None)):
            grid = Grid1D(0.0, 1.0, 16, 1e-3, 0.01, boundary=boundary)
            step(GridField(np.zeros((1, 16)), 0.0), grid, bc)
        assert sorted(set(calls)) == ["factorized", "solve_banded"]
