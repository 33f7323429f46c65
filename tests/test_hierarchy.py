"""Golden closed forms of the systems and symmetry fields, the
component convention, the companion-matrix identity, and system
invariants."""

import json

import pytest

from burgers_hierarchy.hierarchy import (
    PdeSystem,
    build_companion,
    build_delta,
    build_symmetry_field,
    companion_row_permutation,
    components,
    matrix_burgers_residual,
    tier_of,
)
from burgers_hierarchy.parser import parse_expr
from burgers_hierarchy.symcore import ONE, ZERO, JetCoord, SubstitutionMap, jet


def u(k, a, nt=0, nx=0):
    return jet(k, a, nt, nx)


def golden_system(m: int, k: int) -> list:
    """The m-component equations written out literally."""
    residuals = []
    for a in range(1, m + 1):
        r = u(k, a, nt=1) + u(k, a) * u(k, 1, nx=1) - u(k, a, nx=2)
        if a < m:
            r = r + u(k, a + 1, nx=1)
        residuals.append(r)
    return residuals


def reference_etas(m: int) -> list:
    """The symmetry-field etas with the last components written out case
    by case: a <= m-2, a = m-1, and a = m (without u_2*u_m for m = 1)."""
    k = tier_of(m)

    def w(a):
        return jet(k + 1, a)

    def v(a):
        return jet(k, a)

    etas = []
    for a in range(1, m + 1):
        if a <= m - 2:
            e = (-v(1) ** 2 * v(a) - v(1) * v(a + 1) - v(2) * v(a)
                 + w(1) * v(1) * v(a) + w(2) * v(a) + w(1) * v(a + 1)
                 - v(a + 2) + w(a + 2))
        elif a == m - 1:
            e = (-v(1) ** 2 * v(a) - v(1) * v(m) - v(2) * v(a)
                 + w(1) * v(1) * v(a) + w(2) * v(a) + w(1) * v(m) + w(m + 1))
        else:
            e = -v(1) ** 2 * v(m) + w(1) * v(1) * v(m) + w(2) * v(m) + w(m + 2)
            if m != 1:
                e = e - v(2) * v(m)
        etas.append(e / 4)
    return etas


# golden closed forms of the symmetry fields, one per m
GOLDEN_FIELDS = {
    1: {
        "xi": "-1/2*u[1,1] + 1/2*u[2,1]",
        "etas": ["1/4*(-u[1,1]^3 + u[2,1]*u[1,1]^2 + u[1,1]*u[2,2] + u[2,3])"],
    },
    2: {
        "xi": "1/2*(-u[1,1] + u[2,1])",
        "etas": [
            "1/4*(-u[1,1]^3 - 2*u[1,1]*u[1,2] + u[2,1]*u[1,1]^2 + u[2,2]*u[1,1]"
            " + u[2,1]*u[1,2] + u[2,3])",
            "1/4*(-u[1,1]^2*u[1,2] - u[1,2]^2 + u[2,1]*u[1,1]*u[1,2]"
            " + u[2,2]*u[1,2] + u[2,4])",
        ],
    },
    3: {
        "xi": "1/2*(-u[2,1] + u[3,1])",
        "etas": [
            "1/4*(-u[2,1]^3 - 2*u[2,1]*u[2,2] + u[3,1]*u[2,1]^2 + u[3,2]*u[2,1]"
            " + u[3,1]*u[2,2] - u[2,3] + u[3,3])",
            "1/4*(-u[2,1]^2*u[2,2] - u[2,1]*u[2,3] - u[2,2]^2 + u[3,1]*u[2,1]*u[2,2]"
            " + u[3,2]*u[2,2] + u[3,1]*u[2,3] + u[3,4])",
            "1/4*(-u[2,1]^2*u[2,3] - u[2,2]*u[2,3] + u[3,1]*u[2,1]*u[2,3]"
            " + u[3,2]*u[2,3] + u[3,5])",
        ],
    },
    4: {
        "xi": "1/2*(-u[2,1] + u[3,1])",
        "etas": [
            "1/4*(-u[2,1]^3 - 2*u[2,1]*u[2,2] + u[3,1]*u[2,1]^2 + u[3,2]*u[2,1]"
            " + u[3,1]*u[2,2] - u[2,3] + u[3,3])",
            "1/4*(-u[2,1]^2*u[2,2] - u[2,1]*u[2,3] - u[2,2]^2 + u[3,1]*u[2,1]*u[2,2]"
            " + u[3,2]*u[2,2] + u[3,1]*u[2,3] - u[2,4] + u[3,4])",
            "1/4*(-u[2,1]^2*u[2,3] - u[2,1]*u[2,4] - u[2,2]*u[2,3] + u[3,1]*u[2,1]*u[2,3]"
            " + u[3,2]*u[2,3] + u[3,1]*u[2,4] + u[3,5])",
            "1/4*(-u[2,1]^2*u[2,4] - u[2,2]*u[2,4] + u[3,1]*u[2,1]*u[2,4]"
            " + u[3,2]*u[2,4] + u[3,6])",
        ],
    },
    5: {
        "xi": "1/2*(-u[3,1] + u[4,1])",
        "etas": [
            "1/4*(-u[3,1]^3 - 2*u[3,1]*u[3,2] + u[4,1]*u[3,1]^2 + u[4,2]*u[3,1]"
            " + u[4,1]*u[3,2] - u[3,3] + u[4,3])",
            "1/4*(-u[3,1]^2*u[3,2] - u[3,1]*u[3,3] - u[3,2]^2 + u[4,1]*u[3,1]*u[3,2]"
            " + u[4,2]*u[3,2] + u[4,1]*u[3,3] - u[3,4] + u[4,4])",
            "1/4*(-u[3,1]^2*u[3,3] - u[3,1]*u[3,4] - u[3,2]*u[3,3] + u[4,1]*u[3,1]*u[3,3]"
            " + u[4,2]*u[3,3] + u[4,1]*u[3,4] - u[3,5] + u[4,5])",
            "1/4*(-u[3,1]^2*u[3,4] - u[3,1]*u[3,5] - u[3,2]*u[3,4] + u[4,1]*u[3,1]*u[3,4]"
            " + u[4,2]*u[3,4] + u[4,1]*u[3,5] + u[4,6])",
            "1/4*(-u[3,1]^2*u[3,5] - u[3,2]*u[3,5] + u[4,1]*u[3,1]*u[3,5]"
            " + u[4,2]*u[3,5] + u[4,7])",
        ],
    },
    6: {
        "xi": "1/2*(-u[3,1] + u[4,1])",
        "etas": [
            "1/4*(-u[3,1]^3 - 2*u[3,1]*u[3,2] + u[4,1]*u[3,1]^2 + u[4,2]*u[3,1]"
            " + u[4,1]*u[3,2] - u[3,3] + u[4,3])",
            "1/4*(-u[3,1]^2*u[3,2] - u[3,1]*u[3,3] - u[3,2]^2 + u[4,1]*u[3,1]*u[3,2]"
            " + u[4,2]*u[3,2] + u[4,1]*u[3,3] - u[3,4] + u[4,4])",
            "1/4*(-u[3,1]^2*u[3,3] - u[3,1]*u[3,4] - u[3,2]*u[3,3] + u[4,1]*u[3,1]*u[3,3]"
            " + u[4,2]*u[3,3] + u[4,1]*u[3,4] - u[3,5] + u[4,5])",
            "1/4*(-u[3,1]^2*u[3,4] - u[3,1]*u[3,5] - u[3,2]*u[3,4] + u[4,1]*u[3,1]*u[3,4]"
            " + u[4,2]*u[3,4] + u[4,1]*u[3,5] - u[3,6] + u[4,6])",
            "1/4*(-u[3,1]^2*u[3,5] - u[3,1]*u[3,6] - u[3,2]*u[3,5] + u[4,1]*u[3,1]*u[3,5]"
            " + u[4,2]*u[3,5] + u[4,1]*u[3,6] + u[4,7])",
            "1/4*(-u[3,1]^2*u[3,6] - u[3,2]*u[3,6] + u[4,1]*u[3,1]*u[3,6]"
            " + u[4,2]*u[3,6] + u[4,8])",
        ],
    },
}


class TestComponents:
    def test_convention(self):
        u = components(3)
        assert [u(a) for a in (1, 2, 3)] == [jet(2, 1), jet(2, 2), jet(2, 3)]
        assert u(2, nt=1, nx=2) == jet(2, 2, 1, 2)
        assert u(0) == -ONE
        for a in (4, 5, -1):
            assert u(a).is_zero() and u(a, nx=1).is_zero()
        for nt, nx in ((1, 0), (0, 1), (0, 2), (1, 1)):
            assert u(0, nt=nt, nx=nx).is_zero()


class TestBuildDelta:
    @pytest.mark.parametrize("m", range(1, 33))
    def test_matches_golden(self, m):
        system = build_delta(m)
        assert system.tier == tier_of(m)
        assert list(system.residuals) == golden_system(m, system.tier)

    def test_classical_single_component(self):
        assert build_delta(1).residuals[0] == parse_expr(
            "u[1,1]_t + u[1,1]*u[1,1]_x - u[1,1]_x_x"
        )

    def test_invariants_enforced(self):
        good = build_delta(2)
        # equations out of order: each is solved for the wrong time derivative
        with pytest.raises(ValueError):
            PdeSystem(2, (good.residuals[1], good.residuals[0]))
        broken = (good.residuals[0] + jet(1, 2, nt=1), good.residuals[1])
        with pytest.raises(ValueError):
            PdeSystem(2, broken)
        # missing forcing term in the first equation
        with pytest.raises(ValueError):
            PdeSystem(2, (good.residuals[1], good.residuals[1]))

    def test_m_validation(self):
        with pytest.raises(ValueError):
            build_delta(0)

    def test_solved_rules_annihilate(self):
        system = build_delta(3)
        rules = system.solved_rules()
        for r in system.residuals:
            assert rules.apply(r).is_zero()

    def test_json_serialization(self):
        doc = build_delta(2).to_json_dict()
        text = json.dumps(doc, sort_keys=True)
        assert json.loads(text)["residuals"][0] == str(build_delta(2).residuals[0])
        for rendered, expected in zip(doc["residuals"], build_delta(2).residuals):
            assert parse_expr(rendered) == expected


class TestCompanion:
    def test_m1_degenerate(self):
        assert build_companion(1) == [[jet(1, 1)]]

    def test_m2(self):
        assert build_companion(2) == [[ZERO, ONE], [jet(1, 2), jet(1, 1)]]

    def test_m3_last_row(self):
        omega = build_companion(3)
        assert omega[2] == [jet(2, 3), jet(2, 2), jet(2, 1)]
        ones = sum(1 for i in range(3) for j in range(3) if omega[i][j] == ONE)
        assert ones == 2  # exactly m-1 superdiagonal ones

    @pytest.mark.parametrize("m", range(1, 7))
    def test_matrix_residual_rows(self, m):
        res = matrix_burgers_residual(m)
        system = build_delta(m)
        for i in range(m - 1):
            assert all(e.is_zero() for e in res[i])
        perm = companion_row_permutation(m)
        for j in range(m):
            assert res[m - 1][j] == system.residuals[perm[j] - 1]
        assert sorted(perm) == list(range(1, m + 1))

    def test_m1_scalar_residual(self):
        assert matrix_burgers_residual(1)[0][0] == build_delta(1).residuals[0]


class TestSymmetryField:
    @pytest.mark.parametrize("m", sorted(GOLDEN_FIELDS))
    def test_matches_golden(self, m):
        field = build_symmetry_field(m)
        golden = GOLDEN_FIELDS[m]
        assert field.tau == ONE
        assert field.xi == parse_expr(golden["xi"])
        assert len(field.etas) == m
        for eta, expected in zip(field.etas, golden["etas"]):
            assert eta == parse_expr(expected)

    @pytest.mark.parametrize("m", range(1, 33))
    def test_matches_case_by_case_reference(self, m):
        field = build_symmetry_field(m)
        k = tier_of(m)
        assert field.xi == (jet(k + 1, 1) - jet(k, 1)) / 2
        assert list(field.etas) == reference_etas(m)

    @pytest.mark.parametrize("m", range(1, 9))
    def test_degenerate_direction(self, m):
        # identifying the fresh symbols w_a with the base variables u_a (so
        # w_{m+1} and w_{m+2} become 0) makes the symmetry field vanish
        field = build_symmetry_field(m)
        u = components(m)
        rules = SubstitutionMap((JetCoord(tier_of(m) + 1, a), u(a)) for a in range(1, m + 3))
        assert rules.apply(field.xi).is_zero()
        for eta in field.etas:
            assert rules.apply(eta).is_zero()

    @pytest.mark.parametrize("m", range(1, 7))
    def test_follow_up_system_tier(self, m):
        # the constraint system on the fresh symbols is the (m+2)-component
        # system whose natural tier is one higher
        assert build_delta(m + 2).tier == tier_of(m) + 1

    def test_field_json(self):
        doc = build_symmetry_field(2).to_json_dict()
        assert doc["tau"] == "1"
        assert parse_expr(doc["xi"]) == build_symmetry_field(2).xi
