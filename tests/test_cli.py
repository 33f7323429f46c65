"""Exit-code contract, artifact determinism, and file formats."""

import dataclasses
import hashlib
import json
import math
import os
import subprocess
import sys
import textwrap
from fractions import Fraction
from pathlib import Path

import pytest

from burgers_hierarchy import liealg, prolong
from burgers_hierarchy.cli import build_parser, main
from tests_support import sabotage_symmetry_field

ROOT = Path(__file__).resolve().parent.parent
VERIFY_REFERENCE = ROOT / "perfbench" / "reference" / "verify.json"
EXACT_REFERENCE = ROOT / "perfbench" / "reference" / "exact.json"

CATALOG_M1 = [
    {"kind": "sum", "terms": [
        {"coeff": "1", "term": {"kind": "constant", "value": "1"}},
        {"coeff": "1", "term": {"kind": "exponential", "a": "1", "sign": -1}},
    ]},
]
CATALOG_M2 = [
    {"kind": "heat_polynomial", "degree": 1},
    {"kind": "heat_polynomial", "degree": 2},
]
CATALOG_COSH = [
    {"kind": "sum", "terms": [
        {"coeff": "1/2", "term": {"kind": "exponential", "a": "1", "sign": 1}},
        {"coeff": "1/2", "term": {"kind": "exponential", "a": "1", "sign": -1}},
    ]},
]
# the catalogs whose derivatives chain through opaque symbols (the
# Gaussian amplitude) and elementary functions (exp, sin)
CATALOG_GAUSSIAN = [
    {"kind": "gaussian", "t0": "1/2"},
    {"kind": "sum", "terms": [
        {"coeff": "1", "term": {"kind": "gaussian", "t0": "3"}},
        {"coeff": "2", "term": {"kind": "constant", "value": "1"}},
    ]},
]
CATALOG_EXP_SIN = [
    {"kind": "exponential", "a": "1", "sign": 1},
    {"kind": "trig", "a": "2", "func": "sin"},
    {"kind": "heat_polynomial", "degree": 3},
]
CATALOG_SINGULAR = [
    {"kind": "heat_polynomial", "degree": 1},
    {"kind": "sum", "terms": [
        {"coeff": "2", "term": {"kind": "heat_polynomial", "degree": 1}},
    ]},
]


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.fixture
def catalog(tmp_path):
    def write(doc, name="catalog.json"):
        path = tmp_path / name
        path.write_text(json.dumps(doc))
        return str(path)

    return write


class TestGen:
    def test_text(self, capsys):
        assert main(["gen", "--m", "2"]) == 0
        out = capsys.readouterr().out
        assert "companion matrix" in out
        assert "u[1,2]" in out

    def test_json_and_determinism(self, tmp_path):
        out1 = tmp_path / "a.json"
        out2 = tmp_path / "b.json"
        assert main(["gen", "--m", "3", "--format", "json", "--out", str(out1)]) == 0
        assert main(["gen", "--m", "3", "--format", "json", "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        doc = json.loads(out1.read_text())
        assert doc["system"]["m"] == 3

    def test_bad_m(self):
        assert main(["gen", "--m", "0"]) != 0


VERIFY_KINDS = ["theorem", "classical", "liealg", "kappa"]


class TestVerify:
    @pytest.mark.parametrize("kind", VERIFY_KINDS)
    def test_theorem_range(self, tmp_path, capsys, kind):
        assert main(["verify", kind, "--m", "1..2",
                     "--out-dir", str(tmp_path)]) == 0
        assert capsys.readouterr().out == f"verify {kind} m=1: ok\nverify {kind} m=2: ok\n"
        for m in (1, 2):
            doc = json.loads((tmp_path / f"verify_{kind}_m{m}.json").read_text())
            assert doc["m"] == m
            assert doc["status"] == "ok"
            assert set(doc["meta"]) == {"wall_time_ms"}
            assert doc["meta"]["wall_time_ms"] >= 0

    @pytest.mark.parametrize("kind", VERIFY_KINDS)
    def test_no_meta_strips_timing(self, tmp_path, kind):
        assert main(["verify", kind, "--m", "1", "--out-dir", str(tmp_path),
                     "--no-meta"]) == 0
        doc = json.loads((tmp_path / f"verify_{kind}_m1.json").read_text())
        assert doc["status"] == "ok"
        assert "meta" not in doc

    def test_out_dir_defaults_to_the_environment(self, tmp_path, monkeypatch):
        monkeypatch.setenv("BURGERS_HIERARCHY_OUTDIR", str(tmp_path))
        assert main(["verify", "theorem", "--m", "1"]) == 0
        assert json.loads((tmp_path / "verify_theorem_m1.json").read_text())["status"] == "ok"

    def test_byte_identical_reruns(self, tmp_path):
        d1, d2 = tmp_path / "one", tmp_path / "two"
        for d in (d1, d2):
            assert main(["verify", "kappa", "--m", "1..2", "--out-dir", str(d),
                         "--no-meta"]) == 0
        for name in ("verify_kappa_m1.json", "verify_kappa_m2.json"):
            assert (d1 / name).read_bytes() == (d2 / name).read_bytes()

    def test_range_cap(self, tmp_path):
        assert main(["verify", "theorem", "--m", "1..40",
                     "--out-dir", str(tmp_path)]) == 4

    @pytest.mark.parametrize("cap", [None, "3"])
    def test_range_cap_names_the_cap_in_force(self, tmp_path, capsys, cap):
        flags = [] if cap is None else ["--max-m", cap]
        assert main(["verify", "theorem", "--m", "1..40", *flags,
                     "--out-dir", str(tmp_path)]) == 4
        assert capsys.readouterr().err == \
            f"config error: m range '1..40' exceeds the cap {cap or 32}, set by --max-m\n"

    def test_bad_range(self, tmp_path):
        assert main(["verify", "theorem", "--m", "x..y",
                     "--out-dir", str(tmp_path)]) == 4

    def test_empty_range(self, tmp_path, capsys):
        assert main(["verify", "theorem", "--m", "3..1",
                     "--out-dir", str(tmp_path)]) == 4
        assert "empty m range" in capsys.readouterr().err

    def test_liealg_cross_m(self, tmp_path):
        assert main(["verify", "liealg", "--m", "1..3",
                     "--out-dir", str(tmp_path)]) == 0
        doc = json.loads((tmp_path / "verify_liealg_m3.json").read_text())
        assert doc["identical_to_first"] is True

    def test_liealg_tables_that_differ_fail(self, tmp_path, capsys, monkeypatch):
        original = liealg.structure_constants

        def patched(m):
            table = original(m)
            if m == 2:
                table = dataclasses.replace(
                    table, brackets={**table.brackets, (3, 4): {4: Fraction(2)}})
            return table

        monkeypatch.setattr(liealg, "structure_constants", patched)
        assert main(["verify", "liealg", "--m", "1..2", "--out-dir", str(tmp_path)]) == 2
        assert capsys.readouterr().err == "FAIL: m=2: structure constants differ from m=1\n"
        doc = json.loads((tmp_path / "verify_liealg_m2.json").read_text())
        assert doc["identical_to_first"] is False

    def test_m_below_one_is_config_error(self, tmp_path, capsys):
        assert main(["verify", "theorem", "--m", "0..2", "--out-dir", str(tmp_path)]) == 4
        assert capsys.readouterr().err == "config error: m must be >= 1\n"
        assert not any(tmp_path.iterdir())

    def test_failed_theorem_writes_no_artifact(self, tmp_path, capsys, monkeypatch):
        sabotage_symmetry_field(monkeypatch, lambda u, w: u(1))
        assert main(["verify", "theorem", "--m", "2", "--out-dir", str(tmp_path)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("FAIL: m=2, eq 1: coefficient of u[1,1] is not a combination "
                              "of the follow-up residuals")
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("kind, owner, attr, patch, message", [
        ("kappa", prolong, "_kappa_obstructions_multi", lambda m: [prolong.KAPPA.expr()],
         "m=2: constraint kappa is not divisible by the expected factor"),
        ("liealg", liealg.StructureConstants, "jacobi_residual", lambda self: Fraction(1),
         "m=2: bracket table is not a Lie algebra"),
    ], ids=["kappa", "jacobi"])
    def test_failed_verdict_is_reported(self, tmp_path, capsys, monkeypatch,
                                        kind, owner, attr, patch, message):
        monkeypatch.setattr(owner, attr, patch)
        assert main(["verify", kind, "--m", "2", "--out-dir", str(tmp_path)]) == 2
        assert capsys.readouterr() == ("", f"FAIL: {message}\n")
        assert not any(tmp_path.iterdir())

    def test_differing_liealg_tables_fail_the_artifact(self, tmp_path, capsys, monkeypatch):
        real = liealg.structure_constants

        def drop_one_bracket(m):
            table = real(m)
            if m == 1:
                return table
            key = next(iter(table.brackets))
            return dataclasses.replace(table, brackets={**table.brackets, key: {}})

        monkeypatch.setattr(liealg, "structure_constants", drop_one_bracket)
        assert main(["verify", "liealg", "--m", "1..2", "--out-dir", str(tmp_path)]) == 2
        assert capsys.readouterr() == ("verify liealg m=1: ok\nverify liealg m=2: failed\n",
                                       "FAIL: m=2: structure constants differ from m=1\n")
        doc = json.loads((tmp_path / "verify_liealg_m2.json").read_text())
        assert (doc["status"], doc["identical_to_first"]) == ("failed", False)
        assert main(["report", "--dir", str(tmp_path)]) == 2

    @staticmethod
    def sweep_ms(kind):
        # the benchmark's verify-sweep: m = 1..12, and m = 1..4 for kappa
        return range(1, 5 if kind == "kappa" else 13)

    def test_reference_names_every_sweep_artifact(self):
        reference = json.loads(VERIFY_REFERENCE.read_text())
        assert set(reference) == {f"verify_{kind}_m{m}.json" for kind in VERIFY_KINDS
                                  for m in self.sweep_ms(kind)}

    @pytest.mark.parametrize("kind", VERIFY_KINDS)
    def test_artifacts_match_benchmark_reference(self, tmp_path, kind):
        # the same bytes the benchmark's verify-sweep checks, one m per call
        reference = json.loads(VERIFY_REFERENCE.read_text())
        for m in self.sweep_ms(kind):
            assert main(["verify", kind, "--m", str(m), "--no-meta",
                         "--out-dir", str(tmp_path)]) == 0
            name = f"verify_{kind}_m{m}.json"
            digest = hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
            assert digest == reference[name], name


class TestExact:
    def test_certified_run(self, tmp_path, catalog):
        path = catalog(CATALOG_M2)
        assert main(["exact", "--m", "2", "--catalog", path, "--certify",
                     "--points", "20", "--box", "0.1", "1.0", "1.5", "3.0",
                     "--out-dir", str(tmp_path)]) == 0
        doc = json.loads((tmp_path / "exact_m2.json").read_text())
        assert doc["certification"] == {"m": 2, "mode": "symbolic", "passed": True}
        csv = (tmp_path / "exact_m2.csv").read_text().splitlines()
        assert csv[0] == "t,x,u1,u2"
        assert len(csv) == 21

    @pytest.mark.parametrize("doc, digest", [
        (CATALOG_M1, "a4fb36050adf3d4e047a90cc3ac4be9e6a505766cd55d9ac9e1e4c59d691ec7a"),
        (CATALOG_COSH, "c53857b547e6df41b1a102326755902cb83ee3b7b3004fd01b008b9f887beded"),
        (CATALOG_M2, "02a8300fefa4ddf7ec79c072d7f8382c970be2be4a536ad263940d8d6c169b85"),
        ([{"kind": "heat_polynomial", "degree": n} for n in (1, 2, 3)],
         "284d45409186e45ef24a73370fcf1f4d4cb7d3f8f9cc77cc632a6f33eae1cb85"),
        ([{"kind": "heat_polynomial", "degree": n} for n in (1, 2, 3, 4)],
         "0de87605c0b7e99c40c5c6d093aee7b8861cd7cb885a7b57a60a1e2f0beb9d4a"),
        (CATALOG_GAUSSIAN, "989b3c5c229e01b773473ab7e3b3205c1e080ce9004f4e8398d1d03ff914a66d"),
        (CATALOG_EXP_SIN, "3543c0d92fb7cdcdf3a496f1c0fc5aec356d5b183c8f75ce686757becedfbdf1"),
    ], ids=["wave", "cosh", "pair", "heatpoly-m3", "heatpoly-m4", "gaussian", "exp-sin"])
    def test_csv_bytes_pinned(self, tmp_path, catalog, doc, digest):
        # float evaluation of the exact solutions stays bit for bit
        m = len(doc)
        assert main(["exact", "--m", str(m), "--catalog", catalog(doc), "--points", "20",
                     "--box", "0.1", "1.0", "-3.0", "3.0", "--no-meta",
                     "--out-dir", str(tmp_path)]) == 0
        csv = (tmp_path / f"exact_m{m}.csv").read_bytes()
        assert hashlib.sha256(csv).hexdigest() == digest

    @pytest.mark.parametrize("doc, digest", [
        ([{"kind": "sum", "terms": [{"coeff": "3/2", "term": {"kind": "heat_polynomial", "degree": 16}}]},
          {"kind": "sum", "terms": [{"coeff": "3", "term": {"kind": "heat_polynomial", "degree": 19}}]}],
         "88c5a040dd2f87f66d92f1188b8ff80b3a4c87c9eac7c58243fe282bdea17ed6"),
        ([{"kind": "sum", "terms": [{"coeff": "1/2", "term": {"kind": "heat_polynomial", "degree": 6}}]},
          {"kind": "sum", "terms": [{"coeff": "1/4", "term": {"kind": "heat_polynomial", "degree": 8}}]},
          {"kind": "sum", "terms": [{"coeff": "1/2", "term": {"kind": "heat_polynomial", "degree": 9}}]},
          {"kind": "sum", "terms": [{"coeff": "1/2", "term": {"kind": "heat_polynomial", "degree": 11}}]}],
         "c27af4849c85c927721cc60573de4153e923d502554ed0d89078f5502d6d90bd"),
    ], ids=["P16-P19", "P6-P8-P9-P11"])
    def test_large_catalog_csv_pinned(self, tmp_path, catalog, doc, digest):
        # the guard-selected points and the values of large polynomials at
        # the default 100 points in the default box
        m = len(doc)
        assert main(["exact", "--m", str(m), "--catalog", catalog(doc), "--no-meta",
                     "--out-dir", str(tmp_path)]) == 0
        csv = (tmp_path / f"exact_m{m}.csv").read_bytes()
        assert hashlib.sha256(csv).hexdigest() == digest

    def test_exact_matches_benchmark_reference(self, tmp_path, catalog):
        # the hashes the benchmark's exact-certify checks for the acceptance
        # catalogs, looked up by the benchmark's catalog key
        reference = json.loads(EXACT_REFERENCE.read_text())
        heat = [{"kind": "heat_polynomial", "degree": n} for n in (1, 2, 3, 4)]
        for doc in (CATALOG_M1, CATALOG_COSH, CATALOG_M2, heat[:3], heat):
            expected = reference[json.dumps(doc, sort_keys=True, separators=(",", ":"))]
            m = len(doc)
            assert main(["exact", "--m", str(m), "--catalog", catalog(doc), "--certify",
                         "--no-meta", "--out-dir", str(tmp_path)]) == 0
            out = json.loads((tmp_path / f"exact_m{m}.json").read_text())
            assert out["certification"]["passed"] is True
            assert sha256(out["determinant"]) == expected["determinant"]
            assert [sha256(c["numerator"]) for c in out["components"]] == expected["numerators"]

    def test_negative_points_is_config_error(self, tmp_path, catalog):
        path = catalog(CATALOG_M2)
        assert main(["exact", "--m", "2", "--catalog", path, "--points", "-1",
                     "--out-dir", str(tmp_path)]) == 4
        assert not (tmp_path / "exact_m2.csv").exists()

    @pytest.mark.parametrize("box_args", [
        ["--box", "1", "0", "5", "4"],  # reversed: t_min > t_max, x_min > x_max
        ["--box", "0.5", "0.5", "1", "1", "--points", "3"],  # every point has 2t = x^2
        ["--box", "0.1", "inf", "-3", "3", "--points", "5"],  # used to write rows at t = inf
        ["--box", "nan", "1", "-3", "3", "--points", "0"],  # used to exit 0
    ])
    def test_bad_box_is_config_error(self, tmp_path, catalog, box_args, capsys):
        path = catalog(CATALOG_M2)
        assert main(["exact", "--m", "2", "--catalog", path, *box_args,
                     "--out-dir", str(tmp_path)]) == 4
        assert capsys.readouterr().err.startswith("config error:")
        assert not list(tmp_path.glob("exact_m2.*"))

    def test_singular_catalog_exit_code(self, tmp_path, catalog, capsys):
        path = catalog(CATALOG_SINGULAR)
        assert main(["exact", "--m", "2", "--catalog", path,
                     "--out-dir", str(tmp_path)]) == 3
        assert capsys.readouterr().err.startswith("numerical failure:")

    def test_overflow_is_numerical_failure(self, tmp_path, catalog):
        path = catalog([{"kind": "constant", "value": "1e400"}])
        assert main(["exact", "--m", "1", "--catalog", path,
                     "--out-dir", str(tmp_path)]) == 3

    def test_zero_denominator_is_config_error(self, tmp_path, catalog):
        path = catalog([{"kind": "constant", "value": "1/0"}])
        assert main(["exact", "--m", "1", "--catalog", path,
                     "--out-dir", str(tmp_path)]) == 4

    @pytest.mark.parametrize("record, message", [
        ({"kind": "exponential", "a": "1", "sign": 2}, "sign must be +1 or -1"),
        ({"kind": "trig", "a": "1", "func": "tan"}, "func must be 'sin' or 'cos'"),
        ({"kind": "heat_polynomial", "degree": -1}, "degree must be nonnegative"),
        ({"kind": "gaussian", "t0": "0"}, "t0 must be positive"),
        ({"kind": "constant", "value": 1.5}, "expected an exact rational, got 1.5"),
        ({"kind": "constant", "value": True}, "expected an exact rational, got True"),
        ({"kind": "exponential", "a": True}, "expected an exact rational, got True"),
        ({"kind": "trig", "a": True}, "expected an exact rational, got True"),
        ({"kind": "gaussian", "t0": True}, "expected an exact rational, got True"),
        ({"kind": "sum", "terms": [{"coeff": True, "term": {"kind": "heat_polynomial",
                                                            "degree": 1}}]},
         "expected an exact rational, got True"),
    ], ids=["sign", "func", "degree", "t0", "float", "value-true", "exponential-a-true",
            "trig-a-true", "t0-true", "coeff-true"])
    def test_bad_record_is_config_error(self, tmp_path, catalog, capsys, record, message):
        out = tmp_path / "out"
        assert main(["exact", "--m", "1", "--catalog", catalog([record]),
                     "--out-dir", str(out)]) == 4
        assert capsys.readouterr().err == f"config error: bad catalog: {message}\n"
        assert not out.exists()

    def test_missing_catalog_is_config_error(self, tmp_path):
        assert main(["exact", "--m", "2", "--catalog", "/nonexistent.json",
                     "--out-dir", str(tmp_path)]) == 4

    def test_directory_as_catalog_is_config_error(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["exact", "--m", "1", "--catalog", str(tmp_path),
                     "--out-dir", str(out)]) == 4
        assert capsys.readouterr().err.startswith("config error:")
        assert not out.exists()

    def test_box_on_the_determinant_zero_set_is_config_error(self, tmp_path, catalog, capsys):
        # u = -2 v_x / v with v = x: the matrix row is zero at x = 0, so
        # the relative guard's scale is zero too
        path = catalog([{"kind": "heat_polynomial", "degree": 1}])
        out = tmp_path / "out"
        assert main(["exact", "--m", "1", "--catalog", path, "--box", "0.5", "0.5", "0", "0",
                     "--points", "1", "--out-dir", str(out)]) == 4
        assert capsys.readouterr().err.startswith("config error:")
        assert not out.exists()

    def test_invalid_json_catalog_is_config_error(self, tmp_path, capsys):
        path = tmp_path / "catalog.json"
        path.write_text("[{")
        assert main(["exact", "--m", "1", "--catalog", str(path),
                     "--out-dir", str(tmp_path / "out")]) == 4
        assert capsys.readouterr().err.startswith("config error: catalog is not valid JSON: ")
        assert not (tmp_path / "out").exists()

    def test_wrong_length_catalog(self, tmp_path, catalog):
        path = catalog(CATALOG_M1)
        assert main(["exact", "--m", "2", "--catalog", path,
                     "--out-dir", str(tmp_path)]) == 4

    @pytest.mark.parametrize("command", [
        ["exact"],
        ["solve", "--x-min", "0", "--x-max", "1", "--t-end", "0.1"],
        ["convergence", "--x-min", "0", "--x-max", "1", "--t-end", "0.1"],
    ], ids=["exact", "solve", "convergence"])
    def test_zero_components_is_config_error(self, tmp_path, catalog, command):
        # an empty catalog matches --m 0, and there is no system to solve
        out = tmp_path / "out"
        assert main([*command, "--m", "0", "--catalog", catalog([]),
                     "--out-dir", str(out)]) == 4
        assert not out.exists()

    def test_csv_deterministic(self, tmp_path, catalog):
        path = catalog(CATALOG_M2)
        d1, d2 = tmp_path / "r1", tmp_path / "r2"
        for d in (d1, d2):
            assert main(["exact", "--m", "2", "--catalog", path, "--points", "10",
                         "--box", "0.1", "1.0", "1.5", "3.0",
                         "--out-dir", str(d), "--no-meta"]) == 0
        assert (d1 / "exact_m2.csv").read_bytes() == (d2 / "exact_m2.csv").read_bytes()
        assert (d1 / "exact_m2.json").read_bytes() == (d2 / "exact_m2.json").read_bytes()


class TestSolveAndConvergence:
    def test_solve_with_error_table(self, tmp_path, catalog):
        path = catalog(CATALOG_M1)
        assert main(["solve", "--m", "1", "--catalog", path,
                     "--x-min", "-5", "--x-max", "5", "--nx", "64",
                     "--dt", "1e-3", "--t-end", "0.02",
                     "--out-dir", str(tmp_path)]) == 0
        errors = json.loads((tmp_path / "solve_m1_errors.json").read_text())
        assert errors["errors"][-1]["Linf"] < 1e-2
        snap = (tmp_path / "solve_m1_snap0.csv").read_text().splitlines()
        assert snap[0] == "t,x,u1"
        assert len(snap) == 65

    def test_solve_tolerance_failure(self, tmp_path, catalog):
        path = catalog(CATALOG_M1)
        assert main(["solve", "--m", "1", "--catalog", path,
                     "--x-min", "-5", "--x-max", "5", "--nx", "64",
                     "--dt", "1e-3", "--t-end", "0.02", "--tol", "1e-15",
                     "--out-dir", str(tmp_path)]) == 3

    def test_periodic_solve(self, tmp_path, catalog):
        path = catalog(CATALOG_M1)
        assert main(["solve", "--m", "1", "--catalog", path,
                     "--x-min", "-5", "--x-max", "5", "--nx", "64",
                     "--dt", "1e-3", "--t-end", "0.01", "--snapshots", "0.005",
                     "--periodic", "--out-dir", str(tmp_path)]) == 0
        for idx in (0, 1):
            snap = (tmp_path / f"solve_m1_snap{idx}.csv").read_text().splitlines()
            assert snap[0] == "t,x,u1" and len(snap) == 65

    def test_periodic_solve_has_period_x_max_minus_x_min(self, tmp_path, catalog):
        # v = 2 + exp(-t) sin x is 2*pi-periodic; on a grid of that period
        # the scheme is second order, so halving dx cuts the error about 4x
        path = catalog([{"kind": "sum", "terms": [
            {"coeff": "2", "term": {"kind": "constant", "value": "1"}},
            {"coeff": "1", "term": {"kind": "trig", "a": "1", "func": "sin"}},
        ]}])
        l2 = []
        for nx in (32, 64):
            out = tmp_path / str(nx)
            dx = 2 * math.pi / nx
            assert main(["solve", "--m", "1", "--catalog", path, "--x-min", "0",
                         "--x-max", repr(2 * math.pi), "--nx", str(nx), "--dt", repr(0.25 * dx ** 2),
                         "--t-end", "0.2", "--periodic", "--out-dir", str(out)]) == 0
            l2.append(json.loads((out / "solve_m1_errors.json").read_text())["errors"][-1]["L2"])
        assert l2[0] / l2[1] >= 3.5, l2

    def test_singular_point_is_named(self, tmp_path, catalog, capsys):
        # 2t = x^2 at the ends x = -1, 1 at t = 0.5: the determinant is 0 there
        assert main(["solve", "--m", "2", "--catalog", catalog(CATALOG_M2),
                     "--x-min", "-1", "--x-max", "1", "--nx", "21", "--t-start", "0.5",
                     "--t-end", "0.01", "--out-dir", str(tmp_path)]) == 3
        assert capsys.readouterr().err == (
            "numerical failure: the determinant vanishes at t=0.5, x=-1.0\n")

    def test_blowup_prints_no_numpy_warning(self, tmp_path, catalog):
        # numpy reports warnings through the warnings module, which pytest
        # captures in process, so the run's stderr is read from a subprocess
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        proc = subprocess.run(
            [sys.executable, "-m", "burgers_hierarchy.cli", "solve", "--m", "2",
             "--catalog", catalog(CATALOG_M2), "--x-min", "-1", "--x-max", "1",
             "--nx", "20", "--t-end", "0.1", "--out-dir", str(tmp_path)],
            capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 3
        assert proc.stderr.startswith("numerical failure: solver blow-up at t=")
        assert "RuntimeWarning" not in proc.stderr

    def test_convergence_quick(self, tmp_path, catalog):
        path = catalog(CATALOG_M1)
        assert main(["convergence", "--m", "1", "--catalog", path,
                     "--ladder", "32,64,128", "--x-min", "-8", "--x-max", "8",
                     "--t-end", "0.05", "--out-dir", str(tmp_path)]) == 0
        doc = json.loads((tmp_path / "convergence_m1.json").read_text())
        assert all(1.8 <= p <= 2.2 for p in doc["orders_L2"])

    def test_default_dt_scale_is_the_library_default(self, tmp_path, catalog):
        # without --dt-scale each rung steps by convergence_study's default
        # dt_scale times its dx, so the two defaults cannot drift apart
        import inspect

        from burgers_hierarchy.fdsolve import Grid1D, convergence_study

        default = inspect.signature(convergence_study).parameters["dt_scale"].default
        assert default == 0.1
        assert main(["convergence", "--m", "1", "--catalog", catalog(CATALOG_M1),
                     "--ladder", "32,64,128", "--x-min", "-8", "--x-max", "8",
                     "--t-end", "0.05", "--out-dir", str(tmp_path)]) == 0
        doc = json.loads((tmp_path / "convergence_m1.json").read_text())
        dxs = [Grid1D(-8.0, 8.0, nx, 1.0, 1.0).dx for nx in (32, 64, 128)]
        assert [e["dt"] for e in doc["entries"]] == [default * dx for dx in dxs]

    @pytest.mark.parametrize("command", ["solve", "convergence"])
    def test_reversed_domain_is_config_error(self, tmp_path, catalog, command):
        out = tmp_path / "out"
        assert main([command, "--m", "2", "--catalog", catalog(CATALOG_M2),
                     "--x-min", "4", "--x-max", "2", "--t-end", "0.01",
                     "--out-dir", str(out)]) == 4
        assert not out.exists()

    def test_solve_negative_t_start(self, tmp_path, catalog):
        # the run ends at t_start + t_end = 0.005, in one snapshot
        assert main(["solve", "--m", "2", "--catalog", catalog(CATALOG_M2),
                     "--x-min", "2", "--x-max", "4", "--nx", "32", "--dt", "1e-3",
                     "--t-start=-0.005", "--t-end", "0.01",
                     "--out-dir", str(tmp_path)]) == 0
        assert sorted(p.name for p in tmp_path.glob("solve_m2_snap*.csv")) == ["solve_m2_snap0.csv"]
        rows = (tmp_path / "solve_m2_snap0.csv").read_text().splitlines()[1:]
        assert all(float(r.split(",")[0]) == pytest.approx(0.005) for r in rows)
        errors = json.loads((tmp_path / "solve_m2_errors.json").read_text())["errors"]
        assert [e["t"] for e in errors] == [pytest.approx(0.005)]

    def test_convergence_negative_t_start(self, tmp_path, catalog):
        assert main(["convergence", "--m", "2", "--catalog", catalog(CATALOG_M2),
                     "--ladder", "32,64,128", "--x-min", "2", "--x-max", "4",
                     "--t-start=-0.01", "--t-end", "0.02",
                     "--out-dir", str(tmp_path)]) == 0
        doc = json.loads((tmp_path / "convergence_m2.json").read_text())
        assert all(1.8 <= p <= 2.2 for p in doc["orders_L2"])

    @pytest.mark.parametrize("snapshots", ["-0.005", "0.005,0.02"])
    def test_snapshot_outside_run_is_config_error(self, tmp_path, catalog, snapshots):
        out = tmp_path / "out"
        assert main(["solve", "--m", "2", "--catalog", catalog(CATALOG_M2),
                     "--x-min", "2", "--x-max", "4", "--nx", "32", "--dt", "1e-3",
                     "--t-end", "0.01", f"--snapshots={snapshots}",
                     "--out-dir", str(out)]) == 4
        assert not out.exists()

    def test_order_outside_window_is_numerical_failure(self, tmp_path, capsys):
        assert main(["convergence", "--m", "2", "--catalog", str(ROOT / "demos" / "catalog_m2.json"),
                     "--x-min", "2", "--x-max", "4", "--t-end", "0.01", "--ladder", "20,40,80",
                     "--order-window", "3", "4", "--out-dir", str(tmp_path)]) == 3
        out, err = capsys.readouterr()
        assert out == "convergence m=2: observed L2 orders [1.955, 2.019]\n"
        assert err == "FAIL: observed order outside [3.0, 4.0]\n"
        assert (tmp_path / "convergence_m2.json").is_file()

    @pytest.mark.parametrize("command, bad, message", [
        ("solve", ["--snapshots", "0.005,x"],
         "argument --snapshots: expected comma-separated numbers, got '0.005,x'"),
        ("convergence", ["--ladder", "20,4x"],
         "argument --ladder: expected comma-separated integers, got '20,4x'"),
    ], ids=["snapshots", "ladder"])
    def test_bad_list_names_the_expected_input(self, tmp_path, catalog, capsys,
                                               command, bad, message):
        assert main([command, "--m", "2", "--catalog", catalog(CATALOG_M2),
                     "--x-min", "2", "--x-max", "4", "--t-end", "0.01", *bad,
                     "--out-dir", str(tmp_path)]) == 4
        assert capsys.readouterr().err.endswith(f": error: {message}\n")

    @pytest.mark.parametrize("scale", ["0", "-0.25"])
    def test_non_positive_dt_scale_names_the_flag(self, tmp_path, catalog, capsys, scale):
        assert main(["convergence", "--m", "2", "--catalog", catalog(CATALOG_M2),
                     "--x-min", "2", "--x-max", "4", "--t-end", "0.01", f"--dt-scale={scale}",
                     "--out-dir", str(tmp_path)]) == 4
        assert capsys.readouterr().err == \
            f"config error: --dt-scale must be positive and finite, got {float(scale)}\n"

    @pytest.mark.parametrize("command, bad", [
        ("solve", ["--t-end", "nan"]),  # used to report the initial state
        ("solve", ["--t-end", "inf"]),  # used to exit 3 on the CFL limit
        ("solve", ["--dt", "inf"]),     # used to take one step over the run
        ("solve", ["--dt", "nan"]),
        ("solve", ["--x-min=-inf"]),
        ("convergence", ["--dt-scale", "inf"]),
        ("solve", ["--t-start", "inf"]),  # used to take no step and exit 0
        ("solve", ["--t-start", "nan"]),  # used to exit 3
        ("convergence", ["--t-start", "inf"]),
        ("convergence", ["--t-start", "nan"]),
        ("solve", ["--tol", "nan"]),  # used to accept every run
    ])
    def test_non_finite_setting_is_config_error(self, tmp_path, catalog, capsys,
                                                command, bad):
        out = tmp_path / "out"
        assert main([command, "--m", "2", "--catalog", catalog(CATALOG_M2),
                     "--x-min", "2", "--x-max", "4", "--t-end", "0.02", *bad,
                     "--out-dir", str(out)]) == 4
        assert capsys.readouterr().err.startswith("config error:")
        assert not out.exists()

    @pytest.mark.parametrize("bad", [["--order-window", "2.2", "1.8"],
                                     ["--ladder", "32,32,64"],
                                     ["--t-end", "0"],
                                     ["--ladder", "64,32,128"]])
    def test_bad_convergence_setting_is_config_error(self, tmp_path, catalog, bad):
        out = tmp_path / "out"
        assert main(["convergence", "--m", "2", "--catalog", catalog(CATALOG_M2),
                     "--x-min", "2", "--x-max", "4", "--t-end", "0.02", *bad,
                     "--out-dir", str(out)]) == 4
        assert not out.exists()


@pytest.mark.parametrize("doc", [
    {"kind": "heat_polynomial", "degree": 1},  # an object, not a list
    [1],
    [{"kind": "sum", "terms": [{"coeff": "1", "term": "constant"}]}],
    [{"kind": "heat_polynomial", "degree": 2.5}],
], ids=["object", "int-entry", "string-term", "float-degree"])
@pytest.mark.parametrize("command", [
    ["exact"],
    ["solve", "--x-min", "2", "--x-max", "4", "--t-end", "0.01"],
    ["convergence", "--x-min", "2", "--x-max", "4", "--t-end", "0.01"],
], ids=["exact", "solve", "convergence"])
def test_malformed_catalog_shape_is_config_error(tmp_path, catalog, command, doc, capsys):
    out = tmp_path / "out"
    assert main([*command, "--m", "1", "--catalog", catalog(doc),
                 "--out-dir", str(out)]) == 4
    assert capsys.readouterr().err.startswith("config error:")
    assert not out.exists()


class TestReport:
    def test_summary(self, tmp_path, capsys):
        assert main(["verify", "kappa", "--m", "1", "--out-dir", str(tmp_path)]) == 0
        assert main(["report", "--dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "verify_kappa_m1.json: ok" in out

    def test_json_format(self, tmp_path, capsys):
        main(["verify", "kappa", "--m", "1", "--out-dir", str(tmp_path)])
        capsys.readouterr()  # discard the verify progress line
        assert main(["report", "--dir", str(tmp_path), "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["verify_kappa_m1.json"] == "ok"

    def test_non_object_json_is_data(self, tmp_path, catalog, capsys):
        catalog(CATALOG_M2)
        catalog(3, name="number.json")
        assert main(["report", "--dir", str(tmp_path)]) == 0
        assert capsys.readouterr().out.splitlines() == ["catalog.json: data", "number.json: data"]

    @pytest.mark.parametrize("cert", ["yes", None, [True], {"passed": "yes"}, {}])
    def test_malformed_certification_is_failed(self, tmp_path, capsys, cert):
        (tmp_path / "exact.json").write_text(json.dumps({"certification": cert}))
        assert main(["report", "--dir", str(tmp_path)]) == 2
        captured = capsys.readouterr()
        assert captured.out.splitlines() == ["exact.json: failed"]
        assert "Traceback" not in captured.err

    def test_bad_directory(self):
        assert main(["report", "--dir", "/nonexistent-dir-xyz"]) == 4

    @pytest.mark.parametrize("entry", ["directory", "latin-1", "invalid JSON"])
    def test_unreadable_entry_is_skipped(self, tmp_path, capsys, entry):
        (tmp_path / "ok.json").write_text(json.dumps({"status": "ok"}))
        bad = tmp_path / "x.json"
        if entry == "directory":
            bad.mkdir()
        else:
            bad.write_bytes('{"status": "ok", "note": "é"}'.encode("latin-1")
                            if entry == "latin-1" else b'{"status": ')
        assert main(["report", "--dir", str(tmp_path)]) == 0
        captured = capsys.readouterr()
        assert captured.out.splitlines() == ["ok.json: ok"]
        assert captured.err == "skipping unreadable x.json\n"


def test_parser_is_built_once_and_keeps_no_state(tmp_path, catalog):
    build_parser.cache_clear()
    exact = ["exact", "--m", "2", "--catalog", catalog(CATALOG_M2), "--points", "5", "--no-meta"]
    assert main(exact + ["--box", "0.1", "1.0", "1.5", "3.0", "--out-dir", str(tmp_path / "box")]) == 0
    assert main(exact + ["--out-dir", str(tmp_path / "default")]) == 0
    assert main(["verify", "theorem", "--m", "1", "--no-meta",
                 "--out-dir", str(tmp_path / "verify")]) == 0
    assert build_parser.cache_info().misses == 1
    # a freshly built parser gives the same bytes as the reused one
    build_parser.cache_clear()
    assert main(exact + ["--out-dir", str(tmp_path / "fresh")]) == 0
    for name in ("exact_m2.json", "exact_m2.csv"):
        assert (tmp_path / "default" / name).read_bytes() == (tmp_path / "fresh" / name).read_bytes()
    assert (tmp_path / "box" / "exact_m2.csv").read_bytes() != \
        (tmp_path / "default" / "exact_m2.csv").read_bytes()
    assert build_parser().parse_args(exact).box == (0.1, 1.0, -3.0, 3.0)
    assert not hasattr(build_parser().parse_args(["verify", "theorem", "--m", "1"]), "box")


def test_unknown_subcommand_is_config_error():
    assert main(["frobnicate"]) == 4


@pytest.mark.parametrize("command", [
    ["verify", "theorem", "--m", "1"],
    ["exact", "--m", "2", "--catalog"],
], ids=["verify", "exact"])
@pytest.mark.parametrize("under", [(), ("sub",)], ids=["file", "below-file"])
def test_out_dir_that_is_a_file_is_config_error(tmp_path, catalog, capsys, command, under):
    path = catalog(CATALOG_M2)
    blocker = tmp_path / "blocker"
    blocker.write_text("")
    argv = [*command, path] if command[0] == "exact" else command
    assert main([*argv, "--out-dir", str(blocker.joinpath(*under))]) == 4
    assert capsys.readouterr().err.startswith("config error:")
    assert blocker.read_text() == ""
    assert sorted(p.name for p in tmp_path.iterdir()) == ["blocker", "catalog.json"]


def test_out_that_is_a_directory_leaves_no_temporary_file(tmp_path, capsys):
    target = tmp_path / "target"
    target.mkdir()
    assert main(["gen", "--m", "1", "--out", str(target)]) == 4
    assert capsys.readouterr().err.startswith("config error:")
    assert [p.name for p in tmp_path.iterdir()] == ["target"]
    assert not any(target.iterdir())


IMPORT_BOUNDARY = textwrap.dedent("""
    import sys

    import burgers_hierarchy
    from burgers_hierarchy.cli import main

    out, catalog = sys.argv[1], sys.argv[2]
    runs = [["verify", kind, "--m", "1..2", "--out-dir", out]
            for kind in ("theorem", "classical", "liealg", "kappa")]
    runs += [["gen", "--m", "2"],
             ["exact", "--m", "2", "--catalog", catalog, "--certify", "--points", "3",
              "--out-dir", out],
             ["report", "--dir", out]]
    for argv in runs:
        assert main(argv) == 0, argv
    loaded = sorted(m for m in sys.modules if m.split(".")[0] in ("numpy", "scipy"))
    assert not loaded, loaded
    assert main(["solve", "--m", "2", "--catalog", catalog, "--x-min", "2", "--x-max", "4",
                 "--nx", "21", "--t-end", "0.01", "--out-dir", out]) == 0
""")


def test_symbolic_commands_do_not_import_the_solver(tmp_path, catalog):
    # the exact engine never needs numpy or scipy; only solve and
    # convergence load fdsolve.  sys.modules is process-wide, so the check
    # runs in a fresh interpreter.
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", IMPORT_BOUNDARY, str(tmp_path / "out"), catalog(CATALOG_M2)],
        capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
