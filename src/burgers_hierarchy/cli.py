"""Batch command-line front-end.

Subcommands: ``gen``, ``verify``, ``exact``, ``solve``, ``convergence``,
``report``.  Data artifacts (JSON/CSV) are deterministic for a given
configuration, except the ``meta`` key of ``verify`` artifacts, which
holds the wall-clock time of the verdict (``--no-meta`` omits it).  Only
``solve`` and ``convergence`` load the finite-difference solver (and with
it numpy and scipy).

Exit codes: 0 success, 2 verification failure, 3 numerical failure,
4 configuration error.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
import time
from pathlib import Path

from . import hopfcole, liealg, prolong
from .hierarchy import build_companion, build_delta, build_symmetry_field

EXIT_OK = 0
EXIT_VERIFICATION = 2
EXIT_NUMERICAL = 3
EXIT_CONFIG = 4

OUTDIR_ENV = "BURGERS_HIERARCHY_OUTDIR"


class ConfigError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse default exits 2; config errors are 4
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_CONFIG)


# ---------------------------------------------------------------------------
# deterministic writers


def _atomic_write(path: Path, data: str):
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    try:
        tmp.write_text(data)
        os.replace(tmp, path)
    finally:  # a failed write or rename leaves no partial file behind
        tmp.unlink(missing_ok=True)


def write_json(path: Path, obj):
    _atomic_write(path, json.dumps(obj, sort_keys=True, indent=2) + "\n")


def write_csv(path: Path, header: list[str], rows):
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(repr(float(v)) for v in row))
    _atomic_write(path, "\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# shared option plumbing


def _parse_m_range(text: str, cap: int) -> list[int]:
    try:
        if ".." in text:
            lo, hi = text.split("..", 1)
            ms = list(range(int(lo), int(hi) + 1))
        else:
            ms = [int(text)]
    except ValueError as exc:
        raise ConfigError(f"bad m range {text!r}") from exc
    if not ms:
        raise ConfigError(f"empty m range {text!r}")
    if any(m < 1 for m in ms):
        raise ConfigError("m must be >= 1")
    if any(m > cap for m in ms):
        raise ConfigError(f"m range {text!r} exceeds the cap {cap}, set by --max-m")
    return ms


def _comma_separated(kind, noun: str):
    """An argparse type for a comma-separated list of ``kind`` values."""
    def parse(text: str) -> list:
        try:
            return [kind(v) for v in text.split(",")]
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"expected comma-separated {noun}, got {text!r}") from None
    return parse


def _outdir(args) -> Path:
    if getattr(args, "out_dir", None):
        return Path(args.out_dir)
    return Path(os.environ.get(OUTDIR_ENV, "."))


def _load_catalog(path: str, m: int) -> hopfcole.ExactSolution:
    """The exact solution of the m-entry heat-data catalog at ``path``."""
    try:
        doc = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(f"catalog is not valid JSON: {exc}") from exc
    try:
        vs = hopfcole.catalog_from_json(doc)
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        raise ConfigError(f"bad catalog: {exc}") from exc
    if len(vs) != m:
        raise ConfigError(f"catalog has {len(vs)} entries, need m={m}")
    return hopfcole.solve_exact(m, vs)


# ---------------------------------------------------------------------------
# subcommands


def cmd_gen(args) -> int:
    system = build_delta(args.m)
    field = build_symmetry_field(args.m)
    omega = build_companion(args.m)
    if args.format == "json":
        payload = {
            "system": system.to_json_dict(),
            "companion_matrix": [[e.render() for e in row] for row in omega],
            "symmetry_field": field.to_json_dict(),
        }
        text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    else:
        noun = "component" if args.m == 1 else "components"
        lines = [f"system ({args.m} {noun}, tier {system.tier}):"]
        lines += [f"  {r} = 0" for r in system.residuals]
        lines.append("companion matrix:")
        lines += ["  [" + ", ".join(str(e) for e in row) + "]" for row in omega]
        lines.append("conditional symmetry field (tau = 1):")
        lines.append(f"  xi  = {field.xi}")
        lines += [f"  eta{a} = {e}" for a, e in enumerate(field.etas, start=1)]
        text = "\n".join(lines) + "\n"
    if args.out:
        _atomic_write(Path(args.out), text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


# each verify kind maps m to its artifact and raises when its verdict fails;
# the calls stay late-bound, so a module attribute patched after import runs
_VERIFY_KINDS = {
    "theorem": lambda m: prolong.verify_theorem(m),
    "classical": lambda m: prolong.verify_classical(m),
    "liealg": lambda m: liealg.structure_constants(m).to_json_dict(),
    "kappa": lambda m: {"m": m, "constraint": prolong.verify_kappa_constraint(m).render(),
                        "divisible_by": prolong.kappa_factor(m)[1]},
}


def cmd_verify(args) -> int:
    ms = _parse_m_range(args.m, args.max_m)
    outdir = _outdir(args)
    failures = []
    results: dict[int, dict] = {}
    for m in ms:
        t0 = time.perf_counter()
        try:
            doc = _VERIFY_KINDS[args.kind](m)
        except (prolong.VerificationError, liealg.NonClosureError,
                prolong.ExtractionError) as exc:
            failures.append(str(exc))
            continue
        doc["status"] = "ok"  # a failed verdict raises; liealg's cross-check is below
        if not args.no_meta:
            doc["meta"] = {"wall_time_ms": round((time.perf_counter() - t0) * 1000.0, 3)}
        results[m] = doc

    if args.kind == "liealg" and len(results) > 1:
        first = min(results)
        ref = results[first]["brackets"]
        for m, doc in results.items():
            doc["identical_to_first"] = doc["brackets"] == ref
            if not doc["identical_to_first"]:
                doc["status"] = "failed"
                failures.append(f"m={m}: structure constants differ from m={first}")

    for m, doc in sorted(results.items()):
        write_json(outdir / f"verify_{args.kind}_m{m}.json", doc)
        print(f"verify {args.kind} m={m}: {doc['status']}")
    for msg in failures:
        print(f"FAIL: {msg}", file=sys.stderr)
    return EXIT_VERIFICATION if failures else EXIT_OK


def cmd_exact(args) -> int:
    if args.points < 0:
        raise ConfigError(f"--points must be >= 0, got {args.points}")
    sol = _load_catalog(args.catalog, args.m)
    outdir = _outdir(args)
    doc = sol.to_json_dict()
    if args.certify:
        report = hopfcole.certify(sol)
        doc["certification"] = report.to_json_dict()
        print(f"exact m={args.m}: certified ({report.mode})")
    # sample before writing, so a bad box leaves no output behind
    points = hopfcole.sample_points(sol, args.points, tuple(args.box), args.seed)
    rows = [(t, x, *sol.evaluate(t, x)) for (t, x) in sorted(points)]
    write_json(outdir / f"exact_m{args.m}.json", doc)
    header = ["t", "x"] + [f"u{a}" for a in range(1, args.m + 1)]
    write_csv(outdir / f"exact_m{args.m}.csv", header, rows)
    return EXIT_OK


def cmd_solve(args) -> int:
    from . import fdsolve

    for flag, value in (("--t-start", args.t_start), ("--tol", args.tol)):
        if value is not None and not math.isfinite(value):
            raise ConfigError(f"{flag} must be finite, got {value}")
    offsets = args.snapshots or []
    if any(not 0 <= s <= args.t_end for s in offsets):
        raise ConfigError(f"--snapshots must lie in [0, --t-end={args.t_end}]")
    sol = _load_catalog(args.catalog, args.m)
    # a periodic grid has period x_max - x_min, so its last point is x_max - dx
    x_last = args.x_max - (args.x_max - args.x_min) / args.nx if args.periodic else args.x_max
    grid = fdsolve.Grid1D(args.x_min, x_last, args.nx, args.dt, args.t_end,
                          boundary="periodic" if args.periodic else "dirichlet")
    initial = fdsolve.field_from_exact(sol, grid, args.t_start)
    bc = None if args.periodic else fdsolve.make_boundary(sol, grid)
    snaps = sorted({args.t_start + s for s in offsets} | {args.t_start + args.t_end})
    states = fdsolve.solve_ivp(args.m, initial, grid, snaps, bc)
    outdir = _outdir(args)
    xs = grid.xs()
    header = ["t", "x"] + [f"u{a}" for a in range(1, args.m + 1)]
    errors = []
    for idx, state in enumerate(states):
        rows = [(state.time, xs[i], *state.values[:, i]) for i in range(grid.nx)]
        write_csv(outdir / f"solve_m{args.m}_snap{idx}.csv", header, rows)
        exact_field = fdsolve.field_from_exact(sol, grid, state.time)
        l2, linf = fdsolve.error_norms(state, exact_field, grid.dx)
        errors.append({"t": state.time, "L2": l2, "Linf": linf})
        print(f"solve m={args.m} t={state.time:g}: L2={l2:.3e} Linf={linf:.3e}")
    write_json(outdir / f"solve_m{args.m}_errors.json",
               {"m": args.m, "nx": args.nx, "dt": args.dt, "errors": errors})
    if args.tol is not None and any(e["Linf"] > args.tol for e in errors):
        print(f"FAIL: Linf exceeded tolerance {args.tol}", file=sys.stderr)
        return EXIT_NUMERICAL
    return EXIT_OK


def cmd_convergence(args) -> int:
    from . import fdsolve

    lo, hi = args.order_window
    if not lo <= hi:
        raise ConfigError(f"--order-window needs LO <= HI, got {lo} {hi}")
    if not (math.isfinite(args.dt_scale) and args.dt_scale > 0):
        raise ConfigError(f"--dt-scale must be positive and finite, got {args.dt_scale}")
    sol = _load_catalog(args.catalog, args.m)
    report = fdsolve.convergence_study(
        args.m, sol, args.ladder, args.x_min, args.x_max, args.t_end,
        dt_scale=args.dt_scale, t_start=args.t_start,
    )
    outdir = _outdir(args)
    write_json(outdir / f"convergence_m{args.m}.json", report.to_json_dict())
    orders = ", ".join(f"{p:.3f}" for p in report.orders_l2)
    print(f"convergence m={args.m}: observed L2 orders [{orders}]")
    if report.orders_l2 and not all(lo <= p <= hi for p in report.orders_l2):
        print(f"FAIL: observed order outside [{lo}, {hi}]", file=sys.stderr)
        return EXIT_NUMERICAL
    return EXIT_OK


def cmd_report(args) -> int:
    directory = Path(args.dir)
    if not directory.is_dir():
        raise ConfigError(f"not a directory: {directory}")
    docs = {}
    for path in sorted(directory.glob("*.json")):
        try:
            docs[path.name] = json.loads(path.read_text())
        except (OSError, UnicodeDecodeError, json.JSONDecodeError):
            print(f"skipping unreadable {path.name}", file=sys.stderr)
    summary = {}
    for name, doc in docs.items():
        if not isinstance(doc, dict):  # e.g. a heat-data catalog list
            summary[name] = "data"
            continue
        status = doc.get("status")
        if status is None and "certification" in doc:
            cert = doc["certification"]
            status = "ok" if isinstance(cert, dict) and cert.get("passed") is True else "failed"
        summary[name] = status or "data"
    if args.format == "json":
        sys.stdout.write(json.dumps(summary, sort_keys=True, indent=2) + "\n")
    else:
        for name, status in summary.items():
            print(f"{name}: {status}")
    bad = [n for n, s in summary.items() if s not in ("ok", "data")]
    return EXIT_VERIFICATION if bad else EXIT_OK


# ---------------------------------------------------------------------------
# argument wiring


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process.  Each parse returns a
    fresh namespace, and every default is immutable, so no call leaves
    state behind for the next."""
    parser = _Parser(prog="burgers-hierarchy",
                     description="coupled Burgers-like systems toolkit")
    sub = parser.add_subparsers(dest="command", required=True)
    # parent parsers: each option shared by several subcommands, declared once
    output, catalog, domain, fmt = (argparse.ArgumentParser(add_help=False) for _ in range(4))
    output.add_argument("--out-dir", help=f"output directory (default ${OUTDIR_ENV} or .)")
    output.add_argument("--no-meta", action="store_true",
                        help="omit the meta (timing) object from verify artifacts")
    catalog.add_argument("--m", type=int, required=True)
    catalog.add_argument("--catalog", required=True, help="JSON list of heat-solution records")
    domain.add_argument("--x-min", type=float, required=True)
    domain.add_argument("--x-max", type=float, required=True)
    domain.add_argument("--t-start", type=float, default=0.0)
    domain.add_argument("--t-end", type=float, required=True)
    fmt.add_argument("--format", choices=["text", "json"], default="text")

    p = sub.add_parser("gen", parents=[fmt],
                       help="render a system, its matrix form, and its symmetry field")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--out", help="write to file instead of stdout")
    p.set_defaults(fn=cmd_gen)

    p = sub.add_parser("verify", parents=[output],
                       help="run symbolic verification over a range of m")
    p.add_argument("kind", choices=list(_VERIFY_KINDS))
    p.add_argument("--m", required=True, help="single value or range, e.g. 3 or 1..6")
    p.add_argument("--max-m", type=int, default=32,
                   help="safety cap for the m range (symbolic cost grows fast)")
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("exact", parents=[catalog, output],
                       help="solve the linear system for a heat-data catalog")
    p.add_argument("--certify", action="store_true")
    p.add_argument("--points", type=int, default=100,
                   help="number of rows in exact_m<N>.csv")
    p.add_argument("--box", type=float, nargs=4, default=(0.1, 1.0, -3.0, 3.0),
                   metavar=("TMIN", "TMAX", "XMIN", "XMAX"))
    p.add_argument("--seed", type=int, default=20250)
    p.set_defaults(fn=cmd_exact)

    p = sub.add_parser("solve", parents=[catalog, domain, output],
                       help="finite-difference run validated against the exact solution")
    p.add_argument("--nx", type=int, default=400)
    p.add_argument("--dt", type=float, default=1e-4)
    p.add_argument("--snapshots", type=_comma_separated(float, "numbers"),
                   help="comma-separated offsets in [0, --t-end] from --t-start")
    p.add_argument("--tol", type=float, help="fail (exit 3) if Linf exceeds this")
    p.add_argument("--periodic", action="store_true",
                   help="periodic grid instead of Dirichlet data from the exact solution")
    p.set_defaults(fn=cmd_solve)

    p = sub.add_parser("convergence", parents=[catalog, domain, output],
                       help="refinement ladder and observed order")
    p.add_argument("--ladder", type=_comma_separated(int, "integers"),
                   default=(100, 200, 400))
    p.add_argument("--dt-scale", type=float, default=0.1,
                   help="time step per rung: dt = DT_SCALE * dx")
    p.add_argument("--order-window", type=float, nargs=2, default=(1.8, 2.2))
    p.set_defaults(fn=cmd_convergence)

    p = sub.add_parser("report", parents=[fmt], help="summarize JSON reports in a directory")
    p.add_argument("--dir", required=True)
    p.set_defaults(fn=cmd_report)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_CONFIG
    try:
        return args.fn(args)
    # ArithmeticError covers overflow, a zero determinant hit while
    # evaluating, solver blow-up and CFL failures
    except (hopfcole.SingularSystemError, hopfcole.CertificationError,
            ArithmeticError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    # ConfigError, invalid parameters, and an unreadable catalog or an
    # output path that cannot be written
    except (ValueError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
