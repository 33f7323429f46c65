"""Seeded inputs, job lists and correctness checks of the three workloads.

Every workload is a closed loop with one client: a pass runs its jobs one
after another in one fresh interpreter, and each job starts only when the
previous one has finished.  The seed never reaches the program; it only
chooses the generated inputs (job order, catalog and Fourier-data draws).

Seeded draws come from fixed pools of 16 members per slot.  Each member is
drawn from the input grammar with its own pool seed, so the draw is still a
draw from the grammar, and the reference outputs of every member were
produced once by ``make_reference.py`` from the program's seed commit.  A
run seed picks one member per slot.  The slots fix the structure (kinds and
polynomial degrees) that sets a job's cost and draw the parameters, so the
cost of a pass moves little from seed to seed.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

HERE = Path(__file__).resolve().parent
REFERENCE = HERE / "reference"
POOL_SIZE = 16

WORKLOADS = ("verify-sweep", "exact-certify", "fd-validate")


@dataclass
class Job:
    """One user-visible unit of work.

    ``run`` does the work and returns an outcome (a CLI exit code or a
    library result); ``check`` turns the outcome into a correctness verdict
    after the pass, outside the timed region.
    """

    name: str
    kind: str
    run: Callable[[], object]
    check: Callable[[object], bool]
    cell_steps: int = 0


def sha256(data: bytes | str) -> str:
    if isinstance(data, str):
        data = data.encode()
    return hashlib.sha256(data).hexdigest()


def load_reference(name: str):
    return json.loads((REFERENCE / name).read_text())


# ---------------------------------------------------------------------------
# verify-sweep

VERIFY_JOBS = ([("theorem", m) for m in range(1, 13)]
               + [("classical", m) for m in range(1, 13)]
               + [("liealg", m) for m in range(1, 13)]
               + [("kappa", m) for m in range(1, 5)])


def verify_artifact(kind: str, m: int) -> str:
    return f"verify_{kind}_m{m}.json"


def verify_sweep_jobs(seed: int, workdir: Path) -> list[Job]:
    from burgers_hierarchy import cli

    reference = load_reference("verify.json")
    order = list(VERIFY_JOBS)
    random.Random(seed).shuffle(order)
    jobs = []
    for kind, m in order:
        artifact = workdir / verify_artifact(kind, m)
        argv = ["verify", kind, "--m", str(m), "--no-meta", "--out-dir", str(workdir)]
        expected = reference[artifact.name]
        jobs.append(Job(
            name=f"{kind} m={m}",
            kind=kind,
            run=lambda argv=argv: cli.main(argv),
            check=lambda rc, artifact=artifact, expected=expected:
                rc == 0 and artifact.is_file() and sha256(artifact.read_bytes()) == expected,
        ))
    return jobs


# ---------------------------------------------------------------------------
# exact-certify: catalog grammar and draws


def hp(n: int) -> dict:
    return {"kind": "heat_polynomial", "degree": n}


def const(v: str) -> dict:
    return {"kind": "constant", "value": v}


def expo(a: str, sign: int) -> dict:
    return {"kind": "exponential", "a": a, "sign": sign}


def trig(a: str, func: str) -> dict:
    return {"kind": "trig", "a": a, "func": func}


def gauss(t0: str) -> dict:
    return {"kind": "gaussian", "t0": t0}


def hsum(*terms: tuple[str, dict]) -> dict:
    return {"kind": "sum", "terms": [{"coeff": c, "term": t} for c, t in terms]}


# The acceptance catalogs: traveling wave, exp(t)cosh(x) written in the
# grammar as (exp(t+x) + exp(t-x))/2, the rational pair, heat polynomials.
ACCEPTANCE = {
    "wave": [hsum(("1", const("1")), ("1", expo("1", -1)))],
    "cosh": [hsum(("1/2", expo("1", 1)), ("1/2", expo("1", -1)))],
    "pair": [hp(1), hp(2)],
    "heatpoly-m3": [hp(1), hp(2), hp(3)],
    "heatpoly-m4": [hp(1), hp(2), hp(3), hp(4)],
}


def _coeff(rng: random.Random) -> str:
    return str(Fraction(rng.choice([1, -1]) * rng.choice([1, 2, 3, 5]),
                        rng.choice([1, 2, 3, 4])))


def _scaled_polys(rng: random.Random, degrees: tuple[int, ...]) -> list[dict]:
    """Heat polynomials of fixed degrees, each scaled by a drawn rational.
    Adding a second polynomial to an entry instead makes the symbolic
    residuals explode, far beyond the other jobs' cost."""
    return [hsum((_coeff(rng), hp(d))) for d in degrees]


def _elementary_profiles(rng: random.Random, count: int) -> list[dict]:
    """Heat solutions with pairwise distinct x-profiles (e^{+-ax},
    sin(ax), cos(ax)), which keeps the drawn system nonsingular, each
    scaled by a drawn rational.  Adding a constant to an entry makes some
    draws cost a hundred times more than others."""
    profiles = ([("exponential", a, s) for a in ("1", "2", "1/2", "3/2") for s in (1, -1)]
                + [("trig", a, f) for a in ("1", "2", "1/2") for f in ("sin", "cos")])
    return [hsum((_coeff(rng), expo(a, extra) if kind == "exponential" else trig(a, extra)))
            for kind, a, extra in rng.sample(profiles, count)]


def _draw_numeric_m2(rng):
    return _scaled_polys(rng, (16, 19))


def _draw_numeric_m4(rng):
    return _scaled_polys(rng, (6, 8, 9, 11))


def _draw_gaussian(rng):
    t0a, t0b = rng.sample(["1/2", "1", "3/2", "2", "5/2", "3"], 2)
    return [gauss(t0a), hsum(("1", gauss(t0b)), (_coeff(rng), const("1")))]


def _draw_elementary(rng):
    return _elementary_profiles(rng, 3)


# slot name -> draw; numeric-m2 and numeric-m4 exceed the size**3 * m
# threshold of certify (numeric mode), gaussian uses substitution rules.
DRAW_SLOTS = {
    "numeric-m2": _draw_numeric_m2,
    "numeric-m4": _draw_numeric_m4,
    "gaussian": _draw_gaussian,
    "elementary-m3": _draw_elementary,
}


def pool_member(slot: str, index: int) -> list[dict]:
    return DRAW_SLOTS[slot](random.Random(f"{slot}/{index}"))


def catalog_key(catalog: list[dict]) -> str:
    return json.dumps(catalog, sort_keys=True, separators=(",", ":"))


def exact_catalogs(seed: int) -> list[tuple[str, list[dict]]]:
    """The pass's catalogs in run order: the acceptance set, then one pool
    member per draw slot.  The order stays fixed because a job's cost
    depends on the heap that earlier jobs left behind."""
    rng = random.Random(seed)
    named = list(ACCEPTANCE.items())
    for slot in DRAW_SLOTS:
        index = rng.randrange(POOL_SIZE)
        named.append((f"{slot}#{index}", pool_member(slot, index)))
    return named


def exact_record(doc: dict) -> dict:
    return {
        "determinant": sha256(doc["determinant"]),
        "numerators": [sha256(c["numerator"]) for c in doc["components"]],
    }


def exact_certify_jobs(seed: int, workdir: Path) -> list[Job]:
    from burgers_hierarchy import cli

    reference = load_reference("exact.json")
    jobs = []
    for i, (name, catalog) in enumerate(exact_catalogs(seed)):
        m = len(catalog)
        jobdir = workdir / f"job{i:02d}"
        jobdir.mkdir(parents=True)
        path = jobdir / "catalog.json"
        path.write_text(json.dumps(catalog))
        argv = ["exact", "--m", str(m), "--catalog", str(path), "--certify",
                "--no-meta", "--out-dir", str(jobdir)]
        expected = {k: reference[catalog_key(catalog)][k] for k in ("determinant", "numerators")}
        artifact = jobdir / f"exact_m{m}.json"

        def check(rc, artifact=artifact, expected=expected):
            if rc != 0 or not artifact.is_file():
                return False
            doc = json.loads(artifact.read_text())
            cert = doc.get("certification") or {}
            return cert.get("passed") is True and exact_record(doc) == expected

        jobs.append(Job(name=f"exact {name} (m={m})", kind="exact",
                        run=lambda argv=argv: cli.main(argv), check=check))
    return jobs


# ---------------------------------------------------------------------------
# fd-validate

LINF_BOUND = 1e-3            # acceptance criterion 7 at nx=400
ORDER_WINDOW = (1.8, 2.2)    # acceptance criterion 7 observed L2 orders
PERIODIC_RTOL = 1e-8
PERIODIC = {"m": 2, "nx": 512, "dt": 1e-3, "t_end": 0.2, "modes": 3}
PERIODIC_JOBS = 2


def periodic_grid():
    from burgers_hierarchy import fdsolve

    nx = PERIODIC["nx"]
    # nx points with spacing dx wrap around with period nx*dx = 2*pi
    x_max = 2 * math.pi * (nx - 1) / nx
    return fdsolve.Grid1D(0.0, x_max, nx, PERIODIC["dt"], PERIODIC["t_end"],
                          boundary="periodic")


def periodic_initial(index: int):
    """Smooth Fourier data for pool member ``index`` on the periodic grid."""
    import numpy as np

    rng = random.Random(f"periodic/{index}")
    xs = periodic_grid().xs()
    rows = []
    for _ in range(PERIODIC["m"]):
        u = np.full_like(xs, rng.uniform(-0.2, 0.2))
        for k in range(1, PERIODIC["modes"] + 1):
            u += rng.uniform(-0.3, 0.3) / k * np.cos(k * xs)
            u += rng.uniform(-0.3, 0.3) / k * np.sin(k * xs)
        rows.append(u)
    return np.array(rows)


def run_periodic(initial):
    from burgers_hierarchy import fdsolve

    grid = periodic_grid()
    state = fdsolve.GridField(initial, 0.0)
    return fdsolve.solve_ivp(PERIODIC["m"], state, grid, [grid.t_end])[-1].values


def _steps(t_end: float, dt: float) -> int:
    return math.ceil(t_end / dt - 1e-9)


def fd_validate_jobs(seed: int, workdir: Path) -> list[Job]:
    import numpy as np
    from burgers_hierarchy import fdsolve, hopfcole

    wave = hopfcole.solve_exact(1, hopfcole.catalog_from_json(ACCEPTANCE["wave"]))
    pair = hopfcole.solve_exact(2, hopfcole.catalog_from_json(ACCEPTANCE["pair"]))

    def dirichlet(sol, m, x_min, x_max, nx, dt, t_end):
        def run():
            grid = fdsolve.Grid1D(x_min, x_max, nx, dt, t_end)
            initial = fdsolve.field_from_exact(sol, grid, 0.0)
            bc = fdsolve.make_boundary(sol, grid)
            final = fdsolve.solve_ivp(m, initial, grid, [t_end], bc)[-1]
            target = fdsolve.field_from_exact(sol, grid, t_end)
            return fdsolve.error_norms(final, target, grid.dx)
        return run

    jobs = [
        Job("wave nx=400", "dirichlet", dirichlet(wave, 1, -10.0, 10.0, 400, 1e-4, 0.5),
            check=lambda norms: norms[1] < LINF_BOUND, cell_steps=400 * _steps(0.5, 1e-4)),
        Job("wave nx=1600", "dirichlet", dirichlet(wave, 1, -10.0, 10.0, 1600, 1e-4, 0.5),
            check=lambda norms: norms[1] < LINF_BOUND, cell_steps=1600 * _steps(0.5, 1e-4)),
    ]
    # convergence_study's default dt is 0.25 * dx**2
    ladder, x_min, x_max, t_end = [100, 200, 400], 2.0, 4.0, 0.1
    ladder_steps = sum(nx * 2 * _steps(t_end, 0.25 * ((x_max - x_min) / (nx - 1)) ** 2)
                       for nx in ladder)
    lo, hi = ORDER_WINDOW
    jobs.append(Job(
        "pair ladder 100,200,400", "ladder",
        run=lambda: fdsolve.convergence_study(2, pair, ladder, x_min, x_max, t_end),
        check=lambda rep: len(rep.orders_l2) == 2 and all(lo <= p <= hi for p in rep.orders_l2),
        cell_steps=ladder_steps,
    ))

    reference = np.load(REFERENCE / "periodic.npz")
    rng = random.Random(seed)
    periodic_steps = PERIODIC["nx"] * PERIODIC["m"] * _steps(PERIODIC["t_end"], PERIODIC["dt"])
    for index in rng.sample(range(POOL_SIZE), PERIODIC_JOBS):
        initial = periodic_initial(index)
        expected = reference[f"p{index:02d}"]

        def check(values, expected=expected):
            scale = float(np.max(np.abs(expected)))
            return bool(np.all(np.isfinite(values))) and \
                float(np.max(np.abs(values - expected))) <= PERIODIC_RTOL * scale

        jobs.append(Job(f"periodic #{index} nx={PERIODIC['nx']}", "periodic",
                        run=lambda initial=initial: run_periodic(initial),
                        check=check, cell_steps=periodic_steps))
    return jobs


BUILDERS = {
    "verify-sweep": verify_sweep_jobs,
    "exact-certify": exact_certify_jobs,
    "fd-validate": fd_validate_jobs,
}
