"""One pass of a workload in a fresh interpreter.

    python3 perfbench/one_pass.py --workload NAME --seed N --trace 0|1 \
        --workdir DIR --result FILE

Imports the package, builds the seeded inputs, signals readiness by the
monotonic clock (shared with the parent on Linux), runs every job in order,
then checks every outcome against the references and writes one JSON
result.  Outcomes are classed as ok, wrong, exit2, exit3, exit4 or
exception:<type>; no job outcome stops the pass.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

# set-up cost a user pays: numpy, scipy and the package (fdsolve pulls in
# scipy.linalg and scipy.sparse)
import numpy  # noqa: E402
import scipy  # noqa: E402
from burgers_hierarchy import fdsolve  # noqa: E402

import tracing  # noqa: E402
import workloads as wl  # noqa: E402


def _cpu_s() -> float:
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        ru = resource.getrusage(who)
        total += ru.ru_utime + ru.ru_stime
    return total


def _peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux
    peak = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
               resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return peak / 1024.0


def run_job(job: wl.Job):
    """(outcome, None), or (None, exception) for a job that raised."""
    try:
        return job.run(), None
    except Exception as exc:  # recorded as a failure class, never fatal
        return None, exc


def classify(outcome, raised: BaseException | None, job: wl.Job) -> str:
    if raised is not None:
        return f"exception:{type(raised).__name__}"
    if isinstance(outcome, int) and outcome != 0:
        return f"exit{outcome}"
    try:
        return "ok" if job.check(outcome) else "wrong"
    except Exception as exc:  # a check that cannot read the output is a wrong output
        return f"wrong:{type(exc).__name__}"


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--result", required=True)
    args = ap.parse_args()

    workdir = Path(args.workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    jobs = wl.BUILDERS[args.workload](args.seed, workdir)

    solver_s = [0.0]
    solve_ivp = fdsolve.solve_ivp

    def timed_solve_ivp(*a, **k):
        t0 = time.perf_counter()
        try:
            return solve_ivp(*a, **k)
        finally:
            solver_s[0] += time.perf_counter() - t0

    fdsolve.solve_ivp = timed_solve_ivp

    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracing.install(tracer)
    ready = time.monotonic()

    outcomes = []
    times = []
    cpu0 = _cpu_s()
    t_pass = time.perf_counter()
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
        for i, job in enumerate(jobs):
            if tracer is not None:
                tracer.current_job = i
            t0 = time.perf_counter()
            outcomes.append(run_job(job))
            times.append(time.perf_counter() - t0)
    wall = time.perf_counter() - t_pass
    cpu = _cpu_s() - cpu0

    result = {
        "ready": ready,
        "wall_s": wall,
        "cpu_s": cpu,
        "peak_rss_mb": _peak_rss_mb(),
        "solver_s": solver_s[0],
        "cell_steps": sum(j.cell_steps for j in jobs),
        "versions": {"numpy": numpy.__version__, "scipy": scipy.__version__},
        "jobs": [
            {"name": job.name, "kind": job.kind, "seconds": dt,
             "class": classify(outcome, raised, job)}
            for job, dt, (outcome, raised) in zip(jobs, times, outcomes)
        ],
    }
    if tracer is not None:
        theorem_jobs = {i for i, job in enumerate(jobs) if job.kind == "theorem"}
        result["layers"] = tracing.layer_metrics(tracer, theorem_jobs)
        tracer.save(workdir.parent / f"spans-{args.workload}-{args.seed}.npz")
    Path(args.result).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
