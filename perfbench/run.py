"""Benchmark driver: run passes of one workload and report its metrics.

    python3 perfbench/run.py --workload verify-sweep --seed 1 --seconds 40 --trace 0

Run from the repository root.  Each pass runs in a fresh interpreter
(``one_pass.py``), because every invocation of the toolkit pays for its
imports and rebuilds its caches.  Passes repeat while another one still
fits in ``--seconds``; an untraced run makes at least three.  With
``--trace 0`` the last line of standard output is a JSON object with the
end-to-end metrics (medians over passes); with ``--trace 1`` the driver
alternates untraced and traced passes and reports the per-layer metrics
of ``tracing.py`` instead.  Workloads, jobs
and the layer-to-metric map are described in ``README.md``.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
RUN_LIMIT_S = 170  # hard limit for one run, passes included
MIN_PASSES = 3  # untraced runs report medians of at least three passes

sys.path.insert(0, str(HERE))
import tracing  # noqa: E402
import workloads as wl  # noqa: E402

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "max_job_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "ok_frac": "ratio",
}


def git_sha() -> str:
    """HEAD of the enclosing git checkout, read without starting git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def src_lines() -> int:
    return sum(len(p.read_text().splitlines()) for p in sorted(SRC.rglob("*.py")))


def child_env() -> dict:
    env = dict(os.environ)
    # one client process: cap native thread pools at one thread
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def run_pass(workload: str, seed: int, trace: int, index: int, timeout: float) -> dict:
    workdir = WORK / f"{workload}-{seed}-{index}"
    result = WORK / f"{workload}-{seed}-{index}.json"
    shutil.rmtree(workdir, ignore_errors=True)
    cmd = [sys.executable, str(HERE / "one_pass.py"), "--workload", workload,
           "--seed", str(seed), "--trace", str(trace),
           "--workdir", str(workdir), "--result", str(result)]
    t_spawn = time.monotonic()
    try:
        proc = subprocess.run(cmd, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                              text=True, env=child_env(), timeout=timeout)
        if proc.returncode != 0:
            raise RuntimeError(f"pass {index} exited {proc.returncode}:\n{proc.stderr[-4000:]}")
        doc = json.loads(result.read_text())
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        result.unlink(missing_ok=True)
    doc["setup_s"] = doc["ready"] - t_spawn
    doc["max_job_s"] = max(j["seconds"] for j in doc["jobs"])
    return doc


def median(values) -> float:
    return statistics.median(values) if values else 0.0


def cell_steps_per_s(passes: list[dict]) -> float:
    return median([p["cell_steps"] / p["solver_s"] for p in passes if p["solver_s"] > 0])


def theorem_wall(doc: dict) -> float:
    return sum(j["seconds"] for j in doc["jobs"] if j["kind"] == "theorem")


def end_to_end(passes: list[dict], classes: dict) -> dict:
    attempted = sum(classes.values())
    metrics = {k: median([p[k] for p in passes]) for k in END_TO_END if k != "ok_frac"}
    metrics["ok_frac"] = classes.get("ok", 0) / attempted
    return metrics


def per_layer(untraced: list[dict], traced: list[dict]) -> dict:
    layers = [p["layers"] for p in traced]
    metrics = {k: median([lay[k] for lay in layers]) for k in layers[0] if not k.startswith("_")}
    metrics["fdsolve.cell_steps_per_s"] = cell_steps_per_s(untraced)
    plain_theorem = median([theorem_wall(p) for p in untraced])
    traced_theorem = median([theorem_wall(p) for p in traced])
    self_s = median([lay["_theorem_subst_self_s"] for lay in layers])
    incl_s = median([lay["_theorem_subst_incl_s"] for lay in layers])
    metrics["theorem.subst_self_share"] = self_s / plain_theorem if plain_theorem else 0.0
    metrics["theorem.subst_incl_share"] = incl_s / traced_theorem if traced_theorem else 0.0
    metrics["trace.untraced_wall_s"] = median([p["wall_s"] for p in untraced])
    metrics["trace.traced_wall_s"] = median([p["wall_s"] for p in traced])
    metrics["trace.overhead_s"] = metrics["trace.traced_wall_s"] - metrics["trace.untraced_wall_s"]
    return metrics


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    if not (SRC / "burgers_hierarchy" / "__init__.py").is_file():
        print(f"error: no program source at {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    # build step: byte-compile once, so no pass pays for compiling sources
    if not compileall.compile_dir(str(SRC), quiet=1):
        print("error: the program sources do not compile", file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)

    t0 = time.monotonic()
    untraced: list[dict] = []
    traced: list[dict] = []
    min_rounds = 1 if args.trace else MIN_PASSES
    try:
        while True:
            for trace, passes in ((0, untraced), (1, traced))[:1 + args.trace]:
                timeout = t0 + RUN_LIMIT_S - time.monotonic()
                passes.append(run_pass(args.workload, args.seed, trace,
                                       len(untraced) + len(traced), timeout))
            elapsed = time.monotonic() - t0
            rounds = len(untraced)
            # stop when another round would overrun --seconds, or the hard
            # limit while still short of the minimum number of rounds
            limit = args.seconds if rounds >= min_rounds else RUN_LIMIT_S
            if elapsed + elapsed / rounds > limit:
                break
    except (RuntimeError, subprocess.TimeoutExpired, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    classes: dict[str, int] = {}
    for p in untraced + traced:
        for job in p["jobs"]:
            classes[job["class"]] = classes.get(job["class"], 0) + 1
    attempted = sum(classes.values())
    failed = attempted - classes.get("ok", 0)

    record = {
        "git_sha": git_sha(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": untraced[0]["versions"]["numpy"],
        "scipy": untraced[0]["versions"]["scipy"],
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "passes": len(untraced) + len(traced),
        "jobs_per_pass": len(untraced[0]["jobs"]),
        "src_lines": src_lines(),
        "failure_classes": classes,
    }
    print("record " + json.dumps(record, sort_keys=True))
    for i, p in enumerate(untraced + traced):
        print(f"pass {i} ({'traced' if 'layers' in p else 'untraced'}): setup_s={p['setup_s']:.4f} "
              f"wall_s={p['wall_s']:.4f} max_job_s={p['max_job_s']:.4f} cpu_s={p['cpu_s']:.4f}")
    for p in untraced + traced:
        for job in p["jobs"]:
            if job["class"] != "ok":
                print(f"failed job: {job['name']}: {job['class']}")

    if args.trace:
        metrics = per_layer(untraced, traced)
        units = tracing.per_layer_units()
    else:
        metrics = end_to_end(untraced, classes)
        units = END_TO_END
        slowest = max(untraced[0]["jobs"], key=lambda j: j["seconds"])
        print(f"slowest job of pass 0: {slowest['name']} ({slowest['seconds']:.4f} s)")
        if untraced[0]["cell_steps"]:
            print(f"fd_cell_steps_per_s = {cell_steps_per_s(untraced):.6g} 1/s "
                  f"(median over {len(untraced)} passes)")
    for name in units:
        print(f"{name} = {metrics[name]:.6g} {units[name]}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
