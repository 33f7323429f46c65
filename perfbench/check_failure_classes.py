"""Show that a job escaping ``cli.main`` is counted, not fatal.

``exact --m 2 --certify`` on ``[heat_polynomial 30, heat_polynomial 33]``
escapes ``cli.main`` as an uncaught ``OverflowError`` from
``float(Fraction)`` in ``eval_expr``; it should exit 3.  The workload draws
never produce this catalog.  This script runs it through the same job and
classification code as a benchmark pass and prints the recorded class.
Run from the repository root (takes a few seconds):

    python3 perfbench/check_failure_classes.py
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import sys

import one_pass
import workloads as wl
from burgers_hierarchy import cli

EXPECTED = {"exception:OverflowError", "exit3"}


def main() -> int:
    workdir = wl.HERE.parent / ".perfbench_work" / "failure-classes"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        path = workdir / "catalog.json"
        path.write_text(json.dumps([wl.hp(30), wl.hp(33)]))
        argv = ["exact", "--m", "2", "--catalog", str(path), "--certify",
                "--no-meta", "--out-dir", str(workdir)]
        job = wl.Job("exact [hp30, hp33] (m=2)", "exact", lambda: cli.main(argv),
                     check=lambda rc: False)
        with contextlib.redirect_stdout(io.StringIO()):
            outcome, raised = one_pass.run_job(job)
        cls = one_pass.classify(outcome, raised, job)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(f"{job.name}: recorded as {cls}")
    return 0 if cls in EXPECTED else 1


if __name__ == "__main__":
    sys.exit(main())
