"""Regenerate the reference outputs the benchmark checks every job against.

The references in ``perfbench/reference`` were produced by this script
from the program's seed commit; regenerate them only on purpose, when an
artifact format changes by design.  Run from the repository root:

    python3 perfbench/make_reference.py
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import sys
from pathlib import Path

import numpy as np

import workloads as wl

ROOT = wl.HERE.parent
sys.path.insert(0, str(ROOT / "src"))

from burgers_hierarchy import cli  # noqa: E402


def quiet_main(argv: list[str]) -> int:
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


def verify_reference(workdir: Path) -> dict:
    out = {}
    for kind, m in wl.VERIFY_JOBS:
        rc = quiet_main(["verify", kind, "--m", str(m), "--no-meta", "--out-dir", str(workdir)])
        if rc != 0:
            raise SystemExit(f"verify {kind} m={m} exited {rc}")
        name = wl.verify_artifact(kind, m)
        out[name] = wl.sha256((workdir / name).read_bytes())
    return out


def exact_reference(workdir: Path) -> dict:
    catalogs = list(wl.ACCEPTANCE.values())
    catalogs += [wl.pool_member(slot, i) for slot in wl.DRAW_SLOTS for i in range(wl.POOL_SIZE)]
    out = {}
    for catalog in catalogs:
        key = wl.catalog_key(catalog)
        if key in out:
            continue
        m = len(catalog)
        path = workdir / "catalog.json"
        path.write_text(json.dumps(catalog))
        rc = quiet_main(["exact", "--m", str(m), "--catalog", str(path), "--certify",
                         "--no-meta", "--out-dir", str(workdir)])
        if rc != 0:
            raise SystemExit(f"exact {key} exited {rc}")
        doc = json.loads((workdir / f"exact_m{m}.json").read_text())
        if not doc["certification"]["passed"]:
            raise SystemExit(f"exact {key} did not certify")
        record = wl.exact_record(doc)
        record["mode"] = doc["certification"]["mode"]
        out[key] = record
    for slot in ("numeric-m2", "numeric-m4"):
        for i in range(wl.POOL_SIZE):
            mode = out[wl.catalog_key(wl.pool_member(slot, i))]["mode"]
            if mode != "numeric":
                raise SystemExit(f"{slot}#{i} certified in {mode} mode, not numeric")
    return out


def periodic_reference() -> dict:
    return {f"p{i:02d}": wl.run_periodic(wl.periodic_initial(i)) for i in range(wl.POOL_SIZE)}


def main() -> int:
    workdir = ROOT / ".perfbench_work" / "reference"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        wl.REFERENCE.mkdir(exist_ok=True)
        for name, doc in (("verify.json", verify_reference(workdir)),
                          ("exact.json", exact_reference(workdir))):
            (wl.REFERENCE / name).write_text(json.dumps(doc, sort_keys=True, indent=1) + "\n")
        np.savez(wl.REFERENCE / "periodic.npz", **periodic_reference())
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
