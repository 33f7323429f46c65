"""The benchmark's layer tracer (``perfbench/tracing.py``) still installs
on the program and sees calls in every layer it wraps.

The tracer wraps program functions by name, so a rename or a bypassed
attribute in ``src/`` breaks ``perfbench/run.py --trace 1``.  The check
runs in a subprocess because the wrappers patch modules process-wide.
"""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

SCRIPT = textwrap.dedent("""
    import json, sys
    from pathlib import Path

    root, work = Path(sys.argv[1]), Path(sys.argv[2])
    sys.path.insert(0, str(root / "perfbench"))
    import tracing

    tracer = tracing.Tracer()
    tracing.install(tracer)
    from burgers_hierarchy import cli

    codes = {}
    for kind in ("theorem", "classical", "liealg", "kappa"):
        codes[kind] = cli.main(["verify", kind, "--m", "2", "--no-meta", "--out-dir", str(work)])
    heat = [{"kind": "heat_polynomial", "degree": n} for n in (1, 2, 3)]
    (work / "m3.json").write_text(json.dumps(heat))
    codes["exact"] = cli.main(["exact", "--m", "3", "--catalog", str(work / "m3.json"),
                               "--certify", "--points", "5", "--no-meta", "--out-dir", str(work)])
    (work / "m2.json").write_text(json.dumps(heat[:2]))
    solve = ["solve", "--m", "2", "--catalog", str(work / "m2.json"), "--x-min", "2",
             "--x-max", "4", "--nx", "32", "--dt", "1e-3", "--t-end", "0.005",
             "--no-meta", "--out-dir", str(work)]
    codes["dirichlet"] = cli.main(solve)
    codes["periodic"] = cli.main(solve + ["--periodic"])
    metrics = tracing.layer_metrics(tracer, set())
    calls = {k: v for k, v in metrics.items() if k.endswith(".calls")}
    print(json.dumps({"codes": codes, "calls": calls}))
""")


def test_tracer_sees_every_layer(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", SCRIPT, str(ROOT), str(tmp_path)],
                          capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert "AttributeError" not in proc.stderr
    doc = json.loads(proc.stdout.splitlines()[-1])
    assert all(code == 0 for code in doc["codes"].values()), doc["codes"]
    silent = sorted(name for name, n in doc["calls"].items() if n == 0)
    assert not silent, f"layers without calls: {silent}"
