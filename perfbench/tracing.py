"""Spans and counters recorded around the program's public functions.

The traced pass installs wrappers from the benchmark's own files; nothing
inside ``src/burgers_hierarchy`` changes.  Each span records its name,
start, end, parent span and job, in flat arrays kept in memory and written
once when the pass ends.  A layer's self time is its span time minus the
time of its direct child spans.
"""

from __future__ import annotations

import functools
import importlib
import time
import weakref
from array import array
from pathlib import Path

PACKAGE = "burgers_hierarchy"
MODULES = ("symcore", "hierarchy", "prolong", "liealg", "linalg", "hopfcole", "fdsolve", "cli")


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.job = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counters: dict[str, float] = {}
        self.current_job = -1
        self._stack: list[int] = []

    def open(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.job.append(self.current_job)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx: int):
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def count(self, key: str, amount: float = 1):
        self.counters[key] = self.counters.get(key, 0) + amount

    def save(self, path: Path):
        import numpy as np

        np.savez(path, names=np.array(self.names), name_id=np.frombuffer(self.name_id, "i4"),
                 parent=np.frombuffer(self.parent, "i4"), job=np.frombuffer(self.job, "i4"),
                 start=np.frombuffer(self.start, "f8"), end=np.frombuffer(self.end, "f8"))

    # -- analysis ------------------------------------------------------------

    def self_times(self) -> list[float]:
        out = [e - s for s, e in zip(self.start, self.end)]
        for i, p in enumerate(self.parent):
            if p >= 0:
                out[p] -= self.end[i] - self.start[i]
        return out

    def span_name(self, idx: int) -> str:
        return self.names[self.name_id[idx]]


def _wrapped(tracer: Tracer, name: str, fn, after=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        idx = tracer.open(name)
        try:
            out = fn(*args, **kwargs)
        finally:
            tracer.close(idx)
        if after is not None:
            after(out, args)
        return out

    return wrapper


def _patch_function(tracer: Tracer, home: str, attr: str, name: str, after=None):
    """Wrap ``home.attr`` in its home module and in every package module
    that imported it by name."""
    fn = getattr(importlib.import_module(f"{PACKAGE}.{home}"), attr)
    wrapper = _wrapped(tracer, name, fn, after)
    for mod_name in (PACKAGE,) + tuple(f"{PACKAGE}.{m}" for m in MODULES):
        mod = importlib.import_module(mod_name)
        if getattr(mod, attr, None) is fn:
            setattr(mod, attr, wrapper)


def _patch_method(tracer: Tracer, cls, attrs, name: str, after=None):
    wrapper = _wrapped(tracer, name, getattr(cls, attrs[0]), after)
    for attr in attrs:
        setattr(cls, attr, wrapper)


def install(tracer: Tracer):
    """Install every layer wrapper; see README.md for the layer map."""
    from burgers_hierarchy import cli, fdsolve, hierarchy, hopfcole, prolong, symcore

    count = tracer.count

    # symcore
    _patch_method(tracer, symcore.SubstitutionMap, ["apply"], "symcore.subst",
                  after=lambda out, args: count("symcore.subst.terms_out", out.term_count()))
    _patch_method(tracer, symcore.SubstitutionMap, ["__init__"], "symcore.subst_build")
    _patch_method(tracer, symcore.Expr, ["__mul__", "__rmul__"], "symcore.mul")
    _patch_function(tracer, "symcore", "total_derivative", "symcore.total_derivative")
    _patch_function(tracer, "symcore", "partial_derivative", "symcore.partial_derivative")
    _patch_function(tracer, "symcore", "collect_coefficients", "symcore.collect")
    _patch_function(tracer, "symcore", "eval_expr", "symcore.eval_expr")

    # hierarchy
    for attr in ("build_delta", "build_symmetry_field"):
        _patch_function(tracer, "hierarchy", attr, "hierarchy.build")
    _patch_method(tracer, hierarchy.PdeSystem, ["solved_rules"], "hierarchy.build")

    # prolong
    _patch_function(tracer, "prolong", "prolong2", "prolong.prolong2")
    _patch_function(tracer, "prolong", "manifold_rules", "prolong.manifold_rules")
    _patch_method(tracer, prolong.ManifoldRules, ["apply"], "prolong.restrict",
                  after=lambda out, args: count("prolong.restricted_terms", out.term_count()))
    _patch_function(tracer, "prolong", "verify_theorem", "prolong.verify_theorem")
    _patch_function(tracer, "prolong", "verify_classical", "prolong.verify_classical")
    _patch_function(tracer, "prolong", "verify_kappa_constraint", "prolong.kappa")

    # liealg
    _patch_function(tracer, "liealg", "commutator", "liealg.commutator")
    _patch_function(tracer, "liealg", "structure_constants", "liealg.structure_constants")

    # linalg
    _patch_function(tracer, "linalg", "bareiss_determinant", "linalg.bareiss",
                    after=lambda out, args: count("linalg.det_terms", out.term_count()))
    _patch_function(tracer, "linalg", "cramer_solve", "linalg.cramer")
    _patch_function(tracer, "linalg", "exact_divide", "linalg.exact_divide")

    # hopfcole; residuals() caches, so count each solution's terms once
    # (solutions are unhashable dataclasses: key by id, confirm by weakref)
    counted: dict[int, weakref.ref] = {}

    def residual_terms(out, args):
        sol = args[0]
        ref = counted.get(id(sol))
        if ref is None or ref() is not sol:
            counted[id(sol)] = weakref.ref(sol)
            count("hopfcole.residual_terms",
                  sum(r.num.term_count() + r.den.term_count() for r in out))

    def certify_mode(out, args):
        count(f"hopfcole.certify.{out.mode}")

    def guard(out, args):
        count("hopfcole.guard.attempted")
        count("hopfcole.guard.accepted", bool(out))

    _patch_function(tracer, "hopfcole", "hopfcole_matrix", "hopfcole.matrix")
    _patch_method(tracer, hopfcole.ExactSolution, ["residuals"], "hopfcole.residuals",
                  after=residual_terms)
    _patch_function(tracer, "hopfcole", "certify", "hopfcole.certify", after=certify_mode)
    _patch_method(tracer, hopfcole.ExactSolution, ["guard_ok"], "hopfcole.guard", after=guard)
    _patch_method(tracer, hopfcole.ExactSolution, ["evaluate"], "hopfcole.evaluate")

    # fdsolve: scipy names as fdsolve sees them, and the boundary callables
    _patch_function(tracer, "fdsolve", "step", "fdsolve.step")
    _patch_function(tracer, "fdsolve", "solve_banded", "fdsolve.banded_solve")
    _patch_function(tracer, "fdsolve", "factorized", "fdsolve.sparse_factor")
    _patch_function(tracer, "fdsolve", "field_from_exact", "fdsolve.field_from_exact")
    make_boundary = fdsolve.make_boundary
    fdsolve.make_boundary = functools.wraps(make_boundary)(
        lambda sol, grid: _wrapped(tracer, "fdsolve.bc", make_boundary(sol, grid)))

    # cli
    _patch_function(tracer, "cli", "main", "cli.main")
    _patch_function(tracer, "cli", "_atomic_write", "cli.write",
                    after=lambda out, args: count("cli.write.bytes", len(args[1].encode())))


# (metric name, unit) of every per-layer metric, in report order
CALLS_AND_SELF = [
    "symcore.subst", "symcore.subst_build", "symcore.mul", "symcore.total_derivative",
    "symcore.partial_derivative", "symcore.collect", "symcore.eval_expr",
    "hierarchy.build",
    "prolong.prolong2", "prolong.manifold_rules", "prolong.restrict", "prolong.final_check",
    "prolong.verify_theorem", "prolong.verify_classical", "prolong.kappa",
    "liealg.commutator", "liealg.structure_constants",
    "linalg.bareiss", "linalg.cramer", "linalg.exact_divide",
    "hopfcole.matrix", "hopfcole.residuals", "hopfcole.certify", "hopfcole.evaluate",
    "fdsolve.step", "fdsolve.banded_solve", "fdsolve.sparse_factor", "fdsolve.bc",
    "fdsolve.field_from_exact",
    "cli.main", "cli.write",
]
COUNTERS = [
    ("symcore.subst.terms_out", "count"),
    ("prolong.restricted_terms", "count"),
    ("linalg.det_terms", "count"),
    ("hopfcole.residual_terms", "count"),
    ("hopfcole.certify.symbolic", "count"),
    ("hopfcole.certify.numeric", "count"),
    ("hopfcole.guard.accept_ratio", "ratio"),
    ("cli.write.bytes", "bytes"),
]
# reported by the driver from the untraced and traced passes of a traced run
DERIVED = [
    ("fdsolve.cell_steps_per_s", "1/s"),
    ("theorem.subst_self_share", "ratio"),
    ("theorem.subst_incl_share", "ratio"),
    ("trace.spans", "count"),
    ("trace.untraced_wall_s", "s"),
    ("trace.traced_wall_s", "s"),
    ("trace.overhead_s", "s"),
]


def per_layer_units() -> dict[str, str]:
    units = {}
    for layer in CALLS_AND_SELF:
        units[f"{layer}.calls"] = "count"
        units[f"{layer}.self_s"] = "s"
    units.update(COUNTERS)
    units.update(DERIVED)
    return units


def layer_metrics(tracer: Tracer, theorem_jobs: set[int]) -> dict[str, float]:
    """calls and self time per layer, the counters, and the time of the
    theorem jobs spent in substitution and manifold-rule building."""
    self_t = tracer.self_times()
    out = {f"{layer}.{k}": 0 for layer in CALLS_AND_SELF for k in ("calls", "self_s")}
    names = [tracer.span_name(i) for i in range(len(self_t))]
    subst_theorem_self = 0.0
    subst_theorem_incl = 0.0
    outer = {"symcore.subst", "prolong.manifold_rules"}
    for i, name in enumerate(names):
        parent = tracer.parent[i]
        if name == "symcore.subst" and parent >= 0 and names[parent] == "prolong.verify_theorem":
            out["prolong.final_check.calls"] += 1
            out["prolong.final_check.self_s"] += self_t[i]
        if name in outer and tracer.job[i] in theorem_jobs:
            subst_theorem_self += self_t[i]
            p = parent
            while p >= 0 and names[p] not in outer:
                p = tracer.parent[p]
            if p < 0:
                subst_theorem_incl += tracer.end[i] - tracer.start[i]
        key = f"{name}.calls"
        if key in out:
            out[key] += 1
            out[f"{name}.self_s"] += self_t[i]
    counters = dict(tracer.counters)
    attempted = counters.pop("hopfcole.guard.attempted", 0)
    accepted = counters.pop("hopfcole.guard.accepted", 0)
    for name, _ in COUNTERS:
        out[name] = counters.get(name, 0)
    out["hopfcole.guard.accept_ratio"] = accepted / attempted if attempted else 0.0
    out["trace.spans"] = len(self_t)
    out["_theorem_subst_self_s"] = subst_theorem_self
    out["_theorem_subst_incl_s"] = subst_theorem_incl
    return out
