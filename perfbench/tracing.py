"""Span tracer that times quadperiod's public functions from outside the
package.

`Tracer` replaces each target function in every quadperiod module
namespace that binds it (and each target method on its class) with a
wrapper that records a span: name, start, end, parent span and run id,
plus the process's peak RSS at both ends.  Spans stay in memory until the
caller writes them out.  A span's self time is its duration minus the
time its child spans cover.  Count hooks read sizes from the results;
their own time is excluded from every self time.

The tracer never fails the traced program: a target it cannot find and
a count hook that raises are recorded in `Tracer.errors` (the metrics
they feed read low) and the program's own call goes on untouched.
"""

from __future__ import annotations

import functools
import importlib
import json
import resource
import time
from collections import Counter

MODULES = ("quadperiod", "quadperiod.surface", "quadperiod.dec",
           "quadperiod.homology", "quadperiod.harmonic", "quadperiod.periods",
           "quadperiod.refine", "quadperiod.cli", "quadperiod.formats")

MESH_LAYERS = ("surface.mesh", "refine.adapted_mesh")


def maxrss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _outer_mesh(span):
    """True when no enclosing span builds a mesh too."""
    parent = span["parent_span"]
    while parent is not None:
        if parent["layer"] in MESH_LAYERS:
            return False
        parent = parent["parent_span"]
    return True


def _count_mesh(counts, span, out):
    if not _outer_mesh(span):
        return
    counts["surface.n_quads"] += out.n_quads
    counts["surface.n_vertices"] += out.n_vertices
    counts["surface.n_edges"] += out.n_edges()
    counts["surface.genus"] = max(counts["surface.genus"], out.genus())
    counts["surface.mesh_rss_mb"] += span["rss_end_mb"] - span["rss_start_mb"]


def _count_levels(counts, span, out):
    counts["refine.levels"] += len(out)


def _count_basis(counts, span, out):
    counts["homology.chain_length"] += sum(
        abs(c) * len(cyc) for ch in out.a_chains + out.b_chains for c, cyc in ch)
    counts["homology.cocycle_support"] += int(
        (out.sigma_black != 0).sum() + (out.sigma_white != 0).sum())


def _count_matrix(counts, span, out):
    counts["harmonic.matrix_nnz"] += out.matrix.nnz


def _count_factor(counts, span, out):
    if span["new_factor"] is None:
        raise LookupError("cannot tell a new factor from a cached one")
    if span["new_factor"]:
        factor = out[0]
        counts["harmonic.factor_fill"] += factor.L.nnz + factor.U.nnz
        counts["harmonic.factor_rss_mb"] += span["rss_end_mb"] - span["rss_start_mb"]


def _calls(metric):
    def hook(counts, span, out):
        counts[metric] += 1
    return hook


# (module, attribute or Class.method, layer, count hook)
TARGETS = (
    ("quadperiod.surface", "build_quad_graph", "surface.mesh", _count_mesh),
    ("quadperiod.surface", "generate_torus", "surface.mesh", _count_mesh),
    ("quadperiod.surface", "QuadGraph.validate", "surface.validate", None),
    ("quadperiod.surface", "QuadGraph.rotation", "surface.rotation", None),
    ("quadperiod.surface", "mesh_stats", "surface.mesh_stats", None),
    ("quadperiod.surface", "validate_h_adapted", "surface.mesh_stats", None),
    ("quadperiod.refine", "generate_adapted", "refine.adapted_mesh", _count_mesh),
    ("quadperiod.refine", "sweep", "refine.sweep", _count_levels),
    ("quadperiod.homology", "homology_basis", "homology.basis", _count_basis),
    ("quadperiod.harmonic", "assemble", "harmonic.assemble", _count_matrix),
    ("quadperiod.harmonic", "EnergySystem.factorized", "harmonic.factor", _count_factor),
    ("quadperiod.harmonic", "solve", "harmonic.solve", _calls("harmonic.solve_calls")),
    ("quadperiod.harmonic", "solve_elementary", "harmonic.solve", None),
    ("quadperiod.dec", "measure_periods", "dec.measure_periods",
     _calls("dec.measure_periods_calls")),
    ("quadperiod.dec", "exterior_derivative", "dec.exterior_derivative", None),
    ("quadperiod.dec", "hodge_star", "dec.hodge_star", None),
    ("quadperiod.dec", "is_closed", "dec.is_closed", _calls("dec.is_closed_calls")),
    ("quadperiod.periods", "canonical_differentials", "periods.canonical", None),
    ("quadperiod.periods", "holomorphic_from_harmonic", "periods.holomorphic", None),
    ("quadperiod.periods", "period_matrices", "periods.period_matrices", None),
    ("quadperiod.periods", "abelian_integral", "periods.abelian_integral", None),
    ("quadperiod.cli", "run_converge", "cli.converge", None),
)

COUNTS = ("surface.n_quads", "surface.n_vertices", "surface.n_edges", "surface.genus",
          "surface.mesh_rss_mb", "refine.levels", "homology.chain_length",
          "homology.cocycle_support", "harmonic.matrix_nnz", "harmonic.factor_fill",
          "harmonic.factor_rss_mb", "harmonic.solve_calls", "dec.measure_periods_calls",
          "dec.is_closed_calls")

OVERHEAD = "trace.overhead_s"


def unit(metric):
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_mb"):
        return "MB"
    return "count"


def layer_names():
    """Every per-layer metric the traced run reports, in report order."""
    times = [layer + "_s" for layer in dict.fromkeys(t[2] for t in TARGETS)]
    return times + list(COUNTS) + [OVERHEAD]


class Tracer:
    """Context manager: patches the targets on entry, restores them on
    exit.  Single-threaded: spans nest by call order."""

    def __init__(self, run_id):
        self.run_id = run_id
        self.spans = []
        self.counts = Counter()
        self.errors = Counter()   # message -> number of times
        self._stack = []
        self._restore = []

    def __enter__(self):
        modules = []
        for module_name in MODULES:
            try:
                modules.append(importlib.import_module(module_name))
            except ImportError as exc:
                self.errors[f"{module_name} not importable ({exc})"] += 1
        for module_name, attr, layer, hook in TARGETS:
            name = f"{module_name}.{attr}"
            owner_name, _, method = attr.rpartition(".")
            try:
                home = importlib.import_module(module_name)
                owner = getattr(home, owner_name) if owner_name else home
                fn = owner.__dict__[method] if owner_name else getattr(home, attr)
            except (ImportError, AttributeError, KeyError) as exc:
                self.errors[f"{name} not found ({type(exc).__name__}: {exc}); "
                            f"{layer} is not timed"] += 1
                continue
            wrapper = self._wrap(name, layer, fn, hook)
            if owner_name:
                self._patch(owner, method, wrapper)
                continue
            for module in modules:
                for binding, value in list(vars(module).items()):
                    if value is fn:
                        self._patch(module, binding, wrapper)
        return self

    def __exit__(self, *exc):
        for owner, name, value in reversed(self._restore):
            setattr(owner, name, value)
        self._restore.clear()
        return False

    def _patch(self, owner, name, value):
        self._restore.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def _wrap(self, name, layer, fn, hook):
        tracer = self
        new_factor = layer == "harmonic.factor"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = tracer._stack[-1] if tracer._stack else None
            span = {"id": len(tracer.spans), "name": name, "layer": layer,
                    "parent": parent["id"] if parent else None, "run": tracer.run_id,
                    "parent_span": parent, "hook_s": 0.0}
            if new_factor:
                try:
                    span["new_factor"] = args[0]._factor is None
                except (IndexError, AttributeError):
                    span["new_factor"] = None
            tracer.spans.append(span)
            tracer._stack.append(span)
            span["rss_start_mb"] = maxrss_mb()
            span["start"] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                span["rss_end_mb"] = maxrss_mb()
                tracer._stack.pop()
            if hook is not None:
                try:
                    hook(tracer.counts, span, out)
                except Exception as exc:  # a measurement error, not the program's
                    tracer.errors[f"count hook of {name} raised {type(exc).__name__}: "
                                  f"{exc}; its counts are incomplete"] += 1
                span["hook_s"] = time.perf_counter() - span["end"]
            return out

        return wrapper

    def self_times(self):
        """Self time per span id: duration minus the time child spans
        (and their count hooks) cover."""
        own = {s["id"]: s["end"] - s["start"] for s in self.spans}
        for s in self.spans:
            if s["parent"] is not None:
                own[s["parent"]] -= s["end"] - s["start"] + s["hook_s"]
        return own

    def layer_metrics(self):
        """Per-layer self times and counts; every name but the overhead,
        which needs an untraced run to compare with."""
        out = {name: 0.0 for name in layer_names() if name != OVERHEAD}
        for sid, seconds in self.self_times().items():
            out[self.spans[sid]["layer"] + "_s"] += seconds
        for name in COUNTS:
            out[name] = self.counts[name]
        return out

    def write(self, path):
        keys = ("id", "name", "parent", "run", "start", "end", "rss_start_mb", "rss_end_mb")
        with open(path, "w") as f:
            json.dump([{k: s[k] for k in keys} for s in self.spans], f)
