"""Benchmark workloads: inputs drawn from a seed, the pipeline each one
runs through quadperiod's public functions, and the correctness gate.

The pipelines look every package function up on `quadperiod.cli` at call
time, the same bindings the `periods`, `integrate` and `converge`
commands use, so a tracer that patches those bindings sees the calls.
"""

from __future__ import annotations

import cmath
import json
import math
import os
import random

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
GOLDEN_PATH = os.path.join(HERE, "golden.json")

TOL = 1e-10          # solver tolerance, the CLI default
GOLDEN_RTOL = 1e-12  # pi and blocks against the golden values, per level
TORUS_TOL = 1e-10    # |pi - tau| and the Abelian integral modulo the lattice

BLOCKS = ("pi", "block_bw", "block_bb", "block_ww", "block_wb")

# Re tau in [0.4, 0.6] keeps the parallelograms skew; |tau|^2 <= 0.9225
# keeps the two diagonals (1 + tau)/n and (tau - 1)/n non-orthogonal, so
# w12 != 0 on every quad whatever the seed draws.
TAU_RE = (0.4, 0.6)
TAU_IM = (0.6, 0.75)

LSHAPE_DOC = {"format": 1, "generator": {"kind": "l_shape"}}

WORKLOADS = ("lshape-uniform-128", "torus-skew-256", "lshape-adapted-sweep")


def make_inputs(name, seed):
    """Surface document and pipeline parameters of one workload; the same
    seed gives the same inputs."""
    rng = random.Random(f"{name}:{seed}")
    if name == "lshape-uniform-128":
        return LSHAPE_DOC, {"cell": 1 / 128}
    if name == "torus-skew-256":
        tau = complex(rng.uniform(*TAU_RE), rng.uniform(*TAU_IM))
        a = rng.uniform(0.5, 2.0) * cmath.exp(1j * rng.uniform(0.0, 2 * math.pi))
        doc = {"format": 1, "generator": {"kind": "torus", "tau": [tau.real, tau.imag]}}
        return doc, {"cell": 1 / 256, "a_period": [a.real, a.imag]}
    if name == "lshape-adapted-sweep":
        return LSHAPE_DOC, {"levels": 4, "base_cell": 1 / 8,
                            "converge_seed": rng.randrange(2 ** 31)}
    raise KeyError(f"unknown workload {name!r}")


def run(name, surface, params):
    """Run one workload's pipeline on a surface read by
    `formats.read_surface`; returns what `check` needs."""
    from quadperiod import cli

    if name == "lshape-adapted-sweep":
        _, pms, _ = cli.run_converge(
            surface, levels=params["levels"], adapted=True,
            base_cell=params["base_cell"], tol=TOL, seed=params["converge_seed"])
        return {"levels": pms}
    graph = cli.build_quad_graph(surface, params["cell"])
    basis = cli.homology_basis(graph)
    system = cli.assemble(graph, basis)
    cb = cli.canonical_differentials(graph, basis, system, TOL)
    pm = cli.period_matrices(graph, basis, cb)
    out = {"levels": [pm]}
    if name == "torus-skew-256":
        a = complex(*params["a_period"])
        out["tau"] = complex(*surface.generator["tau"])
        out["a"] = a
        out["graph"] = graph
        out["values"] = cli.abelian_integral(graph, cb.equal_split[0] * a)
    return out


def load_golden(path=GOLDEN_PATH):
    with open(path) as f:
        return json.load(f)


def matrices_doc(pm):
    """Golden-file form of one level: each block as nested [Re, Im]."""
    return {key: [[[z.real, z.imag] for z in row] for row in np.asarray(getattr(pm, key))]
            for key in BLOCKS}


def _from_pairs(rows):
    return np.array([[complex(re, im) for re, im in row] for row in rows])


def check(name, result, golden):
    """Every correctness check of one run; returns the failures as
    one-line strings (empty when the run is correct)."""
    failures = []
    for i, pm in enumerate(result["levels"]):
        failures += [f"level {i}: {msg}" for msg in diagnostic_failures(pm.diagnostics)]
    if name == "torus-skew-256":
        err = abs(result["levels"][0].pi[0, 0] - result["tau"])
        if not err <= TORUS_TOL:
            failures.append(f"|pi - tau| = {err:.3e} > {TORUS_TOL}")
        err = abelian_lattice_error(result["graph"], result["values"],
                                    result["a"], result["tau"])
        if not err <= TORUS_TOL:
            failures.append(f"Abelian integral off the chart positions by {err:.3e}")
        return failures
    want = golden[name]
    if len(want) != len(result["levels"]):
        return failures + [f"{len(result['levels'])} levels, golden has {len(want)}"]
    for i, (pm, ref) in enumerate(zip(result["levels"], want)):
        golden_level = {key: _from_pairs(ref[key]) for key in BLOCKS}
        scale = level_scale(golden_level)
        for key, G in golden_level.items():
            X = np.asarray(getattr(pm, key))
            err = float(np.max(np.abs(X - G))) if X.shape == G.shape else math.inf
            if not err <= GOLDEN_RTOL * scale:
                failures.append(f"level {i}: {key} differs from golden by "
                                f"{err / scale:.3e} relative")
    return failures


def level_scale(blocks):
    """The golden tolerance's scale: the largest entry over pi and the
    four blocks of one level.  block_bb and block_ww are roundoff on the
    orthodiagonal L-shape, so a per-block scale would demand bit-equal
    roundoff from any reordering of the floating-point work."""
    return max(float(np.max(np.abs(M))) for M in blocks.values())


def diagnostic_failures(d):
    """The `periods` command's diagnostic bounds."""
    out = []
    for key in ("full_symmetry", "pi_symmetry"):
        if not d[key] <= 1e-7:
            out.append(f"{key} = {d[key]:.3e} > 1e-7")
    for key in ("block_average_gap", "aperiod_error"):
        if not d[key] <= 1e-8:
            out.append(f"{key} = {d[key]:.3e} > 1e-8")
    for key in ("full_im_min_eig", "pi_im_min_eig"):
        if not d[key] > 0:
            out.append(f"{key} = {d[key]:.3e} <= 0")
    if not d["psd_gap"] >= -1e-10:
        out.append(f"psd_gap = {d['psd_gap']:.3e} < -1e-10")
    return out


def abelian_lattice_error(graph, values, a, tau):
    """Largest distance, modulo the lattice Z + tau Z, between the
    integral of a * (canonical form) divided by a and the chart position
    relative to the base edge's endpoint of the same color."""
    from quadperiod.periods import base_edge

    pos = np.zeros(graph.n_vertices, dtype=complex)
    pos[graph.quads] = graph.corners
    vb, vw = base_edge(graph)
    ref = np.where(graph.color == 0, pos[vb], pos[vw])
    d = values / a - (pos - ref)
    d -= np.round(d.imag / tau.imag) * tau
    d -= np.round(d.real)
    return float(np.max(np.abs(d)))
