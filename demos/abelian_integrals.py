"""Primitives of holomorphic differentials (Abelian integrals).

On the torus, integrating the canonical differential from a base edge
recovers each vertex's chart position up to the period lattice.  On the
genus-2 L-shape the primitive is genuinely multi-valued; evaluating it on
quarter-square regions, one tree per colour over copies of the regions
joined at level-independent vertices, gives values that stabilize under
refinement.
"""

import numpy as np

from quadperiod import build_quad_graph, generate_torus, l_shape_surface
from quadperiod.cli import run_integrate
from quadperiod.periods import abelian_integral_per_polygon, base_edge
from quadperiod.surface import lattice_vertex_ids

# -- torus ------------------------------------------------------------------
tau = 0.5 + 0.8j
g = generate_torus(tau, 8)
omega, vals = run_integrate(g, [1.0])
pos = np.zeros(g.n_vertices, dtype=complex)
for q in range(g.n_quads):
    pos[g.quads[q]] = g.corners[q]
vb, vw = base_edge(g)
worst = 0.0
for v in range(g.n_vertices):
    ref = pos[vb] if g.color[v] == 0 else pos[vw]
    delta = vals[v] - (pos[v] - ref)
    delta -= np.round(delta.imag / tau.imag) * tau
    delta -= np.round(delta.real)
    worst = max(worst, abs(delta))
print(f"torus: integral minus chart position, reduced mod the lattice: "
      f"max |residue| = {worst:.2e}")

# -- L-shape ----------------------------------------------------------------
surface = l_shape_surface()
prev = None
print("\nL-shape: canonical integral at mesh points shared between levels")
for k in (4, 8, 16, 32):
    gk = build_quad_graph(surface, 1.0 / k)
    om, _ = run_integrate(gk, [1.0, 0.0])
    branch = abelian_integral_per_polygon(gk, om)
    if prev is not None:
        ga, va = prev
        ids = lattice_vertex_ids(ga, gk)
        worst = 0.0
        count = 0
        for r in va:
            for v, val in va[r].items():
                u = ids[v]
                if u in branch[r]:
                    worst = max(worst, abs(val - branch[r][u]))
                    count += 1
        print(f"  levels 1/{k // 2} vs 1/{k}: {count:>5} shared vertices, "
              f"max difference {worst:.5f}")
    prev = (gk, branch)
