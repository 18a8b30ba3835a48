"""Graded meshes around a cone point.

A cone of angle 6*pi (index 1/3) forces uniform meshes to violate the
image-length condition |g(x) - g(y)| <= h near the cone: the flattening
chart z -> z^(1/3) stretches short edges at small radii.  The adapted
generator replaces the grid inside a patch of half-width 1/4 with
concentric rings whose radii follow (m*h)^3 and whose angular resolution
coarsens 2:1 on the way in, closing with a fan of quarter-squares.
"""

import math

import numpy as np

from quadperiod import l_shape_surface, mesh_stats, validate_h_adapted
from quadperiod.refine import generate_adapted
from quadperiod.surface import build_quad_graph, develop_cone_disk

surface = l_shape_surface()

for k in (8, 16, 32):
    h = 1.0 / k
    uniform = build_quad_graph(surface, h)
    rep_u = validate_h_adapted(uniform, h)
    adapted = generate_adapted(surface, h)
    rep_a = validate_h_adapted(adapted, h)
    st = mesh_stats(adapted)
    cone = adapted.cones[0]
    quads, dev, _ = develop_cone_disk(adapted, cone)
    fan = np.any(adapted.quads[quads] == cone.vertex, axis=1)
    r_inner = float(np.min(np.sort(np.abs(dev[fan]), axis=1)[:, 1]))
    print(f"h = 1/{k}:")
    print(f"  uniform grid:   {uniform.n_quads:>6} quads, image condition "
          f"{'PASS' if rep_u['passed'] else 'FAIL'}")
    print(f"  adapted mesh:   {adapted.n_quads:>6} quads, image condition "
          f"{'PASS' if rep_a['passed'] else 'FAIL'}, "
          f"min angle {math.degrees(st.phi_min):.1f} deg, "
          f"innermost ring at {r_inner:.2e} (h^3 = {h ** 3:.2e})")
