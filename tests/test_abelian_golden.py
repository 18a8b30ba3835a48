"""Branch gate for the per-polygon Abelian integral: the values of
`abelian_integral_per_polygon` for the canonical differential with
a-periods (1, 0), compared against values stored in golden_abelian.json.

The regions are chained along a spanning tree of region links, and a
different tree may put a region on another branch of the primitive.  So
each (region, colour) may differ from the stored values by one constant
(a period), but the spread of the differences must stay at roundoff.

Regenerate the stored values only at a commit whose integrals are
trusted:

    PYTHONPATH=src python tests/test_abelian_golden.py
"""

import json
import os

import numpy as np
import pytest

from quadperiod import build_quad_graph, l_shape_surface
from quadperiod.cli import run_integrate
from quadperiod.periods import abelian_integral_per_polygon
from test_mesh_golden import _two_cone_origami

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "golden_abelian.json")
SPREAD = 1e-12

CORPUS = {
    "lshape-8": lambda: build_quad_graph(l_shape_surface(), 1 / 8),
    "origami-two-cones-8": lambda: build_quad_graph(_two_cone_origami(), 1 / 8),
}


def _regions(name):
    """{"p,qx,qy": {vertex id: value}} of one corpus mesh, and the mesh."""
    graph = CORPUS[name]()
    omega, _ = run_integrate(graph, [1.0, 0.0])
    out = abelian_integral_per_polygon(graph, omega)
    return graph, {",".join(map(str, r)): vals for r, vals in out.items()}


def _load_golden():
    with open(GOLDEN_PATH) as f:
        doc = json.load(f)
    return {name: {r: {int(v): complex(*z) for v, z in vals.items()}
                   for r, vals in regions.items()}
            for name, regions in doc.items()}


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_per_polygon_integral_matches_golden_up_to_branch(name):
    want = _load_golden()[name]
    graph, got = _regions(name)
    assert sorted(got) == sorted(want)
    for r in want:
        assert sorted(got[r]) == sorted(want[r]), r
        for color in (0, 1):
            ids = [v for v in want[r] if graph.color[v] == color]
            shift = np.array([got[r][v] - want[r][v] for v in ids])
            spread = float(np.max(np.abs(shift - shift[0])))
            assert spread <= SPREAD, (r, color, spread)


def main():
    doc = {}
    for name in sorted(CORPUS):
        _, regions = _regions(name)
        doc[name] = {r: {str(v): [z.real, z.imag] for v, z in vals.items()}
                     for r, vals in regions.items()}
        print(name)
    with open(GOLDEN_PATH, "w") as f:
        json.dump(doc, f, indent=1)


if __name__ == "__main__":
    main()
