"""The Abelian integrals against their earlier formulation.

The reference below is the earlier path.  `abelian_integral` grew one
breadth-first tree per colour over the whole mesh.  The per-polygon
integral grew one masked whole-mesh tree per (quarter-polygon region,
colour), each rooted at the region's smallest vertex of that colour, and
then chained the regions: a breadth-first tree of region links carried
the difference of the two regions' values at each link's black and white
crossing vertices, and two offsets anchored black at polygon 0's origin
corner and white at (0, k - 2, k), to the black value of polygon 0's
centre.

`abelian_integral` must agree with it bit for bit.  The per-polygon
values must agree to 1e-12 of the largest |value|, with no shift
between regions or colours: the same tree of region links puts
every region on the same branch of the multi-valued primitive.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies

from quadperiod import build_quad_graph, dec, generate_torus, l_shape_surface
from quadperiod.cli import run_integrate
from quadperiod.periods import (
    abelian_integral,
    abelian_integral_per_polygon,
    base_edge,
)
from quadperiod.surface import BLACK, WHITE, _lattice_codes, _positions, spanning_tree
from test_lattice_mesher import origamis
from test_mesh_golden import _two_cone_origami


def reference_diagonal_primitive(graph, omega, color, root, mask=None):
    """Sums of 2*s*omega along the breadth-first tree of one colour's
    diagonal graph, restricted to the quads where mask is true; 0 at
    root, nan off the tree."""
    field = omega.wb if color == BLACK else omega.ww
    start, end = graph.diagonal_ends(color)
    tree = spanning_tree(graph.n_vertices, start, end, mask, root)
    child = np.flatnonzero(tree.parent_edge >= 0)
    q = tree.parent_edge[child]
    step = np.zeros(graph.n_vertices, dtype=complex)
    step[child] = np.where(end[q] == child, 2.0, -2.0) * field[q]
    vals = tree.prefix_sums(step)
    vals[tree.depth < 0] = np.nan
    return vals


def reference_abelian_integral(graph, omega):
    vb, vw = base_edge(graph)
    return np.where(graph.color == BLACK,
                    reference_diagonal_primitive(graph, omega, BLACK, vb),
                    reference_diagonal_primitive(graph, omega, WHITE, vw))


def reference_region_values(graph, omega, inside):
    """Primitive on the vertices of the quads where inside is true, one
    tree per colour rooted at the smallest vertex of that colour; nan at
    every other vertex."""
    vals = np.full(graph.n_vertices, np.nan, dtype=complex)
    for color in (BLACK, WHITE):
        start, end = graph.diagonal_ends(color)
        nodes = np.union1d(start[inside], end[inside])
        vals[nodes] = reference_diagonal_primitive(graph, omega, color, nodes[0], inside)[nodes]
    return vals


def reference_per_polygon(graph, omega):
    """{(polygon, qx, qy): {vertex id: value}} by per-region trees and
    chained offsets."""
    surface, k = graph.meta["surface"], graph.meta["k"]
    npoly, L = len(surface.polygons), 2 * graph.meta["k"]
    p, i, j = np.unravel_index(np.arange(graph.n_quads), (npoly, k, k))
    region = 4 * p + 2 * (i >= k // 2) + (j >= k // 2)
    raw = np.array([reference_region_values(graph, omega, region == r)
                    for r in range(4 * npoly)])

    def vid(p, x, y):
        return _positions(graph.meta["vertex_codes"], _lattice_codes(surface, p, x, y, L))

    P = np.arange(npoly)
    c = vid(P, k, k)
    seams = np.stack([(4 * P, 4 * P + 1, c, vid(P, k - 2, k)),
                      (4 * P + 2, 4 * P + 3, c, vid(P, k + 2, k)),
                      (4 * P, 4 * P + 2, c, vid(P, k, k - 2))], axis=2).reshape(4, -1)
    mids = {0: (k, 0), 1: (L, k), 2: (k, L), 3: (0, k)}
    nearw = {0: (k + 2, 0), 1: (L, k + 2), 2: (k + 2, L), 3: (0, k + 2)}
    touching = {0: (2, 0), 1: (2, 3), 2: (3, 1), 3: (0, 1)}
    glued = []
    for (p, e), (q, f) in surface.gluings:
        xb, xw = int(vid(p, *mids[e])), int(vid(p, *nearw[e]))
        for ra in 4 * p + np.array(touching[e]):
            for rb in 4 * q + np.array(touching[f]):
                if not np.any(np.isnan(raw[[ra, rb]][:, [xb, xw]])):
                    glued.append((ra, rb, xb, xw))
    ra, rb, xb, xw = np.concatenate([seams, np.reshape(glued, (-1, 4)).T], axis=1)
    tree = spanning_tree(len(raw), ra, rb)
    assert np.all(tree.depth >= 0)
    child = np.flatnonzero(tree.parent_edge >= 0)
    x = np.stack([xb, xw], axis=1)[tree.parent_edge[child]]
    step = np.zeros((len(raw), 2), dtype=complex)
    step[child] = raw[tree.parent[child, None], x] - raw[child[:, None], x]
    offb = -raw[0, vid(0, 0, 0)]
    offw = raw[0, c[0]] + offb - raw[0, vid(0, k - 2, k)]
    total = raw + (tree.prefix_sums(step) + [offb, offw])[:, graph.color]
    out = {}
    for r, row in enumerate(total):
        ids = np.flatnonzero(~np.isnan(raw[r]))
        out[r // 4, r % 4 // 2, r % 2] = dict(zip(ids.tolist(), row[ids].tolist()))
    return out


def assert_same_integrals(graph, omega):
    assert np.array_equal(abelian_integral(graph, omega),
                          reference_abelian_integral(graph, omega), equal_nan=True)
    got, want = abelian_integral_per_polygon(graph, omega), reference_per_polygon(graph, omega)
    assert list(got) == list(want)
    scale = max(abs(z) for vals in want.values() for z in vals.values())
    for r in want:
        assert list(got[r]) == list(want[r]), r
        gap = max(abs(got[r][v] - want[r][v]) for v in want[r])
        assert gap <= 1e-12 * scale, (r, gap, scale)


def _canonical(graph):
    omega, _ = run_integrate(graph, np.eye(graph.genus())[0])
    return omega


CASES = {
    "lshape-8": lambda: build_quad_graph(l_shape_surface(), 1 / 8),
    "lshape-16": lambda: build_quad_graph(l_shape_surface(), 1 / 16),
    "origami-two-cones-8": lambda: build_quad_graph(_two_cone_origami(), 1 / 8),
    "torus-skew-8": lambda: generate_torus(0.5 + 0.8j, 8),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_integrals_match_reference_on_corpus(name):
    graph = CASES[name]()
    assert_same_integrals(graph, _canonical(graph))


def test_integrals_match_reference_on_sheared_origami(sheared_origami_8):
    assert_same_integrals(sheared_origami_8, _canonical(sheared_origami_8))


@settings(max_examples=25, derandomize=True, database=None, deadline=None)
@given(surface=origamis, k=strategies.sampled_from([4, 8]),
       seed=strategies.integers(0, 2**32 - 1))
def test_integrals_match_reference_on_origamis(surface, k, seed):
    """dz plus the differential of a random function: closed, with the
    periods of dz, so a region put on another branch would show."""
    graph = build_quad_graph(surface, 1 / k)
    rng = np.random.default_rng(seed)
    f = rng.normal(size=graph.n_vertices) + 1j * rng.normal(size=graph.n_vertices)
    df = dec.exterior_derivative(graph, f)
    dz = dec.chart_dz(graph)
    assert_same_integrals(graph, dec.Differential(dz.wb + df.wb, dz.ww + df.ww))
