import math

import numpy as np
import pytest

from quadperiod.surface import (
    GEOM_TOL,
    SurfaceError,
    PolyhedralSurface,
    build_quad_graph,
    generate_torus,
    l_shape_surface,
    load_surface,
    mesh_stats,
    validate_h_adapted,
    QuadGraph,
    spanning_tree,
)


def test_torus_counts():
    g = generate_torus(1j, 2)
    assert g.n_quads == 4
    assert g.n_vertices == 4
    assert g.n_edges() == 8
    assert g.genus() == 1


def test_torus_square_rho():
    g = generate_torus(1j, 2)
    assert np.allclose(g.diagonal_ratio, 1.0)


def test_torus_parallelogram_rho():
    g = generate_torus(0.5 + 0.8j, 4)
    rho = g.diagonal_ratio
    assert np.all(rho.real > 0)
    assert np.all(np.abs(rho.imag) > 1e-12)
    # congruent parallelograms alternate between two reciprocal values,
    # depending on which corner of the cell is black
    vals = sorted(set(np.round(rho, 12)), key=lambda z: z.real)
    assert len(vals) == 2
    assert np.isclose(vals[0] * vals[1], 1.0)


def test_torus_odd_n_rejected():
    with pytest.raises(SurfaceError):
        generate_torus(1j, 3)


def test_rho_unit_square():
    g = QuadGraph([0, 1, 0, 1], [[0, 1, 2, 3]], [[0, 1, 1 + 1j, 1j]], closed=False)
    assert np.isclose(g.diagonal_ratio[0], 1.0)


def test_rho_rectangle():
    # 2x1 rectangle: -i*(i-2)/(2+i) = (4+3i)/5, diagonals equal length
    g = QuadGraph([0, 1, 0, 1], [[0, 1, 2, 3]], [[0, 2, 2 + 1j, 1j]], closed=False)
    assert np.isclose(g.diagonal_ratio[0], 0.8 + 0.6j)


def test_clockwise_quad_rejected():
    with pytest.raises(SurfaceError):
        QuadGraph([0, 1, 0, 1], [[0, 1, 2, 3]], [[0, 1j, 1 + 1j, 1]], closed=False)


def test_bowtie_quad_rejected():
    with pytest.raises(SurfaceError):
        QuadGraph([0, 1, 0, 1], [[0, 1, 2, 3]], [[0, 1, 1j, 1 + 1j]], closed=False)


def test_mesh_stats_torus():
    g = generate_torus(1j, 4)
    st = mesh_stats(g)
    assert np.isclose(st.h, 0.25)
    assert np.isclose(st.phi_min, math.pi / 2)
    assert st.genus == 1
    assert np.isclose(st.area, 1.0)


def test_lshape_surface_link():
    s = l_shape_surface()
    assert s.genus == 2
    assert len(s.cone_classes) == 1
    cid = s.cone_classes[0]
    assert np.isclose(s.vertex_angles[cid], 6 * math.pi)
    # every corner of every square is the same glued vertex
    assert len(s.vertex_angles) == 1


def test_lshape_mesh_half_cell():
    s = l_shape_surface()
    g = build_quad_graph(s, 0.5)
    assert g.n_quads == 12
    st = mesh_stats(g)
    assert st.genus == 2
    cone = g.cones[0]
    assert np.isclose(cone.angle, 6 * math.pi)
    assert np.isclose(cone.index, 1 / 3)
    # the cone vertex has 12 incident quads
    _, _, quad_after = g.rotation()
    assert len(quad_after[cone.vertex]) == 12


def test_lshape_area_and_h(lshape):
    g = build_quad_graph(lshape, 0.25)
    st = mesh_stats(g)
    assert np.isclose(st.area, 3.0)
    assert np.isclose(st.h, 0.25)
    assert np.isclose(st.phi_min, math.pi / 2)


def test_unglued_edge_error():
    sq = [[0, 0], [1, 0], [1, 1], [0, 1]]
    with pytest.raises(SurfaceError, match="unglued"):
        PolyhedralSurface(polygons=[sq], gluings=[((0, 0), (0, 2))])


def test_length_mismatch_error():
    rect = [[0, 0], [2, 0], [2, 1], [0, 1]]
    with pytest.raises(SurfaceError, match="length"):
        PolyhedralSurface(
            polygons=[rect],
            gluings=[((0, 0), (0, 1)), ((0, 2), (0, 3))],
        )


def test_load_surface_torus_doc():
    doc = {"format": 1, "generator": {"kind": "torus", "tau": [0.0, 1.0]}}
    s = load_surface(doc)
    g = build_quad_graph(s, 0.5)
    assert g.n_quads == 4
    assert g.genus() == 1


def test_load_surface_requires_format():
    with pytest.raises(SurfaceError, match="format"):
        load_surface({"polygons": [], "gluings": []})


def test_load_surface_explicit_polygons():
    sq = [[0, 0], [1, 0], [1, 1], [0, 1]]
    doc = {
        "format": 1,
        "polygons": [sq],
        "gluings": [[[0, 0], [0, 2]], [[0, 1], [0, 3]]],
    }
    s = load_surface(doc)
    assert s.genus == 1


def test_validate_h_adapted_torus_vacuous():
    g = generate_torus(1j, 4)
    rep = validate_h_adapted(g, 0.25)
    assert rep["passed"]
    rep = validate_h_adapted(g, 0.2)
    assert not rep["passed"]


def test_validate_h_adapted_uniform_lshape_fails(lshape):
    g = build_quad_graph(lshape, 1 / 16)
    rep = validate_h_adapted(g, 1 / 16)
    assert not rep["passed"]
    key = [k for k in rep if k.startswith("cone_")][0]
    assert rep[key] > 1 / 16


def test_relabeling_invariance():
    # starting the listing at the other black vertex flips both diagonals
    corners = [0, 1, 1.1 + 1.3j, -0.2 + 1.1j]
    g1 = QuadGraph([0, 1, 0, 1], [[0, 1, 2, 3]], [corners], closed=False)
    g2 = QuadGraph([0, 1, 0, 1], [[2, 3, 0, 1]], [corners[2:] + corners[:2]], closed=False)
    assert np.isclose(g1.diagonal_ratio[0], g2.diagonal_ratio[0])


def test_gauss_bonnet_consistency(lshape):
    # genus from Euler formula equals genus from cone angle defects
    g = build_quad_graph(lshape, 0.5)
    defect = sum(2 * math.pi - c.angle for c in g.cones if c.is_singular)
    chi = 2 - 2 * g.genus()
    assert np.isclose(defect, 2 * math.pi * chi)


def test_collinear_quad_rejected():
    # a degenerate quad (all vertices on a line) never reaches the stats
    with pytest.raises(SurfaceError):
        QuadGraph([0, 1, 0, 1], [[0, 1, 2, 3]], [[0, 1, 2, 3]], closed=False)


def test_diagonal_ratio_chart_invariance(rng):
    # isometric chart changes (rotation + translation) leave it unchanged
    base = np.array([0, 1, 1.2 + 1.4j, -0.1 + 1.1j])
    rot = np.exp(1j * 0.7)
    moved = rot * base + (3 - 2j)
    g1 = QuadGraph([0, 1, 0, 1], [[0, 1, 2, 3]], [base], closed=False)
    g2 = QuadGraph([0, 1, 0, 1], [[0, 1, 2, 3]], [moved], closed=False)
    assert np.isclose(g1.diagonal_ratio[0], g2.diagonal_ratio[0])


def _reference_bfs(n, heads, tails, mask, root, directed):
    """Queue-based BFS visiting each node's edges in edge-id order."""
    adj = [[] for _ in range(n)]
    for e, (a, b) in enumerate(zip(heads, tails)):
        if mask is None or mask[e]:
            adj[a].append((b, e))
            if not directed:
                adj[b].append((a, e))
    parent, parent_edge, depth = [-1] * n, [-1] * n, [-1] * n
    depth[root] = 0
    order = [root]
    for v in order:
        for u, e in adj[v]:
            if depth[u] < 0:
                depth[u], parent[u], parent_edge[u] = depth[v] + 1, v, e
                order.append(u)
    return order, parent, parent_edge, depth


@pytest.mark.parametrize("directed", [False, True])
def test_spanning_tree_matches_reference_bfs(directed):
    """Random multigraphs with self-loops, parallel edges, masks and
    unreached nodes: tree, depths and both tree sums agree with loops."""
    rng = np.random.default_rng(5)
    for _ in range(40):
        n = int(rng.integers(1, 12))
        heads, tails = rng.integers(0, n, size=(2, int(rng.integers(0, 30))))
        mask = rng.random(len(heads)) < 0.8 if rng.random() < 0.5 else None
        root = int(rng.integers(0, n))
        tree = spanning_tree(n, heads, tails, mask, root, directed)
        order, parent, parent_edge, depth = _reference_bfs(
            n, heads, tails, mask, root, directed)
        assert tree.order.tolist() == order
        assert tree.parent.tolist() == parent
        assert tree.parent_edge.tolist() == parent_edge
        assert tree.depth.tolist() == depth
        step = rng.integers(-5, 5, size=n)
        want = np.zeros(n, dtype=np.int64)
        for u in order[1:]:
            want[u] = want[parent[u]] + step[u]
        assert np.array_equal(tree.prefix_sums(step), want)
        want = step.copy()
        for u in reversed(order[1:]):
            want[parent[u]] += want[u]
        assert np.array_equal(tree.subtree_sums(step), want)
