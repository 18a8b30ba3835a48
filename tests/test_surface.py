import math

import numpy as np
import pytest
from scipy.sparse import csgraph, csr_matrix

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
    lattice_vertex_ids,
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


def test_torus_modulus_pair_or_complex():
    """generate_torus takes tau as a complex number or as its [re, im]
    pair, as torus_surface does, and meshes both alike."""
    pair, z = generate_torus([0.5, 0.8], 4), generate_torus(0.5 + 0.8j, 4)
    assert np.array_equal(pair.quads, z.quads)
    assert np.array_equal(pair.corners, z.corners)


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
    _, quad_after = g.rotation()
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


@pytest.mark.parametrize("field", ["vertex_class", "vertex_angles", "cone_classes", "genus"])
def test_validated_fields_are_not_parameters(field):
    """What validate() derives from the gluing cannot be passed in."""
    sq = [[0, 0], [1, 0], [1, 1], [0, 1]]
    with pytest.raises(TypeError, match=field):
        PolyhedralSurface(polygons=[sq], gluings=[((0, 0), (0, 2)), ((0, 1), (0, 3))],
                          **{field: 7})


def test_length_mismatch_error():
    rect = [[0, 0], [2, 0], [2, 1], [0, 1]]
    with pytest.raises(SurfaceError, match="length"):
        PolyhedralSurface(
            polygons=[rect],
            gluings=[((0, 0), (0, 1)), ((0, 2), (0, 3))],
        )


def test_disconnected_surface_error():
    """Six squares whose gluings leave square 2 a torus of its own, apart
    from the genus-3 surface of the other five: validation used to sum
    the Euler characteristics and accept the union as genus 3."""
    sq = np.array([[0, 0], [1, 0], [1, 1], [0, 1]], dtype=float)
    right, top = (1, 0, 2, 5, 3, 4), (4, 0, 2, 3, 5, 1)
    gluings = [pair for i in range(6)
               for pair in (((i, 1), (right[i], 3)), ((i, 2), (top[i], 0)))]
    with pytest.raises(SurfaceError, match="surface is disconnected"):
        PolyhedralSurface(polygons=[sq + [i, 0] for i in range(6)], gluings=gluings)


def _opposite_sides_glued(n):
    """The regular 2n-gon with each side glued to the opposite one."""
    t = np.pi * np.arange(2 * n) / n
    return PolyhedralSurface(polygons=[np.stack([np.cos(t), np.sin(t)], axis=1)],
                             gluings=[((0, e), (0, e + n)) for e in range(n)])


def _two_triangle_torus(tau=0.3 + 0.9j):
    z = [0, 1, 1 + tau, tau]
    xy = [[w.real, w.imag] for w in map(complex, z)]
    return PolyhedralSurface(polygons=[[xy[0], xy[1], xy[2]], [xy[0], xy[2], xy[3]]],
                             gluings=[((0, 2), (1, 0)), ((0, 0), (1, 1)), ((0, 1), (1, 2))])


@pytest.mark.parametrize("surface, links, angles, genus, cones", [
    (_opposite_sides_glued(4), [[(0, 0), (0, 3), (0, 6), (0, 1), (0, 4), (0, 7), (0, 2),
                                 (0, 5)]], [6 * math.pi], 2, [0]),
    (_opposite_sides_glued(3), [[(0, 0), (0, 2), (0, 4)], [(0, 1), (0, 3), (0, 5)]],
     [2 * math.pi, 2 * math.pi], 1, []),
    (_two_triangle_torus(), [[(0, 0), (1, 0), (0, 1), (1, 1), (0, 2), (1, 2)]],
     [2 * math.pi], 1, []),
], ids=["octagon", "hexagon", "two-triangle-torus"])
def test_vertex_links_of_non_parallelogram_polygons(surface, links, angles, genus, cones):
    """Links walk counterclockwise around each vertex from its smallest
    corner, classes numbered by that corner."""
    assert [[tuple(int(x) for x in c) for c in link] for link in surface.vertex_links] == links
    assert np.allclose(surface.vertex_angles, angles, rtol=0, atol=1e-12)
    assert surface.genus == genus
    assert surface.cone_classes == cones


def _links_one_corner_at_a_time(surface):
    """Reference for the vertex links: each class walked from its smallest
    corner through a dict of glued sides, angles summed along the walk."""
    partner = {}
    for a, b in surface.gluings:
        partner[a], partner[b] = b, a
    seen, links, angles = set(), [], []
    for corner in ((p, i) for p, poly in enumerate(surface.polygons) for i in range(len(poly))):
        link, total = [], 0.0
        while corner not in seen:
            seen.add(corner)
            link.append(corner)
            p, i = corner
            poly = surface.polygons[p]
            u, v = poly[i - 1] - poly[i], poly[(i + 1) % len(poly)] - poly[i]
            total += math.atan2(v[0] * u[1] - v[1] * u[0], float(np.dot(v, u))) % (2 * math.pi)
            corner = partner[p, (i - 1) % len(poly)]
        if link:
            links.append(link)
            angles.append(total)
    return links, angles


@pytest.mark.parametrize("surface", [
    _opposite_sides_glued(4), _opposite_sides_glued(5), _opposite_sides_glued(3),
    _two_triangle_torus(), l_shape_surface()],
    ids=["octagon", "decagon", "hexagon", "two-triangle-torus", "lshape"])
def test_vertex_links_match_a_corner_by_corner_walk(surface):
    links, angles = _links_one_corner_at_a_time(surface)
    assert [[tuple(int(x) for x in c) for c in link] for link in surface.vertex_links] == links
    assert surface.vertex_angles == angles   # same sums in the same order


def test_edge_glued_twice_error():
    sq = [[0, 0], [1, 0], [1, 1], [0, 1]]
    with pytest.raises(SurfaceError) as err:
        PolyhedralSurface(polygons=[sq], gluings=[((0, 0), (0, 2)), ((0, 1), (0, 3)),
                                                  ((0, 3), (0, 1))])
    assert str(err.value) == "edge glued twice: (0, 3) / (0, 1)"


_TWO_SQUARE_TORUS = [((0, 0), (0, 2)), ((1, 0), (1, 2)), ((0, 1), (1, 3)), ((1, 1), (0, 3))]


@pytest.mark.parametrize("gluings, row", [
    # side (0, 4) would alias the flat id of side (1, 0)
    ([_TWO_SQUARE_TORUS[0], ((0, 4), (1, 2)), *_TWO_SQUARE_TORUS[2:]], ((0, 4), (1, 2))),
    (_TWO_SQUARE_TORUS + [((2, 0), (0, 1))], ((2, 0), (0, 1))),
    (_TWO_SQUARE_TORUS + [((0, -1), (1, 5))], ((0, -1), (1, 5))),
], ids=["aliasing-side", "unknown-polygon", "negative-side"])
def test_gluing_outside_its_polygon_error(gluings, row):
    sq = np.array([[0, 0], [1, 0], [1, 1], [0, 1]], dtype=float)
    with pytest.raises(SurfaceError) as err:
        PolyhedralSurface(polygons=[sq, sq + [1, 0]], gluings=gluings)
    assert str(err.value) == f"gluing {row[0]} / {row[1]} names a side outside its polygon"


def test_vertex_classes_on_flat_corner_ids(lshape):
    """Corner i of polygon p has the flat id first[p] + i; its class is
    the link it lies in."""
    s = _opposite_sides_glued(3)
    for surface in (s, lshape):
        for k, link in enumerate(surface.vertex_links):
            assert np.all(surface.vertex_class[surface.first[link[:, 0]] + link[:, 1]] == k)
        assert len(surface.vertex_class) == sum(len(p) for p in surface.polygons)


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


@pytest.mark.parametrize("m", [2, 4])
@pytest.mark.parametrize("k", [2, 4, 8])
@pytest.mark.parametrize("surface", ["lshape", "skew_torus", "four_square_origami"])
def test_lattice_codes_match_vertices_across_levels(request, surface, k, m):
    """Scaling the coarse lattice codes finds every coarse vertex on the
    finer level: each corner of coarse cell (p, i, j) and its image are
    corners at the same chart point of fine cells of polygon p."""
    surface = request.getfixturevalue(surface)
    coarse, fine = (build_quad_graph(surface, 1 / n) for n in (k, m * k))
    ids = lattice_vertex_ids(coarse, fine).tolist()
    # the reference uses no codes: the chart points at which each vertex
    # is a corner of a fine cell of polygon p
    points = {}
    for q, (verts, zs) in enumerate(zip(fine.quads.tolist(), fine.corners)):
        for v, z in zip(verts, zs):
            points.setdefault((q // (m * k) ** 2, v), []).append(z)
    for q, (verts, zs) in enumerate(zip(coarse.quads.tolist(), coarse.corners)):
        for v, z in zip(verts, zs):
            assert np.min(np.abs(np.array(points[q // k ** 2, ids[v]]) - z)) <= 1e-12


def test_lattice_vertex_ids_need_a_multiple_cell_count(lshape):
    coarse, fine = (build_quad_graph(lshape, 1 / n) for n in (4, 6))
    with pytest.raises(SurfaceError, match="cell count 6 is not a multiple of 4"):
        lattice_vertex_ids(coarse, fine)


def test_lattice_vertex_ids_need_uniform_meshes(lshape):
    """Adapted meshes carry k and vertex codes, but their patch codes lie
    above the lattice range, and subdivided meshes carry no codes."""
    from quadperiod.refine import generate_adapted, subdivide
    adapted = [generate_adapted(lshape, 1 / n) for n in (8, 16)]
    uniform = [build_quad_graph(lshape, 1 / n) for n in (8, 16)]
    for coarse, fine in (adapted, (uniform[0], adapted[1]), (adapted[0], uniform[1]),
                         (subdivide(uniform[0]), uniform[1])):
        with pytest.raises(SurfaceError, match="need uniform lattice meshes"):
            lattice_vertex_ids(coarse, fine)


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
    unreached nodes: tree, depths and prefix sums agree with loops."""
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


def test_spanning_tree_depth_is_graph_distance(rng):
    """On a mesh's dual graph, deep enough for many levels, the depths
    equal the unweighted distances from the root (-1 where unreached)."""
    g = build_quad_graph(l_shape_surface(), 1 / 16)
    ends = g.edge_occ // 4
    for mask in (None, rng.random(len(ends)) < 0.6):
        tree = spanning_tree(g.n_quads, *ends.T, mask, root=5)
        kept = ends if mask is None else ends[mask]
        adj = csr_matrix((np.ones(len(kept)), tuple(kept.T)), shape=(g.n_quads,) * 2)
        dist = csgraph.shortest_path(adj, directed=False, unweighted=True, indices=5)
        assert tree.depth.max() > 10
        assert np.array_equal(tree.depth, np.nan_to_num(dist, posinf=-1))


# -- closed-manifold checks on hand-made raw documents ------------------------

def _raw_doc(colors, quads, corners, edges=None):
    """Raw quad-graph document; corners are complex, edges optional."""
    doc = {
        "format": 1,
        "vertices": [[i, "black" if c == 0 else "white"] for i, c in enumerate(colors)],
        "quads": [list(q) + [x for z in c for x in (z.real, z.imag)]
                  for q, c in zip(quads, corners)],
    }
    if edges is not None:
        doc["edges"] = edges
    return doc


SQUARE = [0, 1, 1 + 1j, 1j]


# the 2x2 square torus of side 1: vertex colors, quads, charts, edge ids
TORUS_2X2 = (
    np.array([0, 1, 1, 0]),
    np.array([[0, 2, 3, 1], [3, 2, 0, 1], [0, 1, 3, 2], [3, 1, 0, 2]]),
    [[0, 0.5, 0.5 + 0.5j, 0.5j], [0.5 + 0.5j, 0.5 + 1j, 1j, 0.5j],
     [1, 1 + 0.5j, 0.5 + 0.5j, 0.5], [0.5 + 0.5j, 1 + 0.5j, 1 + 1j, 0.5 + 1j]],
    np.array([[0, 1, 2, 3], [4, 0, 5, 2], [3, 6, 1, 7], [6, 5, 7, 4]]),
)


def _torus_2x2_doc(copies=1, glue=None):
    """`copies` disjoint 2x2 square tori; glue maps a vertex id of the
    disjoint union to the id it is identified with."""
    glue = glue or {}
    color, quad, corner, edge = TORUS_2X2
    colors, quads, corners, edges = [], [], [], []
    for c in range(copies):
        colors += color.tolist()
        quads += (quad + 4 * c).tolist()
        corners += [[complex(z) for z in row] for row in corner]
        edges += (edge + 8 * c).tolist()
    ids = sorted(set(range(4 * copies)) - set(glue))
    new = {v: i for i, v in enumerate(ids)}
    new.update({v: new[u] for v, u in glue.items()})
    quads = [[new[v] for v in q] for q in quads]
    colors = [colors[v] for v in ids]
    return _raw_doc(colors, quads, corners, edges)


@pytest.mark.parametrize("doc, message", [
    (_raw_doc([0, 1, 0, 1], [[0, 1, 2, 3]], [SQUARE]),
     "edge 0 lies in 1 quads (not a closed surface)"),
    # the last dart of quad 3 moves from edge 4 onto edge 1
    (_torus_2x2_doc() | {"edges": [[0, 1, 2, 3], [4, 0, 5, 2], [3, 6, 1, 7],
                                   [6, 5, 7, 1]]},
     "edge 1 lies in 3 quads (not a closed surface)"),
    (_raw_doc([0, 1, 0, 1], [[0, 1, 2, 3], [0, 1, 2, 3]], [SQUARE, SQUARE]),
     "edge 0 not traversed in opposite directions by its two quads"),
    (_raw_doc([0, 1, 0, 1], [[0, 1, 2, 3], [0, 3, 2, 1]],
              [SQUARE, [0, 2, 2 + 1j, 1j]]),
     "edge 1 has mismatched chart lengths 1.0 vs 2.0"),
    ({k: v for k, v in _torus_2x2_doc().items() if k != "edges"},
     "parallel edges between the same vertices; the quad table is "
     "ambiguous without explicit edge keys"),
    (_torus_2x2_doc(copies=2), "quad-graph is disconnected"),
])
def test_closed_manifold_errors(doc, message):
    from quadperiod.formats import graph_from_doc
    with pytest.raises(SurfaceError) as err:
        graph_from_doc(doc)
    assert str(err.value) == message


def test_dart_keys_are_read_back_from_the_edges(torus_i_2, torus_i_4):
    """A closed graph keeps its edge keys once, per edge; dart_keys gives
    the table back, and a graph built from it (or validated again) gets
    the same edges.  Without keys the parallel edges of the 2x2 torus
    are still ambiguous, and an unkeyed graph has no table."""
    keys = torus_i_2.dart_keys
    assert keys.dtype == np.int64 and keys.shape == (torus_i_2.n_quads, 4)
    g = QuadGraph(torus_i_2.color, torus_i_2.quads, torus_i_2.corners, dart_keys=keys.tolist())
    g.validate()
    assert np.array_equal(g.dart_keys, keys)
    assert np.array_equal(g.dart_edge, torus_i_2.dart_edge)
    assert np.array_equal(g.edge_ids(keys[0]), torus_i_2.dart_edge[0])
    with pytest.raises(SurfaceError, match="parallel edges .* ambiguous"):
        QuadGraph(torus_i_2.color, torus_i_2.quads, torus_i_2.corners, dart_keys=None)
    assert QuadGraph(torus_i_4.color, torus_i_4.quads, torus_i_4.corners).dart_keys is None
    open_keys = [[7, 8, 9, 10]]
    assert QuadGraph([0, 1, 0, 1], [[0, 1, 2, 3]], [[0, 1, 1 + 1j, 1j]], closed=False,
                     dart_keys=open_keys).dart_keys is open_keys


def test_pinched_vertex_link_rejected():
    # two 2x2 tori sharing one black and one white vertex: every edge is
    # fine, but the link of each shared vertex is two circles
    from quadperiod.formats import graph_from_doc
    g = graph_from_doc(_torus_2x2_doc(copies=2, glue={4: 0, 5: 1}))
    assert g.genus() == 2
    with pytest.raises(SurfaceError) as err:
        g.rotation()
    assert str(err.value) == "vertex 0 has a disconnected link"
