import math
import re

import numpy as np
import pytest

from quadperiod.surface import (
    SurfaceError,
    generate_torus,
    l_shape_surface,
    build_quad_graph,
    mesh_stats,
    spanning_tree,
    validate_h_adapted,
    develop_cone_disk,
)
from quadperiod import refine
from quadperiod.refine import (
    RefineError,
    generate_adapted,
    subdivide,
    sweep,
)
from quadperiod.homology import homology_basis
from quadperiod.periods import period_matrices


def test_subdivide_torus_matches_finer_grid(torus_i_2):
    g2 = subdivide(torus_i_2)
    g4 = generate_torus(1j, 4)
    assert g2.n_quads == g4.n_quads == 16
    assert g2.n_vertices == g4.n_vertices
    assert g2.genus() == 1
    s2, s4 = mesh_stats(g2), mesh_stats(g4)
    assert np.isclose(s2.h, s4.h)
    assert np.isclose(s2.area, s4.area)
    assert np.isclose(s2.phi_min, s4.phi_min)


def test_subdivide_preserves_area_and_genus(lshape_mesh_2):
    g = lshape_mesh_2
    for _ in range(3):
        g2 = subdivide(g)
        assert g2.genus() == g.genus() == 2
        assert np.isclose(np.sum(g2.area), np.sum(g.area), rtol=1e-12)
        assert np.isclose(mesh_stats(g2).h, mesh_stats(g).h / 2, rtol=1e-12)
        g = g2


def test_subdivide_parallelogram_rho_preserved(torus_skew_4):
    g2 = subdivide(torus_skew_4)
    vals = set(np.round(torus_skew_4.diagonal_ratio, 10))
    vals2 = set(np.round(g2.diagonal_ratio, 10))
    assert vals2 == vals


def test_subdivide_keeps_loops_usable(torus_i_2):
    g2 = subdivide(torus_i_2)
    basis = homology_basis(g2)
    pm = period_matrices(g2, basis)
    assert np.allclose(pm.pi, [[1j]], atol=1e-9)


def test_generate_adapted_torus_is_uniform():
    s_doc = generate_torus(1j, 8)
    from quadperiod.surface import load_surface
    surf = load_surface({"format": 1, "generator": {"kind": "torus", "tau": [0.0, 1.0]}})
    g = generate_adapted(surf, 1 / 8)
    assert g.n_quads == 64
    assert validate_h_adapted(g, 1 / 8)["passed"]


def test_generate_adapted_lshape_passes_validator(lshape):
    for k in (8, 16):
        g = generate_adapted(lshape, 1.0 / k)
        rep = validate_h_adapted(g, 1.0 / k)
        assert rep["passed"], rep
        st = mesh_stats(g)
        assert st.genus == 2
        assert np.isclose(st.area, 3.0, rtol=1e-12)
        assert st.phi_min >= math.pi / 12


def test_adapted_innermost_scale(lshape):
    """Ring radii near the cone reach the cube of the edge target: index
    1/3 turns a length-h image into an h^3-sized neighborhood."""
    k = 16
    g = generate_adapted(lshape, 1.0 / k)
    cone = g.cones[0]
    quads, dev, _ = develop_cone_disk(g, cone)
    fan = np.any(g.quads[quads] == cone.vertex, axis=1)
    rmin = float(np.min(np.sort(np.abs(dev[fan]), axis=1)[:, 1]))
    h = 1.0 / k
    # safety factors and the coloring-parity ring push somewhat below h^3
    assert h ** 3 / 500 < rmin < 5 * h ** 3


@pytest.mark.parametrize("adapted", [True, False])
def test_worst_cone_image_matches_loop_reference(lshape, adapted):
    """validate_h_adapted measures all disk edges at once; the per-edge
    loop it replaced is the reference (vectorized powers may differ in
    the last bits)."""
    from quadperiod.surface import GEOM_TOL, cone_image
    h = 1 / 16
    g = generate_adapted(lshape, h) if adapted else build_quad_graph(lshape, h)
    cone = g.cones[0]
    _, dev, psi = develop_cone_disk(g, cone)
    want = 0.0
    for z, a in zip(dev, psi):
        r = np.abs(z)
        for s in range(4):
            t = (s + 1) % 4
            if max(r[s], r[t]) > cone.radius:
                continue
            if r[s] < GEOM_TOL or r[t] < GEOM_TOL:
                img = max(r[s], r[t]) ** cone.index
            else:
                img = abs(cone_image(r[s], a[s], cone.index) - cone_image(r[t], a[t], cone.index))
            want = max(want, img)
    got = validate_h_adapted(g, h)[f"cone_{cone.vertex}_worst_image"]
    assert abs(got - want) <= 8 * np.finfo(float).eps * want


def test_adapted_edge_length_bound(lshape):
    """Edges in the cone disk obey the adapted-mesh length bound
    |xy| <= (1 + pi/(2*gamma)) * h * r^(1-gamma) with r the farther
    endpoint radius."""
    k = 16
    h = 1.0 / k
    g = generate_adapted(lshape, h)
    cone = g.cones[0]
    gamma = cone.index
    C = 1.0 + math.pi / (2.0 * gamma)
    quads, dev, _ = develop_cone_disk(g, cone)
    checked = 0
    for q, z in zip(quads, dev):
        r = np.abs(z)
        for s in range(4):
            t = (s + 1) % 4
            if max(r[s], r[t]) > cone.radius or min(r[s], r[t]) <= 0:
                continue
            L = abs(z[t] - z[s])
            bound = C * h * max(r[s], r[t]) ** (1.0 - gamma)
            assert L <= bound * (1 + 1e-9), (q, s, L, bound)
            checked += 1
    assert checked > 100


def test_adapted_uniform_region_untouched(lshape):
    """Away from the cone patches the adapted mesh is the plain grid."""
    k = 8
    g = generate_adapted(lshape, 1.0 / k)
    gu = build_quad_graph(lshape, 1.0 / k)
    # count unit-square cells: all cells at distance > 1/4 from corners
    patch_cells = (k // 4) ** 2 * 12  # 12 quarter blocks removed
    assert g.n_quads > gu.n_quads - patch_cells


def test_adapted_requires_power_of_two(lshape):
    with pytest.raises(RefineError):
        generate_adapted(lshape, 1.0 / 12)


@pytest.mark.parametrize("h, error", [
    (0, SurfaceError), (math.nan, SurfaceError), (math.inf, SurfaceError),
    (-0.25, SurfaceError), (0.3, SurfaceError), (0.5, RefineError),
])
def test_adapted_bad_cell_size_is_a_typed_error_naming_it(lshape, h, error):
    """The cell-size check of build_quad_graph, then the power-of-two
    rule; each message names the cell size as given."""
    with pytest.raises(error, match=f"^cell size {re.escape(str(h))} is not 1/k for an? "):
        generate_adapted(lshape, h)


def test_sweep_uniform(lshape):
    levels = sweep(lshape, 3, adapted=False, base_cell=0.5)
    hs = [l.stats.h for l in levels]
    assert hs == sorted(hs, reverse=True)
    assert all(l.stats.genus == 2 for l in levels)
    assert np.allclose([l.stats.area for l in levels], 3.0, rtol=1e-12)


def test_sweep_adapted(lshape):
    levels = sweep(lshape, 2, adapted=True, base_cell=1 / 8)
    for l in levels:
        assert validate_h_adapted(l.graph, l.stats.h)["passed"]


def test_sweep_torus_h_sequence():
    from quadperiod.surface import load_surface
    surf = load_surface({"format": 1, "generator": {"kind": "torus", "tau": [0.0, 1.0]}})
    levels = sweep(surf, 5, base_cell=0.5)
    assert np.allclose([l.stats.h for l in levels],
                       [1 / 2, 1 / 4, 1 / 8, 1 / 16, 1 / 32])


def test_subdivide_adapted_mesh(lshape):
    """Subdivision handles the graded patches too, including the straight
    transition corners; genus and area survive."""
    g = generate_adapted(lshape, 1 / 8)
    g2 = subdivide(g)
    assert g2.genus() == 2
    assert np.isclose(np.sum(g2.area), 3.0, rtol=1e-12)
    assert mesh_stats(g2).h <= mesh_stats(g).h / 2 + 1e-12


def test_sweep_raw_quad_graph(torus_i_2):
    levels = sweep(torus_i_2, 3)
    assert [l.stats.n_quads for l in levels] == [4, 16, 64]
    assert all(l.stats.genus == 1 for l in levels)


def test_adapted_roundtrip(lshape, tmp_path):
    from quadperiod.formats import read_graph, write_graph
    g = generate_adapted(lshape, 1 / 8)
    path = tmp_path / "adapted.json"
    write_graph(str(path), g)
    g2 = read_graph(str(path))
    assert g2.n_quads == g.n_quads
    st1, st2 = mesh_stats(g), mesh_stats(g2)
    assert np.isclose(st1.h, st2.h, rtol=0, atol=0)
    assert np.isclose(st1.phi_min, st2.phi_min, rtol=0, atol=0)
    assert validate_h_adapted(g2, 1 / 8)["passed"]


def test_cone_fan_must_close_up(four_square_origami):
    """Cone rows claiming 3*pi and 5*pi keep Gauss-Bonnet, so the raw
    document loads; the 5*pi cone (index 2/5) is developed, and its fan
    of quads sums to 4*pi."""
    from quadperiod.formats import graph_from_doc, graph_to_doc
    from quadperiod.surface import SurfaceError
    doc = graph_to_doc(build_quad_graph(four_square_origami, 1 / 8))
    for row, angle in zip(doc["cones"], (3 * math.pi, 5 * math.pi)):
        row[1] = angle
    g = graph_from_doc(doc)
    with pytest.raises(SurfaceError, match="cone fan does not close up"):
        validate_h_adapted(g, 1 / 8)


def _bfs_colors(n, quads):
    """Reference two-coloring by breadth-first depth parity from vertex 0,
    the first cone; the vertex graph must have no odd cycle."""
    a, b = np.ravel(quads), np.roll(quads, -1, axis=1).ravel()
    colors = spanning_tree(n, a, b).depth % 2
    odd = np.flatnonzero(colors[a] == colors[b])
    assert not len(odd), f"odd cycle through vertices {a[odd[0]]} and {b[odd[0]]}"
    return colors


ADAPTED_SURFACES = {"lshape": l_shape_surface, "two-cones": lambda: _two_cone_origami()}


@pytest.mark.parametrize("k", [8, 16, 32, 64])
@pytest.mark.parametrize("name", sorted(ADAPTED_SURFACES))
def test_adapted_colors_match_bfs_parity(name, k):
    """The colors the lattice and the cone patches give their vertices
    are the breadth-first depth parities from the first cone."""
    g = generate_adapted(ADAPTED_SURFACES[name](), 1 / k)
    assert g.cones[0].vertex == 0
    assert np.array_equal(g.color, _bfs_colors(g.n_vertices, g.quads))


def test_patch_vertex_with_wrong_color_is_rejected(lshape, monkeypatch):
    """One vertex of the first ring inside the patch boundary, given the
    wrong color by its patch, breaks the alternation QuadGraph.validate
    checks around every quad."""
    cone_patch = refine._cone_patch

    def miscolored(*args):
        (order, colors, *rest), end = cone_patch(*args)
        inner = order == order[np.argmax(order >= args[-1])]   # args[-1]: first patch code
        colors[inner] ^= 1
        return [order, colors, *rest], end

    monkeypatch.setattr(refine, "_cone_patch", miscolored)
    with pytest.raises(SurfaceError, match="does not alternate"):
        generate_adapted(lshape, 1 / 8)


def _dfs_development(graph, cone):
    """Reference cone-disk development, the per-quad depth-first search
    that the spanning-tree development replaced (here on Python scalars):
    the fan is laid out sector by sector in rotation order, then quads
    are developed across shared edges while they come within
    cone.radius.  Returns dicts quad -> developed corners and quad ->
    unwrapped corner angles."""
    import cmath
    from quadperiod.surface import TWO_PI, SurfaceError

    def unwrap(angle, ref):
        return angle + TWO_PI * round((ref - angle) / TWO_PI)

    v0, R = cone.vertex, cone.radius
    corners = graph.corners.tolist()
    _, quad_after = graph.rotation()
    fan = quad_after[v0]
    dev, psi, total = {}, {}, 0.0
    for q in fan:
        s = graph.quads[q].tolist().index(v0)
        z = [c - corners[q][s] for c in corners[q]]
        wedge = cmath.phase(z[(s - 1) % 4] / z[(s + 1) % 4]) % TWO_PI
        rotate = cmath.exp(1j * (total - cmath.phase(z[(s + 1) % 4])))
        dev[q] = [c * rotate for c in z]
        psi[q] = [unwrap(cmath.phase(c), total + wedge / 2) for c in dev[q]]
        psi[q][s] = math.nan
        total += wedge
    if abs(total - cone.angle) > 1e-7:
        raise SurfaceError("cone fan does not close up to the stored angle")
    dart_edge, edge_occ = graph.dart_edge.tolist(), graph.edge_occ.tolist()
    frontier, seen = list(fan), set(fan)
    while frontier:
        q = frontier.pop()
        zq = dev[q]
        if min(map(abs, zq)) > R:
            continue
        for s in range(4):
            d1, d2 = edge_occ[dart_edge[q][s]]
            q2, s2 = divmod(d2 if d1 == 4 * q + s else d1, 4)
            if q2 in seen:
                continue
            # the shared edge runs s -> s+1 in q and s2 -> s2+1 in q2
            za, zb = zq[s], zq[(s + 1) % 4]
            w = corners[q2]
            wa, wb = w[(s2 + 1) % 4], w[s2]
            alpha = (zb - za) / (wb - wa)
            beta = za - alpha * wa
            z2 = [alpha * c + beta for c in w]
            if min(map(abs, z2)) > R:
                continue
            dev[q2] = z2
            ref = psi[q][s if not math.isnan(psi[q][s]) else (s + 1) % 4]
            psi[q2] = [unwrap(cmath.phase(c), ref) for c in z2]
            seen.add(q2)
            frontier.append(q2)
    return dev, psi


def _origami(right, top):
    """Unit squares in a row, rights glued to lefts by the permutation
    right and tops to bottoms by top."""
    from quadperiod.surface import PolyhedralSurface
    sq = np.array([[0, 0], [1, 0], [1, 1], [0, 1]], dtype=float)
    gluings = [pair for i in range(len(right))
               for pair in (((i, 1), (right[i], 3)), ((i, 2), (top[i], 0)))]
    return PolyhedralSurface(polygons=[sq + [i, 0] for i in range(len(right))],
                             gluings=gluings)


def _two_cone_origami():
    return _origami((0, 1, 3, 2), (2, 3, 0, 1))


DEVELOPMENT_CORPUS = {
    "lshape-16": lambda: build_quad_graph(l_shape_surface(), 1 / 16),
    "lshape-64": lambda: build_quad_graph(l_shape_surface(), 1 / 64),
    **{f"lshape-adapted-{k}": (lambda k=k: generate_adapted(l_shape_surface(), 1 / k))
       for k in (8, 16, 32, 64, 128)},
    "origami-two-cones-adapted-8": lambda: generate_adapted(_two_cone_origami(), 1 / 8),
    "origami-two-cones-adapted-32": lambda: generate_adapted(_two_cone_origami(), 1 / 32),
    "origami-two-cones-16": lambda: build_quad_graph(_two_cone_origami(), 1 / 16),
    # a whole-surface development puts quads of other sheets inside the
    # disks of both cones
    "origami-six-squares-8": lambda: build_quad_graph(
        _origami((5, 3, 1, 4, 2, 0), (0, 2, 5, 1, 3, 4)), 1 / 8),
}


@pytest.mark.parametrize("name", sorted(DEVELOPMENT_CORPUS))
def test_development_matches_dfs_reference(name):
    """Against the depth-first reference: the same validate_h_adapted
    verdict, worst cone images within 1e-12 h, and the same corner radii
    on every quad placed wholly inside the disk.  The reference places a
    few more quads there, all at the rim, where the disk need not be
    embedded."""
    from quadperiod.surface import GEOM_TOL, cone_image
    g = DEVELOPMENT_CORPUS[name]()
    h = 1 / g.meta["k"]
    report = validate_h_adapted(g, h)
    passed = mesh_stats(g).h <= h * (1 + 1e-9)
    for cone in g.cones:
        if not cone.is_singular or cone.index > 0.5 + 1e-12:
            continue
        dev, psi = _dfs_development(g, cone)
        ref = np.array(list(dev))
        r, a = np.abs(np.array(list(dev.values()))), np.array(list(psi.values()))
        r2, a2 = np.roll(r, -1, axis=1), np.roll(a, -1, axis=1)
        with np.errstate(invalid="ignore"):
            img = np.where((r < GEOM_TOL) | (r2 < GEOM_TOL), np.maximum(r, r2) ** cone.index,
                           np.abs(cone_image(r, a, cone.index) - cone_image(r2, a2, cone.index)))
        want = float(np.max(img, where=np.maximum(r, r2) <= cone.radius, initial=0.0))
        passed = passed and want <= h * (1 + 1e-9)
        assert abs(report[f"cone_{cone.vertex}_worst_image"] - want) <= 1e-12 * h
        # every quad placed wholly inside the disk is placed there by the
        # reference too, at the same radii; the reference's other quads
        # wholly inside reach the rim, within h of cone.radius
        quads, got, _ = develop_cone_disk(g, cone)
        inside = np.max(np.abs(got), axis=1) <= cone.radius
        common, mine, theirs = np.intersect1d(quads[inside], ref, return_indices=True)
        assert len(common) == np.sum(inside) > 0
        assert np.all(np.max(r[theirs], axis=1) <= cone.radius)
        assert np.max(np.abs(np.abs(got[inside][mine]) - r[theirs])) <= 1e-12
        rest = np.delete(np.max(r, axis=1), theirs)
        assert np.all(rest[rest <= cone.radius] > cone.radius - h)
    assert report["passed"] == passed


def test_adapted_sweep_measures_each_mesh_once(lshape, monkeypatch):
    """The angle floor, the adapted-mesh validation and the sweep's own
    checks share one mesh_stats computation per level."""
    from quadperiod import surface
    measured, real = [], surface._mesh_stats
    monkeypatch.setattr(surface, "_mesh_stats", lambda g: measured.append(g) or real(g))
    levels = sweep(lshape, 2, adapted=True, base_cell=1 / 8)
    assert len(measured) == 2
    assert all(a is lvl.graph for a, lvl in zip(measured, levels))
    assert all(mesh_stats(lvl.graph) is lvl.stats for lvl in levels)
