import math
from types import SimpleNamespace

import numpy as np
import pytest

from quadperiod.surface import (
    generate_torus,
    l_shape_surface,
    build_quad_graph,
    mesh_stats,
    validate_h_adapted,
    develop_cone_disk,
)
from quadperiod.refine import (
    RefineError,
    _bipartite_colors,
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
    dev, _ = develop_cone_disk(g, cone)
    rot, _, quad_after = g.rotation()
    rmin = min(float(np.sort(np.abs(dev[q]))[1])
               for q in quad_after[cone.vertex])
    h = 1.0 / k
    # safety factors and the coloring-parity ring push somewhat below h^3
    assert h ** 3 / 500 < rmin < 5 * h ** 3


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
    dev, _ = develop_cone_disk(g, cone)
    checked = 0
    for q, z in dev.items():
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


def test_bipartite_colors_rejects_odd_cycle():
    """Quads (0,1,2,3) and (0,2,4,5) close the triangle 0-1-2."""
    reg = SimpleNamespace(keys=[None] * 6)
    assert list(_bipartite_colors(None, reg, [(0, 1, 2, 3)])[:4]) == [0, 1, 0, 1]
    with pytest.raises(RefineError, match="not bipartite"):
        _bipartite_colors(None, reg, [(0, 1, 2, 3), (0, 2, 4, 5)])
