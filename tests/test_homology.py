import numpy as np
import pytest

from quadperiod.surface import BLACK, WHITE, SpanningTree, generate_torus
from quadperiod import dec
from quadperiod.homology import (
    HomologyError,
    basis_cycles,
    build_cocycles,
    cocycle_period,
    cycle_from_vertices,
    homology_basis,
    intersection_matrix,
    intersection_number,
    project_cycle,
    symplectic_basis,
    symplectic_reduction,
    tree_cotree,
)


def test_tree_cotree_counts_torus(torus_i_2):
    tc = tree_cotree(torus_i_2)
    assert int(tc["in_tree"].sum()) == 3
    assert int(tc["in_cotree"].sum()) == 3
    assert len(tc["leftover"]) == 2


def test_tree_cotree_counts_lshape(lshape_mesh_2):
    tc = tree_cotree(lshape_mesh_2)
    assert len(tc["leftover"]) == 4


def test_basis_cycles_close_up(torus_i_4):
    for c in basis_cycles(torus_i_4):
        n = len(c)
        for i in range(n):
            a, b = torus_i_4.edge_list[c.eids[i]]
            assert {c.verts[i], c.verts[(i + 1) % n]} == {a, b}


def test_intersection_self_zero(torus_i_4):
    for c in basis_cycles(torus_i_4):
        assert intersection_number(torus_i_4, c, c) == 0


def test_intersection_antisymmetric(lshape_mesh_2):
    cycles = basis_cycles(lshape_mesh_2)
    for c1 in cycles:
        for c2 in cycles:
            n12 = intersection_number(lshape_mesh_2, c1, c2)
            n21 = intersection_number(lshape_mesh_2, c2, c1)
            assert n12 == -n21


def test_intersection_reversal_flips_sign(lshape_mesh_2):
    cycles = basis_cycles(lshape_mesh_2)
    c1, c2 = cycles[0], cycles[1]
    assert intersection_number(lshape_mesh_2, c1.reversed(), c2) == \
        -intersection_number(lshape_mesh_2, c1, c2)


def test_torus_meridian_longitude(torus_i_2):
    loops = torus_i_2.meta["loops"]
    a = cycle_from_vertices(torus_i_2, loops["a"][0])
    b = cycle_from_vertices(torus_i_2, loops["b"][0])
    assert abs(intersection_number(torus_i_2, a, b)) == 1


def test_disjoint_cycles_zero(lshape_mesh_4):
    g = lshape_mesh_4
    loops = g.meta["loops"]
    h2 = cycle_from_vertices(g, loops["a"][1])   # the single-square cylinders
    v2 = cycle_from_vertices(g, loops["b"][1])
    C = intersection_matrix(g, [h2, v2])
    # these two cores live in different squares and never meet
    shared = set(h2.verts) & set(v2.verts)
    assert not shared
    assert C[0, 1] == 0


def test_lshape_unimodular(lshape_mesh_2):
    cycles = basis_cycles(lshape_mesh_2)
    M = intersection_matrix(lshape_mesh_2, cycles)
    assert abs(round(np.linalg.det(M.astype(float)))) == 1


def test_symplectic_reduction_identity():
    J = np.array([[0, 1], [-1, 0]])
    S, JJ = symplectic_reduction(J)
    assert np.array_equal(S @ J @ S.T, JJ)


def test_symplectic_reduction_rejects_nonunimodular():
    M = np.array([[0, 2], [-2, 0]])
    with pytest.raises(HomologyError, match="unimodular"):
        symplectic_reduction(M)


def test_symplectic_basis_lshape(lshape_mesh_2):
    g = lshape_mesh_2
    cycles = basis_cycles(g)
    a, b, S = symplectic_basis(g, cycles)
    # verify against a fresh run of the corner-counting pairing
    def chain_pairing(ch1, ch2):
        return sum(c1 * c2 * intersection_number(g, x1, x2)
                   for c1, x1 in ch1 for c2, x2 in ch2)
    for i in range(2):
        for j in range(2):
            assert chain_pairing(a[i], a[j]) == 0
            assert chain_pairing(b[i], b[j]) == 0
            assert chain_pairing(a[i], b[j]) == (1 if i == j else 0)


def test_project_torus_staircase(torus_i_2):
    g = torus_i_2
    loops = g.meta["loops"]
    a = cycle_from_vertices(g, loops["a"][0])
    dz = dec.chart_dz(g)
    for color in (BLACK, WHITE):
        pc = project_cycle(g, a, color)
        val = dec.integrate_path(g, dz, pc)
        assert np.isclose(val, 1.0), (color, val)


def test_project_reversed_flips_steps(torus_i_4):
    g = torus_i_4
    a = cycle_from_vertices(g, g.meta["loops"]["a"][0])
    fwd = project_cycle(g, a, BLACK)
    # reversing the walk swaps which side the fixed routing passes on, so
    # the exact mirror image is the reversed walk routed on the other side
    rev = project_cycle(g, a.reversed(), BLACK, clockwise=True)
    assert sorted((q, -s) for q, s in rev.steps) == sorted(fwd.steps)
    # and periods of closed forms always flip sign
    dz = dec.chart_dz(g)
    rev_ccw = project_cycle(g, a.reversed(), BLACK)
    assert np.isclose(dec.integrate_path(g, dz, rev_ccw),
                      -dec.integrate_path(g, dz, fwd))


def test_projection_routing_side_same_period(lshape_mesh_4, rng):
    """Clockwise and counterclockwise routing differ by face boundaries,
    so closed differentials cannot tell them apart."""
    g = lshape_mesh_4
    f = rng.normal(size=g.n_vertices)
    omega = dec.exterior_derivative(g, f)
    for w in g.meta["loops"]["a"] + g.meta["loops"]["b"]:
        c = cycle_from_vertices(g, w)
        for color in (BLACK, WHITE):
            ccw = dec.integrate_path(g, omega, project_cycle(g, c, color))
            cw = dec.integrate_path(g, omega, project_cycle(g, c, color, clockwise=True))
            assert np.isclose(ccw, cw, atol=1e-12)


def test_cocycle_periods_are_kronecker(lshape_mesh_2):
    basis = homology_basis(lshape_mesh_2)
    for color, sig, proj in ((BLACK, basis.sigma_black, basis.proj_black),
                             (WHITE, basis.sigma_white, basis.proj_white)):
        for j in range(4):
            for k in range(4):
                assert cocycle_period(sig[k], proj[j]) == (1 if j == k else 0)


def test_cocycle_closedness(torus_i_4):
    basis = homology_basis(torus_i_4)
    g = torus_i_4
    q = g.quads
    for k in range(2):
        res = np.zeros(g.n_vertices, dtype=np.int64)
        np.add.at(res, q[:, 1], basis.sigma_black[k])
        np.subtract.at(res, q[:, 3], basis.sigma_black[k])
        assert not res[g.color == WHITE].any()
        res = np.zeros(g.n_vertices, dtype=np.int64)
        np.add.at(res, q[:, 0], basis.sigma_white[k])
        np.subtract.at(res, q[:, 2], basis.sigma_white[k])
        assert not res[g.color == BLACK].any()


def test_torus_cocycle_support(torus_i_2):
    """On the 2x2 torus the a-cycle cocycle concentrates on the black
    diagonals crossing one cut, with values of modulus 1."""
    basis = homology_basis(torus_i_2)
    sig = basis.sigma_black[0]
    support = sig[sig != 0]
    assert set(np.abs(support)) == {1}
    assert 1 <= len(support) <= 2


def test_exact_shift_leaves_periods(torus_i_4, rng):
    """Adding the coboundary of a vertex indicator never changes periods."""
    g = torus_i_4
    basis = homology_basis(g)
    sig = basis.sigma_black[1].astype(float)
    v = int(rng.integers(0, g.n_vertices))
    while g.color[v] != BLACK:
        v = int(rng.integers(0, g.n_vertices))
    ind = np.zeros(g.n_vertices)
    ind[v] = 1.0
    q = g.quads
    shift = ind[q[:, 2]] - ind[q[:, 0]]
    omega0 = dec.Differential(sig / 2.0, np.zeros(g.n_quads))
    omega1 = dec.Differential((sig + shift) / 2.0, np.zeros(g.n_quads))
    for j in range(2):
        p0 = dec.integrate_path(g, omega0, _one(basis.proj_black[j]))
        p1 = dec.integrate_path(g, omega1, _one(basis.proj_black[j]))
        assert np.isclose(p0, p1)


def _one(chain_proj):
    assert len(chain_proj) == 1 and chain_proj[0][0] == 1
    return chain_proj[0][1]


def test_homology_basis_torus_reference(torus_skew_4):
    basis = homology_basis(torus_skew_4)
    assert basis.genus == 1
    M = basis.intersection_before
    assert abs(M[0, 1]) == 1


def test_cocycle_closedness_check_fires(lshape_mesh_2, monkeypatch):
    """Wrong values on the dual tree diagonals are caught face by face."""
    monkeypatch.setattr(SpanningTree, "subtree_sums", lambda self, v: 0 * v)
    with pytest.raises(HomologyError, match="not closed"):
        homology_basis(lshape_mesh_2)
