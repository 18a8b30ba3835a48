import copy
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies

from quadperiod.surface import BLACK, WHITE, build_quad_graph, generate_torus
from quadperiod import dec, homology
from quadperiod.homology import (
    Cycle,
    HomologyError,
    basis_cycles,
    basis_from_cycles,
    cycle_from_vertices,
    homology_basis,
    intersection_matrix,
    intersection_number,
    period_cocycles,
    project_cycle,
    standard_form,
    symplectic_reduction,
    tree_cotree,
)
from test_mesh_golden import CORPUS as MESH_CORPUS, _origami


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
    # determinant 9: a unit pair, then a pair with pivot 3
    M = np.array([[0, 3, 0, 0], [-3, 0, 0, 0], [0, 0, 0, 1], [0, 0, -1, 0]])
    with pytest.raises(HomologyError, match="not unimodular"):
        symplectic_reduction(M)


def test_symplectic_reduction_euclid_step():
    """Pfaffian 2*5 - 3*3 = 1 but smallest entry 2: the pivot's row holds
    a 3, so a Euclid step must shrink the entries before a unit pivot."""
    M = np.zeros((4, 4), dtype=np.int64)
    M[0, 1], M[0, 2], M[1, 3], M[2, 3] = 2, 3, 3, 5
    M -= M.T
    S, J = symplectic_reduction(M)
    assert np.array_equal(J, standard_form(2))
    assert np.array_equal(S @ M @ S.T, J)


def test_symplectic_basis_lshape(lshape_mesh_2):
    g = lshape_mesh_2
    basis = basis_from_cycles(g, basis_cycles(g))
    a, b = basis.a_chains, basis.b_chains
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


def test_spur_changes_no_pairing_or_period(lshape_mesh_4):
    """A there-and-back spur v, u, v along one edge is null-homologous:
    with its far end u on another basis cycle, it changes no intersection
    number and no period of a closed form.  At u the walk makes a U-turn,
    a backtracking corner with an empty fan.  The spur runs along an edge
    of another cycle, so that cycle meets the U-turn's own edge."""
    g = lshape_mesh_4
    cycles = basis_cycles(g)
    c = cycles[0]
    on_others = {e for o in cycles[1:] for e in o.eids}
    rot, _ = g.rotation()
    k, e = next((k, e) for k, v in enumerate(c.verts) for e in rot[v]
                if e in on_others and e not in (c.eids[k - 1], c.eids[k]))
    u = next(x for x in g.edge_list[e].tolist() if x != c.verts[k])
    spurred = Cycle(c.verts[:k + 1] + [u] + c.verts[k:], c.eids[:k] + [e, e] + c.eids[k:])
    for other in cycles:
        assert intersection_number(g, spurred, other) == intersection_number(g, c, other)
        assert intersection_number(g, other, spurred) == intersection_number(g, other, c)
    dz = dec.chart_dz(g)
    for color in (BLACK, WHITE):
        for clockwise in (False, True):
            want = dec.integrate_path(g, dz, project_cycle(g, c, color, clockwise))
            got = dec.integrate_path(g, dz, project_cycle(g, spurred, color, clockwise))
            assert np.isclose(got, want, rtol=0, atol=1e-12)


def test_walk_off_its_edges_rejected(torus_i_4):
    """A walk step whose edge does not leave its vertex is a typed error,
    not a rotation position."""
    g = torus_i_4
    c = cycle_from_vertices(g, g.meta["loops"]["a"][0])
    far = next(e for e in range(g.n_edges()) if c.verts[1] not in g.edge_list[e])
    broken = Cycle(c.verts, c.eids[:1] + [far] + c.eids[2:])
    with pytest.raises(HomologyError, match="walk step 1"):
        intersection_number(g, broken, c)
    with pytest.raises(HomologyError, match="walk step 1"):
        project_cycle(g, broken, BLACK)


def test_cocycle_periods_are_kronecker(lshape_mesh_2):
    basis = homology_basis(lshape_mesh_2)
    for op, sig in ((basis.op_black, basis.sigma_black),
                    (basis.op_white, basis.sigma_white)):
        assert op.shape == (4, lshape_mesh_2.n_quads)
        assert np.array_equal(op @ sig.T, np.eye(4, dtype=np.int64))


def test_sigma_is_made_from_the_float_cocycles(lshape_mesh_4):
    """The basis holds the cocycles once, as float (F, 2g) matrices;
    sigma is their integer transpose, made on access."""
    basis = homology_basis(lshape_mesh_4)
    for sig, cocycles in ((basis.sigma_black, basis.cocycles_black),
                          (basis.sigma_white, basis.cocycles_white)):
        assert sig.dtype == np.int64 and sig.shape == (4, lshape_mesh_4.n_quads)
        assert np.array_equal(sig, cocycles.T.toarray())
        assert cocycles.dtype == float and cocycles.has_canonical_format


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
    for chain in basis.a_chains + basis.b_chains:
        assert len(chain) == 1 and chain[0][0] == 1
        path = project_cycle(g, chain[0][1], BLACK)
        assert np.isclose(dec.integrate_path(g, omega0, path),
                          dec.integrate_path(g, omega1, path))


def test_homology_basis_torus_reference(torus_skew_4):
    basis = homology_basis(torus_skew_4)
    assert basis.genus == 1
    M = basis.intersection_before
    assert abs(M[0, 1]) == 1


def test_projection_product_is_intersection_matrix(lshape_mesh_4):
    """The pairing basis_from_cycles reduces is the corner-counting one."""
    g = lshape_mesh_4
    cycles = basis_cycles(g)
    assert np.array_equal(basis_from_cycles(g, cycles).intersection_before,
                          intersection_matrix(g, cycles))


def test_cocycle_closedness_check_fires(lshape_mesh_2):
    """A projected white path with one diagonal dropped is open, so the
    black cocycle it makes is not closed; operators that do not pair to J
    give closed cocycles with wrong periods."""
    basis = homology_basis(lshape_mesh_2)
    op_white = basis.op_white.toarray()
    op_white[0, np.flatnonzero(op_white[0])[0]] = 0
    with pytest.raises(HomologyError, match="not closed"):
        period_cocycles(lshape_mesh_2, basis.op_black, op_white)
    swapped = basis.op_black[[1, 0, 2, 3]]
    with pytest.raises(HomologyError, match="not the identity"):
        period_cocycles(lshape_mesh_2, swapped, basis.op_white)


def test_loops_of_a_sublattice_fall_back_to_tree_cotree(torus_i_4):
    """Reference loops a twice and b pair to 2: the reduction fails, and
    the basis is the tree-cotree one."""
    g = copy.copy(torus_i_4)
    a, b = g.meta["loops"]["a"][0], g.meta["loops"]["b"][0]
    twice = {"verts": list(a["verts"]) * 2, "edge_keys": list(a["edge_keys"]) * 2}
    g.meta = dict(g.meta, loops={"a": [twice], "b": [b]})
    basis, want = homology_basis(g), basis_from_cycles(g, basis_cycles(g))
    assert np.array_equal(basis.transform, want.transform)
    assert [[(c, x.eids) for c, x in ch] for ch in basis.a_chains + basis.b_chains] == \
        [[(c, x.eids) for c, x in ch] for ch in want.a_chains + want.b_chains]


def test_cocycle_failure_does_not_fall_back(lshape_mesh_2, monkeypatch):
    calls = []

    def broken(*args):
        calls.append(args)
        raise HomologyError("cocycle is not closed at every face")
    monkeypatch.setattr(homology, "period_cocycles", broken)
    with pytest.raises(HomologyError, match="not closed"):
        homology_basis(lshape_mesh_2)
    assert len(calls) == 1


def _rref_pivots(M):
    """Pivot columns of the reduced row echelon form of an integer matrix
    over the rationals."""
    rows = [[Fraction(int(x)) for x in row] for row in np.asarray(M)]
    pivots = []
    for col in range(len(rows[0]) if rows else 0):
        r = len(pivots)
        piv = next((i for i in range(r, len(rows)) if rows[i][col] != 0), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = rows[r][col]
        rows[r] = [x / inv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][col] != 0:
                f = rows[i][col]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(col)
        if len(pivots) == len(rows):
            break
    return pivots


def greedy_spanning_rows(M, rank):
    """Reference selection: keep candidate i when adding its row of M to
    the rows kept so far raises their rank, one exact row reduction per
    candidate, until rank rows are kept."""
    chosen = []
    r_now = 0
    for i in range(len(M)):
        trial = chosen + [i]
        r_new = len(_rref_pivots(M[trial, :]))
        if r_new > r_now:
            chosen = trial
            r_now = r_new
        if len(chosen) == rank:
            break
    if len(chosen) != rank:
        raise HomologyError(f"cycles span rank {r_now}, need {rank}")
    return chosen


def assert_selection_is_greedy(M):
    """The one elimination keeps the rows the greedy keeps, and the greedy
    finds no further independent row."""
    keep = homology._independent_rows(M)
    assert greedy_spanning_rows(M, len(keep)) == keep
    with pytest.raises(HomologyError, match=f"span rank {len(keep)}, need"):
        greedy_spanning_rows(M, len(keep) + 1)


@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(n=strategies.integers(1, 7), rank=strategies.integers(0, 7),
       antisymmetric=strategies.booleans(), seed=strategies.integers(0, 2**32 - 1))
def test_independent_rows_match_greedy(n, rank, antisymmetric, seed):
    """Integer matrices of rank at most `rank` (a product of random
    factors, with repeated and zero rows), antisymmetrised or not."""
    rng = np.random.default_rng(seed)
    M = rng.integers(-2, 3, (n, rank)) @ rng.integers(-2, 3, (rank, n))
    if antisymmetric:
        M = M - M.T
    assert_selection_is_greedy(M)


def _three_square_torus():
    """Three unit squares in a row glued to a 3 x 1 torus: one loop along
    the row and three across it, four reference loops for g = 1."""
    return build_quad_graph(_origami((1, 2, 0), (0, 1, 2)), 1 / 2)


@pytest.mark.parametrize("mesh, rows, builds", [
    ("lshape_mesh_8", [4], 0),
    ("torus_i_4", [2], 0),
    (_three_square_torus, [4], 0),   # the four loops span
    (MESH_CORPUS["origami-one-cone-4"], [3, 7], 1),   # three loops of rank 2, for g = 2
], ids=["lshape-8", "torus-i-4", "torus-3x1", "origami-one-cone-4"])
def test_each_candidate_set_is_eliminated_once(mesh, rows, builds, request, monkeypatch):
    """homology_basis eliminates each candidate set it tries once (the
    row counts of the eliminations), and builds tree-cotree cycles only
    when the reference loops alone fail."""
    g = request.getfixturevalue(mesh) if isinstance(mesh, str) else mesh()
    eliminated, built = [], []
    independent_rows, cycles = homology._independent_rows, homology.basis_cycles
    monkeypatch.setattr(homology, "_independent_rows",
                        lambda M: eliminated.append(len(M)) or independent_rows(M))
    monkeypatch.setattr(homology, "basis_cycles", lambda graph: built.append(1) or cycles(graph))
    homology_basis(g)
    assert eliminated == rows and len(built) == builds
