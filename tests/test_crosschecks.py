"""End-to-end consistency checks that tie several modules together."""

import numpy as np
import pytest

from quadperiod import dec
from quadperiod.homology import (
    HomologyBasis,
    basis_cycles,
    build_cocycles,
    homology_basis,
    intersection_number,
    project_cycle,
    symplectic_basis,
)
from quadperiod.periods import period_matrices
from quadperiod.surface import (
    BLACK, WHITE, PolyhedralSurface, SurfaceError, build_quad_graph)
from quadperiod.formats import graph_to_doc, graph_from_doc


def _basis_from_cycles(graph, cycles):
    """Assemble a HomologyBasis from explicit primitive cycles (the same
    steps homology_basis performs, but starting from the given cycles)."""
    from quadperiod.homology import intersection_matrix
    M = intersection_matrix(graph, cycles)
    a_chains, b_chains, S = symplectic_basis(graph, cycles, M)
    chains = a_chains + b_chains
    proj_black = [[(c, project_cycle(graph, cyc, BLACK)) for c, cyc in ch]
                  for ch in chains]
    proj_white = [[(c, project_cycle(graph, cyc, WHITE)) for c, cyc in ch]
                  for ch in chains]
    return HomologyBasis(
        graph=graph, a_chains=a_chains, b_chains=b_chains,
        proj_black=proj_black, proj_white=proj_white,
        sigma_black=build_cocycles(graph, proj_black, BLACK),
        sigma_white=build_cocycles(graph, proj_white, WHITE),
        intersection_before=M, transform=S)


def _chain_pairing(graph, ch1, ch2):
    return sum(c1 * c2 * intersection_number(graph, x1, x2)
               for c1, x1 in ch1 for c2, x2 in ch2)


def _change_of_basis(g, basis1, basis2):
    """Integer symplectic matrix expressing basis2 in basis1 coordinates:
    [c] = sum x_i a_i + y_i b_i with x_i = c.b_i and y_i = -(c.a_i)."""
    gen = basis1.genus

    def coords(chain):
        x = [_chain_pairing(g, chain, basis1.b_chains[i]) for i in range(gen)]
        y = [-_chain_pairing(g, chain, basis1.a_chains[i]) for i in range(gen)]
        return x, y

    A = np.zeros((gen, gen), dtype=np.int64)
    B = np.zeros((gen, gen), dtype=np.int64)
    C = np.zeros((gen, gen), dtype=np.int64)
    D = np.zeros((gen, gen), dtype=np.int64)
    for i in range(gen):
        A[i], B[i] = coords(basis2.a_chains[i])
        C[i], D[i] = coords(basis2.b_chains[i])
    T = np.block([[A, B], [C, D]])
    J = np.zeros((2 * gen, 2 * gen), dtype=np.int64)
    J[:gen, gen:] = np.eye(gen, dtype=np.int64)
    J[gen:, :gen] = -np.eye(gen, dtype=np.int64)
    assert np.array_equal(T @ J @ T.T, J)
    return A, B, C, D


def test_period_linearity_across_bases(lshape_mesh_4):
    """Periods of a closed differential along the second basis equal the
    integer combinations of its periods along the first: exact homology
    invariance tying two independently constructed bases together."""
    from quadperiod.harmonic import assemble
    from quadperiod.periods import canonical_differentials

    g = lshape_mesh_4
    basis1 = homology_basis(g)
    basis2 = _basis_from_cycles(g, basis_cycles(g))
    A, B, C, D = _change_of_basis(g, basis1, basis2)
    cb = canonical_differentials(g, basis1, assemble(g, basis1))
    gen = basis1.genus
    for omega in cb.equal_split + cb.black_normalized:
        p1 = dec.measure_periods(g, omega, basis1)
        p2 = dec.measure_periods(g, omega, basis2)
        for pa1, pb1, pa2, pb2 in (
                (p1.a_black, p1.b_black, p2.a_black, p2.b_black),
                (p1.a_white, p1.b_white, p2.a_white, p2.b_white)):
            assert np.allclose(pa2, A @ pa1 + B @ pb1, atol=1e-9)
            assert np.allclose(pb2, C @ pa1 + D @ pb1, atol=1e-9)


def test_modular_transformation_in_the_limit(lshape):
    """The two bases' period matrices are related by the modular action
    (C + D P)(A + B P)^(-1) up to the black/white splitting error, which
    shrinks under refinement."""
    mismatches = []
    for cell in (1 / 4, 1 / 8, 1 / 16):
        g = build_quad_graph(lshape, cell)
        basis1 = homology_basis(g)
        basis2 = _basis_from_cycles(g, basis_cycles(g))
        A, B, C, D = _change_of_basis(g, basis1, basis2)
        P1 = period_matrices(g, basis1).pi
        P2 = period_matrices(g, basis2).pi
        want = (C + D @ P1) @ np.linalg.inv(A + B @ P1)
        mismatches.append(np.linalg.norm(P2 - want))
    assert mismatches[0] > mismatches[1] > mismatches[2]
    assert mismatches[2] < 0.1


def test_two_by_two_block_torus():
    """Four unit squares in a block with opposite outer sides glued is a
    flat torus of modulus i, built from several polygons."""
    sq = np.array([[0, 0], [1, 0], [1, 1], [0, 1]], dtype=float)
    polys = [sq, sq + [1, 0], sq + [0, 1], sq + [1, 1]]  # S0 S1 S2 S3
    gluings = [
        # horizontal neighbors, wrapping each row
        ((0, 1), (1, 3)), ((1, 1), (0, 3)),
        ((2, 1), (3, 3)), ((3, 1), (2, 3)),
        # vertical neighbors, wrapping each column
        ((0, 2), (2, 0)), ((2, 2), (0, 0)),
        ((1, 2), (3, 0)), ((3, 2), (1, 0)),
    ]
    s = PolyhedralSurface(polygons=polys, gluings=gluings)
    assert s.genus == 1
    assert not s.cone_classes
    g = build_quad_graph(s, 0.5)
    assert g.n_quads == 16
    pm = period_matrices(g, homology_basis(g))
    # the block has sides 2 and 2i, so with the a-period normalized the
    # modulus is i
    assert np.allclose(pm.pi, [[1j]], atol=1e-8)


def test_raw_roundtrip_with_parallel_edges(torus_i_2):
    """The 2x2 torus has doubled edges; the raw format's edge table keeps
    them apart and the periods survive a round trip."""
    doc = graph_to_doc(torus_i_2)
    g2 = graph_from_doc(doc)
    assert g2.n_edges() == 8
    basis = homology_basis(g2)  # tree-cotree path: no loops metadata
    pm = period_matrices(g2, basis)
    assert abs(pm.pi[0, 0].imag) > 0.99 and abs(pm.pi[0, 0].real) < 1e-9


def test_raw_without_edge_table_rejected(torus_i_2):
    doc = graph_to_doc(torus_i_2)
    del doc["edges"]
    with pytest.raises(Exception, match="parallel|ambiguous"):
        graph_from_doc(doc)


@pytest.mark.parametrize("table", ["quads", "vertices"])
@pytest.mark.parametrize("bad", ["too_large", "negative"])
def test_raw_vertex_id_out_of_range(torus_i_4, table, bad):
    """A too-large id used to raise IndexError; a negative one wrapped."""
    doc = graph_to_doc(torus_i_4)
    doc[table][0][0] = len(doc["vertices"]) if bad == "too_large" else -1
    with pytest.raises(SurfaceError, match="out of range"):
        graph_from_doc(doc)


def test_skew_torus_tree_cotree_modulus(torus_skew_4):
    """Even with an arbitrary tree-cotree basis the torus modulus is
    recovered up to the modular group action."""
    g = torus_skew_4
    basis = _basis_from_cycles(g, basis_cycles(g))
    pm = period_matrices(g, basis)
    tau = pm.pi[0, 0]
    want = g.meta["tau"]
    # search a fundamental-domain match over small modular words
    found = False
    for a in range(-3, 4):
        for b in range(-3, 4):
            for c in range(-3, 4):
                for d in range(-3, 4):
                    if a * d - b * c == 1:
                        if abs((a * want + b) / (c * want + d) - tau) < 1e-7:
                            found = True
    assert found, (tau, want)
    assert tau.imag > 0


@pytest.fixture(scope="module")
def four_square_origami():
    """Genus-2 surface with two cones of angle 4*pi (index 1/2): four unit
    squares in a row, rights glued to lefts by (0 1 3 2) and tops to
    bottoms by (2 3 0 1)."""
    sq = np.array([[0, 0], [1, 0], [1, 1], [0, 1]], dtype=float)
    sh = (0, 1, 3, 2)
    sv = (2, 3, 0, 1)
    polys = [sq + [i, 0] for i in range(4)]
    gl = []
    for i in range(4):
        gl.append(((i, 1), (sh[i], 3)))
        gl.append(((i, 2), (sv[i], 0)))
    return PolyhedralSurface(polygons=polys, gluings=gl)


def test_origami_structure(four_square_origami):
    s = four_square_origami
    assert s.genus == 2
    angles = sorted(s.vertex_angles[c] for c in s.cone_classes)
    assert np.allclose(angles, [4 * np.pi, 4 * np.pi])


def test_origami_period_matrix(four_square_origami):
    from quadperiod.surface import mesh_stats
    g = build_quad_graph(four_square_origami, 0.25)
    st = mesh_stats(g)
    assert st.genus == 2
    assert np.isclose(st.gamma_min, 0.5)
    basis = homology_basis(g)   # five candidate loops, rank four
    pm = period_matrices(g, basis)
    d = pm.diagnostics
    assert d["full_symmetry"] < 1e-7
    assert d["full_im_min_eig"] > 0
    assert d["psd_gap"] > -1e-10
    assert d["orthodiagonal_structure"] < 1e-8
    assert d["block_average_gap"] < 1e-8


def test_origami_log_corrected_exponent(four_square_origami):
    from quadperiod.cli import predicted_exponent
    from quadperiod.surface import mesh_stats
    g = build_quad_graph(four_square_origami, 0.25)
    gamma = mesh_stats(g).gamma_min
    pred, note = predicted_exponent(gamma, adapted=False)
    assert pred == 1.0
    assert note == "log-corrected"


def test_origami_adapted_mesh(four_square_origami):
    """Two cone patches at once, at the boundary index 1/2."""
    from quadperiod.refine import generate_adapted
    from quadperiod.surface import mesh_stats, validate_h_adapted
    g = generate_adapted(four_square_origami, 1 / 8)
    st = mesh_stats(g)
    assert st.genus == 2
    assert np.isclose(st.area, 4.0, rtol=1e-12)
    assert validate_h_adapted(g, 1 / 8)["passed"]
    assert len([c for c in g.cones if c.is_singular]) == 2


def test_origami_log_case_rate(four_square_origami):
    """At the boundary index 1/2 the black/white block gap follows the
    log-corrected linear rate: fitted slope close to one."""
    from quadperiod.cli import run_converge
    rep, _, _ = run_converge(four_square_origami, levels=4, adapted=False,
                             base_cell=1 / 8)
    fit = rep["fits"]["off_diagonal_gap"]
    assert fit["decreasing"]
    assert 0.75 <= fit["slope"] <= 1.25
    assert rep["note"] == "log-corrected"


def _random_origami(rng, n):
    sq = np.array([[0, 0], [1, 0], [1, 1], [0, 1]], dtype=float)
    sh = rng.permutation(n)
    sv = rng.permutation(n)
    polys = [sq + [i, 0] for i in range(n)]
    gl = []
    for i in range(n):
        gl.append(((i, 1), (int(sh[i]), 3)))
        gl.append(((i, 2), (int(sv[i]), 0)))
    return PolyhedralSurface(polygons=polys, gluings=gl)


def test_fuzz_random_origamis():
    """Random square-tiled surfaces: every connected genus >= 1 example
    must satisfy the full set of period-matrix structure checks."""
    from quadperiod.surface import SurfaceError, mesh_stats
    rng = np.random.default_rng(2024)
    tested = 0
    attempts = 0
    while tested < 6 and attempts < 60:
        attempts += 1
        n = int(rng.integers(2, 6))
        try:
            s = _random_origami(rng, n)
        except SurfaceError:
            continue  # disconnected or genus 0
        g = build_quad_graph(s, 0.25)
        basis = homology_basis(g)
        pm = period_matrices(g, basis)
        d = pm.diagnostics
        assert d["full_symmetry"] < 1e-7, (n, d)
        assert d["full_im_min_eig"] > 0
        assert d["pi_im_min_eig"] > 0
        assert d["psd_gap"] > -1e-10
        assert d["block_average_gap"] < 1e-8
        assert d["orthodiagonal_structure"] < 1e-8
        assert d["aperiod_error"] < 1e-8
        tested += 1
    assert tested == 6
