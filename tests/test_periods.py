import numpy as np
import pytest

from quadperiod.surface import BLACK, WHITE, generate_torus
from quadperiod import dec
from quadperiod.dec import PeriodData
from quadperiod.harmonic import assemble, solve
from quadperiod.homology import homology_basis
from quadperiod.periods import (
    PeriodsError,
    abelian_integral,
    abelian_integral_per_polygon,
    base_edge,
    bilinear_identity_residual,
    canonical_differentials,
    convergence_diagnostics,
    energy_form_continuous,
    energy_form_discrete,
    holomorphic_from_harmonic,
    block_mean_psd_gap,
    period_matrices,
)


@pytest.fixture(scope="module")
def torus_pack(torus_i_4):
    basis = homology_basis(torus_i_4)
    system = assemble(torus_i_4, basis)
    cb = canonical_differentials(torus_i_4, basis, system)
    pm = period_matrices(torus_i_4, basis, cb)
    return torus_i_4, basis, system, cb, pm


@pytest.fixture(scope="module")
def lshape_pack(lshape_mesh_4):
    basis = homology_basis(lshape_mesh_4)
    system = assemble(lshape_mesh_4, basis)
    cb = canonical_differentials(lshape_mesh_4, basis, system)
    pm = period_matrices(lshape_mesh_4, basis, cb)
    return lshape_mesh_4, basis, system, cb, pm


def test_holomorphic_from_harmonic_dx(torus_pack):
    g, basis, system, _, _ = torus_pack
    eta = solve(system, PeriodData(a_black=[1.0], b_black=[0.0],
                                   a_white=[1.0], b_white=[0.0])).differential
    omega = holomorphic_from_harmonic(g, eta)
    dz = dec.chart_dz(g)
    assert np.max(np.abs(omega.wb - dz.wb)) < 1e-9
    assert np.max(np.abs(omega.ww - dz.ww)) < 1e-9


def test_holomorphic_from_harmonic_rejects_nonharmonic(torus_i_4, rng):
    bad = dec.Differential(rng.normal(size=torus_i_4.n_quads),
                           rng.normal(size=torus_i_4.n_quads))
    with pytest.raises(PeriodsError):
        holomorphic_from_harmonic(torus_i_4, bad)


def test_zero_harmonic_maps_to_zero(torus_pack):
    g = torus_pack[0]
    zero = dec.Differential(np.zeros(g.n_quads), np.zeros(g.n_quads))
    omega = holomorphic_from_harmonic(g, zero)
    assert omega.norm() == 0


def test_canonical_set_is_dz_on_torus(torus_pack):
    g, basis, _, cb, _ = torus_pack
    dz = dec.chart_dz(g)
    w = cb.equal_split[0]
    assert np.max(np.abs(w.wb - dz.wb)) < 1e-9
    assert np.max(np.abs(w.ww - dz.ww)) < 1e-9
    assert cb.aperiod_error < 1e-9


def test_black_normalized_periods(torus_pack):
    g, basis, _, cb, _ = torus_pack
    p = dec.measure_periods(g, cb.black_normalized[0], basis)
    assert np.allclose(p.a_black, [1.0], atol=1e-9)
    assert np.allclose(p.a_white, [0.0], atol=1e-9)


def test_period_matrix_torus_square(torus_pack):
    pm = torus_pack[4]
    assert np.allclose(pm.pi, np.array([[1j]]), atol=1e-9)


def test_period_matrix_torus_skew(torus_skew_4):
    basis = homology_basis(torus_skew_4)
    pm = period_matrices(torus_skew_4, basis)
    tau = torus_skew_4.meta["tau"]
    assert np.allclose(pm.pi, [[tau]], atol=1e-8)


@pytest.mark.parametrize("n", [2, 4])
def test_period_matrix_explicit_parallelogram(n):
    # one-polygon surface documents (no generator) mesh on the lattice
    # codes, whose edge keys carry the reference loops; a frame of any
    # length, here (2, 0) and 2 tau, gives pi = tau
    from quadperiod.surface import build_quad_graph, load_surface
    for u, v in ((2 + 0.5j, 1 + 1.6j), (2, 2 * (0.5 + 0.8j))):
        corners = [0, u, u + v, v]
        doc = {"format": 1, "polygons": [[[z.real, z.imag] for z in corners]],
               "gluings": [[[0, 0], [0, 2]], [[0, 1], [0, 3]]]}
        g = build_quad_graph(load_surface(doc), 1 / n)
        pm = period_matrices(g, homology_basis(g))
        assert abs(pm.pi[0, 0] - v / u) < 1e-10


def test_period_matrix_structure(lshape_pack):
    pm = lshape_pack[4]
    d = pm.diagnostics
    assert d["full_symmetry"] < 1e-7
    assert d["pi_symmetry"] < 1e-7
    assert d["full_im_min_eig"] > 0
    assert d["pi_im_min_eig"] > 0
    assert d["block_average_gap"] < 1e-8
    assert d["psd_gap"] > -1e-10
    # square-tiled meshes are orthodiagonal: real/imaginary block structure
    assert d["orthodiagonal_structure"] < 1e-8


def test_genus2_basis_independent(lshape_pack):
    g, basis, _, cb, _ = lshape_pack
    forms = cb.black_normalized + cb.white_normalized
    G = np.array([[dec.inner_product(g, wi, wj) for wj in forms] for wi in forms])
    s = np.linalg.svd(G, compute_uv=False)
    assert s[-1] > 1e-8 * s[0]


def test_energy_form_continuous_square_torus():
    E = energy_form_continuous(np.array([[1j]]))
    assert np.allclose(E, 2 * np.eye(2), atol=1e-14)


def test_energy_form_positive_definite(lshape_pack):
    pm = lshape_pack[4]
    E = energy_form_discrete(pm.combined)
    assert np.allclose(E, E.T, atol=1e-9 * np.linalg.norm(E))
    assert np.min(np.linalg.eigvalsh(0.5 * (E + E.T))) > 0


def test_energy_identity_random_periods(lshape_pack, rng):
    g, basis, system, _, pm = lshape_pack
    E = energy_form_discrete(pm.combined)
    for _ in range(8):
        p = PeriodData.from_flat(rng.normal(size=8))
        eta = solve(system, p).differential
        omega = holomorphic_from_harmonic(g, eta)
        e = dec.energy(g, omega)
        v = p.quadratic_form_vector()
        assert abs(e - v @ E @ v) / e < 1e-8


def test_bilinear_identity_dz(torus_pack):
    g, basis, _, _, _ = torus_pack
    dz = dec.chart_dz(g)
    # energy 2, periods a = 1, b = i in both colors: the pairing gives 2
    assert np.isclose(dec.energy(g, dz), 2.0, rtol=1e-12)
    assert bilinear_identity_residual(g, basis, dz) < 1e-12


def test_bilinear_identity_random_combination(lshape_pack, rng):
    g, basis, _, cb, _ = lshape_pack
    c = rng.normal(size=4) + 1j * rng.normal(size=4)
    forms = cb.black_normalized + cb.white_normalized
    omega = c[0] * forms[0]
    for ci, w in zip(c[1:], forms[1:]):
        omega = omega + ci * w
    assert bilinear_identity_residual(g, basis, omega) < 1e-8


def test_psd_gap_synthetic():
    M = np.array([[2.0, 0.3, 0.1, 0.0],
                  [0.3, 1.5, 0.0, 0.2],
                  [0.1, 0.0, 1.0, 0.1],
                  [0.0, 0.2, 0.1, 2.5]])
    assert block_mean_psd_gap(M) > -1e-12


def test_convergence_diagnostics_torus(torus_pack):
    g, _, _, _, pm = torus_pack
    d = convergence_diagnostics(pm, reference=np.array([[1j]]))
    assert d["off_diagonal_gap"] < 1e-8
    assert d["diagonal_gap"] < 1e-8
    assert d["pi_error"] < 1e-8
    assert d["block_sum_error"] < 1e-8
    assert d["psd_gap"] > -1e-10


def test_abelian_integral_torus_mod_lattice(torus_pack):
    g = torus_pack[0]
    tau = g.meta["tau"]
    dz = dec.chart_dz(g)
    vals = abelian_integral(g, dz)
    vb, vw = base_edge(g)
    # reconstruct chart positions: every quad corner matches its vertex
    pos = np.zeros(g.n_vertices, dtype=complex)
    for q in range(g.n_quads):
        pos[g.quads[q]] = g.corners[q]
    for v in range(g.n_vertices):
        ref = pos[vb] if g.color[v] == BLACK else pos[vw]
        delta = vals[v] - (pos[v] - ref)
        # reduce modulo the lattice generated by 1 and tau
        m = np.round(delta.imag / tau.imag)
        delta -= m * tau
        delta -= np.round(delta.real)
        assert abs(delta) < 1e-10, (v, delta)


def test_abelian_zero_form(torus_pack):
    g = torus_pack[0]
    zero = dec.Differential(np.zeros(g.n_quads), np.zeros(g.n_quads))
    vals = abelian_integral(g, zero)
    assert np.max(np.abs(vals)) == 0


@pytest.mark.parametrize("mesh", ["lshape_mesh_4", "torus_skew_8", "sheared_origami_8"])
def test_abelian_path_independence_in_polygon(mesh, request, rng):
    """Within one quarter polygon the primitive of an exact form d f is f
    up to one constant per colour, on square and sheared frames alike;
    each region holds the (k/2 + 1)^2 lattice points of one quarter."""
    from quadperiod.surface import build_quad_graph
    if mesh == "torus_skew_8":
        g = generate_torus(0.5 + 0.8j, 8)
    elif mesh == "sheared_origami_8":
        g = build_quad_graph(request.getfixturevalue("sheared_origami"), 1 / 8)
    else:
        g = request.getfixturevalue(mesh)
    f = rng.normal(size=g.n_vertices) + 1j * rng.normal(size=g.n_vertices)
    omega = dec.exterior_derivative(g, f)
    out1 = abelian_integral_per_polygon(g, omega)
    k = g.meta["k"]
    assert len(out1) == 4 * len(g.meta["surface"].polygons)
    for p, vals in out1.items():
        assert len(vals) == (k // 2 + 1) ** 2, p
        ids = sorted(vals)
        blacks = [v for v in ids if g.color[v] == BLACK]
        whites = [v for v in ids if g.color[v] == WHITE]
        for group in (blacks, whites):
            diffs = [vals[v] - f[v] for v in group]
            assert np.max(np.abs(np.array(diffs) - diffs[0])) < 1e-12


def test_abelian_per_polygon_levels_agree(lshape, rng):
    """The chained normalization gives comparable branches across levels:
    for the differential of a globally defined function the values at
    shared vertices coincide up to the same constants."""
    from quadperiod.surface import build_quad_graph
    g1 = build_quad_graph(lshape, 1 / 4)
    g2 = build_quad_graph(lshape, 1 / 8)
    out = []
    for g in (g1, g2):
        basis = homology_basis(g)
        system = assemble(g, basis)
        eta = solve(system, PeriodData(a_black=[1.0, 0], b_black=[0, 0],
                                       a_white=[1.0, 0], b_white=[0, 0])).differential
        omega = holomorphic_from_harmonic(g, eta)
        out.append((g, abelian_integral_per_polygon(g, omega)))
    (ga, va), (gb, vb) = out
    # shared grid vertices are found through their level-independent keys
    shared = 0
    worst = 0.0
    for p in va:
        for v, val in va[p].items():
            key = ga.vertex_keys[v]
            if key is None:
                continue
            try:
                u = gb.key_index(key)
            except KeyError:
                continue
            if u in vb[p]:
                shared += 1
                worst = max(worst, abs(val - vb[p][u]))
    assert shared > 20
    # coarse pair of meshes: sanity scale only; the acceptance suite
    # checks that this difference decreases over four level pairs
    assert worst < 0.4


def test_imaginary_periods_come_from_star(torus_pack):
    """The imaginary part of a period of eta + i*star(eta) is the period
    of star(eta), measured independently."""
    g, basis, system, _, _ = torus_pack
    eta = solve(system, PeriodData(a_black=[1.0], b_black=[0.5],
                                   a_white=[0.0], b_white=[0.0])).differential
    omega = holomorphic_from_harmonic(g, eta)
    p_omega = dec.measure_periods(g, omega, basis)
    p_star = dec.measure_periods(g, dec.hodge_star(g, eta), basis)
    assert np.allclose(p_omega.a_black.imag, p_star.a_black.real, atol=1e-9)
    assert np.allclose(p_omega.b_white.imag, p_star.b_white.real, atol=1e-9)


@pytest.mark.parametrize("mesh", ["torus_i_4", "lshape_mesh_4", "sheared_origami_8"])
def test_period_matrices_match_single_form_periods(mesh, request):
    """pi, the four blocks and the a-period error agree with the periods
    dec.measure_periods takes of each canonical form on its own, on
    orthodiagonal and sheared (w12 != 0) meshes alike."""
    from quadperiod.surface import build_quad_graph
    if mesh == "sheared_origami_8":
        graph = build_quad_graph(request.getfixturevalue("sheared_origami"), 1 / 8)
    else:
        graph = request.getfixturevalue(mesh)
    basis = homology_basis(graph)
    g = basis.genus
    cb = canonical_differentials(graph, basis)
    pm = period_matrices(graph, basis, cb)

    def measured(forms):
        return [dec.measure_periods(graph, w, basis) for w in forms]

    pB, pW, pE = (measured(f) for f in (cb.black_normalized, cb.white_normalized,
                                         cb.equal_split))
    expect = {
        "block_bb": np.column_stack([p.b_black for p in pB]),
        "block_wb": np.column_stack([p.b_white for p in pB]),
        "block_bw": np.column_stack([p.b_black for p in pW]),
        "block_ww": np.column_stack([p.b_white for p in pW]),
        "pi": np.column_stack([p.b for p in pE]),
    }
    scale = max(np.max(np.abs(m)) for m in expect.values())
    for name, m in expect.items():
        assert np.max(np.abs(getattr(pm, name) - m)) <= 1e-13 * scale, name

    eye, zero = np.eye(g), np.zeros(g)
    err = 0.0
    for k in range(g):
        for p, (ab, aw) in ((pB[k], (eye[k], zero)), (pW[k], (zero, eye[k])),
                            (pE[k], (eye[k], eye[k]))):
            err = max(err, np.max(np.abs(p.a_black - ab)), np.max(np.abs(p.a_white - aw)))
    assert abs(cb.aperiod_error - err) <= 1e-13


def test_canonical_differentials_rejects_nonharmonic_solution(lshape_mesh_4, monkeypatch):
    """The harmonicity gate on each elementary solution stays: a corrupted
    entry in one of them fails the stage."""
    from quadperiod import periods
    real = periods.solve_elementary

    def corrupted(system, tol=1e-10):
        sols = real(system, tol)
        sols[1].differential.wb[len(sols[1].differential.wb) // 2] += 0.5
        return sols

    monkeypatch.setattr(periods, "solve_elementary", corrupted)
    basis = homology_basis(lshape_mesh_4)
    with pytest.raises(PeriodsError, match="not harmonic"):
        canonical_differentials(lshape_mesh_4, basis)


def test_period_matrices_measure_the_forms_they_are_given(lshape_pack):
    """period_matrices keeps no table from the solve: a canonical form
    changed in place afterwards changes pi."""
    import copy
    g, basis, _, cb, pm = lshape_pack
    cb = copy.deepcopy(cb)
    w = cb.equal_split[0]
    white = dec.measure_periods(g, w, basis).b_white
    w.ww *= 2.0
    pi = period_matrices(g, basis, cb).pi
    assert np.allclose(pi[:, 0], pm.pi[:, 0] + 0.5 * white, atol=1e-13)
    assert np.array_equal(pi[:, 1:], pm.pi[:, 1:])
