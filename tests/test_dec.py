import numpy as np
import pytest

from quadperiod.surface import BLACK, WHITE, QuadGraph, generate_torus
from quadperiod import dec
from quadperiod.dec import (
    Differential,
    PeriodData,
    chart_dz,
    chart_dz_bar,
    closedness_residual,
    energy,
    exterior_derivative,
    hodge_star,
    holomorphy_residual,
    inner_product,
    integrate_path,
    is_closed,
    measure_periods,
    quad_derivatives,
    quad_gradients,
    wedge,
)
from quadperiod.homology import homology_basis


def random_quads(rng, n):
    """Simple positively oriented quads as perturbed unit squares."""
    corners = []
    base = np.array([0, 1, 1 + 1j, 1j], dtype=complex)
    made = 0
    while made < n:
        c = base + 0.28 * (rng.normal(size=4) + 1j * rng.normal(size=4))
        try:
            QuadGraph([0, 1, 0, 1], [[0, 1, 2, 3]], [c], closed=False)
        except Exception:
            continue
        corners.append(c)
        made += 1
    g = QuadGraph(
        np.tile([0, 1, 0, 1], n),
        [[4 * i, 4 * i + 1, 4 * i + 2, 4 * i + 3] for i in range(n)],
        corners,
        closed=False,
    )
    return g


def random_differential(rng, n):
    return Differential(rng.normal(size=n) + 1j * rng.normal(size=n),
                        rng.normal(size=n) + 1j * rng.normal(size=n))


# -- exterior derivative and Stokes ------------------------------------------

def test_d_constant_is_zero(torus_i_4):
    omega = exterior_derivative(torus_i_4, np.full(torus_i_4.n_vertices, 3.7))
    assert omega.norm() == 0


def test_d_is_closed_machine_precision(torus_skew_4, rng):
    f = rng.normal(size=torus_skew_4.n_vertices) \
        + 1j * rng.normal(size=torus_skew_4.n_vertices)
    omega = exterior_derivative(torus_skew_4, f)
    res = closedness_residual(torus_skew_4, omega)
    assert np.max(np.abs(res)) < 1e-12


def test_d_of_a_stack_is_columnwise(lshape_mesh_4, rng):
    g = lshape_mesh_4
    f = rng.normal(size=(g.n_vertices, 3))
    stack = exterior_derivative(g, f)
    for j in range(3):
        col = exterior_derivative(g, f[:, j])
        scale = col.norm()
        assert np.max(np.abs(stack.wb[:, j] - col.wb)) <= 1e-14 * scale
        assert np.max(np.abs(stack.ww[:, j] - col.ww)) <= 1e-14 * scale


def test_d_with_stacked_jumps_is_columnwise(lshape_mesh_2, rng):
    g = lshape_mesh_2
    basis = homology_basis(g)
    f, c = rng.normal(size=(g.n_vertices, 3)), rng.normal(size=(8, 3))
    stack = exterior_derivative(g, f, basis, PeriodData.from_flat(c))
    for j in range(3):
        col = exterior_derivative(g, f[:, j], basis, PeriodData.from_flat(c[:, j]))
        scale = col.norm()
        assert np.max(np.abs(stack.wb[:, j] - col.wb)) <= 1e-14 * scale
        assert np.max(np.abs(stack.ww[:, j] - col.ww)) <= 1e-14 * scale


def test_closedness_residual_of_a_stack_is_columnwise(lshape_mesh_4, rng):
    g = lshape_mesh_4
    wb, ww = rng.normal(size=(g.n_quads, 3)), rng.normal(size=(g.n_quads, 3))
    res = closedness_residual(g, Differential(wb, ww))
    assert res.shape == (g.n_vertices, 3)
    for j in range(3):
        col = closedness_residual(g, Differential(wb[:, j], ww[:, j]))
        assert np.max(np.abs(res[:, j] - col)) <= 1e-14 * np.max(np.abs(col))
    ok, worst = is_closed(g, Differential(wb, ww))
    assert ok.shape == worst.shape == (3,) and not ok.any()


def test_d_with_jumps_closed_and_period_contract(lshape_mesh_2, rng):
    g = lshape_mesh_2
    basis = homology_basis(g)
    f = rng.normal(size=g.n_vertices)
    jumps = PeriodData(a_black=[1.0, 0.0], b_black=[0.0, 0.0],
                       a_white=[0.0, 0.0], b_white=[0.0, 0.0])
    omega = exterior_derivative(g, f, basis, jumps)
    res = closedness_residual(g, omega)
    assert np.max(np.abs(res)) < 1e-12
    p = measure_periods(g, omega, basis)
    assert np.allclose(p.a_black, [1.0, 0.0], atol=1e-12)
    assert np.allclose(p.b_black, 0.0, atol=1e-12)
    assert np.allclose(p.a_white, 0.0, atol=1e-12)
    assert np.allclose(p.b_white, 0.0, atol=1e-12)


def test_constant_black_form_closed_on_torus(torus_i_2):
    # signs alternate around every degree-4 vertex, so the sums cancel
    omega = Differential(np.ones(4), np.zeros(4))
    ok, worst = is_closed(torus_i_2, omega)
    assert ok and worst < 1e-15


def test_random_form_not_closed(torus_i_4, rng):
    omega = random_differential(rng, torus_i_4.n_quads)
    ok, worst = is_closed(torus_i_4, omega)
    assert not ok and worst > 1e-3


# -- Hodge star ---------------------------------------------------------------

def test_star_squares_to_minus_one(rng):
    g = random_quads(rng, 200)
    omega = random_differential(rng, 200)
    twice = hodge_star(g, hodge_star(g, omega))
    assert np.max(np.abs(twice.wb + omega.wb)) < 1e-12
    assert np.max(np.abs(twice.ww + omega.ww)) < 1e-12


def test_star_dz_is_minus_i_dz(rng):
    g = random_quads(rng, 100)
    dz = chart_dz(g)
    sdz = hodge_star(g, dz)
    assert np.max(np.abs(sdz.wb + 1j * dz.wb)) < 1e-12
    assert np.max(np.abs(sdz.ww + 1j * dz.ww)) < 1e-12


def test_star_orthodiagonal_formulas(torus_i_4, rng):
    # on orthodiagonal quads the star scales and swaps the two values
    g = torus_i_4
    omega = random_differential(rng, g.n_quads)
    s = hodge_star(g, omega)
    lb = np.abs(g.black_diag)
    lw = np.abs(g.white_diag)
    assert np.allclose(s.wb, -(lb / lw) * omega.ww)
    assert np.allclose(s.ww, (lw / lb) * omega.wb)


def test_star_real_preserves_real(rng):
    g = random_quads(rng, 50)
    omega = Differential(rng.normal(size=50), rng.normal(size=50))
    s = hodge_star(g, omega)
    assert np.max(np.abs(s.wb.imag)) == 0
    assert np.max(np.abs(s.ww.imag)) == 0


def test_star_isometry(rng):
    g = random_quads(rng, 60)
    o1 = random_differential(rng, 60)
    o2 = random_differential(rng, 60)
    lhs = inner_product(g, hodge_star(g, o1), hodge_star(g, o2))
    rhs = inner_product(g, o1, o2)
    assert np.isclose(lhs, rhs)


# -- holomorphicity ------------------------------------------------------------

def test_dz_holomorphic_dzbar_not(rng):
    g = random_quads(rng, 100)
    assert np.max(np.abs(holomorphy_residual(g, chart_dz(g)))) < 1e-14
    res = holomorphy_residual(g, chart_dz_bar(g))
    assert np.min(np.abs(res)) > 1e-3


def test_holomorphy_equivalence_star_eigenvalue(rng):
    """ww = i*rho*wb holds exactly when star(omega) = -i*omega, per quad."""
    g = random_quads(rng, 1000)
    omega = random_differential(rng, 1000)
    # project onto the -i eigenspace: q = (omega + i*star omega)/2
    s = hodge_star(g, omega)
    proj = Differential((omega.wb + 1j * s.wb) / 2, (omega.ww + 1j * s.ww) / 2)
    sp = hodge_star(g, proj)
    eig = np.abs(sp.wb + 1j * proj.wb) + np.abs(sp.ww + 1j * proj.ww)
    cr = np.abs(holomorphy_residual(g, proj))
    scale = np.abs(proj.wb) + np.abs(proj.ww) + 1e-30
    assert np.max(eig / scale) < 1e-10
    assert np.max(cr / scale) < 1e-10
    # and for the raw random form both detectors agree that it fails
    eig_raw = np.abs(hodge_star(g, omega).wb + 1j * omega.wb)
    cr_raw = np.abs(holomorphy_residual(g, omega))
    agree = (eig_raw > 1e-9) == (cr_raw > 1e-9)
    assert np.all(agree)


# -- wedge and inner product ----------------------------------------------------

def test_wedge_normalization_on_torus(torus_i_2):
    val = wedge(torus_i_2, chart_dz(torus_i_2), chart_dz_bar(torus_i_2))
    assert np.isclose(val, -4j * 1.0, atol=1e-13)


def test_wedge_normalization_random(rng):
    g = random_quads(rng, 300)
    val = wedge(g, chart_dz(g), chart_dz_bar(g))
    shoelace = np.sum(g.area)
    assert np.isclose(val, -4j * shoelace, rtol=1e-12)


def test_wedge_antisymmetry(rng):
    g = random_quads(rng, 40)
    o1 = random_differential(rng, 40)
    o2 = random_differential(rng, 40)
    assert np.isclose(wedge(g, o1, o2), -wedge(g, o2, o1), rtol=1e-12)
    assert wedge(g, o1, o1) == 0


def test_inner_product_hermitian_positive(rng):
    g = random_quads(rng, 80)
    o1 = random_differential(rng, 80)
    o2 = random_differential(rng, 80)
    assert np.isclose(inner_product(g, o1, o2),
                      np.conj(inner_product(g, o2, o1)))
    e = inner_product(g, o1, o1)
    assert e.real > 0 and abs(e.imag) < 1e-10 * e.real
    zero = Differential(np.zeros(80), np.zeros(80))
    assert inner_product(g, zero, zero) == 0


def test_energy_dz_twice_area(torus_i_2, torus_skew_4):
    for g in (torus_i_2, torus_skew_4):
        area = float(np.sum(g.area))
        assert np.isclose(energy(g, chart_dz(g)), 2 * area, rtol=1e-12)


def test_energy_gradient_identity(lshape_mesh_4, rng):
    """energy(d f) = sum of area * |gradient|^2, the defining identity of
    the Dirichlet form; gradient computed by an independent 2x2 solve."""
    g = lshape_mesh_4
    f = rng.normal(size=g.n_vertices)
    omega = exterior_derivative(g, f)
    grad = quad_gradients(g, f)
    direct = float(np.sum(g.area * np.sum(grad ** 2, axis=1)))
    assert np.isclose(energy(g, omega), direct, rtol=1e-12)


def test_energy_gradient_identity_random_quads(rng):
    g = random_quads(rng, 120)
    f = rng.normal(size=g.n_vertices)
    omega = exterior_derivative(g, f)
    grad = quad_gradients(g, f)
    direct = float(np.sum(g.area * np.sum(grad ** 2, axis=1)))
    assert np.isclose(energy(g, omega), direct, rtol=1e-12)


# -- gradient and contour derivatives -------------------------------------------

def test_gradient_linear_function(rng):
    g = random_quads(rng, 30)
    # f = Re z per quad chart
    f = np.zeros(g.n_vertices)
    for q in range(g.n_quads):
        f[g.quads[q]] = g.corners[q].real
    grad = quad_gradients(g, f)
    assert np.allclose(grad, [1.0, 0.0], atol=1e-12)


def test_gradient_reproduces_differences(rng):
    g = random_quads(rng, 50)
    f = rng.normal(size=g.n_vertices)
    grad = quad_gradients(g, f)
    q = g.quads
    for i in range(g.n_quads):
        b = g.black_diag[i]
        w = g.white_diag[i]
        db = f[q[i, 2]] - f[q[i, 0]]
        dw = f[q[i, 3]] - f[q[i, 1]]
        assert abs(grad[i] @ [b.real, b.imag] - db) < 1e-12
        assert abs(grad[i] @ [w.real, w.imag] - dw) < 1e-12


def test_derivatives_exact_on_linear(rng):
    g = random_quads(rng, 40)
    fz = np.zeros(g.n_vertices, dtype=complex)
    fzb = np.zeros(g.n_vertices, dtype=complex)
    for q in range(g.n_quads):
        fz[g.quads[q]] = g.corners[q]
        fzb[g.quads[q]] = np.conj(g.corners[q])
    d, dbar = quad_derivatives(g, fz)
    assert np.allclose(d, 1.0, atol=1e-12)
    assert np.allclose(dbar, 0.0, atol=1e-12)
    d, dbar = quad_derivatives(g, fzb)
    assert np.allclose(d, 0.0, atol=1e-12)
    assert np.allclose(dbar, 1.0, atol=1e-12)


def test_derivative_decomposition_of_d(rng):
    """d f = (d-derivative) dz + (dbar-derivative) dzbar, per quad."""
    g = random_quads(rng, 60)
    f = rng.normal(size=g.n_vertices) + 1j * rng.normal(size=g.n_vertices)
    omega = exterior_derivative(g, f)
    d, dbar = quad_derivatives(g, f)
    dz = chart_dz(g)
    assert np.allclose(omega.wb, d * dz.wb + dbar * np.conj(dz.wb), atol=1e-12)
    assert np.allclose(omega.ww, d * dz.ww + dbar * np.conj(dz.ww), atol=1e-12)


def test_gradient_vs_derivative_modulus(rng):
    """For real f the gradient length is twice the modulus of the
    holomorphic contour derivative (both computed independently)."""
    g = random_quads(rng, 60)
    f = rng.normal(size=g.n_vertices)
    grad = quad_gradients(g, f)
    d, _ = quad_derivatives(g, f)
    assert np.allclose(np.linalg.norm(grad, axis=1), 2.0 * np.abs(d), rtol=1e-12)


# -- path integration and periods -----------------------------------------------

def test_periods_dz_on_torus(torus_i_4, torus_skew_4):
    for g in (torus_i_4, torus_skew_4):
        tau = g.meta["tau"]
        basis = homology_basis(g)
        p = measure_periods(g, chart_dz(g), basis)
        assert np.allclose(p.a_black, p.a_white)
        assert np.allclose(p.b_black, p.b_white)
        a, b = p.a[0], p.b[0]
        assert np.isclose(b / a, tau) or np.isclose(a / b, tau), (a, b)


def test_exact_form_zero_periods(lshape_mesh_2, rng):
    g = lshape_mesh_2
    basis = homology_basis(g)
    f = rng.normal(size=g.n_vertices)
    p = measure_periods(g, exterior_derivative(g, f), basis)
    for arr in (p.a_black, p.b_black, p.a_white, p.b_white):
        assert np.allclose(arr, 0.0, atol=1e-12)


def test_contractible_diagonal_loop_zero(torus_i_4, rng):
    """A quad-face boundary on the black graph is contractible; closed
    forms integrate to zero along it."""
    g = torus_i_4
    f = rng.normal(size=g.n_vertices)
    omega = exterior_derivative(g, f)
    # boundary of the fan around a white vertex: all black diagonals
    # around it, oriented tail-to-head
    rot, rot_pos, quad_after = g.rotation()
    v = int(np.where(g.color == WHITE)[0][0])
    steps = []
    prev = g.other_endpoint(rot[v][0], v)
    for q in quad_after[v]:
        b0, b1 = int(g.quads[q, 0]), int(g.quads[q, 2])
        if prev == b0:
            steps.append((q, 1))
            prev = b1
        else:
            steps.append((q, -1))
            prev = b0
    from quadperiod.homology import DiagonalCycle
    loop = DiagonalCycle(color=BLACK, steps=steps)
    assert abs(integrate_path(g, omega, loop)) < 1e-12


def test_integrate_broken_path_rejected(torus_i_4):
    from quadperiod.homology import DiagonalCycle
    g = torus_i_4
    omega = chart_dz(g)
    # two diagonals that do not share an endpoint
    b0 = int(g.quads[0, 2])
    far = [q for q in range(g.n_quads)
           if b0 not in (int(g.quads[q, 0]), int(g.quads[q, 2]))][0]
    bad = DiagonalCycle(color=BLACK, steps=[(0, 1), (far, 1)])
    with pytest.raises(ValueError, match="broken"):
        integrate_path(g, omega, bad)


def test_measure_periods_warns_on_nonclosed(torus_i_4, rng):
    import warnings
    from quadperiod.homology import homology_basis as hb
    g = torus_i_4
    basis = hb(g)
    omega = random_differential(rng, g.n_quads)
    with warnings.catch_warnings(record=True) as rec:
        warnings.simplefilter("always")
        measure_periods(g, omega, basis)
    assert any("non-closed" in str(w.message) for w in rec)
