import dataclasses
import threading

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from quadperiod.refine import generate_adapted
from quadperiod.surface import BLACK, WHITE, build_quad_graph, generate_torus
from quadperiod import dec, harmonic
from quadperiod.dec import PeriodData
from quadperiod.harmonic import (REFINE_STEPS, REFINE_TARGET, HarmonicError, assemble,
                                 solve, solve_elementary, verify_minimality)
from quadperiod.homology import homology_basis
from quadperiod.periods import canonical_differentials, period_matrices


@pytest.fixture(scope="module")
def torus_sys(torus_i_4):
    basis = homology_basis(torus_i_4)
    return assemble(torus_i_4, basis)


@pytest.fixture(scope="module")
def lshape_sys(lshape_mesh_4):
    basis = homology_basis(lshape_mesh_4)
    return assemble(lshape_mesh_4, basis)


def test_kernel_contains_color_constants(torus_sys):
    g = torus_sys.graph
    for color in (BLACK, WHITE):
        vec = (g.color == color).astype(float)
        assert np.max(np.abs(torus_sys.matrix @ vec)) < 1e-12


def test_quadratic_form_matches_gradient_energy(lshape_sys, rng):
    g = lshape_sys.graph
    f = rng.normal(size=g.n_vertices)
    grad = dec.quad_gradients(g, f)
    direct = float(np.sum(g.area * np.sum(grad ** 2, axis=1)))
    assert np.isclose(f @ (lshape_sys.matrix @ f), direct, rtol=1e-10)


def test_zero_periods_zero_solution(torus_sys):
    sol = solve(torus_sys, PeriodData.zeros(1))
    assert sol.differential.norm() < 1e-12
    assert dec.energy(torus_sys.graph, sol.differential) < 1e-20


def test_torus_unit_periods_give_dx(torus_sys):
    """Periods (1,1,0,0) on the square torus are realized by the real part
    of the coordinate differential, with energy = area = 1."""
    g = torus_sys.graph
    sol = solve(torus_sys, PeriodData(a_black=[1.0], b_black=[0.0],
                                      a_white=[1.0], b_white=[0.0]))
    eta = sol.differential
    want_b = g.black_diag.real / 2
    want_w = g.white_diag.real / 2
    assert np.max(np.abs(eta.wb - want_b)) < 1e-9
    assert np.max(np.abs(eta.ww - want_w)) < 1e-9
    assert np.isclose(dec.energy(g, eta), 1.0, atol=1e-9)


def test_solution_contracts(lshape_sys):
    sol = solve(lshape_sys, PeriodData(a_black=[1.0, 0.0], b_black=[0.0, -2.0],
                                       a_white=[0.5, 0.0], b_white=[0.0, 1.0]))
    n = sol.differential.norm()
    assert sol.residual < 1e-10
    assert sol.closedness < 1e-12 * n
    assert sol.coclosedness < 1e-9 * n
    assert sol.period_error < 1e-9 * max(1.0, n)


def test_linearity_on_differential(lshape_sys):
    p1 = PeriodData(a_black=[1.0, 0], b_black=[0, 0], a_white=[0, 0], b_white=[0, 0.5])
    p2 = PeriodData(a_black=[0, 0], b_black=[0, 1.0], a_white=[0, -1.0], b_white=[0, 0])
    p12 = PeriodData(*(getattr(p1, k) + getattr(p2, k)
                       for k in ("a_black", "b_black", "a_white", "b_white")))
    s1 = solve(lshape_sys, p1)
    s2 = solve(lshape_sys, p2)
    s12 = solve(lshape_sys, p12)
    diff = s12.differential - (s1.differential + s2.differential)
    assert diff.norm() < 1e-9 * max(s12.differential.norm(), 1.0)


def test_scaling(torus_sys):
    p = PeriodData(a_black=[1.0], b_black=[2.0], a_white=[-1.0], b_white=[0.0])
    pc = PeriodData(a_black=[3.0], b_black=[6.0], a_white=[-3.0], b_white=[0.0])
    s1 = solve(torus_sys, p)
    s3 = solve(torus_sys, pc)
    diff = s3.differential - 3.0 * s1.differential
    assert diff.norm() < 1e-9 * s3.differential.norm()


def test_uniqueness_across_pins(lshape_mesh_4):
    """Different pinned vertices change the potential by kernel elements
    only; the differential is unchanged."""
    from quadperiod.harmonic import assemble
    basis = homology_basis(lshape_mesh_4)
    g = lshape_mesh_4
    blacks = np.where(g.color == BLACK)[0]
    whites = np.where(g.color == WHITE)[0]
    p = PeriodData(a_black=[1.0, 0], b_black=[0, 0], a_white=[1.0, 0], b_white=[0, 0])
    sys1 = assemble(g, basis, pinned=(int(blacks[0]), int(whites[0])))
    sys2 = assemble(g, basis, pinned=(int(blacks[-1]), int(whites[-1])))
    s1 = solve(sys1, p)
    s2 = solve(sys2, p)
    diff = s1.differential - s2.differential
    assert diff.norm() < 1e-9 * s1.differential.norm()


def test_minimality(torus_sys):
    sol = solve(torus_sys, PeriodData(a_black=[1.0], b_black=[0.0],
                                      a_white=[1.0], b_white=[0.0]))
    rep = verify_minimality(torus_sys, sol, trials=25, seed=1)
    assert rep["passed"], rep


def test_elementary_solutions_period_matrix(torus_sys):
    sols = solve_elementary(torus_sys)
    assert sols.wb.shape == sols.ww.shape == (torus_sys.graph.n_quads, 2)
    assert not np.iscomplexobj(sols.wb)
    for i in range(2):
        flat = np.zeros(4)
        flat[i] = 1.0
        want = PeriodData.from_flat(flat)
        measured = dec.measure_periods(torus_sys.graph, _elementary_column(sols, i),
                                       torus_sys.basis)
        assert np.allclose(measured.flat().real, want.flat(), atol=1e-9)


def _elementary_column(sols, j):
    """Column j of solve_elementary's result as one differential."""
    return dec.Differential(sols.wb[:, j], sols.ww[:, j])


@pytest.mark.parametrize("mesh", ["lshape_mesh_4", "torus_skew_4", "sheared_origami_8"])
def test_elementary_columns_match_single_solves(mesh, request):
    """Each elementary solution is the single solve of its unit black
    period vector, in PeriodData.flat order."""
    graph = request.getfixturevalue(mesh)
    system = assemble(graph, homology_basis(graph))
    sols = solve_elementary(system)
    g = system.basis.genus
    assert sols.wb.shape == (graph.n_quads, 2 * g)
    for j, e in enumerate(np.eye(4 * g)[:2 * g]):
        want = solve(system, PeriodData.from_flat(e)).differential
        got = _elementary_column(sols, j)
        assert (got - want).norm() <= 1e-12 * want.norm()


class _ScaledFactor:
    """Stand-in for the SuperLU factor whose first `bad` solves come out
    scaled by `gain` (only in `column` of a block, when given); counts
    its solves and records how many columns each one gets."""

    def __init__(self, factor, gain, bad, column=None):
        self.factor, self.gain, self.bad, self.calls = factor, gain, bad, 0
        self.column, self.widths = column, []

    def solve(self, b):
        self.calls += 1
        self.widths.append(1 if b.ndim == 1 else b.shape[1])
        x = self.factor.solve(b)
        if self.calls <= self.bad:
            if self.column is None:
                return self.gain * x
            x[:, self.column] *= self.gain
        return x


class _LoadFactor(_ScaledFactor):
    """Stand-in that returns its load unchanged, which makes the
    refinement plain unpreconditioned CG: its step count grows with the
    mesh, and at cell 1/16 the cap leaves a residual far above tol."""

    def solve(self, b):
        super().solve(b)
        return b.copy()


class _ZeroAfterFirstFactor(_ScaledFactor):
    """Stand-in whose first solve is the factor's and every later one is
    zero, so the first CG step meets r^T z = 0."""

    def solve(self, b):
        x = super().solve(b)
        return x if self.calls == 1 else np.zeros_like(x)


class _ColumnZeroAfterFirstFactor(_ScaledFactor):
    """Stand-in whose solves are the factor's, except that `column` is
    zero after the first solve, so that column alone meets r^T z = 0 at
    the first CG step."""

    def solve(self, b):
        x = super().solve(b)
        if self.calls > 1:
            x[:, self.column] = 0.0
        return x


def _with_factor(system, gain, bad, column=None, stand_in=_ScaledFactor):
    """A copy of system whose every part's factor is a stand_in; returns
    the copy and the stand-ins, black part first."""
    scaled = [stand_in(system.factorized(c)[0], gain, bad, column)
              for c in range(len(system.parts))]
    colors = [system.graph.color[rows[0]] for rows in system.parts]
    return (dataclasses.replace(system, _factor=scaled),
            [f for _, f in sorted(zip(colors, scaled), key=lambda cf: cf[0])])


@pytest.fixture(scope="module")
def lshape_sys_16(lshape):
    graph = build_quad_graph(lshape, 1 / 16)
    return assemble(graph, homology_basis(graph))


@pytest.fixture(scope="module")
def sheared_sys_16(sheared_origami):
    graph = build_quad_graph(sheared_origami, 1 / 16)
    return assemble(graph, homology_basis(graph))


_PERIODS = PeriodData(a_black=[1.0, 0.0], b_black=[0.0, -2.0],
                      a_white=[0.5, 0.0], b_white=[0.0, 1.0])


def test_accurate_factor_solves_once(lshape_sys):
    system, factors = _with_factor(lshape_sys, 1.0, 0)
    sol = solve(system, _PERIODS)
    assert [f.calls for f in factors] == [1, 1]
    assert sol.residual <= REFINE_TARGET


def test_perturbed_first_pass_is_refined(lshape_sys):
    system, factors = _with_factor(lshape_sys, 1.0 + 1e-6, 1)
    sol = solve(system, _PERIODS)
    assert all(2 <= f.calls <= 1 + REFINE_STEPS for f in factors)
    assert sol.residual <= REFINE_TARGET
    ref = solve(lshape_sys, _PERIODS).differential
    assert (sol.differential - ref).norm() < 1e-12 * ref.norm()


def test_factor_short_of_tol_raises(lshape_sys_16):
    """A factor that returns its load leaves CG unpreconditioned: after
    the capped steps the relative residual is still far above tol."""
    system, factors = _with_factor(lshape_sys_16, 1.0, 0, stand_in=_LoadFactor)
    with pytest.raises(HarmonicError, match="relative residual"):
        solve(system, _PERIODS)
    assert [f.calls for f in factors] == [1 + REFINE_STEPS] * 2


@pytest.mark.parametrize("system", ["lshape_sys", "sheared_sys_16"])
def test_nan_period_raises(system, request):
    """A NaN period makes a NaN residual, which no comparison with tol
    finds above it; the gate rejects every residual not at or below tol,
    with float64 factors (L-shape) and float32 ones (sheared origami)."""
    periods = PeriodData(a_black=[np.nan, 0.0], b_black=[0.0, 0.0],
                         a_white=[0.0, 0.0], b_white=[0.0, 0.0])
    with pytest.raises(HarmonicError, match="relative residual nan"):
        solve(request.getfixturevalue(system), periods)


def test_accurate_factor_solves_elementary_block_once(lshape_sys):
    """The 2g = 4 black-period columns are one block on the black
    component; the white component is never solved."""
    system, (black, white) = _with_factor(lshape_sys, 1.0, 0)
    solve_elementary(system)
    assert black.calls == 1 and black.widths == [4]
    assert white.calls == 0


def test_perturbed_column_alone_is_refined(lshape_sys):
    """One column of the first block pass is off by 1e-6: only that
    column takes nonzero CG steps (the block keeps all four columns), and
    it ends where a clean solve does; the other columns are the clean
    solve's, bit for bit."""
    system, (factor, white) = _with_factor(lshape_sys, 1.0 + 1e-6, 1, column=3)
    sols = solve_elementary(system)
    assert 2 <= factor.calls <= 1 + REFINE_STEPS
    assert factor.widths == [4] * factor.calls
    assert white.calls == 0
    ref = solve_elementary(lshape_sys)
    for j in range(4):
        got, want = _elementary_column(sols, j), _elementary_column(ref, j)
        if j == 3:
            assert (got - want).norm() < 1e-12 * want.norm()
        else:
            assert np.array_equal(got.wb, want.wb) and np.array_equal(got.ww, want.ww)


def test_elementary_factor_short_of_tol_raises(lshape_sys_16):
    system, (black, white) = _with_factor(lshape_sys_16, 1.0, 0, stand_in=_LoadFactor)
    with pytest.raises(HarmonicError, match="relative residual"):
        solve_elementary(system)
    assert black.calls == 1 + REFINE_STEPS and white.calls == 0


def test_cg_breakdown_raises_without_nan(sheared_sys_16):
    """A factor that returns zeros after its first solve gives r^T z = 0
    at the first CG step: the columns end there, and the residual check
    raises on the finite first-pass residual, with no warning (warnings
    are errors in this suite) and no NaN.  The factors are float64, so
    there is no precision to fall back on."""
    float64 = dataclasses.replace(sheared_sys_16, dtype=np.float64, _factor=None)
    system, factors = _with_factor(float64, 1.0, 0, stand_in=_ZeroAfterFirstFactor)
    with pytest.raises(HarmonicError, match=r"relative residual \d"):
        solve_elementary(system)
    assert [f.calls for f in factors] == [2, 2]


def test_cg_columns_stop_apart_in_one_block(sheared_sys_16):
    """Three columns stop at different steps for different reasons: zero
    periods at the first pass, a breakdown at the first CG step and
    convergence after several.  The block keeps all three columns to the
    end with no warning (warnings are errors in this suite), the broken
    column keeps its first-pass potential, and the converged one is its
    own solve alone."""
    float64 = dataclasses.replace(sheared_sys_16, dtype=np.float64, _factor=None)
    system, factors = _with_factor(float64, 1.0, 0, column=1,
                                   stand_in=_ColumnZeroAfterFirstFactor)
    jumps = np.zeros((8, 3))
    jumps[0, 1] = jumps[1, 2] = 1.0
    x, residual = harmonic._potentials(system, PeriodData.from_flat(jumps), np.inf)
    assert all(f.widths == [3] * f.calls and f.calls > 2 for f in factors)
    assert residual[0] == 0.0 and residual[1] > REFINE_TARGET >= residual[2]
    b = float64.rhs(PeriodData.from_flat(jumps))
    b[list(float64.pinned)] = 0.0
    assert np.array_equal(x[:, 1], harmonic._solve_parts(float64, b)[:, 1])
    alone, _ = harmonic._potentials(float64, PeriodData.from_flat(jumps[:, 2]), 1e-10)
    assert np.linalg.norm(x[:, 2] - alone) <= 1e-13 * np.linalg.norm(alone)


def test_colour_split_cg_steps_stay_under_the_cap(sheared_sys_16):
    """On the sheared origami (|cos| = 0.147 between the diagonals) both
    colour factors are loaded by the black periods, and CG preconditioned
    by them reaches REFINE_TARGET in about a dozen applications each."""
    system, factors = _with_factor(sheared_sys_16, 1.0, 0)
    _, residual = harmonic._potentials(system, PeriodData.from_flat(np.eye(8, 4)), 1e-10)
    assert all(2 <= f.calls < 1 + REFINE_STEPS for f in factors), [f.calls for f in factors]
    assert np.all(residual <= REFINE_TARGET)


def test_two_column_solve_matches_single_solves(lshape_sys):
    """(g, m) periods are solved as one block with per-form diagnostics;
    each column is the single solve of its periods."""
    p2 = PeriodData(a_black=[0.0, 1.0], b_black=[0.5, 0.0],
                    a_white=[0.0, -1.0], b_white=[2.0, 0.0])
    sol = solve(lshape_sys, PeriodData.from_flat(np.column_stack([_PERIODS.flat(),
                                                                  p2.flat()])))
    assert sol.differential.wb.shape == (lshape_sys.graph.n_quads, 2)
    for j, p in enumerate((_PERIODS, p2)):
        one = solve(lshape_sys, p)
        col = dec.Differential(sol.differential.wb[:, j], sol.differential.ww[:, j])
        assert (col - one.differential).norm() <= 1e-12 * one.differential.norm()
        for key in ("residual", "closedness", "coclosedness", "period_error"):
            assert np.isclose(getattr(sol, key)[j], getattr(one, key), rtol=0.5, atol=1e-15)


def test_factorized_drops_explicit_zeros(lshape_sys):
    """The L-shape mesh is orthodiagonal, so every w12 entry is a stored
    zero unless dropped; each component's symmetric factor pivots on the
    diagonal."""
    assert np.all(harmonic._weights(lshape_sys.graph)[1] == 0)
    assert np.all(lshape_sys.matrix.data != 0)
    for part in range(len(lshape_sys.parts)):
        factor, rows = lshape_sys.factorized(part)
        dense = sp.csc_matrix(lshape_sys.matrix.toarray()[np.ix_(rows, rows)])
        ref = spla.splu(dense, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                        options={"SymmetricMode": True})
        assert factor.L.nnz + factor.U.nnz == ref.L.nnz + ref.U.nnz
        assert np.array_equal(factor.perm_r, factor.perm_c)


def test_lshape_black_periods_factor_one_component(lshape_mesh_8):
    """On the orthodiagonal L-shape the pinned matrix splits into the
    black and the white vertices.  The canonical stage loads only the
    black component, whose factor is the only one made, and the white
    potentials stay exactly zero; white periods factor the other."""
    graph = lshape_mesh_8
    system = assemble(graph, homology_basis(graph))
    assert [set(graph.color[rows]) for rows in system.parts] == [{BLACK}, {WHITE}]
    assert system._factor is None
    canonical_differentials(graph, system.basis, system)
    assert [f is not None for f in system._factor] == [True, False]
    x, _ = harmonic._potentials(system, PeriodData.from_flat(np.eye(8, 4)), 1e-10)
    assert np.all(x[graph.color == WHITE] == 0)
    solve(system, _PERIODS)
    assert [f is not None for f in system._factor] == [True, True]


@pytest.mark.parametrize("mesh", ["torus_skew_4", "sheared_origami_8"])
def test_diagonals_at_60_degrees_or_more_split_by_colour(mesh, request):
    """|arg diagonal_ratio| <= pi/6 on every quad: the free black and the
    free white vertices are the two parts, though w12 != 0."""
    graph = request.getfixturevalue(mesh)
    system = assemble(graph, homology_basis(graph))
    assert np.all(harmonic._weights(graph)[1] != 0)
    free = np.setdiff1d(np.arange(graph.n_vertices), system.pinned)
    assert [set(graph.color[rows]) for rows in system.parts] == [{BLACK}, {WHITE}]
    assert np.array_equal(np.sort(np.concatenate(system.parts)), free)


def test_adapted_mesh_is_one_part(lshape):
    """The adapted L-shape's diagonals meet at up to |cos| = 0.84, so all
    its free vertices are one part, and P = A.  The part holds each free
    vertex once, the white ones before the black ones, each colour in id
    order."""
    graph = generate_adapted(lshape, 1 / 8)
    assert np.max(np.abs(np.angle(graph.diagonal_ratio))) > np.pi / 6
    system = assemble(graph, homology_basis(graph))
    free = np.setdiff1d(np.arange(graph.n_vertices), system.pinned)
    [rows] = system.parts
    assert np.array_equal(np.sort(rows), free)
    white = np.count_nonzero(graph.color[rows] == WHITE)
    assert np.all(graph.color[rows[:white]] == WHITE)
    assert np.all(np.diff(rows[:white]) > 0) and np.all(np.diff(rows[white:]) > 0)


@pytest.mark.parametrize("surface", ["lshape", "four_square_origami"])
def test_one_part_factors_with_less_fill_than_id_order(surface, request):
    """On the adapted meshes at cell 1/32 (F = 7 236 and 8 272) the one
    part, white then black, factors with less L+U fill than the same
    block in id order.  Not tested on smaller meshes, where minimum
    degree's tie-breaks decide: the origami at 1/16 gets 4.8 % more."""
    graph = generate_adapted(request.getfixturevalue(surface), 1 / 32)
    system = assemble(graph, homology_basis(graph))
    assert len(system.parts) == 1
    factor, rows = system.factorized(0)
    ids = np.sort(rows)
    by_id = harmonic._splu(system.matrix[ids][:, ids].tocsc())
    assert factor.L.nnz + factor.U.nnz < by_id.L.nnz + by_id.U.nnz


def _periods(graph, system):
    pm = period_matrices(graph, system.basis,
                         canonical_differentials(graph, system.basis, system))
    return [pm.pi, pm.block_bw, pm.block_bb, pm.block_ww, pm.block_wb]


_SPLIT_MESHES = pytest.mark.parametrize("make", [
    lambda s: build_quad_graph(s, 1 / 16),
    lambda s: generate_torus(0.4 + 0.6j, 32),   # max |cos| 0.371
], ids=["sheared_origami_16", "torus_skew_32"])


@_SPLIT_MESHES
def test_colour_split_matches_one_part_factor(make, sheared_origami, monkeypatch):
    """pi and the four blocks from the two colour factors and CG equal
    those of the one-part factor, forced by an angle bound below 0, to
    1e-12 of the level scale."""
    graph = make(sheared_origami)
    basis = homology_basis(graph)
    split = assemble(graph, basis)
    monkeypatch.setattr(harmonic, "SPLIT_ANGLE", -1.0)
    whole = assemble(graph, basis)
    assert (len(split.parts), len(whole.parts)) == (2, 1)
    got, want = _periods(graph, split), _periods(graph, whole)
    scale = max(np.max(np.abs(m)) for m in want)
    for a, b in zip(got, want):
        assert np.max(np.abs(a - b)) <= 1e-12 * scale


@pytest.mark.parametrize("mesh, dtype", [
    ("torus_skew_4", np.float32), ("sheared_origami_8", np.float32),
    ("lshape_mesh_8", np.float64), ("adapted_lshape_8", np.float64),
])
def test_factor_precision_follows_its_role(mesh, dtype, lshape, request):
    """The two colour factors of a mesh with w12 != 0 only precondition
    CG and are float32; where P = A (w12 = 0, or one part) the factor
    solves on its own and stays float64."""
    graph = (generate_adapted(lshape, 1 / 8) if mesh == "adapted_lshape_8"
             else request.getfixturevalue(mesh))
    system = assemble(graph, homology_basis(graph))
    assert system.dtype == dtype
    solve(system, PeriodData.from_flat(np.ones(4 * system.basis.genus)))
    assert system.dtype == dtype
    assert [f.L.dtype for f in system._factor] == [dtype] * len(system.parts)


@_SPLIT_MESHES
def test_float32_factors_match_float64_factors(make, sheared_origami):
    """pi and the four blocks from the float32 colour factors equal those
    of a forced float64 run to 1e-12 of the level scale."""
    graph = make(sheared_origami)
    single = assemble(graph, homology_basis(graph))
    double = dataclasses.replace(single, dtype=np.float64)
    got, want = _periods(graph, single), _periods(graph, double)
    assert (single.dtype, double.dtype) == (np.float32, np.float64)
    scale = max(np.max(np.abs(m)) for m in want)
    for a, b in zip(got, want):
        assert np.max(np.abs(a - b)) <= 1e-12 * scale


@pytest.mark.parametrize("stand_in", [_LoadFactor, _ZeroAfterFirstFactor])
def test_float32_factor_that_fails_cg_is_refactored_in_float64(stand_in, sheared_sys_16):
    """A float32 factor with which CG reaches its cap (_LoadFactor) or
    breaks down (_ZeroAfterFirstFactor) is replaced once by a float64
    factor, and the same solve then succeeds."""
    jumps = PeriodData.from_flat(np.eye(8, 4))
    system, factors = _with_factor(sheared_sys_16, 1.0, 0, stand_in=stand_in)
    assert system.dtype == np.float32
    x, residual = harmonic._potentials(system, jumps, 1e-10)
    assert all(f.calls >= 2 for f in factors)
    assert system.dtype == np.float64
    assert [f.L.dtype for f in system._factor] == [np.float64] * 2
    assert np.all(residual <= REFINE_TARGET)
    want, _ = harmonic._potentials(dataclasses.replace(sheared_sys_16, dtype=np.float64,
                                                       _factor=None), jumps, 1e-10)
    assert np.array_equal(x, want)


def test_cg_holds_the_roundoff_floor(lshape_sys_16, monkeypatch):
    """With REFINE_TARGET below roundoff every column runs to the step
    cap; the step length p^T r / p^T A p keeps the residual within 2x of
    the first pass's (r^T z / p^T A p lets it grow to 1e-8 here)."""
    jumps = PeriodData.from_flat(np.eye(8, 4))
    monkeypatch.setattr(harmonic, "REFINE_TARGET", 1.0)
    _, first = harmonic._potentials(lshape_sys_16, jumps, 1e-10)
    monkeypatch.setattr(harmonic, "REFINE_TARGET", 1e-17)
    _, refined = harmonic._potentials(lshape_sys_16, jumps, 1e-10)
    assert np.max(refined) <= 2 * np.max(first)


@pytest.fixture
def started_threads(monkeypatch):
    """The threads harmonic starts while the test runs, in start order."""
    started = []

    class Recorded(threading.Thread):
        def start(self):
            started.append(self)
            super().start()

    monkeypatch.setattr(threading, "Thread", Recorded)
    return started


def _factor_arrays(factor):
    return [factor.L.data, factor.U.data, factor.perm_r, factor.perm_c]


@_SPLIT_MESHES
def test_concurrent_colour_factors_equal_serial_ones(make, sheared_origami, started_threads):
    """factorized(0, [0, 1]) factors part 1 on one worker thread while it
    factors part 0; both factors equal serial ones bit for bit."""
    graph = make(sheared_origami)
    system = assemble(graph, homology_basis(graph))
    serial = dataclasses.replace(system)
    together = dataclasses.replace(system)
    factors = [serial.factorized(part)[0] for part in (0, 1)]
    assert len(started_threads) == 0
    together.factorized(0, [0, 1])
    assert len(started_threads) == 1 and not started_threads[0].is_alive()
    for want, got in zip(factors, together._factor):
        assert all(np.array_equal(a, b) for a, b in zip(_factor_arrays(got),
                                                         _factor_arrays(want)))


def test_singular_part_on_the_worker_raises_in_the_caller(torus_skew_4):
    """A white block that SuperLU finds singular, factored on the worker
    thread, raises the one-line HarmonicError that a factor of it in the
    caller's thread raises."""
    system = assemble(torus_skew_4, homology_basis(torus_skew_4))
    keep = np.ones(torus_skew_4.n_vertices)
    keep[system.parts[1][0]] = 0.0   # one white vertex without an equation
    D = sp.diags(keep)
    singular = dataclasses.replace(system, matrix=(D @ system.matrix @ D).tocsr())
    with pytest.raises(HarmonicError) as alone:
        dataclasses.replace(singular).factorized(1)
    threads = threading.active_count()
    with pytest.raises(HarmonicError) as worker:
        singular.factorized(0, [0, 1])
    assert threading.active_count() == threads
    assert str(worker.value) == str(alone.value)
    assert str(worker.value).startswith("energy matrix is numerically singular (")
    assert "\n" not in str(worker.value)


@pytest.mark.parametrize("n", [32, 64])
def test_colour_factors_of_a_skew_torus_have_equal_fill(n):
    """The white part lists each white vertex in the order of the black
    vertex beside it, so on a uniform torus the white block is the black
    one translated and both factors hold the same L + U fill."""
    graph = generate_torus(0.4 + 0.6j, n)
    system = assemble(graph, homology_basis(graph))
    fill = [f.L.nnz + f.U.nnz for f in (system.factorized(p)[0] for p in (0, 1))]
    assert fill[0] == fill[1]


def test_lshape_black_part_is_in_id_order(lshape_mesh_8):
    """Only the white part is reordered: the black part is the free black
    vertices in id order, element for element."""
    system = assemble(lshape_mesh_8, homology_basis(lshape_mesh_8))
    free = np.ones(lshape_mesh_8.n_vertices, dtype=bool)
    free[list(system.pinned)] = False
    assert np.array_equal(system.parts[0], np.flatnonzero(free & (lshape_mesh_8.color == BLACK)))
    assert np.array_equal(np.sort(system.parts[1]),
                          np.flatnonzero(free & (lshape_mesh_8.color == WHITE)))


def test_torus_solve_leaves_no_thread_behind(torus_skew_4, started_threads):
    """The black periods load both colour parts of the torus: their first
    solve starts one worker thread, and it has ended when the solve
    returns."""
    system = assemble(torus_skew_4, homology_basis(torus_skew_4))
    threads = threading.active_count()
    solve_elementary(system)
    assert threading.active_count() == threads
    assert len(started_threads) == 1
    solve_elementary(system)
    assert len(started_threads) == 1


@pytest.mark.parametrize("mesh", ["adapted_lshape_8", "lshape_mesh_8"])
def test_one_loaded_part_starts_no_thread(mesh, lshape, request, started_threads):
    """A one-part system (the adapted L-shape) and a load on one part
    (the orthodiagonal L-shape's black periods) factor in the caller."""
    graph = (generate_adapted(lshape, 1 / 8) if mesh == "adapted_lshape_8"
             else request.getfixturevalue(mesh))
    system = assemble(graph, homology_basis(graph))
    solve_elementary(system)
    assert started_threads == []
    assert [f is not None for f in system._factor] == [True] + [False] * (len(system.parts) - 1)


@pytest.fixture
def splu_calls(monkeypatch):
    """(thread, block size) of every SuperLU factorization harmonic makes
    while the test runs, in call order."""
    calls, splu = [], harmonic._splu

    def recorded(A):
        calls.append((threading.current_thread(), A.shape[0]))
        return splu(A)

    monkeypatch.setattr(harmonic, "_splu", recorded)
    return calls


def test_load_on_a_factored_and_an_unfactored_part_makes_only_the_missing_factor(
        torus_skew_4, started_threads, splu_calls):
    """A load on both colour parts after the black part alone was factored
    factors the white part, in the caller's thread, and keeps the black
    factor."""
    system = assemble(torus_skew_4, homology_basis(torus_skew_4))
    black, _ = system.factorized(0)
    b = np.ones((torus_skew_4.n_vertices, 1))
    b[list(system.pinned)] = 0.0
    harmonic._solve_parts(system, b)
    assert splu_calls == [(threading.current_thread(), len(system.parts[0])),
                          (threading.current_thread(), len(system.parts[1]))]
    assert started_threads == []
    assert system._factor[0] is black and system._factor[1] is not None


def test_two_part_load_factors_each_part_once(torus_skew_4, splu_calls):
    """The black periods load both colour parts of the torus: the first
    solve factors each part once, and a second solve factors nothing."""
    system = assemble(torus_skew_4, homology_basis(torus_skew_4))
    solve_elementary(system)
    assert sorted(size for _, size in splu_calls) == sorted(map(len, system.parts))
    solve_elementary(system)
    assert len(splu_calls) == 2
