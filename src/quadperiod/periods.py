"""Holomorphic differentials, period matrices, energy forms and Abelian
integrals.

The canonical differentials are assembled from harmonic solves for the
elementary real period vectors: adding i times the dual rotation of a
harmonic differential is holomorphic, and a real linear system matches
the prescribed complex a-periods.  The period matrix collects b-periods
split by diagonal color into four blocks; their average is the discrete
counterpart of the classical period matrix.

The canonical stage lifts the 4g elementary solutions, real (F, 4g)
stacks from one block solve, to holomorphic stacks behind one
harmonicity gate, reads their period match and a-period system from one
period-operator product per color and builds the 3g canonical forms with
one dense product.  Single forms go through dec.measure_periods, which
keeps the non-closed warning.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .surface import BLACK, WHITE, _lattice_codes, _positions, spanning_tree
from . import dec
from .dec import Differential
from .harmonic import assemble, solve, solve_elementary


class PeriodsError(ValueError):
    pass


def holomorphic_from_harmonic(graph, eta):
    """eta + i * star(eta): holomorphic, with periods whose real parts are
    the periods of eta.  eta is one real differential or an (F, m) stack;
    each form must be closed and co-closed to 1e-8 of its norm, measured
    with one closedness product for the stack and one for its star."""
    if np.iscomplexobj(eta.wb) and (np.any(eta.wb.imag) or np.any(eta.ww.imag)):
        raise PeriodsError("harmonic differential must be real")
    bound = 1e-8 * np.atleast_1d(np.maximum(eta.norm(), 1e-300))
    star = dec.hodge_star(graph, eta)
    closed, coclosed = (np.atleast_1d(np.max(np.abs(dec.closedness_residual(graph, w)),
                                             axis=0, initial=0.0)) for w in (eta, star))
    for j in np.flatnonzero((closed > bound) | (coclosed > bound))[:1]:
        raise PeriodsError(f"input differential is not harmonic (form {j}: closedness "
                           f"{closed[j]}, co-closedness {coclosed[j]})")
    # one color at a time, dropping each stack once used, to keep peak memory down
    parts, lifted = [eta.wb, star.wb, eta.ww, star.ww], []
    del eta, star
    while parts:
        lifted.append(np.empty(parts[0].shape, complex))
        lifted[-1].real, lifted[-1].imag = parts.pop(0), parts.pop(0)
    return Differential(*lifted)


@dataclass
class CanonicalBasis:
    """Canonical holomorphic differentials: black_normalized[k] has black
    a_j-period delta_jk and vanishing white a-periods; white_normalized
    dually; equal_split[k] has black = white a-periods delta_jk."""

    black_normalized: list
    white_normalized: list
    equal_split: list
    condition: float
    aperiod_error: float
    period_error: float  # elementary solutions' periods against their unit vectors


def _a_period_system(g, black, white):
    """Real (4g, m) a-periods (Re black, Im black, Re white, Im white) of
    m forms from their black and white periods (dec.color_periods)."""
    return np.concatenate([black[:g].real, black[:g].imag,
                           white[:g].real, white[:g].imag])


def canonical_differentials(graph, basis, system=None, tol=1e-10):
    """Solve the 4g real harmonic problems as one block and combine them
    into the canonical bases; achieved a-periods are re-measured and
    reported."""
    g = basis.genus
    system = system or assemble(graph, basis)
    # columns: the holomorphic forms, in solve_elementary's order
    H = holomorphic_from_harmonic(graph, solve_elementary(system, tol))
    black, white = dec.color_periods(basis, H.wb, H.ww)
    # real parts: the elementary periods, the identity in flat order
    perr = float(np.max(np.abs(np.concatenate([black, white]).real - np.eye(4 * g))))
    M = _a_period_system(g, black, white)
    cond = float(np.linalg.cond(M))
    if not np.isfinite(cond) or cond > 1e12:
        raise PeriodsError(f"a-period system is numerically singular (cond {cond:.3g})")
    # columns: black normalized, white normalized, equal black and white
    # a-periods; rows as in _a_period_system (all imaginary parts zero)
    eye, zero = np.eye(g), np.zeros((g, g))
    T = np.block([[eye, zero, eye], [zero, zero, zero],
                  [zero, eye, eye], [zero, zero, zero]])
    C = np.linalg.solve(M, T)
    # rows: the canonical forms; einsum adds the 4g scaled columns in
    # order, where a BLAS product would reassociate the sums
    Fb, Fw = (np.einsum("fj,jk->kf", X, C) for X in (H.wb, H.ww))
    del H
    err = float(np.max(np.abs(_a_period_system(g, *dec.color_periods(basis, Fb.T, Fw.T)) - T)))
    forms = [Differential(wb, ww) for wb, ww in zip(Fb, Fw)]
    return CanonicalBasis(black_normalized=forms[:g], white_normalized=forms[g:2 * g],
                          equal_split=forms[2 * g:], condition=cond, aperiod_error=err,
                          period_error=perr)


@dataclass
class PeriodMatrices:
    block_bw: np.ndarray   # black b-periods of white-normalized forms
    block_bb: np.ndarray   # black b-periods of black-normalized forms
    block_ww: np.ndarray   # white b-periods of white-normalized forms
    block_wb: np.ndarray   # white b-periods of black-normalized forms
    pi: np.ndarray         # g x g matrix from the equal-split set
    diagnostics: dict = field(default_factory=dict)

    @property
    def genus(self):
        return len(self.pi)

    @property
    def combined(self):
        """2g x 2g matrix [[bw, bb], [ww, wb]] mapping a-periods
        (white, black) to b-periods (black, white)."""
        return np.block([[self.block_bw, self.block_bb],
                         [self.block_ww, self.block_wb]])

    @property
    def block_average(self):
        return (self.block_bw + self.block_bb + self.block_ww + self.block_wb) / 2.0


def period_matrices(graph, basis, cb=None):
    """Assemble the period matrix blocks from one product over cb's forms,
    measured afresh, and run the structural checks."""
    cb = cb or canonical_differentials(graph, basis)
    g = basis.genus
    forms = cb.black_normalized + cb.white_normalized + cb.equal_split
    black, white = dec.color_periods(basis, np.column_stack([w.wb for w in forms]),
                                     np.column_stack([w.ww for w in forms]))
    # columns: black normalized, white normalized, equal split
    bb, bw, pb = np.split(black[g:], 3, axis=1)
    wb, ww, pw = np.split(white[g:], 3, axis=1)
    pm = PeriodMatrices(block_bw=bw, block_bb=bb, block_ww=ww, block_wb=wb,
                        pi=0.5 * (pb + pw))
    pm.diagnostics = structural_diagnostics(pm)
    pm.diagnostics["aperiod_error"] = cb.aperiod_error
    pm.diagnostics["condition"] = cb.condition
    return pm


def structural_diagnostics(pm):
    """Symmetry, positivity and consistency measurements for the period
    matrices; all should pass on any valid mesh."""
    full = pm.combined
    pi = pm.pi
    nf = np.linalg.norm(full)
    d = {}
    d["full_symmetry"] = float(np.linalg.norm(full - full.T) / max(nf, 1e-300))
    d["pi_symmetry"] = float(np.linalg.norm(pi - pi.T) / max(np.linalg.norm(pi), 1e-300))
    d["full_im_min_eig"] = float(np.min(np.linalg.eigvalsh(
        0.5 * (full.imag + full.imag.T))))
    d["pi_im_min_eig"] = float(np.min(np.linalg.eigvalsh(
        0.5 * (pi.imag + pi.imag.T))))
    d["block_average_gap"] = float(np.linalg.norm(pm.block_average - pi))
    d["psd_gap"] = block_mean_psd_gap(full.imag)
    d["orthodiagonal_structure"] = float(max(
        np.linalg.norm(pm.block_bw.real), np.linalg.norm(pm.block_wb.real),
        np.linalg.norm(pm.block_bb.imag), np.linalg.norm(pm.block_ww.imag),
    ) / max(nf, 1e-300))
    return d


def block_mean_psd_gap(im_full):
    """Smallest eigenvalue of L M L^T - 4 (L M^{-1} L^T)^{-1} for
    M = Im of the combined matrix and L = (I I); nonnegative whenever M
    is symmetric positive definite."""
    M = 0.5 * (im_full + im_full.T)
    g = M.shape[0] // 2
    L = np.hstack([np.eye(g), np.eye(g)])
    A = L @ M @ L.T
    B = L @ np.linalg.inv(M) @ L.T
    gap = A - 4.0 * np.linalg.inv(B)
    return float(np.min(np.linalg.eigvalsh(0.5 * (gap + gap.T))))


# ---------------------------------------------------------------------------
# Energy quadratic forms
# ---------------------------------------------------------------------------

def energy_form_discrete(full):
    """4g x 4g real form: the energy of the holomorphic differential whose
    period real parts are (a white, a black, b black, b white)."""
    R, M = full.real, full.imag
    Mi = np.linalg.inv(M)
    return np.block([[R @ Mi @ R + M, -R @ Mi],
                     [-Mi @ R, Mi]])


def energy_form_continuous(pi):
    """2g x 2g analogue built from a g x g period matrix; carries an extra
    factor of two relative to the discrete form."""
    R, M = pi.real, pi.imag
    Mi = np.linalg.inv(M)
    return np.block([[2 * R @ Mi @ R + 2 * M, -2 * R @ Mi],
                     [-2 * Mi @ R, 2 * Mi]])


def energy_identity_residual(graph, system, pm, p_real, tol=1e-10):
    """Relative gap between the energy of the holomorphic differential
    with period real parts p_real and the quadratic form value."""
    eta = solve(system, p_real, tol).differential
    omega = holomorphic_from_harmonic(graph, eta)
    e = dec.energy(graph, omega)
    E = energy_form_discrete(pm.combined)
    v = p_real.quadratic_form_vector()
    return abs(e - float(v @ E @ v)) / max(abs(e), 1e-300)


def bilinear_identity_residual(graph, basis, omega):
    """Energy against the period pairing: for holomorphic forms the energy
    equals (i/2) * sum_k (A^B conj(B^W) - B^B conj(A^W)) plus the same
    with colors swapped."""
    p = dec.measure_periods(graph, omega, basis)
    expr = 0.5j * np.sum(p.a_black * np.conj(p.b_white)
                         - p.b_black * np.conj(p.a_white))
    expr += 0.5j * np.sum(p.a_white * np.conj(p.b_black)
                          - p.b_white * np.conj(p.a_black))
    e = dec.energy(graph, omega)
    return abs(e - expr) / max(abs(e), 1e-300)


# ---------------------------------------------------------------------------
# Convergence diagnostics
# ---------------------------------------------------------------------------

def convergence_diagnostics(pm, reference=None):
    """Block difference norms and, with a reference matrix, the distance
    of the matrix and of diagonal+off-diagonal block sums from it."""
    d = {
        "off_diagonal_gap": float(np.linalg.norm(pm.block_bw - pm.block_wb)),
        "diagonal_gap": float(np.linalg.norm(pm.block_bb - pm.block_ww)),
        "psd_gap": block_mean_psd_gap(pm.combined.imag),
    }
    if reference is not None:
        reference = np.asarray(reference, dtype=complex)
        d["pi_error"] = float(np.linalg.norm(pm.pi - reference))
        d["block_sum_error"] = float(np.linalg.norm(
            pm.block_bw + pm.block_bb - reference))
        d["block_sum_error_w"] = float(np.linalg.norm(
            pm.block_wb + pm.block_ww - reference))
    return d


# ---------------------------------------------------------------------------
# Abelian integrals
# ---------------------------------------------------------------------------

def _diagonal_primitive(graph, omega, color, root, mask=None):
    """Sums of 2*s*omega along the breadth-first tree of one color's
    diagonal graph (restricted to the quads where mask is true), s = +1
    for a step along a diagonal's stored direction; 0 at root, nan off
    the tree."""
    field = omega.wb if color == BLACK else omega.ww
    start, end = graph.diagonal_ends(color)
    tree = spanning_tree(graph.n_vertices, start, end, mask, root)
    child = np.flatnonzero(tree.parent_edge >= 0)
    q = tree.parent_edge[child]
    step = np.zeros(graph.n_vertices, dtype=complex)
    step[child] = np.where(end[q] == child, 2.0, -2.0) * field[q]
    vals = tree.prefix_sums(step)
    vals[tree.depth < 0] = np.nan
    return vals


def base_edge(graph):
    """Deterministic base: the lexicographically smallest edge."""
    ends = graph.edge_list
    a, b = ends[np.lexsort((ends[:, 1], ends[:, 0]))[0]].tolist()
    if graph.color[a] == BLACK:
        return a, b
    return b, a


def abelian_integral(graph, omega):
    """Primitive of a closed differential along diagonal spanning trees.

    Values at black vertices accumulate black diagonal steps along the
    breadth-first tree of the black diagonal graph rooted at the base
    edge's black endpoint; white values dually from its white endpoint.
    Both endpoints of the base edge get value 0.  The result is the
    branch of the multi-valued primitive reached through these two
    trees; any other branch differs from it by periods.
    """
    vb, vw = base_edge(graph)
    return np.where(graph.color == BLACK,
                    _diagonal_primitive(graph, omega, BLACK, vb),
                    _diagonal_primitive(graph, omega, WHITE, vw))


def abelian_integral_per_polygon(graph, omega):
    """Branch-consistent primitive of a closed differential on a uniform
    mesh of a parallelogram-tiled surface, returned per quarter-polygon
    region.

    Whole polygons stop being simply connected once their boundaries are
    glued (corners collapse, opposite sides may identify), so spanning
    trees on them pick up period ambiguities that vary between meshes.
    Quarter polygons stay disks under translation gluings, which pins the
    branch; the per-region constants are chained along a breadth-first
    tree of links through vertices at level-independent positions
    (polygon centers and glued-edge midpoints for the black class, their
    immediate neighbors for the white class) and anchored at the
    polygon-0 origin corner.  Values at a surface point are then
    comparable across refinement levels.

    Returns a dict: (polygon, qx, qy) -> {vertex id: value}.
    """
    surface = graph.meta.get("surface")
    k = graph.meta.get("k")
    if surface is None or k is None:
        raise PeriodsError("mesh does not carry polygon provenance")
    if graph.meta.get("adapted"):
        raise PeriodsError("per-region branches are defined on uniform meshes")
    if k % 4 != 0:
        raise PeriodsError("per-region branches need a cell count divisible by 4")
    npoly = len(surface.polygons)
    # uniform meshes list their cells (p, i, j) in row-major order
    p, i, j = np.unravel_index(np.arange(graph.n_quads), (npoly, k, k))
    region = 4 * p + 2 * (i >= k // 2) + (j >= k // 2)
    raw = np.array([_region_tree_values(graph, omega, region == r)
                    for r in range(4 * npoly)])

    L = 2 * k

    def vid(p, x, y):
        """Vertices at the points (x, y) / L of polygons p."""
        return _positions(graph.meta["vertex_codes"], _lattice_codes(surface, p, x, y, L))

    # links (region a, region b, black vertex, white vertex), regions
    # numbered 4 p + 2 qx + qy: first across the seams of each polygon
    # through its center, with white vertices beside the center
    P = np.arange(npoly)
    c = vid(P, k, k)
    seams = np.stack([(4 * P, 4 * P + 1, c, vid(P, k - 2, k)),
                      (4 * P + 2, 4 * P + 3, c, vid(P, k + 2, k)),
                      (4 * P, 4 * P + 2, c, vid(P, k, k - 2))], axis=2).reshape(4, -1)
    mids = {0: (k, 0), 1: (L, k), 2: (k, L), 3: (0, k)}
    nearw = {0: (k + 2, 0), 1: (L, k + 2), 2: (k + 2, L), 3: (0, k + 2)}
    touching = {0: (2, 0), 1: (2, 3), 2: (3, 1), 3: (0, 1)}
    # then across glued sides, where both regions hold the side's midpoint
    # and its white neighbor
    glued = []
    for (p, e), (q, f) in surface.gluings:
        xb, xw = int(vid(p, *mids[e])), int(vid(p, *nearw[e]))
        for ra in 4 * p + np.array(touching[e]):
            for rb in 4 * q + np.array(touching[f]):
                if not np.any(np.isnan(raw[[ra, rb]][:, [xb, xw]])):
                    glued.append((ra, rb, xb, xw))

    # resolve both color offsets along one spanning tree of links that
    # carry a crossing vertex of each color: using separate trees per
    # color would put the two classes on different branches of the
    # multi-valued primitive
    ra, rb, xb, xw = np.concatenate([seams, np.reshape(glued, (-1, 4)).T], axis=1)
    tree = spanning_tree(len(raw), ra, rb)
    if np.any(tree.depth < 0):
        raise PeriodsError("quarter-polygon regions could not be chained")
    child = np.flatnonzero(tree.parent_edge >= 0)
    x = np.stack([xb, xw], axis=1)[tree.parent_edge[child]]
    step = np.zeros((len(raw), 2), dtype=complex)
    step[child] = raw[tree.parent[child, None], x] - raw[child[:, None], x]
    offb = -raw[0, vid(0, 0, 0)]
    offw = raw[0, c[0]] + offb - raw[0, vid(0, k - 2, k)]
    total = raw + (tree.prefix_sums(step) + [offb, offw])[:, graph.color]
    out = {}
    for r, row in enumerate(total):
        ids = np.flatnonzero(~np.isnan(raw[r]))
        out[r // 4, r % 4 // 2, r % 2] = dict(zip(ids.tolist(), row[ids].tolist()))
    return out


def _region_tree_values(graph, omega, inside):
    """Primitive on the vertices of the quads where inside is true, one
    tree per color, roots at the smallest vertex of each color (value
    0); nan at every other vertex."""
    vals = np.full(graph.n_vertices, np.nan, dtype=complex)
    for color in (BLACK, WHITE):
        start, end = graph.diagonal_ends(color)
        nodes = np.union1d(start[inside], end[inside])
        if len(nodes) == 0:
            continue
        prim = _diagonal_primitive(graph, omega, color, nodes[0], inside)[nodes]
        if np.any(np.isnan(prim)):
            raise PeriodsError("diagonal graph disconnected inside a region")
        vals[nodes] = prim
    return vals
