"""Holomorphic differentials, period matrices, energy forms and Abelian
integrals.

The canonical differentials are assembled from harmonic solves for the
elementary real period vectors: adding i times the dual rotation of a
harmonic differential is holomorphic, and a real linear system matches
the prescribed complex a-periods.  The period matrix collects b-periods
split by diagonal color into four blocks; their average is the discrete
counterpart of the classical period matrix.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .surface import BLACK, WHITE, spanning_tree
from . import dec
from .dec import Differential
from .harmonic import assemble, solve, solve_elementary


class PeriodsError(ValueError):
    pass


def holomorphic_from_harmonic(graph, eta, tol=1e-8):
    """eta + i * star(eta): holomorphic, with periods whose real parts are
    the periods of eta."""
    _, closed = dec.is_closed(graph, eta)
    star = dec.hodge_star(graph, eta)
    _, coclosed = dec.is_closed(graph, star)
    scale = max(eta.norm(), 1e-300)
    if closed > tol * scale or coclosed > tol * scale:
        raise PeriodsError(
            f"input differential is not harmonic (closedness {closed}, "
            f"co-closedness {coclosed})")
    return eta + 1j * star


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


def _a_period_rows(graph, basis, omega):
    """Real 4g-vector of the complex a-periods (Re black, Im black,
    Re white, Im white)."""
    p = dec.measure_periods(graph, omega, basis)
    return np.concatenate([p.a_black.real, p.a_black.imag,
                           p.a_white.real, p.a_white.imag])


def canonical_differentials(graph, basis, system=None, tol=1e-10):
    """Solve the 4g real harmonic problems and combine them into the
    canonical bases; achieved a-periods are re-measured and reported."""
    g = basis.genus
    system = system or assemble(graph, basis)
    sols = solve_elementary(system, tol)
    holos = [holomorphic_from_harmonic(graph, s.differential) for s in sols]
    M = np.column_stack([_a_period_rows(graph, basis, w) for w in holos])
    cond = float(np.linalg.cond(M))
    if not np.isfinite(cond) or cond > 1e12:
        raise PeriodsError(f"a-period system is numerically singular (cond {cond:.3g})")
    # columns: black normalized, white normalized, equal black and white
    # a-periods; rows as in _a_period_rows (all imaginary parts zero)
    eye, zero = np.eye(g), np.zeros((g, g))
    T = np.block([[eye, zero, eye], [zero, zero, zero],
                  [zero, eye, eye], [zero, zero, zero]])
    C = np.linalg.solve(M, T)

    def combine(coeffs):
        wb = sum(c * w.wb for c, w in zip(coeffs, holos))
        ww = sum(c * w.ww for c, w in zip(coeffs, holos))
        return Differential(wb, ww)

    forms = [combine(C[:, j]) for j in range(3 * g)]
    blacks, whites, equals = forms[:g], forms[g:2 * g], forms[2 * g:]
    err = max(float(np.max(np.abs(_a_period_rows(graph, basis, w) - T[:, j])))
              for j, w in enumerate(forms))
    return CanonicalBasis(black_normalized=blacks, white_normalized=whites,
                          equal_split=equals, condition=cond, aperiod_error=err)


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


def period_matrices(graph, basis, cb=None, system=None):
    """Assemble the period matrix blocks and run the structural checks."""
    cb = cb or canonical_differentials(graph, basis, system)
    g = basis.genus
    bw = np.zeros((g, g), dtype=complex)
    bb = np.zeros((g, g), dtype=complex)
    ww = np.zeros((g, g), dtype=complex)
    wb = np.zeros((g, g), dtype=complex)
    pi = np.zeros((g, g), dtype=complex)
    for k in range(g):
        pB = dec.measure_periods(graph, cb.black_normalized[k], basis)
        pW = dec.measure_periods(graph, cb.white_normalized[k], basis)
        pE = dec.measure_periods(graph, cb.equal_split[k], basis)
        bb[:, k] = pB.b_black
        wb[:, k] = pB.b_white
        bw[:, k] = pW.b_black
        ww[:, k] = pW.b_white
        pi[:, k] = pE.b
    pm = PeriodMatrices(block_bw=bw, block_bb=bb, block_ww=ww, block_wb=wb, pi=pi)
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


def energy_identity_residual(graph, basis, system, pm, p_real, tol=1e-10):
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
    eid = min(range(graph.n_edges()), key=lambda e: graph.edge_list[e])
    a, b = graph.edge_list[eid]
    if graph.color[a] == BLACK:
        return a, b
    return b, a


def abelian_integral(graph, omega, base=None):
    """Primitive of a closed differential along diagonal spanning trees.

    Values at black vertices accumulate black diagonal steps along the
    breadth-first tree of the black diagonal graph rooted at the base
    edge's black endpoint; white values dually from its white endpoint.
    Both endpoints of the base edge get value 0.  The result is the
    branch of the multi-valued primitive reached through these two
    trees; any other branch differs from it by periods.
    """
    if base is None:
        base = base_edge(graph)
    vb, vw = base
    return np.where(graph.color == BLACK,
                    _diagonal_primitive(graph, omega, BLACK, vb),
                    _diagonal_primitive(graph, omega, WHITE, vw))


def abelian_integral_per_polygon(graph, omega):
    """Branch-consistent primitive of a closed differential on a
    square-tiled mesh, returned per quarter-square region.

    Whole squares stop being simply connected once their boundaries are
    glued (corners collapse, opposite sides may identify), so spanning
    trees on them pick up period ambiguities that vary between meshes.
    Quarter squares stay disks under translation gluings, which pins the
    branch; the per-region constants are chained through vertices at
    level-independent positions (square centers and glued-edge midpoints
    for the black class, their immediate neighbors for the white class)
    and anchored at the polygon-0 origin corner.  Values at a surface
    point are then comparable across refinement levels.

    Returns a dict: (polygon, qx, qy) -> {vertex id: value}.
    """
    from fractions import Fraction
    from .surface import grid_point_key

    poly = graph.meta.get("poly_of_quad")
    surface = graph.meta.get("surface")
    k = graph.meta.get("k")
    if poly is None or surface is None:
        raise PeriodsError("mesh does not carry polygon provenance")
    if graph.meta.get("adapted"):
        raise PeriodsError("per-region branches are defined on uniform meshes")
    if k % 4 != 0:
        raise PeriodsError("per-region branches need a cell count divisible by 4")
    npoly = len(surface.polygons)
    kk = k // 2
    # recover each quad's cell index from its chart corners (the vertex
    # tuple may be rotated, so take the lower-left corner)
    z0 = np.array([complex(*surface.polygons[p][0]) for p in range(npoly)])
    rel = graph.corners - z0[poly][:, None]
    ij = np.stack([np.rint(np.min(rel.real, axis=1) * k).astype(int),
                   np.rint(np.min(rel.imag, axis=1) * k).astype(int)], axis=1)
    regions = {}
    for p in range(npoly):
        for qx in (0, 1):
            for qy in (0, 1):
                sel = np.where((poly == p)
                               & ((ij[:, 0] >= kk) == bool(qx))
                               & ((ij[:, 1] >= kk) == bool(qy)))[0]
                regions[(p, qx, qy)] = sel
    raw = {r: _region_tree_values(graph, omega, quads)
           for r, quads in regions.items()}

    def vid(p, fx, fy):
        return graph.key_index(grid_point_key(surface, p, fx, fy))

    h = Fraction(1, k)
    half = Fraction(1, 2)
    one = Fraction(1)

    links = []          # (region_a, region_b, black vertex, white vertex)
    for p in range(npoly):
        c = vid(p, half, half)
        wl = vid(p, half - h, half)    # white, on the left half of the seam
        wr = vid(p, half + h, half)
        wd = vid(p, half, half - h)
        links.append(((p, 0, 0), (p, 0, 1), c, wl))
        links.append(((p, 1, 0), (p, 1, 1), c, wr))
        links.append(((p, 0, 0), (p, 1, 0), c, wd))
    mids = {0: (half, Fraction(0)), 1: (one, half),
            2: (half, one), 3: (Fraction(0), half)}
    nearw = {0: (half + h, Fraction(0)), 1: (one, half + h),
             2: (half + h, one), 3: (Fraction(0), half + h)}
    touching = {0: ((1, 0), (0, 0)), 1: ((1, 0), (1, 1)),
                2: ((1, 1), (0, 1)), 3: ((0, 0), (0, 1))}
    for (p, e), (q, f) in surface.gluings:
        xb = vid(p, *mids[e])
        xw = vid(p, *nearw[e])
        for ra in [(p,) + t for t in touching[e]]:
            for rb in [(q,) + t for t in touching[f]]:
                if xb in raw[ra] and xb in raw[rb]:
                    wv = xw if (xw in raw[ra] and xw in raw[rb]) else None
                    links.append((ra, rb, xb, wv))

    # resolve (black, white) offsets over the region graph
    start = (0, 0, 0)
    anchor_b = vid(0, Fraction(0), Fraction(0))
    center_b = vid(0, half, half)
    anchor_w = vid(0, half - h, half)
    offb = -raw[start][anchor_b]
    offw = (raw[start][center_b] + offb) - raw[start][anchor_w]
    # resolve both color offsets along one spanning tree of links that
    # carry a crossing vertex of each color: using separate trees per
    # color would put the two classes on different branches of the
    # multi-valued primitive
    adj = {}
    for ra, rb, xb, xw in links:
        if xw is None:
            continue
        adj.setdefault(ra, []).append((rb, xb, xw))
        adj.setdefault(rb, []).append((ra, xb, xw))
    resolved = {start: (offb, offw)}
    frontier = [start]
    while frontier:
        ra = frontier.pop()
        for rb, xb, xw in sorted(adj.get(ra, ()), key=lambda t: t[0]):
            if rb in resolved:
                continue
            ob = resolved[ra][0] + raw[ra][xb] - raw[rb][xb]
            ow = resolved[ra][1] + raw[ra][xw] - raw[rb][xw]
            resolved[rb] = (ob, ow)
            frontier.append(rb)
    if len(resolved) != len(regions):
        raise PeriodsError("quarter-square regions could not be chained")
    out = {}
    for r, quads in regions.items():
        ob, ow = resolved[r]
        out[r] = {v: val + (ob if graph.color[v] == BLACK else ow)
                  for v, val in raw[r].items()}
    return out


def _region_tree_values(graph, omega, quads):
    """Primitive on the vertices of a set of quads, one tree per color,
    roots at the smallest vertex of each color (value 0)."""
    inside = np.isin(np.arange(graph.n_quads), quads)
    vals = {}
    for color in (BLACK, WHITE):
        nodes = np.unique(np.concatenate(
            [ends[quads] for ends in graph.diagonal_ends(color)]))
        if len(nodes) == 0:
            continue
        prim = _diagonal_primitive(graph, omega, color, nodes[0], inside)[nodes]
        if np.any(np.isnan(prim)):
            raise PeriodsError("diagonal graph disconnected inside a region")
        vals.update(zip(nodes.tolist(), prim.tolist()))
    return vals
