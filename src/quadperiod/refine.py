"""Mesh families for convergence studies.

Uniform refinement splits every quad into four through edge midpoints and
the chart centroid.  Adapted meshes shorten edges near cones of index
<= 1/2 so that their images under the flattening chart stay below the
target edge length, which restores the linear convergence rate: around
each cone a graded stack of concentric square rings (in the max-norm of
the cone's sector coordinates) replaces the uniform grid, with 2:1
angular coarsening rings on the way in and a fan of quarter-square quads
closing the center.

Patches are keyed like the uniform grid (surface.py): the patch boundary
lies on the 2k lattice and takes its codes, so it meets the ambient
cells by equal codes.  Every other patch vertex and edge gets an integer
code above the lattice range, in one block of codes per (cone, ring);
the ("ring" | "mid", cone class, ring, slot) vertex keys are decoded
from these codes on first read.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .surface import (
    _CORNER_X,
    _CORNER_Y,
    QuadGraph,
    SurfaceError,
    _attach_cones,
    _first_appearance,
    _grid_cells,
    _lattice_codes,
    _lattice_keys,
    _positions,
    _reference_loops,
    _rotate_to_black,
    _square_tiled_data,
    build_quad_graph,
    mesh_stats,
    spanning_tree,
    validate_h_adapted,
)


@dataclass
class RefinementLevel:
    level: int
    graph: QuadGraph
    stats: object
    adapted: bool


class RefineError(SurfaceError):
    pass


# ---------------------------------------------------------------------------
# Uniform subdivision
# ---------------------------------------------------------------------------

def subdivide(graph):
    """Split each quad in four.  Original vertices keep their ids and land
    in the black class together with the new face centers; edge midpoints
    form the white class.

    Child 4q + s sits at corner s of quad q.  Edge keys: 2e + h for the
    half of edge e at its endpoint h (0 for the smaller vertex id), 2E +
    4q + s for the spoke from the midpoint of side s of quad q to its
    center."""
    from .homology import cycle_from_vertices

    V, E, F = graph.n_vertices, graph.n_edges(), graph.n_quads
    colors = np.concatenate([
        np.zeros(V, dtype=np.int8),
        np.ones(E, dtype=np.int8),
        np.zeros(F, dtype=np.int8),
    ])
    side = np.arange(4)
    prev = (side - 1) % 4
    vids = graph.quads
    e_out = graph.dart_edge
    e_in = e_out[:, prev]
    center = np.broadcast_to((V + E + np.arange(F))[:, None], (F, 4))
    quads = np.stack([vids, V + e_out, center, V + e_in], axis=2).reshape(-1, 4)
    z = graph.corners
    zc = np.broadcast_to(np.mean(z, axis=1)[:, None], (F, 4))
    corners = np.stack([z, (z + z[:, (side + 1) % 4]) / 2.0, zc, (z[:, prev] + z) / 2.0],
                       axis=2).reshape(-1, 4)
    spoke = 2 * E + 4 * np.arange(F)[:, None]
    ends = graph.edge_list[:, 0]
    dart_keys = np.stack([2 * e_out + (vids != ends[e_out]), spoke + side, spoke + prev,
                          2 * e_in + (vids != ends[e_in])], axis=2).reshape(-1, 4)
    new_loops = {}
    for kind, walks in (graph.meta.get("loops") or {}).items():
        new_loops[kind] = []
        for w in walks:
            cyc = cycle_from_vertices(graph, w)
            u, e = np.array(cyc.verts), np.array(cyc.eids)
            halves = [2 * e + (u != ends[e]), 2 * e + (np.roll(u, -1) != ends[e])]
            new_loops[kind].append({
                "verts": np.stack([u, V + e], axis=1).ravel().tolist(),
                "edge_keys": np.stack(halves, axis=1).ravel().tolist()})
    meta = dict(graph.meta)
    if new_loops:
        meta["loops"] = new_loops
    for key in ("k", "vertex_codes"):   # the 2k lattice is gone
        meta.pop(key, None)

    def keys(source=graph._vertex_keys):   # not the graph: keep no parent alive
        source = source() if callable(source) else source
        return None if source is None else source + [None] * (E + F)

    return QuadGraph(colors, quads, corners, cones=graph.cones,
                     vertex_keys=keys, meta=meta, dart_keys=dart_keys)


# ---------------------------------------------------------------------------
# Adapted meshes
# ---------------------------------------------------------------------------

PATCH_HALF_WIDTH = 0.25             # sector coordinate extent of a cone patch
IMG_SAFETY = 0.9                    # target fraction of h for chart images
EDGE_SAFETY = 0.95                  # absolute edge-length fraction of h


def _ring_schedule(gamma, h, j):
    """Radii and per-segment subdivision counts of the graded rings, from
    the patch boundary inward.  Returns a list of (t, p) with p halving at
    angular coarsening steps, ending at p = 1, plus the parity of rings
    needed so the checkerboard coloring matches the ambient grid."""
    c = PATCH_HALF_WIDTH
    root2g = 2.0 ** (gamma / 2.0)
    delta = IMG_SAFETY * h / root2g       # allowed image-radius decrement

    def t_image_next(t):
        v = t ** gamma - delta
        return v ** (1.0 / gamma) if v > 0 else 0.0

    def p_needed(t):
        return gamma * t ** gamma / (IMG_SAFETY * h)

    def closure_ok(t):
        lo = t ** gamma
        hi = (math.sqrt(2.0) * t) ** gamma
        chord = abs(lo - hi * complex(math.cos(gamma * math.pi / 4),
                                      math.sin(gamma * math.pi / 4)))
        return lo <= EDGE_SAFETY * h and chord <= IMG_SAFETY * h

    rings = [(c, j)]
    t, p = c, j
    kinds = []  # between ring i and i+1: "plain" or "coarsen"
    while not (p == 1 and closure_ok(t)):
        cap = min(1.45 * t / p, EDGE_SAFETY * h / math.sqrt(2.0))
        t_next = max(t_image_next(t), t - cap)
        coarsen = False
        if p > 1 and p % 2 == 0 and p / 2 >= 1.08 * p_needed(t):
            # admissible only if the longest transition spoke (outer cap
            # corner to the inner ring) respects both the absolute edge
            # bound and the image bound at the inner radius
            lo = t / p
            dt = t - t_next
            spoke = math.hypot(2.0 * lo, 2.0 * dt / 3.0)
            img = gamma * t_next ** (gamma - 1.0) * spoke * 2.0 ** (0.5 * abs(gamma - 1.0))
            if spoke <= 0.9 * h and img <= 0.92 * h:
                coarsen = True
        if coarsen:
            kinds.append("coarsen")
            p = p // 2
        else:
            kinds.append("plain")
        if t_next >= t:
            raise RefineError("ring schedule failed to make progress")
        t = t_next
        rings.append((t, p))
        if len(rings) > 10000:
            raise RefineError("ring schedule diverged")
    return rings, kinds


def _with_parity(gamma, h, j):
    """Ring schedule with the ring count matched to the grid parity: the
    radial walk from the cone to the patch boundary must have the same
    step parity as the ambient grid walk (j cells)."""
    rings, kinds = _ring_schedule(gamma, h, j)
    if len(rings) % 2 != j % 2:
        t_last, _ = rings[-1]
        extra = (0.55 * t_last ** gamma) ** (1.0 / gamma)
        rings.append((extra, 1))
        kinds.append("plain")
    return rings, kinds


def generate_adapted(surface, h, phi_floor=math.pi / 12):
    """Adapted quad mesh of a square-tiled surface: uniform cells of size h
    away from the cones, graded ring patches of half-width 1/4 around
    every cone.  The result is validated (bipartite by construction,
    image bounds, angle floor) before it is returned.  A surface without
    cones gets its uniform mesh, whatever its frame."""
    if not surface.cone_classes:
        return build_quad_graph(surface, h)
    frame = _square_tiled_data(surface)
    if not np.isclose(frame[1], 1j * frame[0]):
        raise RefineError("cone patches need square polygons (ey = i ex)")
    k_f = 1.0 / h
    k = int(round(k_f))
    if abs(k - k_f) > 1e-9 or k < 4 or (k & (k - 1)) != 0:
        raise RefineError(
            f"adapted meshes need a power-of-two cell count >= 4, got 1/{h}")
    patches, blocks = [], []
    start = len(surface.polygons) * (2 * k + 1) ** 2   # first code above the 2k lattice
    for cid in surface.cone_classes:
        gamma = 2.0 * math.pi / surface.vertex_angles[cid]
        if gamma > 0.5 + 1e-12:
            raise RefineError("cone with index above 1/2 on a square-tiled surface")
        rings, kinds = _with_parity(gamma, h, k // 4)
        patch, start = _cone_patch(surface, cid, rings, kinds, k, start, blocks)
        patches.append(patch)
    order, quads, corners, darts = (list(part) for part in zip(*patches))

    # the uniform grid outside the patches, numbered after them
    _, corner_codes, mid_codes, pos = _grid_cells(
        surface, k, _kept_cells(surface, k), frame)
    vertex_codes, _ = _first_appearance(np.concatenate(order + [corner_codes.ravel()]))
    quads = _positions(vertex_codes, np.concatenate(quads + [corner_codes]))
    colors = _bipartite_colors(len(vertex_codes), quads)
    quads, corners, codes = _rotate_to_black(
        colors[quads[:, 0]], quads, np.concatenate(corners + [pos]),
        np.concatenate(darts + [mid_codes]))
    meta = {"kind": "square_tiled", "k": k, "adapted": True,
            "loops": _reference_loops(surface, k, vertex_codes),
            "vertex_codes": vertex_codes, "surface": surface}
    keys = functools.partial(_patch_keys, vertex_codes, 2 * k, np.array(blocks))
    g = QuadGraph(colors, quads, corners, cones=_attach_cones(surface, k, vertex_codes),
                  vertex_keys=keys, meta=meta, dart_keys=codes)
    st = mesh_stats(g)
    if st.phi_min < phi_floor - 1e-12:
        raise RefineError(f"angle floor violated: phi_min {st.phi_min:.4f}")
    rep = validate_h_adapted(g, h)
    if not rep["passed"]:
        raise RefineError(f"adapted mesh failed its own validation: {rep['violations']}")
    return g


def _kept_cells(surface, k):
    """(P, k, k) mask of the grid cells outside the cone patches: each
    patch covers the k/4 x k/4 cells at every corner of its cone."""
    keep = np.ones((len(surface.polygons), k, k), dtype=bool)
    lo, hi = slice(0, k // 4), slice(k - k // 4, k)
    for cid in surface.cone_classes:
        for p, ci in surface.vertex_links[cid]:
            keep[p, (lo, hi, hi, lo)[ci], (lo, lo, hi, hi)[ci]] = False
    return keep


# Each ring of a patch is cut into groups of quads that share one vertex
# table and one edge table; these give every quad's rows in the tables.
# A plain ring has one group per outer slot s: vertices (inner s, outer s,
# outer s + 1, inner s + 1), edges (radial s, outer arc s, radial s + 1,
# inner arc s).  The fan has one group per sector i: vertices (cone,
# innermost slots 2i, 2i + 1, 2i + 2), edges (radial 2i, arcs 2i and
# 2i + 1, radial 2i + 2).  A coarsening ring has one group per four outer
# slots from s0 = 4g: vertices (outer s0 .. s0 + 4, inner 2g .. 2g + 2,
# mid), edges (radial s0, outer arcs s0 .. s0 + 3, radial s0 + 4, inner
# arcs 2g and 2g + 1, spokes 0 .. 3).  Vertices are numbered in table order.
_ONE_QUAD = np.array([[0, 1, 2, 3]])
_COARSEN_VERTICES = np.array([[5, 0, 1, 8], [8, 1, 2, 3], [8, 3, 4, 7], [8, 7, 6, 5]])
_COARSEN_EDGES = np.array([[0, 1, 8, 10], [8, 2, 3, 9], [9, 4, 5, 11], [11, 7, 6, 10]])

# unit steps along the sides leaving polygon corners 0..3
_SIDE_X, _SIDE_Y = np.roll(_CORNER_X, -1) - _CORNER_X, np.roll(_CORNER_Y, -1) - _CORNER_Y


def _cone_patch(surface, cid, rings, kinds, k, start, blocks):
    """Graded ring patch around cone class cid, on integer codes.

    Ring 0, the patch boundary, lies on the 2k lattice: in units of
    1/(2k) it sits at distance 2 jc from the cone, and its slot u at 2u
    along the side, so its vertices and arcs take their lattice codes.
    Every ring r gets the block of 3 T codes from its start, T = 2 p K
    its slot count: vertex and arc codes of its slots (unused at r = 0),
    then those of its mid vertices and of its radial edges inward (the
    fan's at the innermost ring), then its spokes.  Appends (start, cid,
    r, T) of every ring to blocks.  Returns (vertex codes in numbering order,
    quad vertex codes, chart corners, dart edge codes) and the first code
    after the patch."""
    link = surface.vertex_links[cid]
    K, L, jc = len(link), 2 * k, k // 4
    poly, corner = np.array(link).T
    # charts of patch quads are centered on the cone: absolute polygon
    # offsets would drown the deepest rings in float cancellation
    ex = np.array([complex(*surface.edge_vector(p, c)) for p, c in link])
    ey = 1j * ex
    T = np.array([2 * p * K for _, p in rings])
    ring_start = start + np.cumsum(3 * T) - 3 * T
    blocks.extend(zip(ring_start, [cid] * len(rings), range(len(rings)), T))

    def lattice(sec, a, b):
        """Codes of the points (a, b) of sectors sec, in units of 1/L
        along the sector axes."""
        c = corner[sec]
        x = L * _CORNER_X[c] + a * _SIDE_X[c] + b * _SIDE_X[(c + 1) % 4]
        y = L * _CORNER_Y[c] + a * _SIDE_Y[c] + b * _SIDE_Y[(c + 1) % 4]
        return _lattice_codes(surface, poly[sec], x, y, L)

    def ring(r, s2):
        """Codes of ring r at half slots s2: vertices at even s2, the arcs
        between them at odd s2."""
        if r > 0:
            return ring_start[r] + s2 // 2 % T[r]
        sec, w = np.divmod(s2 % (2 * T[0]), 4 * jc)
        return lattice(sec, np.where(w <= 2 * jc, 2 * jc, 4 * jc - w), np.minimum(w, 2 * jc))

    def radial(r, s):
        """Codes in the middle third of ring r's block: the radial edges
        inward from its slots s, and its mid vertices."""
        return ring_start[r] + T[r] + s % T[r]

    def chart(sec, t, p, rel):
        """Chart position of the vertex rel steps into sectors sec, on the
        ring at max-norm radius t with p segments per side."""
        x = np.where(rel <= p, t, (2 * p - rel) * t / p)
        y = np.where(rel <= p, rel * t / p, t)
        return x * ex[sec] + y * ey[sec]

    cone = lattice(np.zeros(1, dtype=np.int64), 0, 0)
    order, quads, corners, darts = [cone], [], [], []
    for r, kind in enumerate(kinds):
        (t_out, p_out), (t_in, p_in) = rings[r], rings[r + 1]
        if kind == "plain":
            s = np.arange(T[r])
            sec, u = np.divmod(s, 2 * p_out)
            vt = np.stack([ring(r + 1, 2 * s), ring(r, 2 * s), ring(r, 2 * s + 2),
                           ring(r + 1, 2 * s + 2)], axis=1)
            zt = np.stack([chart(sec, t_in, p_in, u), chart(sec, t_out, p_out, u),
                           chart(sec, t_out, p_out, u + 1), chart(sec, t_in, p_in, u + 1)],
                          axis=1)
            et = np.stack([radial(r, s), ring(r, 2 * s + 1), radial(r, s + 1),
                           ring(r + 1, 2 * s + 1)], axis=1)
            vpat = epat = _ONE_QUAD
        else:
            # the mid vertex sits 2/3 of the way down: that balances the
            # sharpest corners of the outer caps (one cell wide) against
            # the inner caps (two cells wide)
            t_mid = t_in + (t_out - t_in) * (2.0 / 3.0)
            g = np.arange(T[r] // 4)[:, None]
            sec, gs = np.divmod(g, p_out // 2)   # group gs of its sector
            d = np.arange(5)
            vt = np.concatenate([ring(r, 8 * g + 2 * d), ring(r + 1, 4 * g + 2 * d[:3]),
                                 radial(r, g)], axis=1)
            zt = np.concatenate([chart(sec, t_out, p_out, 4 * gs + d),
                                 chart(sec, t_in, p_in, 2 * gs + d[:3]),
                                 chart(sec, t_mid, p_out, 4 * gs + 2)], axis=1)
            et = np.concatenate([radial(r, 4 * g), ring(r, 8 * g + 2 * d[:4] + 1),
                                 radial(r, 4 * g + 4), ring(r + 1, 4 * g + 2 * d[:2] + 1),
                                 ring_start[r] + 2 * T[r] + 4 * g + d[:4]], axis=1)
            vpat, epat = _COARSEN_VERTICES, _COARSEN_EDGES
        order.append(vt.ravel())
        quads.append(vt[:, vpat].reshape(-1, 4))
        corners.append(zt[:, vpat].reshape(-1, 4))
        darts.append(et[:, epat].reshape(-1, 4))
    # closure fan: one quarter-square quad per sector
    rM = len(rings) - 1
    t_M, p_M = rings[rM]
    if p_M != 1:
        raise RefineError("innermost ring must have one edge per segment")
    i = np.arange(K)
    vt = np.stack([np.repeat(cone, K), ring(rM, 4 * i), ring(rM, 4 * i + 2),
                   ring(rM, 4 * i + 4)], axis=1)
    order.append(vt.ravel())
    quads.append(vt)
    corners.append(np.stack([chart(i, 0.0, 1, 0), chart(i, t_M, 1, 0), chart(i, t_M, 1, 1),
                             chart(i, t_M, 1, 2)], axis=1))
    darts.append(np.stack([radial(rM, 2 * i), ring(rM, 4 * i + 1), ring(rM, 4 * i + 3),
                           radial(rM, 2 * i + 2)], axis=1))
    patch = [np.concatenate(part) for part in (order, quads, corners, darts)]
    return patch, int(ring_start[-1] + 3 * T[-1])


def _patch_keys(codes, L, blocks):
    """Exact vertex keys of an adapted mesh, from its vertex codes: the
    lattice keys ("v", p, x, y), and ("ring", cid, r, slot) or ("mid",
    cid, r, group) above the lattice, blocks holding (start, cid, r, T)
    of every ring."""
    b = np.searchsorted(blocks[:, 0], codes, side="right") - 1
    lattice = iter(_lattice_keys(codes[b < 0], L))
    off = (codes - blocks[b, 0]).tolist()
    cid, ring, T = blocks[:, 1:].T.tolist()
    return [next(lattice) if i < 0 else
            ("ring" if o < T[i] else "mid", cid[i], ring[i], o % T[i])
            for i, o in zip(b.tolist(), off)]


def _bipartite_colors(n, quads):
    """Two-coloring by breadth-first depth parity from vertex 0, the
    first cone: a polygon corner, black as on uniform meshes (the cell
    count is even)."""
    a, b = np.ravel(quads), np.roll(quads, -1, axis=1).ravel()
    colors = (spanning_tree(n, a, b).depth % 2).astype(np.int8)
    odd = np.flatnonzero(colors[a] == colors[b])
    if len(odd):
        raise RefineError(
            "vertex graph is not bipartite (odd cycle through "
            f"vertices {a[odd[0]]} and {b[odd[0]]})")
    return colors


# ---------------------------------------------------------------------------
# Sweeps
# ---------------------------------------------------------------------------

def sweep(surface, levels, adapted=False, base_cell=0.5, phi_floor=math.pi / 12):
    """Refinement-level family with decreasing h; every level is validated
    (genus, area, angle floor; image bounds when adapted).

    Accepts either a glued-polygon surface (meshed per level) or an
    existing quad-graph (refined by repeated subdivision)."""
    if levels < 2:
        raise RefineError("a sweep needs at least 2 levels")
    raw = isinstance(surface, QuadGraph)
    if raw and adapted:
        raise RefineError("adapted sweeps need the glued surface, "
                          "not a raw quad-graph")
    out = []
    for l in range(levels):
        cell = base_cell / (2 ** l)
        if raw:
            g = subdivide(out[-1].graph) if out else surface
        elif adapted:
            g = generate_adapted(surface, cell, phi_floor=phi_floor)
        else:
            g = build_quad_graph(surface, cell)
        st = mesh_stats(g)
        if st.phi_min < phi_floor - 1e-12:
            raise RefineError(f"level {l}: phi floor violated ({st.phi_min})")
        if out:
            first = out[0].stats
            if st.genus != first.genus:
                raise RefineError("genus changed across levels")
            if abs(st.area - first.area) > 1e-12 * max(1.0, first.area):
                raise RefineError("area changed across levels")
            if st.h >= out[-1].stats.h:
                raise RefineError("h did not decrease")
        out.append(RefinementLevel(level=l, graph=g, stats=st, adapted=adapted))
    return out
