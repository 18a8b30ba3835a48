"""Mesh families for convergence studies.

Uniform refinement splits every quad into four through edge midpoints and
the chart centroid.  Adapted meshes shorten edges near cones of index
<= 1/2 so that their images under the flattening chart stay below the
target edge length, which restores the linear convergence rate: around
each cone a graded stack of concentric square rings (in the max-norm of
the cone's sector coordinates) replaces the uniform grid, with 2:1
angular coarsening rings on the way in and a fan of quarter-square quads
closing the center.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .surface import (
    BLACK,
    QuadGraph,
    SurfaceError,
    _attach_cones,
    _first_appearance,
    _grid_cells,
    _lattice_codes,
    _lattice_keys,
    _reference_loops,
    _rotate_to_black,
    _square_tiled_data,
    grid_edge_key,
    grid_point_key,
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
    meta.pop("poly_of_quad", None)
    meta.pop("k", None)

    def keys(source=graph._vertex_keys):   # not the graph: keep no parent alive
        source = source() if callable(source) else source
        return None if source is None else source + [None] * (E + F)

    return QuadGraph(colors, quads, corners, cones=graph.cones,
                     vertex_keys=keys, meta=meta, dart_keys=dart_keys)


# ---------------------------------------------------------------------------
# Adapted meshes
# ---------------------------------------------------------------------------

class _VertexRegistry:
    """Vertex interning by exact key, in order of first appearance."""

    def __init__(self):
        self.keys = []
        self.index = {}

    def get(self, key):
        i = self.index.get(key)
        if i is None:
            i = self.index[key] = len(self.keys)
            self.keys.append(key)
        return i


PATCH_HALF_WIDTH = Fraction(1, 4)   # sector coordinate extent of a cone patch
IMG_SAFETY = 0.9                    # target fraction of h for chart images
EDGE_SAFETY = 0.95                  # absolute edge-length fraction of h


def _ring_schedule(gamma, h, j):
    """Radii and per-segment subdivision counts of the graded rings, from
    the patch boundary inward.  Returns a list of (t, p) with p halving at
    angular coarsening steps, ending at p = 1, plus the parity of rings
    needed so the checkerboard coloring matches the ambient grid."""
    c = float(PATCH_HALF_WIDTH)
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
    image bounds, angle floor) before it is returned."""
    if surface.generator and surface.generator.get("kind") == "torus" \
            or (len(surface.polygons) == 1 and not surface.cone_classes):
        from .surface import build_quad_graph
        return build_quad_graph(surface, h)
    _square_tiled_data(surface)
    k_f = 1.0 / h
    k = int(round(k_f))
    if abs(k - k_f) > 1e-9 or k < 4 or (k & (k - 1)) != 0:
        raise RefineError(
            f"adapted meshes need a power-of-two cell count >= 4, got 1/{h}")
    if not surface.cone_classes:
        from .surface import build_quad_graph
        return build_quad_graph(surface, h)
    jc = k // 4   # cells spanned by a patch

    reg = _VertexRegistry()
    quads = []
    corners = []
    dart_keys = []
    poly_of_quad = []

    # -- cone patches ------------------------------------------------------
    singular_corners = set()
    for cid in surface.cone_classes:
        for (p, i) in surface.vertex_links[cid]:
            singular_corners.add((p, i))

    for cid in surface.cone_classes:
        gamma = 2.0 * math.pi / surface.vertex_angles[cid]
        if gamma > 0.5 + 1e-12:
            raise RefineError("cone with index above 1/2 on a square-tiled surface")
        link = surface.vertex_links[cid]
        rings, kinds = _with_parity(gamma, h, jc)
        _emit_patch(surface, reg, quads, corners, dart_keys, poly_of_quad,
                    cid, link, rings, kinds, jc, k)

    # -- ambient cells: the uniform grid outside the patches ---------------
    (cell_poly, _, _), corner_codes, mid_codes, pos = _grid_cells(
        surface, k, _kept_cells(surface, singular_corners, k, jc))
    L = 2 * k

    def lattice_keys(points):
        return _lattice_keys(_lattice_codes(surface, *points.T, L), L)

    # exact keys, interned after the patch keys in order of first appearance
    vertex_codes, ambient = _first_appearance(corner_codes)
    vids = [reg.get(key) for key in _lattice_keys(vertex_codes, L)]
    edge_code = {}
    patch_edges = [[edge_code.setdefault(key, len(edge_code)) for key in row]
                   for row in dart_keys]
    mids, ambient_edges = np.unique(mid_codes, return_inverse=True)
    eids = [edge_code.setdefault(("e",) + key[1:], len(edge_code))
            for key in _lattice_keys(mids, L)]
    quads = np.concatenate([np.reshape(quads, (-1, 4)), np.array(vids)[ambient]])
    colors = _bipartite_colors(surface, reg, quads)
    quads, corners, codes = _rotate_to_black(
        colors[quads[:, 0]], quads, np.concatenate([np.reshape(corners, (-1, 4)), pos]),
        np.concatenate([patch_edges, np.array(eids)[ambient_edges.reshape(-1, 4)]]))
    poly_of_quad = np.concatenate([poly_of_quad, cell_poly.ravel()]).astype(np.int64)

    def vertex_ids(points):
        return [reg.index[key] for key in lattice_keys(points)]

    def edge_keys(points):
        return [edge_code[("e",) + key[1:]] for key in lattice_keys(points)]

    cones = _attach_cones(surface, k, vertex_ids)
    loops = _reference_loops(surface, k, vertex_ids, edge_keys)
    meta = {"kind": "square_tiled", "k": k, "adapted": True, "loops": loops,
            "poly_of_quad": poly_of_quad, "surface": surface}
    g = QuadGraph(colors, quads, corners, cones=cones,
                  vertex_keys=reg.keys, meta=meta, dart_keys=codes)
    st = mesh_stats(g)
    if st.phi_min < phi_floor - 1e-12:
        raise RefineError(f"angle floor violated: phi_min {st.phi_min:.4f}")
    rep = validate_h_adapted(g, h)
    if not rep["passed"]:
        raise RefineError(f"adapted mesh failed its own validation: {rep['violations']}")
    return g


def _kept_cells(surface, singular_corners, k, jc):
    """(P, k, k) mask of the grid cells outside the cone patches: each
    patch covers the jc x jc cells at its singular corners."""
    keep = np.ones((len(surface.polygons), k, k), dtype=bool)
    lo, hi = slice(0, jc), slice(k - jc, k)
    for p, ci in singular_corners:
        keep[p, (lo, hi, hi, lo)[ci], (lo, lo, hi, hi)[ci]] = False
    return keep


def _sector_frames(surface, link):
    """Per sector: polygon id, corner origin, unit axes (complex), and the
    fractional frame for exact grid keys."""
    frames = []
    corner_frac = [(Fraction(0), Fraction(0)), (Fraction(1), Fraction(0)),
                   (Fraction(1), Fraction(1)), (Fraction(0), Fraction(1))]
    fex = [(Fraction(1), Fraction(0)), (Fraction(0), Fraction(1)),
           (Fraction(-1), Fraction(0)), (Fraction(0), Fraction(-1))]
    for (p, ci) in link:
        poly = surface.polygons[p]
        origin = complex(*poly[ci])
        ex = complex(*(poly[(ci + 1) % 4] - poly[ci]))
        ey = 1j * ex
        ofx, ofy = corner_frac[ci]
        exf = fex[ci]
        eyf = fex[(ci + 1) % 4]  # rot90 of the axis directions
        frames.append({
            "p": p, "origin": origin, "ex": ex, "ey": ey,
            "ofrac": (ofx, ofy), "exfrac": exf, "eyfrac": eyf,
        })
    return frames


def _emit_patch(surface, reg, quads, corners, dart_keys, poly_of_quad,
                cid, link, rings, kinds, jc, k):
    K = len(link)
    frames = _sector_frames(surface, link)

    def local_point(t, p, rel):
        """Coordinates of the ring vertex `rel` steps into a sector, in
        that sector's own frame; rel runs 0..2p along the two segments."""
        if rel <= p:
            return (t, rel * t / p)
        return ((2 * p - rel) * t / p, t)

    def to_chart(i, xy):
        # charts of patch quads are centered on the cone: absolute polygon
        # offsets would drown the deepest rings in float cancellation
        f = frames[i]
        return xy[0] * f["ex"] + xy[1] * f["ey"]

    def grid_key_of(i, fx, fy):
        f = frames[i]
        ox, oy = f["ofrac"]
        ax, ay = f["exfrac"]
        bx, by = f["eyfrac"]
        return grid_point_key(surface, f["p"],
                              ox + fx * ax + fy * bx, oy + fx * ay + fy * by)

    def ring_vertex(r, slot):
        t, p = rings[r]
        slot = slot % (2 * p * K)
        if r == 0:
            i, u = divmod(slot, 2 * p)
            c = PATCH_HALF_WIDTH
            if u <= p:
                fx, fy = c, Fraction(u, p) * c
            else:
                fx, fy = Fraction(2 * p - u, p) * c, c
            return reg.get(grid_key_of(i, fx, fy))
        return reg.get(("ring", cid, r, slot))

    cone_vertex = reg.get(grid_key_of(0, Fraction(0), Fraction(0)))

    def to_poly_frac(i, fx, fy):
        f = frames[i]
        ox, oy = f["ofrac"]
        ax, ay = f["exfrac"]
        bx, by = f["eyfrac"]
        return (ox + fx * ax + fy * bx, oy + fx * ay + fy * by)

    def arc_key(r, slot):
        """Arc edge between ring slots s and s+1; on the patch boundary it
        must match the ambient grid edge key."""
        t, p = rings[r]
        slot = slot % (2 * p * K)
        if r > 0:
            return ("arc", cid, r, slot)
        i, u = divmod(slot, 2 * p)
        c = PATCH_HALF_WIDTH
        sf = []
        for uu in (u, u + 1):
            if uu <= p:
                sf.append((c, Fraction(uu, p) * c))
            else:
                sf.append((Fraction(2 * p - uu, p) * c, c))
        (x1, y1), (x2, y2) = (to_poly_frac(i, *sf[0]), to_poly_frac(i, *sf[1]))
        return grid_edge_key(surface, frames[i]["p"], x1, y1, x2, y2)

    def emit(quad, pos, keys, sector):
        quads.append(quad)
        corners.append(pos)
        dart_keys.append(keys)
        poly_of_quad.append(frames[sector]["p"])

    n_rings = len(rings)
    for r in range(n_rings - 1):
        t_out, p_out = rings[r]
        t_in, p_in = rings[r + 1]
        total = 2 * p_out * K
        if kinds[r] == "plain":
            for sec in range(K):
                for u in range(2 * p_out):
                    s = 2 * p_out * sec + u
                    q = [ring_vertex(r + 1, s), ring_vertex(r, s),
                         ring_vertex(r, s + 1), ring_vertex(r + 1, s + 1)]
                    pos = [to_chart(sec, local_point(t_in, p_in, u)),
                           to_chart(sec, local_point(t_out, p_out, u)),
                           to_chart(sec, local_point(t_out, p_out, u + 1)),
                           to_chart(sec, local_point(t_in, p_in, u + 1))]
                    keys = [("rad", cid, r, s), arc_key(r, s),
                            ("rad", cid, r, (s + 1) % total),
                            arc_key(r + 1, s)]
                    emit(q, pos, keys, sec)
        else:
            # the mid vertex sits 2/3 of the way down: that balances the
            # sharpest corners of the outer caps (one cell wide) against
            # the inner caps (two cells wide)
            t_mid = t_in + (t_out - t_in) * (2.0 / 3.0)
            n_g = total // 4
            groups_per_sec = n_g // K
            for sec in range(K):
                for gs in range(groups_per_sec):
                    gid = groups_per_sec * sec + gs
                    u0 = 4 * gs                      # sector-relative
                    s0 = 2 * p_out * sec + u0        # global outer slot
                    w0 = p_in * 2 * sec + 2 * gs     # global inner slot
                    P = [ring_vertex(r, s0 + d) for d in range(5)]
                    Pp = [to_chart(sec, local_point(t_out, p_out, u0 + d))
                          for d in range(5)]
                    Q = [ring_vertex(r + 1, w0 + d) for d in range(3)]
                    Qp = [to_chart(sec, local_point(t_in, p_in, 2 * gs + d))
                          for d in range(3)]
                    m = reg.get(("mid", cid, r, gid))
                    mp = to_chart(sec, local_point(t_mid, p_out, u0 + 2))
                    emit([Q[0], P[0], P[1], m],
                         [Qp[0], Pp[0], Pp[1], mp],
                         [("rad", cid, r, s0), arc_key(r, s0),
                          ("sp", cid, r, gid, 0), ("sp", cid, r, gid, 2)],
                         sec)
                    emit([m, P[1], P[2], P[3]],
                         [mp, Pp[1], Pp[2], Pp[3]],
                         [("sp", cid, r, gid, 0), arc_key(r, s0 + 1),
                          arc_key(r, s0 + 2), ("sp", cid, r, gid, 1)],
                         sec)
                    emit([m, P[3], P[4], Q[2]],
                         [mp, Pp[3], Pp[4], Qp[2]],
                         [("sp", cid, r, gid, 1), arc_key(r, s0 + 3),
                          ("rad", cid, r, (s0 + 4) % total),
                          ("sp", cid, r, gid, 3)],
                         sec)
                    emit([m, Q[2], Q[1], Q[0]],
                         [mp, Qp[2], Qp[1], Qp[0]],
                         [("sp", cid, r, gid, 3), arc_key(r + 1, w0 + 1),
                          arc_key(r + 1, w0), ("sp", cid, r, gid, 2)],
                         sec)
    # closure fan: one quarter-square quad per sector
    rM = n_rings - 1
    t_M, p_M = rings[rM]
    if p_M != 1:
        raise RefineError("innermost ring must have one edge per segment")
    for i in range(K):
        a0 = ring_vertex(rM, 2 * i)
        d0 = ring_vertex(rM, 2 * i + 1)
        a1 = ring_vertex(rM, 2 * i + 2)
        pos = [to_chart(i, (0.0, 0.0)), to_chart(i, (t_M, 0.0)),
               to_chart(i, (t_M, t_M)), to_chart(i, (0.0, t_M))]
        emit([cone_vertex, a0, d0, a1], pos,
             [("fan", cid, i), arc_key(rM, 2 * i),
              arc_key(rM, 2 * i + 1), ("fan", cid, (i + 1) % K)],
             i)


def _bipartite_colors(surface, reg, quads):
    q = np.asarray(quads, dtype=np.int64)
    a, b = q.ravel(), np.roll(q, -1, axis=1).ravel()
    colors = (spanning_tree(len(reg.keys), a, b).depth % 2).astype(np.int8)
    odd = np.flatnonzero(colors[a] == colors[b])
    if len(odd):
        raise RefineError(
            "vertex graph is not bipartite (odd cycle through "
            f"vertices {a[odd[0]]} and {b[odd[0]]})")
    # normalize the global two-coloring: polygon corners sit at even grid
    # parity (the cell count is even), so they are black on uniform meshes
    flip = False
    for idx, key in enumerate(reg.keys):
        if key is not None and key[0] == "v":
            par = key[2] + key[3]
            if par.denominator == 1:
                flip = colors[idx] != BLACK
                break
    if flip:
        colors = 1 - colors
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
    from .surface import build_quad_graph
    if isinstance(surface, QuadGraph):
        if adapted:
            raise RefineError("adapted sweeps need the glued surface, "
                              "not a raw quad-graph")
        out = []
        g = surface
        for l in range(levels):
            if l > 0:
                g = subdivide(g)
            st = mesh_stats(g)
            if st.phi_min < phi_floor - 1e-12:
                raise RefineError(f"level {l}: phi floor violated ({st.phi_min})")
            out.append(RefinementLevel(level=l, graph=g, stats=st, adapted=False))
        return out
    out = []
    genus0 = None
    area0 = None
    for l in range(levels):
        cell = base_cell / (2 ** l)
        if adapted:
            g = generate_adapted(surface, cell, phi_floor=phi_floor)
        else:
            g = build_quad_graph(surface, cell)
        st = mesh_stats(g)
        if st.phi_min < phi_floor - 1e-12:
            raise RefineError(f"level {l}: phi floor violated ({st.phi_min})")
        if genus0 is None:
            genus0, area0 = st.genus, st.area
        else:
            if st.genus != genus0:
                raise RefineError("genus changed across levels")
            if abs(st.area - area0) > 1e-12 * max(1.0, area0):
                raise RefineError("area changed across levels")
        out.append(RefinementLevel(level=l, graph=g, stats=st, adapted=adapted))
        if l > 0 and out[-1].stats.h >= out[-2].stats.h:
            raise RefineError("h did not decrease")
    return out
