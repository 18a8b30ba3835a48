"""Polyhedral surfaces and their bipartite quad decompositions.

A surface is glued from planar polygons, flat away from finitely many
cone points.  Side e of polygon p, from its corner e to corner e + 1,
and corner e have the flat id first[p] + e; partner[s] is the side glued
to side s.  Counterclockwise around a vertex, the corner after c starts
the side glued to the side before c, so the vertex classes are the
cycles of partner[prev].  One routine walks many cycles at once (`_walk`,
`_cycles`): vertex links, the polygon chains of reference loops and the
rotation systems of quad graphs.

A mesh is a cell decomposition into quadrilaterals with a bipartite
(black/white) vertex graph and one isometric chart per quad; downstream
quantities are per-quad or combinatorial.  Meshes are built on integer
arrays, with one key scheme for every mesh of glued polygons.  The
polygons are translates of one parallelogram glued by translations; its
sides ex, ey leaving the first vertex are the frame of the surface (1
and i for a square-tiled surface, 1 and tau for the torus of modulus
tau).  A mesh with k cells per side keys each grid vertex and edge
midpoint by the integer code of a point (p, x, y) of the 2k lattice of
polygon p, the point (x ex + y ey) / 2k from its first vertex; a point
on a glued side takes its smallest image (a side point at parameter t
maps to 2k - t on the partner side, a corner to the smallest corner of
its vertex class).  The cone patches of adapted meshes (refine.py) put
their boundary on the same lattice and key the rest of their vertices
and edges by integers above its range.  Uniform and adapted meshes go
through one assembly (`_lattice_mesh`), which colors them by
construction: lattice point (x, y) is black when (x + y) / 2 is even,
and each patch gives the colors of its own vertices.  Vertices and edges
are numbered in order of first appearance; the mesh keeps the code of
every vertex in meta["vertex_codes"], on uniform meshes its one identity
across levels (`lattice_vertex_ids`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.sparse import coo_matrix, csr_matrix, csgraph

TWO_PI = 2.0 * math.pi

# Absolute tolerance for geometric equalities on unit-scale inputs.
GEOM_TOL = 1e-9


class SurfaceError(ValueError):
    """Invalid surface or quad-graph input."""


@dataclass(frozen=True)
class ConePoint:
    """Cone vertex data: total angle, index 2*pi/angle, chart radius."""

    vertex: int
    angle: float
    radius: float

    @property
    def index(self) -> float:
        return TWO_PI / self.angle

    @property
    def is_singular(self) -> bool:
        return abs(self.angle - TWO_PI) > GEOM_TOL


@dataclass
class PolyhedralSurface:
    """Closed oriented surface glued from planar polygons.

    polygons: list of vertex arrays (m, 2), counterclockwise.
    gluings: pairs ((p, e), (q, f)) identifying edge e of polygon p with
    edge f of polygon q by an orientation-reversing isometry, so the
    start of one edge maps to the end of the other.
    """

    polygons: list
    gluings: list
    generator: dict | None = None

    # filled by validate()
    vertex_class: np.ndarray = field(init=False, repr=False)
    vertex_angles: list = field(init=False, repr=False)
    cone_classes: list = field(init=False, repr=False)
    genus: int = field(init=False)

    def __post_init__(self):
        self.polygons = [np.asarray(p, dtype=float) for p in self.polygons]
        self.validate()

    # -- gluing bookkeeping -------------------------------------------------

    def edge_vector(self, p, e):
        poly = self.polygons[p]
        m = len(poly)
        return poly[(e + 1) % m] - poly[e]

    def validate(self):
        sizes = [len(poly) for poly in self.polygons]
        first = self.first = np.cumsum([0] + sizes)
        polygon_of = np.repeat(np.arange(len(sizes)), sizes)
        self.local = np.stack([polygon_of, np.arange(first[-1]) - first[polygon_of]], axis=1)
        partner = self.partner = np.full(first[-1], -1)
        for (p, e), (q, f) in self.gluings:
            if not all(0 <= r < len(sizes) and 0 <= i < sizes[r] for r, i in ((p, e), (q, f))):
                raise SurfaceError(f"gluing {(p, e)} / {(q, f)} names a side outside its polygon")
            s, t = first[p] + e, first[q] + f
            if partner[s] >= 0 or partner[t] >= 0:
                raise SurfaceError(f"edge glued twice: {(p, e)} / {(q, f)}")
            partner[s], partner[t] = t, s
        for p, poly in enumerate(self.polygons):
            if len(poly) < 3:
                raise SurfaceError(f"polygon {p} has fewer than 3 vertices")
            if _polygon_area(poly) <= 0:
                raise SurfaceError(f"polygon {p} not counterclockwise")
            unglued = np.flatnonzero(partner[first[p]:first[p + 1]] < 0)
            if len(unglued):
                raise SurfaceError(f"unglued edge ({p}, {unglued[0]})")
        for (p, e), (q, f) in self.gluings:
            le = np.linalg.norm(self.edge_vector(p, e))
            lf = np.linalg.norm(self.edge_vector(q, f))
            if abs(le - lf) > 1e-12 * max(le, lf):
                raise SurfaceError(
                    f"glued edges differ in length: ({p},{e})={le} ({q},{f})={lf}")
        apart = np.flatnonzero(
            spanning_tree(len(sizes), polygon_of, polygon_of[partner]).depth < 0)
        if len(apart):
            raise SurfaceError(f"surface is disconnected: no chain of gluings joins "
                               f"polygon {apart[0]} to polygon 0")
        # vertex links: the cycles of the corner permutation partner[prev]
        prev = np.arange(len(partner)) - 1
        prev[first[:-1]] += np.diff(first)
        self.vertex_class, walk, offsets = _cycles(partner[prev])
        xy = np.concatenate(self.polygons)
        # prev[c] is also the corner before c: u, v lead to the corners before and after
        u, v = xy[prev] - xy, xy[np.argsort(prev)] - xy
        corner_angles = np.array([math.atan2(_cross2(b, a), float(np.dot(b, a))) % TWO_PI
                                  for a, b in zip(u, v)])
        links = np.split(walk, offsets[1:-1])
        self.vertex_links = [self.local[link] for link in links]
        # each link's corner angles summed left to right in walk order
        angles = self.vertex_angles = [float(np.cumsum(corner_angles[link])[-1])
                                       for link in links]
        self.cone_classes = [k for k, a in enumerate(angles)
                             if abs(a - TWO_PI) > GEOM_TOL]
        n_v = len(angles)
        n_e = len(partner) // 2
        n_f = len(self.polygons)
        chi = n_v - n_e + n_f
        if chi % 2 != 0:
            raise SurfaceError(f"odd Euler characteristic {chi}")
        self.genus = (2 - chi) // 2
        # Gauss-Bonnet cross-check: sum of angle defects = 2*pi*chi.
        defect = sum(TWO_PI - a for a in angles)
        if abs(defect - TWO_PI * chi) > 1e-6:
            raise SurfaceError("angle defects inconsistent with Euler count")
        if self.genus < 1:
            raise SurfaceError("genus 0 surfaces are not admitted")

    def total_area(self):
        return sum(_polygon_area(p) for p in self.polygons)

    def cone_radius(self, class_id):
        """Chart radius: half the separation of the cone from other cone
        classes, capped by half the shortest corner-to-corner distance
        inside one polygon (a proxy for the shortest geodesic loop)."""
        best = math.inf
        for p, poly in enumerate(self.polygons):
            ids = self.vertex_class[self.first[p]:self.first[p + 1]].tolist()
            for i in range(len(poly)):
                for j in range(i + 1, len(poly)):
                    pair = {ids[i], ids[j]}
                    if class_id in pair and (pair == {class_id} or pair <= set(self.cone_classes)):
                        best = min(best, float(np.linalg.norm(poly[i] - poly[j])))
        if not math.isfinite(best):
            best = math.sqrt(self.total_area())
        return 0.5 * best


def _walk(succ, starts, lengths):
    """Walk lengths[k] steps of succ from starts[k], for all k at once:
    the visited elements, walk k at offsets[k]:offsets[k + 1], and offsets."""
    offsets = np.concatenate([[0], np.cumsum(lengths)])
    walk = np.empty(offsets[-1], dtype=np.int64)
    rows, cur = np.arange(len(starts)), starts
    for t in range(int(lengths.max(initial=0))):
        walk[offsets[rows] + t] = cur
        more = lengths[rows] > t + 1
        rows, cur = rows[more], succ[cur[more]]
    return walk, offsets


def _cycles(succ):
    """Cycles of the permutation succ, numbered by their smallest elements
    and walked from them: the cycle of every element, and _walk's output."""
    n = len(succ)
    _, label = csgraph.connected_components(
        csr_matrix((np.ones(n), succ, np.arange(n + 1)), shape=(n, n)), directed=False)
    _, starts, lengths = np.unique(label, return_index=True, return_counts=True)
    return (label, *_walk(succ, starts, lengths))


def _cross2(u, v):
    return float(u[0] * v[1] - u[1] * v[0])


def _polygon_area(poly):
    x = poly[:, 0]
    y = poly[:, 1]
    return 0.5 * float(np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y))


# ---------------------------------------------------------------------------
# Quad-graph
# ---------------------------------------------------------------------------

BLACK, WHITE = 0, 1


@dataclass
class MeshStats:
    h: float
    phi_min: float
    n_quads: int
    n_vertices: int
    genus: int
    cone_indices: list
    area: float

    @property
    def gamma_min(self) -> float:
        """Smallest cone index clamped at 1 (1 when no cones)."""
        if not self.cone_indices:
            return 1.0
        return min(1.0, min(self.cone_indices))


class QuadGraph:
    """Bipartite quad decomposition with one flat chart per quad.

    quads[q] = (b-, w-, b+, w+): vertex ids counterclockwise, first black.
    corners[q] gives the matching complex chart coordinates.  The black
    diagonal is b- -> b+, the white diagonal w- -> w+.

    A closed graph holds each long-lived array once: color, quads,
    corners, dart_edge (F, 4), edge_occ (E, 2) and one key per edge.
    What these determine is made on each access: black_diag, white_diag,
    area and diagonal_ratio from corners, edge_list from quads and
    edge_occ, and dart_keys from the per-edge keys.  The rotation system
    is cached only until homology_basis is done with it.
    """

    def __init__(self, colors, quads, corners, cones=(), meta=None, dart_keys=None,
                 closed=True):
        self.color = np.asarray(colors, dtype=np.int8)
        self.quads = np.asarray(quads, dtype=np.int64)
        self.corners = np.asarray(corners, dtype=complex)
        self.cones = list(cones)
        self._keyed = dart_keys is not None
        self._dart_keys = dart_keys   # until the edges hold the keys (_build_edges)
        self.closed = closed
        self.meta = meta or {}
        self._cache = {}
        self.validate()

    @property
    def dart_keys(self):
        """The (F, 4) integer edge key table the graph was built with, or
        None.  Once the edges are built they hold each key once
        (_edge_codes), and the table is made from them on each access."""
        if self._dart_keys is None and self._keyed:
            return self._edge_codes[self.dart_edge]
        return self._dart_keys

    # -- basic quantities ---------------------------------------------------

    @property
    def n_vertices(self):
        return len(self.color)

    @property
    def n_quads(self):
        return len(self.quads)

    # -- validation and per-quad geometry -----------------------------------

    @property
    def black_diag(self):
        """Per quad, the black diagonal b- -> b+ in the quad's chart."""
        return self.corners[:, 2] - self.corners[:, 0]

    @property
    def white_diag(self):
        """Per quad, the white diagonal w- -> w+ in the quad's chart."""
        return self.corners[:, 3] - self.corners[:, 1]

    @property
    def area(self):
        """Per quad, the chart area Im(conj(black_diag) white_diag) / 2."""
        return 0.5 * np.imag(np.conj(self.black_diag) * self.white_diag)

    @property
    def diagonal_ratio(self):
        """Per quad, -i * white_diag / black_diag: the complex structure
        datum.  Real and positive exactly for orthogonal diagonals; the
        real part is positive on every valid quad."""
        return -1j * self.white_diag / self.black_diag

    def validate(self):
        """Check the quad table and the charts: black_diag, white_diag,
        area and diagonal_ratio per quad, each checked before its first use."""
        V, F = self.n_vertices, self.n_quads
        q = self.quads
        if q.shape != (F, 4) or self.corners.shape != (F, 4):
            raise SurfaceError("quads/corners shape mismatch")
        if np.any((q < 0) | (q >= V)):
            raise SurfaceError(f"quad vertex id out of range [0, {V})")
        if np.any(self.color[q] != [BLACK, WHITE, BLACK, WHITE]):
            raise SurfaceError("vertex coloring does not alternate around a quad")
        c = self.corners
        length = np.abs(c[:, [1, 2, 3, 0]] - c)   # side s from corner s to s + 1
        # pairwise: a maximum along rows of four is ten times slower
        scale = np.maximum(np.maximum(length[:, 0], length[:, 1]),
                           np.maximum(length[:, 2], length[:, 3]))
        if np.any(np.abs(self.black_diag) < GEOM_TOL * scale):
            raise SurfaceError("degenerate black diagonal")
        if np.any(np.abs(self.white_diag) < GEOM_TOL * scale):
            raise SurfaceError("degenerate white diagonal")
        area = self.area
        if np.any(area <= 0):
            bad = int(np.argmin(area))
            raise SurfaceError(f"quad {bad} not positively oriented (area {area[bad]})")
        # simplicity: one of the two diagonals must split the quad into two
        # positively oriented triangles (weakly, straight corners allowed)
        t1 = _tri_area(c[:, 0], c[:, 1], c[:, 2])
        t2 = _tri_area(c[:, 0], c[:, 2], c[:, 3])
        u1 = _tri_area(c[:, 1], c[:, 2], c[:, 3])
        u2 = _tri_area(c[:, 1], c[:, 3], c[:, 0])
        tol = -GEOM_TOL * np.abs(area)
        ok = ((t1 >= tol) & (t2 >= tol)) | ((u1 >= tol) & (u2 >= tol))
        if not np.all(ok):
            raise SurfaceError(f"quad {int(np.argmin(ok))} is not a simple quadrilateral")
        if np.any(self.diagonal_ratio.real <= 0):
            raise SurfaceError("diagonal ratio with nonpositive real part")
        if not self.closed:
            return
        self._build_edges(length.ravel())
        self._check_connected()
        g = self.genus()
        if self.cones:
            if any(c.vertex < 0 or c.vertex >= V for c in self.cones):
                raise SurfaceError("cone vertex id out of range")
            defect = sum(TWO_PI - c.angle for c in self.cones if c.is_singular)
            if abs(defect - TWO_PI * (2 - 2 * g)) > 1e-6:
                raise SurfaceError("cone angles inconsistent with Euler genus")

    def _build_edges(self, length):
        """Index undirected edges in order of first appearance in the quad
        table; check the complex is a closed oriented manifold (each edge
        in exactly two quads, opposite directions, equal chart lengths).

        Generators pass dart_keys, an (F, 4) table of integer edge keys,
        so that parallel edges (same endpoints, distinct edges, as on the
        2x2 torus) are distinguished; the graph then keeps one key per
        edge, and the table is not held.  Without keys the endpoint pair
        must determine the edge; ambiguous inputs are rejected.
        """
        F, V = self.n_quads, self.n_vertices
        tail = self.quads.ravel()
        head = self.quads[:, [1, 2, 3, 0]].ravel()
        codes = _dart_codes(self.dart_keys, tail, head, V, F)
        # edges in key order: the g-th has id edge[g] and the darts
        # darts[start[g]:start[g + 1]], in quad-table order
        darts, start, edge = _groups(codes)
        count = np.diff(start, append=4 * F)
        d1, d2 = darts[start], darts[np.minimum(start + 1, 4 * F - 1)]
        l1, l2 = length[d1], length[d2]
        paired = count == 2
        same_way = paired & ((tail[d1] != head[d2]) | (head[d1] != tail[d2]))
        stretched = paired & ~same_way & (np.abs(l1 - l2) > GEOM_TOL * np.maximum(1.0, l1))
        bad = np.flatnonzero(~paired | same_way | stretched)
        if len(bad):
            g = bad[np.argmin(edge[bad])]   # the smallest edge id
            e = int(edge[g])
            if not paired[g]:
                if not self._keyed and count[g] > 2:
                    raise SurfaceError(
                        "parallel edges between the same vertices; the quad "
                        "table is ambiguous without explicit edge keys")
                raise SurfaceError(
                    f"edge {e} lies in {count[g]} quads (not a closed surface)")
            if same_way[g]:
                raise SurfaceError(
                    f"edge {e} not traversed in opposite directions by its two quads")
            raise SurfaceError(
                f"edge {e} has mismatched chart lengths {float(l1[g])} vs {float(l2[g])}")
        dart_edge = np.empty(4 * F, dtype=np.int64)
        dart_edge[darts] = np.repeat(edge, 2)   # every edge has two darts now
        self.dart_edge = dart_edge.reshape(F, 4)
        # per edge: its two darts (4 * quad + side), which leave its two ends, and its key
        occ = np.empty((3, len(edge)), dtype=np.int64)
        occ[0, edge], occ[1, edge], occ[2, edge] = d1, d2, codes[d1]
        self.edge_occ, self._edge_codes = occ[:2].T, occ[2]
        self._dart_keys = None

    @property
    def edge_list(self):
        """(E, 2) end vertex ids of every edge, smaller first."""
        return self.edge_ends(slice(None))

    def edge_ends(self, eids):
        """(k, 2) end vertex ids of the edges eids, smaller first: the
        tails of each edge's two darts."""
        a, b = self.quads.ravel()[self.edge_occ[eids].T]
        return np.stack([np.minimum(a, b), np.maximum(a, b)], axis=1)

    def edge_ids(self, keys):
        """Edge ids of a sequence of edge keys, as given in dart_keys."""
        return _positions(self._edge_codes, keys)

    def _check_connected(self):
        (a, b), V = self.edge_list.T, self.n_vertices
        if csgraph.connected_components(coo_matrix((np.ones(len(a)), (a, b)), (V, V)))[0] > 1:
            raise SurfaceError("quad-graph is disconnected")

    def n_edges(self):
        return len(self.edge_occ)

    def genus(self):
        chi = self.n_vertices - self.n_edges() + self.n_quads
        if chi % 2 != 0:
            raise SurfaceError("odd Euler characteristic")
        return (2 - chi) // 2

    # -- rotation system ----------------------------------------------------

    def rotation(self):
        """Counterclockwise cyclic edge order around every vertex.

        Returns (rot, quad_after): rot[v] is the cyclic list of edge ids
        leaving v, starting at v's first corner in the quad table, and
        quad_after[v][t] the quad between darts t and t+1.  Cached on the
        graph; homology_basis, its one reader in the pipeline, drops the
        cache when it is done.
        """
        cached = self._cache.get("rotation")
        if cached is not None:
            return cached
        V, D = self.n_vertices, 4 * self.n_quads
        tail = self.quads.ravel()
        twin = np.empty(D, dtype=np.int64)
        twin[self.edge_occ] = self.edge_occ[:, ::-1]
        # the next dart counterclockwise around tail[d] leaves along the
        # edge that enters tail[d] in the same quad
        nxt = twin.reshape(-1, 4)[:, [3, 0, 1, 2]].ravel()
        broken = tail[nxt] != tail
        if np.any(broken):
            raise SurfaceError(f"broken rotation at vertex {tail[broken].min()}")
        # walk around all vertices at once, from each one's first corner
        walk, offsets = _walk(nxt, self.first_corners(), np.bincount(tail, minlength=V))
        missed = np.bincount(walk, minlength=D) == 0
        if np.any(missed):
            raise SurfaceError(f"vertex {tail[missed].min()} has a disconnected link")
        rot = Ragged(self.dart_edge.ravel()[walk], offsets)
        self._cache["rotation"] = (rot, Ragged(walk // 4, offsets))
        return self._cache["rotation"]

    def first_corners(self):
        """Flat index 4 * quad + corner of each vertex's first corner."""
        first = np.full(self.n_vertices, self.quads.size)
        np.minimum.at(first, self.quads.ravel(), np.arange(self.quads.size))
        return first

    def diagonal_ends(self, color):
        """Start and end vertex arrays of every quad's diagonal of the given
        color: (b-, b+) for black, (w-, w+) for white."""
        lo, hi = (0, 2) if color == BLACK else (1, 3)
        return self.quads[:, lo], self.quads[:, hi]


class Ragged:
    """Rows of a flat array cut at offsets: self[v] is row v as a list."""

    def __init__(self, flat, offsets):
        self.flat = flat
        self.offsets = offsets

    def __getitem__(self, v):
        return self.flat[self.offsets[v]:self.offsets[v + 1]].tolist()


def _dart_codes(dart_keys, tail, head, V, F):
    """One integer edge key per dart: the given key, or the sorted
    endpoint pair when there are none."""
    if dart_keys is None:
        return np.minimum(tail, head) * V + np.maximum(tail, head)
    try:
        codes = np.asarray(dart_keys)
    except ValueError:
        codes = None
    if codes is None or codes.shape != (F, 4) or codes.dtype.kind not in "iu":
        raise SurfaceError("edge table must list 4 integer edge keys per quad")
    return codes.ravel().astype(np.int64, copy=False)


@dataclass(frozen=True)
class SpanningTree:
    """Breadth-first spanning tree of the component of its root.

    order lists the reached nodes root first, level by level; parent and
    parent_edge are -1 at the root and off the tree; depth is -1 off the
    tree.
    """

    order: np.ndarray
    parent: np.ndarray
    parent_edge: np.ndarray
    depth: np.ndarray

    def prefix_sums(self, step):
        """Root-outward sums: out[u] = out[parent[u]] + step[u], zero at
        the root and off the tree; one vector step per depth level."""
        out = np.zeros_like(step)
        cuts = np.flatnonzero(np.diff(self.depth[self.order])) + 1
        for nodes in np.split(self.order, cuts)[1:]:
            out[nodes] = out[self.parent[nodes]] + step[nodes]
        return out


def spanning_tree(n, heads, tails, mask=None, root=0, directed=False):
    """Breadth-first spanning tree on n nodes over the edges
    heads[e] -- tails[e] where mask is true.

    Each node's neighbours are visited in edge-id order, and parent_edge
    is the smallest edge id joining a node to its parent, so parallel
    edges resolve deterministically.  With directed=True edge e is the
    arc heads[e] -> tails[e] only; callers list both arcs of an edge
    where the order around each node must follow its own numbering.
    """
    eids = np.arange(len(heads)) if mask is None else np.flatnonzero(mask)
    # the arcs k: rows[k] -> cols[k], of edge eids[k] (directed) or of
    # eids[k // 2], both ways in turn; 32-bit where the ids fit, since
    # these arrays set the peak memory of the Abelian integral
    idx = np.int32 if max(n, 2 * len(eids)) < 2 ** 31 else np.int64
    a, b = (np.asarray(ends)[eids].astype(idx, copy=False) for ends in (heads, tails))
    rows, cols = (a, b) if directed else (np.stack(ab, axis=1).ravel() for ab in ((a, b), (b, a)))
    del a, b
    # a stable sort by node keeps each node's arcs in edge-id order
    indices = cols[np.argsort(rows, kind="stable")]
    indptr = np.r_[0, np.cumsum(np.bincount(rows, minlength=n))].astype(idx)
    # float64 data: csgraph would convert other data, re-sorting each row
    adj = csr_matrix((np.ones(len(indices)), indices, indptr), shape=(n, n))
    order, parent = csgraph.breadth_first_order(
        adj, root, directed=True, return_predecessors=True)
    del adj, indices, indptr
    parent = np.where(parent < 0, -1, parent)
    k = np.flatnonzero(parent[cols] == rows)   # arcs from a node's parent to it
    parent_edge = np.full(n, len(heads))
    np.minimum.at(parent_edge, cols[k], eids[k if directed else k // 2])
    del rows, cols, eids, k
    parent_edge[parent_edge == len(heads)] = -1
    # breadth-first order lists each level after the one before, and the
    # positions of the parents never decrease along it: a level ends
    # where the parents leave the level before it
    pos = np.empty(n, dtype=np.int64)
    pos[order] = np.arange(len(order))
    up = np.r_[-1, pos[parent[order[1:]]]]
    ends = [1]
    while ends[-1] < len(order):
        ends.append(int(np.searchsorted(up, ends[-1])))
    depth = np.full(n, -1, dtype=np.int64)
    depth[order] = np.repeat(np.arange(len(ends)), np.diff(ends, prepend=0))
    return SpanningTree(order, parent, parent_edge, depth)


def _tri_area(a, b, c):
    return 0.5 * np.imag(np.conj(b - a) * (c - a))


def mesh_stats(graph):
    """Edge-length, angle and genus summary of a quad-graph, computed once
    per graph."""
    if "stats" not in graph._cache:
        graph._cache["stats"] = _mesh_stats(graph)
    return graph._cache["stats"]


def _mesh_stats(graph):
    c = graph.corners
    side = c[:, [1, 2, 3, 0]] - c
    # interior angles of ccw quads, from the side to corner s + 1 to the one to s - 1
    angle = np.angle(np.conj(side) * -side[:, [3, 0, 1, 2]]) % TWO_PI
    margin = 0.5 * math.pi - np.abs(np.angle(graph.diagonal_ratio))
    return MeshStats(
        h=float(np.max(np.abs(side))),
        phi_min=min(float(np.min(angle)), float(np.min(margin))),
        n_quads=graph.n_quads,
        n_vertices=graph.n_vertices,
        genus=graph.genus(),
        cone_indices=[c.index for c in graph.cones if c.is_singular],
        area=float(np.sum(graph.area)),
    )


# ---------------------------------------------------------------------------
# Generators
# ---------------------------------------------------------------------------

def torus_surface(tau):
    """The flat torus of modulus tau, a complex number or its [re, im]
    pair: one parallelogram with sides 1 and tau, opposite sides glued."""
    try:
        z = complex(*tau) if isinstance(tau, (list, tuple)) else complex(tau)
    except (TypeError, ValueError):
        z = math.nan
    if not (np.isfinite(z) and z.imag > 0):
        raise SurfaceError(f"torus modulus {tau!r} is not a finite complex number "
                           "with positive imaginary part")
    if max(abs(z.real), z.imag) > 1e150:   # the bound of load_surface's coordinates
        raise SurfaceError(f"torus modulus {tau!r} has a part of magnitude above 1e150")
    poly = [[0, 0], [1, 0], [1 + z.real, z.imag], [z.real, z.imag]]
    return PolyhedralSurface(polygons=[poly], gluings=[((0, 0), (0, 2)), ((0, 1), (0, 3))],
                             generator={"kind": "torus", "tau": [z.real, z.imag]})


def generate_torus(tau, n):
    """n x n parallelogram mesh of the flat torus with modulus tau, a
    complex number or its [re, im] pair: the uniform mesh of
    torus_surface(tau).

    n must be even and at least 2: the checkerboard coloring of an odd
    grid does not close up around the torus.
    """
    surface = torus_surface(tau)
    if n < 2 or n % 2 != 0:
        raise SurfaceError(f"grid size {n} is not an even number >= 2")
    return build_quad_graph(surface, 1 / n)


def _square_tiled_data(surface):
    """Frame (ex, ey) of a parallelogram-tiled surface, as complex numbers:
    the sides of polygon 0 leaving its first vertex.  Checks that every
    polygon has the sides ex, ey, -ex, -ey in this order, so it is a
    translate of polygon 0, and that the gluings are translations."""
    ex, ey = (complex(*surface.edge_vector(0, e)) for e in (0, 1))
    for p, poly in enumerate(surface.polygons):
        if len(poly) != 4:
            raise SurfaceError(f"polygon {p} is not a quadrilateral")
        sides = [complex(*surface.edge_vector(p, e)) for e in range(4)]
        if not np.allclose(sides, [ex, ey, -ex, -ey], atol=GEOM_TOL):
            raise SurfaceError(
                f"polygon {p} is not a translate of polygon 0 with ccw vertices "
                "from the same corner")
    for (p, e), (q, f) in surface.gluings:
        if (e - f) % 4 != 2:
            raise SurfaceError(f"gluing ({p},{e})~({q},{f}) is not a translation")
    return ex, ey


def build_quad_graph(surface, cell_size):
    """Mesh a parallelogram-tiled surface: every polygon is cut into k x k
    translates of the parallelogram with sides ex / k, ey / k, where ex, ey
    is the frame of the surface and k = 1 / cell_size.  k must be even so
    that the checkerboard coloring closes up across translation gluings.
    Quad (p * k + i) * k + j is cell (i, j) of polygon p, i along ex."""
    frame = _square_tiled_data(surface)
    k = _cell_count(surface, cell_size)
    return _lattice_mesh(surface, k, np.ones((len(surface.polygons), k, k), dtype=bool), frame)


def _cell_count(surface, cell_size):
    """The even cell count k >= 2 of a cell size 1 / k, checked before any
    array is allocated: the P (2k + 1)^2 codes of the 2k lattice must fit
    int64."""
    inv = 1.0 / cell_size if 0 < cell_size <= 0.5 else 0.0   # 0 for nan too
    k = int(round(inv)) if math.isfinite(inv) else -1
    if k < 0 or len(surface.polygons) * (2 * k + 1) ** 2 > np.iinfo(np.int64).max:
        raise SurfaceError(f"cell size {cell_size} is too small: its lattice codes overflow int64")
    if k == 0 or abs(k - inv) > 1e-9 or k % 2 != 0:
        raise SurfaceError(f"cell size {cell_size} is not 1/k for an even k >= 2")
    return k


def _lattice_table(surface):
    """Gluing table of a parallelogram-tiled surface, cached on it: partner
    (polygon, side) of every side, and for every corner the (polygon,
    corner) of the smallest image in its vertex class."""
    table = getattr(surface, "_lattice", None)
    if table is None:
        P = len(surface.polygons)
        sides = surface.local[surface.partner].reshape(P, 4, 2)
        rank = np.array([0, 2, 3, 1])   # corners by position: (0,0) < (0,1) < (1,0) < (1,1)
        best = np.array([link[np.lexsort((rank[link[:, 1]], link[:, 0]))[0]]
                         for link in surface.vertex_links])
        corners = best[surface.vertex_class].reshape(P, 4, 2)
        table = surface._lattice = (sides, corners)
    return table


_CORNER_X = np.array([0, 1, 1, 0])
_CORNER_Y = np.array([0, 0, 1, 1])
# the corners of a quad from the first black one, by its first corner's color
_TURN = np.array([[0, 1, 2, 3], [1, 2, 3, 0]])
# unit steps along the sides leaving corners 0..3
_SIDE_X, _SIDE_Y = np.roll(_CORNER_X, -1) - _CORNER_X, np.roll(_CORNER_Y, -1) - _CORNER_Y


def _lattice_codes(surface, p, x, y, L):
    """Integer key of lattice points (p, x, y), 0 <= x, y <= L in units of
    1/L of the frame of polygon p: the code (p * (L + 1) + x) * (L + 1) + y
    of the smallest image under the gluings."""
    sides, corners = _lattice_table(surface)
    p, x, y = np.broadcast_arrays(p, x, y)
    on = np.stack((y == 0, x == L, y == L, x == 0))
    n_on = on.sum(axis=0)
    codes = np.asarray(_code(p, x, y, L))
    # a side point at parameter t maps to parameter L - t on the partner side
    side = n_on == 1
    e = np.argmax(on[:, side], axis=0)
    p1, x1, y1 = p[side], x[side], y[side]
    q, f = sides[p1, e, 0], sides[p1, e, 1]
    t = L - np.choose(e, [x1, y1, L - x1, L - y1])
    partner = _code(q, np.choose(f, [t, L, L - t, 0]), np.choose(f, [0, t, L, L - t]), L)
    codes[side] = np.minimum(codes[side], partner)
    corner = n_on == 2
    p2, x2, y2 = p[corner], x[corner], y[corner]
    c = np.where(x2 == L, np.where(y2 == L, 2, 1), np.where(y2 == L, 3, 0))
    cq, cc = corners[p2, c, 0], corners[p2, c, 1]
    codes[corner] = _code(cq, _CORNER_X[cc] * L, _CORNER_Y[cc] * L, L)
    return codes


def _code(p, x, y, L):
    return (p * (L + 1) + x) * (L + 1) + y


def _corner_codes(surface, p, c, a, b, L):
    """_lattice_codes of the points (a ex + b ey) / L from corner c of
    polygons p, ex along the side leaving the corner, ey along the next."""
    x = L * _CORNER_X[c] + a * _SIDE_X[c] + b * _SIDE_X[(c + 1) % 4]
    y = L * _CORNER_Y[c] + a * _SIDE_Y[c] + b * _SIDE_Y[(c + 1) % 4]
    return _lattice_codes(surface, p, x, y, L)


def _lattice_mesh(surface, k, keep, frame, patches=()):
    """Mesh of the 2k lattice: the quads of the cone patches (refine.py),
    then the cells (p, i, j) of the k x k grids where the (P, k, k) mask
    keep is true, in row-major order, charted in the frame (ex, ey).  A
    patch lists its vertex codes in numbering order and their colors, and
    per quad its vertex codes, chart corners and dart edge codes.

    Vertices are numbered by first appearance, in the patch orders, then
    in the cell corners ccw from (i, j).  Lattice point (x, y) is black
    when (x + y) / 2 is even, so a cell starts at corner (i + j) % 2; a
    patch quad turns to its first black corner by its patch's colors."""
    P, L, s = len(surface.polygons), 2 * k, 1.0 / k
    patch = [np.concatenate(part) for part in zip(*patches)]
    order = patch[0] if patches else np.zeros(0, dtype=np.int64)
    # every code by its own: only lattice side points have smaller images
    table = np.arange(max(P * (L + 1) ** 2, np.max(order, initial=-1) + 1))
    t, o = np.arange(L + 1), np.zeros(L + 1, dtype=np.int64)
    p, x, y = np.arange(P)[:, None], np.r_[t, t, o, o + L], np.r_[o, o + L, t, t]
    table[_code(p, x, y, L)] = _lattice_codes(surface, p, x, y, L)
    p, i, j = np.nonzero(keep)
    n, turn = len(p), _TURN[(i + j) % 2]
    base = _code(p, 2 * i, 2 * j, L)[:, None]
    corner_codes = table[base + _code(0, 2 * _CORNER_X, 2 * _CORNER_Y, L)[turn]]
    dart_keys = table[base + _code(0, np.array([1, 2, 1, 0]), np.array([0, 1, 2, 1]), L)[turn]]
    ex, ey = frame
    z = np.array([complex(*poly[0]) for poly in surface.polygons])[p] + i * s * ex + j * s * ey
    # offsets last: square-tiled charts round exactly as x + s, y + s
    pos = z[:, None] + (s * np.array([0, ex, ex + ey, ey]))[turn]
    # every code's first position, then the codes in that order and each one's place
    m = len(order)
    table[:] = m + 4 * n
    np.minimum.at(table, order, np.arange(m))
    np.minimum.at(table, corner_codes.ravel(), (m + 4 * np.arange(n)[:, None] + turn).ravel())
    codes = np.flatnonzero(table < m + 4 * n)
    by_position = np.full(m + 4 * n, -1)
    by_position[table[codes]] = codes
    codes = by_position[by_position >= 0]
    table[codes] = np.arange(len(codes))
    quads = table[corner_codes]
    colors = np.zeros(len(codes), dtype=np.int8)
    colors[quads[:, 1::2]] = WHITE
    if patches:
        colors[table[order]] = patch[1]
        turn = _TURN[colors[table[patch[2][:, 0]]]]
        quads, pos, dart_keys = (np.concatenate([np.take_along_axis(a, turn, axis=1), b]) for a, b
                                 in zip((table[patch[2]], *patch[3:]), (quads, pos, dart_keys)))
    # free the lattice tables: the QuadGraph checks set the mesh stage's peak memory
    del table, by_position, corner_codes, base, turn, z, p, i, j
    meta = {"kind": "square_tiled", "k": k, "adapted": bool(patches), "vertex_codes": codes,
            "loops": _reference_loops(surface, k, codes), "surface": surface}
    return QuadGraph(colors, quads, pos, cones=_attach_cones(surface, k, codes), meta=meta,
                     dart_keys=dart_keys)


def _groups(codes):
    """Equal entries of the flat array codes grouped by one stable sort:
    perm lists them by code, group g from perm[start[g]] in array order;
    rank[g] is the place of its code in order of first appearance."""
    perm = np.argsort(codes, kind="stable")
    start = np.flatnonzero(np.r_[True, np.diff(codes[perm]) != 0][:len(codes)])
    first = np.zeros(len(codes), dtype=bool)
    first[perm[start]] = True
    return perm, start, np.cumsum(first)[perm[start]] - 1


def _positions(distinct, codes):
    """Index of each code in the array of distinct codes; KeyError for a
    code that is not there."""
    codes = np.asarray(codes, dtype=np.int64)
    by_code = np.argsort(distinct, kind="stable")   # linear on sorted runs
    at = np.searchsorted(distinct, codes, sorter=by_code)
    at = by_code[np.minimum(at, len(distinct) - 1)]
    missing = np.flatnonzero(distinct[at] != codes)
    if len(missing):
        raise KeyError(f"no such key: {codes[missing[0]]}")
    return at


def lattice_vertex_ids(coarse, fine):
    """Ids on the uniform mesh fine of the vertices of the uniform mesh
    coarse of the same surface, at cell sizes 1/(m k) and 1/k."""
    if any(g.meta.get("adapted") or "vertex_codes" not in g.meta for g in (coarse, fine)):
        raise SurfaceError("lattice vertex ids need uniform lattice meshes (build_quad_graph)")
    k, kf = coarse.meta["k"], fine.meta["k"]
    if kf % k:
        raise SurfaceError(f"cell count {kf} is not a multiple of {k}")
    L, m = 2 * k, kf // k
    p, r = np.divmod(coarse.meta["vertex_codes"], (L + 1) ** 2)
    x, y = np.divmod(r, L + 1)
    return _positions(fine.meta["vertex_codes"], _code(p, m * x, m * y, m * L))


def _attach_cones(surface, k, vertex_codes):
    """Cone points of a lattice mesh whose vertex v has the code
    vertex_codes[v] (its 2k-lattice code where it has one)."""
    cones = []
    for cid in surface.cone_classes:
        p, c = surface.vertex_links[cid][0]
        corner = _corner_codes(surface, p, c, 0, 0, 2 * k)
        cones.append(ConePoint(vertex=int(_positions(vertex_codes, corner)),
                               angle=surface.vertex_angles[cid],
                               radius=surface.cone_radius(cid)))
    return cones


def _reference_loops(surface, k, vertex_codes):
    """Cylinder core loops along ex and ey through polygon centers.

    These depend only on the surface, not on the mesh level, so period
    matrices computed on different refinements share one homology basis.
    Vertex v has the code vertex_codes[v] (its 2k-lattice code where it
    has one); the edge keys of the loops are the lattice codes of the
    edge midpoints.
    """
    def codes(points):
        return _lattice_codes(surface, *points.T, 2 * k)

    along = 2 * np.arange(k)
    loops = {"a": [], "b": []}
    for direction, cross in (("a", 1), ("b", 2)):
        # the polygons across the right / top sides, glued by translations
        # (_square_tiled_data) to their left / bottom sides
        q = surface.local[surface.partner[surface.first[:-1] + cross], 0]
        _, order, offsets = _cycles(q)
        for chain in np.split(order, offsets[1:-1]):
            polys = np.repeat(chain, k)
            walk = np.tile(along, len(chain))
            mid = np.full_like(walk, k)
            xy = (walk, mid) if direction == "a" else (mid, walk)
            points = np.stack([polys, *xy], axis=1)
            points_mid = points + ([0, 1, 0] if direction == "a" else [0, 0, 1])
            loops[direction].append({
                "verts": _positions(vertex_codes, codes(points)).tolist(),
                "edge_keys": codes(points_mid).tolist()})
    return loops


def load_surface(doc):
    """Build a PolyhedralSurface from a parsed surface document (dict)."""
    if not isinstance(doc, dict) or doc.get("format") != 1:
        raise SurfaceError("missing or unsupported 'format' header (want 1)")
    gen = doc.get("generator")
    if gen:
        if not isinstance(gen, dict):
            raise SurfaceError(f"generator {gen!r} is not a table")
        kind = gen.get("kind")
        if kind == "torus":
            return torus_surface(gen.get("tau"))
        if kind == "l_shape":
            return l_shape_surface()
        if kind == "square_tiled":
            doc = {"format": 1, "polygons": gen.get("polygons"), "gluings": gen.get("gluings")}
        else:
            raise SurfaceError(f"unknown generator kind {kind!r}")
    polys = doc.get("polygons")
    glu = doc.get("gluings")
    if not isinstance(polys, list) or not polys or not isinstance(glu, list):
        raise SurfaceError("surface document needs 'polygons' and 'gluings'")
    polygons = []
    for row in polys:
        try:
            polygons.append(np.asarray(row, dtype=float).reshape(len(row), 2))
        except (TypeError, ValueError):
            raise SurfaceError(f"polygon row {row!r} is not a list of [x, y] numbers") from None
        if not np.all(np.isfinite(polygons[-1])):
            raise SurfaceError(f"polygon row {row!r} has a non-finite coordinate")
        # up to 1e150, squares and cross products of differences stay finite
        if np.any(np.abs(polygons[-1]) > 1e150):
            raise SurfaceError(f"polygon row {row!r} has a coordinate of magnitude above 1e150")
    sides = {(p, e): (p, e) for p, poly in enumerate(polygons) for e in range(len(poly))}
    gluings = []
    for row in glu:
        try:   # sides holds int pairs; a row may spell them 1.0 or true
            (p, e), (q, f) = row
            gluings.append((sides[p, e], sides[q, f]))
        except (TypeError, ValueError, KeyError):
            raise SurfaceError(f"gluing row {row!r} does not name two polygon sides") from None
    return PolyhedralSurface(polygons=polygons, gluings=gluings)


def l_shape_surface():
    """Three unit squares in an L, opposite sides glued by translations:
    one vertex of total angle 6*pi, genus 2."""
    sq = np.array([[0, 0], [1, 0], [1, 1], [0, 1]], dtype=float)
    polygons = [sq.copy(), sq + [1, 0], sq + [0, 1]]
    gluings = [
        ((0, 0), (2, 2)),   # bottom of S1 ~ top of S3
        ((1, 0), (1, 2)),   # bottom of S2 ~ top of S2
        ((0, 3), (1, 1)),   # left of S1 ~ right of S2
        ((2, 3), (2, 1)),   # left of S3 ~ right of S3
        ((0, 2), (2, 0)),   # top of S1 ~ bottom of S3
        ((0, 1), (1, 3)),   # right of S1 ~ left of S2
    ]
    return PolyhedralSurface(polygons=polygons, gluings=gluings,
                             generator={"kind": "l_shape"})


# ---------------------------------------------------------------------------
# Cone development and adaptedness validation
# ---------------------------------------------------------------------------

def develop_cone_disk(graph, cone):
    """Lay out the quads of the disk around a cone in its flat polar chart.

    The quads are developed along a breadth-first tree of the dual graph
    from a quad at the cone; the disk is the component of the cone's fan
    among the quads with a developed corner within cone.radius.  Returns
    arrays (quads, dev, psi): the disk's quad ids, ascending, their
    developed corners (complex, the cone at 0) and their corner angles,
    unwrapped about each quad's centroid (nan at the cone itself).
    Positions and angle differences are consistent within each quad,
    which is all the image-length checks need.
    """
    F = graph.n_quads
    z = graph.corners.ravel()
    z_next, z_prev = (np.roll(graph.corners, k, axis=1).ravel() for k in (-1, 1))
    out = np.flatnonzero(graph.quads.ravel() == cone.vertex)   # darts leaving the cone
    wedge = np.angle((z_prev[out] - z[out]) / (z_next[out] - z[out])) % TWO_PI
    if abs(np.sum(wedge) - cone.angle) > 1e-7:
        raise SurfaceError("cone fan does not close up to the stored angle")
    # a child's chart maps into its parent's by the affine map a w + b that
    # sends their shared edge onto itself, reversed; the maps compose from
    # the root outward, the root chart shifted to put the cone at 0
    ends = graph.edge_occ // 4
    root = out[0] // 4
    tree = spanning_tree(F, *ends.T, root=root)
    child = np.flatnonzero(tree.parent_edge >= 0)
    darts = graph.edge_occ[tree.parent_edge[child]]
    mine = darts // 4 == child[:, None]
    dc, dp = darts[mine], darts[~mine]
    a = (z_next[dp] - z[dp]) / (z[dc] - z_next[dc])
    log_a = np.zeros(F, dtype=complex)
    log_a[child] = np.log(a)
    alpha = np.exp(tree.prefix_sums(log_a))
    b = np.zeros(F, dtype=complex)
    b[child] = alpha[tree.parent[child]] * (z[dp] - a * z_next[dc])
    beta = tree.prefix_sums(b) - z[out[0]]
    dev = alpha[:, None] * graph.corners + beta[:, None]
    near = np.min(np.abs(dev), axis=1) <= cone.radius
    disk = spanning_tree(F, *ends.T, near[ends].all(axis=1), root).depth >= 0
    quads = np.flatnonzero(disk)
    dev = dev[quads]
    psi = np.angle(dev)
    psi += TWO_PI * np.round((np.angle(np.sum(dev, axis=1))[:, None] - psi) / TWO_PI)
    psi[graph.quads[quads] == cone.vertex] = math.nan
    return quads, dev, psi


def cone_image(r, a, gamma):
    """Image of surface polar coordinates under the cone-flattening chart
    r^gamma * exp(i*gamma*psi)."""
    return (r ** gamma) * np.exp(1j * gamma * np.asarray(a))


def validate_h_adapted(graph, h):
    """Check max edge length <= h and, for every cone of index <= 1/2, that
    each edge of the disk has chart image of length <= h.  Returns a
    report dict with pass/fail and the worst violator."""
    stats = mesh_stats(graph)
    report = {"h": h, "max_edge": stats.h, "passed": True, "violations": []}
    tol = 1 + 1e-9
    if stats.h > h * tol:
        report["passed"] = False
        report["violations"].append(("edge_length", stats.h))
    for cone in graph.cones:
        if not cone.is_singular or cone.index > 0.5 + 1e-12:
            continue
        gamma = cone.index
        _, dev, a = develop_cone_disk(graph, cone)
        r = np.abs(dev)
        r2, a2 = np.roll(r, -1, axis=1), np.roll(a, -1, axis=1)
        with np.errstate(invalid="ignore"):   # psi is nan at the cone point
            img = np.where((r < GEOM_TOL) | (r2 < GEOM_TOL), np.maximum(r, r2) ** gamma,
                           np.abs(cone_image(r, a, gamma) - cone_image(r2, a2, gamma)))
        worst = float(np.max(img, where=np.maximum(r, r2) <= cone.radius, initial=0.0))
        report[f"cone_{cone.vertex}_worst_image"] = worst
        if worst > h * tol:
            report["passed"] = False
            report["violations"].append((f"cone_{cone.vertex}_image", worst))
    return report
