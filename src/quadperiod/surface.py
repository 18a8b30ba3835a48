"""Polyhedral surfaces and their bipartite quad decompositions.

A surface is glued from planar polygons; away from finitely many cone
points the metric is flat.  The discretization is a cell decomposition
into quadrilaterals whose vertex graph is bipartite (black/white).  Each
quad stores its own isometric chart; no global coordinates exist, and all
downstream quantities are per-quad or combinatorial.

Meshes are built on integer arrays, with one key scheme for every mesh
of glued polygons, tori included.  The polygons are translates of one
parallelogram glued by translations; its sides ex, ey leaving the first
vertex are the frame of the surface (1 and i for a square-tiled surface,
1 and tau for the torus of modulus tau).  A mesh with k cells per side
keys each grid vertex and edge midpoint by the integer code of a point
(p, x, y) of the 2k lattice of polygon p, the point (x ex + y ey) / 2k
from its first vertex; a point on a glued side takes its smallest image
(a side point at parameter t maps to 2k - t on the partner side, a
corner to the smallest corner of its vertex class).  The cone patches of
adapted meshes (refine.py) put their boundary on the same lattice and
key the rest of their vertices and edges by integers above its range.
Vertices and edges are numbered in order of first appearance; the mesh
keeps the code of every vertex in meta["vertex_codes"], its one identity
across levels (`lattice_vertex_ids`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.sparse import csr_matrix, csgraph

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
    vertex_class: dict = field(default_factory=dict, repr=False)
    vertex_angles: list = field(default_factory=list, repr=False)
    cone_classes: list = field(default_factory=list, repr=False)
    genus: int = 0

    def __post_init__(self):
        self.polygons = [np.asarray(p, dtype=float) for p in self.polygons]
        self.validate()

    # -- gluing bookkeeping -------------------------------------------------

    def edge_vector(self, p, e):
        poly = self.polygons[p]
        m = len(poly)
        return poly[(e + 1) % m] - poly[e]

    def _edge_partner_map(self):
        cached = getattr(self, "_partner", None)
        if cached is not None:
            return cached
        partner = {}
        for (p, e), (q, f) in self.gluings:
            if (p, e) in partner or (q, f) in partner:
                raise SurfaceError(f"edge glued twice: {(p, e)} / {(q, f)}")
            partner[(p, e)] = (q, f)
            partner[(q, f)] = (p, e)
        self._partner = partner
        return partner

    def validate(self):
        partner = self._edge_partner_map()
        for p, poly in enumerate(self.polygons):
            if len(poly) < 3:
                raise SurfaceError(f"polygon {p} has fewer than 3 vertices")
            if _polygon_area(poly) <= 0:
                raise SurfaceError(f"polygon {p} not counterclockwise")
            for e in range(len(poly)):
                if (p, e) not in partner:
                    raise SurfaceError(f"unglued edge ({p}, {e})")
        for (p, e), (q, f) in self.gluings:
            le = np.linalg.norm(self.edge_vector(p, e))
            lf = np.linalg.norm(self.edge_vector(q, f))
            if abs(le - lf) > 1e-12 * max(le, lf):
                raise SurfaceError(
                    f"glued edges differ in length: ({p},{e})={le} ({q},{f})={lf}")
        pairs = np.array([(p, q) for (p, _), (q, _) in self.gluings])
        apart = np.flatnonzero(spanning_tree(len(self.polygons), *pairs.T).depth < 0)
        if len(apart):
            raise SurfaceError(f"surface is disconnected: no chain of gluings joins "
                               f"polygon {apart[0]} to polygon 0")
        self._build_vertex_links(partner)

    def _build_vertex_links(self, partner):
        """Walk the link of every glued vertex; a closed surface gives a
        single corner cycle per vertex class."""
        corners = [(p, i) for p, poly in enumerate(self.polygons)
                   for i in range(len(poly))]
        seen = {}
        classes = []
        angles = []
        links = []
        for corner in corners:
            if corner in seen:
                continue
            cid = len(classes)
            cycle = []
            total = 0.0
            c = corner
            while True:
                if c in seen:
                    if c is not corner and seen[c] != cid:
                        raise SurfaceError(f"non-manifold link at corner {corner}")
                    break
                seen[c] = cid
                cycle.append(c)
                total += self._corner_angle(*c)
                p, i = c
                m = len(self.polygons[p])
                c = _link_next(partner, p, i, m)
            classes.append(cycle[0])
            angles.append(total)
            links.append(cycle)
        self.vertex_class = seen
        self.vertex_angles = angles
        self.vertex_links = links
        self.cone_classes = [k for k, a in enumerate(angles)
                             if abs(a - TWO_PI) > GEOM_TOL]
        n_v = len(angles)
        n_e = sum(len(p) for p in self.polygons) // 2
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

    def _corner_angle(self, p, i):
        poly = self.polygons[p]
        m = len(poly)
        u = poly[(i - 1) % m] - poly[i]
        v = poly[(i + 1) % m] - poly[i]
        ang = math.atan2(_cross2(v, u), float(np.dot(v, u)))
        return ang % TWO_PI

    def total_area(self):
        return sum(_polygon_area(p) for p in self.polygons)

    def cone_radius(self, class_id):
        """Chart radius: half the separation of the cone from other cone
        classes, capped by half the shortest corner-to-corner distance
        inside one polygon (a proxy for the shortest geodesic loop)."""
        best = math.inf
        for p, poly in enumerate(self.polygons):
            m = len(poly)
            ids = [self.vertex_class[(p, i)] for i in range(m)]
            for i in range(m):
                for j in range(i + 1, m):
                    if ids[i] == class_id or ids[j] == class_id:
                        d = float(np.linalg.norm(poly[i] - poly[j]))
                        if ids[i] == ids[j] == class_id:
                            best = min(best, d)
                        elif class_id in (ids[i], ids[j]) and \
                                (ids[i] in self.cone_classes
                                 and ids[j] in self.cone_classes):
                            best = min(best, d)
        if not math.isfinite(best):
            best = math.sqrt(self.total_area())
        return 0.5 * best


def _link_next(partner, p, i, m):
    # rotate counterclockwise around the vertex: cross the incoming edge
    q, f = partner[(p, (i - 1) % m)]
    return (q, f)


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
    corners[q] gives the matching complex chart coordinates.  The stored
    black diagonal is b- -> b+, the white diagonal w- -> w+.
    """

    def __init__(self, colors, quads, corners, cones=(), meta=None, dart_keys=None,
                 closed=True):
        self.color = np.asarray(colors, dtype=np.int8)
        self.quads = np.asarray(quads, dtype=np.int64)
        self.corners = np.asarray(corners, dtype=complex)
        self.cones = list(cones)
        self.dart_keys = dart_keys
        self.closed = closed
        self.meta = meta or {}
        self._cache = {}
        self.validate()

    # -- basic quantities ---------------------------------------------------

    @property
    def n_vertices(self):
        return len(self.color)

    @property
    def n_quads(self):
        return len(self.quads)

    @property
    def black_diag(self):
        d = self._cache.get("bd")
        if d is None:
            d = self.corners[:, 2] - self.corners[:, 0]
            self._cache["bd"] = d
        return d

    @property
    def white_diag(self):
        d = self._cache.get("wd")
        if d is None:
            d = self.corners[:, 3] - self.corners[:, 1]
            self._cache["wd"] = d
        return d

    @property
    def diagonal_ratio(self):
        """-i * (white diagonal) / (black diagonal) per quad; the complex
        structure datum.  Real and positive exactly for orthogonal
        diagonals; the real part is positive on every valid quad."""
        r = self._cache.get("rho")
        if r is None:
            r = -1j * self.white_diag / self.black_diag
            self._cache["rho"] = r
        return r

    @property
    def area(self):
        a = self._cache.get("area")
        if a is None:
            a = 0.5 * np.imag(np.conj(self.black_diag) * self.white_diag)
            self._cache["area"] = a
        return a

    # -- validation ---------------------------------------------------------

    def validate(self):
        V, F = self.n_vertices, self.n_quads
        q = self.quads
        if q.shape != (F, 4) or self.corners.shape != (F, 4):
            raise SurfaceError("quads/corners shape mismatch")
        if np.any((q < 0) | (q >= V)):
            raise SurfaceError(f"quad vertex id out of range [0, {V})")
        if np.any(self.color[q[:, 0]] != BLACK) or np.any(self.color[q[:, 2]] != BLACK) \
                or np.any(self.color[q[:, 1]] != WHITE) or np.any(self.color[q[:, 3]] != WHITE):
            raise SurfaceError("vertex coloring does not alternate around a quad")
        scale = np.max(np.abs(self.corners - np.roll(self.corners, 1, axis=1)), axis=1)
        if np.any(np.abs(self.black_diag) < GEOM_TOL * scale):
            raise SurfaceError("degenerate black diagonal")
        if np.any(np.abs(self.white_diag) < GEOM_TOL * scale):
            raise SurfaceError("degenerate white diagonal")
        if np.any(self.area <= 0):
            bad = int(np.argmin(self.area))
            raise SurfaceError(f"quad {bad} not positively oriented (area {self.area[bad]})")
        # simplicity: one of the two diagonals must split the quad into two
        # positively oriented triangles (weakly, straight corners allowed)
        c = self.corners
        t1 = _tri_area(c[:, 0], c[:, 1], c[:, 2])
        t2 = _tri_area(c[:, 0], c[:, 2], c[:, 3])
        u1 = _tri_area(c[:, 1], c[:, 2], c[:, 3])
        u2 = _tri_area(c[:, 1], c[:, 3], c[:, 0])
        tol = -GEOM_TOL * np.abs(self.area)
        ok = ((t1 >= tol) & (t2 >= tol)) | ((u1 >= tol) & (u2 >= tol))
        if not np.all(ok):
            raise SurfaceError(f"quad {int(np.argmin(ok))} is not a simple quadrilateral")
        if np.any(self.diagonal_ratio.real <= 0):
            raise SurfaceError("diagonal ratio with nonpositive real part")
        if not self.closed:
            return
        self._build_edges()
        self._check_connected()
        g = self.genus()
        if self.cones:
            if any(c.vertex < 0 or c.vertex >= V for c in self.cones):
                raise SurfaceError("cone vertex id out of range")
            defect = sum(TWO_PI - c.angle for c in self.cones if c.is_singular)
            if abs(defect - TWO_PI * (2 - 2 * g)) > 1e-6:
                raise SurfaceError("cone angles inconsistent with Euler genus")

    def _build_edges(self):
        """Index undirected edges in order of first appearance in the quad
        table; check the complex is a closed oriented manifold (each edge
        in exactly two quads, opposite directions, equal chart lengths).

        Generators pass dart_keys, an (F, 4) table of integer edge keys,
        so that parallel edges (same endpoints, distinct edges, as on the
        2x2 torus) are distinguished.  Without keys the endpoint pair must
        determine the edge; ambiguous inputs are rejected.
        """
        F, V = self.n_quads, self.n_vertices
        tail = self.quads.ravel()
        head = np.roll(self.quads, -1, axis=1).ravel()
        self._edge_codes, dart_edge = _first_appearance(
            _dart_codes(self.dart_keys, tail, head, V, F))
        count = np.bincount(dart_edge)
        # darts grouped by edge, each group in quad-table order
        darts = np.argsort(dart_edge, kind="stable")
        lo = np.cumsum(count) - count
        d1, d2 = darts[lo], darts[np.minimum(lo + 1, 4 * F - 1)]
        z = self.corners.ravel()
        length = np.abs(np.roll(self.corners, -1, axis=1).ravel() - z)
        l1, l2 = length[d1], length[d2]
        paired = count == 2
        same_way = paired & ((tail[d1] != head[d2]) | (head[d1] != tail[d2]))
        stretched = paired & ~same_way & (np.abs(l1 - l2) > GEOM_TOL * np.maximum(1.0, l1))
        bad = np.flatnonzero(~paired | same_way | stretched)
        if len(bad):
            e = int(bad[0])
            if not paired[e]:
                if self.dart_keys is None and count[e] > 2:
                    raise SurfaceError(
                        "parallel edges between the same vertices; the quad "
                        "table is ambiguous without explicit edge keys")
                raise SurfaceError(
                    f"edge {e} lies in {count[e]} quads (not a closed surface)")
            if same_way[e]:
                raise SurfaceError(
                    f"edge {e} not traversed in opposite directions by its two quads")
            raise SurfaceError(
                f"edge {e} has mismatched chart lengths {float(l1[e])} vs {float(l2[e])}")
        self.edge_list = np.sort(np.stack([tail[d1], head[d1]], axis=1), axis=1)
        self.dart_edge = dart_edge.reshape(F, 4)
        self.edge_occ = np.stack([d1, d2], axis=1)   # darts 4 * quad + side

    def edge_ids(self, keys):
        """Edge ids of a sequence of edge keys, as given in dart_keys."""
        return _positions(self._edge_codes, keys)

    def _check_connected(self):
        a, b = self.edge_list.T
        if np.any(spanning_tree(self.n_vertices, a, b).depth < 0):
            raise SurfaceError("quad-graph is disconnected")

    def n_edges(self):
        return len(self.edge_list)

    def genus(self):
        chi = self.n_vertices - self.n_edges() + self.n_quads
        if chi % 2 != 0:
            raise SurfaceError("odd Euler characteristic")
        return (2 - chi) // 2

    # -- rotation system ----------------------------------------------------

    def rotation(self):
        """Counterclockwise cyclic edge order around every vertex.

        Returns (rot, rot_pos, quad_after): rot[v] is the cyclic list of
        edge ids leaving v, starting at v's first corner in the quad
        table, rot_pos[v][eid] its position, quad_after[v][t] the quad
        between darts t and t+1.
        """
        cached = self._cache.get("rotation")
        if cached is not None:
            return cached
        V, D = self.n_vertices, 4 * self.n_quads
        tail = self.quads.ravel()
        twin = np.empty(D, dtype=np.int64)
        twin[self.edge_occ] = self.edge_occ[:, ::-1]
        d = np.arange(D)
        # the next dart counterclockwise around tail[d] leaves along the
        # edge that enters tail[d] in the same quad
        nxt = twin[d - d % 4 + (d + 3) % 4]
        broken = tail[nxt] != tail
        if np.any(broken):
            raise SurfaceError(f"broken rotation at vertex {tail[broken].min()}")
        deg = np.bincount(tail, minlength=V)
        offsets = np.concatenate([[0], np.cumsum(deg)])
        # walk around all vertices at once, from each one's first corner
        _, first = np.unique(tail, return_index=True)
        walk = np.empty(D, dtype=np.int64)
        verts, cur = np.arange(V), first
        for t in range(int(deg.max(initial=0))):
            walk[offsets[verts] + t] = cur
            more = deg[verts] > t + 1
            verts, cur = verts[more], nxt[cur[more]]
        missed = np.bincount(walk, minlength=D) == 0
        if np.any(missed):
            raise SurfaceError(f"vertex {tail[missed].min()} has a disconnected link")
        rot = Ragged(self.dart_edge.ravel()[walk], offsets)
        self._cache["rotation"] = (rot, _RotationPositions(rot), Ragged(walk // 4, offsets))
        return self._cache["rotation"]

    def diagonal_ends(self, color):
        """Start and end vertex arrays of every quad's diagonal of the given
        color: (b-, b+) for black, (w-, w+) for white."""
        lo, hi = (0, 2) if color == BLACK else (1, 3)
        return self.quads[:, lo], self.quads[:, hi]

    def other_endpoint(self, eid, v):
        a, b = self.edge_list[eid].tolist()
        return b if v == a else a


class Ragged:
    """Rows of a flat array cut at offsets: self[v] is row v as a list."""

    def __init__(self, flat, offsets):
        self.flat = flat
        self.offsets = offsets

    def __getitem__(self, v):
        return self.flat[self.offsets[v]:self.offsets[v + 1]].tolist()


class _RotationPositions:
    """rot_pos[v][eid]: position of edge eid in the rotation at v."""

    def __init__(self, rot):
        self.rot = rot

    def __getitem__(self, v):
        return {e: t for t, e in enumerate(self.rot[v])}


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
    return codes.ravel().astype(np.int64)


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

    def _levels(self):
        """Reached nodes grouped by depth, root level excluded."""
        cuts = np.flatnonzero(np.diff(self.depth[self.order])) + 1
        return np.split(self.order, cuts)[1:]

    def prefix_sums(self, step):
        """Root-outward sums: out[u] = out[parent[u]] + step[u], zero at
        the root and off the tree."""
        out = np.zeros_like(step)
        for nodes in self._levels():
            out[nodes] = out[self.parent[nodes]] + step[nodes]
        return out

    def subtree_sums(self, values):
        """Leaves-inward sums: out[u] is the sum of values (along the
        first axis) over the subtree of u."""
        out = np.array(values, copy=True)
        for nodes in reversed(self._levels()):
            np.add.at(out, self.parent[nodes], out[nodes])
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
    a, b = np.asarray(heads)[eids], np.asarray(tails)[eids]
    if not directed:
        a, b, eids = np.r_[a, b], np.r_[b, a], np.r_[eids, eids]
    perm = np.lexsort((eids, a))
    a, b, eids = a[perm], b[perm], eids[perm]
    adj = csr_matrix((np.ones(len(a)), b, np.searchsorted(a, np.arange(n + 1))),
                     shape=(n, n))
    order, parent = csgraph.breadth_first_order(
        adj, root, directed=True, return_predecessors=True)
    parent = np.where(parent < 0, -1, parent)
    on = parent[b] == a
    parent_edge = np.full(n, len(heads))
    np.minimum.at(parent_edge, b[on], eids[on])
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
    h = 0.0
    phi = math.inf
    for s in range(4):
        e = c[:, (s + 1) % 4] - c[:, s]
        h = max(h, float(np.max(np.abs(e))))
        u = c[:, (s - 1) % 4] - c[:, s]
        v = c[:, (s + 1) % 4] - c[:, s]
        ang = np.angle(np.conj(v) * u) % TWO_PI  # interior angle, ccw quads
        phi = min(phi, float(np.min(ang)))
    margin = 0.5 * math.pi - np.abs(np.angle(graph.diagonal_ratio))
    phi = min(phi, float(np.min(margin)))
    return MeshStats(
        h=h,
        phi_min=phi,
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
    poly = [[0, 0], [1, 0], [1 + z.real, z.imag], [z.real, z.imag]]
    return PolyhedralSurface(polygons=[poly], gluings=[((0, 0), (0, 2)), ((0, 1), (0, 3))],
                             generator={"kind": "torus", "tau": [z.real, z.imag]})


def generate_torus(tau, n):
    """n x n parallelogram mesh of the flat torus with modulus tau, the
    uniform mesh of torus_surface(tau); meta["tau"] holds tau.

    n must be even and at least 2: the checkerboard coloring of an odd
    grid does not close up around the torus.
    """
    surface = torus_surface(tau)
    if n < 2 or n % 2 != 0:
        raise SurfaceError(f"grid size {n} is not an even number >= 2")
    g = build_quad_graph(surface, 1 / n)
    g.meta["tau"] = complex(tau)
    return g


def _rotate_to_black(first_color, *tables):
    """Rotate the (F, 4) tables one step left on the rows whose first
    vertex is white, so every quad starts at a black vertex."""
    cols = (np.arange(4) + (first_color != BLACK)[:, None]) % 4
    return [np.take_along_axis(t, cols, axis=1) for t in tables]


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
    k = int(round(1.0 / cell_size)) if 0 < cell_size <= 0.5 else 0   # 0 for nan too
    if k == 0 or abs(k - 1.0 / cell_size) > 1e-9 or k % 2 != 0:
        raise SurfaceError(f"cell size {cell_size} is not 1/k for an even k >= 2")
    (_, i, j), corner_codes, mid_codes, pos = _grid_cells(
        surface, k, np.ones((len(surface.polygons), k, k), dtype=bool), frame)
    vertex_codes, quads = _first_appearance(corner_codes)
    colors = np.zeros(len(vertex_codes), dtype=np.int8)
    colors[quads] = (i + _CORNER_X + j + _CORNER_Y) % 2
    quads, pos, dart_keys = _rotate_to_black(colors[quads[:, 0]], quads, pos, mid_codes)

    meta = {"kind": "square_tiled", "k": k,
            "loops": _reference_loops(surface, k, vertex_codes),
            "vertex_codes": vertex_codes, "surface": surface}
    return QuadGraph(colors, quads, pos, cones=_attach_cones(surface, k, vertex_codes),
                     meta=meta, dart_keys=dart_keys)


def _lattice_table(surface):
    """Gluing table of a parallelogram-tiled surface, cached on it: partner
    (polygon, side) of every side, and for every corner the (polygon,
    corner) of the smallest image in its vertex class."""
    table = getattr(surface, "_lattice", None)
    if table is None:
        partner = surface._edge_partner_map()
        P = len(surface.polygons)
        sides = np.array([[partner[(p, e)] for e in range(4)] for p in range(P)])
        rank = (0, 2, 3, 1)   # corners by position: (0,0) < (0,1) < (1,0) < (1,1)
        best = [min((p, rank[c], c) for p, c in link) for link in surface.vertex_links]
        corners = np.array([[best[surface.vertex_class[(p, c)]][::2] for c in range(4)]
                            for p in range(P)])
        table = surface._lattice = (sides, corners)
    return table


_CORNER_X = np.array([0, 1, 1, 0])
_CORNER_Y = np.array([0, 0, 1, 1])


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


def _grid_cells(surface, k, keep, frame):
    """Cells (p, i, j) of the k x k grids, in row-major order, where the
    (P, k, k) mask keep is true: their indices as (n, 1) columns, the
    lattice codes (2k lattice) of their corners, ccw from the first, and
    of the midpoints of the sides leaving them, and their charts in the
    frame (ex, ey)."""
    p, i, j = np.argwhere(keep).T[..., None]
    ex, ey = frame
    L, s = 2 * k, 1.0 / k
    corner_codes = _lattice_codes(surface, p, 2 * (i + _CORNER_X), 2 * (j + _CORNER_Y), L)
    mid_codes = _lattice_codes(surface, p, 2 * i + [1, 2, 1, 0], 2 * j + [0, 1, 2, 1], L)
    origin = np.array([complex(*poly[0]) for poly in surface.polygons])[p]
    z = origin + i * s * ex + j * s * ey
    # offsets last: square-tiled charts round exactly as x + s, y + s
    pos = z + s * np.array([0, ex, ex + ey, ey])
    return (p, i, j), corner_codes, mid_codes, pos


def _first_appearance(codes):
    """Distinct codes in order of first appearance, and the index of each
    entry's code in that order."""
    uniq, first, inv = np.unique(codes, return_index=True, return_inverse=True)
    order = np.argsort(first)
    rank = np.empty(len(uniq), dtype=np.int64)
    rank[order] = np.arange(len(uniq))
    return uniq[order], rank[inv].reshape(np.shape(codes))


def _positions(distinct, codes):
    """Index of each code in the array of distinct codes; KeyError for a
    code that is not there."""
    codes = np.asarray(codes, dtype=np.int64)
    by_code = np.argsort(distinct)
    at = np.searchsorted(distinct, codes, sorter=by_code)
    at = by_code[np.minimum(at, len(distinct) - 1)]
    missing = np.flatnonzero(distinct[at] != codes)
    if len(missing):
        raise KeyError(f"no such key: {codes[missing[0]]}")
    return at


def lattice_vertex_ids(coarse, fine):
    """Ids on the uniform mesh fine of the vertices of the uniform mesh
    coarse of the same surface, at cell sizes 1/(m k) and 1/k."""
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
    L = 2 * k
    cones = []
    for cid in surface.cone_classes:
        p, c = surface.vertex_links[cid][0]
        corner = _lattice_codes(surface, p, L * _CORNER_X[c], L * _CORNER_Y[c], L)
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

    partner = surface._edge_partner_map()
    along = 2 * np.arange(k)
    loops = {"a": [], "b": []}
    for direction, cross, want in (("a", 1, 3), ("b", 2, 0)):
        seen = set()
        for p0 in range(len(surface.polygons)):
            if p0 in seen:
                continue
            chain = []
            p = p0
            while True:
                seen.add(p)
                chain.append(p)
                q, f = partner[(p, cross)]     # cross the right / top edge
                if f != want:
                    raise SurfaceError("horizontal gluing is not left-right"
                                       if direction == "a" else
                                       "vertical gluing is not bottom-top")
                p = q
                if p == p0:
                    break
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
