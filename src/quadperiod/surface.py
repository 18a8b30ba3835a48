"""Polyhedral surfaces and their bipartite quad decompositions.

A surface is glued from planar polygons; away from finitely many cone
points the metric is flat.  The discretization is a cell decomposition
into quadrilaterals whose vertex graph is bipartite (black/white).  Each
quad stores its own isometric chart; no global coordinates exist, and all
downstream quantities are per-quad or combinatorial.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from fractions import Fraction

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

    def __init__(self, colors, quads, corners, cones=(), vertex_keys=None,
                 meta=None, dart_keys=None, closed=True, check=True):
        self.color = np.asarray(colors, dtype=np.int8)
        self.quads = np.asarray(quads, dtype=np.int64)
        self.corners = np.asarray(corners, dtype=complex)
        self.cones = list(cones)
        self.vertex_keys = vertex_keys
        self.dart_keys = dart_keys
        self.closed = closed
        self.meta = meta or {}
        self._cache = {}
        if check:
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

    def key_index(self, key):
        idx = self._cache.get("key_index")
        if idx is None:
            idx = {k: i for i, k in enumerate(self.vertex_keys or []) if k is not None}
            self._cache["key_index"] = idx
        return idx[key]

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
        """Index undirected edges; check the complex is a closed oriented
        manifold (each edge in exactly two quads, opposite directions).

        Generators pass dart_keys, an (F, 4) table of hashable edge keys,
        so that parallel edges (same endpoints, distinct edges, as on the
        2x2 torus) are distinguished.  Without keys the endpoint pair must
        determine the edge; ambiguous inputs are rejected.
        """
        F = self.n_quads
        q = self.quads
        key_at = None
        if self.dart_keys is not None:
            key_at = lambda i, s: self.dart_keys[i][s]
        else:
            key_at = lambda i, s: _vpair(int(q[i, s]), int(q[i, (s + 1) % 4]))
        edge_ids = {}
        dart_edge = np.empty((F, 4), dtype=np.int64)
        edge_occ = []
        for i in range(F):
            for s in range(4):
                key = key_at(i, s)
                e = edge_ids.get(key)
                if e is None:
                    e = edge_ids[key] = len(edge_occ)
                    edge_occ.append([])
                edge_occ[e].append((i, s))
                dart_edge[i, s] = e
        endpoints = []
        for e, occ in enumerate(edge_occ):
            if len(occ) != 2:
                if self.dart_keys is None and len(occ) > 2:
                    raise SurfaceError(
                        "parallel edges between the same vertices; the quad "
                        "table is ambiguous without explicit edge keys")
                raise SurfaceError(
                    f"edge {e} lies in {len(occ)} quads (not a closed surface)")
            (q1, s1), (q2, s2) = occ
            a1, b1 = int(q[q1, s1]), int(q[q1, (s1 + 1) % 4])
            a2, b2 = int(q[q2, s2]), int(q[q2, (s2 + 1) % 4])
            if (a1, b1) != (b2, a2):
                raise SurfaceError(
                    f"edge {e} not traversed in opposite directions by its two quads")
            l1 = abs(self.corners[q1, (s1 + 1) % 4] - self.corners[q1, s1])
            l2 = abs(self.corners[q2, (s2 + 1) % 4] - self.corners[q2, s2])
            if abs(l1 - l2) > GEOM_TOL * max(1.0, l1):
                raise SurfaceError(
                    f"edge {e} has mismatched chart lengths {l1} vs {l2}")
            endpoints.append(_vpair(a1, b1))
        self.edge_list = endpoints
        self.dart_edge = dart_edge
        self.edge_occ = edge_occ
        self.edge_key_ids = edge_ids if self.dart_keys is not None else None

    def _check_connected(self):
        a, b = np.asarray(self.edge_list, dtype=np.int64).reshape(-1, 2).T
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
        edge ids leaving v, rot_pos[v][eid] its position, quad_after[v][t]
        the quad between darts t and t+1.
        """
        cached = self._cache.get("rotation")
        if cached is not None:
            return cached
        V = self.n_vertices
        # map: (v, edge id) -> quad having the outgoing dart v->u on that edge
        by_dart = {}
        for i in range(self.n_quads):
            for s in range(4):
                v = int(self.quads[i, s])
                e = int(self.dart_edge[i, s])
                by_dart[(v, e)] = (i, s)
        rot = [None] * V
        quad_after = [None] * V
        incident = [[] for _ in range(V)]
        for i in range(self.n_quads):
            for s in range(4):
                incident[int(self.quads[i, s])].append((i, s))
        for v in range(V):
            i0, s0 = incident[v][0]
            edges = []
            quads = []
            i, s = i0, s0
            while True:
                e_next = int(self.dart_edge[i, s])          # dart v -> next(v)
                e_prev = int(self.dart_edge[i, (s - 1) % 4])  # edge prev(v) -> v
                edges.append(e_next)
                quads.append(i)
                nxt = by_dart.get((v, e_prev))
                if nxt is None:
                    raise SurfaceError(f"broken rotation at vertex {v}")
                i, s = nxt
                if (i, s) == (i0, s0):
                    break
            if len(quads) != len(incident[v]):
                raise SurfaceError(f"vertex {v} has a disconnected link")
            rot[v] = edges
            quad_after[v] = quads
        rot_pos = [
            {e: t for t, e in enumerate(edges)} for edges in rot
        ]
        self._cache["rotation"] = (rot, rot_pos, quad_after)
        return self._cache["rotation"]

    def diagonal_ends(self, color):
        """Start and end vertex arrays of every quad's diagonal of the given
        color: (b-, b+) for black, (w-, w+) for white."""
        lo, hi = (0, 2) if color == BLACK else (1, 3)
        return self.quads[:, lo], self.quads[:, hi]

    def edge_endpoints(self, eid):
        return self.edge_list[eid]

    def other_endpoint(self, eid, v):
        a, b = self.edge_list[eid]
        return b if v == a else a

    def singular_vertices(self):
        return [c.vertex for c in self.cones if c.is_singular]


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
    depth = csgraph.shortest_path(adj, directed=True, unweighted=True, indices=root)
    depth = np.nan_to_num(depth, posinf=-1).astype(np.int64)
    return SpanningTree(order, parent, parent_edge, depth)


def _vpair(a, b):
    return (a, b) if a < b else (b, a)


def _tri_area(a, b, c):
    return 0.5 * np.imag(np.conj(b - a) * (c - a))


def diagonal_ratio(graph, q=None):
    """Complex structure datum of one quad (or all quads)."""
    r = graph.diagonal_ratio
    return r if q is None else complex(r[q])


def mesh_stats(graph):
    """Edge-length, angle and genus summary of a quad-graph."""
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

def generate_torus(tau, n):
    """n x n parallelogram mesh of the flat torus with modulus tau.

    n must be even: the checkerboard coloring of an odd grid does not
    close up around the torus.
    """
    tau = complex(tau)
    if tau.imag <= 0:
        raise SurfaceError("torus modulus must have positive imaginary part")
    if n % 2 != 0 or n < 2:
        raise SurfaceError(f"grid size {n} is odd; bipartite coloring needs even n")
    u = 1.0 / n
    v = tau / n
    vid = lambda i, j: (i % n) * n + (j % n)
    colors = np.empty(n * n, dtype=np.int8)
    keys = [None] * (n * n)
    for i in range(n):
        for j in range(n):
            colors[vid(i, j)] = (i + j) % 2
            keys[vid(i, j)] = ("t", Fraction(i, n), Fraction(j, n))
    quads = []
    corners = []
    dart_keys = []
    for i in range(n):
        for j in range(n):
            z00 = i * u + j * v
            cell = [vid(i, j), vid(i + 1, j), vid(i + 1, j + 1), vid(i, j + 1)]
            pos = [z00, z00 + u, z00 + u + v, z00 + v]
            ek = [("h", i % n, j % n), ("v", (i + 1) % n, j % n),
                  ("h", i % n, (j + 1) % n), ("v", i % n, j % n)]
            if colors[cell[0]] != BLACK:
                cell = cell[1:] + cell[:1]
                pos = pos[1:] + pos[:1]
                ek = ek[1:] + ek[:1]
            quads.append(cell)
            corners.append(pos)
            dart_keys.append(ek)
    loops = {
        "a": [{"verts": [vid(i, 0) for i in range(n)],
               "edge_keys": [("h", i, 0) for i in range(n)]}],
        "b": [{"verts": [vid(0, j) for j in range(n)],
               "edge_keys": [("v", 0, j) for j in range(n)]}],
    }
    meta = {"kind": "torus", "tau": tau, "n": n, "loops": loops}
    return QuadGraph(colors, quads, corners, cones=(), vertex_keys=keys,
                     meta=meta, dart_keys=dart_keys)


class _VertexRegistry:
    """Canonical-key vertex interning for glued square-tiled meshes."""

    def __init__(self):
        self.keys = []
        self.colors = []
        self.index = {}

    def get(self, canonical_key, color):
        i = self.index.get(canonical_key)
        if i is None:
            i = len(self.keys)
            self.index[canonical_key] = i
            self.keys.append(canonical_key)
            self.colors.append(color)
        elif color is not None and self.colors[i] is None:
            self.colors[i] = color
        return i

    def fresh(self, color=None):
        i = len(self.keys)
        self.keys.append(None)
        self.colors.append(color)
        return i


def _square_tiled_data(surface):
    """Check that every polygon is an axis-aligned unit square glued by
    translations; return the unit-translation gluing maps."""
    for p, poly in enumerate(surface.polygons):
        if len(poly) != 4:
            raise SurfaceError(f"polygon {p} is not a quadrilateral")
        e = [surface.edge_vector(p, k) for k in range(4)]
        want = [np.array([1.0, 0]), np.array([0, 1.0]),
                np.array([-1.0, 0]), np.array([0, -1.0])]
        # allow any cyclic labeling that starts at the bottom-left corner
        if not all(np.allclose(e[k], want[k], atol=GEOM_TOL) for k in range(4)):
            raise SurfaceError(
                f"polygon {p} is not an axis-aligned unit square with ccw "
                "vertices from the bottom-left corner")
    partner = surface._edge_partner_map()
    for (p, e), (q, f) in surface.gluings:
        if (e - f) % 4 != 2:
            raise SurfaceError(f"gluing ({p},{e})~({q},{f}) is not a translation")
    return partner


_SIDE_OF = {0: "bottom", 1: "right", 2: "top", 3: "left"}


def _canonical_corner_key(surface, p, fx, fy):
    """Canonical key of grid point (fx, fy) in polygon p (Fractions in
    [0,1]); points on glued edges take the lexicographically smallest
    image."""
    cache = getattr(surface, "_corner_key_cache", None)
    if cache is None:
        cache = surface._corner_key_cache = {}
    hit = cache.get((p, fx, fy))
    if hit is not None:
        return hit
    partner = surface._edge_partner_map()
    images = {(p, fx, fy)}
    frontier = [(p, fx, fy)]
    while frontier:
        pp, x, y = frontier.pop()
        on = []
        if y == 0:
            on.append(0)
        if x == 1:
            on.append(1)
        if y == 1:
            on.append(2)
        if x == 0:
            on.append(3)
        for e in on:
            q, f = partner[(pp, e)]
            t = {0: x, 1: y, 2: Fraction(1) - x, 3: Fraction(1) - y}[e]
            # parameter along edge e from its start; partner traversed backwards
            s = Fraction(1) - t
            nx, ny = {
                0: (s, Fraction(0)), 1: (Fraction(1), s),
                2: (Fraction(1) - s, Fraction(1)), 3: (Fraction(0), Fraction(1) - s),
            }[f]
            img = (q, nx, ny)
            if img not in images:
                images.add(img)
                frontier.append(img)
    key = ("v",) + min(images)
    for (q, nx, ny) in images:
        cache[(q, nx, ny)] = key
    return key


def build_quad_graph(surface, cell_size, adapted=False, phi_floor=math.pi / 12):
    """Mesh a square-tiled surface (or a parallelogram torus) with cells of
    the given size.  The quotient 1/cell_size must be even so that the
    checkerboard coloring closes up across translation gluings."""
    if surface.generator and surface.generator.get("kind") == "torus":
        tau = complex(*surface.generator["tau"]) if isinstance(
            surface.generator["tau"], (list, tuple)) else complex(surface.generator["tau"])
        n = int(round(1.0 / cell_size))
        return generate_torus(tau, n)
    if len(surface.polygons) == 1 and len(surface.polygons[0]) == 4 and \
            not surface.cone_classes:
        # single parallelogram torus
        poly = surface.polygons[0]
        u = poly[1] - poly[0]
        v = poly[3] - poly[0]
        tau = complex(*v) / complex(*u)
        n = int(round(1.0 / cell_size))
        g = generate_torus(tau, n)
        # restore true scale so lengths and areas are those of the input
        scale = complex(*u)
        g = QuadGraph(g.color, g.quads, g.corners * scale, cones=(),
                      vertex_keys=g.vertex_keys, meta=g.meta)
        g.meta["tau"] = tau
        return g
    _square_tiled_data(surface)
    k_f = 1.0 / cell_size
    k = int(round(k_f))
    if abs(k - k_f) > 1e-9 or k % 2 != 0:
        raise SurfaceError(
            f"cell size {cell_size} does not divide 1 with an even quotient")
    if adapted:
        from .refine import generate_adapted
        return generate_adapted(surface, cell_size, phi_floor=phi_floor)
    return _uniform_square_tiled(surface, k)


def grid_point_key(surface, p, fx, fy):
    """Canonical vertex key of a rational point of polygon p."""
    if fx in (0, 1) or fy in (0, 1):
        return _canonical_corner_key(surface, p, fx, fy)
    return ("v", p, fx, fy)


def grid_edge_key(surface, p, fx1, fy1, fx2, fy2):
    """Undirected edge key via the canonical key of its midpoint."""
    mx, my = (fx1 + fx2) / 2, (fy1 + fy2) / 2
    return ("e",) + grid_point_key(surface, p, mx, my)[1:]


def _uniform_square_tiled(surface, k):
    reg = _VertexRegistry()
    quads = []
    corners = []
    dart_keys = []
    poly_of_quad = []

    def corner_id(p, i, j):
        key = grid_point_key(surface, p, Fraction(i, k), Fraction(j, k))
        return reg.get(key, (i + j) % 2)

    for p in range(len(surface.polygons)):
        z0 = complex(*surface.polygons[p][0])
        s = 1.0 / k
        for i in range(k):
            for j in range(k):
                cell = [corner_id(p, i, j), corner_id(p, i + 1, j),
                        corner_id(p, i + 1, j + 1), corner_id(p, i, j + 1)]
                z = z0 + complex(i * s, j * s)
                pos = [z, z + s, z + s + 1j * s, z + 1j * s]
                fr = [(Fraction(i, k), Fraction(j, k)),
                      (Fraction(i + 1, k), Fraction(j, k)),
                      (Fraction(i + 1, k), Fraction(j + 1, k)),
                      (Fraction(i, k), Fraction(j + 1, k))]
                ek = [grid_edge_key(surface, p, *fr[t], *fr[(t + 1) % 4])
                      for t in range(4)]
                if reg.colors[cell[0]] != BLACK:
                    cell = cell[1:] + cell[:1]
                    pos = pos[1:] + pos[:1]
                    ek = ek[1:] + ek[:1]
                quads.append(cell)
                corners.append(pos)
                dart_keys.append(ek)
                poly_of_quad.append(p)
    colors = np.array(reg.colors, dtype=np.int8)
    cones = _attach_cones(surface, reg, k)
    loops = _reference_loops(surface, reg, k)
    meta = {"kind": "square_tiled", "k": k, "loops": loops,
            "poly_of_quad": np.array(poly_of_quad), "surface": surface}
    return QuadGraph(colors, quads, corners, cones=cones,
                     vertex_keys=list(reg.keys), meta=meta, dart_keys=dart_keys)


def _attach_cones(surface, reg, k):
    cones = []
    for cid in surface.cone_classes:
        p, i = surface.vertex_links[cid][0]
        fx, fy = [(Fraction(0), Fraction(0)), (Fraction(1), Fraction(0)),
                  (Fraction(1), Fraction(1)), (Fraction(0), Fraction(1))][i]
        key = _canonical_corner_key(surface, p, fx, fy)
        v = reg.index.get(key)
        if v is None:
            raise SurfaceError("cone vertex missing from mesh")
        cones.append(ConePoint(vertex=v, angle=surface.vertex_angles[cid],
                               radius=surface.cone_radius(cid)))
    return cones


def _reference_loops(surface, reg, k):
    """Horizontal and vertical cylinder core loops through square centers.

    These depend only on the surface, not on the mesh level, so period
    matrices computed on different refinements share one homology basis.
    """
    partner = surface._edge_partner_map()
    half = Fraction(1, 2)

    def vertex(p, fx, fy):
        return reg.index[grid_point_key(surface, p, fx, fy)]

    loops = {"a": [], "b": []}
    for direction in ("a", "b"):
        seen = set()
        for p0 in range(len(surface.polygons)):
            if p0 in seen:
                continue
            walk = []
            keys = []
            p = p0
            while True:
                seen.add(p)
                if direction == "a":
                    walk.extend(vertex(p, Fraction(i, k), half) for i in range(k))
                    keys.extend(grid_edge_key(surface, p, Fraction(i, k), half,
                                              Fraction(i + 1, k), half)
                                for i in range(k))
                    q, f = partner[(p, 1)]     # cross the right edge
                    if f != 3:
                        raise SurfaceError("horizontal gluing is not left-right")
                else:
                    walk.extend(vertex(p, half, Fraction(j, k)) for j in range(k))
                    keys.extend(grid_edge_key(surface, p, half, Fraction(j, k),
                                              half, Fraction(j + 1, k))
                                for j in range(k))
                    q, f = partner[(p, 2)]     # cross the top edge
                    if f != 0:
                        raise SurfaceError("vertical gluing is not bottom-top")
                p = q
                if p == p0:
                    break
            loops[direction].append({"verts": walk, "edge_keys": keys})
    return loops


def load_surface(doc):
    """Build a PolyhedralSurface from a parsed surface document (dict)."""
    if not isinstance(doc, dict) or doc.get("format") != 1:
        raise SurfaceError("missing or unsupported 'format' header (want 1)")
    gen = doc.get("generator")
    if gen:
        kind = gen.get("kind")
        if kind == "torus":
            tau = gen["tau"]
            tau = complex(tau[0], tau[1]) if isinstance(tau, (list, tuple)) else complex(tau)
            poly = np.array([[0, 0], [1, 0], [1 + tau.real, tau.imag], [tau.real, tau.imag]])
            s = PolyhedralSurface(
                polygons=[poly],
                gluings=[(((0, 0)), (0, 2)), ((0, 1), (0, 3))],
                generator={"kind": "torus", "tau": [tau.real, tau.imag]},
            )
            return s
        if kind == "l_shape":
            return l_shape_surface()
        if kind == "square_tiled":
            doc = {"format": 1, "polygons": gen["polygons"], "gluings": gen["gluings"]}
        else:
            raise SurfaceError(f"unknown generator kind {kind!r}")
    polys = doc.get("polygons")
    glu = doc.get("gluings")
    if not polys or glu is None:
        raise SurfaceError("surface document needs 'polygons' and 'gluings'")
    gluings = [tuple(map(tuple, pair)) for pair in glu]
    return PolyhedralSurface(polygons=polys, gluings=gluings)


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

    Returns (dev, psi): per-quad developed corner positions (complex, the
    cone at 0) and per-quad unrolled corner angles (nan at the cone
    itself).  Positions are consistent within each quad, which is all the
    image-length checks need.
    """
    v0 = cone.vertex
    R = cone.radius
    rot, rot_pos, quad_after = graph.rotation()
    fan = quad_after[v0]
    dev = {}
    psi = {}
    total = 0.0
    # place the fan, one sector at a time
    for q in fan:
        s = int(np.where(graph.quads[q] == v0)[0][0])
        z = graph.corners[q] - graph.corners[q, s]
        zn = z[(s + 1) % 4]  # next corner, on the current sector ray
        wedge = _corner_angle_c(z, s)
        rotate = cmath.exp(1j * (total - cmath.phase(zn)))
        zq = z * rotate
        dev[q] = zq
        ang = np.angle(zq)
        base = np.full(4, total, dtype=float)
        a = _unwrap(ang, base + wedge / 2)
        a[s] = math.nan
        psi[q] = a
        total += wedge
    if abs(total - cone.angle) > 1e-7:
        raise SurfaceError("cone fan does not close up to the stored angle")
    # breadth-first development outward while quads stay inside the disk
    frontier = list(fan)
    seen = set(fan)
    while frontier:
        q = frontier.pop()
        zq = dev[q]
        if np.nanmin(np.abs(zq)) > R:
            continue
        for s in range(4):
            e = int(graph.dart_edge[q, s])
            (qa, sa), (qb, sb) = graph.edge_occ[e]
            q2, s2 = ((qb, sb) if (qa, sa) == (q, s) else (qa, sa))
            if q2 in seen:
                continue
            # align the shared edge: in q it runs corner s -> s+1, in q2
            # the same edge runs s2 -> s2+1 the opposite way
            za, zb = zq[s], zq[(s + 1) % 4]
            w = graph.corners[q2]
            wa, wb = w[(s2 + 1) % 4], w[s2]
            alpha = (zb - za) / (wb - wa)
            beta = za - alpha * wa
            z2 = alpha * w + beta
            if np.min(np.abs(z2)) > R:
                continue
            dev[q2] = z2
            ref = psi[q][s if not math.isnan(psi[q][s]) else (s + 1) % 4]
            psi[q2] = _unwrap(np.angle(z2), np.full(4, ref))
            seen.add(q2)
            frontier.append(q2)
    return dev, psi


def _corner_angle_c(z, s):
    u = z[(s - 1) % 4] - z[s]
    v = z[(s + 1) % 4] - z[s]
    return cmath.phase(u / v) % TWO_PI


def _unwrap(angles, ref):
    return angles + TWO_PI * np.round((ref - angles) / TWO_PI)


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
        dev, psi = develop_cone_disk(graph, cone)
        worst = 0.0
        for q, z in dev.items():
            r = np.abs(z)
            a = psi[q]
            for s in range(4):
                t = (s + 1) % 4
                if max(r[s], r[t]) > cone.radius:
                    continue
                if r[s] < GEOM_TOL or r[t] < GEOM_TOL:
                    img = max(r[s], r[t]) ** gamma  # edge at the cone point
                else:
                    img = abs(cone_image(r[s], a[s], gamma)
                              - cone_image(r[t], a[t], gamma))
                worst = max(worst, img)
        report[f"cone_{cone.vertex}_worst_image"] = worst
        if worst > h * tol:
            report["passed"] = False
            report["violations"].append((f"cone_{cone.vertex}_image", worst))
    return report
