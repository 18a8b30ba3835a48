"""Homology bases on quad-graphs and the cocycles that impose periods.

Cycles live on the vertex graph of the decomposition.  Periods are
measured after projecting a cycle to the black or white diagonal graph;
prescribed periods are imposed through integer cocycles supported on the
diagonals.  Everything here is exact integer combinatorics; geometry
enters only through the counterclockwise rotation system.

All spanning trees come from `surface.spanning_tree` (breadth-first, on
scipy.sparse.csgraph).  Tree-cotree cycles follow a split of the vertex
graph (Eppstein, "Dynamic generators of topologically embedded graphs",
SODA 2003): a breadth-first tree from vertex 0, a breadth-first tree of
the dual quad graph over the remaining edges, and one cycle per leftover
edge.  homology_basis keeps the first candidate set that reduces: a
generated mesh's reference loops, the loops plus tree-cotree cycles, the
tree-cotree cycles alone.  Each cycle of a set is projected once per
colour into an integer operator.  A black and a white diagonal path
cross only at quad centres, so the product of the two operators is the
intersection matrix, and by Poincare duality the white projections, read
as black cochains, are closed cocycles with the intersection numbers as
black periods (and vice versa): the cocycles are J times the operators.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np
import scipy.sparse as sp

from .dec import difference_operators
from .surface import BLACK, WHITE, _walk, spanning_tree


class HomologyError(ValueError):
    pass


@dataclass
class Cycle:
    """Closed walk: verts[i] -> verts[i+1] along edge eids[i] (cyclically)."""

    verts: list
    eids: list

    def __post_init__(self):
        if len(self.verts) != len(self.eids):
            raise HomologyError("cycle walk and edge list lengths differ")

    def __len__(self):
        return len(self.verts)

    def reversed(self):
        return Cycle(self.verts[:1] + self.verts[:0:-1], self.eids[::-1])


@dataclass
class DiagonalCycle:
    """Closed path on one diagonal graph: (quad, sign) per diagonal,
    sign +1 when traversed along the stored orientation."""

    color: int
    steps: list


def cycle_from_vertices(graph, walk):
    """Resolve a closed vertex walk {"verts", "edge_keys"}, a reference
    loop of a generated mesh, to a Cycle.  The edge keys (dart_keys
    values) name the edge of every step, so parallel edges resolve."""
    return _cycles_from_vertices(graph, [walk])[0]


def _cycles_from_vertices(graph, walks):
    """cycle_from_vertices of every walk, with one edge-key lookup."""
    if not walks:
        return []
    ids = graph.edge_ids([key for w in walks for key in w["edge_keys"]])
    cuts = np.cumsum([len(w["edge_keys"]) for w in walks[:-1]], dtype=np.int64)
    out = []
    for w, eids in zip(walks, np.split(ids, cuts)):
        walk, eids = w["verts"], eids.tolist()
        steps = np.sort(np.stack([walk, np.roll(walk, -1)], axis=1), axis=1)
        wrong = np.flatnonzero(np.any(steps != graph.edge_ends(eids).reshape(-1, 2), axis=1))
        if len(wrong):
            raise HomologyError(f"edge {eids[wrong[0]]} does not join walk step {wrong[0]}")
        out.append(Cycle(list(walk), eids))
    return out


# ---------------------------------------------------------------------------
# Tree-cotree decomposition
# ---------------------------------------------------------------------------

def tree_cotree(graph):
    """Breadth-first spanning tree of the vertex graph, spanning tree of
    the dual quad graph on the remaining edges, and the 2g leftover edges."""
    V, F, E = graph.n_vertices, graph.n_quads, graph.n_edges()
    a, b = graph.edge_list.T
    tree = spanning_tree(V, a, b)
    if np.any(tree.depth < 0):
        raise HomologyError("disconnected graph")
    in_tree = np.isin(np.arange(E), tree.parent_edge)
    # dual arcs are the darts d = 4q + s, from quad q across its side s, so
    # each quad meets its neighbours in its own side order
    dart_edge = graph.dart_edge.ravel()
    across = np.empty(4 * F, dtype=np.int64)
    across[graph.edge_occ] = graph.edge_occ[:, ::-1] // 4
    dual = spanning_tree(F, np.arange(4 * F) // 4, across, ~in_tree[dart_edge],
                         directed=True)
    if np.any(dual.depth < 0):
        raise HomologyError("dual graph disconnected off the tree")
    in_cotree = np.isin(np.arange(E), dart_edge[dual.parent_edge[dual.parent_edge >= 0]])
    leftover = np.where(~in_tree & ~in_cotree)[0]
    if len(leftover) != 2 * graph.genus():
        raise HomologyError(
            f"{len(leftover)} leftover edges, expected {2 * graph.genus()}")
    return {
        "in_tree": in_tree,
        "parent": tree.parent,
        "parent_edge": tree.parent_edge,
        "depth": tree.depth,
        "in_cotree": in_cotree,
        "leftover": leftover,
    }


def basis_cycles(graph):
    """One cycle per leftover edge a -- b: the edge, then the tree path
    from b back to a.  Both ends of every edge climb to the root in one
    walk; two climbs agree from the vertex where they meet upwards, and
    that common part is dropped."""
    tc = tree_cotree(graph)
    ends = graph.edge_ends(tc["leftover"])
    starts = ends[:, ::-1].ravel()   # b, a of every edge
    walk, offsets = _walk(tc["parent"], starts, tc["depth"][starts] + 1)
    climbs = np.split(walk, offsets[1:-1])
    out = []
    for e, a, up, down in zip(tc["leftover"].tolist(), ends[:, 0].tolist(),
                              climbs[::2], climbs[1::2]):
        common = len(np.intersect1d(up, down, assume_unique=True))
        # b up to the meeting vertex, then down to a
        up, down = up[:len(up) - common + 1], down[:len(down) - common][::-1]
        path = np.concatenate([up, down])
        eids = tc["parent_edge"][np.concatenate([up[:-1], down])]
        out.append(Cycle([a] + path[:-1].tolist(), [e] + eids.tolist()))
    return out


# ---------------------------------------------------------------------------
# Intersection numbers by corner counting
# ---------------------------------------------------------------------------

def _passage_table(graph, cycle):
    """Integer (n, 4) table of a closed walk, one row per step: the
    vertex, the rotation positions of its incoming and outgoing edges,
    and the vertex degree."""
    rot, _ = graph.rotation()
    v = np.asarray(cycle.verts, dtype=np.int64)
    e = np.asarray(cycle.eids, dtype=np.int64)
    start, deg = rot.offsets[v], rot.offsets[v + 1] - rot.offsets[v]
    k = np.arange(deg.max(initial=0))
    around = np.where(k < deg[:, None],
                      rot.flat[np.minimum(start[:, None] + k, len(rot.flat) - 1)], -1)
    hit = around[:, None, :] == np.stack([np.roll(e, 1), e], axis=1)[:, :, None]
    bad = np.flatnonzero(~hit.any(axis=2).all(axis=1))
    if len(bad):
        raise HomologyError(f"walk step {bad[0]} enters or leaves vertex {v[bad[0]]} "
                            "along an edge that does not meet it")
    return np.column_stack([v, hit.argmax(axis=2), deg])


def intersection_number(graph, c1, c2):
    """Algebraic intersection number of two closed walks.

    The second walk is pushed off to its left; crossings are counted at
    shared vertices from the cyclic order of the four incident walk
    edges.  Exact integer, antisymmetric, and well defined even when the
    walks share edges.
    """
    v1, in1, out1, deg = _passage_table(graph, c1).T
    v2, in2, out2, _ = _passage_table(graph, c2).T
    i, j = np.nonzero(v1[:, None] == v2)   # the pairs of passages through one vertex
    deg, out2 = deg[i], out2[j]
    # the left push-off of passage j sweeps the positions strictly
    # counterclockwise from its outgoing to its incoming edge; a U-turn
    # sweeps every other dart
    span = (in2[j] - out2 - 1) % deg + 1
    r_in, r_out = (in1[i] - out2) % deg, (out1[i] - out2) % deg
    return int(np.count_nonzero((0 < r_in) & (r_in < span))
               - np.count_nonzero((0 < r_out) & (r_out < span)))


def intersection_matrix(graph, cycles):
    n = len(cycles)
    M = np.zeros((n, n), dtype=np.int64)
    for i in range(n):
        for j in range(i + 1, n):
            M[i, j] = intersection_number(graph, cycles[i], cycles[j])
            M[j, i] = -M[i, j]
    return M


# ---------------------------------------------------------------------------
# Symplectic reduction over the integers
# ---------------------------------------------------------------------------

def symplectic_reduction(M):
    """Integer change of basis bringing an antisymmetric unimodular form to
    the standard block form J = [[0, I], [-I, 0]].

    Returns S with S M S^T = J; raises if a pivot other than +-1 survives
    (the form was not unimodular, which signals an upstream bug).
    """
    M = np.array(M, dtype=object)
    n = len(M)
    if n % 2 != 0 or np.any(M.T != -M):
        raise HomologyError("intersection form must be antisymmetric of even rank")
    S = np.eye(n, dtype=object)
    done = []  # indices paired off, in (a, b) order
    free = list(range(n))

    def add_row(i, j, c):
        # basis op e_i += c * e_j, applied to M (congruence) and S
        if c == 0:
            return
        M[i, :] += c * M[j, :]
        M[:, i] += c * M[:, j]
        S[i, :] += c * S[j, :]

    while free:
        sub = [(abs(M[i, j]), i, j) for i in free for j in free if M[i, j] != 0]
        if not sub:
            raise HomologyError("degenerate intersection form")
        # Euclid steps until the smallest entry divides its row
        while True:
            m, i, j = min(sub)
            k = next((k for k in free if k not in (i, j) and M[i, k] % M[i, j]), None)
            if k is None:
                break
            add_row(k, j, -(M[i, k] // M[i, j]))
            sub = [(abs(M[a, b]), a, b) for a in free for b in free if M[a, b] != 0]
        pivot = M[i, j]
        if abs(pivot) != 1:
            # the pivot divides its row, hence the determinant of the free
            # block, which is det M = 1 for a unimodular form
            raise HomologyError(f"intersection form not unimodular (pivot {pivot})")
        if pivot == -1:
            S[i, :] = -S[i, :]
            M[i, :] = -M[i, :]
            M[:, i] = -M[:, i]
        # clear the hyperbolic pair (i, j); here M[i, j] = 1, M[j, i] = -1
        for k in free:
            if k in (i, j):
                continue
            add_row(k, j, M[k, i])    # kills M[k, i] via M[j, i] = -1
            add_row(k, i, -M[k, j])   # kills M[k, j] via M[i, j] = +1
        done.append((i, j))
        free = [k for k in free if k not in (i, j)]
    perm = [i for i, j in done] + [j for i, j in done]
    return np.array(S[perm, :], dtype=np.int64), standard_form(n // 2)


def standard_form(g):
    """The integer form J = [[0, I], [-I, 0]] of size 2g."""
    eye, zero = np.eye(g, dtype=np.int64), np.zeros((g, g), dtype=np.int64)
    return np.block([[zero, eye], [-eye, zero]])


# ---------------------------------------------------------------------------
# Projection to the diagonal graphs, and the cocycles
# ---------------------------------------------------------------------------

def project_cycle(graph, cycle, color, clockwise=False):
    """Route a cycle off the vertices of the opposite color, through quad
    fans, and record the traversed diagonals of the requested color.

    The fan at each opposite-color vertex is taken on the counterclockwise
    side by default; the clockwise routing differs by face boundaries and
    has the same periods against every closed differential.
    """
    rot, _ = graph.rotation()
    v, i_in, i_out, deg = _passage_table(graph, cycle).T
    # the fan of a passage is a range of rotation positions, empty at a
    # backtracking corner: i_in .. i_out - 1 counterclockwise, or
    # i_in - 1 down to i_out clockwise
    n = np.where(graph.color[v] == color, 0,
                 ((i_in - i_out) if clockwise else (i_out - i_in)) % deg)
    step = np.arange(n.sum()) - np.repeat(np.cumsum(n) - n, n)
    at = np.repeat(v, n)
    t = (np.repeat(i_in, n) + (-1 - step if clockwise else step)) % np.repeat(deg, n)
    # the dart 4q + c leaving the fan vertex at position t: crossing quad
    # q counterclockwise around corner c runs from corner c + 1 to c - 1
    darts = graph.edge_occ[rot.flat[rot.offsets[at] + t]]
    d = np.where(graph.quads.ravel()[darts[:, 0]] == at, darts[:, 0], darts[:, 1])
    lo = 0 if color == BLACK else 1
    sign = np.where((d + 1) % 4 == lo, 1, -1) * (-1 if clockwise else 1)
    return DiagonalCycle(color=color, steps=list(zip((d // 4).tolist(), sign.tolist())))


def projection_operator(graph, cycles, color):
    """Integer (len(cycles), n_quads) CSR matrix of the cycles projected
    to one colour (project_cycle): row i sums the signs of the diagonals
    cycle i traverses, so its product with a cochain on that colour's
    diagonals is the cycle's period (without the factor 2 of
    dec.integrate_path).  The black operator times the transposed white
    one is the intersection matrix of the cycles."""
    steps = [np.asarray(project_cycle(graph, c, color).steps, dtype=np.int64).reshape(-1, 2)
             for c in cycles]
    rows = np.repeat(np.arange(len(steps)), [len(s) for s in steps])
    qs, ws = np.concatenate(steps + [np.zeros((0, 2), dtype=np.int64)]).T
    return sp.csr_matrix((ws, (rows, qs)), shape=(len(steps), graph.n_quads))


def period_cocycles(graph, op_black, op_white):
    """The integer cochains sigma_black, sigma_white, (2g, n_quads),
    whose periods along a canonical basis are delta_jk: J @ op_white and
    -J @ op_black for the basis' period operators.  Both are closed, since
    every projected path is closed, and op @ sigma.T = I follows from
    op_black @ op_white.T = J; both facts are checked exactly, on the
    integer matrices.  Returned transposed, as sparse float (n_quads, 2g)
    matrices: the factor that turns period coefficients into per-quad
    jumps."""
    n = op_black.shape[0]
    J = sp.csr_matrix(standard_form(n // 2))
    sigma_black, sigma_white = sp.csr_matrix(J @ op_white), sp.csr_matrix(-J @ op_black)
    Db, Dw = difference_operators(graph)
    # D.T @ sigma is minus the sum of a cochain around each face
    if (Dw.T @ sigma_black.T).count_nonzero() or (Db.T @ sigma_white.T).count_nonzero():
        raise HomologyError("cocycle is not closed at every face")
    eye = np.eye(n, dtype=np.int64)
    if np.any((op_black @ sigma_black.T).toarray() != eye) or \
            np.any((op_white @ sigma_white.T).toarray() != eye):
        raise HomologyError("cocycle periods are not the identity")
    return sigma_black.T.astype(float).tocsr(), sigma_white.T.astype(float).tocsr()


# ---------------------------------------------------------------------------
# Full basis assembly
# ---------------------------------------------------------------------------

@dataclass
class HomologyBasis:
    """Canonical basis a_1..a_g, b_1..b_g, its period operators and the
    cocycles whose periods are delta_jk (period_cocycles).

    op_black and op_white are integer (2g, F) CSR matrices with rows
    a_1..a_g then b_1..b_g, the cycles' projection operators combined by
    the transform.  The black periods of a closed differential omega are
    2 * (op_black @ omega.wb), the white ones 2 * (op_white @ omega.ww).

    cocycles_black and cocycles_white hold the cocycles, once, as sparse
    float (F, 2g) matrices with integer values, the factor that turns
    period coefficients into per-quad jumps.  sigma_black and
    sigma_white are the same cocycles as dense integer (2g, F) arrays,
    made from them on each access for exact checks."""

    graph: object
    a_chains: list
    b_chains: list
    op_black: sp.csr_matrix = field(repr=False, compare=False)
    op_white: sp.csr_matrix = field(repr=False, compare=False)
    intersection_before: np.ndarray
    transform: np.ndarray
    cocycles_black: sp.csr_matrix = field(init=False, repr=False, compare=False)
    cocycles_white: sp.csr_matrix = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.cocycles_black, self.cocycles_white = period_cocycles(
            self.graph, self.op_black, self.op_white)

    @property
    def genus(self):
        return len(self.a_chains)

    sigma_black, sigma_white = (
        property(lambda self, name=name: getattr(self, name).T.astype(np.int64).toarray())
        for name in ("cocycles_black", "cocycles_white"))


def _independent_rows(M):
    """Indices of the earliest linearly independent rows of an integer
    matrix: the pivot columns of one exact elimination of M^T over the
    rationals.  Row i is kept exactly when it is independent of the rows
    before it, so the choice among candidate cycles is deterministic and
    earlier ones win."""
    rows = [[Fraction(int(x)) for x in col] for col in np.asarray(M).T]
    pivots = []
    for col in range(len(M)):
        r = len(pivots)
        piv = next((i for i in range(r, len(rows)) if rows[i][col] != 0), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        for i in range(r + 1, len(rows)):
            if rows[i][col] != 0:
                f = rows[i][col] / rows[r][col]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(col)
    return pivots


def _reduce(graph, cycles):
    """The earliest candidate cycles that span the homology, brought to
    symplectic form by an integer transform S with S M S^T = J, and their
    chains (lists of (coefficient, Cycle)): the HomologyBasis fields after
    graph, before any cocycle.  Cycles short of rank 2g, or a form that
    is not unimodular, raise."""
    P_black, P_white = (projection_operator(graph, cycles, color) for color in (BLACK, WHITE))
    M = (P_black @ P_white.T).toarray()
    keep, rank = _independent_rows(M), 2 * graph.genus()
    if len(keep) != rank:
        raise HomologyError(f"cycles span rank {len(keep)}, need {rank}")
    M = M[np.ix_(keep, keep)]
    S, J = symplectic_reduction(M)
    if np.any(S @ M.astype(object) @ S.T != J):
        raise HomologyError("symplectic reduction failed to reach standard form")
    chains = [[(int(c), cycles[m]) for c, m in zip(row, keep) if c] for row in S]
    T = sp.csr_matrix(S)
    return chains[:rank // 2], chains[rank // 2:], T @ P_black[keep], T @ P_white[keep], M, S


def basis_from_cycles(graph, cycles):
    """Canonical basis from candidate cycles that span the homology,
    earlier ones preferred."""
    return HomologyBasis(graph, *_reduce(graph, cycles))


def homology_basis(graph):
    """Canonical symplectic basis with period operators and cocycles, from
    the first candidate cycle set that reduces.  The rotation system the
    cycles are read from leaves the graph's cache when the basis is done:
    no later stage reads it, and it would sit under their peak memory (4F
    darts twice)."""
    try:
        return HomologyBasis(graph, *_first_reduced(graph))
    finally:
        graph._cache.pop("rotation", None)


def _first_reduced(graph):
    """_reduce of the first candidate set it accepts, each set made when
    it is reached: tree-cotree cycles only when the loops alone fail."""
    loops = (graph.meta or {}).get("loops")
    if not loops:
        return _reduce(graph, basis_cycles(graph))
    cycles = _cycles_from_vertices(graph, loops["a"] + loops["b"])
    try:
        return _reduce(graph, cycles)
    except HomologyError:
        more = basis_cycles(graph)
    try:
        return _reduce(graph, cycles + more)
    except HomologyError:
        return _reduce(graph, more)
