"""Homology bases on quad-graphs and the cocycles that impose periods.

Cycles live on the vertex graph of the decomposition.  Periods are
measured after projecting a cycle to the black or white diagonal graph;
prescribed periods are imposed through integer cocycles supported on the
diagonals.  Everything here is exact integer combinatorics; geometry
enters only through the counterclockwise rotation system.

All spanning trees come from `surface.spanning_tree` (breadth-first, on
scipy.sparse.csgraph).  Without reference loops the basis cycles follow a
tree-cotree split of the vertex graph (Eppstein, "Dynamic generators of
topologically embedded graphs", SODA 2003): a breadth-first tree from
vertex 0, a breadth-first tree of the dual quad graph over the remaining
edges, and one cycle per leftover edge.  The cocycles of one color come
from the same split of its diagonal graph: each leftover diagonal gets a
unit, the dual tree diagonals take the values that close every face,
computed for all 2g units at once as subtree sums, and an exact rational
solve combines the units into cochains with periods delta_jk.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np
import scipy.sparse as sp

from .dec import difference_operators
from .surface import BLACK, WHITE, spanning_tree


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
    walk, eids = walk["verts"], graph.edge_ids(walk["edge_keys"]).tolist()
    cyc = Cycle(list(walk), eids)
    steps = np.sort(np.stack([walk, np.roll(walk, -1)], axis=1), axis=1)
    wrong = np.flatnonzero(np.any(steps != graph.edge_list[eids].reshape(-1, 2), axis=1))
    if len(wrong):
        i = int(wrong[0])
        raise HomologyError(f"edge {cyc.eids[i]} does not join walk step {i}")
    return cyc


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
    pairs = np.argsort(dart_edge, kind="stable").reshape(E, 2)
    across = np.empty(4 * F, dtype=np.int64)
    across[pairs] = pairs[:, ::-1] // 4
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


def _tree_path(tc, v, u):
    """Vertex/edge path from v to u through the spanning tree: climb from
    the deeper end until the two walks meet."""
    parent, pedge, depth = tc["parent"], tc["parent_edge"], tc["depth"]
    up, down = [v], [u]
    while up[-1] != down[-1]:
        if depth[up[-1]] >= depth[down[-1]]:
            up.append(int(parent[up[-1]]))
        else:
            down.append(int(parent[down[-1]]))
    down = down[-2::-1]
    return up + down, [int(pedge[x]) for x in up[:-1] + down]


def basis_cycles(graph, tc=None):
    """One cycle per leftover edge: the edge plus its tree path."""
    tc = tc or tree_cotree(graph)
    out = []
    for e, (a, b) in zip(tc["leftover"].tolist(), graph.edge_list[tc["leftover"]].tolist()):
        verts, eids = _tree_path(tc, b, a)  # b ... a through the tree
        out.append(Cycle([a] + verts[:-1], [e] + eids))
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
        # make the smallest entry divide everything in its row/column
        while True:
            m, i, j = min(sub)
            stuck = True
            for k in free:
                if k in (i, j):
                    continue
                r = M[i, k] % M[i, j]
                if r != 0:
                    add_row(k, j, -(M[i, k] // M[i, j]))
                    stuck = False
                    break
            if stuck:
                break
            sub = [(abs(M[a, b]), a, b) for a in free for b in free if M[a, b] != 0]
        m, i, j = min(sub)
        pivot = M[i, j]
        if abs(pivot) != 1:
            # an entry not divisible by the pivot may sit in another row
            moved = False
            for a in free:
                for b in free:
                    if a not in (i, j) and M[a, b] % pivot != 0:
                        add_row(i, a, 1)
                        moved = True
                        break
                if moved:
                    break
            if moved:
                continue
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
    g = n // 2
    perm = [i for i, j in done] + [j for i, j in done]
    S = S[perm, :]
    J = np.zeros((n, n), dtype=np.int64)
    J[:g, g:] = np.eye(g, dtype=np.int64)
    J[g:, :g] = -np.eye(g, dtype=np.int64)
    return np.array(S, dtype=np.int64), J


def symplectic_basis(graph, cycles, M=None):
    """Canonical basis as integer combinations of the given cycles.

    Returns (a_chains, b_chains, S): chains are lists of (coefficient,
    Cycle); S is the integer transform with S M S^T standard.
    """
    M = intersection_matrix(graph, cycles) if M is None else np.asarray(M)
    S, J = symplectic_reduction(M)
    got = S @ M.astype(object) @ S.T
    if np.any(got != J):
        raise HomologyError("symplectic reduction failed to reach standard form")
    n = len(cycles)
    g = n // 2
    chains = [[(int(S[i, m]), cycles[m]) for m in range(n) if S[i, m] != 0]
              for i in range(n)]
    return chains[:g], chains[g:], S


# ---------------------------------------------------------------------------
# Projection to the diagonal graphs
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


def period_operator(chain_projections, n_quads):
    """Integer (len(chain_projections), n_quads) CSR matrix of projected
    chains [(coeff, DiagonalCycle)]: row i sums coeff * sign over the
    diagonals of chain i, so its product with a cochain on the same
    colour's diagonals is the chain's period (without the factor 2 of
    dec.integrate_path)."""
    parts = [np.zeros((0, 3), dtype=np.int64)]
    for i, chain in enumerate(chain_projections):
        for coeff, dc in chain:
            steps = np.asarray(dc.steps, dtype=np.int64).reshape(-1, 2)
            parts.append(np.column_stack(
                [np.full(len(steps), i), steps[:, 0], coeff * steps[:, 1]]))
    rows, qs, ws = np.concatenate(parts).T
    return sp.csr_matrix((ws, (rows, qs)),
                         shape=(len(chain_projections), n_quads))


# ---------------------------------------------------------------------------
# Cocycles with prescribed periods
# ---------------------------------------------------------------------------

def build_cocycles(graph, projections, color):
    """Integer cochains sigma_1..sigma_{2g} on one color's diagonals whose
    periods along the 2g projected basis cycles are delta_{jk}.

    projections: list of 2g projections (lists of (coeff, DiagonalCycle))
    of the canonical basis cycles in the same color.
    """
    V, F = graph.n_vertices, graph.n_quads
    ends = graph.diagonal_ends(color)
    faces = graph.diagonal_ends(1 - color)
    tree = spanning_tree(V, *ends, root=int(np.argmax(graph.color == color)))
    if np.any(tree.depth[graph.color == color] < 0):
        raise HomologyError("diagonal graph disconnected")
    in_tree = np.isin(np.arange(F), tree.parent_edge)
    dual = spanning_tree(V, *faces, mask=~in_tree,
                         root=int(np.argmax(graph.color != color)))
    if np.any(dual.depth[graph.color != color] < 0):
        raise HomologyError("diagonal dual graph disconnected")
    in_cotree = np.isin(np.arange(F), dual.parent_edge)
    leftover = np.flatnonzero(~in_tree & ~in_cotree)
    n = len(leftover)
    if n != len(projections):
        raise HomologyError(
            f"{n} leftover diagonals for {len(projections)} basis cycles")
    # column l: 1 on leftover diagonal l, 0 on the tree, and on each dual
    # tree diagonal the value that closes the subtree of faces below it
    basis_sigma = np.zeros((F, n), dtype=np.int64)
    basis_sigma[leftover, np.arange(n)] = 1
    # D.T @ sigma is minus the sum of a cochain around each face: a
    # diagonal counts + at its start face and - at its end face
    D = difference_operators(graph)[1 - color]
    flux = dual.subtree_sums(-(D.T @ basis_sigma)).astype(np.int64)
    child = np.flatnonzero(dual.parent_edge >= 0)
    pq = dual.parent_edge[child]
    basis_sigma[pq] = np.where(faces[0][pq] == child, -1, 1)[:, None] * flux[child]
    if np.any(D.T @ basis_sigma):
        raise HomologyError("cocycle is not closed at every face")
    P = period_operator(projections, F) @ basis_sigma
    # exact solve P X = I: X must be integral (P unimodular) or the
    # periods were inconsistent
    rows, pivots = _rref(np.hstack([P, np.eye(n, dtype=np.int64)]))
    if pivots[:n] != list(range(n)):
        raise HomologyError("singular period system for cocycles")
    if any(x.denominator != 1 for row in rows for x in row[n:]):
        raise HomologyError("non-integer cocycle coefficients")
    X = np.array([[int(x) for x in row[n:]] for row in rows], dtype=np.int64)
    return np.ascontiguousarray((basis_sigma @ X.reshape(n, n)).T)


def _rref(M):
    """Reduced row echelon form of an integer matrix over the rationals:
    (rows as lists of Fractions, pivot columns)."""
    rows = [[Fraction(int(x)) for x in row] for row in np.asarray(M)]
    pivots = []
    for col in range(len(rows[0]) if rows else 0):
        r = len(pivots)
        piv = next((i for i in range(r, len(rows)) if rows[i][col] != 0), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = rows[r][col]
        rows[r] = [x / inv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][col] != 0:
                f = rows[i][col]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(col)
        if len(pivots) == len(rows):
            break
    return rows, pivots


# ---------------------------------------------------------------------------
# Full basis assembly
# ---------------------------------------------------------------------------

@dataclass
class HomologyBasis:
    """Canonical basis a_1..a_g, b_1..b_g with its projections to the two
    diagonal graphs and the cocycles sigma whose periods are delta_jk.

    op_black and op_white are the period operators of the projections
    (period_operator), built once: integer (2g, F) CSR matrices with rows
    a_1..a_g then b_1..b_g.  The black periods of a closed differential
    omega are 2 * (op_black @ omega.wb), the white ones
    2 * (op_white @ omega.ww), and op @ sigma.T is the identity.

    cocycles_black and cocycles_white hold the cocycles once more as
    sparse float (F, 2g) matrices, the factor that turns period
    coefficients into per-quad jumps; the integer sigma stays for exact
    checks."""

    graph: object
    a_chains: list
    b_chains: list
    proj_black: list = field(repr=False, default=None)   # 2g entries: a then b
    proj_white: list = field(repr=False, default=None)
    sigma_black: np.ndarray = field(repr=False, default=None)  # (2g, F)
    sigma_white: np.ndarray = field(repr=False, default=None)
    intersection_before: np.ndarray = None
    transform: np.ndarray = None
    op_black: sp.csr_matrix = field(init=False, repr=False, compare=False)
    op_white: sp.csr_matrix = field(init=False, repr=False, compare=False)
    cocycles_black: sp.csr_matrix = field(init=False, repr=False, compare=False)
    cocycles_white: sp.csr_matrix = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        F = self.graph.n_quads
        self.op_black = period_operator(self.proj_black, F)
        self.op_white = period_operator(self.proj_white, F)
        self.cocycles_black = sp.csr_matrix(self.sigma_black.T, dtype=float)
        self.cocycles_white = sp.csr_matrix(self.sigma_white.T, dtype=float)

    @property
    def genus(self):
        return len(self.a_chains)


def _select_spanning_cycles(graph, candidates, rank):
    """Greedy subset of cycles spanning the homology; earlier candidates
    are preferred, keeping the selection deterministic across meshes that
    share the same reference loops.

    Usefulness of a candidate is judged by the row rank of its pairings
    against the whole candidate list (the pairing with a single new cycle
    is always zero, so square-block ranks cannot drive the greedy)."""
    M = intersection_matrix(graph, candidates)
    chosen = []
    r_now = 0
    for i in range(len(candidates)):
        trial = chosen + [i]
        r_new = len(_rref(M[trial, :])[1])
        if r_new > r_now:
            chosen = trial
            r_now = r_new
        if len(chosen) == rank:
            break
    if len(chosen) != rank:
        raise HomologyError(f"cycles span rank {r_now}, need {rank}")
    return [candidates[i] for i in chosen], M[np.ix_(chosen, chosen)]


def homology_basis(graph):
    """Canonical symplectic basis with diagonal projections and period
    cocycles.  Meshes built by the generators carry mesh-independent
    reference loops (extended by tree-cotree cycles when the loops alone
    do not span); otherwise cycles come from a tree-cotree split."""
    loops = (graph.meta or {}).get("loops")
    rank = 2 * graph.genus()
    cycles = None
    if loops:
        candidates = [cycle_from_vertices(graph, w) for w in loops["a"]]
        candidates += [cycle_from_vertices(graph, w) for w in loops["b"]]
        if len(candidates) != rank or \
                len(_rref(intersection_matrix(graph, candidates))[1]) != rank:
            candidates += basis_cycles(graph)
        try:
            cycles, M = _select_spanning_cycles(graph, candidates, rank)
            a_chains, b_chains, S = symplectic_basis(graph, cycles, M)
        except HomologyError:
            # the loops can generate a finite-index sublattice; fall back
            # to the tree-cotree basis, which is always unimodular
            cycles = None
    if cycles is None:
        cycles = basis_cycles(graph)
        M = intersection_matrix(graph, cycles)
        a_chains, b_chains, S = symplectic_basis(graph, cycles, M)
    chains = a_chains + b_chains
    proj_black = [[(c, project_cycle(graph, cyc, BLACK))
                   for c, cyc in ch] for ch in chains]
    proj_white = [[(c, project_cycle(graph, cyc, WHITE))
                   for c, cyc in ch] for ch in chains]
    sigma_black = build_cocycles(graph, proj_black, BLACK)
    sigma_white = build_cocycles(graph, proj_white, WHITE)
    return HomologyBasis(
        graph=graph,
        a_chains=a_chains,
        b_chains=b_chains,
        proj_black=proj_black,
        proj_white=proj_white,
        sigma_black=sigma_black,
        sigma_white=sigma_white,
        intersection_before=M,
        transform=S,
    )
