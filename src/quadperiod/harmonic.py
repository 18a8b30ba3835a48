"""Discrete harmonic differentials with prescribed black/white periods.

Minimizing the Dirichlet energy over vertex potentials with fixed period
jumps yields the unique harmonic representative.  The energy couples the
four vertices of each quad through the 2x2 weight area * (D D^T)^{-1},
D holding the two diagonal vectors; the assembled matrix is positive
semidefinite with the black-constant and white-constant functions as its
kernel, removed by pinning one vertex of each color.

The pinned matrix A is symmetric positive definite; SuperLU factors it
in symmetric mode (minimum-degree ordering of A + A^T, diagonal pivots)
with the structural zeros of orthodiagonal quads (w12 = 0) dropped.  w12
couples only black to white, and |w12| <= c sqrt(w11 w22) for c the
|cos| of the diagonals' angle, so (1 - c) P <= A <= (1 + c) P for P the
two color blocks of A.  When c <= 1/2 on every quad (|arg
diagonal_ratio| <= SPLIT_ANGLE) the free black and white vertices are
two parts, each factored on its own when a load first reaches it; else
all free vertices are one part and P = A.  The white part lists each
white vertex in the order of a black neighbour, so minimum degree gives
the white block the black block's fill or less (torus n = 256: 2.23 M ->
1.56 M, as black).  The one part lists the free white vertices, then the
free black ones, each in id order.  Id order interleaves the colours;
this numbering takes 9-19 % off the fill on the adapted meshes at cells
1/32 to 1/128 (L+U, id order -> white then black, at 1/32, 1/64, 1/128:
adapted L-shape 494 518 -> 448 372, 2 236 418 -> 1 971 646,
10 985 244 -> 8 915 362; two-cone origami 531 466 -> 477 628,
2 449 888 -> 2 181 184, 11 246 493 -> 10 028 491).  Black first, the
white part's order, cone distance, breadth-first and reversed ids all
gave more.  Reordering the colour parts gains them nothing (L-shape
1/128, each order reversed: black 1 098 246 -> 1 090 956, white
1 055 158 -> 1 305 482).  EnergySystem.factorized makes every factor: a load
that reaches two unfactored parts factors the second meanwhile on a
one-worker executor local to the call (there is no module-level pool),
and one part to factor starts no thread.  Matrix and load vector are
products with the diagonal difference operators, so m period vectors
make one (n, m) block, solved as x = P^{-1} b; CG on A preconditioned
by P then runs on the same block, with condition number <= (1 + c)/(1 -
c) <= 3 and step p^T r / p^T A p, which holds the residual at its
roundoff floor.  A column stops for good when its relative residual
reaches REFINE_TARGET or its step breaks down, and takes step 0 from
then on.  Where P = A (w12 = 0, or one part) the factors are float64
and no step runs.  Where P != A they only precondition, so they are
float32 while the residual, CG and the tol check stay float64: skew
tori take 6-10 steps, the sheared origami 10-11.  If CG reaches its cap
or breaks down there, the parts are refactored once in float64 and the
solve runs again.  A residual above tol, or nan, is rejected.
solve_elementary returns real (F, 2g) stacks for the 2g black unit
period vectors.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .surface import BLACK, WHITE
from . import dec
from .dec import Differential, PeriodData


@dataclass
class EnergySystem:
    """The pinned energy matrix of a graph and basis, its parts and their
    factors.  The per-quad weights are not held: rhs remakes them from
    the graph's charts (_weights) on each call."""

    graph: object
    basis: object
    matrix: sp.csr_matrix = field(repr=False)
    pinned: tuple = (0, 0)
    dtype: type = np.float64  # of the factors; float32 where they only precondition CG
    parts: list = field(default=None, repr=False)  # free vertex ids per factored part
    _factor: object = field(default=None, repr=False)  # per part; None until the first

    def rhs(self, jumps):
        """Load vector of the jumps' periods; (V, m) for (g, m) periods."""
        jb, jw = dec._jump_values(self.basis, jumps)
        w11, w12, w22 = dec._per_quad(jb, *_weights(self.graph))
        Db, Dw = dec.difference_operators(self.graph)
        L = Db.T @ (w11 * jb + w12 * jw)
        L += Dw.T @ (w12 * jb + w22 * jw)
        return np.negative(L, out=L)

    def factorized(self, part, loaded=()):
        """SuperLU factor of one part's block of the pinned matrix in
        self.dtype, and the part's vertex ids.  `part` and every part in
        `loaded` that has no factor yet are factored now: the first of them
        in the caller's thread, the rest on one worker thread (SuperLU
        releases the GIL) whose errors are raised here."""
        factors = self._factor or [None] * len(self.parts)
        todo = [p for p in dict.fromkeys((part, *loaded)) if factors[p] is None]
        if todo:
            with ThreadPoolExecutor(1) as pool:  # starts its thread on the first submit
                ahead = {p: pool.submit(self._factorize, p) for p in todo[1:]}
                factors[todo[0]] = self._factorize(todo[0])
                for p, future in ahead.items():
                    factors[p] = future.result()
            self._factor = factors
        return factors[part], self.parts[part]

    def _factorize(self, part):
        rows = self.parts[part]
        return _splu(self.matrix[rows][:, rows].tocsc().astype(self.dtype, copy=False))


def _splu(A):
    try:
        return spla.splu(A, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                         options={"SymmetricMode": True})
    except RuntimeError as exc:   # SuperLU: "Factor is exactly singular"
        raise HarmonicError(f"energy matrix is numerically singular ({exc})") from None


SPLIT_ANGLE = np.pi / 6  # |arg diagonal_ratio| bound of the color split: |cos| <= 1/2


def _weights(graph):
    """The per-quad energy weights (w11, w12, w22): area * (D D^T)^{-1}
    for D the two diagonal vectors."""
    b, w = graph.black_diag, graph.white_diag
    det = 2.0 * graph.area
    w11 = np.abs(w) ** 2 / (2.0 * det)
    w22 = np.abs(b) ** 2 / (2.0 * det)
    w12 = -(b.real * w.real + b.imag * w.imag) / (2.0 * det)
    return w11, w12, w22


def assemble(graph, basis, pinned=None):
    """Sparse energy system on the vertex potentials: A = D^T W D for the
    stacked diagonal differences D = (D_b; D_w) and the per-quad weight
    blocks W = [[w11, w12], [w12, w22]] of _weights.  Its parts are the
    free black and the free white vertices (the latter in _white_order)
    when every quad's |arg diagonal_ratio| <= SPLIT_ANGLE; else one part,
    the free white vertices and then the free black ones, each in id
    order, which SuperLU's minimum degree factors with less fill than id
    order (module docstring)."""
    w11, w12, w22 = _weights(graph)
    Db, Dw = dec.difference_operators(graph)
    A = (Db.T @ (sp.diags(w11) @ Db + sp.diags(w12) @ Dw)
         + Dw.T @ (sp.diags(w12) @ Db + sp.diags(w22) @ Dw)).tocsr()
    A.eliminate_zeros()
    if pinned is None:  # the first vertex of each color
        pinned = tuple(int(np.argmax(graph.color == c)) for c in (BLACK, WHITE))
    free = np.ones(graph.n_vertices, dtype=bool)
    free[list(pinned)] = False
    if np.all(np.abs(np.angle(graph.diagonal_ratio)) <= SPLIT_ANGLE):
        parts = [np.flatnonzero(free & (graph.color == BLACK)), _white_order(graph, free)]
    else:
        parts = [np.concatenate([np.flatnonzero(free & (graph.color == c))
                                 for c in (WHITE, BLACK)])]
    # where P != A the factors only precondition CG, and float32 serves
    dtype = np.float32 if len(parts) == 2 and np.any(w12) else np.float64
    return EnergySystem(graph=graph, basis=basis, matrix=A, pinned=pinned, dtype=dtype,
                        parts=parts)


def _white_order(graph, free):
    """The free white vertices in the order of a black neighbour: each by
    the black rank of corner 2 of the first quad in which it is corner 1
    (after the others, in id order, where it is corner 1 of none).  On a
    lattice the white block is then the black one translated, and the
    minimum-degree ordering gives both the same fill; white vertices in
    id order give it up to 43 % more."""
    q = graph.quads
    white, first = np.unique(q[:, 1], return_index=True)
    key = np.full(graph.n_vertices, graph.n_vertices)
    key[white] = np.cumsum(graph.color == BLACK)[q[first, 2]]
    white = np.flatnonzero(free & (graph.color == WHITE))
    return white[np.argsort(key[white], kind="stable")]


class HarmonicError(RuntimeError):
    """Solver failed to reach the requested residual."""


@dataclass
class HarmonicSolution:
    """A harmonic differential and its diagnostics; per form for stacks."""

    potential: np.ndarray
    jumps: PeriodData
    differential: Differential
    residual: float
    closedness: float
    coclosedness: float
    period_error: float


REFINE_STEPS = 30     # cap on CG steps per column: 2 (2 - sqrt 3)^k < 1e-16 by k = 29
REFINE_TARGET = 1e-14  # relative residual below which CG stops


def _solve_parts(system, b):
    """P^{-1} b for the (V, m) block b, zero at the pinned vertices: one
    block solve per part that b is nonzero on; the others keep potential
    0 and are never factored.  Each part's load is gathered after the
    factors b needs are made, so no gathered load is held across one."""
    # np.zeros leaves the pages unmapped until written, so x adds nothing
    # to the peak memory of the factors below
    x = np.zeros(b.shape)
    reached = [part for part, rows in enumerate(system.parts) if b.take(rows, axis=0).any()]
    # each row of x as one element, so a part's rows are written through
    # one flat index per row: x[rows] = y steps through every entry
    row = np.dtype((np.void, x.itemsize * x.shape[1]))
    for part in reached:
        factor, rows = system.factorized(part, reached)
        y = factor.solve(b.take(rows, axis=0).astype(system.dtype, copy=False))
        x.view(row)[rows] = np.ascontiguousarray(y, dtype=x.dtype).view(row)
    return x


def _dots(u, v):
    """Column dot products of two (n, m) blocks; einsum "ij,ij->j" takes
    several times longer on the narrow row-major blocks of CG."""
    return np.array([a @ b for a, b in zip(u.T, v.T)])


def _potentials(system, jumps, tol):
    """Vertex potentials for the jumps' period vectors from one block
    solve, and their relative residuals.  Preconditioned CG then runs on
    the whole block while any column is live: a column stops for good at
    REFINE_TARGET or at a breakdown (r^T z = 0 or p^T A p <= 0), and from
    then on takes step 0.  A column left above REFINE_TARGET by float32
    factors reruns the whole block on float64 ones; any residual above
    tol, or nan, raises."""
    A, pinned = system.matrix, list(system.pinned)
    rhs = system.rhs(jumps)
    b = rhs.reshape(len(rhs), -1)
    b[pinned] = 0.0  # the pinned vertices carry no equation
    x = _solve_parts(system, b)
    scale = np.maximum(np.linalg.norm(b, axis=0), 1e-300)
    live = np.ones(b.shape[1], dtype=bool)
    p, rz = np.zeros((1, b.shape[1])), np.ones(b.shape[1])  # search directions, r^T z
    for step in range(REFINE_STEPS + 1):
        r = b - A @ x
        r[pinned] = 0.0
        residual = np.sqrt(_dots(r, r)) / scale
        live &= residual > REFINE_TARGET
        if step == REFINE_STEPS or not live.any():
            break
        z = _solve_parts(system, r)
        rz_old, rz = rz, _dots(r, z)
        p = z + np.divide(rz, rz_old, out=np.zeros_like(rz), where=live) * p
        pq = _dots(p, A @ p)
        live &= (rz != 0) & (pq > 0)
        x += np.divide(_dots(p, r), pq, out=np.zeros_like(pq), where=live) * p
    if system.dtype == np.float32 and np.any(residual > REFINE_TARGET):
        system.dtype, system._factor = np.float64, None  # cap or breakdown: refactor once
        return _potentials(system, jumps, tol)
    if not np.all(residual <= tol):   # nan too
        raise HarmonicError(f"relative residual {residual.max():.3e} above {tol:.1e}")
    return x.reshape(rhs.shape), residual


def solve(system, jumps, tol=1e-10):
    """Harmonic differential with the given real black/white periods, or
    (F, m) stacks of m of them for (g, m) periods, solved as one block.
    Closedness is exact by construction; co-closedness and the period
    match are measured and returned as diagnostics."""
    g = system.graph
    x, residual = _potentials(system, jumps, tol)
    eta = dec.exterior_derivative(g, x, system.basis, jumps)
    _, closed = dec.is_closed(g, eta)
    _, coclosed = dec.is_closed(g, dec.hodge_star(g, eta))
    measured = dec.measure_periods(g, eta, system.basis)
    perr = np.max(np.abs(measured.flat().real - jumps.flat()), axis=0)
    if x.ndim == 1:
        residual, perr = float(residual[0]), float(perr)
    return HarmonicSolution(x, jumps, eta, residual, closed, coclosed, perr)


def solve_elementary(system, tol=1e-10):
    """The 2g harmonic differentials with unit black periods and zero
    white periods as one block solve: a Differential of real (F, 2g)
    stacks whose column j has the j-th unit black period vector (a
    black, then b black).  Closedness and periods are left to the
    caller."""
    jumps = PeriodData.from_flat(np.eye(4 * system.basis.genus, 2 * system.basis.genus))
    x, _ = _potentials(system, jumps, tol)
    return dec.exterior_derivative(system.graph, x, system.basis, jumps)


def verify_minimality(system, solution, trials=20, seed=0):
    """Check the variational characterization: the solution is orthogonal
    to every exact differential and no exact perturbation lowers the
    energy, both to 1e-9."""
    g = system.graph
    rng = np.random.default_rng(seed)
    eta = solution.differential
    e0 = dec.energy(g, eta)
    n_eta = eta.norm()
    worst_ortho, ok = 0.0, True
    for _ in range(trials):
        df = dec.exterior_derivative(g, rng.normal(size=g.n_vertices))
        ip = dec.inner_product(g, eta, df)
        worst_ortho = max(worst_ortho, abs(ip) / max(n_eta * df.norm(), 1e-300))
        ok &= dec.energy(g, eta + df) >= e0 - 1e-9 * max(e0, 1.0)
    return {"orthogonality": worst_ortho, "minimal": ok,
            "passed": ok and worst_ortho <= 1e-9}
