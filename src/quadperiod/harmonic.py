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
1.56 M, as black), and a load that reaches both unfactored parts factors
the white one on one worker thread meanwhile.  Matrix and load vector are
products with the diagonal difference operators, so m period vectors
make one (n, m) block, solved as x = P^{-1} b; only the columns above
REFINE_TARGET (relative residual) then run CG on A preconditioned by P,
with condition number <= (1 + c)/(1 - c) <= 3 and step p^T r / p^T A p,
which holds the residual at its roundoff floor.  Where P = A (w12 = 0,
or one part) the factors are float64 and no step runs.  Where P != A
they only precondition, so they are float32 while the residual, CG and
the tol check stay float64: skew tori take 6-10 steps, the sheared
origami 10-11.  If CG reaches its cap or breaks down there, the parts
are refactored once in float64 and the solve runs again.  A residual
above tol is rejected.  solve_elementary returns real (F, 2g) stacks
for the 2g black unit period vectors.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .surface import BLACK, WHITE
from . import dec
from .dec import Differential, PeriodData


@dataclass
class EnergySystem:
    graph: object
    basis: object
    matrix: sp.csr_matrix = field(repr=False)
    w11: np.ndarray = field(repr=False)
    w12: np.ndarray = field(repr=False)
    w22: np.ndarray = field(repr=False)
    pinned: tuple = (0, 0)
    dtype: type = np.float64  # of the factors; float32 where they only precondition CG
    parts: list = field(default=None, repr=False)  # free vertex ids per factored part
    _factor: object = field(default=None, repr=False)  # per part; None until the first

    def quadratic_form(self, f, jumps=None):
        """Energy of d(f with jumps); equals the area-weighted squared
        gradient sum by construction."""
        d = dec.exterior_derivative(self.graph, np.asarray(f, dtype=float),
                                    self.basis, jumps)
        db, dw = 2.0 * d.wb.real, 2.0 * d.ww.real
        return float(np.sum(self.w11 * db * db + 2 * self.w12 * db * dw
                            + self.w22 * dw * dw))

    def rhs(self, jumps):
        """Load vector of the jumps' periods; (V, m) for (g, m) periods."""
        jb, jw = dec._jump_values(self.basis, jumps)
        w11, w12, w22 = dec._per_quad(jb, self.w11, self.w12, self.w22)
        Db, Dw = dec.difference_operators(self.graph)
        L = Db.T @ (w11 * jb + w12 * jw)
        L += Dw.T @ (w12 * jb + w22 * jw)
        return np.negative(L, out=L)

    def factorized(self, part, loaded=()):
        """SuperLU factor of one part's block of the pinned matrix in
        self.dtype, factored on first use, and the part's vertex ids.  The
        other parts in `loaded` that have no factor yet are factored at the
        same time, on one worker thread (SuperLU releases the GIL)."""
        rows = self.parts[part]
        factors = self._factor or [None] * len(self.parts)
        if factors[part] is None:
            ahead = [p for p in loaded if p != part and factors[p] is None]
            errors = []

            def work():
                try:
                    for p in ahead:
                        factors[p] = _splu(self._block(p))
                except Exception as exc:  # raised in the caller below
                    errors.append(exc)

            worker = threading.Thread(target=work) if ahead else None
            if worker:
                worker.start()
            try:
                factors[part] = _splu(self._block(part))
            finally:
                if worker:
                    worker.join()
            if errors:
                raise errors[0]
        self._factor = factors
        return factors[part], rows

    def _block(self, part):
        rows = self.parts[part]
        return self.matrix[rows][:, rows].tocsc().astype(self.dtype, copy=False)


def _splu(A):
    try:
        return spla.splu(A, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                         options={"SymmetricMode": True})
    except RuntimeError as exc:   # SuperLU: "Factor is exactly singular"
        raise HarmonicError(f"energy matrix is numerically singular ({exc})") from None


SPLIT_ANGLE = np.pi / 6  # |arg diagonal_ratio| bound of the color split: |cos| <= 1/2


def assemble(graph, basis, pinned=None):
    """Sparse energy system on the vertex potentials: A = D^T W D for the
    stacked diagonal differences D = (D_b; D_w) and the per-quad weight
    blocks W = [[w11, w12], [w12, w22]]."""
    b, w = graph.black_diag, graph.white_diag
    det = 2.0 * graph.area
    w11 = np.abs(w) ** 2 / (2.0 * det)
    w22 = np.abs(b) ** 2 / (2.0 * det)
    w12 = -(b.real * w.real + b.imag * w.imag) / (2.0 * det)
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
        parts = [np.flatnonzero(free)]
    # where P != A the factors only precondition CG, and float32 serves
    dtype = np.float32 if len(parts) == 2 and np.any(w12) else np.float64
    return EnergySystem(graph=graph, basis=basis, matrix=A, w11=w11, w12=w12, w22=w22,
                        pinned=pinned, dtype=dtype, parts=parts)


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
    0 and are never factored.  The unfactored parts that b reaches are
    factored first, together, while no gathered load is held."""
    # np.zeros leaves the pages unmapped until written, so x adds nothing
    # to the peak memory of the factors below
    x = np.zeros(b.shape)
    factors = system._factor or [None] * len(system.parts)
    new = [part for part, rows in enumerate(system.parts)
           if factors[part] is None and b.take(rows, axis=0).any()]
    if new:
        system.factorized(new[0], new)
    for part, rows in enumerate(system.parts):
        load = b.take(rows, axis=0)
        if load.any():
            factor, _ = system.factorized(part)
            x[rows] = factor.solve(load.astype(system.dtype, copy=False))
    return x


def _dots(u, v):
    """Column dot products of two (n, m) blocks; einsum "ij,ij->j" takes
    several times longer on the narrow row-major blocks of CG."""
    return np.array([a @ b for a, b in zip(u.T, v.T)])


def _columns(keep, cols, *blocks):
    """The kept columns: cols[keep] and each block's kept last-axis entries."""
    return (cols[keep],) + tuple(a[..., keep] for a in blocks)


def _potentials(system, jumps, tol):
    """Vertex potentials for the jumps' period vectors from one block
    solve, and their relative residuals.  Only the columns above
    REFINE_TARGET run preconditioned CG, on copies made only when that
    set shrinks; a breakdown (r^T z = 0 or p^T A p <= 0) ends a column.
    A column left above REFINE_TARGET by float32 factors reruns the whole
    block on float64 ones; any residual above tol raises."""
    A, pinned = system.matrix, list(system.pinned)
    rhs = system.rhs(jumps)
    b = rhs.reshape(len(rhs), -1)
    b[pinned] = 0.0  # the pinned vertices carry no equation
    x = _solve_parts(system, b)
    scale = np.maximum(np.linalg.norm(b, axis=0), 1e-300)
    residual, cols = np.empty(b.shape[1]), np.arange(b.shape[1])
    # the active columns of b and x, then the search directions and r^T z
    bc, xc, p, rz = b, x, np.zeros((1, b.shape[1])), np.ones(b.shape[1])
    for step in range(REFINE_STEPS + 1):
        r = bc - A @ xc
        r[pinned] = 0.0
        residual[cols] = np.sqrt(_dots(r, r)) / scale[cols]
        above = residual[cols] > REFINE_TARGET
        if step == REFINE_STEPS or not above.any():
            break
        if not above.all():
            x[:, cols] = xc
            cols, bc, xc, r, p, rz = _columns(above, cols, bc, xc, r, p, rz)
        z = _solve_parts(system, r)
        rz_old, rz = rz, _dots(r, z)
        p = z + rz / rz_old * p
        pq = _dots(p, A @ p)
        ok = (rz != 0) & (pq > 0)
        if not ok.all():
            x[:, cols] = xc
            cols, bc, xc, r, p, rz, pq = _columns(ok, cols, bc, xc, r, p, rz, pq)
        xc += _dots(p, r) / pq * p
    if xc is not x:
        x[:, cols] = xc
    if system.dtype == np.float32 and np.any(residual > REFINE_TARGET):
        system.dtype, system._factor = np.float64, None  # cap or breakdown: refactor once
        return _potentials(system, jumps, tol)
    if np.any(residual > tol):
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
