"""Discrete harmonic differentials with prescribed black/white periods.

Minimizing the Dirichlet energy over vertex potentials with fixed period
jumps yields the unique harmonic representative.  The energy couples the
four vertices of each quad through the 2x2 weight area * (D D^T)^{-1},
D holding the two diagonal vectors; the assembled matrix is positive
semidefinite with the black-constant and white-constant functions as its
kernel, removed by pinning one vertex of each color.

The pinned matrix is symmetric positive definite, so SuperLU factors it
in symmetric mode: a minimum-degree ordering of A + A^T and diagonal
pivots, with the structural zeros of orthodiagonal quads (w12 = 0)
dropped at assembly.  Its connected components are labelled once, at
assembly, and each is factored on its own, only when a load reaches it:
on an orthodiagonal mesh the black and white vertices are two
components, and black period jumps load only the black one.  Matrix and
load vector are products with the diagonal difference operators, so m
period vectors make one (n, m) block, solved in one pass and refined, at
most REFINE_STEPS times, in only the columns above REFINE_TARGET
(relative residual); a residual above tol is rejected.  solve_elementary
returns real (F, 2g) stacks for the 2g black unit period vectors.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.sparse import csgraph

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
    parts: list = field(default=None, repr=False)  # free vertex ids per component
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

    def factorized(self, part):
        """SuperLU factor of one component of the pinned matrix, factored
        on first use, and the component's vertex ids."""
        rows = self.parts[part]
        factors = self._factor or [None] * len(self.parts)
        if factors[part] is None:
            A = self.matrix[rows][:, rows].tocsc()
            try:
                factors[part] = spla.splu(A, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                                          options={"SymmetricMode": True})
            except RuntimeError as exc:   # SuperLU: "Factor is exactly singular"
                raise HarmonicError(f"energy matrix is numerically singular ({exc})") from None
        self._factor = factors
        return factors[part], rows


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
    # The components of the whole matrix, less the pinned vertices, are
    # those of the pinned matrix: removing a vertex never splits a mesh's
    # diagonal graph, as the faces around it link its neighbours (a part
    # holding two blocks would still factor correctly).  "strong" on the
    # symmetric pattern labels as "weak" does, without a transposed copy.
    n, labels = csgraph.connected_components(A, directed=True, connection="strong")
    labels[list(pinned)] = -1
    parts = [np.flatnonzero(labels == c) for c in range(n)]
    return EnergySystem(graph=graph, basis=basis, matrix=A, w11=w11, w12=w12, w22=w22,
                        pinned=pinned, parts=parts)


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


REFINE_STEPS = 2      # cap on iterative refinement steps per column
REFINE_TARGET = 1e-14  # relative residual below which refinement stops


def _solve_parts(system, b):
    """Pinned-matrix solution of the (V, m) block b, zero at the pinned
    vertices: one block solve per component that b is nonzero on; the
    others keep potential 0 and are never factored."""
    # np.zeros leaves the pages unmapped until written, so x adds nothing
    # to the peak memory of the factor below
    x = np.zeros(b.shape)
    for part, rows in enumerate(system.parts):
        if b[rows].any():
            factor, _ = system.factorized(part)
            x[rows] = factor.solve(b[rows])
    return x


def _potentials(system, jumps, tol):
    """Vertex potentials for the jumps' period vectors from one block
    solve, and their relative residuals.  Only the columns above
    REFINE_TARGET are refined; any residual above tol raises."""
    pinned = list(system.pinned)
    rhs = system.rhs(jumps)
    b = rhs.reshape(len(rhs), -1)
    b[pinned] = 0.0  # the pinned vertices carry no equation
    x = _solve_parts(system, b)
    scale = np.maximum(np.linalg.norm(b, axis=0), 1e-300)
    residual, cols = np.empty(b.shape[1]), np.arange(b.shape[1])
    for step in range(REFINE_STEPS + 1):
        r = b[:, cols] - system.matrix @ x[:, cols]
        r[pinned] = 0.0
        residual[cols] = np.linalg.norm(r, axis=0) / scale[cols]
        above = residual[cols] > REFINE_TARGET
        if step == REFINE_STEPS or not above.any():
            break
        cols = cols[above]
        x[:, cols] += _solve_parts(system, r[:, above])
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
