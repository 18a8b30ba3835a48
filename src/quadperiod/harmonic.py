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
dropped at assembly.  Each solve takes one pass and refines it, at most
REFINE_STEPS times, only while the relative residual is above
REFINE_TARGET; solutions whose residual stays above tol are rejected.
"""

from __future__ import annotations

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
    _factor: object = field(default=None, repr=False)
    _free: np.ndarray = field(default=None, repr=False)

    def quadratic_form(self, f, jumps=None):
        """Energy of d(f with jumps); equals the area-weighted squared
        gradient sum by construction."""
        d = dec.exterior_derivative(self.graph, np.asarray(f, dtype=float),
                                    self.basis, jumps)
        db, dw = 2.0 * d.wb.real, 2.0 * d.ww.real
        return float(np.sum(self.w11 * db * db + 2 * self.w12 * db * dw
                            + self.w22 * dw * dw))

    def rhs(self, jumps):
        g = self.graph
        jb, jw = dec._jump_values(g, self.basis, jumps)
        gb = self.w11 * jb + self.w12 * jw
        gw = self.w12 * jb + self.w22 * jw
        L = np.zeros(g.n_vertices)
        q = g.quads
        np.add.at(L, q[:, 2], gb)
        np.subtract.at(L, q[:, 0], gb)
        np.add.at(L, q[:, 3], gw)
        np.subtract.at(L, q[:, 1], gw)
        return -L

    def factorized(self):
        if self._factor is None:
            self._free = np.setdiff1d(np.arange(self.graph.n_vertices), self.pinned)
            A = self.matrix[self._free][:, self._free].tocsc()
            self._factor = spla.splu(A, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                                     options={"SymmetricMode": True})
        return self._factor, self._free


def assemble(graph, basis, pinned=None):
    """Sparse energy system on the vertex potentials."""
    b, w = graph.black_diag, graph.white_diag
    area = graph.area
    det = 2.0 * area
    w11 = np.abs(w) ** 2 / (2.0 * det)
    w22 = np.abs(b) ** 2 / (2.0 * det)
    w12 = -(b.real * w.real + b.imag * w.imag) / (2.0 * det)
    q = graph.quads
    i0, j0, i1, j1 = q[:, 0], q[:, 1], q[:, 2], q[:, 3]
    rows = np.concatenate([
        i1, i0, i1, i0,          # w11 block on black pair
        j1, j0, j1, j0,          # w22 block on white pair
        i1, i1, i0, i0,          # w12 cross terms, black rows
        j1, j1, j0, j0,          # symmetric white rows
    ])
    cols = np.concatenate([
        i1, i0, i0, i1,
        j1, j0, j0, j1,
        j1, j0, j1, j0,
        i1, i0, i1, i0,
    ])
    ones = np.ones_like(w11)
    vals = np.concatenate([
        w11, w11, -w11, -w11,
        w22, w22, -w22, -w22,
        w12, -w12, -w12, w12,
        w12, -w12, -w12, w12,
    ])
    A = sp.coo_matrix((vals, (rows, cols)),
                      shape=(graph.n_vertices, graph.n_vertices)).tocsr()
    A.eliminate_zeros()
    if pinned is None:
        blacks = np.where(graph.color == BLACK)[0]
        whites = np.where(graph.color == WHITE)[0]
        pinned = (int(blacks[0]), int(whites[0]))
    return EnergySystem(graph=graph, basis=basis, matrix=A,
                        w11=w11, w12=w12, w22=w22, pinned=pinned)


class HarmonicError(RuntimeError):
    """Solver failed to reach the requested residual."""


@dataclass
class HarmonicSolution:
    potential: np.ndarray
    jumps: PeriodData
    differential: Differential
    residual: float
    closedness: float
    coclosedness: float
    period_error: float


REFINE_STEPS = 2      # cap on iterative refinement steps per solve
REFINE_TARGET = 1e-14  # relative residual below which refinement stops


def solve(system, jumps, tol=1e-10):
    """Harmonic differential with the given real black/white periods.

    Closedness is exact by construction; co-closedness and the period
    match are measured and returned as diagnostics.
    """
    g = system.graph
    rhs = system.rhs(jumps)
    factor, free = system.factorized()
    # x stays zero at the pinned vertices, so (A x)[free] = A_ff x[free]
    x = np.zeros(g.n_vertices)
    b_free = rhs[free]
    x[free] = factor.solve(b_free)
    scale = max(float(np.linalg.norm(b_free)), 1e-300)
    for step in range(REFINE_STEPS + 1):
        r = b_free - (system.matrix @ x)[free]
        residual = float(np.linalg.norm(r)) / scale
        if residual <= REFINE_TARGET or step == REFINE_STEPS:
            break
        x[free] += factor.solve(r)
    if residual > tol:
        raise HarmonicError(f"relative residual {residual:.3e} above {tol:.1e}")
    eta = dec.exterior_derivative(g, x, system.basis, jumps)
    _, closed = dec.is_closed(g, eta)
    _, coclosed = dec.is_closed(g, dec.hodge_star(g, eta))
    measured = dec.measure_periods(g, eta, system.basis)
    perr = float(np.max(np.abs(measured.flat().real - jumps.flat())))
    return HarmonicSolution(
        potential=x,
        jumps=jumps,
        differential=eta,
        residual=residual,
        closedness=closed,
        coclosedness=coclosed,
        period_error=perr,
    )


def solve_elementary(system, tol=1e-10):
    """Solutions for the 4g elementary period vectors, reusing the single
    factorization.  Order: a black, b black, a white, b white."""
    g4 = 4 * system.basis.genus
    return [solve(system, PeriodData.from_flat(v), tol) for v in np.eye(g4)]


def verify_minimality(system, solution, trials=20, seed=0, tol=1e-9):
    """Check the variational characterization: the solution is orthogonal
    to every exact differential and no exact perturbation lowers the
    energy."""
    g = system.graph
    rng = np.random.default_rng(seed)
    eta = solution.differential
    e0 = dec.energy(g, eta)
    n_eta = eta.norm()
    worst_ortho = 0.0
    ok = True
    for _ in range(trials):
        f = rng.normal(size=g.n_vertices)
        df = dec.exterior_derivative(g, f)
        ip = dec.inner_product(g, eta, df)
        rel = abs(ip) / max(n_eta * df.norm(), 1e-300)
        worst_ortho = max(worst_ortho, rel)
        perturbed = dec.energy(g, eta + df)
        if perturbed < e0 - tol * max(e0, 1.0):
            ok = False
    return {"orthogonality": worst_ortho, "minimal": ok,
            "passed": ok and worst_ortho <= tol}
