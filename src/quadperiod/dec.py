"""Exterior calculus for differentials carried by quad diagonals.

A differential assigns one complex value per quad to each diagonal
direction: wb on (the half-edges parallel to) the black diagonal, ww on
the white one.  Conventions, fixed once here and derived from two
normalizations (the wedge of the coordinate differentials integrates to
-4i times the quad area, and the derivative of a vertex function is exact
on linear functions):

* d(f) carries half the diagonal difference of f, so integrating along a
  diagonal path with a factor 2 per step telescopes to plain differences;
* wedge(o1, o2) = 4 * sum_Q (o1.wb * o2.ww - o1.ww * o2.wb);
* the inner product is (1/2) * wedge(o1, star(conj(o2))), which makes
  energy(d f) equal the area-weighted squared gradient sum exactly.

d and the closedness residual are products with the diagonal difference
operators, built once per graph; like the star and the period products
they act column by column on (F, m) stacks of m forms.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .surface import BLACK


@dataclass
class Differential:
    """Type-diamond one-form: one value per quad per diagonal color, or
    (F, m) stacks of m forms' values.  Real values stay real."""

    wb: np.ndarray
    ww: np.ndarray

    def __post_init__(self):
        wb, ww = np.asarray(self.wb), np.asarray(self.ww)
        dtype = np.result_type(wb, ww, float)
        self.wb, self.ww = wb.astype(dtype, copy=False), ww.astype(dtype, copy=False)

    def __add__(self, other):
        return Differential(self.wb + other.wb, self.ww + other.ww)

    def __sub__(self, other):
        return Differential(self.wb - other.wb, self.ww - other.ww)

    def __mul__(self, c):
        return Differential(c * self.wb, c * self.ww)

    __rmul__ = __mul__

    def conj(self):
        return Differential(np.conj(self.wb), np.conj(self.ww))

    def norm(self):
        """L2 norm of the values; per form for a stack."""
        n = np.sqrt(np.sum(np.abs(self.wb) ** 2 + np.abs(self.ww) ** 2, axis=0))
        return float(n) if n.ndim == 0 else n


@dataclass
class PeriodData:
    """Periods split by diagonal color; arrays of length genus, or (g, m)
    for m period vectors."""

    a_black: np.ndarray
    b_black: np.ndarray
    a_white: np.ndarray
    b_white: np.ndarray

    def __post_init__(self):
        for k in ("a_black", "b_black", "a_white", "b_white"):
            setattr(self, k, np.atleast_1d(np.asarray(getattr(self, k))))

    @classmethod
    def zeros(cls, g, dtype=float):
        return cls(*(np.zeros(g, dtype=dtype) for _ in range(4)))

    @property
    def genus(self):
        return len(self.a_black)

    @property
    def a(self):
        """Combined a-periods: mean of the black and white measurements."""
        return 0.5 * (self.a_black + self.a_white)

    @property
    def b(self):
        return 0.5 * (self.b_black + self.b_white)

    def quadratic_form_vector(self):
        """Real parts ordered (a white, a black, b black, b white), the
        layout the energy quadratic form acts on."""
        return np.concatenate([self.a_white.real, self.a_black.real,
                               self.b_black.real, self.b_white.real])

    def flat(self):
        """(a black, b black, a white, b white) concatenation."""
        return np.concatenate([self.a_black, self.b_black,
                               self.a_white, self.b_white])

    @classmethod
    def from_flat(cls, v):
        g = len(v) // 4
        return cls(a_black=v[:g], b_black=v[g:2 * g],
                   a_white=v[2 * g:3 * g], b_white=v[3 * g:])


def chart_dz(graph):
    """The coordinate differential: half of each diagonal in the quad's
    own chart.  Holomorphic on every quad by construction."""
    return Differential(graph.black_diag / 2.0, graph.white_diag / 2.0)


def chart_dz_bar(graph):
    return chart_dz(graph).conj()


def difference_operators(graph):
    """The signed diagonal differences (D_b, D_w): (F, V) CSR matrices
    with rows f[q2] - f[q0] and f[q3] - f[q1], cached on the graph."""
    if "differences" not in graph._cache:
        q, F = graph.quads, graph.n_quads
        signs, rows = np.tile([1.0, -1.0], F), np.arange(0, 2 * F + 1, 2)
        graph._cache["differences"] = tuple(
            sp.csr_matrix((signs, q[:, [hi, lo]].ravel(), rows), shape=(F, graph.n_vertices))
            for hi, lo in ((2, 0), (3, 1)))
    return graph._cache["differences"]


def _per_quad(x, *coeffs):
    """Per-quad coefficient arrays shaped to broadcast against x, one
    form's values or an (F, m) stack."""
    return [c.reshape(c.shape + (1,) * (np.ndim(x) - 1)) for c in coeffs]


def _jump_values(basis, jumps):
    """Per-quad cocycle combinations (black, white) of the jumps' periods;
    (F, m) stacks for (g, m) period arrays."""
    if jumps is None:
        return 0.0, 0.0
    c, k = jumps.flat(), 2 * basis.genus
    return basis.cocycles_black @ c[:k], basis.cocycles_white @ c[k:]


def exterior_derivative(graph, f, basis=None, jumps=None):
    """d of a vertex function (or a (V, m) stack), optionally with periods
    (g or (g, m) arrays) imposed through the homology cocycles.  Exact
    (all periods zero) when no jumps are given."""
    Db, Dw = difference_operators(graph)
    f = np.asarray(f)
    jb, jw = _jump_values(basis, jumps)
    return Differential((Db @ f + jb) / 2.0, (Dw @ f + jw) / 2.0)


def closedness_residual(graph, omega):
    """Per-vertex boundary sums of the vertex faces; all zero iff closed;
    (V, m) for a stack of forms.

    At a black vertex the white values of incident quads enter with +1
    where the vertex is the diagonal tail and -1 at the head; dually at
    white vertices: the residual is -(D_b^T ww + D_w^T wb).  Quad faces
    are automatically exact for this class of differentials (parallel
    edges cancel pairwise).
    """
    Db, Dw = difference_operators(graph)
    res = Db.T @ omega.ww
    res += Dw.T @ omega.wb
    return np.negative(res, out=res)


def is_closed(graph, omega, tol=1e-10):
    """(closed, largest residual) against tol times the norm; per form."""
    worst = np.max(np.abs(closedness_residual(graph, omega)), axis=0, initial=0.0)
    ok = worst <= tol * np.maximum(omega.norm(), 1e-300)
    return (bool(ok), float(worst)) if worst.ndim == 0 else (ok, worst)


def star_coefficients(graph):
    """Per-quad 2x2 coefficients of the duality rotation acting on
    (wb, ww): [[c, -d], [e, -c]] with c = cot of the diagonal crossing
    angle, d and e the length-ratio over its sine."""
    z = graph.white_diag / graph.black_diag
    return z.real / z.imag, 1.0 / z.imag, np.abs(z) ** 2 / z.imag


def hodge_star(graph, omega):
    """Duality rotation: squares to minus the identity; fixes the
    holomorphic condition ww = i * rho * wb as its -i eigenspace."""
    c, d, e = _per_quad(omega.wb, *star_coefficients(graph))
    return Differential(c * omega.wb - d * omega.ww,
                        e * omega.wb - c * omega.ww)


def holomorphy_residual(graph, omega):
    """Per-quad defect of the discrete Cauchy-Riemann relation
    ww = i * rho * wb (equivalently, star omega = -i omega)."""
    return omega.ww - 1j * graph.diagonal_ratio * omega.wb


def is_holomorphic(graph, omega, tol=1e-10):
    cr = float(np.max(np.abs(holomorphy_residual(graph, omega))))
    _, cl = is_closed(graph, omega, tol)
    scale = max(omega.norm(), 1e-300)
    return (cr <= tol * scale and cl <= tol * scale), cr, cl


def _cmul(x, y):
    # explicit real arithmetic keeps x*y bitwise commutative (the fused
    # complex product is not), which makes the wedge exactly antisymmetric
    re = x.real * y.real - x.imag * y.imag
    im = x.real * y.imag + x.imag * y.real
    return re + 1j * im


def wedge(graph, o1, o2):
    """Surface integral of the wedge product; vertex faces contribute
    nothing for this class of forms, so it is a plain sum over quads.
    Normalized so wedge(dz, conj(dz)) = -4i * area."""
    return 4.0 * complex(np.sum(_cmul(o1.wb, o2.ww) - _cmul(o1.ww, o2.wb)))

def inner_product(graph, o1, o2):
    """Hermitian product <o1, o2> = (1/2) integral of o1 wedge star(conj o2).

    The half compensates the doubled wedge normalization (the quad faces
    of the carrier graph cover half the surface), so energy(dz) equals
    twice the area, matching the smooth Dirichlet energy of dz.
    """
    return 0.5 * wedge(graph, o1, hodge_star(graph, o2.conj()))


def energy(graph, omega):
    return float(inner_product(graph, omega, omega).real)


def quad_gradients(graph, f, basis=None, jumps=None):
    """Per-quad gradient of a real vertex function: the unique vector whose
    products with the two diagonals reproduce the (jump-corrected)
    diagonal differences."""
    d = exterior_derivative(graph, np.asarray(f, dtype=float), basis, jumps)
    db, dw = 2.0 * d.wb.real, 2.0 * d.ww.real
    b, w = graph.black_diag, graph.white_diag
    det = 2.0 * graph.area  # = Im(conj(b) w)
    gx = (w.imag * db - b.imag * dw) / det
    gy = (-w.real * db + b.real * dw) / det
    return np.stack([gx, gy], axis=1)


def quad_derivatives(graph, f):
    """Contour-quotient derivatives (d, dbar) of a vertex function on each
    quad: trapezoid-rule integrals of f over the midpoint parallelogram
    divided by its area form.  Exact on chart-linear functions."""
    db, dw = (D @ np.asarray(f, dtype=complex) for D in difference_operators(graph))
    b, w = graph.black_diag, graph.white_diag
    a4 = 4.0 * graph.area
    d = 1j * (np.conj(w) * db - np.conj(b) * dw) / a4
    dbar = -1j * (w * db - b * dw) / a4
    return d, dbar


def integrate_path(graph, omega, dcycle):
    """Integral along a diagonal path: each traversed diagonal counts its
    value twice (a medial step is half a diagonal)."""
    lo, hi = (0, 2) if dcycle.color == BLACK else (1, 3)
    vals = omega.wb if dcycle.color == BLACK else omega.ww
    total = 0.0 + 0.0j
    prev_head = None
    for qd, s in dcycle.steps:
        tail, head = (lo, hi) if s > 0 else (hi, lo)
        if prev_head is not None and int(graph.quads[qd, tail]) != prev_head:
            raise ValueError("broken diagonal path: consecutive steps do "
                             "not share an endpoint")
        prev_head = int(graph.quads[qd, head])
        total += 2.0 * s * vals[qd]
    return complex(total)


def color_periods(basis, wb, ww):
    """Black and white periods 2 * (op @ values) with the basis' period
    operators, whose rows are a_1..a_g, b_1..b_g (the factor 2 is the
    traversal factor of integrate_path).  wb and ww hold one form's
    per-quad values, or (F, m) stacks of m forms' values; no closedness
    check."""
    return 2.0 * (basis.op_black @ wb), 2.0 * (basis.op_white @ ww)


def measure_periods(graph, omega, basis, warn_tol=1e-6):
    """All black/white periods of one differential (or a stack) against a
    homology basis (color_periods).  Periods of non-closed differentials
    depend on the representatives; a warning flags that case."""
    ok, worst = is_closed(graph, omega, warn_tol)
    if not np.all(ok):
        import warnings
        warnings.warn(f"measuring periods of a non-closed differential "
                      f"(residual {np.max(worst):.3e})", stacklevel=2)
    g = basis.genus
    black, white = color_periods(basis, omega.wb, omega.ww)
    return PeriodData(black[:g], black[g:], white[:g], white[g:])
