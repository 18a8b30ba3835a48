"""Command line driver: mesh generation, invariant checking, homology and
period reports, convergence studies, Abelian integrals.

Subcommands: mesh, check, homology, harmonic, periods, converge,
integrate.  Reports are machine readable (CSV or JSON documents).  The exit
code is 0 when every executed check passed, 1 when a check failed, and
2 on invalid input, reported as one line on stderr.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from . import dec, formats
from .dec import PeriodData
from .harmonic import HarmonicError, assemble, solve, verify_minimality
from .homology import HomologyError, homology_basis, intersection_number
from .periods import (
    PeriodsError,
    abelian_integral,
    bilinear_identity_residual,
    canonical_differentials,
    convergence_diagnostics,
    energy_identity_residual,
    holomorphic_from_harmonic,
    period_matrices,
)
from .refine import sweep
from .surface import QuadGraph, SurfaceError, build_quad_graph, mesh_stats


# ---------------------------------------------------------------------------
# check
# ---------------------------------------------------------------------------

def run_check(graph, tol=1e-10, seed=0, inject=None):
    """Run every module's invariant battery on one mesh.  Returns a list
    of (name, measured, bound, passed) and the overall verdict."""
    rng = np.random.default_rng(seed)
    out = []

    def check(name, measured, bound):
        out.append((name, float(measured), float(bound), bool(measured <= bound)))

    st = mesh_stats(graph)
    check("mesh_phi_min_positive", -st.phi_min, 0.0)
    basis = homology_basis(graph)
    g = basis.genus

    # homology contracts
    chains = basis.a_chains + basis.b_chains
    J = np.zeros((2 * g, 2 * g), dtype=np.int64)
    J[:g, g:] = np.eye(g, dtype=np.int64)
    J[g:, :g] = -np.eye(g, dtype=np.int64)
    M = np.zeros((2 * g, 2 * g), dtype=np.int64)
    for i, ci in enumerate(chains):
        for j, cj in enumerate(chains):
            M[i, j] = sum(a * b * intersection_number(graph, x, y)
                          for a, x in ci for b, y in cj)
    check("homology_symplectic_form", np.max(np.abs(M - J)), 0.0)
    worst = 0
    for op, sig in ((basis.op_black, basis.sigma_black),
                    (basis.op_white, basis.sigma_white)):
        gap = op @ sig.T - np.eye(2 * g, dtype=np.int64)
        worst = max(worst, np.max(np.abs(gap), initial=0))
    check("homology_cocycle_periods", worst, 0.0)

    # exterior calculus identities
    f = rng.normal(size=graph.n_vertices)
    df = dec.exterior_derivative(graph, f)
    check("dec_stokes_exact_form", np.max(np.abs(dec.closedness_residual(graph, df))),
          1e-12 * max(df.norm(), 1.0))
    omega_r = dec.Differential(rng.normal(size=graph.n_quads) + 1j * rng.normal(size=graph.n_quads),
                               rng.normal(size=graph.n_quads) + 1j * rng.normal(size=graph.n_quads))
    ss = dec.hodge_star(graph, dec.hodge_star(graph, omega_r))
    check("dec_star_squares_minus_one",
          max(np.max(np.abs(ss.wb + omega_r.wb)), np.max(np.abs(ss.ww + omega_r.ww))),
          1e-12 * omega_r.norm())
    o2 = dec.Differential(rng.normal(size=graph.n_quads), rng.normal(size=graph.n_quads))
    w12 = dec.wedge(graph, omega_r, o2)
    w21 = dec.wedge(graph, o2, omega_r)
    check("dec_wedge_antisymmetry", abs(w12 + w21), 1e-12 * max(abs(w12), 1.0))
    dz = dec.chart_dz(graph)
    area = float(np.sum(graph.area))
    check("dec_wedge_normalization",
          abs(dec.wedge(graph, dz, dz.conj()) + 4j * area), 1e-12 * area)
    grad = dec.quad_gradients(graph, f)
    direct = float(np.sum(graph.area * np.sum(grad ** 2, axis=1)))
    check("dec_energy_gradient_identity",
          abs(dec.energy(graph, df) - direct), 1e-12 * max(direct, 1e-300))
    cr = np.abs(dec.holomorphy_residual(graph, omega_r))
    sw = dec.hodge_star(graph, omega_r)
    eig = np.abs(sw.wb + 1j * omega_r.wb) + np.abs(sw.ww + 1j * omega_r.ww)
    scale = np.abs(omega_r.wb) + np.abs(omega_r.ww) + 1e-30
    agree = np.all((cr / scale > 1e-9) == (eig / scale > 1e-9))
    check("dec_holomorphy_equivalence", 0.0 if agree else 1.0, 0.0)

    # harmonic solver contracts
    system = assemble(graph, basis)
    p = PeriodData.from_flat(rng.normal(size=4 * g))
    sol = solve(system, p, tol)
    n = max(sol.differential.norm(), 1e-300)
    check("harmonic_residual", sol.residual, tol)
    check("harmonic_closedness", sol.closedness, 10 * tol * n)
    check("harmonic_coclosedness", sol.coclosedness, 10 * tol * n)
    check("harmonic_period_match", sol.period_error, 10 * tol * max(1.0, n))
    mini = verify_minimality(system, sol, trials=10, seed=seed)
    check("harmonic_orthogonality", mini["orthogonality"], 1e-9)

    # period matrices
    cb = canonical_differentials(graph, basis, system)
    if inject == "holomorphicity":
        bad = cb.equal_split[0]
        bad.ww[len(bad.ww) // 2] += 0.37
    worst_holo = 0.0
    for w in cb.black_normalized + cb.white_normalized + cb.equal_split:
        res = np.max(np.abs(dec.holomorphy_residual(graph, w)))
        worst_holo = max(worst_holo, res / max(w.norm(), 1e-300))
    check("periods_holomorphicity", worst_holo, 100 * tol)
    pm = period_matrices(graph, basis, cb)
    d = pm.diagnostics
    check("periods_full_symmetry", d["full_symmetry"], 1e-7)
    check("periods_pi_symmetry", d["pi_symmetry"], 1e-7)
    check("periods_im_positive_full", -d["full_im_min_eig"], 0.0)
    check("periods_im_positive_pi", -d["pi_im_min_eig"], 0.0)
    check("periods_block_average", d["block_average_gap"],
          1e-8 * max(1.0, float(np.linalg.norm(pm.pi))))
    check("periods_psd_diagnostic", -d["psd_gap"], 1e-10)
    check("periods_aperiod_error", d["aperiod_error"], 100 * tol)
    orthodiagonal = bool(np.max(np.abs(graph.diagonal_ratio.imag)) < 1e-12)
    if orthodiagonal:
        check("periods_orthodiagonal_blocks", d["orthodiagonal_structure"], 1e-8)
    echeck = 0.0
    for _ in range(5):
        pr = PeriodData.from_flat(rng.normal(size=4 * g))
        echeck = max(echeck, energy_identity_residual(graph, system, pm, pr, tol))
    check("periods_energy_form_identity", echeck, 1e-8)
    bil = max(bilinear_identity_residual(graph, basis, w)
              for w in cb.equal_split + cb.black_normalized)
    check("periods_bilinear_identity", bil, 1e-8)
    passed = all(ok for (_, _, _, ok) in out)
    return out, passed, pm


# ---------------------------------------------------------------------------
# converge
# ---------------------------------------------------------------------------

EXACT_THRESHOLD = 1e-8
DEFAULT_BAND = (0.27, 0.25)   # below/above the predicted exponent


def fit_slope(hs, errs):
    hs = np.asarray(hs, dtype=float)
    errs = np.asarray(errs, dtype=float)
    keep = errs > 1e-300
    if keep.sum() < 2:
        return math.nan
    return float(np.polyfit(np.log(hs[keep]), np.log(errs[keep]), 1)[0])


def predicted_exponent(gamma_min, adapted):
    if adapted or gamma_min > 0.5:
        return 1.0, ""
    if abs(gamma_min - 0.5) < 1e-12:
        return 1.0, "log-corrected"
    return 2.0 * gamma_min, ""


def run_converge(surface, levels=5, adapted=False, base_cell=0.5,
                 reference=None, tol=1e-10, band=DEFAULT_BAND, seed=0):
    """Full pipeline per refinement level; errors against the finest level
    (or an analytic reference); least-squares slopes of log error against
    log h with the stated acceptance band.

    Besides the period matrix errors, rows carry the Dirichlet energy of
    the harmonic differential for one seeded period vector with equal
    black and white periods, the quantity the refinement theory controls.
    """
    fam = sweep(surface, levels, adapted=adapted, base_cell=base_cell)
    rng = np.random.default_rng(seed)
    g = fam[0].stats.genus
    v1, v2 = rng.normal(size=g), rng.normal(size=g)
    p_fixed = PeriodData(a_black=v1, b_black=v2, a_white=v1.copy(), b_white=v2.copy())
    pms = []
    energies = []
    for lv in fam:
        basis = homology_basis(lv.graph)
        system = assemble(lv.graph, basis)
        cb = canonical_differentials(lv.graph, basis, system, tol)
        pms.append(period_matrices(lv.graph, basis, cb))
        eta = solve(system, p_fixed, tol).differential
        energies.append(dec.energy(lv.graph,
                                   holomorphic_from_harmonic(lv.graph, eta)))
    e_ref = energies[-1]
    if reference is None:
        ref = pms[-1].pi
        compare = list(range(levels - 1))
    else:
        ref = np.asarray(reference, dtype=complex)
        compare = list(range(levels))
    rows = []
    for i in compare:
        d = convergence_diagnostics(pms[i], reference=ref)
        st = fam[i].stats
        rows.append({
            "level": i,
            "h": st.h,
            "phi_min": st.phi_min,
            "n_quads": st.n_quads,
            "pi_error": d["pi_error"],
            "off_diagonal_gap": d["off_diagonal_gap"],
            "diagonal_gap": d["diagonal_gap"],
            "energy_error": abs(energies[i] - e_ref),
            "psd_gap": d["psd_gap"],
        })
    gamma_min = fam[0].stats.gamma_min
    pred, note = predicted_exponent(gamma_min, adapted)
    report = {
        "adapted": adapted,
        "gamma_min": gamma_min,
        "predicted_exponent": pred,
        "note": note,
        "rows": rows,
        "fits": {},
        "reference": "analytic" if reference is not None else "finest-level",
    }
    hs = [r["h"] for r in rows]
    for key in ("pi_error", "off_diagonal_gap", "diagonal_gap", "energy_error"):
        errs = [r[key] for r in rows]
        if max(errs) <= EXACT_THRESHOLD:
            report["fits"][key] = {"flag": "exact", "slope": None,
                                   "decreasing": None, "in_band": None}
            continue
        if len([e for e in errs if e > 1e-300]) < 3:
            report["fits"][key] = {"flag": "insufficient", "slope": None,
                                   "decreasing": None, "in_band": None}
            continue
        slope = fit_slope(hs, errs)
        decreasing = all(errs[i] > errs[i + 1] for i in range(len(errs) - 1))
        lo, hi = pred - band[0], pred + band[1]
        report["fits"][key] = {
            "flag": "fitted",
            "slope": slope,
            "decreasing": decreasing,
            "band": [lo, hi],
            "in_band": bool(lo <= slope <= hi) if adapted is False else bool(slope >= lo),
        }
    return report, pms, fam


# ---------------------------------------------------------------------------
# integrate
# ---------------------------------------------------------------------------

def run_integrate(graph, a_periods, tol=1e-10):
    """Canonical holomorphic differential with the prescribed equal black
    and white a-periods; Abelian integral values per vertex."""
    basis = homology_basis(graph)
    g = basis.genus
    a = np.asarray(a_periods, dtype=complex)
    if len(a) != g:
        raise PeriodsError(f"need {g} a-periods, got {len(a)}")
    cb = canonical_differentials(graph, basis, assemble(graph, basis), tol)
    wb = sum(a[k] * cb.equal_split[k].wb for k in range(g))
    ww = sum(a[k] * cb.equal_split[k].ww for k in range(g))
    omega = dec.Differential(wb, ww)
    vals = abelian_integral(graph, omega)
    return omega, vals


# ---------------------------------------------------------------------------
# argument parsing and entry points
# ---------------------------------------------------------------------------

def _reals(text):
    """Comma separated reals, as an array."""
    try:
        return np.array([float(x) for x in text.split(",")])
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"not a comma separated list of reals: {text!r}") from None


def _band(text):
    """Slope band 'below,above'."""
    band = _reals(text)
    if len(band) != 2:
        raise argparse.ArgumentTypeError(f"need two reals 'below,above', got {text!r}")
    return tuple(band.tolist())


def _complexes(text):
    """Semicolon separated complex numbers 're,im;...'."""
    parts = [_reals(part) for part in text.split(";")]
    if any(len(z) != 2 for z in parts):
        raise argparse.ArgumentTypeError(f"need 're,im' pairs separated by ';', got {text!r}")
    return [complex(*z) for z in parts]


def _add_common(sub):
    sub.add_argument("surface", help="surface or quad-graph document (JSON)")
    sub.add_argument("--cell", type=float, default=0.5,
                     help="cell size for meshing surfaces")


def make_parser():
    ap = argparse.ArgumentParser(prog="quadperiod")
    ap.add_argument("--tol", type=float, default=1e-10)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--format", choices=("csv", "json-like"), default="csv")
    ap.add_argument("--out", default=".")
    sp = ap.add_subparsers(dest="command", required=True)

    m = sp.add_parser("mesh", help="write refinement levels as quad-graph files")
    _add_common(m)
    m.add_argument("--levels", type=int, default=3)
    m.add_argument("--adapted", action="store_true")
    m.add_argument("--phi-floor", type=float, default=math.pi / 12)

    c = sp.add_parser("check", help="run every invariant battery")
    _add_common(c)
    c.add_argument("--inject", choices=("holomorphicity",),
                   help="corrupt a differential to demonstrate detection")

    h = sp.add_parser("homology", help="print basis cycles and cocycle data")
    _add_common(h)

    ha = sp.add_parser("harmonic", help="solve for prescribed periods")
    _add_common(ha)
    ha.add_argument("--periods", required=True, type=_reals,
                    help="comma separated 4g reals: a black, b black, a white, b white")
    ha.add_argument("--dump", help="write the differential to this CSV file")

    pe = sp.add_parser("periods", help="period matrices and diagnostics")
    _add_common(pe)
    pe.add_argument("--dump-differentials", help="directory for CSV dumps")

    cv = sp.add_parser("converge", help="refinement study with rate fits")
    _add_common(cv)
    cv.add_argument("--levels", type=int, default=4)
    cv.add_argument("--adapted", action="store_true")
    cv.add_argument("--reference", choices=("self", "analytic"), default="self")
    cv.add_argument("--band", type=_band, default=DEFAULT_BAND,
                    help="slope acceptance band as 'below,above' offsets")

    it = sp.add_parser("integrate", help="Abelian integral of a canonical form")
    _add_common(it)
    it.add_argument("--a-periods", required=True, type=_complexes,
                    help="semicolon separated complex a-periods 're,im;...'")
    return ap


def _load(path, cell):
    """The mesh of a surface document at the given cell size, or the mesh
    a graph document holds."""
    obj = formats.read_surface(path)
    return obj if isinstance(obj, QuadGraph) else build_quad_graph(obj, cell)


def main(argv=None):
    args = make_parser().parse_args(argv)
    try:
        return _run(args)
    except (SurfaceError, HomologyError, PeriodsError, HarmonicError) as exc:
        print(f"quadperiod: error: {exc}", file=sys.stderr)
        return 2


def _run(args):
    os.makedirs(args.out, exist_ok=True)
    rc = 0
    if args.command == "mesh":
        obj = formats.read_surface(args.surface)
        fam = sweep(obj, args.levels, adapted=args.adapted,
                    base_cell=args.cell, phi_floor=args.phi_floor)
        for lv in fam:
            path = os.path.join(args.out, f"level{lv.level}.json")
            formats.write_graph(path, lv.graph)
            st = lv.stats
            print(f"level={lv.level} h={formats.fmt(st.h)} quads={st.n_quads} "
                  f"vertices={st.n_vertices} genus={st.genus} "
                  f"phi_min={formats.fmt(st.phi_min)} wrote={path}")
    elif args.command == "check":
        graph = _load(args.surface, args.cell)
        checks, passed, pm = run_check(graph, args.tol, args.seed, args.inject)
        for name, measured, bound, ok in checks:
            print(f"CHECK {name} measured={measured:.3e} bound={bound:.3e} "
                  f"{'PASS' if ok else 'FAIL'}")
        print(f"pi = {np.array2string(pm.pi, precision=9)}")
        print(f"genus={pm.genus} RESULT={'PASS' if passed else 'FAIL'}")
        rc = 0 if passed else 1
    elif args.command == "homology":
        graph = _load(args.surface, args.cell)
        basis = homology_basis(graph)
        print(f"genus {basis.genus}")
        print("intersection matrix before reduction:")
        print(basis.intersection_before)
        print("after reduction:")
        print(basis.transform @ basis.intersection_before @ basis.transform.T)
        print("transform:")
        print(basis.transform)
        for kind, chains in (("a", basis.a_chains), ("b", basis.b_chains)):
            for k, ch in enumerate(chains):
                size = sum(abs(c) * len(cyc) for c, cyc in ch)
                print(f"{kind}_{k + 1}: {len(ch)} walks, total length {size}")
        for name, sig in (("black", basis.sigma_black), ("white", basis.sigma_white)):
            for k in range(2 * basis.genus):
                print(f"cocycle {name} {k + 1}: support {int(np.count_nonzero(sig[k]))}")
    elif args.command == "harmonic":
        graph = _load(args.surface, args.cell)
        basis = homology_basis(graph)
        vals = args.periods
        g = basis.genus
        if len(vals) not in (4 * g, 8 * g):
            raise HarmonicError(f"need {4 * g} or {8 * g} floats, got {len(vals)}")
        # 8g values are complex periods as re,im pairs: one column each for
        # the real and imaginary parts, superposed after one block solve
        sol = solve(assemble(graph, basis), PeriodData.from_flat(np.reshape(vals, (4 * g, -1))),
                    args.tol)
        parts = [1, 1j][:len(vals) // (4 * g)]
        eta = dec.Differential(sol.differential.wb @ parts, sol.differential.ww @ parts)
        worst = tuple(float(np.max(v)) for v in (
            sol.residual, sol.closedness, sol.coclosedness, sol.period_error))
        print(f"residual={worst[0]:.3e} closedness={worst[1]:.3e} "
              f"coclosedness={worst[2]:.3e} period_error={worst[3]:.3e}")
        print(f"energy={dec.energy(graph, eta):.17g}")
        if args.dump:
            formats.write_differential(args.dump, eta)
            print(f"wrote {args.dump}")
    elif args.command == "periods":
        graph = _load(args.surface, args.cell)
        basis = homology_basis(graph)
        system = assemble(graph, basis)
        cb = canonical_differentials(graph, basis, system, args.tol)
        pm = period_matrices(graph, basis, cb)
        if args.dump_differentials:
            os.makedirs(args.dump_differentials, exist_ok=True)
            for k, w in enumerate(cb.equal_split):
                formats.write_differential(
                    os.path.join(args.dump_differentials, f"canonical{k}.csv"), w)
        doc = {
            "format": 1,
            "genus": basis.genus,
            "pi": formats.matrix_to_pairs(pm.pi),
            "block_bw": formats.matrix_to_pairs(pm.block_bw),
            "block_bb": formats.matrix_to_pairs(pm.block_bb),
            "block_ww": formats.matrix_to_pairs(pm.block_ww),
            "block_wb": formats.matrix_to_pairs(pm.block_wb),
            "diagnostics": {},
        }
        ok = True
        d = pm.diagnostics
        bounds = {
            "full_symmetry": 1e-7, "pi_symmetry": 1e-7,
            "block_average_gap": 1e-8, "aperiod_error": 1e-8,
        }
        for key, val in d.items():
            entry = {"value": float(np.real(val))}
            if key in bounds:
                entry["bound"] = bounds[key]
                entry["passed"] = bool(val <= bounds[key])
            elif key in ("full_im_min_eig", "pi_im_min_eig"):
                entry["bound"] = 0.0
                entry["passed"] = bool(val > 0)
            elif key == "psd_gap":
                entry["bound"] = -1e-10
                entry["passed"] = bool(val >= -1e-10)
            if not entry.get("passed", True):
                ok = False
            doc["diagnostics"][key] = entry
        path = os.path.join(args.out, "periods.json")
        with open(path, "w") as f:
            json.dump(doc, f, indent=1)
        print(json.dumps(doc["diagnostics"], indent=1))
        print(f"pi = {np.array2string(pm.pi, precision=10)}")
        print(f"wrote {path} RESULT={'PASS' if ok else 'FAIL'}")
        rc = 0 if ok else 1
    elif args.command == "converge":
        obj = formats.read_surface(args.surface)
        reference = None
        if args.reference == "analytic":
            gen = getattr(obj, "generator", None) or {}
            if gen.get("kind") != "torus":
                raise SurfaceError("no analytic reference for this surface")
            reference = np.array([[complex(*gen["tau"])]])
        report, pms, fam = run_converge(
            obj, levels=args.levels, adapted=args.adapted,
            base_cell=args.cell, reference=reference, tol=args.tol, band=args.band)
        header = ["level", "h", "phi_min", "n_quads", "pi_error",
                  "off_diagonal_gap", "diagonal_gap", "energy_error", "psd_gap"]
        if args.format == "json-like":
            path = os.path.join(args.out, "converge.json")
            with open(path, "w") as fh:
                json.dump(report, fh, indent=1)
        else:
            rows = [[r[k] for k in header] for r in report["rows"]]
            path = os.path.join(args.out, "converge.csv")
            formats.write_csv(path, header, rows)
        print(f"predicted exponent {report['predicted_exponent']}"
              + (f" ({report['note']})" if report["note"] else ""))
        ok = True
        for key, fit in report["fits"].items():
            if fit["flag"] == "exact":
                print(f"FIT {key}: exact (all errors below {EXACT_THRESHOLD})")
                continue
            if fit["flag"] == "insufficient":
                print(f"FIT {key}: fewer than 3 finite error rows, no fit")
                continue
            print(f"FIT {key}: slope={fit['slope']:.4f} band={fit['band']} "
                  f"decreasing={fit['decreasing']} in_band={fit['in_band']}")
            if key == "pi_error" and not (fit["decreasing"] and fit["in_band"]):
                ok = False
        print(f"wrote {path} RESULT={'PASS' if ok else 'FAIL'}")
        rc = 0 if ok else 1
    elif args.command == "integrate":
        graph = _load(args.surface, args.cell)
        omega, vals = run_integrate(graph, args.a_periods, args.tol)
        # each vertex at its first corner in the quad table
        _, first = np.unique(graph.quads, return_index=True)
        position = graph.corners.ravel()[first]
        rows = []
        for v in range(graph.n_vertices):
            pos = position[v]
            rows.append([v, formats.fmt(pos.real), formats.fmt(pos.imag),
                         formats.fmt(vals[v].real), formats.fmt(vals[v].imag)])
        path = os.path.join(args.out, "integral.csv")
        formats.write_csv(path, ["vertex", "x", "y", "re", "im"], rows)
        print(f"wrote {path} ({len(rows)} rows)")
    return rc


if __name__ == "__main__":
    sys.exit(main())
