import json
import math
import os

import numpy as np
import pytest

from quadperiod import dec, formats
from quadperiod.cli import main, run_check, run_converge, run_integrate
from quadperiod.harmonic import assemble
from quadperiod.homology import homology_basis
from quadperiod.periods import canonical_differentials, period_matrices
from quadperiod.surface import build_quad_graph, generate_torus, l_shape_surface


@pytest.fixture()
def torus_doc(tmp_path):
    path = tmp_path / "torus.json"
    path.write_text(json.dumps(
        {"format": 1, "generator": {"kind": "torus", "tau": [0.0, 1.0]}}))
    return str(path)


@pytest.fixture()
def lshape_doc(tmp_path):
    path = tmp_path / "lshape.json"
    path.write_text(json.dumps({"format": 1, "generator": {"kind": "l_shape"}}))
    return str(path)


def test_check_torus_passes(torus_doc, tmp_path, capsys):
    rc = main(["--out", str(tmp_path), "check", torus_doc, "--cell", "0.25"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "RESULT=PASS" in out
    assert "pi = " in out and "1j" in out.replace(" ", "") or "1.j" in out.replace(" ", "")


def test_check_reports_genus(lshape_doc, tmp_path, capsys):
    rc = main(["--out", str(tmp_path), "check", lshape_doc, "--cell", "0.5"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "genus=2" in out


@pytest.mark.filterwarnings("ignore:measuring periods of a non-closed")
def test_check_inject_fails(torus_doc, tmp_path, capsys):
    rc = main(["--out", str(tmp_path), "check", torus_doc, "--cell", "0.25",
               "--inject", "holomorphicity"])
    out = capsys.readouterr().out
    assert rc == 1
    assert "periods_holomorphicity" in out
    assert "FAIL" in out


def test_mesh_writes_levels(lshape_doc, tmp_path, capsys):
    out_dir = tmp_path / "levels"
    rc = main(["--out", str(out_dir), "mesh", lshape_doc, "--levels", "2",
               "--cell", "0.5"])
    out = capsys.readouterr().out
    assert rc == 0
    for l in (0, 1):
        path = out_dir / f"level{l}.json"
        assert path.exists()
        g = formats.read_graph(str(path))
        assert g.genus() == 2
    assert "level=1" in out


def test_mesh_roundtrip_preserves_periods(tmp_path):
    g = generate_torus(0.5 + 0.8j, 4)
    path = tmp_path / "g.json"
    formats.write_graph(str(path), g)
    g2 = formats.read_graph(str(path))
    pm = period_matrices(g2, homology_basis(g2))
    assert np.allclose(pm.pi, [[0.5 + 0.8j]], atol=1e-8)


def test_homology_command(lshape_doc, tmp_path, capsys):
    rc = main(["--out", str(tmp_path), "homology", lshape_doc, "--cell", "0.5"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "genus 2" in out
    assert "cocycle black 4" in out


def test_harmonic_command(torus_doc, tmp_path, capsys):
    dump = tmp_path / "eta.csv"
    rc = main(["--out", str(tmp_path), "harmonic", torus_doc, "--cell", "0.25",
               "--periods", "1,0,1,0", "--dump", str(dump)])
    out = capsys.readouterr().out
    assert rc == 0
    line = next(l for l in out.splitlines() if l.startswith("energy="))
    energy = float(line.removeprefix("energy="))
    assert abs(energy - 1.0) <= 1e-13
    omega = formats.read_differential(str(dump))
    assert omega.norm() > 0


def test_periods_command(torus_doc, tmp_path, capsys):
    rc = main(["--out", str(tmp_path), "periods", torus_doc, "--cell", "0.25"])
    out = capsys.readouterr().out
    assert rc == 0
    doc = json.loads((tmp_path / "periods.json").read_text())
    assert doc["genus"] == 1
    re, im = doc["pi"][0][0]
    assert abs(re) < 1e-9 and abs(im - 1) < 1e-9


def test_periods_dump_differentials(lshape_doc, tmp_path, capsys):
    # one CSV per equal-split canonical form, read back exactly
    dump = tmp_path / "forms"
    rc = main(["--out", str(tmp_path), "periods", lshape_doc, "--cell", "0.5",
               "--dump-differentials", str(dump)])
    assert rc == 0
    g = build_quad_graph(l_shape_surface(), 0.5)
    basis = homology_basis(g)
    cb = canonical_differentials(g, basis, assemble(g, basis))
    assert sorted(os.listdir(dump)) == ["canonical0.csv", "canonical1.csv"]
    for k, want in enumerate(cb.equal_split):
        got = formats.read_differential(str(dump / f"canonical{k}.csv"))
        assert np.array_equal(got.wb, want.wb) and np.array_equal(got.ww, want.ww)


def test_converge_lshape_fitted_slopes(lshape_doc, tmp_path, capsys):
    rc = main(["--out", str(tmp_path), "converge", lshape_doc, "--cell", "0.5",
               "--levels", "4"])
    out = capsys.readouterr().out
    fits = {line.split(":")[0].removeprefix("FIT "): line
            for line in out.splitlines() if line.startswith("FIT ")}
    assert sorted(fits) == ["diagonal_gap", "energy_error", "off_diagonal_gap", "pi_error"]
    # the diagonal blocks agree exactly on the orthodiagonal L-shape; the
    # other three errors get a least-squares slope of a decreasing error
    assert "exact" in fits["diagonal_gap"]
    for key in ("energy_error", "off_diagonal_gap", "pi_error"):
        assert 0 < float(fits[key].split("slope=")[1].split()[0]) < 5
    pi_fit = fits["pi_error"]
    # the verdict is the pi_error fit's: decreasing errors and a slope in band
    passed = "decreasing=True" in pi_fit and "in_band=True" in pi_fit
    assert out.splitlines()[-1].endswith(f"RESULT={'PASS' if passed else 'FAIL'}")
    assert rc == (0 if passed else 1)


def test_converge_torus_exact(torus_doc, tmp_path, capsys):
    rc = main(["--out", str(tmp_path), "converge", torus_doc, "--cell", "0.5",
               "--levels", "4", "--reference", "analytic"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "FIT pi_error: exact" in out
    csv = (tmp_path / "converge.csv").read_text().splitlines()
    assert csv[0].startswith("level,h,")
    assert len(csv) == 5


def test_integrate_torus(torus_doc, tmp_path, capsys):
    rc = main(["--out", str(tmp_path), "integrate", torus_doc, "--cell", "0.25",
               "--a-periods", "1,0"])
    out = capsys.readouterr().out
    assert rc == 0
    rows = (tmp_path / "integral.csv").read_text().splitlines()
    assert rows[0] == "vertex,x,y,re,im"
    assert len(rows) == 17  # 16 vertices + header


def test_integrate_zero_periods(torus_doc, tmp_path):
    rc = main(["--out", str(tmp_path), "integrate", torus_doc, "--cell", "0.25",
               "--a-periods", "0,0"])
    rows = (tmp_path / "integral.csv").read_text().splitlines()[1:]
    vals = [abs(complex(float(r.split(",")[3]), float(r.split(",")[4])))
            for r in rows]
    assert max(vals) == 0


def test_run_integrate_reproduces_positions():
    g = generate_torus(1j, 4)
    omega, vals = run_integrate(g, [1.0])
    dz = dec.chart_dz(g)
    assert np.max(np.abs(omega.wb - dz.wb)) < 1e-9


def test_determinism(torus_doc, tmp_path, capsys):
    rc1 = main(["--out", str(tmp_path / "a"), "--seed", "3", "check", torus_doc,
                "--cell", "0.25"])
    out1 = capsys.readouterr().out
    rc2 = main(["--out", str(tmp_path / "b"), "--seed", "3", "check", torus_doc,
                "--cell", "0.25"])
    out2 = capsys.readouterr().out
    assert rc1 == rc2 == 0
    assert out1 == out2


def test_csv_float_format(tmp_path):
    path = tmp_path / "t.csv"
    formats.write_csv(str(path), ["a"], [[1.0 / 3.0]])
    text = path.read_text().splitlines()[1]
    assert text == "0.33333333333333331"


def test_harmonic_complex_periods(torus_doc, tmp_path, capsys):
    # 8g floats are read as re,im pairs; equal unit black/white a-periods
    # reproduce the coordinate differential, of energy 2
    rc = main(["--out", str(tmp_path), "harmonic", torus_doc, "--cell", "0.25",
               "--periods", "1,0,0,1,1,0,0,1"])
    out = capsys.readouterr().out
    assert rc == 0
    energy = float(out.split("energy=")[1].split()[0])
    assert abs(energy - 2.0) < 1e-8


def test_converge_json_format(torus_doc, tmp_path):
    rc = main(["--out", str(tmp_path), "--format", "json-like", "converge",
               torus_doc, "--cell", "0.5", "--levels", "3",
               "--reference", "analytic"])
    assert rc == 0
    doc = json.loads((tmp_path / "converge.json").read_text())
    assert doc["reference"] == "analytic"
    assert len(doc["rows"]) == 3


def test_check_adapted_mesh(lshape_doc, tmp_path, capsys):
    """The full invariant battery also holds on a graded mesh with
    non-orthodiagonal patch quads."""
    from quadperiod.refine import generate_adapted
    from quadperiod.surface import l_shape_surface
    from quadperiod.cli import run_check
    g = generate_adapted(l_shape_surface(), 1 / 8)
    checks, passed, pm = run_check(g, 1e-10, seed=0)
    assert passed, [c for c in checks if not c[3]]
    # patch quads are not orthodiagonal, so the block-structure check
    # must not have run
    assert not any(name == "periods_orthodiagonal_blocks"
                   for name, *_ in checks)


def test_converge_few_levels_no_fit(lshape_doc, tmp_path, capsys):
    # three levels give two self-referenced error rows: fits are skipped
    rc = main(["--out", str(tmp_path), "converge", lshape_doc,
               "--cell", "0.25", "--levels", "3"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "fewer than 3 finite error rows" in out


@pytest.mark.parametrize("before, command, after", [
    ([], "check", ["--cell", "0.3"]),                   # SurfaceError
    (["--tol", "1e-300"], "periods", ["--cell", "0.25"]),  # HarmonicError
    ([], "integrate", ["--cell", "0.25", "--a-periods", "1,0;1,0"]),  # PeriodsError
    ([], "harmonic", ["--periods", "1,0,0"]),            # HarmonicError: 3 of 4 or 8
    ([], "check", ["--cell", "0"]),                     # SurfaceError: 1/k, k even >= 2
    ([], "check", ["--cell", "1e10"]),
    ([], "check", ["--cell", "-0.5"]),
    ([], "check", ["--cell", "nan"]),
])
def test_invalid_input_exits_2_with_one_line(torus_doc, tmp_path, capsys,
                                             before, command, after):
    rc = main(["--out", str(tmp_path)] + before + [command, torus_doc] + after)
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("quadperiod: error: ") and err.count("\n") == 1
    assert "Traceback" not in err


@pytest.mark.parametrize("command, option, value", [
    ("harmonic", "--periods", "1,x"),
    ("integrate", "--a-periods", "1"),
    ("converge", "--band", "0.2"),
])
def test_malformed_option_exits_2_with_one_line(torus_doc, tmp_path, capsys,
                                               command, option, value):
    with pytest.raises(SystemExit) as exit_:
        main(["--out", str(tmp_path), command, torus_doc, option, value])
    err = capsys.readouterr().err
    assert exit_.value.code == 2
    errors = [line for line in err.splitlines() if "error:" in line]
    assert len(errors) == 1 and f"argument {option}:" in errors[0]
    assert "Traceback" not in err


def _raw_torus_doc(**changes):
    doc = formats.graph_to_doc(generate_torus(1j, 4))
    doc.update(changes)
    return json.dumps(doc)


def _square_torus_doc(**changes):
    doc = {"format": 1, "polygons": [[[0, 0], [1, 0], [1, 1], [0, 1]]],
           "gluings": [[[0, 0], [0, 2]], [[0, 1], [0, 3]]]}
    doc.update(changes)
    return json.dumps(doc)


@pytest.mark.parametrize("text, message", [
    (None, "cannot read"),
    ("{\"format\": 1,", "not a JSON document"),
    (_raw_torus_doc(vertices=None), "needs 'vertices' and 'quads'"),
    (_raw_torus_doc(quads=[[0, 1, 5, 4, 0.0, 0.0, 0.25, 0.0]]), "4 integer vertex ids"),
    (_raw_torus_doc(vertices=[[i, "red"] for i in range(16)]), "'black' | 'white'"),
    (_raw_torus_doc(cones=[[1, 2.0]]), "cone row [1, 2.0] is not"),
    (_square_torus_doc(polygons=[[[0, 0], [1, "a"], [1, 1], [0, 1]]]),
     "polygon row [[0, 0], [1, 'a'], [1, 1], [0, 1]] is not a list of [x, y] numbers"),
    (_square_torus_doc(gluings=[[[0, 0]], [[0, 1], [0, 3]]]),
     "gluing row [[0, 0]] does not name two polygon sides"),
    (_square_torus_doc(gluings=[[[0, 0], [5, 2]], [[0, 1], [0, 3]]]),
     "gluing row [[0, 0], [5, 2]] does not name two polygon sides"),
    (_square_torus_doc(gluings=[[[0, 0], [0, 7]], [[0, 1], [0, 3]]]),
     "gluing row [[0, 0], [0, 7]] does not name two polygon sides"),
    (_square_torus_doc(gluings=5), "needs 'polygons' and 'gluings'"),
    (_square_torus_doc(polygons=[[[0, 0], [1, 0], [1, math.nan], [0, 1]]]),
     "polygon row [[0, 0], [1, 0], [1, nan], [0, 1]] has a non-finite coordinate"),
    (json.dumps({"format": 1, "generator": [1]}), "generator [1] is not a table"),
    (json.dumps({"format": 1, "generator": {"kind": "torus", "tau": "x"}}),
     "torus modulus 'x' is not a finite complex number"),
    (json.dumps({"format": 1, "generator": {"kind": "torus", "tau": [0.5, math.inf]}}),
     "torus modulus [0.5, inf] is not a finite complex number"),
    (json.dumps({"format": 1, "generator": {"kind": "square_tiled"}}),
     "needs 'polygons' and 'gluings'"),
    (json.dumps({"format": 1, "generator": {"kind": "square_tiled", "polygons": [
        [[0, 0], [1, 0], [1, 1], [0, 1]]]}}), "needs 'polygons' and 'gluings'"),
], ids=["missing-file", "invalid-json", "no-vertices", "short-quad-row", "unknown-color",
        "short-cone-row", "non-numeric-corner", "one-side-gluing", "unknown-polygon-gluing",
        "unknown-side-gluing", "gluings-not-a-table", "non-finite-corner",
        "generator-not-a-table", "malformed-tau", "non-finite-tau",
        "square-tiled-without-polygons", "square-tiled-without-gluings"])
def test_unreadable_document_exits_2_with_one_line(tmp_path, capsys, text, message):
    path = tmp_path / "surface.json"
    if text is not None:
        path.write_text(text)
    rc = main(["--out", str(tmp_path), "check", str(path)])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("quadperiod: error: ") and err.count("\n") == 1
    assert message in err


def test_converge_without_analytic_reference_exits_2(lshape_doc, tmp_path, capsys):
    rc = main(["--out", str(tmp_path), "converge", lshape_doc, "--reference", "analytic"])
    assert rc == 2
    assert capsys.readouterr().err == \
        "quadperiod: error: no analytic reference for this surface\n"
