import json
import math
import os

import numpy as np
import pytest

from quadperiod import dec, formats
from quadperiod.cli import main, run_check, run_converge, run_integrate
from quadperiod.harmonic import assemble
from quadperiod.homology import homology_basis
from quadperiod.periods import (PeriodMatrices, canonical_differentials, judged_diagnostics,
                                period_matrices)
from quadperiod.surface import build_quad_graph, generate_torus, l_shape_surface, mesh_stats


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


# the CHECK line of every judged diagnostic, and the sign its value and
# bound carry there (a CHECK line reads measured <= bound)
CHECK_LINES = {"full_symmetry": ("periods_full_symmetry", 1),
               "pi_symmetry": ("periods_pi_symmetry", 1),
               "full_im_min_eig": ("periods_im_positive_full", -1),
               "pi_im_min_eig": ("periods_im_positive_pi", -1),
               "block_average_gap": ("periods_block_average", 1),
               "psd_gap": ("periods_psd_diagnostic", -1),
               "aperiod_error": ("periods_aperiod_error", 1),
               "orthodiagonal_structure": ("periods_orthodiagonal_blocks", 1)}


def test_check_and_periods_report_the_same_bounds(tmp_path, capsys):
    """Both commands judge the shared diagnostics from one table, so every
    row's bound and verdict agree for one mesh and tol: on the L-shape
    |pi| > 1 scales the block-average bound, --tol 1e-9 sets the
    a-period bound, and only the orthodiagonal L-shape, not the skew
    torus, judges the block structure."""
    for generator, cell, orthodiagonal in (({"kind": "l_shape"}, "0.5", True),
                                           ({"kind": "torus", "tau": [0.5, 0.8]}, "0.25", False)):
        doc = tmp_path / f"{generator['kind']}.json"
        doc.write_text(json.dumps({"format": 1, "generator": generator}))
        args = ["--out", str(tmp_path), "--tol", "1e-9"]
        assert main(args + ["check", str(doc), "--cell", cell]) == 0
        printed = {}
        for line in capsys.readouterr().out.splitlines():
            if line.startswith("CHECK "):
                name, _, bound, verdict = line.split()[1:]
                printed[name] = (bound.removeprefix("bound="), verdict == "PASS")
        assert main(args + ["periods", str(doc), "--cell", cell]) == 0
        diagnostics = json.loads((tmp_path / "periods.json").read_text())["diagnostics"]
        judged = {key for key, entry in diagnostics.items() if "bound" in entry}
        assert judged == set(CHECK_LINES) - (set() if orthodiagonal
                                             else {"orthodiagonal_structure"})
        assert ("periods_orthodiagonal_blocks" in printed) == orthodiagonal
        for key in judged:
            name, sign = CHECK_LINES[key]
            entry = diagnostics[key]
            assert printed[name] == (f"{0.0 + sign * entry['bound']:.3e}", entry["passed"]), key
        assert diagnostics["aperiod_error"]["bound"] == pytest.approx(100 * 1e-9)
        if generator["kind"] == "l_shape":
            assert diagnostics["block_average_gap"]["bound"] > 1e-8


def test_singular_im_pi_fails_both_positivity_rows(torus_i_4, monkeypatch, tmp_path, capsys):
    """An Im eigenvalue of exactly 0 is not positive: both positivity rows
    fail in the shared table, and the periods command reports them."""
    import quadperiod.cli
    blocks = {key: np.array([[0.5 + 0j]]) for key in ("block_bw", "block_bb",
                                                    "block_ww", "block_wb")}
    pm = PeriodMatrices(pi=np.array([[1.0 + 0j]]), **blocks)
    assert np.linalg.eigvalsh(pm.combined.imag).min() == 0
    pm.diagnostics = {"full_symmetry": 0.0, "pi_symmetry": 0.0, "full_im_min_eig": 0.0,
                      "pi_im_min_eig": 0.0, "block_average_gap": 0.0, "psd_gap": 0.0,
                      "orthodiagonal_structure": 0.0, "aperiod_error": 0.0, "condition": 1.0}
    rows = judged_diagnostics(torus_i_4, pm, 1e-10)
    assert [key for key, row in rows.items() if not row[2]] == ["full_im_min_eig",
                                                                 "pi_im_min_eig"]
    monkeypatch.setattr(quadperiod.cli, "period_matrices", lambda *args: pm)
    doc = tmp_path / "torus.json"
    doc.write_text(json.dumps({"format": 1, "generator": {"kind": "torus", "tau": [0, 1]}}))
    assert main(["--out", str(tmp_path), "periods", str(doc), "--cell", "0.25"]) == 1
    diagnostics = json.loads((tmp_path / "periods.json").read_text())["diagnostics"]
    assert [key for key, entry in diagnostics.items() if not entry.get("passed", True)] == [
        "full_im_min_eig", "pi_im_min_eig"]
    assert capsys.readouterr().out.splitlines()[-1].endswith("RESULT=FAIL")


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


def test_converge_band_option(lshape_doc, tmp_path, capsys):
    """A valid --band sets every fitted slope's band around the predicted
    exponent, and in_band follows the printed slope."""
    from quadperiod.cli import predicted_exponent
    rc = main(["--out", str(tmp_path), "converge", lshape_doc, "--cell", "0.5",
               "--levels", "4", "--band", "5,5"])
    out = capsys.readouterr().out
    pred, _ = predicted_exponent(mesh_stats(build_quad_graph(l_shape_surface(), 0.5)).gamma_min,
                                 False)
    fits = {line.split(":")[0].removeprefix("FIT "): line
            for line in out.splitlines() if "slope=" in line}
    assert sorted(fits) == ["energy_error", "off_diagonal_gap", "pi_error"]
    for line in fits.values():
        slope = float(line.split("slope=")[1].split()[0])
        assert f"band={[pred - 5, pred + 5]}" in line
        assert f"in_band={pred - 5 <= slope <= pred + 5}" in line
    assert "in_band=True" in fits["pi_error"]
    assert rc == (0 if "decreasing=True" in fits["pi_error"] else 1)


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


def test_converge_takes_the_global_seed(lshape_doc, tmp_path):
    """--seed draws the period vector of the energy rows: --seed 0 is the
    default, and another seed changes energy_error."""
    def converge_csv(seed=None):
        out = tmp_path / f"seed{seed}"
        opts = [] if seed is None else ["--seed", str(seed)]
        assert main(["--out", str(out), *opts, "converge", lshape_doc, "--levels", "3"]) == 0
        return (out / "converge.csv").read_text()
    default = converge_csv()
    assert converge_csv(0) == default
    energy = [[row.split(",")[7] for row in csv.splitlines()]
              for csv in (default, converge_csv(3))]
    assert energy[0][0] == "energy_error"
    assert energy[1][1] != energy[0][1]


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


@pytest.mark.parametrize("command", ["mesh", "converge"])
@pytest.mark.parametrize("cell", ["0", "nan", "inf", "-0.25", "0.3"])
def test_adapted_bad_cell_size_exits_2_with_one_line(lshape_doc, tmp_path, capsys,
                                                     command, cell):
    rc = main(["--out", str(tmp_path), command, lshape_doc, "--adapted", "--cell", cell])
    err = capsys.readouterr().err
    assert rc == 2
    assert err == f"quadperiod: error: cell size {float(cell)} is not 1/k for an even k >= 2\n"


@pytest.mark.parametrize("command, options", [
    ("check", ["--cell", "1e-300"]),
    ("check", ["--cell", "1e-320"]),    # 1 / cell is inf
    ("check", ["--cell", "1e-10"]),
    ("mesh", ["--adapted", "--cell", repr(2.0 ** -1000)]),
])
def test_tiny_cell_size_exits_2_with_one_line(lshape_doc, tmp_path, capsys, command, options):
    """Cells whose 2k lattice codes overflow int64 are refused before any
    array is allocated."""
    rc = main(["--out", str(tmp_path), command, lshape_doc] + options)
    err = capsys.readouterr().err
    assert rc == 2
    assert err == (f"quadperiod: error: cell size {float(options[-1])} is too small: "
                   "its lattice codes overflow int64\n")


def test_cell_too_fine_to_allocate_exits_2_with_one_line(lshape_doc, tmp_path, capsys):
    """Cell size 2**-28 passes the int64 code check, but the (3, k, k)
    cell mask of its k = 2**28 needs 192 PiB, more than the user address
    space of any 64-bit kernel: numpy refuses the allocation without
    touching memory, and the MemoryError is one error line."""
    rc = main(["--out", str(tmp_path), "mesh", lshape_doc, "--cell", repr(2.0 ** -28)])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("quadperiod: error: ") and err.count("\n") == 1
    assert "192. PiB" in err


@pytest.mark.parametrize("command, option, value", [
    ("harmonic", "--periods", "1,x"),
    ("integrate", "--a-periods", "1"),
    ("converge", "--band", "0.2"),
    ("mesh", "--phi-floor", "nan"),      # nan would switch the angle floor off
    ("harmonic", "--periods", "nan,0,0,0"),   # nan would pass the residual gate
    ("integrate", "--a-periods", "nan,0;1,0"),
    ("converge", "--band", "0.2,inf"),
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
    if value == "nan,0;1,0":
        assert errors[0].endswith("separated by ';': pair 1 of 'nan,0;1,0' is 'nan,0'")


@pytest.mark.parametrize("option, value", [
    ("--tol", "nan"), ("--tol", "inf"), ("--tol", "0"), ("--tol", "-1"), ("--seed", "-1"),
])
def test_global_option_out_of_range_exits_2_with_one_line(torus_doc, tmp_path, capsys,
                                                         option, value):
    """A tolerance that switches the residual gate off (nan, inf) or that
    no solve can meet (0, -1), and a seed numpy cannot take, are usage
    errors, raised before anything runs."""
    with pytest.raises(SystemExit) as exit_:
        main(["--out", str(tmp_path), option, value, "check", torus_doc])
    err = capsys.readouterr().err
    assert exit_.value.code == 2
    errors = [line for line in err.splitlines() if "error:" in line]
    assert len(errors) == 1 and f"argument {option}:" in errors[0]
    assert "Traceback" not in err


@pytest.mark.parametrize("out, command, options", [
    ("{file}", "periods", []),                                        # FileExistsError
    (".", "harmonic", ["--periods", "1,0,1,0", "--dump", "{missing}/x.csv"]),  # FileNotFoundError
    (".", "periods", ["--dump-differentials", "{file}/sub"]),        # NotADirectoryError
], ids=["out-is-a-file", "dump-in-missing-dir", "dump-dir-under-a-file"])
def test_unwritable_output_exits_2_with_one_line(torus_doc, tmp_path, capsys, monkeypatch,
                                                 out, command, options):
    """An output path that cannot be written is invalid input, not a
    failed check."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "file").write_text("")
    paths = {"file": tmp_path / "file", "missing": tmp_path / "missing"}
    argv = ["--out", out.format(**paths), command, torus_doc, "--cell", "0.5"]
    rc = main(argv + [option.format(**paths) for option in options])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("quadperiod: error: ") and err.count("\n") == 1


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
    # held to the polygon coordinates' bound: no overflow in the energy
    # matrix, no false length mismatch
    (json.dumps({"format": 1, "generator": {"kind": "torus", "tau": [0, 1e200]}}),
     "torus modulus [0, 1e+200] has a part of magnitude above 1e150"),
    (json.dumps({"format": 1, "generator": {"kind": "torus", "tau": [1e300, 1]}}),
     "torus modulus [1e+300, 1] has a part of magnitude above 1e150"),
    (json.dumps({"format": 1, "generator": {"kind": "square_tiled"}}),
     "needs 'polygons' and 'gluings'"),
    (json.dumps({"format": 1, "generator": {"kind": "square_tiled", "polygons": [
        [[0, 0], [1, 0], [1, 1], [0, 1]]]}}), "needs 'polygons' and 'gluings'"),
    # too large for an int64 vertex id: rejected before the cast can warn
    (_raw_torus_doc(quads=[[1e300, 1, 5, 4] + [0.0] * 8]), "quad vertex id out of range"),
    (json.dumps({"quads": []}), "missing or unsupported 'format' header"),
    # rejected before any square, norm or cross product can overflow
    (_square_torus_doc(polygons=[[[0, 0], [1e300, 0], [1, 1], [0, 1]]]),
     "polygon row [[0, 0], [1e+300, 0], [1, 1], [0, 1]] has a coordinate of magnitude "
     "above 1e150"),
    (_square_torus_doc(polygons=[[[0, 0], [1e160, 0], [1e160, 1], [0, 1]]]),
     "polygon row [[0, 0], [1e+160, 0], [1e+160, 1], [0, 1]] has a coordinate of magnitude "
     "above 1e150"),
], ids=["missing-file", "invalid-json", "no-vertices", "short-quad-row", "unknown-color",
        "short-cone-row", "non-numeric-corner", "one-side-gluing", "unknown-polygon-gluing",
        "unknown-side-gluing", "gluings-not-a-table", "non-finite-corner",
        "generator-not-a-table", "malformed-tau", "non-finite-tau", "huge-tau-imag",
        "huge-tau-real", "square-tiled-without-polygons", "square-tiled-without-gluings",
        "huge-vertex-id", "raw-without-format", "huge-corner", "huge-rectangle-torus"])
def test_unreadable_document_exits_2_with_one_line(tmp_path, capsys, text, message):
    path = tmp_path / "surface.json"
    if text is not None:
        path.write_text(text)
    rc = main(["--out", str(tmp_path), "check", str(path)])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("quadperiod: error: ") and err.count("\n") == 1
    assert message in err


def _edited_raw_torus_doc(edit):
    doc = formats.graph_to_doc(generate_torus(1j, 4))
    edit(doc)
    return json.dumps(doc)


def _coincident_corners(doc):
    doc["quads"][0][8:10] = doc["quads"][0][4:6]   # corner 2 onto corner 0


_UNIT_SQUARE = [[0, 0], [1, 0], [1, 1], [0, 1]]
_HEXAGON = [[math.cos(k * math.pi / 3), math.sin(k * math.pi / 3)] for k in range(6)]


@pytest.mark.parametrize("command, text, options, message", [
    ("check", _square_torus_doc(polygons=[[[0, 0], [1, 0]]], gluings=[[[0, 0], [0, 1]]]),
     [], "polygon 0 has fewer than 3 vertices"),
    ("check", _square_torus_doc(polygons=[[[0, 0], [0, 1], [1, 1], [1, 0]]]),
     [], "polygon 0 not counterclockwise"),
    ("check", _square_torus_doc(gluings=[[[0, 0], [0, 3]], [[0, 1], [0, 2]]]),
     [], "genus 0 surfaces are not admitted"),
    ("mesh", _square_torus_doc(polygons=[_HEXAGON],
                               gluings=[[[0, 0], [0, 3]], [[0, 1], [0, 4]], [[0, 2], [0, 5]]]),
     [], "polygon 0 is not a quadrilateral"),
    # the L-shape with the corners of polygon 1 listed from its second corner
    ("mesh", _square_torus_doc(
        polygons=[_UNIT_SQUARE, [[2, 0], [2, 1], [1, 1], [1, 0]],
                  [[0, 1], [1, 1], [1, 2], [0, 2]]],
        gluings=[[[0, 0], [2, 2]], [[1, 3], [1, 1]], [[0, 3], [1, 0]], [[2, 3], [2, 1]],
                 [[0, 2], [2, 0]], [[0, 1], [1, 2]]]),
     [], "polygon 1 is not a translate of polygon 0"),
    # genus 1, with the bottom of square 0 glued to its right side
    ("mesh", _square_torus_doc(
        polygons=[_UNIT_SQUARE, [[1, 0], [2, 0], [2, 1], [1, 1]]],
        gluings=[[[0, 0], [0, 1]], [[0, 2], [1, 0]], [[0, 3], [1, 2]], [[1, 1], [1, 3]]]),
     [], "gluing (0,0)~(0,1) is not a translation"),
    ("check", json.dumps({"format": 1, "generator": {"kind": "sphere"}}),
     [], "unknown generator kind 'sphere'"),
    ("homology", _edited_raw_torus_doc(_coincident_corners), [], "degenerate black diagonal"),
    ("homology", _raw_torus_doc(cones=[[16, 2 * math.pi, 0.1]]),
     [], "cone vertex id out of range"),
    ("homology", _raw_torus_doc(cones=[[0, 4 * math.pi, 0.1]]),
     [], "cone angles inconsistent with Euler genus"),
    ("homology", _edited_raw_torus_doc(lambda doc: doc["edges"][0].pop()),
     [], "edge table must list 4 integer edge keys per quad"),
    ("homology", _edited_raw_torus_doc(lambda doc: doc["quads"][0].pop()),
     [], "each quad row must hold 4 integer vertex ids and 8 chart floats"),
    ("mesh", json.dumps({"format": 1, "generator": {"kind": "l_shape"}}),
     ["--levels", "1"], "a sweep needs at least 2 levels"),
    ("converge", _raw_torus_doc(), ["--adapted"], "adapted sweeps need the glued surface"),
    ("mesh", json.dumps({"format": 1, "generator": {"kind": "l_shape"}}),
     ["--phi-floor", "x"], "argument --phi-floor: need a finite real, got 'x'"),
], ids=["two-vertex-polygon", "clockwise-polygon", "genus-0", "hexagon-mesh",
        "non-translate-polygon", "rotation-gluing", "unknown-generator", "coincident-corners",
        "cone-id-out-of-range", "cone-angle-against-genus", "short-edges-row",
        "ragged-quad-row", "one-level", "adapted-graph-document", "phi-floor-not-a-number"])
def test_typed_error_exits_2_with_one_line(tmp_path, capsys, command, text, options, message):
    """Each input error is one error line and exit code 2, from main()
    ('quadperiod: error:') or from argparse ('quadperiod mesh: error:')."""
    path = tmp_path / "surface.json"
    path.write_text(text)
    try:
        rc = main(["--out", str(tmp_path), command, str(path)] + options)
    except SystemExit as exit_:
        rc = exit_.code
    err = capsys.readouterr().err
    errors = [line for line in err.splitlines() if "error:" in line]
    assert rc == 2
    assert len(errors) == 1 and errors[0].startswith("quadperiod") and message in errors[0]
    assert "Traceback" not in err


def test_singular_energy_factor_exits_2_with_one_line(tmp_path, capsys):
    """A valid 1e8 x 1 rectangle torus: at cell 1/2 its energy matrix is
    singular to working precision, and SuperLU's error becomes a typed
    one-line error."""
    path = tmp_path / "surface.json"
    path.write_text(_square_torus_doc(polygons=[[[0, 0], [1e8, 0], [1e8, 1], [0, 1]]]))
    rc = main(["--out", str(tmp_path), "check", str(path)])
    err = capsys.readouterr().err
    assert rc == 2
    assert err == "quadperiod: error: energy matrix is numerically singular " \
                  "(Factor is exactly singular)\n"


def test_check_passes_its_tol_to_the_canonical_stage(torus_i_4, monkeypatch):
    import quadperiod.cli
    seen = []

    def spy(graph, basis, system=None, tol=1e-10):
        seen.append(tol)
        return canonical_differentials(graph, basis, system, tol)

    monkeypatch.setattr(quadperiod.cli, "canonical_differentials", spy)
    run_check(torus_i_4, 1e-9)
    assert seen == [1e-9]


def test_converge_without_analytic_reference_exits_2(lshape_doc, tmp_path, capsys):
    rc = main(["--out", str(tmp_path), "converge", lshape_doc, "--reference", "analytic"])
    assert rc == 2
    assert capsys.readouterr().err == \
        "quadperiod: error: no analytic reference for this surface\n"
