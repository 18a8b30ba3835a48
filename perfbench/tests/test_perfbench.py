"""Tests of the benchmark itself.

    python3 -m pytest perfbench/tests
"""

import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import tracing  # noqa: E402
import workloads  # noqa: E402
from quadperiod import load_surface  # noqa: E402

# meshes small enough for a test; the pipelines are the workloads' own
SMALL = {
    "lshape-uniform-128": {"cell": 1 / 8},
    "torus-skew-256": {"cell": 1 / 8},
    "lshape-adapted-sweep": {"levels": 2, "base_cell": 1 / 4},
}


def _inputs(name, seed=0):
    doc, params = workloads.make_inputs(name, seed)
    return load_surface(doc), params


@pytest.fixture(scope="module")
def sweep_result():
    surface, params = _inputs("lshape-adapted-sweep")
    return workloads.run("lshape-adapted-sweep", surface, params)


def test_golden_run_passes(sweep_result):
    golden = workloads.load_golden()
    assert workloads.check("lshape-adapted-sweep", sweep_result, golden) == []


def _shift_last_level(key, rel):
    """Golden values with one entry of the last sweep level's `key`
    moved by `rel` times that level's scale."""
    golden = workloads.load_golden()
    level = golden["lshape-adapted-sweep"][-1]
    scale = workloads.level_scale(
        {k: workloads._from_pairs(level[k]) for k in workloads.BLOCKS})
    level[key][0][1][0] += rel * scale
    return golden


@pytest.mark.parametrize("key", workloads.BLOCKS)
def test_golden_perturbation_fails(sweep_result, key):
    golden = _shift_last_level(key, 1e-9)
    failures = workloads.check("lshape-adapted-sweep", sweep_result, golden)
    assert len(failures) == 1
    assert failures[0].startswith(f"level 3: {key} differs from golden")


def test_golden_tolerates_roundoff_in_roundoff_blocks(sweep_result):
    # block_bb holds only roundoff (|entries| ~ 1e-15 of the level scale);
    # a reordered solve may change it by far more than its own size
    golden = _shift_last_level("block_bb", 1e-13)
    assert workloads.check("lshape-adapted-sweep", sweep_result, golden) == []


def test_torus_checks_catch_wrong_reference():
    surface, params = _inputs("torus-skew-256")
    params.update(SMALL["torus-skew-256"])
    result = workloads.run("torus-skew-256", surface, params)
    assert workloads.check("torus-skew-256", result, {}) == []
    result["tau"] += 1e-9
    assert len(workloads.check("torus-skew-256", result, {})) == 2


def test_inputs_follow_the_seed():
    assert workloads.make_inputs("torus-skew-256", 3) == workloads.make_inputs("torus-skew-256", 3)
    assert workloads.make_inputs("torus-skew-256", 3) != workloads.make_inputs("torus-skew-256", 4)
    for seed in range(50):
        doc, _ = workloads.make_inputs("torus-skew-256", seed)
        tau = complex(*doc["generator"]["tau"])
        assert tau.real > 0 and abs(tau) < 1   # skew, and w12 != 0


def _traced(name, check=False):
    surface, params = _inputs(name)
    params.update(SMALL[name])
    with tracing.Tracer(name) as tracer:
        result = workloads.run(name, surface, params)
    if check:
        assert workloads.check(name, result, {}) == []
    return tracer


def test_trace_emits_every_layer_name():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        declared = [m["name"] for m in json.load(f)["per_layer"]]
    assert declared == tracing.layer_names()
    seen = {}
    for name in SMALL:
        metrics = _traced(name).layer_metrics()
        assert sorted(metrics) == sorted(set(declared) - {tracing.OVERHEAD})
        for key, value in metrics.items():
            seen[key] = seen.get(key, 0) or value
    # peak-RSS growth can be 0 on meshes this small; every span and count fires
    assert [k for k, v in seen.items() if not v and not k.endswith("_mb")] == []


def test_trace_counts_repeat_and_patches_are_undone():
    from quadperiod import cli, surface

    before = (cli.homology_basis, surface.QuadGraph.validate)
    first = _traced("lshape-uniform-128")
    second = _traced("lshape-uniform-128")
    assert (cli.homology_basis, surface.QuadGraph.validate) == before
    counts = [{k: t.layer_metrics()[k] for k in tracing.COUNTS if not k.endswith("_mb")}
              for t in (first, second)]
    assert counts[0] == counts[1]
    spans = first.spans
    assert all(s["run"] == "lshape-uniform-128" for s in spans)
    assert all(s["parent"] is None or s["parent"] < s["id"] for s in spans)
    own = first.self_times()
    assert all(v >= -1e-6 for v in own.values())


def test_tracer_errors_are_not_run_failures(monkeypatch):
    def broken(counts, span, out):
        raise RuntimeError("no size here")

    targets = [(m, a, layer, broken if a == "homology_basis" else hook)
               for m, a, layer, hook in tracing.TARGETS]
    targets.append(("quadperiod.harmonic", "EnergySystem.no_such_method",
                    "harmonic.factor", None))
    monkeypatch.setattr(tracing, "TARGETS", tuple(targets))
    monkeypatch.setattr(tracing, "MODULES", tracing.MODULES + ("quadperiod.no_such_module",))
    tracer = _traced("torus-skew-256", check=True)
    assert len(tracer.errors) == 3
    metrics = tracer.layer_metrics()
    assert metrics["homology.basis_s"] > 0 and metrics["homology.chain_length"] == 0
    assert metrics["harmonic.factor_fill"] > 0
