"""Equivalence gate: pi and the four period-matrix blocks on a fixed
corpus of meshes, compared against values stored in golden_periods.json.

The tolerance is 1e-12 of each mesh's scale, the largest entry over pi
and the four blocks (block_bb and block_ww are roundoff on orthodiagonal
meshes, so a per-block scale would demand bit-equal roundoff).

Regenerate the stored values only at a commit whose period matrices are
trusted:

    PYTHONPATH=src python tests/test_golden.py
"""

import json
import os

import numpy as np
import pytest

from quadperiod import (
    PolyhedralSurface,
    build_quad_graph,
    generate_adapted,
    generate_torus,
    homology_basis,
    l_shape_surface,
    period_matrices,
    subdivide,
)
from quadperiod.formats import graph_from_doc, graph_to_doc

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "golden_periods.json")
RTOL = 1e-12
BLOCKS = ("pi", "block_bw", "block_bb", "block_ww", "block_wb")


def _block_torus():
    sq = np.array([[0, 0], [1, 0], [1, 1], [0, 1]], dtype=float)
    polys = [sq, sq + [1, 0], sq + [0, 1], sq + [1, 1]]
    gluings = [
        ((0, 1), (1, 3)), ((1, 1), (0, 3)),
        ((2, 1), (3, 3)), ((3, 1), (2, 3)),
        ((0, 2), (2, 0)), ((2, 2), (0, 0)),
        ((1, 2), (3, 0)), ((3, 2), (1, 0)),
    ]
    return build_quad_graph(PolyhedralSurface(polygons=polys, gluings=gluings), 0.5)


CORPUS = {
    "torus-i-4": lambda: generate_torus(1j, 4),
    "torus-skew-4": lambda: generate_torus(0.5 + 0.8j, 4),
    "lshape-2": lambda: build_quad_graph(l_shape_surface(), 1 / 2),
    "lshape-4": lambda: build_quad_graph(l_shape_surface(), 1 / 4),
    "lshape-8": lambda: build_quad_graph(l_shape_surface(), 1 / 8),
    "lshape-adapted-8": lambda: generate_adapted(l_shape_surface(), 1 / 8),
    "block-torus-2": _block_torus,
    "lshape-4-subdivided": lambda: subdivide(build_quad_graph(l_shape_surface(), 1 / 4)),
    # no reference loops survive the raw round trip, so this mesh takes the
    # tree-cotree basis and pins the spanning trees
    "lshape-4-raw": lambda: graph_from_doc(graph_to_doc(
        build_quad_graph(l_shape_surface(), 1 / 4))),
}


def _blocks(name):
    graph = CORPUS[name]()
    pm = period_matrices(graph, homology_basis(graph))
    return {key: np.asarray(getattr(pm, key)) for key in BLOCKS}


def _load_golden():
    with open(GOLDEN_PATH) as f:
        doc = json.load(f)
    return {name: {key: np.array(v)[..., 0] + 1j * np.array(v)[..., 1]
                   for key, v in blocks.items()}
            for name, blocks in doc.items()}


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_period_matrices_match_golden(name):
    want = _load_golden()[name]
    got = _blocks(name)
    scale = max(float(np.max(np.abs(M))) for M in want.values())
    for key in BLOCKS:
        assert got[key].shape == want[key].shape, key
        err = float(np.max(np.abs(got[key] - want[key])))
        assert err <= RTOL * scale, f"{key}: {err / scale:.3e} of the scale"


def main():
    doc = {}
    for name in sorted(CORPUS):
        doc[name] = {key: [[[float(z.real), float(z.imag)] for z in row]
                           for row in M] for key, M in _blocks(name).items()}
        print(name)
    with open(GOLDEN_PATH, "w") as f:
        json.dump(doc, f, indent=1)


if __name__ == "__main__":
    main()
