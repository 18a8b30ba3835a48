"""Mesh-equivalence gate: the combinatorics of every mesh in the
period-matrix corpus (plus L-shape 1/64, a 16x16 skew torus, a
subdivided 2x2 torus, the adapted L-shape at 1/16 and an adapted
two-cone origami) against fingerprints stored in golden_meshes.json.

Integer data must match exactly: sha256 digests of the vertex colors, the
quad table, the dart-to-edge table, the edge endpoints, the rotation
system (vertex degrees, then the edges and the quads around every vertex)
and meta["vertex_codes"], the vertex identity of the meshes that keep
lattice codes.  One more digest does not depend on how vertices
are numbered: colors and quads after renumbering the vertices by first
appearance in the quad table, and the dart-to-edge table.  Chart corners
are stored in full and compared to within 1e-15.

Regenerate the stored values only at a commit whose meshes are trusted:

    PYTHONPATH=src python tests/test_mesh_golden.py
"""

import base64
import hashlib
import json
import os
import zlib

import numpy as np
import pytest

from quadperiod import (
    PolyhedralSurface,
    build_quad_graph,
    generate_adapted,
    generate_torus,
    homology_basis,
    l_shape_surface,
    subdivide,
)
from quadperiod import harmonic
from test_golden import CORPUS as PERIOD_CORPUS

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "golden_meshes.json")
CORNER_TOL = 1e-15


def _origami(right, top):
    """Unit squares in a row, the right side of square i glued to the left
    side of right[i] and its top to the bottom of top[i]."""
    sq = np.array([[0, 0], [1, 0], [1, 1], [0, 1]], dtype=float)
    gluings = [pair for i in range(len(right))
               for pair in (((i, 1), (right[i], 3)), ((i, 2), (top[i], 0)))]
    return PolyhedralSurface(polygons=[sq + [i, 0] for i in range(len(right))],
                             gluings=gluings)


def _two_cone_origami():
    """Four squares glued by (0 1 3 2) and (2 3 0 1): genus 2, two cones
    of angle 4*pi."""
    return _origami((0, 1, 3, 2), (2, 3, 0, 1))


CORPUS = dict(PERIOD_CORPUS)
CORPUS["lshape-64"] = lambda: build_quad_graph(l_shape_surface(), 1 / 64)
CORPUS["torus-skew-16"] = lambda: generate_torus(0.5 + 0.8j, 16)
CORPUS["torus-i-2-subdivided"] = lambda: subdivide(generate_torus(1j, 2))
# two coarsening rings
CORPUS["lshape-adapted-16"] = lambda: generate_adapted(l_shape_surface(), 1 / 16)
# two cone patches: pins the order in which they are interned
CORPUS["origami-two-cones-adapted-8"] = lambda: generate_adapted(_two_cone_origami(), 1 / 8)
# three squares, genus 2, one 6*pi cone: the three reference loops span
# rank 2 of 4, so the basis extends them by tree-cotree cycles
CORPUS["origami-one-cone-4"] = lambda: build_quad_graph(_origami((1, 0, 2), (2, 0, 1)), 1 / 4)


def _digest(values):
    a = np.ascontiguousarray(values, dtype=np.int64)
    return hashlib.sha256(repr(a.shape).encode() + a.tobytes()).hexdigest()


def _relabeled(graph):
    """Colors, quads and dart edges with the vertices numbered by first
    appearance in the quad table."""
    _, first = np.unique(graph.quads, return_index=True)
    old = np.argsort(first)
    new = np.empty_like(old)
    new[old] = np.arange(len(old))
    return np.concatenate([graph.color[old], new[graph.quads].ravel(),
                           graph.dart_edge.ravel()])


def _fingerprint(graph):
    rot, quad_after = graph.rotation()
    V = graph.n_vertices
    deg = [len(rot[v]) for v in range(V)]
    fp = {
        "color": _digest(graph.color),
        "quads": _digest(graph.quads),
        "dart_edge": _digest(graph.dart_edge),
        "edge_list": _digest(np.reshape(graph.edge_list, (-1, 2))),
        "rot": _digest(np.concatenate([deg] + [rot[v] for v in range(V)])),
        "quad_after": _digest(np.concatenate([deg] + [quad_after[v] for v in range(V)])),
        "relabeled": _digest(_relabeled(graph)),
    }
    if "vertex_codes" in graph.meta:
        fp["vertex_codes"] = _digest(graph.meta["vertex_codes"])
    return fp


def _pack(corners):
    raw = np.ascontiguousarray(corners, dtype=complex).tobytes()
    return base64.b64encode(zlib.compress(raw, 9)).decode()


def _unpack(text, shape):
    raw = zlib.decompress(base64.b64decode(text))
    return np.frombuffer(raw, dtype=complex).reshape(shape)


def _load_golden():
    with open(GOLDEN_PATH) as f:
        return json.load(f)


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_mesh_matches_golden(name):
    want = _load_golden()[name]
    graph = CORPUS[name]()
    got = _fingerprint(graph)
    for key, digest in got.items():
        assert digest == want[key], key
    corners = _unpack(want["corners"], graph.corners.shape)
    assert float(np.max(np.abs(graph.corners - corners))) <= CORNER_TOL


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_rotation_rebuilt_after_homology_basis(name):
    """homology_basis drops the rotation system from the graph's cache;
    rotation() then builds the stored one again, quads included."""
    want = _load_golden()[name]
    graph = CORPUS[name]()
    homology_basis(graph)
    assert "rotation" not in graph._cache
    got = _fingerprint(graph)
    assert (got["rot"], got["quad_after"]) == (want["rot"], want["quad_after"])


def _same_bits(got, want):
    return got.dtype == want.dtype and got.shape == want.shape and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_derived_arrays_are_made_on_access(name):
    """A graph holds no array that its charts or edges determine, and an
    energy system holds no weights.  Each is made on access, bit for bit
    the expression it was once stored as; edge_list against the ends of
    every edge's darts, read through dart_edge."""
    graph = CORPUS[name]()
    derived = {"black_diag", "white_diag", "area", "diagonal_ratio", "edge_list"}
    assert not derived & set(vars(graph))
    c = graph.corners
    b, w = c[:, 2] - c[:, 0], c[:, 3] - c[:, 1]
    area = 0.5 * np.imag(np.conj(b) * w)
    for key, want in (("black_diag", b), ("white_diag", w), ("area", area),
                      ("diagonal_ratio", -1j * w / b)):
        assert _same_bits(getattr(graph, key), want), key
    tail, head = graph.quads.ravel(), graph.quads[:, [1, 2, 3, 0]].ravel()
    ends = np.empty((graph.n_edges(), 2), dtype=np.int64)
    ends[graph.dart_edge.ravel()] = np.stack([np.minimum(tail, head),
                                              np.maximum(tail, head)], axis=1)
    assert _same_bits(graph.edge_list, ends)
    system = harmonic.assemble(graph, homology_basis(graph))
    assert not {"w11", "w12", "w22"} & set(vars(system))
    det = 2.0 * area
    want = (np.abs(w) ** 2 / (2.0 * det), -(b.real * w.real + b.imag * w.imag) / (2.0 * det),
            np.abs(b) ** 2 / (2.0 * det))
    for key, got, ref in zip(("w11", "w12", "w22"), harmonic._weights(graph), want):
        assert _same_bits(got, ref), key


def main():
    doc = {}
    for name in sorted(CORPUS):
        graph = CORPUS[name]()
        doc[name] = _fingerprint(graph) | {"corners": _pack(graph.corners)}
        print(name)
    with open(GOLDEN_PATH, "w") as f:
        json.dump(doc, f, indent=1)


if __name__ == "__main__":
    main()
