"""Homology-basis gate: the canonical basis of every mesh in the mesh
corpus (test_mesh_golden.CORPUS) against digests stored in
golden_homology.json.

The basis is integer data and must match exactly: sha256 digests of the
symplectic transform, the intersection matrix it reduces, the dense
period operators of both colours, and the chains (for each chain its
number of cycles, then per cycle its coefficient, its length, its
vertices and its edges).  The cocycles sigma are not pinned: any
representative of their cohomology classes with the same periods serves,
and their contracts are tested in test_homology.py.

Regenerate the stored values only at a commit whose bases are trusted:

    PYTHONPATH=src python tests/test_homology_golden.py
"""

import json
import os

import numpy as np
import pytest

from quadperiod import homology_basis
from test_mesh_golden import CORPUS, _digest

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "golden_homology.json")


def _chains(basis):
    flat = []
    for ch in basis.a_chains + basis.b_chains:
        flat.append(len(ch))
        for c, cyc in ch:
            flat += [c, len(cyc)] + list(cyc.verts) + list(cyc.eids)
    return flat


def _fingerprint(graph):
    basis = homology_basis(graph)
    return {
        "transform": _digest(basis.transform),
        "intersection_before": _digest(basis.intersection_before),
        "op_black": _digest(basis.op_black.toarray()),
        "op_white": _digest(basis.op_white.toarray()),
        "chains": _digest(_chains(basis)),
    }


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_homology_matches_golden(name):
    with open(GOLDEN_PATH) as f:
        want = json.load(f)[name]
    assert _fingerprint(CORPUS[name]()) == want


def main():
    doc = {}
    for name in sorted(CORPUS):
        doc[name] = _fingerprint(CORPUS[name]())
        print(name)
    with open(GOLDEN_PATH, "w") as f:
        json.dump(doc, f, indent=1)


if __name__ == "__main__":
    main()
