"""File formats: surface documents, raw quad-graph dumps, differential
dumps and report writers.  All structured documents are JSON with a
`format: 1` header; tabular output is comma-separated text with a header
row and 17-significant-digit floats."""

from __future__ import annotations

import json

import numpy as np

from .surface import ConePoint, QuadGraph, SurfaceError, load_surface


def fmt(x):
    return f"{x:.17g}"


def read_surface(path):
    with open(path) as f:
        doc = json.load(f)
    if "quads" in doc:
        return graph_from_doc(doc)
    return load_surface(doc)


def write_surface(path, doc):
    with open(path, "w") as f:
        json.dump(doc, f, indent=1)


def graph_to_doc(graph):
    """Raw quad-graph document: vertex table (id, color), quad table
    (4 vertex ids + 8 chart floats), edge table (4 edge ids per quad,
    which disambiguates parallel edges), cone table."""
    quads = []
    for q in range(graph.n_quads):
        row = [int(v) for v in graph.quads[q]]
        for z in graph.corners[q]:
            row.extend([float(z.real), float(z.imag)])
        quads.append(row)
    doc = {
        "format": 1,
        "vertices": [[i, "black" if c == 0 else "white"]
                     for i, c in enumerate(graph.color)],
        "quads": quads,
        "edges": [[int(graph.dart_edge[q, s]) for s in range(4)]
                  for q in range(graph.n_quads)],
        "cones": [[int(c.vertex), float(c.angle), float(c.radius)]
                  for c in graph.cones],
    }
    return doc


def graph_from_doc(doc):
    if doc.get("format") != 1:
        raise SurfaceError("missing or unsupported 'format' header (want 1)")
    V = len(doc["vertices"])
    colors = np.zeros(V, dtype=np.int8)
    for i, name in doc["vertices"]:
        if not 0 <= i < V:
            raise SurfaceError(f"vertex id {i} out of range [0, {V})")
        colors[i] = 0 if name == "black" else 1
    quads = []
    corners = []
    for row in doc["quads"]:
        quads.append(row[:4])
        z = row[4:]
        corners.append([complex(z[2 * t], z[2 * t + 1]) for t in range(4)])
    cones = [ConePoint(vertex=v, angle=a, radius=r)
             for v, a, r in doc.get("cones", [])]
    dart_keys = doc.get("edges")
    return QuadGraph(colors, quads, corners, cones=cones, dart_keys=dart_keys)


def write_graph(path, graph):
    write_surface(path, graph_to_doc(graph))


def read_graph(path):
    with open(path) as f:
        return graph_from_doc(json.load(f))


def write_differential(path, omega):
    with open(path, "w") as f:
        f.write("quad_id,re_wb,im_wb,re_ww,im_ww\n")
        for q in range(len(omega.wb)):
            f.write(",".join([str(q), fmt(omega.wb[q].real), fmt(omega.wb[q].imag),
                              fmt(omega.ww[q].real), fmt(omega.ww[q].imag)]) + "\n")


def read_differential(path):
    from .dec import Differential
    wb, ww = [], []
    with open(path) as f:
        next(f)
        for line in f:
            _, a, b, c, d = line.strip().split(",")
            wb.append(complex(float(a), float(b)))
            ww.append(complex(float(c), float(d)))
    return Differential(np.array(wb), np.array(ww))


def matrix_to_pairs(M):
    """Complex matrix as nested [Re, Im] pairs for the report documents."""
    M = np.atleast_2d(np.asarray(M, dtype=complex))
    return [[[float(z.real), float(z.imag)] for z in row] for row in M]


def write_csv(path, header, rows):
    with open(path, "w") as f:
        f.write(",".join(header) + "\n")
        for row in rows:
            f.write(",".join(fmt(x) if isinstance(x, float) else str(x)
                             for x in row) + "\n")
