"""File formats: surface documents, raw quad-graph dumps, differential
dumps and report writers.  All structured documents are JSON with a
`format: 1` header; tabular output is comma-separated text with a header
row and 17-significant-digit floats."""

from __future__ import annotations

import json

import numpy as np

from .surface import ConePoint, QuadGraph, SurfaceError, load_surface


COLOR_NAMES = ("black", "white")   # indexed by BLACK, WHITE


def fmt(x):
    return f"{x:.17g}"


def _read_json(path):
    try:
        with open(path) as f:
            return json.load(f)
    except OSError as exc:
        raise SurfaceError(f"cannot read {path}: {exc.strerror or exc}") from None
    except ValueError as exc:   # also undecodable bytes
        raise SurfaceError(f"{path} is not a JSON document: {exc}") from None


def read_surface(path):
    """Surface or raw quad-graph from a JSON document; SurfaceError if the
    file cannot be read or does not hold one."""
    doc = _read_json(path)
    if isinstance(doc, dict) and "quads" in doc:
        return graph_from_doc(doc)
    return load_surface(doc)


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
        "vertices": [[i, COLOR_NAMES[c]] for i, c in enumerate(graph.color)],
        "quads": quads,
        "edges": graph.dart_edge.tolist(),
        "cones": [[int(c.vertex), float(c.angle), float(c.radius)]
                  for c in graph.cones],
    }
    return doc


def graph_from_doc(doc):
    if not isinstance(doc, dict) or doc.get("format") != 1:
        raise SurfaceError("missing or unsupported 'format' header (want 1)")
    if not isinstance(doc.get("vertices"), list) or not isinstance(doc.get("quads"), list):
        raise SurfaceError("raw quad-graph document needs 'vertices' and 'quads' tables")
    V = len(doc["vertices"])
    colors = np.zeros(V, dtype=np.int8)
    for row in doc["vertices"]:
        if not isinstance(row, list) or len(row) != 2 or row[1] not in COLOR_NAMES:
            raise SurfaceError(f"vertex row {row!r} is not [id, 'black' | 'white']")
        i, name = row
        if not isinstance(i, int) or not 0 <= i < V:
            raise SurfaceError(f"vertex id {i} out of range [0, {V})")
        colors[i] = COLOR_NAMES.index(name)
    try:
        table = np.array(doc["quads"], dtype=float)
    except (TypeError, ValueError):
        table = None
    if table is None or table.shape[1:] != (12,) or np.any(table[:, :4] % 1 != 0):
        raise SurfaceError("each quad row must hold 4 integer vertex ids and 8 chart floats")
    if np.any((table[:, :4] < 0) | (table[:, :4] >= V)):   # before the cast can overflow
        raise SurfaceError(f"quad vertex id out of range [0, {V})")
    quads = table[:, :4].astype(np.int64)
    corners = np.ascontiguousarray(table[:, 4:]).view(complex)
    cones = doc.get("cones", [])
    for row in cones if isinstance(cones, list) else [cones]:
        if not (isinstance(row, list) and len(row) == 3 and isinstance(row[0], int)
                and all(isinstance(x, (int, float)) and x > 0 for x in row[1:])):
            raise SurfaceError(f"cone row {row!r} is not [vertex id, angle > 0, radius > 0]")
    return QuadGraph(colors, quads, corners, cones=[ConePoint(*row) for row in cones],
                     dart_keys=doc.get("edges"))


def write_graph(path, graph):
    with open(path, "w") as f:
        json.dump(graph_to_doc(graph), f, indent=1)


def read_graph(path):
    return graph_from_doc(_read_json(path))


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
