"""The lattice mesher against its earlier, slower formulation.

The lattice-mesh assembly behind `build_quad_graph` and
`generate_adapted` reads the codes of the lattice once and lists the
vertices by their first corner; the reference below computes the codes
of every quad corner and edge midpoint with `_lattice_codes`, numbers the
vertices by a `np.unique` pass over the corner table and then turns the
rows that start at a white vertex.  Both must give the same arrays, bit
for bit, on random origamis, skew tori and (for the cell masks the
adapted meshes use) random subsets of the cells.

The grouping helper behind the edge numbering is checked against
`np.unique` on wide-range int64 keys.
"""

from unittest import mock

import numpy as np
from hypothesis import given, settings, strategies

from quadperiod import surface as S
from quadperiod.surface import PolyhedralSurface, build_quad_graph, torus_surface

SQUARE = np.array([[0, 0], [1, 0], [1, 1], [0, 1]], dtype=float)


def reference_first_appearance(codes):
    """Distinct codes in order of first appearance, and the index of each
    entry's code in that order, from np.unique."""
    uniq, first, inv = np.unique(codes, return_index=True, return_inverse=True)
    order = np.argsort(first)
    rank = np.empty(len(uniq), dtype=np.int64)
    rank[order] = np.arange(len(uniq))
    return uniq[order], rank[inv].reshape(np.shape(codes))


def reference_rotate_to_black(first_color, *tables):
    """Rotate the (F, 4) tables one step left on the rows whose first
    vertex is white, so every quad starts at a black vertex."""
    cols = (np.arange(4) + (first_color != S.BLACK)[:, None]) % 4
    return [np.take_along_axis(t, cols, axis=1) for t in tables]


def reference_grid_cells(surface, k, keep, frame):
    """Cells (p, i, j) of the k x k grids where keep is true, in row-major
    order: their indices as (n, 1) columns, the lattice codes of their
    corners ccw from (i, j) and of the midpoints of the sides leaving
    them, and their charts."""
    p, i, j = np.argwhere(keep).T[..., None]
    ex, ey = frame
    L, s = 2 * k, 1.0 / k
    corner_codes = S._lattice_codes(surface, p, 2 * (i + S._CORNER_X),
                                    2 * (j + S._CORNER_Y), L)
    mid_codes = S._lattice_codes(surface, p, 2 * i + [1, 2, 1, 0], 2 * j + [0, 1, 2, 1], L)
    origin = np.array([complex(*poly[0]) for poly in surface.polygons])[p]
    z = origin + i * s * ex + j * s * ey
    pos = z + s * np.array([0, ex, ex + ey, ey])
    return (p, i, j), corner_codes, mid_codes, pos


def reference_mesh(surface, k, keep):
    """Colors, black-first quads, charts and dart keys, and the vertex
    codes, of the cells in keep, numbered as the earlier mesher did."""
    frame = S._square_tiled_data(surface)
    (_, i, j), corner_codes, mid_codes, pos = reference_grid_cells(surface, k, keep, frame)
    vertex_codes, quads = reference_first_appearance(corner_codes)
    colors = np.zeros(len(vertex_codes), dtype=np.int8)
    colors[quads] = (i + S._CORNER_X + j + S._CORNER_Y) % 2
    quads, pos, dart_keys = reference_rotate_to_black(colors[quads[:, 0]], quads, pos,
                                                      mid_codes)
    return colors, quads, pos, dart_keys, vertex_codes


def origami(right, top):
    """Unit squares in a row, the right side of square i glued to the left
    side of right[i] and its top to the bottom of top[i]."""
    gluings = [pair for i in range(len(right))
               for pair in (((i, 1), (right[i], 3)), ((i, 2), (top[i], 0)))]
    return PolyhedralSurface(polygons=[SQUARE + [i, 0] for i in range(len(right))],
                             gluings=gluings)


def _connected(perms):
    right, top = perms
    seen, todo = {0}, [0]
    while todo:
        i = todo.pop()
        for j in (right[i], top[i]):
            if j not in seen:
                seen.add(j)
                todo.append(j)
    return len(seen) == len(right)


origamis = strategies.integers(1, 5).flatmap(
    lambda n: strategies.tuples(strategies.permutations(range(n)),
                                strategies.permutations(range(n)))
).filter(_connected).map(lambda perms: origami(*perms))
tori = strategies.tuples(strategies.floats(-0.6, 0.6), strategies.floats(0.5, 1.5)).map(
    lambda t: torus_surface(complex(*t)))


def assert_same_mesh(graph, reference):
    colors, quads, pos, dart_keys, vertex_codes = reference
    assert np.array_equal(graph.color, colors)
    assert np.array_equal(graph.quads, quads)
    assert np.array_equal(graph.corners, pos)
    assert np.array_equal(graph.dart_keys, dart_keys)
    assert np.array_equal(graph.meta["vertex_codes"], vertex_codes)
    _, first = np.unique(graph.quads, return_index=True)
    assert np.array_equal(graph.first_corners(), first)


@settings(max_examples=40, derandomize=True, database=None, deadline=None)
@given(surface=strategies.one_of(origamis, tori), k=strategies.sampled_from([2, 4, 6]))
def test_mesher_matches_reference(surface, k):
    keep = np.ones((len(surface.polygons), k, k), dtype=bool)
    assert_same_mesh(build_quad_graph(surface, 1 / k), reference_mesh(surface, k, keep))


@settings(max_examples=40, derandomize=True, database=None, deadline=None)
@given(surface=origamis, k=strategies.sampled_from([2, 4, 8]),
       seed=strategies.integers(0, 2**32 - 1))
def test_grid_cells_match_reference_on_cell_subsets(surface, k, seed):
    """Any subset of the cells, as the adapted meshes keep: the same
    vertex codes in the same order, and per cell the same colors,
    corners, edge midpoints and charts from its first black corner.  A
    subset need not close up into a surface, so the arrays are taken
    where the assembly hands them to QuadGraph, with the reference loops
    and the cones, which may lie outside the subset, left out."""
    keep = np.random.default_rng(seed).random((len(surface.polygons), k, k)) < 0.7

    def arrays(colors, quads, corners, cones, meta, dart_keys):
        return colors, quads, corners, dart_keys, meta["vertex_codes"]

    with mock.patch.multiple(S, QuadGraph=arrays, _reference_loops=mock.DEFAULT,
                             _attach_cones=mock.DEFAULT):
        mesh = S._lattice_mesh(surface, k, keep, S._square_tiled_data(surface))
    for got, want in zip(mesh, reference_mesh(surface, k, keep), strict=True):
        assert np.array_equal(got, want)


def _check_groups(codes):
    codes = np.asarray(codes, dtype=np.int64)
    perm, start, rank = S._groups(codes)
    uniq, first, counts = np.unique(codes, return_index=True, return_counts=True)
    # the groups in code order, each one's entries in array order
    assert np.array_equal(codes[perm], np.repeat(uniq, counts))
    assert np.array_equal(perm, np.argsort(codes, kind="stable"))
    assert np.array_equal(start, np.cumsum(counts) - counts)
    assert np.array_equal(np.argsort(rank), np.argsort(first))


int64s = strategies.integers(-2**63, 2**63 - 1)


@settings(max_examples=100, derandomize=True, database=None, deadline=None)
@given(pool=strategies.lists(int64s, min_size=1, max_size=12),
       picks=strategies.lists(strategies.integers(0, 11), min_size=1, max_size=60))
def test_groups_match_unique(pool, picks):
    """Keys over the whole int64 range, drawn with repeats from a pool,
    including the extreme values whose differences overflow."""
    _check_groups([pool[i % len(pool)] for i in picks])


def test_groups_single_entries():
    for codes in ([0], [-2**63], [2**63 - 1], [-2**63, 2**63 - 1], [2**63 - 1, -2**63]):
        _check_groups(codes)
    perm, start, rank = S._groups(np.array([], dtype=np.int64))
    assert len(perm) == len(start) == len(rank) == 0
