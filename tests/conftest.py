import math

import numpy as np
import pytest

from quadperiod.surface import (PolyhedralSurface, build_quad_graph, generate_torus,
                                l_shape_surface, torus_surface)


@pytest.fixture(scope="session")
def torus_i_2():
    return generate_torus(1j, 2)


@pytest.fixture(scope="session")
def torus_i_4():
    return generate_torus(1j, 4)


@pytest.fixture(scope="session")
def torus_skew_4():
    return generate_torus(0.5 + 0.8j, 4)


@pytest.fixture(scope="session")
def skew_torus():
    return torus_surface(0.5 + 0.8j)


@pytest.fixture(scope="session")
def lshape():
    return l_shape_surface()


@pytest.fixture(scope="session")
def lshape_mesh_2(lshape):
    return build_quad_graph(lshape, 0.5)


@pytest.fixture(scope="session")
def lshape_mesh_4(lshape):
    return build_quad_graph(lshape, 0.25)


@pytest.fixture(scope="session")
def lshape_mesh_8(lshape):
    return build_quad_graph(lshape, 0.125)


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(0)


@pytest.fixture(scope="session")
def four_square_origami():
    """Genus-2 surface with two cones of angle 4*pi (index 1/2): four unit
    squares in a row, rights glued to lefts by (0 1 3 2) and tops to
    bottoms by (2 3 0 1)."""
    sq = np.array([[0, 0], [1, 0], [1, 1], [0, 1]], dtype=float)
    sh = (0, 1, 3, 2)
    sv = (2, 3, 0, 1)
    polys = [sq + [i, 0] for i in range(4)]
    gl = []
    for i in range(4):
        gl.append(((i, 1), (sh[i], 3)))
        gl.append(((i, 2), (sv[i], 0)))
    return PolyhedralSurface(polygons=polys, gluings=gl)


@pytest.fixture(scope="session")
def sheared_origami(four_square_origami):
    """The two-cone origami under (x, y) -> (x + 0.35 y, 0.8 y): genus 2,
    every quad of its uniform meshes non-orthodiagonal."""
    shear = np.array([[1, 0.35], [0, 0.8]])
    return PolyhedralSurface(polygons=[p @ shear.T for p in four_square_origami.polygons],
                             gluings=four_square_origami.gluings)


@pytest.fixture(scope="session")
def sheared_origami_8(sheared_origami):
    return build_quad_graph(sheared_origami, 1 / 8)
