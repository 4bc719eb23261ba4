"""Ground-truth lattice oracle: distances, slopes, modulus, guard rails."""

import numpy as np
import pytest

from regcert.errors import (
    DimensionMismatch,
    GridTooCoarse,
    GridTooLarge,
    InvalidParameter,
    NoAdmissibleSamples,
)
from regcert.geometry import (
    Ball,
    DirectionalCone,
    Polyhedron,
    ProductSet,
    Singleton,
)
from regcert.instances import builtin
from regcert.multimap import default_region
from regcert.oracle import (
    Grid,
    clamp_distance_batch,
    grid_global_slope,
    grid_modulus,
    grid_preimage_distance,
)
from regcert.regularity import RegularityQuery
from regcert.slopes import ScalarField

from conftest import bounded_random_polyhedron


def instance_query(name, epsilon=0.5):
    inst = builtin(name)
    return inst, RegularityQuery(
        inst.F, inst.x0, inst.y0, dc=inst.dc, epsilon=epsilon,
        region=default_region(inst.x0, 2.5 * epsilon, 500, seed=0))


# ---------------------------------------------------------------------------
# Grid container.

def test_grid_geometry():
    g = Grid(np.array([[-1.0, 1.0], [0.0, 4.0]]), 5)
    assert g.dim == 2 and g.size == 25
    assert np.allclose(g.spacing, [0.5, 1.0])
    assert g.step == 1.0
    lat = g.lattice()
    assert lat.shape == (25, 2)
    assert np.allclose(lat[0], [-1.0, 0.0])
    assert np.allclose(lat[-1], [1.0, 4.0])
    # chunked iteration covers the same points in the same order
    assert np.array_equal(np.concatenate(list(g.chunks(rows=3))), lat)


def test_grid_caps():
    with pytest.raises(GridTooLarge):
        Grid(np.array([[0.0, 1.0]]), 202)
    with pytest.raises(GridTooLarge):
        Grid(np.tile([[0.0, 1.0]], (4, 1)), 100)  # 10^8 lattice points
    with pytest.raises(InvalidParameter):
        Grid(np.array([[0.0, 1.0]]), 1)
    with pytest.raises(InvalidParameter):
        Grid(np.array([[1.0, 0.0]]), 5)
    with pytest.raises(DimensionMismatch):
        Grid(np.zeros((2, 3)), 5)


# ---------------------------------------------------------------------------
# Clamp distances.

def test_clamp_distance_closed_forms():
    assert clamp_distance_batch(Ball(np.zeros(2), 1.0),
                                [[3.0, 4.0]])[0] == pytest.approx(4.0)
    assert clamp_distance_batch(Singleton([1.0, 1.0]),
                                [[4.0, 5.0]])[0] == pytest.approx(5.0)
    orthant = Polyhedron(np.eye(2), np.zeros(2))
    assert clamp_distance_batch(orthant, [[0.6, 0.8]])[0] == pytest.approx(1.0)
    assert clamp_distance_batch(orthant, [[-1.0, -2.0]])[0] == 0.0
    prod = ProductSet((Singleton([0.0]), Polyhedron(np.array([[1.0]]),
                                                    np.zeros(1))))
    assert clamp_distance_batch(prod, [[3.0, 4.0]])[0] == pytest.approx(5.0)


def test_clamp_distance_box_rows():
    # two-sided single-variable rows make an axis box: [0,1] x (-inf, 2]
    K = Polyhedron(np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0]]),
                   np.array([1.0, 0.0, 2.0]))
    assert clamp_distance_batch(K, [[2.0, 3.0]])[0] == pytest.approx(
        np.sqrt(2.0))
    assert clamp_distance_batch(K, [[0.5, -7.0]])[0] == 0.0


def test_clamp_distance_skew_is_certified_upper_bound():
    # cyclic sweeps land at a feasible point, not the nearest one, so the
    # guarantee is one-sided: never below the true distance, zero inside
    gen = np.random.default_rng(17)
    for _ in range(20):
        dim = int(gen.integers(2, 4))
        poly = bounded_random_polyhedron(gen, dim, extra_rows=3)
        Z = gen.uniform(-6, 6, size=(50, dim))
        ub = clamp_distance_batch(poly, Z)
        exact = poly.distance_batch(Z)
        assert np.all(np.isfinite(ub))
        assert np.all(ub >= exact - 1e-9)
        inside = exact <= 1e-12
        assert np.all(ub[inside] <= 1e-9)


def test_clamp_distance_unsupported_set():
    with pytest.raises(InvalidParameter):
        clamp_distance_batch(DirectionalCone([0.0, 1.0], 0.1), [[1.0, 1.0]])


# ---------------------------------------------------------------------------
# Preimage distances.

def test_grid_preimage_frozen_values():
    F = builtin("halfplane_directional").F
    g = Grid(np.array([[-5.0, 5.0]]), 101)
    assert grid_preimage_distance(F, [2.0, 1.0], [0.0], g) == pytest.approx(
        2.0, abs=1e-12)
    assert grid_preimage_distance(F, [2.0, -1.0], [0.0], g,
                                  warn_coarse=False) == np.inf
    # a feasible query point wins regardless of the lattice
    assert grid_preimage_distance(F, [0.3, 5.0], [0.3], g) == 0.0

    Fi = builtin("identity2").F
    g2 = Grid(np.tile([[-5.0, 5.0]], (2, 1)), 101)
    assert grid_preimage_distance(Fi, [0.0, 0.0], [3.0, 4.0],
                                  g2) == pytest.approx(5.0, abs=1e-12)


def test_grid_preimage_warns_when_lattice_misses():
    # the preimage {(0.05, 0.05)} falls between lattice points while the
    # interiority check says a solution exists
    Fi = builtin("identity2").F
    g = Grid(np.tile([[-1.0, 1.0]], (2, 1)), 11)
    with pytest.warns(GridTooCoarse):
        d = grid_preimage_distance(Fi, [0.05, 0.05], [0.9, 0.9], g)
    assert d == np.inf


def test_grid_preimage_warning_takes_the_lp_at_the_query_y():
    # F(x) = {x} x [0, inf): the preimage {0.05} of y = (0.05, 1) falls
    # between lattice points, and y sits a unit inside the image, so the
    # LP at (x, y) holds; at y = 0 it would sit on the boundary and fail
    F = builtin("halfplane_directional").F
    g = Grid([[-1.0, 1.0]], 11)
    with pytest.warns(GridTooCoarse):
        d = grid_preimage_distance(F, [0.05, 1.0], [0.9], g)
    assert d == np.inf


# ---------------------------------------------------------------------------
# Slopes.

def test_grid_slope_absolute_value():
    f = ScalarField(1, lambda u: abs(float(u[0])),
                    lambda U: np.abs(U[:, 0]))
    g = Grid(np.array([[-2.0, 2.0]]), 81)
    assert grid_global_slope(f, [1.0], g) == pytest.approx(1.0, abs=1e-12)


def test_grid_slope_parabola_step_accurate():
    f = ScalarField(1, lambda u: float(u[0]) ** 2, lambda U: U[:, 0] ** 2)
    # sup of (1 - u^2)/(1 - u) = 1 + u is approached at the lattice point
    # just left of 1, so the value is exactly 2 - step
    for pts in (21, 81):
        g = Grid(np.array([[-2.0, 2.0]]), pts)
        assert grid_global_slope(f, [1.0], g) == pytest.approx(2.0 - g.step,
                                                              abs=1e-9)


def test_grid_slope_guards():
    f = ScalarField(1, lambda u: np.inf, lambda U: np.full(U.shape[0], np.inf))
    g = Grid(np.array([[-1.0, 1.0]]), 11)
    with pytest.raises(InvalidParameter):
        grid_global_slope(f, [0.0], g)
    ok = ScalarField(1, lambda u: 0.0, lambda U: np.zeros(U.shape[0]))
    with pytest.raises(DimensionMismatch):
        grid_global_slope(ok, [0.0, 0.0], g)


# ---------------------------------------------------------------------------
# Modulus.

def test_grid_modulus_identity_converges():
    inst, q = instance_query("identity2")
    coarse = grid_modulus(inst.F, q,
                          Grid(np.tile([[-1.25, 1.25]], (2, 1)), 21),
                          Grid(np.tile([[-0.5, 0.5]], (2, 1)), 15))
    fine = grid_modulus(inst.F, q,
                        Grid(np.tile([[-1.25, 1.25]], (2, 1)), 41),
                        Grid(np.tile([[-0.5, 0.5]], (2, 1)), 21))
    assert coarse == pytest.approx(0.9991861979166669, rel=1e-12)
    assert fine == pytest.approx(0.999599358974359, rel=1e-12)
    # refinement moves the oracle toward the true modulus 1
    assert abs(fine - 1.0) < abs(coarse - 1.0)


def test_grid_modulus_diag():
    inst, q = instance_query("diag_2_05")
    sup = grid_modulus(inst.F, q,
                       Grid(np.tile([[-1.25, 1.25]], (2, 1)), 21),
                       Grid(np.tile([[-0.5, 0.5]], (2, 1)), 15))
    assert sup == pytest.approx(1.9940682870370372, rel=1e-12)
    assert abs(sup - 2.0) <= 2.0 * 0.05


def test_grid_modulus_guards():
    inst, q = instance_query("identity2")
    g2 = Grid(np.tile([[-1.25, 1.25]], (2, 1)), 21)
    with pytest.raises(DimensionMismatch):
        grid_modulus(inst.F, q, Grid(np.array([[-1.0, 1.0]]), 11), g2)
    # query balls empty of lattice points
    far = Grid(np.tile([[8.0, 9.0]], (2, 1)), 11)
    with pytest.raises(NoAdmissibleSamples):
        grid_modulus(inst.F, q, far, g2)
    # pair cap
    with pytest.raises(GridTooLarge):
        grid_modulus(inst.F, q,
                     Grid(np.tile([[-1.25, 1.25]], (2, 1)), 201),
                     Grid(np.tile([[-0.5, 0.5]], (2, 1)), 201))
