"""Set-valued map metrics: images, preimages, membership, envelope."""

import numpy as np
import pytest

from regcert.errors import DimensionMismatch
from regcert.geometry import (
    TOL_MEMBER,
    Ball,
    DirectionalCone,
    Polyhedron,
    ProductSet,
    Singleton,
)
from regcert.multimap import (
    AffineMap,
    MultiMap,
    PolynomialMap,
    SearchRegion,
    as_polyhedron,
    default_region,
    envelope_batch,
    image_distance,
    image_distance_batch,
    membership_values,
    preimage_distance,
    preimage_distance_batch,
)


def fd_jacobian(f, x, h=1e-6):
    x = np.asarray(x, dtype=float)
    cols = []
    for j in range(x.size):
        e = np.zeros_like(x)
        e[j] = h
        cols.append((f(x + e) - f(x - e)) / (2 * h))
    return np.stack(cols, axis=1)


def identity2():
    return MultiMap(AffineMap(np.eye(2), np.zeros(2)),
                    Singleton(np.zeros(2)))


def orthant2():
    return MultiMap(AffineMap(np.eye(2), np.zeros(2)),
                    Polyhedron(np.eye(2), np.zeros(2)))


def halfplane():
    A = np.array([[1.0], [0.0]])
    K = Polyhedron(np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0]]),
                   np.zeros(3))
    return MultiMap(AffineMap(A, np.zeros(2)), K)


# ---------------------------------------------------------------------------
# Smooth maps.

def test_affine_eval_and_jacobian():
    m = AffineMap([[2.0, -1.0], [0.5, 3.0]], [1.0, -2.0])
    x = np.array([0.7, -1.3])
    assert np.allclose(m(x), [2 * 0.7 + 1.3 + 1.0, 0.5 * 0.7 - 3.9 - 2.0])
    assert np.allclose(m.jacobian(x), [[2.0, -1.0], [0.5, 3.0]])
    X = np.array([[0.0, 0.0], [1.0, 1.0]])
    assert np.allclose(m.eval_batch(X), [[1.0, -2.0], [2.0, 1.5]])


def test_polynomial_eval_and_jacobian_match_finite_differences():
    # outputs: (x0^2 x1 + 3 x1, x0 - x1^3)
    m = PolynomialMap(2, [
        [(1.0, (2, 1)), (3.0, (0, 1))],
        [(1.0, (1, 0)), (-1.0, (0, 3))],
    ])
    for x in ([0.5, -1.2], [1.0, 1.0], [-0.3, 0.7]):
        x = np.array(x)
        expect = np.array([x[0] ** 2 * x[1] + 3 * x[1], x[0] - x[1] ** 3])
        assert np.allclose(m(x), expect)
        assert np.allclose(m.jacobian(x), fd_jacobian(m, x), atol=1e-6)


def test_polynomial_rejects_bad_terms():
    with pytest.raises(DimensionMismatch):
        PolynomialMap(2, [[(1.0, (1,))]])
    with pytest.raises(ValueError):
        PolynomialMap(1, [[(1.0, (-1,))]])


def test_multimap_dim_check():
    with pytest.raises(DimensionMismatch):
        MultiMap(AffineMap(np.eye(2), np.zeros(2)), Singleton(np.zeros(3)))


def test_as_polyhedron_routes():
    assert as_polyhedron(Singleton([1.0, 2.0])).n_rows == 4
    prod = ProductSet((Polyhedron([[1.0]], [0.0]), Singleton([2.0])))
    p = as_polyhedron(prod)
    assert p is not None and p.dim == 2
    assert as_polyhedron(Ball(np.zeros(2), 1.0)) is None


def test_lipschitz_bound_affine_is_spectral_norm():
    F = MultiMap(AffineMap(np.diag([2.0, 0.5]), np.zeros(2)),
                 Singleton(np.zeros(2)))
    box = np.array([[-1.0, 1.0], [-1.0, 1.0]])
    assert F.lipschitz_bound(box) == pytest.approx(2.0)


# ---------------------------------------------------------------------------
# Image and preimage distances, frozen closed forms.

def test_image_distance_closed_forms():
    assert image_distance(identity2(), [1.0, 2.0], [0.0, 0.0]) == \
        pytest.approx(np.sqrt(5.0), abs=1e-12)
    F = MultiMap(AffineMap(np.diag([2.0, 0.5]), np.zeros(2)),
                 Singleton(np.zeros(2)))
    assert image_distance(F, [1.0, 1.0], [0.0, 0.0]) == \
        pytest.approx(np.sqrt(4.25), abs=1e-12)
    # nonpositive orthant keeps only positive parts of the residual
    assert image_distance(orthant2(), [0.6, 0.8], [0.0, 0.0]) == \
        pytest.approx(1.0, abs=1e-12)
    assert image_distance(orthant2(), [-1.0, -2.0], [0.0, 0.0]) == 0.0


def test_preimage_distance_exact_affine():
    assert identity2().exact_preimage
    assert preimage_distance(identity2(), [0.0, 0.0], [3.0, 4.0]) == \
        pytest.approx(5.0, abs=1e-9)
    assert preimage_distance(orthant2(), [0.0, 0.0], [0.6, 0.8]) == \
        pytest.approx(1.0, abs=1e-7)
    F = halfplane()
    assert preimage_distance(F, [2.0, 1.0], [0.0]) == pytest.approx(2.0,
                                                                    abs=1e-7)
    assert preimage_distance(F, [2.0, -1.0], [0.0]) == np.inf


def test_preimage_batch_matches_scalar():
    F = orthant2()
    gen = np.random.default_rng(3)
    X = gen.uniform(-2, 2, size=(40, 2))
    Y = gen.uniform(-1, 1, size=(40, 2))
    batch = preimage_distance_batch(F, Y, X)
    single = np.array([preimage_distance(F, y, x) for x, y in zip(X, Y)])
    assert np.allclose(batch, single, atol=1e-8)


def test_polynomial_preimage_agrees_with_exact_affine_route():
    # the same linear map written as a degree-1 polynomial loses the exact
    # pullback and must fall back to the iterative search
    A = np.array([[2.0, 0.0], [0.0, 0.5]])
    b = np.array([0.3, -0.2])
    K = Polyhedron(np.eye(2), np.zeros(2))
    exact = MultiMap(AffineMap(A, b), K)
    poly = MultiMap(PolynomialMap(2, [
        [(2.0, (1, 0)), (0.3, (0, 0))],
        [(0.5, (0, 1)), (-0.2, (0, 0))],
    ]), K)
    assert exact.exact_preimage and not poly.exact_preimage
    gen = np.random.default_rng(11)
    region = default_region(np.zeros(2), 3.0)
    for _ in range(12):
        x = gen.uniform(-1.5, 1.5, size=2)
        y = gen.uniform(-1.0, 1.0, size=2)
        d_exact = preimage_distance(exact, y, x)
        d_poly = preimage_distance(poly, y, x, region)
        assert np.isfinite(d_exact)
        # iterative route is an upper bound; here it should be tight
        assert d_poly == pytest.approx(d_exact, abs=1e-5)


def test_empty_preimage_reported_infinite_for_polynomial():
    # x^2 - 1 = y has no solution for y < -1
    F = MultiMap(PolynomialMap(1, [[(1.0, (2,)), (-1.0, (0,))]]),
                 Singleton(np.zeros(1)))
    region = default_region(np.zeros(1), 2.0)
    assert preimage_distance(F, [-2.0], [0.0], region) == np.inf
    assert preimage_distance(F, [0.0], [0.0], region) == pytest.approx(
        1.0, abs=1e-6)


# ---------------------------------------------------------------------------
# Directional membership.

def test_membership_plain_cases():
    F = halfplane()
    dc = DirectionalCone([0.0, 1.0], 0.2)
    Y = np.array([
        [1.0, 2.0],    # y already in F(x) = {1} x [0, inf)
        [2.0, 5.0],    # lateral offset 1 at height 5: the scaled ball
                       # breaches it exactly
        [2.0, 0.5],    # same offset too low: the cone opens at slope 1/0.2
        [1.0, -3.0],   # against the cone direction
    ])
    vals, _ = membership_values(F, np.ones((4, 1)), Y, dc)
    assert list(vals <= TOL_MEMBER) == [True, True, False, False]


def test_membership_whole_space_cone():
    F = identity2()
    dc = DirectionalCone([0.0, 0.0], 1.0)
    assert dc.whole_space
    vals, certified = membership_values(F, np.zeros((3, 2)),
                                        np.ones((3, 2)), dc)
    assert np.all(vals == 0.0) and np.all(certified)


def test_membership_dual_routes_agree():
    F = halfplane()
    dc = DirectionalCone([0.0, 1.0], 0.2)
    gen = np.random.default_rng(7)
    X = gen.uniform(-2, 2, size=(200, 1))
    Y = gen.uniform(-3, 3, size=(200, 2))
    vals, certified = membership_values(F, X, Y, dc)
    # the alternating route can hit its iteration cap on near-boundary
    # points, leaving them uncertified; the bulk must still agree
    assert np.mean(certified) > 0.9
    quick, flag = membership_values(F, X, Y, dc, quick=True)
    assert not flag.any()
    # quick route keeps only one of the two estimates, so it can only be
    # larger than the combined value
    assert np.all(quick >= vals - 1e-12)
    assert np.all(quick[certified] - vals[certified]
                  <= 1e-6 * (1.0 + vals[certified]))


# ---------------------------------------------------------------------------
# Envelope.

def test_envelope_none_cone_is_image_distance():
    F = identity2()
    gen = np.random.default_rng(1)
    X = gen.uniform(-2, 2, size=(50, 2))
    y = np.array([0.3, -0.4])
    env = envelope_batch(F, None, X, y)
    assert np.allclose(env, image_distance_batch(
        F, X, np.broadcast_to(y, X.shape)))


@pytest.mark.parametrize("make,dc", [
    (halfplane, DirectionalCone([0.0, 1.0], 0.2)),
    (orthant2, DirectionalCone([1.0, 1.0], 0.3)),
    (identity2, DirectionalCone([1.0, 0.0], 0.1)),
])
def test_envelope_matches_membership_five_hundred_samples(make, dc):
    F = make()
    gen = np.random.default_rng(5)
    n = 520
    X = gen.uniform(-2, 2, size=(n, F.dim_in))
    y = gen.uniform(-1, 1, size=F.dim_out)
    Yt = np.broadcast_to(y, (n, F.dim_out))
    env = envelope_batch(F, dc, X, y)
    vals, _ = membership_values(F, X, Yt, dc)
    img = image_distance_batch(F, X, Yt)
    finite = np.isfinite(env)
    # finite envelope values equal the image distance exactly
    assert np.allclose(env[finite], img[finite], atol=1e-12)
    # membership within tolerance always yields a finite envelope
    assert np.all(finite[vals <= TOL_MEMBER])
    # infinite envelope only happens where membership failed
    assert np.all(vals[~finite] > TOL_MEMBER)


# ---------------------------------------------------------------------------
# Search regions.

def test_region_samples_deterministic():
    box = np.array([[-1.0, 2.0], [0.0, 5.0]])
    r = SearchRegion(box, 5, 300, 42)
    a = r.uniform_samples("probe", 300)
    b = r.uniform_samples("probe", 300)
    assert np.array_equal(a, b)
    assert a.shape == (300, 2)
    assert np.all(a >= box[:, 0]) and np.all(a <= box[:, 1])


def test_region_grid_cap_downshifts_resolution():
    box = np.tile([[-1.0, 1.0]], (4, 1))
    r = SearchRegion(box, 9, 100, 0)
    nodes = r.grid_nodes(cap=1000)
    # 9^4 = 6561 > 1000, 5^4 = 625 fits
    assert nodes.shape == (625, 4)


def test_region_validation():
    with pytest.raises(ValueError):
        SearchRegion(np.array([[1.0, -1.0]]), 5, 10, 0)
    with pytest.raises(ValueError):
        SearchRegion(np.array([[0.0, 1.0]]), 1, 10, 0)
    with pytest.raises(DimensionMismatch):
        SearchRegion(np.zeros((2, 3)), 5, 10, 0)
