"""Set-valued map metrics: images, preimages, membership, envelope."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from regcert.errors import DimensionMismatch
from regcert.geometry import (
    TOL_MEMBER,
    Ball,
    DirectionalCone,
    Polyhedron,
    ProductSet,
    Singleton,
)
from regcert.instances import builtin
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
    _member_mask,
    _screen_bound,
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
    assert np.array_equal(m.jacobian_batch(np.zeros((3, 2))),
                          np.broadcast_to(m.A, (3, 2, 2)))
    X = np.array([[0.0, 0.0], [1.0, 1.0]])
    assert np.allclose(m.eval_batch(X), [[1.0, -2.0], [2.0, 1.5]])


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 3), st.integers(1, 3), st.integers(2, 69),
       st.integers(0, 2 ** 32 - 1))
def test_affine_rows_are_batch_independent(dim_in, dim_out, rows, seed):
    # a lone row of a skew X @ A.T must not take a BLAS kernel that rounds
    # differently from the one a batch takes
    gen = np.random.default_rng(seed)
    F = MultiMap(AffineMap(gen.standard_normal((dim_out, dim_in)),
                           gen.standard_normal(dim_out)),
                 Polyhedron(np.eye(dim_out), np.zeros(dim_out)))
    X = gen.uniform(-2.0, 2.0, (rows, dim_in))
    Y = gen.uniform(-1.0, 1.0, (rows, dim_out))
    image = F.f.eval_batch(X)
    dist = image_distance_batch(F, X, Y)
    for i in range(rows):
        one = slice(i, i + 1)
        assert F.f.eval_batch(X[one]).tobytes() == image[one].tobytes(), i
        assert (image_distance_batch(F, X[one], Y[one]).tobytes()
                == dist[one].tobytes()), i


def test_polynomial_eval_and_jacobian_match_finite_differences():
    # outputs: (x0^2 x1 + 3 x1, x0 - x1^3)
    m = PolynomialMap(2, [
        [(1.0, (2, 1)), (3.0, (0, 1))],
        [(1.0, (1, 0)), (-1.0, (0, 3))],
    ])
    X = np.array([[0.5, -1.2], [1.0, 1.0], [-0.3, 0.7]])
    J = m.jacobian_batch(X)
    assert J.shape == (3, 2, 2)
    for x, Jx in zip(X, J):
        expect = np.array([x[0] ** 2 * x[1] + 3 * x[1], x[0] - x[1] ** 3])
        assert np.allclose(m(x), expect)
        # one derivative path: a batch row is the single-point jacobian
        assert np.array_equal(Jx, m.jacobian(x))
        assert np.allclose(Jx, fd_jacobian(m, x), atol=1e-6)
        assert np.allclose(m.jacobian(x), fd_jacobian(m, x), atol=1e-6)
    # a term free of x1 adds exactly 0 to d/dx1, even where x0^2 overflows
    big = PolynomialMap(2, [[(1.0, (2, 0)), (1.0, (0, 1))]])
    with np.errstate(over="ignore"):
        assert np.array_equal(big.jacobian([1e200, 1.0]), [[2e200, 1.0]])


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


def test_preimage_of_an_empty_pulled_back_system_is_infinite():
    # f(x) = (x, x) into {z1 <= 0, z2 >= 1}: the pulled-back rows x <= y1
    # and x >= 1 + y2 are nonzero, and empty whenever y1 < 1 + y2; no
    # active set certifies a point, Dykstra stalls, and the LP decides
    F = MultiMap(AffineMap(np.ones((2, 1)), np.zeros(2)),
                 Polyhedron(np.array([[1.0, 0.0], [0.0, -1.0]]),
                            np.array([0.0, -1.0])))
    Y = np.array([[0.0, 0.0], [2.0, 0.0], [0.5, -0.5]])
    got = preimage_distance_batch(F, Y, np.array([[0.3], [0.3], [0.3]]))
    assert got[0] == np.inf
    assert got[1] == pytest.approx(0.7, abs=1e-9)
    assert got[2] == pytest.approx(0.2, abs=1e-9)


def test_preimage_batch_matches_scalar():
    F = orthant2()
    gen = np.random.default_rng(3)
    X = gen.uniform(-2, 2, size=(40, 2))
    Y = gen.uniform(-1, 1, size=(40, 2))
    batch = preimage_distance_batch(F, Y, X)
    single = np.array([preimage_distance(F, y, x) for x, y in zip(X, Y)])
    assert np.allclose(batch, single, atol=1e-8)


@settings(max_examples=10, deadline=None)
@given(st.integers(1, 3), st.integers(0, 2 ** 32 - 1))
def test_exact_preimage_rows_are_batch_independent(dim_in, seed):
    # a skew affine map pulls a skew 3-row polyhedron back to a skew
    # system whose right-hand side varies with y; each row, alone, gets the
    # bits it gets in its 30-row batch
    gen = np.random.default_rng(seed)
    C = gen.standard_normal((3, 2))
    K = Polyhedron(C, C @ gen.uniform(-1.0, 1.0, 2)
                   + gen.uniform(0.0, 1.0, 3))
    F = MultiMap(AffineMap(gen.standard_normal((2, dim_in)),
                           gen.standard_normal(2)), K)
    X = gen.uniform(-2.0, 2.0, (30, dim_in))
    Y = gen.uniform(-2.0, 2.0, (30, 2))
    batch = preimage_distance_batch(F, Y, X)
    for i in range(30):
        alone = preimage_distance_batch(F, Y[i:i + 1], X[i:i + 1])
        assert alone.tobytes() == batch[i:i + 1].tobytes(), i


def linear_as_polynomial():
    """diag(2, 0.5) x + (0.3, -0.2) - orthant, as an affine map and as the
    same map written as a degree-1 polynomial."""
    A = np.array([[2.0, 0.0], [0.0, 0.5]])
    b = np.array([0.3, -0.2])
    K = Polyhedron(np.eye(2), np.zeros(2))
    exact = MultiMap(AffineMap(A, b), K)
    poly = MultiMap(PolynomialMap(2, [
        [(2.0, (1, 0)), (0.3, (0, 0))],
        [(0.5, (0, 1)), (-0.2, (0, 0))],
    ]), K)
    return exact, poly


def test_polynomial_preimage_agrees_with_exact_affine_route():
    # the same linear map written as a degree-1 polynomial loses the exact
    # pullback and must fall back to the iterative search
    exact, poly = linear_as_polynomial()
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


def scalar_gauss_newton(F, y, x, box):
    """Reference: the multi-start Gauss-Newton search one start, one trial
    at a time, with a per-point lstsq step."""
    lo, hi = box[:, 0] - (box[:, 1] - box[:, 0]), \
        box[:, 1] + (box[:, 1] - box[:, 0])

    def solve(u0):
        u = np.clip(u0, lo, hi)
        r = F.f(u) - y
        res = r - F.K.project(r)
        rn = np.linalg.norm(res)
        for _ in range(60):
            if rn <= 1e-8:
                break
            step = np.linalg.lstsq(F.f.jacobian(u), -res, rcond=None)[0]
            for k in range(25):
                t = 0.5 ** k
                un = np.clip(u + t * step, lo, hi)
                rt = F.f(un) - y
                rest = rt - F.K.project(rt)
                if np.linalg.norm(rest) < rn * (1.0 - 1e-4 * t):
                    u, res, rn = un, rest, np.linalg.norm(rest)
                    break
            else:
                break
        return u, rn <= 1e-8

    corners = np.stack(np.meshgrid(*box, indexing="ij"),
                       axis=-1).reshape(-1, x.size)[:64]
    found = [u for u, ok in map(solve, [x, box.mean(axis=1), *corners])
             if ok]
    if not found:
        nodes = SearchRegion(box).grid_nodes(cap=4096)
        resid = F.K.distance_batch(F.f.eval_batch(nodes) - y)
        u, ok = solve(nodes[np.argmin(resid)])
        found = [u] if ok else []
    if not found:
        return np.inf
    dists = [np.linalg.norm(x - u) for u in found]
    u_best, d_best = found[int(np.argmin(dists))], min(dists)
    for t in np.geomspace(1.0, 0.02, 12):
        u, ok = solve(x + t * (u_best - x))
        if ok and np.linalg.norm(x - u) < d_best:
            u_best, d_best = u, np.linalg.norm(x - u)
    return d_best


def test_gauss_newton_batch_matches_the_scalar_reference():
    gen = np.random.default_rng(17)
    cubic = MultiMap(PolynomialMap(1, [[(1.0, (3,)), (-1.0, (1,))]]),
                     Singleton(np.zeros(1)))
    for F, exact in ((builtin("parabola_eb").F, True), (cubic, True),
                     (linear_as_polynomial()[1], False)):
        X = gen.uniform(-1.5, 1.5, size=(25, F.dim_in))
        Y = gen.uniform(-1.0, 1.0, size=(25, F.dim_out))
        shared = default_region(np.full(F.dim_in, 0.5), 1.0)
        for region in (None, shared):
            batch = preimage_distance_batch(F, Y, X, region)
            ref = np.array([
                scalar_gauss_newton(F, y, x, (region or
                                              default_region(x, 2.0)).box)
                for x, y in zip(X, Y)])
            assert np.array_equal(np.isinf(batch), np.isinf(ref))
            if exact:
                # one input and one output: the same arithmetic, bit for bit
                assert batch.tobytes() == ref.tobytes()
            else:
                # row norms sum in another order than a 1-d norm's dot
                assert np.allclose(batch, ref, rtol=0, atol=1e-12)


def _gauss_newton_maps():
    round_K = MultiMap(PolynomialMap(2, [
        [(1.0, (2, 0)), (1.0, (0, 2)), (-1.0, (0, 0))],
        [(1.0, (1, 1)), (-0.5, (0, 3))],
    ]), ProductSet((Ball(np.zeros(1), 0.3), Singleton(np.zeros(1)))))
    return {"polynomial_orthant": linear_as_polynomial()[1],
            "parabola_eb": builtin("parabola_eb").F,
            "round_K": round_K}


@settings(max_examples=6, deadline=None)
@given(st.sampled_from(sorted(_gauss_newton_maps())),
       st.integers(0, 2 ** 32 - 1), st.booleans())
def test_gauss_newton_rows_are_batch_independent(name, seed, shared_region):
    # each row of the batched search gives, bit for bit, what it gives alone
    F = _gauss_newton_maps()[name]
    gen = np.random.default_rng(seed)
    X = gen.uniform(-1.5, 1.5, size=(20, F.dim_in))
    Y = gen.uniform(-1.0, 1.0, size=(20, F.dim_out))
    region = default_region(np.zeros(F.dim_in), 3.0) if shared_region \
        else None
    batch = preimage_distance_batch(F, Y, X, region)
    for i in range(20):
        alone = preimage_distance_batch(F, Y[i:i + 1], X[i:i + 1], region)
        assert alone.tobytes() == batch[i:i + 1].tobytes(), i
        assert preimage_distance(F, Y[i], X[i], region) == alone[0]
    # reversing the batch moves no row either
    back = preimage_distance_batch(F, Y[::-1], X[::-1], region)
    assert back[::-1].tobytes() == batch.tobytes()


@pytest.mark.parametrize("dim, rows", [(2, 120), (4, 5)])
def test_grid_fallback_start_is_each_rows_own_grid_argmin(dim, rows):
    # the fallback start, taken a few rows at a time (several chunks here:
    # 81 nodes a box in 2-d, 4096 in 4-d), is the argmin of each row's grid
    from regcert.multimap import _grid_starts
    F = MultiMap(PolynomialMap(dim, [[
        (1.0, tuple(2 * (j == i) for j in range(dim))) for i in range(dim)]
        + [(-0.5, (0,) * dim)]]), Ball(np.zeros(1), 0.1))
    gen = np.random.default_rng(7)
    X = gen.uniform(-1.0, 1.0, size=(rows, dim))
    Y = gen.uniform(-1.0, 3.0, size=(rows, 1))
    shared = default_region(np.full(dim, 0.5), 1.5)
    for region in (None, shared):
        regions = [region or default_region(x, 2.0) for x in X]
        boxes = np.stack([r.box for r in regions])
        starts = _grid_starts(F, Y, boxes, regions[0].grid_resolution,
                              shared=region is not None)
        for i, r in enumerate(regions):
            nodes = r.grid_nodes(cap=4096)
            resid = F.K.distance_batch(F.f.eval_batch(nodes) - Y[i])
            assert starts[i].tobytes() == nodes[np.argmin(resid)].tobytes()


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


def _membership_cases():
    """(F, dc) pairs for the decision kernel: the registry's halfplane, a
    skew polyhedron, a ball, a product, and a K that contains the ray along
    ybar (phi keeps falling past the grid, so the screen gives no bound)."""
    gen = np.random.default_rng(2024)
    halfplane_dir = builtin("halfplane_directional")
    skew = Polyhedron(gen.standard_normal((4, 2)), gen.uniform(0.2, 1.0, 4))
    slab = ProductSet([Ball(np.zeros(1), 0.3),
                       Polyhedron(np.array([[1.0, 1.0], [-1.0, 0.5]]),
                                  np.zeros(2))])
    return {
        "halfplane_directional": (halfplane_dir.F, halfplane_dir.dc),
        "skew_polyhedron": (MultiMap(AffineMap(gen.standard_normal((2, 2)),
                                               np.zeros(2)), skew),
                            DirectionalCone([0.6, 0.8], 0.3)),
        "ball": (MultiMap(AffineMap(np.eye(2), np.zeros(2)),
                          Ball([0.5, -0.2], 0.7)),
                 DirectionalCone([1.0, 0.2], 0.5)),
        "product": (MultiMap(AffineMap(np.eye(3), np.zeros(3)), slab),
                    DirectionalCone([0.3, 1.0, 0.2], 0.4)),
        "ray_along_ybar": (MultiMap(AffineMap(np.eye(2), np.zeros(2)),
                                    Polyhedron(np.array([[0.0, -1.0],
                                                         [1.0, 0.0]]),
                                               np.array([0.0, 1.0]))),
                           DirectionalCone([0.0, 1.0], 0.1)),
    }


def _membership_rows(F, gen, rows):
    # half the rows anywhere, half within 1e-8 .. 1e-4 of F(x), so that
    # rows near the tolerance reach every stage of the kernel
    X = gen.uniform(-2.0, 2.0, (rows, F.dim_in))
    Y = gen.uniform(-2.0, 2.0, (rows, F.dim_out))
    near = np.arange(rows) % 2 == 1
    scale = 10.0 ** gen.integers(-8, -3, near.sum())
    Y[near] = (F.f.eval_batch(X[near]) - F.K.project_batch(Y[near])
               + scale[:, None] * gen.standard_normal((near.sum(),
                                                       F.dim_out)))
    return X, Y


@settings(max_examples=15, deadline=None)
@given(st.sampled_from(sorted(_membership_cases())),
       st.integers(0, 2 ** 32 - 1))
def test_member_mask_is_the_membership_decision(name, seed):
    F, dc = _membership_cases()[name]
    gen = np.random.default_rng(seed)
    X, Y = _membership_rows(F, gen, 60)
    vals, _ = membership_values(F, X, Y, dc)
    quick, _ = membership_values(F, X, Y, dc, quick=True)
    # a tol between the two routes of a row where the alternating route is
    # lower leaves that row's decision to the last stage
    split = np.where(vals < quick)[0][:3]
    for tol in [TOL_MEMBER, 1e-5, 1e-2, *(vals[split] + quick[split]) / 2]:
        mask = _member_mask(F, X, Y, dc, tol)
        assert mask.tobytes() == (vals <= tol).tobytes(), tol
    # the screen's bound never exceeds the full value by more than its
    # stated margin, and it gives no bound where phi falls past the grid
    lb, margin = _screen_bound(F.K, F.f.eval_batch(X) - Y, dc)
    assert np.all(lb <= vals + margin)
    if name == "ray_along_ybar":
        assert np.all(lb == -np.inf)


@settings(max_examples=8, deadline=None)
@given(st.sampled_from(sorted(_membership_cases())),
       st.integers(0, 2 ** 32 - 1))
def test_membership_rows_are_batch_independent(name, seed):
    # each row, run alone, gets the bits of its value and of its certified
    # flag that it gets in the batch, on both routes and on the quick one
    F, dc = _membership_cases()[name]
    gen = np.random.default_rng(seed)
    X, Y = _membership_rows(F, gen, 12)
    vals, certified = membership_values(F, X, Y, dc)
    quick, _ = membership_values(F, X, Y, dc, quick=True)
    for i in range(12):
        one = slice(i, i + 1)
        v, c = membership_values(F, X[one], Y[one], dc)
        assert v.tobytes() == vals[one].tobytes(), i
        assert c.tobytes() == certified[one].tobytes(), i
        q, _ = membership_values(F, X[one], Y[one], dc, quick=True)
        assert q.tobytes() == quick[one].tobytes(), i


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
