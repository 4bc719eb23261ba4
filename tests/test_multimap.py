"""Set-valued map metrics: images, preimages, membership, envelope."""

import numpy as np
import pytest
from hypothesis import example, given, settings
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
from regcert import multimap
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
    _probe_directions,
    _scale_search,
    _screened_search,
    _secant_bound,
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
    for _ in range(12):
        x = gen.uniform(-1.5, 1.5, size=2)
        y = gen.uniform(-1.0, 1.0, size=2)
        d_exact = preimage_distance(exact, y, x)
        d_poly = preimage_distance(poly, y, x)
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
        batch = preimage_distance_batch(F, Y, X)
        ref = np.array([
            scalar_gauss_newton(F, y, x, default_region(x, 2.0).box)
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
       st.integers(0, 2 ** 32 - 1))
def test_gauss_newton_rows_are_batch_independent(name, seed):
    # each row of the batched search gives, bit for bit, what it gives alone
    F = _gauss_newton_maps()[name]
    gen = np.random.default_rng(seed)
    X = gen.uniform(-1.5, 1.5, size=(20, F.dim_in))
    Y = gen.uniform(-1.0, 1.0, size=(20, F.dim_out))
    batch = preimage_distance_batch(F, Y, X)
    for i in range(20):
        alone = preimage_distance_batch(F, Y[i:i + 1], X[i:i + 1])
        assert alone.tobytes() == batch[i:i + 1].tobytes(), i
        assert preimage_distance(F, Y[i], X[i]) == alone[0]
    # reversing the batch moves no row either
    back = preimage_distance_batch(F, Y[::-1], X[::-1])
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
    regions = [default_region(x, 2.0) for x in X]
    starts = _grid_starts(F, Y, np.stack([r.box for r in regions]))
    for i, r in enumerate(regions):
        nodes = r.grid_nodes(cap=4096)
        resid = F.K.distance_batch(F.f.eval_batch(nodes) - Y[i])
        assert starts[i].tobytes() == nodes[np.argmin(resid)].tobytes()


def test_empty_preimage_reported_infinite_for_polynomial():
    # x^2 - 1 = y has no solution for y < -1
    F = MultiMap(PolynomialMap(1, [[(1.0, (2,)), (-1.0, (0,))]]),
                 Singleton(np.zeros(1)))
    assert preimage_distance(F, [-2.0], [0.0]) == np.inf
    assert preimage_distance(F, [0.0], [0.0]) == pytest.approx(
        1.0, abs=1e-6)


def _random_polynomial(gen, dim_in, dim_out, max_terms=4):
    """Signed coefficients, total degree at most 4, a constant per output."""
    outputs = []
    for _ in range(dim_out):
        terms = [(gen.uniform(-1.0, 1.0), (0,) * dim_in)]
        for _ in range(gen.integers(1, max_terms + 1)):
            left, exps = 4, []
            for _ in range(dim_in):
                exps.append(int(gen.integers(0, left + 1)))
                left -= exps[-1]
            terms.append((gen.uniform(-2.0, 2.0), tuple(exps)))
        outputs.append(terms)
    return PolynomialMap(dim_in, outputs)


def _random_polynomial_problem(gen, kind):
    dim_in = int(gen.integers(1, 4))
    dim_out = 2 if kind == "product" else int(gen.integers(1, 3))
    c = gen.uniform(-1.0, 1.0, dim_out)
    K = {"singleton": lambda: Singleton(c),
         "ball": lambda: Ball(c, gen.uniform(0.0, 0.5)),
         "product": lambda: ProductSet((Ball(c[:1], gen.uniform(0.0, 0.5)),
                                        Singleton(c[1:]))),
         "orthant": lambda: Polyhedron(np.eye(dim_out), np.zeros(dim_out)),
         }[kind]()
    return MultiMap(_random_polynomial(gen, dim_in, dim_out), K)


def _unscreened(F, Y, X):
    """preimage_distance_batch with the range screen switched off, so every
    row runs the search (_gauss_newton_rows)."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(multimap, "_no_preimage_rows",
                   lambda F, Y, lo, hi: np.zeros(Y.shape[0], dtype=bool))
        return preimage_distance_batch(F, Y, X)


@settings(max_examples=16, deadline=None)
@given(st.sampled_from(sorted(_gauss_newton_maps())
                       + ["singleton", "ball", "product", "orthant"]),
       st.integers(0, 2 ** 32 - 1))
def test_range_screen_moves_no_bit(name, seed):
    # a row the screen excludes is one the search gives +inf, so the
    # screened batch is the unscreened one bit for bit
    gen = np.random.default_rng(seed)
    F = _gauss_newton_maps().get(name) or _random_polynomial_problem(gen,
                                                                     name)
    X = gen.uniform(-1.5, 1.5, size=(10, F.dim_in))
    Y = gen.uniform(-3.0, 3.0, size=(10, F.dim_out))
    batch = preimage_distance_batch(F, Y, X)
    assert batch.tobytes() == _unscreened(F, Y, X).tobytes()


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 32 - 1))
def test_polynomial_range_encloses_the_map(seed):
    from regcert.multimap import _polynomial_range
    gen = np.random.default_rng(seed)
    f = _random_polynomial(gen, int(gen.integers(1, 4)),
                           int(gen.integers(1, 3)))
    B, n = 8, f.dim_in
    lo = gen.uniform(-2.0, 1.0, (B, n))
    hi = lo + gen.uniform(0.0, 2.0, (B, n))
    flo, fhi, size = _polynomial_range(f, lo, hi)
    assert np.all(flo <= fhi) and np.all(size >= np.abs(flo))
    # random points, every corner, and the point nearest 0, where an even
    # power of a box that straddles 0 is least
    t = gen.random((B, 16, n))
    bits = np.indices((2,) * n).reshape(n, -1).T
    pts = np.concatenate([lo[:, None] + t * (hi - lo)[:, None],
                          np.where(bits[None], hi[:, None], lo[:, None]),
                          np.clip(0.0, lo, hi)[:, None]], axis=1)
    vals = f.eval_batch(pts.reshape(-1, n)).reshape(B, pts.shape[1], -1)
    slack = 1e-12 * (1.0 + size[:, None])
    assert np.all(vals >= flo[:, None] - slack)
    assert np.all(vals <= fhi[:, None] + slack)


@pytest.mark.parametrize("K", [
    Singleton(np.array([0.5, -1.0])),
    Ball(np.array([0.5, -1.0]), 0.7),
    ProductSet((Ball(np.zeros(1), 0.3), Singleton(np.ones(1)))),
    Polyhedron(np.eye(2), np.zeros(2)),
    # skew rows send every projection to the Dykstra fallback, which here
    # leaves z_0 up to 1e-11 past its axis-aligned bound
    Polyhedron(np.array([[1.0, 1.0], [2.0, 0.0], [0.0, -1.0], [1.0, -3.0]]),
               np.array([1.5, 1.0, 2.0, 1.0])),
], ids=["singleton", "ball", "product", "orthant", "skew"])
def test_outer_box_holds_every_projection(K):
    from regcert.multimap import _outer_box
    gen = np.random.default_rng(5)
    far = 10.0 * np.concatenate([np.eye(2), -np.eye(2)])
    P = np.concatenate([gen.normal(scale=10.0, size=(200, 2)), far])
    Q = K.project_batch(P)
    blo, bhi = _outer_box(K)
    assert np.all(Q >= blo - 1e-12) and np.all(Q <= bhi + 1e-12)


def test_range_screen_skips_rows_without_a_preimage():
    # parabola_eb, f(x) = x^2 into {0}: y < 0 has no preimage.  A row with
    # y <= -1e-6 never reaches the search; y = -5e-9 lies inside the
    # search's tolerance, so it runs and keeps its finite value
    F = builtin("parabola_eb").F
    X = np.linspace(-1.0, 1.0, 12)[:, None]
    Y = np.concatenate([-np.geomspace(1e-6, 2.0, 6), [-5e-9] * 3,
                        [0.0, 0.25, 1.0]])[:, None]
    seen = []
    search = multimap._damped_gauss_newton

    def counting(F, Yrows, *args):
        seen.append(Yrows.copy())
        return search(F, Yrows, *args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(multimap, "_damped_gauss_newton", counting)
        batch = preimage_distance_batch(F, Y, X)
    seen = np.concatenate(seen)
    assert seen.size and np.all(seen > -1e-6)
    assert np.any(seen == -5e-9)
    assert np.all(np.isinf(batch[:6])) and np.all(np.isfinite(batch[6:]))
    assert batch.tobytes() == _unscreened(F, Y, X).tobytes()


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
    # the scale search is only one of the two estimates, so it can only be
    # larger than the combined value
    v_grid = _scale_search(F.K, F.f.eval_batch(X) - Y, dc)
    assert np.all(v_grid >= vals - 1e-12)
    assert np.all(v_grid[certified] - vals[certified]
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


def _screen_bound(K, Cres, dc):
    """The screen's secant bound and its margin, per row of Cres."""
    _, lb, margin = _scale_search(K, Cres, dc, bound=True,
                                  grid=multimap._SCREEN_GRID, zooms=0)
    return lb, margin


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


def _split_tolerances(F, X, Y, dc):
    """Tolerances halfway between the two routes on up to three rows where
    the alternating route is lower: each leaves that row's decision to the
    alternating route."""
    vals, _ = membership_values(F, X, Y, dc)
    v_grid = _scale_search(F.K, F.f.eval_batch(X) - Y, dc)
    split = np.flatnonzero(vals < v_grid)[:3]
    return list((vals[split] + v_grid[split]) / 2)


@settings(max_examples=15, deadline=None)
@given(st.sampled_from(sorted(_membership_cases())),
       st.integers(0, 2 ** 32 - 1))
# the two cases with assertions of their own run on every test run
@example("halfplane_directional", 0)
@example("ray_along_ybar", 0)
def test_member_mask_is_the_membership_decision(name, seed):
    F, dc = _membership_cases()[name]
    gen = np.random.default_rng(seed)
    X, Y = _membership_rows(F, gen, 60)
    if name == "halfplane_directional":
        # c = f(x) - y = (-0.3, -1.4) lies below K = {0} x (-inf, 0]: phi
        # falls at slope delta up to lam = 1.4, then bottoms out at
        # 0.3 sqrt(1 - delta^2) - 1.4 delta ~ 0.0139, a dip the screen's
        # nine points straddle and the scale search's points resolve
        X, Y = np.vstack([X, [[1.0]]]), np.vstack([Y, [[1.3, 1.4]]])
    vals, _ = membership_values(F, X, Y, dc)
    Cres = F.f.eval_batch(X) - Y
    for tol in [TOL_MEMBER, 1e-5, 1e-2, *_split_tolerances(F, X, Y, dc)]:
        mask = _member_mask(F, X, Y, dc, tol)
        assert mask.tobytes() == (vals <= tol).tobytes(), tol
    # neither the screen's bound nor the scale search's exceeds the full
    # value by more than the stated margin, and neither gives a bound where
    # phi falls without end
    lb, margin = _screen_bound(F.K, Cres, dc)
    searched = _scale_search(F.K, Cres, dc, bound=True)
    _, search_lb, search_margin = searched
    assert search_margin.tobytes() == margin.tobytes()
    # the kernel gives the search's outputs on the rows the screen leaves
    # open, and +inf with the screen's bound on the others
    kernel = _screened_search(F, X, Y, dc, TOL_MEMBER, bound=True)[1:]
    shut = lb > TOL_MEMBER + margin
    screened = (np.inf, lb, margin)
    for k, s, ref in zip(kernel, searched, screened):
        assert k.tobytes() == np.where(shut, ref, s).tobytes()
    assert np.all(lb <= vals + margin)
    assert np.all(search_lb <= vals + margin)
    if name == "ray_along_ybar":
        assert np.all(lb == -np.inf) and np.all(search_lb == -np.inf)
    if name == "halfplane_directional":
        # the search's bound rejects the row added above, which the screen
        # leaves open
        thr = TOL_MEMBER + margin[-1]
        assert lb[-1] <= thr < search_lb[-1]


def _full_search_member_mask(F, X, Y, dc, tol):
    """_member_mask as it was before rows left the scale search once their
    decision was settled: every row the screen leaves open runs every zoom
    round, the reference the retiring search must match bit for bit."""
    Cres, vals, lb, margin = _screened_search(F, X, Y, dc, tol, bound=True)
    member = vals <= tol
    rest = np.flatnonzero((vals > tol) & (lb <= tol + margin))
    if rest.size:
        member[rest] = multimap._alternate(F.K, Cres[rest], dc) <= tol
    return member


@settings(max_examples=12, deadline=None)
@given(st.sampled_from(sorted(_membership_cases())),
       st.integers(0, 2 ** 32 - 1),
       st.sampled_from([multimap._MEMBERSHIP_POINTS, 320]))
@example("halfplane_directional", 0, 320)
def test_member_mask_is_the_full_search_mask(name, seed, points):
    # rows that leave the scale search once settled take the decisions
    # of the full search, whether a pass holds the default 128 rows or 5
    F, dc = _membership_cases()[name]
    X, Y = _membership_rows(F, np.random.default_rng(seed), 60)
    tols = [TOL_MEMBER, 1e-5, 1e-2, *_split_tolerances(F, X, Y, dc)]
    refs = [_full_search_member_mask(F, X, Y, dc, tol) for tol in tols]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(multimap, "_MEMBERSHIP_POINTS", points)
        for tol, ref in zip(tols, refs):
            mask = _member_mask(F, X, Y, dc, tol)
            assert mask.tobytes() == ref.tobytes(), (name, tol)


def test_zoom_rounds_run_only_open_rows():
    # _phi passes counted by lam width: 9 the screen, 64 the scale search's
    # grid, 17 a zoom round
    F, dc = _membership_cases()["halfplane_directional"]
    X, Y = _membership_rows(F, np.random.default_rng(0), 60)
    vals, _ = membership_values(F, X, Y, dc)
    passes, alternated = [], []
    phi, alternate = multimap._phi, multimap._alternate

    def counting_phi(K, Cres, dc, lam):
        passes.append(lam.shape)
        return phi(K, Cres, dc, lam)

    def counting_alternate(K, Cres, dc):
        alternated.append(Cres.shape[0])
        return alternate(K, Cres, dc)

    def run(rows, tol):
        """Grid and zoom pass sizes of _member_mask on the given rows."""
        passes.clear()
        alternated.clear()
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(multimap, "_phi", counting_phi)
            mp.setattr(multimap, "_alternate", counting_alternate)
            mask = _member_mask(F, X[rows], Y[rows], dc, tol)
        assert mask.tobytes() == (vals[rows] <= tol).tobytes(), tol
        return ([n for n, width in passes if width == 64],
                [n for n, width in passes if width == 17])

    # each zoom round sees no more rows than the pass before it, and all
    # four together see fewer than the grid pass, where the full search
    # gives each of them every row of the grid pass
    grid, zoom = run(np.arange(60), TOL_MEMBER)
    assert len(grid) == 1 and len(zoom) == multimap._ZOOM_ROUNDS
    assert all(a >= b for a, b in zip(grid + zoom, zoom))
    assert 0 < sum(zoom) < grid[0]
    # rows the grid pass settles, some admitted and some rejected by its
    # bound, make no 17-point pass and never reach the alternating route
    Cres = F.f.eval_batch(X) - Y
    v, lb, margin = _scale_search(F.K, Cres, dc, bound=True, zooms=0)
    admit = v <= TOL_MEMBER
    reject = ~admit & (lb > TOL_MEMBER + margin)
    screen_lb, screen_margin = _screen_bound(F.K, Cres, dc)
    open_ = screen_lb <= TOL_MEMBER + screen_margin
    assert np.any(admit & open_) and np.any(reject & open_)
    settled = np.flatnonzero((admit | reject) & open_)
    grid, zoom = run(settled, TOL_MEMBER)
    assert grid == [settled.size] and zoom == [] and alternated == []
    # at a split tolerance the alternating route decides the rows the
    # search leaves open
    tols = _split_tolerances(F, X, Y, dc)
    assert tols
    for tol in tols:
        run(np.arange(60), tol)
        assert len(alternated) == 1 and alternated[0] > 0, tol


def test_undecided_rows_skip_a_second_scale_search():
    # at a split tolerance the scale search runs once, on the rows the
    # screen leaves open, and the alternating route alone decides the rows
    # it leaves undecided
    searched = []
    search = multimap._scale_search

    def counting(K, Cres, dc, **kw):
        searched.append((kw.get("zooms", multimap._ZOOM_ROUNDS),
                         Cres.shape[0]))
        return search(K, Cres, dc, **kw)

    n_split = 0
    for name, (F, dc) in sorted(_membership_cases().items()):
        for seed in (0, 1):
            X, Y = _membership_rows(F, np.random.default_rng(seed), 60)
            vals, _ = membership_values(F, X, Y, dc)
            lb, margin = _screen_bound(F.K, F.f.eval_batch(X) - Y, dc)
            for tol in _split_tolerances(F, X, Y, dc):
                n_split += 1
                searched.clear()
                with pytest.MonkeyPatch.context() as mp:
                    mp.setattr(multimap, "_scale_search", counting)
                    mask = _member_mask(F, X, Y, dc, tol)
                # the screen, with no zoom round, sees every row once
                assert searched == [(0, len(X)),
                                    (multimap._ZOOM_ROUNDS,
                                     np.sum(lb <= tol + margin))], name
                assert mask.tobytes() == (vals <= tol).tobytes(), name
    assert n_split > 0


def test_secant_bound_on_a_parabola():
    # phi(lam) = (lam - 1)^2 - 0.5, least value -0.5 at lam = 1, sampled
    # on nine even points of a bracket per row
    brackets = {"from zero, holds the minimizer": (0.0, 3.0, True),
                "above zero, holds the minimizer": (0.5, 1.5, True),
                "right of the minimizer: the head rises": (1.5, 3.0, False),
                "left of the minimizer: the tail falls": (0.2, 0.8, False),
                "of zero width": (1.0, 1.0, False)}
    lam = np.array([np.linspace(lo, hi, 9) for lo, hi, _ in
                    brackets.values()])
    phi = (lam - 1.0) ** 2 - 0.5
    lb = _secant_bound(lam, phi, np.full(lam.shape[0], 1e-9))
    # with spacing h the neighbours' secants sit within h^2 of phi
    for (name, (lo, hi, bounded)), b in zip(brackets.items(), lb):
        h = (hi - lo) / 8
        assert (-0.5 - h * h < b <= -0.5) if bounded else b == -np.inf, name
    # an end secant that moves by less than margin / 4 gives no bound, and
    # neither does a NaN value
    assert _secant_bound(lam[1:2], phi[1:2], np.array([1.0]))[0] == -np.inf
    phi[0, 4] = np.nan
    assert _secant_bound(lam[:1], phi[:1], np.array([1e-9]))[0] == -np.inf


@settings(max_examples=15, deadline=None)
@given(st.sampled_from(sorted(_membership_cases())),
       st.integers(0, 2 ** 32 - 1), st.sampled_from([1, 5]),
       st.sampled_from([None, TOL_MEMBER, 1e-2]))
@example("halfplane_directional", 0, 5, 1e-2)
def test_scale_search_bound_rows_are_batch_independent(name, seed, chunk,
                                                       tol):
    # a row's value, bound and margin are the same bits alone, in a batch
    # and across chunk boundaries, and asking for the bound leaves the
    # values as they are.  With a threshold tol a row leaves the search
    # once settled: one that runs every pass gets the full search's bits,
    # and every row gets the full search's decisions
    F, dc = _membership_cases()[name]
    gen = np.random.default_rng(seed)
    X, Y = _membership_rows(F, gen, 12)
    Cres = F.f.eval_batch(X) - Y
    full = _scale_search(F.K, Cres, dc, bound=True)
    whole = _scale_search(F.K, Cres, dc, bound=True, tol=tol)
    if tol is None:
        assert whole[0].tobytes() == _scale_search(F.K, Cres, dc).tobytes()
    else:
        decisions = [(v <= tol, (v > tol) & (lb > tol + margin))
                     for v, lb, margin in (full, whole)]
        for a, b in zip(*decisions):
            assert a.tobytes() == b.tobytes()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(multimap, "_MEMBERSHIP_POINTS",
                   chunk * multimap._SEARCH_GRID.size)
        chunked = _scale_search(F.K, Cres, dc, bound=True, tol=tol)
    passes = []
    phi = multimap._phi

    def counting(K, C, dc, lam):
        passes.append(lam.shape)
        return phi(K, C, dc, lam)

    for i in range(12):
        passes.clear()
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(multimap, "_phi", counting)
            alone = _scale_search(F.K, Cres[i:i + 1], dc, bound=True, tol=tol)
        for a, w, c in zip(alone, whole, chunked):
            assert a.tobytes() == w[i:i + 1].tobytes() == c[i:i + 1].tobytes()
        if len(passes) == 1 + multimap._ZOOM_ROUNDS:
            for a, f in zip(alone, full):
                assert a.tobytes() == f[i:i + 1].tobytes(), i


@settings(max_examples=8, deadline=None)
@given(st.sampled_from(sorted(_membership_cases())),
       st.integers(0, 2 ** 32 - 1))
def test_membership_rows_are_batch_independent(name, seed):
    # each row, run alone, gets the bits of its value and of its certified
    # flag that it gets in the batch, and of its scale-search value
    F, dc = _membership_cases()[name]
    gen = np.random.default_rng(seed)
    X, Y = _membership_rows(F, gen, 12)
    vals, certified = membership_values(F, X, Y, dc)
    v_grid = _scale_search(F.K, F.f.eval_batch(X) - Y, dc)
    for i in range(12):
        one = slice(i, i + 1)
        v, c = membership_values(F, X[one], Y[one], dc)
        assert v.tobytes() == vals[one].tobytes(), i
        assert c.tobytes() == certified[one].tobytes(), i
        g = _scale_search(F.K, F.f.eval_batch(X[one]) - Y[one], dc)
        assert g.tobytes() == v_grid[one].tobytes(), i


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


def _unscreened_envelope(F, dc, X, Y, tol, lipschitz):
    """The envelope built from the unscreened scale-search values of every
    row and every probe.  Returns it with the shell and hit row counts."""
    vals = _scale_search(F.K, F.f.eval_batch(X) - Y, dc)
    member = vals <= tol
    out = np.full(X.shape[0], np.inf)
    out[member] = image_distance_batch(F, X[member], Y[member])
    shell = np.flatnonzero(~member
                           & (vals <= tol * (1.0 + lipschitz) * 1.001))
    if shell.size == 0:
        return out, 0, 0
    radii = tol * 0.5 ** np.arange(5)
    offs = (_probe_directions(F.dim_in)[None, :, :]
            * radii[:, None, None]).reshape(-1, F.dim_in)
    P = (X[shell][:, None, :] + offs[None, :, :]).reshape(-1, F.dim_in)
    pv = _scale_search(F.K, F.f.eval_batch(P)
                       - np.repeat(Y[shell], len(offs), axis=0), dc)
    hit = shell[np.any(pv.reshape(shell.size, -1) <= tol, axis=1)]
    out[hit] = image_distance_batch(F, X[hit], Y[hit])
    return out, shell.size, hit.size


def _envelope_rows(F, gen, rows, tol):
    # half the rows anywhere, half within 0.1 .. 4 tol of F(x), so that
    # rows just outside the tube reach the shell and its probes
    X = gen.uniform(-2.0, 2.0, (rows, F.dim_in))
    Y = gen.uniform(-2.0, 2.0, (rows, F.dim_out))
    near = np.arange(rows) % 2 == 1
    scale = tol * 10.0 ** gen.uniform(-1.0, 0.6, near.sum())
    Y[near] = (F.f.eval_batch(X[near]) - F.K.project_batch(Y[near])
               + scale[:, None] * gen.standard_normal((near.sum(),
                                                       F.dim_out)))
    return X, Y


def test_screened_envelope_is_the_unscreened_envelope():
    # the screen only skips the scale search on rows whose decisions it
    # has already settled, so the envelope keeps every bit; one y per row.
    # Across the cases some rows must reach the shell, and some of those
    # must stay outside after probing.
    shells = hits = 0
    for name, (F, dc) in sorted(_membership_cases().items()):
        gen = np.random.default_rng(17)
        for tol in (TOL_MEMBER, 1e-3):
            X, Y = _envelope_rows(F, gen, 100, tol)
            env = envelope_batch(F, dc, X, Y, tol, 1.5)
            ref, n_shell, n_hit = _unscreened_envelope(F, dc, X, Y, tol,
                                                       1.5)
            assert env.tobytes() == ref.tobytes(), (name, tol)
            shells += n_shell
            hits += n_hit
    assert shells > hits > 0


@settings(max_examples=8, deadline=None)
@given(st.sampled_from(sorted(_membership_cases())),
       st.integers(0, 2 ** 32 - 1))
def test_envelope_rows_are_batch_independent(name, seed):
    # a (B, m) y pairs row s of X with row s of y; each row gets the bits
    # that one-row call with the matching 1-d y gives it
    F, dc = _membership_cases()[name]
    gen = np.random.default_rng(seed)
    X, Y = _envelope_rows(F, gen, 10, 1e-3)
    env = envelope_batch(F, dc, X, Y, 1e-3, 1.5)
    for i in range(10):
        one = envelope_batch(F, dc, X[i:i + 1], Y[i], 1e-3, 1.5)
        assert one.tobytes() == env[i:i + 1].tobytes(), i


@pytest.mark.parametrize("points", [9, 320],
                         ids=["screen1-search1", "screen35-search5"])
def test_membership_chunk_boundaries_move_no_bit(points):
    # passes of _MEMBERSHIP_POINTS grid points split the screen after every
    # 1 or 35 rows and the scale search after every 1 or 5; the searched
    # values and bounds, the decisions and the envelope keep the bits of
    # the default passes
    for name, (F, dc) in sorted(_membership_cases().items()):
        gen = np.random.default_rng(29)
        X, Y = _membership_rows(F, gen, 30)
        Xe, Ye = _envelope_rows(F, gen, 40, 1e-3)
        tols = [TOL_MEMBER, 1e-2, *_split_tolerances(F, X, Y, dc)]
        searched = _screened_search(F, X, Y, dc, TOL_MEMBER, bound=True)[1:]
        masks = [_member_mask(F, X, Y, dc, tol) for tol in tols]
        env = envelope_batch(F, dc, Xe, Ye, 1e-3, 1.5)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(multimap, "_MEMBERSHIP_POINTS", points)
            chunked = _screened_search(F, X, Y, dc, TOL_MEMBER,
                                       bound=True)[1:]
            for a, b in zip(chunked, searched):
                assert a.tobytes() == b.tobytes(), name
            for tol, mask in zip(tols, masks):
                chunked = _member_mask(F, X, Y, dc, tol)
                assert chunked.tobytes() == mask.tobytes(), (name, tol)
            chunked = envelope_batch(F, dc, Xe, Ye, 1e-3, 1.5)
            assert chunked.tobytes() == env.tobytes(), name


def test_envelope_rejects_y_of_the_wrong_shape():
    F, dc = _membership_cases()["halfplane_directional"]
    X = np.zeros((4, F.dim_in))
    for Y in (np.zeros((3, 2)), np.zeros((4, 3)), np.zeros((4, 1))):
        with pytest.raises(DimensionMismatch):
            envelope_batch(F, dc, X, Y)
    with pytest.raises(DimensionMismatch):
        envelope_batch(F, dc, X, np.zeros(3))


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
