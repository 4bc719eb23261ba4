"""Set-valued map metrics: images, preimages, membership, envelope."""

from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import axis_clamp_case
from regcert.errors import DimensionMismatch, NotPolyhedral
from regcert.geometry import (
    TOL_MEMBER,
    Ball,
    DirectionalCone,
    Polyhedron,
    ProductSet,
    Singleton,
    face_table,
    row_matmul,
)
from regcert import multimap
from regcert.instances import builtin
from regcert.problems import load_problem
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
    membership_values,
    preimage_distance,
    preimage_distance_batch,
    preimage_projection_batch,
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


def _affine_eval_reference(f, X):
    # reference: AffineMap.eval_batch before it added b one column at a time
    return row_matmul(X, f.A.T) + f.b[None, :]


@pytest.mark.parametrize("seed", range(6))
def test_affine_eval_keeps_the_broadcast_bits(seed):
    # signed zeros in A, b and X, infinities in X (inf * 0 gives NaN in the
    # product), and batches of 0, 1, 2 and 57 rows
    gen = np.random.default_rng(seed)
    special = np.array([0.0, -0.0, np.inf, -np.inf, 1.0, -2.5])
    for dim_out in range(1, 5):
        for dim_in in range(1, 5):
            A = gen.standard_normal((dim_out, dim_in))
            A[gen.random(A.shape) < 0.3] = -0.0
            A[gen.random(A.shape) < 0.2] = 0.0
            b = gen.standard_normal(dim_out)
            b[gen.random(dim_out) < 0.4] = gen.choice([0.0, -0.0])
            f = AffineMap(A, b)
            for rows in (0, 1, 2, 57):
                X = gen.standard_normal((rows, dim_in))
                hit = gen.random(X.shape) < 0.2
                X[hit] = gen.choice(special, int(hit.sum()))
                with np.errstate(invalid="ignore"):
                    got = f.eval_batch(X)
                    want = _affine_eval_reference(f, X)
                assert got.shape == want.shape == (rows, dim_out)
                assert got.tobytes() == want.tobytes(), (dim_out, dim_in,
                                                         rows)


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
    # active set certifies a point, Dykstra cannot converge, and the
    # least-distance solve certifies the system empty
    F = MultiMap(AffineMap(np.ones((2, 1)), np.zeros(2)),
                 Polyhedron(np.array([[1.0, 0.0], [0.0, -1.0]]),
                            np.array([0.0, -1.0])))
    Y = np.array([[0.0, 0.0], [2.0, 0.0], [0.5, -0.5]])
    got = preimage_distance_batch(F, Y, np.array([[0.3], [0.3], [0.3]]))
    assert got[0] == np.inf
    assert got[1] == pytest.approx(0.7, abs=1e-9)
    assert got[2] == pytest.approx(0.2, abs=1e-9)
    # the nearest points behind those distances: none for the empty row
    P, dist = preimage_projection_batch(F, Y, np.array([[0.3], [0.3],
                                                        [0.3]]))
    assert dist.tobytes() == got.tobytes()
    assert np.isnan(P[0, 0])
    assert P[1:, 0] == pytest.approx([1.0, 0.5], abs=1e-9)


def test_preimage_crossed_by_a_rounding_certificate_is_infinite():
    # f(x) = C x into K = {z <= d}, with C, rhs and the 40 points x of
    # the clamp property's example (122175, 2, 5, False), d = rhs + 0.01
    # e_5 and y = rhs - d: y0 = 0 lies in F((0, -0.144)), but F^-1(y) =
    # {x : C x <= rhs} is empty, bounding x2 below by -0.14542 and above
    # by -0.14631.  The least-distance NNLS certifies it with multipliers
    # near 4e3, whose residual rounds to 1.1e-12-1.8e-12.
    C, rhs, X, _ = axis_clamp_case(122175, 2, 5, False)
    d = rhs[0] + np.array([0.0, 0.0, 0.0, 0.0, 0.01])
    F = MultiMap(AffineMap(C, np.zeros(5)), Polyhedron(np.eye(5), d))
    assert image_distance(F, [0.0, -0.144], np.zeros(5)) == 0.0
    Y = np.broadcast_to(rhs - d, (X.shape[0], 5))
    assert np.all(preimage_distance_batch(F, Y, X) == np.inf)


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
    with pytest.raises(NotPolyhedral):
        preimage_projection_batch(poly, np.zeros((1, 2)), np.zeros((1, 2)))
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


def _pinv_step(J, R, rcond):
    """Reference: the step as _damped_gauss_newton took it before the 1x1
    closed form, through np.linalg.pinv."""
    return -(np.linalg.pinv(J, rcond=rcond) @ R[:, :, None])[..., 0]


_EPS = np.finfo(float).eps


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(st.sampled_from([-1.0, 1.0]),
                          st.floats(1.0, 2.0, exclude_max=True),
                          st.integers(-400, 400),
                          st.floats(-1e100, 1e100)),
                min_size=1, max_size=8))
@example([(1.0, 1.5, 0, -0.0), (-1.0, 1.0, -400, 0.0),
          (-1.0, 1.25, 400, -3.0)])
def test_scalar_gauss_newton_step_is_pinv_bit_for_bit(rows):
    # |a| in [2^-400, 2^401), inside the range where LAPACK's SVD does not
    # rescale a 1x1 matrix, so pinv's 1 / |a| is the correctly rounded one;
    # a product of -0 is summed to +0, as matmul sums it
    a = np.array([s * np.ldexp(m, e) for s, m, e, _ in rows])
    R = np.array([[r] for *_, r in rows])
    step = multimap._gauss_newton_step(a[:, None, None], R, _EPS)
    assert step.tobytes() == _pinv_step(a[:, None, None], R, _EPS).tobytes()


@pytest.mark.parametrize("a", [0.0, -0.0, np.inf, -np.inf])
def test_scalar_gauss_newton_step_of_a_zero_or_infinite_jacobian(a):
    # pinv's cutoff drops the singular value: the inverse is +0, and the
    # step is -(+0 r + 0) whatever the sign of r
    R = np.array([[1.5], [-1.5], [0.0], [-0.0]])
    J = np.full((4, 1, 1), a)
    step = multimap._gauss_newton_step(J, R, _EPS)
    assert step.tobytes() == _pinv_step(J, R, _EPS).tobytes()
    assert step.tobytes() == np.full((4, 1), -0.0).tobytes()


def test_scalar_gauss_newton_step_raises_on_a_nan_jacobian():
    J, R = np.array([[[2.0]], [[np.nan]]]), np.ones((2, 1))
    with pytest.raises(np.linalg.LinAlgError):
        _pinv_step(J, R, _EPS)
    with pytest.raises(np.linalg.LinAlgError):
        multimap._gauss_newton_step(J, R, _EPS)


@pytest.mark.parametrize("shape", [(1, 2), (2, 1), (2, 2)])
def test_larger_gauss_newton_steps_go_through_pinv(shape, monkeypatch):
    gen = np.random.default_rng(5)
    J = gen.standard_normal((6, *shape))
    R = gen.standard_normal((6, shape[0]))
    want = _pinv_step(J, R, 2 * _EPS)
    calls = []
    pinv = np.linalg.pinv
    monkeypatch.setattr(np.linalg, "pinv", lambda *args, **kw: (
        calls.append(1) or pinv(*args, **kw)))
    step = multimap._gauss_newton_step(J, R, 2 * _EPS)
    assert calls == [1] and step.tobytes() == want.tobytes()


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


def _search_boxes(X):
    """The search and clip boxes _gauss_newton_preimage gives rows X."""
    boxes = np.stack([X - 2.0, X + 2.0], axis=-1)
    width = boxes[..., 1] - boxes[..., 0]
    return boxes, boxes[..., 0] - width, boxes[..., 1] + width


def sequential_gauss_newton_rows(F, Y, X, boxes, lo, hi, improved=None):
    """Reference: _gauss_newton_rows as it was before the pull rounds ran
    in waves, one round at a time over every live row, corners from
    np.indices.  Appends each round's improving rows to improved."""
    B, n = X.shape
    bits = np.indices((2,) * n).reshape(n, -1).T[:multimap._GN_MAX_CORNERS]
    corners = boxes[:, np.arange(n), bits]
    starts = np.concatenate(
        [X[:, None, :], boxes.mean(axis=-1)[:, None, :], corners], axis=1)
    S = starts.shape[1]
    U, ok = multimap._damped_gauss_newton(
        F, np.repeat(Y, S, axis=0), starts.reshape(-1, n),
        np.repeat(lo, S, axis=0), np.repeat(hi, S, axis=0))
    U, ok = U.reshape(B, S, n), ok.reshape(B, S)
    dists = np.where(ok, np.linalg.norm(X[:, None, :] - U, axis=-1), np.inf)
    first = np.argmin(dists, axis=1)
    u_best, d_best = U[np.arange(B), first], dists[np.arange(B), first]

    def take_nearer(rows, U0):
        u, found = multimap._damped_gauss_newton(F, Y[rows], U0, lo[rows],
                                                 hi[rows])
        dd = np.linalg.norm(X[rows] - u, axis=-1)
        better = found & (dd < d_best[rows])
        u_best[rows[better]] = u[better]
        d_best[rows[better]] = dd[better]
        return rows[better]

    lost = np.flatnonzero(~ok.any(axis=1))
    if lost.size:
        take_nearer(lost, multimap._grid_starts(F, Y[lost], boxes[lost]))
    live = np.flatnonzero(np.isfinite(d_best))
    for t in multimap._GN_PULL:
        x = X[live]
        rows = take_nearer(live, x + t * (u_best[live] - x))
        if improved is not None:
            improved.append(rows)
    return d_best


@settings(max_examples=10, deadline=None)
@given(st.sampled_from(sorted(_gauss_newton_maps())
                       + ["singleton", "ball", "product", "orthant"]),
       st.sampled_from([1, 20, 300]), st.integers(0, 2 ** 32 - 1))
@example("parabola_eb", 300, 0)
@example("round_K", 20, 0)
def test_pull_waves_match_the_sequential_rounds(name, rows, seed):
    # every wave runs all remaining rounds of every live row, in a batch
    # of 1, 20 or 300 rows; in each the bits of the sequential loop
    gen = np.random.default_rng(seed)
    F = _gauss_newton_maps().get(name) or _random_polynomial_problem(gen,
                                                                     name)
    X = gen.uniform(-1.5, 1.5, size=(rows, F.dim_in))
    Y = gen.uniform(-1.0, 1.0, size=(rows, F.dim_out))
    args = (F, Y, X, *_search_boxes(X))
    ref = sequential_gauss_newton_rows(*args)
    assert multimap._gauss_newton_rows(*args).tobytes() == ref.tobytes()


# rows whose pull rounds improve: rounds 3-11 in a row, rounds 1 and 4-11,
# and only the last round
_IMPROVING_ROWS = (
    ("parabola_eb", [-0.5343918267721736], [0.18784840322633656],
     [3, 4, 5, 6, 7, 8, 9, 10, 11]),
    ("parabola_eb", [-1.1835141612893114], [0.021413011087290545],
     [1, 4, 5, 6, 7, 8, 9, 10, 11]),
    ("polynomial_orthant", [-0.04249392350463266, 1.1684635030470005],
     [-0.6055301054082629, 0.6162735036271363], [11]),
)


@pytest.mark.parametrize("name, x, y, rounds", _IMPROVING_ROWS)
def test_pull_waves_keep_each_improving_round(name, x, y, rounds):
    # alone and among 299 other rows, the row takes the sequential loop's
    # value; the loop shows it improves at exactly these rounds
    F = _gauss_newton_maps()[name]
    gen = np.random.default_rng(3)
    X = np.concatenate([[x], gen.uniform(-1.5, 1.5, (299, F.dim_in))])
    Y = np.concatenate([[y], gen.uniform(0.0, 1.0, (299, F.dim_out))])
    for B in (1, 300):
        args = (F, Y[:B], X[:B], *_search_boxes(X[:B]))
        improved = []
        ref = sequential_gauss_newton_rows(*args, improved=improved)
        assert [r for r, rows in enumerate(improved) if 0 in rows] == rounds
        assert multimap._gauss_newton_rows(*args).tobytes() == ref.tobytes()


def test_small_batch_pulls_in_one_wave():
    # B rows with y = x^2 on parabola_eb: every row converges at its
    # first start and no pull round improves, so the search is the first
    # stage (4 starts a row) and one 12-round wave, however many rows
    F = _gauss_newton_maps()["parabola_eb"]
    search = multimap._damped_gauss_newton
    for B in (21, 300):
        X = np.linspace(0.5, 1.5, B)[:, None]
        Y = X ** 2
        calls = []

        def counting(F, Yrows, *args):
            calls.append(Yrows.shape[0])
            return search(F, Yrows, *args)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(multimap, "_damped_gauss_newton", counting)
            d = multimap._gauss_newton_rows(F, Y, X, *_search_boxes(X))
        assert calls == [B * 4, B * 12]
        assert np.all(d == 0.0)


@pytest.mark.parametrize("n", range(1, 11))
def test_start_corners_are_the_first_np_indices_patterns(n):
    # the first stage's starts: x, the box center, then the first
    # min(2^n, 64) corners in np.indices order
    F = MultiMap(PolynomialMap(n, [[(1.0, (1,) * n)]]),
                 Singleton(np.zeros(1)))
    X = np.random.default_rng(n).uniform(-1.0, 1.0, (1, n))
    boxes, lo, hi = _search_boxes(X)
    starts = []
    search = multimap._damped_gauss_newton

    def recording(F, Yrows, U0, *args):
        starts.append(U0.copy())
        return search(F, Yrows, U0, *args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(multimap, "_damped_gauss_newton", recording)
        multimap._gauss_newton_rows(F, np.zeros((1, 1)), X, boxes, lo, hi)
    bits = np.indices((2,) * n).reshape(n, -1).T[:64]
    want = np.concatenate([X, boxes.mean(axis=-1), boxes[0, np.arange(n),
                                                         bits]])
    assert starts[0].tobytes() == want.tobytes()


def test_many_input_row_builds_only_the_corners_it_starts_from():
    # 40 inputs: all 40 * 2^40 corner entries would take 350 TB; the 64
    # corners the search starts from take 20 KB
    import tracemalloc
    n = 40
    F = MultiMap(PolynomialMap(n, [[(1.0, tuple(int(j == i)
                                                 for j in range(n)))
                                    for i in range(n)]]),
                 Singleton(np.zeros(1)))
    x = np.random.default_rng(4).uniform(-1.0, 1.0, n)
    tracemalloc.start()
    try:
        d = preimage_distance(F, [0.5], x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # f is the sum of the inputs: a hyperplane at distance |sum x - 0.5|
    assert d == pytest.approx(abs(x.sum() - 0.5) / np.sqrt(n), abs=1e-8)
    assert peak < 5e6


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

def _phi_grid(F, Cres, dc, lam):
    """phi(lam) = d(K, c + lam ybar) - lam delta on a (B, N) lam array,
    row c of Cres with row of lam."""
    pts = Cres[:, None, :] + lam[..., None] * dc.ybar[None, None, :]
    d = F.K.distance_batch(pts.reshape(-1, Cres.shape[1])).reshape(lam.shape)
    return d - lam * dc.delta


def _probe_points(F, X, Y, tol):
    """The closure probes of envelope_batch around the rows of X, each
    with the y of its row."""
    offs = (_probe_directions(F.dim_in)[None, :, :]
            * (tol * 0.5 ** np.arange(5))[:, None, None]).reshape(-1,
                                                                  F.dim_in)
    P = (X[:, None, :] + offs[None, :, :]).reshape(-1, F.dim_in)
    return P, np.repeat(Y, len(offs), axis=0)


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
    # over an empty K no point is a member, whatever the cone: a product
    # with an empty polyhedral factor reads +inf like an empty Polyhedron.
    # {x <= 0, -x <= -1e-8} is empty by less than the simplex's phase-1
    # tolerance, so only the projection, which every distance reads,
    # certifies it empty
    empty = Polyhedron(np.array([[1.0], [-1.0]]), np.array([-2.0, -2.0]))
    for K in (ProductSet([Ball(np.zeros(1), 1.0), empty]),
              Polyhedron(np.array([[1.0, 0.0], [-1.0, 0.0]]),
                         np.array([-2.0, -2.0])),
              Polyhedron(np.array([[1.0], [-1.0]]), np.array([0.0, -1e-8]))):
        n = K.dim
        F = MultiMap(AffineMap(np.eye(n), np.zeros(n)), K)
        for cone in (DirectionalCone(np.zeros(n), 1.0),
                     DirectionalCone(np.eye(n)[-1], 0.2)):
            X, Y = np.zeros((3, n)), np.ones((3, n))
            _, vals, _ = multimap._membership_search(F, X, Y, cone)
            assert np.all(vals == np.inf), (K, cone)
            assert not _member_mask(F, X, Y, cone, TOL_MEMBER).any()
            # the reference reads the same, with no projection onto K
            vals, certified = membership_values(F, X, Y, cone)
            assert np.all(vals == np.inf) and np.all(certified), (K, cone)


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
    # the kernel's value is only one of the two estimates, so it can only
    # be larger than the combined value
    _, v_kernel, _ = multimap._membership_search(F, X, Y, dc)
    assert np.all(v_kernel >= vals - 1e-12)
    assert np.all(v_kernel[certified] - vals[certified]
                  <= 1e-6 * (1.0 + vals[certified]))


def _membership_cases():
    """(F, dc) pairs for the decision kernel: the registry's halfplane, a
    skew polyhedron, the skew wedge of tools/rotated_halfplane.json, a K
    that contains the ray along ybar (phi falls without end), a K 10
    below a cone with |ybar| = delta (a half-space), and two K with no
    polyhedral form, a ball and a product with a ball factor, which take
    the golden-section route."""
    gen = np.random.default_rng(2024)
    halfplane_dir = builtin("halfplane_directional")
    wedge = load_problem(str(Path(__file__).resolve().parents[1] / "tools"
                             / "rotated_halfplane.json"))
    skew = Polyhedron(gen.standard_normal((4, 2)), gen.uniform(0.2, 1.0, 4))
    slab = ProductSet([Ball(np.zeros(1), 0.3),
                       Polyhedron(np.array([[1.0, 1.0], [-1.0, 0.5]]),
                                  np.zeros(2))])
    return {
        "halfplane_directional": (halfplane_dir.F, halfplane_dir.dc),
        "skew_polyhedron": (MultiMap(AffineMap(gen.standard_normal((2, 2)),
                                               np.zeros(2)), skew),
                            DirectionalCone([0.6, 0.8], 0.3)),
        "skew_wedge": (wedge.F, wedge.dc),
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
        "ybar_at_delta": (MultiMap(AffineMap(np.eye(2), np.zeros(2)),
                                   Polyhedron(np.array([[0.0, 1.0]]),
                                              np.array([-10.0]))),
                          DirectionalCone([0.0, 1.0], 1.0)),
    }


_GOLDEN_CASES = ("ball", "product")


def _membership_rows(F, gen, rows):
    # half the rows anywhere, half within 1e-8 .. 1e-4 of F(x), so that
    # some rows lie near the tolerance and some within the margin of it
    X = gen.uniform(-2.0, 2.0, (rows, F.dim_in))
    Y = gen.uniform(-2.0, 2.0, (rows, F.dim_out))
    near = np.arange(rows) % 2 == 1
    scale = 10.0 ** gen.integers(-8, -3, near.sum())
    Y[near] = (F.f.eval_batch(X[near]) - F.K.project_batch(Y[near])
               + scale[:, None] * gen.standard_normal((near.sum(),
                                                       F.dim_out)))
    return X, Y


def _band_tolerances(values, margin):
    """Tolerances that put up to three rows of positive value within the
    margin above tol, where the alternating route decides them."""
    band = np.flatnonzero(values > 0.0)[:3]
    return list(values[band] - margin[band] / 2)


@settings(max_examples=15, deadline=None)
@given(st.sampled_from(sorted(_membership_cases())),
       st.integers(0, 2 ** 32 - 1))
# the two cases with assertions of their own run on every test run
@example("halfplane_directional", 0)
@example("ray_along_ybar", 0)
def test_member_mask_is_the_membership_decision(name, seed):
    # _member_mask decides each row as membership_values does, and runs
    # the alternating route on exactly the rows whose kernel value lies
    # above tol by at most the margin
    F, dc = _membership_cases()[name]
    X, Y = _membership_rows(F, np.random.default_rng(seed), 60)
    if name == "halfplane_directional":
        # c = f(x) - y = (-0.3, -1.4) lies below K = {0} x (-inf, 0]: phi
        # falls at slope delta up to lam = 1.4, then bottoms out at
        # 0.3 sqrt(1 - delta^2) - 1.4 delta ~ 0.0139
        X, Y = np.vstack([X, [[1.0]]]), np.vstack([Y, [[1.3, 1.4]]])
    vals, _ = membership_values(F, X, Y, dc)
    _, v, margin = multimap._membership_search(F, X, Y, dc)
    alternated = []
    alternate = multimap._alternate
    for tol in [TOL_MEMBER, 1e-5, 1e-2, *_band_tolerances(v, margin)]:
        n = int(np.sum((v > tol) & (v - margin <= tol)))
        alternated.clear()
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(multimap, "_alternate", lambda K, C, dc: (
                alternated.append(C.shape[0]) or alternate(K, C, dc)))
            mask = _member_mask(F, X, Y, dc, tol)
        assert mask.tobytes() == (vals <= tol).tobytes(), tol
        assert alternated == ([n] if n else []), tol
    if name == "halfplane_directional":
        want = 0.3 * np.sqrt(1.0 - dc.delta ** 2) - 1.4 * dc.delta
        assert v[-1] == pytest.approx(want, rel=1e-12, abs=0.0)
    if name == "ray_along_ybar":
        assert np.all(v == 0.0)


@settings(max_examples=12, deadline=None)
@given(st.sampled_from(sorted(_membership_cases())),
       st.integers(0, 2 ** 32 - 1))
@example("product", 0)
def test_member_mask_is_the_full_search_mask(name, seed):
    # the mask is the kernel's value read at tol, with the alternating
    # route's decision on the rows within the margin above it
    F, dc = _membership_cases()[name]
    X, Y = _membership_rows(F, np.random.default_rng(seed), 60)
    Cres, v, margin = multimap._membership_search(F, X, Y, dc)
    for tol in [TOL_MEMBER, 1e-5, 1e-2, *_band_tolerances(v, margin)]:
        ref = v <= tol
        between = ~ref & (v - margin <= tol)
        if between.any():
            ref[between] = multimap._alternate(F.K, Cres[between], dc) <= tol
        mask = _member_mask(F, X, Y, dc, tol)
        assert mask.tobytes() == ref.tobytes(), (name, tol)


@settings(max_examples=15, deadline=None)
@given(st.sampled_from(sorted(_membership_cases())),
       st.integers(0, 2 ** 32 - 1))
def test_value_lies_below_phi_and_the_alternating_route(name, seed):
    # on every case: the value is at most phi on a dense lam grid reaching
    # 100 lam_hi plus the margin, the alternating route (an upper bound)
    # never falls more than the margin below it, and a nonempty K gives
    # no +inf
    F, dc = _membership_cases()[name]
    X, Y = _membership_rows(F, np.random.default_rng(seed), 40)
    Cres, v, margin = multimap._membership_search(F, X, Y, dc)
    grid = np.concatenate([[0.0], np.geomspace(1e-7, 100.0, 500)])
    lam = multimap._lam_hi(dc, np.linalg.norm(Cres, axis=1))[:, None] * grid
    phi = np.maximum(_phi_grid(F, Cres, dc, lam).min(axis=1), 0.0)
    assert np.all(v <= phi + margin)
    assert np.all(multimap._alternate(F.K, Cres, dc) >= v - margin)
    assert np.all(np.isfinite(v))


@settings(max_examples=10, deadline=None)
@given(st.sampled_from(sorted(set(_membership_cases()) - set(_GOLDEN_CASES))),
       st.integers(0, 2 ** 32 - 1))
def test_exact_values_agree_with_the_golden_fallback(name, seed):
    # on polyhedral K the face kernel and the golden-section search (the
    # route a K without a face table takes) agree within the golden
    # search's margin
    F, dc = _membership_cases()[name]
    X, Y = _membership_rows(F, np.random.default_rng(seed), 40)
    Cres, exact, _ = multimap._membership_search(F, X, Y, dc)
    c_norm = np.linalg.norm(Cres, axis=1)
    golden, hi = multimap._golden_values(F.K, Cres, dc,
                                         multimap._lam_hi(dc, c_norm))
    margin = multimap._MEMBER_MARGIN * (
        1.0 + c_norm + hi * (np.linalg.norm(dc.ybar) + dc.delta))
    assert np.all(np.abs(golden - exact) <= margin)


@settings(max_examples=8, deadline=None)
@given(st.sampled_from(sorted(_membership_cases())),
       st.integers(0, 2 ** 32 - 1))
def test_membership_rows_are_batch_independent(name, seed):
    # each row, run alone, gets the bits of its value and of its certified
    # flag that it gets in the batch, of its kernel value and margin, and
    # of its decision
    F, dc = _membership_cases()[name]
    gen = np.random.default_rng(seed)
    X, Y = _membership_rows(F, gen, 12)
    vals, certified = membership_values(F, X, Y, dc)
    _, kernel, margin = multimap._membership_search(F, X, Y, dc)
    mask = _member_mask(F, X, Y, dc, TOL_MEMBER)
    for i in range(12):
        one = slice(i, i + 1)
        v, c = membership_values(F, X[one], Y[one], dc)
        assert v.tobytes() == vals[one].tobytes(), i
        assert c.tobytes() == certified[one].tobytes(), i
        _, alone, m = multimap._membership_search(F, X[one], Y[one], dc)
        assert alone.tobytes() == kernel[one].tobytes(), i
        assert m.tobytes() == margin[one].tobytes(), i
        alone = _member_mask(F, X[one], Y[one], dc, TOL_MEMBER)
        assert alone.tobytes() == mask[one].tobytes(), i


@pytest.mark.parametrize("rows", [1, 5], ids=["rows1", "rows5"])
def test_membership_chunk_boundaries_move_no_bit(rows):
    # passes of _FACE_POINTS entries split the face kernel after every 1
    # or 5 rows; the values, the decisions and the envelope keep the bits
    # of the default passes
    for name, (F, dc) in sorted(_membership_cases().items()):
        if name in _GOLDEN_CASES:
            continue
        gen = np.random.default_rng(29)
        X, Y = _membership_rows(F, gen, 30)
        Xe, Ye = _envelope_rows(F, gen, 40, 1e-3)
        _, vals, margin = multimap._membership_search(F, X, Y, dc)
        tols = [TOL_MEMBER, 1e-2, *_band_tolerances(vals, margin)]
        masks = [_member_mask(F, X, Y, dc, tol) for tol in tols]
        env = envelope_batch(F, dc, Xe, Ye, 1e-3, 1.5)
        C = as_polyhedron(F.K).C
        per_row = (face_table(C.shape, C.tobytes()).rows.shape[0]
                   * (C.shape[1] + C.shape[0] + 1))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(multimap, "_FACE_POINTS", rows * per_row)
            _, chunked, _ = multimap._membership_search(F, X, Y, dc)
            assert chunked.tobytes() == vals.tobytes(), name
            for tol, mask in zip(tols, masks):
                chunked = _member_mask(F, X, Y, dc, tol)
                assert chunked.tobytes() == mask.tobytes(), (name, tol)
            chunked = envelope_batch(F, dc, Xe, Ye, 1e-3, 1.5)
            assert chunked.tobytes() == env.tobytes(), name


def reference_face_values(K, table, Cres, dc, lam_hi):
    """The face kernel with its face data built on every call and its
    reductions over a last axis, verbatim but for the module names: the
    reference of test_face_kernel_keeps_the_reference_bits."""
    C, d = K.C, K.d
    m, n = C.shape
    pad = table.rows < 0
    N = table.M @ np.where(pad[..., None], 0.0, C[table.rows])  # (F, n, n)
    t = (table.M @ np.where(pad, 0.0, d[table.rows])[..., None])[..., 0]
    r1 = N @ dc.ybar                                            # (F, n)
    beta = (dc.ybar - r1) @ C.T                                 # (F, m)
    # c -> (N_J c, C (c - N_J c)) for every face J, as one product
    W = np.concatenate([N, C @ (np.eye(n) - N)], axis=1)
    W = W.transpose(2, 0, 1).reshape(n, -1)
    shift = t @ C.T - d
    row_norm, t_norm = np.linalg.norm(C, axis=1), np.linalg.norm(t, axis=1)
    s, delta = np.linalg.norm(r1, axis=1), dc.delta
    nf = table.rows.shape[0]
    size = (1.0 + 2.0 * np.linalg.norm(Cres, axis=1)
            + lam_hi * np.linalg.norm(dc.ybar))
    out = np.empty(Cres.shape[0])
    step = max(1, multimap._FACE_POINTS // (nf * (n + m + 1)))
    for a in range(0, Cres.shape[0], step):
        R = row_matmul(Cres[a:a + step], W).reshape(-1, nf, n + m)
        r0 = R[..., :n] - t
        sz = size[a:a + step, None, None] + t_norm[:, None]
        alpha = (R[..., n:] + shift
                 - multimap._FACE_FEAS * (row_norm * sz + np.abs(d)))
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = -alpha / beta
            hi = np.where(beta > 0.0, ratio, np.inf).min(-1, initial=np.inf)
            lo = np.where(beta < 0.0, ratio, 0.0).max(-1, initial=0.0)
            ok = (lo <= hi) & ~np.any((beta == 0.0) & (alpha > 0.0), axis=-1)
            # |r0 + lam r1| - delta lam is least at lam0 + u, lam0 the foot
            # of the line, or falls on where delta >= |r1|
            b = np.sum(r0 * r1, axis=-1)
            lam0 = -b / (s * s)
            h = np.linalg.norm(r0 + lam0[..., None] * r1, axis=-1)
            star = np.where(s > delta, lam0 + delta * h / (
                s * np.sqrt(s * s - delta * delta)),
                np.inf if delta > 0.0 else 0.0)
            lam = np.clip(star, lo, hi)
            g = np.linalg.norm(r0 + lam[..., None] * r1, axis=-1) - delta * lam
            # an interval unbounded above: phi falls without end, or toward
            # b / |r1| where delta = |r1|
            g = np.where(np.isinf(lam), np.where(delta > s, -np.inf, b / s),
                         g)
        out[a:a + step] = np.where(ok, g, np.inf).min(axis=-1)
    return np.maximum(out, 0.0)


def _face_kernel_case(gen, m, n, rounded, zero_d):
    """A polyhedron of m rows in R^n, rounded to small integers (exact
    zeros, parallel and zero rows) or not, and a nonzero ybar."""
    C = gen.standard_normal((m, n)) * (2.0 if rounded else 1.0)
    d = np.zeros(m) if zero_d else gen.standard_normal(m)
    ybar = gen.standard_normal(n) * (2.0 if rounded else 1.0)
    if rounded:
        C, d, ybar = np.round(C), np.round(d), np.round(ybar)
        ybar[0] = ybar[0] or 1.0
    # Polyhedron drops a zero row, which needs d >= 0
    d[~C.any(axis=1)] = np.abs(d[~C.any(axis=1)])
    return Polyhedron(C, d), ybar


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 8), st.integers(1, 8), st.booleans(), st.booleans(),
       st.sampled_from(["zero", "below_r1", "at_r1", "at_ybar", "above"]),
       st.integers(1, 5), st.integers(0, 2 ** 32 - 1))
@example(3, 2, True, True, "below_r1", 2, 0)   # 3 rows in R^2, 3-4 passes
@example(8, 8, False, False, "zero", 1, 1)     # 256 faces, pairwise sums
def test_face_kernel_keeps_the_reference_bits(m, n, rounded, zero_d,
                                              delta_at, pass_rows, seed):
    # the cached, leading-axis kernel gives every bit of the reference on
    # polyhedra up to 8 rows in up to 8 dimensions, n >= 8 summing pairwise
    # as np.sum does; delta is 0, below or at some face's |r1|, at |ybar|
    # (the cone's edge) or above it; rows run from 1e-6 to 1e2 in passes
    # of pass_rows rows, and batches end before, at and after a boundary
    gen = np.random.default_rng(seed)
    K, ybar = _face_kernel_case(gen, m, n, rounded, zero_d)
    table = face_table(K.C.shape, K.C.tobytes())
    # |r1| = |N_J ybar| per face, as the kernel derives it
    pad = table.rows < 0
    N = table.M @ np.where(pad[..., None], 0.0, K.C[table.rows])
    s = np.linalg.norm(N @ ybar, axis=1)
    s = s[s > 0.0] if np.any(s > 0.0) else np.ones(1)
    y_norm = float(np.linalg.norm(ybar))
    delta = {"zero": 0.0, "below_r1": 0.5 * s.min(), "at_r1": s.max(),
             "at_ybar": y_norm, "above": 1.5 * y_norm}[delta_at]
    dc = DirectionalCone(ybar, delta)
    faces = multimap._face_data(K.C.shape, K.C.tobytes(), K.d.tobytes(),
                                dc.ybar.tobytes(), dc.delta)
    per_row = table.rows.shape[0] * (n + K.C.shape[0] + 1)
    rows = 3 * pass_rows + int(gen.integers(-1, 2))
    Cres = (gen.standard_normal((rows, n))
            * 10.0 ** gen.uniform(-6.0, 2.0, (rows, 1)))
    if rounded:
        Cres = np.round(Cres)
    c_norm = np.linalg.norm(Cres, axis=1)
    lam_hi = multimap._lam_hi(dc, c_norm)
    for points in (multimap._FACE_POINTS, pass_rows * per_row):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(multimap, "_FACE_POINTS", points)
            want = reference_face_values(K, table, Cres, dc, lam_hi)
            got = multimap._face_values(faces, Cres, dc, lam_hi, c_norm,
                                        np.linalg.norm(dc.ybar))
        assert got.tobytes() == want.tobytes(), (points, delta_at)


def test_rowless_polyhedron_is_the_whole_space():
    # a K whose rows are all zero keeps none: its face table is the one
    # face J = {}, and both membership routes read 0 on every cone
    K = Polyhedron(np.array([[0.0, 0.0]]), np.array([1.0]))
    table = face_table(K.C.shape, K.C.tobytes())
    assert table.rows.shape == (1, 0) and table.M.shape == (1, 2, 0)
    F = MultiMap(AffineMap(np.eye(2), np.zeros(2)), K)
    X, Y = np.zeros((4, 2)), np.array([[1.0, 2.0], [-3.0, 0.5], [0.0, 0.0],
                                       [1e3, -1e3]])
    for dc in (DirectionalCone([0.0, 1.0], 0.0),
               DirectionalCone([0.0, 1.0], 0.2),
               DirectionalCone([0.6, 0.8], 1.0)):
        Cres, exact, _ = multimap._membership_search(F, X, Y, dc)
        assert np.all(exact == 0.0), dc
        assert np.all(multimap._alternate(K, Cres, dc) == 0.0), dc
        vals, certified = membership_values(F, X, Y, dc)
        assert np.all(vals == 0.0) and np.all(certified), dc
        assert _member_mask(F, X, Y, dc, TOL_MEMBER).all(), dc


def _far_round_k(name):
    """f the identity on R^2, ybar = (1, 0), delta = 0.5, and K around
    (1000, 0): a ball, a box or a ball times an interval.  c = 0 lies in
    the tube (lam near 1000 reaches K), far past lam_hi = 20."""
    K = {"ball": Ball([1000.0, 0.0], 1.0),
         "box": Polyhedron(np.vstack([np.eye(2), -np.eye(2)]),
                           np.array([1001.0, 1.0, -999.0, 1.0])),
         "product": ProductSet([Ball([1000.0], 1.0),
                                Polyhedron(np.array([[1.0], [-1.0]]),
                                           np.ones(2))])}[name]
    return (MultiMap(AffineMap(np.eye(2), np.zeros(2)), K),
            DirectionalCone([1.0, 0.0], 0.5))


@pytest.mark.parametrize("name", ["ball", "box", "product"])
def test_member_far_along_the_ray_is_admitted(name):
    # phi still falls at lam_hi = 20 (969 there); the golden bracket
    # doubles until phi turns or reaches 0, so every route reads 0, admits
    # and certifies, and the envelope is the image distance
    F, dc = _far_round_k(name)
    X, Y = np.zeros((1, 2)), np.zeros((1, 2))
    _, v, _ = multimap._membership_search(F, X, Y, dc)
    assert v[0] == 0.0
    assert _member_mask(F, X, Y, dc, 1e-9)[0]
    vals, certified = membership_values(F, X, Y, dc)
    assert vals[0] == 0.0 and certified[0]
    assert envelope_batch(F, dc, X, Y, 1e-9, 1.0)[0] == pytest.approx(999.0)


def test_row_falling_at_the_doubling_cap_goes_to_the_alternating_route(
        monkeypatch):
    # with three doublings the ball's bracket ends at lam = 160, phi still
    # falling: the value is only an upper bound, the margin +inf, and the
    # alternating route decides the row, in the envelope too, whose value
    # is then the image distance
    monkeypatch.setattr(multimap, "_BRACKET_DOUBLINGS", 3)
    F, dc = _far_round_k("ball")
    X, Y = np.zeros((1, 2)), np.zeros((1, 2))
    _, v, margin = multimap._membership_search(F, X, Y, dc)
    assert v[0] > 100.0 and margin[0] == np.inf
    alternated = []
    alternate = multimap._alternate
    monkeypatch.setattr(multimap, "_alternate", lambda K, C, dc: (
        alternated.append(C.shape[0]) or alternate(K, C, dc)))
    assert _member_mask(F, X, Y, dc, 1e-9)[0] and alternated == [1]
    assert envelope_batch(F, dc, X, Y, 1e-9, 1.0)[0] == pytest.approx(999.0)
    assert alternated == [1, 1]


@pytest.mark.parametrize("gap", [0.0, 1e-12, 1e-11])
def test_half_space_cone_keeps_a_row_10_outside_out(gap):
    # K = {z2 <= -10} lies 10 below the cone of ybar = (0, 1) and delta =
    # 1 - gap, a half-space at gap 0: phi = 10 for every lam, so c = 0
    # reads 10 on every route, and the face kernel's size term does not
    # grow with 1 / gap
    F = MultiMap(AffineMap(np.eye(2), np.zeros(2)),
                 Polyhedron(np.array([[0.0, 1.0]]), np.array([-10.0])))
    dc = DirectionalCone([0.0, 1.0], 1.0 - gap)
    X, Y = np.zeros((1, 2)), np.zeros((1, 2))
    _, v, _ = multimap._membership_search(F, X, Y, dc)
    assert v[0] == pytest.approx(10.0, rel=1e-9)
    assert not _member_mask(F, X, Y, dc, 1e-9)[0]
    vals, certified = membership_values(F, X, Y, dc)
    assert vals[0] == pytest.approx(10.0, rel=1e-9) and certified[0]
    assert envelope_batch(F, dc, X, Y, TOL_MEMBER, 1.0)[0] == np.inf


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(["ball", "product"]), st.integers(2, 3),
       st.integers(0, 2 ** 32 - 1))
def test_member_mask_rejects_no_row_the_alternating_route_admits(kind, n,
                                                                 seed):
    # a round K up to 10^3.5 out along ybar, mostly past lam_hi: a row
    # that the alternating route (an upper bound) puts at or below tol is
    # never rejected
    gen = np.random.default_rng(seed)
    ybar = gen.standard_normal(n)
    y_norm = np.linalg.norm(ybar)
    dc = DirectionalCone(ybar, gen.uniform(0.05, 0.95) * y_norm)
    center = (10.0 ** gen.uniform(0.0, 3.5) * ybar / y_norm
              + gen.standard_normal(n))
    radius = gen.uniform(0.1, 2.0)
    if kind == "ball":
        K = Ball(center, radius)
    else:
        box = Polyhedron(np.vstack([np.eye(n - 1), -np.eye(n - 1)]),
                         np.concatenate([center[1:], -center[1:]]) + radius)
        K = ProductSet([Ball(center[:1], radius), box])
    F = MultiMap(AffineMap(np.eye(n), np.zeros(n)), K)
    X, Y = np.zeros((40, n)), gen.uniform(-3.0, 3.0, (40, n))
    alt = multimap._alternate(K, F.f.eval_batch(X) - Y, dc)
    for tol in (1e-9, TOL_MEMBER, 1e-3):
        mask = _member_mask(F, X, Y, dc, tol)
        assert not np.any(~mask & (alt <= tol)), tol


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
    """The envelope built from the kernel values of every row and every
    probe.  Returns it with the shell and hit row counts."""
    _, vals, _ = multimap._membership_search(F, X, Y, dc)
    member = vals <= tol
    out = np.full(X.shape[0], np.inf)
    out[member] = image_distance_batch(F, X[member], Y[member])
    shell = np.flatnonzero(~member
                           & (vals <= tol * (1.0 + lipschitz) * 1.001))
    if shell.size == 0:
        return out, 0, 0
    P, Yp = _probe_points(F, X[shell], Y[shell], tol)
    _, pv, _ = multimap._membership_search(F, P, Yp, dc)
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
    # the envelope keeps every bit of the one built from the kernel's
    # values of every row and every probe; one y per row.  Across the
    # cases some rows must reach the shell, and some of those must stay
    # outside after probing.
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


def test_envelope_rejects_y_of_the_wrong_shape():
    F, dc = _membership_cases()["halfplane_directional"]
    X = np.zeros((4, F.dim_in))
    for Y in (np.zeros((3, 2)), np.zeros((4, 3)), np.zeros((4, 1))):
        with pytest.raises(DimensionMismatch):
            envelope_batch(F, dc, X, Y)
    with pytest.raises(DimensionMismatch):
        envelope_batch(F, dc, X, np.zeros(3))


def test_envelope_of_zero_rows_is_empty():
    # like _member_mask, membership_values and image_distance_batch, and
    # without a lipschitz bound to estimate over an empty box
    F, dc = _membership_cases()["halfplane_directional"]
    X, Y = np.zeros((0, F.dim_in)), np.zeros((0, F.dim_out))
    for y in (Y, np.zeros(F.dim_out)):
        env = envelope_batch(F, dc, X, y)
        assert env.shape == (0,) and env.dtype == float
    assert _member_mask(F, X, Y, dc, TOL_MEMBER).shape == (0,)
    assert membership_values(F, X, Y, dc)[0].shape == (0,)


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


def reference_grid_nodes(boxes, resolution, cap):
    """_grid_nodes as it was before it built nodes from index digits: the
    whole lattice through np.indices, 2^n nodes past the cap."""
    n = boxes.shape[1]
    res = resolution
    while res ** n > cap and res > 2:
        res -= 1
    axes = np.linspace(boxes[..., 0], boxes[..., 1], res, axis=-1)
    idx = np.indices((res,) * n).reshape(n, -1).T
    return axes[:, np.arange(n), idx]


def _boxes(gen, rows, n):
    lo = gen.uniform(-2.0, 1.0, (rows, n))
    return np.stack([lo, lo + gen.uniform(0.1, 2.0, (rows, n))], axis=-1)


@pytest.mark.parametrize("n,resolution,cap", [
    (1, 9, 4096), (2, 9, 4096), (3, 9, 4096), (4, 9, 4096), (4, 9, 1000),
    (3, 5, 200_000), (6, 3, 729), (6, 9, 700), (12, 9, 4096), (3, 2, 8)])
def test_grid_nodes_that_fit_the_cap_keep_their_bytes(n, resolution, cap):
    boxes = _boxes(np.random.default_rng(n), 3, n)
    nodes = multimap._grid_nodes(boxes, resolution, cap)
    ref = reference_grid_nodes(boxes, resolution, cap)
    assert nodes.shape == ref.shape and nodes.shape[1] <= cap
    assert nodes.tobytes() == ref.tobytes()


@pytest.mark.parametrize("n", [13, 16, 40])
def test_grid_nodes_past_the_cap_are_the_first_corners(n):
    # 2^n corners exceed the cap of 4096: the first 4096 in C order, built
    # without the whole lattice (2^40 corners would need 350 TB)
    import tracemalloc
    boxes = _boxes(np.random.default_rng(n), 2, n)
    tracemalloc.start()
    try:
        nodes = multimap._grid_nodes(boxes, 9, 4096)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert nodes.shape == (2, 4096, n) and peak < 8e6
    bits = (np.arange(4096)[:, None] >> np.arange(n - 1, -1, -1)) & 1
    assert nodes.tobytes() == boxes[:, np.arange(n), bits].tobytes()
    if n <= 16:
        ref = reference_grid_nodes(boxes, 9, 4096)
        assert nodes.tobytes() == ref[:, :4096].tobytes()


def test_region_validation():
    with pytest.raises(ValueError):
        SearchRegion(np.array([[1.0, -1.0]]), 5, 10, 0)
    with pytest.raises(ValueError):
        SearchRegion(np.array([[0.0, 1.0]]), 1, 10, 0)
    with pytest.raises(DimensionMismatch):
        SearchRegion(np.zeros((2, 3)), 5, 10, 0)
