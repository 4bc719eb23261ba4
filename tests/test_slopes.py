"""Slope estimators and the sublevel error-bound certificate."""

from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import orthant_instance
from regcert import (InSet, error_bound_certificate, global_slope,
                     local_slope)
from regcert.geometry import row_matmul
from regcert.instances import builtin, registry_names
from regcert.multimap import (SearchRegion, default_region, envelope_batch,
                              image_distance_batch)
from regcert.problems import load_problem
from regcert import slopes
from regcert.errors import DimensionMismatch, InvalidParameter
from regcert.slopes import (_DESCENT_FACTORS, _DESCENT_ROUNDS, _RAY_ITERS,
                            _TREE_LEVELS, _bisect, _direction_descent,
                            _fd_gradient, _global_slopes, _reach,
                            _segment_hits, default_local_r0)


def afield(a, c=0.0):
    a = np.asarray(a, dtype=float)
    return lambda X: X @ a + c


def ABS(X):
    return np.abs(X[:, 0])


def SQ(X):
    return X[:, 0] ** 2


def at(f, x):
    """f at one point, as a one-row batch."""
    return float(f(np.asarray(x, dtype=float)[None, :])[0])


def residual_field(F, y0):
    y0 = np.asarray(y0, dtype=float)

    def batch(X):
        return image_distance_batch(F, X, np.tile(y0, (X.shape[0], 1)))

    return batch


# ---------------------------------------------------------------------------
# Frozen values.

def test_local_slope_values():
    assert local_slope(ABS, [0.3]).value == pytest.approx(1.0, abs=1e-9)
    assert local_slope(SQ, [1.0]).value == pytest.approx(2.0, rel=1e-5)
    aff = afield([3.0, -4.0], 1.0)
    assert local_slope(aff, [0.2, 0.1]).value == pytest.approx(5.0, rel=1e-9)


def test_global_slope_values():
    reg1 = SearchRegion(np.array([[-2.0, 2.0]]), 9, 400, 0)
    assert global_slope(ABS, [1.0], reg1).value == pytest.approx(1.0,
                                                                 abs=1e-9)
    assert global_slope(SQ, [1.0], reg1).value == pytest.approx(2.0,
                                                                rel=1e-4)
    reg2 = SearchRegion(np.array([[-2.0, 2.0], [-2.0, 2.0]]), 9, 400, 0)
    aff = afield([3.0, -4.0], 1.0)
    assert global_slope(aff, [0.2, 0.1], reg2).value == pytest.approx(
        5.0, rel=1e-9)


def test_infinite_center_short_circuits():
    def f(X):
        return np.where(X[:, 0] > 0, np.inf, -X[:, 0])

    assert local_slope(f, [0.5]).value == np.inf
    reg = SearchRegion(np.array([[-1.0, 1.0]]), 5, 50, 0)
    assert global_slope(f, [0.5], reg).value == np.inf


def assert_certificate(cert, d_sub, slope_inf, witness, n_points):
    assert cert.d_sublevel.hex() == d_sub.hex()
    assert cert.slope_inf.hex() == slope_inf.hex()
    assert ([float(w).hex() for w in cert.boundary_witness]
            == [w.hex() for w in witness])
    assert cert.n_slope_points == n_points


def test_error_bound_registry_pair_frozen():
    # criterion 03's registry certificates, compared bit for bit
    expect = {
        "hoffman_2d": ([0.6, 0.8], 1.0, 0.9999999998083279, [0.0, 0.0], 28),
        "parabola_eb": ([0.75], 0.75, 0.08872857829464846, [0.0], 28),
    }
    for name, (xbar, *frozen) in expect.items():
        inst = builtin(name)
        region = default_region(inst.x0, 1.25, sample_budget=2000, seed=7,
                                grid_resolution=7)
        cert = error_bound_certificate(residual_field(inst.F, inst.y0),
                                       np.asarray(xbar), region,
                                       max_slope_points=16, slope_budget=300)
        assert_certificate(cert, *frozen)


def test_error_bound_random_orthant_frozen():
    # the first three of criterion 03's random orthant certificates, compared
    # bit for bit; unlike the registry pair, their boundary feet are off the
    # lattice, so these values move with the bisection and the polish.  The
    # field multiplies through row_matmul, as regcert's affine maps do, so
    # it meets the field contract of the slopes module
    expect = [
        (0.9802029365168176, 0.9999999999146102,
         [1.9918156486170238, -0.9092269151175363, 0.3534110237939684], 20),
        (0.10193449685457764, 1.0, [-0.4416340151834828], 19),
        (1.1871203203758198, 0.9999999999999867,
         [0.5406122747558834, 0.21648963272173516], 20),
    ]
    rng = np.random.default_rng(100)
    for frozen in expect:
        F, xbar = orthant_instance(rng)
        A, b = F.f.A, F.f.b

        def field(X, A=A, b=b):
            return np.linalg.norm(
                np.maximum(row_matmul(X, A.T) + b[None, :], 0.0), axis=1)

        box = np.stack([xbar - 2.0, xbar + 2.0], axis=1)
        cert = error_bound_certificate(field, xbar,
                                       SearchRegion(box, 7, 200, 5),
                                       max_slope_points=8, slope_budget=150)
        assert_certificate(cert, *frozen)


def test_witnesses_reproduce_reported_ratios():
    x = np.array([1.0])
    fx = at(SQ, x)
    for est in (local_slope(SQ, x), global_slope(
            SQ, x, SearchRegion(np.array([[-2.0, 2.0]]), 9, 300, 0))):
        assert est.witnesses
        for point, ratio in est.witnesses:
            drop = max(fx - at(SQ, point), 0.0)
            again = drop / np.linalg.norm(x - point)
            assert again == pytest.approx(ratio, abs=1e-9)


# ---------------------------------------------------------------------------
# Coordinate-at-a-time distances and ascent moves against the code they
# replaced.

_SPECIAL = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 1e300,
                     -1e-300, 1.0, -2.5])


def _with_specials(gen, shape, share=0.25):
    A = np.array(gen.standard_normal(shape)
                 * 10.0 ** gen.uniform(-3.0, 3.0, shape))
    hit = gen.random(shape) < share
    A[hit] = gen.choice(_SPECIAL, int(hit.sum()))
    return A


def _ratios_reference(x, fx, Y, fY):
    # reference: _ratios with np.linalg.norm over the last axis
    dist = np.linalg.norm(Y - x, axis=-1)
    drop = np.maximum(fx - fY, 0.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(dist >= slopes._MIN_STEP_DIST, drop / dist, -np.inf)


def _coordinate_ascent_reference(g, X, fx, owner, Y0, h0):
    # reference: _coordinate_ascent with the moves built by broadcasting
    Y = Y0.copy()
    h = h0.copy()
    X, fx = X[owner], fx[owner]
    best = _ratios_reference(X, fx, Y, g(Y, owner))
    C, n = Y.shape
    eye = np.eye(n)
    moves = np.concatenate([eye, -eye], axis=0)
    cand_owner = np.repeat(owner, 2 * n)
    for _ in range(slopes._ASCENT_STEPS):
        cand = Y[:, None, :] + h[:, None, None] * moves[None, :, :]
        fc = g(cand.reshape(C * 2 * n, n), cand_owner).reshape(C, 2 * n)
        r = _ratios_reference(X[:, None, :], fx[:, None], cand, fc)
        bi = np.argmax(r, axis=1)
        bv = r[np.arange(C), bi]
        gain = bv > best
        Y[gain] = cand[gain, bi[gain]]
        best[gain] = bv[gain]
        h = np.where(gain, h, 0.5 * h)
    return Y, best


@pytest.mark.parametrize("n", range(1, 10))
def test_distances_match_the_row_norm_bit_for_bit(n):
    # below 8 coordinates the squares are summed left to right, from 8 on
    # pairwise; a NaN distance stays NaN, its sign bit not pinned
    gen = np.random.default_rng(n)
    with np.errstate(invalid="ignore", over="ignore"):
        for Y, x in [(_with_specials(gen, (rows, n)),
                      _with_specials(gen, (n,)))
                     for rows in (0, 1, 2, 9, 64)] + [
                (_with_specials(gen, (40, n)),
                 _with_specials(gen, (5, 1, n))),
                (_with_specials(gen, (5, 3, 7, n)),
                 _with_specials(gen, (5, 1, 1, n)))]:
            want = np.linalg.norm(Y - x, axis=-1)
            got = slopes._distances(Y, x)
            nan = np.isnan(want)
            assert got.shape == want.shape
            assert np.array_equal(np.isnan(got), nan)
            assert got[~nan].tobytes() == want[~nan].tobytes()
            fx = _with_specials(gen, x.shape[:-1])
            fY = _with_specials(gen, want.shape)
            assert (slopes._ratios(x, fx, Y, fY).tobytes()
                    == _ratios_reference(x, fx, Y, fY).tobytes())


@pytest.mark.parametrize("n", [1, 2, 3])
def test_coordinate_ascent_keeps_the_broadcast_bits(n):
    # signed zeros in the starts meet the +-0.0 entries of the moves; a
    # per-centre field, as the certificate's slope pass uses
    gen = np.random.default_rng(30 + n)
    X = gen.standard_normal((4, n))
    W = gen.standard_normal((4, n))

    def g(U, owner):
        return np.abs(U - W[owner]).sum(axis=1) - 0.3 * U[:, 0]

    fx = g(X, np.arange(4))
    owner = gen.integers(0, 4, 37)
    Y0 = X[owner] + gen.uniform(-1.0, 1.0, (37, n))
    Y0[gen.random(Y0.shape) < 0.2] = -0.0
    h0 = gen.uniform(0.01, 0.5, 37)
    got = slopes._coordinate_ascent(g, X, fx, owner, Y0, h0)
    want = _coordinate_ascent_reference(g, X, fx, owner, Y0, h0)
    assert [a.tobytes() for a in got] == [a.tobytes() for a in want]


# ---------------------------------------------------------------------------
# Invariants.

def test_slope_scales_linearly():
    def scaled(X):
        return 2.5 * X[:, 0] ** 2

    base = local_slope(SQ, [0.7]).value
    assert local_slope(scaled, [0.7]).value == pytest.approx(2.5 * base,
                                                             rel=1e-9)


def test_local_below_global_thousand_samples():
    # with the seed and probe scale tied to the region, the global search
    # dominates the local ladder by construction and the ordering must be
    # exact up to rounding
    rng = np.random.default_rng(21)
    checked = 0
    for case in range(125):
        dim = int(rng.integers(1, 3))
        a = rng.standard_normal(dim)
        q = rng.uniform(0.2, 2.0, size=dim)
        kind = case % 3
        if kind == 0:
            f = afield(a)
        elif kind == 1:
            f = lambda X, q=q: (X * X) @ q
        else:
            f = lambda X, a=a: np.abs(X @ a)
        center = rng.uniform(-1.0, 1.0, size=dim)
        box = np.stack([center - 1.5, center + 1.5], axis=1)
        region = SearchRegion(box, 4, 60, seed=int(rng.integers(0, 10_000)))
        for _ in range(8):
            x = rng.uniform(center - 1.0, center + 1.0)
            lo = local_slope(f, x, r0=default_local_r0(region),
                             seed=region.seed).value
            hi = global_slope(f, x, region).value
            assert lo <= hi + 1e-9
            checked += 1
    assert checked >= 1000


# fields whose rows evaluate independently of each other:
# (field, dim, sampler of points with f <= 0)
ROW_FIELDS = {
    "parabola_eb": (residual_field(builtin("parabola_eb").F, np.zeros(1)), 1,
                    lambda gen, size: np.zeros(size)),
    "hoffman_2d": (residual_field(builtin("hoffman_2d").F, np.zeros(2)), 2,
                   lambda gen, size: -gen.uniform(0.0, 1.0, size)),
    "polynomial": (lambda X: X[:, 0] ** 2 + X[:, -1] ** 3 - 0.5, 3,
                   lambda gen, size: gen.uniform(-0.5, 0.5, size)),
}


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(sorted(ROW_FIELDS)), st.integers(1, 6),
       st.integers(0, 2 ** 32 - 1))
def test_ray_kernels_rows_are_batch_independent(name, rows, seed):
    f, n, feasible = ROW_FIELDS[name]
    gen = np.random.default_rng(seed)
    xbar = gen.uniform(0.2, 1.5, n)
    # rays from xbar through feasible points, stretched so that the reach
    # ladder meets the sublevel set at different factors on different rows
    D = feasible(gen, (rows, n)) - xbar
    hi = np.ones(rows)
    stretch = gen.uniform(0.5, 1.5, (rows, 1))
    P = gen.uniform(-1.5, 1.5, (rows, n))

    def kernels(i):
        return (_bisect(f, xbar, D[i], hi[i], 45),
                _reach(f, xbar, stretch[i] * D[i], 0.9, _DESCENT_FACTORS),
                _fd_gradient(f, P[i], 1e-6))

    batch = kernels(slice(None))
    for i in range(rows):
        alone = kernels(slice(i, i + 1))
        for b, a in zip(batch, alone):
            assert b[i].tobytes() == a[0].tobytes()


def _bisect_steps(f, xbar, D, hi, iters):
    """Ray bisection one step a field call, the reference for _bisect."""
    lo = np.zeros(D.shape[0])
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        feas = f(xbar[None, :] + mid[:, None] * D) <= 0.0
        hi = np.where(feas, mid, hi)
        lo = np.where(feas, lo, mid)
    return hi


# the row fields plus one that is NaN on a band, which bisection must read
# as f > 0
BISECT_FIELDS = {
    **ROW_FIELDS,
    "nan_band": (lambda X: np.where(np.abs(X[:, 0] - 0.3) < 0.1, np.nan,
                                    X[:, 0] - X[:, 1] ** 2), 2,
                 lambda gen, size: gen.uniform(-1.0, 0.0, size)),
}


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(sorted(BISECT_FIELDS)), st.integers(1, 6),
       st.sampled_from([1, 4, 5, 7, 45, 60]), st.integers(0, 2 ** 32 - 1))
def test_bisection_tree_is_the_step_loop_bit_for_bit(name, rows, iters,
                                                     seed):
    f, n, feasible = BISECT_FIELDS[name]
    gen = np.random.default_rng(seed)
    xbar = gen.uniform(0.2, 1.5, n)
    D = feasible(gen, (rows, n)) - xbar
    hi = gen.uniform(0.5, 1.5, rows)
    calls = []

    def counted(X):
        calls.append(X.shape[0])
        return f(X)

    got = _bisect(counted, xbar, D, hi, iters)
    assert got.tobytes() == _bisect_steps(f, xbar, D, hi, iters).tobytes()
    # _TREE_LEVELS steps a call at every row count, a lone row included:
    # 9 calls for the 45 steps of a descent ray
    assert len(calls) == -(-iters // _TREE_LEVELS)
    if iters == 45:
        assert len(calls) == 9


def bits(est):
    """Every number of a slope estimate, bit for bit."""
    return (est.value.hex(), est.mode,
            [(r.hex(), v.hex()) for r, v in est.radius_ladder],
            [(p.tobytes(), v.hex()) for p, v in est.witnesses])


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(sorted(ROW_FIELDS)), st.integers(1, 6),
       st.integers(0, 2 ** 32 - 1))
def test_global_slopes_centres_are_batch_independent(name, centres, seed):
    # the certificate scores all its candidates in one _global_slopes call;
    # each centre must get what global_slope gives it alone
    f, n, _ = ROW_FIELDS[name]
    gen = np.random.default_rng(seed)
    X = gen.uniform(-1.0, 1.0, (centres, n))
    box = np.tile([-1.5, 1.5], (n, 1))
    region = SearchRegion(box, 4, 60, seed=int(gen.integers(0, 10_000)))
    batch = _global_slopes(f, X, region)
    assert len(batch) == centres
    for x, est in zip(X, batch):
        assert bits(global_slope(f, x, region)) == bits(est)


@settings(max_examples=15, deadline=None)
@given(st.sampled_from(sorted(ROW_FIELDS)), st.integers(0, 2 ** 32 - 1))
def test_direction_descent_hits_are_batch_independent(name, seed):
    # the certificate descends its three boundary hits in lockstep; each
    # hit must end where it ends alone, although the hits retire in
    # different rounds
    f, n, feasible = ROW_FIELDS[name]
    gen = np.random.default_rng(seed)
    xbar = gen.uniform(1.0, 1.5, n)
    hits = _segment_hits(f, xbar, feasible(gen, (3, n)) - xbar)
    W = np.array([w for w, _ in hits])
    d = np.array([d for _, d in hits])
    W3, d3 = _direction_descent(f, xbar, W, d)
    for i in range(3):
        Wi, di = _direction_descent(f, xbar, W[i:i + 1], d[i:i + 1])
        assert Wi.tobytes() == W3[i:i + 1].tobytes(), i
        assert di.tobytes() == d3[i:i + 1].tobytes(), i


def _reach_ladder(f, xbar, D, scale, factors):
    """The reach ladder one factor a field call, the reference for
    _reach."""
    scale = np.broadcast_to(np.asarray(scale, dtype=float), D.shape[:1])
    t_hi = np.full(D.shape[0], np.inf)
    for factor in factors:
        open_rows = np.flatnonzero(np.isinf(t_hi))
        if open_rows.size == 0:
            break
        t = scale[open_rows] * factor
        hit = f(xbar[None, :] + t[:, None] * D[open_rows]) <= 0.0
        t_hi[open_rows[hit]] = t[hit]
    return t_hi


def _descent_rounds(f, xbar, W, d):
    """The direction descent one round a reach ladder and an unpruned
    bisection, all open hits in lockstep, the reference for
    _direction_descent."""
    W = np.array(W, dtype=float)
    best_d = np.array(d, dtype=float)
    U = W - xbar[None, :]
    open_ = np.zeros(best_d.size, dtype=bool)
    for i, u in enumerate(U):
        norm = float(np.linalg.norm(u))
        if not (norm <= 0.0 or best_d[i] <= 0.0):
            u /= norm
            open_[i] = True
    started = open_.copy()
    h = np.full(best_d.size, 0.5)
    eye = np.eye(xbar.size)
    for _ in range(_DESCENT_ROUNDS):
        rows = np.flatnonzero(open_)
        if rows.size == 0:
            break
        step = h[rows, None, None] * eye
        cand = np.concatenate([U[rows, None, :] + step,
                               U[rows, None, :] - step], axis=1)
        norms = np.linalg.norm(cand, axis=2)
        keep = norms > 1e-12
        owner = np.broadcast_to(rows[:, None], keep.shape)[keep]
        cand = cand[keep] / norms[keep][:, None]
        t_hi = _reach_ladder(f, xbar, cand, best_d[owner], _DESCENT_FACTORS)
        reach = np.isfinite(t_hi)
        cand, owner = cand[reach], owner[reach]
        hi = (_bisect(f, xbar, cand, t_hi[reach], _RAY_ITERS)
              if cand.shape[0] else np.empty(0))
        for i in rows:
            mine = np.flatnonzero(owner == i)
            j = mine[np.argmin(hi[mine])] if mine.size else None
            if j is not None and hi[j] < best_d[i]:
                U[i] = cand[j]
                best_d[i] = hi[j]
            else:
                h[i] *= 0.5
            if h[i] < 1e-9:
                open_[i] = False
    W[started] = xbar[None, :] + best_d[started, None] * U[started]
    return W, best_d


def counting(f, log):
    """f, appending the row count of every call to log."""
    def counted(X):
        log.append(X.shape[0])
        return f(X)
    return counted


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(sorted(BISECT_FIELDS)), st.integers(1, 8),
       st.integers(0, 2 ** 32 - 1))
def test_reach_is_the_factor_ladder_bit_for_bit(name, rows, seed):
    f, n, feasible = BISECT_FIELDS[name]
    gen = np.random.default_rng(seed)
    xbar = gen.uniform(0.2, 1.5, n)
    # stretched rays meet the sublevel set at different factors, or miss it
    D = gen.uniform(0.2, 1.5, (rows, 1)) * (feasible(gen, (rows, n)) - xbar)
    scale = gen.uniform(0.5, 1.0, rows)
    log = []
    got = _reach(counting(f, log), xbar, D, scale, _DESCENT_FACTORS)
    assert got.tobytes() == _reach_ladder(f, xbar, D, scale,
                                          _DESCENT_FACTORS).tobytes()
    assert log == [rows * len(_DESCENT_FACTORS)]


def _orthant_field(gen):
    """The residual field of a random orthant instance, multiplied through
    row_matmul, and its probe point."""
    F, xbar = orthant_instance(gen)
    A, b = F.f.A, F.f.b

    def field(X):
        return np.linalg.norm(
            np.maximum(row_matmul(X, A.T) + b[None, :], 0.0), axis=1)

    return field, xbar


def _descent_case(name, gen):
    """(field, xbar, W, d) for one to three boundary hits."""
    if name == "orthant":
        f, xbar = _orthant_field(gen)
        n = xbar.size
        box = np.stack([xbar - 2.0, xbar + 2.0], axis=1)
        U = SearchRegion(box, 5, 60, 0).uniform_samples("descent", 60)
        feas = U[f(U) <= 0.0]
        targets = feas[gen.permutation(feas.shape[0])[:3]]
    elif name == "hoffman_corner":
        # hit 0 sits at the exact corner foot (0, 0) and never improves
        f, n, feasible = ROW_FIELDS["hoffman_2d"]
        xbar = gen.uniform(0.2, 1.5, n)
        targets = feasible(gen, (int(gen.integers(0, 3)), n))
    else:
        f, n, feasible = BISECT_FIELDS[name]
        xbar = gen.uniform(1.0, 1.5, n)
        targets = feasible(gen, (int(gen.integers(1, 4)), n))
    hits = _segment_hits(f, xbar, targets - xbar) if targets.size else []
    W = np.array([w for w, _ in hits]).reshape(-1, n)
    d = np.array([d for _, d in hits])
    if name == "hoffman_corner":
        W = np.vstack([np.zeros((1, n)), W])
        d = np.concatenate([[float(np.linalg.norm(xbar))], d])
    return f, xbar, W, d


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(sorted(BISECT_FIELDS) + ["orthant", "hoffman_corner"]),
       st.sampled_from([1, 12, 48, 10 ** 6]), st.integers(0, 2 ** 32 - 1))
@example("orthant", 48, 3118)
def test_descent_waves_are_the_round_loop_bit_for_bit(name, target, seed):
    # a target of one trial direction runs one round a wave (L = 1); the
    # larger ones run several, up to every round left in one wave
    f, xbar, W, d = _descent_case(name, np.random.default_rng(seed))
    with mock.patch.object(slopes, "_DESCENT_ROWS", target):
        Wg, dg = _direction_descent(f, xbar, W, d)
    Wr, dr = _descent_rounds(f, xbar, W, d)
    assert Wg.tobytes() == Wr.tobytes()
    assert dg.tobytes() == dr.tobytes()


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(sorted(BISECT_FIELDS)), st.integers(1, 12),
       st.integers(1, 4), st.integers(0, 2 ** 32 - 1))
def test_pruned_bisection_keeps_the_unpruned_bits(name, rows, groups, seed):
    f, n, feasible = BISECT_FIELDS[name]
    gen = np.random.default_rng(seed)
    xbar = gen.uniform(0.2, 1.5, n)
    D = feasible(gen, (rows, n)) - xbar
    hi = gen.uniform(0.5, 1.5, rows)
    group = np.sort(gen.integers(0, groups, rows))
    full = _bisect(f, xbar, D, hi, _RAY_ITERS)
    # each group's bar lies near the ends its rows reach
    bar = full[gen.integers(0, rows, groups)] * gen.uniform(0.9, 1.1, groups)
    best = bar[group]
    got = _bisect(f, xbar, D, hi, _RAY_ITERS, best, group)
    kept = np.isfinite(got)
    assert got[kept].tobytes() == full[kept].tobytes()
    for g in np.unique(group):
        mine = np.flatnonzero(group == g)
        j = mine[np.argmin(full[mine])]
        if full[j] < bar[g]:
            # the group's first argmin below its bar is kept, so the
            # first argmin of the pruned ends is the same row
            assert mine[np.argmin(got[mine])] == j
        else:
            assert not np.any(got[mine] < bar[g])
        # a retired row could not have been that argmin
        gone = mine[~kept[mine]]
        assert np.all((full[gone] >= bar[g]) | (full[gone] > full[j]))


def test_registry_certificate_descent_calls_the_field_less():
    # hoffman_2d's certificate on a 300-sample region: its three hits run
    # 24 rounds apiece, and hit 0 starts at the exact corner foot (0, 0)
    inst = builtin("hoffman_2d")
    region = default_region(inst.x0, 1.25, sample_budget=300, seed=12345,
                            grid_resolution=7)
    f = residual_field(inst.F, inst.y0)
    seen = []

    def grab(*args):
        seen.append(args)
        return _direction_descent(*args)

    with mock.patch.object(slopes, "_direction_descent", grab):
        error_bound_certificate(f, [0.6, 0.8], region)
    [(_, xbar, W, d)] = seen
    assert W[0].tobytes() == np.zeros(2).tobytes()
    waves, rounds = [], []
    Wg, dg = _direction_descent(counting(f, waves), xbar, W, d)
    Wr, dr = _descent_rounds(counting(f, rounds), xbar, W, d)
    assert (Wg.tobytes(), dg.tobytes()) == (Wr.tobytes(), dr.tobytes())
    # 85 calls over 38,378 rows against 278 over 80,177
    assert 3 * len(waves) < len(rounds)
    assert sum(waves) < sum(rounds)


def test_ray_kernels_call_nothing_on_zero_rows():
    def refuse(X):
        raise AssertionError("field called on zero rows")

    xbar, D = np.ones(2), np.empty((0, 2))
    assert _reach(refuse, xbar, D, 1.0, _DESCENT_FACTORS).shape == (0,)
    assert _bisect(refuse, xbar, D, np.empty(0), _RAY_ITERS).shape == (0,)
    assert _bisect(refuse, xbar, D, np.empty(0), _RAY_ITERS, np.empty(0),
                   np.empty(0, dtype=int)).shape == (0,)


PROBLEM_FILES = ("rotated_halfplane.json", "round_k.json")


def _contract_problem(name):
    """(F, x0, y0, dc) of a registry instance, or of one of the two problem
    files the report digests run: a skew K and a polynomial map into a
    product K."""
    if name in PROBLEM_FILES:
        p = load_problem(str(Path(__file__).resolve().parents[1] / "tools"
                             / name))
    else:
        p = builtin(name)
    return p.F, p.x0, p.y0, p.dc


@pytest.mark.parametrize("name", registry_names() + PROBLEM_FILES)
def test_regcert_fields_meet_the_field_contract(name):
    # the slope estimators assume that a field evaluates each row the same
    # whatever else its batch holds, a lone row included; every row of a
    # 40-row image distance and envelope call is its one-row call, bit for
    # bit.  Odd rows put y within a few tolerances of F(x), where the
    # envelope's closure probes run
    F, x0, y0, dc = _contract_problem(name)
    gen = np.random.default_rng(41)
    tol = 1e-3
    X = x0 + gen.uniform(-1.25, 1.25, (40, F.dim_in))
    Y = y0 + gen.uniform(-1.5, 1.5, (40, F.dim_out))
    near = np.arange(40) % 2 == 1
    Y[near] = (F.f.eval_batch(X[near]) - F.K.project_batch(Y[near])
               + tol * gen.uniform(0.1, 4.0, (20, 1))
               * gen.standard_normal((20, F.dim_out)))
    lip = F.lipschitz_bound(np.stack([x0 - 1.25, x0 + 1.25], axis=1))
    fields = [lambda X, Y: image_distance_batch(F, X, Y)]
    if dc is not None:
        fields.append(lambda X, Y: envelope_batch(F, dc, X, Y, tol, lip))
    for field in fields:
        batch = field(X, Y)
        for i in range(40):
            one = field(X[i:i + 1], Y[i:i + 1])
            assert one.tobytes() == batch[i:i + 1].tobytes(), (name, i)


# ---------------------------------------------------------------------------
# Error-bound certificates.

def test_error_bound_orthant_residual():
    from regcert import AffineMap, MultiMap, Polyhedron
    F = MultiMap(AffineMap(np.eye(2), np.zeros(2)),
                 Polyhedron(np.eye(2), np.zeros(2)))
    field = residual_field(F, np.zeros(2))
    region = SearchRegion(np.array([[-1.5, 1.5], [-1.5, 1.5]]), 9, 300, 0)
    cert = error_bound_certificate(field, [0.6, 0.8], region)
    assert cert.holds
    assert cert.f_value == pytest.approx(1.0, abs=1e-9)
    assert cert.d_sublevel == pytest.approx(1.0, abs=1e-6)
    assert cert.slope_inf == pytest.approx(1.0, rel=1e-6)
    assert cert.n_slope_points >= 1
    assert cert.boundary_witness is not None
    assert at(field, cert.boundary_witness) <= 1e-6


def test_error_bound_vanishing_slope():
    from regcert import MultiMap, PolynomialMap, Singleton
    F = MultiMap(PolynomialMap(1, [[(1.0, (2,))]]), Singleton(np.zeros(1)))
    field = residual_field(F, np.zeros(1))
    region = SearchRegion(np.array([[-1.25, 1.25]]), 9, 300, 0)
    cert = error_bound_certificate(field, [0.75], region)
    # the slope decays toward the solution set, so the certified product
    # stays far below the residual but the bound itself still holds
    assert cert.holds
    assert cert.f_value == pytest.approx(0.5625, abs=1e-9)
    assert cert.d_sublevel == pytest.approx(0.75, abs=1e-6)
    assert 0.0 <= cert.slope_inf < 0.5
    assert cert.slope_inf * cert.d_sublevel <= cert.f_value + 1e-9


def test_error_bound_rejects_interior_point():
    from regcert import AffineMap, MultiMap, Polyhedron
    F = MultiMap(AffineMap(np.eye(2), np.zeros(2)),
                 Polyhedron(np.eye(2), np.zeros(2)))
    field = residual_field(F, np.zeros(2))
    region = SearchRegion(np.array([[-1.5, 1.5], [-1.5, 1.5]]), 9, 300, 0)
    with pytest.raises(InSet):
        error_bound_certificate(field, [-0.5, -0.5], region)


def test_error_bound_random_orthant_sample():
    rng = np.random.default_rng(100)
    for _ in range(10):
        F, xbar = orthant_instance(rng)
        field = residual_field(F, np.zeros(F.dim_out))
        box = np.stack([xbar - 2.0, xbar + 2.0], axis=1)
        region = SearchRegion(box, 7, 200, seed=5)
        cert = error_bound_certificate(field, xbar, region,
                                       max_slope_points=8, slope_budget=150)
        assert cert.holds
        assert cert.f_value > 0.0


def test_error_bound_checks_its_point_and_slope_points():
    inst = builtin("hoffman_2d")
    field = residual_field(inst.F, inst.y0)
    region = default_region(inst.x0, 1.25, sample_budget=100, seed=0)
    with pytest.raises(DimensionMismatch, match="xbar"):
        error_bound_certificate(field, [0.6], region)
    for bad in (0, -1):
        with pytest.raises(InvalidParameter, match="max_slope_points"):
            error_bound_certificate(field, [0.6, 0.8], region,
                                    max_slope_points=bad)
    cert = error_bound_certificate(field, [0.6, 0.8], region,
                                   max_slope_points=1)
    assert cert.holds
