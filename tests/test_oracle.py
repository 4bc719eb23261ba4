"""Ground-truth lattice oracle: distances, slopes, modulus, guard rails."""

import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from regcert import oracle
from regcert.errors import (
    DimensionMismatch,
    EmptySet,
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
from regcert.multimap import AffineMap, MultiMap, default_region
from regcert.oracle import (
    _CHUNK_ROWS,
    Grid,
    _nearest,
    _oracle_membership,
    clamp_distance_batch,
    grid_global_slope,
    grid_modulus,
    grid_preimage_distance,
)
from regcert.regularity import RegularityQuery

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


def _clamp_reference(K, Z):
    # reference: the row-wise box line the per-axis box path replaced, with
    # the sign bit of a NaN cleared as clamp_distance_batch clears it (the
    # sign that NaN + NaN keeps depends on the batch length)
    return np.abs(_clamp_reference_signed(K, Z))


def _clamp_reference_signed(K, Z):
    if isinstance(K, Ball):
        return np.maximum(
            np.linalg.norm(Z - K.center, axis=1) - K.radius, 0.0)
    if isinstance(K, ProductSet):
        acc = np.zeros(Z.shape[0])
        ofs = 0
        for blk in K.factors:
            acc += _clamp_reference_signed(blk, Z[:, ofs:ofs + blk.dim]) ** 2
            ofs += blk.dim
        return np.sqrt(acc)
    lo, hi = oracle._box_form(K)
    return np.linalg.norm(Z - np.clip(Z, lo, hi), axis=1)


_SPECIAL = [0.0, -0.0, np.inf, -np.inf, np.nan, 1e300, -1e300, 1e-300,
            -1e-300, 1.7e308, -4.9e-324]
_FINITE = st.floats(-1e3, 1e3) | st.sampled_from([1e300, -1e300, 1e-300,
                                                   -0.0])


@st.composite
def _box_polyhedron(draw, dim):
    # per axis: unbounded, one-sided either way, two-sided or lo == hi,
    # the axis's rows scaled alike, so the bound rhs / coefficient keeps
    # lo <= hi through the rounding
    C, d = [], []
    for j in range(dim):
        kind = draw(st.sampled_from(["free", "upper", "lower", "both",
                                     "equal"]))
        a, b = sorted([draw(_FINITE), draw(_FINITE)])
        if kind == "equal":
            b = a
        scale = draw(st.sampled_from([1.0, 0.5, 3.0]))
        for sign, bound in (("upper", b), ("lower", a)):
            if kind in (sign, "both", "equal"):
                row = np.zeros(dim)
                row[j] = scale if sign == "upper" else -scale
                C.append(row)
                d.append(row[j] * bound)
    if not C:
        return Polyhedron(np.zeros((0, dim)), np.zeros(0))
    return Polyhedron(np.array(C), np.array(d))


@st.composite
def _clamp_set(draw, dim, product=True):
    kind = draw(st.sampled_from(["singleton", "box", "ball"]
                                + (["product"] if product and dim > 1
                                   else [])))
    if kind == "singleton":
        return Singleton([draw(_FINITE) for _ in range(dim)])
    if kind == "ball":
        return Ball([draw(_FINITE) for _ in range(dim)],
                    draw(st.floats(0.0, 10.0)))
    if kind == "box":
        return draw(_box_polyhedron(dim))
    split = draw(st.integers(1, dim - 1))
    return ProductSet((draw(_clamp_set(split, False)),
                       draw(_clamp_set(dim - split))))


@settings(max_examples=200, deadline=None)
@given(st.data(), st.integers(1, 3), st.integers(1, 40), st.booleans(),
       st.integers(0, 2 ** 31 - 1))
def test_clamp_distance_is_the_row_norm_bit_for_bit(data, dim, rows,
                                                    axis_major, seed):
    # the per-axis box path against np.linalg.norm(Z - np.clip(Z, lo, hi)),
    # on rows or on the transposed view of an axis-major stack, as the
    # oracle's stacked callers pass it; a lone row gets its batch's bits.
    # Coordinates spread over six decades, so a sum taken in another order
    # rounds differently, with drawn entries written over some of them.
    K = data.draw(_clamp_set(dim))
    gen = np.random.default_rng(seed)
    Z = (gen.standard_normal((rows, dim))
         * 10.0 ** gen.uniform(-3.0, 3.0, (rows, dim)))
    for i, v in data.draw(st.lists(st.tuples(
            st.integers(0, rows * dim - 1),
            st.sampled_from(_SPECIAL) | st.floats(allow_nan=False)),
            max_size=rows * dim)):
        Z.flat[i] = v
    arg = np.ascontiguousarray(Z.T).T if axis_major else Z
    with np.errstate(invalid="ignore", over="ignore"):
        got = clamp_distance_batch(K, arg)
        want = _clamp_reference(K, Z)
        alone = [clamp_distance_batch(K, arg[i:i + 1]) for i in range(rows)]
    assert got.tobytes() == want.tobytes()
    assert np.concatenate(alone).tobytes() == got.tobytes()


def test_clamp_distance_nan_sign_does_not_depend_on_the_batch():
    # a free axis at inf gives inf - inf, a negative NaN, and a singleton
    # axis at NaN a positive one; numpy's add keeps the second operand's
    # NaN for one element and the first's for more
    K = ProductSet((Polyhedron(np.zeros((0, 1)), np.zeros(0)),
                    Singleton([0.0, 0.0])))
    box = Polyhedron(np.zeros((0, 2)), np.zeros(0))
    for S, row in ((K, [np.inf, np.nan, 1.0]), (box, [np.inf, np.nan])):
        Z = np.array([np.ones(len(row)), row])
        with np.errstate(invalid="ignore"):
            batch = clamp_distance_batch(S, Z)
            alone = clamp_distance_batch(S, Z[1:])
        assert np.isnan(batch[1]) and not np.signbit(batch[1])
        assert alone.tobytes() == batch[1:].tobytes()


def test_box_form_is_keyed_by_the_whole_system():
    C = np.array([[1.0, 0.0], [0.0, -2.0]])
    lo1, hi1 = oracle._box_form(Polyhedron(C, np.array([1.0, 2.0])))
    lo2, hi2 = oracle._box_form(Polyhedron(C, np.array([3.0, 4.0])))
    assert np.array_equal(hi1, [1.0, np.inf]) and np.array_equal(
        lo1, [-np.inf, -1.0])
    assert np.array_equal(hi2, [3.0, np.inf]) and np.array_equal(
        lo2, [-np.inf, -2.0])
    # every caller shares the cached arrays, so they refuse writes
    with pytest.raises(ValueError):
        hi1[0] = 0.0
    with pytest.raises(ValueError):
        lo2[1] = 0.0


def test_box_form_crossing_bounds_raise_every_call():
    K = Polyhedron(np.array([[1.0], [-1.0]]), np.array([0.0, -1.0]))
    for _ in range(3):
        with pytest.raises(EmptySet):
            clamp_distance_batch(K, [[0.5]])


def test_grid_modulus_derives_the_box_form_once(monkeypatch):
    calls = []

    def counted(C, d):
        calls.append(C.shape)
        return bounds(C, d)

    bounds = oracle._axis_bounds
    monkeypatch.setattr(oracle, "_axis_bounds", counted)
    oracle._polyhedron_box.cache_clear()
    grid_modulus(*modulus_case("hoffman_2d"))
    assert calls == [(2, 2)]


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


def test_clamp_distance_skew_rows_are_batch_independent():
    # a lone row must not take a BLAS kernel that rounds differently
    gen = np.random.default_rng(5)
    for dim in (2, 3):
        poly = bounded_random_polyhedron(gen, dim, extra_rows=3)
        Z = gen.uniform(-20, 20, size=(120, dim))
        batch = clamp_distance_batch(poly, Z)
        alone = [clamp_distance_batch(poly, z[None, :])[0] for z in Z]
        assert batch.tobytes() == np.array(alone).tobytes()


def test_clamp_distance_unsupported_set():
    with pytest.raises(InvalidParameter):
        clamp_distance_batch(DirectionalCone([0.0, 1.0], 0.1), [[1.0, 1.0]])


# ---------------------------------------------------------------------------
# Directional membership scan.

# a thin wedge around the negative first axis with a skew cap: the cyclic
# sweeps, not the box clamp, give its distances
SKEW = Polyhedron(np.array([[0.1, -1.0], [0.1, 1.0], [-1.0, 0.3]]),
                  np.array([0.0, 0.0, 1.0]))
MEMBERSHIP_SETS = {
    "halfplane box": builtin("halfplane_directional").F.K,
    "skew": SKEW,
    "ball x skew": ProductSet((Ball(np.zeros(1), 0.5), SKEW)),
    "ball": Ball(np.array([0.2, -0.1]), 0.7),
}
DIFF6 = np.array([[0.0, -0.5], [0.05, 0.3], [-0.4, -0.05], [1.0, -1.0],
                  [0.0, 0.0], [-0.7, 0.6]])


def _onto(K):
    return MultiMap(AffineMap(np.eye(K.dim), np.zeros(K.dim)), K)


def _membership_by_scale(F, diff, ybar, delta):
    # reference: one clamp call per scale, the loop the stacked scan replaced
    ny = float(np.linalg.norm(ybar))
    B = diff.shape[0]
    hi = 10.0 * (np.linalg.norm(diff, axis=1) + 1.0) / max(ny - delta, 1e-12)
    S = np.concatenate([[0.0], np.geomspace(1e-6, 1.0, 256)])[None, :] \
        * hi[:, None]
    vals = np.empty_like(S)
    for j in range(S.shape[1]):
        resid = clamp_distance_batch(F.K, diff + S[:, j, None] * ybar)
        vals[:, j] = np.maximum(resid - delta * S[:, j], 0.0)
    arg = np.argmin(vals, axis=1)
    best = vals[np.arange(B), arg]
    lo_s = S[np.arange(B), np.maximum(arg - 1, 0)]
    hi_s = S[np.arange(B), np.minimum(arg + 1, S.shape[1] - 1)]
    Z = lo_s[:, None] + (hi_s - lo_s)[:, None] * np.linspace(0, 1, 33)[None, :]
    for j in range(Z.shape[1]):
        resid = clamp_distance_batch(F.K, diff + Z[:, j, None] * ybar)
        np.minimum(best, np.maximum(resid - delta * Z[:, j], 0.0), out=best)
    return best


def test_oracle_membership_frozen_values():
    # the per-scale loop's output on a fixed input, bit for bit
    inst = builtin("halfplane_directional")
    box = _oracle_membership(inst.F, DIFF6, inst.dc.ybar, inst.dc.delta)
    assert np.array_equal(box, [
        0.0, 0.30413812651491096, 0.3819183617637634, 0.7797967963799353,
        0.0, 0.9219544457292886])
    skew = _oracle_membership(_onto(SKEW), DIFF6, np.array([-1.0, 0.0]), 0.05)
    assert np.array_equal(skew, [
        0.3448654297658415, 0.1540102608621315, 0.0, 0.7942396481407533,
        0.0, 0.49441180492200154])


@settings(max_examples=24, deadline=None)
@given(st.sampled_from(sorted(MEMBERSHIP_SETS)), st.integers(1, 6),
       st.integers(0, 2 ** 31 - 1))
def test_oracle_membership_rows_are_batch_independent(name, rows, seed):
    K = MEMBERSHIP_SETS[name]
    gen = np.random.default_rng(seed)
    diff = gen.uniform(-2.0, 2.0, size=(rows, K.dim))
    ybar = gen.standard_normal(K.dim)
    ybar /= np.linalg.norm(ybar)
    delta = float(gen.uniform(0.05, 0.5))
    F = _onto(K)
    batch = _oracle_membership(F, diff, ybar, delta)
    for i in range(rows):
        alone = _oracle_membership(F, diff[i:i + 1], ybar, delta)
        assert batch[i].tobytes() == alone[0].tobytes()


def test_oracle_membership_splits_large_batches(monkeypatch):
    # three row chunks, the last one short, of _CHUNK_ROWS // 257 rows each
    inst = builtin("halfplane_directional")
    gen = np.random.default_rng(4)
    diff = gen.uniform(-2.0, 2.0, size=(2 * (_CHUNK_ROWS // 257) + 9, 2))
    calls = []

    def counted(K, Z):
        calls.append(Z.shape[0])
        return clamp_distance_batch(K, Z)

    monkeypatch.setattr(oracle, "clamp_distance_batch", counted)
    got = _oracle_membership(inst.F, diff, inst.dc.ybar, inst.dc.delta)
    # each chunk runs the 257-scale grid and then the 33-point zoom
    assert len(calls) == 6 and max(calls) <= _CHUNK_ROWS
    monkeypatch.undo()
    want = _membership_by_scale(inst.F, diff, inst.dc.ybar, inst.dc.delta)
    assert np.array_equal(got, want)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_nearest_matches_broadcast_norm(n):
    # lattice points with exact ties, every point twice so equal rows sit
    # in different blocks, and queries on and between lattice points
    side = {1: 900, 2: 30, 3: 10}[n]
    lattice = np.stack([m.ravel() for m in np.meshgrid(
        *([np.arange(side, dtype=float) * 0.1] * n), indexing="ij")], axis=1)
    B = np.concatenate([lattice, lattice[::-1]])
    gen = np.random.default_rng(n)
    A = np.concatenate([
        lattice[gen.integers(0, lattice.shape[0], 150)],
        lattice[gen.integers(0, lattice.shape[0], 150)] + 0.05,
        gen.uniform(-0.5, 0.1 * side + 0.5, size=(200, n))])
    assert B.shape[0] > _CHUNK_ROWS // A.shape[0]
    d = np.linalg.norm(A[:, None, :] - B[None, :, :], axis=2)
    idx, dist = _nearest(A, B)
    assert np.array_equal(idx, np.argmin(d, axis=1))
    assert dist.tobytes() == d.min(axis=1).tobytes()


# ---------------------------------------------------------------------------
# Preimage distances.

def test_grid_preimage_frozen_values():
    F = builtin("halfplane_directional").F
    g = Grid(np.array([[-5.0, 5.0]]), 101)
    assert grid_preimage_distance(F, [2.0, 1.0], [0.0], g) == pytest.approx(
        2.0, abs=1e-12)
    # no lattice point is feasible, and the interiority LP fails at this y,
    # so no GridTooCoarse warning fires
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert grid_preimage_distance(F, [2.0, -1.0], [0.0], g) == np.inf
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
    def f(U):
        return np.abs(U[:, 0])

    g = Grid(np.array([[-2.0, 2.0]]), 81)
    assert grid_global_slope(f, [1.0], g) == pytest.approx(1.0, abs=1e-12)


def test_grid_slope_parabola_step_accurate():
    def f(U):
        return U[:, 0] ** 2

    # sup of (1 - u^2)/(1 - u) = 1 + u is approached at the lattice point
    # just left of 1, so the value is exactly 2 - step
    for pts in (21, 81):
        g = Grid(np.array([[-2.0, 2.0]]), pts)
        assert grid_global_slope(f, [1.0], g) == pytest.approx(2.0 - g.step,
                                                              abs=1e-9)


def test_grid_slope_guards():
    def f(U):
        return np.full(U.shape[0], np.inf)

    def ok(U):
        return np.zeros(U.shape[0])

    g = Grid(np.array([[-1.0, 1.0]]), 11)
    with pytest.raises(InvalidParameter):
        grid_global_slope(f, [0.0], g)
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


# ---------------------------------------------------------------------------
# Blocked modulus pass against the per-target loop it replaced.

def _pool_per_target(F, v, g, G, fG, US, L):
    # reference: one target's preimage pool, one clamp call per round
    n = g.dim

    def tol_at(spacing):
        return max(oracle.TOL_FEAS,
                   0.6 * L * float(spacing.max()) * np.sqrt(n))

    spacing = g.spacing
    pool = G[clamp_distance_batch(F.K, fG - v) <= tol_at(spacing)]
    if pool.shape[0] == 0:
        return None
    offs = np.stack([m.ravel() for m in np.meshgrid(
        *([np.linspace(-4.0, 4.0, 17)] * n), indexing="ij")], axis=1)
    for _ in range(oracle._POOL_ROUNDS):
        nearest, _ = _nearest(US, pool)
        centers = pool[np.unique(nearest)[:oracle._POOL_CENTERS]]
        spacing = spacing / 2.0
        tol = tol_at(spacing)
        cand = (centers[:, None, :]
                + offs[None, :, :] * spacing[None, None, :]).reshape(-1, n)
        resid = clamp_distance_batch(F.K, F.f.eval_batch(cand) - v)
        hit = cand[resid <= tol]
        if hit.shape[0] == 0:
            break
        if hit.shape[0] > 4096:
            hit = hit[:: hit.shape[0] // 4096 + 1]
        pool = hit
    return pool


@pytest.mark.parametrize("name", ["parabola_eb", "hoffman_2d"])
def test_preimage_pools_match_per_target_pools(name):
    # targets below the parabola's range leave the rounds early or have
    # no stage-one pool; the whole lattice as query set needs more than
    # _POOL_CENTERS centers
    F = builtin(name).F
    g = Grid(np.tile([[-1.0, 1.0]], (F.dim_in, 1)), 21 if name == "hoffman_2d"
             else 201)
    G = g.lattice()
    fG = F.f.eval_batch(G)
    V = np.array([-0.3, -0.012, -0.006, 0.0, 0.05, 0.3, 0.6])[:, None] \
        * np.ones(F.dim_out)
    L = F.lipschitz_bound(g.box)
    US = [G[i::2] for i in range(V.shape[0])]
    got = oracle._preimage_pool(F, V, g, G, fG, US, L)
    want = [_pool_per_target(F, v, g, G, fG, us, L) for v, us in zip(V, US)]
    assert [None if p is None else p.tobytes() for p in got] == [
        None if p is None else p.tobytes() for p in want]


def _modulus_per_target(F, q, g_x, g_y):
    # reference: the loop over y targets the blocked pass replaced, with
    # one image clamp, one membership scan and one pool per target
    min_image = 0.3 * q.epsilon
    if q.dc is not None:
        ny = float(np.linalg.norm(q.dc.ybar))
        if ny > 0.0:
            min_image *= min(q.dc.delta / ny, 1.0)
    G = g_x.lattice()
    fG = F.f.eval_batch(G)
    inball = np.linalg.norm(G - q.x0, axis=1) <= q.epsilon
    U, fU = G[inball], fG[inball]
    V = g_y.lattice()
    V = V[np.linalg.norm(V - q.y0, axis=1) <= q.epsilon]
    if U.size == 0 or V.size == 0:
        raise NoAdmissibleSamples("the query balls contain no lattice points")
    L = F.lipschitz_bound(g_x.box)
    sup, any_pairs, coarse_flag = 0.0, False, False
    for v in V:
        img = clamp_distance_batch(F.K, fU - v)
        ok = (img > min_image) & (img < q.epsilon)
        if q.dc is not None and np.any(ok):
            mv = _oracle_membership(F, fU[ok] - v, q.dc.ybar, q.dc.delta)
            sel = np.where(ok)[0][mv <= q.tol_member]
            ok = np.zeros_like(ok)
            ok[sel] = True
        idx = np.where(ok)[0]
        if idx.size == 0:
            continue
        any_pairs = True
        pool = _pool_per_target(F, v, g_x, G, fG, U[idx], L)
        if pool is None:
            coarse_flag = True
            sup = np.inf
            continue
        _, pre = _nearest(U[idx], pool)
        sup = max(sup, float((pre / img[idx]).max()))
    if not any_pairs:
        raise NoAdmissibleSamples("no admissible lattice pairs at this step")
    if coarse_flag and isinstance(F.f, AffineMap):
        oracle._warn_if_coarse(F, q.x0, q.y0, "coarse")
    return float(sup)


def _cube_map():
    # a skewed affine map of R^3 onto a box cone
    A = np.array([[1.0, 0.3, 0.0], [-0.2, 0.9, 0.1], [0.0, 0.4, 1.1]])
    K = Polyhedron(np.vstack([np.eye(3), -np.eye(3)])[:4],
                   np.array([0.2, 0.1, 0.3, 0.2]))
    return MultiMap(AffineMap(A, np.zeros(3)), K)


# name -> (registry instance or (F, x0, y0, dc), x points, y points); the
# lattice sizes keep a case within a fraction of a second
MODULUS_CASES = {
    "identity2": ("identity2", 9, 5),
    "hoffman_2d": ("hoffman_2d", 11, 5),
    "parabola_eb": ("parabola_eb", 41, 15),
    "halfplane_directional": ("halfplane_directional", 25, 5),
    "skew": ((_onto(SKEW), [0.0, 0.0], [0.5, 0.0], None), 5, 3),
    "skew directional": ((_onto(SKEW), [0.0, 0.0], [0.5, 0.0],
                          DirectionalCone([-1.0, 0.2], 0.3)), 7, 3),
    "cube": ((_cube_map(), [0.0] * 3, [0.0] * 3, None), 5, 3),
    "cube directional": ((_cube_map(), [0.0] * 3, [0.0] * 3,
                          DirectionalCone([0.0, 1.0, 0.3], 0.4)), 5, 3),
}


def modulus_case(name, epsilon=0.5, x_halfwidth=2.5, shift=0, points=None):
    """(F, q, g_x, g_y) for a case; the x lattice spans x_halfwidth *
    epsilon around x0, and shift adds points per axis to both lattices
    unless points gives both counts."""
    spec, px, py = MODULUS_CASES[name]
    if points is not None:
        px, py = points
    if isinstance(spec, str):
        inst = builtin(spec)
        spec = (inst.F, inst.x0, inst.y0, inst.dc)
    F, x0, y0, dc = spec
    q = RegularityQuery(F, x0, y0, dc=dc, epsilon=epsilon,
                        region=default_region(np.asarray(x0, dtype=float),
                                              1.0, 10, seed=0))
    w = x_halfwidth * epsilon
    g_x = Grid(np.stack([q.x0 - w, q.x0 + w], axis=1), px + shift)
    g_y = Grid(np.stack([q.y0 - epsilon, q.y0 + epsilon], axis=1),
               py + shift)
    return F, q, g_x, g_y


def _outcome(fn, *args):
    """(value bits or exception type, warning categories) of one call."""
    with warnings.catch_warnings(record=True) as seen:
        warnings.simplefilter("always")
        try:
            got = float(fn(*args)).hex()
        except NoAdmissibleSamples:
            got = "NoAdmissibleSamples"
    return got, [w.category for w in seen]


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(sorted(MODULUS_CASES)), st.sampled_from([0.3, 0.5]),
       st.sampled_from([2.5, 0.1]), st.integers(0, 1))
def test_grid_modulus_matches_per_target_loop(name, epsilon, x_halfwidth,
                                              shift):
    case = modulus_case(name, epsilon, x_halfwidth, shift)
    assert _outcome(grid_modulus, *case) == _outcome(_modulus_per_target,
                                                     *case)


@pytest.mark.parametrize("name, kwargs, expected", [
    # no x lattice point maps near the targets: sup = inf, and the
    # interiority LP holds, so the coarse-lattice warning fires
    ("identity2", {"x_halfwidth": 0.1}, ("inf", [GridTooCoarse])),
    ("halfplane_directional", {"points": (15, 7)},
     ("NoAdmissibleSamples", [])),
    ("parabola_eb", {}, ("inf", [])),
])
def test_grid_modulus_edge_outcomes_match_per_target_loop(name, kwargs,
                                                          expected):
    case = modulus_case(name, **kwargs)
    got = _outcome(grid_modulus, *case)
    assert got == _outcome(_modulus_per_target, *case) == expected


@pytest.mark.parametrize("rows", [7, 257, 300])
@pytest.mark.parametrize("name", ["hoffman_2d", "halfplane_directional",
                                  "skew", "cube"])
def test_grid_modulus_blocks_keep_bits_and_row_budget(monkeypatch, name,
                                                      rows):
    # budgets that split a target's pairs into several blocks, a local
    # grid of 289 candidates across groups and the 257-scale grid
    case = modulus_case(name)
    want = grid_modulus(*case)
    calls = []

    def counted(K, Z):
        calls.append(Z.shape[0])
        return clamp_distance_batch(K, Z)

    monkeypatch.setattr(oracle, "_CHUNK_ROWS", rows)
    monkeypatch.setattr(oracle, "clamp_distance_batch", counted)
    assert grid_modulus(*case).hex() == want.hex()
    assert calls and max(calls) <= rows


def test_grid_modulus_memory_stays_blocked():
    # oracle-check's default lattices on hoffman_2d; holding every
    # target's pairs and pools at once peaked near 11 MB
    inst = builtin("hoffman_2d")
    q = RegularityQuery(inst.F, inst.x0, inst.y0, epsilon=0.5,
                        region=default_region(inst.x0, 1.25, 10, seed=0))
    g_x = Grid(np.stack([q.x0 - 1.25, q.x0 + 1.25], axis=1), 41)
    g_y = Grid(np.stack([q.y0 - 0.5, q.y0 + 0.5], axis=1), 21)
    tracemalloc.start()
    try:
        grid_modulus(inst.F, q, g_x, g_y)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5e6
