"""Projections, the LP solver, and cone calculus against independent checks."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import bounded_random_polyhedron, vertex_lp_maximum
from regcert import (Ball, DirectionalCone, EmptySet, Polyhedron, ProductSet,
                     Singleton, normal_cone_generators,
                     project_onto_generated_cone, solve_lp)
from regcert import geometry
from regcert.geometry import (TOL_FEAS, dykstra_halfspaces, golden_min,
                              project_halfspaces)
from regcert.multimap import as_polyhedron


def box2(lo=-1.0, hi=1.0):
    return Polyhedron(np.vstack([np.eye(2), -np.eye(2)]),
                      np.array([hi, hi, -lo, -lo]))


# ---------------------------------------------------------------------------
# Frozen projection values.

def test_box_projection_clamps():
    P = box2()
    assert np.allclose(P.project([2.0, 0.3]), [1.0, 0.3])
    assert np.allclose(P.project([-4.0, 9.0]), [-1.0, 1.0])
    assert P.distance([2.0, 0.0]) == pytest.approx(1.0, abs=1e-9)
    assert P.distance([0.2, -0.2]) == 0.0
    assert P.contains([1.0, 1.0])
    assert not P.contains([1.1, 0.0])


def test_halfplane_projection():
    # x + y <= 0
    P = Polyhedron(np.array([[1.0, 1.0]]), np.zeros(1))
    assert np.allclose(P.project([1.0, 1.0]), [0.0, 0.0], atol=1e-9)
    assert P.distance([1.0, 1.0]) == pytest.approx(np.sqrt(2.0), abs=1e-9)


def test_ball_singleton_product():
    B = Ball(np.zeros(2), 1.0)
    assert np.allclose(B.project([3.0, 4.0]), [0.6, 0.8])
    assert B.distance([3.0, 4.0]) == pytest.approx(4.0)
    S = Singleton(np.array([2.0, -1.0]))
    assert S.distance([2.0, 2.0]) == pytest.approx(3.0)
    prod = ProductSet([B, S])
    z = np.array([3.0, 4.0, 2.0, 2.0])
    assert np.allclose(prod.project(z), [0.6, 0.8, 2.0, -1.0])
    assert prod.distance(z) == pytest.approx(5.0)


def test_infeasible_polyhedron_detected():
    P = Polyhedron(np.array([[1.0], [-1.0]]), np.array([-2.0, -2.0]))
    assert not P.is_feasible()
    assert box2().is_feasible()


def test_dykstra_matches_polyhedron_project():
    P = Polyhedron(np.array([[1.0, 1.0], [1.0, -2.0]]),
                   np.array([0.0, 1.0]))
    pts = np.array([[1.0, 1.0], [3.0, -2.0], [-1.0, 0.5], [0.0, 4.0]])
    proj, resid = dykstra_halfspaces(P.C, P.d, pts)
    assert np.max(resid) < 1e-7
    for row, want in zip(proj, P.project_batch(pts)):
        assert np.allclose(row, want, atol=1e-6)


def test_empty_polyhedron_still_raises_and_has_infinite_distance():
    # no active set passes on an empty system, so every row falls back to
    # Dykstra, whose residual triggers the feasibility LP
    P = Polyhedron(np.array([[1.0], [-1.0]]), np.array([-2.0, -2.0]))
    with pytest.raises(EmptySet):
        P.project_batch(np.array([[0.5], [3.0]]))
    assert np.all(np.isinf(P.distance_batch(np.array([[0.5], [3.0]]))))


# ---------------------------------------------------------------------------
# The exact active-set projection against Dykstra.

def _axis_form(name, gen):
    """(C, rhs) of a registry-style axis-aligned system, rhs per row.

    The forms are the nonpositive orthant, the halfplane K, the +-e_i
    pairs of a singleton, and their pullbacks through identity and
    diagonal maps, with the right-hand sides the preimage route builds.
    """
    halfplane = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0]])
    pairs = as_polyhedron(Singleton(gen.uniform(-1.0, 1.0, 2)))
    diag = np.diag(gen.choice([0.5, 2.0, 3.0, 0.7], size=2))
    Y = gen.uniform(-1.0, 1.0, (40, 2))
    if name == "orthant":
        return np.eye(2), np.zeros((40, 2))
    if name == "halfplane":
        return halfplane, np.zeros((40, 3))
    if name == "singleton":
        return pairs.C, np.broadcast_to(pairs.d, (40, 4))
    if name == "orthant_pullback":
        return np.eye(2) @ diag, Y
    if name == "halfplane_pullback":
        # f(x) = (x, 0) drops the zero row, leaving the pair +-e_1
        return halfplane[:2, :1], Y[:, :1] @ np.array([[1.0, -1.0]])
    return pairs.C @ diag, pairs.d - (gen.uniform(-1.0, 1.0, 2) - Y) \
        @ pairs.C.T


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(["orthant", "halfplane", "singleton",
                        "orthant_pullback", "halfplane_pullback",
                        "singleton_pullback"]),
       st.sampled_from([1e-3, 1.0, 100.0]), st.integers(0, 2 ** 32 - 1))
def test_exact_projection_is_dykstra_bit_for_bit_on_axis_forms(name, scale,
                                                               seed):
    # the property that keeps the registry reports: on these rows an
    # accepted point is the one Dykstra stops at, signed zeros included
    # (the estimators project points with exact zeros, such as x0 = 0)
    gen = np.random.default_rng(seed)
    C, rhs = _axis_form(name, gen)
    P = scale * gen.standard_normal((40, C.shape[1]))
    P[gen.random(P.shape) < 0.2] = 0.0
    P[gen.random(P.shape) < 0.1] = -0.0
    rhs = scale * rhs
    Q, resid, _ = project_halfspaces(C, rhs, P)
    want, want_resid = dykstra_halfspaces(C, None, P, rhs=np.array(rhs))
    assert Q.tobytes() == want.tobytes()
    assert np.all(resid <= want_resid)


def _axis_system(gen, max_rows=4, max_dim=3):
    """Random axis-aligned rows, several to an axis and to a side, with any
    nonzero coefficient, through a feasible anchor."""
    dim = int(gen.integers(1, max_dim + 1))
    rows = int(gen.integers(1, max_rows + 1))
    C = np.zeros((rows, dim))
    C[np.arange(rows), gen.integers(0, dim, rows)] = \
        gen.choice([-1.0, 1.0], rows) * gen.uniform(0.2, 3.0, rows)
    d = C @ gen.uniform(-1.0, 1.0, dim) + gen.uniform(0.0, 1.0, rows)
    return C, d


def _skew_system(gen, max_rows=4, max_dim=3):
    """Random rows in dimension 2 or more through a feasible anchor."""
    dim = int(gen.integers(2, max_dim + 1))
    rows = int(gen.integers(1, max_rows + 1))
    C = gen.standard_normal((rows, dim))
    d = C @ gen.uniform(-1.0, 1.0, dim) + gen.uniform(0.0, 1.0, rows)
    return C, d


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 2 ** 32 - 1))
def test_exact_projection_on_axis_aligned_polyhedra(seed):
    # exact rows are feasible, idempotent and agree with a converged
    # Dykstra; the rows no candidate certifies are Dykstra's own
    gen = np.random.default_rng(seed)
    C, d = _axis_system(gen)
    P = 3.0 * gen.standard_normal((50, C.shape[1]))
    Q, resid, exact = project_halfspaces(C, d, P)
    want, want_resid = dykstra_halfspaces(C, d, P)
    assert Q[~exact].tobytes() == want[~exact].tobytes()
    assert resid[~exact].tobytes() == want_resid[~exact].tobytes()
    assert np.all(resid[exact] == 0.0)
    norms = np.linalg.norm(C, axis=1)
    assert np.all((Q[exact] @ C.T - d) / norms <= TOL_FEAS)
    again, _, _ = project_halfspaces(C, d, Q[exact])
    assert np.all(np.abs(again - Q[exact]) <= 1e-9)
    converged = exact & (want_resid <= 1e-10)
    assert np.all(np.abs(Q[converged] - want[converged]) <= 1e-9)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2 ** 32 - 1))
def test_skew_polyhedra_take_dykstra(seed):
    # off the axes the binding rows round, so the whole batch goes to
    # Dykstra before any candidate is tried
    gen = np.random.default_rng(seed)
    C, d = _skew_system(gen)
    P = 3.0 * gen.standard_normal((20, C.shape[1]))
    Q, resid, exact = project_halfspaces(C, d, P)
    want, want_resid = dykstra_halfspaces(C, d, P)
    assert not np.any(exact)
    assert Q.tobytes() == want.tobytes()
    assert resid.tobytes() == want_resid.tobytes()


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.booleans(), st.booleans(),
       st.sampled_from([1 << 16, 2000, 300]))
def test_exact_projection_rows_are_batch_independent(seed, skew, per_row_rhs,
                                                     chunk):
    # alone, in a 30-row batch, and across chunk boundaries of any size
    gen = np.random.default_rng(seed)
    C, d = (_skew_system if skew else _axis_system)(gen)
    P = 3.0 * gen.standard_normal((30, C.shape[1]))
    rhs = d + gen.uniform(-0.5, 0.5, (30, d.size)) if per_row_rhs else d
    saved = geometry._ACTIVE_SET_CHUNK, geometry._MIN_CHUNK_POINTS
    geometry._ACTIVE_SET_CHUNK, geometry._MIN_CHUNK_POINTS = chunk, 1
    try:
        Q, resid, exact = project_halfspaces(C, rhs, P)
        for i in range(30):
            one = rhs[i:i + 1] if per_row_rhs else d
            alone = project_halfspaces(C, one, P[i:i + 1])
            assert alone[0].tobytes() == Q[i:i + 1].tobytes(), i
            assert alone[1][0] == resid[i] and alone[2][0] == exact[i], i
    finally:
        geometry._ACTIVE_SET_CHUNK, geometry._MIN_CHUNK_POINTS = saved


def test_system_past_the_chunk_floor_takes_dykstra():
    # 13 rows on one axis: 13 candidates besides "no row", each checked
    # against all 13 rows, need more than _ACTIVE_SET_CHUNK doubles for
    # _MIN_CHUNK_POINTS points
    gen = np.random.default_rng(4)
    C = gen.choice([-1.0, 1.0], (13, 1)) * gen.uniform(0.5, 2.0, (13, 1))
    d = gen.uniform(0.5, 1.0, 13)
    P = 3.0 * gen.standard_normal((25, 1))
    Q, resid, exact = project_halfspaces(C, d, P)
    want, want_resid = dykstra_halfspaces(C, d, P)
    assert not np.any(exact)
    assert Q.tobytes() == want.tobytes()
    assert resid.tobytes() == want_resid.tobytes()
    # the same system cut to 12 rows fits, and is solved exactly
    assert np.any(project_halfspaces(C[:12], d[:12], P)[2])


def test_golden_min_on_parabola():
    arg, val = golden_min(lambda t: (t - 0.7) ** 2 + 0.25, 0.0, 5.0)
    assert arg == pytest.approx(0.7, abs=1e-6)
    assert val == pytest.approx(0.25, abs=1e-9)


# ---------------------------------------------------------------------------
# LP solver against vertex enumeration (small bounded problems).

def test_lp_known_optimum():
    P = box2()
    res = solve_lp(np.array([1.0, 2.0]), P)
    assert res.status == "optimal"
    assert res.value == pytest.approx(3.0, abs=1e-9)
    assert np.allclose(res.optimum, [1.0, 1.0], atol=1e-9)


def test_lp_unbounded_and_infeasible_status():
    # single halfspace: maximize along the unconstrained direction
    P = Polyhedron(np.array([[1.0, 0.0]]), np.zeros(1))
    assert solve_lp(np.array([0.0, 1.0]), P).status == "unbounded"
    res = solve_lp(np.array([1.0, 0.0]), P)
    assert res.status == "optimal"
    assert res.value == pytest.approx(0.0, abs=1e-9)


def test_lp_matches_vertex_enumeration():
    rng = np.random.default_rng(1234)
    checked = 0
    for _ in range(80):
        dim = int(rng.integers(1, 4))
        extra = int(rng.integers(0, max(1, 9 - 2 * dim)))
        poly = bounded_random_polyhedron(rng, dim, extra)
        objective = rng.standard_normal(dim)
        res = solve_lp(objective, poly)
        want = vertex_lp_maximum(objective, poly)
        assert res.status == "optimal"
        assert want is not None
        assert res.value == pytest.approx(want, abs=1e-7)
        checked += 1
    assert checked == 80


# ---------------------------------------------------------------------------
# Projection properties: idempotence and nonexpansiveness, >= 1000 samples.

def _sample_sets():
    rng = np.random.default_rng(77)
    sets = [box2(), Polyhedron(np.array([[1.0, 1.0]]), np.zeros(1)),
            Ball(np.array([0.5, -0.5]), 2.0),
            Singleton(np.array([1.0, 2.0])),
            DirectionalCone(np.array([0.0, 1.0]), 0.2),
            ProductSet([Ball(np.zeros(1), 1.0),
                        Singleton(np.array([3.0]))])]
    return rng, sets


def test_projection_idempotent_thousand_samples():
    rng, sets = _sample_sets()
    total = 0
    for s in sets:
        pts = rng.uniform(-6.0, 6.0, size=(200, s.dim))
        once = s.project_batch(pts)
        twice = s.project_batch(once)
        assert np.max(np.linalg.norm(once - twice, axis=1)) < 1e-6
        total += len(pts)
    assert total >= 1000


def test_projection_nonexpansive_thousand_samples():
    rng, sets = _sample_sets()
    total = 0
    for s in sets:
        A = rng.uniform(-6.0, 6.0, size=(200, s.dim))
        B = rng.uniform(-6.0, 6.0, size=(200, s.dim))
        gap = np.linalg.norm(s.project_batch(A) - s.project_batch(B), axis=1)
        assert np.all(gap <= np.linalg.norm(A - B, axis=1) + 1e-7)
        total += len(A)
    assert total >= 1000


def test_projection_distance_consistent():
    rng, sets = _sample_sets()
    for s in sets:
        pts = rng.uniform(-6.0, 6.0, size=(150, s.dim))
        proj = s.project_batch(pts)
        dist = s.distance_batch(pts)
        assert np.allclose(np.linalg.norm(pts - proj, axis=1), dist,
                           atol=1e-6)


# ---------------------------------------------------------------------------
# Direction cones: the closed-form projection against the independent
# golden-section distance.

def test_cone_projection_agrees_with_golden_distance():
    rng = np.random.default_rng(5)
    cones = [DirectionalCone(np.array([0.0, 1.0]), 0.2),
             DirectionalCone(np.array([1.0, 1.0]), 0.5),
             DirectionalCone(np.array([2.0, 0.0, 0.0]), 0.3)]
    total = 0
    for dc in cones:
        pts = rng.uniform(-3.0, 3.0, size=(400, dc.dim))
        via_proj = np.linalg.norm(pts - dc.project_batch(pts), axis=1)
        via_golden = dc.distance_batch(pts)
        assert np.max(np.abs(via_proj - via_golden)) < 1e-5
        total += len(pts)
    assert total >= 1000


def test_cone_membership_boundary():
    dc = DirectionalCone(np.array([0.0, 1.0]), 0.2)
    assert dc.contains([0.0, 1.0])
    assert dc.contains([0.2, 1.0])
    assert not dc.contains([0.3, 1.0])
    assert dc.contains([0.0, 0.0])
    # aperture scales with the ray length
    assert dc.contains([2.0, 10.0])
    assert not dc.contains([0.1, -1.0])


def test_degenerate_cone_is_whole_space():
    dc = DirectionalCone(np.array([0.1, 0.0]), 0.5)
    assert dc.whole_space
    pts = np.array([[3.0, -9.0], [0.0, 0.0], [-2.0, 1.0]])
    assert np.allclose(dc.distance_batch(pts), 0.0)


@settings(max_examples=60, deadline=None)
@given(st.floats(0.1, 20.0), st.integers(0, 2 ** 31 - 1))
def test_cone_distance_positively_homogeneous(scale, seed):
    dc = DirectionalCone(np.array([0.0, 2.0]), 0.4)
    p = np.random.default_rng(seed).uniform(-2.0, 2.0, size=2)
    base = dc.distance_batch(p[None, :])[0]
    scaled = dc.distance_batch(scale * p[None, :])[0]
    assert scaled == pytest.approx(scale * base, rel=1e-4, abs=1e-6)


# ---------------------------------------------------------------------------
# Normal cone generators: support inequality over >= 1000 set points.

def test_normal_generators_support_inequality():
    rng = np.random.default_rng(9)
    P = box2()
    boundary = [np.array([1.0, 0.3]), np.array([1.0, 1.0]),
                np.array([-1.0, -1.0]), np.array([0.2, -1.0])]
    inside = rng.uniform(-1.0, 1.0, size=(300, 2))
    total = 0
    for k in boundary:
        G = normal_cone_generators(P, k)
        assert G.shape[0] >= 1
        gaps = (inside - k[None, :]) @ G.T
        assert np.max(gaps) <= 1e-9
        total += inside.shape[0]
    assert total >= 1000


def test_normal_generators_empty_in_interior():
    G = normal_cone_generators(box2(), np.array([0.0, 0.0]))
    assert G.shape[0] == 0


def test_generated_cone_projection_kkt():
    rng = np.random.default_rng(3)
    G = np.array([[1.0, 0.0], [1.0, 1.0]])
    for _ in range(50):
        y = rng.uniform(-3.0, 3.0, size=2)
        s = project_onto_generated_cone(G, y)
        resid = y - s
        # s lies in the cone side; the residual sits in the polar side
        assert float(resid @ s) == pytest.approx(0.0, abs=1e-7)
        assert np.all(G @ resid <= 1e-7) or np.linalg.norm(s) > 1e-9
        # projection shrinks the distance versus any scaled generator
        for g in G:
            t = max(float(y @ g) / float(g @ g), 0.0)
            assert (np.linalg.norm(y - s)
                    <= np.linalg.norm(y - t * g) + 1e-9)
