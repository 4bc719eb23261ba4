"""Projections, the LP solver, NNLS and cone calculus against independent
checks: vertex enumeration, and scipy's HiGHS and NNLS as references."""

import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog, nnls

from conftest import (axis_clamp_case, bounded_random_polyhedron,
                      random_cone_rows, reference_cone_projection,
                      reference_normal_cone_generators, vertex_lp_maximum)
from regcert import (Ball, DirectionalCone, EmptySet, NotInSet, Polyhedron,
                     ProductSet, SimplexIterationLimit, Singleton,
                     normal_cone_generators, project_onto_generated_cone,
                     solve_lp)
from regcert import geometry
from regcert.geometry import (DYKSTRA_TOL, TOL_ACTIVE, TOL_FEAS,
                              dykstra_halfspaces, normal_cone_masks,
                              project_halfspaces,
                              project_onto_generated_cones)
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
    # the bounds of an empty system cross, and Dykstra cannot converge on
    # it, so every row goes to the least-distance solve, which certifies
    # the system empty; the distance of the polyhedron, now cached empty,
    # is +inf
    P = Polyhedron(np.array([[1.0], [-1.0]]), np.array([-2.0, -2.0]))
    with pytest.raises(EmptySet):
        P.project_batch(np.array([[0.5], [3.0]]))
    assert np.all(np.isinf(P.distance_batch(np.array([[0.5], [3.0]]))))
    # a product with an empty factor is empty too: its distance is +inf on
    # every row, and its projection raises
    prod = ProductSet([Ball(np.zeros(1), 1.0), P])
    pts = np.array([[0.0, 0.5], [4.0, 3.0]])
    assert np.all(np.isinf(prod.distance_batch(pts)))
    with pytest.raises(EmptySet):
        prod.project_batch(pts)
    # the factor keeps its certificate, so a second product distance
    # projects nothing (membership's emptiness test reads it on every call)
    with mock.patch.object(geometry, "project_halfspaces",
                           side_effect=AssertionError("projected again")):
        assert np.all(np.isinf(prod.distance_batch(pts)))
        assert np.all(np.isinf(P.distance_batch(pts[:, 1:])))


def test_polyhedron_without_rows_is_the_whole_space():
    # its vacuous row dropped, every point projects to itself, signed zeros
    # included, and its distance is 0
    P = Polyhedron(np.zeros((1, 2)), np.ones(1))
    pts = np.array([[3.0, -0.0], [-1.5, 2.0]])
    assert P.project_batch(pts).tobytes() == pts.tobytes()
    assert P.distance_batch(pts).tobytes() == np.zeros(2).tobytes()


# ---------------------------------------------------------------------------
# The clamp onto axis-aligned systems against the candidate-pass reference.

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
def test_clamp_keeps_the_reference_bits_on_axis_forms(name, scale, seed):
    # the property that keeps the registry reports: every row the candidate
    # pass certifies keeps its bits, signed zeros included (the estimators
    # project points with exact zeros, such as x0 = 0), and the clamp
    # certifies every row, the equality pairs that rounding fails in the
    # candidate pass among them, so none goes to Dykstra
    gen = np.random.default_rng(seed)
    C, rhs = _axis_form(name, gen)
    P = scale * gen.standard_normal((40, C.shape[1]))
    P[gen.random(P.shape) < 0.2] = 0.0
    P[gen.random(P.shape) < 0.1] = -0.0
    rhs = scale * np.asarray(rhs)
    Q, empty, sent = _routed_to_dykstra(C, rhs, P)
    want, want_exact = _broadcast_pass(C, P, rhs)
    assert sent == 0
    assert not np.any(empty)
    assert Q[want_exact].tobytes() == want[want_exact].tobytes()
    for i in np.flatnonzero(~want_exact):
        assert _is_projection(C, rhs[i], P[i], Q[i]), i


def _clamp_rows(C, rhs, P):
    """The rows project_halfspaces's clamp certifies."""
    return geometry._clamp_pass(
        C, np.asarray(rhs, dtype=float).reshape(-1, C.shape[0]), P)[1]


def _routed_to_dykstra(C, rhs, P):
    """project_halfspaces(C, rhs, P), and how many of the points it sent
    to dykstra_halfspaces."""
    sent = []

    def recording(C, d, P, rhs=None):
        sent.append(P.shape[0])
        return dykstra_halfspaces(C, d, P, rhs=rhs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(geometry, "dykstra_halfspaces", recording)
        Q, empty = project_halfspaces(C, rhs, P)
    return Q, empty, sum(sent)


def _kkt_residual(C, rhs, p, q, slack):
    """The part of the step p - q that no nonnegative combination of the
    rows of C active at q gives (nnls), a row active when C q >= rhs -
    slack; the whole step when no row is active."""
    act = C @ q >= rhs - slack
    if not np.any(act):
        return float(np.linalg.norm(p - q))
    return nnls(C[act].T, p - q)[1]


def _is_projection(C, rhs, p, q):
    """q meets C q <= rhs and the KKT conditions of the nearest point to
    p, both within 1e-7 (1 + |q|) in normalized row units."""
    norms = np.linalg.norm(C, axis=1)
    tol = 1e-7 * (1.0 + np.linalg.norm(q))
    return (np.all((C @ q - rhs) / norms <= tol)
            and _kkt_residual(C, rhs, p, q, tol * norms) <= tol)


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
    # clamped rows are projections, feasible, idempotent and agree with a
    # converged Dykstra; the rows whose bounds rounding crosses are
    # Dykstra's own where it converges, and certified least-distance
    # points elsewhere
    gen = np.random.default_rng(seed)
    C, d = _axis_system(gen)
    P = 3.0 * gen.standard_normal((50, C.shape[1]))
    exact = _clamp_rows(C, d, P)
    Q, empty = project_halfspaces(C, d, P)
    want, want_resid = dykstra_halfspaces(C, d, P)
    assert not np.any(empty)
    kept = ~exact & (want_resid <= DYKSTRA_TOL)
    assert Q[kept].tobytes() == want[kept].tobytes()
    for i in np.flatnonzero(~kept):
        assert _is_projection(C, d, P[i], Q[i]), i
    norms = np.linalg.norm(C, axis=1)
    assert np.all((Q @ C.T - d) / norms <= TOL_FEAS)
    again, _ = project_halfspaces(C, d, Q[exact])
    assert np.all(np.abs(again - Q[exact]) <= 1e-9)
    converged = exact & (want_resid <= DYKSTRA_TOL)
    assert np.all(np.abs(Q[converged] - want[converged]) <= 1e-9)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2 ** 32 - 1))
def test_skew_polyhedra_take_dykstra(seed):
    # off the axes the binding rows round, so the whole batch goes to
    # Dykstra before any candidate is tried, and keeps its points where it
    # converges
    gen = np.random.default_rng(seed)
    C, d = _skew_system(gen)
    P = 3.0 * gen.standard_normal((20, C.shape[1]))
    Q, empty, sent = _routed_to_dykstra(C, d, P)
    want, want_resid = dykstra_halfspaces(C, d, P)
    assert sent == 20
    assert not np.any(empty)
    kept = want_resid <= DYKSTRA_TOL
    assert Q[kept].tobytes() == want[kept].tobytes()
    for i in np.flatnonzero(~kept):
        assert _is_projection(C, d, P[i], Q[i]), i


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.booleans(), st.booleans())
def test_exact_projection_rows_are_batch_independent(seed, skew, per_row_rhs):
    # alone and in a 30-row batch
    gen = np.random.default_rng(seed)
    C, d = (_skew_system if skew else _axis_system)(gen)
    P = 3.0 * gen.standard_normal((30, C.shape[1]))
    rhs = d + gen.uniform(-0.5, 0.5, (30, d.size)) if per_row_rhs else d
    Q, empty = project_halfspaces(C, rhs, P)
    for i in range(30):
        one = rhs[i:i + 1] if per_row_rhs else d
        alone = project_halfspaces(C, one, P[i:i + 1])
        assert alone[0].tobytes() == Q[i:i + 1].tobytes(), i
        assert alone[1][0] == empty[i], i


def test_many_rows_on_one_axis_take_the_clamp():
    # 19 rows on one axis, on which Dykstra converges slowly (8 of the 25
    # points are still 3e-3 to 1.5e-2 from their limit after 300 sweeps):
    # the clamp projects every point, with no sweep
    gen = np.random.default_rng(4)
    C = gen.choice([-1.0, 1.0], (19, 1)) * gen.uniform(0.5, 2.0, (19, 1))
    d = gen.uniform(0.5, 1.0, 19)
    P = 3.0 * gen.standard_normal((25, 1))
    Q, empty, sent = _routed_to_dykstra(C, d, P)
    assert sent == 0
    assert not np.any(empty)
    for i in range(25):
        assert _is_projection(C, d, P[i], Q[i]), i


# ---------------------------------------------------------------------------
# Dykstra's exit rule and the least-distance solve.

def test_least_distance_takes_the_rows_dykstra_leaves():
    # a skew system on which Dykstra leaves points 20, 25 and 48 5.5e-3
    # outside K after its 300 sweeps: the least-distance solve projects
    # them, with no warning
    gen = np.random.default_rng(234)
    gen.integers(1, 4), gen.integers(1, 5)
    C = gen.standard_normal((4, 2))
    d = C @ gen.uniform(-1.0, 1.0, 2) + gen.uniform(0.0, 1.0, 4)
    P = 3.0 * gen.standard_normal((50, 2))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        Q = Polyhedron(C, d).project_batch(P)
    size = 1.0 + np.linalg.norm(P, axis=1)
    assert np.all(np.max(Q @ C.T - d, axis=1) <= 1e-9 * size)
    for p, q in zip(P, Q):
        # p - q is a nonnegative combination of the rows active at q
        slack = TOL_ACTIVE * (1.0 + np.abs(d))
        step = np.linalg.norm(p - q)
        assert _kkt_residual(C, d, p, q, slack) <= 1e-6 * (1.0 + step)
    _, resid = dykstra_halfspaces(C, d, P)
    assert np.flatnonzero(resid > DYKSTRA_TOL).tolist() == [20, 25, 48]


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.booleans(),
       st.sampled_from([1.0, 100.0, 1e4]))
def test_every_row_is_projected_or_certified_empty(seed, anchored, scale):
    # per-row right-hand sides through a common anchor (feasible) or drawn
    # at random (often empty); the checks are certificates, not NNLS bits
    gen = np.random.default_rng(seed)
    dim, rows, B = int(gen.integers(1, 4)), int(gen.integers(1, 6)), 4
    C = gen.standard_normal((rows, dim))
    if anchored:
        rhs = C @ gen.uniform(-1.0, 1.0, dim) + gen.uniform(0.0, 1.0,
                                                            (B, rows))
    else:
        rhs = gen.standard_normal((B, rows))
    P = scale * gen.standard_normal((B, dim))
    Q, empty = project_halfspaces(C, rhs, P)
    want, want_resid = dykstra_halfspaces(C, None, P, rhs=rhs)
    kept = ~_clamp_rows(C, rhs, P) & (want_resid <= DYKSTRA_TOL)
    assert Q[kept].tobytes() == want[kept].tobytes()
    for i in range(B):
        assert empty[i] == (not Polyhedron(C, rhs[i]).is_feasible()), i
        alone = project_halfspaces(C, rhs[i], P[i])
        assert alone[0].tobytes() == Q[i:i + 1].tobytes(), i
        assert alone[1][0] == empty[i], i
        assert empty[i] or _is_projection(C, rhs[i], P[i], Q[i]), i


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.booleans(),
       st.sampled_from([1e-3, 1e-4, 1e-5]))
def test_small_crossings_are_certified_empty(seed, skew, gap):
    # 8 per-row systems through an anchor keep the projections of points
    # 1e3 to 1e4 away.  A reversed, rescaled copy of one row that crosses
    # it by gap (in row units) empties them all: the Farkas multipliers
    # grow as 1 / gap, and the NNLS residual rounds with them, yet every
    # row is certified empty.
    gen = np.random.default_rng(seed)
    C, d = (_skew_system if skew else _axis_system)(gen)
    B, dim = 8, C.shape[1]
    rhs = d + gen.uniform(0.0, 0.5, (B, d.size))
    P = gen.standard_normal((B, dim))
    P *= gen.uniform(1e3, 1e4, (B, 1)) / np.linalg.norm(P, axis=1)[:, None]
    Q, empty = project_halfspaces(C, rhs, P)
    assert not np.any(empty)
    for i in range(B):
        assert _is_projection(C, rhs[i], P[i], Q[i]), i
    r, k = int(gen.integers(0, d.size)), gen.choice([0.5, 1.0, 3.0])
    crossed = np.vstack([C, -k * C[r]])
    cross = -k * (rhs[:, r] + gap * np.linalg.norm(C[r]))
    Q, empty = project_halfspaces(crossed, np.column_stack([rhs, cross]),
                                  2.0 * gen.standard_normal((B, dim)))
    assert np.all(empty)
    assert np.all(np.isnan(Q))


def _broadcast_pass(C, P, rhs):
    """The candidate pass that the clamp replaced, as one (axes,
    candidates, slots, batch) broadcast, and the clamp's reference; returns
    (Q, exact).  Each axis's candidates are no row and then each of its
    rows, whose z_i = p - lam_i c_i binds.  A candidate passes when its
    coordinate and multipliers (lam_i on its row, 0 on the others) are a
    fixed point of one Dykstra sweep, with no tolerance, and each axis
    takes its first candidate that passes; a row is exact when every axis
    has one.  Candidate u of axis a takes row slot[a, u - 1] (u = 0 is no
    row), and every candidate is checked against every slot of its axis,
    padded slots passing."""
    m = C.shape[0]
    nonzero = C != 0.0
    axis = nonzero.argmax(axis=1)
    c = C[np.arange(m), axis]
    row_sq = c * c
    axes = np.unique(axis)
    groups = [np.flatnonzero(axis == a) for a in axes]
    G = max(g.size for g in groups)
    slot = np.zeros((axes.size, G), dtype=int)
    pad = np.ones((axes.size, G), dtype=bool)
    z_index = m + np.repeat(axes[:, None], G + 1, axis=1)
    for a, g in enumerate(groups):
        slot[a, :g.size] = g
        pad[a, :g.size] = False
        z_index[a, 1:g.size + 1] = g
    same = np.zeros((axes.size, G + 1, G), dtype=bool)
    same[:, 1:] = np.eye(G, dtype=bool) & ~pad[:, None, :]

    B = P.shape[0]
    PT = P.T + 0.0
    Pa = PT[axis]
    R = rhs.T
    lam = (Pa * c[:, None] - R) / row_sq[:, None]
    Z = np.concatenate([Pa - lam * c[:, None], PT])[z_index]
    alpha = np.where(same[..., None], lam[slot][:, None], 0.0)
    cs = c[slot][:, None, :, None]
    Y = Z[:, :, None] + alpha * cs
    mu = np.maximum((Y * cs - R[slot][:, None])
                    / row_sq[slot][:, None, :, None], 0.0)
    ok = ((mu == alpha) & (Y - mu * cs == Z[:, :, None])
          | pad[:, None, :, None]).all(axis=2)
    Q = PT.T.copy()
    Q[:, axes] = Z[np.arange(axes.size)[:, None], ok.argmax(axis=1),
                   np.arange(B)].T
    return Q, ok.any(axis=1).all(axis=0)


# how far the clamp's point may lie from the candidate pass's, per
# coordinate, in units of eps (|p| + |q|): where several rows bound one
# side of an axis, the clamp takes the least of their bounds and the
# candidate pass the first that its checks keep, and the two differ by the
# rounding of z; the most seen on the property below was 1.3
_TIE_ULPS = 4.0


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.integers(1, 3), st.integers(1, 8),
       st.booleans())
# rows 0 and 4 bound the second coordinate below by -0.14542 and above by
# -0.14631: the least-distance NNLS certifies the system with u near 4e3,
# whose residual rounds to 1.1e-12-1.8e-12 on 4 of the 40 rows
@example(122175, 2, 5, False)
def test_clamp_is_within_rounding_of_the_broadcast_reference(seed, dim, rows,
                                                             per_row_rhs):
    # several rows to an axis and to a side, coefficients that round,
    # points on the bounds, signed zeros, and systems empty on some axis
    C, rhs, P, axis = axis_clamp_case(seed, dim, rows, per_row_rhs)
    B = P.shape[0]
    Q, empty = project_halfspaces(C, rhs, P)
    want, want_exact = _broadcast_pass(C, P, rhs)
    gap = np.abs(Q - want) - _TIE_ULPS * np.finfo(float).eps * (
        np.abs(P) + np.abs(Q))
    assert np.all(gap[want_exact] <= 0.0)
    # with at most one row to a side of each axis no bound ties, and the
    # bits are the reference's
    sides = np.stack([axis, C[np.arange(rows), axis] > 0.0], axis=1)
    if np.unique(sides, axis=0).shape[0] == rows:
        assert Q[want_exact].tobytes() == want[want_exact].tobytes()
    for i in range(B):
        one = rhs[i if per_row_rhs else 0]
        assert empty[i] == (not Polyhedron(C, one).is_feasible()), i
        assert empty[i] or _is_projection(C, one, P[i], Q[i]), i


# ---------------------------------------------------------------------------
# Face tables.

def test_face_table_lists_the_independent_row_subsets():
    # halfplane_directional's K = {0} x (-inf, 0]: rows x <= 0, -x <= 0
    # and y <= 0, of which {0, 1} is dependent
    K = Polyhedron(np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0]]),
                   np.zeros(3))
    table = geometry.face_table(K.C.shape, K.C.tobytes())
    assert table.rows.tolist() == [[-1, -1], [0, -1], [1, -1], [2, -1],
                                   [0, 2], [1, 2]]
    assert table.M.shape == (6, 2, 2)
    assert geometry.face_table(K.C.shape, K.C.copy().tobytes()) is table
    # the subsets are counted before any rank test: 300 copies of one row
    # in R^1 have two independent subsets, but 301 subsets of at most one
    # row; 22 rows in R^2 make 254 subsets, 23 make 277
    gen = np.random.default_rng(0)
    assert geometry.FACE_CAP == 256
    assert geometry.face_table((300, 1), np.ones(300).tobytes()) is None
    for m, fits in ((22, True), (23, False)):
        C = gen.standard_normal((m, 2))
        table = geometry.face_table(C.shape, C.tobytes())
        assert (table is not None) == fits, m


@settings(max_examples=20, deadline=None)
@given(st.integers(1, 3), st.integers(0, 4), st.integers(0, 2 ** 32 - 1))
def test_every_nearest_point_is_a_face_projection(dim, extra, seed):
    # each row of M projects onto its face's affine set, and the nearest
    # point of K to z is the projection of the face it lies on
    gen = np.random.default_rng(seed)
    K = bounded_random_polyhedron(gen, dim, extra)
    table = geometry.face_table(K.C.shape, K.C.tobytes())
    Z = gen.uniform(-8.0, 8.0, (30, dim))
    Q = K.project_batch(Z)
    gap = np.full(30, np.inf)
    for J, M in zip(table.rows, table.M):
        J = J[J >= 0]
        P = Z - (M[:, :J.size] @ (K.C[J] @ Z.T - K.d[J][:, None])).T
        assert np.allclose(P @ K.C[J].T, K.d[J], atol=1e-9)
        # z - P lies in the span of the rows of J
        if J.size < dim:
            null = np.linalg.svd(K.C[J])[2][J.size:] if J.size else np.eye(dim)
            assert np.allclose((Z - P) @ null.T, 0.0, atol=1e-9)
        gap = np.minimum(gap, np.linalg.norm(P - Q, axis=1))
    assert np.all(gap <= 1e-7 * (1.0 + np.linalg.norm(Z, axis=1)))


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


def _random_lp(gen, kind, dim):
    """(objective, poly) of one kind, with room around every decision:
    bounded (a box and random cuts through points near the origin),
    degenerate (more rows through one vertex than it needs, the objective
    in their cone, so the vertex is optimal), unbounded (rows whose
    recession cone holds the objective) or infeasible (a slab with a gap of
    at least 0.25).  Each may get a redundant copy of one row, scaled, and
    a pair of opposite rows, an equality that keeps the kind's status."""
    if kind == "bounded":
        poly = bounded_random_polyhedron(gen, dim, int(gen.integers(0, 5)))
        C, d = poly.C, poly.d
        objective = gen.standard_normal(dim)
    elif kind == "degenerate":
        v = gen.uniform(-1.0, 1.0, dim)
        C = gen.standard_normal((dim + int(gen.integers(1, 4)), dim))
        d = C @ v
        C = np.vstack([C, np.eye(dim), -np.eye(dim)])
        d = np.concatenate([d, np.full(2 * dim, 5.0)])
        objective = gen.uniform(0.1, 1.0, dim + 1) @ C[:dim + 1]
    elif kind == "unbounded":
        ray = gen.standard_normal(dim)
        ray /= np.linalg.norm(ray)
        C = gen.standard_normal((int(gen.integers(1, 6)), dim))
        C -= np.outer(C @ ray + gen.uniform(0.1, 1.0, C.shape[0]), ray)
        d = gen.uniform(0.0, 2.0, C.shape[0])
        objective = ray + 0.05 * gen.standard_normal(dim)
        objective -= min(0.0, objective @ ray - 0.5) * ray
    else:
        c = gen.standard_normal(dim)
        lo = gen.uniform(-1.0, 1.0)
        C = np.vstack([c, -c, np.eye(dim), -np.eye(dim)])
        d = np.concatenate([[lo], [-(lo + gen.uniform(0.25, 2.0))],
                            np.full(2 * dim, 5.0)])
        objective = gen.standard_normal(dim)
    if gen.random() < 0.5:
        i = int(gen.integers(C.shape[0]))
        scale = gen.uniform(0.5, 2.0)
        C, d = np.vstack([C, scale * C[i]]), np.append(d, scale * d[i] + 1.0)
    if kind != "infeasible" and gen.random() < 0.5:
        # the pair holds a row through a feasible point as an equality: the
        # optimal vertex, or the origin, which the other kinds keep inside;
        # on the unbounded kind the row holds the ray
        anchor = v if kind == "degenerate" else np.zeros(dim)
        c = gen.standard_normal(dim)
        if kind == "unbounded":
            c -= (c @ ray) * ray
        C = np.vstack([C, c, -c])
        d = np.append(d, [c @ anchor, -(c @ anchor)])
    return objective, Polyhedron(C, d)


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2 ** 32 - 1),
       st.sampled_from(["bounded", "degenerate", "unbounded", "infeasible"]),
       st.integers(1, 4))
def test_lp_matches_highs_and_vertex_enumeration(seed, kind, dim):
    objective, poly = _random_lp(np.random.default_rng(seed), kind, dim)
    res = solve_lp(objective, poly)
    def highs(c):
        return linprog(c, A_ub=poly.C, b_ub=poly.d, bounds=(None, None),
                       method="highs")

    ref = highs(-objective)
    status = {0: "optimal", 2: "infeasible", 3: "unbounded"}[ref.status]
    # HiGHS can call an unbounded LP infeasible (seed 2124394, unbounded,
    # dim 3); its own feasibility solve tells the two apart
    if status == "infeasible" and highs(np.zeros(dim)).status == 0:
        status = "unbounded"
    want = {"bounded": "optimal", "degenerate": "optimal"}.get(kind, kind)
    assert status == want
    assert res.status == want
    if res.status != "optimal":
        return
    assert res.value == pytest.approx(-ref.fun, rel=1e-9, abs=1e-9)
    assert np.max(poly.C @ res.optimum - poly.d) <= TOL_FEAS
    assert res.value == objective @ res.optimum + 0.0
    assert res.value == pytest.approx(vertex_lp_maximum(objective, poly),
                                      rel=1e-9, abs=1e-9)


def test_lp_pivot_cap_stops_the_solve(monkeypatch):
    monkeypatch.setattr(geometry, "LP_MAX_PIVOTS", 1)
    with pytest.raises(SimplexIterationLimit, match="1 pivots"):
        solve_lp(np.array([1.0, 2.0]), box2())
    monkeypatch.setattr(geometry, "LP_MAX_PIVOTS", 2)
    assert solve_lp(np.array([1.0, 2.0]), box2()).value == 3.0


def test_lp_without_rows():
    P = Polyhedron(np.zeros((1, 2)), np.ones(1))
    assert P.n_rows == 0
    res = solve_lp(np.zeros(2), P)
    assert (res.status, res.value) == ("optimal", 0.0)
    assert solve_lp(np.array([0.0, -1.0]), P).status == "unbounded"


# ---------------------------------------------------------------------------
# NNLS against scipy's.

@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.integers(1, 6), st.integers(1, 6),
       st.sampled_from([1e-3, 1.0, 1e3]), st.booleans())
def test_nnls_matches_scipy(seed, m, n, scale, repeat):
    gen = np.random.default_rng(seed)
    A = scale * gen.standard_normal((m, n))
    b = gen.standard_normal(m) / scale
    if repeat:
        A[:, -1] = A[:, 0]
    x, rnorm = geometry._nnls(A, b)
    _, want = nnls(A, b)
    nb = np.linalg.norm(b)
    assert np.all(x >= 0.0)
    assert rnorm == pytest.approx(np.linalg.norm(A @ x - b), abs=1e-12 * nb)
    assert rnorm <= want + 1e-11 * nb
    # KKT: no column can lower the residual, and the columns in use are
    # stationary
    w = A.T @ (b - A @ x)
    size = np.linalg.norm(A, axis=0) * (nb + np.linalg.norm(A @ x))
    assert np.all(w <= 1e-11 * size)
    assert np.all(np.abs(w[x > 0.0]) <= 1e-11 * size[x > 0.0])


def test_nnls_certifies_a_square_system_exactly():
    # the system of test_every_row_is_projected_or_certified_empty at seed
    # 40340: the least-distance NNLS spans R^3 with coefficients near 5e3,
    # so the direct residual |E u - e| rounds to 2.4e-12 while b lies in
    # the span of the passive columns
    E = np.array([[-0.5960946513087031, 0.9091487642220452,
                   -0.21253407327356255, 0.9874402051069047,
                   -0.48237269150290374],
                  [0.8029141714287746, 0.4164715170495196, 0.977153656134872,
                   -0.15799316864483123, -0.8759660875240802],
                  [-1.0190934417984603, 0.5907183115160543,
                   -0.7696009063176331, 1.0, 0.0713406439378252]])
    u, rnorm = geometry._nnls(E, np.eye(3)[2])
    assert rnorm == 0.0
    assert np.all(u >= 0.0) and np.count_nonzero(u) == 3


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
# Direction cones: the closed-form projection against an independent
# golden-section distance.

def reference_golden_cone_distance(dc, P):
    """The cone distance the closed-form projection replaced: the least of
    g(lam) = |p - lam ybar| - lam delta over lam >= 0 by 48 golden-section
    steps on [0, 10 (|p| + 1) / (|ybar| - delta)], or g(0), and its
    positive part."""
    def g(lam):
        return (np.linalg.norm(P - lam[:, None] * dc.ybar[None, :], axis=1)
                - lam * dc.delta)

    invphi = (np.sqrt(5.0) - 1.0) / 2.0
    gap = max(float(np.linalg.norm(dc.ybar)) - dc.delta, 1e-12)
    a = np.zeros(P.shape[0])
    b = 10.0 * (np.linalg.norm(P, axis=1) + 1.0) / gap
    x1 = b - invphi * (b - a)
    x2 = a + invphi * (b - a)
    f1, f2 = g(x1), g(x2)
    for _ in range(48):
        left = f1 < f2
        b = np.where(left, x2, b)
        a = np.where(left, a, x1)
        x1_new = np.where(left, b - invphi * (b - a), x2)
        x2_new = np.where(left, x1, a + invphi * (b - a))
        fv = g(np.where(left, x1_new, x2_new))
        f1, f2 = np.where(left, fv, f2), np.where(left, f1, fv)
        x1, x2 = x1_new, x2_new
    return np.maximum(np.minimum(g(np.zeros(P.shape[0])),
                                 np.minimum(f1, f2)), 0.0)


def test_cone_projection_agrees_with_golden_distance():
    rng = np.random.default_rng(5)
    cones = [DirectionalCone(np.array([0.0, 1.0]), 0.2),
             DirectionalCone(np.array([1.0, 1.0]), 0.5),
             DirectionalCone(np.array([2.0, 0.0, 0.0]), 0.3)]
    total = 0
    for dc in cones:
        pts = rng.uniform(-3.0, 3.0, size=(400, dc.dim))
        via_proj = np.linalg.norm(pts - dc.project_batch(pts), axis=1)
        assert dc.distance_batch(pts).tobytes() == via_proj.tobytes()
        via_golden = reference_golden_cone_distance(dc, pts)
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
    # the skew cone takes the NNLS; the axis-aligned ones take the exact
    # pass onto the polar cone (Moreau), with no NNLS
    def refuse(*args):
        raise AssertionError("NNLS ran")

    rng = np.random.default_rng(3)
    cones = [(np.array([[1.0, 0.0], [1.0, 1.0]]), geometry._nnls)] + [
        (G, refuse) for G in (np.array([[1.0, 0.0], [0.0, 1.0]]),
                              np.array([[2.0, 0.0], [0.0, -0.5]]),
                              np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 3.0]]),
                              np.array([[0.0, -1.0]]))]
    for G, nnls in cones:
        with mock.patch.object(geometry, "_nnls", nnls):
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


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), axis_aligned=st.booleans(),
       dim=st.integers(1, 4), scale=st.sampled_from([1e-3, 1.0, 1e3]))
def test_cone_projections_match_the_nnls_reference(seed, axis_aligned, dim,
                                                   scale):
    # Skew rows take the same NNLS as before.  On axis-aligned rows, a row
    # whose NNLS fit ends on one column is solved in closed form, and
    # y - P_polar(y) has the same bits (Sterbenz), unless two rows share a
    # signed axis and the two routes pick different ones; a fit on more
    # columns goes through lstsq.  Those differ by up to 4 ulps of max |y_i|.
    rng = np.random.default_rng(seed)
    G = random_cone_rows(rng, dim, axis_aligned)
    Y = scale * rng.standard_normal((16, dim))
    P = project_onto_generated_cones(G, np.ones((16, G.shape[0]), bool), Y)
    exact = np.all(np.count_nonzero(G, axis=1) == 1)
    shared = len({tuple(np.sign(g)) for g in G}) < G.shape[0]
    for y, p in zip(Y, P):
        ref = reference_cone_projection(G, y)
        coef, _ = geometry._nnls(G.T, y)
        if not exact or (np.count_nonzero(coef > 0) <= 1 and not shared):
            assert np.array_equal(p, ref)
        else:
            assert np.max(np.abs(p - ref)) <= 4 * np.finfo(float).eps * \
                np.max(np.abs(y))


def test_cone_projection_rows_are_batch_independent():
    # active patterns of axis-aligned rows and of a skew row, mixed
    rng = np.random.default_rng(5)
    C = np.vstack([np.eye(2), -2.0 * np.eye(2), [[1.0, 1.0]]])
    masks = rng.random((60, 5)) < 0.4
    Y = rng.standard_normal((60, 2))
    P = project_onto_generated_cones(C, masks, Y)
    for s in range(60):
        alone = project_onto_generated_cones(C, masks[s:s + 1], Y[s:s + 1])
        assert np.array_equal(alone[0], P[s])


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), axis_aligned=st.booleans(),
       dim=st.integers(1, 4))
def test_normal_cone_masks_keep_the_per_point_rule(seed, axis_aligned, dim):
    # points on, near and inside the boundary of a polyhedron through p0:
    # the stacked mask picks the rows the per-point rule picks, alone and
    # in the stack, and one point outside fails the whole batch
    rng = np.random.default_rng(seed)
    C = random_cone_rows(rng, dim, axis_aligned)
    p0 = rng.uniform(-0.5, 0.5, size=dim)
    P = Polyhedron(C, C @ p0 + np.where(rng.random(C.shape[0]) < 0.5, 0.0,
                                        rng.uniform(0.0, 1e-6, C.shape[0])))
    K = P.project_batch(p0 + rng.choice([1e-8, 1e-3, 1.0])
                        * rng.standard_normal((24, dim)))
    masks = normal_cone_masks(P, K)
    for k, mask in zip(K, masks):
        assert np.array_equal(P.C[mask], reference_normal_cone_generators(P, k))
        assert np.array_equal(normal_cone_masks(P, k)[0], mask)
    far = p0 + 10.0 * C[0] / np.linalg.norm(C[0])
    with pytest.raises(NotInSet):
        normal_cone_masks(P, np.vstack([K, far]))
