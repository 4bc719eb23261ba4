"""Convex sets in R^n and the exact operations the estimators sit on.

The set vocabulary is a small tagged family: polyhedra {z : Cz <= d}, closed
euclidean balls, singletons, finite products, and the conic neighborhood of a
direction (the union of scaled balls lam * B(ybar, delta) over lam >= 0).
Every variant supports nearest-point projection and distance; polyhedra
additionally expose active-row normal cone generators and an LP.

Projections onto polyhedra are exact where the rows are axis-aligned, as
every registry K and its pullbacks through diagonal maps are: the nearest
point is the KKT point of one active set (Nocedal & Wright, Numerical
Optimization, ch. 16), such a set binds at most one row per axis, and
project_halfspaces tries every candidate of every axis at once and keeps,
per axis, the first whose point and nonnegative multiplier one Dykstra
sweep leaves in place, with no tolerance.  Points no candidate passes
(rounding on paired rows, an empty system), systems with skew rows, and
systems too large for the chunked pass fall back to Dykstra's alternating
scheme, which converges to the nearest point to DYKSTRA_TOL.  LPs go to
the HiGHS solver that scipy ships; only their status and optimal value are
consumed.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.optimize import linprog, nnls

from .errors import (
    DimensionMismatch,
    EmptySet,
    NotInSet,
    SimplexIterationLimit,
)

# Package-wide default tolerances.  Feasibility residuals are judged against
# TOL_FEAS, set membership against TOL_MEMBER, and a constraint row counts as
# active within TOL_ACTIVE.
TOL_FEAS = 1e-9
TOL_MEMBER = 1e-7
TOL_ACTIVE = 1e-7

# the Dykstra fallback's stopping tolerance and sweep cap
DYKSTRA_TOL = 1e-10
DYKSTRA_MAX_SWEEPS = 10_000

# doubles of temporaries that one chunk of the active-set pass may hold, so
# that large batches do not grow the peak memory
_ACTIVE_SET_CHUNK = 1 << 16
# a system whose chunks would hold fewer points than this goes to Dykstra
# whole, so the chunk loop never degrades to a few points a step (the pass
# grows with the square of the rows on one axis)
_MIN_CHUNK_POINTS = 64

_GOLDEN_ITERS = 48
_INVPHI = (np.sqrt(5.0) - 1.0) / 2.0


def as_vector(x, dim: int | None = None, name: str = "vector") -> np.ndarray:
    """Validate and convert to a finite 1-d float array."""
    v = np.asarray(x, dtype=float)
    if v.ndim == 0:
        v = v.reshape(1)
    if v.ndim != 1:
        raise DimensionMismatch(f"{name}: expected a 1-d array, got shape {v.shape}")
    if not np.all(np.isfinite(v)):
        raise ValueError(f"{name}: entries must be finite")
    if dim is not None and v.size != dim:
        raise DimensionMismatch(f"{name}: expected length {dim}, got {v.size}")
    return v


def _rows(P) -> np.ndarray:
    P = np.asarray(P, dtype=float)
    if P.ndim == 1:
        P = P[None, :]
    return P


def row_matmul(P: np.ndarray, M: np.ndarray) -> np.ndarray:
    """P @ M with each row rounded the same whatever the batch holds.

    NumPy sends a one-row product to a different BLAS kernel, which rounds
    differently; a lone row is doubled so it takes the batch kernel.
    """
    if P.shape[0] == 1:
        return (np.repeat(P, 2, axis=0) @ M)[:1]
    return P @ M


class ConvexSet:
    """Common interface: dim, project, distance, contains (all batched)."""

    dim: int

    def project_batch(self, P: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def distance_batch(self, P: np.ndarray) -> np.ndarray:
        P = _rows(P)
        Q = self.project_batch(P)
        return np.linalg.norm(P - Q, axis=1)

    def project(self, p) -> np.ndarray:
        p = as_vector(p, self.dim, "point")
        return self.project_batch(p[None, :])[0]

    def distance(self, p) -> float:
        p = as_vector(p, self.dim, "point")
        return float(self.distance_batch(p[None, :])[0])

    def contains(self, p) -> bool:
        return self.distance(p) <= TOL_MEMBER


# ---------------------------------------------------------------------------
# Dykstra's alternating projection for halfspace systems.

def dykstra_halfspaces(C, d, P, rhs=None):
    """Project each row of P onto {z : Cz <= d} (or a per-point rhs).

    rhs, when given, has shape (B, m) and replaces d per point; this is what
    the pulled-back preimage systems need, where the right-hand side varies
    with the sampled y.  Returns (Q, residual) where residual is the final
    per-point feasibility violation in normalized row units.  Points whose
    residual stops improving are retired early; an infeasible system would
    otherwise burn the whole sweep cap for every point.
    """
    C = np.asarray(C, dtype=float)
    P = _rows(P).astype(float, copy=True)
    B, _ = P.shape
    m = C.shape[0]
    if m == 0:
        return P, np.zeros(B)
    if rhs is None:
        rhs = np.broadcast_to(np.asarray(d, dtype=float), (B, m)).copy()
    rhs = np.asarray(rhs, dtype=float)

    row_sq = np.einsum("ij,ij->i", C, C)
    row_norm = np.sqrt(row_sq)
    X = P
    alpha = np.zeros((B, m))  # Dykstra's per-row scalar corrections
    active = np.arange(B)
    last_resid = np.full(B, np.inf)
    checkpoint = np.full(B, np.inf)
    for sweep in range(DYKSTRA_MAX_SWEEPS):
        Xa = X[active]
        Ra = rhs[active]
        start = Xa.copy()
        alpha_start = alpha[active].copy()
        for i in range(m):
            Y = Xa + alpha[active, i, None] * C[i]
            mu = np.maximum((row_matmul(Y, C[i]) - Ra[:, i]) / row_sq[i],
                            0.0)
            Xa = Y - mu[:, None] * C[i]
            alpha[active, i] = mu
        X[active] = Xa
        feas = np.max(np.maximum(row_matmul(Xa, C.T) - Ra, 0.0)
                      / row_norm[None, :], axis=1)
        move = np.max(np.abs(Xa - start), axis=1)
        # the iterate can park on a false plateau while the corrections keep
        # inflating toward a constraint-status flip, so convergence must be
        # read off the corrections, never the iterate movement alone
        corr = np.max(np.abs(alpha[active] - alpha_start) * row_norm[None, :],
                      axis=1)
        resid = np.maximum(feas, np.maximum(move, corr))
        last_resid[active] = resid
        keep = resid > DYKSTRA_TOL
        if sweep % 300 == 299:
            # only a persistent feasibility violation marks an empty system;
            # a slow move with feas -> 0 is a thin-angle geometry still
            # converging toward the projection and must keep running
            stalled = (feas > 1e-5) & (feas > 0.9 * checkpoint[active])
            keep &= ~stalled
            checkpoint[active] = feas
        active = active[keep]
        if active.size == 0:
            break
    feas_final = np.max(np.maximum(row_matmul(X, C.T) - rhs, 0.0)
                        / row_norm[None, :], axis=1)
    return X, feas_final


# ---------------------------------------------------------------------------
# Exact projection by active-set enumeration, with Dykstra as the fallback.

@dataclass(frozen=True)
class _AxisSystem:
    """An axis-aligned system: row i reads c[i] z[axis[i]] <= rhs_i.

    Its active sets factor over the axes that hold rows: a KKT point binds
    at most one row per axis, and the rows of one axis see no other
    coordinate.  So each such axis (axes[a]) has its own candidates: no
    row first, then its rows in order.  slot[a, v] is the v-th row of axis
    a, and pad[a, v] marks the slots past the rows of an axis with fewer
    than the most (they hold row 0 and are not checked).  Candidate u of
    axis a takes row slot[a, u - 1] (same[a, u, v] when that is slot v),
    and z_index[a, u] is where its coordinate sits among the row
    candidates (0..m-1) and the untouched coordinates (m + axis); the
    padded candidates repeat "no row".
    """

    axes: np.ndarray
    axis: np.ndarray
    c: np.ndarray
    row_sq: np.ndarray
    slot: np.ndarray
    pad: np.ndarray
    same: np.ndarray
    z_index: np.ndarray

    def doubles_per_point(self) -> int:
        """Doubles of temporaries the pass holds per projected point: about
        six of the (axis, candidate, slot) arrays and three per row."""
        A, G = self.slot.shape
        return 6 * A * (G + 1) * G + 3 * (self.c.size + A)


@lru_cache(maxsize=64)
def _axis_system(shape: tuple, data: bytes) -> _AxisSystem | None:
    """The candidates of C, or None when some row of C is not a nonzero
    multiple of a coordinate vector."""
    C = np.frombuffer(data).reshape(shape)
    m, _ = shape
    nonzero = C != 0.0
    if not np.all(nonzero.sum(axis=1) == 1):
        return None
    axis = nonzero.argmax(axis=1)
    c = C[np.arange(m), axis]
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
    # every caller of the cache shares these arrays
    arrays = (axes, axis, c, c * c, slot, pad, same, z_index)
    for a in arrays:
        a.setflags(write=False)
    return _AxisSystem(*arrays)


def _active_set_pass(s: _AxisSystem, P: np.ndarray, rhs: np.ndarray):
    """Every candidate on every row of P at once; returns (Q, exact).

    With lam_i = (c_i p - rhs_i) / c_i^2, row i as candidate moves its
    coordinate to p - lam_i c_i.  A candidate passes when that coordinate
    z and the multipliers alpha (lam_i on the candidate row, 0 on the
    other rows of its axis) are a fixed point of one Dykstra sweep: every
    row i maps z + alpha_i c_i back to z with multiplier alpha_i.  That is
    the KKT system in Dykstra's own arithmetic: rows off the active set
    hold with no tolerance, the active row binds, and alpha >= 0.  Each
    axis takes its first candidate that passes, and a point is exact when
    every axis has one.  Without two rows on one side of an axis, the
    first sweep of Dykstra reaches that same state, so the point is the
    one Dykstra stops at, bit for bit.

    The work runs with the batch on the last axis, so every elementwise
    step and every reduction sweeps the batch contiguously.
    """
    B = P.shape[0]
    # + 0.0 turns -0.0 into 0.0, as the first step of a Dykstra sweep does
    PT = P.T + 0.0
    Pa = PT[s.axis]
    R = rhs.T
    lam = (Pa * s.c[:, None] - R) / s.row_sq[:, None]
    Z = np.concatenate([Pa - lam * s.c[:, None], PT])[s.z_index]
    alpha = np.where(s.same[..., None], lam[s.slot][:, None], 0.0)
    c = s.c[s.slot][:, None, :, None]
    Y = Z[:, :, None] + alpha * c
    mu = np.maximum((Y * c - R[s.slot][:, None])
                    / s.row_sq[s.slot][:, None, :, None], 0.0)
    ok = ((mu == alpha) & (Y - mu * c == Z[:, :, None])
          | s.pad[:, None, :, None]).all(axis=2)
    Q = PT.T.copy()
    Q[:, s.axes] = Z[np.arange(s.axes.size)[:, None], ok.argmax(axis=1),
                     np.arange(B)].T
    return Q, ok.any(axis=1).all(axis=0)


def project_halfspaces(C, rhs, P):
    """Project each row of P onto {z : C z <= rhs}; rhs is (m,) or (B, m).

    Returns (Q, residual, exact).  On an axis-aligned C (every row a
    nonzero multiple of a coordinate vector) a row is exact when each
    axis has a candidate active row, or none, that one Dykstra sweep
    leaves in place (see _active_set_pass): the point is then the nearest
    point up to rounding, lam >= 0 is its KKT certificate, and its
    residual is 0.  Every other row goes to dykstra_halfspaces, whose
    residual it returns, and so does the whole batch when C is not
    axis-aligned, where the binding rows round and most points would fail
    the test, or when a chunk of _ACTIVE_SET_CHUNK doubles would hold
    fewer than _MIN_CHUNK_POINTS points.  Every step is elementwise per
    point, so a row gets the same bits alone as in any batch.
    """
    C = np.ascontiguousarray(C, dtype=float)
    P = _rows(P)
    B = P.shape[0]
    m = C.shape[0]
    Q = P.astype(float, copy=True)
    if m == 0:
        return Q, np.zeros(B), np.ones(B, dtype=bool)
    rhs = np.asarray(rhs, dtype=float).reshape(-1, m)
    exact = np.zeros(B, dtype=bool)
    s = _axis_system(C.shape, C.tobytes())
    step = 0 if s is None else _ACTIVE_SET_CHUNK // s.doubles_per_point()
    if step >= _MIN_CHUNK_POINTS:
        for a in range(0, B, step):
            Q[a:a + step], exact[a:a + step] = _active_set_pass(
                s, P[a:a + step],
                rhs if rhs.shape[0] == 1 else rhs[a:a + step])
    resid = np.zeros(B)
    back = ~exact
    if np.any(back):
        Q[back], resid[back] = dykstra_halfspaces(
            C, None, P[back], rhs=np.broadcast_to(rhs, (B, m))[back])
    return Q, resid, exact


def golden_min(fn, lo, hi):
    """Vectorized golden-section minimizer over per-point brackets.

    fn maps abscissae (B,) to values (B,) and must be unimodal on [lo, hi],
    which holds for the convex sections this is used on.  Fixed iteration
    count, so identical inputs give identical outputs.  Returns (argmin, min).
    """
    a = np.asarray(lo, dtype=float).copy()
    b = np.asarray(hi, dtype=float).copy()
    x1 = b - _INVPHI * (b - a)
    x2 = a + _INVPHI * (b - a)
    f1 = fn(x1)
    f2 = fn(x2)
    for _ in range(_GOLDEN_ITERS):
        left = f1 < f2
        b = np.where(left, x2, b)
        a = np.where(left, a, x1)
        x1_new = np.where(left, b - _INVPHI * (b - a), x2)
        x2_new = np.where(left, x1, a + _INVPHI * (b - a))
        fresh = np.where(left, x1_new, x2_new)
        fv = fn(fresh)
        f1_old = f1
        f1 = np.where(left, fv, f2)
        f2 = np.where(left, f1_old, fv)
        x1, x2 = x1_new, x2_new
    xs = np.where(f1 < f2, x1, x2)
    vals = np.minimum(f1, f2)
    return xs, vals


# ---------------------------------------------------------------------------
# Set variants.

class Polyhedron(ConvexSet):
    """{z : C z <= d}.

    Rows with a zero normal and negative offset would be an implicit
    empty-set encoding and are rejected at construction; zero rows with
    d >= 0 are dropped as vacuous.  Feasibility of the remaining system is
    decided lazily by a zero-objective LP and cached.
    """

    def __init__(self, C, d):
        C = np.asarray(C, dtype=float)
        if C.ndim == 1:
            C = C[None, :]
        d = np.atleast_1d(np.asarray(d, dtype=float))
        if C.ndim != 2:
            raise DimensionMismatch("C must be a matrix")
        if C.shape[0] != d.size:
            raise DimensionMismatch(
                f"row count mismatch: C has {C.shape[0]} rows, d has {d.size}"
            )
        if not (np.all(np.isfinite(C)) and np.all(np.isfinite(d))):
            raise ValueError("polyhedron data must be finite")
        norms = np.linalg.norm(C, axis=1)
        zero = norms <= 1e-12
        if np.any(zero & (d < -1e-12)):
            raise ValueError(
                "zero-normal row with negative offset: encode an empty set "
                "explicitly instead"
            )
        keep = ~zero
        self.C = np.ascontiguousarray(C[keep])
        self.d = np.ascontiguousarray(d[keep])
        self._feasible: bool | None = True if self.C.shape[0] == 0 else None

    def __repr__(self):
        return f"Polyhedron(rows={self.n_rows}, dim={self.dim})"

    @property
    def dim(self) -> int:
        return self.C.shape[1]

    @property
    def n_rows(self) -> int:
        return self.C.shape[0]

    def is_feasible(self) -> bool:
        """LP feasibility, cached after the first call."""
        if self._feasible is None:
            res = solve_lp(np.zeros(self.dim), self)
            self._feasible = res.status != "infeasible"
        return self._feasible

    def project_batch(self, P: np.ndarray) -> np.ndarray:
        return self._project(P)[0]

    def _project(self, P):
        """(Q, exact); only rows that fell back to Dykstra can carry a
        residual, so only they can raise EmptySet or warn."""
        Q, resid, exact = project_halfspaces(self.C, self.d, _rows(P))
        if np.any(resid > 1e-7):
            if not self.is_feasible():
                raise EmptySet("cannot project onto an empty polyhedron")
            warnings.warn("Dykstra projection left residual above 1e-7",
                          stacklevel=4)
        return Q, exact

    def distance_batch(self, P: np.ndarray) -> np.ndarray:
        P = _rows(P)
        if self.n_rows == 0:
            return np.zeros(P.shape[0])
        if self._feasible is False:
            return np.full(P.shape[0], np.inf)
        try:
            Q = self.project_batch(P)
        except EmptySet:
            return np.full(P.shape[0], np.inf)
        return np.linalg.norm(P - Q, axis=1)

    def project(self, p) -> np.ndarray:
        p = as_vector(p, self.dim, "point")
        Q, exact = self._project(p[None, :])
        # an exact row carries its KKT certificate already
        if not exact[0]:
            self._validate_kkt(p, Q[0])
        return Q[0]

    def _validate_kkt(self, p, q):
        # the step p - q must be a nonnegative combination of active rows
        r = p - q
        rn = np.linalg.norm(r)
        if rn <= 10 * DYKSTRA_TOL or self.n_rows == 0:
            return
        act = self.C @ q >= self.d - TOL_ACTIVE * (1.0 + np.abs(self.d))
        if not np.any(act):
            warnings.warn("projection step with no active rows", stacklevel=3)
            return
        _, res = nnls(self.C[act].T, r)
        if res > 1e-6 * (1.0 + rn):
            warnings.warn(
                f"projection KKT residual {res:.2e} exceeds tolerance",
                stacklevel=3,
            )


class Ball(ConvexSet):
    """Closed euclidean ball."""

    def __init__(self, center, radius):
        self.center = as_vector(center, name="center")
        self.radius = float(radius)
        if not (np.isfinite(self.radius) and self.radius >= 0.0):
            raise ValueError("radius must be finite and nonnegative")

    def __repr__(self):
        return f"Ball(center={self.center.tolist()}, radius={self.radius})"

    @property
    def dim(self) -> int:
        return self.center.size

    def project_batch(self, P: np.ndarray) -> np.ndarray:
        P = _rows(P)
        D = P - self.center[None, :]
        n = np.linalg.norm(D, axis=1)
        scale = np.ones_like(n)
        out = n > self.radius
        scale[out] = self.radius / n[out]
        return self.center[None, :] + D * scale[:, None]

    def distance_batch(self, P: np.ndarray) -> np.ndarray:
        n = np.linalg.norm(_rows(P) - self.center[None, :], axis=1)
        return np.maximum(n - self.radius, 0.0)


class Singleton(ConvexSet):
    """One-point set."""

    def __init__(self, point):
        self.point = as_vector(point, name="point")

    def __repr__(self):
        return f"Singleton({self.point.tolist()})"

    @property
    def dim(self) -> int:
        return self.point.size

    def project_batch(self, P: np.ndarray) -> np.ndarray:
        return np.repeat(self.point[None, :], _rows(P).shape[0], axis=0)

    def distance_batch(self, P: np.ndarray) -> np.ndarray:
        return np.linalg.norm(_rows(P) - self.point[None, :], axis=1)


class DirectionalCone(ConvexSet):
    """Union over lam >= 0 of lam * B(ybar, delta).

    For ||ybar|| < delta the generating ball holds the origin in its interior
    and the union is the whole space, which recovers the undirected case.
    The distance section g(lam) = ||p - lam ybar|| - lam delta is convex, so
    a golden-section search over lam >= 0 finds its minimum; the distance is
    the positive part of that minimum.
    """

    def __init__(self, ybar, delta):
        self.ybar = as_vector(ybar, name="ybar")
        self.delta = float(delta)
        if not (np.isfinite(self.delta) and self.delta >= 0.0):
            raise ValueError("delta must be finite and nonnegative")

    def __repr__(self):
        return f"DirectionalCone(ybar={self.ybar.tolist()}, delta={self.delta})"

    @property
    def dim(self) -> int:
        return self.ybar.size

    @property
    def whole_space(self) -> bool:
        return float(np.linalg.norm(self.ybar)) < self.delta

    def _lam_max(self, norms: np.ndarray) -> np.ndarray:
        denom = max(float(np.linalg.norm(self.ybar)) - self.delta, 1e-12)
        return 10.0 * (norms + 1.0) / denom

    def _best_lambda(self, P: np.ndarray):
        P = _rows(P)

        def g(lams):
            diff = P - lams[:, None] * self.ybar[None, :]
            return np.linalg.norm(diff, axis=1) - lams * self.delta

        lam, val = golden_min(g, np.zeros(P.shape[0]),
                              self._lam_max(np.linalg.norm(P, axis=1)))
        at_zero = g(np.zeros(P.shape[0]))
        pick0 = at_zero <= val
        return np.where(pick0, 0.0, lam), np.where(pick0, at_zero, val)

    def project_batch(self, P: np.ndarray) -> np.ndarray:
        # The union of balls is the revolution cone {z : <z, u> >= ||z|| cos t}
        # around u = ybar/||ybar|| with sin t = delta/||ybar||, so projection
        # splits into axis and radial components with a closed form; the
        # golden-section distance route above stays as the independent check.
        P = _rows(P)
        if self.whole_space:
            return P.copy()
        nrm = float(np.linalg.norm(self.ybar))
        if nrm <= 0.0:
            return np.zeros_like(P)
        u = self.ybar / nrm
        sin_t = min(self.delta / nrm, 1.0)
        cos_t = np.sqrt(max(1.0 - sin_t * sin_t, 0.0))
        a = row_matmul(P, u)
        perp = P - a[:, None] * u[None, :]
        t = np.linalg.norm(perp, axis=1)
        inside = (t * cos_t <= a * sin_t) & (a >= 0.0)
        s = a * cos_t + t * sin_t
        Q = np.zeros_like(P)
        Q[inside] = P[inside]
        edge = (~inside) & (s > 0.0) & (t > 1e-300)
        if np.any(edge):
            vhat = perp[edge] / t[edge, None]
            Q[edge] = s[edge, None] * (cos_t * u[None, :] + sin_t * vhat)
        return Q

    def distance_batch(self, P: np.ndarray) -> np.ndarray:
        P = _rows(P)
        if self.whole_space:
            return np.zeros(P.shape[0])
        _, val = self._best_lambda(P)
        return np.maximum(val, 0.0)


class ProductSet(ConvexSet):
    """Cartesian product; operations split over the factor blocks."""

    def __init__(self, factors):
        factors = tuple(factors)
        if not factors:
            raise ValueError("product needs at least one factor")
        self.factors = factors

    def __repr__(self):
        return f"ProductSet({list(self.factors)!r})"

    @property
    def dim(self) -> int:
        return sum(f.dim for f in self.factors)

    def _split(self, P):
        out = []
        at = 0
        for f in self.factors:
            out.append(P[:, at:at + f.dim])
            at += f.dim
        return out

    def project_batch(self, P: np.ndarray) -> np.ndarray:
        P = _rows(P)
        if P.shape[1] != self.dim:
            raise DimensionMismatch("product point has wrong length")
        return np.hstack([
            f.project_batch(block)
            for f, block in zip(self.factors, self._split(P))
        ])


# ---------------------------------------------------------------------------
# Normal cones of polyhedra.

def normal_cone_generators(poly: Polyhedron, k) -> np.ndarray:
    """Rows of poly.C active at k; these generate the normal cone there.

    Requires k to lie in the polyhedron up to TOL_ACTIVE (NotInSet
    otherwise).  Returns the raw active rows, shape (n_active, dim); an
    interior point yields an empty array.
    """
    k = as_vector(k, poly.dim, "point")
    if poly.n_rows == 0:
        return np.zeros((0, poly.dim))
    slack = poly.C @ k - poly.d
    norms = np.linalg.norm(poly.C, axis=1)
    if np.any(slack / norms > TOL_ACTIVE):
        raise NotInSet("point violates the constraint system")
    active = slack >= -TOL_ACTIVE * norms
    return poly.C[active].copy()


def project_onto_generated_cone(G: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Nearest point of cone{rows of G} to y, via nonnegative least squares."""
    y = np.asarray(y, dtype=float)
    if G.shape[0] == 0:
        return np.zeros_like(y)
    coef, _ = nnls(G.T, y)
    return G.T @ coef


# ---------------------------------------------------------------------------
# LP: maximize objective . z over a polyhedron.

@dataclass(frozen=True)
class LpResult:
    """status is 'optimal', 'infeasible', or 'unbounded'; optimum and value
    are only meaningful for 'optimal'."""

    status: str
    optimum: np.ndarray | None = None
    value: float | None = None


# scipy.optimize.linprog status codes that are results rather than failures
_LP_STATUS = {0: "optimal", 2: "infeasible", 3: "unbounded"}


def solve_lp(objective, poly: Polyhedron) -> LpResult:
    """Maximize objective . z subject to poly.C z <= poly.d, z free.

    Solved by HiGHS through scipy's linprog (Huangfu & Hall, Math. Prog.
    Comp. 2018), which is deterministic for a given problem.  Infeasible and
    unbounded outcomes are ordinary results; a solve that stops for any
    other reason (iteration limit, numerical trouble) raises
    SimplexIterationLimit.
    """
    c_obj = as_vector(objective, poly.dim, "objective")
    res = linprog(-c_obj, A_ub=poly.C, b_ub=poly.d, bounds=(None, None),
                  method="highs")
    status = _LP_STATUS.get(res.status)
    if status is None:
        raise SimplexIterationLimit(
            f"LP solver stopped with status {res.status}: {res.message}")
    if status != "optimal":
        return LpResult(status)
    # + 0.0 turns the -0.0 HiGHS reports on zero-value LPs into 0.0
    return LpResult(status, res.x, float(c_obj @ res.x) + 0.0)
