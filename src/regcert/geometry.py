"""Convex sets in R^n and the exact operations the estimators sit on.

The set vocabulary is a small tagged family: polyhedra {z : Cz <= d}, closed
euclidean balls, singletons, finite products, and the conic neighborhood of a
direction (the union of scaled balls lam * B(ybar, delta) over lam >= 0).
Every variant supports nearest-point projection and distance; polyhedra
additionally expose active-row normal cone generators and an LP.

Projections onto polyhedra are exact where the rows are axis-aligned, as
every registry K and its pullbacks through diagonal maps are: such a system
is a product of intervals, and project_halfspaces clamps each coordinate to
its axis's interval (Nocedal & Wright, Numerical Optimization, ch. 16),
with no tolerance.  Points whose bounds cross (an empty system, or an
equality pair that rounding crosses) and systems with skew rows go to
Dykstra's alternating scheme (Boyle & Dykstra, 1986) for at most
DYKSTRA_MAX_SWEEPS sweeps, and a row it leaves above DYKSTRA_TOL to one
least-distance solve (Lawson & Hanson, 1974, ch. 23), exact, or a
certificate that its system is empty.  That solve and the cone projections
the clamp does not certify share one active-set NNLS (_nnls), and LPs go
to a dense two-phase simplex with Bland's rule (solve_lp); both are exact
at the sizes used here and need only NumPy.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

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

# Dykstra's stopping tolerance and sweep cap
DYKSTRA_TOL = 1e-10
DYKSTRA_MAX_SWEEPS = 300

_EPS = np.finfo(float).eps


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
        try:
            Q = self.project_batch(P)
        except EmptySet:   # an empty factor empties a product
            return np.full(P.shape[0], np.inf)
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
# Dykstra's alternating projection and the least-distance solve.

def dykstra_halfspaces(C, d, P, rhs=None):
    """Project each row of P onto {z : Cz <= d} (or a per-point rhs).

    rhs, when given, has shape (B, m) and replaces d per point; this is what
    the pulled-back preimage systems need, where the right-hand side varies
    with the sampled y.  Returns (Q, residual): a point's residual is the
    largest of its last sweep's feasibility violation in normalized row
    units, its movement and the change of its corrections, and the point
    retires once that is at most DYKSTRA_TOL or at DYKSTRA_MAX_SWEEPS.
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
    resid = np.zeros(B)
    for _ in range(DYKSTRA_MAX_SWEEPS):
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
        resid[active] = np.maximum(feas, np.maximum(move, corr))
        active = active[resid[active] > DYKSTRA_TOL]
        if active.size == 0:
            break
    return X, resid


def _nnls(A, b):
    """min |A x - b| over x >= 0 by Lawson & Hanson's active-set method
    (Solving Least Squares Problems, 1974, ch. 23); returns (x, rnorm).

    The column with the largest gradient entry w_j above its rounding
    enters the passive set, whose columns are solved by least squares
    (one column in closed form); a step back toward the last iterate
    drops the columns that reach zero, at least the one that binds.  A
    column whose own coefficient would not be positive is rejected
    instead, so it cannot re-enter at once.  More than 3 n entries raise
    SimplexIterationLimit.  rnorm is the residual of b's projection onto
    the span of the columns with x > 0.

    The systems here have a few columns, where a NumPy call costs more
    than its arithmetic, so the loop runs on Python floats: on G = A^T A
    and c = A^T b, and on A itself only for a solve on two or more columns.
    """
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    m, n = A.shape
    G = (A.T @ A).tolist()
    c = (A.T @ b).tolist()
    rows, bl = A.tolist(), b.tolist()
    amax = max(abs(v) for row in rows for v in row)
    bsum = sum(abs(v) for v in bl)
    unit = 10.0 * max(m, n) * _EPS * amax

    def solve(cols):
        """Least-squares coefficients on cols, and the norm of b's part off
        their span where lstsq reads it off its orthogonal factor, as
        Lawson & Hanson do, so that its rounding does not grow with the
        coefficients (0 where the columns span R^m); else None."""
        if len(cols) < 2:
            return {j: c[j] / G[j][j] for j in cols}, None
        sol, res, rank, _ = np.linalg.lstsq(A[:, cols], b, rcond=None)
        if rank < len(cols):
            return dict(zip(cols, sol.tolist())), None
        return (dict(zip(cols, sol.tolist())),
                math.sqrt(res[0]) if res.size else 0.0)

    x = [0.0] * n
    passive = []
    w = list(c)
    rnorm = None
    for entries in range(3 * n + 1):
        # the rounding of w grows with the terms of A x as well as with b
        tol = unit * (bsum + amax * sum(x))
        free = [j for j in range(n) if j not in passive and w[j] > tol]
        if not free:
            break
        if entries == 3 * n:
            raise SimplexIterationLimit(f"NNLS exceeded {3 * n} entries")
        j = max(free, key=w.__getitem__)
        z, fit = solve(passive + [j])
        if not z[j] > 0.0:
            w[j] = 0.0
            continue
        passive.append(j)
        while True:
            neg = [k for k in passive if z[k] <= 0.0]
            if not neg:
                break
            step = {k: x[k] / (x[k] - z[k]) for k in neg}
            k = min(step, key=step.get)
            x = [xi + step[k] * (z.get(i, 0.0) - xi)
                 if i in passive and i != k else 0.0
                 for i, xi in enumerate(x)]
            passive = [i for i in passive if x[i] > 0.0]
            z, fit = solve(passive)
        x = [z.get(i, 0.0) for i in range(n)]
        rnorm = fit
        w = [ci - sum(g[k] * x[k] for k in passive) for ci, g in zip(c, G)]
    if rnorm is None:
        rnorm = math.sqrt(sum((bi - sum(a[k] * x[k] for k in passive)) ** 2
                              for bi, a in zip(bl, rows)))
    return np.array(x), rnorm


def _least_distance(C, rhs, P):
    """Nearest points of {z : C z <= rhs_s} to the rows p_s of P, each row
    on its own; returns (Q, empty), Q NaN on empty rows.

    With unit rows C and h = C p - rhs, the step w = z - p solves
    min |w| subject to -C w >= h, which Lawson & Hanson solve by one NNLS,
    [-C^T; h^T] u ~ e_{n+1}.  A zero residual leaves u >= 0 with C^T u = 0
    and rhs . u = -1, which certifies the system empty; the computed
    residual rounds at about eps sum(u), so it counts as zero below
    1e-12 (1 + sum(u)).  A residual r gives the nearest point
    p - r[:n] / r[n].  That quotient loses digits as the distance grows,
    so h is divided by its largest violation when that exceeds 1, and the
    point is taken instead as the projection of p onto the affine hull of
    the rows with u > 0, which are active there (a least-norm solve).
    """
    m, n = C.shape
    norm = np.linalg.norm(C, axis=1)
    Cn = C / norm[:, None]
    H = row_matmul(P, Cn.T) - rhs / norm
    E = np.vstack([-Cn.T, np.zeros(m)])
    e = np.eye(n + 1)[n]
    Q = P.astype(float, copy=True)
    empty = np.zeros(P.shape[0], dtype=bool)
    for s, h in enumerate(H):
        E[n] = h / max(h.max(), 1.0)
        u, rnorm = _nnls(E, e)
        # the residual is 1 / sqrt(1 + D^2) on a set D scaled units away
        if rnorm <= 1e-12 * (1.0 + u.sum()):
            empty[s] = True
            Q[s] = np.nan
            continue
        act = u > 0.0
        Q[s] -= np.linalg.lstsq(Cn[act], h[act], rcond=None)[0]
    return Q, empty


# ---------------------------------------------------------------------------
# Exact projection onto axis-aligned systems by a clamp, with Dykstra as the
# fallback.

@dataclass(frozen=True)
class _AxisSystem:
    """An axis-aligned system: row i reads c[i] z[axis[i]] <= rhs_i.

    Such a system is a product of intervals, one per axis that holds rows,
    so its projection clamps each coordinate.  The rows are kept sorted by
    axis, stably (order[r] is the row of C at position r; c and row_sq are
    columns), so each of those axes, listed in axes, holds the run of
    positions from starts[k] to the next start.
    """

    order: np.ndarray
    axis: np.ndarray
    c: np.ndarray
    row_sq: np.ndarray
    axes: np.ndarray
    starts: np.ndarray


@lru_cache(maxsize=64)
def _axis_system(shape: tuple, data: bytes) -> _AxisSystem | None:
    """The runs of C, or None when some row of C is not a nonzero multiple
    of a coordinate vector."""
    C = np.frombuffer(data).reshape(shape)
    nonzero = C != 0.0
    if not np.all(nonzero.sum(axis=1) == 1):
        return None
    axis = nonzero.argmax(axis=1)
    order = np.argsort(axis, kind="stable")
    axis = axis[order]
    c = C[order, axis][:, None]
    axes, starts = np.unique(axis, return_index=True)
    # every caller of the cache shares these arrays
    arrays = (order, axis, c, c * c, axes, starts)
    for a in arrays:
        a.setflags(write=False)
    return _AxisSystem(*arrays)


def _clamp_pass(C, rhs, P):
    """Each row of P clamped to the intervals of an axis-aligned C, rhs
    (1, m) or (B, m); returns (Q, exact), no row exact where C is not
    axis-aligned.

    With lam_i = (c_i p - rhs_i) / c_i^2, row i puts the bound
    z_i = p - lam_i c_i on its coordinate, from above where c_i > 0 and
    from below where c_i < 0.  Each axis takes hi, the least upper bound
    (+inf without one), and lo, the greatest lower bound (-inf without
    one), and its coordinate is p clamped to [lo, hi] (Nocedal & Wright,
    Numerical Optimization, ch. 16).  A row is exact when lo <= hi on
    every axis; Q means nothing on the others, whose bounds cross (an empty
    system, or an equality pair that rounding crosses).

    Each z_i is where a Dykstra step on row i moves a p that violates it,
    so where a round trip of the sweep leaves it in place, Dykstra stops at
    the same point, bit for bit; on equality pairs rounding often moves
    it, and Dykstra stops some ulps away.  Ties: where several rows bound
    one side, the least (or greatest) z binds whatever the row order, and
    the z of another row that holds there in floats lies within a few
    eps (|p| + |z|) of it.

    Every step is elementwise IEEE arithmetic or a min or max, which
    rounds nothing (no z is -0.0), so a row gets the same bits alone as
    in any batch and on any BLAS.  The work runs on (rows, batch) arrays,
    so every step sweeps the batch contiguously.
    """
    s = _axis_system(C.shape, C.tobytes())
    if s is None:
        return P.astype(float, copy=True), np.zeros(P.shape[0], dtype=bool)
    # + 0.0 turns -0.0 into 0.0, as the first step of a Dykstra sweep does
    PT = P.T + 0.0
    Pa = PT[s.axis]
    R = rhs.T[s.order]
    lam = (Pa * s.c - R) / s.row_sq
    z = Pa - lam * s.c
    hi = np.minimum.reduceat(np.where(s.c > 0.0, z, np.inf), s.starts)
    lo = np.maximum.reduceat(np.where(s.c < 0.0, z, -np.inf), s.starts)
    PT[s.axes] = np.minimum(np.maximum(PT[s.axes], lo), hi)
    return PT.T, np.all(lo <= hi, axis=0)


def project_halfspaces(C, rhs, P):
    """Project each row of P onto {z : C z <= rhs}; rhs is (m,) or (B, m).

    Returns (Q, empty): the nearest points, and the rows whose system is
    empty, where Q is NaN.  On an axis-aligned C (every row a nonzero
    multiple of a coordinate vector) the system is a product of intervals
    and a row takes the clamp of _clamp_pass, exact up to the rounding of
    its bounds, for any number of rows on an axis.  A row whose bounds
    cross, and every row when C is not axis-aligned, goes to
    dykstra_halfspaces, and a row Dykstra leaves above DYKSTRA_TOL, as
    every row of an empty system, to _least_distance, which projects it or
    certifies its system empty.  So an equality pair that rounding crosses
    by an ulp still gets its point.  Every step is per point, so a row
    gets the same bits alone as in any batch.
    """
    C = np.ascontiguousarray(C, dtype=float)
    P = _rows(P)
    B = P.shape[0]
    m = C.shape[0]
    empty = np.zeros(B, dtype=bool)
    if m == 0:
        return P.astype(float, copy=True), empty
    rhs = np.asarray(rhs, dtype=float).reshape(-1, m)
    Q, exact = _clamp_pass(C, rhs, P)
    back = np.flatnonzero(~exact)
    if back.size:
        rhs = np.broadcast_to(rhs, (B, m))
        Q[back], resid = dykstra_halfspaces(C, None, P[back], rhs=rhs[back])
        left = back[resid > DYKSTRA_TOL]
        if left.size:
            Q[left], empty[left] = _least_distance(C, rhs[left], P[left])
    return Q, empty


# ---------------------------------------------------------------------------
# Set variants.

class Polyhedron(ConvexSet):
    """{z : C z <= d}.

    Rows with a zero normal and negative offset would be an implicit
    empty-set encoding and are rejected at construction; zero rows with
    d >= 0 are dropped as vacuous.  Feasibility of the remaining system is
    decided lazily by a zero-objective LP and cached, and so is a
    projection's certificate that the system is empty, which later
    projections and distances reuse.
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
        if self._feasible is not False:
            Q, empty = project_halfspaces(self.C, self.d, _rows(P))
            if not np.any(empty):
                return Q
            self._feasible = False
        raise EmptySet("cannot project onto an empty polyhedron")


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
    Otherwise its closure is a revolution cone around ybar (the origin alone
    where ybar = 0), whose projection has a closed form; the distance is the
    one ConvexSet derives from that projection.
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

    def project_batch(self, P: np.ndarray) -> np.ndarray:
        # The union of balls is the revolution cone {z : <z, u> >= ||z|| cos t}
        # around u = ybar/||ybar|| with sin t = delta/||ybar||, so projection
        # splits into axis and radial components with a closed form.
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
# Faces of polyhedra.

# row subsets a face table may count, before any rank test
FACE_CAP = 256
# rows count as dependent where det(C_J C_J^T) is at most this share of
# the product of their squared norms, where the Gram solve loses most digits
_FACE_DEPENDENT = 1e-12


@dataclass(frozen=True)
class FaceTable:
    """The active sets J of {z : C z <= d} with at most k = min(m, dim)
    independent rows, by size, then in itertools.combinations order.  rows
    (F, k) lists J padded with -1; M (F, dim, k) holds C_J^T (C_J C_J^T)^-1
    padded with zeros, so P_J z = z - M_J (C_J z - d_J) is the nearest point
    of {C_J z = d_J}.  The nearest point of the polyhedron is P_J z for some
    J, as its multipliers can be taken on independent rows."""

    rows: np.ndarray
    M: np.ndarray


@lru_cache(maxsize=64)
def face_table(shape: tuple, data: bytes) -> FaceTable | None:
    """The face table of the C with these bytes, cached like _axis_system
    (M does not depend on d), or None past FACE_CAP subsets."""
    m, n = shape
    k = min(m, n)
    if sum(math.comb(m, size) for size in range(k + 1)) > FACE_CAP:
        return None
    C = np.frombuffer(data).reshape(shape)
    rows, M = [], []
    for size in range(k + 1):
        for J in itertools.combinations(range(m), size):
            CJ = C[list(J)]
            G = CJ @ CJ.T
            if np.linalg.det(G) <= _FACE_DEPENDENT * np.prod(np.diag(G)):
                continue
            MJ = np.zeros((n, k))
            MJ[:, :size] = np.linalg.solve(G, CJ).T
            rows.append(list(J) + [-1] * (k - size))
            M.append(MJ)
    # every caller of the cache shares these arrays
    table = FaceTable(np.array(rows, dtype=int).reshape(len(rows), k),
                      np.array(M))
    for a in (table.rows, table.M):
        a.setflags(write=False)
    return table


# ---------------------------------------------------------------------------
# Normal cones of polyhedra.

def normal_cone_masks(poly: Polyhedron, K) -> np.ndarray:
    """(B, m) mask of the rows of poly.C active at each row of K, which
    generate the normal cone there; NotInSet unless every row lies in the
    polyhedron up to TOL_ACTIVE.  The slacks take a stacked matmul, which
    NumPy sends to the BLAS kernel of C @ k on one point."""
    slack = np.matmul(poly.C, _rows(K)[:, :, None])[:, :, 0] - poly.d
    norms = np.linalg.norm(poly.C, axis=1)
    if np.any(slack / norms > TOL_ACTIVE):
        raise NotInSet("point violates the constraint system")
    return slack >= -TOL_ACTIVE * norms


def normal_cone_generators(poly: Polyhedron, k) -> np.ndarray:
    """Rows of poly.C active at k, shape (n_active, dim), by
    normal_cone_masks; an interior point yields an empty array."""
    return poly.C[normal_cone_masks(poly, as_vector(k, poly.dim, "point"))[0]]


def project_onto_generated_cones(C, masks, Y) -> np.ndarray:
    """Nearest point of cone{C_J}, the rows of the float array C where
    masks[s], to each row y_s of Y: y - P(y), P the projection onto the
    polar {z : C_J z <= 0}, by Moreau's decomposition (1962).  The rows of
    one pattern J take the clamp pass together; a row it does not certify
    (skew C_J, or bounds that rounding crosses) takes an NNLS of its own.
    A row gets the same bits alone as in any batch; one with no active row
    projects to 0."""
    Y = _rows(Y)
    P = np.zeros_like(Y)
    patterns, group = np.unique(masks, axis=0, return_inverse=True)
    for g, J in enumerate(patterns):
        if not J.any():
            continue
        G = C[J]
        at = np.flatnonzero(group.reshape(-1) == g)
        Q, exact = _clamp_pass(G, np.zeros((1, G.shape[0])), Y[at])
        P[at[exact]] = Y[at[exact]] - Q[exact]
        for s in at[~exact]:
            P[s] = G.T @ _nnls(G.T, Y[s])[0]
    return P


def project_onto_generated_cone(G: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Nearest point of cone{rows of G} to y (project_onto_generated_cones)."""
    G = np.asarray(G, dtype=float)
    return project_onto_generated_cones(
        G, np.ones((1, G.shape[0]), dtype=bool), y)[0]


# ---------------------------------------------------------------------------
# LP: maximize objective . z over a polyhedron.

@dataclass(frozen=True)
class LpResult:
    """status is 'optimal', 'infeasible', or 'unbounded'; optimum and value
    are only meaningful for 'optimal'."""

    status: str
    optimum: np.ndarray | None = None
    value: float | None = None


# pivots one LP solve may take, over both phases, before it stops with
# SimplexIterationLimit
LP_MAX_PIVOTS = 20_000
# reduced costs and pivot entries count as nonzero above this
_LP_TOL = 1e-9


def _pivot(T, rhs, basis, row, col):
    """Pivot the tableau on (row, col) in place."""
    piv = T[row, col]
    T[row] /= piv
    rhs[row] /= piv
    fac = T[:, col].copy()
    fac[row] = 0.0
    T -= np.outer(fac, T[row])
    rhs -= fac * rhs[row]
    basis[row] = col


def _simplex(T, rhs, basis, cost, pivots):
    """Minimize cost . x over the tableau in place, starting from the
    feasible basis; returns (pivots so far, unbounded).  Bland's rule
    (Bland, Math. Oper. Res. 1977) takes the smallest entering index and,
    among tied ratios, the basic variable of smallest index, so the solve
    cannot cycle."""
    while True:
        reduced = cost - cost[basis] @ T
        candidates = np.flatnonzero(reduced < -_LP_TOL)
        if candidates.size == 0:
            return pivots, False
        if pivots >= LP_MAX_PIVOTS:
            raise SimplexIterationLimit(
                f"simplex exceeded {LP_MAX_PIVOTS} pivots")
        entering = int(candidates[0])
        col = T[:, entering]
        pos = col > _LP_TOL
        if not np.any(pos):
            return pivots, True
        ratios = np.full(col.size, np.inf)
        ratios[pos] = rhs[pos] / col[pos]
        ties = np.flatnonzero(ratios <= ratios.min() + 1e-12)
        _pivot(T, rhs, basis, int(ties[np.argmin(basis[ties])]), entering)
        # the rounding of a pivot must not leave a basic value below zero
        np.copyto(rhs, 0.0, where=(rhs < 0.0) & (rhs > -1e-11))
        pivots += 1


def solve_lp(objective, poly: Polyhedron) -> LpResult:
    """Maximize objective . z subject to poly.C z <= poly.d, z free.

    Two-phase dense primal simplex.  Free variables are split z = u - w,
    slacks complete the starting basis, rows with a negative right-hand
    side are negated and get a phase-1 artificial, and Bland's rule picks
    both the entering column and the leaving row, so the solve is
    deterministic and cannot cycle.  Infeasible and unbounded outcomes are
    ordinary results; more than LP_MAX_PIVOTS pivots raise
    SimplexIterationLimit.
    """
    c_obj = as_vector(objective, poly.dim, "objective")
    A = poly.C
    m, n = A.shape
    if m == 0:
        if not np.any(c_obj):
            return LpResult("optimal", np.zeros(n), 0.0)
        return LpResult("unbounded")

    # columns: u (n), w (n), slacks (m), then the phase-1 artificials
    ncols = 2 * n + m
    flip = poly.d < 0.0
    art = np.flatnonzero(flip)
    T = np.zeros((m, ncols + art.size))
    T[:, :n] = A
    T[:, n:2 * n] = -A
    T[:, 2 * n:ncols] = np.eye(m)
    rhs = poly.d.copy()
    T[flip] *= -1.0
    rhs[flip] *= -1.0
    basis = np.arange(2 * n, ncols)
    T[art, ncols + np.arange(art.size)] = 1.0
    basis[art] = ncols + np.arange(art.size)

    pivots = 0
    if art.size:
        cost = np.zeros(T.shape[1])
        cost[ncols:] = 1.0
        pivots, unbounded = _simplex(T, rhs, basis, cost, pivots)
        if unbounded:
            raise SimplexIterationLimit("phase 1 reported an unbounded ray")
        left = basis >= ncols
        if float(np.sum(rhs[left])) > 1e-7:
            return LpResult("infeasible")
        # pivot the artificials left at zero out of the basis; a row with
        # no entry to pivot on is redundant and is dropped
        keep = np.ones(m, dtype=bool)
        for i in np.flatnonzero(left):
            j = int(np.argmax(np.abs(T[i, :ncols])))
            if abs(T[i, j]) > _LP_TOL:
                _pivot(T, rhs, basis, i, j)
            else:
                keep[i] = False
        T, rhs, basis = T[keep, :ncols], rhs[keep], basis[keep]

    cost = np.zeros(T.shape[1])
    cost[:n] = -c_obj          # maximize c.z == minimize -c.(u - w)
    cost[n:2 * n] = c_obj
    _, unbounded = _simplex(T, rhs, basis, cost, pivots)
    if unbounded:
        return LpResult("unbounded")
    x = np.zeros(T.shape[1])
    x[basis] = rhs
    z = x[:n] - x[n:2 * n]
    # + 0.0 turns a -0.0 value into 0.0
    return LpResult("optimal", z, float(c_obj @ z) + 0.0)
