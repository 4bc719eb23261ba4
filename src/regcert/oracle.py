"""Brute-force lattice ground truth for small instances.

Recomputes what the fast estimators sample -- preimage distances, descent
slopes, the regularity ratio sup -- by exhaustive scans over rectangular
lattices.  Set distances go through an axis-box clamp, the closed-form
ball formula and, for skew polyhedra, a minimum over the faces of K, each
polyhedral form cached per (C, d) apart from geometry's caches, instead of
the projection machinery the estimators use, so agreement is an
independent check rather than a tautology.  Dimension and lattice-size
caps guard against accidental blowup; no tuning beyond them.

grid_modulus makes one pass over the y lattice in blocks of targets, each
holding at most _CHUNK_ROWS (target, u) pairs.  A block's image distances,
directional membership scan and preimage-pool rounds run as stacked array
passes over all of its targets, a few clamp calls per step instead of one
per target.  That one row budget, _CHUNK_ROWS, bounds every stacked array:
the clamp calls, the membership scan's scale grids, the pool rounds'
candidate groups and the blocked distances of the nearest-point search,
which keep np.linalg.norm's summation order.  Each row's value is the one
it would get alone, bit for bit, and the sup takes the targets' ratios in
lattice order, so max sees them in the order a per-target loop would.
"""

from __future__ import annotations

import itertools
import math
import warnings
from functools import lru_cache

import numpy as np

from .errors import (
    DimensionMismatch,
    EmptySet,
    GridTooCoarse,
    GridTooLarge,
    InvalidParameter,
    NoAdmissibleSamples,
    RegcertError,
)
from .geometry import (
    TOL_FEAS,
    Ball,
    ConvexSet,
    Polyhedron,
    ProductSet,
    Singleton,
    as_vector,
    row_matmul,
)
from .multimap import AffineMap, MultiMap
from .regularity import RegularityQuery, robinson_condition

_MAX_AXIS_POINTS = 201
_MAX_LATTICE = 10_000_000
_MAX_PAIRS = 20_000_000
_CHUNK_ROWS = 8_192
_FACE_TOL = 1e-10
_FACE_SINGULAR = 1e-6
_MAX_FACE_SETS = 1_000
_POOL_ROUNDS = 7
_POOL_CENTERS = 96
# re-sweeps of a membership row whose least value sits at its last scale,
# each over twice the scales of the one before
_SWEEP_DOUBLINGS = 40


class Grid:
    """Rectangular lattice: per-axis bounds and a shared points-per-axis.

    points_per_axis stays at or below 201 and the full lattice at or below
    10^7 points; both caps raise GridTooLarge instead of truncating.
    """

    def __init__(self, box, points_per_axis: int):
        box = np.asarray(box, dtype=float)
        if box.ndim == 1 and box.size == 2:
            box = box[None, :]
        if box.ndim != 2 or box.shape[1] != 2:
            raise DimensionMismatch("box must be an (n, 2) array of bounds")
        if not np.all(np.isfinite(box)):
            raise InvalidParameter("grid bounds must be finite")
        if np.any(box[:, 0] > box[:, 1]):
            raise InvalidParameter("grid bounds must satisfy lo <= hi")
        pts = int(points_per_axis)
        if pts < 2:
            raise InvalidParameter("points_per_axis must be at least 2")
        if pts > _MAX_AXIS_POINTS:
            raise GridTooLarge(
                f"points_per_axis {pts} above the cap {_MAX_AXIS_POINTS}")
        if pts ** box.shape[0] > _MAX_LATTICE:
            raise GridTooLarge(
                f"lattice size {pts}^{box.shape[0]} above the cap "
                f"{_MAX_LATTICE}")
        self.box = box
        self.points_per_axis = pts

    @property
    def dim(self) -> int:
        return self.box.shape[0]

    @property
    def size(self) -> int:
        return self.points_per_axis ** self.dim

    @property
    def spacing(self) -> np.ndarray:
        return (self.box[:, 1] - self.box[:, 0]) / (self.points_per_axis - 1)

    @property
    def step(self) -> float:
        return float(self.spacing.max())

    @property
    def axes(self) -> tuple:
        return tuple(np.linspace(lo, hi, self.points_per_axis)
                     for lo, hi in self.box)

    def chunks(self, rows: int = _CHUNK_ROWS):
        """Yield lattice points as (r, dim) arrays in a fixed order."""
        axes = self.axes
        tail = self.points_per_axis ** (self.dim - 1)
        per = max(1, rows // tail)
        first = axes[0]
        for start in range(0, first.size, per):
            mesh = np.meshgrid(first[start:start + per], *axes[1:],
                               indexing="ij")
            yield np.stack([m.ravel() for m in mesh], axis=1)

    def lattice(self) -> np.ndarray:
        return np.concatenate(list(self.chunks()), axis=0)


# ---------------------------------------------------------------------------
# Independent set distances.

def _axis_bounds(C: np.ndarray, d: np.ndarray):
    """(lo, hi) bounds when every row of C z <= d bounds one coordinate,
    else None."""
    lo = np.full(C.shape[1], -np.inf)
    hi = np.full(C.shape[1], np.inf)
    for row, rhs in zip(C, d):
        nz = np.nonzero(row)[0]
        if nz.size != 1:
            return None
        j = nz[0]
        if row[j] > 0:
            hi[j] = min(hi[j], rhs / row[j])
        else:
            lo[j] = max(lo[j], rhs / row[j])
    if np.any(lo > hi + 1e-12):
        raise EmptySet("box form of K has crossing bounds")
    return lo, np.maximum(hi, lo)


@lru_cache(maxsize=64)
def _polyhedron_box(shape: tuple, C_data: bytes, d_data: bytes):
    """_axis_bounds of the system C z <= d that the bytes hold.  An
    EmptySet is raised, not cached, so crossing bounds raise every call."""
    form = _axis_bounds(np.frombuffer(C_data).reshape(shape),
                        np.frombuffer(d_data))
    if form is not None:
        # every caller of the cache shares these arrays
        for a in form:
            a.setflags(write=False)
    return form


@lru_cache(maxsize=64)
def _polyhedron_faces(shape: tuple, C_data: bytes, d_data: bytes):
    """(P, q, U, e): U z <= e is the system the bytes hold with unit rows,
    and z @ P[k] + q[k] is the nearest point of {U_J z = e_J} for the k-th
    set J of at most dim rows whose unit rows have their least singular
    value above _FACE_SINGULAR.  The nearest point of a nonempty K is one
    of these, as its multipliers can be taken on independent rows.  More
    than _MAX_FACE_SETS row sets raise InvalidParameter before any is
    enumerated: at most 18 rows of a K in R^3, 44 in R^2."""
    sets = sum(math.comb(shape[0], k) for k in range(1, shape[1] + 1))
    if sets > _MAX_FACE_SETS:
        raise InvalidParameter(
            f"{sets} row sets of a skew K with {shape[0]} rows in "
            f"R^{shape[1]} above the cap {_MAX_FACE_SETS}")
    C = np.frombuffer(C_data).reshape(shape)
    norms = np.linalg.norm(C, axis=1)   # Polyhedron drops zero rows
    U, e = C / norms[:, None], np.frombuffer(d_data) / norms
    n = shape[1]
    P, q = [np.eye(n)], [np.zeros(n)]
    for k in range(1, n + 1):
        for J in map(list, itertools.combinations(range(shape[0]), k)):
            if np.linalg.svd(U[J], compute_uv=False)[-1] > _FACE_SINGULAR:
                M = np.linalg.pinv(U[J])   # U_J^T (U_J U_J^T)^-1
                P.append(np.eye(n) - (M @ U[J]).T)
                q.append(M @ e[J])
    faces = (np.array(P), np.array(q), U, e)
    for a in faces:   # every caller of the cache shares these arrays
        a.setflags(write=False)
    return faces


def _box_form(K: ConvexSet):
    """(lo, hi) bounds when K is an axis-aligned box, else None.  A
    polyhedron's form is derived once per (C, d) and returned read-only."""
    if isinstance(K, Singleton):
        return K.point.copy(), K.point.copy()
    if isinstance(K, Polyhedron):
        return _polyhedron_box(K.C.shape, K.C.tobytes(), K.d.tobytes())
    return None


def clamp_distance_batch(K: ConvexSet, Z: np.ndarray) -> np.ndarray:
    """d(K, z) per row, by clamp composition where the shape allows.

    Exact for boxes (clamp), singletons, balls, and products of those.  A
    skew polyhedron, at most 3-D and with at most _MAX_FACE_SETS row sets,
    takes the least distance to a face point that lies in K up to
    _FACE_TOL (1 + |z|), plus its largest violation; it raises EmptySet
    where no face point of a finite row lies in K.

    A box distance runs one axis at a time with scalar bounds: w = z_j -
    min(max(z_j, lo_j), hi_j), squared in place and summed over j left to
    right, then sqrt.  np.linalg.norm(axis=1) is sqrt(add.reduce(x * x)),
    and for the at most 3 axes the oracle allows that reduce also sums left
    to right, so the value is norm(Z - clip(Z, lo, hi)) bit for bit; the
    sign of a zero dies in the square, and NaN and inf propagate the same
    way.  Z may be the transpose of a C-contiguous (dim, rows) array, as
    the oracle's stacked callers pass it, so each axis is one contiguous
    column.

    The sign bit of a NaN distance is cleared.  NaN + NaN keeps the sign
    of one operand, and which one numpy's add keeps depends on the array's
    length (the second for one element, the first for more), so a row
    holding inf - inf (a negative NaN) and a positive NaN would otherwise
    get different bits alone and in a batch.  Every other distance is
    >= +0, so the clearing leaves it as it is.
    """
    d = _clamp_distance(K, np.atleast_2d(np.asarray(Z, dtype=float)))
    return np.abs(d, out=d)


def _clamp_distance(K: ConvexSet, Z: np.ndarray) -> np.ndarray:
    """clamp_distance_batch on a 2-D float Z, NaN signs as they fall."""
    if isinstance(K, Ball):
        return np.maximum(
            np.linalg.norm(Z - K.center, axis=1) - K.radius, 0.0)
    if isinstance(K, ProductSet):
        acc = np.zeros(Z.shape[0])
        ofs = 0
        for blk in K.factors:
            acc += clamp_distance_batch(blk, Z[:, ofs:ofs + blk.dim]) ** 2
            ofs += blk.dim
        return np.sqrt(acc)
    form = _box_form(K)
    if form is not None:
        lo, hi = form
        acc = np.zeros(Z.shape[0])
        for j in range(Z.shape[1]):
            z = Z[:, j]
            w = np.maximum(z, lo[j])
            np.minimum(w, hi[j], out=w)
            np.subtract(z, w, out=w)
            w *= w
            acc += w
        return np.sqrt(acc, out=acc)
    if not isinstance(K, Polyhedron):
        raise InvalidParameter(f"no oracle distance for {type(K).__name__}")
    if K.dim > 3:
        raise InvalidParameter("skew oracle distances are capped at dim 3")
    P, q, U, e = _polyhedron_faces(K.C.shape, K.C.tobytes(), K.d.tobytes())
    tol = _FACE_TOL * (1.0 + np.linalg.norm(Z, axis=1))
    # NaN, which np.minimum keeps, where a row has a non-finite entry
    best = np.where(np.isfinite(Z).all(axis=1), np.inf, np.nan)
    for Pk, qk in zip(P, q):
        W = row_matmul(Z, Pk) + qk
        # the largest violation and |z - w|, column by column from 0, as
        # the box route sums its axes
        viol, acc = 0.0, 0.0
        for col in (row_matmul(W, U.T) - e).T:
            viol = np.maximum(viol, col)
        for z, w in zip(Z.T, W.T):
            acc = acc + (z - w) ** 2
        val = np.sqrt(acc) + viol
        np.minimum(best, np.where(viol <= tol, val, np.inf), out=best)
    if np.any(np.isinf(best)):
        raise EmptySet("no face of the skew K holds a point of K")
    return best


# ---------------------------------------------------------------------------
# Preimage distances.

def _warn_if_coarse(F: MultiMap, x: np.ndarray, y: np.ndarray,
                    what: str) -> None:
    """Warn GridTooCoarse when the interiority LP at (x, y) toward ybar = 0
    holds, since solvability then suggests the lattice missed a preimage."""
    try:
        holds = robinson_condition(F, x, y, np.zeros(F.dim_out)).holds
    except RegcertError:
        return
    if holds:
        warnings.warn(f"{what} although the interiority LP holds; the grid "
                      "is likely too coarse", GridTooCoarse)


def grid_preimage_distance(F: MultiMap, y, x, g: Grid) -> float:
    """min ||x - u|| over lattice u with d(K, f(u) - y) <= TOL_FEAS.

    The query point x joins the candidates, so a feasible x gives 0 even
    off-lattice.  Returns +inf when nothing on the lattice is feasible; in
    that case a GridTooCoarse warning fires when the interiority LP at
    (x, y) holds.
    """
    y = as_vector(y, F.dim_out, "y")
    x = as_vector(x, F.dim_in, "x")
    if g.dim != F.dim_in:
        raise DimensionMismatch("grid dimension must match dim_in")
    if float(clamp_distance_batch(F.K, (F.f(x) - y)[None, :])[0]) <= TOL_FEAS:
        return 0.0
    best = np.inf
    for U in g.chunks():
        feas = clamp_distance_batch(F.K, F.f.eval_batch(U) - y) <= TOL_FEAS
        if np.any(feas):
            best = min(best, float(np.linalg.norm(U[feas] - x, axis=1).min()))
    if not np.isfinite(best):
        _warn_if_coarse(F, x, y, "no feasible lattice point")
    return best


def _nearest(A: np.ndarray, B: np.ndarray) -> tuple:
    """Index into B of the nearest row, and its distance, for each row of A.

    Squared coordinate differences are summed left to right before the
    square root, which is np.linalg.norm's summation order for the
    dimensions the oracle allows, so distances match norm bit for bit.
    Work runs on (rows of A, block of B) arrays of at most _CHUNK_ROWS
    elements; a later block replaces the running best only when strictly
    nearer, so ties go to the lowest index, as with argmin.  B may be the
    transpose of a C-contiguous (dim, rows) array, as _preimage_pool
    passes its coordinate-major pools, so that a block reads each
    coordinate as one contiguous row; the values do not depend on B's
    layout.
    """
    idx = np.zeros(A.shape[0], dtype=np.intp)
    dist = np.full(A.shape[0], np.inf)
    rows = max(1, min(A.shape[0], _CHUNK_ROWS))
    per = _CHUNK_ROWS // rows
    for a in range(0, A.shape[0], rows):
        Q = A[a:a + rows]
        r = np.arange(Q.shape[0])
        for b in range(0, B.shape[0], per):
            blk = B[b:b + per]
            sq = (Q[:, 0, None] - blk[:, 0]) ** 2
            for k in range(1, A.shape[1]):
                sq += (Q[:, k, None] - blk[:, k]) ** 2
            d = np.sqrt(sq, out=sq)
            j = np.argmin(d, axis=1)
            d = d[r, j]
            better = d < dist[a:a + rows]
            idx[a:a + rows][better] = j[better] + b
            dist[a:a + rows][better] = d[better]
    return idx, dist


def _clamp_rows(K: ConvexSet, Z: np.ndarray) -> np.ndarray:
    """clamp_distance_batch on the rows of Z, in calls of at most
    _CHUNK_ROWS rows."""
    return np.concatenate([clamp_distance_batch(K, Z[a:a + _CHUNK_ROWS])
                           for a in range(0, Z.shape[0], _CHUNK_ROWS)])


def _target_distances(K: ConvexSet, fX: np.ndarray,
                      V: np.ndarray) -> np.ndarray:
    """d_K(fX[j] - V[t]) as a (targets, rows) array, built for as many
    targets at a time as _CHUNK_ROWS (target, row) pairs hold.  The pairs
    are stacked axis-major, as a C-contiguous (dim, pairs) array."""
    n, dim = fX.shape
    per = max(1, _CHUNK_ROWS // n)
    VT = V.T[:, :, None]
    return np.concatenate([
        _clamp_rows(K, np.subtract(fX.T[:, None, :], VT[:, a:a + per],
                                   order="C").reshape(dim, -1).T)
        .reshape(-1, n)
        for a in range(0, V.shape[0], per)])


def _preimage_pool(F: MultiMap, V: np.ndarray, g: Grid, G: np.ndarray,
                   fG: np.ndarray, US: list, L: float) -> list:
    """Refined lattice approximations of the preimages of the rows of V, as
    one (P, n) point pool per target (None where stage one is empty).

    Stage one keeps every lattice point feasible at the step-scaled
    tolerance; each round then halves the spacing and rebuilds a target's
    pool from local grids around its points currently nearest to its query
    set US[t], so the feasibility slack shrinks with the spacing and the
    final distances carry neither the coarse-lattice overestimate nor
    the tolerance-slack underestimate.  A target whose round finds no
    feasible candidate keeps its pool and leaves the rounds.  Each round
    stacks the live targets' local grids, one per center, and evaluates
    as many whole grids at a time as _CHUNK_ROWS rows hold; only a hit
    mask is kept for all of them.  G is g's lattice and fG = f(G); L
    bounds the Lipschitz constant of f over g.box.

    Through the rounds a pool is held coordinate-major, as an (n, P)
    array, and candidates and rebuilt pools are filled one coordinate at a
    time, each point the same center + step sum as in a row-major pool.
    """
    n = g.dim

    def tol_at(spacing):
        # a lattice point within spacing/2 per axis of the preimage manifold
        # moves the residual by at most L * spacing * sqrt(n) / 2; 0.6 adds
        # slack
        return max(TOL_FEAS, 0.6 * L * float(spacing.max()) * np.sqrt(n))

    spacing = g.spacing
    feas = _target_distances(F.K, fG, V) <= tol_at(spacing)
    GT = np.ascontiguousarray(G.T)
    pools = [GT[:, row] if row.any() else None for row in feas]
    live = [t for t, pool in enumerate(pools) if pool is not None]
    offs = np.stack([m.ravel() for m in np.meshgrid(
        *([np.linspace(-4.0, 4.0, 17)] * n), indexing="ij")])
    per = offs.shape[1]
    group = max(1, _CHUNK_ROWS // per)
    for _ in range(_POOL_ROUNDS):
        if not live:
            break
        centers = []
        for t in live:
            nearest, _ = _nearest(US[t], pools[t].T)
            centers.append(pools[t][:, np.unique(nearest)[:_POOL_CENTERS]])
        sizes = [c.shape[1] for c in centers]
        owner = np.repeat(live, sizes)
        ends = np.cumsum(sizes)
        centers = np.concatenate(centers, axis=1)
        spacing = spacing / 2.0
        tol = tol_at(spacing)
        step = offs * spacing[:, None]
        # hit[c, o]: is center c moved by step o feasible at tol
        hit = np.empty((centers.shape[1], per), dtype=bool)
        for c in range(0, centers.shape[1], group):
            nc = min(group, centers.shape[1] - c)
            cand = np.empty((nc, per, n))
            for j in range(n):
                np.add(centers[j, c:c + nc, None], step[j], out=cand[:, :, j])
            diff = np.subtract(
                F.f.eval_batch(cand.reshape(-1, n)).T.reshape(
                    F.dim_out, nc, per),
                V[owner[c:c + nc]].T[:, :, None], order="C")
            hit[c:c + nc] = (_clamp_rows(F.K, diff.reshape(F.dim_out, -1).T)
                             <= tol).reshape(nc, per)
        kept = []
        for t, lo, hi in zip(live, ends - sizes, ends):
            k = np.flatnonzero(hit[lo:hi])
            if k.size == 0:
                continue
            if k.size > 4096:
                k = k[:: k.size // 4096 + 1]
            ci, oi = lo + k // per, k % per
            pool = np.empty((n, k.size))
            for j in range(n):
                np.add(centers[j][ci], step[j][oi], out=pool[j])
            pools[t] = pool
            kept.append(t)
        live = kept
    return [None if pool is None else np.ascontiguousarray(pool.T)
            for pool in pools]


# ---------------------------------------------------------------------------
# Slopes.

def grid_global_slope(f, x, g: Grid) -> float:
    """Exhaustive max of [f(x) - f(u)]+ / ||x - u|| over lattice u != x;
    f maps the rows of a (B, dim) batch to (B,)."""
    x = np.asarray(x, dtype=float).reshape(-1)
    fx = float(f(x[None, :])[0])
    if not np.isfinite(fx):
        raise InvalidParameter("grid_global_slope needs a finite f(x)")
    if g.dim != x.size:
        raise DimensionMismatch("grid dimension must match the point")
    best = 0.0
    for U in g.chunks():
        d = np.linalg.norm(U - x, axis=1)
        keep = d > 1e-12
        if not np.any(keep):
            continue
        vals = f(U[keep])
        num = np.maximum(fx - vals, 0.0)
        pos = num > 0.0
        if np.any(pos):
            best = max(best, float((num[pos] / d[keep][pos]).max()))
    return best


# ---------------------------------------------------------------------------
# Modulus.

def _scale_sweep(K: ConvexSet, diff: np.ndarray, ybar: np.ndarray,
                 delta: float, S: np.ndarray) -> np.ndarray:
    """[d_K(diff_b + s*ybar) - s*delta]+ for each row b and each scale s in
    row b of S, as stacked clamp calls of at most _CHUNK_ROWS (row, scale)
    pairs.  The points are stacked axis-major, as a C-contiguous
    (dim, pairs) array."""
    Z = np.add(diff.T[:, :, None], S * ybar[:, None, None], order="C")
    resid = _clamp_rows(K, Z.reshape(diff.shape[1], -1).T)
    return np.maximum(resid.reshape(S.shape) - delta * S, 0.0)


def _oracle_membership(F: MultiMap, diff: np.ndarray, ybar: np.ndarray,
                       delta: float) -> np.ndarray:
    """min over a dense scale grid of [d_K(diff + s*ybar) - s*delta]+.

    diff rows are f(u) - v.  The grid runs over 0 and 256 geometric scales
    up to hi = 10 (|diff| + 1) / (|ybar| - delta).  A row whose least
    value is positive and sits at the last scale doubles hi and sweeps
    again, at most _SWEEP_DOUBLINGS times.  One zoom round around the
    coarse argmin keeps boundary classification honest at lattice
    tolerances.  Rows run in chunks of _CHUNK_ROWS // 257, each through
    every stage, so the scale grids and their values stay within the row
    budget; each stage evaluates every (row, scale) pair of its rows
    stacked, with the same elementwise arithmetic as a per-scale loop, so
    each row's value is what it would be alone.
    """
    ny = float(np.linalg.norm(ybar))
    base = np.concatenate([[0.0], np.geomspace(1e-6, 1.0, 256)])
    zoom = np.linspace(0, 1, 33)
    out = np.empty(diff.shape[0])
    per = max(1, _CHUNK_ROWS // base.size)
    for a in range(0, diff.shape[0], per):
        d = diff[a:a + per]
        r = np.arange(d.shape[0])
        hi = 10.0 * (np.linalg.norm(d, axis=1) + 1.0) / max(ny - delta, 1e-12)
        S = base[None, :] * hi[:, None]
        vals = _scale_sweep(F.K, d, ybar, delta, S)
        arg = np.argmin(vals, axis=1)
        redo = r
        for _ in range(_SWEEP_DOUBLINGS):
            redo = redo[(arg[redo] == base.size - 1) & (vals[redo, -1] > 0.0)]
            if not redo.size:
                break
            S[redo] *= 2.0
            vals[redo] = _scale_sweep(F.K, d[redo], ybar, delta, S[redo])
            arg[redo] = np.argmin(vals[redo], axis=1)
        best = vals[r, arg]
        lo_s = S[r, np.maximum(arg - 1, 0)]
        hi_s = S[r, np.minimum(arg + 1, S.shape[1] - 1)]
        Z = lo_s[:, None] + (hi_s - lo_s)[:, None] * zoom[None, :]
        out[a:a + per] = np.minimum(
            best, _scale_sweep(F.K, d, ybar, delta, Z).min(axis=1))
    return out


def grid_modulus(F: MultiMap, q: RegularityQuery, g_x: Grid,
                 g_y: Grid) -> float:
    """Exhaustive sup of the regularity ratio over admissible lattice pairs.

    Pairs run over the x and y lattices clipped to the query balls; the
    ratio is evaluated for pairs whose image distance clears a floor,
    which keeps the grid-step error in the ratio bounded.  The floor is
    0.3 * epsilon, scaled down by the cone aperture sin(theta) =
    delta/||ybar|| for directional queries, since membership then admits
    only image distances of that order.  Preimage distances for the
    leading candidates come from locally refined sub-grids.  Capped at
    dimension 3 per space.
    """
    if max(F.dim_in, F.dim_out) > 3:
        raise InvalidParameter("oracle modulus is capped at dimension 3")
    if g_x.dim != F.dim_in or g_y.dim != F.dim_out:
        raise DimensionMismatch("grid dimensions must match the mapping")
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
    if U.shape[0] * V.shape[0] > _MAX_PAIRS:
        raise GridTooLarge(
            f"{U.shape[0]} x {V.shape[0]} lattice pairs above the cap")
    if U.size == 0 or V.size == 0:
        raise NoAdmissibleSamples("the query balls contain no lattice points")

    L = F.lipschitz_bound(g_x.box)
    sup = 0.0
    any_pairs = False
    coarse_flag = False
    per = max(1, _CHUNK_ROWS // U.shape[0])
    for a in range(0, V.shape[0], per):
        Vb = V[a:a + per]
        img = _target_distances(F.K, fU, Vb)
        ok = (img > min_image) & (img < q.epsilon)
        if q.dc is not None and np.any(ok):
            t, j = np.nonzero(ok)
            mv = _oracle_membership(F, fU[j] - Vb[t], q.dc.ybar, q.dc.delta)
            keep = mv <= q.tol_member
            ok = np.zeros_like(ok)
            ok[t[keep], j[keep]] = True
        live = np.flatnonzero(ok.any(axis=1))
        if live.size == 0:
            continue
        any_pairs = True
        US = [U[ok[t]] for t in live]
        pools = _preimage_pool(F, Vb[live], g_x, G, fG, US, L)
        # in V order, as max(sup, nan) depends on which value comes first
        for t, us, pool in zip(live, US, pools):
            if pool is None:
                coarse_flag = True
                sup = np.inf
                continue
            _, pre = _nearest(us, pool)
            sup = max(sup, float((pre / img[t, ok[t]]).max()))
    if not any_pairs:
        raise NoAdmissibleSamples("no admissible lattice pairs at this step")
    if coarse_flag and isinstance(F.f, AffineMap):
        _warn_if_coarse(F, q.x0, q.y0, "an admissible pair found no "
                        "feasible preimage on the x lattice")
    return float(sup)
