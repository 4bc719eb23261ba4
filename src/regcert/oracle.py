"""Brute-force lattice ground truth for small instances.

Recomputes what the fast estimators sample -- preimage distances, descent
slopes, the regularity ratio sup -- by exhaustive scans over rectangular
lattices.  Set distances go through an axis-box clamp (plus the closed-form
ball formula, plus documented cyclic-sweep upper bounds for skew polyhedra)
instead of the projection machinery the estimators use, so agreement is an
independent check rather than a tautology.  Dimension and lattice-size caps
guard against accidental blowup; no tuning beyond them.
"""

from __future__ import annotations

import warnings

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
)
from .multimap import AffineMap, MultiMap
from .regularity import RegularityQuery, robinson_condition
from .slopes import ScalarField

_MAX_AXIS_POINTS = 201
_MAX_LATTICE = 10_000_000
_MAX_PAIRS = 20_000_000
_CHUNK_ROWS = 200_000
_SWEEP_PASSES = 60
_SWEEP_EXTRA = 6000


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

def _box_form(K: ConvexSet):
    """(lo, hi) bounds when K is an axis-aligned box, else None."""
    if isinstance(K, Singleton):
        return K.point.copy(), K.point.copy()
    if isinstance(K, Polyhedron):
        lo = np.full(K.dim, -np.inf)
        hi = np.full(K.dim, np.inf)
        for row, rhs in zip(K.C, K.d):
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
    return None


def clamp_distance_batch(K: ConvexSet, Z: np.ndarray) -> np.ndarray:
    """d(K, z) per row, by clamp composition where the shape allows.

    Exact for boxes (clamp), singletons, balls, and products of those; for
    a polyhedron with skew rows it falls back to cyclic halfspace sweeps
    and returns a certified upper bound (travel plus residual slack).
    """
    Z = np.atleast_2d(np.asarray(Z, dtype=float))
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
        return np.linalg.norm(Z - np.clip(Z, lo, hi), axis=1)
    if not isinstance(K, Polyhedron):
        raise InvalidParameter(f"no oracle distance for {type(K).__name__}")
    sq = np.einsum("ij,ij->i", K.C, K.C)
    live = sq > 1e-300
    C, d, s = K.C[live], K.d[live], sq[live]

    def sweep(W, passes):
        for _ in range(passes):
            for row, rhs, ss in zip(C, d, s):
                viol = np.maximum(W @ row - rhs, 0.0) / ss
                W -= viol[:, None] * row[None, :]
        return W

    def max_violation(W):
        out = np.zeros(W.shape[0])
        for row, rhs, ss in zip(C, d, s):
            np.maximum(out, np.maximum(W @ row - rhs, 0.0) / np.sqrt(ss),
                       out=out)
        return out

    W = sweep(Z.copy(), _SWEEP_PASSES)
    scale = 1.0 + np.linalg.norm(Z, axis=1)
    slack = max_violation(W)
    # thin-angle corners converge slowly; keep sweeping the stalled points
    # until their residual is negligible, else the slack term undercovers
    # the remaining distance and the bound loses its one-sidedness
    stuck = slack > 1e-12 * scale
    budget = _SWEEP_EXTRA
    while np.any(stuck) and budget > 0:
        W[stuck] = sweep(W[stuck], 50)
        budget -= 50
        slack[stuck] = max_violation(W[stuck])
        stuck = slack > 1e-12 * scale
    return np.linalg.norm(Z - W, axis=1) + slack


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


def _scan_feasible(F: MultiMap, y: np.ndarray, x: np.ndarray, g: Grid,
                   tol: float):
    best = np.inf
    best_u = None
    for U in g.chunks():
        resid = clamp_distance_batch(F.K, F.f.eval_batch(U) - y)
        feas = resid <= tol
        if np.any(feas):
            d = np.linalg.norm(U[feas] - x, axis=1)
            i = int(np.argmin(d))
            if d[i] < best:
                best = float(d[i])
                best_u = U[feas][i]
    return best, best_u


def grid_preimage_distance(F: MultiMap, y, x, g: Grid,
                           tol_feas: float = TOL_FEAS,
                           warn_coarse: bool = True) -> float:
    """min ||x - u|| over lattice u with d(K, f(u) - y) <= tol_feas.

    The query point x joins the candidates, so a feasible x gives 0 even
    off-lattice.  Returns +inf when nothing on the lattice is feasible; in
    that case a GridTooCoarse warning fires when the interiority LP at
    (x, y) holds.
    """
    y = as_vector(y, F.dim_out, "y")
    x = as_vector(x, F.dim_in, "x")
    if g.dim != F.dim_in:
        raise DimensionMismatch("grid dimension must match dim_in")
    if float(clamp_distance_batch(F.K, (F.f(x) - y)[None, :])[0]) <= tol_feas:
        return 0.0
    best, _ = _scan_feasible(F, y, x, g, tol_feas)
    if not np.isfinite(best) and warn_coarse:
        _warn_if_coarse(F, x, y, "no feasible lattice point")
    return best


def _lattice_feas_tol(F: MultiMap, g: Grid, tol_feas: float) -> float:
    # a lattice point within step/2 per axis of the preimage manifold moves
    # the residual by at most L * step * sqrt(n) / 2; 0.6 adds slack
    L = F.lipschitz_bound(g.box)
    return max(tol_feas, 0.6 * L * g.step * np.sqrt(g.dim))


def _pairwise_min_dist(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    # min over rows of B of ||a - b||, for each row a
    out = np.full(A.shape[0], np.inf)
    for start in range(0, B.shape[0], 2048):
        blk = B[start:start + 2048]
        d = np.linalg.norm(A[:, None, :] - blk[None, :, :], axis=2)
        np.minimum(out, d.min(axis=1), out=out)
    return out


def _preimage_pool(F: MultiMap, v: np.ndarray, g: Grid, US: np.ndarray,
                   tol_feas: float, rounds: int = 7,
                   max_centers: int = 96) -> np.ndarray | None:
    """Refined lattice approximation of the preimage of v, as a point pool.

    Stage one keeps every lattice point feasible at the step-scaled
    tolerance; each round then halves the spacing and rebuilds the pool
    from local grids around the points currently nearest to the query
    set US, so the feasibility slack shrinks with the spacing and the
    final distances carry neither the coarse-lattice overestimate nor
    the tolerance-slack underestimate.  None when stage one is empty.
    """
    n = g.dim
    tol0 = _lattice_feas_tol(F, g, tol_feas)
    pool = []
    for U in g.chunks():
        resid = clamp_distance_batch(F.K, F.f.eval_batch(U) - v)
        hit = resid <= tol0
        if np.any(hit):
            pool.append(U[hit])
    if not pool:
        return None
    pool = np.concatenate(pool, axis=0)
    spacing = g.spacing.copy()
    L = F.lipschitz_bound(g.box)
    offs = np.stack([m.ravel() for m in np.meshgrid(
        *([np.linspace(-4.0, 4.0, 17)] * n), indexing="ij")], axis=1)
    for _ in range(rounds):
        d = np.linalg.norm(US[:, None, :] - pool[None, :, :], axis=2) \
            if US.shape[0] * pool.shape[0] <= 4_000_000 else None
        if d is None:
            nearest = np.array([
                int(np.argmin(np.linalg.norm(pool - u, axis=1))) for u in US])
        else:
            nearest = np.argmin(d, axis=1)
        centers = pool[np.unique(nearest)[:max_centers]]
        spacing = spacing / 2.0
        tol = max(tol_feas, 0.6 * L * float(spacing.max()) * np.sqrt(n))
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


# ---------------------------------------------------------------------------
# Slopes.

def grid_global_slope(f: ScalarField, x, g: Grid) -> float:
    """Exhaustive max of [f(x) - f(u)]+ / ||x - u|| over lattice u != x."""
    x = np.asarray(x, dtype=float).reshape(-1)
    fx = float(f(x))
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
        vals = f.eval_batch(U[keep])
        num = np.maximum(fx - vals, 0.0)
        pos = num > 0.0
        if np.any(pos):
            best = max(best, float((num[pos] / d[keep][pos]).max()))
    return best


# ---------------------------------------------------------------------------
# Modulus.

def _oracle_membership(F: MultiMap, diff: np.ndarray, ybar: np.ndarray,
                       delta: float) -> np.ndarray:
    """min over a dense scale grid of [d_K(diff + s*ybar) - s*delta]+.

    diff rows are f(u) - v.  One zoom round around the coarse argmin keeps
    boundary classification honest at lattice tolerances.
    """
    ny = float(np.linalg.norm(ybar))
    B = diff.shape[0]
    norms = np.linalg.norm(diff, axis=1)
    hi = 10.0 * (norms + 1.0) / max(ny - delta, 1e-12)
    base = np.concatenate([[0.0], np.geomspace(1e-6, 1.0, 256)])
    S = base[None, :] * hi[:, None]
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


def grid_modulus(F: MultiMap, q: RegularityQuery, g_x: Grid, g_y: Grid,
                 min_image: float | None = None,
                 tol_feas: float = TOL_FEAS) -> float:
    """Exhaustive sup of the regularity ratio over admissible lattice pairs.

    Pairs run over the x and y lattices clipped to the query balls; the
    ratio is evaluated for pairs whose image distance clears min_image,
    which keeps the grid-step error in the ratio bounded.  The default
    floor is 0.3 * epsilon, scaled down by the cone aperture sin(theta) =
    delta/||ybar|| for directional queries, since membership then admits
    only image distances of that order.  Preimage distances for the
    leading candidates come from locally refined sub-grids.  Capped at
    dimension 3 per space.
    """
    if max(F.dim_in, F.dim_out) > 3:
        raise InvalidParameter("oracle modulus is capped at dimension 3")
    if g_x.dim != F.dim_in or g_y.dim != F.dim_out:
        raise DimensionMismatch("grid dimensions must match the mapping")
    if min_image is None:
        min_image = 0.3 * q.epsilon
        if q.dc is not None:
            ny = float(np.linalg.norm(q.dc.ybar))
            if ny > 0.0:
                min_image *= min(q.dc.delta / ny, 1.0)

    U = g_x.lattice()
    U = U[np.linalg.norm(U - q.x0, axis=1) <= q.epsilon]
    V = g_y.lattice()
    V = V[np.linalg.norm(V - q.y0, axis=1) <= q.epsilon]
    if U.shape[0] * V.shape[0] > _MAX_PAIRS:
        raise GridTooLarge(
            f"{U.shape[0]} x {V.shape[0]} lattice pairs above the cap")
    if U.size == 0 or V.size == 0:
        raise NoAdmissibleSamples("the query balls contain no lattice points")

    fU = F.f.eval_batch(U)
    sup = 0.0
    any_pairs = False
    coarse_flag = False
    for i in range(V.shape[0]):
        v = V[i]
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
        pool = _preimage_pool(F, v, g_x, U[idx], tol_feas)
        if pool is None:
            coarse_flag = True
            sup = np.inf
            continue
        pre = _pairwise_min_dist(U[idx], pool)
        sup = max(sup, float((pre / img[idx]).max()))
    if not any_pairs:
        raise NoAdmissibleSamples("no admissible lattice pairs at this step")
    if coarse_flag and isinstance(F.f, AffineMap):
        _warn_if_coarse(F, q.x0, q.y0, "an admissible pair found no "
                        "feasible preimage on the x lattice")
    return float(sup)
