"""Set-valued maps of the form F(x) = f(x) - K and their basic metrics.

f is a smooth single-valued map (affine or polynomial with analytic
jacobians), K a closed convex set from the geometry module.  The residual
identity d(y, F(x)) = d(K, f(x) - y) turns image distances into set
distances.  Preimage distances are exact for affine f with a
polyhedrally-representable K (projection onto the pulled-back inequality
system).  Otherwise they come from a multi-start damped Gauss-Newton search
and are upper bounds, flagged by exact_preimage=False.  The search runs all
rows and all starts of a batch as one stack, and each row's arithmetic
depends only on that row, so a row gives the same value alone as in any
batch.

Membership in the conic tube F(x) + cone(B(ybar, delta)) is computed twice,
by alternating minimization over (z, k) and by a one-dimensional search over
the cone scale, and marked certified when the two agree.  Both routes are
row-independent: their products go through geometry.row_matmul, so a row
gets the same value and flag alone as in any batch.

A caller that needs only the decision value <= tol (the admissibility
filter) uses _member_mask, which rules most rows out with a lower bound
before either route runs.  With c = f(x) - y, the membership value is the
minimum over lam >= 0 of [phi(lam)]+, phi(lam) = d(K, c + lam ybar) -
lam delta.  phi is convex (a convex distance along a line minus a linear
term; Rockafellar, Convex Analysis, sec. 24), so outside an interval of
the lam grid it lies above the secant line through that interval's ends.
On each grid interval phi is therefore above the larger of the secants of
its two neighbours, and the least value of that max (at the lines' kink or
an interval end) bounds phi from below there.  Past the last grid point
phi stays above the last secant, which gives a bound only where that
secant does not fall: a K that holds the ray along ybar makes phi fall
without end.  The grid is 0 and 8 log-spaced points up to the scale cap
_lam_max, so a secant is extrapolated at most q = 10^(6/7) ~ 7.2 times its
own width, and an evaluation error e moves the bound by at most
(1 + 2q) e ~ 15.4 e.  The screen rejects a row only when its bound exceeds
tol by the margin 1e-6 (1 + |c| + lam_max (|ybar| + delta)), where the
bracket bounds the size of every point the grid evaluates.  So it covers
any e up to 6e-8 times that size, on both routes of a polyhedral
projection: a point of the exact active-set route meets its KKT conditions
up to rounding, and the Dykstra fallback stops within DYKSTRA_TOL = 1e-10,
600 times below the budget.  Both routes of membership_values are then
above tol too, so the decision is the same bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import rng
from .errors import DimensionMismatch
from .geometry import (
    TOL_FEAS,
    TOL_MEMBER,
    ConvexSet,
    DirectionalCone,
    Polyhedron,
    ProductSet,
    Singleton,
    as_vector,
    # unused here; perfbench's test_restore_puts_back_every_patched_name
    # checks that tracing patches this name in multimap too
    dykstra_halfspaces,  # noqa: F401
    project_halfspaces,
    row_matmul,
)

_MEMBERSHIP_GRID = 64
_ZOOM_POINTS = 17
_ZOOM_ROUNDS = 4
_ALTERNATION_CAP = 120
_SCREEN_GRID = np.concatenate([[0.0], np.geomspace(1e-6, 1.0, 8)])
_SCREEN_MARGIN = 1e-6


# ---------------------------------------------------------------------------
# Smooth single-valued maps.

class SmoothMap:
    dim_in: int
    dim_out: int

    def eval_batch(self, X: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def jacobian_batch(self, X: np.ndarray) -> np.ndarray:
        """Jacobians at the rows of X, shape (B, dim_out, dim_in)."""
        raise NotImplementedError

    def __call__(self, x) -> np.ndarray:
        x = as_vector(x, self.dim_in, "x")
        return self.eval_batch(x[None, :])[0]

    def jacobian(self, x) -> np.ndarray:
        x = as_vector(x, self.dim_in, "x")
        return self.jacobian_batch(x[None, :])[0]


class AffineMap(SmoothMap):
    """x -> A x + b."""

    def __init__(self, A, b):
        A = np.asarray(A, dtype=float)
        if A.ndim != 2:
            raise DimensionMismatch("A must be a matrix")
        b = as_vector(b, A.shape[0], "b")
        if not np.all(np.isfinite(A)):
            raise ValueError("A must be finite")
        self.A = A
        self.b = b

    def __repr__(self):
        return f"AffineMap({self.dim_in}->{self.dim_out})"

    @property
    def dim_in(self):
        return self.A.shape[1]

    @property
    def dim_out(self):
        return self.A.shape[0]

    def eval_batch(self, X):
        return row_matmul(X, self.A.T) + self.b[None, :]

    def jacobian_batch(self, X):
        X = np.asarray(X, dtype=float)
        return np.broadcast_to(self.A, (X.shape[0],) + self.A.shape).copy()

    # each class owns its jacobian entry, so it can be wrapped per class
    jacobian = SmoothMap.jacobian


class PolynomialMap(SmoothMap):
    """Each output is a finite sum of monomial terms (coeff, exponents)."""

    def __init__(self, dim_in, outputs):
        self._dim_in = int(dim_in)
        if self._dim_in < 1:
            raise ValueError("dim_in must be positive")
        clean = []
        for terms in outputs:
            row = []
            for coeff, exps in terms:
                exps = tuple(int(e) for e in exps)
                if len(exps) != self._dim_in:
                    raise DimensionMismatch(
                        "exponent tuple length must equal dim_in"
                    )
                if any(e < 0 for e in exps):
                    raise ValueError("exponents must be nonnegative")
                coeff = float(coeff)
                if not np.isfinite(coeff):
                    raise ValueError("coefficients must be finite")
                row.append((coeff, exps))
            clean.append(tuple(row))
        if not clean:
            raise ValueError("need at least one output")
        self.outputs = tuple(clean)
        # derivative table: per term and variable j with e_j > 0, the term
        # (output, j, c e_j, exponents with e_j lowered by one)
        self._dterms = [(i, j, c * e[j], e[:j] + (e[j] - 1,) + e[j + 1:])
                        for i, row in enumerate(clean) for c, e in row
                        for j in range(self._dim_in) if e[j]]

    def __repr__(self):
        return f"PolynomialMap({self.dim_in}->{self.dim_out})"

    @property
    def dim_in(self):
        return self._dim_in

    @property
    def dim_out(self):
        return len(self.outputs)

    def eval_batch(self, X):
        X = np.asarray(X, dtype=float)
        out = np.zeros((X.shape[0], self.dim_out))
        for i, terms in enumerate(self.outputs):
            for c, e in terms:
                out[:, i] += _monomial(X, c, e)
        return out

    def jacobian_batch(self, X):
        X = np.asarray(X, dtype=float)
        J = np.zeros((X.shape[0], self.dim_out, self.dim_in))
        for i, j, c, e in self._dterms:
            J[:, i, j] += _monomial(X, c, e)
        return J

    jacobian = SmoothMap.jacobian


def _monomial(X: np.ndarray, coef: float, exps) -> np.ndarray:
    """coef * prod_j x_j^e_j at the rows of X.

    Powers are repeated products, so each row gets the same elementwise
    arithmetic whatever the batch holds.
    """
    if not any(exps):
        return np.full(X.shape[0], coef)
    out = coef
    for j, e in enumerate(exps):
        if e:
            x = X[:, j]
            power = x
            for _ in range(e - 1):
                power = power * x
            out = out * power
    return out


# ---------------------------------------------------------------------------
# Polyhedral representation of K, when one exists.

def as_polyhedron(K: ConvexSet) -> Polyhedron | None:
    """Inequality representation of K, or None for a genuinely round set."""
    if isinstance(K, Polyhedron):
        return K
    if isinstance(K, Singleton):
        n = K.dim
        eye = np.eye(n)
        return Polyhedron(np.vstack([eye, -eye]),
                          np.concatenate([K.point, -K.point]))
    if isinstance(K, ProductSet):
        parts = [as_polyhedron(f) for f in K.factors]
        if any(p is None for p in parts):
            return None
        dims = [f.dim for f in K.factors]
        total = sum(dims)
        rows = []
        offs = []
        at = 0
        for p, dm in zip(parts, dims):
            block = np.zeros((p.n_rows, total))
            block[:, at:at + dm] = p.C
            rows.append(block)
            offs.append(p.d)
            at += dm
        if not any(r.shape[0] for r in rows):
            return Polyhedron(np.zeros((0, total)), np.zeros(0))
        return Polyhedron(np.vstack(rows), np.concatenate(offs))
    return None


# ---------------------------------------------------------------------------
# The multimap itself and its search region.

@dataclass
class MultiMap:
    """F(x) = f(x) - K."""

    f: SmoothMap
    K: ConvexSet

    def __post_init__(self):
        if self.f.dim_out != self.K.dim:
            raise DimensionMismatch(
                f"f maps into R^{self.f.dim_out} but K lives in R^{self.K.dim}"
            )

    @property
    def dim_in(self):
        return self.f.dim_in

    @property
    def dim_out(self):
        return self.f.dim_out

    @property
    def exact_preimage(self) -> bool:
        """True when preimage distances follow the exact affine route."""
        return (isinstance(self.f, AffineMap)
                and as_polyhedron(self.K) is not None)

    def lipschitz_bound(self, box: np.ndarray) -> float:
        """Upper estimate of the jacobian spectral norm over a box."""
        if isinstance(self.f, AffineMap):
            return float(np.linalg.norm(self.f.A, 2))
        box = np.asarray(box, dtype=float)
        axes = [np.linspace(lo, hi, 5) for lo, hi in box]
        mesh = np.meshgrid(*axes, indexing="ij")
        pts = np.stack([m.ravel() for m in mesh], axis=1)
        if pts.shape[0] > 4096:
            pts = pts[:: pts.shape[0] // 4096 + 1]
        norms = np.linalg.norm(self.f.jacobian_batch(pts), 2, axis=(1, 2))
        return 1.5 * float(norms.max(initial=0.0)) + 1e-9


@dataclass
class SearchRegion:
    """Box-bounded sampling region with an explicit seed and budget."""

    box: np.ndarray
    grid_resolution: int = 9
    sample_budget: int = 2000
    seed: int = 0

    def __post_init__(self):
        box = np.asarray(self.box, dtype=float)
        if box.ndim != 2 or box.shape[1] != 2:
            raise DimensionMismatch("box must have shape (dim, 2)")
        if not np.all(np.isfinite(box)):
            raise ValueError("box bounds must be finite")
        if not np.all(box[:, 0] < box[:, 1]):
            raise ValueError("box lower bounds must be below upper bounds")
        self.box = box
        self.grid_resolution = int(self.grid_resolution)
        self.sample_budget = int(self.sample_budget)
        self.seed = int(self.seed)
        if self.grid_resolution < 2:
            raise ValueError("grid_resolution must be at least 2")
        if self.sample_budget < 1:
            raise ValueError("sample_budget must be positive")
        if not 0 <= self.seed < 2 ** 64:
            raise ValueError("seed must fit in 64 bits")

    @property
    def dim(self):
        return self.box.shape[0]

    def uniform_block(self, label: str, block_index: int) -> np.ndarray:
        gen = rng.stream(self.seed, label, block_index)
        width = self.box[:, 1] - self.box[:, 0]
        return (self.box[:, 0][None, :]
                + gen.random((rng.BLOCK, self.dim)) * width)

    def uniform_samples(self, label: str, count: int) -> np.ndarray:
        blocks = [
            self.uniform_block(label, bi)[: rng.block_size(count, bi)]
            for bi in range(rng.block_count(count))
        ]
        return np.vstack(blocks)

    def grid_nodes(self, cap: int = 200_000) -> np.ndarray:
        return _grid_nodes(self.box[None], self.grid_resolution, cap)[0]


def _grid_nodes(boxes: np.ndarray, resolution: int,
                cap: int) -> np.ndarray:
    """Lattice nodes of each box in a (R, n, 2) stack, shape (R, N, n).

    The resolution drops until at most cap nodes remain (or it reaches 2);
    nodes run in C order over the axes, the first axis slowest.
    """
    n = boxes.shape[1]
    res = resolution
    while res ** n > cap and res > 2:
        res -= 1
    axes = np.linspace(boxes[..., 0], boxes[..., 1], res, axis=-1)
    idx = np.indices((res,) * n).reshape(n, -1).T   # (N, n)
    return axes[:, np.arange(n), idx]


def default_region(center, halfwidth: float, sample_budget: int = 2000,
                   seed: int = 0, grid_resolution: int = 9) -> SearchRegion:
    center = as_vector(center, name="center")
    box = np.stack([center - halfwidth, center + halfwidth], axis=1)
    return SearchRegion(box, grid_resolution, sample_budget, seed)


# ---------------------------------------------------------------------------
# Image distance.

def image_distance_batch(F: MultiMap, X: np.ndarray,
                         Y: np.ndarray) -> np.ndarray:
    X = np.asarray(X, dtype=float)
    Y = np.asarray(Y, dtype=float)
    return F.K.distance_batch(F.f.eval_batch(X) - Y)


def image_distance(F: MultiMap, x, y) -> float:
    """d(y, F(x)) = d(K, f(x) - y)."""
    x = as_vector(x, F.dim_in, "x")
    y = as_vector(y, F.dim_out, "y")
    return float(image_distance_batch(F, x[None, :], y[None, :])[0])


# ---------------------------------------------------------------------------
# Preimage distance.

def preimage_distance_batch(F: MultiMap, Y: np.ndarray, X: np.ndarray,
                            region: SearchRegion | None = None) -> np.ndarray:
    """d(x_s, F^{-1}(y_s)) for paired rows of X and Y; +inf when the
    preimage is empty (or, off the exact route, none is found).

    Exact (projection onto the pulled-back polyhedron) for affine f with
    polyhedral K.  Otherwise a batched multi-start Gauss-Newton upper bound
    (see _gauss_newton_preimage), searched in region's box, or with
    region=None in each row's own box x_s +- 2.  MultiMap.exact_preimage
    tells which route applies.
    """
    X = np.asarray(X, dtype=float)
    Y = np.asarray(Y, dtype=float)
    if not F.exact_preimage:
        return _gauss_newton_preimage(F, Y, X, region)
    Kp = as_polyhedron(F.K)
    G = Kp.C @ F.f.A
    # rhs_s = d - C (b - y_s)
    rhs = Kp.d[None, :] - row_matmul(F.f.b[None, :] - Y, Kp.C.T)
    norms = np.linalg.norm(G, axis=1)
    zero = norms <= 1e-12
    out = np.zeros(X.shape[0])
    # a zero pulled-back row states a pure condition on y: violated -> empty
    if np.any(zero):
        infeasible = np.any(rhs[:, zero] < -TOL_FEAS, axis=1)
        out[infeasible] = np.inf
    else:
        infeasible = np.zeros(X.shape[0], dtype=bool)
    live = ~infeasible
    Gnz = G[~zero]
    if Gnz.shape[0] == 0 or not np.any(live):
        return out
    U, resid, _ = project_halfspaces(Gnz, rhs[live][:, ~zero], X[live])
    dist = np.linalg.norm(X[live] - U, axis=1)
    bad = resid > 1e-7
    if np.any(bad):
        # the Dykstra fallback stalled: decide emptiness per sample by LP
        idx = np.where(bad)[0]
        for i in idx:
            poly = Polyhedron(Gnz, rhs[live][i, ~zero])
            if not poly.is_feasible():
                dist[i] = np.inf
    out[live] = dist
    return out


def preimage_distance(F: MultiMap, y, x,
                      region: SearchRegion | None = None) -> float:
    """d(x, F^{-1}(y)); +inf when the preimage is empty (or none is found).

    The one-row case of preimage_distance_batch: exact for affine f with
    polyhedral K, otherwise the batched, row-independent Gauss-Newton upper
    bound.
    """
    x = as_vector(x, F.dim_in, "x")
    y = as_vector(y, F.dim_out, "y")
    return float(preimage_distance_batch(F, y[None, :], x[None, :],
                                         region)[0])


_GN_TOL = 1e-8
_GN_ITERS = 60
_GN_HALVINGS = 25
_GN_MAX_CORNERS = 64
_GN_GRID_CAP = 4096
_GN_PULL = np.geomspace(1.0, 0.02, 12)


def _gauss_newton_preimage(F: MultiMap, Y: np.ndarray, X: np.ndarray,
                           region: SearchRegion | None) -> np.ndarray:
    """Multi-start Gauss-Newton upper bound on d(x_s, F^{-1}(y_s)).

    Each row starts from x_s, its box center and at most 64 box corners.
    A row none of whose starts reaches f(u) - y_s in K starts once more
    from the grid node (cap 4096) of least residual.  The nearest solution
    found is then pulled toward x_s in 12 rounds along the segment, each
    round starting from the incumbent the last one left.  Rows share no
    arithmetic, so each value is the same alone as in any batch.
    """
    B, n = X.shape
    if region is None:
        # default_region(x_s, 2.0) for each row
        boxes = np.stack([X - 2.0, X + 2.0], axis=-1)
        resolution = 9
    else:
        boxes = np.broadcast_to(region.box, (B, n, 2))
        resolution = region.grid_resolution
    width = boxes[..., 1] - boxes[..., 0]
    lo, hi = boxes[..., 0] - width, boxes[..., 1] + width

    bits = np.indices((2,) * n).reshape(n, -1).T[:_GN_MAX_CORNERS]
    corners = boxes[:, np.arange(n), bits]                 # (B, C, n)
    starts = np.concatenate(
        [X[:, None, :], boxes.mean(axis=-1)[:, None, :], corners], axis=1)
    S = starts.shape[1]
    U, ok = _damped_gauss_newton(F, np.repeat(Y, S, axis=0),
                                 starts.reshape(-1, n),
                                 np.repeat(lo, S, axis=0),
                                 np.repeat(hi, S, axis=0))
    U, ok = U.reshape(B, S, n), ok.reshape(B, S)
    dists = np.where(ok, np.linalg.norm(X[:, None, :] - U, axis=-1), np.inf)
    first = np.argmin(dists, axis=1)
    rows = np.arange(B)
    u_best = U[rows, first]
    d_best = dists[rows, first]

    lost = np.where(~ok.any(axis=1))[0]
    if lost.size:
        u0 = _grid_starts(F, Y[lost], boxes[lost], resolution,
                          shared=region is not None)
        u, found = _damped_gauss_newton(F, Y[lost], u0, lo[lost], hi[lost])
        took = lost[found]
        u_best[took] = u[found]
        d_best[took] = np.linalg.norm(X[took] - u[found], axis=-1)

    # pull the incumbent toward x along the segment; keeps the bound honest
    live = np.where(np.isfinite(d_best))[0]
    for t in _GN_PULL:
        x = X[live]
        u, found = _damped_gauss_newton(F, Y[live],
                                        x + t * (u_best[live] - x),
                                        lo[live], hi[live])
        dd = np.linalg.norm(x - u, axis=-1)
        better = found & (dd < d_best[live])
        u_best[live[better]] = u[better]
        d_best[live[better]] = dd[better]
    return d_best


def _grid_starts(F: MultiMap, Y: np.ndarray, boxes: np.ndarray,
                 resolution: int, shared: bool) -> np.ndarray:
    """Per row, the node of least d(f(u) - y, K) on its box grid (cap 4096).

    A shared box is gridded and mapped once.  Rows go a few at a time, so
    at most max(N, 4096) grid nodes are live however many rows are lost.
    """
    B, n = Y.shape[0], boxes.shape[1]
    nodes = _grid_nodes(boxes[:1], resolution, _GN_GRID_CAP)   # (1, N, n)
    N = nodes.shape[1]
    if shared:
        img = F.f.eval_batch(nodes[0])[None]
    chunk = max(1, _GN_GRID_CAP // N)
    out = np.empty((B, n))
    for a in range(0, B, chunk):
        rows = np.arange(a, min(a + chunk, B))
        if not shared:
            nodes = _grid_nodes(boxes[rows], resolution, _GN_GRID_CAP)
            img = F.f.eval_batch(nodes.reshape(-1, n))
            img = img.reshape(rows.size, N, -1)
        r = (img - Y[rows][:, None, :]).reshape(rows.size * N, -1)
        pick = np.argmin(F.K.distance_batch(r).reshape(rows.size, N), axis=1)
        at = np.zeros(rows.size, int) if shared else np.arange(rows.size)
        out[rows] = nodes[at, pick]
    return out


def _residual(F: MultiMap, U: np.ndarray, Y: np.ndarray):
    R = F.f.eval_batch(U) - Y
    return R - F.K.project_batch(R)


def _damped_gauss_newton(F: MultiMap, Y: np.ndarray, U0: np.ndarray,
                         lo: np.ndarray, hi: np.ndarray):
    """Damped Gauss-Newton toward f(u) - y in K, one row per start.

    Each row is clipped to its own [lo, hi], takes the least-squares step of
    its jacobian (the pseudoinverse with lstsq's cutoff) and backtracks by
    halving until the residual norm falls below rn (1 - 1e-4 t).  A row
    retires when it converges or no trial decreases, as in
    dykstra_halfspaces.  Returns (U, converged).
    """
    U = np.clip(U0, lo, hi)
    R = _residual(F, U, Y)
    rn = np.linalg.norm(R, axis=-1)
    rcond = np.finfo(float).eps * max(F.dim_in, F.dim_out)
    active = np.arange(U.shape[0])
    for _ in range(_GN_ITERS):
        active = active[rn[active] > _GN_TOL]
        if active.size == 0:
            break
        J = F.f.jacobian_batch(U[active])
        step = -(np.linalg.pinv(J, rcond=rcond)
                 @ R[active][:, :, None])[..., 0]
        improved = np.zeros(active.size, dtype=bool)
        trying = np.arange(active.size)
        t = 1.0
        for _ in range(_GN_HALVINGS):
            at = active[trying]
            Un = np.clip(U[at] + t * step[trying], lo[at], hi[at])
            Rn = _residual(F, Un, Y[at])
            rnt = np.linalg.norm(Rn, axis=-1)
            dec = rnt < rn[at] * (1.0 - 1e-4 * t)
            U[at[dec]], R[at[dec]], rn[at[dec]] = Un[dec], Rn[dec], rnt[dec]
            improved[trying[dec]] = True
            trying = trying[~dec]
            if trying.size == 0:
                break
            t *= 0.5
        active = active[improved]
    return U, rn <= _GN_TOL


# ---------------------------------------------------------------------------
# Directional membership: is y in F(x) + cone(B(ybar, delta))?

def _scale_search(K: ConvexSet, Cres: np.ndarray,
                  dc: DirectionalCone) -> np.ndarray:
    """min over lam >= 0 of [d(K, c + lam ybar) - lam delta]+, per row of Cres.

    Exact up to the 1d search: shrinking the lam-ball around lam*ybar turns
    the cone minimization into this scalar problem.  A log-spaced grid
    brackets the minimizer and batched zoom rounds refine the bracket.
    """
    ybar, delta = dc.ybar, dc.delta
    B, m = Cres.shape

    def h(L):
        pts = Cres[:, None, :] + L[..., None] * ybar[None, None, :]
        d = K.distance_batch(pts.reshape(-1, m)).reshape(L.shape)
        return np.maximum(d - L * delta, 0.0)

    lam_hi = dc._lam_max(np.linalg.norm(Cres, axis=1))
    grid = np.concatenate([[0.0], np.geomspace(1e-6, 1.0, _MEMBERSHIP_GRID - 1)])
    lam = lam_hi[:, None] * grid[None, :]
    vals = h(lam)
    rows = np.arange(B)
    a = np.argmin(vals, axis=1)
    best = vals[rows, a]
    lo = lam[rows, np.maximum(a - 1, 0)]
    hi = lam[rows, np.minimum(a + 1, grid.size - 1)]
    t = np.linspace(0.0, 1.0, _ZOOM_POINTS)
    for _ in range(_ZOOM_ROUNDS):
        L = lo[:, None] + (hi - lo)[:, None] * t[None, :]
        v = h(L)
        a = np.argmin(v, axis=1)
        best = np.minimum(best, v[rows, a])
        lo, hi = (L[rows, np.maximum(a - 1, 0)],
                  L[rows, np.minimum(a + 1, _ZOOM_POINTS - 1)])
    return best


def membership_values(F: MultiMap, X: np.ndarray, Y: np.ndarray,
                      dc: DirectionalCone, quick: bool = False):
    """min over z in the cone of d(K, f(x) - y + z), batched.

    Returns (values, certified): the value is the smaller of the alternating
    estimate and the scale-search estimate, certified where they agree.
    quick=True keeps only the scale search (used by inner probing loops
    where the certification flag is never consumed).  Callers that need
    only the decision value <= tol use _member_mask, which gives the same
    bits.
    """
    X = np.asarray(X, dtype=float)
    Y = np.asarray(Y, dtype=float)
    Cres = F.f.eval_batch(X) - Y
    B = Cres.shape[0]
    if dc.whole_space:
        feasible = True
        if isinstance(F.K, Polyhedron):
            feasible = F.K.is_feasible()
        vals = np.zeros(B) if feasible else np.full(B, np.inf)
        return vals, np.ones(B, dtype=bool)

    v_grid = _scale_search(F.K, Cres, dc)
    if quick:
        return v_grid, np.zeros(B, dtype=bool)

    # route 2: alternate the K-step and the cone-step; both steps keep the
    # running residual an upper bound, so any cap is sound.  Points whose
    # residual stalls are frozen to keep per-point results independent of
    # the batch composition.
    Z = np.zeros_like(Cres)
    resid = np.full(B, np.inf)
    active = np.ones(B, dtype=bool)
    for _ in range(_ALTERNATION_CAP):
        idx = np.where(active)[0]
        if idx.size == 0:
            break
        Kpts = F.K.project_batch(Cres[idx] + Z[idx])
        Za = dc.project_batch(Kpts - Cres[idx])
        nr = np.linalg.norm(Cres[idx] + Za - Kpts, axis=1)
        Z[idx] = Za
        stalled = np.abs(nr - resid[idx]) < 1e-12
        resid[idx] = nr
        active[idx[stalled]] = False
    v_alt = resid

    vals = np.minimum(v_grid, v_alt)
    certified = np.abs(v_grid - v_alt) <= 1e-6 * (1.0 + vals)
    return vals, certified


def _screen_bound(K: ConvexSet, Cres: np.ndarray, dc: DirectionalCone):
    """Certified lower bound on min over lam >= 0 of
    phi(lam) = d(K, c + lam ybar) - lam delta, per row c of Cres.

    Returns (lb, margin): lb is -inf where the bound does not reach past
    the grid, and margin bounds how far evaluation error can lift lb above
    the true minimum.  See the module docstring for the argument.
    """
    ybar, delta = dc.ybar, dc.delta
    m = Cres.shape[1]
    c_norm = np.linalg.norm(Cres, axis=1)
    lam_hi = dc._lam_max(c_norm)
    lam = lam_hi[:, None] * _SCREEN_GRID[None, :]
    pts = Cres[:, None, :] + lam[..., None] * ybar[None, None, :]
    phi = K.distance_batch(pts.reshape(-1, m)).reshape(lam.shape) - lam * delta
    margin = _SCREEN_MARGIN * (1.0 + c_norm
                               + lam_hi * (np.linalg.norm(ybar) + delta))
    gap = np.diff(lam, axis=1)                       # (B, 8) interval widths
    slope = np.diff(phi, axis=1) / gap               # secant slopes
    # on interval [l_i, l_i+1], with u = lam - l_i, phi lies above the
    # secant of the interval to its left, a + b u, and of the one to its
    # right; an end interval has one neighbour, which stands for both
    a_left, b_left = phi[:, 1:-1], slope[:, :-1]     # intervals 1..7
    a_right = phi[:, 1:-1] - slope[:, 1:] * gap[:, :-1]  # intervals 0..6
    b_right = slope[:, 1:]
    a_l = np.concatenate([a_right[:, :1], a_left], axis=1)
    b_l = np.concatenate([b_right[:, :1], b_left], axis=1)
    a_r = np.concatenate([a_right, a_left[:, -1:]], axis=1)
    b_r = np.concatenate([b_right, b_left[:, -1:]], axis=1)
    # the max of two lines is least at an end of the interval or where
    # they cross; the clipped crossing is in the interval, so the least of
    # the three is the exact minimum of the max
    with np.errstate(divide="ignore", invalid="ignore"):
        cross = (a_l - a_r) / (b_r - b_l)
    cross = np.clip(np.nan_to_num(cross, nan=0.0), 0.0, gap)
    lb = np.full(a_l.shape, np.inf)
    for u in (np.zeros_like(gap), gap, cross):
        lb = np.minimum(lb, np.maximum(a_l + b_l * u, a_r + b_r * u))
    # past lam_hi phi stays above the last secant, so above phi(lam_hi)
    # where that secant rises; it must rise by more than twice the largest
    # evaluation error the margin allows for (margin / 15.4)
    rising = phi[:, -1] - phi[:, -2] >= margin / 4.0
    tail = np.where(rising, phi[:, -1], -np.inf)
    return np.minimum(lb.min(axis=1), tail), margin


def _member_mask(F: MultiMap, X: np.ndarray, Y: np.ndarray,
                 dc: DirectionalCone, tol: float) -> np.ndarray:
    """membership_values(F, X, Y, dc)[0] <= tol, bit for bit, with each
    row decided as soon as its decision is certain.

    1. Rows whose screen bound (_screen_bound) exceeds tol + margin are
       rejected: both routes of membership_values stay above tol there.
    2. The scale search runs on the rest, and v_grid <= tol admits a row,
       because membership_values takes the smaller of the two routes.
    3. Only rows still above tol run membership_values, whose alternating
       route then decides them.

    Every route is row-independent, so a row gets the same value in a
    subset as in the full batch.
    """
    X = np.asarray(X, dtype=float)
    Y = np.asarray(Y, dtype=float)
    if dc.whole_space:
        return membership_values(F, X, Y, dc)[0] <= tol
    Cres = F.f.eval_batch(X) - Y
    member = np.zeros(Cres.shape[0], dtype=bool)
    lb, margin = _screen_bound(F.K, Cres, dc)
    idx = np.where(lb <= tol + margin)[0]
    if idx.size == 0:
        return member
    v_grid = _scale_search(F.K, Cres[idx], dc)
    member[idx] = v_grid <= tol
    rest = idx[v_grid > tol]
    if rest.size:
        member[rest] = membership_values(F, X[rest], Y[rest], dc)[0] <= tol
    return member


# ---------------------------------------------------------------------------
# The lower envelope of x -> d(y, F(x)) relative to the membership tube.

@lru_cache(maxsize=16)
def _probe_directions(dim: int) -> np.ndarray:
    gen = rng.stream(0x5EED, "envelope-probe", dim)
    return rng.sphere_points(gen, 32, dim)


def envelope_batch(F: MultiMap, dc: DirectionalCone | None, X: np.ndarray,
                   y, tol: float = TOL_MEMBER,
                   lipschitz: float | None = None,
                   quick: bool = False) -> np.ndarray:
    """Envelope values at the rows of X for a fixed y.

    Membership failures within probing reach of the tube boundary get a
    closure probe: 32 directions at radii tol * 2^-k, k = 0..4.  Points whose
    membership residual already exceeds what a tol-step could close are
    rejected without probing.
    """
    X = np.asarray(X, dtype=float)
    y = as_vector(y, F.dim_out, "y")
    Yt = np.broadcast_to(y, (X.shape[0], y.size))
    if dc is None:
        return image_distance_batch(F, X, Yt)
    vals, _ = membership_values(F, X, Yt, dc, quick=quick)
    member = vals <= tol
    out = np.full(X.shape[0], np.inf)
    if np.any(member):
        out[member] = image_distance_batch(F, X[member], Yt[member])
    if lipschitz is None:
        lipschitz = F.lipschitz_bound(
            np.stack([X.min(axis=0) - tol, X.max(axis=0) + tol], axis=1)
        )
    shell = (~member) & (vals <= tol * (1.0 + lipschitz) * 1.001)
    if np.any(shell):
        dirs = _probe_directions(F.dim_in)
        radii = tol * 0.5 ** np.arange(5)
        offs = (dirs[None, :, :] * radii[:, None, None]).reshape(-1, F.dim_in)
        idx = np.where(shell)[0]
        P = (X[idx][:, None, :] + offs[None, :, :]).reshape(-1, F.dim_in)
        Yp = np.broadcast_to(y, (P.shape[0], y.size))
        pv, _ = membership_values(F, P, Yp, dc, quick=quick)
        hit = np.any(pv.reshape(idx.size, -1) <= tol, axis=1)
        if np.any(hit):
            took = idx[hit]
            out[took] = image_distance_batch(F, X[took], Yt[took])
    return out

