"""Set-valued maps of the form F(x) = f(x) - K and their basic metrics.

f is a smooth single-valued map (affine or polynomial with analytic
jacobians), K a closed convex set from the geometry module.  The residual
identity d(y, F(x)) = d(K, f(x) - y) turns image distances into set
distances.  Preimage distances are exact for affine f with a
polyhedrally-representable K (projection onto the pulled-back inequality
system); for polynomial f they fall back to a multi-start damped
Gauss-Newton search and are upper bounds, flagged by exact_preimage=False.

Membership in the conic tube F(x) + cone(B(ybar, delta)) is computed twice,
by alternating minimization over (z, k) and by a one-dimensional search over
the cone scale, and marked certified when the two agree.
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
    dykstra_halfspaces,
)

_MEMBERSHIP_GRID = 64
_ZOOM_POINTS = 17
_ZOOM_ROUNDS = 4
_ALTERNATION_CAP = 120


# ---------------------------------------------------------------------------
# Smooth single-valued maps.

class SmoothMap:
    dim_in: int
    dim_out: int

    def eval_batch(self, X: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def __call__(self, x) -> np.ndarray:
        x = as_vector(x, self.dim_in, "x")
        return self.eval_batch(x[None, :])[0]

    def jacobian(self, x) -> np.ndarray:
        raise NotImplementedError


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
        return X @ self.A.T + self.b[None, :]

    def jacobian(self, x):
        return self.A.copy()


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
            acc = out[:, i]
            for coeff, exps in terms:
                term = np.full(X.shape[0], coeff)
                for j, e in enumerate(exps):
                    if e:
                        term = term * X[:, j] ** e
                acc += term
        return out

    def jacobian(self, x):
        x = as_vector(x, self.dim_in, "x")
        J = np.zeros((self.dim_out, self.dim_in))
        for i, terms in enumerate(self.outputs):
            for coeff, exps in terms:
                for j, e in enumerate(exps):
                    if e == 0:
                        continue
                    val = coeff * e * x[j] ** (e - 1)
                    for jj, ee in enumerate(exps):
                        if jj != j and ee:
                            val *= x[jj] ** ee
                    J[i, j] += val
        return J


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
        best = 0.0
        for p in pts:
            best = max(best, float(np.linalg.norm(self.f.jacobian(p), 2)))
        return 1.5 * best + 1e-9


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

    def uniform_block(self, label: str, block_index: int,
                      count: int = rng.BLOCK) -> np.ndarray:
        gen = rng.stream(self.seed, label, block_index)
        width = self.box[:, 1] - self.box[:, 0]
        return self.box[:, 0][None, :] + gen.random((count, self.dim)) * width

    def uniform_samples(self, label: str, count: int) -> np.ndarray:
        blocks = [
            self.uniform_block(label, bi)[: rng.block_size(count, bi)]
            for bi in range(rng.block_count(count))
        ]
        return np.vstack(blocks)

    def grid_nodes(self, cap: int = 200_000) -> np.ndarray:
        n_nodes = self.grid_resolution ** self.dim
        res = self.grid_resolution
        while n_nodes > cap and res > 2:
            res -= 1
            n_nodes = res ** self.dim
        axes = [np.linspace(lo, hi, res) for lo, hi in self.box]
        mesh = np.meshgrid(*axes, indexing="ij")
        return np.stack([m.ravel() for m in mesh], axis=1)


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
    """d(x_s, F^{-1}(y_s)) for paired rows of X and Y."""
    X = np.asarray(X, dtype=float)
    Y = np.asarray(Y, dtype=float)
    if not F.exact_preimage:
        return np.array([
            preimage_distance(F, y, x, region) for x, y in zip(X, Y)
        ])
    Kp = as_polyhedron(F.K)
    G = Kp.C @ F.f.A
    # rhs_s = d - C (b - y_s)
    rhs = Kp.d[None, :] - (F.f.b[None, :] - Y) @ Kp.C.T
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
    U, resid = dykstra_halfspaces(Gnz, None, X[live],
                                  rhs=rhs[live][:, ~zero])
    dist = np.linalg.norm(X[live] - U, axis=1)
    bad = resid > 1e-7
    if np.any(bad):
        # Dykstra stalled: decide emptiness per sample by LP
        idx = np.where(bad)[0]
        for i in idx:
            poly = Polyhedron(Gnz, rhs[live][i, ~zero])
            if not poly.is_feasible():
                dist[i] = np.inf
    out[live] = dist
    return out


def _gauss_newton_starts(F: MultiMap, x, region: SearchRegion):
    box = region.box
    corners = np.stack(np.meshgrid(*[box[i] for i in range(box.shape[0])],
                                   indexing="ij"), axis=-1).reshape(-1, box.shape[0])
    if corners.shape[0] > 64:
        corners = corners[:64]
    center = box.mean(axis=1)
    return np.vstack([x[None, :], center[None, :], corners])


def _gauss_newton_solve(F: MultiMap, y, u0, box, tol):
    lo = box[:, 0] - (box[:, 1] - box[:, 0])
    hi = box[:, 1] + (box[:, 1] - box[:, 0])
    u = np.clip(u0.astype(float, copy=True), lo, hi)
    r = F.f.eval_batch(u[None, :])[0] - y
    res = r - F.K.project_batch(r[None, :])[0]
    rn = np.linalg.norm(res)
    for _ in range(60):
        if rn <= tol:
            return u, True
        J = F.f.jacobian(u)
        step, *_ = np.linalg.lstsq(J, -res, rcond=None)
        t = 1.0
        improved = False
        for _ in range(25):
            un = np.clip(u + t * step, lo, hi)
            rtrial = F.f.eval_batch(un[None, :])[0] - y
            rest = rtrial - F.K.project_batch(rtrial[None, :])[0]
            rnt = np.linalg.norm(rest)
            if rnt < rn * (1.0 - 1e-4 * t):
                u, res, rn = un, rest, rnt
                improved = True
                break
            t *= 0.5
        if not improved:
            break
    return u, rn <= tol


def preimage_distance(F: MultiMap, y, x,
                      region: SearchRegion | None = None) -> float:
    """d(x, F^{-1}(y)); +inf when the preimage is empty (or none is found).

    Exact (projection onto the pulled-back polyhedron) for affine f with
    polyhedral K.  Otherwise a multi-start Gauss-Newton upper bound; see
    MultiMap.exact_preimage for which route applies.
    """
    x = as_vector(x, F.dim_in, "x")
    y = as_vector(y, F.dim_out, "y")
    if F.exact_preimage:
        return float(preimage_distance_batch(F, y[None, :], x[None, :])[0])
    if region is None:
        region = default_region(x, 2.0)
    tol = 1e-8
    feasible = []
    for u0 in _gauss_newton_starts(F, x, region):
        u, ok = _gauss_newton_solve(F, y, u0, region.box, tol)
        if ok:
            feasible.append(u)
    if not feasible:
        nodes = region.grid_nodes(cap=4096)
        r = F.f.eval_batch(nodes) - y[None, :]
        resid = F.K.distance_batch(r)
        u, ok = _gauss_newton_solve(F, y, nodes[int(np.argmin(resid))],
                                    region.box, tol)
        if ok:
            feasible.append(u)
    if not feasible:
        return np.inf
    dists = [float(np.linalg.norm(x - u)) for u in feasible]
    best = int(np.argmin(dists))
    u_best, d_best = feasible[best], dists[best]
    # pull the incumbent toward x along the segment; keeps the bound honest
    for t in np.geomspace(1.0, 0.02, 12):
        u, ok = _gauss_newton_solve(F, y, x + t * (u_best - x), region.box,
                                    tol)
        if ok:
            dd = float(np.linalg.norm(x - u))
            if dd < d_best:
                u_best, d_best = u, dd
    return d_best


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
    where the certification flag is never consumed); every caller that makes
    a membership decision runs the full dual route.
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


# ---------------------------------------------------------------------------
# The lower envelope of x -> d(y, F(x)) relative to the membership tube.

@lru_cache(maxsize=16)
def _probe_directions(dim: int, count: int = 32) -> np.ndarray:
    gen = rng.stream(0x5EED, "envelope-probe", dim)
    return rng.sphere_points(gen, count, dim)


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

