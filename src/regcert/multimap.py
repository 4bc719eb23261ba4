"""Set-valued maps of the form F(x) = f(x) - K and their basic metrics.

f is a smooth single-valued map (affine or polynomial with analytic
jacobians), K a closed convex set from the geometry module.  The residual
identity d(y, F(x)) = d(K, f(x) - y) turns image distances into set
distances.  Preimage distances are exact for affine f with a
polyhedrally-representable K (projection onto the pulled-back inequality
system).  Otherwise they are estimates from a multi-start damped
Gauss-Newton search, which bound it neither way (exact_preimage=False).
The search runs all rows and all starts of a batch as one stack, and each
row's arithmetic depends only on that row, so a row gives the same value
alone as in any batch.

For a polynomial f the search screens its rows first (_no_preimage_rows).
Every iterate is clipped to the row's clip box, so when an interval
enclosure of f over that box (Moore, Interval Analysis, 1966) stays
farther from y + box(K), a coordinate box around K, than the search's
tolerance plus a rounding margin, no iterate can pass the search's test.
Such a row gets +inf, the value the search returns it, without running
it, so the screen moves no bit.  A +inf from this route thus means either
"certified: no preimage in the clip box" or "the search found none".

Membership in the conic tube F(x) + cone(B(ybar, delta)) is computed twice,
by the kernel (_membership_search) and by alternating minimization over
(z, k) (_alternate), an upper bound, and marked certified when the two
agree.  Both are row-independent (products go through row_matmul), so a
row gets the same value and flag alone as in any batch.

With c = f(x) - y the value is [min over lam >= 0 of phi(lam)]+, phi(lam)
= d(K, c + lam ybar) - lam delta.  For polyhedral K with a face table the
kernel is exact (_face_values; the parametric projection of Best, An
algorithm for the solution of the parametric quadratic programming
problem, 1996, over K's faces).  d(K, z) is the least |z - P_J z| over the
faces J whose projection P_J z lies in K (geometry.FaceTable).  Along the
ray P_J z is affine in lam, it lies in K on an interval that one ratio
test over K's rows finds, and there phi is sqrt(quadratic) - delta lam,
least at its stationary point clipped to the interval.  What the faces
need of K and the cone is derived once per (K, cone) and cached
(_face_data).  Each pass lays K's coordinates, rows and faces along a
leading axis, so every min, max and sum over them is an elementwise chain
over (face, row) slabs; the sums round as np.sum rounds them over a last
axis (_coord_sum).  The ratio test holds a row within _FACE_FEAS = 1e-12
times the size of its terms, or rounding fails every face of opposite
rows; the value can fall below the distance by about as much.  The size
takes lam up to lam_hi = 10 (1 + |c|) / (|ybar| - delta), with the gap
read as at least 1e-3 |ybar|, so that a cone near a half-space does not
let in rows far outside K.

Every other K runs a golden-section search (_golden_values).  phi is
convex (Rockafellar, Convex Analysis, sec. 24), so a row whose phi(2 hi)
is not below phi(hi) has a minimizer in [0, 2 hi].  From hi = lam_hi the
bracket doubles while phi still falls and the row's least value is above
0, at most 40 times, and 48 golden-section steps (Kiefer, Sequential
minimax search for a maximum, 1953) then run on every row.  They leave a
bracket under 2e-10 hi wide, so the least value seen exceeds the minimum
by less than 2e-10 hi (|ybar| + delta), as phi is (|ybar| + delta)-
Lipschitz.

The margin, 1e-6 (1 + |c| + hi (|ybar| + delta)), covers the face
kernel's tolerance, the search's shortfall and an evaluation error of phi
up to about 1e-7 times that size on every route of a polyhedral
projection (Dykstra stops within DYKSTRA_TOL = 1e-10; the tests hold
least-distance points to 1e-7).  hi is lam_hi but where the bracket grew;
the search reaches 2 hi, whose twice larger error the tenfold factor
covers.  A row still falling at the last doubling has no proven bracket
and gets margin +inf.  _member_mask admits a row whose value is <= tol,
rejects one whose value exceeds tol + margin, and lets the alternating
route decide the rows between; the envelope decides its rows and its
closure probes the same way.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import rng
from .errors import DimensionMismatch, NotPolyhedral
from .geometry import (
    TOL_FEAS,
    TOL_MEMBER,
    Ball,
    ConvexSet,
    DirectionalCone,
    Polyhedron,
    ProductSet,
    Singleton,
    as_vector,
    # unused here; perfbench's test_restore_puts_back_every_patched_name
    # checks that tracing patches this name in multimap too
    dykstra_halfspaces,  # noqa: F401
    face_table,
    project_halfspaces,
    row_matmul,
)

_ALTERNATION_CAP = 120
_MEMBER_MARGIN = 1e-6
# lam_hi's |ybar| - delta is read as at least this share of |ybar|, so that
# a cone near a half-space does not swell the size terms lam_hi scales
_GAP_FLOOR = 1e-3
# the golden bracket's doublings: past 2^40 lam_hi the points c + lam ybar
# have norms above 1e13 (1 + |c|), where one rounding of phi exceeds
# 1e-3 (1 + |c|)
_BRACKET_DOUBLINGS = 40
GOLDEN_ITERS = 48
_INVPHI = (np.sqrt(5.0) - 1.0) / 2.0
# the ratio test's feasibility tolerance, relative to the size of its terms
_FACE_FEAS = 1e-12
# (row, face, column) entries of one pass of the face kernel, which bound
# its temporaries (row-independent code, so the bits do not depend on it)
_FACE_POINTS = 1 << 14


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
        # b is added one column at a time, each a pass along the batch;
        # every entry is the same sum as with b broadcast along the rows
        Y = row_matmul(X, self.A.T)
        for j, bj in enumerate(self.b):
            Y[:, j] += bj
        return Y

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
        """Estimate of the jacobian spectral norm over a box, not a bound.

        Exact for an affine map.  Otherwise 1.5 times the largest norm at
        the points of a 5-point-per-axis grid (thinned to at most 4,096),
        plus 1e-9: the factor guesses at what the grid misses, so a
        steeper point between nodes can exceed the value.
        """
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
    nodes run in C order over the axes, the first axis slowest.  Where even
    the 2^n corners exceed cap, only the first cap of them in that order
    are kept, so the leading axes stay at their lower ends; the nodes are
    built from the digits of their index, never as the whole lattice.
    """
    n = boxes.shape[1]
    res = resolution
    while res ** n > cap and res > 2:
        res -= 1
    axes = np.linspace(boxes[..., 0], boxes[..., 1], res, axis=-1)
    idx = np.empty((min(res ** n, cap), n), dtype=int)
    k = np.arange(idx.shape[0])
    for j in range(n - 1, -1, -1):                  # the last axis fastest
        k, idx[:, j] = np.divmod(k, res)
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

def preimage_distance_batch(F: MultiMap, Y: np.ndarray,
                            X: np.ndarray) -> np.ndarray:
    """d(x_s, F^{-1}(y_s)) for paired rows of X and Y; +inf when the
    preimage is empty (or, off the exact route, none is found).

    Exact (projection onto the pulled-back polyhedron) for affine f with
    polyhedral K.  Otherwise a batched multi-start Gauss-Newton estimate
    (see _gauss_newton_preimage), searched in each row's own box x_s +- 2,
    the same for a row alone as in any batch; it bounds the distance
    neither way.  There +inf means either
    "certified: no preimage in the clip box", for a polynomial f whose
    interval range over that box misses y_s + box(K) by more than the
    search's tolerance and a rounding margin, or "the search found none".
    The screen gives only rows the search gives +inf too, so it moves no
    bit.  MultiMap.exact_preimage tells which route applies.
    """
    X = np.asarray(X, dtype=float)
    Y = np.asarray(Y, dtype=float)
    if not F.exact_preimage:
        return _gauss_newton_preimage(F, Y, X)
    return preimage_projection_batch(F, Y, X)[1]


def preimage_projection_batch(F: MultiMap, Y: np.ndarray, X: np.ndarray):
    """Nearest points of F^{-1}(y_s) to x_s for paired rows of X and Y, on
    the exact route (affine f, polyhedral K; F.exact_preimage).

    Projects onto the pulled-back system {x : C A x <= d - C (b - y_s)}.
    Returns (P, dist): the nearest points, and |x_s - P_s|; a row whose
    preimage is empty gets a NaN point and +inf.
    """
    Kp = as_polyhedron(F.K)
    if Kp is None or not isinstance(F.f, AffineMap):
        raise NotPolyhedral("the exact preimage route needs an affine f "
                            "and a polyhedral K")
    X = np.asarray(X, dtype=float)
    Y = np.asarray(Y, dtype=float)
    G = Kp.C @ F.f.A
    # rhs_s = d - C (b - y_s)
    rhs = Kp.d[None, :] - row_matmul(F.f.b[None, :] - Y, Kp.C.T)
    norms = np.linalg.norm(G, axis=1)
    zero = norms <= 1e-12
    P = X.copy()
    out = np.zeros(X.shape[0])
    # a zero pulled-back row states a pure condition on y: violated -> empty
    if np.any(zero):
        infeasible = np.any(rhs[:, zero] < -TOL_FEAS, axis=1)
        out[infeasible] = np.inf
        P[infeasible] = np.nan
    else:
        infeasible = np.zeros(X.shape[0], dtype=bool)
    live = ~infeasible
    Gnz = G[~zero]
    if Gnz.shape[0] == 0 or not np.any(live):
        return P, out
    U, empty = project_halfspaces(Gnz, rhs[live][:, ~zero], X[live])
    dist = np.linalg.norm(X[live] - U, axis=1)
    dist[empty] = np.inf
    P[live] = U
    out[live] = dist
    return P, out


def preimage_distance(F: MultiMap, y, x) -> float:
    """d(x, F^{-1}(y)); +inf when the preimage is empty (or none is found).

    The one-row case of preimage_distance_batch: exact for affine f with
    polyhedral K, otherwise the batched, row-independent Gauss-Newton
    estimate.
    """
    x = as_vector(x, F.dim_in, "x")
    y = as_vector(y, F.dim_out, "y")
    return float(preimage_distance_batch(F, y[None, :], x[None, :])[0])


_GN_TOL = 1e-8
_GN_ITERS = 60
_GN_HALVINGS = 25
_GN_MAX_CORNERS = 64
_GN_GRID_CAP = 4096
_GN_GRID_RESOLUTION = 9   # nodes per axis of the fallback start's grid
_GN_PULL = np.geomspace(1.0, 0.02, 12)


def _gauss_newton_preimage(F: MultiMap, Y: np.ndarray,
                           X: np.ndarray) -> np.ndarray:
    """Multi-start Gauss-Newton estimate of d(x_s, F^{-1}(y_s)), a bound
    neither way: a start converges at d(K, f(u) - y_s) <= _GN_TOL, so u may
    be nearer than F^{-1}(y_s) or exist where it is empty, and the starts
    can miss the nearest preimage.

    Each row searches its own box x_s +- 2, and every iterate is clipped to
    the row's clip box [lo, hi], its search box widened by its width on
    each side.  For a polynomial f the rows whose clip box provably holds
    no u with d(K, f(u) - y_s) <= _GN_TOL (_no_preimage_rows) get +inf, the
    value the search gives them, without running it.  The other rows run
    _gauss_newton_rows.  So +inf means either "certified: no preimage in
    the clip box" or "the search found none".
    """
    boxes = np.stack([X - 2.0, X + 2.0], axis=-1)
    width = boxes[..., 1] - boxes[..., 0]
    lo, hi = boxes[..., 0] - width, boxes[..., 1] + width
    out = np.full(X.shape[0], np.inf)
    open_ = np.flatnonzero(~_no_preimage_rows(F, Y, lo, hi))
    if open_.size:
        out[open_] = _gauss_newton_rows(F, Y[open_], X[open_], boxes[open_],
                                        lo[open_], hi[open_])
    return out


def _no_preimage_rows(F: MultiMap, Y: np.ndarray, lo: np.ndarray,
                      hi: np.ndarray) -> np.ndarray:
    """Rows where no u in [lo, hi] can pass the search's test rn <= _GN_TOL.

    For a polynomial f, [flo, fhi] encloses f over the row's box
    (_polynomial_range) and box(K) holds every point K.project_batch
    returns (_outer_box).  A row is excluded when, for some output i, the
    gap between [flo_i, fhi_i] and y_i + box(K)_i exceeds _GN_TOL +
    1e-12 (1 + size_i + |y_i| + |box(K)_i|), size_i the sum of the term
    bounds and |box(K)_i| the larger finite end.  The residual norm is at
    least its component i, and that is at least the gap of the computed
    f_i(u) - y_i from box(K)_i.  A product of d factors rounds by at most
    d u relative (u = 2^-53) and a sum of T terms by (T - 1) u times the
    sum of their magnitudes, so the computed f_i(u) and the computed
    enclosure each lie within (D + T) u size_i of the true ones, for degree
    D.  The margin covers both, and the subtractions against y_i and
    box(K)_i, for D + T up to 4000 per output.  An overflow gives NaN or
    an infinite size, which excludes nothing.  Any other map excludes
    nothing.
    """
    if not isinstance(F.f, PolynomialMap):
        return np.zeros(Y.shape[0], dtype=bool)
    blo, bhi = _outer_box(F.K)
    ends = np.maximum(*(np.where(np.isfinite(b), np.abs(b), 0.0)
                        for b in (blo, bhi)))
    with np.errstate(invalid="ignore", over="ignore"):
        flo, fhi, size = _polynomial_range(F.f, lo, hi)
        gap = np.maximum(flo - (Y + bhi), (Y + blo) - fhi)
        margin = 1e-12 * (1.0 + size + np.abs(Y) + ends)
    return np.any(gap > _GN_TOL + margin, axis=1)


def _polynomial_range(f: PolynomialMap, lo: np.ndarray, hi: np.ndarray):
    """Interval enclosure (flo, fhi) of f over each row's box [lo, hi], and
    size, the sum of |term| bounds, all of shape (B, dim_out).

    Interval arithmetic (Moore, Interval Analysis, 1966): each term is its
    coefficient times the product of interval powers, and an even power of
    an interval that straddles 0 is [0, max^e].
    """
    B = lo.shape[0]
    flo, fhi, size = (np.zeros((B, f.dim_out)) for _ in range(3))
    for i, terms in enumerate(f.outputs):
        for c, exps in terms:
            tlo, thi = np.full(B, c), np.full(B, c)
            for j, e in enumerate(exps):
                if not e:
                    continue
                a, b = lo[:, j] ** e, hi[:, j] ** e
                plo, phi = np.minimum(a, b), np.maximum(a, b)
                if e % 2 == 0:
                    plo = np.where((lo[:, j] < 0.0) & (hi[:, j] > 0.0),
                                   0.0, plo)
                ends = (tlo * plo, tlo * phi, thi * plo, thi * phi)
                tlo, thi = np.minimum.reduce(ends), np.maximum.reduce(ends)
            flo[:, i] += tlo
            fhi[:, i] += thi
            size[:, i] += np.maximum(np.abs(tlo), np.abs(thi))
    return flo, fhi, size


def _outer_box(K: ConvexSet):
    """Coordinate box (blo, bhi) that holds every point K.project_batch
    returns, up to rounding; an unbounded side is infinite.

    Exact for a Singleton and a Ball, per factor for a ProductSet.  A
    Polyhedron gets the bounds of its axis-aligned rows, widened by 1e-7:
    the clamp onto an axis-aligned system and the least-distance solve
    meet them up to rounding, and a converged Dykstra row, which takes the
    points whose bounds cross, within DYKSTRA_TOL.  Other rows
    are ignored, so the box stays outer, and bounds that cross give no box
    at all (an empty K is left to the projection to report).  Any other
    set is unbounded.
    """
    if isinstance(K, Singleton):
        return K.point, K.point
    if isinstance(K, Ball):
        return K.center - K.radius, K.center + K.radius
    if isinstance(K, ProductSet):
        return tuple(np.concatenate(p)
                     for p in zip(*(_outer_box(f) for f in K.factors)))
    blo, bhi = np.full(K.dim, -np.inf), np.full(K.dim, np.inf)
    if isinstance(K, Polyhedron):
        rows = np.flatnonzero(np.count_nonzero(K.C, axis=1) == 1)
        axis = np.argmax(K.C[rows] != 0.0, axis=1)
        c = K.C[rows, axis]
        bound = K.d[rows] / c
        np.minimum.at(bhi, axis[c > 0], bound[c > 0] + 1e-7)
        np.maximum.at(blo, axis[c < 0], bound[c < 0] - 1e-7)
        if np.any(blo > bhi):
            blo, bhi = np.full(K.dim, -np.inf), np.full(K.dim, np.inf)
    return blo, bhi


def _gauss_newton_rows(F: MultiMap, Y: np.ndarray, X: np.ndarray,
                       boxes: np.ndarray, lo: np.ndarray,
                       hi: np.ndarray) -> np.ndarray:
    """The search itself, on rows with search boxes (B, n, 2) and clip
    boxes [lo, hi].

    Each row starts from x_s, its box center and the first 64 of its box
    corners (in np.indices order).  A row none of whose starts reaches
    f(u) - y_s in K starts once more from the grid node (cap 4096) of least
    residual.  The nearest solution found is then pulled toward x_s in 12
    rounds along the segment, each round starting from the incumbent the
    last one left.  The rounds run in waves: each live row runs all its
    remaining rounds in one search, all from its incumbent.  A row keeps
    its rounds up to its first that improves and resumes after it; the
    later ones started from a stale incumbent and are dropped.  So every
    kept round starts where the one-round-at-a-time loop would, and since
    rows share no arithmetic, each value is the same alone as in any batch.
    """
    B, n = X.shape
    bits = (np.arange(min(1 << n, _GN_MAX_CORNERS))[:, None]
            >> np.arange(n - 1, -1, -1)) & 1
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
    u_best, d_best = U[np.arange(B), first], dists[np.arange(B), first]

    def nearer(rows, U0):
        """Search the rows from U0: the points, their distances to x_s, and
        where each converged nearer x_s than its row's incumbent (any
        point, for a row at +inf)."""
        u, found = _damped_gauss_newton(F, Y[rows], U0, lo[rows], hi[rows])
        dd = np.linalg.norm(X[rows] - u, axis=-1)
        return u, dd, found & (dd < d_best[rows])

    lost = np.flatnonzero(~ok.any(axis=1))
    if lost.size:
        u, dd, better = nearer(lost, _grid_starts(F, Y[lost], boxes[lost]))
        u_best[lost[better]], d_best[lost[better]] = u[better], dd[better]
    # pull the incumbent toward x along the segment; keeps the bound honest
    live = np.flatnonzero(np.isfinite(d_best))
    k = np.zeros(live.size, dtype=int)                     # next round
    while live.size:
        L = _GN_PULL.size - k.min()
        rounds = k[:, None] + np.arange(L)                 # (live, L)
        tried = rounds < _GN_PULL.size
        rows = np.broadcast_to(live[:, None], rounds.shape)[tried]
        x = X[rows]
        t = _GN_PULL[rounds[tried]][:, None]
        u, dd, hits = nearer(rows, x + t * (u_best[rows] - x))
        better = np.zeros(rounds.shape, dtype=bool)
        better[tried] = hits
        j = np.argmax(better, axis=1)                      # first improving
        hit = better[np.arange(live.size), j]
        pick = (np.cumsum(tried) - 1).reshape(tried.shape)[hit, j[hit]]
        u_best[live[hit]], d_best[live[hit]] = u[pick], dd[pick]
        k = np.where(hit, k + j + 1, k + L)
        go = k < _GN_PULL.size
        live, k = live[go], k[go]
    return d_best


def _grid_starts(F: MultiMap, Y: np.ndarray, boxes: np.ndarray) -> np.ndarray:
    """Per row, the node of least d(f(u) - y, K) on its box grid
    (_GN_GRID_RESOLUTION nodes an axis, cap 4096).

    Rows go a few at a time, so at most max(N, 4096) grid nodes are live
    however many rows are lost.
    """
    B, n = Y.shape[0], boxes.shape[1]
    N = _grid_nodes(boxes[:1], _GN_GRID_RESOLUTION, _GN_GRID_CAP).shape[1]
    chunk = max(1, _GN_GRID_CAP // N)
    out = np.empty((B, n))
    for a in range(0, B, chunk):
        rows = np.arange(a, min(a + chunk, B))
        nodes = _grid_nodes(boxes[rows], _GN_GRID_RESOLUTION, _GN_GRID_CAP)
        img = F.f.eval_batch(nodes.reshape(-1, n)).reshape(rows.size, N, -1)
        r = (img - Y[rows][:, None, :]).reshape(rows.size * N, -1)
        pick = np.argmin(F.K.distance_batch(r).reshape(rows.size, N), axis=1)
        out[rows] = nodes[np.arange(rows.size), pick]
    return out


def _residual(F: MultiMap, U: np.ndarray, Y: np.ndarray):
    R = F.f.eval_batch(U) - Y
    return R - F.K.project_batch(R)


def _damped_gauss_newton(F: MultiMap, Y: np.ndarray, U0: np.ndarray,
                         lo: np.ndarray, hi: np.ndarray):
    """Damped Gauss-Newton toward f(u) - y in K, one row per start.

    Each row is clipped to its own [lo, hi], takes the least-squares step of
    its jacobian (the pseudoinverse with lstsq's cutoff, in closed form for a
    1x1 jacobian: _gauss_newton_step) and backtracks by halving until the
    residual norm falls below rn (1 - 1e-4 t).  A row retires when it
    converges or no trial decreases.  Returns (U, converged).
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
        step = _gauss_newton_step(F.f.jacobian_batch(U[active]), R[active],
                                  rcond)
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


def _gauss_newton_step(J: np.ndarray, R: np.ndarray,
                       rcond: float) -> np.ndarray:
    """-pinv(J) r per row, for jacobians J (B, m, n) and residuals R (B, m).

    A 1x1 jacobian a takes pinv's arithmetic in closed form: 1 / a where |a|
    > rcond |a| (so +0 for a = +-0 and +-inf), times r added to +0.0 as
    matmul sums its one product.  That is pinv's value bit for bit while
    LAPACK's SVD does not rescale a, |a| in about [2^-459, 2^459]; beyond,
    the SVD's 1 / |a| may be 2 ulps off the correctly rounded one.  Larger
    jacobians keep pinv: a 2x2 closed form rounds otherwise, and calling the
    SVD directly saves little.
    """
    if J.shape[1:] == (1, 1):
        a = J[:, 0, 0]
        if np.isnan(a).any():
            # as LAPACK's SVD fails on a NaN entry
            raise np.linalg.LinAlgError("SVD did not converge")
        inv = np.divide(1.0, a, out=np.zeros_like(a),
                        where=np.abs(a) > rcond * np.abs(a))
        return -(inv * R[:, 0] + 0.0)[:, None]
    return -(np.linalg.pinv(J, rcond=rcond) @ R[:, :, None])[..., 0]


# ---------------------------------------------------------------------------
# Directional membership: is y in F(x) + cone(B(ybar, delta))?

def _membership_search(F: MultiMap, X: np.ndarray, Y: np.ndarray,
                       dc: DirectionalCone):
    """Membership values of the rows c = f(x) - y: (Cres, values, margin).

    On a whole-space cone the value is 0 (+inf for an empty K) and Cres is
    None.  A row whose golden bracket still falls at its last doubling gets
    margin +inf.
    """
    Cres = F.f.eval_batch(np.asarray(X, float)) - np.asarray(Y, float)
    B = Cres.shape[0]
    if dc.whole_space:
        return None, np.full(B, np.inf if _is_empty(F.K) else 0.0), np.zeros(B)
    c_norm = np.linalg.norm(Cres, axis=1)
    y_norm = np.linalg.norm(dc.ybar)
    lam_hi = _lam_hi(dc, c_norm)
    Kp = as_polyhedron(F.K)
    faces = None if Kp is None else _face_data(
        Kp.C.shape, Kp.C.tobytes(), Kp.d.tobytes(), dc.ybar.tobytes(),
        dc.delta)
    if faces is None:
        vals, hi = _golden_values(F.K, Cres, dc, lam_hi)
    else:
        vals = _face_values(faces, Cres, dc, lam_hi, c_norm, y_norm)
        hi = lam_hi
    margin = _MEMBER_MARGIN * (1.0 + c_norm + hi * (y_norm + dc.delta))
    return Cres, vals, margin


def _lam_hi(dc: DirectionalCone, c_norm: np.ndarray) -> np.ndarray:
    """10 (|c| + 1) / (|ybar| - delta) per row, the gap read as at least
    _GAP_FLOOR |ybar| (and 1e-12, for ybar = 0, where phi is constant)."""
    y_norm = float(np.linalg.norm(dc.ybar))
    gap = max(y_norm - dc.delta, _GAP_FLOOR * y_norm, 1e-12)
    return 10.0 * (c_norm + 1.0) / gap


def _is_empty(K: ConvexSet) -> bool:
    """Emptiness as the projection decides it, the test every distance to
    K reads, so a whole-space cone and a proper one agree on K."""
    return bool(np.isinf(K.distance_batch(np.zeros((1, K.dim))))[0])


@lru_cache(maxsize=64)
def _face_data(shape: tuple, c_data: bytes, d_data: bytes, ybar_data: bytes,
               delta: float) -> tuple | None:
    """What _face_values reads of K = {C z <= d} and the cone (ybar, delta),
    from their bytes, or None where C has no face table.  Per-face arrays
    come faces down, one (faces, 1) slab per coordinate or row of K."""
    table = face_table(shape, c_data)
    if table is None:
        return None
    C = np.frombuffer(c_data).reshape(shape)
    d, ybar = np.frombuffer(d_data), np.frombuffer(ybar_data)
    m, n = shape
    pad = table.rows < 0
    N = table.M @ np.where(pad[..., None], 0.0, C[table.rows])  # (F, n, n)
    t = (table.M @ np.where(pad, 0.0, d[table.rows])[..., None])[..., 0]
    r1 = N @ ybar                                               # (F, n)
    beta = (ybar - r1) @ C.T                                    # (F, m)
    # c -> (N_J c, C (c - N_J c)) for every face J, as one product
    W = np.concatenate([N, C @ (np.eye(n) - N)], axis=1)
    W = W.transpose(2, 0, 1).reshape(n, -1)
    shift = t @ C.T - d
    row_norm, t_norm = np.linalg.norm(C, axis=1), np.linalg.norm(t, axis=1)
    s = np.linalg.norm(r1, axis=1)
    with np.errstate(invalid="ignore"):
        rate = s * np.sqrt(s * s - delta * delta)
    data = (W, t.T[..., None], r1.T[..., None], beta.T[..., None],
            shift.T[..., None], row_norm[:, None, None],
            np.abs(d)[:, None, None], t_norm[:, None], s[:, None],
            rate[:, None])
    # every caller of the cache shares these arrays
    for a in data:
        a.setflags(write=False)
    return data


def _coord_sum(P: np.ndarray) -> np.ndarray:
    """The sum of P over its leading axis, rounded as np.sum rounds it over
    a contiguous last axis: left to right from +0.0 below 8 terms, pairwise
    from 8 on."""
    if P.shape[0] < 8:
        return np.add.reduce(P, axis=0, initial=0.0)
    return np.ascontiguousarray(np.moveaxis(P, 0, -1)).sum(axis=-1)


def _face_values(faces: tuple, Cres: np.ndarray, dc: DirectionalCone,
                 lam_hi: np.ndarray, c_norm: np.ndarray,
                 y_norm: float) -> np.ndarray:
    """The exact value per row c of Cres, from the _face_data of K and dc,
    with c_norm = |c| per row and y_norm = |ybar|, as np.linalg.norm gives
    them.
    On face J, z = c + lam ybar has residual z - P_J z = r0 + lam r1 and
    C P_J z - d = alpha + lam beta.  Row i holds where alpha_i + lam beta_i
    <= _FACE_FEAS (|C_i| size + |d_i|), size = 1 + 2|c| + |t_J| + lam_hi
    |ybar|, constant in lam so that a row that never holds is not let in far
    along the ray.  The rows run in passes of at most _FACE_POINTS entries,
    each laid out (coordinate or row of K, face, row of Cres), so that every
    reduction runs down the leading axis as an elementwise chain.
    """
    W, t, r1, beta, shift, row_norm, abs_d, t_norm, s, rate = faces
    (m, nf, _), n, delta = beta.shape, Cres.shape[1], dc.delta
    size = 1.0 + 2.0 * c_norm + lam_hi * y_norm
    out = np.empty(Cres.shape[0])
    step = max(1, _FACE_POINTS // (nf * (n + m + 1)))
    for a in range(0, Cres.shape[0], step):
        R = row_matmul(Cres[a:a + step], W).reshape(-1, nf, n + m).T.copy()
        # the pass's own copy of R holds r0 and alpha
        r0, alpha = R[:n], R[n:]
        r0 -= t
        sz = size[a:a + step] + t_norm
        alpha += shift
        alpha -= _FACE_FEAS * (row_norm * sz + abs_d)
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = -alpha / beta
            hi = np.where(beta > 0.0, ratio, np.inf).min(0, initial=np.inf)
            lo = np.where(beta < 0.0, ratio, 0.0).max(0, initial=0.0)
            ok = (lo <= hi) & ~np.any((beta == 0.0) & (alpha > 0.0), axis=0)
            # |r0 + lam r1| - delta lam is least at lam0 + u, lam0 the foot
            # of the line, or falls on where delta >= |r1|
            b = _coord_sum(r0 * r1)
            lam0 = -b / (s * s)
            h = np.sqrt(_coord_sum((r0 + lam0 * r1) ** 2))
            star = np.where(s > delta, lam0 + delta * h / rate,
                            np.inf if delta > 0.0 else 0.0)
            lam = np.clip(star, lo, hi)
            g = np.sqrt(_coord_sum((r0 + lam * r1) ** 2)) - delta * lam
            # an interval unbounded above: phi falls without end, or toward
            # b / |r1| where delta = |r1|
            g = np.where(np.isinf(lam), np.where(delta > s, -np.inf, b / s),
                         g)
        out[a:a + step] = np.where(ok, g, np.inf).min(axis=0)
    return np.maximum(out, 0.0)


def _golden_values(K: ConvexSet, Cres: np.ndarray, dc: DirectionalCone,
                   lam_hi: np.ndarray):
    """[min over lam >= 0 of phi]+ per row c of Cres, and each row's hi.

    phi is convex, so once phi(2 hi) >= phi(hi) a minimizer lies in
    [0, 2 hi].  From hi = lam_hi a row doubles hi while phi(2 hi) < phi(hi)
    and its least value is above 0, at most _BRACKET_DOUBLINGS times, and
    GOLDEN_ITERS golden-section steps (Kiefer, 1953) then run on [0, 2 hi]
    of every row.  The value is the least phi seen, phi(0) included, so it
    bounds the minimum from above.  A row still falling after the last
    doubling has no proven bracket; its hi is returned as +inf.
    """
    def phi(lam, rows=slice(None)):
        pts = Cres[rows] + lam[:, None] * dc.ybar[None, :]
        return K.distance_batch(pts) - lam * dc.delta

    B = Cres.shape[0]
    hi = np.array(lam_hi, dtype=float)
    f_hi = phi(hi)
    best = np.minimum(phi(np.zeros(B)), f_hi)
    grow = np.flatnonzero(best > 0.0)
    for _ in range(_BRACKET_DOUBLINGS):
        if not grow.size:
            break
        f2 = phi(2.0 * hi[grow], grow)
        best[grow] = np.minimum(best[grow], f2)
        falling = f2 < f_hi[grow]
        grow, f2 = grow[falling], f2[falling]
        hi[grow] *= 2.0
        f_hi[grow] = f2
        grow = grow[best[grow] > 0.0]
    a, b = np.zeros(B), 2.0 * hi
    x1, x2 = b - _INVPHI * (b - a), a + _INVPHI * (b - a)
    f1, f2 = phi(x1), phi(x2)
    best = np.minimum(best, np.minimum(f1, f2))
    for _ in range(GOLDEN_ITERS):
        left = f1 < f2
        b = np.where(left, x2, b)
        a = np.where(left, a, x1)
        x1, x2 = (np.where(left, b - _INVPHI * (b - a), x2),
                  np.where(left, x1, a + _INVPHI * (b - a)))
        fv = phi(np.where(left, x1, x2))
        f1, f2 = np.where(left, fv, f2), np.where(left, f1, fv)
        best = np.minimum(best, fv)
    hi[grow] = np.inf
    return np.maximum(best, 0.0), hi


def _alternate(K: ConvexSet, Cres: np.ndarray,
               dc: DirectionalCone) -> np.ndarray:
    """min over z in the cone of d(K, c + z), per row c of Cres, by
    alternating the K-step and the cone-step.

    Both steps keep the running residual an upper bound, so any cap is
    sound.  Rows whose residual stalls are frozen to keep per-row results
    independent of the batch composition.
    """
    B = Cres.shape[0]
    Z = np.zeros_like(Cres)
    resid = np.full(B, np.inf)
    active = np.ones(B, dtype=bool)
    for _ in range(_ALTERNATION_CAP):
        idx = np.where(active)[0]
        if idx.size == 0:
            break
        Kpts = K.project_batch(Cres[idx] + Z[idx])
        Za = dc.project_batch(Kpts - Cres[idx])
        nr = np.linalg.norm(Cres[idx] + Za - Kpts, axis=1)
        Z[idx] = Za
        stalled = np.abs(nr - resid[idx]) < 1e-12
        resid[idx] = nr
        active[idx[stalled]] = False
    return resid


def membership_values(F: MultiMap, X: np.ndarray, Y: np.ndarray,
                      dc: DirectionalCone):
    """min over z in the cone of d(K, f(x) - y + z), batched.

    Returns (values, certified): the smaller of the kernel's value and the
    alternating route's, certified where they agree.  The decision tests
    hold _member_mask to it.
    """
    Cres, v_kernel, _ = _membership_search(F, X, Y, dc)
    # _alternate projects onto K, which an empty K cannot do; the kernel
    # reads +inf there
    if Cres is None or _is_empty(F.K):
        return v_kernel, np.ones(v_kernel.size, dtype=bool)
    v_alt = _alternate(F.K, Cres, dc)
    vals = np.minimum(v_kernel, v_alt)
    certified = np.abs(v_kernel - v_alt) <= 1e-6 * (1.0 + vals)
    return vals, certified


def _member_mask(F: MultiMap, X: np.ndarray, Y: np.ndarray,
                 dc: DirectionalCone, tol: float) -> np.ndarray:
    """The decision value <= tol per row (_decide on the kernel's values)."""
    return _decide(F.K, dc, *_membership_search(F, X, Y, dc), tol)


def _decide(K: ConvexSet, dc: DirectionalCone, Cres, vals: np.ndarray,
            margin: np.ndarray, tol: float) -> np.ndarray:
    """The decision value <= tol from _membership_search's output: the
    kernel's value admits at tol and rejects above tol + margin, and the
    alternating route decides the rows between.  Row-independent, as both
    routes are.
    """
    member = vals <= tol
    open_ = ~member & (vals - margin <= tol)
    if open_.any():
        member[open_] = _alternate(K, Cres[open_], dc) <= tol
    return member


# ---------------------------------------------------------------------------
# The lower envelope of x -> d(y, F(x)) relative to the membership tube.

@lru_cache(maxsize=16)
def _probe_directions(dim: int) -> np.ndarray:
    gen = rng.stream(0x5EED, "envelope-probe", dim)
    return rng.sphere_points(gen, 32, dim)


def envelope_batch(F: MultiMap, dc: DirectionalCone | None, X: np.ndarray,
                   y, tol: float = TOL_MEMBER,
                   lipschitz: float | None = None) -> np.ndarray:
    """Envelope values at the rows of X, for one y of shape (m,) or one y
    per row, shape (B, m).

    Membership failures within probing reach of the tube boundary get a
    closure probe: 32 directions at radii tol * 2^-k, k = 0..4, each with
    the y of the row it probes.  Points whose membership residual already
    exceeds what a tol-step could close are rejected without probing.
    Membership is decided as _member_mask decides it (_decide), on the
    rows of X and on the probes alike; the shell is the rejected rows
    whose kernel value is <= reach.
    """
    X = np.asarray(X, dtype=float)
    Y = np.asarray(y, dtype=float)
    shape = (X.shape[0], F.dim_out)
    if Y.ndim < 2:
        Y = np.broadcast_to(as_vector(Y, F.dim_out, "y"), shape)
    elif Y.shape != shape:
        raise DimensionMismatch(f"y: expected shape {shape}, got {Y.shape}")
    if dc is None:
        return image_distance_batch(F, X, Y)
    if X.shape[0] == 0:
        return np.full(0, np.inf)
    if lipschitz is None:
        lipschitz = F.lipschitz_bound(
            np.stack([X.min(axis=0) - tol, X.max(axis=0) + tol], axis=1)
        )
    reach = tol * (1.0 + lipschitz) * 1.001
    Cres, vals, margin = _membership_search(F, X, Y, dc)
    member = _decide(F.K, dc, Cres, vals, margin, tol)
    shell = ~member & (vals <= reach)
    if np.any(shell):
        dirs = _probe_directions(F.dim_in)
        radii = tol * 0.5 ** np.arange(5)
        offs = (dirs[None, :, :] * radii[:, None, None]).reshape(-1, F.dim_in)
        idx = np.where(shell)[0]
        P = (X[idx][:, None, :] + offs[None, :, :]).reshape(-1, F.dim_in)
        Yp = np.repeat(Y[idx], offs.shape[0], axis=0)
        member[idx] = _member_mask(F, P, Yp, dc, tol).reshape(
            idx.size, -1).any(axis=1)
    out = np.full(X.shape[0], np.inf)
    if np.any(member):
        out[member] = image_distance_batch(F, X[member], Y[member])
    return out
