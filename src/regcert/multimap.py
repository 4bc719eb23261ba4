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

For a polynomial f the search screens its rows first (_no_preimage_rows).
Every iterate is clipped to the row's clip box, so when an interval
enclosure of f over that box (Moore, Interval Analysis, 1966) stays
farther from y + box(K), a coordinate box around K, than the search's
tolerance plus a rounding margin, no iterate can pass the search's test.
Such a row gets +inf, the value the search returns it, without running
it, so the screen moves no bit.  A +inf from this route thus means either
"certified: no preimage in the clip box" or "the search found none".

Membership in the conic tube F(x) + cone(B(ybar, delta)) is computed twice,
by alternating minimization over (z, k) (_alternate) and by a
one-dimensional search over the cone scale (_scale_search), and marked
certified when the two agree.  Both routes are row-independent: their
products go through geometry.row_matmul, so a row gets the same value and
flag alone as in any batch.

One kernel runs the scale search (_screened_search), first ruling out
with a lower bound most rows that cannot meet value <= thr: the
admissibility filter at thr = tol (_member_mask), and the envelope at its
shell threshold and at tol on its probes.  With c = f(x) - y, the
membership value is the minimum over lam >= 0 of [phi(lam)]+,
phi(lam) = d(K, c + lam ybar) - lam delta (_phi).  phi is convex (a
convex distance along a line minus a linear term; Rockafellar, Convex
Analysis, sec. 24), so outside an interval of the lam grid it lies above
the secant line through that interval's ends.  On each grid interval phi
is therefore above the larger of the secants of its two neighbours, and
the least value of that max (at the lines' kink or an interval end)
bounds phi from below there.  Past the last grid point phi stays above the
last secant, which gives a bound only where that secant rises: a
K that holds the ray along ybar makes phi fall without end.  The grid is 0
and 8 log-spaced points up to the scale cap _lam_max, so a secant is
extrapolated at most q = 10^(6/7) ~ 7.2 times its own width, and an
evaluation error e moves the bound by at most (1 + 2q) e ~ 15.4 e.  The
screen rejects a row only when its bound exceeds thr by the margin
1e-6 (1 + |c| + lam_max (|ybar| + delta)), where the bracket bounds the
size of every point the grid evaluates.  So it covers any e up to 6e-8
times that size, on both routes of a polyhedral projection: a point of the
exact active-set route meets its KKT conditions up to rounding, and the
Dykstra fallback stops within DYKSTRA_TOL = 1e-10, 600 times below the
budget.  Both routes of membership_values are then above thr too, so
every decision value <= t with t <= thr is the same bit.  Nothing in the
argument depends on the value of thr.

The admissibility filter bounds the rows the screen leaves open a second
time, from the evaluations its scale search makes anyway (_scale_search
with bound=True): its 64-point grid and each of its four 17-point zoom
rounds give a secant bound by the same argument (_secant_bound), the best
of the five is kept, and a row whose bound exceeds tol + margin, with the
margin above, is rejected.  Only the rows still undecided run the
alternating route, whose value alone then decides them.  A zoom round
covers only its bracket [l_0, l_16] by intervals.  Below l_0 phi stays above
the round's first secant, so above phi(l_0) where that secant falls, and
past l_16 above phi(l_16) where the last secant rises.  A zoom round is
evenly spaced (q = 1), so an evaluation error e moves its bound by at most
3 e.  The grid's first interval borrows the secant of its right neighbour,
about a quarter of its width (q ~ 4), so about 9 e there, and 3.5 e on
the rest of the grid, whose widths grow by 10^(6/62) ~ 1.25 a step.  Both
stay inside the 15.4 e the margin covers; the zoom points lie in
[0, lam_max] like the screen's, so the margin's size bound holds for them.
The head and tail rules move the bound by e alone, but only where the end
secant really falls or rises, which its measured values show when they
move by more than 2 e; the rules ask for margin / 4 ~ 3.85 e.  A zero-width
or NaN interval gives no bound (-inf), never a rejection.

A row leaves the scale search before a zoom round as soon as its decision
is settled, given the caller's decision threshold tol (the filter's tol,
and the envelope's tol on its rows and its probes).  The search value only
falls from round to round, so a row whose value is already <= tol stays
admitted whatever the later rounds find.  The secant bound only rises, so,
with bound=True, a row whose bound already exceeds tol + margin stays
rejected, and by the argument above its value stays above tol.  Such a
row's value and bound are then partial, and its callers read only these
decisions.  The rows still open run the rounds with the same arithmetic,
row by row, as in the full search, so they keep its bits, and every
decision is the full search's bit.
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
    project_halfspaces,
    row_matmul,
)

_SCREEN_GRID = np.concatenate([[0.0], np.geomspace(1e-6, 1.0, 8)])
_SEARCH_GRID = np.concatenate([[0.0], np.geomspace(1e-6, 1.0, 63)])
_ZOOM_POINTS = 17
_ZOOM_ROUNDS = 4
_ALTERNATION_CAP = 120
_SECANT_MARGIN = 1e-6
# phi evaluations per pass of the screen and of the scale search, which
# bound their temporaries (row-independent code, so the bits do not depend
# on it): 910 rows a screen pass, 128 a search pass, whose zoom rounds then
# run only on the rows of the pass whose decision is still open
_MEMBERSHIP_POINTS = 8192


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

def preimage_distance_batch(F: MultiMap, Y: np.ndarray,
                            X: np.ndarray) -> np.ndarray:
    """d(x_s, F^{-1}(y_s)) for paired rows of X and Y; +inf when the
    preimage is empty (or, off the exact route, none is found).

    Exact (projection onto the pulled-back polyhedron) for affine f with
    polyhedral K.  Otherwise a batched multi-start Gauss-Newton upper bound
    (see _gauss_newton_preimage), searched in each row's own box x_s +- 2,
    the same for a row alone as in any batch.  There +inf means either
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


def preimage_distance(F: MultiMap, y, x) -> float:
    """d(x, F^{-1}(y)); +inf when the preimage is empty (or none is found).

    The one-row case of preimage_distance_batch: exact for affine f with
    polyhedral K, otherwise the batched, row-independent Gauss-Newton upper
    bound.
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
    """Multi-start Gauss-Newton upper bound on d(x_s, F^{-1}(y_s)).

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
    an exact projection meets them up to rounding, and the Dykstra
    fallback warns when it leaves a larger violation.  Other rows are
    ignored, so the box stays outer, and bounds that cross give no box at
    all (an empty K is left to the projection to report).  Any other set
    is unbounded.
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

    Each row starts from x_s, its box center and at most 64 box corners.
    A row none of whose starts reaches f(u) - y_s in K starts once more
    from the grid node (cap 4096) of least residual.  The nearest solution
    found is then pulled toward x_s in 12 rounds along the segment, each
    round starting from the incumbent the last one left.  Rows share no
    arithmetic, so each value is the same alone as in any batch.
    """
    B, n = X.shape
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
    u_best, d_best = U[np.arange(B), first], dists[np.arange(B), first]

    def take_nearer(rows, U0):
        """Search the rows from U0; keep a converged point where it is
        nearer x_s than the incumbent (any point, for a row at +inf)."""
        u, found = _damped_gauss_newton(F, Y[rows], U0, lo[rows], hi[rows])
        dd = np.linalg.norm(X[rows] - u, axis=-1)
        better = found & (dd < d_best[rows])
        u_best[rows[better]] = u[better]
        d_best[rows[better]] = dd[better]

    lost = np.flatnonzero(~ok.any(axis=1))
    if lost.size:
        take_nearer(lost, _grid_starts(F, Y[lost], boxes[lost]))
    # pull the incumbent toward x along the segment; keeps the bound honest
    live = np.flatnonzero(np.isfinite(d_best))
    for t in _GN_PULL:
        x = X[live]
        take_nearer(live, x + t * (u_best[live] - x))
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

def _phi(K: ConvexSet, Cres: np.ndarray, dc: DirectionalCone,
         lam: np.ndarray) -> np.ndarray:
    """phi(lam) = d(K, c + lam ybar) - lam delta on a (B, N) lam array,
    row c of Cres with row of lam."""
    pts = Cres[:, None, :] + lam[..., None] * dc.ybar[None, None, :]
    d = K.distance_batch(pts.reshape(-1, Cres.shape[1])).reshape(lam.shape)
    return d - lam * dc.delta


def _scale_search(K: ConvexSet, Cres: np.ndarray, dc: DirectionalCone,
                  bound: bool = False, grid: np.ndarray = _SEARCH_GRID,
                  zooms: int = _ZOOM_ROUNDS, tol: float | None = None):
    """min over lam >= 0 of [phi(lam)]+ (_phi), per row of Cres.

    Exact up to the 1d search: shrinking the lam-ball around lam*ybar turns
    the cone minimization into this scalar problem.  The grid, scaled to
    each row's cap _lam_max, brackets the minimizer and batched zoom rounds
    refine the bracket.  The rows go in passes of at most _MEMBERSHIP_POINTS
    grid points, each pass's temporaries freed before the next one starts.
    bound=True returns (values, lb, margin), with the best secant bound
    (_secant_bound) of the grid and of the zoom rounds; the screen is this
    bound on _SCREEN_GRID with no zoom round.

    With a threshold tol, a row leaves the search before a zoom round once
    its value is <= tol or, with bound=True, its bound exceeds tol + margin
    (see the module docstring).  Such a row's value and bound are those of
    the rounds it ran, so they are partial: only the decisions value <= tol
    and lb > tol + margin are the full search's, and those are all its
    callers read.  A row that runs every round gets the full search's bits.
    """
    out = np.empty((3 if bound else 1, Cres.shape[0]))
    step = max(1, _MEMBERSHIP_POINTS // grid.size)
    t = np.linspace(0.0, 1.0, _ZOOM_POINTS)
    for a in range(0, Cres.shape[0], step):
        C = Cres[a:a + step]
        c_norm = np.linalg.norm(C, axis=1)
        lam_hi = dc._lam_max(c_norm)
        # how far evaluation error can lift a secant bound above the true
        # minimum (see the module docstring)
        margin = _SECANT_MARGIN * (
            1.0 + c_norm + lam_hi * (np.linalg.norm(dc.ybar) + dc.delta))
        best = np.full(C.shape[0], np.inf)
        lb = np.full(C.shape[0], -np.inf)
        live = np.arange(C.shape[0])
        lam = lam_hi[:, None] * grid[None, :]
        for zoom in range(zooms + 1):
            if zoom:
                if tol is not None:
                    keep = ~(best[live] <= tol)
                    if bound:
                        keep &= ~(lb[live] > tol + margin[live])
                    live, lo, hi = live[keep], lo[keep], hi[keep]
                    if not live.size:
                        break
                lam = lo[:, None] + (hi - lo)[:, None] * t[None, :]
            p = _phi(K, C[live], dc, lam)
            if bound:
                lb[live] = np.maximum(lb[live],
                                      _secant_bound(lam, p, margin[live]))
            v = np.maximum(p, 0.0)
            rows = np.arange(live.size)
            i = np.argmin(v, axis=1)
            best[live] = np.minimum(best[live], v[rows, i])
            lo = lam[rows, np.maximum(i - 1, 0)]
            hi = lam[rows, np.minimum(i + 1, lam.shape[1] - 1)]
        out[:, a:a + step] = (best, lb, margin) if bound else (best,)
    return tuple(out) if bound else out[0]


def _secant_bound(lam: np.ndarray, phi: np.ndarray,
                  margin: np.ndarray) -> np.ndarray:
    """Lower bound on min over lam >= 0 of a convex phi, per row, from its
    values phi at the increasing points lam, both of shape (B, N), N >= 3.

    -inf where the bound does not reach past the points at either end, and
    where an interval has zero width or a value is NaN.  See the module
    docstring for the argument.
    """
    gap = np.diff(lam, axis=1)                       # (B, N-1) widths
    with np.errstate(divide="ignore", invalid="ignore"):
        slope = np.diff(phi, axis=1) / gap           # secant slopes
    # on interval [l_i, l_i+1], with u = lam - l_i, phi lies above the
    # secant of the interval to its left, a + b u, and of the one to its
    # right; an end interval has one neighbour, which stands for both
    a_left, b_left = phi[:, 1:-1], slope[:, :-1]     # intervals 1..N-2
    a_right = phi[:, 1:-1] - slope[:, 1:] * gap[:, :-1]  # intervals 0..N-3
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
    # past the last point phi stays above the last secant, so above its
    # last value where that secant rises, and before the first point above
    # its first value where the first secant falls; each must move by more
    # than twice the largest evaluation error the margin allows for
    # (margin / 15.4).  Nothing lies before a first point at lam = 0.
    rising = phi[:, -1] - phi[:, -2] >= margin / 4.0
    falling = phi[:, 0] - phi[:, 1] >= margin / 4.0
    tail = np.where(rising, phi[:, -1], -np.inf)
    head = np.where(lam[:, 0] <= 0.0, np.inf,
                    np.where(falling, phi[:, 0], -np.inf))
    lb = np.minimum(np.minimum(lb.min(axis=1), tail), head)
    undefined = np.isnan(lb) | ~np.all(gap > 0.0, axis=1)
    return np.where(undefined, -np.inf, lb)


def _screened_search(F: MultiMap, X: np.ndarray, Y: np.ndarray,
                     dc: DirectionalCone, thr: float, bound: bool = False,
                     tol: float | None = None):
    """The scale search (_scale_search) on the rows c = f(x) - y that the
    screen leaves open at thr, +inf on the others.

    The screen is the secant bound (_secant_bound) of phi on _SCREEN_GRID.
    A row whose bound exceeds thr + margin has both membership routes above
    thr (see the module docstring), so value <= t for any t <= thr is the
    bit the unscreened value gives.  thr = inf screens nothing.

    Returns (Cres, values), and with bound=True (Cres, values, lb, margin):
    the search's secant bound and margin on the rows it ran, the screen's
    on the others.  With a decision threshold tol the search retires a row
    once value <= tol or lb > tol + margin settles it (_scale_search), so a
    retired row's value and bound are partial and callers read only those
    decisions; tol=None runs the full search.  Only _member_mask asks for
    the bounds: computing them on the envelope path too raised perfbench's
    certify_mix wall_s in 3 of 4 alternating pairs on a 2-vCPU VM (medians
    0.394 s against 0.343 s).
    On a whole-space cone the value is exact, 0 or +inf for an empty K, lb
    is the value and Cres is None.
    """
    X = np.asarray(X, dtype=float)
    Y = np.asarray(Y, dtype=float)
    Cres = F.f.eval_batch(X) - Y
    B = Cres.shape[0]
    if dc.whole_space:
        empty = isinstance(F.K, Polyhedron) and not F.K.is_feasible()
        vals = np.full(B, np.inf if empty else 0.0)
        return (None, vals, vals, np.zeros(B)) if bound else (None, vals)
    vals = np.full(B, np.inf)
    lb, margin = np.full(B, -np.inf), np.zeros(B)
    idx = np.arange(B)
    if thr < np.inf:
        _, lb, margin = _scale_search(F.K, Cres, dc, bound=True,
                                      grid=_SCREEN_GRID, zooms=0)
        idx = np.flatnonzero(lb <= thr + margin)
    if not bound:
        vals[idx] = _scale_search(F.K, Cres[idx], dc, tol=tol)
        return Cres, vals
    vals[idx], lb[idx], margin[idx] = _scale_search(F.K, Cres[idx], dc,
                                                    bound=True, tol=tol)
    return Cres, vals, lb, margin


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

    Returns (values, certified): the value is the smaller of the alternating
    estimate and the scale-search estimate, certified where they agree.
    Callers that need only the decision value <= tol use _member_mask, which
    gives the same bits.
    """
    Cres, v_grid = _screened_search(F, X, Y, dc, np.inf)
    if Cres is None:
        return v_grid, np.ones(v_grid.size, dtype=bool)
    v_alt = _alternate(F.K, Cres, dc)
    vals = np.minimum(v_grid, v_alt)
    certified = np.abs(v_grid - v_alt) <= 1e-6 * (1.0 + vals)
    return vals, certified


def _member_mask(F: MultiMap, X: np.ndarray, Y: np.ndarray,
                 dc: DirectionalCone, tol: float) -> np.ndarray:
    """membership_values(F, X, Y, dc)[0] <= tol, bit for bit, with each
    row decided as soon as its decision is certain.

    1. The screened search at tol (_screened_search) admits a row whose
       scale-search value is <= tol, because membership_values takes the
       smaller of the two routes.
    2. A row above tol whose secant bound, the screen's or the search's,
       exceeds tol + margin is rejected.  The search stops refining a row
       once 1 or 2 holds, so only open rows run its zoom rounds.
    3. Only rows still undecided run the alternating route (_alternate),
       whose value then decides them.

    Every route is row-independent, so a row gets the same value in a
    subset as in the full batch.
    """
    Cres, vals, lb, margin = _screened_search(F, X, Y, dc, tol, bound=True,
                                              tol=tol)
    member = vals <= tol
    rest = np.flatnonzero((vals > tol) & (lb <= tol + margin))
    if rest.size:
        member[rest] = _alternate(F.K, Cres[rest], dc) <= tol
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
    Membership is the screened scale search (_screened_search), at the
    shell threshold on the rows of X and at tol on the probes, so the rows
    the screen rules out skip the search and take the decisions the
    unscreened values give.
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
    if lipschitz is None:
        lipschitz = F.lipschitz_bound(
            np.stack([X.min(axis=0) - tol, X.max(axis=0) + tol], axis=1)
        )
    reach = tol * (1.0 + lipschitz) * 1.001
    _, vals = _screened_search(F, X, Y, dc, np.fmax(tol, reach), tol=tol)
    member = vals <= tol
    shell = (~member) & (vals <= reach)
    if np.any(shell):
        dirs = _probe_directions(F.dim_in)
        radii = tol * 0.5 ** np.arange(5)
        offs = (dirs[None, :, :] * radii[:, None, None]).reshape(-1, F.dim_in)
        idx = np.where(shell)[0]
        P = (X[idx][:, None, :] + offs[None, :, :]).reshape(-1, F.dim_in)
        Yp = np.repeat(Y[idx], offs.shape[0], axis=0)
        _, pv = _screened_search(F, P, Yp, dc, tol, tol=tol)
        member[idx] = np.any(pv.reshape(idx.size, -1) <= tol, axis=1)
    out = np.full(X.shape[0], np.inf)
    if np.any(member):
        out[member] = image_distance_batch(F, X[member], Y[member])
    return out
