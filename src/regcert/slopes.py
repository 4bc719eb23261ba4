"""Descent-rate (strong slope) estimators for extended-real scalar fields.

A field is one batch evaluator f(X) -> (B,) over the rows of X, (B, dim);
a single point is evaluated as a one-row batch.  Where each centre has a
field of its own (the envelope slopes of regularity, one y per pair), the
global-slope pass takes a per-centre field g(U, owner) -> (B,), owner[i]
being the centre whose field evaluates row i of U, and still scores every
centre in one stack.

The field contract: a field evaluates each row the same, bit for bit,
whatever else its batch holds, a one-row batch included.  regcert's fields
meet it, since their affine maps multiply through geometry.row_matmul and
the rest is elementwise or per row.  Under a field such as X @ A.T, whose
one-row product NumPy rounds differently, the estimates stay valid bounds
but a point's bits may depend on its batch.

The local estimator samples spheres on a halving radius ladder and keeps the
steepest observed descent ratio [f(x) - f(y)]+ / |x - y|; the global variant
adds region-wide samples, lattice nodes, and a deterministic coordinate
ascent polish.  Estimates are lower bounds of the true suprema by
construction.  The global estimator's candidate set contains a full local
ladder, so local <= global holds for the estimates themselves, matching the
ordering of the quantities they approximate.

The error-bound certificate combines the two: the distance to the
sublevel set {f <= 0} and a lower estimate of the slope infimum over the
strict ball around the reference point, checked against f at the point.
A caller that knows the sublevel set passes its foot, the nearest point
and the distance: the CLI does for affine f with polyhedral K, where
{f <= 0} is the preimage F^{-1}(y0) and its exact projection gives the
distance up to rounding.  Otherwise the certificate finds the set by a ray
search (_ray_foot), whose distance is an upper estimate.  It batches both
halves: all its slope candidates go through one global-slope pass
(_global_slopes: the region samples and lattice nodes evaluated once, one
stacked coordinate ascent over every centre), and its boundary hits
descend together (_direction_descent).  Under the field contract each
candidate and each hit gets the same bits as it would alone.

The descent is a pattern search whose rounds run in speculative waves: a
hit runs several rounds at once, each assuming the ones before it found
nothing, and keeps them up to its first that improves.  Each wave costs
one reach ladder, all its factors in one field call (_reach), and one
bisection that retires rays which can no longer be their round's winner
(_bisect).  The rounds kept poll the same rays as a round-at-a-time loop,
each ray's reach and bisection points are built by the same arithmetic,
and a retired ray could not have won, so every bit of the certificate is
what the round-at-a-time loop gives.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import rng
from .errors import DimensionMismatch, InSet, InvalidParameter
from .multimap import SearchRegion, _coord_sum

Field = Callable[[np.ndarray], np.ndarray]
# xbar -> (nearest point of the sublevel set or None, distance to it)
Foot = Callable[[np.ndarray], tuple]
# one field per centre: row i of U is evaluated with the field of centre
# owner[i]
CentreField = Callable[[np.ndarray, np.ndarray], np.ndarray]

_MIN_STEP_DIST = 1e-10
_LOCAL_LEVELS = 6        # radii r0 * 2^-k of the local ladder
_LOCAL_SAMPLES = 24      # sphere samples per ladder level
_ASCENT_STEPS = 20       # coordinate ascent steps per polish
_SEGMENT_ITERS = 60      # bisection steps on a segment [xbar, u]
_RAY_ITERS = 45          # bisection steps per direction-descent candidate
_TREE_LEVELS = 5         # bisection steps per field call on a batch
_POLISH_ROUNDS = 8       # gradient re-bisections of a boundary point
_DESCENT_ROUNDS = 24     # pattern-search rounds over ray directions
_DESCENT_ROWS = 48       # trial directions a descent wave aims at
_PROBE_KEEP = 6          # low-slope probes kept per certificate
_POLISH_FACTORS = (1.0 + 1e-9, 1.001, 1.01, 1.1, 1.5, 3.0)
_DESCENT_FACTORS = (1.0 + 1e-9, 1.01, 1.1, 1.3, 2.0)


def _at(f: Field, x: np.ndarray) -> float:
    """f at a single point, as a one-row batch."""
    return float(f(x[None, :])[0])


def _shared(f: Field) -> CentreField:
    """f as the field of every centre."""
    return lambda U, owner: f(U)


@dataclass
class SlopeEstimate:
    """value is a lower bound of the targeted slope; witnesses hold (point,
    ratio) pairs that reproduce their ratios exactly on re-evaluation."""

    value: float
    radius_ladder: list = field(default_factory=list)
    witnesses: list = field(default_factory=list)
    mode: str = "local"


def _distances(Y, x):
    """|Y - x| over the last axis of Y, x broadcast against it.

    The squared differences are taken one coordinate at a time, each a pass
    along the points, and summed by multimap._coord_sum's rule: left to
    right below 8 coordinates, pairwise from 8.  That is how
    np.linalg.norm(Y - x, axis=-1) sums a contiguous last axis, so each
    distance has its bits; only the sign of a NaN may differ, as NumPy's
    add keeps one NaN operand or the other by array length."""
    n = Y.shape[-1]
    if n >= 8:
        return np.sqrt(_coord_sum(np.stack(
            [(Y[..., j] - x[..., j]) ** 2 for j in range(n)])))
    # the first square is +0.0 plus itself, bit for bit
    acc = (Y[..., 0] - x[..., 0]) ** 2
    for j in range(1, n):
        acc += (Y[..., j] - x[..., j]) ** 2
    return np.sqrt(acc, out=acc)


def _ratios(x, fx, Y, fY):
    """Descent ratios [fx - fY]+ / |x - Y| over the last axis of Y.

    x and fx broadcast against Y and fY, so one call scores one centre or a
    stack of them; a Y within _MIN_STEP_DIST of its x scores -inf, as does
    a NaN distance."""
    dist = _distances(Y, x)
    drop = np.maximum(fx - fY, 0.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(dist >= _MIN_STEP_DIST, drop / dist, -np.inf)


def _coordinate_ascent(g: CentreField, X: np.ndarray, fx: np.ndarray,
                       owner: np.ndarray, Y0: np.ndarray, h0: np.ndarray):
    """Pattern search on the descent ratio, batched over candidates.

    Row i of Y0 climbs the ratio of centre owner[i] (row X[owner[i]], value
    fx[owner[i]]), so the candidates of many centres run as one stack.  Each
    step polls every +-h axis move of every candidate in a single batched
    evaluation, takes the best move per candidate, and halves the step
    where nothing improved.
    """
    Y = Y0.copy()
    h = h0.copy()
    X, fx = X[owner], fx[owner]
    best = _ratios(X, fx, Y, g(Y, owner))
    C, n = Y.shape
    eye = np.eye(n)
    moves = np.concatenate([eye, -eye], axis=0)
    cand_owner = np.repeat(owner, 2 * n)
    for _ in range(_ASCENT_STEPS):
        # Y + h * move, one coordinate at a time
        cand = np.empty((C, 2 * n, n))
        for j in range(n):
            col = cand[:, :, j]
            np.multiply(h[:, None], moves[:, j], out=col)
            np.add(Y[:, j, None], col, out=col)
        fc = g(cand.reshape(C * 2 * n, n), cand_owner).reshape(C, 2 * n)
        r = _ratios(X[:, None, :], fx[:, None], cand, fc)
        bi = np.argmax(r, axis=1)
        bv = r[np.arange(C), bi]
        gain = bv > best
        Y[gain] = cand[gain, bi[gain]]
        best[gain] = bv[gain]
        h = np.where(gain, h, 0.5 * h)
    return Y, best


def _ladder_starts(g: CentreField, X: np.ndarray, fx: np.ndarray, r0: float,
                   seed: int):
    """Sphere samples on the radii r0 * 2^-k around every centre (row c of
    X, owner c).

    The sphere directions depend only on (seed, level), so all centres share
    them.  Returns the radii (L,), each centre's steepest sampled ratio per
    level (C, L) and the points that reach it (C, L, n), the ascent starts.
    """
    C, n = X.shape
    radii = r0 * 0.5 ** np.arange(_LOCAL_LEVELS)
    dirs = np.stack([rng.sphere_points(rng.stream(seed, "local-slope", k),
                                       _LOCAL_SAMPLES, n)
                     for k in range(_LOCAL_LEVELS)])
    Y = X[:, None, None, :] + radii[:, None, None] * dirs
    owner = np.repeat(np.arange(C), _LOCAL_LEVELS * _LOCAL_SAMPLES)
    fY = g(Y.reshape(-1, n), owner).reshape(Y.shape[:3])
    ratios = _ratios(X[:, None, None, :], fx[:, None, None], Y, fY)
    best = np.argmax(ratios, axis=2)
    sampled = np.take_along_axis(ratios, best[:, :, None], axis=2)[:, :, 0]
    starts = np.take_along_axis(Y, best[:, :, None, None], axis=2)[:, :, 0]
    return radii, sampled, starts


def _ladder_estimate(radii, sampled, Yp, polished) -> SlopeEstimate:
    """One centre's local estimate from its ladder and polished starts."""
    ladder = [(float(r), float(max(float(s), p)))
              for r, s, p in zip(radii, sampled, polished)]
    value = max(v for _, v in ladder[-3:])
    witnesses = [(Yp[k].copy(), float(polished[k]))
                 for k in range(_LOCAL_LEVELS - 3, _LOCAL_LEVELS)]
    return SlopeEstimate(float(value), ladder, witnesses, "local")


def local_slope(f: Field, x, r0: float = 1e-2,
                seed: int = 0) -> SlopeEstimate:
    """Steepest local descent ratio around x on radii r0 * 2^-k.

    An undefined center (f(x) = +inf) yields the +inf estimate rather than
    an error.  The reported value aggregates the last three ladder levels.
    """
    x = np.asarray(x, dtype=float).reshape(-1)
    fx = _at(f, x)
    if np.isinf(fx):
        return SlopeEstimate(np.inf, [], [], "local")
    g = _shared(f)
    X, fX = x[None, :], np.array([fx])
    radii, sampled, starts = _ladder_starts(g, X, fX, r0, seed)
    Yp, polished = _coordinate_ascent(
        g, X, fX, np.zeros(_LOCAL_LEVELS, dtype=int), starts[0],
        radii / 8.0)
    return _ladder_estimate(radii, sampled[0], Yp, polished)


def default_local_r0(region: SearchRegion) -> float:
    width = float(np.min(region.box[:, 1] - region.box[:, 0]))
    return 0.1 * width


def global_slope(f: Field, x, region: SearchRegion) -> SlopeEstimate:
    """Lower bound of the global descent ratio supremum at x.

    Candidates: uniform samples in the region box, all lattice nodes, and a
    local ladder at x; the running prefix argmaxes and the overall top ten
    get a coordinate ascent polish.  Monotone under budget growth for a
    fixed seed because samples extend (never reshuffle) and polish starts
    from prefix argmaxes.
    """
    x = np.asarray(x, dtype=float).reshape(1, -1)
    return _global_slopes(f, x, region)[0]


def _global_slopes(f: Field | CentreField, X: np.ndarray,
                   region: SearchRegion,
                   per_centre: bool = False) -> list[SlopeEstimate]:
    """global_slope at every row of X, in one pass.

    f is one Field shared by every centre, or with per_centre=True a
    CentreField f(U, owner), owner[i] being the row of X whose field
    evaluates row i of U.  A shared field evaluates the region samples and
    lattice nodes once, a per-centre field for every centre in one stacked
    call.  The coordinate ascents of every centre, from its prefix argmaxes
    and from its local ladder, run as one stack with an owner index per
    row.  Each centre keeps the sampling streams of a lone call, so under
    the field contract a centre gets the same estimate alone and in any
    batch.
    """
    g = f if per_centre else _shared(f)
    fx = g(X, np.arange(X.shape[0]))
    out = [SlopeEstimate(np.inf, [], [], "global") for _ in X]
    live = np.flatnonzero(~np.isinf(fx))
    if live.size == 0:
        return out
    X, fx = X[live], fx[live]
    C, n = X.shape

    def g_live(U, owner):
        return g(U, live[owner])

    def everywhere(P):
        """The field of every live centre at every row of P, (C or 1, N)."""
        if not per_centre:
            return f(P)[None, :]
        owner = np.repeat(np.arange(C), P.shape[0])
        return g_live(np.tile(P, (C, 1)), owner).reshape(C, -1)

    samples = region.uniform_samples("global-slope", region.sample_budget)
    nodes = region.grid_nodes()
    ratios_s = _ratios(X[:, None, :], fx[:, None], samples,
                       everywhere(samples))
    ratios_n = _ratios(X[:, None, :], fx[:, None], nodes, everywhere(nodes))

    S = samples.shape[0]
    prefix = [np.argmax(ratios_s[:, :2 ** k], axis=1)
              for k in range(S.bit_length())]
    picks = np.column_stack(
        prefix + [np.argmax(ratios_s, axis=1),
                  np.argsort(-ratios_s, axis=1, kind="stable")[:, :10]])
    best_node = np.argmax(ratios_n, axis=1)
    starts = [np.vstack([samples[sorted(set(picks[c].tolist()))],
                         nodes[best_node[c]][None, :]]) for c in range(C)]
    counts = [s.shape[0] for s in starts]
    G = sum(counts)
    width = float(np.min(region.box[:, 1] - region.box[:, 0]))

    radii, sampled, lstarts = _ladder_starts(
        g_live, X, fx, default_local_r0(region), region.seed)
    owner = np.concatenate([np.repeat(np.arange(C), counts),
                            np.repeat(np.arange(C), _LOCAL_LEVELS)])
    h0 = np.concatenate([np.full(G, 0.05 * width),
                         np.tile(radii / 8.0, C)])
    Yp, polished = _coordinate_ascent(
        g_live, X, fx, owner,
        np.vstack(starts + [lstarts.reshape(-1, n)]), h0)

    Yl = Yp[G:].reshape(C, _LOCAL_LEVELS, n)
    pl = polished[G:].reshape(C, _LOCAL_LEVELS)
    cuts = np.cumsum(counts)[:-1]
    for c, (Yg, pg) in enumerate(zip(np.split(Yp[:G], cuts),
                                     np.split(polished[:G], cuts))):
        lad = _ladder_estimate(radii, sampled[c], Yl[c], pl[c])
        raw = max(float(np.max(ratios_s[c], initial=-np.inf)),
                  float(np.max(ratios_n[c], initial=-np.inf)))
        value = max(raw, float(np.max(pg)), lad.value)
        top = int(np.argmax(pg))
        witnesses = [(Yg[top].copy(), float(pg[top]))]
        witnesses.extend(lad.witnesses[-1:])
        out[live[c]] = SlopeEstimate(float(max(value, 0.0)),
                                     lad.radius_ladder, witnesses, "global")
    return out


@dataclass
class ErrorBoundCertificate:
    """Numerical check of the slope error bound at xbar.

    d_sublevel is d(xbar, {f <= 0}): exact up to rounding when the caller
    gives the sublevel foot (the CLI does for affine f with polyhedral K),
    otherwise an upper estimate from the ray search.  slope_inf is a lower
    estimate of the slope infimum over the strict ball; holds records
    slope_inf * d_sublevel <= f(xbar) up to a 1e-6 relative slack.
    """

    f_value: float
    d_sublevel: float
    slope_inf: float
    holds: bool
    boundary_witness: np.ndarray | None
    n_slope_points: int


def _bisect(f: Field, xbar, D, hi, iters: int, best=None, group=None):
    """Per row, bisect the ray xbar + t D on [0, hi] for where f turns
    nonpositive; f(xbar + hi D) <= 0 must hold.  Returns the feasible end
    of each final bracket.

    Each field call takes _TREE_LEVELS steps: it evaluates every midpoint
    those steps can reach, each built by the same 0.5 * (lo + hi) chain
    from its parent bracket, and the path is walked afterwards, so under
    the field contract each row gets the bits of the step-by-step loop.

    With best and group given (per row: a bar to beat and a group label),
    the caller wants only each group's first argmin, and only if it lies
    below its bar.  Between field calls a row then retires, and returns +inf,
    once its bracket's low end reaches its bar or lies strictly above the
    least high end in its group.  A row's final end lies in its current
    bracket, so a retired row could not have been that argmin; the
    strict test keeps a tie with a lower row possible.  The rows kept get
    the bits of the unpruned bisection."""
    B, n = D.shape
    out = np.full(B, np.inf)
    live = np.arange(B)
    lo = np.zeros(B)
    hi = np.broadcast_to(np.asarray(hi, dtype=float), (B,))
    done = 0
    while done < iters and live.size:
        k = min(_TREE_LEVELS, iters - done)
        m = live.size
        # E holds lo, every midpoint the next k steps can reach, and hi, in
        # ray order: a bracket of level l spans 2w columns, w = 2^(k-l-1),
        # and its midpoint sits w columns in
        E = np.empty((m, (1 << k) + 1))
        E[:, 0], E[:, -1] = lo, hi
        for level in range(k):
            w = 1 << (k - level - 1)
            E[:, w::2 * w] = 0.5 * (E[:, :-1:2 * w] + E[:, 2 * w::2 * w])
        T = E[:, 1:-1]
        P = xbar + T[:, :, None] * D[live][:, None, :]
        infeas = ~(f(P.reshape(-1, n)) <= 0.0).reshape(T.shape)
        # walk each row's path from the bracket at column 0
        rows = np.arange(m)
        at = np.zeros(m, dtype=int)
        for level in range(k):
            w = 1 << (k - level - 1)
            at += w * infeas[rows, at + w - 1]
        lo, hi = E[rows, at], E[rows, at + 1]
        done += k
        if best is not None and done < iters:
            least = np.full(int(group.max()) + 1, np.inf)
            np.minimum.at(least, group[live], hi)
            keep = (lo < best[live]) & (lo <= least[group[live]])
            live, lo, hi = live[keep], lo[keep], hi[keep]
    out[live] = hi
    return out


def _segment_hits(f: Field, xbar, D):
    """(point, distance) of the f <= 0 crossing on each segment
    [xbar, xbar + D]; f <= 0 at every segment end."""
    t = _bisect(f, xbar, D, np.ones(D.shape[0]), _SEGMENT_ITERS)
    return [(xbar + ti * Di, ti * float(np.linalg.norm(Di)))
            for ti, Di in zip(t, D)]


def _reach(f: Field, xbar, D, scale, factors):
    """Per-row parameter at which f turns nonpositive, inf if never.

    Probes the ladder scale * factors, with one scale for all rows or one
    per row, and takes each row's first factor whose point has f <= 0;
    rows whose ray misses the sublevel set inside the ladder are reported
    unreachable.  Every (row, factor) point goes in one field call, built
    as t = scale * factor and xbar + t D like a factor-at-a-time ladder, so
    under the field contract each row gets that ladder's bits.  No rows,
    no call."""
    B = D.shape[0]
    if B == 0:
        return np.empty(0)
    scale = np.broadcast_to(np.asarray(scale, dtype=float), (B,))
    T = scale[:, None] * np.asarray(factors, dtype=float)[None, :]
    P = xbar + T[:, :, None] * D[:, None, :]
    hit = (f(P.reshape(-1, D.shape[1])) <= 0.0).reshape(T.shape)
    first = np.argmax(hit, axis=1)
    return np.where(hit[np.arange(B), first], T[np.arange(B), first], np.inf)


def _fd_gradient(f: Field, P, delta):
    """Central-difference gradients of f at the rows of P, shape (B, n)."""
    B, n = P.shape
    steps = delta * np.eye(n)
    up = f((P[:, None, :] + steps[None, :, :]).reshape(B * n, n))
    dn = f((P[:, None, :] - steps[None, :, :]).reshape(B * n, n))
    return ((up - dn) / (2.0 * delta)).reshape(B, n)


def _polish_boundary(f: Field, xbar, w, d):
    """Pull a boundary point toward the normal foot of xbar.

    Plain segment bisection lands where its ray happens to meet the
    boundary, which overestimates the distance by the ray angle.  The foot
    direction is the negated field gradient, so re-bisecting along the
    finite-difference gradient at the current boundary point converges in
    one step on flat boundaries; corners are left to _direction_descent.
    Never returns a worse point than it was given.  Runs on one hit at a
    time."""
    best_w = np.asarray(w, dtype=float).copy()
    best_d = float(d)
    for _ in range(_POLISH_ROUNDS):
        delta = 1e-6 * max(best_d, 1.0)
        g = _fd_gradient(f, best_w[None, :], delta)[0]
        norm_g = float(np.linalg.norm(g))
        if norm_g < 1e-12:
            break
        u = -g / norm_g
        t_hi = _reach(f, xbar, u[None, :], best_d, _POLISH_FACTORS)[0]
        if np.isinf(t_hi):
            break
        [(w2, d2)] = _segment_hits(f, xbar, (xbar + t_hi * u - xbar)[None, :])
        if not d2 < best_d:
            break
        best_w, best_d = w2, d2
        if best_d <= 1e-15:
            break
    return best_w, best_d


def _direction_descent(f: Field, xbar, W, d):
    """Minimize each boundary distance over ray directions from xbar.

    The gradient step stalls at corner feet where the boundary has no
    single normal; a pattern search over unit directions with a vectorized
    re-bisection per candidate does not, because each trial direction is
    re-anchored to the boundary exactly.  A round polls the 2n directions
    U +- h e_k of a hit (row of W, at distance d), moves to the first
    nearest one that beats d, and halves h if none does; the hit retires
    after _DESCENT_ROUNDS rounds or once h falls below 1e-9.

    The rounds run in speculative waves.  Each open hit runs its next L
    rounds in one reach ladder and one pruned bisection, stacked with the
    other hits', with L the rounds left but at most
    max(1, _DESCENT_ROWS // (live * 2n)), and no round past the one where
    h would fall below 1e-9.  Round l of a wave assumes that the rounds
    before it improved nothing: the same U and d, and h halved l times.  A
    hit keeps its rounds up to its first that improves and resumes after
    it; the later ones assumed wrong and are dropped.  So each kept round
    polls what the round-at-a-time loop would, and with a round counter
    of its own each hit gets the same bits alone as among the others, at
    any L.  Returns the descended points and distances, in the order of
    the hits."""
    W = np.array(W, dtype=float)
    best_d = np.array(d, dtype=float)
    U = W - xbar[None, :]
    open_ = np.zeros(best_d.size, dtype=bool)
    for i, u in enumerate(U):
        # a 1-D norm, as for a lone hit; the axis=1 norm rounds differently
        norm = float(np.linalg.norm(u))
        if not (norm <= 0.0 or best_d[i] <= 0.0):
            u /= norm
            open_[i] = True
    live = np.flatnonzero(open_)
    h = np.full(best_d.size, 0.5)
    k = np.zeros(best_d.size, dtype=int)                   # next round
    n = xbar.size
    eye = np.eye(n)
    while live.size:
        L = min(_DESCENT_ROUNDS - int(k[live].min()),
                max(1, _DESCENT_ROWS // (live.size * 2 * n)))
        steps = h[live, None] * 0.5 ** np.arange(L)        # (live, L)
        tried = ((k[live, None] + np.arange(L) < _DESCENT_ROUNDS)
                 & (steps >= 1e-9))
        owner = np.broadcast_to(live[:, None], tried.shape)[tried]
        step = steps[tried][:, None, None] * eye
        cand = np.concatenate([U[owner, None, :] + step,
                               U[owner, None, :] - step], axis=1)
        norms = np.linalg.norm(cand, axis=2)
        keep = norms > 1e-12
        group, slot = np.nonzero(keep)
        cand = cand[keep] / norms[keep][:, None]
        t_hi = _reach(f, xbar, cand, best_d[owner[group]], _DESCENT_FACTORS)
        reach = np.flatnonzero(np.isfinite(t_hi))
        group, slot = group[reach], slot[reach]
        vals = np.full(keep.shape, np.inf)
        vals[group, slot] = _bisect(f, xbar, cand[reach], t_hi[reach],
                                    _RAY_ITERS, best_d[owner[group]], group)
        row = np.full(keep.shape, -1)
        row[group, slot] = reach
        # each round's first argmin, and each hit's first round it improves
        j = np.argmin(vals, axis=1)
        better = np.zeros(tried.shape, dtype=bool)
        better[tried] = vals[np.arange(j.size), j] < best_d[owner]
        first = np.argmax(better, axis=1)
        won = better[np.arange(live.size), first]
        pick = (np.cumsum(tried) - 1).reshape(tried.shape)[won, first[won]]
        U[live[won]] = cand[row[pick, j[pick]]]
        best_d[live[won]] = vals[pick, j[pick]]
        # a round halves h unless it improves
        ran = np.where(won, first + 1, tried.sum(axis=1))
        h[live] *= 0.5 ** (ran - won)
        k[live] += ran
        live = live[(k[live] < _DESCENT_ROUNDS) & (h[live] >= 1e-9)]
    W[open_] = xbar[None, :] + best_d[open_, None] * U[open_]
    return W, best_d


def _ray_foot(f: Field, xbar, U, fU):
    """(point, distance) of the nearest sublevel point the ray search
    finds, (None, inf) if no row of U has f <= 0.

    The segments to the eight nearest feasible samples are bisected, the
    three nearest hits are polished along the field gradient and then
    descend together over ray directions."""
    feas = np.where(fU <= 0.0)[0]
    boundary_witness = None
    d_S = np.inf
    if feas.size:
        dists = np.linalg.norm(U[feas] - xbar[None, :], axis=1)
        near = feas[np.argsort(dists, kind="stable")[:8]]
        hits = sorted(_segment_hits(f, xbar, U[near] - xbar[None, :]),
                      key=lambda pair: pair[1])
        polished = [_polish_boundary(f, xbar, w, d) for w, d in hits[:3]]
        W, D = _direction_descent(f, xbar, [w for w, _ in polished],
                                  [d for _, d in polished])
        for w2, d2 in zip(W, D):
            if d2 < d_S:
                d_S = float(d2)
                boundary_witness = w2
    return boundary_witness, d_S


def _low_slope_probes(f: Field, xbar, f_val, d_S, region: SearchRegion):
    """Points inside the strict ball screened for small descent rates.

    Uniform draws rarely land where the slope dips (a thin wedge off a
    corner of the sublevel set), so cover the ball with sphere shells and
    keep the points whose finite-difference gradient norm is smallest."""
    n = xbar.size
    gen = rng.stream(region.seed, "eb-probe", 0)
    dirs = rng.sphere_points(gen, 32, n)
    radii = np.array([0.35, 0.65, 0.9]) * d_S * (1.0 - 1e-9)
    probes = (xbar[None, None, :]
              + radii[:, None, None] * dirs[None, :, :]).reshape(-1, n)
    fp = f(probes)
    probes = probes[(fp <= f_val) & (fp > 0.0)]
    if probes.shape[0] == 0:
        return []
    G = _fd_gradient(f, probes, 1e-6 * max(d_S, 1.0))
    g2 = np.zeros(probes.shape[0])
    for gj in G.T:
        g2 += gj * gj
    order = np.argsort(g2, kind="stable")[:_PROBE_KEEP]
    return [probes[i] for i in order]


def error_bound_certificate(f: Field, xbar, region: SearchRegion,
                            max_slope_points: int = 16,
                            slope_budget: int = 300,
                            foot: Foot | None = None) -> ErrorBoundCertificate:
    """Check the error bound f(xbar) >= slope_inf * d(xbar, {f <= 0}).

    Raises InSet when f(xbar) <= 0 (the bound is about points outside the
    sublevel set), DimensionMismatch when xbar does not live in the
    region's space and InvalidParameter when max_slope_points < 1.  The
    slope infimum runs over sampled points strictly closer to xbar than the
    sublevel set, with the strict ball realized as the closed ball shrunk
    by a 1e-9 relative margin.

    foot, when given, maps xbar to its nearest point of {f <= 0} (None if
    the set is empty) and the distance to it (+inf then), and takes the
    place of the ray search for the sublevel set.
    """
    xbar = np.asarray(xbar, dtype=float).reshape(-1)
    dim = region.box.shape[0]
    if xbar.size != dim:
        raise DimensionMismatch(f"xbar: expected length {dim}, got "
                                f"{xbar.size}")
    if max_slope_points < 1:
        raise InvalidParameter("max_slope_points must be at least 1")
    f_val = _at(f, xbar)
    if f_val <= 0.0:
        raise InSet("reference point already satisfies f <= 0")

    U = np.vstack([region.uniform_samples("eb-sublevel", region.sample_budget),
                   region.grid_nodes()])
    fU = f(U)
    if foot is None:
        boundary_witness, d_S = _ray_foot(f, xbar, U, fU)
    else:
        boundary_witness, d_S = foot(xbar)

    sub = SearchRegion(region.box,
                       min(region.grid_resolution, 7),
                       min(region.sample_budget, slope_budget),
                       region.seed)
    # with no boundary found (d_S = inf) the strict ball is the whole region
    inside = np.linalg.norm(U - xbar[None, :], axis=1) < d_S * (1 - 1e-9)
    ok = inside & (fU <= f_val)
    cand = [U[i] for i in np.where(ok)[0][:max_slope_points]]
    if boundary_witness is not None:
        t = np.linspace(0.15, 0.9, 5)
        seg = xbar + t[:, None] * (boundary_witness - xbar)
        cand.extend(seg[f(seg) <= f_val])
        cand.extend(_low_slope_probes(f, xbar, f_val, d_S, region))
    cand.append(xbar)

    m_hat = min([np.inf] + [est.value for est in
                            _global_slopes(f, np.array(cand), sub)])
    if np.isinf(m_hat):
        m_hat = 0.0

    if m_hat == 0.0:
        lhs = 0.0
    elif np.isinf(d_S):
        lhs = np.inf
    else:
        lhs = m_hat * d_S
    holds = bool(lhs <= f_val * (1.0 + 1e-6))
    return ErrorBoundCertificate(float(f_val), float(d_S), float(m_hat),
                                 holds, boundary_witness, len(cand))
