"""Descent-rate (strong slope) estimators for extended-real scalar fields.

A field is one batch evaluator f(X) -> (B,) over the rows of X, (B, dim);
a single point is evaluated as a one-row batch.

The local estimator samples spheres on a halving radius ladder and keeps the
steepest observed descent ratio [f(x) - f(y)]+ / |x - y|; the global variant
adds region-wide samples, lattice nodes, and a deterministic coordinate
ascent polish.  Estimates are lower bounds of the true suprema by
construction.  The global estimator's candidate set contains a full local
ladder, so local <= global holds for the estimates themselves, matching the
ordering of the quantities they approximate.

The error-bound certificate combines the two: an upper estimate of the
distance to the sublevel set {f <= 0} and a lower estimate of the slope
infimum over the strict ball around the reference point, checked against
f at the point.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import rng
from .errors import InSet
from .multimap import SearchRegion

Field = Callable[[np.ndarray], np.ndarray]

_MIN_STEP_DIST = 1e-10
_LOCAL_LEVELS = 6        # radii r0 * 2^-k of the local ladder
_LOCAL_SAMPLES = 24      # sphere samples per ladder level
_ASCENT_STEPS = 20       # coordinate ascent steps per polish
_SEGMENT_ITERS = 60      # bisection steps on a segment [xbar, u]
_RAY_ITERS = 45          # bisection steps per direction-descent candidate
_POLISH_ROUNDS = 8       # gradient re-bisections of a boundary point
_DESCENT_ROUNDS = 24     # pattern-search rounds over ray directions
_PROBE_KEEP = 6          # low-slope probes kept per certificate
_POLISH_FACTORS = (1.0 + 1e-9, 1.001, 1.01, 1.1, 1.5, 3.0)
_DESCENT_FACTORS = (1.0 + 1e-9, 1.01, 1.1, 1.3, 2.0)


def _at(f: Field, x: np.ndarray) -> float:
    """f at a single point, as a one-row batch."""
    return float(f(x[None, :])[0])


@dataclass
class SlopeEstimate:
    """value is a lower bound of the targeted slope; witnesses hold (point,
    ratio) pairs that reproduce their ratios exactly on re-evaluation."""

    value: float
    radius_ladder: list = field(default_factory=list)
    witnesses: list = field(default_factory=list)
    mode: str = "local"


def _ratios(f: Field, x: np.ndarray, fx: float,
            Y: np.ndarray) -> np.ndarray:
    fY = f(Y)
    dist = np.linalg.norm(Y - x[None, :], axis=1)
    ok = dist >= _MIN_STEP_DIST
    out = np.full(Y.shape[0], -np.inf)
    drop = np.maximum(fx - fY[ok], 0.0)
    out[ok] = drop / dist[ok]
    return out


def _coordinate_ascent(f: Field, x: np.ndarray, fx: float,
                       Y0: np.ndarray, h0: np.ndarray):
    """Pattern search on the descent ratio, batched over candidates.

    Each step polls every +-h axis move of every candidate in a single
    batched evaluation, takes the best move per candidate, and halves the
    step where nothing improved.
    """
    Y = Y0.copy()
    h = h0.copy()
    best = _ratios(f, x, fx, Y)
    n = x.size
    C = Y.shape[0]
    eye = np.eye(n)
    moves = np.concatenate([eye, -eye], axis=0)
    for _ in range(_ASCENT_STEPS):
        cand = Y[:, None, :] + h[:, None, None] * moves[None, :, :]
        flat = cand.reshape(C * 2 * n, n)
        r = _ratios(f, x, fx, flat).reshape(C, 2 * n)
        bi = np.argmax(r, axis=1)
        bv = r[np.arange(C), bi]
        gain = bv > best
        Y[gain] = cand[gain, bi[gain]]
        best[gain] = bv[gain]
        h = np.where(gain, h, 0.5 * h)
    return Y, best


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
    ladder = []
    cand_pts = []
    cand_h = []
    for k in range(_LOCAL_LEVELS):
        r = r0 * 0.5 ** k
        dirs = rng.sphere_points(rng.stream(seed, "local-slope", k),
                                 _LOCAL_SAMPLES, x.size)
        Y = x[None, :] + r * dirs
        ratios = _ratios(f, x, fx, Y)
        best = int(np.argmax(ratios))
        ladder.append([r, float(ratios[best])])
        cand_pts.append(Y[best])
        cand_h.append(r / 8.0)
    Yp, polished = _coordinate_ascent(f, x, fx, np.array(cand_pts),
                                      np.array(cand_h))
    for k in range(_LOCAL_LEVELS):
        ladder[k][1] = float(max(ladder[k][1], polished[k]))
    value = max(v for _, v in ladder[-3:])
    witnesses = [(Yp[k].copy(), float(polished[k]))
                 for k in range(_LOCAL_LEVELS - 3, _LOCAL_LEVELS)]
    return SlopeEstimate(float(value), [(r, v) for r, v in ladder],
                         witnesses, "local")


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
    x = np.asarray(x, dtype=float).reshape(-1)
    fx = _at(f, x)
    if np.isinf(fx):
        return SlopeEstimate(np.inf, [], [], "global")
    samples = region.uniform_samples("global-slope", region.sample_budget)
    nodes = region.grid_nodes()
    ratios_s = _ratios(f, x, fx, samples)
    ratios_n = _ratios(f, x, fx, nodes)
    raw = max(float(np.max(ratios_s, initial=-np.inf)),
              float(np.max(ratios_n, initial=-np.inf)))

    idx = set()
    p = 1
    while p <= samples.shape[0]:
        idx.add(int(np.argmax(ratios_s[:p])))
        p *= 2
    idx.add(int(np.argmax(ratios_s)))
    order = np.argsort(-ratios_s, kind="stable")[:10]
    idx.update(int(i) for i in order)
    all_pts = [samples[i] for i in sorted(idx)]
    if nodes.shape[0]:
        all_pts.append(nodes[int(np.argmax(ratios_n))])
    cand = np.array(all_pts)
    width = float(np.min(region.box[:, 1] - region.box[:, 0]))
    h0 = np.full(cand.shape[0], 0.05 * width)
    Yp, polished = _coordinate_ascent(f, x, fx, cand, h0)

    lad = local_slope(f, x, r0=default_local_r0(region), seed=region.seed)
    value = max(raw, float(np.max(polished, initial=-np.inf)), lad.value)

    top = int(np.argmax(polished))
    witnesses = [(Yp[top].copy(), float(polished[top]))]
    witnesses.extend(lad.witnesses[-1:])
    return SlopeEstimate(float(max(value, 0.0)), lad.radius_ladder,
                         witnesses, "global")


@dataclass
class ErrorBoundCertificate:
    """Numerical check of the slope error bound at xbar.

    d_sublevel is an upper estimate of d(xbar, {f <= 0}); slope_inf a lower
    estimate of the slope infimum over the strict ball; holds records
    slope_inf * d_sublevel <= f(xbar) up to a 1e-6 relative slack.
    """

    f_value: float
    d_sublevel: float
    slope_inf: float
    holds: bool
    boundary_witness: np.ndarray | None
    n_slope_points: int


def _bisect(f: Field, xbar, D, hi, iters: int):
    """Per row, bisect the ray xbar + t D on [0, hi] for where f turns
    nonpositive; f(xbar + hi D) <= 0 must hold.  Returns the feasible end
    of each final bracket."""
    lo = np.zeros(D.shape[0])
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        feas = f(xbar[None, :] + mid[:, None] * D) <= 0.0
        hi = np.where(feas, mid, hi)
        lo = np.where(feas, lo, mid)
    return hi


def _segment_hits(f: Field, xbar, D):
    """(point, distance) of the f <= 0 crossing on each segment
    [xbar, xbar + D]; f <= 0 at every segment end."""
    t = _bisect(f, xbar, D, np.ones(D.shape[0]), _SEGMENT_ITERS)
    return [(xbar + ti * Di, ti * float(np.linalg.norm(Di)))
            for ti, Di in zip(t, D)]


def _reach(f: Field, xbar, D, scale, factors):
    """Per-row parameter at which f turns nonpositive, inf if never.

    Probes the ladder scale * factors; rows whose ray misses the sublevel
    set inside the ladder are reported unreachable."""
    t_hi = np.full(D.shape[0], np.inf)
    for factor in factors:
        open_rows = np.where(np.isinf(t_hi))[0]
        if open_rows.size == 0:
            break
        t = scale * factor
        vals = f(xbar[None, :] + t * D[open_rows])
        t_hi[open_rows[vals <= 0.0]] = t
    return t_hi


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
    one step on flat boundaries; corners get a capped iteration.  Never
    returns a worse point than it was given."""
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
    return _direction_descent(f, xbar, best_w, best_d)


def _direction_descent(f: Field, xbar, w, d):
    """Minimize the boundary distance over ray directions from xbar.

    The gradient step stalls at corner feet where the boundary has no
    single normal; a pattern search over unit directions with a vectorized
    re-bisection per candidate does not, because each trial direction is
    re-anchored to the boundary exactly."""
    best_u = (np.asarray(w, dtype=float) - xbar)
    norm = float(np.linalg.norm(best_u))
    if norm <= 0.0 or d <= 0.0:
        return np.asarray(w, dtype=float), float(d)
    best_u /= norm
    best_d = float(d)
    eye = np.eye(xbar.size)
    h = 0.5
    for _ in range(_DESCENT_ROUNDS):
        cand = np.vstack([best_u[None, :] + h * eye,
                          best_u[None, :] - h * eye])
        norms = np.linalg.norm(cand, axis=1)
        cand = cand[norms > 1e-12] / norms[norms > 1e-12, None]
        t_hi = _reach(f, xbar, cand, best_d, _DESCENT_FACTORS)
        reach = np.isfinite(t_hi)
        if np.any(reach):
            cand = cand[reach]
            hi = _bisect(f, xbar, cand, t_hi[reach], _RAY_ITERS)
            j = int(np.argmin(hi))
            if hi[j] < best_d:
                best_u = cand[j]
                best_d = float(hi[j])
            else:
                h *= 0.5
        else:
            h *= 0.5
        if h < 1e-9:
            break
    return xbar + best_d * best_u, best_d


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
                            slope_budget: int = 300) -> ErrorBoundCertificate:
    """Check the error bound f(xbar) >= slope_inf * d(xbar, {f <= 0}).

    Raises InSet when f(xbar) <= 0 (the bound is about points outside the
    sublevel set).  The slope infimum runs over sampled points strictly
    closer to xbar than the sublevel set, with the strict ball realized as
    the closed ball shrunk by a 1e-9 relative margin.
    """
    xbar = np.asarray(xbar, dtype=float).reshape(-1)
    f_val = _at(f, xbar)
    if f_val <= 0.0:
        raise InSet("reference point already satisfies f <= 0")

    U = np.vstack([region.uniform_samples("eb-sublevel", region.sample_budget),
                   region.grid_nodes()])
    fU = f(U)
    feas = np.where(fU <= 0.0)[0]
    boundary_witness = None
    d_S = np.inf
    if feas.size:
        dists = np.linalg.norm(U[feas] - xbar[None, :], axis=1)
        near = feas[np.argsort(dists, kind="stable")[:8]]
        hits = sorted(_segment_hits(f, xbar, U[near] - xbar[None, :]),
                      key=lambda pair: pair[1])
        for w, d in hits[:3]:
            w2, d2 = _polish_boundary(f, xbar, w, d)
            if d2 < d_S:
                d_S = d2
                boundary_witness = w2

    sub = SearchRegion(region.box,
                       min(region.grid_resolution, 7),
                       min(region.sample_budget, slope_budget),
                       region.seed)
    # with no boundary found (d_S = inf) the strict ball is the whole region
    inside = np.linalg.norm(U - xbar[None, :], axis=1) < d_S * (1 - 1e-9)
    ok = inside & (fU <= f_val)
    cand = [U[i] for i in np.where(ok)[0][:max_slope_points]]
    if boundary_witness is not None:
        for t in np.linspace(0.15, 0.9, 5):
            c = xbar + t * (boundary_witness - xbar)
            if _at(f, c) <= f_val:
                cand.append(c)
        cand.extend(_low_slope_probes(f, xbar, f_val, d_S, region))
    cand.append(xbar)

    m_hat = min([np.inf] + [global_slope(f, c, sub).value for c in cand])
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
