"""Certification criteria for (directional) metric regularity of F = f - K.

Everything here estimates or certifies the linear-rate inequality
d(x, F^-1(y)) <= tau * d(y, F(x)) near a graph point (x0, y0), restricted to
perturbations y that approach the image from the direction cone when one is
given.  The estimators are Monte Carlo over the product neighborhood (the
pair-space ball uses the max of the componentwise euclidean norms, recorded
in reports as norm_choice), the certificates are LP or dual-sampling based,
and each run is a pure function of (query, seed).
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from . import rng
from .errors import (
    DimensionMismatch,
    InvalidParameter,
    InvalidPerturbation,
    NoAdmissibleSamples,
    NotInSet,
    NotPolyhedral,
    RegcertError,
)
from .geometry import (
    TOL_FEAS,
    TOL_MEMBER,
    DirectionalCone,
    Polyhedron,
    _rows,
    as_vector,
    normal_cone_masks,
    project_onto_generated_cones,
    solve_lp,
)
from .multimap import (
    MultiMap,
    SearchRegion,
    as_polyhedron,
    default_region,
    envelope_batch,
    image_distance,
    image_distance_batch,
    preimage_distance_batch,
    _member_mask,
)
from .slopes import _global_slopes

NORM_CHOICE = "max of componentwise euclidean norms on X x Y"
SLOPE_SLACK = 0.05
_MIN_IMAGE = 1e-12
_PASS_BLOCKS = 8   # sample blocks per batched modulus pass (4,096 pairs)
_DUAL_ATTEMPTS = 16
_DUAL_TOL = 1e-9
_LAMBDA_MAX = 10.0  # box bounds of the interiority LP
_U_MAX = 10.0


@dataclass
class RegularityQuery:
    """A regularity question at a graph point: is F regular near (x0, y0)?

    dc=None asks about plain metric regularity; otherwise only perturbations
    from the direction cone count.  y0 must lie in F(x0) within tol_member.
    """

    F: MultiMap
    x0: np.ndarray
    y0: np.ndarray
    dc: DirectionalCone | None = None
    epsilon: float = 0.5
    region: SearchRegion | None = None
    tol_member: float = TOL_MEMBER

    def __post_init__(self):
        self.x0 = as_vector(self.x0, self.F.dim_in, "x0")
        self.y0 = as_vector(self.y0, self.F.dim_out, "y0")
        self.epsilon = float(self.epsilon)
        if not (np.isfinite(self.epsilon) and self.epsilon > 0.0):
            raise InvalidParameter("epsilon must be positive")
        self.tol_member = float(self.tol_member)
        if not (np.isfinite(self.tol_member) and self.tol_member >= 0.0):
            raise InvalidParameter("tol_member must be finite and "
                                   "nonnegative")
        if self.dc is not None and self.dc.dim != self.F.dim_out:
            raise DimensionMismatch("direction cone lives in the wrong space")
        gap = image_distance(self.F, self.x0, self.y0)
        if gap > self.tol_member:
            raise NotInSet(f"y0 is not in F(x0): image distance {gap:.3g}")
        if self.region is None:
            self.region = default_region(self.x0, 2.5 * self.epsilon,
                                         sample_budget=4000,
                                         grid_resolution=7)

    @property
    def seed(self) -> int:
        return self.region.seed


# ---------------------------------------------------------------------------
# Empirical directional modulus.

@dataclass
class ModulusEstimate:
    """sup of preimage/image distance ratios over admissible samples.

    A lower bound of the true modulus when preimage distances are exact
    (affine f, polyhedral K); +inf when an admissible sample has an empty
    preimage.  samples holds per-sample records when collection was asked.
    """

    sup_ratio: float
    worst_witness: tuple | None
    n_admissible: int
    n_checked: int
    samples: list | None = None


def _admissible_mask(q: RegularityQuery, X: np.ndarray, Y: np.ndarray):
    img = image_distance_batch(q.F, X, Y)
    adm = (img > _MIN_IMAGE) & (img < q.epsilon)
    if q.dc is not None and np.any(adm):
        adm[adm] = _member_mask(q.F, X[adm], Y[adm], q.dc, q.tol_member)
    return adm, img


def _pair_points(q: RegularityQuery, label: str, index: int, radius: float,
                 count: int):
    """Pairs (X, Y) of block index of the label's stream in B(x0, radius) x
    B(y0, radius).

    A full rng.BLOCK is drawn and the first count pairs kept, so a larger
    budget only appends pairs.
    """
    X = rng.ball_points(rng.stream(q.seed, label + "-x", index),
                        rng.BLOCK, q.x0, radius)[:count]
    Y = rng.ball_points(rng.stream(q.seed, label + "-y", index),
                        rng.BLOCK, q.y0, radius)[:count]
    return X, Y


def _modulus_pass(q: RegularityQuery, blocks, collect: bool):
    """The pairs of the sample blocks `blocks` (ascending, contiguous),
    each drawn from its own stream, judged as one batch.

    Each row's admissibility and preimage distance is the one it gets in a
    batch of its own, so the pass has the bits of a loop over the blocks.
    Returns X, Y, img, pre, ratio, adm in block order.
    """
    budget = q.region.sample_budget
    drawn = [_pair_points(q, "modulus", bi, q.epsilon,
                          rng.block_size(budget, bi)) for bi in blocks]
    if len(drawn) == 1:
        [(X, Y)] = drawn
    else:
        X, Y = (np.concatenate(part) for part in zip(*drawn))
    adm, img = _admissible_mask(q, X, Y)
    pre = np.full(X.shape[0], np.nan)
    need = np.ones(X.shape[0], dtype=bool) if collect else adm
    if np.any(need):
        pre[need] = preimage_distance_batch(q.F, Y[need], X[need])
    with np.errstate(invalid="ignore", divide="ignore"):
        ratio = np.where(img > _MIN_IMAGE, pre / img, np.nan)
    return X, Y, img, pre, ratio, adm


def _check_threads(threads: int) -> int:
    if threads < 1:
        raise InvalidParameter("threads must be at least 1")
    return int(threads)


def empirical_directional_modulus(q: RegularityQuery, threads: int = 1,
                                  collect: bool = False) -> ModulusEstimate:
    """Sampled sup of d(x, F^-1(y)) / d(y, F(x)) over the admissible pairs.

    Pairs are drawn in B(x0, eps) x B(y0, eps); a pair is admissible when y
    lies in F(x) + the direction cone (within tol) and its image distance
    sits strictly between 0 and eps.  Sampling is blocked and counter-seeded,
    so the estimate is nondecreasing in the budget for a fixed seed and
    independent of the thread count.

    The blocks are judged in batched passes of at most _PASS_BLOCKS blocks
    each: the block list splits into max(threads, ceil(blocks /
    _PASS_BLOCKS)) contiguous passes, at most one per block, which threads
    run side by side.  A row is judged the same in any batch, so every
    split gives the bits of a block-by-block loop, and the witness is the
    first maximum in block order.

    Raises NoAdmissibleSamples when the filter rejects the whole budget.
    """
    threads = _check_threads(threads)
    budget = q.region.sample_budget
    nblocks = rng.block_count(budget)
    npasses = min(nblocks, max(threads, -(-nblocks // _PASS_BLOCKS)))
    passes = np.array_split(np.arange(nblocks), npasses)

    def run(blocks):
        return _modulus_pass(q, blocks, collect)

    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as ex:
            results = list(ex.map(run, passes))
    else:
        results = map(run, passes)

    sup = -np.inf
    witness = None
    n_adm = 0
    records = [] if collect else None
    for X, Y, img, pre, ratio, adm in results:
        n_adm += int(adm.sum())
        if collect:
            for i in range(X.shape[0]):
                records.append({
                    "x": X[i].copy(), "y": Y[i].copy(),
                    "image_dist": float(img[i]),
                    "preimage_dist": float(pre[i]),
                    "ratio": float(ratio[i]),
                    "admissible": bool(adm[i]),
                })
        if np.any(adm):
            r = np.where(adm, ratio, -np.inf)
            i = int(np.argmax(r))
            if r[i] > sup:
                sup = float(r[i])
                witness = (X[i].copy(), Y[i].copy())
    if n_adm == 0:
        raise NoAdmissibleSamples(
            f"membership filter rejected all {budget} samples")
    return ModulusEstimate(sup, witness, n_adm, budget, records)


# ---------------------------------------------------------------------------
# Slope criteria.

def _admissible_pairs(q: RegularityQuery, label: str, count: int):
    out = []
    budget = q.region.sample_budget
    for bi in range(rng.block_count(budget)):
        X, Y = _pair_points(q, label, bi, q.epsilon,
                            rng.block_size(budget, bi))
        adm, _ = _admissible_mask(q, X, Y)
        out += zip(X[adm], Y[adm])
        if len(out) >= count:
            break
    return out[:count]


def _envelope_slopes(q: RegularityQuery, pairs, halfwidth: float,
                     resolution: int, budget: int) -> list:
    """Global slope of u -> envelope(F, dc, u, y) at x for each (x, y),
    searched in the box x0 +- halfwidth.

    The pairs run as one global-slope pass whose field gives each row the
    y of its pair, so each slope has the bits of its pair run alone.
    """
    box = np.stack([q.x0 - halfwidth, q.x0 + halfwidth], axis=1)
    sregion = SearchRegion(box, resolution, budget, q.seed)
    lip = q.F.lipschitz_bound(box)
    X = np.array([x for x, _ in pairs])
    Y = np.array([y for _, y in pairs])

    def field(U, owner):
        return envelope_batch(q.F, q.dc, U, Y[owner], q.tol_member, lip)

    return [float(est.value)
            for est in _global_slopes(field, X, sregion, per_centre=True)]


@dataclass
class SlopeCriterionResult:
    """Slope test for regularity with modulus tau.

    holds when every observed envelope slope stays above (1/tau) shrunk by
    the configured slack; violators list (x, y, slope) triples below it.
    """

    holds: bool
    min_slope: float
    violators: list
    threshold: float
    tau: float
    slack: float


def slope_criterion(q: RegularityQuery, tau: float, n_points: int = 24,
                    slope_budget: int = 300,
                    slack: float = SLOPE_SLACK) -> SlopeCriterionResult:
    """Check that the envelope descent slope stays >= 1/tau on samples.

    For each admissible (x, y) the slope of u -> envelope(F, dc, u, y) at x
    is estimated globally; the criterion holds when the minimum stays above
    (1/tau)(1 - slack), with slack in [0, 1): a slack of 1 or more makes
    the threshold 0 or negative, which every slope passes.
    """
    if tau <= 0:
        raise InvalidParameter("tau must be positive")
    if not 0.0 <= slack < 1.0:
        raise InvalidParameter("slack must lie in [0, 1)")
    pairs = _admissible_pairs(q, "slope-crit", n_points)
    if not pairs:
        raise NoAdmissibleSamples(
            f"membership filter rejected all {q.region.sample_budget} samples")
    slopes = _envelope_slopes(q, pairs, 2.5 * q.epsilon, 7, slope_budget)
    min_slope = min(slopes)
    threshold = (1.0 / tau) * (1.0 - slack)
    violators = [(x, y, s) for (x, y), s in zip(pairs, slopes)
                 if s < threshold]
    return SlopeCriterionResult(min_slope >= threshold, float(min_slope),
                                violators, threshold, float(tau), slack)


def modulus_from_slopes(q: RegularityQuery, ladder_depth: int = 5,
                        pairs_per_level: int = 16,
                        slope_budget: int = 200) -> float:
    """Modulus as 1 / (liminf of envelope slopes toward the graph point).

    Admissible pairs are drawn on shrinking neighborhoods eps * 2^-k; the
    liminf is realized numerically as the minimum over the last three
    nonempty ladder levels of the per-level minimum slope.  Each level
    keeps only pairs whose image distance clears 0.05 of its radius, so
    the descent toward the preimage stays resolvable at the probe scales.
    Cross-check target for empirical_directional_modulus.
    """
    levels = []
    for k in range(ladder_depth):
        r = q.epsilon * 0.5 ** k
        X, Y = _pair_points(q, "mfs", k, r, rng.BLOCK)
        adm, img = _admissible_mask(q, X, Y)
        keep = adm & (img >= 0.05 * r)
        pairs = list(zip(X[keep], Y[keep]))[:pairs_per_level]
        if pairs:
            levels.append(min(_envelope_slopes(q, pairs, 8.0 * r, 5,
                                               slope_budget)))
    if not levels:
        raise NoAdmissibleSamples(
            "membership filter rejected every ladder level")
    liminf = min(levels[-3:])
    if liminf <= 1e-12:
        return np.inf
    return 1.0 / liminf


# ---------------------------------------------------------------------------
# Dual pairs and the coderivative criterion.

def _row_dot(U: np.ndarray, V: np.ndarray) -> np.ndarray:
    """u_s . v_s per row (V may be one vector): a matmul over stacks of
    vectors, which NumPy sends to the BLAS dot a 1-D u @ v takes, so each
    row gets the bits of its own dot and of np.linalg.norm(u) = sqrt(u . u).
    """
    return np.matmul(U[:, None, :], V[..., None])[:, 0, 0]


def _dual_valid(Y1: np.ndarray, Y2: np.ndarray, ybar: np.ndarray,
                delta: float) -> np.ndarray:
    """Mask of the rows (y1*, y2*) in the dual pair set up to _DUAL_TOL:
    |y1*| <= 1 + delta, y1* . ybar <= delta, |y2* . ybar| <= delta and
    |y1* + y2*| = 1."""
    S = Y1 + Y2
    return ((np.sqrt(_row_dot(Y1, Y1)) <= 1.0 + delta + _DUAL_TOL)
            & (_row_dot(Y1, ybar) <= delta + _DUAL_TOL)
            & (np.abs(_row_dot(Y2, ybar)) <= delta + _DUAL_TOL)
            & (np.abs(np.sqrt(_row_dot(S, S)) - 1.0) <= _DUAL_TOL))


@dataclass
class DualPair:
    """A point of the dual admissible product set with unit sum norm."""

    y1star: np.ndarray
    y2star: np.ndarray
    delta: float

    def is_valid(self, ybar) -> bool:
        return bool(_dual_valid(_rows(self.y1star), _rows(self.y2star),
                                np.asarray(ybar, dtype=float),
                                self.delta)[0])


def _dual_pair_arrays(ybar: np.ndarray, delta: float, budget: int,
                      seed: int, label: str):
    """sample_dual_pairs as arrays (Y1, Y2), ybar a vector."""
    if delta < 0:
        raise InvalidParameter("delta must be nonnegative")
    if budget < 1:
        raise InvalidParameter("budget must be positive")
    dim = ybar.size
    Y1, Y2 = [], []
    for bi in range(rng.block_count(budget)):
        nb = rng.block_size(budget, bi)
        w = rng.sphere_points(rng.stream(seed, label + "-w", bi),
                              rng.BLOCK, dim)[:nb]
        y2 = np.zeros((nb, dim))
        got = np.zeros(nb, dtype=bool)
        for attempt in range(_DUAL_ATTEMPTS):
            if np.all(got):
                break
            cand = rng.ball_points(rng.stream(seed, label + "-y2", bi, attempt),
                                   rng.BLOCK, np.zeros(dim), 1.0 + delta)[:nb]
            ok = (~got) & (np.abs(cand @ ybar) <= delta)
            y2[ok] = cand[ok]
            got |= ok
        y1 = w - y2
        keep = (got
                & (np.linalg.norm(y1, axis=1) <= 1.0 + delta)
                & ((y1 @ ybar) <= delta) & _dual_valid(y1, y2, ybar, delta))
        Y1.append(y1[keep])
        Y2.append(y2[keep])
    return np.concatenate(Y1), np.concatenate(Y2)


def sample_dual_pairs(ybar, delta: float, budget: int, seed: int = 0,
                      label: str = "dual") -> list[DualPair]:
    """Sample the dual pair set by parametrizing the unit sum first.

    Draw w on the unit sphere and y2star in the slab-ball intersection by
    rejection, then set y1star = w - y2star and keep the pair when it lands
    in its constraint set.  Every emitted pair passes full re-validation;
    fewer than budget pairs may come back.
    """
    delta = float(delta)
    Y1, Y2 = _dual_pair_arrays(as_vector(ybar, name="ybar"), delta, budget,
                               seed, label)
    return [DualPair(y1, y2, delta) for y1, y2 in zip(Y1, Y2)]


def _pair_values(f, X, P1, P2, ybar, delta: float):
    """(rows, values): ||J(x)^T s|| at the rows of X whose cone-projected
    pair (P1, P2) has a sum off 0 and stays valid, rescaled to a unit sum
    s, in the arithmetic of a 1-D norm and J.T @ s on each row."""
    S = P1 + P2
    ns = np.sqrt(_row_dot(S, S))[:, None]
    live = np.flatnonzero(ns[:, 0] >= 1e-9)
    live = live[_dual_valid(P1[live] / ns[live], P2[live] / ns[live], ybar,
                            delta)]
    V = np.matmul(np.swapaxes(f.jacobian_batch(X[live]), 1, 2),
                  (S[live] / ns[live])[:, :, None])[:, :, 0]
    return live, np.sqrt(_row_dot(V, V))


@dataclass
class CoderivativeEstimate:
    """Sampled min of ||J(x)^T (y1* + y2*)|| over normal-cone dual pairs.

    The min over a finite sample is an upper bound of the true infimum, so
    holds_for_m(m) certifies soundly only together with that direction
    (recorded in bound_direction).
    """

    inf_value: float
    per_delta: list
    n_pairs: int
    bound_direction: str = "upper"

    def holds_for_m(self, m: float) -> bool:
        return self.inf_value > m


def coderivative_criterion(q: RegularityQuery,
                           delta_ladder=(0.2, 0.1, 0.05),
                           samples_per_delta: int = 800) -> CoderivativeEstimate:
    """Estimate the coderivative nonsingularity level along the direction.

    For each ladder delta: sample x near x0, base points k1, k2 on K near
    k0 = f(x0) - y0, and dual pairs with unit sum; push each dual vector
    into the normal cone at its base point (nonnegative combinations of
    active rows), rescale the sum back to unit norm, re-validate the
    constraints, and record ||J(x)^T (y1* + y2*)||.  A rung is one array
    pass (project_onto_generated_cones, _pair_values) with the bits of a
    loop over the pairs.  NoAdmissibleSamples when no pair survives on any
    rung.
    """
    Kp = as_polyhedron(q.F.K)
    if Kp is None:
        raise NotPolyhedral("K has no halfspace form for normal cones")
    if q.dc is None:
        raise InvalidParameter("coderivative criterion needs a direction")
    ybar = q.dc.ybar
    k0 = Kp.project(q.F.f(q.x0) - q.y0)
    scale = 0.05 * (1.0 + float(np.linalg.norm(k0)))
    per_delta = []
    for di, delta in enumerate(delta_ladder):
        delta = float(delta)
        Y1, Y2 = _dual_pair_arrays(ybar, delta, samples_per_delta, q.seed,
                                   f"coder-dual-{di}")
        nv = Y1.shape[0]
        X = rng.ball_points(rng.stream(q.seed, "coder-x", di), nv, q.x0,
                            0.3 * q.epsilon)
        noise = np.vstack([
            rng.stream(q.seed, "coder-k1", di).normal(size=(nv, Kp.dim)),
            rng.stream(q.seed, "coder-k2", di).normal(size=(nv, Kp.dim))])
        base = Kp.project_batch(k0[None, :] + scale * noise)
        P = project_onto_generated_cones(Kp.C, normal_cone_masks(Kp, base),
                                         np.vstack([Y1, Y2]))
        live, vals = _pair_values(q.F.f, X, P[:nv], P[nv:], ybar, delta)
        per_delta.append((delta, float(np.fmin.reduce(vals, initial=np.inf)),
                          live.size))
    n_total = sum(n for _, _, n in per_delta)
    if n_total == 0:
        raise NoAdmissibleSamples("no dual pair survived on any ladder delta")
    return CoderivativeEstimate(min(v for _, v, _ in per_delta), per_delta,
                                n_total)


# ---------------------------------------------------------------------------
# Interiority (Robinson-type) LP conditions.

@dataclass
class InteriorityResult:
    """Outcome of the signed-axis interiority LP.

    margin is the certified inradius of the image set around the ray, and is
    relative to the box bounds it was solved under.
    """

    holds: bool
    margin: float
    lambda_max: float
    u_max: float


def _interiority_lp(M: np.ndarray, offset: np.ndarray, Kp: Polyhedron,
                    ybar: np.ndarray, lambda_max: float,
                    u_max: float) -> float:
    """max eps with lam*ybar +- eps*e_i all inside offset + M u - K.

    Containing the 2m signed axis points of radius eps forces the whole
    l1 ball of radius eps inside the convex image set, hence interiority.
    Each axis point gets its own u; lam and eps are shared.  The point's
    k = offset + M u - lam*ybar - s*eps*e_i is substituted into C k <= d,
    so the LP has no k columns and no equality rows.
    """
    m = offset.size
    n = M.shape[1]
    CM = Kp.C @ M
    Cy = Kp.C @ ybar
    slack = Kp.d - Kp.C @ offset
    nk = Kp.n_rows
    blocks = [(i, s) for i in range(m) for s in (1.0, -1.0)]
    ncols = 2 + len(blocks) * n
    rows, rhs = [], []
    for bidx, (i, s) in enumerate(blocks):
        ucol = 2 + bidx * n
        R = np.zeros((nk + 2 * n, ncols))
        R[:nk, 0] = -s * Kp.C[:, i]
        R[:nk, 1] = -Cy
        R[:nk, ucol:ucol + n] = CM
        R[nk:, ucol:ucol + n] = np.vstack([np.eye(n), -np.eye(n)])
        rows.append(R)
        rhs += [slack, np.full(2 * n, float(u_max))]
    # 0 <= lam <= lambda_max and 0 <= eps <= u_max
    R = np.zeros((4, ncols))
    R[[0, 1, 2, 3], [1, 1, 0, 0]] = (1.0, -1.0, 1.0, -1.0)
    rows.append(R)
    rhs.append([lambda_max, 0.0, u_max, 0.0])
    A, rhs = np.vstack(rows), np.concatenate(rhs)
    # a row with no variable left in it holds at every point or at none;
    # Polyhedron drops the first kind
    if np.any((np.linalg.norm(A, axis=1) <= 1e-12) & (rhs < -1e-12)):
        return 0.0
    obj = np.zeros(ncols)
    obj[0] = 1.0
    res = solve_lp(obj, Polyhedron(A, rhs))
    if res.status == "optimal":
        return max(float(res.value), 0.0)
    if res.status == "infeasible":
        return 0.0
    return float(u_max)


def robinson_condition(F: MultiMap, x0, y0, ybar) -> InteriorityResult:
    """LP test that the ray through ybar meets Int(f(x0) - y0 + Im J(x0) - K).

    The condition is taken at the graph point (x0, y0): the linearized image
    set is shifted by y0 before the ray from the origin is tested.  For
    affine f at x0 = 0 this is the convex range condition, the ray through
    ybar meeting Int(F(X) - y0).
    """
    Kp = as_polyhedron(F.K)
    if Kp is None:
        raise NotPolyhedral("K has no halfspace form for the interiority LP")
    x0 = as_vector(x0, F.dim_in, "x0")
    y0 = as_vector(y0, F.dim_out, "y0")
    ybar = as_vector(ybar, F.dim_out, "ybar")
    margin = _interiority_lp(F.f.jacobian(x0), F.f(x0) - y0, Kp, ybar,
                             _LAMBDA_MAX, _U_MAX)
    return InteriorityResult(margin > TOL_FEAS, margin, _LAMBDA_MAX, _U_MAX)


# ---------------------------------------------------------------------------
# Perturbation stability bound.

def perturbation_bound(tau: float, delta: float, ybar_norm: float,
                       alpha: float, L: float) -> float:
    """Modulus bound for F + g with g Lipschitz of rank L.

    Returns ((1 - gamma) / (tau (1 + gamma)) - L)^-1 with
    gamma = alpha ||ybar|| / (||ybar|| + delta (1 - alpha)); always >= tau.
    Raises InvalidPerturbation when L reaches the admissible threshold
    delta (1 - alpha) alpha / (tau ((1 + alpha) ||ybar|| + delta (1 - alpha))).
    """
    tau = float(tau)
    delta = float(delta)
    ybar_norm = float(ybar_norm)
    alpha = float(alpha)
    L = float(L)
    if not (np.isfinite(tau) and tau > 0):
        raise InvalidParameter("tau must be positive")
    if not (np.isfinite(delta) and delta > 0):
        raise InvalidParameter("delta must be positive")
    if not (np.isfinite(ybar_norm) and ybar_norm >= 0):
        raise InvalidParameter("ybar_norm must be nonnegative")
    if not (np.isfinite(alpha) and 0.0 < alpha < 1.0):
        raise InvalidParameter("alpha must lie strictly between 0 and 1")
    if not (np.isfinite(L) and L >= 0):
        raise InvalidParameter("L must be nonnegative")
    L_max = (delta * (1.0 - alpha) * alpha
             / (tau * ((1.0 + alpha) * ybar_norm + delta * (1.0 - alpha))))
    if L >= L_max:
        raise InvalidPerturbation(
            f"Lipschitz rank {L:g} is not below the admissible bound {L_max:g}")
    gamma = alpha * ybar_norm / (ybar_norm + delta * (1.0 - alpha))
    return 1.0 / ((1.0 - gamma) / (tau * (1.0 + gamma)) - L)


# ---------------------------------------------------------------------------
# Parametric sweeps.

@dataclass
class SweepResult:
    """Uniform modulus over a parameter grid (max of the per-p estimates)."""

    uniform_modulus: float
    per_p: list


def parametric_sweep(family, p_grid, q_template: RegularityQuery,
                     threads: int = 1) -> SweepResult:
    """Run the empirical modulus for every p; the uniform modulus must
    dominate each of them.  Per-p failures re-raise with p attached."""
    _check_threads(threads)
    per_p = []
    uniform = 0.0
    for p in p_grid:
        try:
            qp = replace(q_template, F=family(p))
            est = empirical_directional_modulus(qp, threads=threads)
        except RegcertError as exc:
            raise type(exc)(f"p={p}: {exc}") from exc
        per_p.append((p, float(est.sup_ratio)))
        uniform = max(uniform, float(est.sup_ratio))
    return SweepResult(float(uniform), per_p)
