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
    TOL_ACTIVE,
    TOL_FEAS,
    TOL_MEMBER,
    DirectionalCone,
    Polyhedron,
    as_vector,
    normal_cone_generators,
    project_onto_generated_cone,
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
    membership_values,
    preimage_distance_batch,
)
from .slopes import ScalarField, global_slope

NORM_CHOICE = "max of componentwise euclidean norms on X x Y"
SLOPE_SLACK = 0.05
_MIN_IMAGE = 1e-12
_DUAL_ATTEMPTS = 16


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
    if q.dc is None:
        member = np.ones(X.shape[0], dtype=bool)
    else:
        mv, _ = membership_values(q.F, X, Y, q.dc)
        member = mv <= q.tol_member
    return member & (img > _MIN_IMAGE) & (img < q.epsilon), img


def _pair_block(q: RegularityQuery, label: str, index: int, radius: float,
                count: int):
    """Pairs of block index of the label's stream in B(x0, radius) x
    B(y0, radius), with their image distances and admissibility mask.

    A full rng.BLOCK is drawn and the first count pairs kept, so a larger
    budget only appends pairs.
    """
    X = rng.ball_points(rng.stream(q.seed, label + "-x", index),
                        rng.BLOCK, q.x0, radius)[:count]
    Y = rng.ball_points(rng.stream(q.seed, label + "-y", index),
                        rng.BLOCK, q.y0, radius)[:count]
    adm, img = _admissible_mask(q, X, Y)
    return X, Y, img, adm


def _modulus_block(q: RegularityQuery, bi: int, collect: bool):
    nb = rng.block_size(q.region.sample_budget, bi)
    X, Y, img, adm = _pair_block(q, "modulus", bi, q.epsilon, nb)
    pre = np.full(nb, np.nan)
    need = np.ones(nb, dtype=bool) if collect else adm
    if np.any(need):
        pre[need] = preimage_distance_batch(q.F, Y[need], X[need])
    with np.errstate(invalid="ignore", divide="ignore"):
        ratio = np.where(img > _MIN_IMAGE, pre / img, np.nan)
    return X, Y, img, pre, ratio, adm


def empirical_directional_modulus(q: RegularityQuery, threads: int = 1,
                                  collect: bool = False) -> ModulusEstimate:
    """Sampled sup of d(x, F^-1(y)) / d(y, F(x)) over the admissible pairs.

    Pairs are drawn in B(x0, eps) x B(y0, eps); a pair is admissible when y
    lies in F(x) + the direction cone (within tol) and its image distance
    sits strictly between 0 and eps.  Sampling is blocked and counter-seeded,
    so the estimate is nondecreasing in the budget for a fixed seed and
    independent of the thread count.

    Raises NoAdmissibleSamples when the filter rejects the whole budget.
    """
    budget = q.region.sample_budget
    nblocks = rng.block_count(budget)
    if threads and threads > 1:
        with ThreadPoolExecutor(max_workers=int(threads)) as ex:
            results = list(ex.map(lambda bi: _modulus_block(q, bi, collect),
                                  range(nblocks)))
    else:
        results = [_modulus_block(q, bi, collect) for bi in range(nblocks)]

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
        X, Y, _, adm = _pair_block(q, label, bi, q.epsilon,
                                   rng.block_size(budget, bi))
        out += zip(X[adm], Y[adm])
        if len(out) >= count:
            break
    return out[:count]


def _envelope_field(q: RegularityQuery, y: np.ndarray,
                    lipschitz: float) -> ScalarField:
    F, dc, tol = q.F, q.dc, q.tol_member

    def batch(U, y=y):
        return envelope_batch(F, dc, U, y, tol, lipschitz, quick=True)

    def fn(u, y=y):
        return float(batch(np.asarray(u, dtype=float)[None, :])[0])

    return ScalarField(F.dim_in, fn, batch)


def _envelope_slopes(q: RegularityQuery, pairs, halfwidth: float,
                     resolution: int, budget: int) -> list:
    """Global slope of u -> envelope(F, dc, u, y) at x for each (x, y),
    searched in the box x0 +- halfwidth."""
    box = np.stack([q.x0 - halfwidth, q.x0 + halfwidth], axis=1)
    sregion = SearchRegion(box, resolution, budget, q.seed)
    lip = q.F.lipschitz_bound(box)
    return [float(global_slope(_envelope_field(q, y, lip), x, sregion).value)
            for x, y in pairs]


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
    (1/tau)(1 - slack).
    """
    if tau <= 0:
        raise InvalidParameter("tau must be positive")
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
        X, Y, img, adm = _pair_block(q, "mfs", k, r, rng.BLOCK)
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

@dataclass
class DualPair:
    """A point of the dual admissible product set with unit sum norm."""

    y1star: np.ndarray
    y2star: np.ndarray
    delta: float

    def is_valid(self, ybar, tol: float = 1e-9) -> bool:
        ybar = np.asarray(ybar, dtype=float)
        s = self.y1star + self.y2star
        return bool(
            np.linalg.norm(self.y1star) <= 1.0 + self.delta + tol
            and float(self.y1star @ ybar) <= self.delta + tol
            and abs(float(self.y2star @ ybar)) <= self.delta + tol
            and abs(float(np.linalg.norm(s)) - 1.0) <= tol
        )


def sample_dual_pairs(ybar, delta: float, budget: int, seed: int = 0,
                      label: str = "dual") -> list[DualPair]:
    """Sample the dual pair set by parametrizing the unit sum first.

    Draw w on the unit sphere and y2star in the slab-ball intersection by
    rejection, then set y1star = w - y2star and keep the pair when it lands
    in its constraint set.  Every emitted pair passes full re-validation;
    fewer than budget pairs may come back.
    """
    ybar = as_vector(ybar, name="ybar")
    delta = float(delta)
    if delta < 0:
        raise InvalidParameter("delta must be nonnegative")
    if budget < 1:
        raise InvalidParameter("budget must be positive")
    dim = ybar.size
    pairs = []
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
                & ((y1 @ ybar) <= delta))
        for i in np.where(keep)[0]:
            pair = DualPair(y1[i].copy(), y2[i].copy(), delta)
            if pair.is_valid(ybar):
                pairs.append(pair)
    return pairs


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
    constraints, and record ||J(x)^T (y1* + y2*)||.
    """
    Kp = as_polyhedron(q.F.K)
    if Kp is None:
        raise NotPolyhedral("K has no halfspace form for normal cones")
    if q.dc is None:
        raise InvalidParameter("coderivative criterion needs a direction")
    ybar = q.dc.ybar
    k0 = Kp.project(q.F.f(q.x0) - q.y0)
    scale = 0.05 * (1.0 + float(np.linalg.norm(k0)))
    inf_value = np.inf
    per_delta = []
    n_total = 0
    for di, delta in enumerate(delta_ladder):
        pairs = sample_dual_pairs(ybar, float(delta), samples_per_delta,
                                  seed=q.seed, label=f"coder-dual-{di}")
        if not pairs:
            per_delta.append((float(delta), np.inf, 0))
            continue
        nv = len(pairs)
        X = rng.ball_points(rng.stream(q.seed, "coder-x", di), nv, q.x0,
                            0.3 * q.epsilon)
        noise1 = rng.stream(q.seed, "coder-k1", di).normal(size=(nv, Kp.dim))
        noise2 = rng.stream(q.seed, "coder-k2", di).normal(size=(nv, Kp.dim))
        K1 = Kp.project_batch(k0[None, :] + scale * noise1)
        K2 = Kp.project_batch(k0[None, :] + scale * noise2)
        level_min = np.inf
        level_n = 0
        for j, pair in enumerate(pairs):
            G1 = normal_cone_generators(Kp, K1[j], TOL_ACTIVE)
            G2 = normal_cone_generators(Kp, K2[j], TOL_ACTIVE)
            y1p = project_onto_generated_cone(G1, pair.y1star)
            y2p = project_onto_generated_cone(G2, pair.y2star)
            s = y1p + y2p
            ns = float(np.linalg.norm(s))
            if ns < 1e-9:
                continue
            if not DualPair(y1p / ns, y2p / ns, delta).is_valid(ybar):
                continue
            val = float(np.linalg.norm(q.F.f.jacobian(X[j]).T @ (s / ns)))
            level_n += 1
            if val < level_min:
                level_min = val
        per_delta.append((float(delta), float(level_min), level_n))
        n_total += level_n
        if level_min < inf_value:
            inf_value = level_min
    return CoderivativeEstimate(float(inf_value), per_delta, n_total)


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
    Each axis point gets its own u and k; lam and eps are shared.
    """
    m = offset.size
    n = M.shape[1]
    blocks = [(i, s) for i in range(m) for s in (1.0, -1.0)]
    nb = len(blocks)
    ncols = 2 + nb * n + nb * m
    rows, rhs = [], []

    def add(row, val):
        rows.append(row)
        rhs.append(float(val))

    for bidx, (i, s) in enumerate(blocks):
        ucol = 2 + bidx * n
        kcol = 2 + nb * n + bidx * m
        for r in range(m):
            row = np.zeros(ncols)
            if r == i:
                row[0] = s
            row[1] = ybar[r]
            row[ucol:ucol + n] = -M[r]
            row[kcol + r] = 1.0
            add(row, offset[r])
            add(-row, -offset[r])
        for cr, cd in zip(Kp.C, Kp.d):
            row = np.zeros(ncols)
            row[kcol:kcol + m] = cr
            add(row, cd)
        for j in range(n):
            row = np.zeros(ncols)
            row[ucol + j] = 1.0
            add(row, u_max)
            add(-row, u_max)
    row = np.zeros(ncols)
    row[1] = 1.0
    add(row, lambda_max)
    add(-row, 0.0)
    row = np.zeros(ncols)
    row[0] = 1.0
    add(row, u_max)
    add(-row, 0.0)

    obj = np.zeros(ncols)
    obj[0] = 1.0
    res = solve_lp(obj, Polyhedron(np.array(rows), np.array(rhs)))
    if res.status == "optimal":
        return max(float(res.value), 0.0)
    if res.status == "infeasible":
        return 0.0
    return float(u_max)


def robinson_condition(F: MultiMap, x0, y0, ybar, lambda_max: float = 10.0,
                       u_max: float = 10.0,
                       tol: float = TOL_FEAS) -> InteriorityResult:
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
                             float(lambda_max), float(u_max))
    return InteriorityResult(margin > tol, margin, float(lambda_max),
                             float(u_max))


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
