"""Regularity criteria: modulus sampling, slopes, duals, LPs, perturbation."""

from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

from conftest import (random_cone_rows, reference_cone_projection,
                      reference_normal_cone_generators)
from regcert import geometry, regularity, rng

from regcert.errors import (
    DimensionMismatch,
    InvalidParameter,
    InvalidPerturbation,
    NoAdmissibleSamples,
    NotInSet,
    NotPolyhedral,
)
from regcert.geometry import Ball, DirectionalCone, Polyhedron, Singleton
from regcert.instances import builtin, registry_names
from regcert.multimap import (AffineMap, MultiMap, _member_mask, as_polyhedron,
                              default_region, image_distance_batch,
                              preimage_distance_batch)
from regcert.problems import load_problem
from regcert.regularity import (
    CoderivativeEstimate,
    DualPair,
    RegularityQuery,
    _admissible_pairs,
    _envelope_slopes,
    coderivative_criterion,
    empirical_directional_modulus,
    modulus_from_slopes,
    parametric_sweep,
    perturbation_bound,
    robinson_condition,
    sample_dual_pairs,
    slope_criterion,
)


def query(name, seed=7, budget=2000, epsilon=0.5, dc="instance"):
    inst = builtin(name)
    region = default_region(inst.x0, 2.5 * epsilon, budget, seed=seed,
                            grid_resolution=7)
    if dc == "instance":
        dc = inst.dc
    return RegularityQuery(inst.F, inst.x0, inst.y0, dc=dc, epsilon=epsilon,
                           region=region)


# ---------------------------------------------------------------------------
# Query validation.

def test_query_rejects_bad_inputs():
    inst = builtin("identity2")
    with pytest.raises(NotInSet):
        RegularityQuery(inst.F, inst.x0, np.array([5.0, 5.0]))
    with pytest.raises(InvalidParameter):
        RegularityQuery(inst.F, inst.x0, inst.y0, epsilon=0.0)
    for tol in (-1.0, np.nan, np.inf):
        with pytest.raises(InvalidParameter):
            RegularityQuery(inst.F, inst.x0, inst.y0, tol_member=tol)
    with pytest.raises(DimensionMismatch):
        RegularityQuery(inst.F, inst.x0, inst.y0,
                        dc=DirectionalCone([1.0], 0.1))


# ---------------------------------------------------------------------------
# Empirical modulus.

def test_modulus_identity_is_one():
    est = empirical_directional_modulus(query("identity2"))
    # every ratio is |x - y| / |x - y|
    assert est.sup_ratio == pytest.approx(1.0, abs=1e-12)
    assert est.n_admissible == 1177
    assert est.n_checked == 2000


def test_modulus_diag_approaches_two():
    est = empirical_directional_modulus(query("diag_2_05"))
    assert est.sup_ratio == pytest.approx(1.99999867345153, rel=1e-9)
    assert est.sup_ratio <= 2.0 + 1e-9
    assert est.n_admissible == 931


def test_modulus_halfplane_directional():
    est = empirical_directional_modulus(query("halfplane_directional"))
    assert est.sup_ratio == pytest.approx(1.0, abs=1e-9)
    assert est.n_admissible == 87


def test_directional_modulus_frozen():
    # criterion 02's query and two one-block-plus budgets, bit for bit: the
    # membership decision of every pair feeds n_admissible and the witness
    expect = {
        (42, 20000): (827, [-0.2017731899294683],
                      [-0.14931705497542122, 0.2960387678156607]),
        (1, 520): (15, [0.37469354577133984],
                   [0.385909480469865, 0.29076272213070775]),
        (7, 520): (23, [0.14101340081187586],
                   [0.15540583373922845, 0.4604352748243018]),
    }
    for (seed, budget), (n_adm, x, y) in expect.items():
        est = empirical_directional_modulus(
            query("halfplane_directional", seed=seed, budget=budget))
        assert est.sup_ratio == 1.0
        assert est.n_admissible == n_adm
        assert est.worst_witness[0].tolist() == x
        assert est.worst_witness[1].tolist() == y


def test_modulus_thread_invariance():
    a = empirical_directional_modulus(query("diag_2_05"), threads=1)
    b = empirical_directional_modulus(query("diag_2_05"), threads=4)
    assert a.sup_ratio == b.sup_ratio
    assert a.n_admissible == b.n_admissible
    assert np.array_equal(a.worst_witness[0], b.worst_witness[0])
    assert np.array_equal(a.worst_witness[1], b.worst_witness[1])
    # the Gauss-Newton route over three sample blocks: every per-sample
    # preimage distance, not only the sup, is the same on two threads
    q = query("parabola_eb", seed=3, budget=1100)
    a = empirical_directional_modulus(q, threads=1, collect=True)
    b = empirical_directional_modulus(q, threads=2, collect=True)
    pre_a = np.array([s["preimage_dist"] for s in a.samples])
    pre_b = np.array([s["preimage_dist"] for s in b.samples])
    assert pre_a.size == 1100
    assert pre_a.tobytes() == pre_b.tobytes()
    assert a.n_admissible == b.n_admissible


def test_modulus_budget_monotone():
    # block-seeded sampling makes a smaller budget a prefix of a larger one
    small = empirical_directional_modulus(query("diag_2_05", budget=500))
    large = empirical_directional_modulus(query("diag_2_05", budget=2000))
    assert small.sup_ratio <= large.sup_ratio + 1e-15
    assert small.n_admissible <= large.n_admissible


@settings(max_examples=8, deadline=None)
@given(st.integers(300, 1100), st.integers(1, 600), st.integers(1, 40),
       st.integers(0, 2 ** 31 - 1))
def test_budget_prefix_on_the_pair_kernel(b1, extra, count, seed):
    # a larger budget only appends pairs: same draws, same admissibility;
    # from 300 pairs up an admissible one is all but certain
    q1 = query("halfplane_directional", seed=seed, budget=b1)
    q2 = query("halfplane_directional", seed=seed, budget=b1 + extra)
    r1 = empirical_directional_modulus(q1, collect=True).samples
    r2 = empirical_directional_modulus(q2, collect=True).samples[:b1]
    for a, b in zip(r1, r2, strict=True):
        assert np.array_equal(a["x"], b["x"])
        assert np.array_equal(a["y"], b["y"])
        assert a["admissible"] == b["admissible"]
        assert a["image_dist"] == b["image_dist"]
    p1 = _admissible_pairs(q1, "slope-crit", count)
    p2 = _admissible_pairs(q2, "slope-crit", count)[:len(p1)]
    assert len(p2) == len(p1)
    for (x1, y1), (x2, y2) in zip(p1, p2):
        assert np.array_equal(x1, x2) and np.array_equal(y1, y2)


def test_modulus_collect_records():
    q = query("identity2", budget=600)
    est = empirical_directional_modulus(q, collect=True)
    assert len(est.samples) == 600
    adm = [r for r in est.samples if r["admissible"]]
    assert len(adm) == est.n_admissible
    assert max(r["ratio"] for r in adm) == pytest.approx(est.sup_ratio)
    x, y = est.worst_witness
    from regcert.multimap import image_distance, preimage_distance
    ratio = preimage_distance(q.F, y, x) / image_distance(q.F, x, y)
    assert ratio == pytest.approx(est.sup_ratio, rel=1e-9)


def test_modulus_no_admissible_samples():
    # K covering the whole target space zeroes every image distance
    F = MultiMap(AffineMap(np.eye(2), np.zeros(2)),
                 Polyhedron(np.zeros((0, 2)), np.zeros(0)))
    q = RegularityQuery(F, np.zeros(2), np.zeros(2),
                        region=default_region(np.zeros(2), 1.0, 200, seed=1))
    with pytest.raises(NoAdmissibleSamples):
        empirical_directional_modulus(q)


def test_halfplane_plain_mode_sees_empty_preimages():
    # without the direction filter, samples with y2 < 0 have empty preimage
    est = empirical_directional_modulus(query("halfplane_directional",
                                              dc=None))
    assert est.sup_ratio == np.inf


def reference_modulus(q, collect=False):
    """The block-by-block estimator the batched passes replaced: each
    sample block drawn, filtered and sent to the preimage route on its own,
    the sup taken block by block with a strict >.  Returns the outcome that
    test_batched_modulus_matches_the_block_loop compares."""
    budget = q.region.sample_budget
    sup, witness, n_adm, records = -np.inf, None, 0, []
    for bi in range(rng.block_count(budget)):
        nb = rng.block_size(budget, bi)
        X = rng.ball_points(rng.stream(q.seed, "modulus-x", bi), rng.BLOCK,
                            q.x0, q.epsilon)[:nb]
        Y = rng.ball_points(rng.stream(q.seed, "modulus-y", bi), rng.BLOCK,
                            q.y0, q.epsilon)[:nb]
        img = image_distance_batch(q.F, X, Y)
        adm = (img > regularity._MIN_IMAGE) & (img < q.epsilon)
        if q.dc is not None and np.any(adm):
            adm[adm] = _member_mask(q.F, X[adm], Y[adm], q.dc, q.tol_member)
        pre = np.full(nb, np.nan)
        need = np.ones(nb, dtype=bool) if collect else adm
        if np.any(need):
            pre[need] = preimage_distance_batch(q.F, Y[need], X[need])
        with np.errstate(invalid="ignore", divide="ignore"):
            ratio = np.where(img > regularity._MIN_IMAGE, pre / img, np.nan)
        n_adm += int(adm.sum())
        records += [(X[i].tobytes(), Y[i].tobytes(), img[i].tobytes(),
                     pre[i].tobytes(), ratio[i].tobytes(), bool(adm[i]))
                    for i in range(nb)] if collect else []
        if np.any(adm):
            r = np.where(adm, ratio, -np.inf)
            i = int(np.argmax(r))
            if r[i] > sup:
                sup, witness = float(r[i]), (X[i].tobytes(), Y[i].tobytes())
    if n_adm == 0:
        return NoAdmissibleSamples
    return sup.hex(), witness, n_adm, records


def _batched_outcome(q, threads, collect):
    try:
        est = empirical_directional_modulus(q, threads=threads,
                                            collect=collect)
    except NoAdmissibleSamples:
        return NoAdmissibleSamples
    records = [(s["x"].tobytes(), s["y"].tobytes(),
                np.float64(s["image_dist"]).tobytes(),
                np.float64(s["preimage_dist"]).tobytes(),
                np.float64(s["ratio"]).tobytes(), s["admissible"])
               for s in est.samples] if collect else []
    witness = tuple(v.tobytes() for v in est.worst_witness)
    return est.sup_ratio.hex(), witness, est.n_admissible, records


def _modulus_problem(name):
    """(F, x0, y0, dc) of a registry instance or a problem file.  round_k
    gets a thin cone along ybar = (1, 0), so its pairs take the round K's
    golden-section membership and only a few reach its slow Gauss-Newton
    preimage route."""
    if name.endswith(".json"):
        p = load_problem(str(_TOOLS / name))
    else:
        p = builtin(name)
    if name == "round_k.json":
        return p.F, p.x0, p.y0, DirectionalCone([1.0, 0.0], 0.1)
    return p.F, p.x0, p.y0, p.dc


# (problem, collect, most blocks): an affine map into an axis-aligned
# polyhedron, a skew wedge (the Dykstra route), the directional halfplane
# and the Gauss-Newton route, collected or not, and a round K.  round_k's
# Gauss-Newton preimages cost 0.2-0.5 s a call even on 8 rows, so it runs
# up to 2 blocks (one stacked pass at threads=1) and uncollected: collect
# only widens the preimage call to every row, the same route parabola_eb's
# collected runs check.
_BATCHED_MODULUS_CASES = [
    (name, collect, 20)
    for name in ("hoffman_2d", "skew_wedge.json", "halfplane_directional",
                 "parabola_eb")
    for collect in (False, True)] + [("round_k.json", False, 2)]


@settings(max_examples=20, deadline=None)
@given(case=st.sampled_from(_BATCHED_MODULUS_CASES), data=st.data(),
       threads=st.integers(1, 3), seed=st.integers(0, 2 ** 31 - 1))
def test_batched_modulus_matches_the_block_loop(case, data, threads, seed):
    # the passes stack up to eight blocks into one admissibility and
    # preimage batch; every row, the sup, its witness and the count keep
    # the bits of the block-by-block loop at any thread count, with a
    # partial last block or a full one
    name, collect, blocks = case
    budget = data.draw(st.one_of(
        st.integers(1, blocks * rng.BLOCK),
        st.integers(1, blocks).map(lambda b: b * rng.BLOCK)), label="budget")
    F, x0, y0, dc = _modulus_problem(name)
    region = default_region(x0, 1.25, budget, seed=seed, grid_resolution=7)
    q = RegularityQuery(F, x0, y0, dc=dc, region=region)
    assert (_batched_outcome(q, threads, collect)
            == reference_modulus(q, collect))


def test_modulus_passes_stay_within_eight_blocks(monkeypatch):
    seen = {"adm": [], "pre": []}
    admissible, preimage = (regularity._admissible_mask,
                            regularity.preimage_distance_batch)

    def spy_adm(q, X, Y):
        seen["adm"].append(X)
        return admissible(q, X, Y)

    def spy_pre(F, Y, X):
        seen["pre"].append(X.shape[0])
        return preimage(F, Y, X)

    monkeypatch.setattr(regularity, "_admissible_mask", spy_adm)
    monkeypatch.setattr(regularity, "preimage_distance_batch", spy_pre)
    # budget 20,000 is 40 blocks, five passes of 8; 9 blocks need two
    # passes, of 5 and 4 blocks; a pass's rows are the sum of its blocks'
    full = 8 * rng.BLOCK
    for budget, sizes in ((20000, [20000 - 4 * full] + [full] * 4),
                          (9 * rng.BLOCK, [4 * rng.BLOCK, 5 * rng.BLOCK])):
        for threads in (1, 2):
            empirical_directional_modulus(
                query("halfplane_directional", seed=42, budget=budget),
                threads=threads)
            # sorted: on two threads the passes may start in either order
            assert sorted(X.shape[0] for X in seen["adm"]) == sizes
            assert len(seen["pre"]) == len(sizes)
            assert max(seen["pre"]) <= full
            seen["adm"].clear()
            seen["pre"].clear()
    # a one-block budget makes one call on the block's own draw, a view of
    # the drawn rows, not a stacked copy
    for name, budget in (("parabola_eb", 24), ("hoffman_2d", 256),
                         ("halfplane_directional", 300),
                         ("halfplane_directional", rng.BLOCK)):
        q = query(name, seed=5, budget=budget)
        for threads in (1, 3):
            empirical_directional_modulus(q, threads=threads)
            [X] = seen["adm"]
            assert X.shape[0] == budget
            assert X.base is not None and X.base.shape[0] == rng.BLOCK
            assert len(seen["pre"]) == 1
            seen["adm"].clear()
            seen["pre"].clear()


def test_modulus_and_sweep_reject_threads_below_one():
    inst = builtin("param_scale")
    q = query("param_scale", budget=300)
    for threads in (0, -3):
        with pytest.raises(InvalidParameter, match="threads"):
            empirical_directional_modulus(q, threads=threads)
        with pytest.raises(InvalidParameter, match="threads"):
            parametric_sweep(inst.family, inst.p_grid, q, threads=threads)


# ---------------------------------------------------------------------------
# Slope criteria.

def test_slope_criterion_identity():
    res = slope_criterion(query("identity2"), tau=2.0, n_points=8,
                          slope_budget=150)
    assert res.holds
    assert res.min_slope == pytest.approx(1.0, abs=1e-6)
    assert res.threshold == pytest.approx(0.475)
    assert res.violators == []


def test_slope_criterion_rejects_small_tau():
    res = slope_criterion(query("identity2"), tau=0.5, n_points=6,
                          slope_budget=120)
    # threshold 1.9 sits above the envelope slope 1
    assert not res.holds
    assert len(res.violators) > 0
    for x, y, s in res.violators:
        assert s < res.threshold


def test_slope_criterion_bad_tau():
    with pytest.raises(InvalidParameter):
        slope_criterion(query("identity2"), tau=0.0)


def test_slope_criterion_bad_slack():
    # a slack of 1 or more puts the threshold at or below 0, which every
    # slope passes: at slack 5, diag_2_05 (modulus 2) would pass tau = 0.01
    # with threshold -400
    for slack in (1.0, 5.0, -0.1, np.nan):
        with pytest.raises(InvalidParameter, match="slack"):
            slope_criterion(query("diag_2_05"), tau=0.01, slack=slack)


@pytest.mark.parametrize("name", ["halfplane_directional", "hoffman_2d",
                                  "parabola_eb"])
@pytest.mark.parametrize("seed", [0, 3, 11])
def test_envelope_slopes_pairs_are_batch_independent(name, seed):
    # the envelope slopes of all pairs run as one stacked global-slope
    # pass; each pair must get the bits it gets run alone.  Only
    # halfplane_directional has a cone, so the others read d(y, F(x)).
    q = query(name, seed=seed, budget=512)
    pairs = _admissible_pairs(q, "slope-crit", 5)
    assert len(pairs) >= 2
    stacked = _envelope_slopes(q, pairs, 2.5 * q.epsilon, 5, 60)
    assert len(stacked) == len(pairs)
    for pair, s in zip(pairs, stacked):
        [alone] = _envelope_slopes(q, [pair], 2.5 * q.epsilon, 5, 60)
        assert alone.hex() == s.hex()


def test_modulus_from_slopes_matches_empirical():
    for name in ("identity2", "diag_2_05"):
        q = query(name)
        emp = empirical_directional_modulus(q).sup_ratio
        mfs = modulus_from_slopes(q, ladder_depth=4, pairs_per_level=8,
                                  slope_budget=120)
        assert abs(emp - mfs) / emp <= 0.2


# ---------------------------------------------------------------------------
# Dual pairs.

def test_dual_pairs_all_valid_thousand_samples():
    ybar = np.array([0.0, 1.0])
    pairs = sample_dual_pairs(ybar, 0.2, 4000, seed=3)
    assert len(pairs) >= 1000
    assert all(p.is_valid(ybar) for p in pairs)


def test_dual_pair_validity_detects_each_violation():
    ybar = np.array([0.0, 1.0])
    ok = DualPair(np.array([1.0, 0.0]), np.array([0.0, 0.0]), 0.1)
    assert ok.is_valid(ybar)
    # y1 too long
    assert not DualPair(np.array([2.0, 0.0]), np.array([-1.0, 0.0]),
                        0.1).is_valid(ybar)
    # y1 aligned with ybar beyond delta
    assert not DualPair(np.array([0.0, 1.0]), np.array([0.0, 0.0]),
                        0.1).is_valid(ybar)
    # sum norm off one
    assert not DualPair(np.array([0.5, 0.0]), np.array([0.1, 0.0]),
                        0.1).is_valid(ybar)


def test_dual_pair_sampling_deterministic():
    a = sample_dual_pairs(np.array([1.0, 0.0]), 0.1, 500, seed=9)
    b = sample_dual_pairs(np.array([1.0, 0.0]), 0.1, 500, seed=9)
    assert len(a) == len(b)
    for pa, pb in zip(a, b):
        assert np.array_equal(pa.y1star, pb.y1star)
        assert np.array_equal(pa.y2star, pb.y2star)


# ---------------------------------------------------------------------------
# Coderivative criterion.

def test_coderivative_identity_unit():
    q = query("identity2", dc=DirectionalCone(np.zeros(2), 0.2))
    est = coderivative_criterion(q, delta_ladder=(0.2,), samples_per_delta=400)
    # J = I and unit dual sums keep every sampled value at exactly 1
    assert est.inf_value >= 1.0 - 1e-9
    assert est.bound_direction == "upper"
    assert est.holds_for_m(0.9) and not est.holds_for_m(1.1)


def test_coderivative_diag_hits_smallest_singular_value():
    q = query("diag_2_05", dc=DirectionalCone(np.zeros(2), 0.2))
    est = coderivative_criterion(q, delta_ladder=(0.2,), samples_per_delta=400)
    assert est.inf_value == pytest.approx(0.50007913470688, rel=1e-9)
    assert 0.5 - 1e-9 <= est.inf_value <= 0.6
    assert est.per_delta[0][2] == est.n_pairs == 195


def test_coderivative_halfplane_directional():
    q = query("halfplane_directional", dc=DirectionalCone([0.0, 1.0], 0.1))
    est = coderivative_criterion(q, delta_ladder=(0.1,), samples_per_delta=400)
    assert est.inf_value == pytest.approx(0.995356714812654, rel=1e-9)
    assert est.inf_value >= 0.88


def test_coderivative_without_surviving_pairs_raises():
    # delta 0 leaves no pair with |y2* . ybar| <= delta, and an empty ladder
    # samples none; a minimum over no pair is no evidence for any m
    q = query("halfplane_directional")
    for ladder in ((0.0,), ()):
        with pytest.raises(NoAdmissibleSamples):
            coderivative_criterion(q, delta_ladder=ladder)


def test_coderivative_needs_direction_and_polyhedron():
    with pytest.raises(InvalidParameter):
        coderivative_criterion(query("identity2", dc=None))
    F = MultiMap(AffineMap(np.eye(2), np.zeros(2)), Ball(np.zeros(2), 1.0))
    q = RegularityQuery(F, np.zeros(2), np.zeros(2),
                        dc=DirectionalCone([0.0, 1.0], 0.1),
                        region=default_region(np.zeros(2), 1.0, 100, seed=0))
    with pytest.raises(NotPolyhedral):
        coderivative_criterion(q)


# ---------------------------------------------------------------------------
# The batched coderivative pass against the per-pair loop it replaced.  The
# loop and its validity rule are kept verbatim as the reference, with the
# per-point generators and NNLS cone projection from conftest.

def _reference_is_valid(y1star, y2star, delta, ybar) -> bool:
    ybar = np.asarray(ybar, dtype=float)
    s = y1star + y2star
    return bool(
        np.linalg.norm(y1star) <= 1.0 + delta + regularity._DUAL_TOL
        and float(y1star @ ybar) <= delta + regularity._DUAL_TOL
        and abs(float(y2star @ ybar)) <= delta + regularity._DUAL_TOL
        and abs(float(np.linalg.norm(s)) - 1.0) <= regularity._DUAL_TOL
    )


def _reference_coderivative(q, delta_ladder=(0.2, 0.1, 0.05),
                            samples_per_delta=800):
    Kp = as_polyhedron(q.F.K)
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
        X = regularity.rng.ball_points(
            regularity.rng.stream(q.seed, "coder-x", di), nv, q.x0,
            0.3 * q.epsilon)
        noise1 = regularity.rng.stream(q.seed, "coder-k1", di).normal(
            size=(nv, Kp.dim))
        noise2 = regularity.rng.stream(q.seed, "coder-k2", di).normal(
            size=(nv, Kp.dim))
        K1 = Kp.project_batch(k0[None, :] + scale * noise1)
        K2 = Kp.project_batch(k0[None, :] + scale * noise2)
        level_min = np.inf
        level_n = 0
        for j, pair in enumerate(pairs):
            G1 = reference_normal_cone_generators(Kp, K1[j])
            G2 = reference_normal_cone_generators(Kp, K2[j])
            y1p = reference_cone_projection(G1, pair.y1star)
            y2p = reference_cone_projection(G2, pair.y2star)
            s = y1p + y2p
            ns = float(np.linalg.norm(s))
            if ns < 1e-9:
                continue
            if not _reference_is_valid(y1p / ns, y2p / ns, delta, ybar):
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


_TOOLS = Path(__file__).resolve().parents[1] / "tools"
_CODERIVATIVE_CASES = ("axis", "skew", "halfplane_directional", "identity2",
                       "diag_2_05", "parabola_eb", "rotated_halfplane.json",
                       "skew_wedge.json", "robinson_4d.json",
                       "robinson_4d.json ybar=0")


def _coderivative_query(case: str, seed: int) -> RegularityQuery:
    """The query of a case: a random polyhedral K with rows through a point
    p0 (axis-aligned or skew), a registry instance, or a problem file,
    robinson_4d also with ybar = 0, where its own direction leaves no pair.
    A registry instance with no cone of its own gets ybar = 0, delta 0.2."""
    rng = np.random.default_rng(seed)
    if case in ("axis", "skew"):
        dim = int(rng.integers(1, 4))
        C = random_cone_rows(rng, dim, case == "axis")
        p0 = rng.uniform(-0.5, 0.5, size=dim)
        slack = np.where(rng.random(C.shape[0]) < 0.6, 0.0,
                         rng.uniform(0.0, 0.05, size=C.shape[0]))
        dim_in = int(rng.integers(1, 4))
        F = MultiMap(AffineMap(rng.standard_normal((dim, dim_in)),
                               np.zeros(dim)),
                     Polyhedron(C, C @ p0 + slack))
        x0, y0 = np.zeros(dim_in), -p0
        dc = DirectionalCone(rng.uniform(0.0, 1.0) * rng.standard_normal(dim),
                             0.2)
    elif case.endswith(".json") or case.endswith("ybar=0"):
        problem = load_problem(str(_TOOLS / case.split()[0]))
        F, x0, y0, dc = problem.F, problem.x0, problem.y0, problem.dc
        if case.endswith("ybar=0"):
            dc = DirectionalCone(np.zeros(F.dim_out), 0.2)
    else:
        inst = builtin(case)
        F, x0, y0 = inst.F, inst.x0, inst.y0
        dc = inst.dc or DirectionalCone(np.zeros(F.dim_out), 0.2)
    region = default_region(x0, 1.25, 200, seed=seed, grid_resolution=3)
    return RegularityQuery(F, x0, y0, dc=dc, region=region)


# Where the reference fit some cone on two or more columns, its lstsq lands
# a few ulps of |y| off the exact pass, and J^T s can cancel to a value far
# below |J|: the routes may differ by this many ulps of max(1, |J(x0)|_2).
# 170 differing values over 150 seeds of four cases stayed within 0.75.
_CODERIVATIVE_ULPS = 8


@settings(max_examples=60, deadline=None)
@given(case=st.sampled_from(_CODERIVATIVE_CASES),
       seed=st.integers(0, 2 ** 16))
def test_batched_coderivative_matches_the_per_pair_loop(case, seed):
    """Counts agree always.  Values agree bit for bit where every NNLS of
    the reference ended on at most one column (a closed-form fit, which
    y - P_polar(y) reproduces), and within _CODERIVATIVE_ULPS elsewhere."""
    q = _coderivative_query(case, seed)
    columns = []
    nnls = geometry._nnls

    def counted(A, b):
        x, rnorm = nnls(A, b)
        columns.append(int(np.count_nonzero(x > 0.0)))
        return x, rnorm

    with mock.patch.object(geometry, "_nnls", counted):
        ref = _reference_coderivative(q, samples_per_delta=400)
    if ref.n_pairs == 0:
        with pytest.raises(NoAdmissibleSamples):
            coderivative_criterion(q, samples_per_delta=400)
        return
    est = coderivative_criterion(q, samples_per_delta=400)
    assert est.n_pairs == ref.n_pairs
    assert [(d, n) for d, _, n in est.per_delta] == \
        [(d, n) for d, _, n in ref.per_delta]
    got = [est.inf_value] + [v for _, v, _ in est.per_delta]
    want = [ref.inf_value] + [v for _, v, _ in ref.per_delta]
    if max(columns, default=0) <= 1:
        assert got == want
    else:
        tol = _CODERIVATIVE_ULPS * np.finfo(float).eps * max(
            1.0, np.linalg.norm(q.F.f.jacobian(q.x0), 2))
        assert all(a == b or abs(a - b) <= tol for a, b in zip(got, want))


def test_coderivative_pair_rows_are_batch_independent():
    # a dual pair's cone projection and value are the same alone as in the
    # full stack of its rung
    q = _coderivative_query("halfplane_directional", 3)
    Kp = as_polyhedron(q.F.K)
    rng = np.random.default_rng(3)
    Y1, Y2 = regularity._dual_pair_arrays(q.dc.ybar, 0.2, 400, 3, "batch")
    nv = Y1.shape[0]
    base = Kp.project_batch(0.05 * rng.standard_normal((2 * nv, 2)))
    masks = geometry.normal_cone_masks(Kp, base)
    Y = np.vstack([Y1, Y2])
    P = geometry.project_onto_generated_cones(Kp.C, masks, Y)
    X = rng.uniform(-0.5, 0.5, size=(nv, 1))
    live, vals = regularity._pair_values(q.F.f, X, P[:nv], P[nv:],
                                         q.dc.ybar, 0.2)
    assert live.size > 50
    for j in range(nv):
        rows = [j, nv + j]
        alone = geometry.project_onto_generated_cones(Kp.C, masks[rows],
                                                      Y[rows])
        assert np.array_equal(alone, P[rows])
        one, val = regularity._pair_values(q.F.f, X[j:j + 1], alone[:1],
                                           alone[1:], q.dc.ybar, 0.2)
        assert one.size == int(j in live)
        if one.size:
            assert val[0] == vals[np.searchsorted(live, j)]


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), dim=st.integers(1, 4),
       delta=st.sampled_from([0.0, 0.05, 0.2]))
def test_dual_pair_validity_keeps_the_per_pair_rule(seed, dim, delta):
    # pairs around each edge of the rule: the batched test gives the
    # per-pair verdict on every row, alone and in a stack
    rng = np.random.default_rng(seed)
    ybar = rng.standard_normal(dim) * rng.choice([0.0, 1.0])
    w = rng.standard_normal((32, dim))
    w /= np.linalg.norm(w, axis=1)[:, None]
    Y2 = rng.standard_normal((32, dim)) * rng.uniform(0.0, 0.3, (32, 1))
    Y1 = (w - Y2) * (1.0 + rng.choice([0.0, 1e-9, 1e-10, -1e-10], (32, 1)))
    stacked = regularity._dual_valid(Y1, Y2, ybar, delta)
    for y1, y2, ok in zip(Y1, Y2, stacked):
        assert ok == _reference_is_valid(y1, y2, delta, ybar)
        assert DualPair(y1, y2, delta).is_valid(ybar) == ok


# ---------------------------------------------------------------------------
# Interiority LPs.

def test_robinson_identity_every_axis():
    inst = builtin("identity2")
    for ybar in ([1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0],
                 [0.0, 0.0]):
        res = robinson_condition(inst.F, inst.x0, inst.y0, ybar)
        assert res.holds and res.margin > 0


def test_robinson_halfplane_direction_asymmetry():
    inst = builtin("halfplane_directional")
    up = robinson_condition(inst.F, inst.x0, inst.y0, [0.0, 1.0])
    down = robinson_condition(inst.F, inst.x0, inst.y0, [0.0, -1.0])
    assert up.holds and up.margin > 0
    assert not down.holds and down.margin == pytest.approx(0.0, abs=1e-9)


def test_robinson_degenerate_jacobian_fails():
    inst = builtin("parabola_eb")
    res = robinson_condition(inst.F, inst.x0, inst.y0, [1.0])
    assert not res.holds


def test_convex_range_matches_robinson_for_affine():
    # for affine f, the LP at x0 = 0 is the convex range condition
    inst = builtin("halfplane_directional")
    x0 = np.zeros(inst.F.dim_in)
    up = robinson_condition(inst.F, x0, inst.y0, [0.0, 1.0])
    down = robinson_condition(inst.F, x0, inst.y0, [0.0, -1.0])
    assert up.holds and not down.holds


def test_robinson_condition_is_taken_at_y0():
    # F(x) = {x} x [0, inf): y0 = (0, 1) sits one unit inside F(0), so the
    # undirected condition holds with the full unit margin
    inst = builtin("halfplane_directional")
    res = robinson_condition(inst.F, np.zeros(1), [0.0, 1.0], [0.0, 0.0])
    assert res.holds
    assert res.margin == pytest.approx(1.0, abs=1e-9)


def reference_interiority_lp(M, offset, Kp, ybar, lambda_max, u_max):
    """The interiority LP as it was written before k was substituted out:
    each signed axis point gets its own u and k, k = offset + M u -
    lam*ybar - s*eps*e_i as a pair of inequalities per coordinate, C k <= d,
    solved by HiGHS."""
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
    obj[0] = -1.0
    res = linprog(obj, A_ub=np.array(rows), b_ub=np.array(rhs),
                  bounds=(None, None), method="highs")
    if res.status == 0:
        return max(float(res.x[0]) + 0.0, 0.0)
    if res.status == 2:
        return 0.0
    assert res.status == 3, res.message
    return float(u_max)


def _interiority_args(F, x0, y0, ybar):
    return (F.f.jacobian(x0), F.f(x0) - y0, as_polyhedron(F.K), ybar,
            regularity._LAMBDA_MAX, regularity._U_MAX)


def test_interiority_lp_keeps_the_k_column_margins():
    # every polyhedral registry instance at ybar = 0, +-e_i and its own
    # direction: the substituted LP gives the former margin, bit for bit
    checked = 0
    for name in registry_names():
        inst = builtin(name)
        if as_polyhedron(inst.F.K) is None:
            continue
        m = inst.F.dim_out
        dirs = [np.zeros(m)] + [s * e for e in np.eye(m) for s in (1.0, -1.0)]
        if inst.dc is not None:
            dirs.append(inst.dc.ybar)
        for ybar in dirs:
            args = _interiority_args(inst.F, inst.x0, inst.y0, ybar)
            assert (regularity._interiority_lp(*args)
                    == reference_interiority_lp(*args)), (name, ybar)
            checked += 1
    assert checked == 29


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.integers(1, 3), st.integers(1, 3),
       st.sampled_from(["random", "zero", "rank-one"]), st.booleans())
def test_interiority_lp_matches_the_k_column_lp(seed, m, n, jacobian,
                                                axis_rows):
    # random affine-polyhedral problems: a Jacobian that is random, zero or
    # of rank one, K bounded or not and sometimes empty, with skew rows or
    # signed unit rows, ybar random or zero.  A zero Jacobian and ybar with
    # unit rows leave substituted rows with no variable in them
    gen = np.random.default_rng(seed)
    M = {"random": gen.standard_normal((m, n)),
         "zero": np.zeros((m, n)),
         "rank-one": np.outer(gen.standard_normal(m),
                              gen.standard_normal(n))}[jacobian]
    k = int(gen.integers(1, 2 * m + 2))
    if axis_rows:
        C = np.eye(m)[gen.integers(m, size=k)] * gen.choice([-1.0, 1.0],
                                                            (k, 1))
    else:
        C = gen.standard_normal((k, m))
    d = gen.uniform(-0.5, 2.0, k)
    Kp = Polyhedron(C, d)
    offset = gen.uniform(-2.0, 2.0, m)
    ybar = gen.standard_normal(m) if gen.random() < 0.7 else np.zeros(m)
    args = (M, offset, Kp, ybar, regularity._LAMBDA_MAX, regularity._U_MAX)
    got = regularity._interiority_lp(*args)
    want = reference_interiority_lp(*args)
    assert got == pytest.approx(want, rel=1e-9, abs=1e-9)


def test_interiority_needs_polyhedral_k():
    F = MultiMap(AffineMap(np.eye(2), np.zeros(2)), Ball(np.zeros(2), 1.0))
    with pytest.raises(NotPolyhedral):
        robinson_condition(F, np.zeros(2), np.zeros(2), [1.0, 0.0])


# ---------------------------------------------------------------------------
# Perturbation bound.

def test_perturbation_bound_reference_value():
    assert perturbation_bound(1.0, 0.5, 1.0, 0.5, 0.05) == pytest.approx(
        2.641509433962264, abs=1e-12)


def test_perturbation_bound_dominates_tau_and_grows_in_l():
    tau, delta, yn, alpha = 1.3, 0.4, 0.8, 0.35
    L_max = (delta * (1 - alpha) * alpha
             / (tau * ((1 + alpha) * yn + delta * (1 - alpha))))
    grid = np.linspace(0.0, L_max * (1 - 1e-9), 100)
    vals = [perturbation_bound(tau, delta, yn, alpha, L) for L in grid]
    assert all(v >= tau for v in vals)
    assert all(b > a for a, b in zip(vals, vals[1:]))


def test_perturbation_bound_rejects_large_l():
    tau, delta, yn, alpha = 1.0, 0.5, 1.0, 0.5
    L_max = (delta * (1 - alpha) * alpha
             / (tau * ((1 + alpha) * yn + delta * (1 - alpha))))
    with pytest.raises(InvalidPerturbation):
        perturbation_bound(tau, delta, yn, alpha, L_max)
    with pytest.raises(InvalidPerturbation):
        perturbation_bound(tau, delta, yn, alpha, L_max * 1.5)
    # just below the threshold is fine
    assert np.isfinite(perturbation_bound(tau, delta, yn, alpha,
                                          L_max * (1 - 1e-9)))


def test_perturbation_bound_parameter_guards():
    with pytest.raises(InvalidParameter):
        perturbation_bound(0.0, 0.5, 1.0, 0.5, 0.0)
    with pytest.raises(InvalidParameter):
        perturbation_bound(1.0, -1.0, 1.0, 0.5, 0.0)
    with pytest.raises(InvalidParameter):
        perturbation_bound(1.0, 0.5, 1.0, 1.0, 0.0)
    with pytest.raises(InvalidParameter):
        perturbation_bound(1.0, 0.5, 1.0, 0.5, -0.1)


# ---------------------------------------------------------------------------
# Parametric sweep.

def test_parametric_sweep_scale_family():
    inst = builtin("param_scale")
    q = query("param_scale")
    res = parametric_sweep(inst.family, inst.p_grid, q)
    assert res.uniform_modulus == pytest.approx(1.0, abs=1e-9)
    assert [p for p, _ in res.per_p] == [1.0, 1.5, 2.0]
    for p, v in res.per_p:
        # scaling by p divides every distance ratio by exactly p
        assert v == pytest.approx(1.0 / p, rel=1e-9)


def test_parametric_sweep_prefixes_errors_with_p():
    def family(p):
        if p == 2.0:
            return MultiMap(AffineMap(np.eye(2), np.zeros(2)),
                            Polyhedron(np.zeros((0, 2)), np.zeros(0)))
        return builtin("identity2").F

    q = query("identity2", budget=300)
    with pytest.raises(NoAdmissibleSamples) as exc:
        parametric_sweep(family, [1.0, 2.0], q)
    assert str(exc.value).startswith("p=2.0:")
