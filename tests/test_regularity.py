"""Regularity criteria: modulus sampling, slopes, duals, LPs, perturbation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from regcert.errors import (
    DimensionMismatch,
    InvalidParameter,
    InvalidPerturbation,
    NoAdmissibleSamples,
    NotInSet,
    NotPolyhedral,
)
from regcert.geometry import Ball, DirectionalCone, Polyhedron, Singleton
from regcert.instances import builtin
from regcert.multimap import AffineMap, MultiMap, default_region
from regcert.regularity import (
    CoderivativeEstimate,
    DualPair,
    RegularityQuery,
    _admissible_pairs,
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


def test_modulus_thread_invariance():
    a = empirical_directional_modulus(query("diag_2_05"), threads=1)
    b = empirical_directional_modulus(query("diag_2_05"), threads=4)
    assert a.sup_ratio == b.sup_ratio
    assert a.n_admissible == b.n_admissible
    assert np.array_equal(a.worst_witness[0], b.worst_witness[0])
    assert np.array_equal(a.worst_witness[1], b.worst_witness[1])


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
