"""Registry instances: known values re-derived through the lattice oracle."""

import warnings

import numpy as np
import pytest

from regcert.errors import UnknownInstance
from regcert.instances import builtin, registry_names
from regcert.multimap import default_region, image_distance
from regcert.oracle import Grid, grid_modulus
from regcert.regularity import RegularityQuery, robinson_condition


def oracle_modulus(F, x0, y0, dc, px=21, py=15):
    q = RegularityQuery(F, x0, y0, dc=dc, epsilon=0.5,
                        region=default_region(x0, 1.25, 500, seed=0))
    g_x = Grid(np.stack([x0 - 1.25, x0 + 1.25], axis=1), px)
    g_y = Grid(np.stack([y0 - 0.5, y0 + 0.5], axis=1), py)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return grid_modulus(F, q, g_x, g_y)


def test_registry_listing_sorted_and_complete():
    names = registry_names()
    assert names == tuple(sorted(names))
    assert set(names) == {"identity2", "diag_2_05", "halfplane_directional",
                          "hoffman_2d", "parabola_eb", "param_scale"}


def test_unknown_instance_lists_available_names():
    with pytest.raises(UnknownInstance) as exc:
        builtin("no_such_thing")
    msg = str(exc.value)
    assert "no_such_thing" in msg
    assert "identity2" in msg


def test_instances_are_graph_points_with_small_dims():
    for name in registry_names():
        inst = builtin(name)
        assert inst.name == name
        assert inst.F.dim_in <= 3 and inst.F.dim_out <= 3
        assert image_distance(inst.F, inst.x0, inst.y0) <= 1e-7


def test_known_values_carry_provenance_notes():
    for name in registry_names():
        inst = builtin(name)
        assert inst.known is not None
        assert isinstance(inst.known.notes, str) and inst.known.notes.strip()


def test_oracle_confirms_known_moduli():
    # finite known values against the exhaustive lattice sup, within the
    # resolution of a 21/15-point grid pair
    for name, expect in (("identity2", 1.0), ("diag_2_05", 2.0),
                         ("hoffman_2d", 1.0)):
        inst = builtin(name)
        assert inst.known.modulus == expect
        sup = oracle_modulus(inst.F, inst.x0, inst.y0, inst.dc)
        assert abs(sup - expect) <= 0.05 * expect


def test_oracle_confirms_halfplane_directional_modulus():
    inst = builtin("halfplane_directional")
    assert inst.known.modulus == 1.0
    sup = oracle_modulus(inst.F, inst.x0, inst.y0, inst.dc, px=41, py=21)
    assert abs(sup - 1.0) <= 0.05


def test_oracle_reports_parabola_unbounded():
    inst = builtin("parabola_eb")
    assert inst.known.modulus == np.inf
    assert not inst.known.robinson
    sup = oracle_modulus(inst.F, inst.x0, inst.y0, inst.dc, px=41, py=21)
    assert sup == np.inf


def test_robinson_flags_match_lp_verdicts():
    for name in ("identity2", "diag_2_05", "hoffman_2d"):
        inst = builtin(name)
        res = robinson_condition(inst.F, inst.x0, inst.y0,
                                 np.zeros(inst.F.dim_out))
        assert res.holds == inst.known.robinson
    half = builtin("halfplane_directional")
    assert half.known.robinson
    assert robinson_condition(half.F, half.x0, half.y0, half.dc.ybar).holds
    assert not robinson_condition(half.F, half.x0, half.y0,
                                  -half.dc.ybar).holds
    para = builtin("parabola_eb")
    assert robinson_condition(para.F, para.x0, para.y0,
                              np.zeros(1)).holds == para.known.robinson


def test_param_scale_family_and_grid():
    inst = builtin("param_scale")
    assert inst.p_grid == (1.0, 1.5, 2.0)
    for p in inst.p_grid:
        F = inst.family(p)
        assert np.allclose(F.f.A, p * np.eye(2))
    # oracle sees the 1/p modulus at the endpoints
    for p, expect in ((1.0, 1.0), (2.0, 0.5)):
        sup = oracle_modulus(inst.family(p), inst.x0, inst.y0, None)
        assert abs(sup - expect) <= 0.05 * expect


def test_only_param_scale_declares_a_family():
    for name in registry_names():
        inst = builtin(name)
        if name == "param_scale":
            assert inst.family is not None and inst.p_grid is not None
        else:
            assert inst.family is None and inst.p_grid is None
