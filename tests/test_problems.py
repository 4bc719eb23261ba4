"""Problem files: parsing, diagnostics, canonical serialization."""

import json

import numpy as np
import pytest

from regcert.errors import ProblemFileError
from regcert.geometry import Ball, Polyhedron, ProductSet, Singleton
from regcert.instances import builtin, registry_names
from regcert.multimap import AffineMap, PolynomialMap
from regcert.problems import (
    ANALYSIS_OPS,
    canonical_json,
    instance_problem,
    jsonable,
    load_problem,
    map_from_dict,
    map_to_dict,
    parse_problem,
    problem_to_dict,
    samples_csv,
    set_from_dict,
    set_to_dict,
)


def minimal_problem_dict():
    return {
        "schema_version": 1,
        "f": {"kind": "affine", "A": [[1.0, 0.0], [0.0, 1.0]],
              "b": [0.0, 0.0]},
        "K": {"kind": "singleton", "point": [0.0, 0.0]},
        "x0": [0.0, 0.0],
        "y0": [0.0, 0.0],
    }


def raises_at(data, path_fragment):
    with pytest.raises(ProblemFileError) as exc:
        parse_problem(data)
    assert path_fragment in str(exc.value)
    return exc.value


# ---------------------------------------------------------------------------
# Round trips.

def test_every_registry_export_round_trips():
    for name in registry_names():
        prob = instance_problem(builtin(name), seed=7)
        d1 = problem_to_dict(prob)
        prob2 = parse_problem(json.loads(canonical_json(d1)))
        d2 = problem_to_dict(prob2)
        assert canonical_json(d1) == canonical_json(d2)
        assert prob2.name == name
        assert np.array_equal(prob2.x0, prob.x0)
        assert prob2.analyses == prob.analyses


def test_map_round_trips():
    aff = AffineMap([[2.0, 1.0]], [3.0])
    aff2 = map_from_dict(map_to_dict(aff))
    assert np.array_equal(aff2.A, aff.A) and np.array_equal(aff2.b, aff.b)
    poly = PolynomialMap(2, [[(1.5, (2, 0)), (-1.0, (0, 1))]])
    poly2 = map_from_dict(map_to_dict(poly))
    assert poly2.outputs == poly.outputs


def test_set_round_trips():
    for K in (Singleton([1.0, 2.0]),
              Ball([0.0, 0.0], 2.5),
              Polyhedron([[1.0, 0.0], [0.0, -1.0]], [1.0, 0.0]),
              ProductSet((Singleton([0.0]),
                          Polyhedron([[1.0]], [0.0])))):
        K2 = set_from_dict(set_to_dict(K))
        assert type(K2) is type(K)
        assert K2.dim == K.dim
        Z = np.random.default_rng(0).uniform(-3, 3, size=(20, K.dim))
        assert np.allclose(K.distance_batch(Z), K2.distance_batch(Z))


def test_file_round_trip(tmp_path):
    prob = instance_problem(builtin("halfplane_directional"), seed=3)
    path = tmp_path / "problem.json"
    path.write_text(canonical_json(problem_to_dict(prob)))
    loaded = load_problem(str(path))
    assert loaded.name == "halfplane_directional"
    assert loaded.dc is not None and loaded.dc.delta == 0.2
    assert loaded.region.seed == 3


# ---------------------------------------------------------------------------
# Diagnostics carry the offending path.

def test_schema_version_checked():
    data = minimal_problem_dict()
    data["schema_version"] = 2
    err = raises_at(data, "schema_version")
    assert "unsupported" in str(err)


def test_unknown_top_level_field_rejected():
    data = minimal_problem_dict()
    data["extra"] = 1
    raises_at(data, "extra")


def test_missing_field_names_path():
    data = minimal_problem_dict()
    del data["f"]["b"]
    err = raises_at(data, "f.b")
    assert "missing" in str(err)


def test_mismatched_offset_length_diagnosed():
    data = minimal_problem_dict()
    data["f"]["A"] = [[1.0], [0.0], [0.0]]
    data["f"]["b"] = [0.0, 0.0]
    err = raises_at(data, "f.b")
    assert "length 2 does not match the 3 rows of A" in str(err)


def test_bad_vector_entries_diagnosed():
    data = minimal_problem_dict()
    data["x0"] = [0.0, "a"]
    raises_at(data, "x0")
    data = minimal_problem_dict()
    data["x0"] = [0.0]
    err = raises_at(data, "x0")
    assert "expected length 2" in str(err)


def test_unknown_kinds_diagnosed():
    data = minimal_problem_dict()
    data["f"] = {"kind": "spline"}
    err = raises_at(data, "f.kind")
    assert "spline" in str(err)
    data = minimal_problem_dict()
    data["K"] = {"kind": "torus"}
    raises_at(data, "K.kind")


def test_set_map_dimension_cross_check():
    data = minimal_problem_dict()
    data["K"] = {"kind": "singleton", "point": [0.0, 0.0, 0.0]}
    err = raises_at(data, "K")
    assert "does not match" in str(err)


def test_analysis_validation():
    data = minimal_problem_dict()
    data["analyses"] = [{"op": "warp"}]
    err = raises_at(data, "analyses[0].op")
    assert "warp" in str(err) and "modulus" in str(err)
    data["analyses"] = [{"op": "modulus", "bogus": 1}]
    err = raises_at(data, "analyses[0].bogus")
    assert "unknown parameter" in str(err)
    data["analyses"] = [{"op": "slope", "tau": "big"}]
    raises_at(data, "analyses[0].tau")
    data["analyses"] = [{"op": "modulus", "n_points": 0}]
    err = raises_at(data, "analyses[0].n_points")
    assert ">= 1" in str(err)
    # the ranges the library's guards state are checked at parse time
    perturb = {"op": "perturb", "tau": 1.0, "delta": 0.5, "ybar_norm": 1.0,
               "alpha": 0.5, "L": 0.05}
    for op, key, value, message in (
            ("slope", "tau", -1.0, "> 0"),
            ("slope", "tau", 0.0, "> 0"),
            ("modulus", "tau_target", -2.0, "> 0"),
            ("sweep", "tau_target", 0.0, "> 0"),
            ("perturb", "tau", 0.0, "> 0"),
            ("perturb", "delta", 0.0, "> 0"),
            ("perturb", "ybar_norm", -0.5, ">= 0"),
            ("perturb", "alpha", 1.5, "between 0 and 1"),
            ("perturb", "alpha", 1.0, "between 0 and 1"),
            ("perturb", "alpha", 0.0, "between 0 and 1"),
            ("perturb", "L", -0.01, ">= 0")):
        spec = dict(perturb) if op == "perturb" else {"op": op}
        spec[key] = value
        data["analyses"] = [spec]
        err = raises_at(data, f"analyses[0].{key}")
        assert message in str(err), (op, key, value)
    # the boundary values the guards admit still parse
    data["analyses"] = [dict(perturb, ybar_norm=0, L=0)]
    assert parse_problem(data).analyses[0]["L"] == 0.0


def test_slope_slack_outside_zero_one_is_rejected():
    # (1/tau)(1 - slack) must stay positive for the slope verdict to say
    # anything, so slack lies in [0, 1)
    data = minimal_problem_dict()
    for value in (1.0, 5.0, -0.1):
        data["analyses"] = [{"op": "slope", "tau": 0.01, "slack": value}]
        err = raises_at(data, "analyses[0].slack")
        assert "[0, 1)" in str(err), value
    data["analyses"] = [{"op": "slope", "tau": 0.01, "slack": 0}]
    assert parse_problem(data).analyses[0]["slack"] == 0.0


def test_each_op_accepts_only_its_own_parameters():
    values = {"ybar": [1.0, 0.0], "p_grid": [1.0, 2.0],
              "delta_ladder": [0.1], "xbar": [0.5, 0.5],
              "n_points": 3, "slope_budget": 3, "samples_per_delta": 3,
              "max_slope_points": 3}
    data = minimal_problem_dict()
    for op, (required, optional) in ANALYSIS_OPS.items():
        spec = {"op": op}
        spec.update({k: values.get(k, 0.5) for k in required + optional})
        data["analyses"] = [spec]
        assert parse_problem(data).analyses == (spec,)
        for key in values.keys() | {"tau", "m", "L", "ladder_depth"}:
            if key in required + optional:
                continue
            data["analyses"] = [{"op": op, key: values.get(key, 2)}]
            err = raises_at(data, f"analyses[0].{key}")
            assert f"unknown parameter for op {op!r}" in str(err)


def test_region_validation():
    data = minimal_problem_dict()
    data["region"] = {"box": [[0.0, 1.0]], "sample_budget": 10, "seed": 0}
    err = raises_at(data, "region.box")
    assert "(2, 2)" in str(err)
    data["region"] = {"box": [[0.0, 1.0], [0.0, 1.0]], "sample_budget": 0,
                      "seed": 0}
    raises_at(data, "region.sample_budget")


def test_direction_validation():
    data = minimal_problem_dict()
    data["direction"] = {"ybar": [1.0, 0.0], "delta": -0.5}
    err = raises_at(data, "direction.delta")
    assert ">= 0" in str(err)
    data["direction"] = {"delta": 0.1}
    raises_at(data, "direction.ybar")


def test_family_requires_affine_map():
    data = minimal_problem_dict()
    data["f"] = {"kind": "polynomial", "dim_in": 2,
                 "outputs": [[[1.0, [2, 0]]], [[1.0, [0, 2]]]]}
    data["family"] = {"kind": "scale", "p_grid": [1.0, 2.0]}
    raises_at(data, "family.kind")


def test_family_maker_scales_affine_part():
    data = minimal_problem_dict()
    data["family"] = {"kind": "scale", "p_grid": [1.0, 2.0]}
    prob = parse_problem(data)
    F2 = prob.family()(2.0)
    assert np.allclose(F2.f.A, 2.0 * np.eye(2))
    plain = parse_problem(minimal_problem_dict())
    with pytest.raises(ProblemFileError):
        plain.family()


def test_load_problem_bad_file(tmp_path):
    missing = tmp_path / "nope.json"
    with pytest.raises(ProblemFileError) as exc:
        load_problem(str(missing))
    assert "cannot read" in str(exc.value)
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ProblemFileError) as exc:
        load_problem(str(bad))
    assert "invalid JSON" in str(exc.value)


# ---------------------------------------------------------------------------
# Canonical serialization.

def test_jsonable_handles_special_floats():
    assert jsonable(np.inf) == "inf"
    assert jsonable(-np.inf) == "-inf"
    assert jsonable(np.float64(2.5)) == 2.5
    assert jsonable(np.array([1.0, np.inf])) == [1.0, "inf"]
    assert jsonable({"a": np.int64(3)}) == {"a": 3}
    with pytest.raises(ValueError):
        jsonable(float("nan"))
    with pytest.raises(TypeError):
        jsonable(object())


def test_canonical_json_is_stable_and_sorted():
    text = canonical_json({"b": 1, "a": [np.inf, 2.0]})
    assert text == '{\n  "a": [\n    "inf",\n    2.0\n  ],\n  "b": 1\n}\n'
    assert canonical_json({"a": [np.inf, 2.0], "b": 1}) == text


def test_samples_csv_golden():
    recs = [
        {"x": np.array([0.5]), "y": np.array([1.0, -2.0]),
         "image_dist": 0.25, "preimage_dist": 0.5, "ratio": 2.0,
         "admissible": True},
        {"x": np.array([0.1]), "y": np.array([0.0, 0.0]),
         "image_dist": np.inf, "preimage_dist": np.nan, "ratio": np.nan,
         "admissible": False},
    ]
    text = samples_csv(recs, 1, 2)
    lines = text.splitlines()
    assert lines[0] == "x0,y0,y1,image_dist,preimage_dist,ratio,admissible"
    assert lines[1] == "0.5,1.0,-2.0,0.25,0.5,2.0,1"
    assert lines[2] == "0.1,0.0,0.0,inf,nan,nan,0"
    assert text.endswith("\n")
