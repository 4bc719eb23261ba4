"""Command line driver: exit codes, reports, determinism."""

import json
import os
import shutil
import subprocess
import sys
from contextlib import contextmanager
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import regcert
from regcert import cli, geometry, slopes
from regcert.cli import main
from regcert.errors import RegcertError
from regcert.geometry import TOL_MEMBER
from regcert.instances import builtin, registry_names
from regcert.multimap import (AffineMap, MultiMap, SearchRegion,
                              image_distance_batch, preimage_distance)
from regcert.problems import (ANALYSIS_OPS, instance_problem, load_problem,
                              parse_problem, problem_to_dict, samples_csv)
from regcert.regularity import RegularityQuery, empirical_directional_modulus
from regcert.slopes import error_bound_certificate


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# Summaries and verdicts on the registry.

def test_analyze_identity_summary(capsys):
    code, out, _ = run(capsys, ["analyze", "identity2", "--seed", "7",
                                "--budget", "2000", "--no-timestamp"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "identity2: 2 analyses, seed 7, budget 2000"
    assert lines[1] == "  modulus: sup_ratio=1 over 1177 admissible pairs " \
                       "-> PASS"
    assert lines[2] == "  robinson: margin=10 -> PASS"


def test_analyze_diag_and_halfplane(capsys):
    code, out, _ = run(capsys, ["analyze", "diag_2_05", "--seed", "7",
                                "--budget", "2000", "--no-timestamp"])
    assert code == 0
    assert "sup_ratio=2 over 931 admissible pairs -> PASS" in out
    code, out, _ = run(capsys, ["analyze", "halfplane_directional", "--seed",
                                "7", "--budget", "2000", "--no-timestamp"])
    assert code == 0
    assert "sup_ratio=1 over 87 admissible pairs -> PASS" in out


def test_analyze_hoffman_runs_error_bound(capsys):
    code, out, _ = run(capsys, ["analyze", "hoffman_2d", "--seed", "7",
                                "--budget", "2000", "--no-timestamp"])
    assert code == 0
    assert "error_bound: f=1 d=1 slope_inf=1 -> PASS" in out


def test_analyze_parabola_reports_honest_failure(capsys):
    code, out, _ = run(capsys, ["analyze", "parabola_eb", "--seed", "7",
                                "--budget", "2000", "--no-timestamp"])
    assert code == 1
    assert "robinson: margin=0 -> FAIL" in out


def test_sweep_param_scale(capsys):
    code, out, _ = run(capsys, ["analyze", "param_scale", "--seed", "7",
                                "--budget", "1000", "--no-timestamp"])
    assert code == 0
    assert "sweep: uniform_modulus=1 -> PASS" in out


# ---------------------------------------------------------------------------
# Single-analysis commands with frozen numbers.

def test_slope_command(capsys, tmp_path):
    rep = tmp_path / "slope.json"
    code, out, _ = run(capsys, ["slope", "diag_2_05", "--tau", "2",
                                "--n-points", "8", "--seed", "7",
                                "--out", str(rep), "--no-timestamp"])
    assert code == 0
    assert "min_slope=0.500378 vs threshold 0.475 -> PASS" in out
    data = json.loads(rep.read_text())
    res = data["analyses"][0]["result"]
    assert res["min_slope"] == pytest.approx(0.5003777478231088, rel=1e-12)
    assert res["threshold"] == 0.475


def test_coderivative_command(capsys, tmp_path):
    rep = tmp_path / "cod.json"
    code, out, _ = run(capsys, ["coderivative", "halfplane_directional",
                                "--delta-ladder", "0.1",
                                "--samples-per-delta", "400", "--seed", "7",
                                "--m", "0.8", "--out", str(rep),
                                "--no-timestamp"])
    assert code == 0
    assert "inf=0.995357 over 69 dual pairs (upper bound) -> PASS" in out
    res = json.loads(rep.read_text())["analyses"][0]["result"]
    assert res["inf_value"] == pytest.approx(0.9953567148126544, rel=1e-12)
    assert res["n_pairs"] == 69


def test_coderivative_without_surviving_pairs_is_an_error(capsys, tmp_path):
    # delta 0 leaves no dual pair, so there is no minimum to compare with m
    rep = tmp_path / "cod.json"
    code, out, _ = run(capsys, ["coderivative", "halfplane_directional",
                                "--delta-ladder", "0", "--m", "0.8",
                                "--seed", "3", "--out", str(rep),
                                "--no-timestamp"])
    assert code == 1
    assert "coderivative: ERROR NoAdmissibleSamples" in out
    assert "PASS" not in out
    record = json.loads(rep.read_text())["analyses"][0]
    assert record["error"]["type"] == "NoAdmissibleSamples"
    assert record["result"] is None and record["holds"] is None


def test_robinson_direction_override_fails_honestly(capsys):
    code, out, _ = run(capsys, ["robinson", "halfplane_directional",
                                "--ybar", "0,-1", "--no-timestamp"])
    assert code == 1
    assert "-> FAIL" in out


def test_oracle_check_passes_on_identity(capsys):
    code, out, _ = run(capsys, ["oracle-check", "identity2", "--seed", "7"])
    assert code == 0
    assert "-> PASS" in out
    assert "estimator=1" in out


def test_perturb_prints_bound(capsys, tmp_path):
    rep = tmp_path / "p.json"
    code, out, _ = run(capsys, ["perturb", "--tau", "1", "--delta", "0.5",
                                "--ybar-norm", "1", "--alpha", "0.5",
                                "--L", "0.05", "--out", str(rep),
                                "--no-timestamp"])
    assert code == 0
    assert out.splitlines()[0] == "2.64151"
    data = json.loads(rep.read_text())
    assert data["result"]["bound"] == pytest.approx(2.641509433962264,
                                                    abs=1e-12)


# ---------------------------------------------------------------------------
# Reports are canonical and byte-stable.

def analyze_bytes(capsys, tmp_path, target, tag, extra=()):
    rep = tmp_path / f"{tag}.json"
    code, _, _ = run(capsys, ["analyze", target, "--seed", "7", "--budget",
                              "2000", "--no-timestamp", "--out", str(rep),
                              *extra])
    return code, rep.read_bytes()


def test_reports_byte_stable_across_reruns(capsys, tmp_path):
    code1, b1 = analyze_bytes(capsys, tmp_path, "identity2", "a")
    code2, b2 = analyze_bytes(capsys, tmp_path, "identity2", "b")
    assert code1 == code2 == 0
    assert b1 == b2


def test_reports_thread_invariant(capsys, tmp_path):
    _, b1 = analyze_bytes(capsys, tmp_path, "identity2", "t1",
                          ("--threads", "1"))
    _, b8 = analyze_bytes(capsys, tmp_path, "identity2", "t8",
                          ("--threads", "8"))
    assert b1 == b8


def test_report_content(capsys, tmp_path):
    _, raw = analyze_bytes(capsys, tmp_path, "identity2", "c")
    data = json.loads(raw)
    assert data["schema_version"] == 1
    assert data["verdicts"] == {"all_hold": True, "n_analyses": 2,
                                "n_failed": 0, "n_errors": 0}
    assert data["summary"]["modulus_estimate"] == 1.0
    assert data["summary"]["robinson_margin"] == 10.0
    assert data["seed"] == 7
    assert data["query"]["sample_budget"] == 2000
    assert data["generated_at"] is None and data["wall_time_s"] is None
    assert data["tolerances"]["tol_member"] == TOL_MEMBER


def test_problem_file_input_matches_registry_input(capsys, tmp_path):
    exported = tmp_path / "hp.json"
    code, _, _ = run(capsys, ["instances", "--export",
                              "halfplane_directional", "--out",
                              str(exported)])
    assert code == 0
    _, by_file = analyze_bytes(capsys, tmp_path, str(exported), "f")
    _, by_name = analyze_bytes(capsys, tmp_path, "halfplane_directional",
                               "n")
    assert by_file == by_name


# ---------------------------------------------------------------------------
# CSV dump round-trips through the library sampler.

def test_csv_matches_library_records(capsys, tmp_path):
    csv_path = tmp_path / "samples.csv"
    code, _, _ = run(capsys, ["analyze", "halfplane_directional", "--seed",
                              "7", "--budget", "600", "--no-timestamp",
                              "--csv", str(csv_path)])
    assert code == 0
    text = csv_path.read_text()
    lines = text.splitlines()
    assert lines[0] == "x0,y0,y1,image_dist,preimage_dist,ratio,admissible"
    assert len(lines) == 601

    problem = instance_problem(builtin("halfplane_directional"))
    from dataclasses import replace
    region = replace(problem.region, sample_budget=600, seed=7)
    q = RegularityQuery(problem.F, problem.x0, problem.y0, dc=problem.dc,
                        epsilon=problem.epsilon, region=region,
                        tol_member=TOL_MEMBER)
    est = empirical_directional_modulus(q, collect=True)
    assert text == samples_csv(est.samples, q.F.dim_in, q.F.dim_out)


def test_csv_without_modulus_analysis_warns(capsys, tmp_path):
    csv_path = tmp_path / "none.csv"
    code, _, err = run(capsys, ["robinson", "identity2", "--no-timestamp",
                                "--csv", str(csv_path)])
    assert code == 0
    assert "no modulus samples collected" in err
    assert not csv_path.exists()


# ---------------------------------------------------------------------------
# Exit codes for bad input and tripped guards.

def test_unknown_instance_is_input_error(capsys):
    code, _, err = run(capsys, ["analyze", "no_such_instance"])
    assert code == 2
    assert "input error" in err


def test_malformed_file_writes_no_report(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    rep = tmp_path / "report.json"
    code, _, err = run(capsys, ["analyze", str(bad), "--out", str(rep)])
    assert code == 2
    assert "input error" in err and not rep.exists()
    incomplete = tmp_path / "incomplete.json"
    incomplete.write_text('{"schema_version": 1}')
    code, _, err = run(capsys, ["analyze", str(incomplete), "--out",
                                str(rep)])
    assert code == 2
    assert not rep.exists()


def test_empty_product_factor_is_an_input_error(capsys, tmp_path):
    # K = Ball x an empty polyhedron is empty, as an empty Polyhedron is:
    # y0 is not in F(x0), an input error with no report, not a crash in
    # the projection
    exported = tmp_path / "hp.json"
    code, _, _ = run(capsys, ["instances", "--export",
                              "halfplane_directional", "--out",
                              str(exported)])
    assert code == 0
    data = json.loads(exported.read_text())
    empty = {"kind": "polyhedron", "C": [[1.0], [-1.0]], "d": [-2.0, -2.0]}
    rep = tmp_path / "report.json"
    for K in ({"kind": "product",
               "factors": [{"kind": "ball", "center": [0.0], "radius": 0.3},
                           empty]},
              {"kind": "polyhedron", "C": [[1.0, 0.0], [-1.0, 0.0]],
               "d": [-2.0, -2.0]}):
        data["K"] = K
        exported.write_text(json.dumps(data))
        code, _, err = run(capsys, ["modulus", str(exported), "--out",
                                    str(rep)])
        assert code == 2, K["kind"]
        assert "input error: y0 is not in F(x0)" in err
        assert not rep.exists()


def test_lattice_cap_is_guard_exit(capsys):
    code, _, err = run(capsys, ["oracle-check", "identity2", "--points-x",
                                "999"])
    assert code == 3
    assert "internal guard" in err


def test_lp_solver_stop_is_guard_exit(capsys, tmp_path, monkeypatch):
    # no pivot allowed: the interiority LP stops at its first pivot
    monkeypatch.setattr(geometry, "LP_MAX_PIVOTS", 0)
    code, _, err = run(capsys, ["robinson", "identity2", "--no-timestamp"])
    assert code == 3
    assert "internal guard" in err
    rep = tmp_path / "report.json"
    code, _, _ = run(capsys, ["analyze", "identity2", "--no-timestamp",
                              "--out", str(rep)])
    assert code == 3
    errors = {r["op"]: r["error"]
              for r in json.loads(rep.read_text())["analyses"]}
    assert errors["robinson"]["type"] == "SimplexIterationLimit"
    assert errors["modulus"] is None


def test_bad_flag_values_are_input_errors(capsys, tmp_path):
    code, _, err = run(capsys, ["analyze", "identity2", "--budget", "0"])
    assert code == 2
    code, _, err = run(capsys, ["robinson", "identity2", "--ybar", "a,b"])
    assert code == 2
    for tol in ("-1", "nan", "inf"):
        code, _, err = run(capsys, ["analyze", "identity2", "--tol", tol])
        assert code == 2
        assert "tol_member" in err and "not in F(x0)" not in err
    for threads in ("0", "-2"):
        code, _, err = run(capsys, ["analyze", "identity2", "--threads",
                                    threads])
        assert code == 2
        assert "--threads" in err
    # flags get the validation a problem file gets, and no report is written
    rep = tmp_path / "report.json"
    for argv in (["slope", "identity2", "--tau", "1", "--slope-budget", "0"],
                 ["slope", "identity2", "--tau", "1", "--n-points", "0"],
                 ["analyze", "identity2", "--seed", "-1"],
                 ["analyze", "identity2", "--seed", str(2 ** 64)],
                 ["coderivative", "halfplane_directional",
                  "--samples-per-delta", "0"],
                 ["oracle-check", "identity2", "--points-x", "0"],
                 ["sweep", "param_scale", "--p-grid", ","],
                 ["slope", "identity2", "--tau", "-1"],
                 ["slope", "identity2", "--tau", "0"],
                 ["modulus", "identity2", "--tau", "-2"],
                 ["sweep", "param_scale", "--tau", "0"],
                 ["perturb", "--tau", "1", "--delta", "0.5", "--ybar-norm",
                  "1", "--alpha", "1.5", "--L", "0.05"]):
        code, _, err = run(capsys, argv + ["--out", str(rep)])
        assert code == 2, argv
        assert err.startswith("input error:"), argv
        assert not rep.exists(), argv
    # the last case, perturb's --alpha, names its key like the others
    assert "input error: flags.alpha:" in err
    # an out-of-range problem-file value is an input error too
    data = problem_to_dict(instance_problem(builtin("identity2")))
    data["analyses"] = [{"op": "perturb", "tau": 1.0, "delta": 0.5,
                         "ybar_norm": 1.0, "alpha": 1.5, "L": 0.05}]
    path = tmp_path / "perturb.json"
    path.write_text(json.dumps(data))
    code, _, err = run(capsys, ["analyze", str(path), "--out", str(rep)])
    assert code == 2
    assert err.startswith("input error: analyses[0].alpha:")
    assert not rep.exists()


def test_every_op_runs_with_every_optional_parameter(capsys, tmp_path):
    # each runner hands its parameters to the library by keyword, so a
    # renamed library keyword shows up here as an error, not as a default
    values = {"tau_target": 1.1, "tau": 1.0, "n_points": 2,
              "slope_budget": 20, "slack": 0.05, "ybar": [0.0, 1.0],
              "delta_ladder": [0.1], "samples_per_delta": 20, "m": 0.5,
              "delta": 0.5, "ybar_norm": 1.0, "alpha": 0.5, "L": 0.05,
              "p_grid": [1.0, 2.0], "xbar": [0.6], "max_slope_points": 2}
    assert set(values) == {k for keys in ANALYSIS_OPS.values()
                           for k in sum(keys, ())}
    # sweep needs a family, coderivative a direction and a polyhedral K
    by_instance = {"param_scale": ["sweep"],
                   "halfplane_directional": [op for op in ANALYSIS_OPS
                                             if op != "sweep"]}
    for name, ops in by_instance.items():
        data = problem_to_dict(instance_problem(builtin(name)))
        data["analyses"] = [{"op": op, **{k: values[k]
                                          for k in sum(ANALYSIS_OPS[op], ())}}
                            for op in ops]
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(data))
        rep = tmp_path / f"{name}-report.json"
        code, _, err = run(capsys, ["analyze", str(path), "--budget", "400",
                                    "--no-timestamp", "--out", str(rep)])
        assert code in (0, 1), err
        records = json.loads(rep.read_text())["analyses"]
        assert [r["op"] for r in records] == ops
        assert [r["error"] for r in records] == [None] * len(ops)


def test_robinson_is_taken_at_the_problem_y0(capsys, tmp_path):
    exported = tmp_path / "hp.json"
    code, _, _ = run(capsys, ["instances", "--export",
                              "halfplane_directional", "--out",
                              str(exported)])
    assert code == 0
    data = json.loads(exported.read_text())
    # y0 = (0, 1) lies a unit inside F(0) = {0} x [0, inf)
    data["y0"] = [0, 1]
    del data["direction"]
    data["analyses"] = [{"op": "modulus", "tau_target": 1.1},
                        {"op": "robinson"}]
    exported.write_text(json.dumps(data))
    code, out, _ = run(capsys, ["analyze", str(exported), "--no-timestamp"])
    assert code == 0
    assert "robinson: margin=1 -> PASS" in out


def test_wrong_length_error_bound_point_is_a_reported_error(capsys,
                                                            tmp_path):
    exported = tmp_path / "hoffman.json"
    code, _, _ = run(capsys, ["instances", "--export", "hoffman_2d", "--out",
                              str(exported)])
    assert code == 0
    data = json.loads(exported.read_text())
    data["analyses"] = [{"op": "robinson"},
                        {"op": "error_bound", "xbar": [0.6]}]
    exported.write_text(json.dumps(data))
    rep = tmp_path / "report.json"
    code, out, _ = run(capsys, ["analyze", str(exported), "--budget", "100",
                                "--no-timestamp", "--out", str(rep)])
    assert code == 1
    assert ("error_bound: ERROR DimensionMismatch: xbar: expected length 2, "
            "got 1") in out
    records = json.loads(rep.read_text())["analyses"]
    assert records[0]["error"] is None
    assert records[1]["error"]["type"] == "DimensionMismatch"


# ---------------------------------------------------------------------------
# The error-bound certificate's sublevel foot: for affine f with polyhedral
# K the CLI takes it from the exact preimage projection, with no ray search.

@contextmanager
def _no_ray_search():
    def refuse(*args):
        raise AssertionError("the ray search ran")

    with mock.patch.object(slopes, "_segment_hits", refuse), \
            mock.patch.object(slopes, "_direction_descent", refuse):
        yield


def test_foot_route_reports_the_same_input_errors(capsys, tmp_path):
    # a wrong-length xbar and one inside the preimage raise before the
    # foot is asked, as they do before the ray search
    problem = instance_problem(builtin("hoffman_2d"))
    data = problem_to_dict(problem)
    data["analyses"] = [{"op": "error_bound", "xbar": [0.6]},
                        {"op": "error_bound", "xbar": [-0.5, -0.5]}]
    path = tmp_path / "hoffman.json"
    path.write_text(json.dumps(data))
    rep = tmp_path / "report.json"
    feet = []

    def certificate(*args, foot=None, **kwargs):
        feet.append(foot)
        return error_bound_certificate(*args, foot=foot, **kwargs)

    with mock.patch.object(cli, "error_bound_certificate", certificate), \
            mock.patch.object(cli, "preimage_projection_batch",
                              side_effect=AssertionError("foot asked")):
        code, out, _ = run(capsys, ["analyze", str(path), "--budget", "100",
                                    "--no-timestamp", "--out", str(rep)])
    assert code == 1
    assert len(feet) == 2 and all(foot is not None for foot in feet)
    field = cli._residual_field(RegularityQuery(problem.F, problem.x0,
                                                problem.y0))
    expected = []
    for spec in data["analyses"]:
        with pytest.raises(RegcertError) as exc:
            error_bound_certificate(field, spec["xbar"], problem.region)
        expected.append({"type": type(exc.value).__name__,
                         "message": str(exc.value)})
    assert [e["type"] for e in expected] == ["DimensionMismatch", "InSet"]
    records = json.loads(rep.read_text())["analyses"]
    assert [r["error"] for r in records] == expected
    for e in expected:
        assert f"error_bound: ERROR {e['type']}: {e['message']}" in out


def test_hoffman_foot_certificate_is_the_ray_search_bit_for_bit():
    # the exact foot of (0.6, 0.8) is the corner (0, 0), which the ray
    # search reaches exactly, so every bit of the certificate agrees
    inst = builtin("hoffman_2d")
    for seed, budget in ((1, 100), (7, 300), (12345, 300), (3, 2000)):
        problem = instance_problem(inst, sample_budget=budget, seed=seed)
        q = RegularityQuery(problem.F, problem.x0, problem.y0,
                            region=problem.region)
        ray = error_bound_certificate(cli._residual_field(q), [0.6, 0.8],
                                      q.region)
        with _no_ray_search():
            result, holds, _ = cli._run_error_bound(
                problem, q, {"xbar": [0.6, 0.8]}, None, False)
        got = (np.array([result["f_value"], result["d_sublevel"],
                         result["slope_inf"]]).tobytes(),
               result["boundary_witness"].tobytes(),
               result["n_slope_points"], holds)
        assert got == (np.array([ray.f_value, ray.d_sublevel,
                                 ray.slope_inf]).tobytes(),
                       ray.boundary_witness.tobytes(),
                       ray.n_slope_points, ray.holds), (seed, budget)
        assert result["d_sublevel"] == 1.0


def _affine_polyhedral(seed: int, kind: str, pure: str):
    """A random affine map into an orthant or a skew polyhedron, with x0 in
    the preimage of y0 = 0.  The skew K is a turned orthant, shifted:
    orthogonal rows keep the field's projections onto K short.  With
    pure != "plain" one output is ignored by f, and its row of K is a
    condition on y alone (a zero pulled-back row), which y0 meets."""
    gen = np.random.default_rng(seed)
    n = int(gen.integers(1, 4))
    A = gen.standard_normal((n, n))
    if kind == "orthant":
        C, d = np.eye(n), np.zeros(n)
    else:
        C = np.linalg.qr(gen.standard_normal((n, n)))[0]
        d = gen.uniform(0.0, 0.5, n)
    x0 = gen.uniform(-0.5, 0.5, n)
    b = -(A @ x0)
    if pure != "plain":
        A, b = np.vstack([A, np.zeros(n)]), np.append(b, -0.2)
        C = np.block([[C, np.zeros((C.shape[0], 1))],
                      [np.zeros((1, n)), np.ones((1, 1))]])
        d = np.append(d, 0.0)
    F = MultiMap(AffineMap(A, b), geometry.Polyhedron(C, d))
    return F, x0, gen


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.sampled_from(["orthant", "skew"]),
       st.sampled_from(["plain", "zero_row", "empty"]))
def test_error_bound_foot_is_the_exact_preimage_projection(seed, kind, pure):
    F, x0, gen = _affine_polyhedral(seed, kind, pure)
    n = F.dim_in
    y0 = np.zeros(F.dim_out)
    region = SearchRegion(np.array([[-1.25, 1.25]] * n), 5, 200, seed % 97)
    q = RegularityQuery(F, x0, y0, region=region)
    field = cli._residual_field(q)
    X = gen.uniform(-1.2, 1.2, size=(50, n))
    far = np.flatnonzero(field(X) > 0.05)
    assume(far.size)
    xbar = X[far[0]]

    ray = error_bound_certificate(field, xbar, region)
    with _no_ray_search():
        result, _, _ = cli._run_error_bound(None, q, {"xbar": xbar.tolist()},
                                            None, False)
    d, w = result["d_sublevel"], result["boundary_witness"]
    assert d == preimage_distance(F, y0, xbar)
    assert np.linalg.norm((w - xbar)[None, :], axis=1)[0] == d
    assert field(w[None, :])[0] <= 1e-9
    assert d <= ray.d_sublevel * (1.0 + 1e-9)

    if pure == "empty":
        # y1 breaks the condition on y: its preimage is empty, the foot is
        # (None, inf), and the certificate is the ray search's, which
        # finds no sample with f <= 0
        y1 = y0.copy()
        y1[-1] = -0.5
        foot = cli._preimage_foot(F, y1)
        assert foot(xbar) == (None, np.inf)
        assert preimage_distance(F, y1, xbar) == np.inf

        def field1(X):
            return image_distance_batch(F, X, np.tile(y1, (X.shape[0], 1)))

        with _no_ray_search():
            got = error_bound_certificate(field1, xbar, region, foot=foot)
            ref = error_bound_certificate(field1, xbar, region)
        assert got == ref and got.d_sublevel == np.inf


def test_analysis_parameters_follow_the_op_table(capsys, tmp_path):
    rep = tmp_path / "report.json"

    def analyze(analyses):
        data = problem_to_dict(instance_problem(builtin("identity2")))
        data["analyses"] = analyses
        path = tmp_path / "problem.json"
        path.write_text(json.dumps(data))
        return run(capsys, ["analyze", str(path), "--out", str(rep)])

    # a key the op does not read is rejected, not copied into the report
    code, _, err = analyze([{"op": "robinson", "tau": 3, "ladder_depth": 2}])
    assert code == 2
    assert "analyses[0].tau" in err and "unknown parameter" in err
    assert not rep.exists()
    # every required key of every op is checked before any analysis runs
    for op, (required, _) in ANALYSIS_OPS.items():
        for key in required:
            spec = {"op": op, **{k: 0.5 for k in required if k != key}}
            code, _, err = analyze([{"op": "modulus"}, spec])
            assert code == 2
            assert f"analyses[1].{key}" in err
            assert not rep.exists()


# ---------------------------------------------------------------------------
# Registry listing and export.

def test_instances_listing(capsys):
    code, out, _ = run(capsys, ["instances"])
    assert code == 0
    assert out.splitlines() == [
        "diag_2_05 (2->2): modulus=2 robinson=True",
        "halfplane_directional (1->2): modulus=1 robinson=True directional",
        "hoffman_2d (2->2): modulus=1 robinson=True",
        "identity2 (2->2): modulus=1 robinson=True",
        "parabola_eb (1->1): modulus=inf robinson=False",
        "param_scale (2->2): modulus=1 robinson=True",
    ]


def test_export_round_trips_for_every_instance(capsys, tmp_path):
    for name in registry_names():
        code, out, _ = run(capsys, ["instances", "--export", name])
        assert code == 0
        prob = parse_problem(json.loads(out))
        assert prob.name == name
        path = tmp_path / f"{name}.json"
        code, _, _ = run(capsys, ["instances", "--export", name, "--out",
                                  str(path)])
        assert code == 0
        assert load_problem(str(path)).name == name


# ---------------------------------------------------------------------------
# The declared console script works as a subprocess.

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def _pyproject():
    try:
        import tomllib
    except ModuleNotFoundError:  # Python 3.10
        tomllib = pytest.importorskip("tomli")
    with open(PYPROJECT, "rb") as fh:
        return tomllib.load(fh)


def _subprocess_env():
    """The environment for a subprocess that imports regcert from the
    directory this test process imported it from."""
    src_dir = str(Path(regcert.__file__).resolve().parents[1])
    pythonpath = filter(None, [src_dir, os.environ.get("PYTHONPATH")])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(pythonpath))


def test_entry_point_subprocess():
    """Run `[project.scripts].regcert` through the wrapper an installer writes.

    No installed distribution is needed: the subprocess imports regcert from
    the directory this test process imported it from.
    """
    project = _pyproject()["project"]
    assert project["version"] == regcert.__version__
    module, _, attr = project["scripts"]["regcert"].partition(":")
    wrapper = (f"import sys; from {module} import {attr}; "
               f"sys.argv[0] = 'regcert'; sys.exit({attr}())")
    env = _subprocess_env()
    proc = subprocess.run([sys.executable, "-c", wrapper, "--version"],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0
    assert proc.stdout.strip() == "regcert 0.1.0"


def _whole_space_problem(path):
    """hoffman_2d with a whole-space cone (|ybar| < delta): membership asks
    whether its polyhedral K is empty, a projection."""
    data = problem_to_dict(instance_problem(builtin("hoffman_2d")))
    data["direction"] = {"ybar": [0.1, 0.0], "delta": 0.5}
    path.write_text(json.dumps(data))
    return path


def test_commands_run_without_scipy(capsys, tmp_path):
    """With scipy unimportable, every command keeps its exit code and its
    report bytes: analyze on every registry instance, and the commands that
    solve an LP (robinson) or an NNLS (coderivative), oracle-check, perturb
    and a modulus over a whole-space cone.  One fresh process runs
    them in turn, each against its own run in this process."""
    problem = str(_whole_space_problem(tmp_path / "whole.json"))
    steps = ([["analyze", name, "--seed", "3"] for name in registry_names()]
             + [["robinson", "halfplane_directional", "--ybar", "0,-1"],
                ["coderivative", "halfplane_directional", "--delta-ladder",
                 "0.1", "--samples-per-delta", "200"],
                ["oracle-check", "identity2", "--points-x", "5",
                 "--points-y", "5"],
                ["perturb", "--tau", "1", "--delta", "0.5", "--ybar-norm",
                 "1", "--alpha", "0.5", "--L", "0.05"],
                ["modulus", problem, "--budget", "200"]])
    steps = [argv + ["--no-timestamp", "--out", str(tmp_path / f"{i}.json")]
             for i, argv in enumerate(steps)]
    probe = ("import contextlib, io, json, sys\n"
             "sys.modules['scipy'] = None\n"
             "from regcert.cli import main\n"
             "codes = []\n"
             "for argv in json.loads(sys.argv[1]):\n"
             "    with contextlib.redirect_stdout(io.StringIO()):\n"
             "        codes.append(main(argv))\n"
             "print(json.dumps([codes, sorted(m for m in sys.modules\n"
             "                               if m.startswith('scipy'))]))\n")
    proc = subprocess.run([sys.executable, "-c", probe, json.dumps(steps)],
                          capture_output=True, text=True,
                          env=_subprocess_env())
    assert proc.returncode == 0, proc.stderr
    codes, loaded = json.loads(proc.stdout)
    assert loaded == ["scipy"]   # the blocked entry, never replaced
    reports = [Path(argv[-1]).read_bytes() for argv in steps]
    assert [main(argv) for argv in steps] == codes
    assert [Path(argv[-1]).read_bytes() for argv in steps] == reports
    # robinson fails on the parabola, which has no interior direction, and
    # toward -e2 on the halfplane; every other verdict passes
    assert codes == [0, 0, 0, 0, 1, 0, 1, 0, 0, 0, 0]


def test_parser_is_built_once_and_parses_like_a_fresh_one(capsys,
                                                          monkeypatch):
    assert cli._build_parser() is cli._build_parser()
    calls = [["modulus", "identity2", "--budget", "300", "--no-timestamp"],
             ["robinson", "halfplane_directional", "--ybar", "0,-1",
              "--no-timestamp"],
             ["--version"],
             ["modulus", "identity2", "--no-such-flag"],
             ["perturb", "--tau", "1", "--delta", "0.5", "--ybar-norm", "1",
              "--alpha", "0.5", "--L", "0.05", "--no-timestamp"]]

    def outcomes():
        seen = []
        for argv in calls:
            try:
                code = main(argv)
            except SystemExit as exc:
                code = ("exit", exc.code)
            seen.append((code, *capsys.readouterr()))
        return seen

    shared = outcomes()
    monkeypatch.setattr(cli, "_build_parser", cli._build_parser.__wrapped__)
    assert shared == outcomes()
    assert [code for code, _, _ in shared] == [0, 1, ("exit", 0),
                                               ("exit", 2), 0]
    assert shared[2][1] == f"regcert {regcert.__version__}\n"
    assert "unrecognized arguments: --no-such-flag" in shared[3][2]


def test_closed_stdout_keeps_report_and_exit_code(tmp_path):
    """A reader that leaves before the first line (`regcert ... | head -0`)
    costs the summary, not the report or the verdict's exit code."""
    env = _subprocess_env()
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "regcert.cli", "analyze", "identity2",
             "--seed", "3", "--no-timestamp", "--out", "r.json"],
            stdout=write_end, stderr=subprocess.PIPE, text=True,
            cwd=tmp_path, env=env)
    finally:
        os.close(write_end)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    report = json.loads((tmp_path / "r.json").read_text())
    assert report["verdicts"]["all_hold"] is True


@pytest.mark.skipif(shutil.which("regcert") is None,
                    reason="no regcert console script on PATH")
def test_installed_console_script_on_path():
    exe = shutil.which("regcert")
    assert exe is not None, "console script not on PATH"
    proc = subprocess.run([exe, "--version"], capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout.strip() == "regcert 0.1.0"
