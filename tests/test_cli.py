"""Command line driver: exit codes, reports, determinism."""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import regcert
from regcert.cli import main
from regcert.geometry import TOL_MEMBER
from regcert.instances import builtin, registry_names
from regcert.problems import (ANALYSIS_OPS, instance_problem, load_problem,
                              parse_problem, problem_to_dict, samples_csv)
from regcert.regularity import RegularityQuery, empirical_directional_modulus


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


def test_lattice_cap_is_guard_exit(capsys):
    code, _, err = run(capsys, ["oracle-check", "identity2", "--points-x",
                                "999"])
    assert code == 3
    assert "internal guard" in err


def test_lp_solver_stop_is_guard_exit(capsys, tmp_path, monkeypatch):
    import regcert.geometry as geometry
    from scipy.optimize import OptimizeResult

    def stopped(*args, **kwargs):
        # linprog's status 1: the iteration limit was reached
        return OptimizeResult(status=1, message="Iteration limit reached.",
                              x=None, fun=None)

    monkeypatch.setattr(geometry, "linprog", stopped)
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
                 ["sweep", "param_scale", "--p-grid", ","]):
        code, _, err = run(capsys, argv + ["--out", str(rep)])
        assert code == 2, argv
        assert err.startswith("input error:"), argv
        assert not rep.exists(), argv


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
    src_dir = str(Path(regcert.__file__).resolve().parents[1])
    pythonpath = filter(None, [src_dir, os.environ.get("PYTHONPATH")])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(pythonpath))
    proc = subprocess.run([sys.executable, "-c", wrapper, "--version"],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0
    assert proc.stdout.strip() == "regcert 0.1.0"


@pytest.mark.skipif(shutil.which("regcert") is None,
                    reason="no regcert console script on PATH")
def test_installed_console_script_on_path():
    exe = shutil.which("regcert")
    assert exe is not None, "console script not on PATH"
    proc = subprocess.run([exe, "--version"], capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout.strip() == "regcert 0.1.0"
