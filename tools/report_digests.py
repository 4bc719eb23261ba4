"""Digest the byte-stable CLI reports of a regcert checkout.

Usage: python tools/report_digests.py CHECKOUT

Runs a fixed list of `regcert` commands against CHECKOUT/src, each in a
subprocess with a fresh working directory and `--no-timestamp`, and prints
one `sha256  exit  command` line per output: the report file (or the CSV
dump) and, on a line whose command ends in `[stdout]`, the text printed on
stdout.  Two checkouts whose reports should be byte-identical print the same
lines, so `diff` of the two outputs shows every report that changed.
"""

from __future__ import annotations

import hashlib
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

# problem files next to this script, copied into each working directory
PROBLEMS = tuple(
    Path(__file__).resolve().parent / name
    for name in ("rotated_halfplane.json", "round_k.json",
                 "ball_halfline.json", "robinson_4d.json",
                 "skew_foot_4d.json", "skew_wedge.json", "ball_cone.json",
                 "cubic_eb.json"))
(PROBLEM, ROUND_K, BALL_HALFLINE, ROBINSON_4D, SKEW_FOOT_4D,
 SKEW_WEDGE, BALL_CONE, CUBIC_EB) = PROBLEMS

INSTANCES = ("diag_2_05", "halfplane_directional", "hoffman_2d", "identity2",
             "parabola_eb", "param_scale")

# (argv, output file the command writes)
COMMANDS = (
    [(["analyze", name, "--seed", "3"], "report.json") for name in INSTANCES]
    + [
        (["analyze", "halfplane_directional", "--seed", "3", "--threads",
          "2"], "report.json"),
        (["modulus", "diag_2_05", "--tau", "2.2", "--seed", "3"],
         "report.json"),
        (["slope", "diag_2_05", "--tau", "2", "--n-points", "8", "--seed",
          "3"], "report.json"),
        # slopes of the cone envelope field; no row of this run reaches the
        # envelope's probe shell
        (["slope", "halfplane_directional", "--tau", "1.1", "--n-points",
          "6", "--slope-budget", "100", "--seed", "3"], "report.json"),
        # the same with a tube tolerance of 1e-3: the only command whose
        # envelope rows reach the probe shell (the closure probes)
        (["slope", "halfplane_directional", "--tau", "1.1", "--n-points",
          "6", "--slope-budget", "100", "--tol", "1e-3", "--seed", "3"],
         "report.json"),
        # the same at the default slope budget, with enough pairs that the
        # stacked envelope field carries the work; no shell row either
        (["slope", "halfplane_directional", "--tau", "1.1", "--n-points",
          "24", "--seed", "3"], "report.json"),
        (["robinson", "halfplane_directional", "--ybar", "0,-1", "--seed",
          "3"], "report.json"),
        (["coderivative", "halfplane_directional", "--delta-ladder", "0.1",
          "--m", "0.8", "--seed", "3"], "report.json"),
        (["sweep", "param_scale", "--tau", "1.1", "--seed", "3"],
         "report.json"),
        (["oracle-check", "identity2", "--seed", "3"], "report.json"),
        # the oracle's directional membership scan on an axis box
        (["oracle-check", "halfplane_directional", "--seed", "3"],
         "report.json"),
        # the oracle's preimage-pool hit test on a full-dimensional preimage
        (["oracle-check", "hoffman_2d", "--points-x", "15", "--points-y",
          "7", "--seed", "3"], "report.json"),
        # the oracle's directional membership scan on a skew K, whose set
        # distances come from its face enumeration
        (["oracle-check", PROBLEM.name, "--points-x", "15", "--points-y",
          "7", "--seed", "3"], "report.json"),
        # the same on a thin skew wedge, where cyclic halfspace projection
        # lands up to 8% above the distance near the apex
        (["oracle-check", SKEW_WEDGE.name, "--points-x", "13",
          "--points-y", "7", "--seed", "3"], "report.json"),
        (["perturb", "--tau", "1", "--delta", "0.5", "--ybar-norm", "1",
          "--alpha", "0.5", "--L", "0.05"], "report.json"),
        # the error-bound certificate the slope tests replay through the
        # ray search, whose boundary hits improve inside descent waves on
        # this 300-sample region; the CLI takes its foot from the exact
        # preimage projection, with the same bits
        (["analyze", "hoffman_2d", "--budget", "300", "--seed", "12345"],
         "report.json"),
        (["analyze", "identity2", "--seed", "3", "--csv", "samples.csv"],
         "samples.csv"),
        # the directional membership decision: the CSV holds the admissible
        # flag of every sampled pair
        (["modulus", "halfplane_directional", "--tau", "1.1", "--budget",
          "2000", "--seed", "3", "--csv", "samples.csv"], "samples.csv"),
        # the Gauss-Newton preimage route: the CSV holds every per-sample
        # preimage distance
        (["modulus", "parabola_eb", "--tau", "10", "--budget", "300",
          "--seed", "3"], "report.json"),
        (["modulus", "parabola_eb", "--tau", "10", "--budget", "300",
          "--seed", "3", "--csv", "samples.csv"], "samples.csv"),
        # a small batch of the same route: 12 searched rows
        (["modulus", "parabola_eb", "--budget", "24", "--seed", "3"],
         "report.json"),
        # f(x) = x^3 - x into a point: the same route on a scalar map whose
        # derivative crosses 0 inside the region, so the 1x1 steps meet
        # jacobians near 0 of both signs
        (["analyze", CUBIC_EB.name, "--seed", "3"], "report.json"),
        # halfplane_directional turned by 30 degrees: a K with skew rows,
        # which the axis-aligned clamp leaves to Dykstra (every row
        # converges there; none reaches the least-distance solve)
        (["analyze", PROBLEM.name, "--seed", "3"], "report.json"),
        # the admissible flag of every pair on the skew K, from its exact
        # face values
        (["analyze", PROBLEM.name, "--seed", "3", "--csv", "samples.csv"],
         "samples.csv"),
        # a polynomial map into a ball times a point: the Gauss-Newton
        # route's range screen on a product K; the CSV holds every
        # per-sample preimage distance
        (["modulus", ROUND_K.name, "--seed", "3", "--csv", "samples.csv"],
         "samples.csv"),
        # a directional problem on a ball times a half-line, a K with no
        # polyhedral form: the membership kernel's golden-section route.
        # The CSV holds the admissible flag of every pair, and the slope
        # run's envelope rows reach the closure probes
        (["modulus", BALL_HALFLINE.name, "--tau", "2", "--seed", "3",
          "--csv", "samples.csv"], "samples.csv"),
        (["slope", BALL_HALFLINE.name, "--tau", "2", "--n-points", "6",
          "--slope-budget", "100", "--tol", "1e-3", "--seed", "3"],
         "report.json"),
        # a plain ball with a direction: the golden-section route on a K
        # with no polyhedral factor, through the modulus and the slope
        # envelope
        (["analyze", BALL_CONE.name, "--seed", "3"], "report.json"),
        # an affine map of rank 2 in R^4 into a skew polyhedron with six
        # rows: an interiority LP of 34 columns and 116 rows, larger than
        # any registry one (10 columns), whose simplex takes 22 pivots
        (["robinson", ROBINSON_4D.name, "--seed", "3"], "report.json"),
        # an affine map into a skew polyhedron in R^4: the error-bound
        # foot is a corner of three rows off the sample lattice, which the
        # exact preimage projection gives and the ray search overshoots
        (["analyze", SKEW_FOOT_4D.name, "--seed", "3"], "report.json"),
    ]
)


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def digest_lines(checkout: Path) -> list[str]:
    env = dict(os.environ, PYTHONPATH=str(checkout.resolve() / "src"))
    lines = []
    for argv, output in COMMANDS:
        argv = argv + ["--no-timestamp", "--out", "report.json"]
        with tempfile.TemporaryDirectory() as tmp:
            for problem in PROBLEMS:
                shutil.copy(problem, tmp)
            proc = subprocess.run(
                [sys.executable, "-m", "regcert.cli", *argv], cwd=tmp,
                env=env, capture_output=True)
            path = Path(tmp) / output
            report = _sha(path.read_bytes()) if path.is_file() else "-" * 64
        cmd = " ".join(argv)
        lines.append(f"{report}  {proc.returncode}  {cmd}")
        lines.append(f"{_sha(proc.stdout)}  {proc.returncode}  {cmd} "
                     f"[stdout]")
    return lines


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 1:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    checkout = Path(argv[0])
    if not (checkout / "src" / "regcert" / "cli.py").is_file():
        print(f"error: no regcert sources under {checkout / 'src'}",
              file=sys.stderr)
        return 2
    for line in digest_lines(checkout):
        print(line, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
