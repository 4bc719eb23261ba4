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

# a problem file next to this script, copied into each working directory
PROBLEM = Path(__file__).resolve().parent / "rotated_halfplane.json"

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
        # the only command whose slopes read the cone envelope field
        (["slope", "halfplane_directional", "--tau", "1.1", "--n-points",
          "6", "--slope-budget", "100", "--seed", "3"], "report.json"),
        (["robinson", "halfplane_directional", "--ybar", "0,-1", "--seed",
          "3"], "report.json"),
        (["coderivative", "halfplane_directional", "--delta-ladder", "0.1",
          "--m", "0.8", "--seed", "3"], "report.json"),
        (["sweep", "param_scale", "--tau", "1.1", "--seed", "3"],
         "report.json"),
        (["oracle-check", "identity2", "--seed", "3"], "report.json"),
        # the only command whose oracle runs the directional membership scan
        (["oracle-check", "halfplane_directional", "--seed", "3"],
         "report.json"),
        (["perturb", "--tau", "1", "--delta", "0.5", "--ybar-norm", "1",
          "--alpha", "0.5", "--L", "0.05"], "report.json"),
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
        # halfplane_directional turned by 30 degrees: a K with skew rows,
        # which the exact active-set route leaves to Dykstra
        (["analyze", PROBLEM.name, "--seed", "3"], "report.json"),
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
            shutil.copy(PROBLEM, tmp)
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
