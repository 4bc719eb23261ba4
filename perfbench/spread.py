"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 perfbench/spread.py --workload certify_mix --seeds 1-10

Runs run.py once per seed (one after another, never in parallel) and prints,
per metric, the median, the quartiles from statistics.quantiles(n=4) and
their distance as a share of the median.  A metric is steady when that
share stays under a third of its bound in BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _seeds(text: str) -> list:
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,7")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    values = {}
    for seed in _seeds(args.seeds):
        proc = subprocess.run(
            [*spec["command"], "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
             "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, check=True)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        if not result["correct"]:
            print(f"seed {seed}: {result['failed']} failed ops",
                  file=sys.stderr)
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        print(f"seed {seed}: " + ", ".join(
            f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()
            if k in bounds), file=sys.stderr)

    print(f"{'metric':<14} {'median':>10} {'q1':>10} {'q3':>10} "
          f"{'spread':>8} {'bound':>6}")
    for name, vals in values.items():
        if name not in bounds or len(vals) < 2:
            continue
        q1, med, q3 = statistics.quantiles(vals, n=4)
        share = (q3 - q1) / med if med else 0.0
        print(f"{name:<14} {med:>10.5g} {q1:>10.5g} {q3:>10.5g} "
              f"{share:>8.4f} {bounds[name]:>6}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
