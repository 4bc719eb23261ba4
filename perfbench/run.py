"""regcert benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload directional_modulus --seed 1 \
        --seconds 12 --trace 0

Runs from the root of a regcert checkout and measures the code in its
src/.  Each workload is a closed loop with one client: a single process
issues one call into regcert at a time, with BLAS pinned to one thread, and
repeats passes over the workload's op list until --seconds have passed (at
least the workload's minimum number of passes).  Every op is checked
against the instance's known truth, and its result digest must not change
when the same op runs again: at threads=2 (directional_modulus), traced,
or in a later pass that repeats it.

--trace 0 reports the end-to-end metrics.  Set-up is measured in three
fresh processes and the median is reported.  The other times are given at
a reference machine speed: each op's time is scaled by how long a fixed
kernel took right before it (see worker.speed_probe), which cancels most
of the speed swings of a shared VM; the raw pass time is printed beside.
--trace 1 alternates untraced and traced passes and reports the per-layer
counts and self times of the first traced pass, plus the tracing overhead.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics; details go to .bench_out/<workload>/.
Exits non-zero, without that line, when the run cannot be made or checked.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path

import tracing
from latency import median

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("directional_modulus", "polynomial_preimage",
             "oracle_crosscheck", "certify_mix")
SETUP_SAMPLES = 3
DEADLINE_S = 170.0
MAX_NOTES = 6

E2E_UNITS = {"setup_s": "s", "wall_s": "s", "op_p50_s": "s",
             "op_tail_s": "s", "peak_rss_mb": "MB", "ops_ok_frac": "frac"}


def _worker(args, workdir: Path, tag: str, deadline: float,
            setup_only: bool = False) -> dict:
    out = workdir / f"worker-{tag}.json"
    out.unlink(missing_ok=True)
    cmd = [sys.executable, str(HERE / "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--workdir", str(workdir), "--out", str(out),
           "--t0", repr(time.time())]
    if setup_only:
        cmd.append("--setup-only")
    subprocess.run(cmd, cwd=ROOT, check=True,
                   stdout=subprocess.DEVNULL,
                   timeout=max(1.0, deadline - time.monotonic()))
    return json.loads(out.read_text(encoding="utf-8"))


def _fmt(value: float) -> str:
    return f"{value:.6g}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    if not (ROOT / "src" / "regcert" / "__init__.py").is_file():
        print(f"error: no regcert sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    workdir = ROOT / ".bench_out" / args.workload
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        setup_runs = []
        if not args.trace:
            for k in range(SETUP_SAMPLES - 1):
                setup_runs.append(_worker(args, workdir, f"setup{k}",
                                          deadline, setup_only=True))
        res = _worker(args, workdir, "run", deadline)
    except (subprocess.SubprocessError, OSError, ValueError) as exc:
        print(f"error: benchmark worker failed: {exc}", file=sys.stderr)
        return 1
    setups = [r["setup_s"] for r in setup_runs] + [res["setup_s"]]

    attempted, failed = res["attempted"], res["failed"]
    env = res["environment"]
    print(f"regcert benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print(f"  machine: {env['cpu']}, nproc {env['nproc']}, python "
          f"{env['python']}, numpy {env['numpy']}, scipy {env['scipy']}")
    print(f"  {res['n_ops']} ops per pass, {res['passes']} passes, "
          f"{failed} of {attempted} op executions failed")
    for note in res["failures"]:
        print(f"  FAILED {note}")
    notes = sorted(res["verdict_notes"].items())
    if notes:
        print(f"  {len(notes)} ops reached a FAIL verdict that no known "
              f"truth decides (reported, not failed):")
        for label, note in notes[:MAX_NOTES]:
            print(f"    {label}: {note}")
    if args.trace:
        metrics = res["metrics"]
        print(f"  {res['traced_passes']} traced passes, "
              f"{res['n_spans']} spans in {res['spans']}")
        units = {name: unit for name, unit, _ in tracing.metric_specs()}
        for name, value in metrics.items():
            print(f"  {name:<56} {_fmt(value):>12} {units[name]}")
        result_metrics = {k: {"value": v, "unit": units[k]}
                          for k, v in metrics.items()}
    else:
        metrics = dict(res["metrics"])
        metrics["setup_s"] = median(setups)
        metrics["ops_ok_frac"] = 1.0 - failed / attempted
        how = {
            "setup_s": f"median of {len(setups)} set-ups (raw)",
            "wall_s": f"median of {res['passes']} passes; raw "
                      f"{_fmt(median(res['raw_pass_s']))} s",
            "op_p50_s": "median over ops of each op's median latency",
            "op_tail_s": f"p{res['tail_percentile']:.1f} of "
                         f"{res['samples']} op latencies, "
                         f"{res['tail_beyond']} beyond it",
            "ops_ok_frac": f"{failed} failed of {attempted} attempted",
        }
        print(f"  times at reference speed; this run ran at "
              f"{res['speed']:.3f}x of it by the median speed probe")
        for name, unit in E2E_UNITS.items():
            print(f"  {name:<12} {_fmt(metrics[name]):>12} {unit:<5} "
                  f"{how.get(name, '')}")
        result_metrics = {k: {"value": metrics[k], "unit": u}
                          for k, u in E2E_UNITS.items()}
    detail = workdir / f"result-seed{args.seed}-trace{args.trace}.json"
    res["setup_samples"] = setups
    res["seed"] = args.seed
    detail.write_text(json.dumps(res, indent=1), encoding="utf-8")
    print(f"  details: {detail.relative_to(ROOT)}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": result_metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
