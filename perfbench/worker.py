"""One benchmark process: set up one workload, run its passes, check them.

Started by run.py in a fresh interpreter per workload, so set-up time and
peak memory belong to that workload alone.  Writes its findings as JSON to
--out; prints nothing on success.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import sys
import time
import warnings
from pathlib import Path
from types import SimpleNamespace

# BLAS must be pinned before numpy loads
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy  # noqa: E402
import scipy  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402
from latency import median, tail  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
MAX_FAILURES_LISTED = 20

# Speed probe.  On the 2-vCPU Intel Xeon VM the baseline was taken on,
# fixed work runs up to 1.5x faster or slower from one minute to the next,
# as neighbours on the host come and go.  A fixed kernel of interpreter
# and small-numpy work, timed right before every op, tracks that swing,
# and the op's time is scaled by REF_S / probe.  In a 100 s trial the
# spread of 10-op medians of a parabola_eb op fell from 0.40 unscaled to
# 0.09 scaled, and the 10-seed spreads of directional_modulus,
# polynomial_preimage and oracle_crosscheck fell below 0.1.  Averaging
# probes over a run or bracketing each op with two probes did worse.
# REF_S is the kernel's median time on that VM, so scaled times read as
# its wall seconds.  It is a fixed unit: changing it rescales every timing
# metric.  Set-up time is left raw: it is mostly imports, which the probe
# does not track.
REF_S = 0.0075
_REF_MATRIX = numpy.full((48, 48), 0.5)


def speed_probe() -> float:
    """Seconds the reference kernel takes now."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(40000):
        acc += i % 7
    v = numpy.zeros(8)
    for _ in range(1500):
        v = numpy.sqrt(v * 0.5 + 1.0)
    for _ in range(20):
        _REF_MATRIX @ _REF_MATRIX
    return time.perf_counter() - t0


def _import_regcert():
    """The modules under test, from this checkout's src/ and nowhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    names = ("cli", "geometry", "instances", "multimap", "oracle", "problems",
             "regularity", "rng", "slopes")
    mods = {n: importlib.import_module(f"regcert.{n}") for n in names}
    pkg = sys.modules["regcert"]
    if Path(pkg.__file__).resolve().parent != (src / "regcert").resolve():
        raise ImportError(f"regcert came from {pkg.__file__}, not {src}")
    return SimpleNamespace(canon=mods["problems"].canonical_json, **mods)


def _environment() -> dict:
    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"cpu": cpu, "nproc": os.cpu_count(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__}


class Runner:
    """Times ops, judges them, and checks that repeated ops agree."""

    def __init__(self, workload):
        self.wl = workload
        self.latencies = [[] for _ in workload.variants[0]]  # scaled
        self.speeds = []     # REF_S / probe, one per scaled op
        self.digests = [[None] * len(ops) for ops in workload.variants]
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.notes = {}

    def _fail(self, label: str, why: str) -> None:
        self.failed += 1
        if len(self.failures) < MAX_FAILURES_LISTED:
            self.failures.append(f"{label}: {why}")

    def execute(self, v: int, i: int, op, source: str, wrap=None) -> float:
        """Run one op, judge it, and compare its digest with the first
        digest of the same op (variant v, slot i)."""
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            result = wrap(op.call) if wrap else op.call()
        except Exception as exc:  # an unexpected raise is a failed op
            elapsed = time.perf_counter() - t0
            self._fail(op.label, f"raised {type(exc).__name__}: {exc}")
            return elapsed
        elapsed = time.perf_counter() - t0
        try:
            digest, error, note = op.judge(result)
        except Exception as exc:  # a result that cannot be read is wrong
            digest, error, note = None, f"unreadable result: {exc!r}", None
        if note is not None:
            self.notes[op.label] = note
        first = self.digests[v][i]
        if error is None and digest is not None:
            if first is None:
                self.digests[v][i] = digest
            elif digest != first:
                error = f"{source} digest differs from the first run of it"
        if error is not None:
            self._fail(op.label, error)
        return elapsed

    def run_pass(self, k: int, source: str = "pass", wrap=None,
                 scaled: bool = False):
        """Pass k over variant k mod VARIANTS.

        Returns the summed raw op time and the summed op time at reference
        speed; with scaled=True each op is timed against a speed probe
        taken just before it and feeds the per-op latencies.
        """
        v = k % len(self.wl.variants)
        raw = norm = 0.0
        for i, op in enumerate(self.wl.variants[v]):
            speed = REF_S / speed_probe() if scaled else 1.0
            lat = self.execute(v, i, op, source, wrap and wrap(i))
            if scaled:
                self.latencies[i].append(lat * speed)
                self.speeds.append(speed)
            raw += lat
            norm += lat * speed
        return raw, norm

    def run_recheck(self) -> None:
        for i, op in self.wl.recheck:
            self.execute(0, i, op, "recheck")


def run_untraced(runner: Runner, seconds: float) -> dict:
    wl = runner.wl
    raw_s, pass_s = [], []
    start = time.perf_counter()
    while (len(pass_s) < wl.min_passes
           or time.perf_counter() - start < seconds):
        raw, norm = runner.run_pass(len(pass_s), scaled=True)
        raw_s.append(raw)
        pass_s.append(norm)
    runner.run_recheck()
    pooled = [x for lats in runner.latencies for x in lats]
    n_min = len(runner.latencies) * wl.min_passes
    tail_s, pct, beyond = tail(pooled, n_min)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {
        "passes": len(pass_s), "pass_s": pass_s, "raw_pass_s": raw_s,
        "speed": median(runner.speeds),
        "metrics": {
            "wall_s": median(pass_s),
            "op_p50_s": median(median(lats) for lats in runner.latencies),
            "op_tail_s": tail_s,
            "peak_rss_mb": rss_mb,
        },
        "tail_percentile": pct, "tail_beyond": beyond,
        "samples": len(pooled),
        "slot_median_s": [median(lats) for lats in runner.latencies],
    }


def run_traced(runner: Runner, seconds: float, spans_path: Path) -> dict:
    """Alternate untraced and traced passes over the same variants.

    Per-layer figures come from the first traced pass (variant 0), so its
    counts are the same in every run with this seed however many passes
    fit in the time; the later pairs only sharpen the overhead estimate.
    """
    untraced, traced, tracers = [], [], []
    start = time.perf_counter()
    while not traced or time.perf_counter() - start < seconds:
        k = len(traced)
        untraced.append(runner.run_pass(k)[0])
        tracer = tracing.Tracer()

        def op_span(i, tracer=tracer):
            def run(call):
                tracer.op = i
                return tracer.span("op", call)
            return run

        patches = tracing.install(tracer)
        try:
            traced.append(runner.run_pass(k, "traced pass", op_span)[0])
        finally:
            tracing.restore(patches)
        tracers.append(tracer)
    runner.run_recheck()
    first = tracers[0]
    metrics = tracing.layer_metrics(first, untraced, traced)
    tracing.write_spans(spans_path, first)
    return {"passes": len(untraced), "traced_passes": len(traced),
            "pass_s": untraced, "traced_pass_s": traced, "metrics": metrics,
            "spans": str(spans_path.relative_to(ROOT)),
            "n_spans": len(first.spans)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--t0", type=float, required=True,
                        help="wall-clock time the parent started this process")
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    warnings.simplefilter("ignore")
    rc = _import_regcert()
    workdir = Path(args.workdir)
    wl = workloads.BUILDERS[args.workload](rc, args.seed, workdir)
    out = {"setup_s": time.time() - args.t0}
    if not args.setup_only:
        runner = Runner(wl)
        if args.trace:
            out.update(run_traced(runner, args.seconds, workdir / "spans.csv"))
        else:
            out.update(run_untraced(runner, args.seconds))
        out.update({
            "attempted": runner.attempted, "failed": runner.failed,
            "failures": runner.failures, "verdict_notes": runner.notes,
            "n_ops": len(runner.latencies),
            "ops": [[op.label for op in ops] for ops in wl.variants],
            "digests": runner.digests,
            "environment": _environment(),
        })
    Path(args.out).write_text(json.dumps(out, indent=1), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
