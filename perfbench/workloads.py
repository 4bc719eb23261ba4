"""The four benchmark workloads: op lists, correctness checks and digests.

An op is one call into regcert (library or CLI).  A workload is a list of
op slots; set-up builds VARIANTS op lists over those slots, each from its
own seeds derived from the workload seed, and pass k of a run uses variant
k mod VARIANTS.  A run thus spreads its passes over different inputs, and a
run long enough to wrap around repeats ops, whose digests must then match.

Every op has a judge that turns its result into (sha256 digest, error,
note).  The digest covers the op's canonical --no-timestamp result; the
error says where the result disagrees with the instance's known truth
(modulus within 10%, interiority verdict, oracle agreement), which makes
the op a failed one; the note records any other verdict that came out
FAIL, which is reported but not counted as a failure.

Ops call regcert through module attributes (`rc.regularity.xxx(...)`), never
through names bound at build time, so the tracing wrappers see every call.
The judges use the original `canonical_json` captured at build time, so
they add no spans of their own.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import random
from dataclasses import dataclass, field

import numpy as np

VARIANTS = 4
# Op sizes.  Each is small enough that a pass takes a few seconds on one
# core, so a run sees several passes, and large enough that the op keeps the
# cost profile of the full-size analysis it stands for.
DIRECTIONAL_OPS = 14
DIRECTIONAL_BUDGET = 520        # two sample blocks, so threads=2 splits work
POLYNOMIAL_OPS = 14
POLYNOMIAL_BUDGET = 24          # P(no empty-preimage witness) ~ 0.58**24
ORACLE_BUDGET = 256
# instance -> (checks per pass, points per x axis, points per y axis); the
# uneven split keeps the median and the tail inside the halfplane group
# instead of on the boundary between two op costs
ORACLE_CHECKS = {"hoffman_2d": (3, 15, 7), "halfplane_directional": (7, 25, 7)}
CERTIFY_BUDGET = 300
CERTIFY_SLOPE = {"n_points": 6, "slope_budget": 100}
CERTIFY_CODERIVATIVE = {"delta_ladder": [0.1], "samples_per_delta": 200}
# slope needs a finite tau; for an infinite known modulus any tau will do
SLOPE_TAU_INFINITE = 10.0
MODULUS_REL_TOL = 0.10


@dataclass
class Op:
    label: str
    call: object         # () -> result; the timed part
    judge: object        # result -> (digest, error or None, note or None)


@dataclass
class Workload:
    variants: list       # VARIANTS op lists over the same slots
    min_passes: int
    # the ops of variant 0 run once more another way: (slot, Op)
    recheck: list = field(default_factory=list)


def _sha(data) -> str:
    if isinstance(data, str):
        data = data.encode("utf-8")
    return hashlib.sha256(data).hexdigest()


def _op_seeds(workload: str, seed: int, count: int) -> list:
    """VARIANTS lists of count op seeds, fixed by the workload seed."""
    gen = random.Random(f"{workload}:{seed}")
    return [[gen.randrange(1, 2 ** 31) for _ in range(count)]
            for _ in range(VARIANTS)]


def _close_to_known(value: float, known: float) -> bool:
    if math.isinf(known):
        return math.isinf(value)
    return abs(value - known) <= MODULUS_REL_TOL * known


def _query(rc, inst, budget: int, seed: int, dc):
    # the region instance_problem gives a registry instance
    region = rc.multimap.default_region(inst.x0, 1.25, sample_budget=budget,
                                        seed=seed, grid_resolution=7)
    return rc.regularity.RegularityQuery(inst.F, inst.x0, inst.y0, dc=dc,
                                         epsilon=0.5, region=region)


def _modulus_payload(est) -> dict:
    witness = None
    if est.worst_witness is not None:
        witness = {"x": est.worst_witness[0], "y": est.worst_witness[1]}
    return {"sup_ratio": est.sup_ratio, "n_admissible": est.n_admissible,
            "n_checked": est.n_checked, "worst_witness": witness}


def _modulus_op(rc, label, q, known: float, threads: int = 1) -> Op:
    def call():
        return rc.regularity.empirical_directional_modulus(q, threads=threads)

    def judge(est):
        error = None
        if not _close_to_known(est.sup_ratio, known):
            error = f"sup_ratio {est.sup_ratio} vs known modulus {known}"
        return _sha(rc.canon(_modulus_payload(est))), error, None

    return Op(label, call, judge)


def directional_modulus(rc, seed: int, workdir) -> Workload:
    inst = rc.instances.builtin("halfplane_directional")
    variants, recheck = [], []
    for v, seeds in enumerate(_op_seeds("directional_modulus", seed,
                                        DIRECTIONAL_OPS)):
        ops = []
        for i, s in enumerate(seeds):
            q = _query(rc, inst, DIRECTIONAL_BUDGET, s, inst.dc)
            label = f"halfplane_directional/seed={s}"
            ops.append(_modulus_op(rc, label, q, inst.known.modulus))
            if v == 0:
                recheck.append((i, _modulus_op(
                    rc, label + "/threads=2", q, inst.known.modulus,
                    threads=2)))
        variants.append(ops)
    return Workload(variants, 3, recheck)


def polynomial_preimage(rc, seed: int, workdir) -> Workload:
    inst = rc.instances.builtin("parabola_eb")
    variants = [[_modulus_op(rc, f"parabola_eb/seed={s}",
                             _query(rc, inst, POLYNOMIAL_BUDGET, s, None),
                             inst.known.modulus) for s in seeds]
                for seeds in _op_seeds("polynomial_preimage", seed,
                                       POLYNOMIAL_OPS)]
    return Workload(variants, 3)


def _oracle_op(rc, inst, q, px: int, py: int) -> Op:
    """grid_modulus plus the estimator, judged by oracle-check's rule."""
    g_x = rc.oracle.Grid(np.stack([q.x0 - 2.5 * q.epsilon,
                                   q.x0 + 2.5 * q.epsilon], axis=1), px)
    g_y = rc.oracle.Grid(np.stack([q.y0 - q.epsilon, q.y0 + q.epsilon],
                                  axis=1), py)
    step = max(g_x.step, g_y.step)
    known = inst.known.modulus

    def call():
        oracle_sup = rc.oracle.grid_modulus(q.F, q, g_x, g_y)
        est = rc.regularity.empirical_directional_modulus(q)
        return oracle_sup, est.sup_ratio

    def judge(result):
        oracle_sup, emp = result
        if math.isinf(oracle_sup) and math.isinf(emp):
            agree, tol, diff = True, math.inf, 0.0
        elif math.isinf(oracle_sup) != math.isinf(emp):
            agree, tol, diff = False, 0.0, math.inf
        else:
            tol = step * max(1.0, oracle_sup)
            diff = abs(emp - oracle_sup)
            agree = diff <= tol
        error = None
        if not agree:
            error = f"estimator {emp} vs oracle {oracle_sup}, tol {tol}"
        elif not _close_to_known(emp, known):
            error = f"sup_ratio {emp} vs known modulus {known}"
        payload = {"estimator": emp, "oracle": oracle_sup,
                   "difference": diff, "tolerance": tol, "grid_step": step,
                   "points_x": px, "points_y": py, "agree": agree}
        return _sha(rc.canon(payload)), error, None

    return Op(f"{inst.name}/oracle/{px}x{py}/seed={q.seed}", call, judge)


def oracle_crosscheck(rc, seed: int, workdir) -> Workload:
    slots = [(rc.instances.builtin(name), px, py)
             for name, (count, px, py) in ORACLE_CHECKS.items()
             for _ in range(count)]
    variants = [[_oracle_op(rc, inst, _query(rc, inst, ORACLE_BUDGET, s,
                                             inst.dc), px, py)
                 for (inst, px, py), s in zip(slots, seeds)]
                for seeds in _op_seeds("oracle_crosscheck", seed,
                                       len(slots))]
    return Workload(variants, 3)


def _certify_analyses(rc, inst) -> list:
    """The instance's stock analyses plus slope and, if directional,
    coderivative, each with the target its known modulus implies."""
    known = inst.known.modulus
    analyses = [dict(a) for a in rc.problems.instance_problem(inst).analyses]
    tau = SLOPE_TAU_INFINITE if math.isinf(known) else 1.1 * known
    analyses.append({"op": "slope", "tau": tau, **CERTIFY_SLOPE})
    if inst.dc is not None:
        analyses.append({"op": "coderivative", **CERTIFY_CODERIVATIVE,
                         "m": 0.8 / known})
    return analyses


def _judge_report(data: bytes, code: int, inst):
    """(error, note) for an analyze report against the instance's truth.

    Errors: an analysis that raised, a modulus or sweep estimate off the
    known modulus by more than 10%, an interiority verdict other than the
    known one, or an exit code that does not match the report's verdicts.
    parabola_eb's exit code 1 follows from its known failing interiority
    verdict and is no error.  Slope, coderivative and error-bound verdicts
    have no known truth to meet; a FAIL among them becomes the note.
    """
    known = inst.known
    report = json.loads(data)
    errors, notes = [], []
    for rec in report["analyses"]:
        op = rec["op"]
        if rec["error"] is not None:
            errors.append(f"{op} raised {rec['error']['type']}")
            continue
        value = {"modulus": "sup_ratio", "sweep": "uniform_modulus"}.get(op)
        if value is not None:
            got = float(rec["result"][value])
            if not _close_to_known(got, known.modulus):
                errors.append(f"{op} {value} {got} vs known "
                              f"{known.modulus}")
        elif op == "robinson":
            if rec["holds"] is not known.robinson:
                errors.append(f"robinson verdict {rec['holds']}, known "
                              f"{known.robinson}")
        elif rec["holds"] is False:
            notes.append(f"{op} FAIL")
    want_code = 0 if report["verdicts"]["all_hold"] else 1
    if code != want_code:
        errors.append(f"exit code {code} for a report that implies "
                      f"{want_code}")
    return "; ".join(errors) or None, "; ".join(notes) or None


def _analyze_op(rc, inst, path, out_path, seed: int) -> Op:
    argv = ["analyze", str(path), "--seed", str(seed), "--no-timestamp",
            "--out", str(out_path)]

    def call():
        with contextlib.redirect_stdout(io.StringIO()):
            return rc.cli.main(argv)

    def judge(code):
        try:
            data = out_path.read_bytes()
            out_path.unlink()
        except OSError as exc:
            return None, f"no report written: {exc}", None
        return (_sha(data), *_judge_report(data, code, inst))

    return Op(f"{inst.name}/analyze/seed={seed}", call, judge)


def certify_mix(rc, seed: int, workdir) -> Workload:
    insts = [rc.instances.builtin(name)
             for name in rc.instances.registry_names()]
    variants = []
    for v, seeds in enumerate(_op_seeds("certify_mix", seed, len(insts))):
        ops = []
        for inst, s in zip(insts, seeds):
            problem = rc.problems.instance_problem(
                inst, _certify_analyses(rc, inst),
                sample_budget=CERTIFY_BUDGET, seed=s)
            path = workdir / f"{inst.name}-{v}.json"
            path.write_text(rc.canon(rc.problems.problem_to_dict(problem)),
                            encoding="utf-8")
            rc.problems.load_problem(str(path))
            ops.append(_analyze_op(rc, inst, path,
                                   workdir / f"{inst.name}-{v}.out.json", s))
        variants.append(ops)
    # six passes give the two heaviest ops twelve samples, so the tail
    # falls among them rather than on one mid-cost op
    return Workload(variants, 6)


BUILDERS = {
    "directional_modulus": directional_modulus,
    "polynomial_preimage": polynomial_preimage,
    "oracle_crosscheck": oracle_crosscheck,
    "certify_mix": certify_mix,
}
