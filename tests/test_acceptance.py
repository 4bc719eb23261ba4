"""End-to-end acceptance battery.

One test per shipping criterion, run at the tolerances the package promises.
Each test prints a numbered pass/fail line so a full run (``pytest -s``)
reads as a checklist; under plain ``pytest -v`` the per-test verdicts serve
the same purpose.
"""

import time
import warnings

import numpy as np
import pytest
from conftest import (bounded_random_polyhedron, orthant_instance,
                      vertex_lp_maximum)

from regcert.cli import main
from regcert.errors import InvalidPerturbation
from regcert.geometry import (Ball, DirectionalCone, Polyhedron, ProductSet,
                              Singleton, TOL_MEMBER, normal_cone_generators,
                              solve_lp)
from regcert.instances import builtin, registry_names
from regcert.multimap import (SearchRegion, default_region, envelope_batch,
                              image_distance, image_distance_batch,
                              membership_values)
from regcert.oracle import Grid, grid_modulus
from regcert.regularity import (RegularityQuery, coderivative_criterion,
                                empirical_directional_modulus,
                                perturbation_bound, robinson_condition,
                                sample_dual_pairs, slope_criterion)
from regcert.slopes import (ScalarField, default_local_r0,
                            error_bound_certificate, global_slope,
                            local_slope)


def check(num, ok, detail):
    line = f"criterion {num:02d}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line)
    assert ok, line


def query(name, seed=7, budget=2000, dc="instance"):
    inst = builtin(name)
    region = default_region(inst.x0, 1.25, sample_budget=budget, seed=seed,
                            grid_resolution=7)
    use_dc = inst.dc if dc == "instance" else dc
    return RegularityQuery(inst.F, inst.x0, inst.y0, dc=use_dc, epsilon=0.5,
                           region=region)


def residual_field(F, y0):
    def batch(X):
        Yt = np.tile(y0, (X.shape[0], 1))
        return image_distance_batch(F, X, Yt)

    return ScalarField(F.dim_in, fn=lambda x: image_distance(F, x, y0),
                       batch=batch)


# ---------------------------------------------------------------------------

def test_criterion_01_affine_modulus_recovery():
    details = []
    ok = True
    for name, known in (("identity2", 1.0), ("diag_2_05", 2.0)):
        t0 = time.perf_counter()
        est = empirical_directional_modulus(
            query(name, seed=42, budget=20000))
        wall = time.perf_counter() - t0
        rel = abs(est.sup_ratio - known) / known
        ok = ok and rel <= 0.10 and wall < 10.0
        details.append(f"{name} sup={est.sup_ratio:.6f} rel={rel:.2e} "
                       f"t={wall:.1f}s")
    check(1, ok, "; ".join(details))


def test_criterion_02_directional_but_not_plain_regular():
    t0 = time.perf_counter()
    est = empirical_directional_modulus(
        query("halfplane_directional", seed=42, budget=20000))
    t_dir = time.perf_counter() - t0
    t0 = time.perf_counter()
    plain = empirical_directional_modulus(
        query("halfplane_directional", seed=42, budget=20000, dc=None),
        collect=True)
    t_plain = time.perf_counter() - t0
    n_inf = sum(1 for r in plain.samples
                if r["admissible"] and np.isinf(r["ratio"]))
    ok = (0.9 <= est.sup_ratio <= 1.1 and n_inf >= 1
          and t_dir < 10.0 and t_plain < 10.0)
    check(2, ok, f"directional sup={est.sup_ratio:.4f}, plain has {n_inf} "
                 f"empty-preimage witnesses, t={t_dir + t_plain:.1f}s")


def test_criterion_03_error_bound_certificates():
    violations = 0
    for name, xbar in (("hoffman_2d", [0.6, 0.8]), ("parabola_eb", [0.75])):
        q = query(name)
        cert = error_bound_certificate(residual_field(q.F, q.y0),
                                       np.asarray(xbar), q.region,
                                       max_slope_points=16, slope_budget=300)
        violations += 0 if cert.holds else 1
    rng = np.random.default_rng(100)
    for _ in range(100):
        F, xbar = orthant_instance(rng)
        A, b = F.f.A, F.f.b

        def fv(x, A=A, b=b):
            return float(np.linalg.norm(np.maximum(A @ x + b, 0.0)))

        def fb(X, A=A, b=b):
            return np.linalg.norm(np.maximum(X @ A.T + b[None, :], 0.0),
                                  axis=1)

        field = ScalarField(A.shape[1], fn=fv, batch=fb)
        box = np.stack([xbar - 2.0, xbar + 2.0], axis=1)
        region = SearchRegion(box, 7, 200, 5)
        cert = error_bound_certificate(field, xbar, region,
                                       max_slope_points=8, slope_budget=150)
        violations += 0 if cert.holds else 1
    check(3, violations == 0,
          f"registry pair + 100 random orthant instances, "
          f"{violations} violations")


def test_criterion_04_inverse_modulus_matches_min_slope():
    details = []
    ok = True
    for name, known in (("identity2", 1.0), ("diag_2_05", 2.0),
                        ("hoffman_2d", 1.0)):
        q = query(name)
        est = empirical_directional_modulus(q)
        res = slope_criterion(q, tau=2.5 * known)
        rel = abs(1.0 / est.sup_ratio - res.min_slope) / (1.0 / known)
        ok = ok and rel <= 0.2
        details.append(f"{name} gap={rel:.4f}")
    check(4, ok, "; ".join(details))


def test_criterion_05_coderivative_criterion():
    q = query("diag_2_05", dc=DirectionalCone(np.zeros(2), 0.2))
    cod = coderivative_criterion(q)
    emp = empirical_directional_modulus(query("diag_2_05")).sup_ratio
    rel = abs(1.0 / cod.inf_value - emp) / emp
    ok = 0.5 <= cod.inf_value <= 0.6 and rel <= 0.2
    hp = coderivative_criterion(query("halfplane_directional"),
                                delta_ladder=(0.1,), samples_per_delta=400)
    ok = ok and hp.inf_value >= 0.88
    check(5, ok, f"diag inf={cod.inf_value:.4f} (1/inf vs modulus "
                 f"gap {rel:.4f}), halfplane inf={hp.inf_value:.4f}")


def test_criterion_06_interiority_lp():
    hp = builtin("halfplane_directional")
    up = robinson_condition(hp.F, hp.x0, hp.y0, np.array([0.0, 1.0]))
    down = robinson_condition(hp.F, hp.x0, hp.y0, np.array([0.0, -1.0]))
    ok = up.holds and up.margin > 0 and not down.holds

    ident = builtin("identity2")
    rng = np.random.default_rng(11)
    dirs = [np.array([1.0, 0.0]), np.array([0.0, 1.0]),
            np.array([-1.0, -1.0]), np.zeros(2)]
    raw = rng.standard_normal((32, 2))
    dirs += list(raw / np.linalg.norm(raw, axis=1, keepdims=True))
    n_dirs = 0
    for ybar in dirs:
        ok = ok and robinson_condition(ident.F, ident.x0, ident.y0,
                                       ybar).holds
        n_dirs += 1

    n_lp = 0
    for _ in range(60):
        dim = int(rng.integers(1, 4))
        extra = int(rng.integers(0, 9 - 2 * dim))
        poly = bounded_random_polyhedron(rng, dim, extra)
        objective = rng.standard_normal(dim)
        res = solve_lp(objective, poly)
        want = vertex_lp_maximum(objective, poly)
        ok = ok and res.status == "optimal" and want is not None \
            and abs(res.value - want) <= 1e-7
        n_lp += 1
    check(6, ok, f"halfplane asymmetry, identity holds for {n_dirs} "
                 f"directions, {n_lp} LPs match vertex enumeration")


def test_criterion_07_perturbation_arithmetic():
    base = perturbation_bound(1.0, 0.5, 1.0, 0.5, 0.05)
    ok = abs(base - 2.64151) <= 1e-4

    tau, delta, yn, alpha = 1.3, 0.4, 0.8, 0.35
    L_max = (delta * (1 - alpha) * alpha
             / (tau * ((1 + alpha) * yn + delta * (1 - alpha))))
    grid = np.linspace(0.0, L_max * (1 - 1e-9), 100)
    vals = [perturbation_bound(tau, delta, yn, alpha, L) for L in grid]
    ok = ok and all(v >= tau for v in vals)
    ok = ok and all(b > a for a, b in zip(vals, vals[1:]))

    raised_at, raised_above, finite_below = False, False, False
    try:
        perturbation_bound(tau, delta, yn, alpha, L_max)
    except InvalidPerturbation:
        raised_at = True
    try:
        perturbation_bound(tau, delta, yn, alpha, L_max * 1.5)
    except InvalidPerturbation:
        raised_above = True
    finite_below = np.isfinite(
        perturbation_bound(tau, delta, yn, alpha, L_max * (1 - 1e-9)))
    ok = ok and raised_at and raised_above and finite_below
    check(7, ok, f"bound(1,.5,1,.5,.05)={base:.5f}, monotone over 100 "
                 f"valid L values, rejection exactly at the L threshold")


def test_criterion_08_estimator_agrees_with_oracle():
    details = []
    ok = True
    for name in registry_names():
        inst = builtin(name)
        q = query(name)
        px = 201 if inst.F.dim_in == 1 else 41
        py = 201 if inst.F.dim_out == 1 else 21
        g_x = Grid(np.stack([q.x0 - 2.5 * q.epsilon,
                             q.x0 + 2.5 * q.epsilon], axis=1), px)
        g_y = Grid(np.stack([q.y0 - q.epsilon, q.y0 + q.epsilon], axis=1),
                   py)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            oracle = grid_modulus(inst.F, q, g_x, g_y)
        emp = empirical_directional_modulus(q).sup_ratio
        step = max(g_x.step, g_y.step)
        if np.isinf(oracle) or np.isinf(emp):
            agree = np.isinf(oracle) and np.isinf(emp)
        else:
            agree = abs(emp - oracle) <= step * max(1.0, oracle)
        ok = ok and agree
        details.append(f"{name} {'ok' if agree else 'MISMATCH'}")

    inst = builtin("identity2")
    q = query("identity2")
    coarse = grid_modulus(inst.F, q,
                          Grid(np.tile([[-1.25, 1.25]], (2, 1)), 21),
                          Grid(np.tile([[-0.5, 0.5]], (2, 1)), 15))
    fine = grid_modulus(inst.F, q,
                        Grid(np.tile([[-1.25, 1.25]], (2, 1)), 41),
                        Grid(np.tile([[-0.5, 0.5]], (2, 1)), 21))
    refines = abs(fine - 1.0) < abs(coarse - 1.0)
    ok = ok and refines
    check(8, ok, ", ".join(details) + f"; refinement {coarse:.6f} -> "
                                      f"{fine:.6f}")


def test_criterion_09_reports_are_deterministic(tmp_path, capsys):
    def analyze_bytes(exported, tag, threads):
        out = tmp_path / f"{exported.stem}-{tag}.json"
        code = main(["analyze", str(exported), "--seed", "7",
                     "--no-timestamp", "--threads", threads, "--out",
                     str(out)])
        assert code in (0, 1)
        return out.read_bytes()

    ok = True
    stable, invariant = 0, 0
    for name in registry_names():
        exported = tmp_path / f"{name}.json"
        assert main(["instances", "--export", name, "--out",
                     str(exported)]) == 0
        first = analyze_bytes(exported, "a", "1")
        second = analyze_bytes(exported, "b", "1")
        wide = analyze_bytes(exported, "t8", "8")
        ok = ok and first == second and first == wide
        stable += int(first == second)
        invariant += int(first == wide)
    capsys.readouterr()
    check(9, ok, f"{stable}/6 reruns byte-identical, {invariant}/6 "
                 f"thread-count invariant")


def test_criterion_10_invariant_suites():
    families = {}

    # steepest local descent never beats the best descent over the region
    rng = np.random.default_rng(21)
    bad = total = 0
    for case in range(125):
        dim = int(rng.integers(1, 3))
        a = rng.standard_normal(dim)
        qv = rng.uniform(0.2, 2.0, size=dim)
        if case % 3 == 0:
            f = ScalarField(dim, fn=lambda x, a=a: float(a @ x) + 3.0,
                            batch=lambda X, a=a: X @ a + 3.0)
        elif case % 3 == 1:
            f = ScalarField(dim, fn=lambda x, qv=qv: float(qv @ (x * x)),
                            batch=lambda X, qv=qv: (X * X) @ qv)
        else:
            f = ScalarField(dim, fn=lambda x, a=a: abs(float(a @ x)),
                            batch=lambda X, a=a: np.abs(X @ a))
        center = rng.uniform(-1.0, 1.0, size=dim)
        box = np.stack([center - 1.5, center + 1.5], axis=1)
        region = SearchRegion(box, 4, 60, seed=int(rng.integers(0, 10_000)))
        for _ in range(8):
            x = rng.uniform(center - 1.0, center + 1.0)
            lo = local_slope(f, x, r0=default_local_r0(region),
                             seed=region.seed).value
            hi = global_slope(f, x, region).value
            bad += int(not lo <= hi + 1e-9)
            total += 1
    families["slope ordering"] = (total, bad)

    # normal generators support the whole set from any boundary foot
    rng = np.random.default_rng(9)
    P = Polyhedron(np.vstack([np.eye(2), -np.eye(2)]), np.ones(4))
    inside = rng.uniform(-1.0, 1.0, size=(300, 2))
    bad = total = 0
    for k in ([1.0, 0.3], [1.0, 1.0], [-1.0, -1.0], [0.2, -1.0]):
        G = normal_cone_generators(P, np.array(k))
        gaps = (inside - np.array(k)[None, :]) @ G.T
        bad += int(np.max(gaps) > 1e-9)
        total += inside.shape[0]
    families["normal-cone support"] = (total, bad)

    # every emitted dual pair satisfies its defining inequalities
    ybar = np.array([0.0, 1.0])
    pairs = sample_dual_pairs(ybar, 0.2, 4000, seed=3)
    bad = sum(1 for p in pairs if not p.is_valid(ybar))
    families["dual pairs"] = (len(pairs), bad)

    # projections are idempotent and nonexpansive
    rng = np.random.default_rng(77)
    sets = [P, Polyhedron(np.array([[1.0, 1.0]]), np.zeros(1)),
            Ball(np.array([0.5, -0.5]), 2.0),
            Singleton(np.array([1.0, 2.0])),
            DirectionalCone(np.array([0.0, 1.0]), 0.2),
            ProductSet([Ball(np.zeros(1), 1.0),
                        Singleton(np.array([3.0]))])]
    bad = total = 0
    for s in sets:
        A = rng.uniform(-6.0, 6.0, size=(200, s.dim))
        B = rng.uniform(-6.0, 6.0, size=(200, s.dim))
        once = s.project_batch(A)
        twice = s.project_batch(once)
        bad += int(np.max(np.linalg.norm(once - twice, axis=1)) > 1e-6)
        gap = np.linalg.norm(once - s.project_batch(B), axis=1)
        bad += int(np.any(gap > np.linalg.norm(A - B, axis=1) + 1e-7))
        total += 2 * len(A)
    families["projection laws"] = (total, bad)

    # finite envelope values equal the image distance; infinite ones mark
    # failed membership
    bad = total = 0
    cases = (("identity2", DirectionalCone(np.array([0.0, 1.0]), 0.2)),
             ("halfplane_directional", None),
             ("hoffman_2d", DirectionalCone(np.array([1.0, 0.0]), 0.3)))
    for name, cone in cases:
        inst = builtin(name)
        dc = inst.dc if cone is None else cone
        gen = np.random.default_rng(5)
        X = gen.uniform(-2, 2, size=(400, inst.F.dim_in))
        y = gen.uniform(-1, 1, size=inst.F.dim_out)
        Yt = np.broadcast_to(y, (400, inst.F.dim_out))
        env = envelope_batch(inst.F, dc, X, y)
        vals, _ = membership_values(inst.F, X, Yt, dc)
        img = image_distance_batch(inst.F, X, Yt)
        finite = np.isfinite(env)
        bad += int(not np.allclose(env[finite], img[finite], atol=1e-12))
        bad += int(not np.all(finite[vals <= TOL_MEMBER]))
        bad += int(not np.all(vals[~finite] > TOL_MEMBER))
        total += len(X)
    families["envelope equivalence"] = (total, bad)

    ok = all(n >= 1000 and v == 0 for n, v in families.values())
    detail = ", ".join(f"{k}: {v}/{n}" for k, (n, v) in families.items())
    check(10, ok, "violations/samples " + detail)
