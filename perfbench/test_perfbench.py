"""Tests of the benchmark's own logic.

    python3 -m pytest perfbench
"""

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import latency  # noqa: E402
import tracing  # noqa: E402


# ---------------------------------------------------------------------------
# The percentile with ten samples beyond it.

@pytest.mark.parametrize("n_min, pct", [(20, 50.0), (40, 75.0),
                                        (100, 90.0), (200, 95.0)])
def test_tail_percentile_leaves_ten_beyond(n_min, pct):
    assert latency.tail_percentile(n_min) == pytest.approx(pct)
    value, rank, beyond = latency.nearest_rank(range(1, n_min + 1), pct)
    assert beyond == 10
    assert value == rank == n_min - 10


def test_tail_percentile_needs_more_than_ten_samples():
    with pytest.raises(ValueError):
        latency.tail_percentile(10)


def test_tail_keeps_its_percentile_when_a_run_has_more_samples():
    # n_min fixes the percentile; extra passes only add samples beyond it
    value, pct, beyond = latency.tail(list(range(1, 81)), n_min=40)
    assert pct == 75.0
    assert value == 60.0
    assert beyond == 20


def test_tail_ignores_input_order():
    vals = [5.0, 1.0, 4.0, 2.0, 3.0] * 8
    assert latency.tail(vals, 40) == latency.tail(sorted(vals), 40)


def test_median_even_and_odd():
    assert latency.median([3, 1, 2]) == 2
    assert latency.median([4, 1, 3, 2]) == 2.5


# ---------------------------------------------------------------------------
# Self time on nested spans.

def _span(name, parent, start, end):
    return [name, parent, 0, start, end]


def test_self_time_subtracts_nested_children():
    spans = [_span("op", -1, 0.0, 10.0),
             _span("a", 0, 1.0, 4.0),
             _span("b", 0, 5.0, 9.0),
             _span("c", 2, 6.0, 8.0)]
    assert tracing.self_times(spans) == pytest.approx([3.0, 3.0, 2.0, 2.0])


def test_self_time_counts_overlapping_children_once():
    spans = [_span("op", -1, 0.0, 10.0),
             _span("a", 0, 1.0, 5.0),
             _span("b", 0, 3.0, 7.0),
             _span("c", 0, 9.0, 12.0)]   # runs past its parent's end
    assert tracing.self_times(spans)[0] == pytest.approx(10.0 - 6.0 - 1.0)


def test_tracer_spans_link_parents_and_sum_to_the_root(monkeypatch):
    ticks = iter(float(t) for t in range(100))
    monkeypatch.setattr(tracing.time, "perf_counter", lambda: next(ticks))
    tr = tracing.Tracer()

    def leaf():
        return 7

    def middle():
        return tr.span("leaf", leaf) + tr.span("leaf", leaf)

    assert tr.span("op", middle) == 14
    names = [s[0] for s in tr.spans]
    parents = [s[1] for s in tr.spans]
    assert names == ["op", "leaf", "leaf"]
    assert parents == [-1, 0, 0]
    selfs = tracing.self_times(tr.spans)
    root = tr.spans[0]
    assert sum(selfs) == pytest.approx(root[4] - root[3])


# ---------------------------------------------------------------------------
# Installing and restoring the wrappers.

def _snapshot():
    import regcert.cli  # noqa: F401  (with it, every other module)

    snap = {}
    for mod in tracing._regcert_modules():
        for key, val in vars(mod).items():
            snap[(mod.__name__, key)] = val
            if isinstance(val, type) and val.__module__.startswith("regcert"):
                for attr, member in vars(val).items():
                    snap[(mod.__name__, key, attr)] = member
    return snap


def test_restore_puts_back_every_patched_name():
    import regcert.geometry as geometry
    import regcert.multimap as multimap

    before = _snapshot()
    original = geometry.dykstra_halfspaces
    patches = tracing.install(tracing.Tracer())
    try:
        # one wrapper serves every namespace that imported the function
        assert multimap.dykstra_halfspaces is geometry.dykstra_halfspaces
        assert geometry.dykstra_halfspaces is not original
        patched = {(getattr(o, "__name__", o), k) for o, k, _ in patches}
        for layer in tracing.LAYERS:
            for attr in layer.attrs:
                owner = attr.split(".")[0] if "." in attr else None
                key = attr.split(".")[-1]
                assert any(k == key and (owner is None or o == owner)
                           for o, k in patched), attr
    finally:
        tracing.restore(patches)
    after = _snapshot()
    assert after.keys() == before.keys()
    changed = [k for k in before if after[k] is not before[k]]
    assert changed == []
    assert not any(getattr(v, "__wrapped_by_perfbench__", False)
                   for v in after.values())


def test_traced_call_returns_the_untraced_result():
    import numpy as np

    from regcert.instances import builtin
    from regcert.multimap import default_region
    from regcert.problems import canonical_json
    import regcert.regularity as regularity

    inst = builtin("halfplane_directional")
    q = regularity.RegularityQuery(
        inst.F, inst.x0, inst.y0, dc=inst.dc, epsilon=0.5,
        region=default_region(inst.x0, 1.25, sample_budget=300, seed=3))

    def digest(est):
        witness = [np.asarray(w) for w in est.worst_witness]
        return canonical_json({"sup": est.sup_ratio,
                               "n": est.n_admissible, "w": witness})

    plain = digest(regularity.empirical_directional_modulus(q))
    tr = tracing.Tracer()
    patches = tracing.install(tr)
    try:
        traced = digest(tr.span(
            "op", lambda: regularity.empirical_directional_modulus(q)))
    finally:
        tracing.restore(patches)
    assert traced == plain
    metrics = tracing.layer_metrics(tr, [1.0], [1.0])
    assert metrics["regularity.empirical_directional_modulus.calls"] == 1
    assert metrics["regularity.empirical_directional_modulus.pairs_checked"] \
        == 300
    assert metrics["multimap.membership_values.calls"] >= 1
    assert metrics["geometry.dykstra_halfspaces.calls"] >= 1
    assert 0.0 < metrics["trace.layer_share"] <= 1.0


# ---------------------------------------------------------------------------
# BENCHMARK.json lists what the run reports.

def test_benchmark_json_matches_reported_metrics():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] \
        == tracing.metric_specs()
    import run

    assert [m["name"] for m in spec["end_to_end"]] \
        == list(run.E2E_UNITS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.E2E_UNITS
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
