"""Self-tests of the end-to-end benchmark: tracer, goldens, compare verdicts, workloads.

Run with ``PYTHONPATH=src python -m pytest benchmarks/e2e`` from the
repository root.
"""

from __future__ import annotations

import json
import math
import sys
import types
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import child  # noqa: E402
import compare  # noqa: E402
import golden  # noqa: E402
import run  # noqa: E402
import trace as tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((HERE.parents[1] / "BENCHMARK.json").read_text())


def test_local_trace_module_is_imported():
    assert Path(tracing.__file__).resolve().parent == HERE


def test_benchmark_json_matches_the_code():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert {m["name"] for m in SPEC["per_layer"]} == set(tracing.PER_LAYER)
    assert {m["name"] for m in SPEC["end_to_end"]} == {"setup_s", "wall_s", "cpu_s", "peak_rss_mb"}


# --------------------------------------------------------------------- #
# tracer                                                                #
# --------------------------------------------------------------------- #


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


@pytest.fixture
def fake_modules(monkeypatch):
    """``repro.e2e_fake`` defines the targets; ``repro.e2e_alias`` aliases them."""
    clock = FakeClock()
    monkeypatch.setattr(tracing, "perf_counter", clock)
    fake = types.ModuleType("repro.e2e_fake")

    def inner(depth=0):
        clock.now += 2.0
        if depth:
            fake.inner(depth - 1)

    def outer():
        clock.now += 1.0
        fake.inner()
        clock.now += 1.0

    class Holder:
        method = inner

    Holder.__module__ = fake.__name__
    fake.inner, fake.outer, fake.Holder = inner, outer, Holder
    fake.REGISTRY = {"pair": (inner, outer), "single": inner}
    alias = types.ModuleType("repro.e2e_alias")
    alias.inner = inner
    monkeypatch.setitem(sys.modules, fake.__name__, fake)
    monkeypatch.setitem(sys.modules, alias.__name__, alias)
    layers = {"fake": (tracing.Target("repro.e2e_fake.outer", "outer", coarse=True),
                       tracing.Target("repro.e2e_fake.inner", "inner"),
                       tracing.Target("repro.e2e_fake.missing", "missing"))}
    return fake, alias, layers, clock


def test_tracer_self_time_arithmetic(fake_modules):
    fake, alias, layers, clock = fake_modules
    tracer = tracing.Tracer(layers)
    tracer.begin("unit-1")
    with tracer:
        fake.outer()
        alias.inner(depth=2)  # recursion through the wrapper: one call, 6 s
    totals = tracer.totals["units"]
    assert totals["outer.calls"] == 1 and totals["outer.s"] == 4.0
    assert totals["outer.self_s"] == 2.0
    assert totals["inner.calls"] == 2 and totals["inner.s"] == 8.0
    assert totals["inner.self_s"] == 8.0
    assert totals["trace.top_s"] == 10.0
    assert tracer.absent == ["repro.e2e_fake.missing"]
    assert [span[0] for span in tracer.spans] == ["outer"]


def test_tracer_rebinds_and_restores_every_alias(fake_modules):
    fake, alias, layers, _ = fake_modules
    originals = (fake.inner, fake.outer)
    tracer = tracing.Tracer(layers).install()
    try:
        assert fake.inner is not originals[0] and fake.outer is not originals[1]
        assert alias.inner is fake.inner
        assert vars(fake.Holder)["method"] is fake.inner
        assert fake.REGISTRY["pair"] == (fake.inner, fake.outer)
        assert fake.REGISTRY["single"] is fake.inner
    finally:
        tracer.uninstall()
    inner, outer = originals
    assert fake.inner is inner and fake.outer is outer and alias.inner is inner
    assert vars(fake.Holder)["method"] is inner
    assert fake.REGISTRY == {"pair": (inner, outer), "single": inner}


def test_every_declared_target_resolves():
    missing = [t.dotted for group in tracing.LAYERS.values() for t in group
               if tracing.resolve(t.dotted) is None]
    assert missing == []


# --------------------------------------------------------------------- #
# goldens                                                               #
# --------------------------------------------------------------------- #


def _record(value):
    return golden.canonical({"ops": [{"op": "cell", "mean": value}, {"op": "cell", "mean": 0.5}],
                             "totals": {"jobs": 2}})


def test_golden_detects_one_ulp():
    value = 0.8123456789
    expected = _record(value)
    perturbed = _record(float(np.nextafter(value, 1.0)))
    assert golden.diff(expected, _record(value)) == []
    assert len(golden.diff(expected, perturbed)) == 1
    assert golden.failed_ops(expected, perturbed) == 1
    stored = {"seed": 1, "record": expected, "fingerprint": golden.fingerprint(),
              "digests": {"1": golden.digest(expected), "2": golden.digest(expected)}}
    assert golden.check("w", 1, expected, stored)[0] == 0
    assert golden.check("w", 1, perturbed, stored)[0] == 1
    assert golden.check("w", 2, perturbed, stored)[0] == 2  # digest only: every op fails
    elsewhere = {**stored, "fingerprint": {"numpy": "other"}}
    assert golden.check("w", 1, perturbed, elsewhere)[0] == 0


def test_canonical_floats_are_exact_hex():
    assert golden.canonical({"x": 0.1, "n": np.int64(3), "b": np.bool_(True)}) == {
        "b": True, "n": 3, "x": (0.1).hex()}


# --------------------------------------------------------------------- #
# compare verdicts                                                      #
# --------------------------------------------------------------------- #


def _runs(values, workload="train_small", digest="d", seconds=24):
    return [{"workload": workload, "seed": seed, "trace": 0, "digest": digest, "attempted": 10,
             "seconds": seconds,
             "failed": 0, "metrics": {m["name"]: {"value": v, "unit": m["unit"]}
                                      for m in SPEC["end_to_end"]}}
            for seed, v in enumerate(values)]


def _pairs(values):
    return list(enumerate(values))


@pytest.mark.parametrize("factor,if_lower_is_better,if_higher_is_better", [
    (1.00, "within bound", "within bound"),
    (1.03, "within bound", "improved"),
    (1.20, "regressed", "improved"),
    (0.80, "improved", "regressed"),
])
def test_compare_verdicts(factor, if_lower_is_better, if_higher_is_better):
    base = [1.0 + 0.002 * (i % 5) for i in range(10)]
    new = [v * factor for v in base]
    assert compare.verdict(_pairs(base), _pairs(new), 0.1, "lower") == if_lower_is_better
    assert compare.verdict(_pairs(base), _pairs(new), 0.1, "higher") == if_higher_is_better


def test_compare_unresolved_when_spread_exceeds_bound():
    base = [1.0, 1.5, 0.7, 1.3, 0.9, 1.2, 0.8, 1.4, 1.1, 1.0]
    assert compare.verdict(_pairs(base), _pairs(base[::-1]), 0.1, "lower") == "unresolved"
    faster = [v / 10 for v in base]
    assert compare.verdict(_pairs(base), _pairs(faster), 0.1, "lower") == "improved"


def test_compare_rejects_a_regression():
    _, reject = compare.compare(_runs([1.0] * 4), _runs([1.0] * 4), SPEC)
    assert not reject
    _, reject = compare.compare(_runs([1.0] * 4), _runs([1.3] * 4), SPEC)
    assert reject


def test_compare_rejects_changed_digest():
    _, reject = compare.compare(_runs([1.0] * 4), _runs([1.0] * 4, digest="e"), SPEC)
    assert reject


def test_compare_refuses_runs_of_different_lengths():
    lines, reject = compare.compare(_runs([1.0] * 4), _runs([1.0] * 4, seconds=48), SPEC)
    assert reject and "different lengths" in lines[0]


# --------------------------------------------------------------------- #
# run.py output                                                         #
# --------------------------------------------------------------------- #


def _result(correct, failed):
    return {"correct": correct, "attempted": 10, "failed": failed,
            "metrics": {m["name"]: {"value": 1.5, "unit": m["unit"]} for m in SPEC["end_to_end"]}}


@pytest.fixture
def fake_run(monkeypatch):
    """``run.main`` over canned workload results, without starting children."""
    outcomes = {name: _result(True, 0) for name in WORKLOADS}
    outcomes["train_small"] = _result(False, 3)

    def fake_workload(spec, workload, seed, seconds, trace, trace_dir):
        return {**outcomes[workload], "digest": "d", "measured": {}}

    monkeypatch.setattr(run, "run_workload", fake_workload)


def test_single_workload_last_line_is_the_contract(fake_run, capsys):
    assert run.main(["--workload", "eval_deploy"]) == 0
    last = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True
    assert list(last["metrics"]) == [m["name"] for m in SPEC["end_to_end"]]


def test_all_workloads_last_line_covers_every_workload(fake_run, capsys):
    assert run.main([]) == 0
    last = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert last["correct"] is False  # train_small failed, although characterize ran last
    assert (last["attempted"], last["failed"]) == (10 * len(WORKLOADS), 3)
    assert set(last["metrics"]) == {f"{w}.{m['name']}" for w in WORKLOADS
                                    for m in SPEC["end_to_end"]}


# --------------------------------------------------------------------- #
# workloads, in-process at shrunk sizes                                 #
# --------------------------------------------------------------------- #

SHRUNK = {
    "train_small": {"names": ("iris",), "epochs": 1},
    "train_large": {"epochs": 1},
    "eval_deploy": {"names": ("iris",), "train_epochs": 1, "n_test": 20, "samples": 4},
    "characterize": {"n_points": 64, "epochs": 2},
}


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_workload_emits_every_declared_metric(name, tmp_path):
    probe = run.SpeedProbe()
    probes = [probe()]
    result = child.measure(WORKLOADS[name], seed=1, budget_s=0.0, trace=True,
                           workdir=tmp_path, min_units=2, sizes=SHRUNK[name],
                           pause=lambda: probes.append(probe()))
    assert len(probes) == 2 + len(result["units"]), "a pause after set-up and after each unit"
    run.attach_probes(result, probes)
    assert [u["traced"] for u in result["units"]] == [False, True]
    assert len({u["digest"] for u in result["units"]}) == 1, "tracing changed the outputs"
    assert all(u["failed"] == 0 for u in result["units"]), result["problems"]
    assert result["absent"] == []
    e2e = run.end_to_end([result])
    layers = run.per_layer([result], {m["name"]: m["unit"] for m in SPEC["per_layer"]})
    for metric in SPEC["end_to_end"]:
        assert e2e[metric["name"]] > 0
    for metric in SPEC["per_layer"]:
        assert math.isfinite(layers[metric["name"]]), metric["name"]
    assert layers["trace.coverage"] > 0.9
    if WORKLOADS[name].inspect is not None:
        assert result["record"]["inspect"]
