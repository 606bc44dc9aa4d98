"""Tests of the benchmark itself: python -m pytest bench -q"""

import json
import math
import os
import sys

import numpy as np
import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import asaddle.problem  # noqa: E402
import asaddle.saddle  # noqa: E402
import run_bench  # noqa: E402
import workloads  # noqa: E402
from layer_trace import Tracer  # noqa: E402

TINY = {
    "consensus_run": {"T": 30},
    "pricing_run": {"T": 30},
    "ring500_optimum": {"n_nodes": 12, "budget": 3},
}


@pytest.fixture
def quick(monkeypatch):
    monkeypatch.setattr(run_bench, "MIN_REPS", 1)
    monkeypatch.setattr(run_bench, "SETUP_BLOCK_SECONDS", 0.0)


def _declared(section):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[section]}


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", sorted(TINY))
def test_tiny_run_emits_every_named_metric(quick, tmp_path, name, trace):
    result, prov = run_bench.run(name, 3, 0.0, bool(trace), str(tmp_path), **TINY[name])
    json.dumps(result, allow_nan=False)
    declared = _declared("per_layer" if trace else "end_to_end")
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    assert all(math.isfinite(v["value"]) for v in result["metrics"].values())
    assert result["attempted"] >= 1
    assert prov["workload"] == name and prov["seed"] == 3


def test_trace_call_counts_on_ring(quick, tmp_path):
    result, _ = run_bench.run("ring500_optimum", 0, 0.0, True, str(tmp_path),
                              **TINY["ring500_optimum"])
    m = {k: v["value"] for k, v in result["metrics"].items()}
    assert m["delay.resolve.calls"] == m["delay.buffer.calls"] == m["cli.write_csv.calls"] == 0
    assert m["saddle.dual_slack.calls_per_step"] == 1.0
    assert m["saddle.step.calls"] == TINY["ring500_optimum"]["budget"]


def test_traced_run_restores_every_wrapped_name(quick, tmp_path):
    before = [(owner, attr, vars(owner)[attr]) for owner, attr, _, _ in run_bench.trace_targets()]
    run_bench.run("consensus_run", 0, 0.0, True, str(tmp_path), **TINY["consensus_run"])
    assert asaddle.saddle.project is asaddle.problem.project
    for owner, attr, original in before:
        assert vars(owner)[attr] is original, attr


def test_restore_after_an_exception():
    tracer = Tracer()
    with pytest.raises(RuntimeError):
        with tracer.installed(run_bench.trace_targets()):
            assert asaddle.saddle.project is not asaddle.problem.project
            raise RuntimeError("boom")
    assert asaddle.saddle.project is asaddle.problem.project


def test_self_time_subtracts_children():
    tracer = Tracer()

    def child():
        return sum(range(20000))

    def parent():
        return tracer.call("child", child) + tracer.call("child", child)

    tracer.call("parent", parent)
    spans = tracer.summary([0])[0]
    assert spans["child"]["calls"] == 2
    assert spans["parent"]["self_s"] == pytest.approx(spans["parent"]["s"] - spans["child"]["s"])


def test_run_trace_with_nan_counts_as_failed(tmp_path):
    wl = workloads.make_workload("pricing_run", ROOT, 0, T=30)
    wl.setup()
    result = wl.call(str(tmp_path))
    assert wl.check(result) == []
    result[2][0].F_hat[5] = np.nan
    wl.call = lambda out_dir: result
    _, ok, _ = run_bench.attempt(wl, str(tmp_path))
    assert not ok


def test_consensus_ring_optimum_matches_quoted_value():
    app = asaddle.apps.consensus.ConsensusRegressionConfig()
    assert round(workloads.consensus_ring_optimum(5, app), 5) == 0.98188
    assert workloads.consensus_ring_optimum(500, app) == pytest.approx(500 * 0.25**2 / 2)


def test_same_seed_same_inputs():
    a = workloads.make_workload("consensus_run", ROOT, 11)
    b = workloads.make_workload("consensus_run", ROOT, 11)
    c = workloads.make_workload("consensus_run", ROOT, 12)
    assert workloads.inputs_sha256(a) == workloads.inputs_sha256(b) != workloads.inputs_sha256(c)
