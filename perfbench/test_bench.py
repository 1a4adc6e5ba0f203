"""Smoke tests for the benchmark, on the tiny oracle config.

Run with ``python3 -m pytest perfbench``.
"""

import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

import bench
import cfqa.episode

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def _names_and_units(kind):
    return {m["name"]: m["unit"] for m in SPEC[kind]}


@pytest.mark.parametrize("workload", bench.WORKLOADS)
def test_workload_writes_every_metric_and_tracing_changes_nothing(workload):
    runs = [bench.run_workload(workload, seed=3, seconds=0, trace=trace,
                               scale=bench.TINY)
            for trace in (False, True)]
    plain, traced = runs
    for result in runs:
        assert result["correct"] and result["failed"] == 0
        assert result["operations"] == 1
        assert result["env"]["blas_threads"] is not None
    assert {k: u for k, (_, u) in plain["metrics"].items()} == _names_and_units("end_to_end")
    assert {k: u for k, (_, u) in traced["layers"].items()} == _names_and_units("per_layer")
    for value, _ in list(plain["metrics"].values()) + list(traced["layers"].values()):
        assert math.isfinite(value)
    for value, _ in plain["metrics"].values():
        assert value > 0
    # tracing wraps calls but must not change what they compute
    assert plain["quality"] == traced["quality"]
    assert plain["final_params_sha256"] == traced["final_params_sha256"]
    assert plain["attempted"] == traced["attempted"]
    assert traced["env"]["corpus_sha256"] == plain["env"]["corpus_sha256"]


def test_traced_layers_account_for_the_operations():
    result = bench.run_workload("train-short", seed=1, seconds=0, trace=True,
                                scale=bench.TINY)
    layers = {k: v for k, (v, _) in result["layers"].items()}
    assert layers["tensor.tape_nodes"] > 0
    assert layers["controller.calls"] == layers["episode.steps"]
    assert 0.0 < layers["answer.useful_ratio"] <= 1.0
    assert layers["trace.coverage_ratio"] == pytest.approx(1.0, abs=0.2)
    # self times partition the operation spans
    per_episode = ("controller.actor_ms", "controller.critic_ms",
                   "controller.state_ms", "encoder.ms", "selector.ms",
                   "answer.ms", "subcontext.ms", "episode.self_ms", "loop.self_ms")
    total_ms = (sum(layers[k] for k in per_episode) * result["episodes"]
                + (layers["tensor.backward_ms"] + layers["params.step_ms"])
                * result["operations"])
    assert total_ms == pytest.approx(1000 * sum(result["durations_s"]), rel=0.05)


@pytest.mark.parametrize("workload", bench.WORKLOADS)
def test_a_span_outside_its_context_fails_the_operation(workload, monkeypatch):
    class SpanPastTheEnd(cfqa.episode.StepRecord):
        def __init__(self, action, ctx_tokens, reward, span=None):
            if span is not None:
                span = (span[0], ctx_tokens)
            super().__init__(action, ctx_tokens, reward, span)

    monkeypatch.setattr(cfqa.episode, "StepRecord", SpanPastTheEnd)
    result = bench.run_workload(workload, seed=3, seconds=0, trace=False,
                                scale=bench.TINY)
    assert not result["correct"]
    assert result["failed"] == result["attempted"] >= 1


def _run_cli(cwd, *args):
    return subprocess.run([sys.executable, "perfbench/run.py", *args],
                          cwd=cwd, capture_output=True, text=True, timeout=180)


def test_cli_prints_the_result_object_last():
    proc = _run_cli(HERE.parent, "--workload", "eval-short", "--seed", "0",
                    "--seconds", "0", "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["attempted"] >= 1
    assert set(last["metrics"]) == set(_names_and_units("end_to_end"))
