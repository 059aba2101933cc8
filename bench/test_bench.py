"""Tests of the benchmark itself.  Run from the root of a checkout:

    python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import json

import pytest

import run
import tracer
from inputs import Family, exterior_square_dim, multiplier_dim


def _file_bytes(name: str, seed: int, count: int, work) -> list[bytes]:
    work.mkdir()
    return [path.read_bytes() for _, path in run.write_inputs(name, seed, count, work)]


@pytest.mark.parametrize("name", ["oracle-scrambled", "formula-scrambled"])
def test_inputs_follow_the_seed(name, tmp_path):
    count = len(run.WORKLOADS[name].cycle)
    first = _file_bytes(name, 1, count, tmp_path / "a")
    again = _file_bytes(name, 1, count, tmp_path / "b")
    other = _file_bytes(name, 2, count, tmp_path / "c")
    assert first == again
    assert all(x != y for x, y in zip(first, other))


def test_closed_forms():
    # values printed by liecap's own README and verify-paper table
    assert multiplier_dim(Family((2,), 3)) == 20
    assert multiplier_dim(Family((1,), 1)) == 4
    assert exterior_square_dim(Family((1,), 0)) == 3
    # H(1) + H(1): 2 + 2 + 2 * 2, and two derived dimensions
    assert multiplier_dim(Family((1, 1), 0)) == 8
    assert exterior_square_dim(Family((1, 1), 0)) == 10


def _requests(tmp_path, count: int) -> list[run.Request]:
    work = tmp_path / "inputs"
    work.mkdir()
    return [
        run.Request(["analyze", str(path), "--json", "--method", "formula"], family,
                    run.expected_report(family, "formula", None))
        for family, path in run.write_inputs("formula-scrambled", 3, count, work)
    ]


def test_traced_run_matches_untraced_and_adds_up(tmp_path):
    requests = _requests(tmp_path, 2)
    plain = run.run_pass(requests, False, run.Worker(), None)
    spans = tmp_path / "spans"
    spans.mkdir()
    traced = run.run_pass(requests, False, run.Worker(spans / "served.json"), spans)
    assert plain.ok == traced.ok == [True, True]
    assert plain.outputs == traced.outputs

    doc = json.loads((spans / "served.json").read_text())
    layers = tracer.summarize(doc)
    buckets = sum(layers[b] for b in tracer.time_buckets())
    assert buckets + layers["trace.unattributed_s"] == pytest.approx(layers["trace.request_s"], rel=1e-9)
    # the root spans cover the client-side latencies, apart from the pipe
    # and JSON round trip of each request
    assert layers["trace.request_s"] <= sum(traced.latencies)
    assert layers["trace.request_s"] == pytest.approx(sum(traced.latencies), rel=0.02, abs=0.05)
    assert layers["exterior.square_builds"] == 0
    assert layers["decompose.calls"] > 0


def test_wrong_answer_is_a_failed_request(tmp_path):
    request = _requests(tmp_path, 1)[0]
    worker = run.Worker()
    reply = worker.request(0, request.argv)
    worker.close()
    assert run.answer_ok(request, reply)
    wrong = run.Request(request.argv, request.family, dict(request.expected, capable=not request.expected["capable"]))
    assert not run.answer_ok(wrong, reply)
    assert not run.answer_ok(request, dict(reply, exit=1))
    assert not run.answer_ok(request, None)


@pytest.mark.parametrize("trace", [False, True])
def test_counts_and_metrics_with_and_without_trace(trace):
    report, result = run.run("verify-paper", 1, 1, trace)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == report["requests"] * (2 if trace else 1)
    declared = json.loads((run.ROOT / "BENCHMARK.json").read_text())["per_layer" if trace else "end_to_end"]
    assert {(m["name"], m["unit"]) for m in declared} == {(k, v["unit"]) for k, v in result["metrics"].items()}
    if trace:
        assert result["metrics"]["exterior.square_hits"]["value"] > 0
