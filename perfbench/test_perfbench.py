"""Tests of the benchmark itself: wrappers, work counts, output contract.

Run with ``python3 -m pytest perfbench``.  Workload inputs are shrunk
here; the benchmark's own sizes are exercised by ``perfbench/run.py``.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench import layers, run, workloads

ROOT = Path(__file__).resolve().parent.parent

SOLVER_LAYERS = {
    "hamiltonian.apply",
    "hamiltonian.shift_setup",
    "arnoldi.build",
    "arnoldi.orthogonalize",
    "arnoldi.ritz",
    "single_shift.run",
    "scheduler.bookkeeping",
    "solve",
}

#: Probe layers that must record calls on each workload.
EXPECTED_LAYERS = {
    "sweep_serial": SOLVER_LAYERS,
    "sweep_parallel": SOLVER_LAYERS,
    "enforce_pipeline": SOLVER_LAYERS
    | {
        "passivity.characterize",
        "passivity.enforce",
        "vectfit.fit",
        "timedomain.simulate",
    },
    "service_fresh": {
        "store.get",
        "store.put",
        "queue.enqueue",
        "queue.claim",
        "queue.ack",
        "batch.run",
    },
    "service_hit": {"store.get", "queue.enqueue"},
}


@pytest.fixture
def small_inputs(monkeypatch):
    """Shrink every workload to a few seconds of work."""
    monkeypatch.setattr(workloads, "TABLE1_IDS", (1,))
    monkeypatch.setattr(workloads, "TABLE1_VARIANTS", 2)
    monkeypatch.setattr(
        workloads, "PIPELINE_MODELS", (("seeded-2port", 6, 2, None, 1.1),)
    )
    monkeypatch.setattr(workloads.ServiceFresh, "block", 1)
    monkeypatch.setattr(workloads.ServiceHit, "block", 2)
    monkeypatch.setattr(workloads.ServiceHit, "distinct", 1)


def traced_round(name, tmp_path):
    workload = workloads.WORKLOADS[name](5, 2, str(tmp_path))
    workload.setup()
    try:
        recorder = layers.Recorder()
        with layers.installed(recorder):
            rnd = workload.run_round()
        workload.collect(rnd)
        failures = rnd.failures + workload.verify([rnd])
    finally:
        workload.close()
    return recorder, rnd, failures


@pytest.mark.parametrize("name", sorted(EXPECTED_LAYERS))
def test_every_wrapper_records_calls_where_its_layer_runs(
    name, small_inputs, tmp_path
):
    recorder, rnd, failures = traced_round(name, tmp_path)
    assert not layers.is_patched()
    assert failures == []
    seen = {span.layer for span in recorder.spans}
    assert EXPECTED_LAYERS[name] <= seen
    metrics = layers.layer_metrics(recorder.spans, rnd.work, rnd.jobs)
    names = {m.name for m in layers.PER_LAYER} - {"trace.overhead_share"}
    assert set(metrics) == names
    if name.startswith("service"):
        assert metrics["service.submit_ms"] > 0
        assert metrics["service.unattributed_share"] > 0
    else:
        assert metrics["work.operator_applies"] > 0


def test_every_probe_is_expected_somewhere():
    expected = set().union(*EXPECTED_LAYERS.values())
    assert {probe.layer for probe in layers.PROBES} == expected


def test_serial_work_counts_repeat_exactly(small_inputs, tmp_path):
    for name in ("sweep_serial", "enforce_pipeline"):
        counts = []
        for _ in range(2):
            workload = workloads.WORKLOADS[name](11, 2, str(tmp_path))
            workload.setup()
            counts.extend(workload.run_round().work for _ in range(2))
        assert counts[0]["operator_applies"] > 0
        assert all(c == counts[0] for c in counts), name


def test_wrappers_are_restored_when_the_body_raises():
    from repro.hamiltonian.shift_invert import ShiftInvertOperator

    original = ShiftInvertOperator.__dict__["matvec"]
    with pytest.raises(RuntimeError):
        with layers.installed(layers.Recorder()):
            assert layers.is_patched()
            raise RuntimeError("boom")
    assert ShiftInvertOperator.__dict__["matvec"] is original
    assert not layers.is_patched()


def test_quantile_is_a_weighted_mean_of_order_statistics():
    assert run.quantile_ms([0.2], 0.5) == pytest.approx(200.0)
    assert run.quantile_ms([0.1, 0.2, 0.3], 0.5) == pytest.approx(200.0)
    clustered = [0.4] * 10 + [0.5] * 10
    assert 400.0 < run.quantile_ms(clustered, 0.5) < 500.0


def test_self_time_subtracts_the_union_of_children():
    spans = [
        layers.Span(0, None, "outer", 0.0, 10.0, {}),
        layers.Span(1, 0, "inner", 1.0, 4.0, {}),
        layers.Span(2, 0, "inner", 3.0, 6.0, {}),
        layers.Span(3, 2, "leaf", 3.5, 4.5, {}),
    ]
    own = layers.self_times(spans)
    assert own == pytest.approx({0: 5.0, 1: 3.0, 2: 2.0, 3: 1.0})


def test_result_line_carries_every_metric(small_inputs, tmp_path):
    for trace, names in (
        (False, set(run.END_TO_END_UNITS)),
        (True, {m.name for m in layers.PER_LAYER}),
    ):
        result, report = run.run_workload(
            workloads.SweepSerial,
            seed=2,
            seconds=0.1,
            trace=trace,
            tmp_root=str(tmp_path),
        )
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        assert set(result["metrics"]) == names
        assert report["work_per_round"]["operator_applies"]["min"] > 0


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        (m.name, m.unit, m.better) for m in layers.PER_LAYER
    ]


def test_import_starts_nothing():
    code = (
        "import threading, perfbench.run, perfbench.workloads, perfbench.layers;"
        "assert threading.active_count() == 1;"
        "assert not perfbench.layers.is_patched()"
    )
    env_path = f"{ROOT / 'src'}:{ROOT}"
    subprocess.run(
        [sys.executable, "-c", code],
        check=True,
        cwd=ROOT,
        env={"PYTHONPATH": env_path, "PATH": "/usr/bin:/bin"},
        timeout=60,
    )
