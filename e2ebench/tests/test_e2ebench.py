"""The benchmark's own tests: references, tracing, accounting, report shape.

Run from the repository root with ``python -m pytest e2ebench/tests``.
Every workload runs at a tiny size, so the whole file takes seconds.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import harness
import layers
from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
NAMES = sorted(WORKLOADS)


def tiny(name: str) -> int:
    """A few hundred inputs; the join needs more to produce some matches."""
    return 4000 if name == "join_process" else 600


def _outputs(workload, sink):
    got = [(ts, value) for ts, value, _ in sink.elements]
    return got if workload.ordered else Counter(got)


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("name", NAMES)
def test_tiny_run_matches_reference(name, seed):
    workload = WORKLOADS[name]
    inputs = workload.inputs(seed, tiny(name))
    expected = workload.reference(inputs)
    assert expected, "a workload whose reference is empty checks nothing"
    rep = harness.run_rep(workload, inputs, expected)
    assert rep.error is None
    assert rep.results == len(expected)
    assert rep.wall_s > 0 and len(rep.setup_s) == harness.SETUPS_PER_REP


def test_inputs_depend_only_on_the_seed():
    for name, workload in WORKLOADS.items():
        first = workload.inputs(7, tiny(name))
        again = workload.inputs(7, tiny(name))
        other = workload.inputs(8, tiny(name))
        assert [(e.timestamp, e.value) for e in first] == [(e.timestamp, e.value) for e in again]
        assert [e.value for e in first] != [e.value for e in other]


def test_wrong_output_is_a_failed_rep():
    workload = WORKLOADS["window_agg"]
    inputs = workload.inputs(1, tiny("window_agg"))
    expected = workload.reference(inputs)
    rep = harness.run_rep(workload, inputs, expected[:-1])
    assert rep.error is not None and rep.error.startswith("output mismatch")


@pytest.mark.parametrize("name", NAMES)
def test_traced_outputs_equal_untraced_and_layers_add_up(name):
    workload = WORKLOADS[name]
    inputs = workload.inputs(3, tiny(name))

    plain = workload.build(inputs)
    engine = workload.engine(plain)
    try:
        engine.run(timeout=60)
    finally:
        engine.close()

    traced = workload.build(inputs)
    engine = workload.engine(traced)
    wall_s, values, error = layers.traced_run(workload, traced, engine, 60.0)
    assert error is None
    assert _outputs(workload, traced.sink) == _outputs(workload, plain.sink)

    units = [k[len("engine.") : -len(".wall_s")] for k in values if k.endswith(".wall_s")]
    assert units, "no worker was traced"
    for unit in units:
        wall = values[f"engine.{unit}.wall_s"]
        accounted = values[f"engine.{unit}.layers_s"] + values[f"engine.{unit}.idle_s"]
        assert abs(wall - accounted) <= layers.ADD_UP_TOLERANCE * wall + layers.ADD_UP_FLOOR_S
        assert values[f"engine.{unit}.idle_s"] >= 0
    assert values["sink.results"] == len(traced.sink.elements)
    assert values["dataflow.inject_elements"] >= len(inputs)
    if workload.backend == "process":
        assert values["mp.ring.envelopes"] > 0
    else:
        assert values["mp.ring.envelopes"] == 0


def test_tracing_leaves_no_wrapper_behind():
    from repro.core.dataflow import Dispatcher
    from repro.operators.window import TimeWindow

    before = (Dispatcher.inject, Dispatcher.run_queue, TimeWindow.__iter__)
    workload = WORKLOADS["paced_hmts"]
    built = workload.build(workload.inputs(1, 200))
    layers.traced_run(workload, built, workload.engine(built), 60.0)
    assert (Dispatcher.inject, Dispatcher.run_queue, TimeWindow.__iter__) == before
    assert "receive" not in vars(built.sink)


def _run(args, cwd=ROOT):
    command = [sys.executable, str(Path("e2ebench") / "run.py"), *args]
    return subprocess.run(command, cwd=cwd, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", NAMES)
def test_report_names_every_metric_with_its_unit(name, trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    done = _run(
        ["--workload", name, "--seed", "1", "--seconds", "0", "--trace", str(trace), "--size", str(tiny(name))]
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    assert {m: result["metrics"][m]["unit"] for m in result["metrics"]} == {
        m["name"]: m["unit"] for m in wanted
    }
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], (int, float))


def test_benchmark_json_lists_the_workloads_and_layers():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    listed = [w["name"] for w in spec["workloads"]]
    assert listed and set(listed) <= set(WORKLOADS)
    assert [m["name"] for m in spec["per_layer"]] == list(layers.PER_LAYER)
    assert [m["unit"] for m in spec["per_layer"]] == [layers.unit_of(m) for m in layers.PER_LAYER]


def test_fails_without_the_engine_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "e2ebench", ignore=shutil.ignore_patterns("__pycache__"))
    done = _run(["--workload", "chain_gts", "--seed", "1", "--seconds", "1", "--trace", "0"], cwd=tmp_path)
    assert done.returncode != 0
    assert done.stdout.strip() == ""
