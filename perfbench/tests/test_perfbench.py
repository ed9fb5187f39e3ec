"""Checks of the benchmark itself, on a single damped qubit at n_c=1.

Run from the repository root with ``python -m pytest perfbench/tests``.
"""

import dataclasses
import json
import sys
import time
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from floquet_ness.liouvillian import ModelSpec  # noqa: E402
from floquet_ness.superops import LocalOperator  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def amplitude_damping():
    lower = np.array([[0, 1], [0, 0]], dtype=complex)
    return ModelSpec(1, 5.0, {}, {"d": {0: LocalOperator(0, np.sqrt(0.8) * lower)}}).validate()


def tiny(name):
    """The named workload's code path on the damped qubit."""
    w = workloads.WORKLOADS[name]
    config = dict(w.config)
    if "dense_local_cutoff" in config:
        config["dense_local_cutoff"] = 4  # local dimension is 12: Arnoldi runs
    return dataclasses.replace(w, build_model=amplitude_damping, n_c=1, chi=4, config=config)


def wrapped_targets():
    return [(owner, attr, owner.__dict__[attr]) for _, owner, attr, _ in tracing.boundaries()]


def test_spec_names_the_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_untraced_run_emits_every_end_to_end_metric(name):
    result, notes, ops, _ = run.run_workload(
        tiny(name), seed=3, seconds=0, trace=0, setup_repeats=1
    )
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == run.MIN_TIMED + 1  # the warm-up and the timed ones
    assert ops[0]["warmup"] and all("ref_s" in r for r in ops[1:])
    want = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    assert all(v["value"] > 0 for v in result["metrics"].values())
    assert ("decay_err_digits" in notes) == workloads.WORKLOADS[name].decay


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_traced_run_emits_every_layer_metric_and_restores(name):
    before = wrapped_targets()
    result, _, _, _ = run.run_workload(tiny(name), seed=3, seconds=0, trace=1)
    assert wrapped_targets() == before
    assert result["correct"] and result["attempted"] == run.MIN_TIMED + 1
    want = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    metrics = result["metrics"]
    assert {k: v["unit"] for k, v in metrics.items()} == want
    assert metrics["solver.local_solves"]["value"] > 0
    arnoldi = metrics["solver.arnoldi_calls"]["value"]
    assert (arnoldi > 0) == ("dense_local_cutoff" in workloads.WORKLOADS[name].config)
    assert 0 < metrics["trace.coverage"]["value"] <= 1


def test_scaled_time_is_wall_time_at_reference_speed():
    ref = speed.REFERENCE_S
    assert speed.scaled(2.0, ref, ref) == 2.0
    assert speed.scaled(2.0, 2 * ref, 2 * ref) == 1.0
    assert speed.SpeedProbe()() > 0


def test_tracer_restores_after_an_error():
    before = wrapped_targets()
    with pytest.raises(ZeroDivisionError):
        with tracing.Tracer():
            assert wrapped_targets() != before
            1 / 0
    assert wrapped_targets() == before


def test_self_times_add_up_to_at_most_the_wall_time():
    w = tiny("decay")
    model = w.build_model()
    tracer = tracing.Tracer()
    start = time.perf_counter()
    with tracer:
        workloads.run_operation(w, model, seed=5)
    wall = time.perf_counter() - start
    selfs = tracing.self_times(tracer.spans)
    assert len(selfs) > 0 and min(selfs) >= 0
    assert sum(selfs) <= wall
