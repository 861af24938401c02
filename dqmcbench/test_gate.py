"""Tests of the benchmark itself: the correctness gate passes on a healthy
run and catches injected defects, tracing leaves the program as it found
it, and the metrics printed match ``BENCHMARK.json``.

Run from the root of a checkout::

    python3 -m pytest dqmcbench
"""

from __future__ import annotations

import json
import sys
from dataclasses import replace
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import env  # noqa: E402

env.prepare()

import run  # noqa: E402
from repro.core import GreensFunctionEngine  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

#: a small stand-in with the same configuration shape as sq8_b4_serial
TINY = replace(
    WORKLOADS["sq8_b4_serial"],
    name="tiny",
    lx=4,
    beta=2.0,
    n_slices=16,
    warmup_sweeps=2,
    measure_sweeps=8,
    timed_runs=1,
    docc_reference=None,
)
CHECKS = {"finite", "density", "sign", "wrap_drift", "checkpoint_roundtrip"}


def _failed_checks(ops) -> set:
    return {c["check"] for c in ops.checks if not c["ok"]}


def _perturbed_wrap_pair(monkeypatch, eps=1e-3):
    original = GreensFunctionEngine.wrap_pair

    def wrap_pair(self, gs, l):
        return {s: g + eps for s, g in original(self, gs, l).items()}

    monkeypatch.setattr(GreensFunctionEngine, "wrap_pair", wrap_pair)


def test_gate_passes_on_healthy_run():
    ops, rec, _ = run.run_workload(TINY, seed=3, seconds=0, traced=False)
    assert ops.failed == 0
    assert {c["check"] for c in ops.checks} == CHECKS
    assert len(rec.sweep_s) == TINY.measure_sweeps


def test_gate_catches_perturbed_wrap(monkeypatch):
    _perturbed_wrap_pair(monkeypatch)
    ops, _, _ = run.run_workload(TINY, seed=3, seconds=0, traced=False)
    assert "wrap_drift" in _failed_checks(ops)
    assert ops.failed >= 1


def test_gate_catches_wrong_double_occupancy():
    wrong = replace(TINY, docc_reference=(0.5, 0.001))
    ops, _, _ = run.run_workload(wrong, seed=3, seconds=0, traced=False)
    assert _failed_checks(ops) == {"double_occupancy"}


def test_double_occupancy_is_checked_once_on_the_pooled_runs():
    import numpy as np

    from gate import check_double_occupancy

    rng = np.random.default_rng(0)
    # eight runs whose own 4-bin error bars are loose; pooled, 0.01 off is far out
    runs = [0.13 + 0.002 * rng.standard_normal(4) for _ in range(8)]
    assert check_double_occupancy(runs, (0.13, 0.0001))[1]
    assert not check_double_occupancy(runs, (0.14, 0.0001))[1]
    assert not check_double_occupancy([], (0.13, 0.0001))[1]

    with_ref = replace(TINY, timed_runs=3, docc_reference=(0.5, 0.001))
    ops, _, _ = run.run_workload(with_ref, seed=3, seconds=0, traced=False)
    assert [c["rep"] for c in ops.checks if c["check"] == "double_occupancy"] == ["all"]


def test_sweep_that_raises_counts_as_failed(monkeypatch):
    calls = {"n": 0}
    original = GreensFunctionEngine.boundary_greens

    def boundary_greens(self, sigma, start_cluster=0):
        calls["n"] += 1
        if calls["n"] == 40:
            raise FloatingPointError("injected")
        return original(self, sigma, start_cluster)

    monkeypatch.setattr(GreensFunctionEngine, "boundary_greens", boundary_greens)
    ops, _, _ = run.run_workload(TINY, seed=3, seconds=0, traced=False)
    assert ops.failed >= 1


def test_cli_exits_nonzero_on_defect(monkeypatch, capsys):
    monkeypatch.setitem(WORKLOADS, TINY.name, TINY)
    monkeypatch.setattr(run, "probe_setup", lambda name, seed: 0.01)
    _perturbed_wrap_pair(monkeypatch)
    code = run.main(["--workload", "tiny", "--seed", "3", "--seconds", "0"])
    last = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 1
    assert last["correct"] is False and last["failed"] >= 1


@pytest.mark.parametrize("trace", [0, 1])
def test_cli_prints_the_declared_metrics(monkeypatch, capsys, trace):
    spec = json.loads((env.ROOT / "BENCHMARK.json").read_text())
    declared = spec["per_layer"] if trace else spec["end_to_end"]
    monkeypatch.setitem(WORKLOADS, TINY.name, TINY)
    monkeypatch.setattr(run, "probe_setup", lambda name, seed: 0.01)
    code = run.main(
        ["--workload", "tiny", "--seed", "3", "--seconds", "0", "--trace", str(trace)]
    )
    last = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 0 and last["correct"] is True and last["failed"] == 0
    assert {m["name"]: m["unit"] for m in declared} == {
        k: v["unit"] for k, v in last["metrics"].items()
    }


def test_tracing_restores_the_program():
    import repro.core.greens as greens
    import repro.dqmc.simulation as simulation

    before = (
        simulation.sweep,
        greens.stratified_inverse,
        GreensFunctionEngine.boundary_greens,
        GreensFunctionEngine.wrap_pair,
    )
    ops, rec, tracer = run.run_workload(TINY, seed=3, seconds=0, traced=True)
    assert ops.failed == 0
    assert tracer.roots["dqmc.measure_sweep"]
    after = (
        simulation.sweep,
        greens.stratified_inverse,
        GreensFunctionEngine.boundary_greens,
        GreensFunctionEngine.wrap_pair,
    )
    assert after == before
    assert "__wrapped__" not in vars(GreensFunctionEngine.boundary_greens)
