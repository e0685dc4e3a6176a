"""Tests of the benchmark itself (not part of the package's tier-1 suite).

Run from the root of a checkout:

    python3 -m pytest -q perfbench/tests
"""
from __future__ import annotations

import contextlib
import importlib
import io
import json
import subprocess
import sys
from argparse import Namespace
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import run  # noqa: E402
import tracer  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture
def tiny(monkeypatch):
    """Shrink the fuzz passes to a handful of graphs."""
    monkeypatch.setattr(workloads, "SMALL_NS", (4, 7))
    monkeypatch.setattr(workloads, "SMALL_COUNT", 3)
    monkeypatch.setattr(workloads, "LARGE_NS", (32,))


def _units(section: str) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in BENCHMARK[section]}


def _report(workload: str, seed: int, trace: int, record: dict) -> dict:
    args = Namespace(workload=workload, seed=seed, trace=trace)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        run.report(args, record, [0.2, 0.21], [0.1, 0.11])
    return json.loads(out.getvalue().splitlines()[-1])


@pytest.mark.parametrize("workload", ["fuzz-small", "fuzz-large"])
@pytest.mark.parametrize("trace", [0, 1])
def test_tiny_run_shows_every_metric_with_its_unit(tiny, tmp_path, workload,
                                                   trace):
    record = worker.run(workload, 1000, 0.0, bool(trace), tmp_path, 0.01)
    result = _report(workload, 1000, trace, record)
    want = _units("per_layer" if trace else "end_to_end")
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == want
    assert all(unit == "s" for name, unit in got.items()
               if name.endswith("_s") and not name.endswith("_per_s"))
    assert result["attempted"] >= 1 and result["failed"] == 0
    assert not record["problems"]


def test_default_run_matches_reference_digest(tmp_path):
    record = worker.run("sweep-K", workloads.DEFAULT_SEED, 0.0, False,
                        tmp_path, 0.01)
    result = _report("sweep-K", workloads.DEFAULT_SEED, 0, record)
    assert result["correct"] and result["failed"] == 0


def test_reference_matches_the_kernel_it_timed(monkeypatch):
    assert run.stale_reference() == []
    monkeypatch.setitem(run.KERNEL_SHAPE, "sweeps", run.kernel.SWEEPS + 1)
    assert run.stale_reference() == ["sweeps"]


def test_command_prints_result_last():
    done = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                           "sweep-K", "--seconds", "0"], cwd=ROOT,
                          capture_output=True, text=True, timeout=170)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"]
    assert set(result["metrics"]) == set(_units("end_to_end"))


def _attributes() -> dict[tuple[str, str], object]:
    return {(name, attr): value
            for name in tracer.MODULES
            for attr, value in vars(importlib.import_module(name)).items()}


def test_trace_wraps_every_lookup_site_and_restores_them(tiny, tmp_path):
    before = _attributes()
    spectrum = before[("lapbounds.spectra", "spectrum")]
    t = tracer.Tracer()
    t.install()
    try:
        for module in ("lapbounds", "lapbounds.spectra", "lapbounds.bounds",
                       "lapbounds.majorization", "lapbounds.cli"):
            assert importlib.import_module(module).spectrum is not spectrum
    finally:
        t.restore()
    worker.run_pass("fuzz-small", 1, tmp_path, 0.01, 0.01, tracer.Tracer())
    after = _attributes()
    assert after.keys() == before.keys()
    changed = [key for key in before if after[key] is not before[key]]
    assert changed == []


def test_self_times_sum_to_at_most_the_wall_time(tiny, tmp_path):
    t = tracer.Tracer()
    result = worker.run_pass("fuzz-small", 1, tmp_path, 0.01, 0.01, t)
    self_s = t.self_times()
    assert all(v >= 0 for v in self_s.values())
    assert t.top_level_seconds() <= result["raw_s"]
    assert sum(self_s.values()) <= result["raw_s"]


@pytest.mark.parametrize("workload", ["fuzz-small", "fuzz-large"])
def test_same_seed_gives_identical_counts(tiny, tmp_path, workload):
    counts = []
    for _ in range(2):
        t = tracer.Tracer()
        result = worker.run_pass(workload, 5, tmp_path, 0.01, 0.01, t)
        layers = worker.layer_metrics(t, result)
        counts.append({name: layers[name]
                       for name in run.REFERENCE["counts"][workload]})
    assert counts[0] == counts[1]
    assert counts[0]["spectra.solves"] > 0


def test_broken_output_counts_as_failed(tmp_path):
    call = workloads.pass_calls("sweep-K", 0, tmp_path)[0]
    code, text = worker.run_call(call)
    rows = json.loads(text)
    rows[5]["lhs"] *= 1 + 1e-6
    problems, _ = workloads.check_call(call, code, json.dumps(rows))
    assert problems
    assert workloads.check_call(call, 1, text)[0] == ["exit code 1"]
