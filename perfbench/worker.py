"""One benchmark run inside a fresh process: passes, timing, checks, tracing.

Usage (from ``run.py``, with ``src`` on ``PYTHONPATH``):

    python3 perfbench/worker.py --workload W --seed S --seconds T --trace 0|1
        --scratch DIR --kernel-best SECONDS

Passes repeat the same calls until ``--seconds`` have gone by. The reference
kernel is timed before the first call and after every ``SAMPLE_EVERY_S`` of
calls, and the calls between two samples have their time scaled by
``kernel_best / mean(kernel before, kernel after)``. With
``--trace 1`` untraced and traced passes alternate; the traced ones give the
per-layer split. The last stdout line is one JSON record for ``run.py``.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path
from typing import Optional

import kernel
import workloads
from tracer import Tracer

from lapbounds import cli

# kernel samples cost about 30 ms; calls shorter than this share one
SAMPLE_EVERY_S = 0.3


def run_call(call: workloads.Call) -> tuple[int, str]:
    """Run the CLI in this process; an exception counts as exit code 1."""
    buf = io.StringIO()
    try:
        with contextlib.redirect_stdout(buf):
            code = cli.main(list(call.argv))
    except Exception as exc:  # one bad call must not end the run
        print(f"call {' '.join(call.argv)} raised {exc!r}", file=sys.stderr)
        code = 1
    return code, buf.getvalue()


def run_pass(workload: str, seed: int, scratch: Path, kernel_best: float,
             k_before: float, tracer: Optional[Tracer] = None) -> dict:
    """One pass: timed calls with kernel samples between, then the checks."""
    out_root = Path(tempfile.mkdtemp(prefix="pass-", dir=scratch))
    calls = workloads.pass_calls(workload, seed, out_root)
    for call in calls:
        if call.out_dir is not None:
            call.out_dir.mkdir()
    outputs = []
    raw = norm = 0.0
    if tracer is not None:
        tracer.install()
    try:
        pending = 0.0  # call seconds since the last kernel sample
        for i, call in enumerate(calls):
            t0 = time.perf_counter()
            code, text = run_call(call)
            pending += time.perf_counter() - t0
            outputs.append((code, text))
            if pending >= SAMPLE_EVERY_S or i == len(calls) - 1:
                k_after = kernel.sample()
                raw += pending
                norm += pending * kernel_best / ((k_before + k_after) / 2)
                k_before = k_after
                pending = 0.0
    finally:
        if tracer is not None:
            tracer.restore()
    failed = 0
    problems: list[str] = []
    projections = []
    files = 0
    for call, (code, text) in zip(calls, outputs):
        found, projection = workloads.check_call(call, code, text)
        if found:
            failed += call.graphs
            problems.extend(found)
        projections.append(projection)
        if call.out_dir is not None:
            files += sum(1 for _ in call.out_dir.iterdir())
    shutil.rmtree(out_root)
    return {
        "graphs": sum(call.graphs for call in calls),
        "failed": failed,
        "raw_s": raw,
        "norm_s": norm,
        "problems": problems,
        "report_sha": [hashlib.sha256(text.encode()).hexdigest()
                       for _, text in outputs],
        "report_bytes": sum(len(text.encode()) for _, text in outputs),
        "counterexample_files": files,
        "projection": workloads.digest(projections),
    }


def layer_metrics(tracer: Tracer, result: dict) -> dict[str, float]:
    """Per-layer numbers of one traced pass (times in raw seconds)."""
    self_s = tracer.self_times()
    counts = tracer.counts
    graphs = result["graphs"] - result["failed"]
    draws = counts["families.gnp_draws"]
    return {
        "families.generate_s": self_s.get("families.generate", 0.0),
        "families.gnp_draws": draws,
        "families.gnp_accept_ratio":
            counts["families.gnp_graphs"] / draws if draws else 0.0,
        "graphs.classify_s": self_s.get("graphs.classify", 0.0),
        "graphs.complement_s": self_s.get("graphs.complement", 0.0),
        "graphs.complement_calls": counts["graphs.complement_calls"],
        "spectra.jacobi_s": self_s.get("spectra.jacobi", 0.0),
        "spectra.jacobi_calls": counts["spectra.jacobi_calls"],
        "spectra.jacobi_trivial_calls": counts["spectra.jacobi_trivial_calls"],
        "spectra.solves_per_graph":
            counts["spectra.spectrum_calls"] / graphs if graphs else 0.0,
        "spectra.solves": counts["spectra.spectrum_calls"],
        "spectra.laplacian_s": self_s.get("spectra.laplacian", 0.0),
        "spectra.laplacian_calls": counts["spectra.laplacian_calls"],
        "spectra.spectrum_s": self_s.get("spectra.spectrum", 0.0),
        "spectra.bareiss_s": self_s.get("spectra.bareiss", 0.0),
        "spectra.bareiss_calls": counts["spectra.bareiss_calls"],
        "bounds.catalog_s": self_s.get("bounds.catalog", 0.0),
        "bounds.rows": counts["bounds.rows"],
        "majorization.grone_s": self_s.get("majorization.grone", 0.0),
        "majorization.checks": counts["majorization.grone_calls"],
        "cli.serialize_s": self_s.get("cli.serialize", 0.0),
        "cli.report_bytes": result["report_bytes"],
        "cli.counterexample_files": result["counterexample_files"],
        "cli.other_s": result["raw_s"] - tracer.top_level_seconds(),
    }


def run(workload: str, seed: int, seconds: float, trace: bool,
        scratch: Path, kernel_best: float) -> dict:
    """Repeat passes for `seconds`; return the record run.py reports from."""
    start = time.perf_counter()
    passes = []
    traced = []
    k_last = kernel.sample()
    while not passes or time.perf_counter() - start < seconds:
        tracer = Tracer() if trace and len(passes) % 2 == 1 else None
        result = run_pass(workload, seed, scratch, kernel_best, k_last, tracer)
        k_last = kernel.sample()
        result["traced"] = tracer is not None
        passes.append(result)
        if tracer is not None:
            traced.append(layer_metrics(tracer, result))
    if trace and not traced:
        tracer = Tracer()
        result = run_pass(workload, seed, scratch, kernel_best, k_last, tracer)
        result["traced"] = True
        passes.append(result)
        traced.append(layer_metrics(tracer, result))
    record = {
        "passes": [{key: value for key, value in p.items()
                    if key != "problems"} for p in passes],
        "problems": sorted({msg for p in passes for msg in p["problems"]}),
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if traced:
        record["layers"] = traced
        plain = [p["norm_s"] for p in passes if not p["traced"]]
        with_trace = [p["norm_s"] for p in passes if p["traced"]]
        record["trace_overhead_frac"] = (
            statistics.median(with_trace) / statistics.median(plain) - 1.0
            if plain else 0.0)
        if workloads.seeded(workload) and seed != workloads.DEFAULT_SEED:
            tracer = Tracer()
            result = run_pass(workload, workloads.DEFAULT_SEED, scratch,
                              kernel_best, kernel.sample(), tracer)
            record["default_seed_counts"] = layer_metrics(tracer, result)
            record["default_seed_problems"] = result["problems"]
            record["default_seed_projection"] = result["projection"]
    return record


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--scratch", type=Path, required=True)
    parser.add_argument("--kernel-best", type=float, required=True)
    args = parser.parse_args()
    args.scratch.mkdir(parents=True, exist_ok=True)
    print(json.dumps(run(args.workload, args.seed, args.seconds,
                         bool(args.trace), args.scratch, args.kernel_best)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
