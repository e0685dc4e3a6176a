"""Benchmark of the lapbounds harness, end to end and per layer.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload fuzz-small|fuzz-large|sweep-K
        [--seed N] [--seconds T] [--trace 0|1]

``--seconds`` defaults to ``run_seconds`` in ``BENCHMARK.json``. Set-up and
the passes together must end within ``DEADLINE_S`` (170 s), so ``--seconds``
can be at most about 160.

The harness is pure Python, so there is nothing to build: ``src`` goes on
``PYTHONPATH``. Set-up is timed over several fresh interpreter spawns, then
one worker process runs the workload's passes (see ``worker.py``). Every
metric is printed with its unit; the last stdout line is the JSON result.
The program is pinned to one CPU, because the host's slow phases are per
CPU and the reference kernel must run where the work runs.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SCRATCH = ROOT / ".bench_build" / "perfbench"
sys.path.insert(0, str(HERE))

import kernel  # noqa: E402
import workloads  # noqa: E402

SETUP_SPAWNS = 9
DEADLINE_S = 170.0
REFERENCE = json.loads((HERE / "reference.json").read_text())
PROBE = ("import sys, lapbounds.cli; "
         "sys.stdout.write('ready\\n'); sys.stdout.flush()")

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
UNITS = {metric["name"]: metric["unit"]
         for section in ("end_to_end", "per_layer")
         for metric in BENCHMARK[section]}


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def time_setup(env: dict[str, str]) -> tuple[list[float], list[float]]:
    """Raw and spawn-scaled seconds from spawn until lapbounds.cli is in."""
    best = REFERENCE["spawn"]["best_s"]
    raw, norm = [], []
    ref_before = kernel.spawn_sample(env)
    for i in range(SETUP_SPAWNS + 1):
        elapsed = kernel.time_spawn([sys.executable, "-c", PROBE], env)
        ref_after = kernel.spawn_sample(env)
        if i > 0:  # the first spawn fills the bytecode cache
            raw.append(elapsed)
            norm.append(elapsed * best / ((ref_before + ref_after) / 2))
        ref_before = ref_after
    return raw, norm


KERNEL_SHAPE = {"size": kernel.SIZE, "sweeps": kernel.SWEEPS,
                "bareiss_n": kernel.BAREISS_N,
                "bareiss_reps": kernel.BAREISS_REPS,
                "samples": kernel.SAMPLES}


def stale_reference() -> list[str]:
    """Fields of kernel.py that differ from those ``best_s`` was timed on."""
    stale = [name for name, value in KERNEL_SHAPE.items()
             if REFERENCE["kernel"][name] != value]
    if REFERENCE["spawn"]["code"] != kernel.SPAWN_CODE:
        stale.append("spawn code")
    return stale


def reference_digest(workload: str, seed: int):
    table = REFERENCE["digests"][workload]
    return table.get(str(seed)) if workloads.seeded(workload) else table


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float,
                        default=BENCHMARK["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "lapbounds" / "cli.py").is_file():
        print(f"error: no lapbounds sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    stale = stale_reference()
    if stale:
        print(f"error: kernel.py differs from reference.json in "
              f"{', '.join(stale)}; re-record with perfbench/record.py",
              file=sys.stderr)
        return 2
    start = time.perf_counter()
    cpus = sorted(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpus[0]})  # inherited by every child
    SCRATCH.mkdir(parents=True, exist_ok=True)
    env = child_env()

    setup_raw, setup_norm = time_setup(env)
    cmd = [sys.executable, str(HERE / "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--scratch", str(SCRATCH),
           "--kernel-best", repr(REFERENCE["kernel"]["best_s"])]
    budget = DEADLINE_S - (time.perf_counter() - start)
    try:
        done = subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE,
                              timeout=budget)
    except subprocess.TimeoutExpired:
        print(f"error: worker still running after {budget:.0f} s",
              file=sys.stderr)
        return 1
    if done.returncode != 0:
        print(f"error: worker exited with code {done.returncode}",
              file=sys.stderr)
        return 1
    record = json.loads(done.stdout.decode().splitlines()[-1])
    return report(args, record, setup_raw, setup_norm)


def report(args, record: dict, setup_raw: list[float],
           setup_norm: list[float]) -> int:
    passes = record["passes"]
    timed = [p for p in passes if not p["traced"]] or passes
    attempted = sum(p["graphs"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    problems = list(record["problems"])
    shas = {tuple(p["report_sha"]) for p in passes}
    if len(shas) != 1:
        problems.append("reports differ between passes of one run")
        failed = attempted
    projections = {p["projection"] for p in passes}
    want = reference_digest(args.workload, args.seed)
    if want is not None and projections != {want}:
        problems.append(f"verdict projection {sorted(projections)} "
                        f"differs from reference {want}")
        failed = attempted
    if "default_seed_counts" in record:
        seed = workloads.DEFAULT_SEED
        problems += [f"at seed {seed}: {problem}"
                     for problem in record["default_seed_problems"]]
        if record["default_seed_projection"] != reference_digest(
                args.workload, seed):
            problems.append(f"verdict projection at seed {seed} differs "
                            "from reference")
    correct = failed == 0 and not problems

    rates = [p["graphs"] / p["norm_s"] for p in timed]
    raw_rates = [p["graphs"] / p["raw_s"] for p in timed]
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"{len(passes)} passes  {attempted} graphs attempted  "
          f"{failed} failed")
    print(f"graphs_per_s   {statistics.median(rates):.4f} graphs/s  "
          f"(median of {len(rates)} passes; raw "
          f"{statistics.median(raw_rates):.4f})")
    print(f"setup_s        {statistics.median(setup_norm):.6f} s  "
          f"(median of {len(setup_norm)} spawns; raw "
          f"{statistics.median(setup_raw):.6f})")
    print(f"peak_rss_mb    {record['peak_rss_mb']:.3f} MB")
    print(f"failed_frac    {failed / attempted:.6f} frac")
    print("raw wall s per pass: "
          + " ".join(f"{p['raw_s']:.4f}" for p in passes))
    print(f"verdict projection {sorted(projections)[0]}  reference "
          f"{want or 'not recorded for this seed'}")
    print(f"report sha256 {' '.join(sorted(shas)[0])}")
    for problem in problems[:20]:
        print(f"problem: {problem}")

    if args.trace:
        metrics = trace_metrics(record)
        recorded = REFERENCE["counts"][args.workload]
        counts = record.get("default_seed_counts", record["layers"][0])
        diffs = {name: counts[name] - value
                 for name, value in recorded.items()}
        print(f"counts at seed {workloads.DEFAULT_SEED} minus record: "
              + " ".join(f"{name} {diff:+d}" for name, diff in diffs.items()))
        for name, value in metrics.items():
            print(f"{name:32s} {value:.6g} {UNITS[name]}")
    else:
        metrics = {
            "graphs_per_s": statistics.median(rates),
            "setup_s": statistics.median(setup_norm),
            "peak_rss_mb": record["peak_rss_mb"],
        }
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": UNITS[name]}
                    for name, value in metrics.items()},
    }))
    return 0


def trace_metrics(record: dict) -> dict[str, float]:
    """Per-layer metrics: times averaged over traced passes, counts of one."""
    layers = record["layers"]
    first = layers[0]
    out = {}
    for name in first:
        if name.endswith("_s"):
            out[name] = statistics.fmean(layer[name] for layer in layers)
        else:
            out[name] = first[name]
    out["trace.overhead_frac"] = record["trace_overhead_frac"]
    return out


if __name__ == "__main__":
    sys.exit(main())
