"""Write ``reference.json``: the kernel's best time, verdict digests, counts.

Run from the root of a checkout, on the commit whose output is the reference:

    python3 perfbench/record.py

* ``kernel.best_s``: fastest kernel sample seen in ``KERNEL_SECONDS`` (60 s)
  of sampling on one CPU; ``spawn.best_s``: fastest of ``SPAWNS`` (100)
  reference spawns. Recording them again rescales every timed metric, so do
  it only together with a new baseline.
* ``digests``: verdict-projection digest of one pass per workload, for seeds
  ``0 .. SEEDS - 1`` (0-31) and the default seed (``sweep-K`` has no seed).
* ``counts``: per-layer numbers of one traced pass at the default seed.
"""
from __future__ import annotations

import json
import os
import platform
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import kernel  # noqa: E402
import numpy  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

SCRATCH = ROOT / ".bench_build" / "perfbench"
KERNEL_SECONDS = 60.0
SPAWNS = 100
SEEDS = 32


def main() -> int:
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    SCRATCH.mkdir(parents=True, exist_ok=True)

    start = time.perf_counter()
    best = kernel.sample()
    while time.perf_counter() - start < KERNEL_SECONDS:
        best = min(best, kernel.sample())
    env = dict(os.environ)
    spawn_best = min(kernel.spawn_sample(env) for _ in range(SPAWNS))

    seeds = sorted(set(range(SEEDS)) | {workloads.DEFAULT_SEED})
    digests: dict = {}
    counts: dict = {}
    for name in workloads.WORKLOADS:
        runs = seeds if workloads.seeded(name) else [workloads.DEFAULT_SEED]
        table = {}
        for seed in runs:
            result = worker.run_pass(name, seed, SCRATCH, best, best)
            if result["problems"]:
                raise SystemExit(f"{name} seed {seed}: {result['problems']}")
            table[str(seed)] = result["projection"]
        digests[name] = table if workloads.seeded(name) else table[
            str(workloads.DEFAULT_SEED)]
        tracer = Tracer()
        result = worker.run_pass(name, workloads.DEFAULT_SEED, SCRATCH, best,
                                 best, tracer)
        layers = worker.layer_metrics(tracer, result)
        counts[name] = {key: value for key, value in layers.items()
                        if isinstance(value, int)}
        print(f"{name}: {len(table)} digests, counts {counts[name]}")

    reference = {
        "default_seed": workloads.DEFAULT_SEED,
        "kernel": {
            "best_s": best,
            "size": kernel.SIZE, "sweeps": kernel.SWEEPS,
            "bareiss_n": kernel.BAREISS_N, "bareiss_reps": kernel.BAREISS_REPS,
            "samples": kernel.SAMPLES,
            "host": f"{os.cpu_count()} vCPU, {platform.machine()}, Python "
                    f"{platform.python_version()}, numpy {numpy.__version__}",
        },
        "spawn": {"best_s": spawn_best, "code": kernel.SPAWN_CODE},
        "digests": digests,
        "counts": counts,
    }
    (HERE / "reference.json").write_text(json.dumps(reference, indent=1)
                                         + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
