"""Reference work whose time says how fast the host runs right now.

The host this benchmark was built on runs fixed work at about 1.1x or about
2.1x its best speed, in phases from under a second to tens of seconds, and
the guest cannot see which phase it is in. So the benchmark times fixed
reference work next to the program's work and scales the program's time by
``best_s / measured``, where ``best_s`` is the reference's best time recorded
in ``reference.json``:

* ``sample()``: a compute kernel shaped like the harness's hot paths, for
  the CLI calls;
* ``spawn_sample()``: an interpreter spawn that imports a fixed set of
  standard-library modules, for set-up. Set-up is process creation and
  module loading, which slows less than compute in a slow phase, so the
  compute kernel over-corrects it.
"""
from __future__ import annotations

import math
import statistics
import subprocess
import sys
import time

import numpy as np

SIZE = 16
SWEEPS = 4
BAREISS_N = 24
BAREISS_REPS = 2
SAMPLES = 3


def _bareiss_tree_count(n: int) -> int:
    """Fraction-free elimination of K_n's reduced Laplacian: n^(n-2)."""
    a = [[n - 1 if i == j else -1 for j in range(n - 1)] for i in range(n - 1)]
    prev = 1
    for k in range(n - 2):
        for i in range(k + 1, n - 1):
            for j in range(k + 1, n - 1):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return a[n - 2][n - 2]


def kernel() -> float:
    """Small numpy row/column rotations in a Python loop, then big-integer
    Bareiss steps: the two kinds of work the harness spends its time on."""
    a = np.arange(SIZE * SIZE, dtype=float).reshape(SIZE, SIZE) / (SIZE * SIZE)
    a = a + a.T
    c, s = math.cos(0.3), math.sin(0.3)
    for _ in range(SWEEPS):
        for p in range(SIZE - 1):
            for q in range(p + 1, SIZE):
                col_p = a[:, p].copy()
                col_q = a[:, q].copy()
                a[:, p] = c * col_p - s * col_q
                a[:, q] = s * col_p + c * col_q
                row_p = a[p, :].copy()
                row_q = a[q, :].copy()
                a[p, :] = c * row_p - s * row_q
                a[q, :] = s * row_p + c * row_q
    for _ in range(BAREISS_REPS):
        _bareiss_tree_count(BAREISS_N)
    return float(a.sum())


def sample() -> float:
    """Median seconds of SAMPLES kernel calls: the host's current speed."""
    times = []
    for _ in range(SAMPLES):
        t0 = time.perf_counter()
        kernel()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


SPAWN_CODE = ("import sys, argparse, csv, dataclasses, decimal, fractions, "
              "json, typing; sys.stdout.write('ready\\n'); sys.stdout.flush()")


def time_spawn(argv: list[str], env: dict[str, str]) -> float:
    """Seconds from spawning argv until it writes its 'ready' line."""
    t0 = time.perf_counter()
    with subprocess.Popen(argv, env=env, stdout=subprocess.PIPE) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        proc.stdout.read()
    if proc.returncode != 0 or line != b"ready\n":
        raise RuntimeError(f"{argv} exited with {proc.returncode}")
    return elapsed


def spawn_sample(env: dict[str, str]) -> float:
    """Time of one reference spawn (no site packages, fixed stdlib imports)."""
    return time_spawn([sys.executable, "-S", "-c", SPAWN_CODE], env)
