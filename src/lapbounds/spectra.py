"""Laplacian spectra and spectral invariants.

The eigensolver is a Jacobi iteration in the round-robin parallel ordering of
Brent & Luk (1985), applied to one matrix or to a whole stack of matrices of
one size at once; Jacobi keeps small eigenvalues accurate relative to their
size, which s_{-2} needs (Demmel & Veselic 1992). A solve is one call of
jacobi_solve in _jacobi.c, compiled with -O3 on the first solve into this
package's __pycache__: it fills a 64-byte aligned stack of its own from the
graphs' neighbour masks, sweeps it, and retires each matrix as it converges.
It sums its convergence tests left to right, with no BLAS, and each matrix
leaves the stack on its own, so its eigenvalues are bit-identical whatever
it was stacked with; spectra_of takes graphs of any vertex counts and solves
one stack per n. Its rotations take hypot by glibc's algorithm (2.35 and
later), inlined, on every pair in that algorithm's common range, whatever
the host's libm; only the pairs outside it call the libm's hypot.
Where the library cannot be built, the first solve raises SolverBuildError.
Zero eigenvalues are forced structurally: the graph's component count decides
the zero multiplicity, and the numerically smallest values are checked against
a sanity threshold before being replaced by exact zeros. Thresholding alone
never decides multiplicity.
"""
from __future__ import annotations

import math
import os
from array import array
from itertools import chain
from pathlib import Path
from typing import NamedTuple, Optional, Sequence

from .errors import (DisconnectedGraphError, JacobiConvergenceError,
                     NoNonzeroEigenvaluesError, SolverBuildError,
                     SpectralInconsistencyError)
from .graphs import Graph

JACOBI_MAX_SWEEPS = 64
JACOBI_REL_TOL = 1e-12
ZERO_SANITY_FACTOR = 1e-8
TRACE_REL_TOL = 1e-9


class _Laplacians:
    """The Laplacians of graphs that all have n vertices, held as the packed
    neighbour-mask rows (ceil(n / 8) little-endian bytes each) that
    jacobi_solve fills its stack from, as laplacian fills its rows: -1 where
    a mask bit is set, each mask's popcount on the diagonal."""

    def __init__(self, graphs: Sequence[Graph]):
        self.n, self.count = graphs[0].n, len(graphs)
        width = (self.n + 7) // 8
        self.rows = b"".join(mask.to_bytes(width, "little")
                             for g in graphs for mask in g.masks)


def laplacian(g: Graph) -> list[list[int]]:
    """Integer Laplacian L = D - A, as n rows of ints: -1 where bit j of
    g.masks[i] is set, and the popcount of g.masks[i] on the diagonal."""
    rows = [[-(mask >> j & 1) for j in range(g.n)] for mask in g.masks]
    for i, (row, mask) in enumerate(zip(rows, g.masks)):
        row[i] = mask.bit_count()
    return rows


_CFLAGS = ("-O3", "-fno-fast-math", "-ffp-contract=off", "-fno-math-errno",
           "-shared", "-fPIC")


def _load_library():
    """_jacobi.c's library, with the argument types of jacobi_solve and
    gnp_rows set. Raises SolverBuildError, naming the compiler command and
    what went wrong (its stderr, for a compiler error), when the library
    cannot be built or loaded.

    The library is built once, with sysconfig's CC, into this package's own
    __pycache__ as _jacobi-<sha256 of source, compiler and flags>.so, and
    loaded only from there. It is compiled to a fresh mkstemp name in that
    directory and moved into place with os.replace, so processes that build
    at once each load a complete library. A cached library that cannot be
    loaded (a damaged file) is built again, once. A build then unlinks the
    libraries of every other key (a process that loaded one keeps it
    mapped), so the cache holds one library. The library picks its AVX2 body
    itself, where the CPU it runs on has AVX2, so a checkout shared between
    hosts stays safe.
    """
    # imported here, so that importing the package pays for none of them;
    # only a build imports subprocess and tempfile
    import ctypes
    import hashlib
    import shlex
    import sysconfig

    source = Path(__file__).with_name("_jacobi.c")
    cache = source.with_name("__pycache__")
    command = [*shlex.split(sysconfig.get_config_var("CC") or "cc"), *_CFLAGS]

    def failed(reason) -> SolverBuildError:
        return SolverBuildError("cannot build or load the Jacobi solver "
                                f"with {shlex.join(command)}: {reason}")

    try:
        key = hashlib.sha256(source.read_bytes()
                             + "\0".join(command).encode()).hexdigest()
        library = cache / f"_jacobi-{key}.so"
        try:
            lib = ctypes.CDLL(str(library))
        except OSError:  # not built yet, or damaged: build it, once
            import contextlib
            import subprocess
            import tempfile
            cache.mkdir(exist_ok=True)
            fd, tmp = tempfile.mkstemp(prefix="_jacobi-", suffix=".tmp",
                                       dir=cache)
            os.close(fd)
            try:
                try:
                    done = subprocess.run(
                        [*command, "-o", tmp, str(source)],
                        stdin=subprocess.DEVNULL, capture_output=True,
                        text=True, errors="replace", timeout=120)
                except subprocess.TimeoutExpired as exc:
                    raise failed(exc) from exc
                if done.returncode:
                    raise failed(f"exit status {done.returncode}\n"
                                 f"{done.stderr.rstrip()}")
                os.replace(tmp, library)
                for stale in cache.glob("_jacobi-*.so"):
                    if stale != library:
                        with contextlib.suppress(OSError):
                            stale.unlink()
            finally:
                if os.path.exists(tmp):
                    os.unlink(tmp)
            lib = ctypes.CDLL(str(library))
    except OSError as exc:
        raise failed(exc) from exc
    size, ptr = ctypes.c_ssize_t, ctypes.c_void_p
    lib.jacobi_solve.argtypes = (ptr, size, size, ctypes.c_char_p, size,
                                 ctypes.c_double, ptr, ptr)
    lib.jacobi_solve.restype = size
    lib.gnp_rows.argtypes = (ctypes.c_uint64, size, ctypes.c_double, ptr)
    lib.gnp_rows.restype = None
    return lib


# The library, once _load_library() has returned it; the first solve or
# G(n, p) draw loads it, not the import.
_lib = None


def _library():
    """The compiled library, built or loaded on the first call."""
    global _lib
    if _lib is None:
        _lib = _load_library()
    return _lib


def _solve(a: Optional[array], b: int, n: int,
           laplacians: Optional[_Laplacians] = None) -> tuple[array, array]:
    """The final diagonals of the b matrices of order n, read from the
    doubles of a or, with a None, filled from laplacians, and the sweeps
    each matrix took: one jacobi_solve, which solves on a stack of its own
    and leaves a as it was. Raises JacobiConvergenceError when the solve
    fails, and SolverBuildError when the library cannot be built."""
    if laplacians is None and (a is None or a.typecode != "d"
                               or len(a) != b * n * n):
        raise ValueError("the stack must hold b * n * n doubles")
    values, sweeps = array("d", [0.0]) * (b * n), array("i", [0]) * b
    code = _library().jacobi_solve(
        None if a is None else a.buffer_info()[0], b, n,
        laplacians and laplacians.rows, JACOBI_MAX_SWEEPS, JACOBI_REL_TOL,
        values.buffer_info()[0], sweeps.buffer_info()[0])
    if code == -1:
        raise MemoryError("no memory for the Jacobi solve")
    if code:
        raise JacobiConvergenceError(
            "matrix has a non-finite entry" if code == -2 else
            "matrix norm overflows" if code == -3 else
            f"off-diagonal norm above target after {JACOBI_MAX_SWEEPS} sweeps")
    return values, sweeps


def jacobi_eigenvalues(matrix):
    """Eigenvalues of a symmetric matrix, or of each Laplacian of a stack.

    matrix is either the _Laplacians stack that spectra_of passes, giving a
    list of B array('d') rows, row i holding the eigenvalues of Laplacian i,
    or one square matrix given as its n rows (lists of numbers, laplacian(g)
    or a 2-D numpy array, read by iteration), giving an array('d') of n. Each
    holds its matrix's final diagonal, in order. A matrix whose rows are not
    all n long raises ValueError.

    The parallel ordering of Brent & Luk (1985): a sweep is a round-robin
    schedule of rounds of n // 2 disjoint (p, q) pairs, and each round applies
    its rotations to the columns and then to the rows. The rotation zeroing
    a[p, q] has t = tan(theta) = sign(tau) / (|tau| + sqrt(1 + tau^2)),
    tau = (a[q, q] - a[p, p]) / (2 a[p, q]) (Golub & Van Loan, section 8.5),
    computed multiplied through by |a[p, q]| so that no intermediate
    overflows: t tends to 1 / (2 tau) for a tiny a[p, q], and a[p, q] == 0
    gives the identity rotation. The solve is one call of the compiled
    _jacobi.c, built on the first solve; SolverBuildError is raised when it
    cannot be built.

    Each matrix sweeps until its own off-diagonal Frobenius norm drops below
    JACOBI_REL_TOL times its own Frobenius norm (which rotations preserve),
    both summed left to right, and then leaves the stack, never to be
    rotated again. The rotations act on each matrix alone, so a matrix's
    eigenvalues are bit-identical whatever it is stacked with. Raises
    JacobiConvergenceError when any matrix is still above its target after
    JACOBI_MAX_SWEEPS sweeps, and before the first sweep when any entry is
    NaN or infinite or any matrix's Frobenius norm overflows (entries beyond
    about 1e154): an infinite target would pass the unrotated diagonal off
    as converged. Neither raises a RuntimeWarning, only the error. matrix is
    never written: the solve fills a 64-byte aligned stack of its own.
    """
    if isinstance(matrix, _Laplacians):
        b, n = matrix.count, matrix.n
        values = _solve(None, b, n, matrix)[0]
        return [values[i * n:i * n + n] for i in range(b)]
    rows = list(matrix)
    n = len(rows)
    if any(len(row) != n for row in rows):
        raise ValueError("matrix must be square")
    return _solve(array("d", chain.from_iterable(rows)), 1, n)[0]


class Spectrum(NamedTuple):
    """Laplacian eigenvalues sorted non-increasing, with structural zeros."""

    mu: tuple[float, ...]
    h: int
    component_count: int

    @property
    def n(self) -> int:
        return len(self.mu)


def _pin_zeros(vals: list[float], cc: int, two_m: float) -> Spectrum:
    """Spectrum from non-increasing eigenvalues with cc structural zeros.

    The cc smallest values must sit below ZERO_SANITY_FACTOR times
    max(1, mu_1) and the others above it, or the result is rejected as
    inconsistent; they are then replaced by exact zeros. The eigenvalue sum
    is checked against two_m.
    """
    n = len(vals)
    scale = max(1.0, vals[0])
    threshold = ZERO_SANITY_FACTOR * scale
    head, tail = vals[:n - cc], vals[n - cc:]
    for v in tail:
        if abs(v) >= threshold:
            raise SpectralInconsistencyError(
                f"eigenvalue {v} should be a structural zero "
                f"(components={cc}) but exceeds {threshold}")
    for v in head:
        if v < threshold:
            raise SpectralInconsistencyError(
                f"eigenvalue {v} is too small for a non-zero eigenvalue "
                f"(components={cc})")
    mu = tuple(head) + (0.0,) * cc
    if abs(sum(mu) - two_m) > TRACE_REL_TOL * max(1.0, two_m):
        raise SpectralInconsistencyError(
            f"eigenvalue sum {sum(mu)} does not match 2m = {two_m}")
    return Spectrum(mu=mu, h=n - cc, component_count=cc)


def spectra_of(graphs: Sequence[Graph]) -> list[Spectrum]:
    """Laplacian spectra of graphs of any vertex counts, in order; one exact
    zero per component.

    The graphs of each vertex count are solved as one stack, in one
    jacobi_eigenvalues call, the counts in the order they first appear. A
    graph's eigenvalues do not depend on the graphs it is stacked with.
    """
    stacks: dict[int, list[int]] = {}  # the graphs' positions, by n
    for i, g in enumerate(graphs):
        stacks.setdefault(g.n, []).append(i)
    out: list = [None] * len(graphs)
    for positions in stacks.values():
        stack = [graphs[i] for i in positions]
        vals = jacobi_eigenvalues(_Laplacians(stack))
        for i, g, v in zip(positions, stack, vals):
            out[i] = _pin_zeros(sorted(v, reverse=True), len(g.components),
                                2.0 * g.m)
    return out


def spectrum(g: Graph) -> Spectrum:
    """Laplacian spectrum of g; one exact zero per connected component."""
    return spectra_of([g])[0]


def complement_spectrum(spec: Spectrum, m: int,
                        complement_component_count: int) -> Spectrum:
    """Laplacian spectrum of the complement of a graph with spectrum spec.

    m is the graph's edge count. Uses mu_i(complement) = n - mu_{n-i}(G) for
    i < n plus one zero; the zero multiplicity is the complement's component
    count, never read off the values near n.
    """
    n = spec.n
    vals = sorted([n - v for v in spec.mu[:-1]] + [0.0], reverse=True)
    return _pin_zeros(vals, complement_component_count,
                      float(n * (n - 1) - 2 * m))


def s_alpha(spec: Spectrum, alpha: float) -> float:
    """Sum of the h non-zero eigenvalues raised to alpha.

    Only non-zero eigenvalues enter, for every alpha; s_0 is the count h.
    Raises NoNonzeroEigenvaluesError when h = 0 and alpha <= 0.
    """
    if not math.isfinite(alpha):
        raise ValueError("alpha must be finite")
    if alpha <= 0 and spec.h == 0:
        raise NoNonzeroEigenvaluesError(
            "graph has no non-zero Laplacian eigenvalues")
    if alpha == 0:
        return float(spec.h)
    return float(sum(v ** alpha for v in spec.mu[:spec.h]))


def moment(spec: Spectrum, k: int) -> float:
    """k-th spectral moment over all n eigenvalues; t_0 = n."""
    if not isinstance(k, int) or k < 0:
        raise ValueError(f"k must be a non-negative integer, got {k!r}")
    if k == 0:
        return float(spec.n)
    return s_alpha(spec, k)


def kirchhoff(spec: Spectrum) -> float:
    """Kirchhoff index n * s_{-1}; requires a connected spectrum."""
    if spec.component_count != 1:
        raise DisconnectedGraphError("Kirchhoff index needs a connected graph")
    if spec.n == 1:
        return 0.0
    return spec.n * s_alpha(spec, -1.0)


def lee(spec: Spectrum) -> float:
    """Laplacian Estrada index: sum of e^{mu_i} over all n eigenvalues."""
    return float(sum(math.exp(v) for v in spec.mu))


def _bareiss_determinant(a: list[list[int]]) -> int:
    """Fraction-free determinant of a positive semidefinite integer matrix,
    such as a reduced Laplacian (destructive).

    Without row swaps, pivot k is the leading (k+1)-by-(k+1) minor. When it
    is 0, that leading block B has a nonzero x with B x = 0; padded with
    zeros to y, x gives y^T A y = x^T B x = 0, which for a positive
    semidefinite A means A y = 0. So a zero pivot means det = 0, and no row
    swap is ever needed. After step k, column k below the pivot is never
    read again, so it is not cleared.
    """
    n = len(a)
    if n == 0:
        return 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            return 0
        pivot_row = a[k]
        pivot = pivot_row[k]
        pivot_tail = pivot_row[k + 1:]
        for i in range(k + 1, n):
            row = a[i]
            lead = row[k]
            row[k + 1:] = [(x * pivot - lead * y) // prev
                           for x, y in zip(row[k + 1:], pivot_tail)]
        prev = pivot
    return a[n - 1][n - 1]


def spanning_trees_exact(g: Graph) -> int:
    """Exact spanning-tree count: determinant of the reduced Laplacian.

    The reduced Laplacian (vertex 0's row and column removed) is cut from
    laplacian(g), Python ints, and its determinant taken by Bareiss
    elimination; no floating point anywhere. A disconnected graph's reduced
    Laplacian is singular, so it gives exactly 0; n = 1 gives the empty
    determinant, 1.
    """
    return _bareiss_determinant([row[1:] for row in laplacian(g)[1:]])


def log_spanning_trees(spec: Spectrum) -> float:
    """Natural log of the spanning-tree count, from the spectrum.

    Matrix-tree theorem: t = (product of the h non-zero mu) / n, summed in
    the log domain with fsum so it neither overflows nor loses digits for
    large n. Requires a connected spectrum.
    """
    if spec.component_count != 1:
        raise DisconnectedGraphError(
            "spectral spanning-tree count needs a connected spectrum")
    return math.fsum(math.log(v) for v in spec.mu[:spec.h]) - math.log(spec.n)
