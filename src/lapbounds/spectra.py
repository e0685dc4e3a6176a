"""Laplacian spectra and spectral invariants.

The eigensolver is a Jacobi iteration in the round-robin parallel ordering of
Brent & Luk (1985), which applies each round's disjoint rotations as one numpy
operation, to one matrix or to a whole stack of matrices of one size at once;
Jacobi keeps small eigenvalues accurate relative to their size, which s_{-2}
needs (Demmel & Veselic 1992). Each matrix of a stack converges and leaves
the stack on its own, so its eigenvalues are bit-identical whatever it was
stacked with; spectra_of solves graphs of one vertex count as one stack, and
the CLI's check, sweep and fuzz group their graphs by n before they call it.
Zero eigenvalues are forced structurally: the graph's component count decides
the zero multiplicity, and the numerically smallest values are checked against
a sanity threshold before being replaced by exact zeros. Thresholding alone
never decides multiplicity.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import (DisconnectedGraphError, JacobiConvergenceError,
                     NoNonzeroEigenvaluesError, SpectralInconsistencyError)
from .graphs import Graph

JACOBI_MAX_SWEEPS = 64
JACOBI_REL_TOL = 1e-12
ZERO_SANITY_FACTOR = 1e-8
TRACE_REL_TOL = 1e-9


def laplacian(g: Graph) -> np.ndarray:
    """Integer Laplacian L = D - A.

    The endpoints are streamed into one flat index array: np.array on the
    edge tuple inspects each pair as a nested sequence, which takes about
    three times as long on K_64.
    """
    L = np.zeros((g.n, g.n), dtype=np.int64)
    if g.m:
        u, v = np.fromiter(itertools.chain.from_iterable(g.edges), np.intp,
                           2 * g.m).reshape(-1, 2).T
        L[u, v] = L[v, u] = -1
    np.fill_diagonal(L, -L.sum(axis=1))
    return L


def _round_robin(n: int, b: int = 1) -> tuple[np.ndarray, ...]:
    """Chess-tournament schedule for one parallel Jacobi sweep of a stack.

    Every pair p < q meets exactly once in n - 1 rounds (n rounds when n is
    odd: the pairing with the bye slot n is dropped, so one index sits out).
    The b matrices of size n are laid out as x[row, j, col] (see
    jacobi_eigenvalues), and round r's k = n // 2 disjoint pairs (P, Q) are
    applied to all of them. Row r of each of the four arrays describes round
    r, ordered (matrix, pair) within each block: cols holds the columns P
    then Q of the (n, b * n) view, rows the rows P then Q of the (n * b, n)
    view, diag the flat indices of a[P, P], a[Q, Q], a[P, Q] as three rows,
    and off those of a[P, Q] and a[Q, P]. For b = 1, cols and rows are the
    pairs P then Q themselves.
    """
    m = n + n % 2
    r = np.arange(m - 1)[:, None]
    i = np.arange(m // 2)
    u, v = (r + i) % (m - 1), (r - i) % (m - 1)
    v[:, 0] = m - 1  # r meets the last index; for odd n the bye, dropped
    if n % 2:
        u, v = u[:, 1:], v[:, 1:]
    rounds, k = u.shape
    # axes (round, P or Q, matrix, pair)
    pq = np.array((np.minimum(u, v), np.maximum(u, v))).transpose(1, 0, 2)
    pq, qp = pq[:, :, None], pq[:, ::-1, None]
    j = np.arange(b)[:, None]
    # the flat index of x[row, j, col] is row * b * n + j * n + col
    bn = b * n
    diag = np.concatenate((pq * (bn + 1), pq[:, :1] * bn + qp[:, :1]),
                          axis=1) + j * n
    return ((pq + j * n).reshape(rounds, -1), (pq * b + j).reshape(rounds, -1),
            diag.reshape(rounds, 3, b * k),
            (pq * bn + qp + j * n).reshape(rounds, -1))


def jacobi_eigenvalues(matrix: np.ndarray) -> np.ndarray:
    """Eigenvalues of a symmetric matrix, or of each matrix of a stack.

    matrix is one (n, n) matrix, giving an (n,) result, or a (B, n, n) stack,
    giving a (B, n) result whose row i holds the eigenvalues of matrix i, in
    the order of its final diagonal. A single matrix is a stack of one.

    The parallel ordering of Brent & Luk (1985): a sweep is a round-robin
    schedule of rounds of n // 2 disjoint (p, q) pairs, and each round applies
    its rotations, for every matrix of the stack at once, to the columns and
    then to the rows. The rotation zeroing a[p, q] has
    t = tan(theta) = sign(tau) / (|tau| + sqrt(1 + tau^2)),
    tau = (a[q, q] - a[p, p]) / (2 a[p, q]) (Golub & Van Loan, section 8.5),
    computed multiplied through by |a[p, q]| so that no intermediate
    overflows: t tends to 1 / (2 tau) for a tiny a[p, q], and a[p, q] == 0
    gives the identity rotation.

    Each matrix sweeps until its own off-diagonal Frobenius norm drops below
    JACOBI_REL_TOL times its own Frobenius norm (which rotations preserve),
    and then leaves the stack, never to be rotated again. The rotation
    arithmetic is elementwise, so a matrix's eigenvalues are bit-identical
    whatever it is stacked with. Raises JacobiConvergenceError when any
    matrix is still above its target after JACOBI_MAX_SWEEPS sweeps.
    """
    a = np.array(matrix, dtype=float)
    single = a.ndim == 2
    if single:
        a = a[None]
    if a.ndim != 3 or a.shape[1] != a.shape[2]:
        raise ValueError("matrix must be square")
    n = a.shape[1]
    out = np.zeros(a.shape[:2])
    ids = range(len(a))
    targets = [JACOBI_REL_TOL * float(np.linalg.norm(m)) for m in a]
    # row r of matrix j is x[r, j]: the columns of one pair across the stack
    # then sit side by side, and a stack of one is laid out as the matrix
    x = a.transpose(1, 0, 2).take(ids, axis=1)
    sign = np.array([[-1.0], [1.0]])
    b = 0
    for sweep in range(JACOBI_MAX_SWEEPS + 1):
        keep = []
        for j, i in enumerate(ids):
            m = x[:, j]
            if float(np.linalg.norm(m - np.diag(m.diagonal()))) <= targets[j]:
                out[i] = m.diagonal()
            else:
                keep.append(j)
        if not keep:
            return out[0] if single else out
        if sweep == JACOBI_MAX_SWEEPS:
            break
        if len(keep) < len(ids):  # converged matrices leave the stack
            x = x.take(keep, axis=1)
            ids = [ids[j] for j in keep]
            targets = [targets[j] for j in keep]
        if len(ids) != b:  # first sweep, or the stack shrank
            b = len(ids)
            cols_view, rows_view = x.reshape(n, b * n), x.reshape(n * b, n)
            flat = x.reshape(-1)
            schedule = list(zip(*_round_robin(n, b)))
        for cols_pq, rows_pq, diag, off in schedule:
            app, aqq, apq = flat.take(diag)
            half = aqq - app
            half *= 0.5
            den = np.hypot(half, apq)
            den += np.abs(half)
            # den == 0 only when apq == 0 too; den is then raised to the
            # smallest subnormal, so t = apq / den = +-0, the identity rotation
            np.maximum(den, 5e-324, out=den)
            t = apq / np.copysign(den, half, out=den)
            c = np.hypot(1.0, t)
            np.divide(1.0, c, out=c)
            t *= c
            s = sign * t
            cols = cols_view[:, cols_pq].reshape(n, 2, -1)
            new = cols * c
            new += cols[:, ::-1] * s
            cols_view[:, cols_pq] = new.reshape(n, -1)
            rows = rows_view.take(rows_pq, axis=0).reshape(2, -1, n)
            new = rows * c[:, None]
            new += rows[::-1] * s[:, :, None]
            rows_view[rows_pq] = new.reshape(-1, n)
            flat.put(off, 0.0)
    raise JacobiConvergenceError(
        f"off-diagonal norm above target after {JACOBI_MAX_SWEEPS} sweeps")


@dataclass(frozen=True)
class Spectrum:
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
    """Laplacian spectra of graphs of one vertex count, in order; one exact
    zero per component.

    The Laplacians are solved as one stack, in one jacobi_eigenvalues call.
    A graph's eigenvalues do not depend on the graphs it is stacked with.
    Raises ValueError when the graphs do not all have the same n.
    """
    if not graphs:
        return []
    if len({g.n for g in graphs}) > 1:
        raise ValueError("spectra_of solves graphs of one vertex count only")
    vals = jacobi_eigenvalues(np.stack([laplacian(g) for g in graphs]))
    return [_pin_zeros(sorted(v.tolist(), reverse=True), len(g.components),
                       2.0 * g.m)
            for g, v in zip(graphs, vals)]


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
    """Fraction-free determinant of an integer matrix (destructive).

    After step k, column k below the pivot is never read again, so it is not
    cleared.
    """
    n = len(a)
    if n == 0:
        return 1
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for r in range(k + 1, n):
                if a[r][k] != 0:
                    a[k], a[r] = a[r], a[k]
                    sign = -sign
                    break
            else:
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
    return sign * a[n - 1][n - 1]


def spanning_trees_exact(g: Graph) -> int:
    """Exact spanning-tree count: determinant of the reduced Laplacian.

    The reduced Laplacian (vertex 0's row and column removed) is built as
    Python ints straight from the degrees and edges, and its determinant is
    taken by Bareiss elimination; no floating point anywhere. A disconnected
    graph's reduced Laplacian is singular, so it gives exactly 0; n = 1 gives
    the empty determinant, 1.
    """
    reduced = [[0] * (g.n - 1) for _ in range(g.n - 1)]
    for i in range(1, g.n):
        reduced[i - 1][i - 1] = g.degree(i)
    for u, v in g.edges:
        if u:
            reduced[u - 1][v - 1] = reduced[v - 1][u - 1] = -1
    return _bareiss_determinant(reduced)


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


def spanning_trees_spectral(spec: Spectrum) -> float:
    """Spanning trees from the spectrum, as exp(log_spanning_trees(spec)).

    Floating-point route used to cross-check spanning_trees_exact; exp
    raises OverflowError once t leaves the float range (from K_145 on),
    where only the log is representable.
    """
    return math.exp(log_spanning_trees(spec))
