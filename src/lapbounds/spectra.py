"""Laplacian spectra and spectral invariants.

The eigensolver is a cyclic-by-row Jacobi iteration tuned for the small dense
symmetric matrices this package works with. Zero eigenvalues are forced
structurally: the graph's component count decides the zero multiplicity, and
the numerically smallest values are checked against a sanity threshold before
being replaced by exact zeros. Thresholding alone never decides multiplicity.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (DisconnectedGraphError, JacobiConvergenceError,
                     NoNonzeroEigenvaluesError, SpectralInconsistencyError)
from .graphs import Graph, connected_components

JACOBI_MAX_SWEEPS = 64
JACOBI_REL_TOL = 1e-12
ZERO_SANITY_FACTOR = 1e-8
TRACE_REL_TOL = 1e-9


def laplacian(g: Graph) -> np.ndarray:
    """Integer Laplacian L = D - A."""
    L = np.zeros((g.n, g.n), dtype=np.int64)
    for u, v in g.edges:
        L[u, u] += 1
        L[v, v] += 1
        L[u, v] -= 1
        L[v, u] -= 1
    return L


def jacobi_eigenvalues(matrix: np.ndarray) -> np.ndarray:
    """Eigenvalues of a symmetric matrix by cyclic-by-row Jacobi rotations.

    Sweeps until the off-diagonal Frobenius norm drops below
    JACOBI_REL_TOL times the matrix Frobenius norm (which rotations preserve),
    raising JacobiConvergenceError after JACOBI_MAX_SWEEPS sweeps.
    """
    a = np.array(matrix, dtype=float)
    n = a.shape[0]
    if a.shape != (n, n):
        raise ValueError("matrix must be square")
    if n == 1:
        return a.diagonal().copy()
    total = float(np.linalg.norm(a))
    if total == 0.0:
        return np.zeros(n)
    target = JACOBI_REL_TOL * total

    def off_norm() -> float:
        return float(np.linalg.norm(a - np.diag(a.diagonal())))

    for _ in range(JACOBI_MAX_SWEEPS):
        if off_norm() <= target:
            return a.diagonal().copy()
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[p, q]
                if apq == 0.0:
                    continue
                tau = (a[q, q] - a[p, p]) / (2.0 * apq)
                if tau >= 0.0:
                    t = 1.0 / (tau + math.sqrt(1.0 + tau * tau))
                else:
                    t = 1.0 / (tau - math.sqrt(1.0 + tau * tau))
                c = 1.0 / math.sqrt(1.0 + t * t)
                s = t * c
                col_p = a[:, p].copy()
                col_q = a[:, q].copy()
                a[:, p] = c * col_p - s * col_q
                a[:, q] = s * col_p + c * col_q
                row_p = a[p, :].copy()
                row_q = a[q, :].copy()
                a[p, :] = c * row_p - s * row_q
                a[q, :] = s * row_p + c * row_q
                a[p, q] = a[q, p] = 0.0
    if off_norm() <= target:
        return a.diagonal().copy()
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
    mu = tuple(float(v) for v in head) + (0.0,) * cc
    if abs(sum(mu) - two_m) > TRACE_REL_TOL * max(1.0, two_m):
        raise SpectralInconsistencyError(
            f"eigenvalue sum {sum(mu)} does not match 2m = {two_m}")
    return Spectrum(mu=mu, h=n - cc, component_count=cc)


def spectrum(g: Graph) -> Spectrum:
    """Laplacian spectrum of g; one exact zero per connected component."""
    vals = sorted(jacobi_eigenvalues(laplacian(g)), reverse=True)
    return _pin_zeros(vals, len(connected_components(g)), 2.0 * g.m)


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
    """Fraction-free determinant of an integer matrix (destructive)."""
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
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def spanning_trees_exact(g: Graph) -> int:
    """Exact spanning-tree count: determinant of the reduced Laplacian.

    Bareiss elimination over Python ints; no floating point anywhere.
    Disconnected graphs return 0 without error.
    """
    if len(connected_components(g)) != 1:
        return 0
    if g.n == 1:
        return 1
    L = laplacian(g)
    reduced = [[int(L[i, j]) for j in range(1, g.n)] for i in range(1, g.n)]
    return _bareiss_determinant(reduced)


def spanning_trees_spectral(spec: Spectrum) -> float:
    """Spanning trees from the spectrum: product of non-zero mu over n.

    Floating-point route used to cross-check spanning_trees_exact; requires a
    connected spectrum.
    """
    if spec.component_count != 1:
        raise DisconnectedGraphError(
            "spectral spanning-tree count needs a connected spectrum")
    prod = 1.0
    for v in spec.mu[:spec.h]:
        prod *= v
    return prod / spec.n
