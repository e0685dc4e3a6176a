"""The compiled library's Jacobi solve and G(n, p) coin block, written again
in numpy and plain Python: the oracle that _jacobi.c is tested against.

ORACLE stands in for the library that spectra._library() returns, with the
signatures of its jacobi_solve and gnp_rows, so a test puts it in
spectra._lib to run every solve and draw through the oracle; solve_stack
solves a (b, n, n) numpy stack with whichever of the two spectra._lib
holds. numpy_solve and numpy_sweep do the same IEEE operations on each
entry in the same order as jacobi_solve and its sweep, one matrix at a
time, and sum their convergence tests left to right, with no BLAS, so the
two give the same bits and stop each matrix after the same sweep. gnp_rows
draws one uniform() per pair, in u-major order, where the library draws the
block at once.
"""
import ctypes
import math
from array import array
from functools import reduce
from operator import add, mul

import numpy as np

from lapbounds import spectra
from lapbounds.rng import SplitMix64


def round_robin(n):
    """Chess-tournament schedule for one parallel Jacobi sweep.

    Every pair p < q meets exactly once in n - 1 rounds (n rounds when n is
    odd: the pairing with the bye slot n is dropped, so one index sits out).
    Row r of the (rounds, 2k) np.intp result holds round r's k = n // 2
    disjoint pairs (P, Q): all P, then all Q. _jacobi.c's round_robin holds
    the same pairs in each round, in another order, so that each round's
    columns walk in at most three runs.
    """
    m = n + n % 2
    r = np.arange(m - 1)[:, None]
    i = np.arange(m // 2)
    u, v = (r + i) % (m - 1), (r - i) % (m - 1)
    v[:, 0] = m - 1  # r meets the last index; for odd n the bye, dropped
    if n % 2:
        u, v = u[:, 1:], v[:, 1:]
    return np.concatenate((np.minimum(u, v), np.maximum(u, v)),
                          axis=1).astype(np.intp)


def numpy_sweep(m, pq):
    """One sweep of the contiguous (n, n) matrix m, in place.

    Each round in numpy: the rotation coefficients of all k pairs, then the
    P and Q columns, then the P and Q rows, then m[P, Q] = m[Q, P] = 0. This
    is numpy_solve's sweep, and the reference that _jacobi.c's static sweep
    is tested against bit for bit, its AVX2 body and its portable one,
    through a test program that includes _jacobi.c, on the round-robin
    schedule and on any other pq of disjoint pairs. The
    compiled sweep visits the entries in another order, the columns one run
    of pairs at a time (a stretch of pairs of adjacent columns, or a lone
    pair), but each entry goes through the same operations on the same
    operands.
    """
    n = len(m)
    k = pq.shape[1] // 2
    sign = np.array([[-1.0], [1.0]])
    for pair in pq:
        p, q = pair[:k], pair[k:]
        app, aqq, apq = m[p, p], m[q, q], m[p, q]
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
        cols = m[:, pair].reshape(n, 2, k)
        new = cols * c
        new += cols[:, ::-1] * s
        m[:, pair] = new.reshape(n, 2 * k)
        rows = m.take(pair, axis=0).reshape(2, k, n)
        new = rows * c[:, None]
        new += rows[::-1] * s[:, :, None]
        m[pair] = new.reshape(2 * k, n)
        m[p, q] = m[q, p] = 0.0


def _sum_squares(xs):
    """The squares of xs summed left to right, as _jacobi.c sums them."""
    return reduce(add, map(mul, xs, xs), 0.0)


def laplacians(rows, ns):
    """The Laplacians of graphs of orders ns from their packed neighbour-mask
    rows, ceil(n / 8) little-endian bytes each, one after another, as
    (n, n) float arrays: -1 where a bit is set, each row's popcount on the
    diagonal."""
    out, at = [], 0
    for n in ns:
        width = (n + 7) // 8
        bits = np.unpackbits(np.frombuffer(rows, np.uint8, n * width, at)
                             .reshape(n, width), axis=1,
                             bitorder="little")[:, :n]
        L = -bits.astype(float)
        L[range(n), range(n)] = bits.sum(axis=1)
        out.append(L)
        at += n * width
    return out


def numpy_solve(matrices, max_sweeps, rel_tol, values, sweeps):
    """jacobi_solve on the square float arrays of matrices, in numpy, one
    after another and each in place: its final diagonal written to values,
    after those of the matrices before it, and its exit sweep to sweeps.
    Returns jacobi_solve's value: the number of matrices that did not
    converge, whose sweeps read -1, or before a matrix is swept, -2 when it
    has a non-finite entry and -3 when its norm overflows."""
    failed, at = 0, 0
    for j, m in enumerate(matrices):
        n = len(m)
        target = rel_tol * math.sqrt(_sum_squares(m.ravel().tolist()))
        if not math.isfinite(target):
            return -3 if np.isfinite(m).all() else -2
        for sweep in range(max_sweeps + 1):
            off = m.flatten()
            off[::n + 1] = 0.0
            if math.sqrt(_sum_squares(off.tolist())) <= target:
                break
            if sweep == max_sweeps:
                sweep = -1
                break
            numpy_sweep(m, round_robin(n))
        values[at:at + n] = m.diagonal()
        at += n
        sweeps[j] = sweep
        failed += sweep < 0
    return failed


def _at(address, ctype, count):
    """The count ctype values at address, as a writable numpy array."""
    return np.frombuffer((ctype * count).from_address(address),
                         np.dtype(ctype))


class _Library:
    """The oracle in the library's place: its two functions take the
    arguments that spectra and families pass the compiled ones."""

    @staticmethod
    def jacobi_solve(a, b, ns, rows, max_sweeps, rel_tol, values, sweeps):
        if b == 0:
            return 0
        ns = _at(ns, ctypes.c_int, b).tolist()
        if rows is None:  # like the library, it solves copies: a is read only
            flat = _at(a, ctypes.c_double, sum(n * n for n in ns))
            ends = np.cumsum([n * n for n in ns])
            matrices = [m.reshape(n, n).copy() for n, m in
                        zip(ns, np.split(flat, ends[:-1]))]
        else:
            matrices = laplacians(rows, ns)
        return numpy_solve(matrices, max_sweeps, rel_tol,
                           _at(values, ctypes.c_double, sum(ns)),
                           _at(sweeps, ctypes.c_int, b))

    @staticmethod
    def gnp_rows(state, n, p, rows):
        width = (n + 7) // 8
        out = _at(rows, ctypes.c_uint8, n * width)
        out[:] = 0
        rng = SplitMix64(state)
        for u in range(n):
            for v in range(u + 1, n):
                if rng.uniform() < p:
                    out[u * width + v // 8] |= 1 << v % 8
                    out[v * width + u // 8] |= 1 << u % 8


ORACLE = _Library()


def solve_stack(a):
    """The eigenvalues of each matrix of the (b, n, n) stack a, as a (b, n)
    array whose row i holds those of a[i] in the order of its final
    diagonal: one spectra._solve of a's doubles in C order, on the library
    or on ORACLE, whichever spectra._lib holds. Raises ValueError when a is
    not a stack of square matrices."""
    if a.ndim != 3 or a.shape[1] != a.shape[2]:
        raise ValueError("not a stack of square matrices")
    b, n = a.shape[:2]
    values = spectra._solve(array("d", a.astype(float).tobytes()),
                            [n] * b)[0]
    return np.array(values).reshape(b, n)
