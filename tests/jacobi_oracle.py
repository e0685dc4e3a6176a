"""The compiled library's Jacobi solve and G(n, p) coin block, written again
in numpy and plain Python: the oracle that _jacobi.c is tested against.

ORACLE stands in for the library that spectra._library() returns, with the
signatures of its jacobi_solve and gnp_rows, so a test puts it in
spectra._lib to run every solve and draw through the oracle; solve_stack
solves a (b, n, n) numpy stack with whichever of the two spectra._lib
holds. numpy_solve and
numpy_sweep do the same IEEE operations on each entry in the same order as
jacobi_solve and jacobi_sweep, and sum their convergence tests left to
right, with no BLAS, so the two give the same bits and retire each matrix
after the same sweep. gnp_rows draws one uniform() per pair, in u-major
order, where the library draws the block at once.
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
    disjoint pairs (P, Q): all P, then all Q. _jacobi.c builds the same
    schedule from the same formula.
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


def numpy_sweep(a, pq):
    """One sweep of every matrix of the contiguous (b, n, n) stack a, in place.

    One matrix at a time, each round in numpy: the rotation coefficients of
    all k pairs, then the P and Q columns, then the P and Q rows, then
    a[P, Q] = a[Q, P] = 0. This is numpy_solve's sweep, and the reference
    that _jacobi.c's jacobi_sweep is tested against bit for bit, its AVX2
    body and its portable one, on the round-robin schedule and on any other
    pq of disjoint pairs. The compiled sweep visits the entries in another
    order, the columns one run of pairs at a time (a stretch of pairs of
    adjacent columns, or a lone pair), but each entry goes through the same
    operations on the same operands.
    """
    n = a.shape[1]
    k = pq.shape[1] // 2
    sign = np.array([[-1.0], [1.0]])
    for m in a:
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


def laplacian_stack(rows, b, n):
    """The (b, n, n) Laplacians of b graphs' packed neighbour-mask rows,
    ceil(n / 8) little-endian bytes each, as int64: -1 where a bit is set,
    each row's popcount on the diagonal."""
    bits = np.unpackbits(np.frombuffer(rows, np.uint8).reshape(
        b * n, (n + 7) // 8), axis=1, bitorder="little")[:, :n]
    L = -bits.astype(np.int64).reshape(b, n, n)
    L[:, range(n), range(n)] = bits.sum(axis=1).reshape(b, n)
    return L


def numpy_solve(x, rows, max_sweeps, rel_tol, values, sweeps):
    """jacobi_solve on the (b, n, n) stack x, in numpy: x filled from rows
    when they are given, the final diagonals written to the (b, n) values
    and each matrix's exit sweep to sweeps, and jacobi_solve's return
    value: 0, -2 for a non-finite entry, -3 for an overflowing norm, or the
    number of matrices that did not converge, whose sweeps read -1."""
    b, n = x.shape[:2]
    if rows is not None:
        x[...] = laplacian_stack(rows, b, n)
    if not np.isfinite(x).all():
        return -2
    targets = [rel_tol * math.sqrt(_sum_squares(m.ravel().tolist()))
               for m in x]
    if not all(map(math.isfinite, targets)):
        return -3
    ids = list(range(b))
    pq = None
    for sweep in range(max_sweeps + 1):
        keep = []
        for j, m in enumerate(x):
            off = m.flatten()
            off[::n + 1] = 0.0
            if math.sqrt(_sum_squares(off.tolist())) <= targets[j]:
                values[ids[j]] = m.diagonal()
                sweeps[ids[j]] = sweep
            else:
                keep.append(j)
        if not keep:
            return 0
        if sweep == max_sweeps:
            break
        if len(keep) < len(x):  # converged matrices leave the stack
            x = x[keep]
            ids = [ids[j] for j in keep]
            targets = [targets[j] for j in keep]
        if pq is None:
            pq = round_robin(n)
        numpy_sweep(x, pq)
    for i in ids:
        sweeps[i] = -1
    return len(ids)


def _at(address, ctype, count):
    """The count ctype values at address, as a writable numpy array."""
    return np.frombuffer((ctype * count).from_address(address),
                         np.dtype(ctype))


class _Library:
    """The oracle in the library's place: its two functions take the
    arguments that spectra and families pass the compiled ones."""

    @staticmethod
    def jacobi_solve(a, b, n, rows, max_sweeps, rel_tol, values, sweeps):
        # like the library, it solves a copy: a is read only, None with rows
        x = (np.empty((b, n, n)) if a is None else
             _at(a, ctypes.c_double, b * n * n).reshape(b, n, n).copy())
        out = _at(values, ctypes.c_double, b * n).reshape(b, n)
        return numpy_solve(x, rows, max_sweeps, rel_tol, out,
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
    values = spectra._solve(array("d", a.astype(float).tobytes()), b, n)[0]
    return np.array(values).reshape(b, n)
