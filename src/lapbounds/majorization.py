"""Majorization checks and the degree-sequence comparisons built on them.

Conventions: sequences are non-increasing reals; x is majorized by y when
every prefix sum of x is at most the matching prefix sum of y and the totals
agree. Prefix comparisons use an absolute tolerance, the total comparison a
relative one, so integer degree sequences and floating spectra mix safely.
"""
from __future__ import annotations

from itertools import accumulate
from operator import ge, lt
from typing import NamedTuple, Optional, Sequence

from .errors import (BadPinchError, DisconnectedGraphError,
                     DomainViolationError, LengthMismatchError,
                     NotSortedError, SequenceTooShortError)
from .graphs import conjugate_sequence
from .spectra import Spectrum

PREFIX_TOL = 1e-9
SUM_REL_TOL = 1e-9


class MajorizationVerdict(NamedTuple):
    """Outcome of one majorization comparison.

    first_failing_prefix is the 1-based index of the first prefix where the
    left side exceeds the right, or None when every prefix passes.
    """

    holds: bool
    first_failing_prefix: Optional[int]
    prefix_sums_x: tuple[float, ...]
    prefix_sums_y: tuple[float, ...]
    sums_equal: bool


def _require_sorted(x: Sequence[float], name: str) -> None:
    if any(map(lt, x, x[1:])):
        i = next(i for i in range(len(x) - 1) if x[i] < x[i + 1])
        raise NotSortedError(
            f"{name} must be non-increasing, ascends at index {i}")


def majorizes(x: Sequence[float], y: Sequence[float]) -> MajorizationVerdict:
    """Is x majorized by y? Both inputs must already be non-increasing."""
    if len(x) != len(y):
        raise LengthMismatchError(f"lengths differ: {len(x)} vs {len(y)}")
    if len(x) == 0:
        raise SequenceTooShortError("empty sequences cannot be compared")
    _require_sorted(x, "x")
    _require_sorted(y, "y")
    # prefix sums added left to right from 0.0; the last one, the total,
    # is compared below with a relative tolerance instead
    px = tuple(accumulate(x, initial=0.0))[1:]
    py = tuple(accumulate(y, initial=0.0))[1:]
    first_fail = next((i for i, (a, b) in enumerate(zip(px[:-1], py), 1)
                       if a > b + PREFIX_TOL), None)
    total = max(1.0, abs(px[-1]))
    sums_equal = abs(px[-1] - py[-1]) <= SUM_REL_TOL * total
    holds = first_fail is None and sums_equal
    return MajorizationVerdict(
        holds=holds,
        first_failing_prefix=first_fail,
        prefix_sums_x=px,
        prefix_sums_y=py,
        sums_equal=sums_equal,
    )


def grone_sequence(d: Sequence[int]) -> tuple[tuple[int, ...], bool]:
    """(d_1+1, d_2, ..., d_{n-1}, d_n - 1) plus a non-increasing flag,
    always True: d_1 + 1 > d_1 >= ... >= d_n > d_n - 1."""
    if len(d) < 2:
        raise SequenceTooShortError("need at least two degrees")
    _require_sorted(d, "degree sequence")
    return (d[0] + 1,) + tuple(d[1:-1]) + (d[-1] - 1,), True


def merged_grone_sequence(d: Sequence[int]) -> tuple[tuple[int, ...], bool]:
    """Length n-1 variant merging the two smallest degrees.

    (d_1+1, d_2, ..., d_{n-2}, d_{n-1}+d_n-1). The trailing merged entry can
    exceed its neighbour, so the flag matters: the sequence is only usable as
    a majorization left side when it is non-increasing.
    """
    if len(d) < 3:
        raise SequenceTooShortError("need at least three degrees")
    _require_sorted(d, "degree sequence")
    seq = (d[0] + 1,) + tuple(d[1:-2]) + (d[-2] + d[-1] - 1,)
    mono = all(map(ge, seq, seq[1:]))
    return seq, mono


def check_grone(degrees: Sequence[int],
                spec: Spectrum) -> MajorizationVerdict:
    """Grone sequence of degrees against the spectrum (connected, n >= 2)."""
    if spec.component_count != 1:
        raise DisconnectedGraphError("comparison needs a connected graph")
    seq, _ = grone_sequence(degrees)
    return majorizes(tuple(map(float, seq)), spec.mu)


def check_grone_merris(degrees: Sequence[int],
                       spec: Spectrum) -> MajorizationVerdict:
    """Spectrum against the conjugate degree sequence (any graph)."""
    conj = conjugate_sequence(degrees)
    return majorizes(spec.mu, tuple(map(float, conj)))


def power_sum(x: Sequence[float], alpha: float) -> float:
    """Sum of x_i^alpha; entries must be >= 0, strictly positive if alpha < 0."""
    for v in x:
        if v < 0:
            raise DomainViolationError(f"negative entry {v}")
        if v == 0 and alpha < 0:
            raise DomainViolationError("zero entry with negative exponent")
    return float(sum(v ** alpha for v in x))


def pinch(x: Sequence[float], i: int, j: int, eps: float) -> tuple[float, ...]:
    """Move eps from entry i to entry j (i < j), restoring sort order.

    Requires 0 < eps < (x_i - x_j) / 2, so the result is a strictly different
    sequence majorized by x with the same total.
    """
    _require_sorted(x, "x")
    if not (0 <= i < j < len(x)):
        raise BadPinchError(f"need 0 <= i < j < len(x), got i={i} j={j}")
    gap = x[i] - x[j]
    if not (0.0 < eps < gap / 2.0):
        raise BadPinchError(
            f"eps must lie strictly between 0 and (x_i - x_j)/2 = {gap / 2.0}")
    out = list(x)
    out[i] -= eps
    out[j] += eps
    return tuple(sorted(out, reverse=True))
