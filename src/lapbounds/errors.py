"""Exception types shared across the package, and how their messages quote
a value."""


def shown(value, form=repr) -> str:
    """form(value) for an error message, form being repr or str. An int with
    more digits than str() prints (sys.get_int_max_str_digits()), or a value
    holding one, is named by its bit length or type instead, so that the
    message, not a ValueError, is what the caller gets."""
    try:
        return form(value)
    except ValueError:
        if not isinstance(value, int):
            return f"<{type(value).__name__} too long to print>"
        sign = "negative " if value < 0 else ""
        return f"<{sign}int of {value.bit_length()} bits>"


class LapboundsError(Exception):
    """Base class for every package-specific error."""


class SelfLoopError(LapboundsError):
    """An edge joins a vertex to itself."""


class VertexRangeError(LapboundsError):
    """A vertex, such as an edge endpoint, lies outside 0..n-1."""


class ParseError(LapboundsError):
    """Malformed edge-list text or family DSL string.

    Carries the character/line position where parsing gave up.
    """

    def __init__(self, message, position=None):
        super().__init__(message if position is None
                         else f"{message} (at position {position})")
        self.position = position


class RetryExhaustedError(LapboundsError):
    """Connected G(n,p) sampling hit the retry cap without a connected draw."""


class JacobiConvergenceError(LapboundsError):
    """The Jacobi sweep limit was reached before the off-diagonal target, or
    the matrix has a non-finite entry or a Frobenius norm that overflows, so
    no target can be met."""


class SolverBuildError(LapboundsError):
    """The compiled Jacobi solver could not be built or loaded: no C
    compiler, a compiler error, or a __pycache__ that cannot be written."""


class SpectralInconsistencyError(LapboundsError):
    """Computed eigenvalues contradict a structural fact about the graph."""


class DisconnectedGraphError(LapboundsError):
    """Operation requires a connected graph."""


class NoNonzeroEigenvaluesError(LapboundsError):
    """Power sum with exponent <= 0 over an empty non-zero spectrum."""


class NotSortedError(LapboundsError):
    """Sequence was required to be non-increasing."""


class LengthMismatchError(LapboundsError):
    """Majorization compares sequences of equal length only."""


class SequenceTooShortError(LapboundsError):
    """Sequence or graph is below the minimum size for this operation."""


class DomainViolationError(LapboundsError):
    """Power sum entries outside the valid domain for the exponent."""


class BadPinchError(LapboundsError):
    """Pinch indices or epsilon outside the valid range."""


class UnknownBoundError(LapboundsError):
    """Bound id not present in the catalog."""


class BadParameterError(LapboundsError):
    """Parameter missing, superfluous, or outside the bound's legal range."""
