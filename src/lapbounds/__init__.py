"""Laplacian spectral invariants and degree-sequence bound verification.

The package computes Laplacian spectra with a self-contained Jacobi
eigensolver, derives sum/moment invariants (power sums, Kirchhoff index,
Laplacian exponential energy, spanning-tree counts) and checks a catalog of
degree-sequence bounds together with their predicted equality cases.
Majorization comparisons and a deterministic fuzzing harness round out the
toolkit. Everything is reproducible: randomness flows from explicit seeds
through a splitmix64 stream.
"""
from .bounds import (BOUND_IDS, BoundResult, GraphContext, KfComparison,
                     evaluate_bound, evaluate_catalog, kf_compare)
from .errors import (BadParameterError, BadPinchError, DisconnectedGraphError,
                     DomainViolationError, JacobiConvergenceError,
                     LapboundsError, LengthMismatchError,
                     NoNonzeroEigenvaluesError, NotSortedError, ParseError,
                     RetryExhaustedError, SelfLoopError,
                     SequenceTooShortError, SolverBuildError,
                     SpectralInconsistencyError,
                     UnknownBoundError, VertexRangeError)
from .families import (FamilySpec, generate, gnp_connected, iter_family,
                       parse_family, random_tree)
from .graphs import (Graph, GraphClass, build_graph, classify, complement,
                     complement_components, conjugate_sequence,
                     connected_components,
                     degree_sequence, first_zagreb, format_edge_list,
                     parse_edge_list)
from .majorization import (MajorizationVerdict, check_grone,
                           check_grone_merris, grone_sequence, majorizes,
                           merged_grone_sequence, pinch, power_sum)
from .rng import SplitMix64, splitmix64
from .spectra import (Spectrum, complement_spectrum, jacobi_eigenvalues,
                      kirchhoff, laplacian, lee, log_spanning_trees, moment,
                      s_alpha, spanning_trees_exact, spectra_of, spectrum)

__version__ = "0.1.0"

__all__ = [
    "BOUND_IDS", "BoundResult", "GraphContext", "KfComparison",
    "evaluate_bound", "evaluate_catalog", "kf_compare",
    "BadParameterError", "BadPinchError", "DisconnectedGraphError",
    "DomainViolationError", "JacobiConvergenceError", "LapboundsError",
    "LengthMismatchError", "NoNonzeroEigenvaluesError", "NotSortedError",
    "ParseError", "RetryExhaustedError", "SelfLoopError",
    "SequenceTooShortError", "SolverBuildError", "SpectralInconsistencyError",
    "UnknownBoundError", "VertexRangeError",
    "FamilySpec", "generate", "gnp_connected", "iter_family", "parse_family",
    "random_tree",
    "Graph", "GraphClass", "build_graph", "classify", "complement",
    "complement_components", "conjugate_sequence", "connected_components",
    "degree_sequence", "first_zagreb", "format_edge_list", "parse_edge_list",
    "MajorizationVerdict", "check_grone", "check_grone_merris",
    "grone_sequence", "majorizes", "merged_grone_sequence", "pinch",
    "power_sum",
    "SplitMix64", "splitmix64",
    "Spectrum", "complement_spectrum", "jacobi_eigenvalues", "kirchhoff",
    "laplacian", "lee", "log_spanning_trees", "moment", "s_alpha",
    "spanning_trees_exact", "spectra_of", "spectrum",
    "__version__",
]
