"""Exception hierarchy for the package.

Every module raises subclasses of :class:`AdmmNetError`, so callers (in
particular the CLI) can catch one base type and map it to a nonzero exit.
"""

from __future__ import annotations


class AdmmNetError(Exception):
    """Base class for all package errors."""


# --- graph ---------------------------------------------------------------


class GraphError(AdmmNetError):
    pass


class EdgeError(GraphError):
    """An invalid edge; carries its 0-based position in the input edge list."""

    def __init__(self, message: str, index: int | None = None):
        super().__init__(message)
        self.index = index


class NodeOutOfRangeError(EdgeError):
    pass


class SelfLoopError(EdgeError):
    pass


class DuplicateEdgeError(EdgeError):
    pass


class DisconnectedError(GraphError):
    pass


class InfeasibleParamsError(GraphError):
    pass


class ConnectivityRetryExhaustedError(GraphError):
    pass


class GraphFileError(GraphError):
    """Malformed graph file; carries the offending 1-based line number."""

    def __init__(self, message: str, lineno: int | None = None):
        super().__init__(message if lineno is None else f"line {lineno}: {message}")
        self.lineno = lineno


# --- spectral ------------------------------------------------------------


class SpectralError(AdmmNetError):
    pass


class EigNoConvergenceError(SpectralError):
    pass


class DegenerateSpectrumError(SpectralError):
    pass


class CertificateFailedError(SpectralError):
    pass


# --- objectives ----------------------------------------------------------


class ObjectiveError(AdmmNetError):
    pass


class DimensionMismatchError(ObjectiveError):
    pass


class MissingCurvatureMetadataError(ObjectiveError):
    pass


# --- admm ----------------------------------------------------------------


class AdmmError(AdmmNetError):
    pass


class NonFiniteIterateError(AdmmError):
    def __init__(self, node: int, t: int):
        super().__init__(f"non-finite estimate at node {node} after round {t}")
        self.node = node
        self.t = t


# --- analysis ------------------------------------------------------------


class AnalysisError(AdmmNetError):
    pass


class InvalidBetaError(AnalysisError):
    pass


class InvalidCError(AnalysisError):
    pass


# --- config / cli --------------------------------------------------------


class ConfigParseError(AdmmNetError):
    def __init__(self, message: str, lineno: int | None = None):
        super().__init__(message if lineno is None else f"line {lineno}: {message}")
        self.lineno = lineno
