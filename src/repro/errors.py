"""Exception hierarchy for the DTX reproduction.

Every error raised by :mod:`repro` derives from :class:`ReproError` so callers
can catch library failures with a single handler while still being able to
discriminate subsystems (XML parsing, XPath, updates, locking, storage,
distribution, configuration, the simulation kernel).
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by the repro library."""


class XMLError(ReproError):
    """Base class for XML-model and parsing errors."""


class XMLParseError(XMLError):
    """Raised when a document cannot be parsed.

    Attributes
    ----------
    position:
        Character offset in the input at which the error was detected.
    line, column:
        1-based source coordinates of the error.
    """

    def __init__(self, message: str, position: int = -1, line: int = -1, column: int = -1):
        super().__init__(message)
        self.position = position
        self.line = line
        self.column = column

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        base = super().__str__()
        if self.line >= 0:
            return f"{base} (line {self.line}, column {self.column})"
        return base


class XMLModelError(XMLError):
    """Raised on illegal tree manipulation (cycles, foreign nodes, ...)."""


class XPathError(ReproError):
    """Base class for XPath subset errors."""


class XPathSyntaxError(XPathError):
    """Raised when an expression is outside the supported XPath subset."""

    def __init__(self, message: str, position: int = -1):
        super().__init__(message)
        self.position = position


class XPathEvalError(XPathError):
    """Raised when a syntactically valid expression cannot be evaluated."""


class UpdateError(ReproError):
    """Raised when an update operation is invalid or cannot be applied."""


class UpdateSyntaxError(UpdateError):
    """Raised when the textual update language cannot be parsed."""


class LockError(ReproError):
    """Base class for locking subsystem errors."""


class StorageError(ReproError):
    """Raised by storage backends (missing document, I/O failure, ...)."""


class DistributionError(ReproError):
    """Raised by placement, catalog, replication and migration components."""


class ConfigError(ReproError):
    """Raised for invalid system configuration values."""


class SimulationError(ReproError):
    """Raised by the discrete-event simulation kernel."""
