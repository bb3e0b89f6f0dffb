"""Exception types shared across the package."""

from __future__ import annotations


class FactPatchError(Exception):
    """Base class for every error raised by this package."""


class ValidationError(FactPatchError):
    """An argument or record failed a contract check."""


class ParseError(FactPatchError):
    """A persisted file could not be parsed.

    Carries the file's path and, when one entry is at fault, its 1-based line
    (or array position) so callers can point at it.
    """

    def __init__(self, message: str, *, path: str, line: int | None = None):
        self.line = line
        self.path = path
        where = path if line is None else f"{path}:{line}"
        super().__init__(f"{where}: {message}")


class StorageError(FactPatchError):
    """Reading or writing a persisted artifact failed."""


class ConfigError(FactPatchError):
    """A configuration file or value is invalid or inconsistent."""


class BackendError(FactPatchError):
    """A remote backend call failed after exhausting retries.

    Attributes:
        attempts: how many requests were sent before giving up.
        last_status: HTTP status of the final attempt, if any response arrived.
    """

    def __init__(self, message: str, *, attempts: int = 1, last_status: int | None = None):
        self.attempts = attempts
        self.last_status = last_status
        super().__init__(message)


class CapabilityError(FactPatchError):
    """A backend lacks a capability this pipeline requires (e.g. log-probabilities)."""


class PipelineError(FactPatchError):
    """An error that occurred inside the answer pipeline, tagged with its stage."""

    def __init__(self, stage: str, cause: Exception):
        self.stage = stage
        self.cause = cause
        super().__init__(f"{stage}: {cause}")
