"""Exception hierarchy.

Every error the library raises deliberately derives from RuleNetError, so
callers (and the CLI) can map failure classes to exit codes without string
matching. A MemoryError is not one, but a study and the CLI report it the
same way, as FAILURES says.
"""

from __future__ import annotations


class RuleNetError(Exception):
    """Base class for all library errors."""


class DimensionError(RuleNetError):
    """Shape mismatch between arrays; the message names both shapes."""


class ContractError(RuleNetError):
    """An internal invariant was violated (caller or library bug)."""


class UnflaggedNaNError(ContractError, ValueError):
    """A numerical value to be located in its quantile bins is NaN, and no
    missing mask flags it."""


class ConfigError(RuleNetError):
    """Invalid hyperparameter, fraction, metric or CLI configuration."""


class ArtifactWriteError(ConfigError, OSError):
    """An output file could not be written; names the path the caller gave."""

    @classmethod
    def at(cls, path, err: OSError) -> "ArtifactWriteError":
        return cls(f"cannot write {path}: {err.strerror or err}")


class IngestionError(RuleNetError):
    """CSV could not be read into a table (ragged rows, empty file, ...)."""


class FitError(RuleNetError):
    """Preprocessing could not be fitted (e.g. an all-missing column)."""


class SchemaError(RuleNetError):
    """Table does not conform to the expected schema."""


class IndexRangeError(RuleNetError):
    """A lookup id fell outside its table; names the feature and the value."""


class DivergenceError(RuleNetError):
    """Training produced a non-finite loss."""

    def __init__(self, epoch: int, step: int, message: str | None = None):
        self.epoch = epoch
        self.step = step
        super().__init__(
            message
            or f"non-finite training loss at epoch {epoch}, step {step}"
        )


class CheckpointError(RuleNetError):
    """A checkpoint file could not be loaded."""


class TruncationError(CheckpointError):
    """Checkpoint file shorter than its framing claims."""


class VersionError(CheckpointError):
    """Checkpoint format version is not supported."""


class FingerprintError(CheckpointError):
    """Stored schema fingerprint does not match the stored schema."""


class StudyError(RuleNetError):
    """A hyperparameter study could not produce any result."""


# what a study records as a failed trial, and the CLI reports in one line:
# running out of memory is a failure like these, since a study's trial sizes
# span the whole search box
FAILURES = (RuleNetError, MemoryError)


def describe(err: Exception) -> str:
    """A failure's message in one line; a MemoryError's may be empty."""
    if isinstance(err, MemoryError):
        return f"out of memory: {err}" if str(err) else "out of memory"
    return str(err)
