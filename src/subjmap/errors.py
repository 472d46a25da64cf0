"""Exception hierarchy shared across the package."""


class SubjmapError(Exception):
    """Base class for all package-specific errors."""


class ShapeError(SubjmapError, ValueError):
    """An array or a size argument does not fit the operation.

    A wrong dimensionality, disagreeing widths or lengths, too few rows, or an
    index or count out of its range.
    """


class NonFiniteError(SubjmapError, ValueError):
    """An array holds NaN or infinite entries."""


class RankDeficient(SubjmapError, ValueError):
    """A QR pivot collapsed below tolerance; the columns are dependent."""


class ConvergenceError(SubjmapError, RuntimeError):
    """An iterative kernel exhausted its iteration budget."""


class UnknownSubject(SubjmapError, KeyError):
    """A subject id/index has no weights in the addressed map."""


class MissingLabels(SubjmapError, ValueError):
    """A classifier objective was evaluated without labels."""


class DuplicateSubject(SubjmapError, ValueError):
    """A subject id to register is already registered on the model."""


class NoSubjectWeights(SubjmapError, ValueError):
    """A per-subject operation was asked of a group model, which has no per-subject weights."""


class GroupCountError(SubjmapError, ValueError):
    """A group comparison found other than exactly two groups."""


class DivergenceError(SubjmapError, RuntimeError):
    """Training produced a non-finite loss."""

    def __init__(self, step: int, message: str = ""):
        self.step = step
        super().__init__(message or f"non-finite loss at step {step}")


class SweepFailed(SubjmapError, RuntimeError):
    """Every cell of a hyperparameter sweep failed, so there is no winner."""


class EmptySubset(SubjmapError, ValueError):
    """A data subset selection came out empty."""


class ParseError(SubjmapError, ValueError):
    """A stored file cannot be read.

    Bad magic, an unsupported version, a failed checksum, a malformed header, a
    missing or mistyped field, or a file truncated mid-record.
    """


class LabelOutOfRange(SubjmapError, ValueError):
    """A label does not fit the packed dataset format's int32."""


class DegenerateFold(SubjmapError, ValueError):
    """A cross-validation training fold is missing a class."""


class DegenerateGeometry(SubjmapError, ValueError):
    """Geometric fit input is degenerate (e.g. collinear points)."""


class InvalidP(SubjmapError, ValueError):
    """A p-value lies outside [0, 1]."""


class ConfigError(SubjmapError, ValueError):
    """An experiment config or spec is malformed: an unknown or missing key, or a bad value."""
