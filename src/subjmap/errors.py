"""Exception hierarchy shared across the package."""


class SubjmapError(Exception):
    """Base class for all package-specific errors."""


class ShapeError(SubjmapError, ValueError):
    """An array has the wrong dimensionality or an inconsistent width."""


class DimensionError(SubjmapError, ValueError):
    """A dimension argument is out of its valid range."""


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


class InvalidFraction(SubjmapError, ValueError):
    """A split fraction is outside its valid range."""


class ParseError(SubjmapError, ValueError):
    """A serialized artifact could not be decoded."""


class LabelOutOfRange(SubjmapError, ValueError):
    """A label does not fit the packed dataset format's int32."""


class ShapeMismatch(SubjmapError, ValueError):
    """Stored shapes disagree with declared or expected shapes."""


class MissingManifestField(SubjmapError, KeyError):
    """A dataset manifest lacks a required field."""


class DegenerateFold(SubjmapError, ValueError):
    """A cross-validation training fold is missing a class."""


class DegenerateGeometry(SubjmapError, ValueError):
    """Geometric fit input is degenerate (e.g. collinear points)."""


class InvalidP(SubjmapError, ValueError):
    """A p-value lies outside [0, 1]."""


class ChecksumMismatch(SubjmapError, ValueError):
    """A stored blob failed its checksum."""


class VersionUnsupported(SubjmapError, ValueError):
    """A container format version is not supported."""


class ConfigError(SubjmapError, ValueError):
    """An experiment config or spec is malformed: an unknown or missing key, or a bad value."""
