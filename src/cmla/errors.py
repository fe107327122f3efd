"""Exception types shared across the audit pipeline."""

from __future__ import annotations


class CmlaError(Exception):
    """Base class for every error the toolkit raises on purpose."""


class LoadError(CmlaError):
    """An input file is missing, or a CSV or JSON file cannot be parsed."""


class SchemaError(CmlaError):
    """Tables or models disagree on column names, kinds, or dimensions."""


class ConfigError(CmlaError):
    """A run configuration value is invalid."""


class DegenerateGeometryError(CmlaError):
    """Automatic eps selection collapsed to zero."""


class LineageError(CmlaError):
    """Artifacts built under different encoding models were mixed."""


class CurveError(CmlaError):
    """A report's curve breaks its laws: one value per threshold, in [0, 1], non-decreasing."""


class OrderingError(CmlaError):
    """A scenario's declared leakage ordering does not hold."""


class StageError(CmlaError):
    """Wraps a pipeline error with the name of the stage that raised it."""

    def __init__(self, stage: str, cause: Exception) -> None:
        super().__init__(f"stage {stage}: {cause}")
        self.stage = stage
        self.cause = cause
