"""Exception types shared across the package."""

from __future__ import annotations


class NudgeLabError(Exception):
    """Base class for package-specific failures."""


class VacuumError(NudgeLabError):
    """Density fell to or below the vacuum floor somewhere on the grid."""

    def __init__(self, message: str, *, cell: int | None = None, time: float | None = None):
        super().__init__(message)
        self.cell = cell
        self.time = time
        self.partial = None  # integrator may attach the trajectory so far


class BlowUpError(NudgeLabError):
    """A non-finite value appeared during time integration."""

    def __init__(self, message: str, *, time: float | None = None):
        super().__init__(message)
        self.time = time
        self.partial = None


class ConfigError(NudgeLabError, ValueError):
    """A configuration file or value is invalid."""
