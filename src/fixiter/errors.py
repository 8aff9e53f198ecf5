"""Exception types shared across the package."""

from __future__ import annotations

import math


class FixiterError(Exception):
    """Base class for every error raised by this library."""


class ContractError(FixiterError, ValueError):
    """An argument or invariant violated a documented contract."""


class ParameterError(ContractError):
    """A numeric parameter is outside its admissible range."""


class InfeasibleError(ContractError):
    """The requested constraint admits no solution at all."""


class DomainError(FixiterError):
    """A point lies outside the domain it was required to be in."""


class ScheduleError(ContractError):
    """A coefficient schedule violates its admissibility constraints."""


class ConfigurationError(FixiterError):
    """A run configuration is inconsistent with the chosen scheme."""


class ScopeError(FixiterError):
    """A verifier was invoked on inputs outside its stated scope."""


class ScenarioError(FixiterError):
    """A scenario file failed to parse or validate.

    ``path`` locates the offending entry, e.g. ``scenario.schedules.alpha.kind``.
    """

    def __init__(self, path: str, message: str):
        self.path = path
        self.message = message
        super().__init__(f"{path}: {message}")


def _finite_positive(name: str, value: float, error: type[FixiterError]) -> None:
    """Raise ``error`` unless ``value`` is finite and > 0 (NaN is neither)."""
    if not 0.0 < value < math.inf:
        raise error(f"{name} must be finite and > 0, got {value}")
