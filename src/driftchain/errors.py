"""Exception hierarchy shared across the package.

The CLI maps these onto process exit codes, so keep the split stable:
validation problems (bad measures, bad configs) are distinct from
theory-level conditions (degenerate limits, small-urn violations) and
from resource limits.  The default cell budget of the exact DP lives here
too, beside the error that enforces it, so that the CLI can show it without
importing the engine.
"""

from __future__ import annotations


class DriftChainError(Exception):
    """Base class for all package errors."""


class ModelValidationError(DriftChainError):
    """A measure, urn description, or model parameter is invalid."""


class ConfigError(ModelValidationError):
    """A CLI/JSON configuration could not be parsed or validated."""


class UnreachableStateError(DriftChainError):
    """A chain state outside the model's declared reachable range."""


class SmallUrnError(DriftChainError):
    """The linear-drift coefficient fails alpha1 > -1/2."""


class DegenerateLimitError(DriftChainError):
    """The limit variance parameter D is not strictly positive.

    Carries the offending value so callers can report it.
    """

    def __init__(self, d_value, message: str | None = None):
        self.d_value = d_value
        if message is None:
            message = f"degenerate limit: D = {d_value} is not > 0"
        super().__init__(message)


class BudgetExceededError(DriftChainError):
    """A dynamic-programming sweep exceeded its cell budget."""


# Cell budget of a dynamic-programming sweep unless the caller sets one.
DEFAULT_CELL_BUDGET = 10_000_000
