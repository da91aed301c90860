"""Exception types shared across the package.

The hierarchy distinguishes caller mistakes (config, domain and contract
errors) from failures of the numerics (solver errors) so the CLI can map
them to distinct exit codes.
"""


class WsdelayError(Exception):
    """Base class for all package-specific errors."""


class DomainError(WsdelayError, ValueError):
    """An argument lies outside the domain of the operation: a bad value,
    a degenerate geometry, an order past its ceiling or a singular point."""


class ContractError(WsdelayError, ValueError):
    """Inconsistent objects passed together (shape/mode-set/dimension mismatch)."""


class SolverError(WsdelayError, RuntimeError):
    """A linear solve failed, or a produced matrix failed its own check."""


class ConfigError(WsdelayError, ValueError):
    """Scenario configuration could not be parsed or validated."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line
