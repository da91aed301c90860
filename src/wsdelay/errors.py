"""Exception types shared across the package.

The hierarchy distinguishes caller mistakes (domain/contract errors) from
runtime failures of the numerics (solver and quality-gate errors) so the CLI
can map them to distinct exit codes.
"""


class WsdelayError(Exception):
    """Base class for all package-specific errors."""


class DomainError(WsdelayError, ValueError):
    """An argument lies outside the mathematical domain of the operation."""


class CapacityError(WsdelayError, ValueError):
    """A requested order/degree exceeds the configured ceiling."""


class SingularPointError(DomainError):
    """Evaluation requested at a singular point (e.g. the basis origin)."""


class ContractError(WsdelayError, ValueError):
    """Inconsistent objects passed together (shape/mode-set/dimension mismatch)."""


class GeometryError(WsdelayError, ValueError):
    """Degenerate or invalid scatterer geometry."""


class SolverError(WsdelayError, RuntimeError):
    """Linear solve failed or produced a residual above threshold."""


class QualityGateError(WsdelayError, RuntimeError):
    """A produced matrix violates its quality gate (unitarity/symmetry/...)."""


class ConfigError(WsdelayError, ValueError):
    """Scenario configuration could not be parsed or validated."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line
