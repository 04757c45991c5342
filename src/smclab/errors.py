"""Exception types shared across the package."""


class SmcLabError(Exception):
    """Base class for every error raised by this package."""


class InvalidInputError(SmcLabError, ValueError):
    """An operation received arguments outside its documented domain."""


class ConfigError(SmcLabError, ValueError):
    """A configuration value violates its invariants."""


class SingularGainError(ConfigError):
    """Input gain g(x) is zero or numerically indistinguishable from zero."""


class ScenarioValidationError(ConfigError):
    """Scenario validation failed; carries the list of violations."""

    def __init__(self, errors):
        self.errors = list(errors)
        super().__init__("; ".join(self.errors))


class DivergenceError(SmcLabError, RuntimeError):
    """Integration produced non-finite or runaway state; carries the time."""

    def __init__(self, t, message=""):
        self.t = float(t)
        super().__init__(message or f"integration diverged at t={t:.6g} s")
