"""Exception types shared across the package, and the one range checker."""

import math


class SmcLabError(Exception):
    """Base class for every error raised by this package."""


class InvalidInputError(SmcLabError, ValueError):
    """An operation received arguments outside its documented domain."""


class ConfigError(SmcLabError, ValueError):
    """Configuration values violate invariants; ``errors`` lists each violation."""

    def __init__(self, *messages):
        self.errors = list(messages)
        super().__init__("; ".join(messages))


class SingularGainError(ConfigError):
    """Input gain g(x) is zero or numerically indistinguishable from zero."""


class ScenarioValidationError(ConfigError):
    """Scenario validation failed; carries the list of violations."""

    def __init__(self, errors):
        super().__init__(*errors)


class DivergenceError(SmcLabError, RuntimeError):
    """Integration produced non-finite or runaway state; carries the time."""

    def __init__(self, t, message=""):
        self.t = float(t)
        super().__init__(message or f"integration diverged at t={t:.6g} s")


def check_ranges(positive=None, nonnegative=None, finite=None, rules=(), gain=()):
    """Raise one ConfigError listing every failed check; return if none fails.

    ``positive``, ``nonnegative`` and ``finite`` map labels to values that
    must be finite and > 0, finite and >= 0, or finite.  ``rules`` are
    ``(ok, message)`` pairs for any other rule, and ``gain`` those of the
    input gain floor, whose failure makes the error a SingularGainError.
    """
    failed = [f"{k} must be > 0" for k, v in (positive or {}).items() if not 0 < v < math.inf]
    failed += [f"{k} must be >= 0" for k, v in (nonnegative or {}).items()
               if not 0 <= v < math.inf]
    failed += [f"{k} must be finite" for k, v in (finite or {}).items() if not math.isfinite(v)]
    failed += [message for ok, message in rules if not ok]
    singular = [message for ok, message in gain if not ok]
    if failed or singular:
        raise (SingularGainError if singular else ConfigError)(*failed, *singular)
