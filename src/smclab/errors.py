"""Exception types and the shared range, named-params, step-size and number rules."""

import math
import numbers


class SmcLabError(Exception):
    """Base class for every error raised by this package."""


class InvalidInputError(SmcLabError, ValueError):
    """An operation received arguments outside its documented domain."""


class ConfigError(SmcLabError, ValueError):
    """Configuration values violate invariants; ``errors`` lists each violation."""

    def __init__(self, *messages):
        self.errors = list(messages)
        super().__init__("; ".join(messages))

    # pickling rebuilds each error from its own constructor arguments, not
    # from the joined message that Exception keeps as ``args``
    def __reduce__(self):
        return type(self), tuple(self.errors)


class SingularGainError(ConfigError):
    """Input gain g(x) is zero or numerically indistinguishable from zero."""


class ScenarioValidationError(ConfigError):
    """Scenario validation failed; carries the list of violations."""

    def __init__(self, errors):
        super().__init__(*errors)

    def __reduce__(self):
        return type(self), (self.errors,)


class DivergenceError(SmcLabError, RuntimeError):
    """Integration produced non-finite or runaway state; carries the time."""

    def __init__(self, t, message=""):
        self.t = float(t)
        super().__init__(message or f"integration diverged at t={t:.6g} s")

    def __reduce__(self):
        return type(self), (self.t, str(self))


def is_number(value, kind=(float, int, numbers.Real)) -> bool:
    """An instance of ``kind``, never a bool; the default tests float and int before the ABC."""
    return isinstance(value, kind) and not isinstance(value, bool)


def check_ranges(positive=None, nonnegative=None, finite=None, rules=(), gain=()):
    """Raise one ConfigError listing every failed check; return if none fails.

    ``positive``, ``nonnegative`` and ``finite`` map labels to numbers, never a
    bool, that must be finite and > 0, finite and >= 0, or finite.  ``rules``
    are ``(ok, message)`` pairs for any other rule, and ``gain`` those of the
    input gain floor, whose failure makes the error a SingularGainError.
    """
    maps = ((positive, lambda v: 0 < v < math.inf, "> 0"),
            (nonnegative, lambda v: 0 <= v < math.inf, ">= 0"), (finite, math.isfinite, "finite"))
    # the range is tested first, so a value that cannot be compared raises TypeError
    failed = [f"{k} must be {rule if is_number(v) else 'a number'}"
              for values, ok, rule in maps for k, v in (values or {}).items()
              if not (ok(v) and is_number(v))]
    failed += [message for ok, message in rules if not ok]
    singular = [message for ok, message in gain if not ok]
    if failed or singular:
        raise (SingularGainError if singular else ConfigError)(*failed, *singular)


def check_positive(value, name: str = "dt"):
    """``value``, or InvalidInputError unless it is finite and > 0."""
    if not (math.isfinite(value) and value > 0):
        raise InvalidInputError(f"{name} must be > 0")
    return value


def named_params(kind: str, registry: dict, name, params=None):
    """``(registry[name], params)``, where each entry starts with its params
    type and None params become that type's defaults."""
    if name not in registry:
        raise ConfigError(f"unknown {kind} '{name}', expected one of {tuple(registry)}")
    entry = registry[name]
    params = entry[0]() if params is None else params
    if not isinstance(params, entry[0]):
        raise ConfigError(f"{kind} '{name}' expects {entry[0].__name__} parameters")
    return entry, params
