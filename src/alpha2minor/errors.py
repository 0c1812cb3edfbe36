"""Exception types shared across the package."""


class Alpha2Error(Exception):
    """Base class for all package-specific errors."""


class Graph6Error(Alpha2Error, ValueError):
    """Malformed graph6 input or a graph outside the format limits."""


class PreconditionError(Alpha2Error, ValueError):
    """An operation was called outside its documented domain."""


class InvariantViolation(Alpha2Error, RuntimeError):
    """A step that the construction guarantees to succeed has failed.

    Carries a state dictionary so the offending instance can be reproduced.
    If this ever fires on a valid input it is a finding about the underlying
    mathematics, not a condition to be absorbed silently.
    """

    def __init__(self, message: str, state: dict | None = None):
        super().__init__(message if state is None else f"{message} | state={state!r}")
        self.state = state or {}
