"""Exception types shared across the package."""


class EvreloError(Exception):
    """Base class for every error raised by this package."""


class UnknownRequest(EvreloError):
    """A solution or query references a request id the instance does not contain."""


class IndexOutOfRange(EvreloError):
    """A location index falls outside the distance matrix."""


class WrongKind(EvreloError):
    """A pickup was supplied where a delivery was expected, or vice versa."""


class GapOutOfRange(EvreloError):
    """An insertion gap index does not exist in the target route."""


class InvalidInstance(EvreloError):
    """Instance data violates a structural requirement."""


class ParseError(EvreloError):
    """An instance or solution file could not be parsed.

    Carries the offending line (for syntax errors) or field name (for
    missing / mistyped entries) when known.
    """

    def __init__(self, message, line=None, field=None):
        super().__init__(message)
        self.line = line
        self.field = field

    def __str__(self):
        base = super().__str__()
        where = []
        if self.line is not None:
            where.append(f"line {self.line}")
        if self.field is not None:
            where.append(f"field {self.field!r}")
        return f"{base} ({', '.join(where)})" if where else base


class InvariantViolation(InvalidInstance):
    """A loaded instance breaks one or more data invariants.

    ``violations`` holds every problem found, not just the first one.
    """

    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("; ".join(self.violations))


class DegenerateConfig(EvreloError):
    """A generator configuration cannot produce a meaningful simulation."""


class InstanceTooLarge(EvreloError):
    """The exact solver was asked to enumerate more requests than its limit."""


class RejectedRoute(EvreloError):
    """A solver built a route or a solution that the validator rejects."""
