"""Exception hierarchy shared across the laboratory modules."""


class GoldenRuleError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(GoldenRuleError, ValueError):
    """Input outside the mathematical domain of an operation."""


class PreconditionError(GoldenRuleError, ValueError):
    """A documented precondition of a routine is violated."""


class ToleranceFailureError(GoldenRuleError, RuntimeError):
    """Requested tolerance could not be certified by the algorithm."""

    def __init__(self, msg, achieved=None):
        super().__init__(msg)
        self.achieved = achieved


class ConfigError(GoldenRuleError, ValueError):
    """Scenario configuration invalid; collects every violation found.

    Attributes:
        violations: list of human-readable problem descriptions.
    """

    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("invalid configuration:\n" + "\n".join(
            "  - " + v for v in self.violations))

    def __reduce__(self):
        # rebuilt from the violations: its args hold the joined message
        return type(self), (self.violations,)
