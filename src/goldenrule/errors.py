"""Exception hierarchy shared across the laboratory modules."""


class GoldenRuleError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(GoldenRuleError, ValueError):
    """Input outside the mathematical domain of an operation."""


class UnsupportedShapeError(GoldenRuleError, ValueError):
    """Envelope kind has no closed form for the requested quantity."""


class DegenerateSpectrumError(GoldenRuleError, ValueError):
    """Spectral data degenerate (e.g. zero total density of states)."""


class PreconditionError(GoldenRuleError, ValueError):
    """A documented precondition of a routine is violated."""


class ToleranceFailureError(GoldenRuleError, RuntimeError):
    """Requested tolerance could not be certified by the algorithm."""

    def __init__(self, msg, achieved=None):
        super().__init__(msg)
        self.achieved = achieved


class DiscretizationTooCoarseError(GoldenRuleError, RuntimeError):
    """Level spacing too coarse for the requested time horizon (revival)."""


class WindowError(GoldenRuleError, RuntimeError):
    """Result drifts with the integration window beyond tolerance."""

    def __init__(self, msg, drift=None):
        super().__init__(msg)
        self.drift = drift


class RangeError(GoldenRuleError, ValueError):
    """Argument outside the guaranteed accuracy range of a special function."""


class EdgeError(GoldenRuleError, ValueError):
    """Evaluation point sits on a support edge where the result is undefined."""


class ConfigError(GoldenRuleError, ValueError):
    """Scenario configuration invalid; collects every violation found.

    Attributes:
        violations: list of human-readable problem descriptions.
    """

    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("invalid configuration:\n" + "\n".join(
            "  - " + v for v in self.violations))
