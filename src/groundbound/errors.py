"""Shared exception types."""


class GroundboundError(Exception):
    """Base class for all package errors."""


class InvalidInput(GroundboundError, ValueError):
    """An argument outside the range a function accepts (the CLI exits 3)."""


class DomainError(GroundboundError):
    """An expression is certified outside a function's domain."""


class UndecidableError(GroundboundError):
    """A comparison could not be certified within the precision cap."""


class InvalidModulus(GroundboundError):
    """Cyclotomic modulus outside the supported range."""


class ElementNotInField(GroundboundError):
    """A cyclotomic element does not lie in the requested subfield."""


class HypothesisViolated(GroundboundError):
    """A hypothesis of the degree bound fails: R (the product of interval
    lengths over 4) is not certified below 1, or R, B or S is certified
    <= 0."""


class InadmissibleQuery(GroundboundError):
    """Face-average query outside the admissible parameter range."""


class InadmissibleSignature(GroundboundError):
    """Fuchsian signature with 2g + t - 2 < 1."""


class MissingRange(GroundboundError):
    """Unbounded graph family enumerated without an explicit range."""


class InfeasibleCase(GroundboundError):
    """Bound assembly requested for a case that is not FEASIBLE."""


class ExceptionalPair(GroundboundError):
    """Pair-bound formulas evaluated on an exceptional pair."""


class SearchExhausted(GroundboundError):
    """No small-polynomial certificate found inside the configured box."""
