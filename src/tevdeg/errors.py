"""Exception taxonomy for the Tevelev degree library.

The CLI maps these onto structured error records and process exit
codes. The mapping lives in each class's `exit_code`: target
descriptions exit 2, well-posedness failures 3, and every other error,
such as a formula-domain or hypothesis failure, inherits 4.
"""

from __future__ import annotations

__all__ = [
    "TevError",
    "TargetParseError",
    "InvalidTarget",
    "WellPosednessError",
    "NonFano",
    "NonIntegerN",
    "NegativeN",
    "UnstableRange",
    "HypothesisViolation",
    "NegativeExponent",
    "NoKnownFormula",
    "MismatchedRank",
    "SpecialClassOutOfBox",
    "DegreeUnderflow",
    "DomainError",
    "LineDomainError",
]


class TevError(Exception):
    """Base class for every domain error raised by this package."""

    exit_code = 4

    @property
    def kind(self) -> str:
        """Stable machine-readable tag (the class name)."""
        return type(self).__name__


class TargetParseError(TevError):
    """The target description string does not match the grammar."""

    exit_code = 2


class InvalidTarget(TevError):
    """A well-formed description that names an unsupported target."""

    exit_code = 2


class WellPosednessError(TevError):
    """The (target, genus, degree) triple admits no well-posed count."""

    exit_code = 3


class NonFano(WellPosednessError):
    """The anticanonical degree of the target is not positive."""


class NonIntegerN(WellPosednessError):
    """The derived marking count is not an integer."""


class NegativeN(WellPosednessError):
    """The derived marking count is negative."""


class UnstableRange(WellPosednessError):
    """2g - 2 + n <= 0, outside the stable range."""


class HypothesisViolation(TevError):
    """An explicit hypothesis of the requested computation fails."""


class NegativeExponent(TevError):
    """The hypersurface product formula would need a negative exponent."""


class NoKnownFormula(TevError):
    """No closed form is implemented for this target kind."""


class MismatchedRank(TevError):
    """Quantum ring elements live over different projective spaces."""


class SpecialClassOutOfBox(TevError):
    """A special Schubert class index exceeds the ambient box."""


class DegreeUnderflow(TevError):
    """The requested Schubert-side degree 2d - 2 - g is negative."""


class DomainError(TevError, ValueError):
    """An argument lies outside the domain of the computation, such as
    a negative genus, a curve degree below 1, or a dimension below 1.

    Also a ValueError, the type these checks raised before they joined
    the taxonomy, so existing callers catching it keep working.
    """


class LineDomainError(DomainError):
    """The line count needs genus g >= 0 and degree d >= 1."""
