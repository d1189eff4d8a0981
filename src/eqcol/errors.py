"""Exception types shared across the package."""

from __future__ import annotations


class EqcolError(Exception):
    """Base class for all package-specific errors."""


class ConfigError(EqcolError):
    """An EQCOL_* environment setting is malformed."""


class ConductorOverflow(EqcolError):
    """A cyclotomic operation would exceed the conductor cap."""


class CertificateFailure(EqcolError):
    """An exact certificate failed: of a rank modulo a prime, or of the
    Euler characteristic of an Ext table derived from a mutation triangle."""


class NotInvertible(EqcolError):
    """Attempt to invert a singular matrix."""


class OrderCapExceeded(EqcolError):
    """Group closure grew past the configured order cap."""


class HomComplexCapExceeded(EqcolError):
    """A degree of a Hom complex is larger than the configured cap; the run
    stops instead of recording a failed task."""


class OutputError(EqcolError):
    """A report or DOT file could not be written."""


class InvalidParameter(EqcolError):
    """A constructor or operation received an unusable parameter."""


class GroupMismatch(EqcolError):
    """Objects built over different groups were mixed."""


class NegativeDegree(EqcolError):
    """A graded construction was asked for a negative degree."""


class BasisMismatch(EqcolError):
    """A vector does not lie in the span of the basis it was expressed in."""


class WindowViolation(EqcolError):
    """Twist spread of a Hom computation exceeds the safe window."""


class NotADivisor(EqcolError):
    """A Veronese parameter must divide the number of coordinates."""


class OrthogonalityFailure(EqcolError):
    """A claimed orthogonal decomposition has a nonzero cross Ext."""


class NotStrong(EqcolError):
    """Operation requires a strong exceptional collection."""


class ScenarioError(EqcolError):
    """A scenario file failed to parse or validate."""


class ParseError(ScenarioError):
    """Scenario text is not valid JSON; message carries line and column."""


class ValidationError(ScenarioError):
    """Scenario parsed but violates an invariant named in the message."""
