"""Exception types shared across the toolkit."""


class FdaregError(Exception):
    """Base class for all toolkit errors."""


class ParseError(FdaregError):
    """A data file could not be parsed; the message names the offending line."""


class ValidationError(FdaregError):
    """Constructed data violates a structural invariant (ordering, domain, ...)."""


class DomainError(FdaregError):
    """An evaluation point lies outside the basis domain [a, b]."""


class RankDeficiencyError(FdaregError):
    """A Gram matrix is not positive definite (redundant basis system)."""


class UnsupportedOrderError(FdaregError):
    """A derivative order is not representable on the given basis."""


class UnidentifiableCoefficientsError(FdaregError):
    """The least-squares design is (near-)rank-deficient; the message names
    the basis functions whose coefficients cannot be estimated from the
    available samples."""


class DegenerateLooError(FdaregError):
    """Leave-one-out is undefined: some hat diagonal reaches 1 (interpolation)."""


class SelectionError(FdaregError):
    """No candidate in a selection grid was feasible."""


class ConstantFunctionError(FdaregError):
    """Functional reduction is undefined for a (numerically) constant function."""


class ImputationError(FdaregError):
    """Missing values cannot be filled (e.g. a fully-missing column)."""


class IncomparableSampleError(ImputationError):
    """A sample shares no observed coordinate with any candidate neighbor."""


class DegenerateComponentError(FdaregError):
    """Whitening requested for a component with (numerically) zero variance."""


class ScalingError(FdaregError):
    """Per-sample standardization is undefined (constant observed values)."""


class TrainingError(FdaregError):
    """Model training failed to produce any usable parameter vector."""


class ConfigError(FdaregError):
    """An experiment specification is internally inconsistent."""
