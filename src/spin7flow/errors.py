"""Shared exception types for the package."""


class Spin7FlowError(Exception):
    """Base class for package-specific errors."""


class InvalidParameterError(Spin7FlowError, ValueError):
    """Orbit parameters or bundle selections are malformed."""


class InvalidRequestError(Spin7FlowError, ValueError):
    """A well-formed request that does not apply (wrong chirality, unknown
    label, or a restricted set queried with incompatible parameters)."""


class SolverIncompleteError(Spin7FlowError, RuntimeError):
    """A numerical search could not account for the expected solution set."""


class InitializationError(Spin7FlowError, RuntimeError):
    """Construction of a shooting initial state failed to converge."""


class IntegrationError(Spin7FlowError, RuntimeError):
    """The ODE integrator failed before reaching a decisive event."""


class ReconstructionDomainError(Spin7FlowError, RuntimeError):
    """Metric reconstruction hit a sample where a metric coefficient is
    undefined (non-finite entry, vanishing Z-product, eta not increasing)."""


class DomainAnomalyError(Spin7FlowError, ArithmeticError):
    """An exact computation met a condition the governing analysis
    rules out inside its stated domain, such as a negative discriminant
    where two real roots are guaranteed."""


class DegenerateRootError(Spin7FlowError, ArithmeticError):
    """Implicit differentiation was requested at a point where the
    tracked root is not simple."""


class FormulaDiscrepancyError(Spin7FlowError, RuntimeError):
    """An exact cross-check between a computed polynomial and its
    recorded reference expansion found differing coefficients.

    The differences attribute lists (exponents, computed, reference)
    triples for every monomial where the two disagree.
    """

    def __init__(self, message, differences=()):
        super().__init__(message)
        self.differences = tuple(differences)
