"""Exception types shared across the package."""


class ParameterError(ValueError):
    """A method parameterization violates a structural requirement."""


class NotCausalError(ParameterError):
    """Forward-routing matrices are inconsistent with any evaluation schedule."""


class NotRepresentableError(ParameterError):
    """A bundle lacks a matrix that its serialized form needs."""


class StepSizeViolationError(ParameterError):
    """Step size and relaxation fall outside the admissible region."""


class DivergenceError(RuntimeError):
    """The fixed-point residual blew up; parameters or oracles are broken."""


class IngestionError(ValueError):
    """External data (CSV) could not be parsed."""
