"""Exception types shared across the workbench."""


class QuantbenchError(Exception):
    """Base class for workbench errors."""


class MalformedExpressionError(QuantbenchError):
    """Zero denominator or unparsable scalar/expression data."""


class LeafwiseClassError(QuantbenchError):
    """An operation requested a finer leafwise class than the operand carries."""


class AtlasMismatchError(QuantbenchError):
    """Operands live on different atlases or charts."""


class DegreeError(QuantbenchError):
    """Form degree out of range for the operation."""


class NotClosedError(QuantbenchError):
    """A primitive was requested for a non-closed form."""


class UnsupportedPrimitiveError(QuantbenchError):
    """Radial integration only supports polynomial coefficients."""


class ModelMismatchError(QuantbenchError):
    """Sections belong to different algebroid models."""


class OverlapMismatchError(QuantbenchError):
    """Cochain values supplied on overlaps absent from the cover."""


class IntegralityError(QuantbenchError):
    """Class is not integral; carries the IntegralityReport."""

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report


class CurvatureMismatchError(QuantbenchError):
    """Bundle curvature disagrees with the scenario's presymplectic form;
    carries the residual 2-form."""

    def __init__(self, message, residual):
        super().__init__(message)
        self.residual = residual


class PerturbationRejectedError(QuantbenchError):
    """Perturbation hypothesis failed; names the offending generator."""

    def __init__(self, message, generator=None):
        super().__init__(message)
        self.generator = generator


class UnsupportedIntegrationError(QuantbenchError):
    """Representation integration requested outside the closed-form catalog."""


class UnsupportedFiberError(QuantbenchError):
    """Exact inner products are only available for the projective-line fiber."""


class SchemaError(QuantbenchError):
    """Scenario file failed schema validation."""


class UnknownScenarioError(QuantbenchError):
    """No catalog scenario has the requested name."""


class UnknownCheckError(QuantbenchError):
    """A check filter names neither a check id nor a stage."""
