"""Exception types shared across the package."""


class DShockError(Exception):
    """Base class for all package errors."""


class InvalidParameterError(DShockError):
    """A constructor or operation received an out-of-contract argument."""


class InvalidDimensionError(InvalidParameterError):
    """Requested spatial dimension is not supported."""


class OffSurfaceError(DShockError):
    """Query point is not on the front, even after one Newton projection."""


class DegenerateGradientError(DShockError):
    """Level-set gradient vanishes or is not finite at the query point."""


class StencilError(DShockError):
    """A finite-difference stencil left the evaluable domain."""


class EmptyQuadratureError(DShockError):
    """A surface patch quadrature has no nodes."""


class SupportViolationError(DShockError):
    """A test function's support touches or leaves the allowed box."""


class NoDeltaShockError(DShockError):
    """Riemann data admit no entropy-satisfying singular front."""


class AmbiguousRootError(DShockError):
    """More than one front speed satisfies the overcompression condition."""


class CausticError(DShockError):
    """Free-flow characteristics cross; the field inverse is multivalued."""


class StiffnessError(DShockError):
    """The front ODE integrator failed (step-size underflow or divergence)."""


class UndersamplingError(InvalidParameterError):
    """Too few particles requested for a meaningful discretization."""


class NotConvergedError(DShockError):
    """No dominant cluster emerged from the particle dynamics."""


class AuditInvalidError(DShockError):
    """Balance audit hypotheses are violated (support touches the box)."""


class UnsupportedFrontError(DShockError):
    """The weak-identity checker cannot resolve this front geometry."""


class InvalidBatteryError(DShockError):
    """Test-function battery parameters are out of contract."""


class NonFiniteOutputError(DShockError):
    """An output table or an audited functional holds a value that is not finite."""


class ScenarioError(DShockError):
    """Scenario file failed schema validation or refers to unknown keys."""


__all__ = [name for name, value in list(globals().items())
           if isinstance(value, type) and issubclass(value, DShockError)]
