"""Moving-front geometry: level sets, surface calculus, patch quadrature."""

from .calculus import *
from .fronts import *
from .quadrature import *
from .transport import *

# Each module's __all__ declares its public names; this package exports them all.
__all__ = calculus.__all__ + fronts.__all__ + quadrature.__all__ + transport.__all__  # noqa: F405
