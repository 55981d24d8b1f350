"""Front tracking for delta-shocks in pressureless gas dynamics.

The package solves zero-pressure conservation systems whose Riemann
problems concentrate mass on moving discontinuity surfaces: it provides
the jump conditions and entropy test on arbitrary level-set fronts, exact
1-D front paths for standard, relativistic and tabulated velocity fluxes,
spherically symmetric front ODEs in any dimension, an independent
sticky-particle oracle, global balance audits, and a weak-form residual
checker. The ``dshock`` console script drives JSON scenarios.
"""

import gc

# Nothing the imports below create is garbage, yet with the cyclic GC running
# it walks their growing heap about 140 times. Pause it for the imports, then
# move every object into the oldest generation so later young collections
# skip them. The GC is left as it was found: enabled or not, and with
# nothing newly frozen (a heap the caller froze before stays frozen).
_gc_enabled, _gc_frozen = gc.isenabled(), gc.get_freeze_count()
gc.disable()
try:
    from . import geometry
    from .balance import *
    from .bumps import *
    from .errors import *
    from .expressions import *
    from .fluxes import *
    from .rh import *
    from .riemann1d import *
    from .solutions import *
    from .spherical import *
    from .sticky_oracle import *
    from .weakcheck import *
finally:
    if not _gc_frozen:
        gc.freeze()
        gc.unfreeze()
    if _gc_enabled:
        gc.enable()
    del _gc_enabled, _gc_frozen

__version__ = "0.1.0"

# A public name is declared once, in its module's __all__. The star imports
# above bound each submodule as well as its names.
__all__ = ["__version__", "geometry"] + [
    name
    for module in (balance, bumps, errors, expressions, fluxes, rh, riemann1d,  # noqa: F405
                   solutions, spherical, sticky_oracle, weakcheck)  # noqa: F405
    for name in module.__all__
]
