"""Front tracking for delta-shocks in pressureless gas dynamics.

The package solves zero-pressure conservation systems whose Riemann
problems concentrate mass on moving discontinuity surfaces: it provides
the jump conditions and entropy test on arbitrary level-set fronts, exact
and integrated 1-D front paths for standard, relativistic and tabulated
velocity fluxes, spherically symmetric front ODEs in any dimension, an
independent sticky-particle oracle, global balance audits, and a weak-form
residual checker. The ``dshock`` console script drives JSON scenarios.
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
    from .balance import (
        BalanceReport,
        EnergyInequalityReport,
        audit,
        check_energy_inequality_1d,
        energy_dissipation_rate,
    )
    from .bumps import BumpFactor, TensorBump
    from .errors import (
        AmbiguousRootError,
        AuditInvalidError,
        CausticError,
        DShockError,
        InvalidBatteryError,
        InvalidDimensionError,
        InvalidParameterError,
        NoDeltaShockError,
        NotConvergedError,
        ScenarioError,
        StiffnessError,
        SupportViolationError,
        UndersamplingError,
        UnsupportedFrontError,
    )
    from .expressions import Expression, parse_expression
    from .fluxes import FluxModel, relativistic_flux, standard_flux, tabulated_flux
    from .rh import FrontState, RHDeficit, SideStates, deficits, entropy_ok, rh_residual
    from .riemann1d import (
        DeltaShockPath1D,
        RiemannData1D,
        admissible_front_speed,
        classical_shock_feasible,
        solve_constant_states,
    )
    from .solutions import (
        DeltaShockSolution1D,
        PlanarSolution,
        from_riemann,
        time_reversed,
        with_front_speed_offset,
    )
    from .spherical import (
        RadialField,
        SphericalFrontState,
        SphericalTrajectory,
        constant_field,
        expression_field,
        free_flow_field,
        integrate_front,
        radial_moment_integral,
        steady_converging_field,
        validate_field,
    )
    from .sticky_oracle import (
        ClusterReport,
        ParticleSystem,
        delta_cluster_estimate,
        radial_shells,
        sample_riemann,
        unit_sphere_area,
    )
    from .weakcheck import (
        TestFunctionBattery,
        WeakResidual,
        evaluate_identities,
        identity_value,
        make_battery,
    )
finally:
    if not _gc_frozen:
        gc.freeze()
        gc.unfreeze()
    if _gc_enabled:
        gc.enable()
    del _gc_enabled, _gc_frozen

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "geometry",
    # errors
    "DShockError",
    "InvalidParameterError",
    "InvalidDimensionError",
    "NoDeltaShockError",
    "AmbiguousRootError",
    "CausticError",
    "StiffnessError",
    "NotConvergedError",
    "UndersamplingError",
    "AuditInvalidError",
    "UnsupportedFrontError",
    "InvalidBatteryError",
    "SupportViolationError",
    "ScenarioError",
    # fluxes and expressions
    "FluxModel",
    "standard_flux",
    "relativistic_flux",
    "tabulated_flux",
    "Expression",
    "parse_expression",
    # jump conditions
    "SideStates",
    "FrontState",
    "RHDeficit",
    "deficits",
    "rh_residual",
    "entropy_ok",
    # 1-D fronts
    "RiemannData1D",
    "DeltaShockPath1D",
    "classical_shock_feasible",
    "admissible_front_speed",
    "solve_constant_states",
    "DeltaShockSolution1D",
    "PlanarSolution",
    "from_riemann",
    "time_reversed",
    "with_front_speed_offset",
    # spherical fronts
    "RadialField",
    "SphericalFrontState",
    "SphericalTrajectory",
    "constant_field",
    "free_flow_field",
    "expression_field",
    "steady_converging_field",
    "validate_field",
    "integrate_front",
    "radial_moment_integral",
    # particle oracle
    "ParticleSystem",
    "ClusterReport",
    "unit_sphere_area",
    "sample_riemann",
    "radial_shells",
    "delta_cluster_estimate",
    # balance and weak checks
    "BalanceReport",
    "audit",
    "energy_dissipation_rate",
    "EnergyInequalityReport",
    "check_energy_inequality_1d",
    "BumpFactor",
    "TensorBump",
    "TestFunctionBattery",
    "WeakResidual",
    "make_battery",
    "identity_value",
    "evaluate_identities",
]
