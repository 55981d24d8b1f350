"""Each public name is declared once, in its module's ``__all__``.

``dshock`` and ``dshock.geometry`` build their own ``__all__`` from the
lists of the modules they republish, so nothing else lists a public name.
"""

import importlib

import pytest

# Package, the names it declares itself, and the modules it republishes.
_PACKAGES = {
    "dshock": (
        ["__version__", "geometry"],
        ["balance", "bumps", "errors", "expressions", "fluxes", "rh", "riemann1d",
         "solutions", "spherical", "sticky_oracle", "weakcheck"],
    ),
    "dshock.geometry": ([], ["calculus", "fronts", "quadrature", "transport"]),
}

# The exports before they were built from the modules' lists, less the
# DeltaShockPath1D and from_riemann that solve_constant_states replaced.
_EXPORTED = {
    "dshock": set(
        """
        AmbiguousRootError AuditInvalidError BalanceReport BumpFactor CausticError ClusterReport
        DShockError DeltaShockSolution1D EnergyInequalityReport Expression
        FluxModel FrontState InvalidBatteryError InvalidDimensionError InvalidParameterError
        NoDeltaShockError NotConvergedError ParticleSystem PlanarSolution RHDeficit RadialField
        RiemannData1D ScenarioError SideStates SphericalFrontState SphericalTrajectory
        StiffnessError SupportViolationError TensorBump TestFunctionBattery UndersamplingError
        UnsupportedFrontError WeakResidual __version__ admissible_front_speed audit
        check_energy_inequality_1d classical_shock_feasible constant_field deficits
        delta_cluster_estimate energy_dissipation_rate entropy_ok evaluate_identities
        expression_field free_flow_field geometry identity_value integrate_front
        make_battery parse_expression radial_moment_integral radial_shells relativistic_flux
        rh_residual sample_riemann solve_constant_states standard_flux steady_converging_field
        tabulated_flux time_reversed unit_sphere_area validate_field with_front_speed_offset
        """.split()
    ),
    "dshock.geometry": set(
        """
        LevelSetFront MovingBall MovingPlaneFront MovingSphereFront SurfacePatchQuadrature
        TransportReport check_integration_by_parts check_surface_transport
        check_volume_transport delta_derivative_time delta_shock_velocity gauss_panels
        mean_curvature normal normal_speed plane_chart project_to_front sphere_chart
        surface_integral tangential_divergence tangential_gradient
        """.split()
    ),
}

# The error classes dshock left out while it listed its exports by hand.
_ADDED = {
    "dshock": {
        "OffSurfaceError", "DegenerateGradientError", "StencilError", "EmptyQuadratureError",
        "NonFiniteOutputError",
    },
    "dshock.geometry": set(),
}


@pytest.mark.parametrize("name", sorted(_PACKAGES))
def test_all_is_the_concatenation_of_the_module_lists(name):
    own, modules = _PACKAGES[name]
    package = importlib.import_module(name)
    expected = list(own)
    for module in modules:
        expected += importlib.import_module(f"{name}.{module}").__all__
    assert package.__all__ == expected
    assert len(set(expected)) == len(expected)


@pytest.mark.parametrize("name", sorted(_PACKAGES))
def test_every_exported_name_resolves_and_star_binds_exactly_them(name):
    package = importlib.import_module(name)
    for public in package.__all__:
        assert getattr(package, public) is not None, public
    namespace = {}
    exec(f"from {name} import *", namespace)
    namespace.pop("__builtins__")
    assert set(namespace) == set(package.__all__)


@pytest.mark.parametrize("name", sorted(_PACKAGES))
def test_exports_are_the_hand_kept_set_plus_the_missing_errors(name):
    exported = set(importlib.import_module(name).__all__)
    assert exported == _EXPORTED[name] | _ADDED[name]


def test_errors_exports_every_package_error():
    from dshock import errors

    classes = {
        n for n, v in vars(errors).items() if isinstance(v, type) and issubclass(v, Exception)
    }
    assert set(errors.__all__) == classes
