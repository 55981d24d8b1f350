"""Moving-front geometry: level sets, surface calculus, patch quadrature."""

from .calculus import (
    delta_derivative_time,
    delta_shock_velocity,
    mean_curvature,
    normal,
    normal_speed,
    project_to_front,
    tangential_divergence,
    tangential_gradient,
)
from .fronts import (
    LevelSetFront,
    MovingPlaneFront,
    MovingSphereFront,
)
from .quadrature import (
    SurfacePatchQuadrature,
    gauss_panels,
    plane_chart,
    sphere_chart,
    surface_integral,
)
from .transport import (
    MovingBall,
    TransportReport,
    check_integration_by_parts,
    check_surface_transport,
    check_volume_transport,
)

__all__ = [
    "LevelSetFront",
    "MovingPlaneFront",
    "MovingSphereFront",
    "normal",
    "normal_speed",
    "delta_shock_velocity",
    "mean_curvature",
    "delta_derivative_time",
    "tangential_gradient",
    "tangential_divergence",
    "project_to_front",
    "SurfacePatchQuadrature",
    "gauss_panels",
    "sphere_chart",
    "plane_chart",
    "surface_integral",
    "TransportReport",
    "MovingBall",
    "check_surface_transport",
    "check_volume_transport",
    "check_integration_by_parts",
]
