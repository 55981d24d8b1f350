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
    ExpressionFront,
    LevelSetFront,
    MovingPlaneFront,
    MovingSphereFront,
    front_from_spec,
)
from .quadrature import (
    SurfacePatchQuadrature,
    circle_chart,
    gauss_panels,
    plane_chart,
    sphere_chart,
    surface_integral,
)
from .transport import (
    Box,
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
    "ExpressionFront",
    "front_from_spec",
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
    "circle_chart",
    "sphere_chart",
    "plane_chart",
    "surface_integral",
    "TransportReport",
    "MovingBall",
    "Box",
    "check_surface_transport",
    "check_volume_transport",
    "check_integration_by_parts",
]
