"""Numerical geometry of the Brocard porism.

Scenes of triangles inscribed in a circle and circumscribing the Brocard
inellipse, the second-Brocard-triangle recurrence between them, the
continuous one-parameter family sharing its isodynamic points, and a
residual-check suite over all of it, which ``import brocard`` loads only
when ``run_checks``, ``CheckReport`` or ``UnknownCheckFilterError`` is read.
"""

from .centers import (
    EquilateralDegeneracyError,
    StandardCenters,
    brocard_angle,
    brocard_cotangent,
    brocard_points_by_construction,
    second_brocard_triangle,
    standard_centers,
)
from .continuous import (
    T_CRITICAL,
    T_MAX,
    bt_scene,
    ellipse_Et,
    embed_step,
    envelope_points,
    family_extrema,
    t_from_u,
    u_from_t,
)
from .geom import (
    AxisAlignedEllipse,
    Circle,
    GeometryError,
    Line,
    Point,
    Pose,
    Triangle,
    circumcircle,
    invert_in_circle,
)
from .porism import (
    DegeneratePorismError,
    IsoscelesParams,
    ParametrizationSingularityError,
    PorismParams,
    PorismScene,
    Ru_from_axes,
    Ru_from_dh,
    closure_residuals,
    dh_from_Ru,
    scene_from_Ru,
    scene_member,
)
from .recurrence import (
    Direction,
    alternating_brocard_sequence,
    anti_scene,
    child_scene,
    orbit_scenes,
    step_backward,
    step_forward,
)

__version__ = "0.1.0"


def __getattr__(name: str) -> object:
    # only verify needs the check registry, so it loads on first use (PEP 562)
    if name in ("CheckReport", "UnknownCheckFilterError", "run_checks"):
        from . import checks

        return getattr(checks, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "AxisAlignedEllipse",
    "CheckReport",
    "Circle",
    "DegeneratePorismError",
    "Direction",
    "EquilateralDegeneracyError",
    "GeometryError",
    "IsoscelesParams",
    "Line",
    "ParametrizationSingularityError",
    "Point",
    "PorismParams",
    "PorismScene",
    "Pose",
    "Ru_from_axes",
    "Ru_from_dh",
    "StandardCenters",
    "T_CRITICAL",
    "T_MAX",
    "Triangle",
    "UnknownCheckFilterError",
    "alternating_brocard_sequence",
    "anti_scene",
    "brocard_angle",
    "brocard_cotangent",
    "brocard_points_by_construction",
    "bt_scene",
    "child_scene",
    "circumcircle",
    "closure_residuals",
    "dh_from_Ru",
    "ellipse_Et",
    "embed_step",
    "envelope_points",
    "family_extrema",
    "invert_in_circle",
    "orbit_scenes",
    "run_checks",
    "scene_from_Ru",
    "scene_member",
    "second_brocard_triangle",
    "standard_centers",
    "step_backward",
    "step_forward",
    "t_from_u",
    "u_from_t",
]
