"""Numerical geometry of the Brocard porism.

Scenes of triangles inscribed in a circle and circumscribing the Brocard
inellipse, the second-Brocard-triangle recurrence between them, the
continuous one-parameter family sharing its isodynamic points, and a
residual-check suite over all of it.

``import brocard`` loads no submodule: each public name, and each
submodule, is imported when it is first read (PEP 562), so a command
compiles only the layers it runs.
"""

import sys

__version__ = "0.1.0"

_EXPORTS = {
    "centers": (
        "EquilateralDegeneracyError",
        "StandardCenters",
        "brocard_angle",
        "brocard_cotangent",
        "brocard_points_by_construction",
        "second_brocard_triangle",
        "standard_centers",
    ),
    "checks": ("CheckReport", "UnknownCheckFilterError", "run_checks"),
    "continuous": (
        "T_CRITICAL",
        "T_MAX",
        "bt_scene",
        "ellipse_Et",
        "embed_step",
        "envelope_points",
        "family_extrema",
        "t_from_u",
        "u_from_t",
    ),
    "geom": (
        "Circle",
        "Ellipse",
        "GeometryError",
        "Line",
        "Point",
        "Pose",
        "Triangle",
        "circumcircle",
        "invert_in_circle",
    ),
    "porism": (
        "DegeneratePorismError",
        "IsoscelesParams",
        "ParametrizationSingularityError",
        "PorismParams",
        "PorismScene",
        "Ru_from_dh",
        "closure_residuals",
        "dh_from_Ru",
        "scene_from_Ru",
        "scene_member",
    ),
    "recurrence": (
        "alternating_brocard_sequence",
        "anti_scene",
        "child_scene",
        "orbit_scenes",
        "step_backward",
        "step_forward",
    ),
}
_SUBMODULES = (*_EXPORTS, "cli", "figures")
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name: str) -> object:
    module = _HOME.get(name, name)
    if module not in _SUBMODULES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    path = f"{__name__}.{module}"
    __import__(path)
    value = sys.modules[path] if module == name else getattr(sys.modules[path], name)
    globals()[name] = value  # later reads skip this hook
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_SUBMODULES})
