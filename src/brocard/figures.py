"""Deterministic SVG figures of the porism, the cascade, and the family.

Each figure re-verifies the geometric facts it is about to draw and
raises :class:`FigureCheckError` when a residual is out of tolerance, so
a stale or broken build cannot emit a plausible-looking picture.  Output
is a pure function of the figure name and parameters: coordinates are
formatted to fixed precision and elements are emitted in a fixed order,
making reruns byte-identical.
"""

from __future__ import annotations

import math
from typing import Iterable

# the porism layer is shared by every figure; each figure imports the
# other layers it draws in its body, so rendering one loads only those
from .geom import Circle, Ellipse, GeometryError, Point, tuple_new, worst
from .porism import (
    FIXTURE,
    IsoscelesParams,
    PorismScene,
    Ru_from_dh,
    closure_residuals,
    scene_from_Ru,
    scene_member,
)

_STYLE = """\
.gamma { fill:none; stroke:#444444; stroke-width:1.2 }
.inellipse { fill:none; stroke:#1a6faf; stroke-width:1.2 }
.member { fill:none; stroke:#333333; stroke-width:1.0 }
.dashed { stroke-dasharray:5 4 }
.derived { fill:none; stroke:#b3541e; stroke-width:1.0 }
.brocard { fill:none; stroke:#7a2ca0; stroke-width:1.1 }
.beltrami-arc { fill:none; stroke:#0a7d50; stroke-width:1.3 }
.envelope { fill:none; stroke:#8a0f2d; stroke-width:1.4 }
.quartic { fill:none; stroke:#a86f00; stroke-width:1.1 }
.faint { opacity:0.45 }
.marker { fill:#111111; stroke:none }
.label { font-family:Georgia,serif; font-size:11px; fill:#111111 }"""


class FigureCheckError(GeometryError):
    """A pre-emission residual check failed."""


def _require(residual: float, tol: float, what: str) -> None:
    if not residual <= tol:
        raise FigureCheckError(f"{what}: residual {residual!r} exceeds {tol!r}")


class _Canvas:
    """World-to-pixel mapping with y pointing up in world coordinates."""

    width = 640.0

    def __init__(self, xmin: float, xmax: float, ymin: float, ymax: float) -> None:
        self.xmin, self.xmax, self.ymin, self.ymax = xmin, xmax, ymin, ymax
        self.scale = self.width / (xmax - xmin)
        self.height = self.scale * (ymax - ymin)
        self.elements: list[str] = []

    def sx(self, x: float) -> float:
        return (x - self.xmin) * self.scale

    def sy(self, y: float) -> float:
        return (self.ymax - y) * self.scale

    def circle(self, c: Circle, cls: str) -> None:
        self.elements.append(
            '<circle class="%s" cx="%.3f" cy="%.3f" r="%.3f"/>'
            % (cls, self.sx(c.center.x), self.sy(c.center.y), c.radius * self.scale)
        )

    def ellipse(self, e: Ellipse, cls: str) -> None:
        """An ellipse whose major axis is horizontal, as every drawn one is."""
        self.elements.append(
            '<ellipse class="%s" cx="%.3f" cy="%.3f" rx="%.3f" ry="%.3f"/>'
            % (
                cls,
                self.sx(e.center.x),
                self.sy(e.center.y),
                e.semi_major * self.scale,
                e.semi_minor * self.scale,
            )
        )

    def poly(self, tag: str, points: Iterable[tuple[float, float]], cls: str) -> None:
        """A ``polygon`` or ``polyline`` element through ``points``, any
        (x, y) pairs: the float operations of ``sx`` and ``sy``, formatted
        by one ``%``."""
        xmin, ymax, k = self.xmin, self.ymax, self.scale
        flat: list[float] = []
        for x, y in points:
            flat += ((x - xmin) * k, (ymax - y) * k)
        coords = " ".join(["%.3f,%.3f"] * (len(flat) // 2)) % tuple(flat)
        self.elements.append('<%s class="%s" points="%s"/>' % (tag, cls, coords))

    def arc(self, c: Circle, a0: float, a1: float, cls: str) -> None:
        """Arc of ``c`` from angle a0 to a1, counterclockwise in world terms."""
        p0, p1 = c.point_at(a0), c.point_at(a1)
        span = (a1 - a0) % (2.0 * math.pi)
        large = 1 if span > math.pi else 0
        r = c.radius * self.scale
        # world counterclockwise turns clockwise after the y flip
        self.elements.append(
            '<path class="%s" d="M %.3f %.3f A %.3f %.3f 0 %d 0 %.3f %.3f"/>'
            % (cls, self.sx(p0.x), self.sy(p0.y), r, r, large, self.sx(p1.x), self.sy(p1.y))
        )

    def marker(self, p: Point) -> None:
        self.elements.append(
            '<circle class="marker" cx="%.3f" cy="%.3f" r="2.4"/>'
            % (self.sx(p.x), self.sy(p.y))
        )

    def label(self, p: Point, text: str, dx: float, dy: float) -> None:
        self.elements.append(
            '<text class="label" x="%.3f" y="%.3f">%s</text>'
            % (self.sx(p.x) + dx, self.sy(p.y) + dy, text)
        )

    def named(self, p: Point, text: str, dx: float, dy: float) -> None:
        self.marker(p)
        self.label(p, text, dx, dy)

    def render(self) -> str:
        head = (
            '<svg xmlns="http://www.w3.org/2000/svg" width="%.0f" height="%.0f" '
            'viewBox="0 0 %.3f %.3f">' % (self.width, self.height, self.width, self.height)
        )
        parts = [head, "<style>", _STYLE, "</style>"]
        parts.extend(self.elements)
        parts.append("</svg>")
        return "\n".join(parts) + "\n"


def _beltrami_arcs(cv: _Canvas, root: PorismScene) -> None:
    """Angular windows around the Brocard-point cluster on each Beltrami circle."""
    c1, c2 = root.beltrami_circles()
    cv.arc(c1, math.radians(40.0), math.radians(70.0), "beltrami-arc")
    cv.arc(c2, math.radians(110.0), math.radians(140.0), "beltrami-arc")


# ---------------------------------------------------------------------------
# individual figures


_MEMBER_T = 0.85  # generic member parameter, clear of all symmetry axes


def fig_member(scene: PorismScene) -> str:
    """One porism member with its inellipse, Brocard circle, and derived triangle."""
    from .centers import brocard_cotangent, second_brocard_triangle
    from .recurrence import step_forward

    tri = scene_member(scene, _MEMBER_T)
    derived = second_brocard_triangle(tri)

    # length residuals are gated relative to R, so a scaled porism passes
    R = scene.params.R
    _require(worst(closure_residuals(scene, tri)) / R, 1e-10, "member tangency")
    stepped = step_forward(scene.params)
    _require(
        abs(brocard_cotangent(derived) - stepped.u), 1e-8, "derived cotangent"
    )
    _require(
        worst(scene.brocard_circle.membership_residual(v) for v in derived) / R,
        1e-10,
        "derived triangle on Brocard circle",
    )

    pad = 0.16 * R
    cv = _Canvas(-R - pad, R + pad, -R - pad, R + pad)
    cv.circle(scene.circumcircle, "gamma")
    cv.ellipse(scene.inellipse, "inellipse")
    cv.poly("polygon", tri, "member")
    cv.circle(scene.brocard_circle, "brocard")
    cv.poly("polygon", derived, "derived dashed")
    for p, name, dx, dy in (
        (scene.omega1, "&#937;1", 6.0, -4.0),
        (scene.omega2, "&#937;2", -24.0, -4.0),
        (scene.X3, "X3", 6.0, -4.0),
        (scene.X6, "X6", 6.0, 10.0),
        (scene.X15, "X15", 8.0, 4.0),
    ):
        cv.named(p, name, dx, dy)
    return cv.render()


def fig_cascade_triangles(root: PorismScene) -> str:
    """Three generations of member triangles with the two Beltrami arcs."""
    from .recurrence import alternating_brocard_sequence, orbit_scenes

    scenes = orbit_scenes(root, 3)
    first, second = alternating_brocard_sequence(scenes)
    c1, c2 = root.beltrami_circles()

    R = root.params.R
    _require(
        worst(c1.membership_residual(p) for p in first) / R, 1e-10, "first chain on arc"
    )
    _require(
        worst(c2.membership_residual(p) for p in second) / R, 1e-10, "second chain on arc"
    )

    cv = _Canvas(-1.8 * R, 1.8 * R, -1.7 * R, 1.5 * R)
    cv.circle(root.circumcircle, "gamma")
    for scene in scenes[:3]:
        tri = scene_member(scene, 0.5 * math.pi)
        cv.poly("polygon", tri, "member dashed")
    _beltrami_arcs(cv, root)
    for p in first[:3] + second[:3]:
        cv.marker(p)
    cv.label(root.omega1, "&#937;1", 6.0, -4.0)
    cv.label(root.omega2, "&#937;2", -24.0, -4.0)
    cv.named(root.X15, "X15", 8.0, 4.0)
    return cv.render()


def fig_cascade_circles(root: PorismScene) -> str:
    """Nested Brocard circles of successive generations, with the arcs."""
    from .recurrence import beltrami_orthogonality, brocard_nesting, orbit_scenes

    scenes = orbit_scenes(root, 4)
    R = root.params.R
    _require(worst(brocard_nesting(scenes)) / R, 1e-11, "Brocard circle nesting")
    # the orthogonality residual carries units of area
    _require(
        worst(beltrami_orthogonality(scenes)) / (R * R), 1e-10, "Beltrami orthogonality"
    )

    cv = _Canvas(-1.4 * R, 1.4 * R, -1.5 * R, 1.3 * R)
    cv.circle(root.circumcircle, "gamma")
    for scene in scenes:
        cv.circle(scene.brocard_circle, "brocard")
    _beltrami_arcs(cv, root)
    cv.named(root.X15, "X15", 8.0, 4.0)
    cv.named(root.X16, "X16", 8.0, -4.0)
    return cv.render()


_FAMILY_TS = (0.35, 0.55, 0.75, 0.95)


def fig_family() -> str:
    """Member ellipses and nested circumcircles of the continuous family."""
    from .continuous import (
        BELTRAMI_CENTERS,
        T_MAX,
        X15,
        X16,
        circumcircle_Gt,
        ellipse_Et,
        foci_on_arcs_check,
        gamma_nesting_residual,
    )

    for t in _FAMILY_TS:
        _require(worst(foci_on_arcs_check(t)), 1e-10, "foci on arcs")
    for earlier, later in zip(_FAMILY_TS, _FAMILY_TS[1:]):
        _require(-gamma_nesting_residual(later, earlier), 1e-10, "circumcircle nesting")

    cv = _Canvas(-3.0, 3.0, -5.9, 1.2)
    for t in _FAMILY_TS:
        cv.circle(circumcircle_Gt(t), "gamma faint")
    for t in _FAMILY_TS:
        cv.ellipse(ellipse_Et(t), "inellipse")
    # focus tracks: the unit circles about the Beltrami centers
    left, right = BELTRAMI_CENTERS
    cv.arc(Circle(left, 1.0), -T_MAX, -0.05, "beltrami-arc")
    cv.arc(Circle(right, 1.0), math.pi + 0.05, math.pi + T_MAX, "beltrami-arc")
    cv.named(X15, "X15", 8.0, 4.0)
    cv.named(X16, "X16", 8.0, -4.0)
    return cv.render()


_ENVELOPE_TS = (0.45, 0.65, 0.85)


def fig_envelope() -> str:
    """The fixed envelope, the orthogonality quartic, and the critical tangency."""
    from .continuous import (
        T_CRITICAL,
        brocard_circle_Kt,
        ellipse_Et,
        envelope_points,
        envelope_residual,
        kt_inellipse_intersection_check,
        quartic_y,
    )

    for t in _ENVELOPE_TS:
        _require(envelope_residual(t), 1e-10, "envelope contact")
    _require(
        kt_inellipse_intersection_check(T_CRITICAL), 1e-9, "critical tangency"
    )
    bottom = tuple_new(Point, (0.0, -1.0))
    p, q = envelope_points(T_CRITICAL)
    _require(worst((p.dist(bottom), q.dist(bottom))), 1e-9, "contact degeneracy")

    cv = _Canvas(-0.78, 0.78, -1.16, 1.02)
    n = 160
    oval = [
        (0.5 * math.cos(2.0 * math.pi * k / n), math.sin(2.0 * math.pi * k / n))
        for k in range(n + 1)
    ]
    cv.poly("polyline", oval, "envelope")
    xs = [-0.5 + k / 80 for k in range(81)]
    for sign in (1.0, -1.0):
        cv.poly("polyline", [(x, sign * quartic_y(x)) for x in xs], "quartic")
    for t in _ENVELOPE_TS:
        cv.ellipse(ellipse_Et(t), "inellipse faint")
        for p in envelope_points(t):
            cv.marker(p)
    cv.ellipse(ellipse_Et(T_CRITICAL), "inellipse")
    cv.circle(brocard_circle_Kt(T_CRITICAL), "brocard")
    cv.named(bottom, "contact", 8.0, 12.0)
    return cv.render()


FIGURES: dict[str, tuple[object, bool]] = {
    "fig2": (fig_member, True),
    "fig4": (fig_cascade_triangles, True),
    "fig5": (fig_cascade_circles, True),
    "fig6": (fig_family, False),
    "fig7": (fig_envelope, False),
}


def render_figure(name: str, iso: IsoscelesParams | None = None) -> str:
    """Render a named figure; ``iso`` only applies to the porism figures,
    and passing it to another raises a :class:`GeometryError` naming it."""
    fn, takes_iso = FIGURES[name]
    if takes_iso:
        scene = scene_from_Ru(Ru_from_dh(iso if iso is not None else FIXTURE))
        return fn(scene)  # type: ignore[operator]
    if iso is not None:
        raise GeometryError(f"{name} takes no porism parameters")
    return fn()  # type: ignore[operator]
