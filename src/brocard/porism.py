"""Brocard porisms as first-class values.

A porism is the one-parameter family of triangles inscribed in a fixed
circumcircle and tangent to the Brocard inellipse.  A scene is (params,
pose).  Each stationary object (both conics, the Brocard points, which are
the inellipse foci, the isodynamic points, the Brocard circle and the
Beltrami points) is a closed form in (R, u), computed on read.  The
canonical frame puts the circumcenter at the origin with the symmedian
point straight below it; ``pose`` maps that frame into world coordinates,
and every object a scene returns is world-frame.  X3, X39 and X182 are
the centers of the circumcircle, the inellipse and the Brocard circle.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .geom import (
    AxisAlignedEllipse,
    Circle,
    GeometryError,
    MajorAxis,
    Point,
    Pose,
    SQRT3,
    Triangle,
    Validating,
    check_radius,
    check_semi_axes,
    line_direction,
)


class DegeneratePorismError(GeometryError):
    pass


class ParametrizationSingularityError(GeometryError):
    pass


class _PorismParams(NamedTuple):
    R: float
    u: float
    u_excess: float


class PorismParams(Validating, _PorismParams):
    """Circumradius R and Brocard cotangent u of a porism.

    ``u_excess`` stores u - sqrt(3) explicitly.  Deep iterates of the
    porism recurrence push u within one float spacing of sqrt(3), where
    u*u - 3 evaluated from ``u`` alone loses every significant digit; all
    derived quantities therefore go through the excess.
    """

    __slots__ = ()

    def __new__(cls, R: float, u: float, u_excess: float | None = None) -> "PorismParams":
        if u_excess is None:
            u_excess = u - SQRT3
        if not (math.isfinite(R) and R >= 0.0):
            raise DegeneratePorismError("degenerate porism")
        # an explicit excess may come with a u rounded an ulp or two below
        # sqrt(3) (the charts near the equilateral shape); farther below
        # there is no porism
        if not (math.isfinite(u) and u_excess >= 0.0 and u > SQRT3 - 1e-15):
            raise DegeneratePorismError("degenerate porism")
        # the charts and the recurrence land within 5 ulps of u; an excess
        # farther off describes another porism than u does
        if abs(u_excess - (u - SQRT3)) > 8.0 * math.ulp(u):
            raise DegeneratePorismError("inconsistent porism: u_excess disagrees with u - sqrt(3)")
        return tuple.__new__(cls, (R, u, u_excess))

    @classmethod
    def from_excess(cls, R: float, excess: float) -> "PorismParams":
        return cls(R, SQRT3 + excess, excess)

    @property
    def gap(self) -> float:
        """sqrt(u^2 - 3), formed from the excess so it survives u -> sqrt(3)."""
        e = self.u_excess
        return math.sqrt(e * (e + 2.0 * SQRT3))

    @property
    def sin_omega(self) -> float:
        return 1.0 / math.sqrt(1.0 + self.u * self.u)

    @property
    def omega(self) -> float:
        return math.atan2(1.0, self.u)


class _IsoscelesParams(NamedTuple):
    d: float
    h: float


class IsoscelesParams(Validating, _IsoscelesParams):
    """Half-base d and height h of the isosceles member, apex up."""

    __slots__ = ()

    def __new__(cls, d: float, h: float) -> "IsoscelesParams":
        if not (d > 0.0 and h > 0.0):
            raise DegeneratePorismError("degenerate porism")
        return tuple.__new__(cls, (d, h))

    @property
    def zeta(self) -> float:
        return self.d * self.d + self.h * self.h


# the half-base 1, height 2 porism: the checks' worked example and the
# porism figures' default
FIXTURE = IsoscelesParams(1.0, 2.0)


def _unit_sizes(params: PorismParams) -> tuple[float, float, float, float]:
    """The inellipse's center y and semi-axes and the Brocard radius, at unit scale."""
    R, u, g, one_u2 = params.R, params.u, params.gap, 1.0 + params.u * params.u
    return -R * u * g / one_u2, R / math.sqrt(one_u2), 2.0 * R / one_u2, 0.5 * R * g / u


class PorismScene(NamedTuple):
    """A porism, (R, u), and the pose of its canonical frame.  Each
    stationary object is computed when read; build through scene_from_Ru."""

    params: PorismParams
    pose: Pose

    @property
    def circumcircle(self) -> Circle:
        pose = self.pose
        return Circle(pose.map_xy(0.0, 0.0), pose.scale * self.params.R)

    def _inellipse_fields(self) -> tuple[Point, float, float, MajorAxis]:
        """The inellipse's center, semi-axes and major axis, as scene_from_Ru checked them."""
        pose, (cy, a, b, _) = self.pose, _unit_sizes(self.params)
        return (
            pose.map_xy(0.0, cy),
            pose.scale * a,
            pose.scale * b,
            pose.map_axis(MajorAxis.HORIZONTAL),
        )

    @property
    def inellipse(self) -> AxisAlignedEllipse:
        return AxisAlignedEllipse(*self._inellipse_fields())

    def _focus(self, side: float) -> Point:
        R, u, g = self.params.R, self.params.u, self.params.gap
        one_u2 = 1.0 + u * u
        return self.pose.map_xy(side * R * g / one_u2, -R * u * g / one_u2)

    @property
    def omega1(self) -> Point:
        return self._focus(1.0)

    @property
    def omega2(self) -> Point:
        return self._focus(-1.0)

    @property
    def X6(self) -> Point:
        p = self.params
        return self.pose.map_xy(0.0, -p.R * p.gap / p.u)

    @property
    def X15(self) -> Point:
        # X15 = (sqrt3*X3 + u*X6)/(sqrt3 + u) collapses to -R*(u - sqrt3)/g on
        # the axis; the excess form keeps it exact near the equilateral limit.
        p = self.params
        return self.pose.map_xy(0.0, -p.R * p.u_excess / p.gap)

    @property
    def X16(self) -> Point:
        p = self.params
        return self.pose.map_xy(0.0, -p.R * (SQRT3 + p.u) / p.gap)

    @property
    def brocard_circle(self) -> Circle:
        r = _unit_sizes(self.params)[3]
        return Circle(self.pose.map_xy(0.0, -r), self.pose.scale * r)

    @property
    def beltrami_P2(self) -> Point:
        p = self.params
        return self.pose.map_xy(-p.R / p.gap, -p.R * p.u / p.gap)

    @property
    def beltrami_U2(self) -> Point:
        p = self.params
        return self.pose.map_xy(p.R / p.gap, -p.R * p.u / p.gap)

    @property
    def X3(self) -> Point:
        return self.circumcircle.center

    @property
    def X39(self) -> Point:
        return self.inellipse.center

    @property
    def X182(self) -> Point:
        return self.brocard_circle.center

    @property
    def beltrami_radius(self) -> float:
        return 2.0 * self.params.R * self.pose.scale / self.params.gap

    def beltrami_circles(self) -> tuple[Circle, Circle]:
        """Circles about the Beltrami points through X15 and X16.

        The first, about P2, carries the first Brocard point; the second,
        about U2, carries the second.
        """
        rho = self.beltrami_radius
        return Circle(self.beltrami_P2, rho), Circle(self.beltrami_U2, rho)


def scene_from_Ru(params: PorismParams, pose: Pose = Pose.identity()) -> PorismScene:
    """The scene of the porism with parameters (R, u), placed by ``pose``.

    Pre: R > 0 and u > sqrt(3) strictly; the equilateral limit has no
    Brocard inellipse with distinct foci.  The scalars the objects are
    built from are checked here, so no object raises on read.
    """
    if params.R <= 0.0 or params.u_excess <= 0.0:
        raise DegeneratePorismError("degenerate porism")
    _, a, b, r = _unit_sizes(params)
    check_radius(pose.scale * params.R)
    pose.map_axis(MajorAxis.HORIZONTAL)
    check_semi_axes(pose.scale * a, pose.scale * b)
    check_radius(pose.scale * r)
    return PorismScene(params, pose)


def Ru_from_axes(a: float, b: float) -> PorismParams:
    """Porism parameters from the inellipse semi-axes: R = 2a^2/b."""
    if not (a > 0.0 and b > 0.0) or b > a:
        raise GeometryError("not a Brocard inellipse shape")
    u = math.sqrt(4.0 * a * a - b * b) / b
    # u - sqrt3 = (u^2 - 3)/(u + sqrt3) with u^2 - 3 = 4(a - b)(a + b)/b^2.
    excess = 4.0 * (a - b) * (a + b) / (b * b * (u + SQRT3))
    return PorismParams(2.0 * a * a / b, u, excess)


def dh_from_Ru(params: PorismParams) -> IsoscelesParams:
    """Isosceles chart of the porism: half-base and height of the apex-up member.

    The shape ratio h/d determines u two-to-one; of the pair this returns
    the tall representative (h > sqrt3 d), the one whose symmedian point
    sits below the circumcenter as in the canonical frame.  Flat shapes
    fed to :func:`Ru_from_dh` describe the mirror-image porism.
    """
    R, u = params.R, params.u
    if R <= 0.0 or params.u_excess <= 0.0:
        raise DegeneratePorismError("degenerate porism")
    g = params.gap
    one_u2 = 1.0 + u * u
    return IsoscelesParams(
        d=(2.0 * u - g) * R / one_u2,
        h=(u * u + u * g + 3.0) * R / one_u2,
    )


def Ru_from_dh(iso: IsoscelesParams) -> PorismParams:
    d, h = iso.d, iso.h
    dh2 = 2.0 * d * h
    if dh2 == 0.0:
        raise DegeneratePorismError("porism chart underflows: 2*d*h is zero")
    u = (3.0 * d * d + h * h) / dh2
    # 3d^2 + h^2 - 2 sqrt3 d h = (sqrt3 d - h)^2, so the excess is exact.
    t = SQRT3 * d - h
    return PorismParams(iso.zeta / (2.0 * h), u, t * t / dh2)


def vertices_at(iso: IsoscelesParams, t: float) -> Triangle:
    """Member triangle of the porism at parameter t.

    The first vertex is R*(cos t, sin t); the other two come from rational
    trigonometric expressions in the isosceles chart.  Isolated t values
    make a denominator vanish (the member degenerates); those raise, and
    samplers should perturb t.  Vertices are reordered counterclockwise.

    The chart is homogeneous of degree 1 in (d, h): it is evaluated at h in
    [0.5, 1) and scaled back by a power of two, which is exact, so no
    intermediate of degree 6 under- or overflows at any normal scale.
    """
    k = min(max(math.frexp(iso.h)[1], -1022), 1023)
    down, up = math.ldexp(1.0, -k), math.ldexp(1.0, k)
    d, h = iso.d * down, iso.h * down
    d2, h2 = d * d, h * h
    zeta = d2 + h2
    d4, h4 = d2 * d2, h2 * h2
    ct, st = math.cos(t), math.sin(t)
    R = zeta / (2.0 * h)

    scale = 9.0 * d4 + 2.0 * d2 * h2 + h4
    den_b = 2.0 * d * h * (3.0 * d2 - h2) * ct - (9.0 * d4 - h4) * st + scale
    den_c = 2.0 * d * h * (3.0 * d2 - h2) * ct + (9.0 * d4 - h4) * st - scale
    if abs(den_b) < 1e-13 * scale or abs(den_c) < 1e-13 * scale:
        raise ParametrizationSingularityError("parametrization singularity")

    bx = -zeta * d * (2.0 * d * h * ct + (3.0 * d2 + h2) * st - 3.0 * d2 + h2) / den_b
    by = (
        zeta
        * (2.0 * d * h * (3.0 * d2 + h2) * ct - (9.0 * d4 - 2.0 * d2 * h2 + h4) * st + 9.0 * d4 - h4)
        / (2.0 * h * den_b)
    )
    cx = -zeta * d * (-2.0 * d * h * ct + (3.0 * d2 + h2) * st - 3.0 * d2 + h2) / den_c
    cy = (
        zeta
        * (2.0 * d * h * (3.0 * d2 + h2) * ct + (9.0 * d4 - 2.0 * d2 * h2 + h4) * st - 9.0 * d4 + h4)
        / (2.0 * h * den_c)
    )
    return Triangle.oriented(
        Point(R * ct * up, R * st * up), Point(bx * up, by * up), Point(cx * up, cy * up)
    )


_IDENTITY = Pose.identity()


def scene_member(scene: PorismScene, t: float) -> Triangle:
    """Member triangle of a posed scene, in world coordinates; on a canonical
    scene, the chart's own triangle."""
    tri = vertices_at(dh_from_Ru(scene.params), t)
    pose = scene.pose
    if pose == _IDENTITY:
        return tri
    (ax, ay), (bx, by), (cx, cy) = tri
    return Triangle.oriented(pose.map_xy(ax, ay), pose.map_xy(bx, by), pose.map_xy(cx, cy))


def closure_residuals(scene: PorismScene, tri: Triangle) -> tuple[float, float, float]:
    """Tangency defect of each triangle side against the scene inellipse:
    the float operations of ``ellipse_line_tangency_residual(inellipse,
    Line.through(P, Q))`` for the sides AB, BC and CA, on scalars."""
    (ex, ey), major, minor, axis = scene._inellipse_fields()
    ax, ay = (major, minor) if axis is MajorAxis.HORIZONTAL else (minor, major)
    A, B, C = tri.A, tri.B, tri.C
    out = []
    for (px, py), (qx, qy) in ((A, B), (B, C), (C, A)):
        ux, uy = line_direction(qx - px, qy - py)
        # the unit normal (-uy, ux): support value against offset
        offset = -uy * (px - ex) + ux * (py - ey)
        out.append(abs(math.hypot(ax * -uy, ay * ux) - abs(offset)))
    return tuple(out)
