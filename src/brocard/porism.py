"""Brocard porisms as first-class values.

A porism is the one-parameter family of triangles inscribed in a fixed
circumcircle and tangent to the Brocard inellipse.  A scene is (params,
pose).  Each stationary object (both conics, the Brocard points, which are
the inellipse foci, the isodynamic points, the Brocard circle and the
Beltrami points) is a closed form in (R, u).  The params derive their gap
sqrt(u^2 - 3) when built; the scene derives and checks its unit-scale sizes
(:func:`_unit_sizes`), from which the rest is computed on read, the
inellipse once, at its first read.  Once per porism, at its first member,
the scene keeps the t-independent terms of its isosceles chart
(:func:`_member_chart`); each member costs the terms in t and the pose's
map.  The canonical frame puts the circumcenter at the origin with the
symmedian point straight below it and the inellipse's major axis along +x;
``pose``, any similarity, maps that frame into world coordinates, and
every object a scene returns is world-frame.  X3, X39 and X182 are the
centers of the circumcircle, the inellipse and the Brocard circle.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .geom import (
    Circle,
    Ellipse,
    GeometryError,
    Point,
    Pose,
    SQRT3,
    Triangle,
    Validating,
    check_radius,
    check_semi_axes,
    lazy,
    tuple_new,
    unit_xy,
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
    derived quantities therefore go through the excess.  The constructor
    derives ``gap`` = sqrt(u^2 - 3) from the excess once and keeps it in
    the instance dict, outside the fields.
    """

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
        self = tuple_new(cls, (R, u, u_excess))
        self.__dict__["gap"] = math.sqrt(u_excess * (u_excess + 2.0 * SQRT3))
        return self

    @classmethod
    def from_excess(cls, R: float, excess: float) -> "PorismParams":
        return cls(R, SQRT3 + excess, excess)

    @property
    def omega(self) -> float:
        return math.atan2(1.0, self.u)


class _IsoscelesParams(NamedTuple):
    d: float
    h: float


class IsoscelesParams(Validating, _IsoscelesParams):
    """Half-base d and height h of the isosceles member, apex up."""

    def __new__(cls, d: float, h: float) -> "IsoscelesParams":
        if not (d > 0.0 and h > 0.0):
            raise DegeneratePorismError("degenerate porism")
        return tuple_new(cls, (d, h))

    @property
    def zeta(self) -> float:
        return self.d * self.d + self.h * self.h

    # the member chart, derived when the first member is drawn
    _chart = lazy(lambda self: _member_chart(self))


# the half-base 1, height 2 porism: the checks' worked example and the
# porism figures' default
FIXTURE = IsoscelesParams(1.0, 2.0)


def _unit_sizes(params: PorismParams) -> tuple[float, float, float, float]:
    """The inellipse's center y and semi-axes and the Brocard radius, at unit scale."""
    R, u, g, one_u2 = params.R, params.u, params.gap, 1.0 + params.u * params.u
    return -R * u * g / one_u2, R / math.sqrt(one_u2), 2.0 * R / one_u2, 0.5 * R * g / u


class _PorismScene(NamedTuple):
    params: PorismParams
    pose: Pose


class PorismScene(Validating, _PorismScene):
    """A porism, (R, u), and the pose of its canonical frame.

    Pre: R > 0 and u > sqrt(3) strictly; the equilateral limit has no
    Brocard inellipse with distinct foci.  The constructor checks the
    scalars the objects are built from, so the properties build them
    unchecked.  It keeps the unit-scale sizes ``_sizes`` outside the
    fields; the inellipse waits for its first read and the member chart
    for a member.
    """

    def __new__(cls, params: PorismParams, pose: Pose) -> "PorismScene":
        if params.R <= 0.0 or params.u_excess <= 0.0:
            raise DegeneratePorismError("degenerate porism")
        sizes = cy, a, b, r = _unit_sizes(params)
        k = pose.scale
        check_radius(k * params.R)
        # the semi-axes, as the inellipse checks them
        check_semi_axes(k * a, k * b)
        check_radius(k * r)
        # a, b and r passed above, scaled by k > 0; deep backward walks overflow the center
        if not math.isfinite(cy):
            raise DegeneratePorismError("degenerate porism")
        self = tuple_new(cls, (params, pose))
        self.__dict__["_sizes"] = sizes
        return self

    inellipse = lazy(lambda self: _inellipse(self))
    # the member chart scene_member draws from
    _member = lazy(lambda self: _member_chart(dh_from_Ru(self.params)))

    @property
    def circumcircle(self) -> Circle:
        pose = self.pose
        return tuple_new(Circle, (pose.map_xy(0.0, 0.0), pose.scale * self.params.R))

    def _focus(self, side: float) -> Point:
        p = self.params
        return self.pose.map_xy(side * p.R * p.gap / (1.0 + p.u * p.u), self._sizes[0])

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
        r = self._sizes[3]
        return tuple_new(Circle, (self.pose.map_xy(0.0, -r), self.pose.scale * r))

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


def _inellipse(scene: PorismScene) -> Ellipse:
    """The scene's inellipse, built from the sizes its constructor checked.
    Its major axis is canonical +x, whose image is (c, s), or (-c, -s)
    under the mirror: omega1 = X39 + focal*axis in every pose."""
    pose, (cy, a, b, _) = scene.pose, scene._sizes
    c, s, k, _, _, reflect_x = pose._map
    axis = tuple_new(Point, (-c, -s) if reflect_x else (c, s))
    return tuple_new(Ellipse, (pose.map_xy(0.0, cy), k * a, k * b, axis))


_IDENTITY = Pose.identity()


def scene_from_Ru(params: PorismParams, pose: Pose = _IDENTITY) -> PorismScene:
    """The scene of the porism with parameters (R, u), placed by ``pose``;
    it raises as :class:`PorismScene` does."""
    return PorismScene(params, pose)


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


def _member_chart(iso: IsoscelesParams) -> tuple[float, ...]:
    """The terms of :func:`_member_xy` that do not depend on t, each in the
    association order of its expression, at h in [0.5, 1): the chart is
    homogeneous of degree 1 in (d, h), so scaling back by ``up``, a power of
    two, is exact, and no intermediate of degree 6 under- or overflows."""
    k = min(max(math.frexp(iso.h)[1], -1022), 1023)
    down, up = math.ldexp(1.0, -k), math.ldexp(1.0, k)
    d, h = iso.d * down, iso.h * down
    d2, h2 = d * d, h * h
    zeta, h4, dh2, d2_3, d4_9 = d2 + h2, h2 * h2, 2.0 * d * h, 3.0 * d2, 9.0 * (d2 * d2)
    scale = d4_9 + 2.0 * d2 * h2 + h4
    # in the order _member_xy unpacks them
    return (up, zeta / (2.0 * h), zeta, -zeta * d, 2.0 * h, h2, h4, d2_3, d4_9, dh2, d2_3 + h2,
            dh2 * (d2_3 + h2), d4_9 - 2.0 * d2 * h2 + h4, dh2 * (d2_3 - h2), d4_9 - h4,
            scale, 1e-13 * scale)


def _member_xy(chart: tuple[float, ...], t: float) -> tuple[float, ...]:
    """The six vertex coordinates of the member at t, in chart order."""
    up, R, zeta, zd, h_2, h2, h4, d2_3, d4_9, c1, s1, c2, s2, c3, s3, scale, tiny = chart
    ct, st = math.cos(t), math.sin(t)
    den_b = c3 * ct - s3 * st + scale
    den_c = c3 * ct + s3 * st - scale
    if abs(den_b) < tiny or abs(den_c) < tiny:
        raise ParametrizationSingularityError("parametrization singularity")
    bx = zd * (c1 * ct + s1 * st - d2_3 + h2) / den_b
    by = zeta * (c2 * ct - s2 * st + d4_9 - h4) / (h_2 * den_b)
    cx = zd * (-c1 * ct + s1 * st - d2_3 + h2) / den_c
    cy = zeta * (c2 * ct + s2 * st - d4_9 + h4) / (h_2 * den_c)
    return R * ct * up, R * st * up, bx * up, by * up, cx * up, cy * up


def vertices_at(iso: IsoscelesParams, t: float) -> Triangle:
    """Member triangle of the porism at parameter t.

    The first vertex is R*(cos t, sin t); the other two come from rational
    trigonometric expressions in the isosceles chart, ``iso._chart``.
    Isolated t values make a denominator vanish (the member degenerates);
    those raise, and samplers should perturb t.  Vertices are reordered
    counterclockwise.
    """
    ax, ay, bx, by, cx, cy = _member_xy(iso._chart, t)
    return Triangle.oriented(tuple_new(Point, (ax, ay)), tuple_new(Point, (bx, by)),
                             tuple_new(Point, (cx, cy)))


def scene_member(scene: PorismScene, t: float) -> Triangle:
    """Member triangle of a scene in world coordinates: the chart's vertices
    mapped through the pose and then oriented."""
    ax, ay, bx, by, cx, cy = _member_xy(scene._member, t)
    pose = scene.pose
    return Triangle.oriented(pose.map_xy(ax, ay), pose.map_xy(bx, by), pose.map_xy(cx, cy))


def closure_residuals(scene: PorismScene, tri: Triangle) -> tuple[float, float, float]:
    """Tangency defect of each triangle side against the scene inellipse:
    the float operations of ``ellipse_line_tangency_residual(inellipse,
    through(P, Q))`` (``tests/reference.py``) for the sides AB, BC and CA, on scalars."""
    (ex, ey), a, b, (ux, uy) = scene.inellipse
    A, B, C = tri
    s1, s2, s3, _ = tri.measure
    out = []
    # each side's length as the triangle measured it, up to the sign of its operands
    for (px, py), (qx, qy), n in ((A, B, s3), (B, C, s1), (C, A, s2)):
        lx, ly = unit_xy(qx - px, qy - py, n)
        # the unit normal (-ly, lx): support value against offset
        offset = -ly * (px - ex) + lx * (py - ey)
        out.append(abs(math.hypot(a * (-ly * ux + lx * uy), b * (lx * ux - -ly * uy))
                       - abs(offset)))
    return tuple(out)
