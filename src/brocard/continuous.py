"""A continuous one-parameter field of porisms sharing their isodynamic
points.

For t in (0, pi/3) the inellipse E_t has center (0, -sin t) and semi-axes
(sqrt(2cos t - 1)/2, sqrt((2cos t - 1)(1 - cos t)/2)); the porism around
it has Brocard angle t/2 and keeps X15 = (0, -sqrt(3)/2) and
X16 = (0, +sqrt(3)/2) fixed for every t.  A form with 1 - cos t in it
computes that as 2sin^2(t/2) or through tan(t/2), so it keeps its digits
as t nears 0.  The member at t is the posed porism scene :func:`bt_scene`
builds.  The Beltrami circles have unit radius about (-1/2, 0) and
(1/2, 0), the discrete recurrence embeds as a step t -> t' inside the
family, one fold checks E_t's envelope contacts on the envelope or on the
Brocard circle, and the ellipses and Brocard circles weave an orthogonal web
whose right-angle locus is the quartic 16x^4 + 8x^2 + 4y^2 - 3 = 0.
"""

from __future__ import annotations

import functools
import math
from typing import Callable, NamedTuple

from .geom import (
    Circle,
    Ellipse,
    GeometryError,
    Point,
    Pose,
    SQRT3,
    circle_nesting_slack,
    tuple_new,
    worst,
)
from .porism import PorismParams, PorismScene, scene_from_Ru

T_MAX = math.pi / 3.0
# Parameter of the member whose Brocard circle goes tangent to its own
# inellipse; beyond it the two no longer meet.
T_CRITICAL = math.acos(0.6)
# every member's isodynamic points, and the centers of its unit Beltrami
# circles, on which the inellipse foci ride
X15 = Point(0.0, -SQRT3 / 2.0)
X16 = Point(0.0, SQRT3 / 2.0)
BELTRAMI_CENTERS = (Point(-0.5, 0.0), Point(0.5, 0.0))


class WebResiduals(NamedTuple):
    point_inner_products: tuple[float, float, float, float]
    point_membership_max: float
    quartic_angle_max_dev: float
    axis_parallel_max_dev: float


class FamilyExtrema(NamedTuple):
    t_semi_minor_max: float
    semi_minor_max: float
    t_lower_vertex_min: float
    lower_vertex_min: Point


def _check_range(t: float, closed_top: bool = True) -> None:
    top_ok = t <= T_MAX if closed_top else t < T_MAX
    if not (0.0 < t and top_ok):
        raise GeometryError("t outside range")


def ellipse_Et(t: float) -> Ellipse:
    """Inellipse of the family member at t; a point at X15 when t = pi/3."""
    _check_range(t)
    major2, s = max(0.0, 2.0 * math.cos(t) - 1.0), math.sin(0.5 * t)
    # 1 - cos t = 2 s^2, split so that no s^2 underflows
    return Ellipse(
        tuple_new(Point, (0.0, -math.sin(t))),
        0.5 * math.sqrt(major2),
        math.sqrt(major2 * s) * math.sqrt(s),
    )


def eccentricity_Et(t: float) -> float:
    """Eccentricity sqrt(2cos t - 1) of E_t, twice its semi-major axis."""
    return 2.0 * ellipse_Et(t).semi_major


def foci_Et(t: float) -> tuple[Point, Point]:
    """The focus (cos t - 1/2, -sin t) of E_t and its mirror in the y axis."""
    _check_range(t)
    c, s = math.cos(t), math.sin(t)
    return tuple_new(Point, (c - 0.5, -s)), tuple_new(Point, (-(c - 0.5), -s))


def circumradius_Rt(t: float) -> float:
    """Circumradius sqrt((2cos t - 1)/(2(1 - cos t))) of the member at t,
    as sqrt(2cos t - 1)/(2sin(t/2))."""
    _check_range(t)
    s = math.sin(0.5 * t)
    # t = 5e-324 halves to 0.0; R_t has overflowed from t = 5.56e-309 down
    return math.sqrt(max(0.0, 2.0 * math.cos(t) - 1.0)) / (2.0 * s) if s else math.inf


def u_from_t(t: float) -> float:
    _check_range(t)
    return math.cos(0.5 * t) / math.sin(0.5 * t)


def t_from_u(u: float) -> float:
    # NaN fails both comparisons; u = inf would give t = 0
    if not SQRT3 <= u < math.inf:
        raise GeometryError("t outside range")
    return 2.0 * math.atan(1.0 / u)


def _params_at(t: float) -> PorismParams:
    u, s = u_from_t(t), math.sin(0.5 * t)
    # u^2 - 3 = 2(2cos t - 1)/(1 - cos t) = (2cos t - 1)/s^2 keeps the excess
    # well formed as t approaches pi/3, and no s^2 underflows as t nears 0
    excess = (2.0 * math.cos(t) - 1.0) / (s * (s * (u + SQRT3)))
    if excess <= 0.0:
        raise GeometryError("degenerate member")
    return PorismParams.from_excess(circumradius_Rt(t), excess)


def center_X3(t: float) -> Point:
    """Circumcenter (0, -sin t/(2(1 - cos t))) of the member at t, as
    (0, -1/(2tan(t/2)))."""
    _check_range(t)
    h = math.tan(0.5 * t)
    return tuple_new(Point, (0.0, -0.5 / h if h else -math.inf))


def bt_scene(t: float) -> PorismScene:
    """World-frame scene of the member at t.

    The canonical frame has the symmedian point below the circumcenter;
    here it sits above, so the pose mirrors the y axis (rotation pi plus
    the x mirror) before translating the circumcenter to X3(t).  Below
    t = 2.8e-103 the inellipse center overflows and the scene raises.
    """
    _check_range(t, closed_top=False)
    pose = Pose(translation=center_X3(t), rotation=math.pi, reflect_x=True)
    return scene_from_Ru(_params_at(t), pose)


def circumcircle_Gt(t: float) -> Circle:
    """Circumcircle of the member at t: center :func:`center_X3`, radius
    :func:`circumradius_Rt`; the circle ``bt_scene(t)`` reads, bit for bit."""
    return Circle(center_X3(t), circumradius_Rt(t))


def brocard_circle_Kt(t: float) -> Circle:
    _check_range(t)
    c, s = math.cos(t), math.sin(t)
    return Circle(tuple_new(Point, (0.0, (c - 2.0) / (2.0 * s))), (2.0 * c - 1.0) / (2.0 * s))


def embed_step(t: float) -> float:
    """Image of t under the porism recurrence, inside the family."""
    _check_range(t, closed_top=False)
    u = u_from_t(t)
    u2 = u * u
    if u2 == math.inf:
        raise GeometryError("embed_step overflows: cot(t/2)^2 is infinite below t = 1.5e-154")
    return t_from_u((u2 + 3.0) / (2.0 * u))


def envelope_points(t: float) -> tuple[Point, Point]:
    """Left and right contact points of E_t with the envelope 4x^2 + y^2 = 1.

    Real only while 5cos t >= 3, which holds up to T_CRITICAL itself and
    fails from the next double on; later members pull inside the
    envelope without touching it.
    """
    _check_range(t)
    c, s = math.cos(t), math.sin(t)
    radicand = 5.0 * c - 3.0
    if radicand < 0.0:
        raise GeometryError("no real envelope")
    x = math.sqrt(radicand) / (2.0 * math.sqrt(c + 1.0))
    y = -2.0 * s / (c + 1.0)
    return tuple_new(Point, (-x, y)), tuple_new(Point, (x, y))


def envelope_conic_residual(p: Point) -> float:
    """|4x^2 + y^2 - 1| at ``p``, zero on the envelope of the family."""
    return abs(4.0 * p.x * p.x + p.y * p.y - 1.0)


def _contact_residual(t: float, on_curve: Callable[[Point], float]) -> float:
    """Worst residual of both envelope contacts of E_t on ``on_curve`` and on E_t."""
    e = ellipse_Et(t)
    return worst(r for p in envelope_points(t) for r in (on_curve(p), e.implicit_residual(p)))


def envelope_residual(t: float) -> float:
    """Residual of both envelope contacts of E_t on the envelope and on E_t."""
    return _contact_residual(t, envelope_conic_residual)


def gamma_nesting_residual(t_small_circle: float, t_big_circle: float) -> float:
    """Slack of the circumcircle at the later parameter inside the earlier.

    Pre: 0 < t_big_circle < t_small_circle < pi/3; raises GeometryError
    otherwise.  Nonnegative up to rounding exactly when the circumcircle
    at ``t_small_circle`` nests inside the one at ``t_big_circle``; the
    circles shrink toward X15 as t grows.  The circles are the closed
    forms :func:`circumcircle_Gt`, so no scene is built: below
    t = 2.8e-103, where ``bt_scene`` raises, the slack is still finite,
    and only below about 5.56e-309, where R_t overflows (the ``continuous``
    command's t_min floor), does it raise ``circle requires a finite
    radius >= 0``.
    """
    if not 0.0 < t_big_circle < t_small_circle < T_MAX:
        raise GeometryError("t outside range")
    return circle_nesting_slack(circumcircle_Gt(t_small_circle), circumcircle_Gt(t_big_circle))


def foci_on_arcs_check(t: float) -> tuple[float, float]:
    """Distance defects of the two inellipse foci from their unit arcs.

    The focus :func:`foci_Et` lists first stays on the unit circle about
    (-1/2, 0) and its mirror on the unit circle about (1/2, 0).
    """
    return tuple(abs(f.dist(c) - 1.0) for f, c in zip(foci_Et(t), BELTRAMI_CENTERS))


def kt_inellipse_intersection_check(t: float) -> float:
    """Largest residual of the two K/E meeting points on both curves.

    Valid while t <= acos(3/5); at the boundary the two curves go tangent
    at (0, -1) and beyond it they separate.
    """
    if not 0.0 < t <= T_CRITICAL:
        raise GeometryError("t outside range")
    return _contact_residual(t, brocard_circle_Kt(t).membership_residual)


# The two Beltrami circles of the family, (x +- 1/2)^2 + y^2 = 1, and the
# Brocard-circle family in implicit form, drive the web computations.


def _circle_field_slope(x: float, y: float) -> float:
    den = 4.0 * x * x - 4.0 * y * y + 3.0
    if den == 0.0:
        raise GeometryError("circle field is vertical here")
    return 8.0 * x * y / den


def web_quartic(x: float, y: float) -> float:
    """16x^4 + 8x^2 + 4y^2 - 3, zero on the web's right-angle quartic."""
    return 16.0 * x ** 4 + 8.0 * x * x + 4.0 * y * y - 3.0


def _ellipse_field_slopes(x: float, y: float) -> tuple[float, ...]:
    """Real slopes of the inellipse family's implicit direction equation.

    The equation is quadratic in dy/dx; inside the envelope two members
    pass through each point, giving two slopes.  On the right-angle
    quartic the leading coefficient vanishes and the finite root is the
    meaningful one.
    """
    a = web_quartic(x, y)
    b = -8.0 * x * y * (4.0 * x * x - 1.0)
    c = 16.0 * x * x * y * y
    if b == 0.0 and c == 0.0:
        return (0.0,) if a != 0.0 else ()
    if abs(a) < 1e-13 * max(abs(b), abs(c), 1.0):
        return (-c / b,) if b != 0.0 else ()
    disc = b * b - 4.0 * a * c
    if disc < 0.0:
        return ()
    root = math.sqrt(disc)
    q = -0.5 * (b + math.copysign(root, b))
    if q == 0.0:
        return (0.0,)
    return tuple(sorted((q / a, c / q), key=abs))


def _angle_between_slopes(m1: float, m2: float) -> float:
    """Unsigned angle between direction fields with the given slopes."""
    return abs(math.atan2(m2 - m1, 1.0 + m1 * m2))


def _field_angle(x: float, y: float) -> float:
    """Angle between the inellipse field's first real slope and the circle
    field at (x, y); inf where the inellipse field has no real slope."""
    slopes = _ellipse_field_slopes(x, y)
    return _angle_between_slopes(slopes[0], _circle_field_slope(x, y)) if slopes else math.inf


def quartic_y(x: float) -> float:
    """Positive ordinate of the right-angle quartic at |x| < 1/2."""
    radicand = 3.0 - 8.0 * x * x - 16.0 * x ** 4
    if not radicand >= 0.0:
        raise GeometryError("outside the right-angle locus")
    return 0.5 * math.sqrt(radicand)


@functools.cache
def _web_field_sweep(samples: int) -> tuple[float, float]:
    """Worst right-angle deviation along the quartic and worst angle on
    the coordinate axes, over ``samples``-point grids; a point where the
    inellipse field has no real slope reads inf.

    Neither depends on the family parameter, so each grid is swept once
    per process.  Code that patches ``_ellipse_field_slopes``,
    ``_circle_field_slope``, ``_field_angle``, ``web_quartic`` or
    ``quartic_y`` must call ``cache_clear()``.
    """
    quartic_dev = []
    for i in range(1, samples):
        x = -0.48 + 0.96 * i / samples
        if abs(x) < 0.02:
            continue
        for sign in (-1.0, 1.0):
            y = sign * quartic_y(x)
            quartic_dev.append(abs(_field_angle(x, y) - 0.5 * math.pi))

    axis_dev = []
    for i in range(1, samples):
        y = -0.82 + 1.64 * i / samples
        # a point on the y axis, then one on the x axis
        for px, py in ((0.0, y), (0.04 + 0.44 * i / samples, 0.0)):
            axis_dev.append(_field_angle(px, py))
    return worst(quartic_dev), worst(axis_dev)


def web_point_residuals(t: float) -> tuple[tuple[float, float, float, float], float]:
    """The t-dependent half of the conic web: at parameter t the Brocard
    circle meets each Beltrami circle at one deep point and at one
    inellipse focus, where the gradients are orthogonal.  Returns the four
    inner products and the worst membership of those points, the first two
    fields of :class:`WebResiduals`."""
    _check_range(t, closed_top=False)
    c, s = math.cos(t), math.sin(t)
    five = 5.0 - 4.0 * c
    deep, low = 3.0 * (2.0 * c - 1.0) / (2.0 * five), -3.0 * s / five
    (kx, ky), kr = brocard_circle_Kt(t)
    inner_products = []
    membership = []
    # the deep points, then the foci, each with the center of its arc; g is
    # the arc's gradient there and h the Brocard circle's
    for (px, py), (ax, ay) in zip(((-deep, low), (deep, low), *foci_Et(t)), BELTRAMI_CENTERS * 2):
        gx, gy = px - ax, py - ay
        hx, hy = px - kx, py - ky
        membership += (abs(math.hypot(hx, hy) - kr), abs(math.hypot(gx, gy) - 1.0))
        inner_products.append(abs(gx * hx + gy * hy) * 4.0)
    return tuple(inner_products), worst(membership)


def web_orthogonality_residuals(t: float, samples: int = 64) -> WebResiduals:
    """Right-angle and tangency diagnostics of the conic web.

    :func:`web_point_residuals` at t, then what holds independently of t:
    the inellipse and Brocard-circle direction fields cross at right angles
    along the quartic 16x^4 + 8x^2 + 4y^2 = 3 and run parallel on both
    coordinate axes; those two sweeps take ``samples`` grid steps, at least
    3, so that neither is empty.
    """
    points = web_point_residuals(t)
    if samples < 3:
        raise ValueError("the web sweep needs samples >= 3")
    return tuple_new(WebResiduals, (*points, *_web_field_sweep(samples)))


def lower_vertex_y(t: float) -> float:
    """Ordinate of the bottom of E_t."""
    e = ellipse_Et(t)
    return e.center.y - e.semi_minor


def _central_difference(f, t: float) -> float:
    return (f(t + 1e-6) - f(t - 1e-6)) / 2e-6


def _bisect(f, lo: float, hi: float) -> float:
    """A root of ``f`` in [lo, hi], where f(lo) and f(hi) differ in sign.

    Halves the bracket down to width 1e-10 and returns its midpoint.
    """
    f_lo = f(lo)
    if not f_lo * f(hi) <= 0.0:
        raise GeometryError("root not bracketed")
    while hi - lo > 1e-10:
        mid = 0.5 * (lo + hi)
        f_mid = f(mid)
        if f_lo * f_mid > 0.0:
            lo, f_lo = mid, f_mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def family_extrema() -> FamilyExtrema:
    """Extremal members located numerically.

    Both extrema are found by bracketing a sign change of the central
    difference derivative and bisecting it, rather than by evaluating
    any closed-form location.
    """
    t_b = _bisect(
        lambda t: _central_difference(lambda s: ellipse_Et(s).semi_minor, t), 0.5, 0.9
    )
    t_v = _bisect(lambda t: _central_difference(lower_vertex_y, t), 0.8, 1.04)
    return FamilyExtrema(
        t_semi_minor_max=t_b,
        semi_minor_max=ellipse_Et(t_b).semi_minor,
        t_lower_vertex_min=t_v,
        lower_vertex_min=tuple_new(Point, (0.0, lower_vertex_y(t_v))),
    )
