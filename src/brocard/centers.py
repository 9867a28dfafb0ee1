"""Triangle centers built around the Brocard configuration.

Kimberling indices name the classical centers: X3 circumcenter, X6
symmedian point, X15/X16 isodynamic points, X39 Brocard midpoint, X182
center of the Brocard circle, X187 the circumcircle inverse of X6, X574
the Brocard-circle inverse of X187.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .geom import (
    GeometryError,
    Point,
    SQRT3,
    Triangle,
    check_radius,
    inversion_xy,
    tuple_new,
    unit_xy,
)


class EquilateralDegeneracyError(GeometryError):
    pass


def _lambda(s1: float, s2: float, s3: float) -> float:
    return (s1 * s2) ** 2 + (s2 * s3) ** 2 + (s3 * s1) ** 2


def _omega(s1: float, s2: float, s3: float, area: float) -> float:
    try:
        lam = _lambda(s1, s2, s3)
    except OverflowError:
        raise GeometryError("Brocard angle out of range: lambda overflows") from None
    if lam == 0.0:
        raise GeometryError("Brocard angle out of range: lambda underflows")
    return math.asin(min(1.0, 2.0 * area / math.sqrt(lam)))


def brocard_angle(t: Triangle) -> float:
    """The common angle of Brocard's side-rotation construction.

    Returns omega = arcsin(2*area / sqrt(lambda)); always in (0, pi/6].
    """
    return _omega(*t.measure)


def _cotangent(s1: float, s2: float, s3: float, area: float) -> float:
    return (s1 * s1 + s2 * s2 + s3 * s3) / (4.0 * area)


def brocard_cotangent(t: Triangle) -> float:
    """cot(omega) = (s1^2 + s2^2 + s3^2) / (4*area), always >= sqrt(3)."""
    return _cotangent(*t.measure)


Meets = tuple[tuple[float, float], tuple[float, float], tuple[float, float]]


def _turned_sides(P0: Point, P1: Point, P2: Point, c: float, s: float) -> Meets:
    """The pairwise meets of three turned sides, lines (0, 1), (1, 2), (2, 0).

    Side i runs from P_i to P_(i+1), turned about P_i by the angle with
    cosine ``c`` and sine ``s``.  The float operations are those of
    ``Line(P_i, (P_(i+1) - P_i).rotated(angle))`` and of
    ``line_line_intersection`` in ``tests/reference.py``, on scalars.
    """
    (x0, y0), (x1, y1), (x2, y2) = P0, P1, P2
    dx0, dy0, dx1, dy1, dx2, dy2 = x1 - x0, y1 - y0, x2 - x1, y2 - y1, x0 - x2, y0 - y2
    ax, ay = c * dx0 - s * dy0, s * dx0 + c * dy0
    bx, by = c * dx1 - s * dy1, s * dx1 + c * dy1
    cx, cy = c * dx2 - s * dy2, s * dx2 + c * dy2
    ax, ay = unit_xy(ax, ay, math.hypot(ax, ay))
    bx, by = unit_xy(bx, by, math.hypot(bx, by))
    cx, cy = unit_xy(cx, cy, math.hypot(cx, cy))
    d01, d12, d20 = ax * by - ay * bx, bx * cy - by * cx, cx * ay - cy * ax
    if abs(d01) < 1e-14 or abs(d12) < 1e-14 or abs(d20) < 1e-14:
        raise GeometryError("lines are parallel")
    k01 = (dx0 * by - dy0 * bx) / d01
    k12 = (dx1 * cy - dy1 * cx) / d12
    k20 = (dx2 * ay - dy2 * ax) / d20
    return (
        (x0 + ax * k01, y0 + ay * k01),
        (x1 + bx * k12, y1 + by * k12),
        (x2 + cx * k20, y2 + cy * k20),
    )


def _centroid(meets: Meets) -> Point:
    (x01, y01), (x12, y12), (x20, y20) = meets
    return tuple_new(Point, ((x01 + x12 + x20) / 3.0, (y01 + y12 + y20) / 3.0))


def _brocard_construction(t: Triangle, omega: float) -> tuple[Meets, Meets]:
    # First point: sides AB, BC, CA turned by +omega about A, B, C.  For a
    # counterclockwise triangle the positive turn sweeps each side into
    # the interior.  Second point: sides CB, BA, AC turned by -omega about
    # C, B, A, whose cosine and sine are (c, -s) bit for bit.
    A, B, C = t
    c, s = math.cos(omega), math.sin(omega)
    return _turned_sides(A, B, C, c, s), _turned_sides(C, B, A, c, -s)


def brocard_points_by_construction(t: Triangle) -> tuple[Point, Point]:
    """Both Brocard points from the rotated-side construction.

    The first point comes from the +omega rotations, the second from the
    -omega rotations; on a counterclockwise triangle this matches the
    closed-form labels used by the porism scenes.
    """
    first, second = _brocard_construction(t, brocard_angle(t))
    return _centroid(first), _centroid(second)


class StandardCenters(NamedTuple):
    X3: Point
    X6: Point
    X15: Point
    X16: Point
    X39: Point
    X182: Point
    X187: Point
    X574: Point
    omega1: Point
    omega2: Point


def standard_centers(t: Triangle) -> StandardCenters:
    """The eight centers used by the porism scenes, and both Brocard
    points by construction (X39 is their midpoint).

    Pre: the triangle is not equilateral (X15, X16, X187, X574 degenerate
    there).  Straight-line code on scalars: the sides, area, X3 and X6 are
    the ones the triangle keeps, which :func:`second_brocard_triangle` reads
    too, the Brocard points are the centroids of
    :func:`_brocard_construction`'s meets, and a Point is built only for a
    returned center; every value and every raise is that of the object
    route (circumcircle, the circle on X3 X6 and its inversions, ``midpoint``).
    """
    A = t.A
    x3, y3 = X3 = t.circumcenter
    r3 = math.hypot(x3 - A.x, y3 - A.y)
    check_radius(r3)
    s1, s2, s3, area = t.measure
    x6, y6 = X6 = t.symmedian
    first, second = _brocard_construction(t, _omega(s1, s2, s3, area))
    (x01, y01), (x12, y12), (x20, y20) = first
    (x21, y21), (x10, y10), (x02, y02) = second
    o1x, o1y = (x01 + x12 + x20) / 3.0, (y01 + y12 + y20) / 3.0
    o2x, o2y = (x21 + x10 + x02) / 3.0, (y21 + y10 + y02) / 3.0
    u = _cotangent(s1, s2, s3, area)
    if u - SQRT3 <= 0.0:
        raise EquilateralDegeneracyError("equilateral degeneracy")
    # X15, X16 = (sqrt3*X3 +- u*X6) / (sqrt3 +- u)
    k15, k16 = 1.0 / (SQRT3 + u), 1.0 / (SQRT3 - u)
    X15 = tuple_new(Point, ((SQRT3 * x3 + u * x6) * k15, (SQRT3 * y3 + u * y6) * k15))
    X16 = tuple_new(Point, ((SQRT3 * x3 - u * x6) * k16, (SQRT3 * y3 - u * y6) * k16))
    # the Brocard circle, on diameter X3 X6, about X182
    gap = math.hypot(x3 - x6, y3 - y6)
    if gap == 0.0:
        raise EquilateralDegeneracyError("equilateral degeneracy")
    rk = 0.5 * gap
    check_radius(rk)
    kx, ky = 0.5 * (x3 + x6), 0.5 * (y3 + y6)
    X187 = inversion_xy(x3, y3, r3, x6, y6)
    X574 = inversion_xy(kx, ky, rk, *X187)
    return tuple_new(StandardCenters, (
        X3, X6, X15, X16,
        tuple_new(Point, (0.5 * (o1x + o2x), 0.5 * (o1y + o2y))), tuple_new(Point, (kx, ky)),
        X187, X574, tuple_new(Point, (o1x, o1y)), tuple_new(Point, (o2x, o2y)),
    ))


def second_brocard_triangle(t: Triangle) -> Triangle:
    """Triangle cut from the Brocard circle by the cevians through X6.

    Each cevian through X6 meets the circle on diameter X3 X6 at X6 and at
    one further point, which by Thales is the foot of the perpendicular
    from X3 onto the cevian.  When a cevian passes through X3 the foot is
    X3 itself, the limit of the neighboring members.  Each foot has the
    float operations of ``project_onto_line(through(v, X6), X3)`` (``tests/reference.py``).
    Vertices are reordered counterclockwise.
    """
    x3, y3 = t.circumcenter
    x6, y6 = t.symmedian
    A = t.A
    # every vertex lies on the circumcircle, so one radius bounds each cevian
    bound = 1e-14 * math.hypot(x3 - A.x, y3 - A.y)
    feet = []
    for vx, vy in t:
        dx, dy = x6 - vx, y6 - vy
        n = math.hypot(dx, dy)
        if n < bound:
            raise GeometryError("cevian undefined")
        ux, uy = unit_xy(dx, dy, n)
        k = ux * (x3 - vx) + uy * (y3 - vy)
        feet.append(tuple_new(Point, (vx + ux * k, vy + uy * k)))
    return Triangle.oriented(*feet)
