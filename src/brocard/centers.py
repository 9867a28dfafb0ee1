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
    Circle,
    GeometryError,
    Point,
    SQRT3,
    Triangle,
    circumcircle,
    inversion_xy,
    line_direction,
    midpoint,
    three_point_center,
)


class EquilateralDegeneracyError(GeometryError):
    pass


class TriangleMetrics(NamedTuple):
    s1: float
    s2: float
    s3: float
    area: float
    lambda_: float
    circumradius: float


def _measure(t: Triangle) -> tuple[float, float, float, float]:
    """(s1, s2, s3, area): the float operations of ``t.sidelengths()`` and
    ``t.area()``, on scalars."""
    (ax, ay), (bx, by), (cx, cy) = t.A, t.B, t.C
    return (
        math.hypot(bx - cx, by - cy),
        math.hypot(cx - ax, cy - ay),
        math.hypot(ax - bx, ay - by),
        0.5 * ((bx - ax) * (cy - ay) - (by - ay) * (cx - ax)),
    )


def metrics(t: Triangle) -> TriangleMetrics:
    s1, s2, s3, area = _measure(t)
    lam = (s1 * s2) ** 2 + (s2 * s3) ** 2 + (s3 * s1) ** 2
    return TriangleMetrics(s1, s2, s3, area, lam, s1 * s2 * s3 / (4.0 * area))


def _omega(s1: float, s2: float, s3: float, area: float) -> float:
    try:
        lam = (s1 * s2) ** 2 + (s2 * s3) ** 2 + (s3 * s1) ** 2
    except OverflowError:
        raise GeometryError("Brocard angle out of range: lambda overflows") from None
    if lam == 0.0:
        raise GeometryError("Brocard angle out of range: lambda underflows")
    return math.asin(min(1.0, 2.0 * area / math.sqrt(lam)))


def brocard_angle(t: Triangle) -> float:
    """The common angle of Brocard's side-rotation construction.

    Returns omega = arcsin(2*area / sqrt(lambda)); always in (0, pi/6].
    """
    return _omega(*_measure(t))


def brocard_cotangent(t: Triangle) -> float:
    """cot(omega) = (s1^2 + s2^2 + s3^2) / (4*area), always >= sqrt(3)."""
    s1, s2, s3, area = _measure(t)
    return (s1 * s1 + s2 * s2 + s3 * s3) / (4.0 * area)


Meets = list[tuple[float, float]]


def _turned_sides(P0: Point, P1: Point, P2: Point, c: float, s: float) -> Meets:
    """The pairwise meets of three turned sides, lines (0, 1), (1, 2), (2, 0).

    Side i runs from P_i to P_(i+1), turned about P_i by the angle with
    cosine ``c`` and sine ``s``.  The float operations are those of
    ``Line(P_i, (P_(i+1) - P_i).rotated(angle))`` and of
    ``line_line_intersection``, written out as scalars.
    """
    bases = (P0, P1, P2)
    dirs = []
    for p, q in ((P0, P1), (P1, P2), (P2, P0)):
        dx, dy = q.x - p.x, q.y - p.y
        dirs.append(line_direction(c * dx - s * dy, s * dx + c * dy))
    meets = []
    for i, j in ((0, 1), (1, 2), (2, 0)):
        (ax, ay), (bx, by) = dirs[i], dirs[j]
        denom = ax * by - ay * bx
        if abs(denom) < 1e-14:
            raise GeometryError("lines are parallel")
        p, q = bases[i], bases[j]
        k = ((q.x - p.x) * by - (q.y - p.y) * bx) / denom
        meets.append((p.x + ax * k, p.y + ay * k))
    return meets


def _centroid(meets: Meets) -> Point:
    (x01, y01), (x12, y12), (x20, y20) = meets
    return Point((x01 + x12 + x20) / 3.0, (y01 + y12 + y20) / 3.0)


def _brocard_construction(t: Triangle, omega: float) -> tuple[Meets, Meets]:
    # First point: sides AB, BC, CA turned by +omega about A, B, C.  For a
    # counterclockwise triangle the positive turn sweeps each side into
    # the interior.  Second point: sides CB, BA, AC turned by -omega about
    # C, B, A.
    A, B, C = t.A, t.B, t.C
    first = _turned_sides(A, B, C, math.cos(omega), math.sin(omega))
    second = _turned_sides(C, B, A, math.cos(-omega), math.sin(-omega))
    return first, second


def brocard_points_by_construction(t: Triangle) -> tuple[Point, Point]:
    """Both Brocard points from the rotated-side construction.

    The first point comes from the +omega rotations, the second from the
    -omega rotations; on a counterclockwise triangle this matches the
    closed-form labels used by the porism scenes.
    """
    first, second = _brocard_construction(t, brocard_angle(t))
    return _centroid(first), _centroid(second)


def _symmedian(t: Triangle, s1: float, s2: float, s3: float) -> Point:
    w1, w2, w3 = s1 * s1, s2 * s2, s3 * s3
    total = w1 + w2 + w3
    (ax, ay), (bx, by), (cx, cy) = t.A, t.B, t.C
    return Point(
        (w1 * ax + w2 * bx + w3 * cx) / total,
        (w1 * ay + w2 * by + w3 * cy) / total,
    )


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


def _circle_on(X3: Point, X6: Point) -> Circle:
    gap = X3.dist(X6)
    if gap == 0.0:
        raise EquilateralDegeneracyError("equilateral degeneracy")
    return Circle(midpoint(X3, X6), 0.5 * gap)


def standard_centers(t: Triangle) -> StandardCenters:
    """The eight centers used by the porism scenes, and both Brocard
    points by construction (X39 is their midpoint).

    Pre: the triangle is not equilateral (X15, X16, X187, X574 degenerate
    there).  The triangle is measured once; every value has the float
    operations of the one-center functions above.
    """
    X3, r3 = circumcircle(t)
    s1, s2, s3, area = _measure(t)
    X6 = _symmedian(t, s1, s2, s3)
    first, second = _brocard_construction(t, _omega(s1, s2, s3, area))
    omega1, omega2 = _centroid(first), _centroid(second)
    u = (s1 * s1 + s2 * s2 + s3 * s3) / (4.0 * area)
    if u - SQRT3 <= 0.0:
        raise EquilateralDegeneracyError("equilateral degeneracy")
    # X15, X16 = (sqrt3*X3 +- u*X6) / (sqrt3 +- u)
    (x3, y3), (x6, y6) = X3, X6
    k15, k16 = 1.0 / (SQRT3 + u), 1.0 / (SQRT3 - u)
    X15 = Point((SQRT3 * x3 + u * x6) * k15, (SQRT3 * y3 + u * y6) * k15)
    X16 = Point((SQRT3 * x3 - u * x6) * k16, (SQRT3 * y3 - u * y6) * k16)
    X182, rk = _circle_on(X3, X6)
    X187 = inversion_xy(x3, y3, r3, x6, y6)
    X574 = inversion_xy(X182.x, X182.y, rk, X187.x, X187.y)
    return StandardCenters(
        X3, X6, X15, X16, midpoint(omega1, omega2), X182, X187, X574, omega1, omega2
    )


def second_brocard_triangle(t: Triangle) -> Triangle:
    """Triangle cut from the Brocard circle by the cevians through X6.

    Each cevian through X6 meets the circle on diameter X3 X6 at X6 and at
    one further point, which by Thales is the foot of the perpendicular
    from X3 onto the cevian.  When a cevian passes through X3 the foot is
    X3 itself, the limit of the neighboring members.  Each foot has the
    float operations of ``project_onto_line(Line.through(v, X6), X3)``.
    Vertices are reordered counterclockwise.
    """
    x3, y3 = three_point_center(*t)
    s1, s2, s3, _ = _measure(t)
    x6, y6 = _symmedian(t, s1, s2, s3)
    feet = []
    for vx, vy in t.vertices:
        if math.hypot(vx - x6, vy - y6) < 1e-14 * math.hypot(vx - x3, vy - y3):
            raise GeometryError("cevian undefined")
        ux, uy = line_direction(x6 - vx, y6 - vy)
        k = ux * (x3 - vx) + uy * (y3 - vy)
        feet.append(Point(vx + ux * k, vy + uy * k))
    return Triangle.oriented(*feet)
