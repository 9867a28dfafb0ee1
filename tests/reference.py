"""Object routes that ``brocard``'s scalar kernels replaced.

Each is the ``Point`` and ``Line`` arithmetic that a kernel now writes out
on scalars, in the same float operations and the same order; the tests
compare kernel and route with ``==`` and ``repr``, so every bit and the
sign of each zero must agree.  The pose maps of a circle and an ellipse,
and a pose's inverse, are likewise the routes that a posed scene's closed
forms and the recurrence's offsets replaced.  No command runs them, so
they live here, with the per-point route of a figure's polyline.
"""

import math

from brocard.continuous import (
    BELTRAMI_CENTERS,
    WebResiduals,
    _check_range,
    _web_field_sweep,
    brocard_circle_Kt,
    foci_Et,
)
from brocard.geom import (
    Circle,
    Ellipse,
    GeometryError,
    Line,
    Point,
    Pose,
    Triangle,
    tuple_new,
    worst,
)


def cross(p: Point, q: Point) -> float:
    return p.x * q.y - p.y * q.x


def through(p: Point, q: Point) -> Line:
    """The line from ``p`` toward ``q``."""
    return Line(p, q - p)


def point_at(line: Line, t: float) -> Point:
    return line.base + line.direction * t


def line_line_intersection(l1: Line, l2: Line) -> Point:
    """The meet of two lines; ``centers._turned_sides`` forms three at once."""
    denom = cross(l1.direction, l2.direction)
    if abs(denom) < 1e-14:
        raise GeometryError("lines are parallel")
    return point_at(l1, cross(l2.base - l1.base, l2.direction) / denom)


def sidelengths(t: Triangle) -> tuple[float, float, float]:
    """(s1, s2, s3) with s1 opposite A, s2 opposite B, s3 opposite C."""
    return t.B.dist(t.C), t.C.dist(t.A), t.A.dist(t.B)


def area(t: Triangle) -> float:
    """The signed area; with ``sidelengths``, the triangle's ``measure``."""
    return 0.5 * cross(t.B - t.A, t.C - t.A)


def apply_circle(pose: Pose, c: Circle) -> Circle:
    return Circle(pose.map_xy(c.center.x, c.center.y), pose.scale * c.radius)


def apply_ellipse(pose: Pose, e: Ellipse) -> Ellipse:
    """Map an ellipse at any pose: its center as a point and its axis as a
    direction, mirrored and then rotated as ``Pose.map_xy`` maps a point."""
    ux, uy = e.axis
    return Ellipse(
        pose.map_xy(e.center.x, e.center.y),
        pose.scale * e.semi_major,
        pose.scale * e.semi_minor,
        Point(-ux if pose.reflect_x else ux, uy).rotated(pose.rotation),
    )


def inverse(pose: Pose) -> Pose:
    """The pose that undoes ``pose``; ``recurrence._offset`` is its closed
    form on the recurrence's offsets."""
    inv_scale = 1.0 / pose.scale
    rotation = pose.rotation if pose.reflect_x else -pose.rotation
    # -0.0 + v is v bit for bit, so a (-0.0, -0.0) translation leaves
    # the linear part alone, signed zeros included.
    linear = Pose(tuple_new(Point, (-0.0, -0.0)), rotation, pose.reflect_x, inv_scale)
    t = pose.translation
    return Pose(linear.map_xy(-t.x, -t.y), rotation, pose.reflect_x, inv_scale)


def web_orthogonality_residuals(t: float, samples: int = 64) -> WebResiduals:
    """The conic web's residuals, with each point and gradient a ``Point``."""
    _check_range(t, closed_top=False)
    if samples < 3:
        raise ValueError("the web sweep needs samples >= 3")
    c, s = math.cos(t), math.sin(t)
    five = 5.0 - 4.0 * c
    deep, low = 3.0 * (2.0 * c - 1.0) / (2.0 * five), -3.0 * s / five
    # the deep points, then the foci, each with the center of its arc
    pts = zip(
        (tuple_new(Point, (-deep, low)), tuple_new(Point, (deep, low)), *foci_Et(t)),
        BELTRAMI_CENTERS * 2,
    )
    k = brocard_circle_Kt(t)
    inner_products = []
    membership = []
    for p, arc_center in pts:
        membership += (k.membership_residual(p), abs(p.dist(arc_center) - 1.0))
        grad_circle = p - arc_center
        grad_k = p - k.center
        inner_products.append(abs(grad_circle.dot(grad_k)) * 4.0)
    quartic_max_dev, axis_max_dev = _web_field_sweep(samples)
    return WebResiduals(
        point_inner_products=tuple(inner_products),
        point_membership_max=worst(membership),
        quartic_angle_max_dev=quartic_max_dev,
        axis_parallel_max_dev=axis_max_dev,
    )


def poly(canvas, tag: str, points, cls: str) -> None:
    """``figures._Canvas.poly`` point by point: each pair through the
    canvas's ``sx`` and ``sy`` and its own ``%``."""
    coords = " ".join("%.3f,%.3f" % (canvas.sx(x), canvas.sy(y)) for x, y in points)
    canvas.elements.append('<%s class="%s" points="%s"/>' % (tag, cls, coords))
