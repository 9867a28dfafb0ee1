"""Planar primitives: points, lines, circles, axis-aligned ellipses,
triangles, and rigid-or-similar poses.

Everything here is immutable and every operation is a pure function, so
values can be shared freely between checks.  Value types are
``NamedTuple``s, each equal to the plain tuple of its fields; a type that
validates its input does so in ``__new__``.  Residual helpers return a
nonnegative defect instead of a bare boolean; callers compare it against
their own tolerances.
"""

from __future__ import annotations

import enum
import math
from typing import Iterable, NamedTuple


class GeometryError(ValueError):
    """A geometric precondition failed."""


class DegenerateTriangleError(GeometryError):
    pass


class InversionPoleError(GeometryError):
    pass


class Point(NamedTuple):
    """A plane vector.

    A tuple, so it is immutable and cheap to build, and it equals the
    plain tuple ``(x, y)``; ``+``, ``*`` and unary ``-`` are vector
    arithmetic, never tuple concatenation or repetition.
    """

    x: float
    y: float

    def __add__(self, other: "Point") -> "Point":
        return Point(self.x + other.x, self.y + other.y)

    def __sub__(self, other: "Point") -> "Point":
        return Point(self.x - other.x, self.y - other.y)

    def __mul__(self, k: float) -> "Point":
        return Point(self.x * k, self.y * k)

    __rmul__ = __mul__

    def __neg__(self) -> "Point":
        return Point(-self.x, -self.y)

    def dot(self, other: "Point") -> float:
        return self.x * other.x + self.y * other.y

    def cross(self, other: "Point") -> float:
        return self.x * other.y - self.y * other.x

    def norm(self) -> float:
        return math.hypot(self.x, self.y)

    def dist(self, other: "Point") -> float:
        return math.hypot(self.x - other.x, self.y - other.y)

    def rotated(self, angle: float) -> "Point":
        c, s = math.cos(angle), math.sin(angle)
        return Point(c * self.x - s * self.y, s * self.x + c * self.y)


ORIGIN = Point(0.0, 0.0)
SQRT3 = math.sqrt(3.0)


class Validating:
    """Base of the value types that validate in ``__new__``: ``_make``, and
    so ``_replace``, builds through that ``__new__``, not ``tuple.__new__``."""

    __slots__ = ()

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)


def midpoint(p: Point, q: Point) -> Point:
    return Point(0.5 * (p.x + q.x), 0.5 * (p.y + q.y))


def line_direction(dx: float, dy: float) -> tuple[float, float]:
    """Unit vector along (dx, dy), as ``Line`` stores it; kernels that
    build no line call this directly.  Rejects zero and non-finite
    vectors and leaves one within 1e-14 of unit length as it is."""
    n = math.hypot(dx, dy)
    if not n > 0.0 or not math.isfinite(n):
        raise GeometryError("line requires a nonzero direction")
    if abs(n - 1.0) > 1e-14:
        inv = 1.0 / n
        return dx * inv, dy * inv
    return dx, dy


class _Line(NamedTuple):
    base: Point
    direction: Point


class Line(Validating, _Line):
    """Line through ``base`` with unit ``direction``.

    The constructor normalizes the direction and rejects zero vectors.
    """

    __slots__ = ()

    def __new__(cls, base: Point, direction: Point) -> "Line":
        return tuple.__new__(cls, (base, Point(*line_direction(*direction))))

    @classmethod
    def through(cls, p: Point, q: Point) -> "Line":
        return cls(p, q - p)

    def normal(self) -> Point:
        """Unit normal, the direction rotated a quarter turn left."""
        return Point(-self.direction.y, self.direction.x)

    def point_at(self, t: float) -> Point:
        return self.base + self.direction * t


def check_radius(radius: float) -> None:
    """Reject what ``Circle`` rejects, without building one."""
    if not radius >= 0.0 or not math.isfinite(radius):
        raise GeometryError("circle requires a finite radius >= 0")


class _Circle(NamedTuple):
    center: Point
    radius: float


class Circle(Validating, _Circle):
    __slots__ = ()

    def __new__(cls, center: Point, radius: float) -> "Circle":
        check_radius(radius)
        return tuple.__new__(cls, (center, radius))

    def point_at(self, theta: float) -> Point:
        return self.center + Point(math.cos(theta), math.sin(theta)) * self.radius

    def membership_residual(self, p: Point) -> float:
        return abs(p.dist(self.center) - self.radius)


def check_semi_axes(semi_major: float, semi_minor: float) -> None:
    """Reject what ``AxisAlignedEllipse`` rejects, without building one."""
    if not (math.isfinite(semi_major) and math.isfinite(semi_minor)):
        raise GeometryError("ellipse semi-axes must be finite")
    if semi_minor < 0.0 or semi_major + 1e-15 * abs(semi_major) < semi_minor:
        raise GeometryError("ellipse requires semi_major >= semi_minor >= 0")


class MajorAxis(enum.Enum):
    HORIZONTAL = "horizontal"
    VERTICAL = "vertical"


class _AxisAlignedEllipse(NamedTuple):
    center: Point
    semi_major: float
    semi_minor: float
    major_axis: MajorAxis


class AxisAlignedEllipse(Validating, _AxisAlignedEllipse):
    """Ellipse with axes parallel to the coordinate axes.

    ``semi_major >= semi_minor >= 0``; equal axes give a circle and a zero
    pair gives a point, both of which occur as limits of the families built
    on top of this type.
    """

    __slots__ = ()

    def __new__(cls, center: Point, semi_major: float, semi_minor: float,
                major_axis: MajorAxis = MajorAxis.HORIZONTAL) -> "AxisAlignedEllipse":
        check_semi_axes(semi_major, semi_minor)
        return tuple.__new__(cls, (center, semi_major, semi_minor, major_axis))

    def axes_xy(self) -> tuple[float, float]:
        """Semi-axis lengths along x and along y."""
        if self.major_axis is MajorAxis.HORIZONTAL:
            return self.semi_major, self.semi_minor
        return self.semi_minor, self.semi_major

    def point_at(self, theta: float) -> Point:
        ax, ay = self.axes_xy()
        return self.center + Point(ax * math.cos(theta), ay * math.sin(theta))

    def tangent_direction_at(self, theta: float) -> Point:
        ax, ay = self.axes_xy()
        return Point(-ax * math.sin(theta), ay * math.cos(theta))

    def implicit_residual(self, p: Point) -> float:
        """|x'^2/ax^2 + y'^2/ay^2 - 1| in centered coordinates."""
        ax, ay = self.axes_xy()
        d = p - self.center
        return abs((d.x / ax) ** 2 + (d.y / ay) ** 2 - 1.0)


class _Triangle(NamedTuple):
    A: Point
    B: Point
    C: Point


class Triangle(Validating, _Triangle):
    """Counterclockwise, non-degenerate triangle."""

    __slots__ = ()

    def __new__(cls, A: Point, B: Point, C: Point) -> "Triangle":
        (ax, ay), (bx, by), (cx, cy) = A, B, C
        abx, aby, acx, acy = bx - ax, by - ay, cx - ax, cy - ay
        doubled = abx * acy - aby * acx
        longest = max(math.hypot(abx, aby), math.hypot(acx, acy), math.hypot(cx - bx, cy - by))
        if not doubled > 1e-12 * longest * longest:
            if doubled < 0.0:
                raise DegenerateTriangleError("triangle must be counterclockwise")
            raise DegenerateTriangleError("degenerate triangle")
        return tuple.__new__(cls, (A, B, C))

    @classmethod
    def oriented(cls, A: Point, B: Point, C: Point) -> "Triangle":
        """Build a triangle, swapping two vertices if the input is clockwise."""
        (ax, ay), (bx, by), (cx, cy) = A, B, C
        if (bx - ax) * (cy - ay) - (by - ay) * (cx - ax) < 0.0:
            B, C = C, B
        return cls(A, B, C)

    @property
    def vertices(self) -> tuple[Point, Point, Point]:
        return (self.A, self.B, self.C)

    def sidelengths(self) -> tuple[float, float, float]:
        """(s1, s2, s3) with s1 opposite A, s2 opposite B, s3 opposite C."""
        return (
            self.B.dist(self.C),
            self.C.dist(self.A),
            self.A.dist(self.B),
        )

    def area(self) -> float:
        return 0.5 * (self.B - self.A).cross(self.C - self.A)


class _Pose(NamedTuple):
    translation: Point
    rotation: float
    reflect_x: bool
    scale: float


class Pose(Validating, _Pose):
    """Similarity map from a local frame into the world frame.

    Application order: optional x-axis mirror (x -> -x), then rotation,
    then uniform scale, then translation.
    """

    # no __slots__: ``_cs`` lives in the instance dict, outside the fields

    def __new__(cls, translation: Point = ORIGIN, rotation: float = 0.0,
                reflect_x: bool = False, scale: float = 1.0) -> "Pose":
        if not scale > 0.0 or not math.isfinite(scale):
            raise GeometryError("pose scale must be positive and finite")
        if not math.isfinite(rotation):
            raise GeometryError("pose rotation must be finite")
        self = tuple.__new__(cls, (translation, rotation, reflect_x, scale))
        self._cs = (math.cos(rotation), math.sin(rotation))
        return self

    @classmethod
    def identity(cls) -> "Pose":
        return cls()

    def map_xy(self, x: float, y: float) -> Point:
        """World image of the local point (x, y); the float operations of
        ``translation + Point(+-x, y).rotated(rotation) * scale``."""
        c, s = self._cs
        if self.reflect_x:
            x = -x
        k, t = self.scale, self.translation
        return Point(t.x + (c * x - s * y) * k, t.y + (s * x + c * y) * k)

    def map_axis(self, axis: MajorAxis) -> MajorAxis:
        """Image of an axis direction; rotation must be a multiple of pi/2."""
        quarter = self.rotation / (0.5 * math.pi)
        k = round(quarter)
        if abs(quarter - k) > 1e-12:
            raise GeometryError("pose rotation does not preserve axis alignment")
        if k % 2 == 0:
            return axis
        return MajorAxis.VERTICAL if axis is MajorAxis.HORIZONTAL else MajorAxis.HORIZONTAL

    def apply(self, p: Point) -> Point:
        return self.map_xy(p.x, p.y)

    def apply_circle(self, c: Circle) -> Circle:
        return Circle(self.map_xy(c.center.x, c.center.y), self.scale * c.radius)

    def apply_ellipse(self, e: AxisAlignedEllipse) -> AxisAlignedEllipse:
        """Map an axis-aligned ellipse; rotation must be a multiple of pi/2."""
        return AxisAlignedEllipse(
            self.map_xy(e.center.x, e.center.y),
            self.scale * e.semi_major,
            self.scale * e.semi_minor,
            self.map_axis(e.major_axis),
        )

    def compose(self, other: "Pose") -> "Pose":
        """Pose acting as ``self`` after ``other``."""
        sign = -1.0 if self.reflect_x else 1.0
        return Pose(
            translation=self.map_xy(other.translation.x, other.translation.y),
            rotation=self.rotation + sign * other.rotation,
            reflect_x=self.reflect_x != other.reflect_x,
            scale=self.scale * other.scale,
        )

    def inverse(self) -> "Pose":
        inv_scale = 1.0 / self.scale
        rotation = self.rotation if self.reflect_x else -self.rotation
        # -0.0 + v is v bit for bit, so a (-0.0, -0.0) translation leaves
        # the linear part alone, signed zeros included.
        linear = Pose(Point(-0.0, -0.0), rotation, self.reflect_x, inv_scale)
        t = self.translation
        return Pose(linear.map_xy(-t.x, -t.y), rotation, self.reflect_x, inv_scale)


def line_line_intersection(l1: Line, l2: Line) -> Point:
    denom = l1.direction.cross(l2.direction)
    if abs(denom) < 1e-14:
        raise GeometryError("lines are parallel")
    t = (l2.base - l1.base).cross(l2.direction) / denom
    return l1.point_at(t)


def three_point_center(p: Point, q: Point, r: Point) -> Point:
    """Center of the circle through three points, any orientation."""
    # Shift to the centroid first; the determinant form is then well scaled.
    (px, py), (qx, qy), (rx, ry) = p, q, r
    gx, gy = (px + qx + rx) / 3.0, (py + qy + ry) / 3.0
    ax, ay, bx, by, cx, cy = px - gx, py - gy, qx - gx, qy - gy, rx - gx, ry - gy
    d = 2.0 * (ax * (by - cy) + bx * (cy - ay) + cx * (ay - by))
    scale = max(math.hypot(ax, ay), math.hypot(bx, by), math.hypot(cx, cy))
    # d == 0.0 also catches a determinant that underflows with scale * scale
    if d == 0.0 or abs(d) < 1e-14 * scale * scale:
        raise DegenerateTriangleError("degenerate triangle")
    a2, b2, c2 = ax * ax + ay * ay, bx * bx + by * by, cx * cx + cy * cy
    return Point(
        gx + (a2 * (by - cy) + b2 * (cy - ay) + c2 * (ay - by)) / d,
        gy + (a2 * (cx - bx) + b2 * (ax - cx) + c2 * (bx - ax)) / d,
    )


def three_point_circle(p: Point, q: Point, r: Point) -> Circle:
    """Circle through three points, any orientation."""
    o = three_point_center(p, q, r)
    return Circle(o, o.dist(p))


def circumcircle(t: Triangle) -> Circle:
    return three_point_circle(t.A, t.B, t.C)


def inversion_xy(cx: float, cy: float, r: float, px: float, py: float) -> Point:
    """Inversion of (px, py) in the circle about (cx, cy) of radius r."""
    vx, vy = px - cx, py - cy
    d2 = vx * vx + vy * vy
    if d2 < 1e-30 * r * r:
        raise InversionPoleError("inversion pole")
    k = r * r / d2
    return Point(cx + vx * k, cy + vy * k)


def invert_in_circle(c: Circle, p: Point) -> Point:
    """Image of ``p`` under inversion in ``c``; the center has no image."""
    (cx, cy), r = c
    return inversion_xy(cx, cy, r, p.x, p.y)


def project_onto_line(l: Line, p: Point) -> Point:
    return l.base + l.direction * l.direction.dot(p - l.base)


def worst(residuals: Iterable[float]) -> float:
    """Largest residual, at least 0.0; NaN as soon as one residual is NaN.

    ``max(worst, nan)`` returns ``worst``, so folding with ``max`` would
    report a NaN residual as a pass.
    """
    largest = 0.0
    for r in residuals:
        if r > largest:
            largest = r
        elif r != r:
            return math.nan
    return largest


def circles_orthogonality_residual(c1: Circle, c2: Circle) -> float:
    """|d^2 - r1^2 - r2^2|, zero exactly when the circles meet at right angles."""
    d = c1.center.dist(c2.center)
    return abs(d * d - c1.radius * c1.radius - c2.radius * c2.radius)


def circle_nesting_slack(inner: Circle, outer: Circle) -> float:
    """r_outer - (d + r_inner): nonnegative exactly when ``inner`` lies in
    ``outer``, zero when it touches from inside, negative when it pokes out."""
    return outer.radius - (inner.center.dist(outer.center) + inner.radius)


def ellipse_line_tangency_residual(e: AxisAlignedEllipse, l: Line) -> float:
    """Defect between the support value of the ellipse in the line's normal
    direction and the line's offset, in the ellipse's principal frame.

    Zero iff the line is tangent; the value carries length units, so it is
    comparable across uniformly scaled scenes.
    """
    ax, ay = e.axes_xy()
    n = l.normal()
    offset = n.dot(l.base - e.center)
    support = math.hypot(ax * n.x, ay * n.y)
    return abs(support - abs(offset))
