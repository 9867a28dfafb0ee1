"""Planar primitives: points, lines, circles, ellipses, triangles, and
rigid-or-similar poses.

Everything here is immutable and every operation is a pure function, so
values can be shared freely between checks.  Value types are
``NamedTuple``s, each equal to the plain tuple of its fields; a type that
validates its input does so in ``__new__``, and one that derives values it
keeps outside its fields does so there or, through :class:`lazy`, at their
first read.  Residual helpers return a nonnegative defect instead of a bare
boolean; callers compare it against their own tolerances.
"""

from __future__ import annotations

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
    plain tuple ``(x, y)``; ``+``, ``-`` and ``*`` are vector arithmetic,
    never tuple concatenation or repetition.
    """

    x: float
    y: float

    def __add__(self, other: "Point") -> "Point":
        return tuple_new(Point, (self.x + other.x, self.y + other.y))

    def __sub__(self, other: "Point") -> "Point":
        return tuple_new(Point, (self.x - other.x, self.y - other.y))

    def __mul__(self, k: float) -> "Point":
        return tuple_new(Point, (self.x * k, self.y * k))

    __rmul__ = __mul__

    def dot(self, other: "Point") -> float:
        return self.x * other.x + self.y * other.y

    def norm(self) -> float:
        return math.hypot(self.x, self.y)

    def dist(self, other: "Point") -> float:
        return math.hypot(self.x - other.x, self.y - other.y)

    def rotated(self, angle: float) -> "Point":
        c, s = math.cos(angle), math.sin(angle)
        return tuple_new(Point, (c * self.x - s * self.y, s * self.x + c * self.y))


# ``Point(x, y)`` runs the Python ``__new__`` that NamedTuple generates,
# which checks the arity and calls ``tuple.__new__(Point, (x, y))``; the
# kernels make that C call themselves, as ``tuple_new(Point, (x, y))``.
tuple_new = tuple.__new__
ORIGIN = Point(0.0, 0.0)
SQRT3 = math.sqrt(3.0)


class Validating:
    """Base of the value types that validate or derive in ``__new__``:
    ``_make``, and so ``_replace``, builds through that ``__new__``, not
    ``tuple.__new__``.  No attribute can be set, so a value derived from the
    fields and kept in the instance dict always agrees with them."""

    __slots__ = ()

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable: cannot set {name!r}")


class lazy:
    """A value derived from the fields at its first read and kept in the
    instance dict: the standard library's cached property without the lock
    it takes on CPython 3.10 and 3.11, which a pure derivation does not need."""

    def __init__(self, fn):
        self.fn = fn

    def __set_name__(self, owner, name):
        self.name = name

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        obj.__dict__[self.name] = value = self.fn(obj)
        return value


def midpoint(p: Point, q: Point) -> Point:
    return tuple_new(Point, (0.5 * (p.x + q.x), 0.5 * (p.y + q.y)))


def line_direction(dx: float, dy: float) -> tuple[float, float]:
    """Unit vector along (dx, dy), as ``Line`` stores it; kernels that
    build no line call this directly."""
    return unit_xy(dx, dy, math.hypot(dx, dy))


def unit_xy(dx: float, dy: float, n: float) -> tuple[float, float]:
    """(dx, dy) over its length n = hypot(dx, dy), for kernels that have
    measured it already.  Rejects zero and non-finite vectors and leaves
    one within 1e-14 of unit length as it is."""
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
        return tuple_new(cls, (base, tuple_new(Point, line_direction(*direction))))

    def normal(self) -> Point:
        """Unit normal, the direction rotated a quarter turn left."""
        return tuple_new(Point, (-self.direction.y, self.direction.x))


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
        return tuple_new(cls, (center, radius))

    def point_at(self, theta: float) -> Point:
        return self.center + tuple_new(Point, (math.cos(theta), math.sin(theta))) * self.radius

    def membership_residual(self, p: Point) -> float:
        return abs(p.dist(self.center) - self.radius)


def check_semi_axes(semi_major: float, semi_minor: float) -> None:
    """Reject what ``Ellipse`` rejects of its semi-axes, without building one."""
    if not (math.isfinite(semi_major) and math.isfinite(semi_minor)):
        raise GeometryError("ellipse semi-axes must be finite")
    if semi_minor < 0.0 or semi_major + 1e-15 * abs(semi_major) < semi_minor:
        raise GeometryError("ellipse requires semi_major >= semi_minor >= 0")


class _Ellipse(NamedTuple):
    center: Point
    semi_major: float
    semi_minor: float
    axis: Point


class Ellipse(Validating, _Ellipse):
    """Ellipse with its major semi-axis along the unit direction ``axis``.

    ``semi_major >= semi_minor >= 0``, both finite, with one part in 1e15
    of slack on the order; equal axes give a circle and a zero pair gives
    a point, both of which occur as limits of the families built on top
    of this type.  The constructor checks finiteness first, then order,
    then normalizes ``axis`` as ``Line`` does its direction.  The methods
    work in the principal frame: the coordinate along ``axis`` and the one
    along its normal, ``axis`` turned a quarter left.
    """

    __slots__ = ()

    def __new__(cls, center: Point, semi_major: float, semi_minor: float,
                axis: Point = Point(1.0, 0.0)) -> "Ellipse":
        check_semi_axes(semi_major, semi_minor)
        return tuple_new(cls, (center, semi_major, semi_minor,
                               tuple_new(Point, line_direction(*axis))))

    def _world(self, u: float, v: float) -> Point:
        """World vector of principal coordinates (u, v)."""
        ux, uy = self.axis
        return tuple_new(Point, (ux * u - uy * v, uy * u + ux * v))

    def point_at(self, theta: float) -> Point:
        return self.center + self._world(self.semi_major * math.cos(theta),
                                         self.semi_minor * math.sin(theta))

    def tangent_direction_at(self, theta: float) -> Point:
        return self._world(-self.semi_major * math.sin(theta), self.semi_minor * math.cos(theta))

    def implicit_residual(self, p: Point) -> float:
        """|u^2/a^2 + v^2/b^2 - 1| in principal coordinates (u, v)."""
        (ux, uy), (dx, dy) = self.axis, p - self.center
        return abs(((dx * ux + dy * uy) / self.semi_major) ** 2
                   + ((dy * ux - dx * uy) / self.semi_minor) ** 2 - 1.0)


class _Triangle(NamedTuple):
    A: Point
    B: Point
    C: Point


def _doubled_measure(A: Point, B: Point, C: Point) -> tuple[float, float, float, float]:
    """(s1, s2, s3, twice the signed area), s_i opposite the i-th vertex, on
    scalars; ``tests/reference.py`` keeps the ``Point`` route."""
    (ax, ay), (bx, by), (cx, cy) = A, B, C
    abx, aby, acx, acy = bx - ax, by - ay, cx - ax, cy - ay
    return (math.hypot(cx - bx, cy - by), math.hypot(acx, acy), math.hypot(abx, aby),
            abx * acy - aby * acx)


def check_triangle(s1: float, s2: float, s3: float, doubled: float) -> tuple[float, ...]:
    """Reject what ``Triangle`` rejects, on its sides and doubled area, and
    return the measure it keeps, ``(s1, s2, s3, area)``."""
    longest = max(s3, s2, s1)
    if not doubled > 1e-12 * longest * longest:
        if doubled < 0.0:
            raise DegenerateTriangleError("triangle must be counterclockwise")
        raise DegenerateTriangleError("degenerate triangle")
    return s1, s2, s3, 0.5 * doubled


class Triangle(Validating, _Triangle):
    """Counterclockwise, non-degenerate triangle.  It keeps the measure its
    check returns, (s1, s2, s3, area) with s_i opposite the i-th vertex, and
    derives its circumcenter at the first read, both in the instance dict."""

    def __new__(cls, A: Point, B: Point, C: Point) -> "Triangle":
        self = tuple_new(cls, (A, B, C))
        self.__dict__["measure"] = check_triangle(*_doubled_measure(A, B, C))
        return self

    @classmethod
    def oriented(cls, A: Point, B: Point, C: Point) -> "Triangle":
        """Build a triangle, swapping B and C if the input is clockwise."""
        s1, s2, s3, doubled = _doubled_measure(A, B, C)
        if doubled < 0.0:
            # hypot is even and a - b == -(b - a): the swapped measure, exactly
            B, C, s2, s3, doubled = C, B, s3, s2, -doubled
        self = tuple_new(cls, (A, B, C))
        self.__dict__["measure"] = check_triangle(s1, s2, s3, doubled)
        return self

    circumcenter = lazy(lambda self: three_point_center(*self))


class _Pose(NamedTuple):
    translation: Point
    rotation: float
    reflect_x: bool
    scale: float


class Pose(Validating, _Pose):
    """Similarity map from a local frame into the world frame.

    Application order: optional x-axis mirror (x -> -x), then rotation,
    then uniform scale, then translation: any finite pair, kept as a Point.
    """

    # no __slots__: the map ``_map``, (c, s, scale, tx, ty, reflect_x) with
    # (c, s) the rotation's cos/sin, is derived once here into the instance dict

    def __new__(cls, translation: Point = ORIGIN, rotation: float = 0.0,
                reflect_x: bool = False, scale: float = 1.0) -> "Pose":
        if not scale > 0.0 or not math.isfinite(scale):
            raise GeometryError("pose scale must be positive and finite")
        if not math.isfinite(rotation):
            raise GeometryError("pose rotation must be finite")
        tx, ty = translation
        if not (math.isfinite(tx) and math.isfinite(ty)):
            raise GeometryError("pose translation must be finite")
        if type(translation) is not Point:
            translation = tuple_new(Point, (tx, ty))
        self = tuple_new(cls, (translation, rotation, reflect_x, scale))
        self.__dict__["_map"] = (math.cos(rotation), math.sin(rotation), scale, tx, ty, reflect_x)
        return self

    @classmethod
    def identity(cls) -> "Pose":
        return cls()

    def map_xy(self, x: float, y: float) -> Point:
        """World image of the local point (x, y); the float operations of
        ``translation + Point(+-x, y).rotated(rotation) * scale``."""
        c, s, k, tx, ty, reflect_x = self._map
        if reflect_x:
            x = -x
        return tuple_new(Point, (tx + (c * x - s * y) * k, ty + (s * x + c * y) * k))

    def apply(self, p: Point) -> Point:
        return self.map_xy(p.x, p.y)

    def compose(self, other: "Pose") -> "Pose":
        """Pose acting as ``self`` after ``other``."""
        sign = -1.0 if self.reflect_x else 1.0
        return Pose(
            translation=self.map_xy(*other.translation),
            rotation=self.rotation + sign * other.rotation,
            reflect_x=self.reflect_x != other.reflect_x,
            scale=self.scale * other.scale,
        )


def three_point_center(p: Point, q: Point, r: Point) -> Point:
    """Center of the circle through three points, any orientation."""
    # Shift to the centroid first; the determinant form is then well scaled.
    (px, py), (qx, qy), (rx, ry) = p, q, r
    gx, gy = (px + qx + rx) / 3.0, (py + qy + ry) / 3.0
    ax, ay, bx, by, cx, cy = px - gx, py - gy, qx - gx, qy - gy, rx - gx, ry - gy
    d = 2.0 * (ax * (by - cy) + bx * (cy - ay) + cx * (ay - by))
    scale = max(math.hypot(ax, ay), math.hypot(bx, by), math.hypot(cx, cy))
    # d == 0.0 catches a determinant that underflows with scale; a NaN one fails >=
    if d == 0.0 or not abs(d) >= 1e-14 * scale * scale:
        raise DegenerateTriangleError("degenerate triangle")
    a2, b2, c2 = ax * ax + ay * ay, bx * bx + by * by, cx * cx + cy * cy
    return tuple_new(Point, (
        gx + (a2 * (by - cy) + b2 * (cy - ay) + c2 * (ay - by)) / d,
        gy + (a2 * (cx - bx) + b2 * (ax - cx) + c2 * (bx - ax)) / d,
    ))


def circumcircle(t: Triangle) -> Circle:
    o = t.circumcenter
    return Circle(o, o.dist(t.A))


def inversion_xy(cx: float, cy: float, r: float, px: float, py: float) -> Point:
    """Inversion of (px, py) in the circle about (cx, cy) of radius r."""
    vx, vy = px - cx, py - cy
    d2 = vx * vx + vy * vy
    # NaN fails every comparison; an infinite d2 leaves no finite image
    if not d2 < math.inf:
        raise GeometryError("inversion needs a finite point and center")
    if not d2 >= 1e-30 * r * r:
        raise InversionPoleError("inversion pole")
    k = r * r / d2
    return tuple_new(Point, (cx + vx * k, cy + vy * k))


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


def ellipse_line_tangency_residual(e: Ellipse, l: Line) -> float:
    """Defect between the support value of the ellipse in the line's normal
    direction and the line's offset, in the ellipse's principal frame.

    Zero iff the line is tangent; the value carries length units, so it is
    comparable across uniformly scaled scenes.
    """
    (ux, uy), n = e.axis, l.normal()
    offset = n.dot(l.base - e.center)
    support = math.hypot(e.semi_major * (n.x * ux + n.y * uy),
                         e.semi_minor * (n.y * ux - n.x * uy))
    return abs(support - abs(offset))
