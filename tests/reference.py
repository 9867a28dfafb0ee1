"""Object routes that ``brocard``'s scalar kernels replaced.

Each is the ``Point`` and ``Line`` arithmetic that a kernel now writes out
on scalars, in the same float operations and the same order; the tests
compare kernel and route with ``==`` and ``repr``, so every bit and the
sign of each zero must agree.  No command runs them, so they live here.
"""

from brocard.geom import GeometryError, Line, Point, Triangle


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
