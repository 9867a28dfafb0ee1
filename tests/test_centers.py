import math
import random

import pytest

from brocard.centers import (
    EquilateralDegeneracyError,
    StandardCenters,
    _centroid,
    _lambda,
    _turned_sides,
    brocard_angle,
    brocard_cotangent,
    brocard_points_by_construction,
    second_brocard_triangle,
    standard_centers,
)
from brocard.checks import _spread, brocard_concurrency_defect
from brocard.geom import (
    Circle,
    DegenerateTriangleError,
    GeometryError,
    InversionPoleError,
    Line,
    Point,
    Triangle,
    circumcircle,
    invert_in_circle,
    midpoint,
    project_onto_line,
    three_point_center,
)
from brocard.porism import IsoscelesParams, vertices_at
from reference import area, cross, line_line_intersection, sidelengths, through

# isosceles reference triangle: apex (0,2), base corners (-1,0) and (1,0)
FIX = Triangle.oriented(Point(0.0, 2.0), Point(-1.0, 0.0), Point(1.0, 0.0))
SQRT3 = math.sqrt(3.0)


def _random_triangle(rng):
    while True:
        pts = [Point(rng.uniform(-2, 2), rng.uniform(-2, 2)) for _ in range(3)]
        try:
            t = Triangle.oriented(*pts)
        except GeometryError:
            continue
        if brocard_cotangent(t) > SQRT3 + 1e-3:
            return t


def test_measure_fixture():
    s1, s2, s3, a = FIX.measure
    assert abs(a - 2.0) < 1e-15
    assert abs(s1 * s2 * s3 / (4.0 * a) - 1.25) < 1e-14
    squares = sorted(s * s for s in (s1, s2, s3))
    for got, want in zip(squares, (4.0, 5.0, 5.0)):
        assert abs(got - want) < 1e-14


def test_brocard_cotangent_fixture():
    # (s1^2+s2^2+s3^2)/(4*area) = (5+5+4)/8 = 7/4
    assert abs(brocard_cotangent(FIX) - 1.75) < 1e-14
    assert abs(1.0 / math.tan(brocard_angle(FIX)) - 1.75) < 1e-13


def test_brocard_angle_bounded_by_pi_over_6():
    rng = random.Random(7)
    for _ in range(150):
        t = _random_triangle(rng)
        w = brocard_angle(t)
        assert 0.0 < w <= math.pi / 6.0 + 1e-15
        assert brocard_cotangent(t) >= SQRT3 - 1e-12


def test_construction_concurrency():
    rng = random.Random(8)
    for _ in range(150):
        t = _random_triangle(rng)
        assert brocard_concurrency_defect(t) < 1e-9


def _line_route(P0, P1, P2, angle):
    """The construction through Line and line_line_intersection, the
    route the scalar kernel replaced; kept here as its reference."""
    lines = (
        Line(P0, (P1 - P0).rotated(angle)),
        Line(P1, (P2 - P1).rotated(angle)),
        Line(P2, (P0 - P2).rotated(angle)),
    )
    p01 = line_line_intersection(lines[0], lines[1])
    p12 = line_line_intersection(lines[1], lines[2])
    p20 = line_line_intersection(lines[2], lines[0])
    spread = max(p01.dist(p12), p12.dist(p20), p20.dist(p01))
    centroid = Point(
        (p01.x + p12.x + p20.x) / 3.0,
        (p01.y + p12.y + p20.y) / 3.0,
    )
    return centroid, spread


def _kernel(P0, P1, P2, angle):
    """The kernel's three meets, folded as its callers fold them."""
    meets = _turned_sides(P0, P1, P2, math.cos(angle), math.sin(angle))
    return _centroid(meets), _spread(meets)


def test_scalar_kernel_is_bit_exact():
    rng = random.Random(10)
    triangles = [FIX]
    while len(triangles) < 200:
        scale = 10.0 ** rng.uniform(-3.0, 3.0)
        pts = [Point(scale * rng.uniform(-2, 2), scale * rng.uniform(-2, 2))
               for _ in range(3)]
        try:
            triangles.append(Triangle.oriented(*pts))
        except GeometryError:
            continue
    for t in triangles:
        A, B, C = t
        omega = brocard_angle(t)
        first = _line_route(A, B, C, omega)
        second = _line_route(C, B, A, -omega)
        # repr tells -0.0 from 0.0 and prints every bit of each double
        assert repr(_kernel(A, B, C, omega)) == repr(first)
        assert repr(_kernel(C, B, A, -omega)) == repr(second)
        points = brocard_points_by_construction(t)
        assert repr(points) == repr((first[0], second[0]))
        assert repr(brocard_concurrency_defect(t)) == repr(max(first[1], second[1]))
        if brocard_cotangent(t) > SQRT3:
            sc = standard_centers(t)
            assert repr((sc.omega1, sc.omega2)) == repr(points)


def test_scalar_kernel_raises_as_the_line_route_does():
    cases = (
        # collinear: the first two sides are parallel
        (Point(0.0, 0.0), Point(1.0, 0.0), Point(2.0, 0.0), "lines are parallel"),
        # repeated vertex: the first side has no direction
        (Point(0.0, 0.0), Point(0.0, 0.0), Point(1.0, 1.0),
         "line requires a nonzero direction"),
    )
    for P0, P1, P2, message in cases:
        for angle in (0.0, 0.3, -0.3):
            for route in (_line_route, _kernel):
                with pytest.raises(GeometryError, match=message):
                    route(P0, P1, P2, angle)


# The object routes the scalar kernels replaced, kept as their references:
# each measures the triangle through reference's sidelengths() and area() and
# builds its points with Point, Line and project_onto_line.


def _measure(t):
    """(s1, s2, s3, area) on scalars: the float operations of
    ``sidelengths(t)`` and ``area(t)``, which a triangle keeps as its
    ``measure``."""
    (ax, ay), (bx, by), (cx, cy) = t
    return (
        math.hypot(bx - cx, by - cy),
        math.hypot(cx - ax, cy - ay),
        math.hypot(ax - bx, ay - by),
        0.5 * ((bx - ax) * (cy - ay) - (by - ay) * (cx - ax)),
    )


def _reference_angle(t):
    s1, s2, s3 = sidelengths(t)
    lam = (s1 * s2) ** 2 + (s2 * s3) ** 2 + (s3 * s1) ** 2
    return math.asin(min(1.0, 2.0 * area(t) / math.sqrt(lam)))


def _reference_cotangent(t):
    s1, s2, s3 = sidelengths(t)
    return (s1 * s1 + s2 * s2 + s3 * s3) / (4.0 * area(t))


def _reference_symmedian(t):
    s1, s2, s3 = sidelengths(t)
    w1, w2, w3 = s1 * s1, s2 * s2, s3 * s3
    total = w1 + w2 + w3
    A, B, C = t
    return Point(
        (w1 * A.x + w2 * B.x + w3 * C.x) / total,
        (w1 * A.y + w2 * B.y + w3 * C.y) / total,
    )


def _reference_invert_in_circle(c, p):
    v = p - c.center
    d2 = v.dot(v)
    if d2 < 1e-30 * c.radius * c.radius:
        raise InversionPoleError("inversion pole")
    return c.center + v * (c.radius * c.radius / d2)


def _reference_standard_centers(t):
    cc = circumcircle(t)
    X3 = cc.center
    X6 = _reference_symmedian(t)
    omega = _reference_angle(t)
    A, B, C = t
    omega1 = _line_route(A, B, C, omega)[0]
    omega2 = _line_route(C, B, A, -omega)[0]
    u = _reference_cotangent(t)
    if u - SQRT3 <= 0.0:
        raise EquilateralDegeneracyError("equilateral degeneracy")
    X15 = (1.0 / (SQRT3 + u)) * (SQRT3 * X3 + u * X6)
    X16 = (1.0 / (SQRT3 - u)) * (SQRT3 * X3 - u * X6)
    gap = X3.dist(X6)
    if gap == 0.0:
        raise EquilateralDegeneracyError("equilateral degeneracy")
    kc = Circle(midpoint(X3, X6), 0.5 * gap)
    X187 = _reference_invert_in_circle(cc, X6)
    return StandardCenters(
        X3=X3, X6=X6, X15=X15, X16=X16, X39=midpoint(omega1, omega2),
        X182=kc.center, X187=X187, X574=_reference_invert_in_circle(kc, X187),
        omega1=omega1, omega2=omega2,
    )


def _reference_second_brocard_triangle(t):
    X3 = circumcircle(t).center
    X6 = _reference_symmedian(t)
    feet = []
    for v in t:
        if v.dist(X6) < 1e-14 * v.dist(X3):
            raise GeometryError("cevian undefined")
        feet.append(project_onto_line(through(v, X6), X3))
    A, B, C = feet
    if cross(B - A, C - A) < 0.0:
        B, C = C, B
    return Triangle(A, B, C)


def _reference_brocard_points(t):
    A, B, C = t
    omega = _reference_angle(t)
    return _line_route(A, B, C, omega)[0], _line_route(C, B, A, -omega)[0]


def test_member_kernels_are_bit_exact(posed_members, same_route):
    for _, t in posed_members:
        same_route(brocard_points_by_construction, _reference_brocard_points, t)
        same_route(lambda t: three_point_center(*t), lambda t: circumcircle(t).center, t)
        for p in t:
            same_route(invert_in_circle, _reference_invert_in_circle, circumcircle(t), p)
        same_route(lambda t: t.measure, lambda t: (*sidelengths(t), area(t)), t)
        same_route(brocard_angle, _reference_angle, t)
        same_route(brocard_cotangent, _reference_cotangent, t)
        same_route(symmedian_point, _reference_symmedian, t)
        same_route(standard_centers, _reference_standard_centers, t)
        same_route(second_brocard_triangle, _reference_second_brocard_triangle, t)


def test_triangle_keeps_the_scalar_measure_and_circumcenter(posed_members):
    """A triangle's kept measure and lazy circumcenter and symmedian point
    are, bit for bit, ``_measure``'s float operations, ``three_point_center``
    and ``_reference_symmedian``; each lazy value is derived at its first
    read and kept, and ``standard_centers`` returns the kept X6.  One built
    around the constructor keeps no measure and derives its circumcenter
    at the first read, and its symmedian point once it is given one."""
    members = [t for _, t in posed_members]
    triangles = members + [second_brocard_triangle(t) for t in members[::10]]
    triangles += [vertices_at(IsoscelesParams(math.ldexp(1.0, j), math.ldexp(3.0, j)), t)
                  for j in range(-500, 501, 25) for t in (-2.5, 0.85, 2.0)]
    # clockwise inputs, which oriented turns back by swapping B and C
    swapped = [Triangle.oriented(A, C, B) for A, B, C in triangles[::7]]
    assert swapped == triangles[::7]
    for t in triangles + swapped:
        want = repr((_measure(t), three_point_center(*t)))
        X6 = repr(_reference_symmedian(t))
        assert repr((t.measure, t.circumcenter)) == want and repr(t.symmedian) == X6
        assert vars(t)["circumcenter"] is t.circumcenter
        assert vars(t)["symmedian"] is t.symmedian
        built, unchecked = Triangle(*t), tuple.__new__(Triangle, t)
        assert list(vars(built)) == ["measure"] and vars(unchecked) == {}
        assert repr((built.measure, built.circumcenter)) == want
        assert list(vars(built)) == ["measure", "circumcenter"]
        assert repr(built.symmedian) == X6 and vars(built)["symmedian"] is built.symmedian
        assert not hasattr(unchecked, "measure")
        assert repr((_measure(unchecked), unchecked.circumcenter)) == want
        vars(unchecked)["measure"] = _measure(unchecked)
        assert repr(unchecked.symmedian) == X6
    for t in members:
        built = Triangle(*t)
        assert standard_centers(built).X6 is built.symmedian


def test_member_kernels_raise_as_the_object_routes_do(same_route):
    eq = Triangle.oriented(
        Point(1.0, 0.0),
        Point(math.cos(2.0 * math.pi / 3.0), math.sin(2.0 * math.pi / 3.0)),
        Point(math.cos(4.0 * math.pi / 3.0), math.sin(4.0 * math.pi / 3.0)),
    )
    with pytest.raises(EquilateralDegeneracyError, match="equilateral degeneracy"):
        standard_centers(eq)
    same_route(standard_centers, _reference_standard_centers, eq)
    # on a flat isosceles triangle X6 sits about h/3 above the apex while
    # X3 is about 1/(2h) below it, so the apex cevian is undefined
    flat = Triangle(Point(-1.0, 0.0), Point(1.0, 0.0), Point(0.0, 1e-8))
    with pytest.raises(GeometryError, match="cevian undefined"):
        second_brocard_triangle(flat)
    for t in (flat, eq, FIX):
        same_route(second_brocard_triangle, _reference_second_brocard_triangle, t)


def _unchecked(*xys):
    """A Triangle that skips the constructor's check, so the kernels meet
    inputs no member reaches; it keeps the measure ``_measure`` gives."""
    t = tuple.__new__(Triangle, tuple(Point(x, y) for x, y in xys))
    vars(t)["measure"] = _measure(t)
    return t


def _scaled_fix(k):
    return _unchecked(*((k * v.x, k * v.y) for v in FIX))


_EQ = Triangle.oriented(
    Point(1.0, 0.0),
    Point(math.cos(2.0 * math.pi / 3.0), math.sin(2.0 * math.pi / 3.0)),
    Point(math.cos(4.0 * math.pi / 3.0), math.sin(4.0 * math.pi / 3.0)),
)
_NO_RADIUS = (GeometryError, "circle requires a finite radius >= 0")
_NO_DIRECTION = (GeometryError, "line requires a nonzero direction")
_DEGENERATE = (DegenerateTriangleError, "degenerate triangle")
_PARALLEL = (GeometryError, "lines are parallel")

# (triangle, standard_centers, second_brocard_triangle, _turned_sides at
# the angles 0 and +-0.3): the type and message each raises, or None for
# a value; recorded on the kernels before they became straight-line code.
_RAISES = {
    # the circumcenter's cubic numerators overflow; so do X6's weights
    "fix*1e200": (_scaled_fix(1e200), _NO_RADIUS, _NO_DIRECTION, None),
    "fix*1e110": (_scaled_fix(1e110), _NO_RADIUS, _NO_DIRECTION, None),
    "overflowing circumcenter": (
        _unchecked((-1e300, 0.0), (1e300, 0.0), (0.0, 1e290)), _NO_RADIUS, _NO_DIRECTION,
        None,
    ),
    # lambda leaves the double range while the circumcenter does not
    "fix*1e90": (_scaled_fix(1e90), (GeometryError,
                 "Brocard angle out of range: lambda overflows"), None, None),
    "fix*1e-90": (_scaled_fix(1e-90), (GeometryError,
                  "Brocard angle out of range: lambda underflows"), None, None),
    # the derived triangle's orientation test underflows
    "fix*1e-110": (_scaled_fix(1e-110), (GeometryError,
                   "Brocard angle out of range: lambda underflows"), _DEGENERATE, None),
    # the circumcenter's determinant underflows to zero
    "fix*1e-200": (_scaled_fix(1e-200), _DEGENERATE, _DEGENERATE, None),
    "collinear": (_unchecked((0.0, 0.0), (1.0, 0.0), (2.0, 0.0)), _DEGENERATE, _DEGENERATE,
                  _PARALLEL),
    "repeated vertex": (_unchecked((0.0, 0.0), (0.0, 0.0), (1.0, 1.0)), _DEGENERATE,
                        _DEGENERATE, _NO_DIRECTION),
    # the first two turned sides are parallel and the third has no
    # direction: every direction is formed before any meet
    "last vertex repeats the first": (_unchecked((0.0, 0.0), (1.0, 1.0), (0.0, 0.0)),
                                      _DEGENERATE, _DEGENERATE, _NO_DIRECTION),
    # the circumcenter's determinant is NaN, which its guard rejects
    "NaN vertex": (_unchecked((0.0, 2.0), (-1.0, 0.0), (1.0, math.nan)), _DEGENERATE,
                   _DEGENERATE, _NO_DIRECTION),
    "equilateral": (_EQ, (EquilateralDegeneracyError, "equilateral degeneracy"), None, None),
    "undefined cevian": (Triangle(Point(-1.0, 0.0), Point(1.0, 0.0), Point(0.0, 1e-8)), None,
                         (GeometryError, "cevian undefined"), None),
}


@pytest.mark.parametrize("name", list(_RAISES))
def test_member_kernels_raise_as_recorded(name, raises_as_before):
    t, centers_raise, derived_raise, sides_raise = _RAISES[name]
    calls = [
        (lambda: standard_centers(t), centers_raise),
        (lambda: second_brocard_triangle(t), derived_raise),
    ]
    for angle in (0.0, 0.3, -0.3):
        calls.append((lambda a=angle: _turned_sides(*t, math.cos(a), math.sin(a)), sides_raise))
    for make, raised in calls:
        if raised is None:
            make()
        else:
            raises_as_before(make, *raised)


def test_fixture_brocard_points():
    o1, o2 = brocard_points_by_construction(FIX)
    assert o1.dist(Point(1.0 / 13.0, 8.0 / 13.0)) < 1e-12
    assert o2.dist(Point(-1.0 / 13.0, 8.0 / 13.0)) < 1e-12


def test_mirror_image_swaps_brocard_points():
    """Reflecting the triangle reverses the two rotation senses."""
    rng = random.Random(9)
    for _ in range(60):
        t = _random_triangle(rng)
        a, b, c = t
        mirror = Triangle.oriented(
            Point(-a.x, a.y), Point(-b.x, b.y), Point(-c.x, c.y)
        )
        o1, o2 = brocard_points_by_construction(t)
        m1, m2 = brocard_points_by_construction(mirror)
        assert m1.dist(Point(-o2.x, o2.y)) < 1e-9
        assert m2.dist(Point(-o1.x, o1.y)) < 1e-9


def test_symmedian_point_fixture():
    assert symmedian_point(FIX).dist(Point(0.0, 4.0 / 7.0)) < 1e-13


def test_symmedian_point_at_tiny_scale():
    k = 1e-16
    tiny = Triangle.oriented(*(k * v for v in FIX))
    assert symmedian_point(tiny).dist(Point(0.0, k * 4.0 / 7.0)) < k * 1e-13


def test_standard_centers_fixture():
    sc = standard_centers(FIX)
    assert sc.X3.dist(Point(0.0, 0.75)) < 1e-13
    assert sc.X6.dist(Point(0.0, 4.0 / 7.0)) < 1e-13
    assert sc.X39.dist(Point(0.0, 8.0 / 13.0)) < 1e-12
    assert sc.X182.dist(Point(0.0, 37.0 / 56.0)) < 1e-13
    # inversive images land on rational points for this triangle
    assert sc.X187.dist(Point(0.0, -8.0)) < 1e-11
    assert sc.X574.dist(Point(0.0, 64.0 / 97.0)) < 1e-12
    assert sc.X15.dist(Point(0.0, 0.75 - 5.0 / (16.0 * SQRT3 + 28.0))) < 1e-12
    assert sc.X16.dist(Point(0.0, -8.0 - 5.0 * SQRT3)) < 1e-10


def test_center_records_value_semantics(value_semantics):
    names = ("X3", "X6", "X15", "X16", "X39", "X182", "X187", "X574", "omega1", "omega2")
    points = {name: Point(float(k), -0.0) for k, name in enumerate(names)}
    value_semantics(
        StandardCenters(**points),
        "StandardCenters(X3=Point(x=0.0, y=-0.0), X6=Point(x=1.0, y=-0.0), "
        "X15=Point(x=2.0, y=-0.0), X16=Point(x=3.0, y=-0.0), X39=Point(x=4.0, y=-0.0), "
        "X182=Point(x=5.0, y=-0.0), X187=Point(x=6.0, y=-0.0), X574=Point(x=7.0, y=-0.0), "
        "omega1=Point(x=8.0, y=-0.0), omega2=Point(x=9.0, y=-0.0))",
        StandardCenters(**{**points, "omega2": Point(0.0, 0.0)}),
    )


def symmedian_point(t):
    """X6, the barycentric mean of the vertices weighted s1^2 : s2^2 : s3^2,
    as the triangle keeps it for ``standard_centers``."""
    return t.symmedian


def brocard_circle(t):
    """Circle on the segment X3 X6 as diameter; carries both Brocard points."""
    X3, X6 = circumcircle(t).center, symmedian_point(t)
    gap = X3.dist(X6)
    if gap == 0.0:
        raise EquilateralDegeneracyError("equilateral degeneracy")
    return Circle(midpoint(X3, X6), 0.5 * gap)


def test_standard_centers_share_the_brocard_circle_exactly():
    rng = random.Random(11)
    for _ in range(60):
        t = _random_triangle(rng)
        assert standard_centers(t).X182 == brocard_circle(t).center


def test_isodynamic_points_divide_X3_X6():
    """X15 and X16 split the segment X3 X6 internally and externally in the
    ratio sqrt(3) : u."""
    rng = random.Random(10)
    for _ in range(60):
        t = _random_triangle(rng)
        sc = standard_centers(t)
        u = brocard_cotangent(t)
        want15 = (sc.X3 * SQRT3 + sc.X6 * u) * (1.0 / (SQRT3 + u))
        want16 = (sc.X3 * SQRT3 - sc.X6 * u) * (1.0 / (SQRT3 - u))
        assert sc.X15.dist(want15) < 1e-10
        assert sc.X16.dist(want16) < 1e-7 * max(1.0, want16.norm())


def test_standard_centers_equilateral_raises():
    eq = Triangle.oriented(
        Point(1.0, 0.0),
        Point(math.cos(2.0 * math.pi / 3.0), math.sin(2.0 * math.pi / 3.0)),
        Point(math.cos(4.0 * math.pi / 3.0), math.sin(4.0 * math.pi / 3.0)),
    )
    with pytest.raises(EquilateralDegeneracyError):
        standard_centers(eq)
    # the diameter circle only raises on exact coincidence of X3 and X6;
    # roundoff leaves a speck of a circle here, which is fine
    try:
        k = brocard_circle(eq)
    except EquilateralDegeneracyError:
        pass
    else:
        assert k.radius < 1e-14
    try:
        c = second_brocard_circle(eq)
    except EquilateralDegeneracyError:
        pass
    else:
        assert c.radius < 1e-7


def test_brocard_circle_carries_both_points():
    rng = random.Random(11)
    for _ in range(80):
        t = _random_triangle(rng)
        k = brocard_circle(t)
        o1, o2 = brocard_points_by_construction(t)
        assert k.membership_residual(o1) < 1e-9
        assert k.membership_residual(o2) < 1e-9
        # diameter endpoints
        sc = standard_centers(t)
        assert k.membership_residual(sc.X3) < 1e-12
        assert k.membership_residual(sc.X6) < 1e-12


def second_brocard_circle(t):
    """Circle about X3 through both Brocard points, from the measure alone;
    an independent route to the construction's points."""
    s1, s2, s3, a = t.measure
    sin_w = 2.0 * a / math.sqrt(_lambda(s1, s2, s3))
    radicand = 1.0 - 4.0 * sin_w * sin_w
    if radicand <= 0.0:
        raise EquilateralDegeneracyError("equilateral degeneracy")
    return Circle(circumcircle(t).center, s1 * s2 * s3 / (4.0 * a) * math.sqrt(radicand))


def test_second_brocard_circle_carries_both_points():
    rng = random.Random(12)
    for _ in range(80):
        t = _random_triangle(rng)
        c = second_brocard_circle(t)
        assert c.center.dist(circumcircle(t).center) < 1e-12
        o1, o2 = brocard_points_by_construction(t)
        assert c.membership_residual(o1) < 1e-9
        assert c.membership_residual(o2) < 1e-9


def test_second_brocard_triangle_fixture():
    """The apex cevian passes through the circumcenter, so one vertex of the
    derived triangle is X3 itself; all three lie on the Brocard circle."""
    d = second_brocard_triangle(FIX)
    k = brocard_circle(FIX)
    assert min(v.dist(Point(0.0, 0.75)) for v in d) < 1e-12
    for v in d:
        assert k.membership_residual(v) < 1e-12


def test_second_brocard_triangle_random():
    rng = random.Random(13)
    for _ in range(60):
        t = _random_triangle(rng)
        k = brocard_circle(t)
        d = second_brocard_triangle(t)
        for v in d:
            assert k.membership_residual(v) < 1e-10
        assert d.measure[3] > 0.0
