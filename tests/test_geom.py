import copy
import math
import pickle
import random

import pytest

from brocard.checks import ellipse_foci
from brocard.geom import (
    Circle,
    DegenerateTriangleError,
    Ellipse,
    GeometryError,
    InversionPoleError,
    Line,
    Point,
    Pose,
    Triangle,
    circle_nesting_slack,
    circles_orthogonality_residual,
    circumcircle,
    ellipse_line_tangency_residual,
    invert_in_circle,
    midpoint,
    project_onto_line,
    three_point_center,
)
from brocard.porism import PorismParams, PorismScene, scene_from_Ru
from reference import apply_circle, apply_ellipse, area, cross, inverse, line_line_intersection

RNG_SEED = 1234


def _rng():
    return random.Random(RNG_SEED)


def test_point_algebra():
    p = Point(3.0, -1.0)
    q = Point(1.0, 2.0)
    assert (p + q) == Point(4.0, 1.0)
    assert (p - q) == Point(2.0, -3.0)
    assert p * 2.0 == Point(6.0, -2.0)
    assert p.dot(q) == 1.0
    assert cross(p, q) == 7.0
    assert p.dist(q) == math.hypot(2.0, 3.0)


def test_point_value_semantics():
    """A Point is a NamedTuple with the value semantics of the frozen
    dataclass it replaced; being a tuple, it also equals ``(x, y)``."""
    p = Point(1.5, -2.0)
    with pytest.raises(AttributeError):
        p.x = 0.0
    assert repr(p) == "Point(x=1.5, y=-2.0)"
    assert repr(Point(-0.0, math.nan)) == "Point(x=-0.0, y=nan)"
    assert hash(p) == hash((1.5, -2.0))
    assert p == Point(1.5, -2.0) and p != Point(1.5, 2.0)
    assert p == (1.5, -2.0)
    # scaling, never tuple repetition; the float results are exact here
    for scaled in (p * 3, 3 * p):
        assert type(scaled) is Point and scaled == Point(4.5, -6.0)
    for scaled in (p * 0.5, 0.5 * p):
        assert type(scaled) is Point and scaled == Point(0.75, -1.0)
    # vector sum, never concatenation
    total = p + Point(0.5, 4.0)
    assert type(total) is Point and total == Point(2.0, 2.0)
    difference = p - Point(0.5, 4.0)
    assert type(difference) is Point and difference == Point(1.0, -6.0)


P0, P1, Q, R = Point(0.0, 0.0), Point(1.0, 2.0), Point(1.0, 0.0), Point(0.0, 1.0)

# reprs recorded when these types were frozen dataclasses
GEOM_VALUES = [
    (
        Line(Point(0.0, 1.0), Point(3.0, 4.0)),
        "Line(base=Point(x=0.0, y=1.0), direction=Point(x=0.6000000000000001, y=0.8))",
        Line(Point(0.0, 1.0), Point(4.0, 3.0)),
    ),
    (Circle(P0, 1.0), "Circle(center=Point(x=0.0, y=0.0), radius=1.0)", Circle(P0, 2.0)),
    (
        Ellipse(P0, 2.0, 1.0),
        "Ellipse(center=Point(x=0.0, y=0.0), semi_major=2.0, "
        "semi_minor=1.0, axis=Point(x=1.0, y=0.0))",
        Ellipse(P0, 2.0, 1.0, Point(0.0, 1.0)),
    ),
    (
        Triangle(P0, Q, R),
        "Triangle(A=Point(x=0.0, y=0.0), B=Point(x=1.0, y=0.0), C=Point(x=0.0, y=1.0))",
        Triangle(P0, Q * 2.0, R),
    ),
    (
        Pose(P1, 0.25, True, 2.0),
        "Pose(translation=Point(x=1.0, y=2.0), rotation=0.25, reflect_x=True, scale=2.0)",
        Pose(P1, 0.25, False, 2.0),
    ),
]


@pytest.mark.parametrize("value, text, other", GEOM_VALUES)
def test_geom_value_semantics(value, text, other, value_semantics):
    value_semantics(value, text, other)


NO_DIRECTION = "line requires a nonzero direction"
BAD_RADIUS = "circle requires a finite radius >= 0"
BAD_AXES = "ellipse requires semi_major >= semi_minor >= 0"
BAD_SCALE = "pose scale must be positive and finite"
BAD_TRANSLATION = "pose translation must be finite"


@pytest.mark.parametrize(
    "make, kind, message",
    [
        (lambda: Line(P0, P0), GeometryError, NO_DIRECTION),
        (lambda: Line(P0, Point(math.nan, 0.0)), GeometryError, NO_DIRECTION),
        (lambda: Circle(P0, -1.0), GeometryError, BAD_RADIUS),
        (lambda: Circle(P0, math.inf), GeometryError, BAD_RADIUS),
        (lambda: Circle(P0, math.nan), GeometryError, BAD_RADIUS),
        (
            lambda: Ellipse(P0, math.inf, 1.0),
            GeometryError,
            "ellipse semi-axes must be finite",
        ),
        (lambda: Ellipse(P0, 1.0, 2.0), GeometryError, BAD_AXES),
        (lambda: Ellipse(P0, 1.0, -1.0), GeometryError, BAD_AXES),
        (lambda: Triangle(P0, R, Q), DegenerateTriangleError, "triangle must be counterclockwise"),
        (lambda: Triangle(P0, Q, Q * 2.0), DegenerateTriangleError, "degenerate triangle"),
        (lambda: Pose(scale=0.0), GeometryError, BAD_SCALE),
        (lambda: Pose(rotation=math.nan), GeometryError, "pose rotation must be finite"),
        # scale is checked before rotation, and rotation before translation
        (lambda: Pose(rotation=math.inf, scale=-1.0), GeometryError, BAD_SCALE),
        (lambda: Pose(Point(math.nan, 0.0), math.nan), GeometryError,
         "pose rotation must be finite"),
        *(
            pytest.param(lambda xy=xy: Pose(xy), GeometryError, BAD_TRANSLATION,
                         id=f"Pose({xy})")
            for bad in (math.nan, math.inf, -math.inf)
            for xy in (Point(bad, 0.0), Point(0.0, bad), (bad, 1.0), (1.0, bad))
        ),
        # _make, and _replace through it, build through the same checks
        pytest.param(
            lambda: Line(P0, Q)._replace(direction=P0), GeometryError, NO_DIRECTION,
            id="Line._replace",
        ),
        pytest.param(
            lambda: Circle(P0, 1.0)._replace(radius=-1.0), GeometryError, BAD_RADIUS,
            id="Circle._replace",
        ),
        pytest.param(
            lambda: Ellipse(P0, 2.0, 1.0)._replace(semi_minor=3.0),
            GeometryError,
            BAD_AXES,
            id="Ellipse._replace",
        ),
        pytest.param(
            lambda: Triangle._make((P0, R, Q)),
            DegenerateTriangleError,
            "triangle must be counterclockwise",
            id="Triangle._make",
        ),
        pytest.param(
            lambda: Pose()._replace(scale=0.0), GeometryError, BAD_SCALE, id="Pose._replace"
        ),
    ],
)
def test_geom_constructors_raise_as_before(make, kind, message, raises_as_before):
    raises_as_before(make, kind, message)


def _same_derived(got, fresh):
    """Equal fields, and derived values (the instance dict, outside the
    fields) equal bit for bit: repr tells -0.0 from 0.0."""
    assert type(got) is type(fresh) and got == fresh
    assert repr(vars(got)) == repr(vars(fresh)) and vars(got)
    for field, want in zip(got, fresh):
        if hasattr(want, "__dict__"):
            _same_derived(field, want)


def test_replace_builds_what_the_constructor_builds():
    assert Line(P0, Q)._replace(direction=Point(0.0, 2.0)).direction == Point(0.0, 1.0)
    moved = Pose(rotation=0.5)._replace(rotation=1.0)
    assert moved.map_xy(1.0, 0.0) == Pose(rotation=1.0).map_xy(1.0, 0.0)
    _same_derived(moved, Pose(rotation=1.0))
    # the cos/sin pair is derived anew
    off_axis = Pose()._replace(rotation=0.3)
    _same_derived(off_axis, Pose(rotation=0.3))
    turned = Pose(rotation=0.3)._replace(rotation=-1.5 * math.pi, scale=2.0)
    _same_derived(turned, Pose(rotation=-1.5 * math.pi, scale=2.0))
    params = PorismParams(1.25, 1.75)
    _same_derived(params._replace(R=3.0), PorismParams(3.0, 1.75, params.u_excess))
    _same_derived(
        params._replace(u=2.0, u_excess=2.0 - math.sqrt(3.0)), PorismParams(1.25, 2.0)
    )
    scene = scene_from_Ru(params, Pose(Point(0.5, -0.0), 0.5 * math.pi, True, 3.0))
    other = PorismParams.from_excess(0.5, 1e-9)
    pose = Pose(Point(-1.0, 2.0), math.pi, False, 0.25)
    for got, fresh in (
        (scene._replace(pose=pose), PorismScene(params, pose)),
        (scene._replace(params=other), scene_from_Ru(other, scene.pose)),
        (scene._replace(params=other, pose=pose), scene_from_Ru(other, pose)),
    ):
        _same_derived(got, fresh)
        for name in ("inellipse", "brocard_circle", "omega1", "X6", "beltrami_radius"):
            assert repr(getattr(got, name)) == repr(getattr(fresh, name)), name
    # a copy and a pickle round trip carry the derived values along
    for value in (off_axis, turned, params, scene, scene._replace(params=other)):
        _same_derived(copy.copy(value), value)
        _same_derived(pickle.loads(pickle.dumps(value)), value)


def test_geom_keywords_and_defaults():
    assert Pose(rotation=0.5) == Pose(Point(0.0, 0.0), 0.5, False, 1.0)
    assert Pose.identity() == (Point(0.0, 0.0), 0.0, False, 1.0)
    assert Ellipse(P1, 2.0, 1.0).axis == Point(1.0, 0.0)
    assert Ellipse(
        center=P1, semi_major=2.0, semi_minor=1.0, axis=Point(0.0, 1.0)
    ) == (P1, 2.0, 1.0, Point(0.0, 1.0))
    # the axis is kept as a unit Point
    axis = Ellipse(P1, 2.0, 1.0, (3.0, -4.0)).axis
    assert type(axis) is Point and axis == Line(P1, Point(3.0, -4.0)).direction
    assert Circle(center=P1, radius=1.0) == Circle(P1, 1.0)
    assert Line(base=P1, direction=Point(0.0, 2.0)).direction == Point(0.0, 1.0)
    assert Triangle(A=P0, B=Q, C=R) == (P0, Q, R)
    # the map, cos/sin, scale, translation and mirror, is kept outside the four fields
    pose = Pose(rotation=0.5)
    assert pose._map == (math.cos(0.5), math.sin(0.5), 1.0, 0.0, 0.0, False)
    assert len(pose) == 4 and pose._fields == ("translation", "rotation", "reflect_x", "scale")


@pytest.mark.parametrize(
    "axis", [P0, Point(-0.0, 0.0), Point(math.nan, 1.0), Point(math.inf, 0.0), Point(1.0, -math.inf)]
)
def test_ellipse_rejects_an_axis_with_no_direction(axis, raises_as_before):
    raises_as_before(lambda: Ellipse(P1, 2.0, 1.0, axis), GeometryError, NO_DIRECTION)
    raises_as_before(lambda: Ellipse(P1, 2.0, 1.0)._replace(axis=axis), GeometryError, NO_DIRECTION)


def test_rotated_quarter_turn():
    p = Point(1.0, 0.0).rotated(0.5 * math.pi)
    assert abs(p.x) < 1e-16
    assert abs(p.y - 1.0) < 1e-16


def test_line_requires_direction():
    with pytest.raises(GeometryError):
        Line(Point(0.0, 0.0), Point(0.0, 0.0))


def test_line_line_intersection():
    l1 = Line(Point(0.0, 0.0), Point(1.0, 1.0))
    l2 = Line(Point(2.0, 0.0), Point(0.0, 3.0))
    p = line_line_intersection(l1, l2)
    assert p.dist(Point(2.0, 2.0)) < 1e-15
    with pytest.raises(GeometryError):
        line_line_intersection(l1, Line(Point(5.0, 0.0), Point(2.0, 2.0)))


def test_projection_foot_is_perpendicular():
    rng = _rng()
    for _ in range(200):
        line = Line(
            Point(rng.uniform(-3, 3), rng.uniform(-3, 3)),
            Point(1.0, 0.0).rotated(rng.uniform(0.0, 2.0 * math.pi)),
        )
        p = Point(rng.uniform(-3, 3), rng.uniform(-3, 3))
        foot = project_onto_line(line, p)
        assert abs((p - foot).dot(line.direction)) < 1e-12
        assert project_onto_line(line, foot).dist(foot) < 1e-13


def test_three_point_center_known():
    A, B, C = Point(1.0, 0.0), Point(-1.0, 0.0), Point(0.0, 1.0)
    assert three_point_center(A, B, C).dist(Point(0.0, 0.0)) < 1e-15
    c = circumcircle(Triangle.oriented(A, B, C))
    assert c.center.dist(Point(0.0, 0.0)) < 1e-15
    assert abs(c.radius - 1.0) < 1e-15
    with pytest.raises(DegenerateTriangleError):
        three_point_center(Point(0.0, 0.0), Point(1.0, 1.0), Point(2.0, 2.0))


def test_circumcircle_passes_through_vertices():
    rng = _rng()
    for _ in range(50):
        pts = [Point(rng.uniform(-2, 2), rng.uniform(-2, 2)) for _ in range(3)]
        try:
            tri = Triangle.oriented(*pts)
        except DegenerateTriangleError:
            continue
        c = circumcircle(tri)
        for v in tri:
            assert c.membership_residual(v) < 1e-12


def test_inversion_involution_and_pole():
    rng = _rng()
    c = Circle(Point(0.4, -1.1), 2.3)
    for _ in range(300):
        p = c.center + Point(1.0, 0.0).rotated(rng.uniform(0, 2 * math.pi)) * (
            c.radius * rng.uniform(0.05, 5.0)
        )
        q = invert_in_circle(c, invert_in_circle(c, p))
        assert q.dist(p) <= 1e-11 * max(1.0, p.norm())
    with pytest.raises(InversionPoleError):
        invert_in_circle(c, c.center)


def test_inversion_fixes_the_circle():
    c = Circle(Point(2.0, 1.0), 1.5)
    for k in range(12):
        p = c.point_at(k * math.pi / 6.0)
        assert invert_in_circle(c, p).dist(p) < 1e-14


def test_triangle_orientation():
    with pytest.raises(DegenerateTriangleError):
        Triangle(Point(0.0, 0.0), Point(1.0, 0.0), Point(2.0, 0.0))
    # clockwise input is rejected by the raw constructor, fixed by oriented()
    with pytest.raises(DegenerateTriangleError):
        Triangle(Point(0.0, 0.0), Point(0.0, 1.0), Point(1.0, 0.0))
    t = Triangle.oriented(Point(0.0, 0.0), Point(0.0, 1.0), Point(1.0, 0.0))
    assert t.measure[3] == area(t) == 0.5


def _reference_triangle(A, B, C):
    """The Triangle check through Point operations, the route the scalar
    ``__post_init__`` replaced; returns the vertices it accepts."""
    ab, ac = B - A, C - A
    doubled = cross(ab, ac)
    longest = max(ab.norm(), ac.norm(), (C - B).norm())
    if not doubled > 1e-12 * longest * longest:
        if doubled < 0.0:
            raise DegenerateTriangleError("triangle must be counterclockwise")
        raise DegenerateTriangleError("degenerate triangle")
    return (A, B, C)


def _reference_oriented(A, B, C):
    if cross(B - A, C - A) < 0.0:
        B, C = C, B
    return _reference_triangle(A, B, C)


def _reference_three_point_center(p, q, r):
    g = Point((p.x + q.x + r.x) / 3.0, (p.y + q.y + r.y) / 3.0)
    a, b, c = p - g, q - g, r - g
    d = 2.0 * (a.x * (b.y - c.y) + b.x * (c.y - a.y) + c.x * (a.y - b.y))
    scale = max(a.norm(), b.norm(), c.norm())
    if abs(d) < 1e-14 * scale * scale:
        raise DegenerateTriangleError("degenerate triangle")
    a2, b2, c2 = a.dot(a), b.dot(b), c.dot(c)
    ux = (a2 * (b.y - c.y) + b2 * (c.y - a.y) + c2 * (a.y - b.y)) / d
    uy = (a2 * (c.x - b.x) + b2 * (a.x - c.x) + c2 * (b.x - a.x)) / d
    return g + Point(ux, uy)


def _reference_circumcircle(t):
    center = _reference_three_point_center(*t)
    return Circle(center, center.dist(t.A))


def _vertex_triples(posed_members):
    """Each member's vertices, reversed, and bent onto and just off the
    line through A and B, around the 1e-12 and 1e-14 relative gates."""
    rng = random.Random(41)
    for _, tri in posed_members:
        A, B, C = tri
        mid = midpoint(A, B)
        off = (B - A).rotated(0.5 * math.pi) * 10.0 ** rng.uniform(-15.0, -10.0)
        for triple in ((A, B, C), (A, C, B), (A, B, mid), (A, A, B),
                       (A, B, mid + off), (A, B, mid - off)):
            yield triple


def test_triangle_kernels_are_bit_exact(posed_members, same_route):
    for A, B, C in _vertex_triples(posed_members):
        same_route(lambda *v: tuple(Triangle(*v)), _reference_triangle, A, B, C)
        same_route(lambda *v: tuple(Triangle.oriented(*v)), _reference_oriented, A, B, C)
        same_route(three_point_center, _reference_three_point_center, A, B, C)
    for _, tri in posed_members:
        same_route(circumcircle, _reference_circumcircle, tri)


def test_triangle_kernels_raise_as_the_point_route_does(same_route):
    O, X, Y = Point(0.0, 0.0), Point(1.0, 0.0), Point(0.0, 1.0)
    cases = (
        (Triangle, (O, Y, X), "triangle must be counterclockwise"),
        (Triangle, (O, X, Point(2.0, 0.0)), "degenerate triangle"),
        (Triangle, (O, O, O), "degenerate triangle"),
        (Triangle.oriented, (O, X, Point(3.0, 0.0)), "degenerate triangle"),
        (three_point_center, (O, Point(1.0, 1.0), Point(2.0, 2.0)), "degenerate triangle"),
        # the determinant is 0.0 with the scale: three equal points, and
        # a triangle near 1e-200, where both underflow
        (three_point_center, (X, X, X), "degenerate triangle"),
        (three_point_center, (O, X * 1e-200, Y * 1e-200), "degenerate triangle"),
    )
    for kernel, args, message in cases:
        with pytest.raises(DegenerateTriangleError, match=message):
            kernel(*args)
    same_route(lambda *v: tuple(Triangle(*v)), _reference_triangle, O, Y, X)
    same_route(three_point_center, _reference_three_point_center, O, X, Point(2.0, 0.0))


def test_pose_roundtrip_on_points():
    rng = _rng()
    for _ in range(100):
        pose = Pose(
            translation=Point(rng.uniform(-2, 2), rng.uniform(-2, 2)),
            rotation=rng.uniform(0.0, 2.0 * math.pi),
            reflect_x=rng.random() < 0.5,
            scale=rng.uniform(0.2, 3.0),
        )
        p = Point(rng.uniform(-2, 2), rng.uniform(-2, 2))
        there = pose.apply(p)
        back = inverse(pose).apply(there)
        assert back.dist(p) < 1e-12
        # compose agrees with sequential application
        other = Pose(translation=Point(0.3, -0.7), rotation=1.1, scale=0.5)
        assert pose.compose(other).apply(p).dist(pose.apply(other.apply(p))) < 1e-12


def test_pose_circle_and_ellipse():
    pose = Pose(
        translation=Point(1.0, -2.0),
        rotation=math.pi,
        reflect_x=True,
        scale=2.0,
    )
    c = apply_circle(pose, Circle(Point(0.5, 0.0), 0.75))
    assert abs(c.radius - 1.5) < 1e-15
    assert c.center.dist(pose.apply(Point(0.5, 0.0))) < 1e-15

    e = Ellipse(Point(0.0, 1.0), 2.0, 1.0)
    m = apply_ellipse(pose, e)
    assert m.center.dist(pose.apply(Point(0.0, 1.0))) < 1e-15
    assert abs(m.semi_major - 4.0) < 1e-15
    assert abs(m.semi_minor - 2.0) < 1e-15
    # the mirror then the half turn keep the x axis
    assert m.axis.dist(Point(1.0, 0.0)) < 1e-15
    # any turn turns the axis with it, and the mapped ellipse holds the
    # mapped points
    for rotation in (0.5 * math.pi, 0.3, -2.0):
        turn = Pose(Point(0.5, -1.0), rotation, rotation < 0.0, 1.5)
        m = apply_ellipse(turn, e)
        sign = -1.0 if turn.reflect_x else 1.0
        assert m.axis.dist(Point(sign, 0.0).rotated(rotation)) < 1e-15
        for theta in (0.0, 0.7, 2.0, -1.3):
            assert m.implicit_residual(turn.apply(e.point_at(theta))) < 1e-14


def _reference_apply(pose, p):
    """The pose map as a chain of Point operations, the bit pattern that
    ``Pose.map_xy`` must reproduce."""
    q = Point(-p.x, p.y) if pose.reflect_x else p
    return pose.translation + q.rotated(pose.rotation) * pose.scale


def _random_poses(rng):
    yield Pose.identity()
    yield Pose(translation=Point(-0.0, 0.0), reflect_x=True)
    for _ in range(200):
        yield Pose(
            translation=Point(rng.choice([0.0, -0.0, rng.uniform(-3, 3)]), rng.uniform(-3, 3)),
            rotation=rng.choice([rng.uniform(-7.0, 7.0), rng.randrange(-4, 5) * 0.5 * math.pi]),
            reflect_x=rng.random() < 0.5,
            scale=rng.choice([1.0, rng.uniform(0.2, 3.0)]),
        )


def test_pose_apply_is_bit_exact():
    rng = _rng()
    for pose in _random_poses(rng):
        for p in (
            Point(rng.uniform(-2, 2), rng.uniform(-2, 2)),
            Point(-0.0, rng.uniform(-2, 2)),
            Point(rng.uniform(-2, 2), -0.0),
            Point(-0.0, -0.0),
            Point(0.0, 0.0),
        ):
            got, want = pose.apply(p), _reference_apply(pose, p)
            # repr tells -0.0 from 0.0, which == does not
            assert got == want and repr(got) == repr(want)
            assert repr(pose.map_xy(p.x, p.y)) == repr(want)


def test_pose_compose_and_inverse_are_bit_exact():
    rng = _rng()
    other = Pose(translation=Point(-0.0, 0.25), rotation=1.1, scale=0.5)
    for pose in _random_poses(rng):
        assert repr(pose.compose(other).translation) == repr(
            _reference_apply(pose, other.translation)
        )
        inv = inverse(pose)
        t = pose.translation * -1.0
        q = Point(-t.x, t.y) if inv.reflect_x else t
        assert repr(inv.translation) == repr(q.rotated(inv.rotation) * inv.scale)


def test_a_pose_keeps_any_translation_pair_as_a_point():
    twin = Pose(Point(1.0, -0.0), 0.5, True, 2.0)
    built = Pose((1.0, -0.0), 0.5, True, 2.0)
    assert type(built.translation) is Point
    assert built == twin and repr(built) == repr(twin) and repr(vars(built)) == repr(vars(twin))
    assert repr(Pose()._replace(translation=(1.0, -0.0))) == repr(Pose(Point(1.0, -0.0)))
    with pytest.raises(GeometryError, match=BAD_TRANSLATION):
        Pose()._replace(translation=(math.nan, 0.0))
    # either side of a composition may be built from a tuple
    other = Pose(Point(-0.5, 0.25), 1.1, False, 0.5)
    for first, second in ((Pose(), built), (built, other), (other, built)):
        got = first.compose(second)
        want = (twin if first is built else first).compose(twin if second is built else second)
        assert repr(got) == repr(want) and repr(vars(got)) == repr(vars(want))


def test_pose_equality_hash_and_repr_see_only_fields():
    assert Pose() == Pose.identity()
    assert hash(Pose()) == hash(Pose.identity())
    assert repr(Pose()) == (
        "Pose(translation=Point(x=0.0, y=0.0), rotation=0.0, reflect_x=False, scale=1.0)"
    )
    assert Pose(rotation=0.5) != Pose(rotation=0.25)


def test_pose_rejects_non_finite_rotation_and_scale():
    for rotation in (math.inf, -math.inf, math.nan):
        with pytest.raises(GeometryError):
            Pose(rotation=rotation)
    for scale in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(GeometryError):
            Pose(scale=scale)


def test_ellipse_tangency_residual_zero_on_tangents():
    rng = _rng()
    for _ in range(200):
        hi = rng.uniform(0.2, 2.0)
        lo = rng.uniform(0.2, hi)
        e = Ellipse(
            Point(rng.uniform(-1, 1), rng.uniform(-1, 1)),
            hi,
            lo,
            Point(1.0, 0.0).rotated(rng.uniform(-math.pi, math.pi)),
        )
        theta = rng.uniform(0.0, 2.0 * math.pi)
        line = Line(e.point_at(theta), e.tangent_direction_at(theta))
        assert ellipse_line_tangency_residual(e, line) < 1e-11


def test_ellipse_tangency_residual_positive_off_tangent():
    e = Ellipse(Point(0.0, 0.0), 2.0, 1.0)
    chord = Line(Point(0.0, 0.0), Point(1.0, 0.0))
    assert ellipse_line_tangency_residual(e, chord) > 0.5


def test_ellipse_foci():
    e = Ellipse(Point(1.0, 2.0), 5.0, 3.0)
    f1, f2 = ellipse_foci(e)
    assert f1.dist(Point(-3.0, 2.0)) < 1e-12
    assert f2.dist(Point(5.0, 2.0)) < 1e-12
    v = Ellipse(Point(0.0, 0.0), 5.0, 3.0, Point(0.0, 1.0))
    g1, g2 = ellipse_foci(v)
    assert g1.dist(Point(0.0, -4.0)) < 1e-12
    assert g2.dist(Point(0.0, 4.0)) < 1e-12
    # off the coordinate axes the foci lie along the axis
    w = Ellipse(Point(1.0, -1.0), 5.0, 3.0, Point(3.0, 4.0))
    h1, h2 = ellipse_foci(w)
    assert h1.dist(Point(1.0 - 2.4, -1.0 - 3.2)) < 1e-12
    assert h2.dist(Point(1.0 + 2.4, -1.0 + 3.2)) < 1e-12


def test_orthogonal_circles_residual():
    # radii 3-4-5 at center distance 5: tangents meet at right angles
    c1 = Circle(Point(0.0, 0.0), 3.0)
    c2 = Circle(Point(5.0, 0.0), 4.0)
    assert circles_orthogonality_residual(c1, c2) < 1e-15
    c3 = Circle(Point(5.0, 0.0), 3.0)
    assert circles_orthogonality_residual(c1, c3) > 1.0


def test_circle_nesting_slack():
    outer = Circle(Point(1.0, -2.0), 3.0)
    # internally tangent: the slack is exactly zero
    assert circle_nesting_slack(Circle(Point(2.0, -2.0), 2.0), outer) == 0.0
    # a point circle is its center: the slack is the distance to the rim
    assert circle_nesting_slack(Circle(Point(1.0, -1.5), 0.0), outer) == 2.5
    assert circle_nesting_slack(Circle(Point(1.0, 2.0), 0.0), outer) == -1.0
    # an inner circle that pokes out by 0.5 reads -0.5
    assert circle_nesting_slack(Circle(Point(1.0, 0.0), 1.5), outer) == -0.5
    assert circle_nesting_slack(outer, outer) == 0.0


def test_midpoint():
    assert midpoint(Point(0.0, 0.0), Point(2.0, 4.0)) == Point(1.0, 2.0)
