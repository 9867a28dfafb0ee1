import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from brocard.checks import isosceles_scene
from brocard.geom import Circle, GeometryError, Line, Point, Pose, three_point_center
from brocard.porism import (
    FIXTURE,
    DegeneratePorismError,
    IsoscelesParams,
    PorismParams,
    Ru_from_dh,
    scene_from_Ru,
)
from brocard.recurrence import (
    _nudged,
    _offset,
    alternating_brocard_sequence,
    anti_scene,
    brocard_nesting,
    child_scene,
    orbit_scenes,
    step_backward,
    step_forward,
)
from reference import inverse

SQRT3 = math.sqrt(3.0)
FIX = PorismParams(1.25, 1.75)


def test_step_forward_fixture():
    # (5/4, 7/4) -> (5/56, 97/56)
    child = step_forward(FIX)
    assert abs(child.R - 5.0 / 56.0) < 1e-15
    assert abs(child.u - 97.0 / 56.0) < 1e-15


def test_step_forward_excess_form():
    rng = random.Random(31)
    for _ in range(200):
        p = PorismParams(rng.uniform(0.1, 3.0), SQRT3 + rng.uniform(1e-6, 5.0))
        child = step_forward(p)
        assert abs(child.u - (p.u * p.u + 3.0) / (2.0 * p.u)) < 1e-13
        assert abs(child.R - p.R * p.gap / (2.0 * p.u)) < 1e-15 * p.R
        assert abs(child.u_excess - p.u_excess ** 2 / (2.0 * p.u)) < 1e-16


def test_fixed_point_sticks():
    eq = PorismParams.from_excess(1.0, 0.0)
    child = step_forward(eq)
    assert child.u_excess == 0.0
    assert child.R == 0.0
    with pytest.raises(GeometryError):
        step_backward(eq)


def test_step_backward_fixture():
    # (1, 2) -> u + gap = 3, R scaled by 2*3/sqrt(6)
    prev = step_backward(PorismParams(1.0, 2.0))
    assert abs(prev.u - 3.0) < 1e-15
    assert abs(prev.R - 6.0 / math.sqrt(6.0)) < 1e-14


def test_steps_invert_each_other():
    rng = random.Random(32)
    for _ in range(100):
        p = PorismParams(rng.uniform(0.1, 3.0), SQRT3 + rng.uniform(1e-4, 5.0))
        q = step_backward(step_forward(p))
        assert abs(q.R - p.R) < 1e-12 * p.R
        assert abs(q.u - p.u) < 1e-12 * p.u
        r = step_forward(step_backward(p))
        assert abs(r.R - p.R) < 1e-12 * p.R
        assert abs(r.u - p.u) < 1e-12 * p.u


def test_step_shrinks_everything():
    rng = random.Random(33)
    for _ in range(100):
        p = PorismParams(rng.uniform(0.1, 3.0), SQRT3 + rng.uniform(1e-4, 5.0))
        child = step_forward(p)
        assert child.R < p.R
        assert child.u_excess < p.u_excess
        assert child.omega > p.omega


def test_child_scene_sits_on_parent_brocard_circle():
    rng = random.Random(34)
    for _ in range(40):
        pose = Pose(
            translation=Point(rng.uniform(-2, 2), rng.uniform(-2, 2)),
            rotation=0.5 * math.pi * rng.randrange(4),
            reflect_x=rng.random() < 0.5,
            scale=rng.uniform(0.4, 2.0),
        )
        parent = scene_from_Ru(
            PorismParams(rng.uniform(0.3, 2.0), SQRT3 + rng.uniform(0.05, 3.0)),
            pose,
        )
        child = child_scene(parent)
        assert child.circumcircle.center.dist(parent.brocard_circle.center) < 1e-12
        assert (
            abs(child.circumcircle.radius - parent.brocard_circle.radius) < 1e-12
        )
        # the stationary points of the cascade do not move
        assert child.X15.dist(parent.X15) < 1e-9
        assert child.X16.dist(parent.X16) < 1e-6 * max(1.0, parent.X16.norm())


def test_anti_scene_inverts_child_scene():
    rng = random.Random(35)
    for _ in range(40):
        scene = scene_from_Ru(
            PorismParams(rng.uniform(0.3, 2.0), SQRT3 + rng.uniform(0.05, 3.0))
        )
        back = anti_scene(child_scene(scene))
        assert abs(back.params.R - scene.params.R) < 1e-12
        assert abs(back.params.u - scene.params.u) < 1e-12
        assert back.X3.dist(scene.X3) < 1e-12
        assert back.omega1.dist(scene.omega1) < 1e-12
        up = anti_scene(scene)
        assert child_scene(up).X3.dist(scene.X3) < 1e-11


def _anti_scene_by_inverse(scene):
    """The backward step through the inverse of the child offset, the
    route ``_offset(R)`` replaced."""
    child_offset = Pose(Point(0.0, -scene.params.R), reflect_x=True)
    pose = scene.pose.compose(inverse(child_offset))
    return scene_from_Ru(step_backward(scene.params), pose)


def _built(step, scene):
    """The scene ``step`` builds from ``scene``, with its pose's kept map, as text."""
    out = step(scene)
    return repr((out, out.pose._map))


def test_anti_scene_is_the_inverse_offset_route(same_route):
    """``anti_scene`` builds, bit for bit, the scene and kept pose map of
    the route through the general inverse: over every quarter turn in
    [-2pi, 2pi], both mirrors, signed zero translations and pose scales
    across 2^-200..2^200."""
    rng = random.Random(30)
    for i in range(10_000):
        scale = 2.0 ** (400.0 * (i + rng.random()) / 10_000 - 200.0)
        tx = (-0.0, 0.0, scale * rng.uniform(-3.0, 3.0))[i // 18 % 3]
        pose = Pose(Point(tx, scale * rng.uniform(-3.0, 3.0)), (i % 9 - 4) * 0.5 * math.pi,
                    i // 9 % 2 == 1, scale)
        params = PorismParams.from_excess(2.0 ** rng.uniform(-60.0, 60.0),
                                          10.0 ** rng.uniform(-9.0, 3.0))
        scene = scene_from_Ru(params, pose)
        same_route(lambda: _built(anti_scene, scene),
                   lambda: _built(_anti_scene_by_inverse, scene))
    for _ in range(2_000):
        R = 2.0 ** rng.uniform(-300.0, 300.0)
        back, want = _offset(R), inverse(_offset(-R))
        assert repr((back, back._map)) == repr((want, want._map))


def test_child_scene_rejects_vanishing_child():
    # excess underflows to zero after one squaring step
    with pytest.raises(DegeneratePorismError):
        child_scene(scene_from_Ru(PorismParams.from_excess(1.0, 1e-200)))


def test_orbit_forward_quadratic_convergence():
    scenes = orbit_scenes(scene_from_Ru(PorismParams(1.0, 3.0)), 6)
    errors = [s.params.u_excess for s in scenes]
    assert len(scenes) == 7
    assert errors[-1] < 1e-12
    for e0, e1 in zip(errors, errors[1:]):
        assert 0.0 < e1 / (e0 * e0) <= 0.3
    # generations decrease monotonically; deep in, u itself saturates at
    # the float closest to sqrt(3) while the stored excess keeps shrinking
    for a, b in zip(scenes, scenes[1:]):
        assert b.params.R < a.params.R
        assert b.params.u_excess < a.params.u_excess


def test_orbit_forward_stops_on_underflow():
    scenes = orbit_scenes(scene_from_Ru(PorismParams(1.0, 2.0)), 500)
    assert len(scenes) < 20
    last = scenes[-1].params
    assert last.u_excess > 0.0
    assert step_forward(last).u_excess == 0.0


def test_orbit_backward_growth():
    root = scene_from_Ru(PorismParams(1.0, 2.0))
    scenes = orbit_scenes(root, 8, anti_scene)
    assert scenes[-1].params.u > 100.0
    for a, b in zip(scenes, scenes[1:]):
        assert b.params.u > a.params.u
        assert b.params.R > a.params.R


def test_orbit_backward_stops_before_overflow():
    root = scene_from_Ru(PorismParams(1.0, 2.0))
    scenes = orbit_scenes(root, 2000, anti_scene)
    assert len(scenes) == 341
    with pytest.raises(DegeneratePorismError):
        anti_scene(scenes[-1])


def test_orbit_backward_stops_where_the_semi_minor_axis_overflows():
    # 2R/(1 + u^2) overflows in 2R before the cubic center does, and the
    # scene raises that as a plain GeometryError
    root = scene_from_Ru(PorismParams(1.7537280911393383e+307, 1.7374979869106295))
    with pytest.raises(GeometryError, match="ellipse semi-axes must be finite"):
        anti_scene(root)
    assert orbit_scenes(root, 3, anti_scene) == [root]


def test_orbit_rejects_the_fixed_point():
    with pytest.raises(DegeneratePorismError):
        scene_from_Ru(PorismParams(1.0, SQRT3))


def test_orbit_rejects_negative_length():
    with pytest.raises(ValueError):
        orbit_scenes(scene_from_Ru(FIX), -1)
    with pytest.raises(ValueError):
        orbit_scenes(scene_from_Ru(FIX), -1, anti_scene)


def test_alternating_sequence_on_beltrami_circles():
    root = scene_from_Ru(FIX)
    first, second = alternating_brocard_sequence(orbit_scenes(root, 6))
    assert len(first) == 7 and len(second) == 7
    assert first[0].dist(root.omega1) == 0.0
    assert second[0].dist(root.omega2) == 0.0
    c1, c2 = root.beltrami_circles()
    for p in first:
        assert c1.membership_residual(p) < 1e-9
    for q in second:
        assert c2.membership_residual(q) < 1e-9
    # successive points march monotonically toward X15
    for a, b in zip(first, first[1:]):
        assert b.dist(root.X15) < a.dist(root.X15) + 1e-15


def test_alternating_sequence_holds_only_walked_generations():
    root = scene_from_Ru(FIX)
    walked = orbit_scenes(root, 40)
    first, second = alternating_brocard_sequence(walked)
    assert len(first) == len(second) == len(walked) == 8
    # the last entries are generation 7's points, not copies of the limit
    assert (first[-1], second[-1]) == (walked[-1].omega2, walked[-1].omega1)
    assert 0.0 < first[-1].dist(root.X15) <= 1e-16
    assert 0.0 < second[-1].dist(root.X15) <= 1e-16


def _circle_through(p, q, r):
    center = three_point_center(p, q, r)
    return Circle(center, center.dist(p))


def apollonius_circles(iso):
    """Apollonius circles of the isosceles member's base segment.

    The two proper circles through X15, X16 and one base vertex each are
    the scene's Beltrami circles, returned in the order matching
    (first, second); the degenerate third circle is the Brocard axis.
    An independent route to the Beltrami circles the scenes store.
    """
    scene = scene_from_Ru(Ru_from_dh(iso))
    tri, _, _ = isosceles_scene(iso)
    through_a, through_b = (_circle_through(v, scene.X15, scene.X16) for v in (tri.A, tri.B))
    c1, c2 = scene.beltrami_circles()
    if through_a.center.dist(c1.center) <= through_b.center.dist(c1.center):
        matched = (through_a, through_b)
    else:
        matched = (through_b, through_a)
    axis = Line(scene.X3, Point(0.0, 1.0))
    return matched[0], matched[1], axis


def test_apollonius_circles_are_beltrami_circles():
    iso = IsoscelesParams(1.0, 2.0)
    a, b, axis = apollonius_circles(iso)
    scene = scene_from_Ru(Ru_from_dh(iso))
    c1, c2 = scene.beltrami_circles()
    assert a.center.dist(c1.center) < 1e-9
    assert abs(a.radius - c1.radius) < 1e-9
    assert b.center.dist(c2.center) < 1e-9
    assert abs(b.radius - c2.radius) < 1e-9
    assert abs(axis.direction.x) < 1e-15
    rng = random.Random(36)
    for _ in range(30):
        d = rng.uniform(0.4, 1.8)
        h = d * rng.uniform(1.9, 3.5)
        a, b, _ = apollonius_circles(IsoscelesParams(d, h))
        s = scene_from_Ru(Ru_from_dh(IsoscelesParams(d, h)))
        k1, k2 = s.beltrami_circles()
        assert a.center.dist(k1.center) < 1e-7 * max(1.0, k1.center.norm())
        assert abs(a.radius - k1.radius) < 1e-7 * k1.radius
        assert b.center.dist(k2.center) < 1e-7 * max(1.0, k2.center.norm())


# overshoot of each generation's Brocard circle past its parent's, by repr
NESTING_FIXTURE = [
    "-0.08836524300441828", "-0.0004602111821455632", "-1.2229251203719618e-08",
    "-8.63453802283155e-18", "-4.304449184857935e-36", "-1.0697309053555204e-72",
]
NESTING_POSED = [
    "-0.6080713502404134", "-0.15385222952754718", "-0.00540513416989436",
    "-5.8731918851149e-06", "-6.904434783856389e-12", "-9.541880497176225e-24",
]


def test_brocard_nesting_values_are_pinned():
    root = scene_from_Ru(Ru_from_dh(FIXTURE))
    got = [repr(v) for v in brocard_nesting(orbit_scenes(root, 6))]
    assert got == NESTING_FIXTURE
    pose = Pose(translation=Point(0.75, -1.5), rotation=0.5 * math.pi,
                reflect_x=True, scale=2.0)
    posed = scene_from_Ru(PorismParams(1.3, 2.5), pose)
    got = [repr(v) for v in brocard_nesting(orbit_scenes(posed, 6))]
    assert got == NESTING_POSED


def _outcome(step, params):
    """repr of the step's result, which shows every bit and each zero's
    sign, or the type and message of what it raised."""
    try:
        return repr(step(params))
    except Exception as exc:
        return type(exc), str(exc)


@settings(max_examples=300, deadline=None)
@given(
    st.floats(min_value=0.0, max_value=1e300),
    st.one_of(st.floats(min_value=0.0, max_value=1e6), st.floats(min_value=0.0, max_value=1e-150)),
)
def test_a_nudge_by_one_is_the_true_step_bit_for_bit(R, excess):
    params = PorismParams.from_excess(R, excess)
    assert _outcome(_nudged(1.0, 1.0), params) == _outcome(step_forward, params)
