import copy
import math
import pickle
import random

import pytest
from hypothesis import assume, given, settings, strategies as st

from brocard import continuous, porism, recurrence
from brocard.centers import (
    brocard_cotangent,
    brocard_points_by_construction,
    second_brocard_triangle,
    standard_centers,
)
from brocard.checks import conic_to_ellipse, isosceles_scene
from brocard.geom import (
    Circle,
    Ellipse,
    GeometryError,
    Point,
    Pose,
    Triangle,
    circumcircle,
    ellipse_line_tangency_residual,
    inversion_xy,
    lazy,
    midpoint,
)
from brocard.porism import (
    DegeneratePorismError,
    IsoscelesParams,
    ParametrizationSingularityError,
    PorismParams,
    PorismScene,
    Ru_from_dh,
    closure_residuals,
    dh_from_Ru,
    scene_from_Ru,
    scene_member,
    vertices_at,
)
from reference import apply_circle, apply_ellipse, area, sidelengths, through

SQRT3 = math.sqrt(3.0)
FIX_PARAMS = PorismParams(1.25, 1.75)
FIX_ISO = IsoscelesParams(1.0, 2.0)


def test_params_validation():
    with pytest.raises(DegeneratePorismError):
        PorismParams(-1.0, 2.0)
    with pytest.raises(DegeneratePorismError):
        PorismParams(1.0, 1.7)  # below sqrt(3)
    with pytest.raises(DegeneratePorismError):
        PorismParams(math.nan, 2.0)
    # the boundary itself is allowed; it is the fixed point of the recurrence
    eq = PorismParams.from_excess(1.0, 0.0)
    assert eq.gap == 0.0
    assert eq.u_excess == 0.0


def test_params_derived_quantities():
    p = FIX_PARAMS
    assert abs(p.gap - 0.25) < 1e-15
    assert abs(p.omega - math.atan2(4.0, 7.0)) < 1e-14
    assert abs(PorismParams.from_excess(2.0, 0.25).u - (SQRT3 + 0.25)) < 1e-15


def test_gap_survives_tiny_excess():
    """u*u - 3 computed from u alone dies around excess 1e-17; the stored
    excess keeps the gap accurate far below that."""
    e = 1e-40
    p = PorismParams.from_excess(1.0, e)
    want = math.sqrt(e * (e + 2.0 * SQRT3))
    assert abs(p.gap - want) <= 1e-16 * want


def test_iso_params_validation():
    with pytest.raises(DegeneratePorismError):
        IsoscelesParams(0.0, 1.0)
    with pytest.raises(DegeneratePorismError):
        IsoscelesParams(1.0, -2.0)
    assert abs(IsoscelesParams(1.0, 2.0).zeta - 5.0) < 1e-16


@pytest.mark.parametrize(
    "value, text, other",
    [
        (
            PorismParams(1.0, 2.0),
            "PorismParams(R=1.0, u=2.0, u_excess=0.2679491924311228)",
            PorismParams(1.0, 3.0),
        ),
        (IsoscelesParams(1.0, 2.0), "IsoscelesParams(d=1.0, h=2.0)", IsoscelesParams(2.0, 1.0)),
    ],
)
def test_params_value_semantics(value, text, other, value_semantics):
    value_semantics(value, text, other)


@pytest.mark.parametrize(
    "make",
    [
        lambda: PorismParams(1.0, 1.0),
        lambda: PorismParams(-1.0, 2.0),
        lambda: PorismParams(math.nan, 1.0),
        lambda: PorismParams(1.0, math.inf),
        lambda: PorismParams(1.0, 2.0, -0.1),
        lambda: IsoscelesParams(0.0, 1.0),
        lambda: IsoscelesParams(1.0, -1.0),
        lambda: IsoscelesParams(math.nan, 1.0),
        # an explicit excess does not lift u to sqrt(3)
        pytest.param(lambda: PorismParams(1.0, 0.5, 0.0), id="PorismParams.u_below"),
        # _make, and _replace through it, build through the same checks
        pytest.param(lambda: PorismParams._make((1.0, 0.5, 0.0)), id="PorismParams._make"),
        pytest.param(
            lambda: IsoscelesParams(1.0, 2.0)._replace(h=-1.0), id="IsoscelesParams._replace"
        ),
    ],
)
def test_params_raise_as_before(make, raises_as_before):
    raises_as_before(make, DegeneratePorismError, "degenerate porism")


@pytest.mark.parametrize(
    "make",
    [
        pytest.param(lambda: PorismParams(1.0, 2.0, 0.25), id="explicit"),
        pytest.param(lambda: PorismParams(1.0, 2.0)._replace(u=3.0), id="_replace"),
    ],
)
def test_params_reject_an_excess_that_disagrees_with_u(make, raises_as_before):
    raises_as_before(
        make,
        DegeneratePorismError,
        "inconsistent porism: u_excess disagrees with u - sqrt(3)",
    )


def test_params_keywords_and_defaults():
    # the excess defaults to u - sqrt(3)
    assert PorismParams(1.25, 1.75) == (1.25, 1.75, 1.75 - SQRT3)
    # an explicit excess is kept as given: here it is the exact 0.1, where
    # u - sqrt(3) rounds 0.375 ulps of u away
    assert PorismParams(R=1.25, u=SQRT3 + 0.1, u_excess=0.1).u_excess == 0.1
    assert SQRT3 + 0.1 - SQRT3 != 0.1
    assert IsoscelesParams(d=1.0, h=2.0) == FIX_ISO == (1.0, 2.0)


def test_fixture_scene_frozen_values():
    s = scene_from_Ru(FIX_PARAMS)
    assert s.circumcircle.center.dist(Point(0.0, 0.0)) == 0.0
    assert s.circumcircle.radius == 1.25
    e = s.inellipse
    assert e.center.dist(Point(0.0, -7.0 / 52.0)) < 1e-15
    assert abs(e.semi_major - math.sqrt(5.0 / 13.0)) < 1e-15
    assert abs(e.semi_minor - 8.0 / 13.0) < 1e-15
    # the identity leaves canonical +x exactly as it is
    assert repr(e.axis) == "Point(x=1.0, y=0.0)"
    assert s.omega1.dist(Point(1.0 / 13.0, -7.0 / 52.0)) < 1e-15
    assert s.omega2.dist(Point(-1.0 / 13.0, -7.0 / 52.0)) < 1e-15
    assert s.X6.dist(Point(0.0, -5.0 / 28.0)) < 1e-15
    assert s.X182.dist(Point(0.0, -5.0 / 56.0)) < 1e-15
    assert abs(s.brocard_circle.radius - 5.0 / 56.0) < 1e-15
    assert s.X15.dist(Point(0.0, 5.0 * SQRT3 - 8.75)) < 1e-13
    assert s.X16.dist(Point(0.0, -5.0 * SQRT3 - 8.75)) < 1e-13
    assert s.beltrami_P2.dist(Point(-5.0, -8.75)) < 1e-13
    assert s.beltrami_U2.dist(Point(5.0, -8.75)) < 1e-13
    assert abs(s.beltrami_radius - 10.0) < 1e-13


def test_scene_rejects_boundary_params():
    with pytest.raises(DegeneratePorismError):
        scene_from_Ru(PorismParams.from_excess(1.0, 0.0))
    with pytest.raises(DegeneratePorismError):
        scene_from_Ru(PorismParams(0.0, 2.0))


@pytest.mark.parametrize(
    "make, kind, message",
    [
        pytest.param(
            lambda: PorismScene(PorismParams(0.0, 2.0), Pose()),
            DegeneratePorismError,
            "degenerate porism",
            id="constructor",
        ),
    ],
)
def test_scene_is_checked_wherever_it_is_built(make, kind, message, raises_as_before):
    """The constructor runs the checks scene_from_Ru made, so no route
    builds a scene whose objects raise on read."""
    raises_as_before(make, kind, message)


def test_scene_respects_pose():
    rng = random.Random(21)
    base = scene_from_Ru(FIX_PARAMS)
    for _ in range(30):
        pose = Pose(
            translation=Point(rng.uniform(-3, 3), rng.uniform(-3, 3)),
            rotation=rng.choice([0.0, 0.5, 1.0, 1.5]) * math.pi,
            reflect_x=rng.random() < 0.5,
            scale=rng.uniform(0.3, 2.5),
        )
        s = scene_from_Ru(FIX_PARAMS, pose)
        for name in ("omega1", "omega2", "X6", "X15", "X16", "X39", "X182"):
            assert getattr(s, name).dist(pose.apply(getattr(base, name))) < 1e-12
        assert s.X3.dist(pose.apply(base.X3)) < 1e-12
        assert abs(s.circumcircle.radius - pose.scale * 1.25) < 1e-12
        assert abs(s.beltrami_radius - pose.scale * 10.0) < 1e-11


def test_scene_is_canonical_scene_mapped_exactly():
    """Posing a scene maps every canonical field through the pose, bit for
    bit, as if each were built first and then applied."""
    rng = random.Random(27)
    points = ("omega1", "omega2", "X6", "X15", "X16", "X39", "X182", "beltrami_P2", "beltrami_U2")
    for _ in range(60):
        params = PorismParams(rng.uniform(0.2, 3.0), SQRT3 + rng.uniform(1e-6, 4.0))
        base = scene_from_Ru(params)
        poses = [
            Pose.identity(),
            Pose(
                translation=Point(rng.choice([0.0, -0.0, rng.uniform(-3, 3)]), rng.uniform(-3, 3)),
                rotation=rng.choice([rng.randrange(-4, 5) * 0.5 * math.pi, rng.uniform(-7, 7)]),
                reflect_x=rng.random() < 0.5,
                scale=rng.uniform(0.3, 2.5),
            ),
        ]
        for pose in poses:
            s = scene_from_Ru(params, pose)
            want = {name: pose.apply(getattr(base, name)) for name in points}
            want["circumcircle"] = apply_circle(pose, base.circumcircle)
            want["brocard_circle"] = apply_circle(pose, base.brocard_circle)
            want["inellipse"] = apply_ellipse(pose, base.inellipse)
            for name, value in want.items():
                got = getattr(s, name)
                # repr tells -0.0 from 0.0, which == does not; the sign of a
                # zero in the inellipse's axis, a direction, carries nothing
                assert got == value, name
                assert repr(got[:3]) == repr(value[:3]), name


def _eager_scene(params, pose):
    """Every stationary object of the scene, built up front: the assembly
    the lazy ``PorismScene`` properties replaced, kept here as their
    reference."""
    R, u, e = params.R, params.u, params.u_excess
    if R <= 0.0 or e <= 0.0:
        raise DegeneratePorismError("degenerate porism")
    g = params.gap
    one_u2 = 1.0 + u * u
    focal = R * g / one_u2
    y39 = -R * u * g / one_u2
    y182 = -0.5 * R * g / u
    k, at = pose.scale, pose.map_xy
    c, s = math.cos(pose.rotation), math.sin(pose.rotation)
    objects = dict(
        circumcircle=Circle(at(0.0, 0.0), k * R),
        inellipse=Ellipse(
            at(0.0, y39),
            k * (R / math.sqrt(one_u2)),
            k * (2.0 * R / one_u2),
            # the image of canonical +x
            Point(-c, -s) if pose.reflect_x else Point(c, s),
        ),
        omega1=at(focal, y39),
        omega2=at(-focal, y39),
        X6=at(0.0, -R * g / u),
        X15=at(0.0, -R * e / g),
        X16=at(0.0, -R * (SQRT3 + u) / g),
        brocard_circle=Circle(at(0.0, y182), k * (0.5 * R * g / u)),
        beltrami_P2=at(-R / g, -R * u / g),
        beltrami_U2=at(R / g, -R * u / g),
    )
    # a scene whose unit-scale sizes leave the double range is no porism
    if not all(map(math.isfinite, (y39, R / math.sqrt(one_u2), 2.0 * R / one_u2, y182))):
        raise DegeneratePorismError("degenerate porism")
    return objects


def _read_scene(params, pose):
    """Build the scene and read each stationary object once."""
    scene = scene_from_Ru(params, pose)
    return {name: getattr(scene, name) for name in _eager_scene(params, pose)}


def test_scene_properties_are_the_eager_objects():
    rng = random.Random(28)
    for i in range(240):
        # excess over 1e-300..1e3, scale over 1e-6..1e6, all nine quarter
        # turns in [-2pi, 2pi] at even i and any turn in [-10, 10] at odd i,
        # both mirrors, and signed zero translations, chosen apart from the
        # turn, so that a -0.0 translation meets k = 0 too
        excess = 10.0 ** (-300.0 + 303.0 * (i + rng.random()) / 240)
        params = PorismParams.from_excess(10.0 ** rng.uniform(-3.0, 3.0), excess)
        scale = 10.0 ** rng.uniform(-6.0, 6.0)
        tx = (-0.0, 0.0, scale * rng.uniform(-3.0, 3.0))[i // 18 % 3]
        pose = Pose(
            translation=Point(tx, -0.0 if i % 5 == 0 else scale * rng.uniform(-3.0, 3.0)),
            rotation=rng.uniform(-10.0, 10.0) if i % 2 else (i % 9 - 4) * 0.5 * math.pi,
            reflect_x=i // 9 % 2 == 1,
            scale=scale,
        )
        scene, want = scene_from_Ru(params, pose), _eager_scene(params, pose)
        rho = 2.0 * params.R * pose.scale / params.gap
        want["beltrami_circles()"] = (Circle(want["beltrami_P2"], rho), Circle(want["beltrami_U2"], rho))
        for name, value in want.items():
            got = scene.beltrami_circles() if name == "beltrami_circles()" else getattr(scene, name)
            # repr tells -0.0 from 0.0, which == does not
            assert got == value and repr(got) == repr(value), (i, name)


def test_scene_raises_as_the_eager_assembly_does(same_route):
    seen = set()
    for R in (0.0, 1e-300, 1.0, 1e150, 1e308):
        for u in (None, 1.75, 2.0, 1e100, 1e200, 1e300):
            params = PorismParams.from_excess(R, 0.0) if u is None else PorismParams(R, u)
            for scale in (1e-300, 1.0, 1e150, 1e300):
                for rotation in (0.0, 0.5 * math.pi, 0.3, -math.pi, 1e3):
                    pose = Pose(Point(-0.0, 1.0), rotation, rotation < 0.0, scale)
                    # repr, since an overflowing gap leaves NaN coordinates
                    same_route(
                        lambda: repr(_read_scene(params, pose)),
                        lambda: repr(_eager_scene(params, pose)),
                    )
                    try:
                        _eager_scene(params, pose)
                        seen.add("built")
                    except GeometryError as exc:
                        seen.add(str(exc))
    # u = 1e200 at unit R and scale: the gap overflows, and only the
    # Brocard radius 0.5*R*g/u is left infinite
    with pytest.raises(GeometryError, match="circle requires a finite radius"):
        scene_from_Ru(PorismParams(1.0, 1e200))
    # R = 1e308: the semi-minor axis 2R/(1 + u^2) overflows, at any pose
    wide = PorismParams(1e308, 1.75)
    for pose in (Pose(), Pose(rotation=0.3)):
        with pytest.raises(GeometryError, match="ellipse semi-axes must be finite"):
            scene_from_Ru(wide, pose)
    assert seen == {
        "built",
        "degenerate porism",
        "circle requires a finite radius >= 0",
        "ellipse semi-axes must be finite",
    }


def test_scenes_build_and_close_at_every_turn():
    """The porism holds in any Euclidean position: at a turn off the
    quarter turns a scene builds, its members close on its inellipse, its
    Brocard points are the foci X39 -+ focal*axis, and the scenes one step
    either side of it close too.  cos/sin of 1e17 is (-0.886, -0.465),
    though 1e17 over pi/2 rounds to a whole number."""
    rng = random.Random(46)
    rotations = [0.3, 1e17]
    for k in range(-4, 5):
        rotations += [0.5 * math.pi * k + 1.6e-12, 0.5 * math.pi * k - 1.6e-12]
    for rotation in rotations:
        for reflect_x in (False, True):
            scale = 10.0 ** rng.uniform(-3.0, 3.0)
            shift = Point(scale * rng.uniform(-3.0, 3.0), scale * rng.uniform(-3.0, 3.0))
            params = PorismParams(rng.uniform(0.3, 3.0), SQRT3 + rng.uniform(0.05, 3.0))
            root = scene_from_Ru(params, Pose(shift, rotation, reflect_x, scale))
            e, kR = root.inellipse, scale * params.R
            focal = e.axis * (kR * params.gap / (1.0 + params.u * params.u))
            assert root.omega1.dist(e.center + focal) <= 1e-14 * kR
            assert root.omega2.dist(e.center - focal) <= 1e-14 * kR
            for scene in (root, recurrence.child_scene(root), recurrence.anti_scene(root)):
                closed = 0
                while closed < 12:
                    try:
                        tri = scene_member(scene, rng.uniform(-math.pi, math.pi))
                    except ParametrizationSingularityError:
                        continue
                    kR = scene.circumcircle.radius
                    assert max(closure_residuals(scene, tri)) <= 1e-12 * kR, (rotation, reflect_x)
                    closed += 1


def test_inellipse_axes_give_R_and_u():
    """The inellipse's semi-axes a >= b give back R = 2a^2/b and
    u = sqrt(4a^2 - b^2)/b."""
    rng = random.Random(22)
    for _ in range(100):
        p = PorismParams(rng.uniform(0.2, 3.0), SQRT3 + rng.uniform(1e-3, 4.0))
        e = scene_from_Ru(p).inellipse
        a, b = e.semi_major, e.semi_minor
        assert abs(2.0 * a * a / b - p.R) < 1e-12 * p.R
        assert abs(math.sqrt(4.0 * a * a - b * b) / b - p.u) < 1e-12 * p.u


def test_chart_roundtrip_tall_branch():
    fix = dh_from_Ru(FIX_PARAMS)
    assert abs(fix.d - 1.0) < 1e-15
    assert abs(fix.h - 2.0) < 1e-15
    rng = random.Random(23)
    for _ in range(100):
        d = rng.uniform(0.3, 2.0)
        h = d * rng.uniform(1.85, 4.0)  # h > sqrt(3) d
        iso = IsoscelesParams(d, h)
        back = dh_from_Ru(Ru_from_dh(iso))
        assert abs(back.d - d) < 1e-12 * d
        assert abs(back.h - h) < 1e-12 * h


def test_chart_is_two_to_one():
    """(1, 2) and (15/13, 45/26) are the tall and flat shapes of the same
    porism; the inverse chart picks the tall one."""
    flat = IsoscelesParams(15.0 / 13.0, 45.0 / 26.0)
    p = Ru_from_dh(flat)
    assert abs(p.R - 1.25) < 1e-15
    assert abs(p.u - 1.75) < 1e-15
    tall = dh_from_Ru(p)
    assert abs(tall.d - 1.0) < 1e-14
    assert abs(tall.h - 2.0) < 1e-14
    assert flat.h < SQRT3 * flat.d
    assert tall.h > SQRT3 * tall.d


def test_flat_shape_is_the_mirror_porism():
    """A flat isosceles member belongs to the reflection of the canonical
    scene: same conic axes, conic center on the opposite side of X3."""
    rng = random.Random(24)
    for _ in range(50):
        d = rng.uniform(0.3, 2.0)
        h = d * rng.uniform(0.45, 1.65)  # h < sqrt(3) d
        if abs(h - SQRT3 * d) < 1e-2 * d:
            continue
        iso = IsoscelesParams(d, h)
        _, _, coeffs = isosceles_scene(iso)
        conic = conic_to_ellipse(coeffs)
        canon = scene_from_Ru(Ru_from_dh(iso)).inellipse
        assert conic.center.y > 0.0
        assert conic.center.dist(Point(canon.center.x, -canon.center.y)) < 1e-10
        assert abs(conic.semi_major - canon.semi_major) < 1e-10
        assert abs(conic.semi_minor - canon.semi_minor) < 1e-10


def test_chart_rejects_a_degenerate_porism():
    for params in (PorismParams(1.0, SQRT3), PorismParams(0.0, 2.0)):
        with pytest.raises(DegeneratePorismError, match="^degenerate porism$"):
            dh_from_Ru(params)


def test_isosceles_scene_matches_canonical_frame():
    tri, circ, coeffs = isosceles_scene(FIX_ISO)
    assert circ.center == Point(0.0, 0.0)
    assert abs(circ.radius - 1.25) < 1e-16
    apex = max(tri, key=lambda v: v.y)
    assert apex.dist(Point(0.0, 1.25)) < 1e-15
    conic = conic_to_ellipse(coeffs)
    canon = scene_from_Ru(FIX_PARAMS).inellipse
    assert conic.center.dist(canon.center) < 1e-14
    assert abs(conic.semi_major - canon.semi_major) < 1e-14
    assert abs(conic.semi_minor - canon.semi_minor) < 1e-14


def test_conic_to_ellipse_rejections():
    with pytest.raises(GeometryError):
        conic_to_ellipse((1.0, 0.5, 1.0, 0.0, 0.0, -1.0))
    with pytest.raises(GeometryError):
        conic_to_ellipse((1.0, 0.0, -1.0, 0.0, 0.0, -1.0))
    with pytest.raises(GeometryError):
        conic_to_ellipse((1.0, 0.0, 1.0, 0.0, 0.0, 1.0))


def test_conic_to_ellipse_vertical_major_axis():
    # 4x^2 + y^2 = 4: semi-axis 1 along x and 2 along y
    e = conic_to_ellipse((4.0, 0.0, 1.0, 0.0, 0.0, -4.0))
    assert e == Ellipse(Point(0.0, 0.0), 2.0, 1.0, Point(0.0, 1.0))
    assert e.point_at(0.0) == Point(0.0, 2.0)
    assert e.implicit_residual(Point(1.0, 0.0)) == 0.0


def test_vertices_at_covers_the_porism():
    """Every member is inscribed in the chart circumcircle and tangent to
    the inellipse, and keeps the Brocard cotangent of the porism."""
    rng = random.Random(25)
    scene = scene_from_Ru(FIX_PARAMS)
    for _ in range(60):
        t = rng.uniform(0.0, 2.0 * math.pi)
        tri = vertices_at(FIX_ISO, t)
        cc = circumcircle(tri)
        assert cc.center.dist(Point(0.0, 0.0)) < 1e-11
        assert abs(cc.radius - 1.25) < 1e-11
        assert abs(brocard_cotangent(tri) - 1.75) < 1e-10
        for r in closure_residuals(scene, tri):
            assert r < 1e-10


def test_vertices_at_apex_up():
    tri = vertices_at(FIX_ISO, 0.5 * math.pi)
    apex = max(tri, key=lambda v: v.y)
    assert apex.dist(Point(0.0, 1.25)) < 1e-14
    lows = sorted((v for v in tri if v is not apex), key=lambda v: v.x)
    assert lows[0].dist(Point(-1.0, -0.75)) < 1e-12
    assert lows[1].dist(Point(1.0, -0.75)) < 1e-12


def test_vertices_at_singularity():
    # only pathologically flat members get near a vanishing denominator
    d, h = 1.0, 1e5
    t_bad = math.atan2(9.0 * d ** 4 - h ** 4, 2.0 * d * h * (3.0 * d * d - h * h))
    with pytest.raises(ParametrizationSingularityError):
        vertices_at(IsoscelesParams(d, h), t_bad)


def test_scene_member_in_posed_scene():
    """Members live on the posed circles; a reflecting pose reverses the
    orientation of every member and therefore swaps the Brocard labels."""
    rng = random.Random(26)
    for reflect in (False, True):
        pose = Pose(
            translation=Point(0.7, -1.3),
            rotation=0.5 * math.pi,
            reflect_x=reflect,
            scale=1.8,
        )
        scene = scene_from_Ru(PorismParams(0.9, 2.4), pose)
        for _ in range(25):
            t = rng.uniform(0.0, 2.0 * math.pi)
            tri = scene_member(scene, t)
            for v in tri:
                assert scene.circumcircle.membership_residual(v) < 1e-10
            for r in closure_residuals(scene, tri):
                assert r < 1e-9
            o1, o2 = brocard_points_by_construction(tri)
            if reflect:
                o1, o2 = o2, o1
            assert o1.dist(scene.omega1) < 1e-8
            assert o2.dist(scene.omega2) < 1e-8


def _reference_closure_residuals(scene, tri):
    """The closure defects through ``through`` and ellipse_line_tangency_residual,
    the route the scalar kernel replaced; kept here as its reference."""
    A, B, C = tri
    e = scene.inellipse
    return (
        ellipse_line_tangency_residual(e, through(A, B)),
        ellipse_line_tangency_residual(e, through(B, C)),
        ellipse_line_tangency_residual(e, through(C, A)),
    )


def _reference_scene_member(scene, t):
    """The member mapped vertex by vertex through Pose.apply and oriented
    again, the route the posed and identity paths replaced."""
    tri = vertices_at(dh_from_Ru(scene.params), t)
    return Triangle.oriented(*(scene.pose.apply(v) for v in tri))


def test_closure_residuals_are_bit_exact(posed_members, same_route):
    rng = random.Random(44)
    for scene, tri in posed_members:
        same_route(closure_residuals, _reference_closure_residuals, scene, tri)
        # the same pose at unit scale, and the identity, whose map turns the
        # -0.0 that t = -0.0 gives into 0.0 as the reference's does
        pose = scene.pose
        unit = scene_from_Ru(scene.params, Pose(pose.translation, pose.rotation, pose.reflect_x))
        canonical = scene_from_Ru(scene.params)
        for t in (rng.uniform(-math.pi, math.pi), 0.0, -0.0, 0.5 * math.pi, -0.5 * math.pi,
                  math.pi):
            for placed in (scene, unit, canonical):
                same_route(scene_member, _reference_scene_member, placed, t)
    # a side with no direction, on a stand-in that skips the Triangle check
    # and carries the measure the kernel reads its side lengths from
    scene, tri = posed_members[0]
    pinched = tuple.__new__(Triangle, (tri.A, tri.A, tri.C))
    pinched.__dict__["measure"] = (*sidelengths(pinched), area(pinched))
    with pytest.raises(GeometryError, match="line requires a nonzero direction"):
        closure_residuals(scene, pinched)
    same_route(closure_residuals, _reference_closure_residuals, scene, pinched)


def _singular_t(iso):
    """A parameter at which the member chart of a flat iso degenerates."""
    d, h = iso
    return math.atan2(9.0 * d ** 4 - h ** 4, 2.0 * d * h * (3.0 * d * d - h * h))


def test_member_chart_never_goes_stale(same_route):
    rng = random.Random(45)
    ts = [rng.uniform(-math.pi, math.pi) for _ in range(6)]
    pose = Pose(Point(0.7, -1.3), 1.5 * math.pi, True, 1.8)
    scene = scene_from_Ru(PorismParams(0.9, 2.4), pose)
    scene_member(scene, 0.3)  # the scene's chart now exists
    assert "_member" in vars(scene)
    other = PorismParams(2.0, 3.1)
    for derived in (
        scene._replace(pose=Pose(Point(-2.0, 0.5), math.pi, False, 0.5)),
        scene._replace(pose=Pose()),
        scene._replace(params=other),
        scene._replace(params=other, pose=Pose()),
        copy.copy(scene),
        pickle.loads(pickle.dumps(scene)),
        scene_from_Ru(PorismParams(0.9, 2.4), Pose(rotation=0.5 * math.pi, scale=3.0)),
        scene,
    ):
        for t in ts:
            same_route(scene_member, _reference_scene_member, derived, t)
    # an iso's own chart rides along a copy and a pickle round trip
    iso = dh_from_Ru(other)
    vertices_at(iso, 0.3)
    for again in (copy.copy(iso), pickle.loads(pickle.dumps(iso))):
        assert repr(vars(again)) == repr(vars(iso))
        for t in ts:
            assert repr(vertices_at(again, t)) == repr(vertices_at(IsoscelesParams(*iso), t))


def test_a_singular_member_leaves_the_chart_intact(same_route):
    """24 members per scene in random t order, one of them at the chart's
    singularity in the middle of the run: every other member is the one a
    fresh chart gives."""
    rng = random.Random(46)
    for pose in (Pose(), Pose(Point(0.5, 0.25), 0.5 * math.pi, True, 2.0)):
        scene = scene_from_Ru(Ru_from_dh(IsoscelesParams(1.0, 1e5)), pose)
        t_bad = _singular_t(dh_from_Ru(scene.params))
        ts = [rng.uniform(-math.pi, math.pi) for _ in range(23)]
        ts.insert(12, t_bad)
        chart = None
        for i, t in enumerate(ts):
            if i == 12:
                with pytest.raises(ParametrizationSingularityError):
                    scene_member(scene, t)
            else:
                same_route(scene_member, _reference_scene_member, scene, t)
            chart = chart or scene._member
            assert scene._member is chart
        assert repr(chart) == repr(porism._member_chart(dh_from_Ru(scene.params)))


def test_member_chart_is_derived_once_per_porism(monkeypatch):
    derived, chart = [], porism._member_chart

    def counting(iso):
        derived.append(iso)
        return chart(iso)

    monkeypatch.setattr(porism, "_member_chart", counting)
    rng = random.Random(47)
    scene = scene_from_Ru(PorismParams(0.9, 2.4), Pose(Point(0.7, -1.3), 0.5 * math.pi, True, 1.8))
    for _ in range(24):
        scene_member(scene, rng.uniform(-math.pi, math.pi))
    assert derived == [dh_from_Ru(scene.params)]
    iso = IsoscelesParams(1.0, 2.0)
    for _ in range(24):
        vertices_at(iso, rng.uniform(-math.pi, math.pi))
    assert derived == [dh_from_Ru(scene.params), iso] and derived[1] is iso


def test_derived_values_cannot_be_reassigned():
    params = PorismParams(1.0, 2.0)
    scene = scene_from_Ru(params, Pose(Point(0.5, -1.0), 0.5 * math.pi, True, 2.0))
    iso = dh_from_Ru(params)
    before = (repr(scene.X6), repr(scene.inellipse), repr(scene_member(scene, 0.3)))
    vertices_at(iso, 0.3)
    for value, name in (
        (params, "gap"), (scene.pose, "_map"), (scene, "_sizes"),
        (scene, "_member"), (scene, "inellipse"), (iso, "_chart"), (params, "R"), (iso, "d"),
    ):
        kept = getattr(value, name)
        with pytest.raises(AttributeError, match="immutable"):
            setattr(value, name, 0.0)
        assert getattr(value, name) is kept, name
    # a name not derived yet cannot be set either
    fresh = IsoscelesParams(1.0, 2.0)
    with pytest.raises(AttributeError, match="immutable"):
        fresh._chart = ()
    assert "_chart" not in vars(fresh)
    assert params == PorismParams(1.0, 2.0) and params.gap == PorismParams(1.0, 2.0).gap
    assert (repr(scene.X6), repr(scene.inellipse), repr(scene_member(scene, 0.3))) == before


def _kept_lazily(value, twin, replaced, name):
    """``name`` is a ``geom.lazy`` value of ``value``: derived at the first
    read into the instance dict and read from there, derived anew by an
    equal ``twin`` and by ``replaced``, carried by a copy and a pickle round
    trip, and never assigned."""
    assert type(vars(type(value))[name]) is lazy
    assert value == twin and name not in vars(value) and name not in vars(twin)
    kept = getattr(value, name)
    assert vars(value)[name] is kept and getattr(value, name) is kept
    assert name not in vars(twin)
    assert getattr(twin, name) is not kept and repr(getattr(twin, name)) == repr(kept)
    assert name not in vars(replaced)
    assert getattr(replaced, name) is vars(replaced)[name]
    for again in (copy.copy(value), pickle.loads(pickle.dumps(value))):
        assert repr(vars(again)[name]) == repr(kept)
    with pytest.raises(AttributeError, match="immutable"):
        setattr(value, name, kept)
    assert vars(value)[name] is kept


def test_member_chart_is_kept_lazily(monkeypatch):
    derived, chart = [], porism._member_chart

    def counting(iso):
        derived.append(iso)
        return chart(iso)

    monkeypatch.setattr(porism, "_member_chart", counting)
    iso, twin = IsoscelesParams(1.0, 2.0), IsoscelesParams(1.0, 2.0)
    replaced = iso._replace(h=3.0)
    _kept_lazily(iso, twin, replaced, "_chart")
    assert len(derived) == 3
    assert derived[0] is iso and derived[1] is twin and derived[2] is replaced
    assert repr(replaced._chart) == repr(chart(IsoscelesParams(1.0, 3.0)))
    # a derivation that raises keeps nothing, and the next read derives again
    fresh = IsoscelesParams(1.0, 2.0)
    monkeypatch.setattr(porism, "_member_chart", lambda iso: 1 / 0)
    with pytest.raises(ZeroDivisionError):
        fresh._chart
    assert "_chart" not in vars(fresh)
    monkeypatch.setattr(porism, "_member_chart", counting)
    assert repr(fresh._chart) == repr(iso._chart) and derived[-1] is fresh


def test_scene_member_data_is_kept_lazily(monkeypatch):
    pose = Pose(Point(0.7, -1.3), 0.5 * math.pi, True, 1.8)
    scene, twin = scene_from_Ru(FIX_PARAMS, pose), scene_from_Ru(FIX_PARAMS, pose)
    replaced = scene._replace(pose=Pose())
    _kept_lazily(scene, twin, replaced, "_member")
    # the scene keeps the chart alone, the same at every pose
    chart = repr(porism._member_chart(dh_from_Ru(FIX_PARAMS)))
    assert repr(scene._member) == repr(replaced._member) == chart
    # a derivation that raises keeps nothing, and the next read derives again
    fresh = scene_from_Ru(FIX_PARAMS, pose)
    monkeypatch.setattr(porism, "_member_chart", lambda iso: 1 / 0)
    with pytest.raises(ZeroDivisionError):
        fresh._member
    assert "_member" not in vars(fresh)
    monkeypatch.undo()
    assert repr(fresh._member) == chart


def test_inellipse_is_built_once_per_scene(monkeypatch):
    built, build = [], porism._inellipse

    def counting(scene):
        built.append(build(scene))
        return built[-1]

    monkeypatch.setattr(porism, "_inellipse", counting)
    params, pose = PorismParams(0.9, 2.4), Pose(Point(0.7, -1.3), 0.5 * math.pi, True, 1.8)
    scene = scene_from_Ru(params, pose)
    tri = scene_member(scene, 0.3)
    assert built == [] and "inellipse" not in vars(scene)
    # the first read builds it; later reads, X39 and closure_residuals get it
    first = scene.inellipse
    assert built == [first] and vars(scene)["inellipse"] is first
    closure_residuals(scene, tri)
    assert scene.inellipse is first and scene.X39 is first.center
    assert len(built) == 1
    # every route to a scene builds its inellipse as a fresh scene does
    other, moved = PorismParams(2.0, 3.1), Pose(Point(-2.0, 0.5), math.pi, False, 0.5)
    for derived, fresh in (
        (scene._replace(pose=moved), scene_from_Ru(params, moved)),
        (scene._replace(params=other), scene_from_Ru(other, pose)),
        (copy.copy(scene), scene_from_Ru(params, pose)),
        (pickle.loads(pickle.dumps(scene)), scene_from_Ru(params, pose)),
    ):
        got, want = derived.inellipse, fresh.inellipse
        assert type(got) is type(want) is Ellipse
        assert repr(got) == repr(want)
    twin = scene_from_Ru(params, pose)
    _kept_lazily(twin, scene_from_Ru(params, pose), twin._replace(pose=moved), "inellipse")


def test_scene_objects_are_what_the_validating_constructors_build(posed_members):
    for scene, _ in posed_members:
        for got, want in (
            (scene.circumcircle, Circle(*scene.circumcircle)),
            (scene.inellipse, Ellipse(*scene.inellipse)),
            (scene.brocard_circle, Circle(*scene.brocard_circle)),
        ):
            assert type(got) is type(want) and repr(got) == repr(want)


def test_charts_that_underflow_raise_a_reason():
    # 2*d*h underflows to zero; the shape ratio alone would fix u
    with pytest.raises(DegeneratePorismError, match="2\\*d\\*h is zero"):
        Ru_from_dh(IsoscelesParams(1e-300, 2e-300))
    with pytest.raises(DegeneratePorismError, match="2\\*d\\*h is zero"):
        Ru_from_dh(IsoscelesParams(1e-170, 3e-170))
    # the member chart is evaluated at unit scale, so a chart this small
    # still gives a member tangent to its conic
    iso = IsoscelesParams(1e-70, 3e-70)
    scene = scene_from_Ru(Ru_from_dh(iso))
    for r in closure_residuals(scene, vertices_at(iso, 0.85)):
        assert r < 1e-14 * scene.params.R
    # charts of no porism, whose R or d/h leaves the double range, raise a
    # GeometryError, not an arithmetic one from the rescaling
    for iso in (IsoscelesParams(1.0, 1e-320), IsoscelesParams(1e300, 1e-10)):
        with pytest.raises(GeometryError):
            vertices_at(iso, 0.3)


def test_member_chart_scales_by_powers_of_two_exactly():
    unit = IsoscelesParams(1.0, 3.0)
    for j in range(-500, 501, 25):
        iso = IsoscelesParams(math.ldexp(1.0, j), math.ldexp(3.0, j))
        for t in (-2.5, 0.85, 2.0):
            want = [Point(math.ldexp(x, j), math.ldexp(y, j)) for x, y in vertices_at(unit, t)]
            got = tuple(vertices_at(iso, t))
            assert list(got) == want and repr(got) == repr(tuple(want)), (j, t)


_SCENE_POINTS = (
    "omega1", "omega2", "X6", "X15", "X16", "beltrami_P2", "beltrami_U2", "X3", "X39", "X182",
)


def _points_of(scene, tri, t):
    """Every point that a kernel returns for this posed scene and member."""
    pose = scene.pose
    yield from vertices_at(dh_from_Ru(scene.params), t)
    yield from tri
    yield from standard_centers(tri)
    yield from second_brocard_triangle(tri)
    yield from brocard_points_by_construction(tri)
    for name in _SCENE_POINTS:
        yield getattr(scene, name)
    for c in (scene.circumcircle, scene.brocard_circle, *scene.beltrami_circles()):
        yield c.center
    e = scene.inellipse
    yield from (e.center, e.axis, e.point_at(t), e.tangent_direction_at(t))
    yield pose.map_xy(tri.A.x, tri.B.y)
    yield pose.apply(tri.C)
    yield inversion_xy(tri.A.x, tri.A.y, scene.circumcircle.radius, tri.B.x, tri.B.y)
    yield midpoint(tri.B, tri.C)
    yield tri.A + tri.B - tri.C
    yield tri.A * -0.5


def _family_points(t):
    """Every point that a closed form of the continuous family returns at t."""
    yield continuous.ellipse_Et(t).center
    yield from continuous.foci_Et(t)
    yield continuous.center_X3(t)
    yield continuous.brocard_circle_Kt(t).center
    if t <= continuous.T_CRITICAL:
        yield from continuous.envelope_points(t)
    scene = continuous.bt_scene(t)
    yield from (getattr(scene, name) for name in _SCENE_POINTS)


@settings(max_examples=60, deadline=None)
@given(
    d=st.floats(0.3, 2.0),
    h=st.floats(0.3, 4.0),
    rotation=st.floats(-10.0, 10.0),
    reflect_x=st.booleans(),
    scale=st.floats(1e-3, 1e3),
    shift=st.tuples(st.floats(-3.0, 3.0), st.floats(-3.0, 3.0)),
    t=st.floats(-math.pi, math.pi),
    s=st.floats(0.01, continuous.T_MAX - 0.01),
)
def test_kernel_points_are_points_of_two(d, h, rotation, reflect_x, scale, shift, t, s):
    """The kernels build points with tuple.__new__, which checks no arity:
    each point they return is a Point of exactly two coordinates."""
    pose = Pose(Point(*shift), rotation, reflect_x, scale)
    try:
        scene = scene_from_Ru(Ru_from_dh(IsoscelesParams(d, h)), pose)
        points = list(_points_of(scene, scene_member(scene, t), t))
    except GeometryError:
        assume(False)
    points += _family_points(s)
    points.append(continuous.family_extrema().lower_vertex_min)
    for p in points:
        assert type(p) is Point and len(p) == 2, p
