import math
import random

import pytest
from hypothesis import assume, example, given, settings, strategies as st

import reference
from brocard import continuous
from brocard.checks import beltrami_midpoint_check, nesting_residual
from brocard.continuous import (
    T_CRITICAL,
    T_MAX,
    FamilyExtrema,
    WebResiduals,
    _bisect,
    _circle_field_slope,
    _ellipse_field_slopes,
    brocard_circle_Kt,
    bt_scene,
    center_X3,
    circumcircle_Gt,
    circumradius_Rt,
    ellipse_Et,
    embed_step,
    envelope_points,
    family_extrema,
    foci_on_arcs_check,
    gamma_nesting_residual,
    kt_inellipse_intersection_check,
    lower_vertex_y,
    quartic_y,
    t_from_u,
    u_from_t,
    web_orthogonality_residuals,
)
from brocard.geom import (
    Circle,
    GeometryError,
    Point,
    ellipse_line_tangency_residual,
    inversion_xy,
    three_point_center,
)
from brocard.porism import scene_member
from brocard.recurrence import step_forward
from reference import through, web_orthogonality_residuals as web_reference

SQRT3 = math.sqrt(3.0)


def test_parameter_range():
    for bad in (0.0, -0.3, T_MAX + 1e-3, 4.0):
        with pytest.raises(GeometryError):
            ellipse_Et(bad)
    with pytest.raises(GeometryError):
        bt_scene(T_MAX)  # the top member is a point, no scene
    with pytest.raises(GeometryError):
        t_from_u(1.5)
    # the later parameter must lie strictly between 0 and the earlier one
    for small, big in ((0.2, 0.5), (0.5, 0.5), (0.5, 0.0), (T_MAX, 0.5)):
        for route in (gamma_nesting_residual, reference.gamma_nesting_residual):
            with pytest.raises(GeometryError, match="^t outside range$"):
                route(small, big)


@pytest.mark.parametrize(
    "f",
    [
        ellipse_Et,
        brocard_circle_Kt,
        u_from_t,
        center_X3,
        circumcircle_Gt,
        foci_on_arcs_check,
        pytest.param(lambda t: nesting_residual(t, 0.5), id="nesting_residual"),
    ],
)
def test_range_closes_at_pi_over_3(f, raises_as_before):
    """pi/3 itself is in range; one ulp past it is not."""
    f(T_MAX)
    past = math.nextafter(T_MAX, 2.0)
    raises_as_before(lambda: f(past), GeometryError, "t outside range")


def test_u_t_conversions():
    assert abs(u_from_t(T_CRITICAL) - 2.0) < 1e-12
    assert abs(u_from_t(T_MAX) - SQRT3) < 1e-15
    rng = random.Random(41)
    for _ in range(100):
        t = rng.uniform(1e-3, T_MAX)
        assert abs(t_from_u(u_from_t(t)) - t) < 1e-13


def test_member_at_critical_parameter():
    """The member where the inellipse leaves the envelope: u = 2."""
    b = bt_scene(T_CRITICAL)
    assert abs(b.params.u - 2.0) < 1e-10
    assert abs(b.circumcircle.radius - 0.5) < 1e-10
    assert b.X3.dist(Point(0.0, -1.0)) < 1e-10
    e = b.inellipse
    assert e.center.dist(Point(0.0, -0.8)) < 1e-10
    assert abs(e.semi_major - math.sqrt(5.0) / 10.0) < 1e-10
    assert abs(e.semi_minor - 0.2) < 1e-10
    assert b.brocard_circle.center.dist(Point(0.0, -0.875)) < 1e-10
    assert abs(b.brocard_circle.radius - 0.125) < 1e-10
    a, c = e.semi_major, e.semi_minor
    assert abs(math.sqrt((a - c) * (a + c)) / a - math.sqrt(0.2)) < 1e-10
    assert abs(b.params.omega - 0.5 * T_CRITICAL) < 1e-15


def test_isodynamic_points_are_fixed():
    for t in (0.05, 0.3, 0.7, 1.0, T_MAX - 1e-6):
        b = bt_scene(t)
        assert b.X15.dist(Point(0.0, -SQRT3 / 2.0)) < 1e-9
        assert b.X16.dist(Point(0.0, SQRT3 / 2.0)) < 1e-7


def test_ellipse_Et_matches_scene_inellipse():
    rng = random.Random(42)
    for _ in range(60):
        t = rng.uniform(0.02, T_MAX - 1e-3)
        closed = ellipse_Et(t)
        scene = bt_scene(t).inellipse
        assert closed.center.dist(scene.center) < 1e-12
        assert abs(closed.semi_major - scene.semi_major) < 1e-12
        assert abs(closed.semi_minor - scene.semi_minor) < 1e-12


def test_top_member_collapses_to_a_point():
    e = ellipse_Et(T_MAX)
    assert e.semi_major < 1e-7
    assert e.center.dist(Point(0.0, -SQRT3 / 2.0)) < 1e-15


def test_brocard_circle_closed_form():
    rng = random.Random(43)
    for _ in range(60):
        t = rng.uniform(0.02, T_MAX - 1e-3)
        closed = brocard_circle_Kt(t)
        scene = bt_scene(t).brocard_circle
        assert closed.center.dist(scene.center) < 1e-11
        assert abs(closed.radius - scene.radius) < 1e-11
        # every K_t is orthogonal to the circle through the fixed points
        assert abs(
            closed.center.norm() ** 2 - closed.radius ** 2 - 0.75
        ) < 1e-12


@settings(max_examples=300, deadline=None)
@given(st.floats(2.9e-103, T_MAX, exclude_max=True))
@example(2.9e-103)
@example(0.02)
@example(math.acos(0.75))
@example(T_CRITICAL)
@example(math.nextafter(T_MAX, 0.0))
def test_circumcircle_closed_form_is_the_scene_circle(t):
    """circumcircle_Gt is the circle bt_scene's pose maps (0, 0) and R onto,
    every bit and the sign of each zero."""
    assert repr(circumcircle_Gt(t)) == repr(bt_scene(t).circumcircle)


# the last double whose circumradius overflows: R_t ~ 1/t passes the double
# range there, which the continuous command's t_min floor stays above
R_OVERFLOW_T = 5.56268464626801e-309


@settings(max_examples=300, deadline=None)
@given(st.floats(0.0, T_MAX, exclude_min=True, exclude_max=True),
       st.floats(0.0, T_MAX, exclude_min=True, exclude_max=True))
@example(0.5, 0.2)
@example(math.nextafter(T_MAX, 0.0), 2.9e-103)
@example(2.9e-103, 2.7e-103)
@example(2e-110, 1e-110)
@example(0.5, math.nextafter(R_OVERFLOW_T, 1.0))
@example(0.5, R_OVERFLOW_T)
@example(0.5, 5e-324)
def test_gamma_nesting_matches_the_scene_route(a, b):
    """Where both scenes build, the closed-form slack is the scene route's
    bit for bit; below t = 2.8e-103, where no scene builds, it stays finite
    and nested until R_t overflows."""
    small, big = max(a, b), min(a, b)
    assume(big < small)
    try:
        want = reference.gamma_nesting_residual(small, big)
    except GeometryError:
        assert big < 2.9e-103
    else:
        assert repr(gamma_nesting_residual(small, big)) == repr(want)
        return
    if big <= R_OVERFLOW_T:
        with pytest.raises(GeometryError, match="^circle requires a finite radius >= 0$"):
            gamma_nesting_residual(small, big)
    else:
        got = gamma_nesting_residual(small, big)
        assert math.isfinite(got) and got >= -1e-12 * circumradius_Rt(big)


def test_the_nesting_floor_is_the_continuous_command_floor():
    from brocard.cli import _T_MIN

    assert math.isinf(circumradius_Rt(R_OVERFLOW_T))
    assert math.isfinite(circumradius_Rt(math.nextafter(R_OVERFLOW_T, 1.0)))
    assert R_OVERFLOW_T < _T_MIN < 1.0001 * R_OVERFLOW_T
    with pytest.raises(GeometryError, match="degenerate porism"):
        bt_scene(1e-110)
    assert gamma_nesting_residual(0.5, 1e-110) == 0.0
    assert gamma_nesting_residual(0.5, _T_MIN) == 0.0


NAN, INF = math.nan, math.inf


@pytest.mark.parametrize(
    "call, args, message",
    [
        (three_point_center, (Point(NAN, 0.0), Point(1.0, 0.0), Point(0.0, 1.0)),
         "degenerate triangle"),
        (three_point_center, (Point(0.0, 0.0), Point(1.0, INF), Point(0.0, 1.0)),
         "degenerate triangle"),
        (inversion_xy, (0.0, 0.0, 1.0, NAN, 0.5), "inversion needs a finite point and center"),
        (inversion_xy, (0.0, 0.0, 1.0, 0.5, -INF), "inversion needs a finite point and center"),
        (inversion_xy, (NAN, 0.0, 1.0, 0.5, 0.5), "inversion needs a finite point and center"),
        (quartic_y, (NAN,), "outside the right-angle locus"),
        (t_from_u, (NAN,), "t outside range"),
        (t_from_u, (INF,), "t outside range"),
        (embed_step, (1e-320,), "embed_step overflows"),
        (embed_step, (1e-200,), "embed_step overflows"),
        # the one t whose half rounds to 0.0: R_t and X3_y read infinite
        (circumcircle_Gt, (5e-324,), "circle requires a finite radius >= 0"),
        (bt_scene, (5e-324,), "pose translation must be finite"),
    ],
)
def test_guards_reject_nan_infinity_and_overflow(call, args, message):
    """NaN fails every comparison, so each guard is written to fail on it;
    none of these calls returns a NaN or an out-of-range value."""
    with pytest.raises(GeometryError, match=message):
        call(*args)


def test_embed_step_matches_recurrence():
    rng = random.Random(44)
    for _ in range(80):
        t = rng.uniform(0.05, T_MAX - 1e-4)
        t2 = embed_step(t)
        assert t < t2 <= T_MAX + 1e-12
        u2 = step_forward(bt_scene(t).params).u
        assert abs(u_from_t(t2) - u2) < 1e-11
        # the child member's circumcircle is the parent's Brocard circle
        if t2 < T_MAX - 1e-9:
            child_gamma = bt_scene(t2).circumcircle
            k = brocard_circle_Kt(t)
            assert child_gamma.center.dist(k.center) < 1e-10
            assert abs(child_gamma.radius - k.radius) < 1e-10


def test_members_close_around_Et():
    rng = random.Random(45)
    for t in (0.2, 0.6, 0.9, 1.02):
        scene = bt_scene(t)
        e = ellipse_Et(t)
        for _ in range(10):
            tri = scene_member(scene, rng.uniform(0.0, 2.0 * math.pi))
            for v in tri:
                assert scene.circumcircle.membership_residual(v) < 1e-11
            for a, b in ((0, 1), (1, 2), (2, 0)):
                side = through(tri[a], tri[b])
                assert ellipse_line_tangency_residual(e, side) < 1e-10


def test_envelope_points():
    rng = random.Random(46)
    for _ in range(60):
        t = rng.uniform(0.02, T_CRITICAL)
        p, q = envelope_points(t)
        for pt in (p, q):
            assert abs(4.0 * pt.x * pt.x + pt.y * pt.y - 1.0) < 1e-12
            assert ellipse_Et(t).implicit_residual(pt) < 1e-10
    lo, hi = envelope_points(T_CRITICAL)
    assert lo.dist(Point(0.0, -1.0)) < 1e-7
    assert hi.dist(Point(0.0, -1.0)) < 1e-7
    with pytest.raises(GeometryError):
        envelope_points(T_CRITICAL + 1e-3)


def test_nesting_residuals():
    rng = random.Random(47)
    for _ in range(200):
        t1 = rng.uniform(0.02, T_MAX - 1e-6)
        t2 = rng.uniform(0.02, T_MAX - 1e-6)
        lo, hi = min(t1, t2), max(t1, t2)
        if hi - lo < 1e-4:
            continue
        assert nesting_residual(hi, lo) > -1e-12
        assert gamma_nesting_residual(hi, lo) > -1e-12
    # the top member is the point X15, still nested
    assert nesting_residual(T_MAX, 0.5) > 0.0
    with pytest.raises(GeometryError):
        nesting_residual(0.5, 0.9)


def test_foci_ride_the_unit_arcs():
    for k in range(1, 100):
        t = k * T_MAX / 100.0
        r1, r2 = foci_on_arcs_check(t)
        assert r1 < 1e-12
        assert r2 < 1e-12


def test_beltrami_midpoint_inversion():
    for k in range(1, 50):
        t = k * (T_MAX - 2e-3) / 50.0 + 1e-3
        assert beltrami_midpoint_check(t) < 1e-9


def test_kt_meets_inellipse_until_critical():
    for k in range(1, 40):
        t = k * T_CRITICAL / 40.0
        assert kt_inellipse_intersection_check(t) < 1e-9
    with pytest.raises(GeometryError):
        kt_inellipse_intersection_check(T_CRITICAL + 1e-3)


def test_kt_range_closes_at_critical(raises_as_before):
    """T_CRITICAL itself is in range; one ulp past it is not."""
    assert kt_inellipse_intersection_check(T_CRITICAL) < 1e-9
    past = math.nextafter(T_CRITICAL, math.inf)
    raises_as_before(
        lambda: kt_inellipse_intersection_check(past), GeometryError, "t outside range"
    )


def test_contact_is_real_through_critical_and_not_past_it():
    """5cos t - 3 >= 0 at T_CRITICAL and the 4,096 doubles below it, so
    neither contact caller needs to clamp; from the next double it is < 0."""
    t = T_CRITICAL
    for _ in range(4097):
        left, right = envelope_points(t)
        assert left == Point(-right.x, right.y)
        assert kt_inellipse_intersection_check(t) < 1e-9
        t = math.nextafter(t, 0.0)
    with pytest.raises(GeometryError, match="no real envelope"):
        envelope_points(math.nextafter(T_CRITICAL, 1.0))


def test_quartic_exact_points():
    assert quartic_y(0.5) == 0.0
    assert quartic_y(-0.5) == 0.0
    assert abs(quartic_y(0.0) - SQRT3 / 2.0) < 1e-16
    with pytest.raises(GeometryError):
        quartic_y(0.6)


def test_the_web_quartic_is_one_function(cold_sweep, monkeypatch):
    assert continuous.web_quartic(0.5, 0.0) == 0.0
    assert abs(continuous.web_quartic(0.3, quartic_y(0.3))) < 1e-15
    # the field slopes read it: off the quartic the sweep leaves its right angle
    baseline = web_orthogonality_residuals(0.5, samples=16).quartic_angle_max_dev
    monkeypatch.setattr(continuous, "web_quartic", lambda x, y: 0.5)
    continuous._web_field_sweep.cache_clear()
    skewed = web_orthogonality_residuals(0.5, samples=16).quartic_angle_max_dev
    assert baseline < 1e-7 < skewed


def test_circle_field_matches_parametric_tangent():
    """The implicit direction field of the Brocard-circle family agrees
    with the tangent of each actual circle."""
    rng = random.Random(48)
    for _ in range(200):
        t = rng.uniform(0.05, T_MAX - 1e-3)
        k = brocard_circle_Kt(t)
        theta = rng.uniform(0.0, 2.0 * math.pi)
        p = k.point_at(theta)
        dy = p.y - k.center.y
        if abs(dy) < 1e-2 * k.radius:
            continue  # near-vertical tangent
        want = -(p.x - k.center.x) / dy
        try:
            got = _circle_field_slope(p.x, p.y)
        except GeometryError:
            continue
        assert abs(got - want) < 1e-8 * (1.0 + want * want)


def test_ellipse_field_matches_parametric_tangent():
    """At a point of E_t the quadratic direction equation has the tangent
    slope of E_t among its roots."""
    rng = random.Random(49)
    hits = 0
    for _ in range(400):
        t = rng.uniform(0.05, T_MAX - 0.02)
        e = ellipse_Et(t)
        theta = rng.uniform(0.0, 2.0 * math.pi)
        p = e.point_at(theta)
        d = e.tangent_direction_at(theta)
        if abs(d.x) < 1e-3:
            continue  # vertical tangent has no finite slope
        want = d.y / d.x
        slopes = _ellipse_field_slopes(p.x, p.y)
        if not slopes:
            continue
        best = min(abs(m - want) / (1.0 + want * want) for m in slopes)
        assert best < 1e-6
        hits += 1
    assert hits > 200


def test_web_orthogonality():
    for t in (0.3, 0.7, 0.95):
        w = web_orthogonality_residuals(t, samples=48)
        for ip in w.point_inner_products:
            assert ip < 1e-9
        assert w.point_membership_max < 1e-9
        assert w.quartic_angle_max_dev < 1e-7
        assert w.axis_parallel_max_dev < 1e-7


def test_web_kernel_is_the_point_route_bit_for_bit():
    """The scalar web kernel gives what its ``Point`` route gives, every bit
    and signed zero, and raises what it raises."""
    ts = [T_MAX * i / 40 for i in range(1, 40)]
    ts += [1e-6, math.acos(0.75), T_CRITICAL, math.nextafter(T_MAX, 0.0)]
    for samples in (3, 64, 100):
        for t in ts:
            assert repr(web_orthogonality_residuals(t, samples)) == repr(web_reference(t, samples))
    for t, samples, kind, message in (
        (T_MAX, 64, GeometryError, "t outside range"),
        (0.5, 2, ValueError, "the web sweep needs samples >= 3"),
    ):
        for route in (web_orthogonality_residuals, web_reference):
            with pytest.raises(kind, match=message) as raised:
                route(t, samples)
            assert raised.type is kind


def test_family_records_value_semantics(value_semantics):
    value_semantics(
        WebResiduals((0.0, 1.0, 2.0, 3.0), 0.5, 0.25, 0.125),
        "WebResiduals(point_inner_products=(0.0, 1.0, 2.0, 3.0), point_membership_max=0.5, "
        "quartic_angle_max_dev=0.25, axis_parallel_max_dev=0.125)",
        WebResiduals((0.0, 1.0, 2.0, 3.0), 0.5, 0.25, 0.0),
    )
    value_semantics(
        FamilyExtrema(0.5, 0.25, 0.75, Point(0.0, -1.0)),
        "FamilyExtrema(t_semi_minor_max=0.5, semi_minor_max=0.25, "
        "t_lower_vertex_min=0.75, lower_vertex_min=Point(x=0.0, y=-1.0))",
        FamilyExtrema(0.5, 0.25, 0.75, Point(0.0, 1.0)),
    )


def test_family_extrema():
    ex = family_extrema()
    assert abs(ex.t_semi_minor_max - math.acos(0.75)) < 1e-6
    assert abs(ex.semi_minor_max - 0.25) < 1e-8
    assert abs(ex.t_lower_vertex_min - T_CRITICAL) < 1e-6
    assert ex.lower_vertex_min.dist(Point(0.0, -1.0)) < 1e-8
    # closed-form cross-checks of the two profile functions
    assert abs(ellipse_Et(math.acos(0.75)).semi_minor - 0.25) < 1e-12
    assert abs(lower_vertex_y(T_CRITICAL) + 1.0) < 1e-12


def test_bisect_brackets_a_root_to_1e_10():
    assert abs(_bisect(lambda x: x * x - 2.0, 1.0, 2.0) - math.sqrt(2.0)) <= 1e-10
    with pytest.raises(GeometryError):
        _bisect(lambda x: x * x - 2.0, 2.0, 3.0)


def test_nan_brocard_circle_reaches_the_residuals(monkeypatch):
    real = continuous.brocard_circle_Kt

    def nan_center(t):
        return Circle(Point(math.nan, math.nan), real(t).radius)

    monkeypatch.setattr(continuous, "brocard_circle_Kt", nan_center)
    assert math.isnan(kt_inellipse_intersection_check(0.5))
    assert math.isnan(web_orthogonality_residuals(0.5).point_membership_max)


@pytest.fixture
def cold_sweep():
    """Clear the memoized web sweep before and after the test."""
    continuous._web_field_sweep.cache_clear()
    yield
    continuous._web_field_sweep.cache_clear()


def test_web_sweep_needs_three_samples(cold_sweep, monkeypatch):
    for n in (0, 1, 2):
        with pytest.raises(ValueError):
            web_orthogonality_residuals(0.5, samples=n)
    # A NaN angle reaches both maxima only if both sweeps ran a point;
    # an empty sweep would read 0.0.
    monkeypatch.setattr(continuous, "_angle_between_slopes", lambda m1, m2: math.nan)
    w = web_orthogonality_residuals(0.5, samples=3)
    assert math.isnan(w.quartic_angle_max_dev)
    assert math.isnan(w.axis_parallel_max_dev)


def test_memoized_web_sweep_equals_a_fresh_one(cold_sweep):
    for n in (3, 32, 64, 128):
        web_orthogonality_residuals(0.3, samples=n)  # warm the sweep at another t
        warm = web_orthogonality_residuals(0.9, samples=n)
        continuous._web_field_sweep.cache_clear()
        fresh = web_orthogonality_residuals(0.9, samples=n)
        assert warm == fresh and repr(warm) == repr(fresh)
    for bad_t in (0.0, -0.1, T_MAX, 2.0, math.nan):
        with pytest.raises(GeometryError):
            web_orthogonality_residuals(bad_t)


def test_small_t_forms_match_an_mpmath_reference():
    """R_t, X3_y, the semi-minor axis and the excess, the forms that once went
    through 1 - cos t, stay within a few ulps of 80-digit values from t =
    1e-300 to just below pi/3.  Near pi/3 the allowance of the three built on
    2cos t - 1 grows with its condition number 1/(2cos t - 1)."""
    mpmath = pytest.importorskip("mpmath")
    rng = random.Random(61)
    ts = [1e-300, 1.1e-8, math.acos(0.75), T_MAX - 1e-9]
    ts += [10.0 ** rng.uniform(-300.0, 0.0) for _ in range(200)]
    ts += [T_MAX - 10.0 ** -rng.uniform(0.0, 9.0) for _ in range(100)]
    for t in ts:
        with mpmath.workdps(80):
            T = mpmath.mpf(t)
            # 1 - cos t = 2 sin^2(t/2), which keeps its digits at any t
            c, one_c = mpmath.cos(T), 2 * mpmath.sin(T / 2) ** 2
            cond = max(1.0, float(1 / (2 * c - 1)))
            for got, want, scale in (
                (circumradius_Rt(t), mpmath.sqrt((2 * c - 1) / (2 * one_c)), cond),
                (center_X3(t).y, -mpmath.sin(T) / (2 * one_c), 1.0),
                (ellipse_Et(t).semi_minor, mpmath.sqrt((2 * c - 1) * one_c / 2), cond),
                (continuous._params_at(t).u_excess, mpmath.cot(T / 2) - mpmath.sqrt(3), cond),
            ):
                error = float(abs((got - want) / want))
                assert error <= 4.0 * 2.0 ** -52 * scale, (t, got, error)
