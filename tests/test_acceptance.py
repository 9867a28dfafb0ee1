"""End-to-end acceptance suite.

One test per headline behavior of the package: the exactly-solvable
reference porism, closure and stationarity of scenes, the porism step and
its inverse, the cascade geometry on the Beltrami circles, the continuous
one-parameter family with its envelope and web, and the command line
contract.  Each test pins its own tolerances; none of them share state.
"""

import csv
import io
import json
import math
import random
import subprocess
import sys

from brocard.centers import (
    brocard_cotangent,
    brocard_points_by_construction,
    standard_centers,
)
from brocard.checks import (
    beltrami_midpoint_check,
    brocard_concurrency_defect,
    ellipse_foci,
    nesting_residual,
)
from brocard.continuous import (
    T_CRITICAL,
    T_MAX,
    brocard_circle_Kt,
    bt_scene,
    ellipse_Et,
    embed_step,
    envelope_points,
    family_extrema,
    foci_on_arcs_check,
    gamma_nesting_residual,
    u_from_t,
    web_orthogonality_residuals,
)
from brocard.geom import (
    Point,
    circles_orthogonality_residual,
    circumcircle,
)
from brocard.porism import (
    IsoscelesParams,
    ParametrizationSingularityError,
    PorismParams,
    Ru_from_dh,
    closure_residuals,
    dh_from_Ru,
    scene_from_Ru,
    scene_member,
    vertices_at,
)
from brocard.recurrence import (
    alternating_brocard_sequence,
    anti_scene,
    child_scene,
    orbit_scenes,
    step_backward,
    step_forward,
)

SQRT3 = math.sqrt(3.0)
FIX_ISO = IsoscelesParams(1.0, 2.0)


def _random_params(rng):
    while True:
        d = rng.uniform(0.5, 2.0)
        h = d * rng.uniform(0.4, 4.0)
        p = Ru_from_dh(IsoscelesParams(d, h))
        if p.u_excess > 1e-3:
            return p


def _random_iso(rng):
    while True:
        d = rng.uniform(0.5, 2.0)
        h = d * rng.uniform(0.4, 4.0)
        iso = IsoscelesParams(d, h)
        if Ru_from_dh(iso).u_excess > 1e-3:
            return iso


def test_criterion_1_reference_porism_exact_catalog():
    """Half-base 1, height 2: every catalogued quantity within 1e-11."""
    tol = 1e-11
    params = Ru_from_dh(FIX_ISO)
    assert abs(params.R - 1.25) < tol
    assert abs(params.u - 1.75) < tol
    scene = scene_from_Ru(params)
    e = scene.inellipse
    assert abs(e.semi_major - math.sqrt(5.0 / 13.0)) < tol
    assert abs(e.semi_minor - 8.0 / 13.0) < tol
    assert scene.omega1.dist(Point(1.0 / 13.0, -7.0 / 52.0)) < tol
    assert scene.omega2.dist(Point(-1.0 / 13.0, -7.0 / 52.0)) < tol
    assert scene.X6.dist(Point(0.0, -5.0 / 28.0)) < tol
    assert scene.X182.dist(Point(0.0, -5.0 / 56.0)) < tol
    assert scene.beltrami_P2.dist(Point(-5.0, -8.75)) < tol
    assert scene.beltrami_U2.dist(Point(5.0, -8.75)) < tol
    assert abs(scene.beltrami_radius - 10.0) < tol
    # X574 twice over: closed form, and the double inversion chain
    closed = Point(0.0, -35.0 / 388.0)
    assert abs(closed.y - (-0.09020618556701031)) < 1e-15
    R, u, g = params.R, params.u, params.gap
    assert Point(0.0, -R * u * g / (u * u + 3.0)).dist(closed) < tol
    tri = vertices_at(FIX_ISO, 0.5 * math.pi)
    assert standard_centers(tri).X574.dist(closed) < tol


def test_criterion_2_construction_matches_closed_forms():
    """100 random shapes: the rotated-line construction concurs within
    1e-9 and lands on the printed focus pair within 1e-9."""
    rng = random.Random(101)
    for _ in range(100):
        iso = _random_iso(rng)
        d, h = iso.d, iso.h
        tri = None
        while tri is None:
            try:
                tri = vertices_at(iso, rng.uniform(0.0, 2.0 * math.pi))
            except ParametrizationSingularityError:
                continue
        assert brocard_concurrency_defect(tri) < 1e-9
        d2, h2 = d * d, h * h
        denom = 9.0 * d2 + h2
        fx = d * (3.0 * d2 - h2) / denom
        fy = (9.0 * d2 * d2 - h2 * h2) / (2.0 * h * denom)
        printed = (Point(fx, fy), Point(-fx, fy))
        for got in brocard_points_by_construction(tri):
            assert min(got.dist(p) for p in printed) < 1e-9


def test_criterion_3_closure_and_stationarity():
    """200 sampled members: tangency within 1e-9, Brocard angle within
    1e-10, the seven marked centers stationary within 1e-9."""
    rng = random.Random(102)
    for _ in range(200):
        params = _random_params(rng)
        scene = scene_from_Ru(params)
        tri = None
        while tri is None:
            try:
                tri = scene_member(scene, rng.uniform(0.0, 2.0 * math.pi))
            except ParametrizationSingularityError:
                continue
        for r in closure_residuals(scene, tri):
            assert r < 1e-9
        assert abs(math.atan2(1.0, brocard_cotangent(tri)) - params.omega) < 1e-10
        o1, o2 = brocard_points_by_construction(tri)
        assert o1.dist(scene.omega1) < 1e-9
        assert o2.dist(scene.omega2) < 1e-9
        cs = standard_centers(tri)
        assert cs.X6.dist(scene.X6) < 1e-9
        assert cs.X15.dist(scene.X15) < 1e-9
        assert cs.X16.dist(scene.X16) < 1e-9 * max(1.0, scene.X16.norm())
        assert cs.X39.dist(scene.X39) < 1e-9
        assert cs.X182.dist(scene.X182) < 1e-9


def test_criterion_4_one_step_two_routes():
    """50 porisms: measured child parameters within 1e-8 of the map, the
    child circumcircle on the parent Brocard circle within 1e-9, the axis
    route within 1e-11, the child Brocard center formula within 1e-10."""
    rng = random.Random(103)
    for _ in range(50):
        params = _random_params(rng)
        parent = scene_from_Ru(params)
        stepped = step_forward(params)
        child = child_scene(parent)

        measured = None
        while measured is None:
            try:
                measured = scene_member(child, rng.uniform(0.0, 2.0 * math.pi))
            except ParametrizationSingularityError:
                continue
        cc = circumcircle(measured)
        assert abs(cc.radius - stepped.R) < 1e-8
        assert abs(brocard_cotangent(measured) - stepped.u) < 1e-8

        assert child.circumcircle.center.dist(parent.brocard_circle.center) < 1e-9
        assert abs(child.circumcircle.radius - parent.brocard_circle.radius) < 1e-9

        a, b = parent.inellipse.semi_major, parent.inellipse.semi_minor
        a2, b2 = a * a, b * b
        a_child = a * math.sqrt(a2 - b2) / math.sqrt(a2 + 2.0 * b2)
        b_child = b * math.sqrt(a2 - b2) * math.sqrt(4.0 * a2 - b2) / (a2 + 2.0 * b2)
        assert abs(child.inellipse.semi_major - a_child) < 1e-11
        assert abs(child.inellipse.semi_minor - b_child) < 1e-11

        Rp, up = stepped.R, stepped.u
        u = params.u
        want_y = -3.0 * Rp * (u * u + 1.0) / (4.0 * u * up)
        assert child.X182.dist(Point(0.0, want_y)) < 1e-10


def test_criterion_5_orbits_both_directions():
    """Quadratic collapse forward, doubling escape backward, and the two
    maps inverse to each other within 1e-12 relative."""
    scenes = orbit_scenes(scene_from_Ru(PorismParams(1.0, 3.0)), 6)
    assert abs(scenes[-1].params.u - SQRT3) < 1e-12
    assert len(scenes) <= 7
    errors = [s.params.u_excess for s in scenes]
    for e0, e1 in zip(errors, errors[1:]):
        assert 0.0 < e1 / (e0 * e0) <= 0.3

    back = orbit_scenes(scene_from_Ru(PorismParams(1.0, 2.0)), 8, anti_scene)
    assert back[-1].params.u > 100.0

    rng = random.Random(104)
    for _ in range(100):
        p = _random_params(rng)
        q = step_backward(step_forward(p))
        assert abs(q.R - p.R) <= 1e-12 * p.R
        assert abs(q.u - p.u) <= 1e-12 * p.u


def test_criterion_6_cascade_on_beltrami_circles():
    """Six generations of alternating Brocard points stay on the two fixed
    circles within 1e-9; the isodynamic-Beltrami triangles are equilateral
    within 1e-9; every generation's Brocard circle cuts both fixed circles
    at right angles within 1e-9; nesting residuals are >= -1e-10."""
    root = scene_from_Ru(Ru_from_dh(FIX_ISO))
    first, second = alternating_brocard_sequence(orbit_scenes(root, 6))
    c1, c2 = root.beltrami_circles()
    for p in first:
        assert c1.membership_residual(p) < 1e-9
    for q in second:
        assert c2.membership_residual(q) < 1e-9

    rho = root.beltrami_radius
    for apexwards in (root.X15, root.X16):
        assert abs(apexwards.dist(root.beltrami_P2) - rho) < 1e-9
        assert abs(apexwards.dist(root.beltrami_U2) - rho) < 1e-9
    assert abs(root.beltrami_P2.dist(root.beltrami_U2) - rho) < 1e-9

    scenes = orbit_scenes(root, 5)
    for scene in scenes:
        k = scene.brocard_circle
        assert circles_orthogonality_residual(c1, k) < 1e-9
        assert circles_orthogonality_residual(c2, k) < 1e-9
    for parent, kid in zip(scenes, scenes[1:]):
        slack = parent.brocard_circle.radius - (
            kid.brocard_circle.center.dist(parent.brocard_circle.center)
            + kid.brocard_circle.radius
        )
        assert slack > -1e-10


def test_criterion_7_continuous_family_catalog():
    """The member at acos(3/5) within 1e-10, the extremal semi-minor axis
    within 1e-8, envelope contact within 1e-10, the embedded step within
    1e-8, web right angles within 1e-9, and the quartic through its four
    rational and two irrational points exactly."""
    b = bt_scene(T_CRITICAL)
    assert abs(b.params.u - 2.0) < 1e-10
    assert abs(b.circumcircle.radius - 0.5) < 1e-10
    assert b.X3.dist(Point(0.0, -1.0)) < 1e-10
    assert abs(b.inellipse.semi_major - math.sqrt(5.0) / 10.0) < 1e-10
    assert abs(b.inellipse.semi_minor - 0.2) < 1e-10
    f1, f2 = ellipse_foci(b.inellipse)
    assert f1.dist(Point(-0.1, -0.8)) < 1e-10
    assert f2.dist(Point(0.1, -0.8)) < 1e-10
    assert b.brocard_circle.center.dist(Point(0.0, -0.875)) < 1e-10
    assert abs(b.brocard_circle.radius - 0.125) < 1e-10
    low = b.inellipse.center.y - b.inellipse.semi_minor
    assert abs(low - (-1.0)) < 1e-10

    ex = family_extrema()
    assert abs(ex.semi_minor_max - 0.25) < 1e-8
    assert abs(ex.t_semi_minor_max - math.acos(0.75)) < 1e-6

    rng = random.Random(105)
    for _ in range(50):
        t = rng.uniform(0.02, T_CRITICAL)
        p, q = envelope_points(t)
        for pt in (p, q):
            assert abs(4.0 * pt.x * pt.x + pt.y * pt.y - 1.0) < 1e-10
            assert ellipse_Et(t).implicit_residual(pt) < 1e-10

    for _ in range(40):
        t = rng.uniform(0.05, T_MAX - 1e-3)
        t2 = embed_step(t)
        assert abs(u_from_t(t2) - step_forward(bt_scene(t).params).u) < 1e-8

    for t in (0.3, 0.6, 0.9):
        w = web_orthogonality_residuals(t, samples=32)
        for ip in w.point_inner_products:
            assert ip < 1e-9
        assert w.point_membership_max < 1e-9

    def quartic(x, y):
        return 16.0 * x ** 4 + 8.0 * x * x + 4.0 * y * y - 3.0

    assert quartic(0.5, 0.0) == 0.0
    assert quartic(-0.5, 0.0) == 0.0
    assert abs(quartic(0.0, SQRT3 / 2.0)) < 1e-15
    assert abs(quartic(0.0, -SQRT3 / 2.0)) < 1e-15


def test_criterion_8_inversion_arcs_and_nesting():
    """100-point grid: the circumcircle inverse of X6 sits at the Beltrami
    midpoint and the foci ride the unit arcs, all within 1e-9; 200 random
    parameter pairs nest both circle families within -1e-12."""
    for k in range(1, 101):
        t = k * (T_MAX - 2e-3) / 101.0 + 1e-3
        assert beltrami_midpoint_check(t) < 1e-9
        r1, r2 = foci_on_arcs_check(t)
        assert r1 < 1e-9
        assert r2 < 1e-9

    rng = random.Random(106)
    pairs = 0
    while pairs < 200:
        t1 = rng.uniform(0.02, T_MAX - 1e-6)
        t2 = rng.uniform(0.02, T_MAX - 1e-6)
        lo, hi = min(t1, t2), max(t1, t2)
        if hi - lo < 1e-6:
            continue
        assert nesting_residual(hi, lo) > -1e-12
        assert gamma_nesting_residual(hi, lo) > -1e-12
        pairs += 1


def test_criterion_9_command_line_contract():
    """Healthy verify exits 0; the step mutation fails the recurrence
    groups with exit 1; repeated runs are byte for byte identical."""

    def run(*args):
        return subprocess.run(
            [sys.executable, "-m", "brocard", *args],
            capture_output=True,
            text=True,
            timeout=300,
        )

    healthy = run("verify", "--samples", "40", "--seed", "0")
    assert healthy.returncode == 0, healthy.stderr

    mutated = run("verify", "--mutate", "flip-step-sign",
                  "--samples", "40", "--seed", "0")
    assert mutated.returncode == 1
    failed = {
        row["check_id"]
        for row in map(json.loads, mutated.stdout.splitlines())
        if not row["passed"]
    }
    assert any(i.startswith("thm1.") for i in failed)
    assert any(i.startswith("prop14.") for i in failed)

    again = run("verify", "--samples", "40", "--seed", "0")
    assert again.stdout == healthy.stdout

    fig_a = run("figure", "fig4")
    fig_b = run("figure", "fig4")
    assert fig_a.returncode == 0
    assert fig_a.stdout == fig_b.stdout

    tab_a = run("continuous", "--t-min", "0.1", "--t-max", "1.0",
                "--samples", "40", "--format", "csv")
    tab_b = run("continuous", "--t-min", "0.1", "--t-max", "1.0",
                "--samples", "40", "--format", "csv")
    assert tab_a.returncode == 0
    assert tab_a.stdout == tab_b.stdout
    rows = list(csv.DictReader(io.StringIO(tab_a.stdout)))
    assert len(rows) >= 40
