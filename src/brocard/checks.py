"""Named residual checks over the whole library.

Every closed-form identity the library relies on is re-verified here
numerically.  Each check is declared with :func:`check`, which records
its id, tolerance, inputs and claim next to its body.  Its inputs are
draws from its seeded generator, a ``t`` grid, the steps of a walk or
one fixed input, and the declaration states their count; the body maps
one input to its residuals and draws nothing.  :func:`run_checks` calls
the body on each input, folds with :func:`~brocard.geom.worst`, counts
the inputs as the samples used, and reports the worst residual against
the check's tolerance.  Check ids share short group prefixes
(``geom.``, ``fixture.``, ``thm1.``, ...) so the command line can
select groups; the ids are a stable contract, chosen once and kept.

Checks are independent: each draws its own seeded generator from the run
seed and its id, so results do not depend on execution order, nor on
which process runs a check.  :func:`run_checks` therefore runs one
worker per usable CPU: the caller runs a fixed share of the selected
checks and forked children pull the rest, each taking the next check
whenever it is free; the caller builds the rows from what workers measured.
Patches made before the call hold in every worker; side effects of a
check body (a counter it bumps, the ``_web_field_sweep`` cache it fills,
a tracer's spans) stay in the worker that ran it.  A NaN residual is
reported as NaN and fails.  A check that raises, even after some inputs
were computed, or whose body returns no residual for an input, is
reported with an infinite residual and zero samples, and fails at any
tolerance; so is every check that a worker had taken when it died.

:func:`run_checks` takes the porism step and, for the run, binds it as
``step_forward`` in each ``brocard`` module that holds that name: the
three single-step claims that call it and, through
:func:`~brocard.recurrence.child_scene`, every forward walk, which
:func:`~brocard.recurrence.orbit_scenes` takes; ``step_backward`` does not.
``MUTATIONS`` (from :mod:`~brocard.recurrence`) maps the command line's
self-test names to deliberately broken steps; a run with one proves the
suite notices a corrupted recurrence.  ``flip-step-sign`` raises at its
first use; ``nudge-step-R`` and ``nudge-step-excess`` raise nothing, so
the checks they fail fail by residual.
"""

from __future__ import annotations

import math
import random
import sys
from dataclasses import dataclass
from itertools import repeat
from typing import Any, Callable, Iterable, Iterator

from ._workers import split
from .centers import (
    Meets,
    _brocard_construction,
    _lambda,
    brocard_angle,
    brocard_cotangent,
    brocard_points_by_construction,
    second_brocard_triangle,
    standard_centers,
)
from .continuous import (
    BELTRAMI_CENTERS,
    T_CRITICAL,
    T_MAX,
    X15,
    X16,
    _web_field_sweep,
    brocard_circle_Kt,
    bt_scene,
    eccentricity_Et,
    ellipse_Et,
    embed_step,
    envelope_points,
    envelope_residual,
    family_extrema,
    foci_on_arcs_check,
    gamma_nesting_residual,
    kt_inellipse_intersection_check,
    t_from_u,
    u_from_t,
    web_point_residuals,
    web_quartic,
)
from .geom import (
    Circle,
    Ellipse,
    GeometryError,
    Line,
    Point,
    Pose,
    Triangle,
    circle_nesting_slack,
    circumcircle,
    ellipse_line_tangency_residual,
    invert_in_circle,
    midpoint,
    project_onto_line,
    worst,
)
from .porism import (
    FIXTURE,
    IsoscelesParams,
    ParametrizationSingularityError,
    PorismParams,
    PorismScene,
    Ru_from_dh,
    SQRT3,
    dh_from_Ru,
    scene_from_Ru,
    scene_member,
    closure_residuals,
    vertices_at,
)
from .recurrence import (
    MUTATIONS,  # re-exported: the registry's callers read checks.MUTATIONS
    StepFunction,
    alternating_brocard_sequence,
    anti_scene,
    beltrami_orthogonality,
    brocard_nesting,
    child_scene,
    orbit_scenes,
    step_backward,
    step_forward,
)


class UnknownCheckFilterError(KeyError):
    """The requested check-id prefix matches nothing."""


@dataclass(frozen=True)
class CheckReport:
    check_id: str
    claim: str
    max_residual: float
    tolerance: float
    passed: bool
    samples_used: int


# inputs(rng, samples) yields a check's inputs; its body maps one input
# to that input's residuals
Inputs = Callable[[random.Random, int], Iterable]
Residuals = Iterable[float]
Body = Callable[[Any], Residuals]
# a sample count: a literal, or a rule on the run's samples
Count = int | Callable[[int], int]
Sampler = Callable[[random.Random], Any]

# check id -> (claim, tolerance, inputs, body), in declaration order
_REGISTRY: dict[str, tuple[str, float, Inputs, Body]] = {}


def check(
    check_id: str, tolerance: float, inputs: Inputs, claim: str
) -> Callable[[Body], Body]:
    """Register the decorated function as the body of the check ``check_id``.

    ``tolerance`` is the check's own bound on its worst residual; no run
    setting overrides it.  ``inputs(rng, samples)`` yields the inputs,
    drawing from ``rng`` alone; the runner counts them.
    """

    def register(fn: Body) -> Body:
        if check_id in _REGISTRY:
            raise ValueError(f"check id {check_id!r} declared twice")
        _REGISTRY[check_id] = (claim, tolerance, inputs, fn)
        return fn

    return register


# ---------------------------------------------------------------------------
# inputs


def _quarter(samples: int) -> int:
    """Input count of the checks that assemble a whole scene per input."""
    return max(20, samples // 4)


def _count(count: Count, samples: int) -> int:
    return count(samples) if callable(count) else count


def _draws(count: Count, sampler: Sampler) -> Inputs:
    """``count`` inputs, each drawn by ``sampler(rng)``."""

    def inputs(rng: random.Random, samples: int) -> Iterator:
        for _ in range(_count(count, samples)):
            yield sampler(rng)

    return inputs


def _fixed(*values: Any) -> Inputs:
    return lambda rng, samples: values


# the inputs of a check computed once, on nothing drawn
_ONCE = _fixed(None)


def _t_grid(n: int, lo: float = 0.05, hi: float = T_MAX - 0.02) -> list[float]:
    return [lo + (hi - lo) * k / (n - 1) for k in range(n)]


def _grid(count: Count, **bounds: float) -> Inputs:
    """``count`` evenly spaced family parameters."""
    return lambda rng, samples: _t_grid(_count(count, samples), **bounds)


def _uniform(*bounds: tuple[float, float]) -> Sampler:
    """A sampler of one uniform draw from each (lo, hi), in order."""
    return lambda rng: [rng.uniform(lo, hi) for lo, hi in bounds]


def _random_shape(rng: random.Random, lo: float = 0.4, hi: float = 4.0) -> IsoscelesParams:
    d = rng.uniform(0.5, 2.0)
    return IsoscelesParams(d, d * rng.uniform(lo, hi))


def _random_member_params(rng: random.Random) -> PorismParams:
    while True:
        params = Ru_from_dh(_random_shape(rng))
        if params.u_excess > 1e-3:
            return params


def _random_chart_params(rng: random.Random) -> IsoscelesParams:
    """Tall-branch chart shapes, h > sqrt3 d, whose excess is at least 3.76e-3.

    Flat shapes (h below sqrt3 d) describe the mirror-image porism, whose
    symmedian point sits above the circumcenter; the chart identities
    against the canonical frame hold on the tall branch.
    """
    return _random_shape(rng, 1.85, 4.5)


def _random_member(rng: random.Random, scene: PorismScene) -> Triangle:
    while True:
        t = rng.uniform(0.0, 2.0 * math.pi)
        try:
            return scene_member(scene, t)
        except ParametrizationSingularityError:
            continue


# a porism's scene and one of its members
Member = tuple[PorismScene, Triangle]


def _random_scene(rng: random.Random) -> PorismScene:
    return scene_from_Ru(_random_member_params(rng))


def _random_triangle(rng: random.Random) -> Member:
    scene = _random_scene(rng)
    return scene, _random_member(rng, scene)


def _random_pose(rng: random.Random) -> Pose:
    return Pose(
        translation=Point(rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0)),
        rotation=0.5 * math.pi * rng.randrange(4),
        reflect_x=rng.random() < 0.5,
        scale=rng.uniform(0.5, 2.0),
    )


def _posed_scene(rng: random.Random) -> PorismScene:
    return scene_from_Ru(_random_member_params(rng), _random_pose(rng))


def _whole(walk: list[PorismScene], steps: int) -> list[PorismScene]:
    """``walk`` if it holds all generations 0..steps, else raise: a healthy
    step walks its root that far, so an orbit that stopped short is a
    fault, not a shorter sample."""
    if len(walk) <= steps:
        raise GeometryError(f"the orbit stopped after {len(walk) - 1} of {steps} steps")
    return walk


def _fixture_orbit(steps: int) -> list[PorismScene]:
    """Generations 0..steps forward from the fixture porism."""
    return _whole(orbit_scenes(scene_from_Ru(Ru_from_dh(FIXTURE)), steps), steps)


def _backward_chain(steps: int) -> list[PorismScene]:
    """Generations 0..steps backward from (R, u) = (1, 2)."""
    root = scene_from_Ru(PorismParams(1.0, 2.0))
    return _whole(orbit_scenes(root, steps, anti_scene), steps)


def _steps(series: list) -> Iterator[tuple]:
    """Each step (before, after) of a walked series, with its end value."""
    return zip(series, series[1:], repeat(series[-1]))


# ---------------------------------------------------------------------------
# geom group


@check("geom.inversion_involution", 1e-11,
       _draws(lambda samples: samples, _uniform(
           (-2.0, 2.0), (-2.0, 2.0), (0.3, 3.0), (0.0, 2.0 * math.pi), (0.05, 5.0))),
       "circle inversion applied twice returns the input point")
def _check_inversion_involution(drawn: list[float]) -> Residuals:
    x, y, radius, angle, stretch = drawn
    c = Circle(Point(x, y), radius)
    p = c.center + Point(1.0, 0.0).rotated(angle) * (c.radius * stretch)
    q = invert_in_circle(c, invert_in_circle(c, p))
    return (q.dist(p) / max(1.0, p.norm()),)


@check("geom.projection_idempotent", 1e-13,
       _draws(lambda samples: samples, _uniform(
           (-3.0, 3.0), (-3.0, 3.0), (0.0, 2.0 * math.pi), (-3.0, 3.0), (-3.0, 3.0))),
       "projecting a projected point onto the same line moves nothing")
def _check_projection_idempotent(drawn: list[float]) -> Residuals:
    ox, oy, angle, px, py = drawn
    line = Line(Point(ox, oy), Point(1.0, 0.0).rotated(angle))
    q = project_onto_line(line, Point(px, py))
    return (project_onto_line(line, q).dist(q),)


def _random_tangent(rng: random.Random) -> tuple[Ellipse, float]:
    """A random ellipse, its major axis at any angle, and a point's parameter."""
    hi = rng.uniform(0.2, 2.0)
    lo = rng.uniform(0.2, hi)
    center = Point(rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0))
    axis = Point(1.0, 0.0).rotated(rng.uniform(0.0, 2.0 * math.pi))
    return Ellipse(center, hi, lo, axis), rng.uniform(0.0, 2.0 * math.pi)


@check("geom.tangent_residual", 1e-11, _draws(lambda samples: samples, _random_tangent),
       "analytic ellipse tangents have zero tangency residual")
def _check_tangent_residual(drawn: tuple) -> Residuals:
    e, theta = drawn
    line = Line(e.point_at(theta), e.tangent_direction_at(theta))
    return (ellipse_line_tangency_residual(e, line),)


@check("geom.circumcircle_cyclic", 1e-12, _draws(_quarter, _random_triangle),
       "the circumcircle does not depend on the vertex ordering")
def _check_circumcircle_cyclic(member: Member) -> Residuals:
    tri = member[1]
    base = circumcircle(tri)
    return [
        r
        for perm in (Triangle(tri.B, tri.C, tri.A), Triangle(tri.C, tri.A, tri.B))
        for other in (circumcircle(perm),)
        for r in (other.center.dist(base.center), abs(other.radius - base.radius))
    ]


# ---------------------------------------------------------------------------
# Brocard-point construction group


def _spread(meets: Meets) -> float:
    """Largest distance between two of the three meets of turned sides."""
    (x01, y01), (x12, y12), (x20, y20) = meets
    return max(
        math.hypot(x01 - x12, y01 - y12),
        math.hypot(x12 - x20, y12 - y20),
        math.hypot(x20 - x01, y20 - y01),
    )


def brocard_concurrency_defect(t: Triangle) -> float:
    """Largest pairwise spread among the three rotated lines, both points."""
    first, second = _brocard_construction(t, brocard_angle(t))
    return max(_spread(first), _spread(second))


@check("def1.concurrency", 1e-9, _draws(100, _random_triangle),
       "the three rotated sides meet at one point for both rotation senses")
def _check_concurrency(member: Member) -> Residuals:
    return (brocard_concurrency_defect(member[1]),)


@check("def1.mirror_swap", 1e-10, _draws(_quarter, _random_triangle),
       "mirroring the triangle swaps the two Brocard points")
def _check_mirror_swap(member: Member) -> Residuals:
    def mirror(p: Point) -> Point:
        return Point(-p.x, p.y)

    tri = member[1]
    first, second = brocard_points_by_construction(tri)
    mirrored = Triangle(mirror(tri.A), mirror(tri.C), mirror(tri.B))
    first_m, second_m = brocard_points_by_construction(mirrored)
    return mirror(first_m).dist(second), mirror(second_m).dist(first)


@check("prop2.closed_form", 1e-9, _draws(100, _random_triangle),
       "constructed Brocard points match the scene's closed-form foci, with labels")
def _check_closed_form_points(member: Member) -> Residuals:
    scene, tri = member
    first, second = brocard_points_by_construction(tri)
    return first.dist(scene.omega1), second.dist(scene.omega2)


@check("lem2.focal_gap", 1e-10, _draws(_quarter, _random_triangle),
       "the Brocard point separation equals the focal distance of the inellipse")
def _check_focal_gap(member: Member) -> Residuals:
    scene, tri = member
    first, second = brocard_points_by_construction(tri)
    gap = first.dist(second)
    a, b = scene.inellipse.semi_major, scene.inellipse.semi_minor
    s1, s2, s3, area = tri.measure
    sin_w = 2.0 * area / math.sqrt(_lambda(s1, s2, s3))
    closed = 2.0 * (s1 * s2 * s3 / (4.0 * area)) * sin_w * math.sqrt(1.0 - 4.0 * sin_w * sin_w)
    return abs(gap - 2.0 * math.sqrt((a - b) * (a + b))), abs(gap - closed)


# ---------------------------------------------------------------------------
# Beltrami / isodynamic structure


@check("prop5.equilateral", 1e-9, _draws(_quarter, _random_scene),
       "each isodynamic point forms an equilateral triangle with the Beltrami points")
def _check_equilateral_triangles(scene: PorismScene) -> Residuals:
    p2, u2 = scene.beltrami_P2, scene.beltrami_U2
    return [
        abs(a.dist(b) - scene.beltrami_radius)
        for apexwards in (scene.X15, scene.X16)
        for a, b in ((apexwards, p2), (apexwards, u2), (p2, u2))
    ]


@check("prop5.isodynamic_membership", 1e-9, _draws(_quarter, _random_scene),
       "both isodynamic points lie on both Beltrami circles")
def _check_isodynamic_membership(scene: PorismScene) -> Residuals:
    c1, c2 = scene.beltrami_circles()
    return [c.membership_residual(p) for p in (scene.X15, scene.X16) for c in (c1, c2)]


@check("lem5.x574_chain", 1e-10, _draws(_quarter, _random_triangle),
       "the double inversion chain lands on the closed form for X574")
def _check_x574_chain(member: Member) -> Residuals:
    scene, tri = member
    R, u, g = scene.params.R, scene.params.u, scene.params.gap
    closed = Point(0.0, -R * u * g / (u * u + 3.0))
    return (standard_centers(tri).X574.dist(closed),)


@check("lem10.child_axis_gap", 1e-10, _draws(_quarter, _random_triangle),
       "the circumcenter-symmedian gap of the derived triangle matches its closed form")
def _check_child_axis_gap(member: Member) -> Residuals:
    scene, tri = member
    sub = second_brocard_triangle(tri)
    measured = circumcircle(sub).center.dist(sub.symmedian)
    R, u, g = scene.params.R, scene.params.u, scene.params.gap
    return (abs(measured - R * g ** 3 / (2.0 * u * (u * u + 3.0))),)


# ---------------------------------------------------------------------------
# the (d, h) = (1, 2) fixture


@check("fixture.scene", 1e-11, _ONCE,
       "the half-base 1, height 2 porism reproduces its exact catalog of values")
def _check_fixture_scene(_: None) -> Residuals:
    params = Ru_from_dh(FIXTURE)
    scene = scene_from_Ru(params)
    expected = (
        (params.R, 1.25),
        (params.u, 1.75),
        (scene.inellipse.semi_major, math.sqrt(5.0 / 13.0)),
        (scene.inellipse.semi_minor, 8.0 / 13.0),
        (scene.omega1.x, 1.0 / 13.0),
        (scene.omega1.y, -7.0 / 52.0),
        (scene.omega2.x, -1.0 / 13.0),
        (scene.omega2.y, -7.0 / 52.0),
        (scene.X6.y, -5.0 / 28.0),
        (scene.X15.y, 5.0 * (SQRT3 - 1.75)),
        (scene.X16.y, -1.25 * (SQRT3 + 1.75) / 0.25),
        (scene.X182.y, -5.0 / 56.0),
        (scene.beltrami_P2.x, -5.0),
        (scene.beltrami_P2.y, -8.75),
        (scene.beltrami_U2.x, 5.0),
        (scene.beltrami_U2.y, -8.75),
        (scene.beltrami_radius, 10.0),
        (scene.brocard_circle.radius, 5.0 / 56.0),
    )
    return [abs(got - want) for got, want in expected]


def isosceles_member(iso: IsoscelesParams) -> Triangle:
    """The apex-up isosceles member with base half-width d and height h."""
    d, h = iso.d, iso.h
    base_y = (d * d - h * h) / (2.0 * h)
    return Triangle(Point(-d, base_y), Point(d, base_y), Point(0.0, iso.zeta / (2.0 * h)))


def isosceles_conic(iso: IsoscelesParams) -> tuple[float, float, float, float, float, float]:
    """The implicit conic (A, B, C, D, E, F) of the inellipse, Ax^2 + Bxy +
    Cy^2 + Dx + Ey + F = 0; it exists for verification, and scenes represent
    the inellipse through :class:`Ellipse`."""
    d, h, zeta = iso.d, iso.h, iso.zeta
    d2, h2 = d * d, h * h
    return (
        -64.0 * d2 * h2 * h2,
        0.0,
        -4.0 * h2 * (9.0 * d2 + h2) * zeta,
        0.0,
        4.0 * h * (3.0 * d2 + h2) * (3.0 * d2 - h2) * zeta,
        -(d2 - h2) * (9.0 * d2 - h2) * zeta * zeta,
    )


@check("fixture.inversion_routes", 1e-11, _ONCE,
       "X187 and X574 of the fixture agree between inversion chain and closed form")
def _check_fixture_inversion_routes(_: None) -> Residuals:
    centers = standard_centers(isosceles_member(FIXTURE))
    x574 = -35.0 / 388.0
    return (
        abs(centers.X187.x),
        abs(centers.X187.y + 8.75),
        abs(centers.X574.x),
        abs(centers.X574.y - x574),
        # closed form -R*u*gap/(u^2 + 3) against the double-inversion chain
        abs((-1.25 * 1.75 * 0.25 / (1.75 ** 2 + 3.0)) - x574),
    )


# ---------------------------------------------------------------------------
# Poncelet closure and stationarity


def _closure_members(rng: random.Random, samples: int) -> Iterator[Member]:
    """Half the samples on the fixture porism, the rest on random ones."""
    fixture_scene = scene_from_Ru(Ru_from_dh(FIXTURE))
    half = samples // 2
    for _ in range(half):
        yield fixture_scene, _random_member(rng, fixture_scene)
    for _ in range(samples - half):
        yield _random_triangle(rng)


@check("closure.tangency", 1e-9, _closure_members,
       "every sampled member triangle is tangent to the inellipse on all three sides")
def _check_closure_tangency(member: Member) -> Residuals:
    return closure_residuals(*member)


@check("closure.brocard_angle", 1e-10, _closure_members,
       "the Brocard angle is the same for every member of a porism")
def _check_closure_angle(member: Member) -> Residuals:
    scene, tri = member
    return (abs(math.atan2(1.0, brocard_cotangent(tri)) - scene.params.omega),)


@check("closure.stationarity", 1e-9, _closure_members,
       "Brocard points and the named centers are stationary across the family")
def _check_closure_stationarity(member: Member) -> Residuals:
    scene, tri = member
    cs = standard_centers(tri)
    return (
        cs.omega1.dist(scene.omega1),
        cs.omega2.dist(scene.omega2),
        cs.X6.dist(scene.X6),
        cs.X15.dist(scene.X15),
        cs.X16.dist(scene.X16),
        cs.X39.dist(scene.X39),
        cs.X182.dist(scene.X182),
        abs(cs.X182.dist(cs.X3) - scene.brocard_circle.radius),
    )


# ---------------------------------------------------------------------------
# one porism step, two routes


@check("thm1.two_route", 1e-8, _draws(50, _random_triangle),
       "measuring the derived triangle agrees with the closed-form parameter step")
def _check_step_two_route(member: Member) -> Residuals:
    scene, tri = member
    sub = second_brocard_triangle(tri)
    stepped = step_forward(scene.params)
    return abs(circumcircle(sub).radius - stepped.R), abs(brocard_cotangent(sub) - stepped.u)


def _posed_member(rng: random.Random) -> Member:
    parent = _posed_scene(rng)
    return parent, _random_member(rng, parent)


check("closure.posed_tangency", 1e-12, _draws(_quarter, _posed_member),
      "every sampled posed member is tangent to its posed inellipse")(_check_closure_tangency)


@check("thm1.child_circumcircle", 1e-9, _draws(_quarter, _posed_member),
       "the child's circumcircle is the parent's Brocard circle")
def _check_child_circumcircle(member: Member) -> Residuals:
    parent, tri = member
    measured = circumcircle(second_brocard_triangle(tri))
    child = child_scene(parent).circumcircle
    return measured.center.dist(child.center), abs(measured.radius - child.radius)


@check("thm1.cor9_axes", 1e-11, _draws(_quarter, _random_scene),
       "child inellipse axes via the parent-axes route match the stepped scene")
def _check_child_axes(parent: PorismScene) -> Residuals:
    a = parent.inellipse.semi_major
    b = parent.inellipse.semi_minor
    focal2 = (a - b) * (a + b)
    a_pred = a * math.sqrt(focal2) / math.sqrt(a * a + 2.0 * b * b)
    b_pred = b * math.sqrt(focal2) * math.sqrt(4.0 * a * a - b * b) / (a * a + 2.0 * b * b)
    child = child_scene(parent)
    return abs(child.inellipse.semi_major - a_pred), abs(child.inellipse.semi_minor - b_pred)


@check("thm1.x182_formula", 1e-10, _draws(_quarter, _random_scene),
       "the child's Brocard-circle center lands on its predicted coordinates")
def _check_child_x182(parent: PorismScene) -> Residuals:
    child = child_scene(parent)
    u, stepped = parent.params.u, child.params
    y = -3.0 * stepped.R * (u ** 2 + 1.0) / (4.0 * stepped.u * u)
    return (child.X182.dist(Point(0.0, y)),)


# ---------------------------------------------------------------------------
# convergence of the step map


def _forward_excesses(rng: random.Random, samples: int) -> Iterable:
    walk = _whole(orbit_scenes(scene_from_Ru(PorismParams(1.0, 3.0)), 6), 6)
    return _steps([s.params.u_excess for s in walk])


@check("prop14.forward_convergence", 1e-12, _forward_excesses,
       "six forward steps from cotangent 3 reach the equilateral limit quadratically")
def _check_forward_convergence(step: tuple) -> Residuals:
    e0, e1, end = step
    return (math.inf if e0 > 0.0 and e1 / e0 ** 2 > 0.3 else 0.0), end


# one input per step, each the walk's last generation
@check("prop14.backward_growth", 1e-9, lambda rng, samples: repeat(_backward_chain(8)[-1], 8),
       "eight backward steps from cotangent 2 push the cotangent past 100")
def _check_backward_growth(end: PorismScene) -> Residuals:
    return (100.0 - end.params.u,)


@check("prop14.roundtrip", 1e-12, _draws(100, _random_member_params),
       "backward after forward is the identity on parameters")
def _check_roundtrip(params: PorismParams) -> Residuals:
    back = step_backward(step_forward(params))
    return abs(back.R - params.R) / params.R, abs(back.u - params.u) / params.u


@check("prop14.fixed_point", 1e-15, _fixed(0.0, *(0.25 * k for k in range(1, 40))),
       "the equilateral parameters are the only fixed point and the map contracts")
def _check_fixed_point(excess: float) -> Residuals:
    if excess == 0.0:
        at_fixed = step_forward(PorismParams.from_excess(1.0, 0.0))
        return (abs(at_fixed.u_excess) + abs(at_fixed.R),)
    # strict contraction above the fixed point
    u = SQRT3 + excess
    return (step_forward(PorismParams(1.0, u)).u - u,)


# ---------------------------------------------------------------------------
# forward monotone structure and nesting


@check("thm2.monotone", 1e-12,
       lambda rng, samples: _steps([s.params for s in _fixture_orbit(6)]),
       "radius, excess, and eccentricity shrink while the Brocard angle grows")
def _check_forward_monotone(step: tuple) -> Residuals:
    prev, nxt, _ = step
    # eccentricity sqrt((u^2-3)/(u^2+1)) must shrink with u
    ecc_prev = prev.gap / math.sqrt(prev.u ** 2 + 1.0)
    ecc_next = nxt.gap / math.sqrt(nxt.u ** 2 + 1.0)
    return (
        nxt.R - prev.R,
        nxt.u_excess - prev.u_excess,
        ecc_next - ecc_prev,
        prev.omega - nxt.omega,
    )


@check("thm2.nesting", 1e-10, lambda rng, samples: brocard_nesting(_fixture_orbit(6)),
       "each generation's Brocard circle nests inside its parent's")
def _check_brocard_nesting(overshoot: float) -> Residuals:
    return (overshoot,)


def _beltrami_points(rng: random.Random, samples: int) -> Iterable:
    """Each alternating Brocard point with its Beltrami circle and the gap
    of its sequence's start from the root's Brocard point."""
    scenes = _fixture_orbit(6)
    root, sequences = scenes[0], alternating_brocard_sequence(scenes)
    starts = (root.omega1, root.omega2)
    for circle, points, start in zip(root.beltrami_circles(), sequences, starts):
        gap = points[0].dist(start)
        for p in points:
            yield circle, p, gap


@check("thm3.concyclicity", 1e-9, _beltrami_points,
       "alternating Brocard points of successive generations share two fixed circles")
def _check_concyclicity(on_circle: tuple) -> Residuals:
    circle, p, gap = on_circle
    return circle.membership_residual(p), gap


def _sequence_ends(rng: random.Random, samples: int) -> Iterable:
    scenes = _fixture_orbit(7)
    for points in alternating_brocard_sequence(scenes):
        yield points[-1], scenes[0].X15


@check("thm3.limit_point", 1e-6, _sequence_ends,
       "the alternating sequences converge to the lower isodynamic point")
def _check_limit_point(end: tuple) -> Residuals:
    last, limit = end
    return (last.dist(limit),)


@check("prop6.orthogonality", 1e-9,
       lambda rng, samples: beltrami_orthogonality(_fixture_orbit(5)),
       "both Beltrami circles cut every generation's Brocard circle at right angles")
def _check_beltrami_orthogonality(defect: float) -> Residuals:
    return (defect,)


# ---------------------------------------------------------------------------
# the inverse direction


@check("prop4.anti_roundtrip_params", 1e-11, _draws(_quarter, _posed_scene),
       "stepping the anti-porism forward recovers the original parameters")
def _check_anti_roundtrip_params(scene: PorismScene) -> Residuals:
    again = child_scene(anti_scene(scene))
    return (
        abs(again.params.R - scene.params.R) / scene.params.R,
        abs(again.params.u - scene.params.u) / scene.params.u,
    )


@check("prop4.anti_roundtrip_points", 1e-9, _draws(_quarter, _posed_scene),
       "stepping the anti-porism forward recovers the original scene points")
def _check_anti_roundtrip_points(scene: PorismScene) -> Residuals:
    again = child_scene(anti_scene(scene))
    return (
        again.X3.dist(scene.X3),
        again.X6.dist(scene.X6),
        again.X15.dist(scene.X15),
        again.X16.dist(scene.X16),
        again.omega1.dist(scene.omega1),
        again.omega2.dist(scene.omega2),
    )


def _backward_generations(rng: random.Random, samples: int) -> Iterable:
    root, *chain = _backward_chain(8)
    return zip(repeat(root), chain)


@check("prop4.anti_stationary", 1e-9, _backward_generations,
       "isodynamic points stay put along the backward chain")
def _check_anti_stationary(generation: tuple) -> Residuals:
    root, s = generation
    return s.X15.dist(root.X15), s.X16.dist(root.X16)


def _anti_axis_series(generations: int) -> tuple[list[float], list[float]]:
    root, *chain = _backward_chain(generations)
    span = root.beltrami_P2.dist(root.beltrami_U2)
    majors = [abs(2.0 * s.inellipse.semi_major - span) for s in chain]
    return majors, [s.inellipse.semi_minor for s in chain]


# the first generation steps from inf: it has no earlier axis to fall from
@check("prop4.major_axis_limit", 1e-6,
       lambda rng, samples: _steps([math.inf, *_anti_axis_series(12)[0]]),
       "backward inellipse major axes widen monotonically to the Beltrami span")
def _falls_to_limit(step: tuple) -> Residuals:
    """A step of a series that must fall strictly to its end value: inf
    where it rises, and the end value."""
    before, after, end = step
    return (math.inf if after >= before else 0.0), end


check("prop4.minor_axis_limit", 1e-3,
      lambda rng, samples: _steps([math.inf, *_anti_axis_series(12)[1]]),
      "backward inellipse minor axes flatten monotonically to zero")(_falls_to_limit)


# ---------------------------------------------------------------------------
# the isosceles chart


@check("lem9.chart_roundtrip", 1e-12,
       _draws(_quarter, lambda rng: (_random_member_params(rng), _random_chart_params(rng))),
       "the isosceles chart and the parameter chart invert each other")
def _check_chart_roundtrip(drawn: tuple) -> Residuals:
    params, iso = drawn
    back = Ru_from_dh(dh_from_Ru(params))
    iso_back = dh_from_Ru(Ru_from_dh(iso))
    return (
        abs(back.R - params.R) / params.R,
        abs(back.u - params.u) / params.u,
        abs(iso_back.d - iso.d) / iso.d,
        abs(iso_back.h - iso.h) / iso.h,
    )


def conic_to_ellipse(
    coeffs: tuple[float, float, float, float, float, float]
) -> Ellipse:
    """Ellipse of an implicit conic with no cross term."""
    A, B, C, D, E, F = coeffs
    if B != 0.0:
        raise GeometryError("conic has a cross term")
    if A * C <= 0.0:
        raise GeometryError("conic is not an ellipse")
    cx = -D / (2.0 * A)
    cy = -E / (2.0 * C)
    k = A * cx * cx + C * cy * cy - F
    if k / A <= 0.0:
        raise GeometryError("conic is empty")
    ax = math.sqrt(k / A)
    ay = math.sqrt(k / C)
    if ax >= ay:
        return Ellipse(Point(cx, cy), ax, ay)
    return Ellipse(Point(cx, cy), ay, ax, Point(0.0, 1.0))


@check("prop11.conic_match", 1e-10, _draws(_quarter, _random_chart_params),
       "the implicit conic of the isosceles chart is the scene inellipse")
def _check_conic_match(iso: IsoscelesParams) -> Residuals:
    from_conic = conic_to_ellipse(isosceles_conic(iso))
    scene = scene_from_Ru(Ru_from_dh(iso))
    return (
        from_conic.center.dist(scene.inellipse.center),
        abs(from_conic.semi_major - scene.inellipse.semi_major),
        abs(from_conic.semi_minor - scene.inellipse.semi_minor),
    )


def ellipse_foci(e: Ellipse) -> tuple[Point, Point]:
    c = math.sqrt(max(0.0, (e.semi_major - e.semi_minor) * (e.semi_major + e.semi_minor)))
    off = e.axis * c
    return (e.center - off, e.center + off)


@check("prop12.foci_printed", 1e-11, _draws(_quarter, _random_chart_params),
       "the chart's rational focus formulas land on the inellipse foci")
def _check_printed_foci(iso: IsoscelesParams) -> Residuals:
    d, h = iso.d, iso.h
    scene = scene_from_Ru(Ru_from_dh(iso))
    d2, h2 = d * d, h * h
    denom = 9.0 * d2 + h2
    fx = d * (3.0 * d2 - h2) / denom
    fy = (9.0 * d2 * d2 - h2 * h2) / (2.0 * h * denom)
    printed = {(-fx, fy), (fx, fy)}
    return [
        min(math.hypot(p.x - px, p.y - py) for px, py in printed)
        for p in ellipse_foci(scene.inellipse)
    ]


@check("prop12.axes_composed", 1e-11, _draws(_quarter, _random_shape),
       "the chart's composed semi-axis formulas match the scene")
def _check_composed_axes(iso: IsoscelesParams) -> Residuals:
    d, h = iso
    scene = scene_from_Ru(Ru_from_dh(iso))
    denom = 9.0 * d * d + h * h
    a = d * math.sqrt(iso.zeta) / math.sqrt(denom)
    b = 4.0 * d * d * h / denom
    return abs(scene.inellipse.semi_major - a), abs(scene.inellipse.semi_minor - b)


@check("eq2.apex_recovery", 1e-10, _draws(_quarter, _random_shape),
       "the member at the top parameter is the isosceles triangle itself")
def _check_apex_recovery(iso: IsoscelesParams) -> Residuals:
    tri = isosceles_member(iso)
    return [min(v.dist(w) for w in tri) for v in vertices_at(iso, 0.5 * math.pi)]


# ---------------------------------------------------------------------------
# the continuous family


@check("thm4.isodynamic_fixed", 1e-10, _grid(_quarter),
       "every family member keeps the isodynamic points at plus and minus root3/2")
def _check_isodynamic_fixed(t: float) -> Residuals:
    scene = bt_scene(t)
    return scene.X15.dist(X15), scene.X16.dist(X16)


@check("thm4.member_t0", 1e-10, _ONCE,
       "the cotangent-2 member carries its exact catalog of values")
def _check_member_t0(_: None) -> Residuals:
    member = bt_scene(T_CRITICAL)
    f1, f2 = ellipse_foci(member.inellipse)
    return (
        abs(member.params.u - 2.0),
        abs(member.circumcircle.radius - 0.5),
        member.X3.dist(Point(0.0, -1.0)),
        abs(member.inellipse.semi_major - math.sqrt(5.0) / 10.0),
        abs(member.inellipse.semi_minor - 0.2),
        member.inellipse.center.dist(Point(0.0, -0.8)),
        member.brocard_circle.center.dist(Point(0.0, -0.875)),
        abs(member.brocard_circle.radius - 0.125),
        abs(eccentricity_Et(T_CRITICAL) - math.sqrt(0.2)),
        f1.dist(Point(-0.1, -0.8)),
        f2.dist(Point(0.1, -0.8)),
    )


@check("thm4.circle_formulas", 1e-10, _grid(_quarter),
       "the family's Brocard circles match their closed-form center and radius")
def _check_circle_formulas(t: float) -> Residuals:
    scene = bt_scene(t)
    k = brocard_circle_Kt(t)
    k_scene = scene.brocard_circle
    return k_scene.center.dist(k.center), abs(k_scene.radius - k.radius)


@check("thm4.special_u", 1e-12,
       _fixed((math.atan2(4.0, 5.0), (5.0 + math.sqrt(41.0)) / 4.0), (T_CRITICAL, 2.0)),
       "two special family parameters give their known cotangents")
def _check_special_u(special: tuple) -> Residuals:
    t, u = special
    return abs(u_from_t(t) - u), abs(t_from_u(u) - t)


def _family_members(rng: random.Random, samples: int) -> Iterable:
    """A random member at each of twelve family parameters."""
    for t in _t_grid(12, 0.15, T_MAX - 0.1):
        yield t, _random_member(rng, bt_scene(t))


@check("thm5.embed_consistency", 1e-8, _family_members,
       "the discrete step moves family members to the predicted later member")
def _check_embed_consistency(member: tuple) -> Residuals:
    t, tri = member
    sub = second_brocard_triangle(tri)
    target = bt_scene(embed_step(t))
    cc = circumcircle(sub)
    return (
        abs(cc.radius - target.circumcircle.radius),
        cc.center.dist(target.X3),
        abs(brocard_cotangent(sub) - target.params.u),
    )


@check("thm5.cot_rational", 1e-11, _grid(_quarter, lo=0.1),
       "the stepped parameter's cotangent equals its rational trigonometric form")
def _check_cot_rational(t: float) -> Residuals:
    c, s = math.cos(t), math.sin(t)
    rational = (4.0 - 4.0 * c + math.cos(2.0 * t)) / (4.0 * s - math.sin(2.0 * t))
    stepped = embed_step(t)
    return (abs(math.cos(stepped) / math.sin(stepped) - rational),)


@check("prop8.envelope_membership", 1e-10, _grid(100, hi=T_CRITICAL),
       "envelope contact points lie on the member ellipse and the fixed envelope")
def _check_envelope_membership(t: float) -> Residuals:
    return (envelope_residual(t),)


@check("prop8.focal_sum", 1e-12, _grid(50, hi=T_CRITICAL),
       "envelope points see the isodynamic points as ellipse foci")
def _check_envelope_focal_sum(t: float) -> Residuals:
    return [abs(p.dist(X16) + p.dist(X15) - 2.0) for p in envelope_points(t)]


@check("prop8.degenerate_endpoint", 1e-12, _ONCE,
       "the envelope contact degenerates to the bottom vertex at the critical parameter")
def _check_envelope_endpoint(_: None) -> Residuals:
    bottom = Point(0.0, -1.0)
    return [p.dist(bottom) for p in envelope_points(T_CRITICAL)]


def nesting_residual(t_small_circle: float, t_big_circle: float) -> float:
    """Slack of the Brocard circle at the later parameter inside the earlier.

    Pre: 0 < t_big_circle < t_small_circle <= pi/3.  Nonnegative up to
    rounding exactly when K at the later parameter nests inside K at the
    earlier one.
    """
    if not 0.0 < t_big_circle < t_small_circle <= T_MAX:
        raise GeometryError("t outside range")
    # K at pi/3 is the point X15
    inner = brocard_circle_Kt(t_small_circle) if t_small_circle < T_MAX else Circle(X15, 0.0)
    return circle_nesting_slack(inner, brocard_circle_Kt(t_big_circle))


def _ordered(v_hi: float, s_hi: float) -> Sampler:
    """A sampler of parameters (s, v), s at least 0.01 past v."""

    def draw(rng: random.Random) -> tuple[float, float]:
        v = rng.uniform(0.02, v_hi)
        return rng.uniform(v + 0.01, s_hi), v

    return draw


@check("cor11.brocard_nesting", 1e-12, _draws(200, _ordered(T_MAX - 0.02, T_MAX)),
       "family Brocard circles nest monotonically in the parameter")
def _check_k_nesting(pair: tuple) -> Residuals:
    return (-nesting_residual(*pair),)


@check("cor11.gamma_nesting", 1e-12, _draws(200, _ordered(T_MAX - 0.03, T_MAX - 0.01)),
       "family circumcircles nest monotonically in the parameter")
def _check_gamma_nesting(pair: tuple) -> Residuals:
    return (-gamma_nesting_residual(*pair),)


@check("cor12.semi_minor_max", 1e-8, _ONCE,
       "the semi-minor axis peaks at one quarter, at cosine three quarters")
def _check_semi_minor_max(_: None) -> Residuals:
    ex = family_extrema()
    return abs(ex.t_semi_minor_max - math.acos(0.75)), abs(ex.semi_minor_max - 0.25)


@check("cor13.lower_vertex", 1e-8, _ONCE,
       "the lower ellipse vertex bottoms out at (0, -1)")
def _check_lower_vertex(_: None) -> Residuals:
    ex = family_extrema()
    return abs(ex.t_lower_vertex_min - T_CRITICAL), ex.lower_vertex_min.dist(Point(0.0, -1.0))


def _profile(rng: random.Random, samples: int) -> Iterable:
    """Each point of the family's profile grid but the first, as
    (semi-major, semi-minor, eccentricity), between its neighbours; the
    last has no next."""
    rows = [
        (e.semi_major, e.semi_minor, eccentricity_Et(t))
        for t in _t_grid(max(40, samples // 2), lo=0.04, hi=T_MAX - 0.04)
        for e in (ellipse_Et(t),)
    ]
    return zip(rows, rows[1:], [*rows[2:], None])


@check("prop10.profile", 1e-6, _profile,
       "semi-major decreasing and concave, semi-minor concave, eccentricity decreasing")
def _check_family_profile(window: tuple) -> Residuals:
    # the step into a grid point, and the curvature there
    before, (a, b, ecc), after = window
    steps = (a - before[0], ecc - before[2])
    if after is None:
        return steps
    return (*steps, after[0] - 2.0 * a + before[0], after[1] - 2.0 * b + before[1])


@check("prop7.intersection_products", 1e-9, _grid(10, lo=0.1, hi=T_MAX - 0.06),
       "Brocard and Beltrami circles meet at right angles at their four known points")
def _check_web_points(t: float) -> Residuals:
    inner_products, membership = web_point_residuals(t)
    return (*(abs(v) for v in inner_products), membership)


def _web_samples(samples: int) -> int:
    return min(128, max(32, samples // 2))


def _web_fixed_points(rng: random.Random, samples: int) -> Iterable:
    """The family's four fixed points, each with the quartic sweep's worst."""
    quartic_dev = _web_field_sweep(_web_samples(samples))[0]
    return zip((X15, X16, *BELTRAMI_CENTERS), repeat(quartic_dev))


@check("rem9.quartic_orthogonality", 1e-7, _web_fixed_points,
       "the two direction fields cross at right angles exactly on the quartic locus")
def _check_quartic_orthogonality(at: tuple) -> Residuals:
    (x, y), quartic_dev = at
    return quartic_dev, abs(web_quartic(x, y))


@check("rem8.axis_parallel", 1e-7,
       lambda rng, samples: _web_field_sweep(_web_samples(samples))[1:],
       "the two direction fields run parallel on both coordinate axes")
def _check_axis_parallel(axis_dev: float) -> Residuals:
    return (axis_dev,)


def beltrami_midpoint_check(t: float) -> float:
    """Distance from the circumcircle inverse of X6 to the Beltrami midpoint.

    Both should be the origin for every member of the family.
    """
    scene = bt_scene(t)
    image = invert_in_circle(scene.circumcircle, scene.X6)
    return image.dist(midpoint(scene.beltrami_P2, scene.beltrami_U2))


@check("rem5.inversion_midpoint", 1e-9, _grid(100, lo=0.02, hi=T_MAX - 0.01),
       "inverting the symmedian point in the circumcircle gives the Beltrami midpoint")
def _check_inversion_midpoint(t: float) -> Residuals:
    return (beltrami_midpoint_check(t),)


@check("rem3.foci_arcs", 1e-12, _grid(100, lo=0.01, hi=T_MAX),
       "the moving inellipse foci ride two fixed unit circles")
def _check_foci_arcs(t: float) -> Residuals:
    return foci_on_arcs_check(t)


@check("rem4.similarity", 1e-9, _draws(_quarter, _random_member_params),
       "one fixed similarity carries any canonical porism onto its family member")
def _check_similarity(params: PorismParams) -> Residuals:
    R, u, g = params.R, params.u, params.gap
    sigma = Pose(
        translation=Point(0.0, -0.5 * u),
        rotation=math.pi,
        reflect_x=True,
        scale=g / (2.0 * R),
    )
    mapped, target = scene_from_Ru(params, sigma), bt_scene(t_from_u(u))
    e, gamma, k = mapped.inellipse, mapped.circumcircle, mapped.brocard_circle
    return (
        mapped.X15.dist(target.X15),
        mapped.X16.dist(target.X16),
        mapped.X3.dist(target.X3),
        e.center.dist(target.inellipse.center),
        abs(e.semi_major - target.inellipse.semi_major),
        abs(e.semi_minor - target.inellipse.semi_minor),
        gamma.center.dist(target.circumcircle.center),
        abs(gamma.radius - target.circumcircle.radius),
        k.center.dist(target.brocard_circle.center),
        abs(k.radius - target.brocard_circle.radius),
    )


# the grid, then the critical parameter, where both contacts are (0, -1)
@check("prop9.kt_intersections", 1e-9,
       lambda rng, samples: [*_t_grid(40, hi=T_CRITICAL), T_CRITICAL],
       "the Brocard circle meets the inellipse exactly at the envelope points")
def _check_kt_intersections(t: float) -> Residuals:
    return (kt_inellipse_intersection_check(t),)


# ---------------------------------------------------------------------------
# runner


def check_ids() -> tuple[str, ...]:
    return tuple(_REGISTRY)


def _worst_of(residuals: Residuals) -> float:
    """Worst residual of one input; an input with none fails its check."""
    if not (residuals := tuple(residuals)):
        raise ValueError("an input gave no residual")
    return worst(residuals)


def run_checks(
    samples: int = 200,
    seed: int = 0,
    filter_prefix: str | None = None,
    step: StepFunction = step_forward,
) -> list[CheckReport]:
    """Run the registry (or a prefix-selected slice) and report residuals.

    One worker per usable CPU runs the selected checks (see
    :mod:`brocard._workers`): the caller a fixed share, forked children
    the rest, each child taking the next check in registry order when it
    is free; results do not depend on which process runs a check.  A
    worker returns ``(worst residual, samples)`` of each check it runs;
    the caller adds the registry's claim and tolerance to make each report.
    While the call runs, ``step`` is ``step_forward`` in every ``brocard``
    module that binds that name, a process-wide patch that every worker
    inherits; each module gets its own binding back when the call returns
    or raises.  Patches made before the call hold in every worker, but a
    body's side effects stay in the worker that ran it.  Reports come back
    sorted by check id regardless of execution order.  A check passes only
    if it ran at least one sample and its residual is within its tolerance;
    a NaN residual never passes.  A check that raises, or whose body
    returns no residual for an input, measures ``(inf, 0)``, and so does
    each check that a dying worker had taken.  Raises
    :class:`UnknownCheckFilterError` when the filter matches no id.
    """
    selected = [
        i for i in _REGISTRY if filter_prefix is None or i.startswith(filter_prefix)
    ]
    if not selected:
        raise UnknownCheckFilterError(filter_prefix)

    def measure(check_id: str) -> tuple[float, int]:
        _, _, inputs, body = _REGISTRY[check_id]
        rng = random.Random(f"{seed}:{check_id}")
        try:
            # the inputs are pulled one at a time, between body calls
            per_input = [_worst_of(body(x)) for x in inputs(rng, max(1, samples))]
        except Exception:
            return math.inf, 0
        return worst(per_input), len(per_input)

    bound = {m: m.step_forward for name, m in list(sys.modules.items())
             if name.startswith("brocard.") and "step_forward" in vars(m)}
    try:
        for m in bound:
            m.step_forward = step
        measured = dict(zip(selected, split(selected, measure)))
    finally:
        for m, original in bound.items():
            m.step_forward = original
    reports = []
    for check_id in sorted(measured):
        claim, tol = _REGISTRY[check_id][:2]
        # zero samples, which fails at any tolerance: the check raised, an
        # input gave no residual, or its worker was lost before it reported
        residual, used = measured[check_id] or (math.inf, 0)
        passed = used > 0 and residual <= tol
        reports.append(CheckReport(check_id, claim, residual, tol, passed, used))
    return reports
