"""Named residual checks over the whole library.

Every closed-form identity the library relies on is re-verified here
numerically.  Each check is one generator declared with :func:`check`,
which records its id, tolerance and claim next to its body.  The body
yields one group of residuals per sample it draws; :func:`run_checks`
folds each group and then the groups with :func:`~brocard.geom.worst`,
counts the groups as the samples used, and reports the worst residual
against the check's tolerance.  Check ids share short group prefixes
(``geom.``, ``fixture.``, ``thm1.``, ``prop14.``, ...) so the command
line can select groups; the ids are a stable contract, chosen once and
kept.

Checks are independent: each draws its own seeded generator from the run
seed and its id, so results do not depend on execution order, nor on
which process runs a check.  :func:`run_checks` therefore runs one
worker per usable CPU: the caller runs a fixed share of the selected
checks and forked children pull the rest, each taking the next check
whenever it is free; the children send their rows back over a pipe.
Patches made before the call hold in every worker; side effects of a
check body (a counter it bumps, the ``_web_field_sweep`` cache it fills,
a tracer's spans) stay in the worker that ran it.  A NaN residual is
reported as NaN and fails.  A check that raises, even after yielding
some samples, is reported with an infinite residual and zero samples,
and fails at any tolerance; so is every check that a worker had taken
when it died.

:func:`run_checks` takes the porism step and, for the run, binds it as
``step_forward`` in each ``brocard`` module that holds that name: the
checks that step and, through :func:`~brocard.recurrence.child_scene`,
every forward orbit walk with it; ``step_backward`` does not.
``MUTATIONS`` (from :mod:`~brocard.recurrence`) maps the command line's
self-test names to deliberately broken steps; a run with one proves the
suite notices a corrupted recurrence.
"""

from __future__ import annotations

import math
import random
import sys
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Sequence

from ._workers import split
from .centers import (
    Meets,
    _brocard_construction,
    brocard_angle,
    brocard_cotangent,
    brocard_points_by_construction,
    metrics,
    second_brocard_triangle,
    standard_centers,
)
from .continuous import (
    T_CRITICAL,
    T_MAX,
    brocard_circle_Kt,
    bt_scene,
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
    web_orthogonality_residuals,
)
from .geom import (
    AxisAlignedEllipse,
    Circle,
    GeometryError,
    Line,
    MajorAxis,
    Point,
    Pose,
    Triangle,
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
    Direction,
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


@dataclass(frozen=True)
class _Context:
    rng: random.Random
    samples: int

    @property
    def quarter(self) -> int:
        """Sample count of the checks that assemble a whole scene per sample."""
        return max(20, self.samples // 4)


# what a check yields: one group of residuals per sample it draws
Samples = Iterable[Iterable[float]]
CheckFunction = Callable[[_Context], Samples]

# check id -> (claim, tolerance, function), in declaration order
_REGISTRY: dict[str, tuple[str, float, CheckFunction]] = {}


def check(
    check_id: str, tolerance: float, claim: str
) -> Callable[[CheckFunction], CheckFunction]:
    """Register the decorated function as the residual check ``check_id``.

    ``tolerance`` is the check's own bound on its worst residual; no run
    setting overrides it.  The function yields one group of residuals per
    sample it draws; the runner folds them and counts the groups, so a
    check never states its own sample count.
    """

    def register(fn: CheckFunction) -> CheckFunction:
        if check_id in _REGISTRY:
            raise ValueError(f"check id {check_id!r} declared twice")
        _REGISTRY[check_id] = (claim, tolerance, fn)
        return fn

    return register


# ---------------------------------------------------------------------------
# samplers


def _random_member_params(rng: random.Random) -> PorismParams:
    while True:
        d = rng.uniform(0.5, 2.0)
        h = d * rng.uniform(0.4, 4.0)
        params = Ru_from_dh(IsoscelesParams(d, h))
        if params.u_excess > 1e-3:
            return params


def _random_chart_params(rng: random.Random) -> IsoscelesParams:
    """Tall-branch chart shapes, h > sqrt3 d.

    Flat shapes (h below sqrt3 d) describe the mirror-image porism, whose
    symmedian point sits above the circumcenter; the chart identities
    against the canonical frame hold on the tall branch.
    """
    while True:
        d = rng.uniform(0.5, 2.0)
        iso = IsoscelesParams(d, d * rng.uniform(1.85, 4.5))
        if Ru_from_dh(iso).u_excess > 1e-3:
            return iso


def _random_member(
    rng: random.Random, scene: PorismScene
) -> tuple[float, Triangle]:
    while True:
        t = rng.uniform(0.0, 2.0 * math.pi)
        try:
            return t, scene_member(scene, t)
        except ParametrizationSingularityError:
            continue


def _random_triangle(
    rng: random.Random,
) -> tuple[PorismParams, PorismScene, Triangle]:
    """Random porism parameters, their canonical scene, and a random member."""
    params = _random_member_params(rng)
    scene = scene_from_Ru(params)
    return params, scene, _random_member(rng, scene)[1]


def _random_pose(rng: random.Random) -> Pose:
    return Pose(
        translation=Point(rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0)),
        rotation=0.5 * math.pi * rng.randrange(4),
        reflect_x=rng.random() < 0.5,
        scale=rng.uniform(0.5, 2.0),
    )


def _walk_verdicts(breaks: Sequence[bool], end: float) -> Iterator[tuple[float, ...]]:
    """One group per step of a finished walk: inf where the step broke the
    walk's test, else 0.0; the last step also carries the walk's end value."""
    for k, broke in enumerate(breaks, 1):
        verdict = math.inf if broke else 0.0
        yield (verdict, end) if k == len(breaks) else (verdict,)


# ---------------------------------------------------------------------------
# geom group


@check("geom.inversion_involution", 1e-11,
       "circle inversion applied twice returns the input point")
def _check_inversion_involution(ctx: _Context) -> Samples:
    for _ in range(ctx.samples):
        c = Circle(
            Point(ctx.rng.uniform(-2.0, 2.0), ctx.rng.uniform(-2.0, 2.0)),
            ctx.rng.uniform(0.3, 3.0),
        )
        offset = Point(1.0, 0.0).rotated(ctx.rng.uniform(0.0, 2.0 * math.pi))
        p = c.center + offset * (c.radius * ctx.rng.uniform(0.05, 5.0))
        q = invert_in_circle(c, invert_in_circle(c, p))
        yield (q.dist(p) / max(1.0, p.norm()),)


@check("geom.projection_idempotent", 1e-13,
       "projecting a projected point onto the same line moves nothing")
def _check_projection_idempotent(ctx: _Context) -> Samples:
    for _ in range(ctx.samples):
        line = Line(
            Point(ctx.rng.uniform(-3.0, 3.0), ctx.rng.uniform(-3.0, 3.0)),
            Point(1.0, 0.0).rotated(ctx.rng.uniform(0.0, 2.0 * math.pi)),
        )
        p = Point(ctx.rng.uniform(-3.0, 3.0), ctx.rng.uniform(-3.0, 3.0))
        q = project_onto_line(line, p)
        yield (project_onto_line(line, q).dist(q),)


@check("geom.tangent_residual", 1e-11,
       "analytic ellipse tangents have zero tangency residual")
def _check_tangent_residual(ctx: _Context) -> Samples:
    for _ in range(ctx.samples):
        hi = ctx.rng.uniform(0.2, 2.0)
        lo = ctx.rng.uniform(0.2, hi)
        e = AxisAlignedEllipse(
            Point(ctx.rng.uniform(-1.0, 1.0), ctx.rng.uniform(-1.0, 1.0)),
            hi,
            lo,
            MajorAxis.HORIZONTAL if ctx.rng.random() < 0.5 else MajorAxis.VERTICAL,
        )
        theta = ctx.rng.uniform(0.0, 2.0 * math.pi)
        line = Line(e.point_at(theta), e.tangent_direction_at(theta))
        yield (ellipse_line_tangency_residual(e, line),)


@check("geom.circumcircle_cyclic", 1e-12,
       "the circumcircle does not depend on the vertex ordering")
def _check_circumcircle_cyclic(ctx: _Context) -> Samples:
    for _ in range(ctx.quarter):
        _, _, tri = _random_triangle(ctx.rng)
        base = circumcircle(tri)
        yield [
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


@check("def1.concurrency", 1e-9,
       "the three rotated sides meet at one point for both rotation senses")
def _check_concurrency(ctx: _Context) -> Samples:
    for _ in range(100):
        yield (brocard_concurrency_defect(_random_triangle(ctx.rng)[2]),)


@check("def1.mirror_swap", 1e-10,
       "mirroring the triangle swaps the two Brocard points")
def _check_mirror_swap(ctx: _Context) -> Samples:
    def mirror(p: Point) -> Point:
        return Point(-p.x, p.y)

    for _ in range(ctx.quarter):
        _, _, tri = _random_triangle(ctx.rng)
        first, second = brocard_points_by_construction(tri)
        mirrored = Triangle(mirror(tri.A), mirror(tri.C), mirror(tri.B))
        first_m, second_m = brocard_points_by_construction(mirrored)
        yield mirror(first_m).dist(second), mirror(second_m).dist(first)


@check("prop2.closed_form", 1e-9,
       "constructed Brocard points match the scene's closed-form foci, with labels")
def _check_closed_form_points(ctx: _Context) -> Samples:
    for _ in range(100):
        _, scene, tri = _random_triangle(ctx.rng)
        first, second = brocard_points_by_construction(tri)
        yield first.dist(scene.omega1), second.dist(scene.omega2)


@check("lem2.focal_gap", 1e-10,
       "the Brocard point separation equals the focal distance of the inellipse")
def _check_focal_gap(ctx: _Context) -> Samples:
    for _ in range(ctx.quarter):
        _, scene, tri = _random_triangle(ctx.rng)
        first, second = brocard_points_by_construction(tri)
        gap = first.dist(second)
        a, b = scene.inellipse.semi_major, scene.inellipse.semi_minor
        m = metrics(tri)
        sin_w = 2.0 * m.area / math.sqrt(m.lambda_)
        closed = 2.0 * m.circumradius * sin_w * math.sqrt(1.0 - 4.0 * sin_w * sin_w)
        yield abs(gap - 2.0 * math.sqrt((a - b) * (a + b))), abs(gap - closed)


# ---------------------------------------------------------------------------
# Beltrami / isodynamic structure


@check("prop5.equilateral", 1e-9,
       "each isodynamic point forms an equilateral triangle with the Beltrami points")
def _check_equilateral_triangles(ctx: _Context) -> Samples:
    for _ in range(ctx.quarter):
        scene = scene_from_Ru(_random_member_params(ctx.rng))
        p2, u2 = scene.beltrami_P2, scene.beltrami_U2
        yield [
            abs(a.dist(b) - scene.beltrami_radius)
            for apexwards in (scene.X15, scene.X16)
            for a, b in ((apexwards, p2), (apexwards, u2), (p2, u2))
        ]


@check("prop5.isodynamic_membership", 1e-9,
       "both isodynamic points lie on both Beltrami circles")
def _check_isodynamic_membership(ctx: _Context) -> Samples:
    for _ in range(ctx.quarter):
        scene = scene_from_Ru(_random_member_params(ctx.rng))
        c1, c2 = scene.beltrami_circles()
        yield [c.membership_residual(p) for p in (scene.X15, scene.X16) for c in (c1, c2)]


@check("lem5.x574_chain", 1e-10,
       "the double inversion chain lands on the closed form for X574")
def _check_x574_chain(ctx: _Context) -> Samples:
    for _ in range(ctx.quarter):
        params, _, tri = _random_triangle(ctx.rng)
        R, u, g = params.R, params.u, params.gap
        closed = Point(0.0, -R * u * g / (u * u + 3.0))
        yield (standard_centers(tri).X574.dist(closed),)


@check("lem10.child_axis_gap", 1e-10,
       "the circumcenter-symmedian gap of the derived triangle matches its closed form")
def _check_child_axis_gap(ctx: _Context) -> Samples:
    for _ in range(ctx.quarter):
        params, _, tri = _random_triangle(ctx.rng)
        sub = second_brocard_triangle(tri)
        measured = circumcircle(sub).center.dist(standard_centers(sub).X6)
        R, u, g = params.R, params.u, params.gap
        yield (abs(measured - R * g ** 3 / (2.0 * u * (u * u + 3.0))),)


# ---------------------------------------------------------------------------
# the (d, h) = (1, 2) fixture


@check("fixture.scene", 1e-11,
       "the half-base 1, height 2 porism reproduces its exact catalog of values")
def _check_fixture_scene(ctx: _Context) -> Samples:
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
    yield [abs(got - want) for got, want in expected]


def isosceles_scene(
    iso: IsoscelesParams,
) -> tuple[Triangle, Circle, tuple[float, float, float, float, float, float]]:
    """Isosceles member, its circumcircle, and the implicit conic of the
    inellipse as (A, B, C, D, E, F) for Ax^2 + Bxy + Cy^2 + Dx + Ey + F = 0.

    The conic coefficients exist for verification; scenes represent the
    inellipse through :class:`AxisAlignedEllipse`.
    """
    d, h, zeta = iso.d, iso.h, iso.zeta
    base_y = (d * d - h * h) / (2.0 * h)
    tri = Triangle(
        Point(-d, base_y),
        Point(d, base_y),
        Point(0.0, zeta / (2.0 * h)),
    )
    circ = Circle(Point(0.0, 0.0), zeta / (2.0 * h))
    d2, h2 = d * d, h * h
    coeffs = (
        -64.0 * d2 * h2 * h2,
        0.0,
        -4.0 * h2 * (9.0 * d2 + h2) * zeta,
        0.0,
        4.0 * h * (3.0 * d2 + h2) * (3.0 * d2 - h2) * zeta,
        -(d2 - h2) * (9.0 * d2 - h2) * zeta * zeta,
    )
    return tri, circ, coeffs


@check("fixture.inversion_routes", 1e-11,
       "X187 and X574 of the fixture agree between inversion chain and closed form")
def _check_fixture_inversion_routes(ctx: _Context) -> Samples:
    tri, _, _ = isosceles_scene(FIXTURE)
    centers = standard_centers(tri)
    x574 = -35.0 / 388.0
    yield (
        abs(centers.X187.x),
        abs(centers.X187.y + 8.75),
        abs(centers.X574.x),
        abs(centers.X574.y - x574),
        # closed form -R*u*gap/(u^2 + 3) against the double-inversion chain
        abs((-1.25 * 1.75 * 0.25 / (1.75 ** 2 + 3.0)) - x574),
    )


# ---------------------------------------------------------------------------
# Poncelet closure and stationarity


def _closure_sampling(ctx: _Context) -> list[tuple[PorismScene, Triangle]]:
    out: list[tuple[PorismScene, Triangle]] = []
    fixture_scene = scene_from_Ru(Ru_from_dh(FIXTURE))
    half = ctx.samples // 2
    for _ in range(half):
        out.append((fixture_scene, _random_member(ctx.rng, fixture_scene)[1]))
    for _ in range(ctx.samples - half):
        _, scene, tri = _random_triangle(ctx.rng)
        out.append((scene, tri))
    return out


@check("closure.tangency", 1e-9,
       "every sampled member triangle is tangent to the inellipse on all three sides")
def _check_closure_tangency(ctx: _Context) -> Samples:
    for scene, tri in _closure_sampling(ctx):
        yield closure_residuals(scene, tri)


@check("closure.brocard_angle", 1e-10,
       "the Brocard angle is the same for every member of a porism")
def _check_closure_angle(ctx: _Context) -> Samples:
    for scene, tri in _closure_sampling(ctx):
        yield (abs(math.atan2(1.0, brocard_cotangent(tri)) - scene.params.omega),)


@check("closure.stationarity", 1e-9,
       "Brocard points and the named centers are stationary across the family")
def _check_closure_stationarity(ctx: _Context) -> Samples:
    for scene, tri in _closure_sampling(ctx):
        cs = standard_centers(tri)
        yield (
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


@check("thm1.two_route", 1e-8,
       "measuring the derived triangle agrees with the closed-form parameter step")
def _check_step_two_route(ctx: _Context) -> Samples:
    for _ in range(50):
        params, _, tri = _random_triangle(ctx.rng)
        sub = second_brocard_triangle(tri)
        stepped = step_forward(params)
        yield (
            abs(circumcircle(sub).radius - stepped.R),
            abs(brocard_cotangent(sub) - stepped.u),
        )


@check("thm1.child_circumcircle", 1e-9,
       "the child's circumcircle is the parent's Brocard circle")
def _check_child_circumcircle(ctx: _Context) -> Samples:
    for _ in range(ctx.quarter):
        parent = scene_from_Ru(_random_member_params(ctx.rng), _random_pose(ctx.rng))
        _, member = _random_member(ctx.rng, parent)
        measured = circumcircle(second_brocard_triangle(member))
        child = child_scene(parent).circumcircle
        yield (
            measured.center.dist(child.center),
            abs(measured.radius - child.radius),
        )


@check("thm1.cor9_axes", 1e-11,
       "child inellipse axes via the parent-axes route match the stepped scene")
def _check_child_axes(ctx: _Context) -> Samples:
    for _ in range(ctx.quarter):
        params = _random_member_params(ctx.rng)
        parent = scene_from_Ru(params)
        a = parent.inellipse.semi_major
        b = parent.inellipse.semi_minor
        focal2 = (a - b) * (a + b)
        a_pred = a * math.sqrt(focal2) / math.sqrt(a * a + 2.0 * b * b)
        b_pred = (
            b * math.sqrt(focal2) * math.sqrt(4.0 * a * a - b * b)
            / (a * a + 2.0 * b * b)
        )
        child = scene_from_Ru(step_forward(params))
        yield (
            abs(child.inellipse.semi_major - a_pred),
            abs(child.inellipse.semi_minor - b_pred),
        )


@check("thm1.x182_formula", 1e-10,
       "the child's Brocard-circle center lands on its predicted coordinates")
def _check_child_x182(ctx: _Context) -> Samples:
    for _ in range(ctx.quarter):
        params = _random_member_params(ctx.rng)
        child = child_scene(scene_from_Ru(params))
        stepped = child.params
        predicted = Point(
            0.0,
            -3.0 * stepped.R * (params.u ** 2 + 1.0) / (4.0 * stepped.u * params.u),
        )
        yield (child.X182.dist(predicted),)


# ---------------------------------------------------------------------------
# convergence of the step map


@check("prop14.forward_convergence", 1e-12,
       "six forward steps from cotangent 3 reach the equilateral limit quadratically")
def _check_forward_convergence(ctx: _Context) -> Samples:
    params = PorismParams(1.0, 3.0)
    errors = [params.u_excess]
    for _ in range(6):
        params = step_forward(params)
        errors.append(params.u_excess)
    yield from _walk_verdicts(
        [e0 > 0.0 and e1 / e0 ** 2 > 0.3 for e0, e1 in zip(errors, errors[1:])],
        errors[-1],
    )


@check("prop14.backward_growth", 1e-9,
       "eight backward steps from cotangent 2 push the cotangent past 100")
def _check_backward_growth(ctx: _Context) -> Samples:
    params = PorismParams(1.0, 2.0)
    for _ in range(8):
        params = step_backward(params)
    yield from _walk_verdicts([False] * 8, 100.0 - params.u)


@check("prop14.roundtrip", 1e-12,
       "backward after forward is the identity on parameters")
def _check_roundtrip(ctx: _Context) -> Samples:
    for _ in range(100):
        params = _random_member_params(ctx.rng)
        back = step_backward(step_forward(params))
        yield (
            abs(back.R - params.R) / params.R,
            abs(back.u - params.u) / params.u,
        )


@check("prop14.fixed_point", 1e-15,
       "the equilateral parameters are the only fixed point and the map contracts")
def _check_fixed_point(ctx: _Context) -> Samples:
    at_fixed = step_forward(PorismParams.from_excess(1.0, 0.0))
    yield (abs(at_fixed.u_excess) + abs(at_fixed.R),)
    # strict contraction above the fixed point
    for k in range(1, 40):
        u = SQRT3 + 0.25 * k
        yield (step_forward(PorismParams(1.0, u)).u - u,)


# ---------------------------------------------------------------------------
# forward monotone structure and nesting


def _whole(walk: Sequence, steps: int) -> Sequence:
    """``walk`` if it holds all generations 0..steps, else raise: a healthy
    step walks the fixture that far, so an orbit that stopped short is a
    fault, not a shorter sample."""
    if len(walk) <= steps:
        raise GeometryError(f"the orbit stopped after {len(walk) - 1} of {steps} steps")
    return walk


@check("thm2.monotone", 1e-12,
       "radius, excess, and eccentricity shrink while the Brocard angle grows")
def _check_forward_monotone(ctx: _Context) -> Samples:
    prev = Ru_from_dh(FIXTURE)
    for _ in range(6):
        nxt = step_forward(prev)
        # eccentricity sqrt((u^2-3)/(u^2+1)) must shrink with u
        ecc_prev = prev.gap / math.sqrt(prev.u ** 2 + 1.0)
        ecc_next = nxt.gap / math.sqrt(nxt.u ** 2 + 1.0)
        yield (
            nxt.R - prev.R,
            nxt.u_excess - prev.u_excess,
            ecc_next - ecc_prev,
            prev.omega - nxt.omega,
        )
        prev = nxt


@check("thm2.nesting", 1e-10,
       "each generation's Brocard circle nests inside its parent's")
def _check_brocard_nesting(ctx: _Context) -> Samples:
    scenes = _whole(orbit_scenes(scene_from_Ru(Ru_from_dh(FIXTURE)), 6), 6)
    for overshoot in brocard_nesting(scenes):
        yield (overshoot,)


@check("thm3.concyclicity", 1e-9,
       "alternating Brocard points of successive generations share two fixed circles")
def _check_concyclicity(ctx: _Context) -> Samples:
    root = scene_from_Ru(Ru_from_dh(FIXTURE))
    sequences = alternating_brocard_sequence(root, 6)
    _whole(sequences[0], 6)
    for circle, points, start in zip(
        root.beltrami_circles(), sequences, (root.omega1, root.omega2)
    ):
        yield circle.membership_residual(points[0]), points[0].dist(start)
        for p in points[1:]:
            yield (circle.membership_residual(p),)


@check("thm3.limit_point", 1e-6,
       "the alternating sequences converge to the lower isodynamic point")
def _check_limit_point(ctx: _Context) -> Samples:
    root = scene_from_Ru(Ru_from_dh(FIXTURE))
    for points in alternating_brocard_sequence(root, 7):
        yield (_whole(points, 7)[-1].dist(root.X15),)


@check("prop6.orthogonality", 1e-9,
       "both Beltrami circles cut every generation's Brocard circle at right angles")
def _check_beltrami_orthogonality(ctx: _Context) -> Samples:
    scenes = _whole(orbit_scenes(scene_from_Ru(Ru_from_dh(FIXTURE)), 5), 5)
    for defect in beltrami_orthogonality(scenes):
        yield (defect,)


# ---------------------------------------------------------------------------
# the inverse direction


@check("prop4.anti_roundtrip_params", 1e-11,
       "stepping the anti-porism forward recovers the original parameters")
def _check_anti_roundtrip_params(ctx: _Context) -> Samples:
    for _ in range(ctx.quarter):
        scene = scene_from_Ru(_random_member_params(ctx.rng), _random_pose(ctx.rng))
        again = child_scene(anti_scene(scene))
        yield (
            abs(again.params.R - scene.params.R) / scene.params.R,
            abs(again.params.u - scene.params.u) / scene.params.u,
        )


@check("prop4.anti_roundtrip_points", 1e-9,
       "stepping the anti-porism forward recovers the original scene points")
def _check_anti_roundtrip_points(ctx: _Context) -> Samples:
    for _ in range(ctx.quarter):
        scene = scene_from_Ru(_random_member_params(ctx.rng), _random_pose(ctx.rng))
        again = child_scene(anti_scene(scene))
        yield (
            again.X3.dist(scene.X3),
            again.X6.dist(scene.X6),
            again.X15.dist(scene.X15),
            again.X16.dist(scene.X16),
            again.omega1.dist(scene.omega1),
            again.omega2.dist(scene.omega2),
        )


def _backward_chain(generations: int) -> list[PorismScene]:
    root = scene_from_Ru(PorismParams(1.0, 2.0))
    return orbit_scenes(root, generations, Direction.BACKWARD)


@check("prop4.anti_stationary", 1e-9,
       "isodynamic points stay put along the backward chain")
def _check_anti_stationary(ctx: _Context) -> Samples:
    root, *chain = _backward_chain(8)
    for s in chain:
        yield s.X15.dist(root.X15), s.X16.dist(root.X16)


def _anti_axis_series(generations: int) -> tuple[list[float], list[float]]:
    root, *chain = _backward_chain(generations)
    span = root.beltrami_P2.dist(root.beltrami_U2)
    majors = [abs(2.0 * s.inellipse.semi_major - span) for s in chain]
    return majors, [s.inellipse.semi_minor for s in chain]


def _falls_to_limit(series: list[float]) -> Iterator[tuple[float, ...]]:
    """Verdicts of a walked series that must fall strictly to its last value."""
    rises = [b >= a for a, b in zip(series, series[1:])]
    return _walk_verdicts([False, *rises], series[-1])


@check("prop4.major_axis_limit", 1e-6,
       "backward inellipse major axes widen monotonically to the Beltrami span")
def _check_major_axis_limit(ctx: _Context) -> Samples:
    yield from _falls_to_limit(_anti_axis_series(12)[0])


@check("prop4.minor_axis_limit", 1e-3,
       "backward inellipse minor axes flatten monotonically to zero")
def _check_minor_axis_limit(ctx: _Context) -> Samples:
    yield from _falls_to_limit(_anti_axis_series(12)[1])


# ---------------------------------------------------------------------------
# the isosceles chart


@check("lem9.chart_roundtrip", 1e-12,
       "the isosceles chart and the parameter chart invert each other")
def _check_chart_roundtrip(ctx: _Context) -> Samples:
    for _ in range(ctx.quarter):
        params = _random_member_params(ctx.rng)
        back = Ru_from_dh(dh_from_Ru(params))
        iso = _random_chart_params(ctx.rng)
        iso_back = dh_from_Ru(Ru_from_dh(iso))
        yield (
            abs(back.R - params.R) / params.R,
            abs(back.u - params.u) / params.u,
            abs(iso_back.d - iso.d) / iso.d,
            abs(iso_back.h - iso.h) / iso.h,
        )


def conic_to_ellipse(
    coeffs: tuple[float, float, float, float, float, float]
) -> AxisAlignedEllipse:
    """Axis-aligned ellipse of an implicit conic with no cross term."""
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
        return AxisAlignedEllipse(Point(cx, cy), ax, ay, MajorAxis.HORIZONTAL)
    return AxisAlignedEllipse(Point(cx, cy), ay, ax, MajorAxis.VERTICAL)


@check("prop11.conic_match", 1e-10,
       "the implicit conic of the isosceles chart is the scene inellipse")
def _check_conic_match(ctx: _Context) -> Samples:
    for _ in range(ctx.quarter):
        iso = _random_chart_params(ctx.rng)
        _, _, coeffs = isosceles_scene(iso)
        from_conic = conic_to_ellipse(coeffs)
        scene = scene_from_Ru(Ru_from_dh(iso))
        yield (
            from_conic.center.dist(scene.inellipse.center),
            abs(from_conic.semi_major - scene.inellipse.semi_major),
            abs(from_conic.semi_minor - scene.inellipse.semi_minor),
        )


def ellipse_foci(e: AxisAlignedEllipse) -> tuple[Point, Point]:
    c = math.sqrt(max(0.0, (e.semi_major - e.semi_minor) * (e.semi_major + e.semi_minor)))
    if e.major_axis is MajorAxis.HORIZONTAL:
        off = Point(c, 0.0)
    else:
        off = Point(0.0, c)
    return (e.center - off, e.center + off)


@check("prop12.foci_printed", 1e-11,
       "the chart's rational focus formulas land on the inellipse foci")
def _check_printed_foci(ctx: _Context) -> Samples:
    for _ in range(ctx.quarter):
        iso = _random_chart_params(ctx.rng)
        d, h = iso.d, iso.h
        scene = scene_from_Ru(Ru_from_dh(iso))
        d2, h2 = d * d, h * h
        denom = 9.0 * d2 + h2
        fx = d * (3.0 * d2 - h2) / denom
        fy = (9.0 * d2 * d2 - h2 * h2) / (2.0 * h * denom)
        printed = {(-fx, fy), (fx, fy)}
        yield [
            min(math.hypot(p.x - px, p.y - py) for px, py in printed)
            for p in ellipse_foci(scene.inellipse)
        ]


@check("prop12.axes_composed", 1e-11,
       "the chart's composed semi-axis formulas match the scene")
def _check_composed_axes(ctx: _Context) -> Samples:
    for _ in range(ctx.quarter):
        d = ctx.rng.uniform(0.5, 2.0)
        h = d * ctx.rng.uniform(0.4, 4.0)
        iso = IsoscelesParams(d, h)
        scene = scene_from_Ru(Ru_from_dh(iso))
        denom = 9.0 * d * d + h * h
        a = d * math.sqrt(iso.zeta) / math.sqrt(denom)
        b = 4.0 * d * d * h / denom
        yield (
            abs(scene.inellipse.semi_major - a),
            abs(scene.inellipse.semi_minor - b),
        )


@check("eq2.apex_recovery", 1e-10,
       "the member at the top parameter is the isosceles triangle itself")
def _check_apex_recovery(ctx: _Context) -> Samples:
    for _ in range(ctx.quarter):
        d = ctx.rng.uniform(0.5, 2.0)
        h = d * ctx.rng.uniform(0.4, 4.0)
        iso = IsoscelesParams(d, h)
        tri, _, _ = isosceles_scene(iso)
        at_top = vertices_at(iso, 0.5 * math.pi)
        yield [min(v.dist(w) for w in tri.vertices) for v in at_top.vertices]


# ---------------------------------------------------------------------------
# the continuous family


def _t_grid(n: int, lo: float = 0.05, hi: float = T_MAX - 0.02) -> list[float]:
    return [lo + (hi - lo) * k / (n - 1) for k in range(n)]


@check("thm4.isodynamic_fixed", 1e-10,
       "every family member keeps the isodynamic points at plus and minus root3/2")
def _check_isodynamic_fixed(ctx: _Context) -> Samples:
    for t in _t_grid(ctx.quarter):
        scene = bt_scene(t)
        yield (
            scene.X15.dist(Point(0.0, -SQRT3 / 2.0)),
            scene.X16.dist(Point(0.0, SQRT3 / 2.0)),
        )


@check("thm4.member_t0", 1e-10,
       "the cotangent-2 member carries its exact catalog of values")
def _check_member_t0(ctx: _Context) -> Samples:
    member = bt_scene(T_CRITICAL)
    f1, f2 = ellipse_foci(member.inellipse)
    eccentricity = math.sqrt(max(0.0, 2.0 * math.cos(T_CRITICAL) - 1.0))
    yield (
        abs(member.params.u - 2.0),
        abs(member.circumcircle.radius - 0.5),
        member.X3.dist(Point(0.0, -1.0)),
        abs(member.inellipse.semi_major - math.sqrt(5.0) / 10.0),
        abs(member.inellipse.semi_minor - 0.2),
        member.inellipse.center.dist(Point(0.0, -0.8)),
        member.brocard_circle.center.dist(Point(0.0, -0.875)),
        abs(member.brocard_circle.radius - 0.125),
        abs(eccentricity - math.sqrt(0.2)),
        f1.dist(Point(-0.1, -0.8)),
        f2.dist(Point(0.1, -0.8)),
    )


@check("thm4.circle_formulas", 1e-10,
       "the family's Brocard circles match their closed-form center and radius")
def _check_circle_formulas(ctx: _Context) -> Samples:
    for t in _t_grid(ctx.quarter):
        scene = bt_scene(t)
        k = brocard_circle_Kt(t)
        yield (
            scene.brocard_circle.center.dist(k.center),
            abs(scene.brocard_circle.radius - k.radius),
        )


@check("thm4.special_u", 1e-12,
       "two special family parameters give their known cotangents")
def _check_special_u(ctx: _Context) -> Samples:
    yield (abs(u_from_t(math.atan2(4.0, 5.0)) - (5.0 + math.sqrt(41.0)) / 4.0),)
    yield abs(u_from_t(T_CRITICAL) - 2.0), abs(t_from_u(2.0) - T_CRITICAL)


@check("thm5.embed_consistency", 1e-8,
       "the discrete step moves family members to the predicted later member")
def _check_embed_consistency(ctx: _Context) -> Samples:
    n = 12
    for k in range(n):
        t = 0.15 + (T_MAX - 0.25) * k / (n - 1)
        _, tri = _random_member(ctx.rng, bt_scene(t))
        sub = second_brocard_triangle(tri)
        target = bt_scene(embed_step(t))
        cc = circumcircle(sub)
        yield (
            abs(cc.radius - target.circumcircle.radius),
            cc.center.dist(target.X3),
            abs(brocard_cotangent(sub) - target.params.u),
        )


@check("thm5.cot_rational", 1e-11,
       "the stepped parameter's cotangent equals its rational trigonometric form")
def _check_cot_rational(ctx: _Context) -> Samples:
    for t in _t_grid(ctx.quarter, lo=0.1):
        c, s = math.cos(t), math.sin(t)
        rational = (4.0 - 4.0 * c + math.cos(2.0 * t)) / (
            4.0 * s - math.sin(2.0 * t)
        )
        stepped = embed_step(t)
        yield (abs(math.cos(stepped) / math.sin(stepped) - rational),)


@check("prop8.envelope_membership", 1e-10,
       "envelope contact points lie on the member ellipse and the fixed envelope")
def _check_envelope_membership(ctx: _Context) -> Samples:
    for t in _t_grid(100, hi=T_CRITICAL):
        yield (envelope_residual(t),)


@check("prop8.focal_sum", 1e-12,
       "envelope points see the isodynamic points as ellipse foci")
def _check_envelope_focal_sum(ctx: _Context) -> Samples:
    top = Point(0.0, SQRT3 / 2.0)
    bottom = Point(0.0, -SQRT3 / 2.0)
    for t in _t_grid(50, hi=T_CRITICAL):
        yield [abs(p.dist(top) + p.dist(bottom) - 2.0) for p in envelope_points(t)]


@check("prop8.degenerate_endpoint", 1e-12,
       "the envelope contact degenerates to the bottom vertex at the critical parameter")
def _check_envelope_endpoint(ctx: _Context) -> Samples:
    bottom = Point(0.0, -1.0)
    yield [p.dist(bottom) for p in envelope_points(T_CRITICAL)]


def nesting_residual(t_small_circle: float, t_big_circle: float) -> float:
    """Slack of the Brocard circle at the later parameter inside the earlier.

    Pre: 0 < t_big_circle < t_small_circle <= pi/3.  Nonnegative up to
    rounding exactly when K at the later parameter nests inside K at the
    earlier one.
    """
    if not 0.0 < t_big_circle < t_small_circle <= T_MAX:
        raise GeometryError("t outside range")
    inner = brocard_circle_Kt(t_small_circle) if t_small_circle < T_MAX else None
    if inner is None:
        # K at pi/3 is the point X15.
        inner = Circle(Point(0.0, -SQRT3 / 2.0), 0.0)
    outer = brocard_circle_Kt(t_big_circle)
    return outer.radius - (inner.center.dist(outer.center) + inner.radius)


@check("cor11.brocard_nesting", 1e-12,
       "family Brocard circles nest monotonically in the parameter")
def _check_k_nesting(ctx: _Context) -> Samples:
    for _ in range(200):
        v = ctx.rng.uniform(0.02, T_MAX - 0.02)
        s = ctx.rng.uniform(v + 0.01, T_MAX)
        yield (-nesting_residual(s, v),)


@check("cor11.gamma_nesting", 1e-12,
       "family circumcircles nest monotonically in the parameter")
def _check_gamma_nesting(ctx: _Context) -> Samples:
    for _ in range(200):
        v = ctx.rng.uniform(0.02, T_MAX - 0.03)
        s = ctx.rng.uniform(v + 0.01, T_MAX - 0.01)
        yield (-gamma_nesting_residual(s, v),)


@check("cor12.semi_minor_max", 1e-8,
       "the semi-minor axis peaks at one quarter, at cosine three quarters")
def _check_semi_minor_max(ctx: _Context) -> Samples:
    ex = family_extrema()
    yield (
        abs(ex.t_semi_minor_max - math.acos(0.75)),
        abs(ex.semi_minor_max - 0.25),
    )


@check("cor13.lower_vertex", 1e-8,
       "the lower ellipse vertex bottoms out at (0, -1)")
def _check_lower_vertex(ctx: _Context) -> Samples:
    ex = family_extrema()
    yield (
        abs(ex.t_lower_vertex_min - T_CRITICAL),
        ex.lower_vertex_min.dist(Point(0.0, -1.0)),
    )


@check("prop10.profile", 1e-6,
       "semi-major decreasing and concave, semi-minor concave, eccentricity decreasing")
def _check_family_profile(ctx: _Context) -> Samples:
    grid = _t_grid(max(40, ctx.samples // 2), lo=0.04, hi=T_MAX - 0.04)
    a = [ellipse_Et(t).semi_major for t in grid]
    b = [ellipse_Et(t).semi_minor for t in grid]
    ecc = [math.sqrt(max(0.0, 2.0 * math.cos(t) - 1.0)) for t in grid]
    for k in range(len(grid)):
        # the step into grid point k, and the curvature at k
        steps = (a[k] - a[k - 1], ecc[k] - ecc[k - 1]) if k > 0 else ()
        bends = (
            (s[k + 1] - 2.0 * s[k] + s[k - 1] for s in (a, b))
            if 0 < k < len(grid) - 1 else ()
        )
        yield (*steps, *bends)


@check("prop7.intersection_products", 1e-9,
       "Brocard and Beltrami circles meet at right angles at their four known points")
def _check_web_points(ctx: _Context) -> Samples:
    n = 10
    for k in range(n):
        web = web_orthogonality_residuals(0.1 + (T_MAX - 0.16) * k / (n - 1))
        yield (*(abs(v) for v in web.point_inner_products), web.point_membership_max)


def _web_samples(ctx: _Context) -> int:
    return min(128, max(32, ctx.samples // 2))


@check("rem9.quartic_orthogonality", 1e-7,
       "the two direction fields cross at right angles exactly on the quartic locus")
def _check_quartic_orthogonality(ctx: _Context) -> Samples:
    web = web_orthogonality_residuals(0.9, samples=_web_samples(ctx))
    for x, y in ((0.0, -SQRT3 / 2.0), (0.0, SQRT3 / 2.0), (0.5, 0.0), (-0.5, 0.0)):
        on_quartic = abs(16.0 * x ** 4 + 8.0 * x * x + 4.0 * y * y - 3.0)
        yield web.quartic_angle_max_dev, on_quartic


@check("rem8.axis_parallel", 1e-7,
       "the two direction fields run parallel on both coordinate axes")
def _check_axis_parallel(ctx: _Context) -> Samples:
    web = web_orthogonality_residuals(0.7, samples=_web_samples(ctx))
    yield (web.axis_parallel_max_dev,)


def beltrami_midpoint_check(t: float) -> float:
    """Distance from the circumcircle inverse of X6 to the Beltrami midpoint.

    Both should be the origin for every member of the family.
    """
    scene = bt_scene(t)
    image = invert_in_circle(scene.circumcircle, scene.X6)
    return image.dist(midpoint(scene.beltrami_P2, scene.beltrami_U2))


@check("rem5.inversion_midpoint", 1e-9,
       "inverting the symmedian point in the circumcircle gives the Beltrami midpoint")
def _check_inversion_midpoint(ctx: _Context) -> Samples:
    n = 100
    for k in range(n):
        yield (beltrami_midpoint_check(0.02 + (T_MAX - 0.03) * k / (n - 1)),)


@check("rem3.foci_arcs", 1e-12,
       "the moving inellipse foci ride two fixed unit circles")
def _check_foci_arcs(ctx: _Context) -> Samples:
    for t in _t_grid(100, lo=0.01, hi=T_MAX):
        yield foci_on_arcs_check(t)


@check("rem4.similarity", 1e-9,
       "one fixed similarity carries any canonical porism onto its family member")
def _check_similarity(ctx: _Context) -> Samples:
    for _ in range(ctx.quarter):
        params = _random_member_params(ctx.rng)
        canonical = scene_from_Ru(params)
        R, u, g = params.R, params.u, params.gap
        sigma = Pose(
            translation=Point(0.0, -0.5 * u),
            rotation=math.pi,
            reflect_x=True,
            scale=g / (2.0 * R),
        )
        target = bt_scene(t_from_u(u))
        mapped_ellipse = sigma.apply_ellipse(canonical.inellipse)
        mapped_gamma = sigma.apply_circle(canonical.circumcircle)
        mapped_k = sigma.apply_circle(canonical.brocard_circle)
        yield (
            sigma.apply(canonical.X15).dist(target.X15),
            sigma.apply(canonical.X16).dist(target.X16),
            sigma.apply(canonical.X3).dist(target.X3),
            mapped_ellipse.center.dist(target.inellipse.center),
            abs(mapped_ellipse.semi_major - target.inellipse.semi_major),
            abs(mapped_ellipse.semi_minor - target.inellipse.semi_minor),
            mapped_gamma.center.dist(target.circumcircle.center),
            abs(mapped_gamma.radius - target.circumcircle.radius),
            mapped_k.center.dist(target.brocard_circle.center),
            abs(mapped_k.radius - target.brocard_circle.radius),
        )


@check("prop9.kt_intersections", 1e-9,
       "the Brocard circle meets the inellipse exactly at the envelope points")
def _check_kt_intersections(ctx: _Context) -> Samples:
    for t in _t_grid(40, hi=T_CRITICAL):
        yield (kt_inellipse_intersection_check(t),)
    bottom = Point(0.0, -1.0)
    yield (
        brocard_circle_Kt(T_CRITICAL).membership_residual(bottom),
        ellipse_Et(T_CRITICAL).implicit_residual(bottom),
    )


# ---------------------------------------------------------------------------
# runner


def check_ids() -> tuple[str, ...]:
    return tuple(_REGISTRY)


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
    is free; results do not depend on which process runs a check.
    While the call runs, ``step`` is ``step_forward`` in every ``brocard``
    module that binds that name, a process-wide patch that every worker
    inherits; each module gets its own binding back when the call returns
    or raises.  Patches made before the call hold in every worker, but a
    body's side effects stay in the worker that ran it.  Reports come back
    sorted by check id regardless of execution order.  A check passes only
    if it ran at least one sample and its residual is within its tolerance;
    a NaN residual never passes.  A check that raises is reported with an
    infinite residual and zero samples, and so is each
    check that a dying worker had taken.  Raises
    :class:`UnknownCheckFilterError` when the filter matches no id.
    """
    selected = [
        i for i in _REGISTRY if filter_prefix is None or i.startswith(filter_prefix)
    ]
    if not selected:
        raise UnknownCheckFilterError(filter_prefix)

    def row(check_id: str, run: bool = True) -> tuple:
        claim, tol, fn = _REGISTRY[check_id]
        # zero samples, which fails at any tolerance: the check raised, or
        # its worker was lost before it reported
        residual, used = math.inf, 0
        if run:
            ctx = _Context(random.Random(f"{seed}:{check_id}"), max(1, samples))
            try:
                per_sample = [worst(group) for group in fn(ctx)]
                residual, used = worst(per_sample), len(per_sample)
            except Exception:
                pass
        return check_id, claim, residual, tol, used > 0 and residual <= tol, used

    bound = {m: m.step_forward for name, m in list(sys.modules.items())
             if name.startswith("brocard.") and "step_forward" in vars(m)}
    try:
        for m in bound:
            m.step_forward = step
        # rows are plain tuples, so a worker's rows cross a pipe as one blob
        rows = split(selected, row, lambda check_id: row(check_id, run=False))
    finally:
        for m, original in bound.items():
            m.step_forward = original
    reports = [CheckReport(*r) for r in rows]
    reports.sort(key=lambda r: r.check_id)
    return reports
