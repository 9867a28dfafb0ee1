"""The porism-to-porism recurrence.

The second Brocard triangles of a porism's members sweep a new porism
inscribed in the parent's Brocard circle.  In parameters the map is

    R' = R*sqrt(u^2 - 3)/(2u),   u' = (u^2 + 3)/(2u),

with sqrt(3) the unique attracting fixed point of the u map; iterates
converge quadratically, so the step works on the excess u - sqrt(3)
(see :class:`~brocard.porism.PorismParams`).  The child frame sits at
the parent's X182 and is mirrored left-right, which swaps the two
Brocard point labels each generation.  An orbit is the list of posed
scenes that :func:`orbit_scenes` walks with :func:`child_scene` or
:func:`anti_scene`; it is the only code that takes more than one step,
and each orbit measure below takes the walk it measures.  ``MUTATIONS``
names the broken steps that ``brocard verify --mutate`` runs instead.
"""

from __future__ import annotations

from typing import Callable, Iterator, Sequence

from .geom import (
    GeometryError,
    Point,
    Pose,
    circle_nesting_slack,
    circles_orthogonality_residual,
    tuple_new,
    worst,
)
from .porism import PorismParams, PorismScene, scene_from_Ru


StepFunction = Callable[[PorismParams], PorismParams]


def step_forward(params: PorismParams) -> PorismParams:
    """One application of the porism map; fixes u = sqrt(3) with R' = 0."""
    u, e = params.u, params.u_excess
    # u' - sqrt3 = (u - sqrt3)^2 / (2u), an exact rearrangement that never
    # cancels, unlike evaluating (u^2+3)/(2u) - sqrt3 in floats.
    return PorismParams.from_excess(
        params.R * params.gap / (2.0 * u),
        e * e / (2.0 * u),
    )


def step_backward(params: PorismParams) -> PorismParams:
    """The inverse map, on the branch with larger u.

    Of the two preimages u +- sqrt(u^2 - 3) of the u map, the product of
    the pair is 3, so exactly one is >= sqrt(3); that one is u + sqrt(u^2-3),
    and the radius follows from inverting R' = R*sqrt(u^2-3)/(2u).
    """
    if params.u_excess <= 0.0 or params.R <= 0.0:
        raise GeometryError("fixed point has no preimage with larger u")
    g = params.gap
    pre = PorismParams.from_excess(1.0, params.u_excess + g)
    return PorismParams.from_excess(2.0 * pre.u * params.R / pre.gap, pre.u_excess)


def _flip_step_sign(params: PorismParams) -> PorismParams:
    """Deliberately broken porism step for the check suite's self test.

    The cotangent map is computed with its constant term negated,
    (u^2 - 3)/(2u) instead of (u^2 + 3)/(2u), which sends valid
    parameters below the equilateral bound.
    """
    u = params.u
    return PorismParams(params.R * params.gap / (2.0 * u), (u * u - 3.0) / (2.0 * u))


# the true step for the nudged mutants: a run binds the mutant as ``step_forward``
_true_step = step_forward


def _nudged(r: float, e: float) -> StepFunction:
    """Deliberately broken step: the true step's R times ``r`` and its u
    excess times ``e``.  It raises nothing, so only a residual can catch it."""

    def step(params: PorismParams) -> PorismParams:
        child = _true_step(params)
        return PorismParams.from_excess(child.R * r, child.u_excess * e)

    return step


MUTATIONS: dict[str, StepFunction] = {
    "flip-step-sign": _flip_step_sign,
    "nudge-step-R": _nudged(1.0 + 1e-9, 1.0),
    "nudge-step-excess": _nudged(1.0, 1.0 + 1e-9),
}


def _offset(y: float) -> Pose:
    # Mirror x (the Brocard-label swap), then shift by y: the child frame sits
    # at the parent's X182, y = -R of the child, and y = +R undoes that.
    return Pose(translation=tuple_new(Point, (0.0, y)), reflect_x=True)


def child_scene(parent: PorismScene) -> PorismScene:
    """The porism of the parent's second Brocard triangles, posed in its world.

    It steps with this module's ``step_forward``, looked up at each call.
    """
    child = step_forward(parent.params)
    return scene_from_Ru(child, parent.pose.compose(_offset(-child.R)))


def anti_scene(scene: PorismScene) -> PorismScene:
    """The porism whose child is ``scene``, posed so the step is exact."""
    parent = step_backward(scene.params)
    return scene_from_Ru(parent, scene.pose.compose(_offset(scene.params.R)))


def orbit_scenes(
    root: PorismScene,
    n: int,
    step: Callable[[PorismScene], PorismScene] = child_scene,
) -> list[PorismScene]:
    """Scenes of generations 0..n from ``root``, each the ``step`` of the last.

    ``step`` is :func:`child_scene` to walk forward or :func:`anti_scene`
    to walk back.  The walk ends early at the last generation before the
    next step fails in floating point: forward once R or the u excess
    underflows to zero, backward once the inellipse center
    R*u*sqrt(u^2 - 3)/(1 + u^2), cubic in (R, u), or its semi-minor axis
    2R/(1 + u^2) overflows.
    """
    if n < 0:
        raise ValueError("orbit length must be >= 0")
    scenes = [root]
    for _ in range(n):
        try:
            scenes.append(step(scenes[-1]))
        except GeometryError:
            break
    return scenes


def alternating_brocard_sequence(
    scenes: Sequence[PorismScene],
) -> tuple[tuple[Point, ...], tuple[Point, ...]]:
    """World Brocard points of a walk's generations, labels alternating.

    The first list starts at the first scene's first Brocard point and
    takes the second point of the next generation, and so on; along an
    orbit both lists live on the root's two Beltrami circles and converge
    to the world X15.  Each list holds one point per scene of the walk.
    """
    pairs = [
        (s.omega1, s.omega2) if k % 2 == 0 else (s.omega2, s.omega1)
        for k, s in enumerate(scenes)
    ]
    first, second = zip(*pairs)
    return first, second


def brocard_nesting(scenes: Sequence[PorismScene]) -> Iterator[float]:
    """Overshoot of each generation's Brocard circle past its parent's."""
    return (
        -circle_nesting_slack(inner.brocard_circle, outer.brocard_circle)
        for outer, inner in zip(scenes, scenes[1:])
    )


def beltrami_orthogonality(scenes: Sequence[PorismScene]) -> Iterator[float]:
    """Orthogonality defect of the first scene's Beltrami circles against
    each scene's Brocard circle."""
    circles = scenes[0].beltrami_circles()
    return (
        worst(circles_orthogonality_residual(c, s.brocard_circle) for c in circles)
        for s in scenes
    )
