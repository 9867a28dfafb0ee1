"""In-process side of the benchmark, run in a fresh interpreter by run.py.

Modes:

- ``run``: closed-loop ``verify_suite`` or ``cascade`` ops until their
  time adds up to ``--seconds``, untraced, with a speed-calibration pass
  after each op and the ``setup_s`` samples spread among them; prints
  the op times, the scaled op times, the set-up samples and the
  validator's verdicts as JSON.
- ``trace``: a fixed op list, once untraced and once traced; writes the
  spans to ``--spans``.
- ``cli SPANS ARGS...``: installs the tracer, then calls
  ``brocard.cli.main(ARGS)`` as ``python -m brocard`` would; writes the
  spans to ``SPANS``.
- ``probe``: per-layer timings that need no tracer (each check id, each
  figure) and the continuous-grid crash count.

``brocard`` is imported before any timing starts, so these workloads
bypass set-up.  The interpreter is expected to find ``brocard`` on its
path (run.py sets ``PYTHONPATH`` to the checkout's ``src``).
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import random
import resource
import statistics
import sys
from time import perf_counter

import brocard.cli
from brocard import centers, checks, continuous, figures, geom, porism, recurrence

import inputs
import validate
from spawns import SetupSampler
from speed import Speed
from tracer import Tracer

FIGURE_NAMES = ("fig2", "fig4", "fig5", "fig6", "fig7")

# Cascade round sizes.
FORWARD_GENERATIONS = 6
BACKWARD_GENERATIONS = 4
MEMBER_GENERATIONS = range(-4, 3)  # members past +2 are nearly equilateral
MEMBERS_PER_GENERATION = 24
FAMILY_SAMPLES = 32

VERIFY_SAMPLES = 200

TRACE_OPS = {"verify_suite": 3, "cascade": 10}


def random_pose(rng: random.Random) -> geom.Pose:
    return geom.Pose(
        translation=geom.Point(rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0)),
        rotation=0.5 * math.pi * rng.randrange(4),
        reflect_x=rng.random() < 0.5,
        scale=rng.uniform(0.5, 2.0),
    )


def _members(scene, count: int, rng: random.Random):
    for _ in range(count):
        while True:
            try:
                yield porism.scene_member(scene, rng.uniform(0.0, 2.0 * math.pi))
                break
            except porism.ParametrizationSingularityError:
                continue


def cascade_round(rng: random.Random, seen: dict[str, str]) -> list[str]:
    """One porism round: posed root, chained scenes, members, family, figures."""
    iso = porism.IsoscelesParams(*inputs.tall_shape(rng))
    root = porism.scene_from_Ru(porism.Ru_from_dh(iso), random_pose(rng))
    chain = {0: root}
    for g in range(1, FORWARD_GENERATIONS + 1):
        try:
            chain[g] = recurrence.child_scene(chain[g - 1])
        except porism.DegeneratePorismError:
            break
    for g in range(-1, -BACKWARD_GENERATIONS - 1, -1):
        chain[g] = recurrence.anti_scene(chain[g + 1])

    reasons = []
    for g in MEMBER_GENERATIONS:
        scene = chain[g]
        R = scene.circumcircle.radius
        child_u = recurrence.step_forward(scene.params).u
        K = scene.brocard_circle
        closure = drift = miss = 0.0
        for tri in _members(scene, MEMBERS_PER_GENERATION, rng):
            closure = max(closure, max(porism.closure_residuals(scene, tri)) / R)
            derived = centers.second_brocard_triangle(tri)
            centers.standard_centers(tri)
            drift = max(drift, abs(centers.brocard_cotangent(derived) - child_u))
            cc = geom.circumcircle(derived)
            miss = max(miss, (cc.center.dist(K.center) + abs(cc.radius - K.radius)) / R)
        for what, value, tol in (
            ("closure/R", closure, validate.CLOSURE_TOL),
            ("derived cotangent drift", drift, validate.COTANGENT_TOL),
            ("derived circumcircle off Brocard circle /R", miss, validate.CIRCLE_TOL),
        ):
            if not value <= tol:
                reasons.append(f"generation {g}: {what} {value!r} > {tol!r}")

    for _ in range(FAMILY_SAMPLES):
        t = rng.uniform(0.05, continuous.T_MAX - 0.05)
        continuous.bt_scene(t)
        web = continuous.web_orthogonality_residuals(t)
        values = (*web.point_inner_products, web.point_membership_max,
                  web.quartic_angle_max_dev, web.axis_parallel_max_dev)
        if not all(math.isfinite(v) for v in values):
            reasons.append(f"t={t!r}: non-finite web residual")

    for name in FIGURE_NAMES:
        takes_iso = figures.FIGURES[name][1]
        svg = figures.render_figure(name, iso if takes_iso else None)
        validate.parse_svg(svg)
        if not takes_iso and seen.setdefault(name, svg) != svg:
            reasons.append(f"{name}: bytes differ between renders")
    return reasons


def verify_pass(rng: random.Random, seen: dict[str, str]) -> list[str]:
    reports = checks.run_checks(samples=VERIFY_SAMPLES, seed=rng.randrange(2**31))
    return validate.check_reports(reports, len(checks.check_ids()))


OPS = {"verify_suite": verify_pass, "cascade": cascade_round}


def run_op(workload: str, seed: int, index: int, seen: dict[str, str]):
    """Run op ``index`` of the workload; returns (seconds, failure reasons)."""
    rng = random.Random(f"{workload}:{seed}:{index}")
    start = perf_counter()
    try:
        reasons = OPS[workload](rng, seen)
    except Exception as exc:  # any raise is a failed op, reported with its type
        reasons = [f"{type(exc).__name__}: {exc}"]
    return perf_counter() - start, reasons


def _ops_report(times: list[float], failures: list[list[str]]) -> dict:
    bad = [r for r in failures if r]
    return {
        "times": times,
        "attempted": len(times),
        "failed": len(bad),
        "reasons": [r for rs in bad[:3] for r in rs[:3]],
    }


def mode_run(args) -> dict:
    seen: dict[str, str] = {}
    speed = Speed()
    setup = SetupSampler(args.seconds)
    times, failures = [], []
    op_time = 0.0
    while op_time < args.seconds:
        setup.due(op_time)
        elapsed, reasons = run_op(args.workload, args.seed, len(times), seen)
        times.append(elapsed)
        failures.append(reasons)
        speed.sample(elapsed)
        op_time += elapsed
    setup.finish()
    report = _ops_report(times, failures)
    report["scaled_times"] = speed.scale(times)
    report["setup_times"] = setup.times
    report["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return report


def mode_trace(args) -> dict:
    n = TRACE_OPS[args.workload]
    seen: dict[str, str] = {}
    plain = [run_op(args.workload, args.seed, i, seen) for i in range(n)]
    tracer = Tracer()
    tracer.install()
    traced = []
    for i in range(n):
        tracer.op = i
        traced.append(run_op(args.workload, args.seed, i, seen))
    tracer.dump(args.spans)
    report = _ops_report(
        [t for t, _ in plain + traced], [r for _, r in plain + traced]
    )
    report["untraced_p50_s"] = statistics.median(t for t, _ in plain)
    report["traced_p50_s"] = statistics.median(t for t, _ in traced)
    return report


def mode_cli(spans: str, argv: list[str]) -> int:
    tracer = Tracer()
    tracer.install()
    try:
        return brocard.cli.main(argv)
    finally:
        tracer.dump(spans)


def _median_time(fn, repeats: int) -> float:
    times = []
    for _ in range(repeats):
        start = perf_counter()
        fn()
        times.append(perf_counter() - start)
    return statistics.median(times)


def continuous_grid_crashes() -> list[int]:
    """Sample counts in 2..400 on which ``brocard continuous`` raises.

    The default grid's last point can land one ulp past pi/3, where the
    Brocard circle gets a negative radius and the command crashes.
    """
    crashes = []
    for n in range(2, 401):
        with contextlib.redirect_stdout(io.StringIO()):
            try:
                brocard.cli.main(["continuous", "--samples", str(n)])
            except geom.GeometryError:
                crashes.append(n)
    return crashes


def mode_probe(args) -> dict:
    metrics = {}
    for check_id in checks.check_ids():
        metrics[f"checks.{check_id}.s"] = _median_time(
            lambda: checks.run_checks(filter_prefix=check_id), 3
        )
    for name in FIGURE_NAMES:
        metrics[f"figures.{name}.s"] = _median_time(
            lambda: figures.render_figure(name), 5
        )
    metrics["cli.continuous.grid_crashes"] = len(continuous_grid_crashes())
    return metrics


def main() -> int:
    if sys.argv[1:2] == ["cli"]:  # worker.py cli SPANS_PATH BROCARD_ARGS...
        return mode_cli(sys.argv[2], sys.argv[3:])
    parser = argparse.ArgumentParser()
    parser.add_argument("mode", choices=("run", "trace", "probe"))
    parser.add_argument("--workload", choices=sorted(OPS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=1.0)
    parser.add_argument("--spans")
    args = parser.parse_args()
    report = {"run": mode_run, "trace": mode_trace, "probe": mode_probe}[args.mode](args)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
