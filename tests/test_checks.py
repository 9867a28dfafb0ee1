import inspect
import math
import os
import random
import select
import signal
import threading

import pytest

from brocard import checks, cli, continuous, recurrence
from brocard.checks import (
    MUTATIONS,
    CheckReport,
    UnknownCheckFilterError,
    check_ids,
    run_checks,
)
from brocard.figures import render_figure
from brocard.geom import Point, line_direction, worst
from brocard.porism import (
    DegeneratePorismError,
    IsoscelesParams,
    ParametrizationSingularityError,
    PorismParams,
    PorismScene,
    scene_from_Ru,
)

# groups that the registry is expected to carry; each check id is
# "<group>.<name>" and selection works by string prefix
GROUPS = (
    "geom.",
    "def1.",
    "closure.",
    "thm1.",
    "thm2.",
    "thm3.",
    "thm4.",
    "thm5.",
    "prop14.",
    "prop4.",
    "fixture.",
)


def test_full_registry_passes():
    reports = run_checks(samples=60, seed=3)
    assert len(reports) == len(check_ids())
    for r in reports:
        assert isinstance(r, CheckReport)
        assert r.passed, (r.check_id, r.max_residual, r.tolerance)
        assert r.max_residual <= r.tolerance
        assert r.samples_used > 0
        assert math.isfinite(r.max_residual)


def test_reports_sorted_and_unique():
    reports = run_checks(samples=20, seed=0)
    ids = [r.check_id for r in reports]
    assert ids == sorted(ids)
    assert len(ids) == len(set(ids))
    for g in GROUPS:
        assert any(i.startswith(g) for i in ids), g


def test_passed_flag_consistent():
    for r in run_checks(samples=25, seed=5):
        assert r.passed == (r.max_residual <= r.tolerance)
        assert r.tolerance > 0.0
        assert r.claim


def test_filtering_by_prefix():
    sub = run_checks(samples=20, seed=0, filter_prefix="geom.")
    assert 0 < len(sub) < 10
    assert all(r.check_id.startswith("geom.") for r in sub)
    one = run_checks(samples=20, seed=0, filter_prefix="fixture.scene")
    assert len(one) == 1


def test_unknown_filter_raises():
    with pytest.raises(UnknownCheckFilterError):
        run_checks(samples=10, filter_prefix="nosuchgroup.")


def test_seed_determinism():
    a = run_checks(samples=30, seed=11)
    b = run_checks(samples=30, seed=11)
    assert [(r.check_id, r.max_residual) for r in a] == [
        (r.check_id, r.max_residual) for r in b
    ]
    c = run_checks(samples=30, seed=12)
    diffs = sum(
        1
        for x, y in zip(a, c)
        if x.max_residual != y.max_residual and x.samples_used > 1
    )
    assert diffs > 5  # different seed really does resample


def test_mutation_breaks_the_recurrence_groups():
    step = MUTATIONS["flip-step-sign"]
    # the broken step drives u below its floor immediately
    with pytest.raises(DegeneratePorismError):
        step(PorismParams(1.25, 1.75))
    reports = run_checks(samples=20, seed=0, step=step)
    failed = {r.check_id for r in reports if not r.passed}
    assert any(i.startswith("thm1.") for i in failed)
    assert any(i.startswith("prop14.") for i in failed)
    # checks that never touch the step stay green
    for r in reports:
        if r.check_id.startswith(("geom.", "fixture.", "def1.")):
            assert r.passed, r.check_id
    # a failed run reports the blow-up as an infinite residual
    for r in reports:
        if not r.passed:
            assert r.max_residual == math.inf
            assert r.samples_used == 0


def test_mutated_run_flags_at_least_the_known_groups():
    reports = run_checks(samples=15, seed=1, step=MUTATIONS["flip-step-sign"])
    failed = {r.check_id for r in reports if not r.passed}
    for want in (
        "thm1.two_route",
        "thm1.child_circumcircle",
        "prop14.forward_convergence",
        "prop14.roundtrip",
        "thm2.monotone",
        "prop4.anti_roundtrip_params",
        "prop4.anti_roundtrip_points",
        "thm2.nesting",
        "thm3.concyclicity",
        "thm3.limit_point",
        "prop6.orthogonality",
    ):
        assert want in failed


# what each mutant fails at samples=200, seed=0: flip-step-sign by raises
# alone, the nudges by residual alone
MUTANT_KILLS = {
    "flip-step-sign": {
        "prop14.fixed_point", "prop14.forward_convergence", "prop14.roundtrip",
        "prop4.anti_roundtrip_params", "prop4.anti_roundtrip_points", "prop6.orthogonality",
        "thm1.child_circumcircle", "thm1.cor9_axes", "thm1.two_route", "thm1.x182_formula",
        "thm2.monotone", "thm2.nesting", "thm3.concyclicity", "thm3.limit_point",
    },
    "nudge-step-R": {
        "prop14.roundtrip", "prop4.anti_roundtrip_params", "prop4.anti_roundtrip_points",
        "prop6.orthogonality", "thm1.child_circumcircle", "thm1.cor9_axes",
    },
    "nudge-step-excess": {
        "prop14.roundtrip", "prop4.anti_roundtrip_params", "prop4.anti_roundtrip_points",
        "thm1.cor9_axes", "thm1.x182_formula",
    },
}


@pytest.mark.parametrize("name", sorted(MUTATIONS))
def test_every_mutant_but_the_raising_one_fails_by_residual(name):
    assert set(MUTATIONS) == set(MUTANT_KILLS)
    failed = [r for r in run_checks(samples=200, seed=0, step=MUTATIONS[name]) if not r.passed]
    assert {r.check_id for r in failed} == MUTANT_KILLS[name]
    if name == "flip-step-sign":
        assert all(r.samples_used == 0 for r in failed)
    else:
        # a residual killed it: every failing row completed its samples
        assert all(r.samples_used > 0 and math.isfinite(r.max_residual) for r in failed)
        # the step raises nothing and lands about 1e-9 off the true one
        true = recurrence.step_forward(PorismParams(1.25, 1.75))
        nudged = MUTATIONS[name](PorismParams(1.25, 1.75))
        assert nudged != true
        assert abs(nudged.R - true.R) <= 2e-9 * true.R
        assert abs(nudged.u_excess - true.u_excess) <= 2e-9 * true.u_excess


def test_the_mutant_step_is_unpatched_after_the_run(monkeypatch):
    real = recurrence.step_forward
    run_checks(samples=5, filter_prefix="thm2.", step=MUTATIONS["flip-step-sign"])
    assert (recurrence.step_forward, checks.step_forward) == (real, real)

    def broken(*args):
        raise RuntimeError("split failed")

    monkeypatch.setattr(checks, "split", broken)
    with pytest.raises(RuntimeError):
        run_checks(samples=5, step=MUTATIONS["flip-step-sign"])
    assert (recurrence.step_forward, checks.step_forward) == (real, real)
    # the walkers read the patched name: child_scene takes no step of its own
    assert list(inspect.signature(recurrence.child_scene).parameters) == ["parent"]


def test_worst_propagates_nan():
    assert worst([]) == 0.0
    assert worst([-1.0, -0.0]) == 0.0
    assert worst([0.5, 2.0, 1.0]) == 2.0
    assert math.isnan(worst([0.5, math.nan, 2.0]))
    assert math.isnan(worst([math.inf, math.nan]))


class _NanOmega1Scene(PorismScene):
    @property
    def omega1(self):
        return Point(math.nan, math.nan)


def test_nan_scene_point_fails_its_checks(monkeypatch):
    real = checks.scene_from_Ru

    def nan_omega1(*args, **kwargs):
        return _NanOmega1Scene(*real(*args, **kwargs))

    monkeypatch.setattr(checks, "scene_from_Ru", nan_omega1)
    reports = {r.check_id: r for r in run_checks(samples=20, seed=0)}
    for check_id in (
        "prop2.closed_form",
        "closure.stationarity",
        "fixture.scene",
        "thm3.concyclicity",
    ):
        assert not reports[check_id].passed, check_id
        assert math.isnan(reports[check_id].max_residual), check_id


def test_a_singular_member_is_drawn_again(monkeypatch):
    scene = scene_from_Ru(PorismParams(1.25, 1.75))
    real = checks.scene_member
    drawn = []

    def singular_once(s, t):
        drawn.append(t)
        if len(drawn) == 1:
            raise ParametrizationSingularityError("parametrization singularity")
        return real(s, t)

    monkeypatch.setattr(checks, "scene_member", singular_once)
    member = checks._random_member(random.Random(7), scene)
    replay = random.Random(7)
    replay.uniform(0.0, 2.0 * math.pi)
    second = replay.uniform(0.0, 2.0 * math.pi)
    assert len(drawn) == 2 and drawn[1] == second
    assert member == real(scene, second)


def test_a_backward_walk_that_stops_short_fails_its_checks(monkeypatch):
    real = recurrence.step_backward
    calls = []

    def three_steps(params):
        calls.append(params)
        if len(calls) > 3:
            raise DegeneratePorismError("degenerate porism")
        return real(params)

    monkeypatch.setattr(recurrence, "step_backward", three_steps)
    for check_id in (
        "prop4.anti_stationary",
        "prop4.major_axis_limit",
        "prop4.minor_axis_limit",
        "prop14.backward_growth",
    ):
        # one check runs in the calling process, which counts its steps
        calls.clear()
        (report,) = run_checks(samples=20, seed=0, filter_prefix=check_id)
        assert len(calls) == 4, check_id
        assert (report.max_residual, report.samples_used) == (math.inf, 0), check_id


def _one_input(rng, samples):
    return (None,)


def _no_input(rng, samples):
    return ()


@pytest.fixture
def declare(monkeypatch):
    """``declare(check_id, body, inputs, tolerance, claim)`` declares a
    check through ``checks.check`` in a copy of the registry, which the
    test's end drops."""
    monkeypatch.setattr(checks, "_REGISTRY", dict(checks._REGISTRY))

    def declare(check_id, body, inputs=_one_input, tolerance=math.inf, claim="a test check"):
        return checks.check(check_id, tolerance, inputs, claim)(body)

    return declare


def test_raised_check_fails_at_infinite_tolerance(declare):
    def steps_the_fixture(_):
        # the mutated step raises on this porism
        return (checks.step_forward(PorismParams(1.25, 1.75)).u,)

    declare("zz.raised", steps_the_fixture, claim="raises")
    assert run_checks(filter_prefix="zz.")[0].passed
    (report,) = run_checks(
        samples=20, filter_prefix="zz.", step=MUTATIONS["flip-step-sign"]
    )
    assert (report.check_id, report.claim, report.tolerance) == ("zz.raised", "raises", math.inf)
    assert report.samples_used == 0
    assert not report.passed


def test_zero_samples_fail_at_infinite_tolerance(declare):
    declare("zz.empty", lambda _: (0.0,), inputs=_no_input, claim="samples nothing")
    (report,) = run_checks(filter_prefix="zz.")
    assert report.max_residual == 0.0
    assert not report.passed


def test_verify_says_why_a_row_failed(declare, capsys):
    declare("zz.empty", lambda _: (0.0,), inputs=_no_input, claim="samples nothing")
    declare("zz.over", lambda _: (2.0,), tolerance=1.0, claim="too far")
    assert cli.main(["verify", "--filter", "zz."]) == 1
    assert capsys.readouterr().err.splitlines() == [
        "FAIL zz.empty: no sample completed (raised, lost or empty)",
        "FAIL zz.over: residual 2.0 exceeds 1.0",
    ]


def test_every_tolerance_is_a_finite_positive_float():
    # each check owns its tolerance; nothing at run time substitutes one
    for r in run_checks(samples=1):
        assert isinstance(r.tolerance, float) and 0.0 < r.tolerance < math.inf, r.check_id


def test_check_ids_are_declared_once(declare):
    with pytest.raises(ValueError):
        declare("geom.inversion_involution", lambda _: (0.0,), claim="a second declaration")
    assert len(checks.check_ids()) == 62


def _run_one(declare, body, inputs=_one_input, samples=20, check_id="zz.one"):
    declare(check_id, body, inputs)
    (report,) = run_checks(samples=samples, filter_prefix=check_id)
    return report


def _residuals(residuals):
    """The body of a test check whose inputs are its residuals."""
    return residuals


def test_samples_used_counts_the_yielded_groups(declare):
    def three_groups(rng, samples):
        return [(0.25, 0.5), (), [0.125]]

    report = _run_one(declare, _residuals, three_groups)
    # an input with no residual is no evidence: the check fails as if it raised
    assert (report.max_residual, report.samples_used, report.passed) == (math.inf, 0, False)

    def two_groups(rng, samples):
        return [(0.25, 0.5), [0.125]]

    report = _run_one(declare, _residuals, two_groups, check_id="zz.two")
    assert (report.max_residual, report.samples_used, report.passed) == (0.5, 2, True)
    # the counts the checks used to state by hand, now counted by the runner
    expected = {
        "thm3.concyclicity": 14,
        "thm3.limit_point": 2,
        "thm4.special_u": 2,
        "rem9.quartic_orthogonality": 4,
        "prop9.kt_intersections": 41,
        "thm2.nesting": 6,
        "prop6.orthogonality": 6,
        "prop14.forward_convergence": 6,
        "prop14.backward_growth": 8,
        "prop4.major_axis_limit": 12,
        "prop4.minor_axis_limit": 12,
        "prop10.profile": 99,
        "geom.circumcircle_cyclic": 50,
    }
    reports = {r.check_id: r for r in run_checks(samples=200, seed=0)}
    for check_id, n in expected.items():
        assert reports[check_id].samples_used == n, check_id


def test_check_raising_after_samples_reports_none(declare):
    def raises_on_none(x):
        if x is None:
            raise DegeneratePorismError("late failure")
        return (x,)

    report = _run_one(declare, raises_on_none, lambda rng, samples: (0.0, 0.0, None))
    assert (report.max_residual, report.samples_used, report.passed) == (math.inf, 0, False)


def test_inputs_raising_after_samples_reports_none(declare):
    def raises_late(rng, samples):
        yield 0.0
        yield 0.0
        raise DegeneratePorismError("late failure")

    report = _run_one(declare, lambda x: (x,), raises_late)
    assert (report.max_residual, report.samples_used, report.passed) == (math.inf, 0, False)


def test_nan_in_the_last_sample_fails(declare):
    def nan_last(rng, samples):
        return [*[(0.0, 1.0)] * (samples - 1), (0.0, math.nan)]

    report = _run_one(declare, _residuals, nan_last)
    assert math.isnan(report.max_residual)
    assert report.samples_used == 20
    assert not report.passed


def test_check_returning_a_bare_float_fails(declare):
    # a body returns an iterable of residuals, never one float
    report = _run_one(declare, lambda _: 0.0)
    assert report.max_residual == math.inf
    assert report.samples_used == 0
    assert not report.passed


# Three checks read exactly 0.0 at every seed.  Each test below shows the
# zero is computed: a nearby input, or a perturbed field, moves it.


def _one(prefix):
    (report,) = run_checks(samples=200, seed=0, filter_prefix=prefix)
    return report


def test_concyclicity_zero_comes_from_the_fixture(monkeypatch):
    assert _one("thm3.concyclicity").max_residual == 0.0
    monkeypatch.setattr(checks, "FIXTURE", IsoscelesParams(1.1, 2.7))
    elsewhere = _one("thm3.concyclicity")
    assert 0.0 < elsewhere.max_residual < 1e-14
    assert elsewhere.passed


def test_degenerate_endpoint_zero_comes_from_exact_trig(monkeypatch):
    assert math.cos(checks.T_CRITICAL) == 0.6
    assert math.sin(checks.T_CRITICAL) == 0.8
    assert _one("prop8.degenerate_endpoint").max_residual == 0.0
    # one ulp below, the contacts split off (0, -1) by about 8e-9
    monkeypatch.setattr(checks, "T_CRITICAL", math.nextafter(checks.T_CRITICAL, 0.0))
    below = _one("prop8.degenerate_endpoint")
    assert 1e-9 < below.max_residual < 1e-7
    assert not below.passed


def test_axis_parallel_zero_comes_from_the_field_sweep(monkeypatch):
    assert _one("rem8.axis_parallel").max_residual == 0.0
    real = continuous._circle_field_slope
    continuous._web_field_sweep.cache_clear()
    try:
        with monkeypatch.context() as m:
            m.setattr(continuous, "_circle_field_slope", lambda x, y: real(x, y) + 1e-3)
            skewed = _one("rem8.axis_parallel")
    finally:
        continuous._web_field_sweep.cache_clear()
    assert skewed.max_residual > 1e-4
    assert not skewed.passed
    assert _one("rem8.axis_parallel").max_residual == 0.0


def test_a_slope_field_with_no_real_slope_fails_the_web_checks(monkeypatch):
    # a sweep point without a real slope reads inf; skipped, the sweep
    # would pass on no evidence
    continuous._web_field_sweep.cache_clear()
    try:
        with monkeypatch.context() as m:
            m.setattr(continuous, "_ellipse_field_slopes", lambda x, y: ())
            reports = run_checks(samples=200, seed=0, filter_prefix="rem")
    finally:
        continuous._web_field_sweep.cache_clear()
    failed = {r.check_id: r.max_residual for r in reports if not r.passed}
    assert failed == {"rem8.axis_parallel": math.inf, "rem9.quartic_orthogonality": math.inf}


def test_an_axis_blind_closure_kernel_fails_the_posed_closure_check(monkeypatch):
    # the axis-aligned kernel reads right on canonical scenes, whose
    # inellipse axis is (1, 0); only the posed members can tell
    def axis_blind(scene, tri):
        (ex, ey), a, b, _ = scene.inellipse
        A, B, C = tri
        out = []
        for (px, py), (qx, qy) in ((A, B), (B, C), (C, A)):
            lx, ly = line_direction(qx - px, qy - py)
            offset = -ly * (px - ex) + lx * (py - ey)
            out.append(abs(math.hypot(a * -ly, b * lx) - abs(offset)))
        return tuple(out)

    monkeypatch.setattr(checks, "closure_residuals", axis_blind)
    reports = run_checks(samples=200, seed=0, filter_prefix="closure.")
    failed = {r.check_id: r.max_residual for r in reports if not r.passed}
    assert list(failed) == ["closure.posed_tangency"] and failed["closure.posed_tangency"] > 1e-3


def test_a_sign_slip_in_the_tangency_kernel_fails_the_tangent_check(monkeypatch):
    # at quarter-turn axes the slipped term differs only in sign, which
    # hypot drops; ellipses drawn at any angle tell
    def slipped(e, line):
        (ux, uy), n = e.axis, line.normal()
        offset = n.dot(line.base - e.center)
        support = math.hypot(e.semi_major * (n.x * ux + n.y * uy),
                             e.semi_minor * (n.y * ux + n.x * uy))
        return abs(support - abs(offset))

    monkeypatch.setattr(checks, "ellipse_line_tangency_residual", slipped)
    report = _one("geom.tangent_residual")
    assert report.max_residual > 1e-3 and not report.passed


# The runner spreads the selected checks over the usable CPUs: the caller
# runs a fixed share and forked children pull the rest, each taking the
# next check in registry order when it is free, so which child runs a
# check depends on timing.  A child that dies loses only the checks it
# had taken.


def _cpus(monkeypatch, n):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture
def built_scenes(monkeypatch):
    """Every ``PorismScene`` built while the test runs, on one worker."""
    _cpus(monkeypatch, 1)
    built, new = [], PorismScene.__new__

    def counting(cls, params, pose):
        built.append(new(cls, params, pose))
        return built[-1]

    monkeypatch.setattr(PorismScene, "__new__", counting)
    return built


@pytest.mark.parametrize(
    "run",
    [
        pytest.param(lambda: run_checks(filter_prefix="cor11.gamma_nesting"), id="cor11"),
        pytest.param(lambda: render_figure("fig6"), id="fig6"),
    ],
)
def test_family_circumcircles_build_no_scene(built_scenes, run):
    """The family circumcircles are closed forms, so reading one poses no scene."""
    run()
    assert built_scenes == []
    continuous.bt_scene(0.5)
    assert len(built_scenes) == 1


def test_the_child_axis_gap_builds_no_center_set(monkeypatch):
    """lem10 reads the derived triangle's kept X6, not a ``standard_centers`` set."""
    _cpus(monkeypatch, 1)
    calls, real = [], checks.standard_centers
    monkeypatch.setattr(checks, "standard_centers", lambda tri: calls.append(tri) or real(tri))
    (report,) = run_checks(filter_prefix="lem10.")
    assert report.passed and report.samples_used > 0
    assert calls == []
    run_checks(filter_prefix="lem5.")
    assert calls


@pytest.mark.parametrize(
    "kwargs",
    [
        {},
        *({"step": MUTATIONS[name]} for name in sorted(MUTATIONS)),
        {"filter_prefix": "thm1."},
    ],
    ids=["all", *sorted(MUTATIONS), "thm1"],
)
def test_reports_do_not_depend_on_the_cpu_count(monkeypatch, kwargs):
    runs = []
    for n in (1, 2, 4):
        _cpus(monkeypatch, n)
        runs.append(run_checks(samples=200, seed=0, **kwargs))
        _assert_no_child_left()
    assert runs[0] == runs[1] == runs[2]


@pytest.mark.parametrize("failing", [1, 2], ids=["first", "second"])
def test_a_failed_fork_leaves_fewer_workers(monkeypatch, failing):
    _cpus(monkeypatch, 1)
    one = run_checks(samples=20, seed=0)
    real, forks = os.fork, []

    def refuse_one():
        forks.append(None)
        if len(forks) == failing:
            raise BlockingIOError("fork refused")
        return real()

    _cpus(monkeypatch, 4)
    monkeypatch.setattr(os, "fork", refuse_one)
    assert run_checks(samples=20, seed=0) == one
    _assert_no_child_left()
    assert len(forks) == failing  # no fork is tried after a failed one


def test_a_caller_ignoring_sigchld_gets_its_reports(monkeypatch):
    _cpus(monkeypatch, 2)
    old = signal.signal(signal.SIGCHLD, signal.SIG_IGN)
    try:
        reaped_early = run_checks(samples=20, seed=0, filter_prefix="geom.")
    finally:
        signal.signal(signal.SIGCHLD, old)
    assert reaped_early == run_checks(samples=20, seed=0, filter_prefix="geom.")


def _in_a_child(action):
    """``action`` run in any process but the test's own, where
    ``os._exit`` would end the test run."""
    parent = os.getpid()

    def run():
        if os.getpid() != parent:
            action()

    return run


def _exit_3():
    os._exit(3)


def _raise():
    raise DegeneratePorismError("raised in a child")


_CLAIMS = [(f"claim of zz.{k}", 0.5 + k) for k in range(4)]


# With two CPUs and the four checks zz.0 .. zz.3, the caller runs its
# share zz.0 and zz.3, and the children pull zz.1 and then zz.2: one
# child starts at once and a second when the caller's share is done.


def _four_checks(monkeypatch, declare, actions):
    """zz.0 .. zz.3 on two CPUs: zz.k runs ``actions[k]()``, if given, in
    whichever process runs it, and then passes with 0.25; each has its own
    claim and tolerance, ``_CLAIMS[k]``."""

    def body(action):
        def run(_):
            action()
            return (0.25,)

        return run

    for k in range(4):
        claim, tolerance = _CLAIMS[k]
        declare(f"zz.{k}", body(actions.get(k, lambda: None)), tolerance=tolerance, claim=claim)
    _cpus(monkeypatch, 2)


@pytest.fixture
def started():
    """A pipe: one check writes to it when it starts, another waits."""
    read, write = os.pipe()
    yield read, write
    os.close(read)
    os.close(write)


def _wait(read):
    ready, _, _ = select.select([read], [], [], 30.0)
    assert ready, "the awaited check never started"


def _rows(reports):
    return [
        (r.check_id, r.claim, r.tolerance, r.max_residual, r.samples_used, r.passed)
        for r in reports
    ]


def _expected(failed):
    """The rows of zz.0 .. zz.3, each with its registry claim and
    tolerance, raised or lost or not."""
    rows = []
    for k, (claim, tolerance) in enumerate(_CLAIMS):
        measured = (math.inf, 0, False) if f"zz.{k}" in failed else (0.25, 1, True)
        rows.append((f"zz.{k}", claim, tolerance, *measured))
    return rows


def test_a_lost_worker_fails_its_checks(monkeypatch, declare, started):
    read, write = started

    def exit_once_zz2_is_taken():
        if select.select([read], [], [], 30.0)[0]:
            os._exit(3)

    _four_checks(
        monkeypatch,
        declare,
        {1: _in_a_child(exit_once_zz2_is_taken), 2: lambda: os.write(write, b"2")},
    )
    reports = run_checks(filter_prefix="zz.")
    _assert_no_child_left()
    # the child holding zz.1 dies once the other child has taken zz.2:
    # only zz.1 is lost, and every other check keeps its real row
    assert _rows(reports) == _expected({"zz.1"})


def test_a_check_raising_in_a_child_is_reported_as_raised(monkeypatch, declare):
    _four_checks(monkeypatch, declare, {1: _in_a_child(_raise)})
    reports = run_checks(filter_prefix="zz.")
    _assert_no_child_left()
    assert _rows(reports) == _expected({"zz.1"})


def test_verify_reports_a_lost_worker_as_failures(monkeypatch, declare, capsys, started):
    read, write = started

    def exit_on_zz2():
        os.write(write, b"2")
        os._exit(3)

    # the caller waits in zz.0, so the second child cannot start, until
    # the first child, having finished zz.1, has taken zz.2 and died
    _four_checks(monkeypatch, declare, {0: lambda: _wait(read), 2: _in_a_child(exit_on_zz2)})
    assert cli.main(["verify", "--filter", "zz."]) == 1
    _assert_no_child_left()
    out, err = capsys.readouterr()
    assert len(out.splitlines()) == 4
    # the finished zz.1 is lost with the child that took it
    assert err.splitlines() == [
        "FAIL zz.1: no sample completed (raised, lost or empty)",
        "FAIL zz.2: no sample completed (raised, lost or empty)",
    ]


def test_a_threaded_process_is_never_forked(monkeypatch, declare):
    _four_checks(monkeypatch, declare, {1: _in_a_child(_exit_3)})
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait)
    thread.start()
    try:
        reports = run_checks(filter_prefix="zz.")
    finally:
        stop.set()
        thread.join()
    assert all(r.passed for r in reports)
