import inspect
import math
import os
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
from brocard.geom import Point, worst
from brocard.porism import DegeneratePorismError, IsoscelesParams, PorismParams, PorismScene

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


def test_raised_check_fails_at_infinite_tolerance(monkeypatch):
    # under the mutated step this body raises
    _, _, body = checks._REGISTRY["thm1.child_circumcircle"]
    monkeypatch.setitem(checks._REGISTRY, "zz.raised", ("raises", math.inf, body))
    (report,) = run_checks(
        samples=20, filter_prefix="zz.", step=MUTATIONS["flip-step-sign"]
    )
    assert report.tolerance == math.inf
    assert report.samples_used == 0
    assert not report.passed


def test_zero_samples_fail_at_infinite_tolerance(monkeypatch):
    monkeypatch.setitem(
        checks._REGISTRY, "zz.empty", ("samples nothing", math.inf, lambda ctx: iter(()))
    )
    (report,) = run_checks(filter_prefix="zz.")
    assert report.max_residual == 0.0
    assert not report.passed


def test_verify_says_why_a_row_failed(monkeypatch, capsys):
    monkeypatch.setitem(
        checks._REGISTRY, "zz.empty", ("samples nothing", math.inf, lambda ctx: iter(()))
    )
    monkeypatch.setitem(
        checks._REGISTRY, "zz.over", ("too far", 1.0, lambda ctx: iter([(2.0,)]))
    )
    assert cli.main(["verify", "--filter", "zz."]) == 1
    assert capsys.readouterr().err.splitlines() == [
        "FAIL zz.empty: no sample completed (raised, lost or empty)",
        "FAIL zz.over: residual 2.0 exceeds 1.0",
    ]


def test_every_tolerance_is_a_finite_positive_float():
    # each check owns its tolerance; nothing at run time substitutes one
    for check_id, (_, tol, _) in checks._REGISTRY.items():
        assert isinstance(tol, float) and 0.0 < tol < math.inf, check_id


def test_check_ids_are_declared_once():
    with pytest.raises(ValueError):
        checks.check("geom.inversion_involution", 1.0, "a second declaration")(
            lambda ctx: (0.0, 1)
        )
    assert len(checks.check_ids()) == 61


def _run_one(monkeypatch, fn, samples=20):
    monkeypatch.setitem(checks._REGISTRY, "zz.one", ("a test check", math.inf, fn))
    (report,) = run_checks(samples=samples, filter_prefix="zz.")
    return report


def test_samples_used_counts_the_yielded_groups(monkeypatch):
    def three_groups(ctx):
        yield (0.25, 0.5)
        yield ()
        yield [0.125]

    report = _run_one(monkeypatch, three_groups)
    assert (report.max_residual, report.samples_used, report.passed) == (0.5, 3, True)
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
        "prop10.profile": 100,
        "geom.circumcircle_cyclic": 50,
    }
    reports = {r.check_id: r for r in run_checks(samples=200, seed=0)}
    for check_id, n in expected.items():
        assert reports[check_id].samples_used == n, check_id


def test_check_raising_after_samples_reports_none(monkeypatch):
    def raises_late(ctx):
        yield (0.0,)
        yield (0.0,)
        raise DegeneratePorismError("late failure")

    report = _run_one(monkeypatch, raises_late)
    assert report.max_residual == math.inf
    assert report.samples_used == 0
    assert not report.passed


def test_nan_in_the_last_sample_fails(monkeypatch):
    def nan_last(ctx):
        for _ in range(ctx.samples - 1):
            yield (0.0, 1.0)
        yield (0.0, math.nan)

    report = _run_one(monkeypatch, nan_last)
    assert math.isnan(report.max_residual)
    assert report.samples_used == 20
    assert not report.passed


def test_check_returning_residual_and_count_fails(monkeypatch):
    report = _run_one(monkeypatch, lambda ctx: (0.0, 5))
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


@pytest.mark.parametrize(
    "kwargs",
    [
        {},
        {"step": MUTATIONS["flip-step-sign"]},
        {"filter_prefix": "thm1."},
    ],
    ids=["all", "flip-step-sign", "thm1"],
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


# With two CPUs and the four checks zz.0 .. zz.3, the caller runs its
# share zz.0 and zz.3, and the children pull zz.1 and then zz.2: one
# child starts at once and a second when the caller's share is done.


def _four_checks(monkeypatch, actions):
    """zz.0 .. zz.3 on two CPUs: zz.k runs ``actions[k]()``, if given, in
    whichever process runs it, and then passes with 0.25."""

    def body(action):
        def run(ctx):
            action()
            yield (0.25,)

        return run

    for k in range(4):
        fn = body(actions.get(k, lambda: None))
        monkeypatch.setitem(checks._REGISTRY, f"zz.{k}", ("a test check", math.inf, fn))
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
    return [(r.check_id, r.max_residual, r.samples_used, r.passed) for r in reports]


def _expected(failed):
    return [
        (i, math.inf, 0, False) if i in failed else (i, 0.25, 1, True)
        for i in ("zz.0", "zz.1", "zz.2", "zz.3")
    ]


def test_a_lost_worker_fails_its_checks(monkeypatch, started):
    read, write = started

    def exit_once_zz2_is_taken():
        if select.select([read], [], [], 30.0)[0]:
            os._exit(3)

    _four_checks(
        monkeypatch,
        {1: _in_a_child(exit_once_zz2_is_taken), 2: lambda: os.write(write, b"2")},
    )
    reports = run_checks(filter_prefix="zz.")
    _assert_no_child_left()
    # the child holding zz.1 dies once the other child has taken zz.2:
    # only zz.1 is lost, and every other check keeps its real row
    assert _rows(reports) == _expected({"zz.1"})


def test_a_check_raising_in_a_child_is_reported_as_raised(monkeypatch):
    _four_checks(monkeypatch, {1: _in_a_child(_raise)})
    reports = run_checks(filter_prefix="zz.")
    _assert_no_child_left()
    assert _rows(reports) == _expected({"zz.1"})


def test_verify_reports_a_lost_worker_as_failures(monkeypatch, capsys, started):
    read, write = started

    def exit_on_zz2():
        os.write(write, b"2")
        os._exit(3)

    # the caller waits in zz.0, so the second child cannot start, until
    # the first child, having finished zz.1, has taken zz.2 and died
    _four_checks(monkeypatch, {0: lambda: _wait(read), 2: _in_a_child(exit_on_zz2)})
    assert cli.main(["verify", "--filter", "zz."]) == 1
    _assert_no_child_left()
    out, err = capsys.readouterr()
    assert len(out.splitlines()) == 4
    # the finished zz.1 is lost with the child that took it
    assert err.splitlines() == [
        "FAIL zz.1: no sample completed (raised, lost or empty)",
        "FAIL zz.2: no sample completed (raised, lost or empty)",
    ]


def test_a_threaded_process_is_never_forked(monkeypatch):
    _four_checks(monkeypatch, {1: _in_a_child(_exit_3)})
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait)
    thread.start()
    try:
        reports = run_checks(filter_prefix="zz.")
    finally:
        stop.set()
        thread.join()
    assert all(r.passed for r in reports)
