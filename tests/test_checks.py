import math

import pytest

from brocard import checks, continuous
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


def test_tolerance_knobs_are_used():
    tight = run_checks(samples=20, seed=0, tol_scene=1e-30)
    assert any(not r.passed for r in tight)
    default = run_checks(samples=20, seed=0)
    assert any(r.tolerance == 1e-9 for r in default)
    loose = run_checks(samples=20, seed=0, tol_scene=0.5)
    assert any(r.tolerance == 0.5 for r in loose)
    # checks with their own literal tolerance ignore the knob
    assert {r.tolerance for r in loose} - {0.5} == {
        r.tolerance for r in default
    } - {1e-9}


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
    ):
        assert want in failed


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


def test_raised_check_fails_at_infinite_tolerance():
    (report,) = run_checks(
        samples=20,
        tol_scene=math.inf,
        filter_prefix="thm1.child_circumcircle",
        step=MUTATIONS["flip-step-sign"],
    )
    assert report.tolerance == math.inf
    assert report.samples_used == 0
    assert not report.passed


def test_zero_samples_fail_at_infinite_tolerance(monkeypatch):
    monkeypatch.setitem(
        checks._REGISTRY, "zz.empty", ("samples nothing", "scene", lambda ctx: iter(()))
    )
    (report,) = run_checks(tol_scene=math.inf, filter_prefix="zz.")
    assert report.max_residual == 0.0
    assert not report.passed


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
