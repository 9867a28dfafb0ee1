"""Tests of the benchmark itself: negative controls and repeatable counts.

Run from the root of a checkout:

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

from __future__ import annotations

import dataclasses
import math

import pytest

from brocard import checks

import inputs
import run
import spawns
import validate
import worker
from tracer import aggregate


@pytest.fixture(scope="module")
def healthy_reports():
    return checks.run_checks(samples=20, seed=0)


def test_healthy_pass_is_accepted(healthy_reports):
    assert validate.check_reports(healthy_reports, len(checks.check_ids())) == []


def test_mutated_step_op_fails():
    reports = checks.run_checks(
        samples=worker.VERIFY_SAMPLES, seed=0, step=checks.MUTATIONS["flip-step-sign"]
    )
    assert validate.check_reports(reports, len(checks.check_ids()))


def test_nan_residual_marked_passed_fails(healthy_reports):
    bad = dataclasses.replace(healthy_reports[0], max_residual=math.nan, passed=True)
    assert validate.check_reports([bad, *healthy_reports[1:]], len(healthy_reports))


def test_raised_check_at_infinite_tolerance_fails(healthy_reports):
    raised = dataclasses.replace(
        healthy_reports[0], max_residual=math.inf, tolerance=math.inf,
        passed=True, samples_used=0,
    )
    assert validate.check_reports([raised, *healthy_reports[1:]], len(healthy_reports))


def test_missing_row_fails(healthy_reports):
    assert validate.check_reports(healthy_reports[1:], len(healthy_reports))


def test_bare_infinity_in_json_lines_fails():
    line = '{"check_id": "a", "max_residual": Infinity, "tolerance": 1e-9, "samples_used": 0}'
    assert validate.check_command(["verify"], 0, line + "\n", "", 1)


def test_cli_op_exiting_one_fails():
    ops = run.CliOps(len(checks.check_ids()))
    ops.run(["verify", "--mutate", "flip-step-sign", "--samples", "20"], run.BROCARD)
    assert ops.failed == 1
    assert any("exit code 1" in r for r in ops.reasons)


def test_cli_traceback_and_changed_figure_bytes_fail():
    ops = run.CliOps(1)
    svg = '<svg xmlns="http://www.w3.org/2000/svg"></svg>'
    ops.judge(["figure", "fig6"], 0, svg, "")
    assert ops.failed == 0
    ops.judge(["figure", "fig6"], 0, svg + "\n", "")
    ops.judge(["orbit"], 0, "a,b\r\n1,2\r\n", "Traceback (most recent call last):")
    assert ops.failed == 2


def test_drawn_continuous_counts_never_crash():
    assert not set(worker.continuous_grid_crashes()) & set(inputs.continuous_counts())


def test_setup_samples_spread_over_run(monkeypatch):
    taken_at, now = [], [0.0]

    def fake_spawn(argv):
        taken_at.append(now[0])
        return 0, "", "", 1.0, 0

    monkeypatch.setattr(spawns, "spawn", fake_spawn)
    sampler = spawns.SetupSampler(15.0)
    for op in range(40):
        now[0] = 0.5 * op
        sampler.due(now[0])
    sampler.finish()
    assert taken_at == [float(k) for k in range(spawns.SETUP_SAMPLES)]


def test_parse_importtime_counts_outermost_scipy():
    text = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |       numpy",
        "import time:        10 |        110 |     scipy",
        "import time:        20 |        130 |   scipy.optimize",
        "import time:         5 |          5 |   brocard.geom",
        "import time:         1 |        136 | brocard",
    ])
    assert run.parse_importtime(text) == pytest.approx((136e-6, 130e-6))


@pytest.mark.parametrize("workload", ["verify_suite", "cascade"])
def test_traced_counts_repeat(workload):
    def counts(path):
        run.worker("trace", "--workload", workload, "--seed", "5", "--spans", str(path))
        return {k: (calls, raised) for k, (calls, _, raised) in aggregate([path]).items()}

    run.OUT.mkdir(exist_ok=True)
    first = counts(run.OUT / f"test-{workload}-a.jsonl")
    assert first == counts(run.OUT / f"test-{workload}-b.jsonl")
    assert first["porism.scene_from_Ru"][0] > first["porism.scene_from_Ru.identity"][0]


def test_traced_cli_counts_repeat():
    checks_count = len(checks.check_ids())

    def counts():
        report, spans = run.cli_cold_traced(5, checks_count)
        assert report["failed"] == 0, report["reasons"]
        return {k: (calls, raised) for k, (calls, _, raised) in aggregate(spans).items()}

    run.OUT.mkdir(exist_ok=True)
    first = counts()
    assert first == counts()
    assert first["cli.main"] == (9, 0)
    assert first["recurrence.child_scene"][1] >= 1  # the orbit stops at the limit
