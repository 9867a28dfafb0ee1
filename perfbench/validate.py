"""Output validators of the benchmark.

They judge the program's outputs themselves instead of trusting its own
verdicts: ``CheckReport.passed`` and the ``passed`` column can both be
wrong (``max(worst, nan)`` hides a NaN residual, and a check that raised
can pass at an infinite tolerance).  The ``check_*`` functions return a
list of reasons, empty when the output is correct; the ``parse_*``
functions raise ``ValueError`` on malformed output.  This module imports nothing
from the program, so the parent process can use it without paying for
the program's import.
"""

from __future__ import annotations

import csv
import io
import json
import math
import xml.etree.ElementTree as ET

# Gate tolerances of the cascade round, the same as figure fig2's gates.
CLOSURE_TOL = 1e-9  # closure residual over the scene circumradius
COTANGENT_TOL = 1e-8  # derived Brocard cotangent against step_forward
CIRCLE_TOL = 1e-9  # derived circumcircle against the Brocard circle, over R


def check_rows(rows, expected_count: int) -> list[str]:
    """Judge a verify table from ``(check_id, residual, tolerance, samples)`` rows."""
    reasons = []
    if len(rows) != expected_count:
        reasons.append(f"{len(rows)} rows, expected {expected_count}")
    for check_id, residual, tolerance, samples in rows:
        if not (_is_number(residual) and math.isfinite(residual)):
            reasons.append(f"{check_id}: non-finite residual {residual!r}")
        elif not (isinstance(samples, int) and samples > 0):
            reasons.append(f"{check_id}: {samples!r} samples used")
        elif not (_is_number(tolerance) and residual <= tolerance):
            reasons.append(f"{check_id}: residual {residual!r} > tolerance {tolerance!r}")
    return reasons


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def check_reports(reports, expected_count: int) -> list[str]:
    """Judge the ``CheckReport`` list of one ``run_checks`` pass."""
    return check_rows(
        [(r.check_id, r.max_residual, r.tolerance, r.samples_used) for r in reports],
        expected_count,
    )


def _reject_constant(name: str) -> float:
    raise ValueError(f"bare {name} is not JSON")


def parse_jsonl(text: str) -> list[dict]:
    """Strict RFC 8259 JSON lines: bare ``NaN`` and ``Infinity`` are rejected."""
    rows = [
        json.loads(line, parse_constant=_reject_constant)
        for line in text.splitlines()
        if line.strip()
    ]
    if not rows or not all(isinstance(r, dict) for r in rows):
        raise ValueError("no JSON objects")
    return rows


def parse_csv(text: str) -> None:
    table = list(csv.reader(io.StringIO(text)))
    if len(table) < 2 or not table[0]:
        raise ValueError("no CSV header and rows")
    if any(len(row) != len(table[0]) for row in table[1:]):
        raise ValueError("ragged CSV rows")


def parse_svg(text: str) -> None:
    if not ET.fromstring(text).tag.endswith("svg"):
        raise ValueError("root element is not svg")


def check_command(
    argv: list[str], code: int, stdout: str, stderr: str, expected_checks: int
) -> list[str]:
    """Judge one ``brocard`` invocation from its exit code and output."""
    reasons = []
    if code != 0:
        reasons.append(f"exit code {code}")
    if "Traceback" in stderr:
        reasons.append("traceback on stderr")
    try:
        if argv[0] == "verify":
            rows = parse_jsonl(stdout)
            reasons += check_rows(
                [
                    (r.get("check_id"), r.get("max_residual"), r.get("tolerance"),
                     r.get("samples_used"))
                    for r in rows
                ],
                expected_checks,
            )
        elif argv[0] == "figure":
            parse_svg(stdout)
        else:
            parse_csv(stdout)
    except (ValueError, ET.ParseError) as exc:
        reasons.append(f"unparseable output: {exc}")
    return reasons
