"""The command line's contract, checked in process through ``cli.main``.

Every invocation exits 0, 1 or 2 without a traceback, prints output that
parses as its format (strict JSON: no bare NaN or Infinity), and a
negative control (``--mutate``) never exits 0.
"""

import contextlib
import csv
import io
import json
import math
import xml.etree.ElementTree as ET

from hypothesis import given, settings, strategies as st

from brocard import cli
from brocard.checks import MUTATIONS, check_ids
from brocard.figures import FIGURES


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def _reject_constant(name):
    raise ValueError(f"bare {name} is not JSON")


def parse_jsonl(text):
    return [
        json.loads(line, parse_constant=_reject_constant)
        for line in text.splitlines()
        if line.strip()
    ]


def parse_output(argv, text):
    """Parse ``text`` as the format the invocation asked for."""
    fmt = argv[argv.index("--format") + 1] if "--format" in argv else None
    if argv[0] == "figure":
        assert ET.fromstring(text).tag.endswith("svg")
    elif (fmt or ("json" if argv[0] == "verify" else "csv")) == "json":
        assert all(isinstance(row, dict) for row in parse_jsonl(text))
    else:
        table = list(csv.reader(io.StringIO(text)))
        assert table and all(len(row) == len(table[0]) for row in table)


def test_continuous_every_sample_count_exits_zero():
    crashed = []
    for n in range(2, 401):
        code, out, _ = run_cli(["continuous", "--samples", str(n)])
        if code != 0:
            crashed.append(n)
        else:
            # the grid never leaves [t_min, t_max]
            last = list(csv.reader(io.StringIO(out)))[-1]
            assert float(last[0]) <= math.pi / 3.0
    assert crashed == []


def test_continuous_past_pi_over_3_exits_two_with_one_line():
    # one ulp past pi/3, in radians and in degrees: a usage error, caught
    # before any row is computed
    for argv in (
        ["continuous", "--t-max", "1.0471975511965979"],
        ["continuous", "--degrees", "--t-max", "60.00000000000001"],
    ):
        code, out, err = run_cli(argv)
        assert code == 2
        assert out == ""
        assert err == "error: need 0 < t_min < t_max <= pi/3\n"


def test_domain_and_output_errors_exit_two_with_one_line(tmp_path):
    for argv in (
        # 2dh underflows to zero inside the chart map
        ["family", "--d", "6.175225232284534e-291", "--h", "1e-300"],
        ["orbit", "--R0", "1", "--u0", "2", "--out", str(tmp_path / "no" / "x.csv")],
    ):
        code, out, err = run_cli(argv)
        assert code == 2, argv
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1


def test_orbit_notes_the_generation_it_stopped_at():
    for argv, last in (
        (["orbit", "--R0", "1", "--u0", "2", "--steps", "40"], 8),
        (["orbit", "--R0", "1", "--u0", "2", "--steps", "2000",
          "--direction", "back"], 511),
    ):
        code, out, err = run_cli(argv)
        assert code == 0, argv
        assert list(csv.reader(io.StringIO(out)))[-1][0] == str(last)
        assert err == (
            f"note: orbit stopped at generation {last}; "
            "the next step is numerically at the limit\n"
        )


def test_non_finite_tolerance_exits_two():
    for tol in ("inf", "nan", "-inf", "0"):
        code, out, err = run_cli([
            "verify", "--mutate", "flip-step-sign", f"--tolerance={tol}",
            "--filter", "thm1.child_circumcircle",
        ])
        assert code == 2, tol
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1


def test_every_mutation_exits_one_at_default_tolerance():
    for name in MUTATIONS:
        code, out, err = run_cli(["verify", "--mutate", name])
        assert code == 1, name
        assert "FAIL" in err
        assert len(parse_jsonl(out)) == len(check_ids())


def test_continuous_json_is_strict_past_the_contact_window():
    code, out, _ = run_cli(["continuous", "--t-min", "1.0", "--samples", "5",
                            "--format", "json"])
    assert code == 0
    rows = parse_jsonl(out)
    assert len(rows) == 5
    for row in rows:
        assert row["t"] > math.acos(0.6)
        assert row["xi1_x"] == row["xi1_y"] == row["envelope_residual"] == "nan"


def test_verify_json_is_strict_for_raised_checks():
    code, out, _ = run_cli(["verify", "--mutate", "flip-step-sign",
                            "--filter", "prop14.", "--samples", "10"])
    assert code == 1
    rows = parse_jsonl(out)
    raised = [r for r in rows if r["samples_used"] == 0]
    assert raised
    for row in raised:
        assert row["max_residual"] == "inf"
        assert row["passed"] is False


# ---------------------------------------------------------------------------
# property test over the argument space of all five subcommands


_NUMBER = st.one_of(
    st.floats(min_value=-4.0, max_value=4.0).map(repr),
    st.sampled_from(["0", "-0.0", "nan", "inf", "-inf", "1e-300", "1e300"]),
)
_PREFIXES = sorted({i.split(".")[0] + "." for i in check_ids()}) + ["nosuch."]


def _flags(draw, names):
    argv = []
    for name, values in names:
        value = draw(st.one_of(st.none(), values))
        if value is not None:
            argv += [name] if value is True else [name, value]
    return argv


@st.composite
def _argv(draw):
    command = draw(st.sampled_from(["verify", "orbit", "family", "continuous", "figure"]))
    argv = [command]
    if command == "verify":
        argv += _flags(draw, [
            ("--filter", st.sampled_from(_PREFIXES)),
            ("--mutate", st.sampled_from(sorted(MUTATIONS))),
        ])
    elif command == "orbit":
        argv += ["--R0", draw(_NUMBER), "--u0", draw(_NUMBER)]
        argv += _flags(draw, [
            ("--steps", st.integers(-2, 40).map(str)),
            ("--direction", st.sampled_from(["forward", "back"])),
        ])
    elif command == "family":
        argv += _flags(draw, [("--d", _NUMBER), ("--h", _NUMBER)])
    elif command == "continuous":
        argv += _flags(draw, [("--t-min", _NUMBER), ("--t-max", _NUMBER)])
    else:
        argv.append(draw(st.sampled_from(sorted(FIGURES))))
        argv += _flags(draw, [("--d", _NUMBER), ("--h", _NUMBER)])
    argv += _flags(draw, [
        ("--samples", st.integers(-1, 40).map(str)),
        ("--seed", st.integers(0, 10**6).map(str)),
        ("--tolerance", _NUMBER),
        ("--format", st.sampled_from(["csv", "json", "svg"])),
        ("--degrees", st.just(True)),
    ])
    return argv


@settings(max_examples=50, deadline=None)
@given(_argv())
def test_any_invocation_keeps_the_contract(argv):
    code, out, err = run_cli(argv)
    assert code in (0, 1, 2), (argv, code, err)
    assert "Traceback" not in err
    if code == 2:
        assert out == ""
    elif out or code == 0:
        parse_output(argv, out)
