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

from hypothesis import example, given, settings, strategies as st

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


def test_continuous_below_the_overflow_bound_exits_two_with_one_line():
    # R_t and X3_y grow like 1/t and overflow a double below t =
    # 5.562684646268013e-309; at 5e-324, t/2 rounds to 0
    too_small = [["--t-min", t] for t in ("5.5626e-309", "3e-309", "1e-310", "1e-320", "5e-324")]
    for argv in too_small + [["--degrees", "--t-min", "3e-307"]]:
        code, out, err = run_cli(["continuous", *argv, "--samples", "2"])
        assert (code, out) == (2, "")
        assert err == "error: need t_min >= 5.5627e-309 rad: below it R_t and X3_y overflow\n"
    # from the bound up, through the old cosine bound 2**-26.5, every value is finite
    for t_min in ("5.5627e-309", "1e-300", "1e-9", "1.05367121277235e-08", "1.1e-8",
                  repr(2**-26.5)):
        code, out, _ = run_cli(["continuous", "--t-min", t_min, "--samples", "2",
                                "--format", "json"])
        assert code == 0
        for row in parse_jsonl(out):
            assert math.isfinite(row["R_t"]) and math.isfinite(row["X3_y"])


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
          "--direction", "back"], 340),
    ):
        code, out, err = run_cli(argv)
        assert code == 0, argv
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[-1][0] == str(last)
        # the walk stops before the inellipse center overflows
        assert all(math.isfinite(float(value)) for row in rows[1:] for value in row)
        assert err == (
            f"note: orbit stopped at generation {last}; "
            "the next step is numerically at the limit\n"
        )


def test_orbit_back_stops_where_the_next_step_overflows():
    # the next scene's semi-minor axis 2R/(1 + u^2) overflows in 2R while
    # its center is still finite: the walk stops, it is not a usage error
    code, out, err = run_cli(["orbit", "--R0", "1.7537280911393383e+307", "--u0",
                              "1.7374979869106295", "--direction", "back", "--steps", "3"])
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert [row[0] for row in rows] == ["generation", "0"]
    assert err == (
        "note: orbit stopped at generation 0; the next step is numerically at the limit\n"
    )


# every refusal main reports, with its one stderr line; each exits 2
_REFUSALS = (
    (["--samples", "5", "verify"], "error: flag --samples must follow the command"),
    (["verify", "--samples", "0"], "error: --samples must be >= 1"),
    (["verify", "--filter", "nosuch."], "error: no check id starts with 'nosuch.'"),
    (["orbit", "--R0", "1", "--u0", "2", "--steps", "-1"], "error: --steps must be >= 0"),
    (["continuous", "--t-max", "1.0471975511965979"],
     "error: need 0 < t_min < t_max <= pi/3"),
    (["continuous", "--t-min", "1e-310", "--samples", "2"],
     "error: need t_min >= 5.5627e-309 rad: below it R_t and X3_y overflow"),
    (["figure", "fig2", "--d", "1"], "error: give both --d and --h"),
    (["figure", "fig6", "--d", "1", "--h", "2"], "error: fig6 takes no porism parameters"),
)


def test_each_refusal_keeps_its_exit_code_and_line(tmp_path):
    unwritable = str(tmp_path / "no" / "x.csv")
    cases = _REFUSALS + (
        (["orbit", "--R0", "1", "--u0", "2", "--out", unwritable],
         f"error: [Errno 2] No such file or directory: {unwritable!r}"),
    )
    for argv, line in cases:
        assert run_cli(argv) == (2, "", line + "\n"), argv


def test_a_flag_the_command_does_not_read_exits_two():
    for argv in (
        ["figure", "fig6", "--seed", "1"],
        ["orbit", "--R0", "1", "--u0", "2", "--samples", "5"],
        ["verify", "--tolerance", "1e-3"],
        ["verify", "--degrees"],
        # no prefix matching: "--h" would otherwise be read as "--help"
        ["orbit", "--R0", "1", "--u0", "2", "--h", "2"],
    ):
        code, out, err = run_cli(argv)
        assert code == 2, argv
        assert out == ""
        assert "error: " in err
    # flags follow the subcommand; one before it is named, where argparse
    # alone would name its value as an invalid command
    for argv, flag in (
        (["--samples", "5", "verify"], "--samples"),
        (["--seed=3", "verify"], "--seed"),
        (["--format", "csv", "orbit", "--R0", "1", "--u0", "3"], "--format"),
    ):
        code, out, err = run_cli(argv)
        assert (code, out) == (2, ""), argv
        assert err == f"error: flag {flag} must follow the command\n"


# each table's columns, in order; the header is the first row's keys
_TABLE_COLUMNS = (
    (["orbit", "--R0", "1", "--u0", "3"],
     "generation,R,u,u_excess,X3_x,X3_y,omega1_x,omega1_y,omega2_x,omega2_y,"
     "K_center_x,K_center_y,K_radius"),
    (["family", "--samples", "1"],
     "t,Ax,Ay,Bx,By,Cx,Cy,closure_residual_max,brocard_angle_deviation"),
    (["continuous", "--t-min", "0.9", "--samples", "4"],
     "t,a,b,eccentricity,R_t,X3_y,K_center_y,K_radius,xi1_x,xi1_y,"
     "envelope_residual"),
    (["verify", "--filter", "geom.", "--samples", "5"],
     "check_id,claim,max_residual,tolerance,passed,samples_used"),
)


def test_each_table_keeps_its_columns_in_order():
    for argv, columns in _TABLE_COLUMNS:
        columns = columns.split(",")
        code, out, _ = run_cli([*argv, "--format", "csv"])
        assert code == 0, argv
        assert next(csv.reader(io.StringIO(out))) == columns, argv
        code, out, _ = run_cli([*argv, "--format", "json"])
        assert code == 0, argv
        rows = parse_jsonl(out)
        assert rows, argv
        for row in rows:
            assert list(row) == columns, argv


def test_help_exits_zero_and_every_flag_has_help():
    parser = cli._build_parser()
    commands = parser._subparsers._group_actions[0].choices
    for argv in (["--help"], *([name, "--help"] for name in commands)):
        code, out, err = run_cli(argv)
        assert (code, err) == (0, "") and out.startswith("usage: brocard"), argv
    for name, sub in commands.items():
        for action in sub._actions:
            assert action.help, (name, action.dest)
    # the help says what the command takes: a start at sqrt 3 itself is
    # the degenerate porism
    assert "(> sqrt 3)" in run_cli(["orbit", "--help"])[1]
    code, _, err = run_cli(["orbit", "--R0", "1", "--u0", repr(math.sqrt(3.0))])
    assert code == 2 and "degenerate porism" in err
    assert "(default pi/3)" in run_cli(["continuous", "--help"])[1]


def test_zero_samples_exits_two_with_one_line():
    for command in ("verify", "family", "continuous"):
        code, out, err = run_cli([command, "--samples", "0"])
        assert code == 2, command
        assert out == ""
        assert err == "error: --samples must be >= 1\n"


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


def test_continuous_contact_window_closes_at_critical():
    # both ends lie within 1e-12 of acos(3/5), which is still spliced in;
    # past it 5cos t - 3 < 0, so there is no contact point to print
    crit = math.acos(0.6)
    lo, hi = crit - 4e-13, math.nextafter(crit, 1.0) + 4e-13
    code, out, _ = run_cli(["continuous", "--t-min", repr(lo), "--t-max", repr(hi),
                            "--samples", "2", "--format", "json"])
    assert code == 0
    rows = parse_jsonl(out)
    assert [row["t"] for row in rows] == [lo, crit, hi]
    for row in rows[:2]:
        assert row["envelope_residual"] < 1e-10
    assert rows[2]["xi1_x"] == rows[2]["xi1_y"] == rows[2]["envelope_residual"] == "nan"


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


# each flag's values; ``--tolerance`` is read by no command
_FLAG_VALUES = {
    "--samples": st.integers(-1, 40).map(str),
    "--seed": st.integers(0, 10**6).map(str),
    "--format": st.sampled_from(["csv", "json"]),
    "--filter": st.sampled_from(_PREFIXES),
    "--mutate": st.sampled_from(sorted(MUTATIONS)),
    "--steps": st.integers(-2, 40).map(str),
    "--direction": st.sampled_from(["forward", "back"]),
    "--d": _NUMBER,
    "--h": _NUMBER,
    "--t-min": _NUMBER,
    "--t-max": _NUMBER,
    "--degrees": st.just(True),
    "--tolerance": _NUMBER,
}

# the optional flags each command reads (``--out`` aside: it writes files)
_OWN_FLAGS = {
    "verify": ("--samples", "--seed", "--format", "--filter", "--mutate"),
    "orbit": ("--R0", "--u0", "--steps", "--direction", "--format"),
    "family": ("--d", "--h", "--samples", "--format"),
    "continuous": ("--t-min", "--t-max", "--samples", "--degrees", "--format"),
    "figure": ("--d", "--h"),
}


def _flag(draw, name):
    value = draw(_FLAG_VALUES[name])
    return [name] if value is True else [name, value]


@st.composite
def _argv(draw):
    """A command with some of its own flags, and at most one it does not read."""
    command = draw(st.sampled_from(list(_OWN_FLAGS)))
    argv = [command]
    if command == "orbit":
        argv += ["--R0", draw(_NUMBER), "--u0", draw(_NUMBER)]
    elif command == "figure":
        argv.append(draw(st.sampled_from(sorted(FIGURES))))
    for name in _OWN_FLAGS[command]:
        if name in _FLAG_VALUES and draw(st.booleans()):
            argv += _flag(draw, name)
    foreign = sorted(set(_FLAG_VALUES) - set(_OWN_FLAGS[command]))
    name = draw(st.one_of(st.none(), st.sampled_from(foreign)))
    if name is not None:
        argv += _flag(draw, name)
    return argv


@settings(max_examples=50, deadline=None)
@given(_argv())
# no check under geom. reaches the step, so only the mutant line fails the run
@example(["verify", "--mutate", "flip-step-sign", "--filter", "geom.", "--samples", "20"])
def test_any_invocation_keeps_the_contract(argv):
    code, out, err = run_cli(argv)
    assert code in (0, 1, 2), (argv, code, err)
    assert "Traceback" not in err
    if "--mutate" in argv:
        assert code != 0, (argv, err)
    if any(a.startswith("--") and a not in _OWN_FLAGS[argv[0]] for a in argv):
        assert code == 2, (argv, code, err)
    if code == 2:
        assert out == ""
    elif out or code == 0:
        parse_output(argv, out)
