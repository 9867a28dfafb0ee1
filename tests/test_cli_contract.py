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


def test_a_flag_the_command_does_not_read_exits_two():
    for argv in (
        ["figure", "fig6", "--seed", "1"],
        ["orbit", "--R0", "1", "--u0", "2", "--samples", "5"],
        ["verify", "--tolerance", "1e-3"],
        ["verify", "--degrees"],
        # no prefix matching: "--h" would otherwise be read as "--help"
        ["orbit", "--R0", "1", "--u0", "2", "--h", "2"],
        # flags follow the subcommand
        ["--samples", "5", "verify"],
    ):
        code, out, err = run_cli(argv)
        assert code == 2, argv
        assert out == ""
        assert "error: " in err


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
def test_any_invocation_keeps_the_contract(argv):
    code, out, err = run_cli(argv)
    assert code in (0, 1, 2), (argv, code, err)
    assert "Traceback" not in err
    if any(a.startswith("--") and a not in _OWN_FLAGS[argv[0]] for a in argv):
        assert code == 2, (argv, code, err)
    if code == 2:
        assert out == ""
    elif out or code == 0:
        parse_output(argv, out)
