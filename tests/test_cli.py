import csv
import io
import json
import math
import subprocess
import sys

SQRT3 = math.sqrt(3.0)
T_MAX = math.pi / 3.0


def _run(*args):
    return subprocess.run(
        [sys.executable, "-m", "brocard", *args],
        capture_output=True,
        text=True,
        timeout=120,
    )


def _rows_from_csv(text):
    reader = csv.reader(io.StringIO(text))
    header = next(reader)
    return header, [dict(zip(header, row)) for row in reader]


def _reject_constant(name):
    raise ValueError(f"bare {name} is not JSON")


def _rows_from_jsonl(text):
    # strict RFC 8259: bare NaN and Infinity are rejected
    return [
        json.loads(line, parse_constant=_reject_constant)
        for line in text.splitlines()
        if line.strip()
    ]


def test_verify_healthy_exit_zero():
    p = _run("verify", "--samples", "25", "--seed", "0")
    assert p.returncode == 0, p.stderr
    rows = _rows_from_jsonl(p.stdout)
    assert len(rows) >= 55
    for r in rows:
        assert r["passed"] is True
        assert r["max_residual"] <= r["tolerance"]


def test_verify_csv_roundtrips_to_exact_floats():
    from brocard.checks import run_checks

    p = _run("verify", "--filter", "geom.", "--format", "csv",
             "--samples", "30", "--seed", "7")
    assert p.returncode == 0
    header, rows = _rows_from_csv(p.stdout)
    assert header[:2] == ["check_id", "claim"]
    wanted = run_checks(samples=30, seed=7, filter_prefix="geom.")
    assert len(rows) == len(wanted)
    for row, rep in zip(rows, wanted):
        assert row["check_id"] == rep.check_id
        # repr output re-parses to the identical double
        assert float(row["max_residual"]) == rep.max_residual
        assert float(row["tolerance"]) == rep.tolerance
        assert row["passed"] == "true"
        assert int(row["samples_used"]) == rep.samples_used


def test_verify_unknown_filter_exit_two():
    p = _run("verify", "--filter", "nosuchgroup.")
    assert p.returncode == 2
    assert p.stdout == ""


def test_verify_mutation_exit_one():
    p = _run("verify", "--mutate", "flip-step-sign", "--samples", "15")
    assert p.returncode == 1
    rows = _rows_from_jsonl(p.stdout)
    failed = {r["check_id"] for r in rows if not r["passed"]}
    assert any(i.startswith("thm1.") for i in failed)
    assert any(i.startswith("prop14.") for i in failed)
    assert "FAIL" in p.stderr


def test_verify_flags_before_subcommand():
    a = _run("--samples", "20", "--seed", "4", "verify", "--filter", "geom.")
    b = _run("verify", "--samples", "20", "--seed", "4", "--filter", "geom.")
    assert a.returncode == 0 and b.returncode == 0
    assert a.stdout == b.stdout


def test_orbit_forward_contract():
    p = _run("orbit", "--R0", "1", "--u0", "3", "--steps", "6",
             "--format", "csv")
    assert p.returncode == 0
    header, rows = _rows_from_csv(p.stdout)
    assert header[0] == "generation"
    assert [int(r["generation"]) for r in rows] == list(range(7))
    assert float(rows[-1]["u_excess"]) < 1e-12
    # world-frame Brocard circles shrink toward the limit point
    radii = [float(r["K_radius"]) for r in rows]
    for a, b in zip(radii, radii[1:]):
        assert b < a


def test_orbit_backward_contract():
    p = _run("orbit", "--R0", "1", "--u0", "2", "--steps", "8",
             "--direction", "back", "--format", "json")
    assert p.returncode == 0
    rows = _rows_from_jsonl(p.stdout)
    assert len(rows) == 9
    assert rows[-1]["u"] > 100.0


def test_orbit_bad_start_exit_two():
    assert _run("orbit", "--R0", "1", "--u0", "1.5").returncode == 2
    assert _run("orbit", "--R0", "-1", "--u0", "2").returncode == 2
    assert _run("orbit", "--R0", "1", "--u0", "2", "--steps", "-3").returncode == 2


def test_family_table():
    p = _run("family", "--d", "1", "--h", "2", "--samples", "8",
             "--format", "json")
    assert p.returncode == 0
    rows = _rows_from_jsonl(p.stdout)
    assert len(rows) == 8
    for r in rows:
        assert r["closure_residual_max"] < 1e-9
        assert r["brocard_angle_deviation"] < 1e-9
    # with samples divisible by 4 one row is the apex-up isosceles member
    quarter = rows[2]
    assert abs(quarter["t"] - 0.5 * math.pi) < 1e-15
    assert abs(quarter["Ax"]) < 1e-12
    assert abs(quarter["Ay"] - 1.25) < 1e-12


def test_continuous_table():
    p = _run("continuous", "--t-min", "0.1", "--t-max", repr(T_MAX),
             "--samples", "60", "--format", "json")
    assert p.returncode == 0
    rows = _rows_from_jsonl(p.stdout)
    assert len(rows) >= 60
    ts = [r["t"] for r in rows]
    assert ts == sorted(ts)
    bs = [r["b"] for r in rows]
    assert max(bs) == 0.25  # the spliced extremal member is exact
    # envelope contact exists up to acos(3/5) and not after
    for r in rows:
        if r["t"] <= math.acos(0.6):
            assert r["envelope_residual"] < 1e-10
        else:
            assert r["xi1_x"] == "nan"
            assert r["envelope_residual"] == "nan"


def test_continuous_degrees():
    p = _run("continuous", "--t-min", "10", "--t-max", "55",
             "--samples", "10", "--degrees", "--format", "json")
    assert p.returncode == 0
    rows = _rows_from_jsonl(p.stdout)
    assert abs(rows[0]["t"] - math.radians(10.0)) < 1e-12


def test_continuous_bad_range_exit_two():
    assert _run("continuous", "--t-min", "0.5", "--t-max", "0.2").returncode == 2
    assert _run("continuous", "--t-min", "0", "--t-max", "0.5").returncode == 2
    assert _run("continuous", "--t-min", "0.1", "--t-max", "2.0").returncode == 2


def test_figure_deterministic_bytes():
    a = _run("figure", "fig4")
    b = _run("figure", "fig4")
    assert a.returncode == 0 and b.returncode == 0
    assert a.stdout == b.stdout
    assert a.stdout.startswith("<svg")
    assert a.stdout.rstrip().endswith("</svg>")


def test_figure_families_and_params():
    for name in ("fig2", "fig5", "fig6", "fig7"):
        p = _run("figure", name)
        assert p.returncode == 0, (name, p.stderr)
        assert "<svg" in p.stdout
    # fig6 and fig7 describe the continuous family, no porism to pick
    assert _run("figure", "fig6", "--d", "1", "--h", "2").returncode == 2
    # member figures accept a porism
    assert _run("figure", "fig2", "--d", "1.2", "--h", "2.4").returncode == 0
    # half-given parameters are rejected
    assert _run("figure", "fig2", "--d", "1.2").returncode == 2


def test_figure_renders_a_porism_at_tiny_scale():
    # the figure normalizes scale, so a 1e-16 copy of the default porism
    # draws the same bytes; no absolute threshold may reject it as degenerate
    tiny = _run("figure", "fig2", "--d", "1e-16", "--h", "2e-16")
    assert tiny.returncode == 0, tiny.stderr
    assert tiny.stdout == _run("figure", "fig2").stdout


def test_figure_gates_are_relative_to_the_porism_scale():
    for scale in ("1e10", "1e-10"):
        for name in ("fig2", "fig4", "fig5"):
            p = _run("figure", name, "--d", scale, "--h", "3" + scale[1:])
            assert p.returncode == 0, (name, scale, p.stderr)


def test_figure_gate_catches_a_defect_relative_to_R(monkeypatch, capsys):
    from brocard import cli, figures

    honest = figures.closure_residuals

    def defective(scene, tri):
        return tuple(r + 1e-9 * scene.params.R for r in honest(scene, tri))

    monkeypatch.setattr(figures, "closure_residuals", defective)
    for scale in ("1e10", "1", "1e-10"):
        assert cli.main(["figure", "fig2", "--d", scale, "--h", "3" + scale[1:]]) == 1
        assert "member tangency" in capsys.readouterr().err


def test_tiny_charts_exit_two_with_a_reason():
    for args in (
        ("figure", "fig2", "--d", "1e-300", "--h", "2e-300"),
        ("family", "--d", "1e-170", "--h", "3e-170"),
    ):
        p = _run(*args)
        assert p.returncode == 2, args
        assert p.stdout == ""
        lines = p.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), p.stderr
        assert "division by zero" not in p.stderr
    # the member chart is evaluated at unit scale, so this one draws
    p = _run("figure", "fig2", "--d", "1e-70", "--h", "3e-70")
    assert p.returncode == 0, p.stderr


def test_member_chart_works_far_from_unit_scale(capsys):
    from brocard import cli

    for e in range(-100, 101, 25):
        d, h = f"1e{e}", f"3e{e}"
        for cmd in (["figure", "fig2"], ["figure", "fig4"], ["figure", "fig5"], ["family"]):
            code = cli.main([*cmd, "--d", d, "--h", h])
            out, err = capsys.readouterr()
            if cmd[0] == "figure" or abs(e) <= 75:
                assert code == 0, (cmd, e, err)
                continue
            # lambda = sum of (s_i s_j)^2 leaves the double range
            assert code == 2 and out == "", (cmd, e, err)
            lines = err.splitlines()
            assert len(lines) == 1 and lines[0].startswith("error: "), err
            assert "division by zero" not in err and "Numerical result" not in err


def test_figure_rejects_table_formats():
    assert _run("figure", "fig2", "--format", "csv").returncode == 2
    assert _run("verify", "--format", "svg", "--samples", "5").returncode == 2


def test_out_writes_crlf_csv(tmp_path):
    target = tmp_path / "orbit.csv"
    p = _run("orbit", "--R0", "1.25", "--u0", "1.75", "--steps", "3",
             "--format", "csv", "--out", str(target))
    assert p.returncode == 0
    assert p.stdout == ""
    raw = target.read_bytes()
    assert raw.count(b"\r\n") == 5  # header + four generations
    header, rows = _rows_from_csv(raw.decode())
    assert len(rows) == 4
    from brocard.porism import PorismParams
    from brocard.recurrence import step_forward

    want = step_forward(PorismParams(1.25, 1.75)).R
    assert float(rows[1]["R"]) == want


def test_import_loads_no_scipy_or_numpy():
    code = (
        "import brocard, brocard.cli, sys; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] in ('scipy', 'numpy')))"
    )
    p = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=120
    )
    assert p.returncode == 0, p.stderr
    assert p.stdout == "[]\n"


# One fresh interpreter per command: runs ``brocard.cli.main`` on the
# arguments as ``python -m brocard`` would, then prints, as its last
# stderr line, the modules the run loaded beyond the interpreter's own.
_FOOTPRINT = (
    "import sys; before = set(sys.modules); import brocard\n"
    "if sys.argv[1:]: from brocard.cli import main\n"
    "code = main(sys.argv[1:]) if sys.argv[1:] else 0\n"
    "print(' '.join(sorted(set(sys.modules) - before)), file=sys.stderr)\n"
    "sys.exit(code)"
)


def test_import_loads_no_registry_and_no_dataclasses():
    """Each command loads only the layers it runs: only ``verify`` loads
    the check registry and ``dataclasses``, and ``import brocard`` alone
    loads no submodule."""
    commands = {
        "import": [],
        "verify": ["verify", "--samples", "5"],
        "orbit": ["orbit", "--R0", "1", "--u0", "3"],
        "family": ["family", "--samples", "8"],
        "continuous": ["continuous", "--samples", "8"],
        **{name: ["figure", name] for name in ("fig2", "fig4", "fig5", "fig6", "fig7")},
    }
    loaded = {}
    for name, argv in commands.items():
        p = subprocess.run(
            [sys.executable, "-c", _FOOTPRINT, *argv],
            capture_output=True, text=True, timeout=120,
        )
        assert p.returncode == 0, (name, p.stderr)
        loaded[name] = set(p.stderr.splitlines()[-1].split())
    assert {m for m in loaded["import"] if m.startswith("brocard")} == {"brocard"}
    assert not loaded["orbit"] & {"brocard.centers", "brocard.continuous", "brocard.checks"}
    assert not loaded["fig6"] & {"brocard.centers", "brocard.checks"}
    for name, modules in loaded.items():
        registry = modules & {"brocard.checks", "dataclasses", "inspect"}
        assert bool(registry) == (name == "verify"), (name, registry)
        if name.startswith("fig"):
            assert not modules & {"json", "csv"}, name

    # lazy names still resolve: star import, dir, and submodule attributes
    code = (
        "import brocard; "
        "print(brocard.porism.scene_from_Ru.__module__, brocard.run_checks.__module__, "
        "brocard.checks.MUTATIONS is brocard.recurrence.MUTATIONS, "
        "set(brocard.__all__) <= set(dir(brocard))); "
        "ns = {}; exec('from brocard import *', ns); "
        "print(sorted(n for n in ns if not n.startswith('__')) == brocard.__all__)"
    )
    p = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=120
    )
    assert p.returncode == 0, p.stderr
    assert p.stdout.splitlines() == ["brocard.porism brocard.checks True True", "True"]


def test_public_names_resolve_once():
    import brocard

    names = brocard.__all__
    assert len(names) == len(set(names))
    missing = [name for name in names if not hasattr(brocard, name)]
    assert missing == []
