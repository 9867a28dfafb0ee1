"""Command-line front end.

Five subcommands: ``verify`` runs the named residual checks, ``orbit``
traces the porism recurrence, ``family`` samples one porism's member
triangles, ``continuous`` samples the one-parameter family, and
``figure`` emits an SVG picture.

Flags follow the subcommand, and each subcommand declares only the
flags its handler reads (``brocard CMD --help`` lists them); any other
flag, an abbreviation of one, or a flag before the subcommand is a
usage error.

A table is a non-empty list of row dicts, and its columns are the row
keys, in order.  Tables are CSV (RFC-4180 style: header row, CRLF line
endings) or JSON lines with the same keys; ``verify`` defaults to JSON
lines, the other tables to CSV.  Floats are printed with ``repr``, so parsing
a table back recovers the in-memory values bit for bit; JSON has no
non-finite numbers, so there NaN and infinities are the strings
``"nan"``, ``"inf"`` and ``"-inf"``, the same text the CSV prints.  Exit
codes: 0 success, 1 a check or figure residual failed or no check caught
a ``--mutate`` step, 2 a usage error; :func:`main` reports every refusal.
"""

from __future__ import annotations

import argparse
import io
import math
import re
import sys
from typing import TYPE_CHECKING

# each command imports the layers it runs in its handler, so it loads
# only those; the parser reads the figures, the mutants and FIXTURE
from .figures import FIGURES, FigureCheckError, render_figure
from .geom import GeometryError
from .porism import FIXTURE
from .recurrence import MUTATIONS

if TYPE_CHECKING:
    from .porism import PorismScene


class _UsageError(Exception):
    """A request the command line refuses: :func:`main` prints it and exits 2."""


def _value_str(v: object) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    return str(v)


def _render_csv(rows: list[dict]) -> str:
    import csv

    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\r\n")
    w.writerow(rows[0])
    for row in rows:
        w.writerow([_value_str(v) for v in row.values()])
    return buf.getvalue()


def _json_value(v: object) -> object:
    if isinstance(v, float) and not math.isfinite(v):
        return repr(v)
    return v


def _render_jsonl(rows: list[dict]) -> str:
    import json

    return "\n".join(
        json.dumps({k: _json_value(v) for k, v in row.items()}, allow_nan=False)
        for row in rows
    ) + "\n"


def _write_output(text: str, path: str | None) -> None:
    if path is None:
        sys.stdout.write(text)
        return
    with open(path, "w", newline="") as fh:
        fh.write(text)


def _emit_table(rows: list[dict], fmt: str, path: str | None) -> None:
    render = _render_csv if fmt == "csv" else _render_jsonl
    _write_output(render(rows), path)


# ---------------------------------------------------------------------------
# verify


def _cmd_verify(args: argparse.Namespace) -> int:
    # only verify needs the registry; importing it before dataclasses peaks lower
    from .checks import UnknownCheckFilterError, run_checks, step_forward
    from dataclasses import asdict

    try:
        reports = run_checks(
            samples=args.samples,
            seed=args.seed,
            filter_prefix=args.filter,
            step=MUTATIONS[args.mutate] if args.mutate else step_forward,
        )
    except UnknownCheckFilterError:
        raise _UsageError(f"no check id starts with {args.filter!r}") from None
    _emit_table([asdict(r) for r in reports], args.format, args.out)
    failed = [r for r in reports if not r.passed]
    for r in failed:
        reason = (
            f"residual {r.max_residual!r} exceeds {r.tolerance!r}"
            if r.samples_used
            else "no sample completed (raised, lost or empty)"
        )
        print(f"FAIL {r.check_id}: {reason}", file=sys.stderr)
    # a negative control that no selected check catches has failed too
    if args.mutate and not failed:
        print(f"FAIL --mutate {args.mutate}: every selected check passed", file=sys.stderr)
    return 1 if failed or args.mutate else 0


# ---------------------------------------------------------------------------
# orbit


def _orbit_row(generation: int, scene: PorismScene) -> dict:
    return {
        "generation": generation,
        "R": scene.params.R,
        "u": scene.params.u,
        "u_excess": scene.params.u_excess,
        "X3_x": scene.X3.x,
        "X3_y": scene.X3.y,
        "omega1_x": scene.omega1.x,
        "omega1_y": scene.omega1.y,
        "omega2_x": scene.omega2.x,
        "omega2_y": scene.omega2.y,
        "K_center_x": scene.brocard_circle.center.x,
        "K_center_y": scene.brocard_circle.center.y,
        "K_radius": scene.brocard_circle.radius,
    }


def _cmd_orbit(args: argparse.Namespace) -> int:
    from .porism import PorismParams, scene_from_Ru
    from .recurrence import anti_scene, child_scene, orbit_scenes

    if args.steps < 0:
        raise _UsageError("--steps must be >= 0")
    step = child_scene if args.direction == "forward" else anti_scene
    root = scene_from_Ru(PorismParams(args.R0, args.u0))
    scenes = orbit_scenes(root, args.steps, step)
    if len(scenes) <= args.steps:
        print(
            f"note: orbit stopped at generation {len(scenes) - 1}; "
            "the next step is numerically at the limit",
            file=sys.stderr,
        )
    rows = [_orbit_row(k, scene) for k, scene in enumerate(scenes)]
    _emit_table(rows, args.format, args.out)
    return 0


# ---------------------------------------------------------------------------
# family


def _cmd_family(args: argparse.Namespace) -> int:
    from .centers import brocard_angle
    from .geom import worst
    from .porism import (
        IsoscelesParams,
        ParametrizationSingularityError,
        Ru_from_dh,
        closure_residuals,
        scene_from_Ru,
        vertices_at,
    )

    iso = IsoscelesParams(args.d, args.h)
    scene = scene_from_Ru(Ru_from_dh(iso))
    rows = []
    n = args.samples
    for k in range(n):
        t = 2.0 * math.pi * k / n
        try:
            tri = vertices_at(iso, t)
        except ParametrizationSingularityError:
            print(f"note: t={t!r} skipped (member degenerates)", file=sys.stderr)
            continue
        rows.append(
            {
                "t": t,
                "Ax": tri.A.x,
                "Ay": tri.A.y,
                "Bx": tri.B.x,
                "By": tri.B.y,
                "Cx": tri.C.x,
                "Cy": tri.C.y,
                "closure_residual_max": worst(closure_residuals(scene, tri)),
                "brocard_angle_deviation": abs(
                    brocard_angle(tri) - scene.params.omega
                ),
            }
        )
    _emit_table(rows, args.format, args.out)
    return 0


# ---------------------------------------------------------------------------
# continuous


def _continuous_row(t: float) -> dict:
    from .continuous import (
        T_CRITICAL,
        brocard_circle_Kt,
        center_X3,
        circumradius_Rt,
        eccentricity_Et,
        ellipse_Et,
        envelope_conic_residual,
        envelope_points,
    )

    e = ellipse_Et(t)
    k = brocard_circle_Kt(t)
    if t <= T_CRITICAL:
        xi = envelope_points(t)[1]
        xi_x, xi_y, envelope_residual = *xi, envelope_conic_residual(xi)
    else:
        xi_x = xi_y = envelope_residual = math.nan
    return {
        "t": t,
        "a": e.semi_major,
        "b": e.semi_minor,
        "eccentricity": eccentricity_Et(t),
        "R_t": circumradius_Rt(t),
        "X3_y": center_X3(t).y,
        "K_center_y": k.center.y,
        "K_radius": k.radius,
        "xi1_x": xi_x,
        "xi1_y": xi_y,
        "envelope_residual": envelope_residual,
    }


# the member's circumradius and circumcenter grow like 1/t and overflow a
# double below t = 5.562684646268013e-309
_T_MIN = 5.5627e-309


def _cmd_continuous(args: argparse.Namespace) -> int:
    from .continuous import T_CRITICAL, T_MAX

    # --degrees converts the values given, not the defaults in radians
    to_radians = math.radians if args.degrees else float
    t_min = 0.1 if args.t_min is None else to_radians(args.t_min)
    t_max = T_MAX if args.t_max is None else to_radians(args.t_max)
    if not (0.0 < t_min < t_max <= T_MAX):
        raise _UsageError("need 0 < t_min < t_max <= pi/3")
    if t_min < _T_MIN:
        raise _UsageError(f"need t_min >= {_T_MIN} rad: below it R_t and X3_y overflow")
    n = args.samples
    # the last point can round one ulp past t_max, and past pi/3 the
    # Brocard circle has a negative radius; pin it to t_max
    grid = [t_min] if n == 1 else [
        min(t_min + (t_max - t_min) * k / (n - 1), t_max) for k in range(n)
    ]
    # the extremal parameters are irrational; splice them in when in range
    for special in (math.acos(0.75), T_CRITICAL):
        if t_min <= special <= t_max and special not in grid:
            grid.append(special)
    grid.sort()
    rows = [_continuous_row(t) for t in grid]
    _emit_table(rows, args.format, args.out)
    return 0


# ---------------------------------------------------------------------------
# figure


def _cmd_figure(args: argparse.Namespace) -> int:
    from .porism import IsoscelesParams

    iso = None
    if args.d is not None or args.h is not None:
        if args.d is None or args.h is None:
            raise _UsageError("give both --d and --h")
        iso = IsoscelesParams(args.d, args.h)
    _write_output(render_figure(args.name, iso), args.out)
    return 0


# ---------------------------------------------------------------------------
# argument parsing


def _table_flags(parser: argparse.ArgumentParser, formats: tuple[str, str]) -> None:
    """``--format``, defaulting to the first of ``formats``, and ``--out``."""
    parser.add_argument(
        "--format", choices=formats, default=formats[0],
        help=f"table format (default {formats[0]})",
    )
    parser.add_argument("--out", metavar="PATH", help="output file (default stdout)")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="brocard",
        description="Brocard porism geometry: residual checks, recurrence "
        "orbits, family tables, figures.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="run the named residual checks")
    p.add_argument("--samples", type=int, default=200, help="sample count (default 200)")
    p.add_argument("--seed", type=int, default=0, help="RNG seed (default 0)")
    _table_flags(p, ("json", "csv"))
    p.add_argument(
        "--filter",
        default=None,
        help="run only checks whose id starts with this prefix, "
        'e.g. "thm1." or "prop7."',
    )
    p.add_argument(
        "--mutate",
        choices=sorted(MUTATIONS),
        default=None,
        help="negative control: corrupt the recurrence step on purpose and "
        "confirm the suite notices",
    )
    p.set_defaults(fn=_cmd_verify)

    p = sub.add_parser("orbit", help="trace the recurrence from (R0, u0)")
    p.add_argument("--R0", type=float, required=True, help="starting circumradius")
    p.add_argument(
        "--u0", type=float, required=True, help="starting Brocard cotangent (> sqrt 3)"
    )
    p.add_argument("--steps", type=int, default=6, help="generations to trace")
    p.add_argument(
        "--direction",
        choices=("forward", "back"),
        default="forward",
        help="forward shrinks toward equilateral; back grows",
    )
    _table_flags(p, ("csv", "json"))
    p.set_defaults(fn=_cmd_orbit)

    p = sub.add_parser(
        "family", help="sample member triangles of the porism with half-base d, height h"
    )
    p.add_argument("--d", type=float, default=FIXTURE.d, help="half-base (default %(default)g)")
    p.add_argument("--h", type=float, default=FIXTURE.h, help="height (default %(default)g)")
    p.add_argument("--samples", type=int, default=200, help="sample count (default 200)")
    _table_flags(p, ("csv", "json"))
    p.set_defaults(fn=_cmd_family)

    p = sub.add_parser(
        "continuous",
        help="sample the one-parameter family on [t_min, t_max]; the grid "
        "also includes acos(3/4) and acos(3/5) when they fall inside",
    )
    p.add_argument("--t-min", type=float, default=None, dest="t_min",
                   help=f"lower end, at least {_T_MIN} rad (default 0.1)")
    p.add_argument("--t-max", type=float, default=None, dest="t_max",
                   help="upper end, at most pi/3 rad (default pi/3)")
    p.add_argument("--samples", type=int, default=200, help="sample count (default 200)")
    p.add_argument(
        "--degrees", action="store_true", help="read --t-min and --t-max in degrees"
    )
    _table_flags(p, ("csv", "json"))
    p.set_defaults(fn=_cmd_continuous)

    p = sub.add_parser("figure", help="emit a deterministic SVG figure")
    p.add_argument("name", choices=sorted(FIGURES), help="figure to emit")
    p.add_argument("--d", type=float, default=None, help="half-base (porism figures)")
    p.add_argument("--h", type=float, default=None, help="height (porism figures)")
    p.add_argument("--out", metavar="PATH", help="output file (default stdout)")
    p.set_defaults(fn=_cmd_figure)

    # no prefix matching either: "orbit --h" would otherwise print help; and
    # "-1e3" or "-inf" is a value for float() to read, where argparse saw a flag
    for p in sub.choices.values():
        p.allow_abbrev = False
        p._negative_number_matcher = re.compile(r"-(\.?\d|inf|nan)", re.I)
    return parser


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    try:
        # argparse would take a flag's value for the command and name that
        if argv and argv[0].startswith("-") and argv[0] not in ("-h", "--help"):
            raise _UsageError(f"flag {argv[0].split('=', 1)[0]} must follow the command")
        args = _build_parser().parse_args(argv)
        if "samples" in args and args.samples < 1:
            raise _UsageError("--samples must be >= 1")
        return args.fn(args)
    except FigureCheckError as exc:
        # a figure's residual gate failed; no SVG was written
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (_UsageError, GeometryError, ArithmeticError, OSError) as exc:
        # a refused request, inputs outside the geometric or floating-point
        # domain, or an unwritable --out path; no command has printed its table yet
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
