"""Command-line front end.

Five subcommands: ``verify`` runs the named residual checks, ``orbit``
traces the porism recurrence, ``family`` samples one porism's member
triangles, ``continuous`` samples the one-parameter family, and
``figure`` emits an SVG picture.

Tables are CSV (RFC-4180 style: header row, CRLF line endings) or JSON
lines with the same keys.  Floats are printed with ``repr``, so parsing
a table back recovers the in-memory values bit for bit; JSON has no
non-finite numbers, so there NaN and infinities are the strings
``"nan"``, ``"inf"`` and ``"-inf"``, the same text the CSV prints.  Exit
codes: 0 success, 1 a check or figure residual failed, 2 usage error.
"""

from __future__ import annotations

import argparse
import io
import math
import sys
from typing import TYPE_CHECKING

# each command imports the layers it runs in its handler, so it loads
# only those; the parser reads the figure table and the mutant names
from .figures import FIGURES, FigureCheckError, render_figure
from .geom import GeometryError
from .recurrence import MUTATIONS

if TYPE_CHECKING:
    from .porism import PorismScene


def _value_str(v: object) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return repr(v)
    return str(v)


def _render_csv(columns: list[str], rows: list[dict]) -> str:
    import csv

    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\r\n")
    w.writerow(columns)
    for row in rows:
        w.writerow([_value_str(row[c]) for c in columns])
    return buf.getvalue()


def _json_value(v: object) -> object:
    if isinstance(v, float) and not math.isfinite(v):
        return repr(v)
    return v


def _render_jsonl(columns: list[str], rows: list[dict]) -> str:
    import json

    out = []
    for row in rows:
        out.append(
            json.dumps({c: _json_value(row[c]) for c in columns}, allow_nan=False)
        )
    return "\n".join(out) + ("\n" if rows else "")


def _write_output(text: str, path: str | None) -> None:
    if path is None:
        sys.stdout.write(text)
        return
    with open(path, "w", newline="") as fh:
        fh.write(text)


def _emit_table(
    columns: list[str], rows: list[dict], fmt: str | None, path: str | None
) -> int:
    fmt = fmt or "csv"
    if fmt == "csv":
        _write_output(_render_csv(columns, rows), path)
    elif fmt == "json":
        _write_output(_render_jsonl(columns, rows), path)
    else:
        print("error: this command emits tables, not svg", file=sys.stderr)
        return 2
    return 0


# ---------------------------------------------------------------------------
# verify


def _cmd_verify(args: argparse.Namespace) -> int:
    # only verify needs the registry; importing it before dataclasses peaks lower
    from .checks import CheckReport, UnknownCheckFilterError, run_checks
    from .recurrence import step_forward
    from dataclasses import asdict, fields

    step = MUTATIONS[args.mutate] if args.mutate else step_forward
    try:
        reports = run_checks(
            samples=args.samples,
            seed=args.seed,
            tol_scene=args.tolerance,
            filter_prefix=args.filter,
            step=step,
        )
    except UnknownCheckFilterError:
        print(f"error: no check id starts with {args.filter!r}", file=sys.stderr)
        return 2
    rows = [asdict(r) for r in reports]
    columns = [f.name for f in fields(CheckReport)]
    code = _emit_table(columns, rows, args.format or "json", args.out)
    if code != 0:
        return code
    failed = [r for r in reports if not r.passed]
    if failed:
        for r in failed:
            print(
                f"FAIL {r.check_id}: residual {r.max_residual!r} "
                f"exceeds {r.tolerance!r}",
                file=sys.stderr,
            )
        return 1
    return 0


# ---------------------------------------------------------------------------
# orbit


_ORBIT_COLUMNS = [
    "generation",
    "R",
    "u",
    "u_excess",
    "X3_x",
    "X3_y",
    "omega1_x",
    "omega1_y",
    "omega2_x",
    "omega2_y",
    "K_center_x",
    "K_center_y",
    "K_radius",
]


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
    from .recurrence import Direction, orbit_scenes

    if args.steps < 0:
        print("error: --steps must be >= 0", file=sys.stderr)
        return 2
    direction = Direction.FORWARD if args.direction == "forward" else Direction.BACKWARD
    root = scene_from_Ru(PorismParams(args.R0, args.u0))
    scenes = orbit_scenes(root, args.steps, direction)
    if len(scenes) <= args.steps:
        print(
            f"note: orbit stopped at generation {len(scenes) - 1}; "
            "the next step is numerically at the limit",
            file=sys.stderr,
        )
    rows = [_orbit_row(k, scene) for k, scene in enumerate(scenes)]
    return _emit_table(_ORBIT_COLUMNS, rows, args.format, args.out)


# ---------------------------------------------------------------------------
# family


_FAMILY_COLUMNS = [
    "t",
    "Ax",
    "Ay",
    "Bx",
    "By",
    "Cx",
    "Cy",
    "closure_residual_max",
    "brocard_angle_deviation",
]


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
    return _emit_table(_FAMILY_COLUMNS, rows, args.format, args.out)


# ---------------------------------------------------------------------------
# continuous


_CONTINUOUS_COLUMNS = [
    "t",
    "a",
    "b",
    "eccentricity",
    "R_t",
    "X3_y",
    "K_center_y",
    "K_radius",
    "xi1_x",
    "xi1_y",
    "envelope_residual",
]


def _continuous_row(t: float) -> dict:
    from .continuous import (
        T_CRITICAL,
        _envelope_contact,
        brocard_circle_Kt,
        ellipse_Et,
    )

    c, s = math.cos(t), math.sin(t)
    e = ellipse_Et(t)
    k = brocard_circle_Kt(t)
    major2 = max(0.0, 2.0 * c - 1.0)
    if t <= T_CRITICAL + 1e-12:
        xi = _envelope_contact(t, clamp=True)
        xi_x, xi_y = xi.x, xi.y
        envelope_residual = abs(4.0 * xi_x * xi_x + xi_y * xi_y - 1.0)
    else:
        xi_x = xi_y = envelope_residual = math.nan
    return {
        "t": t,
        "a": e.semi_major,
        "b": e.semi_minor,
        "eccentricity": math.sqrt(major2),
        "R_t": math.sqrt(major2 / (2.0 * (1.0 - c))),
        "X3_y": -s / (2.0 * (1.0 - c)),
        "K_center_y": k.center.y,
        "K_radius": k.radius,
        "xi1_x": xi_x,
        "xi1_y": xi_y,
        "envelope_residual": envelope_residual,
    }


def _cmd_continuous(args: argparse.Namespace) -> int:
    from .continuous import T_CRITICAL, T_MAX

    t_min = args.t_min
    t_max = T_MAX if args.t_max is None else args.t_max
    if args.degrees:
        t_min, t_max = math.radians(t_min), math.radians(t_max)
    if not (0.0 < t_min < t_max <= T_MAX):
        print("error: need 0 < t_min < t_max <= pi/3", file=sys.stderr)
        return 2
    n = args.samples
    # the last point can round one ulp past t_max, and past pi/3 the
    # Brocard circle has a negative radius; pin it to t_max
    grid = [t_min] if n == 1 else [
        min(t_min + (t_max - t_min) * k / (n - 1), t_max) for k in range(n)
    ]
    # the extremal parameters are irrational; splice them in when in range
    for special in (math.acos(0.75), T_CRITICAL):
        if t_min <= special <= t_max and all(
            abs(special - t) > 1e-12 for t in grid
        ):
            grid.append(special)
    grid.sort()
    rows = [_continuous_row(t) for t in grid]
    return _emit_table(_CONTINUOUS_COLUMNS, rows, args.format, args.out)


# ---------------------------------------------------------------------------
# figure


def _cmd_figure(args: argparse.Namespace) -> int:
    from .porism import IsoscelesParams

    if args.format not in (None, "svg"):
        print("error: figures are svg only", file=sys.stderr)
        return 2
    _, takes_iso = FIGURES[args.name]
    iso = None
    if args.d is not None or args.h is not None:
        if not takes_iso:
            print(f"error: {args.name} takes no --d/--h", file=sys.stderr)
            return 2
        if args.d is None or args.h is None:
            print("error: give both --d and --h", file=sys.stderr)
            return 2
        iso = IsoscelesParams(args.d, args.h)
    try:
        svg = render_figure(args.name, iso)
    except FigureCheckError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    _write_output(svg, args.out)
    return 0


# ---------------------------------------------------------------------------
# argument parsing


def _common_flags(parser: argparse.ArgumentParser, top: bool) -> None:
    """Shared flags, accepted both before and after the subcommand.

    The top-level parser owns the defaults; the per-command copies use
    SUPPRESS so they only override when given explicitly.
    """

    def dflt(value: object) -> object:
        return value if top else argparse.SUPPRESS

    parser.add_argument(
        "--tolerance",
        type=float,
        default=dflt(1e-9),
        help="scene-level residual tolerance (default 1e-9)",
    )
    parser.add_argument(
        "--samples", type=int, default=dflt(200), help="sample count (default 200)"
    )
    parser.add_argument(
        "--seed", type=int, default=dflt(0), help="RNG seed (default 0)"
    )
    parser.add_argument(
        "--format",
        choices=("csv", "json", "svg"),
        default=dflt(None),
        help="output format; tables default to csv (verify: json lines), "
        "figures to svg",
    )
    parser.add_argument(
        "--out", default=dflt(None), metavar="PATH", help="output file"
    )
    parser.add_argument(
        "--degrees",
        action="store_true",
        default=dflt(False),
        help="interpret angle arguments as degrees",
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="brocard",
        description="Brocard porism geometry: residual checks, recurrence "
        "orbits, family tables, figures.",
    )
    _common_flags(parser, top=True)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="run the named residual checks")
    _common_flags(p, top=False)
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
        "--u0", type=float, required=True, help="starting Brocard cotangent (>= sqrt 3)"
    )
    p.add_argument("--steps", type=int, default=6, help="generations to trace")
    p.add_argument(
        "--direction",
        choices=("forward", "back"),
        default="forward",
        help="forward shrinks toward equilateral; back grows",
    )
    _common_flags(p, top=False)
    p.set_defaults(fn=_cmd_orbit)

    p = sub.add_parser(
        "family", help="sample member triangles of the porism with half-base d, height h"
    )
    p.add_argument("--d", type=float, default=1.0, help="half-base (default 1)")
    p.add_argument("--h", type=float, default=2.0, help="height (default 2)")
    _common_flags(p, top=False)
    p.set_defaults(fn=_cmd_family)

    p = sub.add_parser(
        "continuous",
        help="sample the one-parameter family on [t_min, t_max]; the grid "
        "also includes acos(3/4) and acos(3/5) when they fall inside",
    )
    p.add_argument("--t-min", type=float, default=0.1, dest="t_min")
    p.add_argument("--t-max", type=float, default=None, dest="t_max")  # None: T_MAX
    _common_flags(p, top=False)
    p.set_defaults(fn=_cmd_continuous)

    p = sub.add_parser("figure", help="emit a deterministic SVG figure")
    p.add_argument("name", choices=sorted(FIGURES))
    p.add_argument("--d", type=float, default=None, help="half-base (porism figures)")
    p.add_argument("--h", type=float, default=None, help="height (porism figures)")
    _common_flags(p, top=False)
    p.set_defaults(fn=_cmd_figure)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    if not 0.0 < args.tolerance < math.inf:
        print("error: --tolerance must be finite and > 0", file=sys.stderr)
        return 2
    if args.samples < 1:
        print("error: --samples must be >= 1", file=sys.stderr)
        return 2
    try:
        return args.fn(args)
    except (GeometryError, ArithmeticError, OSError) as exc:
        # inputs outside the geometric or floating-point domain, or an
        # unwritable --out path; no command has printed its table yet
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
