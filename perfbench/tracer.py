"""Spans at the program's layer boundaries, recorded from outside.

``install`` rebinds each function in ``TRACED`` in every ``brocard``
module namespace that holds it, in default arguments that captured it
(``run_checks(step=step_forward)``), and on the ``Pose`` class, so calls
between layers are caught as well as the benchmark's own.  Nothing under
``src/`` is edited.  Spans stay in memory and are written out once, when
the traced process ends; ``aggregate`` turns span files into per-layer
counts and self times.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import types
from time import perf_counter

TRACED = {
    "geom": (
        "Pose.apply",
        "Pose.compose",
        "circumcircle",
        "ellipse_line_tangency_residual",
    ),
    "centers": (
        "standard_centers",
        "second_brocard_triangle",
        "brocard_points_by_construction",
    ),
    "porism": (
        "scene_from_Ru",
        "scene_member",
        "vertices_at",
        "closure_residuals",
        "Ru_from_dh",
    ),
    "recurrence": (
        "step_forward",
        "child_scene",
        "anti_scene",
        "orbit_scenes",
        "alternating_brocard_sequence",
    ),
    "continuous": (
        "bt_scene",
        "ellipse_Et",
        "envelope_points",
        "web_orthogonality_residuals",
        "family_extrema",
    ),
    "checks": ("run_checks",),
    "figures": ("render_figure",),
    "cli": ("main",),
}

# Spans whose call raised count as wasted attempts: resampled singular
# members and degenerate orbit stops.
RAISED = ("porism.vertices_at", "recurrence.child_scene")

# scene_from_Ru spans with the identity pose also count under this name,
# the case an identity fast path would move.
IDENTITY = "porism.scene_from_Ru.identity"


def span_names() -> list[str]:
    return [f"{module}.{name}" for module, names in TRACED.items() for name in names]


class Tracer:
    """Span store of one process: ``(name, start, end, parent, op, error)``."""

    def __init__(self) -> None:
        self.spans: list = []
        self.op = 0
        self._stack: list[int] = []

    def wrap(self, name: str, fn, identity_pose=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            label = name
            if identity_pose is not None:
                pose = args[1] if len(args) > 1 else kwargs.get("pose", identity_pose)
                if pose == identity_pose:
                    label = IDENTITY
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            error = None
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                error = type(exc).__name__
                raise
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = (label, start, end, parent, self.op, error)

        return traced

    def install(self) -> None:
        """Wrap every ``TRACED`` function; call after importing ``brocard.cli``."""
        modules = [
            m for n, m in sorted(sys.modules.items())
            if n == "brocard" or n.startswith("brocard.")
        ]
        functions = [
            f for m in modules for f in vars(m).values()
            if isinstance(f, types.FunctionType)
        ]
        for module_name, names in TRACED.items():
            module = importlib.import_module(f"brocard.{module_name}")
            for name in names:
                if "." in name:
                    cls_name, attr = name.split(".")
                    cls = getattr(module, cls_name)
                    setattr(cls, attr, self.wrap(f"{module_name}.{name}", vars(cls)[attr]))
                    continue
                original = getattr(module, name)
                identity = module.Pose.identity() if name == "scene_from_Ru" else None
                wrapped = self.wrap(f"{module_name}.{name}", original, identity)
                for m in modules:
                    for key, value in list(vars(m).items()):
                        if value is original:
                            setattr(m, key, wrapped)
                for f in functions:
                    if f.__defaults__ and any(d is original for d in f.__defaults__):
                        f.__defaults__ = tuple(
                            wrapped if d is original else d for d in f.__defaults__
                        )

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span))
                fh.write("\n")


def aggregate(paths) -> dict[str, list]:
    """``name -> [calls, self_s, raised]`` over the span files."""
    stats: dict[str, list] = {}
    for path in paths:
        with open(path) as fh:
            spans = [json.loads(line) for line in fh]
        covered = [0.0] * len(spans)
        for _, start, end, parent, _, _ in spans:
            if parent >= 0:
                covered[parent] += end - start
        for i, (name, start, end, _, _, error) in enumerate(spans):
            names = [name]
            if name == IDENTITY:
                names.append("porism.scene_from_Ru")
            for n in names:
                rec = stats.setdefault(n, [0, 0.0, 0])
                rec[0] += 1
                rec[1] += end - start - covered[i]
                rec[2] += error is not None
    return stats
