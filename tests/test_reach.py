"""Every def and lambda under ``src/brocard`` runs in some ``brocard`` command.

The probe runs every command form (``verify`` as JSON, as CSV and with
``--mutate``, ``orbit`` both ways, ``family``, ``continuous`` in radians and
in degrees, every figure, and the usage and domain errors) through
``cli.main`` in one fresh process, with ``sys.setprofile`` installed before
the modules are imported and one worker, so no check runs in a forked child.
A function no command calls is either dead or a second route to a value; a
test that needs such a route as a reference keeps it in ``tests/reference.py``.

Run as a script (with ``brocard`` importable), the file prints each
unreached function as a JSON pair ``[file name, qualified name]``.
"""

from __future__ import annotations

import importlib.util
import inspect
import json
import os
import subprocess
import sys
import tempfile

import pytest

# reached where no command goes: the forked workers (the probe runs one
# worker), the guards against building or setting around a value's
# constructor, the package's lazy attribute hooks, the registry listing the
# bench reads, the rows of a lost worker, and ``Pose.apply``, which the
# bench's tracer wraps on the class by that name
ALLOWED = {
    ("_workers.py", "worker_count"),
    ("_workers.py", "split.<locals>.start_child"),
    ("_workers.py", "_pull"),
    ("_workers.py", "_serve"),
    ("geom.py", "Validating._make"),
    ("geom.py", "Validating.__setattr__"),
    ("geom.py", "Pose.apply"),
    ("__init__.py", "__getattr__"),
    ("__init__.py", "__dir__"),
    ("checks.py", "check_ids"),
}

COMPREHENSIONS = {"<listcomp>", "<dictcomp>", "<setcomp>", "<genexpr>"}


def _functions(path: str) -> set[tuple[int, str]]:
    """(first line, qualified name) of every def and lambda in one file."""
    with open(path, encoding="utf-8") as fh:
        todo = [compile(fh.read(), path, "exec")]
    found = set()
    while todo:
        code = todo.pop()
        todo += [c for c in code.co_consts if hasattr(c, "co_code")]
        # CO_OPTIMIZED marks a function's code, not a module's or a class body's
        if code.co_flags & inspect.CO_OPTIMIZED and code.co_name not in COMPREHENSIONS:
            found.add((code.co_firstlineno, code.co_qualname))
    return found


def _commands(out: str, figures: list[str]) -> list[list[str]]:
    return [
        ["verify", "--samples", "1", "--out", out],
        ["verify", "--samples", "1", "--format", "csv", "--out", out],
        *(["verify", "--samples", "1", "--mutate", name, "--out", out]
          for name in ("flip-step-sign", "nudge-step-R", "nudge-step-excess")),
        ["verify", "--filter", "no.such.check"],
        ["orbit", "--R0", "1", "--u0", "2", "--out", out],
        ["orbit", "--R0", "1", "--u0", "2", "--direction", "back", "--format", "json",
         "--out", out],
        ["orbit", "--R0", "1", "--u0", "2", "--steps", "-1"],
        ["orbit", "--R0", "1", "--u0", "1"],
        ["family", "--samples", "8", "--out", out],
        ["family", "--samples", "4", "--format", "json", "--out", out],
        ["family", "--samples", "0"],
        ["continuous", "--samples", "5", "--out", out],
        ["continuous", "--samples", "1", "--degrees", "--t-min", "10", "--t-max", "60",
         "--format", "json", "--out", out],
        ["continuous", "--t-min", "1e-320"],
        ["continuous", "--t-min", "2", "--t-max", "1"],
        ["--samples", "1", "verify"],
        *(["figure", name, "--out", out] for name in figures),
        ["figure", "fig2", "--d", "1", "--h", "2", "--out", out],
        ["figure", "fig6", "--d", "1", "--h", "2"],
        ["figure", "fig2", "--d", "1"],
    ]


def probe() -> list[tuple[str, str]]:
    """The unreached functions, as (file name, qualified name)."""
    here = os.path.dirname(importlib.util.find_spec("brocard").origin)
    reached = set()

    def profile(frame, event, arg):
        if event == "call" and frame.f_code.co_filename.startswith(here):
            code = frame.f_code
            reached.add((code.co_filename, code.co_firstlineno, code.co_qualname))

    sys.setprofile(profile)
    try:
        # import_module, not ``from brocard import``, which would ask the
        # package's __getattr__ first
        workers = importlib.import_module("brocard._workers")
        cli = importlib.import_module("brocard.cli")
        workers.worker_count = lambda items: 1
        with tempfile.TemporaryDirectory() as tmp:
            stderr, sys.stderr = sys.stderr, open(os.devnull, "w")
            try:
                for argv in _commands(os.path.join(tmp, "out"), sorted(cli.FIGURES)):
                    cli.main(argv)
            finally:
                sys.stderr.close()
                sys.stderr = stderr
    finally:
        sys.setprofile(None)
    return [
        (name, qualname)
        for name in sorted(os.listdir(here)) if name.endswith(".py")
        for line, qualname in sorted(_functions(os.path.join(here, name)))
        if (os.path.join(here, name), line, qualname) not in reached
    ]


@pytest.mark.skipif(sys.version_info < (3, 11), reason="co_qualname is new in 3.11")
def test_only_the_allowlist_is_unreached():
    p = subprocess.run([sys.executable, __file__], capture_output=True, text=True, timeout=300)
    assert p.returncode == 0, p.stderr
    unreached = {tuple(json.loads(line)) for line in p.stdout.splitlines()}
    assert unreached - ALLOWED == set(), "functions no command runs"
    assert ALLOWED - unreached == set(), "allowed functions that a command runs or that are gone"


if __name__ == "__main__":
    for pair in probe():
        print(json.dumps(pair))
