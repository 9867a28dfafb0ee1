import contextlib
import io
import json
import math
import random
from typing import NamedTuple

import pytest

from brocard import cli
from brocard.geom import GeometryError, Point, Pose
from brocard.porism import IsoscelesParams, Ru_from_dh, scene_from_Ru, scene_member


class CliRun(NamedTuple):
    returncode: int
    stdout: str
    stderr: str


def run_cli(argv):
    """``brocard`` run in process on ``argv``: its exit code, stdout and
    stderr; an argparse exit is read as its code."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse usage errors and --help
            code = exc.code
    return CliRun(code, out.getvalue(), err.getvalue())


def _reject_constant(name):
    raise ValueError(f"bare {name} is not JSON")


def parse_jsonl(text):
    """The rows of a JSON-lines table, read as strict RFC 8259: bare NaN and
    Infinity are rejected."""
    return [
        json.loads(line, parse_constant=_reject_constant)
        for line in text.splitlines()
        if line.strip()
    ]


MEMBERS = 240
CANONICAL = 60
# parameters where a sine or cosine of the member chart is exact or nearly
# zero; every fourth canonical member sits at one of them
EDGE_T = (0.0, 0.5 * math.pi, -0.5 * math.pi, math.pi)


@pytest.fixture(scope="session")
def posed_members():
    """(scene, member) pairs of random porisms, posed under both mirrors,
    every fourth under a quarter turn and the rest under a turn drawn
    uniformly in angle, at scales spread over 12 decades, then canonical
    (identity-pose) members over the same scales."""
    rng = random.Random(20261018)
    out = []
    while len(out) < MEMBERS:
        k = len(out)
        scale = 10.0 ** (12.0 * (k + rng.random()) / MEMBERS - 6.0)
        pose = Pose(
            Point(scale * rng.uniform(-3.0, 3.0), scale * rng.uniform(-3.0, 3.0)),
            0.5 * math.pi * (k // 8 % 4) if k % 4 == 0 else rng.uniform(-math.pi, math.pi),
            k // 4 % 2 == 1,
            scale,
        )
        iso = IsoscelesParams(rng.uniform(0.3, 2.0), rng.uniform(0.3, 4.0))
        try:
            scene = scene_from_Ru(Ru_from_dh(iso), pose)
            out.append((scene, scene_member(scene, rng.uniform(-math.pi, math.pi))))
        except GeometryError:
            continue
    while len(out) < MEMBERS + CANONICAL:
        k = len(out) - MEMBERS
        scale = 10.0 ** (12.0 * (k + rng.random()) / CANONICAL - 6.0)
        iso = IsoscelesParams(scale * rng.uniform(0.3, 2.0), scale * rng.uniform(0.3, 4.0))
        t = EDGE_T[k // 4 % 4] if k % 4 == 0 else rng.uniform(-math.pi, math.pi)
        try:
            scene = scene_from_Ru(Ru_from_dh(iso))
            out.append((scene, scene_member(scene, t)))
        except GeometryError:
            continue
    return out


def _same(kernel, reference, *args):
    """Both routes give equal values with equal reprs (so every bit and
    the sign of each zero agree), or raise the same type and message."""
    try:
        want = reference(*args)
    except Exception as exc:
        with pytest.raises(Exception) as got:
            kernel(*args)
        assert (type(got.value), str(got.value)) == (type(exc), str(exc))
        return
    got = kernel(*args)
    assert got == want
    assert repr(got) == repr(want)


@pytest.fixture(scope="session")
def same_route():
    return _same


def _value_semantics(value, text, other):
    """``value`` keeps the repr, ``==``, ``hash`` and immutability of the
    frozen dataclass it replaced; being a NamedTuple, it also equals, and
    iterates as, the plain tuple of its fields."""
    assert repr(value) == text
    fields = tuple(getattr(value, name) for name in value._fields)
    assert tuple(value) == fields and value == fields
    assert hash(value) == hash(fields)
    again = type(value)(*fields)
    assert type(again) is type(value) and repr(again) == text
    assert again == value and hash(again) == hash(value)
    assert type(other) is type(value) and other != value
    for name in value._fields:
        with pytest.raises(AttributeError):
            setattr(value, name, getattr(value, name))


@pytest.fixture(scope="session")
def value_semantics():
    return _value_semantics


def _raises_as_before(make, kind, message):
    """``make()`` raises exactly ``kind`` with exactly ``message``."""
    with pytest.raises(Exception) as got:
        make()
    assert (type(got.value), str(got.value)) == (kind, message)


@pytest.fixture(scope="session")
def raises_as_before():
    return _raises_as_before
