import math
import random

import pytest

from brocard.geom import GeometryError, Point, Pose
from brocard.porism import IsoscelesParams, Ru_from_dh, scene_from_Ru, scene_member

MEMBERS = 240


@pytest.fixture(scope="session")
def posed_members():
    """(scene, member) pairs of random porisms, posed under every
    quarter-turn and both mirrors, at scales spread over 12 decades."""
    rng = random.Random(20261018)
    out = []
    while len(out) < MEMBERS:
        k = len(out)
        scale = 10.0 ** (12.0 * (k + rng.random()) / MEMBERS - 6.0)
        pose = Pose(
            Point(scale * rng.uniform(-3.0, 3.0), scale * rng.uniform(-3.0, 3.0)),
            0.5 * math.pi * (k % 4),
            k // 4 % 2 == 1,
            scale,
        )
        iso = IsoscelesParams(rng.uniform(0.3, 2.0), rng.uniform(0.3, 4.0))
        try:
            scene = scene_from_Ru(Ru_from_dh(iso), pose)
            out.append((scene, scene_member(scene, rng.uniform(-math.pi, math.pi))))
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
