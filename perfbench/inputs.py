"""Seeded inputs of the workloads, standard library only.

The same seed gives the same inputs on every commit: nothing here asks
the program anything.
"""

from __future__ import annotations

import math
import random

SQRT3 = math.sqrt(3.0)

# ``brocard continuous`` defaults: t_min = 0.1, t_max = pi/3.
_T_MIN, _T_MAX = 0.1, math.pi / 3.0


def tall_shape(rng: random.Random) -> tuple[float, float]:
    """Half-base d and height h on the tall branch (h > sqrt3 d), clear of
    the equilateral limit: the u excess (sqrt3 d - h)^2 / (2dh) exceeds 1e-3."""
    while True:
        d = rng.uniform(0.5, 2.0)
        h = d * rng.uniform(1.85, 4.5)
        if (SQRT3 * d - h) ** 2 / (2.0 * d * h) > 1e-3:
            return d, h


def continuous_counts() -> list[int]:
    """``--samples`` values in 2..400 whose default grid stays within pi/3.

    The other counts put the last grid point, computed as the command
    computes it, one ulp past pi/3, where the command crashes (a known
    defect).  Timed ops must not fail, so they draw from these counts;
    the traced run counts the crashes on all of 2..400.
    """
    return [
        n for n in range(2, 401)
        if _T_MIN + (_T_MAX - _T_MIN) * (n - 1) / (n - 1) <= _T_MAX
    ]


def cli_cycle(seed: int, cycle: int, figure_shape: tuple[float, float]) -> list[list[str]]:
    """The nine ``brocard`` argument lists of one cli_cold cycle."""
    rng = random.Random(f"cli_cold:{seed}:{cycle}")
    d = rng.uniform(0.5, 2.0)
    h = d * rng.uniform(0.4, 4.0)
    fd, fh = (repr(v) for v in figure_shape)
    return [
        ["verify", "--seed", str(rng.randrange(10**6))],
        ["orbit", "--R0", repr(rng.uniform(0.5, 3.0)), "--u0", repr(rng.uniform(1.8, 6.0))],
        ["family", "--d", repr(d), "--h", repr(h)],
        ["continuous", "--samples", str(rng.choice(continuous_counts()))],
        ["figure", "fig2", "--d", fd, "--h", fh],
        ["figure", "fig4", "--d", fd, "--h", fh],
        ["figure", "fig5", "--d", fd, "--h", fh],
        ["figure", "fig6"],
        ["figure", "fig7"],
    ]
