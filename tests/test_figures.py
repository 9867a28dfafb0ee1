import math

import pytest
from hypothesis import example, given, settings, strategies as st

from brocard.figures import FIGURES, _Canvas, render_figure
from brocard.geom import GeometryError, Point
from brocard.porism import IsoscelesParams
from reference import poly

# every double: signed zeros, subnormals, +-1e300, inf and NaN included
_COORD = st.floats() | st.sampled_from((0.0, -0.0, 5e-324, -5e-324, 1e-310, 1e300, -1e300))
_BOX = st.tuples(st.floats(-10.0, 10.0), st.floats(0.01, 100.0),
                 st.floats(-10.0, 10.0), st.floats(0.01, 100.0))


def test_all_figures_render():
    for name in FIGURES:
        svg = render_figure(name)
        assert svg.startswith("<svg")
        assert svg.rstrip().endswith("</svg>")
        assert "NaN" not in svg


def test_rendering_is_deterministic():
    for name in FIGURES:
        assert render_figure(name) == render_figure(name)


def test_member_figures_take_a_porism():
    base = render_figure("fig2")
    other = render_figure("fig2", IsoscelesParams(1.2, 2.6))
    assert base != other


def test_family_figures_reject_a_porism():
    for name in ("fig6", "fig7"):
        with pytest.raises(GeometryError, match=f"^{name} takes no porism parameters$"):
            render_figure(name, IsoscelesParams(1.0, 2.0))


def test_unknown_figure_name():
    with pytest.raises(KeyError):
        render_figure("fig99")


def test_figure_table_lists_parameter_support():
    assert FIGURES["fig2"][1] is True
    assert FIGURES["fig6"][1] is False
    assert FIGURES["fig7"][1] is False


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(_COORD, _COORD), max_size=12), st.booleans(), _BOX)
@example([], False, (-1.0, 2.0, -1.0, 2.0))
@example([(0.0, -0.0)], True, (-1.0, 2.0, -1.0, 2.0))
@example([(5e-324, -5e-324), (1e300, -1e300), (math.inf, -math.inf), (math.nan, 1.0)],
         False, (-0.78, 1.56, -1.16, 2.18))
def test_poly_formats_as_the_per_point_route(pairs, as_points, box):
    """One ``%`` over the flat coordinates writes the bytes that formatting
    each point through ``sx`` and ``sy`` wrote, for ``Point``s and pairs."""
    xmin, width, ymin, height = box
    points = [Point(x, y) for x, y in pairs] if as_points else pairs
    fast, slow = (_Canvas(xmin, xmin + width, ymin, ymin + height) for _ in range(2))
    fast.poly("polyline", points, "quartic")
    poly(slow, "polyline", points, "quartic")
    assert fast.elements[0].encode() == slow.elements[0].encode()
