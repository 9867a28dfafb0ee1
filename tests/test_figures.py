import pytest

from brocard.figures import FIGURES, render_figure
from brocard.geom import GeometryError
from brocard.porism import IsoscelesParams


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
