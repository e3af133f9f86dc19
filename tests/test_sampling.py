"""Properties of the Gauss sampling behind the stability integrals."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from plaplab import PowerCutoff, RadialProfile, core, make_grid
from plaplab.stability import _GL4_NODES, _GL4_WEIGHTS, _cut_points, _gauss_points


def test_gauss_legendre_literals_are_leggauss():
    # the rules are written out so that importing plaplab does not import
    # numpy.polynomial; they must be leggauss's bit for bit
    from numpy.polynomial.legendre import leggauss

    for points, nodes, weights in (
        (6, core._GL_NODES, core._GL_WEIGHTS),
        (4, _GL4_NODES, _GL4_WEIGHTS),
    ):
        ref_nodes, ref_weights = leggauss(points)
        assert nodes.dtype == weights.dtype == np.float64
        assert nodes.tobytes() == ref_nodes.tobytes()
        assert weights.tobytes() == ref_weights.tobytes()


def gauss_points_loop(bounds, n):
    """Reference: one np.linspace of panels per cell, concatenated."""
    tg_parts, wg_parts = [], []
    for a, b in zip(bounds[:-1], bounds[1:]):
        panels = 1 + int((n + 8.0) * (b - a) / 0.25)
        edges = np.linspace(a, b, panels + 1)
        mid = 0.5 * (edges[:-1] + edges[1:])
        half = 0.5 * np.diff(edges)
        tg_parts.append((mid[:, None] + half[:, None] * _GL4_NODES).ravel())
        wg_parts.append((half[:, None] * _GL4_WEIGHTS).ravel())
    return np.concatenate(tg_parts), np.concatenate(wg_parts)


dimensions = st.floats(min_value=1.0, max_value=30.0)


@settings(deadline=None)
@given(
    start=st.floats(min_value=-25.0, max_value=0.0),
    # widths from far below to far above one panel, 0.25 / (n + 8)
    widths=st.lists(st.floats(min_value=1e-9, max_value=1.5), min_size=1, max_size=40),
    n=dimensions,
)
def test_gauss_points_match_loop_reference(start, widths, n):
    bounds = start + np.concatenate([[0.0], np.cumsum(widths)])
    tg, wg = _gauss_points(bounds, n)
    tg_ref, wg_ref = gauss_points_loop(bounds, n)
    assert np.array_equal(tg, tg_ref)
    assert np.array_equal(wg, wg_ref)


@settings(deadline=None)
@given(
    n=dimensions,
    log_r_min=st.floats(min_value=-10.0, max_value=-0.5),
    count=st.integers(min_value=16, max_value=3000),
    log_eps=st.floats(min_value=-10.0, max_value=-0.01),
)
def test_sample_weights_positive_and_exact_on_constants(n, log_r_min, count, log_eps):
    grid = make_grid(10.0**log_r_min, count)
    flat = RadialProfile(grid=grid, n=n, p=2.0, u=np.zeros(count), w=np.zeros(count))
    r, weights = _cut_points(flat, [PowerCutoff(1.0, 10.0**log_eps)])
    assert np.all(weights > 0)
    assert np.all((r >= grid.r_min) & (r <= 1.0))
    # with the head term over [0, r_min], a constant integrates to 1/n
    total = weights.sum() + grid.r_min**n / n
    assert abs(total - 1.0 / n) <= 1e-12 / n
