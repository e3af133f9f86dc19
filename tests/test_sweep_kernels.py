"""The monotone-iteration sweep's kernels against their reference forms.

The quadrature's cell integrals correlate each stencil with its window of
nodal values, and the tabulated reaction's vectorised Hermite evaluation
finds its cell among the interior knots.  Both must give the same bits as the
straightforward forms kept here as references.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.lib.stride_tricks import sliding_window_view

from plaplab import Tabulated, make_grid, make_rule
from plaplab.core import EvaluationError, _hermite_eval


def cells_reference(rule, h):
    """Reference: each cell as a (windows x stencil) matrix-vector product."""
    if rule._stencil == 2:
        return (sliding_window_view(h, 2) @ rule._cw_interior) * rule._rn_cells
    cells = np.empty(len(h) - 1)
    cells[1:-1] = (sliding_window_view(h, 4) @ rule._cw_interior) * rule._rn_cells[1:-1]
    cells[0] = (h[:4] @ rule._cw_first) * rule._rn_cells[0]
    cells[-1] = (h[-4:] @ rule._cw_last) * rule._rn_cells[-1]
    return cells


def from_zero_reference(rule, h):
    out = np.empty(len(h))
    out[0] = rule.head * h[0]
    np.cumsum(cells_reference(rule, h), out=out[1:])
    out[1:] += out[0]
    return out


def to_one_reference(rule, h):
    out = np.zeros(len(h))
    out[:-1] = np.cumsum(cells_reference(rule, h)[::-1])[::-1]
    return out


def hermite_reference(t, knots, values, slopes, want_derivative=False):
    """Reference: clip the full-table search index into [0, len - 2]."""
    t = np.asarray(t, dtype=float)
    if np.any(t < knots[0] - 1e-12) or np.any(t > knots[-1] + 1e-12):
        raise EvaluationError("outside the table")
    idx = np.clip(np.searchsorted(knots, t, side="right") - 1, 0, len(knots) - 2)
    h = knots[idx + 1] - knots[idx]
    s = (t - knots[idx]) / h
    y0, y1 = values[idx], values[idx + 1]
    d0, d1 = slopes[idx], slopes[idx + 1]
    if want_derivative:
        dh00 = 6 * s * s - 6 * s
        dh10 = 3 * s * s - 4 * s + 1
        dh01 = -dh00
        dh11 = 3 * s * s - 2 * s
        return (dh00 * y0 + dh01 * y1) / h + dh10 * d0 + dh11 * d1
    s3 = s * s * s
    h00 = 2 * s3 - 3 * s**2 + 1
    h10 = s3 - 2 * s**2 + s
    h01 = -2 * s3 + 3 * s**2
    h11 = s3 - s**2
    return h00 * y0 + h01 * y1 + h * (h10 * d0 + h11 * d1)


def integrand(seed, count, log_scale):
    """Signed values over many magnitudes, as sweeps and tests produce."""
    rng = np.random.default_rng(seed)
    return rng.standard_normal(count) * 10.0 ** rng.uniform(-log_scale, log_scale, count)


@settings(deadline=None, max_examples=150)
@given(
    n=st.floats(min_value=1.0, max_value=30.0),
    log_r_min=st.floats(min_value=-10.0, max_value=-0.5),
    count=st.integers(min_value=16, max_value=3000),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    log_scale=st.floats(min_value=0.0, max_value=12.0),
)
# the piecewise-linear fallback: n * dt too large for the cubic stencils
@example(n=12.0, log_r_min=-6.0, count=16, seed=0, log_scale=3.0)
def test_quadrature_matches_window_reference(n, log_r_min, count, seed, log_scale):
    rule = make_rule(make_grid(10.0**log_r_min, count), n)
    if (n, log_r_min, count) == (12.0, -6.0, 16):
        assert rule._stencil == 2
    h = integrand(seed, count, log_scale)
    assert np.array_equal(rule.cell_integrals(h), cells_reference(rule, h))
    assert np.array_equal(rule.cumulative_from_zero(h), from_zero_reference(rule, h))
    assert np.array_equal(rule.cumulative_to_one(h), to_one_reference(rule, h))


def random_table(seed, nodes):
    """Increasing positive data with nonnegative slopes on irregular knots."""
    rng = np.random.default_rng(seed)
    t = np.cumsum(rng.uniform(0.01, 3.0, nodes)) - rng.uniform(0.0, 5.0)
    g = 0.1 + np.cumsum(rng.uniform(0.0, 2.0, nodes))
    gp = rng.uniform(0.0, 4.0, nodes)
    return Tabulated(tuple(t), tuple(g), tuple(gp), scale=float(rng.uniform(0.2, 3.0)))


def table_points(table, seed):
    """Random points, every knot, and both ends with their 1e-12 allowance."""
    t = np.asarray(table.t)
    rng = np.random.default_rng(seed)
    ends = [t[0] - 1e-12, t[0], t[-1], t[-1] + 1e-12]
    return np.concatenate([rng.uniform(t[0], t[-1], 300), t, ends])


@settings(deadline=None, max_examples=100)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1), nodes=st.integers(min_value=2, max_value=80))
def test_hermite_matches_clipped_index_reference(seed, nodes):
    table = random_table(seed, nodes)
    x = table_points(table, seed)
    for want_derivative in (False, True):
        got = _hermite_eval(x, *table._table, want_derivative=want_derivative)
        ref = hermite_reference(x, *table._table, want_derivative=want_derivative)
        assert np.array_equal(got, ref)
    for outside in (table.t[0] - 1e-9, table.t[-1] + 1e-9):
        with pytest.raises(EvaluationError):
            _hermite_eval(np.array([table.t[0], outside]), *table._table)


@settings(deadline=None, max_examples=100)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1), nodes=st.integers(min_value=2, max_value=80))
# draws where libm's pow and numpy's array power rounded s**3 apart
@example(seed=3883, nodes=2)
@example(seed=42665, nodes=2)
def test_tabulated_scalar_value_agrees_with_value(seed, nodes):
    table = random_table(seed, nodes)
    scalar = table.scalar_value()
    x = table_points(table, seed)
    want = table.value(x)
    got = np.array([scalar(float(xi)) for xi in x])
    assert np.all(np.abs(got - want) <= 1e-15 * np.abs(want))
    for outside in (table.t[0] - 1e-9, table.t[-1] + 1e-9):
        with pytest.raises(EvaluationError):
            scalar(outside)
