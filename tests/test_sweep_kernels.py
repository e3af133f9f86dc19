"""The monotone-iteration sweep's kernels against their reference forms.

The quadrature's cell integrals correlate each stencil with its window of
nodal values, and the tabulated reaction evaluates each cell's cubic from
its row of a coefficient table found among the interior knots.  Both must
give the same bits as the straightforward forms kept here as references.
The cubic Hermite basis form, which the coefficient table replaced, stays
as a cross-check within a few ulps.
"""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from numpy.lib.stride_tricks import sliding_window_view

from plaplab import Tabulated, make_grid, make_rule
from plaplab.core import EvaluationError


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


def limited_slopes(table):
    """The Fritsch-Carlson limit: for monotone data each slope is capped at
    three times the smaller of its adjacent secants."""
    t, g, d = (np.asarray(a) for a in (table.t, table.g, table.gp))
    secants = np.diff(g) / np.diff(t)
    if np.all(secants >= 0) and np.all(d >= 0):
        cap = 3.0 * np.minimum(np.r_[secants[:1], secants], np.r_[secants, secants[-1:]])
        d = np.minimum(d, cap)
    return t, g, d


def cell_of(x, table):
    """Each point's cell: the full-table search index clipped into
    [0, len - 2], after the range check with its 1e-12 allowance."""
    t = np.asarray(table.t)
    if np.any(x < t[0] - 1e-12) or np.any(x > t[-1] + 1e-12):
        raise EvaluationError("outside the table")
    return np.clip(np.searchsorted(t, x, side="right") - 1, 0, len(t) - 2)


def coefficient_reference(x, table, want_derivative=False):
    """Reference: the cell's cubic in x - t_i, its coefficients derived
    here from the knot data, by Horner's rule; unscaled."""
    t, g, d = limited_slopes(table)
    i = cell_of(x, table)
    h = t[i + 1] - t[i]
    secant = (g[i + 1] - g[i]) / h
    c2 = (3.0 * secant - 2.0 * d[i] - d[i + 1]) / h
    c3 = (d[i] + d[i + 1] - 2.0 * secant) / (h * h)
    x = x - t[i]
    if want_derivative:
        return (3.0 * c3 * x + 2.0 * c2) * x + d[i]
    return ((c3 * x + c2) * x + d[i]) * x + g[i]


def hermite_basis_reference(x, table, want_derivative=False):
    """Cross-check: the cubic Hermite basis form; unscaled."""
    t, g, d = limited_slopes(table)
    i = cell_of(x, table)
    h = t[i + 1] - t[i]
    s = (x - t[i]) / h
    y0, y1, d0, d1 = g[i], g[i + 1], d[i], d[i + 1]
    if want_derivative:
        dh00 = 6 * s * s - 6 * s
        dh10 = 3 * s * s - 4 * s + 1
        dh01 = -dh00
        dh11 = 3 * s * s - 2 * s
        return (dh00 * y0 + dh01 * y1) / h + dh10 * d0 + dh11 * d1
    s2 = s * s
    s3 = s2 * s
    h00 = 2 * s3 - 3 * s2 + 1
    h10 = s3 - 2 * s2 + s
    h01 = -2 * s3 + 3 * s2
    h11 = s3 - s2
    return h00 * y0 + h01 * y1 + h * (h10 * d0 + h11 * d1)


def cell_scale(x, table, want_derivative=False):
    """max(|y0|, |y1|, h|d0|, h|d1|) of each point's cell, over h for a
    derivative: the size of the terms that the two forms round."""
    t, g, d = limited_slopes(table)
    i = cell_of(x, table)
    h = t[i + 1] - t[i]
    scale = np.max([abs(g[i]), abs(g[i + 1]), h * abs(d[i]), h * abs(d[i + 1])], axis=0)
    return scale / h if want_derivative else scale


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


# How far the coefficient form may lie from the Hermite basis form and from
# an exact cubic, in ulps of the cell's scale S = max(|y0|, |y1|, h|d0|,
# h|d1|), over h for a derivative.  Horner's terms reach 9 S in value and
# 18 S/h in derivative, so a couple of roundings of them alone come to about
# 9 and 18 ulps.  Measured worst cases: the two forms differed by 6 and 16
# (20,000 draws), and cubic data were reproduced to 8.6 and 20 (8,600
# draws).
VALUE_ULPS, DERIVATIVE_ULPS = 16.0, 32.0


def ulps(x, table, want_derivative):
    bound = DERIVATIVE_ULPS if want_derivative else VALUE_ULPS
    return bound * np.spacing(cell_scale(x, table, want_derivative))


@settings(deadline=None, max_examples=100)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1), nodes=st.integers(min_value=2, max_value=80))
def test_hermite_matches_clipped_index_reference(seed, nodes):
    table = random_table(seed, nodes)
    x = table_points(table, seed)
    for want_derivative, method in ((False, table.value), (True, table.derivative)):
        ref = coefficient_reference(x, table, want_derivative)
        assert np.array_equal(method(x), table.scale * ref)
        basis = hermite_basis_reference(x, table, want_derivative)
        assert np.all(np.abs(ref - basis) <= ulps(x, table, want_derivative))
    for outside in (table.t[0] - 1e-9, table.t[-1] + 1e-9):
        with pytest.raises(EvaluationError):
            table.value(np.array([table.t[0], outside]))
        with pytest.raises(EvaluationError):
            table.derivative(np.array([outside, table.t[-1]]))


@settings(deadline=None, max_examples=100)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1), nodes=st.integers(min_value=2, max_value=80))
def test_tabulated_reproduces_cubic_data(seed, nodes):
    """A table of a cubic with its exact slopes is that cubic, within the
    same bound.  The exact values are rational arithmetic on the floats the
    cubic's coefficients and the points are; draws whose slopes the
    Fritsch-Carlson limit changes interpolate other data and are skipped."""
    rng = np.random.default_rng(seed)
    a = [Fraction(float(c)) for c in rng.uniform(-2.0, 2.0, 4)]
    cubic = lambda u: ((a[3] * u + a[2]) * u + a[1]) * u + a[0]
    slope = lambda u: (3 * a[3] * u + 2 * a[2]) * u + a[1]
    exact = lambda f, xs: np.array([float(f(Fraction(float(v)))) for v in xs])
    t = np.cumsum(rng.uniform(0.01, 3.0, nodes)) - rng.uniform(0.0, 5.0)
    table = Tabulated(tuple(t), tuple(exact(cubic, t)), tuple(exact(slope, t)))
    assume(np.array_equal(limited_slopes(table)[2], table.gp))
    x = table_points(table, seed)[:-4]  # inside the table
    for want_derivative, method, f in ((False, table.value, cubic), (True, table.derivative, slope)):
        assert np.all(np.abs(method(x) - exact(f, x)) <= ulps(x, table, want_derivative))


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
    assert np.array_equal(got, want)
    for outside in (table.t[0] - 1e-9, table.t[-1] + 1e-9):
        with pytest.raises(EvaluationError):
            scalar(outside)
