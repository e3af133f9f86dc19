"""The inlined flux-RK4 kernel and its one-frame reactions against the
generic step and the wrapped reactions they replaced.

``solver._flux_rk4`` computes the classical RK4 step of the flux system with
its four stages inline, the midpoint e^(n t) shared by stages 2 and 3, and
stage 1 and the start e^(n t) handed in by the caller.  The references below
are the generic right-hand side and step that ``shoot`` and the scaled
first-zero integration used before; every result must equal theirs bit for
bit, single steps and whole trajectories alike.  Each reaction's
``scalar_value(floor)`` is one closure with its clamps inline; it must equal
the min/max composition it replaced, nan, -0.0 and errors included.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from plaplab import (
    BlowUpError,
    EvaluationError,
    Exponential,
    Power,
    ProblemSpec,
    Tabulated,
    bifurcation_curve,
    make_grid,
    shoot,
)
from plaplab import solver


def reference_flux_rhs(n, p, g):
    """rhs(t, u, w) = (du/dt, dw/dt) of the flux system in t = log r."""
    q = 1.0 / (p - 1.0)

    def rhs(t_, u_, w_):
        du = 0.0
        if w_ != 0.0:
            mag = q * (math.log(abs(w_)) + (1.0 - n) * t_) + t_
            du = math.copysign(math.exp(mag), w_)
        return du, -math.exp(n * t_) * g(u_)

    return rhs


def reference_rk4_step(rhs, x, a, b, h):
    """One classical RK4 step of (a, b)' = rhs(x, a, b) from x to x + h."""
    k1a, k1b = rhs(x, a, b)
    k2a, k2b = rhs(x + h / 2, a + h / 2 * k1a, b + h / 2 * k1b)
    k3a, k3b = rhs(x + h / 2, a + h / 2 * k2a, b + h / 2 * k2b)
    k4a, k4b = rhs(x + h, a + h * k3a, b + h * k3b)
    a += h / 6 * (k1a + 2 * k2a + 2 * k3a + k4a)
    b += h / 6 * (k1b + 2 * k2b + 2 * k3b + k4b)
    return a, b


def same(a, b):
    """Bit equality of two floats, nan equal to nan and 0.0 apart from -0.0."""
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return a == b and math.copysign(1.0, a) == math.copysign(1.0, b)


def outcome(fn, *args):
    """fn(*args), or the type and message of the ArithmeticError or
    EvaluationError it raised."""
    try:
        return fn(*args)
    except (ArithmeticError, EvaluationError) as exc:
        return (type(exc).__name__, str(exc))


def cubic_table(t0, t1, nodes):
    """(1+u)^3 with exact slopes on ``nodes`` knots from t0 to t1."""
    ts = np.linspace(t0, t1, nodes)
    return Tabulated(tuple(ts), tuple((1.0 + ts) ** 3), tuple(3.0 * (1.0 + ts) ** 2))


def composed(f, u, floor):
    """The reaction at u as evaluated before its closure took the clamps in:
    min/max around ``math.exp`` and ``**``, and for a table with a floor its
    first knot below the table (``shoot``'s former wrapper) around the array
    ``value``."""
    x = u if floor is None else max(u, floor)
    if isinstance(f, Exponential):
        return f.scale * math.exp(min(x, 700.0))
    if isinstance(f, Power):
        return f.scale * (1.0 + x) ** f.m
    if floor is not None and x < f.t[0] - 1e-12:
        x = f.t[0]
    return float(f.value(x))


CLOSURE_REACTIONS = [
    Exponential(1.5),
    Exponential(-0.25),
    Power(m=3.0),
    Power(m=2.5, scale=-2.0),
    Power(m=-1.5),
    cubic_table(0.0, 4.0, 81),
    cubic_table(-0.5, 4.0, 9).with_scale(-3.0),
]
# nan, signed zeros, the exponential's cap, below -1 and around both tables' bands
SPECIAL = [math.nan, 0.0, -0.0, 700.0, 700.5, 1e300, math.inf, -math.inf, -1.0,
           -0.5 - 5e-13, -1e-13, -1e-11, 4.0, 4.0 + 5e-13, 5.0]


@settings(max_examples=600, deadline=None)
@given(
    index=st.integers(0, len(CLOSURE_REACTIONS) - 1),
    u=st.sampled_from(SPECIAL) | st.floats(),
    floor=st.sampled_from([None, -math.inf, 0.0, -0.0, -0.5, 700.0, 800.0]) | st.floats(),
)
@example(index=0, u=math.nan, floor=0.0)
@example(index=0, u=701.0, floor=None)
@example(index=0, u=-3.0, floor=0.0)
@example(index=5, u=-1e-3, floor=-math.inf)
@example(index=5, u=-1e-3, floor=None)
def test_scalar_closure_equals_the_composition_it_replaced(index, u, floor):
    f = CLOSURE_REACTIONS[index]
    closure = f.scalar_value() if floor is None else f.scalar_value(floor)
    # repr tells -0.0 from 0.0, round-trips every float and shows nan
    assert repr(outcome(closure, u)) == repr(outcome(composed, f, u, floor))


def test_table_closure_clamps_below_and_raises_above_only_with_a_floor():
    table = cubic_table(0.0, 4.0, 81)
    knot, band = table.value(0.0), table.value(-5e-13)
    assert table.scalar_value(-math.inf)(-0.1) == knot == table.scalar_value(0.0)(-0.1)
    assert table.scalar_value(-math.inf)(-5e-13) == band != knot  # the band extrapolates
    assert table.scalar_value(-1.0)(-5e-13) == band
    for floor in (None, -math.inf, 0.0):
        with pytest.raises(EvaluationError, match=r"outside \[0.0, 4.0\]"):
            table.scalar_value(floor)(4.0 + 1e-9)
    with pytest.raises(EvaluationError, match=r"outside \[0.0, 4.0\]"):
        table.scalar_value()(-1e-9)


REACTIONS = {
    "exp": Exponential(1.0).scalar_value(),
    "power": Power(m=3.0).scalar_value(),
    "negative": Power(m=1.0, scale=-2.0).scalar_value(),
}


@settings(max_examples=400, deadline=None)
@given(
    n=st.floats(1.0, 30.0),
    p=st.floats(1.1, 6.0),
    x=st.floats(-40.0, 2.0),
    h=st.floats(1e-4, 0.2) | st.floats(-0.2, -1e-4),
    u=st.floats(-0.5, 20.0),
    w_sign=st.sampled_from([-1.0, 0.0, 1.0]),
    w_exp=st.floats(-300.0, 3.0),
    reaction=st.sampled_from(sorted(REACTIONS)),
)
def test_single_step_is_bit_identical(n, p, x, h, u, w_sign, w_exp, reaction):
    g = REACTIONS[reaction]
    w = w_sign * 10.0**w_exp
    slope, step = solver._flux_rk4(n, p, g, h)
    rhs = reference_flux_rhs(n, p, g)
    expected = outcome(reference_rk4_step, rhs, x, u, w, h)

    def kernel():
        return step(x, u, w, slope(x, w), math.exp(n * x))

    got = outcome(kernel)
    if isinstance(expected[0], str):
        assert got == expected
        return
    assert not isinstance(got[0], str), got
    assert same(slope(x, w), rhs(x, u, w)[0])
    assert same(got[0], expected[0]) and same(got[1], expected[1])
    assert same(got[2], math.exp(n * (x + h)))


def reference_kernel(violations):
    """A ``_flux_rk4`` stand-in that steps with the references and ignores
    the stage-1 slope and e^(n x) it is handed, noting each that differs
    from its recomputed value."""

    def flux_rk4(n, p, g, h):
        rhs = reference_flux_rhs(n, p, g)
        rhs_no_source = reference_flux_rhs(n, p, lambda u_: 0.0)

        def slope(t, w):
            return rhs_no_source(t, 0.0, w)[0]

        def step(x, u, w, du1, e1):
            if not (same(du1, slope(x, w)) and same(e1, math.exp(n * x))):
                violations.append((x, du1, e1))
            u, w = reference_rk4_step(rhs, x, u, w, h)
            return u, w, math.exp(n * (x + h))

        return slope, step

    return flux_rk4


CURVES = [
    ("disk", ProblemSpec(2.0, 2.0, Exponential(1.0)), [0.5, 0.9, 1.2, 1.5, 2.0, 3.0]),
    ("n5", ProblemSpec(5.0, 2.0, Exponential(1.0)), [1.1, 3.9, 10.2]),
    ("n12", ProblemSpec(12.0, 2.0, Exponential(1.0)), [0.9, 4.2, 8.1, 300.0]),
    ("p1.5", ProblemSpec(3.0, 1.5, Exponential(1.0)), [0.5, 2.0]),
    ("negative", ProblemSpec(3.0, 2.0, Power(m=1.0, scale=-1.0)), [0.5, 2.0]),
    # the certifying shoot's RK4 stages dip below the table's first knot
    ("table", ProblemSpec(3.0, 2.0, cubic_table(0.0, 4.0, 81)), [0.5, 1.0, 2.0, 3.0]),
]


def points(spec, centres, grid):
    return [
        (pt.center_value, pt.lam, pt.boundary_residual, pt.converged, pt.iterations)
        for pt in bifurcation_curve(spec, centres, grid)
    ]


def shot(spec, m_val, grid, **kwargs):
    try:
        res = shoot(spec, m_val, grid, **kwargs)
    except BlowUpError as exc:
        return str(exc)
    return res.profile.u.tobytes(), res.profile.w.tobytes(), res.boundary_value, res.warnings


@pytest.mark.parametrize("name, spec, centres", CURVES, ids=[c[0] for c in CURVES])
def test_bifurcation_points_equal_reference_stepped_run(name, spec, centres, grid2000, monkeypatch):
    got = points(spec, centres, grid2000)
    violations = []
    monkeypatch.setattr(solver, "_flux_rk4", reference_kernel(violations))
    expected = points(spec, centres, grid2000)
    assert violations == []
    # nan == nan fails, so compare the reprs
    assert [tuple(map(repr, pt)) for pt in got] == [tuple(map(repr, pt)) for pt in expected]
    if name == "negative":
        assert not any(pt[3] for pt in got)
    if name == "n12":
        assert got[-1][3] is False


SHOOTS = [
    (ProblemSpec(2.0, 2.0, Exponential(2.0)), 1.0, {}),
    (ProblemSpec(5.0, 3.0, Exponential(1.0)), 2.0, {}),
    (ProblemSpec(3.0, 1.5, Exponential(0.5)), 1.0, {}),
    (ProblemSpec(12.0, 2.0, Exponential(19.0)), 6.0, {}),
    # a negative reaction: u rises and the flux is positive, both warnings
    (ProblemSpec(3.0, 2.0, Power(m=1.0, scale=-1.0)), 0.5, {}),
    # blow-ups: the guard, and an overflow inside a stage
    (ProblemSpec(1.0, 2.0, Exponential(1.0)), 10.0, {"u_guard": 100.0}),
    (ProblemSpec(3.0, 2.0, Power(m=9.0, scale=-1e6)), 5.0, {"u_guard": 1e300}),
    # above the curve's lambda (1.099 at M = 2), so u falls below the table
    (ProblemSpec(3.0, 2.0, cubic_table(0.0, 4.0, 81).with_scale(1.2)), 2.0, {}),
]


@pytest.mark.parametrize("spec, m_val, kwargs", SHOOTS)
def test_shoot_equals_reference_stepped_run(spec, m_val, kwargs, monkeypatch):
    grid = make_grid(1e-8, 500)
    got = shot(spec, m_val, grid, **kwargs)
    violations = []
    monkeypatch.setattr(solver, "_flux_rk4", reference_kernel(violations))
    assert got == shot(spec, m_val, grid, **kwargs)
    assert violations == []


def test_reference_shoot_cases_cover_warnings_and_blow_ups():
    grid = make_grid(1e-8, 500)
    results = [shot(spec, m_val, grid, **kwargs) for spec, m_val, kwargs in SHOOTS]
    assert len(results[4][3]) == 2
    assert results[5].startswith("|u| exceeded 100 ")
    assert results[6].startswith("overflow during integration")
    assert all(np.isfinite(np.frombuffer(r[0])).all() for r in results[:4])
    assert results[7][2] < -1e-3  # so stages ran on the table's clamp
