"""The two one-frame RK4 loops and the one-frame reactions against the
generic step and the wrapped reactions they replaced.

``shoot``'s cell loop and ``solver._scaled_first_zero``'s march to the first
zero each take classical RK4 steps of the flux system with the four stages
written out in the loop body, stages 2 and 3 sharing e^(n t) at the midpoint.
Both have a reference written over the generic right-hand side
``reference_flux_rhs`` and step ``reference_rk4_step``: ``reference_shoot``
(in ``rk4_reference``, which keeps the whole trajectory) and
``reference_first_zero`` here.  Every result of the loops must equal theirs
bit for bit, short trajectories from arbitrary states, whole curves and
certificates alike, and the cases reach every exit of either loop.  Each
reaction's ``scalar_value(floor)`` is one closure with its clamp inline; it
must equal the max composition it replaced, nan, -0.0 and errors included,
and the power's ``math.pow`` must give the bits of ``**`` wherever that is
real.
"""

import functools
import math
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from plaplab import (
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
from rk4_reference import (
    BlowUpError,
    reference_certificate,
    reference_flux_rhs,
    reference_rk4_step,
    reference_shoot,
)


def outcome(fn, *args):
    """fn(*args), or the type and message of the ArithmeticError or
    ValueError it raised."""
    try:
        return fn(*args)
    except (ArithmeticError, ValueError) as exc:
        return (type(exc).__name__, str(exc))


def cubic_table(t0, t1, nodes):
    """(1+u)^3 with exact slopes on ``nodes`` knots from t0 to t1."""
    ts = np.linspace(t0, t1, nodes)
    return Tabulated(tuple(ts), tuple((1.0 + ts) ** 3), tuple(3.0 * (1.0 + ts) ** 2))


def composed(f, u, floor):
    """The reaction at u in separate steps: max(u, floor), then ``math.exp``
    or ``math.pow``, and for a table with a floor its first knot below the
    table (``shoot``'s former wrapper) around the array ``value``."""
    x = u if floor is None else max(u, floor)
    if isinstance(f, Exponential):
        return f.scale * math.exp(x)
    if isinstance(f, Power):
        return f.scale * math.pow(1.0 + x, f.m)
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
# nan, signed zeros, the former cap and e^u's overflow, below -1 and around both tables' bands
SPECIAL = [math.nan, 0.0, -0.0, 700.0, 700.5, 709.78, 709.79, 1e300, math.inf, -math.inf, -1.0,
           -2.0, -0.5 - 5e-13, -1e-13, -1e-11, 4.0, 4.0 + 5e-13, 5.0]


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


@settings(max_examples=2000, deadline=None)
@given(
    u=st.sampled_from(SPECIAL) | st.floats(),
    m=st.sampled_from([0.0, 1.0, 3.0, 2.5, -1.5, 0.5, 1e300, -1e300, math.inf, math.nan]) | st.floats(),
)
@example(u=-2.0, m=2.5)
@example(u=-1.0, m=-1.5)
@example(u=-1e300, m=2.5)
@example(u=1e300, m=3.0)
@example(u=-2586638741762876.0, m=20.0)
def test_power_closure_is_double_star_where_that_is_real(u, m):
    """Where ``**`` gives a complex (1 + u < 0) or divides by zero (0 to a
    negative power) the closure raises ValueError; elsewhere it gives the
    same float, bit for bit, or the same OverflowError."""
    closure = Power(m=m, scale=-2.0).scalar_value()
    try:
        star = -2.0 * (1.0 + u) ** m
    except ZeroDivisionError:
        star = 1j
    except OverflowError as exc:  # a complex that overflows is a complex
        star = 1j if "complex" in str(exc) else OverflowError
    if isinstance(star, complex):
        with pytest.raises(ValueError, match="math domain error"):
            closure(u)
    elif star is OverflowError:
        with pytest.raises(OverflowError):
            closure(u)
    else:
        assert repr(closure(u)) == repr(star)


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


def reference_first_zero(spec, m_val, grid, exits=None):
    """``solver._scaled_first_zero`` as it stepped before its loop took the
    stages in: each step one ``reference_rk4_step``, the slope that ends the
    march recomputed after it.  Appends the exit it takes to ``exits``."""
    note = exits.append if exits is not None else lambda exit_: None
    n, p, f = spec.n, spec.p, spec.nonlinearity
    g = f.scalar_value(0.0)
    h = float(grid.dt) / 2
    rhs = reference_flux_rhs(n, p, g)
    rhs_no_source = reference_flux_rhs(n, p, lambda u_: 0.0)

    def slope(t_, w_):
        return rhs_no_source(t_, 0.0, w_)[0]

    def rhs_in_u(u_, t_, w_):
        du, dw = rhs(t_, u_, w_)
        return 1.0 / du, dw / du

    steps = 0
    try:
        g_m = g(m_val)
        f_min = f.minimum(0.0, m_val) if isinstance(f, Tabulated) else float(np.min(f.value(np.asarray([0.0, m_val]))))
        if not f_min > 0.0:
            note("f not positive")
            return None, 0
        t_max = min(math.log(n / f_min) + (p - 1.0) * math.log(p * m_val / (p - 1.0)), 709.78) / p
        t = solver._series_start(g_m, m_val, n, p)
        u, w = solver._startup_series(g_m, m_val, n, p, math.exp(t))
        if w == 0.0:
            note("startup flux underflow")
            return None, 0
        du = slope(t, w)
        while u + h * du > 0.0:
            if t > t_max:
                note("t > t_max")
                return None, steps
            u, w = reference_rk4_step(rhs, t, u, w, h)
            t, steps = t + h, steps + 1
            du = slope(t, w)
        if not (math.isfinite(u) and math.isfinite(w)):
            note("non-finite state")
        log_s, w = reference_rk4_step(rhs_in_u, u, t, w, -u)
    except ArithmeticError:
        note("ArithmeticError")
        return None, steps
    finite = math.isfinite(log_s) and math.isfinite(w)
    if finite:
        note("predicted zero" if log_s <= t_max else "log S > t_max")
    return (log_s if finite and log_s <= t_max else None), steps + 1


def stepped_by_references(monkeypatch):
    """Make ``bifurcation_curve`` integrate with the two references."""
    monkeypatch.setattr(solver, "_scaled_first_zero", reference_first_zero)
    monkeypatch.setattr(solver, "shoot", reference_certificate)


def certified(fn, spec, m_val, grid, guard=None, start=None):
    """fn(spec, m_val, grid) with ``solver.SHOOT_GUARD`` set to ``guard`` and
    the startup series replaced by the state ``start``, where given."""
    with pytest.MonkeyPatch.context() as patch:
        if guard is not None:
            patch.setattr(solver, "SHOOT_GUARD", guard)
        if start is not None:
            patch.setattr(solver, "_startup_series", lambda *series_args: start)
        return fn(spec, m_val, grid)


def points(spec, centres, grid):
    return [
        (pt.center_value, pt.lam, pt.boundary_residual, pt.converged, pt.iterations)
        for pt in bifurcation_curve(spec, centres, grid)
    ]


class Overstated(Power):
    """A constant reaction whose ``value``, read by the positivity check and
    for t_max, is four times the closure the march integrates: v then meets
    zero past the comparison bound, as it would if the march lagged it."""

    def value(self, u):
        return 4.0 * super().value(u)


REACTIONS = {
    "exp": Exponential(1.0),
    "power": Power(m=3.0),
    "negative": Power(m=1.0, scale=-2.0),
}


@settings(max_examples=400, deadline=None)
@given(
    n=st.floats(1.0, 30.0),
    p=st.floats(1.1, 6.0),
    log_r_min=st.floats(-40.0, -0.05),
    m_val=st.floats(0.01, 50.0),
    u=st.floats(-0.5, 20.0),
    w_sign=st.sampled_from([-1.0, 0.0, 1.0]),
    w_exp=st.floats(-300.0, 3.0),
    guard=st.sampled_from([1e6, 30.0, sys.float_info.max]),
    reaction=st.sampled_from(sorted(REACTIONS)),
)
def test_short_trajectories_are_bit_identical(
    n, p, log_r_min, m_val, u, w_sign, w_exp, guard, reaction
):
    """Both loops over the cells of a 16-node grid that the start leaves,
    and any inward lead: the shoot from an arbitrary start state, the scaled
    route from its startup series."""
    grid = make_grid(math.exp(log_r_min), 16)
    spec = ProblemSpec(n, p, REACTIONS[reaction])
    kwargs = {"guard": guard, "start": (u, w_sign * 10.0**w_exp)}
    got = certified(shoot, spec, m_val, grid, **kwargs)
    assert repr(got) == repr(certified(reference_certificate, spec, m_val, grid, **kwargs))
    got = outcome(solver._scaled_first_zero, spec, m_val, grid)
    assert repr(got) == repr(outcome(reference_first_zero, spec, m_val, grid))


CURVES = [
    ("disk", ProblemSpec(2.0, 2.0, Exponential(1.0)), [0.5, 0.9, 1.2, 1.5, 2.0, 3.0]),
    ("n5", ProblemSpec(5.0, 2.0, Exponential(1.0)), [1.1, 3.9, 10.2]),
    ("n12", ProblemSpec(12.0, 2.0, Exponential(1.0)), [0.9, 4.2, 8.1, 300.0]),
    ("p1.5", ProblemSpec(3.0, 1.5, Exponential(1.0)), [0.5, 2.0]),
    ("negative", ProblemSpec(3.0, 2.0, Power(m=1.0, scale=-1.0)), [0.5, 2.0]),
    # the certifying shoot's RK4 stages dip below the table's first knot
    ("table", ProblemSpec(3.0, 2.0, cubic_table(0.0, 4.0, 81)), [0.5, 1.0, 2.0, 3.0]),
    # the scaled route's other exits: from the start at t = 22.2, e^(n t)
    # overflows inside a stage at t = 23.7, long before S; f(M) = 1e100 e^600
    # overflows to inf (numpy warns in the positivity check), and so does the
    # startup flux; the cubic dips to -5.68 inside (1, 2), below its knots, so
    # the march never starts; a march that lags the comparison bound runs past
    # t_max (no reaction whose closure and ``value`` agree was found to)
    ("overflow", ProblemSpec(30.0, 2.0, Exponential(1e-26)), [1.0]),
    ("non-finite", ProblemSpec(2.0, 2.0, Exponential(1e100)), [600.0]),
    ("dip", ProblemSpec(3.0, 2.0, Tabulated((0.0, 1.0, 2.0), (1.0, 2.0, 1.0), (0.0, -50.0, 0.0))), [2.0]),
    ("lag", ProblemSpec(3.0, 2.0, Overstated(m=0.0)), [1.0]),
]
# (spec, centres, nodes): on these coarse grids the final step in u lands
# past the comparison bound (log S = 1.27e14 and 87.2 against t_max = 2.70 and
# 1.91); at 2,000 nodes the power curve's certifying shoot meets 1 + u < 0
COARSE = [
    (ProblemSpec(12.0, 1.05, Power(m=2.5)), [50.0], 129),
    (ProblemSpec(2.0, 1.2, Power(m=2.5)), [500.0], 16),
    (ProblemSpec(30.0, 1.1, Power(m=3.5)), [5000.0], 2000),
]


@pytest.mark.filterwarnings("ignore:overflow encountered in multiply:RuntimeWarning")
@pytest.mark.parametrize("name, spec, centres", CURVES, ids=[c[0] for c in CURVES])
def test_bifurcation_points_equal_reference_stepped_run(name, spec, centres, grid2000, monkeypatch):
    got = points(spec, centres, grid2000)
    stepped_by_references(monkeypatch)
    expected = points(spec, centres, grid2000)
    # nan == nan fails, so compare the reprs
    assert [tuple(map(repr, pt)) for pt in got] == [tuple(map(repr, pt)) for pt in expected]
    if name == "negative":
        assert not any(pt[3] for pt in got)
    if name == "n12":
        assert got[-1][3] is False
    if name in ("dip", "lag"):
        assert got[0][4] == (0 if name == "dip" else 1849)


@pytest.mark.parametrize("spec, centres, nodes", COARSE)
def test_coarse_curve_points_equal_reference_stepped_run(spec, centres, nodes, monkeypatch):
    grid = make_grid(1e-8, nodes)
    got = points(spec, centres, grid)
    stepped_by_references(monkeypatch)
    assert repr(got) == repr(points(spec, centres, grid))
    assert all(pt[2] == math.inf for pt in got)


@settings(max_examples=60, deadline=None)
@given(
    n=st.floats(1.0, 30.0),
    p=st.floats(1.2, 4.0),
    m_val=st.floats(0.05, 40.0),
    nodes=st.integers(16, 400),
)
def test_curve_point_equals_reference_stepped_run(n, p, m_val, nodes):
    grid = make_grid(1e-8, nodes)
    spec = ProblemSpec(n, p, Exponential(1.0))
    # a startup series that overflows (at p near 1 and large M) is a
    # recorded point in both runs; any error still raised must be the same
    got = outcome(points, spec, [m_val], grid)
    with pytest.MonkeyPatch.context() as patch:
        stepped_by_references(patch)
        assert repr(got) == repr(outcome(points, spec, [m_val], grid))


SHOOTS = [
    (ProblemSpec(2.0, 2.0, Exponential(2.0)), 1.0, {}),
    (ProblemSpec(5.0, 3.0, Exponential(1.0)), 2.0, {}),
    (ProblemSpec(3.0, 1.5, Exponential(0.5)), 1.0, {}),
    (ProblemSpec(12.0, 2.0, Exponential(19.0)), 6.0, {}),
    # a negative reaction: u rises and the flux is positive
    (ProblemSpec(3.0, 2.0, Power(m=1.0, scale=-1.0)), 0.5, {}),
    # blow-ups: the guard, and an overflow inside a stage
    (ProblemSpec(1.0, 2.0, Exponential(1.0)), 10.0, {"guard": 100.0}),
    (ProblemSpec(3.0, 2.0, Power(m=9.0, scale=-1e6)), 5.0, {"guard": 1e300}),
    # above the curve's lambda (1.099 at M = 2), so u falls below the table
    (ProblemSpec(3.0, 2.0, cubic_table(0.0, 4.0, 81).with_scale(1.2)), 2.0, {}),
    # the guard on a cell's first step (the case above at guard 100 stops
    # on a second step)
    (ProblemSpec(1.0, 2.0, Exponential(1.0)), 10.0, {"guard": 30.0}),
    # a guard at the largest float: u overflows to -inf in a sum of finite
    # stages, no exception, and the guard must still stop there (g(M) =
    # 2e-300 puts the series start past r = 1, so only the last cell runs)
    (ProblemSpec(1.0, 2.0, Power(m=1.0, scale=1e-300)), 1.0, {"guard": sys.float_info.max, "start": (0.0, -1e308)}),
    # a negative reaction lifts u past the table's last knot
    (ProblemSpec(3.0, 2.0, cubic_table(0.0, 4.0, 81).with_scale(-1.0)), 3.5, {}),
]


@pytest.mark.parametrize("spec, m_val, kwargs", SHOOTS)
def test_shoot_equals_reference_stepped_run(spec, m_val, kwargs):
    grid = make_grid(1e-8, 500)
    got = certified(shoot, spec, m_val, grid, **kwargs)
    assert repr(got) == repr(certified(reference_certificate, spec, m_val, grid, **kwargs))


def test_reference_shoot_cases_cover_blow_ups():
    grid = make_grid(1e-8, 500)
    exits = []
    for spec, m_val, kwargs in SHOOTS:
        certified(functools.partial(reference_certificate, exits=exits), spec, m_val, grid, **kwargs)
    assert exits == [
        "r = 1", "r = 1", "r = 1", "r = 1", "r = 1", "guard on substep 2", "overflow", "r = 1",
        "guard on substep 1", "guard on substep 1", "outside the table",
    ]
    values = [certified(shoot, spec, m_val, grid, **kwargs) for spec, m_val, kwargs in SHOOTS]
    assert [math.isfinite(v) for v in values] == [exit_ == "r = 1" for exit_ in exits]
    spec, m_val, _ = SHOOTS[7]
    assert reference_shoot(spec, m_val, grid).boundary_value < -1e-3  # so stages ran on the table's clamp
    spec, m_val, kwargs = SHOOTS[9]
    with pytest.raises(BlowUpError, match="at r = 9.638e-01"):
        certified(reference_shoot, spec, m_val, grid, **kwargs)


@pytest.mark.filterwarnings("ignore:overflow encountered in multiply:RuntimeWarning")
def test_reference_cases_reach_every_exit(grid2000, monkeypatch):
    """Every way out of either loop is taken by some case above, so the
    comparisons check each."""
    zero_exits, shoot_exits = [], []
    monkeypatch.setattr(solver, "_scaled_first_zero", functools.partial(reference_first_zero, exits=zero_exits))
    monkeypatch.setattr(solver, "shoot", functools.partial(reference_certificate, exits=shoot_exits))
    for _, spec, centres in CURVES:
        bifurcation_curve(spec, centres, grid2000)
    for spec, centres, nodes in COARSE:
        bifurcation_curve(spec, centres, make_grid(1e-8, nodes))
    grid = make_grid(1e-8, 500)
    for spec, m_val, kwargs in SHOOTS:
        certified(functools.partial(reference_certificate, exits=shoot_exits), spec, m_val, grid, **kwargs)
    assert set(zero_exits) == {
        "f not positive", "startup flux underflow", "predicted zero", "t > t_max",
        "log S > t_max", "ArithmeticError", "non-finite state",
    }
    assert set(shoot_exits) == {
        "guard on substep 1", "guard on substep 2", "overflow", "outside the table", "r = 1",
    }
