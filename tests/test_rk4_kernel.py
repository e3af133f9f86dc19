"""The two one-frame RK4 loops and the one-frame reactions against the
generic step and the wrapped reactions they replaced.

``shoot``'s cell loop and ``solver._scaled_first_zero``'s march to the first
zero each take classical RK4 steps of the flux system with the four stages
written out in the loop body, stages 2 and 3 sharing e^(n t) at the midpoint.
Both share one reference: ``reference_shoot`` and ``reference_first_zero``
are the two loops as they were written over the generic right-hand side
``reference_flux_rhs`` and step ``reference_rk4_step``.  Every result of the
loops must equal theirs bit for bit, short trajectories from arbitrary
states, whole curves and shoots, errors and messages alike, and the cases
reach every exit of either loop.  Each reaction's ``scalar_value(floor)`` is
one closure with its clamps inline; it must equal the min/max composition it
replaced, nan, -0.0 and errors included.
"""

import functools
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
    RadialProfile,
    ShootResult,
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


def reference_shoot(spec, center_value, grid, *, seed=None, u_guard=1e6, exits=None):
    """``shoot`` as it stepped before its loop took the stages in: the same
    start, then per cell two ``reference_rk4_step`` calls from t_k and
    t_k + dt/2, the guard after each.  Appends the exit it takes to
    ``exits``."""
    note = exits.append if exits is not None else lambda exit_: None
    n, p, f = spec.n, spec.p, spec.nonlinearity
    g = f.scalar_value()
    g_m = g(center_value) if seed is None and center_value > 0 else 0.0
    t_s = solver._series_start(g_m, center_value, n, p) if g_m > 0 else grid.t[0]
    lead = max(math.ceil((grid.t[0] - t_s) / grid.dt), 0)
    t_lead = grid.t[0] - grid.dt * np.arange(lead, 0, -1)
    r0 = float(np.exp(t_lead)[0]) if lead else grid.r_min
    u, w = seed if seed is not None else solver._startup_series(g, center_value, n, p, r0)
    dt = float(grid.dt) / 2
    rhs = reference_flux_rhs(n, p, f.scalar_value(-math.inf))
    nodes = [(u, w)]
    try:
        for tk in t_lead.tolist() + grid.t.tolist()[:-1]:
            for substep, t0 in enumerate((tk, tk + dt), 1):
                u, w = reference_rk4_step(rhs, t0, u, w, dt)
                if not (math.isfinite(u) and math.isfinite(w)) or abs(u) > u_guard:
                    note(f"guard on substep {substep}")
                    raise BlowUpError(f"|u| exceeded {u_guard:g} at r = {math.exp(t0):.3e}")
            nodes.append((u, w))
    except OverflowError as exc:
        note("overflow")
        raise BlowUpError(f"overflow during integration: {exc}") from exc
    except EvaluationError:
        note("outside the table")
        raise
    note("r = 1")
    u_nodes, w_nodes = map(np.array, zip(*nodes[lead:]))
    warnings = []
    if np.any(np.diff(u_nodes) > 1e-10 * (1.0 + np.max(np.abs(u_nodes)))):
        warnings.append("u is not monotone along the trajectory")
    if np.any(w_nodes > 0):
        warnings.append("flux changed sign along the trajectory")
    profile = RadialProfile(grid=grid, n=n, p=p, u=u_nodes, w=np.minimum(w_nodes, 0.0), check=False)
    return ShootResult(profile, float(u_nodes[-1]), tuple(warnings))


def reference_first_zero(spec, m_val, grid, exits=None):
    """``solver._scaled_first_zero`` as it stepped before its loop took the
    stages in: each step one ``reference_rk4_step``, the slope that ends the
    march recomputed after it.  Appends the exit it takes to ``exits``."""
    note = exits.append if exits is not None else lambda exit_: None
    n, p, f = spec.n, spec.p, spec.nonlinearity
    nodes = [x for x in f.t if 0.0 < x < m_val] if isinstance(f, Tabulated) else []
    f_min = float(np.min(f.value(np.asarray([0.0, m_val] + nodes))))
    if not f_min > 0.0:
        note("f not positive")
        return None, 0
    t_max = (math.log(n / f_min) + (p - 1.0) * math.log(p * m_val / (p - 1.0))) / p
    g = f.scalar_value(0.0)
    h = float(grid.dt) / 2
    rhs = reference_flux_rhs(n, p, g)
    rhs_no_source = reference_flux_rhs(n, p, lambda u_: 0.0)

    def slope(t_, w_):
        return rhs_no_source(t_, 0.0, w_)[0]

    def rhs_in_u(u_, t_, w_):
        du, dw = rhs(t_, u_, w_)
        return 1.0 / du, dw / du

    t, r0 = float(grid.t[0]), grid.r_min
    log_r = solver._series_start(g(m_val), m_val, n, p)
    if log_r < t:
        t, r0 = log_r, math.exp(log_r)
    u, w = solver._startup_series(g, m_val, n, p, r0)
    if w == 0.0:
        note("startup flux underflow")
        return None, 0
    steps = 0
    try:
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
        note("predicted zero")
    return (log_s if finite else None), steps + 1


def stepped_by_references(monkeypatch):
    """Make ``bifurcation_curve`` integrate with the two references."""
    monkeypatch.setattr(solver, "_scaled_first_zero", reference_first_zero)
    monkeypatch.setattr(solver, "shoot", reference_shoot)


def shot(fn, spec, m_val, grid, **kwargs):
    try:
        res = fn(spec, m_val, grid, **kwargs)
    except (BlowUpError, EvaluationError) as exc:
        return type(exc).__name__, str(exc)
    return res.profile.u.tobytes(), res.profile.w.tobytes(), res.boundary_value, res.warnings


def points(spec, centres, grid):
    return [
        (pt.center_value, pt.lam, pt.boundary_residual, pt.converged, pt.iterations)
        for pt in bifurcation_curve(spec, centres, grid)
    ]


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
    u_guard=st.sampled_from([1e6, 30.0, math.inf]),
    reaction=st.sampled_from(sorted(REACTIONS)),
)
def test_short_trajectories_are_bit_identical(
    n, p, log_r_min, m_val, u, w_sign, w_exp, u_guard, reaction
):
    """Both loops over 15 cells of a 16-node grid: the shoot from an
    arbitrary seed, the scaled route from its startup series."""
    grid = make_grid(math.exp(log_r_min), 16)
    spec = ProblemSpec(n, p, REACTIONS[reaction])
    kwargs = {"seed": (u, w_sign * 10.0**w_exp), "u_guard": u_guard}
    assert shot(shoot, spec, m_val, grid, **kwargs) == shot(reference_shoot, spec, m_val, grid, **kwargs)
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
    # the scaled route's other exits: e^(n t) overflows inside a stage at
    # t = 23.7, long before S; f(M) = 1e100 e^600 overflows to inf (numpy
    # warns in the positivity check), and so does the startup flux; the
    # cubic dips below 0 inside (1, 2), so v settles above 1 and the march
    # runs past t_max
    ("overflow", ProblemSpec(30.0, 2.0, Exponential(1e-30)), [1.0]),
    ("non-finite", ProblemSpec(2.0, 2.0, Exponential(1e100)), [600.0]),
    ("dip", ProblemSpec(3.0, 2.0, Tabulated((0.0, 1.0, 2.0), (1.0, 2.0, 1.0), (0.0, -50.0, 0.0))), [2.0]),
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
    # a negative reaction: u rises and the flux is positive, both warnings
    (ProblemSpec(3.0, 2.0, Power(m=1.0, scale=-1.0)), 0.5, {}),
    # blow-ups: the guard, and an overflow inside a stage
    (ProblemSpec(1.0, 2.0, Exponential(1.0)), 10.0, {"u_guard": 100.0}),
    (ProblemSpec(3.0, 2.0, Power(m=9.0, scale=-1e6)), 5.0, {"u_guard": 1e300}),
    # above the curve's lambda (1.099 at M = 2), so u falls below the table
    (ProblemSpec(3.0, 2.0, cubic_table(0.0, 4.0, 81).with_scale(1.2)), 2.0, {}),
    # the guard on a cell's first step (the case above u_guard = 100 stops
    # on a second step)
    (ProblemSpec(1.0, 2.0, Exponential(1.0)), 10.0, {"u_guard": 30.0}),
    # u_guard = inf: u overflows to -inf in a sum of finite stages, no
    # exception, and the guard must still stop there
    (ProblemSpec(1.0, 2.0, Power(m=1.0, scale=1e-300)), 1.0, {"seed": (0.0, -1e308), "u_guard": math.inf}),
    # a negative reaction lifts u past the table's last knot
    (ProblemSpec(3.0, 2.0, cubic_table(0.0, 4.0, 81).with_scale(-1.0)), 3.5, {}),
]


@pytest.mark.parametrize("spec, m_val, kwargs", SHOOTS)
def test_shoot_equals_reference_stepped_run(spec, m_val, kwargs):
    grid = make_grid(1e-8, 500)
    assert shot(shoot, spec, m_val, grid, **kwargs) == shot(reference_shoot, spec, m_val, grid, **kwargs)


def test_reference_shoot_cases_cover_warnings_and_blow_ups():
    grid = make_grid(1e-8, 500)
    results = [shot(shoot, spec, m_val, grid, **kwargs) for spec, m_val, kwargs in SHOOTS]
    assert len(results[4][3]) == 2
    assert results[5][1].startswith("|u| exceeded 100 ")
    assert results[6][1].startswith("overflow during integration")
    assert all(np.isfinite(np.frombuffer(r[0])).all() for r in results[:4])
    assert results[7][2] < -1e-3  # so stages ran on the table's clamp
    assert results[9] == ("BlowUpError", "|u| exceeded inf at r = 3.013e-01")
    assert results[10][0] == "EvaluationError"


@pytest.mark.filterwarnings("ignore:overflow encountered in multiply:RuntimeWarning")
def test_reference_cases_reach_every_exit(grid2000, monkeypatch):
    """Every way out of either loop is taken by some case above, so the
    comparisons check each."""
    zero_exits, shoot_exits = [], []
    monkeypatch.setattr(solver, "_scaled_first_zero", functools.partial(reference_first_zero, exits=zero_exits))
    monkeypatch.setattr(solver, "shoot", functools.partial(reference_shoot, exits=shoot_exits))
    for _, spec, centres in CURVES:
        bifurcation_curve(spec, centres, grid2000)
    grid = make_grid(1e-8, 500)
    for spec, m_val, kwargs in SHOOTS:
        shot(functools.partial(reference_shoot, exits=shoot_exits), spec, m_val, grid, **kwargs)
    assert set(zero_exits) == {
        "f not positive", "startup flux underflow", "predicted zero", "t > t_max",
        "ArithmeticError", "non-finite state",
    }
    assert set(shoot_exits) == {
        "guard on substep 1", "guard on substep 2", "overflow", "outside the table", "r = 1",
    }
