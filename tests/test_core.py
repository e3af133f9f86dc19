
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from plaplab import (
    ParameterError,
    Exponential,
    Power,
    ProblemSpec,
    RadialProfile,
    Tabulated,
    energy,
    make_grid,
    make_rule,
)
from plaplab.core import EvaluationError, derivative_log_uniform
from plaplab.oracle import exact_exponential


def test_make_grid_basic():
    g = make_grid(1e-8, 2000)
    assert g.size == 2000
    assert g.r[0] == 1e-8 and g.r[-1] == 1.0
    assert np.all(np.diff(g.r) > 0)
    # log-uniform spacing
    dt = np.diff(g.t)
    assert np.max(np.abs(dt - dt[0])) < 1e-12


def test_make_grid_small():
    g = make_grid(0.5, 16)
    assert g.size == 16 and g.r[0] == 0.5 and g.r[-1] == 1.0


@pytest.mark.parametrize("r_min,count", [(1.5, 100), (0.0, 100), (-0.1, 100), (0.5, 8)])
def test_make_grid_rejects(r_min, count):
    with pytest.raises(ParameterError):
        make_grid(r_min, count)


def test_integrate_constant_n3():
    g = make_grid(1e-8, 1000)
    rule = make_rule(g, 3.0)
    val = rule.integrate(np.ones(g.size))
    assert abs(val - 1.0 / 3.0) < 1e-10 / 3.0


def test_integrate_linear_n2():
    g = make_grid(1e-8, 2000)
    rule = make_rule(g, 2.0)
    val = rule.integrate(g.r)
    assert abs(val - 1.0 / 3.0) < 1e-8 / 3.0


def test_integrate_inverse_power():
    # int_0^1 r^-1 r^(n-1) dr = 1 for n = 2; the cutoff costs r_min/2
    g = make_grid(1e-8, 2000)
    rule = make_rule(g, 2.0)
    val = rule.integrate(1.0 / g.r)
    assert abs(val - 1.0) < 1e-6


@pytest.mark.parametrize("n", [2.0, 3.0, 7.5, 12.0])
@pytest.mark.parametrize("k", [0, 1, 2])
def test_integrate_monomials(n, k):
    g = make_grid(1e-8, 2000)
    rule = make_rule(g, n)
    val = rule.integrate(g.r**k)
    exact = 1.0 / (n + k)
    assert abs(val - exact) / exact < 1e-8


def test_weights_positive():
    for n in (1.0, 2.0, 12.0, 30.0):
        rule = make_rule(make_grid(1e-8, 2000), n)
        assert np.all(rule.weights > 0)
    # coarse grids keep positivity too
    assert np.all(make_rule(make_grid(1e-6, 16), 12.0).weights > 0)


@pytest.mark.parametrize("n, r_min, count", [(30.0, 1e-12, 2000), (28.0, 1e-12, 500), (30.0, 1e-11, 2000)])
def test_make_rule_names_an_underflowing_r_min_to_the_n(n, r_min, count):
    # r_min^n ~ 1e-360 is 0 in double precision, and so are the leading
    # weights: an input the rule cannot serve, not an internal fault
    with pytest.raises(ParameterError, match=r"r_min\^n = \(1e-1[12]\)\^(28|30) underflows"):
        make_rule(make_grid(r_min, count), n)
    # subnormal but positive weights still make a rule
    rule = make_rule(make_grid(1e-11, count), 28.0)
    assert 0.0 < rule.weights[0] < 1e-307 and np.all(rule.weights > 0)


def test_integrate_is_linear():
    g = make_grid(1e-6, 500)
    rule = make_rule(g, 3.0)
    h1, h2 = np.exp(g.r), np.cos(g.r)
    lhs = rule.integrate(2.5 * h1 - 0.5 * h2)
    rhs = 2.5 * rule.integrate(h1) - 0.5 * rule.integrate(h2)
    assert abs(lhs - rhs) < 1e-14 * max(abs(lhs), 1.0)


def test_integrate_rejects_nonfinite():
    g = make_grid(1e-6, 100)
    rule = make_rule(g, 2.0)
    h = np.ones(g.size)
    h[5] = np.inf
    with pytest.raises(ParameterError):
        rule.integrate(h)


def test_refinement_order_at_least_two():
    vals = {}
    for count in (500, 1000, 2000):
        g = make_grid(1e-8, count)
        rule = make_rule(g, 3.0)
        vals[count] = rule.integrate(np.exp(g.r))
    d1 = abs(vals[500] - vals[1000])
    d2 = abs(vals[1000] - vals[2000])
    assert d1 / d2 > 3.5  # order >= 2 would give 4


def test_cumulative_consistency():
    g = make_grid(1e-8, 800)
    rule = make_rule(g, 2.5)
    h = np.exp(-g.r) + g.r**2
    total = rule.integrate(h)
    from_zero = rule.cumulative_from_zero(h)
    to_one = rule.cumulative_to_one(h)
    assert abs(from_zero[-1] - total) < 1e-13 * abs(total)
    assert to_one[-1] == 0.0
    assert abs(from_zero[0] + to_one[0] - total) < 1e-13 * abs(total)


def test_profile_self_consistency(grid2000):
    sol = exact_exponential(12.0, 2.0)
    prof = sol.sample(grid2000)
    # w -> u_r -> w round trip is the identity
    w_back = -(grid2000.r ** (prof.n - 1.0)) * np.abs(prof.u_r) ** (prof.p - 1.0)
    rel = np.max(np.abs(w_back - prof.w) / np.maximum(np.abs(prof.w), 1e-300))
    assert rel < 1e-12


@pytest.mark.parametrize("degree", range(7))
def test_derivative_log_uniform_exact_on_degree_six(degree):
    # every node, the three one-sided edge rows on each side included
    grid = make_grid(1e-8, 40)
    poly = np.polynomial.Polynomial(np.random.default_rng(degree).uniform(-1.0, 1.0, degree + 1))
    values = poly(grid.t)
    got = derivative_log_uniform(values, grid.dt)
    exact = poly.deriv()(grid.t)
    assert np.max(np.abs(got - exact)) <= 1e-10 * np.max(np.abs(values)) / grid.dt


def _generic_cubic_interp(tq, t, values, dt):
    """Reference for off-node profile evaluation: the 4-node Lagrange form
    over the nodes t themselves, on the same clamped window."""
    pos = (tq - t[0]) / dt
    base = np.clip(np.floor(pos).astype(int) - 1, 0, len(t) - 4)
    out = np.zeros_like(tq)
    for j in range(4):
        lj = np.ones_like(tq)
        for i in range(4):
            if i != j:
                lj *= (tq - t[base + i]) / (t[base + j] - t[base + i])
        out += lj * values[base + j]
    return out, base


def _local_scale(grid, values, base):
    """Per point, the window's largest |value| plus its largest step times
    |t[0]| / dt: a rounding of t by one ulp moves the point that far in
    node units."""
    window = values[base[:, None] + np.arange(4)]
    steps = np.abs(np.diff(window, axis=1)).max(axis=1)
    return np.abs(window).max(axis=1) + abs(grid.t[0]) / grid.dt * steps


def _radii_over_grid(grid, seed):
    """Random radii over the whole grid, over each end cell, and the nodes."""
    rng = np.random.default_rng(seed)
    t = grid.t
    tq = np.concatenate(
        [rng.uniform(t[0], 0.0, 500), rng.uniform(t[0], t[1], 50), rng.uniform(t[-2], 0.0, 50)]
    )
    return np.concatenate([np.exp(tq), grid.r])


@pytest.mark.parametrize("source", ["n12-exact", "disk-minimal"])
def test_off_node_evaluation_matches_generic_lagrange(source, grid2000, minimal_disk_lam1):
    prof = exact_exponential(12.0, 2.0).sample(grid2000) if source == "n12-exact" else minimal_disk_lam1
    grid = prof.grid
    r = _radii_over_grid(grid, 7)
    durdt = derivative_log_uniform(prof.u_r, grid.dt)
    eps = np.finfo(float).eps
    for values, got in (
        (prof.u, prof.u_at(r)),
        (prof.u_r, prof.u_r_at(r)),
        (durdt, prof.u_rr_at(r) * r),
    ):
        want, base = _generic_cubic_interp(np.log(r), grid.t, values, grid.dt)
        assert np.all(np.abs(got - want) <= 8.0 * eps * _local_scale(grid, values, base))


@pytest.mark.parametrize("r_min, count", [(1e-8, 40), (0.5, 16)])
def test_off_node_evaluation_reproduces_cubic(r_min, count):
    grid = make_grid(r_min, count)
    cubic = np.polynomial.Polynomial([0.7, -1.3, 0.4, -0.05])
    prof = RadialProfile(grid=grid, n=2.0, p=2.0, u=cubic(grid.t), w=np.zeros(count), check=False)
    r = _radii_over_grid(grid, 3)
    _, base = _generic_cubic_interp(np.log(r), grid.t, prof.u, grid.dt)
    eps = np.finfo(float).eps
    assert np.all(np.abs(prof.u_at(r) - cubic(np.log(r))) <= 8.0 * eps * _local_scale(grid, prof.u, base))


def test_off_node_evaluation_rejects_radii_outside_grid(grid2000):
    prof = exact_exponential(12.0, 2.0).sample(grid2000)
    for r in (0.99 * grid2000.r_min, 1.01):
        with pytest.raises(EvaluationError, match="outside its grid"):
            prof.u_at(np.array([r]))


def test_profile_rejects_increasing_u():
    g = make_grid(1e-4, 64)
    u = np.linspace(0.0, 1.0, g.size)  # increasing in r
    with pytest.raises(ParameterError):
        RadialProfile(grid=g, n=2.0, p=2.0, u=u, w=np.zeros(g.size))


def test_profile_rejects_positive_flux():
    g = make_grid(1e-4, 64)
    u = np.linspace(1.0, 0.0, g.size)
    w = np.full(g.size, 0.5)
    with pytest.raises(ParameterError):
        RadialProfile(grid=g, n=2.0, p=2.0, u=u, w=w)


def test_energy_zero_profile():
    g = make_grid(1e-8, 1000)
    zero = RadialProfile(grid=g, n=3.0, p=2.0, u=np.zeros(g.size), w=np.zeros(g.size))
    assert energy(zero, lambda u: 0.0 * u) == 0.0
    # constant G integrates to -c/n in radial units
    c = 2.5
    val = energy(zero, lambda u: c + 0.0 * u)
    assert abs(val - (-c / 3.0)) < 1e-10


def test_energy_exponential_exact(grid2000):
    # (1/2) int 4 r^-2 r^11 dr - int 20 e^u r^11 dr = 4/20 - 20/10 = -1.8
    sol = exact_exponential(12.0, 2.0)
    prof = sol.sample(grid2000)
    val = energy(prof, lambda u: sol.lambda_star * np.exp(u))
    assert abs(val - (-1.8)) < 1e-8


def test_problem_spec_validation():
    with pytest.raises(ParameterError):
        ProblemSpec(3.0, 1.0, Exponential(1.0))
    with pytest.raises(ParameterError):
        ProblemSpec(0.5, 2.0, Exponential(1.0))
    spec = ProblemSpec(2.5, 2.0, Exponential(1.0))
    assert spec.non_integer_dimension


def test_tabulated_interpolation():
    ts = np.linspace(0.0, 2.0, 21)
    tab = Tabulated(tuple(ts), tuple(np.exp(ts)), tuple(np.exp(ts)))
    xs = np.linspace(0.05, 1.95, 50)
    assert np.max(np.abs(tab.value(xs) - np.exp(xs))) < 2e-6
    assert np.max(np.abs(tab.derivative(xs) - np.exp(xs))) < 2e-4
    with pytest.raises(EvaluationError):
        tab.value(2.5)
    with pytest.raises(EvaluationError):
        tab.antiderivative(1.0)
    assert tab.increasing and tab.positive_at_zero()


def test_tabulated_rejects_bad_nodes():
    with pytest.raises(ParameterError):
        Tabulated((0.0, 0.0, 1.0), (1.0, 1.0, 2.0), (0.0, 0.0, 0.0))
    # data or cubic coefficients that are not finite: a nan value, knots so
    # close that c2 and c3 overflow, knots so far apart that h * h does
    for t, g, gp in [
        ((0.0, 1.0, 2.0), (1.0, np.nan, 2.0), (0.0, 0.0, 0.0)),
        ((0.0, 1e-170, 2e-170), (1.0, 2.0, 3.0), (1.0, 1.0, 1.0)),
        ((0.0, 1e160, 2e160), (1.0, 2.0, 3.0), (0.0, 0.0, 0.0)),
    ]:
        with pytest.raises(ParameterError, match="finite"):
            Tabulated(t, g, gp)


def test_power_nonlinearity_values():
    f = Power(m=5.0, scale=2.0)
    assert f.value(1.0) == 2.0 * 32.0
    assert f.derivative(0.0) == 10.0
    assert f.increasing and f.positive_at_zero()
    assert not Power(m=-1.5).increasing


@settings(max_examples=300, deadline=None)
@given(
    data=st.lists(st.tuples(st.floats(-5.0, 5.0), st.floats(-40.0, 40.0)), min_size=2, max_size=6),
    scale=st.sampled_from([1.0, -2.0, 0.5]),
    ends=st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)),
)
@example(data=[(1.0, 0.0), (2.0, -50.0), (1.0, 0.0)], scale=1.0, ends=(0.0, 1.0))
def test_tabulated_minimum_is_the_least_value(data, scale, ends):
    """The closed-form minimum over [lo, hi] lies at or below every sampled
    value and above the sampled least value less the interpolant's bend
    between samples: the dip table's -5.676 in (1, 2) included."""
    knots = np.arange(len(data), dtype=float)
    table = Tabulated(tuple(knots), tuple(g for g, _ in data), tuple(d for _, d in data), scale)
    lo, hi = sorted(x * knots[-1] for x in ends)
    u = np.linspace(lo, hi, 20001)
    sampled = table.value(u)
    least = table.minimum(lo, hi)
    bend = np.max(np.abs(2.0 * table._table[1][:, 3]) + np.abs(6.0 * table._table[1][:, 4])) * abs(scale)
    size = 1e-12 * (1.0 + np.max(np.abs(sampled)))
    assert least <= np.min(sampled) + size
    assert least >= np.min(sampled) - bend * (u[1] - u[0]) ** 2 / 8.0 - size
    if len(data) == 3 and data[1] == (2.0, -50.0):
        assert abs(least + 5.675861625) < 1e-8


def test_convexity_of_each_reaction():
    """Only convex reactions try accelerated lambda* probes.  A table is
    convex when g'' = 2 c2 + 6 c3 x is >= 0 at both ends of every cell; for
    (1+u)^3 both minima are g''(0) = 6 (the right end of the first cell,
    at u = 1e-3, reads 6.006)."""
    assert Exponential(1.0).convex and Power(m=3.0).convex and Power(m=1.0).convex
    assert not Power(m=0.5).convex
    u = np.concatenate([[0.0], np.geomspace(1e-3, 2e6, 399)])
    cubic = Tabulated(tuple(u), tuple((1.0 + u) ** 3), tuple(3.0 * (1.0 + u) ** 2))
    c2, c3 = cubic._table[1][:, 3:].T
    assert abs(np.min(2.0 * c2) - 6.0) < 1e-6
    assert abs(np.min(2.0 * c2 + 6.0 * c3 * np.diff(u)) - 6.0) < 1e-2
    assert cubic.convex
    v = np.linspace(0.0, 1e3, 400)
    assert not Tabulated(tuple(v), tuple(np.sqrt(1.0 + v)), tuple(0.5 / np.sqrt(1.0 + v))).convex
