import math

import numpy as np
import pytest

from plaplab import (
    ConsistencyError,
    Exponential,
    ParameterError,
    PowerCutoff,
    ProblemSpec,
    RScaled,
    SineModes,
    assemble_q,
    exact_exponential,
    exact_power,
    hardy_inequality_check,
    weighted_gradient_integral,
    reaction_free_identity,
    make_grid,
    min_eigenvalue,
    minimal_iterate,
    ode_residual,
    q_apply,
    stability_report,
)
from plaplab import stability
from plaplab.core import RadialProfile
from plaplab.stability import Tridiagonal, random_eta_family


class Hat:
    """The P1 hat on (lo, mid, hi): 1 at mid, linear on each side, zero
    outside."""

    def __init__(self, lo, mid, hi):
        self.support_lo, self.kinks = lo, (lo, mid, hi)

    def value(self, r):
        r = np.asarray(r, dtype=float)
        lo, mid, hi = self.kinks
        return np.clip(np.minimum((r - lo) / (mid - lo), (hi - r) / (hi - mid)), 0.0, 1.0)

    def derivative(self, r):
        r = np.asarray(r, dtype=float)
        lo, mid, hi = self.kinks
        out = np.zeros_like(r)
        out[(r > lo) & (r < mid)] = 1.0 / (mid - lo)
        out[(r >= mid) & (r < hi)] = -1.0 / (hi - mid)
        return out


def form_on_own_cells(profile, g_prime, nodes, values):
    """Q of the piecewise-linear function with ``values`` at ``nodes`` (zero
    at both ends), integrated over its own log cells with the 4-point Gauss
    panels and coefficients the pencil uses.  On a single hat these are the
    operations of a quadrature over the hat's two cells, bit for bit."""
    nodes, values = np.asarray(nodes, dtype=float), np.asarray(values, dtype=float)
    r, wvol = stability._volume_points(np.log(nodes), profile.n)
    _, coeff, gp = stability._coefficients(profile, g_prime, r)
    cell = np.searchsorted(nodes, r) - 1
    a, b, ya, yb = nodes[cell], nodes[cell + 1], values[cell], values[cell + 1]
    xv = ya * ((b - r) / (b - a)) + yb * ((r - a) / (b - a))
    xd = (yb - ya) / (b - a)
    return float(np.dot(wvol, coeff * xd**2 - gp * xv**2))


class ZeroEta:
    support_lo = 0.5
    kinks = ()

    def value(self, r):
        return np.zeros_like(np.asarray(r, dtype=float))

    def derivative(self, r):
        return np.zeros_like(np.asarray(r, dtype=float))


# --- the quadratic form -----------------------------------------------------


def test_q_apply_zero_test_function(grid2000):
    sol = exact_exponential(10.0, 2.0)
    prof = sol.sample(grid2000)
    assert q_apply(prof, sol.g_prime(), ZeroEta()) == 0.0


def test_q_apply_positive_without_reaction(grid2000):
    sol = exact_exponential(10.0, 2.0)
    prof = sol.sample(grid2000)
    val = q_apply(prof, lambda u: 0.0 * np.asarray(u), SineModes(1, 1e-3))
    assert val > 0.0


def test_q_apply_matches_dense_reference(grid2000):
    # independent check: trapezoid quadrature of the closed-form integrand
    # on a fine kink-aligned grid, for a mid-grid hat function; the sum is
    # the expression np.trapezoid evaluates, which numpy < 2.0 lacks
    sol = exact_exponential(10.0, 2.0)
    prof = sol.sample(grid2000)
    nodes = (0.01, 0.02, 0.04)
    val = q_apply(prof, sol.g_prime(), Hat(*nodes))

    ref = 0.0
    for lo, hi in ((nodes[0], nodes[1]), (nodes[1], nodes[2])):
        r = np.linspace(lo, hi, 200001)
        if hi == nodes[1]:
            xi = (r - lo) / (nodes[1] - lo)
            xi_r = np.full_like(r, 1.0 / (nodes[1] - lo))
        else:
            xi = (hi - r) / (hi - nodes[1])
            xi_r = np.full_like(r, -1.0 / (hi - nodes[1]))
        gp = sol.lambda_star * r**-2.0
        integrand = (xi_r**2 - gp * xi**2) * r**9.0
        ref += (np.diff(r) * (integrand[1:] + integrand[:-1]) / 2.0).sum()
    assert abs(val - ref) < 1e-8 * max(abs(val), abs(ref))


def zero_flux_profile():
    """A p = 1.5 profile with u_r = 0 everywhere, where |u_r|^(p-2) blows up."""
    grid = make_grid(1e-8, 1000)
    u = np.linspace(1.0, 0.0, grid.size)
    return RadialProfile(grid=grid, n=2.0, p=1.5, u=u, w=np.zeros(grid.size))


def test_q_apply_rejects_degenerate_support():
    prof = zero_flux_profile()
    with pytest.raises(ParameterError):
        q_apply(prof, lambda v: 0.0 * np.asarray(v), SineModes(1, 1e-3))


def test_every_second_variation_path_rejects_degenerate_support(time_limit):
    prof = zero_flux_profile()
    zero = lambda v: 0.0 * np.asarray(v)
    with time_limit(10):
        with pytest.raises(ParameterError, match="degenerate"):
            assemble_q(prof, zero, 1e-6, 64)
        with pytest.raises(ParameterError, match="degenerate"):
            stability_report(prof, zero)
        with pytest.raises(ParameterError, match="degenerate"):
            reaction_free_identity(prof, zero, SineModes(1, 1e-3))


@pytest.mark.parametrize("evaluate", [q_apply, reaction_free_identity], ids=["q_apply", "identity"])
def test_nan_reaction_derivative_rejected(grid2000, evaluate):
    prof = exact_exponential(10.0, 2.0).sample(grid2000)
    nan = lambda u: np.full_like(np.asarray(u, dtype=float), np.nan)
    with pytest.raises(ParameterError, match="degenerate"):
        evaluate(prof, nan, SineModes(1, 1e-3))


# --- assembly and eigenvalues ------------------------------------------------


@pytest.mark.parametrize(
    "n,p", [(3.0, 2.0), (10.0, 2.0), (25.0, 2.0), (12.0, 3.0), (6.0, 1.5)]
)
def test_assembled_form_matches_q_apply(grid2000, n, p):
    # x = e_i reads the diagonal of the pencil, x = e_i +- e_(i+1) its
    # off-diagonal too; unknown i is the hat at eigen node i + 1
    sol = exact_exponential(n, p)
    prof = sol.sample(grid2000)
    pencil = assemble_q(prof, sol.g_prime(), 1e-6, 64)
    form = pencil.a - pencil.b
    for idx in (0, 5, 31, 62):
        for coeffs in ((1.0,), (1.0, 1.0), (1.0, -1.0)):
            x = np.zeros(64)
            x[idx : idx + len(coeffs)] = coeffs
            nodes = pencil.nodes[idx : idx + len(coeffs) + 2]
            qa = form_on_own_cells(prof, sol.g_prime(), nodes, (0.0, *coeffs, 0.0))
            qf = form.form(x)
            assert abs(qa - qf) <= 1e-12 * max(abs(qa), abs(qf))


def test_assemble_rejects_small_problems(grid2000):
    sol = exact_exponential(10.0, 2.0)
    prof = sol.sample(grid2000)
    with pytest.raises(ParameterError):
        assemble_q(prof, sol.g_prime(), 1e-6, 16)
    with pytest.raises(ParameterError):
        assemble_q(prof, sol.g_prime(), 1e-9, 64)


def test_pure_stiffness_eigenvalue_positive(grid2000):
    sol = exact_exponential(10.0, 2.0)
    prof = sol.sample(grid2000)
    pencil = assemble_q(prof, lambda u: 0.0 * np.asarray(u), 1e-4, 128)
    mu = min_eigenvalue(pencil.a, pencil.b, pencil.m)
    assert mu > 0.0


def test_min_eigenvalue_rejects_non_finite_pencil(time_limit):
    k = 8
    a = Tridiagonal(np.where(np.arange(k) == 3, np.nan, 2.0), np.full(k - 1, -1.0))
    zero = Tridiagonal(np.zeros(k), np.zeros(k - 1))
    m = Tridiagonal(np.ones(k), np.zeros(k - 1))
    with time_limit(10), pytest.raises(ParameterError, match="non-finite"):
        min_eigenvalue(a, zero, m)


def test_stability_report_sturm_count_budget(grid2000, monkeypatch):
    # every pass over the pencil counts: Sturm counts and Laguerre passes.
    # The n = 11 report certifies mu_1 in 4 counts and 4 Laguerre passes, and
    # mu_1_alt lies in mu_1's bracket (bisection took 86 counts)
    calls = []
    for name in ("_negative_count", "_pivot_sums"):

        def counted(t, m, mu, real=getattr(stability, name)):
            calls.append(mu)
            return real(t, m, mu)

        monkeypatch.setattr(stability, name, counted)
    sol = exact_exponential(11.0, 2.0)
    rep = stability_report(sol.sample(grid2000), sol.g_prime())
    assert rep.verdict == "semi-stable"
    assert rep.mu_1_alt == rep.mu_1
    assert len(calls) <= 20


def test_eigenvalue_refinement_order(grid2000):
    sol = exact_exponential(11.0, 2.0)
    prof = sol.sample(grid2000)
    mus = []
    for n_eig in (125, 250, 500, 1000):
        pencil = assemble_q(prof, sol.g_prime(), 1e-6, n_eig)
        mus.append(min_eigenvalue(pencil.a, pencil.b, pencil.m))
    d1, d2, d3 = (abs(mus[i + 1] - mus[i]) for i in range(3))
    assert math.log2(d1 / d2) > 1.7
    assert math.log2(d2 / d3) > 1.7


# --- the singular-solution threshold -----------------------------------------

# For u with |u_r| = p/r the verdict reduces to the weighted quotient
# comparison (p-1)((n-p)/2)^2 against p(n-p): equality at n = p + 4p/(p-1).


@pytest.mark.parametrize(
    "n,p,expected",
    [
        (8.0, 2.0, "unstable"),  # 9 < 12
        (9.0, 2.0, "unstable"),  # 12.25 < 14
        (11.0, 2.0, "semi-stable"),  # 20.25 >= 18
        (12.0, 2.0, "semi-stable"),  # 25 >= 20
        (8.0, 3.0, "unstable"),
        (10.0, 3.0, "semi-stable"),
    ],
)
def test_singular_solution_threshold(grid2000, n, p, expected):
    sol = exact_exponential(n, p)
    rep = stability_report(sol.sample(grid2000), sol.g_prime())
    assert rep.verdict == expected


def test_threshold_brackets_critical_dimension(grid2000):
    mus = {}
    for n in (9.0, 11.0):
        sol = exact_exponential(n, 2.0)
        rep = stability_report(sol.sample(grid2000), sol.g_prime())
        mus[n] = rep.mu_1
    assert mus[9.0] < 0.0 < mus[11.0]


def first_node_a_decade_up(rep):
    nodes = make_grid(rep.r_trunc, rep.n_eig + 2).r
    return float(nodes[nodes >= 10.0 * rep.r_trunc][0])


def test_report_sensitivity_fields(grid2000):
    sol = exact_exponential(11.0, 2.0)
    rep = stability_report(sol.sample(grid2000), sol.g_prime())
    assert rep.r_trunc_alt == first_node_a_decade_up(rep)
    assert rep.mu_1_alt > 0.0
    assert abs(rep.rayleigh_min - rep.mu_1) < 1e-4 * max(abs(rep.mu_1), 1.0)
    assert rep.hardy_witness_ok


@pytest.mark.parametrize(
    "sol",
    [exact_exponential(n, 2.0) for n in (3.0, 5.0, 8.0, 9.0, 10.0, 11.0, 12.0, 15.0)]
    + [exact_power(12.0, 2.0, 5.0)],
    ids=["exp3", "exp5", "exp8", "exp9", "exp10", "exp11", "exp12", "exp15", "power12"],
)
def test_mu_1_alt_is_a_trailing_block_of_the_pencil(sol, grid2000):
    # Dirichlet at a node further out restricts the test space: min-max
    rep = stability_report(sol.sample(grid2000), sol.g_prime())
    assert rep.r_trunc_alt == first_node_a_decade_up(rep)
    assert rep.mu_1_alt >= rep.mu_1 - 1e-10 * max(abs(rep.mu_1), 1.0)


def test_stability_report_assembles_one_pencil(grid2000, monkeypatch):
    real, calls = stability.assemble_q, []

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(stability, "assemble_q", counted)
    sol = exact_exponential(11.0, 2.0)
    stability_report(sol.sample(grid2000), sol.g_prime())
    assert len(calls) == 1


def test_minimal_solutions_semi_stable(grid2000, minimal_disk_lam1):
    rep = stability_report(minimal_disk_lam1, Exponential(1.0).derivative)
    assert rep.verdict == "semi-stable"
    assert rep.mu_1 > 0.0


# --- reaction-free identity ---------------------------------------------------


def test_identity_zero_eta(grid2000, minimal_disk_lam1):
    lhs, rhs, rel = reaction_free_identity(
        minimal_disk_lam1, Exponential(1.0).derivative, ZeroEta()
    )
    assert (lhs, rhs, rel) == (0.0, 0.0, 0.0)


def test_identity_on_minimal_solution(grid2000, minimal_disk_lam1):
    res = ode_residual(minimal_disk_lam1, Exponential(1.0))
    lhs, rhs, rel = reaction_free_identity(
        minimal_disk_lam1,
        Exponential(1.0).derivative,
        SineModes(1, 1e-3),
        residual=res,
    )
    assert rel < 1e-4


def test_identity_on_exact_solutions(grid2000):
    for sol, eta in (
        (exact_exponential(12.0, 2.0), PowerCutoff(1.0, 1e-2)),
        (exact_power(15.0, 2.0, 5.0), SineModes(2, 1e-4)),
    ):
        prof = sol.sample(grid2000)
        lhs, rhs, rel = reaction_free_identity(prof, sol.g_prime(), eta)
        assert rel < 1e-4


def test_identity_requires_accurate_solution(grid2000, minimal_disk_lam1):
    with pytest.raises(ParameterError):
        reaction_free_identity(
            minimal_disk_lam1,
            Exponential(1.0).derivative,
            SineModes(1, 1e-3),
            residual=1.0,
        )


def test_identity_refinement_order():
    spec = ProblemSpec(2.0, 2.0, Exponential(1.0))
    gp = Exponential(1.0).derivative
    errs = []
    for count in (500, 1000, 2000):
        grid = make_grid(1e-8, count)
        prof = minimal_iterate(spec, 1.0, grid)
        _, _, rel = reaction_free_identity(prof, gp, SineModes(1, 1e-3))
        errs.append(rel)
    assert math.log2(errs[0] / errs[1]) > 1.8
    assert math.log2(errs[1] / errs[2]) > 1.8


class InfiniteEta(ZeroEta):
    def value(self, r):
        return np.full_like(np.asarray(r, dtype=float), np.inf)


def test_identity_non_finite_is_an_error(grid2000):
    sol = exact_exponential(12.0, 2.0)
    with pytest.raises(ConsistencyError, match="non-finite"):
        reaction_free_identity(sol.sample(grid2000), sol.g_prime(), InfiniteEta())


def test_identity_rhs_needs_no_reaction(grid2000):
    # evaluating with a poisoned g' changes lhs but must not move rhs
    sol = exact_exponential(12.0, 2.0)
    prof = sol.sample(grid2000)
    eta = SineModes(1, 1e-3)
    _, rhs_true, _ = reaction_free_identity(prof, sol.g_prime(), eta)
    _, rhs_poisoned, _ = reaction_free_identity(prof, lambda u: np.full_like(np.asarray(u), 1e6), eta)
    assert rhs_true == rhs_poisoned


# --- constant-free inequality --------------------------------------------------


def test_hardy_holds_for_semi_stable(grid2000, minimal_disk_lam1):
    fam = random_eta_family(np.random.default_rng(99), 1e-6, 20)
    checks = hardy_inequality_check(minimal_disk_lam1, fam)
    assert len(checks) == 20
    assert all(c.satisfied for c in checks)


def test_hardy_violated_for_unstable(grid2000):
    sol = exact_exponential(8.0, 2.0)
    prof = sol.sample(grid2000)
    # the optimizer is a power near (n-p)/2 = 3
    checks = hardy_inequality_check(prof, [PowerCutoff(2.9, 1e-5)])
    assert not checks[0].satisfied


def test_hardy_zero_eta(grid2000, minimal_disk_lam1):
    checks = hardy_inequality_check(minimal_disk_lam1, [ZeroEta()])
    assert checks[0].satisfied and checks[0].lhs == 0.0 and checks[0].rhs == 0.0


def test_hardy_empty_family(minimal_disk_lam1):
    assert hardy_inequality_check(minimal_disk_lam1, []) == []


def test_hardy_rscaled_members_on_semi_stable(grid2000, minimal_disk_lam1):
    inner = [SineModes(j, 1e-5) for j in (1, 2)] + [PowerCutoff(0.7, 1e-3)]
    checks = hardy_inequality_check(minimal_disk_lam1, [RScaled(e) for e in inner])
    # r-scaled functions are again admissible test functions
    assert all(c.satisfied for c in checks)


def hardy_reference(profile, eta_family):
    """The per-member loop ``hardy_inequality_check`` ran before it sampled
    the profile once per family: each member cut alone by ``_cut_points``."""
    n, p = profile.n, profile.p
    out = []
    for eta in eta_family:
        rg, wvol = stability._cut_points(profile, [eta])
        urp = np.abs(np.asarray(profile.u_r_at(rg), dtype=float)) ** p
        ev = np.asarray(eta.value(rg), dtype=float)
        scaled_d = ev + rg * np.asarray(eta.derivative(rg), dtype=float)
        lhs = (n - 1.0) * float(np.dot(wvol, urp * ev**2))
        rhs = (p - 1.0) * float(np.dot(wvol, urp * scaled_d**2))
        out.append((lhs, rhs, bool(lhs <= rhs * (1.0 + 1e-8) + 1e-300)))
    return out


def report_witnesses(r_trunc):
    return [SineModes(j, r_trunc) for j in (1, 2, 3)] + [
        PowerCutoff(alpha, 10.0 * r_trunc) for alpha in (0.5, 1.0, 2.0)
    ]


def hardy_cases(grid2000, disk):
    rng = np.random.default_rng(7)
    inner = [SineModes(j, 1e-5) for j in (1, 2)] + [PowerCutoff(0.7, 1e-3), PowerCutoff(1.5, 0.2)]
    yield disk, random_eta_family(rng, 1e-6, 20)
    yield disk, [RScaled(e) for e in inner] + [ZeroEta()]
    for sol in (exact_exponential(9.0, 2.0), exact_exponential(11.0, 2.0)):
        prof = sol.sample(grid2000)
        yield prof, report_witnesses(1e-6) + random_eta_family(rng, 1e-6, 8)


def test_hardy_shared_sampling_matches_per_member_loop(grid2000, minimal_disk_lam1):
    for prof, family in hardy_cases(grid2000, minimal_disk_lam1):
        checks = hardy_inequality_check(prof, family)
        reference = hardy_reference(prof, family)
        assert len(checks) == len(reference)
        for check, (lhs, rhs, ok) in zip(checks, reference):
            assert abs(check.lhs - lhs) <= 1e-12 * abs(lhs)
            assert abs(check.rhs - rhs) <= 1e-12 * abs(rhs)
            assert check.satisfied == ok


# --- weighted gradient integral --------------------------------------------------


def test_weighted_gradient_range_validation(grid2000):
    sol = exact_exponential(12.0, 2.0)
    prof = sol.sample(grid2000)
    alpha_max = 1.0 + math.sqrt(11.0)
    with pytest.raises(ParameterError):
        weighted_gradient_integral(prof, alpha_max)
    with pytest.raises(ParameterError):
        weighted_gradient_integral(prof, 0.5)


def test_weighted_gradient_exponential_value(grid2000):
    # |u_r|^p r^(-2a) r^(n-1) = 4 r^6 for n=12, p=2, a=1.5: integral 4/7
    sol = exact_exponential(12.0, 2.0)
    prof = sol.sample(grid2000)
    value, implied = weighted_gradient_integral(prof, 1.5)
    ref = 2.0**2 / (12.0 - 2.0 - 2.0 * 1.5)
    assert abs(value - ref) < 1e-7
    factor = 11.0 - 0.25 * 1.0
    grad = 4.0 / 10.0
    assert abs(implied - ref * factor / grad) < 1e-5


def test_weighted_gradient_zero_gradient():
    grid = make_grid(1e-6, 200)
    flat = RadialProfile(
        grid=grid, n=3.0, p=2.0, u=np.ones(grid.size), w=np.zeros(grid.size)
    )
    value, implied = weighted_gradient_integral(flat, 1.2)
    assert value == 0.0 and implied == 0.0
