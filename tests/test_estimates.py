import math

import numpy as np
import pytest

import plaplab.core
import plaplab.estimates
from plaplab import (
    Exponential,
    ParameterError,
    Power,
    ProblemSpec,
    RadialProfile,
    check_regularity_bounds,
    exact_exponential,
    exact_power,
    flux_monotonicity_check,
    gradient_L1_bound,
    integrability_threshold,
    lambda_star_estimate,
    log_singularity_fit,
    lq_norm,
    m_cs,
    make_grid,
    minimal_iterate,
    q_exponent,
    stability_report,
    w1q_norm,
)


def constant_profile(grid, level, n=3.0, p=2.0):
    return RadialProfile(
        grid=grid, n=n, p=p, u=np.full(grid.size, level), w=np.zeros(grid.size)
    )


def test_lq_norm_constant():
    grid = make_grid(1e-8, 1000)
    prof = constant_profile(grid, 1.0, n=3.0)
    assert abs(lq_norm(prof, 2.0) - math.sqrt(1.0 / 3.0)) < 1e-10
    assert lq_norm(prof, math.inf) == 1.0


def test_lq_norm_rejects_small_q():
    grid = make_grid(1e-6, 100)
    with pytest.raises(ParameterError):
        lq_norm(constant_profile(grid, 1.0), 0.5)


def test_norms_reject_nan_q():
    prof = constant_profile(make_grid(1e-6, 100), 1.0)
    for norm in (lq_norm, w1q_norm):
        with pytest.raises(ParameterError, match="q must be at least 1"):
            norm(prof, math.nan)


def test_integrability_threshold_rejects_unknown_component(grid2000):
    prof = exact_power(15.0, 2.0, 5.0).sample(grid2000)
    for component in ("grad", "U", "ur", ""):
        with pytest.raises(ParameterError, match="component must be 'u' or 'u_r'"):
            integrability_threshold(prof, component)


def test_integrability_threshold_needs_three_decades_below_a_tenth():
    prof = exact_power(15.0, 2.0, 5.0).sample(make_grid(2e-4, 200))
    with pytest.raises(ParameterError, match="three decades"):
        integrability_threshold(prof, "u")
    deep_enough = exact_power(15.0, 2.0, 5.0).sample(make_grid(1e-4, 200))
    assert integrability_threshold(deep_enough, "u")[0] < 30.0
    coarse = exact_power(15.0, 2.0, 5.0).sample(make_grid(1e-12, 16))  # 1.3 nodes a decade
    with pytest.raises(ParameterError, match="two grid nodes"):
        integrability_threshold(coarse, "u")


def test_integrability_threshold_builds_no_rule(grid2000, monkeypatch):
    # the head estimate is a fit of nodal values: no quadrature rule
    built = []
    real = plaplab.core.make_rule

    def counting(*args):
        built.append(args)
        return real(*args)

    monkeypatch.setattr(plaplab.core, "make_rule", counting)
    prof = exact_power(15.0, 2.0, m_cs(15.0, 2.0)).sample(grid2000)
    thr, err = integrability_threshold(prof, "u_r")
    assert built == []
    assert abs(thr - q_exponent(15.0, 2.0, 1)) <= err
    # the norms share the profile's one cached rule
    assert math.isfinite(w1q_norm(prof, 3.0))
    assert len(built) == 1
    assert prof.rule is prof.rule


@pytest.mark.parametrize("r_min", [1e-4, 1e-8, 1e-12])
def test_integrability_threshold_error_bounds_the_closed_form(r_min):
    # criterion 11's profiles: u in L^q iff q < 30 (m = 5), u_r iff q < q1 (m_cs)
    grid = make_grid(r_min, 2000)
    thr, err = integrability_threshold(exact_power(15.0, 2.0, 5.0).sample(grid), "u")
    assert abs(thr - 30.0) <= err < 0.05 * 30.0
    q1 = q_exponent(15.0, 2.0, 1)
    thr, err = integrability_threshold(exact_power(15.0, 2.0, m_cs(15.0, 2.0)).sample(grid), "u_r")
    assert abs(thr - q1) <= err <= 1e-11 * q1


@pytest.mark.parametrize("r_min", [1e-4, 1e-8, 1e-12])
@pytest.mark.parametrize("m", [9.0, 41.0, 101.0])
def test_integrability_threshold_of_slowly_converging_power_heads(r_min, m):
    # u = r^(-g) - 1 with g = 2/(m - 1): in L^q iff q < 15/g; the decade
    # estimates' drifts shrink only by about 10^g (1.78, 1.12, 1.05) a decade
    prof = exact_power(15.0, 2.0, m).sample(make_grid(r_min, 2000))
    closed = 15.0 * (m - 1.0) / 2.0
    thr, err = integrability_threshold(prof, "u")
    assert thr < closed and abs(thr - closed) <= err
    assert lq_norm(prof, thr) == math.inf and lq_norm(prof, closed) == math.inf


@pytest.mark.parametrize("r_min", [1e-4, 1e-8, 1e-12])
def test_integrability_threshold_of_the_exponential_profile(r_min):
    # u_r = -2/r is an exact power head, in L^q iff q < n = 12; u = -2 log r
    # is a logarithmic head, in every L^q: its decade estimates n/a grow by
    # n ln 10 a decade toward the origin and never converge
    prof = exact_exponential(12.0, 2.0).sample(make_grid(r_min, 2000))
    thr, err = integrability_threshold(prof, "u_r")
    assert abs(thr - 12.0) <= 1e-12 * 12.0 and abs(thr - 12.0) <= err
    thr, err = integrability_threshold(prof, "u")
    assert thr == math.inf and math.isnan(err)


def test_integrability_threshold_of_bounded_profiles(minimal_disk_lam1):
    grid = make_grid(1e-8, 1000)
    for prof in (constant_profile(grid, 1.0), constant_profile(grid, 0.0), minimal_disk_lam1):
        for component in ("u", "u_r"):
            thr, err = integrability_threshold(prof, component)
            assert thr == math.inf and math.isnan(err)


def test_norms_on_a_grid_too_shallow_to_read_the_head():
    # regime C (n = 12), bounded: the norms are the quadratures on [1e-3, 1]
    grid = make_grid(1e-3, 400)
    prof = minimal_iterate(ProblemSpec(12.0, 2.0, Exponential(1.0)), 10.0, grid)
    with pytest.raises(ParameterError, match="three decades"):
        integrability_threshold(prof, "u")
    u = np.abs(prof.u)
    quad = float(np.max(u)) * prof.rule.integrate((u / np.max(u)) ** 5.0) ** 0.2
    assert lq_norm(prof, 5.0) == quad
    for q in (5.0, 200.0):
        assert math.isfinite(lq_norm(prof, q)) and math.isfinite(w1q_norm(prof, q))


def test_check_reports_norms_on_a_grid_too_shallow_to_read_the_head():
    spec = ProblemSpec(2.0, 2.0, Exponential(1.0))
    prof = minimal_iterate(spec, 1.0, make_grid(1e-3, 400))
    rep = stability_report(prof, Exponential(1.0).derivative, r_trunc=1e-3)
    est = check_regularity_bounds(prof, spec, rep, q_values=(5.0, 200.0))
    assert est.passed
    assert all(math.isfinite(est.norms[k]) for k in ("lq_5", "w1q_5", "lq_200", "w1q_200"))


def test_norms_turn_infinite_at_the_threshold(grid2000):
    prof = exact_power(15.0, 2.0, 5.0).sample(grid2000)
    thr = integrability_threshold(prof, "u")[0]
    assert math.isfinite(lq_norm(prof, math.nextafter(thr, 0.0)))
    assert lq_norm(prof, thr) == math.inf
    # w1q_norm turns at the lesser threshold, here u_r's n/(gamma + 1) = 10
    thr_g = integrability_threshold(prof, "u_r")[0]
    assert thr_g < thr
    assert math.isfinite(w1q_norm(prof, math.nextafter(thr_g, 0.0)))
    assert w1q_norm(prof, thr_g) == math.inf
    # a logarithmic u-head lies in every L^q; the sup norm is never flagged
    log_head = exact_exponential(12.0, 2.0).sample(grid2000)
    assert math.isfinite(lq_norm(log_head, 1e3))
    assert lq_norm(prof, math.inf) == float(np.max(np.abs(prof.u)))


def test_lq_integrability_of_power_solution(grid2000):
    # u in L^q iff q < n(m-(p-1))/p = 30
    prof = exact_power(15.0, 2.0, 5.0).sample(grid2000)
    assert math.isfinite(lq_norm(prof, 29.0))
    assert lq_norm(prof, 31.0) == math.inf


def test_lq_threshold_matches_prediction(grid2000):
    prof = exact_power(15.0, 2.0, 5.0).sample(grid2000)
    thr, _ = integrability_threshold(prof, "u")
    assert abs(thr - 30.0) / 30.0 < 0.02


def test_w1q_constant_profile():
    grid = make_grid(1e-8, 1000)
    prof = constant_profile(grid, 2.0, n=3.0)
    assert abs(w1q_norm(prof, 3.0) - lq_norm(prof, 3.0)) < 1e-12


def test_w1q_threshold_exponential(grid2000):
    # u_r = -2/r lies in L^q iff q < n = 12; the gradient-exponent
    # prediction q1 must stay below that analytic threshold
    prof = exact_exponential(12.0, 2.0).sample(grid2000)
    thr, _ = integrability_threshold(prof, "u_r")
    assert abs(thr - 12.0) / 12.0 < 0.02
    assert q_exponent(12.0, 2.0, 1) <= 12.0 * 1.02


def test_w1q_threshold_at_critical_power(grid2000):
    n, p = 15.0, 2.0
    prof = exact_power(n, p, m_cs(n, p)).sample(grid2000)
    q1 = q_exponent(n, p, 1)
    assert math.isfinite(w1q_norm(prof, 0.95 * q1))
    assert w1q_norm(prof, 1.05 * q1) == math.inf


def test_log_singularity_fit_of_the_exponential_head(grid2000):
    # u = -2 log r: coefficient 2 of |log r|, a head with no finite threshold
    prof = exact_exponential(12.0, 2.0).sample(grid2000)
    slope, stderr = log_singularity_fit(prof, (1e-5, 0.01))
    assert abs(slope - 2.0) < 1e-3 and stderr < 1e-3
    assert integrability_threshold(prof, "u")[0] == math.inf


def test_log_singularity_fit_window_validation(grid2000):
    prof = exact_exponential(12.0, 2.0).sample(grid2000)
    with pytest.raises(ParameterError, match="one decade"):
        log_singularity_fit(prof, (1e-5, 2e-5))
    with pytest.raises(ParameterError, match="inside"):
        log_singularity_fit(prof, (1e-9, 0.01))  # undercuts 10 r_min
    with pytest.raises(ParameterError, match="inside"):
        log_singularity_fit(prof, (1e-4, 0.5))  # beyond 0.1


def test_flux_check_solver_output(minimal_disk_lam1):
    check = flux_monotonicity_check(minimal_disk_lam1)
    assert check.monotone and check.location_r is None


def test_flux_check_zero_profile():
    grid = make_grid(1e-6, 128)
    check = flux_monotonicity_check(constant_profile(grid, 0.0))
    assert check.monotone


def test_flux_check_locates_bump():
    grid = make_grid(1e-6, 128)
    w = -np.linspace(0.0, 1.0, grid.size) ** 2
    w[64] = 0.5 * w[63]  # -w drops here
    prof = RadialProfile(
        grid=grid, n=2.0, p=2.0, u=np.linspace(1.0, 0.0, grid.size), w=w
    )
    check = flux_monotonicity_check(prof)
    assert not check.monotone
    assert check.max_violation > 0.0
    assert abs(check.location_r - grid.r[63]) < 1e-12


def test_gradient_bound_zero_profile():
    grid = make_grid(1e-6, 128)
    lhs, terms, implied = gradient_L1_bound(
        constant_profile(grid, 0.0), Exponential(1.0)
    )
    assert lhs == 0.0 and implied == 0.0


def test_gradient_bound_exponential_analytic(grid2000):
    sol = exact_exponential(12.0, 2.0)
    lhs, (tu, tg), implied = gradient_L1_bound(sol.sample(grid2000), sol.nonlinearity())
    assert abs(lhs - math.sqrt(0.4)) < 1e-8
    assert abs(tu - 2.0 / 144.0) < 1e-10  # int (-2 log r) r^11 dr = 2/144
    assert abs(tg - 2.0) < 1e-7  # (int 20 r^9 dr)^(1/(p-1)) = 2
    assert 0.0 < implied < 1.0


def test_gradient_bound_rejects_negative_reaction(grid2000):
    prof = exact_exponential(12.0, 2.0).sample(grid2000)
    with pytest.raises(ParameterError):
        gradient_L1_bound(prof, Exponential(-1.0))


def test_gradient_bound_constant_across_branch(gelfand_disk_spec, grid2000):
    consts = []
    for lam in (0.4, 0.8, 1.2, 1.6, 1.9):
        prof = minimal_iterate(gelfand_disk_spec, lam, grid2000)
        _, _, implied = gradient_L1_bound(prof, Exponential(lam))
        consts.append(implied)
    assert max(consts) / min(consts) < 10.0


# --- consolidated checks -----------------------------------------------------


def test_check_requires_stability_certificate(grid2000, minimal_disk_lam1):
    spec = ProblemSpec(2.0, 2.0, Exponential(1.0))
    with pytest.raises(ParameterError):
        check_regularity_bounds(minimal_disk_lam1, spec, None)


def test_check_refuses_unstable_profiles(grid2000):
    sol = exact_exponential(8.0, 2.0)
    prof = sol.sample(grid2000)
    rep = stability_report(prof, sol.g_prime())
    spec = ProblemSpec(8.0, 2.0, Exponential(sol.lambda_star))
    with pytest.raises(ParameterError):
        check_regularity_bounds(prof, spec, rep)


def test_check_bounded_regime(grid2000):
    spec = ProblemSpec(5.0, 2.0, Exponential(1.0))
    res = lambda_star_estimate(spec, grid2000, tol_lambda=1e-2)
    prof = minimal_iterate(spec, 0.9 * res.lambda_lo, grid2000)
    rep = stability_report(prof, Exponential(0.9 * res.lambda_lo).derivative)
    scaled = ProblemSpec(5.0, 2.0, Exponential(0.9 * res.lambda_lo))
    est = check_regularity_bounds(prof, scaled, rep)
    assert est.regime == "A"
    assert est.checks["bounded"]
    assert est.passed
    assert est.implied_constants["linf_over_w1p"] > 0


def test_check_log_regime(grid2000):
    # boundary dimension: the singular solution grows like a logarithm
    sol = exact_exponential(10.0, 2.0)
    prof = sol.sample(grid2000)
    rep = stability_report(prof, sol.g_prime())
    assert rep.verdict in ("semi-stable", "marginal")
    spec = ProblemSpec(10.0, 2.0, Exponential(sol.lambda_star))
    est = check_regularity_bounds(prof, spec, rep)
    assert est.regime == "B"
    assert est.checks["log_bound"]


@pytest.mark.parametrize("r_min", [1e-8, 1e-6, 1e-4, 3e-4, 1e-3])
def test_log_bound_reads_a_log_head_on_every_grid_and_rejects_a_power_head(r_min):
    """Regime B's log_bound compares u's slope against |log r| over the
    deepest decade with that over the next.  The exact log head
    u = -2 log r (n = 10, p = 2) has the same slope on both, so it passes
    whatever r_min is; a ratio u / (|log r| + 1) would still rise toward the
    origin and failed from r_min 3e-4 on.  Power heads r^(-a) - 1 rise
    10^a times a decade and fail, down to a = 0.05; a bounded minimal
    solution passes.  The stability verdict only admits the profile here."""
    from types import SimpleNamespace

    admitted = SimpleNamespace(verdict="semi-stable")
    grid = make_grid(r_min, 2000)
    sol = exact_exponential(10.0, 2.0)
    est = check_regularity_bounds(sol.sample(grid), ProblemSpec(10.0, 2.0, Exponential(sol.lambda_star)), admitted)
    assert est.regime == "B" and est.checks["log_bound"]
    for a in (0.5, 0.05):
        u = grid.r ** -a - 1.0
        head = RadialProfile(grid=grid, n=10.0, p=2.0, u=u, w=-(grid.r**9) * a * grid.r ** (-a - 1.0))
        est = check_regularity_bounds(head, ProblemSpec(10.0, 2.0, Power(m=3.0)), admitted)
        assert est.regime == "B" and not est.checks["log_bound"]
    spec = ProblemSpec(10.0, 2.0, Exponential(1.0))
    bounded = minimal_iterate(spec, 5.0, grid)
    est = check_regularity_bounds(bounded, ProblemSpec(10.0, 2.0, Exponential(5.0)), admitted)
    assert est.checks["log_bound"]


def test_check_singular_regime_log_head_passes_inequality(grid2000):
    sol = exact_exponential(12.0, 2.0)
    prof = sol.sample(grid2000)
    rep = stability_report(prof, sol.g_prime())
    spec = ProblemSpec(12.0, 2.0, Exponential(sol.lambda_star))
    est = check_regularity_bounds(prof, spec, rep)
    assert est.regime == "C"
    assert est.checks["pointwise_slope"]
    assert est.checks["lq_below_q0"]
    assert est.checks["gradient_slope"]
    # a logarithmic head has no finite threshold: exponent 0, far inside the
    # power bound; u_r = -2/r is the exact power head r^(-1)
    assert est.fitted_exponent == 0.0 and est.fitted_exponent > -(est.exponent_target + 0.05)
    assert abs(est.implied_constants["gradient_slope"] + 1.0) < 1e-11


def test_check_singular_regime_bounded_head(grid2000):
    # the n = 12 minimal solution at lambda = 10 is bounded: neither head
    # grows toward the origin, so both read exponent 0 and pass
    spec = ProblemSpec(12.0, 2.0, Exponential(10.0))
    prof = minimal_iterate(ProblemSpec(12.0, 2.0, Exponential(1.0)), 10.0, grid2000)
    est = check_regularity_bounds(prof, spec, stability_report(prof, spec.nonlinearity.derivative))
    assert est.regime == "C" and est.passed and not est.singular
    assert est.fitted_exponent == 0.0 and est.implied_constants["gradient_slope"] == 0.0
    assert est.notes == ()


def test_check_reads_each_head_once(grid2000, monkeypatch):
    sol = exact_exponential(12.0, 2.0)
    prof = sol.sample(grid2000)
    rep = stability_report(prof, sol.g_prime())
    spec = ProblemSpec(12.0, 2.0, Exponential(sol.lambda_star))
    calls = []
    real = plaplab.estimates.integrability_threshold

    def counting(profile, component):
        calls.append(component)
        return real(profile, component)

    monkeypatch.setattr(plaplab.estimates, "integrability_threshold", counting)
    est = check_regularity_bounds(prof, spec, rep, q_values=(5.0, 200.0))
    assert sorted(calls) == ["u", "u_r"]
    # the shared reads give the norms the public functions give
    monkeypatch.undo()
    for q in (5.0, 200.0):
        assert est.norms[f"lq_{q:g}"] == lq_norm(prof, q)
        assert est.norms[f"w1q_{q:g}"] == w1q_norm(prof, q)


def test_check_skips_head_checks_on_a_grid_too_shallow_to_read_the_head():
    # regime B at r_min = 3e-4: only gradient_slope reads a head
    sol = exact_exponential(10.0, 2.0)
    prof = sol.sample(make_grid(3e-4, 400))
    rep = stability_report(prof, sol.g_prime(), r_trunc=3e-4)
    est = check_regularity_bounds(prof, ProblemSpec(10.0, 2.0, Exponential(sol.lambda_star)), rep)
    assert est.regime == "B" and "gradient_slope" not in est.checks
    assert est.notes == (
        "gradient_slope skipped: the head needs three decades in [r_min, 0.1], got r_min = 0.0003",
    )


def test_check_singular_regime_saturated(grid2000):
    n, p = 15.0, 2.0
    sol = exact_power(n, p, m_cs(n, p))
    prof = sol.sample(grid2000)
    rep = stability_report(prof, sol.g_prime())
    spec = ProblemSpec(n, p, Power(sol.m, sol.lambda_star))
    est = check_regularity_bounds(prof, spec, rep)
    assert est.regime == "C"
    assert est.passed
    # the fitted head exponent saturates the bound
    assert abs(est.fitted_exponent + est.exponent_target) < 1e-3


def test_check_evaluates_the_reaction_once(grid2000, monkeypatch):
    sol = exact_exponential(12.0, 2.0)
    prof = sol.sample(grid2000)
    rep = stability_report(prof, sol.g_prime())
    spec = ProblemSpec(12.0, 2.0, Exponential(sol.lambda_star))
    calls = []
    real = Exponential.value

    def counting(self, u):
        calls.append(self)
        return real(self, u)

    monkeypatch.setattr(Exponential, "value", counting)
    assert check_regularity_bounds(prof, spec, rep).checks["gradient_bound_finite"]
    assert len(calls) == 1


def test_check_skips_gradient_bounds_for_a_nan_reaction(grid2000):
    sol = exact_exponential(12.0, 2.0)
    prof = sol.sample(grid2000)
    rep = stability_report(prof, sol.g_prime())
    with pytest.raises(ParameterError, match="nonnegative"):
        gradient_L1_bound(prof, Exponential(math.nan))
    est = check_regularity_bounds(prof, ProblemSpec(12.0, 2.0, Exponential(math.nan)), rep)
    assert est.notes == ("reaction changes sign; gradient bounds skipped",)
    assert "gradient_bound_finite" not in est.checks


def test_check_mismatched_problem(grid2000, minimal_disk_lam1):
    spec = ProblemSpec(3.0, 2.0, Exponential(1.0))
    rep = stability_report(minimal_disk_lam1, Exponential(1.0).derivative)
    with pytest.raises(ParameterError):
        check_regularity_bounds(minimal_disk_lam1, spec, rep)


def test_report_serialization(grid2000, minimal_disk_lam1):
    spec = ProblemSpec(2.0, 2.0, Exponential(1.0))
    rep = stability_report(minimal_disk_lam1, Exponential(1.0).derivative)
    est = check_regularity_bounds(minimal_disk_lam1, spec, rep, q_values=(3.0,))
    d = est.as_dict()
    assert d["regime"] == "A"
    assert "lq_3" in d["norms"]
    assert isinstance(d["passed"], bool)
