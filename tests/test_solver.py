import dataclasses
import math
import warnings

import numpy as np
import pytest

from plaplab import solver
from plaplab import (
    BracketingError,
    ConsistencyError,
    Exponential,
    IterationControls,
    LambdaRecord,
    ParameterError,
    Power,
    ProblemSpec,
    RadialProfile,
    bifurcation_curve,
    exact_exponential,
    lambda_star_estimate,
    make_grid,
    make_rule,
    minimal_iterate,
    shoot,
)
from rk4_reference import reference_shoot

# Gelfand problem on the disk: u = 2 log((1+b)/(1+b r^2)) solves
# -lap u = lam e^u with lam = 8b/(1+b)^2, u(1) = 0, u(0) = 2 log(1+b);
# the parameter peaks at b = 1 with value 2.  Verified against the
# equation by direct differentiation before being frozen here.


def liouville_lambda(b):
    return 8.0 * b / (1.0 + b) ** 2


def liouville_center(b):
    return 2.0 * math.log(1.0 + b)


def test_shoot_without_source(grid2000):
    spec = ProblemSpec(2.0, 2.0, Power(m=0.0, scale=0.0))
    assert shoot(spec, 1.0, grid2000) == 1.0


def test_shoot_constant_source(grid2000):
    # closed form: u = M - (p-1)/p (c/n)^(1/(p-1)) r^(p/(p-1))
    c, n, p, m0 = 3.0, 3.0, 2.5, 2.0
    spec = ProblemSpec(n, p, Power(m=0.0, scale=c))
    ref = m0 - (p - 1.0) / p * (c / n) ** (1.0 / (p - 1.0))
    assert abs(shoot(spec, m0, grid2000) - abs(ref)) < 1e-8


def test_shoot_startup_flux(grid2000):
    r0 = grid2000.r_min
    expected = -(r0**12.0) * math.e / 12.0
    _, w0 = solver._startup_series(math.e, 1.0, 12.0, 2.0, r0)
    assert abs(w0 - expected) <= 1e-12 * abs(expected)


def test_shoot_series_seed_settles_onto_singular_solution(grid2000):
    # the regular-center startup series is wrong for a singular target, but
    # the deviation decays like a negative power of r/r_min: u(1) = 0
    sol = exact_exponential(12.0, 2.0)
    spec = ProblemSpec(12.0, 2.0, Exponential(sol.lambda_star))
    assert shoot(spec, float(sol.u_at(grid2000.r_min)), grid2000) < 1e-6


def test_shoot_blowup_guard(monkeypatch):
    # the slab's trajectory from M = 10 passes -100 near r = 0.52 and
    # reaches u(1) = -198.5 without the guard
    grid = make_grid(1e-8, 500)
    spec = ProblemSpec(1.0, 2.0, Exponential(1.0))
    assert abs(shoot(spec, 10.0, grid) - 198.5) < 0.05
    monkeypatch.setattr(solver, "SHOOT_GUARD", 100.0)
    assert shoot(spec, 10.0, grid) == math.inf


def test_shoot_starts_inward_for_a_large_centre(grid2000):
    # at r_min the startup series' correction is 2.9e-7 M, above 1e-8 M
    b = math.expm1(25.0)
    assert shoot(ProblemSpec(2.0, 2.0, Exponential(liouville_lambda(b))), liouville_center(b), grid2000) <= 1e-10


def test_shoot_runs_past_a_large_centre_below_the_fold(grid2000):
    # lambda = 1 lies far above the curve's lambda(500) = 8e^-250, so u falls
    # far below zero; an r_min start put the series value below -1000 there
    assert 490.0 < shoot(ProblemSpec(2.0, 2.0, Exponential(1.0)), 500.0, grid2000) < 500.0


def test_minimal_iterate_zero_lambda(grid2000):
    spec = ProblemSpec(2.0, 2.0, Exponential(1.0))
    prof = minimal_iterate(spec, 0.0, grid2000)
    assert np.max(np.abs(prof.u)) == 0.0


def test_minimal_iterate_matches_liouville(grid2000, minimal_disk_lam1):
    b = 3.0 - 2.0 * math.sqrt(2.0)  # minimal branch root of lam = 1
    assert abs(liouville_lambda(b) - 1.0) < 1e-15
    ref = 2.0 * np.log((1.0 + b) / (1.0 + b * grid2000.r**2))
    assert np.max(np.abs(minimal_disk_lam1.u - ref)) < 1e-8
    assert abs(minimal_disk_lam1.u[0] - liouville_center(b)) < 1e-8


@pytest.mark.usefixtures("without_unstable_stop")
def test_minimal_iterate_diverges_above_threshold(grid2000):
    spec = ProblemSpec(2.0, 2.0, Exponential(1.0))
    out = minimal_iterate(spec, 3.0, grid2000)
    assert isinstance(out, LambdaRecord)
    assert out.reason in ("exceeded u_max", "overflow")


def test_minimal_iterate_iteration_cap(grid2000):
    spec = ProblemSpec(2.0, 2.0, Exponential(1.0))
    out = minimal_iterate(spec, 1.9, grid2000, IterationControls(k_max=5))
    assert isinstance(out, LambdaRecord) and out.reason == "iteration cap"


def test_minimal_iterate_requires_admissible_reaction(grid2000):
    with pytest.raises(ParameterError):
        minimal_iterate(ProblemSpec(2.0, 2.0, Power(m=-2.0)), 1.0, grid2000)
    with pytest.raises(ParameterError):
        minimal_iterate(ProblemSpec(31.0, 2.0, Exponential(1.0)), 1.0, grid2000)


def test_lambda_star_gelfand_disk(continuation_disk):
    res = continuation_disk
    assert res.lambda_lo <= 2.0 * 1.01
    assert res.lambda_hi >= 2.0 * 0.99
    assert (res.lambda_hi - res.lambda_lo) <= 1.1e-3 * res.lambda_hi + 1e-12


def test_lambda_star_supercritical(continuation_12_2, continuation_10_3):
    assert continuation_12_2.lambda_lo <= 20.0 * 1.01
    assert continuation_12_2.lambda_hi >= 20.0 * 0.99
    assert continuation_10_3.lambda_lo <= 63.0 * 1.01
    assert continuation_10_3.lambda_hi >= 63.0 * 0.99


def test_lambda_star_records_monotone(continuation_disk):
    conv = [r for r in continuation_disk.records if r.converged]
    sups = [r.sup_norm for r in conv]
    assert all(b >= a - 1e-12 for a, b in zip(sups, sups[1:]))
    div = [r for r in continuation_disk.records if not r.converged]
    assert div, "bracketing needs at least one divergent probe"
    assert min(r.lam for r in div) > max(r.lam for r in conv) - 1e-12


def test_lambda_star_rejects_sublinear():
    from plaplab import BracketingError

    grid = make_grid(1e-6, 300)
    # tabulated reaction that flattens out: no divergence below the cap
    ts = np.linspace(0.0, 2e4, 600)
    vals = 1.0 + np.tanh(ts / 10.0)
    with np.errstate(over="ignore"):
        slopes = np.where(ts < 300.0, 1.0 / np.cosh(np.minimum(ts, 300.0) / 10.0) ** 2 / 10.0, 0.0)
    from plaplab import Tabulated

    f = Tabulated(tuple(ts), tuple(vals), tuple(slopes))
    spec = ProblemSpec(2.0, 2.0, f)
    with pytest.raises(BracketingError):
        lambda_star_estimate(spec, grid, IterationControls(u_max=1e4), lam_cap=1e4)


def test_extremal_profile_near_fold(gelfand_disk_spec, grid2000):
    res = lambda_star_estimate(gelfand_disk_spec, grid2000, tol_lambda=2e-5)
    prof = res.profile_lo
    ref = 2.0 * np.log(2.0 / (1.0 + grid2000.r**2))
    scale = np.maximum(np.abs(ref), 1e-2)
    assert np.max(np.abs(prof.u - ref) / scale) < 0.01


def test_bifurcation_curve_matches_liouville(gelfand_disk_spec, grid2000):
    bs = [0.2, 0.6, 1.0, 1.8]
    centers = [liouville_center(b) for b in bs]
    points = bifurcation_curve(gelfand_disk_spec, centers, grid2000)
    for b, pt in zip(bs, points):
        assert pt.converged
        assert abs(pt.lam - liouville_lambda(b)) < 1e-6 * liouville_lambda(b)
        assert pt.boundary_residual < 1e-8 * max(pt.center_value, 1.0)


def test_bifurcation_fold_matches_lambda_star(gelfand_disk_spec, grid2000, continuation_disk):
    centers = [liouville_center(b) for b in (0.6, 0.8, 1.0, 1.25, 1.6)]
    points = bifurcation_curve(gelfand_disk_spec, centers, grid2000)
    fold = max(pt.lam for pt in points if pt.converged)
    mid = 0.5 * (continuation_disk.lambda_lo + continuation_disk.lambda_hi)
    assert abs(fold - mid) < 0.01 * mid


def test_bifurcation_small_center_small_lambda(gelfand_disk_spec, grid2000):
    points = bifurcation_curve(gelfand_disk_spec, [0.01], grid2000)
    assert points[0].converged and points[0].lam < 0.05


def test_bifurcation_rejects_bad_centers(gelfand_disk_spec, grid2000):
    with pytest.raises(ParameterError):
        bifurcation_curve(gelfand_disk_spec, [1.0, 0.5], grid2000)
    with pytest.raises(ParameterError):
        bifurcation_curve(gelfand_disk_spec, [-1.0], grid2000)


def test_bifurcation_scaling_matches_liouville_closely(gelfand_disk_spec, grid2000):
    bs = [0.02, 0.1, 0.3, 0.6, 1.0, 1.8, 4.0, 10.0, 30.0]
    points = bifurcation_curve(gelfand_disk_spec, [liouville_center(b) for b in bs], grid2000)
    for b, pt in zip(bs, points):
        assert pt.converged
        assert abs(pt.lam - liouville_lambda(b)) <= 1e-9 * liouville_lambda(b)


def test_bifurcation_large_centres_match_liouville(gelfand_disk_spec, grid2000):
    # the solution's length scale shrinks like e^(-M/2), so the startup series
    # must start inside r_min when M is large, and so must the certificate
    ms = [30.0, 36.0, 40.0, 50.0]
    for m_val, pt in zip(ms, bifurcation_curve(gelfand_disk_spec, ms, grid2000)):
        lam = liouville_lambda(math.expm1(m_val / 2.0))
        assert pt.converged
        assert abs(pt.lam - lam) <= 1e-9 * lam
        assert pt.boundary_residual <= 1e-8 * m_val


def test_bifurcation_curve_reaches_the_overflow_of_e_to_the_m(gelfand_disk_spec, grid2000):
    # e^M is finite up to M = 709.78, and so far the curve follows Liouville
    # (on a bound of its own: the start lies near r = 1e-154); past it g(M)
    # overflows first, and the point is recorded without a numpy warning
    ms = [701.0, 705.0, 709.7, 710.0, 720.0, 800.0]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        points = bifurcation_curve(gelfand_disk_spec, ms, grid2000)
    for m_val, pt in zip(ms[:3], points):
        lam = liouville_lambda(math.expm1(m_val / 2.0))
        assert pt.converged
        assert abs(pt.lam - lam) <= 1e-8 * lam
        assert pt.boundary_residual <= 1e-8 * m_val
    for m_val, pt in zip(ms[3:], points[3:]):
        assert repr(dataclasses.astuple(pt)) == repr((m_val, math.nan, math.inf, False, 0))


@pytest.mark.parametrize(
    "n, p, m, nodes, m_val, converged",
    [
        # the certifying shoot's stages reach 1 + u < 0, where (1 + u)^m is
        # not real: the point stands, uncertified
        (30.0, 1.1, 3.5, 2000, 5000.0, True),
        # the final step in u lands far past the comparison bound S_max
        (12.0, 1.05, 2.5, 129, 50.0, False),
        (2.0, 1.2, 2.5, 16, 500.0, False),
        # S^p would be e^1130: the march stops where S^p passes e^709.78
        (3.0, 6.0, 0.1, 129, 1e100, False),
    ],
)
def test_bifurcation_power_failures_are_recorded(n, p, m, nodes, m_val, converged):
    (pt,) = bifurcation_curve(ProblemSpec(n, p, Power(m=m)), [m_val], make_grid(1e-8, nodes))
    assert pt.converged == converged and math.isfinite(pt.lam) == converged
    assert pt.boundary_residual == math.inf


def test_bifurcation_huge_centre_is_never_falsely_converged(grid2000):
    spec = ProblemSpec(12.0, 2.0, Exponential(1.0))
    points = bifurcation_curve(spec, [100.0, 300.0], grid2000)
    # M = 100 converges, and its certificate starts inside r_min
    assert points[0].converged and points[0].boundary_residual <= 1e-8 * 100.0
    for pt in points:
        if pt.converged:
            assert 19.9 < pt.lam < 20.0
        else:
            assert math.isnan(pt.lam)


@pytest.mark.parametrize(
    "n, p, f",
    [
        (2.0, 2.0, Exponential(1.0)),
        (5.0, 2.0, Exponential(1.0)),
        (3.0, 1.5, Exponential(1.0)),
        (4.0, 3.0, Power(m=3.0)),
        (3.0, 2.0, Power(m=3.0)),
    ],
)
def test_bifurcation_point_certified_by_fixed_grid_shoot(n, p, f, grid2000):
    # the residual is u(1) of a fixed-grid shoot at the reported lambda; the
    # bound is the acceptance tolerance of the secant search it replaced
    points = bifurcation_curve(ProblemSpec(n, p, f), [0.25, 0.5, 1.0, 2.0, 4.0, 8.0], grid2000)
    for pt in points:
        assert pt.converged and pt.lam > 0
        assert pt.boundary_residual <= 1e-8 * max(pt.center_value, 1.0)


def test_bifurcation_negative_reaction_is_unconverged(grid2000):
    points = bifurcation_curve(ProblemSpec(3.0, 2.0, Power(m=1.0, scale=-1.0)), [0.5, 2.0], grid2000)
    assert [pt.converged for pt in points] == [False, False]
    assert all(math.isnan(pt.lam) and pt.boundary_residual == math.inf for pt in points)


def test_bifurcation_certificate_overflow_is_recorded(grid2000):
    # the certifying shoot's startup series raises (g(M)/n)^(1/(p-1)) to the
    # 10th power and overflows: a point with residual inf, not an error
    (pt,) = bifurcation_curve(ProblemSpec(5.0, 1.1, Exponential(1.0)), [72.0], grid2000)
    assert pt.converged and abs(pt.lam - 3.93734865) < 1e-8
    assert pt.boundary_residual == math.inf
    with pytest.raises(OverflowError):
        solver._startup_series(pt.lam * math.exp(72.0), 72.0, 5.0, 1.1, grid2000.r_min)


def test_bifurcation_tiny_centre_start_underflow_is_recorded(grid2000):
    # 1e-8 M p/(p-1) underflows to 0 at M = 1e-320: an unconverged point,
    # not a math domain error, and the next centre gets the point it gets alone
    spec = ProblemSpec(2.0, 2.0, Exponential(1.0))
    tiny, pt = bifurcation_curve(spec, [1e-320, 0.5], grid2000)
    assert repr(dataclasses.astuple(tiny)) == repr((1e-320, math.nan, math.inf, False, 0))
    assert dataclasses.astuple(pt) == dataclasses.astuple(bifurcation_curve(spec, [0.5], grid2000)[0])
    with pytest.raises(FloatingPointError):
        solver._series_start(1.0, 1e-320, 2.0, 2.0)
    assert shoot(spec, 1e-320, grid2000) == math.inf
    # where the product is positive the start is finite and the point converges
    (small,) = bifurcation_curve(spec, [1e-300], grid2000)
    assert small.converged and abs(small.lam / 4e-300 - 1.0) < 1e-9


def test_bifurcation_coarse_grid_point_is_finite_but_off():
    # n = 22, p = 1.2 on 129 nodes: the point is finite and within 6% of the
    # 8,000-node lambda = 21.5725, and its certificate shows the grid error
    # (a start at r_min once overflowed it to lambda = 1.2e287)
    (pt,) = bifurcation_curve(ProblemSpec(22.0, 1.2, Exponential(1.0)), [22.68], make_grid(1e-8, 129))
    assert math.isfinite(pt.lam) and abs(pt.lam / 21.5725 - 1.0) <= 0.06
    assert pt.boundary_residual > 1e-5 * 22.68


def test_bifurcation_startup_overflow_is_recorded(grid2000):
    # the scaled integration's own startup series overflows (power 100)
    spec = ProblemSpec(12.0, 1.01, Power(m=1.055, scale=5.75e9))
    (pt,) = bifurcation_curve(spec, [0.76], grid2000)
    assert repr(dataclasses.astuple(pt)) == repr((0.76, math.nan, math.inf, False, 0))


def test_bifurcation_critical_dimension_dichotomy(grid2000):
    # p = 2: below n = p + 4p/(p-1) = 10 the curve oscillates around the
    # singular value p^(p-1)(n-p); above it, it stays below that value
    centers = np.linspace(1.0, 10.0, 19)
    lam5 = np.array([pt.lam for pt in bifurcation_curve(ProblemSpec(5.0, 2.0, Exponential(1.0)), centers, grid2000)])
    crossings = np.count_nonzero(np.diff(np.sign(lam5 - 6.0)))
    assert crossings >= 2
    lam12 = [pt.lam for pt in bifurcation_curve(ProblemSpec(12.0, 2.0, Exponential(1.0)), centers, grid2000)]
    assert max(lam12) < 20.0


def test_minimal_and_shoot_agree(gelfand_disk_spec, grid2000, minimal_disk_lam1):
    center = float(minimal_disk_lam1.u[0])
    spec = ProblemSpec(2.0, 2.0, Exponential(1.0))
    assert shoot(spec, center, grid2000) < 1e-6 * max(center, 1.0)


def test_minimal_and_scaled_route_agree(gelfand_disk_spec, grid2000, minimal_disk_lam1):
    # the monotone iteration's lambda = 1 solution has u(0) = 0.31669...; the
    # curve through that centre value must come back to lambda = 1
    center = float(minimal_disk_lam1.u[0])
    assert abs(center - 0.3166943677) < 1e-9
    (pt,) = bifurcation_curve(gelfand_disk_spec, [center], grid2000)
    assert pt.converged and abs(pt.lam - 1.0) <= 1e-8


def test_flux_monotone_on_minimal_solutions(minimal_disk_lam1):
    neg_w = -minimal_disk_lam1.w
    assert np.all(np.diff(neg_w) >= -1e-10)


@pytest.mark.usefixtures("without_unstable_stop")
def test_divergence_record_fields(grid2000):
    spec = ProblemSpec(2.0, 2.0, Exponential(1.0))
    out = minimal_iterate(spec, 5.0, grid2000)
    assert isinstance(out, LambdaRecord)
    assert out.lam == 5.0 and out.iterations > 0 and out.sup_norm > 1e6


@pytest.mark.usefixtures("without_unstable_stop")
@pytest.mark.parametrize("n, p", [(5.0, 1.5), (3.0, 1.3)])
def test_lambda_star_flux_overflow_is_a_divergence(n, p, grid2000):
    # for p < 2 the slope (F r^(1-n))^(1/(p-1)) can overflow before u_max
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = lambda_star_estimate(ProblemSpec(n, p, Exponential(1.0)), grid2000)
    assert 0.0 < res.lambda_lo < res.lambda_hi <= res.lambda_lo * (1.0 + 1e-3)
    # subcritical (n < p + 4p/(p-1)): the fold lies above the singular parameter
    assert res.lambda_lo > p ** (p - 1.0) * (n - p)
    assert any(not rec.converged and rec.sup_norm == math.inf for rec in res.records)


@pytest.mark.parametrize("offset, raises", [(1e-6, True), (1e-13, False)])
def test_monotone_iteration_guard(offset, raises, grid2000, monkeypatch):
    """A sweep that lowers u by more than the 1e-12 slack is a bug, caught."""
    real_step = solver._iteration_step
    sweeps = 0

    def lowered_third_sweep(u, *args):
        nonlocal sweeps
        sweeps += 1
        u_next, F = real_step(u, *args)
        if sweeps == 3:
            u_next = u_next - offset
        return u_next, F

    monkeypatch.setattr(solver, "_iteration_step", lowered_third_sweep)
    spec = ProblemSpec(2.0, 2.0, Exponential(1.0))
    if raises:
        with pytest.raises(ConsistencyError, match="decreased"):
            minimal_iterate(spec, 1.0, grid2000)
        assert sweeps == 3
    else:
        assert not isinstance(minimal_iterate(spec, 1.0, grid2000), LambdaRecord)


@pytest.mark.parametrize(
    "n, p, lam, controls, source, sweeps",
    [
        # e^u overflows once u passes 709, long before this u_max
        (2.0, 2.0, 4.0, IterationControls(u_max=1e300), "reaction", 6),
        # p < 2: the slope (F r^(1-n))^2 overflows while e^u is still finite
        (3.0, 1.5, 100.0, IterationControls(), "slope", 2),
    ],
)
@pytest.mark.usefixtures("without_unstable_stop")
def test_sweep_ends_each_non_finite_source_as_overflow(
    n, p, lam, controls, source, sweeps, grid2000, monkeypatch
):
    """A sweep tests only the next u for finiteness; a non-finite reaction
    value or slope integrand still ends the probe as an overflow at the sweep
    where it arises (the sweep indices of per-array finiteness tests)."""
    real_step = solver._iteration_step
    inputs = []

    def recording_step(u, *args):
        inputs.append(u)
        return real_step(u, *args)

    monkeypatch.setattr(solver, "_iteration_step", recording_step)
    spec = ProblemSpec(n, p, Exponential(1.0))
    out = minimal_iterate(spec, lam, grid2000, controls)
    assert isinstance(out, LambdaRecord)
    assert (out.iterations, out.sup_norm, out.reason) == (sweeps, math.inf, "overflow")
    assert len(inputs) == sweeps
    with np.errstate(over="ignore"):
        fv = lam * np.exp(inputs[-1])
        assert np.isfinite(fv).all() == (source == "slope")
        if source == "slope":
            F = make_rule(grid2000, n).cumulative_from_zero(fv)
            assert not np.isfinite((F * grid2000.r ** (1.0 - n)) ** (1.0 / (p - 1.0))).all()


@pytest.mark.parametrize(
    "lam, controls, reason",
    [
        (1.0, IterationControls(), "converged"),
        (5.0, IterationControls(), "exceeded u_max"),
        (4.0, IterationControls(u_max=1e300), "overflow"),
        (1.0, IterationControls(k_max=5), "iteration cap"),
        (3.0, IterationControls(), "unstable iterate"),
    ],
)
def test_lambda_record_says_why_the_probe_ended(lam, controls, reason, gelfand_disk_spec, grid2000, request):
    if reason in ("exceeded u_max", "overflow"):
        request.getfixturevalue("without_unstable_stop")
    out, record = solver._monotone_iteration(gelfand_disk_spec, grid2000, controls)(lam)
    assert record.reason == reason
    assert record.converged == (reason == "converged")
    assert (out is None) == (not record.converged)


def test_certificate_starts_at_the_node_the_series_rule_names(gelfand_disk_spec, grid2000):
    # the series' correction M - u(r) = g(M) r^2 / 4 (n = p = 2) is 1e-8 M at
    # r_s; the shoot starts at the last node at or inward of r_s, here past
    # r_min, skipping the nodes the series covers, and from the series there
    dt = float(grid2000.dt)
    for m_val, pt in zip([0.5, 3.0, 30.0], bifurcation_curve(gelfand_disk_spec, [0.5, 3.0, 30.0], grid2000)):
        scaled = ProblemSpec(2.0, 2.0, Exponential(pt.lam))
        g = scaled.nonlinearity.scalar_value()
        t_s = 0.5 * math.log(4e-8 * m_val / g(m_val))
        k = int(np.searchsorted(grid2000.t, t_s, side="right")) - 1
        assert 0 < k and grid2000.t[k] <= t_s < grid2000.t[k] + dt
        assert g(m_val) * grid2000.r[k] ** 2 / 4 <= 1e-8 * m_val < g(m_val) * grid2000.r[k + 1] ** 2 / 4
        start = solver._startup_series(g(m_val), m_val, 2.0, 2.0, grid2000.r[k])
        seeded = reference_shoot(scaled, m_val, grid2000, seed=(k, start))
        assert shoot(scaled, m_val, grid2000) == abs(seeded.boundary_value)
        assert seeded.profile.u.tobytes() == reference_shoot(scaled, m_val, grid2000).profile.u.tobytes()


def test_disk_curve_points_take_half_the_steps(gelfand_disk_spec, grid2000):
    # the scaled route starts where the series is good to 1e-8 M, about
    # r = 1e-4 at these centres: about 2,000 of the 4,000 steps from r_min
    centres = [0.5, 0.9, 1.2, 1.5, 2.0, 3.0]
    for pt in bifurcation_curve(gelfand_disk_spec, centres, grid2000):
        b = math.expm1(pt.center_value / 2.0)
        assert pt.converged and pt.iterations <= 2100
        assert abs(pt.lam - liouville_lambda(b)) <= 1.1e-11 * liouville_lambda(b)


def cubic_table(t0, t1, nodes):
    from plaplab import Tabulated

    ts = np.linspace(t0, t1, nodes)
    return Tabulated(tuple(ts), tuple((1.0 + ts) ** 3), tuple(3.0 * (1.0 + ts) ** 2))


def test_certificates_for_a_table_that_starts_at_zero(grid2000):
    # the certificate's RK4 stages dip below u = 0 near r = 1, where a table
    # from 0 used to raise and leave the point uncertified (inf)
    spec = ProblemSpec(3.0, 2.0, cubic_table(0.0, 4.0, 81))
    for pt in bifurcation_curve(spec, [0.5, 1.0, 2.0, 3.0], grid2000):
        assert pt.converged
        assert pt.boundary_residual <= 1e-8 * max(pt.center_value, 1.0)


@pytest.mark.parametrize(
    "t0, m_val, scale", [(0.0, 2.0, None), (-0.5, 0.5, None), (-0.5, 1.0, None), (0.0, -5e-13, 1e-12)]
)
def test_table_clamp_changes_no_evaluation_that_succeeds(t0, m_val, scale, grid2000, monkeypatch):
    # shoots that stay inside the table, or within the 1e-12 below its first
    # knot where it extrapolates instead of raising, must not see the clamp
    from plaplab import Tabulated

    spec = ProblemSpec(3.0, 2.0, cubic_table(t0, 4.0, 81))
    if scale is None:  # the curve's lambda, so that u(1) is about 0
        scale = bifurcation_curve(spec, [m_val], grid2000)[0].lam
    scaled = ProblemSpec(3.0, 2.0, spec.nonlinearity.with_scale(scale))
    clamped = reference_shoot(scaled, m_val, grid2000)
    assert clamped.boundary_value > t0 - 1e-12
    certificate = shoot(scaled, m_val, grid2000)
    # the same shoot with the closure that raises below the table: no floor
    unclamped = Tabulated.scalar_value
    monkeypatch.setattr(Tabulated, "scalar_value", lambda table, floor=None: unclamped(table))
    raw = reference_shoot(scaled, m_val, grid2000)
    assert np.array_equal(clamped.profile.u, raw.profile.u)
    assert np.array_equal(clamped.profile.w, raw.profile.w)
    assert shoot(scaled, m_val, grid2000) == certificate


def test_coarse_grid_order_loss_blames_the_grid():
    """On 16 nodes the slope integrand F^(1/(p-1)) = F^9.14 is too steep near
    r = 1 for the cubic cells: the converged u rises there.  The error names
    that cause and the node count, not the (valid) problem."""
    spec = ProblemSpec(1.0, 1.109375, Exponential(1.0))
    grid = make_grid(1e-2, 16)
    for run in (lambda: minimal_iterate(spec, 0.5, grid), lambda: lambda_star_estimate(spec, grid)):
        with pytest.raises(ParameterError, match="order preservation on this 16-node grid; refine the grid"):
            run()
    assert isinstance(minimal_iterate(spec, 0.5, make_grid(1e-2, 200)), RadialProfile)


def logged_probes(monkeypatch, key=lambda record: record.converged):
    """The (lambda, key(record)) pairs of every probe that the lambda* searches
    run from here on, in order."""
    probes = []
    real = solver._monotone_iteration

    def logged(*args):
        iterate = real(*args)

        def run(lam):
            out, record = iterate(lam)
            probes.append((lam, key(record)))
            return out, record

        return run

    monkeypatch.setattr(solver, "_monotone_iteration", logged)
    return probes


DIVERGED = ("exceeded u_max", "overflow", "unstable iterate", "left the table")


def state(record):
    """A probe's part in the search: it converged, it diverged, or neither."""
    if record.converged:
        return "converged"
    return "undecided" if record.reason in ("iteration cap", "fold ghost") else "diverged"


def forced_cap(monkeypatch, lams):
    """Every probe at a lambda in ``lams`` ends at the iteration cap."""
    real = solver._monotone_iteration

    def forced(spec, grid, controls, *tolerance):
        iterate = real(spec, grid, controls, *tolerance)

        def run(lam):
            if lam not in lams:
                return iterate(lam)
            record = solver.LambdaRecord(lam, False, controls.k_max, 1.0, math.inf, math.inf, "iteration cap")
            return None, record

        return run

    monkeypatch.setattr(solver, "_monotone_iteration", forced)


def replay(probes, lam_init, tol, max_bisect):
    """Checks that each probe's lambda is the one the three-state rule picks
    after the probes before it, and that the rule stops after the last;
    returns (lo, hi, midpoints)."""
    lo = hi = None
    undecided, midpoints, expected = [], 0, lam_init
    for lam, outcome in probes:
        assert lam == expected
        if outcome == "converged":
            lo = lam
        elif outcome == "diverged":
            hi = lam
        else:
            undecided.append(lam)
        hole = [x for x in undecided if (lo is None or lo < x) and (hi is None or x < hi)]
        if hole:
            a, b = min(hole), max(hole)
            step = max(tol / 4 * b, b - a, 4 * math.ulp(b))
            if hi is None or hi > b + step:
                expected = b + step
            elif lo is None or lo < a - step:
                expected = a - step
            else:
                expected = None
        elif hi is None:
            expected = 2.0 * lo
        elif lo is None:
            expected = 0.5 * hi
        elif midpoints >= max_bisect or hi - lo <= tol * lo or hi - lo <= 8 * math.ulp(hi):
            expected = None
        else:
            expected, midpoints = 0.5 * (lo + hi), midpoints + 1
    assert expected is None
    return lo, hi, midpoints


@pytest.mark.parametrize("lam_init", [1.0, 50.0, 1e-3])
@pytest.mark.parametrize("max_bisect", [0, 3, 200])
def test_lambda_star_search_order(lam_init, max_bisect, gelfand_disk_spec, monkeypatch):
    """Converged probes set lo and diverged ones hi; undecided ones set
    neither, and those inside (lo, hi) form a hole [a, b].  With a hole the
    next probe is b + step while hi lies above it, else a - step while lo lies
    below it, else the search stops.  Without one, lam_init doubles (or
    halves) until the outcome flips, every later probe is the midpoint of the
    bracket so far, and the midpoints stop at max_bisect or at the width
    test, whichever comes first."""
    probes = logged_probes(monkeypatch, state)
    grid, tol = make_grid(1e-6, 400), 1e-3
    res = lambda_star_estimate(gelfand_disk_spec, grid, lam_init=lam_init, max_bisect=max_bisect)
    lo, hi, midpoints = replay(probes, lam_init, tol, max_bisect)
    assert (res.lambda_lo, res.lambda_hi) == (lo, hi)
    if any(outcome == "undecided" for _, outcome in probes):
        # the ghost at 2.0 stops the search next to it, midpoints or not
        assert 2.0 in [lam for lam, outcome in probes if outcome == "undecided"]
        return
    converged = [outcome == "converged" for _, outcome in probes]
    first = converged[0]
    flip = next(k for k, c in enumerate(converged) if c != first)
    factor = 2.0 if first else 0.5
    assert [lam for lam, _ in probes[: flip + 1]] == [lam_init * factor**k for k in range(flip + 1)]
    lo, hi = sorted((probes[flip - 1][0], probes[flip][0]))
    for (lam, _), c in zip(probes[flip + 1 :], converged[flip + 1 :]):
        assert lam == 0.5 * (lo + hi)
        lo, hi = (lam, hi) if c else (lo, lam)
    assert (res.lambda_lo, res.lambda_hi) == (lo, hi)
    narrow = hi - lo <= tol * lo or hi - lo <= 8 * math.ulp(hi)
    # 0 and 3 midpoints never reach the width test on this problem
    assert midpoints == max_bisect if max_bisect < 200 else (midpoints < 200 and narrow)


def assert_decided_ends(res):
    """lambda_lo's probe converged and lambda_hi's diverged."""
    by_lam = {rec.lam: rec for rec in res.records}
    assert by_lam[res.lambda_lo].converged
    assert by_lam[res.lambda_hi].reason in DIVERGED


def stopping_error(record, controls=IterationControls()):
    """delta / (1 - rho) at the stopping test of a plain converged probe: how
    far its u may lie from the fixed point."""
    delta = controls.tol_abs + controls.tol_rel * record.sup_norm
    return delta / (1.0 - record.contraction)


def test_fold_ghost_stops_the_probe_at_the_fold(gelfand_disk_spec, grid2000, monkeypatch):
    """At the discrete fold, about lambda = 2.000000001, the disk iteration
    passes the saddle-node bottleneck, where k (1 - rho_k) stays near 2: it
    stops as a fold ghost at sweep 500, leaps and all.  The probe at 1.99995
    still converges, in 113 sweeps (1,842 without leaps), and does so bit
    for bit as the iteration without the stop.  Both on the plain path; with
    acceleration the ghost's Anderson attempt fails its certificate and the
    probe still stops at plain sweep 500, while 1.99995 converges certified,
    within the plain probe's stopping error, in 34 sweeps.  With no
    converged probe below it, a search's tolerance does not stop the ghost
    earlier: the saddle-node law has no second point."""
    monkeypatch.setattr(solver, "ACCEL_SWEEPS", 10**9)
    iterate = solver._monotone_iteration(gelfand_disk_spec, grid2000, IterationControls())
    out, record = iterate(2.000000001)
    assert out is None and not record.converged
    assert (record.reason, record.iterations) == ("fold ghost", 500)
    assert 0.0 < 500 * (1.0 - record.contraction) < solver.FOLD_GHOST_RATE
    profile, record = iterate(1.99995)
    assert (record.reason, record.iterations) == ("converged", 113)
    assert math.isnan(record.certificate)
    monkeypatch.setattr(solver, "FOLD_GHOST_SWEEPS", 10**9)
    plain, plain_record = iterate(1.99995)
    assert plain_record == record
    for name in ("u", "w", "u_r"):
        assert np.array_equal(getattr(profile, name), getattr(plain, name))

    monkeypatch.undo()
    # a search's tolerance cannot stop it earlier: no converged probe lies below
    iterate = solver._monotone_iteration(gelfand_disk_spec, grid2000, IterationControls(), 1e-3)
    _, ghost = iterate(2.000000001)
    assert ghost.reason == "fold ghost" and math.isnan(ghost.certificate)
    # the failed attempt and its certificate sweep are counted
    assert 500 < ghost.iterations <= 500 + solver.ACCEL_MAX_SWEEPS + 1
    fast, fast_record = iterate(1.99995)
    assert fast_record.converged and 0.0 < fast_record.certificate < 1e-4
    assert fast_record.iterations == 34
    assert np.max(np.abs(fast.u - plain.u)) <= stopping_error(plain_record)


def test_saddle_node_law_stops_the_fold_ghost(continuation_disk):
    """At the default tol_lambda the disk's probe at 2.0 stops as a fold ghost
    long before sweep FOLD_GHOST_SWEEPS: power steps at its Anderson answer
    give rho(T') = 0.99997, and the saddle-node law through the converged
    probe at 1 (rho = 0.2212) puts the fold about 1e-9 past 2.0, inside
    tol_lambda lambda / 16.  The certificate, that estimated relative
    distance, is within a factor 10 of the discrete fold's, 2.000000001.  The
    probe stays undecided, so the bracket and the undecided list are those of
    the 500-sweep stop."""
    res = continuation_disk
    ghost = next(rec for rec in res.records if rec.lam == 2.0)
    assert ghost.reason == "fold ghost" and ghost.iterations < solver.FOLD_GHOST_SWEEPS
    assert 0.0 < 1.0 - ghost.contraction < 1e-4
    fold = (2.000000001 - 2.0) / 2.0
    assert ghost.certificate <= 1e-8 and fold / 10 <= ghost.certificate <= 10 * fold
    assert [rec.lam for rec in res.records if state(rec) == "undecided"] == [2.0]
    assert (res.lambda_lo, res.lambda_hi) == (1.9995, 2.0005)


@pytest.mark.parametrize(
    "n, f, bracket, early, reached",
    [
        (2.0, Exponential(1.0), (2.0000000005, 2.000000002362645), 0, True),
        (3.0, Power(m=3.0), (1.3699255043580947, 1.3699255077829084), 3, False),
    ],
    ids=["disk", "cubic-n3"],
)
def test_saddle_node_stop_keeps_tight_brackets(n, f, bracket, early, reached, grid2000, monkeypatch):
    """At tol_lambda 1e-9 the saddle-node stop changes no bracket and no
    probe's outcome class: the search with its power steps switched off
    probes the same lambdas with the same outcomes.  Leaps carry the probes
    next to the fold to Anderson answers, so the law may stop a ghost early
    where it puts the fold within tol_lambda lambda / 16, with that relative
    distance as its certificate: three of the (1+u)^3 search's four ghosts,
    in 27-31 sweeps instead of 500 or more.  The disk's ghost at 2.0 runs to
    sweep 500 with a nan certificate.  The disk's lambda_lo converges above
    1.9999995, and its bracket meets the tolerance; the (1+u)^3 search ends
    at its hole of ghosts, 2.5e-9 wide, short of it."""
    spec = ProblemSpec(n, 2.0, f)
    probes = logged_probes(monkeypatch, state)
    res = lambda_star_estimate(spec, grid2000, tol_lambda=1e-9)
    stopped, probes[:] = probes[:], []
    assert (res.lambda_lo, res.lambda_hi) == bracket and res.tolerance_reached is reached
    assert_decided_ends(res)
    ghosts = [rec for rec in res.records if rec.reason == "fold ghost"]
    law = [rec.certificate for rec in ghosts if not math.isnan(rec.certificate)]
    assert len(law) == early and all(0.0 < cert < 1e-9 / 16 for cert in law)
    assert sum(rec.iterations >= solver.FOLD_GHOST_SWEEPS for rec in ghosts) == len(ghosts) - early
    monkeypatch.setattr(solver, "_spectral_radius", lambda *args: (1, math.nan))
    plain = lambda_star_estimate(spec, grid2000, tol_lambda=1e-9)
    assert (plain.lambda_lo, plain.lambda_hi) == bracket
    assert probes == stopped


def test_no_bracket_end_is_undecided(gelfand_disk_spec, grid2000, continuation_disk):
    res = continuation_disk
    assert [(rec.lam, rec.reason) for rec in res.records if state(rec) == "undecided"] == [
        (2.0, "fold ghost")
    ]
    assert_decided_ends(res)
    assert (res.lambda_lo, res.lambda_hi) == (1.9995, 2.0005)


def test_tolerance_reached_is_the_search_width_test(grid2000):
    """``tolerance_reached`` reports the width test that ends the bisection:
    true for the slab's default search, and false when max_bisect stops its
    midpoints first, at [0.75, 1.0]."""
    slab = ProblemSpec(1.0, 2.0, Exponential(1.0))
    assert lambda_star_estimate(slab, grid2000).tolerance_reached
    short = lambda_star_estimate(slab, grid2000, max_bisect=1)
    assert (short.lambda_lo, short.lambda_hi) == (0.75, 1.0)
    assert not short.tolerance_reached


@pytest.mark.parametrize("lam_init, capped", [(1.0, {1.0}), (1e-3, {1.536}), (1e-3, {1.536, 1.536384})])
def test_no_bracket_end_from_the_iteration_cap(lam_init, capped, gelfand_disk_spec, monkeypatch):
    """An iteration cap forced at chosen probes never becomes a bracket end:
    the first probe, a midpoint, and that midpoint with its upper neighbour."""
    forced_cap(monkeypatch, capped)
    probes = logged_probes(monkeypatch, state)
    res = lambda_star_estimate(gelfand_disk_spec, make_grid(1e-6, 400), lam_init=lam_init)
    assert capped <= {lam for lam, outcome in probes if outcome == "undecided"}
    assert_decided_ends(res)
    assert len({lam for lam, _ in probes}) == len(probes)


@pytest.mark.parametrize("tol", [1e-3, 2e-5, 1e-15])
def test_no_lambda_is_probed_twice(tol, gelfand_disk_spec, grid2000, monkeypatch, time_limit):
    # doubling from lo = 1 used to probe the ghost at 2.0 again and again
    probes = logged_probes(monkeypatch)
    with time_limit(30):
        res = lambda_star_estimate(gelfand_disk_spec, grid2000, tol_lambda=tol)
    lams = [lam for lam, _ in probes]
    assert len(set(lams)) == len(lams)
    assert_decided_ends(res)


def test_every_probe_undecided_raises(gelfand_disk_spec, grid2000, monkeypatch, time_limit):
    """With k_max = 5 no probe converges: those below about 5 stop at the cap,
    the hole they form grows, and the search ends in a BracketingError that
    names them rather than in a bracket."""
    probes = logged_probes(monkeypatch, state)
    with time_limit(10), pytest.raises(BracketingError, match="undecided probes at lambda = \\[1.0, 1.00025, "):
        lambda_star_estimate(gelfand_disk_spec, grid2000, IterationControls(k_max=5))
    outcomes = [outcome for _, outcome in probes]
    assert "converged" not in outcomes and outcomes.count("undecided") >= 10


def test_lambda_star_bracketing_errors(gelfand_disk_spec, monkeypatch):
    probes = logged_probes(monkeypatch)
    grid = make_grid(1e-6, 400)
    with pytest.raises(BracketingError, match="no divergence found below the cap 1.5"):
        lambda_star_estimate(gelfand_disk_spec, grid, lam_cap=1.5)
    assert probes == [(1.0, True)]  # 2.0 lies above the cap and is never probed
    probes.clear()
    with pytest.raises(BracketingError, match="no convergent parameter found"):
        lambda_star_estimate(gelfand_disk_spec, grid, IterationControls(u_max=1e-30))
    # every probe exceeds u_max; halving stops below 1e-12 * lam_init
    assert probes == [(0.5**k, False) for k in range(40)]


@pytest.mark.parametrize("lam_init", [0.0, -1.0, math.nan, math.inf])
def test_lambda_star_rejects_bad_lam_init(lam_init, gelfand_disk_spec, monkeypatch, time_limit):
    # 0 used to probe 0 forever and -1 to fail a sweep as a "quadrature bug"
    probes = logged_probes(monkeypatch)
    with time_limit(10), pytest.raises(ParameterError, match="lam_init must be a positive finite"):
        lambda_star_estimate(gelfand_disk_spec, make_grid(1e-6, 400), lam_init=lam_init)
    assert probes == []


def fold_cubic_table():
    """(1+u)^3 with exact slopes on log-spaced knots over [0, 2e6]: Hermite
    interpolation reproduces the cubic, and the table reaches past u_max."""
    from plaplab import Tabulated

    u = np.concatenate([[0.0], np.geomspace(1e-3, 2e6, 399)])
    return Tabulated(tuple(u), tuple((1.0 + u) ** 3), tuple(3.0 * (1.0 + u) ** 2))


@pytest.mark.parametrize(
    "n, p, f",
    [
        (1.0, 2.0, Exponential(1.0)),
        (2.0, 2.0, Exponential(1.0)),
        (5.0, 3.0, Exponential(1.0)),
        (3.0, 2.0, Power(m=3.0)),
        (3.0, 2.0, fold_cubic_table()),
        (10.0, 2.5, Exponential(1.0)),
        (10.0, 2.75, Exponential(1.0)),
    ],
    ids=["slab", "disk", "n5-p3", "power", "table", "n10-p2.5", "n10-p2.75"],
)
def test_accelerated_search_decides_as_the_plain_one(n, p, f, grid2000, monkeypatch):
    """Warm starts and certified Anderson answers change no probe's decision
    and no bracket: the search with acceleration switched off probes the same
    lambdas with the same outcomes.  Its profile_lo lies within the plain
    twin's stopping error delta / (1 - rho) of the fixed point, as the plain
    one does, and the search runs fewer sweeps.  The record at lambda_lo is
    certified: at n = 10, next to lambda*, only an eps sized to the order
    slack, above sqrt(delta), lets its certificate pass, and only the plain
    sweeps from the Anderson answer, run past the growth of their steps,
    bring its profile within the stopping error (without them it lies 22
    and 9.5 times as far at p = 2.5 and 2.75).  Only an unstable iterate's
    certificate, its growth bound, is set in the plain search.  For p > 2,
    where e^(u/(p-1)) is convex, the unstable-iterate stop and the leaps run
    and decide as the search without them: it probes the same lambdas with
    the same outcomes, each of its unstable iterates passes u_max or
    overflows there, and its divergent probes grow by more than
    1 + UNSTABLE_MARGIN per sweep."""
    spec = ProblemSpec(n, p, f)
    growth_calls = []
    real_growth = solver._growth_bound
    monkeypatch.setattr(solver, "_growth_bound", lambda *args: growth_calls.append(1) or real_growth(*args))
    probes = logged_probes(monkeypatch, lambda record: (state(record), record.reason, record.certificate))
    fast = lambda_star_estimate(spec, grid2000)
    fast_probes, probes[:] = probes[:], []
    if p > 2.0:
        assert growth_calls
        with monkeypatch.context() as stop_off:
            stop_off.setattr(solver, "UNSTABLE_MARGIN", math.inf)
            twin = lambda_star_estimate(spec, grid2000)
        assert (fast.lambda_lo, fast.lambda_hi) == (twin.lambda_lo, twin.lambda_hi)
        assert [(lam, s) for lam, (s, _, _) in fast_probes] == [(lam, s) for lam, (s, _, _) in probes]
        twin_reasons = {lam: reason for lam, (_, reason, _) in probes}
        for lam, (_, reason, bound) in fast_probes:
            if reason == "unstable iterate":
                assert bound > 1.0 + solver.UNSTABLE_MARGIN
                assert twin_reasons[lam] in ("exceeded u_max", "overflow")
        diverged = [rec for rec in twin.records if not rec.converged]
        assert all(rec.reason in ("exceeded u_max", "overflow") for rec in diverged)
        assert any(rec.contraction > 1.0 + solver.UNSTABLE_MARGIN for rec in diverged)
        probes[:] = []
    monkeypatch.setattr(solver, "ACCEL_SWEEPS", 10**9)
    plain = lambda_star_estimate(spec, grid2000)
    assert (fast.lambda_lo, fast.lambda_hi) == (plain.lambda_lo, plain.lambda_hi)
    assert [(lam, s) for lam, (s, _, _) in fast_probes] == [(lam, s) for lam, (s, _, _) in probes]
    assert all(math.isnan(eps) for _, (_, reason, eps) in probes if reason != "unstable iterate")
    assert any(eps > 0.0 for _, (_, reason, eps) in fast_probes if reason != "unstable iterate")
    lo_record = next(rec for rec in fast.records if rec.lam == fast.lambda_lo)
    assert lo_record.converged and 0.0 < lo_record.certificate <= solver.ACCEL_EPS_CAP
    assert sum(rec.iterations for rec in fast.records) < sum(rec.iterations for rec in plain.records)

    monkeypatch.setattr(solver, "FOLD_GHOST_SWEEPS", 10**9)
    tight = IterationControls(tol_abs=1e-14, tol_rel=1e-14, k_max=10**5)
    fixed_point = minimal_iterate(spec, plain.lambda_lo, grid2000, tight)
    lo = next(rec for rec in plain.records if rec.lam == plain.lambda_lo)
    for res in (plain, fast):
        assert np.max(np.abs(res.profile_lo.u - fixed_point.u)) <= stopping_error(lo)


def test_certificate_rejects_the_upper_branch(grid2000, monkeypatch):
    """n = 5, p = 2 and lambda = 6.45, just below the fold: the minimal
    solution (sup 2.07) is stable, rho = 0.960, and an upper-branch one
    (sup 2.26, from a shoot refined by Anderson mixing) is not, rho = 1.042.
    With phi the principal mode of T' at each, u + eps phi passes the
    supersolution certificate at the minimal solution for every eps in
    [1e-7, ACCEL_EPS_CAP] and at the upper one for none.  The accelerated
    probe finds the minimal solution."""
    spec = ProblemSpec(5.0, 2.0, Exponential(1.0))
    f, lam = spec.nonlinearity, 6.45
    kernel = solver._SweepKernel(grid2000, 5.0, 2.0)

    def sweep(u):
        return solver._iteration_step(u, lam, f, kernel)[0].copy()

    def principal_mode(u, steps=30, h=1e-7):
        base, phi = sweep(u), 1.0 - grid2000.r**2
        for _ in range(steps):
            d = sweep(u + h * phi) - base
            rho, phi = np.max(d) / h, d / np.max(d)
        return rho, phi

    minimal, record = solver._monotone_iteration(spec, grid2000, IterationControls())(lam)
    assert record.converged and record.certificate > 0.0
    assert abs(record.sup_norm - 2.067) < 1e-3

    lo, hi = 2.25, 2.3  # the curve falls from 6.4509 to 6.4472 past the fold
    for _ in range(20):  # the mixing below refines the shoot
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if bifurcation_curve(spec, [mid], grid2000)[0].lam > lam else (lo, mid)
    shot = reference_shoot(ProblemSpec(5.0, 2.0, Exponential(lam)), lo, grid2000).profile.u
    start = np.maximum(shot - 1e-4, 0.0)
    start[-1] = 0.0
    monkeypatch.setattr(solver, "ACCEL_MAX_SWEEPS", 200)
    _, upper, residual = solver._anderson(start, lam, f, kernel, IterationControls(), math.inf)
    assert upper is not None and abs(np.max(upper) - 2.265) < 1e-3

    rho_min, phi_min = principal_mode(minimal.u)
    rho_up, phi_up = principal_mode(upper)
    assert abs(rho_min - 0.960) < 1e-3 and abs(rho_up - 1.042) < 1e-3
    for eps in np.geomspace(1e-7, solver.ACCEL_EPS_CAP, 11):
        assert solver._supersolution(minimal.u + eps * phi_min, lam, f, kernel)
        assert not solver._supersolution(upper + eps * phi_up, lam, f, kernel)
        # any nonnegative direction fails at an unstable solution
        assert not solver._supersolution(upper + eps * (1.0 - grid2000.r**2), lam, f, kernel)


def test_warm_start_that_is_no_subsolution_falls_back_to_zero(gelfand_disk_spec, grid2000, monkeypatch):
    """A probe above the last converged lambda starts from its u, scaled by
    (lambda / lambda') at p = 2 (no chord without Anderson's certificate),
    and ends as a probe from u = 0 would, in fewer sweeps.  If that u is no
    subsolution (here: raised by 1 on the inner half of the grid), the first
    sweep lowers it, and the probe starts again from u = 0 instead of
    raising: its record is the cold probe's with one more sweep, and its
    profile the cold one's bit for bit."""
    monkeypatch.setattr(solver, "ACCEL_SWEEPS", 10**9)
    controls = IterationControls()
    cold, cold_record = solver._monotone_iteration(gelfand_disk_spec, grid2000, controls)(1.5)
    iterate = solver._monotone_iteration(gelfand_disk_spec, grid2000, controls)
    iterate(1.0)
    warm, warm_record = iterate(1.5)
    assert warm_record.converged and warm_record.iterations < cold_record.iterations
    assert np.max(np.abs(warm.u - cold.u)) <= stopping_error(cold_record)

    real_step = solver._iteration_step
    sweeps = 0

    def raised_consistency_sweep(u, *args):
        nonlocal sweeps
        sweeps += 1
        u_next, F = real_step(u, *args)
        if sweeps == 13:  # lambda = 1 passes the stopping test at sweep 12
            u_next[: grid2000.size // 2] += 1.0
        return u_next, F

    iterate = solver._monotone_iteration(gelfand_disk_spec, grid2000, controls)
    monkeypatch.setattr(solver, "_iteration_step", raised_consistency_sweep)
    first, first_record = iterate(1.0)
    assert first_record.iterations == 13 and np.max(first.u) > 1.0
    again, again_record = iterate(1.5)
    assert again_record == dataclasses.replace(cold_record, iterations=cold_record.iterations + 1)
    for name in ("u", "w", "u_r"):
        assert np.array_equal(getattr(again, name), getattr(cold, name))


def test_iterations_count_every_sweep(gelfand_disk_spec, grid2000, monkeypatch):
    """A probe's ``iterations`` is the number of sweeps it ran, however it
    ended: converged plainly or through a certified Anderson attempt, after a
    warm start that fell back to u = 0, at an unstable iterate, past u_max,
    by overflow (those two with the unstable-iterate stop off), or as a fold
    ghost whose attempt failed its certificate, at sweep FOLD_GHOST_SWEEPS
    or by the saddle-node law."""
    real_step = solver._iteration_step
    calls, raised = 0, None  # raised: the call whose output gains 1 on the inner half

    def counted(u, *args):
        nonlocal calls
        calls += 1
        u_next, F = real_step(u, *args)
        if calls == raised:
            u_next[: grid2000.size // 2] += 1.0
        return u_next, F

    monkeypatch.setattr(solver, "_iteration_step", counted)

    def probe(iterate, lam, reason):
        nonlocal calls
        calls = 0
        _, record = iterate(lam)
        assert (record.reason, record.iterations) == (reason, calls)
        return record

    def disk(**controls):
        return solver._monotone_iteration(gelfand_disk_spec, grid2000, IterationControls(**controls))

    iterate = disk()
    plain = probe(iterate, 1.0, "converged")
    assert math.isnan(plain.certificate)
    assert probe(iterate, 1.9, "converged").certificate > 0.0
    ghost = probe(disk(), 2.000000001, "fold ghost")
    assert ghost.iterations > solver.FOLD_GHOST_SWEEPS
    # T(u_A) and the power steps of the saddle-node stop are counted
    iterate = solver._monotone_iteration(gelfand_disk_spec, grid2000, IterationControls(), 1e-3)
    probe(iterate, 1.0, "converged")
    assert probe(iterate, 2.0, "fold ghost").iterations < solver.FOLD_GHOST_SWEEPS
    # from u = 0, the certified stop and the leaps cut the sweeps of the
    # probe just above the fold from 265 to 18 (131 without the leaps)
    assert probe(disk(), 2.0005, "unstable iterate").iterations == 18
    assert probe(disk(), 5.0, "unstable iterate").iterations == 2
    with monkeypatch.context() as stop_off:
        stop_off.setattr(solver, "UNSTABLE_MARGIN", math.inf)
        assert probe(disk(), 2.0005, "exceeded u_max").iterations == 265
        probe(disk(), 5.0, "exceeded u_max")
        probe(disk(u_max=1e300), 4.0, "overflow")

    cold = probe(disk(), 1.5, "converged")
    iterate = disk()
    raised = plain.iterations  # the consistency sweep: 1.0's u, raised, is no subsolution at 1.5
    probe(iterate, 1.0, "converged")
    raised = None
    assert probe(iterate, 1.5, "converged").iterations == cold.iterations + 1


def test_only_a_convex_reaction_is_accelerated(grid2000, monkeypatch):
    """A concave table (sqrt(1 + u), exact slopes) never tries Anderson
    mixing: its sublinear search runs plain up to the cap, although its
    probes would try it if the table read as convex.  Nor does it run the
    unstable-iterate stop, whose convexity argument it fails too."""
    from plaplab import Tabulated

    calls, growth_calls = [], []
    real, real_growth = solver._anderson, solver._growth_bound

    def counted(*args):
        calls.append(args[1])
        return real(*args)

    monkeypatch.setattr(solver, "_anderson", counted)
    monkeypatch.setattr(solver, "_growth_bound", lambda *args: growth_calls.append(1) or real_growth(*args))
    probes = logged_probes(monkeypatch, lambda record: record.certificate)
    u = np.linspace(0.0, 1e3, 400)
    concave = Tabulated(tuple(u), tuple(np.sqrt(1.0 + u)), tuple(0.5 / np.sqrt(1.0 + u)))
    assert not concave.convex
    with pytest.raises(BracketingError, match="no divergence found below the cap"):
        lambda_star_estimate(ProblemSpec(3.0, 2.0, concave), grid2000, lam_cap=64.0)
    assert len(probes) == 7 and all(math.isnan(eps) for _, eps in probes)
    assert calls == [] and growth_calls == []
    # the same probes would try it, were the table convex
    monkeypatch.setattr(Tabulated, "convex", True)
    with pytest.raises(BracketingError):
        lambda_star_estimate(ProblemSpec(3.0, 2.0, concave), grid2000, lam_cap=64.0)
    assert calls


# the lambda* cross-check problems of the unstable-iterate stop and the leaps:
# (n, p, f), the sweeps their searches run with both, pinned where they save
# most, and the grid, the default 1e-8/2000 where None; the coarse cases take a
# grid and non-integer n outside those that the nonnegativity argument checks
CROSS_CHECK = {
    "disk": (2.0, 2.0, Exponential(1.0), 100, None),
    "slab": (1.0, 2.0, Exponential(1.0), 142, None),
    "cubic-n3": (3.0, 2.0, Power(m=3.0), 183, None),
    "square-n4": (4.0, 2.0, Power(m=2.0), None, None),
    "exp-n5": (5.0, 2.0, Exponential(1.0), None, None),
    "exp-n8": (8.0, 2.0, Exponential(1.0), None, None),
    "exp-n12": (12.0, 2.0, Exponential(1.0), None, None),
    "exp-n3-p1.5": (3.0, 1.5, Exponential(1.0), None, None),
    "exp-n2-p1.3": (2.0, 1.3, Exponential(1.0), None, None),
    "exp-n2.5-p1.5-coarse": (2.5, 1.5, Exponential(1.0), None, (1e-6, 400)),
    "cubic-n3.5-p1.7-coarse": (3.5, 1.7, Power(m=3.0), None, (1e-6, 400)),
    "exp-n5-p3": (5.0, 3.0, Exponential(1.0), 272, None),
    "cubic-n3-p3": (3.0, 3.0, Power(m=3.0), 206, None),
    "exp-n3-p4": (3.0, 4.0, Exponential(1.0), None, None),
    "square-n4-p2.5": (4.0, 2.5, Power(m=2.0), None, None),
    "exp-n10-p2.5": (10.0, 2.5, Exponential(1.0), None, None),
}


@pytest.mark.parametrize("name", sorted(CROSS_CHECK))
def test_unstable_iterate_stop_decides_as_the_search_without_it(name, grid2000, monkeypatch):
    """The certified stop and the leaps change no bracket and no probe's
    outcome class: the search with both switched off probes the same lambdas
    with the same outcomes, and every probe it calls an unstable iterate
    passes u_max or overflows there.  Each such record's certificate is its
    growth bound, above 1 + UNSTABLE_MARGIN; a converged probe never carries
    the reason."""
    n, p, f, sweeps, coarse = CROSS_CHECK[name]
    spec, grid = ProblemSpec(n, p, f), grid2000 if coarse is None else make_grid(*coarse)
    probes = logged_probes(monkeypatch, lambda record: (state(record), record.reason))
    res = lambda_star_estimate(spec, grid)
    stopped, probes[:] = probes[:], []
    monkeypatch.setattr(solver, "UNSTABLE_MARGIN", math.inf)
    plain = lambda_star_estimate(spec, grid)
    assert (res.lambda_lo, res.lambda_hi) == (plain.lambda_lo, plain.lambda_hi)
    assert [(lam, s) for lam, (s, _) in stopped] == [(lam, s) for lam, (s, _) in probes]
    plain_reasons = dict(probes)
    for rec in res.records:
        if rec.reason == "unstable iterate":
            assert not rec.converged and rec.certificate > 1.0 + 1e-6
            assert plain_reasons[rec.lam] in (("diverged", "exceeded u_max"), ("diverged", "overflow"))
    total = sum(rec.iterations for rec in res.records)
    if sweeps is not None:
        assert total == sweeps
    assert total <= sum(rec.iterations for rec in plain.records)


@pytest.mark.parametrize("name", sorted(CROSS_CHECK))
def test_starts_lie_below_the_cold_minimal_solution(name, grid2000, monkeypatch):
    """The chord and scaled starts decide no probe otherwise: a cold
    minimal_iterate at each probe's lambda ends in the same class, and every
    chord or scaled start offered to a probe whose cold twin converged lies
    at or below that minimal solution, up to the order slack, at every node.
    One probe is exempt from the class check: the disk's 2.0, whose cold
    twin converges by leaps, while the search's saddle-node stop leaves it a
    fold ghost with the fold within tol_lambda / 16 (default 1e-3) of it."""
    n, p, f, _, coarse = CROSS_CHECK[name]
    spec, grid = ProblemSpec(n, p, f), grid2000 if coarse is None else make_grid(*coarse)
    offered = {}
    real = solver._starts

    def logged(lam, *args):
        offered[lam] = real(lam, *args)
        return offered[lam]

    monkeypatch.setattr(solver, "_starts", logged)
    res = lambda_star_estimate(spec, grid)
    monkeypatch.undo()
    assert {rec.start for rec in res.records} & {"chord", "scaled"}
    exempt = []
    for rec in res.records:
        cold = minimal_iterate(spec, rec.lam, grid)
        if not isinstance(cold, RadialProfile):
            assert state(cold) == state(rec)
            continue
        if not rec.converged:
            assert rec.reason == "fold ghost" and 0.0 < rec.certificate < 1e-3 / 16
            exempt.append(rec.lam)
        slack = solver.ORDER_SLACK * (1.0 + float(np.max(cold.u)))
        for label, start in offered[rec.lam]:
            if label != "zero":
                assert np.all(start <= cold.u + slack), (rec.lam, label)
    assert exempt == ([2.0] if name == "disk" else [])


def leap_log(monkeypatch):
    """The (lambda, landing point, u, step, bound) of every leap that the
    lambda* searches and probes make from here on, in order: the leap goes
    from u, reached by the plain step ``step``, with growth bound ``bound``."""
    leaps, current = [], [None]
    real_leap, real_iteration = solver._leap, solver._monotone_iteration

    def logged_leap(u, step, bound):
        out = real_leap(u, step, bound)
        leaps.append((current[0], out.copy(), u.copy(), step.copy(), bound))
        return out

    def tracked(*args):
        iterate = real_iteration(*args)

        def run(lam):
            current[0] = lam
            return iterate(lam)

        return run

    monkeypatch.setattr(solver, "_leap", logged_leap)
    monkeypatch.setattr(solver, "_monotone_iteration", tracked)
    return leaps


@pytest.mark.parametrize("tol", [1e-3, 1e-9])
@pytest.mark.parametrize(
    "name", ["disk", "cubic-n3", "exp-n3-p1.5", "exp-n5-p3", "cubic-n3-p3", "exp-n3-p4", "square-n4-p2.5", "exp-n10-p2.5"]
)
def test_leaps_land_below_the_minimal_solution(name, tol, grid2000, monkeypatch):
    """Every leap u + m/(1 - m) delta lands at or below u*(lambda): wherever
    a cold minimal_iterate at tolerance 1e-14 converges, each leap of the
    search's probe at that lambda lies at or below it, up to the order slack,
    at every node.  The growth chain that bounds the leap holds on the real
    iterates, for p > 2 too: over the 8 plain sweeps from u on, each step is
    at least m times the one before, up to the order slack, at every node
    but r = 1 (the worst seen is 1% of the slack below).  exp-n10-p2.5
    leaps only on probes at or above lambda_hi, where no minimal solution is
    known, so there the chain is the whole check.  No record's contraction
    is nan: a probe that ends before two sweeps follow its last leap reports
    the contraction before it."""
    n, p, f, _, _ = CROSS_CHECK[name]
    spec = ProblemSpec(n, p, f)
    leaps = leap_log(monkeypatch)
    res = lambda_star_estimate(spec, grid2000, tol_lambda=tol)
    monkeypatch.undo()
    assert leaps and not any(math.isnan(rec.contraction) for rec in res.records)
    tight, cold, compared = IterationControls(tol_abs=1e-14, tol_rel=1e-14), {}, 0
    kernel = solver._SweepKernel(grid2000, n, p)
    for lam, landing, u, step, bound in leaps:
        if lam not in cold:
            cold[lam] = minimal_iterate(spec, lam, grid2000, tight)
        if isinstance(cold[lam], RadialProfile):
            ref = cold[lam].u
            assert np.all(landing <= ref + solver.ORDER_SLACK * (1.0 + float(np.max(ref)))), lam
            compared += 1
        with np.errstate(over="ignore", invalid="ignore"):
            for _ in range(8):
                nxt = solver._iteration_step(u, lam, f, kernel)[0].copy()
                sup = float(np.max(nxt))
                if not sup <= tight.u_max:
                    break
                nxt_step = nxt - u
                assert np.all(nxt_step[:-1] >= bound * step[:-1] - solver.ORDER_SLACK * (1.0 + sup)), lam
                u, step = nxt, nxt_step
    if name == "exp-n10-p2.5":
        assert compared == 0 and all(lam >= res.lambda_hi for lam, *_ in leaps)
    else:
        assert compared


def test_a_leap_above_the_minimal_solution_is_undone(gelfand_disk_spec, grid2000, monkeypatch):
    """A leap raised by 1 on the inner half of the grid lies above u*(1.5)
    and is no subsolution: its first sweep lowers it, and the probe goes on
    from the iterate before the leap, with no more leaps, instead of raising
    ConsistencyError.  It converges as the probe without the raise does, to
    within its stopping error; the undone sweep is counted in iterations.
    The slab's search at tol_lambda 1e-15, where a leap next to the fold
    overshoots unforced (its first sweep lowers it by 1.0e-11), still ends
    with decided bracket ends."""
    calls = 0
    real_step, real_leap = solver._iteration_step, solver._leap

    def counted(*args):
        nonlocal calls
        calls += 1
        return real_step(*args)

    monkeypatch.setattr(solver, "_iteration_step", counted)
    leaps = leap_log(monkeypatch)
    iterate = solver._monotone_iteration(gelfand_disk_spec, grid2000, IterationControls())
    plain, plain_record = iterate(1.5)
    assert plain_record.converged and len(leaps) > 1

    def raised(u, step, bound):
        out = real_leap(u, step, bound)
        if not leaps:
            out[: grid2000.size // 2] += 1.0
        leaps.append((1.5, out, u, step, bound))
        return out

    monkeypatch.setattr(solver, "_leap", raised)
    leaps.clear()
    calls = 0
    iterate = solver._monotone_iteration(gelfand_disk_spec, grid2000, IterationControls())
    again, record = iterate(1.5)
    assert len(leaps) == 1 and record.converged and record.iterations == calls
    assert np.max(np.abs(again.u - plain.u)) <= stopping_error(plain_record) + stopping_error(record)

    monkeypatch.undo()
    slab = lambda_star_estimate(ProblemSpec(1.0, 2.0, Exponential(1.0)), grid2000, tol_lambda=1e-15)
    assert_decided_ends(slab)


def test_sweep_rules_are_built_once_per_grid(tmp_path, monkeypatch):
    """Searches on one grid object share its rules, one per dimension and one
    for the outer sum (n = 1): two disk searches and an n = 5 one build 3
    rules, not 6, and give the records and profile of searches on fresh
    rules bit for bit.  An equal grid built anew gets its own.  The points
    of a sweep over n = 10, 12 and p = 3, 3.5 share one grid: 3 rules, not
    8."""
    from plaplab.cli import main

    built = []
    real = solver.make_rule
    monkeypatch.setattr(solver, "make_rule", lambda grid, n: built.append(n) or real(grid, n))
    grid, disk = make_grid(1e-8, 2000), ProblemSpec(2.0, 2.0, Exponential(1.0))
    first = lambda_star_estimate(disk, grid)
    again = lambda_star_estimate(disk, grid)
    lambda_star_estimate(ProblemSpec(5.0, 2.0, Exponential(1.0)), grid)
    assert built == [2.0, 1.0, 5.0]
    fresh = lambda_star_estimate(disk, make_grid(1e-8, 2000))
    assert built == [2.0, 1.0, 5.0, 2.0, 1.0]
    assert repr(first.records) == repr(again.records) == repr(fresh.records)
    for name in ("u", "w", "u_r"):
        assert np.array_equal(getattr(again.profile_lo, name), getattr(fresh.profile_lo, name))
    built.clear()
    cfg = tmp_path / "sweep.ini"
    cfg.write_text("[sweep]\nn_values = 10, 12\np_values = 3, 3.5\n")
    assert main(["--config", str(cfg), "--out", str(tmp_path / "s"), "sweep"]) == 0
    assert built == [10.0, 1.0, 12.0]


def test_a_rejected_start_falls_back_one_step(grid2000, monkeypatch):
    """(1+u)^3 at n = 3: after the converged probes at 1 (certified by
    Anderson) and 1.25, the probe at 1.3125 starts from the chord.  A chord
    raised by 1 on the inner half is no subsolution: the first sweep lowers
    it, and the probe goes on from the scaled start, ending as the probe
    offered only that start does, with one more sweep and the same profile
    bit for bit.  A raised scaled start falls back to u = 0 alike."""
    spec = ProblemSpec(3.0, 2.0, Power(m=3.0))
    real = solver._starts

    def third_probe(edit):
        monkeypatch.setattr(solver, "_starts", real)
        iterate = solver._monotone_iteration(spec, grid2000, IterationControls())
        iterate(1.0)
        iterate(1.25)
        monkeypatch.setattr(solver, "_starts", lambda *args: edit(real(*args)))
        return iterate(1.3125)

    def raised(starts):
        (label, u), rest = starts[0], starts[1:]
        u = u.copy()
        u[: grid2000.size // 2] += 1.0
        return [(label, u)] + rest

    profile, record = third_probe(lambda starts: starts)
    assert record.converged and record.start == "chord"
    for drop in (1, 2):
        alone, alone_record = third_probe(lambda starts: starts[drop:])
        again, again_record = third_probe(lambda starts: raised(starts[drop - 1 :]))
        assert alone_record.start == ("scaled", "zero")[drop - 1]
        assert again_record == dataclasses.replace(alone_record, iterations=alone_record.iterations + 1)
        for name in ("u", "w", "u_r"):
            assert np.array_equal(getattr(again, name), getattr(alone, name))
    assert record.iterations < alone_record.iterations


def test_leaving_the_table_ends_the_probe(grid2000):
    """(1+u)^3 tabulated on [0, 5] with 51 knots, n = 3, p = 3: the probes
    whose iterates pass u = 5 end diverged, "left the table", and the search
    brackets lambda* with the same floats as Power(3), whose probes there
    pass u_max.  A plain sweep from below u*(lambda) that leaves the table
    shows that no minimal solution has values inside it."""
    table = cubic_table(0.0, 5.0, 51)
    res = lambda_star_estimate(ProblemSpec(3.0, 3.0, table), grid2000)
    power = lambda_star_estimate(ProblemSpec(3.0, 3.0, Power(m=3.0)), grid2000)
    assert (res.lambda_lo, res.lambda_hi) == (power.lambda_lo, power.lambda_hi) == (2.697265625, 2.69921875)
    assert_decided_ends(res)
    left = [rec for rec in res.records if rec.reason == "left the table"]
    assert left and all(not rec.converged and rec.sup_norm > 5.0 for rec in left)
    assert [rec.lam for rec in left] == [rec.lam for rec in power.records if not rec.converged]
    out = minimal_iterate(ProblemSpec(3.0, 3.0, table), 4.0, grid2000)
    assert isinstance(out, LambdaRecord) and (out.reason, out.start) == ("left the table", "zero")


def sweep_sums(kernel):
    """The matrices C and D of the sweep's source sum (from zero) and outer
    sum (to one): column j is the sum of the j-th unit vector."""
    count = kernel.h.size
    C, D, out = np.empty((count, count)), np.empty((count, count)), np.empty(count)
    for j in range(count):
        kernel.h[:] = kernel.slope[:] = 0.0
        kernel.h[j] = kernel.slope[j] = 1.0
        C[:, j] = kernel.source.from_zero(out)
        D[:, j] = kernel.outer.to_one(out)
    return C, D


@pytest.mark.parametrize("r_min, count, n", [(1e-6, 400, 1.0), (1e-6, 400, 2.5), (1e-6, 400, 7.5)])
def test_sweep_jacobian_kernel_is_nonnegative(r_min, count, n):
    """The unstable-iterate stop needs T' >= 0, though each cumulative sum has
    negative weights.  At p = 2 the sweep's linear part D diag(r^(1-n)) C
    (C the source sum, D the outer one) has every entry off the r = 1 row at
    least 0.3 of the same product with |D| and |C|: the negative weights
    cancel with room to spare, on a coarse grid and at non-integer n too."""
    grid = make_grid(r_min, count)
    kernel = solver._SweepKernel(grid, n, 2.0)
    C, D = sweep_sums(kernel)
    assert C.min() < 0.0 and D[:-1].min() < 0.0
    K, A = (D * kernel.rpow) @ C, (np.abs(D) * kernel.rpow) @ np.abs(C)
    assert np.all(K[:-1] >= 0.3 * A[:-1]) and np.all(A[:-1] > 0.0)


@pytest.mark.parametrize("coarse", [None, (1e-6, 400)], ids=["default", "coarse"])
@pytest.mark.parametrize(
    "n, p, f, lam",
    [(5.0, 3.0, Exponential(1.0), 21.53125), (3.0, 3.0, Power(m=3.0), 2.69921875)],
    ids=["exp-n5-p3", "cubic-n3-p3"],
)
def test_sweep_jacobian_is_nonnegative_at_a_p_above_2_stop(n, p, f, lam, coarse, grid2000, monkeypatch):
    """T' >= 0 where the unstable-iterate stop runs for p > 2.  There
    T'(u) = D diag(w) C diag(lambda f'(u)) with the middle weight
    w = q (r^(1-n) F)^(q-1) r^(1-n), F = C (lambda f(u)) and q = 1/(p-1) < 1,
    largest next to r_min.  At the iterate where a cold probe stops as an
    unstable iterate, every entry of D diag(w) C off the r = 1 row is at
    least 0.3 of the same product with |D| and |C| (at least 0.34 on the
    default grid and 0.38 on 1e-6/400 for both probes)."""
    grid = grid2000 if coarse is None else make_grid(*coarse)
    swept = []
    real = solver._iteration_step
    monkeypatch.setattr(solver, "_iteration_step", lambda u, *args: swept.append(u.copy()) or real(u, *args))
    record = minimal_iterate(ProblemSpec(n, p, f), lam, grid)
    monkeypatch.undo()
    assert isinstance(record, LambdaRecord) and record.reason == "unstable iterate"
    kernel = solver._SweepKernel(grid, n, p)
    C, D = sweep_sums(kernel)
    q = kernel.q
    F = C @ (lam * f.value(swept[-1]))
    w = q * (F * kernel.rpow) ** (q - 1.0) * kernel.rpow
    K, A = (D * w) @ C, (np.abs(D) * w) @ np.abs(C)
    assert np.all(K[:-1] >= 0.3 * A[:-1]) and np.all(A[:-1] > 0.0)


def test_unstable_iterate_stop_needs_a_convex_reaction(grid2000, monkeypatch):
    """The stop and the leaps rest on the convexity of f^(1/max(1, p-1)), so
    they make no ``_growth_bound`` call where a reaction does not claim it.
    Once the (1+u)^3 table at n = 3, p = 2 reads as non-convex, and for the
    same table at p = 3, where a table claims nothing, its divergent probes
    grow by more than 1 + UNSTABLE_MARGIN per sweep and still end past u_max
    or by overflow.  Power(3) at p = 3, where (1+u)^(3/2) is convex, makes
    the calls and brackets lambda* as the table does.  Power(1.5) at p = 3
    (m < p - 1) makes none up to lambda = 1e3, though its probes make them
    once it claims the convexity; Power(0.5) reads as non-convex.  (A concave table
    is covered by test_only_a_convex_reaction_is_accelerated.)"""
    from plaplab import Tabulated

    assert not Power(m=0.5).convex and not Power(m=0.5).convex_root(2.0)
    assert Power(m=3.0).convex_root(3.0) and not Power(m=1.5).convex_root(3.0)
    assert not fold_cubic_table().convex_root(3.0)
    calls = []
    real = solver._growth_bound
    monkeypatch.setattr(solver, "_growth_bound", lambda *args: calls.append(1) or real(*args))
    brackets = []
    for p in (2.0, 3.0):
        with monkeypatch.context() as non_convex:
            if p == 2.0:
                non_convex.setattr(Tabulated, "convex", False)
            res = lambda_star_estimate(ProblemSpec(3.0, p, fold_cubic_table()), grid2000)
        diverged = [rec for rec in res.records if not rec.converged]
        assert diverged and all(rec.reason in ("exceeded u_max", "overflow") for rec in diverged)
        assert any(rec.contraction > 1.0 + solver.UNSTABLE_MARGIN for rec in diverged)
        assert calls == []
        brackets.append((res.lambda_lo, res.lambda_hi))
    power = lambda_star_estimate(ProblemSpec(3.0, 3.0, Power(m=3.0)), grid2000)
    assert calls and (power.lambda_lo, power.lambda_hi) == brackets[1]
    sublinear = ProblemSpec(3.0, 3.0, Power(m=1.5))
    calls.clear()
    with pytest.raises(BracketingError, match="sublinear"):
        lambda_star_estimate(sublinear, grid2000, lam_cap=1e3)
    assert calls == []
    monkeypatch.setattr(Power, "convex_root", lambda self, p: True)
    with pytest.raises(BracketingError, match="sublinear"):
        lambda_star_estimate(sublinear, grid2000, lam_cap=1e3)
    assert calls
