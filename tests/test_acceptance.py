"""Acceptance gate: one test per shipped guarantee, one printed line each.

Every expected number below is frozen from an independent route: the
closed-form singular solutions, the Liouville family on the disk
(u = 2 log((1+b)/(1+b r^2)), parameter 8b/(1+b)^2, peak 2 at b = 1), the
weighted-Hardy quotient comparison (p-1)((n-p)/2)^2 vs p(n-p), and direct
arithmetic on the exponent formulas.
"""

import math

import numpy as np

from plaplab import (
    Exponential,
    PowerCutoff,
    ProblemSpec,
    SineModes,
    consistency_q0_mcs,
    critical_dimension,
    exact_exponential,
    exact_power,
    hardy_inequality_check,
    integrability_threshold,
    lambda_star_estimate,
    reaction_free_identity,
    log_singularity_fit,
    m_cs,
    make_grid,
    minimal_iterate,
    ode_residual,
    q_exponent,
    stability_report,
)
from plaplab.cli import main
from plaplab.stability import random_eta_family


def _criterion(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {num:02d}] {status}: {name}" + (f" ({detail})" if detail else ""))
    assert ok, f"criterion {num} failed: {name} {detail}"


def test_criterion_01_critical_dimensions():
    values = [critical_dimension(p) for p in (3.0, 2.0, 5.0)]
    _criterion(1, "critical dimensions 9/10/10 exact", values == [9.0, 10.0, 10.0], str(values))


def test_criterion_02_exponent_identity():
    rng = np.random.default_rng(20240817)
    worst = 0.0
    for _ in range(50):
        p = rng.uniform(1.1, 8.0)
        n = critical_dimension(p) * rng.uniform(1.001, 4.0)
        worst = max(worst, consistency_q0_mcs(n, p))
    _criterion(2, "exponent identity defect < 1e-9 on 50 samples", worst < 1e-9, f"worst={worst:.2e}")


def test_criterion_03_oracle_residuals():
    sols = [exact_exponential(12.0, 2.0), exact_power(15.0, 2.0, 5.0)]
    fine = make_grid(1e-8, 4000)
    residuals = [ode_residual(s.sample(fine), s.nonlinearity()) for s in sols]
    orders = []
    for s in sols:
        errs = [
            ode_residual(s.sample(make_grid(1e-8, count)), s.nonlinearity())
            for count in (1000, 2000, 4000)
        ]
        orders.append(min(math.log2(errs[0] / errs[1]), math.log2(errs[1] / errs[2])))
    ok = max(residuals) < 1e-8 and min(orders) >= 2.0
    _criterion(
        3,
        "flux-form residuals < 1e-8 at 4000 nodes, order >= 2",
        ok,
        f"residuals={residuals[0]:.2e}/{residuals[1]:.2e}, min order={min(orders):.2f}",
    )


def test_criterion_04_lambda_star_closed_form(continuation_12_2, continuation_10_3):
    ok = True
    details = []
    for res, target in ((continuation_12_2, 20.0), (continuation_10_3, 63.0)):
        ok &= res.lambda_lo <= target * 1.01 and res.lambda_hi >= target * 0.99
        details.append(f"{target}: [{res.lambda_lo:.4f}, {res.lambda_hi:.4f}]")
    _criterion(4, "parameter brackets 20 and 63 within 1%", ok, "; ".join(details))


def test_criterion_05_lambda_star_liouville(continuation_disk):
    res = continuation_disk
    ok = res.lambda_lo <= 2.0 * 1.01 and res.lambda_hi >= 2.0 * 0.99
    _criterion(5, "disk bracket around 2.0 within 1%", ok, f"[{res.lambda_lo:.5f}, {res.lambda_hi:.5f}]")


def test_criterion_06_minimal_branch_semi_stable(grid2000, continuation_disk):
    verdicts = []
    scales_ok = True
    cases = [
        (ProblemSpec(2.0, 2.0, Exponential(1.0)), continuation_disk.lambda_lo),
    ]
    spec53 = ProblemSpec(5.0, 3.0, Exponential(1.0))
    res53 = lambda_star_estimate(spec53, grid2000, tol_lambda=1e-2)
    cases.append((spec53, res53.lambda_lo))
    for spec, lam_est in cases:
        for frac in (0.2, 0.4, 0.6, 0.8, 0.9):
            lam = frac * lam_est
            prof = minimal_iterate(spec, lam, grid2000)
            gp = lambda u, lam=lam: lam * np.exp(u)
            rep = stability_report(prof, gp)
            verdicts.append(rep.verdict)
            scales_ok &= rep.mu_1 >= -1e-6 * rep.scale
    ok = all(v == "semi-stable" for v in verdicts) and scales_ok
    _criterion(6, "minimal branch semi-stable at 5 parameter fractions x 2 problems", ok, f"{len(verdicts)} verdicts")


def test_criterion_07_stability_threshold(grid2000):
    verdicts = {}
    mus = {}
    for n in (8.0, 9.0, 11.0, 12.0):
        sol = exact_exponential(n, 2.0)
        rep = stability_report(sol.sample(grid2000), sol.g_prime())
        verdicts[n] = rep.verdict
        mus[n] = rep.mu_1
    ok = (
        verdicts[8.0] == "unstable"
        and verdicts[9.0] == "unstable"
        and verdicts[11.0] == "semi-stable"
        and verdicts[12.0] == "semi-stable"
        and mus[9.0] < 0.0 < mus[11.0]
    )
    _criterion(7, "verdict sign change brackets the critical dimension 10", ok, str(verdicts))


def test_criterion_08_reaction_free_identity(grid2000, minimal_disk_lam1):
    gp = Exponential(1.0).derivative
    res = ode_residual(minimal_disk_lam1, Exponential(1.0))
    families = [SineModes(1, 1e-3), SineModes(3, 1e-4), PowerCutoff(1.0, 1e-2)]
    rels = [
        reaction_free_identity(minimal_disk_lam1, gp, eta, residual=res)[2] for eta in families
    ]
    for sol in (exact_exponential(12.0, 2.0), exact_power(15.0, 2.0, 5.0)):
        prof = sol.sample(grid2000)
        rels += [reaction_free_identity(prof, sol.g_prime(), eta)[2] for eta in families]

    # rhs computed with no reaction access: poisoning g' must not move it
    sol = exact_exponential(12.0, 2.0)
    prof = sol.sample(grid2000)
    _, rhs_a, _ = reaction_free_identity(prof, sol.g_prime(), families[0])
    _, rhs_b, _ = reaction_free_identity(prof, lambda u: np.full_like(np.asarray(u), 1e9), families[0])

    spec = ProblemSpec(2.0, 2.0, Exponential(1.0))
    errs = []
    for count in (500, 1000, 2000):
        prof_n = minimal_iterate(spec, 1.0, make_grid(1e-8, count))
        errs.append(reaction_free_identity(prof_n, gp, SineModes(1, 1e-3))[2])
    order = min(math.log2(errs[0] / errs[1]), math.log2(errs[1] / errs[2]))

    ok = max(rels) < 1e-4 and order >= 1.8 and rhs_a == rhs_b
    _criterion(
        8,
        "identity < 1e-4 for 3 families on 3 profiles, order >= 1.8, rhs reaction-free",
        ok,
        f"max rel={max(rels):.2e}, order={order:.2f}",
    )


def test_criterion_09_hardy_inequality(grid2000, minimal_disk_lam1):
    fam = random_eta_family(np.random.default_rng(7), 1e-6, 20)
    stable_checks = hardy_inequality_check(minimal_disk_lam1, fam)
    sol8 = exact_exponential(8.0, 2.0)
    witnesses = hardy_inequality_check(
        sol8.sample(grid2000), [PowerCutoff(2.9, 1e-5), PowerCutoff(2.7, 1e-4)]
    )
    ok = all(c.satisfied for c in stable_checks) and any(
        not c.satisfied for c in witnesses
    )
    _criterion(
        9,
        "constant-free inequality: 20/20 on the stable profile, violated on the unstable one",
        ok,
    )


def test_criterion_10_singularity_exponents(grid2000):
    prof = exact_power(15.0, 2.0, m_cs(15.0, 2.0)).sample(grid2000)
    slope = -15.0 / integrability_threshold(prof, "u")[0]  # the head r^(-a) has a = n/threshold
    target = -(15.0 - 2.0 * math.sqrt(14.0) - 4.0) / 2.0
    prof_exp = exact_exponential(12.0, 2.0).sample(grid2000)
    log_slope, _ = log_singularity_fit(prof_exp, (1e-5, 0.01))
    ok = abs(slope - target) < 1e-3 and abs(log_slope - 2.0) < 1e-3
    _criterion(
        10,
        "fitted exponents match closed forms within 1e-3",
        ok,
        f"power {slope:.6f} vs {target:.6f}; log {log_slope:.6f} vs 2",
    )


def test_criterion_11_integrability_thresholds(grid2000):
    prof = exact_power(15.0, 2.0, 5.0).sample(grid2000)
    thr_u, err_u = integrability_threshold(prof, "u")
    prof_c = exact_power(15.0, 2.0, m_cs(15.0, 2.0)).sample(grid2000)
    thr_g, err_g = integrability_threshold(prof_c, "u_r")
    q1 = q_exponent(15.0, 2.0, 1)
    ok = abs(thr_u - 30.0) / 30.0 < 0.02 and abs(thr_g - q1) / q1 < 0.02
    # each reported error bounds the distance to the closed form
    ok = ok and abs(thr_u - 30.0) <= err_u and abs(thr_g - q1) <= err_g
    _criterion(
        11,
        "empirical integrability thresholds within 2%",
        ok,
        f"L^q {thr_u:.4f} +/- {err_u:.2g} vs 30; gradient {thr_g:.5f} +/- {err_g:.2g} vs {q1:.5f}",
    )


def test_criterion_12_uniform_bound_and_limit():
    grid = make_grid(1e-8, 4000)
    spec = ProblemSpec(12.0, 2.0, Exponential(1.0))
    res = lambda_star_estimate(spec, grid, tol_lambda=1e-15, max_bisect=80)
    conv = [r for r in res.records if r.converged]
    sums = [r.w1p_norm + r.f_l1_norm for r in conv]
    monotone = all(b >= a - 1e-9 for a, b in zip(sums, sums[1:]))
    # geometric-increment extrapolation of the monotone limit
    tail = sums[-4:]
    d1, d2 = tail[-2] - tail[-3], tail[-1] - tail[-2]
    if d1 > 0 and 0 < d2 < d1:
        limit = tail[-1] + d2 * d2 / (d1 - d2)
    else:
        limit = tail[-1]
    bounded = max(sums) <= 1.05 * limit

    prof = res.profile_lo
    mask = (grid.r >= 1e-4) & (grid.r <= 0.5)
    ref = -2.0 * np.log(grid.r[mask])
    dev = float(np.max(np.abs(prof.u[mask] - ref) / ref))
    ok = monotone and bounded and dev < 0.05
    _criterion(
        12,
        "norm sums monotone/bounded along the branch; limit matches -2 log r within 5%",
        ok,
        f"max/limit={max(sums) / limit:.4f}, deviation={dev:.4f}, u(0)={prof.u[0]:.2f}",
    )


def test_criterion_13_sweep_determinism(tmp_path, capsys):
    cfg = tmp_path / "sweep.ini"
    cfg.write_text(
        "[sweep]\np_values = 1.5, 2, 3, 5\nn_values = 12\n"
        "[solver]\ntol_lambda = 1e-2\n[grid]\nnodes = 400\nr_min = 1e-6\n"
    )
    outs = []
    for sub in ("a", "b"):
        code = main(["--config", str(cfg), "--out", str(tmp_path / sub), "sweep"])
        assert code == 0
        outs.append((tmp_path / sub / "index.csv").read_bytes())
    capsys.readouterr()
    ok = outs[0] == outs[1] and len(outs[0].strip().split(b"\n")) == 5
    _criterion(13, "repeated sweep produces byte-identical index", ok)
