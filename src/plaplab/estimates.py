"""Norms, singularity fits, and the regime-dependent bound checks.

The sharp bounds come with non-explicit constants, so they are verified as
growth-rate statements: fitted log-log slopes against the closed-form
exponents (with a slack that absorbs the |log r|^(1/p) factor over the fit
window), plus boundedness of the implied constants across parameter sweeps.
Integrability is read from the head of the grid: a head |v| ~ r^(-a) lies
in L^q exactly for q < n/a, and ``integrability_threshold`` estimates n/a
with its error from the first three decades above r_min, so tabulated
reaction terms are handled uniformly with closed-form ones.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import Nonlinearity, ParameterError, ProblemSpec, RadialProfile, _jsonable
from .exponents import _pointwise_exponent, classify_regime, q_exponent

#: relative drift of the head estimates that is rounding, not truncation
ROUNDING_DRIFT = 1e-12

#: drift ratio of converging head estimates; a log head's stays below 1.009
CONVERGENT_RATIO = 1.02


def integrability_threshold(profile: RadialProfile, component: str) -> tuple[float, float]:
    """(threshold, error): the q from which |u| or |u_r| is not in L^q of
    the radial measure, read from the head.

    a is the least-squares slope of -log|v| against log r on each of the
    first three decades above r_min, deepest first; n/a of the deepest
    decade is the threshold.  A power head r^(-g)'s drifts shrink by a ratio
    near 10^g a decade toward the origin.  The error is the drift to the
    next decade or, where larger, the drifts' geometric tail at half the
    ratio's excess over 1 (the first ratio overstates the shrinking deeper
    in).  Where the ratio is at most CONVERGENT_RATIO (a logarithmic head,
    or a power head with g < 0.0086), or |v| does not grow toward the
    origin (a bounded head), there is no finite threshold: (inf, nan).
    """
    if component not in ("u", "u_r"):
        raise ParameterError(f"component must be 'u' or 'u_r', got {component!r}")
    grid = profile.grid
    values = np.abs(profile.u if component == "u" else profile.u_r)
    # decade ends in log r; the 1e-12 slack keeps nodes that rounding put
    # just past an end
    ends = grid.t[0] + math.log(10.0) * np.arange(4)
    if ends[-1] > math.log(0.1) + 1e-12:
        raise ParameterError(
            f"the head needs three decades in [r_min, 0.1], got r_min = {grid.r_min:.3g}"
        )
    rates = []
    for lo, hi in zip(ends[:-1], ends[1:]):
        mask = (grid.t >= lo - 1e-12) & (grid.t <= hi + 1e-12)
        if np.count_nonzero(mask) < 2:
            raise ParameterError("each head decade needs two grid nodes; refine the grid")
        head = values[mask]
        if not np.min(head) > 0.0:
            return math.inf, math.nan
        rates.append(-_lstsq_slope(grid.t[mask], np.log(head))[0])
    if not min(rates) > 0.0:
        return math.inf, math.nan
    e0, e1, e2 = (profile.n / a for a in rates)
    drift = abs(e0 - e1)
    if drift <= ROUNDING_DRIFT * e0:
        return e0, ROUNDING_DRIFT * e0
    ratio = abs(e1 - e2) / drift
    if ratio > CONVERGENT_RATIO:
        return e0, max(drift, 2.0 * drift / (ratio - 1.0))
    return math.inf, math.nan


def _lq(profile: RadialProfile, component: str, q: float) -> float:
    """L^q norm of |u| or |u_r| in the radial measure, the sup norm for
    q = inf; inf from the component's integrability threshold on.  On a
    grid too shallow or coarse to read the head it is the quadrature over
    [r_min, 1], never flagged.

    The integrand is scaled by its maximum before exponentiation so that
    singular heads cannot overflow."""
    if not q >= 1.0:
        raise ParameterError(f"q must be at least 1, got {q}")
    mags = np.abs(profile.u if component == "u" else profile.u_r)
    top = float(np.max(mags))
    if q == math.inf or top == 0.0:
        return top
    try:
        threshold = integrability_threshold(profile, component)[0]
    except ParameterError:  # the component is valid: the grid cannot read the head
        threshold = math.inf
    if q >= threshold:
        return math.inf
    return top * profile.rule.integrate((mags / top) ** q) ** (1.0 / q)


def lq_norm(profile: RadialProfile, q: float) -> float:
    """L^q norm of u in radial units; sup norm for q = inf; math.inf from
    u's integrability threshold on."""
    return _lq(profile, "u", q)


def w1q_norm(profile: RadialProfile, q: float) -> float:
    """(|u|_q^q + |u_r|_q^q)^(1/q), math.inf from either component's
    integrability threshold on; max(|u|_inf, |u_r|_inf) for q = inf."""
    nu, ng = _lq(profile, "u", q), _lq(profile, "u_r", q)
    if q == math.inf:
        return max(nu, ng)
    return (nu**q + ng**q) ** (1.0 / q)


# ---------------------------------------------------------------------------
# singularity fits
# ---------------------------------------------------------------------------


def _window_mask(profile: RadialProfile, r_a: float, r_b: float) -> np.ndarray:
    grid = profile.grid
    if r_a < 10.0 * grid.r_min * (1.0 - 1e-12) or r_b > 0.1 * (1.0 + 1e-12):
        raise ParameterError(
            f"fit window must lie inside [{10 * grid.r_min:.3g}, 0.1]"
        )
    if r_b < 10.0 * r_a:
        raise ParameterError("fit window must span at least one decade")
    return (grid.r >= r_a) & (grid.r <= r_b)


def _lstsq_slope(x: np.ndarray, y: np.ndarray) -> tuple[float, float]:
    xm, ym = x - x.mean(), y - y.mean()
    sxx = float(np.dot(xm, xm))
    slope = float(np.dot(xm, ym)) / sxx
    res = ym - slope * xm
    dof = max(len(x) - 2, 1)
    stderr = math.sqrt(float(np.dot(res, res)) / dof / sxx)
    return slope, stderr


def _shifted(profile: RadialProfile) -> np.ndarray:
    # normalize away the boundary value; bounds concern u - u(1)
    return profile.u - profile.u[-1]


def singularity_exponent_fit(
    profile: RadialProfile, window: tuple[float, float]
) -> tuple[float, float]:
    """Least-squares slope of log(1 + u - u(1)) against log r on the window.

    The +1 offset removes the boundary normalization so a pure power-law
    head fits exactly.  Windows whose two halves disagree by more than 20%
    are rejected: the head is not a power law (logarithmic singularities
    land here and belong to log_singularity_fit).
    """
    r_a, r_b = window
    mask = _window_mask(profile, r_a, r_b)
    us = _shifted(profile)
    if not us[0] > 10.0 * float(np.max(us[mask][-1:])):
        raise ParameterError("profile is not singular enough for an exponent fit")
    x = profile.grid.t[mask]
    y = np.log1p(us[mask])
    slope, stderr = _lstsq_slope(x, y)
    mid = 0.5 * (math.log(r_a) + math.log(r_b))
    lo_half = x <= mid
    s1, _ = _lstsq_slope(x[lo_half], y[lo_half])
    s2, _ = _lstsq_slope(x[~lo_half], y[~lo_half])
    if abs(s1 - s2) > 0.2 * max(abs(slope), 0.05):
        raise ParameterError(
            f"slope drifts across the window ({s1:.4g} vs {s2:.4g}); "
            "head is not a power law"
        )
    return slope, stderr


def _window_fit(profile: RadialProfile, window, y, x=None) -> tuple[float, float]:
    """(slope, stderr) of the nodal values y against x (default log r) over
    the grid nodes in the window."""
    mask = _window_mask(profile, *window)
    return _lstsq_slope((profile.grid.t if x is None else x)[mask], y[mask])


def log_singularity_fit(
    profile: RadialProfile, window: tuple[float, float]
) -> tuple[float, float]:
    """Slope of (u - u(1)) against |log r|: the companion fit for
    logarithmic heads."""
    return _window_fit(profile, window, _shifted(profile), x=-profile.grid.t)


# ---------------------------------------------------------------------------
# bound checks
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FluxCheck:
    monotone: bool
    max_violation: float
    location_r: float | None


def flux_monotonicity_check(profile: RadialProfile) -> FluxCheck:
    """r^(n-1)|u_r|^(p-1) = -w must be nonnegative and nondecreasing for
    nonnegative reaction terms, up to drops of 1e-10."""
    neg_w = -profile.w
    drops = -np.diff(neg_w)
    worst = float(np.max(drops, initial=0.0))
    if worst <= 1e-10:
        return FluxCheck(monotone=True, max_violation=max(worst, 0.0), location_r=None)
    at = int(np.argmax(drops))
    return FluxCheck(
        monotone=False,
        max_violation=worst,
        location_r=float(profile.grid.r[at]),
    )


class _NegativeReaction(ParameterError):
    """The reaction is negative (or nan) somewhere on the profile."""


def gradient_L1_bound(profile: RadialProfile, g: Nonlinearity):
    """Gradient energy against the two L^1 quantities that bound it:
    returns (|grad u|_p, (term_u, term_g), implied constant)."""
    rule = profile.rule
    gu = np.asarray(g.value(profile.u), dtype=float)
    if not np.min(gu) >= 0:  # a nan value fails too
        raise _NegativeReaction("reaction term must be nonnegative on the range of u")
    p = profile.p
    lhs = rule.integrate(np.abs(profile.u_r) ** p) ** (1.0 / p)
    us = _shifted(profile)
    term_u = rule.integrate(us ** (p - 1.0)) ** (1.0 / (p - 1.0))
    term_g = rule.integrate(gu) ** (1.0 / (p - 1.0))
    denom = term_u + term_g
    implied = lhs / denom if denom > 0 else 0.0
    return lhs, (term_u, term_g), implied


@dataclass(frozen=True)
class EstimateReport:
    regime: str
    norms: dict
    checks: dict
    implied_constants: dict
    fitted_exponent: float | None
    exponent_target: float | None
    singular: bool
    notes: tuple = ()

    @property
    def passed(self) -> bool:
        return all(self.checks.values())

    def as_dict(self) -> dict:
        return {**_jsonable(self), "passed": self.passed}


#: slope slack absorbing the |log r|^(1/p) factor over the fit window
SLOPE_SLACK = 0.05


def _default_window(profile: RadialProfile) -> tuple[float, float]:
    lo = max(10.0 * profile.grid.r_min, 1e-5)
    return lo, 0.01


def check_regularity_bounds(
    profile: RadialProfile,
    spec: ProblemSpec,
    stability,
    q_values=(),
) -> EstimateReport:
    """Regime-appropriate bound checks for a semi-stable profile.

    Refuses profiles without a semi-stability certificate: every bound here
    assumes it.  Pointwise bounds with unknown constants are checked as
    slope inequalities (slack SLOPE_SLACK); implied constants are reported,
    never asserted against fixed numbers.
    """
    if stability is None:
        raise ParameterError("a stability report is required")
    if stability.verdict == "unstable":
        raise ParameterError("bound checks apply to semi-stable profiles only")
    n, p = profile.n, profile.p
    if (abs(n - spec.n) > 1e-12) or (abs(p - spec.p) > 1e-12):
        raise ParameterError("profile and problem disagree on (n, p)")
    regime, _summary = classify_regime(n, p)
    rule = profile.rule
    us = _shifted(profile)
    grid = profile.grid

    grad_lp = rule.integrate(np.abs(profile.u_r) ** p) ** (1.0 / p)
    w1p = (rule.integrate(np.abs(us) ** p) + grad_lp**p) ** (1.0 / p)
    linf = float(us[0])
    norms = {"linf": linf, "grad_lp": grad_lp, "w1p": w1p}
    for q in q_values:
        norms[f"lq_{q:g}"] = lq_norm(profile, q)
        norms[f"w1q_{q:g}"] = w1q_norm(profile, q)

    checks: dict = {}
    implied: dict = {}
    notes: list[str] = []
    fitted = None
    target = None

    head_idx = int(np.searchsorted(grid.r, 30.0 * grid.r_min))
    head_rise = float(us[0] - us[min(head_idx, grid.size - 1)])
    # still growing across the head = unbounded evidence (log heads count)
    singular = head_rise > 0.05 * max(linf, 1e-30)

    if regime == "A":
        checks["bounded"] = not singular
        implied["linf_over_w1p"] = linf / w1p if w1p > 0 else 0.0
    elif regime == "B":
        ratios = us / (np.abs(grid.t) + 1.0)
        ratio_all = float(np.max(ratios))
        ratio_away = float(np.max(ratios[grid.r >= 100.0 * grid.r_min]))
        checks["log_bound"] = ratio_all <= 1.1 * ratio_away
        implied["log_bound_ratio"] = ratio_all
    else:
        target = _pointwise_exponent(n, p, 0)
        if singular:
            # lenient (no drift rejection): upper bounds apply to any head,
            # logarithmic ones simply land far inside the bound
            head = np.log1p(np.maximum(us, 0.0))
            fitted = _window_fit(profile, _default_window(profile), head)[0]
            checks["pointwise_slope"] = fitted >= -(target + SLOPE_SLACK)
        else:
            # bounded heads sit strictly inside any power bound
            checks["pointwise_slope"] = True
            notes.append("head not singular; pointwise bound holds trivially")
        q0 = q_exponent(n, p, 0)
        q_probe = 0.95 * q0 if math.isfinite(q0) else 2.0
        value = lq_norm(profile, q_probe)
        norms[f"lq_{q_probe:g}"] = value
        checks["lq_below_q0"] = math.isfinite(value)
        implied["lq_over_w1p"] = value / w1p if math.isfinite(value) and w1p > 0 else math.inf

    try:
        const = gradient_L1_bound(profile, spec.nonlinearity)[2]
    except _NegativeReaction:  # any other error is the profile's and propagates
        notes.append("reaction changes sign; gradient bounds skipped")
    else:
        implied["gradient_bound"] = const
        checks["gradient_bound_finite"] = math.isfinite(const)
        flux = flux_monotonicity_check(profile)
        checks["flux_monotone"] = flux.monotone
        if regime != "A":
            grad = np.log(np.maximum(np.abs(profile.u_r), 1e-300))
            slope_ur, _ = _window_fit(profile, _default_window(profile), grad)
            target_d3 = _pointwise_exponent(n, p, 1)
            checks["gradient_slope"] = slope_ur >= -(target_d3 + SLOPE_SLACK)
            implied["gradient_slope"] = slope_ur

    return EstimateReport(
        regime=regime,
        norms=norms,
        checks=checks,
        implied_constants=implied,
        fitted_exponent=fitted,
        exponent_target=target,
        singular=bool(singular),
        notes=tuple(notes),
    )
