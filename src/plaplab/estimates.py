"""Norms, head exponents, and the regime-dependent bound checks.

The sharp bounds come with non-explicit constants, so they are verified as
growth-rate statements.  Exponents are read from the head of the grid: a
head |v| ~ r^(-a) lies in L^q exactly for q < n/a, and
``integrability_threshold`` estimates n/a with its error from the first
three decades above r_min.  That one estimate per component gives both the
integrability of u and u_r and the head exponents -a checked against the
closed-form pointwise exponents (with a slack that absorbs the
|log r|^(1/p) factor), so tabulated reaction terms are handled uniformly
with closed-form ones.  Implied constants are reported for boundedness
across parameter sweeps.
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


def _read_head(profile: RadialProfile, component: str) -> tuple[float, str | None]:
    """(threshold, None), or (inf, why) on a grid too shallow or coarse to
    read the head."""
    try:
        return integrability_threshold(profile, component)[0], None
    except ParameterError as exc:  # the component is valid: the grid cannot read the head
        return math.inf, str(exc)


def _lq(profile: RadialProfile, component: str, q: float, threshold: float) -> float:
    """L^q norm of |u| or |u_r| in the radial measure, the sup norm for
    q = inf; inf from the component's integrability threshold on.

    The integrand is scaled by its maximum before exponentiation so that
    singular heads cannot overflow."""
    if not q >= 1.0:
        raise ParameterError(f"q must be at least 1, got {q}")
    mags = np.abs(profile.u if component == "u" else profile.u_r)
    top = float(np.max(mags))
    if q == math.inf or top == 0.0:
        return top
    if q >= threshold:
        return math.inf
    return top * profile.rule.integrate((mags / top) ** q) ** (1.0 / q)


def _w1q(profile: RadialProfile, q: float, threshold_u: float, threshold_ur: float) -> float:
    nu, ng = _lq(profile, "u", q, threshold_u), _lq(profile, "u_r", q, threshold_ur)
    if q == math.inf:
        return max(nu, ng)
    return (nu**q + ng**q) ** (1.0 / q)


def lq_norm(profile: RadialProfile, q: float) -> float:
    """L^q norm of u in radial units; sup norm for q = inf; math.inf from
    u's integrability threshold on.  On a grid too shallow or coarse to
    read the head it is the quadrature over [r_min, 1], never flagged."""
    return _lq(profile, "u", q, _read_head(profile, "u")[0])


def w1q_norm(profile: RadialProfile, q: float) -> float:
    """(|u|_q^q + |u_r|_q^q)^(1/q), math.inf from either component's
    integrability threshold on; max(|u|_inf, |u_r|_inf) for q = inf."""
    return _w1q(profile, q, _read_head(profile, "u")[0], _read_head(profile, "u_r")[0])


# ---------------------------------------------------------------------------
# logarithmic heads
# ---------------------------------------------------------------------------


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


def log_singularity_fit(
    profile: RadialProfile, window: tuple[float, float]
) -> tuple[float, float]:
    """(slope, stderr) of (u - u(1)) against |log r| over the grid nodes in
    the window, which must span a decade inside [10 r_min, 0.1]: the
    coefficient of a logarithmic head, which has no finite threshold."""
    r_a, r_b = window
    grid = profile.grid
    if r_a < 10.0 * grid.r_min * (1.0 - 1e-12) or r_b > 0.1 * (1.0 + 1e-12):
        raise ParameterError(f"fit window must lie inside [{10 * grid.r_min:.3g}, 0.1]")
    if r_b < 10.0 * r_a:
        raise ParameterError("fit window must span at least one decade")
    mask = (grid.r >= r_a) & (grid.r <= r_b)
    return _lstsq_slope(-grid.t[mask], _shifted(profile)[mask])


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


#: slope slack absorbing the |log r|^(1/p) factor of the pointwise bounds
SLOPE_SLACK = 0.05


def check_regularity_bounds(
    profile: RadialProfile,
    spec: ProblemSpec,
    stability,
    q_values=(),
) -> EstimateReport:
    """Regime-appropriate bound checks for a semi-stable profile.

    Refuses profiles without a semi-stability certificate: every bound here
    assumes it.  Pointwise bounds with unknown constants are checked as
    head exponents: a head r^(-a) has a = n/threshold (0 for a bounded or
    logarithmic head), and -a must be at least -(e + SLOPE_SLACK) for the
    sharp exponent e.  Each head is read once, for these slopes and every
    norm.  On a grid that cannot read the head the head checks are left
    out with a note.  Implied constants are reported, never asserted
    against fixed numbers.
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
    (thr_u, why_u), (thr_ur, why_ur) = (_read_head(profile, c) for c in ("u", "u_r"))
    unread = why_u or why_ur

    grad_lp = rule.integrate(np.abs(profile.u_r) ** p) ** (1.0 / p)
    w1p = (rule.integrate(np.abs(us) ** p) + grad_lp**p) ** (1.0 / p)
    linf = float(us[0])
    norms = {"linf": linf, "grad_lp": grad_lp, "w1p": w1p}
    for q in q_values:
        norms[f"lq_{q:g}"] = _lq(profile, "u", q, thr_u)
        norms[f"w1q_{q:g}"] = _w1q(profile, q, thr_u, thr_ur)

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
        # u <= C (|log r| + 1): u grows no faster than |log r| toward the
        # origin, so its slope against |log r| over the deepest decade (half
        # the grid, if shorter) is at most 1.1 times that over the next; a
        # power head r^(-a) rises 10^a times, a log head not at all
        t, width = grid.t, min(math.log(10.0), -float(grid.t[0]) / 2.0)
        deep = t <= t[0] + width
        above = (t >= t[0] + width) & (t <= t[0] + 2.0 * width)
        slope_deep, slope_above = (_lstsq_slope(-t[mask], us[mask])[0] for mask in (deep, above))
        checks["log_bound"] = slope_deep <= 1.1 * slope_above + ROUNDING_DRIFT * float(us[0])
        implied["log_bound_ratio"] = float(np.max(us / (np.abs(grid.t) + 1.0)))
    else:
        target = _pointwise_exponent(n, p, 0)
        if unread is None:
            fitted = -n / thr_u
            checks["pointwise_slope"] = fitted >= -(target + SLOPE_SLACK)
            q0 = q_exponent(n, p, 0)
            q_probe = 0.95 * q0 if math.isfinite(q0) else 2.0
            value = _lq(profile, "u", q_probe, thr_u)
            norms[f"lq_{q_probe:g}"] = value
            checks["lq_below_q0"] = math.isfinite(value)
            implied["lq_over_w1p"] = value / w1p if math.isfinite(value) and w1p > 0 else math.inf
    if regime != "A" and unread is not None:
        skipped = "pointwise_slope, lq_below_q0 and " if regime == "C" else ""
        notes.append(f"{skipped}gradient_slope skipped: {unread}")

    try:
        const = gradient_L1_bound(profile, spec.nonlinearity)[2]
    except _NegativeReaction:  # any other error is the profile's and propagates
        notes.append("reaction changes sign; gradient bounds skipped")
    else:
        implied["gradient_bound"] = const
        checks["gradient_bound_finite"] = math.isfinite(const)
        flux = flux_monotonicity_check(profile)
        checks["flux_monotone"] = flux.monotone
        if regime != "A" and unread is None:
            slope_ur = -n / thr_ur
            checks["gradient_slope"] = slope_ur >= -(_pointwise_exponent(n, p, 1) + SLOPE_SLACK)
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
