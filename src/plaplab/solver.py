"""Numerical solution machinery for the radial reaction problem.

All integrations work in the flux variable w = r^(n-1)|u_r|^(p-2) u_r, which
turns the equation into the non-degenerate first-order system

    u' = sgn(w) (|w| r^(1-n))^(1/(p-1)),      w' = -r^(n-1) g(u),

avoiding the coefficient |u_r|^(p-2) that is singular (p < 2) or degenerate
(p > 2) where u_r vanishes.  Each shooting route takes its classical RK4
steps in one loop, with the four stages written out in the loop body.

Four routes to solutions:

  * ``shoot`` integrates from the center value u(0) = M with a startup
    series at r_min, or further in for large M (two steps per cell);
  * ``bifurcation_curve`` uses the scaling of the equation: if v solves the
    lambda = 1 problem with v(0) = M and first zero S, then u(r) = v(S r)
    solves the lambda problem with lambda(M) = S^p, so one integration to
    the first zero per center value gives the curve;
  * ``minimal_iterate`` runs the monotone iteration from u = 0, inverting
    the radial p-Laplacian by nested quadrature; iterates increase
    pointwise, and the limit is the minimal solution when one exists.  Its
    sweeps write into the work arrays of one ``_SweepKernel`` per search.
    On a convex reaction, once the sweeps contract at a settled rate, Anderson
    mixing may finish the iteration; its answer counts only when one more
    sweep certifies a supersolution just above it.  For p <= 2 and a convex
    reaction, a step that grows at every node certifies that no minimal
    solution exists, and the probe stops there as an "unstable iterate";
  * ``lambda_star_estimate`` bisects the parameter between convergent and
    divergent iterations and reports a bracket for the extremal parameter,
    never a point value.  Each probe above the last convergent one starts
    from that probe's solution, a subsolution there.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .core import (
    ConsistencyError,
    EvaluationError,
    Nonlinearity,
    ParameterError,
    ProblemSpec,
    QuadratureRule,
    RadialGrid,
    RadialProfile,
    Tabulated,
    _CellSums,
    make_rule,
)

#: flux scaling r^(n-1) underflows double precision headroom past this
SOLVER_MAX_DIMENSION = 30.0

#: Fold-ghost stop of the monotone iteration.  Near a saddle-node the sweeps
#: pass a bottleneck where the sup-norm step falls like k^-2, so with
#: rho_k = delta_k / delta_(k-1) the product k (1 - rho_k) tends to 2; on a
#: convergent probe 1 - rho_k levels off at the linear rate and the product
#: climbs, on a divergent one rho_k passes 1 and it turns negative.  From
#: sweep FOLD_GHOST_SWEEPS on, a probe with 0 < k (1 - rho_k) < FOLD_GHOST_RATE
#: stops as "fold ghost", which leaves it undecided and never decides it.
FOLD_GHOST_SWEEPS = 500
FOLD_GHOST_RATE = 3.0

#: probe outcomes that neither converged nor diverged; never a bracket end
UNDECIDED = ("iteration cap", "fold ghost")

#: The quadrature's cumulative weights are not all positive, so a sweep may
#: lower u by rounding: up to ORDER_SLACK (1 + sup u) passes, more raises.
ORDER_SLACK = 1e-12

#: Certified divergence.  For p <= 2 and a convex reaction the sweep map T is
#: order preserving and convex, so a plain step delta_(k+1) with
#: min_i delta_(k+1,i) / delta_(k,i) > 1 + UNSTABLE_MARGIN over every node but
#: r = 1, where each delta_(k,i) > ORDER_SLACK (1 + sup u), bounds the
#: spectral radius of T' above 1 at u_k and at every fixed point above it:
#: no minimal solution exists, and the probe stops as "unstable iterate".
#: T' >= 0 although each cumulative sum has negative weights (see ORDER_SLACK)
#: is checked, not proved: at p = 2 on the default grid and on 1e-6/400 for
#: the dimensions README lists, and at the stops of its cross-check searches.
#: Elsewhere the stop rests on the margin absorbing any small negative part.
#: UNSTABLE_MARGIN = math.inf switches the stop off.
UNSTABLE_MARGIN = 1e-6

#: Accelerated convergent probes.  On a convex reaction, once the plain
#: iteration's rho_k has settled (from sweep ACCEL_SWEEPS on, rho_k < 1 and
#: |rho_k - rho_(k-1)| < ACCEL_SETTLE (1 - rho_k)) with more than
#: ACCEL_SWEEPS plain sweeps to go at that rate, Anderson mixing of depth
#: ACCEL_DEPTH runs on a copy of the iterate for at most ACCEL_MAX_SWEEPS
#: sweeps, once per probe.  Its answer u_A, at residual delta_A, counts only
#: with a supersolution certificate, T(u_A + eps phi) <= u_A + eps phi -
#: ORDER_SLACK (1 + sup) on every node but r = 1, phi the last plain step
#: scaled to sup 1.  Near a stable fixed point a sweep leaves a gap of about
#: eps (1 - rho) phi_i at node i, so eps is sized to clear twice the slack
#: where phi is smallest: eps = max(sqrt(delta_A),
#: 2 ORDER_SLACK (1 + sup u_A) / ((1 - rho) min phi)).  The one certificate
#: sweep runs only when eps <= ACCEL_EPS_CAP, the top of the eps range over
#: which the certificate is checked to reject an upper-branch solution;
#: above it the plain sweeps resume.  ACCEL_SWEEPS = 10**9 switches it off.
ACCEL_SWEEPS = 10
ACCEL_SETTLE = 0.01
ACCEL_DEPTH = 4
ACCEL_MAX_SWEEPS = 40
ACCEL_EPS_CAP = 1e-2


class BlowUpError(RuntimeError):
    """Shooting trajectory exceeded the overflow guard before r = 1."""


class BracketingError(RuntimeError):
    """No divergent (or no convergent) parameter found; carries a diagnosis."""


@dataclass(frozen=True)
class IterationControls:
    tol_abs: float = 1e-11
    tol_rel: float = 1e-10
    u_max: float = 1e6
    k_max: int = 10000


@dataclass(frozen=True)
class ShootResult:
    profile: RadialProfile
    boundary_value: float
    warnings: tuple = ()


@dataclass(frozen=True)
class LambdaRecord:
    lam: float
    converged: bool
    iterations: int
    sup_norm: float
    w1p_norm: float
    f_l1_norm: float
    reason: str  # "converged", or why the probe diverged or stayed undecided
    contraction: float = math.nan  # rho_k of the last plain sweep; nan before two sweeps
    # eps of the accepted supersolution u_A + eps phi (sqrt(delta_A), or more
    # to clear the order slack, at most ACCEL_EPS_CAP), or for an "unstable
    # iterate" the Collatz-Wielandt lower bound min_i delta_(k+1,i) /
    # delta_(k,i) on the spectral radius of T'; nan for every other probe
    certificate: float = math.nan


@dataclass(frozen=True)
class BifurcationPoint:
    center_value: float
    lam: float
    boundary_residual: float
    converged: bool
    iterations: int


@dataclass(frozen=True)
class ContinuationResult:
    lambda_lo: float
    lambda_hi: float
    records: tuple
    profile_lo: RadialProfile


def _check_solver_dimension(n: float) -> None:
    if n > SOLVER_MAX_DIMENSION:
        raise ParameterError(
            f"solver supports n <= {SOLVER_MAX_DIMENSION:g} "
            f"(flux scaling r^(n-1) loses double-precision headroom), got n={n}"
        )


# ---------------------------------------------------------------------------
# shooting
# ---------------------------------------------------------------------------


def _rk4_step(rhs, x, a, b, h):
    """One classical RK4 step of (a, b)' = rhs(x, a, b) from x to x + h."""
    k1a, k1b = rhs(x, a, b)
    k2a, k2b = rhs(x + h / 2, a + h / 2 * k1a, b + h / 2 * k1b)
    k3a, k3b = rhs(x + h / 2, a + h / 2 * k2a, b + h / 2 * k2b)
    k4a, k4b = rhs(x + h, a + h * k3a, b + h * k3b)
    a += h / 6 * (k1a + 2 * k2a + 2 * k3a + k4a)
    b += h / 6 * (k1b + 2 * k2b + 2 * k3b + k4b)
    return a, b


def _startup_series(g, center_value: float, n: float, p: float, r_min: float):
    """(u, w) at r_min from the startup series in ``shoot``'s docstring."""
    q = 1.0 / (p - 1.0)
    g_m = g(center_value)
    u0 = center_value - math.copysign(
        (p - 1.0) / p * (abs(g_m) / n) ** q * r_min ** (p / (p - 1.0)), g_m
    )
    return u0, -r_min**n * g_m / n


def _series_start(g_m: float, m_val: float, n: float, p: float) -> float:
    """log of the radius where the startup series' correction
    M - u(r) = (p-1)/p (g(M)/n)^(1/(p-1)) r^(p/(p-1)) is 1e-10 M."""
    return (p - 1.0) / p * (
        math.log(1e-10 * m_val * p / (p - 1.0)) - math.log(g_m / n) / (p - 1.0)
    )


def shoot(
    spec: ProblemSpec,
    center_value: float,
    grid: RadialGrid,
    *,
    seed: tuple[float, float] | None = None,
    u_guard: float = 1e6,
) -> ShootResult:
    """Integrate the flux system outward from r_min with u(0) = M.

    The startup series u(r) ~ M - (p-1)/p (g(M)/n)^(1/(p-1)) r^(p/(p-1)),
    w(r) ~ -r^n g(M)/n seeds the integration at r_min (error
    O(r_min^(2p/(p-1)))), or, if M, g(M) > 0 and it is off there by more than
    1e-10 M, at the first node of spacing dt inward past ``_series_start``;
    the profile keeps ``grid``'s nodes.  ``seed`` overrides it with explicit
    (u(r_min), w(r_min)) values, which is the right choice when targeting a
    solution that is singular at the origin.  Each grid cell takes two RK4
    steps on ``f.scalar_value(-inf)``, whose closure holds the clamp: below
    its table a ``Tabulated`` reaction takes its first knot's value (RK4
    stages dip below u = 0 near a zero at r = 1), but M must lie inside.
    The loop here takes the steps, stages inline, from t_k and t_k + dt/2 of
    each cell, restarting e^(n t) at t_k; a step that ends non-finite or with
    |u| > u_guard raises, naming the r it started from."""
    _check_solver_dimension(spec.n)
    n, p, f = spec.n, spec.p, spec.nonlinearity
    g = f.scalar_value()
    g_m = g(center_value) if seed is None and center_value > 0 else 0.0
    t_s = _series_start(g_m, center_value, n, p) if g_m > 0 else grid.t[0]
    lead = max(math.ceil((grid.t[0] - t_s) / grid.dt), 0)
    t_lead = grid.t[0] - grid.dt * np.arange(lead, 0, -1)
    r0 = float(np.exp(t_lead)[0]) if lead else grid.r_min
    u, w = seed if seed is not None else _startup_series(g, center_value, n, p, r0)
    dt = float(grid.dt) / 2
    q, m, h2, h6 = 1.0 / (p - 1.0), 1.0 - n, dt / 2, dt / 6
    log, exp, copysign, inf = math.log, math.exp, math.copysign, math.inf
    g = f.scalar_value(-inf)  # the startup series above keeps the unclamped g
    u_lim = u_guard if u_guard < inf else sys.float_info.max  # so |u| = inf fails the guard

    nodes = [(u, w)]
    warnings: list[str] = []
    try:
        for tk in t_lead.tolist() + grid.t.tolist()[:-1]:
            e = exp(n * tk)
            for x in (tk, tk + dt):
                du1 = copysign(exp(q * (log(abs(w)) + m * x) + x), w) if w != 0.0 else 0.0
                dw1 = -e * g(u)
                xm, w2 = x + h2, w + h2 * dw1
                mxm = m * xm
                du2 = copysign(exp(q * (log(abs(w2)) + mxm) + xm), w2) if w2 != 0.0 else 0.0
                em = exp(n * xm)
                dw2 = -em * g(u + h2 * du1)
                w3 = w + h2 * dw2
                du3 = copysign(exp(q * (log(abs(w3)) + mxm) + xm), w3) if w3 != 0.0 else 0.0
                dw3 = -em * g(u + h2 * du2)
                x4, w4 = x + dt, w + dt * dw3
                du4 = copysign(exp(q * (log(abs(w4)) + m * x4) + x4), w4) if w4 != 0.0 else 0.0
                e = exp(n * x4)
                dw4 = -e * g(u + dt * du3)
                u += h6 * (du1 + 2.0 * du2 + 2.0 * du3 + du4)
                w += h6 * (dw1 + 2.0 * dw2 + 2.0 * dw3 + dw4)
                if not (abs(u) <= u_lim and abs(w) < inf):
                    raise BlowUpError(f"|u| exceeded {u_guard:g} at r = {exp(x):.3e}")
            nodes.append((u, w))
    except OverflowError as exc:
        raise BlowUpError(f"overflow during integration: {exc}") from exc
    u_nodes, w_nodes = map(np.array, zip(*nodes[lead:]))

    if np.any(np.diff(u_nodes) > 1e-10 * (1.0 + np.max(np.abs(u_nodes)))):
        warnings.append("u is not monotone along the trajectory")
    if np.any(w_nodes > 0):
        warnings.append("flux changed sign along the trajectory")
    profile = RadialProfile(
        grid=grid, n=n, p=p, u=u_nodes, w=np.minimum(w_nodes, 0.0), check=False
    )
    return ShootResult(
        profile=profile, boundary_value=float(u_nodes[-1]), warnings=tuple(warnings)
    )


# ---------------------------------------------------------------------------
# monotone iteration
# ---------------------------------------------------------------------------


class _SweepKernel:
    """What every sweep of one lambda* search reuses: the source rule (weight
    r^(n-1)) and the unweighted outer rule, each with its ``_CellSums`` over
    a work array, r^(1-n), q = 1/(p-1), and the work arrays themselves.

    A sweep allocates only the correlation inside each cumulative sum.  The
    next iterate alternates between the two ``u`` arrays, so a sweep never
    writes into the iterate it reads; the loop's step u_next - u alternates
    between the two ``diff`` arrays, so the last plain step stays readable."""

    def __init__(self, grid: RadialGrid, n: float, p: float):
        m = grid.size
        self.rule_src = make_rule(grid, n)
        self.rpow = grid.r ** (1.0 - n)
        self.q = 1.0 / (p - 1.0)
        self.h, self.F, self.slope = (np.empty(m) for _ in range(3))
        self.source = _CellSums(self.rule_src, self.h)
        self.outer = _CellSums(make_rule(grid, 1.0), self.slope)
        self.u = (np.empty(m), np.empty(m))
        self.diff = (np.empty(m), np.empty(m))


def _iteration_step(u, lam, f, kernel: _SweepKernel):
    """One sweep of the monotone iteration; returns (next u, flux integral F),
    both in ``kernel``'s arrays, which the next sweep overwrites.

    The source integral carries the r^(n-1) weight; the outer integral
    int_r^1 v(s) ds is unweighted (rule built with n = 1).  The operations
    and their order are those of ``(cumulative_to_one((F * r^(1-n)) ** q),
    F)`` with ``F = cumulative_from_zero(lam * f(u))``; only where the
    results go differs, so every sweep gives the same bits.  ``**=`` keeps
    numpy's scalar-power fast paths (``sqrt`` for q = 1/2, ``square`` for
    q = 2), and q = 1 skips the power, since x ** 1.0 is x.  Overflow is
    expected here; the caller silences its floating-point warnings.  Nothing
    is tested for finiteness: a non-finite f(u), F or slope integrand makes
    the next u[0] non-finite, which the caller sees.
    """
    np.multiply(f.value(u), lam, out=kernel.h)
    F = kernel.source.from_zero(kernel.F)
    s = np.multiply(F, kernel.rpow, out=kernel.slope)
    if kernel.q != 1.0:
        s **= kernel.q
    u0, u1 = kernel.u
    return kernel.outer.to_one(u1 if u is u0 else u0), F


def _anderson(u, lam: float, f, kernel: _SweepKernel, controls: IterationControls, delta0: float):
    """Anderson mixing (type II, depth ACCEL_DEPTH; Walker & Ni 2011) from u
    under the plain stopping test: (sweeps, u_A, residual), where u_A = T(x)
    at the mixed iterate x that passed the test, or (sweeps, None, nan).  The
    mixing weights solve their least-squares problem through its normal
    equations, and mixed iterates are kept at or above u, which lies below
    the minimal solution when it is a plain iterate.  A residual above
    ``delta0``, a non-finite sweep, sup > u_max or a reaction evaluated
    outside its domain ends the attempt; none of them decides anything."""
    dx, dg = np.empty((ACCEL_DEPTH, u.size)), np.empty((ACCEL_DEPTH, u.size))
    x, x_old, g_old = u.copy(), None, None
    for j in range(1, ACCEL_MAX_SWEEPS + 1):
        try:
            tx = _iteration_step(x, lam, f, kernel)[0]
        except EvaluationError:
            return j, None, math.nan
        g = tx - x
        sup, delta = float(np.max(tx)), float(np.max(np.abs(g)))
        if not (math.isfinite(sup) and delta <= delta0) or sup > controls.u_max:
            return j, None, math.nan
        if delta < controls.tol_abs + controls.tol_rel * sup:
            return j, tx.copy(), delta
        if x_old is not None:  # the oldest difference pair gives way
            row, used = (j - 2) % ACCEL_DEPTH, min(j - 1, ACCEL_DEPTH)
            np.subtract(x, x_old, out=dx[row])
            np.subtract(g, g_old, out=dg[row])
        x_old, g_old, x = x, g, x + g
        if j > 1:
            G = dg[:used]
            x -= np.linalg.lstsq(G @ G.T, G @ g, rcond=None)[0] @ (dx[:used] + G)
        np.maximum(x, u, out=x)
    return ACCEL_MAX_SWEEPS, None, math.nan


def _supersolution(u_bar, lam: float, f, kernel: _SweepKernel) -> bool:
    """One sweep: whether T(u_bar) <= u_bar - ORDER_SLACK (1 + sup u_bar) on
    every node but r = 1, where both sides are 0.  The slack covers the
    order defect that the sweeps' guard lets pass, so the iterates from 0
    stay below u_bar, and rounding can only reject."""
    gap = u_bar - _iteration_step(u_bar, lam, f, kernel)[0]
    return bool(np.all(gap[:-1] >= ORDER_SLACK * (1.0 + float(np.max(u_bar)))))


def _growth_bound(step, last, floor: float) -> float:
    """min_i step_i / last_i over every node but r = 1, where both are 0, or
    nan when some last_i <= floor: a step at rounding level never votes."""
    if not float(np.min(last[:-1])) > floor:
        return math.nan
    return float(np.min(step[:-1] / last[:-1]))


def _monotone_iteration(spec: ProblemSpec, grid: RadialGrid, controls: IterationControls):
    """The monotone iteration as a function of lambda, returning (profile,
    LambdaRecord), with None for the profile of a probe that did not
    converge; one ``_SweepKernel`` serves every lambda it is called with,
    after the admission checks that every caller needs.

    The warm starts, the certified Anderson attempt and what ``iterations``
    counts are described in ``lambda_star_estimate``.  A returned profile
    owns its arrays; a converged u that rises in r means the grid is too
    coarse for order preservation."""
    n, p, f = spec.n, spec.p, spec.nonlinearity
    _check_solver_dimension(n)
    if not f.increasing:
        raise ParameterError("minimal-solution iteration requires increasing f")
    if not f.positive_at_zero():
        raise ParameterError("minimal-solution iteration requires f(0) > 0")
    kernel = _SweepKernel(grid, n, p)
    sup_of, min_of, subtract = np.maximum.reduce, np.minimum.reduce, np.subtract
    isfinite, k_max, u_max = math.isfinite, controls.k_max, controls.u_max
    tol_abs, tol_rel, convex = controls.tol_abs, controls.tol_rel, f.convex
    warm = None  # (lambda, u) of the last converged probe

    def diverged(lam: float, k: int, sup: float, reason: str, rho: float, bound: float = math.nan):
        return None, LambdaRecord(lam, False, k, sup, math.inf, math.inf, reason, rho, bound)

    def converged(lam: float, k: int, rho: float, u, eps: float = math.nan, residual: float = math.inf):
        """The probe's end after k sweeps and the sweep that makes (u, w) an
        exactly consistent pair.  A plain iterate's step is close to the
        principal mode of T' and shrinks, so one sweep does.  An Anderson
        answer's residual is not: the steps from it may grow for a few sweeps
        before they shrink, and until then its error may far exceed a plain
        iterate's (22 times at n = 10, p = 2.5 next to lambda*).  So sweeps
        from it go on until a step passes the stopping test and is no larger
        than the step, or the residual, before it."""
        nonlocal warm
        u_final, F_final = _iteration_step(u, lam, f, kernel)
        k += 1
        while not math.isnan(eps) and k < k_max:
            step = float(np.max(np.abs(u_final - u)))
            if step < tol_abs + tol_rel * float(np.max(u_final)) and step <= residual:
                break
            u, residual = u_final, step
            u_final, F_final = _iteration_step(u, lam, f, kernel)
            k += 1
        try:
            profile = RadialProfile(grid=grid, n=n, p=p, u=u_final.copy(), w=-F_final)
        except ParameterError as exc:
            raise ParameterError(
                f"converged iterate at lambda = {lam!r} rejected ({exc}): the quadrature "
                f"lost order preservation on this {grid.size}-node grid; refine the grid"
            ) from exc
        w1p, f_l1 = _profile_norms(profile, f, kernel.rule_src)
        record = LambdaRecord(lam, True, k, float(np.max(profile.u)), w1p, f_l1, "converged", rho, eps)
        warm = (lam, profile.u)
        return profile, record

    def iterate(lam: float):
        step_of, (diff, diff_alt) = _iteration_step, kernel.diff
        start = warm[1] if warm is not None and lam > warm[0] else None
        u = np.zeros(grid.size) if start is None else start
        k = sweeps = 0  # plain sweeps since u's start; every sweep of the probe
        prev = rho = rho_old = math.nan  # delta and rho of the sweep before
        last = None  # the plain step of the sweep before
        # the growth that certifies an unstable iterate; inf where the
        # convexity argument fails (p > 2, or f not convex)
        grows = 1.0 + UNSTABLE_MARGIN if convex and p <= 2.0 else math.inf
        tried = not convex
        with np.errstate(over="ignore", invalid="ignore"):
            while k < k_max:
                k, sweeps = k + 1, sweeps + 1
                u_next, F = step_of(u, lam, f, kernel)
                sup = float(sup_of(u_next))
                step = subtract(u_next, u, out=diff_alt if last is diff else diff)
                drop = float(min_of(step))
                if not (isfinite(sup) and isfinite(drop)):
                    # a non-finite step is an unbounded multiple of the last
                    rho = math.inf if k > 1 else math.nan
                    return diverged(lam, sweeps, math.inf, "overflow", rho)
                delta = max(float(sup_of(step)), -drop)
                rho_old, rho = rho, (delta / prev if prev > 0.0 else math.nan)
                if drop < -ORDER_SLACK * (1.0 + sup):
                    if start is None or k > 1:
                        raise ConsistencyError(
                            "monotone iteration decreased somewhere; quadrature bug"
                        )
                    # the warm start is no subsolution at this lambda
                    u, start, k, rho = np.zeros(grid.size), None, 0, math.nan
                    continue
                if sup > u_max:
                    return diverged(lam, sweeps, sup, "exceeded u_max", rho)
                u = u_next
                if delta < tol_abs + tol_rel * sup:
                    return converged(lam, sweeps, rho, u)
                # rho is nan until the second plain sweep since u's start;
                # the sup-norm ratio bounds the nodewise one from above
                if rho > grows:
                    bound = _growth_bound(step, last, ORDER_SLACK * (1.0 + sup))
                    if bound > grows:
                        return diverged(lam, sweeps, sup, "unstable iterate", rho, bound)
                if k >= FOLD_GHOST_SWEEPS and 0.0 < k * (1.0 - rho) < FOLD_GHOST_RATE:
                    return diverged(lam, sweeps, sup, "fold ghost", rho)
                # rho_k < 1 has settled, and plain sweeps have more than
                # ACCEL_SWEEPS to go at that rate
                if (
                    not tried
                    and k >= ACCEL_SWEEPS
                    and abs(rho - rho_old) < ACCEL_SETTLE * (1.0 - rho)
                    and delta * rho**ACCEL_SWEEPS > tol_abs + tol_rel * sup
                ):
                    tried, u = True, u.copy()  # the attempt's sweeps write into kernel.u
                    used, u_a, residual = _anderson(u, lam, f, kernel, controls, delta)
                    sweeps += used
                    if u_a is not None:
                        # phi: the last plain step, >= 0, scaled to sup 1; a
                        # sweep leaves a gap near eps (1 - rho) phi_i at node i
                        lift = np.maximum(step, 0.0)
                        grip = (1.0 - rho) * float(min_of(lift[:-1])) / delta
                        slack = 2.0 * ORDER_SLACK * (1.0 + float(sup_of(u_a)))
                        eps = max(math.sqrt(residual), slack / grip) if grip > 0.0 else math.inf
                        if eps <= ACCEL_EPS_CAP:
                            sweeps += 1
                            if _supersolution(u_a + eps / delta * lift, lam, f, kernel):
                                return converged(lam, sweeps, rho, u_a, eps, residual)
                prev, last = delta, step
        return diverged(lam, sweeps, float(np.max(u)), "iteration cap", rho)

    return iterate


def minimal_iterate(
    spec: ProblemSpec,
    lam: float,
    grid: RadialGrid,
    controls: IterationControls | None = None,
):
    """Monotone iteration from u = 0: returns the fixed-point RadialProfile,
    or the probe's LambdaRecord when iterates pass u_max, overflow or reach
    an unstable iterate (diverged) or stop at the iteration cap or as a fold
    ghost (undecided).
    On a convex reaction a certified Anderson attempt may end it early, as in
    ``lambda_star_estimate``."""
    if lam < 0:
        raise ParameterError(f"lambda must be nonnegative, got {lam}")
    profile, record = _monotone_iteration(spec, grid, controls or IterationControls())(lam)
    return record if profile is None else profile


def _profile_norms(profile: RadialProfile, f: Nonlinearity, rule: QuadratureRule):
    p = profile.p
    w1p = (
        rule.integrate(np.abs(profile.u) ** p) + rule.integrate(np.abs(profile.u_r) ** p)
    ) ** (1.0 / p)
    f_l1 = rule.integrate(np.asarray(f.value(profile.u), dtype=float))
    return w1p, f_l1


def lambda_star_estimate(
    spec: ProblemSpec,
    grid: RadialGrid,
    controls: IterationControls | None = None,
    *,
    tol_lambda: float = 1e-3,
    lam_init: float = 1.0,
    lam_cap: float = 1e8,
    max_bisect: int = 200,
) -> ContinuationResult:
    """Bracket the extremal parameter by bisection between the largest
    convergent and smallest divergent iteration outcome.

    Each probe is converged (it sets lo), diverged ("exceeded u_max",
    "overflow" or "unstable iterate"; it sets hi) or undecided ("iteration
    cap" or "fold ghost"), and an undecided probe is never a bracket end.  The undecided probes
    strictly inside (lo, hi) form a hole [a, b]; with
    step = max(tol_lambda b / 4, b - a, 4 ulp(b)) the next lam is b + step
    while hi is None or above it, else a - step while lo is None or below
    it, else the search stops; a bracket then left wider than tol_lambda has
    undecided probes inside.  Without a hole the next lam is 2 lo while
    there is no hi, hi / 2 while there is no lo, and otherwise the midpoint,
    until the bracket passes the width test or max_bisect midpoints have
    run.  Every probe is recorded with its norms so the uniform-bound
    behavior of the minimal branch can be audited from the result alone.

    A probe above the last converged lambda starts from that probe's u:
    minimal solutions increase with lambda and T is order preserving, so it
    is a subsolution, and the first sweep checks that (a sweep that lowers it
    anywhere restarts the probe from u = 0).  On a convex reaction (the
    ``convex`` property: for convex f a stable solution is the minimal one),
    once rho_k has settled (k >= ACCEL_SWEEPS, rho_k < 1,
    |rho_k - rho_(k-1)| < ACCEL_SETTLE (1 - rho_k)) and the plain sweeps
    still have more than ACCEL_SWEEPS to go, the probe runs Anderson mixing
    once, on a copy of its iterate, for at most ACCEL_MAX_SWEEPS sweeps under
    the same stopping test.  Its answer u_A, at residual delta, ends the
    probe as converged only if u_A + eps phi, with phi the last plain step
    scaled to sup 1, is a supersolution:
    T(u_A + eps phi) <= u_A + eps phi - ORDER_SLACK (1 + sup) on every node
    but r = 1.  The slack is the drop the plain sweeps' order guard grants
    the quadrature, whose cumulative weights are not all positive (the n = 1
    rule has a -3.8e-8 entry); with it, rounding can only reject.  The
    argument holds for every eps > 0, and a sweep leaves a gap of about
    eps (1 - rho) phi_i at node i, so eps = max(sqrt(delta),
    2 ORDER_SLACK (1 + sup u_A) / ((1 - rho) min_i phi_i)) over every node
    but r = 1: near lambda* the principal mode moves toward the origin, and
    phi at the outer nodes falls to 1e-7 and below.  The certificate sweep
    runs only when eps <= ACCEL_EPS_CAP.  The iteration from 0 then stays
    below the supersolution and converges, so the probe is decided as the
    plain one would be, and plain sweeps from u_A, until a step passes the
    stopping test without growing, build its profile.  Otherwise the plain
    sweeps resume where they stopped, so every divergent, fold-ghost and
    capped outcome comes from plain sweeps.

    For p <= 2 and a convex reaction, T is order preserving and convex, so
    delta_(k+1) <= T'(u_k) delta_k for consecutive plain steps.  From the
    second plain sweep since u's start, once rho_k > 1 + UNSTABLE_MARGIN, a
    step with delta_(k,i) > ORDER_SLACK (1 + sup) and
    delta_(k+1,i) / delta_(k,i) > 1 + UNSTABLE_MARGIN at every node but r = 1
    gives rho(T'(u_k)) > 1 by the Collatz-Wielandt bound, and so at every
    fixed point above u_k, where T' is larger.  The minimal fixed point, which
    the iterates stay below, has rho(T') <= 1, so there is none: the probe
    ends diverged as "unstable iterate".  A warm start is a subsolution, so
    the argument covers it.  Neither an Anderson attempt nor the
    certificate's sweep feeds this test.

    The record's ``certificate`` holds eps, or for an unstable iterate the
    bound min_i delta_(k+1,i) / delta_(k,i), nan for any other probe, and
    ``iterations`` counts every sweep of the probe: plain ones, those of an
    Anderson attempt, failed or not, the certificate's, those from u_A and,
    for a converged probe, the consistency sweep that builds (u, w).
    """
    if not (math.isfinite(lam_init) and lam_init > 0.0):
        raise ParameterError(f"lam_init must be a positive finite number, got {lam_init}")
    iterate = _monotone_iteration(spec, grid, controls or IterationControls())
    records: list[LambdaRecord] = []
    undecided: list[float] = []
    lo = hi = profile_lo = None  # profile_lo is the last converged probe's: lo's
    lam, midpoints = lam_init, 0
    while True:
        out, record = iterate(lam)
        records.append(record)
        if record.converged:
            lo, profile_lo = lam, out
        elif record.reason in UNDECIDED:
            undecided.append(lam)
        else:
            hi = lam
        hole = [x for x in undecided if (lo is None or lo < x) and (hi is None or x < hi)]
        if hole:
            a, b = min(hole), max(hole)
            step = max(0.25 * tol_lambda * b, b - a, 4 * math.ulp(b))
            if hi is None or hi > b + step:
                lam = b + step
            elif lo is None or lo < a - step:
                lam = a - step
            else:
                break
        elif hi is None:
            lam = 2.0 * lo
        elif lo is None:
            lam = 0.5 * hi
        elif midpoints >= max_bisect or hi - lo <= tol_lambda * lo or hi - lo <= 8 * math.ulp(hi):
            break
        else:
            lam, midpoints = 0.5 * (lo + hi), midpoints + 1
        why = f"; undecided probes at lambda = {undecided}" if undecided else ""
        if hi is None and lam > lam_cap:
            raise BracketingError(
                f"no divergence found below the cap {lam_cap:g}"
                + (why or "; the reaction appears effectively sublinear on this range")
            )
        if lo is None and lam < 1e-12 * lam_init:
            raise BracketingError(
                "no convergent parameter found" + (why or "; check f(0) > 0 and the grid")
            )

    ordered = tuple(sorted(records, key=lambda rec: rec.lam))
    return ContinuationResult(
        lambda_lo=lo, lambda_hi=hi, records=ordered, profile_lo=profile_lo
    )


def extremal_profile(result: ContinuationResult) -> RadialProfile:
    """Minimal solution at the largest convergent parameter of the bracket;
    an approximation of the limiting solution, tagged only by lambda_lo."""
    if result.profile_lo is None:
        raise ParameterError("continuation result carries no convergent profile")
    return result.profile_lo


# ---------------------------------------------------------------------------
# bifurcation curve
# ---------------------------------------------------------------------------


def _scaled_first_zero(spec: ProblemSpec, m_val: float, grid: RadialGrid):
    """(log S, RK4 steps) for the lambda = 1 problem -Delta_p v = f(v),
    v(0) = M, with S the first zero of v.  log S is None when f is not
    positive on [0, M] (checked at 0, M and the table nodes between), the
    startup flux underflows, the integration turns non-finite, or S passes
    the comparison bound S_max^p = n (pM/(p-1))^(p-1) / min_[0,M] f.

    The startup series starts at r_min, or further in where its correction
    M - v(r) = (p-1)/p (f(M)/n)^(1/(p-1)) r^(p/(p-1)) is 1e-10 M when that
    correction at r_min is larger: the length scale of v shrinks as M grows
    (like e^(-M/2) for e^v, p = 2), and a start at r_min would then lie
    outside the series' range or past S itself.

    Steps of h = grid.dt/2 in t = log r (t += h), stages inline in the loop
    here, run until the slope at the loop's top, the next step's stage 1,
    predicts u <= 0; one RK4 step in u, down to 0, then gives log S.  f is
    extended by f(0) below 0, where v never goes, by the clamp inside
    ``f.scalar_value(0.0)``: it runs only on [0, M]."""
    n, p, f = spec.n, spec.p, spec.nonlinearity
    nodes = [x for x in f.t if 0.0 < x < m_val] if isinstance(f, Tabulated) else []
    f_min = float(np.min(f.value(np.asarray([0.0, m_val] + nodes))))
    if not f_min > 0.0:
        return None, 0
    t_max = (math.log(n / f_min) + (p - 1.0) * math.log(p * m_val / (p - 1.0))) / p
    g = f.scalar_value(0.0)
    h = float(grid.dt) / 2
    q, m, h2, h6 = 1.0 / (p - 1.0), 1.0 - n, h / 2, h / 6
    log, exp, copysign = math.log, math.exp, math.copysign

    def rhs_in_u(u_, t_, w_):
        du = copysign(exp(q * (log(abs(w_)) + m * t_) + t_), w_) if w_ != 0.0 else 0.0
        dw = -exp(n * t_) * g(u_)
        return 1.0 / du, dw / du

    t, r0 = float(grid.t[0]), grid.r_min
    log_r = _series_start(g(m_val), m_val, n, p)
    if log_r < t:
        t, r0 = log_r, math.exp(log_r)
    u, w = _startup_series(g, m_val, n, p, r0)
    if w == 0.0:
        return None, 0
    steps = 0
    try:
        e = exp(n * t)
        while True:
            du = copysign(exp(q * (log(abs(w)) + m * t) + t), w) if w != 0.0 else 0.0
            if not u + h * du > 0.0:  # also ends on a nan or infinite state
                break
            if t > t_max:
                return None, steps
            dw1 = -e * g(u)
            xm, w2 = t + h2, w + h2 * dw1
            mxm = m * xm
            du2 = copysign(exp(q * (log(abs(w2)) + mxm) + xm), w2) if w2 != 0.0 else 0.0
            em = exp(n * xm)
            dw2 = -em * g(u + h2 * du)
            w3 = w + h2 * dw2
            du3 = copysign(exp(q * (log(abs(w3)) + mxm) + xm), w3) if w3 != 0.0 else 0.0
            dw3 = -em * g(u + h2 * du2)
            t, w4 = t + h, w + h * dw3
            du4 = copysign(exp(q * (log(abs(w4)) + m * t) + t), w4) if w4 != 0.0 else 0.0
            e = exp(n * t)
            dw4 = -e * g(u + h * du3)
            u += h6 * (du + 2.0 * du2 + 2.0 * du3 + du4)
            w += h6 * (dw1 + 2.0 * dw2 + 2.0 * dw3 + dw4)
            steps += 1
        log_s, w = _rk4_step(rhs_in_u, u, t, w, -u)
    except ArithmeticError:  # overflow, or a zero slope in the step in u
        return None, steps
    finite = math.isfinite(log_s) and math.isfinite(w)
    return (log_s if finite else None), steps + 1


def bifurcation_curve(
    spec: ProblemSpec, center_values, grid: RadialGrid
) -> list[BifurcationPoint]:
    """Parameter-versus-center-value curve, lambda(M) = S^p from one scaled
    integration per M (see the module docstring).  ``boundary_residual`` is
    |u(1)| of the fixed-grid ``shoot`` at that lambda, inf when that shoot
    leaves the reaction's domain or blows up.  A center value whose
    integration fails is recorded with lambda = nan, not raised."""
    _check_solver_dimension(spec.n)
    ms = [float(m) for m in center_values]
    if any(m <= 0 for m in ms) or any(b >= a for a, b in zip(ms[1:], ms[:-1])):
        raise ParameterError("center values must be positive and increasing")
    points: list[BifurcationPoint] = []
    for m_val in ms:
        log_s, steps = _scaled_first_zero(spec, m_val, grid)
        if log_s is None:
            points.append(BifurcationPoint(m_val, math.nan, math.inf, False, steps))
            continue
        lam = math.exp(spec.p * log_s)
        scaled = ProblemSpec(spec.n, spec.p, spec.nonlinearity.with_scale(lam))
        try:
            run = shoot(scaled, m_val, grid)
            residual = abs(run.boundary_value)
        except (BlowUpError, EvaluationError):
            residual = math.inf
        points.append(BifurcationPoint(m_val, lam, residual, True, steps))
    return points
