"""Numerical solution machinery for the radial reaction problem.

All integrations work in the flux variable w = r^(n-1)|u_r|^(p-2) u_r, which
turns the equation into the non-degenerate first-order system

    u' = sgn(w) (|w| r^(1-n))^(1/(p-1)),      w' = -r^(n-1) g(u),

avoiding the coefficient |u_r|^(p-2) that is singular (p < 2) or degenerate
(p > 2) where u_r vanishes.  Each shooting route takes its classical RK4
steps in one loop, with the four stages written out in the loop body, and
starts from the startup series where that is good to 1e-8 M
(``_series_start``), not at r_min.

Three routes to solutions:

  * ``bifurcation_curve`` uses the scaling of the equation: if v solves the
    lambda = 1 problem with v(0) = M and first zero S, then u(r) = v(S r)
    solves the lambda problem with lambda(M) = S^p, so one integration to
    the first zero per center value gives the curve; ``shoot`` certifies
    each point with |u(1)| of a fixed-grid integration from u(0) = M;
  * ``minimal_iterate`` runs the monotone iteration from u = 0, inverting
    the radial p-Laplacian by nested quadrature; iterates increase
    pointwise, and the limit is the minimal solution when one exists.  Its
    sweeps write into the work arrays of one ``_SweepKernel`` per search.
    On a convex reaction, once the sweeps contract at a settled rate, Anderson
    mixing may finish the iteration; its answer counts only when one more
    sweep certifies a supersolution just above it.  Where f^(1/max(1, p-1))
    is convex, and with it the sweep map, a step that grows at every node
    certifies that no minimal solution exists, and the probe stops there as
    an "unstable iterate"; while the steps shrink ever more slowly, the
    iterate leaps ahead by the distance that convexity proves it still has
    to climb;
  * ``lambda_star_estimate`` bisects the parameter between convergent and
    divergent iterations and reports a bracket for the extremal parameter,
    never a point value.  Each probe starts from the highest start known to
    lie below the minimal solution there: a lower probe's u scaled by the
    homogeneity of the sweep in lambda or, for p <= 2 and a convex
    reaction, where the minimal branch is convex in lambda, the chord
    through the last two converged probes.
"""

from __future__ import annotations

import math
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
    _CellSums,
    make_rule,
)

#: flux scaling r^(n-1) underflows double precision headroom past this
SOLVER_MAX_DIMENSION = 30.0

#: |u| past which ``shoot`` stops and certifies nothing (residual inf)
SHOOT_GUARD = 1e6

#: Fold-ghost stop of the monotone iteration.  Near a saddle-node the sweeps
#: pass a bottleneck where the sup-norm step falls like k^-2, so with
#: rho_k = delta_k / delta_(k-1) the product k (1 - rho_k) tends to 2; on a
#: convergent probe 1 - rho_k levels off at the linear rate and the product
#: climbs, on a divergent one rho_k passes 1 and it turns negative.  From
#: sweep FOLD_GHOST_SWEEPS on, a probe with 0 < k (1 - rho_k) < FOLD_GHOST_RATE
#: stops as "fold ghost", which leaves it undecided and never decides it.
#: Such a record keeps nan as its certificate.
#:
#: A search with a tolerance (``lambda_star_estimate``) stops a ghost
#: earlier, where the saddle-node law puts the fold within a quarter of its
#: hole step; ``minimal_iterate`` has none and keeps only the stop above.
#: On a probe with the fold signature whose Anderson answer u_A fails its
#: certificate, power steps on sweep differences (T(u_A + FOLD_TAU v) -
#: T(u_A)) / FOLD_TAU from the last plain step give rho = rho(T') at u_A once
#: |rho_j - rho_(j-1)| < ACCEL_SETTLE (1 - rho_j), within ACCEL_MAX_SWEEPS
#: steps (7 at the disk's lambda = 2).  At a saddle-node (1 - rho)^2 is
#: proportional to lambda_f - lambda (Crandall & Rabinowitz, ARMA 58
#: (1975)), so through the highest converged probe below, lambda_c with
#: contraction rho_c, the fold lies about (1 - rho)^2 / C past lambda, with
#: C = ((1 - rho_c)^2 - (1 - rho)^2) / (lambda - lambda_c).  Below
#: tol_lambda lambda / 16 the probe stops as "fold ghost" with contraction
#: rho and certificate the relative distance |lambda_f - lambda| / lambda:
#: an estimate, never a bracket end.
FOLD_GHOST_SWEEPS = 500
FOLD_GHOST_RATE = 3.0
FOLD_TAU = 1e-6

#: probe outcomes that neither converged nor diverged; never a bracket end
UNDECIDED = ("iteration cap", "fold ghost")

#: The quadrature's cumulative weights are not all positive, so a sweep may
#: lower u by rounding: up to ORDER_SLACK (1 + sup u) passes, more raises.
ORDER_SLACK = 1e-12

#: Certified divergence.  The sweep map T(u)_i = sum_j D_ij (r_j^(1-n) lambda
#: F_j)^q, F_j = sum_l C_jl f(u_l), is order preserving, and convex wherever
#: f^(1/a) is, a = max(1, p - 1) (``convex_root``): F_j^(1/a) is a weighted
#: l_a norm of the convex f(u_l)^(1/a), and F_j^q = (F_j^(1/a))^(a q) with
#: a q >= 1 (Boyd & Vandenberghe, Convex Optimization (2004), 3.2).  Then
#: delta_(j+1) <= T'(u_j) delta_j and delta_(j+2) >= T'(u_j) delta_(j+1), so
#: with T' >= 0, delta_(j+1) >= mu delta_j implies delta_(j+2) >= mu
#: delta_(j+1), for any mu.  A plain step with min_i delta_(k+1,i) /
#: delta_(k,i) > 1 + UNSTABLE_MARGIN over every node but r = 1, where each
#: delta_(k,i) > ORDER_SLACK (1 + sup u), makes every later step grow by that
#: factor, so no fixed point lies above u_k: no minimal solution exists, and
#: the probe stops as "unstable iterate".  T' >= 0 although each cumulative
#: sum has negative weights (see ORDER_SLACK) is checked, not proved: every
#: entry of D diag(w) C off the r = 1 row is at least 0.3 of the same product
#: with |D| and |C|, with w = r^(1-n) at p = 2 on the default grid and on
#: 1e-6/400 for the dimensions README lists, and with w = q (r^(1-n) F)^(q-1)
#: r^(1-n) at p = 3 at the stopped iterates of e^u (n = 5) and (1+u)^3
#: (n = 3), at least 0.34 on the default grid and 0.38 on 1e-6/400; and at
#: the stops of its cross-check searches.  Elsewhere the stop rests on the
#: margin absorbing any small negative part.
#:
#: Certified leaps.  With mu = m = min_i delta_(k+1,i) / delta_(k,i) in
#: (0, 1) the same chain gives delta_(j+1) >= m delta_j for every later step,
#: so u*(lambda) - u_(k+1) >= m / (1 - m) delta_(k+1): while rho_k >
#: rho_(k-1), the iterate leaps there with m shrunk to m (1 -
#: UNSTABLE_MARGIN), the stop's margin (see lambda_star_estimate).
#: UNSTABLE_MARGIN = math.inf switches the stop and the leaps off.
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


class BracketingError(RuntimeError):
    """No divergent (or no convergent) parameter found; carries a diagnosis."""


@dataclass(frozen=True)
class IterationControls:
    tol_abs: float = 1e-11
    tol_rel: float = 1e-10
    u_max: float = 1e6
    k_max: int = 10000


@dataclass(frozen=True)
class LambdaRecord:
    lam: float
    converged: bool
    iterations: int
    sup_norm: float
    w1p_norm: float
    f_l1_norm: float
    reason: str  # "converged", or why the probe diverged or stayed undecided
    # rho_k of the last plain sweep; nan before two sweeps, and where two
    # have not followed the probe's last leap, rho_k before that leap
    contraction: float = math.nan
    # eps of the accepted supersolution u_A + eps phi (sqrt(delta_A), or more
    # to clear the order slack, at most ACCEL_EPS_CAP); for an "unstable
    # iterate" the growth bound min_i delta_(k+1,i) / delta_(k,i), by which
    # every later step grows (see UNSTABLE_MARGIN); for a "fold ghost" stopped
    # by the saddle-node law the estimated relative fold distance
    # |lambda_f - lambda| / lambda (its contraction is then rho(T') at u_A;
    # see FOLD_GHOST_SWEEPS); nan for every other probe
    certificate: float = math.nan
    # where the probe's last plain sweeps started: "zero", "scaled" (a lower
    # probe's u times (lambda/lambda')^(1/(p-1))) or "chord" (see
    # lambda_star_estimate)
    start: str = "zero"


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
    # whether the bracket passed the search's width test; a hole of
    # undecided probes, or max_bisect, can end a search short of it
    tolerance_reached: bool


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


def _startup_series(g_m: float, center_value: float, n: float, p: float, r_min: float):
    """(u, w) at r_min from the startup series in ``shoot``'s docstring."""
    q = 1.0 / (p - 1.0)
    u0 = center_value - math.copysign(
        (p - 1.0) / p * (abs(g_m) / n) ** q * r_min ** (p / (p - 1.0)), g_m
    )
    return u0, -r_min**n * g_m / n


def _series_start(g_m: float, m_val: float, n: float, p: float) -> float:
    """log of the radius where the startup series' correction
    M - u(r) = (p-1)/p (g(M)/n)^(1/(p-1)) r^(p/(p-1)) is 1e-8 M: both
    shooting routes start there.  Raises FloatingPointError, which both
    routes take as a failed integration, when 1e-8 M p/(p-1) or g(M)/n
    underflows to 0, as it does for M below about 1e-316."""
    scale, flux = 1e-8 * m_val * p / (p - 1.0), g_m / n
    if scale == 0.0 or flux == 0.0:
        raise FloatingPointError("the startup series' start radius underflows")
    return (p - 1.0) / p * (math.log(scale) - math.log(flux) / (p - 1.0))


def shoot(spec: ProblemSpec, center_value: float, grid: RadialGrid) -> float:
    """|u(1)| of the fixed-grid integration outward from u(0) = M: the
    certificate of a ``bifurcation_curve`` point.

    The startup series u(r) ~ M - (p-1)/p (g(M)/n)^(1/(p-1)) r^(p/(p-1)),
    w(r) ~ -r^n g(M)/n starts the integration at node k0 = floor((t_s -
    t_0)/dt), the last node of spacing dt at or inward of t_s =
    ``_series_start``, where the series' correction is 1e-8 M.  For k0 > 0
    the first k0 grid nodes are skipped (the last cell always runs); for
    k0 < 0 the integration first crosses -k0 cells laid inward of r_min.
    With M <= 0 or g(M) <= 0 it starts at r_min.  g(M) is read once, first.
    Each grid cell takes two RK4 steps on ``f.scalar_value(-inf)``, whose
    closure holds the clamp: below its table a ``Tabulated`` reaction takes
    its first knot's value (RK4 stages dip below u = 0 near a zero at r = 1),
    but M must lie inside.  The loop here takes the steps, stages inline,
    from t_k and t_k + dt/2 of each cell, restarting e^(n t) at t_k.  The
    result is inf once a step ends non-finite or with |u| > SHOOT_GUARD, or
    when g raises (an overflow, or u outside the reaction's domain)."""
    n, p, f = spec.n, spec.p, spec.nonlinearity
    log, exp, copysign, inf = math.log, math.exp, math.copysign, math.inf
    try:
        g_m = f.scalar_value()(center_value)
        t, dt = grid.t.tolist(), float(grid.dt)
        k0 = 0
        if center_value > 0 and g_m > 0:
            k0 = min(math.floor((_series_start(g_m, center_value, n, p) - t[0]) / dt), len(t) - 2)
        t_cells = [t[0] + dt * k for k in range(k0, 0)] + t[max(k0, 0):-1]
        r0 = exp(t_cells[0]) if k0 < 0 else float(grid.r[k0])
        u, w = _startup_series(g_m, center_value, n, p, r0)
        dt /= 2
        q, m, h2, h6 = 1.0 / (p - 1.0), 1.0 - n, dt / 2, dt / 6
        g = f.scalar_value(-inf)
        u_lim = SHOOT_GUARD
        for tk in t_cells:
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
                    return inf
    except (ArithmeticError, ValueError):
        return inf
    return abs(u)


# ---------------------------------------------------------------------------
# monotone iteration
# ---------------------------------------------------------------------------


#: the grid of the last sweep kernel and its rules, by n: searches on one
#: grid object, such as a sweep's points, share them.  One slot, so no grid
#: outlives the next search on another, and no rule refers back to a cache
_RULES: list = [None, {}]


def _grid_rule(grid: RadialGrid, n: float) -> QuadratureRule:
    """``make_rule(grid, n)``, built once while ``grid`` is the last grid."""
    if _RULES[0] is not grid:
        _RULES[:] = [grid, {}]
    rules = _RULES[1]
    if n not in rules:
        rules[n] = make_rule(grid, n)
    return rules[n]


class _SweepKernel:
    """What every sweep of one lambda* search reuses: the source rule (weight
    r^(n-1)) and the unweighted outer rule, shared with every search on the
    same grid (``_grid_rule``), each with its ``_CellSums`` over a work array,
    r^(1-n), q = 1/(p-1), and the work arrays themselves.

    A sweep allocates only the correlation inside each cumulative sum.  The
    next iterate alternates between the two ``u`` arrays, so a sweep never
    writes into the iterate it reads; the loop's step u_next - u alternates
    between the two ``diff`` arrays, so the last plain step stays readable."""

    def __init__(self, grid: RadialGrid, n: float, p: float):
        m = grid.size
        self.rule_src = _grid_rule(grid, n)
        self.rpow = grid.r ** (1.0 - n)
        self.q = 1.0 / (p - 1.0)
        self.h, self.F, self.slope = (np.empty(m) for _ in range(3))
        self.source = _CellSums(self.rule_src, self.h)
        self.outer = _CellSums(_grid_rule(grid, 1.0), self.slope)
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


def _spectral_radius(u, v, lam: float, f, kernel: _SweepKernel):
    """(sweeps, rho): power steps on sweep differences (T(u + FOLD_TAU v) -
    T(u)) / FOLD_TAU from v, for at most ACCEL_MAX_SWEEPS steps, until
    |rho_j - rho_(j-1)| < ACCEL_SETTLE (1 - rho_j) with rho_j < 1; rho is
    nan when they do not settle or a sweep leaves a table.  The first sweep,
    T(u), is copied out of ``kernel``'s arrays, which every sweep reuses."""
    v, sweeps, rho = v / float(np.max(v)), 1, math.nan
    try:
        base = _iteration_step(u, lam, f, kernel)[0].copy()
        while sweeps <= ACCEL_MAX_SWEEPS:
            sweeps += 1
            w = (_iteration_step(u + FOLD_TAU * v, lam, f, kernel)[0] - base) / FOLD_TAU
            rho_old, rho = rho, float(np.max(w))
            if abs(rho - rho_old) < ACCEL_SETTLE * (1.0 - rho):
                return sweeps, rho
            v = w / rho
    except EvaluationError:
        pass
    return sweeps, math.nan


def _growth_bound(step, last, floor: float) -> float:
    """min_i step_i / last_i over every node but r = 1, where both are 0, or
    nan when some last_i <= floor: a step at rounding level never votes.
    ``np.minimum.reduce`` skips ``np.min``'s dispatch, half of the call's
    time on 2000 nodes."""
    lead, least = last[:-1], np.minimum.reduce
    if not float(least(lead)) > floor:
        return math.nan
    return float(least(step[:-1] / lead))


def _leap(u, step, bound: float):
    """u + m / (1 - m) step with m = bound (1 - UNSTABLE_MARGIN): a
    subsolution at or below u*(lambda) when every later plain step is at
    least ``bound`` < 1 times the one before it (see
    ``lambda_star_estimate``).  The margin that the unstable-iterate stop
    keeps against small non-convex parts of the discrete map shortens the
    leap, by about 1% at bound = 1 - 1e-4."""
    m = bound * (1.0 - UNSTABLE_MARGIN)
    return u + m / (1.0 - m) * step


def _starts(lam: float, seeds, pair, kernel: _SweepKernel, chord: bool):
    """(label, u) of a probe's starts, highest first, each where it applies:
    the chord through the last converged u and the certified supersolution
    of the converged probe before it, raised to the scaled start where that
    lies higher, which also keeps it >= 0 near r = 1, where a table would
    raise (only with ``chord``: p <= 2 and f convex); the scaled start
    (lambda / lambda')^(1/(p-1)) u' from the nearest lower of ``seeds``;
    and u = 0.  ``pair`` holds (lambda, u, supersolution or None)
    of the last two converged probes."""
    out = [("zero", np.zeros(kernel.h.size))]
    lower = [seed for seed in seeds if seed[0] < lam]
    if lower:
        lam_s, u_s = max(lower, key=lambda seed: seed[0])
        scaled = (lam / lam_s) ** kernel.q * u_s
        out.insert(0, ("scaled", scaled))
        one, two = pair
        if chord and one is not None and one[2] is not None and one[0] < two[0] < lam:
            (lam_1, _, above), (lam_2, u_2, _) = one, two
            line = u_2 + (lam - lam_2) / (lam_2 - lam_1) * (u_2 - above)
            out.insert(0, ("chord", np.maximum(line, scaled)))
    return out


def _monotone_iteration(
    spec: ProblemSpec, grid: RadialGrid, controls: IterationControls, tol_lambda: float = 0.0
):
    """The monotone iteration as a function of lambda, returning (profile,
    LambdaRecord), with None for the profile of a probe that did not
    converge; one ``_SweepKernel`` serves every lambda it is called with,
    after the admission checks that every caller needs.  A search's
    ``tol_lambda`` > 0 lets a fold ghost stop by the saddle-node law (see
    FOLD_GHOST_SWEEPS); at 0 only the FOLD_GHOST_SWEEPS stop runs.

    A probe starts from the highest start known to lie below u*(lambda):
    the chord, else the scaled start, else u = 0, each tried only when the
    one before fails the first sweep's order check.  Those starts, the
    certified Anderson attempt, the leaps and what ``iterations`` counts are
    described in ``lambda_star_estimate``.  A returned profile owns its arrays; a
    converged u that rises in r means the grid is too coarse for order
    preservation."""
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
    # T is order preserving, and convex where f^(1/max(1, p-1)) is: the
    # unstable-iterate stop and the leaps rest on that, the chord start on
    # p <= 2 as well
    convex_map = f.convex_root(p)
    chord = convex_map and p <= 2.0
    seeds = []  # (lambda, u) of every converged probe and every undecided one
    pair = [None, None]  # (lambda, u, supersolution or None), last two converged
    rates = {}  # lambda: contraction of every converged probe

    def diverged(
        lam: float, k: int, sup: float, reason: str, rho: float, start: str, bound: float = math.nan
    ):
        return None, LambdaRecord(lam, False, k, sup, math.inf, math.inf, reason, rho, bound, start)

    def converged(
        lam: float, k: int, rho: float, u, start: str, eps: float = math.nan, residual: float = math.inf, above=None
    ):
        """The probe's end after k sweeps and the sweep that makes (u, w) an
        exactly consistent pair.  A plain iterate's step is close to the
        principal mode of T' and shrinks, so one sweep does.  An Anderson
        answer's residual is not: the steps from it may grow for a few sweeps
        before they shrink, and until then its error may far exceed a plain
        iterate's (22 times at n = 10, p = 2.5 next to lambda*).  So sweeps
        from it go on until a step passes the stopping test and is no larger
        than the step, or the residual, before it.  ``above`` is the
        certified supersolution u_A + eps phi, kept for the chord."""
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
        record = LambdaRecord(lam, True, k, float(np.max(profile.u)), w1p, f_l1, "converged", rho, eps, start)
        seeds.append((lam, profile.u))
        pair[:] = pair[1], (lam, profile.u, above)
        rates[lam] = rho
        return profile, record

    def iterate(lam: float):
        step_of, (diff, diff_alt) = _iteration_step, kernel.diff
        pending = _starts(lam, seeds, pair, kernel, chord)
        start, u = pending.pop(0)
        k = sweeps = 0  # plain sweeps since u's start; every sweep of the probe
        prev = rho = rho_old = math.nan  # delta and rho of the sweep before
        last = None  # the plain step of the sweep before
        # the growth that certifies an unstable iterate; inf where the
        # convexity argument fails (f^(1/max(1, p-1)) not convex)
        grows = 1.0 + UNSTABLE_MARGIN if convex_map else math.inf
        leaps = grows < math.inf  # the same argument bounds the leaps
        back = None  # u before a leap, until the leap's first sweep passes
        held = math.nan  # rho before the last leap, for a record without a newer one
        tried = not convex

        def contraction():
            return held if math.isnan(rho) else rho

        with np.errstate(over="ignore", invalid="ignore"):
            while k < k_max:
                k, sweeps = k + 1, sweeps + 1
                try:
                    u_next, F = step_of(u, lam, f, kernel)
                except EvaluationError:
                    # u lies below u*(lambda), so no minimal solution has
                    # values inside the table either
                    return diverged(lam, sweeps, float(sup_of(u)), "left the table", contraction(), start)
                sup = float(sup_of(u_next))
                step = subtract(u_next, u, out=diff_alt if last is diff else diff)
                drop = float(min_of(step))
                if not (isfinite(sup) and isfinite(drop)):
                    # a non-finite step is an unbounded multiple of the last
                    rho = math.inf if k > 1 else math.nan
                    return diverged(lam, sweeps, math.inf, "overflow", rho, start)
                delta = max(float(sup_of(step)), -drop)
                rho_old, rho = rho, (delta / prev if prev > 0.0 else math.nan)
                if drop < -ORDER_SLACK * (1.0 + sup):
                    if back is not None:
                        # the leap overshot u*(lambda): undo it, leap no more
                        u, back, k, leaps = back, None, k - 1, False
                        continue
                    if not pending or k > 1:
                        raise ConsistencyError(
                            "monotone iteration decreased somewhere; quadrature bug"
                        )
                    # the start is no subsolution at this lambda: one step down
                    (start, u), k, rho = pending.pop(0), 0, math.nan
                    continue
                back = None
                if sup > u_max:
                    return diverged(lam, sweeps, sup, "exceeded u_max", contraction(), start)
                u = u_next
                if delta < tol_abs + tol_rel * sup:
                    return converged(lam, sweeps, contraction(), u, start)
                # rho is nan until the second plain sweep since u's start or
                # leap; the sup-norm ratio bounds the nodewise one from above.
                # One growth bound serves the stop and, while rho rises, a leap
                bound = math.nan
                if rho > grows or (leaps and rho > rho_old):
                    bound = _growth_bound(step, last, ORDER_SLACK * (1.0 + sup))
                    if bound > grows:
                        return diverged(lam, sweeps, sup, "unstable iterate", rho, start, bound)
                if k >= FOLD_GHOST_SWEEPS and 0.0 < k * (1.0 - rho) < FOLD_GHOST_RATE:
                    seeds.append((lam, u.copy()))
                    return diverged(lam, sweeps, sup, "fold ghost", rho, start)
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
                            above = u_a + eps / delta * lift
                            if _supersolution(above, lam, f, kernel):
                                return converged(lam, sweeps, rho, u_a, start, eps, residual, above)
                            # the fold signature: stop once the saddle-node law
                            # puts the fold within a quarter of the hole step
                            lam_c = max((x for x in rates if x < lam), default=None)
                            if tol_lambda > 0.0 and lam_c is not None and 0.0 < k * (1.0 - rho) < FOLD_GHOST_RATE:
                                used, rate = _spectral_radius(u_a, lift, lam, f, kernel)
                                sweeps += used
                                # C (lambda_f - lambda) = (1 - rate)^2, and through
                                # lambda_c, C (lambda - lambda_c) = gap
                                near = (1.0 - rate) ** 2 * (lam - lam_c)
                                gap = (1.0 - rates[lam_c]) ** 2 - (1.0 - rate) ** 2
                                if 0.0 < near < gap * tol_lambda * lam / 16.0:
                                    seeds.append((lam, u))
                                    return diverged(lam, sweeps, sup, "fold ghost", rate, start, near / gap / lam)
                if leaps and rho > rho_old and 0.0 < bound < 1.0:
                    held, back, u = rho, u.copy(), _leap(u, step, bound)
                    prev, rho, last = math.nan, math.nan, None
                else:
                    prev, last = delta, step
        seeds.append((lam, u.copy()))
        return diverged(lam, sweeps, float(np.max(u)), "iteration cap", contraction(), start)

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
    "overflow", "unstable iterate" or "left the table"; it sets hi) or
    undecided ("iteration cap" or "fold ghost"), and an undecided probe is
    never a bracket end.  The undecided probes
    strictly inside (lo, hi) form a hole [a, b]; with
    step = max(tol_lambda b / 4, b - a, 4 ulp(b)) the next lam is b + step
    while hi is None or above it, else a - step while lo is None or below
    it, else the search stops; a bracket then left wider than tol_lambda has
    undecided probes inside.  Without a hole the next lam is 2 lo while
    there is no hi, hi / 2 while there is no lo, and otherwise the midpoint,
    until the bracket passes the width test, hi - lo <= tol_lambda lo or
    8 ulp(hi), or max_bisect midpoints have run; the result's
    ``tolerance_reached`` says whether its bracket passes that test.
    Every probe is recorded with its norms so the uniform-bound behavior of
    the minimal branch can be audited from the result alone.

    Every decision comes from plain sweeps started at or below the minimal
    solution u*(lambda), so a probe starts from the highest start known to
    lie there whenever u*(lambda) exists.  With q = 1/(p-1) a sweep is
    homogeneous, T_lambda = (lambda/lambda')^q T_lambda', and T is order
    preserving.  So for lambda' < lambda and c = (lambda/lambda')^q > 1 the
    scaled start c u', u' the profile or last plain iterate of the nearest
    lower probe, converged or undecided, is a subsolution:
    T_lambda(c u') = c T_lambda'(c u') >= c T_lambda'(u') >= c u'.  It lies
    below u*(lambda), because u*(lambda)/c is a supersolution at lambda',
    so u' <= u*(lambda') <= u*(lambda)/c.  For p <= 2 and a convex reaction
    the minimal branch is also convex in lambda (the chord start needs both,
    also where the unstable-iterate stop runs at p > 2): differentiating
    u = lambda^q T_1(u) twice gives (I - T')u'' = q(q-1) lambda^(q-2) T_1 +
    2q lambda^(q-1) T_1' u' + lambda^q T_1''[u', u'] >= 0 for q >= 1, and
    (I - T')^(-1) >= 0 on the minimal branch, where rho(T') < 1.  So for
    lambda_1 < lambda_2 < lambda the chord u_2 + (lambda - lambda_2) /
    (lambda_2 - lambda_1) (u_2 - U_1) through the last converged profile
    u_2 <= u*(lambda_2) and the certified supersolution U_1 = u_A + eps phi
    >= u*(lambda_1) of the converged probe before it lies below u*(lambda);
    it is used only when that probe carries one, raised to the scaled start
    where that lies higher.  As for the unstable-iterate stop, T' >= 0 is
    checked, not proved (see UNSTABLE_MARGIN).  The first sweep checks that
    a start is a subsolution: one that it lowers anywhere falls back one
    step, chord -> scaled -> u = 0, and u = 0 always is one.  The record's
    ``start`` names the start of the probe's last plain sweeps.  A sweep
    that evaluates a tabulated reaction outside its table ends the probe
    diverged, "left the table": like passing u_max, an iterate below
    u*(lambda) that leaves the table shows that no minimal solution has its
    values inside it.

    On a convex reaction (the
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
    sweeps resume where they stopped, so every divergent and capped outcome
    comes from plain sweeps.  A probe whose certificate fails while it shows
    the fold signature 0 < k (1 - rho_k) < FOLD_GHOST_RATE may stop first,
    as a fold ghost: power steps on sweep differences at u_A give rho(T'),
    and where the saddle-node law through the highest converged probe below
    puts the fold within tol_lambda lambda / 16, a quarter of the hole step,
    the probes a hole step away lie clear of it (see FOLD_GHOST_SWEEPS).  Like
    every ghost it stays undecided and seeds the next probe with its plain
    iterate, never with u_A, which may lie above u*(lambda).

    Where f^(1/max(1, p-1)) is convex, T is order preserving and convex (see
    UNSTABLE_MARGIN), so consecutive plain steps obey the growth chain:
    delta_(j+1) <= T'(u_j) delta_j and delta_(j+2) >= T'(u_j) delta_(j+1),
    so delta_(j+1) >= mu delta_j implies delta_(j+2) >= mu T'(u_j) delta_j
    >= mu delta_(j+1), for any mu, since T' >= 0.  From the second plain
    sweep since u's start, once rho_k > 1 + UNSTABLE_MARGIN, a step with
    delta_(k,i) > ORDER_SLACK (1 + sup) and delta_(k+1,i) / delta_(k,i) >
    mu = 1 + UNSTABLE_MARGIN at every node but r = 1 makes every later step
    at least mu times the one before, so the iterates grow without bound.  Iterates
    from a subsolution below a fixed point stay below it, so no fixed point
    lies above u_k, the minimal one included: the probe ends diverged as
    "unstable iterate".  A chord or scaled start is a subsolution below
    u*(lambda), so the argument covers it.  Neither an Anderson attempt nor
    the certificate's sweep feeds this test.

    The same chain bounds how far the iterate still has to climb, and the
    probe leaps there (Amann, SIAM Rev. 18 (1976)): with mu = m = min_i
    delta_(k+1,i) / delta_(k,i) in (0, 1), the growth bound above, every
    later step is at least m times the one before.  So
    u*(lambda) - u_(k+1) >= m / (1 - m) delta_(k+1), and
    v = u_(k+1) + m / (1 - m) delta_(k+1) is a subsolution,
    T(v) - v >= (1 + m / (1 - m)) delta_(k+2) - m / (1 - m) delta_(k+1) >= 0,
    at or below u*(lambda) where that exists: the iteration from v decides
    as the one from u_(k+1), and every argument above covers it.  The probe
    leaps to v only while rho_k > rho_(k-1), in the slow passage next to
    the fold; where rho_k has settled, the leaps would keep restarting the
    ratios that Anderson mixing waits for.  One growth bound per sweep
    serves the stop and the leap.  As the stop rests on its margin where
    T' >= 0 is checked rather than proved, the leap takes m (1 -
    UNSTABLE_MARGIN) for m, about 1% short at m = 1 - 1e-4.  After a leap the ratios restart: rho is
    nan until two plain sweeps follow, and a record that ends before then
    carries the rho before the leap.  k keeps counting plain sweeps, so
    Anderson mixing and both fold-ghost stops keep their triggers.  A leap
    whose first sweep lowers the iterate by more than ORDER_SLACK
    (1 + sup), which rounding can cause next to the fold, is undone: the
    probe goes on from the iterate before it and leaps no more.  Leaps run
    exactly where the unstable-iterate stop does.

    The record's ``certificate`` holds eps; for an unstable iterate the
    bound min_i delta_(k+1,i) / delta_(k,i); for a fold ghost stopped by the
    saddle-node law the estimated relative fold distance
    |lambda_f - lambda| / lambda, an estimate and never a bracket end, with
    rho(T') at u_A as its ``contraction``; nan for any other probe.
    ``iterations`` counts every sweep of the probe: plain ones, the first
    sweep from each rejected start and from an undone leap, those of an
    Anderson attempt, failed or not, the certificate's, T(u_A) and the power
    steps, those from u_A and, for a converged probe, the consistency sweep
    that builds (u, w).  A leap itself is no sweep.
    """
    if not (math.isfinite(lam_init) and lam_init > 0.0):
        raise ParameterError(f"lam_init must be a positive finite number, got {lam_init}")
    iterate = _monotone_iteration(spec, grid, controls or IterationControls(), tol_lambda)
    records: list[LambdaRecord] = []
    undecided: list[float] = []
    lo = hi = profile_lo = None  # profile_lo is the last converged probe's: lo's

    def narrow(lo, hi):  # the width test
        return hi - lo <= tol_lambda * lo or hi - lo <= 8 * math.ulp(hi)

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
        elif midpoints >= max_bisect or narrow(lo, hi):
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
        lambda_lo=lo, lambda_hi=hi, records=ordered, profile_lo=profile_lo,
        tolerance_reached=narrow(lo, hi),
    )


# ---------------------------------------------------------------------------
# bifurcation curve
# ---------------------------------------------------------------------------


def _scaled_first_zero(spec: ProblemSpec, m_val: float, grid: RadialGrid):
    """(log S, RK4 steps) for the lambda = 1 problem -Delta_p v = f(v),
    v(0) = M, with S the first zero of v.  log S is None when f is not
    positive on [0, M] (``f.minimum`` is exact: an end's for a monotone
    reaction, for a table the least of each cell's cubic at its ends and
    stationary points), the startup flux or start underflows, a value
    overflows, the integration turns non-finite, or the march or its last
    step in u passes the comparison bound S_max, with
    S_max^p = min(n (pM/(p-1))^(p-1) / min_[0,M] f, e^709.78) a double.

    The startup series starts at ``_series_start``, where its correction
    M - v(r) = (p-1)/p (f(M)/n)^(1/(p-1)) r^(p/(p-1)) is 1e-8 M, whatever
    r_min is: the length scale of v shrinks as M grows (like e^(-M/2) for
    e^v, p = 2), so a fixed start would lie outside the series' range or
    past S itself for large M, and spend steps where the series is exact
    for small M.  Of the grid only dt enters.

    Steps of h = grid.dt/2 in t = log r (t += h), stages inline in the loop
    here, run until the slope at the loop's top, the next step's stage 1,
    predicts u <= 0; one RK4 step in u, down to 0, then gives log S.  f is
    extended by f(0) below 0, where v never goes, by the clamp inside
    ``f.scalar_value(0.0)``: it runs only on [0, M]."""
    n, p, f = spec.n, spec.p, spec.nonlinearity
    g = f.scalar_value(0.0)
    h = float(grid.dt) / 2
    q, m, h2, h6 = 1.0 / (p - 1.0), 1.0 - n, h / 2, h / 6
    log, exp, copysign = math.log, math.exp, math.copysign

    def rhs_in_u(u_, t_, w_):
        du = copysign(exp(q * (log(abs(w_)) + m * t_) + t_), w_) if w_ != 0.0 else 0.0
        dw = -exp(n * t_) * g(u_)
        return 1.0 / du, dw / du

    steps = 0
    try:
        g_m = g(m_val)
        f_min = f.minimum(0.0, m_val)
        if not f_min > 0.0:
            return None, 0
        t_max = min(math.log(n / f_min) + (p - 1.0) * math.log(p * m_val / (p - 1.0)), 709.78) / p
        t = _series_start(g_m, m_val, n, p)
        u, w = _startup_series(g_m, m_val, n, p, exp(t))
        if w == 0.0:
            return None, 0
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
    except ArithmeticError:  # overflow, an underflowing start, or a zero slope in u
        return None, steps
    found = math.isfinite(log_s) and math.isfinite(w) and log_s <= t_max
    return (log_s if found else None), steps + 1


def bifurcation_curve(
    spec: ProblemSpec, center_values, grid: RadialGrid
) -> list[BifurcationPoint]:
    """Parameter-versus-center-value curve, lambda(M) = S^p from one scaled
    integration per M (see the module docstring); ``boundary_residual`` is
    ``shoot``'s certificate at that lambda.  A center value whose integration
    fails, where f(M) or the startup series overflows, or whose series start
    underflows (M below about 1e-316), is recorded with lambda = nan."""
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
        points.append(BifurcationPoint(m_val, lam, shoot(scaled, m_val, grid), True, steps))
    return points
