"""The fixed-grid shoot as it stepped before its loop took the RK4 stages in,
over the generic right-hand side and step, keeping the whole trajectory.

``solver.shoot`` returns only the certificate |u(1)|; tests that need the
profile on the grid, or the exit a trajectory takes, read it from
``reference_shoot`` here, and ``tests/test_rk4_kernel.py`` checks that the
two agree bit for bit.
"""

import math
from typing import NamedTuple

import numpy as np

from plaplab import EvaluationError, RadialProfile
from plaplab import solver


class BlowUpError(ArithmeticError):
    """The trajectory passed ``solver.SHOOT_GUARD`` or turned non-finite."""


class Shot(NamedTuple):
    profile: RadialProfile
    boundary_value: float


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


def reference_shoot(spec, center_value, grid, *, seed=None, exits=None):
    """``shoot``'s start, then per cell two ``reference_rk4_step`` calls from
    t_k and t_k + dt/2, the guard after each; (u, w) = ``seed`` at r_min
    replaces the start.  Returns the profile on ``grid`` and u(1), or raises
    where ``shoot`` gives inf.  Appends the exit it takes to ``exits``."""
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
                if not (math.isfinite(u) and math.isfinite(w)) or abs(u) > solver.SHOOT_GUARD:
                    note(f"guard on substep {substep}")
                    raise BlowUpError(f"|u| exceeded {solver.SHOOT_GUARD:g} at r = {math.exp(t0):.3e}")
            nodes.append((u, w))
    except OverflowError:
        note("overflow")
        raise
    except EvaluationError:
        note("outside the table")
        raise
    note("r = 1")
    u_nodes, w_nodes = map(np.array, zip(*nodes[lead:]))
    profile = RadialProfile(grid=grid, n=n, p=p, u=u_nodes, w=np.minimum(w_nodes, 0.0), check=False)
    return Shot(profile, float(u_nodes[-1]))


def reference_certificate(spec, center_value, grid, **kwargs):
    """|u(1)| of ``reference_shoot``, or inf where it raises: what
    ``solver.shoot`` must return."""
    try:
        return abs(reference_shoot(spec, center_value, grid, **kwargs).boundary_value)
    except (ArithmeticError, EvaluationError):
        return math.inf
