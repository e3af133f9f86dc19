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
    """``shoot``'s start node k0 and the startup series there, then per cell
    two ``reference_rk4_step`` calls from t_k and t_k + dt/2, the guard after
    each; ``seed`` = (k, (u, w)) starts from node k (k < 0: -k nodes of
    spacing dt inward of r_min) in state (u, w) instead.  Returns the profile
    on ``grid``, the startup series at the nodes the start skips, and u(1),
    or raises where ``shoot`` gives inf.  Appends the exit it takes to
    ``exits``."""
    note = exits.append if exits is not None else lambda exit_: None
    n, p, f = spec.n, spec.p, spec.nonlinearity
    g = f.scalar_value()
    t, dt = grid.t.tolist(), float(grid.dt)
    h = dt / 2
    k0, state = seed if seed is not None else (0, None)
    g_m = g(center_value) if seed is None and center_value > 0 else 0.0
    if g_m > 0:
        k0 = min(math.floor((solver._series_start(g_m, center_value, n, p) - t[0]) / dt), len(t) - 2)
    t_cells = [t[0] + dt * k for k in range(k0, 0)] + t[max(k0, 0):-1]
    r0 = math.exp(t_cells[0]) if k0 < 0 else float(grid.r[k0])
    u, w = state if state is not None else solver._startup_series(g(center_value), center_value, n, p, r0)
    rhs = reference_flux_rhs(n, p, f.scalar_value(-math.inf))
    skipped = [solver._startup_series(g(center_value), center_value, n, p, r) for r in grid.r[: max(k0, 0)].tolist()]
    nodes = skipped + [(u, w)]
    try:
        for tk in t_cells:
            for substep, t0 in enumerate((tk, tk + h), 1):
                u, w = reference_rk4_step(rhs, t0, u, w, h)
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
    u_nodes, w_nodes = map(np.array, zip(*nodes[max(-k0, 0):]))
    profile = RadialProfile(grid=grid, n=n, p=p, u=u_nodes, w=np.minimum(w_nodes, 0.0), check=False)
    return Shot(profile, float(u_nodes[-1]))


def reference_certificate(spec, center_value, grid, **kwargs):
    """|u(1)| of ``reference_shoot``, or inf where it raises: what
    ``solver.shoot`` must return."""
    try:
        return abs(reference_shoot(spec, center_value, grid, **kwargs).boundary_value)
    except (ArithmeticError, ValueError):
        return math.inf
