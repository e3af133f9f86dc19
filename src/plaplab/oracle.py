"""Closed-form singular solutions used as ground truth.

Two families solve -div(|grad u|^(p-2) grad u) = g(u) on the punctured unit
ball with u(1) = 0 and u_r < 0:

  * exponential reaction g(u) = lam * e^u:
        u(r) = -p log r,            lam = p^(p-1) (n - p)        (n > p)
  * power reaction g(u) = lam * (1+u)^m with m > p-1:
        u(r) = r^(-gamma) - 1,      gamma = p / (m - (p-1)),
        lam = gamma^(p-1) (n - m gamma)                          (lam > 0)

Both are sampled onto radial grids for the discrete machinery, and the flux
form of the equation gives a scale-free residual for any profile.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    Exponential,
    Nonlinearity,
    ParameterError,
    Power,
    RadialGrid,
    RadialProfile,
    _check_np,
    derivative_log_uniform,
)


@dataclass(frozen=True)
class ExactSolution:
    """Closed-form profile with derivative access and its reaction term."""

    kind: str  # "exponential-singular" or "power-singular"
    n: float
    p: float
    lambda_star: float
    m: float | None = None

    @property
    def singularity_exponent(self) -> float:
        """Power-law exponent gamma with u ~ r^(-gamma); 0 for the
        logarithmic (exponential-reaction) solution."""
        if self.kind == "exponential-singular":
            return 0.0
        return self.p / (self.m - (self.p - 1.0))

    def u_at(self, r):
        r = np.asarray(r, dtype=float)
        if self.kind == "exponential-singular":
            return -self.p * np.log(r)
        return r ** (-self.singularity_exponent) - 1.0

    def u_r_at(self, r):
        r = np.asarray(r, dtype=float)
        if self.kind == "exponential-singular":
            return -self.p / r
        g = self.singularity_exponent
        return -g * r ** (-g - 1.0)

    def u_rr_at(self, r):
        r = np.asarray(r, dtype=float)
        if self.kind == "exponential-singular":
            return self.p / r**2
        g = self.singularity_exponent
        return g * (g + 1.0) * r ** (-g - 2.0)

    def nonlinearity(self) -> Nonlinearity:
        """g with the solution's own parameter folded in."""
        if self.kind == "exponential-singular":
            return Exponential(self.lambda_star)
        return Power(self.m, self.lambda_star)

    def g_prime(self):
        nl = self.nonlinearity()
        return nl.derivative

    def sample(self, grid: RadialGrid) -> RadialProfile:
        r = grid.r
        u = self.u_at(r)
        u_r = self.u_r_at(r)
        w = -(r ** (self.n - 1.0)) * np.abs(u_r) ** (self.p - 1.0)
        return RadialProfile(grid=grid, n=self.n, p=self.p, u=u, w=w)


def exact_exponential(n: float, p: float) -> ExactSolution:
    _check_np(None, p)
    if not (n > p):
        raise ParameterError(
            f"the exponential-reaction singular solution needs n > p, got n={n}, p={p}"
        )
    lam = p ** (p - 1.0) * (n - p)
    return ExactSolution(kind="exponential-singular", n=n, p=p, lambda_star=lam)


def exact_power(n: float, p: float, m: float) -> ExactSolution:
    _check_np(None, p)
    if not (m > p - 1.0):
        raise ParameterError(f"power reaction needs m > p-1, got m={m}, p={p}")
    gamma = p / (m - (p - 1.0))
    lam = gamma ** (p - 1.0) * (n - m * gamma)
    if not (lam > 0.0):
        raise ParameterError(
            f"parameter would be nonpositive (n={n} <= m*gamma={m * gamma:.6g})"
        )
    return ExactSolution(kind="power-singular", n=n, p=p, lambda_star=lam, m=m)


def ode_residual(profile: RadialProfile, g: Nonlinearity) -> float:
    """Max-norm defect of the flux form w' + r^(n-1) g(u) = 0, normalized by
    the largest source term.

    w is differentiated with sixth-order stencils on the log-uniform grid;
    the max runs over nodes with a full centered stencil.
    """
    grid = profile.grid
    dwdt = derivative_log_uniform(profile.w, grid.dt)
    source = grid.r ** (profile.n - 1.0) * np.asarray(
        g.value(profile.u), dtype=float
    )
    res = dwdt / grid.r + source
    interior = slice(3, grid.size - 3)
    denom = float(np.max(np.abs(source[interior])))
    worst = float(np.max(np.abs(res[interior])))
    if denom == 0.0:
        return 0.0 if worst == 0.0 else math.inf
    return worst / denom
