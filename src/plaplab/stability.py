"""Second-variation quadratic form, discrete spectra, and the weighted
inequalities it implies.

A radially decreasing solution is semi-stable when

    Q(xi) = int { (p-1) |u_r|^(p-2) xi_r^2 - g'(u) xi^2 }  >= 0

for every radial xi compactly supported away from the origin and boundary.
On solutions, the substitution xi = u_r eta removes the reaction term:

    Q(u_r eta) = int |u_r|^p { (p-1) eta_r^2 - (n-1) eta^2 / r^2 },

so the right-hand side needs no access to g at all, and replacing eta by
r eta turns semi-stability into the constant-free inequality

    (n-1) int |u_r|^p eta^2  <=  (p-1) int |u_r|^p ((r eta)_r)^2.

The discrete verdict comes from a P1 pencil on [r_trunc, 1]: truncation
replaces "compact support away from 0" (test functions there exclude the
origin anyway), and the pencil is exactly tridiagonal.  Laguerre steps on
det(T - mu M) rise to the minimal eigenvalue from a Sturm-certified lower
end, and a second Sturm count certifies the bracket they close.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    ConsistencyError,
    ParameterError,
    RadialProfile,
    _jsonable,
    make_grid,
)

# 4-point Gauss-Legendre rule on [-1, 1]: the reprs of leggauss(4)
_GL4_NODES = np.array(
    [-0.8611363115940526, -0.33998104358485626, 0.33998104358485626, 0.8611363115940526]
)
_GL4_WEIGHTS = np.array(
    [0.34785484513745357, 0.6521451548625464, 0.6521451548625464, 0.34785484513745357]
)


# ---------------------------------------------------------------------------
# test function families
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PowerCutoff:
    """eta(r) = eps^(-alpha) - 1 for r <= eps, r^(-alpha) - 1 beyond;
    Lipschitz, vanishes at r = 1, constant (not zero) near the origin."""

    alpha: float
    eps: float

    def __post_init__(self):
        if not (0.0 < self.eps < 1.0):
            raise ParameterError(f"eps must lie in (0,1), got {self.eps}")
        if self.alpha <= 0.0:
            raise ParameterError(f"alpha must be positive, got {self.alpha}")

    support_lo = 0.0

    @property
    def kinks(self):
        return (self.eps,)

    def value(self, r):
        r = np.asarray(r, dtype=float)
        return np.where(r <= self.eps, self.eps**-self.alpha - 1.0, r**-self.alpha - 1.0)

    def derivative(self, r):
        r = np.asarray(r, dtype=float)
        return np.where(r <= self.eps, 0.0, -self.alpha * r ** (-self.alpha - 1.0))


@dataclass(frozen=True)
class SineModes:
    """sin(j pi log r / log r_trunc) on [r_trunc, 1], zero below."""

    mode: int
    r_trunc: float

    def __post_init__(self):
        if self.mode < 1:
            raise ParameterError("mode index must be at least 1")
        if not (0.0 < self.r_trunc < 1.0):
            raise ParameterError(f"r_trunc must lie in (0,1), got {self.r_trunc}")

    @property
    def support_lo(self):
        return self.r_trunc

    kinks = ()

    def _theta(self, r):
        return np.log(r) / math.log(self.r_trunc)

    def value(self, r):
        r = np.asarray(r, dtype=float)
        inside = (r >= self.r_trunc) & (r <= 1.0)
        return np.where(inside, np.sin(self.mode * math.pi * self._theta(r)), 0.0)

    def derivative(self, r):
        r = np.asarray(r, dtype=float)
        inside = (r >= self.r_trunc) & (r <= 1.0)
        scale = self.mode * math.pi / math.log(self.r_trunc)
        return np.where(
            inside, np.cos(self.mode * math.pi * self._theta(r)) * scale / r, 0.0
        )


@dataclass(frozen=True)
class RScaled:
    """The map eta -> r eta applied to an inner test function."""

    inner: object

    @property
    def support_lo(self):
        return self.inner.support_lo

    @property
    def kinks(self):
        return self.inner.kinks

    def value(self, r):
        r = np.asarray(r, dtype=float)
        return r * self.inner.value(r)

    def derivative(self, r):
        r = np.asarray(r, dtype=float)
        return self.inner.value(r) + r * self.inner.derivative(r)


# ---------------------------------------------------------------------------
# quadrature over test-function supports
# ---------------------------------------------------------------------------


def _gauss_points(bounds: np.ndarray, n: float):
    """4-point Gauss nodes/weights per cell, flattened; wide cells are
    subdivided so the r^n weight stays resolved."""
    a, b = bounds[:-1], bounds[1:]
    panels = 1 + ((n + 8.0) * (b - a) / 0.25).astype(int)
    # panel edges are k * step + a with the last one exactly b, as np.linspace
    # builds them, so the points do not depend on how cells are batched
    cell = np.repeat(np.arange(len(a)), panels)
    k = np.arange(len(cell)) - np.repeat(np.cumsum(panels) - panels, panels)
    step = ((b - a) / panels)[cell]
    lo = k * step + a[cell]
    hi = np.where(k + 1 == panels[cell], b[cell], (k + 1) * step + a[cell])
    mid = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    tg = (mid[:, None] + half[:, None] * _GL4_NODES).ravel()
    return tg, (half[:, None] * _GL4_WEIGHTS).ravel()


def _volume_points(bounds: np.ndarray, n: float):
    """Gauss radii and volume weights (r^n dt) of ``_gauss_points`` on the
    log-radius cell bounds."""
    tg, wg = _gauss_points(bounds, n)
    return np.exp(tg), wg * np.exp(n * tg)


def _support_lo(profile: RadialProfile, xi) -> float:
    """Where xi's support starts inside [r_min, 1]."""
    return max(xi.support_lo, profile.grid.r_min)


def _cut_points(profile: RadialProfile, family):
    """``_volume_points`` for integrals against the members of a family over
    their supports in [r_min, 1]: the profile's log cells from the lowest
    support start up, split at every member's support start and kink radii.
    The radii come out sorted, so each member's support is a trailing slice.
    Every integral against a test function samples here; ``q_apply`` and
    ``reaction_free_identity`` pass a family of one."""
    t = profile.grid.t
    starts = [_support_lo(profile, xi) for xi in family]
    lo = min(starts)
    cuts = [math.log(start) for start in starts]
    cuts += [math.log(kink) for xi in family for kink in xi.kinks if lo <= kink <= 1.0]
    bounds = np.unique(np.concatenate([t[t >= math.log(lo) - 1e-12], cuts]))
    return _volume_points(bounds, profile.n)


def _coefficients(profile: RadialProfile, g_prime, r: np.ndarray):
    """(u_r, (p-1)|u_r|^(p-2), g'(u)) at the radii r: the slope and the two
    coefficients of the second-variation form.  ParameterError where u_r or
    g'(u) is not finite, or where u_r = 0 with p < 2 (the coefficient
    |u_r|^(p-2) blows up there)."""
    p = profile.p
    ur = np.asarray(profile.u_r_at(r), dtype=float)
    gp = np.asarray(g_prime(np.asarray(profile.u_at(r), dtype=float)), dtype=float)
    if not (np.all(np.isfinite(ur)) and np.all(np.isfinite(gp))) or (
        p < 2.0 and np.any(np.abs(ur) < 1e-300)
    ):
        raise ParameterError(
            "second-variation coefficients are degenerate on the samples: "
            "u_r or g'(u) is not finite, or u_r = 0 with p < 2"
        )
    return ur, (p - 1.0) * np.abs(ur) ** (p - 2.0), gp


def q_apply(profile: RadialProfile, g_prime, xi) -> float:
    """Quadrature value of the second-variation form at the profile for one
    test function (values and derivatives supplied by the family), with a
    head term over [0, r_min] for families that do not vanish there."""
    n = profile.n
    rg, wvol = _cut_points(profile, [xi])
    _, coeff, gp = _coefficients(profile, g_prime, rg)
    xv = np.asarray(xi.value(rg), dtype=float)
    xd = np.asarray(xi.derivative(rg), dtype=float)
    value = float(np.dot(wvol, coeff * xd**2 - gp * xv**2))
    if xi.support_lo < profile.grid.r_min:
        r0 = profile.grid.r_min
        _, coeff0, gp0 = _coefficients(profile, g_prime, np.array([r0]))
        x0 = float(xi.value(r0))
        xd0 = float(xi.derivative(r0))
        value += (float(coeff0[0]) * xd0**2 - float(gp0[0]) * x0**2) * r0**n / n
    if not math.isfinite(value):
        raise ConsistencyError("quadratic form evaluated to a non-finite value")
    return value


# ---------------------------------------------------------------------------
# P1 pencil and its certified minimal eigenvalue
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Tridiagonal:
    diag: np.ndarray
    off: np.ndarray  # superdiagonal, length len(diag) - 1

    def __sub__(self, other: "Tridiagonal") -> "Tridiagonal":
        return Tridiagonal(self.diag - other.diag, self.off - other.off)

    def form(self, x: np.ndarray) -> float:
        """x^T T x for a nodal coefficient vector."""
        return float(np.dot(x, self.diag * x) + 2.0 * np.dot(x[:-1], self.off * x[1:]))


@dataclass(frozen=True)
class QPencil:
    """Assembled stiffness A, reaction mass B, plain mass M, and eigen nodes;
    the quadratic form of a nodal vector is exactly x^T (A - B) x."""

    a: Tridiagonal
    b: Tridiagonal
    m: Tridiagonal
    nodes: np.ndarray


def assemble_q(profile: RadialProfile, g_prime, r_trunc: float, n_eig: int) -> QPencil:
    """P1 hats on a log-uniform eigen grid over [r_trunc, 1], zero at both
    ends; coefficients are evaluated at interior Gauss points, so u_r = 0 is
    never sampled on the truncated domain."""
    if n_eig < 32:
        raise ParameterError(f"need at least 32 eigen nodes, got {n_eig}")
    if r_trunc < profile.grid.r_min:
        raise ParameterError("r_trunc must not undercut the profile grid")
    eigen_grid = make_grid(r_trunc, n_eig + 2)
    s = eigen_grid.r
    k = n_eig  # interior unknowns

    rg, weight = _volume_points(eigen_grid.t, profile.n)
    per_cell = len(rg) // (k + 1)
    if per_cell * (k + 1) != len(rg):
        raise ConsistencyError("uneven Gauss panels on a uniform eigen grid")
    _, coeff, gp = _coefficients(profile, g_prime, rg)
    rg, weight, coeff, gp = (v.reshape(k + 1, per_cell) for v in (rg, weight, coeff, gp))

    # cell c carries the falling hat of node c and the rising hat of node
    # c+1; the interior unknowns are nodes 1..k, so matrix index = node - 1
    h = np.diff(s)
    left = (s[1:, None] - rg) / h[:, None]
    right = (rg - s[:-1, None]) / h[:, None]
    products = (left * left, right * right, left * right)

    def tridiagonal(ll, rr, lr):
        return Tridiagonal(rr[:-1] + ll[1:], lr[1:-1])

    def mass(w):
        # one dot product per cell, as a (1 x m) @ (m x 1) matmul so it sums in
        # the same order as np.dot
        return tridiagonal(*((w[:, None, :] @ f[:, :, None])[:, 0, 0] for f in products))

    d = 1.0 / h
    stiff = np.sum(weight * coeff, axis=1) * d * d
    return QPencil(
        a=tridiagonal(stiff, stiff, -stiff), b=mass(weight * gp), m=mass(weight), nodes=s
    )


def _ldl(d: list, e2: list, pivots: list | None = None) -> int:
    """Negative pivots of the LDL^T recurrence of a symmetric tridiagonal
    matrix with diagonal d and squared off-diagonal e2 (lists of Python
    floats); the pivots are appended to ``pivots`` when one is given.  An
    exact zero pivot becomes -1e-300: it counts as negative and is divided by
    as such."""
    count, prev = 0, 1.0
    for di, ei in zip(d, [0.0] + e2):
        prev = di - ei / prev or -1e-300
        if prev < 0:
            count += 1
        if pivots is not None:
            pivots.append(prev)
    return count


def _negative_count(t: Tridiagonal, m: Tridiagonal, mu: float) -> int:
    """Inertia of T - mu M: its number of negative pivots, with the
    off-diagonal squared by np.square."""
    return _ldl((t.diag - mu * m.diag).tolist(), np.square(t.off - mu * m.off).tolist())


def _pivot_sums(t: Tridiagonal, m: Tridiagonal, mu: float) -> tuple[int, float, float]:
    """``_negative_count`` of T - mu M with S1 = sum 1/(mu_j - mu) and
    S2 = sum 1/(mu_j - mu)^2 over the pencil's eigenvalues mu_j.

    det(T - mu M) = det(M) prod (mu_j - mu) is the product of the LDL^T
    pivots d_i, so S1 = -sum d_i'/d_i and S2 = sum (d_i'/d_i)^2 - d_i''/d_i;
    the ratios f = d'/d and g = d''/d follow the pivot recurrence
    d_i = a_i - e_i^2 / d_(i-1).  The pivots are ``_ldl``'s, in the same
    operations, so the count is ``_negative_count``'s at every shift."""
    b = t.off - mu * m.off
    e2 = [0.0] + np.square(b).tolist()
    de2 = [0.0] + (-2.0 * b * m.off).tolist()  # d(e^2)/dmu
    dde2 = [0.0] + (2.0 * np.square(m.off)).tolist()  # d^2(e^2)/dmu^2
    rows = zip((t.diag - mu * m.diag).tolist(), (-m.diag).tolist(), e2, de2, dde2)
    count, prev, f, g, s1, s2 = 0, 1.0, 0.0, 0.0, 0.0, 0.0
    for di, ddi, ei, dei, ddei in rows:
        q = ei / prev
        r = dei / prev
        d1 = ddi - r + q * f
        d2 = 2.0 * r * f + q * (g - 2.0 * f * f) - ddei / prev
        prev = di - q or -1e-300
        if prev < 0:
            count += 1
        f, g = d1 / prev, d2 / prev
        s1 -= f
        s2 += f * f - g
    return count, s1, s2


def _width(lo: float, hi: float) -> float:
    """Certified bracket width: 1e-10 of the eigenvalue's scale, or 8 ulps."""
    big = max(abs(lo), abs(hi))
    return max(1e-10 * max(big, 1.0), 8 * math.ulp(big))


def min_eigenvalue(
    a: Tridiagonal, b: Tridiagonal, m: Tridiagonal, bracket: list | None = None
) -> float:
    """Minimal mu with (A - B) x = mu M x: the midpoint of a Sturm-certified
    bracket [lo, hi] of width at most ``_width`` (1e-10 of the eigenvalue's
    scale, or 8 ulps) up to the rounding of hi, appended to ``bracket`` when
    one is given.

    From the basis-vector Rayleigh bound, steps down by doubling gaps find a
    lower end with no negative pivot; the first such step is found by
    doubling and then bisecting its index.  Laguerre steps on det(T - mu M)
    rise from it; the characteristic polynomial is real-rooted, so they climb
    monotonically to mu_1 from below, and each pass counts pivots too: a
    count of 0 raises lo, one of at least 1 lowers hi.  A step that leaves
    (lo, hi) falls back to the midpoint.  Once a step is below half the width
    at its start x, a count at x + width closes the bracket."""
    t = a - b
    if not np.all(np.isfinite(np.concatenate([t.diag, t.off, m.diag, m.off]))):
        raise ParameterError("pencil has a non-finite entry")
    if np.any(m.diag <= 0):
        raise ParameterError("mass form is singular on a cell")
    hi = float(np.min(t.diag / m.diag))  # basis-vector Rayleigh quotient
    while _negative_count(t, m, hi) < 1:
        hi = hi + max(1.0, abs(hi))
    # the step-down's ends, ends[j] = hi - gap (2^j - 1) by the recurrence
    # lo = hi - gap with gap doubled each step: lo is the first with no
    # negative pivot in T - lo M, hi the end before it, a certified upper end.
    # Doubling j and then bisecting finds it in O(log j) counts, the same end
    # wherever the counts are monotone in the shift.
    ends, gap = [hi], max(1.0, abs(hi))
    above, j = 0, 1  # ends[above] counts a negative pivot
    while True:
        while len(ends) <= j:
            ends.append(ends[-1] - gap)
            gap *= 2.0
        if _negative_count(t, m, ends[j]) == 0:
            break
        above, j = j, 2 * j
    while j - above > 1:
        mid = (above + j) // 2
        if _negative_count(t, m, ends[mid]) > 0:
            above = mid
        else:
            j = mid
    lo, hi = ends[j], ends[above]
    k = len(t.diag)
    x = lo
    while hi - lo > _width(lo, hi):
        count, s1, s2 = _pivot_sums(t, m, x)
        if count:
            hi = x
            x = 0.5 * (lo + hi)
            continue
        lo = x
        denom = s1 + math.sqrt(max(0.0, (k - 1) * (k * s2 - s1 * s1)))
        step = k / denom if denom > 0 else math.nan
        # the width is sized on x, the bracket's final lower end, not on a
        # distant hi, so the certificate is relative to the eigenvalue itself
        width = _width(x, x)
        if step < 0.5 * width:
            if _negative_count(t, m, x + width) >= 1:
                hi = x + width
                break
            # the step fell short of mu_1: bisect from past x + width
            lo, step = x + width, math.nan
        x = x + step
        if not lo < x < hi:
            x = 0.5 * (lo + hi)
    if bracket is not None:
        bracket.extend((lo, hi))
    return 0.5 * (lo + hi)


def _min_mode_vector(pencil: QPencil, mu: float) -> np.ndarray:
    """Eigenvector witness at the certified eigenvalue via a twisted
    factorization of (A - B) - mu M (robust under the extreme row scaling a
    log grid with an r^n weight produces): forward pivots from ``_ldl``, and
    backward ones from ``_ldl`` on the reversed rows."""
    t = pencil.a - pencil.b
    a = t.diag - mu * pencil.m.diag
    b = t.off - mu * pencil.m.off
    k = len(a)
    d, off = a.tolist(), b.tolist()
    e2 = np.square(b).tolist()
    fwd, bwd = [], []
    _ldl(d, e2, fwd)
    _ldl(d[::-1], e2[::-1], bwd)
    bwd.reverse()
    gamma = np.array(fwd) + np.array(bwd) - a
    # row weights vary over many decades (r^n on a log grid), so the twist
    # index must minimize gamma relative to the local row scale
    row_scale = np.abs(a)
    row_scale[:-1] += np.abs(b)
    row_scale[1:] += np.abs(b)
    twist = int(np.argmin(np.abs(gamma) / np.maximum(row_scale, 1e-300)))
    x = [0.0] * k
    x[twist] = 1.0
    for i in range(twist - 1, -1, -1):
        x[i] = -off[i] * x[i + 1] / fwd[i]
    for i in range(twist, k - 1):
        x[i + 1] = -off[i] * x[i] / bwd[i + 1]
    x = np.array(x)
    norm = np.max(np.abs(x))
    return x / (norm if norm > 0 else 1.0)


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class StabilityReport:
    mu_1: float
    rayleigh_min: float
    verdict: str  # "semi-stable" | "unstable" | "marginal"
    scale: float
    r_trunc: float
    n_eig: int
    mu_1_alt: float  # the pencil's trailing block, Dirichlet at r_trunc_alt
    r_trunc_alt: float  # first eigen node >= min(10 r_trunc, 0.5)
    hardy_witness_ok: bool = True

    def as_dict(self) -> dict:
        return _jsonable(self)


def stability_report(
    profile: RadialProfile,
    g_prime,
    *,
    r_trunc: float = 1e-6,
    n_eig: int = 500,
    tol_eig: float = 1e-8,
) -> StabilityReport:
    """Discrete semi-stability verdict for a profile.

    The threshold is tol_eig times the largest mass-form diagonal; the
    unstable verdict requires one extra decade of margin, with "marginal"
    in between (the fold genuinely has mu_1 = 0).  A discrete nonnegative
    verdict certifies semi-stability on the discretized test space only.
    """
    pencil = assemble_q(profile, g_prime, r_trunc, n_eig)
    bracket = []
    mu1 = min_eigenvalue(pencil.a, pencil.b, pencil.m, bracket)
    x = _min_mode_vector(pencil, mu1)
    rayleigh = (pencil.a - pencil.b).form(x) / pencil.m.form(x)
    scale = float(np.max(pencil.m.diag))
    threshold = tol_eig * scale
    if mu1 >= -threshold:
        verdict = "semi-stable"
    elif mu1 < -10.0 * threshold:
        verdict = "unstable"
    else:
        verdict = "marginal"
    hardy_ok = True
    if verdict == "semi-stable":
        # a nonnegative form forces the constant-free weighted inequality;
        # a violating witness overrules the subspace spectrum
        witnesses = [SineModes(j, r_trunc) for j in (1, 2, 3)]
        witnesses += [PowerCutoff(alpha, 10.0 * r_trunc) for alpha in (0.5, 1.0, 2.0)]
        hardy_ok = all(c.satisfied for c in hardy_inequality_check(profile, witnesses))
        if not hardy_ok:
            verdict = "unstable"
    # Dirichlet at the first node a decade up: a trailing block, so by
    # min-max mu_1_alt >= mu_1 >= lo, and one count at hi decides whether
    # mu_1_alt lies in mu_1's certified bracket
    j = int(np.searchsorted(pencil.nodes, min(10.0 * r_trunc, 0.5)))
    a, b, m = (Tridiagonal(t.diag[j:], t.off[j:]) for t in (pencil.a, pencil.b, pencil.m))
    if _negative_count(a - b, m, bracket[1]) >= 1:
        mu1_alt = mu1
    else:
        mu1_alt = min_eigenvalue(a, b, m)
    return StabilityReport(
        mu_1=mu1,
        rayleigh_min=rayleigh,
        verdict=verdict,
        scale=scale,
        r_trunc=r_trunc,
        n_eig=n_eig,
        mu_1_alt=mu1_alt,
        r_trunc_alt=float(pencil.nodes[j]),
        hardy_witness_ok=hardy_ok,
    )


# ---------------------------------------------------------------------------
# identities and inequalities on solutions
# ---------------------------------------------------------------------------


def reaction_free_identity(
    profile: RadialProfile,
    g_prime,
    eta,
    *,
    residual: float | None = None,
) -> tuple[float, float, float]:
    """Both sides of the reaction-free identity for xi = u_r eta.

    lhs evaluates the second-variation form at xi = u_r eta (this needs
    g'); rhs is int |u_r|^p { (p-1) eta_r^2 - (n-1) eta^2 / r^2 } and never
    touches the reaction term.  The identity holds on solutions only, so
    callers pass the profile's flux-form residual for the precondition,
    which must not exceed 1e-6.
    """
    if residual is not None and residual > 1e-6:
        raise ParameterError(
            f"identity requires an accurate solution: residual {residual:.3e} "
            "exceeds bound 1.000e-06"
        )
    n, p = profile.n, profile.p
    rg, wvol = _cut_points(profile, [eta])
    ur, coeff, gp = _coefficients(profile, g_prime, rg)
    urr = np.asarray(profile.u_rr_at(rg), dtype=float)
    ev = np.asarray(eta.value(rg), dtype=float)
    ed = np.asarray(eta.derivative(rg), dtype=float)

    xi_r = urr * ev + ur * ed
    lhs = float(np.dot(wvol, coeff * xi_r**2 - gp * (ur * ev) ** 2))
    rhs = float(
        np.dot(wvol, np.abs(ur) ** p * ((p - 1.0) * ed**2 - (n - 1.0) * ev**2 / rg**2))
    )
    rel = abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1e-300)
    if not math.isfinite(rel):
        raise ConsistencyError("reaction-free identity evaluated to a non-finite value")
    return lhs, rhs, rel


@dataclass(frozen=True)
class HardyCheck:
    lhs: float
    rhs: float
    satisfied: bool


def hardy_inequality_check(profile: RadialProfile, eta_family) -> list[HardyCheck]:
    """Constant-free inequality (n-1) int |u_r|^p eta^2 <=
    (p-1) int |u_r|^p ((r eta)_r)^2 for each supplied eta.

    Semi-stable profiles satisfy every instance; an unstable one is
    witnessed by some violating member.  The profile is sampled once for the
    whole family, on ``_cut_points``, and each member integrates over the
    slice of those radii in its own support.
    """
    n, p = profile.n, profile.p
    family = list(eta_family)
    if not family:
        return []
    r_cut, w_cut = _cut_points(profile, family)
    urp_cut = np.abs(np.asarray(profile.u_r_at(r_cut), dtype=float)) ** p
    out = []
    for eta in family:
        start = int(np.searchsorted(r_cut, _support_lo(profile, eta)))
        rg, wvol, urp = r_cut[start:], w_cut[start:], urp_cut[start:]
        ev = np.asarray(eta.value(rg), dtype=float)
        scaled_d = ev + rg * np.asarray(eta.derivative(rg), dtype=float)
        lhs = (n - 1.0) * float(np.dot(wvol, urp * ev**2))
        rhs = (p - 1.0) * float(np.dot(wvol, urp * scaled_d**2))
        ok = lhs <= rhs * (1.0 + 1e-8) + 1e-300
        out.append(HardyCheck(lhs=lhs, rhs=rhs, satisfied=bool(ok)))
    return out


def weighted_gradient_integral(profile: RadialProfile, alpha: float) -> tuple[float, float]:
    """Weighted integral int |u_r|^p r^(-2 alpha) over the ball and the
    implied constant ratio against the gradient energy.

    Admissible range: 1 <= alpha < 1 + sqrt((n-1)/(p-1)), open at the top.
    """
    n, p = profile.n, profile.p
    alpha_max = 1.0 + math.sqrt((n - 1.0) / (p - 1.0))
    if not (1.0 <= alpha < alpha_max):
        raise ParameterError(
            f"alpha must lie in [1, {alpha_max:.6g}), got {alpha}"
        )
    rule = profile.rule
    urp = np.abs(profile.u_r) ** p
    value = rule.integrate(urp * profile.grid.r ** (-2.0 * alpha))
    grad = rule.integrate(urp)
    factor = (n - 1.0) - (alpha - 1.0) ** 2 * (p - 1.0)
    implied = value * factor / grad if grad > 0 else 0.0
    return float(value), float(implied)


def random_eta_family(rng, r_trunc: float, count: int = 20):
    """Mixed bag of admissible test functions for randomized checks."""
    out = []
    for i in range(count):
        if i % 2 == 0:
            out.append(SineModes(mode=1 + int(rng.integers(1, 6)), r_trunc=r_trunc))
        else:
            alpha = float(rng.uniform(0.3, 2.5))
            eps = float(10 ** rng.uniform(-5, -1))
            out.append(PowerCutoff(alpha=alpha, eps=eps))
    return out
