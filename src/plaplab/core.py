"""Radial grids, weighted quadrature, and shared problem data.

Everything is posed on the unit ball and reduced to radial form: for a
radial integrand h, integrals are reported as ``int_0^1 h(r) r^(n-1) dr``.
The angular factor |S^(n-1)| is dropped consistently (norms, energies,
quadratic forms), which leaves every identity, inequality, and eigenvalue
sign unchanged.

Grids are uniform in log r on [r_min, 1]; the interesting behavior of the
solutions lives at r -> 0 and log spacing resolves power-law profiles with
uniform relative accuracy.  The quadrature rule integrates the piecewise
cubic (in log r) interpolant of the integrand against the exact weight
r^n d(log r), so a constant integrand reproduces 1/n to machine precision
and smooth integrands converge at fourth order.  A head term covers
[0, r_min] assuming the integrand is constant there; the induced error is
O(r_min^n * h(r_min)).
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import InitVar, dataclass, field, fields, is_dataclass
from functools import cached_property

from typing import Callable, Union

import numpy as np


class ParameterError(ValueError):
    """An argument violates a documented precondition."""


class EvaluationError(ValueError):
    """A nonlinearity or profile was evaluated outside its admissible range."""


class ConsistencyError(RuntimeError):
    """An internal invariant failed; indicates a bug, not a math outcome."""


def _check_np(n: float | None, p: float) -> None:
    """The standing precondition p > 1 and n >= 1; n = None checks p only."""
    if not (p > 1.0):
        raise ParameterError(f"p must exceed 1, got {p}")
    if n is not None and not (n >= 1.0):
        raise ParameterError(f"n must be at least 1, got {n}")


def _non_integer(n: float) -> bool:
    """Whether the dimension n is not an integer, up to 1e-12."""
    return abs(n - round(n)) > 1e-12


def _key(name: str) -> str:
    """Report key of a dataclass field; Python cannot name a field lambda."""
    return "lambda" if name == "lam" else name


def _jsonable(obj):
    """obj as plain JSON data: dataclasses become dicts of their fields, tuples
    become lists, and non-finite floats the tags "inf", "-inf" and "nan"."""
    if isinstance(obj, float):
        if math.isinf(obj):
            return "inf" if obj > 0 else "-inf"
        if math.isnan(obj):
            return "nan"
        return obj
    if is_dataclass(obj):
        return {_key(f.name): _jsonable(getattr(obj, f.name)) for f in fields(obj)}
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    return obj


# ---------------------------------------------------------------------------
# nonlinearities
# ---------------------------------------------------------------------------

# ``scalar_value(floor)`` is ``value`` at max(u, floor) on one float, as one
# closure for the shooting routes' RK4 stages.  It returns a real float or
# raises an ArithmeticError or ValueError (e^u past u = 709.78, (1 + u)^m off
# its domain, u outside a table), which both routes record as a failure.


def _monotone_minimum(g, lo: float, hi: float) -> float:
    """The least value on [lo, hi] of a reaction monotone in u: an end's."""
    return float(np.min(g.value(np.asarray([lo, hi]))))


@dataclass(frozen=True)
class Exponential:
    """g(u) = scale * e^u."""

    scale: float = 1.0

    def value(self, u):
        return self.scale * np.exp(u)

    derivative = antiderivative = value
    minimum = _monotone_minimum

    def with_scale(self, factor: float) -> "Exponential":
        return Exponential(self.scale * factor)

    def scalar_value(self, floor: float = -math.inf) -> Callable[[float], float]:
        s, exp = self.scale, math.exp
        return lambda u: s * exp(floor if floor > u else u)

    @property
    def increasing(self) -> bool:
        return self.scale > 0

    @property
    def convex(self) -> bool:
        return self.scale >= 0

    def convex_root(self, p: float) -> bool:
        """Whether g^(1/max(1, p - 1)) is convex: e^(u/a) is for every a."""
        return self.convex

    def positive_at_zero(self) -> bool:
        return self.scale > 0


@dataclass(frozen=True)
class Power:
    """g(u) = scale * (1 + u)^m, defined for u > -1."""

    m: float
    scale: float = 1.0

    def value(self, u):
        return self.scale * (1.0 + u) ** self.m

    def derivative(self, u):
        return self.scale * self.m * (1.0 + u) ** (self.m - 1.0)

    def antiderivative(self, u):
        if self.m == -1.0:
            return self.scale * np.log(1.0 + u)
        return self.scale * (1.0 + u) ** (self.m + 1.0) / (self.m + 1.0)

    def with_scale(self, factor: float) -> "Power":
        return Power(self.m, self.scale * factor)

    minimum = _monotone_minimum

    def scalar_value(self, floor: float = -math.inf) -> Callable[[float], float]:
        s, m, pow = self.scale, self.m, math.pow
        return lambda u: s * pow(1.0 + (floor if floor > u else u), m)

    @property
    def increasing(self) -> bool:
        return self.scale > 0 and self.m > 0

    @property
    def convex(self) -> bool:
        """On u > -1; (1 + u)^m with 0 < m < 1 is concave."""
        return self.scale >= 0 and self.m >= 1.0

    def convex_root(self, p: float) -> bool:
        """Whether g^(1/max(1, p - 1)) = (1 + u)^(m/a) times a constant is
        convex on u > -1: iff m >= a = max(1, p - 1)."""
        return self.scale >= 0 and self.m >= max(1.0, p - 1.0)

    def positive_at_zero(self) -> bool:
        return self.scale > 0


def _outside_table(knots) -> EvaluationError:
    return EvaluationError(
        f"tabulated nonlinearity evaluated outside [{knots[0]}, {knots[-1]}]"
    )


@dataclass(frozen=True)
class Tabulated:
    """g given at nodes (t, g(t), g'(t)); cubic Hermite interpolation between
    nodes, hard error outside the table.

    For monotone data the supplied slopes are limited into the
    Fritsch-Carlson region, so the interpolant preserves monotonicity (the
    minimal-solution iteration depends on it).  Each cell's cubic is stored
    once, as a row (t_i, c0, c1, c2, c3) with
    g ~ ((c3 x + c2) x + c1) x + c0 at x = u - t_i; every evaluation path
    runs that Horner form."""

    t: tuple
    g: tuple
    gp: tuple
    scale: float = 1.0
    _table: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        t = np.asarray(self.t, dtype=float)
        if t.ndim != 1 or len(t) < 2:
            raise ParameterError("tabulated nonlinearity needs at least two nodes")
        if not np.all(np.diff(t) > 0):
            raise ParameterError("tabulated nodes must be strictly increasing in t")
        if len(self.g) != len(t) or len(self.gp) != len(t):
            raise ParameterError("tabulated arrays must have equal length")
        object.__setattr__(self, "t", tuple(float(x) for x in t))
        object.__setattr__(self, "g", tuple(float(x) for x in self.g))
        object.__setattr__(self, "gp", tuple(float(x) for x in self.gp))
        g = np.asarray(self.g)
        d = np.asarray(self.gp)
        h = np.diff(t)
        secants = np.diff(g) / h
        if np.all(secants >= 0) and np.all(d >= 0):
            cap = 3.0 * np.minimum(
                np.concatenate([secants[:1], secants]),
                np.concatenate([secants, secants[-1:]]),
            )
            d = np.minimum(d, cap)
        d0, d1 = d[:-1], d[1:]
        with np.errstate(all="ignore"):  # non-finite coefficients are rejected below
            hh = h * h
            c2 = (3.0 * secants - 2.0 * d0 - d1) / h
            c3 = (d0 + d1 - 2.0 * secants) / hh
        cells = np.column_stack([t[:-1], g[:-1], d0, c2, c3])
        if not (np.isfinite(cells).all() and np.isfinite(hh).all()):
            raise ParameterError("tabulated data and their cubic coefficients must be finite")
        object.__setattr__(self, "_table", (t[1:-1], cells))

    def _locate(self, u):
        """x = u - t_i and the coefficients c0..c3 of each point's cell."""
        u = np.asarray(u, dtype=float)
        if u.size and (u.min() < self.t[0] - 1e-12 or u.max() > self.t[-1] + 1e-12):
            raise _outside_table(self.t)
        inner, cells = self._table
        # searchsorted over the interior knots is the cell index clipped to
        # [0, len(cells) - 1], so take's "clip" never clips
        i = np.searchsorted(inner, u, side="right")
        knot, c0, c1, c2, c3 = np.take(cells, i, axis=0, mode="clip").T
        return u - knot, c0, c1, c2, c3

    def value(self, u):
        x, c0, c1, c2, c3 = self._locate(u)
        return self.scale * (((c3 * x + c2) * x + c1) * x + c0)

    def derivative(self, u):
        x, _, c1, c2, c3 = self._locate(u)
        return self.scale * ((3.0 * c3 * x + 2.0 * c2) * x + c1)

    def antiderivative(self, u):
        raise EvaluationError(
            "no closed-form antiderivative for a tabulated nonlinearity; "
            "supply G values explicitly"
        )

    def with_scale(self, factor: float) -> "Tabulated":
        return Tabulated(self.t, self.g, self.gp, self.scale * factor)

    def scalar_value(self, floor: float | None = None) -> Callable[[float], float]:
        """``value`` on one Python float: the cell by bisection on the knots,
        then the same Horner operations in float arithmetic, so the two
        paths agree bit for bit.  With a ``floor`` (-inf too), u is raised to
        it, and below the table takes the first knot instead of raising."""
        knots, rows = self.t, self._table[1].tolist()
        lo, hi = knots[0] - 1e-12, knots[-1] + 1e-12
        last, scale = len(knots) - 1, self.scale
        least = -math.inf if floor is None else floor
        below = math.inf if floor is None else (least if least >= lo else knots[0])  # inf: raise

        def value(u: float) -> float:
            u = below if u < lo else (least if least > u else u)
            if u > hi:
                raise _outside_table(knots)
            knot, c0, c1, c2, c3 = rows[bisect_right(knots, u, 1, last) - 1]
            x = u - knot
            return scale * (((c3 * x + c2) * x + c1) * x + c0)

        return value

    @property
    def increasing(self) -> bool:
        g = np.asarray(self.g)
        gp = np.asarray(self.gp)
        mono = np.all(np.diff(g) >= 0) and np.all(gp >= 0)
        return bool(mono if self.scale > 0 else False)

    @property
    def convex(self) -> bool:
        """The interpolant is C^1, so it is convex iff g' rises on every cell,
        where g'' = 2 c2 + 6 c3 x is linear: iff 2 c2 >= 0 and
        2 c2 + 6 c3 h >= 0 on every cell of width h."""
        c2, c3 = self._table[1][:, 3:].T
        right = 2.0 * c2 + 6.0 * c3 * np.diff(self.t)
        return bool(self.scale >= 0 and c2.min() >= 0 and right.min() >= 0)

    def convex_root(self, p: float) -> bool:
        """Whether g^(1/max(1, p - 1)) is convex: ``convex`` for p <= 2;
        never claimed for p > 2, where g^(1/(p-1)) would need its own test."""
        return self.convex and p <= 2.0

    def minimum(self, lo: float, hi: float) -> float:
        """The least value on [lo, hi] (inside the table), in closed form:
        each cell's cubic at its knots and at its stationary points x, the
        roots of c1 + 2 c2 x + 3 c3 x^2 (q = -(c2 + sgn(c2) sqrt(disc)),
        x = q / 3c3 and c1 / q), each clipped into its cell and into
        [lo, hi], which only moves it onto another candidate."""
        left, _, c1, c2, c3 = self._table[1].T
        with np.errstate(all="ignore"):  # complex or infinite roots become x = 0
            q = -(c2 + np.copysign(np.sqrt(c2 * c2 - 3.0 * c1 * c3), c2))
            xs = np.nan_to_num(np.concatenate([q / (3.0 * c3), c1 / q]), nan=0.0, posinf=0.0, neginf=0.0)
        width = np.tile(np.diff(self.t), 2)
        points = np.concatenate([[lo, hi], self.t, np.tile(left, 2) + np.clip(xs, 0.0, width)])
        return float(np.min(self.value(np.clip(points, lo, hi))))

    def positive_at_zero(self) -> bool:
        if not (self.t[0] <= 0.0 <= self.t[-1]):
            return False
        return float(self.value(0.0)) > 0


Nonlinearity = Union[Exponential, Power, Tabulated]


@dataclass(frozen=True)
class ProblemSpec:
    """Dimension n >= 1 (real values allowed), exponent p > 1, reaction term."""

    n: float
    p: float
    nonlinearity: Nonlinearity

    def __post_init__(self):
        _check_np(self.n, self.p)

    @property
    def non_integer_dimension(self) -> bool:
        return _non_integer(self.n)


# ---------------------------------------------------------------------------
# grids
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RadialGrid:
    """Log-uniform nodes on [r_min, 1], built by make_grid; t = log r."""

    r_min: float
    t: np.ndarray
    r: np.ndarray
    dt: float

    @property
    def size(self) -> int:
        return len(self.r)


def make_grid(r_min: float, count: int) -> RadialGrid:
    if not (0.0 < r_min < 1.0):
        raise ParameterError(f"r_min must lie in (0, 1), got {r_min}")
    if count < 16:
        raise ParameterError(f"need at least 16 nodes, got {count}")
    t = np.linspace(math.log(r_min), 0.0, count)
    r = np.exp(t)
    r[0] = r_min
    r[-1] = 1.0
    dt = (t[-1] - t[0]) / (count - 1)
    return RadialGrid(r_min=r_min, t=t, r=r, dt=dt)


# ---------------------------------------------------------------------------
# quadrature
# ---------------------------------------------------------------------------

# 6-point Gauss-Legendre rule on [-1, 1]: the reprs of leggauss(6), written
# out so that importing the package does not import numpy.polynomial
_GL_NODES = np.array(
    [
        -0.9324695142031519,
        -0.6612093864662645,
        -0.2386191860831969,
        0.2386191860831969,
        0.6612093864662645,
        0.9324695142031519,
    ]
)
_GL_WEIGHTS = np.array(
    [
        0.17132449237917027,
        0.3607615730481387,
        0.46791393457269104,
        0.46791393457269104,
        0.3607615730481387,
        0.17132449237917027,
    ]
)


def _exp_moments(offsets, n, dt):
    """ints over [0, dt] of L_j(s) e^(n s) ds for the Lagrange basis on the
    given node offsets.  Gauss panels keep n*dt large cases accurate."""
    m = len(offsets)
    panels = 1 + int(abs(n) * dt)
    out = np.zeros(m)
    for k in range(panels):
        a = dt * k / panels
        b = dt * (k + 1) / panels
        mid, half = 0.5 * (a + b), 0.5 * (b - a)
        s = mid + half * _GL_NODES
        w = half * _GL_WEIGHTS * np.exp(n * s)
        for j in range(m):
            lj = np.ones_like(s)
            for i in range(m):
                if i != j:
                    lj *= (s - offsets[i]) / (offsets[j] - offsets[i])
            out[j] += np.dot(w, lj)
    return out


@dataclass(frozen=True)
class QuadratureRule:
    """Weights for int_0^1 h(r) r^(n-1) dr on a log-uniform grid.

    ``weights`` includes the head term h(r_min) * r_min^n / n on node 0.
    Cell-level integrals back the cumulative forms used by the solvers.
    """

    grid: RadialGrid
    n: float
    weights: np.ndarray
    head: float
    _cw_first: np.ndarray
    _cw_interior: np.ndarray
    _cw_last: np.ndarray
    _rn_cells: np.ndarray
    _stencil: int = 4

    def _check(self, h: np.ndarray) -> np.ndarray:
        h = np.asarray(h, dtype=float)
        if h.shape != self.grid.r.shape:
            raise ParameterError("integrand values must match the grid")
        if not np.isfinite(h).all():
            raise ParameterError("integrand contains non-finite values")
        return h

    def integrate(self, h) -> float:
        return float(np.dot(self.weights, self._check(h)))

    def cell_integrals(self, h) -> np.ndarray:
        return _CellSums(self, self._check(h)).fill_cells()

    def cumulative_from_zero(self, h) -> np.ndarray:
        """F with F[j] ~ int_0^{r_j} h r^(n-1) dr, head term included."""
        return _CellSums(self, self._check(h)).from_zero(np.empty(self.grid.size))

    def cumulative_to_one(self, h) -> np.ndarray:
        """G with G[j] = int_{r_j}^1 h r^(n-1) dr; G[-1] = 0 exactly."""
        return _CellSums(self, self._check(h)).to_one(np.empty(self.grid.size))


class _CellSums:
    """The cell integrals and cumulative sums of one rule over one nodal
    array ``h``, read at each call; ``h`` is not checked.

    The work arrays and every view a sum reads are made once, so a sum
    allocates only its correlation.  The monotone iteration's sweep kernel
    keeps one per rule over its own arrays and tests only its result: every
    node feeds a cell, and every cell feeds G[0] and F[-1]."""

    def __init__(self, rule: QuadratureRule, h: np.ndarray):
        self.head, self.h = rule.head, h
        self.cells = np.empty(len(h) - 1)
        self._cells_rev = self.cells[::-1]
        self._cw = rule._cw_interior
        rn = rule._rn_cells
        # the 4-point stencil's two end cells have their own weights
        self._ends = rule._stencil == 4
        if self._ends:
            self._rn, self._mid = rn[1:-1], self.cells[1:-1]
            self._first, self._cw_first, self._rn_first = h[:4], rule._cw_first, rn[0]
            self._last, self._cw_last, self._rn_last = h[-4:], rule._cw_last, rn[-1]
        else:
            self._rn, self._mid = rn, self.cells

    def fill_cells(self) -> np.ndarray:
        """The cell integrals of h, into ``cells``: each interior cell is the
        stencil weights correlated with its window of h."""
        cells = self.cells
        np.multiply(np.correlate(self.h, self._cw, "valid"), self._rn, out=self._mid)
        if self._ends:
            cells[0] = self._first.dot(self._cw_first) * self._rn_first
            cells[-1] = self._last.dot(self._cw_last) * self._rn_last
        return cells

    def from_zero(self, out: np.ndarray) -> np.ndarray:
        """``cumulative_from_zero`` of h, into out."""
        out[0] = head = self.head * self.h[0]
        tail = out[1:]
        np.add.accumulate(self.fill_cells(), out=tail)
        tail += head
        return out

    def to_one(self, out: np.ndarray) -> np.ndarray:
        """``cumulative_to_one`` of h, into out: the cells summed from the
        last one down, as sequential adds straight into out[-2::-1]."""
        self.fill_cells()
        np.add.accumulate(self._cells_rev, out=out[-2::-1])
        out[-1] = 0.0
        return out


def make_rule(grid: RadialGrid, n: float) -> QuadratureRule:
    """Piecewise-cubic product rule; falls back to the piecewise-linear one
    (positive by construction) on coarse grids where n * dt is large enough
    to push outer-stencil weights negative."""
    if n < 1.0:
        raise ParameterError(f"dimension must be at least 1, got {n}")
    dt = grid.dt
    m = grid.size
    rn_cells = np.exp(n * grid.t[:-1])
    head = math.exp(n * grid.t[0]) / n

    for stencil in (4, 2):
        # a cell's stencil starts `lead` nodes before it; the first and last
        # cells shift it inward by `lead`, which is 0 for the 2-point stencil
        lead = stencil // 2 - 1
        cw_first, cw_interior, cw_last = (
            _exp_moments((np.arange(stencil) - shift) * dt, n, dt)
            for shift in (0, lead, 2 * lead)
        )
        weights = np.zeros(m)
        if lead:
            weights[:stencil] += cw_first * rn_cells[0]
        for j in range(stencil):
            weights[j : j + m - stencil + 1] += cw_interior[j] * rn_cells[lead : m - 1 - lead]
        if lead:
            weights[-stencil:] += cw_last * rn_cells[-1]
        weights[0] += head
        if np.all(weights > 0):
            return QuadratureRule(
                grid=grid,
                n=n,
                weights=weights,
                head=head,
                _cw_first=cw_first,
                _cw_interior=cw_interior,
                _cw_last=cw_last,
                _rn_cells=rn_cells,
                _stencil=stencil,
            )
    if np.all(weights >= 0):  # none negative, so r_min^n underflowed to 0
        raise ParameterError(f"r_min^n = ({grid.r_min:g})^{n:g} underflows to 0; raise r_min or lower n")
    raise ConsistencyError("quadrature produced non-positive weights")


# ---------------------------------------------------------------------------
# finite differences on the log-uniform grid
# ---------------------------------------------------------------------------


# d/dt at the nodes t = 0..6 of their degree-6 interpolant, from barycentric
# weights (Berrut & Trefethen, SIAM Review 46 (2004)): with
# c_k = prod_{i != k} (k - i), D_kj = (c_k / c_j) / (k - j) for j != k, and
# D_kk = -sum_{j != k} D_kj, so every row annihilates constants; the
# differences k - j carry 1 on the diagonal, so a row's product is c_k
_D7 = np.subtract.outer(np.arange(7.0), np.arange(7.0)) + np.eye(7)
_D7 = _D7.prod(axis=1)[:, None] / _D7.prod(axis=1) / _D7
np.fill_diagonal(_D7, 0.0)
np.fill_diagonal(_D7, -_D7.sum(axis=1))


def derivative_log_uniform(values, dt: float) -> np.ndarray:
    """Sixth-order d/dt of nodal values on a uniform t-grid: row 3 of the
    7-point derivative matrix on every interior window, rows 0-2 on the
    first 7 values and rows 4-6 on the last 7."""
    v = np.asarray(values, dtype=float)
    m = len(v)
    if m < 7:
        raise ParameterError("need at least 7 nodes for the derivative stencil")
    out = np.empty(m)
    out[3 : m - 3] = np.lib.stride_tricks.sliding_window_view(v, 7) @ _D7[3]
    out[:3] = _D7[:3] @ v[:7]
    out[m - 3 :] = _D7[4:] @ v[-7:]
    return out / dt


def _cubic_interp_log(tq, grid, values):
    """Cubic Lagrange interpolation in t = log r at points tq on the 4-node
    window around each, clamped at the end cells; make_grid's nodes are
    t[0] + k dt, so the basis is the uniform-node closed form in s."""
    tq = np.asarray(tq, dtype=float)
    m = len(values)
    pos = (tq - grid.t[0]) / grid.dt
    if np.any(pos < -1e-9) or np.any(pos > m - 1 + 1e-9):
        raise EvaluationError("profile evaluated outside its grid")
    base = np.clip(np.floor(pos).astype(int) - 1, 0, m - 4)
    s = pos - base
    s1, s2, s3 = s - 1.0, s - 2.0, s - 3.0
    return (
        -s1 * s2 * s3 / 6.0 * values[base]
        + s * s2 * s3 / 2.0 * values[base + 1]
        - s * s1 * s3 / 2.0 * values[base + 2]
        + s * s1 * s2 / 6.0 * values[base + 3]
    )


# ---------------------------------------------------------------------------
# radial profiles
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RadialProfile:
    """Discrete radial solution: values u, flux w = r^(n-1)|u_r|^(p-2) u_r,
    and the radial derivative derived from w.

    Solutions of interest are radially decreasing, so u is nonincreasing and
    w <= 0; both are validated (small slack for roundoff) unless check=False.
    """

    grid: RadialGrid
    n: float
    p: float
    u: np.ndarray
    w: np.ndarray
    u_r: np.ndarray = field(init=False)
    check: InitVar[bool] = True

    def __post_init__(self, check):
        u = np.asarray(self.u, dtype=float)
        w = np.asarray(self.w, dtype=float)
        if u.shape != self.grid.r.shape or w.shape != self.grid.r.shape:
            raise ParameterError("profile arrays must match the grid")
        if not (np.all(np.isfinite(u)) and np.all(np.isfinite(w))):
            raise ParameterError("profile contains non-finite values")
        if check:
            slack = 1e-10 * (1.0 + float(np.max(np.abs(u))))
            if np.any(np.diff(u) > slack):
                raise ParameterError("u must be nonincreasing in r")
            if np.any(w > 1e-10 * (1.0 + float(np.max(np.abs(w))))):
                raise ParameterError("flux w must be nonpositive")
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "w", w)
        # log-space evaluation keeps r^(1-n) from overflowing for large n
        q = 1.0 / (self.p - 1.0)
        with np.errstate(divide="ignore"):
            mag = q * (np.log(np.maximum(-w, 0.0)) + (1.0 - self.n) * self.grid.t)
        u_r = -np.exp(mag)
        object.__setattr__(self, "u_r", u_r)

    @cached_property
    def rule(self) -> QuadratureRule:
        """Built on first use and kept: grid and n are frozen."""
        return make_rule(self.grid, self.n)

    def u_at(self, r):
        return _cubic_interp_log(np.log(r), self.grid, self.u)

    def u_r_at(self, r):
        return _cubic_interp_log(np.log(r), self.grid, self.u_r)

    def u_rr_at(self, r):
        durdt = derivative_log_uniform(self.u_r, self.grid.dt)
        return _cubic_interp_log(np.log(r), self.grid, durdt) / np.asarray(r, dtype=float)


def energy(profile: RadialProfile, G) -> float:
    """(1/p) int |grad u|^p - int G(u) over the unit ball, radial units.

    G is the antiderivative of the reaction term, passed as a callable or as
    nodal values (tabulated reaction terms have no closed form).
    """
    rule = profile.rule
    kinetic = rule.integrate(np.abs(profile.u_r) ** profile.p) / profile.p
    g_vals = G(profile.u) if callable(G) else np.asarray(G, dtype=float)
    return kinetic - rule.integrate(g_vals)
