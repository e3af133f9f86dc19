"""Closed-form critical exponents and regime classification.

The dividing dimension is n = p + 4p/(p-1): below it every semi-stable
radially decreasing W^(1,p) solution is bounded, at it the growth is
logarithmic, above it the sharp integrability exponents

    1/q_k = 1/p - (2/(np)) sqrt((n-1)/(p-1)) + (k-1)/n - 2/(np),  k in {0, 1}

are finite (q_0 for L^q, q_1 for W^(1,q)).  For the power reaction family
(1+u)^m the companion exponent m_cs separates bounded from singular
limiting solutions and ties back to q_0 through
n (m_cs - (p-1)) / p = q_0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .core import ParameterError, _check_np, _jsonable, _non_integer

#: relative tolerance for deciding n == p + 4p/(p-1); the boundary is a
#: genuine parameter set (any p), so exact-float comparison is not usable
BOUNDARY_RTOL = 1e-12

REGIME_BOUNDED = "A"
REGIME_LOG = "B"
REGIME_SINGULAR = "C"


def critical_dimension(p: float) -> float:
    """Dimension threshold p + 4p/(p-1) for boundedness of semi-stable
    radial solutions."""
    _check_np(None, p)
    return p + 4.0 * p / (p - 1.0)


def _side_of_critical(n: float, p: float) -> int:
    """-1 below, 0 at (within BOUNDARY_RTOL relative), +1 above."""
    crit = critical_dimension(p)
    if abs(n - crit) <= BOUNDARY_RTOL * crit:
        return 0
    return -1 if n < crit else 1


def q_exponent(n: float, p: float, k: int) -> float:
    """Sharp integrability exponent q_k; +inf below (and at) the critical
    dimension.  Returns math.inf, never a large-float sentinel."""
    _check_np(n, p)
    if k not in (0, 1):
        raise ParameterError(f"k must be 0 or 1, got {k}")
    if _side_of_critical(n, p) <= 0:
        return math.inf
    recip = (
        1.0 / p
        - (2.0 / (n * p)) * math.sqrt((n - 1.0) / (p - 1.0))
        + (k - 1.0) / n
        - 2.0 / (n * p)
    )
    # the defining reciprocal is positive strictly above the critical
    # dimension; a nonpositive value can only arise from roundoff at the
    # boundary and is reported as unbounded
    if recip <= 0.0:
        return math.inf
    return 1.0 / recip


def _pointwise_exponent(n: float, p: float, k: int) -> float:
    """e in the sharp pointwise bound r^(-e) (|log r|^(1/p) + 1) above the
    critical dimension: of u for k = 0, of u_r for k = 1 (one more power)."""
    shift = p if k == 0 else 0.0
    return (n - 2.0 * math.sqrt((n - 1.0) / (p - 1.0)) - shift - 2.0) / p


def m_cs(n: float, p: float) -> float:
    """Critical power exponent separating bounded from singular limiting
    solutions of the (1+u)^m family; +inf at or below the critical
    dimension."""
    _check_np(n, p)
    if _side_of_critical(n, p) <= 0:
        return math.inf
    num = (p - 1.0) * n - 2.0 * math.sqrt((p - 1.0) * (n - 1.0)) + 2.0 - p
    den = n - (p + 2.0) - 2.0 * math.sqrt((n - 1.0) / (p - 1.0))
    return num / den


def consistency_q0_mcs(n: float, p: float) -> float:
    """Relative defect of the identity n (m_cs - (p-1)) / p = q_0; requires
    n strictly above the critical dimension."""
    _check_np(n, p)
    if _side_of_critical(n, p) <= 0:
        raise ParameterError(
            f"identity requires n above the critical dimension "
            f"{critical_dimension(p):.6g}, got n={n}"
        )
    q0 = q_exponent(n, p, 0)
    lhs = n * (m_cs(n, p) - (p - 1.0)) / p
    return abs(lhs - q0) / q0


def classify_regime(n: float, p: float) -> tuple[str, str]:
    """Regime letter plus a one-line summary of the applicable bound."""
    _check_np(n, p)
    side = _side_of_critical(n, p)
    crit = critical_dimension(p)
    if side < 0:
        return (
            REGIME_BOUNDED,
            f"n={n:g} < {crit:.6g}: semi-stable radial solutions are bounded, "
            f"|u|_inf <= C(n,p) |u|_W1p",
        )
    if side == 0:
        return (
            REGIME_LOG,
            f"n={n:g} = {crit:.6g}: u in L^q for every finite q, "
            f"|u(r)| <= C(p) |u|_W1p (|log r| + 1)",
        )
    q0 = q_exponent(n, p, 0)
    q1 = q_exponent(n, p, 1)
    expo = _pointwise_exponent(n, p, 0)
    return (
        REGIME_SINGULAR,
        f"n={n:g} > {crit:.6g}: u in L^q for q < q0={q0:.6g}, "
        f"u in W^(1,q) for q < q1={q1:.6g} (nonnegative reaction), "
        f"|u(r)| <= C |u|_W1p r^(-{expo:.6g}) (|log r|^(1/p) + 1)",
    )


@dataclass(frozen=True)
class ExponentReport:
    n: float
    p: float
    critical_dimension: float
    q0: float
    q1: float
    m_cs: float
    regime: str
    non_integer_dimension: bool
    summary: str

    def as_dict(self) -> dict:
        return _jsonable(self)


def exponent_report(n: float, p: float) -> ExponentReport:
    regime, summary = classify_regime(n, p)
    return ExponentReport(
        n=n,
        p=p,
        critical_dimension=critical_dimension(p),
        q0=q_exponent(n, p, 0),
        q1=q_exponent(n, p, 1),
        m_cs=m_cs(n, p),
        regime=regime,
        non_integer_dimension=_non_integer(n),
        summary=summary,
    )
