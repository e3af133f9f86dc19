"""The stability layer's LDL^T kernel against the numpy-scalar loops it
replaced, and its Laguerre eigenvalue route against the bisection it
replaced.

``_negative_count``, ``_pivot_sums`` and ``_min_mode_vector`` share one pivot
recurrence over Python floats.  The straightforward forms kept here step over
numpy scalars, with separate forward and backward pivot loops; on random
pencils scaled over many decades, as r^n scales the rows on a log grid, both
must give the same counts, the same witness bits and the same minimal
eigenvalue.  ``_bisect_reference`` is the Sturm bisection ``min_eigenvalue``
ran before its Laguerre steps; both must agree within the certified width.
"""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from plaplab import Exponential, exact_exponential, exact_power, stability, stability_report
from plaplab.stability import (
    QPencil,
    Tridiagonal,
    _ldl,
    _min_mode_vector,
    _negative_count,
    _pivot_sums,
    _width,
    assemble_q,
    min_eigenvalue,
)


def count_reference(t_diag, t_off, m_diag, m_off, mu):
    d = t_diag - mu * m_diag
    e = t_off - mu * m_off
    count = 0
    prev = d[0]
    if prev == 0.0:
        prev = -1e-300
    if prev < 0:
        count += 1
    for i in range(1, len(d)):
        val = d[i] - e[i - 1] ** 2 / prev
        if val == 0.0:
            val = -1e-300
        if val < 0:
            count += 1
        prev = val
    return count


def mode_reference(pencil, mu):
    """Twisted factorization with its own pivot loops; an exact zero pivot
    is divided by as +1e-300 here."""
    t = pencil.a - pencil.b
    a = t.diag - mu * pencil.m.diag
    b = t.off - mu * pencil.m.off
    k = len(a)
    tiny = 1e-300
    d_fwd = np.empty(k)
    d_fwd[0] = a[0]
    for i in range(1, k):
        prev = d_fwd[i - 1]
        d_fwd[i] = a[i] - np.square(b[i - 1]) / (prev if prev != 0 else tiny)
    d_bwd = np.empty(k)
    d_bwd[-1] = a[-1]
    for i in range(k - 2, -1, -1):
        nxt = d_bwd[i + 1]
        d_bwd[i] = a[i] - np.square(b[i]) / (nxt if nxt != 0 else tiny)
    gamma = d_fwd + d_bwd - a
    row_scale = np.abs(a)
    row_scale[:-1] += np.abs(b)
    row_scale[1:] += np.abs(b)
    twist = int(np.argmin(np.abs(gamma) / np.maximum(row_scale, tiny)))
    x = np.zeros(k)
    x[twist] = 1.0
    for i in range(twist - 1, -1, -1):
        df = d_fwd[i]
        x[i] = -b[i] * x[i + 1] / (df if df != 0 else tiny)
    for i in range(twist, k - 1):
        db = d_bwd[i + 1]
        x[i + 1] = -b[i] * x[i] / (db if db != 0 else tiny)
    norm = np.max(np.abs(x))
    return x / (norm if norm > 0 else 1.0)


def cell_matrix(w, ratio):
    """Tridiagonal assembled from per-cell weights w (k + 1 cells, k interior
    nodes): diagonal w_i + w_(i+1) times ratio[0], off-diagonal w_(i+1) times
    ratio[1], as P1 stiffness (1, -1) and mass (1/3, 1/6) assemble."""
    return Tridiagonal((w[:-1] + w[1:]) * ratio[0], w[1:-1] * ratio[1])


def random_pencil(seed, k, decades):
    """A P1-like pencil: cell weights falling over ``decades`` towards the
    inner end, positive stiffness and mass, and a reaction mass that can make
    the form indefinite."""
    rng = np.random.default_rng(seed)
    weight = 10.0 ** (decades * (np.arange(k + 1) / k - 1.0)) * rng.uniform(0.5, 2.0, k + 1)
    stiff = weight * 10.0 ** rng.uniform(0.0, 6.0, k + 1)
    react = weight * 10.0 ** rng.uniform(-2.0, 6.0, k + 1)
    return QPencil(
        a=cell_matrix(stiff, (1.0, -1.0)),
        b=cell_matrix(react, (1.0 / 3.0, 1.0 / 6.0)),
        m=cell_matrix(weight, (1.0 / 3.0, 1.0 / 6.0)),
        nodes=np.arange(k + 2.0),
    )


@settings(deadline=None, max_examples=60)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    k=st.integers(min_value=2, max_value=80),
    decades=st.floats(min_value=0.0, max_value=60.0),
    near=st.lists(st.floats(min_value=-1e-12, max_value=1e-12), min_size=1, max_size=4),
    spread=st.lists(st.floats(min_value=-1.0, max_value=1.0), min_size=1, max_size=4),
)
def test_kernel_matches_numpy_scalar_loops(seed, k, decades, near, spread):
    pencil = random_pencil(seed, k, decades)
    t, m = pencil.a - pencil.b, pencil.m
    with mock.patch.object(
        stability,
        "_negative_count",
        lambda t, m, mu: count_reference(t.diag, t.off, m.diag, m.off, mu),
    ):
        mu_ref = min_eigenvalue(pencil.a, pencil.b, pencil.m)
    mu1 = min_eigenvalue(pencil.a, pencil.b, pencil.m)
    assert mu1 == mu_ref
    scale = max(abs(mu1), float(np.max(np.abs(t.diag / m.diag))))
    shifts = [mu1] + [mu1 * (1.0 + d) for d in near] + [mu1 + s * scale for s in spread]
    for mu in shifts:
        assert _negative_count(t, m, mu) == count_reference(t.diag, t.off, m.diag, m.off, mu)
        assert _pivot_sums(t, m, mu)[0] == _negative_count(t, m, mu)
    for mu in shifts[: 1 + len(near)]:
        assert _min_mode_vector(pencil, mu).tobytes() == mode_reference(pencil, mu).tobytes()


def test_exact_zero_pivot_is_minus_tiny():
    pivots = []
    assert _ldl([1.0, 1.0], [1.0], pivots) == 1
    assert pivots == [1.0, -1e-300]
    identity = Tridiagonal(np.ones(2), np.zeros(1))
    assert _negative_count(Tridiagonal(np.ones(2), np.ones(1)), identity, 0.0) == 1


def test_witness_divides_by_minus_tiny():
    # [[0, 1, 0], [1, 0, 1], [0, 1, 0]] has the eigenvalue 0 with vector
    # (1, 0, -1).  Its first pivot from either end is an exact zero; taken as
    # -1e-300, it makes the middle pivot +1e300 and the witness's middle entry
    # -1e-300, where the reference's +1e-300 gives -1e300 and +1e-300
    t = Tridiagonal(np.zeros(3), np.ones(2))
    identity = Tridiagonal(np.ones(3), np.zeros(2))
    zero = Tridiagonal(np.zeros(3), np.zeros(2))
    pencil = QPencil(a=t, b=zero, m=identity, nodes=np.arange(5.0))
    assert _negative_count(t, identity, 0.0) == 2
    assert _min_mode_vector(pencil, 0.0).tolist() == [1.0, -1e-300, -1.0]
    assert mode_reference(pencil, 0.0).tolist() == [1.0, 1e-300, -1.0]


def dense(t):
    return np.diag(t.diag) + np.diag(t.off, 1) + np.diag(t.off, -1)


def test_min_eigenvalue_matches_dense_reference():
    # the reference: M = L L^T, then the smallest eigenvalue of L^-1 T L^-T;
    # each random pencil also runs without its reaction mass, where A is
    # positive definite, so both signs of mu_1 are covered
    signs = set()
    for seed in range(8):
        for k, decades in ((3, 0.0), (8, 1.0), (12, 2.0)):
            pencil = random_pencil(seed, k, decades)
            zero = Tridiagonal(0.0 * pencil.b.diag, 0.0 * pencil.b.off)
            chol = np.linalg.cholesky(dense(pencil.m))
            for b in (pencil.b, zero):
                c = np.linalg.solve(chol, dense(pencil.a - b))
                reference = np.linalg.eigvalsh(np.linalg.solve(chol, c.T).T)[0]
                mu1 = min_eigenvalue(pencil.a, b, pencil.m)
                assert abs(mu1 - reference) <= 1e-8 * max(abs(reference), 1.0)
                signs.add(np.sign(reference))
    assert signs == {-1.0, 1.0}


def test_pivot_sums_match_dense_spectrum():
    # S1 and S2 are sums over the pencil's eigenvalues: compare them with the
    # eigenvalues of L^-1 T L^-T at shifts below, between and above them
    for seed in range(4):
        pencil = random_pencil(seed, 10, 2.0)
        t, m = pencil.a - pencil.b, pencil.m
        chol = np.linalg.cholesky(dense(m))
        c = np.linalg.solve(chol, dense(t))
        mus = np.linalg.eigvalsh(np.linalg.solve(chol, c.T).T)
        for x in (mus[0] - 1.0, 0.5 * (mus[0] + mus[1]), 0.5 * (mus[4] + mus[5])):
            count, s1, s2 = _pivot_sums(t, m, x)
            assert count == int(np.sum(mus < x))
            assert abs(s1 - np.sum(1.0 / (mus - x))) <= 1e-8 * np.sum(1.0 / np.abs(mus - x))
            assert abs(s2 - np.sum(1.0 / (mus - x) ** 2)) <= 1e-8 * s2


# --- the Laguerre route against the bisection it replaced ---------------------


def _step_down_reference(t, m):
    """(lo, hi) of the step-down ``min_eigenvalue`` ran before it doubled and
    bisected the step index: from the Rayleigh bound, one doubling step at a
    time until a count of 0."""
    hi = float(np.min(t.diag / m.diag))
    while _negative_count(t, m, hi) < 1:
        hi = hi + max(1.0, abs(hi))
    gap = max(1.0, abs(hi))
    lo = hi - gap
    while _negative_count(t, m, lo) > 0:
        hi, gap = lo, 2.0 * gap
        lo = hi - gap
    return lo, hi


def _bisect_reference(a, b, m):
    """The Sturm bisection ``min_eigenvalue`` ran before its Laguerre steps:
    the same Rayleigh bound and doubling step-down, then midpoints until the
    bracket is narrower than 1e-10 of its ends' scale (or 8 ulps)."""
    t = a - b
    lo, hi = _step_down_reference(t, m)
    while True:
        target = max(
            1e-10 * max(abs(lo), abs(hi), 1.0), 8 * math.ulp(max(abs(lo), abs(hi)))
        )
        if hi - lo <= target:
            break
        mid = 0.5 * (lo + hi)
        if _negative_count(t, m, mid) >= 1:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def step_down_counts(a, b, m):
    """Checks that ``min_eigenvalue``'s step-down hands its Laguerre steps the
    (lo, hi) of ``_step_down_reference``: lo is where the first step starts,
    hi the lowest shift counted before it with a negative pivot.  Returns
    the number of counts the step-down and the reference make."""
    t = a - b
    calls = []
    real_count, real_sums = stability._negative_count, stability._pivot_sums

    def count(t_, m_, mu):
        calls.append(("count", mu, real_count(t_, m_, mu)))
        return calls[-1][2]

    def sums(t_, m_, mu):
        calls.append(("sums", mu, None))
        return real_sums(t_, m_, mu)

    with mock.patch.object(stability, "_negative_count", count), mock.patch.object(stability, "_pivot_sums", sums):
        min_eigenvalue(a, b, m)
    first = next(i for i, call in enumerate(calls) if call[0] == "sums")
    with mock.patch.dict(globals(), {"_negative_count": count}):
        calls_before = len(calls)
        lo_ref, hi_ref = _step_down_reference(t, m)
        reference = len(calls) - calls_before
    assert calls[first][1] == lo_ref
    assert min(mu for _, mu, c in calls[:first] if c > 0) == hi_ref
    return first, reference


def rounded_width(lo, hi):
    """``_width`` of a bracket's ends, plus the rounding of an end that was
    computed as the other end plus a width."""
    return _width(lo, hi) + math.ulp(max(abs(lo), abs(hi)))


def certified(a, b, m):
    """min_eigenvalue with its bracket, checked to be Sturm-certified and no
    wider than ``rounded_width``."""
    bracket = []
    mu = min_eigenvalue(a, b, m, bracket)
    lo, hi = bracket
    t = a - b
    assert _negative_count(t, m, lo) == 0
    assert _negative_count(t, m, hi) >= 1
    assert lo <= mu <= hi
    assert hi - lo <= rounded_width(lo, hi)
    return mu, lo, hi


@settings(deadline=None, max_examples=60)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    k=st.integers(min_value=2, max_value=80),
    decades=st.floats(min_value=0.0, max_value=60.0),
    reaction=st.booleans(),
)
def test_laguerre_matches_bisection_on_random_pencils(seed, k, decades, reaction):
    # without its reaction mass the pencil is positive definite, so both
    # signs of mu_1 are covered
    pencil = random_pencil(seed, k, decades)
    b = pencil.b if reaction else Tridiagonal(0.0 * pencil.b.diag, 0.0 * pencil.b.off)
    mu, lo, hi = certified(pencil.a, b, pencil.m)
    assert abs(mu - _bisect_reference(pencil.a, b, pencil.m)) <= rounded_width(lo, hi)
    step_down_counts(pencil.a, b, pencil.m)


@pytest.fixture(scope="module")
def report_problems(continuation_disk, grid2000):
    disk = (continuation_disk.profile_lo, Exponential(continuation_disk.lambda_lo).derivative)
    exact = [exact_exponential(9.0, 2.0), exact_exponential(11.0, 2.0), exact_power(12.0, 2.0, 5.0)]
    return [disk] + [(sol.sample(grid2000), sol.g_prime()) for sol in exact]


@pytest.mark.parametrize("index", range(4), ids=["disk-near-fold", "exp9", "exp11", "power12"])
def test_report_eigenvalues_match_bisection(report_problems, index):
    profile, g_prime = report_problems[index]
    rep = stability_report(profile, g_prime)
    pencil = assemble_q(profile, g_prime, rep.r_trunc, rep.n_eig)
    mu, lo, hi = certified(pencil.a, pencil.b, pencil.m)
    assert mu == rep.mu_1
    assert abs(mu - _bisect_reference(pencil.a, pencil.b, pencil.m)) <= rounded_width(lo, hi)
    # mu_1_alt: mu_1's bracket when the trailing block counts an eigenvalue
    # below hi (its count at lo is 0 by min-max), else the block's own
    j = int(np.searchsorted(pencil.nodes, rep.r_trunc_alt))
    a, b, m = (Tridiagonal(t.diag[j:], t.off[j:]) for t in (pencil.a, pencil.b, pencil.m))
    if _negative_count(a - b, m, hi) >= 1:
        assert _negative_count(a - b, m, lo) == 0
        assert rep.mu_1_alt == mu
    else:
        mu_alt, lo, hi = certified(a, b, m)
        assert rep.mu_1_alt == mu_alt
    assert abs(rep.mu_1_alt - _bisect_reference(a, b, m)) <= rounded_width(lo, hi)


@pytest.mark.parametrize("index", range(4), ids=["disk-near-fold", "exp9", "exp11", "power12"])
def test_step_down_bisects_its_index(report_problems, index):
    """The step-down doubles and then bisects the index of its first step
    without a negative pivot, and finds the ends the one-step-at-a-time loop
    found.  On exact n = 9, mu_1 ~ -2.4e10 lies 23 doubling steps below the
    Rayleigh bound: 11 counts instead of 24, and 9 instead of 17 for its
    trailing block's mu_1_alt."""
    profile, g_prime = report_problems[index]
    rep = stability_report(profile, g_prime)
    pencil = assemble_q(profile, g_prime, rep.r_trunc, rep.n_eig)
    j = int(np.searchsorted(pencil.nodes, rep.r_trunc_alt))
    block = [Tridiagonal(t.diag[j:], t.off[j:]) for t in (pencil.a, pencil.b, pencil.m)]
    for a, b, m in ((pencil.a, pencil.b, pencil.m), block):
        counts, reference = step_down_counts(a, b, m)
        assert counts <= reference
        if reference > 12:
            assert counts <= 2 * math.log2(reference) + 2


@pytest.mark.parametrize("scale", [1e12, 1e-12, math.nan], ids=["short", "long", "nan"])
def test_wrong_laguerre_steps_still_give_a_certified_bracket(monkeypatch, scale):
    # the steps only steer the search, the Sturm counts certify it: with
    # S1 and S2 scaled so that every step is far too short, far too long or
    # not a number, the search falls back to midpoints and still certifies
    real = stability._pivot_sums

    def wrong(t, m, mu):
        count, s1, s2 = real(t, m, mu)
        return count, s1 * scale, s2 * scale * scale

    monkeypatch.setattr(stability, "_pivot_sums", wrong)
    for seed in range(4):
        pencil = random_pencil(seed, 30, 20.0)
        mu, lo, hi = certified(pencil.a, pencil.b, pencil.m)
        assert abs(mu - _bisect_reference(pencil.a, pencil.b, pencil.m)) <= rounded_width(lo, hi)
