"""The monotone iteration's buffered sweep kernel against the plain sweep.

``solver._iteration_step`` writes each sweep into the work arrays of a
``_SweepKernel``.  The reference kept here is the plain form of the same
sweep: ``**`` and the public cumulative sums as they were written before the
kernel, with ``np.cumsum`` into freshly allocated results, so a change to
the kernel's accumulation shows here too.  Whole probes stepped by either
must give the same records and the same profiles, bit for bit, and a
returned profile must own its arrays."""

from itertools import combinations
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from plaplab import (
    Exponential,
    IterationControls,
    Power,
    ProblemSpec,
    RadialProfile,
    Tabulated,
    lambda_star_estimate,
    make_grid,
    make_rule,
    solver,
)
from plaplab.core import ConsistencyError, EvaluationError, ParameterError

# (1+u)^3 on log-spaced knots: cubic Hermite interpolation reproduces it
_KNOTS = np.concatenate([[0.0], np.geomspace(1e-3, 2e6, 40)])
REACTIONS = {
    "exp": Exponential(1.0),
    "power": Power(3.0),
    "table": Tabulated(tuple(_KNOTS), tuple((1.0 + _KNOTS) ** 3), tuple(3.0 * (1.0 + _KNOTS) ** 2)),
}


def from_zero(rule, h):
    out = np.empty(len(h))
    out[0] = rule.head * h[0]
    np.cumsum(rule.cell_integrals(h), out=out[1:])
    out[1:] += out[0]
    return out


def to_one(rule, h):
    out = np.empty(len(h))
    out[-1] = 0.0
    np.cumsum(rule.cell_integrals(h)[::-1], out=out[-2::-1])
    return out


def reference_step(grid, n, p):
    """The plain sweep on ``grid``.  ``cell_integrals`` rejects a non-finite
    integrand, so a sweep that meets one returns an all-inf u: the next u[0]
    of the kernel is then non-finite, and the loop ends the probe alike."""
    rule_src, rule_out = make_rule(grid, n), make_rule(grid, 1.0)
    rpow, q = grid.r ** (1.0 - n), 1.0 / (p - 1.0)

    def step(u, lam, f, kernel):
        h = lam * np.asarray(f.value(u), dtype=float)
        if not np.isfinite(h).all():
            return np.full_like(u, np.inf), h
        F = from_zero(rule_src, h)
        s = (F * rpow) ** q
        if not np.isfinite(s).all():
            return np.full_like(u, np.inf), F
        return to_one(rule_out, s), F

    return step


def probes(n, p, lam, log_r_min, count, reaction, u_max, k_max):
    """Probes at lam and 2 lam through one kernel: (record, outcome) pairs,
    or the exception a probe raised."""
    spec = ProblemSpec(n, p, REACTIONS[reaction])
    grid = make_grid(10.0**log_r_min, count)
    iterate = solver._monotone_iteration(spec, grid, IterationControls(u_max=u_max, k_max=k_max))
    out = []
    for lam_k in (lam, 2.0 * lam):
        try:
            outcome, record = iterate(lam_k)
        except (ConsistencyError, EvaluationError, ParameterError) as exc:
            out.append((type(exc), str(exc)))
        else:
            out.append((record, outcome))
    return out


def assert_same(got, want):
    assert len(got) == len(want)
    for (rec, out), (rec_ref, out_ref) in zip(got, want):
        assert rec == rec_ref
        if isinstance(out, RadialProfile):
            for name in ("u", "w", "u_r"):
                assert np.array_equal(getattr(out, name), getattr(out_ref, name))
        else:
            assert out == out_ref


DISK = dict(n=2.0, p=2.0, log_r_min=-8.0, count=2000, reaction="exp", u_max=1e6, k_max=10000)
# (draw, the first probe's reason)
CASES = [
    (dict(DISK, lam=1.0), "converged"),  # p = 2: q = 1 skips the power
    (dict(DISK, n=3.0, p=3.0, lam=1.0), "converged"),  # q = 1/2: the sqrt fast path
    (dict(DISK, n=12.0, log_r_min=-6.0, count=16, lam=1.0), "converged"),  # the 2-point stencil
    (dict(DISK, n=3.0, p=1.5, lam=100.0), "overflow"),  # the slope (F r^(1-n))^2 overflows
    (dict(DISK, lam=4.0, u_max=1e300), "overflow"),  # e^u overflows
    (dict(DISK, n=3.0, reaction="table", lam=1.0), "converged"),
    (dict(DISK, lam=5.0), "exceeded u_max"),
    (dict(DISK, lam=1.0, k_max=5), "iteration cap"),
    (dict(DISK, lam=3.0), "unstable iterate"),  # p = 2 and e^u convex: certified
]


def with_cases(test):
    for draw, _ in CASES:
        test = example(**draw)(test)
    return test


@pytest.mark.parametrize("draw, reason", CASES)
def test_cases_end_as_intended(draw, reason, request):
    if reason in ("exceeded u_max", "overflow"):
        # these cases test their own paths, which the certified stop ends sooner
        request.getfixturevalue("without_unstable_stop")
    (record, _), _ = probes(**draw)
    assert record.reason == reason
    if draw["count"] == 16:
        assert make_rule(make_grid(1e-6, 16), draw["n"])._stencil == 2


@settings(deadline=None, max_examples=60)
@given(
    n=st.floats(min_value=1.0, max_value=30.0),
    p=st.floats(min_value=1.1, max_value=6.0),
    lam=st.floats(min_value=1e-3, max_value=1e3),
    log_r_min=st.floats(min_value=-10.0, max_value=-0.5),
    count=st.integers(min_value=16, max_value=600),
    reaction=st.sampled_from(sorted(REACTIONS)),
    u_max=st.sampled_from([1e6, 1e300]),
    k_max=st.integers(min_value=1, max_value=200),
)
@with_cases
def test_kernel_probes_equal_reference_probes(n, p, lam, log_r_min, count, reaction, u_max, k_max):
    draw = dict(n=n, p=p, lam=lam, log_r_min=log_r_min, count=count, reaction=reaction, u_max=u_max, k_max=k_max)
    got = probes(**draw)
    with mock.patch.object(solver, "_iteration_step", reference_step(make_grid(10.0**log_r_min, count), n, p)):
        want = probes(**draw)
    assert_same(got, want)


def test_results_own_their_arrays(gelfand_disk_spec):
    """Later probes and searches leave an earlier profile as it was, and no
    two returned arrays share memory."""
    grid = make_grid(1e-8, 400)
    iterate = solver._monotone_iteration(gelfand_disk_spec, grid, IterationControls())
    first, _ = iterate(1.0)
    kept = [first.u.copy(), first.w.copy()]
    second, _ = iterate(1.5)
    search = lambda_star_estimate(gelfand_disk_spec, grid)
    assert np.array_equal(first.u, kept[0]) and np.array_equal(first.w, kept[1])
    arrays = [
        a
        for profile in (first, second, search.profile_lo)
        for a in (profile.u, profile.w, profile.u_r)
    ]
    for a, b in combinations(arrays, 2):
        assert not np.shares_memory(a, b)
