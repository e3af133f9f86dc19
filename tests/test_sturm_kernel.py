"""The stability layer's LDL^T kernel against the numpy-scalar loops it
replaced.

``_negative_count`` and ``_min_mode_vector`` share one pivot recurrence over
Python floats.  The straightforward forms kept here step over numpy scalars,
with separate forward and backward pivot loops; on random pencils scaled
over many decades, as r^n scales the rows on a log grid, both must give the
same counts, the same witness bits and the same minimal eigenvalue.
"""

from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from plaplab import stability
from plaplab.stability import (
    QPencil,
    Tridiagonal,
    _ldl,
    _min_mode_vector,
    _negative_count,
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
