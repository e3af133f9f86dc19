"""The benchmark's three workloads: jobs, seeded inputs and correctness checks.

A job is one ``plaplab.cli.main([...])`` call.  The seed draws only inputs
whose exact value no reference depends on: the extra fold problem's p, the
table nodes of the tabulated reaction, the n=5 and n=12 curve centres and
the supercritical sweep's p values.  Each draw is jittered inside a fixed
band, so every seed asks for about the same amount of work and the pass
time measures the program rather than the draw.  Jobs checked against a
closed form, and every CLI default, stay fixed.

A check returns a ``Verdict``.  Its ``errors`` are relative distances from an
answer to its reference (they feed ``oracle_err``), its ``widths`` are the
relative widths of the intervals the job certifies (they feed
``bracket_rel``).  A check never raises on a wrong answer; it reports it.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

K_MAX = 10000  # the CLI's default iteration cap, [solver] k_max
TOL_LAMBDA = 1e-3  # the CLI's default [solver] tol_lambda

DISK_LAMBDA_STAR = 2.0

# the n=2 curve has a closed form, so its centres stay fixed: secant-solved
# points miss it by 1e-12 to 1e-8 depending on M, and seeded centres would
# make oracle_err jump by that much between seeds.  They cross the fold at
# M = 2 log 2 from both sides.
DISK_CENTRES = (0.5, 0.9, 1.2, 1.5, 2.0, 3.0)
# (lo, hi) bands for the seeded centres, one draw per band
N5_CENTRE_BANDS = ((0.8, 1.2), (1.8, 2.2), (2.8, 3.2), (3.8, 4.2), (5.5, 6.5), (7.5, 8.5), (9.5, 10.5))
N12_CENTRE_BANDS = ((0.8, 1.2), (1.8, 2.2), (3.5, 4.5), (5.5, 6.5), (7.5, 8.5))
N5_P_BAND = (2.95, 3.05)
SWEEP_P_BANDS = ((2.3, 2.7), (3.5, 4.0))
TABLE_NODES = 400
TABLE_U_MAX = 2e6  # above the CLI's default u_max = 1e6, so probes stay inside


def _slab_lambda_star() -> float:
    """1-D Gelfand problem: lambda* = 2 (c / cosh c)^2 with c tanh c = 1."""
    lo, hi = 1.0, 2.0
    for _ in range(200):
        c = 0.5 * (lo + hi)
        if c * math.tanh(c) < 1.0:
            lo = c
        else:
            hi = c
    return 2.0 * (c / math.cosh(c)) ** 2


SLAB_LAMBDA_STAR = _slab_lambda_star()


def critical_dimension(p: float) -> float:
    return p + 4.0 * p / (p - 1.0)


def singular_lambda(n: float, p: float) -> float:
    """Parameter of the singular solution -p log r: p^(p-1) (n - p)."""
    return p ** (p - 1.0) * (n - p)


def exponential_verdict(n: float, p: float) -> str:
    """The singular solution -p log r is semi-stable iff n >= p + 4p/(p-1)."""
    return "semi-stable" if n >= critical_dimension(p) else "unstable"


def liouville_lambda(m: float) -> float:
    """Disk (n=2, p=2) curve: lambda(M) = 8b/(1+b)^2 with b = e^(M/2) - 1."""
    b = math.exp(0.5 * m) - 1.0
    return 8.0 * b / (1.0 + b) ** 2


@dataclass
class Verdict:
    ok: bool
    detail: str = ""
    errors: list = field(default_factory=list)
    widths: list = field(default_factory=list)


@dataclass
class JobRun:
    """What one job left behind: exit code, output directory, printed text,
    the results the CLI's solver calls returned, and the job's wall time."""

    code: int
    out: Path
    text: str
    brackets: list  # ContinuationResult per lambda_star_estimate call
    curves: list  # list[BifurcationPoint] per bifurcation_curve call
    seconds: float = 0.0
    error: str = ""


@dataclass
class Job:
    name: str
    argv: list
    check: Callable[["JobRun", dict], Verdict]


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------


def _bracket(lo: float, hi: float) -> tuple[bool, float]:
    width = (hi - lo) / lo
    return (0.0 < lo < hi and width <= TOL_LAMBDA * (1.0 + 1e-12)), width


def _read_json(path: Path) -> dict:
    return json.loads(path.read_text())


def check_exit(run: JobRun) -> Verdict | None:
    if run.error:
        return Verdict(False, run.error)
    if run.code != 0:
        last = run.text.strip().splitlines()[-1:] or [""]
        return Verdict(False, f"exit code {run.code}: {last[0]}")
    return None


def check_lambda_star(reference: float | None = None, above: float | None = None):
    """lambda-star job: a valid bracket no wider than tol_lambda; its midpoint
    within 1% of ``reference`` if given; strictly above ``above`` if given
    (the subcritical side, where lambda* exceeds the singular parameter)."""

    def check(run: JobRun, shared: dict) -> Verdict:
        bad = check_exit(run)
        if bad:
            return bad
        rep = _read_json(run.out / "report.json")
        lo, hi = rep["lambda_lo"], rep["lambda_hi"]
        ok, width = _bracket(lo, hi)
        mid = 0.5 * (lo + hi)
        verdict = Verdict(ok, f"[{lo:.6g}, {hi:.6g}]", widths=[width])
        if reference is not None:
            err = abs(mid - reference) / reference
            verdict.errors.append(err)
            verdict.ok &= err <= 1e-2 and lo <= reference * 1.01 and hi >= reference * 0.99
            verdict.detail += f" vs {reference:.6g}"
        if above is not None:
            verdict.ok &= lo > above
            verdict.detail += f" above {above:.6g}"
        shared[run.out.name] = (lo, hi)
        return verdict

    return check


def check_tabulated(power_job: str):
    """The tabulated cubic reproduces (1+u)^3 exactly, so its bracket must
    overlap the power job's bracket of the same pass."""

    base = check_lambda_star()

    def check(run: JobRun, shared: dict) -> Verdict:
        verdict = base(run, shared)
        if run.code != 0 or run.error:
            return verdict
        if power_job not in shared:
            return Verdict(False, f"no {power_job} bracket to compare with")
        p_lo, p_hi = shared[power_job]
        lo, hi = shared[run.out.name]
        ref = 0.5 * (p_lo + p_hi)
        verdict.errors.append(abs(0.5 * (lo + hi) - ref) / ref)
        verdict.ok &= lo <= p_hi and p_lo <= hi
        verdict.detail += f" vs power [{p_lo:.6g}, {p_hi:.6g}]"
        return verdict

    return check


def check_verify(scenario: str, reference: float | None = None):
    """verify job: exit code 0, every check in its report passed, and, when
    the scenario brackets lambda*, the bracket against its closed form."""

    def check(run: JobRun, shared: dict) -> Verdict:
        bad = check_exit(run)
        if bad:
            return bad
        rep = _read_json(run.out / f"verify_{scenario}.json")
        failed = [c["name"] for c in rep["checks"] if not c["passed"]]
        verdict = Verdict(bool(rep["passed"]) and not failed, ", ".join(failed))
        if reference is not None:
            if not run.brackets:
                return Verdict(False, "no lambda* bracket was computed")
            res = run.brackets[0]
            ok, width = _bracket(res.lambda_lo, res.lambda_hi)
            err = abs(0.5 * (res.lambda_lo + res.lambda_hi) - reference) / reference
            verdict.ok &= ok and err <= 1e-2
            verdict.errors.append(err)
            verdict.widths.append(width)
        return verdict

    return check


def _curve_points(run: JobRun) -> list:
    return _read_json(run.out / "report.json")["points"]


def check_disk_curve(run: JobRun, shared: dict) -> Verdict:
    """n=2 curve against the Liouville family; no point above lambda* = 2."""
    bad = check_exit(run)
    if bad:
        return bad
    points = _curve_points(run)
    errors = [abs(pt["lambda"] - liouville_lambda(pt["center_value"])) / liouville_lambda(pt["center_value"]) for pt in points]
    widths = [pt["boundary_residual"] / pt["center_value"] for pt in points]
    ok = (
        len(points) == len(DISK_CENTRES)
        and all(pt["converged"] for pt in points)
        and max(errors) <= 1e-6
        and max(pt["lambda"] for pt in points) <= DISK_LAMBDA_STAR * (1.0 + 1e-6)
    )
    return Verdict(ok, f"worst {max(errors):.2e} vs Liouville", errors=errors, widths=widths)


def check_oscillating_curve(n: float, p: float, count: int):
    """Subcritical curve (n < p + 4p/(p-1)): it rises above the singular
    parameter and its last, large-M point lies within 1% of it."""

    lam_s = singular_lambda(n, p)

    def check(run: JobRun, shared: dict) -> Verdict:
        bad = check_exit(run)
        if bad:
            return bad
        points = _curve_points(run)
        lams = [pt["lambda"] for pt in points]
        ok = (
            len(points) == count
            and all(pt["converged"] for pt in points)
            and max(lams) > lam_s
            and abs(lams[-1] - lam_s) <= 1e-2 * lam_s
        )
        return Verdict(ok, f"max {max(lams):.5g}, last {lams[-1]:.5g} around {lam_s:g}")

    return check


def check_monotone_curve(n: float, p: float, count: int):
    """Supercritical curve: increasing in M and below the singular parameter."""

    lam_s = singular_lambda(n, p)

    def check(run: JobRun, shared: dict) -> Verdict:
        bad = check_exit(run)
        if bad:
            return bad
        points = _curve_points(run)
        lams = [pt["lambda"] for pt in points]
        ok = (
            len(points) == count
            and all(pt["converged"] for pt in points)
            and all(a < b for a, b in zip(lams, lams[1:]))
            and lams[-1] < lam_s
        )
        return Verdict(ok, f"rises to {lams[-1]:.6g} below {lam_s:g}")

    return check


def check_stability(expected: str):
    def check(run: JobRun, shared: dict) -> Verdict:
        bad = check_exit(run)
        if bad:
            return bad
        verdict = _read_json(run.out / "stability.json")["stability"]["verdict"]
        return Verdict(verdict == expected, f"{verdict}, expected {expected}")

    return check


def check_sweep(points: list):
    """Every sweep point brackets p^(p-1)(n-p) within 1%, and index.csv and
    every report.json are byte-identical to the first pass's."""

    def check(run: JobRun, shared: dict) -> Verdict:
        bad = check_exit(run)
        if bad:
            return bad
        files = sorted(run.out.rglob("*.json")) + [run.out / "index.csv"]
        snapshot = {str(f.relative_to(run.out)): f.read_bytes() for f in files}
        first = shared.setdefault(("sweep-bytes", run.out.name), snapshot)
        verdict = Verdict(first == snapshot)
        if first != snapshot:
            verdict.detail = "output differs from the first pass"
        with open(run.out / "index.csv", newline="") as handle:
            rows = list(csv.DictReader(handle))
        verdict.ok &= sorted((float(row["n"]), float(row["p"])) for row in rows) == sorted(points)
        for row in rows:
            n, p = float(row["n"]), float(row["p"])
            if row["status"] != "ok":
                verdict.ok = False
                continue
            lo, hi = float(row["lambda_lo"]), float(row["lambda_hi"])
            ok, width = _bracket(lo, hi)
            ref = singular_lambda(n, p)
            err = abs(0.5 * (lo + hi) - ref) / ref
            verdict.ok &= ok and err <= 1e-2 and n >= critical_dimension(p)
            verdict.errors.append(err)
            verdict.widths.append(width)
        return verdict

    return check


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------


def _draw(rng: np.random.Generator, bands) -> list[float]:
    """One value per band, rounded to 4 decimals so the CLI reads it exactly."""
    return [round(float(rng.uniform(lo, hi)), 4) for lo, hi in bands]


def _csv(values) -> str:
    return ",".join(repr(v) for v in values)


def write_cubic_table(path: Path, rng: np.random.Generator) -> None:
    """(1+u)^3 with exact slopes on jittered log-spaced nodes over [0, 2e6].

    Cubic Hermite interpolation reproduces a cubic, and the Fritsch-Carlson
    cap 3 min(secants) never binds for it, so the table is (1+u)^3.
    """
    inner = np.geomspace(1e-3, TABLE_U_MAX, TABLE_NODES - 1)
    jitter = rng.uniform(-0.3, 0.3, size=TABLE_NODES - 3)
    ratio = inner[1] / inner[0]
    inner[1:-1] *= ratio**jitter
    u = [0.0] + [float(x) for x in inner]
    lines = ["u,g,gp"] + [f"{x!r},{(1.0 + x) ** 3!r},{3.0 * (1.0 + x) ** 2!r}" for x in u]
    path.write_text("\n".join(lines) + "\n")


def _config(path: Path, text: str) -> str:
    path.write_text(text)
    return str(path)


def fold(seed: int, inputs: Path) -> list[Job]:
    rng = np.random.default_rng([seed, 1])
    p5 = _draw(rng, [N5_P_BAND])[0]
    table = inputs / "cubic.csv"
    write_cubic_table(table, rng)
    power = _config(inputs / "power.ini", "[problem]\nn = 3\np = 2\nnonlinearity = power\nm = 3\n")
    tab = _config(
        inputs / "tabulated.ini",
        f"[problem]\nn = 3\np = 2\nnonlinearity = tabulated\ntabulated_file = {table}\n",
    )
    return [
        Job("verify-disk", ["verify", "--scenario", "gelfand-disk"], check_verify("gelfand-disk", DISK_LAMBDA_STAR)),
        Job("slab", ["lambda-star", "--n", "1", "--p", "2"], check_lambda_star(SLAB_LAMBDA_STAR)),
        Job("n5", ["lambda-star", "--n", "5", "--p", repr(p5)], check_lambda_star(above=singular_lambda(5.0, p5))),
        Job("power", ["--config", power, "lambda-star"], check_lambda_star()),
        Job("tabulated", ["--config", tab, "lambda-star"], check_tabulated("power")),
    ]


def curve(seed: int, inputs: Path) -> list[Job]:
    rng = np.random.default_rng([seed, 2])
    n5 = _draw(rng, N5_CENTRE_BANDS)
    n12 = _draw(rng, N12_CENTRE_BANDS)
    return [
        Job("disk", ["bifurcate", "--n", "2", "--p", "2", "--centers", _csv(DISK_CENTRES)], check_disk_curve),
        Job("n5", ["bifurcate", "--n", "5", "--p", "2", "--centers", _csv(n5)], check_oscillating_curve(5.0, 2.0, len(n5))),
        Job("n12", ["bifurcate", "--n", "12", "--p", "2", "--centers", _csv(n12)], check_monotone_curve(12.0, 2.0, len(n12))),
    ]


def singular(seed: int, inputs: Path) -> list[Job]:
    rng = np.random.default_rng([seed, 3])
    p_values = [3.0] + _draw(rng, SWEEP_P_BANDS)
    n_values = [10.0, 12.0]
    sweep = _config(
        inputs / "sweep.ini",
        f"[sweep]\np_values = {_csv(p_values)}\nn_values = {_csv(n_values)}\n",
    )
    points = [(n, p) for n in n_values for p in p_values]
    # the power job runs at the CLI's default m = 5; for p = 2 its singular
    # solution is semi-stable iff lambda_s m <= (n-2)^2/4 (Hardy), with
    # lambda_s = g (n - m g) and g = 2/(m-1)
    m, n_pow = 5.0, 12.0
    gamma = 2.0 / (m - 1.0)
    power_stable = gamma * (n_pow - m * gamma) * m <= (n_pow - 2.0) ** 2 / 4.0
    return [
        Job("sweep", ["--config", sweep, "--force", "sweep"], check_sweep(points)),
        Job("exp-n9", ["stability", "--n", "9", "--p", "2", "--exact", "exponential"],
            check_stability(exponential_verdict(9.0, 2.0))),
        Job("exp-n11", ["stability", "--n", "11", "--p", "2", "--exact", "exponential"],
            check_stability(exponential_verdict(11.0, 2.0))),
        Job("power-n12", ["stability", "--n", "12", "--p", "2", "--exact", "power"],
            check_stability("semi-stable" if power_stable else "unstable")),
        Job("verify-supercritical", ["verify", "--scenario", "supercritical-exp"],
            check_verify("supercritical-exp", singular_lambda(12.0, 2.0))),
        Job("verify-power-critical", ["verify", "--scenario", "power-critical"], check_verify("power-critical")),
    ]


WORKLOADS = {"fold": fold, "curve": curve, "singular": singular}
