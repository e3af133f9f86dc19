"""Command-line surface: config ingestion, report serialization, sweeps.

Configuration is a flat INI-style file ([section] headers, key = value
lines); sweeps need dozens of parameters, so positional flags alone would
not do.  Any key can be overridden on the command line (the flag wins).
Unknown keys are hard errors: silent typos have ruined enough parameter
studies.

Every JSON report carries the schema version, tool version, and the full
resolved configuration, so each number is reproducible from the report
alone.  Profile CSVs use 17-significant-digit decimals: lossless binary64
round-trips without committing to a binary format.

Exit codes: 0 success; 2 usage/config errors; 3 mathematical outcomes
(divergence, an undecided probe, or failed verification where success was
required); 4 internal assertion failures.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
import warnings
from dataclasses import astuple, fields
from pathlib import Path

import numpy as np

from . import __version__
from .core import (
    ConsistencyError,
    EvaluationError,
    Exponential,
    ParameterError,
    Power,
    ProblemSpec,
    RadialGrid,
    RadialProfile,
    Tabulated,
    _jsonable,
    _key,
    make_grid,
)
from .solver import (
    UNDECIDED,
    BifurcationPoint,
    BracketingError,
    IterationControls,
    LambdaRecord,
    bifurcation_curve,
    lambda_star_estimate,
    minimal_iterate,
)

# stability, estimates, exponents, oracle and configparser are imported by
# the commands that use them: bifurcate, lambda-star and sweep (and every
# spawned sweep worker) never pay for them


class ConfigError(ValueError):
    pass


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

_SCHEMA: dict[str, dict[str, tuple[str, type]]] = {
    "problem": {
        "n": ("2.0", float),
        "p": ("2.0", float),
        "nonlinearity": ("exponential", str),  # exponential | power | tabulated
        "m": ("5.0", float),
        "lambda": ("1.0", float),
        "tabulated_file": ("", str),
    },
    "grid": {
        "r_min": ("1e-8", float),
        "nodes": ("2000", int),
    },
    "solver": {
        "tol_abs": ("1e-11", float),
        "tol_rel": ("1e-10", float),
        "u_max": ("1e6", float),
        "k_max": ("10000", int),
        "tol_lambda": ("1e-3", float),
        "lambda_init": ("1.0", float),
        "lambda_cap": ("1e8", float),
    },
    "stability": {
        "r_trunc": ("1e-6", float),
        "n_eig": ("500", int),
        "tol_eig": ("1e-8", float),
    },
    "estimates": {
        "q_values": ("", str),  # comma-separated extra q's to report
    },
    "output": {
        "directory": ("plaplab-out", str),
    },
    "sweep": {
        "p_values": ("", str),
        "n_values": ("", str),
    },
}


def load_config(path: str | None, overrides: dict | None = None) -> dict:
    """Defaults, then the config file, then command-line overrides, as
    {section: {key: value}}."""
    values = {s: {k: conv(d) for k, (d, conv) in keys.items()} for s, keys in _SCHEMA.items()}
    if path:
        import configparser

        parser = configparser.ConfigParser()
        read = parser.read(path)
        if not read:
            raise ConfigError(f"config file not found: {path}")
        for section in parser.sections():
            if section not in _SCHEMA:
                raise ConfigError(f"unknown config section [{section}]")
            for key, raw in parser.items(section):
                if key not in _SCHEMA[section]:
                    raise ConfigError(f"unknown config key '{key}' in [{section}]")
                conv = _SCHEMA[section][key][1]
                try:
                    values[section][key] = conv(raw)
                except ValueError as exc:
                    raise ConfigError(f"bad value for [{section}] {key}: {raw}") from exc
    for (section, key), val in (overrides or {}).items():
        if val is None:
            continue
        values[section][key] = _SCHEMA[section][key][1](val)
    return values


def _float_list(raw: str) -> list[float]:
    values = []
    for tok in raw.replace(",", " ").split():
        try:
            values.append(float(tok))
        except ValueError:
            raise ConfigError(f"not a number: {tok!r} in list {raw!r}") from None
    return values


def _nonlinearity(cfg: dict):
    kind = cfg["problem"]["nonlinearity"].lower()
    if kind == "exponential":
        return Exponential(1.0)
    if kind == "power":
        return Power(cfg["problem"]["m"], 1.0)
    if kind == "tabulated":
        path = cfg["problem"]["tabulated_file"]
        if not path:
            raise ConfigError("tabulated nonlinearity needs tabulated_file")
        rows = _read_csv_table(Path(path), 3, "tabulated")
        return Tabulated(tuple(rows[:, 0]), tuple(rows[:, 1]), tuple(rows[:, 2]))
    raise ConfigError(f"unknown nonlinearity kind: {kind}")


def _problem(cfg: dict) -> ProblemSpec:
    return ProblemSpec(cfg["problem"]["n"], cfg["problem"]["p"], _nonlinearity(cfg))


def _grid(cfg: dict) -> RadialGrid:
    return make_grid(cfg["grid"]["r_min"], cfg["grid"]["nodes"])


def _controls(cfg: dict) -> IterationControls:
    return IterationControls(
        tol_abs=cfg["solver"]["tol_abs"],
        tol_rel=cfg["solver"]["tol_rel"],
        u_max=cfg["solver"]["u_max"],
        k_max=cfg["solver"]["k_max"],
    )


def _lambda_star(spec: ProblemSpec, grid: RadialGrid, cfg: dict):
    """``lambda_star_estimate`` with the [solver] settings of cfg."""
    return lambda_star_estimate(
        spec,
        grid,
        _controls(cfg),
        tol_lambda=cfg["solver"]["tol_lambda"],
        lam_init=cfg["solver"]["lambda_init"],
        lam_cap=cfg["solver"]["lambda_cap"],
    )


def __getattr__(name: str):
    # stability_report is found on first use (PEP 562), so importing the CLI
    # does not import the stability module; it is still patchable here
    if name == "stability_report":
        from .stability import stability_report

        return stability_report
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def _stability(profile: RadialProfile, gp, cfg: dict):
    """``stability_report`` with the [stability] settings of cfg, read as
    this module's attribute at call time, so a patch of it here or in
    ``plaplab.stability`` takes effect."""
    return sys.modules[__name__].stability_report(
        profile,
        gp,
        r_trunc=cfg["stability"]["r_trunc"],
        n_eig=cfg["stability"]["n_eig"],
        tol_eig=cfg["stability"]["tol_eig"],
    )


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def base_report(cfg: dict, **payload) -> dict:
    report = {
        "schema": 1,
        "tool": {"name": "plaplab", "version": __version__},
        "config": cfg,
    }
    report.update(payload)
    return _jsonable(report)


def _atomic_write(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _dumps(report: dict) -> str:
    return json.dumps(report, indent=2, sort_keys=True)


def write_json(path: Path, report: dict) -> str:
    """Write ``report`` to ``path``; returns the text without its newline."""
    text = _dumps(report)
    _atomic_write(path, text + "\n")
    return text


def _emit(path: Path, report: dict) -> None:
    """Write ``report`` to ``path`` and print the same text."""
    print(write_json(path, report))


def _cell(x) -> str:
    """One CSV cell: 17 significant digits for a float, 0/1 for a bool,
    empty for None."""
    if x is None:
        return ""
    if isinstance(x, bool):
        return str(int(x))
    if isinstance(x, float):
        return format(float(x), ".17g")
    return str(x)


def _write_csv(path: Path, header, rows) -> None:
    lines = [",".join(header)] + [",".join(map(_cell, row)) for row in rows]
    _atomic_write(path, "\n".join(lines) + "\n")


def _columns(cls) -> list[str]:
    """CSV header of a result dataclass: its report keys in field order."""
    return [_key(f.name) for f in fields(cls)]


def _read_csv_table(path: Path, columns: int, what: str) -> np.ndarray:
    """The numeric rows of a CSV input file below its header line: exactly
    ``columns`` columns and at least two rows, or ConfigError."""
    if not path.is_file():
        raise ConfigError(f"{what} file not found: {path}")
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # numpy warns on a file without rows
            data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot read {what} file {path}: {exc}") from exc
    rows, cols = data.shape
    if rows < 2 or cols != columns:
        raise ConfigError(
            f"{what} file {path} needs {columns} columns and at least two rows, "
            f"got {cols} columns and {rows} rows"
        )
    return data


def read_profile_csv(path: Path, n: float, p: float) -> RadialProfile:
    """The profile in a CSV of columns r, u, u_r, w.  The radii must be
    make_grid(r[0], rows)'s nodes to 1e-9 relative; u_r is derived from w,
    and the stored column is only checked against it to 1e-9."""
    data = _read_csv_table(Path(path), 4, "profile")
    grid = make_grid(float(data[0, 0]), len(data))
    if not np.max(np.abs(data[:, 0] - grid.r) / grid.r) <= 1e-9:
        raise ConfigError("profile radii are not make_grid's nodes from r[0] to 1")
    profile = RadialProfile(grid=grid, n=n, p=p, u=data[:, 1], w=data[:, 3], check=False)
    stored = data[:, 2]
    scale = np.maximum(np.abs(stored), 1e-300)
    if not np.max(np.abs(stored - profile.u_r) / scale) <= 1e-9:
        raise ConfigError("profile columns are inconsistent (u_r vs w)")
    return profile


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def cmd_exponents(args, cfg: dict) -> int:
    from .exponents import exponent_report

    report = exponent_report(args.n, args.p)
    print(_dumps(base_report(cfg, exponents=report.as_dict())))
    return 0


def cmd_solve(args, cfg: dict) -> int:
    from .estimates import check_regularity_bounds

    spec = _problem(cfg)
    grid = _grid(cfg)
    lam = cfg["problem"]["lambda"]
    result = minimal_iterate(spec, lam, grid, _controls(cfg))
    if isinstance(result, LambdaRecord):
        outcome = "undecided" if result.reason in UNDECIDED else "divergence"
        _emit(args.out / "report.json", base_report(cfg, outcome=outcome, record=result))
        return 3
    scaled = ProblemSpec(spec.n, spec.p, spec.nonlinearity.with_scale(lam))
    stab = _stability(result, scaled.nonlinearity.derivative, cfg)
    q_values = _float_list(cfg["estimates"]["q_values"])
    est = check_regularity_bounds(result, scaled, stab, q_values=q_values)
    report = base_report(
        cfg,
        outcome="converged",
        grid={"r_min": grid.r_min, "nodes": grid.size},
        stability=stab.as_dict(),
        estimates=est.as_dict(),
    )
    _write_csv(args.out / "profile.csv", ("r", "u", "u_r", "w"), zip(grid.r, result.u, result.u_r, result.w))
    _emit(args.out / "report.json", report)
    return 0


def _lambda_star_report(cfg: dict, out: Path, grid: RadialGrid) -> dict:
    """The lambda* search of cfg's problem on ``grid``, cfg's [grid]: the
    "bracketed" report, after writing its records to ``out``/lambda_sweep.csv,
    or the "no-bracket" one with the search's diagnosis.
    ``tolerance_reached`` says whether the bracket passed the search's
    width test: a hole of undecided probes, or max_bisect, can end a search
    short of it."""
    try:
        result = _lambda_star(_problem(cfg), grid, cfg)
    except BracketingError as exc:
        return base_report(cfg, outcome="no-bracket", diagnosis=str(exc))
    _write_csv(out / "lambda_sweep.csv", _columns(LambdaRecord), map(astuple, result.records))
    return base_report(
        cfg,
        outcome="bracketed",
        lambda_lo=result.lambda_lo,
        lambda_hi=result.lambda_hi,
        tolerance_reached=result.tolerance_reached,
        undecided=[rec.lam for rec in result.records if rec.reason in UNDECIDED],
        records=result.records,
    )


def cmd_lambda_star(args, cfg: dict) -> int:
    report = _lambda_star_report(cfg, args.out, _grid(cfg))
    _emit(args.out / "report.json", report)
    return 0 if report["outcome"] == "bracketed" else 3


def cmd_bifurcate(args, cfg: dict) -> int:
    spec = _problem(cfg)
    grid = _grid(cfg)
    centers = _float_list(args.centers)
    if not centers:
        raise ConfigError("no center values given (--centers)")
    points = bifurcation_curve(spec, centers, grid)
    _write_csv(args.out / "bifurcation.csv", _columns(BifurcationPoint), map(astuple, points))
    _emit(args.out / "report.json", base_report(cfg, outcome="curve", points=points))
    return 0


def cmd_stability(args, cfg: dict) -> int:
    n, p = cfg["problem"]["n"], cfg["problem"]["p"]
    if args.profile:
        profile = read_profile_csv(Path(args.profile), n, p)
        gp = _nonlinearity(cfg).with_scale(cfg["problem"]["lambda"]).derivative
    elif args.exact:
        from .oracle import exact_exponential, exact_power

        if args.exact == "exponential":
            sol = exact_exponential(n, p)
        else:
            sol = exact_power(n, p, cfg["problem"]["m"])
        profile = sol.sample(_grid(cfg))
        gp = sol.g_prime()
    else:
        raise ConfigError("need --profile FILE or --exact {exponential,power}")
    grid = profile.grid  # the profile's own, which a --profile file sets
    report = base_report(
        cfg,
        grid={"r_min": grid.r_min, "nodes": grid.size},
        stability=_stability(profile, gp, cfg).as_dict(),
    )
    _emit(args.out / "stability.json", report)
    return 0


# ---------------------------------------------------------------------------
# verify scenarios
# ---------------------------------------------------------------------------


def _residual_check(cfg: dict, sol) -> tuple:
    """The check of a closed form's flux-form residual on a grid of at
    least 4000 nodes."""
    from .oracle import ode_residual

    fine = make_grid(cfg["grid"]["r_min"], max(4000, cfg["grid"]["nodes"]))
    resid = ode_residual(sol.sample(fine), sol.nonlinearity())
    return "closed-form residual < 1e-8", resid < 1e-8, f"{resid:.3e}"


def _scenario_gelfand_disk(cfg: dict, checks: list) -> None:
    from .oracle import ode_residual
    from .stability import SineModes, hardy_inequality_check, random_eta_family, reaction_free_identity

    spec = ProblemSpec(2.0, 2.0, Exponential(1.0))
    grid = _grid(cfg)
    res = _lambda_star(spec, grid, cfg)
    checks.append(
        (
            "lambda-star brackets 2.0 within 1%",
            res.lambda_lo <= 2.0 * 1.01 and res.lambda_hi >= 2.0 * 0.99
            and (res.lambda_hi - res.lambda_lo) <= 0.02 * 2.0,
            f"[{res.lambda_lo:.6f}, {res.lambda_hi:.6f}]",
        )
    )
    # the search's extremal profile: the minimal solution at lambda_lo, whose
    # reaction is lambda_lo e^u; in 2-D r_trunc sets mu_1, so show mu_1_alt
    prof, g = res.profile_lo, Exponential(res.lambda_lo)
    gp = g.derivative
    stab = _stability(prof, gp, cfg)
    detail = f"mu1={stab.mu_1:.4g}, mu1_alt={stab.mu_1_alt:.4g}"
    checks.append(("extremal profile semi-stable", stab.verdict == "semi-stable", detail))
    res_ode = ode_residual(prof, g)
    lhs, rhs, rel = reaction_free_identity(prof, gp, SineModes(1, 1e-3), residual=res_ode)
    checks.append(("reaction-free identity < 1e-4", rel < 1e-4, f"rel={rel:.3e}"))
    fam = random_eta_family(np.random.default_rng(2024), cfg["stability"]["r_trunc"], 20)
    hardy = hardy_inequality_check(prof, fam)
    checks.append(
        ("weighted inequality holds for 20 test functions", all(c.satisfied for c in hardy), "")
    )


def _scenario_supercritical(cfg: dict, checks: list) -> None:
    from .oracle import exact_exponential

    spec = ProblemSpec(12.0, 2.0, Exponential(1.0))
    grid = _grid(cfg)
    res = _lambda_star(spec, grid, cfg)
    checks.append(
        (
            "lambda-star brackets 20.0 within 1%",
            res.lambda_lo <= 20.0 * 1.01 and res.lambda_hi >= 20.0 * 0.99,
            f"[{res.lambda_lo:.6f}, {res.lambda_hi:.6f}]",
        )
    )
    checks.append(_residual_check(cfg, exact_exponential(12.0, 2.0)))
    for n_test, expect in ((8.0, "unstable"), (12.0, "semi-stable")):
        s = exact_exponential(n_test, 2.0)
        rep = _stability(s.sample(grid), s.g_prime(), cfg)
        checks.append(
            (f"exact solution n={n_test:g} is {expect}", rep.verdict == expect, f"mu1={rep.mu_1:.4g}")
        )


def _scenario_power_critical(cfg: dict, checks: list) -> None:
    from .estimates import integrability_threshold
    from .exponents import _pointwise_exponent, m_cs, q_exponent
    from .oracle import exact_power

    mc = m_cs(15.0, 2.0)
    sol = exact_power(15.0, 2.0, mc)
    checks.append(_residual_check(cfg, sol))
    grid = _grid(cfg)
    prof = sol.sample(grid)
    slope = -15.0 / integrability_threshold(prof, "u")[0]  # the head r^(-a) has a = n/threshold
    target = -_pointwise_exponent(15.0, 2.0, 0)
    checks.append(
        ("singularity slope matches within 1e-3", abs(slope - target) < 1e-3, f"{slope:.6f} vs {target:.6f}")
    )
    thr, err = integrability_threshold(prof, "u_r")
    q1 = q_exponent(15.0, 2.0, 1)
    checks.append(
        (
            "gradient integrability threshold within 2%",
            abs(thr - q1) / q1 < 0.02,
            f"{thr:.4f} +/- {err:.2g} vs {q1:.4f}",
        )
    )


_SCENARIOS = {
    "gelfand-disk": _scenario_gelfand_disk,
    "supercritical-exp": _scenario_supercritical,
    "power-critical": _scenario_power_critical,
}


def cmd_verify(args, cfg: dict) -> int:
    if args.scenario not in _SCENARIOS:
        raise ConfigError(
            f"unknown scenario '{args.scenario}'; choose from {sorted(_SCENARIOS)}"
        )
    checks: list[tuple[str, bool, str]] = []
    _SCENARIOS[args.scenario](cfg, checks)
    all_ok = True
    for name, ok, detail in checks:
        status = "PASS" if ok else "FAIL"
        all_ok &= ok
        suffix = f" ({detail})" if detail else ""
        print(f"{status} {args.scenario}: {name}{suffix}")
    report = base_report(
        cfg,
        scenario=args.scenario,
        checks=[{"name": n, "passed": bool(o), "detail": d} for n, o, d in checks],
        passed=bool(all_ok),
    )
    write_json(args.out / f"verify_{args.scenario}.json", report)
    return 0 if all_ok else 3


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------


def _sweep_point(job):
    """One sweep point, (point cfg, n, p, directory, grid): what ``lambda-star
    --out`` writes there, or an "error" report if the point's problem is
    inadmissible, or if a table is evaluated outside its range by anything
    but a probe's plain sweeps, which end the probe instead; returns (index
    status, report).  The points run in one process share the grid, and
    with it its quadrature rules."""
    cfg, _n, _p, out_dir, grid = job
    out = Path(out_dir)
    try:
        report = _lambda_star_report(cfg, out, grid)
    except (ParameterError, EvaluationError) as exc:
        report = base_report(cfg, outcome="error", diagnosis=str(exc))
    write_json(out / "report.json", report)
    return ("ok" if report["outcome"] == "bracketed" else "error"), report


def _point_setting(config: dict) -> dict:
    """A report's config less [sweep] and [output], which only say which
    points run and where: a cached point is reused only if its setting is
    the current one."""
    return {s: kv for s, kv in config.items() if s not in ("sweep", "output")}


def cmd_sweep(args, cfg: dict) -> int:
    out = args.out
    p_values = _float_list(cfg["sweep"]["p_values"])
    n_values = _float_list(cfg["sweep"]["n_values"])
    if not p_values and not n_values:
        raise ConfigError("sweep grid is empty: set p_values and/or n_values")
    grid = _grid(cfg)  # a bad [grid] fails the sweep, not each point
    points = [
        (f"n{n_val:g}_p{p_val:g}", n_val, p_val)
        for n_val in n_values or [cfg["problem"]["n"]]
        for p_val in p_values or [cfg["problem"]["p"]]
    ]
    seen: dict = {}
    for name, n_val, p_val in points:  # a shared directory would hold only the later point
        if name in seen:
            raise ConfigError(f"sweep points (n, p) = {seen[name]} and {(n_val, p_val)} share the directory {name}")
        seen[name] = (n_val, p_val)
    rows, names, jobs = {}, [], []
    for name, n_val, p_val in points:
        point_cfg = {**cfg, "problem": {**cfg["problem"], "n": n_val, "p": p_val}}
        report_path = out / name / "report.json"
        if report_path.exists() and not args.force:
            cached = json.loads(report_path.read_text())
            if _point_setting(cached.get("config", {})) == _point_setting(_jsonable(point_cfg)):
                rows[name] = ("ok" if cached.get("outcome") == "bracketed" else "error", cached)
                continue
        names.append(name)
        jobs.append((point_cfg, n_val, p_val, str(out / name), grid))
    if args.jobs > 1 and jobs:
        import multiprocessing  # like the pool, only for --jobs N
        from concurrent.futures import ProcessPoolExecutor

        # spawn, not fork: forking a process that may run BLAS threads is unsafe
        spawn = multiprocessing.get_context("spawn")
        with ProcessPoolExecutor(max_workers=args.jobs, mp_context=spawn) as pool:
            results = list(pool.map(_sweep_point, jobs))
    else:
        results = [_sweep_point(job) for job in jobs]
    rows.update(zip(names, results))

    index = []
    for name, n_val, p_val in points:
        status, report = rows[name]
        index.append((name, n_val, p_val, status, report.get("lambda_lo"), report.get("lambda_hi")))
    _write_csv(out / "index.csv", ("point", "n", "p", "status", "lambda_lo", "lambda_hi"), index)
    print(f"sweep complete: {len(points)} points, index at {out / 'index.csv'}")
    return 0


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="plaplab",
        description="Radial reaction problems for the p-Laplacian on the unit "
        "ball: minimal solutions, parameter brackets, stability, and "
        "sharp-regularity checks.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    parser.add_argument("--config", default=None, metavar="PATH")
    parser.add_argument("--out", default=None, metavar="DIR")
    parser.add_argument("--jobs", type=int, default=1, metavar="N")
    parser.add_argument("--force", action="store_true")
    sub = parser.add_subparsers(dest="command", required=True)
    problem = argparse.ArgumentParser(add_help=False)  # overrides of [problem] n and p
    problem.add_argument("--n", type=float)
    problem.add_argument("--p", type=float)

    s = sub.add_parser("exponents", help="closed-form exponents and regime")
    s.add_argument("--n", type=float, required=True)
    s.add_argument("--p", type=float, required=True)
    s.set_defaults(func=cmd_exponents)

    s = sub.add_parser("solve", help="minimal solution at fixed lambda", parents=[problem])
    s.add_argument("--lam", type=float, default=None, dest="lam")
    s.set_defaults(func=cmd_solve)

    s = sub.add_parser("lambda-star", help="bracket the extremal parameter", parents=[problem])
    s.set_defaults(func=cmd_lambda_star)

    s = sub.add_parser("bifurcate", help="parameter vs center-value curve", parents=[problem])
    s.add_argument("--centers", default="", metavar="M1,M2,...")
    s.set_defaults(func=cmd_bifurcate)

    s = sub.add_parser("stability", help="semi-stability report for a profile", parents=[problem])
    s.add_argument("--profile", default=None, metavar="CSV")
    s.add_argument("--exact", default=None, choices=["exponential", "power"])
    s.set_defaults(func=cmd_stability)

    s = sub.add_parser("verify", help="consolidated scenario checks")
    s.add_argument("--scenario", required=True)
    s.set_defaults(func=cmd_verify)

    s = sub.add_parser("sweep", help="parameter-grid sweep with index")
    s.set_defaults(func=cmd_sweep)

    return parser


def _overrides(args) -> dict:
    targets = {"n": ("problem", "n"), "p": ("problem", "p"), "lam": ("problem", "lambda")}
    return {t: getattr(args, a) for a, t in targets.items() if getattr(args, a, None) is not None}


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = load_config(args.config, _overrides(args))
        args.out = Path(args.out or cfg["output"]["directory"])
        return args.func(args, cfg)
    except (ConfigError, ParameterError, EvaluationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BracketingError as exc:
        print(f"outcome: {exc}", file=sys.stderr)
        return 3
    except ConsistencyError as exc:
        print(f"internal assertion failed: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
