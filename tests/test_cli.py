import csv
import importlib
import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import plaplab
from plaplab import cli, make_grid, stability
from plaplab.cli import main, read_profile_csv
from plaplab.oracle import exact_exponential


def run_cli(capsys, *args, expect=0):
    code = main(list(args))
    out = capsys.readouterr()
    assert code == expect, f"exit {code} != {expect}; stderr: {out.err}"
    return out


def test_exponents_command(capsys):
    out = run_cli(capsys, "exponents", "--n", "12", "--p", "2")
    doc = json.loads(out.out)
    assert doc["schema"] == 1
    assert doc["exponents"]["regime"] == "C"
    # independent route: 2n/(n - 4 - 2 sqrt(n-1))
    ref = 24.0 / (8.0 - 2.0 * math.sqrt(11.0))
    assert abs(doc["exponents"]["q0"] - ref) < 1e-9 * ref


def test_exponents_boundary_case(capsys):
    out = run_cli(capsys, "exponents", "--n", "9", "--p", "3")
    doc = json.loads(out.out)
    assert doc["exponents"]["regime"] == "B"
    assert doc["exponents"]["q0"] == "inf"


def test_exponents_rejects_bad_p(capsys):
    run_cli(capsys, "exponents", "--n", "5", "--p", "1", expect=2)


def test_solve_writes_profile_and_report(tmp_path, capsys):
    out_dir = tmp_path / "run"
    run_cli(
        capsys,
        "--out",
        str(out_dir),
        "--config",
        _tiny_config(tmp_path),
        "solve",
        "--n",
        "2",
        "--p",
        "2",
        "--lam",
        "1.0",
    )
    report = json.loads((out_dir / "report.json").read_text())
    assert report["schema"] == 1
    assert report["outcome"] == "converged"
    assert report["stability"]["verdict"] == "semi-stable"
    assert report["estimates"]["regime"] == "A"
    assert report["config"]["grid"]["nodes"] == 600

    # CSV round-trip is bit-identical
    text = (out_dir / "profile.csv").read_text()
    lines = text.strip().split("\n")
    assert lines[0] == "r,u,u_r,w"
    prof = read_profile_csv(out_dir / "profile.csv", 2.0, 2.0)
    rows = []
    fmt = lambda x: format(float(x), ".17g")
    for r, u, ur, w in zip(prof.grid.r, prof.u, prof.u_r, prof.w):
        rows.append(f"{fmt(r)},{fmt(u)},{fmt(ur)},{fmt(w)}")
    assert rows == lines[1:]


def test_solve_divergence_exit_code(tmp_path, capsys):
    out = run_cli(
        capsys,
        "--out",
        str(tmp_path / "div"),
        "--config",
        _tiny_config(tmp_path),
        "solve",
        "--n",
        "2",
        "--p",
        "2",
        "--lam",
        "3.0",
        expect=3,
    )
    report = json.loads((tmp_path / "div" / "report.json").read_text())
    assert report["outcome"] == "divergence"
    assert report["record"]["reason"] in ("exceeded u_max", "overflow", "unstable iterate")


def test_undecided_outcomes_are_labelled(tmp_path, capsys):
    """The disk probe at lambda = 2.000000001, at the discrete fold, runs to
    the 500-sweep fold-ghost stop, leaps and all, far below u_max: solve
    calls it undecided (exit 3).  lambda-star lists its ghost at 2.0, stopped
    by the saddle-node law, next to a bracket whose ends both come from
    decided probes.  The probe above the ghost starts from the ghost's last
    iterate, scaled, and stops as an unstable iterate."""
    run_cli(capsys, "--out", str(tmp_path / "sg"), "solve", "--n", "2", "--p", "2", "--lam", "2.000000001", expect=3)
    report = json.loads((tmp_path / "sg" / "report.json").read_text())
    assert report["outcome"] == "undecided"
    assert report["record"]["reason"] == "fold ghost" and report["record"]["sup_norm"] < 2.0
    run_cli(capsys, "--out", str(tmp_path / "ld"), "lambda-star", "--n", "2", "--p", "2")
    report = json.loads((tmp_path / "ld" / "report.json").read_text())
    assert report["undecided"] == [2.0]
    assert (report["lambda_lo"], report["lambda_hi"]) == (1.9995, 2.0005)
    reasons = {rec["lambda"]: rec["reason"] for rec in report["records"]}
    assert (reasons[1.9995], reasons[2.0], reasons[2.0005]) == ("converged", "fold ghost", "unstable iterate")
    # the probe above the ghost starts from its last iterate, scaled
    assert {rec["lambda"]: rec["start"] for rec in report["records"]}[2.0005] == "scaled"


def test_unknown_config_key_names_it(tmp_path, capsys):
    bad = tmp_path / "bad.ini"
    bad.write_text("[problem]\nnn = 3\n")
    code = main(["--config", str(bad), "exponents", "--n", "3", "--p", "2"])
    err = capsys.readouterr().err
    assert code == 2
    assert "nn" in err


def test_removed_sweep_task_key_is_rejected(tmp_path, capsys):
    cfg = tmp_path / "task.ini"
    cfg.write_text("[sweep]\ntask = lambda-star\nn_values = 12\n")
    code = main(["--config", str(cfg), "--out", str(tmp_path / "out"), "sweep"])
    assert code == 2
    assert "unknown config key 'task'" in capsys.readouterr().err


def test_lambda_star_command(tmp_path, capsys):
    out_dir = tmp_path / "ls"
    run_cli(
        capsys,
        "--out",
        str(out_dir),
        "--config",
        _tiny_config(tmp_path),
        "lambda-star",
        "--n",
        "2",
        "--p",
        "2",
    )
    report = json.loads((out_dir / "report.json").read_text())
    assert report["outcome"] == "bracketed"
    assert 1.9 < report["lambda_lo"] <= report["lambda_hi"] < 2.1
    sweep = (out_dir / "lambda_sweep.csv").read_text().strip().split("\n")
    assert sweep[0] == "lambda,converged,iterations,sup_norm,w1p_norm,f_l1_norm,reason,contraction,certificate,start"
    # each record names where its last plain sweeps started; the first probe's is u = 0
    starts = {rec["lambda"]: rec["start"] for rec in report["records"]}
    assert starts[1.0] == "zero" and set(starts.values()) <= {"zero", "scaled", "chord"}
    assert len(sweep) == len(report["records"]) + 1
    assert any(rec["w1p_norm"] == "inf" for rec in report["records"])
    # certified accelerated probes carry their eps, unstable iterates their
    # growth bound, fold ghosts stopped by the saddle-node law their relative
    # fold distance, inside tol_lambda / 16 (default 1e-3), plain ones "nan"
    certified = [rec for rec in report["records"] if rec["certificate"] != "nan"]
    assert any(rec["converged"] for rec in certified)
    for rec in certified:
        if rec["converged"]:
            assert rec["certificate"] > 0
        elif rec["reason"] == "fold ghost":
            assert 0 < rec["certificate"] < 1e-3 / 16
        else:
            assert rec["reason"] == "unstable iterate"
    _assert_csv_rows_equal_json(out_dir / "lambda_sweep.csv", report["records"])


def test_lambda_star_flags_an_unreached_tolerance(tmp_path, capsys):
    """At tol_lambda 1e-9 the disk's bracket meets the tolerance, while a
    hole of fold ghosts stops the (1+u)^3 search at n = 3 with a bracket
    2.5 times as wide: both are "bracketed" (exit 0, sweep status "ok"),
    and ``tolerance_reached`` tells them apart, in the lambda-star report
    and in a sweep point's."""
    cfg = tmp_path / "tight.ini"
    cfg.write_text("[solver]\ntol_lambda = 1e-9\n[problem]\nnonlinearity = power\nm = 3\n[sweep]\nn_values = 3\np_values = 2\n")
    disk = tmp_path / "disk.ini"
    disk.write_text("[solver]\ntol_lambda = 1e-9\n")
    run_cli(capsys, "--config", str(disk), "--out", str(tmp_path / "d"), "lambda-star", "--n", "2", "--p", "2")
    report = json.loads((tmp_path / "d" / "report.json").read_text())
    assert report["tolerance_reached"] is True and report["lambda_lo"] >= 1.9999995
    assert report["lambda_hi"] - report["lambda_lo"] <= 1e-9 * report["lambda_lo"]
    run_cli(capsys, "--config", str(cfg), "--out", str(tmp_path / "c"), "lambda-star", "--n", "3", "--p", "2")
    report = json.loads((tmp_path / "c" / "report.json").read_text())
    assert report["outcome"] == "bracketed" and report["undecided"]
    assert report["tolerance_reached"] is False
    assert report["lambda_hi"] - report["lambda_lo"] > 1e-9 * report["lambda_lo"]
    run_cli(capsys, "--config", str(cfg), "--out", str(tmp_path / "s"), "sweep")
    point = json.loads((tmp_path / "s" / "n3_p2" / "report.json").read_text())
    assert point["tolerance_reached"] is False
    assert (point["lambda_lo"], point["lambda_hi"]) == (report["lambda_lo"], report["lambda_hi"])
    rows = list(csv.DictReader((tmp_path / "s" / "index.csv").open()))
    assert [row["status"] for row in rows] == ["ok"]


@pytest.mark.parametrize("n, p", [("5", "1.5"), ("3", "1.3")])
def test_lambda_star_flux_overflow_exit0(tmp_path, capsys, n, p):
    out_dir = tmp_path / "ls"
    run_cli(capsys, "--out", str(out_dir), "lambda-star", "--n", n, "--p", p)
    report = json.loads((out_dir / "report.json").read_text())
    assert report["outcome"] == "bracketed"
    assert 0.0 < report["lambda_lo"] < report["lambda_hi"]


def test_bifurcate_command(tmp_path, capsys):
    out_dir = tmp_path / "bf"
    run_cli(
        capsys,
        "--out",
        str(out_dir),
        "--config",
        _tiny_config(tmp_path),
        "bifurcate",
        "--n",
        "2",
        "--p",
        "2",
        "--centers",
        "0.5,1.0",
    )
    lines = (out_dir / "bifurcation.csv").read_text().strip().split("\n")
    assert len(lines) == 3
    lam = float(lines[1].split(",")[1])
    b = math.exp(0.25) - 1.0
    assert abs(lam - 8.0 * b / (1.0 + b) ** 2) < 1e-4


def test_bifurcate_tabulated_table_from_zero(tmp_path, capsys):
    # cubic Hermite data reproduce (1+u)^3 exactly; a table that starts at
    # u = 0 must not be evaluated below it
    us = [0.0] + [10.0 ** k for k in range(-3, 3)]
    table = tmp_path / "cubic.csv"
    rows = ["u,g,gp"] + [f"{u!r},{(1.0 + u) ** 3!r},{3.0 * (1.0 + u) ** 2!r}" for u in us]
    table.write_text("\n".join(rows) + "\n")
    curves = {}
    for kind, extra in (("tabulated", f"tabulated_file = {table}\n"), ("power", "m = 3\n")):
        cfg = tmp_path / f"{kind}.ini"
        cfg.write_text(f"[problem]\nnonlinearity = {kind}\n{extra}[grid]\nnodes = 600\nr_min = 1e-7\n")
        out_dir = tmp_path / kind
        run_cli(capsys, "--config", str(cfg), "--out", str(out_dir),
                "bifurcate", "--n", "3", "--p", "2", "--centers", "0.5,1.0,2.0,3.0")
        curves[kind] = json.loads((out_dir / "report.json").read_text())["points"]
    for tab, pow_ in zip(curves["tabulated"], curves["power"]):
        assert tab["converged"] and pow_["converged"]
        assert abs(tab["lambda"] - pow_["lambda"]) <= 1e-12 * pow_["lambda"]


def test_lambda_star_tabulated_cubic_matches_power(tmp_path, capsys):
    # a (1+u)^3 table with exact slopes is (1+u)^3 to a few ulps, so every
    # probe of the lambda* search ends as with Power(3), and so does the bracket
    us = [0.0] + [float(u) for u in np.geomspace(1e-3, 2e6, 40)]
    table = tmp_path / "cubic.csv"
    rows = ["u,g,gp"] + [f"{u!r},{(1.0 + u) ** 3!r},{3.0 * (1.0 + u) ** 2!r}" for u in us]
    table.write_text("\n".join(rows) + "\n")
    reports = {}
    for kind, extra in (("tabulated", f"tabulated_file = {table}\n"), ("power", "m = 3\n")):
        cfg = tmp_path / f"{kind}.ini"
        cfg.write_text(f"[problem]\nnonlinearity = {kind}\n{extra}[grid]\nnodes = 300\nr_min = 1e-6\n")
        out_dir = tmp_path / kind
        run_cli(capsys, "--config", str(cfg), "--out", str(out_dir), "lambda-star", "--n", "3", "--p", "2")
        reports[kind] = json.loads((out_dir / "report.json").read_text())
    tab, pow_ = reports["tabulated"], reports["power"]
    assert tab["outcome"] == pow_["outcome"] == "bracketed"
    assert (tab["lambda_lo"], tab["lambda_hi"]) == (pow_["lambda_lo"], pow_["lambda_hi"])
    assert [(r["lambda"], r["reason"]) for r in tab["records"]] == [
        (r["lambda"], r["reason"]) for r in pow_["records"]
    ]


def test_lambda_star_coarse_grid_order_loss_exit2(tmp_path, capsys):
    cfg = tmp_path / "coarse.ini"
    cfg.write_text("[grid]\nnodes = 16\nr_min = 1e-2\n")
    out = run_cli(capsys, "--config", str(cfg), "--out", str(tmp_path / "o"),
                  "lambda-star", "--n", "1", "--p", "1.109375", expect=2)
    assert "16-node grid; refine the grid" in out.err


def test_lambda_star_underflowing_r_min_exit2(tmp_path, capsys):
    cfg = tmp_path / "tiny_r_min.ini"
    cfg.write_text("[grid]\nr_min = 1e-12\n")
    out = run_cli(capsys, "--config", str(cfg), "--out", str(tmp_path / "o"),
                  "lambda-star", "--n", "30", "--p", "2", expect=2)
    assert "r_min^n = (1e-12)^30 underflows" in out.err


def test_stability_command_exact(tmp_path, capsys):
    out = run_cli(
        capsys,
        "--out",
        str(tmp_path),
        "--config",
        _tiny_config(tmp_path),
        "stability",
        "--n",
        "11",
        "--p",
        "2",
        "--exact",
        "exponential",
    )
    doc = json.loads(out.out)
    assert doc["stability"]["verdict"] == "semi-stable"
    assert doc["grid"] == {"r_min": 1e-7, "nodes": 600}  # the config's, sampled
    out = run_cli(
        capsys,
        "--out",
        str(tmp_path),
        "--config",
        _tiny_config(tmp_path),
        "stability",
        "--n",
        "8",
        "--p",
        "2",
        "--exact",
        "exponential",
    )
    assert json.loads(out.out)["stability"]["verdict"] == "unstable"


def test_stability_command_missing_profile(tmp_path, capsys):
    run_cli(
        capsys,
        "stability",
        "--n",
        "2",
        "--p",
        "2",
        "--profile",
        str(tmp_path / "missing.csv"),
        expect=2,
    )


@pytest.mark.parametrize(
    "command, text, message",
    [
        ("stability", "r,u,u_r,w\n1e-8,2,-1,-1e-8\n", "at least two rows"),
        ("lambda-star", None, "tabulated file not found"),
        ("lambda-star", "t,g\n0,1\n1,2\n", "needs 3 columns"),
        ("lambda-star", "t,g,gp\n0,1,1\n1,x,1\n", "cannot read tabulated file"),
        ("stability", "r,u,u_r,w\n1e-8,2,-1,-1e-8\n1,0,-1,abc\n", "cannot read profile file"),
    ],
    ids=["profile-one-row", "table-missing", "table-two-columns", "table-non-numeric", "profile-non-numeric"],
)
def test_bad_input_file_exit2(tmp_path, capsys, command, text, message):
    data = tmp_path / "data.csv"
    if text is not None:
        data.write_text(text)
    if command == "stability":
        argv = ["stability", "--profile", str(data)]
    else:
        cfg = tmp_path / "run.ini"
        cfg.write_text(f"[problem]\nnonlinearity = tabulated\ntabulated_file = {data}\n")
        argv = ["--config", str(cfg), "lambda-star"]
    out = run_cli(capsys, "--out", str(tmp_path / "out"), *argv, expect=2)
    assert message in out.err


def test_stability_zero_flux_profile_exit2(tmp_path, capsys, time_limit):
    # u_r = 0 makes |u_r|^(p-2) infinite for p < 2: rejected before any pencil
    grid = make_grid(1e-8, 200)
    rows = "".join(f"{r!r},{1.0 - i / 199.0!r},0,0\n" for i, r in enumerate(grid.r.tolist()))
    data = tmp_path / "flat.csv"
    data.write_text("r,u,u_r,w\n" + rows)
    with time_limit(10):
        out = run_cli(capsys, "--out", str(tmp_path / "out"), "stability",
                      "--n", "2", "--p", "1.5", "--profile", str(data), expect=2)
    assert "degenerate" in out.err


@pytest.mark.parametrize(
    "radii, column, factor, message",
    [
        (make_grid(1e-8, 20).r, 0, 1.0, None),
        (0.5 * make_grid(1e-8, 20).r, 0, 1.0, "not make_grid's nodes"),
        (make_grid(1e-8, 20).r, 0, 1.0 + 1e-6, "not make_grid's nodes"),
        (make_grid(1e-8, 20).r, 0, math.nan, "not make_grid's nodes"),
        (make_grid(1e-8, 20).r, 2, math.nan, "inconsistent (u_r vs w)"),
        (np.geomspace(1e-8, 1.0, 10), 0, 1.0, "need at least 16 nodes"),
    ],
    ids=["make-grid-nodes", "last-radius-half", "radius-moved-1e-6", "radius-nan", "u_r-nan", "ten-rows"],
)
def test_stability_profile_must_sit_on_make_grid(tmp_path, capsys, radii, column, factor, message):
    # the n = 12 closed form at the radii, one entry of row 7 scaled by factor
    sol = exact_exponential(12.0, 2.0)
    u_r = sol.u_r_at(radii)
    table = np.column_stack([radii, sol.u_at(radii), u_r, -(radii**11.0) * np.abs(u_r)])
    table[7, column] *= factor
    data = tmp_path / "profile.csv"
    data.write_text("r,u,u_r,w\n" + "".join(",".join(map(repr, row)) + "\n" for row in table.tolist()))
    out = run_cli(capsys, "--out", str(tmp_path / "out"), "stability", "--n", "12", "--p", "2",
                  "--profile", str(data), expect=0 if message is None else 2)
    assert message is None or message in out.err


def test_stability_profile_round_trip_matches_solve(tmp_path, capsys):
    cfg = _tiny_config(tmp_path)
    run_cli(capsys, "--out", str(tmp_path / "s"), "--config", cfg, "solve", "--n", "2", "--p", "2", "--lam", "1")
    run_cli(capsys, "--out", str(tmp_path / "st"), "--config", cfg, "stability", "--n", "2", "--p", "2",
            "--profile", str(tmp_path / "s" / "profile.csv"))
    solved = json.loads((tmp_path / "s" / "report.json").read_text())["stability"]
    assert json.loads((tmp_path / "st" / "stability.json").read_text())["stability"] == solved


def test_stability_profile_reports_the_profile_grid(tmp_path, capsys):
    # without the solve's config, the report used to name the default grid
    # (2000 nodes from 1e-8) while the pencil ran on the profile's 600 nodes
    run_cli(capsys, "--out", str(tmp_path / "s"), "--config", _tiny_config(tmp_path),
            "solve", "--n", "2", "--p", "2", "--lam", "1")
    out = run_cli(capsys, "--out", str(tmp_path / "st"), "stability", "--n", "2", "--p", "2",
                  "--profile", str(tmp_path / "s" / "profile.csv"))
    doc = json.loads(out.out)
    assert doc["config"]["grid"] == {"r_min": 1e-8, "nodes": 2000}
    assert doc["grid"] == {"r_min": 1e-7, "nodes": 600}
    assert doc["grid"] == json.loads((tmp_path / "s" / "report.json").read_text())["grid"]


def test_lambda_init_zero_exit2(tmp_path, capsys, time_limit):
    cfg = tmp_path / "zero.ini"
    cfg.write_text("[grid]\nnodes = 100\n[solver]\nlambda_init = 0\n")
    with time_limit(10):
        out = run_cli(capsys, "--config", str(cfg), "--out", str(tmp_path / "o"), "lambda-star", expect=2)
    assert "lam_init must be a positive finite number" in out.err


@pytest.mark.parametrize("scenario", ["gelfand-disk", "supercritical-exp"])
def test_verify_brackets_with_solver_settings(tmp_path, capsys, monkeypatch, scenario):
    real = cli.lambda_star_estimate
    calls = []

    def recorded(spec, grid, controls, **kwargs):
        calls.append(kwargs)
        return real(spec, grid, controls, **kwargs)

    monkeypatch.setattr(cli, "lambda_star_estimate", recorded)
    cfg = tmp_path / "solver.ini"
    cfg.write_text(
        "[grid]\nnodes = 600\nr_min = 1e-7\n[stability]\nn_eig = 150\n"
        "[solver]\nlambda_init = 1.5\ntol_lambda = 2e-3\nlambda_cap = 1e6\n"
    )
    run_cli(capsys, "--config", str(cfg), "--out", str(tmp_path / "out"), "verify", "--scenario", scenario)
    assert calls == [{"tol_lambda": 2e-3, "lam_init": 1.5, "lam_cap": 1e6}]


def test_stability_command_needs_source(capsys):
    run_cli(capsys, "stability", "--n", "2", "--p", "2", expect=2)


def test_sweep_determinism_and_resume(tmp_path, capsys):
    cfg = tmp_path / "sweep.ini"
    cfg.write_text(
        "[sweep]\np_values = 1.5, 2\nn_values = 12\n"
        "[solver]\ntol_lambda = 1e-2\n[grid]\nnodes = 400\nr_min = 1e-6\n"
    )
    out1 = tmp_path / "s1"
    run_cli(capsys, "--config", str(cfg), "--out", str(out1), "sweep")
    index1 = (out1 / "index.csv").read_text()
    assert index1.startswith("point,n,p,status,lambda_lo,lambda_hi")
    assert len(index1.strip().split("\n")) == 3

    # re-run resumes from cached points and reproduces identical bytes
    run_cli(capsys, "--config", str(cfg), "--out", str(out1), "sweep")
    assert (out1 / "index.csv").read_text() == index1

    out2 = tmp_path / "s2"
    run_cli(capsys, "--config", str(cfg), "--out", str(out2), "sweep")
    assert (out2 / "index.csv").read_text() == index1

    out3 = tmp_path / "s3"
    run_cli(capsys, "--jobs", "2", "--config", str(cfg), "--out", str(out3), "sweep")
    assert (out3 / "index.csv").read_text() == index1


def test_sweep_reruns_points_whose_config_changed(tmp_path, capsys, monkeypatch):
    ran = []
    real = cli._sweep_point

    def recorded(job):
        ran.append(job[1:3])
        return real(job)

    monkeypatch.setattr(cli, "_sweep_point", recorded)
    cfg = tmp_path / "sweep.ini"
    body = "[grid]\nr_min = 1e-6\nnodes = {nodes}\n[sweep]\nn_values = 3\n"
    out = tmp_path / "s"

    def sweep(nodes, p_values, where=out):
        cfg.write_text(body.format(nodes=nodes) + f"p_values = {p_values}\n")
        run_cli(capsys, "--config", str(cfg), "--out", str(where), "sweep")
        return (where / "index.csv").read_text()

    # 30 nodes move the lambda* bracket of n = 3 away from the 400-node one
    at400 = sweep(400, "2")
    at30 = sweep(30, "2")
    assert ran == [(3.0, 2.0), (3.0, 2.0)]
    assert at30 != at400
    assert at30 == sweep(30, "2", tmp_path / "fresh")
    report = json.loads((out / "n3_p2" / "report.json").read_text())
    assert report["config"]["grid"]["nodes"] == 30

    # a new p value leaves the cached point alone
    ran.clear()
    grown = sweep(30, "2, 1.5")
    assert ran == [(3.0, 1.5)]
    assert grown.split("\n")[1] == at30.split("\n")[1]


def test_sweep_records_a_point_whose_iterates_leave_the_table(tmp_path, capsys):
    """(1+u)^3 tabulated on [0, 5]: n = 3, p = 2 brackets inside the table,
    while at p = 3 the iterates of the probes above lambda* pass u = 5.
    Those probes end diverged, "left the table", and the point brackets
    lambda* with the floats of Power(3).  A point whose problem is not
    admissible (n = 31) is an "error" report and row, and the sweep goes on
    to write its index."""
    table = tmp_path / "cubic.csv"
    knots = [i / 10 for i in range(51)]
    table.write_text("u,g,gp\n" + "".join(f"{x!r},{(1 + x) ** 3!r},{3 * (1 + x) ** 2!r}\n" for x in knots))
    cfg = tmp_path / "sweep.ini"
    cfg.write_text(
        f"[problem]\nnonlinearity = tabulated\ntabulated_file = {table}\n"
        "[sweep]\nn_values = 3, 31\np_values = 2, 3\n"
    )
    out = tmp_path / "s"
    run_cli(capsys, "--config", str(cfg), "--out", str(out), "sweep")
    rows = [line.split(",") for line in (out / "index.csv").read_text().strip().split("\n")[1:]]
    assert [(row[0], row[3]) for row in rows] == [
        ("n3_p2", "ok"), ("n3_p3", "ok"), ("n31_p2", "error"), ("n31_p3", "error")
    ]
    report = json.loads((out / "n3_p3" / "report.json").read_text())
    assert (report["lambda_lo"], report["lambda_hi"]) == (2.697265625, 2.69921875)
    hi = next(rec for rec in report["records"] if rec["lambda"] == report["lambda_hi"])
    assert (hi["converged"], hi["reason"]) == (False, "left the table")
    report = json.loads((out / "n31_p2" / "report.json").read_text())
    assert report["outcome"] == "error"
    assert report["diagnosis"].startswith("solver supports n <= 30")


def test_sweep_point_is_a_lambda_star_run(tmp_path, capsys):
    """A sweep point's directory holds what lambda-star --out writes for the
    point, its config naming the point's n and p."""
    settings = "[solver]\ntol_lambda = 1e-2\n[grid]\nnodes = 400\nr_min = 1e-6\n"
    sweep_cfg = tmp_path / "sweep.ini"
    sweep_cfg.write_text(settings + "[sweep]\np_values = 3\nn_values = 12\n")
    run_cli(capsys, "--config", str(sweep_cfg), "--out", str(tmp_path / "s"), "sweep")
    point_cfg = tmp_path / "point.ini"
    point_cfg.write_text(settings)
    run_cli(capsys, "--config", str(point_cfg), "--out", str(tmp_path / "l"), "lambda-star", "--n", "12", "--p", "3")
    point, run = (tmp_path / "s" / "n12_p3", tmp_path / "l")
    swept = json.loads((point / "report.json").read_text())
    alone = json.loads((run / "report.json").read_text())
    assert swept["outcome"] == "bracketed" and swept["records"]
    assert (swept["config"]["problem"]["n"], swept["config"]["problem"]["p"]) == (12.0, 3.0)
    assert swept["config"].pop("sweep") != alone["config"].pop("sweep")
    assert swept == alone
    assert (point / "lambda_sweep.csv").read_bytes() == (run / "lambda_sweep.csv").read_bytes()


def test_solve_record_is_a_lambda_sweep_row(tmp_path, capsys):
    # at the disk's discrete fold, about 2.000000001, the probe stops as a
    # fold ghost; 2.0 itself converges, its slow passage cut short by leaps
    run_cli(capsys, "--out", str(tmp_path / "sg"), "solve", "--n", "2", "--p", "2", "--lam", "2.000000001", expect=3)
    record = json.loads((tmp_path / "sg" / "report.json").read_text())["record"]
    assert record["reason"] == "fold ghost"
    run_cli(capsys, "--out", str(tmp_path / "ls"), "--config", _tiny_config(tmp_path),
            "lambda-star", "--n", "2", "--p", "2")
    header = (tmp_path / "ls" / "lambda_sweep.csv").read_text().split("\n")[0]
    assert sorted(record) == sorted(header.split(","))  # reports sort their keys
    assert math.isfinite(record["contraction"])


def test_solve_on_a_grid_too_shallow_to_read_the_head(tmp_path, capsys):
    # regime C at r_min = 3e-4: the three head checks are left out, with a note
    cfg = tmp_path / "shallow.ini"
    cfg.write_text("[grid]\nr_min = 3e-4\n[stability]\nr_trunc = 3e-4\n")
    run_cli(capsys, "--config", str(cfg), "--out", str(tmp_path / "s"), "solve", "--n", "12", "--p", "2", "--lam", "10")
    est = json.loads((tmp_path / "s" / "report.json").read_text())["estimates"]
    assert est["regime"] == "C" and est["passed"] and est["fitted_exponent"] is None
    assert not {"pointwise_slope", "lq_below_q0", "gradient_slope"} & set(est["checks"])
    assert est["notes"] == [
        "pointwise_slope, lq_below_q0 and gradient_slope skipped: "
        "the head needs three decades in [r_min, 0.1], got r_min = 0.0003"
    ]


@pytest.mark.parametrize(
    "config, argv",
    [
        ("", ["bifurcate", "--centers", "1,abc"]),
        ("[estimates]\nq_values = 5, abc\n", ["solve", "--n", "12", "--p", "2", "--lam", "10"]),
        ("[sweep]\np_values = 2, abc\n", ["sweep"]),
    ],
)
def test_number_lists_name_the_bad_token(tmp_path, capsys, config, argv):
    cfg = tmp_path / "list.ini"
    cfg.write_text(config)
    out = run_cli(capsys, "--config", str(cfg), "--out", str(tmp_path / "out"), *argv, expect=2)
    assert "not a number: 'abc'" in out.err


def test_sweep_rejects_points_sharing_a_directory(tmp_path, capsys, monkeypatch):
    # n{n:g}_p{p:g} reads n12_p2.5 for both p values: neither point runs
    monkeypatch.setattr(cli, "_sweep_point", lambda job: pytest.fail("a point ran"))
    cfg = tmp_path / "sweep.ini"
    cfg.write_text("[sweep]\nn_values = 12\np_values = 2.5, 2.5000001\n")
    out = run_cli(capsys, "--config", str(cfg), "--out", str(tmp_path / "out"), "sweep", expect=2)
    assert "share the directory n12_p2.5" in out.err
    assert not (tmp_path / "out").exists()


def test_sweep_empty_grid(tmp_path, capsys):
    cfg = tmp_path / "empty.ini"
    cfg.write_text("[sweep]\n")
    run_cli(capsys, "--config", str(cfg), "--out", str(tmp_path / "out"), "sweep", expect=2)


def test_sweep_bad_grid_exit2(tmp_path, capsys):
    # a [grid] that no point can use is a config error, not an "error" point
    cfg = tmp_path / "grid.ini"
    cfg.write_text("[grid]\nnodes = 10\n[sweep]\nn_values = 3, 4\n")
    out = run_cli(capsys, "--config", str(cfg), "--out", str(tmp_path / "out"), "sweep", expect=2)
    assert "need at least 16 nodes" in out.err
    assert not (tmp_path / "out").exists()


def test_verify_scenario_unknown(capsys):
    run_cli(capsys, "verify", "--scenario", "nonsense", expect=2)


def test_lambda_star_tabulated_sublinear_exit3(tmp_path, capsys):
    # a reaction that flattens out never diverges: structured outcome, exit 3
    ts = np.linspace(0.0, 2e4, 400)
    vals = 1.0 + np.tanh(ts / 10.0)
    slopes = np.where(ts < 300.0, 0.1, 0.0)
    table = tmp_path / "flat.csv"
    rows = ["t,g,gp"] + [f"{a},{b},{c}" for a, b, c in zip(ts, vals, slopes)]
    table.write_text("\n".join(rows) + "\n")
    cfg = tmp_path / "tab.ini"
    cfg.write_text(
        "[problem]\nnonlinearity = tabulated\n"
        f"tabulated_file = {table}\n"
        "[grid]\nnodes = 300\nr_min = 1e-6\n"
        "[solver]\nlambda_cap = 1e4\nu_max = 1e4\n"
    )
    out = run_cli(
        capsys,
        "--config",
        str(cfg),
        "--out",
        str(tmp_path / "tab-out"),
        "lambda-star",
        expect=3,
    )
    report = json.loads((tmp_path / "tab-out" / "report.json").read_text())
    assert report["outcome"] == "no-bracket"
    assert "sublinear" in report["diagnosis"]


def test_verify_gelfand_disk(tmp_path, capsys):
    cfg = tmp_path / "v.ini"
    cfg.write_text("[grid]\nnodes = 800\n")
    out = run_cli(
        capsys,
        "--config",
        str(cfg),
        "--out",
        str(tmp_path / "verify"),
        "verify",
        "--scenario",
        "gelfand-disk",
    )
    assert "PASS" in out.out and "FAIL" not in out.out
    report = json.loads((tmp_path / "verify" / "verify_gelfand-disk.json").read_text())
    assert report["passed"] is True


def test_verify_gelfand_disk_sweeps_only_in_its_search(tmp_path, capsys, monkeypatch):
    # the semi-stability, identity and inequality checks read the search's
    # extremal profile, so every sweep of the scenario is a recorded one
    from plaplab import solver

    real_step, real_search = solver._iteration_step, cli.lambda_star_estimate
    steps, results = [], []

    def counted_step(*args):
        steps.append(1)
        return real_step(*args)

    def recorded_search(*args, **kwargs):
        results.append(real_search(*args, **kwargs))
        return results[-1]

    monkeypatch.setattr(solver, "_iteration_step", counted_step)
    monkeypatch.setattr(cli, "lambda_star_estimate", recorded_search)
    out = run_cli(capsys, "--out", str(tmp_path), "verify", "--scenario", "gelfand-disk")
    assert "PASS gelfand-disk: extremal profile semi-stable" in out.out
    assert "FAIL" not in out.out
    assert len(results) == 1
    assert len(steps) == sum(rec.iterations for rec in results[0].records)


@pytest.mark.parametrize(
    "argv",
    [
        ["solve", "--n", "2", "--p", "2", "--lam", "1"],
        ["stability", "--n", "11", "--p", "2", "--exact", "exponential"],
        ["verify", "--scenario", "gelfand-disk"],
        ["verify", "--scenario", "supercritical-exp"],
    ],
    ids=["solve", "stability", "verify-gelfand-disk", "verify-supercritical-exp"],
)
def test_stability_settings_reach_every_report(tmp_path, capsys, monkeypatch, argv):
    real = stability.stability_report
    calls = []

    def recorded(profile, g_prime, **kwargs):
        calls.append(kwargs)
        return real(profile, g_prime, **kwargs)

    monkeypatch.setattr(stability, "stability_report", recorded)
    cfg = tmp_path / "stab.ini"
    cfg.write_text(
        "[grid]\nnodes = 600\nr_min = 1e-7\n"
        "[stability]\nr_trunc = 1e-5\nn_eig = 150\ntol_eig = 1e-7\n"
    )
    run_cli(capsys, "--config", str(cfg), "--out", str(tmp_path / "out"), *argv)
    assert calls
    assert all(kw == {"r_trunc": 1e-5, "n_eig": 150, "tol_eig": 1e-7} for kw in calls)


def _assert_csv_rows_equal_json(csv_path, records):
    """Each CSV row carries the same fields and values as its JSON record."""
    with open(csv_path, newline="") as handle:
        rows = list(csv.DictReader(handle))
    assert len(rows) == len(records)
    for row, rec in zip(rows, records):
        assert set(row) == set(rec)
        for key, value in rec.items():
            if isinstance(value, bool):
                assert row[key] == str(int(value)), key
            elif isinstance(value, str):  # "inf", "-inf", "nan"
                assert row[key] == value, key
            else:
                assert float(row[key]) == value, key


def test_bifurcate_csv_rows_equal_json_points(tmp_path, capsys):
    out_dir = tmp_path / "bf"
    run_cli(capsys, "--out", str(out_dir), "--config", _tiny_config(tmp_path),
            "bifurcate", "--n", "12", "--p", "2", "--centers", "1,4,300")
    points = json.loads((out_dir / "report.json").read_text())["points"]
    # the startup flux at M = 300 underflows: an unconverged point
    assert points[-1]["lambda"] == "nan" and points[-1]["boundary_residual"] == "inf"
    _assert_csv_rows_equal_json(out_dir / "bifurcation.csv", points)


def test_bifurcate_startup_overflow_exit0(tmp_path, capsys):
    # the certifying shoot's startup series overflows at p = 1.1, M = 72: a
    # recorded point, not a traceback
    out_dir = tmp_path / "bf"
    run_cli(capsys, "--out", str(out_dir), "bifurcate", "--n", "5", "--p", "1.1", "--centers", "72")
    (point,) = json.loads((out_dir / "report.json").read_text())["points"]
    assert point["center_value"] == 72.0 and point["boundary_residual"] == "inf"


def test_bifurcate_tiny_centre_exit0(tmp_path, capsys):
    # 1e-8 M underflows at M = 1e-320, so the series has no start: a
    # recorded point, not a math domain error
    out_dir = tmp_path / "bf"
    run_cli(capsys, "--out", str(out_dir), "bifurcate", "--n", "2", "--p", "2", "--centers", "1e-320")
    (point,) = json.loads((out_dir / "report.json").read_text())["points"]
    assert point["converged"] is False
    assert point["lambda"] == "nan" and point["boundary_residual"] == "inf"


def _tiny_config(tmp_path):
    path = tmp_path / "tiny.ini"
    if not path.exists():
        path.write_text("[grid]\nnodes = 600\nr_min = 1e-7\n[stability]\nn_eig = 200\n")
    return str(path)


def _loaded_after(code, modules, cwd=None):
    """The modules of ``modules`` that a fresh interpreter running ``code``
    (after importing plaplab.cli) has imported."""
    src = str(Path(cli.__file__).resolve().parent.parent)
    code = (
        f"import json, sys; sys.path.insert(0, {src!r}); import plaplab.cli; {code}; "
        f"print(json.dumps([m for m in {list(modules)!r} if m in sys.modules]))"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True, cwd=cwd)
    return json.loads(out.stdout.splitlines()[-1])


def _imported_with_cli(module):
    """Whether a fresh interpreter importing plaplab.cli imports module."""
    return _loaded_after("pass", [module]) == [module]


_DEFERRED = ("plaplab.stability", "plaplab.estimates", "plaplab.exponents", "plaplab.oracle")


def test_cli_import_leaves_the_process_pool_out():
    # only `sweep --jobs N` with N > 1 uses it; every command pays for an import
    assert not _imported_with_cli("concurrent.futures.process")


def test_cli_import_leaves_numpy_polynomial_out():
    # the Gauss-Legendre rules are literals; leggauss's import cost every
    # command a few milliseconds
    assert not _imported_with_cli("numpy.polynomial")


def test_cli_import_leaves_deferred_modules_out():
    # only the commands that run them import them
    assert _loaded_after("pass", [*_DEFERRED, "configparser"]) == []


def test_cli_import_loads_only_core_and_solver():
    loaded = _loaded_after("pass", ["plaplab", *(f"plaplab.{m}" for m in plaplab._SUBMODULES)])
    assert sorted(loaded) == ["plaplab", "plaplab.cli", "plaplab.core", "plaplab.solver"]


@pytest.mark.parametrize(
    "argv",
    [
        ["bifurcate", "--n", "2", "--p", "2", "--centers", "0.5,1.2"],
        ["lambda-star", "--n", "12", "--p", "2"],
    ],
    ids=["bifurcate", "lambda-star"],
)
def test_curve_and_bracket_runs_load_no_deferred_module(tmp_path, argv):
    code = f"code = plaplab.cli.main(['--out', 'out', *{argv!r}]); assert code == 0, code"
    assert _loaded_after(code, _DEFERRED, cwd=tmp_path) == []
    assert (tmp_path / "out" / "report.json").is_file()


def test_lazy_namespace_is_the_submodules():
    for name in plaplab.__all__:
        module = importlib.import_module(f"plaplab.{plaplab._EXPORTS[name]}")
        assert getattr(plaplab, name) is getattr(module, name), name
    assert set(plaplab.__all__) <= set(dir(plaplab))
    assert set(plaplab._SUBMODULES) <= set(dir(plaplab))
    # in a fresh interpreter a submodule or a public name imports its module
    lazy = "plaplab.oracle; plaplab.stability_report"
    assert _loaded_after(lazy, [*_DEFERRED]) == ["plaplab.stability", "plaplab.oracle"]
    namespace = {}
    exec("from plaplab import *", namespace)
    assert all(namespace[name] is getattr(plaplab, name) for name in plaplab.__all__)
    with pytest.raises(AttributeError):
        plaplab.no_such_name
    with pytest.raises(ImportError):
        exec("from plaplab import no_such_name", {})


def test_cli_stability_report_is_the_stability_modules():
    # read on first use, so the CLI's import leaves the stability module out
    assert cli.stability_report is stability.stability_report
    with pytest.raises(AttributeError):
        cli.no_such_name
