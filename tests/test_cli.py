import csv
import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from plaplab import cli, make_grid
from plaplab.cli import main, read_profile_csv


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


@pytest.mark.usefixtures("without_unstable_stop")
def test_undecided_outcomes_are_labelled(tmp_path, capsys):
    """The disk probe at lambda = 2 stops as a fold ghost far below u_max: solve
    calls it undecided (exit 3), and lambda-star lists it next to a bracket
    whose ends both come from decided probes."""
    run_cli(capsys, "--out", str(tmp_path / "sg"), "solve", "--n", "2", "--p", "2", "--lam", "2", expect=3)
    report = json.loads((tmp_path / "sg" / "report.json").read_text())
    assert report["outcome"] == "undecided"
    assert report["record"]["reason"] == "fold ghost" and report["record"]["sup_norm"] < 2.0
    run_cli(capsys, "--out", str(tmp_path / "ld"), "lambda-star", "--n", "2", "--p", "2")
    report = json.loads((tmp_path / "ld" / "report.json").read_text())
    assert report["undecided"] == [2.0]
    assert (report["lambda_lo"], report["lambda_hi"]) == (1.9995, 2.0005)
    reasons = {rec["lambda"]: rec["reason"] for rec in report["records"]}
    assert (reasons[1.9995], reasons[2.0], reasons[2.0005]) == ("converged", "fold ghost", "exceeded u_max")


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
    assert sweep[0] == "lambda,converged,iterations,sup_norm,w1p_norm,f_l1_norm,reason,contraction,certificate"
    assert len(sweep) == len(report["records"]) + 1
    assert any(rec["w1p_norm"] == "inf" for rec in report["records"])
    # certified accelerated probes carry their eps, unstable iterates their
    # growth bound, plain ones "nan"
    certified = [rec for rec in report["records"] if rec["certificate"] != "nan"]
    assert any(rec["converged"] for rec in certified)
    for rec in certified:
        assert rec["certificate"] > 0 if rec["converged"] else rec["reason"] == "unstable iterate"
    _assert_csv_rows_equal_json(out_dir / "lambda_sweep.csv", report["records"])


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
    run_cli(capsys, "--out", str(tmp_path / "sg"), "solve", "--n", "2", "--p", "2", "--lam", "2", expect=3)
    record = json.loads((tmp_path / "sg" / "report.json").read_text())["record"]
    run_cli(capsys, "--out", str(tmp_path / "ls"), "--config", _tiny_config(tmp_path),
            "lambda-star", "--n", "2", "--p", "2")
    header = (tmp_path / "ls" / "lambda_sweep.csv").read_text().split("\n")[0]
    assert sorted(record) == sorted(header.split(","))  # reports sort their keys
    assert math.isfinite(record["contraction"])


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
    real = cli.stability_report
    calls = []

    def recorded(profile, g_prime, **kwargs):
        calls.append(kwargs)
        return real(profile, g_prime, **kwargs)

    monkeypatch.setattr(cli, "stability_report", recorded)
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


def _tiny_config(tmp_path):
    path = tmp_path / "tiny.ini"
    if not path.exists():
        path.write_text("[grid]\nnodes = 600\nr_min = 1e-7\n[stability]\nn_eig = 200\n")
    return str(path)


def test_cli_import_leaves_the_process_pool_out():
    # only `sweep --jobs N` with N > 1 uses it; every command pays for an import
    src = str(Path(cli.__file__).resolve().parent.parent)
    code = (
        f"import sys; sys.path.insert(0, {src!r}); import plaplab.cli; "
        "print('concurrent.futures.process' in sys.modules)"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"
