"""Tests of the benchmark itself.

    python3 -m pytest -q perfbench

They run single passes of the real workloads (under a minute in all).
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import workloads

CLI = run.import_plaplab()


def one_pass(tmp_path: Path, workload: str, seed: int, traced: bool):
    scratch = tmp_path / "bench"
    scratch.mkdir()
    bench = run.Bench(CLI, workload, seed, scratch)
    return bench, bench.run_pass(traced=traced)


@pytest.fixture(scope="module")
def traced_passes(tmp_path_factory):
    """Two benches per workload at one seed, one traced pass each."""
    out = {}
    for workload in workloads.WORKLOADS:
        out[workload] = [
            one_pass(tmp_path_factory.mktemp(workload), workload, 7, traced=True)
            for _ in range(2)
        ]
    return out


def test_counters_repeat_exactly(traced_passes):
    for workload, ((b1, p1), (b2, p2)) in traced_passes.items():
        assert b1.failed == b2.failed == 0, workload
        assert run.solver_counters(p1) == run.solver_counters(p2), workload
        for job in b1.jobs:
            assert run.solver_counters(p1, job.name) == run.solver_counters(p2, job.name)
            assert p1.verdicts[job.name] == p2.verdicts[job.name]
        counts = [k for k in p1.layers if not k.endswith("_s")]
        assert {k: p1.layers[k] for k in counts} == {k: p2.layers[k] for k in counts}
        assert p1.bytes_written == p2.bytes_written


def test_seed_facts(traced_passes):
    fold = traced_passes["fold"][0][1]
    assert run.solver_counters(fold, "verify-disk") == {
        "probes": 11, "sweeps": 11299, "undecided_probes": 1, "undecided_lambdas": [2.0],
        "points": 0, "undecided_points": 0,
    }
    assert fold.layers["solver.shoot.calls"] == 0
    curve = traced_passes["curve"][0][1]
    assert run.solver_counters(curve)["sweeps"] == 0
    assert curve.layers["core.quadrature.calls"] == 0
    for layer in ("stability", "stability.assemble", "stability.eig", "stability.hardy"):
        assert curve.layers[f"{layer}.calls"] == 0
    assert traced_passes["singular"][0][1].layers["solver.shoot.calls"] == 0


def test_self_times_add_up_to_pass_time(traced_passes):
    for workload, ((_, p), _) in traced_passes.items():
        busy = sum(v for k, v in p.layers.items() if k.endswith(".busy_s"))
        assert busy == pytest.approx(p.layers["trace.self_sum_s"], rel=1e-9)
        assert p.layers["trace.self_sum_s"] == pytest.approx(p.seconds, rel=1e-3), workload


def test_reports_every_declared_metric(traced_passes):
    declared = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    bench, traced = traced_passes["curve"][0]
    plain = dataclasses.replace(traced, traced=False)
    layers = run.per_layer([plain, plain, traced])
    assert {m["name"] for m in declared["per_layer"]} <= set(layers)
    bench.setup_spawns = [(0.2, 0.3)]
    totals = run.end_to_end([plain, plain], bench)
    assert totals["setup_s"] == pytest.approx(0.3 / 0.2 * run.REFERENCE_SPAWN_S)
    assert [m["name"] for m in declared["end_to_end"]] == list(totals)
    assert all(v > 0 for v in totals.values())


def test_tracer_puts_originals_back(traced_passes):
    import plaplab.solver
    import plaplab.core

    assert not hasattr(plaplab.solver.shoot, "__wrapped__")
    assert not hasattr(plaplab.core.QuadratureRule.integrate, "__wrapped__")
    assert not hasattr(CLI.lambda_star_estimate, "__wrapped__")


def test_shifted_bracket_fails(tmp_path, monkeypatch):
    real = CLI.lambda_star_estimate

    def shifted(*args, **kwargs):
        res = real(*args, **kwargs)
        return dataclasses.replace(res, lambda_lo=res.lambda_lo * 1.05, lambda_hi=res.lambda_hi * 1.05)

    monkeypatch.setattr(CLI, "lambda_star_estimate", shifted)
    bench, result = one_pass(tmp_path, "singular", 7, traced=False)
    bad = {name for name, v in result.verdicts.items() if not v.ok}
    assert bad == {"sweep", "verify-supercritical"}
    assert bench.failed == 2 and bench.attempted == len(bench.jobs)
    assert max(result.verdicts["sweep"].errors) == 1.0


def test_flipped_verdict_fails(tmp_path, monkeypatch):
    real = CLI.stability_report
    flip = {"semi-stable": "unstable", "unstable": "semi-stable"}

    def flipped(*args, **kwargs):
        rep = real(*args, **kwargs)
        return dataclasses.replace(rep, verdict=flip.get(rep.verdict, rep.verdict))

    monkeypatch.setattr(CLI, "stability_report", flipped)
    bench, result = one_pass(tmp_path, "singular", 7, traced=False)
    bad = {name for name, v in result.verdicts.items() if not v.ok}
    assert bad == {"exp-n9", "exp-n11", "power-n12", "verify-supercritical"}
    assert bench.failed == 4 and bench.attempted == len(bench.jobs)


def test_checks_reject_wrong_answers(tmp_path):
    out = tmp_path / "slab"
    out.mkdir()
    job = workloads.JobRun(0, out, "", [], [])
    check = workloads.check_lambda_star(workloads.SLAB_LAMBDA_STAR)
    ref = workloads.SLAB_LAMBDA_STAR
    for scale, ok in ((1.0, True), (1.05, False), (0.95, False)):
        lo, hi = ref * scale * (1 - 4e-4), ref * scale * (1 + 4e-4)
        (out / "report.json").write_text(json.dumps({"lambda_lo": lo, "lambda_hi": hi}))
        assert check(job, {}).ok is ok
    (out / "report.json").write_text(json.dumps({"lambda_lo": ref * 0.99, "lambda_hi": ref * 1.01}))
    assert not check(job, {}).ok  # wider than tol_lambda
    assert not check(workloads.JobRun(3, out, "", [], []), {}).ok


def test_seed_draws_inputs(tmp_path):
    a, b, c = (tmp_path / n for n in "abc")
    for d in (a, b, c):
        d.mkdir()
    jobs_a = workloads.WORKLOADS["curve"](1, a)
    assert [j.argv for j in jobs_a] == [j.argv for j in workloads.WORKLOADS["curve"](1, b)]
    assert [j.argv for j in jobs_a] != [j.argv for j in workloads.WORKLOADS["curve"](2, c)]
    workloads.fold(1, a)
    workloads.fold(2, c)
    assert (a / "cubic.csv").read_text() != (c / "cubic.csv").read_text()


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fold", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
