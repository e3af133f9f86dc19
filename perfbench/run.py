"""plaplab benchmark: one workload, one seed, one process.

    python3 perfbench/run.py --workload fold --seed 1 --seconds 27 --trace 0

Workloads (see ``workloads.py``): ``fold`` brackets lambda* where the
extremal solution is bounded, ``curve`` traces bifurcation curves by
shooting, ``singular`` works on the supercritical side where every lambda*
and stability verdict has a closed form.  Each job is one in-process
``plaplab.cli.main([...])`` call, the command users run, with its outputs
in a scratch directory inside the checkout; every job's answer is checked.

A run makes one warm-up pass over the jobs, then repeats passes until
``--seconds`` have gone.  While a job runs, a timer signal runs a short
fixed probe kernel every ``PROBE_INTERVAL_S``; ``pass_s`` reports a pass's
wall time, less the probes', with each job rescaled by the probes that ran
during it to a machine where the probe takes ``REFERENCE_PROBE_S``.  Set-up is measured after each job, from the
warm-up's first on, until there are ``SETUP_SAMPLES``, each sample a pair
of fresh interpreters: one that imports only numpy, the reference, then one
that imports ``plaplab.cli``; ``setup_s`` is the median ratio of the two,
rescaled to a machine where the reference takes ``REFERENCE_SPAWN_S``.  The
raw wall times are printed and recorded next to the rescaled ones.  With
``--trace 0`` it reports the end-to-end metrics; with
``--trace 1`` it alternates plain and traced passes and reports the
per-layer metrics, the traced spans going to ``.perfbench-out/``.  The last
line of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` (jobs, over all passes) and ``metrics``.  The lines before it say
the same for people, with the run environment and each job's median time.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path
from time import perf_counter

import numpy as np

from tracing import LAYERS, Capture, Tracer
from workloads import K_MAX, WORKLOADS, JobRun, Verdict

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"
# wall times, on the machine the baseline was recorded on (2-vCPU Xeon VM),
# of probe_kernel and of a fresh interpreter importing numpy; they only set
# the scale of the reported times
REFERENCE_PROBE_S = 0.0004
REFERENCE_SPAWN_S = 0.2
PROBE_INTERVAL_S = 0.025  # the probes take about 2% of a job's wall time
PROBE_X = np.linspace(0.0, 1.0, 2000)
SETUP_CODE = f"import sys; sys.path.insert(0, {str(SRC)!r}); import plaplab.cli"
REFERENCE_CODE = "import numpy"
SETUP_SAMPLES = 20  # about 10 s of spawns, the same number on every workload
MIN_PASSES = 3
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


@dataclass
class PassResult:
    traced: bool
    started: str
    seconds: float = 0.0  # wall time of the jobs' main() calls, less the probes'
    ref_seconds: float = 0.0  # the same, each job rescaled by its probe times
    job_seconds: dict = field(default_factory=dict)
    job_probe_seconds: dict = field(default_factory=dict)  # median probe time during each job
    verdicts: dict = field(default_factory=dict)
    counters: dict = field(default_factory=dict)  # job -> job_counters of its public results
    bytes_written: int = 0
    layers: dict = field(default_factory=dict)


def import_plaplab():
    """Import plaplab from this checkout's ``src``, never from elsewhere."""
    if not (SRC / "plaplab" / "cli.py").is_file():
        raise SystemExit(f"error: no plaplab sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import plaplab.cli

    if Path(plaplab.cli.__file__).resolve().parent != SRC / "plaplab":
        raise SystemExit(f"error: imported plaplab from {plaplab.cli.__file__}, not {SRC}")
    return plaplab.cli


def probe_kernel() -> float:
    """Wall time of a short fixed piece of work shaped like plaplab's own:
    passes over 2000-element numpy arrays and a scalar Python loop.  The
    program never changes it, so dividing a job's time by the probe's times
    during the job cancels much of the speed swings of a machine shared with
    others, which come and go within a second."""
    start = perf_counter()
    acc = 0.0
    for k in range(4):
        acc += float(np.cumsum(np.exp(-PROBE_X * k))[-1])
    u = 1.0
    for j in range(1500):
        u += 1e-6 * math.exp(-u) * (j % 3)
    return perf_counter() - start


class SpeedProbe:
    """Runs probe_kernel on a timer signal while a job runs.  Python runs
    the handler between the job's bytecodes, in the job's own thread, so
    each sample sees the machine as the job does at that moment."""

    def __init__(self):
        self.samples: list[float] = []

    def _sample(self, signum, frame) -> None:
        self.samples.append(probe_kernel())

    @contextlib.contextmanager
    def running(self):
        previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)


def spawn_seconds(code: str) -> float:
    """Wall time of a fresh interpreter running ``code``.  No timeout: waiting
    with one polls in steps of up to 50 ms, which would quantize the times."""
    start = perf_counter()
    subprocess.run([sys.executable, "-c", code], cwd=ROOT, check=True)
    return perf_counter() - start


def measure_setup() -> tuple[float, float]:
    """One set-up sample: a fresh interpreter importing numpy, then one
    importing plaplab.cli, as every CLI command does.  The first is the
    reference: the program never changes it, and it shares the second's
    interpreter start and numpy's BLAS threads, so their ratio drops the
    machine's swings that a single-threaded probe would not see."""
    return spawn_seconds(REFERENCE_CODE), spawn_seconds(SETUP_CODE)


def setup_seconds(pairs: list) -> float:
    """Median plaplab.cli spawn time on a machine where the reference spawn
    takes REFERENCE_SPAWN_S."""
    return statistics.median(s / ref for ref, s in pairs) * REFERENCE_SPAWN_S


def git_commit() -> str | None:
    """The checked-out commit, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        return None
    return None


def environment(seed: int) -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_threads": {name: os.environ.get(name) for name in BLAS_VARS},
        "platform": platform.platform(),
        "commit": git_commit(),
        "seed": seed,
    }


def dir_bytes(path: Path) -> int:
    return sum(f.stat().st_size for f in path.rglob("*") if f.is_file())


class Bench:
    def __init__(self, cli, workload: str, seed: int, scratch: Path):
        self.cli = cli
        self.scratch = scratch
        inputs = scratch / "inputs"
        inputs.mkdir()
        self.jobs = WORKLOADS[workload](seed, inputs)
        self.capture = Capture()
        self.tracer = Tracer()
        self.shared: dict = {}  # what checks carry between jobs and passes
        self.attempted = 0
        self.failed = 0
        self.setup_spawns: list = []  # (numpy, plaplab.cli) wall-time pairs
        self.sample_setup = False

    def run_job(self, job, out: Path, traced: bool):
        """Runs one job; returns its JobRun and the median probe time during
        it.  Traced jobs are not probed, so their spans hold only their own
        time; a probe before and after bounds every job."""
        buf = io.StringIO()
        error = ""
        probe = SpeedProbe()
        probe.samples.append(probe_kernel())
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
            start = perf_counter()
            with contextlib.nullcontext() if traced else probe.running():
                try:
                    code = self.cli.main(["--out", str(out), "--jobs", "1", *job.argv])
                except SystemExit as exc:
                    code = exc.code if isinstance(exc.code, int) else 2
                except Exception as exc:  # a crashing job is a failed job, not a failed run
                    code, error = -1, f"{type(exc).__name__}: {exc}"
            # every probe during the job ran between start and now
            seconds = perf_counter() - start - sum(probe.samples[1:])
        probe.samples.append(probe_kernel())
        brackets, curves = self.capture.take()
        run = JobRun(code, out, buf.getvalue(), brackets, curves, seconds, error)
        return run, statistics.median(probe.samples)

    def run_pass(self, traced: bool) -> PassResult:
        result = PassResult(traced, datetime.now(timezone.utc).isoformat())
        if traced:
            self.tracer.reset()
            self.tracer.install()
        self.capture.install()
        try:
            for job in self.jobs:
                self.tracer.job = job.name
                run, result.job_probe_seconds[job.name] = self.run_job(job, self.scratch / job.name, traced)
                if self.sample_setup and len(self.setup_spawns) < SETUP_SAMPLES:
                    self.setup_spawns.append(measure_setup())
                try:
                    verdict = job.check(run, self.shared)
                except (OSError, KeyError, ValueError, TypeError, IndexError) as exc:
                    verdict = Verdict(False, f"unreadable output: {type(exc).__name__}: {exc}")
                if not verdict.ok:
                    # a failed job certifies nothing: count it as 100% off
                    verdict.errors.append(1.0)
                    verdict.widths.append(1.0)
                self.attempted += 1
                self.failed += not verdict.ok
                result.job_seconds[job.name] = run.seconds
                result.verdicts[job.name] = verdict
                result.counters[job.name] = job_counters(run.brackets, run.curves)
                result.bytes_written += dir_bytes(run.out)
        finally:
            self.capture.uninstall()
            if traced:
                self.tracer.uninstall()
        result.seconds = sum(result.job_seconds.values())
        result.ref_seconds = sum(s * REFERENCE_PROBE_S / result.job_probe_seconds[name]
                                 for name, s in result.job_seconds.items())
        if traced:
            result.layers = self.layer_numbers(result)
        return result

    def layer_numbers(self, result: PassResult) -> dict:
        t = self.tracer
        out = {}
        for layer in LAYERS:
            out[f"{layer}.calls"] = t.calls[layer]
            out[f"{layer}.busy_s"] = t.self_s[layer]
        out["solver.shoot.failed"] = t.failed["solver.shoot"]
        out["stability.witnesses"] = t.witnesses
        out["trace.spans"] = len(t.spans)
        out["trace.pass_s"] = result.seconds
        out["trace.self_sum_s"] = sum(t.self_s.values())
        return out


def job_counters(brackets: list, curves: list) -> dict:
    """Counters read from the public results of one job: its λ* brackets'
    ``LambdaRecord``s and its curves' ``BifurcationPoint``s.  Only these are
    kept, not the results, so the memory a run holds does not grow with the
    number of passes."""
    records = [rec for res in brackets for rec in res.records]
    points = [pt for curve in curves for pt in curve]
    undecided = [rec.lam for rec in records if not rec.converged and rec.iterations >= K_MAX]
    return {
        "probes": len(records),
        "sweeps": sum(rec.iterations for rec in records),
        "undecided_probes": len(undecided),
        "undecided_lambdas": undecided,
        "points": len(points),
        "undecided_points": sum(1 for pt in points if not pt.converged),
    }


def solver_counters(result: PassResult, job: str | None = None) -> dict:
    """The counters of one pass, or of one job in it."""
    if job:
        return result.counters[job]
    total = job_counters([], [])
    for counters in result.counters.values():
        for key, value in counters.items():
            total[key] += value
    return total


def end_to_end(passes: list[PassResult], bench: Bench) -> dict:
    measured = [p for p in passes[1:] if not p.traced]
    counters = solver_counters(passes[0])
    outcomes = counters["probes"] + counters["points"]
    undecided = counters["undecided_probes"] + counters["undecided_points"]
    verdicts = [v for p in passes for v in p.verdicts.values()]
    return {
        "setup_s": setup_seconds(bench.setup_spawns),
        "pass_s": statistics.median(p.ref_seconds for p in measured),
        "oracle_err": max(e for v in verdicts for e in v.errors),
        "bracket_rel": max(w for v in verdicts for w in v.widths),
        "decided_frac": 1.0 - undecided / outcomes if outcomes else 1.0,
        "ok_frac": 1.0 - bench.failed / bench.attempted,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer(passes: list[PassResult]) -> dict:
    plain = [p for p in passes[1:] if not p.traced]
    traced = [p for p in passes if p.traced]
    # counts repeat exactly from pass to pass; times are medians
    out = {k: statistics.median(p.layers[k] for p in traced) if k.endswith("_s") else v
           for k, v in traced[0].layers.items()}
    counters = solver_counters(traced[0])
    out["solver.probes"] = counters["probes"]
    out["solver.sweeps"] = counters["sweeps"]
    out["solver.undecided_probes"] = counters["undecided_probes"]
    out["solver.sweeps_per_probe"] = counters["sweeps"] / counters["probes"] if counters["probes"] else 0.0
    out["solver.points"] = counters["points"]
    out["solver.shoots_per_point"] = out["solver.shoot.calls"] / counters["points"] if counters["points"] else 0.0
    out["cli.self_s"] = out.pop("cli.busy_s")
    out["cli.bytes_written"] = traced[0].bytes_written
    out["trace.overhead_s"] = out["trace.pass_s"] - statistics.median(p.seconds for p in plain)
    return out


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    cli = import_plaplab()
    OUT.mkdir(exist_ok=True)
    if not trace:
        measure_setup()  # writes the bytecode cache, which users pay once per install
    scratch = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=OUT))
    try:
        bench = Bench(cli, workload, seed, scratch)
        bench.sample_setup = not trace
        passes = [bench.run_pass(traced=False)]  # warm-up
        start = perf_counter()
        while True:
            plain = [p for p in passes[1:] if not p.traced]
            traced = [p for p in passes if p.traced]
            enough = len(plain) >= MIN_PASSES and (not trace or len(traced) >= MIN_PASSES)
            if enough and perf_counter() - start >= seconds:
                break
            passes.append(bench.run_pass(traced=trace and len(traced) < len(plain)))
        if trace:
            bench.tracer.write_spans(OUT / f"spans-{workload}-seed{seed}.jsonl")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    metrics = per_layer(passes) if trace else end_to_end(passes, bench)
    timed = len([p for p in passes[1:] if p.traced == trace])
    if trace:  # times are medians over traced passes, counts come from one
        samples = {name: timed if name.endswith("_s") else 1 for name in metrics}
    else:  # correctness metrics rest on every job check of the run
        samples = dict.fromkeys(metrics, bench.attempted)
        samples.update(setup_s=len(bench.setup_spawns), pass_s=timed, peak_rss_mb=1)
    record = {
        "workload": workload,
        "trace": int(trace),
        "environment": environment(seed),
        "passes": [
            {
                "traced": p.traced,
                "started": p.started,
                "seconds": p.seconds,
                "ref_seconds": p.ref_seconds,
                "job_probe_seconds": p.job_probe_seconds,
                "jobs": {name: {"seconds": s, "ok": p.verdicts[name].ok, "detail": p.verdicts[name].detail} for name, s in p.job_seconds.items()},
            }
            for p in passes
        ],
        "setup_spawns": bench.setup_spawns,
        "counters": solver_counters(passes[0]),
        "job_counters": {job.name: solver_counters(passes[0], job.name) for job in bench.jobs},
        "metrics": metrics,
        "samples": samples,
        "attempted": bench.attempted,
        "failed": bench.failed,
    }
    (OUT / f"run-{workload}-seed{seed}-trace{int(trace)}.json").write_text(json.dumps(record, indent=1) + "\n")
    return record


def report(record: dict, declared: list) -> None:
    env = record["environment"]
    print(f"# {record['workload']} seed={env['seed']} trace={record['trace']} commit={env['commit']} "
          f"nproc={env['nproc']} python={env['python']} numpy={env['numpy']} blas={env['blas_threads']}")
    passes = record["passes"]
    print(f"# passes: 1 warm-up + {len(passes) - 1}; starts {', '.join(p['started'][11:19] for p in passes)}")
    for name in passes[0]["jobs"]:
        times = [p["jobs"][name]["seconds"] for p in passes[1:]]
        first = passes[0]["jobs"][name]
        print(f"#   {name:24s} median {statistics.median(times):8.4f} s  {'ok' if first['ok'] else 'FAILED'}  {first['detail']}")
    for p in passes:
        for name, job in p["jobs"].items():
            if not job["ok"]:
                print(f"# FAILED {name} in pass starting {p['started']}: {job['detail']}")
    for name, counters in record["job_counters"].items():
        print(f"# counters {name}: {counters}")
    measured = passes[1:]
    probes = [k for p in measured for k in p["job_probe_seconds"].values()]
    print(f"# wall times: pass median {statistics.median(p['seconds'] for p in measured):.6g} s; "
          f"probe median {statistics.median(probes):.6g} s (scaled to {REFERENCE_PROBE_S} s)")
    pairs = record["setup_spawns"]
    if pairs:
        print(f"# set-up wall times: plaplab.cli median {statistics.median(s for _, s in pairs):.6g} s, "
              f"numpy median {statistics.median(ref for ref, _ in pairs):.6g} s (scaled to {REFERENCE_SPAWN_S} s)")
        metrics = record["metrics"]
        print(f"# failed_frac = {1.0 - metrics['ok_frac']:.6g}; undecided_frac = {1.0 - metrics['decided_frac']:.6g}")
    for m in declared:
        name = m["name"]
        print(f"{name} = {record['metrics'][name]:.6g} {m['unit']}  ({m['better']} is better; "
              f"{record['samples'].get(name, 1)} samples)")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("fold", "curve", "singular"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    bench_file = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = bench_file["per_layer" if args.trace else "end_to_end"]
    record = run(args.workload, args.seed, args.seconds, bool(args.trace))
    metrics = {m["name"]: {"value": record["metrics"][m["name"]], "unit": m["unit"]} for m in declared}
    report(record, declared)
    print(json.dumps({
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
