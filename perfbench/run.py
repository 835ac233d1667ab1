"""Closed-loop benchmark of the `voterlim` command line on one seeded workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  One client runs jobs back to back: a job
is one fresh `python -m voterlim.cli <subcommand>` process per call, and
the next job starts only when the previous one has exited.  Each job's
artifacts are checked outside the timed section.

--trace 0 prints the end-to-end metrics.  --trace 1 alternates untraced
jobs with jobs run through `traced_cli.py`, prints the per-layer metrics
(per-job means over the traced jobs, errors as run totals), the tracing
overhead, and the thread-scaling probe.  The line before the result holds
the environment record and the details behind every metric.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import statistics
import sys
import tempfile
from dataclasses import dataclass, field
from pathlib import Path

import jobs
import spans
from workloads import WORKLOADS, Workload, mc_graphon

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

MIN_JOBS = jobs.TAIL_BEYOND + 1
TAIL_MIN_PERCENTILE = 50.0
MIN_TRACE_PAIRS = 3
# Stop starting jobs after this long, so a run ends well within 180 s.
LOOP_CAP_S = 110.0

# Per-layer time metric -> the spans whose self time it sums.  Every span
# name is in exactly one entry, so these add up to the traced time.
SELF_TIME = {
    "kernels.self_s": (
        "kernels.make_kernel", "kernels.Kernel.as_step",
        "kernels.StepKernel.as_step", "kernels.overlap_matrix",
    ),
    "graphs.discretize_kernel_s": ("graphs.discretize_kernel",),
    "graphs.sample_w_random_s": ("graphs.sample_w_random",),
    "graphs.weighted_graph_s": ("graphs.WeightedGraph.__init__",),
    "graphs.laplacian_s": ("graphs.laplacian",),
    "graphs.json_io_s": ("graphs.WeightedGraph.to_json", "graphs.WeightedGraph.from_json"),
    "dynamics.eigh_s": ("numpy.linalg.eigh", "numpy.linalg.eigvalsh"),
    "dynamics.solve_self_s": ("dynamics.solve_finite", "dynamics.solve_continuum"),
    "dynamics.csv_write_s": ("dynamics.write_trajectory",),
    "dynamics.step_geometry_s": (
        "dynamics.step_l2_distance", "dynamics.step_exceedance_measure",
    ),
    "dynamics.exceptional_measure_s": ("dynamics.exceptional_measure",),
    "structure.twin_sets_s": ("structure.find_maximal_twin_sets",),
    "structure.components_s": ("structure.connected_components",),
    "experiments.self_s": (
        "experiments.ExperimentConfig.from_dict", "experiments.convergence_study",
        "experiments.consensus_proximity", "experiments.random_consensus_mc",
    ),
    "cli.self_s": ("cli.main",),
}
# Per-layer count metric -> (span field summed, spans).
COUNTS = {
    "graphs.dense_cells": ("work", ("graphs.WeightedGraph.__init__",)),
    "dynamics.eigh_calls": ("calls", SELF_TIME["dynamics.eigh_s"]),
    "dynamics.eigh_n3_sum": ("work", SELF_TIME["dynamics.eigh_s"]),
    "dynamics.step_geometry_calls": ("calls", SELF_TIME["dynamics.step_geometry_s"]),
    "experiments.trials": ("work", ("experiments.random_consensus_mc",)),
}


@dataclass
class Job:
    wall_s: float = 0.0
    maxrss_kb: int = 0
    problems: list = field(default_factory=list)
    spans: list = field(default_factory=list)
    missing: list = field(default_factory=list)
    files: int = 0
    bytes: int = 0
    kept: bytes | None = None


class Runner:
    """Runs jobs inside a private scratch directory."""

    def __init__(self, scratch: Path):
        self.scratch = scratch
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p
        )
        # Jobs keep bytecode in a cache of the run's own, filled by one untimed
        # import, so timed processes load compiled modules as an installed
        # copy would, and the checkout gets no __pycache__ from them.
        self.env.pop("PYTHONDONTWRITEBYTECODE", None)
        self.env["PYTHONPYCACHEPREFIX"] = str(scratch / "pycache")
        self.count = 0
        self.import_s()

    def import_s(self) -> float:
        """Wall time of a cold process that only imports voterlim.cli."""
        err = self.scratch / "import.err"
        argv = [sys.executable, "-c", "import voterlim.cli"]
        proc = jobs.spawn(argv, self.scratch, self.env, err)
        if proc.code != 0:
            raise RuntimeError(f"importing voterlim.cli failed: {err.read_text()[-300:]}")
        return proc.wall_s

    def job(self, wl: Workload, traced: bool = False, threads: int = 1,
            keep: str | None = None) -> Job:
        """Run one job, check its artifacts and return its measurements.

        `keep` names an artifact whose bytes are kept in `job.kept`, because
        the job's directory is removed afterwards.
        """
        configs = self.scratch / f"configs-{wl.name}"
        if not configs.exists():
            wl.write_configs(configs)
        self.count += 1
        job_id = f"job-{self.count:04d}"
        jobdir = self.scratch / job_id
        out = jobdir / "out"
        out.mkdir(parents=True)
        job = Job()
        for k, call in enumerate(wl.calls):
            cli = [call.command, "--config", str(configs / f"{call.config}.json"),
                   "--out", str(out), "--threads", str(threads)]
            trace_file = jobdir / f"spans-{k}.json"
            if traced:
                argv = [sys.executable, str(HERE / "traced_cli.py"), str(trace_file), job_id] + cli
            else:
                argv = [sys.executable, "-m", "voterlim.cli"] + cli
            proc = jobs.spawn(argv, out, self.env, jobdir / f"stderr-{k}.txt")
            job.wall_s += proc.wall_s
            job.maxrss_kb = max(job.maxrss_kb, proc.maxrss_kb)
            if traced and trace_file.exists():  # written on failure too
                recorded = json.loads(trace_file.read_text())
                job.spans = spans.concat([job.spans, spans.spans_from_json(recorded["spans"])])
                job.missing = recorded["missing"]
            if proc.code != 0:
                err = (jobdir / f"stderr-{k}.txt").read_text()[-300:]
                job.problems.append(f"{call.command} exited with {proc.code}: {err}")
                break
        artifacts = [p for p in out.rglob("*") if p.is_file()]
        job.files = len(artifacts)
        job.bytes = sum(p.stat().st_size for p in artifacts)
        if not job.problems:
            try:
                job.problems = wl.check(out)
            except Exception as exc:  # a malformed or missing artifact fails the job
                job.problems = [f"check failed: {type(exc).__name__}: {exc}"]
        job.kept = (out / keep).read_bytes() if keep and (out / keep).exists() else None
        shutil.rmtree(jobdir)
        return job

    def closed_loop(self, wl: Workload, seconds: float, kinds: tuple, min_each: int,
                    imports: list | None = None) -> dict:
        """Cycle through job kinds (traced or not) until `seconds` of job time
        have passed and every kind has run at least `min_each` times.  With
        an `imports` list, also time one cold import before each job, so the
        set-up samples spread over the whole run."""
        done = {kind: [] for kind in kinds}
        busy = 0.0
        while busy < seconds or min(len(v) for v in done.values()) < min_each:
            if busy > LOOP_CAP_S:
                break
            for kind in kinds:
                if imports is not None:
                    imports.append(self.import_s())
                job = self.job(wl, traced=kind)
                done[kind].append(job)
                busy += job.wall_s
        return done


def end_to_end(runner: Runner, wl: Workload, seconds: float) -> tuple[dict, dict, list]:
    imports: list[float] = []
    done = runner.closed_loop(wl, seconds, (False,), MIN_JOBS, imports)[False]
    walls = [j.wall_s for j in done]
    # The loop cap may cut a run short of the jobs the tail rule needs.
    tail_s, tail_p = jobs.tail(walls) if len(walls) > jobs.TAIL_BEYOND else (None, None)
    failed = sum(bool(j.problems) for j in done)
    metrics = {
        "job_s_p50": (statistics.median(walls), "s"),
        "peak_rss_mb": (max(j.maxrss_kb for j in done) / 1024.0, "MB"),
        "success_rate": (1.0 - failed / len(done), "ratio"),
        "setup_s": (statistics.median(imports), "s"),
    }
    details = {
        "jobs": len(done),
        # A run affords 11-13 jobs, so the tail rule lands on p9-p25, which
        # is not a tail; the value goes out under that name only from p50 up.
        "job_s_tail": tail_s if tail_p is not None and tail_p >= TAIL_MIN_PERCENTILE else None,
        "tail_percentile": tail_p,
        "job_s_max": max(walls),
        "error_rate": failed / len(done),
        "job_walls_s": walls,
        "import_walls_s": imports,
    }
    return metrics, details, done


def per_layer(runner: Runner, wl: Workload, seconds: float, seed: int) -> tuple[dict, dict, list]:
    done = runner.closed_loop(wl, seconds, (False, True), MIN_TRACE_PAIRS)
    plain, traced = done[False], done[True]
    n = len(traced)
    all_spans = spans.concat(j.spans for j in traced)
    names = spans.per_name(all_spans)

    def total(field_name, span_names):
        return sum(names.get(name, {}).get(field_name, 0.0) for name in span_names)

    metrics = {m: (total("self_s", s) / n, "s") for m, s in SELF_TIME.items()}
    for m, (field_name, span_names) in COUNTS.items():
        metrics[m] = (total(field_name, span_names) / n, "count")
    metrics["cli.bytes_written"] = (sum(j.bytes for j in traced) / n, "bytes")
    metrics["cli.files_written"] = (sum(j.files for j in traced) / n, "count")
    for layer, count in spans.layer_errors(all_spans).items():
        metrics[f"{layer}.errors"] = (float(count), "count")

    traced_walls = [j.wall_s for j in traced]
    plain_walls = [j.wall_s for j in plain]
    job_mean = sum(traced_walls) / n
    unspanned = sum(j.wall_s - spans.root_time(j.spans) for j in traced) / n
    metrics["trace.job_mean_s"] = (job_mean, "s")
    metrics["trace.unspanned_s"] = (unspanned, "s")
    overhead = statistics.median(traced_walls) - statistics.median(plain_walls)
    metrics["trace.overhead_s"] = (overhead, "s")

    # Thread-scaling probe: one mc_graphon job at --threads 1 and at 2.
    probe = mc_graphon(seed)
    one = runner.job(probe, threads=1, keep="mc.csv")
    two = runner.job(probe, threads=2, keep="mc.csv")
    probe_jobs = [one, two]
    if one.kept is None or one.kept != two.kept:
        two.problems.append("mc.csv differs between --threads 1 and --threads 2")
    metrics["experiments.mc_threads_speedup"] = (one.wall_s / two.wall_s, "ratio")

    accounted = sum(metrics[m][0] for m in SELF_TIME) + unspanned
    details = {
        "traced_jobs": n,
        "untraced_jobs": len(plain),
        "traced_walls_s": traced_walls,
        "untraced_walls_s": plain_walls,
        "self_times_plus_unspanned_s": accounted,
        "missing_targets": traced[0].missing if traced else [],
        "probe_walls_s": {"threads_1": one.wall_s, "threads_2": two.wall_s},
        "spans": {k: names[k] for k in sorted(names)},
    }
    return metrics, details, plain + traced + probe_jobs


def environment() -> dict:
    """The environment record, with how Runner's jobs find their bytecode."""
    return {
        **jobs.environment(),
        "job_bytecode": "PYTHONPYCACHEPREFIX in the run's scratch dir, filled by one untimed import",
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    return parser.parse_args(argv)


def sources_problem() -> str | None:
    """Put the checkout's `src` first on sys.path; say why it cannot be used."""
    if not (SRC / "voterlim" / "cli.py").is_file():
        return f"no voterlim sources under {SRC}"
    sys.path.insert(0, str(SRC))
    import voterlim

    if Path(voterlim.__file__).resolve().parent != SRC / "voterlim":
        return f"voterlim was imported from {voterlim.__file__}, not {SRC}"
    return None


@contextlib.contextmanager
def scratch_dir(prefix: str):
    """A fresh directory under WORK, removed with everything in it on exit."""
    WORK.mkdir(exist_ok=True)
    path = Path(tempfile.mkdtemp(prefix=prefix, dir=WORK))
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:  # another run still uses it
            pass


def main(argv=None) -> int:
    args = parse_args(argv)
    problem = sources_problem()
    if problem:
        print(problem, file=sys.stderr)
        return 2
    with scratch_dir(f"{args.workload}-") as scratch:
        runner = Runner(scratch)
        wl = WORKLOADS[args.workload](args.seed)
        if args.trace:
            metrics, details, done = per_layer(runner, wl, args.seconds, args.seed)
        else:
            metrics, details, done = end_to_end(runner, wl, args.seconds)
    failures = [p for j in done for p in j.problems]
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(),
        "failures": failures[:20],
        **details,
    }
    print(json.dumps({"report": report}))
    failed = sum(bool(j.problems) for j in done)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(done),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
