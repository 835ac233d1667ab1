"""Traced size sweep of `voterlim simulate` on the two-block kernel.

    python3 perfbench/sweep.py > perfbench/results/sweep.json

For each n in SIZES, runs one traced `simulate` of the bipartite kernel r = 1/3
from balanced blocks with 201 times to horizon 10, then times
`volterra_residual` on the trajectory it wrote.  Prints one JSON object
with the environment and, per n, the inclusive times of
`discretize_kernel`, `eigh`, `solve_finite`, the CSV write and the
residual.  Not gated: it reproduces the baseline layer table for the
record, so expect one run at n = 4096 to need about 1 GB of memory.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

import spans
from run import Runner, environment, scratch_dir, sources_problem
from workloads import VOLTERRA_RTOL, Call, Workload

R = 1.0 / 3.0
SIZES = (1024, 2048, 4096)


def row(n: int, runner: Runner) -> dict:
    from voterlim import BipartiteKernel, read_trajectory, volterra_residual

    residual = {}

    def check(wl: Workload, out: Path) -> list[str]:
        traj = read_trajectory(out / "trajectory.csv")
        start = time.perf_counter()
        residual["value"] = volterra_residual(BipartiteKernel(R), traj)
        residual["seconds"] = time.perf_counter() - start
        return [] if residual["value"] < VOLTERRA_RTOL else [f"residual {residual['value']:.3g}"]

    config = {
        "kernel": {"type": "bipartite", "r": R},
        "initial": {"type": "balanced_blocks", "r": R},
        "n": n,
        "horizon": 10.0,
        "num_times": 201,
        "method": "expm",
    }
    wl = Workload(f"sweep_n{n}", {"simulate": config}, (Call("simulate", "simulate"),), check)
    job = runner.job(wl, traced=True)
    names = spans.per_name(job.spans)

    def total(span_name):
        return names.get(span_name, {}).get("total_s", 0.0)

    return {
        "n": n,
        "discretize_kernel_s": total("graphs.discretize_kernel"),
        "eigh_s": total("numpy.linalg.eigh"),
        "solve_finite_s": total("dynamics.solve_finite"),
        "csv_write_s": total("dynamics.write_trajectory"),
        "volterra_residual_s": residual.get("seconds"),
        "volterra_residual": residual.get("value"),
        "job_s": job.wall_s,
        "peak_rss_mb": job.maxrss_kb / 1024.0,
        "problems": job.problems,
    }


def main() -> int:
    problem = sources_problem()
    if problem:
        print(problem, file=sys.stderr)
        return 2
    with scratch_dir("sweep-") as scratch:
        runner = Runner(scratch)
        row(min(SIZES), runner)  # warm-up: the first job after a pause runs slow
        rows = [row(n, runner) for n in SIZES]
    result = {
        "sweep": "simulate bipartite r=1/3, balanced blocks, 201 times, horizon 10, expm",
        "environment": environment(),
        "rows": rows,
    }
    print(json.dumps(result, indent=1))
    return 0 if all(not r["problems"] for r in rows) else 1


if __name__ == "__main__":
    sys.exit(main())
