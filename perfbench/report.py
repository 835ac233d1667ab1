"""Run the benchmark on every workload and print each metric with its unit.

    python3 perfbench/report.py [--workloads NAME ...] [--seeds 1 2 ...] [--trace 0|1]

Runs `run.py` once per workload and seed, as BENCHMARK.json specifies, and
prints every metric by name with its unit, plus the ungated tail time
when a run has enough jobs for one.  With several seeds it also prints
each metric's median and the spread between its quartiles as a share of
the median, next to its bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

import jobs
import run

ROOT = Path(__file__).resolve().parent.parent


def run_once(bench: dict, workload: str, seed: int, trace: int) -> tuple[dict, dict]:
    """The report line and the result line of one run."""
    argv = bench["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(bench["run_seconds"]), "--trace", str(trace),
    ]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise RuntimeError(
            f"{workload} seed {seed} exited {proc.returncode}: {proc.stderr[-500:]}"
        )
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2])["report"], json.loads(lines[-1])


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", nargs="+", default=[w["name"] for w in bench["workloads"]])
    parser.add_argument("--seeds", nargs="+", type=int, default=[1])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    ok = True
    for workload in args.workloads:
        values: dict[str, list[float]] = {}
        for seed in args.seeds:
            report, result = run_once(bench, workload, seed, args.trace)
            ok &= result["correct"]
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']}")
            for name, m in result["metrics"].items():
                print(f"  {name:34s} {m['value']:.6g} {m['unit']}")
                values.setdefault(name, []).append(m["value"])
            if report.get("job_s_tail") is not None:
                print(f"  {'job_s_tail (not gated)':34s} {report['job_s_tail']:.6g} s"
                      f" at p{report['tail_percentile']:.0f} of {report['jobs']} jobs")
            elif "jobs" in report:
                print(f"  {'job_s_tail':34s} none: with {jobs.TAIL_BEYOND} of {report['jobs']}"
                      f" jobs beyond it the rule lands below p{run.TAIL_MIN_PERCENTILE:.0f};"
                      f" slowest job {report['job_s_max']:.6g} s")
        if len(args.seeds) < 2:
            continue
        print(f"{workload}: median, quartile spread / median, bound")
        for name, vs in values.items():
            median = statistics.median(vs)
            q1, _, q3 = statistics.quantiles(vs, n=4)
            spread = (q3 - q1) / median if median else float("nan")
            print(f"  {name:34s} {median:.6g} {spread:.4f} {bounds.get(name)}")
        sys.stdout.flush()
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
