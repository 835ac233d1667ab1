"""Time fresh `voterlim` jobs of this checkout against another tree, interleaved.

    python3 tools/ab_jobs.py OTHER_TREE --workload NAME --reps K [--seed N]

A job runs every call of one workload from `perfbench/workloads.py`, each
as a fresh `python -m voterlim.cli` process with PYTHONPATH set to the
tree's `src/`, in a fresh output directory and with the arguments
`perfbench/run.py` passes; its time is the sum of its processes' walls,
spawn to exit.  Each tree keeps its bytecode in a cache of its own
(PYTHONPYCACHEPREFIX), filled by one untimed job, so neither tree gets a
`__pycache__`.  Then the trees alternate job by job in ABBA order (this,
other, other, this, ...), K jobs each, so drift in the host's speed falls
on both alike.  Prints each tree's median and quartiles, its median job
peak RSS (the largest of the job's processes; this tool checks nothing
in-process, so its own small peak is all a child can inherit), the
change of the median and how many of the K pairs this tree won; exits 1
if a job fails.

Right before each timed job, one fresh `python -c "import voterlim.cli"`
process of the same tree, env and bytecode cache is timed too (the import
probe).  Job wall / probe wall divides out most of the host's drift, which
moves both alike; per tree the tool prints the median and quartiles of
that ratio and how many pairs this tree won on it.
"""

from __future__ import annotations

import argparse
import os
import shutil
import statistics
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

from jobs import spawn  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def run_job(tree: Path, wl, configs: Path, work: Path, env: dict) -> tuple[float, int]:
    """(wall time, peak RSS in KiB) of one job against `tree`; RuntimeError
    if a call fails."""
    out = work / "out"
    out.mkdir()
    wall, peak = 0.0, 0
    try:
        for call in wl.calls:
            argv = [sys.executable, "-m", "voterlim.cli", call.command,
                    "--config", str(configs / f"{call.config}.json"),
                    "--out", str(out), "--threads", "1"]
            proc = spawn(argv, out, env, work / "stderr.txt")
            if proc.code != 0:
                err = (work / "stderr.txt").read_text()[-300:]
                raise RuntimeError(f"{tree}: {call.command} exited with {proc.code}: {err}")
            wall += proc.wall_s
            peak = max(peak, proc.maxrss_kb)
    finally:
        shutil.rmtree(out)
    return wall, peak


def import_probe(tree: Path, work: Path, env: dict) -> float:
    """Wall time of one fresh process that imports `voterlim.cli` from
    `tree`; RuntimeError if it fails."""
    proc = spawn([sys.executable, "-c", "import voterlim.cli"], work, env, work / "stderr.txt")
    if proc.code != 0:
        err = (work / "stderr.txt").read_text()[-300:]
        raise RuntimeError(f"{tree}: importing voterlim.cli exited with {proc.code}: {err}")
    return proc.wall_s


def summary(walls: list[float], peaks_kb: list[int]) -> dict:
    """Median and quartiles (inclusive method) of job walls, and the median
    job peak RSS in MB."""
    q1, median, q3 = statistics.quantiles(walls, n=4, method="inclusive")
    return {"jobs": len(walls), "median": median, "q1": q1, "q3": q3,
            "rss_mb": statistics.median(peaks_kb) / 1024.0}


def report(walls: dict, peaks_kb: dict) -> list[str]:
    """Lines comparing the walls and peak RSS of "this" and "other", paired
    job by job."""
    stats = {side: summary(w, peaks_kb[side]) for side, w in walls.items()}
    lines = [
        f"{side}: median {s['median']:.3f} s, quartiles {s['q1']:.3f}-{s['q3']:.3f} s"
        f" ({s['jobs']} jobs), median peak RSS {s['rss_mb']:.1f} MB"
        for side, s in stats.items()
    ]
    change = stats["this"]["median"] / stats["other"]["median"] - 1.0
    won = sum(a < b for a, b in zip(walls["this"], walls["other"]))
    lines.append(f"median change {100.0 * change:+.1f} %; this tree faster in "
                 f"{won} of {len(walls['this'])} pairs")
    return lines


def ratio_report(ratios: dict) -> list[str]:
    """Lines comparing job wall / import-probe wall of "this" and "other",
    paired job by job."""
    lines = []
    for side, values in ratios.items():
        q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
        lines.append(f"{side}: job / import probe median {median:.3f},"
                     f" quartiles {q1:.3f}-{q3:.3f}")
    won = sum(a < b for a, b in zip(ratios["this"], ratios["other"]))
    lines.append(f"this tree lower on job / import probe in {won} of "
                 f"{len(ratios['this'])} pairs")
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("other", type=Path, help="root of the tree to compare with")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--reps", required=True, type=int)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    if args.reps < 2:
        parser.error("--reps must be at least 2")
    trees = {"this": ROOT, "other": args.other.resolve()}
    wl = WORKLOADS[args.workload](args.seed)
    walls = {side: [] for side in trees}
    peaks = {side: [] for side in trees}
    ratios = {side: [] for side in trees}
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        wl.write_configs(work / "configs")
        envs = {}
        for side, tree in trees.items():
            env = dict(os.environ, PYTHONPATH=str(tree / "src"),
                       PYTHONPYCACHEPREFIX=str(work / f"pycache-{side}"))
            env.pop("PYTHONDONTWRITEBYTECODE", None)
            envs[side] = env
        try:
            for side, tree in trees.items():  # untimed: fills the bytecode cache
                run_job(tree, wl, work / "configs", work, envs[side])
            for rep in range(args.reps):
                order = ("this", "other") if rep % 2 == 0 else ("other", "this")
                for side in order:
                    probe = import_probe(trees[side], work, envs[side])
                    wall, peak = run_job(trees[side], wl, work / "configs", work, envs[side])
                    walls[side].append(wall)
                    peaks[side].append(peak)
                    ratios[side].append(wall / probe)
        except RuntimeError as exc:
            print(exc, file=sys.stderr)
            return 1
    for line in report(walls, peaks) + ratio_report(ratios):
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
