"""Compare the benchmark artifacts of this checkout with those of another tree.

    python3 tools/compare_artifacts.py OTHER_TREE [--seeds 1 2 3]

Runs every call of every workload in `perfbench/workloads.py`, at each
seed, once against this checkout's `src/` and once against OTHER_TREE's,
each as a fresh `python -m voterlim.cli` process with PYTHONPATH set to
that tree.  Calls run in their job's output directory with the arguments
`perfbench/run.py` passes, so relative paths in the configs resolve the
same way.  Every file of one tree's output is compared byte for byte with
the same file of the other's (`filecmp.cmp(shallow=False)`).  Prints the
files that differ or exist on one side only, and the calls whose exit
codes differ; exits 1 if there are any, else 0.
"""

from __future__ import annotations

import argparse
import filecmp
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

from workloads import WORKLOADS  # noqa: E402


def run_job(tree: Path, wl, configs: Path, out: Path) -> list[int]:
    """Run one job's calls against `tree`; return their exit codes."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    out.mkdir(parents=True)
    codes = []
    for call in wl.calls:
        argv = [sys.executable, "-m", "voterlim.cli", call.command,
                "--config", str(configs / f"{call.config}.json"),
                "--out", str(out), "--threads", "1"]
        codes.append(subprocess.run(
            argv, cwd=out, env=env, stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        ).returncode)
        if codes[-1] != 0:
            break
    return codes


def compare(a: Path, b: Path) -> tuple[int, list[str]]:
    """(files compared, relative paths that differ or exist on one side)."""
    names_a = {p.relative_to(a) for p in a.rglob("*") if p.is_file()}
    names_b = {p.relative_to(b) for p in b.rglob("*") if p.is_file()}
    differ = [f"{p} (one side only)" for p in sorted(names_a ^ names_b)]
    both = sorted(names_a & names_b)
    differ += [str(p) for p in both if not filecmp.cmp(a / p, b / p, shallow=False)]
    return len(both), differ


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("other", type=Path, help="root of the tree to compare with")
    parser.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3])
    args = parser.parse_args(argv)
    trees = {"this": ROOT, "other": args.other.resolve()}
    compared, problems = 0, []
    with tempfile.TemporaryDirectory() as tmp:
        for seed in args.seeds:
            for name, make in WORKLOADS.items():
                wl = make(seed)
                job = Path(tmp) / f"{name}-{seed}"
                wl.write_configs(job / "configs")
                codes = {side: run_job(tree, wl, job / "configs", job / side)
                         for side, tree in trees.items()}
                if codes["this"] != codes["other"]:
                    problems.append(f"{name} seed {seed}: exit codes {codes}")
                count, differ = compare(job / "this", job / "other")
                compared += count
                problems += [f"{name} seed {seed}: {p}" for p in differ]
                print(f"{name} seed {seed}: {count} files, {len(differ)} differ", flush=True)
    for line in problems:
        print(line)
    print(f"{compared} files compared, {len(problems)} problems")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
