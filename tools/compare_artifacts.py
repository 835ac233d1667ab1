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
codes differ; exits 1 if there are any, else 0.  A CSV file that differs
is printed with how many fields differ and the largest absolute
difference between the numeric ones, so a declared last-bit change can be
read off the output.  A JSON file that differs is printed as "equal as
parsed JSON" when only its text differs (an encoder change), and otherwise
with how many leaves differ, the path of the first and the largest
numeric gap.
"""

from __future__ import annotations

import argparse
import csv
import filecmp
import json
import math
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


def describe_csv(a: Path, b: Path) -> str:
    """How two CSV files differ: fields that differ and the largest numeric gap."""
    tables = []
    for path in (a, b):
        with open(path, newline="") as fh:
            tables.append(list(csv.reader(fh)))
    shapes = [[len(row) for row in table] for table in tables]
    if shapes[0] != shapes[1]:
        return f"row counts or widths differ ({len(tables[0])} and {len(tables[1])} rows)"
    fields = sum(shapes[0])
    pairs = [
        (x, y)
        for row_a, row_b in zip(*tables)
        for x, y in zip(row_a, row_b)
        if x != y
    ]
    gaps = []
    for x, y in pairs:
        try:
            gaps.append(abs(float(x) - float(y)))
        except ValueError:  # a header or other text field
            pass
    text = f"{len(pairs)} of {fields} fields differ"
    if len(gaps) < len(pairs):
        text += f", {len(pairs) - len(gaps)} of them not numeric"
    if gaps:
        text += f", largest absolute difference {max(gaps):.3g}"
    return text


def _leaves(value, path=()):
    """(path, leaf) of parsed JSON in document order; empty containers are leaves."""
    if isinstance(value, dict) and value:
        for key, item in value.items():
            yield from _leaves(item, path + (key,))
    elif isinstance(value, list) and value:
        for i, item in enumerate(value):
            yield from _leaves(item, path + (i,))
    else:
        yield path, value


def _same(x, y) -> bool:
    if isinstance(x, float) and isinstance(y, float):
        return x.hex() == y.hex()  # NaN matches NaN, 0.0 differs from -0.0
    return type(x) is type(y) and x == y


def _gap(x, y) -> float | None:
    """|x - y| for two numbers (inf when one is NaN), else None."""
    if any(isinstance(v, bool) or not isinstance(v, (int, float)) for v in (x, y)):
        return None
    gap = abs(x - y)
    return math.inf if math.isnan(gap) else gap


def describe_json(a: Path, b: Path) -> str:
    """How two JSON files differ: only in text, or leaves, first path and largest gap."""
    try:
        docs = [json.loads(path.read_text()) for path in (a, b)]
    except ValueError:
        return "not valid JSON on both sides"
    leaves = [dict(_leaves(doc)) for doc in docs]
    missing = object()
    paths = list(leaves[0]) + [p for p in leaves[1] if p not in leaves[0]]
    differ = [
        (p, leaves[0].get(p, missing), leaves[1].get(p, missing))
        for p in paths
        if not _same(leaves[0].get(p, missing), leaves[1].get(p, missing))
    ]
    if not differ:
        return "equal as parsed JSON"
    first = "/" + "/".join(map(str, differ[0][0]))
    text = f"{len(differ)} of {len(paths)} leaves differ, first at {first}"
    gaps = [g for _, x, y in differ if (g := _gap(x, y)) is not None]
    if gaps:
        text += f", largest numeric gap {max(gaps):.3g}"
    return text


_DESCRIBE = {".csv": describe_csv, ".json": describe_json}


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
                for p in differ:
                    describe = _DESCRIBE.get(Path(p).suffix)
                    if describe is not None:
                        p += f" ({describe(job / 'this' / p, job / 'other' / p)})"
                    problems.append(f"{name} seed {seed}: {p}")
                print(f"{name} seed {seed}: {count} files, {len(differ)} differ", flush=True)
    for line in problems:
        print(line)
    print(f"{compared} files compared, {len(problems)} problems")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
