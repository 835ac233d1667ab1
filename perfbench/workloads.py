"""Seeded inputs of the benchmark workloads and the checks on their outputs.

A workload turns a seed into JSON configs for `voterlim` subcommands, the
calls one job makes, and what a correct output must satisfy.  The program
under test only ever sees the configs.  The checks use the library's
public oracles (`read_trajectory`, `volterra_residual`, `pixel_kernel`),
never a second copy of a solver.
"""

from __future__ import annotations

import csv
import functools
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

# volterra_residual shrinks as O(dt^2); on these inputs it stays below
# 1e-4 relative to the largest opinion, and a wrong solve is off by O(1).
VOLTERRA_RTOL = 1e-3
# Mean drift allowed along a trajectory, relative to the largest opinion.
MEAN_RTOL = 1e-9


@dataclass(frozen=True)
class Call:
    """One CLI process of a job: `voterlim <command> --config <config>.json`."""

    command: str
    config: str


@dataclass(frozen=True)
class Workload:
    name: str
    configs: dict  # config name -> JSON-ready dict
    calls: tuple  # Call, ..., run in order as one job
    checker: Callable[["Workload", Path], list[str]]

    def write_configs(self, directory: Path) -> None:
        directory.mkdir(parents=True, exist_ok=True)
        for name, config in self.configs.items():
            (directory / f"{name}.json").write_text(json.dumps(config, sort_keys=True) + "\n")

    def check(self, out_dir: Path) -> list[str]:
        """Problems found in one job's artifacts; empty when all are correct."""
        return self.checker(self, Path(out_dir))


def _rng(seed: int, salt: int) -> np.random.Generator:
    return np.random.default_rng([seed, salt])


def _boundaries(rng: np.random.Generator, cells: int) -> list[float]:
    # Random gaps, so boundaries almost surely miss every grid point k/n.
    edges = np.cumsum(rng.uniform(0.5, 1.5, cells))
    return [0.0] + (edges[:-1] / edges[-1]).tolist() + [1.0]


def _symmetric(rng: np.random.Generator, m: int, lo: float, hi: float) -> np.ndarray:
    a = rng.uniform(lo, hi, (m, m))
    return np.triu(a) + np.triu(a, 1).T


def _step(rng, cells, lo, hi) -> dict:
    return {
        "type": "step",
        "boundaries": _boundaries(rng, cells),
        "values": _symmetric(rng, cells, lo, hi).tolist(),
    }


def _profile(rng, cells) -> dict:
    return {
        "type": "step",
        "boundaries": _boundaries(rng, cells),
        "values": rng.uniform(-1.0, 1.0, cells).tolist(),
    }


def simulate_step_kernel(seed: int) -> Workload:
    rng = _rng(seed, 1)
    config = {
        "kernel": _step(rng, 8, -0.5, 1.0),
        "initial": _profile(rng, 16),
        "n": 2048,
        "horizon": 10.0,
        "num_times": 201,
        "method": "expm",
    }
    return Workload(
        "simulate_step_kernel",
        {"simulate": config},
        (Call("simulate", "simulate"),),
        _check_simulate_step_kernel,
    )


def mc_graphon(seed: int) -> Workload:
    rng = _rng(seed, 2)
    config = {
        "kernel": _step(rng, 6, 0.05, 0.95),
        "initial": _profile(rng, 8),
        "n_ladder": [64, 256, 512],
        "trials": 30,
        "horizon": 10.0,
        "base_seed": int(rng.integers(0, 2**31)),
        "method": "expm",
    }
    return Workload(
        "mc_graphon",
        {"mc": config},
        (Call("mc-random", "mc"),),
        _check_mc,
    )


def analysis_mix(seed: int) -> Workload:
    rng = _rng(seed, 3)
    # 400 cells in 100 planted twin sets of 4 cells, scattered by a shuffle.
    blocks = _symmetric(rng, 100, 0.05, 1.0)
    label = rng.permutation(400) // 4
    structure = {
        "kernel": {
            "type": "step",
            "boundaries": _boundaries(rng, 400),
            "values": blocks[np.ix_(label, label)].tolist(),
        }
    }
    twin_sets = sorted(np.nonzero(label == k)[0].tolist() for k in range(100))
    convergence = {
        "kernel": _step(rng, 6, -0.3, 1.0),
        "initial": _profile(rng, 8),
        "n_ladder": [64, 128, 256],
        "reference_n": 1024,
    }
    r = float(rng.uniform(0.15, 0.35))  # consensus at rate 1 - 2r, well inside 40
    proximity = {
        "kernel": {"type": "bipartite", "r": r},
        "initial": {"type": "balanced_blocks", "r": r},
        "n_ladder": [64, 128, 256],
        "horizon": 40.0,
        "eps": 1e-2,
        "num_times": 401,
    }
    discretize = {"kernel": _step(rng, 8, -0.5, 1.0), "n": 512}
    readback = {
        # Relative to the job's output directory, where discretize wrote it.
        "graph": {"path": "graph.json"},
        "initial": _profile(rng, 16),
        "horizon": 10.0,
        "num_times": 101,
    }
    return Workload(
        "analysis_mix",
        {
            "structure": structure,
            "convergence": convergence,
            "proximity": proximity,
            "discretize": discretize,
            "simulate_graph": readback,
        },
        (
            Call("structure", "structure"),
            Call("convergence", "convergence"),
            Call("proximity", "proximity"),
            Call("discretize", "discretize"),
            Call("simulate", "simulate_graph"),
        ),
        functools.partial(_check_analysis_mix, twin_sets=twin_sets),
    )


WORKLOADS = {
    "simulate_step_kernel": simulate_step_kernel,
    "mc_graphon": mc_graphon,
    "analysis_mix": analysis_mix,
}


def trajectory_problems(kernel, csv_path: Path, n: int, num_times: int) -> list[str]:
    from voterlim import read_trajectory, volterra_residual

    traj = read_trajectory(csv_path)
    if traj.states.shape != (num_times, n):
        return [f"{csv_path.name}: shape {traj.states.shape}, want {(num_times, n)}"]
    scale = max(1.0, float(np.max(np.abs(traj.states))))
    problems = []
    means = traj.states.mean(axis=1)
    drift = float(np.max(np.abs(means - means[0])))
    if not drift <= MEAN_RTOL * scale:
        problems.append(f"{csv_path.name}: mean drifts by {drift:.3g}")
    residual = volterra_residual(kernel, traj)
    if not residual <= VOLTERRA_RTOL * scale:
        problems.append(f"{csv_path.name}: Volterra residual {residual:.3g}")
    return problems


def _check_simulate_step_kernel(wl: Workload, out: Path) -> list[str]:
    from voterlim import make_kernel

    config = wl.configs["simulate"]
    return trajectory_problems(
        make_kernel(config["kernel"]), out / "trajectory.csv", config["n"], config["num_times"]
    )


def _check_mc(wl: Workload, out: Path) -> list[str]:
    with open(out / "mc.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    config = wl.configs["mc"]
    want = [(n, t) for n in config["n_ladder"] for t in range(config["trials"])]
    got = [(int(r["n"]), int(r["trial"])) for r in rows]
    problems = []
    if got != want:
        problems.append(f"mc.csv: {len(rows)} rows, want {len(want)} (n, trial) rows")
    meta = json.loads((out / "mc_meta.json").read_text())
    excess = meta["max_exceedance_minus_bound"]
    if not excess <= 0.0:
        problems.append(f"mc: exceedance beats the Chebyshev bound by {excess:.3g}")
    return problems


def _check_analysis_mix(wl: Workload, out: Path, twin_sets: list) -> list[str]:
    from voterlim import WeightedGraph, pixel_kernel

    problems = []
    report = json.loads((out / "structure.json").read_text())
    found = sorted(sorted(s["cells"]) for s in report["twin_sets"])
    if found != twin_sets:
        problems.append(f"structure: {len(found)} twin sets, not the 100 planted ones")
    with open(out / "error_table.csv", newline="") as fh:
        table = list(csv.DictReader(fh))
    if [int(r["n"]) for r in table] != wl.configs["convergence"]["n_ladder"]:
        problems.append("convergence: rows do not match the ladder")
    if not all(math.isfinite(float(v)) for r in table for v in r.values()):
        problems.append("convergence: non-finite entry in error_table.csv")
    status = json.loads((out / "proximity_meta.json").read_text())["report"]["status"]
    if status != "ok":
        problems.append(f"proximity: status {status!r}")
    graph = WeightedGraph.from_json((out / "graph.json").read_text())
    readback = wl.configs["simulate_graph"]
    problems += trajectory_problems(
        pixel_kernel(graph), out / "trajectory.csv", graph.n, readback["num_times"]
    )
    return problems

