"""End-to-end checks of the command-line front end.

Everything goes through cli.main with explicit argv so the tests stay
in-process; file outputs land in pytest tmp dirs.
"""

import json
import math
import os
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import voterlim as vl
from voterlim.cli import main

from _oracles import dense_eigh_states, row_equality_classes
from conftest import assert_no_child_left, closed_form_errors, fail_mc_trials, set_mc_workers


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def _refuse_constant(name):
    raise ValueError(f"{name} is not RFC 8259 JSON")


def read_json(path):
    """An artifact parsed as strict JSON: Infinity, -Infinity and NaN are refused."""
    with open(path) as fh:
        return json.load(fh, parse_constant=_refuse_constant)


def simulate_config(times=(0.0, 0.5, 1.0)):
    return {
        "kernel": {"type": "bipartite", "r": 1 / 3},
        "n": 12,
        "initial": {"type": "balanced_blocks", "r": 1 / 3},
        "times": list(times),
    }


def mc_config():
    return {
        "kernel": {"type": "constant", "c": 0.8},
        "initial": {"type": "balanced_blocks", "r": 0.5},
        "n_ladder": [8],
        "horizon": 6.0,
        "trials": 30,
    }


class TestSimulate:
    def test_writes_trajectory_and_meta(self, tmp_path):
        cfg = write_config(tmp_path, simulate_config())
        out = tmp_path / "out"
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
        lines = (out / "trajectory.csv").read_text().splitlines()
        assert lines[0] == "t," + ",".join(f"cell_{i}" for i in range(12))
        assert len(lines) == 4
        meta = read_json(out / "trajectory_meta.json")
        assert meta["resolved"]["n"] == 12
        assert meta["resolved"]["horizon"] == 1.0
        assert meta["resolved"]["horizon_source"] == "config"
        assert meta["library_version"] == vl.__version__
        assert "final_diameter" in meta["summary"]
        assert meta["kernel"] == vl.StepKernel.bipartite(1 / 3).spec()

    def test_meta_records_solver_path_and_classes(self, tmp_path):
        # the two-block kernel at n = 12 has repeated weight rows
        cfg = write_config(tmp_path, simulate_config())
        out = tmp_path / "out"
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
        meta = read_json(out / "trajectory_meta.json")
        graph = vl.discretize_kernel(vl.StepKernel.bipartite(1 / 3), 12)
        assert meta["solver_path"] == "twin_quotient"
        assert meta["q"] == len(row_equality_classes(graph.weights)) < 12

    def test_default_horizon_is_recorded(self, tmp_path):
        cfg = write_config(
            tmp_path,
            {
                "kernel": {"type": "constant", "c": 1.0},
                "n": 6,
                "initial": {"type": "balanced_blocks", "r": 0.5},
                "num_times": 11,
            },
        )
        out = tmp_path / "out"
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
        meta = read_json(out / "trajectory_meta.json")
        assert meta["resolved"]["horizon"] == pytest.approx(10.0)
        assert meta["resolved"]["horizon_source"] == "spectral_gap"
        assert meta["resolved"]["num_times"] == 11

    def test_graph_path_matches_kernel_path(self, tmp_path):
        # discretize, then re-simulate from the saved graph: byte-identical
        disc = write_config(
            tmp_path, {"kernel": {"type": "bipartite", "r": 1 / 3}, "n": 12}, "d.json"
        )
        gdir = tmp_path / "g"
        assert main(["discretize", "--config", disc, "--out", str(gdir)]) == 0

        out_k = tmp_path / "via_kernel"
        cfg_k = write_config(tmp_path, simulate_config(), "k.json")
        assert main(["simulate", "--config", cfg_k, "--out", str(out_k)]) == 0

        cfg_g = simulate_config()
        del cfg_g["kernel"], cfg_g["n"]
        cfg_g["graph"] = {"path": str(gdir / "graph.json")}
        out_g = tmp_path / "via_graph"
        gpath = write_config(tmp_path, cfg_g, "gcfg.json")
        assert main(["simulate", "--config", gpath, "--out", str(out_g)]) == 0

        assert (out_k / "trajectory.csv").read_bytes() == (
            out_g / "trajectory.csv"
        ).read_bytes()

    def test_inline_graph_accepted(self, tmp_path):
        graph = vl.discretize_kernel(vl.StepKernel.constant(1.0), 4)
        cfg = write_config(
            tmp_path,
            {
                "graph": json.loads(graph.to_json()),
                "initial": {"type": "balanced_blocks", "r": 0.5},
                "times": [0.0, 1.0],
            },
        )
        out = tmp_path / "out"
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
        assert (out / "trajectory.csv").exists()

    def test_krylov_cap_at_n_records_a_finite_bound(self, tmp_path):
        # the a-priori bound is inf for every Krylov dimension below n = 12 at
        # T = 100, so the cap is n, whose space is invariant: bound 0.0, not
        # Infinity in trajectory_meta.json
        r = np.random.default_rng(12)
        w = r.uniform(0.0, 1.0, (12, 12))
        graph = vl.WeightedGraph((w + w.T) / 2)
        initial = {"type": "uniform_cells", "values": r.uniform(-1.0, 1.0, 12).tolist()}
        cfg = {"graph": json.loads(graph.to_json()), "initial": initial, "horizon": 100.0}
        out = tmp_path / "out"
        assert main(["simulate", "--config", write_config(tmp_path, cfg), "--out", str(out)]) == 0
        meta = read_json(out / "trajectory_meta.json")
        assert meta["solver_path"] == "krylov"
        assert meta["krylov_bound"] == 0.0
        assert meta["krylov_dim"] <= 12
        traj = vl.read_trajectory(out / "trajectory.csv")
        want = dense_eigh_states(graph, traj.states[0], traj.times)
        assert np.abs(traj.states - want).max() <= 1e-12


class TestDiscretize:
    @pytest.mark.parametrize(
        "kernel",
        [
            # 0/1 cross-block kernel with zero diagonal blocks: a simple graph
            {"type": "step", "boundaries": [0.0, 0.5, 1.0], "values": [[0.0, 1.0], [1.0, 0.0]]},
            {"type": "constant", "c": 0.3},
        ],
        ids=["simple", "weighted"],
    )
    def test_writes_the_graph_and_its_meta(self, tmp_path, kernel):
        cfg = write_config(tmp_path, {"kernel": kernel, "n": 8})
        out = tmp_path / "out"
        assert main(["discretize", "--config", cfg, "--out", str(out)]) == 0
        assert sorted(p.name for p in out.iterdir()) == ["graph.json", "graph_meta.json"]
        meta = read_json(out / "graph_meta.json")
        assert sorted(meta) == ["kernel", "library_version", "n"]
        graph = vl.WeightedGraph.from_json((out / "graph.json").read_text())
        want = vl.discretize_kernel(vl.make_kernel(kernel), 8)
        assert graph.weights.tobytes() == want.weights.tobytes()


class TestOtherCommands:
    def test_structure_report_files(self, tmp_path):
        cfg = write_config(
            tmp_path,
            {
                "kernel": {
                    "type": "direct_sum",
                    "parts": [
                        {"weight": 0.5, "kernel": {"type": "constant", "c": 1.0}},
                        {"weight": 0.5, "kernel": {"type": "constant", "c": 0.5}},
                    ],
                },
                "initial": {"type": "balanced_blocks", "r": 0.5},
            },
        )
        out = tmp_path / "out"
        assert main(["structure", "--config", cfg, "--out", str(out)]) == 0
        report = read_json(out / "structure.json")
        assert report["connected"] is False
        assert len(report["components"]) == 2
        assert report["necessary_condition"] is not None
        meta = read_json(out / "structure_meta.json")
        assert sorted(meta) == ["initial", "kernel", "library_version"]

    def test_structure_mean_check_reads_the_components(self, tmp_path):
        cfg = write_config(
            tmp_path,
            {
                "kernel": {
                    "type": "step",
                    "boundaries": [0.0, 0.5, 1.0],
                    "values": [[1.0, 0.0], [0.0, 1.0]],
                },
                "initial": {
                    "type": "step",
                    "boundaries": [0.0, 0.5, 1.0],
                    "values": [1.0, -1.0],
                },
            },
        )
        out = tmp_path / "out"
        assert main(["structure", "--config", cfg, "--out", str(out)]) == 0
        report = read_json(out / "structure.json")
        assert len(report["components"]) == 2
        assert report["necessary_condition"]["component_means"] == [1.0, -1.0]
        assert report["necessary_condition"]["satisfied"] is False

    def test_convergence_table(self, tmp_path):
        cfg = write_config(
            tmp_path,
            {
                "kernel": {"type": "bipartite", "r": 1 / 3},
                "initial": {"type": "balanced_blocks", "r": 1 / 3},
                "n_ladder": [6, 12],
                "horizon": 2.0,
                "num_times": 21,
            },
        )
        out = tmp_path / "out"
        assert main(["convergence", "--config", cfg, "--out", str(out)]) == 0
        lines = (out / "error_table.csv").read_text().splitlines()
        assert lines[0] == "n,sup_l2_error,diameter_at_T,exceptional_measure"
        assert len(lines) == 3
        meta = read_json(out / "convergence_meta.json")
        assert meta["reference"] == "exact"
        errs = [float(line.split(",")[1]) for line in lines[1:]]
        want = closed_form_errors(vl.ExperimentConfig.from_dict(read_json(cfg)))
        assert np.allclose(errs, want, rtol=0.0, atol=1e-14)

    def test_proximity_report(self, tmp_path):
        cfg = write_config(
            tmp_path,
            {
                "kernel": {"type": "bipartite", "r": 1 / 3},
                "initial": {"type": "balanced_blocks", "r": 1 / 3},
                "n_ladder": [6],
                "horizon": 40.0,
                "num_times": 161,
                "eps": 0.05,
            },
        )
        out = tmp_path / "out"
        assert main(["proximity", "--config", cfg, "--out", str(out)]) == 0
        lines = (out / "proximity.csv").read_text().splitlines()
        assert lines[0] == "n,max_exceptional_measure"
        meta = read_json(out / "proximity_meta.json")
        assert meta["report"]["status"] == "ok"

    def test_mc_random_outputs(self, tmp_path):
        cfg = write_config(
            tmp_path,
            {
                "kernel": {"type": "constant", "c": 0.8},
                "initial": {"type": "balanced_blocks", "r": 0.5},
                "n_ladder": [8, 12],
                "horizon": 6.0,
                "num_times": 31,
                "trials": 30,
                "base_seed": 11,
            },
        )
        out = tmp_path / "out"
        assert main(["mc-random", "--config", cfg, "--out", str(out)]) == 0
        lines = (out / "mc.csv").read_text().splitlines()
        assert lines[0] == "n,trial,seed,diameter_at_T,exceptional_measure,success"
        assert len(lines) == 1 + 2 * 30
        meta = read_json(out / "mc_meta.json")
        assert len(meta["success_fractions"]) == 2
        # some of these small graphs have false twins; the rest run Lanczos
        assert meta["solver_paths"] == {"krylov": 38, "twin_quotient": 22}
        assert 1 < meta["max_krylov_dim"] <= 12
        out2 = tmp_path / "out2"
        rc = main(["mc-random", "--config", cfg, "--out", str(out2), "--threads", "2"])
        assert rc == 0
        assert (out / "mc.csv").read_bytes() == (out2 / "mc.csv").read_bytes()

    def test_mc_random_records_the_krylov_trials(self, tmp_path):
        cfg = write_config(
            tmp_path,
            {
                "kernel": {"type": "constant", "c": 0.8},
                "initial": {"type": "balanced_blocks", "r": 0.5},
                "n_ladder": [8, 256],
                "horizon": 6.0,
                "trials": 30,
                "base_seed": 11,
            },
        )
        out = tmp_path / "out"
        assert main(["mc-random", "--config", cfg, "--out", str(out)]) == 0
        meta = read_json(out / "mc_meta.json")
        assert meta["solver_paths"] == {"twin_quotient": 15, "krylov": 45}
        assert 1 < meta["max_krylov_dim"] <= 256 // 4
        out2 = tmp_path / "out2"
        rc = main(["mc-random", "--config", cfg, "--out", str(out2), "--threads", "2"])
        assert rc == 0
        assert (out / "mc.csv").read_bytes() == (out2 / "mc.csv").read_bytes()


class TestOutputDirResolution:
    def test_env_var_fallback(self, tmp_path, monkeypatch):
        envdir = tmp_path / "from_env"
        monkeypatch.setenv("VOTERLIM_OUT", str(envdir))
        cfg = write_config(tmp_path, simulate_config())
        assert main(["simulate", "--config", cfg]) == 0
        assert (envdir / "trajectory.csv").exists()

    def test_flag_beats_env(self, tmp_path, monkeypatch):
        envdir = tmp_path / "from_env"
        monkeypatch.setenv("VOTERLIM_OUT", str(envdir))
        out = tmp_path / "from_flag"
        cfg = write_config(tmp_path, simulate_config())
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
        assert (out / "trajectory.csv").exists()
        assert not envdir.exists()


class TestFailureModes:
    def check_error(self, out, rc, expected_code, expected_type=None):
        assert rc == expected_code
        err = read_json(out / "error.json")["error"]
        assert err["exit_code"] == expected_code
        if expected_type is not None:
            assert err["type"] == expected_type
        return err

    @pytest.mark.parametrize(
        "argv,fragment",
        [
            (["simulate", "--config", "c.json", "--threads", "abc"], "invalid int value: 'abc'"),
            (["mc-random", "--config", "c.json", "--threads", "2.5"], "invalid int value: '2.5'"),
            (["simulate", "--threads", "2"], "required: --config"),
            (["simulate", "--threads", "2", "--config"], "--config: expected one argument"),
            (["nope", "--config", "c.json"], "invalid choice: 'nope'"),
            (["simulate", "--config", "c.json", "--seed", "1"], "unrecognized arguments: --seed 1"),
        ],
    )
    def test_argument_errors_take_the_error_path(self, tmp_path, capsys, argv, fragment):
        # argparse printed a usage line and exited 2 without an error.json
        out = tmp_path / "out"
        err = self.check_error(out, main(argv + ["--out", str(out)]), 2, "ValidationError")
        assert fragment in err["message"]
        assert json.loads(capsys.readouterr().err)["error"] == err

    def test_argument_errors_fall_back_to_the_env_out_dir(self, tmp_path, monkeypatch):
        monkeypatch.setenv("VOTERLIM_OUT", str(tmp_path / "env"))
        rc = main(["simulate", "--config", "c.json", "--out"])
        err = self.check_error(tmp_path / "env", rc, 2, "ValidationError")
        assert "--out: expected one argument" in err["message"]

    def test_argument_errors_fall_back_to_the_working_directory(self, tmp_path, monkeypatch):
        monkeypatch.delenv("VOTERLIM_OUT", raising=False)
        monkeypatch.chdir(tmp_path)
        rc = main(["structure", "--threads", "x", "--config", "c.json"])
        err = self.check_error(tmp_path, rc, 2, "ValidationError")
        assert "--threads" in err["message"]

    def test_help_still_exits_0(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--help"])
        assert exc.value.code == 0
        assert "--config" in capsys.readouterr().out
        assert list(tmp_path.iterdir()) == []

    def test_missing_config_file(self, tmp_path):
        out = tmp_path / "out"
        rc = main(["simulate", "--config", str(tmp_path / "nope.json"), "--out", str(out)])
        self.check_error(out, rc, 2, "ValidationError")

    def test_malformed_json(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        out = tmp_path / "out"
        rc = main(["simulate", "--config", str(bad), "--out", str(out)])
        err = self.check_error(out, rc, 2, "ValidationError")
        assert "JSON" in err["message"]

    def test_unknown_kernel_type(self, tmp_path):
        cfg = simulate_config()
        cfg["kernel"] = {"type": "mystery"}
        path = write_config(tmp_path, cfg)
        out = tmp_path / "out"
        rc = main(["simulate", "--config", path, "--out", str(out)])
        self.check_error(out, rc, 2)

    def test_missing_field_reports_its_name(self, tmp_path):
        cfg = simulate_config()
        del cfg["initial"]
        path = write_config(tmp_path, cfg)
        out = tmp_path / "out"
        rc = main(["simulate", "--config", path, "--out", str(out)])
        err = self.check_error(out, rc, 2, "ValidationError")
        assert "initial" in err["message"]

    def test_kernel_without_resolution(self, tmp_path):
        cfg = simulate_config()
        del cfg["n"]
        path = write_config(tmp_path, cfg)
        out = tmp_path / "out"
        rc = main(["simulate", "--config", path, "--out", str(out)])
        self.check_error(out, rc, 2, "ValidationError")

    def test_size_guard(self, tmp_path):
        cfg = simulate_config()
        cfg["kernel"] = {"type": "constant", "c": 1.0}
        cfg["n"] = 4097
        path = write_config(tmp_path, cfg)
        out = tmp_path / "out"
        rc = main(["simulate", "--config", path, "--out", str(out)])
        self.check_error(out, rc, 3, "SizeLimitError")

    def test_solver_failure(self, tmp_path):
        # W = -1 grows deviations like e^t, past the float range by t = 1e3
        cfg = {
            "kernel": {"type": "constant", "c": -1.0},
            "n": 8,
            "initial": {"type": "balanced_blocks", "r": 0.5},
            "times": [0.0, 1e3],
        }
        path = write_config(tmp_path, cfg)
        out = tmp_path / "out"
        rc = main(["simulate", "--config", path, "--out", str(out)])
        self.check_error(out, rc, 4, "SolverConvergenceError")
        assert sorted(p.name for p in out.iterdir()) == ["error.json"]

    @pytest.mark.parametrize(
        "command,cfg",
        [
            ("simulate", simulate_config()),
            (
                "convergence",
                {
                    "kernel": {"type": "bipartite", "r": 1 / 3},
                    "initial": {"type": "balanced_blocks", "r": 1 / 3},
                    "n_ladder": [6],
                    "horizon": 2.0,
                    "num_times": 5,
                },
            ),
        ],
    )
    def test_only_the_exact_method_is_accepted(self, tmp_path, command, cfg):
        # configs written for the retired RK solver must not switch solver
        path = write_config(tmp_path, {**cfg, "method": "rk"})
        out = tmp_path / "out"
        rc = main([command, "--config", path, "--out", str(out)])
        err = self.check_error(out, rc, 2, "ValidationError")
        assert "'method'" in err["message"]
        assert sorted(p.name for p in out.iterdir()) == ["error.json"]
        path = write_config(tmp_path, {**cfg, "method": "expm"})
        assert main([command, "--config", path, "--out", str(tmp_path / "ok")]) == 0

    @pytest.mark.parametrize("command", ["convergence", "proximity", "mc-random"])
    def test_experiments_refuse_an_explicit_time_grid(self, tmp_path, command):
        # experiment grids are uniform; an ignored "times" would silently
        # run the default grid to the spectral-gap horizon instead
        cfg = {
            "kernel": {"type": "constant", "c": 0.8},
            "initial": {"type": "balanced_blocks", "r": 0.5},
            "n_ladder": [8],
            "trials": 30,
            "times": [0, 0.5, 1],
        }
        path = write_config(tmp_path, cfg)
        out = tmp_path / "out"
        rc = main([command, "--config", path, "--out", str(out)])
        err = self.check_error(out, rc, 2, "ValidationError")
        assert "'times'" in err["message"]
        assert sorted(p.name for p in out.iterdir()) == ["error.json"]

    def test_exact_reference_overflow_maps_to_solver_exit(self, tmp_path):
        # W = -1 grows deviations like e^t; no reference_n, so the exact
        # continuum solve is the reference and must refuse the overflow
        cfg = {
            "kernel": {"type": "constant", "c": -1.0},
            "initial": {"type": "balanced_blocks", "r": 0.5},
            "n_ladder": [8],
            "horizon": 1e3,
        }
        path = write_config(tmp_path, cfg)
        out = tmp_path / "out"
        rc = main(["convergence", "--config", path, "--out", str(out)])
        self.check_error(out, rc, 4, "SolverConvergenceError")

    def test_experiment_validation_maps_to_config_exit(self, tmp_path):
        # sampling only makes sense for graphons, so a signed kernel must
        # land on the config exit code
        cfg = {
            "kernel": {
                "type": "step",
                "boundaries": [0.0, 0.5, 1.0],
                "values": [[-1.0, 1.0], [1.0, -1.0]],
            },
            "initial": {"type": "balanced_blocks", "r": 0.5},
            "n_ladder": [8],
            "trials": 30,
            "horizon": 4.0,
            "num_times": 17,
        }
        path = write_config(tmp_path, cfg, "c2.json")
        out = tmp_path / "out"
        rc = main(["mc-random", "--config", path, "--out", str(out)])
        err = self.check_error(out, rc, 2, "ValidationError")
        assert "graphon" in err["message"]

    @pytest.mark.parametrize(
        "command, cfg, fragment",
        [
            ("simulate", simulate_config(times=()), "non-empty"),
            (
                "simulate",
                {
                    "kernel": {"type": "bipartite", "r": 1 / 3},
                    "n": 12,
                    "initial": {"type": "balanced_blocks", "r": 1 / 3},
                    "num_times": "x",
                },
                "time grid",
            ),
            (
                "convergence",
                {
                    "kernel": {"type": "bipartite", "r": 1 / 3},
                    "initial": {"type": "balanced_blocks", "r": 1 / 3},
                    "n_ladder": [6],
                    "horizon": 2.0,
                    "num_times": 5,
                    "trials": "x",
                },
                "malformed experiment config",
            ),
            ("simulate", {**simulate_config(), "n": "x"}, "'n'"),
            (
                "discretize",
                {"kernel": {"type": "constant", "c": 1.0}, "n": "x"},
                "'n'",
            ),
            (
                "convergence",
                {
                    "kernel": {"type": "constant", "c": 1.0},
                    "initial": {"type": "balanced_blocks", "r": 0.5},
                    "n_ladder": [6],
                    "horizon": 2.0,
                    "num_times": 5,
                    "reference_n": "x",
                },
                "'reference_n'",
            ),
        ],
    )
    def test_malformed_values_map_to_config_exit(self, tmp_path, command, cfg, fragment):
        path = write_config(tmp_path, cfg)
        out = tmp_path / "out"
        rc = main([command, "--config", path, "--out", str(out)])
        err = self.check_error(out, rc, 2, "ValidationError")
        assert fragment in err["message"]

    @pytest.mark.parametrize(
        "command,cfg,fragment,artifact",
        [
            ("simulate", {**simulate_config(), "eps": float("nan")}, "eps", "trajectory.csv"),
        ],
    )
    def test_tolerances_that_are_nan_or_negative(
        self, tmp_path, command, cfg, fragment, artifact
    ):
        # json.loads reads NaN, which would otherwise reach the metadata
        path = write_config(tmp_path, cfg)
        out = tmp_path / "out"
        rc = main([command, "--config", path, "--out", str(out)])
        err = self.check_error(out, rc, 2, "ValidationError")
        assert fragment in err["message"]
        assert not (out / artifact).exists()

    @pytest.mark.parametrize(
        "command,cfg,fragment,artifact",
        [
            ("simulate", {**simulate_config(), "eps": float("inf")}, "eps", "trajectory.csv"),
            (
                "proximity",
                {
                    "kernel": {"type": "bipartite", "r": 1 / 3},
                    "initial": {"type": "balanced_blocks", "r": 1 / 3},
                    "n_ladder": [6],
                    "horizon": 2.0,
                    "window": float("inf"),
                },
                "window",
                "proximity.csv",
            ),
            (
                "mc-random",
                {
                    "kernel": {"type": "constant", "c": 0.8},
                    "initial": {"type": "balanced_blocks", "r": 0.5},
                    "n_ladder": [8],
                    "horizon": 6.0,
                    "trials": 30,
                    "c": float("inf"),
                },
                "for 'c':",
                "mc.csv",
            ),
        ],
    )
    def test_infinite_tolerances(self, tmp_path, command, cfg, fragment, artifact):
        # json.loads reads Infinity, which would otherwise reach the metadata
        path = write_config(tmp_path, cfg)
        assert "Infinity" in (tmp_path / "config.json").read_text()
        out = tmp_path / "out"
        rc = main([command, "--config", path, "--out", str(out)])
        err = self.check_error(out, rc, 2, "ValidationError")
        assert fragment in err["message"]
        assert not (out / artifact).exists()
        assert not any("Infinity" in p.read_text() for p in out.glob("*_meta.json"))

    @pytest.mark.parametrize(
        "command,cfg,fragment",
        [
            ("simulate", {**simulate_config(), "times": None, "num_times": 2.7}, "time grid"),
            ("simulate", {**simulate_config(), "n": 12.5}, "'n'"),
            ("simulate", {**simulate_config(), "n": float("inf")}, "'n'"),
            # int() read true as 1 and "3" as 3
            ("simulate", {**simulate_config(), "n": True}, "'n'"),
            # float() read true as 1.0 and "0.1" as 0.1
            ("simulate", {**simulate_config(), "eps": True}, "'eps'"),
            ("simulate", {**simulate_config(), "eps": "0.1"}, "'eps'"),
            ("simulate", {**simulate_config(), "times": None, "horizon": True}, "time grid"),
            ("discretize", {"kernel": {"type": "constant", "c": 1.0}, "n": 4.5}, "'n'"),
            (
                "mc-random",
                {
                    "kernel": {"type": "constant", "c": 0.8},
                    "initial": {"type": "balanced_blocks", "r": 0.5},
                    "n_ladder": [8],
                    "horizon": 6.0,
                    "trials": 30.5,
                },
                "malformed experiment config",
            ),
            (
                "mc-random",
                {
                    "kernel": {"type": "constant", "c": 0.8},
                    "initial": {"type": "balanced_blocks", "r": 0.5},
                    "n_ladder": [8],
                    "horizon": 6.0,
                    "trials": "40",
                },
                "malformed experiment config",
            ),
            (
                "convergence",
                {
                    "kernel": {"type": "constant", "c": 1.0},
                    "initial": {"type": "balanced_blocks", "r": 0.5},
                    "n_ladder": [6],
                    "horizon": 2.0,
                    "num_times": 5,
                    "reference_n": 96.5,
                },
                "'reference_n'",
            ),
            ("mc-random", {**mc_config(), "eps": True}, "malformed experiment config"),
            ("mc-random", {**mc_config(), "c": "0.5"}, "malformed experiment config"),
            ("proximity", {**mc_config(), "window": True}, "malformed experiment config"),
            ("convergence", {**mc_config(), "horizon": True}, "time grid"),
        ],
    )
    def test_counts_that_are_not_integers(self, tmp_path, command, cfg, fragment):
        # int() would run 2.7 as 2; an integral 12.0 is still accepted
        path = write_config(tmp_path, cfg)
        out = tmp_path / "out"
        rc = main([command, "--config", path, "--out", str(out)])
        err = self.check_error(out, rc, 2, "ValidationError")
        assert fragment in err["message"]
        assert sorted(p.name for p in out.iterdir()) == ["error.json"]

    def test_integral_floats_count_as_integers(self, tmp_path):
        cfg = {**simulate_config(), "times": None, "num_times": 3.0, "n": 12.0}
        out = tmp_path / "out"
        assert main(["simulate", "--config", write_config(tmp_path, cfg), "--out", str(out)]) == 0
        resolved = read_json(out / "trajectory_meta.json")["resolved"]
        assert (resolved["n"], resolved["num_times"]) == (12, 3)

    @pytest.mark.parametrize("eps", [float("nan"), -1.0, 0.0])
    @pytest.mark.parametrize("source", ["kernel", "graph"])
    def test_eps_checked_before_any_solve(self, tmp_path, monkeypatch, eps, source):
        def no_solve(*args, **kwargs):
            raise AssertionError("solved before eps was checked")

        monkeypatch.setattr(vl.cli, "solve_continuum", no_solve)
        monkeypatch.setattr(vl.cli, "solve_finite", no_solve)
        cfg = {**simulate_config(), "eps": eps}
        if source == "graph":
            del cfg["kernel"], cfg["n"]
            cfg["graph"] = {"n": 2, "weights": [[0.0, 1.0], [1.0, 0.0]]}
        out = tmp_path / "out"
        rc = main(["simulate", "--config", write_config(tmp_path, cfg), "--out", str(out)])
        err = self.check_error(out, rc, 2, "ValidationError")
        assert "eps" in err["message"]

    def test_zero_threads_rejected(self, tmp_path):
        cfg = {
            "kernel": {"type": "constant", "c": 0.8},
            "initial": {"type": "balanced_blocks", "r": 0.5},
            "n_ladder": [8],
            "horizon": 6.0,
            "trials": 30,
        }
        path = write_config(tmp_path, cfg)
        out = tmp_path / "out"
        rc = main(["mc-random", "--config", path, "--out", str(out), "--threads", "0"])
        err = self.check_error(out, rc, 2, "ValidationError")
        assert "threads" in err["message"]
        assert not (out / "mc.csv").exists()

    @pytest.mark.parametrize(
        "command,threads",
        [("simulate", "0"), ("simulate", "-5"), ("structure", "65"), ("mc-random", "65")],
    )
    def test_threads_validated_on_every_subcommand(self, tmp_path, command, threads):
        # checked before any handler runs, so 65 never reaches a pool
        path = write_config(tmp_path, simulate_config())
        out = tmp_path / "out"
        rc = main([command, "--config", path, "--out", str(out), "--threads", threads])
        err = self.check_error(out, rc, 2, "ValidationError")
        assert "threads" in err["message"]
        assert sorted(p.name for p in out.iterdir()) == ["error.json"]

    def test_unreadable_config(self, tmp_path):
        bad = tmp_path / "utf16.json"
        bad.write_bytes(b"\xff\xfe{}")
        for path in (tmp_path, bad):
            out = tmp_path / "out"
            rc = main(["simulate", "--config", str(path), "--out", str(out)])
            err = self.check_error(out, rc, 2, "ValidationError")
            assert str(path) in err["message"]

    @pytest.mark.parametrize("graph_path", ["missing.json", "."])
    def test_unreadable_graph_path(self, tmp_path, graph_path):
        cfg = simulate_config()
        del cfg["kernel"], cfg["n"]
        cfg["graph"] = {"path": str(tmp_path / graph_path)}
        path = write_config(tmp_path, cfg)
        out = tmp_path / "out"
        rc = main(["simulate", "--config", path, "--out", str(out)])
        err = self.check_error(out, rc, 2, "ValidationError")
        assert str(tmp_path / graph_path) in err["message"]
        assert sorted(p.name for p in out.iterdir()) == ["error.json"]

    @pytest.mark.parametrize("graph_path", [None, 0])
    def test_graph_path_must_be_a_string(self, tmp_path, graph_path):
        # 0 would otherwise be read as the file descriptor of stdin
        cfg = simulate_config()
        del cfg["kernel"], cfg["n"]
        cfg["graph"] = {"path": graph_path}
        path = write_config(tmp_path, cfg)
        out = tmp_path / "out"
        rc = main(["simulate", "--config", path, "--out", str(out)])
        err = self.check_error(out, rc, 2, "ValidationError")
        assert "graph path" in err["message"]

    @pytest.mark.parametrize("horizon", ["NaN", "1e400"])
    def test_non_finite_horizon(self, tmp_path, horizon):
        path = tmp_path / "config.json"
        path.write_text(
            '{"kernel": {"type": "constant", "c": 0.8},'
            ' "initial": {"type": "balanced_blocks", "r": 0.5},'
            f' "n_ladder": [8], "trials": 30, "horizon": {horizon}}}'
        )
        out = tmp_path / "out"
        rc = main(["mc-random", "--config", str(path), "--out", str(out)])
        self.check_error(out, rc, 2, "ValidationError")
        assert not (out / "mc.csv").exists()

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("command", ["mc-random", "simulate"])
    def test_infinite_horizon_is_refused_before_the_grid(self, tmp_path, command):
        size = {"mc-random": '"n_ladder": [8], "trials": 30', "simulate": '"n": 8'}[command]
        path = tmp_path / "config.json"
        path.write_text(
            '{"kernel": {"type": "constant", "c": 0.8},'
            ' "initial": {"type": "balanced_blocks", "r": 0.5},'
            f' {size}, "horizon": 1e400}}'
        )
        out = tmp_path / "out"
        rc = main([command, "--config", str(path), "--out", str(out)])
        err = self.check_error(out, rc, 2, "ValidationError")
        assert err["message"] == (
            "malformed time grid value for 'horizon': must be positive and finite"
        )

    def test_oversized_graph_json(self, tmp_path):
        cfg = simulate_config()
        del cfg["kernel"], cfg["n"]
        cfg["graph"] = {"n": vl.DEFAULT_N_MAX + 1, "weights": [[0.0]]}
        path = write_config(tmp_path, cfg)
        out = tmp_path / "out"
        rc = main(["simulate", "--config", path, "--out", str(out)])
        self.check_error(out, rc, 3, "SizeLimitError")

    @pytest.mark.parametrize("n", ["2.7", "1e400"])
    @pytest.mark.parametrize("inline", [True, False])
    def test_graph_counts_that_are_not_integers(self, tmp_path, n, inline):
        # int() read 2.7 as 2 and raised OverflowError (exit 1) on 1e400
        graph = '{"n": %s, "weights": [[0.0, 1.0], [1.0, 0.0]]}' % n
        if not inline:
            (tmp_path / "graph.json").write_text(graph)
            graph = json.dumps({"path": str(tmp_path / "graph.json")})
        path = tmp_path / "config.json"
        path.write_text(
            '{"graph": %s, "initial": {"type": "balanced_blocks", "r": 0.5},'
            ' "times": [0.0, 1.0]}' % graph
        )
        out = tmp_path / "out"
        rc = main(["simulate", "--config", str(path), "--out", str(out)])
        err = self.check_error(out, rc, 2, "ValidationError")
        assert "malformed graph JSON" in err["message"]
        assert sorted(p.name for p in out.iterdir()) == ["error.json"]

    def test_stderr_carries_the_payload(self, tmp_path, capsys):
        out = tmp_path / "out"
        main(["simulate", "--config", str(tmp_path / "nope.json"), "--out", str(out)])
        captured = capsys.readouterr()
        assert json.loads(captured.err.strip())["error"]["exit_code"] == 2


FLOATS = st.one_of(
    st.floats(),
    st.sampled_from([0.0, -0.0, 5e-324, 1e16, 1e22, math.nan, math.inf, -math.inf, 0.1]),
)
FLOAT_ROWS = st.integers(1, 4).flatmap(
    lambda k: st.lists(st.lists(FLOATS, min_size=k, max_size=k), min_size=1, max_size=3)
)
PAYLOAD_LEAVES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    FLOATS,
    st.text(),
    st.sampled_from(["", "caf\u00e9 \u2202", 'tab\t"quote"\\', "\x00\n\u2028"]),
    st.lists(FLOATS, min_size=1),
    FLOAT_ROWS,
    FLOAT_ROWS.flatmap(lambda pool: st.lists(st.sampled_from(pool), min_size=1)),  # twin rows
    st.lists(st.lists(FLOATS), min_size=1),  # ragged, empty rows included
    st.lists(st.one_of(FLOATS, st.integers()), min_size=1),
    st.tuples(FLOATS, FLOATS),
    FLOAT_ROWS.map(lambda rows: tuple(map(tuple, rows))),  # rows as `asdict` gives them
    st.just([]),
    st.just({}),
)
PAYLOADS = st.recursive(
    PAYLOAD_LEAVES,
    lambda kids: st.one_of(
        st.lists(kids), st.lists(kids).map(tuple), st.dictionaries(st.text(), kids)
    ),
    max_leaves=12,
)


STEP_PART = {"boundaries": [0.0, 0.5, 1.0], "type": "step", "values": [[0.5, -0.0], [-0.0, 1.0]]}


class TestWriteJson:
    @settings(max_examples=200, deadline=None)
    @given(PAYLOADS.filter(lambda p: not isinstance(p, str)))  # text is written as given
    @example([0.5, -0.0, 1e-300, 0.5, math.inf])
    @example({"parts": [{"kernel": STEP_PART, "weight": w} for w in (0.25, 0.75)]})
    @example([{"cells": (0, 1), "interval": (0.0, 0.5), "weight": 0.5},
              {"cells": (2,), "multipliers": (1.0, 0.25), "representative": 2}])
    def test_matches_json_dump(self, payload):
        want = json.dumps(payload, indent=2, sort_keys=True) + "\n"
        with tempfile.TemporaryDirectory() as out:
            vl.cli._write(out, "payload.json", payload)
            with open(os.path.join(out, "payload.json"), "rb") as fh:
                assert fh.read() == want.encode("ascii")

    def test_kernel_echo(self, tmp_path):
        # a kernel echo with twin rows, repeated values and signed zeros
        r = np.random.default_rng(5)
        label = r.permutation(60) // 4
        blocks = r.choice([-0.0, 0.0, 0.25, r.uniform()], (15, 15))
        values = np.where(np.triu(np.ones((15, 15), bool)), blocks, blocks.T)[np.ix_(label, label)]
        kernel = vl.StepKernel(np.linspace(0.0, 1.0, 61), values)
        payload = {"kernel": kernel.spec(), "initial": None, "zero_tol": 0.0}
        vl.cli._write(tmp_path, "meta.json", payload)
        want = json.dumps(payload, indent=2, sort_keys=True) + "\n"
        assert (tmp_path / "meta.json").read_bytes() == want.encode("ascii")

    def test_a_kernel_echo_is_written_in_pieces(self, tmp_path):
        # a 400x400 kernel with 100 distinct rows, a 4.4 MiB file: building its
        # whole text before the write peaked at 13.2 MiB
        r = np.random.default_rng(3)
        label = r.permutation(400) % 100
        blocks = r.uniform(-1.0, 1.0, (100, 100))
        values = np.triu(blocks) + np.triu(blocks, 1).T
        kernel = vl.StepKernel(np.linspace(0.0, 1.0, 401), values[np.ix_(label, label)])
        payload = {"kernel": kernel.spec()}
        tracemalloc.start()
        try:
            vl.cli._write(tmp_path, "meta.json", payload)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        text = (tmp_path / "meta.json").read_text()
        assert text == json.dumps(payload, indent=2, sort_keys=True) + "\n"
        assert peak < len(text)

    def test_non_string_keys_go_through_json(self, tmp_path):
        payload = {"a": {3: [0.5, 0.5], 2.5: None, -1: "x"}, "b": [{False: -0.0}]}
        vl.cli._write(tmp_path, "keys.json", payload)
        want = json.dumps(payload, indent=2, sort_keys=True) + "\n"
        assert (tmp_path / "keys.json").read_text() == want


def test_mc_job_with_threads_loads_no_thread_pool(tmp_path):
    # --threads is checked and ignored: each extra CPU runs a block of trials
    # in a child made by os.fork, so neither concurrent.futures (nor the
    # logging it brings) nor multiprocessing loads in a CLI process
    path = write_config(tmp_path, mc_config())
    argv = ["mc-random", "--config", path, "--out", str(tmp_path / "out"), "--threads", "2"]
    code = (
        "import sys, voterlim.cli; "
        f"rc = voterlim.cli.main({argv!r}); "
        "print(rc, sorted({'concurrent.futures', 'logging', 'multiprocessing'}"
        " & set(sys.modules)))"
    )
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(vl.__file__)))
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert done.stdout.strip() == "0 []"
    assert (tmp_path / "out" / "mc.csv").exists()


def run_mc(tmp_path, name, monkeypatch, workers=None):
    """(exit code, output directory) of `mc-random` on `mc_config()`, its
    trials in `workers` processes (None: one per CPU)."""
    if workers is not None:
        set_mc_workers(monkeypatch, workers)
    out = tmp_path / name
    rc = main(["mc-random", "--config", write_config(tmp_path, mc_config()), "--out", str(out)])
    assert_no_child_left()
    return rc, out


def test_mc_artifacts_do_not_depend_on_the_cpus(tmp_path, monkeypatch):
    assert run_mc(tmp_path, "default", monkeypatch)[0] == 0
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    assert run_mc(tmp_path, "one_cpu", monkeypatch)[0] == 0
    for name in ("mc.csv", "mc_meta.json"):
        default = (tmp_path / "default" / name).read_bytes()
        assert (tmp_path / "one_cpu" / name).read_bytes() == default


def test_mc_failure_in_a_child_exits_4_with_the_serial_error(tmp_path, monkeypatch):
    # 30 trials of base seed 0 in 3 workers: seeds 20-29 run in the second child
    fail_mc_trials(monkeypatch, {(8, 25)})
    serial = run_mc(tmp_path, "serial", monkeypatch, workers=1)
    forked = run_mc(tmp_path, "forked", monkeypatch, workers=3)
    assert serial[0] == forked[0] == 4
    error = read_json(serial[1] / "error.json")
    assert error["error"]["message"] == "no convergence at n = 8, seed 25"
    assert (forked[1] / "error.json").read_bytes() == (serial[1] / "error.json").read_bytes()


@pytest.mark.parametrize("command", ["mc-random", "convergence", "proximity"])
def test_experiments_leave_numpy_ma_unloaded(tmp_path, command):
    # np.unique, which np.union1d calls, imports numpy.ma (16 ms) on first use
    config = {
        "kernel": {"type": "step", "boundaries": [0.0, 0.4, 1.0],
                   "values": [[0.9, 0.2], [0.2, 0.7]]},
        "initial": {"type": "balanced_blocks", "r": 0.3},
        "n_ladder": [8, 16],
        "horizon": 6.0,
        "num_times": 5,
        "trials": 30,
    }
    path = write_config(tmp_path, config)
    argv = [command, "--config", path, "--out", str(tmp_path / "out")]
    code = f"import sys, voterlim.cli; print(voterlim.cli.main({argv!r}), 'numpy.ma' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(vl.__file__)))
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert done.stdout.strip() == "0 False"


# The process entry (voterlim._entry.run), as `python -m voterlim.cli` and as
# the console script runs it: sys.argv[1:] are the CLI's arguments either way.
ENTRIES = {
    "module": ["-m", "voterlim.cli"],
    "script": ["-c", "from voterlim._entry import run; run()"],
}
SRC_DIR = os.path.dirname(os.path.dirname(vl.__file__))


def entry_env(**extra):
    """The environment of an entry process: src first, OPENBLAS_NUM_THREADS unset."""
    env = dict(os.environ, PYTHONPATH=SRC_DIR, **extra)
    if "OPENBLAS_NUM_THREADS" not in extra:
        env.pop("OPENBLAS_NUM_THREADS", None)
    return env


def tree_bytes(root):
    return {p.name: p.read_bytes() for p in sorted(root.iterdir())}


def test_console_script_is_the_process_entry():
    pyproject = (Path(SRC_DIR).parent / "pyproject.toml").read_text()
    assert '\nvoterlim = "voterlim._entry:run"\n' in pyproject


@pytest.mark.parametrize("entry", sorted(ENTRIES))
@pytest.mark.parametrize(
    "command, edit, code",
    [
        ("simulate", {}, 0),
        ("mc-random", None, 0),
        ("simulate", {"n": 4097, "kernel": {"type": "constant", "c": 1.0}}, 3),
        ("simulate", {"eps": -1.0}, 2),
    ],
)
def test_entry_process_matches_main(tmp_path, capsys, entry, command, edit, code):
    # the process leaves by os._exit: its artifacts, error.json and the one
    # JSON line on stderr must all be out by then, as after main() returns
    cfg = mc_config() if edit is None else {**simulate_config(), **edit}
    path = write_config(tmp_path, cfg)
    args = [command, "--config", path, "--out"]
    assert main(args + [str(tmp_path / "in_process")]) == code
    want_err = capsys.readouterr().err
    done = subprocess.run(
        [sys.executable, *ENTRIES[entry], *args, str(tmp_path / "process")],
        env=entry_env(), capture_output=True, text=True,
    )
    assert (done.returncode, done.stdout, done.stderr) == (code, "", want_err)
    assert want_err.count("\n") == (code != 0)
    want = tree_bytes(tmp_path / "in_process")
    assert tree_bytes(tmp_path / "process") == want
    assert ("error.json" in want) == (code != 0)


EXIT_HOOK = """\
import os

_exit = os._exit


def logged_exit(code):
    with open(os.environ["EXIT_LOG"], "a") as fh:
        threads = len(os.listdir("/proc/self/task"))
        fh.write(f"{threads} {os.environ.get('OPENBLAS_NUM_THREADS')}\\n")
    _exit(code)


os._exit = logged_exit
"""


def exit_log(tmp_path, command, cfg, **env):
    """Per process that left by os._exit (the CLI process and its forked
    Monte Carlo workers): (its OS threads then, its OPENBLAS_NUM_THREADS)."""
    site = tmp_path / "site"
    site.mkdir()
    (site / "sitecustomize.py").write_text(EXIT_HOOK)
    log = tmp_path / "exit.log"
    env = entry_env(EXIT_LOG=str(log), **env)
    env["PYTHONPATH"] = os.pathsep.join([str(site), SRC_DIR])
    argv = [command, "--config", write_config(tmp_path, cfg), "--out", str(tmp_path / "out")]
    subprocess.run([sys.executable, "-m", "voterlim.cli", *argv], env=env, check=True)
    return [(int(t), value) for t, value in (line.split() for line in log.read_text().splitlines())]


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="counts threads in /proc")
def test_entry_process_runs_one_blas_thread(tmp_path):
    assert exit_log(tmp_path, "simulate", simulate_config()) == [(1, "1")]


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="counts threads in /proc")
def test_entry_forks_monte_carlo_workers_without_blas_threads(tmp_path):
    workers = min(len(os.sched_getaffinity(0)), mc_config()["trials"])
    assert exit_log(tmp_path, "mc-random", mc_config()) == [(1, "1")] * workers


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="counts threads in /proc")
def test_entry_keeps_the_callers_blas_threads(tmp_path):
    [(threads, value)] = exit_log(tmp_path, "simulate", simulate_config(), OPENBLAS_NUM_THREADS="2")
    assert value == "2"
    assert threads == min(2, len(os.sched_getaffinity(0)))


def test_importing_the_cli_leaves_the_environment_alone():
    code = (
        "import os; before = dict(os.environ); import voterlim.cli; "
        "print(dict(os.environ) == before, 'OPENBLAS_NUM_THREADS' in os.environ)"
    )
    done = subprocess.run(
        [sys.executable, "-c", code], env=entry_env(), capture_output=True, text=True, check=True
    )
    assert done.stdout == "True False\n"
