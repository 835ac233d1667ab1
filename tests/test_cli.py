"""End-to-end checks of the command-line front end.

Everything goes through cli.main with explicit argv so the tests stay
in-process; file outputs land in pytest tmp dirs.
"""

import json
import os

import numpy as np
import pytest

import voterlim as vl
from voterlim.cli import main

from _oracles import row_equality_classes
from conftest import closed_form_errors


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


def simulate_config(times=(0.0, 0.5, 1.0)):
    return {
        "kernel": {"type": "bipartite", "r": 1 / 3},
        "n": 12,
        "initial": {"type": "balanced_blocks", "r": 1 / 3},
        "times": list(times),
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
        assert meta["kernel"] == vl.BipartiteKernel(1 / 3).spec()

    def test_meta_records_solver_path_and_classes(self, tmp_path):
        # the two-block kernel at n = 12 has repeated weight rows
        cfg = write_config(tmp_path, simulate_config())
        out = tmp_path / "out"
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
        meta = read_json(out / "trajectory_meta.json")
        graph = vl.discretize_kernel(vl.BipartiteKernel(1 / 3), 12)
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
        graph = vl.discretize_kernel(vl.ConstantKernel(1.0), 4)
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


class TestDiscretize:
    def test_simple_kernel_gets_edge_list(self, tmp_path):
        # 0/1 cross-block kernel with zero diagonal blocks stays simple
        cfg = write_config(
            tmp_path,
            {
                "kernel": {
                    "type": "step",
                    "boundaries": [0.0, 0.5, 1.0],
                    "values": [[0.0, 1.0], [1.0, 0.0]],
                },
                "n": 8,
            },
        )
        out = tmp_path / "out"
        assert main(["discretize", "--config", cfg, "--out", str(out)]) == 0
        meta = read_json(out / "graph_meta.json")
        assert meta["simple"] is True
        graph = vl.WeightedGraph.from_json((out / "graph.json").read_text())
        assert graph.n == 8
        first = (out / "edges.csv").read_text().splitlines()[0]
        assert first == "i,j,beta"

    def test_weighted_kernel_has_no_edge_list(self, tmp_path):
        cfg = write_config(tmp_path, {"kernel": {"type": "constant", "c": 0.3}, "n": 4})
        out = tmp_path / "out"
        assert main(["discretize", "--config", cfg, "--out", str(out)]) == 0
        assert read_json(out / "graph_meta.json")["simple"] is False
        assert not (out / "edges.csv").exists()


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
        assert read_json(out / "structure_meta.json")["prop_tol"] == 1e-10

    def test_structure_zero_tol_reaches_the_mean_check(self, tmp_path):
        cfg = write_config(
            tmp_path,
            {
                "kernel": {
                    "type": "step",
                    "boundaries": [0.0, 0.5, 1.0],
                    "values": [[1.0, 1e-9], [1e-9, 1.0]],
                },
                "initial": {
                    "type": "step",
                    "boundaries": [0.0, 0.5, 1.0],
                    "values": [1.0, -1.0],
                },
                "zero_tol": 1e-6,
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
        # graphs this small need a Krylov space above n / 4 at T = 6, and
        # some of them have false twins
        assert meta["solver_paths"] == {"dense_eigh": 38, "twin_quotient": 22}
        assert meta["max_krylov_dim"] is None
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
        assert meta["solver_paths"] == {"dense_eigh": 15, "twin_quotient": 15, "krylov": 30}
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
            (
                "structure",
                {"kernel": {"type": "constant", "c": 1.0}, "prop_tol": "x"},
                "'prop_tol'",
            ),
        ],
    )
    def test_malformed_values_map_to_config_exit(self, tmp_path, command, cfg, fragment):
        path = write_config(tmp_path, cfg)
        out = tmp_path / "out"
        rc = main([command, "--config", path, "--out", str(out)])
        err = self.check_error(out, rc, 2, "ValidationError")
        assert fragment in err["message"]

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
        path = tmp_path / "config.json"
        path.write_text(
            '{"kernel": {"type": "constant", "c": 0.8}, "n": 8,'
            ' "initial": {"type": "balanced_blocks", "r": 0.5},'
            ' "n_ladder": [8], "trials": 30, "horizon": 1e400}'
        )
        out = tmp_path / "out"
        rc = main([command, "--config", str(path), "--out", str(out)])
        err = self.check_error(out, rc, 2, "ValidationError")
        assert err["message"] == "time grid must be finite"

    def test_oversized_graph_json(self, tmp_path):
        cfg = simulate_config()
        del cfg["kernel"], cfg["n"]
        cfg["graph"] = {"n": vl.DEFAULT_N_MAX + 1, "weights": [[0.0]]}
        path = write_config(tmp_path, cfg)
        out = tmp_path / "out"
        rc = main(["simulate", "--config", path, "--out", str(out)])
        self.check_error(out, rc, 3, "SizeLimitError")

    def test_stderr_carries_the_payload(self, tmp_path, capsys):
        out = tmp_path / "out"
        main(["simulate", "--config", str(tmp_path / "nope.json"), "--out", str(out)])
        captured = capsys.readouterr()
        assert json.loads(captured.err.strip())["error"]["exit_code"] == 2
