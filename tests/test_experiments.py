import numpy as np
import pytest

import voterlim as vl

from conftest import closed_form_errors


def bipartite_config(**over):
    base = dict(
        kernel=vl.BipartiteKernel(1 / 3),
        initial=vl.InitialCondition.balanced_blocks(1 / 3),
        n_ladder=[6, 12, 24],
        horizon=2.0,
        num_times=9,
    )
    base.update(over)
    return vl.ExperimentConfig(**base)


class TestExperimentConfig:
    def test_validation(self):
        with pytest.raises(vl.ValidationError):
            bipartite_config(n_ladder=[12, 6])
        with pytest.raises(vl.ValidationError):
            bipartite_config(n_ladder=[0, 6])
        with pytest.raises(vl.ValidationError):
            bipartite_config(horizon=-1.0)
        with pytest.raises(vl.ValidationError):
            bipartite_config(trials=0)
        with pytest.raises(vl.ValidationError):
            bipartite_config(num_times=1)
        with pytest.raises(vl.ValidationError, match="'method'"):
            vl.ExperimentConfig.from_dict(
                {
                    "kernel": {"type": "bipartite", "r": 1 / 3},
                    "initial": {"type": "balanced_blocks", "r": 1 / 3},
                    "n_ladder": [6],
                    "method": "rk",
                }
            )

    def test_from_dict_fills_default_horizon(self):
        cfg = vl.ExperimentConfig.from_dict(
            {
                "kernel": {"type": "constant", "c": 1.0},
                "initial": {"type": "constant", "c": 0.2},
                "n_ladder": [4, 8],
            }
        )
        assert cfg.horizon_source == "spectral_gap"
        assert cfg.horizon == pytest.approx(10.0, rel=1e-6)
        assert cfg.resolved()["horizon_source"] == "spectral_gap"

    def test_times_grid(self):
        cfg = bipartite_config(horizon=4.0, num_times=5)
        assert list(cfg.times()) == [0.0, 1.0, 2.0, 3.0, 4.0]

    def test_metadata_mentions_rng(self):
        meta = vl.experiment_metadata(bipartite_config())
        assert meta["rng_algorithm"] == vl.RNG_ALGORITHM
        assert meta["library_version"] == vl.__version__


class TestConvergenceStudy:
    def test_closed_form_reference_errors_shrink(self):
        cfg = bipartite_config(n_ladder=[8, 16, 32, 64], horizon=2.0, num_times=9)
        table = vl.convergence_study(cfg)
        errs = [row.sup_l2_error for row in table.rows]
        assert all(b < a for a, b in zip(errs, errs[1:]))
        assert table.reference == "exact"
        assert np.allclose(errs, closed_form_errors(cfg), rtol=0.0, atol=1e-14)

    def test_aligned_ladder_is_exact(self):
        cfg = bipartite_config(n_ladder=[6, 12, 24])
        table = vl.convergence_study(cfg)
        assert max(row.sup_l2_error for row in table.rows) <= 1e-12

    def test_finite_reference_requires_margin(self):
        cfg = bipartite_config(
            initial=vl.InitialCondition([0, 0.5, 1], [0.5, -0.5])
        )
        with pytest.raises(vl.ValidationError):
            vl.convergence_study(cfg, reference_n=47)
        table = vl.convergence_study(cfg, reference_n=96)
        assert table.reference == "finite_n_96"

    def test_exact_reference_without_closed_form(self):
        cfg = bipartite_config(kernel=vl.ConstantKernel(1.0))
        table = vl.convergence_study(cfg)
        assert table.reference == "exact"
        assert max(row.sup_l2_error for row in table.rows) <= 1e-12

    def test_exact_reference_overflow_is_a_solver_error(self):
        cfg = bipartite_config(kernel=vl.ConstantKernel(-1.0), horizon=1e3)
        with pytest.raises(vl.SolverConvergenceError):
            vl.convergence_study(cfg)

    def test_csv_is_deterministic(self):
        cfg = bipartite_config()
        a = vl.convergence_study(cfg).csv_text()
        b = vl.convergence_study(cfg).csv_text()
        assert a == b
        header = a.splitlines()[0]
        assert header == "n,sup_l2_error,diameter_at_T,exceptional_measure"


class TestConsensusProximity:
    def test_bipartite_window_is_clean(self):
        cfg = bipartite_config(horizon=25.0, num_times=251, eps=0.01, window=1.0)
        rep = vl.consensus_proximity(cfg)
        assert rep.status == "ok"
        assert rep.t_eps is not None
        # continuum diameter e^{-t/3} crosses eps/3 near 3 ln(300)
        assert rep.t_eps == pytest.approx(3 * np.log(300), abs=0.2)
        assert max(r.max_exceptional_measure for r in rep.rows) <= 1e-12

    def test_consensus_not_reached(self):
        k = vl.direct_sum(
            [(0.5, vl.ConstantKernel(1.0)), (0.5, vl.ConstantKernel(1.0))]
        )
        g = vl.InitialCondition([0, 0.5, 1], [0.2, 0.8])
        cfg = vl.ExperimentConfig(
            kernel=k, initial=g, n_ladder=[8], horizon=10.0, num_times=51,
            eps=0.01, window=1.0,
        )
        rep = vl.consensus_proximity(cfg, reference_n=32)
        assert rep.status == "consensus-not-reached-in-horizon"
        assert rep.t_eps is None
        assert len(rep.rows) == 0

    def test_finite_reference_requires_margin(self):
        cfg = bipartite_config(n_ladder=[64])
        with pytest.raises(vl.ValidationError, match="reference_n"):
            vl.consensus_proximity(cfg, reference_n=5)
        assert vl.consensus_proximity(cfg, reference_n=256).reference == "finite_n_256"

    def test_window_must_fit(self):
        cfg = bipartite_config(horizon=18.0, num_times=181, eps=0.01, window=5.0)
        rep = vl.consensus_proximity(cfg)
        assert rep.status == "window-exceeds-horizon"

    def test_report_round_trips_to_json(self):
        import json

        cfg = bipartite_config(horizon=25.0, num_times=101, eps=0.01, window=1.0)
        rep = vl.consensus_proximity(cfg)
        data = rep.to_dict()
        json.dumps(data)
        assert data["status"] == "ok"
        assert data["eps"] == 0.01


class TestRandomConsensusMC:
    def mc_config(self, **over):
        base = dict(
            kernel=vl.WattsStrogatzKernel(vl.ConstantKernel(1.0), 0.2),
            initial=vl.InitialCondition.balanced_blocks(0.5),
            n_ladder=[16, 32],
            horizon=12.0,
            num_times=2,
            eps=0.05,
            c=0.2,
            trials=30,
            base_seed=7,
        )
        base.update(over)
        return vl.ExperimentConfig(**base)

    def test_minimum_trials_enforced(self):
        with pytest.raises(vl.ValidationError):
            vl.random_consensus_mc(self.mc_config(trials=10))

    def test_requires_graphon(self):
        with pytest.raises(vl.ValidationError):
            vl.random_consensus_mc(self.mc_config(kernel=vl.BipartiteKernel(0.3)))

    @pytest.mark.parametrize("threads", [0, vl.experiments.MC_MAX_THREADS + 1])
    def test_thread_count_checked_before_any_solve(self, threads, monkeypatch):
        def no_solve(*args, **kwargs):
            raise AssertionError("solved before the thread count was checked")

        monkeypatch.setattr(vl.experiments, "solve_continuum", no_solve)
        monkeypatch.setattr(vl.experiments, "solve_exact", no_solve)
        monkeypatch.setattr(vl.experiments, "solve_finite", no_solve)
        with pytest.raises(vl.ValidationError, match="threads"):
            vl.random_consensus_mc(self.mc_config(), threads=threads)

    def test_deterministic_and_thread_invariant(self):
        a = vl.random_consensus_mc(self.mc_config())
        b = vl.random_consensus_mc(self.mc_config())
        c = vl.random_consensus_mc(self.mc_config(), threads=3)
        assert a.csv_text() == b.csv_text()
        assert a.csv_text() == c.csv_text()

    def test_csv_layout(self):
        res = vl.random_consensus_mc(self.mc_config())
        lines = res.csv_text().splitlines()
        assert lines[0] == "n,trial,seed,diameter_at_T,exceptional_measure,success"
        assert len(lines) == 1 + 2 * 30
        first = lines[1].split(",")
        assert first[0] == "16" and first[1] == "0" and first[2] == "7"

    def test_seeds_are_base_plus_trial(self):
        res = vl.random_consensus_mc(self.mc_config(base_seed=100))
        seeds = {row.trial: row.seed for row in res.rows if row.n == 16}
        assert seeds == {t: 100 + t for t in range(30)}

    def test_chebyshev_bound_holds_per_trial(self):
        res = vl.random_consensus_mc(self.mc_config())
        assert res.reference == "exact"
        for row in res.rows:
            assert row.exceedance_fraction <= row.chebyshev_bound + 1e-12

    def test_success_fractions_structure(self):
        res = vl.random_consensus_mc(self.mc_config())
        assert [n for n, _ in res.success_fractions] == [16, 32]
        for _, frac in res.success_fractions:
            assert 0.0 <= frac <= 1.0


class TestRandcond:
    # the functional weights by W(1-W), so it is evaluated with the
    # generating kernel; on a sampled 0/1 graph the weight vanishes

    def test_literal_form_vanishes_by_symmetry(self):
        k = vl.ConstantKernel(0.8)
        g = vl.sample_w_random(k, 24, seed=3)
        u0 = vl.average_initial(vl.InitialCondition.balanced_blocks(0.5), 24)
        traj = vl.solve_finite(g, u0, np.linspace(0, 3, 7))
        assert abs(vl.randcond_evaluate(k, traj, variant="literal")) <= 1e-12

    def test_absolute_form_is_positive_for_uneven_states(self):
        k = vl.ConstantKernel(0.8)
        g = vl.sample_w_random(k, 24, seed=3)
        u0 = vl.average_initial(vl.InitialCondition.balanced_blocks(0.5), 24)
        traj = vl.solve_finite(g, u0, np.array([0.0, 1.0]))
        assert vl.randcond_evaluate(k, traj, variant="absolute") > 0.0

    def test_sampled_pixel_weight_is_degenerate(self):
        g = vl.sample_w_random(vl.ConstantKernel(0.8), 16, seed=5)
        u0 = vl.average_initial(vl.InitialCondition.balanced_blocks(0.5), 16)
        traj = vl.solve_finite(g, u0, np.array([0.0, 1.0]))
        assert vl.randcond_evaluate(vl.pixel_kernel(g), traj, "absolute") == 0.0

    def test_variant_validation(self):
        g = vl.sample_w_random(vl.ConstantKernel(0.8), 8, seed=0)
        traj = vl.solve_finite(g, np.zeros(8), np.array([0.0, 1.0]))
        with pytest.raises(vl.ValidationError):
            vl.randcond_evaluate(vl.pixel_kernel(g), traj, variant="other")
