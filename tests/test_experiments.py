import dataclasses
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import voterlim as vl

from _oracles import randcond_evaluate
from conftest import closed_form_errors, random_step_kernel


def bipartite_config(**over):
    base = dict(
        kernel=vl.StepKernel.bipartite(1 / 3),
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
        with pytest.raises(vl.ValidationError, match="n_ladder"):
            bipartite_config(n_ladder=[6.5, 12])
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

    @pytest.mark.parametrize("horizon", [1.0, None])
    @pytest.mark.parametrize(
        "key, value",
        [
            ("kernel", "x"),
            ("kernel", {"type": "constant", "c": 1.0}),
            ("kernel", vl.InitialCondition.constant(0.5)),
            ("initial", vl.WeightedGraph([[0.0, 1.0], [1.0, 0.0]])),
            ("initial", vl.StepKernel.constant(0.5)),
            ("initial", 0.5),
        ],
    )
    def test_kernel_and_initial_must_be_library_objects(self, key, value, horizon):
        # a wrong object built, then failed with AttributeError in a study, or
        # in default_horizon at construction when horizon was None
        with pytest.raises(vl.ValidationError, match=f"'{key}'"):
            bipartite_config(**{key: value, "n_ladder": [4], "horizon": horizon})

    @pytest.mark.parametrize(
        "name, value", [("horizon", -1.0), ("n_ladder", (4,)), ("trials", 0), ("kernel", None)]
    )
    def test_a_built_config_cannot_be_changed(self, name, value):
        # a field set after construction skipped every check, and a negative
        # horizon failed late in a study, naming no key
        cfg = bipartite_config()
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(cfg, name, value)
        assert cfg.resolved() == bipartite_config().resolved()

    def test_horizon_source_is_derived_not_given(self):
        # echoed in the metadata as what the code derived, so no caller sets it
        assert bipartite_config().horizon_source == "config"
        with pytest.raises(TypeError, match="horizon_source"):
            bipartite_config(horizon_source="spectral_gap")

    @pytest.mark.parametrize("name", ["horizon", "window", "eps", "c"])
    @pytest.mark.parametrize("value", [np.inf, np.nan, 0.0])
    def test_lengths_and_tolerances_must_be_positive_and_finite(self, name, value):
        with pytest.raises(vl.ValidationError, match=name):
            bipartite_config(**{name: value})

    @pytest.mark.parametrize("name", ["horizon", "window", "eps", "c"])
    @pytest.mark.parametrize("value", [True, np.True_])
    def test_booleans_are_not_lengths_or_tolerances(self, name, value):
        # 0 < True < inf held, so a boolean ran as 1.0
        with pytest.raises(vl.ValidationError, match=name):
            bipartite_config(**{name: value})

    @pytest.mark.parametrize(
        "key,value",
        [("trials", 30.5), ("base_seed", 1.5), ("num_times", 2.7), ("n_ladder", [6.5]),
         ("trials", np.inf), ("base_seed", np.nan)],
    )
    def test_from_dict_refuses_counts_that_are_not_integers(self, key, value):
        # int() would truncate 2.7 to 2; an integral float still counts
        data = {
            "kernel": {"type": "bipartite", "r": 1 / 3},
            "initial": {"type": "balanced_blocks", "r": 1 / 3},
            "n_ladder": [6],
            "horizon": 2.0,
        }
        with pytest.raises(vl.ValidationError):
            vl.ExperimentConfig.from_dict({**data, key: value})
        cfg = vl.ExperimentConfig.from_dict(
            {**data, "trials": 30.0, "base_seed": 3.0, "num_times": 5.0, "n_ladder": [6.0]}
        )
        assert (cfg.trials, cfg.base_seed, cfg.num_times, cfg.n_ladder) == (30, 3, 5, (6,))
        assert [type(v) for v in (cfg.trials, cfg.base_seed, cfg.num_times)] == [int] * 3

    @pytest.mark.parametrize(
        "key,value",
        [("trials", 40.5), ("base_seed", 1.5), ("num_times", 2.7), ("trials", np.inf),
         ("base_seed", np.nan), ("trials", None), ("num_times", "many"),
         ("trials", True), ("base_seed", np.True_), ("num_times", "9")],
    )
    def test_constructor_refuses_counts_that_are_not_integers(self, key, value):
        # without from_dict, 40.5 trials reached random_consensus_mc as a float
        with pytest.raises(vl.ValidationError, match=key):
            bipartite_config(**{key: value})

    def test_constructor_turns_integral_floats_into_ints(self):
        cfg = bipartite_config(trials=40.0, base_seed=3.0, num_times=9.0)
        assert (cfg.trials, cfg.base_seed, cfg.num_times) == (40, 3, 9)
        assert [type(v) for v in (cfg.trials, cfg.base_seed, cfg.num_times)] == [int] * 3

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
        # every default is echoed, with the type the config would give it
        resolved = cfg.resolved()
        assert resolved == {
            "kernel": {"type": "constant", "c": 1.0},
            "initial": vl.InitialCondition.constant(0.2).spec(),
            "n_ladder": [4, 8],
            "horizon": cfg.horizon,
            "horizon_source": "spectral_gap",
            "window": 1.0,
            "eps": 1e-3,
            "c": 0.1,
            "trials": 50,
            "base_seed": 0,
            "num_times": 201,
        }
        assert [type(resolved[k]) for k in ("window", "trials", "num_times")] == [
            float, int, int,
        ]

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
        assert vl.convergence_study(cfg, reference_n=96.0).reference == "finite_n_96"

    @pytest.mark.parametrize("reference_n", [96.5, np.inf, np.nan, "many"])
    def test_finite_reference_must_be_an_integer(self, reference_n):
        # int() solved the reference at n = 96 for 96.5
        cfg = bipartite_config()
        with pytest.raises(vl.ValidationError, match="reference_n"):
            vl.convergence_study(cfg, reference_n=reference_n)
        with pytest.raises(vl.ValidationError, match="reference_n"):
            vl.consensus_proximity(cfg, reference_n=reference_n)

    def test_exact_reference_without_closed_form(self):
        cfg = bipartite_config(kernel=vl.StepKernel.constant(1.0))
        table = vl.convergence_study(cfg)
        assert table.reference == "exact"
        assert max(row.sup_l2_error for row in table.rows) <= 1e-12

    def test_exact_reference_overflow_is_a_solver_error(self):
        cfg = bipartite_config(kernel=vl.StepKernel.constant(-1.0), horizon=1e3)
        with pytest.raises(vl.SolverConvergenceError):
            vl.convergence_study(cfg)

    def test_csv_is_deterministic(self):
        cfg = bipartite_config()
        a = vl.experiments._table_csv(vl.ErrorRow, vl.convergence_study(cfg).rows)
        b = vl.experiments._table_csv(vl.ErrorRow, vl.convergence_study(cfg).rows)
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
        k = vl.StepKernel.direct_sum(
            [(0.5, vl.StepKernel.constant(1.0)), (0.5, vl.StepKernel.constant(1.0))]
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
        # an empty table still has its header
        csv = vl.experiments._table_csv(vl.experiments.ProximityRow, rep.rows)
        assert csv == "n,max_exceptional_measure\n"

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
        data = asdict(rep)
        json.dumps(data)
        assert data["status"] == "ok"
        assert data["eps"] == 0.01


class TestRandomConsensusMC:
    def mc_config(self, **over):
        base = dict(
            kernel=vl.StepKernel.ws_mix(vl.StepKernel.constant(1.0), 0.2),
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
            vl.random_consensus_mc(self.mc_config(kernel=vl.StepKernel.bipartite(0.3)))

    def test_deterministic(self):
        a = vl.random_consensus_mc(self.mc_config())
        b = vl.random_consensus_mc(self.mc_config())
        assert a.csv_text() == b.csv_text()

    def test_takes_no_thread_count(self):
        # the trials run in one loop; a thread pool measured no gain
        with pytest.raises(TypeError, match="threads"):
            vl.random_consensus_mc(self.mc_config(), threads=2)

    @staticmethod
    def public_rows(cfg):
        """The rows of `random_consensus_mc`, by a loop over the public functions."""
        times = np.array([0.0, cfg.horizon])
        ref_part, ref_values = vl.solve_exact(cfg.kernel, cfg.initial, times)
        expected = []
        for n in cfg.n_ladder:
            part = vl.Partition.uniform(n)
            for trial in range(cfg.trials):
                seed = cfg.base_seed + trial
                graph = vl.sample_w_random(cfg.kernel, n, seed)
                traj = vl.solve_finite(graph, vl.average_initial(cfg.initial, n), times)
                final = traj.states[-1]
                exc = vl.exceptional_measure(final, cfg.eps)
                exceed = vl.step_exceedance_measure(
                    part, final, ref_part, ref_values[-1], cfg.eps
                )
                l2 = vl.step_l2_distance(part, final, ref_part, ref_values[-1])
                expected.append(
                    vl.experiments.MCTrialRow(
                        n, trial, seed, vl.consensus_diameter(final), exc,
                        exc < cfg.c * cfg.c, float(exceed), float((l2 / cfg.eps) ** 2),
                        traj.metadata["solver_path"], traj.metadata.get("krylov_dim"),
                    )
                )
        return tuple(expected)

    def test_rows_match_a_loop_over_the_public_functions(self):
        # one sampler per size and unvalidated samples change no row
        cfg = self.mc_config()
        assert vl.random_consensus_mc(cfg).rows == self.public_rows(cfg)

    @settings(max_examples=15, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_rows_match_the_public_functions_on_random_partitions(self, seed):
        # the refinement and the reference set up once per size give the bits
        # of step_exceedance_measure and step_l2_distance; cuts at k/24 are
        # shared with the ladder's uniform partitions
        r = np.random.default_rng(seed)
        cuts = np.unique(np.concatenate(
            [r.uniform(0.01, 0.99, r.integers(0, 5)), r.integers(1, 24, r.integers(0, 5)) / 24]
        ))
        bounds = np.concatenate([[0.0], cuts, [1.0]])
        cfg = self.mc_config(
            kernel=random_step_kernel(r, max_cells=5, nonneg=True),
            initial=vl.InitialCondition(bounds, r.uniform(-1.0, 1.0, bounds.size - 1)),
            n_ladder=[int(r.integers(2, 8)), 8, 24],
            eps=float(r.choice([0.01, 0.05, 0.2])),
        )
        assert vl.random_consensus_mc(cfg).rows == self.public_rows(cfg)

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
        k = vl.StepKernel.constant(0.8)
        g = vl.sample_w_random(k, 24, seed=3)
        u0 = vl.average_initial(vl.InitialCondition.balanced_blocks(0.5), 24)
        traj = vl.solve_finite(g, u0, np.linspace(0, 3, 7))
        assert abs(randcond_evaluate(k, traj, variant="literal")) <= 1e-12

    def test_absolute_form_is_positive_for_uneven_states(self):
        k = vl.StepKernel.constant(0.8)
        g = vl.sample_w_random(k, 24, seed=3)
        u0 = vl.average_initial(vl.InitialCondition.balanced_blocks(0.5), 24)
        traj = vl.solve_finite(g, u0, np.array([0.0, 1.0]))
        assert randcond_evaluate(k, traj, variant="absolute") > 0.0

    def test_sampled_pixel_weight_is_degenerate(self):
        g = vl.sample_w_random(vl.StepKernel.constant(0.8), 16, seed=5)
        u0 = vl.average_initial(vl.InitialCondition.balanced_blocks(0.5), 16)
        traj = vl.solve_finite(g, u0, np.array([0.0, 1.0]))
        assert randcond_evaluate(vl.pixel_kernel(g), traj, "absolute") == 0.0

    def test_variant_validation(self):
        g = vl.sample_w_random(vl.StepKernel.constant(0.8), 8, seed=0)
        traj = vl.solve_finite(g, np.zeros(8), np.array([0.0, 1.0]))
        with pytest.raises(vl.ValidationError):
            randcond_evaluate(vl.pixel_kernel(g), traj, variant="other")
