"""Acceptance gate: ten independent checks, one pass/fail line each.

Run with `pytest tests/test_acceptance.py -s` to stream the lines; under
plain pytest they appear in captured output on failure.  Tolerances and
runtime budgets are frozen; do not loosen them.
"""

import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

import voterlim as vl

from _oracles import BipartiteClosedForm, randcond_evaluate
from conftest import closed_form_errors


@contextmanager
def criterion(num, name, budget=None):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"\ncriterion {num:02d} [{name}]: FAIL")
        raise
    elapsed = time.perf_counter() - start
    if budget is not None and elapsed >= budget:
        print(f"\ncriterion {num:02d} [{name}]: FAIL ({elapsed:.2f}s over budget {budget:.0f}s)")
        raise AssertionError(f"{name}: runtime {elapsed:.2f}s exceeds {budget:.0f}s")
    print(f"\ncriterion {num:02d} [{name}]: PASS ({elapsed:.2f}s)")


R = 1.0 / 3.0

# frozen generator references for the two-block kernel; entry (0, 0) of
# the n=5 table is pinned to -8/15 by the zero row-sum identity:
# -(-1/3 + 1 + 1 + 1) / 5
GEN_5 = np.array(
    [
        [-8 / 3, -1 / 3, 1, 1, 1],
        [-1 / 3, -8 / 3, 1, 1, 1],
        [1, 1, -4, 1, 1],
        [1, 1, 1, -4, 1],
        [1, 1, 1, 1, -4],
    ]
) / 5.0

GEN_6 = np.array(
    [
        [-3, -1, 1, 1, 1, 1],
        [-1, -3, 1, 1, 1, 1],
        [1, 1, -5, 1, 1, 1],
        [1, 1, 1, -5, 1, 1],
        [1, 1, 1, 1, -5, 1],
        [1, 1, 1, 1, 1, -5],
    ]
) / 6.0


def alternating_cycle_kernel():
    # 4-cycle with +1 on two opposite edges and -1 on the other two;
    # connected and twin (rows are pairwise proportional with sign -1)
    graph = vl.WeightedGraph(
        [
            [0.0, 1.0, -1.0, 0.0],
            [1.0, 0.0, 0.0, -1.0],
            [-1.0, 0.0, 0.0, 1.0],
            [0.0, -1.0, 1.0, 0.0],
        ]
    )
    return vl.pixel_kernel(graph)


def tent_initial():
    # cell averages at n=8 of the tent profile 4x-1 on [0,1/2], 3-4x after;
    # its integrals over the four quarter blocks pair up, which is exactly
    # what makes the signed cycle hold it stationary
    return vl.InitialCondition.from_cell_values(
        [-0.75, -0.25, 0.25, 0.75, 0.75, 0.25, -0.25, -0.75]
    )


def two_component_kernel():
    return vl.make_kernel(
        {
            "type": "direct_sum",
            "parts": [
                {"weight": 0.5, "kernel": {"type": "constant", "c": 1.0}},
                {"weight": 0.5, "kernel": {"type": "constant", "c": 1.0}},
            ],
        }
    )


def random_suite(seed=20240815, count=24):
    """Random step kernels with initial data; odd entries are nonnegative."""
    rng = np.random.default_rng(seed)
    suite = []
    for idx in range(count):
        cells = int(rng.integers(2, 7))
        cuts = np.sort(rng.uniform(0.08, 0.92, cells - 1))
        low = 0.0 if idx % 2 else -1.0
        raw = rng.uniform(low, 1.0, (cells, cells))
        kernel = vl.StepKernel(
            np.concatenate(([0.0], cuts, [1.0])), (raw + raw.T) / 2.0
        )
        gcuts = np.sort(rng.uniform(0.1, 0.9, 3))
        g = vl.InitialCondition(
            np.concatenate(([0.0], gcuts, [1.0])), rng.uniform(-1.0, 1.0, 4)
        )
        n = int(rng.integers(8, 65))
        suite.append((kernel, g, n))
    return suite


def test_criterion_01_golden_matrices():
    with criterion(1, "golden generator matrices", budget=1.0):
        d5 = vl.laplacian(vl.discretize_kernel(vl.StepKernel.bipartite(R), 5))
        d6 = vl.laplacian(vl.discretize_kernel(vl.StepKernel.bipartite(R), 6))
        assert np.max(np.abs(d6 - GEN_6)) <= 1e-12
        assert np.max(np.abs(d5 - GEN_5)) <= 1e-12
        assert abs(d5[0, 0] + 8.0 / 15.0) <= 1e-12


def test_criterion_02_closed_form_agreement():
    with criterion(2, "closed form at n=300", budget=30.0):
        g = vl.InitialCondition.balanced_blocks(R)
        times = np.arange(21) * 0.5
        traj = vl.solve_continuum(vl.StepKernel.bipartite(R), g, 300, times)
        mids = vl.Partition.uniform(300).midpoints()
        cf = BipartiteClosedForm(R, g)
        worst = max(
            float(np.max(np.abs(traj.states[k] - cf.evaluate(mids, t))))
            for k, t in enumerate(times)
        )
        assert worst <= 1e-6


def test_criterion_03_mean_conservation():
    with criterion(3, "mean conservation suite", budget=60.0):
        times = np.linspace(0.0, 5.0, 26)
        suite = random_suite()
        assert len(suite) >= 20
        for kernel, g, n in suite:
            traj = vl.solve_continuum(kernel, g, n, times)
            target = g.integral()
            drift = max(abs(float(np.mean(s)) - target) for s in traj.states)
            assert drift <= 1e-10


def test_criterion_04_graphon_boundedness():
    with criterion(4, "graphon sup-norm bound"):
        times = np.linspace(0.0, 5.0, 26)
        nonneg = [case for case in random_suite() if case[0].values.min() >= 0.0]
        assert len(nonneg) >= 10
        for kernel, g, n in nonneg:
            traj = vl.solve_continuum(kernel, g, n, times)
            bound = np.max(np.abs(g.values)) + 1e-9
            assert float(np.max(np.abs(traj.states))) <= bound


def test_criterion_05_convergence_ladder():
    with criterion(5, "error ladder decreases"):
        cfg = vl.ExperimentConfig.from_dict(
            {
                "kernel": {"type": "bipartite", "r": R},
                "initial": {"type": "balanced_blocks", "r": R},
                "n_ladder": [8, 16, 32, 64, 128],
                "horizon": 10.0,
                "num_times": 101,
            }
        )
        table = vl.convergence_study(cfg)
        assert table.reference == "exact"
        errs = [row.sup_l2_error for row in table.rows]
        assert all(b < a for a, b in zip(errs, errs[1:]))
        assert np.allclose(errs, closed_form_errors(cfg), rtol=0.0, atol=1e-14)


def test_criterion_06_proximity_window():
    with criterion(6, "exceptional measure window", budget=120.0):
        cfg = vl.ExperimentConfig.from_dict(
            {
                "kernel": {"type": "bipartite", "r": R},
                "initial": {"type": "balanced_blocks", "r": R},
                "n_ladder": [256],
                "horizon": 25.0,
                "num_times": 251,
                "eps": 0.01,
                "window": 1.0,
                "c": 0.1,
            }
        )
        report = vl.consensus_proximity(cfg)
        assert report.status == "ok"
        assert report.rows[0].n == 256
        assert report.rows[0].max_exceptional_measure < cfg.c**2


def test_criterion_07_structure_suite():
    with criterion(7, "signed cycle and split components"):
        k4 = alternating_cycle_kernel()
        assert len(vl.connected_components(k4).components) == 1
        assert vl.find_maximal_twin_sets(k4).is_twin_kernel
        tent = tent_initial()
        times = np.linspace(0.0, 20.0, 81)
        traj = vl.solve_continuum(k4, tent, 8, times)
        assert float(np.max(np.abs(traj.states - traj.states[0]))) <= 1e-8
        assert vl.detect_consensus(traj, 0.05) is None

        dsum = two_component_kernel()
        g = vl.InitialCondition.from_cell_values([1.0, 0.6, 0.4, 0.0])
        report = vl.necessary_condition(dsum, g)
        assert not report.satisfied
        assert report.spread == pytest.approx(0.6)
        traj = vl.solve_continuum(dsum, g, 16, times)
        assert vl.consensus_diameter(traj.states[-1]) > 0.5 * report.spread


def test_criterion_08_twin_limit_prediction():
    with criterion(8, "limit prediction on random graphons"):
        rng = np.random.default_rng(814)
        times = np.linspace(0.0, 130.0, 261)
        for _ in range(10):
            cells = int(rng.integers(2, 6))
            cuts = np.sort(rng.uniform(0.1, 0.9, cells - 1))
            raw = rng.uniform(0.2, 1.0, (cells, cells))
            kernel = vl.StepKernel(
                np.concatenate(([0.0], cuts, [1.0])), (raw + raw.T) / 2.0
            )
            assert len(vl.connected_components(kernel).components) == 1
            gcuts = np.sort(rng.uniform(0.1, 0.9, 3))
            g = vl.InitialCondition(
                np.concatenate(([0.0], gcuts, [1.0])), rng.uniform(-1.0, 1.0, 4)
            )
            n = int(rng.integers(8, 33))
            predicted = vl.predict_limit(kernel, g)
            expected = vl.average_initial(predicted, n)
            assert np.max(np.abs(expected - g.integral())) <= 1e-12
            traj = vl.solve_continuum(kernel, g, n, times)
            # settled: every cell stays within 1e-8 over the trailing fifth of the grid
            tail = traj.states[-math.ceil(0.2 * times.size):]
            assert float(np.max(tail.max(axis=0) - tail.min(axis=0))) <= 1e-8
            assert float(np.max(np.abs(traj.states[-1] - expected))) <= 1e-4


def test_criterion_09_volterra_oracle():
    with criterion(9, "integral-equation residuals"):
        bal = vl.InitialCondition.balanced_blocks(R)
        bip = vl.StepKernel.bipartite(R)
        rng = np.random.default_rng(814)
        raw = rng.uniform(0.2, 1.0, (3, 3))
        rand_kernel = vl.StepKernel([0.0, 0.3, 0.7, 1.0], (raw + raw.T) / 2.0)
        rand_g = vl.InitialCondition([0.0, 0.4, 1.0], [0.9, -0.6])
        cases = [
            (bip, bal, 300, 10.0),
            (bip, bal, 128, 10.0),
            (bip, bal, 256, 25.0),
            (alternating_cycle_kernel(), tent_initial(), 8, 20.0),
            (two_component_kernel(), vl.InitialCondition.from_cell_values([1.0, 0.6, 0.4, 0.0]), 16, 20.0),
            (rand_kernel, rand_g, 32, 10.0),
        ]
        sampled = vl.sample_w_random(vl.StepKernel.constant(0.8), 64, seed=7)
        for kernel, g, n, horizon in cases:
            base = int(round(horizon / 0.05)) + 1
            coarse = vl.solve_continuum(kernel, g, n, np.linspace(0.0, horizon, base))
            fine = vl.solve_continuum(
                kernel, g, n, np.linspace(0.0, horizon, 2 * base - 1)
            )
            r_coarse = vl.volterra_residual(kernel, coarse)
            r_fine = vl.volterra_residual(kernel, fine)
            assert r_coarse <= 1e-4
            assert r_fine <= 1e-4
            if r_coarse > 1e-12:
                assert r_coarse / r_fine >= 3.0
            else:
                assert r_fine <= 1e-12

        u0 = vl.average_initial(vl.InitialCondition.balanced_blocks(0.5), 64)
        pk = vl.pixel_kernel(sampled)
        coarse = vl.solve_finite(sampled, u0, np.linspace(0.0, 14.0, 281))
        fine = vl.solve_finite(sampled, u0, np.linspace(0.0, 14.0, 561))
        r_coarse = vl.volterra_residual(pk, coarse)
        r_fine = vl.volterra_residual(pk, fine)
        assert r_coarse <= 1e-4 and r_fine <= 1e-4
        assert r_coarse / r_fine >= 3.0


def test_criterion_10_monte_carlo():
    with criterion(10, "random graph success curve", budget=300.0):
        cfg = vl.ExperimentConfig.from_dict(
            {
                "kernel": {"type": "ws_mix", "p": 0.2, "base": {"type": "constant", "c": 1.0}},
                "initial": {"type": "balanced_blocks", "r": 0.5},
                "n_ladder": [32, 64, 128, 256],
                "trials": 50,
                "horizon": 14.0,
                "eps": 0.01,
                "c": 0.1,
                "base_seed": 424242,
            }
        )
        result = vl.random_consensus_mc(cfg)
        fractions = [frac for _, frac in result.success_fractions]
        assert all(b >= a for a, b in zip(fractions, fractions[1:]))
        assert fractions[-1] >= 0.9

        times = np.array([0.0, cfg.horizon])
        for n in cfg.n_ladder:
            u0 = vl.average_initial(cfg.initial, n)
            for trial in range(cfg.trials):
                graph = vl.sample_w_random(cfg.kernel, n, cfg.base_seed + trial)
                traj = vl.solve_finite(graph, u0, times)
                value = randcond_evaluate(cfg.kernel, traj, variant="literal")
                assert abs(value) <= 1e-12
