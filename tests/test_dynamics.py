import csv
import decimal
import importlib
import io
import tempfile
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import voterlim as vl
from voterlim import dynamics, graphs
from voterlim.dynamics import csv_text
from voterlim.kernels import Partition, common_refinement

from _oracles import (
    BipartiteClosedForm,
    brute_exceptional,
    brute_step_exceedance,
    copied_weights,
    dense_eigh_states,
    dense_volterra_residual,
    frac_step_integral,
    has_balanced_blocks,
    naive_volterra_residual,
    per_cell_class_states,
    per_cell_graph_states,
    rk4_states,
    row_by_row_trajectory_csv,
    row_equality_classes,
    taylor_expm,
)
from conftest import random_initial, random_step_kernel, signed_zero_step_kernel

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _blocks(r, left, right):
    """`balanced_blocks(r)` with amplitudes left and right for its two blocks."""
    bounds = [0.0, r / 2.0, r, (1.0 + r) / 2.0, 1.0]
    return vl.InitialCondition(bounds, [left, -left, right, -right])


class TestInitialCondition:
    def test_adjacent_equal_values_merge(self):
        g = vl.InitialCondition([0, 0.3, 0.6, 1], [0.5, 0.5, -1.0])
        assert list(g.partition.boundaries) == [0.0, 0.6, 1.0]
        assert list(g.values) == [0.5, -1.0]

    def test_constant(self):
        g = vl.InitialCondition.constant(0.25)
        assert g.evaluate(0.0) == 0.25
        assert g.evaluate(1.0) == 0.25
        assert g.mean() == 0.25

    def test_from_cell_values(self):
        g = vl.InitialCondition.from_cell_values([1.0, -1.0, 0.0])
        assert g.evaluate(0.2) == 1.0
        assert g.evaluate(0.5) == -1.0
        assert g.evaluate(0.9) == 0.0

    def test_integral_matches_rational_oracle(self, rng):
        for _ in range(5):
            g = random_initial(rng, n_cells=5)
            lo, hi = sorted(rng.uniform(0, 1, 2))
            want = frac_step_integral(g.partition.boundaries, g.values, lo, hi)
            assert g.integral(lo, hi) == pytest.approx(want, abs=1e-13)

    def test_balanced_blocks(self):
        g = vl.InitialCondition.balanced_blocks(1 / 3)
        assert g.integral(0, 1 / 3) == pytest.approx(0.0, abs=1e-15)
        assert g.integral(1 / 3, 1) == pytest.approx(0.0, abs=1e-15)
        assert np.max(np.abs(g.values)) == 0.5
        assert has_balanced_blocks(g, 1 / 3)
        assert not has_balanced_blocks(g, 0.25)

    def test_validation(self):
        with pytest.raises(vl.ValidationError):
            vl.InitialCondition([0, 0.5, 1], [0.5])
        with pytest.raises(vl.ValidationError):
            vl.InitialCondition([0, 0.5, 1], [np.inf, 0.0])

    def test_make_initial_round_trip(self):
        for spec in (
            {"type": "constant", "c": -0.3},
            {"type": "step", "boundaries": [0, 0.4, 1], "values": [1.0, -1.0]},
            {"type": "uniform_cells", "values": [0.1, 0.2, 0.3]},
            {"type": "balanced_blocks", "r": 0.25},
        ):
            g = vl.make_initial(spec)
            again = vl.make_initial(g.spec())
            assert list(again.values) == list(g.values)
        with pytest.raises(vl.ValidationError):
            vl.make_initial({"type": "nope"})


def test_average_initial_is_exact_cell_mean(rng):
    g = random_initial(rng, n_cells=4)
    n = 7
    got = vl.average_initial(g, n)
    for k in range(n):
        want = n * frac_step_integral(
            g.partition.boundaries, g.values, k / n, (k + 1) / n
        )
        assert got[k] == pytest.approx(want, abs=1e-13)


def test_default_horizon():
    t, source = vl.default_horizon(vl.StepKernel.constant(1.0))
    assert source == "spectral_gap"
    assert t == pytest.approx(10.0, rel=1e-6)
    t, source = vl.default_horizon(vl.StepKernel.constant(0.0))
    assert source == "fallback"
    assert t == 20.0
    t, source = vl.default_horizon(None)
    assert source == "fallback"


class TestSolveFinite:
    def test_size_guard(self, monkeypatch):
        g = vl.discretize_kernel(vl.StepKernel.constant(1.0), 5)
        monkeypatch.setattr(graphs, "DEFAULT_N_MAX", 4)
        with pytest.raises(vl.SizeLimitError):
            vl.solve_finite(g, np.zeros(5), np.array([0.0, 1.0]))
        monkeypatch.setattr(graphs, "DEFAULT_N_MAX", 5)
        assert vl.solve_finite(g, np.zeros(5), np.array([0.0, 1.0])).n == 5

    def test_initial_state_is_preserved(self, rng):
        g = vl.discretize_kernel(random_step_kernel(rng), 8)
        u0 = rng.uniform(-1, 1, 8)
        traj = vl.solve_finite(g, u0, np.array([0.0, 1.0]))
        assert np.array_equal(traj.states[0], u0)

    def test_mean_is_conserved(self, rng):
        for _ in range(5):
            k = random_step_kernel(rng)
            g = vl.discretize_kernel(k, 16)
            u0 = rng.uniform(-1, 1, 16)
            traj = vl.solve_finite(g, u0, np.linspace(0, 5, 11))
            drift = np.abs(traj.states.mean(axis=1) - u0.mean()).max()
            assert drift <= 1e-12

    def test_graphon_flow_is_a_sup_norm_contraction(self, rng):
        for _ in range(5):
            k = random_step_kernel(rng, nonneg=True)
            g = vl.discretize_kernel(k, 16)
            u0 = rng.uniform(-1, 1, 16)
            traj = vl.solve_finite(g, u0, np.linspace(0, 5, 11))
            assert np.abs(traj.states).max() <= np.abs(u0).max() + 1e-12

    def test_expm_matches_series_oracle(self, rng):
        g = vl.discretize_kernel(vl.StepKernel.bipartite(1 / 3), 12)
        D = vl.laplacian(g)
        u0 = rng.uniform(-1, 1, 12)
        t = 1.7
        traj = vl.solve_finite(g, u0, np.array([0.0, t]))
        want = taylor_expm(D, t) @ u0
        assert np.abs(traj.states[-1] - want).max() <= 1e-12

    def test_expm_and_rk_agree(self, rng):
        for k in (vl.StepKernel.bipartite(0.25), random_step_kernel(rng)):
            g = vl.discretize_kernel(k, 24)
            u0 = rng.uniform(-1, 1, 24)
            times = np.linspace(0, 4, 9)
            a = vl.solve_finite(g, u0, times)
            b = rk4_states(vl.laplacian(g), u0, times, substeps=64)
            assert np.abs(a.states - b).max() <= 1e-7

    def test_time_grid_validation(self):
        g = vl.discretize_kernel(vl.StepKernel.constant(1.0), 4)
        with pytest.raises(vl.ValidationError):
            vl.solve_finite(g, np.zeros(4), np.array([1.0, 2.0]))
        with pytest.raises(vl.ValidationError):
            vl.solve_finite(g, np.zeros(4), np.array([0.0, 2.0, 1.0]))

    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_non_finite_times(self, bad):
        g = vl.discretize_kernel(vl.StepKernel.constant(1.0), 4)
        with pytest.raises(vl.ValidationError, match="finite"):
            vl.solve_finite(g, np.zeros(4), np.array([0.0, bad]))


def _classes(graph):
    labels, heads = graphs.byte_classes(graph.weights)
    assert np.array_equal(labels[heads], np.arange(heads.size))
    return sorted(np.nonzero(labels == k)[0].tolist() for k in range(heads.size))


def _check_against_dense(graph, u0, times, nonneg):
    """Solve, compare with the dense oracle and the exact row classes; return q."""
    traj = vl.solve_finite(graph, u0, times)
    want = dense_eigh_states(graph, u0, times)
    scale = np.abs(u0).max() if nonneg else np.abs(want).max()
    assert np.abs(traj.states - want).max() <= 1e-12 * scale
    classes = row_equality_classes(graph.weights)
    assert _classes(graph) == classes
    q = len(classes)
    assert traj.metadata["q"] == q
    path = "krylov" if q == graph.n else "twin_quotient"
    assert traj.metadata["solver_path"] == path
    return q


def _random_weights(r, k, nonneg):
    w = r.uniform(0.0 if nonneg else -1.0, 1.0, (k, k))
    return (w + w.T) / 2


class TestTwinQuotient:
    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(0, 2**32 - 1),
        st.integers(1, 8),
        st.booleans(),
        st.sampled_from([1, 2, 3, 8, 64, 256, 257, 300, 512]),
    )
    def test_step_kernels_match_dense(self, seed, m, nonneg, n):
        r = np.random.default_rng(seed)
        cuts = np.unique(r.uniform(0.05, 0.95, m - 1))
        bounds = np.concatenate([[0.0], cuts, [1.0]])
        kernel = vl.StepKernel(bounds, _random_weights(r, bounds.size - 1, nonneg))
        graph = vl.discretize_kernel(kernel, n)
        u0 = r.uniform(-1.0, 1.0, n)
        times = np.linspace(0.0, float(r.uniform(0.5, 5.0)), 9)
        q = _check_against_dense(graph, u0, times, nonneg)
        if n & (n - 1) == 0:
            assert q <= 2 * (bounds.size - 1) - 1

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 12), st.booleans())
    def test_blow_ups_match_dense(self, seed, k, nonneg):
        r = np.random.default_rng(seed)
        base = vl.WeightedGraph(_random_weights(r, k, nonneg))
        graph = vl.WeightedGraph(copied_weights(base.weights, r.integers(1, 5, k)))
        u0 = r.uniform(-1.0, 1.0, graph.n)
        q = _check_against_dense(graph, u0, np.linspace(0.0, 3.0, 7), nonneg)
        assert q == k

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(2, 24))
    def test_false_twins_in_simple_graphs_match_dense(self, seed, k):
        r = np.random.default_rng(seed)
        sample = vl.sample_w_random(vl.StepKernel.constant(0.5), k, seed)
        graph = vl.WeightedGraph(copied_weights(sample.weights, r.integers(1, 4, k)))
        assert np.isin(graph.weights, (0.0, 1.0)).all() and not np.diag(graph.weights).any()
        u0 = r.uniform(-1.0, 1.0, graph.n)
        _check_against_dense(graph, u0, np.linspace(0.0, 3.0, 7), True)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 40))
    def test_twin_free_graphs_match_dense(self, seed, n):
        r = np.random.default_rng(seed)
        graph = vl.WeightedGraph(_random_weights(r, n, False))
        assert len(row_equality_classes(graph.weights)) == n
        u0 = r.uniform(-1.0, 1.0, n)
        times = np.linspace(0.0, 2.0, 5)
        traj = vl.solve_finite(graph, u0, times)
        assert traj.metadata["solver_path"] == "krylov"
        want = dense_eigh_states(graph, u0, times)
        assert np.abs(traj.states - want).max() <= 1e-12 * max(1.0, np.abs(want).max())

    def test_large_random_graphs_with_and_without_twins(self):
        # a W-random graph has no twins; copying three of its vertices adds
        # three classes with more than one member
        sample = vl.sample_w_random(vl.StepKernel.constant(0.5), 300, seed=7)
        copies = np.ones(300, dtype=int)
        copies[[3, 150, 299]] = [2, 3, 2]
        copied = vl.WeightedGraph(copied_weights(sample.weights, copies))
        for graph, q in ((sample, 300), (copied, 300)):
            u0 = np.random.default_rng(q).uniform(-1.0, 1.0, graph.n)
            assert _check_against_dense(graph, u0, np.linspace(0.0, 3.0, 7), True) == q

    def test_negative_zero_row_solves_correctly(self):
        # rows 0 and 1 differ only by 0.0 against -0.0 in column 3; rows 2
        # and 4 are twins, so the quotient path runs
        w = np.array(
            [
                [0.5, 0.5, 0.3, 0.0, 0.3],
                [0.5, 0.5, 0.3, -0.0, 0.3],
                [0.3, 0.3, 0.2, 0.7, 0.2],
                [0.0, -0.0, 0.7, 0.1, 0.7],
                [0.3, 0.3, 0.2, 0.7, 0.2],
            ]
        )
        graph = vl.WeightedGraph(w)
        assert np.signbit(graph.weights[1, 3]) and not np.signbit(graph.weights[0, 3])
        u0 = np.array([1.0, -1.0, 0.5, 0.25, -0.75])
        assert _check_against_dense(graph, u0, np.linspace(0.0, 4.0, 9), True) == 4


class TestSolverMetadata:
    def test_kernel_run_takes_the_twin_quotient(self):
        kernel = vl.StepKernel([0.0, 0.25, 0.5, 1.0], np.full((3, 3), 0.5) + np.eye(3) / 4)
        g = vl.InitialCondition.from_cell_values([1.0, -0.5, 0.25, 0.0])
        traj = vl.solve_continuum(kernel, g, 64, np.linspace(0.0, 2.0, 5))
        assert traj.metadata["solver_path"] == "twin_quotient"
        assert traj.metadata["q"] == 3
        assert traj.metadata["n"] == 64

    def test_random_graph_run_takes_the_krylov_path(self):
        graph = vl.sample_w_random(vl.StepKernel.constant(0.5), 64, seed=3)
        assert len(row_equality_classes(graph.weights)) == 64
        u0 = np.linspace(-1.0, 1.0, 64)
        times = np.linspace(0.0, 2.0, 5)
        traj = vl.solve_finite(graph, u0, times)
        assert traj.metadata["solver_path"] == "krylov"
        assert traj.metadata["q"] == 64
        want = dense_eigh_states(graph, u0, times)
        assert np.abs(traj.states - want).max() <= 1e-12 * max(1.0, np.abs(want).max())


class TestPixelClassSolve:
    """solve_continuum solves on the pixel classes, never forming the n x n graph."""

    @settings(max_examples=80, deadline=None)
    @given(
        st.integers(0, 2**32 - 1),
        st.integers(1, 40),
        st.sampled_from([1, 2, 3, 7, 64, 255, 256, 333, 1000]),
        st.booleans(),
        st.sampled_from([2, 201]),
    )
    @example(seed=148, m=32, n=255, aligned=False, num_times=201)
    @example(seed=158, m=34, n=333, aligned=True, num_times=2)
    def test_equals_the_graph_solve_bit_for_bit(self, seed, m, n, aligned, num_times):
        r = np.random.default_rng(seed)
        kernel = signed_zero_step_kernel(r, m, aligned)
        g = vl.InitialCondition(
            np.concatenate([[0.0], np.unique(r.uniform(0.01, 0.99, 5)), [1.0]]),
            r.uniform(-1.0, 1.0, 6),
        )
        times = np.linspace(0.0, float(r.uniform(0.1, 5.0)), num_times)
        got = vl.solve_continuum(kernel, g, n, times)
        want = vl.solve_finite(vl.discretize_kernel(kernel, n), vl.average_initial(g, n), times)
        assert got.states.tobytes() == want.states.tobytes()
        assert got.metadata.pop("kernel") == kernel.spec()
        assert got.metadata.pop("initial") == g.spec()
        assert got.metadata == want.metadata

    @pytest.mark.parametrize("num_times", [2, 9])
    def test_twins_among_pixels_that_are_their_own_classes(self, num_times):
        # more kernel cells than pixels, so every pixel is its own pixel
        # class, but the discretised rows are all equal: q = 1
        kernel = vl.StepKernel(np.arange(9) / 8, np.full((8, 8), 0.5))
        g = vl.InitialCondition([0.0, 0.3, 0.55, 1.0], [1.0, -0.5, 0.25])
        times = np.linspace(0.0, 3.0, num_times)
        got = vl.solve_continuum(kernel, g, 4, times)
        want = vl.solve_finite(vl.discretize_kernel(kernel, 4), vl.average_initial(g, 4), times)
        assert got.states.tobytes() == want.states.tobytes()
        assert got.metadata.pop("kernel") == kernel.spec()
        assert got.metadata.pop("initial") == g.spec()
        assert got.metadata == want.metadata
        assert want.metadata == {"n": 4, "solver_path": "twin_quotient", "q": 1}

    def test_peak_memory_stays_a_few_trajectories(self):
        r = np.random.default_rng(5)
        kernel = signed_zero_step_kernel(r, 8, False)
        g = random_initial(r, n_cells=16)
        times = np.linspace(0.0, 10.0, 201)
        tracemalloc.start()
        try:
            traj = vl.solve_continuum(kernel, g, 4096, times)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert traj.metadata["solver_path"] == "twin_quotient"
        # an n x n float array alone would be 128 MiB, 20x the states
        assert peak <= 4 * traj.states.nbytes

    def test_errors_keep_their_order(self):
        g = vl.InitialCondition.constant(0.5)
        bad_grid = [1.0, 2.0]
        not_a_kernel = object()  # the count is read before the kernel
        with pytest.raises(vl.ValidationError, match="n >= 1"):
            vl.solve_continuum(not_a_kernel, g, 0, bad_grid)
        with pytest.raises(vl.SizeLimitError):
            vl.solve_continuum(not_a_kernel, g, vl.DEFAULT_N_MAX + 1, bad_grid)
        for n in (4, 64):  # every pixel its own class, then twin classes
            kernel = vl.StepKernel(np.arange(9) / 8, np.full((8, 8), 0.5))
            with pytest.raises(vl.ValidationError, match="start at 0"):
                vl.solve_continuum(kernel, g, n, bad_grid)


# start values with repeats, both zeros and a subnormal: cells of one class
# share some of them and differ in others, only in the sign of zero too
_START_PALETTE = [0.0, -0.0, 0.5, -0.25, 1.0, 5e-324]


class TestColumnSynthesis:
    """The twin-quotient path synthesises each distinct (class, start) column
    once; the states equal the per-cell synthesis bit for bit."""

    @staticmethod
    def _check(solve, want):
        """solve() equals want byte for byte, or raises where want leaves the
        float range."""
        if not np.all(np.isfinite(want)):
            with pytest.raises(vl.SolverConvergenceError):
                solve()
            return
        traj = solve()
        assert traj.metadata["solver_path"] == "twin_quotient"
        assert traj.states.tobytes() == want.tobytes()

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(0, 2**32 - 1),
        st.sampled_from(["palette", "negative", "scattered"]),
        st.sampled_from([2, 9]),
    )
    @example(seed=0, kind="negative", num_times=2)
    def test_graph_solve_equals_the_per_cell_synthesis(self, seed, kind, num_times):
        r = np.random.default_rng(seed)
        horizon = float(r.uniform(0.5, 5.0))
        if kind == "scattered":
            # twins of copied vertices, scattered by a permutation
            k = int(r.integers(1, 9))
            copies = r.integers(1, 5, k)
            copies[0] = max(copies[0], 2)
            graph = vl.WeightedGraph(copied_weights(_random_weights(r, k, False), copies))
            perm = r.permutation(graph.n)
            graph = vl.WeightedGraph(graph.weights[np.ix_(perm, perm)])
        else:
            graph = vl.discretize_kernel(
                signed_zero_step_kernel(r, int(r.integers(1, 6)), bool(r.integers(2))),
                int(r.choice([16, 64, 100, 257])),
            )
        u0 = r.choice(_START_PALETTE, graph.n)
        if kind == "negative":
            # cells that only repel themselves, on dyadic boundaries that n
            # aligns with: the classes are the cells, their means stay put,
            # and exp(-d t) overflows over long horizons, where only starts
            # constant on each class stay finite
            m = int(r.integers(1, 6))
            cuts = np.sort(r.choice(np.arange(1, 8), m - 1, replace=False)) / 8
            kernel = vl.StepKernel(
                np.concatenate([[0.0], cuts, [1.0]]), np.diag(-r.uniform(0.1, 1.0, m))
            )
            graph = vl.discretize_kernel(kernel, 8 * 2 ** int(r.integers(1, 6)))
            horizon = float(r.choice([50.0, 1e3, 1e5]))
            labels, _ = graphs.byte_classes(graph.weights)
            u0 = r.choice(_START_PALETTE, labels.max() + 1)[labels]
            if r.integers(2):
                u0[r.integers(graph.n)] = 0.125
        times = np.linspace(0.0, horizon, num_times)
        want = per_cell_graph_states(graph, u0, times)
        self._check(lambda: vl.solve_finite(graph, u0, times), want)

    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(0, 2**32 - 1),
        st.integers(1, 12),
        st.sampled_from([7, 64, 255, 2048]),
        st.booleans(),
    )
    def test_continuum_solve_equals_the_per_cell_synthesis(self, seed, m, n, negative):
        r = np.random.default_rng(seed)
        kernel = signed_zero_step_kernel(r, m, bool(r.integers(2)))
        if negative:
            kernel = vl.StepKernel(kernel.partition.boundaries, -np.abs(kernel.values))
        bounds = np.concatenate([[0.0], np.unique(r.uniform(0.01, 0.99, r.integers(7))), [1.0]])
        g = vl.InitialCondition(bounds, r.choice(_START_PALETTE, bounds.size - 1))
        times = np.linspace(0.0, float(r.choice([2.0, 50.0, 1e3])), 9)
        graph = vl.discretize_kernel(kernel, n)
        assume(graphs.byte_classes(graph.weights)[1].size < n)
        want = per_cell_graph_states(graph, vl.average_initial(g, n), times)
        self._check(lambda: vl.solve_continuum(kernel, g, n, times), want)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 8), st.booleans())
    def test_exact_solve_equals_the_per_cell_synthesis(self, seed, m, negative):
        r = np.random.default_rng(seed)
        kernel = signed_zero_step_kernel(r, m, False)
        if negative:
            kernel = vl.StepKernel(kernel.partition.boundaries, -np.abs(kernel.values))
        bounds = np.concatenate([[0.0], np.unique(r.uniform(0.01, 0.99, 6)), [1.0]])
        g = vl.InitialCondition(bounds, r.choice(_START_PALETTE, bounds.size - 1))
        times = np.linspace(0.0, float(r.choice([2.0, 50.0, 1e3])), 9)
        sizes = kernel.partition.measures
        part, (cells, g_cells) = common_refinement(kernel.partition, g.partition)
        want = per_cell_class_states(
            cells, part.measures, sizes, 1.0, kernel.values @ sizes, kernel.values,
            g.values[g_cells], times,
        )
        if not np.all(np.isfinite(want)):
            with pytest.raises(vl.SolverConvergenceError):
                vl.solve_exact(kernel, g, times)
            return
        got_part, values = vl.solve_exact(kernel, g, times)
        assert np.array_equal(got_part.boundaries, part.boundaries)
        assert values.tobytes() == want.tobytes()

    def test_step_kernel_trajectory_has_few_distinct_columns(self):
        # the benchmark's shape: 8 kernel cells, a 16-piece start, n = 2048
        r = np.random.default_rng(1)
        kernel = signed_zero_step_kernel(r, 8, False)
        g = random_initial(r, n_cells=16)
        traj = vl.solve_continuum(kernel, g, 2048, np.linspace(0.0, 10.0, 201))
        want = per_cell_graph_states(
            vl.discretize_kernel(kernel, 2048), vl.average_initial(g, 2048), traj.times
        )
        assert traj.states.tobytes() == want.tobytes()
        # runs of one (class, start) pair: at most 2m - 1 pixel classes, and
        # each start boundary adds at most two
        assert len(row_equality_classes(traj.states.T)) <= (2 * 8 - 1) + 2 * (16 - 1)


def _krylov_cap(graph, horizon):
    """The a-priori Krylov dimension from the Gershgorin interval of D: the
    smallest m < n whose Hochbruck-Lubich bound is within KRYLOV_TOL, else n."""
    gen = vl.laplacian(graph)
    centre = np.diag(gen)
    radius = np.abs(gen).sum(axis=1) - np.abs(centre)
    rho_tau = horizon * float((centre + radius).max() - (centre - radius).min()) / 4.0
    return next(
        (
            m for m in range(1, graph.n)
            if dynamics._lanczos_bound(m, rho_tau) <= dynamics.KRYLOV_TOL
        ),
        graph.n,
    )


def _check_krylov(graph, u0, times):
    """Solve a graph without twins on the grid and compare with the dense
    oracle to 1e-12 max(1, max|u|) at every grid time; check the mean and the
    Krylov metadata.  Returns the metadata, or None when the state leaves the
    float range, where the solver must refuse."""
    want = dense_eigh_states(graph, u0, times)
    if not np.all(np.isfinite(want)):
        with pytest.raises(vl.SolverConvergenceError):
            vl.solve_finite(graph, u0, times)
        return None
    traj = vl.solve_finite(graph, u0, times)
    scale = max(1.0, np.abs(want).max())
    assert np.abs(traj.states - want).max() <= 1e-12 * scale
    assert np.abs(traj.states.mean(axis=1) - u0.mean()).max() <= 1e-12 * scale
    meta = traj.metadata
    assert meta["q"] == graph.n
    assert meta["solver_path"] == "krylov"
    cap = _krylov_cap(graph, float(times[-1]))
    assert 0 <= meta["krylov_dim"] <= cap
    # the bound at a cap of n does not apply; that space is invariant
    assert meta["krylov_bound"] <= dynamics.KRYLOV_TOL if cap < graph.n else meta["krylov_bound"] == 0.0
    assert meta["krylov_stop"] in ("estimate", "cap", "breakdown")
    assert meta["krylov_estimate"] >= 0.0
    if meta["krylov_stop"] == "estimate":
        assert meta["krylov_estimate"] <= dynamics.KRYLOV_TOL
    if meta["krylov_stop"] == "cap":
        assert meta["krylov_dim"] == cap
    return meta


def _clustered_weights(r, n, bridged):
    """Weights of 2-4 random clusters: dense and noisy inside and weak between,
    or, when bridged, joined only by one edge of weight 1e-8 to 1e-2 from each
    cluster but the last to a later one."""
    k = min(int(r.integers(2, 5)), n)
    cuts = np.sort(r.choice(np.arange(1, n), k - 1, replace=False))
    label = np.searchsorted(cuts, np.arange(n), side="right")
    same = label[:, None] == label[None, :]
    w = np.where(same, _random_weights(r, n, True), 0.0)
    if bridged:
        for a in range(k - 1):
            i, j = r.choice(np.flatnonzero(label == a)), r.choice(np.flatnonzero(label > a))
            w[i, j] = w[j, i] = 10.0 ** r.uniform(-8.0, -2.0)
    else:
        w += np.where(same, 0.0, 0.01 * _random_weights(r, n, True))
    return w


class TestKrylovPath:
    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(0, 2**32 - 1),
        st.sampled_from([1, 2, 3, 64, 257, 512]),
        st.sampled_from(["signed", "nonneg", "sampled", "clustered", "bridged"]),
        st.floats(-3.0, 3.0),
        st.sampled_from([2, 51, 201]),
    )
    # long horizons whose slow modes are not yet in the Krylov space at m = 2,
    # where the a-posteriori estimate alone would stop with errors up to 6e-2
    @example(11, 512, "sampled", 2.199980025553309, 2)
    @example(104, 512, "bridged", 2.7335608300111742, 2)
    def test_grid_states_match_dense(self, seed, n, kind, log_t, num_times):
        r = np.random.default_rng(seed)
        if kind == "sampled":
            kernel = random_step_kernel(r, max_cells=4, nonneg=True)
            graph = vl.sample_w_random(kernel, n, seed)
            assume(len(row_equality_classes(graph.weights)) == n)
        elif kind in ("clustered", "bridged"):
            graph = vl.WeightedGraph(_clustered_weights(r, n, kind == "bridged"))
            assume(len(row_equality_classes(graph.weights)) == n)
        else:
            graph = vl.WeightedGraph(_random_weights(r, n, kind == "nonneg"))
        times = np.linspace(0.0, 10.0**log_t, num_times)
        _check_krylov(graph, r.uniform(-1.0, 1.0, n), times)

    @settings(max_examples=20, deadline=None)
    @given(
        st.integers(0, 2**32 - 1),
        st.sampled_from([64, 257, 512]),
        st.sampled_from([1e-2, 1e-3, 1e-4]),
        st.sampled_from([1.0, 10.0, 100.0, 1e3]),
        st.sampled_from([2, 51, 201]),
    )
    # Lanczos with one reorthogonalisation pass loses orthogonality here and
    # overflows (SolverConvergenceError); the second pass is needed
    @example(0, 512, 1e-2, 100.0, 2)
    def test_near_disconnected_two_block_graphons(self, seed, n, cross, horizon, num_times):
        # the slow mode between the blocks must be resolved, not only the fast
        # mixing inside them
        kernel = vl.StepKernel([0.0, 0.5, 1.0], [[0.6, cross], [cross, 0.6]])
        graph = vl.sample_w_random(kernel, n, seed)
        r = np.random.default_rng(seed)
        u0 = np.where(np.arange(n) < n // 2, 1.0, -1.0) + 0.1 * r.uniform(-1.0, 1.0, n)
        _check_krylov(graph, u0, np.linspace(0.0, horizon, num_times))

    @pytest.mark.parametrize(
        "graph, u0",
        [
            (vl.WeightedGraph(np.ones((256, 256)) - np.eye(256)), np.linspace(-1.0, 1.0, 256)),
            # no edges; distinct self-weights, which D cancels, keep rows apart
            (vl.WeightedGraph(np.diag(np.linspace(0.0, 1.0, 256))), np.cos(np.arange(256))),
            # two complete components and a start constant on each
            (
                vl.WeightedGraph(np.kron(np.eye(2), np.ones((128, 128)) - np.eye(128))),
                np.repeat([0.7, -0.2], 128),
            ),
        ],
        ids=["complete", "empty", "disconnected"],
    )
    @pytest.mark.parametrize("horizon", [1.0, 10.0])
    def test_invariant_start_breaks_down_at_step_one(self, graph, u0, horizon):
        meta = _check_krylov(graph, u0, np.array([0.0, horizon]))
        assert meta["krylov_dim"] == 1

    @pytest.mark.parametrize("weak", [1e-6, 1e-8])
    def test_weak_bridge_is_not_a_breakdown(self, weak):
        # one weak edge joins the two components: the first Lanczos residual
        # is tiny but not rounding, and stopping there would miss the bridge
        w = np.kron(np.eye(2), np.ones((128, 128)) - np.eye(128))
        w[0, 128] = w[128, 0] = weak
        u0 = np.repeat([0.7, -0.2], 128)
        meta = _check_krylov(vl.WeightedGraph(w), u0, np.array([0.0, 10.0]))
        assert meta["krylov_dim"] > 1

    @pytest.mark.parametrize("c", [0.25, 0.1, -3.7])
    def test_constant_start_stays_put(self, c):
        graph = vl.sample_w_random(vl.StepKernel.constant(0.5), 256, seed=1)
        meta = _check_krylov(graph, np.full(256, c), np.array([0.0, 10.0]))
        assert meta["krylov_dim"] <= 1

    @pytest.mark.parametrize("n, horizon", [(1, 1.0), (2, 1.0), (3, 1.0), (64, 1e3)])
    @pytest.mark.parametrize("num_times", [2, 51])
    def test_krylov_cap_reaches_n(self, n, horizon, num_times):
        # no dimension below n meets KRYLOV_TOL, so Lanczos may run to n
        r = np.random.default_rng(n)
        graph = vl.WeightedGraph(_random_weights(r, n, True))
        assert _krylov_cap(graph, horizon) == n
        meta = _check_krylov(graph, r.uniform(-1.0, 1.0, n), np.linspace(0.0, horizon, num_times))
        assert meta["krylov_bound"] == 0.0

    def test_random_graph_final_state_takes_the_krylov_path(self):
        graph = vl.sample_w_random(vl.StepKernel.constant(0.5), 512, seed=3)
        u0 = np.linspace(-1.0, 1.0, 512)
        meta = _check_krylov(graph, u0, np.array([0.0, 10.0]))
        assert meta["n"] == 512
        assert 1 < meta["krylov_dim"] <= 128

    def test_twin_free_grid_solve_pays_no_dense_eigendecomposition(self, monkeypatch):
        graph = vl.sample_w_random(vl.StepKernel.constant(0.5), 1024, seed=3)
        u0 = np.linspace(-1.0, 1.0, 1024)
        times = np.linspace(0.0, 10.0, 201)
        eigh, sizes = np.linalg.eigh, []

        def recording_eigh(a, *args, **kwargs):
            sizes.append(max(np.shape(a)))
            return eigh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", recording_eigh)
        tracemalloc.start()
        try:
            traj = vl.solve_finite(graph, u0, times)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sizes and max(sizes) <= traj.metadata.get("krylov_dim", 0)
        # the states and the basis at the a-priori cap; the 1024 x 1024
        # generator alone would be 8 MiB, 5x the states
        basis = _krylov_cap(graph, 10.0) * graph.n * 8
        assert peak <= 2 * traj.states.nbytes + basis


class TestClosedForm:
    def test_pointwise_formula(self):
        r = 1 / 3
        g = vl.InitialCondition.balanced_blocks(r)
        # inside the small block the decay rate is 1-2r, outside it is 1
        x_in, x_out, t = 0.1, 0.7, 2.0
        cf = BipartiteClosedForm(r, g)
        got_in = cf.evaluate(x_in, t)
        got_out = cf.evaluate(x_out, t)
        assert got_in == pytest.approx(0.5 * np.exp(-(1 - 2 * r) * t), rel=1e-12)
        assert got_out == pytest.approx(-0.5 * np.exp(-t), rel=1e-12)

    def test_block_boundary_belongs_to_left_block(self):
        r, t = 0.25, 1.0
        g = vl.InitialCondition.balanced_blocks(r)
        # g(r) is the left block's -0.5, which decays at the left rate 1-2r
        got = BipartiteClosedForm(r, g).evaluate(r, t)
        assert got == pytest.approx(-0.5 * np.exp(-(1 - 2 * r) * t), rel=1e-12)

    def test_closed_form_object_matches_pointwise(self):
        r = 0.25
        g = _blocks(r, 1.0, 0.25)
        cf = BipartiteClosedForm(r, g)
        for t in (0.0, 0.7, 3.0):
            vals = cf.values_at(t)
            mids = cf.partition.midpoints()
            want = [cf.evaluate(x, t) for x in mids]
            assert np.abs(vals - np.array(want)).max() <= 1e-14

    def test_solver_agrees_on_aligned_grid(self):
        r = 1 / 3
        g = vl.InitialCondition.balanced_blocks(r)
        times = np.linspace(0, 10, 21)
        traj = vl.solve_continuum(vl.StepKernel.bipartite(r), g, 300, times)
        cf = BipartiteClosedForm(r, g)
        part = Partition.uniform(300)
        worst = max(
            vl.step_l2_distance(part, traj.states[i], cf.partition, cf.values_at(t))
            for i, t in enumerate(times)
        )
        assert worst <= 1e-12

    def test_requires_balanced_blocks(self):
        g = vl.InitialCondition.constant(0.4)
        with pytest.raises(vl.ValidationError):
            BipartiteClosedForm(1 / 3, g)


def _aligned_bounds(r, n, cells, min_width=1):
    """Boundaries k/n of `cells` cells, each at least `min_width`/n wide."""
    slack = n - cells * (min_width - 1)
    cuts = np.sort(r.choice(np.arange(1, slack), cells - 1, replace=False))
    ks = cuts + (min_width - 1) * np.arange(1, cells)
    return np.concatenate([[0], ks, [n]]) / n


def _exact_on_grid(part, values, n):
    """Exact cell values read on the uniform n-partition."""
    return values[:, part.cell_of(Partition.uniform(n).midpoints())]


class TestExactSolve:
    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(0, 2**32 - 1),
        st.sampled_from([1, 2, 8, 24, 64, 100, 128]),
        st.booleans(),
        st.floats(0.5, 12.0),
    )
    def test_aligned_discretisation_is_exact(self, seed, n, nonneg, horizon):
        # kernel and g boundaries on the grid: the finite solve at n is
        # the continuum solution, cell by cell
        r = np.random.default_rng(seed)
        m = int(r.integers(1, min(n, 6) + 1))
        kernel = vl.StepKernel(_aligned_bounds(r, n, m), _random_weights(r, m, nonneg))
        p = int(r.integers(1, min(n, 8) + 1))
        g = vl.InitialCondition(_aligned_bounds(r, n, p), r.uniform(-1.0, 1.0, p))
        times = np.linspace(0.0, horizon, 9)
        part, values = vl.solve_exact(kernel, g, times)
        traj = vl.solve_continuum(kernel, g, n, times)
        degrees = kernel.values @ kernel.partition.measures
        spectrum_top = max(
            np.linalg.eigvalsh(vl.laplacian(vl.discretize_kernel(kernel, n))).max(),
            (-degrees).max(),
        )
        growth = np.exp(horizon * max(0.0, spectrum_top))
        tol = 1e-12 * max(1.0, np.abs(values).max()) * growth
        assert np.abs(traj.states - _exact_on_grid(part, values, n)).max() <= tol

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(2, 4))
    def test_direct_sum_blocks_solve_alone(self, seed, k):
        # on block i of a direct sum, u(e_i + a_i y, t) solves the part
        # kernel scaled by a_i from the rescaled restriction of g
        r = np.random.default_rng(seed)
        weights = r.uniform(0.2, 1.0, k)
        weights /= weights.sum()
        parts = [
            random_step_kernel(r, max_cells=4, nonneg=bool(r.integers(2))) for _ in range(k)
        ]
        kernel = vl.StepKernel.direct_sum(list(zip(weights, parts)))
        edges = np.concatenate([[0.0], np.cumsum(weights)])
        edges[-1] = 1.0
        local = [random_initial(r, n_cells=int(r.integers(1, 5))) for _ in range(k)]
        bounds = [
            e + a * h.partition.boundaries[:-1] for e, a, h in zip(edges, weights, local)
        ]
        g = vl.InitialCondition(
            np.concatenate(bounds + [[1.0]]), np.concatenate([h.values for h in local])
        )
        times = np.linspace(0.0, 3.0, 7)
        part, values = vl.solve_exact(kernel, g, times)
        scale = max(1.0, np.abs(values).max())
        for e, a, step, h in zip(edges, weights, parts, local):
            block_part, block_values = vl.solve_exact(step.scaled(a), h, times)
            x = np.minimum(e + a * block_part.midpoints(), 1.0)
            got = values[:, part.cell_of(x)]
            assert np.abs(got - block_values).max() <= 1e-12 * scale

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 4))
    @example(seed=452, k=3)  # eigh alone misses its component means by 1.0e-12
    def test_graphon_limit_is_the_predicted_consensus(self, seed, k):
        # components relax to their mean of g, kept exactly by the solver;
        # all-zero ones stay frozen
        r = np.random.default_rng(seed)
        weights = r.uniform(0.2, 1.0, k)
        weights /= weights.sum()
        parts = [
            random_step_kernel(r, max_cells=4, nonneg=True, low=0.05)
            if r.integers(3) else vl.StepKernel.constant(0.0)
            for _ in range(k)
        ]
        kernel = vl.StepKernel.direct_sum(list(zip(weights, parts)))
        g = random_initial(r, n_cells=int(r.integers(1, 9)))
        horizon = 50.0 * vl.default_horizon(kernel)[0]
        part, values = vl.solve_exact(kernel, g, [0.0, horizon])
        limit = vl.predict_limit(kernel, g)
        dist = vl.step_l2_distance(part, values[-1], limit.partition, limit.values)
        assert dist <= 1e-15 * max(1.0, np.max(np.abs(g.values)))

    @settings(max_examples=60, deadline=None)
    @given(st.floats(0.01, 0.49), st.floats(-1.0, 1.0), st.floats(-1.0, 1.0))
    def test_two_block_kernel_matches_closed_form(self, r, left, right):
        g = _blocks(r, left, right)
        times = np.linspace(0.0, 5.0, 11)
        part, values = vl.solve_exact(vl.StepKernel.bipartite(r), g, times)
        cf = BipartiteClosedForm(r, g)
        assert part == cf.partition
        for k, t in enumerate(times):
            assert np.abs(values[k] - cf.values_at(t)).max() <= 1e-15
        assert np.abs(values @ part.measures - g.mean()).max() <= 1e-15

    def test_mean_is_conserved_on_random_kernels(self, rng):
        for _ in range(20):
            kernel = random_step_kernel(rng)
            g = random_initial(rng, n_cells=int(rng.integers(1, 9)))
            part, values = vl.solve_exact(kernel, g, np.linspace(0.0, 4.0, 9))
            scale = max(1.0, np.abs(values).max())
            assert np.abs(values @ part.measures - g.mean()).max() <= 1e-14 * scale
            assert np.array_equal(values[0], g.evaluate(part.midpoints()))

    def test_overflow_is_a_solver_error(self):
        # W = -1: deviations from the mean grow like e^t
        g = vl.InitialCondition.balanced_blocks(0.5)
        with pytest.raises(vl.SolverConvergenceError):
            vl.solve_exact(vl.StepKernel.constant(-1.0), g, np.linspace(0.0, 1e3, 11))

    def test_time_grid_is_validated(self):
        g = vl.InitialCondition.constant(0.5)
        with pytest.raises(vl.ValidationError):
            vl.solve_exact(vl.StepKernel.constant(1.0), g, [1.0, 2.0])

    @pytest.mark.filterwarnings("error")
    def test_class_constant_start_stays_put_where_decay_overflows(self):
        # W = -1: exp(-d t) = e^1000 overflows, but every deviation is 0
        kernel = vl.StepKernel.constant(-1.0)
        g = vl.InitialCondition.constant(0.3)
        _, values = vl.solve_exact(kernel, g, [0.0, 1e3])
        assert np.all(values == 0.3)
        traj = vl.solve_continuum(kernel, g, 8, [0.0, 1e3])
        assert traj.metadata["solver_path"] == "twin_quotient"
        # the class mean itself moves by rounding only
        assert traj.states.ravel() == pytest.approx(np.full(16, 0.3), rel=1e-12)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 30), st.integers(1, 6))
    def test_decay_keeps_the_bits_of_the_plain_product(self, seed, n, k):
        r = np.random.default_rng(seed)
        times = np.concatenate([[0.0], np.cumsum(r.uniform(0.1, 3.0, k))])
        rates = r.uniform(-2.0, 2.0, n)
        deviation = r.choice([0.0, -0.0, 1e-300, -0.5, 0.25], n) * r.uniform(0.5, 2.0, n)
        plain = np.exp(np.outer(times, -rates)) * deviation
        assert dynamics._decay(times, rates, deviation).tobytes() == plain.tobytes()

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 10), st.booleans())
    @example(seed=23800678, m=3, nonneg=False)  # gap 1.1e-5, eps * ||L||_2 = 1.1e-16
    def test_default_horizon_matches_the_n64_spectrum(self, seed, m, nonneg):
        # cells of at least two 1/64-cells put every -d_k in the n = 64
        # spectrum, so the dense probe sees the continuum spectrum
        r = np.random.default_rng(seed)
        kernel = vl.StepKernel(_aligned_bounds(r, 64, m, 2), _random_weights(r, m, nonneg))
        eigvals = np.linalg.eigvalsh(vl.laplacian(vl.discretize_kernel(kernel, 64)))
        decaying = eigvals[eigvals < -1e-12]
        horizon, source = vl.default_horizon(kernel)
        if eigvals[-1] > 1e-12 or decaying.size == 0:
            assert (horizon, source) == (20.0, "fallback")
        else:
            assert source == "spectral_gap"
            # eigvalsh places each eigenvalue only to within n * eps * ||L||_2
            # (n = 64), which decides the comparison when the gap is small
            gap = -decaying.max()
            resolution = 64 * np.finfo(float).eps * np.abs(eigvals).max()
            assert abs(10.0 / horizon - gap) <= max(1e-12 * gap, resolution)


def test_small_worlds_rescaling(rng):
    """Mixing toward uniform rewiring only adds a uniform e^{-pt} damping."""
    base = vl.StepKernel([0, 0.5, 1], [[1.0, 0.25], [0.25, 0.6]])
    g = vl.InitialCondition.balanced_blocks(0.5)
    for p in (0.1, 0.3):
        times = np.linspace(0, 3, 7)
        mixed = vl.solve_continuum(vl.StepKernel.ws_mix(base, p), g, 32, times)
        damped = vl.solve_continuum(base.scaled(1 - 2 * p), g, 32, times)
        gap = np.abs(
            mixed.states - np.exp(-p * times)[:, None] * damped.states
        ).max()
        assert gap <= 1e-7


class TestVolterraResidual:
    def test_zero_kernel_is_exact(self):
        k = vl.StepKernel.constant(0.0)
        g = vl.InitialCondition.from_cell_values([0.5, -0.5, 0.25, 0.0])
        traj = vl.solve_continuum(k, g, 8, np.linspace(0, 2, 5))
        assert vl.volterra_residual(k, traj) == 0.0

    def test_stationary_constant_profile(self):
        k = vl.StepKernel.constant(1.0)
        g = vl.InitialCondition.constant(0.37)
        traj = vl.solve_continuum(k, g, 8, np.linspace(0, 3, 7))
        assert vl.volterra_residual(k, traj) <= 1e-12

    def test_reference_configuration(self):
        k = vl.StepKernel.bipartite(1 / 3)
        g = vl.InitialCondition.balanced_blocks(1 / 3)
        traj = vl.solve_continuum(k, g, 64, np.linspace(0, 2, 200))
        assert vl.volterra_residual(k, traj) <= 1e-4

    def test_second_order_in_the_time_grid(self):
        k = vl.StepKernel.bipartite(1 / 3)
        g = vl.InitialCondition.balanced_blocks(1 / 3)
        coarse = vl.solve_continuum(k, g, 32, np.linspace(0, 2, 51))
        fine = vl.solve_continuum(k, g, 32, np.linspace(0, 2, 101))
        rc = vl.volterra_residual(k, coarse)
        rf = vl.volterra_residual(k, fine)
        assert rc / rf >= 3.0

    def test_agrees_with_naive_trapezoid_oracle(self):
        # an independent quadrature of the same identity also calls the
        # expm trajectory consistent (quadrature constants differ, so the
        # two values need not be ordered, only both small)
        k = vl.StepKernel.bipartite(1 / 3)
        g = vl.InitialCondition.balanced_blocks(1 / 3)
        traj = vl.solve_continuum(k, g, 16, np.linspace(0, 1, 401))
        beta = vl.discretize_kernel(k, 16).weights
        assert vl.volterra_residual(k, traj) <= 1e-6
        assert naive_volterra_residual(beta, traj.times, traj.states) <= 1e-6

    def test_flags_a_wrong_trajectory(self):
        # the identity is linear in u, so corrupt with extra time decay
        # rather than a global factor
        k = vl.StepKernel.bipartite(1 / 3)
        g = vl.InitialCondition.balanced_blocks(1 / 3)
        traj = vl.solve_continuum(k, g, 16, np.linspace(0, 2, 101))
        wrong = traj.states * np.exp(-0.5 * traj.times)[:, None]
        corrupted = vl.Trajectory(traj.times, wrong)
        assert vl.volterra_residual(k, corrupted) >= 1e-3
        beta = vl.discretize_kernel(k, 16).weights
        assert naive_volterra_residual(beta, corrupted.times, corrupted.states) >= 1e-3

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_class_weights_match_the_dense_discretisation(self, seed):
        # the residual reads d and h off the q x q class weights; against
        # the n x n matrix they differ by reordered sums, ~n eps each,
        # which _phi_b amplifies by up to 1 / z^2 on its closed-form
        # branch (|z| >= 1)
        rng = np.random.default_rng(seed)
        k = random_step_kernel(rng, max_cells=int(rng.integers(2, 12)))
        g = random_initial(rng, n_cells=int(rng.integers(1, 9)))
        n = int(rng.integers(1, 97))
        horizon = float(rng.uniform(0.1, 4.0))
        traj = vl.solve_continuum(k, g, n, np.linspace(0, horizon, int(rng.integers(2, 15))))
        beta = vl.discretize_kernel(k, n).weights
        got = vl.volterra_residual(k, traj)
        want = dense_volterra_residual(beta, traj.times, traj.states)
        if graphs.pixel_classes(k, n)[1].size == n:
            assert got == want  # the class weights are the n x n matrix
        d = beta.sum(axis=1) / n
        z = np.abs(d) * np.diff(traj.times).min()
        z = z[z >= 1.0]
        amplified = n + (1.0 / z.min() ** 2 if z.size else 0.0)
        growth = np.exp(max(0.0, -d.min()) * horizon) * max(1.0, np.abs(traj.states).max())
        assert abs(got - want) <= np.finfo(float).eps * (1 + horizon) * growth * amplified

    def test_phi_functions_match_a_decimal_oracle(self):
        # both signs: signed kernels have negative degrees; the closed form of
        # _phi_b cancels to about eps / z^2 relative below |z| = 1
        z = np.concatenate([np.logspace(-8.0, 0.0, 161), np.linspace(0.9, 1.1, 21), [1.01e-5]])
        z = np.concatenate([z, -z])
        with decimal.localcontext() as ctx:
            ctx.prec = 50
            for phi, exact in (
                (dynamics._phi_a, lambda x: (1 - (-x).exp()) / x),
                (dynamics._phi_b, lambda x: (1 - (-x).exp() * (1 + x)) / (x * x)),
            ):
                for zi, got in zip(z.tolist(), phi(z).tolist()):
                    want = exact(decimal.Decimal(zi))
                    assert abs((decimal.Decimal(got) - want) / want) <= 1e-15, (phi, zi)

    def test_no_n_by_n_matrix_at_n_2048(self):
        rng = np.random.default_rng(5)
        k = random_step_kernel(rng, max_cells=8, nonneg=True)
        g = random_initial(rng, n_cells=6)
        traj = vl.solve_continuum(k, g, 2048, np.linspace(0, 10, 201))
        tracemalloc.start()
        try:
            vl.volterra_residual(k, traj)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the 2048 x 2048 discretisation alone would be 32 MiB, 10x the states
        assert peak < 2 * traj.states.nbytes


class TestConsensusOps:
    def test_diameter_and_mean(self):
        v = np.array([0.2, -0.4, 0.1])
        assert vl.consensus_diameter(v) == pytest.approx(0.6)

    def test_exceptional_measure_hand_case(self):
        # dropping the single outlier leaves a spread within eps
        v = np.array([0.0, 0.01, 0.02, 0.9])
        assert vl.exceptional_measure(v, 0.05) == 0.25
        assert vl.exceptional_measure(v, 2.0) == 0.0

    def test_detect_consensus_earliest_settled_time(self):
        times = np.array([0.0, 1.0, 2.0, 3.0])
        states = np.array([[0, 1.0], [0, 0.5], [0, 0.04], [0, 0.01]])
        traj = vl.Trajectory(times, states)
        assert vl.detect_consensus(traj, 0.06) == 2.0
        assert vl.detect_consensus(traj, 0.005) is None

    def test_detect_consensus_requires_staying_settled(self):
        times = np.array([0.0, 1.0, 2.0, 3.0])
        states = np.array([[0, 1.0], [0, 0.02], [0, 0.03], [0, 0.07]])
        traj = vl.Trajectory(times, states)
        assert vl.detect_consensus(traj, 0.05) is None

    @pytest.mark.parametrize("eps", [np.nan, 0.0, -1e-3, np.inf, True, np.True_, "0.1"])
    def test_eps_must_be_positive(self, eps):
        traj = vl.Trajectory([0.0, 1.0], [[0.0, 1.0], [0.5, 0.5]])
        with pytest.raises(vl.ValidationError, match="eps"):
            vl.exceptional_measure(traj.states[-1], eps)
        with pytest.raises(vl.ValidationError, match="eps"):
            vl.detect_consensus(traj, eps)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.floats(-1, 1, allow_nan=False, width=32), min_size=1, max_size=40),
    st.floats(0.01, 2.0, allow_nan=False),
)
def test_exceptional_measure_matches_brute_force(values, eps):
    got = vl.exceptional_measure(np.array(values, dtype=float), eps)
    want = brute_exceptional(values, eps)
    assert got == pytest.approx(want, abs=1e-12)


def test_step_exceedance_measure_hand_case():
    a = Partition([0.0, 0.5, 1.0])
    b = Partition([0.0, 0.25, 1.0])
    f = np.array([1.0, 0.0])
    h = np.array([0.0, 0.2])
    # |f-h| is 1 on (0,0.25], 0.8 on (0.25,0.5], 0.2 on (0.5,1]
    assert vl.step_exceedance_measure(a, f, b, h, 0.9) == pytest.approx(0.25)
    assert vl.step_exceedance_measure(a, f, b, h, 0.5) == pytest.approx(0.5)
    assert vl.step_exceedance_measure(a, f, b, h, 0.1) == pytest.approx(1.0)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 9), st.integers(1, 9), st.booleans())
def test_step_exceedance_measure_matches_fraction_oracle(seed, n_a, n_b, uniform_b):
    r = np.random.default_rng(seed)
    bounds_a = Partition.uniform(n_a).boundaries
    if uniform_b:
        bounds_b = Partition.uniform(n_b).boundaries
    else:
        cuts = np.unique(r.uniform(0.05, 0.95, n_b - 1))
        bounds_b = np.concatenate([[0.0], cuts, [1.0]])
    f = r.uniform(-1.0, 1.0, n_a)
    h = r.uniform(-1.0, 1.0, bounds_b.size - 1)
    threshold = float(r.uniform(0.0, 1.5))
    got = vl.step_exceedance_measure(bounds_a, f, bounds_b, h, threshold)
    want = brute_step_exceedance(bounds_a, f, bounds_b, h, threshold)
    assert got == pytest.approx(want, abs=1e-12)


def written_csv(traj) -> str:
    """The text of the trajectory CSV that `write_trajectory` writes."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "trajectory.csv"
        vl.write_trajectory(traj, path)
        return path.read_bytes().decode("ascii")


def read_back(text: str):
    """`read_trajectory` of a file holding this text."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "trajectory.csv"
        path.write_text(text)
        return vl.read_trajectory(path)


class TestTrajectoryIO:
    def test_csv_text_matches_csv_writer(self):
        header = ["n", "value", "flag"]
        rows = [
            (1, 0.1, 0),
            (-7, -2.5e-17, 1),
            (10**20, 1e300, -0.0),
            (3, -1.2345678901234567, 6.02e23),
        ]
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
        assert csv_text(header, rows) == buf.getvalue()
        assert csv_text(header, iter(rows)) == buf.getvalue()

    def test_csv_is_deterministic(self):
        g = vl.InitialCondition.balanced_blocks(0.25)
        times = np.linspace(0, 2, 5)
        a = vl.solve_continuum(vl.StepKernel.bipartite(0.25), g, 12, times)
        b = vl.solve_continuum(vl.StepKernel.bipartite(0.25), g, 12, times)
        assert written_csv(a) == written_csv(b)

    def test_round_trip_preserves_floats(self, tmp_path):
        g = vl.InitialCondition.balanced_blocks(1 / 3)
        traj = vl.solve_continuum(
            vl.StepKernel.bipartite(1 / 3), g, 9, np.linspace(0, 1.3, 4)
        )
        csv_path = tmp_path / "traj.csv"
        vl.write_trajectory(traj, csv_path)
        back = vl.read_trajectory(csv_path)
        assert np.array_equal(back.times, traj.times)
        assert np.array_equal(back.states, traj.states)

    @settings(max_examples=80, deadline=None)
    @given(
        st.integers(0, 2**32 - 1),
        st.integers(1, 40),
        st.integers(1, 8),
        st.sampled_from(["twin", "twin_free", "palette", "runs"]),
    )
    def test_csv_text_matches_row_by_row_oracle(self, seed, n, num_times, kind):
        r = np.random.default_rng(seed)
        times = np.concatenate([[0.0], np.cumsum(r.uniform(1e-3, 5.0, num_times - 1))])
        # repeated columns, columns that differ only in the sign of a zero,
        # and floats that print with an exponent
        special = [0.0, -0.0, 1e-300, -1e-300, 1e22, -1e22, 5e-324, 1e16, 0.1]
        if kind == "twin":
            kernel = random_step_kernel(r, max_cells=4)
            g = random_initial(r, n_cells=int(r.integers(1, 5)))
            states = vl.solve_continuum(kernel, g, n, times).states
        elif kind == "twin_free":
            states = r.uniform(-1.0, 1.0, (num_times, n))
        elif kind == "palette":
            palette = r.choice(special, (num_times, 3))
            palette[:, 2] = np.where(palette[:, 0] == 0.0, -palette[:, 0], palette[:, 0])
            states = palette[:, r.integers(0, 3, n)]
        else:
            # long runs of adjacent equal columns over up to 2048 cells,
            # drawn from a few columns, so equal runs recur apart; a column
            # of zeros of the other sign and one with NaN among them
            pool = np.stack(
                [
                    r.choice(special + [np.nan], num_times),
                    r.uniform(-1.0, 1.0, num_times),
                    r.choice([0.0, -0.0], num_times),
                ],
                axis=1,
            )
            pool = np.concatenate([pool, -pool[:, 2:]], axis=1)
            n = int(r.integers(1, 2049))
            cuts = np.unique(r.integers(1, n, int(r.integers(0, 12)))) if n > 1 else []
            runs = np.diff(np.concatenate([[0], cuts, [n]]))
            states = pool[:, np.repeat(r.integers(0, pool.shape[1], runs.size), runs)]
        traj = vl.Trajectory(times, states)
        text = written_csv(traj)
        assert text == row_by_row_trajectory_csv(times, traj.states)
        # numpy's parser reads every field as float() does, bit for bit
        fields = np.array([list(map(float, line.split(","))) for line in text.splitlines()[1:]])
        back = read_back(text)
        assert back.times.tobytes() == fields[:, 0].tobytes()
        assert back.states.tobytes() == fields[:, 1:].tobytes()

    def test_write_and_read_peak_memory_on_the_benchmark_trajectory(self, tmp_path, monkeypatch):
        # the benchmark's seed-1 simulate config: 201 x 2048 states, an 8 MB file
        monkeypatch.syspath_prepend(str(PERFBENCH))
        workloads = importlib.import_module("workloads")
        config = workloads.simulate_step_kernel(1).configs["simulate"]
        kernel = vl.make_kernel(config["kernel"])
        times, _, _ = dynamics.resolve_time_grid(kernel, config["horizon"], config["num_times"])
        traj = vl.solve_continuum(kernel, vl.make_initial(config["initial"]), config["n"], times)
        assert traj.states.shape == (201, 2048)
        path = tmp_path / "trajectory.csv"
        tracemalloc.start()
        try:
            vl.write_trajectory(traj, path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # rows are streamed: no copy of the whole text is ever alive
        assert peak < path.stat().st_size
        tracemalloc.start()
        try:
            back = vl.read_trajectory(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert back.states.tobytes() == traj.states.tobytes()
        # numpy's one parsed array and the trajectory's copy; the text lives
        # one line at a time and no Python float per value is made
        assert peak < 3 * traj.states.nbytes

    @pytest.mark.parametrize(
        "text, message",
        [
            ("", "must start with t"),
            ("x,cell_0\n0.0,1.0\n", "must start with t"),
            ("t\n0.0\n", "must start with t"),
            ("t,cell_0\n0.0,1.0\n1.0,x\n2.0\n", "malformed.*'x'"),
            ("t,cell_0\n0.0,1.0\n1.0\n", "malformed"),
            # the first bad row is reported, whichever kind it is
            ("t,cell_0\n0.0,1.0\n1.0\n2.0,x\n", "malformed.*number of columns changed"),
            # float() accepts digit separators; numpy's parser does not
            ("t,cell_0\n0.0,1_0\n", "malformed.*'1_0'"),
            # the file's own line (header = line 1, blank lines counted) and
            # no numpy row number or `usecols` hint
            (
                "t,cell_0\n0.0,1.0\n1.0,x\n",
                "^malformed trajectory CSV at line 3: could not convert string 'x' "
                "to float64 in column 2$",
            ),
            (
                "t,cell_0\n0.0,1.0\n\n\n1.0\n",
                "^malformed trajectory CSV at line 5: the number of columns changed "
                "from 2 to 1$",
            ),
            ("t,cell_0\n", "disagree with header width"),
            ("t,cell_0\n\n\n", "disagree with header width"),
            ("t,cell_0\n0.0,1.0,2.0\n1.0,1.0,2.0\n", "disagree with header width"),
            ("t,cell_0\n1.0,1.0\n", "start at 0"),
        ],
    )
    def test_read_rejects_malformed_files(self, tmp_path, text, message):
        path = tmp_path / "trajectory.csv"
        path.write_text(text)
        # a refusal is the error alone: no parser warning, such as numpy's
        # "input contained no data" for a header without rows, comes first
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(vl.ValidationError, match=message):
                vl.read_trajectory(path)

    def test_read_skips_blank_lines(self, tmp_path):
        path = tmp_path / "trajectory.csv"
        path.write_text("t,cell_0,cell_1\n\n0.0,1.0,-0.0\n\n0.5,0.25,1e-300\n")
        traj = vl.read_trajectory(path)
        assert traj.times.tolist() == [0.0, 0.5]
        assert traj.states.tobytes() == np.array([[1.0, -0.0], [0.25, 1e-300]]).tobytes()

    def test_csv_text_keeps_the_sign_of_zero_columns(self):
        traj = vl.Trajectory([0.0], [[0.0, -0.0, 0.0, -0.0]])
        assert written_csv(traj) == (
            "t,cell_0,cell_1,cell_2,cell_3\n0.0,0.0,-0.0,0.0,-0.0\n"
        )

    def test_header_names_cells(self):
        g = vl.InitialCondition.constant(0.0)
        traj = vl.solve_continuum(vl.StepKernel.constant(0.0), g, 3, np.array([0.0, 1.0]))
        header = written_csv(traj).splitlines()[0]
        assert header == "t,cell_0,cell_1,cell_2"
