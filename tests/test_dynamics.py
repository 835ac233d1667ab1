import csv
import io

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import voterlim as vl
from voterlim import dynamics, graphs
from voterlim.dynamics import csv_text
from voterlim.kernels import Partition

from _oracles import (
    brute_exceptional,
    brute_step_exceedance,
    dense_eigh_states,
    frac_step_integral,
    naive_volterra_residual,
    rk4_states,
    row_by_row_trajectory_csv,
    row_equality_classes,
    taylor_expm,
)
from conftest import random_initial, random_step_kernel


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
        assert g.inf_norm() == 0.5
        assert g.has_balanced_blocks(1 / 3)
        assert not g.has_balanced_blocks(0.25)

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
            {"type": "balanced_blocks", "r": 0.25, "left_amp": 1.0},
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
    t, source = vl.default_horizon(vl.ConstantKernel(1.0))
    assert source == "spectral_gap"
    assert t == pytest.approx(10.0, rel=1e-6)
    t, source = vl.default_horizon(vl.ConstantKernel(0.0))
    assert source == "fallback"
    assert t == 20.0
    t, source = vl.default_horizon(None)
    assert source == "fallback"


class TestSolveFinite:
    def test_size_guard(self, monkeypatch):
        g = vl.discretize_kernel(vl.ConstantKernel(1.0), 5)
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
        g = vl.discretize_kernel(vl.BipartiteKernel(1 / 3), 12)
        D = vl.laplacian(g)
        u0 = rng.uniform(-1, 1, 12)
        t = 1.7
        traj = vl.solve_finite(g, u0, np.array([0.0, t]))
        want = taylor_expm(D, t) @ u0
        assert np.abs(traj.states[-1] - want).max() <= 1e-12

    def test_expm_and_rk_agree(self, rng):
        for k in (vl.BipartiteKernel(0.25), random_step_kernel(rng)):
            g = vl.discretize_kernel(k, 24)
            u0 = rng.uniform(-1, 1, 24)
            times = np.linspace(0, 4, 9)
            a = vl.solve_finite(g, u0, times)
            b = rk4_states(vl.laplacian(g), u0, times, substeps=64)
            assert np.abs(a.states - b).max() <= 1e-7

    def test_time_grid_validation(self):
        g = vl.discretize_kernel(vl.ConstantKernel(1.0), 4)
        with pytest.raises(vl.ValidationError):
            vl.solve_finite(g, np.zeros(4), np.array([1.0, 2.0]))
        with pytest.raises(vl.ValidationError):
            vl.solve_finite(g, np.zeros(4), np.array([0.0, 2.0, 1.0]))

    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_non_finite_times(self, bad):
        g = vl.discretize_kernel(vl.ConstantKernel(1.0), 4)
        with pytest.raises(vl.ValidationError, match="finite"):
            vl.solve_finite(g, np.zeros(4), np.array([0.0, bad]))


def _classes(graph):
    labels, heads = graphs.twin_classes(graph)
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
    path = "dense_eigh" if q == graph.n else "twin_quotient"
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
        graph = vl.blow_up(base, r.integers(1, 5, k))
        u0 = r.uniform(-1.0, 1.0, graph.n)
        q = _check_against_dense(graph, u0, np.linspace(0.0, 3.0, 7), nonneg)
        assert q == k

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(2, 24))
    def test_false_twins_in_simple_graphs_match_dense(self, seed, k):
        r = np.random.default_rng(seed)
        sample = vl.sample_w_random(vl.ConstantKernel(0.5), k, seed)
        graph = vl.blow_up(sample, r.integers(1, 4, k))
        assert graph.is_simple()
        u0 = r.uniform(-1.0, 1.0, graph.n)
        _check_against_dense(graph, u0, np.linspace(0.0, 3.0, 7), True)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 40))
    def test_twin_free_graphs_are_bit_identical_to_dense(self, seed, n):
        r = np.random.default_rng(seed)
        graph = vl.WeightedGraph(_random_weights(r, n, False))
        assert len(row_equality_classes(graph.weights)) == n
        u0 = r.uniform(-1.0, 1.0, n)
        times = np.linspace(0.0, 2.0, 5)
        traj = vl.solve_finite(graph, u0, times)
        assert traj.metadata["solver_path"] == "dense_eigh"
        assert np.array_equal(traj.states, dense_eigh_states(graph, u0, times))

    def test_large_random_graphs_with_and_without_twins(self):
        # a W-random graph has no twins; copying three of its vertices adds
        # three classes with more than one member
        sample = vl.sample_w_random(vl.ConstantKernel(0.5), 300, seed=7)
        copies = np.ones(300, dtype=int)
        copies[[3, 150, 299]] = [2, 3, 2]
        for graph, q in ((sample, 300), (vl.blow_up(sample, copies), 300)):
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

    def test_random_graph_run_takes_the_dense_path(self):
        graph = vl.sample_w_random(vl.ConstantKernel(0.5), 64, seed=3)
        assert len(row_equality_classes(graph.weights)) == 64
        u0 = np.linspace(-1.0, 1.0, 64)
        traj = vl.solve_finite(graph, u0, np.linspace(0.0, 2.0, 5))
        assert traj.metadata["solver_path"] == "dense_eigh"
        assert traj.metadata["q"] == 64


def _check_krylov(graph, u0, horizon, nonneg):
    """Solve on [0, T] and compare with the dense oracle as `_check_against_dense`
    does; check the mean and the path metadata.  Returns the metadata, or None
    when the state leaves the float range, where the solver must refuse."""
    times = np.array([0.0, horizon])
    want = dense_eigh_states(graph, u0, times)
    if not np.all(np.isfinite(want)):
        with pytest.raises(vl.SolverConvergenceError):
            vl.solve_finite(graph, u0, times)
        return None
    traj = vl.solve_finite(graph, u0, times)
    scale = np.abs(u0).max() if nonneg else np.abs(want).max()
    assert np.abs(traj.states - want).max() <= 1e-12 * scale
    assert abs(traj.states[-1].mean() - u0.mean()) <= 1e-12 * scale
    meta = traj.metadata
    assert meta["q"] == graph.n
    if meta["solver_path"] == "krylov":
        assert 0 <= meta["krylov_dim"] <= graph.n // 4
        assert meta["krylov_bound"] <= dynamics.KRYLOV_TOL
    else:
        assert meta["solver_path"] == "dense_eigh"
        assert "krylov_dim" not in meta
    return meta


class TestKrylovPath:
    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(0, 2**32 - 1),
        st.sampled_from([1, 2, 3, 64, 257, 512]),
        st.sampled_from(["signed", "nonneg", "sampled"]),
        st.floats(-3.0, 3.0),
    )
    def test_final_states_match_dense(self, seed, n, kind, log_t):
        r = np.random.default_rng(seed)
        if kind == "sampled":
            kernel = random_step_kernel(r, max_cells=4, nonneg=True)
            graph = vl.sample_w_random(kernel, n, seed)
            assume(len(row_equality_classes(graph.weights)) == n)
        else:
            graph = vl.WeightedGraph(_random_weights(r, n, kind == "nonneg"))
        horizon = 10.0**log_t
        meta = _check_krylov(graph, r.uniform(-1.0, 1.0, n), horizon, kind != "signed")
        if n >= 257 and horizon <= 10.0:
            # weights in [-1, 1] keep the Gershgorin interval within [-2, 2], so
            # rho tau <= T and the planned dimension stays below n / 4
            assert meta["solver_path"] == "krylov"

    @settings(max_examples=20, deadline=None)
    @given(
        st.integers(0, 2**32 - 1),
        st.sampled_from([64, 257, 512]),
        st.sampled_from([1e-2, 1e-3, 1e-4]),
        st.sampled_from([1.0, 10.0, 100.0, 1e3]),
    )
    def test_near_disconnected_two_block_graphons(self, seed, n, cross, horizon):
        # the slow mode between the blocks must be resolved, not only the fast
        # mixing inside them
        kernel = vl.StepKernel([0.0, 0.5, 1.0], [[0.6, cross], [cross, 0.6]])
        graph = vl.sample_w_random(kernel, n, seed)
        r = np.random.default_rng(seed)
        u0 = np.where(np.arange(n) < n // 2, 1.0, -1.0) + 0.1 * r.uniform(-1.0, 1.0, n)
        _check_krylov(graph, u0, horizon, True)

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
        meta = _check_krylov(graph, u0, horizon, True)
        assert meta["solver_path"] == "krylov"
        assert meta["krylov_dim"] == 1

    @pytest.mark.parametrize("weak", [1e-6, 1e-8])
    def test_weak_bridge_is_not_a_breakdown(self, weak):
        # one weak edge joins the two components: the first Lanczos residual
        # is tiny but not rounding, and stopping there would miss the bridge
        w = np.kron(np.eye(2), np.ones((128, 128)) - np.eye(128))
        w[0, 128] = w[128, 0] = weak
        u0 = np.repeat([0.7, -0.2], 128)
        meta = _check_krylov(vl.WeightedGraph(w), u0, 10.0, True)
        assert meta["solver_path"] == "krylov"
        assert meta["krylov_dim"] > 1

    @pytest.mark.parametrize("c", [0.25, 0.1, -3.7])
    def test_constant_start_stays_put(self, c):
        graph = vl.sample_w_random(vl.ConstantKernel(0.5), 256, seed=1)
        meta = _check_krylov(graph, np.full(256, c), 10.0, True)
        assert meta["solver_path"] == "krylov"
        assert meta["krylov_dim"] <= 1

    @pytest.mark.parametrize("n, horizon", [(1, 1.0), (2, 1.0), (3, 1.0), (64, 1e3)])
    def test_large_krylov_dimension_takes_the_dense_path(self, n, horizon):
        r = np.random.default_rng(n)
        graph = vl.WeightedGraph(_random_weights(r, n, True))
        u0 = r.uniform(-1.0, 1.0, n)
        times = np.array([0.0, horizon])
        traj = vl.solve_finite(graph, u0, times)
        assert traj.metadata["solver_path"] == "dense_eigh"
        assert np.array_equal(traj.states, dense_eigh_states(graph, u0, times))

    def test_random_graph_final_state_takes_the_krylov_path(self):
        graph = vl.sample_w_random(vl.ConstantKernel(0.5), 512, seed=3)
        u0 = np.linspace(-1.0, 1.0, 512)
        meta = _check_krylov(graph, u0, 10.0, True)
        assert meta["solver_path"] == "krylov"
        assert meta["n"] == 512
        assert 1 < meta["krylov_dim"] <= 128


class TestClosedForm:
    def test_pointwise_formula(self):
        r = 1 / 3
        g = vl.InitialCondition.balanced_blocks(r)
        # inside the small block the decay rate is 1-2r, outside it is 1
        x_in, x_out, t = 0.1, 0.7, 2.0
        got_in = vl.closed_form_bipartite(r, g, x_in, t)
        got_out = vl.closed_form_bipartite(r, g, x_out, t)
        assert got_in == pytest.approx(0.5 * np.exp(-(1 - 2 * r) * t), rel=1e-12)
        assert got_out == pytest.approx(-0.5 * np.exp(-t), rel=1e-12)

    def test_block_boundary_belongs_to_left_block(self):
        r, t = 0.25, 1.0
        g = vl.InitialCondition.balanced_blocks(r)
        # g(r) is the left block's -0.5, which decays at the left rate 1-2r
        got = vl.closed_form_bipartite(r, g, r, t)
        assert got == pytest.approx(-0.5 * np.exp(-(1 - 2 * r) * t), rel=1e-12)

    def test_closed_form_object_matches_pointwise(self):
        r = 0.25
        g = vl.InitialCondition.balanced_blocks(r, left_amp=1.0, right_amp=0.25)
        cf = vl.BipartiteClosedForm(r, g)
        for t in (0.0, 0.7, 3.0):
            vals = cf.values_at(t)
            mids = cf.partition.midpoints()
            want = [vl.closed_form_bipartite(r, g, x, t) for x in mids]
            assert np.abs(vals - np.array(want)).max() <= 1e-14

    def test_solver_agrees_on_aligned_grid(self):
        r = 1 / 3
        g = vl.InitialCondition.balanced_blocks(r)
        times = np.linspace(0, 10, 21)
        traj = vl.solve_continuum(vl.BipartiteKernel(r), g, 300, times)
        cf = vl.BipartiteClosedForm(r, g)
        part = Partition.uniform(300)
        worst = max(
            vl.step_l2_distance(part, traj.states[i], cf.partition, cf.values_at(t))
            for i, t in enumerate(times)
        )
        assert worst <= 1e-12

    def test_requires_balanced_blocks(self):
        g = vl.InitialCondition.constant(0.4)
        with pytest.raises(vl.ValidationError):
            vl.BipartiteClosedForm(1 / 3, g)


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
        kernel = vl.direct_sum(list(zip(weights, parts)))
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
    @given(st.integers(0, 2**32 - 1), st.integers(1, 3))
    def test_graphon_limit_is_the_predicted_consensus(self, seed, k):
        # components relax to their mean of g; all-zero ones stay frozen
        r = np.random.default_rng(seed)
        weights = r.uniform(0.2, 1.0, k)
        weights /= weights.sum()
        parts = [
            random_step_kernel(r, max_cells=4, nonneg=True, low=0.05)
            if r.integers(3) else vl.ConstantKernel(0.0)
            for _ in range(k)
        ]
        kernel = vl.direct_sum(list(zip(weights, parts)))
        g = random_initial(r, n_cells=int(r.integers(1, 9)))
        horizon = 50.0 * vl.default_horizon(kernel)[0]
        part, values = vl.solve_exact(kernel, g, [0.0, horizon])
        limit = vl.predict_limit(kernel, g)
        dist = vl.step_l2_distance(part, values[-1], limit.partition, limit.values)
        assert dist <= 1e-12 * max(1.0, g.inf_norm())

    @settings(max_examples=60, deadline=None)
    @given(st.floats(0.01, 0.49), st.floats(-1.0, 1.0), st.floats(-1.0, 1.0))
    def test_two_block_kernel_matches_closed_form(self, r, left, right):
        g = vl.InitialCondition.balanced_blocks(r, left_amp=left, right_amp=right)
        times = np.linspace(0.0, 5.0, 11)
        part, values = vl.solve_exact(vl.BipartiteKernel(r), g, times)
        cf = vl.BipartiteClosedForm(r, g)
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
            vl.solve_exact(vl.ConstantKernel(-1.0), g, np.linspace(0.0, 1e3, 11))

    def test_time_grid_is_validated(self):
        g = vl.InitialCondition.constant(0.5)
        with pytest.raises(vl.ValidationError):
            vl.solve_exact(vl.ConstantKernel(1.0), g, [1.0, 2.0])

    @pytest.mark.filterwarnings("error")
    def test_class_constant_start_stays_put_where_decay_overflows(self):
        # W = -1: exp(-d t) = e^1000 overflows, but every deviation is 0
        kernel = vl.ConstantKernel(-1.0)
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
            assert horizon == pytest.approx(10.0 / -decaying.max(), rel=1e-12, abs=0.0)


def test_small_worlds_rescaling(rng):
    """Mixing toward uniform rewiring only adds a uniform e^{-pt} damping."""
    base = vl.StepKernel([0, 0.5, 1], [[1.0, 0.25], [0.25, 0.6]])
    g = vl.InitialCondition.balanced_blocks(0.5)
    for p in (0.1, 0.3):
        times = np.linspace(0, 3, 7)
        mixed = vl.solve_continuum(vl.WattsStrogatzKernel(base, p), g, 32, times)
        damped = vl.solve_continuum(vl.scale_kernel(base, 1 - 2 * p), g, 32, times)
        gap = np.abs(
            mixed.states - np.exp(-p * times)[:, None] * damped.states
        ).max()
        assert gap <= 1e-7


class TestVolterraResidual:
    def test_zero_kernel_is_exact(self):
        k = vl.ConstantKernel(0.0)
        g = vl.InitialCondition.from_cell_values([0.5, -0.5, 0.25, 0.0])
        traj = vl.solve_continuum(k, g, 8, np.linspace(0, 2, 5))
        assert vl.volterra_residual(k, traj) == 0.0

    def test_stationary_constant_profile(self):
        k = vl.ConstantKernel(1.0)
        g = vl.InitialCondition.constant(0.37)
        traj = vl.solve_continuum(k, g, 8, np.linspace(0, 3, 7))
        assert vl.volterra_residual(k, traj) <= 1e-12

    def test_reference_configuration(self):
        k = vl.BipartiteKernel(1 / 3)
        g = vl.InitialCondition.balanced_blocks(1 / 3)
        traj = vl.solve_continuum(k, g, 64, np.linspace(0, 2, 200))
        assert vl.volterra_residual(k, traj) <= 1e-4

    def test_second_order_in_the_time_grid(self):
        k = vl.BipartiteKernel(1 / 3)
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
        k = vl.BipartiteKernel(1 / 3)
        g = vl.InitialCondition.balanced_blocks(1 / 3)
        traj = vl.solve_continuum(k, g, 16, np.linspace(0, 1, 401))
        beta = vl.discretize_kernel(k, 16).weights
        assert vl.volterra_residual(k, traj) <= 1e-6
        assert naive_volterra_residual(beta, traj.times, traj.states) <= 1e-6

    def test_flags_a_wrong_trajectory(self):
        # the identity is linear in u, so corrupt with extra time decay
        # rather than a global factor
        k = vl.BipartiteKernel(1 / 3)
        g = vl.InitialCondition.balanced_blocks(1 / 3)
        traj = vl.solve_continuum(k, g, 16, np.linspace(0, 2, 101))
        wrong = traj.states * np.exp(-0.5 * traj.times)[:, None]
        corrupted = vl.Trajectory(traj.times, wrong)
        assert vl.volterra_residual(k, corrupted) >= 1e-3
        beta = vl.discretize_kernel(k, 16).weights
        assert naive_volterra_residual(beta, corrupted.times, corrupted.states) >= 1e-3


class TestConsensusOps:
    def test_diameter_and_mean(self):
        v = np.array([0.2, -0.4, 0.1])
        assert vl.consensus_diameter(v) == pytest.approx(0.6)
        assert vl.mean_value(v) == pytest.approx(v.mean())

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

    def test_limit_state_converged(self):
        g = vl.InitialCondition.from_cell_values([1.0, -0.5, 0.25, 0.0])
        traj = vl.solve_continuum(vl.ConstantKernel(1.0), g, 4, np.linspace(0, 60, 21))
        state, converged = vl.limit_state(traj)
        assert converged
        assert np.abs(state - g.mean()).max() <= 1e-8

    def test_limit_state_not_converged(self):
        g = vl.InitialCondition.from_cell_values([1.0, -1.0])
        traj = vl.solve_continuum(vl.ConstantKernel(0.05), g, 2, np.linspace(0, 1, 11))
        _, converged = vl.limit_state(traj)
        assert not converged

    def test_limit_state_needs_enough_samples(self):
        g = vl.InitialCondition.constant(0.0)
        traj = vl.solve_continuum(vl.ConstantKernel(1.0), g, 2, np.linspace(0, 1, 3))
        with pytest.raises(vl.ValidationError):
            vl.limit_state(traj)


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
        a = vl.solve_continuum(vl.BipartiteKernel(0.25), g, 12, times)
        b = vl.solve_continuum(vl.BipartiteKernel(0.25), g, 12, times)
        assert vl.trajectory_csv_text(a) == vl.trajectory_csv_text(b)

    def test_round_trip_preserves_floats(self, tmp_path):
        g = vl.InitialCondition.balanced_blocks(1 / 3)
        traj = vl.solve_continuum(
            vl.BipartiteKernel(1 / 3), g, 9, np.linspace(0, 1.3, 4)
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
        st.sampled_from(["twin", "twin_free", "palette"]),
    )
    def test_csv_text_matches_row_by_row_oracle(self, seed, n, num_times, kind):
        r = np.random.default_rng(seed)
        times = np.concatenate([[0.0], np.cumsum(r.uniform(1e-3, 5.0, num_times - 1))])
        if kind == "twin":
            kernel = random_step_kernel(r, max_cells=4)
            g = random_initial(r, n_cells=int(r.integers(1, 5)))
            states = vl.solve_continuum(kernel, g, n, times).states
        elif kind == "twin_free":
            states = r.uniform(-1.0, 1.0, (num_times, n))
        else:
            # repeated columns, columns that differ only in the sign of a
            # zero, and floats that print with an exponent
            special = [0.0, -0.0, 1e-300, -1e-300, 1e22, -1e22, 5e-324, 1e16, 0.1]
            palette = r.choice(special, (num_times, 3))
            palette[:, 2] = np.where(palette[:, 0] == 0.0, -palette[:, 0], palette[:, 0])
            states = palette[:, r.integers(0, 3, n)]
        traj = vl.Trajectory(times, states)
        assert vl.trajectory_csv_text(traj) == row_by_row_trajectory_csv(times, traj.states)

    def test_csv_text_keeps_the_sign_of_zero_columns(self):
        traj = vl.Trajectory([0.0], [[0.0, -0.0, 0.0, -0.0]])
        assert vl.trajectory_csv_text(traj) == (
            "t,cell_0,cell_1,cell_2,cell_3\n0.0,0.0,-0.0,0.0,-0.0\n"
        )

    def test_header_names_cells(self):
        g = vl.InitialCondition.constant(0.0)
        traj = vl.solve_continuum(vl.ConstantKernel(0.0), g, 3, np.array([0.0, 1.0]))
        header = vl.trajectory_csv_text(traj).splitlines()[0]
        assert header == "t,cell_0,cell_1,cell_2"
