import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import voterlim as vl
from voterlim import graphs

from _oracles import frac_discretize, index_scatter_w_random, row_equality_classes
from conftest import random_step_kernel

# printed reference operator for the two-block +-1 kernel at r=1/3, n=6
D6 = np.array(
    [
        [-3, -1, 1, 1, 1, 1],
        [-1, -3, 1, 1, 1, 1],
        [1, 1, -5, 1, 1, 1],
        [1, 1, 1, -5, 1, 1],
        [1, 1, 1, 1, -5, 1],
        [1, 1, 1, 1, 1, -5],
    ]
) / 6

# n=5 counterpart; the (0,0) entry is -8/15, not the widely copied -2/15
D5 = np.array(
    [
        [-8 / 3, -1 / 3, 1, 1, 1],
        [-1 / 3, -8 / 3, 1, 1, 1],
        [1, 1, -4, 1, 1],
        [1, 1, 1, -4, 1],
        [1, 1, 1, 1, -4],
    ]
) / 5


class TestWeightedGraph:
    def test_validation(self):
        with pytest.raises(vl.ValidationError):
            vl.WeightedGraph([[0, 1], [0.5, 0]])  # not symmetric
        with pytest.raises(vl.ValidationError):
            vl.WeightedGraph([[0, 2], [2, 0]])  # out of range
        with pytest.raises(vl.ValidationError):
            vl.WeightedGraph(np.ones((2, 3)))

    def test_json_round_trip(self):
        g = vl.WeightedGraph([[0.0, -0.5], [-0.5, 1.0]])
        back = vl.WeightedGraph.from_json(g.to_json())
        assert np.array_equal(back.weights, g.weights)
        assert back.n == 2

    def test_is_simple(self):
        assert vl.WeightedGraph([[0, 1], [1, 0]]).is_simple()
        assert not vl.WeightedGraph([[1, 1], [1, 0]]).is_simple()
        assert not vl.WeightedGraph([[0, 0.5], [0.5, 0]]).is_simple()


class TestDiscretize:
    def test_d6_reference(self):
        g = vl.discretize_kernel(vl.BipartiteKernel(1 / 3), 6)
        D = vl.laplacian(g)
        assert np.abs(D - D6).max() <= 1e-12

    def test_d5_reference_with_corrected_corner(self):
        g = vl.discretize_kernel(vl.BipartiteKernel(1 / 3), 5)
        D = vl.laplacian(g)
        assert np.abs(D - D5).max() <= 1e-12
        assert D[0, 0] == pytest.approx(-8 / 15, abs=1e-15)

    def test_block_weights_at_n5(self):
        g = vl.discretize_kernel(vl.BipartiteKernel(1 / 3), 5)
        w = g.weights
        assert w[0, 0] == pytest.approx(-1.0, abs=1e-15)
        assert w[1, 1] == pytest.approx(1 / 9, abs=1e-15)
        assert w[0, 1] == pytest.approx(-1 / 3, abs=1e-15)

    def test_constant_kernel(self):
        g = vl.discretize_kernel(vl.ConstantKernel(0.3), 7)
        assert np.abs(g.weights - 0.3).max() <= 1e-15

    def test_against_rational_arithmetic(self, rng):
        for _ in range(4):
            k = random_step_kernel(rng, max_cells=4)
            n = int(rng.integers(2, 9))
            got = vl.discretize_kernel(k, n).weights
            want = frac_discretize(k.partition.boundaries, k.values, n)
            assert np.abs(got - want).max() <= 1e-12

    def test_size_limit(self, monkeypatch):
        with pytest.raises(vl.SizeLimitError):
            vl.discretize_kernel(vl.ConstantKernel(1.0), vl.DEFAULT_N_MAX + 1)
        monkeypatch.setattr(graphs, "DEFAULT_N_MAX", 10)
        with pytest.raises(vl.SizeLimitError):
            vl.discretize_kernel(vl.ConstantKernel(1.0), 11)
        g = vl.discretize_kernel(vl.ConstantKernel(1.0), 10)
        assert g.n == 10


class TestPixelKernel:
    def test_round_trip_is_exact(self, rng):
        w = rng.uniform(-1, 1, (5, 5))
        w = (w + w.T) / 2
        g = vl.WeightedGraph(w)
        back = vl.discretize_kernel(vl.pixel_kernel(g), 5)
        assert np.abs(back.weights - g.weights).max() <= 1e-12

    def test_embedding_error_shrinks_along_doubling(self):
        k = vl.BipartiteKernel(1 / 3)
        errs = [
            vl.l2_distance(vl.pixel_kernel(vl.discretize_kernel(k, n)), k)
            for n in (8, 16, 32, 64, 128)
        ]
        assert all(b < a for a, b in zip(errs, errs[1:]))

    def test_embedding_exact_for_constant(self):
        # zero up to rounding of the 1/n^2 cell factors
        k = vl.ConstantKernel(0.7)
        for n in (3, 8, 17):
            assert vl.l2_distance(vl.pixel_kernel(vl.discretize_kernel(k, n)), k) <= 1e-14


class TestLaplacian:
    def test_rows_sum_to_zero(self, rng):
        k = random_step_kernel(rng)
        D = vl.laplacian(vl.discretize_kernel(k, 9))
        assert np.abs(D.sum(axis=1)).max() <= 1e-14
        assert np.abs(D - D.T).max() <= 1e-14

    def test_self_weights_do_not_move_the_field(self, rng):
        w = rng.uniform(-1, 1, (6, 6))
        w = (w + w.T) / 2
        g1 = vl.WeightedGraph(w)
        w2 = w.copy()
        np.fill_diagonal(w2, rng.uniform(-1, 1, 6))
        g2 = vl.WeightedGraph(w2)
        u = rng.uniform(-1, 1, 6)
        f1 = vl.laplacian(g1) @ u
        f2 = vl.laplacian(g2) @ u
        assert np.abs(f1 - f2).max() <= 1e-14


class TestWRandom:
    def test_deterministic(self):
        a = vl.sample_w_random(vl.ConstantKernel(0.5), 50, seed=3)
        b = vl.sample_w_random(vl.ConstantKernel(0.5), 50, seed=3)
        assert np.array_equal(a.weights, b.weights)
        c = vl.sample_w_random(vl.ConstantKernel(0.5), 50, seed=4)
        assert not np.array_equal(a.weights, c.weights)

    def test_degenerate_probabilities(self):
        full = vl.sample_w_random(vl.ConstantKernel(1.0), 12, seed=0)
        off = ~np.eye(12, dtype=bool)
        assert np.all(full.weights[off] == 1.0)
        assert full.is_simple()
        empty = vl.sample_w_random(vl.ConstantKernel(0.0), 12, seed=0)
        assert np.all(empty.weights == 0.0)

    def test_density_concentrates(self):
        n = 2000
        g = vl.sample_w_random(vl.ConstantKernel(0.5), n, seed=99)
        pairs = n * (n - 1) / 2
        density = g.weights[np.triu_indices(n, k=1)].sum() / pairs
        assert abs(density - 0.5) <= 3 * 0.5 / np.sqrt(pairs)

    def test_requires_graphon(self):
        with pytest.raises(vl.ValidationError):
            vl.sample_w_random(vl.BipartiteKernel(0.3), 10, seed=0)

    def test_rng_algorithm_recorded(self):
        assert "philox" in vl.RNG_ALGORITHM.lower()

    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from([1, 2, 3, 64, 257]), st.integers(0, 2**32 - 1), st.integers(0, 2**63))
    def test_matches_index_scatter_oracle(self, n, kernel_seed, seed):
        kernel = random_step_kernel(np.random.default_rng(kernel_seed), nonneg=True)
        got = vl.sample_w_random(kernel, n, seed).weights
        assert got.tobytes() == index_scatter_w_random(kernel, n, seed).tobytes()


class TestBlowUp:
    def test_identity(self, rng):
        w = rng.uniform(-1, 1, (4, 4))
        w = (w + w.T) / 2
        g = vl.WeightedGraph(w)
        same = vl.blow_up(g, [1, 1, 1, 1])
        assert np.array_equal(same.weights, g.weights)

    def test_single_vertex_with_loop(self):
        g = vl.WeightedGraph([[1.0]])
        big = vl.blow_up(g, [3])
        assert np.array_equal(big.weights, np.ones((3, 3)))

    def test_scaled_copies(self):
        # path weights 1/6 and 1/3; the tripled copy of the hub sees 1/2 and 1
        w = np.zeros((3, 3))
        w[0, 1] = w[1, 0] = 1 / 6
        w[0, 2] = w[2, 0] = 1 / 3
        g = vl.WeightedGraph(w)
        big = vl.blow_up(g, [2, 1, 1], [[1.0, 3.0], [1.0], [1.0]])
        assert big.n == 4
        assert big.weights[0, 2] == pytest.approx(1 / 6)
        assert big.weights[1, 2] == pytest.approx(1 / 2)
        assert big.weights[1, 3] == pytest.approx(1.0)
        # the two copies of the hub are not directly linked (no self-loop)
        assert big.weights[0, 1] == 0.0

    def test_range_violation(self):
        g = vl.WeightedGraph([[0.0, 0.9], [0.9, 0.0]])
        with pytest.raises(vl.ValidationError):
            vl.blow_up(g, [1, 1], [[2.0], [1.0]])

    def test_bad_shapes(self):
        g = vl.WeightedGraph([[0.0, 0.5], [0.5, 0.0]])
        with pytest.raises(vl.ValidationError):
            vl.blow_up(g, [1])
        with pytest.raises(vl.ValidationError):
            vl.blow_up(g, [2, 1], [[1.0], [1.0]])
        with pytest.raises(vl.ValidationError):
            vl.blow_up(g, [1, 1], [[-1.0], [1.0]])


class TestTwinClasses:
    def test_hand_case(self):
        w = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 1.0], [0.0, 1.0, 0.0]])
        labels, heads = graphs.twin_classes(vl.WeightedGraph(w))
        assert labels.tolist() == [0, 1, 0]
        assert heads.tolist() == [0, 1]

    @pytest.mark.parametrize("twins", [False, True])
    def test_rows_equal_only_in_their_first_entries(self, twins):
        # the zero block makes rows 0..79 agree on their first 80 entries,
        # so only whole rows tell them apart
        r = np.random.default_rng(3)
        w = np.zeros((130, 130))
        w[:80, 80:] = r.uniform(0.0, 1.0, (80, 50))
        if twins:
            w[1, 80:] = w[0, 80:]
        w[80:, :80] = w[:80, 80:].T
        w[80:, 80:] = 0.5
        labels, heads = graphs.twin_classes(vl.WeightedGraph(w))
        classes = sorted(np.nonzero(labels == k)[0].tolist() for k in range(heads.size))
        assert classes == row_equality_classes(w)
        assert len(classes) == (129 if twins else 130)


class TestSizeGuards:
    # each guard fires before the n x n array exists, so the oversized n
    # here allocates nothing
    def test_from_json(self):
        text = vl.discretize_kernel(vl.ConstantKernel(1.0), 4).to_json()
        assert vl.WeightedGraph.from_json(text).n == 4
        for n in (vl.DEFAULT_N_MAX + 1, 10**9):
            with pytest.raises(vl.SizeLimitError):
                vl.WeightedGraph.from_json(json.dumps({"n": n, "weights": [[0.0]]}))

    def test_read_edge_list(self, tmp_path):
        p = tmp_path / "edges.csv"
        vl.write_edge_list(vl.sample_w_random(vl.ConstantKernel(0.4), 5, seed=1), p)
        assert vl.read_edge_list(p, 5).n == 5
        for n in (vl.DEFAULT_N_MAX + 1, 10**9):
            with pytest.raises(vl.SizeLimitError):
                vl.read_edge_list(p, n)

    def test_sample_w_random(self):
        assert vl.sample_w_random(vl.ConstantKernel(0.5), 5, seed=0).n == 5
        tracemalloc.start()
        try:
            for n in (vl.DEFAULT_N_MAX + 1, 10**9):
                with pytest.raises(vl.SizeLimitError):
                    vl.sample_w_random(vl.ConstantKernel(0.5), n, seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20  # far below one n x n row block

    def test_blow_up(self):
        g = vl.WeightedGraph([[0.0, 0.5], [0.5, 0.0]])
        assert vl.blow_up(g, [2, 3]).n == 5
        for copies in ([vl.DEFAULT_N_MAX, 1], [10**9, 1]):
            with pytest.raises(vl.SizeLimitError):
                vl.blow_up(g, copies)


class TestEdgeList:
    def test_round_trip(self, tmp_path):
        g = vl.sample_w_random(vl.ConstantKernel(0.4), 30, seed=5)
        p = tmp_path / "edges.csv"
        vl.write_edge_list(g, p)
        header = p.read_text().splitlines()[0]
        assert header == "i,j,beta"
        back = vl.read_edge_list(p, 30)
        assert np.array_equal(back.weights, g.weights)

    def test_rejects_weighted(self, tmp_path):
        g = vl.WeightedGraph([[0.0, 0.5], [0.5, 0.0]])
        with pytest.raises(vl.ValidationError):
            vl.write_edge_list(g, tmp_path / "edges.csv")
