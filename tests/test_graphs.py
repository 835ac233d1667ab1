import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import voterlim as vl
from voterlim import _schema, graphs

from voterlim.kernels import Partition, overlap_matrix, symmetric_unit_matrix

from _oracles import (
    frac_discretize,
    gemm_discretize,
    index_scatter_w_random,
    row_equality_classes,
    whole_matrix_symmetric_unit,
)
from conftest import random_step_kernel, signed_zero_step_kernel

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
        assert vl.WeightedGraph([[-0.0, 1], [1, 0]]).is_simple()
        assert vl.WeightedGraph([[0, -0.0, 1], [-0.0, -0.0, 0], [1, 0, 0]]).is_simple()
        assert not vl.WeightedGraph([[0, 1], [1, 1]]).is_simple()
        assert not vl.WeightedGraph([[1, 0], [0, 0]]).is_simple()
        assert not vl.WeightedGraph([[0, -1], [-1, 0]]).is_simple()


def same_json(a, b) -> bool:
    """Equal in value and type at every node; floats compared by their bits."""
    if type(a) is not type(b):
        return False
    if isinstance(a, float):
        return a.hex() == b.hex()  # NaN matches NaN, 0.0 does not match -0.0
    if isinstance(a, list):
        return len(a) == len(b) and all(map(same_json, a, b))
    if isinstance(a, dict):
        return list(a) == list(b) and all(same_json(a[k], b[k]) for k in a)
    return a == b


# Number spellings, several of them aliases of one value, and other scalars.
JSON_TOKENS = [
    "1.0", "1.00", "1e0", "1E+0", "10e-1", "-0.0", "0.0", "-0", "0", "-0e0",
    "2.5e-3", "5e-324", "1e16", "1e22", "1e400", "-1e400", "0.1", "12", "-7",
    "NaN", "Infinity", "-Infinity", "true", "false", "null", '"1.0"', '"\\u00e9"',
]

json_values = st.recursive(
    st.one_of(
        st.none(), st.booleans(), st.integers(), st.floats(), st.text(),
        st.sampled_from([0.0, -0.0, 5e-324, 1e16, 1e22, 0.1, 1.5]),
    ),
    lambda kids: st.one_of(st.lists(kids), st.dictionaries(st.text(), kids)),
    max_leaves=30,
)


def token_text(tokens, as_object) -> str:
    if as_object:
        return "{" + ", ".join(f'"k{i}": {t}' for i, t in enumerate(tokens)) + "}"
    nested = "[" + ", ".join(reversed(tokens)) + "]"
    return "[" + ", ".join([*tokens, nested]) + "]"


class TestGraphJson:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 40), st.booleans())
    def test_to_json_matches_json_dumps(self, seed, n, palette):
        r = np.random.default_rng(seed)
        if palette:
            w = r.choice([-1.0, -0.5, -0.0, 0.0, 1 / 3, 1.0], (n, n))
        else:
            w = r.uniform(-1.0, 1.0, (n, n))
        w = np.where(np.triu(np.ones((n, n), bool)), w, w.T)  # -0.0 survives
        g = vl.WeightedGraph(w)
        assert g.to_json() == json.dumps({"n": n, "weights": g.weights.tolist()})

    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(0, 2**32 - 1),
        st.integers(1, 12),
        st.sampled_from([1, 2, 7, 64, 257]),
        st.booleans(),
    )
    def test_discretised_to_json_matches_json_dumps(self, seed, m, n, aligned):
        kernel = signed_zero_step_kernel(np.random.default_rng(seed), m, aligned)
        g = vl.discretize_kernel(kernel, n)
        assert g.to_json() == json.dumps({"n": n, "weights": g.weights.tolist()})

    def test_signed_zeros_keep_their_texts(self):
        g = vl.WeightedGraph([[-0.0, 0.0, 1.0], [0.0, -0.0, 0.5], [1.0, 0.5, -0.0]])
        assert g.to_json() == (
            '{"n": 3, "weights": [[-0.0, 0.0, 1.0], [0.0, -0.0, 0.5], [1.0, 0.5, -0.0]]}'
        )
        back = vl.WeightedGraph.from_json(g.to_json())
        assert back.weights.tobytes() == g.weights.tobytes()

    @pytest.mark.parametrize("n", ["2.7", "1e400", "-1e400", "NaN", "Infinity", '"two"', "null"])
    def test_from_json_refuses_counts_that_are_not_integers(self, n):
        # int() would read 2.7 as 2 and raise OverflowError on 1e400
        text = '{"n": %s, "weights": [[0.0, 1.0], [1.0, 0.0]]}' % n
        with pytest.raises(vl.ValidationError, match="malformed graph JSON"):
            vl.WeightedGraph.from_json(text)

    def test_from_json_accepts_an_integral_float_count(self):
        text = '{"n": 2.0, "weights": [[0.0, 1.0], [1.0, 0.0]]}'
        assert vl.WeightedGraph.from_json(text).n == 2

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.sampled_from(JSON_TOKENS), max_size=12), st.booleans())
    def test_json_loads_matches_on_repeated_and_aliased_tokens(self, tokens, as_object):
        text = token_text(tokens, as_object)
        assert same_json(_schema._json_loads(text), json.loads(text))

    @settings(max_examples=100, deadline=None)
    @given(json_values)
    def test_json_loads_matches_on_dumped_values(self, value):
        for text in (json.dumps(value), json.dumps(value, indent=2, ensure_ascii=False)):
            assert same_json(_schema._json_loads(text), json.loads(text))

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(st.sampled_from(JSON_TOKENS), min_size=1, max_size=8),
        st.integers(0, 120),
        st.sampled_from(["", ",", "]", "[", "{", "}", "x", "1.", "-", "e5", '"', ":", " 1"]),
        st.booleans(),
    )
    def test_malformed_text_raises_the_same_error(self, tokens, cut, junk, as_object):
        text = token_text(tokens, as_object)
        text = text[:cut] + junk
        outcomes = []
        for loads in (_schema._json_loads, json.loads):
            try:
                outcomes.append(("value", loads(text)))
            except json.JSONDecodeError as exc:
                outcomes.append(("error", str(exc)))
        (kind, ours), (want_kind, want) = outcomes
        assert kind == want_kind
        assert same_json(ours, want) if kind == "value" else ours == want

    def test_repeated_tokens_share_one_float(self):
        a = _schema._json_loads("[0.25, 0.25, 0.250, 0.25]")
        assert a[0] is a[1] is a[3]
        assert a[2] == 0.25


class TestDiscretize:
    def test_d6_reference(self):
        g = vl.discretize_kernel(vl.StepKernel.bipartite(1 / 3), 6)
        D = vl.laplacian(g)
        assert np.abs(D - D6).max() <= 1e-12

    def test_d5_reference_with_corrected_corner(self):
        g = vl.discretize_kernel(vl.StepKernel.bipartite(1 / 3), 5)
        D = vl.laplacian(g)
        assert np.abs(D - D5).max() <= 1e-12
        assert D[0, 0] == pytest.approx(-8 / 15, abs=1e-15)

    def test_block_weights_at_n5(self):
        g = vl.discretize_kernel(vl.StepKernel.bipartite(1 / 3), 5)
        w = g.weights
        assert w[0, 0] == pytest.approx(-1.0, abs=1e-15)
        assert w[1, 1] == pytest.approx(1 / 9, abs=1e-15)
        assert w[0, 1] == pytest.approx(-1 / 3, abs=1e-15)

    def test_constant_kernel(self):
        g = vl.discretize_kernel(vl.StepKernel.constant(0.3), 7)
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
            vl.discretize_kernel(vl.StepKernel.constant(1.0), vl.DEFAULT_N_MAX + 1)
        monkeypatch.setattr(graphs, "DEFAULT_N_MAX", 10)
        with pytest.raises(vl.SizeLimitError):
            vl.discretize_kernel(vl.StepKernel.constant(1.0), 11)
        g = vl.discretize_kernel(vl.StepKernel.constant(1.0), 10)
        assert g.n == 10


class TestPixelClasses:
    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(0, 2**32 - 1),
        st.integers(10, 40),
        st.sampled_from([64, 255, 333, 1000]),
        st.booleans(),
    )
    # two kernels where one product over all pixels breaks twin rows
    @example(seed=148, m=32, n=255, aligned=False)
    @example(seed=158, m=34, n=333, aligned=True)
    def test_twin_pixels_get_bit_identical_rows(self, seed, m, n, aligned):
        kernel = signed_zero_step_kernel(np.random.default_rng(seed), m, aligned)
        w = vl.discretize_kernel(kernel, n).weights
        want = whole_matrix_symmetric_unit(gemm_discretize(kernel, n), "weights")
        assert np.abs(w - want).max() <= 4 * np.finfo(float).eps * np.abs(kernel.values).max()
        overlap = overlap_matrix(Partition.uniform(n), kernel.partition)
        for pixels in row_equality_classes(overlap):
            assert len({w[i].tobytes() for i in pixels}) == 1

    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(0, 2**32 - 1),
        st.integers(1, 40),
        st.sampled_from([1, 2, 3, 7, 16, 40]),
        st.booleans(),
    )
    def test_labels_weights_and_the_fine_partition_case(self, seed, m, n, aligned):
        kernel = signed_zero_step_kernel(np.random.default_rng(seed), m, aligned)
        labels, heads, weights = graphs.pixel_classes(kernel, n)
        raw = gemm_discretize(kernel, n)
        if kernel.partition.size >= n:
            # not keyed: the one product over all pixels, symmetrised, bit for bit
            assert np.array_equal(labels, np.arange(n))
            want = whole_matrix_symmetric_unit(raw, "weights")
            assert weights.tobytes() == want.tobytes()
            assert vl.discretize_kernel(kernel, n).weights.tobytes() == want.tobytes()
            return
        # pixels with equal overlaps share a class, and classes with equal
        # symmetrised weight rows are merged
        overlap = overlap_matrix(Partition.uniform(n), kernel.partition)
        for pixels in row_equality_classes(overlap):
            assert np.unique(labels[pixels]).size == 1
        assert len(row_equality_classes(weights)) == heads.size
        classes = [np.nonzero(labels == k)[0].tolist() for k in range(heads.size)]
        assert np.array_equal(heads, [c[0] for c in classes])
        assert np.all(np.diff(heads) > 0)
        want = whole_matrix_symmetric_unit(raw, "weights")[np.ix_(heads, heads)]
        bound = 4 * np.finfo(float).eps * np.abs(kernel.values).max()
        assert np.abs(weights - want).max() <= bound

    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(0, 2**32 - 1),
        st.integers(1, 40),
        st.sampled_from([1, 7, 64, 255, 333]),
        st.booleans(),
    )
    # overlap classes that the merge joins: 11 to 8, and 29 to 28
    @example(seed=6, m=3, n=255, aligned=True)
    @example(seed=8, m=8, n=333, aligned=True)
    def test_classes_are_the_graphs_twin_classes(self, seed, m, n, aligned):
        kernel = signed_zero_step_kernel(np.random.default_rng(seed), m, aligned)
        labels, heads, weights = graphs.pixel_classes(kernel, n)
        graph = vl.discretize_kernel(kernel, n)
        assert weights[np.ix_(labels, labels)].tobytes() == graph.weights.tobytes()
        if kernel.partition.size < n:
            want_labels, want_heads = graphs.byte_classes(graph.weights)
            assert np.array_equal(labels, want_labels)
            assert np.array_equal(heads, want_heads)

    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(0, 2**32 - 1),
        st.integers(1, 40),
        st.sampled_from([1, 7, 64, 255, 333]),
        st.booleans(),
    )
    def test_graph_is_the_symmetrised_expansion_bit_for_bit(self, seed, m, n, aligned):
        # symmetrising the class weights before expanding them gives the
        # bits of symmetrising the expanded n x n matrix
        kernel = signed_zero_step_kernel(np.random.default_rng(seed), m, aligned)
        labels, _, weights = graphs.pixel_classes(kernel, n)
        want = whole_matrix_symmetric_unit(weights[np.ix_(labels, labels)], "weights")
        assert vl.discretize_kernel(kernel, n).weights.tobytes() == want.tobytes()

    def test_discretisation_builds_one_n_by_n_array(self):
        kernel = signed_zero_step_kernel(np.random.default_rng(1), 8, False)
        tracemalloc.start()
        try:
            graph = vl.discretize_kernel(kernel, 2048)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * graph.weights.nbytes

    def test_errors_keep_their_order(self):
        not_a_kernel = object()  # the count is read before the kernel
        with pytest.raises(vl.ValidationError, match="n >= 1"):
            graphs.pixel_classes(not_a_kernel, 0)
        with pytest.raises(vl.SizeLimitError):
            graphs.pixel_classes(not_a_kernel, vl.DEFAULT_N_MAX + 1)


class TestPixelKernel:
    def test_round_trip_is_exact(self, rng):
        w = rng.uniform(-1, 1, (5, 5))
        w = (w + w.T) / 2
        g = vl.WeightedGraph(w)
        back = vl.discretize_kernel(vl.pixel_kernel(g), 5)
        assert np.abs(back.weights - g.weights).max() <= 1e-12

    def test_embedding_error_shrinks_along_doubling(self):
        k = vl.StepKernel.bipartite(1 / 3)
        errs = [
            vl.l2_distance(vl.pixel_kernel(vl.discretize_kernel(k, n)), k)
            for n in (8, 16, 32, 64, 128)
        ]
        assert all(b < a for a, b in zip(errs, errs[1:]))

    def test_embedding_exact_for_constant(self):
        # zero up to rounding of the 1/n^2 cell factors
        k = vl.StepKernel.constant(0.7)
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
        a = vl.sample_w_random(vl.StepKernel.constant(0.5), 50, seed=3)
        b = vl.sample_w_random(vl.StepKernel.constant(0.5), 50, seed=3)
        assert np.array_equal(a.weights, b.weights)
        c = vl.sample_w_random(vl.StepKernel.constant(0.5), 50, seed=4)
        assert not np.array_equal(a.weights, c.weights)

    def test_degenerate_probabilities(self):
        full = vl.sample_w_random(vl.StepKernel.constant(1.0), 12, seed=0)
        off = ~np.eye(12, dtype=bool)
        assert np.all(full.weights[off] == 1.0)
        assert full.is_simple()
        empty = vl.sample_w_random(vl.StepKernel.constant(0.0), 12, seed=0)
        assert np.all(empty.weights == 0.0)

    def test_density_concentrates(self):
        n = 2000
        g = vl.sample_w_random(vl.StepKernel.constant(0.5), n, seed=99)
        pairs = n * (n - 1) / 2
        density = g.weights[np.triu_indices(n, k=1)].sum() / pairs
        assert abs(density - 0.5) <= 3 * 0.5 / np.sqrt(pairs)

    def test_requires_graphon(self):
        with pytest.raises(vl.ValidationError):
            vl.sample_w_random(vl.StepKernel.bipartite(0.3), 10, seed=0)

    def test_rng_algorithm_recorded(self):
        assert "philox" in vl.RNG_ALGORITHM.lower()

    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from([1, 2, 3, 64, 257]), st.integers(0, 2**32 - 1), st.integers(0, 2**63))
    def test_matches_index_scatter_oracle(self, n, kernel_seed, seed):
        kernel = random_step_kernel(np.random.default_rng(kernel_seed), nonneg=True)
        got = vl.sample_w_random(kernel, n, seed).weights
        assert got.tobytes() == index_scatter_w_random(kernel, n, seed).tobytes()

    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from([1, 2, 3, 64, 257]), st.integers(0, 2**32 - 1), st.integers(0, 2**63))
    def test_samples_pass_the_validation_they_skip(self, n, kernel_seed, seed):
        kernel = random_step_kernel(np.random.default_rng(kernel_seed), nonneg=True)
        sample = graphs._w_random_sampler(kernel, n)
        w = sample(seed).weights
        assert not w.flags.writeable
        assert w.tobytes() == symmetric_unit_matrix(w, "weights").tobytes()
        assert w.tobytes() == vl.WeightedGraph(w).weights.tobytes()
        # the sampler is reusable: a second seed, then the first again
        assert sample(seed + 1).weights.tobytes() == (
            vl.sample_w_random(kernel, n, seed + 1).weights.tobytes()
        )
        assert sample(seed).weights.tobytes() == w.tobytes()

    @pytest.mark.parametrize(
        "kernel,n,message",
        [
            (vl.StepKernel.bipartite(0.3), 0, "n >= 1"),
            (vl.StepKernel.bipartite(0.3), vl.DEFAULT_N_MAX + 1, "n_max"),
            (vl.StepKernel.bipartite(0.3), 10, "graphon"),
        ],
    )
    def test_sampler_checks_when_built(self, kernel, n, message):
        # in this order: the size checks win over the graphon check
        with pytest.raises((vl.ValidationError, vl.SizeLimitError), match=message):
            graphs._w_random_sampler(kernel, n)


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


class TestByteClasses:
    def test_hand_case(self):
        w = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 1.0], [0.0, 1.0, 0.0]])
        labels, heads = graphs.byte_classes(vl.WeightedGraph(w).weights)
        assert labels.tolist() == [0, 1, 0]
        assert heads.tolist() == [0, 1]

    def test_twins_narrower_than_the_probe(self):
        # 40 entries per row, fewer than the probe compares: whole rows keyed
        rows = np.random.default_rng(5).uniform(-1.0, 1.0, (5, 40))
        rows[:, 7] = 0.0
        rows[3] = rows[1]
        rows[4] = rows[1]
        rows[4, 7] = -0.0  # differs from row 1 only in the sign of a zero
        labels, heads = graphs.byte_classes(rows)
        assert labels.tolist() == [0, 1, 2, 1, 3]
        assert heads.tolist() == [0, 1, 2, 4]

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
        labels, heads = graphs.byte_classes(vl.WeightedGraph(w).weights)
        classes = sorted(np.nonzero(labels == k)[0].tolist() for k in range(heads.size))
        assert classes == row_equality_classes(w)
        assert len(classes) == (129 if twins else 130)


class TestSizeGuards:
    # each guard fires before the n x n array exists, so the oversized n
    # here allocates nothing
    def test_from_json(self):
        text = vl.discretize_kernel(vl.StepKernel.constant(1.0), 4).to_json()
        assert vl.WeightedGraph.from_json(text).n == 4
        for n in (vl.DEFAULT_N_MAX + 1, 10**9):
            with pytest.raises(vl.SizeLimitError):
                vl.WeightedGraph.from_json(json.dumps({"n": n, "weights": [[0.0]]}))

    def test_sample_w_random(self):
        assert vl.sample_w_random(vl.StepKernel.constant(0.5), 5, seed=0).n == 5
        tracemalloc.start()
        try:
            for n in (vl.DEFAULT_N_MAX + 1, 10**9):
                with pytest.raises(vl.SizeLimitError):
                    vl.sample_w_random(vl.StepKernel.constant(0.5), n, seed=0)
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
    def test_lists_each_edge_once(self, tmp_path):
        g = vl.sample_w_random(vl.StepKernel.constant(0.4), 30, seed=5)
        p = tmp_path / "edges.csv"
        vl.write_edge_list(g, p)
        text = p.read_bytes().decode("ascii")
        # newline line ends, like every other CSV the library writes
        assert "\r" not in text and text.endswith("\n")
        header, *rows = text.splitlines()
        assert header == "i,j,beta"
        back = np.zeros((30, 30))
        for row in rows:
            i, j, beta = map(int, row.split(","))
            assert 1 <= i < j <= 30 and beta == 1
            back[i - 1, j - 1] = back[j - 1, i - 1] = beta
        assert len(rows) == np.count_nonzero(g.weights) // 2
        assert np.array_equal(back, g.weights)

    def test_rejects_weighted(self, tmp_path):
        g = vl.WeightedGraph([[0.0, 0.5], [0.5, 0.0]])
        with pytest.raises(vl.ValidationError):
            vl.write_edge_list(g, tmp_path / "edges.csv")
