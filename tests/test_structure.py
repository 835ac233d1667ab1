from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import voterlim as vl

from _oracles import brute_components, brute_twin_sets, copied_weights
from conftest import random_initial, random_step_kernel

# On 20,000 interleaved direct sums (seeds 0-4999, k = 1-4), the largest
# |decompose_solution - solve_exact| was 0.46 of max(1e-14, 4 * eps /
# sqrt(smallest cell)), relative to max(1, max |u|).
DECOMPOSE_EPS_FACTOR = 4.0


def two_block_kernel(w1=0.5, c1=1.0, c2=0.5):
    return vl.StepKernel.direct_sum(
        [(w1, vl.StepKernel.constant(c1)), (1.0 - w1, vl.StepKernel.constant(c2))]
    )


class TestConnectedComponents:
    def test_connected_families(self):
        assert vl.is_connected(vl.StepKernel.constant(1.0))
        assert vl.is_connected(vl.StepKernel.bipartite(0.3))  # negative mass still links
        assert not vl.is_connected(two_block_kernel())

    def test_component_fields(self):
        d = vl.connected_components(two_block_kernel(w1=0.25))
        assert len(d.components) == 2
        first, second = d.components
        assert first.weight == pytest.approx(0.25)
        assert first.interval == (0.0, 0.25)
        assert second.weight == pytest.approx(0.75)
        assert second.interval == (0.25, 1.0)

    def test_component_kernels_rescale_to_unit_square(self):
        inner = vl.StepKernel([0, 0.5, 1], [[1.0, 0.25], [0.25, 0.0]])
        k = vl.StepKernel.direct_sum([(0.5, inner), (0.5, vl.StepKernel.constant(1.0))])
        d = vl.connected_components(k)
        sub = d.components[0].kernel
        assert vl.l2_distance(sub, inner) == 0.0

    def test_reassembled_round_trip(self):
        k = two_block_kernel(w1=0.3, c1=0.8, c2=0.2)
        d = vl.connected_components(k)
        back = vl.StepKernel.direct_sum([(c.weight, c.kernel) for c in d.components])
        assert vl.l2_distance(back, k) <= 1e-14

    def test_matches_bfs_oracle(self, rng):
        for _ in range(6):
            k = random_step_kernel(rng, max_cells=6)
            # sparsify so several components actually occur
            vals = k.values.copy()
            vals[np.abs(vals) < 0.6] = 0.0
            k = vl.StepKernel(k.partition.boundaries, vals)
            got = [list(c.cells) for c in vl.connected_components(k).components]
            want = brute_components(k.values)
            assert sorted(got) == want

    @pytest.mark.parametrize(
        "link,connected",
        [(1e-300, True), (5e-324, True), (-5e-324, True), (0.0, False), (-0.0, False)],
    )
    def test_support_is_exact(self, link, connected):
        # any nonzero value links its cells, a subnormal one too
        k = vl.StepKernel([0, 0.5, 1], [[1.0, link], [link, 1.0]])
        assert vl.is_connected(k) is connected
        assert [list(c.cells) for c in vl.connected_components(k).components] == (
            brute_components(k.values)
        )

    def test_all_zero_kernel_single_cell(self):
        # one all-zero cell is reported as one (frozen) component, yet it
        # is not connected (Janson): no mass crosses any split of it
        for c, connected in ((0.0, False), (-0.0, False), (5e-324, True)):
            k = vl.StepKernel.constant(c)
            assert len(vl.connected_components(k).components) == 1
            assert vl.is_connected(k) is connected
            assert vl.structure_report(k)["connected"] is connected


class TestTwinSets:
    def test_every_step_kernel_is_covered(self, rng):
        for _ in range(5):
            k = random_step_kernel(rng)
            ts = vl.find_maximal_twin_sets(k)
            covered = sorted(c for s in ts for c in s.cells)
            assert covered == list(range(k.values.shape[0]))

    def test_product_kernel_groups_zero_and_nonzero(self):
        k = vl.StepKernel.product([0, 0.2, 0.5, 0.75, 1], [0.5, 0.0, -0.25, 0.0])
        ts = vl.find_maximal_twin_sets(k)
        groups = sorted(sorted(s.cells) for s in ts)
        assert groups == [[0, 2], [1, 3]]

    def test_multipliers_recover_the_ratio(self):
        k = vl.StepKernel.product([0, 0.25, 0.5, 1], [0.8, -0.4, 0.2])
        ts = vl.find_maximal_twin_sets(k)
        (s,) = ts
        assert list(s.cells) == [0, 1, 2]
        assert s.multipliers == pytest.approx([1.0, -0.5, 0.25], abs=1e-12)

    def test_bipartite_blocks_are_not_twins(self):
        ts = vl.find_maximal_twin_sets(vl.StepKernel.bipartite(1 / 3))
        assert sorted(sorted(s.cells) for s in ts) == [[0], [1]]

    @pytest.mark.parametrize("gap,sets", [(0.0, 1), (1e-11, 1), (-1e-11, 1), (1e-9, 2), (-1e-9, 2)])
    def test_proportionality_is_read_within_its_tolerance(self, gap, sets):
        # rows (1, 0.5) and (0.5, 0.25 + gap) deviate by about gap, which
        # PROPORTIONALITY_TOL = 1e-10 tells apart
        k = vl.StepKernel([0, 0.5, 1], [[1.0, 0.5], [0.5, 0.25 + gap]])
        twins = vl.find_maximal_twin_sets(k)
        assert len(twins) == sets
        assert [list(s.cells) for s in twins] == brute_twin_sets(k.values)

    @pytest.mark.parametrize(
        "values, sets",
        [
            # a small row is not a twin of every row: the test is relative
            ([[0.5, 0.0], [0.0, 1.5e-6]], [[0], [1]]),
            ([[1e-12, 0.0], [0.0, 1e-12]], [[0], [1]]),
            ([[0.0, 0.0], [0.0, 1e-11]], [[0], [1]]),
            ([[1e-12, -2e-12], [-2e-12, 4e-12]], [[0, 1]]),
            ([[0.0, 0.0], [0.0, 0.0]], [[0, 1]]),
            # a nonzero row whose squared entries underflow is not a zero row
            ([[0.0, 0.0], [0.0, 1e-300]], [[0], [1]]),
        ],
    )
    def test_hand_cases(self, values, sets):
        k = vl.StepKernel([0.0, 0.5, 1.0], values)
        assert [list(s.cells) for s in vl.find_maximal_twin_sets(k)] == sets
        assert brute_twin_sets(k.values) == sets

    def test_matches_definitional_oracle(self, rng):
        for _ in range(4):
            k = random_step_kernel(rng, max_cells=5)
            # plant an extra twin pair: duplicate the first row block
            got = sorted(
                sorted(s.cells) for s in vl.find_maximal_twin_sets(k)
            )
            want = brute_twin_sets(k.values)
            assert got == want

    def test_blow_up_copies_stay_twins(self, rng):
        # generic weights so distinct originals are not accidental twins
        w = rng.uniform(0.1, 1.0, (4, 4))
        w = (w + w.T) / 2
        np.fill_diagonal(w, 0.0)
        big = vl.WeightedGraph(
            copied_weights(w, [2, 1, 2, 1], [[1.0, 0.5], [1.0], [1.0, 1.0], [1.0]])
        )
        ts = vl.find_maximal_twin_sets(vl.pixel_kernel(big))
        groups = sorted(sorted(s.cells) for s in ts)
        assert groups == [[0, 1], [2], [3, 4], [5]]
        by_first = {min(s.cells): s for s in ts}
        assert by_first[0].multipliers == pytest.approx([1.0, 0.5], abs=1e-10)


class TestNecessaryCondition:
    def test_equal_component_means_pass(self):
        k = two_block_kernel()
        g = vl.InitialCondition([0, 0.25, 0.5, 0.75, 1], [0.1, 0.5, 0.4, 0.2])
        # both halves average to 0.3
        rep = vl.necessary_condition(k, g)
        assert rep.satisfied
        assert rep.component_means == pytest.approx([0.3, 0.3])
        assert rep.spread <= 1e-15

    def test_unequal_component_means_fail(self):
        k = two_block_kernel()
        g = vl.InitialCondition([0, 0.5, 1], [0.2, 0.8])
        rep = vl.necessary_condition(k, g)
        assert not rep.satisfied
        assert rep.component_means == pytest.approx([0.2, 0.8])
        assert rep.spread == pytest.approx(0.6)


class TestPredictLimit:
    def test_connected_graphon_gives_global_mean(self, rng):
        g = random_initial(rng, n_cells=5)
        pred = vl.predict_limit(vl.StepKernel.constant(1.0), g)
        assert pred.values == pytest.approx([g.mean()], abs=1e-14)

    def test_componentwise_means(self):
        k = two_block_kernel()
        g = vl.InitialCondition([0, 0.5, 1], [0.0, 1.0])
        pred = vl.predict_limit(k, g)
        assert list(pred.partition.boundaries) == [0.0, 0.5, 1.0]
        assert pred.values == pytest.approx([0.0, 1.0])

    def test_prediction_matches_long_run(self):
        # block gap is 0.5, so t=20 leaves ~2e-5 of the initial spread
        k = two_block_kernel(w1=0.5, c1=1.0, c2=1.0)
        g = vl.InitialCondition([0, 0.25, 0.5, 0.75, 1], [0.9, 0.1, -0.2, 0.6])
        pred = vl.predict_limit(k, g)
        traj = vl.solve_continuum(k, g, 64, np.linspace(0, 20, 11))
        final = traj.states[-1]
        mids = vl.kernels.Partition.uniform(64).midpoints()
        assert np.abs(final - pred.evaluate(mids)).max() <= 1e-4

    def test_zero_kernel_keeps_the_initial_profile(self):
        g = vl.InitialCondition([0, 0.5, 1], [0.3, -0.3])
        pred = vl.predict_limit(vl.StepKernel.constant(0.0), g)
        assert list(pred.values) == [0.3, -0.3]

    def test_rejects_signed_kernels(self):
        with pytest.raises(vl.UnsupportedVariantError):
            vl.predict_limit(vl.StepKernel.bipartite(0.3), vl.InitialCondition.constant(0.0))

    def test_frozen_component_inside_a_mixture(self):
        k = vl.StepKernel.direct_sum(
            [(0.5, vl.StepKernel.constant(0.0)), (0.5, vl.StepKernel.constant(1.0))]
        )
        g = vl.InitialCondition([0, 0.25, 0.5, 0.75, 1], [0.9, -0.9, 0.5, 0.1])
        pred = vl.predict_limit(k, g)
        mids = np.array([0.125, 0.375, 0.75])
        assert pred.evaluate(mids) == pytest.approx([0.9, -0.9, 0.3])


def _interleaved_direct_sum(r, k):
    """Direct sum of k random parts with its cells shuffled across [0, 1].

    Parts are signed step kernels, graphons or all-zero; the shuffle keeps
    every value and measure, so the components are those of the direct
    sum but their cells interleave.
    """
    weights = r.uniform(0.2, 1.0, k)
    weights /= weights.sum()
    kinds = r.integers(3, size=k)
    parts = [
        random_step_kernel(r, max_cells=4, nonneg=bool(kind == 1)) if kind
        else vl.StepKernel.constant(0.0)
        for kind in kinds
    ]
    step = vl.StepKernel.direct_sum(list(zip(weights, parts)))
    perm = r.permutation(step.partition.size)
    bounds = np.concatenate([[0.0], np.cumsum(step.partition.measures[perm])])
    bounds[-1] = 1.0
    return vl.StepKernel(bounds, step.values[np.ix_(perm, perm)])


def _assert_matches_exact(k, g, times):
    # the symmetrised eigenbasis of the exact solve resolves a cell of
    # measure s to eps / sqrt(s), so tiny cells widen the bound beyond 1e-14
    part, values = vl.solve_exact(k, g, times)
    split_part, split = vl.decompose_solution(k, g, times)
    assert split_part == part
    s = k.partition.measures.min()
    tol = max(1e-14, DECOMPOSE_EPS_FACTOR * np.finfo(float).eps / np.sqrt(s))
    assert np.abs(split - values).max() <= tol * max(1.0, np.abs(values).max())


class TestDecomposeSolution:
    def test_matches_direct_solve(self):
        inner = vl.StepKernel([0, 0.5, 1], [[1.0, 0.25], [0.25, 0.75]])
        k = vl.StepKernel.direct_sum([(0.5, inner), (0.5, vl.StepKernel.constant(0.6))])
        g = vl.InitialCondition([0, 0.25, 0.5, 0.75, 1], [1.0, -1.0, 0.5, -0.5])
        _assert_matches_exact(k, g, np.linspace(0, 4, 9))

    def test_three_components(self):
        k = vl.StepKernel.direct_sum(
            [
                (0.25, vl.StepKernel.constant(1.0)),
                (0.25, vl.StepKernel.constant(0.5)),
                (0.5, vl.StepKernel.constant(0.25)),
            ]
        )
        g = vl.InitialCondition.from_cell_values([0.5, -0.5, 0.25, -0.25])
        _assert_matches_exact(k, g, np.linspace(0, 3, 7))

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 4))
    def test_interleaved_direct_sums(self, seed, k):
        r = np.random.default_rng(seed)
        kernel = _interleaved_direct_sum(r, k)
        g = random_initial(r, n_cells=int(r.integers(1, 9)))
        _assert_matches_exact(kernel, g, np.linspace(0.0, 3.0, 7))


def test_structure_report_shape():
    k = two_block_kernel()
    g = vl.InitialCondition([0, 0.5, 1], [0.1, 0.9])
    rep = vl.structure_report(k, g)
    assert rep["connected"] is False
    assert rep["twin_kernel"] is True
    assert len(rep["components"]) == 2
    assert rep["necessary_condition"] == asdict(vl.necessary_condition(k, g))
    assert rep["necessary_condition"]["satisfied"] is False
    import json

    json.dumps(rep)


def test_structure_report_checks_means_on_its_components():
    # a zero link splits the report's components; a weak one joins them
    g = vl.InitialCondition([0.0, 0.5, 1.0], [1.0, -1.0])
    cut = vl.StepKernel([0.0, 0.5, 1.0], [[1.0, 0.0], [0.0, 1.0]])
    rep = vl.structure_report(cut, g)
    assert len(rep["components"]) == 2
    assert rep["necessary_condition"]["component_means"] == (1.0, -1.0)
    assert rep["necessary_condition"]["satisfied"] is False
    weak = vl.StepKernel([0.0, 0.5, 1.0], [[1.0, 1e-9], [1e-9, 1.0]])
    assert vl.structure_report(weak, g)["necessary_condition"]["satisfied"] is True
    assert vl.necessary_condition(weak, g).component_means == (0.0,)


def test_structure_report_without_initial():
    rep = vl.structure_report(vl.StepKernel.constant(1.0))
    assert rep["connected"] is True
    assert rep["necessary_condition"] is None


def planted_twin_kernel(r):
    """Step kernel with planted twin sets: row blocks repeated through a
    label map and scaled by outer(s, s), where s has zero and negative
    entries.  Nonzero values have magnitude at least 0.5 * 0.25**2."""
    m = int(r.integers(1, 9))
    base = r.uniform(-1.0, 1.0, (4, 4))
    base = (base + base.T) / 2
    base[np.abs(base) < 0.5] = 0.0
    label = r.integers(0, int(r.integers(1, 5)), m)
    s = r.choice([-1.0, 1.0], m) * r.uniform(0.25, 1.0, m)
    s[r.random(m) < 0.2] = 0.0
    edges = np.cumsum(r.uniform(0.5, 1.5, m))
    bounds = np.concatenate([[0.0], edges[:-1] / edges[-1], [1.0]])
    return vl.StepKernel(bounds, base[np.ix_(label, label)] * np.outer(s, s))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.floats(-300.0, 0.0))
def test_components_and_twins_agree_with_oracles(seed, log_scale):
    r = np.random.default_rng(seed)
    sparse = random_step_kernel(r, max_cells=6)
    vals = sparse.values.copy()
    vals[np.abs(vals) < 0.5] = 0.0
    sparse = vl.StepKernel(sparse.partition.boundaries, vals)
    for k in (sparse, planted_twin_kernel(r)):
        # The oracles return groups with ascending cells, sorted by smallest
        # cell: the order the library promises, so no re-sorting here.
        decomp = vl.connected_components(k)
        assert [list(c.cells) for c in decomp.components] == brute_components(k.values)
        for index, comp in enumerate(decomp.components):
            assert all(decomp.labels[c] == index for c in comp.cells)
        assert decomp.labels.shape == (k.values.shape[0],)
        twins = vl.find_maximal_twin_sets(k)
        assert [list(s.cells) for s in twins] == brute_twin_sets(k.values)
        assert all(s.representative == s.cells[0] for s in twins)
        # The test is relative, so scaling the kernel down to 1e-300 keeps
        # its twin sets.
        small = vl.StepKernel(k.partition.boundaries, k.values * 10.0**log_scale)
        tiny = [list(s.cells) for s in vl.find_maximal_twin_sets(small)]
        assert tiny == brute_twin_sets(small.values)
        assert tiny == [list(s.cells) for s in twins]
