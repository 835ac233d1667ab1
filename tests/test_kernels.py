import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import voterlim as vl
from voterlim.kernels import (
    SYMMETRY_TOL,
    Partition,
    overlap_matrix,
    symmetric_unit_matrix,
)

from _oracles import brute_step_l2, frac_overlap, whole_matrix_symmetric_unit
from conftest import random_step_kernel


class TestPartition:
    def test_uniform_boundaries_are_exact_fractions(self):
        p = Partition.uniform(300)
        assert p.boundaries[50] == 50 / 300
        assert p.boundaries[50] == 1 / 6
        assert p.boundaries[100] == 1 / 3

    def test_cell_of_convention(self):
        # cells are (b[i-1], b[i]]; 0 belongs to the first cell
        p = Partition([0.0, 0.25, 0.5, 1.0])
        x = np.array([0.0, 0.1, 0.25, 0.3, 0.5, 0.75, 1.0])
        assert list(p.cell_of(x)) == [0, 0, 0, 1, 1, 2, 2]

    @pytest.mark.parametrize("x", [np.nan, [0.5, np.nan], [-0.1, 0.5], 1.5])
    def test_coordinates_outside_the_interval_are_domain_errors(self, x):
        # NaN is in no cell: it is refused, not mapped one past the last cell
        g = vl.InitialCondition([0.0, 0.5, 1.0], [1.0, 2.0])
        k = vl.StepKernel([0.0, 0.5, 1.0], [[1.0, 0.5], [0.5, 0.0]])
        with pytest.raises(vl.DomainError):
            Partition([0.0, 0.5, 1.0]).cell_of(x)
        with pytest.raises(vl.DomainError):
            g.evaluate(x)
        with pytest.raises(vl.DomainError):
            k.evaluate(x, 0.25)
        with pytest.raises(vl.DomainError):
            k.evaluate(0.25, x)

    def test_measures_sum_to_one(self):
        p = Partition([0.0, 0.2, 0.7, 1.0])
        assert p.measures == pytest.approx([0.2, 0.5, 0.3])
        assert p.measures.sum() == pytest.approx(1.0)

    def test_refined_with_merges_boundaries(self):
        a = Partition([0.0, 0.5, 1.0])
        b = Partition([0.0, 0.25, 1.0])
        m = a.refined_with(b)
        assert list(m.boundaries) == [0.0, 0.25, 0.5, 1.0]

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(st.integers(1, 23), max_size=12),
        st.lists(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True), max_size=12),
        st.lists(st.integers(1, 23), max_size=12),
        st.lists(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True), max_size=12),
        st.booleans(),
        st.booleans(),
    )
    def test_refined_with_equals_union1d(self, grid_a, free_a, grid_b, free_b, neg_a, neg_b):
        # points k/24 are shared between the two sides; a partition may start at -0.0
        def partition(grid, free, negative):
            inner = np.unique(np.concatenate([np.array(grid) / 24, free]))
            return Partition(np.concatenate([[-0.0 if negative else 0.0], inner, [1.0]]))

        a, b = partition(grid_a, free_a, neg_a), partition(grid_b, free_b, neg_b)
        want = np.union1d(a.boundaries, b.boundaries)
        got = a.refined_with(b).boundaries
        assert got.tobytes() == want.tobytes()

    def test_common_refinement_maps_each_input(self):
        merged, (ia, ib, ic) = vl.common_refinement(
            Partition([0.0, 0.5, 1.0]), [0.0, 0.25, 1.0], Partition.uniform(1)
        )
        assert list(merged.boundaries) == [0.0, 0.25, 0.5, 1.0]
        assert list(ia) == [0, 0, 1]
        assert list(ib) == [0, 1, 1]
        assert list(ic) == [0, 0, 0]

    def test_rejects_bad_boundaries(self):
        with pytest.raises(vl.ValidationError):
            Partition([0.0, 0.5, 0.5, 1.0])
        with pytest.raises(vl.ValidationError):
            Partition([0.1, 1.0])
        with pytest.raises(vl.ValidationError):
            Partition([0.0, 0.9])


def test_overlap_matrix_against_rational_arithmetic(rng):
    for _ in range(5):
        ka = random_step_kernel(rng)
        kb = random_step_kernel(rng)
        got = overlap_matrix(ka.partition, kb.partition)
        want = frac_overlap(ka.partition.boundaries, kb.partition.boundaries)
        want = np.array([[float(x) for x in row] for row in want])
        assert np.abs(got - want).max() <= 1e-15


def test_overlap_matrix_marginals():
    a = Partition([0.0, 0.3, 1.0])
    b = Partition.uniform(7)
    m = overlap_matrix(a, b)
    assert m.sum(axis=1) == pytest.approx(a.measures, abs=1e-15)
    assert m.sum(axis=0) == pytest.approx(b.measures, abs=1e-15)


class TestStepKernel:
    def test_validation(self):
        with pytest.raises(vl.ValidationError):
            vl.StepKernel([0, 0.5, 1], [[1, 0.5], [0.2, 1]])  # not symmetric
        with pytest.raises(vl.ValidationError):
            vl.StepKernel([0, 0.5, 1], [[2, 0], [0, 1]])  # out of range
        with pytest.raises(vl.ValidationError):
            vl.StepKernel([0, 0.5, 1], [[np.nan, 0], [0, 1]])
        with pytest.raises(vl.ValidationError):
            vl.StepKernel([0, 1], [[0.5, 0.5]])  # shape mismatch

    def test_evaluate_uses_cell_lookup(self):
        k = vl.StepKernel([0, 0.25, 1], [[1.0, -0.5], [-0.5, 0.25]])
        assert k.evaluate(0.1, 0.1) == 1.0
        assert k.evaluate(0.25, 0.25) == 1.0  # right-closed cells
        assert k.evaluate(0.3, 0.1) == -0.5
        assert k.evaluate(1.0, 1.0) == 0.25

    def test_degree_is_row_average(self):
        k = vl.StepKernel([0, 0.25, 1], [[1.0, -0.5], [-0.5, 0.25]])
        # d(x) for x in the first cell: 0.25*1 + 0.75*(-0.5)
        assert k.degree(0.1) == pytest.approx(-0.125, abs=1e-15)
        assert k.degree(0.9) == pytest.approx(0.25 * (-0.5) + 0.75 * 0.25, abs=1e-15)

    def test_graphon_flag(self):
        k = vl.StepKernel([0, 0.5, 1], [[0.2, 0.8], [0.8, 1.0]])
        assert k.is_graphon() is True
        assert vl.StepKernel.bipartite(0.3).is_graphon() is False


class TestClosedFormFamilies:
    def test_constant(self):
        k = vl.StepKernel.constant(-0.5)
        assert k.evaluate(0.3, 0.9) == -0.5
        assert k.degree(0.2) == -0.5
        with pytest.raises(vl.ValidationError):
            vl.StepKernel.constant(1.5)

    def test_bipartite_step_form(self):
        k = vl.StepKernel.bipartite(0.25)
        assert repr(k) == "StepKernel(2 cells)"
        assert list(k.partition.boundaries) == [0.0, 0.25, 1.0]
        assert k.values.tolist() == [[-1.0, 1.0], [1.0, 1.0]]

    def test_bipartite_degree(self):
        """d(x) = 1 - 2r on the first block and 1 on the second."""
        r = 0.3
        k = vl.StepKernel.bipartite(r)
        assert k.degree(0.1) == pytest.approx(1 - 2 * r, abs=1e-15)
        assert k.degree(0.9) == pytest.approx(1.0, abs=1e-15)

    def test_bipartite_requires_r_below_half(self):
        for bad in (0.0, 0.5, 0.7, -0.1):
            with pytest.raises(vl.ValidationError):
                vl.StepKernel.bipartite(bad)

    def test_product_is_outer_product(self):
        k = vl.StepKernel.product([0, 0.25, 0.5, 1], [0.8, -0.4, 0.2])
        f = np.array([0.8, -0.4, 0.2])
        assert np.abs(k.values - np.outer(f, f)).max() == 0.0
        # degree factorizes: d(x) = f(x) * integral of f
        int_f = 0.25 * 0.8 + 0.25 * (-0.4) + 0.5 * 0.2
        assert k.degree(0.1) == pytest.approx(0.8 * int_f, abs=1e-15)

    def test_ws_mix_values(self):
        # rewiring blend (1-2p)*v + p: 0.8 on the blocks, 0.2 across
        base = vl.StepKernel([0, 0.5, 1], [[1.0, 0.0], [0.0, 1.0]])
        k = vl.StepKernel.ws_mix(base, 0.2)
        assert k.evaluate(0.1, 0.1) == pytest.approx(0.8)
        assert k.evaluate(0.1, 0.9) == pytest.approx(0.2)
        assert k.degree(0.1) == pytest.approx(0.6 * 0.5 + 0.2, abs=1e-15)
        assert k.is_graphon()

    def test_ws_mix_requires_graphon_base(self):
        with pytest.raises(vl.ValidationError):
            vl.StepKernel.ws_mix(vl.StepKernel.bipartite(0.3), 0.1)
        with pytest.raises(vl.ValidationError):
            vl.StepKernel.ws_mix(vl.StepKernel.constant(1.0), 0.6)

    def test_direct_sum_blocks(self):
        k = vl.StepKernel.direct_sum(
            [(0.5, vl.StepKernel.constant(1.0)), (0.5, vl.StepKernel.constant(0.5))]
        )
        assert k.evaluate(0.2, 0.3) == 1.0
        assert k.evaluate(0.7, 0.9) == 0.5
        assert k.evaluate(0.2, 0.7) == 0.0  # cross-block is zero
        with pytest.raises(vl.ValidationError):
            vl.StepKernel.direct_sum(
                [(0.4, vl.StepKernel.constant(1.0)), (0.5, vl.StepKernel.constant(1.0))]
            )

    @pytest.mark.parametrize(
        "parts",
        [
            [vl.StepKernel.constant(1.0)],
            [(1.0, vl.StepKernel.constant(1.0), vl.StepKernel.constant(1.0))],
            [(1.0, {"type": "constant", "c": 1.0})],
        ],
        ids=["bare kernel", "triple", "spec for a kernel"],
    )
    def test_direct_sum_refuses_what_is_not_a_pair(self, parts):
        # a bare kernel was unpacked as a pair: TypeError, not a ValidationError
        with pytest.raises(vl.ValidationError, match=r"\(weight, StepKernel\) pairs"):
            vl.StepKernel.direct_sum(parts)

    def test_ws_mix_names_the_class_of_its_base(self):
        with pytest.raises(vl.ValidationError, match="base must be a StepKernel$"):
            vl.StepKernel.ws_mix({"type": "constant", "c": 1.0}, 0.1)

    def test_direct_sum_inner_coordinates(self):
        inner = vl.StepKernel([0, 0.5, 1], [[1.0, 0.0], [0.0, 1.0]])
        k = vl.StepKernel.direct_sum([(0.25, inner), (0.75, vl.StepKernel.constant(0.0))])
        # inner cell split at 0.5 maps to the global point 0.125
        assert k.evaluate(0.1, 0.1) == 1.0
        assert k.evaluate(0.1, 0.2) == 0.0
        assert 0.125 in list(k.partition.boundaries)


def test_scaled_step():
    k = vl.StepKernel.constant(0.5).scaled(0.5)
    assert k.evaluate(0.1, 0.9) == 0.25
    with pytest.raises(vl.ValidationError):
        vl.StepKernel.constant(0.8).scaled(2.0)


class TestL2Distance:
    def test_same_kernel_built_two_ways_is_exactly_zero(self):
        a = vl.StepKernel.bipartite(0.25)
        b = vl.StepKernel([0, 0.25, 1], [[-1, 1], [1, 1]])
        assert vl.l2_distance(a, b) == 0.0

    def test_hand_value(self):
        # kernels differ by 1 on a 0.5 x 0.5 square twice: sqrt(2*0.25)
        a = vl.StepKernel([0, 0.5, 1], [[1, 0], [0, 0]])
        b = vl.StepKernel([0, 0.5, 1], [[0, 1], [1, 0]])
        want = np.sqrt(0.25 + 2 * 0.25)
        assert vl.l2_distance(a, b) == pytest.approx(want, abs=1e-15)

    def test_against_rational_grid(self, rng):
        for _ in range(5):
            a = random_step_kernel(rng, max_cells=4)
            b = random_step_kernel(rng, max_cells=4)
            got = vl.l2_distance(a, b)
            merged = a.partition.refined_with(b.partition)
            mids = merged.midpoints()
            ia = a.partition.cell_of(mids)
            ib = b.partition.cell_of(mids)
            diff2 = (a.values[np.ix_(ia, ia)] - b.values[np.ix_(ib, ib)]) ** 2
            want = np.sqrt(merged.measures @ diff2 @ merged.measures)
            assert got == pytest.approx(want, abs=1e-13)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_l2_distance_is_a_pseudometric(seed):
    r = np.random.default_rng(seed)
    ks = [random_step_kernel(r, max_cells=4) for _ in range(3)]
    dab = vl.l2_distance(ks[0], ks[1])
    dba = vl.l2_distance(ks[1], ks[0])
    assert dab == pytest.approx(dba, abs=1e-13)
    dac = vl.l2_distance(ks[0], ks[2])
    dcb = vl.l2_distance(ks[2], ks[1])
    assert dab <= dac + dcb + 1e-12
    assert vl.l2_distance(ks[0], ks[0]) == 0.0


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_l2_distance_matches_fraction_oracle(seed):
    r = np.random.default_rng(seed)
    a = random_step_kernel(r, max_cells=3)
    b = random_step_kernel(r, max_cells=3)
    # compare the induced one-dimensional slices row by row instead of the
    # full square to keep the rational oracle cheap
    ga = vl.InitialCondition(a.partition.boundaries, a.values[0].clip(-1, 1))
    gb = vl.InitialCondition(b.partition.boundaries, b.values[0].clip(-1, 1))
    got = vl.step_l2_distance(
        ga.partition, ga.values, gb.partition, gb.values
    )
    want = brute_step_l2(
        ga.partition.boundaries, ga.values, gb.partition.boundaries, gb.values
    )
    assert got == pytest.approx(want, abs=1e-12)


def _validated(validate, v):
    """(result or None, error message or None) of one validator call."""
    try:
        return validate(v, "weights"), None
    except vl.ValidationError as exc:
        return None, str(exc)


@settings(max_examples=80, deadline=None)
@given(
    st.sampled_from([1, 127, 128, 129, 300]),
    st.integers(0, 2**32 - 1),
    st.booleans(),
    st.sampled_from([None, 0.5, 0.999, 1.001, 2.0]),
    st.sampled_from([None, 1.0 + SYMMETRY_TOL, -(1.0 + SYMMETRY_TOL), 1.0 + 2 * SYMMETRY_TOL]),
    st.booleans(),
)
def test_symmetric_unit_matrix_matches_whole_matrix_oracle(
    n, seed, signed_zeros, asymmetry, edge, fortran
):
    r = np.random.default_rng(seed)
    a = r.uniform(-1.0, 1.0, (n, n))
    v = np.triu(a) + np.triu(a, 1).T
    if signed_zeros:
        # zero pairs whose two signs are drawn independently
        zeros = r.random((n, n)) < 0.2
        zeros |= zeros.T
        v[zeros] = 0.0
        v[zeros & (r.random((n, n)) < 0.5)] = -0.0
    if edge is not None:
        for i, j in r.integers(0, n, (3, 2)):
            v[i, j] = v[j, i] = edge
    if asymmetry is not None:
        for i, j in r.integers(0, n, (3, 2)):
            v[i, j] = v[j, i] + asymmetry * SYMMETRY_TOL
    if fortran:
        v = np.asfortranarray(v)
    before = v.tobytes()
    got, got_err = _validated(symmetric_unit_matrix, v)
    want, want_err = _validated(whole_matrix_symmetric_unit, v)
    assert got_err == want_err
    assert v.tobytes() == before
    if want is not None:
        assert got.tobytes() == np.ascontiguousarray(want).tobytes()
        assert not got.flags.writeable


class TestSymmetricUnitMatrix:
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "i, j, a, b, message",
        [
            (1, 1, np.nan, np.nan, "weights must be finite"),
            (0, 2, np.nan, 0.5, "weights must be finite"),
            (0, 2, np.inf, -np.inf, "weights must be finite"),
            (1, 2, np.inf, 1.0, "weights must be finite"),
            # the sum overflows, yet the entries are finite and symmetric
            (0, 2, 1e308, 1e308, "weights must lie in [-1, 1]"),
            (0, 2, 1e308, -1e308, "weights must be symmetric"),
            (0, 2, 0.5, 0.5 + 2 * SYMMETRY_TOL, "weights must be symmetric"),
        ],
    )
    def test_messages(self, i, j, a, b, message):
        v = np.zeros((3, 3))
        v[i, j], v[j, i] = a, b
        with pytest.raises(vl.ValidationError) as info:
            symmetric_unit_matrix(v, "weights")
        assert str(info.value) == message

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("i, j", [(0, 0), (5, 200), (299, 299)])
    def test_non_finite_entry_in_any_strip(self, value, i, j):
        v = np.zeros((300, 300))
        v[i, j] = value
        with pytest.raises(vl.ValidationError, match="must be finite"):
            symmetric_unit_matrix(v, "weights")

    def test_result_is_read_only_and_input_untouched(self):
        v = np.array([[0.0, 0.25], [0.25 + SYMMETRY_TOL / 2, 1.0 + SYMMETRY_TOL]])
        before = v.copy()
        out = symmetric_unit_matrix(v, "weights")
        assert np.array_equal(v, before)
        assert v.flags.writeable
        assert not out.flags.writeable
        assert out is not v
        assert out[1, 1] == 1.0
        assert out[0, 1] == out[1, 0]


class TestMakeKernel:
    @pytest.mark.parametrize(
        "spec",
        [
            {"type": "constant", "c": 0.5},
            {"type": "bipartite", "r": 0.25},
            {"type": "step", "boundaries": [0, 0.5, 1], "values": [[1, 0], [0, 1]]},
            {"type": "product", "boundaries": [0, 0.5, 1], "f": [0.5, -0.5]},
            {
                "type": "direct_sum",
                "parts": [
                    {"weight": 0.5, "kernel": {"type": "constant", "c": 1.0}},
                    {"weight": 0.5, "kernel": {"type": "constant", "c": 0.0}},
                ],
            },
            {"type": "ws_mix", "p": 0.1, "base": {"type": "constant", "c": 1.0}},
        ],
    )
    def test_spec_round_trip(self, spec):
        k = vl.make_kernel(spec)
        again = vl.make_kernel(k.spec())
        assert vl.l2_distance(k, again) == 0.0
        assert again.spec() == k.spec()

    def test_named_kernels_keep_their_spec(self):
        base = {"type": "product", "boundaries": [0.0, 0.5, 1.0], "f": [0.5, 1.0]}
        spec = {"type": "ws_mix", "p": 0.1, "base": base}
        k = vl.make_kernel(spec)
        assert k.spec() == spec
        k.spec()["base"]["f"][0] = 0.0  # a copy: the kernel's spec stays
        assert k.spec() == spec
        # values derived from a named kernel are a plain step kernel
        assert k.scaled(1.0).spec()["type"] == "step"

    def test_unknown_type(self):
        with pytest.raises(vl.ValidationError):
            vl.make_kernel({"type": "mystery"})
        with pytest.raises(vl.ValidationError):
            vl.make_kernel({"type": "constant"})
        with pytest.raises(vl.ValidationError):
            vl.make_kernel("constant")
