"""Every entry path reads a size, a seed or a time grid through one reader and
refuses the same values with the same error (`graphs._size`, `graphs._seed`,
`dynamics.resolve_time_grid`)."""

import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import voterlim as vl
from voterlim import dynamics, graphs
from voterlim.cli import main

from _oracles import brute_components
from conftest import random_step_kernel

KERNEL = vl.StepKernel.bipartite(0.3)
GRAPHON = vl.StepKernel.constant(0.5)
START = vl.InitialCondition.balanced_blocks(0.3)


# Each size entry as a function of n, returning the n it records.
SIZE_ENTRIES = {
    "pixel_classes": lambda n: graphs.pixel_classes(KERNEL, n)[0].size,
    "discretize_kernel": lambda n: vl.discretize_kernel(KERNEL, n).n,
    "solve_continuum": lambda n: vl.solve_continuum(KERNEL, START, n, [0.0, 1.0]).metadata["n"],
    "sample_w_random": lambda n: vl.sample_w_random(GRAPHON, n, 0).n,
    "average_initial": lambda n: vl.average_initial(START, n).size,
    "graph JSON": lambda n: vl.WeightedGraph._from_dict({"n": n, "weights": np.zeros((4, 4))}).n,
    "n_ladder": lambda n: vl.ExperimentConfig(KERNEL, START, [n], 1.0).n_ladder[0],
    "reference_n": lambda n: vl.convergence_study(
        vl.ExperimentConfig(KERNEL, START, [1], 1.0, num_times=3), reference_n=n
    ).reference,
}


@pytest.mark.parametrize("entry", SIZE_ENTRIES)
@pytest.mark.parametrize("n", [True, 2.5, "3", 0, -1])
def test_size_entries_refuse_what_is_not_a_size(entry, n):
    with pytest.raises(vl.ValidationError):
        SIZE_ENTRIES[entry](n)


@pytest.mark.parametrize("entry", SIZE_ENTRIES)
def test_size_entries_refuse_sizes_above_the_ceiling(entry):
    with pytest.raises(vl.SizeLimitError, match="n_max"):
        SIZE_ENTRIES[entry](vl.DEFAULT_N_MAX + 1)


@pytest.mark.parametrize("entry", SIZE_ENTRIES)
@pytest.mark.parametrize("n", [np.int64(4), 4.0])
def test_size_entries_record_a_python_int(entry, n):
    # json.dumps refuses an np.int64 and writes 4.0 or True as such
    assert json.dumps(SIZE_ENTRIES[entry](n)) == json.dumps(SIZE_ENTRIES[entry](4))


def test_averaging_names_the_size_not_the_partition():
    with pytest.raises(vl.ValidationError, match="'n': 2.5 is not an integer"):
        vl.average_initial(START, 2.5)


def test_graph_json_with_no_vertices_gets_the_size_message():
    with pytest.raises(vl.ValidationError, match="n >= 1"):
        vl.WeightedGraph.from_json('{"n": 0, "weights": [[0.0]]}')


@pytest.mark.parametrize("n", [True, 2.5, "3"])
def test_uniform_partition_reads_a_count(n):
    with pytest.raises(vl.ValidationError):
        vl.Partition.uniform(n)
    assert vl.Partition.uniform(np.int64(4)) == vl.Partition.uniform(4)


@pytest.mark.parametrize("seed", [True, 2.5, "3", -1, 2**128])
def test_sampler_refuses_seeds_that_are_not_philox_keys(seed):
    with pytest.raises(vl.ValidationError, match="seed"):
        vl.sample_w_random(GRAPHON, 6, seed)
    sample = graphs._w_random_sampler(GRAPHON, 6)
    with pytest.raises(vl.ValidationError, match="seed"):
        sample(seed)


@pytest.mark.parametrize("seed", [np.int64(3), 3.0])
def test_integral_seeds_draw_the_graph_of_their_int(seed):
    want = vl.sample_w_random(GRAPHON, 6, 3).weights.tobytes()
    assert vl.sample_w_random(GRAPHON, 6, seed).weights.tobytes() == want
    assert vl.sample_w_random(GRAPHON, 6, 2**128 - 1).n == 6  # the largest key


def _mc_config(**over):
    base = dict(
        kernel={"type": "constant", "c": 0.8},
        initial={"type": "balanced_blocks", "r": 0.5},
        n_ladder=[8],
        horizon=6.0,
        trials=30,
    )
    return {**base, **over}


def _no_solve(*args, **kwargs):
    raise AssertionError("solved before the config was refused")


@pytest.mark.parametrize("base_seed", [-5, 2**128 - 1])
def test_mc_refuses_its_seeds_before_the_reference_solve(base_seed, monkeypatch):
    # 2**128 - 1 is a key, but the 30th trial's base_seed + 29 is not
    monkeypatch.setattr(vl.experiments, "solve_exact", _no_solve)
    cfg = vl.ExperimentConfig.from_dict(_mc_config(base_seed=base_seed))
    with pytest.raises(vl.ValidationError, match="seed"):
        vl.random_consensus_mc(cfg)


@pytest.mark.parametrize("base_seed", [-5, 2**128 - 1])
def test_cli_mc_with_a_bad_seed_exits_2_and_writes_no_table(base_seed, tmp_path):
    config = tmp_path / "mc.json"
    config.write_text(json.dumps(_mc_config(base_seed=base_seed)))
    out = tmp_path / "out"
    assert main(["mc-random", "--config", str(config), "--out", str(out)]) == 2
    error = json.loads((out / "error.json").read_text())["error"]
    assert error["type"] == "ValidationError" and "seed" in error["message"]
    assert not (out / "mc.csv").exists()


def test_cli_ladder_above_the_ceiling_exits_3_before_the_reference_solve(
    tmp_path, monkeypatch
):
    monkeypatch.setattr(vl.experiments, "solve_exact", _no_solve)
    config = tmp_path / "conv.json"
    config.write_text(json.dumps(_mc_config(n_ladder=[8, vl.DEFAULT_N_MAX + 1])))
    out = tmp_path / "out"
    assert main(["convergence", "--config", str(config), "--out", str(out)]) == 3
    assert json.loads((out / "error.json").read_text())["error"]["type"] == "SizeLimitError"


def test_out_naming_a_file_exits_2_with_the_error_on_stderr(tmp_path, capsys):
    config = tmp_path / "sim.json"
    config.write_text(json.dumps({
        "kernel": {"type": "constant", "c": 1.0}, "n": 4,
        "initial": {"type": "constant", "c": 0.5}, "times": [0.0, 1.0],
    }))
    taken = tmp_path / "taken"
    taken.write_text("")
    assert main(["simulate", "--config", str(config), "--out", str(taken)]) == 2
    error = json.loads(capsys.readouterr().err)["error"]
    assert error["type"] == "ValidationError" and error["exit_code"] == 2
    assert taken.read_text() == ""


GRID_COMMANDS = {
    "simulate": {"kernel": {"type": "constant", "c": 0.8}, "n": 8,
                 "initial": {"type": "balanced_blocks", "r": 0.5}, "horizon": 5.0},
    "convergence": _mc_config(),
    "proximity": _mc_config(),
    "mc-random": _mc_config(),
}
EVERY = list(GRID_COMMANDS)


@pytest.mark.parametrize(
    "key,value,commands",
    [
        ("horizon", 0, EVERY),
        ("horizon", -1, EVERY),
        ("horizon", math.nan, EVERY),
        ("horizon", 1e400, EVERY),
        ("num_times", 0, EVERY),
        ("num_times", 1, EVERY),
        ("num_times", 2.5, EVERY),
        ("times", [0.0], ["simulate"]),  # the experiments take no times
    ],
)
def test_one_time_grid_rule_on_every_entry_path(key, value, commands, tmp_path, monkeypatch):
    # simulate ran {"horizon": 5, "num_times": 1} as one row at t = 0, echoed
    # horizon 5.0, and stopped at horizon 0 on a message that named no key
    for module in (vl.cli, vl.experiments):
        monkeypatch.setattr(module, "solve_continuum", _no_solve)
    monkeypatch.setattr(vl.experiments, "solve_exact", _no_solve)
    messages = set()
    for command in commands:
        config = {**GRID_COMMANDS[command], key: value}
        if key == "times":
            del config["horizon"]
        path = tmp_path / f"{command}.json"
        path.write_text(json.dumps(config))
        out = tmp_path / command
        assert main([command, "--config", str(path), "--out", str(out)]) == 2
        error = json.loads((out / "error.json").read_text())["error"]
        assert error["type"] == "ValidationError"
        assert sorted(p.name for p in out.iterdir()) == ["error.json"]
        messages.add(error["message"])
    if key != "times":
        with pytest.raises(vl.ValidationError) as refused:
            vl.ExperimentConfig(GRAPHON, START, [8], **{"horizon": 6.0, key: value})
        messages.add(str(refused.value))
    [message] = messages
    assert f"time grid value for {key!r}" in message


@settings(max_examples=200, deadline=None)
@given(
    kernel=st.sampled_from([None, KERNEL, GRAPHON, vl.StepKernel.constant(0.0)]),
    horizon=st.none() | st.floats() | st.integers(-2, 10**6),
    num_times=st.integers(-2, 300) | st.floats(-2.0, 300.0),
    times=st.none() | st.lists(st.floats(0.0, 1e6), max_size=5),
)
@example(kernel=None, horizon=5e-324, num_times=3, times=None)  # its steps round to 0
def test_every_resolved_grid_is_valid_and_ends_at_its_horizon(kernel, horizon, num_times, times):
    try:
        grid, end, source = dynamics.resolve_time_grid(kernel, horizon, num_times, times)
    except vl.ValidationError:
        return
    assert dynamics._validate_times(grid).size >= 2
    assert grid[-1] == end and 0.0 < end < math.inf
    assert source in {"config", "spectral_gap", "fallback"}


def test_a_horizon_of_none_is_the_default_horizon():
    spec = {
        "kernel": {"type": "constant", "c": 1.0},
        "initial": {"type": "constant", "c": 0.2},
        "n_ladder": [4, 8],
    }
    built = vl.ExperimentConfig(
        vl.make_kernel(spec["kernel"]), vl.make_initial(spec["initial"]), (4, 8), None
    )
    assert built.resolved() == vl.ExperimentConfig.from_dict(spec).resolved()
    assert built.horizon_source == "spectral_gap"
    assert built.horizon == vl.default_horizon(built.kernel)[0]


@pytest.mark.parametrize(
    "call",
    [
        lambda: vl.consensus_diameter([]),
        lambda: vl.exceptional_measure([], 0.1),
        lambda: vl.Trajectory([0.0, 1.0], np.empty((2, 0))),
    ],
    ids=["consensus_diameter", "exceptional_measure", "Trajectory"],
)
def test_states_without_cells_are_refused(call):
    with pytest.raises(vl.ValidationError, match="at least one cell"):
        call()


def _exact_mean(g, bounds, cells):
    """Mean of the step function g over the union of the cells of `bounds`."""
    total = weight = Fraction(0)
    gb = [Fraction(b) for b in g.partition.boundaries.tolist()]
    for c in cells:
        lo, hi = Fraction(bounds[c]), Fraction(bounds[c + 1])
        weight += hi - lo
        for i, value in enumerate(g.values.tolist()):
            overlap = min(gb[i + 1], hi) - max(gb[i], lo)
            total += max(overlap, Fraction(0)) * Fraction(value)
    return float(total / weight)


def test_component_means_match_rational_arithmetic(rng):
    # two bincounts over the common refinement with g; the per-cell integrals
    # they replace moved some means in their last bits
    for _ in range(50):
        k = random_step_kernel(rng, max_cells=6, nonneg=True)
        values = np.where(rng.random(k.values.shape) < 0.6, 0.0, k.values)
        k = vl.StepKernel(k.partition.boundaries, np.minimum(values, values.T))
        cuts = np.unique(rng.uniform(0.02, 0.98, int(rng.integers(0, 5))))
        bounds = np.concatenate([[0.0], cuts, [1.0]])
        g = vl.InitialCondition(bounds, rng.uniform(-1, 1, bounds.size - 1))
        kb = k.partition.boundaries.tolist()
        want = [_exact_mean(g, kb, cells) for cells in brute_components(k.values)]
        got = vl.necessary_condition(k, g).component_means
        assert sorted(got) == pytest.approx(sorted(want), rel=0, abs=1e-15)
        # a cell with a zero kernel row is frozen: the limit keeps g there
        part, (cells, _) = vl.kernels.common_refinement(k.partition, g.partition)
        mids = part.midpoints()
        frozen = ~k.values.any(axis=1)[cells]
        limit = vl.predict_limit(k, g).evaluate(mids)
        assert np.array_equal(limit[frozen], g.evaluate(mids)[frozen])
