"""The config schema: every key of every config object is read through one table.

Each subcommand, kernel type and initial-condition type has a table of the
keys it accepts (`voterlim._schema`).  A key outside its table, a key the
chosen variant would ignore and a boolean in place of a number exit 2 with
an error.json that names the key; every config the project itself writes
still loads.
"""

import copy
import importlib
import json
import os
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import voterlim as vl
from voterlim import _schema, cli, dynamics, graphs, kernels
from voterlim.cli import main

from test_cli import mc_config, simulate_config

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"

KERNELS = [
    {"type": "step", "boundaries": [0.0, 0.5, 1.0], "values": [[0.5, 0.25], [0.25, 1.0]]},
    {"type": "constant", "c": 0.8},
    {"type": "bipartite", "r": 0.25},
    {"type": "product", "boundaries": [0.0, 0.4, 1.0], "f": [0.9, 0.5]},
    {
        "type": "direct_sum",
        "parts": [
            {"weight": 0.5, "kernel": {"type": "constant", "c": 1.0}},
            {"weight": 0.5, "kernel": {"type": "constant", "c": 0.5}},
        ],
    },
    {"type": "ws_mix", "p": 0.1, "base": {"type": "constant", "c": 1.0}},
]
INITIALS = [
    {"type": "step", "boundaries": [0.0, 0.3, 1.0], "values": [1.0, -1.0]},
    {"type": "constant", "c": 0.25},
    {"type": "uniform_cells", "values": [0.5, -0.5, 0.25]},
    {"type": "balanced_blocks", "r": 0.5},
]
GRAPH = {"n": 2, "weights": [[0.0, 1.0], [1.0, 0.0]]}


def experiment(kernel, initial):
    return {
        "kernel": kernel, "initial": initial, "n_ladder": [4, 8], "horizon": 1.0,
        "num_times": 3, "window": 0.5, "eps": 0.01, "c": 0.1, "trials": 30,
        "base_seed": 1, "method": "expm",
    }


def valid_cases():
    """(command, config) pairs that use every key of every table at least once."""
    cases = []
    for kernel in KERNELS:
        cases += [
            ("simulate", {"kernel": kernel, "n": 6, "initial": INITIALS[1], "horizon": 1.0,
                          "num_times": 3, "eps": 0.01, "method": "expm"}),
            ("discretize", {"kernel": kernel, "n": 4}),
        ]
        if vl.make_kernel(kernel).is_graphon():
            cases.append(("mc-random", experiment(kernel, INITIALS[3])))
    for initial in INITIALS:
        cases += [
            ("simulate", {"kernel": KERNELS[0], "n": 6, "initial": initial,
                          "times": [0.0, 0.5, 1.0]}),
            ("simulate", {"graph": GRAPH, "initial": initial, "times": [0.0, 1.0]}),
            ("simulate", {"graph": {"path": "graph.json"}, "initial": initial, "horizon": 1.0,
                          "num_times": 3}),
            ("structure", {"kernel": KERNELS[4], "initial": initial}),
        ]
    for command in ("convergence", "proximity"):
        cases.append((command, {**experiment(KERNELS[2], INITIALS[3]), "reference_n": 32}))
    return cases


def run(command, config):
    """(exit code, error.json message or None) of one CLI call on a config or its
    text, run in a fresh directory that holds GRAPH as graph.json."""
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        Path(tmp, "graph.json").write_text(json.dumps(GRAPH))
        text = config if isinstance(config, str) else json.dumps(config)
        Path(tmp, "config.json").write_text(text)
        os.chdir(tmp)
        try:
            rc = main([command, "--config", "config.json", "--out", "out"])
        finally:
            os.chdir(cwd)
        error = Path(tmp, "out", "error.json")
        message = json.loads(error.read_text())["error"]["message"] if error.exists() else None
    return rc, message


CASES = valid_cases()


def paths(value, leaf, path=()):
    """Paths (dict keys and list indices) to the dict keys, or with leaf=True to
    the numbers that are not booleans, of a JSON value."""
    if isinstance(value, dict):
        for key, item in value.items():
            if not leaf:
                yield path + (key,)
            yield from paths(item, leaf, path + (key,))
    elif isinstance(value, list):
        for index, item in enumerate(value):
            yield from paths(item, leaf, path + (index,))
    elif leaf and isinstance(value, (int, float)) and not isinstance(value, bool):
        yield path


def parent_of(config, path):
    for step in path[:-1]:
        config = config[step]
    return config


@pytest.mark.parametrize("command,config", CASES)
def test_every_case_runs(command, config):
    assert run(command, config) == (0, None)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_renaming_any_key_exits_2_naming_it(data):
    command, config = data.draw(st.sampled_from(CASES))
    config = copy.deepcopy(config)
    path = data.draw(st.sampled_from(list(paths(config, leaf=False))))
    new = data.draw(st.sampled_from(["{}x", "_{}", "{}_"])).format(path[-1])
    parent = parent_of(config, path)
    items = list(parent.items())
    parent.clear()
    parent.update((new if key == path[-1] else key, value) for key, value in items)
    rc, message = run(command, config)
    assert rc == 2
    assert repr(new) in message


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_true_in_place_of_any_number_exits_2(data):
    command, config = data.draw(st.sampled_from(CASES))
    config = copy.deepcopy(config)
    path = data.draw(st.sampled_from(list(paths(config, leaf=True))))
    parent_of(config, path)[path[-1]] = True
    assert run(command, config)[0] == 2


@pytest.mark.parametrize(
    "command,config,key",
    [
        ("simulate", {**simulate_config(), "horizn": 5}, "'horizn'"),
        ("convergence", {**mc_config(), "refrence_n": 64}, "'refrence_n'"),
        ("simulate", {**simulate_config(), "kernel": {**KERNELS[1], "typo": 2}}, "'typo'"),
        ("simulate", {**simulate_config(), "initial": {**INITIALS[1], "typo": 2}}, "'typo'"),
        ("simulate", {**simulate_config(), "kernel": {"type": "constant", "c": True}}, "'c'"),
        ("simulate", {**simulate_config(), "graph": GRAPH}, "'graph'"),
        ("simulate", {"graph": GRAPH, "n": 2, "initial": INITIALS[1]}, "'n'"),
        ("simulate", {**simulate_config(), "horizon": 2.0}, "'horizon'"),
        ("simulate", {**simulate_config(), "num_times": 5}, "'num_times'"),
        ("simulate", {**simulate_config(), "rk_tol": 1e-6}, "'rk_tol'"),
        ("simulate", {**simulate_config(), "max_halvings": 8}, "'max_halvings'"),
        ("mc-random", {**mc_config(), "reference_n": 32}, "'reference_n'"),
        ("simulate", {**simulate_config(), "times": [0.0, True]}, "'times'"),
        ("simulate", {**simulate_config(), "times": None, "horizon": True}, "'horizon'"),
        ("simulate", {**simulate_config(), "times": None, "num_times": True}, "'num_times'"),
        ("mc-random", {**mc_config(), "n_ladder": [True]}, "'n_ladder'"),
        ("discretize", {"kernel": KERNELS[4], "n": 4, "graph": GRAPH}, "'graph'"),
        ("simulate", {**simulate_config(), "kernel": {"c": 0.5, "tipe": "constant"}}, "'tipe'"),
        ("simulate", {**simulate_config(), "kernel": {**KERNELS[0], "boundaries": [0, "0.5", 1]}},
         "'boundaries'"),
        ("simulate", {**simulate_config(),
                      "kernel": {**KERNELS[0], "values": [["0.5", 1], [1, 0.25]]}}, "'values'"),
        ("simulate", {**simulate_config(), "initial": {"type": "uniform_cells", "values": ["2"]}},
         "'values'"),
        ("simulate", {**simulate_config(), "times": ["0", "1.5"]}, "'times'"),
    ],
)
def test_reported_defects_exit_2_naming_the_key(command, config, key):
    # each of these ran at exit 0 with the key ignored or read as 1.0
    rc, message = run(command, config)
    assert rc == 2
    assert key in message


@pytest.mark.parametrize(
    "build,spec,key",
    [
        (vl.make_kernel, {"type": "step", "boundaries": [0, 1], "values": [[True]]}, "'values'"),
        (vl.make_kernel, {"type": "product", "boundaries": [0, 1], "f": np.array([True])}, "'f'"),
        (vl.make_initial, {"type": "uniform_cells", "values": [0.5, np.True_]}, "'values'"),
        (vl.make_initial, {"type": "step", "boundaries": [0, True, 1], "values": [1, 2]},
         "'boundaries'"),
    ],
)
def test_python_callers_get_no_booleans_as_numbers(build, spec, key):
    # a boolean inside an array was read as 1.0 unless it came through JSON text
    with pytest.raises(vl.ValidationError, match=key):
        build(spec)


GRAPH_2 = vl.WeightedGraph(GRAPH["weights"])
# Each array argument of the Python API: (call, key, a value holding a boolean,
# a value holding a numeric string).
ARRAY_ARGUMENTS = {
    "Partition": (vl.Partition, "boundaries", [False, True], ["0", "1"]),
    "StepKernel": (lambda v: vl.StepKernel([0, 1], v), "values", [[True]], [["0.5"]]),
    "StepKernel.product": (lambda f: vl.StepKernel.product([0, 1], f), "f", [True], ["0.5"]),
    "InitialCondition": (lambda v: vl.InitialCondition([0, 1], v), "values",
                         np.array([True], dtype=object), ["0.5"]),
    "InitialCondition.from_cell_values": (vl.InitialCondition.from_cell_values, "values",
                                          [True, False], np.array(["1", "0"])),
    "WeightedGraph": (vl.WeightedGraph, "weights", [[False, True], [True, False]],
                      [["0", "1"], ["1", "0"]]),
    "solve_finite u0": (lambda u: vl.solve_finite(GRAPH_2, u, [0.0, 1.0]), "u0",
                        np.array([True, False]), ["1", "0"]),
    "solve_finite times": (lambda t: vl.solve_finite(GRAPH_2, [1.0, 0.0], t), "times",
                           [False, True], ["0", "1"]),
}


@pytest.mark.parametrize("holding", ["boolean", "string"])
@pytest.mark.parametrize("entry", ARRAY_ARGUMENTS)
def test_python_callers_get_no_booleans_or_strings_in_arrays(entry, holding):
    # np.asarray(x, dtype=float) read True as 1.0 and "0.5" as 0.5
    call, key, flag, text = ARRAY_ARGUMENTS[entry]
    with pytest.raises(vl.ValidationError, match=f"value for '{key}'"):
        call(flag if holding == "boolean" else text)


# Each family parameter of the Python API, with the key its JSON spec gives it.
UNIT = vl.StepKernel.constant(1.0)
FAMILY_PARAMETERS = {
    "StepKernel.constant": (vl.StepKernel.constant, "c"),
    "StepKernel.bipartite": (vl.StepKernel.bipartite, "r"),
    "StepKernel.ws_mix": (lambda p: vl.StepKernel.ws_mix(UNIT, p), "p"),
    "StepKernel.direct_sum": (lambda a: vl.StepKernel.direct_sum([(a, UNIT), (0.75, UNIT)]),
                              "weight"),
    "StepKernel.scaled": (UNIT.scaled, "factor"),
    "InitialCondition.constant": (vl.InitialCondition.constant, "c"),
    "InitialCondition.balanced_blocks": (vl.InitialCondition.balanced_blocks, "r"),
}


@pytest.mark.parametrize("value", [True, "0.25"])
@pytest.mark.parametrize("family", FAMILY_PARAMETERS)
def test_python_callers_get_the_schema_kinds(family, value):
    # float() read True as 1.0 and "0.25" as 0.25, where a JSON config refuses both
    build, key = FAMILY_PARAMETERS[family]
    with pytest.raises(vl.ValidationError, match=f"value for '{key}'"):
        build(value)


@pytest.mark.parametrize(
    "text,key",
    [
        ('{"n": 8, "n": 16, "kernel": {"type": "constant", "c": 0.5},'
         ' "initial": {"type": "constant", "c": 0.5}}', "'n'"),
        ('{"n": 8, "kernel": {"type": "constant", "c": 0.5, "c": 0.25},'
         ' "initial": {"type": "constant", "c": 0.5}}', "'c'"),
    ],
)
def test_a_repeated_key_exits_2_naming_it(text, key):
    # json.loads lets the last value win, so n = 8 ran at n = 16
    rc, message = run("simulate", text)
    assert rc == 2
    assert key in message


@pytest.mark.parametrize(
    "command,config,rc",
    [
        ("simulate", {**simulate_config(), "times": None, "horizon": None}, 0),
        ("simulate", {**simulate_config(), "times": None, "num_times": None}, 2),
        ("simulate", {**simulate_config(), "eps": None}, 2),
        ("simulate", {**simulate_config(), "kernel": None}, 2),
        ("simulate", {**simulate_config(), "graph": None}, 2),
        ("convergence", {**mc_config(), "reference_n": None}, 0),
        ("structure", {"kernel": KERNELS[1], "initial": None}, 2),
        ("mc-random", {**mc_config(), "horizon": None}, 0),
        ("mc-random", {**mc_config(), "trials": None}, 2),
    ],
)
def test_null_keeps_its_meaning(command, config, rc):
    # null means "the default" only where the default is no value at all
    assert run(command, config)[0] == rc


@pytest.mark.parametrize(
    "command,config,key",
    [
        ("structure", {"kernel": KERNELS[1], "zero_tol": 0.0}, "zero_tol"),
        ("structure", {"kernel": KERNELS[1], "prop_tol": 1e-10}, "prop_tol"),
        ("simulate", {**simulate_config(), "initial": {**INITIALS[3], "left_amp": 0.5}},
         "left_amp"),
        ("mc-random", {**mc_config(), "initial": {**INITIALS[3], "right_amp": 0.5}},
         "right_amp"),
    ],
)
def test_removed_keys_exit_2_naming_them(command, config, key):
    # the structure tolerances and the block amplitudes are constants
    rc, message = run(command, config)
    assert rc == 2
    assert message.endswith(f"has unknown key {key!r}")


@pytest.mark.parametrize("key", ["left_amp", "right_amp"])
def test_python_callers_get_no_block_amplitudes(key):
    with pytest.raises(vl.ValidationError, match=f"unknown key '{key}'"):
        vl.make_initial({**INITIALS[3], key: 1.0})


@pytest.mark.parametrize(
    "command,config",
    [("simulate", simulate_config())]
    + [(command, mc_config()) for command in ("convergence", "proximity", "mc-random")],
)
def test_the_cli_test_configs_load(command, config):
    _, what, table = cli._COMMANDS[command]
    _schema.read(config, table, what)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_every_benchmark_config_loads(seed, monkeypatch, tmp_path):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    workloads = importlib.import_module("workloads")
    # the graph read-back finds graph.json in its job's directory
    monkeypatch.chdir(tmp_path)
    (tmp_path / "graph.json").write_text(json.dumps(GRAPH))
    for make in workloads.WORKLOADS.values():
        workload = make(seed)
        for call in workload.calls:
            text = json.dumps(workload.configs[call.config], sort_keys=True)
            _, what, table = cli._COMMANDS[call.command]
            _schema.read(_schema.loads(text, "config"), table, what)


def schema_tables():
    tables = [table for _, _, table in cli._COMMANDS.values()]
    tables += [table for _, table in kernels._KERNELS.values()]
    tables += [table for _, table in dynamics._INITIALS.values()]
    return tables + [kernels._PART, graphs._GRAPH]


def test_readme_lists_every_schema_key():
    text = (ROOT / "README.md").read_text()
    section = text.split("\n## Command line\n", 1)[1].split("\n## ", 1)[0]
    keys = {key for table in schema_tables() for key in table} | {"type", "path"}
    keys |= set(kernels._KERNELS) | set(dynamics._INITIALS)
    assert sorted(key for key in keys if f"`{key}`" not in section) == []
