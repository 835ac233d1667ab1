"""Tests of the benchmark's own arithmetic and tracing.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path.insert(0, str(SRC))

import jobs  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
from spans import Span  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def _span(name, start, end, parent=None, layer="cli"):
    return Span(name, layer, start, end, parent, "job-1")


def test_self_time_of_nested_spans():
    trace = [
        _span("root", 0.0, 10.0),
        _span("a", 1.0, 4.0, parent=0),
        _span("a.inner", 2.0, 3.0, parent=1),
        _span("b", 5.0, 6.5, parent=0),
    ]
    assert spans.self_times(trace) == pytest.approx([5.5, 2.0, 1.0, 1.5])
    assert sum(spans.self_times(trace)) == pytest.approx(spans.root_time(trace))


def test_overlapping_children_are_covered_once():
    trace = [
        _span("root", 0.0, 10.0),
        _span("x", 1.0, 5.0, parent=0),
        _span("y", 3.0, 7.0, parent=0),
        _span("z", 9.0, 12.0, parent=0),  # clipped to the parent's end
    ]
    assert spans.self_times(trace)[0] == pytest.approx(10.0 - 6.0 - 1.0)


def test_concat_reindexes_parents():
    first = [_span("p", 0.0, 2.0), _span("c", 0.5, 1.0, parent=0)]
    second = [_span("p", 3.0, 4.0), _span("c", 3.2, 3.4, parent=0)]
    merged = spans.concat([first, second])
    assert [s.parent for s in merged] == [None, 0, None, 2]
    assert spans.per_name(merged)["p"]["self_s"] == pytest.approx(1.5 + 0.8)


@pytest.mark.parametrize("n", [11, 12, 20, 40, 100])
def test_tail_has_ten_samples_beyond(n):
    values = [float(v) for v in range(n, 0, -1)]
    value, percentile = jobs.tail(values)
    assert sum(v > value for v in values) == jobs.TAIL_BEYOND
    assert percentile == pytest.approx(100.0 * (n - 10) / n)


def test_tail_with_ties_and_too_few_samples():
    assert jobs.tail([1.0] * 5 + [2.0] * 10) == (1.0, pytest.approx(100 * 5 / 15))
    with pytest.raises(ValueError):
        jobs.tail([1.0] * 10)


def _bindings():
    """Every place a target can be bound: voterlim namespaces, class dicts, numpy.linalg."""
    import numpy.linalg
    import voterlim.cli  # noqa: F401  (imports every voterlim module)

    out = {}
    for name, module in sorted(sys.modules.items()):
        if name == "voterlim" or name.startswith("voterlim."):
            for attr, value in vars(module).items():
                out[(name, attr)] = value
                if isinstance(value, type) and value.__module__.startswith("voterlim"):
                    for member, obj in vars(value).items():
                        out[(name, attr, member)] = obj
    for attr in ("eigh", "eigvalsh"):
        out[("numpy.linalg", attr)] = getattr(numpy.linalg, attr)
    return out


def test_install_wraps_every_target_and_restore_undoes_it():
    before = _bindings()
    recorder = spans.Recorder("job-1")
    installed = spans.install(recorder)
    try:
        assert installed.missing == []
        import voterlim
        import voterlim.cli
        import voterlim.experiments

        assert voterlim.cli.solve_continuum is voterlim.experiments.solve_continuum
        assert voterlim.solve_continuum is voterlim.cli.solve_continuum
        original = before[("voterlim.dynamics", "solve_continuum")]
        assert voterlim.cli.solve_continuum.__wrapped__ is original
        kernel = voterlim.make_kernel({"type": "bipartite", "r": 0.25})
        graph = voterlim.WeightedGraph.from_json(voterlim.discretize_kernel(kernel, 8).to_json())
        assert graph.n == 8
        voterlim.solve_continuum(kernel, voterlim.InitialCondition.constant(0.5), 8, [0.0, 1.0])
    finally:
        installed.restore()
    after = _bindings()
    assert after.keys() == before.keys()
    changed = [key for key in before if after[key] is not before[key]]
    assert changed == []
    names = [s.name for s in recorder.spans]
    for name in ("kernels.make_kernel", "graphs.WeightedGraph.from_json",
                 "dynamics.solve_continuum", "dynamics.solve_finite", "numpy.linalg.eigh"):
        assert name in names
    eigh = next(s for s in recorder.spans if s.name == "numpy.linalg.eigh")
    assert recorder.spans[eigh.parent].name == "dynamics.solve_finite"
    assert eigh.work == 8 ** 3


def test_every_span_counts_in_exactly_one_self_time_metric():
    listed = [name for names in run.SELF_TIME.values() for name in names]
    assert sorted(listed) == sorted(spans.span_name(m, q) for _, m, q, _ in spans.TARGETS)
    layers = {spans.span_name(m, q): layer for layer, m, q, _ in spans.TARGETS}
    for metric, names in run.SELF_TIME.items():
        assert {layers[n] for n in names} == {metric.split(".")[0]}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_gives_byte_identical_configs(name, tmp_path):
    WORKLOADS[name](7).write_configs(tmp_path / "a")
    WORKLOADS[name](7).write_configs(tmp_path / "b")
    WORKLOADS[name](8).write_configs(tmp_path / "c")
    files = sorted(p.name for p in (tmp_path / "a").iterdir())
    assert files == sorted(p.name for p in (tmp_path / "b").iterdir())
    for f in files:
        assert (tmp_path / "a" / f).read_bytes() == (tmp_path / "b" / f).read_bytes()
    other = [(tmp_path / "c" / f).read_bytes() for f in files]
    assert other != [(tmp_path / "a" / f).read_bytes() for f in files]


def test_traced_cli_accounts_for_the_call(tmp_path):
    config = tmp_path / "sim.json"
    config.write_text(json.dumps({
        "kernel": {"type": "bipartite", "r": 0.25}, "n": 16,
        "initial": {"type": "balanced_blocks", "r": 0.25}, "horizon": 1.0, "num_times": 5,
    }))
    trace_file = tmp_path / "spans.json"
    env = {"PYTHONPATH": str(SRC), "PATH": ""}
    proc = subprocess.run(
        [sys.executable, str(HERE / "traced_cli.py"), str(trace_file), "job-9",
         "simulate", "--config", str(config), "--out", str(tmp_path / "out")],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    recorded = json.loads(trace_file.read_text())
    assert recorded["missing"] == []
    trace = spans.spans_from_json(recorded["spans"])
    roots = [s for s in trace if s.parent is None]
    assert [s.name for s in roots] == ["cli.main"]
    assert {s.job for s in trace} == {"job-9"}
    assert sum(spans.self_times(trace)) == pytest.approx(roots[0].duration)
    assert (tmp_path / "out" / "trajectory.csv").is_file()


def test_traced_cli_records_errors_that_leave_a_span(tmp_path):
    config = tmp_path / "bad.json"
    config.write_text(json.dumps({"kernel": {"type": "no-such-kernel"}, "n": 4}))
    trace_file = tmp_path / "spans.json"
    proc = subprocess.run(
        [sys.executable, str(HERE / "traced_cli.py"), str(trace_file), "job-1",
         "discretize", "--config", str(config), "--out", str(tmp_path / "out")],
        env={"PYTHONPATH": str(SRC), "PATH": ""}, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 2
    trace = spans.spans_from_json(json.loads(trace_file.read_text())["spans"])
    assert spans.layer_errors(trace) == {
        "kernels": 1, "graphs": 0, "dynamics": 0, "structure": 0, "experiments": 0, "cli": 0,
    }
