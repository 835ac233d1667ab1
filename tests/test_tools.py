import ast
import importlib.util
import sys
from pathlib import Path
from types import SimpleNamespace

import voterlim as vl

ROOT = Path(__file__).resolve().parent.parent
TOOLS = ROOT / "tools"
PERFBENCH = ROOT / "perfbench"


def load_tool(name="compare_artifacts"):
    spec = importlib.util.spec_from_file_location(name, TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_compare_lists_changed_and_one_sided_files(tmp_path):
    tool = load_tool()
    a, b = tmp_path / "a", tmp_path / "b"
    for side, text in ((a, "1.0\n"), (b, "1.0000000000000002\n")):
        (side / "sub").mkdir(parents=True)
        (side / "same.csv").write_text("t,cell_0\n")
        (side / "sub" / "changed.csv").write_text(text)
    (a / "only_a.json").write_text("{}")
    count, differ = tool.compare(a, b)
    assert count == 2
    assert differ == ["only_a.json (one side only)", str(Path("sub") / "changed.csv")]


def test_compare_accepts_identical_trees(tmp_path):
    tool = load_tool()
    for side in ("a", "b"):
        (tmp_path / side).mkdir()
        (tmp_path / side / "mc.csv").write_bytes(b"n,trial\n64,0\n")
    assert tool.compare(tmp_path / "a", tmp_path / "b") == (1, [])


def test_describe_csv_counts_fields_and_the_largest_gap(tmp_path):
    tool = load_tool()
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    a.write_text("t,cell_0,cell_1\n0.0,1.0,0.5\n1.0,0.25,-0.0\n")
    b.write_text("t,cell_0,cell_1\n0.0,1.0000000000000002,0.5\n1.0,0.25,0.0\n")
    assert tool.describe_csv(a, b) == (
        "2 of 9 fields differ, largest absolute difference 2.22e-16"
    )
    b.write_text("t,cell_0,cell_x\n0.0,1.0,0.5\n1.0,0.5,-0.0\n")
    assert tool.describe_csv(a, b) == (
        "2 of 9 fields differ, 1 of them not numeric, largest absolute difference 0.25"
    )
    b.write_text("t,cell_0,cell_1\n0.0,1.0,0.5\n")
    assert tool.describe_csv(a, b) == "row counts or widths differ (3 and 2 rows)"


def test_main_prints_how_a_csv_differs_and_exits_1(tmp_path, monkeypatch, capsys):
    tool = load_tool()

    class Job:
        def write_configs(self, directory):
            directory.mkdir(parents=True)

    def run_job(tree, wl, configs, out):
        out.mkdir(parents=True)
        value = "1.0" if tree == tool.ROOT else "1.0000000000000002"
        (out / "mc.csv").write_text(f"n,x\n64,{value}\n")
        (out / "meta.json").write_text("{}")
        return [0]

    monkeypatch.setattr(tool, "WORKLOADS", {"fake": lambda seed: Job()})
    monkeypatch.setattr(tool, "run_job", run_job)
    assert tool.main([str(tmp_path), "--seeds", "1"]) == 1
    out = capsys.readouterr().out
    assert "fake seed 1: mc.csv (1 of 4 fields differ, largest absolute difference 2.22e-16)" in out
    assert "2 files compared, 1 problems" in out


def test_describe_json_tells_text_from_value_changes(tmp_path):
    tool = load_tool()
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    a.write_text('{\n  "k": [1.0, -0.0, NaN],\n  "m": {"x": 2}\n}\n')
    b.write_text('{"m": {"x": 2}, "k": [1.0, -0.0, NaN]}')
    assert tool.describe_json(a, b) == "equal as parsed JSON"
    b.write_text('{"k": [1.0000000000000002, 0.0, NaN], "m": {"x": 2.5}}')
    assert tool.describe_json(a, b) == (
        "3 of 4 leaves differ, first at /k/0, largest numeric gap 0.5"
    )
    b.write_text('{"k": [1.0, -0.0, NaN], "m": {"x": 2, "y": []}}')
    assert tool.describe_json(a, b) == "1 of 5 leaves differ, first at /m/y"
    b.write_text("{not json")
    assert tool.describe_json(a, b) == "not valid JSON on both sides"


def test_main_prints_how_a_json_file_differs(tmp_path, monkeypatch, capsys):
    tool = load_tool()

    class Job:
        def write_configs(self, directory):
            directory.mkdir(parents=True)

    def run_job(tree, wl, configs, out):
        out.mkdir(parents=True)
        ours = tree == tool.ROOT
        (out / "text.json").write_text('{"a": 1.0}' if ours else '{"a": 1.00}')
        (out / "value.json").write_text('{"a": [1.0, 2]}' if ours else '{"a": [1.5, 2]}')
        return [0]

    monkeypatch.setattr(tool, "WORKLOADS", {"fake": lambda seed: Job()})
    monkeypatch.setattr(tool, "run_job", run_job)
    assert tool.main([str(tmp_path), "--seeds", "1"]) == 1
    out = capsys.readouterr().out
    assert "fake seed 1: text.json (equal as parsed JSON)" in out
    assert (
        "fake seed 1: value.json (1 of 2 leaves differ, first at /a/0, largest numeric gap 0.5)"
    ) in out
    assert "2 files compared, 2 problems" in out


def test_ab_summary_gives_the_median_and_inclusive_quartiles():
    tool = load_tool("ab_jobs")
    assert tool.summary([5.0, 1.0, 3.0, 2.0, 4.0], [2048, 1024, 4096, 3072, 1024]) == {
        "jobs": 5, "median": 3.0, "q1": 2.0, "q3": 4.0, "rss_mb": 2.0,
    }
    assert tool.summary([1.0, 2.0, 3.0, 4.0], [1024, 2048, 5120, 1024]) == {
        "jobs": 4, "median": 2.5, "q1": 1.75, "q3": 3.25, "rss_mb": 1.5,
    }


def test_ab_report_pairs_jobs_and_counts_only_wins():
    tool = load_tool("ab_jobs")
    # the second pair is a tie and the fourth a loss: neither counts as a win
    lines = tool.report(
        {"this": [1.0, 4.0, 3.0, 4.0], "other": [2.0, 4.0, 6.0, 2.0]},
        {"this": [38912, 39936, 38912, 40960], "other": [59392, 59392, 60416, 58368]},
    )
    assert lines == [
        "this: median 3.500 s, quartiles 2.500-4.000 s (4 jobs), median peak RSS 38.5 MB",
        "other: median 3.000 s, quartiles 2.000-4.500 s (4 jobs), median peak RSS 58.0 MB",
        "median change +16.7 %; this tree faster in 2 of 4 pairs",
    ]


def test_ab_verdict_needs_nine_tenths_of_the_pairs_and_a_gap_past_the_spread():
    tool = load_tool("ab_jobs")
    other = [1.0, 1.1, 1.2, 1.3, 1.4, 1.5, 1.6, 1.7, 1.8, 1.9]  # median 1.45, IQR 0.45
    faster = [t - 0.5 for t in other]
    assert tool.verdict({"this": faster, "other": other}) == (
        "claim holds: this tree faster in 10 of 10 pairs (needs 9),"
        " medians +0.500 s apart against the other tree's interquartile range 0.450 s"
    )
    # one tie and one loss: 8 of 10 won
    mixed = faster[:8] + [other[8], other[9] + 0.5]
    assert tool.verdict({"this": mixed, "other": other}).startswith(
        "claim not met: this tree faster in 8 of 10 pairs (needs 9)"
    )
    # every pair won, but by less than the spread of the other tree's runs
    close = [t - 0.25 for t in other]
    assert tool.verdict({"this": close, "other": other}) == (
        "claim not met: this tree faster in 10 of 10 pairs (needs 9),"
        " medians +0.250 s apart against the other tree's interquartile range 0.450 s"
    )
    assert "(needs 10)" in tool.verdict({"this": faster + [1.0], "other": other + [2.0]})


def test_ab_ratio_report_gives_quartiles_and_counts_only_wins():
    tool = load_tool("ab_jobs")
    # the second pair is a tie and the third a loss: neither counts as a win
    lines = tool.ratio_report(
        {"this": [1.5, 2.0, 3.0, 1.0, 2.5], "other": [2.0, 2.0, 2.5, 3.0, 3.5]}
    )
    assert lines == [
        "this: job / import probe median 2.000, quartiles 1.500-2.500",
        "other: job / import probe median 2.500, quartiles 2.000-3.000",
        "this tree lower on job / import probe in 3 of 5 pairs",
    ]


def test_ab_blas_line_names_the_inherited_setting_or_unset():
    tool = load_tool("ab_jobs")
    assert tool.blas_line({"OPENBLAS_NUM_THREADS": "2"}) == (
        "jobs and import probes inherit OPENBLAS_NUM_THREADS=2"
    )
    unset = tool.blas_line({"PYTHONPATH": "x"})
    assert unset.startswith("jobs and import probes inherit OPENBLAS_NUM_THREADS unset: ")
    assert "job / import probe does not cancel the host's BLAS phase" in unset


def test_ab_import_probe_times_one_import_of_the_tree(tmp_path, monkeypatch):
    tool = load_tool("ab_jobs")
    calls = []

    def spawn(argv, cwd, env, stderr_path):
        calls.append((argv[1:], env))
        return SimpleNamespace(wall_s=0.125, maxrss_kb=1, code=0)

    monkeypatch.setattr(tool, "spawn", spawn)
    assert tool.import_probe(tmp_path, tmp_path, {"PYTHONPATH": "x"}) == 0.125
    assert calls == [(["-c", "import voterlim.cli"], {"PYTHONPATH": "x"})]


def test_ab_run_job_sums_walls_and_keeps_the_largest_peak(tmp_path, monkeypatch):
    tool = load_tool("ab_jobs")
    procs = iter([SimpleNamespace(wall_s=0.25, maxrss_kb=40000, code=0),
                  SimpleNamespace(wall_s=0.5, maxrss_kb=30000, code=0)])
    monkeypatch.setattr(tool, "spawn", lambda *args: next(procs))
    job = SimpleNamespace(calls=[SimpleNamespace(command=c, config=c) for c in "ab"])
    assert tool.run_job(tmp_path, job, tmp_path, tmp_path, {}) == (0.75, 40000)
    assert not (tmp_path / "out").exists()


# The benchmark names library functions by their qualified names and
# imports others by name; these two checks keep every such name present.


def test_every_perfbench_span_target_exists(monkeypatch):
    import voterlim.cli  # noqa: F401  (imports every voterlim module)

    spec = importlib.util.spec_from_file_location("perfbench_spans", PERFBENCH / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    # its dataclass resolves its annotations through sys.modules
    monkeypatch.setitem(sys.modules, spec.name, spans)
    spec.loader.exec_module(spans)
    installed = spans.install(spans.Recorder("job-1"))
    try:
        assert installed.missing == []
    finally:
        installed.restore()


def test_every_name_perfbench_imports_from_voterlim_exists():
    imported = [
        (path.name, alias.name)
        for path in sorted(PERFBENCH.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.ImportFrom) and node.module == "voterlim"
        for alias in node.names
    ]
    assert len(imported) >= 5
    assert [(f, name) for f, name in imported if not hasattr(vl, name)] == []
