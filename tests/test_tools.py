import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "compare_artifacts.py"


def load_tool():
    spec = importlib.util.spec_from_file_location("compare_artifacts", TOOL)
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
