"""Source hygiene that a linter would check: no dead imports, a clean `__all__`,
one module deciding the bits of the discretisation and no unlisted defaulted
parameter in the public API."""

import ast
from collections import Counter
from pathlib import Path

import voterlim as vl

SRC = Path(vl.__file__).resolve().parent


def _imported_names(tree):
    """Names bound by the module-level imports of a parsed module."""
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name


def test_imports_are_used_and_all_is_unique():
    unused = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        if path.name == "__init__.py":
            used |= set(vl.__all__)  # re-exports
        unused += [f"{path.name}: {name}" for name in _imported_names(tree) if name not in used]
    assert unused == []
    repeated = [name for name, count in Counter(vl.__all__).items() if count > 1]
    assert repeated == []
    assert [name for name in vl.__all__ if not hasattr(vl, name)] == []


def test_no_module_imports_csv():
    # every CSV is one dialect with newline line ends: written by f-strings
    # (`csv_text`, `write_trajectory`, `write_edge_list`) and read by numpy
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                found += [f"{path.name}: {a.name}" for a in node.names if a.name == "csv"]
            elif isinstance(node, ast.ImportFrom) and node.module == "csv":
                found.append(f"{path.name}: from csv")
    assert found == []


CONFIG_READERS = ("from_dict", "_from_dict", "make_kernel", "make_initial")


def _raw_reads(function):
    """Subscripts and .get calls of the function's own parameters."""
    params = {arg.arg for arg in function.args.args + function.args.kwonlyargs}
    for node in ast.walk(function):
        if isinstance(node, ast.Subscript):
            target = node.value
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            target = node.func.value if node.func.attr == "get" else None
        else:
            continue
        if isinstance(target, ast.Name) and target.id in params:
            yield f"{function.name}: {ast.unparse(node)}"


def test_config_readers_leave_raw_mappings_to_the_schema():
    # a raw config[...] or config.get(...) would read a key that no table
    # declares, so a misspelt or unknown key would pass unnoticed
    readers, raw = [], []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.FunctionDef) and (
                node.name in CONFIG_READERS or node.name.startswith("_cmd_")
            ):
                readers.append(node.name)
                raw += [f"{path.name}: {read}" for read in _raw_reads(node)]
    assert raw == []
    assert set(CONFIG_READERS) <= set(readers)
    assert len([name for name in readers if name.startswith("_cmd_")]) == 6


def _referenced_names(tree):
    """Names a parsed module binds, reads or reaches as an attribute."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name
    yield from _imported_names(tree)


def test_one_module_decides_the_discretisation_bits():
    # the discretisation's weights are symmetrised once, in
    # graphs.pixel_classes, and a graph's twin classes are found by one
    # function, graphs.byte_classes
    symmetrising, twin_searches = [], []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        if "symmetric_unit_matrix" in set(_referenced_names(tree)):
            symmetrising.append(path.name)
        twin_searches += [
            path.name
            for node in ast.walk(tree)
            if isinstance(node, ast.FunctionDef) and node.name == "twin_classes"
        ]
    assert symmetrising == ["graphs.py", "kernels.py"]
    assert twin_searches == []


def test_one_reader_decides_the_size_guard():
    # graphs._size reads every vertex count and alone raises SizeLimitError,
    # so the ceiling and its message are the same on every entry path
    raisers, size_checks = [], []
    for path in sorted(SRC.glob("*.py")):
        for function in ast.walk(ast.parse(path.read_text())):
            if not isinstance(function, ast.FunctionDef):
                continue
            if function.name == "_check_size":
                size_checks.append(path.name)
            raisers += [
                f"{path.name}: {function.name}"
                for node in ast.walk(function)
                if isinstance(node, ast.Raise)
                and "SizeLimitError" in {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}
            ]
    assert raisers == ["graphs.py: _size"]
    assert size_checks == []


# Every defaulted parameter of the public API (`voterlim.__all__`): its
# functions, and the public methods and __init__ of its classes; dataclass
# fields are not parameters here.  A default that no caller varies is a
# setting to make a constant, so a new one is listed here on purpose.
DEFAULTED = [
    "InitialCondition.integral(a)",
    "InitialCondition.integral(b)",
    "Trajectory.__init__(metadata)",
    "blow_up(scale)",
    "consensus_proximity(reference_n)",
    "convergence_study(reference_n)",
    "default_horizon(kernel)",
    "structure_report(g)",
]


def _defaulted(function, owner=""):
    """`owner.name(param)` for each parameter of a parsed function with a default."""
    args = function.args
    positional = args.posonlyargs + args.args
    params = positional[len(positional) - len(args.defaults):]
    params += [arg for arg, default in zip(args.kwonlyargs, args.kw_defaults) if default]
    return [f"{owner}{function.name}({arg.arg})" for arg in params]


def test_public_defaulted_parameters_are_listed():
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            name = getattr(node, "name", None)
            if name not in vl.__all__ or getattr(vl, name).__module__ != f"voterlim.{path.stem}":
                continue
            if isinstance(node, ast.FunctionDef):
                found += _defaulted(node)
            elif isinstance(node, ast.ClassDef):
                for method in node.body:
                    if isinstance(method, ast.FunctionDef) and (
                        not method.name.startswith("_") or method.name == "__init__"
                    ):
                        found += _defaulted(method, f"{node.name}.")
    assert sorted(found) == DEFAULTED
