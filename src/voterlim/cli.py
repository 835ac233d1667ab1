"""Command-line front end: JSON configs in, CSV/JSON artifacts out.

Exit codes: 0 success, 2 config or validation problem, 3 size guard,
4 the solution left the representable range.  Failures leave a
machine-readable error.json in the output directory.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import asdict

from ._schema import OPTIONAL, REQUIRED, as_is, count, loads, numbers, positive, read, solver
from ._version import __version__
from .dynamics import (
    CONSENSUS_EPS,
    DEFAULT_NUM_TIMES,
    average_initial,
    consensus_diameter,
    detect_consensus,
    make_initial,
    resolve_time_grid,
    solve_continuum,
    solve_finite,
    write_trajectory,
)
from .errors import (
    DomainError,
    SizeLimitError,
    SolverConvergenceError,
    UnsupportedVariantError,
    ValidationError,
)
from .experiments import (
    _EXPERIMENT,
    ErrorRow,
    ExperimentConfig,
    ProximityRow,
    _table_csv,
    consensus_proximity,
    convergence_study,
    experiment_metadata,
    random_consensus_mc,
)
from .graphs import WeightedGraph, _joined_rows, discretize_kernel, write_edge_list
from .kernels import make_kernel
from .structure import structure_report

OUT_DIR_ENV = "VOTERLIM_OUT"

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_SIZE = 3
EXIT_SOLVER = 4


def _write(out_dir, name, payload) -> None:
    """Write artifact `name` into out_dir: text as given, anything else as JSON.

    The JSON text is `json.dump(payload, indent=2, sort_keys=True)` plus a
    final newline, byte for byte; lists of floats have each distinct value
    formatted once (`_json_text`).
    """
    text = payload if isinstance(payload, str) else _json_text(payload) + "\n"
    with open(os.path.join(out_dir, name), "w", newline="") as fh:
        fh.write(text)


def _json_text(value, depth: int = 0) -> str:
    """`json.dumps(value, indent=2, sort_keys=True)` for a value `depth` levels deep.

    Dicts with string keys and lists are laid out here when they hold a
    container.  A list of floats, or of equal-length lists of floats, is
    formatted by `graphs._joined_rows`; every other value by json itself
    in one call, its line breaks indented to the depth.
    """
    pad = "\n" + "  " * depth
    inner = pad + "  "
    kind = _layout(value)
    if kind == "json":
        return json.dumps(value, indent=2, sort_keys=True).replace("\n", pad)
    if kind == "dict":
        items = [json.dumps(k) + ": " + _json_text(value[k], depth + 1) for k in sorted(value)]
        return "{" + inner + ("," + inner).join(items) + pad + "}"
    if kind == "floats":
        items = _joined_rows([value], "," + inner)
    elif kind == "rows":
        cell = inner + "  "
        items = ["[" + cell + row + inner + "]" for row in _joined_rows(value, "," + cell)]
    else:
        items = [_json_text(v, depth + 1) for v in value]
    return "[" + inner + ("," + inner).join(items) + pad + "]"


def _layout(value) -> str:
    """How `_json_text` writes a value: "dict" or "list" item by item,
    "floats" (a list of floats), "rows" (equal-length non-empty lists of
    floats) or "json" (in one json call)."""
    containers = (dict, list, tuple)
    if isinstance(value, dict):
        nested = all(isinstance(k, str) for k in value) and any(
            isinstance(v, containers) for v in value.values()
        )
        return "dict" if nested else "json"
    if not isinstance(value, (list, tuple)) or not value:
        return "json"
    types = set(map(type, value))
    if types == {float}:
        return "floats"
    if (
        types <= {list, tuple}
        and len(set(map(len, value))) == 1
        and value[0]
        and all(set(map(type, row)) == {float} for row in value)
    ):
        return "rows"
    return "list" if any(issubclass(t, containers) for t in types) else "json"


def _read(path, what: str) -> str:
    """Text of an input file; a file that cannot be read is a ValidationError."""
    if not isinstance(path, str):  # an int would open a file descriptor
        raise ValidationError(f"{what} path must be a string, not {path!r}")
    try:
        with open(path) as fh:
            return fh.read()
    except FileNotFoundError as exc:
        raise ValidationError(f"{what} file not found: {path}") from exc
    except (OSError, UnicodeDecodeError) as exc:
        raise ValidationError(f"{what} file {path} cannot be read: {exc}") from exc


def _make_dir(path) -> None:
    """Make the output directory; a path that cannot be one is a ValidationError."""
    try:
        os.makedirs(path, exist_ok=True)
    except OSError as exc:
        raise ValidationError(f"output directory {path} cannot be made: {exc}") from exc


def _graph(spec) -> WeightedGraph:
    """The graph of a simulate config: {"path": file} of a saved graph, or inline."""
    if isinstance(spec, dict) and "path" in spec:
        path = read(spec, {"path": (as_is, REQUIRED)}, "graph spec").path
        return WeightedGraph.from_json(_read(path, "graph"))
    return WeightedGraph._from_dict(spec)


def _cmd_simulate(cfg, out_dir) -> None:
    if cfg.graph is None and (cfg.kernel is None or cfg.n is None):
        raise ValidationError("simulate config needs a 'graph', or a 'kernel' and its 'n'")
    n = cfg.n if cfg.graph is None else cfg.graph.n
    times, horizon, source = resolve_time_grid(cfg.kernel, cfg.horizon, cfg.num_times, cfg.times)
    if cfg.graph is not None:
        traj = solve_finite(cfg.graph, average_initial(cfg.initial, n), times)
        traj.metadata["initial"] = cfg.initial.spec()
    else:
        traj = solve_continuum(cfg.kernel, cfg.initial, n, times)
    final, settled = consensus_diameter(traj.states[-1]), detect_consensus(traj, cfg.eps)
    summary = {"final_diameter": final, "consensus_time": settled}
    resolved = dict(n=n, horizon=horizon, horizon_source=source, num_times=times.size, eps=cfg.eps)
    traj.metadata.update(library_version=__version__, resolved=resolved, summary=summary)
    write_trajectory(traj, os.path.join(out_dir, "trajectory.csv"))
    _write(out_dir, "trajectory_meta.json", traj.metadata)


def _cmd_discretize(cfg, out_dir) -> None:
    graph = discretize_kernel(cfg.kernel, cfg.n)
    simple = graph.is_simple()
    _write(out_dir, "graph.json", graph.to_json() + "\n")
    if simple:
        write_edge_list(graph, os.path.join(out_dir, "edges.csv"))
    meta = {"kernel": cfg.kernel.spec(), "n": cfg.n, "simple": simple}
    _write(out_dir, "graph_meta.json", {**meta, "library_version": __version__})


def _cmd_structure(cfg, out_dir) -> None:
    _write(out_dir, "structure.json", structure_report(cfg.kernel, cfg.initial))
    initial = cfg.initial.spec() if cfg.initial is not None else None
    meta = {"kernel": cfg.kernel.spec(), "initial": initial}
    _write(out_dir, "structure_meta.json", {**meta, "library_version": __version__})


def _cmd_convergence(cfg, out_dir) -> None:
    experiment = ExperimentConfig._of(cfg)
    table = convergence_study(experiment, cfg.reference_n)
    _write(out_dir, "error_table.csv", _table_csv(ErrorRow, table.rows))
    meta = experiment_metadata(experiment, reference=table.reference)
    _write(out_dir, "convergence_meta.json", meta)


def _cmd_proximity(cfg, out_dir) -> None:
    experiment = ExperimentConfig._of(cfg)
    report = consensus_proximity(experiment, cfg.reference_n)
    _write(out_dir, "proximity.csv", _table_csv(ProximityRow, report.rows))
    meta = experiment_metadata(experiment, report=asdict(report))
    _write(out_dir, "proximity_meta.json", meta)


def _cmd_mc_random(cfg, out_dir) -> None:
    experiment = ExperimentConfig._of(cfg)
    result = random_consensus_mc(experiment)
    _write(out_dir, "mc.csv", result.csv_text())
    _write(out_dir, "mc_meta.json", experiment_metadata(experiment, **result.diagnostics()))


# Each subcommand: (handler, what its config is called in errors, its keys).
# Builders run through their module names, so that patched names see the calls.
_SIMULATE = {
    "kernel": (lambda spec: make_kernel(spec), OPTIONAL),
    "n": (count, OPTIONAL),
    "graph": (_graph, OPTIONAL, "kernel", "n"),
    "initial": (lambda spec: make_initial(spec), REQUIRED),
    "horizon": (as_is, None),
    "num_times": (as_is, DEFAULT_NUM_TIMES),
    "times": (numbers, None, "horizon", "num_times"),
    "eps": (positive, CONSENSUS_EPS),
    "method": (solver, "expm"),
}
_STRUCTURE = {
    "kernel": (lambda spec: make_kernel(spec), REQUIRED),
    "initial": (lambda spec: make_initial(spec), OPTIONAL),
}
_DISCRETIZE = {"kernel": (lambda spec: make_kernel(spec), REQUIRED), "n": (count, REQUIRED)}
_WITH_REFERENCE = {**_EXPERIMENT, "reference_n": (count, None)}
_COMMANDS = {
    "simulate": (_cmd_simulate, "simulate config", _SIMULATE),
    "discretize": (_cmd_discretize, "discretize config", _DISCRETIZE),
    "structure": (_cmd_structure, "structure config", _STRUCTURE),
    "convergence": (_cmd_convergence, "experiment config", _WITH_REFERENCE),
    "proximity": (_cmd_proximity, "experiment config", _WITH_REFERENCE),
    "mc-random": (_cmd_mc_random, "experiment config", _EXPERIMENT),
}

# --threads is kept only because perfbench/run.py passes it to every call.  It
# must still be 1 to 64, as when it sized the Monte Carlo thread pool, and has
# no other effect.  Delete it, these lines and the `_check_threads` call in
# `main` with that harness edit (ROADMAP item 1).
_THREADS = {"type": int, "default": 1, "help": "no effect; must be 1 to 64"}


def _check_threads(threads: int) -> None:
    if not 1 <= threads <= 64:
        raise ValidationError("threads must be between 1 and 64")


class _Parser(argparse.ArgumentParser):
    """An argument parser whose errors are ValidationErrors, so that they take
    `main`'s error path instead of argparse's usage line and exit."""

    def error(self, message):
        raise ValidationError(f"{self.prog}: {message}")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="voterlim",
        description="Voter dynamics on weighted graphs and graph limits.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        cmd = sub.add_parser(name)
        cmd.add_argument("--config", required=True, help="path to the JSON config")
        cmd.add_argument(
            "--out",
            default=None,
            help=f"output directory (default: ${OUT_DIR_ENV} or the working directory)",
        )
        cmd.add_argument("--threads", **_THREADS)
    return parser


def _fail(out_dir, exc, code: int) -> int:
    payload = {
        "error": {
            "type": type(exc).__name__,
            "message": str(exc),
            "exit_code": code,
        }
    }
    try:
        os.makedirs(out_dir, exist_ok=True)
        _write(out_dir, "error.json", payload)
    except OSError:
        pass
    print(json.dumps(payload), file=sys.stderr)
    return code


def _out_dir(argv) -> str:
    """The output directory: --out if it parses, else $VOTERLIM_OUT, else the
    working directory.  Read apart from the other arguments, so that their
    errors are written there too."""
    parser = _Parser(add_help=False)
    parser.add_argument("--out")
    try:
        out = parser.parse_known_args(argv)[0].out
    except ValidationError:
        out = None
    return out or os.environ.get(OUT_DIR_ENV) or "."


def main(argv=None) -> int:
    out_dir = _out_dir(argv)
    try:
        args = _build_parser().parse_args(argv)
        _make_dir(out_dir)
        _check_threads(args.threads)
        handler, what, table = _COMMANDS[args.command]
        config = loads(_read(args.config, "config"), "config")
        handler(read(config, table, what), out_dir)
    except (ValidationError, DomainError, UnsupportedVariantError) as exc:
        return _fail(out_dir, exc, EXIT_CONFIG)
    except SizeLimitError as exc:
        return _fail(out_dir, exc, EXIT_SIZE)
    except SolverConvergenceError as exc:
        return _fail(out_dir, exc, EXIT_SOLVER)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
