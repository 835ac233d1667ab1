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

from ._version import __version__
from .dynamics import (
    CONSENSUS_EPS,
    DEFAULT_NUM_TIMES,
    _check_positive,
    average_initial,
    check_method,
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
    MC_MAX_THREADS,
    ExperimentConfig,
    consensus_proximity,
    convergence_study,
    experiment_metadata,
    random_consensus_mc,
)
from .graphs import (
    WeightedGraph,
    _integer,
    _joined_rows,
    _json_loads,
    _real,
    discretize_kernel,
    write_edge_list,
)
from .kernels import make_kernel
from .structure import PROPORTIONALITY_TOL, structure_report

OUT_DIR_ENV = "VOTERLIM_OUT"

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_SIZE = 3
EXIT_SOLVER = 4

_REQUIRED = object()


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


def _load_config(path) -> dict:
    try:
        data = _json_loads(_read(path, "config"))
    except json.JSONDecodeError as exc:
        raise ValidationError(f"config file is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ValidationError("config must be a JSON object")
    return data


def _number(config, key, kind, default=_REQUIRED):
    """config[key] as `kind`, or ValidationError; no default means required.

    A None default lets an absent or null value through as None.
    """
    value = config[key] if default is _REQUIRED else config.get(key, default)
    if value is None and default is None:
        return None
    try:
        return kind(value)
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"malformed config value for {key!r}: {exc}") from exc


def _cmd_simulate(config, out_dir, threads) -> None:
    check_method(config)
    initial = make_initial(config["initial"])
    eps = _number(config, "eps", _real, CONSENSUS_EPS)
    _check_positive("eps", eps)  # before the solve, which may be long
    if "kernel" in config:
        kernel = make_kernel(config["kernel"])
        if "n" not in config:
            raise ValidationError("simulate with a kernel needs a resolution n")
        n = _number(config, "n", _integer)
    elif "graph" in config:
        gspec = config["graph"]
        if isinstance(gspec, dict) and "path" in gspec:
            graph = WeightedGraph.from_json(_read(gspec["path"], "graph"))
        else:
            graph = WeightedGraph._from_dict(gspec)
        kernel, n = None, graph.n
    else:
        raise ValidationError("simulate config needs a 'kernel' or a 'graph'")
    times, horizon, source = resolve_time_grid(
        kernel,
        config.get("horizon"),
        config.get("num_times", DEFAULT_NUM_TIMES),
        config.get("times"),
    )
    if kernel is None:
        traj = solve_finite(graph, average_initial(initial, n), times)
        traj.metadata["initial"] = initial.spec()
    else:
        traj = solve_continuum(kernel, initial, n, times)
    traj.metadata.update(
        {
            "library_version": __version__,
            "resolved": {
                "n": n,
                "horizon": horizon,
                "horizon_source": source,
                "num_times": int(times.size),
                "eps": eps,
            },
            "summary": {
                "final_diameter": consensus_diameter(traj.states[-1]),
                "consensus_time": detect_consensus(traj, eps),
            },
        }
    )
    write_trajectory(traj, os.path.join(out_dir, "trajectory.csv"))
    _write(out_dir, "trajectory_meta.json", traj.metadata)


def _cmd_discretize(config, out_dir, threads) -> None:
    kernel = make_kernel(config["kernel"])
    n = _number(config, "n", _integer)
    graph = discretize_kernel(kernel, n)
    simple = graph.is_simple()
    _write(out_dir, "graph.json", graph.to_json() + "\n")
    if simple:
        write_edge_list(graph, os.path.join(out_dir, "edges.csv"))
    _write(
        out_dir,
        "graph_meta.json",
        {
            "kernel": kernel.spec(),
            "n": n,
            "simple": simple,
            "library_version": __version__,
        },
    )


def _cmd_structure(config, out_dir, threads) -> None:
    kernel = make_kernel(config["kernel"])
    initial = make_initial(config["initial"]) if "initial" in config else None
    zero_tol = _number(config, "zero_tol", _real, 0.0)
    prop_tol = _number(config, "prop_tol", _real, PROPORTIONALITY_TOL)
    report = structure_report(kernel, initial, zero_tol=zero_tol, prop_tol=prop_tol)
    _write(out_dir, "structure.json", report)
    _write(
        out_dir,
        "structure_meta.json",
        {
            "kernel": kernel.spec(),
            "initial": initial.spec() if initial is not None else None,
            "zero_tol": zero_tol,
            "prop_tol": prop_tol,
            "library_version": __version__,
        },
    )


def _cmd_convergence(config, out_dir, threads) -> None:
    cfg = ExperimentConfig.from_dict(config)
    table = convergence_study(cfg, _number(config, "reference_n", _integer, None))
    _write(out_dir, "error_table.csv", table.csv_text())
    _write(
        out_dir,
        "convergence_meta.json",
        experiment_metadata(cfg, reference=table.reference),
    )


def _cmd_proximity(config, out_dir, threads) -> None:
    cfg = ExperimentConfig.from_dict(config)
    report = consensus_proximity(cfg, _number(config, "reference_n", _integer, None))
    _write(out_dir, "proximity.csv", report.csv_text())
    _write(
        out_dir,
        "proximity_meta.json",
        experiment_metadata(cfg, report=report.to_dict()),
    )


def _cmd_mc_random(config, out_dir, threads) -> None:
    cfg = ExperimentConfig.from_dict(config)
    result = random_consensus_mc(cfg, threads=threads)
    _write(out_dir, "mc.csv", result.csv_text())
    _write(out_dir, "mc_meta.json", experiment_metadata(cfg, **result.diagnostics()))


_HANDLERS = {
    "simulate": _cmd_simulate,
    "discretize": _cmd_discretize,
    "structure": _cmd_structure,
    "convergence": _cmd_convergence,
    "proximity": _cmd_proximity,
    "mc-random": _cmd_mc_random,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="voterlim",
        description="Voter dynamics on weighted graphs and graph limits.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _HANDLERS:
        cmd = sub.add_parser(name)
        cmd.add_argument("--config", required=True, help="path to the JSON config")
        cmd.add_argument(
            "--out",
            default=None,
            help=f"output directory (default: ${OUT_DIR_ENV} or the working directory)",
        )
        cmd.add_argument(
            "--threads", type=int, default=1, help="worker threads for trial loops"
        )
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
        _write(out_dir, "error.json", payload)
    except OSError:
        pass
    print(json.dumps(payload), file=sys.stderr)
    return code


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    out_dir = args.out or os.environ.get(OUT_DIR_ENV) or "."
    os.makedirs(out_dir, exist_ok=True)
    try:
        if not 1 <= args.threads <= MC_MAX_THREADS:
            raise ValidationError(f"threads must be between 1 and {MC_MAX_THREADS}")
        config = _load_config(args.config)
        _HANDLERS[args.command](config, out_dir, args.threads)
    except KeyError as exc:
        return _fail(out_dir, ValidationError(f"config missing field {exc}"), EXIT_CONFIG)
    except (ValidationError, DomainError, UnsupportedVariantError) as exc:
        return _fail(out_dir, exc, EXIT_CONFIG)
    except SizeLimitError as exc:
        return _fail(out_dir, exc, EXIT_SIZE)
    except SolverConvergenceError as exc:
        return _fail(out_dir, exc, EXIT_SOLVER)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
