"""Span recording around voterlim's public functions, and span arithmetic.

`install(recorder)` wraps every function in `TARGETS` with a recorder of
spans (name, layer, start, end, parent, job id, error flag, work count) and
returns a handle whose `restore()` puts every original back.  A function
is replaced in every `voterlim.*` module namespace that binds it, because
`cli` and `experiments` import by name.  `numpy.linalg.eigh` and
`eigvalsh` are wrapped too, so the dense solver core shows apart from the
mode synthesis around it.  Nothing in the library itself changes.
"""

from __future__ import annotations

import functools
import math
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass


def _dense_cells(args, result):
    return args[0].n ** 2


def _n_cubed(args, result):
    return args[0].shape[-1] ** 3


def _trials(args, result):
    return len(result.rows)


# (layer, owner module, qualified name, work count of one call or None)
TARGETS = (
    ("kernels", "voterlim.kernels", "make_kernel", None),
    ("kernels", "voterlim.kernels", "Kernel.as_step", None),
    ("kernels", "voterlim.kernels", "StepKernel.as_step", None),
    ("kernels", "voterlim.kernels", "overlap_matrix", None),
    ("graphs", "voterlim.graphs", "discretize_kernel", None),
    ("graphs", "voterlim.graphs", "sample_w_random", None),
    ("graphs", "voterlim.graphs", "WeightedGraph.__init__", _dense_cells),
    ("graphs", "voterlim.graphs", "laplacian", None),
    ("graphs", "voterlim.graphs", "WeightedGraph.to_json", None),
    ("graphs", "voterlim.graphs", "WeightedGraph.from_json", None),
    ("dynamics", "numpy.linalg", "eigh", _n_cubed),
    ("dynamics", "numpy.linalg", "eigvalsh", _n_cubed),
    ("dynamics", "voterlim.dynamics", "solve_finite", None),
    ("dynamics", "voterlim.dynamics", "solve_continuum", None),
    ("dynamics", "voterlim.dynamics", "write_trajectory", None),
    ("dynamics", "voterlim.dynamics", "step_l2_distance", None),
    ("dynamics", "voterlim.dynamics", "step_exceedance_measure", None),
    ("dynamics", "voterlim.dynamics", "exceptional_measure", None),
    ("structure", "voterlim.structure", "find_maximal_twin_sets", None),
    ("structure", "voterlim.structure", "connected_components", None),
    ("experiments", "voterlim.experiments", "ExperimentConfig.from_dict", None),
    ("experiments", "voterlim.experiments", "convergence_study", None),
    ("experiments", "voterlim.experiments", "consensus_proximity", None),
    ("experiments", "voterlim.experiments", "random_consensus_mc", _trials),
    ("cli", "voterlim.cli", "main", None),
)

LAYERS = ("kernels", "graphs", "dynamics", "structure", "experiments", "cli")


@dataclass
class Span:
    name: str
    layer: str
    start: float
    end: float
    parent: int | None  # index of the enclosing span in the same process
    job: str
    error: bool = False
    work: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start


class Recorder:
    """Keeps the spans of one process in memory until they are written out.

    Parents are tracked per thread; a span opened in a worker thread has
    no parent, so traced jobs run with one thread.
    """

    def __init__(self, job: str):
        self.job = job
        self.spans: list[Span] = []
        self._local = threading.local()

    def wrap(self, fn, name: str, layer: str, work=None):
        recorder = self

        def traced(*args, **kwargs):
            stack = recorder._stack()
            span = Span(name, layer, 0.0, 0.0, stack[-1] if stack else None, recorder.job)
            stack.append(len(recorder.spans))
            recorder.spans.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span.error = True
                raise
            finally:
                span.end = time.perf_counter()
                stack.pop()
            if work is not None:
                span.work = float(work(args, result))
            return result

        return functools.wraps(fn)(traced)

    def _stack(self) -> list:
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def to_json(self) -> list:
        return [
            [s.name, s.layer, s.start, s.end, s.parent, s.job, s.error, s.work]
            for s in self.spans
        ]


def spans_from_json(rows) -> list[Span]:
    return [Span(*row) for row in rows]


def concat(groups) -> list[Span]:
    """One list of the spans of several processes, parents re-indexed."""
    out: list[Span] = []
    for group in groups:
        offset = len(out)
        for s in group:
            parent = None if s.parent is None else s.parent + offset
            out.append(Span(s.name, s.layer, s.start, s.end, parent, s.job, s.error, s.work))
    return out


class Installation:
    """Wrapped functions of one `install` call; `restore` undoes all of them."""

    def __init__(self):
        self.patches: list[tuple[object, str, object]] = []  # (namespace, attr, original)
        self.missing: list[str] = []

    def restore(self) -> None:
        for owner, attr, original in reversed(self.patches):
            setattr(owner, attr, original)
        self.patches.clear()


def span_name(module_name: str, qualname: str) -> str:
    """`cli.main`, `graphs.WeightedGraph.__init__`, `numpy.linalg.eigh`."""
    return f"{module_name.removeprefix('voterlim.')}.{qualname}"


def install(recorder: Recorder, targets=TARGETS) -> Installation:
    """Wrap every target that exists; record the ones that do not in `missing`."""
    inst = Installation()
    for layer, module_name, qualname, work in targets:
        module = sys.modules.get(module_name)
        owner, _, attr = qualname.rpartition(".")
        holder = getattr(module, owner, None) if owner else module
        if holder is None or attr not in vars(holder):
            inst.missing.append(f"{module_name}.{qualname}")
            continue
        name = span_name(module_name, qualname)
        original = vars(holder)[attr]
        if isinstance(original, classmethod):
            wrapped = classmethod(recorder.wrap(original.__func__, name, layer, work))
        else:
            wrapped = recorder.wrap(original, name, layer, work)
        # A method lives in its class; a function is also bound by name in
        # every voterlim module that imported it.
        namespaces = [holder] if owner else [module] + [
            m for n, m in sorted(sys.modules.items())
            if (n == "voterlim" or n.startswith("voterlim.")) and m is not module
        ]
        for namespace in namespaces:
            for binding, value in list(vars(namespace).items()):
                if value is original:
                    inst.patches.append((namespace, binding, original))
                    setattr(namespace, binding, wrapped)
    return inst


def _covered(intervals, lo: float = -math.inf, hi: float = math.inf) -> float:
    """Length of the union of `intervals`, clipped to [lo, hi]."""
    total = 0.0
    reach = lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it that its child spans cover."""
    children = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append((span.start, span.end))
    return [
        s.duration - _covered(children[i], s.start, s.end) for i, s in enumerate(spans)
    ]


def root_time(spans: list[Span]) -> float:
    """Time covered by top-level spans: the part of a job the trace explains."""
    return _covered([(s.start, s.end) for s in spans if s.parent is None])


def per_name(spans: list[Span]) -> dict:
    """name -> {"self_s", "total_s", "calls", "work", "errors"} summed over spans."""
    def empty():
        return {"self_s": 0.0, "total_s": 0.0, "calls": 0, "work": 0.0, "errors": 0}

    out = defaultdict(empty)
    for span, own in zip(spans, self_times(spans)):
        row = out[span.name]
        row["self_s"] += own
        row["total_s"] += span.duration
        row["calls"] += 1
        row["work"] += span.work
        row["errors"] += int(span.error)
    return dict(out)


def layer_errors(spans: list[Span]) -> dict:
    """layer -> number of spans of that layer that an exception left."""
    counts = {layer: 0 for layer in LAYERS}
    for span in spans:
        counts[span.layer] += int(span.error)
    return counts
