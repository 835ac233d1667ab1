"""Weighted graphs, exact kernel discretisation and the dynamics generator.

The discretisation of a kernel onto n vertices integrates the kernel
exactly over uniform cell pairs (no sampling), so rational kernel values
reproduce the hand-computed matrices for small n to rounding accuracy.
"""

from __future__ import annotations

import csv
import json

import numpy as np

from .errors import SizeLimitError, ValidationError
from .kernels import (
    Kernel,
    Partition,
    StepKernel,
    overlap_matrix,
    symmetric_unit_matrix,
)

# Dense-storage guard: discretisation and solvers refuse larger systems.
DEFAULT_N_MAX = 4096

# Identifier of the counter-based generator used for W-random sampling;
# recorded in experiment metadata alongside the seed.
RNG_ALGORITHM = "philox4x64-10 (numpy.random.Philox)"


def _check_size(n: int) -> None:
    if n > DEFAULT_N_MAX:
        raise SizeLimitError(f"n={n} exceeds dense-storage guard n_max={DEFAULT_N_MAX}")


class WeightedGraph:
    """Symmetric weight matrix on n vertices with entries in [-1, 1].

    Self-weights are allowed and carried along; the dynamics generator
    cancels them, so they never influence trajectories.
    """

    def __init__(self, weights):
        w = np.asarray(weights, dtype=float)
        if w.ndim != 2 or w.shape[0] != w.shape[1] or w.shape[0] < 1:
            raise ValidationError("weights must form a square matrix, n >= 1")
        self.weights = symmetric_unit_matrix(w, "weights")

    @property
    def n(self) -> int:
        return self.weights.shape[0]

    def is_simple(self) -> bool:
        """True when the graph is unweighted without self-loops (0/1 off-diagonal)."""
        w = self.weights
        off = w[~np.eye(self.n, dtype=bool)]
        return bool(np.all(np.diag(w) == 0.0) and np.all((off == 0.0) | (off == 1.0)))

    def to_json(self) -> str:
        return json.dumps({"n": self.n, "weights": self.weights.tolist()})

    @classmethod
    def from_json(cls, text: str) -> "WeightedGraph":
        try:
            data = json.loads(text)
            n = int(data["n"])
            _check_size(n)
            w = np.asarray(data["weights"], dtype=float)
        except (KeyError, TypeError, ValueError, json.JSONDecodeError) as exc:
            raise ValidationError(f"malformed graph JSON: {exc}") from exc
        if w.shape != (n, n):
            raise ValidationError("graph JSON: weights shape disagrees with n")
        return cls(w)

    def __repr__(self):
        return f"WeightedGraph(n={self.n})"


def laplacian(graph: WeightedGraph) -> np.ndarray:
    """Generator D of the finite voter dynamics du/dt = D u, read-only.

    Off-diagonal entries are weights / n; each diagonal entry is minus the
    sum of the other entries in its row, so rows and columns sum to zero
    and self-weights cancel out.
    """
    w = graph.weights
    n = graph.n
    d = w / n
    off_sums = w.sum(axis=1) - np.diag(w)
    np.fill_diagonal(d, -off_sums / n)
    d.setflags(write=False)
    return d


# Entries per row compared before whole rows in `twin_classes`.
_TWIN_PROBE = 64


def twin_classes(graph: WeightedGraph) -> tuple[np.ndarray, np.ndarray]:
    """Classes of vertices whose weight rows are bit-for-bit identical.

    Returns (labels, heads): labels[i] is the class of vertex i and
    heads[k] the smallest vertex of class k, classes numbered in order of
    their heads.  Rows are keyed by their bytes, so 0.0 and -0.0 count as
    different entries.
    """
    w = graph.weights
    # Rows whose first entries already differ are not twins; W-random
    # graphs stop here without copying whole rows.
    if len({row.tobytes() for row in w[:, :_TWIN_PROBE]}) == graph.n:
        return np.arange(graph.n), np.arange(graph.n)
    return byte_classes(w)


def byte_classes(rows) -> tuple[np.ndarray, np.ndarray]:
    """Classes of bit-for-bit identical rows of a 2-D array: (labels, heads).

    labels[i] is the class of row i and heads[k] the first row of class k,
    classes numbered in order of their heads.
    """
    rows = np.ascontiguousarray(rows)
    first: dict[bytes, int] = {}
    labels = np.array(
        [first.setdefault(row.tobytes(), len(first)) for row in rows], dtype=np.intp
    )
    return labels, np.unique(labels, return_index=True)[1]


def discretize_kernel(kernel: Kernel, n: int) -> WeightedGraph:
    """Weighted graph of cell averages: beta_ij = n^2 * integral of W over I_i x I_j.

    The integral is evaluated exactly through the kernel's step refinement
    and the overlap of its partition with the uniform n-partition.
    """
    if n < 1:
        raise ValidationError("discretisation needs n >= 1")
    _check_size(n)
    step = kernel.as_step()
    overlap = overlap_matrix(Partition.uniform(n), step.partition)
    beta = overlap @ step.values @ overlap.T
    beta *= n * n  # in place: one n x n array fewer, the same bits
    # WeightedGraph symmetrises, absorbing the rounding asymmetry here.
    return WeightedGraph(beta)


def pixel_kernel(graph: WeightedGraph) -> StepKernel:
    """Step kernel on the uniform n-partition whose cell values are the weights."""
    return StepKernel(Partition.uniform(graph.n), graph.weights)


def sample_w_random(kernel: Kernel, n: int, seed: int) -> WeightedGraph:
    """Random simple graph with edge probabilities read off the kernel.

    Edge (i, j), 1 <= i < j <= n, appears independently with probability
    W(i/n, j/n).  Decisions are drawn in row-major i < j order from a
    counter-based generator (see RNG_ALGORITHM) keyed by `seed`, so a
    given (kernel, n, seed) always yields the same graph.
    """
    if n < 1:
        raise ValidationError("sampling needs n >= 1")
    _check_size(n)
    if not kernel.is_graphon():
        raise ValidationError("sampling requires a graphon (values in [0, 1])")
    step = kernel.as_step()
    grid = np.arange(1, n + 1) / n
    cells = step.partition.cell_of(grid)
    probs = step.values[np.ix_(cells, cells)]
    rng = np.random.Generator(np.random.Philox(key=seed))
    upper = np.triu(np.ones((n, n), dtype=bool), k=1)  # masks read row-major
    draws = rng.random(n * (n - 1) // 2)
    adj = np.zeros((n, n))
    adj[upper] = draws < probs[upper]
    adj += adj.T
    return WeightedGraph(adj)


def blow_up(graph: WeightedGraph, copies, scale=None) -> WeightedGraph:
    """Replace each vertex by copies whose mutual weights multiply the originals.

    `copies[u]` is the number of copies of vertex u; `scale[u][c]` is a
    positive multiplier attached to copy c.  The weight between copy c of u
    and copy c' of v is scale[u][c] * scale[v][c'] * beta_uv, including
    u == v, and must stay within [-1, 1].  With unit scales and one copy
    per vertex this is the identity.
    """
    counts = [int(c) for c in copies]
    if len(counts) != graph.n or any(c < 1 for c in counts):
        raise ValidationError("copies must give a positive count per vertex")
    _check_size(sum(counts))
    if scale is None:
        scale = [[1.0] * c for c in counts]
    scale = [list(map(float, s)) for s in scale]
    if len(scale) != graph.n or any(
        len(s) != c for s, c in zip(scale, counts)
    ):
        raise ValidationError("scale must give one multiplier per copy")
    if any(v <= 0.0 for s in scale for v in s):
        raise ValidationError("scale multipliers must be positive")
    origin = np.repeat(np.arange(graph.n), counts)
    mults = np.concatenate([np.asarray(s) for s in scale])
    expanded = graph.weights[np.ix_(origin, origin)]
    new_w = np.outer(mults, mults) * expanded
    if np.max(np.abs(new_w)) > 1.0 + 1e-12:
        raise ValidationError("scaled blow-up weight falls outside [-1, 1]")
    return WeightedGraph(new_w)


def write_edge_list(graph: WeightedGraph, path) -> None:
    """Compact CSV edge list (i, j, beta) for simple graphs, 1-based, i < j."""
    if not graph.is_simple():
        raise ValidationError("edge-list format is reserved for simple graphs")
    iu, ju = np.nonzero(np.triu(graph.weights, k=1))
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["i", "j", "beta"])
        for i, j in zip(iu, ju):
            writer.writerow([i + 1, j + 1, 1])


def read_edge_list(path, n: int) -> WeightedGraph:
    """Inverse of `write_edge_list`; vertices without edges stay isolated."""
    _check_size(n)
    w = np.zeros((n, n))
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != ["i", "j", "beta"]:
            raise ValidationError("edge list must start with header i,j,beta")
        for row in reader:
            if not row:
                continue
            try:
                i, j, beta = int(row[0]) - 1, int(row[1]) - 1, float(row[2])
            except (IndexError, ValueError) as exc:
                raise ValidationError(f"malformed edge row {row}: {exc}") from exc
            if not (0 <= i < n and 0 <= j < n):
                raise ValidationError(f"edge ({i + 1}, {j + 1}) outside 1..{n}")
            w[i, j] = w[j, i] = beta
    return WeightedGraph(w)
