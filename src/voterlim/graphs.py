"""Weighted graphs, exact kernel discretisation and the dynamics generator.

The discretisation of a kernel onto n vertices integrates the kernel
exactly over uniform cell pairs (no sampling), so rational kernel values
reproduce the hand-computed matrices for small n to rounding accuracy.
"""

from __future__ import annotations

import json

import numpy as np

from ._schema import REQUIRED, as_is, checked, count, loads, read, reals
from .errors import SizeLimitError, ValidationError
from .kernels import Partition, StepKernel, overlap_matrix, symmetric_unit_matrix

# Dense-storage guard: discretisation and solvers refuse larger systems.
DEFAULT_N_MAX = 4096

# Identifier of the counter-based generator used for W-random sampling;
# recorded in experiment metadata alongside the seed.
RNG_ALGORITHM = "philox4x64-10 (numpy.random.Philox)"

_GRAPH = {"n": (as_is, REQUIRED), "weights": (reals, REQUIRED)}  # graph JSON; `_size` reads n


def _size(n, what: str) -> int:
    """n as a Python int, the size of a `what`: a count from 1 to DEFAULT_N_MAX,
    which is read at each call."""
    n = checked(count, "n", n, what)
    if n < 1:
        raise ValidationError(f"{what} needs n >= 1, not {n}")
    if n > DEFAULT_N_MAX:
        raise SizeLimitError(f"{what}: n={n} exceeds dense-storage guard n_max={DEFAULT_N_MAX}")
    return n


def _seed(seed) -> int:
    """seed as a Python int: a Philox key, a count in [0, 2**128)."""
    seed = checked(count, "seed", seed, "sampling")
    if not 0 <= seed < 2**128:
        raise ValidationError(f"seed {seed} lies outside the Philox keys [0, 2**128)")
    return seed


def _float_texts(values) -> tuple[np.ndarray, np.ndarray]:
    """Each distinct float of an array formatted once: (labels, texts).

    texts is an object array of `json.dumps` strings and texts[labels[i]]
    the text of the i-th entry of the flattened array.  Entries are keyed
    by their bits (the int64 view), so 0.0 and -0.0 keep their own texts.
    """
    flat = np.ascontiguousarray(values, dtype=float).reshape(-1)
    _, first, labels = np.unique(flat.view(np.int64), return_index=True, return_inverse=True)
    # one encoder call; no float text contains ", "
    texts = np.array(json.dumps(flat[first].tolist())[1:-1].split(", "), dtype=object)
    return labels, texts


def _joined_rows(values, sep: str) -> list[str]:
    """Per row of a 2-D float array, the `json.dumps` texts of its entries joined by sep.

    Bit-identical rows share one text, joined once.
    """
    values = np.asarray(values, dtype=float)
    rows, heads = byte_classes(values)
    labels, texts = _float_texts(values[heads])
    cells = texts[labels].reshape(heads.size, values.shape[1]).tolist()
    joined = [sep.join(row) for row in cells]
    return [joined[k] for k in rows.tolist()]


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

    @classmethod
    def _trusted(cls, weights: np.ndarray) -> "WeightedGraph":
        """Graph on a float matrix that is valid by construction.

        Stores `weights` itself, made read-only, without the
        `symmetric_unit_matrix` pass; for the sampler's symmetric 0/1
        matrices, on which that pass would change no bit, and for the
        expansion of class weights that already took it.
        """
        graph = cls.__new__(cls)
        weights.setflags(write=False)
        graph.weights = weights
        return graph

    @property
    def n(self) -> int:
        return self.weights.shape[0]

    def is_simple(self) -> bool:
        """True when the graph is unweighted without self-loops (0/1 off-diagonal)."""
        w = self.weights
        if np.diag(w).any():
            return False
        # counted one comparison at a time: no mask of the off-diagonal
        return bool(np.count_nonzero(w == 0.0) + np.count_nonzero(w == 1.0) == w.size)

    def to_json(self) -> str:
        """`json.dumps({"n": n, "weights": weights.tolist()})`, byte for byte.

        Each distinct weight is formatted once and each distinct row
        joined once (`_joined_rows`).
        """
        rows = "], [".join(_joined_rows(self.weights, ", "))
        return f'{{"n": {self.n}, "weights": [[{rows}]]}}'

    @classmethod
    def from_json(cls, text: str) -> "WeightedGraph":
        """Inverse of `to_json`, parsing each distinct number token once.

        Text that is not such a graph raises ValidationError (`_schema.read`).
        """
        return cls._from_dict(loads(text, "graph"))

    @classmethod
    def _from_dict(cls, data) -> "WeightedGraph":
        """Graph of a parsed `{"n": ..., "weights": ...}` spec."""
        spec = read(data, _GRAPH, "graph JSON")
        n = _size(spec.n, "graph JSON")
        if spec.weights.shape != (n, n):
            raise ValidationError("graph JSON: weights shape disagrees with n")
        return cls(spec.weights)

    def __repr__(self):
        return f"WeightedGraph(n={self.n})"


def laplacian(graph: WeightedGraph) -> np.ndarray:
    """Generator D of the finite voter dynamics du/dt = D u, read-only.

    Off-diagonal entries are weights / n; each diagonal entry is minus the
    sum of the other entries in its row, so rows and columns sum to zero
    and self-weights cancel out.
    """
    w, n = graph.weights, graph.n
    d = w / n
    off_sums = w.sum(axis=1) - np.diag(w)
    np.fill_diagonal(d, -off_sums / n)
    d.setflags(write=False)
    return d


# Entries per row compared before whole rows in `byte_classes`.
_PROBE = 64


def _row_keys(rows) -> list[bytes]:
    """The bytes of each row of a 2-D array, through one void view instead
    of one `tobytes()` per row.

    Rows whose entries are adjacent, such as a column slice of a C-ordered
    matrix, are viewed in place; others are copied first.
    """
    rows = np.asarray(rows)
    if rows.strides[1] != rows.itemsize:
        rows = np.ascontiguousarray(rows)
    return rows.view(np.dtype((np.void, rows.itemsize * rows.shape[1])))[:, 0].tolist()


def byte_classes(rows) -> tuple[np.ndarray, np.ndarray]:
    """Classes of bit-for-bit identical rows of a 2-D array: (labels, heads).

    labels[i] is the class of row i and heads[k] the first row of class k,
    classes numbered in order of their heads.  Rows are keyed by their
    bytes, so 0.0 and -0.0 count as different entries; on a graph's
    weights the classes are its twin classes.
    """
    rows = np.asarray(rows)
    n = rows.shape[0]
    # The probe exits only when the first _PROBE entries of every row are
    # distinct; then no whole row is copied.  One repeated prefix sends all
    # rows to whole-row keys: a W-random graph repeats them when its first
    # _PROBE columns lie in a kernel cell of edge probability near 1.
    if rows.shape[1] > _PROBE and len(set(_row_keys(rows[:, :_PROBE]))) == n:
        return np.arange(n), np.arange(n)
    first: dict[bytes, int] = {}
    labels = np.array(
        [first.setdefault(key, len(first)) for key in _row_keys(rows)], dtype=np.intp
    )
    return labels, np.unique(labels, return_index=True)[1]


def pixel_classes(kernel: StepKernel, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Twin classes of the discretisation at n, read off the kernel's partition.

    Pixels (cells of the uniform n-partition) whose overlaps with the
    cells of the kernel's partition are bit-identical get identical weight
    rows.  The weights between their first pixels, n^2 O V O^T over the
    overlap rows O, are symmetrised and validated once, and classes whose
    rows then coincide are merged, which leaves the graph's own twin
    classes.  Returns (labels, heads, weights): labels[i] is the class of
    pixel i, heads[k] the first pixel of class k (classes numbered in that
    order) and weights the q x q class weights, so that
    weights[labels][:, labels] is `discretize_kernel(kernel, n).weights`
    bit for bit.  A partition with at least n cells is not keyed: every
    pixel is its own class and weights is the n x n discretisation.
    """
    n = _size(n, "discretisation")
    overlap = overlap_matrix(Partition.uniform(n), kernel.partition)
    keyed = kernel.partition.size < n
    if keyed:
        labels, heads = byte_classes(overlap)
        overlap = overlap[heads]
    else:
        labels = heads = np.arange(n)
    weights = overlap @ kernel.values @ overlap.T
    del overlap  # n x n when not keyed: freed before the symmetrised copy
    weights *= n * n  # in place: one array fewer, the same bits
    # absorbs the rounding asymmetry of the class weights
    weights = symmetric_unit_matrix(weights, "weights")
    if keyed:
        merged, first = byte_classes(weights)
        labels, heads, weights = merged[labels], heads[first], weights[np.ix_(first, first)]
    return labels, heads, weights


def discretize_kernel(kernel: StepKernel, n: int) -> WeightedGraph:
    """Weighted graph of cell averages: beta_ij = n^2 * integral of W over I_i x I_j.

    The integral is evaluated exactly through the kernel's cell values and
    the overlap of its partition with the uniform n-partition, once
    per pair of `pixel_classes`, whose class weights are expanded to the
    n pixels; the n x n result is the only n x n array built.
    """
    labels, heads, weights = pixel_classes(kernel, n)
    if heads.size < n:
        weights = np.take(np.take(weights, labels, axis=0), labels, axis=1)
    return WeightedGraph._trusted(weights)


def pixel_kernel(graph: WeightedGraph) -> StepKernel:
    """Step kernel on the uniform n-partition whose cell values are the weights."""
    return StepKernel(Partition.uniform(graph.n), graph.weights)


def sample_w_random(kernel: StepKernel, n: int, seed: int) -> WeightedGraph:
    """Random simple graph with edge probabilities read off the kernel.

    Edge (i, j), 1 <= i < j <= n, appears independently with probability
    W(i/n, j/n).  Decisions are drawn in row-major i < j order from a
    counter-based generator (see RNG_ALGORITHM) keyed by `seed`, a count
    in [0, 2**128), so a given (kernel, n, seed) always yields the same graph.
    """
    return _w_random_sampler(kernel, n)(seed)


def _w_random_sampler(kernel: StepKernel, n: int):
    """`sample_w_random(kernel, n, seed)` as a function of the seed.

    The edge probabilities of the n(n-1)/2 pairs i < j, in row-major
    order, are gathered once; each call only draws and compares.  The
    0/1 matrix it builds is symmetric by construction, so the graph skips
    `symmetric_unit_matrix`, whose result would have the same bits.
    """
    n = _size(n, "sampling")
    if not kernel.is_graphon():
        raise ValidationError("sampling requires a graphon (values in [0, 1])")
    cells = kernel.partition.cell_of(np.arange(1, n + 1) / n)
    upper = np.triu(np.ones((n, n), dtype=bool), k=1)  # masks read row-major
    probs = kernel.values[np.ix_(cells, cells)][upper]

    def sample(seed: int) -> WeightedGraph:
        rng = np.random.Generator(np.random.Philox(key=_seed(seed)))
        edges = np.zeros((n, n), dtype=bool)
        edges[upper] = rng.random(probs.size) < probs
        return WeightedGraph._trusted((edges | edges.T).astype(float))

    return sample


def blow_up(graph: WeightedGraph, copies, scale=None) -> WeightedGraph:
    """Replace each vertex by copies whose mutual weights multiply the originals.

    `copies[u]` is the number of copies of vertex u; `scale[u][c]` is a
    positive multiplier attached to copy c.  The weight between copy c of u
    and copy c' of v is scale[u][c] * scale[v][c'] * beta_uv, including
    u == v, and must stay within [-1, 1].  With unit scales and one copy
    per vertex this is the identity.
    """
    counts = [_size(c, "blow-up copies") for c in copies]
    _size(sum(counts), "blow-up")
    if scale is None:
        scale = [[1.0] * c for c in counts]
    scale = [list(map(float, s)) for s in scale]
    if len(counts) != graph.n or list(map(len, scale)) != counts:
        raise ValidationError("copies must give a count per vertex, scale a multiplier per copy")
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
    """CSV edge list (i, j, beta) of a simple graph, 1-based, i < j, with newline line ends."""
    if not graph.is_simple():
        raise ValidationError("edge-list format is reserved for simple graphs")
    iu, ju = np.nonzero(np.triu(graph.weights, k=1))
    with open(path, "w", newline="") as fh:
        fh.write("i,j,beta\n")
        fh.writelines(f"{i + 1},{j + 1},1\n" for i, j in zip(iu.tolist(), ju.tolist()))
