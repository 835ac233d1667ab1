"""Step kernels (graph limits) with exact piecewise-constant calculus.

A kernel is a `StepKernel`: a symmetric matrix of values on a finite
partition of [0,1].  The named families (`constant`, `bipartite`,
`product`, `direct_sum`, `ws_mix`) are its classmethods and keep their
spec.  Degrees, L2 distances and discretisations are closed-form
partition arithmetic.
"""

from __future__ import annotations

import copy
import functools

import numpy as np

from ._schema import REQUIRED, build, checked, count, read, real, reals
from .errors import DomainError, ValidationError

# Tolerance for sums/symmetry checks on user-supplied floats.
SYMMETRY_TOL = 1e-12
WEIGHT_SUM_TOL = 1e-12

# Rows per strip when `symmetric_unit_matrix` validates a matrix.
_STRIP = 128


class Partition:
    """Partition of [0,1] into cells (b[i-1], b[i]], the first cell closed at 0.

    Boundary points belong to the cell on their left; this convention is
    shared by every step function and step kernel in the library.
    """

    def __init__(self, boundaries):
        b = checked(reals, "boundaries", boundaries, "partition")
        if b.ndim != 1 or b.size < 2:
            raise ValidationError("partition needs at least two boundary points")
        if b[0] != 0.0 or b[-1] != 1.0:
            raise ValidationError("partition must start at 0 and end at 1")
        if np.any(np.diff(b) <= 0.0):
            raise ValidationError("partition boundaries must be strictly increasing")
        b = b.copy()
        b.setflags(write=False)
        self.boundaries = b
        m = np.diff(b)
        m.setflags(write=False)
        self.measures = m

    @classmethod
    def uniform(cls, n: int) -> "Partition":
        n = checked(count, "n", n, "uniform partition")
        if n < 1:
            raise ValidationError("uniform partition needs n >= 1")
        # arange/n, not linspace: correctly rounded division makes k/n
        # bit-identical to any equal fraction, so merged grids never
        # grow one-ulp sliver cells.
        return cls(np.arange(n + 1) / n)

    @property
    def size(self) -> int:
        return len(self.boundaries) - 1

    def cell_of(self, x):
        """Index of the cell containing x (scalar or array), 0-based."""
        xa = np.asarray(x, dtype=float)
        if not np.all((xa >= 0.0) & (xa <= 1.0)):  # NaN fails too
            raise DomainError("coordinate outside [0, 1]")
        idx = np.searchsorted(self.boundaries, xa, side="left") - 1
        idx = np.maximum(idx, 0)
        return int(idx) if np.isscalar(x) or xa.ndim == 0 else idx

    def refined_with(self, other: "Partition") -> "Partition":
        """Partition on the union of both boundary sets.

        The sort and the drop of adjacent equal boundaries that `np.union1d`
        does, the same bits included, without the `numpy.ma` import that
        `np.unique` triggers.
        """
        b = np.concatenate([self.boundaries, other.boundaries])
        b.sort()
        keep = np.empty(b.size, dtype=bool)
        keep[0] = True
        np.not_equal(b[1:], b[:-1], out=keep[1:])
        return Partition(b[keep])

    def midpoints(self) -> np.ndarray:
        return (self.boundaries[:-1] + self.boundaries[1:]) / 2.0

    def __eq__(self, other):
        return isinstance(other, Partition) and np.array_equal(
            self.boundaries, other.boundaries
        )

    def __repr__(self):
        return f"Partition({self.size} cells)"


def common_refinement(*partitions):
    """Coarsest partition refining all inputs, with each input's cell per merged cell.

    Inputs are `Partition`s or boundary arrays.  Returns `(merged, cells)`
    where `cells[k][c]` is the cell of input k that contains merged cell c,
    so a step function with values `v` on input k reads `v[cells[k]]` on
    the merged partition.
    """
    parts = [p if isinstance(p, Partition) else Partition(p) for p in partitions]
    merged = functools.reduce(Partition.refined_with, parts)
    mids = merged.midpoints()
    return merged, [p.cell_of(mids) for p in parts]


def symmetric_unit_matrix(values, what: str) -> np.ndarray:
    """Read-only copy of a finite symmetric square matrix with entries in [-1, 1].

    Asymmetry and range excess up to SYMMETRY_TOL are float dust from
    exact integrals and are absorbed; larger ones raise ValidationError
    naming `what`.  The result is (v + v^T) / 2 clipped to [-1, 1].

    The one strided pass is the transposed copy that becomes the result.
    Asymmetry, the symmetrised sum and its range are then taken in row
    strips of _STRIP rows against that copy, so the only n x n array
    besides the input is the result.  At n = 2048 each whole-matrix
    temporary costs 32 MB, and every discretisation and W-random sample
    validates a matrix.  Non-finite input makes
    the sum non-finite, so `isfinite` over the input runs only to tell it
    apart from a sum that overflowed.
    """
    v = np.asarray(values, dtype=float)
    out = v.T.copy()
    gap = 0.0
    lo, hi = np.inf, -np.inf
    buf = np.empty((min(_STRIP, v.shape[0]), v.shape[1]))
    # inf - inf and overflowing sums are judged below, not warned about
    with np.errstate(over="ignore", invalid="ignore"):
        for start in range(0, v.shape[0], _STRIP):
            rows = v[start:start + _STRIP]
            strip = out[start:start + _STRIP]
            diff = buf[: rows.shape[0]]
            np.abs(np.subtract(rows, strip, out=diff), out=diff)
            gap = max(gap, float(diff.max()))
            np.add(rows, strip, out=strip)
            strip /= 2.0
            # np.minimum and np.maximum keep a NaN that min and max would drop
            lo, hi = np.minimum(lo, strip.min()), np.maximum(hi, strip.max())
    if not (np.isfinite(lo) and np.isfinite(hi)) and not np.all(np.isfinite(v)):
        raise ValidationError(f"{what} must be finite")
    if gap > SYMMETRY_TOL:
        raise ValidationError(f"{what} must be symmetric")
    if max(-lo, hi) > 1.0 + SYMMETRY_TOL:
        raise ValidationError(f"{what} must lie in [-1, 1]")
    np.clip(out, -1.0, 1.0, out=out)
    out.setflags(write=False)
    return out


def overlap_matrix(part_a: Partition, part_b: Partition) -> np.ndarray:
    """Lengths of pairwise intersections between the cells of two partitions.

    Entry (i, j) is the Lebesgue measure of cell i of `part_a` intersected
    with cell j of `part_b`.  Rows sum to the cell measures of `part_a`.
    """
    lo_a = part_a.boundaries[:-1][:, None]
    hi_a = part_a.boundaries[1:][:, None]
    lo_b = part_b.boundaries[:-1][None, :]
    hi_b = part_b.boundaries[1:][None, :]
    return np.maximum(np.minimum(hi_a, hi_b) - np.maximum(lo_a, lo_b), 0.0)


def _closure(related: np.ndarray) -> np.ndarray:
    """Class label per cell under the transitive closure of `related`.

    `related` is a symmetric boolean m x m relation.  Classes are numbered
    in order of their smallest cell; each is grown by frontier passes.
    """
    labels = np.full(related.shape[0], -1)
    while (free := np.flatnonzero(labels < 0)).size:
        member = np.zeros(labels.size, dtype=bool)
        member[free[0]] = True
        frontier = member.copy()
        while frontier.any():
            frontier = related[frontier].any(axis=0) & ~member
            member |= frontier
        labels[member] = labels.max() + 1
    return labels


class StepKernel:
    """Symmetric kernel on [0,1]^2, constant on the cells of a partition.

    Kernels are immutable values with entries in [-1, 1].  The named
    families are classmethods that build the values and keep their own
    spec, which `spec` returns for `make_kernel` to read back.
    """

    _spec: dict | None = None

    def __init__(self, boundaries, values):
        part = boundaries if isinstance(boundaries, Partition) else Partition(boundaries)
        v = checked(reals, "values", values, "step kernel")
        m = part.size
        if v.shape != (m, m):
            raise ValidationError(
                f"value matrix must be {m}x{m} for {m} cells, got {v.shape}"
            )
        self.partition = part
        self.values = symmetric_unit_matrix(v, "kernel values")

    @classmethod
    def _named(cls, boundaries, values, spec: dict) -> "StepKernel":
        kernel = cls(boundaries, values)
        kernel._spec = spec
        return kernel

    @classmethod
    def constant(cls, c: float) -> "StepKernel":
        """Kernel identically equal to a constant c in [-1, 1]."""
        c = checked(real, "c", c, "constant kernel")
        if not np.isfinite(c) or abs(c) > 1.0:
            raise ValidationError("constant must lie in [-1, 1]")
        return cls._named([0.0, 1.0], [[c]], {"type": "constant", "c": c})

    @classmethod
    def bipartite(cls, r: float) -> "StepKernel":
        """Two-block kernel: -1 on [0,r]^2 and +1 elsewhere, for r in (0, 1/2)."""
        r = checked(real, "r", r, "bipartite kernel")
        if not (0.0 < r < 0.5):
            raise ValidationError("block boundary r must lie strictly in (0, 1/2)")
        spec = {"type": "bipartite", "r": r}
        return cls._named([0.0, r, 1.0], [[-1.0, 1.0], [1.0, 1.0]], spec)

    @classmethod
    def product(cls, boundaries, f) -> "StepKernel":
        """Rank-one kernel W(x, y) = f(x) f(y) for a step function f."""
        part = boundaries if isinstance(boundaries, Partition) else Partition(boundaries)
        f = checked(reals, "f", f, "product kernel")
        if f.shape != (part.size,):
            raise ValidationError("need one factor value per cell")
        if not np.all(np.isfinite(f)) or np.max(np.abs(f)) > 1.0 + SYMMETRY_TOL:
            raise ValidationError("factor values must lie in [-1, 1]")
        spec = {"type": "product", "boundaries": part.boundaries.tolist(), "f": f.tolist()}
        return cls._named(part, np.outer(f, f), spec)

    @classmethod
    def direct_sum(cls, parts) -> "StepKernel":
        """Weighted direct sum: block-diagonal placement of kernels on [0, 1].

        `parts` are (weight, kernel) pairs.  Part i occupies a block of
        width a_i (weights sum to one); inside its block it equals the
        part kernel composed with the block's affine chart, and all
        cross-block values are zero.
        """
        parts = list(parts)
        if not parts:
            raise ValidationError("direct sum needs at least one part")
        if not all(
            isinstance(part, (tuple, list)) and len(part) == 2 and isinstance(part[1], StepKernel)
            for part in parts
        ):
            raise ValidationError("parts must be (weight, StepKernel) pairs")
        weights = np.array([checked(real, "weight", a, "direct_sum part") for a, _ in parts])
        kernels = [k for _, k in parts]
        if np.any(weights <= 0.0):
            raise ValidationError("part weights must be positive")
        if abs(weights.sum() - 1.0) > WEIGHT_SUM_TOL:
            raise ValidationError("part weights must sum to 1")
        edges = np.concatenate([[0.0], np.cumsum(weights)])
        edges[-1] = 1.0  # protect against cumulative rounding
        bounds = [0.0]
        for k, a, hi in zip(kernels, weights, edges[1:]):
            inner = bounds[-1] + a * k.partition.boundaries[1:-1]
            bounds.extend(inner.tolist())
            bounds.append(float(hi))
        sizes = [k.partition.size for k in kernels]
        total = sum(sizes)
        values = np.zeros((total, total))
        offset = 0
        for k, size in zip(kernels, sizes):
            values[offset : offset + size, offset : offset + size] = k.values
            offset += size
        spec = {
            "type": "direct_sum",
            "parts": [
                {"weight": float(a), "kernel": k.spec()} for a, k in zip(weights, kernels)
            ],
        }
        return cls._named(bounds, values, spec)

    @classmethod
    def ws_mix(cls, base: "StepKernel", p: float) -> "StepKernel":
        """Rewiring mix of a graphon base: (1-p) W + p (1-W) for p in [0, 1/2].

        The base must take values in [0, 1]; the mix then stays in [p, 1-p].
        """
        p = checked(real, "p", p, "ws_mix kernel")
        if not 0.0 <= p <= 0.5:
            raise ValidationError("mixing probability p must lie in [0, 1/2]")
        if not isinstance(base, StepKernel):
            raise ValidationError("base must be a StepKernel")
        if not base.is_graphon():
            raise ValidationError("base kernel range must be within [0, 1]")
        spec = {"type": "ws_mix", "p": p, "base": base.spec()}
        return cls._named(base.partition, (1.0 - 2.0 * p) * base.values + p, spec)

    def evaluate(self, x, y):
        """Pointwise value W(x, y); cell boundaries resolve to the left cell."""
        i = self.partition.cell_of(x)
        j = self.partition.cell_of(y)
        return self.values[i, j]

    def degree(self, x):
        """Normalised degree d_W(x): the exact integral of W(x, .) over [0,1]."""
        i = self.partition.cell_of(x)
        return self.values[i] @ self.partition.measures

    def is_graphon(self) -> bool:
        """True when the values lie within [0, 1]."""
        return bool(self.values.min() >= 0.0 and self.values.max() <= 1.0)

    def scaled(self, factor: float) -> "StepKernel":
        """Step kernel with all values multiplied by `factor` (range re-checked)."""
        factor = checked(real, "factor", factor, "kernel scaling")
        return StepKernel(self.partition, self.values * factor)

    def spec(self) -> dict:
        """JSON-serialisable description accepted by `make_kernel`: the
        family's own spec for a named kernel, else the cell values."""
        if self._spec is not None:
            return copy.deepcopy(self._spec)
        return {
            "type": "step",
            "boundaries": self.partition.boundaries.tolist(),
            "values": self.values.tolist(),
        }

    def __repr__(self):
        return f"StepKernel({self.partition.size} cells)"


def l2_distance(k1: StepKernel, k2: StepKernel) -> float:
    """L2([0,1]^2) distance between two kernels, exactly, by
    common-refinement arithmetic on their partitions."""
    merged, (i1, i2) = common_refinement(k1.partition, k2.partition)
    dv = k1.values[np.ix_(i1, i1)] - k2.values[np.ix_(i2, i2)]
    mm = merged.measures
    return float(np.sqrt(mm @ (dv * dv) @ mm))


def make_kernel(spec: dict) -> StepKernel:
    """Kernel of a JSON spec: a "type" and the keys `_KERNELS` gives it."""
    return build(spec, _KERNELS, "kernel")


def _parts(parts) -> list:
    """direct_sum parts, [{"weight": a, "kernel": {...}}, ...], as (a, kernel) pairs."""
    pairs = (read(part, _PART, "direct_sum part") for part in parts)
    return [(pair.weight, pair.kernel) for pair in pairs]


_PART = {"weight": (real, REQUIRED), "kernel": (make_kernel, REQUIRED)}
_KERNELS = {
    "step": (StepKernel, {"boundaries": (reals, REQUIRED), "values": (reals, REQUIRED)}),
    "constant": (StepKernel.constant, {"c": (real, REQUIRED)}),
    "bipartite": (StepKernel.bipartite, {"r": (real, REQUIRED)}),
    "product": (StepKernel.product, {"boundaries": (reals, REQUIRED), "f": (reals, REQUIRED)}),
    "direct_sum": (StepKernel.direct_sum, {"parts": (_parts, REQUIRED)}),
    "ws_mix": (StepKernel.ws_mix, {"base": (make_kernel, REQUIRED), "p": (real, REQUIRED)}),
}

# Kept only because perfbench/ names them: its span targets
# `Kernel.as_step` and `StepKernel.as_step`, and `perfbench/sweep.py`
# imports `BipartiteKernel`.  Delete all three with that span-target edit
# (ROADMAP item 1).
Kernel = StepKernel
StepKernel.as_step = lambda self: self
BipartiteKernel = StepKernel.bipartite
