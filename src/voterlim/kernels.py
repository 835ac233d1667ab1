"""Kernel (graph limit) families with exact piecewise-constant calculus.

Every built-in family refines exactly to a step kernel, i.e. a symmetric
matrix of values on a finite partition of [0,1].  Degrees, L2 distances
and discretisations are therefore closed-form partition arithmetic; a
kernel without a step refinement raises UnsupportedVariantError there.
"""

from __future__ import annotations

import functools

import numpy as np

from ._schema import REQUIRED, build, checked, count, read, real, reals
from .errors import DomainError, UnsupportedVariantError, ValidationError

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
        b = np.asarray(boundaries, dtype=float)
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


class Kernel:
    """Symmetric measurable function on [0,1]^2 with values in [-1, 1].

    Kernels are immutable values.  Subclasses provide an exact step
    refinement through `_to_step`; everything else (evaluation, degree,
    range checks) is derived from it.
    """

    _step_cache: "StepKernel | None" = None

    def _to_step(self) -> "StepKernel":
        raise UnsupportedVariantError(
            f"{type(self).__name__} has no exact step refinement"
        )

    def as_step(self) -> "StepKernel":
        """Exact piecewise-constant representation of this kernel."""
        if self._step_cache is None:
            self._step_cache = self._to_step()
        return self._step_cache

    def evaluate(self, x, y):
        """Pointwise value W(x, y); cell boundaries resolve to the left cell."""
        return self.as_step().evaluate(x, y)

    def degree(self, x):
        """Normalised degree d_W(x): the exact integral of W(x, .) over [0,1]."""
        return self.as_step().degree(x)

    def value_range(self) -> tuple[float, float]:
        v = self.as_step().values
        return float(v.min()), float(v.max())

    def is_graphon(self) -> bool:
        """True when the value range lies within [0, 1]."""
        lo, hi = self.value_range()
        return lo >= 0.0 and hi <= 1.0

    def spec(self) -> dict:
        """JSON-serialisable description accepted by `make_kernel`."""
        raise NotImplementedError


class StepKernel(Kernel):
    """Piecewise-constant kernel on a finite partition of [0, 1]."""

    def __init__(self, boundaries, values):
        part = boundaries if isinstance(boundaries, Partition) else Partition(boundaries)
        v = np.asarray(values, dtype=float)
        m = part.size
        if v.shape != (m, m):
            raise ValidationError(
                f"value matrix must be {m}x{m} for {m} cells, got {v.shape}"
            )
        self.partition = part
        self.values = symmetric_unit_matrix(v, "kernel values")

    def as_step(self) -> "StepKernel":
        return self

    def evaluate(self, x, y):
        i = self.partition.cell_of(x)
        j = self.partition.cell_of(y)
        return self.values[i, j]

    def degree(self, x):
        i = self.partition.cell_of(x)
        return self.values[i] @ self.partition.measures

    def scaled(self, factor: float) -> "StepKernel":
        """Step kernel with all values multiplied by `factor` (range re-checked)."""
        return StepKernel(self.partition, self.values * float(factor))

    def spec(self) -> dict:
        return {
            "type": "step",
            "boundaries": self.partition.boundaries.tolist(),
            "values": self.values.tolist(),
        }

    def __repr__(self):
        return f"StepKernel({self.partition.size} cells)"


class ConstantKernel(Kernel):
    """Kernel identically equal to a constant c in [-1, 1]."""

    def __init__(self, c: float):
        c = float(c)
        if not np.isfinite(c) or abs(c) > 1.0:
            raise ValidationError("constant must lie in [-1, 1]")
        self.c = c

    def _to_step(self) -> StepKernel:
        return StepKernel([0.0, 1.0], [[self.c]])

    def spec(self) -> dict:
        return {"type": "constant", "c": self.c}

    def __repr__(self):
        return f"ConstantKernel({self.c})"


class BipartiteKernel(Kernel):
    """Two-block kernel: -1 on [0,r]^2 and +1 elsewhere, for r in (0, 1/2)."""

    def __init__(self, r: float):
        r = float(r)
        if not (0.0 < r < 0.5):
            raise ValidationError("block boundary r must lie strictly in (0, 1/2)")
        self.r = r

    def _to_step(self) -> StepKernel:
        return StepKernel([0.0, self.r, 1.0], [[-1.0, 1.0], [1.0, 1.0]])

    def spec(self) -> dict:
        return {"type": "bipartite", "r": self.r}

    def __repr__(self):
        return f"BipartiteKernel(r={self.r})"


class ProductKernel(Kernel):
    """Rank-one kernel W(x, y) = f(x) f(y) for a step function f."""

    def __init__(self, boundaries, f_values):
        part = boundaries if isinstance(boundaries, Partition) else Partition(boundaries)
        f = np.asarray(f_values, dtype=float)
        if f.shape != (part.size,):
            raise ValidationError("need one factor value per cell")
        if not np.all(np.isfinite(f)) or np.max(np.abs(f)) > 1.0 + SYMMETRY_TOL:
            raise ValidationError("factor values must lie in [-1, 1]")
        f = f.copy()
        f.setflags(write=False)
        self.partition = part
        self.f_values = f

    def _to_step(self) -> StepKernel:
        return StepKernel(self.partition, np.outer(self.f_values, self.f_values))

    def spec(self) -> dict:
        return {
            "type": "product",
            "boundaries": self.partition.boundaries.tolist(),
            "f": self.f_values.tolist(),
        }

    def __repr__(self):
        return f"ProductKernel({self.partition.size} cells)"


class DirectSumKernel(Kernel):
    """Weighted direct sum: block-diagonal placement of kernels on [0, 1].

    Part i occupies a block of width a_i (weights sum to one); inside its
    block it equals the part kernel composed with the block's affine chart,
    and all cross-block values are zero.
    """

    def __init__(self, parts):
        parts = list(parts)
        if not parts:
            raise ValidationError("direct sum needs at least one part")
        weights = np.array([float(a) for a, _ in parts])
        kernels = [k for _, k in parts]
        if np.any(weights <= 0.0):
            raise ValidationError("part weights must be positive")
        if abs(weights.sum() - 1.0) > WEIGHT_SUM_TOL:
            raise ValidationError("part weights must sum to 1")
        for k in kernels:
            if not isinstance(k, Kernel):
                raise ValidationError("parts must be (weight, Kernel) pairs")
        self.weights = weights
        self.kernels = kernels

    @property
    def parts(self):
        return list(zip(self.weights.tolist(), self.kernels))

    def _to_step(self) -> StepKernel:
        steps = [k.as_step() for k in self.kernels]
        edges = np.concatenate([[0.0], np.cumsum(self.weights)])
        edges[-1] = 1.0  # protect against cumulative rounding
        bounds = [0.0]
        for step, a, hi in zip(steps, self.weights, edges[1:]):
            inner = bounds[-1] + a * step.partition.boundaries[1:-1]
            bounds.extend(inner.tolist())
            bounds.append(float(hi))
        sizes = [s.partition.size for s in steps]
        total = sum(sizes)
        values = np.zeros((total, total))
        offset = 0
        for step, size in zip(steps, sizes):
            values[offset : offset + size, offset : offset + size] = step.values
            offset += size
        return StepKernel(bounds, values)

    def spec(self) -> dict:
        return {
            "type": "direct_sum",
            "parts": [
                {"weight": float(a), "kernel": k.spec()}
                for a, k in zip(self.weights, self.kernels)
            ],
        }

    def __repr__(self):
        return f"DirectSumKernel({len(self.kernels)} parts)"


class WattsStrogatzKernel(Kernel):
    """Rewiring mix of a graphon base: (1-p) W + p (1-W) for p in [0, 1/2].

    The base must take values in [0, 1]; the mix then stays in [p, 1-p].
    """

    def __init__(self, base: Kernel, p: float):
        p = float(p)
        if not 0.0 <= p <= 0.5:
            raise ValidationError("mixing probability p must lie in [0, 1/2]")
        if not isinstance(base, Kernel):
            raise ValidationError("base must be a Kernel")
        if not base.is_graphon():
            raise ValidationError("base kernel range must be within [0, 1]")
        self.base = base
        self.p = p

    def _to_step(self) -> StepKernel:
        s = self.base.as_step()
        return StepKernel(s.partition, (1.0 - 2.0 * self.p) * s.values + self.p)

    def spec(self) -> dict:
        return {"type": "ws_mix", "p": self.p, "base": self.base.spec()}

    def __repr__(self):
        return f"WattsStrogatzKernel(p={self.p})"


def l2_distance(k1: Kernel, k2: Kernel) -> float:
    """L2([0,1]^2) distance between two kernels, exactly, by
    common-refinement arithmetic on their step refinements.

    A kernel without a step refinement raises UnsupportedVariantError
    (`Kernel.as_step`).
    """
    s1, s2 = k1.as_step(), k2.as_step()
    merged, (i1, i2) = common_refinement(s1.partition, s2.partition)
    dv = s1.values[np.ix_(i1, i1)] - s2.values[np.ix_(i2, i2)]
    mm = merged.measures
    return float(np.sqrt(mm @ (dv * dv) @ mm))


def make_kernel(spec: dict) -> Kernel:
    """Kernel of a JSON spec: a "type" and the keys `_KERNELS` gives it."""
    return build(spec, _KERNELS, "kernel")


def _parts(parts) -> list:
    """direct_sum parts, [{"weight": a, "kernel": {...}}, ...], as (a, Kernel) pairs."""
    pairs = (read(part, _PART, "direct_sum part") for part in parts)
    return [(pair.weight, pair.kernel) for pair in pairs]


_PART = {"weight": (real, REQUIRED), "kernel": (make_kernel, REQUIRED)}
_KERNELS = {
    "step": (StepKernel, {"boundaries": (reals, REQUIRED), "values": (reals, REQUIRED)}),
    "constant": (ConstantKernel, {"c": (real, REQUIRED)}),
    "bipartite": (BipartiteKernel, {"r": (real, REQUIRED)}),
    "product": (
        lambda boundaries, f: ProductKernel(boundaries, f),
        {"boundaries": (reals, REQUIRED), "f": (reals, REQUIRED)},
    ),
    "direct_sum": (DirectSumKernel, {"parts": (_parts, REQUIRED)}),
    "ws_mix": (WattsStrogatzKernel, {"base": (make_kernel, REQUIRED), "p": (real, REQUIRED)}),
}
