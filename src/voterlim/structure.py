"""Structural analysis of step kernels: components, twins and limit prediction.

Connectivity is decided on the support graph of the cells, which for a
step kernel agrees with the measure-theoretic definition (any separating
set can be replaced by a union of cells).  Twin-sets group cells whose
kernel rows are proportional; they are the structure behind closed-form
limit predictions and behind the counterexamples where consensus fails.

Both are classes of the transitive closure (`kernels._closure`, which the
exact solver shares) of a boolean relation between cells: nonzero
support, pairwise proportionality.  Limit prediction and the paper's
per-component `solve_exact` read `ComponentDecomposition.labels`, the
component of each source cell.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .dynamics import InitialCondition, _validate_times, solve_exact
from .errors import UnsupportedVariantError
from .kernels import Partition, StepKernel, _closure, common_refinement

PROPORTIONALITY_TOL = 1e-10
MEAN_MATCH_TOL = 1e-10


def _classes(labels: np.ndarray) -> list[list[int]]:
    """Cells of each class, in label order, ascending within a class."""
    return [np.flatnonzero(labels == c).tolist() for c in range(labels.max() + 1)]


@dataclass(frozen=True)
class Component:
    """One connected piece of a step kernel.

    `cells` are the original cell indices, `interval` the contiguous block
    the component occupies after relabelling, `kernel` the induced step
    kernel rescaled onto [0,1]^2 (values unchanged).
    """

    cells: tuple[int, ...]
    weight: float
    interval: tuple[float, float]
    kernel: StepKernel


@dataclass(frozen=True)
class ComponentDecomposition:
    source: StepKernel
    components: tuple[Component, ...]
    labels: np.ndarray  # component index of each source cell


@dataclass(frozen=True)
class TwinSet:
    """Cells whose kernel rows are pairwise proportional.

    `multipliers[k]` relates row cells[k] to the representative row:
    row_cells[k] = multipliers[k] * row_representative.  A set of zero
    rows carries unit multipliers by convention.
    """

    cells: tuple[int, ...]
    representative: int
    multipliers: tuple[float, ...]


@dataclass(frozen=True)
class NecessaryConditionReport:
    """Per-component means of the initial condition and their agreement."""

    satisfied: bool
    component_means: tuple[float, ...]
    spread: float


def connected_components(kernel: StepKernel) -> ComponentDecomposition:
    """Support-graph components of the kernel's cells, smallest cell first.

    Cells are linked where the kernel is nonzero, exactly: the support of
    Janson's definition of connectivity.
    """
    v = kernel.values
    labels = _closure(v != 0.0)
    labels.setflags(write=False)
    measures = kernel.partition.measures
    components = []
    offset = 0.0
    for cells in _classes(labels):
        weight = float(measures[cells].sum())
        inner = np.concatenate([[0.0], np.cumsum(measures[cells]) / weight])
        inner[-1] = 1.0
        sub = StepKernel(inner, v[np.ix_(cells, cells)])
        components.append(
            Component(tuple(cells), weight, (offset, offset + weight), sub)
        )
        offset += weight
    return ComponentDecomposition(kernel, tuple(components), labels)


def is_connected(kernel: StepKernel) -> bool:
    """True when the kernel is connected in Janson's sense."""
    return _connected(connected_components(kernel))


def _connected(decomp: ComponentDecomposition) -> bool:
    """One component and a kernel that is not identically zero.

    The zero kernel is one (frozen) component, yet no mass crosses any
    split of it, so it is not connected.
    """
    return len(decomp.components) == 1 and bool(decomp.source.values.any())


def find_maximal_twin_sets(kernel: StepKernel) -> tuple[TwinSet, ...]:
    """The maximal sets of cells with proportional rows, smallest cell first.

    The sets cover every cell.  Zero rows (all entries exactly 0) form
    their own single set.  Nonzero rows i and j are linked when, for
    sigma = +1 or sigma = -1,
    | v_i * ||v_j|| - sigma * v_j * ||v_i|| | <= PROPORTIONALITY_TOL * (||v_i|| * ||v_j||)
    componentwise: a relative test, symmetric in i and j, so scaling the
    kernel leaves it unchanged.  It is homogeneous in each row, so it runs
    on the rows divided by their largest magnitude, whose squared norms
    cannot underflow.  Maximal sets are the transitive closure of the
    pairwise relation.
    """
    v = kernel.values
    scale = np.abs(v).max(axis=1)
    zero = scale == 0.0
    u = v / np.where(zero, 1.0, scale)[:, None]
    norms = np.linalg.norm(u, axis=1)
    related = np.outer(zero, zero)
    for j in range(1, len(v)):
        if zero[j]:
            continue
        p = int(np.argmax(np.abs(u[j])))
        bound = PROPORTIONALITY_TOL * (norms[:j] * norms[j])
        # Only the sign of u_i[p] * u_j[p] can pass: with the other, column
        # p deviates by at least |u_j[p]| ||u_i|| >= ||u_i|| ||u_j|| / sqrt(m).
        sigma = np.copysign(1.0, u[:j, p] * u[j, p])
        # Column p alone rules out most rows; only the rest get the full test.
        at_p = np.abs(u[:j, p] * norms[j] - sigma * u[j, p] * norms[:j])
        rows = np.flatnonzero((at_p <= bound) & ~zero[:j])
        dev = np.abs(u[rows] * norms[j] - sigma[rows, None] * u[j] * norms[rows, None])
        related[j, rows] = dev.max(axis=1) <= bound[rows]
    sets = []
    for cells in _classes(_closure(related | related.T)):
        rep = cells[0]
        if zero[rep]:
            mult = [1.0] * len(cells)
        else:
            p = int(np.argmax(np.abs(v[rep])))
            mult = [float(v[i, p] / v[rep, p]) for i in cells]
        sets.append(TwinSet(tuple(cells), rep, tuple(mult)))
    return tuple(sets)


def _refined_means(decomp: ComponentDecomposition, g: InitialCondition):
    """(mean of g over each component, common refinement with g, kernel cell
    and g cell of each refined cell); the means by two bincounts."""
    part, (cells, g_cells) = common_refinement(decomp.source.partition, g.partition)
    comp, mass = decomp.labels[cells], part.measures  # every component has a cell here
    means = np.bincount(comp, mass * g.values[g_cells]) / np.bincount(comp, mass)
    return means, part, cells, g_cells


def _mean_check(
    decomp: ComponentDecomposition, g: InitialCondition
) -> NecessaryConditionReport:
    """The necessary condition evaluated on the components of `decomp`."""
    means = tuple(_refined_means(decomp, g)[0].tolist())
    spread = float(max(means) - min(means)) if means else 0.0
    return NecessaryConditionReport(spread <= MEAN_MATCH_TOL, means, spread)


def necessary_condition(kernel: StepKernel, g: InitialCondition) -> NecessaryConditionReport:
    """Check the consensus prerequisite: equal initial means on all components.

    Consensus forces the limit to be the conserved mean of each component,
    so differing component means rule it out.  The converse fails, so a
    satisfied report is necessary, not sufficient.  Means agree when they
    spread by at most MEAN_MATCH_TOL.
    """
    return _mean_check(connected_components(kernel), g)


def predict_limit(kernel: StepKernel, g: InitialCondition) -> InitialCondition:
    """Long-time profile predicted from the component structure of a graphon.

    Each component with any mass relaxes to the mean of g over it; a
    component with an all-zero kernel (a cell with a zero row) has frozen
    dynamics and keeps g unchanged there.  Requires nonnegative values.
    """
    if kernel.values.min() < 0.0:
        raise UnsupportedVariantError(
            "limit prediction requires a graphon (no negative values)"
        )
    decomp = connected_components(kernel)
    means, merged, cells, g_cells = _refined_means(decomp, g)
    values = means[decomp.labels[cells]]
    frozen = ~kernel.values.any(axis=1)[cells]
    values[frozen] = g.values[g_cells][frozen]
    return InitialCondition(merged, values)


def decompose_solution(
    kernel: StepKernel, g: InitialCondition, times
) -> tuple[Partition, np.ndarray]:
    """`solve_exact` run on each component alone: (partition, cell values per time).

    A component of weight a evolves on its kernel rescaled onto [0,1] and
    multiplied by a (a block of width a interacts a-fold slower than the
    same kernel on all of [0,1]), from the restriction of g carried onto
    [0,1] by the same chart.  The results are read back on the common
    refinement of the kernel and g partitions, the partition `solve_exact`
    returns for the whole kernel; the values match its to rounding.
    """
    t = _validate_times(times)
    decomp = connected_components(kernel)
    part, (cells, g_cells) = common_refinement(kernel.partition, g.partition)
    # exactly 0 where a merged cell starts a kernel cell, so the chart puts
    # it on the component kernel's own boundary and adds no sliver cells
    offsets = part.boundaries[:-1] - kernel.partition.boundaries[cells]
    values = np.empty((t.size, part.size))
    for ci, comp in enumerate(decomp.components):
        pieces = np.flatnonzero(decomp.labels[cells] == ci)
        rank = np.searchsorted(comp.cells, cells[pieces])
        starts = comp.kernel.partition.boundaries[rank] + offsets[pieces] / comp.weight
        local = InitialCondition(np.append(starts, 1.0), g.values[g_cells[pieces]])
        local_part, local_values = solve_exact(comp.kernel.scaled(comp.weight), local, t)
        mids = (starts + np.append(starts[1:], 1.0)) / 2.0
        values[:, pieces] = local_values[:, local_part.cell_of(mids)]
    return part, values


def structure_report(kernel: StepKernel, g: InitialCondition | None = None) -> dict:
    """JSON-ready summary: components, twin-sets and the optional mean check.

    Twin sets and the mean check are their dataclass fields (`asdict`); a
    component is its fields but the kernel.
    """
    decomp = connected_components(kernel)
    twins = find_maximal_twin_sets(kernel)
    return {
        "connected": _connected(decomp),
        # the maximal twin sets cover every cell, so a step kernel is a twin kernel
        "twin_kernel": True,
        "components": [
            {"cells": c.cells, "weight": c.weight, "interval": c.interval}
            for c in decomp.components
        ],
        "twin_sets": [asdict(s) for s in twins],
        "necessary_condition": None if g is None else asdict(_mean_check(decomp, g)),
    }
