"""Structural analysis of step kernels: components, twins and limit prediction.

Connectivity is decided on the support graph of the cells, which for a
step kernel agrees with the measure-theoretic definition (any separating
set can be replaced by a union of cells).  Twin-sets group cells whose
kernel rows are proportional; they are the structure behind closed-form
limit predictions and behind the counterexamples where consensus fails.

Both are classes of the transitive closure of a boolean relation between
cells (nonzero support, pairwise proportionality).  Limit prediction and
the per-component solve read `ComponentDecomposition.labels`, the
component of each source cell.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dynamics import (
    InitialCondition,
    Trajectory,
    average_initial,
    solve_finite,
)
from .errors import UnsupportedVariantError, ValidationError
from .graphs import discretize_kernel
from .kernels import DirectSumKernel, Kernel, StepKernel, common_refinement

PROPORTIONALITY_TOL = 1e-10
MEAN_MATCH_TOL = 1e-10


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

    def reassembled(self) -> DirectSumKernel:
        """Direct sum of the components; equals the source up to cell order."""
        return DirectSumKernel([(c.weight, c.kernel) for c in self.components])


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
class TwinSetPartition:
    source: StepKernel
    sets: tuple[TwinSet, ...]

    @property
    def is_twin_kernel(self) -> bool:
        # The maximal sets always cover every cell of a step kernel.
        return True


@dataclass(frozen=True)
class NecessaryConditionReport:
    """Per-component means of the initial condition and their agreement."""

    satisfied: bool
    component_means: tuple[float, ...]
    spread: float

    def to_dict(self) -> dict:
        return {
            "satisfied": self.satisfied,
            "component_means": list(self.component_means),
            "spread": self.spread,
        }


def connected_components(kernel: Kernel, zero_tol: float = 0.0) -> ComponentDecomposition:
    """Support-graph components of the step refinement, smallest cell first."""
    step = kernel.as_step()
    v = step.values
    labels = _closure(np.abs(v) > zero_tol)
    labels.setflags(write=False)
    measures = step.partition.measures
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
    return ComponentDecomposition(step, tuple(components), labels)


def is_connected(kernel: Kernel, zero_tol: float = 0.0) -> bool:
    """True when the cell support graph is connected.

    Note the degenerate edge: an all-zero kernel refines to a single cell,
    and a one-cell support graph counts as connected here even though no
    mass crosses any split of it.
    """
    return len(connected_components(kernel, zero_tol).components) == 1


def find_maximal_twin_sets(
    kernel: Kernel, prop_tol: float = PROPORTIONALITY_TOL
) -> TwinSetPartition:
    """Partition of the cells into maximal sets with proportional rows.

    Rows i and j pass the pairwise test when
    | v_i * ||v_j|| - sigma * v_j * ||v_i|| | <= prop_tol componentwise,
    with the sign sigma read off the dominant entry; zero rows (norm at
    most prop_tol) form their own single set.  Each pair i < j is tested
    with the dominant entry of row j, and a zero sign means no link.
    Maximal sets are the transitive closure of the pairwise relation.
    """
    step = kernel.as_step()
    v = step.values
    norms = np.linalg.norm(v, axis=1)
    zero = norms <= prop_tol
    related = np.outer(zero, zero)
    for j in range(1, len(v)):
        if zero[j]:
            continue
        p = int(np.argmax(np.abs(v[j])))
        sigma = np.sign(v[:j, p]) * np.sign(v[j, p])
        # Column p alone rules out most rows; only the rest get the full test.
        at_p = np.abs(v[:j, p] * norms[j] - sigma * v[j, p] * norms[:j])
        rows = np.flatnonzero((at_p <= prop_tol) & (sigma != 0.0) & ~zero[:j])
        dev = np.abs(v[rows] * norms[j] - sigma[rows, None] * v[j] * norms[rows, None])
        related[j, rows] = dev.max(axis=1) <= prop_tol
    sets = []
    for cells in _classes(_closure(related | related.T)):
        rep = cells[0]
        if zero[rep]:
            mult = [1.0] * len(cells)
        else:
            p = int(np.argmax(np.abs(v[rep])))
            mult = [float(v[i, p] / v[rep, p]) for i in cells]
        sets.append(TwinSet(tuple(cells), rep, tuple(mult)))
    return TwinSetPartition(step, tuple(sets))


def _component_mean(g: InitialCondition, step: StepKernel, cells) -> float:
    bounds = step.partition.boundaries
    total = 0.0
    weight = 0.0
    for c in cells:
        total += g.integral(bounds[c], bounds[c + 1])
        weight += bounds[c + 1] - bounds[c]
    return total / weight


def _mean_check(
    decomp: ComponentDecomposition, g: InitialCondition
) -> NecessaryConditionReport:
    """The necessary condition evaluated on the components of `decomp`."""
    means = tuple(
        _component_mean(g, decomp.source, comp.cells) for comp in decomp.components
    )
    spread = float(max(means) - min(means)) if means else 0.0
    return NecessaryConditionReport(spread <= MEAN_MATCH_TOL, means, spread)


def necessary_condition(kernel: Kernel, g: InitialCondition) -> NecessaryConditionReport:
    """Check the consensus prerequisite: equal initial means on all components.

    Consensus forces the limit to be the conserved mean of each component,
    so differing component means rule it out.  The converse fails, so a
    satisfied report is necessary, not sufficient.  Means agree when they
    spread by at most MEAN_MATCH_TOL.
    """
    return _mean_check(connected_components(kernel), g)


def predict_limit(kernel: Kernel, g: InitialCondition) -> InitialCondition:
    """Long-time profile predicted from the component structure of a graphon.

    Each component with any mass relaxes to the mean of g over it; a
    component with an all-zero kernel has frozen dynamics and keeps g
    unchanged there.  Requires nonnegative values.
    """
    step = kernel.as_step()
    if step.values.min() < 0.0:
        raise UnsupportedVariantError(
            "limit prediction requires a graphon (no negative values)"
        )
    decomp = connected_components(step)
    frozen = np.array([not np.any(c.kernel.values) for c in decomp.components])
    means = np.array([_component_mean(g, step, c.cells) for c in decomp.components])
    merged, (k_cells, g_cells) = common_refinement(step.partition, g.partition)
    comp_idx = decomp.labels[k_cells]
    values = means[comp_idx]
    frozen_mask = frozen[comp_idx]
    values[frozen_mask] = g.values[g_cells][frozen_mask]
    return InitialCondition(merged, values)


def decompose_solution(kernel: Kernel, g: InitialCondition, n: int, times) -> Trajectory:
    """Solve per component ("expm") and reassemble; must match the direct solve.

    Each component is solved on its own rescaled kernel multiplied by the
    component weight (a block of width a interacts a-fold slower than the
    same kernel on all of [0,1]) with the restriction of the averaged
    initial condition.  The resolution n must align with the kernel cells
    so each component receives a proportional whole number of cells.
    """
    step = kernel.as_step()
    scaled_bounds = step.partition.boundaries * n
    if np.max(np.abs(scaled_bounds - np.round(scaled_bounds))) > 1e-9:
        raise ValidationError(
            "cell allocation is not proportional: every kernel cell boundary "
            f"must be a multiple of 1/{n}"
        )
    decomp = connected_components(step)
    mids = (np.arange(n) + 0.5) / n
    comp_idx = decomp.labels[step.partition.cell_of(mids)]
    u0 = average_initial(g, n)
    times = np.asarray(times, dtype=float)
    out = np.empty((times.size, n))
    detail = []
    for ci, comp in enumerate(decomp.components):
        idx = np.nonzero(comp_idx == ci)[0]
        n_c = idx.size
        a_c = n_c / n
        graph_c = discretize_kernel(comp.kernel.scaled(a_c), n_c)
        traj_c = solve_finite(graph_c, u0[idx], times)
        out[:, idx] = traj_c.states
        detail.append({"cells": int(n_c), "weight": a_c})
    meta = {"n": n, "decomposition": detail}
    try:
        meta["kernel"] = kernel.spec()
    except NotImplementedError:
        meta["kernel"] = None
    return Trajectory(times, out, meta)


def structure_report(
    kernel: Kernel,
    g: InitialCondition | None = None,
    zero_tol: float = 0.0,
    prop_tol: float = PROPORTIONALITY_TOL,
) -> dict:
    """JSON-ready summary: components, twin-sets and the optional mean check."""
    decomp = connected_components(kernel, zero_tol)
    twins = find_maximal_twin_sets(kernel, prop_tol)
    report = {
        "connected": len(decomp.components) == 1,
        "twin_kernel": twins.is_twin_kernel,
        "components": [
            {
                "cells": list(c.cells),
                "weight": c.weight,
                "interval": list(c.interval),
            }
            for c in decomp.components
        ],
        "twin_sets": [
            {
                "cells": list(s.cells),
                "representative": s.representative,
                "multipliers": list(s.multipliers),
            }
            for s in twins.sets
        ],
        "necessary_condition": None,
    }
    if g is not None:
        report["necessary_condition"] = _mean_check(decomp, g).to_dict()
    return report
