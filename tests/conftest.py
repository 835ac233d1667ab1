import numpy as np
import pytest

import voterlim as vl

from _oracles import BipartiteClosedForm


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def random_step_kernel(rng, max_cells=8, nonneg=False, low=None):
    """Random symmetric step kernel on a random partition."""
    m = int(rng.integers(2, max_cells + 1))
    cuts = np.sort(rng.uniform(0.05, 0.95, m - 1))
    cuts = np.unique(cuts)
    bounds = np.concatenate([[0.0], cuts, [1.0]])
    lo = low if low is not None else (0.0 if nonneg else -1.0)
    vals = rng.uniform(lo, 1.0, (bounds.size - 1, bounds.size - 1))
    vals = (vals + vals.T) / 2
    return vl.StepKernel(bounds, vals)


def signed_zero_step_kernel(rng, m, aligned):
    """Step kernel with m cells, boundaries random or on a 1/k grid.

    Half of the value matrices draw from a palette with repeats, 0.0 and
    -0.0, the others uniformly; symmetry is by copying, so -0.0 survives.
    """
    if aligned:
        k = int(rng.integers(m, 4 * m + 1))
        cuts = np.sort(rng.choice(np.arange(1, k), m - 1, replace=False)) / k
    else:
        cuts = np.unique(rng.uniform(0.01, 0.99, m - 1))
    bounds = np.concatenate([[0.0], cuts, [1.0]])
    size = (bounds.size - 1,) * 2
    if rng.random() < 0.5:
        vals = rng.choice([-1.0, -0.5, -0.0, 0.0, 0.25, 1.0], size)
    else:
        vals = rng.uniform(-1.0, 1.0, size)
    return vl.StepKernel(bounds, np.where(np.triu(np.ones(size, bool)), vals, vals.T))


def random_initial(rng, n_cells=6, amp=1.0):
    vals = rng.uniform(-amp, amp, n_cells)
    return vl.InitialCondition.from_cell_values(vals)


def closed_form_errors(cfg):
    """Sup-over-time L2 error of each ladder solve against `BipartiteClosedForm`."""
    cf = BipartiteClosedForm(cfg.kernel.r, cfg.initial)
    times = cfg.times()
    errors = []
    for n in cfg.n_ladder:
        states = vl.solve_continuum(cfg.kernel, cfg.initial, n, times).states
        part = vl.Partition.uniform(n)
        errors.append(
            max(
                vl.step_l2_distance(part, s, cf.partition, cf.values_at(t))
                for s, t in zip(states, times)
            )
        )
    return errors
