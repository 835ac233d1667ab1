import numpy as np
import pytest

import voterlim as vl


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


def random_initial(rng, n_cells=6, amp=1.0):
    vals = rng.uniform(-amp, amp, n_cells)
    return vl.InitialCondition.from_cell_values(vals)


def closed_form_errors(cfg):
    """Sup-over-time L2 error of each ladder solve against `BipartiteClosedForm`."""
    cf = vl.BipartiteClosedForm(cfg.kernel.r, cfg.initial)
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
