"""
Reading structure off a kernel
==============================

Connectivity and twin-sets decide the long-time picture: a connected
graphon forgets everything except the mean, disconnected pieces keep
their own means forever, and signed kernels can freeze a profile that
never reaches consensus.
"""

import numpy as np

import voterlim as vl

# A direct sum of two constant blocks is the canonical disconnected
# kernel.  Each component reports its slice of [0, 1] and its mass.
dsum = vl.make_kernel(
    {
        "type": "direct_sum",
        "parts": [
            {"weight": 0.5, "kernel": {"type": "constant", "c": 1.0}},
            {"weight": 0.5, "kernel": {"type": "constant", "c": 1.0}},
        ],
    }
)
decomp = vl.connected_components(dsum)
for i, comp in enumerate(decomp.components):
    print(f"component {i}: interval {comp.interval}, weight {comp.weight}")

# A start with unequal component means can never reach consensus; the
# necessary-condition check says so without solving anything.
g = vl.InitialCondition.from_cell_values([1.0, 0.6, 0.4, 0.0])
report = vl.necessary_condition(dsum, g)
print("\nmeans per component:", report.component_means)
print("consensus possible:", report.satisfied)

# Solving confirms it: each block settles at its own mean and the
# diameter stalls at the mean gap.
traj = vl.solve_continuum(dsum, g, 16, np.linspace(0.0, 20.0, 81))
print("diameter at t=20:", vl.consensus_diameter(traj.states[-1]))
print("predicted limit:", vl.predict_limit(dsum, g).values)

# The dynamics split as a direct sum over the components, even when
# their cells interleave: cells 0 and 2 form one component, 1 and 3 the
# other.  Solving each alone and reassembling gives the whole solution.
woven = vl.StepKernel(
    [0.0, 0.2, 0.45, 0.7, 1.0],
    [
        [0.9, 0.0, 0.4, 0.0],
        [0.0, 0.6, 0.0, -0.3],
        [0.4, 0.0, 0.8, 0.0],
        [0.0, -0.3, 0.0, 0.5],
    ],
)
start = vl.InitialCondition([0.0, 0.1, 0.5, 0.8, 1.0], [1.0, -0.5, 0.25, 0.75])
times = np.linspace(0.0, 10.0, 21)
_, whole = vl.solve_exact(woven, start, times)
_, split = vl.decompose_solution(woven, start, times)
gap = float(np.abs(split - whole).max())
print("\ninterleaved components:", vl.connected_components(woven).labels.tolist())
print("largest |decompose_solution - solve_exact|:", gap)
assert gap <= 1e-14 * max(1.0, float(np.abs(whole).max()))

# Twin-sets: duplicating vertices of a graph leaves the copies with
# proportional kernel rows, and the detector recovers the grouping.
# The triangle needs distinct edge weights or everything merges.
triangle = vl.WeightedGraph(
    [[0.0, 0.9, 0.3], [0.9, 0.0, 0.6], [0.3, 0.6, 0.0]]
)
blown = vl.blow_up(triangle, [2, 1, 1], scale=[[1.0, 0.5], [1.0], [1.0]])
twins = vl.find_maximal_twin_sets(vl.pixel_kernel(blown))
print("\nblow-up twin sets:", [list(s.cells) for s in twins])
print("multipliers of the first set:", list(twins[0].multipliers))

# The signed 4-cycle: connected, each row minus the opposite vertex's (so
# two twin sets of two), but some profiles are stationary without being
# constant, so consensus never happens.
cycle = vl.WeightedGraph(
    [
        [0.0, 1.0, -1.0, 0.0],
        [1.0, 0.0, 0.0, -1.0],
        [-1.0, 0.0, 0.0, 1.0],
        [0.0, -1.0, 1.0, 0.0],
    ]
)
k4 = vl.pixel_kernel(cycle)
tent = vl.InitialCondition.from_cell_values(
    [-0.75, -0.25, 0.25, 0.75, 0.75, 0.25, -0.25, -0.75]
)
traj = vl.solve_continuum(k4, tent, 8, np.linspace(0.0, 20.0, 81))
print("\nsigned cycle: connected =", len(vl.connected_components(k4).components) == 1,
      "| twin sets =", [list(s.cells) for s in vl.find_maximal_twin_sets(k4)])
print("max movement over [0, 20]:", float(np.abs(traj.states - traj.states[0]).max()))
print("consensus detected:", vl.detect_consensus(traj, 0.05))
