"""
Random graphs sampled from a graphon
====================================

Sampling keeps each edge independently with probability given by the
kernel.  Larger samples hug the continuum flow more tightly, which the
Monte Carlo harness turns into a success curve; every trial is pinned
to its own seed, so any row of the table can be reproduced alone.
"""

import numpy as np

import voterlim as vl

# Rewiring mix: 1 with probability 1 - 2p plus a uniform background.
kernel = vl.make_kernel(
    {"type": "ws_mix", "p": 0.2, "base": {"type": "constant", "c": 1.0}}
)
print("mixed edge density:", kernel.degree(0.0))

# One sample, by hand: edge count concentrates near density * n(n-1)/2.
graph = vl.sample_w_random(kernel, 64, seed=1)
edges = int(np.triu(graph.weights, 1).sum())
print("edges at n=64:", edges, "| expected about", round(0.8 * 64 * 63 / 2))

# Solve the voter flow on the sample and compare its endpoint with the
# deterministic solve of the generating kernel.
g = vl.InitialCondition.balanced_blocks(0.5)
times = np.linspace(0.0, 14.0, 57)
traj = vl.solve_finite(graph, vl.average_initial(g, 64), times)
ref = vl.solve_continuum(kernel, g, 64, times)
gap = vl.step_l2_distance(
    vl.Partition.uniform(64).boundaries,
    traj.states[-1],
    vl.Partition.uniform(64).boundaries,
    ref.states[-1],
)
print("final L2 gap sample vs continuum:", gap)

# The harness: 30 seeded trials per size; success means the final
# exceptional measure stays under c^2.
cfg = vl.ExperimentConfig.from_dict(
    {
        "kernel": {"type": "ws_mix", "p": 0.2, "base": {"type": "constant", "c": 1.0}},
        "initial": {"type": "balanced_blocks", "r": 0.5},
        "n_ladder": [16, 32, 64, 128],
        "trials": 30,
        "horizon": 14.0,
        "eps": 0.01,
        "c": 0.1,
        "base_seed": 7,
    }
)
result = vl.random_consensus_mc(cfg)
print("\nsuccess fractions:")
for n, frac in result.success_fractions:
    print(f"  n={n:>4}: {frac:.2f}")
print("first trial rows:")
for row in result.rows[:3]:
    print(f"  n={row.n} trial={row.trial} seed={row.seed} "
          f"diameter={row.diameter_at_T:.2e} success={row.success}")
