"""
How fast finite graphs track the continuum
==========================================

Two experiment harnesses: the convergence study measures the sup-over-
time L2 gap between finite solves and a reference solution along a
ladder of sizes, and the proximity report measures how much mass sits
outside an eps-consensus window once the reference has settled.
"""

import voterlim as vl

base = {
    "kernel": {"type": "bipartite", "r": 1 / 3},
    "initial": {"type": "balanced_blocks", "r": 1 / 3},
}

# Without a reference_n the reference is the exact continuum solution,
# so no reference size needs to be chosen.
cfg = vl.ExperimentConfig.from_dict(
    dict(base, n_ladder=[8, 16, 32, 64, 128, 256], horizon=10.0, num_times=101)
)
table = vl.convergence_study(cfg)
print("reference:", table.reference)
print(f"{'n':>5}  {'sup L2 error':>14}  {'diameter at T':>14}")
for row in table.rows:
    print(f"{row.n:>5}  {row.sup_l2_error:>14.6f}  {row.diameter_at_T:>14.6f}")

# The error halves roughly like 1/sqrt(n) here: the block boundary
# misses the grid, and the single straddling cell carries an O(1)
# mismatch on an O(1/n) sliver.
ratios = [
    table.rows[i].sup_l2_error / table.rows[i + 1].sup_l2_error
    for i in range(len(table.rows) - 1)
]
print("successive error ratios:", [f"{q:.3f}" for q in ratios])

# Proximity: wait for the reference diameter to drop below eps/3, then
# report the worst exceptional measure over a window of length 1.
cfg = vl.ExperimentConfig.from_dict(
    dict(
        base,
        n_ladder=[32, 256],
        horizon=25.0,
        num_times=251,
        eps=0.01,
        window=1.0,
        c=0.1,
    )
)
report = vl.consensus_proximity(cfg)
print("\nproximity status:", report.status)
print("settling time of the reference:", report.t_eps)
for row in report.rows:
    print(f"n={row.n:>4}: max exceptional measure {row.max_exceptional_measure}")
print("threshold c^2 =", cfg.c**2)
