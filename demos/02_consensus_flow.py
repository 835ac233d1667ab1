"""
The averaging flow and its closed form
======================================

On the two-block kernel, initial profiles with zero mean on each block
decay in place: rate 1 on the big block, rate 1 - 2r on the small one.
The solver reproduces this to machine precision, and conserved
quantities give it nothing to hide behind.
"""

import numpy as np

import voterlim as vl

r = 1 / 3
kernel = vl.StepKernel.bipartite(r)
g = vl.InitialCondition.balanced_blocks(r)

times = np.linspace(0.0, 10.0, 101)
traj = vl.solve_continuum(kernel, g, 300, times)

# Compare against the explicit solution at the cell midpoints: g decays
# in place at its block's rate.
mids = vl.Partition.uniform(300).midpoints()
rates = np.where(mids <= r, 1 - 2 * r, 1.0)
closed = g.evaluate(mids) * np.exp(-np.outer(times, rates))
print("worst pointwise gap to the closed form:", float(np.abs(traj.states - closed).max()))

# The exact continuum solve needs no resolution: it returns the step
# partition the solution lives on and its cell values at each time.
part, values = vl.solve_exact(kernel, g, times)
rates = np.where(part.midpoints() <= r, 1 - 2 * r, 1.0)
closed = values[0] * np.exp(-np.outer(times, rates))
print("exact solve vs closed form:", float(np.abs(values - closed).max()))

# The mean is conserved exactly and the sup norm never grows for
# nonnegative kernels; for this signed kernel the diameter still
# contracts at the slow rate 1 - 2r.
means = [s.mean() for s in traj.states]
print("mean drift:", max(abs(m - means[0]) for m in means))
diam = traj.diameters()
print("diameter at t=0, 5, 10:", diam[0], diam[50], diam[100])
print("slow rate check (log-slope):", np.log(diam[100] / diam[50]) / 5.0)

# Consensus detection: the diameter crosses eps around t = 3 ln(1/eps).
eps = 0.05
t_hit = vl.detect_consensus(traj, eps)
print(f"diameter first stays below {eps} at t = {t_hit}")
print("predicted 3 ln(1/eps) =", 3 * np.log(1 / eps))

# The integral-equation residual is an independent check on any
# trajectory; halving the time step cuts it fourfold.
for num in (51, 101, 201):
    probe = vl.solve_continuum(kernel, g, 64, np.linspace(0.0, 10.0, num))
    print(f"volterra residual with {num:3d} grid times:",
          vl.volterra_residual(kernel, probe))
