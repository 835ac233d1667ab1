"""
Kernels and their finite discretizations
========================================

A kernel is a symmetric function on the unit square with values in
[-1, 1]; discretizing it at resolution n averages it over the n x n
grid of uniform cells and yields a weighted graph on n vertices.
"""

import numpy as np

import voterlim as vl

# The two-block family: -1 on the square [0, r)^2, +1 everywhere else.
kernel = vl.StepKernel.bipartite(1 / 3)
print("degree at x=0.1:", kernel.degree(0.1))
print("degree at x=0.9:", kernel.degree(0.9))

# Discretize at n=6; r = 1/3 lands exactly on a cell boundary, so the
# weights come out as clean rationals.
graph = vl.discretize_kernel(kernel, 6)
print("\nweights at n=6:")
print(graph.weights)

# The generator of the dynamics divides by n and moves the negated
# off-diagonal row sums onto the diagonal.  Rows sum to zero.
gen = vl.laplacian(graph)
print("\ngenerator at n=6 (times 6):")
print(gen * 6)
print("row sums:", np.abs(gen.sum(axis=1)).max())

# When r does not align with the grid, one straddling cell picks up an
# averaged weight; n=5 shows the mixed entries in the first two rows.
print("\ngenerator at n=5 (times 5):")
print(vl.laplacian(vl.discretize_kernel(kernel, 5)) * 5)

# Any finite graph embeds back into kernel space as its pixel kernel.
# Round-tripping through discretize recovers the weights exactly when
# resolutions match.
pixel = vl.pixel_kernel(graph)
back = vl.discretize_kernel(pixel, 6)
print("\npixel round trip max error:", np.abs(back.weights - graph.weights).max())

# The cut between the two embeddings shrinks as the resolution grows.
for n in (8, 16, 32, 64):
    approx = vl.pixel_kernel(vl.discretize_kernel(kernel, n))
    print(f"L2 gap at n={n:3d}: {vl.l2_distance(kernel, approx):.4f}")
