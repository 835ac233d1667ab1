"""Voter/consensus dynamics: solvers and diagnostics.

The finite model is the linear ODE du/dt = D u with D the graph's
dynamics generator; the continuum model is its kernel limit.  Every exact
solve reduces its input to classes of cells with identical weight rows,
then runs one core, `_solve_classes`:

- `solve_finite(graph, u0, times)`: the vertices, in the graph's twin
  classes (`byte_classes` of its weights);
- `solve_continuum(kernel, g, n, times)`: the pixels of the discretisation
  at n, in the same twin classes, which `graphs.pixel_classes` reads off
  the kernel's partition, so the trajectory and metadata equal those of
  `solve_finite` on `discretize_kernel`, bit for bit; the n x n matrix is
  formed only when the kernel has at least n cells;
- `solve_exact(kernel, g, times)`: the cells of the common refinement of
  the kernel and g partitions, in the kernel cells, weighted by measure.

The core records which of two paths ran in `metadata["solver_path"]`,
with the number q of classes:

- "twin_quotient" (q < n, and every `solve_exact`): an exact q x q
  eigendecomposition of the class-mean dynamics plus a closed-form decay
  of each cell's deviation from its class mean, synthesised once per
  distinct (class, start value) column.  A step kernel with m
  cells discretised at n has q <= 2m - 1 classes of pixels with equal
  overlaps (fewer when their weight rows coincide); at other n than
  powers of two, overlaps around a cell boundary can differ in the last
  bit, which leaves q a little larger but still small.
- "krylov" (q = n, any grid): Lanczos with full reorthogonalisation
  builds exp(t D) u0 at every grid time from one basis by products with
  the weights.  The Hochbruck-Lubich a-priori bound caps the Krylov
  dimension, at most n, and Saad's a-posteriori estimate stops the loop.

The Volterra integral-equation residual checks any trajectory without
running a solver.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from ._schema import REQUIRED, build, checked, count, positive, real, reals
from .errors import SolverConvergenceError, ValidationError
from .graphs import WeightedGraph, _size, byte_classes, pixel_classes
from .kernels import Partition, StepKernel, _closure, common_refinement, overlap_matrix

# Default tolerances; every consumer that overrides them records the value
# it used in its output metadata.
CONSENSUS_EPS = 1e-3
KRYLOV_TOL = 1e-16
# Factor on Saad's a-posteriori Lanczos error estimate before it is held
# against KRYLOV_TOL.
KRYLOV_SAFETY = 10.0
DEFAULT_NUM_TIMES = 201


class InitialCondition:
    """Bounded step function on [0,1] describing the initial opinions.

    Stored canonically: adjacent cells with exactly equal values are
    merged, so equality of profiles is equality of representations.
    """

    def __init__(self, boundaries, values):
        part = boundaries if isinstance(boundaries, Partition) else Partition(boundaries)
        v = np.asarray(values, dtype=float)
        if v.shape != (part.size,):
            raise ValidationError("need one value per cell")
        if not np.all(np.isfinite(v)):
            raise ValidationError("initial values must be finite")
        keep = np.ones(part.size, dtype=bool)
        keep[1:] = v[1:] != v[:-1]
        bounds = np.concatenate([part.boundaries[:-1][keep], [1.0]])
        self.partition = Partition(bounds)
        v = v[keep].copy()
        v.setflags(write=False)
        self.values = v

    @classmethod
    def constant(cls, c: float) -> "InitialCondition":
        return cls([0.0, 1.0], [c])

    @classmethod
    def from_cell_values(cls, values) -> "InitialCondition":
        """Step function on the uniform partition with the given cell values."""
        values = np.asarray(values, dtype=float)
        return cls(Partition.uniform(values.size), values)

    @classmethod
    def balanced_blocks(cls, r: float) -> "InitialCondition":
        """Profile with zero mean on [0, r) and on [r, 1] separately.

        Each block is split in half and assigned +0.5 and -0.5, the
        simplest profile that the two-block kernel lets decay in place;
        other amplitudes are a "step" profile.
        """
        if not (0.0 < r < 1.0):
            raise ValidationError("split point r must lie in (0, 1)")
        bounds = [0.0, r / 2.0, r, (1.0 + r) / 2.0, 1.0]
        return cls(bounds, [0.5, -0.5, 0.5, -0.5])

    def evaluate(self, x):
        return self.values[self.partition.cell_of(x)]

    def integral(self, a: float = 0.0, b: float = 1.0) -> float:
        """Exact integral of the step function over [a, b]."""
        if not (0.0 <= a <= b <= 1.0):
            raise ValidationError("integration limits must satisfy 0 <= a <= b <= 1")
        lo = np.maximum(self.partition.boundaries[:-1], a)
        hi = np.minimum(self.partition.boundaries[1:], b)
        return float(np.maximum(hi - lo, 0.0) @ self.values)

    def mean(self) -> float:
        return self.integral(0.0, 1.0)

    def spec(self) -> dict:
        return {
            "type": "step",
            "boundaries": self.partition.boundaries.tolist(),
            "values": self.values.tolist(),
        }

    def __repr__(self):
        return f"InitialCondition({self.partition.size} pieces)"


def make_initial(spec: dict) -> InitialCondition:
    """Initial condition of a JSON spec: a "type" and the keys `_INITIALS` gives it."""
    return build(spec, _INITIALS, "initial-condition")


_INITIALS = {
    "step": (InitialCondition, {"boundaries": (reals, REQUIRED), "values": (reals, REQUIRED)}),
    "constant": (InitialCondition.constant, {"c": (real, REQUIRED)}),
    "uniform_cells": (InitialCondition.from_cell_values, {"values": (reals, REQUIRED)}),
    "balanced_blocks": (InitialCondition.balanced_blocks, {"r": (real, REQUIRED)}),
}


class Trajectory:
    """Solution samples on a time grid: states[k] is the profile at times[k]."""

    def __init__(self, times, states, metadata=None):
        t = _validate_times(times)
        s = np.asarray(states, dtype=float)
        if s.ndim != 2 or s.shape[0] != t.size or s.shape[1] < 1:
            raise ValidationError("need one state row of at least one cell per grid time")
        t = t.copy()
        t.setflags(write=False)
        s = s.copy()
        s.setflags(write=False)
        self.times = t
        self.states = s
        self.metadata = dict(metadata or {})

    @classmethod
    def _trusted(cls, times: np.ndarray, states: np.ndarray, metadata: dict) -> "Trajectory":
        """Trajectory on a validated grid and a solver's fresh states.

        Stores `states` itself, made read-only, without the constructor's
        copy; the grid is copied, as the caller may still hold it.
        """
        traj = cls.__new__(cls)
        traj.times = times.copy()
        traj.times.setflags(write=False)
        states.setflags(write=False)
        traj.states = states
        traj.metadata = metadata
        return traj

    @property
    def n(self) -> int:
        return self.states.shape[1]

    def diameters(self) -> np.ndarray:
        return self.states.max(axis=1) - self.states.min(axis=1)

    def __repr__(self):
        return f"Trajectory(n={self.n}, times={self.times.size})"


def average_initial(g: InitialCondition, n: int) -> np.ndarray:
    """Cell averages of g on the uniform n-partition: n * integral over each cell."""
    n = _size(n, "averaging")
    overlap = overlap_matrix(Partition.uniform(n), g.partition)
    return n * (overlap @ g.values)


def _validate_times(times) -> np.ndarray:
    try:
        t = np.asarray(times, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"malformed time grid: {exc}") from exc
    if t.ndim != 1 or t.size < 1:
        raise ValidationError("time grid must be a non-empty 1-D array")
    if not np.all(np.isfinite(t)):
        raise ValidationError("time grid must be finite")
    if t[0] != 0.0:
        raise ValidationError("time grid must start at 0")
    if np.any(np.diff(t) <= 0.0):
        raise ValidationError("time grid must be strictly increasing")
    return t


def _lanczos_bound(m: int, rho_tau: float) -> float:
    """Hochbruck-Lubich (1997) Theorem 2 bound on the m-step Lanczos error.

    Bounds |exp(tau A) v - V_m exp(tau T_m) e_1| for |v| = 1 and A
    symmetric with spectrum in [-4 rho, 0]; inf where the theorem gives
    no bound (m < sqrt(4 rho tau)).
    """
    if rho_tau == 0.0:
        return 0.0
    if m >= 2.0 * rho_tau:
        return math.exp(
            math.log(10.0 / rho_tau) - rho_tau + m * math.log(math.e * rho_tau / m)
        )
    if m * m >= 4.0 * rho_tau:
        return 10.0 * math.exp(-m * m / (5.0 * rho_tau))
    return math.inf


def _solve_krylov(w, d, u0, times) -> tuple[np.ndarray, dict]:
    """exp(t D) u0 on the grid by Lanczos on weights w with degrees d.

    Lanczos on the mean-free part r of u0, which D keeps mean-free, gives
    u(t) = mean + |r| V_m exp(t T_m) e_1 at every grid time from one basis
    V_m and the m x m tridiagonal T_m.  The a-priori cap on m is the
    smallest m < n whose `_lanczos_bound` is at most KRYLOV_TOL, with
    rho tau = T (hi - lo) / 4 for the horizon T and the Gershgorin interval
    [lo, hi] of D (the bound holds for D - hi I, and grows with tau); else
    n, where the space is invariant and the result exact.  The loop stops
    earlier once Saad's a-posteriori estimate KRYLOV_SAFETY beta_m
    |e_m^T exp(t T_m) e_1|, at the worst grid time t > 0 and divided by
    the largest coefficient where the solution grows above 1, is at most
    KRYLOV_TOL, or on breakdown.  It is taken at every second step from
    m^2 >= 4 rho tau on, where the bound is finite, and at the last step.
    Two full reorthogonalisation passes run at each step (one loses
    orthogonality on near-disconnected graphs and can overflow).  The
    metadata records `krylov_dim` (the dimension reached), `krylov_bound`
    (the a-priori bound at the cap; 0.0 at a cap of n, where it does not
    apply), `krylov_stop` ("estimate", "cap" or "breakdown") and
    `krylov_estimate` (the last estimate taken).
    """
    n = w.shape[0]
    diag = np.diag(w)
    centre = diag / n - d
    # the off-diagonal absolute row sums are the degrees without self-weights
    # when w >= 0, which spares the n x n np.abs(w)
    radius = -centre if w.min() >= 0.0 else (np.abs(w).sum(axis=1) - np.abs(diag)) / n
    lo, hi = float((centre - radius).min()), float((centre + radius).max())
    rho_tau = float(times[-1]) * (hi - lo) / 4.0
    dim = next((m for m in range(1, n) if _lanczos_bound(m, rho_tau) <= KRYLOV_TOL), n)
    mean = u0.mean()
    r = u0 - mean
    beta0 = math.sqrt(r @ r)  # np.linalg.norm's bits, without its overhead
    m, stop, estimate = 0, "breakdown", 0.0
    if beta0 == 0.0:
        states = np.full((times.size, n), mean)
    else:
        basis = np.empty((dim, n))
        tri = np.zeros((dim, dim))
        x = np.empty(n)
        basis[0] = r / beta0
        # a residual below this is rounding: the space is invariant
        breakdown = np.finfo(float).eps * n * (hi - lo)
        while True:
            v = basis[m]
            np.matmul(w, v, out=x)
            x /= n
            x -= d * v
            tri[m, m] = v @ x
            m += 1
            for _ in range(2):  # full reorthogonalisation, twice
                x -= basis[:m].T @ (basis[:m] @ x)
            beta = math.sqrt(x @ x)
            stop = "breakdown" if beta <= breakdown else "cap" if m == dim else None
            # every second step: eigh(T_m) costs about as much as a step at
            # n = 256 by m = 18.  Below m^2 = 4 rho tau the space cannot resolve
            # exp(T D) and the estimate can miss slow modes not yet in it.
            if stop or (m % 2 == 0 and m * m >= 4.0 * rho_tau):
                theta, s = np.linalg.eigh(tri[:m, :m])
                coeffs = (np.exp(np.outer(times, theta)) * s[0]) @ s.T
                # t = 0 is exact (e_1), and its rounding is no error estimate
                last = float(np.abs(coeffs[1:, -1]).max(initial=0.0))
                growth = max(1.0, float(np.abs(coeffs).max()))
                estimate = KRYLOV_SAFETY * beta * last / growth
                if stop != "breakdown" and estimate <= KRYLOV_TOL:
                    stop = "estimate"
                if stop:
                    break
            basis[m] = x / beta
            tri[m, m - 1] = tri[m - 1, m] = beta
        states = coeffs @ basis[:m]  # in place from here: no second T x n array
        states *= beta0
        states += mean
    return states, {
        "solver_path": "krylov",
        "q": n,
        "krylov_dim": m,
        "krylov_bound": _lanczos_bound(dim, rho_tau) if dim < n else 0.0,
        "krylov_stop": stop,
        "krylov_estimate": estimate,
    }


def _class_flow(b, d, sizes, scale, means, times) -> tuple[np.ndarray, np.ndarray]:
    """(eigenvalues, class means per time) of dc/dt = (B S / scale - diag(d)) c.

    B holds the weights between q classes, S = diag(sizes) (vertex counts
    with scale n, or cell measures with scale 1) and d the class degrees.
    The S-weighted mean of c over each component of B != 0 is conserved,
    so it is kept exactly; only the rest evolves, by one q x q
    eigendecomposition of A = S^(1/2) B S^(1/2) / scale - diag(d).
    """
    comp = _closure(b != 0)
    kept = (np.bincount(comp, weights=sizes * means) / np.bincount(comp, weights=sizes))[comp]
    root = np.sqrt(sizes)
    a = root[:, None] * b * root / scale - np.diag(d)
    eigvals, eigvecs = np.linalg.eigh(a)
    coeffs = eigvecs.T @ (root * (means - kept))
    return eigvals, kept + (np.exp(np.outer(times, eigvals)) * coeffs) @ eigvecs.T / root


def _decay(times, rates, deviation) -> np.ndarray:
    """exp(-rates t) * deviation on the grid, exactly deviation where it is 0.

    A zero deviation stays zero even where exp(-rates t) overflows, so a
    start constant on each class is not turned into inf * 0 = NaN; the
    other entries, and the signed zeros, keep the bits of the plain product.
    """
    rates = np.where(deviation == 0.0, 0.0, rates)
    return np.exp(np.outer(times, -rates)) * deviation


def _solve_classes(labels, masses, sizes, scale, d, b, u0, times) -> tuple[np.ndarray, dict]:
    """exp(t D) u0 on the grid from cells grouped into q classes: (states, path metadata).

    labels[i] is the class of cell i.  A graph passes masses None: its
    cells are its n vertices, sizes the vertex counts of the classes and
    scale n.  The continuum passes the cell measures as masses, the class
    measures as sizes and scale 1.  d holds the class degrees and b the
    q x q weights between classes.  The rows of a class are identical, so
    splitting u = P c + v, with c the class means and v of zero mean over
    each class, gives two decoupled exact equations: the class-mean flow
    of `_class_flow`, and dv/dt = -d[label] v, so v(t) = exp(-d[label] t)
    v(0).  Cells of one class with bit-identical start values therefore
    evolve bit-identically: each distinct (class, start) column, keyed by
    `byte_classes`, is synthesised once, checked and set to its start, and
    one gather expands the T x (distinct columns) result to the n cells.
    A step kernel at n = 2048 has a few dozen such columns.  When every
    cell is its own class (q = n), b is the weight matrix and
    `_solve_krylov` solves on the whole grid.  States start exactly at u0;
    values beyond the float range raise SolverConvergenceError.
    """
    q = sizes.size
    start, cols = u0, None  # cols: the synthesised column of each cell
    # overflow is judged below, not reported by numpy
    with np.errstate(over="ignore", invalid="ignore"):
        if masses is None and q == u0.size:
            states, detail = _solve_krylov(b, d, u0, times)
        else:
            weighted = u0 if masses is None else masses * u0
            means = np.bincount(labels, weights=weighted, minlength=q) / sizes
            _, class_means = _class_flow(b, d, sizes, scale, means, times)
            # cells of one class with one start value evolve bit-identically
            cols, heads = byte_classes(np.stack([labels.astype(float), u0], axis=1))
            hl = labels[heads]
            start = u0[heads]
            states = class_means[:, hl] + _decay(times, d[hl], start - means[hl])
            detail = {"solver_path": "twin_quotient", "q": q}
    states[0] = start  # t=0 is the given state, not a reconstruction of it
    if not np.all(np.isfinite(states)):
        raise SolverConvergenceError(
            "trajectory left the representable range; shorten the horizon"
        )
    return (states if cols is None else states[:, cols]), detail


def _class_degrees(labels, weights) -> np.ndarray:
    """Degrees of the q classes of a graph given by its vertex classes and
    their q x q weights: each head's row expanded to the n vertices and
    summed in the order the graph's own row sum takes, divided by n."""
    n = labels.size
    rows = weights if weights.shape[0] == n else np.take(weights, labels, axis=1)
    return rows.sum(axis=1) / n


def _solve_twins(labels, weights, u0, times) -> tuple[np.ndarray, dict]:
    """`_solve_classes` on a graph given by vertex classes and their weights.

    The classes must have identical weight rows.  n x n weights (each
    vertex its own class) are first reduced to the twin classes, so a
    graph without twins runs Lanczos on the whole grid.
    """
    n = labels.size
    d = _class_degrees(labels, weights)
    if weights.shape[0] == n:
        labels, heads = byte_classes(weights)
        d = d[heads]  # the head rows are the classes' rows: no q x n expansion
        if heads.size < n:
            weights = weights[np.ix_(heads, heads)]
    return _solve_classes(labels, None, np.bincount(labels), n, d, weights, u0, times)


def solve_finite(graph: WeightedGraph, u0, times) -> Trajectory:
    """Solve du/dt = D u exactly on the given time grid.

    The graph is reduced to its twin classes and solved by
    `_solve_classes` (`_solve_twins`).  The metadata records the path
    taken (`solver_path`) and the number of twin classes `q`, plus on the
    Krylov path `krylov_dim`, the a-priori `krylov_bound`, `krylov_stop`
    and `krylov_estimate` (see `_solve_krylov`).
    """
    t = _validate_times(times)
    u = np.asarray(u0, dtype=float)
    n = _size(graph.n, "finite solve")
    if u.shape != (n,):
        raise ValidationError(f"state has {u.size} cells, graph has {n}")
    states, detail = _solve_twins(np.arange(n), graph.weights, u, t)
    return Trajectory._trusted(t, states, {"n": n, **detail})


def solve_continuum(kernel: StepKernel, g: InitialCondition, n: int, times) -> Trajectory:
    """Finite-n approximation of the kernel dynamics started from g.

    The same trajectory, bit for bit and with the same metadata, as
    `solve_finite(discretize_kernel(kernel, n), average_initial(g, n),
    times)`, but solved on the discretisation's twin classes, without
    forming its n x n matrix unless the kernel has at least n cells:
    `_solve_twins` solves on the graph's twin classes and their q x q
    weights, which `pixel_classes` returns.
    """
    labels, _, weights = pixel_classes(kernel, n)
    u0 = average_initial(g, labels.size)
    t = _validate_times(times)
    states, detail = _solve_twins(labels, weights, u0, t)
    meta = {"n": labels.size, **detail, "kernel": kernel.spec(), "initial": g.spec()}
    return Trajectory._trusted(t, states, meta)


def _kernel_cells(kernel: StepKernel):
    """(cell measures, cell degrees) of a kernel."""
    sizes = kernel.partition.measures
    return sizes, kernel.values @ sizes


def solve_exact(kernel: StepKernel, g: InitialCondition, times) -> tuple[Partition, np.ndarray]:
    """Exact continuum solution from g: (partition, cell values per time).

    u(., t) is a step function on the common refinement of the kernel and
    g partitions.  `_solve_classes` solves it with the kernel cells as
    classes of the refined cells: their means follow `_class_flow`, and
    each deviation from them decays at its kernel cell's degree.
    """
    t = _validate_times(times)
    sizes, d = _kernel_cells(kernel)
    part, (cells, g_cells) = common_refinement(kernel.partition, g.partition)
    u0 = g.values[g_cells]
    values, _ = _solve_classes(cells, part.measures, sizes, 1.0, d, kernel.values, u0, t)
    return part, values


def default_horizon(kernel: StepKernel | None = None) -> tuple[float, str]:
    """Config default for the horizon: 10 / spectral gap when estimable, else 20.

    The gap is the slowest strictly decaying rate of the continuum
    generator: its spectrum is the `_class_flow` eigenvalues over the
    kernel cells plus {-d_k}.  Kernels with divergent modes or no decaying
    mode fall back to the flat default.  Returns (horizon, source).
    """
    if kernel is None:
        return 20.0, "fallback"
    sizes, d = _kernel_cells(kernel)
    # spectrum only: the empty grid evolves no means
    quotient, _ = _class_flow(kernel.values, d, sizes, 1.0, np.zeros_like(d), np.empty(0))
    eigvals = np.concatenate([quotient, -d])
    if eigvals.max() > 1e-12:
        return 20.0, "fallback"
    decaying = eigvals[eigvals < -1e-12]
    if decaying.size == 0:
        return 20.0, "fallback"
    return float(10.0 / -decaying.max()), "spectral_gap"


def resolve_time_grid(
    kernel: StepKernel | None, horizon=None, num_times=DEFAULT_NUM_TIMES, times=None
) -> tuple[np.ndarray, float, str]:
    """Time grid of a run config: (times, horizon, horizon_source).

    The one reader of `horizon`, `num_times` and `times`, for `simulate`
    and the experiment configs alike.  Explicit `times` win; they must
    end at a positive time, which is the horizon.  Otherwise the grid has
    `num_times` (at least 2) evenly spaced points on [0, horizon], for a
    positive finite horizon or, when it is None, `default_horizon(kernel)`.
    Every grid returned passes `_validate_times`; values that form none
    raise a ValidationError naming the key.
    """
    if times is not None:
        t = _validate_times(times)
        if t.size < 2:  # it starts at 0
            raise ValidationError("malformed time grid value for 'times': must end after 0")
        return t, float(t[-1]), "config"
    source = "config"
    if horizon is None:
        horizon, source = default_horizon(kernel)
    horizon = checked(positive, "horizon", horizon, "time grid")
    num_times = checked(count, "num_times", num_times, "time grid")
    if num_times < 2:
        raise ValidationError("malformed time grid value for 'num_times': must be at least 2")
    # a horizon of a few subnormals has steps that round to 0
    return _validate_times(np.linspace(0.0, horizon, num_times)), horizon, source


def _cells(state) -> np.ndarray:
    """A state as a float array; a state without cells is a ValidationError."""
    v = np.asarray(state, dtype=float)
    if v.size < 1:
        raise ValidationError("a state needs at least one cell")
    return v


def consensus_diameter(state) -> float:
    """Spread of opinions: max minus min cell value."""
    v = _cells(state)
    return float(v.max() - v.min())


def exceptional_measure(state, eps: float) -> float:
    """Smallest fraction of cells to remove so the rest span at most eps.

    Exact: sorts the values and keeps the largest group fitting in a
    closed window of width eps, so the result is (n - kept) / n.
    """
    checked(positive, "eps", eps, "exceptional measure")
    v = np.sort(_cells(state))
    n = v.size
    kept = np.searchsorted(v, v + eps, side="right") - np.arange(n)
    return float(n - kept.max()) / n


def detect_consensus(traj: Trajectory, eps: float):
    """Earliest grid time from which the diameter stays at or below eps.

    Returns None when the diameter exceeds eps at the final time or never
    settles below it for good within the grid.
    """
    checked(positive, "eps", eps, "consensus detection")
    ok = traj.diameters() <= eps
    if not ok[-1]:
        return None
    bad = np.nonzero(~ok)[0]
    start = int(bad[-1]) + 1 if bad.size else 0
    return float(traj.times[start])


def _phi_a(z: np.ndarray) -> np.ndarray:
    # (1 - exp(-z)) / z with a series branch near 0.
    out = np.empty_like(z)
    small = np.abs(z) < 1e-5
    zs = z[small]
    out[small] = 1.0 - zs / 2.0 + zs * zs / 6.0
    zb = z[~small]
    out[~small] = -np.expm1(-zb) / zb
    return out


def _phi_b(z: np.ndarray) -> np.ndarray:
    # (1 - exp(-z) (1 + z)) / z^2.  The closed form cancels to about eps / z^2
    # relative below |z| = 1; there the Taylor series, sum over k of
    # (-z)^k (k + 1) / (k + 2)!, leaves less than 1e-17 after 20 terms.
    out = np.empty_like(z)
    small = np.abs(z) < 1.0
    zs = z[small]
    acc = np.zeros_like(zs)
    for k in range(19, -1, -1):
        acc *= zs
        acc += (-1) ** k * (k + 1) / math.factorial(k + 2)
    out[small] = acc
    zb = z[~small]
    out[~small] = (1.0 - np.exp(-zb) * (1.0 + zb)) / (zb * zb)
    return out


def volterra_residual(kernel: StepKernel, traj: Trajectory) -> float:
    """Worst deviation of a trajectory from its integral-equation form.

    Each cell value must satisfy
    u_i(t) = exp(-d_i t) g_i + integral_0^t exp(d_i (s - t)) h_i(s) ds,
    where d_i is the cell degree and h_i the exact cell integral of
    W(x_i, .) u(., s), both taken on the pixel restriction of the kernel
    at the trajectory's resolution.  h is interpolated linearly between
    grid times and integrated against the exponential factor in closed
    form per interval, so constant trajectories give zero residual and
    the residual of a smooth one shrinks as O(dt^2).

    d and h come from the q x q class weights of the `pixel_classes`
    (`_class_degrees`) and the class sums of the states, so the n x n
    discretisation is never formed unless the kernel has at least n cells.

    This is an oracle for the solvers: it never runs them.
    """
    n = traj.n
    labels, heads, weights = pixel_classes(kernel, n)
    d = _class_degrees(labels, weights)[labels]
    q = heads.size
    sums = np.array([np.bincount(labels, weights=row, minlength=q) for row in traj.states])
    h = (sums @ weights / n)[:, labels]
    u0 = traj.states[0]
    acc = np.zeros(n)
    worst = 0.0
    for k in range(traj.times.size - 1):
        dt = traj.times[k + 1] - traj.times[k]
        z = d * dt
        acc = np.exp(-z) * acc + dt * (h[k] * _phi_a(z) + (h[k + 1] - h[k]) * _phi_b(z))
        model = np.exp(-d * traj.times[k + 1]) * u0 + acc
        worst = max(worst, float(np.max(np.abs(traj.states[k + 1] - model))))
    return worst


def _step_difference(bounds_a, values_a, bounds_b, values_b):
    """Cell measures and values of f - g; bounds are Partitions or arrays."""
    merged, (ia, ib) = common_refinement(bounds_a, bounds_b)
    diff = np.asarray(values_a, dtype=float)[ia] - np.asarray(values_b, dtype=float)[ib]
    return merged.measures, diff


def _l2_norm(measures, diff) -> float:
    """L2 norm of the step function with these cell measures and values."""
    return float(np.sqrt(measures @ (diff * diff)))


def _exceedance(measures, diff, threshold: float) -> float:
    """Measure of the cells where |diff| exceeds threshold."""
    return float(measures[np.abs(diff) > threshold].sum())


def step_l2_distance(bounds_a, values_a, bounds_b, values_b) -> float:
    """Exact L2([0,1]) distance between two step functions."""
    return _l2_norm(*_step_difference(bounds_a, values_a, bounds_b, values_b))


def step_exceedance_measure(bounds_a, values_a, bounds_b, values_b, threshold: float) -> float:
    """Exact measure of { x : |f(x) - g(x)| > threshold } for step functions."""
    return _exceedance(*_step_difference(bounds_a, values_a, bounds_b, values_b), threshold)


def csv_text(header, rows) -> str:
    """CSV text with newline line ends, the header first.

    Python floats print as their shortest round-trip repr, so equal data
    gives byte-identical text.  Rows must hold Python scalars (for arrays,
    `ndarray.tolist()`) whose text holds no comma, quote or newline, so
    no field needs quoting.
    """
    lines = itertools.chain([header], rows)
    return "".join(",".join(map(str, row)) + "\n" for row in lines)


def _trajectory_rows(traj: Trajectory):
    """The trajectory CSV as ASCII bytes, the header and then one row at a time.

    Trajectories repeat whole columns: vertices of one twin class with one
    start value evolve bit-identically, and a step kernel orders them in
    runs of adjacent pixels.  Runs of bit-identical adjacent columns are
    found on the int64 view of the states, so 0.0 and -0.0 stay apart, and
    runs equal to an earlier one share its head (`byte_classes`).  Each row
    formats each distinct head once, with its leading comma, and repeats
    that text over the run, so the text is the one that formatting every
    value gives.
    """
    states = traj.states
    bits = states.view(np.int64)
    changed = np.any(bits[:, 1:] != bits[:, :-1], axis=0)
    starts = np.concatenate([[0], np.flatnonzero(changed) + 1])
    lengths = np.diff(np.append(starts, traj.n)).tolist()
    labels, heads = byte_classes(states[:, starts].T)
    labels = labels.tolist()
    yield ",".join(["t"] + [f"cell_{i}" for i in range(traj.n)]).encode() + b"\n"
    for t, distinct in zip(traj.times.tolist(), states[:, starts[heads]].tolist()):
        texts = [f",{v}".encode() for v in distinct]
        runs = map(bytes.__mul__, map(texts.__getitem__, labels), lengths)
        yield b"".join([str(t).encode(), *runs, b"\n"])


def write_trajectory(traj: Trajectory, csv_path) -> None:
    """Write the trajectory CSV, header t,cell_0,...,cell_{n-1}; the CLI
    writes the metadata beside it.

    Rows are streamed to the file one at a time as bytes, so neither the
    whole text nor an encoded copy of it is ever alive.
    """
    with open(csv_path, "wb") as fh:
        fh.writelines(_trajectory_rows(traj))


def read_trajectory(csv_path) -> Trajectory:
    """Read a trajectory CSV written by `write_trajectory`, without metadata.

    The header is checked first; `np.loadtxt` then parses every row after
    it into one float array, skipping blank lines.  A header with no rows
    and rows that disagree with the header's width raise ValidationError,
    and so, with numpy's reason, does the first row with a field that is
    not a float (`_` digit separators included) or a different width.
    """
    with open(csv_path) as fh:
        header = fh.readline().rstrip("\n").split(",")
        if header[0] != "t" or len(header) < 2:
            raise ValidationError("trajectory CSV must start with t,cell_0,...")
        first = next((line for line in fh if line != "\n"), None)
        if first is None:
            raise ValidationError("trajectory CSV rows disagree with header width")
        try:
            data = np.loadtxt(itertools.chain([first], fh), delimiter=",", comments=None, ndmin=2)
        except ValueError as exc:
            raise ValidationError(f"malformed trajectory CSV: {exc}") from exc
    if data.shape[1] != len(header):
        raise ValidationError("trajectory CSV rows disagree with header width")
    return Trajectory(data[:, 0], data[:, 1:])
