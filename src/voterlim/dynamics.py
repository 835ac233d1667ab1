"""Voter/consensus dynamics: solvers, reference solutions and diagnostics.

The finite model is the linear ODE du/dt = D u with D the graph's
dynamics generator.  The continuum model is solved exactly from a step
start by `solve_exact`, which shares its class-mean core `_class_flow`
with the twin quotient below, and at resolution n by `solve_continuum`,
which discretises the kernel first.  `solve_finite` computes exp(t D) u0
exactly and records which of three paths ran in
`metadata["solver_path"]`, with the number q of twin classes:

- "twin_quotient" (some weight rows bit-identical): an exact q x q
  eigendecomposition of the class-mean dynamics plus a closed-form decay
  of each vertex's deviation from its class mean.  A step kernel with m
  cells discretised at a power-of-two n has q <= 2m - 1; at other n, rows
  around a cell boundary can differ in the last bit, which leaves q a
  little larger but still small.
- "krylov" (q = n, grid [0, T]): Lanczos with full reorthogonalisation
  builds exp(T D) u0 from matrix-vector products with the weights, in a
  Krylov dimension fixed beforehand by the Hochbruck-Lubich a-priori
  error bound.  It runs when that dimension is at most n / 4; the dense
  path below is faster beyond that.
- "dense_eigh" (all rows distinct, q = n, longer grids or Krylov
  dimension above n / 4): the n x n symmetric eigendecomposition of the
  generator.

The Volterra integral-equation residual checks any trajectory without
running a solver.
"""

from __future__ import annotations

import csv
import itertools
import math

import numpy as np

from .errors import SolverConvergenceError, ValidationError
from .graphs import (
    WeightedGraph,
    _check_size,
    byte_classes,
    discretize_kernel,
    laplacian,
    twin_classes,
)
from .kernels import Kernel, Partition, common_refinement, overlap_matrix

# Default tolerances; every consumer that overrides them records the value
# it used in its output metadata.
LIMIT_TOL = 1e-8
CONSENSUS_EPS = 1e-3
ZERO_MEAN_TOL = 1e-12
KRYLOV_TOL = 1e-16
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

    def inf_norm(self) -> float:
        return float(np.max(np.abs(self.values)))

    @classmethod
    def constant(cls, c: float) -> "InitialCondition":
        return cls([0.0, 1.0], [c])

    @classmethod
    def from_cell_values(cls, values) -> "InitialCondition":
        """Step function on the uniform partition with the given cell values."""
        values = np.asarray(values, dtype=float)
        return cls(Partition.uniform(values.size), values)

    @classmethod
    def balanced_blocks(
        cls, r: float, left_amp: float = 0.5, right_amp: float = 0.5
    ) -> "InitialCondition":
        """Profile with zero mean on [0, r) and on [r, 1] separately.

        Each block is split in half and assigned +/- its amplitude, the
        simplest member of the family the two-block closed form needs.
        """
        if not (0.0 < r < 1.0):
            raise ValidationError("split point r must lie in (0, 1)")
        bounds = [0.0, r / 2.0, r, (1.0 + r) / 2.0, 1.0]
        return cls(bounds, [left_amp, -left_amp, right_amp, -right_amp])

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

    def has_balanced_blocks(self, r: float, tol: float = ZERO_MEAN_TOL) -> bool:
        """True when the profile integrates to ~0 over [0, r) and over [r, 1]."""
        return abs(self.integral(0.0, r)) <= tol and abs(self.integral(r, 1.0)) <= tol

    def spec(self) -> dict:
        return {
            "type": "step",
            "boundaries": self.partition.boundaries.tolist(),
            "values": self.values.tolist(),
        }

    def __repr__(self):
        return f"InitialCondition({self.partition.size} pieces)"


def make_initial(spec: dict) -> InitialCondition:
    """Build an initial condition from its JSON description."""
    if not isinstance(spec, dict):
        raise ValidationError("initial-condition spec must be a JSON object")
    kind = spec.get("type")
    try:
        if kind == "step":
            return InitialCondition(spec["boundaries"], spec["values"])
        if kind == "constant":
            return InitialCondition.constant(spec["c"])
        if kind == "uniform_cells":
            return InitialCondition.from_cell_values(spec["values"])
        if kind == "balanced_blocks":
            return InitialCondition.balanced_blocks(
                spec["r"],
                left_amp=spec.get("left_amp", 0.5),
                right_amp=spec.get("right_amp", 0.5),
            )
    except KeyError as exc:
        raise ValidationError(f"initial-condition spec missing field {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"malformed initial-condition spec: {exc}") from exc
    raise ValidationError(f"unknown initial-condition type {kind!r}")


class Trajectory:
    """Solution samples on a time grid: states[k] is the profile at times[k]."""

    def __init__(self, times, states, metadata=None):
        t = _validate_times(times)
        s = np.asarray(states, dtype=float)
        if s.ndim != 2 or s.shape[0] != t.size:
            raise ValidationError("need one state row per grid time")
        t = t.copy()
        t.setflags(write=False)
        s = s.copy()
        s.setflags(write=False)
        self.times = t
        self.states = s
        self.metadata = dict(metadata or {})

    @property
    def n(self) -> int:
        return self.states.shape[1]

    def diameters(self) -> np.ndarray:
        return self.states.max(axis=1) - self.states.min(axis=1)

    def __repr__(self):
        return f"Trajectory(n={self.n}, times={self.times.size})"


def average_initial(g: InitialCondition, n: int) -> np.ndarray:
    """Cell averages of g on the uniform n-partition: n * integral over each cell."""
    if n < 1:
        raise ValidationError("averaging needs n >= 1")
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


def _solve_krylov(
    graph: WeightedGraph, u0: np.ndarray, horizon: float
) -> tuple[np.ndarray, dict] | None:
    """exp(T D) u0 by Lanczos, or None when the dense path is cheaper.

    The Krylov dimension m is fixed before the loop: the smallest m whose
    `_lanczos_bound` is at most KRYLOV_TOL, with rho tau = T (hi - lo) / 4
    from the Gershgorin interval [lo, hi] of D, the bound then holding for
    D - hi I.  The loop ends early only on breakdown, when the Krylov space
    is invariant and the result exact.  Lanczos runs on the mean-free part
    of u0, which D keeps mean-free, and the mean is added back.
    Returns None when m exceeds n / 4, where the dense eigendecomposition
    took less time in measurements up to n = 1024.
    """
    n = graph.n
    w = graph.weights
    rows = w.sum(axis=1)
    diag = np.diag(w)
    centre = (diag - rows) / n
    radius = (np.abs(w).sum(axis=1) - np.abs(diag)) / n
    lo, hi = float((centre - radius).min()), float((centre + radius).max())
    rho_tau = horizon * (hi - lo) / 4.0
    dim = next(
        (m for m in range(1, n // 4 + 1) if _lanczos_bound(m, rho_tau) <= KRYLOV_TOL),
        None,
    )
    if dim is None:
        return None
    mean = u0.mean()
    final = np.full(n, mean)
    r = u0 - mean
    beta0 = float(np.linalg.norm(r))
    m = 0
    if beta0 > 0.0:
        d = rows / n
        basis = np.empty((dim, n))
        alpha = np.empty(dim)
        beta = np.empty(dim)
        basis[0] = r / beta0
        # a residual below this is rounding: the space is invariant
        breakdown = np.finfo(float).eps * n * (hi - lo)
        while True:
            v = basis[m]
            x = w @ v / n - d * v
            alpha[m] = v @ x
            m += 1
            for _ in range(2):  # full reorthogonalisation, twice
                x -= basis[:m].T @ (basis[:m] @ x)
            beta[m - 1] = float(np.linalg.norm(x))
            if m == dim or beta[m - 1] <= breakdown:
                break
            basis[m] = x / beta[m - 1]
        off = beta[: m - 1]
        theta, s = np.linalg.eigh(np.diag(alpha[:m]) + np.diag(off, 1) + np.diag(off, -1))
        final += beta0 * ((s @ (np.exp(horizon * theta) * s[0])) @ basis[:m])
    return np.stack([u0, final]), {
        "solver_path": "krylov",
        "q": n,
        "krylov_dim": m,
        "krylov_bound": _lanczos_bound(dim, rho_tau),
    }


def _class_flow(b, d, sizes, scale, means, times) -> tuple[np.ndarray, np.ndarray]:
    """(eigenvalues, class means per time) of dc/dt = (B S / scale - diag(d)) c.

    B holds the weights between q classes, S = diag(sizes) (vertex counts
    with scale n, or cell measures with scale 1) and d the class degrees.
    One q x q eigendecomposition of A = S^(1/2) B S^(1/2) / scale - diag(d).
    """
    root = np.sqrt(sizes)
    a = root[:, None] * b * root / scale - np.diag(d)
    eigvals, eigvecs = np.linalg.eigh(a)
    coeffs = eigvecs.T @ (root * means)
    return eigvals, (np.exp(np.outer(times, eigvals)) * coeffs) @ eigvecs.T / root


def _solve_expm(
    graph: WeightedGraph, u0: np.ndarray, times: np.ndarray
) -> tuple[np.ndarray, dict]:
    """exp(t D) u0 on the grid, through the twin quotient when it is smaller.

    Vertices with identical weight rows form q classes, so W = P B P^T
    with P the n x q class-membership matrix and B the weights between
    class heads.  With d the class degrees (row sums / n),
    D = P B P^T / n - diag(d[label]).  Splitting u = P c + v, with c the
    class means and v summing to zero over each class, gives two
    decoupled exact equations: the class-mean flow of `_class_flow` with
    the class sizes and scale n, and dv/dt = -d[label] v, so
    v(t) = exp(-d[label] t) v(0).

    Returns (states, metadata of the path).  When all rows differ (q = n)
    and only u(T) is asked for, `_solve_krylov` runs; otherwise the
    generator itself is diagonalised.
    """
    labels, heads = twin_classes(graph)
    q = heads.size
    if q == graph.n:
        if times.size == 2:
            solved = _solve_krylov(graph, u0, float(times[1]))
            if solved is not None:
                return solved
        # D is symmetric, so the matrix exponential reduces to eigenmodes.
        eigvals, eigvecs = np.linalg.eigh(laplacian(graph))
        coeffs = eigvecs.T @ u0
        modes = np.exp(np.outer(times, eigvals))
        return (modes * coeffs) @ eigvecs.T, {"solver_path": "dense_eigh", "q": q}
    w = graph.weights
    sizes = np.bincount(labels)
    d = w[heads].sum(axis=1) / graph.n
    means = np.bincount(labels, weights=u0) / sizes
    b = w[np.ix_(heads, heads)]
    _, class_means = _class_flow(b, d, sizes, graph.n, means, times)
    deviation = u0 - means[labels]
    states = class_means[:, labels] + _decay(times, d[labels], deviation)
    return states, {"solver_path": "twin_quotient", "q": q}


def _decay(times, rates, deviation) -> np.ndarray:
    """exp(-rates t) * deviation on the grid, exactly deviation where it is 0.

    A zero deviation stays zero even where exp(-rates t) overflows, so a
    start constant on each class is not turned into inf * 0 = NaN; the
    other entries, and the signed zeros, keep the bits of the plain product.
    """
    rates = np.where(deviation == 0.0, 0.0, rates)
    return np.exp(np.outer(times, -rates)) * deviation


def solve_finite(graph: WeightedGraph, u0, times) -> Trajectory:
    """Solve du/dt = D u exactly on the given time grid.

    The symmetric generator is diagonalised, reduced to its twin classes
    when some weight rows are identical, or u(T) alone is built by
    Lanczos when the grid is [0, T].  The metadata records the path taken
    (`solver_path`) and the number of twin classes `q`, plus `krylov_dim`
    and the a-priori `krylov_bound` on the Krylov path.
    """
    t = _validate_times(times)
    u = np.asarray(u0, dtype=float)
    if u.shape != (graph.n,):
        raise ValidationError(f"state has {u.size} cells, graph has {graph.n}")
    _check_size(graph.n)
    # overflow is judged by _require_finite, not reported by numpy
    with np.errstate(over="ignore", invalid="ignore"):
        states, detail = _solve_expm(graph, u, t)
    states[0] = u  # t=0 is the given state, not a reconstruction of it
    _require_finite(states)
    return Trajectory(t, states, {"n": graph.n, **detail})


def check_method(config: dict) -> None:
    """Refuse a run config whose "method" names a solver other than "expm".

    Configs written for earlier versions may carry "method": "expm", the
    exact solver that is now the only one; any other value would silently
    switch solver, so it is a ValidationError.
    """
    method = config.get("method", "expm")
    if method != "expm":
        raise ValidationError(
            f"config value for 'method' must be 'expm', the only solver, not {method!r}"
        )


def _require_finite(states: np.ndarray) -> None:
    if not np.all(np.isfinite(states)):
        raise SolverConvergenceError(
            "trajectory left the representable range; shorten the horizon"
        )


def solve_continuum(kernel: Kernel, g: InitialCondition, n: int, times) -> Trajectory:
    """Finite-n approximation of the kernel dynamics started from g.

    Discretises the kernel exactly at resolution n, averages g per cell
    and delegates to `solve_finite`.
    """
    graph = discretize_kernel(kernel, n)
    traj = solve_finite(graph, average_initial(g, n), times)
    try:
        traj.metadata["kernel"] = kernel.spec()
    except NotImplementedError:
        traj.metadata["kernel"] = None
    traj.metadata["initial"] = g.spec()
    return traj


def solve_exact(kernel: Kernel, g: InitialCondition, times) -> tuple[Partition, np.ndarray]:
    """Exact continuum solution from g: (partition, cell values per time).

    u(., t) is a step function on the common refinement of the kernel and
    g partitions.  Its kernel-cell means follow `_class_flow`, and its
    deviation from them decays at each kernel cell's degree, as in the
    twin quotient of `solve_finite`.
    """
    t = _validate_times(times)
    step = kernel.as_step()
    part, (cells, g_cells) = common_refinement(step.partition, g.partition)
    sizes = step.partition.measures
    d = step.values @ sizes
    u0 = g.values[g_cells]
    means = np.bincount(cells, weights=part.measures * u0, minlength=sizes.size) / sizes
    with np.errstate(over="ignore", invalid="ignore"):  # see solve_finite
        _, class_means = _class_flow(step.values, d, sizes, 1.0, means, t)
        values = class_means[:, cells] + _decay(t, d[cells], u0 - means[cells])
    values[0] = u0
    _require_finite(values)
    return part, values


def default_horizon(kernel: Kernel | None = None) -> tuple[float, str]:
    """Config default for the horizon: 10 / spectral gap when estimable, else 20.

    The gap is the slowest strictly decaying rate of the continuum
    generator: its spectrum is the `_class_flow` eigenvalues over the
    kernel cells plus {-d_k}.  Kernels with divergent modes or no decaying
    mode fall back to the flat default.  Returns (horizon, source).
    """
    if kernel is None:
        return 20.0, "fallback"
    step = kernel.as_step()
    sizes = step.partition.measures
    d = step.values @ sizes
    # spectrum only: the empty grid evolves no means
    quotient, _ = _class_flow(step.values, d, sizes, 1.0, np.zeros_like(d), np.empty(0))
    eigvals = np.concatenate([quotient, -d])
    if eigvals.max() > 1e-12:
        return 20.0, "fallback"
    decaying = eigvals[eigvals < -1e-12]
    if decaying.size == 0:
        return 20.0, "fallback"
    return float(10.0 / -decaying.max()), "spectral_gap"


def resolve_time_grid(
    kernel: Kernel | None, horizon=None, num_times=DEFAULT_NUM_TIMES, times=None
) -> tuple[np.ndarray, float, str]:
    """Time grid of a run config: (times, horizon, horizon_source).

    Explicit `times` win and end at the horizon.  Otherwise the grid has
    `num_times` evenly spaced points on [0, horizon], a missing horizon
    coming from `default_horizon(kernel)`.  Values that do not form a
    grid raise ValidationError.
    """
    if times is not None:
        t = _validate_times(times)
        return t, float(t[-1]), "config"
    source = "config"
    if horizon is None:
        horizon, source = default_horizon(kernel)
    try:
        horizon = float(horizon)
        # inf would make linspace warn; NaN is refused downstream, where
        # experiment configs call it a horizon that is not positive
        if math.isinf(horizon):
            raise ValidationError("time grid must be finite")
        return np.linspace(0.0, horizon, int(num_times)), horizon, source
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"malformed time grid: {exc}") from exc


class BipartiteClosedForm:
    """Exact solution on the two-block kernel for block-balanced starts.

    Requires g to integrate to zero over [0, r] and over (r, 1]; then the
    profile decays in place, at rate 1 - 2r on [0, r] and rate 1 on (r, 1].
    The solution is a step function on g's partition refined by r.
    """

    def __init__(self, r: float, g: InitialCondition):
        if not (0.0 < r < 0.5):
            raise ValidationError("block boundary r must lie strictly in (0, 1/2)")
        if not g.has_balanced_blocks(r):
            raise ValidationError("initial condition must have zero mean on both blocks")
        self.r = r
        part, (g_cells, blocks) = common_refinement(g.partition, [0.0, r, 1.0])
        self.partition = part
        self.base = g.values[g_cells]
        self.rates = np.where(blocks == 1, 1.0, 1.0 - 2.0 * r)

    def values_at(self, t: float) -> np.ndarray:
        return self.base * np.exp(-self.rates * float(t))

    def evaluate(self, x, t):
        """Pointwise value u(x, t); x = r belongs to the left block."""
        c = self.partition.cell_of(x)
        out = self.base[c] * np.exp(-self.rates[c] * np.asarray(t, dtype=float))
        return float(out) if out.ndim == 0 else out


def closed_form_bipartite(r: float, g: InitialCondition, x, t):
    """Pointwise two-block closed form; see `BipartiteClosedForm`."""
    return BipartiteClosedForm(r, g).evaluate(x, t)


def consensus_diameter(state) -> float:
    """Spread of opinions: max minus min cell value."""
    v = np.asarray(state, dtype=float)
    return float(v.max() - v.min())


def mean_value(state) -> float:
    """Average opinion; conserved along every trajectory."""
    return float(np.asarray(state, dtype=float).mean())


def exceptional_measure(state, eps: float) -> float:
    """Smallest fraction of cells to remove so the rest span at most eps.

    Exact: sorts the values and keeps the largest group fitting in a
    closed window of width eps, so the result is (n - kept) / n.
    """
    if eps <= 0.0:
        raise ValidationError("eps must be positive")
    v = np.sort(np.asarray(state, dtype=float))
    n = v.size
    kept = np.searchsorted(v, v + eps, side="right") - np.arange(n)
    return float(n - kept.max()) / n


def detect_consensus(traj: Trajectory, eps: float):
    """Earliest grid time from which the diameter stays at or below eps.

    Returns None when the diameter exceeds eps at the final time or never
    settles below it for good within the grid.
    """
    if eps <= 0.0:
        raise ValidationError("eps must be positive")
    ok = traj.diameters() <= eps
    if not ok[-1]:
        return None
    bad = np.nonzero(~ok)[0]
    start = int(bad[-1]) + 1 if bad.size else 0
    return float(traj.times[start])


def limit_state(traj: Trajectory) -> tuple[np.ndarray, bool]:
    """Final state plus a convergence flag from the trailing grid window.

    The flag is set when every cell's oscillation (max minus min) over the
    trailing fifth of the grid times stays within LIMIT_TOL.
    """
    k = traj.times.size
    if k < 10:
        raise ValidationError("limit detection needs at least 10 grid times")
    tail = traj.states[-max(2, math.ceil(0.2 * k)):]
    osc = float(np.max(tail.max(axis=0) - tail.min(axis=0)))
    return traj.states[-1], osc <= LIMIT_TOL


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
    # (1 - exp(-z) (1 + z)) / z^2 with a series branch near 0.
    out = np.empty_like(z)
    small = np.abs(z) < 1e-5
    zs = z[small]
    out[small] = 0.5 - zs / 3.0 + zs * zs / 8.0
    zb = z[~small]
    out[~small] = (1.0 - np.exp(-zb) * (1.0 + zb)) / (zb * zb)
    return out


def volterra_residual(kernel: Kernel, traj: Trajectory) -> float:
    """Worst deviation of a trajectory from its integral-equation form.

    Each cell value must satisfy
    u_i(t) = exp(-d_i t) g_i + integral_0^t exp(d_i (s - t)) h_i(s) ds,
    where d_i is the cell degree and h_i the exact cell integral of
    W(x_i, .) u(., s), both taken on the pixel restriction of the kernel
    at the trajectory's resolution.  h is interpolated linearly between
    grid times and integrated against the exponential factor in closed
    form per interval, so constant trajectories give zero residual and
    the residual of a smooth one shrinks as O(dt^2).

    This is an oracle for the solvers: it never runs them.
    """
    beta = discretize_kernel(kernel, traj.n).weights
    d = beta.sum(axis=1) / traj.n
    h = traj.states @ beta / traj.n
    u0 = traj.states[0]
    acc = np.zeros(traj.n)
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


def step_l2_distance(bounds_a, values_a, bounds_b, values_b) -> float:
    """Exact L2([0,1]) distance between two step functions."""
    measures, diff = _step_difference(bounds_a, values_a, bounds_b, values_b)
    return float(np.sqrt(measures @ (diff * diff)))


def step_exceedance_measure(bounds_a, values_a, bounds_b, values_b, threshold: float) -> float:
    """Exact measure of { x : |f(x) - g(x)| > threshold } for step functions."""
    measures, diff = _step_difference(bounds_a, values_a, bounds_b, values_b)
    return float(measures[np.abs(diff) > threshold].sum())


def csv_text(header, rows) -> str:
    """CSV text with newline line ends, the header first.

    Python floats print as their shortest round-trip repr, so equal data
    gives byte-identical text.  Rows must hold Python scalars (for arrays,
    `ndarray.tolist()`) whose text holds no comma, quote or newline, so
    no field needs quoting.
    """
    lines = itertools.chain([header], rows)
    return "".join(",".join(map(str, row)) + "\n" for row in lines)


def trajectory_csv_text(traj: Trajectory) -> str:
    """Render a trajectory as CSV with header t,cell_0,...,cell_{n-1}.

    Formatting floats is most of the cost, and trajectories repeat whole
    columns: vertices of one twin class with one start value evolve
    bit-identically, so a step kernel at n = 2048 gives a few dozen
    distinct columns.  Columns are keyed by their bytes, each row formats
    its distinct columns once, and its fields are picked from those
    strings through the column labels.  Bytes keep 0.0 and -0.0 apart, so
    the text is the one that formatting every value gives.  Rows are
    built one at a time, so no n x T set of strings is ever alive.
    """
    labels, heads = byte_classes(traj.states.T)
    labels = labels.tolist()

    def rows():
        for t, distinct in zip(traj.times.tolist(), traj.states[:, heads]):
            texts = list(map(str, distinct.tolist()))
            yield [t, *map(texts.__getitem__, labels)]

    return csv_text(["t"] + [f"cell_{i}" for i in range(traj.n)], rows())


def write_trajectory(traj: Trajectory, csv_path) -> None:
    """Write the trajectory CSV; the CLI writes the metadata beside it."""
    with open(csv_path, "w", newline="") as fh:
        fh.write(trajectory_csv_text(traj))


def read_trajectory(csv_path) -> Trajectory:
    """Read a trajectory CSV written by `write_trajectory`, without metadata."""
    with open(csv_path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if not header or header[0] != "t" or len(header) < 2:
            raise ValidationError("trajectory CSV must start with t,cell_0,...")
        rows = [row for row in reader if row]
    try:
        data = np.asarray([[float(v) for v in row] for row in rows])
    except ValueError as exc:
        raise ValidationError(f"malformed trajectory CSV: {exc}") from exc
    if data.ndim != 2 or data.shape[1] != len(header):
        raise ValidationError("trajectory CSV rows disagree with header width")
    return Trajectory(data[:, 0], data[:, 1:])
