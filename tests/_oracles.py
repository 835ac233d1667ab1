"""Independent brute-force reference implementations used by the tests.

Everything here is deliberately naive and avoids the library's own code
paths: exact rational arithmetic instead of float partition algebra,
O(n^2)/O(n^3) scans instead of sorting tricks, Taylor series and
fixed-step RK4 instead of eigendecomposition.  Slow is fine; these run on tiny inputs.
The one exception is `dense_eigh_states`, the plain n x n eigendecomposition of
the library's generator, which gates the solver's twin-quotient and Krylov paths.
Two exact references that no pipeline stage needs live here too:
`BipartiteClosedForm`, the closed form on the two-block kernel for starts
with zero mean on each block (`has_balanced_blocks`), and
`randcond_evaluate`, the pairwise-difference functional against W(1 - W).
The last six are the plain whole-array expressions that the library's
discretisation, Volterra residual, validator, W-random sampler, trajectory
writer and twin-quotient synthesis were rewritten from; the rewrites must
match them bit for bit and byte for byte, or to a stated rounding bound
where the rewrite changes the operation order.
"""

import csv
import io
from fractions import Fraction

import numpy as np

from voterlim import ValidationError, laplacian
from voterlim.dynamics import _class_flow, _decay, _phi_a, _phi_b
from voterlim.kernels import SYMMETRY_TOL, Partition, common_refinement, overlap_matrix

ZERO_MEAN_TOL = 1e-12


def frac_overlap(bounds_a, bounds_b):
    """Exact rational overlap lengths between two partitions of [0,1]."""
    a = [Fraction(float(x)) for x in bounds_a]
    b = [Fraction(float(x)) for x in bounds_b]
    out = [[Fraction(0)] * (len(b) - 1) for _ in range(len(a) - 1)]
    for i in range(len(a) - 1):
        for j in range(len(b) - 1):
            lo = max(a[i], b[j])
            hi = min(a[i + 1], b[j + 1])
            if hi > lo:
                out[i][j] = hi - lo
    return out


def frac_discretize(bounds, values, n):
    """Exact rational n x n discretization of a step kernel."""
    grid = [Fraction(k, n) for k in range(n + 1)]
    kb = [Fraction(float(x)) for x in bounds]
    vals = [[Fraction(float(v)) for v in row] for row in values]
    beta = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            acc = Fraction(0)
            for p in range(len(kb) - 1):
                lx = max(grid[i], kb[p])
                hx = min(grid[i + 1], kb[p + 1])
                if hx <= lx:
                    continue
                for q in range(len(kb) - 1):
                    ly = max(grid[j], kb[q])
                    hy = min(grid[j + 1], kb[q + 1])
                    if hy <= ly:
                        continue
                    acc += (hx - lx) * (hy - ly) * vals[p][q]
            beta[i][j] = acc * n * n
    return np.array([[float(x) for x in row] for row in beta])


def frac_step_integral(bounds, values, lo, hi):
    """Exact rational integral of a step function over [lo, hi]."""
    b = [Fraction(float(x)) for x in bounds]
    v = [Fraction(float(x)) for x in values]
    lo_f, hi_f = Fraction(float(lo)), Fraction(float(hi))
    acc = Fraction(0)
    for i, val in enumerate(v):
        a = max(b[i], lo_f)
        c = min(b[i + 1], hi_f)
        if c > a:
            acc += (c - a) * val
    return float(acc)


def _frac_cell_differences(bounds_a, values_a, bounds_b, values_b):
    """(length, f - g) on each cell of the common refinement, as Fractions."""
    cuts = sorted(
        set(Fraction(float(x)) for x in list(bounds_a) + list(bounds_b))
    )
    ba = [Fraction(float(x)) for x in bounds_a]
    bb = [Fraction(float(x)) for x in bounds_b]

    def locate(bounds, x):
        for i in range(len(bounds) - 1):
            if bounds[i] <= x < bounds[i + 1]:
                return i
        return len(bounds) - 2

    for k in range(len(cuts) - 1):
        mid = (cuts[k] + cuts[k + 1]) / 2
        d = Fraction(float(values_a[locate(ba, mid)])) - Fraction(
            float(values_b[locate(bb, mid)])
        )
        yield cuts[k + 1] - cuts[k], d


def brute_step_l2(bounds_a, values_a, bounds_b, values_b):
    """Exact L2 distance of two step functions via rational cell algebra."""
    pieces = _frac_cell_differences(bounds_a, values_a, bounds_b, values_b)
    acc = sum((length * d * d for length, d in pieces), Fraction(0))
    return float(np.sqrt(float(acc)))


def brute_step_exceedance(bounds_a, values_a, bounds_b, values_b, threshold):
    """Exact measure of {|f - g| > threshold} via rational cell algebra."""
    limit = Fraction(float(threshold))
    pieces = _frac_cell_differences(bounds_a, values_a, bounds_b, values_b)
    acc = sum((length for length, d in pieces if abs(d) > limit), Fraction(0))
    return float(acc)


def brute_exceptional(values, eps):
    """Smallest removed fraction bringing the spread within eps: O(n^2) scan."""
    v = np.sort(np.asarray(values, dtype=float))
    n = v.size
    best_kept = 0
    for i in range(n):
        kept = np.sum((v >= v[i]) & (v <= v[i] + eps))
        best_kept = max(best_kept, int(kept))
    return (n - best_kept) / n


def brute_components(values):
    """Connected cell groups of a block matrix via breadth-first search,
    linking cells where the matrix is nonzero."""
    m = np.asarray(values, dtype=float)
    n = m.shape[0]
    seen = [False] * n
    groups = []
    for start in range(n):
        if seen[start]:
            continue
        queue = [start]
        seen[start] = True
        comp = []
        while queue:
            i = queue.pop()
            comp.append(i)
            for j in range(n):
                if not seen[j] and i != j and m[i, j] != 0.0:
                    seen[j] = True
                    queue.append(j)
        groups.append(sorted(comp))
    return sorted(groups)


def brute_twin_sets(values, prop_tol=1e-10):
    """Definitional pairwise proportionality check plus transitive closure.

    Every ordered pair, every column and both signs: zero rows (norm 0)
    are twins of each other only; nonzero rows i and j are twins when
    |v_i ||v_j|| - sigma v_j ||v_i||| <= prop_tol ||v_i|| ||v_j|| in every
    column for sigma = +1 or sigma = -1.  The test is homogeneous in each
    row, so it runs on the rows divided by their largest magnitude, whose
    squared norms do not underflow.
    """
    m = np.asarray(values, dtype=float)
    n = m.shape[0]
    top = np.abs(m).max(axis=1)
    m = m / np.where(top == 0.0, 1.0, top)[:, None]
    norms = np.linalg.norm(m, axis=1)

    def twins(i, j):
        if norms[i] == 0.0 or norms[j] == 0.0:
            return bool(norms[i] == norms[j])
        bound = prop_tol * (norms[i] * norms[j])
        return any(
            all(abs(m[i, c] * norms[j] - sigma * m[j, c] * norms[i]) <= bound for c in range(n))
            for sigma in (1.0, -1.0)
        )

    return _closure_groups([[twins(i, j) for j in range(n)] for i in range(n)])


def _closure_groups(adj):
    """Classes reachable along `adj` (n x n nested lists), sorted, each sorted."""
    n = len(adj)
    seen = [False] * n
    groups = []
    for start in range(n):
        if seen[start]:
            continue
        queue = [start]
        seen[start] = True
        comp = []
        while queue:
            i = queue.pop()
            comp.append(i)
            for j in range(n):
                if not seen[j] and adj[i][j]:
                    seen[j] = True
                    queue.append(j)
        groups.append(sorted(comp))
    return sorted(groups)


def taylor_expm(mat, t, terms=60):
    """Matrix exponential via scaling-and-squaring Taylor series."""
    a = np.asarray(mat, dtype=float) * t
    norm = float(np.max(np.abs(a).sum(axis=0), initial=0.0))
    # scale below norm ~0.25 with as few squarings as possible; every
    # squaring doubles the accumulated rounding
    squarings = max(0, int(np.ceil(np.log2(max(norm, 1e-16)))) + 2)
    a = a / 2**squarings
    out = np.eye(a.shape[0])
    term = np.eye(a.shape[0])
    for k in range(1, terms + 1):
        term = term @ a / k
        out = out + term
    for _ in range(squarings):
        out = out @ out
    return out


def rk4_states(mat, u0, times, substeps):
    """du/dt = mat u on the grid by classical RK4, `substeps` equal steps per interval."""
    mat = np.asarray(mat, dtype=float)
    times = np.asarray(times, dtype=float)
    u = np.asarray(u0, dtype=float)
    states = [u]
    for h in np.diff(times) / substeps:
        for _ in range(substeps):
            k1 = mat @ u
            k2 = mat @ (u + 0.5 * h * k1)
            k3 = mat @ (u + 0.5 * h * k2)
            k4 = mat @ (u + h * k3)
            u = u + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        states.append(u)
    return np.array(states)


def dense_eigh_states(graph, u0, times):
    """exp(t D) u0 on the grid from the eigendecomposition of the n x n generator.

    The solver never forms this matrix: graphs without twins run Lanczos,
    which must agree with it to 1e-12 max(1, max|u|) at every grid time.
    """
    u0 = np.asarray(u0, dtype=float)
    times = np.asarray(times, dtype=float)
    eigvals, eigvecs = np.linalg.eigh(laplacian(graph))
    coeffs = eigvecs.T @ u0
    # a growing mode may overflow: the caller reads the non-finite states
    with np.errstate(over="ignore", invalid="ignore"):
        modes = np.exp(np.outer(times, eigvals))
        states = (modes * coeffs) @ eigvecs.T
    states[0] = u0
    return states


def row_equality_classes(weights):
    """Vertices grouped by the exact bytes of their weight rows, each sorted."""
    groups = {}
    for i, row in enumerate(np.asarray(weights, dtype=float)):
        groups.setdefault(row.tobytes(), []).append(i)
    return sorted(groups.values())


def naive_volterra_residual(beta, times, states):
    """Plain trapezoid check of the integral identity; loose by design."""
    beta = np.asarray(beta, dtype=float)
    n = beta.shape[0]
    d = beta.sum(axis=1) / n
    worst = 0.0
    for k, t in enumerate(times):
        direct = states[0] * np.exp(-d * t)
        integrand = np.empty((k + 1, n))
        for m in range(k + 1):
            h = states[m] @ beta / n
            integrand[m] = np.exp(d * (times[m] - t)) * h
        if k > 0:
            direct = direct + np.trapezoid(integrand, times[: k + 1], axis=0)
        worst = max(worst, float(np.max(np.abs(states[k] - direct))))
    return worst


def has_balanced_blocks(g, r, tol=ZERO_MEAN_TOL):
    """True when the profile g integrates to ~0 over [0, r) and over [r, 1]."""
    return abs(g.integral(0.0, r)) <= tol and abs(g.integral(r, 1.0)) <= tol


class BipartiteClosedForm:
    """Exact solution on the two-block kernel for block-balanced starts.

    Requires g to integrate to zero over [0, r] and over (r, 1]; then the
    profile decays in place, at rate 1 - 2r on [0, r] and rate 1 on (r, 1].
    The solution is a step function on g's partition refined by r.
    """

    def __init__(self, r, g):
        if not (0.0 < r < 0.5):
            raise ValidationError("block boundary r must lie strictly in (0, 1/2)")
        if not has_balanced_blocks(g, r):
            raise ValidationError("initial condition must have zero mean on both blocks")
        self.r = r
        part, (g_cells, blocks) = common_refinement(g.partition, [0.0, r, 1.0])
        self.partition = part
        self.base = g.values[g_cells]
        self.rates = np.where(blocks == 1, 1.0, 1.0 - 2.0 * r)

    def values_at(self, t):
        return self.base * np.exp(-self.rates * float(t))

    def evaluate(self, x, t):
        """Pointwise value u(x, t); x = r belongs to the left block."""
        c = self.partition.cell_of(x)
        out = self.base[c] * np.exp(-self.rates[c] * np.asarray(t, dtype=float))
        return float(out) if out.ndim == 0 else out


def randcond_evaluate(kernel, traj, variant="literal"):
    """Min over grid times of the pairwise-difference functional against W(1-W).

    literal: integrand (u(y,t) - u(x,t)) W(x,y)(1 - W(x,y)), which is
    antisymmetric in (x, y) against a symmetric weight and therefore
    integrates to exactly zero; the variant exists to document that.
    absolute: same with |u(y,t) - u(x,t)|.  Both are exact cellwise
    double sums.
    """
    if variant not in ("literal", "absolute"):
        raise ValidationError("variant must be 'literal' or 'absolute'")
    merged, (kc, uc) = common_refinement(kernel.partition, Partition.uniform(traj.n))
    w = kernel.values[np.ix_(kc, kc)]
    weight = w * (1.0 - w)
    m = merged.measures
    best = np.inf
    for k in range(traj.times.size):
        u = traj.states[k][uc]
        diff = u[None, :] - u[:, None]
        if variant == "absolute":
            diff = np.abs(diff)
        best = min(best, float(m @ (diff * weight) @ m))
    return best


def gemm_discretize(kernel, n):
    """Raw n x n discretisation n^2 O V O^T from one product over all pixels."""
    overlap = overlap_matrix(Partition.uniform(n), kernel.partition)
    return overlap @ kernel.values @ overlap.T * (n * n)


def dense_volterra_residual(beta, times, states):
    """The library's Volterra residual from the n x n weights beta.

    Degrees as row sums of beta and h as states @ beta, then the same
    closed-form exponential quadrature per interval.
    """
    n = beta.shape[0]
    d = beta.sum(axis=1) / n
    h = states @ beta / n
    acc = np.zeros(n)
    worst = 0.0
    for k in range(times.size - 1):
        dt = times[k + 1] - times[k]
        z = d * dt
        acc = np.exp(-z) * acc + dt * (h[k] * _phi_a(z) + (h[k + 1] - h[k]) * _phi_b(z))
        model = np.exp(-d * times[k + 1]) * states[0] + acc
        worst = max(worst, float(np.max(np.abs(states[k + 1] - model))))
    return worst


def whole_matrix_symmetric_unit(values, what):
    """Validate and symmetrise with whole-matrix temporaries, checks in order."""
    v = np.asarray(values, dtype=float)
    if not np.all(np.isfinite(v)):
        raise ValidationError(f"{what} must be finite")
    if np.max(np.abs(v - v.T), initial=0.0) > SYMMETRY_TOL:
        raise ValidationError(f"{what} must be symmetric")
    v = (v + v.T) / 2.0
    if np.max(np.abs(v)) > 1.0 + SYMMETRY_TOL:
        raise ValidationError(f"{what} must lie in [-1, 1]")
    np.clip(v, -1.0, 1.0, out=v)
    return v


def index_scatter_w_random(kernel, n, seed):
    """W-random adjacency drawn through triu_indices and a fancy scatter."""
    cells = kernel.partition.cell_of(np.arange(1, n + 1) / n)
    probs = kernel.values[np.ix_(cells, cells)]
    rng = np.random.Generator(np.random.Philox(key=seed))
    iu, ju = np.triu_indices(n, k=1)
    draws = rng.random(iu.size)
    adj = np.zeros((n, n))
    adj[iu, ju] = (draws < probs[iu, ju]).astype(float)
    adj += adj.T
    return adj


def row_by_row_trajectory_csv(times, states):
    """Trajectory CSV from csv.writer, every value formatted where it stands."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["t"] + [f"cell_{i}" for i in range(states.shape[1])])
    for t, row in zip(times.tolist(), states):
        writer.writerow([t, *row.tolist()])
    return buf.getvalue()


def per_cell_class_states(labels, masses, sizes, scale, d, b, u0, times):
    """Twin-quotient states synthesised for every cell where it stands.

    The class-mean flow gathered to all cells plus each cell's own decay,
    `class_means[:, labels] + _decay(times, d[labels], u0 - means[labels])`,
    with the arguments of `dynamics._solve_classes`; inf or NaN where the
    solver raises SolverConvergenceError.
    """
    u0 = np.asarray(u0, dtype=float)
    weighted = u0 if masses is None else masses * u0
    means = np.bincount(labels, weights=weighted, minlength=sizes.size) / sizes
    with np.errstate(over="ignore", invalid="ignore"):
        _, class_means = _class_flow(b, d, sizes, scale, means, times)
        states = class_means[:, labels] + _decay(times, d[labels], u0 - means[labels])
    states[0] = u0
    return states


def per_cell_graph_states(graph, u0, times):
    """`per_cell_class_states` on the rows of a graph grouped by their bytes,
    reduced to class weights and degrees as `solve_finite` reduces them."""
    classes = row_equality_classes(graph.weights)
    labels = np.empty(graph.n, dtype=np.intp)
    for k, members in enumerate(classes):
        labels[members] = k
    heads = [members[0] for members in classes]
    w, n = graph.weights, graph.n
    d = w.sum(axis=1)[heads] / n
    b = w[np.ix_(heads, heads)]
    return per_cell_class_states(labels, None, np.bincount(labels), n, d, b, u0, times)
