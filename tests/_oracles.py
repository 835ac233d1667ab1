"""Independent brute-force reference implementations used by the tests.

Everything here is deliberately naive and avoids the library's own code
paths: exact rational arithmetic instead of float partition algebra,
O(n^2)/O(n^3) scans instead of sorting tricks, Taylor series and
fixed-step RK4 instead of eigendecomposition.  Slow is fine; these run on tiny inputs.  The one
exception is `dense_eigh_states`, the plain n x n eigendecomposition of
the library's generator, which gates the solver's twin-quotient path.
The last three are the plain whole-array expressions that the library's
validator, W-random sampler and trajectory writer were rewritten from;
the rewrites must match them bit for bit and byte for byte.
"""

import csv
import io
from fractions import Fraction

import numpy as np

from voterlim import ValidationError, laplacian
from voterlim.kernels import SYMMETRY_TOL


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


def brute_components(values, zero_tol=0.0):
    """Connected cell groups of a block matrix via breadth-first search."""
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
                if not seen[j] and i != j and abs(m[i, j]) > zero_tol:
                    seen[j] = True
                    queue.append(j)
        groups.append(sorted(comp))
    return sorted(groups)


def brute_twin_sets(values, prop_tol=1e-10):
    """Definitional pairwise proportionality check plus transitive closure."""
    m = np.asarray(values, dtype=float)
    n = m.shape[0]
    norms = np.linalg.norm(m, axis=1)

    def twins(i, j):
        if norms[i] <= prop_tol and norms[j] <= prop_tol:
            return True
        if norms[i] <= prop_tol or norms[j] <= prop_tol:
            return False
        p = int(np.argmax(np.abs(m[j])))
        sigma = 1.0 if m[i, p] * m[j, p] >= 0 else -1.0
        return bool(
            np.all(
                np.abs(m[i] * norms[j] - sigma * m[j] * norms[i]) <= prop_tol
            )
        )

    return _closure_groups([[twins(i, j) for j in range(n)] for i in range(n)])


def pairwise_twin_sets(values, prop_tol=1e-10):
    """The library's pairwise rule, one pair at a time, plus transitive closure.

    Unlike brute_twin_sets, only pairs i < j are tested, with the dominant
    entry of the later row j, and a zero sign means no link.  The two can
    differ when rows with norms not far above prop_tol meet it.
    """
    m = np.asarray(values, dtype=float)
    n = m.shape[0]
    norms = np.linalg.norm(m, axis=1)
    zero = norms <= prop_tol
    adj = [[False] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            if zero[i] or zero[j]:
                link = bool(zero[i] and zero[j])
            else:
                p = int(np.argmax(np.abs(m[j])))
                sigma = np.sign(m[i, p]) * np.sign(m[j, p])
                dev = np.abs(m[i] * norms[j] - sigma * m[j] * norms[i])
                link = bool(sigma != 0.0 and np.max(dev) <= prop_tol)
            adj[i][j] = adj[j][i] = link
    return _closure_groups(adj)


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

    The same expression the solver evaluates for graphs without twins, so
    on those the two agree bit for bit.
    """
    u0 = np.asarray(u0, dtype=float)
    times = np.asarray(times, dtype=float)
    eigvals, eigvecs = np.linalg.eigh(laplacian(graph))
    coeffs = eigvecs.T @ u0
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
    step = kernel.as_step()
    cells = step.partition.cell_of(np.arange(1, n + 1) / n)
    probs = step.values[np.ix_(cells, cells)]
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
