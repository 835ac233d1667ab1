"""Reproducible experiment harnesses for the finite-to-continuum story.

Three studies: finite-to-continuum convergence, approximate consensus
over a measurement window, and Monte Carlo over random graphs sampled
from a graphon.  Every run is driven by one config, derives all
randomness from the base seed, and writes plot-ready CSV plus a metadata
JSON that echoes each resolved default.  Tables and echoes are read off
the fields of their dataclasses: a CSV column per row field
(`_table_csv`), the config by `ExperimentConfig.resolved`, a report by
`dataclasses.asdict`.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import astuple, dataclass, field, fields

import numpy as np

from ._schema import REQUIRED, as_is, checked, count, numbers, positive, read, real, solver
from ._version import __version__
from .dynamics import (
    CONSENSUS_EPS,
    DEFAULT_NUM_TIMES,
    InitialCondition,
    _exceedance,
    _l2_norm,
    average_initial,
    consensus_diameter,
    csv_text,
    exceptional_measure,
    make_initial,
    resolve_time_grid,
    solve_continuum,
    solve_exact,
    solve_finite,
)
from .errors import ValidationError
from .graphs import RNG_ALGORITHM, _seed, _size, _w_random_sampler
from .kernels import Partition, StepKernel, common_refinement, make_kernel

MC_MIN_TRIALS = 30


@dataclass(frozen=True)
class ExperimentConfig:
    """Parameters shared by the experiment harnesses, checked once when built; frozen.

    `kernel` must be a StepKernel and `initial` an InitialCondition.
    `horizon` and `num_times` give the time grid through
    `resolve_time_grid`, the reader `simulate` uses too: a horizon of
    None is `default_horizon(kernel)`, and `horizon_source` says which.
    `window` is the measurement window length after the consensus
    time, `eps` the consensus resolution and `c` the tolerated share of
    exceptional mass (the success cut-off is c squared).
    """

    kernel: StepKernel
    initial: InitialCondition
    n_ladder: tuple[int, ...]
    horizon: float | None
    window: float = 1.0
    eps: float = CONSENSUS_EPS
    c: float = 0.1
    trials: int = 50
    base_seed: int = 0
    num_times: int = DEFAULT_NUM_TIMES
    horizon_source: str = field(init=False)  # set by __post_init__

    def __post_init__(self):
        ladder = checked(tuple, "n_ladder", self.n_ladder, "experiment config")
        ladder = tuple(_size(n, "n_ladder") for n in ladder)
        if not ladder or any(b <= a for a, b in zip(ladder, ladder[1:])):
            raise ValidationError("n_ladder must be non-empty and strictly increasing")
        for name, kind in (("kernel", StepKernel), ("initial", InitialCondition)):
            if not isinstance(getattr(self, name), kind):
                raise ValidationError(f"experiment config {name!r} must be a {kind.__name__}")
        times, horizon, how = resolve_time_grid(self.kernel, self.horizon, self.num_times)
        settled = dict(n_ladder=ladder, horizon=horizon, horizon_source=how, num_times=times.size)
        for name in ("window", "eps", "c"):
            checked(positive, name, getattr(self, name), "experiment config")
        for name in ("trials", "base_seed"):
            settled[name] = checked(count, name, getattr(self, name), "experiment config")
        if settled["trials"] < 1:
            raise ValidationError("trials must be at least 1")
        for name, value in settled.items():
            object.__setattr__(self, name, value)

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        """Config of a JSON experiment config, with the keys of `_EXPERIMENT`."""
        return cls._of(read(data, _EXPERIMENT, "experiment config"))

    @classmethod
    def _of(cls, spec) -> "ExperimentConfig":
        """Config of the `_EXPERIMENT` keys as `read` gives them."""
        rest = (spec.window, spec.eps, spec.c, spec.trials, spec.base_seed, spec.num_times)
        return cls(spec.kernel, spec.initial, spec.n_ladder, spec.horizon, *rest)

    def times(self) -> np.ndarray:
        return np.linspace(0.0, self.horizon, self.num_times)

    def resolved(self) -> dict:
        """Every effective parameter, for the metadata echo."""
        out = {f.name: getattr(self, f.name) for f in fields(self)}
        out.update(
            kernel=self.kernel.spec(),
            initial=self.initial.spec(),
            n_ladder=list(self.n_ladder),
        )
        return out


# Builders run through their module names, so that patched names see the calls.
_EXPERIMENT = {
    "kernel": (lambda spec: make_kernel(spec), REQUIRED),
    "initial": (lambda spec: make_initial(spec), REQUIRED),
    "n_ladder": (lambda value: tuple(numbers(value)), REQUIRED),
    "horizon": (as_is, None),
    "num_times": (as_is, DEFAULT_NUM_TIMES),
    "window": (real, ExperimentConfig.window),
    "eps": (real, ExperimentConfig.eps),
    "c": (real, ExperimentConfig.c),
    "trials": (count, ExperimentConfig.trials),
    "base_seed": (count, ExperimentConfig.base_seed),
    "method": (solver, "expm"),
}


def experiment_metadata(cfg: ExperimentConfig, **extra) -> dict:
    meta = {
        "config": cfg.resolved(),
        "library_version": __version__,
        "rng_algorithm": RNG_ALGORITHM,
    }
    meta.update(extra)
    return meta


def _reference(cfg: ExperimentConfig, times: np.ndarray, reference_n=None):
    """(label, partition, values per time) of `solve_exact`, or of a solve at
    `reference_n`, which must be at least 4x the largest ladder n."""
    if reference_n is None:
        return ("exact", *solve_exact(cfg.kernel, cfg.initial, times))
    n = _size(reference_n, "reference_n")
    if n < 4 * max(cfg.n_ladder):
        raise ValidationError("reference_n must be at least 4x the largest ladder n")
    traj = solve_continuum(cfg.kernel, cfg.initial, n, times)
    return f"finite_n_{n}", Partition.uniform(n), traj.states


def _table_csv(row_type, rows) -> str:
    """CSV of dataclass rows: a column per field of `row_type`, in field order.

    Given the type, an empty table still gets its header.
    """
    return csv_text([f.name for f in fields(row_type)], map(astuple, rows))


@dataclass(frozen=True)
class ErrorRow:
    n: int
    sup_l2_error: float
    diameter_at_T: float
    exceptional_measure: float


@dataclass(frozen=True)
class ErrorTable:
    rows: tuple[ErrorRow, ...]
    reference: str


def convergence_study(cfg: ExperimentConfig, reference_n: int | None = None) -> ErrorTable:
    """Sup-over-time L2 error of each ladder size against the reference.

    The reference is the exact continuum solution (`solve_exact`, label
    "exact"), or with `reference_n` a solve at that resolution (label
    "finite_n_N"), which must be at least 4x the largest ladder entry.
    Rows are reported raw, even when the error column is not monotone.
    """
    times = cfg.times()
    label, ref_part, ref_values = _reference(cfg, times, reference_n)
    rows = []
    for n in cfg.n_ladder:
        traj = solve_continuum(cfg.kernel, cfg.initial, n, times)
        # step_l2_distance at each grid time, on one common refinement
        part, (cells, ref_cells) = common_refinement(Partition.uniform(n), ref_part)
        diffs = (u[cells] - ref[ref_cells] for u, ref in zip(traj.states, ref_values))
        sup_err = max(_l2_norm(part.measures, d) for d in diffs)
        final = traj.states[-1]
        rows.append(
            ErrorRow(
                n,
                float(sup_err),
                consensus_diameter(final),
                exceptional_measure(final, cfg.eps),
            )
        )
    return ErrorTable(tuple(rows), label)


@dataclass(frozen=True)
class ProximityRow:
    n: int
    max_exceptional_measure: float


@dataclass(frozen=True)
class ProximityReport:
    """Exceptional mass over the window [T, T+D] per ladder size.

    `status` is "ok" when the reference diameter drops below eps/3 at
    some grid time T with the full window inside the horizon; otherwise
    it names what failed and the rows are empty.
    """

    status: str
    t_eps: float | None
    eps: float
    window: float
    reference: str
    rows: tuple[ProximityRow, ...]


def consensus_proximity(
    cfg: ExperimentConfig, reference_n: int | None = None
) -> ProximityReport:
    """Measure how much mass stays outside an eps window after consensus.

    T is the first grid time the diameter of the reference (as in
    `convergence_study`) is at most eps/3 (the eps/3 margin leaves
    triangle-inequality headroom for the finite solves to differ from
    the reference); for each ladder n the report carries the max
    exceptional measure at eps over grid times in [T, T + window].
    """
    times = cfg.times()
    label, _, ref_values = _reference(cfg, times, reference_n)
    hit = np.nonzero(np.ptp(ref_values, axis=1) <= cfg.eps / 3.0)[0]
    if hit.size == 0:
        return ProximityReport(
            "consensus-not-reached-in-horizon", None, cfg.eps, cfg.window, label, ()
        )
    t_eps = float(times[hit[0]])
    if t_eps + cfg.window > cfg.horizon + 1e-12:
        return ProximityReport(
            "window-exceeds-horizon", t_eps, cfg.eps, cfg.window, label, ()
        )
    in_window = (times >= t_eps) & (times <= t_eps + cfg.window + 1e-12)
    rows = []
    for n in cfg.n_ladder:
        traj = solve_continuum(cfg.kernel, cfg.initial, n, times)
        worst = max(
            exceptional_measure(traj.states[k], cfg.eps)
            for k in np.nonzero(in_window)[0]
        )
        rows.append(ProximityRow(n, float(worst)))
    return ProximityReport("ok", t_eps, cfg.eps, cfg.window, label, tuple(rows))


@dataclass(frozen=True)
class MCTrialRow:
    n: int
    trial: int
    seed: int
    diameter_at_T: float
    exceptional_measure: float
    success: bool
    exceedance_fraction: float
    chebyshev_bound: float
    solver_path: str
    krylov_dim: int | None


@dataclass(frozen=True)
class MCResult:
    rows: tuple[MCTrialRow, ...]
    success_fractions: tuple[tuple[int, float], ...]
    reference: str

    def csv_text(self) -> str:
        # Diagnostics (exceedance vs Chebyshev) live in the metadata, not
        # the CSV, whose schema is fixed.
        return csv_text(
            ["n", "trial", "seed", "diameter_at_T", "exceptional_measure", "success"],
            [
                (r.n, r.trial, r.seed, r.diameter_at_T, r.exceptional_measure, int(r.success))
                for r in self.rows
            ],
        )

    def diagnostics(self) -> dict:
        return {
            "success_fractions": [list(pair) for pair in self.success_fractions],
            "reference": self.reference,
            "max_exceedance_minus_bound": max(
                (r.exceedance_fraction - r.chebyshev_bound for r in self.rows),
                default=0.0,
            ),
            "solver_paths": dict(Counter(r.solver_path for r in self.rows)),
            "max_krylov_dim": max(
                (r.krylov_dim for r in self.rows if r.krylov_dim is not None),
                default=None,
            ),
            "trials": [
                {
                    "n": r.n,
                    "trial": r.trial,
                    "exceedance_fraction": r.exceedance_fraction,
                    "chebyshev_bound": r.chebyshev_bound,
                }
                for r in self.rows
            ],
        }


def random_consensus_mc(cfg: ExperimentConfig) -> MCResult:
    """Monte Carlo consensus study over graphs sampled from a graphon.

    Trial j of every ladder size uses seed base_seed + j, so any subset
    of trials can be reproduced independently.  A trial succeeds when
    the exceptional measure at eps of the final state stays below c^2.
    Each trial also records the measure where it deviates from the exact
    continuum solution (`solve_exact`) by more than eps, next to the
    Chebyshev bound (L2 distance / eps)^2 that must dominate it.

    The trials run in one loop, one ladder size at a time: the edge
    probabilities, the start and the reference on the common refinement
    with the uniform partition are set up once per size and shared by its
    trials, through one sampler whose 0/1 graphs are symmetric by
    construction and are not validated again.  Each trial takes only its
    difference from that reference, with the operations of
    `step_exceedance_measure` and `step_l2_distance`.  Only one size's
    sampler is alive at a time.
    """
    if not cfg.kernel.is_graphon():
        raise ValidationError("Monte Carlo sampling requires a graphon kernel")
    if cfg.trials < MC_MIN_TRIALS:
        raise ValidationError(f"fraction estimates need at least {MC_MIN_TRIALS} trials")
    for seed in (cfg.base_seed, cfg.base_seed + cfg.trials - 1):  # before any solve
        _seed(seed)
    times = np.array([0.0, cfg.horizon])
    label, ref_part, ref_values = _reference(cfg, times)
    ref_final = ref_values[-1]
    c_squared = cfg.c * cfg.c
    rows = []
    for n in cfg.n_ladder:
        sample = _w_random_sampler(cfg.kernel, n)
        u0 = average_initial(cfg.initial, n)
        part, (cells, ref_cells) = common_refinement(Partition.uniform(n), ref_part)
        ref_on_part = ref_final[ref_cells]
        for trial in range(cfg.trials):
            seed = cfg.base_seed + trial
            traj = solve_finite(sample(seed), u0, times)
            final = traj.states[-1]
            exc = exceptional_measure(final, cfg.eps)
            diff = final[cells] - ref_on_part
            l2 = _l2_norm(part.measures, diff)
            rows.append(
                MCTrialRow(
                    n=n,
                    trial=trial,
                    seed=seed,
                    diameter_at_T=consensus_diameter(final),
                    exceptional_measure=exc,
                    success=bool(exc < c_squared),
                    exceedance_fraction=_exceedance(part.measures, diff, cfg.eps),
                    chebyshev_bound=float((l2 / cfg.eps) ** 2),
                    solver_path=traj.metadata["solver_path"],
                    krylov_dim=traj.metadata.get("krylov_dim"),
                )
            )
    fractions = tuple(
        (n, sum(r.success for r in rows if r.n == n) / cfg.trials)
        for n in cfg.n_ladder
    )
    return MCResult(tuple(rows), fractions, label)
