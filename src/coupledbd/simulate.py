"""Exact event-driven simulation of the coupled birth-death process.

The sampler is a thinned Gillespie loop: deaths fire at their exact rates,
births fire from a dominating proposal mixture and are accepted with the
ratio of the true birth density to the dominating one.  Rejected candidates
are virtual jumps: time advances, the state does not.  With the environment
clock speeded up by 1/epsilon the scheme stays exact because both waiting
times and selection weights carry the same factor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple, Union

import numpy as np

from .errors import EvaluationError, ExplosionGuardError, ModelError
from .geometry import FiniteConfiguration, MarkedConfiguration, Torus, pairwise_distances
from .models import (
    AveragedModel,
    RateModel,
    averaged_death_vector,
    birth_proposal,
    env_death_vector,
    sys_death_vector,
    validate_model_on_torus,
)

_ACCEPT_SLACK = 1e-9  # tolerated overshoot before declaring the bound wrong


@dataclass(frozen=True)
class SimulationSettings:
    """Controls one stochastic run.

    epsilon scales the environment clock (rates divided by epsilon).
    record_times are absolute times at which the state is sampled; they must
    be nondecreasing and within [0, t_end].  keep_snapshots stores full
    configurations at the record times, otherwise only counts are kept.
    """

    t_end: float
    epsilon: float = 1.0
    master_seed: int = 12345
    record_times: Tuple[float, ...] = ()
    keep_snapshots: bool = False
    max_events: int = 10_000_000
    max_particles: int = 100_000

    def __post_init__(self):
        if self.t_end < 0:
            raise ValueError("t_end must be nonnegative")
        if self.epsilon <= 0:
            raise ValueError("epsilon must be positive")
        if self.max_events < 1 or self.max_particles < 1:
            raise ValueError("guards must be positive")
        rt = np.asarray(self.record_times, dtype=float)
        if rt.size and (np.any(np.diff(rt) < 0) or rt[0] < 0 or rt[-1] > self.t_end + 1e-12):
            raise ValueError("record_times must be sorted within [0, t_end]")


@dataclass
class TrajectoryRecord:
    """One replica's output: counts (and optionally configurations) at the
    record times plus the final state and event statistics."""

    times: np.ndarray
    plus_counts: np.ndarray
    minus_counts: np.ndarray
    final: MarkedConfiguration
    events: int
    virtual_events: int
    replica: int
    snapshots: Optional[List[MarkedConfiguration]] = None


def replica_rng(master_seed: int, replica: int) -> np.random.Generator:
    """Independent counter-based stream per replica."""
    return np.random.default_rng(np.random.Philox(key=master_seed ^ replica))


def poisson_configuration(rng: np.random.Generator, torus: Torus,
                          intensity: float) -> FiniteConfiguration:
    """Sample a homogeneous Poisson configuration with the given density."""
    if intensity < 0:
        raise ValueError("intensity must be nonnegative")
    n = int(rng.poisson(intensity * torus.volume))
    return FiniteConfiguration._unchecked(torus.uniform(rng, n))


def _pick_index(rng: np.random.Generator, weights: np.ndarray, total: float) -> int:
    u = rng.uniform(0.0, total)
    c = np.cumsum(weights)
    i = int(np.searchsorted(c, u, side="right"))
    return min(i, len(weights) - 1)


def simulate(
    m: Union[RateModel, AveragedModel],
    torus: Torus,
    initial: MarkedConfiguration,
    settings: SimulationSettings,
    components: Tuple[str, ...] = ("system", "environment"),
    replica: int = 0,
) -> TrajectoryRecord:
    """Run one exact trajectory.

    components selects which populations evolve; the inactive one stays
    frozen at its initial value.  An AveragedModel only supports
    ("system",).
    """
    averaged = isinstance(m, AveragedModel)
    if averaged:
        if components != ("system",):
            raise ModelError("averaged models evolve only the system component")
        validate_model_on_torus(m.base, torus)
    else:
        validate_model_on_torus(m, torus)
    for c in components:
        if c not in ("system", "environment"):
            raise ValueError(f"unknown component {c!r}")
    do_sys = "system" in components
    do_env = "environment" in components and not averaged

    rng = replica_rng(settings.master_seed, replica)
    gp, gm = initial.plus, initial.minus
    eps = settings.epsilon

    rec_times = np.asarray(settings.record_times, dtype=float)
    n_rec = len(rec_times)
    rec_plus = np.zeros(n_rec, dtype=int)
    rec_minus = np.zeros(n_rec, dtype=int)
    snapshots: Optional[List[MarkedConfiguration]] = [] if settings.keep_snapshots else None
    rec_idx = 0

    def record_upto(limit: float):
        nonlocal rec_idx
        while rec_idx < n_rec and rec_times[rec_idx] <= limit + 1e-12:
            rec_plus[rec_idx] = gp.size
            rec_minus[rec_idx] = gm.size
            if snapshots is not None:
                snapshots.append(MarkedConfiguration(plus=gp, minus=gm))
            rec_idx += 1

    record_upto(0.0)

    t = 0.0
    events = 0
    virtual = 0
    sys_dirty = True
    env_dirty = True
    dv_sys = np.zeros(0)
    dv_env = np.zeros(0)
    prop_sys = None
    prop_env = None
    sum_ds = 0.0
    sum_de = 0.0
    mass_bs = 0.0
    mass_be = 0.0

    while True:
        if do_sys and sys_dirty:
            pair = MarkedConfiguration(plus=gp, minus=gm)
            dv_sys = averaged_death_vector(gp, m, torus) if averaged \
                else sys_death_vector(pair, m, torus)
            prop_sys = birth_proposal("system", pair, m, torus)
            sum_ds = float(np.sum(dv_sys))
            mass_bs = prop_sys.total_mass
            sys_dirty = False
        if do_env and env_dirty:
            pair = MarkedConfiguration(plus=gp, minus=gm)
            dv_env = env_death_vector(gm, m, torus)
            prop_env = birth_proposal("environment", pair, m, torus)
            sum_de = float(np.sum(dv_env))
            mass_be = prop_env.total_mass
            env_dirty = False

        r_sd = sum_ds if do_sys else 0.0
        r_sb = mass_bs if do_sys else 0.0
        r_ed = sum_de / eps if do_env else 0.0
        r_eb = mass_be / eps if do_env else 0.0
        total = r_sd + r_sb + r_ed + r_eb

        if total <= 0.0:
            record_upto(settings.t_end)
            t = settings.t_end
            break

        t_new = t + rng.exponential(1.0 / total)
        record_upto(min(t_new, settings.t_end))
        if t_new >= settings.t_end:
            t = settings.t_end
            break
        t = t_new

        events += 1
        if events > settings.max_events:
            raise ExplosionGuardError(
                f"event budget {settings.max_events} exhausted at t={t:.6g}",
                time_reached=t, events=events)

        u = rng.uniform(0.0, total)
        if u < r_sd:
            i = _pick_index(rng, dv_sys, sum_ds)
            gp = gp.remove_index(i)
            sys_dirty = True
        elif u < r_sd + r_sb:
            x = prop_sys.sample_candidate(rng)
            if x is None:
                virtual += 1
                continue
            acc = float(prop_sys.acceptance(x))
            if acc > 1.0 + _ACCEPT_SLACK:
                raise EvaluationError(
                    f"acceptance {acc:.6g} exceeds 1; dominating bound is wrong")
            if rng.uniform() < acc:
                gp = gp.add_point(x)
                sys_dirty = True
            else:
                virtual += 1
                continue
        elif u < r_sd + r_sb + r_ed:
            i = _pick_index(rng, dv_env, sum_de)
            gm = gm.remove_index(i)
            env_dirty = True
            sys_dirty = True
        else:
            x = prop_env.sample_candidate(rng)
            if x is None:
                virtual += 1
                continue
            acc = float(prop_env.acceptance(x))
            if acc > 1.0 + _ACCEPT_SLACK:
                raise EvaluationError(
                    f"acceptance {acc:.6g} exceeds 1; dominating bound is wrong")
            if rng.uniform() < acc:
                gm = gm.add_point(x)
                env_dirty = True
                sys_dirty = True
            else:
                virtual += 1
                continue

        if gp.size + gm.size > settings.max_particles:
            raise ExplosionGuardError(
                f"population {gp.size + gm.size} exceeds {settings.max_particles} "
                f"at t={t:.6g} after {events} events",
                time_reached=t, events=events)

    return TrajectoryRecord(
        times=rec_times.copy(),
        plus_counts=rec_plus,
        minus_counts=rec_minus,
        final=MarkedConfiguration(plus=gp, minus=gm),
        events=events,
        virtual_events=virtual,
        replica=replica,
        snapshots=snapshots,
    )


def replicate(
    m: Union[RateModel, AveragedModel],
    torus: Torus,
    initial_factory: Callable[[np.random.Generator], MarkedConfiguration],
    settings: SimulationSettings,
    n_replicas: int,
    components: Tuple[str, ...] = ("system", "environment"),
) -> List[TrajectoryRecord]:
    """Independent replicas; replica r uses the stream master_seed ^ r and
    draws its initial state from initial_factory with a derived stream."""
    out = []
    for r in range(n_replicas):
        init_rng = replica_rng(settings.master_seed ^ 0x5DEECE66D, r)
        initial = initial_factory(init_rng)
        out.append(simulate(m, torus, initial, settings, components, replica=r))
    return out


# ---------------------------------------------------------------------------
# estimators over replica ensembles

@dataclass
class DensityEstimate:
    times: np.ndarray
    mean_plus: np.ndarray
    se_plus: np.ndarray
    mean_minus: np.ndarray
    se_minus: np.ndarray
    n_replicas: int


def estimate_density(records: Sequence[TrajectoryRecord], torus: Torus) -> DensityEstimate:
    """Per-record-time population densities with across-replica standard
    errors."""
    if not records:
        raise ValueError("no records")
    times = records[0].times
    for r in records:
        if not np.array_equal(r.times, times):
            raise ValueError("records disagree on record times")
    vol = torus.volume
    plus = np.array([r.plus_counts for r in records], dtype=float) / vol
    minus = np.array([r.minus_counts for r in records], dtype=float) / vol
    n = len(records)
    se = lambda a: np.std(a, axis=0, ddof=1) / math.sqrt(n) if n > 1 else np.zeros(a.shape[1])
    return DensityEstimate(
        times=times.copy(),
        mean_plus=np.mean(plus, axis=0),
        se_plus=se(plus),
        mean_minus=np.mean(minus, axis=0),
        se_minus=se(minus),
        n_replicas=n,
    )


@dataclass
class PairCorrelationEstimate:
    bin_centers: np.ndarray
    g: np.ndarray
    se: np.ndarray
    density: float
    n_configs: int


def _shell_volume(dim: int, r_lo: float, r_hi: float) -> float:
    if dim == 1:
        return 2.0 * (r_hi - r_lo)
    if dim == 2:
        return math.pi * (r_hi ** 2 - r_lo ** 2)
    return 4.0 * math.pi / 3.0 * (r_hi ** 3 - r_lo ** 3)


def estimate_pair_correlation(
    configs: Sequence[FiniteConfiguration],
    torus: Torus,
    bin_edges: np.ndarray,
    density: Optional[float] = None,
) -> PairCorrelationEstimate:
    """Radial pair correlation from pooled configurations.

    Counts ordered pairs per distance shell; normalization uses the pooled
    mean density unless one is supplied.  Standard errors are across
    configurations.
    """
    edges = np.asarray(bin_edges, dtype=float)
    if edges.ndim != 1 or len(edges) < 2 or np.any(np.diff(edges) <= 0):
        raise ValueError("bin_edges must be increasing with at least two entries")
    if edges[-1] > torus.max_distance + 1e-9:
        raise ValueError("bin edges exceed the largest torus distance")
    n_cfg = len(configs)
    if n_cfg == 0:
        raise ValueError("no configurations")
    vol = torus.volume
    if density is None:
        density = float(np.mean([c.size for c in configs])) / vol
    if density <= 0:
        raise ValueError("density must be positive to normalize")
    dim = torus.dim
    shells = np.array([_shell_volume(dim, edges[i], edges[i + 1])
                       for i in range(len(edges) - 1)])
    per_cfg = np.zeros((n_cfg, len(shells)))
    for ci, cfg in enumerate(configs):
        if cfg.size < 2:
            continue
        d = pairwise_distances(cfg.points, cfg.points, torus)
        iu = np.triu_indices(cfg.size, k=1)
        counts, _ = np.histogram(d[iu], bins=edges)
        per_cfg[ci] = 2.0 * counts  # ordered pairs
    norm = density ** 2 * vol * shells
    g_cfg = per_cfg / norm[None, :]
    g = np.mean(g_cfg, axis=0)
    se = np.std(g_cfg, axis=0, ddof=1) / math.sqrt(n_cfg) if n_cfg > 1 else np.zeros_like(g)
    centers = 0.5 * (edges[:-1] + edges[1:])
    return PairCorrelationEstimate(bin_centers=centers, g=g, se=se,
                                   density=density, n_configs=n_cfg)


def pooled_snapshots(records: Sequence[TrajectoryRecord],
                     time_indices: Sequence[int],
                     component: str = "plus") -> List[FiniteConfiguration]:
    """Collect stored configurations at the given record-time indices."""
    if component not in ("plus", "minus"):
        raise ValueError("component must be 'plus' or 'minus'")
    out: List[FiniteConfiguration] = []
    for r in records:
        if r.snapshots is None:
            raise ValueError("records were run without keep_snapshots")
        for i in time_indices:
            snap = r.snapshots[i]
            out.append(snap.plus if component == "plus" else snap.minus)
    return out
