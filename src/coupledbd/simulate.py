"""Exact event-driven simulation of the coupled birth-death process.

The sampler is a thinned Gillespie loop: deaths fire at their exact rates,
births fire from a dominating proposal mixture and are accepted with the
ratio of the true birth density to the dominating one.  Rejected candidates
are virtual jumps: time advances, the state does not.  With the environment
clock speeded up by 1/epsilon the scheme stays exact because both waiting
times and selection weights carry the same factor.

The loop keeps its state in arrays (_PairState): the points of each
component and, for each evolving one, the pair sums of its points, from
which its death rates and parent masses follow.  An accepted event moves
the sums by one distance row per population, between the changed point and
that population, so each event costs O(n) numpy work.  The sums are kept
rather than the rates because they change additively; an exponential rate
can overflow or underflow and could not be divided back out.  The pair
terms come from the rate form of each component (models.rate_form), so the
loop has no per-variant branch.
An event refreshes only the death totals and birth proposals whose terms
it moved.  A proposal is rebuilt only when its masses move, that is for
births around parents; an exponential birth part keeps its uniform
proposal, and its acceptance is evaluated on the current points.
Everything is recomputed from scratch through the public rate functions
once the accepted events since the last recompute reach the population
size or _RECOMPUTE_FLOOR, whichever is larger.  That bounds round-off drift
at amortised O(n) per event, and the floor keeps a small population from
being rebuilt every few events.  None of this changes a random draw.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from .errors import EvaluationError, ExplosionGuardError
from .geometry import (
    FiniteConfiguration,
    MarkedConfiguration,
    Torus,
    distances_from,
)
from .models import (
    AveragedModel,
    BirthProposal,
    RateModel,
    _birth_acceptance,
    _death_rates,
    _death_sums,
    _form_proposal,
    _parent_sums,
    averaged_death_vector,
    birth_proposal,
    env_death_vector,
    rate_form,
    sys_death_vector,
    validate_model_on_torus,
)

_ACCEPT_SLACK = 1e-9  # tolerated overshoot before declaring the bound wrong

COMPONENTS = ("system", "environment")
EVENT_KINDS = ("births", "deaths", "virtual")


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
    record times plus the final state and event statistics.

    counts[component][kind] counts that component's births, deaths and
    virtual (rejected) events; events also counts the virtual ones.
    peak_population is the largest total size the pair reached, and
    recomputes the number of full rebuilds of the loop state, the initial
    one included.
    """

    times: np.ndarray
    plus_counts: np.ndarray
    minus_counts: np.ndarray
    final: MarkedConfiguration
    events: int
    virtual_events: int
    replica: int
    snapshots: Optional[List[MarkedConfiguration]] = None
    counts: Dict[str, Dict[str, int]] = field(default_factory=dict)
    peak_population: int = 0
    recomputes: int = 0

    @property
    def acceptance(self) -> Dict[str, Optional[float]]:
        """acceptance_ratio of each component's counts."""
        return {c: acceptance_ratio(self.counts[c]) for c in COMPONENTS}


def acceptance_ratio(tally: Dict[str, int]) -> Optional[float]:
    """Share of one component's birth candidates that were accepted,
    births / (births + virtual); None when there was no candidate."""
    tried = tally["births"] + tally["virtual"]
    return tally["births"] / tried if tried else None


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
    i = int(weights.cumsum().searchsorted(u, side="right"))
    return min(i, len(weights) - 1)


def _drop(a: np.ndarray, i: int) -> np.ndarray:
    return np.concatenate([a[:i], a[i + 1:]])


# columns of the per-point table of an evolving component
_DEATH_SUM, _PARENT_SUM, _DEATH = range(3)

# Accepted events between two full recomputes: the population size, but at
# least this many, so that a small population is not rebuilt every few events.
_RECOMPUTE_FLOOR = 32


class _PairState:
    """Array state of the event loop.

    points[k] holds the points of component k (0 system, 1 environment).
    For each evolving component k, table[k] has one row per point: its
    death sum and parent sum (ComponentForm.pair_terms) and the death rate
    that follows from the death sum.  The state also keeps the death totals,
    the birth masses and the birth proposals.  add and remove move the sums
    by one row of pair terms per population, with O(n) work, and refresh
    only the totals and proposals whose terms moved; recompute rebuilds
    all of it from the points alone.

    A proposal is rebuilt only when its masses move, so its own acceptance
    may read an older configuration; acceptance(k, x) reads the points now.
    """

    def __init__(self, m, torus: Torus, initial: MarkedConfiguration,
                 components: Sequence[str]):
        self.m, self.torus = m, torus
        self.points = [initial.plus.points, initial.minus.points]
        self.forms = [rate_form(m, c) if c in components else None for c in COMPONENTS]
        none = (None, None)
        # rows[k]: for a point of component k that comes or goes, each
        # population j it has pair terms with, the potentials of the sums
        # of j's points and those of the point's own sums
        self.rows = [[], []]
        # moves[k]: for a point of component k that comes or goes, the
        # evolving components whose death totals and whose birth masses move
        self.moves = [([], []), ([], [])]
        for k in (0, 1):
            for j in (k, 1 - k):
                theirs = none if self.forms[j] is None else self.forms[j].pair_terms[j != k]
                its = none if self.forms[k] is None else self.forms[k].pair_terms[j != k]
                if any(p is not None for p in theirs + its):
                    self.rows[k].append((j, theirs, its))
                if self.forms[j] is None:
                    continue
                deaths, masses = self.moves[k]
                if j == k or theirs[0] is not None:
                    deaths.append(j)
                if theirs[1] is not None or self.forms[j].birth_groups[j != k] is not None:
                    masses.append(j)
        self.table = [np.zeros((0, 3)), np.zeros((0, 3))]
        self.death_total = [0.0, 0.0]
        self.birth_mass = [0.0, 0.0]
        self.proposals: List[Optional[BirthProposal]] = [None, None]
        self.recomputes = 0
        self.recompute()

    @property
    def size(self) -> int:
        return len(self.points[0]) + len(self.points[1])

    @property
    def death(self) -> Tuple[np.ndarray, np.ndarray]:
        return self.table[0][:, _DEATH], self.table[1][:, _DEATH]

    def configuration(self) -> MarkedConfiguration:
        return MarkedConfiguration(plus=FiniteConfiguration._unchecked(self.points[0]),
                                   minus=FiniteConfiguration._unchecked(self.points[1]))

    def recompute(self):
        """Rebuild the sums from scratch, and the rates and proposals through
        the public rate functions."""
        self.recomputes += 1
        pair = self.configuration()
        for k, f in enumerate(self.forms):
            if f is None:
                continue
            own, other = self.points[k], self.points[1 - k]
            table = self.table[k] = np.empty((len(own), 3))
            table[:, _DEATH_SUM] = _death_sums(f, own, other, self.torus)
            table[:, _PARENT_SUM] = _parent_sums(f, own, other, self.torus)
            if k == 1:
                table[:, _DEATH] = env_death_vector(pair.minus, self.m, self.torus)
            elif f.autonomous:  # an averaged system reads no environment
                table[:, _DEATH] = averaged_death_vector(pair.plus, self.m, self.torus)
            else:
                table[:, _DEATH] = sys_death_vector(pair, self.m, self.torus)
            prop = self.proposals[k] = birth_proposal(COMPONENTS[k], pair, self.m, self.torus)
            self.birth_mass[k] = prop.total_mass
            self.death_total[k] = float(table[:, _DEATH].sum())

    def acceptance(self, k: int, x: np.ndarray) -> float:
        """Acceptance at x of the proposal of component k, on the points now."""
        return _birth_acceptance(self.forms[k], x, self.points[k], self.points[1 - k],
                                 self.torus)

    def _apply(self, k: int, x: np.ndarray, sign: float) -> np.ndarray:
        """Move the sums of the points present now by their pair terms with
        x, just added to component k (sign +1) or removed from it (sign -1),
        and rederive the death rates whose sums moved.

        Returns a table row for a point at x, with its sums.
        """
        x_row = np.zeros(3)
        for j, theirs, its in self.rows[k]:
            d = distances_from(x, self.points[j], self.torus)
            table = self.table[j]
            for col, pot, x_pot in zip((_DEATH_SUM, _PARENT_SUM), theirs, its):
                v = None if pot is None else pot(d)
                if v is not None:
                    table[:, col] += sign * v
                if sign > 0 and x_pot is not None:
                    x_row[col] += float((v if x_pot is pot else x_pot(d)).sum())
            if theirs[0] is not None:
                table[:, _DEATH] = _death_rates(self.forms[j], table[:, _DEATH_SUM])
        return x_row

    def _changed(self, k: int):
        """Refresh the death totals and the proposals that a point of
        component k coming or going moved."""
        deaths, masses = self.moves[k]
        for j in deaths:
            self.death_total[j] = float(self.table[j][:, _DEATH].sum())
        for j in masses:
            prop = self.proposals[j] = _form_proposal(
                self.forms[j], self.points[j], self.points[1 - j], self.torus,
                self.table[j][:, _PARENT_SUM])
            self.birth_mass[j] = prop.total_mass

    def add(self, k: int, x: np.ndarray):
        own = self.points[k]
        if (own == x).all(axis=1).any():
            raise ValueError("configuration contains coincident points")
        x_row = self._apply(k, x, 1.0)
        x_row[_DEATH] = _death_rates(self.forms[k], x_row[_DEATH_SUM])
        self.table[k] = np.concatenate([self.table[k], x_row[None, :]])
        self.points[k] = np.concatenate([own, x[None, :]])
        self._changed(k)

    def remove(self, k: int, i: int):
        x = self.points[k][i]
        self.points[k] = _drop(self.points[k], i)
        self.table[k] = _drop(self.table[k], i)
        self._apply(k, x, -1.0)
        self._changed(k)


def simulate(
    m: Union[RateModel, AveragedModel],
    torus: Torus,
    initial: MarkedConfiguration,
    settings: SimulationSettings,
    components: Tuple[str, ...] = COMPONENTS,
    replica: int = 0,
) -> TrajectoryRecord:
    """Run one exact trajectory.

    components selects which populations evolve; the inactive one stays
    frozen at its initial value.  An AveragedModel only supports
    ("system",).
    """
    for c in components:
        if c not in COMPONENTS:
            raise ValueError(f"unknown component {c!r}")
    validate_model_on_torus(m, torus)
    state = _PairState(m, torus, initial, components)

    rng = replica_rng(settings.master_seed, replica)
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
            rec_plus[rec_idx] = len(state.points[0])
            rec_minus[rec_idx] = len(state.points[1])
            if snapshots is not None:
                snapshots.append(state.configuration())
            rec_idx += 1

    record_upto(0.0)

    t = 0.0
    events = 0
    counts = {c: dict.fromkeys(EVENT_KINDS, 0) for c in COMPONENTS}
    peak = state.size
    since_recompute = 0

    while True:
        r_sd, r_sb = state.death_total[0], state.birth_mass[0]
        r_ed, r_eb = state.death_total[1] / eps, state.birth_mass[1] / eps
        total = r_sd + r_sb + r_ed + r_eb
        if not math.isfinite(total):
            raise ExplosionGuardError(
                f"rate total {total} is not finite at t={t:.6g} after {events} events",
                time_reached=t, events=events)

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
            k, birth = 0, False
        elif u < r_sd + r_sb:
            k, birth = 0, True
        elif u < r_sd + r_sb + r_ed:
            k, birth = 1, False
        else:
            k, birth = 1, True
        tally = counts[COMPONENTS[k]]

        if not birth:
            state.remove(k, _pick_index(rng, state.table[k][:, _DEATH], state.death_total[k]))
            tally["deaths"] += 1
        else:
            x = state.proposals[k].sample_candidate(rng)
            if x is None:
                tally["virtual"] += 1
                continue
            acc = state.acceptance(k, x)
            if acc > 1.0 + _ACCEPT_SLACK:
                raise EvaluationError(
                    f"acceptance {acc:.6g} exceeds 1; dominating bound is wrong")
            if rng.uniform() < acc:
                state.add(k, x)
                tally["births"] += 1
            else:
                tally["virtual"] += 1
                continue

        n = state.size
        peak = max(peak, n)
        if n > settings.max_particles:
            raise ExplosionGuardError(
                f"population {n} exceeds {settings.max_particles} "
                f"at t={t:.6g} after {events} events",
                time_reached=t, events=events)
        since_recompute += 1
        if since_recompute >= max(n, _RECOMPUTE_FLOOR):
            state.recompute()
            since_recompute = 0

    return TrajectoryRecord(
        times=rec_times.copy(),
        plus_counts=rec_plus,
        minus_counts=rec_minus,
        final=state.configuration(),
        events=events,
        virtual_events=sum(c["virtual"] for c in counts.values()),
        replica=replica,
        snapshots=snapshots,
        counts=counts,
        peak_population=peak,
        recomputes=state.recomputes,
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
