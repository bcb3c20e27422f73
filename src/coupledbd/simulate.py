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
being rebuilt every few events.  None of this changes a random draw.  The
arrays have spare room, so an event writes or shifts rows in place.

A free environment (ComponentForm.free: constant rates, no pair term)
coupled to a system that reads it only in its birth acceptance does not
go through the loop.  Its whole path is drawn at once (_EnvPath), and the
loop runs the system alone against it: the system's death totals and
birth masses change only at its own events, and its acceptance reads the
path's points alive at the candidate's time.  A system whose sums or
kernel groups read the environment, and a run of the environment alone,
keep the joint loop.  The path's changes between two system events form a
stretch; the guards are checked at each change of a stretch only when one
can trip in it (the system's size plus the path's peak so far exceeds
max_particles, or the stretch runs past max_events), so the errors are
those of a check at every change.  The peak population over the stretches
is taken once, at the end of the run.

Draws: a uniform on [0, b) is drawn as b * rng.random(), one draw of the
stream.  numpy computes rng.uniform(0, b) as 0 + b * random(), so the two
are equal bit for bit and a run draws what it drew with rng.uniform.
Every scalar uniform the loop and BirthProposal.sample_candidate take
follows this rule.

replicate runs an ensemble across the CPUs the process may use: replica r
goes to worker r mod W, the calling process and W - 1 forked children.
Each replica draws only from its own streams, so the records do not depend
on W and equal those of a run on one CPU.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from .errors import EvaluationError, ExplosionGuardError
from .forkjoin import fork_join
from .geometry import (
    FiniteConfiguration,
    MarkedConfiguration,
    Torus,
    squared_distances_from,
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
    return FiniteConfiguration._adopt(torus.uniform(rng, n))


def poisson_pair(torus: Torus, plus_density: float,
                 minus_density: float) -> Callable[[np.random.Generator], MarkedConfiguration]:
    """The initial_factory of replicate that draws Poisson system points,
    then Poisson environment points, at the given densities.  A density of
    0 draws nothing from the stream."""
    def factory(rng: np.random.Generator) -> MarkedConfiguration:
        return MarkedConfiguration(plus=poisson_configuration(rng, torus, plus_density),
                                   minus=poisson_configuration(rng, torus, minus_density))
    return factory


def _pick_index(rng: np.random.Generator, weights: np.ndarray, total: float) -> int:
    i = int(weights.cumsum().searchsorted(total * rng.random(), side="right"))
    return min(i, len(weights) - 1)


def _with_room(a: np.ndarray) -> np.ndarray:
    """A buffer twice as long as a (at least 16 rows) that starts with a."""
    buf = np.zeros((max(2 * len(a), 16), a.shape[1]))
    buf[:len(a)] = a
    return buf


# columns of the per-point table of an evolving component
_DEATH_SUM, _PARENT_SUM, _DEATH = range(3)

# Accepted events between two full recomputes: the population size, but at
# least this many, so that a small population is not rebuilt every few events.
_RECOMPUTE_FLOOR = 32


class _PairState:
    """Array state of the event loop.

    points[k] holds the points of component k (0 system, 1 environment),
    a view of the first n[k] rows of a buffer with spare room.
    For each evolving component k, table[k] has one row per point: its
    death sum and parent sum (ComponentForm.pair_terms) and the death rate
    that follows from the death sum.  The state also keeps the death totals,
    the birth masses and the birth proposals.  add and remove move the sums
    by one row of pair terms per population, with O(n) work, and refresh
    only the totals and proposals whose terms moved; recompute rebuilds
    all of it from the points alone.

    A proposal is rebuilt only when its masses move; acceptance(k, x) thins
    it on the points now, which may have moved since it was built.
    """

    def __init__(self, m, torus: Torus, initial: MarkedConfiguration,
                 components: Sequence[str]):
        self.m, self.torus = m, torus
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
        self.n = [initial.plus.size, initial.minus.size]
        self._pts = [_with_room(initial.plus.points), _with_room(initial.minus.points)]
        self._tab = [np.zeros((len(p), 3)) for p in self._pts]
        self.points, self.table = [None, None], [None, None]
        for k in (0, 1):
            self._view(k)
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

    def _view(self, k: int):
        self.points[k] = self._pts[k][:self.n[k]]
        self.table[k] = self._tab[k][:self.n[k]]

    def configuration(self, minus: Optional[np.ndarray] = None) -> MarkedConfiguration:
        """The pair now; minus replaces the environment's points when given."""
        return MarkedConfiguration(
            plus=FiniteConfiguration(self.points[0], check=False),
            minus=FiniteConfiguration(self.points[1] if minus is None else minus, check=False))

    def recompute(self):
        """Rebuild the sums from scratch, and the rates and proposals through
        the public rate functions."""
        self.recomputes += 1
        pair = self.configuration()
        for k, f in enumerate(self.forms):
            if f is None:
                continue
            own, other = self.points[k], self.points[1 - k]
            table = self.table[k]
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

    def acceptance(self, k: int, x: np.ndarray,
                   other: Optional[np.ndarray] = None) -> Tuple[float, Optional[np.ndarray]]:
        """Acceptance at x of the proposal of component k, on the points now
        (other replaces those of the other component when given), with the
        squared distances from x to the points of k when it computed them."""
        return _birth_acceptance(self.forms[k], x, self.points[k],
                                 self.points[1 - k] if other is None else other, self.torus)

    def _apply(self, k: int, x: np.ndarray, sign: float) -> np.ndarray:
        """Move the sums of the points present now by their pair terms with
        x, just added to component k (sign +1) or removed from it (sign -1),
        and rederive the death rates whose sums moved.

        Returns a table row for a point at x, with its sums.
        """
        x_row = np.zeros(3)
        for j, theirs, its in self.rows[k]:
            d2 = squared_distances_from(x, self.points[j], self.torus)
            table = self.table[j]
            for col, pot, x_pot in zip((_DEATH_SUM, _PARENT_SUM), theirs, its):
                v = None if pot is None else pot.at_squared(d2)
                if v is not None:
                    table[:, col] += sign * v
                if sign > 0 and x_pot is not None:
                    x_row[col] += float(v.sum() if x_pot is pot else x_pot.sum_squared(d2))
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

    def add(self, k: int, x: np.ndarray, row: Optional[np.ndarray] = None):
        """Add x to component k.  row, when given, holds the squared distances
        from x to the points of k now: a point equal to x is at distance 0,
        so the exact check runs only when row has a zero."""
        n = self.n[k]
        if (row is None or (row == 0.0).any()) and (self.points[k] == x).all(axis=1).any():
            raise ValueError("configuration contains coincident points")
        x_row = self._apply(k, x, 1.0)
        x_row[_DEATH] = _death_rates(self.forms[k], x_row[_DEATH_SUM])
        if n == len(self._pts[k]):
            self._pts[k], self._tab[k] = _with_room(self._pts[k]), _with_room(self._tab[k])
        self._pts[k][n], self._tab[k][n] = x, x_row
        self.n[k] += 1
        self._view(k)
        self._changed(k)

    def remove(self, k: int, i: int):
        n = self.n[k]
        x = self._pts[k][i].copy()
        for buf in (self._pts[k], self._tab[k]):
            buf[i:n - 1] = buf[i + 1:n]
        self.n[k] -= 1
        self._view(k)
        self._apply(k, x, -1.0)
        self._changed(k)


def _guard_index(sizes: np.ndarray, events: int, settings: SimulationSettings) -> int:
    """Index of the first of a run of changes that trips a guard, given the total
    sizes after them and the events before them; len(sizes) when none does."""
    over = np.flatnonzero(sizes > settings.max_particles)
    return min(len(sizes), settings.max_events - events, *over[:1])


def _guard_error(settings: SimulationSettings, t: float, events: int,
                 n: int) -> ExplosionGuardError:
    if events > settings.max_events:
        msg = f"event budget {settings.max_events} exhausted at t={t:.6g}"
    else:
        msg = (f"population {n} exceeds {settings.max_particles} "
               f"at t={t:.6g} after {events} events")
    return ExplosionGuardError(msg, time_reached=t, events=events)


# Arrival gaps of a free environment's path drawn at once, doubling thereafter.
_PATH_CHUNK = 4096


class _EnvPath:
    """The path of a free environment (ComponentForm.free), drawn in bulk.

    A free environment is an immigration-death process on a clock sped up
    by 1/epsilon.  Arrivals come as a Poisson process of rate birth_const
    |Lambda| / epsilon at uniform places, and each of them and each point
    present at time 0 lives an Exp(death_const / epsilon) time.  The
    arrival times are cumulative sums of exponential gaps, drawn a chunk at
    a time, and drawing stops at the first change at which the environment
    alone trips a guard: the run trips one there or earlier.  Positions are
    drawn last, for the arrivals drawn.

    points, born and dies hold the points with their birth and death times,
    those present at time 0 first and then the arrivals in time order.
    times and signs list the changes up to the horizon in time order (+1 a
    birth, -1 a death), sizes[i] is the environment's size after the first
    i of them, and peaks[i] the largest of sizes[:i + 1].
    """

    def __init__(self, f, torus: Torus, initial: np.ndarray, settings: SimulationSettings,
                 rng: np.random.Generator):
        t_end, life = settings.t_end, settings.epsilon / f.death_const
        rate = f.birth_const * torus.volume / settings.epsilon
        if not math.isfinite(rate):
            raise ExplosionGuardError(f"environment birth rate {rate} is not finite at t=0",
                                      time_reached=0.0, events=0)
        n0 = len(initial)
        born, dies = [np.zeros(n0)], [rng.exponential(life, n0)]
        drawn, tail = 0, (0.0 if rate > 0.0 else math.inf)  # tail: the last arrival summed
        while True:
            if tail <= t_end:
                gaps = rng.exponential(1.0 / rate, max(drawn, _PATH_CHUNK))
                # only the arrivals up to t_end are kept: sum about twice as
                # many gaps as expected first, and all of them only when that
                # falls short
                head = int(min(2.0 * rate * (t_end - tail) + 64, len(gaps)))
                s = tail + np.cumsum(gaps[:head])
                if s[-1] <= t_end and head < len(gaps):
                    s = tail + np.cumsum(gaps)
                tail, s = s[-1], s[s <= t_end]
                drawn += len(s)
                born.append(s)
                dies.append(s + rng.exponential(life, len(s)))
            horizon = min(t_end, tail)
            self.born, self.dies = np.concatenate(born), np.concatenate(dies)
            deaths = np.flatnonzero(self.dies <= horizon)
            when = np.concatenate([self.born[n0:], self.dies[deaths]])
            order = when.argsort(kind="stable")
            self.times = when[order]
            self.signs = np.where(order < drawn, 1, -1)
            self.sizes = n0 + np.concatenate([[0], np.cumsum(self.signs)])
            if tail > t_end or _guard_index(self.sizes[1:], 0, settings) < len(self.times):
                break
        self.peaks = np.maximum.accumulate(self.sizes)
        self.points = np.concatenate([initial, torus.uniform(rng, drawn)])
        # reach[i] is the latest death among the first i + 1 points, so the
        # points alive at t lie from the first with reach > t to the last born
        self._reach = np.maximum.accumulate(self.dies)

    def alive(self, t: float) -> np.ndarray:
        """The environment's points at time t."""
        lo = self._reach.searchsorted(t, side="right")
        hi = self.born.searchsorted(t, side="right")
        return self.points[lo:hi][self.dies[lo:hi] > t]


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
    ("system",).  A free environment evolving with a system that reads it
    only in its birth acceptance is drawn as a whole path (_EnvPath), and
    only the system runs the loop, against it.
    """
    for c in components:
        if c not in COMPONENTS:
            raise ValueError(f"unknown component {c!r}")
    validate_model_on_torus(m, torus)
    rng = replica_rng(settings.master_seed, replica)
    path = None
    if set(components) == set(COMPONENTS) and rate_form(m, "environment").free:
        own = rate_form(m, "system")
        # the environment moves none of the system's sums or kernel groups
        if all(p is None for p in own.pair_terms[1] + own.birth_groups[1:]):
            path = _EnvPath(rate_form(m, "environment"), torus, initial.minus.points,
                            settings, rng)
            components = ("system",)
    return _loop(m, torus, initial, settings, components, replica, rng, path)


def _loop(m, torus: Torus, initial: MarkedConfiguration, settings: SimulationSettings,
          components: Tuple[str, ...], replica: int, rng: np.random.Generator,
          path: Optional[_EnvPath] = None) -> TrajectoryRecord:
    """The thinned event loop of the evolving components or, given a free
    environment's path, of the system against it: the system's acceptance
    reads the path's points alive at the candidate's time."""
    state = _PairState(m, torus, initial, components)
    eps, t_end = settings.epsilon, settings.t_end

    rec_times = np.asarray(settings.record_times, dtype=float)
    n_rec = len(rec_times)
    rec_plus = np.zeros(n_rec, dtype=int)
    rec_minus = np.zeros(n_rec, dtype=int)
    snapshots: Optional[List[MarkedConfiguration]] = [] if settings.keep_snapshots else None
    rec_idx = 0
    next_rec = rec_times[0] if n_rec else math.inf  # the next record time

    def record_upto(limit: float):
        nonlocal rec_idx, next_rec
        while rec_idx < n_rec and rec_times[rec_idx] <= limit + 1e-12:
            env = state.points[1] if path is None else path.alive(rec_times[rec_idx])
            rec_plus[rec_idx] = len(state.points[0])
            rec_minus[rec_idx] = len(env)
            if snapshots is not None:
                snapshots.append(state.configuration(env))
            rec_idx += 1
        next_rec = rec_times[rec_idx] if rec_idx < n_rec else math.inf

    record_upto(0.0)

    t = 0.0
    events = 0
    counts = {c: dict.fromkeys(EVENT_KINDS, 0) for c in COMPONENTS}
    peak = state.size
    since_recompute = 0
    passed = 0  # changes of the path passed
    # the stretches of the path passed: the index in path.sizes of the size
    # after the first change of each, and the system's size along it
    starts: List[int] = []
    sys_sizes: List[int] = []

    def pass_env(limit: float):
        """Pass the path's changes up to limit.  The guards are checked at
        each change only when one can trip in the stretch: the system's size
        plus the path's peak so far exceeds max_particles, or the stretch
        runs past the event budget."""
        nonlocal passed, events
        upto = int(path.times.searchsorted(limit, side="right"))
        if upto == passed:
            return
        n_sys = len(state.points[0])
        if (n_sys + path.peaks[upto] > settings.max_particles
                or events + upto - passed > settings.max_events):
            sizes = path.sizes[passed + 1:upto + 1] + n_sys
            w = _guard_index(sizes, events, settings)
            if w < len(sizes):
                raise _guard_error(settings, path.times[passed + w], events + w + 1, sizes[w])
        starts.append(passed + 1)
        sys_sizes.append(n_sys)
        events += upto - passed
        passed = upto

    while True:
        r_sd, r_sb = state.death_total[0], state.birth_mass[0]
        r_ed, r_eb = state.death_total[1] / eps, state.birth_mass[1] / eps
        total = r_sd + r_sb + r_ed + r_eb
        if not math.isfinite(total):
            raise ExplosionGuardError(
                f"rate total {total} is not finite at t={t:.6g} after {events} events",
                time_reached=t, events=events)

        if total <= 0.0:
            record_upto(t_end)
            if path is not None:
                pass_env(t_end)
            t = t_end
            break

        t_new = t + rng.exponential(1.0 / total)
        limit = min(t_new, t_end)
        if next_rec <= limit + 1e-12:
            record_upto(limit)
        if path is not None:
            pass_env(limit)
        if t_new >= t_end:
            t = t_end
            break
        t = t_new

        events += 1
        if events > settings.max_events:
            raise _guard_error(settings, t, events, state.size)

        u = total * rng.random()
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
            acc, row = state.acceptance(k, x, None if path is None else path.alive(t))
            if acc > 1.0 + _ACCEPT_SLACK:
                raise EvaluationError(
                    f"acceptance {acc:.6g} exceeds 1; dominating bound is wrong")
            if rng.random() < acc:
                state.add(k, x, row)
                tally["births"] += 1
            else:
                tally["virtual"] += 1
                continue

        n = state.size if path is None else len(state.points[0]) + int(path.sizes[passed])
        peak = max(peak, n)
        if n > settings.max_particles:
            raise _guard_error(settings, t, events, n)
        since_recompute += 1
        if since_recompute >= max(n, _RECOMPUTE_FLOOR):
            state.recompute()
            since_recompute = 0

    if path is not None:
        if starts:
            stretch_peaks = np.maximum.reduceat(path.sizes[:passed + 1], starts) + sys_sizes
            peak = max(peak, int(stretch_peaks.max()))
        births = int(np.count_nonzero(path.signs[:passed] > 0))
        counts["environment"].update(births=births, deaths=passed - births)
    return TrajectoryRecord(
        times=rec_times.copy(),
        plus_counts=rec_plus,
        minus_counts=rec_minus,
        final=state.configuration(None if path is None else path.alive(t)),
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
    """Independent runs of simulate; replica r uses the stream master_seed ^ r
    (for a free environment's path, then the loop) and draws its initial
    state from initial_factory with a derived stream.

    The replicas run across the CPUs the process may use
    (forkjoin.fork_join).  No replica's draws depend on the worker that
    runs it, so the records equal those of a run on one CPU.  When a
    replica raises, the error of the lowest failing index is raised, as in
    a serial run.
    """
    def run(r: int) -> TrajectoryRecord:
        initial = initial_factory(replica_rng(settings.master_seed ^ 0x5DEECE66D, r))
        return simulate(m, torus, initial, settings, components, replica=r)

    return fork_join(run, n_replicas)


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
