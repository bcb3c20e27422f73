"""Event-driven sampler: determinism, exact laws on solvable cases, clock
scaling, guards, event statistics, the loop's incremental state, the
ensemble estimators, and the replica runner."""

import inspect
import math
import os
import pickle
import signal
import subprocess
import sys
import threading
import time
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy import stats

import coupledbd
from coupledbd import errors
from coupledbd.errors import ExplosionGuardError, ModelError
from coupledbd.geometry import MarkedConfiguration, Torus
from coupledbd.models import (
    AveragedModel,
    BranchingInGlauber,
    GlauberGlauber,
    averaged_death_vector,
    birth_proposal,
    build_averaged_model,
    env_death_vector,
    rate_form,
    sys_death_vector,
)
from coupledbd.potentials import Potential
from coupledbd.simulate import (
    COMPONENTS,
    SimulationSettings,
    _EnvPath,
    _RECOMPUTE_FLOOR,
    _PairState,
    _loop,
    acceptance_ratio,
    estimate_density,
    poisson_configuration,
    poisson_pair,
    replica_rng,
    replicate,
    simulate,
)
from coupledbd.tables import CorrelationTable, GridSpec

from conftest import (
    ALL_MODELS,
    TORUS1,
    assert_no_child_left,
    bdlp_model,
    gg_model,
    marked,
    random_marked,
)


def _free_env(z_minus=0.5, z_plus=0.3):
    zero = Potential.zero()
    return GlauberGlauber(z_minus=z_minus, psi=zero, z_plus=z_plus,
                          phi_minus=zero, phi_plus=zero)


def _empty():
    return marked([], [])


def test_same_seed_reproduces_the_trajectory():
    s = SimulationSettings(t_end=5.0, master_seed=101,
                           record_times=(0.0, 1.0, 2.5, 5.0))
    a = simulate(gg_model(), TORUS1, _empty(), s)
    b = simulate(gg_model(), TORUS1, _empty(), s)
    assert np.array_equal(a.plus_counts, b.plus_counts)
    assert np.array_equal(a.minus_counts, b.minus_counts)
    assert a.events == b.events and a.virtual_events == b.virtual_events
    assert np.array_equal(a.final.plus.points, b.final.plus.points)
    assert np.array_equal(a.final.minus.points, b.final.minus.points)


def test_replicas_use_distinct_streams():
    s = SimulationSettings(t_end=5.0, master_seed=101)
    a = simulate(_free_env(), TORUS1, _empty(), s, replica=0)
    b = simulate(_free_env(), TORUS1, _empty(), s, replica=1)
    assert a.events != b.events or not np.array_equal(
        a.final.minus.points, b.final.minus.points)
    # the helper stream is the one the loop consumes
    r1 = replica_rng(101, 3).uniform()
    r2 = replica_rng(101, 3).uniform()
    assert r1 == r2


def test_scalar_uniforms_are_scaled_standard_draws():
    # the loop and the proposals draw a uniform on [0, b) as b * random();
    # numpy computes uniform(0, b) as 0 + b * random(), so both are one
    # draw of the stream with the same value, and the draws do not move
    for b in (1e-300, 0.3, 7.0, 1e12):
        rng, ref = replica_rng(101, 3), replica_rng(101, 3)
        for _ in range(200):
            assert b * rng.random() == ref.uniform(0.0, b)
        for dim in (1, 2, 3):
            np.testing.assert_array_equal(b * rng.random(dim),
                                          ref.uniform(0.0, b, size=(1, dim))[0])
        assert rng.random() == ref.uniform()


def test_immigration_death_relaxation_curve():
    # environment alone with no interaction: counts are Poisson with mean
    # z * volume * (1 - exp(-t)) at every time
    z = 0.5
    times = (0.5, 1.0, 2.0, 4.0)
    s = SimulationSettings(t_end=4.0, master_seed=2024, record_times=times)
    recs = replicate(_free_env(z_minus=z), TORUS1, lambda rng: _empty(), s,
                     n_replicas=150, components=("environment",))
    est = estimate_density(recs, TORUS1)
    for j, t in enumerate(times):
        target = z * (1.0 - math.exp(-t))
        assert abs(est.mean_minus[j] - target) <= 4.0 * est.se_minus[j] + 1e-9
    assert np.all(est.mean_plus == 0.0)
    assert est.n_replicas == 150


def test_record_times_are_honored():
    init = marked([1.0, 3.0], [5.0])
    times = (0.0, 0.1, 7.0)
    s = SimulationSettings(t_end=7.0, master_seed=5, record_times=times)
    rec = simulate(_free_env(), TORUS1, init, s, components=("environment",))
    assert np.array_equal(rec.times, np.array(times))
    assert rec.plus_counts[0] == 2 and rec.minus_counts[0] == 1
    # frozen component never moves
    assert np.all(rec.plus_counts == 2)
    assert rec.final.plus.size == 2
    assert np.array_equal(rec.final.plus.points, init.plus.points)


def test_settings_validation():
    with pytest.raises(ValueError):
        SimulationSettings(t_end=-1.0)
    with pytest.raises(ValueError):
        SimulationSettings(t_end=1.0, epsilon=0.0)
    with pytest.raises(ValueError):
        SimulationSettings(t_end=1.0, record_times=(0.5, 0.2))
    with pytest.raises(ValueError):
        SimulationSettings(t_end=1.0, record_times=(0.5, 2.0))
    with pytest.raises(ValueError):
        SimulationSettings(t_end=1.0, max_events=0)
    with pytest.raises(ValueError):
        simulate(gg_model(), TORUS1, _empty(),
                 SimulationSettings(t_end=0.5), components=("both",))


def test_event_budget_guard_trips():
    s = SimulationSettings(t_end=50.0, master_seed=1, max_events=20)
    with pytest.raises(ExplosionGuardError):
        simulate(_free_env(z_minus=2.0), TORUS1, _empty(), s,
                 components=("environment",))


def test_population_guard_trips():
    s = SimulationSettings(t_end=50.0, master_seed=1, max_particles=5)
    with pytest.raises(ExplosionGuardError):
        simulate(_free_env(z_minus=2.0), TORUS1, _empty(), s,
                 components=("environment",))


def test_guard_errors_report_where_the_run_stopped():
    s = SimulationSettings(t_end=50.0, master_seed=1, max_events=20)
    with pytest.raises(ExplosionGuardError) as info:
        simulate(_free_env(z_minus=2.0), TORUS1, _empty(), s,
                 components=("environment",))
    assert info.value.events == 21
    assert 0.0 < info.value.time_reached < s.t_end

    s = SimulationSettings(t_end=50.0, master_seed=1, max_particles=5)
    with pytest.raises(ExplosionGuardError) as info:
        simulate(_free_env(z_minus=2.0), TORUS1, _empty(), s,
                 components=("environment",))
    assert info.value.events >= 6
    assert 0.0 < info.value.time_reached < s.t_end


def test_non_finite_rates_trip_the_guard():
    # exp(800) overflows: the two system points 0.2 apart have infinite
    # death rates, so the rate total is not finite before the first event
    zero = Potential.zero()
    m = BranchingInGlauber(z_minus=0.3, psi=zero, m_plus=1.0,
                           kappa=Potential.step(800, 1.0), phi=zero, a_plus=zero)
    with np.errstate(over="ignore"), pytest.raises(ExplosionGuardError) as info:
        simulate(m, TORUS1, marked([4.0, 4.2], []), SimulationSettings(t_end=1.0))
    assert "not finite" in str(info.value)
    assert info.value.time_reached == 0.0
    assert info.value.events == 0


def test_environment_clock_scales_with_epsilon():
    # free environment at stationarity: event rate 2 z V / epsilon
    z = 0.5
    totals = {}
    for eps in (1.0, 0.1):
        s = SimulationSettings(t_end=20.0, epsilon=eps, master_seed=99)
        recs = replicate(_free_env(z_minus=z), TORUS1,
                         lambda rng: _empty(), s, n_replicas=5,
                         components=("environment",))
        totals[eps] = sum(r.events for r in recs)
    ratio = totals[0.1] / totals[1.0]
    assert abs(ratio - 10.0) <= 1.5


def test_virtual_jumps_only_under_rejection():
    free = simulate(_free_env(), TORUS1, _empty(),
                    SimulationSettings(t_end=20.0, master_seed=7),
                    components=("environment",))
    assert free.virtual_events == 0
    hard = GlauberGlauber(z_minus=1.0, psi=Potential.step(2.0, 1.0),
                          z_plus=0.1, phi_minus=Potential.zero(),
                          phi_plus=Potential.zero())
    rep = simulate(hard, TORUS1, _empty(),
                   SimulationSettings(t_end=20.0, master_seed=7),
                   components=("environment",))
    assert rep.virtual_events > 0


def test_averaged_sampler_reproduces_the_uncoupled_system():
    # phi_minus = 0 decouples the system, so the averaged model (lambda = 1)
    # must generate the same trajectory from the same stream
    m = GlauberGlauber(z_minus=0.4, psi=Potential.zero(), z_plus=0.4,
                       phi_minus=Potential.zero(),
                       phi_plus=Potential.step(0.5, 1.0))
    grid = GridSpec(torus=TORUS1, points_per_axis=32)
    am = build_averaged_model(m, CorrelationTable.poisson(grid, 1, 0.7), TORUS1)
    assert am.lambda_bar == pytest.approx(1.0)
    s = SimulationSettings(t_end=8.0, master_seed=31,
                           record_times=(2.0, 4.0, 8.0))
    direct = simulate(m, TORUS1, _empty(), s, components=("system",))
    avg = simulate(am, TORUS1, _empty(), s, components=("system",))
    assert np.array_equal(direct.plus_counts, avg.plus_counts)
    assert np.array_equal(direct.final.plus.points, avg.final.plus.points)
    assert direct.events == avg.events


def test_averaged_model_rejects_environment_component():
    grid = GridSpec(torus=TORUS1, points_per_axis=32)
    am = build_averaged_model(gg_model(),
                              CorrelationTable.poisson(grid, 1, 0.5), TORUS1)
    with pytest.raises(ModelError):
        simulate(am, TORUS1, _empty(), SimulationSettings(t_end=1.0))


def test_poisson_configuration_sampling():
    rng = np.random.default_rng(11)
    counts = [poisson_configuration(rng, TORUS1, 1.5).size for _ in range(200)]
    mean = np.mean(counts)
    assert abs(mean - 15.0) <= 4.0 * math.sqrt(15.0 / 200.0)
    assert poisson_configuration(rng, TORUS1, 0.0).size == 0
    with pytest.raises(ValueError):
        poisson_configuration(rng, TORUS1, -1.0)


def test_the_pair_factory_draws_nothing_for_an_empty_component():
    # the ergodicity and averaged ensembles start one component at density
    # 0; its stream must be where drawing the other component alone leaves
    # it, since a moved draw changes every replica of both ensembles
    for densities in ((0.0, 1.5), (1.5, 0.0)):
        pair_rng, alone_rng = replica_rng(9, 2), replica_rng(9, 2)
        pair = poisson_pair(TORUS1, *densities)(pair_rng)
        alone = poisson_configuration(alone_rng, TORUS1, 1.5)
        empty, drawn = (pair.plus, pair.minus) if densities[0] == 0.0 else (pair.minus, pair.plus)
        assert empty.points.shape == (0, 1)
        assert np.array_equal(drawn.points, alone.points)
        assert np.array_equal(pair_rng.random(8), alone_rng.random(8))


def test_estimate_density_rejects_mismatched_records():
    s1 = SimulationSettings(t_end=1.0, master_seed=1, record_times=(0.5, 1.0))
    s2 = SimulationSettings(t_end=1.0, master_seed=1, record_times=(0.2, 1.0))
    a = simulate(_free_env(), TORUS1, _empty(), s1, components=("environment",))
    b = simulate(_free_env(), TORUS1, _empty(), s2, components=("environment",))
    with pytest.raises(ValueError):
        estimate_density([a, b], TORUS1)
    with pytest.raises(ValueError):
        estimate_density([], TORUS1)
    single = estimate_density([a], TORUS1)
    assert np.all(single.se_minus == 0.0)


def test_snapshots_match_recorded_counts():
    s = SimulationSettings(t_end=3.0, master_seed=17,
                           record_times=(1.0, 2.0, 3.0), keep_snapshots=True)
    recs = replicate(_free_env(), TORUS1, lambda rng: _empty(), s,
                     n_replicas=3, components=("environment",))
    for r in recs:
        assert len(r.snapshots) == 3
        for j, snap in enumerate(r.snapshots):
            assert snap.minus.size == r.minus_counts[j]
            assert snap.plus.size == r.plus_counts[j]


def test_replicate_assigns_replica_indices():
    s = SimulationSettings(t_end=2.0, master_seed=123)
    recs = replicate(gg_model(), TORUS1, lambda rng: _empty(), s, n_replicas=3)
    assert [r.replica for r in recs] == [0, 1, 2]
    again = replicate(gg_model(), TORUS1, lambda rng: _empty(), s, n_replicas=3)
    for a, b in zip(recs, again):
        assert a.events == b.events
        assert np.array_equal(a.final.minus.points, b.final.minus.points)


def test_records_count_events_per_component():
    init = marked([1.0, 4.0, 6.0], [2.0, 8.0])
    s = SimulationSettings(t_end=6.0, master_seed=13)
    rec = simulate(gg_model(), TORUS1, init, s)
    c = rec.counts
    assert sum(sum(k.values()) for k in c.values()) == rec.events
    assert c["system"]["virtual"] + c["environment"]["virtual"] == rec.virtual_events
    assert c["system"]["births"] - c["system"]["deaths"] == rec.final.plus.size - 3
    assert (c["environment"]["births"] - c["environment"]["deaths"]
            == rec.final.minus.size - 2)
    assert rec.peak_population >= max(5, rec.final.plus.size + rec.final.minus.size)
    frozen = simulate(gg_model(), TORUS1, init, s, components=("environment",))
    assert frozen.counts["system"] == {"births": 0, "deaths": 0, "virtual": 0}
    assert frozen.acceptance["system"] is None
    env = rec.acceptance["environment"]
    assert env == c["environment"]["births"] / (c["environment"]["births"]
                                                + c["environment"]["virtual"])
    assert 0.0 < env < 1.0
    assert acceptance_ratio({"births": 0, "deaths": 3, "virtual": 0}) is None


def test_small_populations_recompute_at_the_floor():
    # about six particles: a full recompute waits for _RECOMPUTE_FLOOR
    # accepted events rather than for the population size
    init = marked([1.0, 4.0, 7.0], [2.0, 5.0, 8.0])
    rec = simulate(gg_model(), TORUS1, init, SimulationSettings(t_end=150.0, master_seed=3))
    accepted = rec.events - rec.virtual_events
    assert rec.peak_population < _RECOMPUTE_FLOOR < accepted // 10
    # the initial build plus one per floor's worth of accepted events
    assert rec.recomputes == accepted // _RECOMPUTE_FLOOR + 1


# ---------------------------------------------------------------------------
# the loop's array state against a full recompute

def _averaged(build):
    grid = GridSpec(torus=TORUS1, points_per_axis=32)
    return build_averaged_model(build(), CorrelationTable.poisson(grid, 2, 0.5), TORUS1)


def _branching_past_the_float_range():
    # exp(800) overflows and exp(-800) underflows: a system point crowded by
    # a neighbour (kappa) or damped by an environment point (phi) must get
    # its plain rates back once that neighbour leaves
    big = Potential.step(800.0, 1.0)
    return BranchingInGlauber(z_minus=0.3, psi=Potential.step(0.5, 1.0), m_plus=2.0,
                              kappa=big, phi=big, a_plus=Potential.step(1.0, 1.0))


STATE_MODELS = (ALL_MODELS + [lambda b=b: _averaged(b) for b in ALL_MODELS]
                + [_branching_past_the_float_range])
STATE_IDS = ([b.__name__ for b in ALL_MODELS] + [f"averaged_{b.__name__}" for b in ALL_MODELS]
             + ["branching_past_the_float_range"])


def _assert_state_matches_recompute(state, m, torus, rng):
    pair = state.configuration()
    for k, name in enumerate(COMPONENTS):
        if state.forms[k] is None:
            continue
        if k == 1:
            want = env_death_vector(pair.minus, m, torus)
        elif isinstance(m, AveragedModel):
            want = averaged_death_vector(pair.plus, m, torus)
        else:
            want = sys_death_vector(pair, m, torus)
        np.testing.assert_allclose(state.death[k], want, rtol=1e-12, atol=0.0)
        assert state.death_total[k] == pytest.approx(float(np.sum(want)), rel=1e-12)
        prop = birth_proposal(name, pair, m, torus)
        got = state.proposals[k]
        assert got.total_mass == pytest.approx(prop.total_mass, rel=1e-12)
        assert state.birth_mass[k] == pytest.approx(prop.total_mass, rel=1e-12)
        for g, h in zip(got.groups, prop.groups):
            np.testing.assert_allclose(g.masses, h.masses, rtol=1e-12, atol=0.0)
            np.testing.assert_array_equal(g.parents, h.parents)
        # the loop keeps a proposal until its masses move, so its acceptance
        # must read the points now, not those the proposal was built from
        for x in torus.uniform(rng, 3):
            assert state.acceptance(k, x)[0] == pytest.approx(prop.acceptance(x),
                                                              rel=1e-12, abs=0.0)


def test_a_birth_on_a_point_is_refused_exactly_with_the_acceptance_row():
    # add reads the acceptance's squared distances for its coincidence check:
    # a zero there is not enough (1e-170 apart squares to 0), equality is
    state = _PairState(gg_model(), TORUS1, marked([0.0, 4.0], [6.0]), COMPONENTS)
    near = np.array([1e-170])
    _, row = state.acceptance(0, near)
    assert row is not None and row[0] == 0.0
    state.add(0, near, row)
    assert len(state.points[0]) == 3
    for x in (np.array([4.0]), near):
        _, row = state.acceptance(0, x)
        with pytest.raises(ValueError, match="coincident"):
            state.add(0, x, row)
        with pytest.raises(ValueError, match="coincident"):
            state.add(0, x)
    assert len(state.points[0]) == 3


@pytest.mark.parametrize("build", STATE_MODELS, ids=STATE_IDS)
@given(dim=st.sampled_from([1, 2]),
       steps=st.lists(st.tuples(st.booleans(), st.integers(0, 1), st.floats(0.0, 1.0)),
                      min_size=1, max_size=30),
       seed=st.integers(0, 10**6))
def test_incremental_state_matches_a_full_recompute(build, dim, steps, seed):
    # a small box keeps most pairs within interaction range
    torus = Torus(dim=dim, side=2.5)
    m = build()
    averaged = isinstance(m, AveragedModel)
    rng = np.random.default_rng(seed)
    init = random_marked(rng, torus, 4, 4)
    components = ("system",) if averaged else COMPONENTS
    state = _PairState(m, torus, init, components)
    for add, k, frac in steps:
        if averaged:
            k = 0
        n = len(state.points[k])
        if add or n == 0:
            state.add(k, torus.uniform(rng, 1)[0])
        else:
            state.remove(k, min(int(frac * n), n - 1))
        _assert_state_matches_recompute(state, m, torus, rng)


# ---------------------------------------------------------------------------
# a free environment coupled to a system that reads it only in its birth
# acceptance: its path is drawn in bulk and only the system runs the loop,
# against it

def free_gg_model():
    return gg_model(psi_height=0.0)


def _joint(m, torus, init, s, replica=0):
    """The joint loop, in which every environment event is a loop event."""
    return _loop(m, torus, init, s, COMPONENTS, replica, replica_rng(s.master_seed, replica))


def _poisson_gof(counts, mu):
    """Chi-square p-value of counts against Poisson(mu), bins merged until
    each expects at least 5."""
    upper = max(int(counts.max()) + 1, int(mu + 10 * math.sqrt(mu)))
    probs = stats.poisson.pmf(np.arange(upper + 1), mu)
    probs[-1] += stats.poisson.sf(upper, mu)
    return _pooled_chi2_p(np.bincount(counts, minlength=upper + 1), probs * counts.size)


def _pooled_chi2_p(obs, expected):
    """Chi-square p-value of observed bin counts against expected ones,
    bins merged in order until each expects at least 5 (the leftover tail
    joins the last bin)."""
    bins, acc_o, acc_e = [], 0.0, 0.0
    for o, e in zip(obs, expected):
        acc_o, acc_e = acc_o + o, acc_e + e
        if acc_e >= 5.0:
            bins.append([acc_o, acc_e])
            acc_o = acc_e = 0.0
    bins[-1][0] += acc_o
    bins[-1][1] += acc_e
    o, e = np.array(bins).T
    return float(stats.chi2.sf(np.sum((o - e) ** 2 / e), len(bins) - 1))


def _two_sample_p(a, b):
    """Chi-square p-value that two integer samples share one law, on bins
    cut at the pooled sextiles."""
    edges = np.unique(np.quantile(np.concatenate([a, b]), np.linspace(0, 1, 7)[1:-1]))
    table = np.array([np.bincount(np.searchsorted(edges, x, side="right"),
                                  minlength=len(edges) + 1) for x in (a, b)])
    return float(stats.chi2_contingency(table[:, table.sum(axis=0) > 0])[1])


def test_bulk_path_and_joint_loop_agree_in_law():
    # the environment fills an empty box, so reading it at the wrong time
    # moves the system's law
    m = replace(free_gg_model(), z_minus=1.0)
    init = marked([1.0, 4.0, 6.0], [])
    bulk_s = SimulationSettings(t_end=2.0, epsilon=0.5, master_seed=8100)
    joint_s = replace(bulk_s, master_seed=8200)
    bulk = [simulate(m, TORUS1, init, bulk_s, replica=r) for r in range(250)]
    joint = [_joint(m, TORUS1, init, joint_s, r) for r in range(250)]
    env = [np.array([r.final.minus.size for r in recs]) for recs in (bulk, joint)]
    assert _two_sample_p(*env) > 1e-3
    sys_b, sys_j = (np.array([r.final.plus.size for r in recs], float) for recs in (bulk, joint))
    se = math.sqrt(sys_b.var(ddof=1) / sys_b.size + sys_j.var(ddof=1) / sys_j.size)
    assert abs(sys_b.mean() - sys_j.mean()) <= 4.0 * se
    # the environment draws no virtual event on either path
    assert all(r.counts["environment"]["virtual"] == 0 for r in bulk + joint)


def test_bulk_path_reproduces_the_poisson_law_of_the_environment():
    # criterion 4's model, with the system evolving too: the environment
    # still ignores it, so its count is Poisson(z V (1 - exp(-t))) at every t
    zero = Potential.zero()
    m = GlauberGlauber(z_minus=1.0, psi=zero, z_plus=0.1, phi_minus=zero, phi_plus=zero)
    times = (30.0, 35.0, 40.0, 45.0, 50.0)
    s = SimulationSettings(t_end=50.0, master_seed=424242, record_times=times)
    recs = replicate(m, TORUS1, lambda rng: _empty(), s, n_replicas=200)
    counts = np.concatenate([r.minus_counts for r in recs])
    assert _poisson_gof(counts, 10.0 * (1.0 - math.exp(-30.0))) > 0.01


def test_joint_loop_reproduces_the_poisson_law_of_a_free_environment():
    # simulate sends this coupled run to the bulk path; the joint loop,
    # which environment-only runs still take, must draw the same law
    zero = Potential.zero()
    m = GlauberGlauber(z_minus=1.0, psi=zero, z_plus=0.1, phi_minus=zero, phi_plus=zero)
    s = SimulationSettings(t_end=12.0, master_seed=424243, record_times=(8.0, 10.0, 12.0))
    counts = np.concatenate([_joint(m, TORUS1, _empty(), s, r).minus_counts
                             for r in range(150)])
    assert _poisson_gof(counts, 10.0 * (1.0 - math.exp(-8.0))) > 0.01


def test_the_environment_draws_the_hard_rod_law_on_a_ring():
    # psi = step(40, r) makes the environment a gas of hard rods of length r
    # on the ring of side L; its birth-death dynamics is reversible for the
    # Gibbs law P(N = n) ~ z^n / n! * L (L - n r)^(n - 1) for n >= 1 (Tonks)
    side, r, z = 5.0, 0.6, 3.0
    zero = Potential.zero()
    m = GlauberGlauber(z_minus=z, psi=Potential.step(40.0, r), z_plus=0.5,
                       phi_minus=zero, phi_plus=zero)
    s = SimulationSettings(t_end=6.0, master_seed=31337, record_times=(6.0,))
    recs = replicate(m, Torus(dim=1, side=side), lambda rng: _empty(), s,
                     n_replicas=1000, components=("environment",))
    counts = np.array([rec.minus_counts[0] for rec in recs])
    n = np.arange(int(side / r) + 1)
    weights = np.array([1.0] + [z ** k / math.factorial(k) * side * (side - k * r) ** (k - 1)
                                for k in n[1:]])
    obs = np.bincount(counts, minlength=n.size)
    assert obs.size == n.size  # no more rods than fit on the ring
    assert _pooled_chi2_p(obs, weights / weights.sum() * counts.size) > 1e-3


def test_a_system_in_a_frozen_environment_draws_its_poisson_law():
    # with phi_plus zero and the environment frozen, system births at x come
    # at rate z_plus exp(-U(x)) independently of the system, so from an
    # empty start the count at t is Poisson(z_plus (1 - e^{-t}) int e^{-U})
    zero, cutoff, height = Potential.zero(), 0.5, 1.0
    m = GlauberGlauber(z_minus=0.5, psi=zero, z_plus=1.5,
                       phi_minus=Potential.step(height, cutoff), phi_plus=zero)
    frozen = np.array([1.0, 1.6, 4.0, 7.2, 7.5])
    # U is height times the number of frozen points within the cutoff; it
    # is constant between the ends of their intervals, none of which wraps
    ends = np.sort(np.concatenate([frozen - cutoff, frozen + cutoff, [0.0, TORUS1.side]]))
    depth = np.sum(np.abs((ends[1:] + ends[:-1])[:, None] / 2 - frozen) <= cutoff, axis=1)
    t, n_rep = 3.0, 1000
    mu = 1.5 * (1.0 - math.exp(-t)) * float(np.sum(np.diff(ends) * np.exp(-height * depth)))
    s = SimulationSettings(t_end=t, master_seed=27182, record_times=(t,))
    recs = replicate(m, TORUS1, lambda rng: marked([], frozen), s, n_replicas=n_rep,
                     components=("system",))
    counts = np.array([rec.plus_counts[0] for rec in recs])
    assert all(np.array_equal(rec.final.minus.points[:, 0], frozen) for rec in recs)
    assert _poisson_gof(counts, mu) > 1e-3
    assert abs(counts.mean() - mu) <= stats.norm.isf(5e-4) * math.sqrt(mu / n_rep)


def test_bulk_path_records_keep_their_meaning():
    init = marked([1.0, 4.0, 6.0], [2.0, 8.0])
    s = SimulationSettings(t_end=6.0, epsilon=0.2, master_seed=13,
                           record_times=(0.0, 2.0, 4.0, 6.0), keep_snapshots=True)
    rec = simulate(free_gg_model(), TORUS1, init, s)
    c = rec.counts
    assert sum(sum(k.values()) for k in c.values()) == rec.events
    assert c["environment"]["virtual"] == 0
    assert c["environment"]["births"] > 0 and c["environment"]["deaths"] > 0
    assert (c["environment"]["births"] - c["environment"]["deaths"]
            == rec.final.minus.size - 2)
    assert c["system"]["births"] - c["system"]["deaths"] == rec.final.plus.size - 3
    for j, snap in enumerate(rec.snapshots):
        assert (snap.plus.size, snap.minus.size) == (rec.plus_counts[j], rec.minus_counts[j])
    assert np.array_equal(rec.snapshots[-1].minus.points, rec.final.minus.points)
    assert rec.peak_population >= max(rec.plus_counts + rec.minus_counts)


def test_path_points_alive_are_those_born_and_not_yet_dead():
    m = replace(free_gg_model(), z_minus=3.0)
    s = SimulationSettings(t_end=8.0, epsilon=0.3)
    path = _EnvPath(rate_form(m, "environment"), TORUS1, np.array([[2.0], [8.0]]), s,
                    np.random.default_rng(5))
    assert np.all(np.diff(path.born) >= 0) and path.born[-1] <= s.t_end
    for t in np.concatenate([[0.0], path.times[::7], path.dies[:3], [s.t_end]]):
        mask = (path.born <= t) & (path.dies > t)
        assert np.array_equal(path.alive(t), path.points[mask])
        assert len(path.alive(t)) == path.sizes[path.times.searchsorted(t, side="right")]


def test_a_system_that_reads_the_environment_in_its_sums_keeps_the_joint_loop():
    # the free environment enters the bdlp system's death sums and kernel
    # groups, so simulate runs both components through the loop
    m = replace(bdlp_model(), psi=Potential.zero())
    init = marked([1.0, 4.0, 6.0], [2.0, 8.0])
    s = SimulationSettings(t_end=5.0, master_seed=21)
    a, b = simulate(m, TORUS1, init, s), _joint(m, TORUS1, init, s)
    assert (a.events, a.counts) == (b.events, b.counts)
    assert np.array_equal(a.final.minus.points, b.final.minus.points)


@pytest.mark.parametrize("z_minus", [1e12, 1e20])
def test_bulk_path_guards_trip_before_the_whole_path_is_drawn(z_minus):
    # 5e14 arrivals by t_end or more: the path could not be drawn whole
    m = replace(free_gg_model(), z_minus=z_minus)
    tracemalloc.start()
    try:
        s = SimulationSettings(t_end=50.0, master_seed=1, max_events=20)
        with pytest.raises(ExplosionGuardError) as info:
            simulate(m, TORUS1, _empty(), s)
        assert info.value.events == 21
        assert 0.0 < info.value.time_reached < 1e-9
        s = SimulationSettings(t_end=50.0, master_seed=1, max_particles=30)
        with pytest.raises(ExplosionGuardError) as info:
            simulate(m, TORUS1, _empty(), s)
        assert info.value.events >= 31
        assert 0.0 < info.value.time_reached < 1e-9
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2 ** 20


# Guards on the bulk path, pinned: a busy free environment (about 30 path
# changes between two system events) with seeds 0-19.  The population guard
# trips at a change of the path, inside a stretch of it; the event budget
# trips after 300 events; and the peaks of unguarded runs.
BULK_POPULATION_TRIPS = {
    1: (0.40567024667394885, 67),
    3: (2.9665352523540762, 610),
    4: (1.4244316538056954, 253),
    5: (1.657352464155636, 314),
    8: (1.6331579287085725, 316),
    10: (0.9154766704026474, 159),
    11: (1.603973693304226, 335),
    12: (1.634778369944668, 335),
    14: (1.0873764469033584, 194),
    16: (0.9649326349565961, 188),
    17: (0.934410735292639, 161),
    18: (2.25401718578809, 423),
    19: (0.936191227563877, 185),
}
BULK_BUDGET_TRIPS = (
    1.8379980413788235, 1.5811669723470974, 1.5045903943216399,
    1.6209965954151975, 1.6059598705703904, 1.560821687104581,
    1.5769259065782713, 1.5390528574491393, 1.5756109663568874,
    1.5576964682943222, 1.5197513216997025, 1.4852920949157336,
    1.5218913791073445, 1.5396802165914942, 1.526059319273644,
    1.617023821211755, 1.4332324680818609, 1.532425268371578,
    1.7482894636762223, 1.5143695271299982,
)
# (peak_population, events) to t_end
BULK_PEAKS = (
    (29, 523), (32, 609), (30, 582), (31, 614), (34, 603),
    (32, 589), (27, 580), (27, 605), (31, 588), (26, 576),
    (31, 584), (40, 664), (35, 621), (25, 532), (34, 554),
    (29, 545), (35, 610), (33, 562), (31, 578), (32, 588),
)


def test_bulk_path_guards_and_peaks_are_pinned():
    m = replace(free_gg_model(), z_minus=2.0)
    init = marked([1.0, 4.0, 6.0], [2.0, 5.0, 8.0])
    base = SimulationSettings(t_end=3.0, epsilon=0.2)

    def trip(s):
        try:
            simulate(m, TORUS1, init, s)
        except ExplosionGuardError as e:
            return str(e), e.time_reached, e.events
        return None

    for seed in range(20):
        s = replace(base, master_seed=seed, max_particles=30)
        got = trip(s)
        if seed not in BULK_POPULATION_TRIPS:
            assert got is None
        else:
            t, events = BULK_POPULATION_TRIPS[seed]
            assert got == (f"population 31 exceeds 30 at t={t:.6g} after {events} events",
                           t, events)
            path = _EnvPath(rate_form(m, "environment"), TORUS1, init.minus.points, s,
                            replica_rng(seed, 0))
            assert t in path.times  # at a change of the path, not at a system event
        t = BULK_BUDGET_TRIPS[seed]
        assert trip(replace(base, master_seed=seed, max_events=300)) == (
            f"event budget 300 exhausted at t={t:.6g}", t, 301)
        rec = simulate(m, TORUS1, init, replace(base, master_seed=seed))
        assert (rec.peak_population, rec.events) == BULK_PEAKS[seed]


def test_bulk_path_guards_trip_at_their_bound_wherever_it_falls():
    # every budget and every cap below the peak, so some bounds fall on the
    # last change of a stretch of the path and some inside one
    m = replace(free_gg_model(), z_minus=2.0)
    init = marked([1.0, 4.0, 6.0], [2.0, 5.0, 8.0])
    base = SimulationSettings(t_end=0.6, epsilon=0.2, master_seed=2)
    free = simulate(m, TORUS1, init, base)
    assert sum(free.counts["system"].values()) >= 5  # so the path runs in stretches
    times = []
    for budget in range(1, free.events):
        with pytest.raises(ExplosionGuardError) as info:
            simulate(m, TORUS1, init, replace(base, max_events=budget))
        assert info.value.events == budget + 1
        times.append(info.value.time_reached)
    assert times == sorted(times)
    for cap in range(6, free.peak_population):
        with pytest.raises(ExplosionGuardError) as info:
            simulate(m, TORUS1, init, replace(base, max_particles=cap))
        assert str(info.value).startswith(f"population {cap + 1} exceeds {cap} ")
    simulate(m, TORUS1, init, replace(base, max_particles=free.peak_population))


def test_bulk_path_trips_the_guard_on_an_infinite_activity():
    m = replace(free_gg_model(), z_minus=math.inf)
    with pytest.raises(ExplosionGuardError) as info:
        simulate(m, TORUS1, _empty(), SimulationSettings(t_end=5.0, master_seed=1))
    assert (info.value.time_reached, info.value.events) == (0.0, 0)


# ---------------------------------------------------------------------------
# fixed-seed trajectories, pinned
#
# The loop's bookkeeping (when it recomputes, which proposals it rebuilds,
# how its arrays are stored) may change without moving a single random
# draw, so these values hold across such changes.  Keying the replica
# streams differently moves them, and drawing a free environment's path in
# another order moves the free_* entries.

PIN_TORI = {1: TORUS1, 2: Torus(dim=2, side=3.0)}
PIN_MODELS = {b.__name__: b for b in ALL_MODELS + [free_gg_model]}
# (events, virtual_events, final system size, final environment size,
#  {component: (births, deaths, virtual)})
PINNED_TRAJECTORIES = {
    'gg_model_1d': (316, 39, 3, 4, {'system': (64, 66, 26), 'environment': (73, 74, 13)}),
    'gg_model_2d': (289, 60, 3, 0, {'system': (39, 41, 35), 'environment': (72, 77, 25)}),
    'averaged_gg_model_1d': (104, 6, 1, 0, {'system': (47, 51, 6), 'environment': (0, 0, 0)}),
    'averaged_gg_model_2d': (85, 4, 0, 0, {'system': (38, 43, 4), 'environment': (0, 0, 0)}),
    'bdlp_model_1d': (214, 17, 0, 3, {'system': (28, 33, 0), 'environment': (67, 69, 17)}),
    'bdlp_model_2d': (220, 37, 0, 3, {'system': (32, 37, 0), 'environment': (56, 58, 37)}),
    'averaged_bdlp_model_1d': (154, 0, 1, 0, {'system': (75, 79, 0), 'environment': (0, 0, 0)}),
    'averaged_bdlp_model_2d': (93, 0, 2, 0, {'system': (45, 48, 0), 'environment': (0, 0, 0)}),
    'branching_model_1d': (141, 16, 0, 1, {'system': (0, 5, 0), 'environment': (58, 62, 16)}),
    'branching_model_2d': (147, 17, 0, 2, {'system': (0, 5, 0), 'environment': (61, 64, 17)}),
    'averaged_branching_model_1d': (7, 0, 0, 0, {'system': (1, 6, 0), 'environment': (0, 0, 0)}),
    'averaged_branching_model_2d': (7, 0, 0, 0, {'system': (1, 6, 0), 'environment': (0, 0, 0)}),
    'two_bdlp_model_1d': (462, 0, 3, 9, {'system': (42, 44, 0), 'environment': (190, 186, 0)}),
    'two_bdlp_model_2d': (378, 0, 2, 8, {'system': (28, 31, 0), 'environment': (161, 158, 0)}),
    'averaged_two_bdlp_model_1d': (67, 0, 2, 0, {'system': (32, 35, 0), 'environment': (0, 0, 0)}),
    'averaged_two_bdlp_model_2d': (67, 0, 0, 0, {'system': (31, 36, 0), 'environment': (0, 0, 0)}),
    # a free environment's path is drawn in bulk before the system's loop
    'free_gg_model_1d': (332, 24, 3, 3, {'system': (58, 60, 24), 'environment': (94, 96, 0)}),
    'free_gg_model_2d': (276, 42, 0, 2, {'system': (32, 37, 42), 'environment': (81, 84, 0)}),
}


@pytest.mark.parametrize("case", sorted(PINNED_TRAJECTORIES))
def test_fixed_seed_trajectories_are_pinned(case):
    averaged = case.startswith("averaged_")
    name, dim = case.removeprefix("averaged_").rsplit("_", 1)
    dim = int(dim[0])
    torus = PIN_TORI[dim]
    m = PIN_MODELS[name]()
    components = COMPONENTS
    if averaged:
        grid = GridSpec(torus=torus, points_per_axis=16)
        m = build_averaged_model(m, CorrelationTable.poisson(grid, 2, 0.5), torus)
        components = ("system",)
    init = random_marked(np.random.default_rng(dim), torus, 5, 0 if averaged else 5)
    rec = simulate(m, torus, init, SimulationSettings(t_end=30.0, master_seed=77), components)
    got = (rec.events, rec.virtual_events, rec.final.plus.size, rec.final.minus.size,
           {c: tuple(rec.counts[c].values()) for c in COMPONENTS})
    assert got == PINNED_TRAJECTORIES[case]


# ---------------------------------------------------------------------------
# the replica runner: replicas split across forked workers give the records
# of per-replica simulate calls, whatever the number of CPUs

def _by_hand(m, factory, s, n, components=COMPONENTS):
    return [simulate(m, TORUS1, factory(replica_rng(s.master_seed ^ 0x5DEECE66D, r)), s,
                     components, replica=r) for r in range(n)]


def _assert_same_records(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        for name in ("times", "plus_counts", "minus_counts"):
            assert np.array_equal(getattr(a, name), getattr(b, name))
        for name in ("events", "virtual_events", "replica", "counts", "peak_population",
                     "recomputes"):
            assert getattr(a, name) == getattr(b, name)
        for x, y in zip([a.final] + a.snapshots, [b.final] + b.snapshots):
            assert np.array_equal(x.plus.points, y.plus.points)
            assert np.array_equal(x.minus.points, y.minus.points)
        assert len(a.snapshots) == len(b.snapshots)


def _random_start(rng):
    return random_marked(rng, TORUS1, 4, 4)


RUNNER_CASES = {
    "joint_loop": (gg_model, COMPONENTS),
    "bulk_path": (free_gg_model, COMPONENTS),
    "averaged": (lambda: _averaged(gg_model), ("system",)),
}


@pytest.mark.parametrize("case", sorted(RUNNER_CASES))
def test_replicate_equals_per_replica_simulate_calls(case):
    build, components = RUNNER_CASES[case]
    m = build()
    s = SimulationSettings(t_end=6.0, epsilon=0.5, master_seed=61,
                           record_times=(0.0, 2.0, 4.0, 6.0), keep_snapshots=True)
    want = _by_hand(m, _random_start, s, 5, components)
    _assert_same_records(replicate(m, TORUS1, _random_start, s, 5, components), want)
    assert_no_child_left()


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="no CPU affinity")
def test_replicate_on_one_cpu_gives_the_same_records():
    s = SimulationSettings(t_end=6.0, master_seed=62, record_times=(3.0, 6.0),
                           keep_snapshots=True)
    spread = replicate(gg_model(), TORUS1, _random_start, s, 4)
    cpus = os.sched_getaffinity(0)
    try:
        os.sched_setaffinity(0, {min(cpus)})
        one = replicate(gg_model(), TORUS1, _random_start, s, 4)
    finally:
        os.sched_setaffinity(0, cpus)
    _assert_same_records(spread, one)
    assert_no_child_left()


def test_replicate_raises_the_lowest_failing_replicas_error():
    # at seed 18 a budget of 100 events stops some replicas but not replica 0
    s = SimulationSettings(t_end=10.0, master_seed=18, max_events=100)
    failing = []
    for r in range(5):
        init = _random_start(replica_rng(s.master_seed ^ 0x5DEECE66D, r))
        try:
            simulate(gg_model(), TORUS1, init, s, replica=r)
        except ExplosionGuardError as e:
            failing.append((r, e))
    assert 0 < failing[0][0] and len(failing) < 5
    want = failing[0][1]
    with pytest.raises(ExplosionGuardError) as got:
        replicate(gg_model(), TORUS1, _random_start, s, 5)
    assert type(got.value) is type(want)
    assert str(got.value) == str(want)
    assert (got.value.time_reached, got.value.events) == (want.time_reached, want.events)
    assert_no_child_left()


def test_replicate_interrupted_in_this_process_leaves_no_child():
    parent = os.getpid()

    def factory(rng):
        if os.getpid() == parent:
            raise KeyboardInterrupt
        return _empty()

    with pytest.raises(KeyboardInterrupt):
        replicate(gg_model(), TORUS1, factory, SimulationSettings(t_end=50.0), 4)
    assert_no_child_left()


@pytest.mark.skipif(len(getattr(os, "sched_getaffinity", lambda _: ())(0)) < 2,
                    reason="the replicas run in this process")
def test_replicate_reports_a_worker_that_died_without_a_result():
    parent = os.getpid()

    def factory(rng):
        if os.getpid() != parent:
            os._exit(3)
        return _empty()

    with pytest.raises(RuntimeError, match="without a result"):
        replicate(gg_model(), TORUS1, factory, SimulationSettings(t_end=1.0), 4)
    assert_no_child_left()


@pytest.mark.parametrize("forks", [0, 1])
def test_replicate_runs_the_shares_of_workers_it_could_not_fork(monkeypatch, forks):
    # three workers; fork gives out after `forks` children, as under a
    # process limit, and this process runs the shares left over
    real_fork, calls = os.fork, []

    def fork():
        calls.append(None)
        if len(calls) > forks:
            raise BlockingIOError(11, "Resource temporarily unavailable")
        return real_fork()

    s = SimulationSettings(t_end=4.0, master_seed=64, record_times=(2.0, 4.0),
                           keep_snapshots=True)
    want = _by_hand(gg_model(), _random_start, s, 5)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
    monkeypatch.setattr(os, "fork", fork)
    _assert_same_records(replicate(gg_model(), TORUS1, _random_start, s, 5), want)
    assert len(calls) == forks + 1
    assert_no_child_left()


def _running(pid):
    """Whether pid is a process that has not exited (a zombie has)."""
    try:
        with open(f"/proc/{pid}/stat") as f:
            return f.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False


@pytest.mark.skipif(len(getattr(os, "sched_getaffinity", lambda _: ())(0)) < 2
                    or not os.path.isdir("/proc/self"),
                    reason="the replicas run in this process, or no process table to read")
def test_a_worker_ends_when_the_process_that_forked_it_is_killed(tmp_path):
    # replica 1 runs in a forked worker and would run for hours; killing
    # the command process must end it too
    script = (
        "import os\n"
        "from conftest import TORUS1, gg_model, random_marked\n"
        "from coupledbd.simulate import SimulationSettings, replicate\n"
        "parent = os.getpid()\n"
        "def start(rng):\n"
        "    if os.getpid() != parent:\n"
        "        print(os.getpid(), flush=True)\n"
        "    return random_marked(rng, TORUS1, 4, 4)\n"
        "replicate(gg_model(), TORUS1, start,\n"
        "          SimulationSettings(t_end=1e9, max_events=10**15), 2)\n"
    )
    src = os.path.dirname(os.path.dirname(coupledbd.__file__))
    path = os.pathsep.join([src, os.path.dirname(__file__), os.environ.get("PYTHONPATH", "")])
    proc = subprocess.Popen([sys.executable, "-c", script], stdout=subprocess.PIPE,
                            text=True, env=dict(os.environ, PYTHONPATH=path))
    try:
        worker = int(proc.stdout.readline())
        assert _running(worker)
    finally:
        proc.kill()
        proc.wait()
        proc.stdout.close()
    deadline = time.monotonic() + 10.0
    while _running(worker) and time.monotonic() < deadline:
        time.sleep(0.05)
    try:
        assert not _running(worker)
    finally:
        if _running(worker):
            os.kill(worker, signal.SIGKILL)


def test_replicate_runs_serially_while_other_threads_run(monkeypatch):
    def no_fork():
        raise AssertionError("forked with another thread running")

    s = SimulationSettings(t_end=4.0, master_seed=63, record_times=(4.0,),
                           keep_snapshots=True)
    want = _by_hand(gg_model(), _random_start, s, 3)
    stop = threading.Event()
    other = threading.Thread(target=stop.wait, args=(30.0,))
    other.start()
    try:
        monkeypatch.setattr(os, "fork", no_fork)
        got = replicate(gg_model(), TORUS1, _random_start, s, 3)
    finally:
        stop.set()
        other.join(timeout=30.0)
    assert not other.is_alive()
    _assert_same_records(got, want)


def test_errors_survive_a_pickle_round_trip():
    # a replica's error crosses from its worker process as a pickle
    classes = [c for _, c in inspect.getmembers(errors, inspect.isclass)
               if c.__module__ == errors.__name__]
    assert errors.ExplosionGuardError in classes
    for cls in classes:
        back = pickle.loads(pickle.dumps(cls("went wrong at t=1.5")))
        assert type(back) is cls and back.args == ("went wrong at t=1.5",)
    guard = pickle.loads(pickle.dumps(
        errors.ExplosionGuardError("budget exhausted", time_reached=2.5, events=40)))
    assert (str(guard), guard.time_reached, guard.events) == ("budget exhausted", 2.5, 40)
