"""Contraction constants, regime feasibility, and the numeric cross-checks
of the weighted expansion masses."""

import json
import math
import os
from dataclasses import replace

import numpy as np
import pytest

from coupledbd.conditions import (
    SpotCheckSettings,
    _closed_mass,
    averaged_constants,
    check_regime,
    domination_ratio,
    env_constants,
    growth_bounds,
    scan_feasible,
    sector_angle,
    spectral_gap,
    spot_check_regime,
    sys_constants,
)
from coupledbd.errors import ConfigError, EvaluationError
from coupledbd.geometry import FiniteConfiguration, MarkedConfiguration
from coupledbd.models import (
    ComponentForm,
    GlauberGlauber,
    _form_death_vector,
    env_death_vector,
    rate_form,
    sys_death_vector,
)
from coupledbd.potentials import Potential, potential_functionals

from coupledbd import conditions
from conftest import (
    ALL_MODELS,
    TORUS1,
    assert_no_child_left,
    bdlp_model,
    branching_model,
    gg_model,
    marked,
    step,
    two_bdlp_model,
)
from regime_golden import FACTORIES, REGIME, SPOT, SPOT_2D, SPOT_3D, SPOT_TORI


def _free_gg(z_minus, z_plus=0.1):
    zero = Potential.zero()
    return GlauberGlauber(z_minus=z_minus, psi=zero, z_plus=z_plus,
                          phi_minus=zero, phi_plus=zero)


def test_env_constant_matches_the_closed_formula():
    m = gg_model()                    # z = 0.3, psi = step 0.5 on [0, 1]
    beta = 2.0 * (1.0 - math.exp(-0.5))
    a = env_constants(m, 3.0, 1).a
    assert a == pytest.approx(1.0 + 0.1 * math.exp(3.0 * beta), rel=1e-12)
    assert a == pytest.approx(2.0599598, abs=1e-6)


def test_sys_constant_for_the_additive_variant():
    m = bdlp_model()                  # kernel masses 0.4, 0.6, 0.5, 0.3
    c = sys_constants(m, 2.0, 2.0, 1)
    bulk = (2.0 * 0.4 + 2.0 * 0.6 + 0.5 + 1.0 * 0.3) / m.m_plus
    assert bulk == pytest.approx(2.8, rel=1e-9)
    assert c.a == pytest.approx(1.0 + bulk, rel=1e-9)
    assert not c.feasible             # a >= 2
    assert c.details["theta"] == pytest.approx(0.5 / 0.6, rel=1e-9)
    assert c.details["vartheta"] == pytest.approx(0.75, rel=1e-9)


def test_two_bdlp_env_feasibility_window():
    m = two_bdlp_model()
    tight = env_constants(m, 2.0, 1)
    assert tight.a == pytest.approx(2.05, rel=1e-9)
    assert not tight.feasible
    ok = env_constants(m, 1.5, 1)
    assert ok.a == pytest.approx(1.0 + (1.5 * 0.3 + 0.5 / 1.5 + 0.2), rel=1e-9)
    assert ok.feasible


def test_pure_death_environment_relaxes_at_unit_rate():
    c = env_constants(_free_gg(0.0), 1.0, 1)
    assert c.a == 1.0
    assert spectral_gap(c.a, c.m_star) == 1.0


def test_glauber_feasibility_boundary_is_sharp():
    m_lo = gg_model(z_minus=0.45)
    m_hi = gg_model(z_minus=0.47)
    assert env_constants(m_lo, 1.0, 1).feasible
    assert not env_constants(m_hi, 1.0, 1).feasible


def test_free_environment_constant_decreases_in_the_weight():
    m = _free_gg(0.5)
    weights = [0.5, 1.0, 2.0, 5.0, 10.0]
    a_vals = [env_constants(m, c, 1).a for c in weights]
    assert all(a1 > a2 for a1, a2 in zip(a_vals, a_vals[1:]))
    gaps = [spectral_gap(a, 1.0) for a in a_vals]
    assert all(g1 < g2 for g1, g2 in zip(gaps, gaps[1:]))
    assert gaps[-1] == pytest.approx(1.0 - 0.5 / 10.0, rel=1e-12)


def test_spectral_gap_and_sector_angle_closed_forms():
    assert spectral_gap(1.5, 2.0) == pytest.approx(1.0)
    assert spectral_gap(2.0, 1.0) == 0.0
    assert spectral_gap(math.inf, 1.0) == 0.0
    assert sector_angle(0.9) == pytest.approx(math.pi / 4.0)
    assert sector_angle(1.9) == pytest.approx(math.acos(0.9), rel=1e-12)
    assert sector_angle(2.5) == 0.0


def test_domination_ratio_cases():
    s = Potential.step
    assert domination_ratio(s(2.0, 1.0), s(1.0, 1.0)) == pytest.approx(2.0)
    assert domination_ratio(s(1.0, 2.0), s(1.0, 1.0)) == math.inf
    assert domination_ratio(Potential.zero(), s(1.0, 1.0)) == 0.0
    assert domination_ratio(s(1.0, 1.0), Potential.zero()) == math.inf
    e = Potential.exponential(amplitude=1.0, decay=1.0, cutoff=1.0)
    assert domination_ratio(e, s(1.0, 1.0)) == pytest.approx(1.0, rel=1e-6)


def test_domination_ratio_past_the_float_range_is_infinite_without_a_warning():
    # a subnormal denominator value (a table entry of 5e-324) used to raise
    # "overflow encountered in divide", which -W error::RuntimeWarning makes
    # a traceback of the check command
    den = Potential.table(radii=[0.0, 0.5, 1.0], values=[1.0, 5e-324, 1.0])
    with np.errstate(all="raise"):
        assert domination_ratio(Potential.step(1.0, 1.0), den) == math.inf


def test_domination_violation_blocks_feasibility():
    m = bdlp_model()                  # theta = 0.833
    c = sys_constants(m, 0.5, 0.5, 1)
    assert not c.feasible


def test_growth_bounds_shapes():
    g = growth_bounds(gg_model(), 1)
    assert g["environment"].degree == 0 and g["environment"].exponent == 0.0
    b = growth_bounds(branching_model(), 1)
    assert b["system"].degree == 1
    assert b["system"].exponent == pytest.approx(0.2)


def test_death_masses_count_weighted_particles():
    eta = marked([1.0, 2.0], [4.0, 6.0, 8.0])
    assert np.sum(env_death_vector(eta.minus, gg_model(), TORUS1)) == 3.0
    assert np.sum(sys_death_vector(eta, gg_model(), TORUS1)) == 2.0
    t = two_bdlp_model()
    # additive death: m + pair interactions, summed over the particles
    val = np.sum(env_death_vector(marked([], [0.0, 0.2]).minus, t, TORUS1))
    assert val == pytest.approx(2.0 * t.m_minus + 2.0 * 0.3, rel=1e-9)


def _env_closed(m, eta_minus, c_minus):
    return _closed_mass(rate_form(m, "environment"), eta_minus,
                        FiniteConfiguration.empty(TORUS1.dim), c_minus, 1.0, TORUS1)


def _sys_closed(m, eta, c_minus, c_plus):
    return _closed_mass(rate_form(m, "system"), eta.plus, eta.minus, c_plus, c_minus, TORUS1)


def test_closed_masses_match_manual_formulas_on_singletons():
    x = FiniteConfiguration([[5.0]])
    m = gg_model()
    beta = 2.0 * (1.0 - math.exp(-0.5))
    got, exact = _env_closed(m, x, 3.0)
    assert exact
    assert got == pytest.approx(1.0 + 0.1 * math.exp(3.0 * beta), rel=1e-9)
    t = two_bdlp_model()
    got, exact = _env_closed(t, x, 2.0)
    assert exact
    assert got == pytest.approx((1.0 + 2.0 * 0.3) + (0.5 + 2.0 * 0.2) / 2.0,
                                rel=1e-9)
    eta = MarkedConfiguration(plus=x, minus=FiniteConfiguration.empty(1))
    got, exact = _sys_closed(bdlp_model(), eta, 2.0, 2.0)
    assert exact
    assert got == pytest.approx((1.0 + 2.0 * 0.6 + 2.0 * 0.4)
                                + (2.0 * 0.5 + 2.0 * 0.3) / 2.0, rel=1e-9)


def test_branching_closed_mass_is_flagged_inexact_with_environment():
    m = branching_model()
    eta = marked([1.0], [1.3])
    _, exact = _sys_closed(m, eta, 1.0, 1.0)
    assert not exact
    bare = marked([1.0, 1.4], [])
    _, exact = _sys_closed(m, bare, 1.0, 1.0)
    assert exact


def _masses(f, own, other, c_own, c_other, samples=4000):
    """(numeric, stderr, tail, closed, exact) of the expansion of f around own."""
    own, other = (FiniteConfiguration(np.reshape(p, (-1, 1))) if len(p)
                  else FiniteConfiguration.empty(1) for p in (own, other))
    num, err, tail = conditions._numeric_mass(f, own, other, c_own, c_other, TORUS1, 3,
                                              samples, lambda i, p: 41 + 7 * i + p)
    return (num, err, tail) + _closed_mass(f, own, other, c_own, c_other, TORUS1)


def _agree(num, err, tail, closed):
    return abs(num - closed) <= 4.0 * err + tail + 1e-9 * (1 + abs(closed))


def test_the_closed_mass_keeps_an_exponential_death_beside_an_exponential_birth():
    # no variant pairs these two parts; the closed mass used to count each
    # point's death at death_const and dropped death_pot: 3.78 against 9.90
    f = ComponentForm(death_const=1.0, birth_const=0.3, death_pot=step(0.4, 0.5),
                      birth_pot=step(0.5, 1.0))
    own = [1.0, 1.2, 1.4]
    num, err, tail, closed, exact = _masses(f, own, [], 0.8, 1.0)
    rates = _form_death_vector(f, np.reshape(own, (-1, 1)), np.zeros((0, 1)), TORUS1)
    death = math.exp(0.8 * potential_functionals(f.death_pot, 1).beta_neg) * float(np.sum(rates))
    assert death == pytest.approx(9.90, abs=0.01)
    assert exact and closed >= death
    assert _agree(num, err, tail, closed)


def test_numeric_masses_confirm_a_damped_parent_beside_a_cross_birth_kernel():
    f = ComponentForm(death_const=1.0, birth_const=0.2, death_kernel=step(0.3, 0.5),
                      birth_kernel=step(0.4, 0.6), birth_kernel_scale=0.7,
                      cross_birth_kernel=step(0.25, 0.5), parent_pot=step(0.5, 0.7))
    c_own, c_other = 0.8, 1.5
    beta_phi = 1.4 * (1.0 - math.exp(-0.5))
    num, err, tail, closed, exact = _masses(f, [1.0], [], c_own, c_other)
    # death: the rate 1 plus the own kernel mass; birth: immigration, the
    # cross kernel mass and the scaled kernel around a candidate parent, damped
    birth = (0.2 + c_other * 0.25 + 0.7 * c_own * 0.48 * math.exp(c_other * beta_phi)) / c_own
    assert exact
    assert closed == pytest.approx(1.0 + c_own * 0.3 + birth, rel=1e-12)
    assert _agree(num, err, tail, closed)
    # with an own parent, or with other points, the closed mass bounds it above
    for own, other in (([1.0, 1.3], []), ([1.0], [1.5, 0.6]), ([1.0, 1.3], [1.5, 0.6])):
        num, err, tail, closed, exact = _masses(f, own, other, c_own, c_other)
        assert not exact
        assert num <= closed + 4.0 * err
    num, err, tail, closed, exact = _masses(f, [1.0, 1.3], [], c_own, c_other)
    birth = (2 * (0.2 + c_other * 0.25)
             + 0.7 * (2 * 0.4 + 2 * c_own * 0.48) * math.exp(c_other * beta_phi)) / c_own
    assert closed == pytest.approx(2 * (1.3 + c_own * 0.3) + birth, rel=1e-12)
    # without the cross kernel the two parents' closed mass is exact
    num, err, tail, closed, exact = _masses(replace(f, cross_birth_kernel=None), [1.0, 1.3], [],
                                            c_own, c_other)
    assert exact and _agree(num, err, tail, closed)


@pytest.mark.parametrize("build", ALL_MODELS, ids=lambda b: b.__name__)
def test_numeric_masses_confirm_the_closed_forms(build):
    settings = SpotCheckSettings(samples=600, order_cap=3,
                                 configs_per_size=1, max_points=2, seed=3)
    report = spot_check_regime(build(), 2.0, 2.0, TORUS1, settings)
    assert report.ok
    assert all(r.ok_inequality for r in report.rows)
    for r in report.rows:
        if r.closed_exact:
            assert abs(r.numeric - r.closed) <= (
                settings.sigma * r.stderr + r.tail + 1e-9 * (1 + abs(r.closed)))


def test_spot_rows_with_an_infinite_bound_are_unchecked():
    # c_plus * beta_neg(kappa) is about 2.2e4, so a_sys, every system bound
    # and closed mass are infinite and no system row can be verified
    m = replace(branching_model(), kappa=Potential.step(10.0, 0.5))
    rep = check_regime(m, 1.0, 1.0, torus=TORUS1, spot=SpotCheckSettings(samples=100))
    env = [r for r in rep.spot.rows if r.component == "environment"]
    sys_ = [r for r in rep.spot.rows if r.component == "system"]
    assert len(env) == 6 and len(sys_) == 8
    assert all(r.ok_inequality is True and r.ok_equality is True for r in env)
    for r in sys_:
        assert r.bound == math.inf and math.isfinite(r.numeric)
        assert r.ok_inequality is None and r.ok_equality is None
    assert rep.spot.ok
    assert rep.summary_lines()[-1] == "spot check: ok (14 rows, 0 violations, 8 unchecked)"


def test_regime_report_aggregates_feasibility():
    rep = check_regime(gg_model(), 0.5, 1.0, dim=1)
    assert rep.variant == "glauber_glauber"
    assert rep.environment.feasible and rep.system.feasible
    assert rep.feasible
    assert rep.gap_env == pytest.approx(
        spectral_gap(rep.environment.a, 1.0), rel=1e-12)
    # integrating out a Glauber environment leaves the system constant alone
    avg = averaged_constants(gg_model(), 0.5, 1.0, 1)
    assert rep.averaged.a == pytest.approx(rep.system.a, rel=1e-12)
    assert avg.m_star == 1.0
    bad = check_regime(gg_model(z_minus=3.0), 1.0, 1.0, dim=1)
    assert not bad.feasible
    assert bad.gap_env == 0.0
    with pytest.raises(ConfigError):
        check_regime(gg_model(), 1.0, 1.0)


def test_regime_report_serializes_and_summarizes():
    rep = check_regime(gg_model(), 0.5, 1.0, dim=1)
    d = rep.as_dict()
    assert d["feasible"] is True
    assert d["variant"] == "glauber_glauber"
    lines = rep.summary_lines()
    assert any("environment" in ln for ln in lines)


# ---------------------------------------------------------------------------
# weight scanning

def test_scan_picks_the_largest_relaxation_rate():
    m = _free_gg(0.5)
    grid = list(range(1, 11))
    res = scan_feasible(m, 1, c_minus_grid=grid, c_plus_grid=grid)
    assert res.evaluated == 100
    assert res.best is not None
    assert res.best["c_minus"] == 10.0
    assert res.best["lambda0"] == pytest.approx(0.95, rel=1e-12)
    # lambda0 does not depend on c_plus, so the tie resolves downward
    assert res.best["c_plus"] == 1.0


def test_scan_breaks_full_ties_toward_small_weights():
    m = _free_gg(0.0)                 # a_env = 1 for every weight
    res = scan_feasible(m, 1, c_minus_grid=[4.0, 2.0, 8.0],
                        c_plus_grid=[3.0, 1.0])
    assert res.best["c_minus"] == 2.0
    assert res.best["c_plus"] == 1.0
    assert res.best["lambda0"] == pytest.approx(1.0)


def test_scan_result_is_grid_order_independent():
    m = gg_model()
    grid = [0.5, 1.0, 2.0, 4.0, 8.0]
    a = scan_feasible(m, 1, c_minus_grid=grid, c_plus_grid=grid)
    b = scan_feasible(m, 1, c_minus_grid=grid[::-1], c_plus_grid=grid[::-1])
    assert a.best == b.best
    assert a.feasible_count == b.feasible_count


def test_scan_reports_infeasible_models_without_a_best_row():
    res = scan_feasible(gg_model(z_minus=50.0), 1,
                        c_minus_grid=[1.0, 2.0], c_plus_grid=[1.0])
    assert res.best is None
    assert res.feasible_count == 0
    assert all(not r["feasible"] for r in res.rows)


def _assert_matches(actual, expected, where="report"):
    """Equal structure, key order and values, floats to 1e-12."""
    if isinstance(expected, dict):
        assert list(actual) == list(expected), where
        for k in expected:
            _assert_matches(actual[k], expected[k], f"{where}.{k}")
    elif isinstance(expected, (list, tuple)):
        assert len(actual) == len(expected), where
        for i, (a, e) in enumerate(zip(actual, expected)):
            _assert_matches(a, e, f"{where}[{i}]")
    elif isinstance(expected, float) and not isinstance(actual, bool):
        assert math.isclose(actual, expected, rel_tol=1e-12, abs_tol=1e-12), where
    else:
        assert type(actual) is type(expected) and actual == expected, where


@pytest.mark.parametrize("key", list(REGIME), ids=lambda k: f"{k[0]}-{k[1]}-{k[2]}-{k[3]}")
def test_regime_report_is_pinned(key):
    name, c_minus, c_plus, rho_inv = key
    build = {b.__name__: b for b in FACTORIES}[name]
    got = check_regime(build(), c_minus, c_plus, dim=1, rho_inv=rho_inv).as_dict()
    _assert_matches(got, REGIME[key])


@pytest.mark.parametrize(
    "build, dim",
    [pytest.param(b, 1, id=b.__name__) for b in FACTORIES]
    + [pytest.param(b, d, id=f"{b.__name__}-{d}d") for d in (2, 3) for b in FACTORIES])
def test_spot_check_rows_are_pinned(build, dim):
    spot = SpotCheckSettings(samples=200, max_points=2, configs_per_size=1)
    rows = check_regime(build(), 0.8, 1.5, torus=SPOT_TORI[dim], spot=spot).spot.rows
    got = [(r.component, r.n_plus, r.n_minus, r.numeric, r.stderr, r.tail,
            r.closed, r.closed_exact) for r in rows]
    _assert_matches(got, {1: SPOT, 2: SPOT_2D, 3: SPOT_3D}[dim][build.__name__])


def _spot_on_cpus(monkeypatch, cpus):
    """The spot report of gg_model with the rows spread over cpus workers."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
    settings = SpotCheckSettings(samples=300, seed=4)
    return spot_check_regime(gg_model(), 2.0, 2.0, TORUS1, settings)


@pytest.mark.skipif(not hasattr(os, "fork"), reason="the rows run in this process")
def test_spot_check_report_is_the_same_on_one_and_two_workers(monkeypatch):
    real_fork, forks = os.fork, []

    def fork():
        forks.append(None)
        return real_fork()

    monkeypatch.setattr(os, "fork", fork)
    one = _spot_on_cpus(monkeypatch, 1).as_dict()
    assert not forks
    two = _spot_on_cpus(monkeypatch, 2).as_dict()
    assert len(forks) == 1
    assert len(one["rows"]) == 14
    assert json.dumps(one, sort_keys=True) == json.dumps(two, sort_keys=True)
    assert_no_child_left()


def test_spot_check_raises_the_error_of_the_lowest_failing_row(monkeypatch):
    # the rows are told apart by the first seed of their Monte Carlo parts
    real, seeds = conditions._numeric_mass, []

    def recording(*args):
        seeds.append(args[-1](0, 0))
        return real(*args)

    monkeypatch.setattr(conditions, "_numeric_mass", recording)
    _spot_on_cpus(monkeypatch, 1)
    assert len(set(seeds)) == len(seeds) == 14
    failing = {seeds[3], seeds[4], seeds[9]}

    def failing_rows(*args):
        seed = args[-1](0, 0)
        if seed in failing:
            raise EvaluationError(f"row seeded {seed} failed")
        return real(*args)

    monkeypatch.setattr(conditions, "_numeric_mass", failing_rows)
    for cpus in (1, 2, 3):
        with pytest.raises(EvaluationError, match=f"^row seeded {seeds[3]} failed$"):
            _spot_on_cpus(monkeypatch, cpus)
        assert_no_child_left()
