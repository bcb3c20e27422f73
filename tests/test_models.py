"""Rate models: kernel decompositions, death vectors, birth proposals,
and the environment-averaged reduction."""

import itertools
import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from coupledbd.errors import ModelError
from coupledbd.geometry import (
    FiniteConfiguration,
    MarkedConfiguration,
    Torus,
    pairwise_distances,
)
from coupledbd.models import (
    AveragedModel,
    BdlpInGlauber,
    BranchingInGlauber,
    ComponentForm,
    GlauberGlauber,
    _birth_acceptance,
    birth_proposal,
    build_averaged_model,
    component_form,
    averaged_death_vector,
    env_death_vector,
    rate_form,
    sys_death_vector,
    validate_model_on_torus,
    variant_name,
)
from coupledbd.potentials import Potential, potential_functionals
from coupledbd.tables import CorrelationTable, GridSpec, exp_mayer_functional

from conftest import (
    ALL_MODELS,
    TORUS1,
    bdlp_model,
    branching_model,
    gg_model,
    marked,
    random_marked,
    two_bdlp_model,
)
from rates_oracle import (
    _form_kernels,
    averaged_rates,
    decomposition_kernels,
    dominating_intensity,
    env_rates,
    sys_rates,
)


def _acceptance(m, component, gamma, x):
    """The acceptance that thins the proposal of birth_proposal(component,
    gamma, m), read on the points of gamma."""
    own, other = ((gamma.plus, gamma.minus) if component == "system"
                  else (gamma.minus, gamma.plus))
    return _birth_acceptance(rate_form(m, component), x, own.points, other.points, TORUS1)[0]


def _marked_subsets(eta):
    np_, nm = eta.plus.size, eta.minus.size
    for mp in range(1 << np_):
        ip = [i for i in range(np_) if mp >> i & 1]
        for mm in range(1 << nm):
            im = [i for i in range(nm) if mm >> i & 1]
            yield MarkedConfiguration(plus=FiniteConfiguration(eta.plus.points[ip]),
                                      minus=FiniteConfiguration(eta.minus.points[im]))


def _clustered_cases(rng, sizes):
    """(torus, x, eta) with every point of eta within 0.3 of x, on TORUS1 and
    on a small 2D torus.  Every pair term of the fixture models (cutoffs 0.5
    and 1) is then live, which points spread over TORUS1 rarely make them."""
    for torus in (TORUS1, Torus(dim=2, side=3.0)):
        half = 0.3 / math.sqrt(torus.dim)
        for n_plus, n_minus in sizes:
            x = torus.uniform(rng, 1)[0]
            plus, minus = (torus.wrap(x + rng.uniform(-half, half, (n, torus.dim)))
                           for n in (n_plus, n_minus))
            yield torus, x, marked(plus, minus, dim=torus.dim)


@pytest.mark.parametrize("build", ALL_MODELS, ids=lambda b: b.__name__)
def test_kernel_subset_sums_reproduce_the_rates(build):
    m = build()
    rng = np.random.default_rng(31)
    cases = []
    for n_plus, n_minus in [(0, 0), (1, 0), (0, 2), (2, 1), (2, 2), (1, 3)]:
        eta = random_marked(rng, TORUS1, n_plus, n_minus)
        cases.append((TORUS1, TORUS1.uniform(rng, 1)[0], eta))
    cases += _clustered_cases(rng, [(0, 1), (1, 0), (1, 1), (2, 1), (1, 3), (3, 2)])
    for torus, x, eta in cases:
        sums = np.zeros(4)
        for xi in _marked_subsets(eta):
            k = decomposition_kernels(m, x, xi, torus)
            # minus kernels must not double count over system subsets
            if xi.plus.size == 0:
                sums[0] += k[0]
                sums[1] += k[1]
            sums[2] += k[2]
            sums[3] += k[3]
        d_env, b_env = env_rates(x, eta.minus, m, torus)
        d_sys, b_sys = sys_rates(x, eta, m, torus)
        for got, want in zip(sums, (d_env, b_env, d_sys, b_sys)):
            assert got == pytest.approx(want, rel=1e-10, abs=1e-10)


def test_minus_kernels_ignore_system_points():
    rng = np.random.default_rng(8)
    for build in ALL_MODELS:
        m = build()
        eta = random_marked(rng, TORUS1, 2, 2)
        bare = MarkedConfiguration(plus=FiniteConfiguration.empty(1),
                                   minus=eta.minus)
        x = TORUS1.uniform(rng, 1)[0]
        full = decomposition_kernels(m, x, eta, TORUS1)
        stripped = decomposition_kernels(m, x, bare, TORUS1)
        assert full[0] == stripped[0]
        assert full[1] == stripped[1]


@pytest.mark.parametrize("build", ALL_MODELS, ids=lambda b: b.__name__)
def test_death_vectors_match_pointwise_rates(build):
    m = build()
    rng = np.random.default_rng(17)
    gamma = random_marked(rng, TORUS1, 4, 3)
    dm = env_death_vector(gamma.minus, m, TORUS1)
    for i in range(gamma.minus.size):
        rest = gamma.minus.remove_index(i)
        d, _ = env_rates(gamma.minus.points[i], rest, m, TORUS1)
        assert dm[i] == pytest.approx(d, rel=1e-12)
    dp = sys_death_vector(gamma, m, TORUS1)
    for i in range(gamma.plus.size):
        rest = MarkedConfiguration(plus=gamma.plus.remove_index(i),
                                   minus=gamma.minus)
        d, _ = sys_rates(gamma.plus.points[i], rest, m, TORUS1)
        assert dp[i] == pytest.approx(d, rel=1e-12)


def test_a_death_energy_past_the_float_range_gives_infinite_rates_silently():
    # exp(800) overflows; the infinite rate is what the event loop's guard
    # reads, so the overflow is intended and must not warn
    zero = Potential.zero()
    m = BranchingInGlauber(z_minus=0.3, psi=zero, m_plus=1.0,
                           kappa=Potential.step(800.0, 1.0), phi=zero, a_plus=zero)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        death = sys_death_vector(marked([4.0, 4.2, 7.0], []), m, TORUS1)
    assert death[0] == death[1] == math.inf
    assert death[2] == 1.0


def test_pointwise_death_rates_past_the_float_range_match_the_death_vector():
    zero = Potential.zero()
    m = BranchingInGlauber(z_minus=0.3, psi=zero, m_plus=1.0,
                           kappa=Potential.step(800.0, 1.0), phi=zero, a_plus=zero)
    assert list(sys_death_vector(marked([4.0, 4.2], []), m, TORUS1)) == [math.inf] * 2
    death, birth = sys_rates([4.0], marked([4.2], []), m, TORUS1)
    assert (death, birth) == (math.inf, 0.0)


@pytest.mark.parametrize("build", ALL_MODELS, ids=lambda b: b.__name__)
@pytest.mark.parametrize("component", ["environment", "system"])
def test_proposal_times_acceptance_equals_birth_density(build, component):
    m = build()
    rng = np.random.default_rng(23)
    gamma = random_marked(rng, TORUS1, 3, 3)
    prop = birth_proposal(component, gamma, m, TORUS1)
    for x in TORUS1.uniform(rng, 40):
        acc = _acceptance(m, component, gamma, x)
        assert 0.0 <= acc <= 1.0 + 1e-12
        dom = dominating_intensity(prop, x)
        if component == "environment":
            _, b = env_rates(x, gamma.minus, m, TORUS1)
        else:
            _, b = sys_rates(x, gamma, m, TORUS1)
        assert acc * dom == pytest.approx(b, rel=1e-10, abs=1e-10)


# Sides that fit every cutoff of the conftest models (at most 1) in the
# half box, small enough that many pairs of a few points interact.
TORI_2D_3D = (Torus(dim=2, side=2.5), Torus(dim=3, side=2.5))


def _model_on(build, averaged, torus):
    """The model of build, or its averaged model against a Poisson
    environment of density 0.5 tabulated on torus."""
    m = build()
    if not averaged:
        return m
    grid = GridSpec(torus=torus, points_per_axis={2: 16, 3: 12}[torus.dim])
    return build_averaged_model(m, CorrelationTable.poisson(grid, 2, 0.5), torus)


def _components(m, gamma, torus):
    """(component, own points, other points, death vector on gamma, rates
    at x given own points rest) for each component of m: the vectorised
    death vector and the pointwise rates of rates_oracle."""
    if isinstance(m, AveragedModel):
        return [("system", gamma.plus, gamma.minus, averaged_death_vector(gamma.plus, m, torus),
                 lambda x, rest: averaged_rates(x, rest, m, torus))]
    return [("environment", gamma.minus, gamma.plus, env_death_vector(gamma.minus, m, torus),
             lambda x, rest: env_rates(x, rest, m, torus)),
            ("system", gamma.plus, gamma.minus, sys_death_vector(gamma, m, torus),
             lambda x, rest: sys_rates(x, MarkedConfiguration(plus=rest, minus=gamma.minus),
                                       m, torus))]


@pytest.mark.parametrize("torus", TORI_2D_3D, ids=lambda t: f"{t.dim}d")
@pytest.mark.parametrize("averaged", [False, True], ids=["full", "averaged"])
@pytest.mark.parametrize("build", ALL_MODELS, ids=lambda b: b.__name__)
def test_death_vectors_and_proposals_match_pointwise_rates_in_2d_and_3d(build, averaged, torus):
    m = _model_on(build, averaged, torus)
    rng = np.random.default_rng(37)
    gamma = random_marked(rng, torus, 5, 0 if averaged else 4)
    for component, own, other, death, rates in _components(m, gamma, torus):
        for i in range(own.size):
            d, _ = rates(own.points[i], own.remove_index(i))
            assert death[i] == pytest.approx(d, rel=1e-12)
        prop = birth_proposal(component, gamma, m, torus)
        f = rate_form(m, component)
        for x in torus.uniform(rng, 20):
            acc = _birth_acceptance(f, x, own.points, other.points, torus)[0]
            assert 0.0 <= acc <= 1.0 + 1e-12
            _, b = rates(x, own)
            assert acc * dominating_intensity(prop, x) == pytest.approx(b, rel=1e-10, abs=1e-10)


def test_gg_environment_proposal_mass_is_activity_times_volume():
    m = gg_model()
    gamma = random_marked(np.random.default_rng(1), TORUS1, 0, 5)
    prop = birth_proposal("environment", gamma, m, TORUS1)
    assert prop.total_mass == pytest.approx(m.z_minus * TORUS1.volume, rel=1e-12)


def test_branching_candidates_stay_within_dispersal_range():
    m = branching_model()
    rng = np.random.default_rng(3)
    gamma = random_marked(rng, TORUS1, 1, 2)
    parent = gamma.plus.points[0]
    prop = birth_proposal("system", gamma, m, TORUS1)
    for _ in range(200):
        x = prop.sample_candidate(rng)
        assert x is not None
        d = pairwise_distances(x[None, :], parent[None, :], TORUS1)[0, 0]
        assert d <= m.a_plus.cutoff + 1e-9


def test_empty_proposal_yields_no_candidate():
    m = bdlp_model()
    gamma = MarkedConfiguration(plus=FiniteConfiguration.empty(1),
                                minus=FiniteConfiguration.empty(1))
    prop = birth_proposal("system", gamma, m, TORUS1)
    assert prop.total_mass == 0.0
    assert prop.sample_candidate(np.random.default_rng(0)) is None


def test_uniform_proposal_draws_like_the_grouped_path():
    # without kernel groups the selection over one mass is skipped, but its
    # uniform draw is still made, so the stream is that of the grouped path
    m = gg_model()
    prop = birth_proposal("environment", random_marked(np.random.default_rng(3), TORUS1, 2, 4),
                          m, TORUS1)
    assert not any(len(g.masses) for g in prop.groups)
    rng, ref = np.random.default_rng(8), np.random.default_rng(8)
    for _ in range(5):
        x = prop.sample_candidate(rng)
        ref.uniform(0.0, prop.total_mass)
        np.testing.assert_array_equal(x, TORUS1.uniform(ref, 1)[0])
    assert rng.uniform() == ref.uniform()


def test_candidates_pick_groups_and_parents_by_mass():
    # two groups (system parents under a_plus, environment parents under
    # b_plus) with unequal masses; parents lie apart by more than twice the
    # kernel range, so each candidate names its parent
    m = BdlpInGlauber(z_minus=0.3, psi=Potential.step(0.5, 1.0), m_plus=1.0,
                      a_minus=Potential.zero(), a_plus=Potential.step(0.5, 0.5),
                      b_minus=Potential.zero(), b_plus=Potential.step(0.2, 0.4))
    gamma = marked([1.0, 3.0, 5.0], [7.0, 9.0])
    prop = birth_proposal("system", gamma, m, TORUS1)
    assert [len(g.masses) for g in prop.groups] == [3, 2]
    parents = np.concatenate([gamma.plus.points, gamma.minus.points])
    masses = np.concatenate([g.masses for g in prop.groups])
    rng = np.random.default_rng(2024)
    n = 20_000
    xs = np.array([prop.sample_candidate(rng) for _ in range(n)])
    which = np.argmin(pairwise_distances(xs, parents, TORUS1), axis=1)
    observed = np.bincount(which, minlength=len(parents))
    expected = n * masses / masses.sum()
    chi2 = float(np.sum((observed - expected) ** 2 / expected))
    assert chi2 < 18.47  # 0.999 quantile of chi-square with 4 degrees of freedom


@given(st.integers(0, 4), st.integers(0, 4), st.integers(0, 10**6))
def test_rates_are_nonnegative(n_plus, n_minus, seed):
    rng = np.random.default_rng(seed)
    gamma = random_marked(rng, TORUS1, n_plus, n_minus)
    x = TORUS1.uniform(rng, 1)[0]
    for build in ALL_MODELS:
        m = build()
        d, b = env_rates(x, gamma.minus, m, TORUS1)
        assert d >= 0.0 and b >= 0.0
        d, b = sys_rates(x, gamma, m, TORUS1)
        assert d >= 0.0 and b >= 0.0


def test_validate_model_rejects_cutoff_beyond_half_box():
    m = gg_model()
    with pytest.raises(ModelError):
        validate_model_on_torus(m, Torus(dim=1, side=1.5))
    validate_model_on_torus(m, TORUS1)


def test_variant_names_are_stable():
    names = [variant_name(b()) for b in ALL_MODELS]
    assert names == ["glauber_glauber", "bdlp_in_glauber",
                     "branching_in_glauber", "two_bdlp"]


def test_rate_forms_are_the_declared_terms():
    g, b, r, t = gg_model(), bdlp_model(), branching_model(), two_bdlp_model()
    expected = {
        g: (ComponentForm(death_const=1.0, birth_const=g.z_minus, birth_pot=g.psi),
            ComponentForm(death_const=1.0, birth_const=g.z_plus,
                          birth_pot=g.phi_plus, cross_birth_pot=g.phi_minus)),
        b: (ComponentForm(death_const=1.0, birth_const=b.z_minus, birth_pot=b.psi),
            ComponentForm(death_const=b.m_plus, birth_const=0.0,
                          death_kernel=b.a_minus, birth_kernel=b.a_plus,
                          cross_death_kernel=b.b_minus, cross_birth_kernel=b.b_plus)),
        r: (ComponentForm(death_const=1.0, birth_const=r.z_minus, birth_pot=r.psi),
            ComponentForm(death_const=r.m_plus, birth_const=0.0, death_pot=r.kappa,
                          birth_kernel=r.a_plus, parent_pot=r.phi)),
        t: (ComponentForm(death_const=t.m_minus, birth_const=t.z,
                          death_kernel=t.a_minus, birth_kernel=t.a_plus),
            ComponentForm(death_const=t.m_plus, birth_const=0.0,
                          death_kernel=t.b_minus, birth_kernel=t.b_plus,
                          cross_death_kernel=t.vphi_minus,
                          cross_birth_kernel=t.vphi_plus)),
    }
    for m, (env, sys) in expected.items():
        assert rate_form(m, "environment") == env, variant_name(m)
        assert rate_form(m, "system") == sys, variant_name(m)
        for form in (rate_form(m, "environment"), rate_form(m, "system")):
            assert type(form.death_const) is float and type(form.birth_const) is float


@pytest.mark.parametrize("build, name, value", [
    (gg_model, "z_minus", -0.1),
    (gg_model, "z_plus", -1e-9),
    (bdlp_model, "z_minus", -1.0),
    (bdlp_model, "m_plus", 0.0),
    (branching_model, "m_plus", -2.0),
    (two_bdlp_model, "z", -0.5),
    (two_bdlp_model, "m_minus", 0.0),
    (two_bdlp_model, "m_plus", -1.0),
], ids=lambda v: getattr(v, "__name__", str(v)))
def test_an_invalid_activity_or_mass_raises_naming_the_field(build, name, value):
    with pytest.raises(ModelError, match=rf"^{name} must be "):
        replace(build(), **{name: value})


# ---------------------------------------------------------------------------
# environment-averaged reduction

def _poisson_table(rho, order=3, points=48):
    grid = GridSpec(torus=TORUS1, points_per_axis=points)
    return CorrelationTable.poisson(grid, order, rho)


def test_additive_averaging_is_exact_in_the_density():
    rho = 0.7
    table = _poisson_table(rho)
    m = bdlp_model()
    am = build_averaged_model(m, table, TORUS1)
    assert am.rho_inv == pytest.approx(rho, abs=1e-12)
    assert am.m_bar == pytest.approx(
        rho * potential_functionals(m.b_minus, 1).l1, rel=1e-12)
    assert am.lambda_bar == pytest.approx(
        rho * potential_functionals(m.b_plus, 1).l1, rel=1e-12)
    t = two_bdlp_model()
    at = build_averaged_model(t, table, TORUS1)
    assert at.m_bar == pytest.approx(
        rho * potential_functionals(t.vphi_minus, 1).l1, rel=1e-12)
    assert at.lambda_bar == pytest.approx(
        rho * potential_functionals(t.vphi_plus, 1).l1, rel=1e-12)


def test_averaged_forms_replace_the_cross_terms_by_their_averages():
    table = _poisson_table(0.7)
    rho = table.k1
    l1 = lambda p: rho * potential_functionals(p, 1).l1
    g, b, r, t = gg_model(), bdlp_model(), branching_model(), two_bdlp_model()
    g_bar, g_tail = exp_mayer_functional(table, g.phi_minus)
    r_bar, r_tail = exp_mayer_functional(table, r.phi)
    expected = {
        g: (ComponentForm(death_const=1.0, birth_const=g.z_plus * g_bar,
                          birth_pot=g.phi_plus), g_bar, g_tail, 0.0),
        b: (ComponentForm(death_const=b.m_plus + l1(b.b_minus), birth_const=l1(b.b_plus),
                          death_kernel=b.a_minus, birth_kernel=b.a_plus),
            l1(b.b_plus), 0.0, l1(b.b_minus)),
        r: (ComponentForm(death_const=r.m_plus, birth_const=0.0, death_pot=r.kappa,
                          birth_kernel=r.a_plus, birth_kernel_scale=r_bar),
            r_bar, r_tail, 0.0),
        t: (ComponentForm(death_const=t.m_plus + l1(t.vphi_minus),
                          birth_const=l1(t.vphi_plus),
                          death_kernel=t.b_minus, birth_kernel=t.b_plus),
            l1(t.vphi_plus), 0.0, l1(t.vphi_minus)),
    }
    for m, (form, lambda_bar, tail, m_bar) in expected.items():
        am = build_averaged_model(m, table, TORUS1)
        assert component_form(am, "system") == form, variant_name(m)
        assert (am.rho_inv, am.lambda_bar, am.lambda_bar_tail, am.m_bar) == (
            rho, lambda_bar, tail, m_bar), variant_name(m)


def test_exponential_averaging_matches_poisson_closed_form():
    m = gg_model()
    beta = potential_functionals(m.phi_minus, 1).beta
    for rho in (0.2, 0.5):
        am = build_averaged_model(m, _poisson_table(rho), TORUS1)
        exact = math.exp(-rho * beta)
        assert abs(am.lambda_bar - exact) <= am.lambda_bar_tail + 1e-12
        assert am.lambda_bar_tail <= 0.05


def test_averaging_from_the_empty_environment_is_trivial():
    grid = GridSpec(torus=TORUS1, points_per_axis=48)
    empty = CorrelationTable(grid, 3, 1.0, 0.0)
    assert build_averaged_model(gg_model(), empty, TORUS1).lambda_bar == 1.0
    am = build_averaged_model(bdlp_model(), empty, TORUS1)
    assert am.lambda_bar == 0.0 and am.m_bar == 0.0


def test_uncoupled_averaged_system_reproduces_base_rates():
    # phi_minus = 0 removes the coupling, so the averaged system must have
    # exactly the base system rates at an empty environment
    s = Potential.step(0.5, 1.0)
    m = type(gg_model())(z_minus=0.3, psi=s, z_plus=0.4,
                         phi_minus=Potential.zero(), phi_plus=s)
    am = build_averaged_model(m, _poisson_table(0.5), TORUS1)
    assert am.lambda_bar == 1.0 and am.lambda_bar_tail == 0.0
    rng = np.random.default_rng(6)
    gp = FiniteConfiguration(TORUS1.uniform(rng, 3))
    bare = MarkedConfiguration(plus=gp, minus=FiniteConfiguration.empty(1))
    for x in TORUS1.uniform(rng, 10):
        assert averaged_rates(x, gp, am, TORUS1) == pytest.approx(
            sys_rates(x, bare, m, TORUS1), rel=1e-12)


def test_averaged_death_vector_matches_pointwise():
    table = _poisson_table(0.6)
    rng = np.random.default_rng(12)
    gp = FiniteConfiguration(TORUS1.uniform(rng, 4))
    for build in ALL_MODELS:
        am = build_averaged_model(build(), table, TORUS1)
        vec = averaged_death_vector(gp, am, TORUS1)
        for i in range(gp.size):
            d, _ = averaged_rates(gp.points[i], gp.remove_index(i), am, TORUS1)
            assert vec[i] == pytest.approx(d, rel=1e-12)


def test_averaged_model_has_no_environment_component():
    am = build_averaged_model(gg_model(), _poisson_table(0.3), TORUS1)
    gamma = random_marked(np.random.default_rng(2), TORUS1, 2, 0)
    with pytest.raises(ModelError):
        birth_proposal("environment", gamma, am, TORUS1)


def test_averaged_proposal_identity_holds_per_variant():
    table = _poisson_table(0.5)
    rng = np.random.default_rng(44)
    gp = FiniteConfiguration(TORUS1.uniform(rng, 3))
    gamma = MarkedConfiguration(plus=gp, minus=FiniteConfiguration.empty(1))
    for build in ALL_MODELS:
        am = build_averaged_model(build(), table, TORUS1)
        prop = birth_proposal("system", gamma, am, TORUS1)
        for x in TORUS1.uniform(rng, 25):
            _, b = averaged_rates(x, gp, am, TORUS1)
            got = _acceptance(am, "system", gamma, x) * dominating_intensity(prop, x)
            assert got == pytest.approx(b, rel=1e-10, abs=1e-10)


def test_averaged_model_requires_normalized_table():
    grid = GridSpec(torus=TORUS1, points_per_axis=32)
    bad = CorrelationTable(grid, 1, 0.5, 1.0, None, None)
    with pytest.raises(ModelError):
        build_averaged_model(gg_model(), bad, TORUS1)


def test_negative_averaged_birth_factor_is_rejected():
    # a dense environment and a strong coupling drive the order-3 expansion
    # of the damping factor to about -1.65, which no birth rate can use
    m = GlauberGlauber(z_minus=3.0, psi=Potential.zero(), z_plus=0.3,
                       phi_minus=Potential.step(3.0, 0.5), phi_plus=Potential.zero())
    with pytest.raises(ModelError, match="lambda_bar"):
        build_averaged_model(m, _poisson_table(3.0, points=64), TORUS1)


def test_an_averaged_birth_factor_inside_its_tail_bound_is_rejected():
    # a Poisson environment of density 0.755 under phi_minus step(5, 1): the
    # order-3 expansion gives lambda_bar 0.0626 with a tail bound of 0.294,
    # while the exact damping factor is exp(-0.755 * 2 * (1 - e^-5)) = 0.223
    m = GlauberGlauber(z_minus=0.755, psi=Potential.zero(), z_plus=0.3,
                       phi_minus=Potential.step(5.0, 1.0), phi_plus=Potential.zero())
    with pytest.raises(ModelError, match=r"lambda_bar = 0\.0626\d* is at most its tail "
                                         r"\(truncation tail bound 0\.294\)"):
        build_averaged_model(m, _poisson_table(0.755, points=64), TORUS1)


@pytest.mark.parametrize("build", ALL_MODELS, ids=lambda b: b.__name__)
def test_form_kernel_subset_sums_reproduce_the_averaged_rates(build):
    am = build_averaged_model(build(), _poisson_table(0.5), TORUS1)
    form = component_form(am, "system")
    rng = np.random.default_rng(19)
    cases = []
    for n in range(4):
        gp = random_marked(rng, TORUS1, n, 0).plus
        cases.append((TORUS1, TORUS1.uniform(rng, 1)[0], gp))
    cases += ((torus, x, eta.plus)
              for torus, x, eta in _clustered_cases(rng, [(1, 0), (2, 0), (3, 0)]))
    for torus, x, gp in cases:
        n = gp.size
        sums = np.zeros(2)
        for k in range(1 << n):
            sums += _form_kernels(
                x, FiniteConfiguration(gp.points[[i for i in range(n) if k >> i & 1]]), form, torus)
        want = averaged_rates(x, gp, am, torus)
        assert sums == pytest.approx(want, rel=1e-10, abs=1e-10)


def test_system_forms_reject_cross_terms_that_mix_structures():
    s = Potential.step(0.5, 1.0)
    with pytest.raises(ModelError):
        ComponentForm(death_const=1.0, birth_const=0.0, death_pot=s, cross_death_kernel=s)
    with pytest.raises(ModelError):
        ComponentForm(death_const=1.0, birth_const=0.0, birth_kernel=s, cross_birth_pot=s)
    with pytest.raises(ModelError):
        ComponentForm(death_const=1.0, birth_const=0.0, parent_pot=s)
    for build in ALL_MODELS:
        assert component_form(build()).autonomous
        assert not rate_form(build(), "system").autonomous


def test_constant_death_marks_the_forms_without_a_live_death_term():
    # the three Glauber-family environments and the glauber_glauber system
    # die at death_const; an additive death kernel or a cross death does not
    for build in ALL_MODELS:
        m = build()
        am = build_averaged_model(m, _poisson_table(0.5), TORUS1)
        assert component_form(m).constant_death == (build is not two_bdlp_model)
        assert component_form(am, "system").constant_death == (build is gg_model)
        assert rate_form(m, "system").constant_death == (build is gg_model)
    s = Potential.step(0.5, 1.0)
    assert ComponentForm(death_const=1.0, birth_const=0.5, death_pot=Potential.zero()).constant_death
    assert not ComponentForm(death_const=1.0, birth_const=0.5, death_pot=s).constant_death
    assert not ComponentForm(death_const=1.0, birth_const=0.5, cross_death_kernel=s).constant_death


# The derived views of each form of the conftest models, as the forms read
# them before ComponentForm.parts: pair_terms, damping and birth_groups name the model field behind
# each potential (None where the view has no term), then constant_death and
# free.
_VIEWS = {
    (gg_model, "environment"): (((None, None), (None, None)), ("psi", None), (None, None), True, False),
    (gg_model, "system"): (((None, None), (None, None)), ("phi_plus", "phi_minus"), (None, None),
                           True, False),
    (gg_model, "averaged"): (((None, None), (None, None)), ("phi_plus", None), (None, None),
                             True, False),
    (bdlp_model, "environment"): (((None, None), (None, None)), ("psi", None), (None, None),
                                  True, False),
    (bdlp_model, "system"): ((("a_minus", None), ("b_minus", None)), None, ("a_plus", "b_plus"),
                             False, False),
    (bdlp_model, "averaged"): ((("a_minus", None), (None, None)), None, ("a_plus", None),
                               False, False),
    (branching_model, "environment"): (((None, None), (None, None)), ("psi", None), (None, None),
                                       True, False),
    (branching_model, "system"): ((("kappa", None), (None, "phi")), None, ("a_plus", None),
                                  False, False),
    (branching_model, "averaged"): ((("kappa", None), (None, None)), None, ("a_plus", None),
                                    False, False),
    (two_bdlp_model, "environment"): ((("a_minus", None), (None, None)), None, ("a_plus", None),
                                      False, False),
    (two_bdlp_model, "system"): ((("b_minus", None), ("vphi_minus", None)), None,
                                 ("b_plus", "vphi_plus"), False, False),
    (two_bdlp_model, "averaged"): ((("b_minus", None), (None, None)), None, ("b_plus", None),
                                   False, False),
}


def test_the_derived_views_of_every_form_are_pinned():
    def named(m, want):
        if isinstance(want, tuple):
            return tuple(named(m, w) for w in want)
        return None if want is None else getattr(m, want)

    def same(got, want):
        if isinstance(want, tuple):
            return isinstance(got, tuple) and len(got) == len(want) and all(map(same, got, want))
        return got is want

    for (build, label), (pairs, damping, groups, constant, free) in _VIEWS.items():
        m = build()
        am = build_averaged_model(m, _poisson_table(0.5), TORUS1)
        f = {"environment": component_form(m), "system": rate_form(m, "system"),
             "averaged": component_form(am, "system")}[label]
        assert same(f.pair_terms, named(m, pairs)), (build.__name__, label)
        assert same(f.damping, named(m, damping)), (build.__name__, label)
        assert same(f.birth_groups, named(m, groups)), (build.__name__, label)
        assert (f.constant_death, f.free) == (constant, free), (build.__name__, label)
    # a zero psi leaves the environment free, its damping without a live term
    zero = Potential.zero()
    f = component_form(GlauberGlauber(z_minus=0.5, psi=zero, z_plus=0.3, phi_minus=zero,
                                      phi_plus=zero))
    assert f.pair_terms == ((None, None), (None, None)) and f.damping == (None, None)
    assert f.birth_groups == (None, None) and f.constant_death and f.free


def test_component_forms_are_derived_once_per_model():
    for build in ALL_MODELS:
        m = build()
        assert component_form(m) is component_form(m)
        am = build_averaged_model(m, _poisson_table(0.5), TORUS1)
        assert component_form(am, "system") is component_form(am, "system")


def test_averaged_model_with_a_negative_kernel_scale_fails_loudly():
    # a branching averaged model scales its parent kernel by lambda_bar; a
    # negative scale would silently drop every parent from the proposal
    am = AveragedModel(base=branching_model(), rho_inv=0.5, lambda_bar=-0.5)
    gamma = random_marked(np.random.default_rng(1), TORUS1, 3, 0)
    with pytest.raises(ModelError):
        birth_proposal("system", gamma, am, TORUS1)
