"""Truncated correlation hierarchies: fixed points, time evolution, and
positivity diagnostics."""

import math

import numpy as np
import pytest

from coupledbd import hierarchy
from coupledbd.errors import ConfigError, ConvergenceError, ModelError, StabilityError
from coupledbd.geometry import Torus
from coupledbd.hierarchy import (
    ComponentForm,
    _rebase_gather,
    build_stencils,
    component_form,
    evolve_hierarchy,
    invariant_summary,
    ks_apply,
    ks_solve,
    l_delta_apply,
    lenard_spot_check,
)
from coupledbd.models import GlauberGlauber, build_averaged_model, rate_form
from coupledbd.potentials import Potential, potential_functionals
from coupledbd.tables import CorrelationTable, GridSpec

from conftest import TORUS1, bdlp_model, gg_model, two_bdlp_model
from hierarchy_oracle import _rebased_triple_integral, oracle_l_delta_apply

GRID = GridSpec(torus=TORUS1, points_per_axis=64)


def _free_env(z):
    return GlauberGlauber(z_minus=z, psi=Potential.zero(), z_plus=0.1,
                          phi_minus=Potential.zero(), phi_plus=Potential.zero())


def test_free_environment_fixed_point_is_poisson():
    z = 0.5
    sol = ks_solve(component_form(_free_env(z), "environment"), GRID, order=3)
    t = sol.table
    assert sol.converged and sol.iterations <= 3
    assert abs(t.k1 - z) <= 1e-10
    assert np.max(np.abs(t.k2 - z ** 2)) <= 1e-10
    assert np.max(np.abs(t.k3 - z ** 3)) <= 1e-10


def test_zero_activity_fixed_point_is_the_empty_state():
    sol = ks_solve(component_form(_free_env(0.0), "environment"), GRID, order=2)
    assert sol.table.k0 == 1.0
    assert sol.table.k1 == 0.0
    assert np.all(sol.table.k2 == 0.0)


def test_interacting_fixed_point_converges_below_tolerance():
    sol = ks_solve(component_form(gg_model(), "environment"), GRID, order=3,
                   tol=1e-12)
    assert sol.converged
    assert sol.residuals[-1] <= 1e-12
    # residuals must decay overall, not bounce
    assert sol.residuals[-1] < sol.residuals[0]


def test_fixed_point_annihilates_the_evolution_operator():
    form = component_form(gg_model(), "environment")
    sol = ks_solve(form, GRID, order=3, tol=1e-12)
    lk = l_delta_apply(sol.table, build_stencils(GRID, form, 3))
    assert lk.k0 == 0.0
    assert abs(lk.k1) <= 1e-9
    assert np.max(np.abs(lk.k2)) <= 1e-9
    assert np.max(np.abs(lk.k3)) <= 1e-9


def _gathered_triple_integral(k3, w, di):
    """out[j, l] = sum_r w[r] * k3[di[l, j], di[r, j]] the way l_delta_apply
    forms it: one matrix product and one gather (_rebase_gather)."""
    return np.take(w[di].T @ k3.T, _rebase_gather(di))


@pytest.mark.parametrize("dim,n", [(1, 7), (2, 5), (3, 3)])
def test_rebased_triple_integral_matches_the_brute_force_sum(dim, n):
    # out[j, l] = sum_r w[r] * k3[offset[l] - offset[j], offset[r] - offset[j]],
    # with the offset differences taken on the lattice, not from diff_index
    grid = GridSpec(torus=Torus(dim=dim, side=float(n)), points_per_axis=n)
    p = grid.num_cells
    rng = np.random.default_rng(dim)
    k3 = rng.normal(size=(p, p))
    w = rng.normal(size=p)
    shape = (n,) * dim
    lat = np.array(np.unravel_index(np.arange(p), shape)).T

    def diff(a, b):
        return int(np.ravel_multi_index(tuple(np.mod(lat[a] - lat[b], n)), shape))

    expected = np.zeros((p, p))
    for j in range(p):
        for l in range(p):
            a = diff(l, j)
            expected[j, l] = sum(w[r] * k3[a, diff(r, j)] for r in range(p))
    for rebased in (_gathered_triple_integral, _rebased_triple_integral):
        got = rebased(k3, w, grid.diff_index)
        assert np.max(np.abs(got - expected)) <= 1e-12 * np.max(np.abs(expected))


# l_delta_apply on a fixed random symmetric order-3 table, one form per
# combination of death and birth paths.  Per form: the order-1 output, the
# sum and a weighted sum of the order-2 output, and the same of the order-3
# output; captured before the table-independent factors moved into
# build_stencils.
_STEP = Potential.step
_GOLDEN_FORMS = {
    "exp_death_exp_birth": (
        ComponentForm(1.2, 0.4, death_pot=_STEP(0.3, 1.0), birth_pot=_STEP(0.5, 1.0)),
        (-2.405661905412222, -365.2219625193517, -336.06092447145295,
         -32790.056417395586, -32914.50352147348)),
    "add_death_add_birth": (
        ComponentForm(1.2, 0.4, death_kernel=_STEP(0.3, 1.0),
                      birth_kernel=_STEP(0.2, 1.0), birth_kernel_scale=0.7),
        (-1.2443477648014758, -182.13449749956368, -167.5638135468966,
         -14526.782001534473, -14575.664577704349)),
    "exp_death_add_birth": (
        ComponentForm(1.2, 0.4, death_pot=_STEP(0.3, 1.0),
                      birth_kernel=_STEP(0.2, 1.0), birth_kernel_scale=0.7),
        (-1.6582450037750889, -245.8044499424628, -226.22002672874697,
         -20808.988905066923, -20881.471108329737)),
    "add_death_exp_birth": (
        ComponentForm(1.2, 0.4, death_kernel=_STEP(0.3, 1.0), birth_pot=_STEP(0.5, 1.0)),
        (-1.9917646664386088, -301.5520100764526, -277.4047112896025,
         -26507.849513863133, -26608.696990848097)),
    "const_birth": (
        ComponentForm(1.2, 0.4, death_kernel=_STEP(0.3, 1.0)),
        (-1.5962061420035325, -240.85823568486379, -221.57824789927548,
         -20620.28231911819, -20695.57593525322)),
}


@pytest.mark.parametrize("name", sorted(_GOLDEN_FORMS))
def test_order3_apply_matches_its_golden_sums(name):
    form, want = _GOLDEN_FORMS[name]
    grid = GridSpec(torus=Torus(dim=2, side=4.0), points_per_axis=8)
    p = grid.num_cells
    rng = np.random.default_rng(7)
    k2 = rng.uniform(0.5, 1.5, p)
    k2 = 0.5 * (k2 + k2[grid.diff_index[0]])
    k3 = rng.uniform(0.5, 1.5, (p, p))
    k3 = 0.5 * (k3 + k3.T)
    w2 = rng.uniform(0.5, 1.5, p)
    w3 = rng.uniform(0.5, 1.5, (p, p))
    out = l_delta_apply(CorrelationTable(grid, 3, 1.0, 0.8, k2, k3),
                        build_stencils(grid, form, 3))
    got = (out.k1, np.sum(out.k2), w2 @ out.k2, np.sum(out.k3), np.sum(w3 * out.k3))
    assert got == pytest.approx(want, rel=1e-12)


# Edge forms: an exponential death with a constant birth, and parts that
# are declared but zero or scaled by 0.
_EDGE_FORMS = {
    "exp_death_const_birth": ComponentForm(1.2, 0.4, death_pot=_STEP(0.3, 1.0)),
    "exp_birth_zero_activity": ComponentForm(1.2, 0.0, death_pot=_STEP(0.3, 1.0),
                                             birth_pot=_STEP(0.5, 1.0)),
    "zero_potentials": ComponentForm(1.2, 0.4, death_pot=Potential.zero(),
                                     birth_pot=Potential.zero()),
    "zero_kernel_scale": ComponentForm(1.2, 0.4, death_kernel=_STEP(0.3, 1.0),
                                       birth_kernel=_STEP(0.2, 1.0), birth_kernel_scale=0.0),
}
_APPLY_FORMS = {**{name: form for name, (form, _) in _GOLDEN_FORMS.items()}, **_EDGE_FORMS}


@pytest.mark.parametrize("closure", ["poisson", "zero"])
@pytest.mark.parametrize("order", [1, 2, 3])
@pytest.mark.parametrize("name", sorted(_GOLDEN_FORMS) + sorted(_EDGE_FORMS))
@pytest.mark.parametrize("dim,side,n", [(2, 4.0, 8), (1, 4.5, 9)])
def test_apply_matches_the_reference_formulas_entry_by_entry(dim, side, n, name, order,
                                                             closure):
    form = _APPLY_FORMS[name]
    grid = GridSpec(torus=Torus(dim=dim, side=side), points_per_axis=n)
    p = grid.num_cells
    rng = np.random.default_rng(11)
    # neither k2 nor k3 has the exchange symmetries of correlation data
    k2 = rng.uniform(0.5, 1.5, p) if order >= 2 else None
    k3 = rng.uniform(0.5, 1.5, (p, p)) if order >= 3 else None
    table = CorrelationTable(grid, order, 1.0, 0.8, k2, k3)
    got = l_delta_apply(table, build_stencils(grid, form, order), closure=closure)
    want = oracle_l_delta_apply(table, form, closure)
    assert got.order == order
    # entries where death and birth cancel are held to 1e-12 of the largest
    want = want.as_vector()
    np.testing.assert_allclose(got.as_vector(), want, rtol=1e-12,
                               atol=1e-12 * np.max(np.abs(want)))


def test_results_stay_independent_of_later_calls():
    # the order-3 step works in scratch arrays the bundle keeps; no result
    # may share memory with them, with its input or with another result
    form = _GOLDEN_FORMS["exp_death_exp_birth"][0]
    grid = GridSpec(torus=Torus(dim=2, side=4.0), points_per_axis=8)
    bundle = build_stencils(grid, form, 3)
    first_in = CorrelationTable.poisson(grid, 3, 0.6)
    first = l_delta_apply(first_in, bundle)
    first_vec = first.as_vector()
    second = l_delta_apply(CorrelationTable.poisson(grid, 3, 0.9), bundle)
    assert np.array_equal(first.as_vector(), first_vec)
    assert not np.array_equal(second.as_vector(), first_vec)
    assert np.array_equal(first_in.as_vector(), CorrelationTable.poisson(grid, 3, 0.6).as_vector())

    init = CorrelationTable.poisson(grid, 3, 0.6)
    traj = evolve_hierarchy(init, form, t_final=0.3, dt=0.05, record_every=1)
    short = evolve_hierarchy(init, form, t_final=0.1, dt=0.05, record_every=1)
    sol = ks_solve(form, grid, order=3)
    kept = [t.as_vector() for t in traj.tables] + [sol.table.as_vector()]
    l_delta_apply(sol.table, bundle)
    ks_solve(component_form(gg_model(), "environment"), grid, order=3)
    evolve_hierarchy(CorrelationTable.poisson(grid, 3, 0.9), form, t_final=0.1, dt=0.05)
    tables = traj.tables + [sol.table]
    for t, vec in zip(tables, kept):
        assert np.array_equal(t.as_vector(), vec)
    for a in range(len(tables)):
        for b in range(a + 1, len(tables)):
            assert not np.shares_memory(tables[a].k3, tables[b].k3)
    for t, s in zip(traj.tables, short.tables):
        assert np.array_equal(t.as_vector(), s.as_vector())
    assert np.array_equal(init.as_vector(), CorrelationTable.poisson(grid, 3, 0.6).as_vector())


def test_solve_and_evolve_call_the_module_kernel_once_per_evaluation(monkeypatch):
    # perfbench/trace_run.py times the kernel by rebinding this name
    calls = []
    real = hierarchy.l_delta_apply

    def counted(*args, **kwargs):
        calls.append(args[0])
        return real(*args, **kwargs)

    monkeypatch.setattr(hierarchy, "l_delta_apply", counted)
    form = component_form(gg_model(), "environment")
    sol = ks_solve(form, GRID, order=3)
    assert len(calls) == sol.iterations
    calls.clear()
    evolve_hierarchy(CorrelationTable.poisson(GRID, 3, 0.5), form, t_final=0.3, dt=0.05)
    assert len(calls) == 4 * 6
    assert all(t.order == 3 for t in calls)


def test_evolution_conserves_the_order_zero_entry():
    init = CorrelationTable.poisson(GRID, 2, 1.3)
    traj = evolve_hierarchy(init, component_form(gg_model(), "environment"),
                            t_final=1.0, dt=0.01)
    for t in traj.tables:
        assert t.k0 == 1.0


def test_free_relaxation_follows_the_exact_exponential():
    z, rho0 = 0.5, 2.0
    form = component_form(_free_env(z), "environment")
    init = CorrelationTable.poisson(GRID, 1, rho0)
    traj = evolve_hierarchy(init, form, t_final=4.0, dt=1e-3, record_every=100)
    exact = z + (rho0 - z) * np.exp(-traj.times)
    assert np.max(np.abs(traj.density - exact)) <= 1e-6
    assert traj.times[0] == 0.0
    assert traj.times[-1] == pytest.approx(4.0, abs=1e-9)


def test_evolution_ends_at_t_final_when_dt_does_not_divide_it():
    # dt 0.3 steps three times, then shortens the fourth step to 0.1
    z, rho0 = 0.5, 2.0
    form = component_form(_free_env(z), "environment")
    init = CorrelationTable.poisson(GRID, 1, rho0)
    traj = evolve_hierarchy(init, form, t_final=1.0, dt=0.3, record_every=1)
    assert traj.times[-1] == 1.0
    np.testing.assert_allclose(traj.times, [0.0, 0.3, 0.6, 0.9, 1.0], rtol=1e-15)
    exact = z + (rho0 - z) * np.exp(-traj.times)
    assert np.max(np.abs(traj.density - exact)) <= 1e-4
    sparse = evolve_hierarchy(init, form, t_final=0.123, dt=0.01, record_every=5)
    assert list(sparse.times) == pytest.approx([0.0, 0.05, 0.1, 0.123], rel=1e-15)
    assert sparse.times[-1] == 0.123


def test_evolution_refuses_a_record_interval_below_one_step():
    form = component_form(_free_env(0.5), "environment")
    init = CorrelationTable.poisson(GRID, 1, 1.0)
    with pytest.raises(ConfigError):
        evolve_hierarchy(init, form, t_final=0.1, dt=0.05, record_every=0)


# For a constant death rate, l_delta_apply's order-n output reads only
# k0..kn, so the truncated hierarchy is lower block-triangular: the density
# is z / (1 + z beta) at every order, first order in the Mayer mass, and
# the density trajectory does not depend on the order.
@pytest.mark.parametrize("z,psi,grid", [
    # the hierarchy benchmark's environment: 2D 16x16
    (0.5, Potential.step(0.5, 1.0), GridSpec(torus=Torus(dim=2, side=4.0), points_per_axis=16)),
    (1.5, Potential.step(3.0, 1.0), GRID),
    (0.8, Potential.exponential(1.0, 0.5, 2.0), GRID),
])
def test_constant_death_density_is_first_order_in_the_mayer_mass_at_every_order(z, psi, grid):
    m = GlauberGlauber(z_minus=z, psi=psi, z_plus=0.3,
                       phi_minus=Potential.zero(), phi_plus=Potential.zero())
    form = component_form(m, "environment")
    assert form.death_const == 1.0 and form.death_pot is None and form.death_kernel is None
    beta = potential_functionals(psi, grid.torus.dim).beta
    want = z / (1.0 + z * beta)
    for order in (1, 2, 3):
        assert ks_solve(form, grid, order=order).table.k1 == pytest.approx(want, rel=1e-10)
    densities = [evolve_hierarchy(CorrelationTable.poisson(grid, order, 1.0), form,
                                  t_final=0.5, dt=0.05, record_every=1).density
                 for order in (1, 2, 3)]
    for d in densities[1:]:
        np.testing.assert_allclose(d, densities[0], rtol=1e-12, atol=0.0)


def test_relaxation_from_above_contracts_the_weighted_norm():
    form = component_form(gg_model(), "environment")
    init = CorrelationTable.poisson(GRID, 2, 2.0)
    traj = evolve_hierarchy(init, form, t_final=2.0, dt=0.01, record_every=20)
    norms = [t.kc_norm(2.0) for t in traj.tables]
    assert all(n2 <= n1 + 1e-9 for n1, n2 in zip(norms, norms[1:]))


def test_closure_choice_matters_only_for_interacting_death():
    # the dangling order enters through the death interaction; an additive
    # death kernel exposes the closure, a constant death rate never does
    form = component_form(two_bdlp_model(), "environment")
    init = CorrelationTable.poisson(GRID, 1, 1.0)
    a = evolve_hierarchy(init, form, t_final=0.5, dt=0.01, closure="poisson")
    b = evolve_hierarchy(init, form, t_final=0.5, dt=0.01, closure="zero")
    assert abs(a.final().k1 - b.final().k1) > 1e-6
    const_death = component_form(gg_model(), "environment")
    init2 = CorrelationTable.poisson(GRID, 2, 1.0)
    fa = evolve_hierarchy(init2, const_death, t_final=0.5, dt=0.01, closure="poisson")
    fb = evolve_hierarchy(init2, const_death, t_final=0.5, dt=0.01, closure="zero")
    assert abs(fa.final().k1 - fb.final().k1) <= 1e-12


def test_low_activity_pair_correlation_tracks_the_boltzmann_factor():
    # first-order cluster expansion: g(r) = exp(-psi(r)) + O(z beta)
    z = 0.05
    psi = Potential.step(0.5, 1.0)
    m = GlauberGlauber(z_minus=z, psi=psi, z_plus=0.1,
                       phi_minus=Potential.zero(), phi_plus=Potential.zero())
    sol = ks_solve(component_form(m, "environment"), GRID, order=3)
    t = sol.table
    g = t.k2 / t.k1 ** 2
    target = np.exp(-psi(GRID.distances))
    beta = potential_functionals(psi, 1).beta
    assert np.max(np.abs(g - target)) <= z * beta


def test_solver_reports_nonconvergence_honestly():
    with pytest.raises(ConvergenceError):
        ks_solve(component_form(gg_model(), "environment"), GRID, order=2,
                 tol=1e-12, max_iter=1)


def test_order3_solve_of_the_averaged_additive_system_converges():
    # averaged bdlp_model: death_const 1.097 against a step(0.6, 0.5) death
    # kernel; plain Picard steps overshoot at order 3, Anderson mixing does not
    m = bdlp_model()
    k_inv = ks_solve(component_form(m, "environment"), GRID, order=3).table
    form = component_form(build_averaged_model(m, k_inv, TORUS1), "system")
    assert ks_solve(form, GRID, order=2).converged
    sol = ks_solve(form, GRID, order=3)
    assert sol.converged
    assert sol.table.k1 == pytest.approx(0.0894009928834, rel=1e-8)


def _picard(form, grid, order, tol=1e-13, max_iter=1000):
    """Plain Picard iteration of the map ks_solve mixes: the oracle."""
    bundle = build_stencils(grid, form, order)
    forcing = form.birth_const / form.death_const
    cur = CorrelationTable(grid, order, 0.0, forcing)
    for _ in range(max_iter):
        nxt = ks_apply(cur, bundle)
        nxt.k1 += forcing
        if np.max(np.abs(nxt.as_vector() - cur.as_vector())) <= tol:
            return nxt
        cur = nxt
    raise AssertionError("Picard oracle did not converge")


@pytest.mark.parametrize("model,grid", [
    (gg_model(), GRID),
    # the hierarchy benchmark's table: 2D 16x16, order 3
    (GlauberGlauber(z_minus=0.5, psi=Potential.step(0.5, 1.0), z_plus=0.3,
                    phi_minus=Potential.zero(), phi_plus=Potential.zero()),
     GridSpec(torus=Torus(dim=2, side=4.0), points_per_axis=16)),
])
def test_mixed_solve_reaches_the_picard_fixed_point(model, grid):
    form = component_form(model, "environment")
    sol = ks_solve(form, grid, order=3)
    ref = _picard(form, grid, 3)
    got = sol.table.as_vector()
    assert got[0] == 1.0
    scale = sol.table.max_abs()
    assert np.max(np.abs(got[1:] - ref.as_vector()[1:])) <= 1e-10 * scale


def test_solver_stops_on_a_non_finite_iterate(monkeypatch):
    real = hierarchy.l_delta_apply

    def poisoned(table, bundle, closure="poisson"):
        out = real(table, bundle, closure=closure)
        out.k1 = math.nan
        return out

    monkeypatch.setattr(hierarchy, "l_delta_apply", poisoned)
    with pytest.raises(StabilityError):
        ks_solve(component_form(gg_model(), "environment"), GRID, order=2)


def test_solver_guards_against_runaway_expansions():
    wild = GlauberGlauber(z_minus=50.0, psi=Potential.step(3.0, 2.0),
                          z_plus=0.1, phi_minus=Potential.zero(),
                          phi_plus=Potential.zero())
    with pytest.raises(StabilityError):
        ks_solve(component_form(wild, "environment"), GRID, order=2)


def test_unstable_step_size_trips_the_stability_cap():
    form = component_form(_free_env(1.0), "environment")
    init = CorrelationTable.poisson(GRID, 1, 2.0)
    with pytest.raises(StabilityError):
        evolve_hierarchy(init, form, t_final=500.0, dt=5.0, record_every=10)


def test_system_component_requires_averaging_first():
    with pytest.raises(ModelError):
        component_form(gg_model(), "system")
    k_inv = ks_solve(component_form(gg_model(), "environment"), GRID, 2).table
    am = build_averaged_model(gg_model(), k_inv, TORUS1)
    form = component_form(am, "system")
    assert form.birth_const == pytest.approx(
        gg_model().z_plus * am.lambda_bar, rel=1e-12)


def test_apply_rejects_a_table_above_the_bundle_order():
    form = component_form(gg_model(), "environment")
    with pytest.raises(ConfigError):
        l_delta_apply(CorrelationTable.poisson(GRID, 3, 0.5), build_stencils(GRID, form, 2))


def test_hierarchy_rejects_a_form_that_reads_another_component():
    # the system of a full model reads the environment; the one-component
    # hierarchy cannot represent that
    form = rate_form(bdlp_model(), "system")
    assert not form.autonomous
    with pytest.raises(ModelError):
        build_stencils(GRID, form, 2)


def test_component_form_rejects_mixed_structures():
    with pytest.raises(ModelError):
        ComponentForm(death_const=1.0, birth_const=1.0,
                      birth_kernel=Potential.step(1.0, 1.0),
                      birth_pot=Potential.step(1.0, 1.0))
    with pytest.raises(ModelError):
        ComponentForm(death_const=0.0, birth_const=1.0)


def test_additive_variant_fixed_points_solve_too():
    for m in (bdlp_model(), two_bdlp_model()):
        sol = ks_solve(component_form(m, "environment"), GRID, order=2)
        assert sol.converged
        assert sol.table.k1 > 0.0


def test_invariant_summary_reports_density_and_pair_profile():
    sol = ks_solve(component_form(gg_model(), "environment"), GRID, order=2)
    summ = invariant_summary(sol.table)
    assert summ.density == pytest.approx(sol.table.k1)
    assert summ.pair_r.shape == summ.pair_g.shape
    assert summ.pair_r.size > 0
    # repulsion leaves a contact hole and g -> 1 far away
    assert summ.pair_g[0] < 1.0
    assert abs(summ.pair_g[-1] - 1.0) < 0.05
    assert len(summ.sup_by_order) == 3


# ---------------------------------------------------------------------------
# positivity diagnostics

def test_lenard_check_passes_on_poisson_and_solver_output():
    for order in (1, 2, 3):
        c = lenard_spot_check(CorrelationTable.poisson(GRID, order, 0.7))
        assert c.ok and c.min_pairing > 0.1
    sol = ks_solve(component_form(gg_model(), "environment"), GRID, order=3)
    c = lenard_spot_check(sol.table)
    assert c.ok
    assert c.symmetry_defect <= 1e-10


def test_lenard_check_flags_negative_entries():
    t = CorrelationTable(GRID, 2, 1.0, 1.0, np.full(GRID.num_cells, -0.5))
    assert not lenard_spot_check(t).ok


def test_lenard_check_flags_broken_exchange_symmetry():
    k2 = np.linspace(0.5, 1.5, GRID.num_cells)
    t = CorrelationTable(GRID, 2, 1.0, 1.0, k2)
    c = lenard_spot_check(t)
    assert c.symmetry_defect > 0.1
    assert not c.ok


def test_lenard_check_flags_inconsistent_density_and_pairs():
    # entrywise fine, but a vanishing pair function cannot coexist with a
    # density this large; only the pairing observable sees it
    t = CorrelationTable(GRID, 2, 1.0, 5.0, np.zeros(GRID.num_cells))
    c = lenard_spot_check(t)
    assert c.min_entry >= 0.0
    assert c.symmetry_defect == 0.0
    assert c.min_pairing < -0.1
    assert not c.ok
