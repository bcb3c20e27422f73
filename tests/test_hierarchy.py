"""Truncated correlation hierarchies: fixed points, time evolution, and
positivity diagnostics."""

import functools
import itertools
import math
import tracemalloc

import numpy as np
import pytest

from coupledbd import hierarchy
from coupledbd.errors import ConfigError, ConvergenceError, ModelError, StabilityError
from coupledbd.geometry import Torus
from coupledbd.hierarchy import (
    ComponentForm,
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
from hierarchy_oracle import (
    _rebased_triple_integral,
    expanded,
    full_diff_index,
    full_labels,
    full_vector,
    k3_generators,
    oracle_l_delta_apply,
    symmetrised_table,
    vector_maps,
)

GRID = GridSpec(torus=TORUS1, points_per_axis=64)


def _free_env(z):
    return GlauberGlauber(z_minus=z, psi=Potential.zero(), z_plus=0.1,
                          phi_minus=Potential.zero(), phi_plus=Potential.zero())


def test_free_environment_fixed_point_is_poisson():
    z = 0.5
    sol = ks_solve(component_form(_free_env(z), "environment"), GRID, order=3)
    t = sol.table
    assert sol.residuals[-1] <= 1e-12 and sol.iterations <= 3
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


@pytest.mark.parametrize("dim,n", [(1, 7), (2, 5), (3, 3)])
def test_rebased_triple_integral_matches_the_brute_force_sum(dim, n):
    # out[j, l] = sum_r w[r] * k3[offset[l] - offset[j], offset[r] - offset[j]],
    # with the offset differences taken on the lattice, not from
    # full_diff_index
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
    got = _rebased_triple_integral(k3, w, full_diff_index(grid))
    assert np.max(np.abs(got - expected)) <= 1e-12 * np.max(np.abs(expected))


@pytest.mark.parametrize("block", ["default", "whole table"])
@pytest.mark.parametrize("dim,side,n", [(1, 10.0, 64), (2, 4.0, 16), (3, 4.0, 8),
                                        (1, 10.0, 1024), (2, 4.0, 32), (3, 4.0, 11)])
def test_fft_stencil_product_matches_the_dense_product(dim, side, n, block, monkeypatch):
    # the default block splits every table here but the 1D P = 64 one into
    # several, the 3D 11^3 one with a short last block
    if block == "whole table":
        monkeypatch.setattr(hierarchy, "_FFT_BLOCK", n ** (2 * dim))
    grid = GridSpec(torus=Torus(dim=dim, side=side), points_per_axis=n)
    form = ComponentForm(1.2, 0.4, death_kernel=_STEP(0.3, 1.0), birth_pot=_STEP(0.5, 1.0))
    birth = build_stencils(grid, form, 2).birth
    cw2 = birth.cw[full_diff_index(grid)]     # cw at offset[j] - offset[l]
    p = grid.num_cells
    rng = np.random.default_rng(dim)
    k3 = rng.uniform(0.5, 1.5, (p, p))        # neither symmetric nor radial
    k2 = rng.uniform(0.5, 1.5, p)
    for a in (k3, k2):
        want = a @ cw2.T                      # row by row: want[i] = cw2 @ a[i]
        got = hierarchy._stencil_product(birth, grid.shape, a, np.empty_like(want))
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


# l_delta_apply on a fixed random order-3 table symmetrised over S3 x the
# lattice point group, one form per combination of death and birth shapes.
# Per form: the order-1 output, the sum and a weighted sum of the order-2
# output, and the same of the order-3 output over its P^2 entries (the
# orbit values expanded); captured with the kernel that computed every P^2
# entry of the order-3 step.
_STEP = Potential.step
_GOLDEN_FORMS = {
    "exp_death_exp_birth": (
        ComponentForm(1.2, 0.4, death_pot=_STEP(0.3, 1.0), birth_pot=_STEP(0.5, 1.0)),
        (-2.405661905412222, -365.04275937462194, -368.2735196273096,
         -32790.522068966544, -32871.007628273655)),
    "add_death_add_birth": (
        ComponentForm(1.2, 0.4, death_kernel=_STEP(0.3, 1.0),
                      birth_kernel=_STEP(0.2, 1.0), birth_kernel_scale=0.7),
        (-1.2443477648014758, -181.986311163864, -184.34892119310052,
         -14526.782001534473, -14590.818619913338)),
    "exp_death_add_birth": (
        ComponentForm(1.2, 0.4, death_pot=_STEP(0.3, 1.0),
                      birth_kernel=_STEP(0.2, 1.0), birth_kernel_scale=0.7),
        (-1.6582450037750887, -245.62524679773318, -249.21514741936085,
         -20808.98890506692, -20893.49669730236)),
    "add_death_exp_birth": (
        ComponentForm(1.2, 0.4, death_kernel=_STEP(0.3, 1.0), birth_pot=_STEP(0.5, 1.0)),
        (-1.9917646664386088, -301.40382374075284, -303.4072934010493,
         -26508.315165434105, -26568.32955088463)),
    "const_death_exp_birth": (
        ComponentForm(1.2, 0.4, birth_pot=_STEP(0.5, 1.0)),
        (-0.9555585244350763, -172.0088717871522, -173.9433674294022,
         -15750.199863619604, -15782.738016204064)),
    "const_death_add_birth": (
        ComponentForm(1.2, 0.4, birth_kernel=_STEP(0.2, 1.0), birth_kernel_scale=0.7),
        (-0.20814162279794313, -52.591359210263334, -54.88499522145339,
         -3768.6666997199727, -3805.227085232771)),
    "const_birth": (
        ComponentForm(1.2, 0.4, death_kernel=_STEP(0.3, 1.0)),
        (-1.5962061420035325, -240.7100493491641, -243.1625326833244,
         -20620.28231911819, -20683.229516250194)),
}


@pytest.mark.parametrize("name", sorted(_GOLDEN_FORMS))
def test_order3_apply_matches_its_golden_sums(name):
    form, want = _GOLDEN_FORMS[name]
    grid = GridSpec(torus=Torus(dim=2, side=4.0), points_per_axis=8)
    p = grid.num_cells
    rng = np.random.default_rng(7)
    w2 = rng.uniform(0.5, 1.5, p)
    w3 = rng.uniform(0.5, 1.5, (p, p))
    out = l_delta_apply(symmetrised_table(grid, seed=7), build_stencils(grid, form, 3))
    k3 = expanded(out)
    got = (out.k1, np.sum(out.k2), w2 @ out.k2, np.sum(k3), np.sum(w3 * k3))
    assert got == pytest.approx(want, rel=1e-12)


def _square_arrays(obj, name, p):
    """The names of the arrays of at least P^2 entries that a stencil
    bundle holds, its parts' included, as "field" or "part.field"."""
    if isinstance(obj, np.ndarray):
        return {name} if obj.size >= p * p else set()
    if isinstance(obj, tuple):
        return set().union(*(_square_arrays(o, name, p) for o in obj))
    if isinstance(obj, (hierarchy.StencilBundle, hierarchy.StencilPart)):
        return set().union(*(_square_arrays(v, f"{name}.{key}".lstrip("."), p)
                             for key, v in vars(obj).items()))
    return set()


@pytest.mark.parametrize("n", [16, 32])
@pytest.mark.parametrize("name", ["exp_death_exp_birth", "add_death_add_birth",
                                  "glauber_environment"])
def test_order3_bundle_keeps_no_square_array(name, n):
    # the order-3 data live on the orbit representatives, a few per cent of
    # the P^2 entries, and the lattice products are FFT convolutions
    form = (component_form(gg_model(), "environment") if name == "glauber_environment"
            else _GOLDEN_FORMS[name][0])
    grid = GridSpec(torus=Torus(dim=2, side=4.0), points_per_axis=n)
    bundle = build_stencils(grid, form, 3)
    assert (bundle.death is None) == (name == "glauber_environment")
    assert _square_arrays(bundle, "", grid.num_cells) == set()


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


@functools.lru_cache(maxsize=None)
def _shared_grid(dim, side, n):
    """One grid per shape for the many cases that read it: its lattice
    arrays, the orbit labels among them, are built once."""
    return GridSpec(torus=Torus(dim=dim, side=side), points_per_axis=n)


@pytest.mark.parametrize("closure", ["poisson", "zero"])
@pytest.mark.parametrize("order", [1, 2, 3])
@pytest.mark.parametrize("name", sorted(_GOLDEN_FORMS) + sorted(_EDGE_FORMS))
@pytest.mark.parametrize("dim,side,n", [(2, 4.0, 8), (1, 4.5, 9), (3, 4.0, 8)])
def test_apply_matches_the_reference_formulas_entry_by_entry(dim, side, n, name, order,
                                                             closure):
    form = _APPLY_FORMS[name]
    grid = _shared_grid(dim, side, n)
    # correlation data: k2 and k3 have the symmetries the kernel requires
    full = symmetrised_table(grid, seed=11)
    table = CorrelationTable(grid, order, 1.0, 0.8, full.k2 if order >= 2 else None,
                             full.k3 if order >= 3 else None)
    got = l_delta_apply(table, build_stencils(grid, form, order), closure=closure)
    want = oracle_l_delta_apply(table, form, closure)
    assert got.order == order
    # every P^2 entry of k3; entries where death and birth cancel are held
    # to 1e-12 of the largest
    np.testing.assert_allclose(full_vector(got), want, rtol=1e-12,
                               atol=1e-12 * np.max(np.abs(want)))


@pytest.mark.parametrize("name", ["exp_death_exp_birth", "add_death_add_birth"])
def test_apply_matches_the_reference_formulas_on_a_table_of_many_fft_blocks(name):
    form = _GOLDEN_FORMS[name][0]
    grid = GridSpec(torus=Torus(dim=2, side=4.0), points_per_axis=32)
    assert grid.num_cells ** 2 > hierarchy._FFT_BLOCK
    table = symmetrised_table(grid, seed=31)
    got = full_vector(l_delta_apply(table, build_stencils(grid, form, 3)))
    want = oracle_l_delta_apply(table, form)
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12 * np.max(np.abs(want)))


_EQUIVARIANCE_FORMS = {
    "glauber_environment": component_form(gg_model(), "environment"),
    "add_death_kernel_birth": _GOLDEN_FORMS["add_death_add_birth"][0],
    "exp_death_const_birth": _EDGE_FORMS["exp_death_const_birth"],
}


@pytest.mark.parametrize("dim,side,n", [(1, 10.0, 40), (2, 4.0, 16), (2, 4.0, 32),
                                        (3, 4.0, 8)])
def test_apply_maps_a_symmetric_table_to_a_symmetric_one(dim, side, n):
    # a translation-reduced k3[j, l] is the correlation of {0, x_j, x_l}, so
    # correlation data are invariant under S3 and the lattice point group.
    # The generator keeps them so: the reference formulas map the expanded
    # table to a P x P k3 with those symmetries, which one value per orbit
    # can hold, and the kernel keeps k2's, on tables of one FFT block (1D)
    # and of many
    grid = GridSpec(torus=Torus(dim=dim, side=side), points_per_axis=n)
    table = symmetrised_table(grid, seed=n)
    gens = k3_generators(grid)
    _, refl, perms = vector_maps(grid)
    p = grid.num_cells
    for name, form in _EQUIVARIANCE_FORMS.items():
        k3 = oracle_l_delta_apply(table, form)[2 + p:].reshape(p, p)
        scale = np.max(np.abs(k3))
        for gen, apply in gens.items():
            defect = np.max(np.abs(apply(k3) - k3))
            assert defect <= 1e-13 * scale, (name, gen, defect / scale)
        out = l_delta_apply(table, build_stencils(grid, form, 3))
        for q in [refl] + perms[1:]:
            assert np.max(np.abs(out.k2[q] - out.k2)) <= 1e-13 * np.max(np.abs(out.k2))


def _smallest_images(grid):
    """The least flat index j' P + l' over the images of every entry [j, l]
    under S3 x the point group, by enumerating the group's 6 2^d d!
    elements on lattice coordinates."""
    n, d, p = grid.points_per_axis, grid.torus.dim, grid.num_cells
    lat = np.array(np.unravel_index(np.arange(p), grid.shape)).T
    a, b = np.repeat(lat, p, axis=0), np.tile(lat, (p, 1))
    best = np.full(p * p, p * p)
    for x, y in ((a, b), (b, a), (-a, b - a), (b - a, -a), (-b, a - b), (a - b, -b)):
        for axes in itertools.permutations(range(d)):
            for signs in itertools.product((1, -1), repeat=d):
                xs, ys = (np.mod(v[:, list(axes)] * signs, n) for v in (x, y))
                flat = (np.ravel_multi_index(tuple(xs.T), grid.shape) * p
                        + np.ravel_multi_index(tuple(ys.T), grid.shape))
                np.minimum(best, flat, out=best)
    return best.reshape(p, p)


@pytest.mark.parametrize("dim,n", [(1, 7), (1, 8), (2, 5), (2, 6), (3, 3), (3, 4)])
def test_orbit_labels_number_the_smallest_images(dim, n):
    # the grid keeps the labels of the representative rows only; their
    # expansion to every entry numbers the smallest images
    grid = GridSpec(torus=Torus(dim=dim, side=4.0), points_per_axis=n)
    kept, reps, sizes = grid.k3_orbits
    assert kept.shape == (grid.cell_orbits.reps.size, grid.num_cells)
    assert kept.dtype == np.int32 and not kept.flags.writeable
    labels = full_labels(grid)
    assert np.array_equal(labels[grid.cell_orbits.reps], kept)
    assert np.array_equal(reps[labels], _smallest_images(grid))
    assert np.all(np.diff(reps) > 0)
    assert np.array_equal(labels.ravel()[reps], np.arange(reps.size))


@pytest.mark.parametrize("dim,n,count", [(1, 9, None), (1, 40, None), (2, 7, None),
                                         (2, 16, 1516), (3, 5, None), (3, 8, None)])
def test_every_generator_fixes_every_orbit_label(dim, n, count):
    grid = GridSpec(torus=Torus(dim=dim, side=4.0), points_per_axis=n)
    _, reps, sizes = grid.k3_orbits
    assert grid.k3_orbits is grid.k3_orbits
    labels = full_labels(grid)
    for gen, apply in k3_generators(grid).items():
        assert np.array_equal(apply(labels), labels), gen
    assert np.array_equal(sizes, np.bincount(labels.ravel()))
    assert sizes.sum() == grid.num_cells ** 2
    if count is not None:
        assert reps.size == count


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
    # the constant-death form is solved order by order: the lower-order
    # stages evaluate the kernel too
    assert len(calls) == sol.evaluations > sol.iterations
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


# Glauber environments, whose death rate is constant: (z, psi, grid).
_CONSTANT_DEATH_CASES = [
    # the hierarchy benchmark's environment: 2D 16x16
    (0.5, Potential.step(0.5, 1.0), GridSpec(torus=Torus(dim=2, side=4.0), points_per_axis=16)),
    (1.5, Potential.step(3.0, 1.0), GRID),
    (0.8, Potential.exponential(1.0, 0.5, 2.0), GRID),
]


def _constant_death_form(z, psi):
    m = GlauberGlauber(z_minus=z, psi=psi, z_plus=0.3,
                       phi_minus=Potential.zero(), phi_plus=Potential.zero())
    return component_form(m, "environment")


# For a constant death rate, l_delta_apply's order-n output reads only
# k0..kn, so the truncated hierarchy is lower block-triangular: the density
# is z / (1 + z beta) at every order, first order in the Mayer mass, and
# the density trajectory does not depend on the order.
@pytest.mark.parametrize("z,psi,grid", _CONSTANT_DEATH_CASES)
def test_constant_death_density_is_first_order_in_the_mayer_mass_at_every_order(z, psi, grid):
    form = _constant_death_form(z, psi)
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



# The order-3 invariant of each case, solved from the forcing at all orders
# at once: density, sup_by_order[2:] and the Lenard check's min_entry and
# min_pairing.
_CONSTANT_DEATH_INVARIANTS = [
    (0.30901198961658227, 0.10171847533840545, 0.035207793321081045,
     0.008076664449162786, 0.2380097423967756),
    (0.38954575588593565, 0.2713791149791831, 0.16926844344605346,
     4.9149915542034926e-05, 0.23759695506289324),
    (0.3236379441725167, 0.1204321986914684, 0.0442815531114867,
     0.004512084239040922, 0.2389663043209609),
]


@pytest.mark.parametrize("case,want", zip(_CONSTANT_DEATH_CASES, _CONSTANT_DEATH_INVARIANTS))
def test_constant_death_order3_invariant_keeps_its_values(case, want):
    z, psi, grid = case
    sol = ks_solve(_constant_death_form(z, psi), grid, order=3)
    lenard = lenard_spot_check(sol.table)
    sup = sol.table.sup_by_order()
    assert sup[:2] == (1.0, sol.table.k1)
    got = (sol.table.k1, *sup[2:], lenard.min_entry, lenard.min_pairing)
    np.testing.assert_allclose(got, want, rtol=1e-9, atol=0.0)

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
    assert ks_solve(form, GRID, order=2).residuals[-1] <= 1e-12
    sol = ks_solve(form, GRID, order=3)
    assert sol.residuals[-1] <= 1e-12
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


def _poison_the_fourth_order3_evaluation(monkeypatch, where, bad):
    """Rebind the kernel so that its fourth order-3 evaluation, in a mixed
    step, writes bad into its order-3 block at orbit index where."""
    real = hierarchy.l_delta_apply
    calls = []

    def poisoned(table, bundle, closure="poisson"):
        out = real(table, bundle, closure=closure)
        calls.append(table.order)
        if table.order == 3 and calls.count(3) == 4:
            assert out.k3.shape == (table.grid.k3_orbits.reps.size,)
            out.k3[where] = bad
        return out

    monkeypatch.setattr(hierarchy, "l_delta_apply", poisoned)


@pytest.mark.parametrize("bad", [math.inf, -math.inf])
def test_solver_stops_on_a_non_finite_iterate(monkeypatch, bad):
    _poison_the_fourth_order3_evaluation(monkeypatch, -1, bad)   # the last orbit value
    with pytest.raises(StabilityError, match="after 4 steps"):
        ks_solve(component_form(gg_model(), "environment"),
                 GridSpec(torus=TORUS1, points_per_axis=32), order=3)


def test_solver_stops_on_a_nan_in_the_third_order_block(monkeypatch):
    _poison_the_fourth_order3_evaluation(monkeypatch, 57, math.nan)   # deep in the vector
    with pytest.raises(StabilityError, match="after 4 steps"):
        ks_solve(component_form(gg_model(), "environment"),
                 GridSpec(torus=TORUS1, points_per_axis=32), order=3)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_gram_solve_matches_a_least_squares_solve(k):
    # the mixing's step gamma minimises |dF gamma - f|; np.linalg.lstsq on
    # dF is the reference, on well-conditioned columns to 1e-10, and on a
    # column that is a multiple of another to the same residual norm, with
    # that column left out
    rng = np.random.default_rng(k)
    for _ in range(20):
        df = rng.normal(size=(40, k)) * rng.uniform(1e-3, 1e3, k)
        f = rng.normal(size=40)
        got = hierarchy._gram_solve(df.T @ df, df.T @ f)
        want = np.linalg.lstsq(df, f, rcond=None)[0]
        np.testing.assert_allclose(got, want, rtol=1e-10, atol=1e-10 * np.max(np.abs(want)))
    df = np.column_stack([df, 3.0 * df[:, 0]])
    got = hierarchy._gram_solve(df.T @ df, df.T @ f)
    assert got[0] == 0.0 or got[k] == 0.0
    want = np.linalg.lstsq(df, f, rcond=None)[0]
    assert np.linalg.norm(df @ got - f) == pytest.approx(np.linalg.norm(df @ want - f), rel=1e-12)
    assert not np.any(hierarchy._gram_solve(np.zeros((k, k)), np.zeros(k)))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, -2e8])
@pytest.mark.parametrize("where", [0, 1, 500, -1])
def test_the_stability_guard_fails_on_any_bad_entry(where, bad):
    vec = np.linspace(-1.0, 1.0, 1001)
    hierarchy._check_stable(vec, 1)
    vec[where] = bad
    with pytest.raises(StabilityError):
        hierarchy._check_stable(vec, 1)


def _array_bytes(obj) -> int:
    """Bytes of the arrays a stencil bundle holds, its parts' included."""
    if isinstance(obj, np.ndarray):
        return obj.nbytes
    if isinstance(obj, tuple):
        return sum(_array_bytes(o) for o in obj)
    if isinstance(obj, (hierarchy.StencilBundle, hierarchy.StencilPart)):
        return sum(_array_bytes(o) for o in vars(obj).values())
    return 0


def test_solve_holds_the_orbit_labels_its_bundle_and_no_square_float_array():
    # the solver and the table it returns keep k3 on the orbits: at its
    # peak it holds the grid's int32 orbit labels of the |F| representative
    # rows (|F| P of them) and the arrays of its stencil bundle, which it
    # builds, and within a slack of 5/8 of P^2 floats the mixing's table
    # vectors (0.02 P^2 floats each), the kernel's representative rows of
    # k3 (0.15) and their temporaries
    model = GlauberGlauber(z_minus=0.5, psi=Potential.step(0.5, 1.0), z_plus=0.3,
                           phi_minus=Potential.zero(), phi_plus=Potential.zero())
    form = component_form(model, "environment")
    grid = GridSpec(torus=Torus(dim=2, side=4.0), points_per_axis=32)
    assert "k3_orbits" not in vars(grid)
    tracemalloc.start()
    try:
        ks_solve(form, grid, order=3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    square_bytes = 8 * grid.num_cells ** 2
    label_bytes = 4 * grid.cell_orbits.reps.size * grid.num_cells
    bundle_bytes = _array_bytes(build_stencils(grid, form, 3))
    limit = label_bytes + bundle_bytes + 5 * square_bytes // 8
    assert peak <= limit, (
        f"peak {peak / square_bytes:.3f} P^2 floats, limit {limit / square_bytes:.3f} "
        f"(labels {label_bytes / square_bytes:.3f}, bundle {bundle_bytes / square_bytes:.3f})")


@pytest.mark.parametrize("form", ["exp_death_exp_birth", "add_death_add_birth",
                                  "const_death_exp_birth"])
@pytest.mark.parametrize("dim,side,n", [(1, 10.0, 256), (2, 4.0, 32), (3, 4.0, 10)])
def test_order3_bundle_build_holds_one_row_array_and_the_row_differences(dim, side, n, form):
    # above the arrays it returns, the order-3 build holds at most the int32
    # row differences (4 |F| P bytes) and one float array on the
    # representative rows (8 |F| P bytes).  A first build warms the grid's
    # cached arrays and the potential functionals, which are not counted
    grid = GridSpec(torus=Torus(dim=dim, side=side), points_per_axis=n)
    form = _GOLDEN_FORMS[form][0]
    build_stencils(grid, form, 3)
    tracemalloc.start()
    try:
        bundle = build_stencils(grid, form, 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    rows = grid.cell_orbits.reps.size * grid.num_cells
    transient = peak - _array_bytes(bundle)
    assert transient <= 12 * rows, f"{transient / rows:.1f} |F| P bytes above the bundle"


@pytest.mark.parametrize("dim,side,n", [(1, 10.0, 40), (2, 4.0, 16), (3, 4.0, 8)])
def test_order3_tables_hold_one_k3_value_per_orbit(dim, side, n):
    # a Poisson table, every record of an order-3 evolution and the solved
    # table: 2 + P + R floats each
    grid = GridSpec(torus=Torus(dim=dim, side=side), points_per_axis=n)
    size = 2 + grid.num_cells + grid.k3_orbits.reps.size
    form = _GOLDEN_FORMS["exp_death_exp_birth"][0]
    init = CorrelationTable.poisson(grid, 3, 0.6)
    traj = evolve_hierarchy(init, form, t_final=0.1, dt=0.05, record_every=1)
    tables = [init, *traj.tables, ks_solve(form, grid, order=3).table]
    assert len(tables) == 5
    for t in tables:
        assert t.vec.shape == (size,) and t.vec.dtype == np.float64
        assert t.k3.shape == (grid.k3_orbits.reps.size,)


@pytest.mark.parametrize("form", ["exp_death_exp_birth", "add_death_add_birth",
                                  "const_birth"])
def test_order3_bundle_keeps_int32_indices_and_one_coefficient_array(form):
    # the birth term's coefficient on the representative rows, one float
    # array of |F| x P, or |F| x 1 without a birth stencil; the bundle keeps
    # no index array
    grid = GridSpec(torus=Torus(dim=2, side=4.0), points_per_axis=16)
    bundle = build_stencils(grid, _GOLDEN_FORMS[form][0], 3)
    width = grid.num_cells if bundle.birth is not None else 1
    assert bundle.birth3.dtype == np.float64
    assert bundle.birth3.shape == (grid.cell_orbits.reps.size, width)
    indices = [k for k, v in vars(bundle).items() if isinstance(v, np.ndarray) and v.dtype.kind != "f"]
    assert indices == ["neg"]


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
        assert sol.residuals[-1] <= 1e-12
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


@pytest.mark.parametrize("shape", ["P x P", "R + 1", "R x 1"])
def test_an_order3_table_refuses_a_k3_that_is_not_one_value_per_orbit(shape):
    grid = GridSpec(torus=Torus(dim=1, side=4.5), points_per_axis=9)
    p, r = grid.num_cells, grid.k3_orbits.reps.size
    k3 = np.ones({"P x P": (p, p), "R + 1": (r + 1,), "R x 1": (r, 1)}[shape])
    with pytest.raises(ConfigError, match=rf"k3 must have shape \({r},\)"):
        CorrelationTable(grid, 3, 1.0, 0.8, np.ones(p), k3)


@pytest.mark.parametrize("dim,n", [(1, 9), (2, 6), (3, 4)])
def test_an_expanded_table_has_every_symmetry_of_correlation_data(dim, n):
    # whatever its orbit values, an order-3 table cannot break S3 or the
    # lattice point group: its P x P expansion is fixed by every generator
    grid = GridSpec(torus=Torus(dim=dim, side=4.0), points_per_axis=n)
    rng = np.random.default_rng(n)
    table = CorrelationTable(grid, 3, 1.0, 0.8, None, rng.normal(size=grid.k3_orbits.reps.size))
    k3 = expanded(table)
    for gen, apply in k3_generators(grid).items():
        assert np.array_equal(apply(k3), k3), gen
