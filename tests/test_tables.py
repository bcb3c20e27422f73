"""Lattice-reduced correlation tables and their integral functionals."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from coupledbd.errors import ConfigError, EvaluationError, SizeLimitError
from coupledbd.geometry import Torus, min_image_diff
from coupledbd.potentials import Potential, potential_functionals
from coupledbd.tables import (
    MAX_GRID_CELLS,
    CorrelationTable,
    GridSpec,
    corrected_stencil,
    exp_mayer_functional,
    product_expectation,
    radial_profile,
    validate_grid_for_model,
)

from conftest import TORUS1
from hierarchy_oracle import (
    dense_triple_sum,
    expanded,
    full_diff_index,
    full_labels,
    packed,
    radial_field,
    symmetrised,
    symmetrised_table,
)

GRID = GridSpec(torus=TORUS1, points_per_axis=50)


def test_diff_index_encodes_lattice_subtraction():
    g = GridSpec(torus=Torus(dim=2, side=4.0), points_per_axis=5)
    off = g.offsets
    di = g.diff_index
    for name in ("offsets", "distances"):
        arr = getattr(g, name)
        assert not arr.flags.writeable
        assert getattr(g, name) is arr
    assert not di.flags.writeable
    assert di.shape == (g.cell_orbits.reps.size, g.num_cells)
    rng = np.random.default_rng(0)
    for o, l in zip(rng.integers(0, di.shape[0], 20), rng.integers(0, g.num_cells, 20)):
        want = np.mod(off[g.cell_orbits.reps[o]] - off[l], g.torus.side)
        got = off[di[o, l]]
        assert np.allclose(min_image_diff(got - want, g.torus.side), 0.0, atol=1e-9)


@pytest.mark.parametrize("dim,n", [(1, 9), (2, 6), (3, 4)])
def test_diff_index_matches_the_lattice_subtraction_on_every_pair(dim, n):
    g = GridSpec(torus=Torus(dim=dim, side=4.0), points_per_axis=n)
    lat = np.array(np.unravel_index(np.arange(g.num_cells), g.shape)).T
    want = np.ravel_multi_index(tuple(np.mod(lat[:, None] - lat[None, :], n).T), g.shape).T
    assert g.diff_index.dtype == np.int32
    assert np.array_equal(g.diff_index, want[g.cell_orbits.reps])
    assert np.array_equal(full_diff_index(g), want)


def test_diff_index_builds_without_a_temporary_larger_than_itself():
    # per axis in int32: the 2D 32 x 32 rows are 0.6 MB (153 rows of 1024
    # cells), built with the grid's cell orbits
    g = GridSpec(torus=Torus(dim=2, side=4.0), points_per_axis=32)
    tracemalloc.start()
    try:
        di = g.diff_index
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * di.nbytes, f"peak {peak / di.nbytes:.2f} times the index"


@pytest.mark.parametrize("side, n", [(3.0, 30), (10.0, 7), (4.0, 16)])
def test_lattice_offsets_k_and_minus_k_have_the_same_distance(side, n):
    # a cell spacing that binary floats do not hold exactly (side 3, n 30)
    # used to give offsets k and -k distances an ulp apart, which moved
    # cells at a cutoff on one side only
    g = GridSpec(torus=Torus(dim=2, side=side), points_per_axis=n)
    lat = np.rint(g.offsets / g.h).astype(int)
    minus = np.ravel_multi_index(tuple(((-lat) % n).T), (n, n))
    assert np.array_equal(g.distances, g.distances[minus])
    assert np.allclose(g.distances, np.linalg.norm(min_image_diff(g.offsets, side), axis=1),
                       rtol=0.0, atol=1e-12)


def test_poisson_factory_fills_constant_powers():
    t = CorrelationTable.poisson(GRID, 3, 0.8)
    assert t.k0 == 1.0 and t.k1 == 0.8
    assert np.all(t.k2 == 0.8 ** 2)
    assert np.all(t.k3 == 0.8 ** 3)
    d = CorrelationTable(GRID, 2, 1.0, 0.0)
    assert d.k0 == 1.0 and d.k1 == 0.0 and np.all(d.k2 == 0.0)


def test_table_rejects_wrong_shapes_and_orders():
    with pytest.raises(ConfigError):
        CorrelationTable(GRID, 4, 1.0, 0.0)
    with pytest.raises(ConfigError):
        CorrelationTable(GRID, 2, 1.0, 0.0, np.zeros(3))
    with pytest.raises(ConfigError):
        CorrelationTable(GRID, 3, 1.0, 0.0, None, np.zeros((2, 2)))


@given(st.integers(1, 3), st.integers(0, 10**6))
def test_vector_roundtrip_is_identity(order, seed):
    rng = np.random.default_rng(seed)
    g = GridSpec(torus=TORUS1, points_per_axis=8)
    p, r = g.num_cells, g.k3_orbits.reps.size
    t = CorrelationTable(
        g, order, rng.normal(), rng.normal(),
        rng.normal(size=p) if order >= 2 else None,
        rng.normal(size=r) if order >= 3 else None)
    back = CorrelationTable.from_vector(t, t.as_vector())
    assert back.k0 == t.k0 and back.k1 == t.k1
    if order >= 2:
        assert np.array_equal(back.k2, t.k2)
    if order >= 3:
        assert np.array_equal(back.k3, t.k3)


def test_a_table_is_a_view_of_one_flat_vector():
    g = GridSpec(torus=TORUS1, points_per_axis=8)
    p, r = g.num_cells, g.k3_orbits.reps.size
    k2, k3 = np.arange(p, dtype=float), np.ones(r)
    t = CorrelationTable(g, 3, 1.0, 0.5, k2, k3)
    assert not np.shares_memory(t.k2, k2) and not np.shares_memory(t.k3, k3)
    vec = t.as_vector()
    assert vec.shape == (2 + p + r,) and not np.shares_memory(vec, t.vec)
    view = CorrelationTable.from_vector(t, vec)
    view.k0, view.k1 = 0.0, 2.0
    view.k2[1] = -1.0
    view.k3[5] = 7.0
    assert vec[0] == 0.0 and vec[1] == 2.0 and vec[3] == -1.0
    assert vec[2 + p + 5] == 7.0
    assert t.k0 == 1.0 and t.k2[1] == 1.0
    with pytest.raises(ConfigError):
        CorrelationTable.from_vector(t, vec[:-1])


def test_kc_norm_weights_orders_geometrically():
    t = CorrelationTable.poisson(GRID, 3, 2.0)
    for c in (0.5, 1.0, 4.0):
        want = max(1.0, 2.0 / c, 4.0 / c ** 2, 8.0 / c ** 3)
        assert t.kc_norm(c) == pytest.approx(want, rel=1e-12)
    with pytest.raises(ValueError):
        t.kc_norm(0.0)


def test_sup_by_order_reads_each_block_without_a_copy():
    # max |k| per order from each block's largest and smallest entries: no
    # temporary of the block's size, a NaN propagates, and -0.0 reads 0.0;
    # at 32 x 32, k3's 22 444 orbit values are 180 kB
    grid = GridSpec(torus=Torus(dim=2, side=4.0), points_per_axis=32)
    p = grid.num_cells
    rng = np.random.default_rng(5)
    t = CorrelationTable(grid, 3, 1.0, -0.4, rng.normal(size=p),
                         rng.normal(size=grid.k3_orbits.reps.size))
    want = (1.0, 0.4, float(np.max(np.abs(t.k2))), float(np.max(np.abs(t.k3))))
    tracemalloc.start()
    try:
        got = t.sup_by_order()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got == want
    assert peak < t.k3.nbytes // 16
    t.k3[7] = math.nan
    assert math.isnan(t.sup_by_order()[3])
    zero = CorrelationTable(grid, 2, 0.0, 0.0, np.full(p, -0.0))
    assert math.copysign(1.0, zero.sup_by_order()[2]) == 1.0


def test_mayer_stencil_mass_matches_the_exact_functional():
    # the factors pot, e^{-pot} - 1 and e^{+pot} - 1 carry the masses l1,
    # -beta and beta_neg, in 1D and 2D
    pot = Potential.step(0.7, 1.3)
    for grid in (GRID, GridSpec(torus=Torus(dim=2, side=6.0), points_per_axis=24)):
        f = potential_functionals(pot, grid.torus.dim)
        for sign, mass in ((0, f.l1), (-1, -f.beta), (1, f.beta_neg)):
            w = corrected_stencil(grid, pot, sign)
            assert float(np.sum(w)) * grid.cell_volume == pytest.approx(mass, rel=1e-12)
    with pytest.raises(EvaluationError):
        corrected_stencil(GRID, Potential.step(800.0, 1.0), 1)


def test_corrected_stencil_is_the_raw_factor_rescaled():
    pot = Potential.step(0.7, 1.3)
    raw = pot(GRID.distances)
    for sign in (0, -1, 1):
        factor = np.expm1(sign * raw) if sign else raw
        w = corrected_stencil(GRID, pot, sign)
        assert np.allclose(w, factor * (w[0] / factor[0]), rtol=1e-14, atol=0.0)


def test_radial_profile_recovers_distance_functions():
    f = np.cos(GRID.distances)
    r, mean, count = radial_profile(GRID, f)
    assert np.all(np.diff(r) > 0)
    assert int(np.sum(count)) == GRID.num_cells
    assert np.allclose(mean, np.cos(r), atol=1e-9)


def test_grid_resolution_guard_triggers_on_coarse_grids():
    coarse = GridSpec(torus=TORUS1, points_per_axis=4)   # h = 2.5
    pot = Potential.step(1.0, 1.0)
    with pytest.raises(ConfigError):
        validate_grid_for_model(coarse, {"psi": pot})
    validate_grid_for_model(GRID, {"psi": pot})


# ---------------------------------------------------------------------------
# the averaged exponential factor

def test_exp_mayer_on_zero_potential_is_one():
    t = CorrelationTable.poisson(GRID, 3, 1.0)
    assert exp_mayer_functional(t, Potential.zero()) == (1.0, 0.0)


def test_exp_mayer_matches_the_truncated_poisson_series_exactly():
    # for a Poisson table the expansion collapses to the partial exponential
    # series in -rho * beta, order by order
    pot = Potential.step(0.5, 1.0)
    beta = potential_functionals(pot, 1).beta
    for rho, order in [(0.3, 1), (0.3, 2), (0.3, 3), (0.8, 3)]:
        t = CorrelationTable.poisson(GRID, order, rho)
        val, tail = exp_mayer_functional(t, pot)
        x = -rho * beta
        partial = sum(x ** n / math.factorial(n) for n in range(order + 1))
        assert val == pytest.approx(partial, rel=1e-10)
        assert abs(val - math.exp(x)) <= tail + 1e-12


def test_exp_mayer_tail_shrinks_with_order():
    pot = Potential.step(0.5, 1.0)
    tails = [exp_mayer_functional(CorrelationTable.poisson(GRID, n, 0.5), pot)[1]
             for n in (1, 2, 3)]
    assert tails[0] > tails[1] > tails[2] > 0.0


def test_exp_mayer_on_a_dense_table_has_an_infinite_tail():
    # x = c * beta_hat is about 795 here, past the float range of e^x: the
    # tail bound is inf, not an OverflowError
    t = CorrelationTable.poisson(GridSpec(Torus(1, 10.0), 64), 3, 400.0)
    val, tail = exp_mayer_functional(t, Potential.step(5.0, 1.0))
    assert math.isfinite(val)
    assert tail == math.inf


def test_exp_mayer_on_empty_state_is_exact():
    t = CorrelationTable(GRID, 3, 1.0, 0.0)
    val, tail = exp_mayer_functional(t, Potential.step(2.0, 1.0))
    assert val == 1.0
    assert tail == 0.0


def _triple_sum(grid, k3, w):
    """The triple sum of product_expectation, from a table whose lower
    orders are zero and whose k3 holds the orbit values of k3, a P x P
    array invariant under S3 x the point group."""
    p = grid.num_cells
    table = CorrelationTable(grid, 3, 0.0, 0.0, np.zeros(p), packed(grid, k3))
    return 6.0 * product_expectation(table, w)


@pytest.mark.parametrize("dim,n", [(1, 7), (2, 5), (3, 3)])
def test_triple_sum_matches_the_brute_force_sum(dim, n):
    # sum over p1, p2, p3 of w[p1] w[p2] w[p3] k3[p2 - p1, p3 - p1], with the
    # offset differences taken on the lattice, not from full_diff_index; k3 has
    # the symmetries of correlation data and w is radial
    grid = GridSpec(torus=Torus(dim=dim, side=float(n)), points_per_axis=n)
    p = grid.num_cells
    rng = np.random.default_rng(10 + dim)
    k3 = expanded(symmetrised_table(grid, seed=10 + dim))
    w = radial_field(grid, rng)
    shape = (n,) * dim
    lat = np.array(np.unravel_index(np.arange(p), shape)).T

    def diff(a, b):
        return int(np.ravel_multi_index(tuple(np.mod(lat[a] - lat[b], n)), shape))

    expected = sum(w[p1] * w[p2] * w[p3] * k3[diff(p2, p1), diff(p3, p1)]
                   for p1 in range(p) for p2 in range(p) for p3 in range(p))
    for got in (_triple_sum(grid, k3, w), dense_triple_sum(k3, w, full_diff_index(grid))):
        assert abs(got - expected) <= 1e-12 * abs(expected)


@pytest.mark.parametrize("dim,n", [(1, 16), (1, 9), (2, 6), (2, 7), (3, 4), (3, 5)])
def test_fourier_triple_sum_matches_the_dense_sum(dim, n):
    # even and odd sides: the real transform keeps a Nyquist column only
    # for even n.  k3 is invariant under S3 x the lattice point group, as
    # the table's layout holds it; every w is radial
    grid = GridSpec(torus=Torus(dim=dim, side=float(n)), points_per_axis=n)
    p = grid.num_cells
    rng = np.random.default_rng(100 * dim + n)
    k3 = symmetrised(grid, np.zeros(p), rng.normal(size=(p, p)))[1]
    k3 = packed(grid, k3)[full_labels(grid)]
    di = full_diff_index(grid)
    for _ in range(3):
        w = radial_field(grid, rng)
        want = dense_triple_sum(k3, w, di)
        scale = dense_triple_sum(np.abs(k3), np.abs(w), di)
        assert abs(_triple_sum(grid, k3, w) - want) <= 1e-13 * scale


@pytest.mark.parametrize("dim,n", [(1, 7), (2, 4), (3, 3)])
def test_product_expectation_matches_the_brute_force_sums(dim, n):
    # k0 + k1 sum g dv + 1/2 sum g g k2 dv^2 + 1/6 sum g g g k3 dv^3, with
    # the offset differences taken on the lattice, not from full_diff_index, k2
    # and k3 with the symmetries of correlation data and g radial
    dv = 0.3
    grid = GridSpec(torus=Torus(dim=dim, side=float(n)), points_per_axis=n)
    p = grid.num_cells
    rng = np.random.default_rng(5)
    full = symmetrised_table(grid, seed=5)
    table = CorrelationTable(grid, 3, 1.0, 0.7, full.k2, full.k3)
    g = radial_field(grid, rng)
    lat = np.array(np.unravel_index(np.arange(p), grid.shape)).T

    def diff(a, b):
        return int(np.ravel_multi_index(tuple(np.mod(lat[a] - lat[b], n)), grid.shape))

    pair = sum(g[a] * g[b] * table.k2[diff(b, a)] for a in range(p) for b in range(p))
    k3 = expanded(table)
    triple = sum(g[a] * g[b] * g[c] * k3[diff(b, a), diff(c, a)]
                 for a in range(p) for b in range(p) for c in range(p))
    partial = [1.0, 0.7 * g.sum() * dv, pair * dv ** 2 / 2, triple * dv ** 3 / 6]
    for order in (1, 2, 3):
        t = CorrelationTable(grid, order, 1.0, 0.7, table.k2, table.k3)
        got = product_expectation(t, g, dv)
        assert got == pytest.approx(sum(partial[:order + 1]), rel=1e-12)


def test_a_grid_above_the_cell_cap_is_refused_naming_grid_points():
    # the default 64 points per axis is the cap in 2D; in 3D it would ask
    # for 6.9 GB of order-3 orbit labels (|F| P int32, |F| = 6545)
    assert GridSpec(torus=Torus(dim=2, side=10.0), points_per_axis=64).num_cells == MAX_GRID_CELLS
    with pytest.raises(SizeLimitError, match="grid_points 64 in 3D gives P = 262144 cells"):
        GridSpec(torus=Torus(dim=3, side=4.0), points_per_axis=64)
    with pytest.raises(SizeLimitError, match=f"above the cap of {MAX_GRID_CELLS}"):
        GridSpec(torus=TORUS1, points_per_axis=MAX_GRID_CELLS + 1)
