"""Lattice-reduced correlation tables and their integral functionals."""

import math

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
    _triple_sum,
    corrected_stencil,
    exp_mayer_functional,
    product_expectation,
    radial_profile,
    validate_grid_for_model,
)

from conftest import TORUS1

GRID = GridSpec(torus=TORUS1, points_per_axis=50)


def test_diff_index_encodes_lattice_subtraction():
    g = GridSpec(torus=Torus(dim=2, side=4.0), points_per_axis=5)
    off = g.offsets
    di = g.diff_index
    for name in ("offsets", "distances", "diff_index"):
        arr = getattr(g, name)
        assert not arr.flags.writeable
        assert getattr(g, name) is arr
    rng = np.random.default_rng(0)
    for j, l in rng.integers(0, g.num_cells, size=(20, 2)):
        want = np.mod(off[j] - off[l], g.torus.side)
        got = off[di[j, l]]
        assert np.allclose(min_image_diff(got - want, g.torus.side), 0.0, atol=1e-9)


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
    p = g.num_cells
    t = CorrelationTable(
        g, order, rng.normal(), rng.normal(),
        rng.normal(size=p) if order >= 2 else None,
        rng.normal(size=(p, p)) if order >= 3 else None)
    back = CorrelationTable.from_vector(t, t.as_vector())
    assert back.k0 == t.k0 and back.k1 == t.k1
    if order >= 2:
        assert np.array_equal(back.k2, t.k2)
    if order >= 3:
        assert np.array_equal(back.k3, t.k3)


def test_a_table_is_a_view_of_one_flat_vector():
    g = GridSpec(torus=TORUS1, points_per_axis=8)
    p = g.num_cells
    k2, k3 = np.arange(p, dtype=float), np.ones((p, p))
    t = CorrelationTable(g, 3, 1.0, 0.5, k2, k3)
    assert not np.shares_memory(t.k2, k2) and not np.shares_memory(t.k3, k3)
    vec = t.as_vector()
    assert vec.shape == (2 + p + p * p,) and not np.shares_memory(vec, t.vec)
    view = CorrelationTable.from_vector(t, vec)
    view.k0, view.k1 = 0.0, 2.0
    view.k2[1] = -1.0
    view.k3[2, 3] = 7.0
    assert vec[0] == 0.0 and vec[1] == 2.0 and vec[3] == -1.0
    assert vec[2 + p + 2 * p + 3] == 7.0
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


@pytest.mark.parametrize("dim,n", [(1, 7), (2, 5), (3, 3)])
def test_triple_sum_matches_the_brute_force_sum(dim, n):
    # sum over p1, p2, p3 of w[p1] w[p2] w[p3] k3[p2 - p1, p3 - p1], with the
    # offset differences taken on the lattice, not from diff_index
    grid = GridSpec(torus=Torus(dim=dim, side=float(n)), points_per_axis=n)
    p = grid.num_cells
    rng = np.random.default_rng(10 + dim)
    k3 = rng.normal(size=(p, p))
    w = rng.normal(size=p)
    shape = (n,) * dim
    lat = np.array(np.unravel_index(np.arange(p), shape)).T

    def diff(a, b):
        return int(np.ravel_multi_index(tuple(np.mod(lat[a] - lat[b], n)), shape))

    expected = sum(w[p1] * w[p2] * w[p3] * k3[diff(p2, p1), diff(p3, p1)]
                   for p1 in range(p) for p2 in range(p) for p3 in range(p))
    got = _triple_sum(k3, w, grid.diff_index)
    assert abs(got - expected) <= 1e-12 * abs(expected)


def test_product_expectation_matches_the_brute_force_sums():
    # k0 + k1 sum g dv + 1/2 sum g g k2 dv^2 + 1/6 sum g g g k3 dv^3, with
    # the offset differences taken on the lattice, not from diff_index
    n, dv = 4, 0.3
    grid = GridSpec(torus=Torus(dim=2, side=float(n)), points_per_axis=n)
    p = grid.num_cells
    rng = np.random.default_rng(5)
    table = CorrelationTable(grid, 3, 1.0, 0.7, rng.normal(size=p), rng.normal(size=(p, p)))
    g = rng.normal(size=p)
    lat = np.array(np.unravel_index(np.arange(p), (n, n))).T

    def diff(a, b):
        return int(np.ravel_multi_index(tuple(np.mod(lat[a] - lat[b], n)), (n, n)))

    pair = sum(g[a] * g[b] * table.k2[diff(b, a)] for a in range(p) for b in range(p))
    triple = sum(g[a] * g[b] * g[c] * table.k3[diff(b, a), diff(c, a)]
                 for a in range(p) for b in range(p) for c in range(p))
    partial = [1.0, 0.7 * g.sum() * dv, pair * dv ** 2 / 2, triple * dv ** 3 / 6]
    for order in (1, 2, 3):
        t = CorrelationTable(grid, order, 1.0, 0.7, table.k2, table.k3)
        got = product_expectation(t, g, dv)
        assert got == pytest.approx(sum(partial[:order + 1]), rel=1e-12)
        if order >= 2:
            assert product_expectation(t, g, dv, t.k2[grid.diff_index]) == got


def test_a_grid_above_the_cell_cap_is_refused_naming_grid_points():
    # the default 64 points per axis is the cap in 2D; in 3D it asks for a
    # P x P index of 1.5 TiB
    assert GridSpec(torus=Torus(dim=2, side=10.0), points_per_axis=64).num_cells == MAX_GRID_CELLS
    with pytest.raises(SizeLimitError, match="grid_points 64 in 3D gives P = 262144 cells"):
        GridSpec(torus=Torus(dim=3, side=4.0), points_per_axis=64)
    with pytest.raises(SizeLimitError, match=f"above the cap of {MAX_GRID_CELLS}"):
        GridSpec(torus=TORUS1, points_per_axis=MAX_GRID_CELLS + 1)
