"""Configuration-space combinatorics, metric geometry, and quadrature."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from coupledbd.errors import SizeLimitError
from coupledbd.geometry import (
    MAX_ENUMERATION_SIZE,
    FiniteConfiguration,
    MarkedConfiguration,
    QuadratureSpec,
    Torus,
    ball_volume,
    distances_from,
    k_inverse,
    lp_integral,
    min_image_diff,
    pairwise_distances,
    subsets_sum,
    torus_distance,
)

from conftest import TORUS1


def _random_config(rng, n, torus=TORUS1):
    if n == 0:
        return FiniteConfiguration.empty(torus.dim), np.zeros(0)
    pts = torus.uniform(rng, n)
    vals = rng.uniform(-2.0, 2.0, size=n)
    return FiniteConfiguration(pts), vals


def _product_observable(pts, vals):
    table = {tuple(p): v for p, v in zip(pts, vals)}

    def f(xi):
        out = 1.0
        for p in xi.points:
            out *= table[tuple(p)]
        return out

    return f


@given(st.integers(0, 10), st.integers(0, 10**6))
def test_subset_sum_of_products_is_product_of_one_plus(n, seed):
    rng = np.random.default_rng(seed)
    eta, vals = _random_config(rng, n)
    f = _product_observable(eta.points, vals)
    total = subsets_sum(eta, f)
    expected = float(np.prod(1.0 + vals)) if n else 1.0
    scale = max(1.0, abs(expected))
    assert abs(total - expected) <= 1e-12 * scale


@given(st.integers(0, 6), st.integers(0, 10**6))
def test_moebius_inverts_subset_sums(n, seed):
    rng = np.random.default_rng(seed)
    eta, vals = _random_config(rng, n)
    table = {tuple(p): v for p, v in zip(eta.points, vals)}

    def g(xi):
        vs = [table[tuple(p)] for p in xi.points]
        return float(sum(vs) + np.prod([1.0 + 0.1 * v for v in vs]))

    def big_f(xi):
        return subsets_sum(xi, g)

    assert k_inverse(big_f, eta) == pytest.approx(g(eta), rel=1e-9, abs=1e-9)


@given(st.integers(1, 8), st.integers(0, 10**6))
def test_subsets_sum_ignores_storage_order(n, seed):
    rng = np.random.default_rng(seed)
    eta, vals = _random_config(rng, n)
    f = _product_observable(eta.points, vals)
    perm = rng.permutation(n)
    assert subsets_sum(eta, f) == pytest.approx(
        subsets_sum(eta.reordered(perm), f), rel=1e-12, abs=1e-12)


def test_subsets_sum_rejects_oversized_configurations():
    n = MAX_ENUMERATION_SIZE + 1
    pts = np.linspace(0.0, 9.0, n)[:, None]
    eta = FiniteConfiguration(pts)
    with pytest.raises(SizeLimitError):
        subsets_sum(eta, lambda xi: 1.0)


def test_configuration_rejects_coincident_points():
    with pytest.raises(ValueError):
        FiniteConfiguration([[1.0], [2.0], [1.0]])


def test_configuration_set_operations():
    eta = FiniteConfiguration([[1.0], [2.0], [3.0]])
    assert eta.add_point([4.0]).size == 4
    assert eta.remove_index(1).size == 2
    assert np.allclose(eta.subset([0, 2]).points.ravel(), [1.0, 3.0])


@given(st.integers(0, 10**6))
def test_torus_distance_is_a_wrapped_metric(seed):
    rng = np.random.default_rng(seed)
    p, q, w = (TORUS1.uniform(rng, 1)[0] for _ in range(3))
    dpq = torus_distance(p, q, TORUS1)
    assert dpq >= 0.0
    assert dpq == pytest.approx(torus_distance(q, p, TORUS1), abs=1e-12)
    assert dpq <= TORUS1.max_distance + 1e-12
    # triangle inequality and translation invariance under wrapping
    assert dpq <= (torus_distance(p, w, TORUS1)
                   + torus_distance(w, q, TORUS1) + 1e-12)
    shift = rng.uniform(0.0, 50.0)
    assert dpq == pytest.approx(
        torus_distance(TORUS1.wrap(p + shift), TORUS1.wrap(q + shift), TORUS1),
        abs=1e-9)


def test_torus_distance_uses_minimal_image():
    t = Torus(dim=2, side=4.0)
    assert torus_distance([0.1, 0.1], [3.9, 3.9], t) == pytest.approx(
        math.sqrt(0.08), abs=1e-12)


def test_pairwise_distances_matches_scalar_route():
    rng = np.random.default_rng(7)
    t = Torus(dim=3, side=5.0)
    a, b = t.uniform(rng, 4), t.uniform(rng, 6)
    mat = pairwise_distances(a, b, t)
    for i in range(4):
        for j in range(6):
            assert mat[i, j] == pytest.approx(
                torus_distance(a[i], b[j], t), abs=1e-12)
    # leading axes broadcast, bit for bit: a point against an (S, n, dim)
    # block, and paired (S, dim) rows
    block = t.uniform(rng, 12).reshape(2, 6, 3)
    got = distances_from(a[0], block, t)
    assert got.shape == (2, 6)
    assert np.array_equal(got, pairwise_distances(a[:1], block.reshape(12, 3), t).reshape(2, 6))
    rows = distances_from(a, b[:4], t)
    assert rows.shape == (4,)
    assert np.array_equal(rows, np.diag(pairwise_distances(a, b[:4], t)))


# sides whose multiples and halves are and are not exact in binary
_FOLD_SIDES = (1.0, 3.0, 10.0, 0.3, 7.1, 100.0 / 3.0)


def _within_ulps(base, k=4):
    """base and the k floats on either side of each of its entries."""
    out = [base]
    for direction in (-np.inf, np.inf):
        x = base
        for _ in range(k):
            x = np.nextafter(x, direction)
            out.append(x)
    return np.concatenate(out)


def _torus_gap(a, b, side):
    """Distance between a and b on the circle of circumference side."""
    d = np.abs(a - b)
    return np.minimum(d, np.abs(side - d))


@pytest.mark.parametrize("side", _FOLD_SIDES)
def test_wrap_matches_np_mod_within_an_ulp_and_stays_in_range(side):
    # wrap sees a point plus an offset of at most side/2, so inputs from
    # -side to 2 side; near a multiple of side the fold's division rounds
    rng = np.random.default_rng(11)
    x = np.concatenate([_within_ulps(np.array([-1.0, 0.0, 1.0, 2.0]) * side),
                        rng.uniform(-side, 2.0 * side, 500)])
    got = Torus(1, side).wrap(x[:, None])[:, 0]
    assert np.all((got >= 0.0) & (got < side))
    assert np.all(_torus_gap(got, np.mod(x, side), side) <= np.spacing(side))


@pytest.mark.parametrize("side", _FOLD_SIDES)
def test_min_image_diff_matches_np_mod_within_an_ulp_and_keeps_its_range(side):
    # differences of wrapped points lie in (-side, side)
    half = 0.5 * side
    rng = np.random.default_rng(12)
    inner = np.concatenate([_within_ulps(np.array([-1.0, 0.0, 1.0]) * side),
                            rng.uniform(-side, side, 500)])
    edges = _within_ulps(np.array([-half, half]))
    for d in (inner, edges):
        got = min_image_diff(d, side)
        reference = np.mod(d + half, side) - half
        assert np.all(_torus_gap(got, reference, side) <= np.spacing(side))
    assert np.all((min_image_diff(inner, side) >= -half) & (min_image_diff(inner, side) < half))
    # within ulps of +-side/2 the fold may land an ulp below -side/2, the
    # same point on the torus (np.mod lands on +side/2 there)
    got = min_image_diff(edges, side)
    assert np.all((got >= -half - np.spacing(half)) & (got < half))
    assert list(min_image_diff(np.array([half, -half]), side)) == [-half, -half]


def test_marked_configuration_counts_components():
    eta = MarkedConfiguration(
        plus=FiniteConfiguration([[1.0], [2.0]]),
        minus=FiniteConfiguration([[3.0]]))
    assert eta.total_size == 3
    assert eta.dim == 1


# ---------------------------------------------------------------------------
# truncated configuration-space integrals

def test_lp_integral_order_zero_is_empty_set_value():
    res = lp_integral(lambda cfg: 2.5 if cfg.size == 0 else 0.0, 0, TORUS1)
    assert res.value == 2.5
    assert res.stderr == 0.0


def test_lp_integral_grid_matches_exponential_series_for_constant_factor():
    # product observable with a constant per-point factor: each order is
    # (g0 V)^n / n! exactly under the midpoint product rule
    g0, cap = 0.07, 4
    res = lp_integral(lambda cfg: g0 ** cfg.size, cap, TORUS1,
                      QuadratureSpec(method="grid", points_per_axis=6))
    x = g0 * TORUS1.volume
    for n in range(cap + 1):
        assert res.per_order[n] == pytest.approx(
            x ** n / math.factorial(n), rel=1e-12)
    assert res.value == pytest.approx(
        sum(x ** n / math.factorial(n) for n in range(cap + 1)), rel=1e-12)


def test_lp_integral_mc_agrees_within_stderr():
    g0, cap = 0.05, 3
    x = g0 * TORUS1.volume
    exact = sum(x ** n / math.factorial(n) for n in range(cap + 1))
    res = lp_integral(lambda cfg: g0 ** cfg.size, cap, TORUS1,
                      QuadratureSpec(method="mc", samples=4000, seed=11))
    assert abs(res.value - exact) <= 5.0 * max(res.stderr, 1e-12)
    assert res.stderr > 0.0


def test_lp_integral_region_restriction_shrinks_the_domain():
    radius = 1.5
    spec = QuadratureSpec(method="mc", samples=2000, seed=3,
                          region=((5.0,), radius))
    res = lp_integral(lambda cfg: 1.0 if cfg.size == 1 else 0.0, 1,
                      TORUS1, spec)
    assert res.per_order[1] == pytest.approx(ball_volume(1, radius), rel=1e-9)


def test_lp_integral_rejects_excessive_order():
    with pytest.raises(SizeLimitError):
        lp_integral(lambda cfg: 1.0, 7, TORUS1)


def test_quadrature_spec_rejects_grid_with_region():
    with pytest.raises(ValueError):
        QuadratureSpec(method="grid", region=((0.0,), 1.0))
