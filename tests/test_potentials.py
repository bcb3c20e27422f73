"""Radial profiles and their integral functionals."""

import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import coupledbd
from coupledbd.errors import ModelError
from coupledbd.geometry import (
    FiniteConfiguration,
    Torus,
    ball_volume,
    distances_from,
    squared_distances_from,
    squared_pairwise_distances,
)
from coupledbd.models import _row_interaction
from coupledbd.potentials import (
    Potential,
    mayer,
    potential_functionals,
    sample_kernel_offsets,
)

from conftest import TORUS1
from rates_oracle import relative_energy


def _dense_radial(fn, pot, dim, n=200_001):
    """Independent route: trapezoid on a dense radial grid."""
    surface = {1: 2.0, 2: 2.0 * math.pi, 3: 4.0 * math.pi}[dim]
    r = np.linspace(0.0, pot.cutoff, n)
    return surface * float(np.trapezoid(fn(pot(r)) * r ** (dim - 1), r))


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_step_functionals_match_closed_forms(dim):
    h, c = 0.7, 1.3
    pot = Potential.step(height=h, cutoff=c)
    f = potential_functionals(pot, dim)
    vol = ball_volume(dim, c)
    assert f.beta == pytest.approx((1.0 - math.exp(-h)) * vol, abs=1e-8)
    assert f.beta_neg == pytest.approx(math.expm1(h) * vol, abs=1e-8)
    assert f.l1 == pytest.approx(h * vol, abs=1e-8)
    assert f.linf == h


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_step_closed_forms_equal_adaptive_quadrature(dim):
    from scipy import integrate

    pot = Potential.step(height=0.7, cutoff=1.3)
    surface = {1: 2.0, 2: 2.0 * math.pi, 3: 4.0 * math.pi}[dim]

    def quad(fn):
        val, _ = integrate.quad(lambda r: fn(float(pot(r))) * r ** (dim - 1),
                                0.0, pot.cutoff, limit=200, epsabs=1e-13, epsrel=1e-11)
        return surface * val

    f = potential_functionals(pot, dim)
    assert f.beta == pytest.approx(quad(lambda v: 1.0 - math.exp(-v)), rel=1e-12)
    assert f.beta_neg == pytest.approx(quad(math.expm1), rel=1e-12)
    assert f.l1 == pytest.approx(quad(lambda v: v), rel=1e-12)


def test_step_potential_configs_do_not_import_scipy(tmp_path):
    step = {"kind": "step", "height": 0.5, "cutoff": 1.0}
    cfg = {
        "model": {"variant": "glauber_glauber",
                  "params": {"z_minus": 0.3, "z_plus": 0.3, "psi": step,
                             "phi_minus": step, "phi_plus": step}},
        "torus": {"side": 10.0, "dim": 2},
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    script = (
        "import sys\n"
        "import coupledbd.cli as cli\n"
        "from coupledbd.potentials import potential_functionals\n"
        f"cfg = cli.load_config({str(path)!r})\n"
        "m = cli.model_from_config(cfg)\n"
        "cli.validate_model_on_torus(m, cli.torus_from_config(cfg))\n"
        "potential_functionals(m.psi, 2)\n"
        "print(sorted(k for k in sys.modules if k.split('.')[0] == 'scipy'))\n"
    )
    src = os.path.dirname(os.path.dirname(coupledbd.__file__))
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    out = subprocess.run([sys.executable, "-c", script], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_exponential_functionals_match_dense_quadrature(dim):
    pot = Potential.exponential(amplitude=0.8, decay=1.5, cutoff=2.0)
    f = potential_functionals(pot, dim)
    assert f.l1 == pytest.approx(_dense_radial(lambda v: v, pot, dim), rel=1e-7)
    assert f.beta == pytest.approx(
        _dense_radial(lambda v: 1.0 - np.exp(-v), pot, dim), rel=1e-7)
    assert f.beta_neg == pytest.approx(
        _dense_radial(np.expm1, pot, dim), rel=1e-7)


def test_table_potential_interpolates_linearly():
    pot = Potential.table(radii=[0.0, 1.0, 2.0], values=[2.0, 1.0, 0.0])
    assert pot(0.5) == pytest.approx(1.5)
    assert pot(1.5) == pytest.approx(0.5)
    assert pot(2.5) == 0.0
    f = potential_functionals(pot, 1)
    # piecewise-linear profile integrates exactly: 2 * (1.5 + 0.5)
    assert f.l1 == pytest.approx(4.0, rel=1e-9)


def test_zero_potential_has_trivial_functionals():
    f = potential_functionals(Potential.zero(), 2)
    assert (f.beta, f.beta_neg, f.l1, f.linf) == (0.0, 0.0, 0.0, 0.0)


def test_beta_neg_diverges_past_the_overflow_guard():
    pot = Potential.step(height=800.0, cutoff=1.0)
    f = potential_functionals(pot, 1)
    assert f.beta_neg == math.inf
    assert math.isfinite(f.beta)


@given(st.floats(0.01, 5.0), st.floats(0.1, 2.0), st.integers(1, 3))
def test_mayer_mass_never_exceeds_l1_mass(height, cutoff, dim):
    f = potential_functionals(Potential.step(height=height, cutoff=cutoff), dim)
    assert f.beta <= f.l1 + 1e-12


@given(st.floats(0.0, 5.0), st.floats(0.0, 3.0))
def test_mayer_factor_stays_in_unit_band(height, r):
    pot = Potential.step(height=max(height, 1e-6), cutoff=1.0)
    v = float(mayer(pot, r))
    assert -1.0 <= v <= 0.0
    assert v == pytest.approx(math.expm1(-float(pot(r))), abs=1e-15)


def test_relative_energy_is_additive_and_order_free():
    rng = np.random.default_rng(5)
    pot = Potential.step(height=0.9, cutoff=2.0)
    pts = TORUS1.uniform(rng, 6)
    x = TORUS1.uniform(rng, 1)[0]
    cfg = FiniteConfiguration(pts)
    total = relative_energy(x, cfg.points, pot, TORUS1)
    parts = sum(relative_energy(x, pts[i:i + 1], pot, TORUS1)
                for i in range(6))
    assert total == pytest.approx(parts, abs=1e-12)
    perm = rng.permutation(6)
    assert total == pytest.approx(
        relative_energy(x, cfg.points[perm], pot, TORUS1), abs=1e-12)


def test_relative_energy_is_translation_invariant_on_the_torus():
    pot = Potential.step(height=1.0, cutoff=1.5)
    cfg = FiniteConfiguration([[9.5], [0.4]])
    e0 = relative_energy([9.8], cfg.points, pot, TORUS1)
    shift = 3.7
    shifted = FiniteConfiguration(TORUS1.wrap(cfg.points + shift))
    x_shift = TORUS1.wrap(np.array([[9.8 + shift]]))[0]
    assert e0 == pytest.approx(
        relative_energy(x_shift, shifted.points, pot, TORUS1), abs=1e-9)


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_step_kernel_offsets_sample_the_uniform_ball(dim):
    # for a step kernel the radial law is r^dim uniform on [0, cutoff^dim]
    c = 1.2
    pot = Potential.step(height=2.0, cutoff=c)
    rng = np.random.default_rng(99)
    offs = sample_kernel_offsets(pot, dim, rng, 20_000)
    assert offs.shape == (20_000, dim)
    r = np.linalg.norm(offs, axis=1)
    assert np.max(r) <= c + 1e-9
    u = (r / c) ** dim
    assert abs(np.mean(u) - 0.5) <= 4.0 / math.sqrt(12 * 20_000)


def test_exponential_kernel_offsets_match_radial_mean():
    pot = Potential.exponential(amplitude=1.0, decay=2.0, cutoff=3.0)
    rng = np.random.default_rng(4)
    offs = sample_kernel_offsets(pot, 1, rng, 40_000)
    r = np.abs(offs[:, 0])
    grid = np.linspace(0.0, 3.0, 20_001)
    dens = pot(grid)
    expected = float(np.trapezoid(grid * dens, grid) / np.trapezoid(dens, grid))
    se = np.std(r) / math.sqrt(len(r))
    assert abs(np.mean(r) - expected) <= 5.0 * se


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_table_kernel_offsets_match_radial_mean(dim):
    # a non-monotone table whose first radius is positive, so the shell
    # envelope also covers the inner ball where the table holds values[0]
    pot = Potential.table([0.2, 0.5, 0.7, 1.0], [0.6, 1.0, 0.1, 0.4])
    rng = np.random.default_rng(5)
    offs = sample_kernel_offsets(pot, dim, rng, 40_000)
    r = np.linalg.norm(offs, axis=1)
    grid = np.linspace(0.0, 1.0, 40_001)
    dens = pot(grid) * grid ** (dim - 1)
    expected = float(np.trapezoid(grid * dens, grid) / np.trapezoid(dens, grid))
    se = np.std(r) / math.sqrt(len(r))
    assert abs(np.mean(r) - expected) <= 5.0 * se


def test_table_kernel_offsets_land_where_the_kernel_is_positive():
    # a narrow spike on a wide support: most of the support carries no mass,
    # so an exact sampler never returns an offset there
    pot = Potential.table([0.0, 1e-4, 1.0], [1.0, 0.0, 0.0])
    offs = sample_kernel_offsets(pot, 1, np.random.default_rng(3), 200)
    assert offs.shape == (200, 1)
    assert np.all(pot(np.abs(offs[:, 0])) > 0.0)


def test_sampling_from_zero_kernel_is_rejected():
    with pytest.raises(ModelError):
        sample_kernel_offsets(Potential.zero(), 1, np.random.default_rng(0), 10)


def test_invalid_profiles_are_rejected():
    with pytest.raises(ModelError):
        Potential.step(height=-1.0, cutoff=1.0)
    with pytest.raises(ModelError):
        Potential.table(radii=[0.0, 1.0], values=[1.0])
    with pytest.raises(ModelError):
        Potential.table(radii=[1.0, 0.5], values=[1.0, 2.0])


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("pot", [Potential.step(0.5, 0.5), Potential.step(0.7, 0.375),
                                 Potential.exponential(1.5, 2.0, 0.5),
                                 Potential.table([0.0, 0.25, 0.5], [1.0, 0.5, 0.25])],
                         ids=["step", "step_inexact_height", "exponential", "table"])
def test_sums_on_squared_distances_equal_the_radial_sums_at_the_cutoff(dim, pot):
    # a dyadic lattice of spacing 1/8 on a side-4 torus: the distances are
    # exact, and many lattice points lie exactly at the cutoff from x
    torus = Torus(dim, 4.0)
    axes = [np.arange(32) / 8.0] * dim
    pts = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, dim)
    x = pts[len(pts) // 3]
    r = distances_from(x, pts, torus)
    assert np.any(r == pot.cutoff)
    d2 = squared_distances_from(x, pts, torus)
    assert np.array_equal(pot.at_squared(d2), pot(r))
    want = float(pot(r).sum())
    # height times a count sums the same terms in another order
    assert float(pot.sum_squared(d2)) == pytest.approx(want, rel=1e-14, abs=0.0)
    assert relative_energy(x, pts, pot, torus) == float(pot.sum_squared(d2))
    if pot.kind == "step" and pot.height == 0.5:
        assert relative_energy(x, pts, pot, torus) == want
    rows = pts[:: max(1, len(pts) // 40)]
    mat = pot(np.sqrt(squared_pairwise_distances(rows, pts, torus)))
    assert _row_interaction(rows, pts, pot, torus) == pytest.approx(
        mat.sum(axis=1), rel=1e-14, abs=0.0)
    near = pts[np.argsort(r)[:50]]
    mat = pot(np.sqrt(squared_pairwise_distances(near, near, torus)))
    np.fill_diagonal(mat, 0.0)
    assert _row_interaction(near, near, pot, torus, exclude_self=True) == pytest.approx(
        mat.sum(axis=1), rel=1e-14, abs=0.0)
