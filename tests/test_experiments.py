"""Rate fitting and the two verification experiments on small ensembles."""

import math

import numpy as np
import pytest

from coupledbd.errors import ConvergenceError
from coupledbd.experiments import (
    ErgodicityResult,
    averaging_experiment,
    ergodicity_experiment,
    fit_exponential_rate,
)
from coupledbd.models import GlauberGlauber
from coupledbd.potentials import Potential

from conftest import TORUS1


def _free_env(z_minus=0.5):
    zero = Potential.zero()
    return GlauberGlauber(z_minus=z_minus, psi=zero, z_plus=0.3,
                          phi_minus=zero, phi_plus=zero)


def test_fit_recovers_a_clean_exponential():
    t = np.linspace(0.0, 5.0, 41)
    g = 2.0 * np.exp(-1.3 * t)
    fit = fit_exponential_rate(t, g)
    assert fit.rate == pytest.approx(1.3, rel=1e-10)
    assert fit.log_intercept == pytest.approx(math.log(2.0), rel=1e-9)
    assert fit.stderr == pytest.approx(0.0, abs=1e-10)
    # initial transient excluded
    assert fit.used_times[0] >= 0.5


def test_fit_window_stops_at_the_first_floor_crossing():
    t = np.linspace(0.0, 10.0, 51)
    g = np.exp(-t)
    # after the signal dies the curve bounces around the floor; those points
    # must not re-enter the window even where they exceed the floor
    noise = 0.02
    g[t > 6.0] = noise * np.array(
        [0.4, 3.0, 0.3, 2.5, 0.5, 2.0, 0.4, 1.5, 0.6, 1.2,
         0.5, 1.1, 0.7, 1.3, 0.5, 1.4, 0.6, 1.2, 0.5, 1.1])
    fit = fit_exponential_rate(t, g, noise_floor=noise)
    assert np.all(fit.used_times <= 6.0 + 1e-9)
    assert fit.rate == pytest.approx(1.0, rel=1e-6)


def test_fit_requires_enough_usable_points():
    t = np.linspace(0.0, 1.0, 12)
    g = np.full(12, 1e-6)
    with pytest.raises(ConvergenceError):
        fit_exponential_rate(t, g, noise_floor=1e-3)
    with pytest.raises(ValueError):
        fit_exponential_rate(t, g[:-1])


def test_ergodicity_experiment_on_the_free_environment():
    res = ergodicity_experiment(
        _free_env(), TORUS1,
        n_replicas=60, t_end=5.0, initial_density=1.5,
        target_density=0.5, n_times=21, master_seed=314,
        lambda_0=0.9)
    assert res.times.shape == (21,)
    assert res.gaps.shape == (21,)
    assert res.noise_floor > 0.0
    assert res.fit.n_used >= 8
    # free environment relaxes at rate exactly 1
    assert abs(res.fit.rate - 1.0) <= 0.35
    assert res.rate_consistent_with_gap is True
    without_bound = ErgodicityResult(
        times=res.times, gaps=res.gaps, density=res.density,
        target_density=res.target_density, fit=res.fit,
        lambda_0=None, noise_floor=res.noise_floor)
    assert without_bound.rate_consistent_with_gap is None


def test_averaging_experiment_structure_and_invariant_density():
    m = GlauberGlauber(z_minus=0.5, psi=Potential.zero(), z_plus=0.3,
                       phi_minus=Potential.step(1.0, 0.5),
                       phi_plus=Potential.step(0.5, 1.0))
    res = averaging_experiment(
        m, TORUS1, epsilons=(1.0, 0.5), n_replicas=30, t_end=4.0,
        sys_density0=0.3, n_times=9, master_seed=55, grid_points=48)
    assert np.array_equal(res.epsilons, np.array([1.0, 0.5]))
    assert set(res.coupled) == {1.0, 0.5}
    assert res.env_density == pytest.approx(0.5, rel=1e-6)
    beta = 1.0 - math.exp(-1.0)
    assert res.lambda_bar == pytest.approx(math.exp(-0.5 * beta), rel=0.02)
    assert res.distances.shape == (2,)
    assert np.all(res.distances >= 0.0)
    assert np.all((res.argmax_times >= 0.0) & (res.argmax_times <= 4.0))
    assert res.averaged.n_replicas == 30
    assert isinstance(res.monotone_ok, bool)
    assert isinstance(res.smallest_within_se, bool)


def test_averaging_experiment_rejects_bad_epsilons():
    with pytest.raises(ValueError):
        averaging_experiment(_free_env(), TORUS1, epsilons=(),
                             n_replicas=2, t_end=1.0, sys_density0=0.1)
    with pytest.raises(ValueError):
        averaging_experiment(_free_env(), TORUS1, epsilons=(0.5, -1.0),
                             n_replicas=2, t_end=1.0, sys_density0=0.1)


def test_averaging_experiment_refuses_a_repeated_epsilon():
    # the coupled ensembles are keyed by epsilon, so a repeat overwrote the
    # first ensemble while its distance was kept
    with pytest.raises(ValueError, match="epsilons must be distinct"):
        averaging_experiment(_free_env(), TORUS1, epsilons=(0.5, 1.0, 0.5),
                             n_replicas=2, t_end=0.5, sys_density0=0.1, grid_points=16)
