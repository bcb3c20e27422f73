"""Empirical verification experiments: exponential relaxation of the
environment and convergence of the coupled system to the averaged dynamics
as the timescale separation grows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Optional, Sequence

import numpy as np

from .config import FIT_DISCARD_FRAC, FIT_MIN_POINTS
from .errors import ConvergenceError
from .geometry import Torus
from .hierarchy import component_form, ks_solve
from .models import RateModel, build_averaged_model
from .simulate import (
    DensityEstimate,
    SimulationSettings,
    estimate_density,
    poisson_pair,
    replicate,
)
from .tables import GridSpec

# Noise floor of the relaxation fit, in late-time standard errors.
_FLOOR_SIGMA = 2.0
# Slack of the averaging sweep, in standard errors of the distance: for a
# rise between neighbouring epsilons, and for the smallest epsilon's gap.
_MONOTONE_SIGMA = 2.0
_FINAL_SIGMA = 3.0


@dataclass
class RateFit:
    """Log-linear fit of an exponentially decaying gap."""

    rate: float
    stderr: float
    log_intercept: float
    n_used: int
    used_times: np.ndarray
    used_gaps: np.ndarray


def fit_exponential_rate(
    times: np.ndarray,
    gaps: np.ndarray,
    discard_frac: float = FIT_DISCARD_FRAC,
    noise_floor: float = 0.0,
    min_points: int = FIT_MIN_POINTS,
) -> RateFit:
    """Least-squares slope of log(gap) over the usable window.

    The initial discard_frac of the time range is dropped (transient).  The
    window then runs until the gap first touches noise_floor; later points
    are excluded even if they bounce back above the floor, since beyond the
    first crossing the curve is noise.
    """
    t = np.asarray(times, dtype=float)
    g = np.asarray(gaps, dtype=float)
    if t.shape != g.shape or t.ndim != 1:
        raise ValueError("times and gaps must be matching 1d arrays")
    t0 = t[0] + discard_frac * (t[-1] - t[0])
    mask = (t >= t0) & (g > max(noise_floor, 0.0))
    idx = np.where(mask)[0]
    if idx.size:
        start = idx[0]
        below = np.where(~mask[start:])[0]
        end = start + below[0] if below.size else len(mask)
        mask[:start] = False
        mask[end:] = False
    if int(np.sum(mask)) < min_points:
        raise ConvergenceError(
            f"only {int(np.sum(mask))} usable points for the rate fit, "
            f"need {min_points}")
    tt = t[mask]
    yy = np.log(g[mask])
    n = len(tt)
    A = np.vstack([tt, np.ones(n)]).T
    coef, res, _, _ = np.linalg.lstsq(A, yy, rcond=None)
    slope, intercept = float(coef[0]), float(coef[1])
    if n > 2:
        rss = float(res[0]) if res.size else float(np.sum((yy - A @ coef) ** 2))
        s2 = rss / (n - 2)
        sxx = float(np.sum((tt - np.mean(tt)) ** 2))
        stderr = math.sqrt(s2 / sxx) if sxx > 0 else math.inf
    else:
        stderr = math.inf
    return RateFit(rate=-slope, stderr=stderr, log_intercept=intercept,
                   n_used=n, used_times=tt, used_gaps=g[mask])


@dataclass
class ErgodicityResult:
    times: np.ndarray
    gaps: np.ndarray
    density: DensityEstimate
    target_density: float
    fit: RateFit
    lambda_0: Optional[float]
    noise_floor: float

    @property
    def rate_consistent_with_gap(self) -> Optional[bool]:
        """Fitted rate at least the proven lower bound, within 2 stderr."""
        if self.lambda_0 is None:
            return None
        return self.fit.rate + 2.0 * self.fit.stderr >= self.lambda_0


def ergodicity_experiment(
    m: RateModel,
    torus: Torus,
    *,
    n_replicas: int,
    t_end: float,
    initial_density: float,
    target_density: float,
    n_times: int,
    master_seed: int,
    lambda_0: Optional[float] = None,
) -> ErgodicityResult:
    """Relaxation of the environment density toward its invariant value.

    Runs an environment-only ensemble started away from equilibrium, fits
    the exponential decay rate of |density(t) - target| and compares with
    the proven gap when given.  The noise floor is _FLOOR_SIGMA times the
    median late-time standard error.
    """
    times = tuple(np.linspace(0.0, t_end, n_times))
    settings = SimulationSettings(t_end=t_end, master_seed=master_seed,
                                  record_times=times)
    records = replicate(m, torus, poisson_pair(torus, 0.0, initial_density), settings,
                        n_replicas, components=("environment",))
    est = estimate_density(records, torus)
    gaps = np.abs(est.mean_minus - target_density)
    late = est.se_minus[len(times) // 2:]
    floor = _FLOOR_SIGMA * float(np.median(late))
    fit = fit_exponential_rate(est.times, gaps, noise_floor=floor)
    return ErgodicityResult(times=est.times, gaps=gaps, density=est,
                            target_density=target_density, fit=fit,
                            lambda_0=lambda_0, noise_floor=floor)


@dataclass
class AveragingResult:
    epsilons: np.ndarray
    distances: np.ndarray
    distance_ses: np.ndarray
    argmax_times: np.ndarray
    times: np.ndarray
    averaged: DensityEstimate
    coupled: Dict[float, DensityEstimate]
    lambda_bar: float
    lambda_bar_tail: float
    env_density: float
    monotone_ok: bool
    smallest_within_se: bool


def averaging_experiment(
    m: RateModel,
    torus: Torus,
    *,
    epsilons: Sequence[float],
    n_replicas: int,
    t_end: float,
    sys_density0: float,
    env_density0: Optional[float] = None,
    n_times: int = 21,
    master_seed: int = 77,
    grid_points: int = 64,
) -> AveragingResult:
    """Distance between the coupled system density and the averaged one.

    The averaged model is built from the invariant environment correlations
    (order-3 fixed-point solve on a lattice of grid_points per axis).  Both
    the averaged reference and every coupled ensemble are simulated; the
    distance at each epsilon is the largest absolute density gap over the
    record times, with the standard error taken at the maximizing time.
    """
    eps = np.asarray(sorted(epsilons, reverse=True), dtype=float)
    if eps.size == 0 or np.any(eps <= 0):
        raise ValueError("epsilons must be positive")
    # the coupled ensembles are keyed by epsilon
    if np.any(eps[1:] == eps[:-1]):
        raise ValueError("epsilons must be distinct")
    grid = GridSpec(torus=torus, points_per_axis=grid_points)
    form = component_form(m, "environment")
    k_inv = ks_solve(form, grid, order=3).table
    env_density = k_inv.k1
    am = build_averaged_model(m, k_inv, torus)
    if env_density0 is None:
        env_density0 = env_density

    times = tuple(np.linspace(0.0, t_end, n_times))

    avg_settings = SimulationSettings(t_end=t_end, master_seed=master_seed ^ 0xAE5,
                                      record_times=times)
    avg_records = replicate(am, torus, poisson_pair(torus, sys_density0, 0.0), avg_settings,
                            n_replicas, components=("system",))
    avg_est = estimate_density(avg_records, torus)

    distances = np.zeros(eps.size)
    ses = np.zeros(eps.size)
    arg_ts = np.zeros(eps.size)
    coupled: Dict[float, DensityEstimate] = {}
    for i, e in enumerate(eps):
        settings = SimulationSettings(t_end=t_end, epsilon=float(e),
                                      master_seed=master_seed + 7919 * (i + 1),
                                      record_times=times)
        recs = replicate(m, torus, poisson_pair(torus, sys_density0, env_density0),
                         settings, n_replicas)
        est = estimate_density(recs, torus)
        coupled[float(e)] = est
        gap = np.abs(est.mean_plus - avg_est.mean_plus)
        se = np.sqrt(est.se_plus ** 2 + avg_est.se_plus ** 2)
        j = int(np.argmax(gap))
        distances[i] = float(gap[j])
        ses[i] = float(se[j])
        arg_ts[i] = float(est.times[j])

    monotone_ok = True
    for i in range(eps.size - 1):
        slack = _MONOTONE_SIGMA * math.sqrt(ses[i] ** 2 + ses[i + 1] ** 2)
        if distances[i + 1] > distances[i] + slack:
            monotone_ok = False
    smallest_ok = bool(distances[-1] <= _FINAL_SIGMA * ses[-1])

    return AveragingResult(
        epsilons=eps,
        distances=distances,
        distance_ses=ses,
        argmax_times=arg_ts,
        times=np.asarray(times),
        averaged=avg_est,
        coupled=coupled,
        lambda_bar=am.lambda_bar,
        lambda_bar_tail=am.lambda_bar_tail,
        env_density=env_density,
        monotone_ok=monotone_ok,
        smallest_within_se=smallest_ok,
    )
