"""Shared builders for the test suite.

The model parameters used here are small repulsive steps on an order-ten
torus; they keep every expansion inside its convergence window so closed
forms, numeric routes, and simulations can be cross-checked quickly.
"""

import os

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from coupledbd.geometry import FiniteConfiguration, MarkedConfiguration, Torus
from coupledbd.models import (
    BdlpInGlauber,
    BranchingInGlauber,
    GlauberGlauber,
    TwoBdlp,
)
from coupledbd.potentials import Potential

settings.register_profile(
    "suite", deadline=None, max_examples=25,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")

TORUS1 = Torus(dim=1, side=10.0)


def step(height, cutoff):
    return Potential.step(height=height, cutoff=cutoff)


def gg_model(z_minus=0.3, z_plus=0.3, psi_height=0.5):
    s = step(0.5, 1.0)
    return GlauberGlauber(z_minus=z_minus, psi=step(psi_height, 1.0),
                          z_plus=z_plus, phi_minus=s, phi_plus=s)


def bdlp_model():
    return BdlpInGlauber(z_minus=0.3, psi=step(0.5, 1.0), m_plus=1.0,
                         a_minus=step(0.6, 0.5), a_plus=step(0.5, 0.5),
                         b_minus=step(0.4, 0.5), b_plus=step(0.3, 0.5))


def branching_model():
    return BranchingInGlauber(z_minus=0.3, psi=step(0.5, 1.0), m_plus=2.0,
                              kappa=step(0.2, 0.5), phi=step(0.1, 0.5),
                              a_plus=step(0.1, 0.5))


def two_bdlp_model():
    return TwoBdlp(z=0.5, m_minus=1.0,
                   a_minus=step(0.3, 0.5), a_plus=step(0.2, 0.5),
                   m_plus=1.0, b_minus=step(0.3, 0.5), b_plus=step(0.2, 0.5),
                   vphi_minus=step(0.3, 0.5), vphi_plus=step(0.2, 0.5))


ALL_MODELS = [gg_model, bdlp_model, branching_model, two_bdlp_model]


def marked(plus_pts, minus_pts, dim=1):
    def cfg(pts):
        if len(pts) == 0:
            return FiniteConfiguration.empty(dim)
        return FiniteConfiguration(np.asarray(pts, dtype=float).reshape(-1, dim))
    return MarkedConfiguration(plus=cfg(plus_pts), minus=cfg(minus_pts))


def random_marked(rng, torus, n_plus, n_minus):
    return marked(torus.uniform(rng, n_plus), torus.uniform(rng, n_minus),
                  dim=torus.dim)


def assert_no_child_left():
    """This process has no child process, running or unreaped."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
