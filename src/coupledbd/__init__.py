"""Two-component spatial birth-death processes on a torus.

A system of plus-marked particles is coupled to a fast environment of
minus-marked particles.  The package provides exact stochastic simulation,
truncated correlation-function hierarchies (fixed point and evolution),
closed-form contraction constants for four model families with an
independent numeric spot check, and ensemble experiments for exponential
relaxation and the averaged small-epsilon limit.

The API is imported from the submodules (coupledbd.models,
coupledbd.simulate, ...); the package root holds only __version__.
"""

__version__ = "0.1.0"
