"""Error types shared across the package.

The CLI maps these to exit statuses: config/schema problems (the ValueError
subclasses but EvaluationError) -> 2; convergence, stability, explosion and
evaluation failures -> 4.  An infeasible regime is not an error: the check
command reports it and exits 3 itself.
"""


class SizeLimitError(ValueError):
    """An enumeration or truncation cap was exceeded."""


class EvaluationError(ValueError):
    """A user-supplied function returned a non-finite or invalid value."""


class ModelError(ValueError):
    """Model parameters violate a structural requirement."""


class ConfigError(ValueError):
    """Experiment configuration failed schema or consistency validation."""


class ConvergenceError(RuntimeError):
    """Fixed-point iteration failed to converge within the allowed budget."""


class StabilityError(RuntimeError):
    """Time stepping blew up; a smaller step is needed."""


class ExplosionGuardError(RuntimeError):
    """The event budget or the population cap was exceeded before the
    horizon, or the rates stopped being finite (a rate total that overflowed
    to inf, or a nan).

    time_reached and events say where the run stopped.
    """

    def __init__(self, message, time_reached=None, events=None):
        super().__init__(message)
        self.time_reached = time_reached
        self.events = events
