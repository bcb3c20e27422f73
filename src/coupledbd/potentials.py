"""Radial interaction profiles with compact support and their integrals.

Profiles are nonnegative and vanish beyond a finite cutoff.  The functionals
needed by the contraction constants are the Mayer masses
beta(f) = integral over R^d of |exp(-f(|x|)) - 1| dx and
beta_neg(f) = integral of (exp(f(|x|)) - 1) dx, together with the L1 and
sup norms of the profile itself.  Radial integrals are evaluated over full
d-space, not the torus; usage on a torus of side L requires cutoff <= L/2.

The package's overflow rule lives here too: _safe_exp is e^x, inf past the
float range as np.exp behaves, for the regime checker's constants;
_remainder_exp is the Taylor remainder of e^u, inf past that range, for the
truncation tails of the regime checker and of the averaged birth factor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Tuple

import numpy as np

from .errors import ModelError

_SURFACE = {1: 2.0, 2: 2.0 * math.pi, 3: 4.0 * math.pi}
_EXP_CLIP = 700.0  # past this height the beta_neg quadrature would overflow


def _safe_exp(x: float) -> float:
    """math.exp, or inf past the float range, as np.exp behaves."""
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


def _remainder_exp(u: float, cap: int) -> float:
    """e^u minus its Taylor polynomial through order cap: nonnegative, and
    inf when e^u is past the float range."""
    e = _safe_exp(u)
    if e == math.inf:
        return e
    return max(0.0, e - sum(u ** n / math.factorial(n) for n in range(cap + 1)))


@dataclass(frozen=True)
class Potential:
    """Radial profile. kind is one of "zero", "step", "exponential", "table".

    step: value height on [0, cutoff], 0 beyond.
    exponential: amplitude * exp(-decay * r) on [0, cutoff], 0 beyond.
    table: linear interpolation through (radii, values), 0 beyond radii[-1].
    """

    kind: str = "zero"
    height: float = 0.0
    amplitude: float = 0.0
    decay: float = 0.0
    cutoff: float = 0.0
    radii: Tuple[float, ...] = ()
    values: Tuple[float, ...] = ()

    def __post_init__(self):
        if self.kind not in ("zero", "step", "exponential", "table"):
            raise ModelError(f"unknown potential kind {self.kind!r}")
        if self.kind == "zero":
            object.__setattr__(self, "cutoff", 0.0)
        elif self.kind == "step":
            if self.height < 0 or self.cutoff <= 0:
                raise ModelError("step potential needs height >= 0 and cutoff > 0")
        elif self.kind == "exponential":
            if self.amplitude < 0 or self.decay < 0 or self.cutoff <= 0:
                raise ModelError("exponential potential needs nonnegative parameters and cutoff > 0")
        else:
            if len(self.radii) < 2 or len(self.radii) != len(self.values):
                raise ModelError("table potential needs matching radii/values, length >= 2")
            r = np.asarray(self.radii)
            if np.any(np.diff(r) <= 0) or r[0] < 0:
                raise ModelError("table radii must be nonnegative and strictly increasing")
            if min(self.values) < 0:
                raise ModelError("table values must be nonnegative")
            object.__setattr__(self, "cutoff", float(self.radii[-1]))

    @classmethod
    def zero(cls) -> "Potential":
        return cls(kind="zero")

    @classmethod
    def step(cls, height: float, cutoff: float) -> "Potential":
        return cls(kind="step", height=height, cutoff=cutoff)

    @classmethod
    def exponential(cls, amplitude: float, decay: float, cutoff: float) -> "Potential":
        return cls(kind="exponential", amplitude=amplitude, decay=decay, cutoff=cutoff)

    @classmethod
    def table(cls, radii, values) -> "Potential":
        return cls(kind="table", radii=tuple(float(r) for r in radii),
                   values=tuple(float(v) for v in values))

    @property
    def is_zero(self) -> bool:
        return self.kind == "zero" or self.max_value == 0.0

    @property
    def max_value(self) -> float:
        if self.kind == "zero":
            return 0.0
        if self.kind == "step":
            return self.height
        if self.kind == "exponential":
            return self.amplitude
        return max(self.values)

    def __call__(self, r):
        """Profile value at radius r; vectorized; r must be nonnegative."""
        r = np.asarray(r, dtype=float)
        if (r < 0).any():
            raise ValueError("radius must be nonnegative")
        return self._radial(r)

    def at_squared(self, d2: np.ndarray) -> np.ndarray:
        """Profile values at the radii sqrt(d2), from squared distances."""
        if self.kind == "step":
            return self.height * (d2 <= self.cutoff * self.cutoff)
        return self._radial(np.sqrt(d2))

    def sum_squared(self, d2: np.ndarray, axis=None):
        """Sum of the profile over the radii sqrt(d2) (along axis, or all of
        them); a step counts the squared distances within cutoff**2."""
        if self.kind == "step":
            return self.height * np.count_nonzero(d2 <= self.cutoff * self.cutoff, axis=axis)
        return self._radial(np.sqrt(d2)).sum(axis=axis)

    def _radial(self, r: np.ndarray) -> np.ndarray:
        """The radial formula at the radii r, taken as nonnegative."""
        if self.kind == "zero":
            return np.zeros_like(r)
        if self.kind == "step":
            return np.where(r <= self.cutoff, self.height, 0.0)
        if self.kind == "exponential":
            return np.where(r <= self.cutoff, self.amplitude * np.exp(-self.decay * r), 0.0)
        out = np.interp(r, self.radii, self.values)
        return np.where(r <= self.cutoff, out, 0.0)


@dataclass(frozen=True)
class PotentialFunctionals:
    beta: float       # integral of |exp(-f) - 1|
    beta_neg: float   # integral of (exp(f) - 1); may be +inf on overflow
    l1: float         # integral of f
    linf: float       # sup of f


def _radial_integral(fn, pot: Potential, dim: int) -> float:
    """Surface-weighted integral of fn(f(r)) r^{d-1} dr over [0, cutoff].

    Zero and step profiles are constant on their support and take the closed
    form; scipy is imported only for the profiles that need quadrature.
    """
    if pot.cutoff == 0.0:
        return 0.0
    if pot.kind == "step":
        return _SURFACE[dim] * fn(pot.height) * pot.cutoff ** dim / dim
    from scipy import integrate

    pts = None
    if pot.kind == "table":
        pts = [r for r in pot.radii if 0 < r < pot.cutoff]
    val, _ = integrate.quad(
        lambda r: fn(float(pot(r))) * r ** (dim - 1),
        0.0, pot.cutoff,
        points=pts, limit=200, epsabs=1e-13, epsrel=1e-11,
    )
    return _SURFACE[dim] * val


@lru_cache(maxsize=None)
def potential_functionals(pot: Potential, dim: int) -> PotentialFunctionals:
    if dim not in (1, 2, 3):
        raise ValueError(f"dim must be 1, 2 or 3, got {dim}")
    beta = _radial_integral(lambda f: 1.0 - math.exp(-f), pot, dim)
    if pot.max_value > _EXP_CLIP:
        beta_neg = math.inf
    else:
        beta_neg = _radial_integral(lambda f: math.expm1(f), pot, dim)
    l1 = _radial_integral(lambda f: f, pot, dim)
    return PotentialFunctionals(beta=beta, beta_neg=beta_neg, l1=l1, linf=pot.max_value)


def mayer(pot: Potential, r):
    """exp(-f(r)) - 1, vectorized; lies in [exp(-max)-1, 0] for f >= 0."""
    return np.expm1(-pot(r))


# Largest number of radii drawn in one rejection round, to bound memory for
# kernels whose mass fills little of their support ball.
_MAX_DRAWS = 1 << 20


def _table_shells(pot: Potential, dim: int):
    """Radial-shell envelope of a table profile: shell i spans [lo_i, hi_i]
    at height max(v_i, v_{i+1}), which bounds the linear interpolation on
    it.  The first shell is the ball inside radii[0], where the table holds
    values[0].  Returns (lo, hi, height, mass), mass being height times the
    shell volume."""
    r = np.asarray(pot.radii)
    v = np.asarray(pot.values)
    lo = np.concatenate([[0.0], r[:-1]])
    height = np.concatenate([[v[0]], np.maximum(v[:-1], v[1:])])
    mass = height * _SURFACE[dim] / dim * (r ** dim - lo ** dim)
    return lo, r, height, mass


def _rejection_radii(pot: Potential, propose, ratio: float,
                     rng: np.random.Generator, n: int) -> np.ndarray:
    """n radii with density proportional to pot(r) r^{d-1}: propose(size)
    returns radii drawn from an envelope and the envelope height at each,
    and a radius is kept with probability pot(r) / height.  Each round draws
    about as many as the acceptance ratio says it needs."""
    radius = np.zeros(0)
    while len(radius) < n:
        size = min(_MAX_DRAWS, math.ceil((n - len(radius)) / ratio))
        r, height = propose(size)
        keep = r[rng.uniform(size=size) * height < pot(r)]
        radius = np.concatenate([radius, keep])[:n]
    return radius


def sample_kernel_offsets(pot: Potential, dim: int, rng: np.random.Generator, n: int) -> np.ndarray:
    """n displacement vectors with density proportional to pot(|u|), shape (n, dim).

    Sampling is exact for every kind of kernel.  Step kernels use the exact
    power-law radius of the uniform ball.  Exponential kernels draw from
    that ball (the step envelope of height max_value) and table kernels
    from the radial shells between their radii (_table_shells), each shell
    picked by its mass and the radius drawn uniformly in its volume; a
    radius r is then accepted with probability pot(r) / envelope height.
    """
    if pot.is_zero:
        raise ModelError("cannot sample offsets from a zero kernel")
    if pot.kind == "step":
        radius = pot.cutoff * rng.uniform(size=n) ** (1.0 / dim)
    elif pot.kind == "table":
        lo, hi, height, mass = _table_shells(pot, dim)
        cum = np.cumsum(mass)

        def propose(size):
            i = np.searchsorted(cum, rng.uniform(0.0, cum[-1], size=size), side="right")
            i = np.minimum(i, len(cum) - 1)
            inner = lo[i] ** dim
            r = (inner + rng.uniform(size=size) * (hi[i] ** dim - inner)) ** (1.0 / dim)
            return r, height[i]

        ratio = potential_functionals(pot, dim).l1 / cum[-1]
        radius = _rejection_radii(pot, propose, ratio, rng, n)
    else:
        envelope = pot.max_value * _SURFACE[dim] * pot.cutoff ** dim / dim
        ratio = potential_functionals(pot, dim).l1 / envelope
        radius = _rejection_radii(
            pot, lambda size: (pot.cutoff * rng.uniform(size=size) ** (1.0 / dim), pot.max_value),
            ratio, rng, n)
    if dim == 1:
        direction = np.where(rng.uniform(size=(n, 1)) < 0.5, -1.0, 1.0)
    else:
        direction = rng.normal(size=(n, dim))
        direction /= np.linalg.norm(direction, axis=1, keepdims=True)
    return direction * radius[:, None]
