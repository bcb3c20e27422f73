"""Discretized correlation functions on a periodic lattice.

Correlation functions of order n are reduced by translation invariance to
functions of n-1 offsets, stored on the lattice of cell centers of a uniform
grid over the torus.  Orders up to 3 are supported:

    k0          scalar (1 for a state, 0 for increments)
    k1          scalar density
    k2[j]       pair function at separation offsets[j]
    k3[j, l]    triple function at separations (offsets[j], offsets[l])

The grid builds its offsets, their distances and the index of offset
differences on first use and keeps them, read-only, for its own lifetime.

Integrals against a radial factor (pot, e^{-pot} - 1 or e^{+pot} - 1) use
midpoint values rescaled so the total lattice mass matches the exact radial
integral (mass correction, corrected_stencil).  Values at fixed separations
stay pointwise.  That split keeps constant-table integrals exact, which the
averaging identities rely on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Tuple

import numpy as np

from .errors import ConfigError, EvaluationError, SizeLimitError
from .geometry import Torus
from .potentials import Potential, _remainder_exp, potential_functionals

# Most cells P a grid may have: its difference index has P x P entries and
# an order-3 table P^2 values, 134 MB at the 2D default of 64 points per axis.
MAX_GRID_CELLS = 4096


@dataclass(frozen=True)
class GridSpec:
    """A grid of points_per_axis cells per axis over the torus.  Its lattice
    arrays are built on first use and kept with the grid, read-only."""

    torus: Torus
    points_per_axis: int

    def __post_init__(self):
        if self.points_per_axis < 2:
            raise ConfigError("points_per_axis must be at least 2")
        if self.num_cells > MAX_GRID_CELLS:
            raise SizeLimitError(
                f"grid_points {self.points_per_axis} in {self.torus.dim}D gives "
                f"P = {self.num_cells} cells, above the cap of {MAX_GRID_CELLS}")

    @property
    def h(self) -> float:
        return self.torus.side / self.points_per_axis

    @property
    def cell_volume(self) -> float:
        return self.h ** self.torus.dim

    @property
    def num_cells(self) -> int:
        return self.points_per_axis ** self.torus.dim

    @cached_property
    def _lattice(self) -> np.ndarray:
        n, d = self.points_per_axis, self.torus.dim
        mesh = np.meshgrid(*[np.arange(n)] * d, indexing="ij")
        return _read_only(np.stack([m.ravel() for m in mesh], axis=1))

    @cached_property
    def offsets(self) -> np.ndarray:
        return _read_only(self._lattice.astype(float) * self.h)

    @cached_property
    def distances(self) -> np.ndarray:
        """Minimal-image distance of each offset from the origin."""
        # fold the integer offsets into [-n/2, n/2) before scaling, so that the
        # offsets k and -k have the same distance to the last bit
        n = self.points_per_axis
        delta = ((self._lattice + n // 2) % n - n // 2) * self.h
        return _read_only(np.sqrt(np.sum(delta * delta, axis=1)))

    @cached_property
    def diff_index(self) -> np.ndarray:
        """diff_index[j, l] is the flat index of offset[j] - offset[l]."""
        lat, n, d = self._lattice, self.points_per_axis, self.torus.dim
        diff = np.mod(lat[:, None, :] - lat[None, :, :], n)
        return _read_only(np.ravel_multi_index(
            tuple(diff[..., i] for i in range(d)), (n,) * d).astype(np.int32))


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def validate_grid_for_model(grid: GridSpec, potentials: dict):
    """Resolution check: every finite-range profile must span at least two
    cells, else its lattice footprint cannot represent the interaction."""
    for name, pot in potentials.items():
        if pot.is_zero:
            continue
        if pot.cutoff > 0 and grid.h > pot.cutoff / 2 + 1e-12:
            raise ConfigError(
                f"grid spacing {grid.h:.6g} exceeds half the cutoff of potential "
                f"{name} ({pot.cutoff:.6g}); refine the grid"
            )


# ---------------------------------------------------------------------------
# stencils

def corrected_stencil(grid: GridSpec, pot: Potential, sign: int = 0) -> np.ndarray:
    """The factor pot (sign 0), e^{-pot} - 1 (sign -1) or e^{+pot} - 1 (sign
    +1) at the offset distances, rescaled so that its lattice mass equals the
    exact integral: the L1 norm, -beta or the positive Mayer integral."""
    raw = pot(grid.distances)
    if pot.is_zero:
        return raw
    fn = potential_functionals(pot, grid.torus.dim)
    if sign > 0 and not math.isfinite(fn.beta_neg):
        raise EvaluationError("positive Mayer mass diverges for this profile")
    if sign:
        raw = np.expm1(sign * raw)
    target = fn.l1 if not sign else (fn.beta_neg if sign > 0 else -fn.beta)
    mass = float(np.sum(raw)) * grid.cell_volume
    scale_floor = 1e-12 * (float(np.max(np.abs(raw))) + 1.0) * grid.cell_volume * len(raw)
    if abs(mass) <= scale_floor:
        return raw
    return raw * (target / mass)


# ---------------------------------------------------------------------------
# correlation tables

class CorrelationTable:
    """Translation-reduced correlation data up to a fixed order (1..3).

    The entries live in one flat vector ``vec`` laid out as
    [k0, k1, k2 (P entries), k3 (P*P entries, row-major)].  k0 and k1 read
    and write its first two entries; k2 and k3 are views into it.  The
    constructor copies the arrays it is given; from_vector wraps a vector
    without copying.
    """

    __slots__ = ("grid", "order", "vec", "k2", "k3")

    def __init__(self, grid: GridSpec, order: int, k0: float, k1: float,
                 k2: Optional[np.ndarray] = None, k3: Optional[np.ndarray] = None):
        if order not in (1, 2, 3):
            raise ConfigError("table order must be 1, 2 or 3")
        p = grid.num_cells
        size = 2 + (p if order >= 2 else 0) + (p * p if order >= 3 else 0)
        self._wrap(grid, order, np.zeros(size))
        self.vec[0] = k0
        self.vec[1] = k1
        if order >= 2 and k2 is not None:
            k2 = np.asarray(k2, dtype=float)
            if k2.shape != (p,):
                raise ConfigError(f"k2 must have shape ({p},)")
            self.k2[...] = k2
        if order >= 3 and k3 is not None:
            k3 = np.asarray(k3, dtype=float)
            if k3.shape != (p, p):
                raise ConfigError(f"k3 must have shape ({p}, {p})")
            self.k3[...] = k3

    def _wrap(self, grid: GridSpec, order: int, vec: np.ndarray) -> None:
        p = grid.num_cells
        self.grid = grid
        self.order = order
        self.vec = vec
        self.k2 = vec[2:2 + p] if order >= 2 else None
        self.k3 = vec[2 + p:].reshape(p, p) if order >= 3 else None

    @property
    def k0(self) -> float:
        return float(self.vec[0])

    @k0.setter
    def k0(self, value: float) -> None:
        self.vec[0] = value

    @property
    def k1(self) -> float:
        return float(self.vec[1])

    @k1.setter
    def k1(self, value: float) -> None:
        self.vec[1] = value

    # -- factories ---------------------------------------------------------

    @classmethod
    def poisson(cls, grid: GridSpec, order: int, rho: float) -> "CorrelationTable":
        t = cls(grid, order, k0=1.0, k1=rho)
        if order >= 2:
            t.k2.fill(rho ** 2)
        if order >= 3:
            t.k3.fill(rho ** 3)
        return t

    # -- plumbing ----------------------------------------------------------

    def copy(self) -> "CorrelationTable":
        return CorrelationTable.from_vector(self, self.vec.copy())

    def as_vector(self) -> np.ndarray:
        """A copy of the flat vector."""
        return self.vec.copy()

    @classmethod
    def from_vector(cls, template: "CorrelationTable", vec: np.ndarray) -> "CorrelationTable":
        """The table of template's grid and order whose entries are views
        into vec, a float vector in the as_vector layout."""
        if vec.shape != template.vec.shape or vec.dtype != np.float64:
            raise ConfigError(f"vector must be float with shape {template.vec.shape}")
        t = cls.__new__(cls)
        t._wrap(template.grid, template.order, vec)
        return t

    def sup_by_order(self) -> Tuple[float, ...]:
        out = [abs(self.k0), abs(self.k1)]
        if self.order >= 2:
            out.append(float(np.max(np.abs(self.k2))) if self.k2.size else 0.0)
        if self.order >= 3:
            out.append(float(np.max(np.abs(self.k3))) if self.k3.size else 0.0)
        return tuple(out)

    def kc_norm(self, c: float) -> float:
        """Weighted sup norm: max over orders n of sup|k_n| / c^n."""
        if c <= 0:
            raise ValueError("norm weight c must be positive")
        sups = self.sup_by_order()
        return max(s / c ** n for n, s in enumerate(sups))

    def max_abs(self) -> float:
        return max(self.sup_by_order())


# Number of equal-width shells of radial_profile past the exact grouping.
_PROFILE_BINS = 32


def radial_profile(grid: GridSpec, values: np.ndarray):
    """Average a lattice field over shells of equal separation distance.

    Returns (r, mean, count) arrays for the nonempty shells, sorted by r.
    Each distinct distance is its own shell when there are at most
    _PROFILE_BINS of them; otherwise the shells are _PROFILE_BINS equal bins
    and r is the mean distance in each.
    """
    d = grid.distances
    rounded = np.round(d, 12)
    # sort and dedupe: np.unique imports numpy.ma, tens of ms per command
    uniq = np.sort(rounded)
    uniq = uniq[np.concatenate(([True], uniq[1:] != uniq[:-1]))]
    exact = len(uniq) <= _PROFILE_BINS
    if exact:
        shell = np.searchsorted(uniq, rounded)
    else:
        edges = np.linspace(0.0, float(np.max(d)) + 1e-12, _PROFILE_BINS + 1)
        shell = np.clip(np.digitize(d, edges) - 1, 0, _PROFILE_BINS - 1)
    count = np.bincount(shell)
    keep = count > 0
    count = count[keep]
    mean = np.bincount(shell, weights=np.asarray(values, dtype=float))[keep] / count
    r = uniq if exact else np.bincount(shell, weights=d)[keep] / count
    return r, mean, count


# ---------------------------------------------------------------------------
# exponential Mayer functional

def _triple_sum(k3: np.ndarray, w: np.ndarray, di: np.ndarray) -> float:
    """sum over cells p1, p2, p3 of w[p1] w[p2] w[p3] k3[p2 - p1, p3 - p1].

    Substituting p2 = p1 + j, p3 = p1 + l gives sum_jl k3[j, l] T[j, l] with
    T[j, l] = sum_a w[a] w[a + j] w[a + l], one gather and one matrix product.
    """
    shifted = w[di[:, di[0]]]        # shifted[a, j] = w(offset_a + offset_j)
    triple = (shifted * w[:, None]).T @ shifted
    return float(np.sum(triple * k3))


def product_expectation(table: CorrelationTable, g: np.ndarray, dv: float = 1.0,
                        k2m: Optional[np.ndarray] = None) -> float:
    """Expectation of the product over the points x of (1 + g(x)) for a
    lattice field g of cell weight dv, truncated at the table's order:

        k0 + k1 sum g dv + (1/2) sum g(x) g(y) k2(y - x) dv^2
           + (1/6) sum g(x) g(y) g(z) k3(y - x, z - x) dv^3

    k2m, table.k2[grid.diff_index], is gathered here unless given."""
    value = table.k0 + table.k1 * float(np.sum(g)) * dv
    if table.order >= 2:
        if k2m is None:
            k2m = table.k2[table.grid.diff_index]
        value += 0.5 * float(g @ k2m @ g) * dv ** 2
    if table.order >= 3:
        value += _triple_sum(table.k3, g, table.grid.diff_index) * dv ** 3 / 6.0
    return value


def exp_mayer_functional(table: CorrelationTable, pot: Potential) -> Tuple[float, float]:
    """Averaged damping factor: the expansion of
    E[prod over environment points y of exp(-pot(x - y))] in correlation
    orders, truncated at the table's order.

    Returns (value, tail_bound).  The tail bound covers the dropped orders
    under a geometric envelope fitted to the stored ones; for a Poisson
    table of density rho the value converges to exp(-rho * beta).
    """
    grid = table.grid
    if pot.is_zero:
        return 1.0, 0.0
    w = corrected_stencil(grid, pot, -1) * grid.cell_volume
    beta_hat = abs(float(np.sum(w)))
    value = product_expectation(table, w)

    sups = table.sup_by_order()
    c = 0.0
    for n in range(1, len(sups)):
        if sups[n] > 0:
            c = max(c, sups[n] ** (1.0 / n))
    if c <= 0 or beta_hat <= 0:
        return value, 0.0
    big_k = max(s / c ** n for n, s in enumerate(sups))
    return value, big_k * _remainder_exp(c * beta_hat, table.order)
