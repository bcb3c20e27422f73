"""Discretized correlation functions on a periodic lattice.

Correlation functions of order n are reduced by translation invariance to
functions of n-1 offsets, stored on the lattice of cell centers of a uniform
grid over the torus.  Orders up to 3 are supported:

    k0          scalar (1 for a state, 0 for increments)
    k1          scalar density
    k2[j]       pair function at separation offsets[j]
    k3[o]       triple function on orbit o of GridSpec.k3_orbits

The triple function at separations (offsets[j], offsets[l]) is the
correlation of the triple {0, offsets[j], offsets[l]}, the same on each
orbit of the entries [j, l] under S3 x the lattice point group, so a table
keeps one value per orbit: R values, about P^2/43 at 16 x 16 and P^2/48 at
64 x 64.  k3[k3_orbits.labels] is k3 on the rows F of the point-group
representatives (cell_orbits.reps), |F| x P; no command forms a P x P array.

The grid builds its offsets, their distances, the orbits of the cells under
the lattice point group (cell_orbits) and those of the order-3 entries
under the symmetries of correlation data (k3_orbits) on first use and keeps
them, read-only, for its own lifetime.  The differences of the offsets,
from the representative rows F to every cell (diff_index, |F| x P), it
builds on each access and does not keep.

Integrals against a radial factor (pot, e^{-pot} - 1 or e^{+pot} - 1) use
midpoint values rescaled so the total lattice mass matches the exact radial
integral (mass correction, corrected_stencil).  Values at fixed separations
stay pointwise.  That split keeps constant-table integrals exact, which the
averaging identities rely on.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple, Optional, Tuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import ConfigError, EvaluationError, SizeLimitError
from .geometry import Torus
from .potentials import Potential, _remainder_exp, potential_functionals

# Most cells P a grid may have: the orbit labels of the order-3 entries
# are |F| P int32, 9.2 MB at the 2D default of 64 points per axis.
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

    @property
    def shape(self) -> Tuple[int, ...]:
        """Cells per axis: the flat cell index is row-major in this shape."""
        return (self.points_per_axis,) * self.torus.dim

    @cached_property
    def lattice(self) -> np.ndarray:
        """Integer lattice coordinates of the cells, P x d."""
        n, d = self.points_per_axis, self.torus.dim
        mesh = np.meshgrid(*[np.arange(n)] * d, indexing="ij")
        return _read_only(np.stack([m.ravel() for m in mesh], axis=1))

    def flat(self, coords: np.ndarray) -> np.ndarray:
        """Flat indices of the cells at integer coordinates (..., d), taken
        modulo the points per axis."""
        return np.ravel_multi_index(tuple(np.moveaxis(coords, -1, 0)), self.shape, mode="wrap")

    @cached_property
    def offsets(self) -> np.ndarray:
        return _read_only(self.lattice.astype(float) * self.h)

    @cached_property
    def distances(self) -> np.ndarray:
        """Minimal-image distance of each offset from the origin."""
        # fold the integer offsets into [-n/2, n/2) before scaling, so that the
        # offsets k and -k have the same distance to the last bit
        n = self.points_per_axis
        delta = ((self.lattice + n // 2) % n - n // 2) * self.h
        return _read_only(np.sqrt(np.sum(delta * delta, axis=1)))

    @property
    def diff_index(self) -> np.ndarray:
        """The |F| x P int32 row differences: diff_index[o, l] is the flat
        index of offset[f] - offset[l], f = cell_orbits.reps[o], the sum
        over the axes i of (f_i - l_i) mod n times n^(d - 1 - i), formed on
        the (n,) * d view of each row.  Built on each access, not kept."""
        n, d = self.points_per_axis, self.torus.dim
        f = self.lattice[self.cell_orbits.reps].astype(np.int32)
        a = np.arange(n, dtype=np.int32)
        out = np.zeros((f.shape[0],) + self.shape, dtype=np.int32)
        for i in range(d):
            step = np.mod(f[:, i, None] - a, n) * n ** (d - 1 - i)
            out += step.reshape((-1,) + (1,) * i + (n,) + (1,) * (d - 1 - i))
        return _read_only(out.reshape(f.shape[0], self.num_cells))

    @cached_property
    def cell_orbits(self) -> "Orbits":
        """The orbits of the cells under the lattice point group, the
        reflections and axis permutations (Orbits).  A cell's smallest image
        has its coordinates folded into [0, n/2] and sorted."""
        n = self.points_per_axis
        folded = np.minimum(self.lattice, n - self.lattice)
        smallest = self.flat(np.sort(folded, axis=1))
        own = smallest == np.arange(self.num_cells)
        labels = (np.cumsum(own) - 1)[smallest]
        return Orbits(_read_only(labels), _read_only(np.flatnonzero(own)),
                      _read_only(np.bincount(labels)))

    @cached_property
    def k3_orbits(self) -> "Orbits":
        """The orbits of the order-3 entries [j, l] under S3 x the lattice
        point group (Orbits; labels |F| x P int32, row o for cell F[o]).

        k3[j, l] is the correlation of the triple {0, offset[j], offset[l]},
        so it is unchanged by the permutations of the triple (the swap
        (a, b) -> (b, a) and the rebase (a, b) -> (-a, b - a), with a and b
        the two offsets) and by the reflections and axis permutations of the
        lattice, all of which act on a and b together.  An orbit's smallest
        image is the least flat index j' P + l' among the images of any of
        its entries, so j' is in F = cell_orbits.reps, the least cells of
        their point-group orbits.  Per axis, the six S3 images (x, y) of the
        coordinates (a_i, b_i) are taken modulo n, and the axis' reflection
        keeps the lexicographically lesser of (x, y) and (-x, -y), its best
        choice under any order of the axes (_column_key).  With the key
        x P + y per axis, the flat index of an image is the sum of its axes'
        keys, each weighted by n^(d - 1 - its place in the image's order of
        axes), so the smallest image is the least of 6 d! such sums, formed
        a block of rows f at a time.  Orbits are numbered by their smallest
        images, in increasing order.  The rows of one cell orbit hold the
        same labels, permuted, so sizes weights each row f by the size of
        f's orbit.
        """
        n, d, p, cells = self.points_per_axis, self.torus.dim, self.num_cells, self.cell_orbits
        a = np.arange(n, dtype=np.int32)
        places = list(itertools.permutations([n ** (d - 1 - i) for i in range(d)]))
        # a block's keys of axis i, one row per f, broadcast along axis i of l
        shapes = [(-1,) + (1,) * i + (n,) + (1,) * (d - 1 - i) for i in range(d)]
        # entry [j, l] of a representative row j is out.ravel()[j P + l + shift[j]]
        shift = ((cells.labels - np.arange(p)) * p).astype(np.int32)
        out, rows = np.empty((cells.reps.size, p), dtype=np.int32), max(1, _LABEL_BLOCK // p)
        reps, sizes, count = [], np.zeros(0, dtype=np.int64), 0
        for lo in range(0, cells.reps.size, rows):
            f, block = cells.reps[lo:lo + rows], out[lo:lo + rows]
            coords, view = self.lattice[f].astype(np.int32), block.reshape((-1,) + (n,) * d)
            work = np.empty_like(view)
            view.fill(p * p)                  # above every flat index
            for image in _S3_IMAGES:
                terms = [_column_key(coords[:, i, None], a, image, n, p).reshape(shapes[i])
                         for i in range(d)]
                for weight in places:
                    np.multiply(terms[0], weight[0], out=work)
                    for t, w in zip(terms[1:], weight[1:]):
                        work += t * w
                    np.minimum(view, work, out=view)
            # number the orbits: an entry whose smallest image is itself
            # starts one; every other entry copies the number of its
            # smallest image, an earlier entry, numbered first
            flat = (f[:, None] * p + np.arange(p)).astype(np.int32)
            rest = block != flat
            reps.append(flat[~rest])
            smallest = block[rest]
            block[~rest] = np.arange(count, count + reps[-1].size)
            smallest += shift[smallest // p]
            block[rest] = out.ravel()[smallest]
            count += reps[-1].size
            sizes = np.pad(sizes, (0, count - sizes.size))
            np.add.at(sizes, block.ravel(), np.repeat(cells.sizes[lo:lo + rows], p))
        return Orbits(_read_only(out), _read_only(np.concatenate(reps)), _read_only(sizes))


class Orbits(NamedTuple):
    """The orbits of a grid's cells (GridSpec.cell_orbits) or order-3
    entries (GridSpec.k3_orbits).

    labels holds the number of each element's orbit (k3_orbits': of the rows
    cell_orbits.reps); reps[o] is the flat index of orbit o's smallest image,
    an element of the orbit, in increasing order; sizes[o] counts them."""
    labels: np.ndarray
    reps: np.ndarray
    sizes: np.ndarray


# Entries per block of the label build (GridSpec.k3_orbits), or one row
# where that is more, and of the triple sum of product_expectation, whose
# summation order its block fixes: the blocks bound their temporaries.
_LABEL_BLOCK, _TRIPLE_BLOCK = 1 << 18, 1 << 14


# The six permutations of the triple {0, a, b} as the offset pairs (x, y)
# they give, x = c0 a + c1 b and y = c2 a + c3 b: (a, b), (b, a), (-a, b - a),
# (b - a, -a), (-b, a - b) and (a - b, -b).
_S3_IMAGES = ((1, 0, 0, 1), (0, 1, 1, 0), (-1, 0, -1, 1), (-1, 1, -1, 0),
              (0, -1, 1, -1), (1, -1, 0, -1))


def _column_key(a: np.ndarray, b: np.ndarray, image, n: int, p: int) -> np.ndarray:
    """For one axis with coordinates a and b of the two offsets, the key
    x p + y of that axis in the S3 image (x, y) of _S3_IMAGES, taken modulo
    n and reflected where that makes it less; since y < n <= p, the lesser
    key is the lexicographically lesser pair."""
    c0, c1, c2, c3 = image
    x, y = np.mod(c0 * a + c1 * b, n), np.mod(c2 * a + c3 * b, n)
    return np.minimum(x * p + y, np.mod(-x, n) * p + np.mod(-y, n))


def sup_abs(a: np.ndarray) -> float:
    """max |a| from the largest and smallest entries of a, without a
    temporary; NaN when a holds a NaN, since both of those are NaN."""
    return abs(float(max(a.max(), -a.min())))


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def validate_grid_for_model(grid: GridSpec, potentials: dict):
    """Resolution check: every finite-range profile must span at least two
    cells, else its lattice footprint cannot represent the interaction.
    potentials maps a name for the error message to each profile."""
    for name, pot in potentials.items():
        if pot.is_zero:
            continue
        if pot.cutoff > 0 and grid.h > pot.cutoff / 2 + 1e-12:
            raise ConfigError(
                f"grid_points {grid.points_per_axis} gives a grid spacing of {grid.h:.6g}, "
                f"more than half the cutoff of the {name} potential ({pot.cutoff:.6g}); "
                f"raise grid_points")


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
    [k0, k1, k2 (P entries), k3 (R entries, one per orbit of
    GridSpec.k3_orbits)].  k0 and k1 read and write its first two entries;
    k2 and k3 are views into it.  The constructor copies the arrays it is
    given; from_vector wraps a vector without copying.
    """

    __slots__ = ("grid", "order", "vec", "k2", "k3")

    def __init__(self, grid: GridSpec, order: int, k0: float, k1: float,
                 k2: Optional[np.ndarray] = None, k3: Optional[np.ndarray] = None):
        if order not in (1, 2, 3):
            raise ConfigError("table order must be 1, 2 or 3")
        p = grid.num_cells
        size = 2 + (p if order >= 2 else 0) + (grid.k3_orbits.reps.size if order >= 3 else 0)
        self._wrap(grid, order, np.zeros(size))
        self.vec[0] = k0
        self.vec[1] = k1
        for name, given, view in (("k2", k2, self.k2), ("k3", k3, self.k3)):
            if view is not None and given is not None:
                given = np.asarray(given, dtype=float)
                if given.shape != view.shape:
                    raise ConfigError(f"{name} must have shape {view.shape}")
                view[...] = given

    def _wrap(self, grid: GridSpec, order: int, vec: np.ndarray) -> None:
        p = grid.num_cells
        self.grid = grid
        self.order = order
        self.vec = vec
        self.k2 = vec[2:2 + p] if order >= 2 else None
        self.k3 = vec[2 + p:] if order >= 3 else None

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
        blocks = (self.k2, self.k3)[:self.order - 1]
        return (abs(self.k0), abs(self.k1)) + tuple(sup_abs(k) for k in blocks)

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

def product_expectation(table: CorrelationTable, g: np.ndarray, dv: float = 1.0) -> float:
    """Expectation of the product over the points x of (1 + g(x)) for a
    lattice field g of cell weight dv, truncated at the table's order:

        k0 + k1 sum g dv + (1/2) sum g(x) g(y) k2(y - x) dv^2
           + (1/6) sum g(x) g(y) g(z) k3(y - x, z - x) dv^3

    It requires k2 and g invariant under the lattice point group; k3 is
    invariant under S3 x the point group by its layout.  The pair sum is
    sum_p |W(p)|^2 Re K2(p) / P, W and K2 the transforms of g and k2.  The
    triple sum is sum_jl k3(j, l) T[j, l], T[j, l] = sum_a g[a] g[a + j]
    g[a + l], whose row sums are equal on each orbit of
    GridSpec.cell_orbits: it is taken on the representative rows f,
    gathered from the orbit values, weighted by the orbit sizes, with T[f]
    by FFT, _TRIPLE_BLOCK entries at a time."""
    grid, shape = table.grid, table.grid.shape
    value = table.k0 + table.k1 * float(np.sum(g)) * dv
    if table.order >= 2:
        w_hat, k2_hat = (np.fft.fftn(a.reshape(shape)).ravel() for a in (g, table.k2))
        value += 0.5 * float((w_hat * w_hat.conj()).real @ k2_hat.real) / w_hat.size * dv ** 2
    if table.order >= 3:
        _, reps, sizes = grid.cell_orbits
        labels = grid.k3_orbits.labels
        axes, step = tuple(range(1, len(shape) + 1)), max(1, _TRIPLE_BLOCK // g.size)
        g = g.reshape(shape)
        shifted = sliding_window_view(np.tile(g, (2,) * g.ndim), shape)   # [f][a]: g[a + f]
        g_hat = np.fft.rfftn(g)
        for lo in range(0, reps.size, step):
            f, k3f = reps[lo:lo + step], table.k3[labels[lo:lo + step]]
            u = np.fft.rfftn(shifted[tuple(grid.lattice[f].T)] * g, axes=axes)
            t = np.fft.irfftn(u.conj() * g_hat, shape, axes=axes).reshape(f.size, -1)
            value += float(sizes[lo:lo + step] @ np.sum(t * k3f, 1) * dv ** 3 / 6.0)
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
