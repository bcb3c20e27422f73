"""Periodic-box geometry and finite-configuration combinatorics.

A configuration is a finite set of points on a torus of dimension 1 to 3.
This module provides the minimal-image metric, set-indexed sums over
subconfigurations, the inverse of the additive set transform, and truncated
integrals against the measure whose n-point component is Lebesgue weighted
by 1/n!.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import EvaluationError, SizeLimitError

# enumeration over subsets is exponential; refuse configurations beyond this
MAX_ENUMERATION_SIZE = 20
# truncation cap for the particle-number expansion of integrals
MAX_LP_ORDER = 6

_BALL_COEFF = {1: 2.0, 2: math.pi, 3: 4.0 * math.pi / 3.0}


@dataclass(frozen=True)
class Torus:
    """Axis-aligned periodic box [0, side)^dim with the minimal-image metric."""

    dim: int
    side: float

    def __post_init__(self):
        if self.dim not in (1, 2, 3):
            raise ValueError(f"dim must be 1, 2 or 3, got {self.dim}")
        if not (self.side > 0 and math.isfinite(self.side)):
            raise ValueError(f"side must be positive and finite, got {self.side}")

    @property
    def volume(self) -> float:
        return self.side ** self.dim

    def wrap(self, coords) -> np.ndarray:
        """Map coordinates into [0, side) componentwise."""
        arr = np.asarray(coords, dtype=float)
        if not np.all(np.isfinite(arr)):
            raise ValueError("coordinates must be finite")
        folded = arr - self.side * np.floor(arr / self.side)
        # arr / side rounds, so within an ulp of a multiple of side the fold
        # can land an ulp outside [0, side); the nearer edge is within an
        # ulp of the true point on the torus
        return np.minimum(np.maximum(folded, 0.0), math.nextafter(self.side, 0.0))

    def uniform(self, rng: np.random.Generator, n: int) -> np.ndarray:
        """n points uniform on the box, shape (n, dim)."""
        return rng.uniform(0.0, self.side, size=(n, self.dim))


def min_image_diff(delta, side: float) -> np.ndarray:
    """Signed componentwise difference folded into [-side/2, side/2).

    delta / side rounds, so a difference within an ulp of +-side/2 can fold
    to an ulp below -side/2, the same point on the torus (the distance is
    what every caller reads).
    """
    delta = np.asarray(delta, dtype=float)
    return delta - side * np.floor(delta / side + 0.5)


def torus_distance(p, q, torus: Torus) -> float:
    """Minimal-image Euclidean distance between two points."""
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    if p.shape != (torus.dim,) or q.shape != (torus.dim,):
        raise ValueError(
            f"points must have shape ({torus.dim},), got {p.shape} and {q.shape}"
        )
    d = min_image_diff(p - q, torus.side)
    return float(np.sqrt(np.sum(d * d)))


def _fold_squared(delta: np.ndarray, side: float) -> np.ndarray:
    """Squared lengths along the last axis of the differences delta, folded
    by min_image_diff; delta is overwritten.  The operations and their order
    are those of min_image_diff and (d * d).sum(axis=-1), so the values are
    equal bit for bit: one coordinate needs no sum, and a sum of two terms
    has one rounding whatever the order."""
    f = delta / side
    f += 0.5
    np.floor(f, out=f)
    f *= side
    delta -= f
    delta *= delta
    dim = delta.shape[-1]
    if dim == 1:
        return delta[..., 0]
    if dim == 2:
        return delta[..., 0] + delta[..., 1]
    return delta.sum(axis=-1)


def squared_distances_from(x: np.ndarray, pts: np.ndarray, torus: Torus) -> np.ndarray:
    """Squared minimal-image distances from the point x to each row of pts;
    the row of squared_pairwise_distances for x, without its broadcasting
    overhead."""
    return _fold_squared(x - pts, torus.side)


def distances_from(x: np.ndarray, pts: np.ndarray, torus: Torus) -> np.ndarray:
    """Minimal-image distances from the point x to each row of pts.  Leading
    axes broadcast: x (dim,) against a block pts (S, n, dim) gives (S, n),
    paired rows x (S, dim) and pts (S, dim) give (S,)."""
    return np.sqrt(squared_distances_from(x, pts, torus))


def squared_pairwise_distances(a: np.ndarray, b: np.ndarray, torus: Torus) -> np.ndarray:
    """Matrix of squared minimal-image distances, shape (len(a), len(b))."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.ndim < 2 or b.ndim < 2:
        a, b = np.atleast_2d(a), np.atleast_2d(b)
    return _fold_squared(a[:, None] - b, torus.side)


def pairwise_distances(a: np.ndarray, b: np.ndarray, torus: Torus) -> np.ndarray:
    """Matrix of minimal-image distances, shape (len(a), len(b))."""
    return np.sqrt(squared_pairwise_distances(a, b, torus))


class FiniteConfiguration:
    """Immutable finite point set, stored as a float array of shape (n, dim).

    Exactly coincident points are rejected on construction so that set
    semantics stay testable.  Storage order is arbitrary and carries no
    meaning; order invariance of every consumer is part of the test suite.
    """

    __slots__ = ("points",)

    def __init__(self, points, check: bool = True):
        arr = np.array(points, dtype=float, copy=True)
        if arr.ndim != 2:
            raise ValueError(f"points must be a 2-d array (n, dim), got shape {arr.shape}")
        if arr.shape[1] not in (1, 2, 3):
            raise ValueError(f"dim must be 1, 2 or 3, got {arr.shape[1]}")
        if check:
            if not np.all(np.isfinite(arr)):
                raise ValueError("points must be finite")
            if arr.shape[0] > 1:
                # exact coincidence check; duplicates break set semantics
                order = np.lexsort(arr.T)
                srt = arr[order]
                if np.any(np.all(srt[1:] == srt[:-1], axis=1)):
                    raise ValueError("configuration contains coincident points")
        arr.setflags(write=False)
        object.__setattr__(self, "points", arr)

    @classmethod
    def empty(cls, dim: int) -> "FiniteConfiguration":
        return cls(np.empty((0, dim)), check=False)

    @classmethod
    def _adopt(cls, points: np.ndarray) -> "FiniteConfiguration":
        """Internal: wrap a float array of shape (n, dim) without a copy or a
        check.  The array is made read-only; it must be one the caller built
        and writes no more, never a view of a buffer that changes."""
        points.setflags(write=False)
        cfg = object.__new__(cls)
        cfg.points = points
        return cfg

    @property
    def size(self) -> int:
        return self.points.shape[0]

    @property
    def dim(self) -> int:
        return self.points.shape[1]

    def __len__(self) -> int:
        return self.size

    def __iter__(self):
        return iter(self.points)

    def __repr__(self) -> str:
        return f"FiniteConfiguration(n={self.size}, dim={self.dim})"

    def add_point(self, x) -> "FiniteConfiguration":
        x = np.asarray(x, dtype=float).reshape(1, self.dim)
        return FiniteConfiguration(np.concatenate([self.points, x], axis=0))

    def remove_index(self, i: int) -> "FiniteConfiguration":
        if not 0 <= i < self.size:
            raise IndexError(f"index {i} out of range for size {self.size}")
        keep = np.delete(self.points, i, axis=0)
        return FiniteConfiguration(keep, check=False)


@dataclass(frozen=True)
class MarkedConfiguration:
    """A pair of disjoint components: system points and environment points."""

    plus: FiniteConfiguration
    minus: FiniteConfiguration

    def __post_init__(self):
        if self.plus.dim != self.minus.dim:
            raise ValueError("components must share a dimension")

    @property
    def dim(self) -> int:
        return self.plus.dim


def _check_enumeration_size(n: int):
    if n > MAX_ENUMERATION_SIZE:
        raise SizeLimitError(
            f"configuration of size {n} exceeds the enumeration cap {MAX_ENUMERATION_SIZE}"
        )


# bit masks turned into membership rows at a time by _subconfigurations
_MASK_BLOCK = 4096


def _subconfigurations(eta: FiniteConfiguration):
    """Every subconfiguration of eta, in the order of the bit masks 0 to
    2^n - 1 (bit i keeps point i), with its points in eta's order."""
    n = eta.size
    _check_enumeration_size(n)
    pts, bits = eta.points, np.arange(n)
    for start in range(0, 1 << n, _MASK_BLOCK):
        masks = np.arange(start, min(start + _MASK_BLOCK, 1 << n))
        keep = (masks[:, None] >> bits & 1).astype(bool)
        # the points of each subconfiguration of the block, one after another
        rows = pts[keep.nonzero()[1]]
        ends = keep.sum(axis=1).cumsum().tolist()
        for lo, hi in zip([0] + ends, ends):
            yield FiniteConfiguration._adopt(rows[lo:hi])


def subsets_sum(eta: FiniteConfiguration, f: Callable[[FiniteConfiguration], float]) -> float:
    """Sum of f over all 2^n subconfigurations of eta, empty set included."""
    total = 0.0
    for xi in _subconfigurations(eta):
        total += f(xi)
    return total


def k_inverse(big_f: Callable[[FiniteConfiguration], float], eta: FiniteConfiguration) -> float:
    """Moebius inversion of the subset-sum transform.

    Returns sum over subsets xi of eta of (-1)^{|eta \\ xi|} F(xi); applied to
    F = subset-sum of G it recovers G(eta).
    """
    total = 0.0
    for xi in _subconfigurations(eta):
        sign = -1.0 if (eta.size - xi.size) % 2 else 1.0
        total += sign * big_f(xi)
    return total


@dataclass(frozen=True)
class QuadratureSpec:
    """How to evaluate the n-fold spatial integrals.

    method "grid" uses a product midpoint rule with points_per_axis nodes per
    axis; method "mc" uses Monte Carlo with the given sample count and seed
    and reports a standard error.  region, when set, restricts every
    coordinate to the minimal-image ball (center, radius); only the Monte
    Carlo path supports it.
    """

    method: str = "grid"
    points_per_axis: int = 8
    samples: int = 4096
    seed: int = 0
    region: Optional[tuple] = None  # (center tuple, radius)

    def __post_init__(self):
        if self.method not in ("grid", "mc"):
            raise ValueError(f"unknown quadrature method {self.method!r}")
        if self.method == "grid" and self.region is not None:
            raise ValueError("region restriction requires the mc method")
        if self.points_per_axis < 1 or self.samples < 1:
            raise ValueError("points_per_axis and samples must be positive")


@dataclass
class LpIntegralResult:
    value: float
    stderr: float
    per_order: np.ndarray


def ball_volume(dim: int, radius: float) -> float:
    return _BALL_COEFF[dim] * radius ** dim


def _sample_ball(rng, center: np.ndarray, radius: float, shape, torus: Torus) -> np.ndarray:
    """Uniform points in the minimal-image ball, wrapped onto the torus."""
    n = int(np.prod(shape))
    d = torus.dim
    if d == 1:
        offs = rng.uniform(-radius, radius, size=(n, 1))
    else:
        vec = rng.normal(size=(n, d))
        vec /= np.linalg.norm(vec, axis=1, keepdims=True)
        r = radius * rng.uniform(size=(n, 1)) ** (1.0 / d)
        offs = vec * r
    pts = torus.wrap(center[None, :] + offs)
    return pts.reshape(shape + (d,))


def lp_integral(
    G: Callable[[FiniteConfiguration], float],
    order_cap: int,
    torus: Torus,
    quadrature: QuadratureSpec = QuadratureSpec(),
) -> LpIntegralResult:
    """Truncated configuration-space integral of G.

    Computes sum over n = 0..order_cap of (1/n!) * integral of
    G({x_1..x_n}) over the n-fold box (or restricted region).  The order-0
    term is G evaluated at the empty configuration.
    """
    if order_cap < 0 or order_cap > MAX_LP_ORDER:
        raise SizeLimitError(
            f"order_cap must be in [0, {MAX_LP_ORDER}], got {order_cap}"
        )

    per_order = np.zeros(order_cap + 1)
    per_err = np.zeros(order_cap + 1)

    v0 = float(G(FiniteConfiguration.empty(torus.dim)))
    if not math.isfinite(v0):
        raise EvaluationError("integrand returned a non-finite value at the empty set")
    per_order[0] = v0

    if quadrature.method == "grid":
        m = quadrature.points_per_axis
        h = torus.side / m
        axes = [(np.arange(m) + 0.5) * h for _ in range(torus.dim)]
        nodes = np.array(list(itertools.product(*axes)))  # (m^dim, dim)
        w = h ** torus.dim
        for n in range(1, order_cap + 1):
            total = 0.0
            for tup in itertools.product(range(len(nodes)), repeat=n):
                cfg = FiniteConfiguration._adopt(nodes[list(tup)])
                val = float(G(cfg))
                if not math.isfinite(val):
                    raise EvaluationError("integrand returned a non-finite value")
                total += val
            per_order[n] = total * w ** n / math.factorial(n)
    else:
        rng = np.random.default_rng(np.random.Philox(key=quadrature.seed))
        if quadrature.region is None:
            vol1 = torus.volume
        else:
            center = np.asarray(quadrature.region[0], dtype=float)
            radius = float(quadrature.region[1])
            if radius > torus.side / 2:
                raise ValueError("region radius must be at most side/2")
            vol1 = ball_volume(torus.dim, radius)
        S = quadrature.samples
        for n in range(1, order_cap + 1):
            if quadrature.region is None:
                pts = torus.uniform(rng, S * n).reshape(S, n, torus.dim)
            else:
                pts = _sample_ball(rng, center, radius, (S, n), torus)
            pts.setflags(write=False)  # each sample is handed out as a view
            vals = np.array([G(FiniteConfiguration._adopt(pts[s])) for s in range(S)])
            if not np.all(np.isfinite(vals)):
                raise EvaluationError("integrand returned a non-finite value")
            scale = vol1 ** n / math.factorial(n)
            per_order[n] = float(np.mean(vals)) * scale
            per_err[n] = float(np.std(vals, ddof=1)) / math.sqrt(S) * scale

    return LpIntegralResult(
        value=float(np.sum(per_order)),
        stderr=float(np.sqrt(np.sum(per_err ** 2))),
        per_order=per_order,
    )
