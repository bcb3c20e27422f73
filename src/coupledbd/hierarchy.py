"""Truncated correlation hierarchies for autonomous birth-death components.

Both the environment of every model variant and the averaged system are
one-component birth-death dynamics, so a single reduced description covers
them: a ComponentForm holds the death and birth structure (constant,
additive kernel, or exponential pair interaction).  ComponentForm and
component_form live in models.py, where the pointwise rates, death vectors
and birth proposals of these dynamics are derived from the same form; they
are re-exported here.  The stencils below are derived from it too.

The generator dual acting on correlation functions is discretized on
translation-reduced tables (orders up to 3).  Expansion terms with at most
one integrated variable are kept exactly; terms with two or more integrated
variables are dropped, and references to the order above the table top are
closed by the mean-field substitution

    k_{n+1}(eta cup y) ~= k1 * k_n(eta)        ("poisson" closure)

or by zero.  The dropped terms carry products of two or more Mayer masses,
below the closure error for the activity ranges of interest.

The invariant state is computed as the fixed point of the rearranged
balance equation: with M(eta) = |eta| * death_const,

    k = k + (L k) / M  + forcing,     forcing = birth_const/death_const on
                                      singletons, from the order-0 pin k0=1.

ks_solve finds this fixed point by Anderson mixing of the map, starting
at the forcing after two plain Picard steps.  For the free
(non-interacting) case Picard is exact after `order` steps, so the solve
still stops within `order` iterations there.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from .errors import ConfigError, ConvergenceError, ModelError, StabilityError
from .models import ComponentForm, component_form
from .tables import (
    CorrelationTable,
    GridSpec,
    _triple_sum,
    kernel_stencil,
    mayer_stencil,
    pointwise_stencil,
    positive_mayer_stencil,
    radial_profile,
    validate_grid_for_model,
)

_CLOSURES = ("poisson", "zero")


# ---------------------------------------------------------------------------
# stencil bundle

@dataclass(eq=False)
class StencilBundle:
    grid: GridSpec
    form: ComponentForm
    order: int
    # additive death
    am_p: Optional[np.ndarray] = None      # pointwise kernel values
    am_cw: Optional[np.ndarray] = None     # mass-corrected values * cell volume
    am_mass: float = 0.0
    # exponential death
    u_p: Optional[np.ndarray] = None       # pointwise exp(pot)-1
    u_cw: Optional[np.ndarray] = None
    u_mass: float = 0.0
    # exponential birth
    t_p: Optional[np.ndarray] = None       # pointwise exp(-pot)-1
    t_cw: Optional[np.ndarray] = None
    t_mass: float = 0.0
    # additive birth (scale folded in)
    ab_p: Optional[np.ndarray] = None
    ab_cw: Optional[np.ndarray] = None
    ab_mass: float = 0.0
    # pair matrices at difference offsets (built for order >= 2)
    am_p2: Optional[np.ndarray] = None
    u_p2: Optional[np.ndarray] = None
    t_p2: Optional[np.ndarray] = None
    ab_p2: Optional[np.ndarray] = None
    am_cw2: Optional[np.ndarray] = None
    u_cw2: Optional[np.ndarray] = None
    t_cw2: Optional[np.ndarray] = None
    ab_cw2: Optional[np.ndarray] = None
    # table-independent order-3 factors, indexed [j, l] (built for order 3)
    e3: Optional[np.ndarray] = None        # exponential death of the three points
    pair3: Optional[np.ndarray] = None     # 3 death_const + additive pair death
    t_f3: Optional[Tuple[np.ndarray, ...]] = None   # (f_l, f_j, f_0): exponential birth
    ab_s3: Optional[Tuple[np.ndarray, ...]] = None  # (s_l, s_j, s_0): additive birth
    t_rebase: Optional[Tuple[np.ndarray, np.ndarray]] = None   # _rebase_factors of t_cw
    ab_rebase: Optional[Tuple[np.ndarray, np.ndarray]] = None  # _rebase_factors of ab_cw


def build_stencils(grid: GridSpec, form: ComponentForm, order: int) -> StencilBundle:
    if not form.autonomous:
        raise ModelError("the hierarchy needs an autonomous form, without cross terms")
    validate_grid_for_model(grid, form.potentials())
    cw = grid.cell_volume
    b = StencilBundle(grid=grid, form=form, order=order)

    if form.death_kernel is not None and not form.death_kernel.is_zero:
        b.am_p = pointwise_stencil(grid, form.death_kernel)
        b.am_cw = kernel_stencil(grid, form.death_kernel) * cw
        b.am_mass = float(np.sum(b.am_cw))
    if form.death_pot is not None and not form.death_pot.is_zero:
        b.u_p = np.expm1(form.death_pot(grid.distances))
        b.u_cw = positive_mayer_stencil(grid, form.death_pot) * cw
        b.u_mass = float(np.sum(b.u_cw))
    if form.birth_pot is not None and not form.birth_pot.is_zero:
        b.t_p = np.expm1(-form.birth_pot(grid.distances))
        b.t_cw = mayer_stencil(grid, form.birth_pot) * cw
        b.t_mass = float(np.sum(b.t_cw))
    if form.birth_kernel is not None and not form.birth_kernel.is_zero and form.birth_kernel_scale != 0.0:
        s = form.birth_kernel_scale
        b.ab_p = pointwise_stencil(grid, form.birth_kernel) * s
        b.ab_cw = kernel_stencil(grid, form.birth_kernel) * cw * s
        b.ab_mass = float(np.sum(b.ab_cw))

    if order >= 2:
        di = grid.diff_index
        for src, dst in (("am_p", "am_p2"), ("u_p", "u_p2"), ("t_p", "t_p2"), ("ab_p", "ab_p2"),
                         ("am_cw", "am_cw2"), ("u_cw", "u_cw2"), ("t_cw", "t_cw2"), ("ab_cw", "ab_cw2")):
            v = getattr(b, src)
            if v is not None:
                setattr(b, dst, v[di])
    if order >= 3:
        if b.u_p is not None:
            e, e2 = 1.0 + b.u_p, 1.0 + b.u_p2
            b.e3 = e[:, None] * e[None, :] + e[:, None] * e2 + e[None, :] * e2
        elif b.am_p is not None:
            am = b.am_p
            b.pair3 = 3.0 * form.death_const + 2.0 * (am[:, None] + am[None, :] + b.am_p2)
        if b.t_p is not None:
            t, t2 = 1.0 + b.t_p, 1.0 + b.t_p2
            b.t_f3 = (t[None, :] * t2, t[:, None] * t2, t[:, None] * t)
            b.t_rebase = _rebase_factors(b.t_cw, di)
        if b.ab_p is not None:
            z, ab = form.birth_const, b.ab_p
            b.ab_s3 = (z + ab[None, :] + b.ab_p2, z + ab[:, None] + b.ab_p2, z + ab[:, None] + ab)
            b.ab_rebase = _rebase_factors(b.ab_cw, di)
    return b


def _closure_rho(table: CorrelationTable, closure: str) -> float:
    if closure == "poisson":
        return table.k1
    return 0.0


def _rebase_factors(weights: np.ndarray, di: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """(S, gather) for _rebased_triple_integral: S[b, j] = weights at
    offset[b] + offset[j] (di[0, j] is -offset[j]), and gather[j, l] the
    flat index of (j, di[l, j]) in a P x P array."""
    p = di.shape[0]
    return weights[di[:, di[0]]], np.arange(p)[:, None] * p + di.T


def _rebased_triple_integral(k3: np.ndarray, shifted: np.ndarray, gather: np.ndarray) -> np.ndarray:
    """out[j, l] = sum_r weights[r] * k3[di[l, j], di[r, j]], given
    (shifted, gather) = _rebase_factors(weights, di).

    This is the base-shift of the third-order table needed when the removed
    point is the table's base point.  Substituting b = offset[r] - offset[j]
    turns the sum into one matrix product, out[j, l] = (k3 @ S)[di[l, j], j].
    The product is formed transposed so that the gather reads along rows.
    """
    return np.take(shifted.T @ k3.T, gather)


def l_delta_apply(table: CorrelationTable, bundle: StencilBundle,
                  closure: str = "poisson") -> CorrelationTable:
    """Apply the truncated generator dual to a correlation table.

    The output's order-0 slot is zero: the empty-configuration entry is
    conserved by the dynamics.
    """
    if closure not in _CLOSURES:
        raise ConfigError(f"closure must be one of {_CLOSURES}")
    f = bundle.form
    grid = table.grid
    if grid is not bundle.grid and grid != bundle.grid:
        raise ConfigError("table and stencil bundle use different grids")
    n_ord = table.order
    rho_c = _closure_rho(table, closure)
    m = f.death_const
    z = f.birth_const

    k0, k1 = table.k0, table.k1
    k2 = table.k2 if n_ord >= 2 else None
    k3 = table.k3 if n_ord >= 3 else None
    di = grid.diff_index if n_ord >= 2 else None

    # ----- order 1 --------------------------------------------------------
    out1 = 0.0
    # death
    if bundle.u_p is not None:
        if n_ord >= 2:
            out1 -= m * (k1 + float(bundle.u_cw @ k2))
        else:
            out1 -= m * k1 * (1.0 + rho_c * bundle.u_mass)
    else:
        out1 -= m * k1
        if bundle.am_p is not None:
            if n_ord >= 2:
                out1 -= float(bundle.am_cw @ k2)
            else:
                out1 -= rho_c * k1 * bundle.am_mass
    # birth
    if f.birth_pot is not None:
        out1 += z * (k0 + k1 * bundle.t_mass)
    else:
        out1 += z * k0 + k1 * bundle.ab_mass

    out2 = None
    out3 = None

    # ----- order 2 --------------------------------------------------------
    if n_ord >= 2:
        p = grid.num_cells
        out2 = np.zeros(p)
        k2mat = k2[di]            # k2mat[j, l] = k2 at offset[j]-offset[l]
        # death
        if bundle.u_p is not None:
            bracket = 2.0 * k2
            if n_ord >= 3:
                bracket = bracket + k3 @ bundle.u_cw + np.sum(bundle.u_cw2 * k3, axis=1)
            else:
                bracket = bracket + 2.0 * rho_c * bundle.u_mass * k2
            out2 -= m * (1.0 + bundle.u_p) * bracket
        else:
            out2 -= 2.0 * m * k2
            if bundle.am_p is not None:
                out2 -= 2.0 * bundle.am_p * k2
                if n_ord >= 3:
                    out2 -= k3 @ bundle.am_cw + np.sum(bundle.am_cw2 * k3, axis=1)
                else:
                    out2 -= 2.0 * rho_c * bundle.am_mass * k2
        # birth
        if f.birth_pot is not None:
            br1 = np.full(p, k1)
            br2 = np.full(p, k1)
            fac = np.ones(p)
            if bundle.t_p is not None:
                fac = 1.0 + bundle.t_p
                br1 = br1 + bundle.t_cw2 @ k2
                br2 = br2 + k2mat.T @ bundle.t_cw
            out2 += z * fac * (br1 + br2)
        else:
            base = z if bundle.ab_p is None else z + bundle.ab_p
            out2 += 2.0 * base * k1
            if bundle.ab_p is not None:
                out2 += bundle.ab_cw2 @ k2 + k2mat.T @ bundle.ab_cw

    # ----- order 3 --------------------------------------------------------
    if n_ord >= 3:
        out3 = np.zeros((p, p))
        k2j = k2[:, None]                         # k2[j] broadcast over l
        k2l = k2[None, :]
        k2base = k2mat.T                          # k2 at offset[l]-offset[j]
        # death
        if bundle.u_p is not None:
            out3 -= m * (1.0 + rho_c * bundle.u_mass) * bundle.e3 * k3
        else:
            out3 -= (3.0 * m if bundle.pair3 is None else bundle.pair3) * k3
            if bundle.am_p is not None:
                out3 -= 3.0 * rho_c * bundle.am_mass * k3
        # birth
        if bundle.t_p is not None:
            f_l, f_j, f_0 = bundle.t_f3
            r1 = k3 @ bundle.t_cw2.T              # r1[j, l] = sum_r k3[j, r] t_cw at offset[l]-offset[r]
            x0 = _rebased_triple_integral(k3, *bundle.t_rebase)
            out3 += z * (f_l * (k2j + r1) + f_j * (k2l + r1.T) + f_0 * (k2base + x0))
        elif bundle.ab_p is not None:
            s_l, s_j, s_0 = bundle.ab_s3
            r1 = k3 @ bundle.ab_cw2.T
            x0 = _rebased_triple_integral(k3, *bundle.ab_rebase)
            out3 += s_l * k2j + s_j * k2l + s_0 * k2base + r1 + r1.T + x0
        else:
            out3 += z * (k2j + k2l + k2base)

    return CorrelationTable(grid, n_ord, 0.0, out1, out2, out3)


# ---------------------------------------------------------------------------
# invariant state

def ks_apply(table: CorrelationTable, bundle: StencilBundle,
             closure: str = "poisson") -> CorrelationTable:
    """One application of the rearranged balance operator (without forcing).

    Input and output have k0 = 0; the order-0 pin enters through the forcing
    added by the solver.
    """
    work = table if table.k0 == 0.0 else CorrelationTable(
        table.grid, table.order, 0.0, table.k1, table.k2, table.k3)
    lk = l_delta_apply(work, bundle, closure=closure)
    m = bundle.form.death_const
    k1 = work.k1 + lk.k1 / m
    k2 = None if work.order < 2 else work.k2 + lk.k2 / (2.0 * m)
    k3 = None if work.order < 3 else work.k3 + lk.k3 / (3.0 * m)
    return CorrelationTable(table.grid, table.order, 0.0, k1, k2, k3)


@dataclass
class KsSolution:
    table: CorrelationTable
    iterations: int
    residuals: List[float]
    converged: bool


# Each history vector of the mixing holds all P^2 + P + 2 table entries, so
# the depth is kept small for peak memory.
_MIX_DEPTH = 3
_WARMUP_STEPS = 2
# Largest entry a balance iterate may reach before StabilityError.
_GUARD = 1e8
# Largest entry a hierarchy state may reach before StabilityError.
_STABILITY_CAP = 1e9


def ks_solve(form: ComponentForm, grid: GridSpec, order: int = 3,
             tol: float = 1e-12, max_iter: int = 500,
             closure: str = "poisson") -> KsSolution:
    """Invariant correlation table: the fixed point of G(x) = ks_apply(x) +
    forcing, by Anderson mixing (Walker & Ni, SIAM J. Numer. Anal. 2011).

    Each step evaluates g = G(x) and f = g - x and records max|f| in
    residuals.  The first _WARMUP_STEPS steps are plain Picard steps x = g,
    so the free case, where Picard is exact after `order` steps, still
    stops within `order` iterations.  After them x = g - dG gamma, where dF
    and dG hold the differences of f and g over the last _MIX_DEPTH steps
    and gamma solves (dF^T dF) gamma = dF^T f.  StabilityError is raised
    when g or the mixed x is not finite or exceeds _GUARD.
    """
    bundle = build_stencils(grid, form, order)
    forcing = form.birth_const / form.death_const
    template = CorrelationTable(grid, order, 0.0, forcing)
    x = template.as_vector()
    d_f = np.empty((x.size, _MIX_DEPTH), order="F")
    d_g = np.empty((x.size, _MIX_DEPTH), order="F")
    f_prev = g_prev = None
    residuals: List[float] = []
    for it in range(1, max_iter + 1):
        g = ks_apply(CorrelationTable.from_vector(template, x), bundle, closure=closure).as_vector()
        g[1] += forcing
        f = g - x
        residuals.append(float(np.max(np.abs(f))))
        _check_stable(g, it)
        if residuals[-1] <= tol:
            g[0] = 1.0
            return KsSolution(table=CorrelationTable.from_vector(template, g),
                              iterations=it, residuals=residuals, converged=True)
        if f_prev is not None:
            slot = (it - 2) % _MIX_DEPTH
            np.subtract(f, f_prev, out=d_f[:, slot])
            np.subtract(g, g_prev, out=d_g[:, slot])
        f_prev, g_prev = f, g
        if it <= _WARMUP_STEPS:
            x = g
            continue
        df = d_f[:, :min(it - 1, _MIX_DEPTH)]
        gamma = np.linalg.lstsq(df.T @ df, df.T @ f, rcond=1e-14)[0]
        x = g - d_g[:, :gamma.size] @ gamma
        _check_stable(x, it)
    raise ConvergenceError(
        f"balance iteration did not reach tol={tol} in {max_iter} steps "
        f"(last residual {residuals[-1]:.3e})")


def _check_stable(vec: np.ndarray, it: int) -> None:
    # written so that a NaN entry fails the comparison too
    if not float(np.max(np.abs(vec))) <= _GUARD:
        raise StabilityError(
            f"balance iteration left the stable range after {it} steps")


# ---------------------------------------------------------------------------
# time evolution

@dataclass
class HierarchyTrajectory:
    times: np.ndarray
    tables: List[CorrelationTable]

    @property
    def density(self) -> np.ndarray:
        return np.array([t.k1 for t in self.tables])

    def final(self) -> CorrelationTable:
        return self.tables[-1]


def evolve_hierarchy(initial: CorrelationTable, form: ComponentForm,
                     t_final: float, dt: float = 0.01,
                     record_every: int = 10,
                     closure: str = "poisson") -> HierarchyTrajectory:
    """Integrate the truncated hierarchy with classical fourth-order
    Runge-Kutta steps.  The order-0 entry is conserved.

    Records the state every record_every steps (and always the endpoints).
    """
    if dt <= 0 or t_final < 0:
        raise ConfigError("need dt > 0 and t_final >= 0")
    bundle = build_stencils(initial.grid, form, initial.order)
    n_steps = int(round(t_final / dt))
    if abs(n_steps * dt - t_final) > 1e-9 * max(1.0, t_final):
        n_steps = math.ceil(t_final / dt)
    template = initial

    def deriv(vec: np.ndarray) -> np.ndarray:
        t = CorrelationTable.from_vector(template, vec)
        return l_delta_apply(t, bundle, closure=closure).as_vector()

    v = initial.as_vector()
    times = [0.0]
    tables = [initial.copy()]
    t = 0.0
    for step in range(1, n_steps + 1):
        h = dt
        d1 = deriv(v)
        d2 = deriv(v + 0.5 * h * d1)
        d3 = deriv(v + 0.5 * h * d2)
        d4 = deriv(v + h * d3)
        v = v + (h / 6.0) * (d1 + 2.0 * d2 + 2.0 * d3 + d4)
        t = step * dt
        if not np.all(np.isfinite(v)) or np.max(np.abs(v)) > _STABILITY_CAP:
            raise StabilityError(
                f"hierarchy blew past the stability cap at t={t:.4g}")
        if step % record_every == 0 or step == n_steps:
            times.append(t)
            tables.append(CorrelationTable.from_vector(template, v))
    return HierarchyTrajectory(times=np.array(times), tables=tables)


# ---------------------------------------------------------------------------
# summaries and sanity checks

@dataclass
class InvariantSummary:
    density: float
    pair_r: np.ndarray
    pair_g: np.ndarray
    sup_by_order: Tuple[float, ...]


def invariant_summary(table: CorrelationTable) -> InvariantSummary:
    """Density and radial pair correlation g(r) = k2 / k1^2."""
    rho = table.k1
    if table.order >= 2 and rho > 0:
        r, mean, _ = radial_profile(table.grid, table.k2)
        g = mean / rho ** 2
    else:
        r, g = np.zeros(0), np.zeros(0)
    return InvariantSummary(density=rho, pair_r=r, pair_g=g,
                            sup_by_order=table.sup_by_order())


@dataclass
class LenardCheck:
    ok: bool
    min_entry: float
    symmetry_defect: float
    min_pairing: float


_PAIRING_MASSES = (-1.2, -1.0, -0.75, -0.5, -0.25, 0.25, 0.5, 0.75, 1.0, 1.2)


def _pairing_values(table: CorrelationTable) -> list:
    """Truncated expectations of product observables prod (1 + g(x)) over
    sampled radial profiles g >= -0.9:

        S(g) = k0 + sum g k1 dv + (1/2) sum g(x) g(y) k2(y-x) dv^2 + ...

    Each profile is a Gaussian bump of random width scaled so the first
    order mass sum g k1 dv lands on a fixed ladder of values; amplitudes
    are capped at -0.9 so the observable itself is nonnegative.  The mass
    ladder stays inside [-1.2, 1.2], where the truncation at orders 2 and 3
    keeps S positive for Poisson and weakly correlated data while a
    vanishing pair function paired with a large density drives S below
    zero.  Lattice sums are O(P^2) in the cell count, desk scale only."""
    vals = [float(table.k0)]         # g = 0 observable
    rho = float(table.k1)
    if table.order < 2 or rho <= 0:
        return vals
    grid = table.grid
    dv = grid.cell_volume
    r = grid.distances
    side = grid.torus.side
    di = grid.diff_index
    k2m = table.k2[di]               # k2 at offset_j - offset_l
    rng = np.random.default_rng(20240117)
    for target in _PAIRING_MASSES:
        width = rng.uniform(0.08, 0.45) * side
        raw = np.exp(-((r / width) ** 2))
        u0 = rho * float(np.sum(raw)) * dv
        if u0 <= 0:
            continue
        c = target / u0
        if c < -0.9:                 # keep 1 + g(x) >= 0.1 pointwise
            c = -0.9
        g = c * raw
        s = float(table.k0) + rho * float(np.sum(g)) * dv
        s += 0.5 * float(g @ k2m @ g) * dv ** 2
        if table.order >= 3:
            s += _triple_sum(table.k3, g, di) * dv ** 3 / 6.0
        vals.append(s)
    return vals


def lenard_spot_check(table: CorrelationTable, tol: float = 1e-8) -> LenardCheck:
    """Necessary positivity conditions for correlation data of a point
    process: nonnegative entries, the exchange symmetries the reduction
    must respect, and sampled product observables whose truncated
    expectations must stay nonnegative.  The pairing check catches
    internally inconsistent data, such as a large density with a vanishing
    pair function, that entrywise checks cannot see."""
    entries = [table.k0, table.k1]
    sym = 0.0
    if table.order >= 2:
        entries.append(float(np.min(table.k2)) if table.k2.size else 0.0)
        neg = table.grid.diff_index[0]       # index of -offset[j]
        sym = float(np.max(np.abs(table.k2 - table.k2[neg])))
    if table.order >= 3:
        entries.append(float(np.min(table.k3)) if table.k3.size else 0.0)
        sym = max(sym, float(np.max(np.abs(table.k3 - table.k3.T))))
    scale = max(1.0, table.max_abs())
    min_entry = min(entries)
    min_pairing = min(_pairing_values(table))
    ok = (min_entry >= -tol * scale
          and sym <= math.sqrt(tol) * scale
          and min_pairing >= -tol * scale)
    return LenardCheck(ok=ok, min_entry=min_entry,
                       symmetry_defect=sym, min_pairing=min_pairing)
