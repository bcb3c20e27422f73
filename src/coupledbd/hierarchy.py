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

Beyond its constants a form has at most one death and one birth part,
additive (a kernel) or exponential (const * (e^{+-pot} - 1)).  An
exponential part is the additive one with that kernel, each term that
carries a fixed pair multiplied by the dressing e^{+-pot}.  A StencilPart
holds one part with its constant (death_const, birth_const or
birth_kernel_scale) folded in, so orders 1 and 2 have one death path and
one birth path.  With a constant death rate the order-n output reads only
k0..kn, and the density z / (death_const + z beta) is the same at every
order.

The invariant state is computed as the fixed point of the rearranged
balance equation: with M(eta) = |eta| * death_const,

    k = k + (L k) / M  + forcing,     forcing = birth_const/death_const on
                                      singletons, from the order-0 pin k0=1.

ks_solve finds this fixed point by Anderson mixing of the map, starting
at the forcing after two plain Picard steps.  For the free
(non-interacting) case Picard is exact after `order` steps, so the solve
still stops within `order` iterations there.

Memory layout.  ks_solve and evolve_hierarchy keep their state as one flat
vector in the CorrelationTable layout [k0, k1, k2, k3 row-major] and hand
l_delta_apply tables whose entries are views into it
(CorrelationTable.from_vector).  Each l_delta_apply call allocates one
vector, its result; every other array it touches is preallocated.
build_stencils computes the table-independent order-3 factors once (the
dressings or shifted rates of each part) and keeps two P x P scratch
arrays, the workspace the order-3 step assembles its terms in.
The solvers update their iterates, mixing histories and Runge-Kutta
stages in place, and copy a state only when they record or return it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from .errors import ConfigError, ConvergenceError, ModelError, StabilityError
from .models import ComponentForm, component_form
from .potentials import Potential
from .tables import (
    CorrelationTable,
    GridSpec,
    kernel_stencil,
    mayer_stencil,
    pointwise_stencil,
    positive_mayer_stencil,
    product_expectation,
    radial_profile,
    validate_grid_for_model,
)

_CLOSURES = ("poisson", "zero")


# ---------------------------------------------------------------------------
# stencil bundle

@dataclass(eq=False)
class StencilPart:
    """The death or the birth part of a form on the grid, its constant
    folded in (see the module docstring)."""
    p: np.ndarray                         # pair factor at the offsets
    cw: np.ndarray                        # mass-corrected factor * cell volume
    dress: Optional[np.ndarray] = None    # e^{+-pot} at the offsets; None if additive
    cw2: Optional[np.ndarray] = None      # cw at offset[j] - offset[l], [j, l] (order >= 2)

    def __post_init__(self):
        self.mass = float(np.sum(self.cw))


@dataclass(eq=False)
class StencilBundle:
    """A form's death and birth parts on a grid (None where the term is
    absent, zero, or scaled by 0), plus the order-3 factors and workspace."""
    grid: GridSpec
    form: ComponentForm
    order: int
    death: Optional[StencilPart] = None   # constant m folded into an exponential death
    birth: Optional[StencilPart] = None   # z (exponential) or birth_kernel_scale folded in
    # table-independent order-3 factors, indexed [j, l] (order 3)
    death3: Optional[np.ndarray] = None   # minus the pair factor: dressings or additive rates
    birth3: Optional[Tuple[np.ndarray, np.ndarray]] = None  # dressings (f_j, f_0) or rates (s_j, s_0)
    gather3: Optional[np.ndarray] = None  # _rebase_gather of diff_index
    # two P x P scratch arrays the order-3 step writes into (order 3)
    work: Optional[Tuple[np.ndarray, np.ndarray]] = None


def _part(grid: GridSpec, pot: Optional[Potential], scale: float, sign: float = 0.0) -> Optional[StencilPart]:
    """The additive part scale * pot (sign 0), or the exponential part
    scale * (e^{sign pot} - 1) dressed by e^{sign pot}; None when pot is
    absent or zero, or scale is 0."""
    if pot is None or pot.is_zero or scale == 0.0:
        return None
    cw = grid.cell_volume
    if not sign:
        return StencilPart(pointwise_stencil(grid, pot) * scale, kernel_stencil(grid, pot) * cw * scale)
    mayer = np.expm1(sign * pot(grid.distances))
    corrected = positive_mayer_stencil(grid, pot) if sign > 0 else mayer_stencil(grid, pot)
    return StencilPart(scale * mayer, scale * corrected * cw, 1.0 + mayer)


def build_stencils(grid: GridSpec, form: ComponentForm, order: int) -> StencilBundle:
    if not form.autonomous:
        raise ModelError("the hierarchy needs an autonomous form, without cross terms")
    validate_grid_for_model(grid, form.potentials())
    m, z = form.death_const, form.birth_const
    b = StencilBundle(grid=grid, form=form, order=order)
    b.death = (_part(grid, form.death_kernel, 1.0) if form.death_pot is None
               else _part(grid, form.death_pot, m, +1.0))
    b.birth = (_part(grid, form.birth_kernel, form.birth_kernel_scale) if form.birth_pot is None
               else _part(grid, form.birth_pot, z, -1.0))

    if order >= 2:
        di = grid.diff_index
        for part in (b.death, b.birth):
            if part is not None:
                part.cw2 = part.cw[di]
    if order >= 3:
        # Every stencil is radial, so its values at offsets k and -k are
        # equal to the last bit: the [j, l] factors below are symmetric or
        # come in transposed pairs, which the kernel relies on.
        if b.death is not None and b.death.dress is not None:
            e, e2 = b.death.dress, b.death.dress[di]
            b.death3 = -(e[:, None] * e[None, :] + e[:, None] * e2 + e[None, :] * e2)
        elif b.death is not None:
            a = b.death.p
            b.death3 = -(3.0 * m + 2.0 * (a[:, None] + a[None, :] + a[di]))
        if b.birth is not None and b.birth.dress is not None:
            t = b.birth.dress
            b.birth3 = (t[:, None] * t[di], t[:, None] * t)
        elif b.birth is not None:
            a = b.birth.p
            b.birth3 = (z + a[:, None] + a[di], z + a[:, None] + a)
        b.gather3 = _rebase_gather(di)
        p = grid.num_cells
        b.work = (np.empty((p, p)), np.empty((p, p)))
    return b


def _rebase_gather(di: np.ndarray) -> np.ndarray:
    """gather[j, l], the flat index of (di[0, j], di[l, j]) in a P x P array;
    di[0, j] is the index of -offset[j].

    It rebases the third-order table onto a removed base point:
    sum_r w[r] * k3[di[l, j], di[r, j]] is, with b = offset[r] - offset[j],
    (k3 @ w[di].T)[di[l, j], c] at the cell c with offset[c] = -offset[j],
    so one matrix product and this gather give it for every (j, l).
    l_delta_apply forms the product transposed, w[di] @ k3.T for radial
    weights, so that the gather reads along rows.
    """
    p = di.shape[0]
    return di[0].astype(np.intp)[:, None] * p + di.T.astype(np.intp, order="C")


def l_delta_apply(table: CorrelationTable, bundle: StencilBundle,
                  closure: str = "poisson") -> CorrelationTable:
    """Apply the truncated generator dual to a correlation table.

    Returns a new table; its order-0 slot is zero, since the
    empty-configuration entry is conserved by the dynamics.  The order-3
    step works in the bundle's scratch arrays, so one bundle serves one
    call at a time.
    """
    if closure not in _CLOSURES:
        raise ConfigError(f"closure must be one of {_CLOSURES}")
    grid = table.grid
    if grid is not bundle.grid and grid != bundle.grid:
        raise ConfigError("table and stencil bundle use different grids")
    n_ord = table.order
    if n_ord > bundle.order:
        raise ConfigError(f"an order-{n_ord} table needs a bundle of order {n_ord}")
    rho = table.k1 if closure == "poisson" else 0.0
    m, z = bundle.form.death_const, bundle.form.birth_const
    death, birth = bundle.death, bundle.birth

    k0, k1, k2, k3 = table.k0, table.k1, table.k2, table.k3
    out = CorrelationTable.from_vector(table, np.empty_like(table.vec))

    # ----- order 1 --------------------------------------------------------
    out1 = z * k0 - m * k1
    if death is not None:
        out1 -= float(death.cw @ k2) if n_ord >= 2 else rho * k1 * death.mass
    if birth is not None:
        out1 += k1 * birth.mass
    out.k0 = 0.0
    out.k1 = out1
    if n_ord == 1:
        return out

    # ----- order 2 --------------------------------------------------------
    # Radial weights w give sum_l k2 at offset[l]-offset[j] times w[l] as
    # (w2 @ k2)[-j], where w2 @ k2 is the other birth term.
    neg = grid.diff_index[0]                  # index of -offset[j]
    out2 = out.k2
    if death is None:
        np.multiply(k2, -2.0 * m, out=out2)
    else:
        np.multiply(m + death.p, -2.0 * k2, out=out2)
        if n_ord >= 3:
            rows = np.multiply(death.cw2, k3, out=bundle.work[1]).sum(axis=1)
            integrated = k3 @ death.cw + rows
        else:
            integrated = 2.0 * rho * death.mass * k2
        if death.dress is not None:
            integrated *= death.dress
        out2 -= integrated
    if birth is None:
        out2 += 2.0 * z * k1
    else:
        v = birth.cw2 @ k2
        v += v[neg]
        if birth.dress is not None:
            v *= birth.dress
        out2 += 2.0 * k1 * (z + birth.p)
        out2 += v
    if n_ord == 2:
        return out

    # ----- order 3 --------------------------------------------------------
    # out3 collects the death term, then the birth terms.  The two birth
    # terms that put the new point next to point j or point l are
    # transposes of each other, Y and Y.T.  k2 at offset[l]-offset[j] and
    # the rebased integral x0 both come out of one gather of r1.T + z k2[None, :],
    # where r1[j, l] = sum_r k3[j, r] w at offset[r]-offset[l].
    out3 = out.k3
    r, scratch = bundle.work
    k2l = k2[None, :]                         # k2[l] broadcast over j
    # death: an exponential closure scales the dressings, an additive one
    # shifts the rates
    if death is None:
        np.multiply(k3, -3.0 * m, out=out3)
    elif death.dress is not None:
        np.multiply(bundle.death3, k3, out=out3)
        out3 *= m + rho * death.mass
    else:
        np.subtract(bundle.death3, 3.0 * rho * death.mass, out=out3)
        out3 *= k3
    # birth; every gather index is in range, and a mode other than "raise"
    # lets np.take write into its out array without a buffer
    if birth is None:
        np.copyto(r, k2l)
        np.take(r, bundle.gather3, out=scratch, mode="wrap")   # k2 at offset[l]-offset[j]
        scratch += k2[:, None]
        scratch += k2l
        scratch *= z
        out3 += scratch
    elif birth.dress is not None:
        f_j, f_0 = bundle.birth3
        np.matmul(birth.cw2, k3.T, out=r)     # r1.T
        r += z * k2l
        np.take(r, bundle.gather3, out=scratch, mode="wrap")   # z k2 at offset[l]-offset[j], plus x0
        scratch *= f_0
        out3 += scratch
        r *= f_j                              # Y.T
        out3 += r
        out3 += r.T
    else:
        s_j, s_0 = bundle.birth3
        np.matmul(birth.cw2, k3.T, out=r)
        out3 += np.take(r, bundle.gather3, out=scratch, mode="wrap")   # x0
        r += np.multiply(s_j, k2l, out=scratch)                        # Y.T
        out3 += r
        out3 += r.T
        np.copyto(r, k2l)
        np.take(r, bundle.gather3, out=scratch, mode="wrap")   # k2 at offset[l]-offset[j]
        scratch *= s_0
        out3 += scratch
    return out


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
    out = l_delta_apply(work, bundle, closure=closure)
    m = bundle.form.death_const
    out.k1 = work.k1 + out.k1 / m
    for n, lk, k in ((2, out.k2, work.k2), (3, out.k3, work.k3)):
        if n <= work.order:
            lk /= n * m
            lk += k
    return out


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
    x = template.vec
    d_f = np.empty((x.size, _MIX_DEPTH), order="F")
    d_g = np.empty((x.size, _MIX_DEPTH), order="F")
    f, f_prev, mixed, scratch = (np.empty_like(x) for _ in range(4))
    g_prev = None
    residuals: List[float] = []
    for it in range(1, max_iter + 1):
        # g is a new vector on every step, so g_prev and the returned table
        # never share memory with a later step
        g = ks_apply(CorrelationTable.from_vector(template, x), bundle, closure=closure).vec
        g[1] += forcing
        np.subtract(g, x, out=f)
        residuals.append(_max_abs(f, scratch))
        _check_stable(g, it, scratch)
        if residuals[-1] <= tol:
            g[0] = 1.0
            return KsSolution(table=CorrelationTable.from_vector(template, g),
                              iterations=it, residuals=residuals, converged=True)
        if g_prev is not None:
            slot = (it - 2) % _MIX_DEPTH
            np.subtract(f, f_prev, out=d_f[:, slot])
            np.subtract(g, g_prev, out=d_g[:, slot])
        g_prev = g
        if it <= _WARMUP_STEPS:
            x = g
        else:
            df = d_f[:, :min(it - 1, _MIX_DEPTH)]
            gamma = np.linalg.lstsq(df.T @ df, df.T @ f, rcond=1e-14)[0]
            np.matmul(d_g[:, :gamma.size], gamma, out=mixed)
            x = np.subtract(g, mixed, out=mixed)
            _check_stable(x, it, scratch)
        f, f_prev = f_prev, f
    raise ConvergenceError(
        f"balance iteration did not reach tol={tol} in {max_iter} steps "
        f"(last residual {residuals[-1]:.3e})")


def _max_abs(vec: np.ndarray, scratch: np.ndarray) -> float:
    return float(np.max(np.abs(vec, out=scratch)))


def _check_stable(vec: np.ndarray, it: int, scratch: np.ndarray) -> None:
    # written so that a NaN entry fails the comparison too
    if not _max_abs(vec, scratch) <= _GUARD:
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
    When dt does not divide t_final, the last step is shortened so the run
    ends at t_final.
    """
    if dt <= 0 or t_final < 0:
        raise ConfigError("need dt > 0 and t_final >= 0")
    if record_every < 1:
        raise ConfigError("record_every must be at least 1")
    bundle = build_stencils(initial.grid, form, initial.order)
    n_steps = int(round(t_final / dt))
    last_h, t_end = dt, n_steps * dt
    if abs(n_steps * dt - t_final) > 1e-9 * max(1.0, t_final):
        n_steps = math.ceil(t_final / dt)
        last_h, t_end = t_final - (n_steps - 1) * dt, t_final

    def deriv(vec: np.ndarray) -> np.ndarray:
        t = CorrelationTable.from_vector(initial, vec)
        return l_delta_apply(t, bundle, closure=closure).vec

    # v is the state; each stage input is formed in `stage`, and the
    # weighted sum of the four derivatives builds up in the first one
    v = initial.as_vector()
    stage = np.empty_like(v)
    times = [0.0]
    tables = [initial.copy()]
    for step in range(1, n_steps + 1):
        h = dt if step < n_steps else last_h
        acc = deriv(v)
        np.add(v, np.multiply(acc, 0.5 * h, out=stage), out=stage)
        d = deriv(stage)
        np.add(v, np.multiply(d, 0.5 * h, out=stage), out=stage)
        acc += np.multiply(d, 2.0, out=d)
        d = deriv(stage)
        np.add(v, np.multiply(d, h, out=stage), out=stage)
        acc += np.multiply(d, 2.0, out=d)
        acc += deriv(stage)
        acc *= h / 6.0
        v += acc
        t = step * dt if step < n_steps else t_end
        if not _max_abs(v, stage) <= _STABILITY_CAP:
            raise StabilityError(
                f"hierarchy blew past the stability cap at t={t:.4g}")
        if step % record_every == 0 or step == n_steps:
            times.append(t)
            tables.append(CorrelationTable.from_vector(initial, v.copy()))
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
    """Truncated expectations S(g) (tables.product_expectation) of product
    observables prod (1 + g(x)) over sampled radial profiles g >= -0.9.

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
    k2m = table.k2[grid.diff_index]  # k2 at offset_j - offset_l
    rng = np.random.default_rng(20240117)
    for target in _PAIRING_MASSES:
        width = rng.uniform(0.08, 0.45) * grid.torus.side
        raw = np.exp(-((r / width) ** 2))
        u0 = rho * float(np.sum(raw)) * dv
        if u0 <= 0:
            continue
        c = target / u0
        if c < -0.9:                 # keep 1 + g(x) >= 0.1 pointwise
            c = -0.9
        vals.append(product_expectation(table, c * raw, dv, k2m))
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
