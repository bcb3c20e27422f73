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
and they are not small: on 1D hard rods (psi step(40, 1), side 20, 160
grid points) the density, the same at every order, is below Tonks' exact
value by 3.9% at z = 0.5, 7.9% at z = 1.0 and 10.8% at z = 1.5, and the
first dropped term alone would close these gaps to 0.2-0.9%.

A form has one death part and one birth part (ComponentForm.parts), each
additive (a kernel) or exponential (const * (e^{+-pot} - 1)); build_stencils
reads their shapes there.  An exponential part is the additive one with
that kernel, each term that carries a fixed pair multiplied by the dressing
e^{+-pot}.  A StencilPart holds one part on the grid with its constant
(death_const, birth_const or birth_kernel_scale) folded in, so orders 1
and 2 have one death path and one birth path.  With a constant death rate
the order-n output reads only k0..kn, and the density
z / (death_const + z beta) is the same at every order.

The invariant state is computed as the fixed point of the rearranged
balance equation: with M(eta) = |eta| * death_const,

    k = k + (L k) / M  + forcing,     forcing = birth_const/death_const on
                                      singletons, from the order-0 pin k0=1.

ks_solve finds this fixed point by Anderson mixing of the map, after two
plain Picard steps; a form with a constant death rate it solves order by
order (see ks_solve).  For the free (non-interacting) case Picard is exact
after `order` steps, so the solve still stops within `order` iterations
there.  evolve_hierarchy integrates the table it is given; for a
constant-death form the CLI hands it an order-1 table, since no higher
order feeds the density.

Memory layout.  A table (CorrelationTable) is one flat vector [k0, k1,
k2, one k3 value per orbit], its order-3 block on the R orbits of S3 x
the lattice point group (GridSpec.k3_orbits; R is about P^2/43 at 16 x 16
and P^2/48 at 64 x 64), so no array of the kernel or the solvers has
P x P entries.  The lattice product of the order-3 step is an FFT
convolution (_stencil_product) of k3's rows at the representatives under
the point group (GridSpec.cell_orbits, |F| about P/8 in 2D), k3 indexed
by the grid's |F| x P int32 orbit labels, with the birth stencil.  The
order-3 birth term is summed over each orbit on those rows and scattered
by the same labels, and build_stencils keeps its coefficient there, one
|F| x P float array, and the death coefficients of the R values.  The
mixing solver (_mix) holds the vector it was started from, which holds x,
then f = g - x, then the next x; g, the kernel's result; and the
histories dF and dG, 2 _MIX_DEPTH vectors whose slot due next also keeps
the last f and g.  evolve_hierarchy holds the state, one stage input, the
weighted sum of the step's derivatives and the latest derivative.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from .errors import ConfigError, ConvergenceError, ModelError, StabilityError
from .models import ComponentForm, FormPart, component_form
from .tables import (
    CorrelationTable,
    GridSpec,
    corrected_stencil,
    product_expectation,
    radial_profile,
    sup_abs,
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
    hat: Optional[np.ndarray] = None      # birth: rfftn of cw on the grid (order >= 2)

    def __post_init__(self):
        self.mass = float(np.sum(self.cw))


@dataclass(eq=False)
class StencilBundle:
    """A form's death and birth parts on a grid (None where the term is
    absent, zero, or scaled by 0), plus the order-3 coefficients: of the
    death term on the R orbit representatives (j, l) of GridSpec.k3_orbits,
    arrays or scalars, and of the birth term on the representative rows of
    GridSpec.cell_orbits."""
    grid: GridSpec
    form: ComponentForm
    order: int
    death: Optional[StencilPart] = None   # constant m folded into an exponential death
    birth: Optional[StencilPart] = None   # z (exponential) or birth_kernel_scale folded in
    neg: Optional[np.ndarray] = None      # index of -offset[j] (order >= 2)
    # order 3: the death coefficient of k3 is death3[0] + rho death3[1]
    death3: Optional[Tuple] = None
    # order 3: the coefficient of the birth term T[f, c] on the rows f,
    # |F| x P, or |F| x 1 without a birth stencil, times 3 times the size
    # of f's orbit (l_delta_apply)
    birth3: Optional[np.ndarray] = None


# Table entries _stencil_product transforms at a time: blocks of rows whose
# spectra and inverse transforms, about 0.13 MB each, stay in cache.
_FFT_BLOCK = 1 << 14


def _part(grid: GridSpec, part: FormPart) -> Optional[StencilPart]:
    """The additive part scale * own, or the exponential part
    const * (e^{sign own} - 1) dressed by e^{sign own}; None when its term
    is zero or its constant is 0."""
    pot, sign = part.own, (part.sign if part.exponential else 0)
    scale = part.const if sign else part.scale
    if pot.is_zero or scale == 0.0:
        return None
    cw, corrected = grid.cell_volume, corrected_stencil(grid, pot, sign)
    if not sign:
        return StencilPart(pot(grid.distances) * scale, corrected * cw * scale)
    mayer = np.expm1(sign * pot(grid.distances))
    return StencilPart(scale * mayer, scale * corrected * cw, 1.0 + mayer)


def build_stencils(grid: GridSpec, form: ComponentForm, order: int) -> StencilBundle:
    if not form.autonomous:
        raise ModelError("the hierarchy needs an autonomous form, without cross terms")
    validate_grid_for_model(grid, form.potentials())
    m, z = form.death_const, form.birth_const
    b = StencilBundle(grid=grid, form=form, order=order)
    b.death, b.birth = (_part(grid, part) for part in form.parts)
    death, birth = b.death, b.birth

    if order >= 2:
        b.neg = grid.flat(-grid.lattice)
        if birth is not None:
            birth.hat = np.fft.rfftn(birth.cw.reshape(grid.shape))
    if order >= 3:
        # the birth term T[f, c] that puts the new point next to offset[c],
        # at the representative rows f of GridSpec.cell_orbits, times 3
        # times the size of f's orbit (l_delta_apply), f - c read from the
        # row differences (GridSpec.diff_index)
        p, rows, diff = grid.num_cells, grid.cell_orbits, grid.diff_index
        weight = 3.0 * rows.sizes[:, None]
        if birth is None:
            b.birth3 = z * weight
        elif birth.dress is not None:
            t = birth.dress
            b.birth3 = t[diff]
            b.birth3 *= t
            b.birth3 *= weight
        else:
            a = birth.p
            b.birth3 = a[diff]
            b.birth3 += a
            b.birth3 += z
            b.birth3 *= weight
        # the R orbit representatives (j, l), j in F, whose j - l is in row
        # cell_orbits.labels[j] of the row differences; every stencil is
        # radial, so its values at l - j and j - l are equal to the last bit
        j, l = np.divmod(grid.k3_orbits.reps, p)
        lj = diff[rows.labels[j], l]
        if death is None:
            b.death3 = (-3.0 * m, 0.0)
        elif death.dress is not None:
            e = death.dress
            e3 = -(e[j] * e[l] + (e[j] + e[l]) * e[lj])
            b.death3 = (m * e3, death.mass * e3)
        else:
            a = death.p
            b.death3 = (-(3.0 * m + 2.0 * (a[j] + a[l] + a[lj])), -3.0 * death.mass)
    return b


def _stencil_product(part: StencilPart, shape: Tuple[int, ...], a: np.ndarray,
                     out: np.ndarray) -> np.ndarray:
    """out[i, j] = sum_l cw at offset[j] - offset[l] times a[i, l], for a
    vector a or a table a of P columns, into out of a's shape, which may be
    a itself.

    On the torus this is the lattice convolution of each row of a with cw,
    irfftn(rfftn(row) * part.hat) on the grid of the given shape, taken
    _FFT_BLOCK entries of a at a time."""
    p = a.shape[-1]
    rows, out_rows = a.reshape(-1, p), out.reshape(-1, p)
    axes, step = tuple(range(1, len(shape) + 1)), max(1, _FFT_BLOCK // p)
    for i in range(0, rows.shape[0], step):
        spec = np.fft.rfftn(rows[i:i + step].reshape((-1,) + shape), axes=axes)
        spec *= part.hat
        out_rows[i:i + step] = np.fft.irfftn(spec, shape, axes=axes).reshape(-1, p)
    return out


def l_delta_apply(table: CorrelationTable, bundle: StencilBundle,
                  closure: str = "poisson") -> CorrelationTable:
    """Apply the truncated generator dual to a correlation table.

    The table must have the symmetries of correlation data: k2 invariant
    under the lattice point group, as every table the solvers make is; k3
    is invariant under S3 x the point group by its layout.  Returns a new
    table; its order-0 slot is zero, since the empty-configuration entry is
    conserved by the dynamics.
    """
    if closure not in _CLOSURES:
        raise ConfigError(f"closure must be one of {_CLOSURES}")
    if table.grid is not bundle.grid and table.grid != bundle.grid:
        raise ConfigError("table and stencil bundle use different grids")
    if table.order > bundle.order:
        raise ConfigError(f"an order-{table.order} table needs a bundle of order {table.order}")
    grid, n_ord = table.grid, table.order
    m, z = bundle.form.death_const, bundle.form.birth_const
    death, birth = bundle.death, bundle.birth

    k0, k1, k2, k3 = table.k0, table.k1, table.k2, table.k3
    rho = k1 if closure == "poisson" else 0.0
    out = CorrelationTable.from_vector(table, np.empty_like(table.vec))

    # ----- order 1 --------------------------------------------------------
    out1 = z * k0 - m * k1
    if death is not None:
        out1 -= float(death.cw @ k2) if n_ord >= 2 else rho * k1 * death.mass
    if birth is not None:
        out1 += k1 * birth.mass
    out.vec[:2] = 0.0, out1
    if n_ord == 1:
        return out

    # ----- order 2 --------------------------------------------------------
    # Radial weights w give sum_l k2 at offset[l]-offset[j] times w[l] as
    # (w2 @ k2)[-j], where w2 @ k2 is the other birth term.  k3's rows are
    # equal on each orbit of GridSpec.cell_orbits, and so is every row
    # reduction with a radial weight: they are taken on the representative
    # rows k3f, gathered from the orbit values, and expanded by the row
    # labels.
    rows = grid.cell_orbits
    k3f = k3[grid.k3_orbits.labels] if n_ord == 3 else None
    out2 = out.k2
    if death is None:
        np.multiply(k2, -2.0 * m, out=out2)
    else:
        np.multiply(m + death.p, -2.0 * k2, out=out2)
        if n_ord == 3:
            # the two integrals sum_l k3[j, l] cw at offset[l] and at
            # offset[j] - offset[l] are equal, since the rebase maps k3[j, l]
            # to k3[-j, l - j]
            integrated = 2.0 * (k3f @ death.cw)[rows.labels]
        else:
            integrated = 2.0 * rho * death.mass * k2
        if death.dress is not None:
            integrated *= death.dress
        out2 -= integrated
    if birth is None:
        out2 += 2.0 * z * k1
    else:
        v = _stencil_product(birth, grid.shape, k2, np.empty_like(k2))
        v += v[bundle.neg]
        if birth.dress is not None:
            v *= birth.dress
        out2 += 2.0 * k1 * (z + birth.p)
        out2 += v
    if n_ord == 2:
        return out

    # ----- order 3 --------------------------------------------------------
    # The three birth terms put the new point next to each point of the
    # triple {0, offset[j], offset[l]}, and S3 permutes them.  The one that
    # puts it next to offset[c], at the entry [f, c], is T[f, c] =
    # t[c] t[f - c] (r1[f, c] + z k2[f]) for a birth dressed by t,
    # r1[f, c] + (z + p[c] + p[f - c]) k2[f] for an additive birth of pair
    # factor p and z k2[f] without a stencil, where r1[f, c] = sum_r
    # k3[f, r] w at offset[r] - offset[c], w the birth stencil.  With k2
    # invariant under the point group, as the docstring requires, T is too,
    # and the output is the same on every entry of an orbit of S3 x the
    # point group: on orbit o it is 3 / k3_orbits.sizes[o] times the sum of
    # T over the orbit's entries.  The representative rows f hold them, each
    # row standing for the cell_orbits.sizes[f] rows of its orbit; the
    # bundle's coefficient carries 3 times that size.  r1 is formed in
    # place of k3f.
    death3, coef = bundle.death3, bundle.birth3
    value = np.multiply(k3, death3[0] + rho * death3[1], out=out.k3)
    k2f = k2[rows.reps, None]
    if birth is None:
        term = np.multiply(coef, k2f, out=k3f)
    else:
        term = _stencil_product(birth, grid.shape, k3f, k3f)
        if birth.dress is not None:
            term += z * k2f
            term *= coef
        else:
            term *= 3.0 * rows.sizes[:, None]
            term += coef * k2f
    births = np.zeros_like(value)
    np.add.at(births, grid.k3_orbits.labels.ravel(), term.ravel())
    births /= grid.k3_orbits.sizes
    value += births
    return out


# ---------------------------------------------------------------------------
# invariant state

def ks_apply(table: CorrelationTable, bundle: StencilBundle,
             closure: str = "poisson") -> CorrelationTable:
    """One application of the rearranged balance operator (without forcing)
    to a correlation table; returns a new table.

    The table is read with k0 = 0 and the output has k0 = 0; the order-0
    pin enters through the forcing added by the solver.
    """
    out = l_delta_apply(table, bundle, closure=closure)
    m = bundle.form.death_const
    # k0 enters the kernel's output only as z k0, in its order-1 entry
    out.vec[1] = table.k1 + (out.vec[1] - bundle.form.birth_const * table.k0) / m
    for n, lk, k in ((2, out.k2, table.k2), (3, out.k3, table.k3)):
        if n <= table.order:
            lk /= n * m
            lk += k
    return out


@dataclass
class KsSolution:
    table: CorrelationTable
    iterations: int            # of the solve at the requested order
    residuals: List[float]     # of the solve at the requested order
    converged: bool
    evaluations: int           # kernel evaluations, lower-order stages included


# Each history vector of the mixing is a table's vector, 2 + P + R floats,
# 2.9 MB at 64 x 64.  A deeper history would cost little memory, but it
# changes the iteration and kernel call counts that CI pins.
_MIX_DEPTH = 3
_WARMUP_STEPS = 2
# A history column whose pivot in the Gram matrix dF^T dF falls to this
# fraction of the matrix's largest diagonal entry depends on the columns
# taken before it and is left out of the step (_gram_solve): the level at
# which an rcond of 1e-14 cuts the singular values of that matrix.
_MIX_CUT = 1e-14
# Largest entry a balance iterate may reach before StabilityError.
_GUARD = 1e8
# Largest entry a hierarchy state may reach before StabilityError.
_STABILITY_CAP = 1e9


def ks_solve(form: ComponentForm, grid: GridSpec, order: int = 3,
             tol: float = 1e-12, max_iter: int = 500,
             closure: str = "poisson") -> KsSolution:
    """Invariant correlation table: the fixed point of G(x) = ks_apply(x) +
    forcing, by Anderson mixing (_mix).

    For a constant-death form (ComponentForm.constant_death) the order-n
    map reads only k0..kn, so the order-(n-1) fixed point already holds
    the lower blocks of the order-n one.  Such a form is solved order by order,
    each order from the fixed point below it with kn = 0 and order 1 from
    the forcing; any other form is solved at `order` from the forcing.
    tol and max_iter apply to each stage.  iterations and residuals are
    those of the stage at `order`; evaluations counts the kernel
    evaluations of every stage.
    """
    bundle = build_stencils(grid, form, order)
    forcing = form.birth_const / form.death_const
    x = np.array([0.0, forcing])
    evaluations = 0
    for n in range(1 if form.constant_death else order, order + 1):
        start = CorrelationTable(grid, n, 0.0, 0.0)
        start.vec[:x.size] = x
        x, residuals = _mix(start, bundle, forcing, tol, max_iter, closure)
        evaluations += len(residuals)
    x[0] = 1.0
    return KsSolution(table=CorrelationTable.from_vector(start, x),
                      iterations=len(residuals), residuals=residuals,
                      converged=True, evaluations=evaluations)


def _mix(start: CorrelationTable, bundle: StencilBundle, forcing: float,
         tol: float, max_iter: int, closure: str) -> Tuple[np.ndarray, List[float]]:
    """Anderson mixing (Walker & Ni, SIAM J. Numer. Anal. 2011) of G at the
    order of start, from start; (the vector of the fixed point with k0 = 0,
    residuals).

    Each step evaluates g = G(x) and f = g - x and records max|f| in
    residuals.  The first _WARMUP_STEPS steps are plain Picard steps x = g,
    so the free case, where Picard is exact after `order` steps, still
    stops within `order` iterations.  After them x = g - dG gamma, where dF
    and dG hold the differences of f and g over the last _MIX_DEPTH steps
    and gamma solves (dF^T dF) gamma = dF^T f (_gram_solve).  StabilityError
    is raised when g or the mixed x is not finite or exceeds _GUARD.

    The state is a table's vector, whose order-3 block holds one value per
    orbit of S3 x the lattice point group (GridSpec.k3_orbits), so the
    residual and the guards read every entry's value.  In dF these values
    are weighted by the square root of the orbit's size, so that dF^T dF
    and dF^T f keep the values over all P^2 entries; dG is unweighted.  The
    state is exactly symmetric, and must be: the map has unstable
    directions off the symmetric tables (for a 1D Glauber environment at
    z = 1.5, psi step(3, 1), a round-off asymmetry of g grew 1.7-fold a
    step when x took each of the P^2 entries of g), and the layout has no
    entries along them.

    Memory: table vectors only, the history dF, dG (2 _MIX_DEPTH
    vectors), start.vec, which holds x, then the weighted f, then the next
    x, and g, the kernel's result.  f and g wait for the next step's
    differences in the history slot that step overwrites, which the
    current step has read by the time they are stored.
    """
    x = start.vec
    weight = np.sqrt(start.grid.k3_orbits.sizes) if start.order == 3 else None
    d_f = np.empty((x.size, _MIX_DEPTH), order="F")
    d_g = np.empty((x.size, _MIX_DEPTH), order="F")
    residuals: List[float] = []
    for it in range(1, max_iter + 1):
        g = ks_apply(start, bundle, closure=closure).vec
        g[1] += forcing
        f = np.subtract(g, x, out=x)
        residuals.append(sup_abs(f))
        _check_stable(g, it)
        if residuals[-1] <= tol:
            return g, residuals
        if weight is not None:
            f[-weight.size:] *= weight
        if it > 1:
            slot = (it - 2) % _MIX_DEPTH       # holds f and g of the step before
            np.subtract(f, d_f[:, slot], out=d_f[:, slot])
            np.subtract(g, d_g[:, slot], out=d_g[:, slot])
        keep = (it - 1) % _MIX_DEPTH           # the slot the next step overwrites
        nxt = g
        if it > _WARMUP_STEPS:
            df = d_f[:, :min(it - 1, _MIX_DEPTH)]
            gamma = _gram_solve(df.T @ df, df.T @ f)
            nxt = g - d_g[:, :gamma.size] @ gamma
            _check_stable(nxt, it)
        d_f[:, keep] = f
        d_g[:, keep] = g
        x[:] = nxt
    raise ConvergenceError(
        f"balance iteration did not reach tol={tol} in {max_iter} steps "
        f"at order {start.order} (last residual {residuals[-1]:.3e})")


def _gram_solve(gram: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """gamma with gram gamma = rhs for the k x k Gram matrix gram = dF^T dF
    and rhs = dF^T f of the mixing (k <= _MIX_DEPTH), by an LDL^T
    factorisation with symmetric pivoting in Python floats.  Each step
    takes the column of largest remaining diagonal entry and stops when
    that entry falls to _MIX_CUT of the largest diagonal entry of gram;
    the gamma of the columns left, which depend on those taken, is 0.

    Walker & Ni factor dF itself (QR), which squares no condition number;
    the normal equations keep the step within round-off of a least-squares
    solve here (_MIX_CUT cuts dF's columns at 1e-7 of the largest), and
    they need no LAPACK routine, whose first call maps about 1 MB of
    library pages into the process."""
    a, b = gram.tolist(), rhs.tolist()
    cut = _MIX_CUT * max(a[i][i] for i in range(len(b)))
    left, taken = list(range(len(b))), []
    while left:
        p = max(left, key=lambda i: a[i][i])
        if not a[p][p] > cut:
            break
        left.remove(p)
        taken.append(p)
        for i in left:
            factor = a[i][p] / a[p][p]
            b[i] -= factor * b[p]
            for j in left:
                a[i][j] -= factor * a[p][j]
    gamma = [0.0] * len(b)
    for t in reversed(range(len(taken))):
        p = taken[t]
        gamma[p] = (b[p] - sum(a[p][j] * gamma[j] for j in taken[t + 1:])) / a[p][p]
    return np.array(gamma)


def _check_stable(vec: np.ndarray, it: int) -> None:
    # written so that a NaN entry fails the comparison too
    if not sup_abs(vec) <= _GUARD:
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
    tables = [CorrelationTable.from_vector(initial, initial.as_vector())]
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
        if not sup_abs(v) <= _STABILITY_CAP:
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
# Bump widths as fractions of the torus side: the first ten draws of
# np.random.default_rng(20240117).uniform(0.08, 0.45), written out so that
# the check does not import numpy.random.
_PAIRING_WIDTHS = (0.32288300387366115, 0.2348871084441022, 0.4073621458556034,
                   0.12246128989549863, 0.4490565223036195, 0.10811525525696883,
                   0.20318910024106857, 0.20111212337614004, 0.3887602699976431,
                   0.3803719663260995)


def _pairing_values(table: CorrelationTable) -> list:
    """Truncated expectations S(g) (tables.product_expectation) of product
    observables prod (1 + g(x)) over sampled radial profiles g >= -0.9.

    Each profile is a Gaussian bump of a fixed, randomly drawn width
    (_PAIRING_WIDTHS) scaled so the first order mass sum g k1 dv lands on
    a fixed ladder of values (_PAIRING_MASSES); amplitudes
    are capped at -0.9 so the observable itself is nonnegative.  The mass
    ladder stays inside [-1.2, 1.2], where the truncation at orders 2 and 3
    keeps S positive for Poisson and weakly correlated data while a
    vanishing pair function paired with a large density drives S below
    zero.  Each triple sum takes one FFT row per orbit of cells under the
    lattice point group (tables.product_expectation)."""
    vals = [float(table.k0)]         # g = 0 observable
    rho = float(table.k1)
    if table.order < 2 or rho <= 0:
        return vals
    grid = table.grid
    dv = grid.cell_volume
    r = grid.distances
    for target, width in zip(_PAIRING_MASSES, _PAIRING_WIDTHS):
        width *= grid.torus.side
        raw = np.exp(-((r / width) ** 2))
        u0 = rho * float(np.sum(raw)) * dv
        if u0 <= 0:
            continue
        c = target / u0
        if c < -0.9:                 # keep 1 + g(x) >= 0.1 pointwise
            c = -0.9
        vals.append(product_expectation(table, c * raw, dv))
    return vals


def lenard_spot_check(table: CorrelationTable, tol: float = 1e-8) -> LenardCheck:
    """Necessary positivity conditions for correlation data of a point
    process: nonnegative entries, the symmetries of correlation data, and
    sampled product observables whose truncated expectations must stay
    nonnegative.  The pairing check catches internally inconsistent data,
    such as a large density with a vanishing pair function, that entrywise
    checks cannot see.

    symmetry_defect is the largest distance of a k2 entry from the value at
    its orbit's representative under the lattice point group
    (GridSpec.cell_orbits), the symmetry product_expectation requires of
    k2; k3 has those of S3 x the point group by its layout."""
    grid = table.grid
    entries = [table.k0, table.k1]
    sym = 0.0
    if table.order >= 2:
        entries.append(float(np.min(table.k2)) if table.k2.size else 0.0)
        rows = grid.cell_orbits
        sym = sup_abs(table.k2 - table.k2[rows.reps[rows.labels]])
    if table.order >= 3:
        entries.append(float(np.min(table.k3)))
    scale = max(1.0, table.max_abs())
    min_entry = min(entries)
    min_pairing = min(_pairing_values(table))
    ok = (min_entry >= -tol * scale
          and sym <= math.sqrt(tol) * scale
          and min_pairing >= -tol * scale)
    return LenardCheck(ok=ok, min_entry=min_entry,
                       symmetry_defect=sym, min_pairing=min_pairing)
