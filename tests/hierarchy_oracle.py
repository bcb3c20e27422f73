"""Reference implementation of the truncated generator dual.

These are the order-1, order-2 and order-3 formulas of
``hierarchy.l_delta_apply`` written out directly, each term from its own
stencil, with fresh arrays and no precomputed factors.  The production
kernel folds factors together and works in place; the differential tests
compare it with this oracle entry by entry.  dense_triple_sum is the
lattice triple sum of ``tables.product_expectation`` as a dense product,
the reference for its Fourier-space form.

Both production routines take correlation data: k2 and the profile of
product_expectation invariant under the lattice point group, and k3, by
its layout, one value per orbit of S3 x the point group.  The oracles
work on P x P arrays: full_diff_index is the index of offset differences
on every pair of cells (the grid forms only the representative rows),
full_labels expands the orbit labels the grid keeps on the representative
rows to every entry, expanded(table) forms a table's k3 as one
(values[full_labels(grid)]), and packed reads a symmetric P x P k3 at the
orbit representatives.  symmetrised_table and radial_field draw such
inputs.
"""

import functools
import itertools

import numpy as np

from coupledbd.tables import CorrelationTable, corrected_stencil


def dense_triple_sum(k3, w, di):
    """sum over cells p1, p2, p3 of w[p1] w[p2] w[p3] k3[p2 - p1, p3 - p1].

    Substituting p2 = p1 + j, p3 = p1 + l gives sum_jl k3[j, l] T[j, l] with
    T[j, l] = sum_a w[a] w[a + j] w[a + l], one gather and one matrix product.
    """
    shifted = w[di[:, di[0]]]        # shifted[a, j] = w(offset_a + offset_j)
    triple = (shifted * w[:, None]).T @ shifted
    return float(np.sum(triple * k3))


def vector_maps(grid):
    """Flat index maps of cells under -1, a reflection of axis 0 and, in 2D
    and 3D, every axis permutation, from integer lattice coordinates."""
    n, shape = grid.points_per_axis, grid.shape
    lat = np.array(np.unravel_index(np.arange(grid.num_cells), shape)).T

    def flat(v):
        return np.ravel_multi_index(tuple(np.mod(v, n).T), shape)

    refl = lat.copy()
    refl[:, 0] *= -1
    perms = [flat(lat[:, list(s)]) for s in itertools.permutations(range(grid.torus.dim))]
    return flat(-lat), flat(refl), perms


def k3_generators(grid):
    """The swap (j, l) -> (l, j), the rebase {0, a, b} -> {-a, 0, b - a}, a
    reflection and, in 2D and 3D, an axis swap, as maps of a P x P table."""
    neg, refl, perms = vector_maps(grid)
    rebase = (neg[:, None], full_diff_index(grid).T)   # b - a is offset[l] - offset[j]
    gens = {"swap": lambda k: k.T, "rebase": lambda k: k[rebase],
            "reflection": lambda k: k[refl[:, None], refl]}
    if len(perms) > 1:
        gens["axis swap"] = lambda k: k[perms[1][:, None], perms[1]]
    return gens


def symmetrised(grid, k2, k3, s3=True):
    """k2 and k3 averaged over the lattice point group, k3 first over S3
    when s3: over S3 as its six compositions of the swap and the rebase,
    over the point group as the reflections of each axis, then the axis
    permutations."""
    if s3:
        gens = k3_generators(grid)
        s, r = gens["swap"], gens["rebase"]
        k3 = (k3 + s(k3) + r(k3) + s(r(k3)) + r(s(k3)) + s(r(s(k3)))) / 6.0
    _, _, perms = vector_maps(grid)
    lat = np.array(np.unravel_index(np.arange(grid.num_cells), grid.shape)).T
    for axis in range(grid.torus.dim):
        flipped = lat.copy()
        flipped[:, axis] *= -1
        f = np.ravel_multi_index(tuple(np.mod(flipped, grid.points_per_axis).T), grid.shape)
        k2, k3 = 0.5 * (k2 + k2[f]), 0.5 * (k3 + k3[f[:, None], f])
    k2 = sum(k2[q] for q in perms) / len(perms)
    k3 = sum(k3[q[:, None], q] for q in perms) / len(perms)
    return k2, k3


@functools.lru_cache(maxsize=None)
def full_diff_index(grid):
    """The P x P index of offset differences: entry [j, l] is the flat
    index of offset[j] - offset[l], from lattice coordinates."""
    lat = grid.lattice
    di = grid.flat(lat[:, None] - lat[None, :]).astype(np.int32)
    di.flags.writeable = False       # one array per grid, shared by every call
    return di


def _row_image(grid, u, v):
    """For cells at lattice coordinates u and v (N x d), the flat index in
    GridSpec.k3_orbits.labels of [f, g v], with g the point-group element
    that folds u into [0, n/2] per axis and then sorts it into f, the
    representative of u's orbit (GridSpec.cell_orbits)."""
    n = grid.points_per_axis
    u, v = np.mod(u, n), np.mod(v, n)
    flip = u > n - u
    v = np.where(flip, -v, v)
    order = np.argsort(np.where(flip, n - u, u), axis=1, kind="stable")
    image = grid.flat(np.take_along_axis(v, order, axis=1))
    return grid.cell_orbits.labels[grid.flat(u)] * grid.num_cells + image


@functools.lru_cache(maxsize=None)
def full_labels(grid):
    """The P x P orbit labels of the order-3 entries: entry [j, l] holds
    the label of [f, g l] in GridSpec.k3_orbits' representative rows, g the
    point-group element that takes j to its representative f."""
    p, lat = grid.num_cells, grid.lattice
    index = _row_image(grid, np.repeat(lat, p, axis=0), np.tile(lat, (p, 1)))
    labels = grid.k3_orbits.labels.ravel()[index].reshape(p, p)
    labels.flags.writeable = False   # one array per grid, shared by every call
    return labels


def expanded(table):
    """The P x P k3 of an order-3 table: each entry at its orbit's value."""
    return table.k3[full_labels(table.grid)]


def packed(grid, k3):
    """The orbit values of a P x P k3 invariant under S3 x the point group:
    its entries at the orbit representatives."""
    return k3.ravel()[grid.k3_orbits.reps]


def full_vector(table):
    """A table's flat vector with k3 expanded to its P x P entries, the
    layout of oracle_l_delta_apply's result."""
    if table.order < 3:
        return table.as_vector()
    return np.concatenate((table.vec[:2 + table.grid.num_cells], expanded(table).ravel()))


def symmetrised_table(grid, seed):
    """A random order-3 table averaged over S3 x the lattice point group,
    a new table on each call."""
    return CorrelationTable(grid, 3, 1.0, 0.8, *_symmetrised_draw(grid, seed))


@functools.lru_cache(maxsize=None)
def _symmetrised_draw(grid, seed):
    """k2 and the orbit values of k3 of symmetrised_table, drawn once per
    grid and seed."""
    p = grid.num_cells
    rng = np.random.default_rng(seed)
    k2, k3 = symmetrised(grid, rng.uniform(0.5, 1.5, p), rng.uniform(0.5, 1.5, (p, p)))
    return k2, packed(grid, k3)


def radial_field(grid, rng):
    """A random lattice field that depends on the offset distance only,
    one normal draw per distinct distance."""
    shell = np.unique(np.round(grid.distances, 12), return_inverse=True)[1]
    return rng.normal(size=shell.max() + 1)[shell]


def _rebased_triple_integral(k3, weights, di):
    """out[j, l] = sum_r weights[r] * k3[di[l, j], di[r, j]]."""
    p = di.shape[0]
    shifted = weights[di[:, di[0]]]
    gather = np.arange(p)[:, None] * p + di.T
    return np.take(shifted.T @ k3.T, gather)


def oracle_l_delta_apply(table, form, closure="poisson"):
    """The kernel's result as a flat vector [k0, k1, k2, k3 (P x P entries,
    row-major)] for orders 1 to 3, k3 read as expanded(table)."""
    grid = table.grid
    cw = grid.cell_volume
    n_ord = table.order
    rho_c = table.k1 if closure == "poisson" else 0.0
    m, z = form.death_const, form.birth_const

    am_p = am_cw = u_p = u_cw = t_p = t_cw = ab_p = ab_cw = None
    am_mass = u_mass = t_mass = ab_mass = 0.0
    if form.death_kernel is not None and not form.death_kernel.is_zero:
        am_p = form.death_kernel(grid.distances)
        am_cw = corrected_stencil(grid, form.death_kernel) * cw
        am_mass = float(np.sum(am_cw))
    if form.death_pot is not None and not form.death_pot.is_zero:
        u_p = np.expm1(form.death_pot(grid.distances))
        u_cw = corrected_stencil(grid, form.death_pot, 1) * cw
        u_mass = float(np.sum(u_cw))
    if form.birth_pot is not None and not form.birth_pot.is_zero:
        t_p = np.expm1(-form.birth_pot(grid.distances))
        t_cw = corrected_stencil(grid, form.birth_pot, -1) * cw
        t_mass = float(np.sum(t_cw))
    if (form.birth_kernel is not None and not form.birth_kernel.is_zero
            and form.birth_kernel_scale != 0.0):
        s = form.birth_kernel_scale
        ab_p = form.birth_kernel(grid.distances) * s
        ab_cw = corrected_stencil(grid, form.birth_kernel) * cw * s
        ab_mass = float(np.sum(ab_cw))

    k0, k1 = table.k0, table.k1
    k2, k3 = table.k2, (expanded(table) if n_ord == 3 else None)

    # order 1
    out1 = 0.0
    if u_p is not None:
        if n_ord >= 2:
            out1 -= m * (k1 + float(u_cw @ k2))
        else:
            out1 -= m * k1 * (1.0 + rho_c * u_mass)
    else:
        out1 -= m * k1
        if am_p is not None:
            if n_ord >= 2:
                out1 -= float(am_cw @ k2)
            else:
                out1 -= rho_c * k1 * am_mass
    if form.birth_pot is not None:
        out1 += z * (k0 + k1 * t_mass)
    else:
        out1 += z * k0 + k1 * ab_mass
    if n_ord == 1:
        return np.array([0.0, out1])

    # order 2
    di = full_diff_index(grid)
    p = grid.num_cells
    k2mat = k2[di]                      # k2 at offset[j] - offset[l]
    out2 = np.zeros(p)
    if u_p is not None:
        bracket = 2.0 * k2
        if n_ord >= 3:
            bracket = bracket + k3 @ u_cw + np.sum(u_cw[di] * k3, axis=1)
        else:
            bracket = bracket + 2.0 * rho_c * u_mass * k2
        out2 -= m * (1.0 + u_p) * bracket
    else:
        out2 -= 2.0 * m * k2
        if am_p is not None:
            out2 -= 2.0 * am_p * k2
            if n_ord >= 3:
                out2 -= k3 @ am_cw + np.sum(am_cw[di] * k3, axis=1)
            else:
                out2 -= 2.0 * rho_c * am_mass * k2
    if form.birth_pot is not None:
        br1 = np.full(p, k1)
        br2 = np.full(p, k1)
        fac = np.ones(p)
        if t_p is not None:
            fac = 1.0 + t_p
            br1 = br1 + t_cw[di] @ k2
            br2 = br2 + k2mat.T @ t_cw
        out2 += z * fac * (br1 + br2)
    else:
        base = z if ab_p is None else z + ab_p
        out2 += 2.0 * base * k1
        if ab_p is not None:
            out2 += ab_cw[di] @ k2 + k2mat.T @ ab_cw
    if n_ord == 2:
        return np.concatenate(([0.0, out1], out2))

    # order 3
    out3 = np.zeros((p, p))
    k2j = k2[:, None]
    k2l = k2[None, :]
    k2base = k2mat.T                    # k2 at offset[l] - offset[j]
    if u_p is not None:
        e, e2 = 1.0 + u_p, 1.0 + u_p[di]
        e3 = e[:, None] * e[None, :] + e[:, None] * e2 + e[None, :] * e2
        out3 -= m * (1.0 + rho_c * u_mass) * e3 * k3
    else:
        if am_p is None:
            out3 -= 3.0 * m * k3
        else:
            pair3 = 3.0 * m + 2.0 * (am_p[:, None] + am_p[None, :] + am_p[di])
            out3 -= pair3 * k3
            out3 -= 3.0 * rho_c * am_mass * k3
    if t_p is not None:
        t, t2 = 1.0 + t_p, 1.0 + t_p[di]
        f_l, f_j, f_0 = t[None, :] * t2, t[:, None] * t2, t[:, None] * t
        r1 = k3 @ t_cw[di].T
        x0 = _rebased_triple_integral(k3, t_cw, di)
        out3 += z * (f_l * (k2j + r1) + f_j * (k2l + r1.T) + f_0 * (k2base + x0))
    elif ab_p is not None:
        ab2 = ab_p[di]
        s_l = z + ab_p[None, :] + ab2
        s_j = z + ab_p[:, None] + ab2
        s_0 = z + ab_p[:, None] + ab_p
        r1 = k3 @ ab_cw[di].T
        x0 = _rebased_triple_integral(k3, ab_cw, di)
        out3 += s_l * k2j + s_j * k2l + s_0 * k2base + r1 + r1.T + x0
    else:
        out3 += z * (k2j + k2l + k2base)
    return np.concatenate(([0.0, out1], out2, out3.ravel()))
