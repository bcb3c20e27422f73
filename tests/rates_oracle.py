"""Pointwise birth and death rates of the model variants and their kernel
expansions: the contract the program's vectorised rates are tested against.

A ComponentForm (coupledbd.models) fixes the rates of one component; its
docstring gives both.  Here they are written out at one point x at a time,
from the form's own fields: env_rates, sys_rates and averaged_rates give the
(death, birth) rates of the environment, of the system of a full model and
of an averaged system.  The death vectors, the birth proposals with their
acceptance and the event loop's incremental state must reproduce them.

For each model the rates admit a finite-difference kernel expansion
d(x, gamma) = sum over finite eta inside gamma of D(x, eta), and likewise b
against B; _form_kernels expands any form into those kernels and
decomposition_kernels applies it to both components.  The tests check the
subset-sum identity that ties the kernels to the rates.

dominating_intensity(prop, x) is the density at x of a birth proposal's
dominating mechanism, which its acceptance thins to the birth rate.
"""

import math
from typing import Optional, Tuple

import numpy as np

from coupledbd.geometry import (
    FiniteConfiguration,
    MarkedConfiguration,
    Torus,
    distances_from,
    squared_distances_from,
)
from coupledbd.models import (
    AveragedModel,
    BirthProposal,
    ComponentForm,
    FormPart,
    RateModel,
    _live,
    component_form,
    rate_form,
)
from coupledbd.potentials import Potential, _safe_exp, potential_functionals


def relative_energy(x, pts: np.ndarray, pot: Optional[Potential], torus: Torus) -> float:
    """Sum of pot(|x - y|) over the rows y of pts (minimal image); 0 for an
    absent or zero term."""
    if not _live(pot) or len(pts) == 0:
        return 0.0
    return float(pot.sum_squared(squared_distances_from(np.asarray(x, dtype=float), pts, torus)))


def _form_rates(x, own: np.ndarray, other: np.ndarray, f: ComponentForm,
                torus: Torus) -> Tuple[float, float]:
    """(death, birth) rate at x of a component with form f, given the points
    own of that component and other of the other one."""
    x = np.asarray(x, dtype=float)
    death = f.death_const
    if f.death_pot is not None:
        death *= _safe_exp(relative_energy(x, own, f.death_pot, torus))
    else:
        death += relative_energy(x, own, f.death_kernel, torus)
        death += relative_energy(x, other, f.cross_death_kernel, torus)
    birth = f.birth_const
    if f.birth_pot is not None or f.cross_birth_pot is not None:
        birth *= math.exp(-(relative_energy(x, own, f.birth_pot, torus)
                            + relative_energy(x, other, f.cross_birth_pot, torus)))
    else:
        if _live(f.birth_kernel) and len(own):
            d = distances_from(x, own, torus)
            parent = np.array([relative_energy(y, other, f.parent_pot, torus) for y in own])
            birth += f.birth_kernel_scale * float(np.sum(np.exp(-parent) * f.birth_kernel(d)))
        birth += relative_energy(x, other, f.cross_birth_kernel, torus)
    return death, birth


def env_rates(x, gamma_minus: FiniteConfiguration, m: RateModel, torus: Torus) -> Tuple[float, float]:
    """(death, birth) rate of the environment at x given gamma_minus.

    For the death rate of an existing particle the caller passes the
    configuration with that particle removed.
    """
    pts = gamma_minus.points
    return _form_rates(x, pts, pts[:0], component_form(m), torus)


def sys_rates(x, gamma: MarkedConfiguration, m: RateModel, torus: Torus) -> Tuple[float, float]:
    """(death, birth) rate of the system at x given the pair configuration.

    Same removal convention as env_rates: for a death rate, gamma.plus has
    the particle at x already removed.
    """
    return _form_rates(x, gamma.plus.points, gamma.minus.points, rate_form(m, "system"), torus)


def averaged_rates(x, gamma_plus: FiniteConfiguration, am: AveragedModel, torus: Torus) -> Tuple[float, float]:
    """(death, birth) rate of the averaged system at x."""
    pts = gamma_plus.points
    return _form_rates(x, pts, pts[:0], component_form(am, "system"), torus)


def _mayer_product(x, pts: np.ndarray, pot: Optional[Potential], torus: Torus,
                   sign: float = -1.0) -> float:
    """Product of (exp(sign * pot(|x - y|)) - 1) over the rows y of pts: 1 on
    the empty set, 0 on a nonempty one when the term is absent or zero."""
    if len(pts) == 0:
        return 1.0
    if pot is None or pot.is_zero:
        return 0.0
    return float(np.prod(np.expm1(sign * pot(distances_from(x, pts, torus)))))


def _singleton(x, pts: np.ndarray, pot: Potential, torus: Torus) -> float:
    """pot(|x - y|) when pts holds one point y; 0 otherwise."""
    if len(pts) != 1:
        return 0.0
    return float(pot(distances_from(x, pts, torus))[0])


def _part_kernel(part: FormPart, x, own: np.ndarray, other: np.ndarray, torus: Torus) -> float:
    """Kernel of one part of a form at x on the points own and other, not
    both empty.  An exponential part gives its constant times the Mayer
    products over both; an additive one its kernels on singletons, a
    parent's weighted by its damping's Mayer product over the other points."""
    if part.exponential:
        return (part.const * _mayer_product(x, own, part.own, torus, part.sign)
                * _mayer_product(x, other, part.other, torus, part.sign))
    if len(own) == 1:
        return (part.scale * _singleton(x, own, part.own, torus)
                * _mayer_product(own[0], other, part.parent_pot, torus))
    return 0.0 if len(own) else _singleton(x, other, part.other, torus)


def _form_kernels(x, eta: FiniteConfiguration, f: ComponentForm, torus: Torus,
                  other: Optional[FiniteConfiguration] = None) -> Tuple[float, float]:
    """(D, B) kernels at x of form f on eta, its own points, and other, the
    other component's (empty when not given); on the empty pair they are
    the constants of the parts."""
    x = np.asarray(x, dtype=float)
    own = eta.points
    other = own[:0] if other is None else other.points
    if len(own) + len(other) == 0:
        return f.death_const, f.birth_const
    return tuple(_part_kernel(p, x, own, other, torus) for p in f.parts)


def decomposition_kernels(m: RateModel, x, eta: MarkedConfiguration, torus: Torus):
    """(D_minus, B_minus, D_plus, B_plus) at x and eta: the minus kernels read
    eta.minus alone, the plus kernels the whole pair.  Summed over all
    subconfigurations they reproduce the rates, their defining property."""
    d_minus, b_minus = _form_kernels(x, eta.minus, component_form(m), torus)
    d_plus, b_plus = _form_kernels(x, eta.plus, rate_form(m, "system"), torus, eta.minus)
    return d_minus, b_minus, d_plus, b_plus


def dominating_intensity(prop: BirthProposal, x) -> float:
    """Density at x of the dominating birth mechanism prop: its uniform
    immigration plus, for each kernel group, each parent's mass spread by
    the group's normalised kernel."""
    x = np.asarray(x, dtype=float)
    total = prop.uniform_mass / prop.torus.volume
    for g in prop.groups:
        if len(g.parents):
            l1 = potential_functionals(g.kernel, prop.torus.dim).l1
            d = distances_from(x, g.parents, prop.torus)
            total += float(np.sum(g.masses / l1 * g.kernel(d)))
    return total
