"""Rate models for the two-component dynamics and their kernel expansions.

Four model families are provided.  The environment is autonomous; the system
reads the environment but never writes it.

* GlauberGlauber: heat-bath death rate 1 in both components; births damped
  exponentially by the interaction energy with neighbours.
* BdlpInGlauber: density-dependent death and contact births with additive
  kernels for the system, heat-bath environment.
* BranchingInGlauber: parent-mediated branching whose rate is damped by the
  parent's interaction with the environment; death amplified by crowding.
* TwoBdlp: additive-kernel birth and death in both components.

ComponentForm, defined here, describes the rates of one component: constant,
additive-kernel or exponential death and birth parts, plus cross terms that
read the other component.  ComponentForm.parts decides the shape of each
part once, as a FormPart; the views of the form, the kernel expansions, the
death vectors, the hierarchy stencils and the regime checker all read it,
and only the pointwise reference rates (_form_rates) and the averaging map
read the fields themselves.  Each variant is declared once: its NAME, the
terms of its environment and system forms (ENV_TERMS, SYS_TERMS, each term
mapped to the model field that fills it or to a constant) and the names of
its domination ratios (RATIOS).  Both forms, the checks of the activities
and death masses, the config parameters (config.py) and the regime labels
(conditions.py) follow from it; VARIANTS maps each NAME to its class.

rate_form is the one lookup of a form: it returns a model's _sys_form or
_env_form, and an AveragedModel answers it as a model without an
environment.  The environment of every variant, and the system of an
AveragedModel, have no cross terms and so are autonomous one-component
dynamics; component_form is rate_form refusing the system of a full model,
whose cross terms read the environment, and hierarchy.py re-exports it for
the hierarchy, which solves autonomous forms only.  The pointwise rates,
their kernel expansions, the death vectors and the birth proposals of every
component are derived from its form, the event loop updates its rates by
the same terms, and the averaged model replaces the cross terms of the
system form by their averages.

For each model the birth/death rates admit a finite-difference kernel
expansion d(x, gamma) = sum over finite eta inside gamma of D(x, eta) (and
likewise b against B); _form_kernels expands any form into those kernels
and decomposition_kernels applies it to both components.  The subset-sum
identity tying kernels to rates is enforced by tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace
from functools import cached_property
from typing import Callable, NamedTuple, Optional, Tuple, Union

import numpy as np

from .errors import ModelError
from .geometry import (
    FiniteConfiguration,
    MarkedConfiguration,
    Torus,
    distances_from,
    squared_distances_from,
    squared_pairwise_distances,
)
from .potentials import Potential, _safe_exp, potential_functionals, sample_kernel_offsets


class FormPart(NamedTuple):
    """The death part (sign +1) or the birth part (sign -1) of a
    ComponentForm, whose docstring gives both rates.  own is the term read
    over the own component (death_pot, death_kernel, birth_pot or
    birth_kernel), other the cross term; each is a zero potential when
    absent.  An exponential part is const * exp(sign * its pair sums); an
    additive one adds its kernels to const, the own one scaled by scale and
    around parents damped by parent_pot, which is None unless it and that
    kernel are live."""

    exponential: bool
    const: float
    own: Potential
    other: Potential
    sign: int
    scale: float = 1.0
    parent_pot: Optional[Potential] = None


@dataclass(frozen=True)
class ComponentForm:
    """Birth-death structure of one component.

    death rate:  death_const * exp(sum of death_pot over own neighbours)
                 or death_const + sum of death_kernel over own neighbours
                    + sum of cross_death_kernel over the other component
    birth rate:  birth_const * exp(-sum of birth_pot over own neighbours
                                   - sum of cross_birth_pot over the other component)
                 or birth_const + birth_kernel_scale * sum over own parents y of
                    birth_kernel(|x - y|) * exp(-sum of parent_pot around y
                                                 over the other component)
                    + sum of cross_birth_kernel over the other component

    The cross terms read the other component; a form without them is
    autonomous.  Environments and averaged systems are autonomous, the
    system of a full model is not.  parts decides the shape of each part.
    """

    death_const: float
    birth_const: float
    death_kernel: Optional[Potential] = None
    death_pot: Optional[Potential] = None
    birth_kernel: Optional[Potential] = None
    birth_pot: Optional[Potential] = None
    birth_kernel_scale: float = 1.0
    cross_death_kernel: Optional[Potential] = None
    cross_birth_pot: Optional[Potential] = None
    cross_birth_kernel: Optional[Potential] = None
    parent_pot: Optional[Potential] = None

    def __post_init__(self):
        if self.death_const <= 0:
            raise ModelError("death_const must be positive")
        if self.birth_const < 0 or self.birth_kernel_scale < 0:
            raise ModelError("birth_const and birth_kernel_scale must be nonnegative")
        if self.death_pot is not None and (self.death_kernel is not None
                                           or self.cross_death_kernel is not None):
            raise ModelError("death part cannot be both additive and exponential")
        if ((self.birth_pot is not None or self.cross_birth_pot is not None)
                and (self.birth_kernel is not None or self.cross_birth_kernel is not None)):
            raise ModelError("birth part cannot be both additive and exponential")
        if self.parent_pot is not None and self.birth_kernel is None:
            raise ModelError("parent_pot weights the birth kernel, which is missing")

    @cached_property
    def autonomous(self) -> bool:
        return all(getattr(self, n) is None for n in _CROSS_TERMS)

    @cached_property
    def free(self) -> bool:
        """No live pair term at all: births and deaths at constant rates."""
        return self.autonomous and not any(map(_live, self.potentials().values()))

    @cached_property
    def parts(self) -> Tuple[FormPart, FormPart]:
        """The death part and the birth part of the form (FormPart).
        __post_init__ lets at most one field of each `or` chain be set."""
        death = FormPart(self.death_pot is not None, self.death_const,
                         self.death_pot or self.death_kernel or _ZERO,
                         self.cross_death_kernel or _ZERO, +1)
        birth = FormPart(self.birth_pot is not None or self.cross_birth_pot is not None,
                         self.birth_const, self.birth_pot or self.birth_kernel or _ZERO,
                         self.cross_birth_pot or self.cross_birth_kernel or _ZERO, -1,
                         self.birth_kernel_scale,
                         _live(self.parent_pot) if _live(self.birth_kernel) else None)
        return death, birth

    @cached_property
    def constant_death(self) -> bool:
        """No live own or cross death term: every point dies at death_const,
        so the form's hierarchy is block lower-triangular (hierarchy.py)."""
        (own, _), (cross, _) = self.pair_terms
        return own is None and cross is None

    @cached_property
    def pair_terms(self) -> Tuple[Tuple[Optional[Potential], Optional[Potential]], ...]:
        """Potentials through which a neighbour enters the death sum and the
        parent sum of a point: pair_terms[0] for a neighbour in the point's
        own component, pair_terms[1] for one in the other component; None
        where there is no such term.

        The death sum is the exponent of an exponential death part,
        otherwise the pair part of the additive death rate.  The parent sum
        damps the mass of the point as a parent of births.
        """
        death, birth = self.parts
        return (_live(death.own), None), (_live(death.other), birth.parent_pot)

    @cached_property
    def damping(self) -> Optional[Tuple[Optional[Potential], Optional[Potential]]]:
        """Potentials of an exponential birth part, own and other, each None
        when absent or zero; None for an additive birth part."""
        birth = self.parts[1]
        return (_live(birth.own), _live(birth.other)) if birth.exponential else None

    @cached_property
    def birth_groups(self) -> Tuple[Optional[Potential], Optional[Potential]]:
        """Kernels of the births placed around parents: birth_groups[0]
        around the points of the own component, birth_groups[1] around those
        of the other one; None where there is no such term.  The birth mass
        moves with the parents of each group."""
        birth = self.parts[1]
        return (None, None) if birth.exponential else (_live(birth.own), _live(birth.other))

    def potentials(self) -> dict:
        out = {}
        for name in ("death_kernel", "death_pot", "birth_kernel", "birth_pot"):
            p = getattr(self, name)
            if p is not None:
                out[name] = p
        return out


_CROSS_TERMS = ("cross_death_kernel", "cross_birth_pot", "cross_birth_kernel", "parent_pot")
_ZERO = Potential.zero()


class _Variant:
    """Base of the model variants, each declared by the class attributes
    NAME, ENV_TERMS, SYS_TERMS and RATIOS (see the module docstring).  A
    field behind a death_const must be positive, one behind a birth_const
    nonnegative."""

    def __post_init__(self):
        for terms in (self.ENV_TERMS, self.SYS_TERMS):
            for term, words, bad in (("death_const", "positive", lambda v: v <= 0),
                                     ("birth_const", "nonnegative", lambda v: v < 0)):
                name = terms[term]
                if isinstance(name, str) and bad(getattr(self, name)):
                    raise ModelError(f"{name} must be {words}, got {getattr(self, name)!r}")

    def _form(self, terms: dict) -> ComponentForm:
        return ComponentForm(**{term: getattr(self, v) if isinstance(v, str) else v
                                for term, v in terms.items()})

    @cached_property
    def _env_form(self) -> ComponentForm:
        return self._form(self.ENV_TERMS)

    @cached_property
    def _sys_form(self) -> ComponentForm:
        """System form, with the cross terms that read the environment."""
        return self._form(self.SYS_TERMS)


# Environment of the Glauber family: unit death, births damped by psi.
_HEAT_BATH = {"death_const": 1.0, "birth_const": "z_minus", "birth_pot": "psi"}


@dataclass(frozen=True)
class GlauberGlauber(_Variant):
    z_minus: float
    psi: Potential
    z_plus: float
    phi_minus: Potential
    phi_plus: Potential

    NAME = "glauber_glauber"
    ENV_TERMS = _HEAT_BATH
    SYS_TERMS = {"death_const": 1.0, "birth_const": "z_plus", "birth_pot": "phi_plus",
                 "cross_birth_pot": "phi_minus"}
    RATIOS = ()


@dataclass(frozen=True)
class BdlpInGlauber(_Variant):
    z_minus: float
    psi: Potential
    m_plus: float
    a_minus: Potential   # system-system competition (death)
    a_plus: Potential    # system-system contact birth
    b_minus: Potential   # environment-induced death
    b_plus: Potential    # environment-induced birth

    NAME = "bdlp_in_glauber"
    ENV_TERMS = _HEAT_BATH
    SYS_TERMS = {"death_const": "m_plus", "birth_const": 0.0, "death_kernel": "a_minus",
                 "birth_kernel": "a_plus", "cross_death_kernel": "b_minus",
                 "cross_birth_kernel": "b_plus"}
    RATIOS = ("theta", "vartheta")


@dataclass(frozen=True)
class BranchingInGlauber(_Variant):
    z_minus: float
    psi: Potential
    m_plus: float
    kappa: Potential     # death amplification exponent
    phi: Potential       # parent damping by the environment
    a_plus: Potential    # dispersal kernel

    NAME = "branching_in_glauber"
    ENV_TERMS = _HEAT_BATH
    SYS_TERMS = {"death_const": "m_plus", "birth_const": 0.0, "death_pot": "kappa",
                 "birth_kernel": "a_plus", "parent_pot": "phi"}
    RATIOS = ("vartheta",)


@dataclass(frozen=True)
class TwoBdlp(_Variant):
    z: float
    m_minus: float
    a_minus: Potential   # environment competition (death)
    a_plus: Potential    # environment contact birth
    m_plus: float
    b_minus: Potential   # system competition (death)
    b_plus: Potential    # system contact birth
    vphi_minus: Potential  # environment-induced system death
    vphi_plus: Potential   # environment-induced system birth

    NAME = "two_bdlp"
    ENV_TERMS = {"death_const": "m_minus", "birth_const": "z", "death_kernel": "a_minus",
                 "birth_kernel": "a_plus"}
    SYS_TERMS = {"death_const": "m_plus", "birth_const": 0.0, "death_kernel": "b_minus",
                 "birth_kernel": "b_plus", "cross_death_kernel": "vphi_minus",
                 "cross_birth_kernel": "vphi_plus"}
    RATIOS = ("vartheta1", "vartheta3")


RateModel = Union[GlauberGlauber, BdlpInGlauber, BranchingInGlauber, TwoBdlp]

VARIANTS = {cls.NAME: cls for cls in (GlauberGlauber, BdlpInGlauber, BranchingInGlauber, TwoBdlp)}


def variant_name(m: RateModel) -> str:
    if not isinstance(m, _Variant):
        raise ModelError(f"unknown model type {type(m).__name__}")
    return m.NAME


def model_potentials(m: RateModel) -> dict:
    """All radial profiles the model uses, keyed by field name."""
    variant_name(m)  # ModelError for anything but the four variants
    return {f.name: getattr(m, f.name) for f in fields(m)
            if isinstance(getattr(m, f.name), Potential)}


def validate_model_on_torus(m: RateModel, torus: Torus):
    """Every cutoff must fit inside half the box, else the minimal-image
    interaction differs from the full-space one.  An AveragedModel is checked
    through its base model."""
    if isinstance(m, AveragedModel):
        m = m.base
    for name, pot in model_potentials(m).items():
        if pot.cutoff > torus.side / 2 + 1e-12:
            raise ModelError(
                f"potential {name} has cutoff {pot.cutoff} exceeding side/2 = {torus.side / 2}"
            )


def _live(pot: Optional[Potential]) -> Optional[Potential]:
    """pot, or None when the term is absent or zero."""
    return None if pot is None or pot.is_zero else pot


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
            weights = np.exp(-_row_interaction(own, other, f.parent_pot, torus))
            birth += f.birth_kernel_scale * float(np.sum(weights * f.birth_kernel(d)))
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


# ---------------------------------------------------------------------------
# vectorized rate vectors for the event loop (equal to the pointwise contract)

def _row_interaction(points_a: np.ndarray, points_b, pot: Optional[Potential], torus: Torus,
                     exclude_self: bool = False) -> np.ndarray:
    """For each x in points_a: sum of pot(|x-y|) over y in points_b."""
    n = len(points_a)
    if n == 0:
        return np.zeros(0)
    if not _live(pot) or len(points_b) == 0:
        return np.zeros(n)
    d2 = squared_pairwise_distances(points_a, points_b, torus)
    if not exclude_self:
        return pot.sum_squared(d2, axis=1)
    vals = pot.at_squared(d2)
    np.fill_diagonal(vals, 0.0)
    return np.sum(vals, axis=1)


def _death_sums(f: ComponentForm, own: np.ndarray, other: np.ndarray, torus: Torus) -> np.ndarray:
    """Death sum (ComponentForm.pair_terms) of each point of own under f."""
    (same, _), (cross, _) = f.pair_terms
    return (_row_interaction(own, own, same, torus, exclude_self=True)
            + _row_interaction(own, other, cross, torus))


def _parent_sums(f: ComponentForm, own: np.ndarray, other: np.ndarray, torus: Torus) -> np.ndarray:
    """Parent sum (ComponentForm.pair_terms) of each point of own under f."""
    return _row_interaction(own, other, f.pair_terms[1][1], torus)


def _death_rates(f: ComponentForm, death_sums: np.ndarray) -> np.ndarray:
    if f.parts[0].exponential:
        # past the float range the rate is infinite, which the event loop's
        # guard reports
        with np.errstate(over="ignore"):
            return f.death_const * np.exp(death_sums)
    return f.death_const + death_sums


def _form_death_vector(f: ComponentForm, own: np.ndarray, other: np.ndarray,
                       torus: Torus) -> np.ndarray:
    """Death rate of each point of own under the form f."""
    return _death_rates(f, _death_sums(f, own, other, torus))


def env_death_vector(gamma_minus: FiniteConfiguration, m: RateModel, torus: Torus) -> np.ndarray:
    pts = gamma_minus.points
    return _form_death_vector(component_form(m), pts, pts[:0], torus)


def sys_death_vector(gamma: MarkedConfiguration, m: RateModel, torus: Torus) -> np.ndarray:
    return _form_death_vector(rate_form(m, "system"), gamma.plus.points, gamma.minus.points, torus)


# ---------------------------------------------------------------------------
# birth proposals

class KernelGroup(NamedTuple):
    """Candidates placed around parents: parent i is picked with weight
    masses[i] and the offset is drawn with density proportional to kernel.
    An empty group has no kernel."""

    kernel: Optional[Potential]
    parents: np.ndarray
    masses: np.ndarray


@dataclass(frozen=True)
class BirthProposal:
    """Dominating birth mechanism: uniform immigration of total mass
    uniform_mass plus kernel groups, and a pointwise acceptance probability.

    acceptance(x) * dominating_intensity(x) equals the true birth rate
    density at x for the frozen configuration the proposal was built from.
    """

    torus: Torus
    uniform_mass: float
    groups: Tuple[KernelGroup, ...]
    acceptance: Callable[[np.ndarray], float]

    @cached_property
    def _masses(self) -> np.ndarray:
        """Candidate masses in selection order: the uniform part when it is
        present, then the parents of each group."""
        parts = [g.masses for g in self.groups if len(g.masses)]
        if self.uniform_mass > 0:
            parts.insert(0, np.array([self.uniform_mass]))
        return np.concatenate(parts) if parts else np.zeros(0)

    @cached_property
    def _cumulative(self) -> np.ndarray:
        return np.cumsum(self._masses)

    @property
    def total_mass(self) -> float:
        c = self._cumulative
        return float(c[-1]) if len(c) else 0.0

    def dominating_intensity(self, x) -> float:
        x = np.asarray(x, dtype=float)
        total = self.uniform_mass / self.torus.volume
        for g in self.groups:
            if len(g.parents):
                l1 = potential_functionals(g.kernel, self.torus.dim).l1
                d = distances_from(x, g.parents, self.torus)
                total += float(np.sum(g.masses / l1 * g.kernel(d)))
        return total

    @cached_property
    def _grouped(self) -> bool:
        return any(len(g.masses) for g in self.groups)

    def sample_candidate(self, rng: np.random.Generator) -> Optional[np.ndarray]:
        """A candidate drawn from the dominating mechanism, None when its mass
        is zero.  Uniforms on [0, b) are drawn as b * rng.random(), which
        equals rng.uniform(0, b) bit for bit; a uniform point is
        torus.uniform(rng, 1)[0]."""
        if not self._grouped:
            if self.uniform_mass <= 0.0:
                return None
            # the selection draw of the grouped path, so the stream is the same
            rng.random()
            return self.torus.side * rng.random(self.torus.dim)
        masses = self._masses
        total = masses.sum()
        if total <= 0.0:
            return None
        i = int(self._cumulative.searchsorted(total * rng.random(), side="right"))
        i = min(i, len(masses) - 1)
        if self.uniform_mass > 0:
            if i == 0:
                return self.torus.side * rng.random(self.torus.dim)
            i -= 1
        for g in self.groups:
            if i < len(g.masses):
                off = sample_kernel_offsets(g.kernel, self.torus.dim, rng, 1)[0]
                return self.torus.wrap(g.parents[i] + off)
            i -= len(g.masses)


def _birth_acceptance(f: ComponentForm, x: np.ndarray, own: np.ndarray, other: np.ndarray,
                      torus: Torus) -> Tuple[float, Optional[np.ndarray]]:
    """Acceptance at x of the proposal of _form_proposal, given the points
    own and other now: the exponential damping of the birth rate, 1 when the
    birth part is additive (the proposal is then the birth rate itself).

    Returned with the squared distances from x to own, or None when the
    damping did not need them.  The energies are those of relative_energy;
    both populations are folded in one pass.
    """
    if f.damping is None:
        return 1.0, None
    own_pot, other_pot = f.damping
    n = 0 if own_pot is None else len(own)
    n_other = 0 if other_pot is None else len(other)
    if not (n or n_other):
        return 1.0, None
    pts = np.concatenate((own, other)) if n and n_other else (own if n else other)
    d2 = squared_distances_from(x, pts, torus)
    energy = float(own_pot.sum_squared(d2[:n])) if n else 0.0
    cross = float(other_pot.sum_squared(d2[n:])) if n_other else 0.0
    return math.exp(-(energy + cross)), (d2[:n] if n else None)


def _parent_masses(f: ComponentForm, parent_sums: np.ndarray, dim: int) -> np.ndarray:
    """Masses of the kernel group around the component's own points."""
    unit = f.birth_kernel_scale * potential_functionals(f.birth_kernel, dim).l1
    return unit * np.exp(-parent_sums)


def _no_group(parents: np.ndarray) -> KernelGroup:
    return KernelGroup(None, parents[:0], np.zeros(0))


def _form_proposal(f: ComponentForm, own: np.ndarray, other: np.ndarray, torus: Torus,
                   parent_sums: Optional[np.ndarray] = None) -> BirthProposal:
    """Dominating birth mechanism of a component with form f, given the
    points own of that component and other of the other one.

    Uniform immigration at birth_const, thinned by the acceptance when the
    birth part is exponential.  An additive birth part adds groups[0] around
    the own points, with masses from their parent sums (computed here when
    not given), and groups[1] around the other points; either is empty
    without its kernel.  The acceptance is _birth_acceptance on own and
    other as handed in here.
    """
    own_kernel, other_kernel = f.birth_groups
    if own_kernel is None:
        around_own = _no_group(own)
    else:
        if parent_sums is None:
            parent_sums = _parent_sums(f, own, other, torus)
        around_own = KernelGroup(own_kernel, own, _parent_masses(f, parent_sums, torus.dim))
    if other_kernel is None:
        around_other = _no_group(other)
    else:
        l1 = potential_functionals(other_kernel, torus.dim).l1
        around_other = KernelGroup(other_kernel, other, np.full(len(other), l1))
    return BirthProposal(torus=torus, uniform_mass=f.birth_const * torus.volume,
                         groups=(around_own, around_other),
                         acceptance=lambda x: _birth_acceptance(f, x, own, other, torus)[0])


def birth_proposal(component: str, gamma: MarkedConfiguration, m, torus: Torus) -> BirthProposal:
    """Build the dominating birth mechanism for one component.

    component is "system" or "environment"; m may also be an AveragedModel,
    in which case the averaged system rates are used and "environment" is
    invalid.  The acceptance closure snapshots the configuration handed in
    here.
    """
    f = rate_form(m, component)
    if component == "system":
        return _form_proposal(f, gamma.plus.points, gamma.minus.points, torus)
    return _form_proposal(f, gamma.minus.points, gamma.plus.points, torus)


# ---------------------------------------------------------------------------
# averaged model

@dataclass(frozen=True)
class AveragedModel:
    """System dynamics with the environment integrated out.

    The system form of the base model loses its cross terms: an additive
    cross death kernel adds m_bar to death_const and an additive cross birth
    kernel adds lambda_bar to birth_const, both rho_inv times the kernel
    mass; an exponential cross damping multiplies birth_const by the
    averaged factor lambda_bar, and parent damping becomes the kernel scale
    lambda_bar.  rho_inv is the invariant one-point density the averaging
    was computed against.
    """

    base: RateModel
    rho_inv: float
    lambda_bar: float
    lambda_bar_tail: float = 0.0
    m_bar: float = 0.0

    @cached_property
    def _sys_form(self) -> ComponentForm:
        f = rate_form(self.base, "system")
        death_const, birth_const, scale = f.death_const, f.birth_const, f.birth_kernel_scale
        if f.cross_death_kernel is not None:
            death_const += self.m_bar
        if f.cross_birth_kernel is not None:
            birth_const += self.lambda_bar
        if f.cross_birth_pot is not None:
            birth_const *= self.lambda_bar
        if f.parent_pot is not None:
            scale = self.lambda_bar
        return replace(f, death_const=death_const, birth_const=birth_const,
                       birth_kernel_scale=scale, **dict.fromkeys(_CROSS_TERMS))


def rate_form(m: Union[RateModel, AveragedModel], component: str) -> ComponentForm:
    """Rate description of one component of m: its _sys_form or _env_form,
    derived once per model object and then reused.  The system of a full
    model has cross terms that read the environment; an AveragedModel is a
    model without an environment."""
    if component not in ("system", "environment"):
        raise ValueError(f"component must be 'system' or 'environment', got {component!r}")
    try:
        return getattr(m, "_sys_form" if component == "system" else "_env_form")
    except AttributeError:
        raise ModelError(f"{type(m).__name__} has no {component} component") from None


def component_form(m: Union[RateModel, AveragedModel], component: str = "environment") -> ComponentForm:
    """The autonomous one-component form: rate_form, refused when it has
    cross terms.  The system of a full model is not autonomous, so
    component="system" requires an AveragedModel."""
    f = rate_form(m, component)
    if not f.autonomous:
        raise ModelError(f"the {component} component of {type(m).__name__} is not "
                         f"autonomous; build an averaged model first")
    return f


def build_averaged_model(m: RateModel, k_inv, torus: Torus) -> AveragedModel:
    """Average the environment-dependent parts of the system rates against
    an invariant correlation table.

    Exponential damping factors are computed by the truncated expansion in
    the table's order; additive couplings reduce exactly to rho_inv times
    the kernel mass.  A negative averaged birth factor, which a truncated
    expansion can produce for strong coupling, raises ModelError.
    """
    from .tables import exp_mayer_functional

    if abs(k_inv.k0 - 1.0) > 1e-9:
        raise ModelError("invariant table must have order-0 entry 1")
    variant_name(m)  # ModelError for anything but the four variants
    rho = k_inv.k1
    f = rate_form(m, "system")
    mass = lambda pot: rho * potential_functionals(pot, torus.dim).l1
    m_bar = 0.0 if f.cross_death_kernel is None else mass(f.cross_death_kernel)
    if f.cross_birth_kernel is not None:
        lam, tail = mass(f.cross_birth_kernel), 0.0
    else:
        damping = f.parent_pot if f.cross_birth_pot is None else f.cross_birth_pot
        lam, tail = exp_mayer_functional(k_inv, damping)
    am = AveragedModel(base=m, rho_inv=rho, lambda_bar=lam, lambda_bar_tail=tail, m_bar=m_bar)
    if am.lambda_bar < 0:
        raise ModelError(
            f"averaged birth factor lambda_bar = {am.lambda_bar:.6g} is negative "
            f"(truncation tail bound {am.lambda_bar_tail:.3g}); the order-{k_inv.order} "
            f"expansion does not resolve this coupling")
    return am


def averaged_rates(x, gamma_plus: FiniteConfiguration, am: AveragedModel, torus: Torus) -> Tuple[float, float]:
    """(death, birth) rate of the averaged system at x."""
    pts = gamma_plus.points
    return _form_rates(x, pts, pts[:0], component_form(am, "system"), torus)


def averaged_death_vector(gamma_plus: FiniteConfiguration, am: AveragedModel, torus: Torus) -> np.ndarray:
    pts = gamma_plus.points
    return _form_death_vector(component_form(am, "system"), pts, pts[:0], torus)
