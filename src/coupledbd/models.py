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

The environment of every variant, and the system of an AveragedModel, is an
autonomous one-component birth-death dynamics.  ComponentForm, defined here,
describes such a dynamics (constant, additive-kernel or exponential death and
birth parts) and component_form returns it; hierarchy.py re-exports both.  The
environment rules (env_rates, env_death_vector, the environment birth
proposal and the minus decomposition kernels) and the averaged-system rules
(averaged_rates, averaged_death_vector and its birth proposal) are all
derived from the form; the coupled-system rules keep one branch per variant.

For each model the birth/death rates admit a finite-difference kernel
expansion d(x, gamma) = sum over finite eta inside gamma of D(x, eta) (and
likewise b against B); decomposition_kernels evaluates those kernels.  The
subset-sum identity tying kernels to rates is enforced by tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Optional, Tuple, Union

import numpy as np

from .errors import ModelError
from .geometry import FiniteConfiguration, MarkedConfiguration, Torus, pairwise_distances
from .potentials import Potential, mayer, potential_functionals, relative_energy, sample_kernel_offsets


@dataclass(frozen=True)
class ComponentForm:
    """One-component birth-death structure.

    death rate:  death_const * exp(sum of death_pot over neighbours)
                 or death_const + sum of death_kernel over neighbours
    birth rate:  birth_const * exp(-sum of birth_pot over neighbours)
                 or birth_const + birth_kernel_scale * sum of birth_kernel
    """

    death_const: float
    birth_const: float
    death_kernel: Optional[Potential] = None
    death_pot: Optional[Potential] = None
    birth_kernel: Optional[Potential] = None
    birth_pot: Optional[Potential] = None
    birth_kernel_scale: float = 1.0

    def __post_init__(self):
        if self.death_const <= 0:
            raise ModelError("death_const must be positive")
        if self.birth_const < 0 or self.birth_kernel_scale < 0:
            raise ModelError("birth_const and birth_kernel_scale must be nonnegative")
        if self.death_kernel is not None and self.death_pot is not None:
            raise ModelError("death part cannot be both additive and exponential")
        if self.birth_kernel is not None and self.birth_pot is not None:
            raise ModelError("birth part cannot be both additive and exponential")

    def potentials(self) -> dict:
        out = {}
        for name in ("death_kernel", "death_pot", "birth_kernel", "birth_pot"):
            p = getattr(self, name)
            if p is not None:
                out[name] = p
        return out


def _heat_bath_environment(m) -> ComponentForm:
    """Environment of the Glauber family: unit death, births damped by psi."""
    return ComponentForm(death_const=1.0, birth_const=m.z_minus, birth_pot=m.psi)


# Each model derives its environment form once (_env_form); the event loop
# reads it on every rebuild.

@dataclass(frozen=True)
class GlauberGlauber:
    z_minus: float
    psi: Potential
    z_plus: float
    phi_minus: Potential
    phi_plus: Potential

    def __post_init__(self):
        if self.z_minus < 0 or self.z_plus < 0:
            raise ModelError("activities must be nonnegative")

    _env_form = cached_property(_heat_bath_environment)


@dataclass(frozen=True)
class BdlpInGlauber:
    z_minus: float
    psi: Potential
    m_plus: float
    a_minus: Potential   # system-system competition (death)
    a_plus: Potential    # system-system contact birth
    b_minus: Potential   # environment-induced death
    b_plus: Potential    # environment-induced birth

    def __post_init__(self):
        if self.z_minus < 0:
            raise ModelError("activity must be nonnegative")
        if self.m_plus <= 0:
            raise ModelError("intrinsic death rate m_plus must be positive")

    _env_form = cached_property(_heat_bath_environment)


@dataclass(frozen=True)
class BranchingInGlauber:
    z_minus: float
    psi: Potential
    m_plus: float
    kappa: Potential     # death amplification exponent
    phi: Potential       # parent damping by the environment
    a_plus: Potential    # dispersal kernel

    def __post_init__(self):
        if self.z_minus < 0:
            raise ModelError("activity must be nonnegative")
        if self.m_plus <= 0:
            raise ModelError("intrinsic death rate m_plus must be positive")

    _env_form = cached_property(_heat_bath_environment)


@dataclass(frozen=True)
class TwoBdlp:
    z: float
    m_minus: float
    a_minus: Potential   # environment competition (death)
    a_plus: Potential    # environment contact birth
    m_plus: float
    b_minus: Potential   # system competition (death)
    b_plus: Potential    # system contact birth
    vphi_minus: Potential  # environment-induced system death
    vphi_plus: Potential   # environment-induced system birth

    def __post_init__(self):
        if self.z < 0:
            raise ModelError("immigration activity must be nonnegative")
        if self.m_minus <= 0 or self.m_plus <= 0:
            raise ModelError("intrinsic death rates must be positive")

    @cached_property
    def _env_form(self) -> ComponentForm:
        return ComponentForm(death_const=self.m_minus, birth_const=self.z,
                             death_kernel=self.a_minus, birth_kernel=self.a_plus)


RateModel = Union[GlauberGlauber, BdlpInGlauber, BranchingInGlauber, TwoBdlp]

_VARIANT_NAMES = {
    GlauberGlauber: "glauber_glauber",
    BdlpInGlauber: "bdlp_in_glauber",
    BranchingInGlauber: "branching_in_glauber",
    TwoBdlp: "two_bdlp",
}


def variant_name(m: RateModel) -> str:
    try:
        return _VARIANT_NAMES[type(m)]
    except KeyError:
        raise ModelError(f"unknown model type {type(m).__name__}")


def model_potentials(m: RateModel) -> dict:
    """All radial profiles the model uses, keyed by field name."""
    if isinstance(m, GlauberGlauber):
        return {"psi": m.psi, "phi_minus": m.phi_minus, "phi_plus": m.phi_plus}
    if isinstance(m, BdlpInGlauber):
        return {"psi": m.psi, "a_minus": m.a_minus, "a_plus": m.a_plus,
                "b_minus": m.b_minus, "b_plus": m.b_plus}
    if isinstance(m, BranchingInGlauber):
        return {"psi": m.psi, "kappa": m.kappa, "phi": m.phi, "a_plus": m.a_plus}
    if isinstance(m, TwoBdlp):
        return {"a_minus": m.a_minus, "a_plus": m.a_plus, "b_minus": m.b_minus,
                "b_plus": m.b_plus, "vphi_minus": m.vphi_minus, "vphi_plus": m.vphi_plus}
    raise ModelError(f"unknown model type {type(m).__name__}")


def validate_model_on_torus(m: RateModel, torus: Torus):
    """Every cutoff must fit inside half the box, else the minimal-image
    interaction differs from the full-space one."""
    for name, pot in model_potentials(m).items():
        if pot.cutoff > torus.side / 2 + 1e-12:
            raise ModelError(
                f"potential {name} has cutoff {pot.cutoff} exceeding side/2 = {torus.side / 2}"
            )


def _cross_sum(x, cfg: FiniteConfiguration, pot: Potential, torus: Torus) -> float:
    """Sum of pot(|x-y|) over y in cfg."""
    if cfg.size == 0 or pot.is_zero:
        return 0.0
    d = pairwise_distances(np.asarray(x, dtype=float)[None, :], cfg.points, torus)[0]
    return float(np.sum(pot(d)))


def _form_rates(x, cfg: FiniteConfiguration, f: ComponentForm, torus: Torus) -> Tuple[float, float]:
    """(death, birth) rate at x of the one-component dynamics f given cfg."""
    x = np.asarray(x, dtype=float)
    death = f.death_const
    if f.death_pot is not None:
        death *= math.exp(relative_energy(x, cfg, f.death_pot, torus))
    elif f.death_kernel is not None:
        death += _cross_sum(x, cfg, f.death_kernel, torus)
    birth = f.birth_const
    if f.birth_pot is not None:
        birth *= math.exp(-relative_energy(x, cfg, f.birth_pot, torus))
    elif f.birth_kernel is not None:
        birth += f.birth_kernel_scale * _cross_sum(x, cfg, f.birth_kernel, torus)
    return death, birth


def env_rates(x, gamma_minus: FiniteConfiguration, m: RateModel, torus: Torus) -> Tuple[float, float]:
    """(death, birth) rate of the environment at x given gamma_minus.

    For the death rate of an existing particle the caller passes the
    configuration with that particle removed.
    """
    return _form_rates(x, gamma_minus, component_form(m), torus)


def sys_rates(x, gamma: MarkedConfiguration, m: RateModel, torus: Torus) -> Tuple[float, float]:
    """(death, birth) rate of the system at x given the pair configuration.

    Same removal convention as env_rates: for a death rate, gamma.plus has
    the particle at x already removed.
    """
    x = np.asarray(x, dtype=float)
    gp, gm = gamma.plus, gamma.minus
    if isinstance(m, GlauberGlauber):
        death = 1.0
        birth = m.z_plus * math.exp(
            -relative_energy(x, gm, m.phi_minus, torus)
            - relative_energy(x, gp, m.phi_plus, torus)
        )
        return death, birth
    if isinstance(m, BdlpInGlauber):
        death = m.m_plus + _cross_sum(x, gp, m.a_minus, torus) + _cross_sum(x, gm, m.b_minus, torus)
        birth = _cross_sum(x, gp, m.a_plus, torus) + _cross_sum(x, gm, m.b_plus, torus)
        return death, birth
    if isinstance(m, BranchingInGlauber):
        death = m.m_plus * math.exp(relative_energy(x, gp, m.kappa, torus))
        birth = 0.0
        if gp.size and not m.a_plus.is_zero:
            disp = pairwise_distances(x[None, :], gp.points, torus)[0]
            weights = np.array([
                math.exp(-relative_energy(y, gm, m.phi, torus)) for y in gp.points
            ])
            birth = float(np.sum(weights * m.a_plus(disp)))
        return death, birth
    if isinstance(m, TwoBdlp):
        death = m.m_plus + _cross_sum(x, gp, m.b_minus, torus) + _cross_sum(x, gm, m.vphi_minus, torus)
        birth = _cross_sum(x, gp, m.b_plus, torus) + _cross_sum(x, gm, m.vphi_plus, torus)
        return death, birth
    raise ModelError(f"unknown model type {type(m).__name__}")


def _mayer_product(x, cfg: FiniteConfiguration, pot: Potential, torus: Torus) -> float:
    """Product of (exp(-pot(|x-y|)) - 1) over y in cfg; 1 on the empty set."""
    if cfg.size == 0:
        return 1.0
    d = pairwise_distances(np.asarray(x, dtype=float)[None, :], cfg.points, torus)[0]
    return float(np.prod(mayer(pot, d)))


def _positive_mayer_product(x, cfg: FiniteConfiguration, pot: Potential, torus: Torus) -> float:
    """Product of (exp(+pot(|x-y|)) - 1) over y in cfg; 1 on the empty set."""
    if cfg.size == 0:
        return 1.0
    d = pairwise_distances(np.asarray(x, dtype=float)[None, :], cfg.points, torus)[0]
    return float(np.prod(np.expm1(pot(d))))


def _additive_pair(x, eta: FiniteConfiguration, const: float, pot: Optional[Potential],
                   torus: Torus, scale: float = 1.0) -> float:
    """Kernel of the additive rate const + scale * sum of pot: const on the
    empty set, scale * pot(|x-y|) on singletons, 0 on larger sets."""
    if eta.size == 0:
        return const
    if eta.size > 1 or pot is None:
        return 0.0
    r = pairwise_distances(np.asarray(x, dtype=float)[None, :], eta.points, torus)[0, 0]
    return scale * float(pot(np.array([r]))[0])


def _form_kernels(x, eta: FiniteConfiguration, f: ComponentForm, torus: Torus) -> Tuple[float, float]:
    """(D, B) kernels of the one-component dynamics f at x and eta."""
    if f.death_pot is not None:
        death = f.death_const * _positive_mayer_product(x, eta, f.death_pot, torus)
    else:
        death = _additive_pair(x, eta, f.death_const, f.death_kernel, torus)
    if f.birth_pot is not None:
        birth = f.birth_const * _mayer_product(x, eta, f.birth_pot, torus)
    else:
        birth = _additive_pair(x, eta, f.birth_const, f.birth_kernel, torus, f.birth_kernel_scale)
    return death, birth


def decomposition_kernels(m: RateModel, x, eta: MarkedConfiguration, torus: Torus):
    """(D_minus, B_minus, D_plus, B_plus) evaluated at x and eta.

    The minus kernels are functions of eta.minus alone; the plus kernels see
    the whole pair.  Summed over all subconfigurations they reproduce the
    rates, which is the defining property.
    """
    x = np.asarray(x, dtype=float)
    ep, em = eta.plus, eta.minus
    d_minus, b_minus = _form_kernels(x, em, component_form(m), torus)

    if isinstance(m, GlauberGlauber):
        d_plus = 1.0 if (ep.size == 0 and em.size == 0) else 0.0
        b_plus = m.z_plus * _mayer_product(x, ep, m.phi_plus, torus) * _mayer_product(x, em, m.phi_minus, torus)
    elif isinstance(m, BdlpInGlauber):
        if em.size == 0:
            d_plus = _additive_pair(x, ep, m.m_plus, m.a_minus, torus)
            b_plus = _additive_pair(x, ep, 0.0, m.a_plus, torus)
        elif ep.size == 0:
            d_plus = _additive_pair(x, em, 0.0, m.b_minus, torus)
            b_plus = _additive_pair(x, em, 0.0, m.b_plus, torus)
        else:
            d_plus = 0.0
            b_plus = 0.0
    elif isinstance(m, BranchingInGlauber):
        d_plus = m.m_plus * _positive_mayer_product(x, ep, m.kappa, torus) if em.size == 0 else 0.0
        if ep.size == 1:
            y = ep.points[0]
            disp = float(pairwise_distances(x[None, :], ep.points, torus)[0, 0])
            b_plus = float(m.a_plus(np.array([disp]))[0]) * _mayer_product(y, em, m.phi, torus)
        else:
            b_plus = 0.0
    elif isinstance(m, TwoBdlp):
        if em.size == 0:
            d_plus = _additive_pair(x, ep, m.m_plus, m.b_minus, torus)
            b_plus = _additive_pair(x, ep, 0.0, m.b_plus, torus)
        elif ep.size == 0:
            d_plus = _additive_pair(x, em, 0.0, m.vphi_minus, torus)
            b_plus = _additive_pair(x, em, 0.0, m.vphi_plus, torus)
        else:
            d_plus = 0.0
            b_plus = 0.0

    return d_minus, b_minus, d_plus, b_plus


# ---------------------------------------------------------------------------
# vectorized rate vectors for the event loop (equal to the pointwise contract)

def _row_interaction(points_a: np.ndarray, points_b, pot: Potential, torus: Torus,
                     exclude_self: bool = False) -> np.ndarray:
    """For each x in points_a: sum of pot(|x-y|) over y in points_b."""
    n = len(points_a)
    if n == 0:
        return np.zeros(0)
    if pot.is_zero or len(points_b) == 0:
        return np.zeros(n)
    d = pairwise_distances(points_a, points_b, torus)
    vals = pot(d)
    if exclude_self:
        np.fill_diagonal(vals, 0.0)
    return np.sum(vals, axis=1)


def _form_death_vector(cfg: FiniteConfiguration, f: ComponentForm, torus: Torus) -> np.ndarray:
    """Death rate of each particle of cfg under the one-component dynamics f."""
    pts = cfg.points
    if f.death_pot is not None:
        return f.death_const * np.exp(_row_interaction(pts, pts, f.death_pot, torus, exclude_self=True))
    if f.death_kernel is None:
        return np.full(cfg.size, f.death_const)
    return f.death_const + _row_interaction(pts, pts, f.death_kernel, torus, exclude_self=True)


def env_death_vector(gamma_minus: FiniteConfiguration, m: RateModel, torus: Torus) -> np.ndarray:
    return _form_death_vector(gamma_minus, component_form(m), torus)


def sys_death_vector(gamma: MarkedConfiguration, m: RateModel, torus: Torus) -> np.ndarray:
    gp, gm = gamma.plus, gamma.minus
    n = gp.size
    if isinstance(m, GlauberGlauber):
        return np.ones(n)
    if isinstance(m, BdlpInGlauber):
        return (m.m_plus
                + _row_interaction(gp.points, gp.points, m.a_minus, torus, exclude_self=True)
                + _row_interaction(gp.points, gm.points, m.b_minus, torus))
    if isinstance(m, BranchingInGlauber):
        e = _row_interaction(gp.points, gp.points, m.kappa, torus, exclude_self=True)
        return m.m_plus * np.exp(e)
    if isinstance(m, TwoBdlp):
        return (m.m_plus
                + _row_interaction(gp.points, gp.points, m.b_minus, torus, exclude_self=True)
                + _row_interaction(gp.points, gm.points, m.vphi_minus, torus))
    raise ModelError(f"unknown model type {type(m).__name__}")


# ---------------------------------------------------------------------------
# birth proposals

@dataclass(frozen=True)
class ProposalComponent:
    kind: str                      # "uniform" | "kernel"
    mass: float
    parent: Optional[tuple] = None
    kernel: Optional[Potential] = None
    kernel_l1: float = 0.0


@dataclass(frozen=True)
class BirthProposal:
    """Dominating birth mechanism: a mixture of candidate generators plus a
    pointwise acceptance probability.

    acceptance(x) * dominating_intensity(x) equals the true birth rate
    density at x for the frozen configuration the proposal was built from.
    """

    torus: Torus
    components: Tuple[ProposalComponent, ...]
    acceptance: Callable[[np.ndarray], float]

    @property
    def total_mass(self) -> float:
        return float(sum(c.mass for c in self.components))

    def dominating_intensity(self, x) -> float:
        x = np.asarray(x, dtype=float)
        total = 0.0
        for c in self.components:
            if c.kind == "uniform":
                total += c.mass / self.torus.volume
            else:
                p = np.asarray(c.parent, dtype=float)
                r = pairwise_distances(x[None, :], p[None, :], self.torus)[0, 0]
                total += (c.mass / c.kernel_l1) * float(c.kernel(np.array([r]))[0])
        return total

    def sample_candidate(self, rng: np.random.Generator) -> Optional[np.ndarray]:
        masses = np.array([c.mass for c in self.components])
        total = masses.sum()
        if total <= 0.0:
            return None
        i = int(np.searchsorted(np.cumsum(masses), rng.uniform(0.0, total), side="right"))
        i = min(i, len(self.components) - 1)
        c = self.components[i]
        if c.kind == "uniform":
            return self.torus.uniform(rng, 1)[0]
        off = sample_kernel_offsets(c.kernel, self.torus.dim, rng, 1)[0]
        return self.torus.wrap(np.asarray(c.parent, dtype=float) + off)


def _always_accept(_x) -> float:
    return 1.0


def _kernel_components(parents: np.ndarray, pot: Potential, torus: Torus,
                       weights=None) -> list:
    if pot.is_zero or len(parents) == 0:
        return []
    l1 = potential_functionals(pot, torus.dim).l1
    if l1 <= 0:
        return []
    if weights is None:
        weights = np.ones(len(parents))
    return [
        ProposalComponent(kind="kernel", mass=float(w) * l1,
                          parent=tuple(p), kernel=pot, kernel_l1=l1)
        for p, w in zip(parents, weights) if w > 0
    ]


def birth_proposal(component: str, gamma: MarkedConfiguration, m, torus: Torus) -> BirthProposal:
    """Build the dominating birth mechanism for one component.

    component is "system" or "environment"; m may also be an AveragedModel,
    in which case the averaged system rates are used and "environment" is
    invalid.  Acceptance closures snapshot the configuration handed in here.
    """
    if isinstance(m, AveragedModel):
        return _form_proposal(gamma.plus, component_form(m, component), torus)
    if component == "environment":
        return _form_proposal(gamma.minus, component_form(m), torus)
    if component == "system":
        return _sys_proposal(gamma, m, torus)
    raise ValueError(f"component must be 'system' or 'environment', got {component!r}")


def _form_proposal(cfg: FiniteConfiguration, f: ComponentForm, torus: Torus) -> BirthProposal:
    """Dominating birth mechanism of the one-component dynamics f: uniform
    immigration at birth_const, thinned by the damping of an exponential
    birth part, plus one kernel component per particle for an additive one."""
    comps = []
    if f.birth_const > 0:
        comps.append(ProposalComponent(kind="uniform", mass=f.birth_const * torus.volume))
    if f.birth_pot is not None:
        pot = f.birth_pot

        def accept(x, _g=cfg):
            return math.exp(-relative_energy(x, _g, pot, torus))

        return BirthProposal(torus=torus, components=tuple(comps), acceptance=accept)
    if f.birth_kernel is not None:
        comps.extend(_kernel_components(cfg.points, f.birth_kernel, torus,
                                        weights=np.full(cfg.size, f.birth_kernel_scale)))
    return BirthProposal(torus=torus, components=tuple(comps), acceptance=_always_accept)


def _sys_proposal(gamma: MarkedConfiguration, m: RateModel, torus: Torus) -> BirthProposal:
    gp, gm = gamma.plus, gamma.minus
    if isinstance(m, GlauberGlauber):
        comps = []
        if m.z_plus > 0:
            comps.append(ProposalComponent(kind="uniform", mass=m.z_plus * torus.volume))
        phi_m, phi_p = m.phi_minus, m.phi_plus

        def accept(x, _gp=gp, _gm=gm):
            return math.exp(-relative_energy(x, _gm, phi_m, torus)
                            - relative_energy(x, _gp, phi_p, torus))

        return BirthProposal(torus=torus, components=tuple(comps), acceptance=accept)
    if isinstance(m, BdlpInGlauber):
        comps = _kernel_components(gp.points, m.a_plus, torus)
        comps.extend(_kernel_components(gm.points, m.b_plus, torus))
        return BirthProposal(torus=torus, components=tuple(comps), acceptance=_always_accept)
    if isinstance(m, BranchingInGlauber):
        # parent weight damped by the environment, evaluated at build time
        weights = np.array([
            math.exp(-relative_energy(y, gm, m.phi, torus)) for y in gp.points
        ]) if gp.size else np.zeros(0)
        comps = _kernel_components(gp.points, m.a_plus, torus, weights=weights)
        return BirthProposal(torus=torus, components=tuple(comps), acceptance=_always_accept)
    if isinstance(m, TwoBdlp):
        comps = _kernel_components(gp.points, m.b_plus, torus)
        comps.extend(_kernel_components(gm.points, m.vphi_plus, torus))
        return BirthProposal(torus=torus, components=tuple(comps), acceptance=_always_accept)
    raise ModelError(f"unknown model type {type(m).__name__}")


# ---------------------------------------------------------------------------
# averaged model

@dataclass(frozen=True)
class AveragedModel:
    """System dynamics with the environment integrated out.

    lambda_bar is the averaged environment factor; its meaning depends on
    the base variant (exponential damping factor for the Glauber and
    branching families, an additive immigration intensity for the additive
    families).  rho_inv is the invariant one-point density the averaging was
    computed against.
    """

    base: RateModel
    rho_inv: float
    lambda_bar: float
    lambda_bar_tail: float = 0.0
    m_bar: float = 0.0
    phi_bar_minus: float = 0.0
    phi_bar_plus: float = 0.0

    @cached_property
    def _system_form(self) -> ComponentForm:
        base = self.base
        if isinstance(base, GlauberGlauber):
            return ComponentForm(death_const=1.0,
                                 birth_const=base.z_plus * self.lambda_bar,
                                 birth_pot=base.phi_plus)
        if isinstance(base, BdlpInGlauber):
            return ComponentForm(death_const=base.m_plus + self.m_bar,
                                 birth_const=self.lambda_bar,
                                 death_kernel=base.a_minus,
                                 birth_kernel=base.a_plus)
        if isinstance(base, BranchingInGlauber):
            return ComponentForm(death_const=base.m_plus,
                                 birth_const=0.0,
                                 death_pot=base.kappa,
                                 birth_kernel=base.a_plus,
                                 birth_kernel_scale=self.lambda_bar)
        if isinstance(base, TwoBdlp):
            return ComponentForm(death_const=base.m_plus + self.phi_bar_minus,
                                 birth_const=self.phi_bar_plus,
                                 death_kernel=base.b_minus,
                                 birth_kernel=base.b_plus)
        raise ModelError(f"unknown model type {type(base).__name__}")


def component_form(m: Union[RateModel, AveragedModel], component: str = "environment") -> ComponentForm:
    """Extract the autonomous one-component structure.

    component="environment" works for every full model; the system of a full
    model is not autonomous, so component="system" requires an AveragedModel.
    The form is derived once per model object and then reused.
    """
    if isinstance(m, AveragedModel):
        if component != "system":
            raise ModelError("an averaged model only has a system component")
        return m._system_form
    if component == "system":
        raise ModelError("the system component is not autonomous; build an averaged model first")
    if component != "environment":
        raise ValueError(f"component must be 'system' or 'environment', got {component!r}")
    try:
        return m._env_form
    except AttributeError:
        raise ModelError(f"unknown model type {type(m).__name__}") from None


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
    rho = k_inv.k1
    dim = torus.dim
    if isinstance(m, GlauberGlauber):
        lam, tail = exp_mayer_functional(k_inv, m.phi_minus)
        am = AveragedModel(base=m, rho_inv=rho, lambda_bar=lam, lambda_bar_tail=tail)
    elif isinstance(m, BdlpInGlauber):
        m_bar = rho * potential_functionals(m.b_minus, dim).l1
        lam = rho * potential_functionals(m.b_plus, dim).l1
        am = AveragedModel(base=m, rho_inv=rho, lambda_bar=lam, m_bar=m_bar)
    elif isinstance(m, BranchingInGlauber):
        lam, tail = exp_mayer_functional(k_inv, m.phi)
        am = AveragedModel(base=m, rho_inv=rho, lambda_bar=lam, lambda_bar_tail=tail)
    elif isinstance(m, TwoBdlp):
        pbm = rho * potential_functionals(m.vphi_minus, dim).l1
        pbp = rho * potential_functionals(m.vphi_plus, dim).l1
        am = AveragedModel(base=m, rho_inv=rho, lambda_bar=pbp,
                           phi_bar_minus=pbm, phi_bar_plus=pbp)
    else:
        raise ModelError(f"unknown model type {type(m).__name__}")
    if am.lambda_bar < 0:
        raise ModelError(
            f"averaged birth factor lambda_bar = {am.lambda_bar:.6g} is negative "
            f"(truncation tail bound {am.lambda_bar_tail:.3g}); the order-{k_inv.order} "
            f"expansion does not resolve this coupling")
    return am


def averaged_rates(x, gamma_plus: FiniteConfiguration, am: AveragedModel, torus: Torus) -> Tuple[float, float]:
    """(death, birth) rate of the averaged system at x."""
    return _form_rates(x, gamma_plus, component_form(am, "system"), torus)


def averaged_death_vector(gamma_plus: FiniteConfiguration, am: AveragedModel, torus: Torus) -> np.ndarray:
    return _form_death_vector(gamma_plus, component_form(am, "system"), torus)
