"""Regime checks: contraction constants, spectral gaps and numeric
verification of the defining inequalities.

For each model variant the decomposition kernels admit closed-form weighted
expansions

    c(eta) = sum over x in eta of the weighted total-variation mass of the
             kernel expansion around eta minus x,

and the dynamics is well behaved when c(eta) <= a * M(eta) for a < 2, where
M(eta) sums the death rates inside eta.  This module computes the sharp
closed-form constants a (environment, coupled system and averaged system),
the resulting spectral gap and sector angle, and can verify the inequality
numerically on sampled configurations: the expansion integrals are then
evaluated by truncated Monte Carlo sums over the candidate configuration
space with subset enumeration of the kernels, sharing nothing with the
closed forms except the kernel definitions.

The constant a (_constants), the closed mass (_closed_mass), the Monte
Carlo mass (_numeric_mass) and the death mass are each computed once per
rate form (models.ComponentForm), around the points of its own component
with the other component given, at the weights (c_own, c_other).  The
system is its form weighted (c_plus, c_minus); the environment is its form,
which has no cross terms, with an empty other component and weights
(c_minus, 1.0).  The closed and Monte Carlo masses loop over the form's
death part and birth part (ComponentForm.parts), weighted 1 and 1/c_own,
with one builder per shape on each side: _closed_part, and
_exponential_part or _additive_part.  Only the contraction constants
(_constants, averaged_constants, growth_bounds) branch on the joint shape
of the form, because they are the paper's closed-form bounds, and they
refuse an exponential birth part beside a live death term (death_pot,
death_kernel or cross_death_kernel), for which none is stated; only
averaged_constants branches on the variant, and nothing on the component.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .errors import ConfigError, EvaluationError, ModelError
from .forkjoin import fork_join
from .geometry import (
    FiniteConfiguration,
    Torus,
    _sample_ball,
    ball_volume,
    distances_from,
    pairwise_distances,
)
from .models import (
    ComponentForm,
    FormPart,
    RateModel,
    TwoBdlp,
    _form_death_vector,
    _row_interaction,
    component_form,
    model_potentials,
    rate_form,
    validate_model_on_torus,
    variant_name,
)
from .potentials import Potential, _remainder_exp, _safe_exp, mayer, potential_functionals

_RATIO_SAMPLES = 4096


def _mass_term(pref: float, exponent: float) -> float:
    """pref * exp(exponent) with a zero prefactor killing any overflow."""
    if pref == 0.0:
        return 0.0
    return pref * _safe_exp(exponent)


# ---------------------------------------------------------------------------
# domination constants

def domination_ratio(num: Potential, den: Potential) -> float:
    """Smallest constant c with num <= c * den pointwise; inf if none.

    Evaluated on a dense radial grid including both profiles' knots.  A zero
    numerator gives 0.
    """
    if num.is_zero:
        return 0.0
    if den.is_zero:
        return math.inf
    r_max = max(num.cutoff, den.cutoff)
    if num.cutoff > den.cutoff + 1e-12:
        return math.inf
    rs = [np.linspace(0.0, r_max, _RATIO_SAMPLES)]
    for p in (num, den):
        if p.kind == "table":
            rs.append(np.asarray(p.radii))
        if p.cutoff > 0:
            rs.append(np.array([p.cutoff * (1 - 1e-9)]))
    # repeated radii do not change the maximum (np.unique would import numpy.ma)
    r = np.concatenate(rs)
    nv = num(r)
    dv = den(r)
    active = nv > 0
    if not np.any(active):
        return 0.0
    if np.any(dv[active] <= 0):
        return math.inf
    with np.errstate(over="ignore"):  # a quotient past the float range is inf
        return float(np.max(nv[active] / dv[active]))


# ---------------------------------------------------------------------------
# closed-form contraction constants

@dataclass
class ComponentConstants:
    a: float
    m_star: float
    feasible: bool
    details: Dict[str, float] = field(default_factory=dict)


# The closed-form constants know three joint shapes of a form, read from its
# parts (ComponentForm.parts): births damped by exponential energies beside
# a constant death (the Glauber components), additive kernels for death and
# birth (the other systems, TwoBdlp's environment), and death amplified by
# an exponential energy with births around damped parents
# (BranchingInGlauber's system).  The details name each term by the model
# field behind it (m.ENV_TERMS, m.SYS_TERMS).

# the terms of an additive form, in the order of the regime details
_ADDITIVE = ("death_kernel", "birth_kernel", "cross_death_kernel", "cross_birth_kernel")


def _system(m: RateModel) -> Tuple[ComponentForm, dict]:
    """System form of a full model and the labels of its terms: the model
    field behind each term, which names it in the regime details, and under
    "ratios" the names of the domination ratios."""
    variant_name(m)  # ModelError for anything but the four variants
    return rate_form(m, "system"), {**m.SYS_TERMS, "ratios": m.RATIOS}


_ZERO = Potential.zero()


def _exponential_birth(f: ComponentForm) -> bool:
    """True when f's birth part is exponential, the shape whose bounds assume
    a constant death.  No bound is stated for it beside a live death term,
    so such a form is refused."""
    exponential = f.parts[1].exponential
    if exponential and not f.constant_death:
        raise ModelError("no contraction bound for a form with a live death term (death_pot, "
                         "death_kernel or cross_death_kernel) beside an exponential birth part "
                         "(birth_pot or cross_birth_pot): that bound assumes a constant death")
    return exponential


def _ratio_term(v: float, c: float) -> float:
    return v / c if math.isfinite(v) else math.inf


def _additive_terms(f: ComponentForm) -> Tuple[Potential, ...]:
    """The kernels of the additive parts of f in the order of _ADDITIVE, a
    zero potential for each term of an exponential part."""
    death, birth = ((_ZERO, _ZERO) if p.exponential else (p.own, p.other) for p in f.parts)
    return death[0], birth[0], death[1], birth[1]


def _additive_ratios(kernels: Tuple[Potential, ...]) -> Tuple[float, float]:
    """Domination of the death kernels over the birth kernels, own and cross,
    given the _additive_terms of a form."""
    death, birth, cross_death, cross_birth = kernels
    return domination_ratio(birth, death), domination_ratio(cross_birth, cross_death)


def _constants(f: ComponentForm, c_own: float, c_other: float, dim: int, labels: dict,
               l1_prefix: str = "") -> ComponentConstants:
    """Contraction constant of the form f at the weight c_own of its own
    component and c_other of the other one.  labels maps the terms of f to
    their detail names, and "ratios" to the names of the domination ratios;
    an unlabelled term is left out of the details, an additive kernel's l1
    mass is named l1_prefix + its label."""
    death, birth = f.parts
    if _exponential_birth(f):
        betas = {t: potential_functionals(p, dim).beta
                 for t, p in (("birth_pot", birth.own), ("cross_birth_pot", birth.other))}
        a = 1.0 + _mass_term(f.birth_const / c_own / f.death_const,
                             c_own * betas["birth_pot"] + c_other * betas["cross_birth_pot"])
        return ComponentConstants(a=a, m_star=f.death_const, feasible=a < 2.0,
                                  details={"beta_" + labels[t]: v for t, v in betas.items()
                                           if t in labels})
    if death.exponential:
        fk = potential_functionals(death.own, dim)
        kappa = "beta_neg_" + labels["death_pot"]
        if not math.isfinite(fk.beta_neg):
            return ComponentConstants(a=math.inf, m_star=f.death_const, feasible=False,
                                      details={kappa: math.inf})
        bphi = potential_functionals(birth.parent_pot or _ZERO, dim).beta
        l1a = potential_functionals(birth.own, dim).l1
        vth = domination_ratio(birth.own, death.own)
        if math.isfinite(vth):
            a = _safe_exp(c_own * fk.beta_neg) + _mass_term(
                max(c_own * l1a, vth) / (f.death_const * c_own), c_other * bphi)
        else:
            a = math.inf
        return ComponentConstants(a=a, m_star=f.death_const,
                                  feasible=math.isfinite(a) and a < 2.0,
                                  details={kappa: fk.beta_neg,
                                           "beta_" + labels["parent_pot"]: bphi,
                                           "l1_" + labels["birth_kernel"]: l1a,
                                           labels["ratios"][0]: vth})
    kernels = _additive_terms(f)
    l1 = {t: potential_functionals(p, dim).l1 for t, p in zip(_ADDITIVE, kernels)}
    ratios = _additive_ratios(kernels)
    bulk = (c_own * l1["death_kernel"] + c_other * l1["cross_death_kernel"]
            + f.birth_const / c_own + l1["birth_kernel"]
            + (c_other / c_own) * l1["cross_birth_kernel"]) / f.death_const
    a = 1.0 + max([bulk] + [_ratio_term(v, c_own) for v in ratios])
    feasible = math.isfinite(a) and a < 2.0 and all(v < c_own for v in ratios)
    det = {l1_prefix + labels[t]: l1[t] for t in _ADDITIVE if t in labels}
    det.update(zip(labels["ratios"], ratios))
    return ComponentConstants(a=a, m_star=f.death_const, feasible=feasible, details=det)


def env_constants(m: RateModel, c_minus: float, dim: int) -> ComponentConstants:
    if c_minus <= 0:
        raise ConfigError("weight c_minus must be positive")
    return _constants(component_form(m), c_minus, 1.0, dim,
                      {**m.ENV_TERMS, "ratios": ("vartheta2",)}, l1_prefix="l1_")


def sys_constants(m: RateModel, c_minus: float, c_plus: float, dim: int) -> ComponentConstants:
    if c_minus <= 0 or c_plus <= 0:
        raise ConfigError("weights must be positive")
    f, labels = _system(m)
    return _constants(f, c_plus, c_minus, dim, labels)


def averaged_constants(m: RateModel, c_minus: float, c_plus: float, dim: int,
                       rho_inv: Optional[float] = None) -> ComponentConstants:
    """Contraction constant of the system with the environment integrated
    out.  For TwoBdlp the exact constant needs the invariant density; without
    it a density-free upper bound is returned."""
    f, names = _system(m)
    if _exponential_birth(f):
        return sys_constants(m, c_minus, c_plus, dim)
    death, birth = f.parts
    if death.exponential:
        fk = potential_functionals(death.own, dim)
        l1a = potential_functionals(birth.own, dim).l1
        vth = domination_ratio(birth.own, death.own)
        if math.isfinite(fk.beta_neg) and math.isfinite(vth):
            a = _safe_exp(c_plus * fk.beta_neg) + max(l1a, vth / c_plus) / f.death_const
        else:
            a = math.inf
        return ComponentConstants(a=a, m_star=f.death_const,
                                  feasible=math.isfinite(a) and a < 2.0,
                                  details={names["ratios"][0]: vth})
    kernels = _additive_terms(f)
    l1_dk, l1_bk, l1_cdk, l1_cbk = (potential_functionals(p, dim).l1 for p in kernels)
    ratios = _additive_ratios(kernels)
    m_star = f.death_const
    if rho_inv is not None:
        m_star += rho_inv * l1_cdk
    if rho_inv is not None and isinstance(m, TwoBdlp):
        lam = rho_inv * l1_cbk
        terms = [(c_plus * l1_dk + lam / c_plus + l1_bk) / m_star,
                 _ratio_term(ratios[0], c_plus)]
    else:
        terms = [(c_plus * l1_dk + l1_bk) / f.death_const] + [_ratio_term(v, c_plus)
                                                             for v in ratios]
    a = 1.0 + max(terms)
    return ComponentConstants(a=a, m_star=m_star, feasible=math.isfinite(a) and a < 2.0,
                              details=dict(zip(names["ratios"], ratios)))


def spectral_gap(a: float, m_star: float) -> float:
    """Lower bound on the relaxation rate of the component: (2 - a) times
    the minimal death mass of a single particle."""
    if not math.isfinite(a) or a >= 2.0:
        return 0.0
    return (2.0 - a) * m_star


def sector_angle(a: float) -> float:
    """Largest angle w in [0, pi/4] with a < 1 + cos(w)."""
    if not math.isfinite(a) or a >= 2.0:
        return 0.0
    if a <= 1.0:
        return math.pi / 4.0
    return min(math.pi / 4.0, math.acos(a - 1.0))


# ---------------------------------------------------------------------------
# growth bounds (polynomial-exponential envelopes of the rates)

@dataclass(frozen=True)
class GrowthBound:
    amplitude: float
    degree: int
    exponent: float


def growth_bounds(m: RateModel, dim: int) -> Dict[str, GrowthBound]:
    """Envelope constants with
    death + birth <= amplitude * (1 + n)^degree * exp(exponent * n)."""
    def sup(p: Potential) -> float:
        v = p.max_value
        if not math.isfinite(v):
            raise ModelError("unbounded kernel has no growth envelope")
        return v

    def bound(f: ComponentForm) -> GrowthBound:
        if _exponential_birth(f):
            return GrowthBound(max(1.0, f.birth_const) + f.death_const, 0, 0.0)
        amp = f.death_const + f.birth_const
        for pot in _additive_terms(f):
            amp += sup(pot)
        death = f.parts[0]
        return GrowthBound(amp, 1, sup(death.own) if death.exponential else 0.0)

    return {"environment": bound(component_form(m)), "system": bound(_system(m)[0])}


# ---------------------------------------------------------------------------
# exact weighted expansion masses (closed forms, for the numeric cross-check)

def _closed_part(part: FormPart, own: np.ndarray, other: np.ndarray, c_own: float,
                 c_other: float, div: float, torus: Torus) -> float:
    """Closed weighted mass of one part of a form around the points own,
    divided by div: the rates of an exponential part amplified by
    exp(c_own * beta_own + c_other * beta_other) of its Mayer factors, or the
    terms of an additive part, the kernel around each parent amplified by
    exp(c_other * beta(parent_pot))."""
    own_sums = _row_interaction(own, own, part.own, torus, exclude_self=True)
    other_sums = _row_interaction(own, other, part.other, torus)
    fo, fx = (potential_functionals(p, torus.dim) for p in (part.own, part.other))
    if part.exponential:
        # past the float range a death rate is infinite, and so is the mass
        with np.errstate(over="ignore"):
            pref = part.const / div * float(np.sum(np.exp(part.sign * (own_sums + other_sums))))
        bo, bx = (fo.beta_neg, fx.beta_neg) if part.sign > 0 else (fo.beta, fx.beta)
        return _mass_term(pref, c_own * bo + c_other * bx)
    free = float(np.sum(part.const + c_other * fx.l1 + other_sums))
    # the kernel is symmetric, so each parent's damping weights its own row sum
    damping = np.exp(-_row_interaction(own, other, part.parent_pot, torus))
    around = float(np.sum(damping * own_sums + c_own * fo.l1))
    phi = potential_functionals(part.parent_pot or _ZERO, torus.dim)
    return (free + _mass_term(part.scale * around, c_other * phi.beta)) / div


def _closed_mass(f: ComponentForm, own: FiniteConfiguration, other: FiniteConfiguration,
                 c_own: float, c_other: float, torus: Torus) -> Tuple[float, bool]:
    """Closed-form weighted expansion mass of the kernels of f around own,
    the other component being other: its death part plus its birth part
    divided by c_own.

    Returns (value, exact).  With parent_pot the value is an upper bound,
    flagged exact=False, when other is nonempty (the integral over a
    candidate parent has no closed form) or when a cross birth kernel meets
    an own parent (on one other candidate their kernels partly cancel).
    """
    value = sum(_closed_part(part, own.points, other.points, c_own, c_other, div, torus)
                for part, div in zip(f.parts, (1.0, c_own)))
    birth = f.parts[1]
    exact = other.size == 0 and (own.size < 2 or birth.other.is_zero)
    return value, birth.parent_pot is None or exact


# ---------------------------------------------------------------------------
# numeric expansion masses (truncated Monte Carlo over candidate points,
# kernel values obtained by explicit subset enumeration)

def _subset_product_sum(vals: np.ndarray) -> np.ndarray:
    """(S, k) -> (S,): per row, the sum over all subsets of the product of
    the selected entries."""
    S, k = vals.shape
    tot = np.zeros(S)
    for mask in range(1 << k):
        p = np.ones(S)
        for i in range(k):
            if mask >> i & 1:
                p = p * vals[:, i]
        tot += p
    return tot


class _Part(NamedTuple):
    """The death (0) or birth (1) part of the expansion around one point:
    its batch evaluator, mapping candidate blocks (xi_own (S,nO,dim),
    xi_other (S,nX,dim)) to |sum over subset pairs of the kernel at the
    point|, the largest number of own and other candidates, their sampling
    radii around the point (None: the whole torus, 0.0: none) and an upper
    bound on the mass beyond the caps."""

    fn: Callable[[np.ndarray, np.ndarray], np.ndarray]
    caps: Tuple[int, int]
    radii: Tuple[Optional[float], Optional[float]]
    tail: float = 0.0


def _additive_part(part: FormPart, x: np.ndarray, rest: FiniteConfiguration,
                   other: FiniteConfiguration, torus: Torus, order_cap: int,
                   weights: Tuple[float, float], div: float) -> _Part:
    """Additive part (models.FormPart) of the expansion at x: its constant,
    its own kernel around each own parent, damped by parent_pot, whose Mayer
    factors then reach up to order_cap other candidates, and its other
    kernel over the other component.  The tail is weighted 1/div."""
    kernel, cross, scale, phi = part.own, part.other, part.scale, part.parent_pot
    parents = rest.points
    k_vals = scale * kernel(distances_from(x, parents, torus))
    damp = (np.ones(len(parents)) if phi is None
            else _subset_product_sum(mayer(phi, pairwise_distances(parents, other.points, torus))))
    rm = distances_from(x, other.points, torus)
    base = part.const + float(np.sum(k_vals * damp)) + float(np.sum(cross(rm)))

    def fn(xp: np.ndarray, xm: np.ndarray) -> np.ndarray:
        S, nP, nM = xp.shape[0], xp.shape[1], xm.shape[1]
        if nP > 1 or (nP and nM and phi is None):
            return np.zeros(S)
        if nP:
            y = xp[:, 0, :]  # candidate parent per sample
            val = scale * kernel(distances_from(x, y, torus))
            if phi is not None and other.size:
                val *= _subset_product_sum(mayer(phi, pairwise_distances(y, other.points, torus)))
            if nM:
                val *= np.prod(mayer(phi, distances_from(y[:, None, :], xm, torus)), axis=1)
            return np.abs(val)
        if nM == 0:
            return np.full(S, abs(base))
        tot = cross(distances_from(x, xm[:, 0], torus)) if nM == 1 else np.zeros(S)
        if phi is not None:
            for y, k, s in zip(parents, k_vals, damp):
                if k != 0.0:
                    tot = tot + k * s * np.prod(mayer(phi, distances_from(y, xm, torus)), axis=1)
        return np.abs(tot)

    cap_other, r_other, tail = 0 if cross.is_zero else 1, cross.cutoff, 0.0
    if phi is not None:
        c_own, c_other = weights
        cap_other = max(cap_other, order_cap)
        r_other = max(r_other, kernel.cutoff + phi.cutoff)
        # 2 ** other.size bounds the damping's subset sums over other
        rem = 2.0 ** other.size * _remainder_exp(
            c_other * potential_functionals(phi, torus.dim).beta, cap_other)
        l1 = scale * potential_functionals(kernel, torus.dim).l1
        tail = (float(np.sum(k_vals)) * rem + c_own * l1 * rem) / div
    return _Part(fn, (0 if kernel.is_zero else 1, cap_other),
                 (_capped_radius(kernel.cutoff, torus), _capped_radius(r_other, torus)), tail)


def _exponential_part(part: FormPart, x: np.ndarray, rest: FiniteConfiguration,
                      other: FiniteConfiguration, torus: Torus, order_cap: int,
                      weights: Tuple[float, float], div: float) -> _Part:
    """Exponential part (models.FormPart) of the expansion at x: its constant
    times the Mayer factors e^{sign pot} - 1 of its own and other terms over
    own and other candidates, each product summed over the subsets of rest
    and of other.  The tail is weighted 1/div."""
    c_own, c_other = weights
    pots = (part.own, part.other)
    fixed = [np.expm1(part.sign * p(distances_from(x, cfg.points, torus)))
             for p, cfg in zip(pots, (rest, other))]
    s0 = (part.const * _subset_product_sum(fixed[0][None, :])[0]
          * _subset_product_sum(fixed[1][None, :])[0])

    def fn(xp: np.ndarray, xm: np.ndarray) -> np.ndarray:
        tp, tm = (np.expm1(part.sign * p(distances_from(x, xi, torus)))
                  for p, xi in zip(pots, (xp, xm)))
        return np.abs(s0 * np.prod(tp, axis=1) * np.prod(tm, axis=1))

    fo, fx = (potential_functionals(p, torus.dim) for p in pots)
    bo, bx = (fo.beta_neg, fx.beta_neg) if part.sign > 0 else (fo.beta, fx.beta)
    co, cx = (0 if p.is_zero else order_cap for p in pots)
    partial = sum((c_own * bo) ** a / math.factorial(a)
                  * (c_other * bx) ** b / math.factorial(b)
                  for a in range(co + 1) for b in range(cx + 1))
    # prod of (1 + |Mayer factor|) over the points bounds each subset sum
    pref = (part.const / div) * float(np.prod(1.0 + np.abs(fixed[0]))) \
        * float(np.prod(1.0 + np.abs(fixed[1])))
    tail = pref * max(0.0, _safe_exp(c_own * bo + c_other * bx) - partial)
    return _Part(fn, (co, cx), tuple(_capped_radius(p.cutoff, torus) for p in pots), tail)


def _capped_radius(r: float, torus: Torus) -> Optional[float]:
    """Ball radius usable for restricted sampling; None -> whole torus."""
    if r <= 0:
        return 0.0
    if r > torus.side / 2:
        return None
    return r


def _finite(vals) -> np.ndarray:
    vals = np.asarray(vals, dtype=float)
    if not np.all(np.isfinite(vals)):
        raise EvaluationError("integrand returned a non-finite value")
    return vals


def _marked_mc(part: _Part, weights: Tuple[float, float], torus: Torus, x: np.ndarray,
               samples: int, seed: int) -> Tuple[float, float]:
    """Two-component truncated candidate-space integral of part.fn with
    weights weights[0]**order_own * weights[1]**order_other."""
    fn, (r_own, r_other) = part.fn, part.radii
    cap_p = 0 if r_own == 0.0 else part.caps[0]
    cap_m = 0 if r_other == 0.0 else part.caps[1]
    rng = np.random.default_rng(np.random.Philox(key=seed))
    d = torus.dim

    def draw(n: int, radius: Optional[float]) -> Tuple[np.ndarray, float]:
        if n == 0:
            return np.zeros((samples, 0, d)), 1.0
        if radius is None:
            return torus.uniform(rng, samples * n).reshape(samples, n, d), torus.volume
        return _sample_ball(rng, x, radius, (samples, n), torus), ball_volume(d, radius)

    total = float(_finite(fn(np.zeros((1, 0, d)), np.zeros((1, 0, d))))[0])
    var = 0.0
    for n_p in range(cap_p + 1):
        for n_m in range(cap_m + 1):
            if n_p == 0 and n_m == 0:
                continue
            xp, vol_p = draw(n_p, r_own)
            xm, vol_m = draw(n_m, r_other)
            vals = _finite(fn(xp, xm))
            scale = (vol_p ** n_p * vol_m ** n_m
                     / (math.factorial(n_p) * math.factorial(n_m))
                     * weights[0] ** n_p * weights[1] ** n_m)
            total += float(np.mean(vals)) * scale
            var += (float(np.std(vals, ddof=1)) / math.sqrt(samples) * scale) ** 2
    return total, math.sqrt(var)


def _numeric_mass(f: ComponentForm, own: FiniteConfiguration, other: FiniteConfiguration,
                  c_own: float, c_other: float, torus: Torus, order_cap: int,
                  samples: int, seeds: Callable[[int, int], int]) -> Tuple[float, float, float]:
    """Truncated Monte Carlo weighted expansion mass of the kernels of f
    around own, the other component being other; seeds(i, p) seeds part p
    (0 death, 1 birth) of the point i of own.

    Returns (value, stderr, truncation_tail); the tail is an upper bound on
    the dropped higher-order mass, so value <= exact <= value + tail up to
    Monte Carlo noise.
    """
    total = 0.0
    var = 0.0
    tail = 0.0
    for i in range(own.size):
        x = own.points[i]
        rest = own.remove_index(i)
        # the death part weighs 1, the birth part 1/c_own
        for p, (part, div) in enumerate(zip(f.parts, (1.0, c_own))):
            build = _exponential_part if part.exponential else _additive_part
            built = build(part, x, rest, other, torus, order_cap, (c_own, c_other), div)
            w = 1.0 / div
            v, e = _marked_mc(built, (c_own, c_other), torus, x, samples, seeds(i, p))
            total += w * v
            var += (w * e) ** 2
            tail += built.tail
    return total, math.sqrt(var), tail


# ---------------------------------------------------------------------------
# numeric spot check and the aggregate report

@dataclass(frozen=True)
class SpotCheckSettings:
    """Controls the numeric verification of c <= a * M on sampled
    configurations.  sigma scales the Monte Carlo tolerance."""

    samples: int = 3000
    order_cap: int = 3
    configs_per_size: int = 2
    max_points: int = 3
    seed: int = 7
    sigma: float = 4.0

    def __post_init__(self):
        if self.samples < 2 or self.configs_per_size < 1 or self.max_points < 1:
            raise ConfigError("spot check sizes must be positive")
        if self.order_cap < 0 or self.sigma <= 0:
            raise ConfigError("order_cap must be >= 0 and sigma > 0")


@dataclass
class SpotCheckRow:
    """One sampled configuration of one component.  ok_inequality is None
    when the bound is infinite, ok_equality when the closed mass is not
    exact or it or the tail is infinite: such a flag was not checked."""

    component: str
    n_plus: int
    n_minus: int
    numeric: float
    stderr: float
    tail: float
    closed: float
    closed_exact: bool
    death_mass: float
    bound: float
    ok_inequality: Optional[bool]
    ok_equality: Optional[bool]


@dataclass
class SpotCheckReport:
    rows: List[SpotCheckRow]
    ok: bool


def _cluster_points(rng: np.random.Generator, torus: Torus, n: int,
                    radius: float) -> np.ndarray:
    center = torus.uniform(rng, 1)[0]
    if n == 1:
        return center[None, :]
    offs = rng.uniform(-radius, radius, size=(n - 1, torus.dim))
    return np.vstack([center[None, :], torus.wrap(center[None, :] + offs)])


def _check_row(component, n_plus, n_minus, numeric, err, tail, closed, exact,
               mass, a, sigma) -> SpotCheckRow:
    bound = a * mass if math.isfinite(a) else math.inf
    ok_ineq = ok_eq = None
    if math.isfinite(bound):
        slack = sigma * err + 1e-9 * (1.0 + abs(bound))
        ok_ineq = numeric <= bound + slack
    if exact and math.isfinite(closed) and math.isfinite(tail):
        ok_eq = abs(numeric - closed) <= sigma * err + tail + 1e-9 * (1.0 + abs(closed))
    return SpotCheckRow(component, n_plus, n_minus, numeric, err, tail, closed,
                        exact, mass, bound, ok_ineq, ok_eq)


def spot_check_regime(m: RateModel, c_minus: float, c_plus: float, torus: Torus,
                      settings: SpotCheckSettings = SpotCheckSettings()) -> SpotCheckReport:
    """Evaluate the expansion masses numerically on sampled configurations
    and compare them against the closed forms and the a * M bounds.

    The configurations are drawn here, in row order; the rows are then
    evaluated across the CPUs the process may use (forkjoin.fork_join),
    each from its own seeds, so the report equals that of a run on one
    CPU, and when rows raise, the error of the lowest failing row is raised.
    """
    validate_model_on_torus(m, torus)
    dim = torus.dim
    a_env = env_constants(m, c_minus, dim).a
    a_sys = sys_constants(m, c_minus, c_plus, dim).a
    rng = np.random.default_rng(np.random.Philox(key=settings.seed))
    cuts = [p.cutoff for p in model_potentials(m).values() if p.cutoff > 0]
    cluster = min(max(cuts) if cuts else torus.side / 4, torus.side / 4)

    # Per component: its form, weights (own, other), constant a, the sizes
    # (n_own, n_other) of its sampled configurations, and the seed
    # coefficients: part p of point i in replica rep is seeded
    # base + k_own*n_own + k_other*n_other + rep + k_i*i + k_p*p + k_0.
    env_sizes = [(n, 0) for n in range(1, settings.max_points + 1)]
    sys_sizes = [s for s in ((1, 0), (1, 1), (2, 1), (3, 2)) if s[0] <= settings.max_points]
    components = [("environment", component_form(m), (c_minus, 1.0), a_env, env_sizes,
                   (101, 0, 17, 5, 1)),
                  ("system", rate_form(m, "system"), (c_plus, c_minus), a_sys, sys_sizes,
                   (997, 31, 29, 7, 3))]
    jobs = []
    base = settings.seed * 1000 + 11
    for component, f, weights, a, sizes, (k_own, k_other, k_i, k_p, k_0) in components:
        for n_own, n_other in sizes:
            for rep in range(settings.configs_per_size):
                pts = _cluster_points(rng, torus, n_own + n_other, cluster)
                own, other = FiniteConfiguration(pts[:n_own]), FiniteConfiguration(pts[n_own:])
                seed = base + k_own * n_own + k_other * n_other + rep + k_0
                jobs.append((component, f, weights, a, own, other, (seed, k_i, k_p)))

    def row(r: int) -> SpotCheckRow:
        component, f, (c_own, c_other), a, own, other, (seed, k_i, k_p) = jobs[r]
        num, err, tail = _numeric_mass(
            f, own, other, c_own, c_other, torus, settings.order_cap,
            settings.samples, lambda i, p: seed + k_i * i + k_p * p)
        closed, exact = _closed_mass(f, own, other, c_own, c_other, torus)
        mass = float(np.sum(_form_death_vector(f, own.points, other.points, torus)))
        n_plus, n_minus = (own.size, other.size) if component == "system" else (0, own.size)
        return _check_row(component, n_plus, n_minus, num, err, tail, closed,
                          exact, mass, a, settings.sigma)

    rows = fork_join(row, len(jobs))
    ok = all(r.ok_inequality is not False and r.ok_equality is not False for r in rows)
    return SpotCheckReport(rows=rows, ok=ok)


@dataclass
class RegimeReport:
    variant: str
    c_minus_weight: float
    c_plus_weight: float
    environment: ComponentConstants
    system: ComponentConstants
    averaged: ComponentConstants
    gap_env: float
    angle_env: float
    gap_averaged: float
    angle_averaged: float
    growth: Dict[str, GrowthBound]
    feasible: bool
    spot: Optional[SpotCheckReport] = None

    def as_dict(self) -> dict:
        """The fields, nested reports as dicts; the spot check, when run,
        under "spot_check"."""
        out = asdict(self)
        spot = out.pop("spot")
        if spot is not None:
            out["spot_check"] = spot
        return out

    def summary_lines(self) -> List[str]:
        def fmt(v: float) -> str:
            return f"{v:.6g}" if math.isfinite(v) else "inf"

        lines = [
            f"variant: {self.variant}",
            f"weights: c_minus={fmt(self.c_minus_weight)} c_plus={fmt(self.c_plus_weight)}",
            f"environment: a={fmt(self.environment.a)} "
            f"feasible={self.environment.feasible} gap={fmt(self.gap_env)} "
            f"angle={fmt(self.angle_env)}",
            f"system: a={fmt(self.system.a)} feasible={self.system.feasible}",
            f"averaged: a={fmt(self.averaged.a)} feasible={self.averaged.feasible} "
            f"gap={fmt(self.gap_averaged)} angle={fmt(self.angle_averaged)}",
            f"overall feasible: {self.feasible}",
        ]
        if self.spot is not None:
            rows = self.spot.rows
            n_bad = sum(r.ok_inequality is False or r.ok_equality is False for r in rows)
            n_unchecked = sum(r.ok_inequality is None for r in rows)
            lines.append(
                f"spot check: {'ok' if self.spot.ok else 'FAILED'} "
                f"({len(rows)} rows, {n_bad} violations, {n_unchecked} unchecked)")
        return lines


def check_regime(m: RateModel, c_minus: float, c_plus: float,
                 dim: Optional[int] = None, torus: Optional[Torus] = None,
                 rho_inv: Optional[float] = None,
                 spot: Optional[SpotCheckSettings] = None) -> RegimeReport:
    """Full regime report for a model at the given component weights."""
    if torus is not None:
        validate_model_on_torus(m, torus)
        dim = torus.dim
    if dim is None:
        raise ConfigError("check_regime needs dim or torus")
    if dim not in (1, 2, 3):
        raise ConfigError("dim must be 1, 2 or 3")
    env = env_constants(m, c_minus, dim)
    sys_ = sys_constants(m, c_minus, c_plus, dim)
    avg = averaged_constants(m, c_minus, c_plus, dim, rho_inv)
    spot_report = None
    if spot is not None:
        if torus is None:
            raise ConfigError("spot check needs a torus")
        spot_report = spot_check_regime(m, c_minus, c_plus, torus, spot)
    return RegimeReport(
        variant=variant_name(m),
        c_minus_weight=c_minus,
        c_plus_weight=c_plus,
        environment=env,
        system=sys_,
        averaged=avg,
        gap_env=spectral_gap(env.a, env.m_star),
        angle_env=sector_angle(env.a),
        gap_averaged=spectral_gap(avg.a, avg.m_star),
        angle_averaged=sector_angle(avg.a),
        growth=growth_bounds(m, dim),
        feasible=env.feasible and sys_.feasible and avg.feasible,
        spot=spot_report,
    )


@dataclass
class ScanResult:
    evaluated: int
    feasible_count: int
    best: Optional[dict]
    rows: List[dict]


def scan_feasible(m: RateModel, dim: int,
                  c_minus_grid: Optional[Sequence[float]] = None,
                  c_plus_grid: Optional[Sequence[float]] = None,
                  rho_inv: Optional[float] = None) -> ScanResult:
    """Scan component weights for a feasible contraction regime.

    Among weight pairs where every component contracts, the best entry
    maximizes the environment relaxation rate lambda0 = (2 - a_env) M*;
    ties resolve to the smallest c_minus, then the smallest c_plus, so the
    result does not depend on grid ordering.
    """
    if c_minus_grid is None:
        c_minus_grid = np.geomspace(0.05, 20.0, 25)
    if c_plus_grid is None:
        c_plus_grid = np.geomspace(0.05, 20.0, 25)
    rows: List[dict] = []
    best = None
    feasible_count = 0
    for cm in sorted(float(c) for c in c_minus_grid):
        for cp in sorted(float(c) for c in c_plus_grid):
            env = env_constants(m, cm, dim)
            sy = sys_constants(m, cm, cp, dim)
            av = averaged_constants(m, cm, cp, dim, rho_inv)
            lam0 = spectral_gap(env.a, env.m_star)
            feasible = env.feasible and sy.feasible and av.feasible
            row = {"c_minus": cm, "c_plus": cp,
                   "a_env": env.a, "a_sys": sy.a, "a_avg": av.a,
                   "lambda0": lam0, "feasible": feasible}
            rows.append(row)
            if feasible:
                feasible_count += 1
                if best is None or lam0 > best["lambda0"]:
                    best = row
    return ScanResult(evaluated=len(rows), feasible_count=feasible_count,
                      best=best, rows=rows)
