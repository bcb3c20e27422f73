"""End-to-end acceptance checks.

One test per headline claim, each at a fixed seed and a fixed tolerance.
Every test prints a single summary line so a full run reads as a scoreboard;
the assertions carry the details.  Wall-clock budgets keep regressions in
runtime visible too.
"""

import math
import time

import numpy as np
from scipy import stats

from coupledbd.conditions import (
    SpotCheckSettings,
    check_regime,
    scan_feasible,
    spot_check_regime,
)
from coupledbd.experiments import averaging_experiment, ergodicity_experiment
from coupledbd.geometry import (
    FiniteConfiguration,
    QuadratureSpec,
    Torus,
    ball_volume,
    k_inverse,
    lp_integral,
    pairwise_distances,
    subsets_sum,
)
from coupledbd.hierarchy import component_form, evolve_hierarchy, ks_solve
from coupledbd.models import (
    BdlpInGlauber,
    BranchingInGlauber,
    GlauberGlauber,
    TwoBdlp,
    build_averaged_model,
)
from coupledbd.potentials import Potential
from coupledbd.simulate import SimulationSettings, replicate
from coupledbd.tables import CorrelationTable, GridSpec

from conftest import TORUS1, marked

GRID64 = GridSpec(torus=TORUS1, points_per_axis=64)


def _free(z_minus, z_plus=0.1):
    zero = Potential.zero()
    return GlauberGlauber(z_minus=z_minus, psi=zero, z_plus=z_plus,
                          phi_minus=zero, phi_plus=zero)


def _finish(num, name, t0, budget, problems):
    elapsed = time.perf_counter() - t0
    status = "PASS" if not problems else "FAIL"
    print(f"[criterion {num}] {name}: {status} ({elapsed:.1f}s)")
    assert not problems, "; ".join(problems)
    assert elapsed < budget, f"criterion {num} took {elapsed:.1f}s, budget {budget}s"


# ---------------------------------------------------------------------------
# 1. combinatorial identities and truncated configuration-space integrals

def test_criterion_1_combinatorics():
    t0 = time.perf_counter()
    problems = []
    rng = np.random.default_rng(11)

    # subset sums of product observables collapse to a product
    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(0, 11))
        eta = (FiniteConfiguration(TORUS1.uniform(rng, n)) if n
               else FiniteConfiguration.empty(1))
        vals = rng.uniform(-0.5, 1.5, size=n)
        table = {tuple(p): v for p, v in zip(eta.points, vals)}

        def f(xi):
            out = 1.0
            for p in xi.points:
                out *= table[tuple(p)]
            return out

        expected = float(np.prod(1.0 + vals)) if n else 1.0
        err = abs(subsets_sum(eta, f) - expected) / max(1.0, abs(expected))
        worst = max(worst, err)
    if worst > 1e-12:
        problems.append(f"subset-product identity off by {worst:.3e}")

    # the alternating-sign inversion undoes subset summation
    worst = 0.0
    for _ in range(40):
        n = int(rng.integers(0, 7))
        eta = (FiniteConfiguration(TORUS1.uniform(rng, n)) if n
               else FiniteConfiguration.empty(1))
        vals = rng.uniform(-2.0, 2.0, size=n)
        table = {tuple(p): v for p, v in zip(eta.points, vals)}

        def g(xi):
            vs = [table[tuple(p)] for p in xi.points]
            return float(sum(vs) + np.prod([1.0 + 0.3 * v for v in vs]) - 1.0)

        err = abs(k_inverse(lambda xi: subsets_sum(xi, g), eta) - g(eta))
        worst = max(worst, err / max(1.0, abs(g(eta))))
    if worst > 1e-9:
        problems.append(f"inversion identity off by {worst:.3e}")

    # truncated integrals of product observables stay inside the factorial
    # tail of the exponential series; exact grid rule first
    for _ in range(10):
        g0 = float(rng.uniform(-0.15, 0.2))
        cap = int(rng.integers(3, 6))
        res = lp_integral(lambda cfg: g0 ** cfg.size, cap, TORUS1,
                          QuadratureSpec(method="grid", points_per_axis=5))
        u = g0 * TORUS1.volume
        tail = sum(abs(u) ** k / math.factorial(k)
                   for k in range(cap + 1, cap + 60))
        err = abs(res.value - math.exp(u))
        if err > tail + 1e-12 * math.exp(abs(u)):
            problems.append(f"grid tail bound: err {err:.3e} > tail {tail:.3e}")

    # then Monte Carlo on radial bumps, with a sampling-error allowance
    for j in range(10):
        dim = 1 + (j % 2)
        torus = Torus(dim, 8.0)
        radius = float(rng.uniform(0.4, 0.7))
        height = float(rng.uniform(0.3, 1.0))
        center = torus.uniform(rng, 1)[0]
        cap = 4

        def bump(cfg):
            if cfg.size == 0:
                return 1.0
            d = pairwise_distances(cfg.points, center[None, :], torus)[:, 0]
            return float(np.prod(np.where(d <= radius, height, 0.0)))

        spec = QuadratureSpec(method="mc", samples=4000,
                              seed=int(rng.integers(0, 2 ** 31)),
                              region=(tuple(center), 1.6 * radius))
        res = lp_integral(bump, cap, torus, spec)
        u = height * ball_volume(dim, radius)
        tail = sum(u ** k / math.factorial(k) for k in range(cap + 1, cap + 60))
        err = abs(res.value - math.exp(u))
        if err > tail + 5.0 * res.stderr + 1e-9:
            problems.append(
                f"mc tail bound case {j}: err {err:.3e} > "
                f"tail {tail:.3e} + 5se {5 * res.stderr:.3e}")

    _finish(1, "combinatorics and truncated integrals", t0, 10.0, problems)


# ---------------------------------------------------------------------------
# 2. fixed-point solver against the exactly solvable free environment

def test_criterion_2_fixed_point_free_oracle():
    t0 = time.perf_counter()
    problems = []
    for z in (0.2, 0.5, 1.0):
        sol = ks_solve(component_form(_free(z), "environment"), GRID64, order=3)
        errs = [abs(sol.table.k1 - z),
                float(np.max(np.abs(sol.table.k2 - z ** 2))),
                float(np.max(np.abs(sol.table.k3 - z ** 3)))]
        if max(errs) > 1e-10:
            problems.append(f"z={z}: sup error {max(errs):.3e} > 1e-10")
        if sol.iterations > 3:
            problems.append(f"z={z}: {sol.iterations} iterations > 3")
        if sol.table.k0 != 1.0:
            problems.append(f"z={z}: k0 = {sol.table.k0}")
    sol0 = ks_solve(component_form(_free(0.0), "environment"), GRID64, order=3)
    if not (sol0.table.k0 == 1.0 and sol0.table.k1 == 0.0
            and np.all(sol0.table.k2 == 0.0) and np.all(sol0.table.k3 == 0.0)):
        problems.append("zero activity did not collapse to the empty state")
    _finish(2, "free-state fixed point", t0, 5.0, problems)


# ---------------------------------------------------------------------------
# 3. hierarchy evolution against the exact free relaxation

def test_criterion_3_evolution_free_oracle():
    t0 = time.perf_counter()
    problems = []
    z, rho0 = 0.5, 2.0
    form = component_form(_free(z), "environment")

    traj = evolve_hierarchy(CorrelationTable.poisson(GRID64, 1, rho0), form,
                            t_final=5.0, dt=1e-3, record_every=100)
    exact = z + (rho0 - z) * np.exp(-traj.times)
    err = float(np.max(np.abs(traj.density - exact)))
    if err > 1e-6:
        problems.append(f"free relaxation sup error {err:.3e} > 1e-6")
    if any(t.k0 != 1.0 for t in traj.tables):
        problems.append("order-zero entry drifted from 1")

    stat = evolve_hierarchy(CorrelationTable.poisson(GRID64, 1, z), form,
                            t_final=5.0, dt=1e-3, record_every=100)
    drift = float(np.max(np.abs(stat.density - z)))
    if drift > 1e-8:
        problems.append(f"invariant input drifted by {drift:.3e} > 1e-8")

    _finish(3, "hierarchy evolution", t0, 30.0, problems)


# ---------------------------------------------------------------------------
# 4. exact sampler against the Poisson law of the free environment

def test_criterion_4_sampler_exactness():
    t0 = time.perf_counter()
    problems = []
    mu = 1.0 * TORUS1.volume
    settings = SimulationSettings(t_end=50.0, master_seed=424242,
                                  record_times=(30.0, 35.0, 40.0, 45.0, 50.0))
    recs = replicate(_free(1.0), TORUS1, lambda rng: marked([], []), settings,
                     n_replicas=200, components=("environment",))
    counts = np.concatenate([r.minus_counts for r in recs]).astype(int)
    n = counts.size
    if n != 1000:
        problems.append(f"expected 1000 pooled samples, got {n}")

    mean = float(counts.mean())
    se = float(counts.std(ddof=1)) / math.sqrt(n)
    if abs(mean - mu) > 3.0 * se:
        problems.append(f"mean {mean:.3f} outside {mu} +- 3*{se:.3f}")
    vmr = float(counts.var(ddof=1)) / mean
    if not 0.9 <= vmr <= 1.1:
        problems.append(f"variance/mean ratio {vmr:.3f} outside [0.9, 1.1]")

    # chi-square against the exact counting law, bins merged to expected >= 5
    upper = max(int(counts.max()) + 1, 30)
    probs = stats.poisson.pmf(np.arange(upper + 1), mu)
    probs = np.append(probs, max(1.0 - probs.sum(), 0.0))
    obs_all = np.bincount(counts, minlength=probs.size)[:probs.size]
    exp_all = probs * n
    bins = []
    acc_o = acc_e = 0.0
    for o, e in zip(obs_all, exp_all):
        acc_o += o
        acc_e += e
        if acc_e >= 5.0:
            bins.append((acc_o, acc_e))
            acc_o = acc_e = 0.0
    if acc_e > 0.0 and bins:
        last_o, last_e = bins[-1]
        bins[-1] = (last_o + acc_o, last_e + acc_e)
    stat = sum((o - e) ** 2 / e for o, e in bins)
    p = float(stats.chi2.sf(stat, len(bins) - 1))
    if p < 0.01:
        problems.append(f"goodness-of-fit p = {p:.4f} < 0.01")

    _finish(4, "sampler exactness", t0, 120.0, problems)


# ---------------------------------------------------------------------------
# 5. exponential ergodicity at the rate the closed-form gap promises

def test_criterion_5_exponential_ergodicity():
    t0 = time.perf_counter()
    problems = []
    m = _free(1.0)
    scan = scan_feasible(m, 1)
    lam0 = scan.best["lambda0"]
    if abs(lam0 - 0.95) > 1e-6:
        problems.append(f"scan best gap {lam0} != 0.95")

    for label, rho0 in (("empty", 0.0), ("double", 2.0)):
        res = ergodicity_experiment(m, TORUS1, n_replicas=200, t_end=6.0,
                                    initial_density=rho0, target_density=1.0,
                                    n_times=25, master_seed=777,
                                    lambda_0=lam0)
        rate, se = res.fit.rate, res.fit.stderr
        if abs(rate - 1.0) > 0.1:
            problems.append(f"{label}: rate {rate:.3f} not within 0.1 of 1")
        if res.rate_consistent_with_gap is not True:
            problems.append(
                f"{label}: rate {rate:.3f}+2*{se:.3f} below gap {lam0:.3f}")

    _finish(5, "exponential ergodicity", t0, 180.0, problems)


# ---------------------------------------------------------------------------
# 6. averaging: the coupled system approaches the averaged one as the
#    environment gets fast

def test_criterion_6_stochastic_averaging():
    t0 = time.perf_counter()
    problems = []
    step = Potential.step(1.0, 0.5)
    m = GlauberGlauber(z_minus=0.5, psi=Potential.zero(), z_plus=0.3,
                       phi_minus=step, phi_plus=step)
    res = averaging_experiment(m, TORUS1, epsilons=(1.0, 0.3, 0.1),
                               n_replicas=200, t_end=10.0, sys_density0=0.3,
                               master_seed=5150)

    if not res.monotone_ok:
        problems.append(f"distances not decreasing: {res.distances}")
    if not res.smallest_within_se:
        problems.append(
            f"distance at eps=0.1 is {res.distances[-1]:.4f}, "
            f"more than 3 standard errors ({res.distance_ses[-1]:.4f})")
    if res.distances[-1] >= res.distances[0]:
        problems.append("no improvement from slowest to fastest environment")

    beta = 1.0 - math.exp(-1.0)
    exact = math.exp(-0.5 * beta)
    if abs(res.lambda_bar - exact) > 1e-3:
        problems.append(
            f"averaged birth factor {res.lambda_bar:.6f} vs exact {exact:.6f}")
    if abs(res.env_density - 0.5) > 1e-9:
        problems.append(f"environment density {res.env_density} != 0.5")

    _finish(6, "stochastic averaging", t0, 900.0, problems)


# ---------------------------------------------------------------------------
# 7. regime checker against brute-force integrals and sampled masses

_MEASURE = {
    1: lambda r: np.full_like(r, 2.0),
    2: lambda r: 2.0 * np.pi * r,
    3: lambda r: 4.0 * np.pi * r * r,
}


def _brute_functionals(pot, dim):
    """beta, growth-beta and weighted l1 mass by dense radial trapezoids."""
    if pot.is_zero:
        return 0.0, 0.0, 0.0
    r = np.linspace(0.0, pot.cutoff, 40001)
    v = pot(r)
    w = _MEASURE[dim](r)
    beta = float(np.trapezoid((1.0 - np.exp(-v)) * w, r))
    beta_neg = float(np.trapezoid(np.expm1(v) * w, r))
    l1 = float(np.trapezoid(v * w, r))
    return beta, beta_neg, l1


def _brute_ratio(num, den):
    if num.is_zero:
        return 0.0
    if den.is_zero or num.cutoff > den.cutoff + 1e-12:
        return math.inf
    rmax = max(num.cutoff, den.cutoff)
    r = np.unique(np.concatenate([
        np.linspace(0.0, rmax, 20001),
        [num.cutoff * (1.0 - 1e-9), den.cutoff * (1.0 - 1e-9)],
    ]))
    nv, dv = num(r), den(r)
    mask = (nv > 0.0) & (dv > 0.0)
    if not np.any(mask):
        return 0.0
    return float(np.max(nv[mask] / dv[mask]))


def _mass(pref, exponent):
    if pref == 0.0:
        return 0.0
    return pref * (math.inf if exponent > 700.0 else math.exp(exponent))


def _brute_env(m, cm, dim):
    if isinstance(m, TwoBdlp):
        l1_am = _brute_functionals(m.a_minus, dim)[2]
        l1_ap = _brute_functionals(m.a_plus, dim)[2]
        vt2 = _brute_ratio(m.a_plus, m.a_minus)
        if math.isfinite(vt2):
            a = 1.0 + max((cm * l1_am + m.z / cm + l1_ap) / m.m_minus, vt2 / cm)
        else:
            a = math.inf
        return a, math.isfinite(a) and a < 2.0 and vt2 < cm
    beta_psi = _brute_functionals(m.psi, dim)[0]
    a = 1.0 + _mass(m.z_minus / cm, cm * beta_psi)
    return a, a < 2.0


def _brute_sys(m, cm, cp, dim):
    if isinstance(m, GlauberGlauber):
        bp = _brute_functionals(m.phi_plus, dim)[0]
        bm = _brute_functionals(m.phi_minus, dim)[0]
        a = 1.0 + _mass(m.z_plus / cp, cp * bp + cm * bm)
        return a, a < 2.0
    if isinstance(m, BdlpInGlauber):
        l1_am = _brute_functionals(m.a_minus, dim)[2]
        l1_ap = _brute_functionals(m.a_plus, dim)[2]
        l1_bm = _brute_functionals(m.b_minus, dim)[2]
        l1_bp = _brute_functionals(m.b_plus, dim)[2]
        theta = _brute_ratio(m.a_plus, m.a_minus)
        vth = _brute_ratio(m.b_plus, m.b_minus)
        bulk = (cm * l1_bm + cp * l1_am + l1_ap + (cm / cp) * l1_bp) / m.m_plus
        terms = [bulk] + [v / cp if math.isfinite(v) else math.inf
                          for v in (theta, vth)]
        a = 1.0 + max(terms)
        return a, (math.isfinite(a) and a < 2.0
                   and theta < cp and vth < cp)
    if isinstance(m, BranchingInGlauber):
        bneg = _brute_functionals(m.kappa, dim)[1]
        bphi = _brute_functionals(m.phi, dim)[0]
        l1a = _brute_functionals(m.a_plus, dim)[2]
        vth = _brute_ratio(m.a_plus, m.kappa)
        if math.isfinite(bneg) and math.isfinite(vth):
            lead = math.inf if cp * bneg > 700.0 else math.exp(cp * bneg)
            a = lead + _mass(max(cp * l1a, vth) / (m.m_plus * cp), cm * bphi)
        else:
            a = math.inf
        return a, math.isfinite(a) and a < 2.0
    l1_bm = _brute_functionals(m.b_minus, dim)[2]
    l1_bp = _brute_functionals(m.b_plus, dim)[2]
    l1_pm = _brute_functionals(m.vphi_minus, dim)[2]
    l1_pp = _brute_functionals(m.vphi_plus, dim)[2]
    vt1 = _brute_ratio(m.b_plus, m.b_minus)
    vt3 = _brute_ratio(m.vphi_plus, m.vphi_minus)
    bulk = (cp * l1_bm + cm * l1_pm + l1_bp + (cm / cp) * l1_pp) / m.m_plus
    terms = [bulk] + [v / cp if math.isfinite(v) else math.inf
                      for v in (vt1, vt3)]
    a = 1.0 + max(terms)
    return a, math.isfinite(a) and a < 2.0 and vt1 < cp and vt3 < cp


def _brute_avg(m, cm, cp, dim):
    if isinstance(m, GlauberGlauber):
        return _brute_sys(m, cm, cp, dim)
    if isinstance(m, BdlpInGlauber):
        l1_am = _brute_functionals(m.a_minus, dim)[2]
        l1_ap = _brute_functionals(m.a_plus, dim)[2]
        theta = _brute_ratio(m.a_plus, m.a_minus)
        vth = _brute_ratio(m.b_plus, m.b_minus)
        terms = [(cp * l1_am + l1_ap) / m.m_plus]
        terms += [v / cp if math.isfinite(v) else math.inf
                  for v in (theta, vth)]
        a = 1.0 + max(terms)
        return a, math.isfinite(a) and a < 2.0
    if isinstance(m, BranchingInGlauber):
        bneg = _brute_functionals(m.kappa, dim)[1]
        l1a = _brute_functionals(m.a_plus, dim)[2]
        vth = _brute_ratio(m.a_plus, m.kappa)
        if math.isfinite(bneg) and math.isfinite(vth):
            lead = math.inf if cp * bneg > 700.0 else math.exp(cp * bneg)
            a = lead + max(l1a, vth / cp) / m.m_plus
        else:
            a = math.inf
        return a, math.isfinite(a) and a < 2.0
    l1_bm = _brute_functionals(m.b_minus, dim)[2]
    l1_bp = _brute_functionals(m.b_plus, dim)[2]
    vt1 = _brute_ratio(m.b_plus, m.b_minus)
    vt3 = _brute_ratio(m.vphi_plus, m.vphi_minus)
    terms = [(cp * l1_bm + l1_bp) / m.m_plus]
    terms += [v / cp if math.isfinite(v) else math.inf for v in (vt1, vt3)]
    a = 1.0 + max(terms)
    return a, math.isfinite(a) and a < 2.0


def _draw_pot(rng, tie_to=None, hmax=2.5, mild=False):
    if mild:
        hmax = min(hmax, 0.2)
    if tie_to is not None and not tie_to.is_zero and rng.uniform() < 0.7:
        cut = float(tie_to.cutoff * rng.uniform(0.5, 0.98))
    elif mild:
        cut = float(rng.uniform(0.2, 0.6))
    else:
        cut = float(rng.uniform(0.4, 1.2))
    h = float(rng.uniform(0.03 if mild else 0.2, hmax))
    if rng.uniform() < 0.5:
        return Potential.step(height=h, cutoff=cut)
    return Potential.exponential(amplitude=h, decay=float(rng.uniform(0.5, 2.0)),
                                 cutoff=cut)


def _draw_model(rng, variant, mild=False):
    # every third draw uses weak kernels and slow deaths so that a healthy
    # share of the verdicts lands on the feasible side
    z = (lambda: float(rng.uniform(0.02, 0.3))) if mild else (
        lambda: float(rng.uniform(0.05, 1.2)))
    death = (lambda: float(rng.uniform(1.5, 2.5))) if mild else (
        lambda: float(rng.uniform(0.5, 2.0)))
    pot = lambda **kw: _draw_pot(rng, mild=mild, **kw)
    if variant == "gg":
        return GlauberGlauber(z_minus=z(), psi=pot(), z_plus=z(),
                              phi_minus=pot(), phi_plus=pot())
    if variant == "bdlp":
        am, bm = pot(), pot()
        return BdlpInGlauber(z_minus=z(), psi=pot(), m_plus=death(),
                             a_minus=am, a_plus=pot(tie_to=am),
                             b_minus=bm, b_plus=pot(tie_to=bm))
    if variant == "branching":
        ka = pot(hmax=1.2)
        return BranchingInGlauber(z_minus=z(), psi=pot(), m_plus=death(),
                                  kappa=ka, phi=pot(hmax=1.0),
                                  a_plus=pot(tie_to=ka))
    am, bm, pm = pot(), pot(), pot()
    return TwoBdlp(z=z(), m_minus=death(),
                   a_minus=am, a_plus=pot(tie_to=am),
                   m_plus=death(),
                   b_minus=bm, b_plus=pot(tie_to=bm),
                   vphi_minus=pm, vphi_plus=pot(tie_to=pm))


def test_criterion_7_regime_checker():
    t0 = time.perf_counter()
    problems = []
    rng = np.random.default_rng(20260613)
    n_feasible = n_infeasible = 0
    k = 0
    for i in range(20):
        for variant in ("gg", "bdlp", "branching", "two_bdlp"):
            k += 1
            dim = 1 + (k % 3)
            mild = i % 3 == 0
            m = _draw_model(rng, variant, mild=mild)
            lo, hi = (0.7, 1.6) if mild else (0.3, 5.0)
            cm = float(rng.uniform(lo, hi))
            cp = float(rng.uniform(lo, hi))
            rep = check_regime(m, cm, cp, dim=dim)

            brute = {"environment": _brute_env(m, cm, dim),
                     "system": _brute_sys(m, cm, cp, dim),
                     "averaged": _brute_avg(m, cm, cp, dim)}
            module = {"environment": rep.environment, "system": rep.system,
                      "averaged": rep.averaged}
            for label in module:
                ma = module[label].a
                ba, bf = brute[label]
                if module[label].feasible != bf:
                    problems.append(
                        f"{variant}#{i} {label}: verdict "
                        f"{module[label].feasible} vs brute {bf}")
                if (math.isfinite(ma) and math.isfinite(ba)
                        and max(ma, ba) < 1e6):
                    rel = abs(ma - ba) / max(1.0, abs(ba))
                    if rel > 2e-3:
                        problems.append(
                            f"{variant}#{i} {label}: a {ma:.6g} vs "
                            f"brute {ba:.6g}")
            overall = all(bf for _, bf in brute.values())
            if rep.feasible != overall:
                problems.append(f"{variant}#{i}: overall verdict mismatch")
            n_feasible += int(rep.feasible)
            n_infeasible += int(not rep.feasible)

            spot = spot_check_regime(
                m, cm, cp, Torus(dim, 10.0),
                SpotCheckSettings(samples=500, order_cap=3,
                                  configs_per_size=1, max_points=2,
                                  seed=9000 + k))
            bad = [r for r in spot.rows if r.ok_inequality is False]
            if bad:
                problems.append(
                    f"{variant}#{i}: sampled mass above its bound on "
                    f"{len(bad)} of {len(spot.rows)} rows")
    if n_feasible < 3 or n_infeasible < 3:
        problems.append(
            f"draws degenerate: {n_feasible} feasible, {n_infeasible} not")

    _finish(7, "regime checker", t0, 120.0, problems)


# ---------------------------------------------------------------------------
# 8. averaged birth factor against its closed form

def test_criterion_8_averaged_model_exactness():
    t0 = time.perf_counter()
    problems = []
    cases = [(0.3, 0.5, 1.0), (0.5, 1.0, 0.5), (0.25, 2.0, 1.0)]
    for z, height, cutoff in cases:
        beta = (1.0 - math.exp(-height)) * 2.0 * cutoff
        if z * beta > 0.5:
            problems.append(f"case {z}: expansion parameter {z * beta:.3f}")
        m = GlauberGlauber(z_minus=z, psi=Potential.zero(), z_plus=0.3,
                           phi_minus=Potential.step(height, cutoff),
                           phi_plus=Potential.zero())
        am = build_averaged_model(m, CorrelationTable.poisson(GRID64, 3, z),
                                  TORUS1)
        exact = math.exp(-z * beta)
        err = abs(am.lambda_bar - exact)
        if err > am.lambda_bar_tail + 1e-12:
            problems.append(
                f"case z={z}, {height}@{cutoff}: error {err:.3e} above "
                f"reported tail {am.lambda_bar_tail:.3e}")
        if not 0.0 < am.lambda_bar_tail < 0.01:
            problems.append(
                f"case z={z}: unreasonable tail {am.lambda_bar_tail:.3e}")
    _finish(8, "averaged birth factor", t0, 5.0, problems)
