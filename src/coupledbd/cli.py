"""Command line front end.

Subcommands: check, invariant, evolve, simulate, ergodicity, averaging.
Each reads a JSON configuration, runs, writes artifacts into the output
directory (CSV data, JSON summaries and a run manifest with the config
hash and the resolved config) and prints a short report.

Exit codes: 0 success, 2 configuration or model errors, 3 no feasible
contraction regime, 4 runtime failures (divergence, instability, explosion
guard, numeric contradiction).
"""

from __future__ import annotations

import argparse
import csv
import datetime
import importlib
import json
import math
import os
import sys
from typing import List, Optional

import numpy as np

from . import __version__
from .config import (
    SEED_MAX,
    config_hash,
    load_config,
    model_from_config,
    resolve_config,
    torus_from_config,
)
from .errors import (
    ConfigError,
    ConvergenceError,
    EvaluationError,
    ExplosionGuardError,
    StabilityError,
)
from .geometry import MarkedConfiguration
from .models import build_averaged_model, validate_model_on_torus

# The names the commands call from the modules only some commands run.  A
# command imports its modules when it is dispatched (_bind), so a fresh
# command pays for no module it does not run.  A name not yet bound resolves
# on first access (PEP 562 __getattr__), so cli.ks_solve and the rest read as
# they would from a top-level import.  Binding keeps a name already bound:
# a wrapper put in its place (a tracer's, a test's) is what the commands call.
_LAZY = {
    "conditions": ("SpotCheckSettings", "check_regime", "env_constants",
                   "scan_feasible", "spectral_gap"),
    "experiments": ("averaging_experiment", "ergodicity_experiment"),
    "hierarchy": ("component_form", "evolve_hierarchy", "invariant_summary",
                  "ks_solve", "lenard_spot_check"),
    "simulate": ("COMPONENTS", "EVENT_KINDS", "SimulationSettings",
                 "acceptance_ratio", "estimate_density",
                 "poisson_configuration", "replicate"),
    "tables": ("CorrelationTable", "GridSpec"),
}


def _bind(*modules: str) -> None:
    """Import each module and bind the names of it listed in _LAZY that are
    not bound yet."""
    names = globals()
    for module in modules:
        mod = importlib.import_module(f".{module}", __package__)
        for name in _LAZY[module]:
            names.setdefault(name, getattr(mod, name))


def __getattr__(name: str):
    for module, names in _LAZY.items():
        if name in names:
            _bind(module)
            return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


_CONFIG_EXIT = 2
_INFEASIBLE_EXIT = 3
_RUNTIME_EXIT = 4


def _write_csv(path: str, header: List[str], rows) -> None:
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(header)
        for row in rows:
            w.writerow(row)


def _strict(obj):
    """obj with each non-finite float replaced by "inf", "-inf" or "nan",
    which strict JSON can hold."""
    if isinstance(obj, float) and not math.isfinite(obj):
        return "nan" if math.isnan(obj) else ("inf" if obj > 0 else "-inf")
    if isinstance(obj, dict):
        return {k: _strict(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_strict(v) for v in obj]
    return obj


def _write_json(path: str, obj) -> None:
    with open(path, "w") as f:
        json.dump(_strict(obj), f, indent=2, sort_keys=True, allow_nan=False)
        f.write("\n")


def _section(cfg: dict, name: str) -> dict:
    """The section a command reads (check's and invariant's default to {})."""
    if name not in cfg:
        raise ConfigError(f"{name} section is required for this command")
    return cfg[name]


def _seeded(cfg: dict, command: str) -> Optional[dict]:
    """The section whose seed the command draws, if it draws one and cfg has it."""
    section = cfg["check"].get("spot_check") if command == "check" else cfg.get(command)
    return None if command in ("invariant", "evolve") else section


def _solve(form, grid, section: dict):
    """ks_solve with the solver options of a hierarchy section (evolve has no
    tol or max_iter: it takes ks_solve's)."""
    keys = ("order", "tol", "max_iter", "closure")
    return ks_solve(form, grid, **{k: section[k] for k in keys if k in section})


def _section_form(m, torus, section: dict):
    """(form, grid) of the component a hierarchy section names; 'averaged'
    first solves the environment at the section's order (lambda-bar reads
    its k2 and k3) and integrates it out."""
    grid = GridSpec(torus=torus, points_per_axis=section["grid_points"])
    form = component_form(m, "environment")
    if section["component"] != "environment":
        env_sol = _solve(form, grid, section)
        form = component_form(build_averaged_model(m, env_sol.table, torus), "system")
    return form, grid


def _cmd_check(cfg: dict, m, torus, out_dir: str):
    _bind("conditions")
    section = _section(cfg, "check")
    rho_inv = section.get("rho_inv")
    outputs = []
    scanned = None
    if section["scan"] or "c_minus" not in section or "c_plus" not in section:
        scanned = scan_feasible(m, torus.dim, rho_inv=rho_inv)
        path = os.path.join(out_dir, "scan.csv")
        _write_csv(path, ["c_minus", "c_plus", "a_env", "a_sys", "a_avg",
                          "lambda0", "feasible"],
                   [[r["c_minus"], r["c_plus"], r["a_env"], r["a_sys"],
                     r["a_avg"], r["lambda0"], int(r["feasible"])]
                    for r in scanned.rows])
        outputs.append("scan.csv")
        if scanned.best is None:
            print(f"scanned {scanned.evaluated} weight pairs: none feasible")
            return (_INFEASIBLE_EXIT, outputs,
                    {"feasible": False, "scanned": scanned.evaluated})
        c_minus = scanned.best["c_minus"]
        c_plus = scanned.best["c_plus"]
        print(f"scan: best weights c_minus={c_minus:.6g} c_plus={c_plus:.6g} "
              f"({scanned.feasible_count}/{scanned.evaluated} feasible)")
    else:
        c_minus, c_plus = section["c_minus"], section["c_plus"]

    spot = SpotCheckSettings(**section["spot_check"]) if "spot_check" in section else None
    report = check_regime(m, c_minus, c_plus, torus=torus, rho_inv=rho_inv,
                          spot=spot)
    _write_json(os.path.join(out_dir, "report.json"), report.as_dict())
    outputs.append("report.json")
    summary = {"feasible": report.feasible,
               "a_env": report.environment.a,
               "a_sys": report.system.a,
               "a_avg": report.averaged.a,
               "gap_env": report.gap_env}
    for line in report.summary_lines():
        print(line)
    if report.spot is not None and not report.spot.ok:
        print("numeric spot check contradicts the closed-form bounds",
              file=sys.stderr)
        return _RUNTIME_EXIT, outputs, summary
    return (0 if report.feasible else _INFEASIBLE_EXIT), outputs, summary


def _cmd_invariant(cfg: dict, m, torus, out_dir: str):
    _bind("hierarchy", "tables")
    section = _section(cfg, "invariant")
    form, grid = _section_form(m, torus, section)
    sol = _solve(form, grid, section)
    summ = invariant_summary(sol.table)
    lenard = lenard_spot_check(sol.table)
    rows = list(zip(summ.pair_r, summ.pair_g))
    _write_csv(os.path.join(out_dir, "correlations.csv"),
               ["r", "pair_correlation"], rows)
    out = {
        "density": summ.density,
        "iterations": sol.iterations,
        "final_residual": sol.residuals[-1] if sol.residuals else 0.0,
        "converged": sol.converged,
        "sup_by_order": list(summ.sup_by_order),
        "positivity_ok": lenard.ok,
        "min_entry": lenard.min_entry,
        "symmetry_defect": lenard.symmetry_defect,
        "min_pairing": lenard.min_pairing,
    }
    _write_json(os.path.join(out_dir, "summary.json"), out)
    print(f"invariant density: {summ.density:.8g} "
          f"({sol.iterations} iterations, residual {out['final_residual']:.3e})")
    print(f"positivity check: {'ok' if lenard.ok else 'FAILED'}")
    return (0, ["correlations.csv", "summary.json"],
            {"density": summ.density, "iterations": sol.iterations})


def _cmd_evolve(cfg: dict, m, torus, out_dir: str):
    _bind("hierarchy", "tables")
    section = _section(cfg, "evolve")
    form, grid = _section_form(m, torus, section)
    # a constant-death form's density reads no order above the first
    # (ComponentForm.constant_death), so only the density is integrated
    order = 1 if form.constant_death else section["order"]
    initial = CorrelationTable.poisson(grid, order, section["initial_density"])
    traj = evolve_hierarchy(initial, form, section["t_final"], dt=section["dt"],
                            record_every=section["record_every"],
                            closure=section["closure"])
    _write_csv(os.path.join(out_dir, "trajectory.csv"), ["t", "density"],
               list(zip(traj.times, traj.density)))
    final = traj.final()
    _write_json(os.path.join(out_dir, "summary.json"), {
        "t_final": float(traj.times[-1]),
        "final_density": final.k1,
        "initial_density": section["initial_density"],
        "records": len(traj.times),
    })
    print(f"evolved to t={traj.times[-1]:.6g}: density {final.k1:.8g}")
    return 0, ["trajectory.csv", "summary.json"], {"final_density": final.k1}


def _cmd_simulate(cfg: dict, m, torus, out_dir: str):
    _bind("simulate")
    section = _section(cfg, "simulate")
    t_end = section["t_end"]
    components = tuple(section["components"])
    settings = SimulationSettings(
        t_end=t_end, epsilon=section["epsilon"], master_seed=section["seed"],
        record_times=tuple(np.linspace(0.0, t_end, section["n_times"])),
        max_events=section["max_events"])
    sys_rho = section["sys_density"] if "system" in components else 0.0
    env_rho = section["env_density"] if "environment" in components else 0.0

    def factory(rng):
        return MarkedConfiguration(plus=poisson_configuration(rng, torus, sys_rho),
                                   minus=poisson_configuration(rng, torus, env_rho))

    records = replicate(m, torus, factory, settings, section["n_replicas"], components)
    est = estimate_density(records, torus)
    _write_csv(os.path.join(out_dir, "densities.csv"),
               ["t", "mean_plus", "se_plus", "mean_minus", "se_minus"],
               list(zip(est.times, est.mean_plus, est.se_plus,
                        est.mean_minus, est.se_minus)))
    tallies = {c: {k: sum(r.counts[c][k] for r in records) for k in EVENT_KINDS}
               for c in COMPONENTS}
    events = {"total_events": int(sum(r.events for r in records)),
              "virtual_events": int(sum(r.virtual_events for r in records)),
              "n_replicas": est.n_replicas,
              "components": tallies,
              "peak_population": max(r.peak_population for r in records),
              "acceptance": {c: acceptance_ratio(t) for c, t in tallies.items()},
              "recomputes": sum(r.recomputes for r in records)}
    _write_json(os.path.join(out_dir, "events.json"), events)
    print(f"simulated {est.n_replicas} replicas to t={t_end:.6g} "
          f"({events['total_events']} events, {events['virtual_events']} virtual)")
    print(f"final densities: system {est.mean_plus[-1]:.6g} "
          f"+- {est.se_plus[-1]:.2g}, environment {est.mean_minus[-1]:.6g} "
          f"+- {est.se_minus[-1]:.2g}")
    return 0, ["densities.csv", "events.json"], {
        "final_mean_plus": float(est.mean_plus[-1]),
        "final_mean_minus": float(est.mean_minus[-1]),
        **events,
    }


def _cmd_ergodicity(cfg: dict, m, torus, out_dir: str):
    section = _section(cfg, "ergodicity")
    _bind("experiments")
    target = section.get("target_density")
    if target is None:
        _bind("hierarchy", "tables")
        grid = GridSpec(torus=torus, points_per_axis=section["grid_points"])
        target = float(ks_solve(component_form(m, "environment"), grid).table.k1)
    lambda_0 = None
    if "c_minus" in section:
        _bind("conditions")
        env = env_constants(m, section["c_minus"], torus.dim)
        lambda_0 = spectral_gap(env.a, env.m_star)
    result = ergodicity_experiment(
        m, torus, n_replicas=section["n_replicas"], t_end=section["t_end"],
        initial_density=section["initial_density"], target_density=target,
        n_times=section["n_times"], master_seed=section["seed"], lambda_0=lambda_0)
    _write_csv(os.path.join(out_dir, "gaps.csv"), ["t", "gap", "se"],
               list(zip(result.times, result.gaps, result.density.se_minus)))
    fit = {
        "rate": result.fit.rate,
        "rate_stderr": result.fit.stderr,
        "n_used": result.fit.n_used,
        "noise_floor": result.noise_floor,
        "target_density": result.target_density,
        "lambda_0": lambda_0,
        "rate_consistent_with_gap": result.rate_consistent_with_gap,
    }
    _write_json(os.path.join(out_dir, "fit.json"), fit)
    print(f"fitted relaxation rate: {result.fit.rate:.4f} "
          f"+- {result.fit.stderr:.4f} ({result.fit.n_used} points)")
    if lambda_0 is not None:
        verdict = "consistent" if result.rate_consistent_with_gap else "INCONSISTENT"
        print(f"proven lower bound {lambda_0:.4f}: {verdict}")
    return 0, ["gaps.csv", "fit.json"], {"rate": result.fit.rate, "lambda_0": lambda_0}


def _cmd_averaging(cfg: dict, m, torus, out_dir: str):
    section = _section(cfg, "averaging")
    _bind("experiments")
    result = averaging_experiment(
        m, torus, epsilons=section["epsilons"], n_replicas=section["n_replicas"],
        t_end=section["t_end"], sys_density0=section["sys_density"],
        env_density0=section.get("env_density"), n_times=section["n_times"],
        master_seed=section["seed"], grid_points=section["grid_points"])
    _write_csv(os.path.join(out_dir, "distances.csv"),
               ["epsilon", "distance", "se", "argmax_time"],
               list(zip(result.epsilons, result.distances, result.distance_ses,
                        result.argmax_times)))
    header = ["t", "averaged_mean", "averaged_se"]
    cols = [result.times, result.averaged.mean_plus, result.averaged.se_plus]
    for e in result.epsilons:
        est = result.coupled[float(e)]
        header += [f"eps{e:g}_mean", f"eps{e:g}_se"]
        cols += [est.mean_plus, est.se_plus]
    _write_csv(os.path.join(out_dir, "densities.csv"), header,
               list(zip(*cols)))
    out = {
        "epsilons": [float(e) for e in result.epsilons],
        "distances": [float(d) for d in result.distances],
        "distance_ses": [float(s) for s in result.distance_ses],
        "monotone_ok": result.monotone_ok,
        "smallest_within_se": result.smallest_within_se,
        "lambda_bar": result.lambda_bar,
        "env_density": result.env_density,
    }
    _write_json(os.path.join(out_dir, "result.json"), out)
    for e, d, s in zip(result.epsilons, result.distances, result.distance_ses):
        print(f"epsilon={e:g}: sup density gap {d:.6g} +- {s:.2g}")
    print(f"gap decreasing with epsilon: {'yes' if result.monotone_ok else 'NO'}")
    print(f"smallest epsilon within noise: "
          f"{'yes' if result.smallest_within_se else 'NO'}")
    return (0, ["distances.csv", "densities.csv", "result.json"],
            {"distances": out["distances"], "monotone_ok": result.monotone_ok})


# Each command runs on the resolved config, writes its artifacts into
# out_dir and returns (exit code, the artifacts written, manifest summary).
_COMMANDS = {
    "check": _cmd_check,
    "invariant": _cmd_invariant,
    "evolve": _cmd_evolve,
    "simulate": _cmd_simulate,
    "ergodicity": _cmd_ergodicity,
    "averaging": _cmd_averaging,
}


def _seed(text: str) -> int:
    """A --seed value: an integer from 0 to SEED_MAX, as the config's seeds are."""
    try:
        value = int(text)
    except ValueError:
        value = -1
    if not 0 <= value <= SEED_MAX:
        raise argparse.ArgumentTypeError(
            f"--seed must be a nonnegative integer of at most {SEED_MAX}")
    return value


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="coupledbd",
        description="Coupled spatial birth-death processes: regime checks, "
                    "correlation hierarchies, exact simulation.")
    sub = p.add_subparsers(dest="command", required=True)
    helps = {
        "check": "contraction-regime report and weight scan",
        "invariant": "invariant correlation functions by fixed point",
        "evolve": "integrate the truncated correlation hierarchy",
        "simulate": "exact stochastic simulation ensemble",
        "ergodicity": "fit the environment relaxation rate",
        "averaging": "coupled versus averaged dynamics over epsilon",
    }
    for name, h in helps.items():
        q = sub.add_parser(name, help=h)
        q.add_argument("config", help="JSON configuration file")
        q.add_argument("--out", default=None, help="artifact directory")
        q.add_argument("--seed", type=_seed, default=None,
                       help="override the configured seed")
    return p


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config)
        run = resolve_config(cfg)
        seeded = _seeded(run, args.command)
        # a run with an applied --seed defaults to a directory of its own
        suffix = ""
        if args.seed is not None and seeded is not None:
            seeded["seed"] = args.seed
            suffix = f"_seed{args.seed}"
        m = model_from_config(run)
        torus = torus_from_config(run)
        validate_model_on_torus(m, torus)
        out_dir = args.out or f"runs/{args.command}_{config_hash(cfg)}{suffix}"
        os.makedirs(out_dir, exist_ok=True)
        code, outputs, summary = _COMMANDS[args.command](run, m, torus, out_dir)
        _write_json(os.path.join(out_dir, "manifest.json"), {
            "command": args.command,
            "config_hash": config_hash(cfg),
            "config": run,
            "package_version": __version__,
            "created_utc": datetime.datetime.now(datetime.timezone.utc).isoformat(),
            "outputs": sorted(outputs),
            "summary": summary,
        })
        return code
    # EvaluationError subclasses ValueError, so this clause must come first
    except (ConvergenceError, StabilityError, ExplosionGuardError,
            EvaluationError) as e:
        print(f"runtime failure: {e}", file=sys.stderr)
        return _RUNTIME_EXIT
    # ConfigError, ModelError and SizeLimitError subclass ValueError too
    except ValueError as e:
        print(f"configuration error: {e}", file=sys.stderr)
        return _CONFIG_EXIT


if __name__ == "__main__":
    sys.exit(main())
