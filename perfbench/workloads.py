"""Workload definitions for the coupledbd benchmark: the configs each
workload runs, the CLI commands that run them, and the checks on their
outputs.

This module uses only the standard library, so the orchestrator can import
it without loading numpy (numerical work happens in child processes whose
BLAS threads are pinned).

Workloads
---------
sampler
    ``simulate`` on one config per model variant: a 1D box of side 100 with
    about 75 particles of each component (about 150 in all), both
    components evolving.  Checked at the level of the law: final and
    time-averaged densities and the number of real jumps must lie within
    the reference band of reference values (see ``reference.json`` and
    ``make_reference.py``).
hierarchy
    ``invariant`` then ``evolve`` on a 2D, order-3 glauber_glauber
    environment on a 16 x 16 grid (P = 256).  Deterministic; both densities
    must match the reference to round-off and the positivity check must pass.
averaging
    ``check`` (weight scan plus Monte Carlo spot check) then ``averaging``
    on a criterion-6 style config: 1D glauber_glauber, side 10, a handful
    of particles, epsilons 1, 0.3 and 0.1, 100 replicas.  The check must
    exit 0 with the spot check ok; the sweep must report ``monotone_ok`` and
    ``smallest_within_se``.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List

HERE = Path(__file__).resolve().parent
REFERENCE_PATH = HERE / "reference.json"

VARIANTS = ("glauber_glauber", "bdlp_in_glauber", "branching_in_glauber", "two_bdlp")

# Seeds accepted by the config schema are nonnegative.
SEED_MODULUS = 2 ** 31


def _step(height: float, cutoff: float) -> dict:
    return {"kind": "step", "height": height, "cutoff": cutoff}


# ---------------------------------------------------------------------------
# sampler

# Initial Poisson density of each component; the parameters below keep both
# components near this density, so a box of side 100 holds about 150
# particles in all.
SAMPLER_DENSITY = 0.75
SAMPLER_SIDE = 100.0
SAMPLER_REPLICAS = 2
SAMPLER_RECORDS = 11

SAMPLER_PARAMS: Dict[str, dict] = {
    "glauber_glauber": {
        "z_minus": 0.98, "psi": _step(0.2, 1.0), "z_plus": 1.4,
        "phi_minus": _step(0.2, 1.0), "phi_plus": _step(0.2, 1.0),
    },
    "bdlp_in_glauber": {
        "z_minus": 0.98, "psi": _step(0.2, 1.0), "m_plus": 1.0,
        "a_minus": _step(0.25, 1.0), "a_plus": _step(0.25, 1.0),
        "b_plus": _step(0.4375, 1.0),
    },
    "branching_in_glauber": {
        "z_minus": 0.98, "psi": _step(0.2, 1.0), "m_plus": 1.0,
        "kappa": _step(0.2, 1.0), "phi": _step(0.2, 1.0),
        "a_plus": _step(1.0, 1.0),
    },
    "two_bdlp": {
        "z": 0.66, "m_minus": 1.0, "a_minus": _step(0.25, 1.0),
        "a_plus": _step(0.25, 1.0), "m_plus": 1.0,
        "b_minus": _step(0.25, 1.0), "b_plus": _step(0.25, 1.0),
        "vphi_plus": _step(0.4375, 1.0),
    },
}

# Simulated time per variant, chosen so that each variant's command costs
# about the same wall time on the seed commit (events/s differ by ~30x).
SAMPLER_T_END = {
    "glauber_glauber": 17.0,
    "bdlp_in_glauber": 3.0,
    "branching_in_glauber": 0.6,
    "two_bdlp": 2.0,
}

# Statistics of one simulate command checked against the reference law.
# "jumps" counts the births and deaths that happened (events minus virtual
# ones), so it does not depend on how tight the thinning bounds are.
SAMPLER_STATS = ("final_plus", "final_minus", "tavg_plus", "tavg_minus", "jumps")


def sampler_config(variant: str, seed: int, side: float = SAMPLER_SIDE) -> dict:
    return {
        "model": {"variant": variant, "params": SAMPLER_PARAMS[variant]},
        "torus": {"dim": 1, "side": side},
        "simulate": {
            "t_end": SAMPLER_T_END[variant],
            "n_replicas": SAMPLER_REPLICAS,
            "n_times": SAMPLER_RECORDS,
            "sys_density": SAMPLER_DENSITY,
            "env_density": SAMPLER_DENSITY,
            "seed": seed,
        },
    }


# ---------------------------------------------------------------------------
# hierarchy

HIERARCHY_CONFIG = {
    "model": {
        "variant": "glauber_glauber",
        "params": {"z_minus": 0.5, "psi": _step(0.5, 1.0), "z_plus": 0.3},
    },
    "torus": {"dim": 2, "side": 4.0},
    "invariant": {"grid_points": 16, "order": 3},
    "evolve": {"grid_points": 16, "order": 3, "t_final": 0.5, "dt": 0.05},
}

# Relative tolerance for "equal to round-off" on the hierarchy densities.
HIERARCHY_RTOL = 1e-9


# ---------------------------------------------------------------------------
# averaging

AVERAGING_PARAMS = {
    "z_minus": 0.5, "z_plus": 0.3,
    "phi_minus": _step(1.0, 0.5), "phi_plus": _step(1.0, 0.5),
}
AVERAGING_EPSILONS = (1.0, 0.3, 0.1)


def averaging_config(seed: int) -> dict:
    return {
        "model": {"variant": "glauber_glauber", "params": AVERAGING_PARAMS},
        "torus": {"dim": 1, "side": 10.0},
        "check": {"scan": True, "spot_check": {"seed": seed}},
        "averaging": {
            "epsilons": list(AVERAGING_EPSILONS),
            "n_replicas": 100,
            "t_end": 5.0,
            # The sweep's "smallest epsilon within 3 se" flag takes the
            # largest gap over the record times; three times keep its false
            # alarm rate on a correct program near 1% (21 would give ~3%).
            "n_times": 3,
            "sys_density": 0.3,
            "seed": seed,
        },
    }


# ---------------------------------------------------------------------------
# commands

@dataclass(frozen=True)
class Command:
    """One CLI invocation: ``coupledbd <name> <config> --seed <seed>``."""

    name: str      # CLI subcommand
    label: str     # unique within a workload; names the config and output
    config: dict
    seed: int

    def argv(self, config_path: str, out_dir: str) -> List[str]:
        return [self.name, config_path, "--out", out_dir, "--seed", str(self.seed)]


WORKLOADS = ("sampler", "hierarchy", "averaging")


def commands(workload: str, seed: int) -> List[Command]:
    """The commands one pass of a workload runs, in order."""
    seed = seed % SEED_MODULUS
    if workload == "sampler":
        return [Command("simulate", f"simulate-{v}", sampler_config(v, seed), seed)
                for v in VARIANTS]
    if workload == "hierarchy":
        # Both commands are deterministic; the seed reaches them only
        # through --seed, which they do not use.
        return [Command("invariant", "invariant", HIERARCHY_CONFIG, seed),
                Command("evolve", "evolve", HIERARCHY_CONFIG, seed)]
    if workload == "averaging":
        cfg = averaging_config(seed)
        return [Command("check", "check", cfg, seed),
                Command("averaging", "averaging", cfg, seed)]
    raise ValueError(f"unknown workload {workload!r}")


# ---------------------------------------------------------------------------
# output checks

def _read_json(path: Path) -> dict:
    with open(path) as f:
        return json.load(f)


def load_reference() -> dict:
    return _read_json(REFERENCE_PATH)


def sampler_stats(out_dir: Path) -> Dict[str, float]:
    """Final and time-averaged ensemble densities from densities.csv, and
    the number of real jumps from events.json."""
    with open(out_dir / "densities.csv", newline="") as f:
        rows = [{k: float(v) for k, v in r.items()} for r in csv.DictReader(f)]
    if not rows:
        raise ValueError("densities.csv has no rows")
    events = _read_json(out_dir / "events.json")
    return {
        "final_plus": rows[-1]["mean_plus"],
        "final_minus": rows[-1]["mean_minus"],
        "tavg_plus": sum(r["mean_plus"] for r in rows) / len(rows),
        "tavg_minus": sum(r["mean_minus"] for r in rows) / len(rows),
        "jumps": float(events["total_events"] - events["virtual_events"]),
    }


def _rel_gap(a: float, b: float) -> float:
    return abs(a - b) / max(abs(b), 1e-300)


def check_output(cmd: Command, out_dir: Path, exit_code: int,
                 reference: dict) -> List[str]:
    """Problems with one command's run; empty when it passed."""
    if exit_code != 0:
        return [f"{cmd.label}: exit code {exit_code}"]
    try:
        return _check_artifacts(cmd, out_dir, reference)
    except (OSError, ValueError, KeyError) as e:
        return [f"{cmd.label}: unreadable output: {e!r}"]


def _check_artifacts(cmd: Command, out_dir: Path, reference: dict) -> List[str]:
    problems = []
    if cmd.name == "simulate":
        ref = reference["sampler"]
        law = ref["variants"][cmd.config["model"]["variant"]]
        stats = sampler_stats(out_dir)
        for name in SAMPLER_STATS:
            mean, sd = law[name]["mean"], law[name]["sd"]
            # the reference mean carries its own sampling error
            band = ref["band_sd"] * sd * math.sqrt(1.0 + 1.0 / ref["runs"])
            if abs(stats[name] - mean) > band:
                problems.append(
                    f"{cmd.label}: {name} {stats[name]:.6g} outside "
                    f"{mean:.6g} +- {band:.3g} ({ref['band_sd']:.3g} sd)")
    elif cmd.name == "invariant":
        s = _read_json(out_dir / "summary.json")
        want = reference["hierarchy"]["invariant_density"]
        if _rel_gap(s["density"], want) > HIERARCHY_RTOL:
            problems.append(f"invariant: density {s['density']!r} != reference {want!r}")
        if not s["positivity_ok"]:
            problems.append("invariant: positivity check failed")
        if not s["converged"]:
            problems.append("invariant: not converged")
    elif cmd.name == "evolve":
        s = _read_json(out_dir / "summary.json")
        want = reference["hierarchy"]["evolve_final_density"]
        if _rel_gap(s["final_density"], want) > HIERARCHY_RTOL:
            problems.append(
                f"evolve: final density {s['final_density']!r} != reference {want!r}")
    elif cmd.name == "check":
        report = _read_json(out_dir / "report.json")
        if not report.get("spot_check", {}).get("ok"):
            problems.append("check: spot check not ok")
        if not report["feasible"]:
            problems.append("check: regime not feasible")
    elif cmd.name == "averaging":
        res = _read_json(out_dir / "result.json")
        if not res["monotone_ok"]:
            problems.append(f"averaging: distances not monotone: {res['distances']}")
        if not res["smallest_within_se"]:
            problems.append("averaging: smallest epsilon not within noise")
    return problems
