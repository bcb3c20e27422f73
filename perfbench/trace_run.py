"""Traced child processes: the raw figures behind the per-layer metrics.

Spans are recorded only here, around calls into the package's public
functions: each traced function is rebound in the module that calls it (for
example ``coupledbd.simulate.birth_proposal`` or
``coupledbd.experiments.ks_solve``), and ``cli.main`` runs in-process.  A
span is (name, start, end, parent).  Spans stay in memory and are written
to ``--spans`` at the end.

Each invocation is one fresh interpreter, so every command starts as cold
as the command line leaves it (empty caches), whichever workload run.py
was asked for.  Two modes:

``command``
    runs one command of a workload through ``cli.main``, traced when
    ``--spans`` is given, checks its outputs, and prints one JSON line with
    ``wall_s`` (of ``cli.main``), ``problems`` and, when traced, ``spans``:
    per span name the total time, call count and self time (time minus that
    of traced children), and the notes kept with each span;
``micro``
    runs the microcases with tracing off (events/s of ``simulate`` for each
    variant at populations of about 10, 50 and 150, the order-3
    ``l_delta_apply`` at three grid sizes, the cold build of
    ``GridSpec.diff_index``) and prints one JSON line with ``metrics``.

    python3 perfbench/trace_run.py command --workload W --seed N --label L
                                           --out DIR [--spans FILE]
    python3 perfbench/trace_run.py micro --seed N

run.py runs these children and turns their output into metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import json
import statistics
import traceback
from array import array
from pathlib import Path
from time import perf_counter

import numpy as np

import workloads
from coupledbd.config import model_from_config, torus_from_config
from coupledbd.geometry import FiniteConfiguration, MarkedConfiguration, Torus
from coupledbd.hierarchy import build_stencils, component_form, l_delta_apply
from coupledbd.models import BirthProposal
from coupledbd.simulate import SimulationSettings, poisson_configuration, replica_rng
from coupledbd.tables import CorrelationTable, GridSpec

# Modules whose names get rebound.  importlib, because the package namespace
# re-exports a function named simulate that shadows the submodule.
cli = importlib.import_module("coupledbd.cli")
conditions_mod = importlib.import_module("coupledbd.conditions")
experiments_mod = importlib.import_module("coupledbd.experiments")
hierarchy_mod = importlib.import_module("coupledbd.hierarchy")
simulate_mod = importlib.import_module("coupledbd.simulate")


class Tracer:
    """Records spans of wrapped calls in flat arrays."""

    def __init__(self):
        self.names: list[str] = []
        self.codes: dict[str, int] = {}
        self.name_ids = array("i")
        self.parents = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.notes: dict[int, dict] = {}
        self.missing: set[str] = set()
        self._stack: list[int] = []

    def wrap(self, owner, attr: str, name: str, note=None) -> None:
        """Rebind owner.attr to a wrapper that records a span per call.

        note(args, kwargs, result) may return a dict kept with the span.
        """
        fn = getattr(owner, attr, None)
        if fn is None:
            self.missing.add(f"{owner.__name__}.{attr}")
            return
        code = self.codes.setdefault(name, len(self.names))
        if code == len(self.names):
            self.names.append(name)
        stack, notes = self._stack, self.notes
        name_ids, parents = self.name_ids, self.parents
        starts, ends = self.starts, self.ends

        def traced(*args, **kwargs):
            idx = len(starts)
            name_ids.append(code)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(idx)
            starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = perf_counter()
                stack.pop()
            if note is not None:
                notes[idx] = note(args, kwargs, result)
            return result

        setattr(owner, attr, traced)

    def save(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(
            path, span_names=np.array(self.names), name=np.asarray(self.name_ids),
            parent=np.asarray(self.parents),
            start=np.asarray(self.starts), end=np.asarray(self.ends))

    def summary(self) -> dict:
        """Per span name: [total s, calls, self s], and the notes kept."""
        name = np.asarray(self.name_ids, dtype=np.intp)
        parent = np.asarray(self.parents, dtype=np.intp)
        dur = np.asarray(self.ends) - np.asarray(self.starts)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent],
                            minlength=len(dur))
        self_time = dur - child
        calls = np.bincount(name, minlength=len(self.names))
        totals = np.bincount(name, weights=dur, minlength=len(self.names))
        selfs = np.bincount(name, weights=self_time, minlength=len(self.names))
        notes: dict[str, list] = {}
        for idx in sorted(self.notes):
            notes.setdefault(self.names[name[idx]], []).append([float(dur[idx]), self.notes[idx]])
        return {"totals": {n: [float(totals[i]), int(calls[i]), float(selfs[i])]
                           for i, n in enumerate(self.names)},
                "notes": notes}


def _replicate_note(args, kwargs, result):
    settings = args[3] if len(args) > 3 else kwargs["settings"]
    comps = args[5] if len(args) > 5 else kwargs.get("components", ())
    return {"epsilon": float(settings.epsilon), "averaged": tuple(comps) == ("system",)}


def install_wrappers(tr: Tracer) -> None:
    events_note = lambda a, k, r: {"events": int(r.events), "virtual": int(r.virtual_events)}
    solve_note = lambda a, k, r: {"iterations": int(r.iterations),
                                  "residual": float(r.residuals[-1]) if r.residuals else 0.0}
    tr.wrap(cli, "main", "cli.main")
    tr.wrap(simulate_mod, "simulate", "simulate.simulate", events_note)
    tr.wrap(simulate_mod, "birth_proposal", "models.birth_proposal")
    for fn in ("sys_death_vector", "env_death_vector", "averaged_death_vector"):
        tr.wrap(simulate_mod, fn, "models.death_vector")
    tr.wrap(BirthProposal, "sample_candidate", "models.sample_candidate")
    for fn in ("add_point", "remove_index"):
        tr.wrap(FiniteConfiguration, fn, "geometry.config_update")
    tr.wrap(cli, "ks_solve", "hierarchy.ks_solve", solve_note)
    tr.wrap(cli, "evolve_hierarchy", "hierarchy.evolve")
    tr.wrap(hierarchy_mod, "l_delta_apply", "hierarchy.l_delta_apply")
    tr.wrap(hierarchy_mod, "build_stencils", "hierarchy.build_stencils")
    tr.wrap(cli, "scan_feasible", "conditions.scan")
    tr.wrap(conditions_mod, "spot_check_regime", "conditions.spot_check",
            lambda a, k, r: {"rows": len(r.rows)})
    tr.wrap(experiments_mod, "replicate", "experiments.replicate", _replicate_note)
    tr.wrap(experiments_mod, "ks_solve", "experiments.ks_solve")


# ---------------------------------------------------------------------------
# microcases (tracing off)

# Simulated time per replica at a population of 150; smaller populations
# run proportionally longer so every case sees a similar number of events.
MICRO_T_END_AT_150 = {
    "glauber_glauber": 2.0,
    "bdlp_in_glauber": 0.5,
    "branching_in_glauber": 0.15,
    "two_bdlp": 0.4,
}
MICRO_POPULATIONS = (10, 50, 150)
MICRO_BUDGET_S = 0.4

# order-3 l_delta_apply cases: (dim, side, points per axis)
LDELTA_CASES = {"1d_p256": (1, 10.0, 256), "2d_p256": (2, 4.0, 16), "2d_p576": (2, 6.0, 24)}


def simulate_microcases(seed: int) -> dict:
    """Events/s of one trajectory at total populations of about n."""
    out = {}
    rho = workloads.SAMPLER_DENSITY
    for variant in workloads.VARIANTS:
        for n in MICRO_POPULATIONS:
            cfg = workloads.sampler_config(variant, seed, side=n / (2.0 * rho))
            m = model_from_config(cfg)
            torus = torus_from_config(cfg)
            settings = SimulationSettings(
                t_end=MICRO_T_END_AT_150[variant] * 150.0 / n, master_seed=seed)
            events, wall, r = 0, 0.0, 0
            while wall < MICRO_BUDGET_S:
                rng = replica_rng(seed ^ 0x5DEECE66D, r)
                initial = MarkedConfiguration(plus=poisson_configuration(rng, torus, rho),
                                              minus=poisson_configuration(rng, torus, rho))
                t0 = perf_counter()
                rec = simulate_mod.simulate(m, torus, initial, settings, replica=r)
                wall += perf_counter() - t0
                events += rec.events
                r += 1
            out[f"simulate.events_per_s.{variant}.n{n}"] = events / wall
    return out


def hierarchy_microcases() -> dict:
    out = {}
    form = component_form(model_from_config(workloads.HIERARCHY_CONFIG),
                          "environment")
    for name, (dim, side, ppa) in LDELTA_CASES.items():
        grid = GridSpec(torus=Torus(dim=dim, side=side), points_per_axis=ppa)
        bundle = build_stencils(grid, form, 3)
        table = CorrelationTable.poisson(grid, 3, 0.5)
        l_delta_apply(table, bundle)  # warm-up
        times: list[float] = []
        while len(times) < 3 and not (len(times) >= 2 and sum(times) >= 1.0):
            t0 = perf_counter()
            l_delta_apply(table, bundle)
            times.append(perf_counter() - t0)
        out[f"hierarchy.l_delta_apply_ms.{name}"] = 1e3 * statistics.median(times)

    # A grid never built before: distinct sides give distinct cache keys.
    h = workloads.HIERARCHY_CONFIG
    times = []
    for k in range(1, 6):
        grid = GridSpec(torus=Torus(dim=h["torus"]["dim"],
                                    side=h["torus"]["side"] * (1.0 + 1e-9 * k)),
                        points_per_axis=h["invariant"]["grid_points"])
        t0 = perf_counter()
        grid.diff_index
        times.append(perf_counter() - t0)
    out["tables.diff_index_s"] = statistics.median(times)
    return out


# ---------------------------------------------------------------------------
# one command

def run_command(cmd: workloads.Command, out: Path, reference: dict,
                tracer: Tracer | None = None):
    """Run one CLI command in-process; returns (wall seconds, problems)."""
    cfg_path = out / f"{cmd.label}.json"
    cfg_path.write_text(json.dumps(cmd.config))
    out_dir = out / cmd.label
    with open(out / f"{cmd.label}.log", "w") as log, \
            contextlib.redirect_stdout(log), contextlib.redirect_stderr(log):
        if tracer is not None:
            install_wrappers(tracer)
        t0 = perf_counter()
        try:
            code = cli.main(cmd.argv(str(cfg_path), str(out_dir)))
        except Exception:
            traceback.print_exc()
            code = -1
        wall = perf_counter() - t0
    return wall, workloads.check_output(cmd, out_dir, code, reference)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = ap.add_subparsers(dest="mode", required=True)
    one = sub.add_parser("command", help="run one command of a workload")
    one.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    one.add_argument("--label", required=True, help="command label within the workload")
    one.add_argument("--out", type=Path, required=True, help="scratch directory")
    one.add_argument("--spans", type=Path, help="trace, and write the spans here")
    micro = sub.add_parser("micro", help="run the microcases")
    for p in (one, micro):
        p.add_argument("--seed", type=int, required=True)
    args = ap.parse_args()
    seed = args.seed % workloads.SEED_MODULUS

    if args.mode == "micro":
        metrics = simulate_microcases(seed)
        metrics.update(hierarchy_microcases())
        print(json.dumps({"metrics": metrics}))
        return

    (cmd,) = [c for c in workloads.commands(args.workload, seed) if c.label == args.label]
    args.out.mkdir(parents=True, exist_ok=True)
    tracer = Tracer() if args.spans else None
    wall, problems = run_command(cmd, args.out, workloads.load_reference(), tracer)
    result = {"wall_s": wall, "problems": problems}
    if tracer is not None:
        tracer.save(args.spans)
        result["problems"] += [f"missing span target {n}" for n in sorted(tracer.missing)]
        result["spans"] = tracer.summary()
    print(json.dumps(result))


if __name__ == "__main__":
    main()
