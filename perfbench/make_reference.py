"""Regenerate reference.json, the values the benchmark checks outputs against.

    python3 perfbench/make_reference.py

Sampler: each variant's ``simulate`` command runs ``REFERENCE_RUNS`` times
with seeds ``REFERENCE_SEED_BASE + REFERENCE_SEED_STEP * k``.  The step
keeps the runs independent: replica streams are keyed ``seed ^ replica``,
so nearby seeds would share them.  The mean and standard deviation over
those runs of each checked statistic (final and time-averaged density of
both components, number of real jumps) form the reference law.  The band
a statistic must fall in is a prediction interval for one new run: Student
t with ``REFERENCE_RUNS - 1`` degrees of freedom at a two-sided level of
``SAMPLER_FALSE_ALARM`` shared out over every checked statistic of a
benchmark run (Bonferroni), times ``sd * sqrt(1 + 1 / REFERENCE_RUNS)``.
Hierarchy: the ``invariant`` and ``evolve`` densities, which are
deterministic.  Run it only on a commit whose sampler is trusted to be
exact, since later commits are checked against it.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import statistics
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = "1"

from scipy.stats import t as student_t  # noqa: E402

import workloads  # noqa: E402
from coupledbd.cli import main as cli_main  # noqa: E402

REFERENCE_RUNS = 100
REFERENCE_SEED_BASE = 1_000_000
REFERENCE_SEED_STEP = 1_000
# Chance that a correct program fails the sampler check in one benchmark run.
SAMPLER_FALSE_ALARM = 1e-4


def run_cli(argv) -> None:
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli_main(argv)
    if code != 0:
        raise SystemExit(f"{' '.join(argv)} exited {code}")


def main() -> None:
    n_tests = len(workloads.VARIANTS) * len(workloads.SAMPLER_STATS)
    band = student_t.ppf(1.0 - SAMPLER_FALSE_ALARM / (2 * n_tests), REFERENCE_RUNS - 1)
    ref = {"sampler": {"runs": REFERENCE_RUNS, "false_alarm": SAMPLER_FALSE_ALARM,
                       "band_sd": float(band), "variants": {}},
           "hierarchy": {}}
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=HERE.parent) as tmp:
        tmp = Path(tmp)
        for variant in workloads.VARIANTS:
            samples = {name: [] for name in workloads.SAMPLER_STATS}
            for k in range(REFERENCE_RUNS):
                seed = REFERENCE_SEED_BASE + REFERENCE_SEED_STEP * k
                cfg = tmp / "cfg.json"
                cfg.write_text(json.dumps(workloads.sampler_config(variant, seed)))
                out = tmp / f"{variant}-{k}"
                run_cli(["simulate", str(cfg), "--out", str(out), "--seed", str(seed)])
                for name, value in workloads.sampler_stats(out).items():
                    samples[name].append(value)
            ref["sampler"]["variants"][variant] = {
                name: {"mean": statistics.fmean(v), "sd": statistics.stdev(v)}
                for name, v in samples.items()}
            print(variant, json.dumps(ref["sampler"]["variants"][variant]), flush=True)

        cfg = tmp / "hierarchy.json"
        cfg.write_text(json.dumps(workloads.HIERARCHY_CONFIG))
        run_cli(["invariant", str(cfg), "--out", str(tmp / "inv")])
        run_cli(["evolve", str(cfg), "--out", str(tmp / "evo")])
        inv = json.loads((tmp / "inv" / "summary.json").read_text())
        evo = json.loads((tmp / "evo" / "summary.json").read_text())
        ref["hierarchy"] = {"invariant_density": inv["density"],
                            "evolve_final_density": evo["final_density"]}

    workloads.REFERENCE_PATH.write_text(json.dumps(ref, indent=2, sort_keys=True) + "\n")
    print(f"wrote {workloads.REFERENCE_PATH}")


if __name__ == "__main__":
    main()
