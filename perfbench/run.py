#!/usr/bin/env python3
"""Benchmark of the coupledbd command line, end to end and layer by layer.

    python3 perfbench/run.py --workload {sampler,hierarchy,averaging}
                             --seed N --seconds S --trace {0,1}

Run from anywhere inside a source checkout: the package is imported from
``src/`` next to this directory, never from an installed copy.

Load model: a closed loop with one client.  Each CLI command runs in its
own fresh interpreter, one after another, with BLAS and OpenMP pinned to one
thread; a pass is the workload's command list, and passes repeat until
``--seconds`` have elapsed (at least one pass).  Every command's outputs go
to a temporary directory inside the checkout through ``--out`` and are
checked (see workloads.py); a command fails if it exits non-zero or fails
its check.

--trace 0 reports the end-to-end metrics: ``wall_s`` (median pass time),
``setup_s`` (median of several fresh-interpreter set-ups on the workload's
config), both scaled to a reference machine speed by the calibration
described at CAL_REF_S, and ``peak_rss_mb`` (largest resident set of a
command process).  Raw times, per-command times, events/s and the error
rate are printed above the result.

--trace 1 reports the per-layer metrics: every command of every workload
runs once traced, each in its own fresh interpreter (trace_run.py), so
each metric reads the same whichever workload was selected; the selected
workload's commands also run untraced for ``trace.overhead_frac``; the
microcases run in one more interpreter; ``cli.import_s`` and
``config.load_s`` come from the set-up probes.  Span files go to
``.perfbench/spans-<workload>/`` in the checkout.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Metric names and
units come from BENCHMARK.json at the checkout root.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# Every run must end well within 180 s; nothing new starts past this point.
RUN_LIMIT_S = 170.0
SETUP_STARTS = 3
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
CLI_LAUNCH = "import sys; from coupledbd.cli import main; sys.exit(main())"

# Machine-speed calibration.  Shared hosts switch between speed regimes
# (1.8x apart on the machine this was defined on) that last from under a
# second to tens of seconds, so raw times of identical runs differ by up
# to 40%.  A fixed
# kernel runs in a fresh interpreter before and after the set-up probes and
# after every pass; gated times are scaled by CAL_REF_S over the mean of
# these chunk times, CAL_REF_S being the chunk time on that machine when
# uncontended.  The kernel uses only builtins (-S), so no change to
# coupledbd or its dependencies can move it.
CAL_REF_S = 0.0042
CAL_KERNEL = """
import time
def chunk():
    acc = 0.0
    table = {}
    for i in range(20000):
        x = (i * 0.618033988749895) % 1.0
        acc += x * x - acc * 1e-6
        table[i & 127] = (x, acc)
times = []
for _ in range(60):
    t0 = time.perf_counter()
    chunk()
    times.append(time.perf_counter() - t0)
print(sorted(times)[30])
"""


class Clock:
    """Seconds left before RUN_LIMIT_S, counted from process start."""

    def __init__(self):
        self.deadline = time.perf_counter() + RUN_LIMIT_S

    def left(self) -> float:
        return self.deadline - time.perf_counter()


def child_env(tmp: Path) -> dict:
    env = dict(os.environ)
    env.update({v: "1" for v in THREAD_VARS})
    env["PYTHONPATH"] = str(SRC)
    env["TMPDIR"] = str(tmp)
    return env


def run_process(argv, env, log_path: Path, timeout: float):
    """Run one child to completion, killing it at the timeout.

    Returns (exit code, wall seconds, peak RSS in MB).  The child is first
    waited for without being reaped (WNOWAIT), so the timer can never
    signal a reused pid; wait4 then reaps it and gives its own usage.
    """
    with open(log_path, "wb") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdout=log,
                                stderr=subprocess.STDOUT)
    lock = threading.Lock()
    exited = False

    def kill_if_running():
        with lock:
            if not exited:
                os.kill(proc.pid, signal.SIGKILL)

    timer = threading.Timer(max(timeout, 0.0), kill_if_running)
    timer.start()
    try:
        os.waitid(os.P_PID, proc.pid, os.WEXITED | os.WNOWAIT)
        wall = time.perf_counter() - start
        with lock:
            exited = True
    except BaseException:
        with lock:
            exited = True
            os.kill(proc.pid, signal.SIGKILL)
        raise
    finally:
        timer.cancel()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024.0


def calibrate(env, tmp: Path, clock: Clock) -> float:
    """Median chunk time of the calibration kernel in a fresh interpreter."""
    log = tmp / "calibration.log"
    code, _, _ = run_process([sys.executable, "-S", "-c", CAL_KERNEL], env, log, clock.left())
    if code != 0:
        raise RuntimeError(f"calibration kernel failed (exit {code})")
    return float(log.read_text().split()[-1])


def last_json_line(path: Path):
    lines = [ln for ln in path.read_text(errors="replace").splitlines() if ln.strip()]
    if not lines:
        return None
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError:
        return None


def tail_summary(samples) -> str:
    """Median plus the highest percentile with at least ten samples beyond it."""
    n = len(samples)
    med = statistics.median(samples)
    if n < 11:
        return f"median {med:.6g} (n={n}; no percentile has 10 samples beyond it)"
    return (f"median {med:.6g}, p{100 * (n - 10) // n} {sorted(samples)[n - 11]:.6g} "
            f"(n={n})")


# ---------------------------------------------------------------------------
# set-up probes

def setup_probes(cfg_path: Path, env, tmp: Path, clock: Clock):
    """Fresh interpreters running probe.py; returns (walls, reports)."""
    walls, reports = [], []
    for i in range(SETUP_STARTS):
        log = tmp / f"probe-{i}.log"
        code, wall, _ = run_process([sys.executable, str(HERE / "probe.py"), str(cfg_path)],
                                    env, log, clock.left())
        rep = last_json_line(log) if code == 0 else None
        if rep is None:
            raise RuntimeError(f"set-up probe failed (exit {code}):\n{log.read_text()[-2000:]}")
        if Path(rep["module"]).resolve() != (SRC / "coupledbd" / "cli.py").resolve():
            raise RuntimeError(f"imported coupledbd from {rep['module']}, not {SRC}")
        walls.append(wall)
        reports.append(rep)
    return walls, reports


def environment_record(seed: int, probe: dict) -> dict:
    commit = "unavailable (not a git checkout)"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                                    capture_output=True, timeout=10).stdout.strip()
        except (OSError, subprocess.SubprocessError) as e:
            commit = f"unavailable ({e})"
    return {
        "cores": os.cpu_count(),
        "cores_usable": len(os.sched_getaffinity(0)),
        "python": probe["python"],
        "numpy": probe["numpy"],
        "scipy": probe["scipy"],
        "blas": probe["blas"],
        "thread_env": {v: "1" for v in THREAD_VARS},
        "platform": platform.platform(),
        "commit": commit,
        "seed": seed,
    }


# ---------------------------------------------------------------------------
# traced run

def trace_child(argv, env, tmp: Path, clock: Clock, tag: str) -> dict:
    """Run trace_run.py with argv; returns its JSON result."""
    log = tmp / f"trace-{tag}.log"
    code, _, _ = run_process([sys.executable, str(HERE / "trace_run.py")] + argv,
                             env, log, clock.left())
    res = last_json_line(log) if code == 0 else None
    if res is None:
        raise RuntimeError(f"traced child {tag} failed (exit {code}):\n"
                           + log.read_text(errors="replace")[-4000:])
    return res


def traced_run(workload: str, seed: int, env, tmp: Path, clock: Clock):
    """Every workload's commands traced, the selected one's also untraced,
    then the microcases; returns (metrics, attempted, failed, problems)."""
    span_dir = ROOT / ".perfbench" / f"spans-{workload}"
    shutil.rmtree(span_dir, ignore_errors=True)
    span_dir.mkdir(parents=True)
    traced = []        # (workload, command name, span summary)
    walls = {"untraced": 0.0, "traced": 0.0}
    attempted, failed, problems = 0, 0, []
    for w in [workload] + [w for w in workloads.WORKLOADS if w != workload]:
        for c in workloads.commands(w, seed):
            for mode in (("untraced", "traced") if w == workload else ("traced",)):
                tag = f"{mode}-{w}-{c.label}"
                argv = ["command", "--workload", w, "--seed", str(seed),
                        "--label", c.label, "--out", str(tmp / tag)]
                if mode == "traced":
                    argv += ["--spans", str(span_dir / f"{w}-{c.label}.npz")]
                res = trace_child(argv, env, tmp, clock, tag)
                attempted += 1
                failed += bool(res["problems"])
                problems += res["problems"]
                if w == workload:
                    walls[mode] += res["wall_s"]
                if mode == "traced":
                    traced.append((w, c.name, res["spans"]))
    print(f"{workload} commands in-process: untraced {walls['untraced']:.3f} s, "
          f"traced {walls['traced']:.3f} s")
    metrics = trace_child(["micro", "--seed", str(seed)], env, tmp, clock, "micro")["metrics"]
    metrics.update(layer_metrics(traced))
    metrics["trace.overhead_frac"] = walls["traced"] / walls["untraced"] - 1.0
    return metrics, attempted, failed, problems


def layer_metrics(traced) -> dict:
    """Per-layer metrics from the span summaries of the traced commands."""
    def summaries(workload, command):
        return [s for w, c, s in traced if w == workload and (command is None or c == command)]

    def column(col, name, workload, command=None):
        return sum(s["totals"].get(name, (0.0, 0, 0.0))[col]
                   for s in summaries(workload, command))

    def total(name, workload, command=None) -> float:
        return column(0, name, workload, command)

    def calls(name, workload, command=None) -> int:
        return column(1, name, workload, command)

    def notes(name, workload, command=None):
        """(duration, note) of each matching span."""
        return [dn for s in summaries(workload, command) for dn in s["notes"].get(name, [])]

    out = {}
    sims = notes("simulate.simulate", "sampler")
    events = sum(n["events"] for _, n in sims)
    virtual = sum(n["virtual"] for _, n in sims)
    out["simulate.events"] = events
    out["simulate.virtual_events"] = virtual
    out["simulate.accept_ratio"] = (events - virtual) / events if events else 0.0
    out["simulate.self_s"] = column(2, "simulate.simulate", "averaging", "averaging")

    for key in ("birth_proposal", "death_vector"):
        out[f"models.{key}_s"] = total(f"models.{key}", "sampler")
        out[f"models.{key}.calls"] = calls(f"models.{key}", "sampler")
    out["models.sample_candidate_s"] = total("models.sample_candidate", "sampler")

    out["geometry.config_update_s"] = total("geometry.config_update", "averaging", "averaging")
    out["geometry.config_update.calls"] = calls("geometry.config_update", "averaging", "averaging")

    solves = notes("hierarchy.ks_solve", "hierarchy", "invariant")
    out["hierarchy.ks_solve_s"] = total("hierarchy.ks_solve", "hierarchy")
    out["hierarchy.ks_solve.iterations"] = sum(n["iterations"] for _, n in solves)
    out["hierarchy.ks_solve.final_residual"] = solves[-1][1]["residual"] if solves else 0.0
    out["hierarchy.evolve_s"] = total("hierarchy.evolve", "hierarchy")
    n_apply = calls("hierarchy.l_delta_apply", "hierarchy")
    out["hierarchy.l_delta_apply.calls"] = n_apply
    out["hierarchy.l_delta_apply_ms"] = (
        1e3 * total("hierarchy.l_delta_apply", "hierarchy") / n_apply if n_apply else 0.0)
    out["hierarchy.build_stencils_s"] = total("hierarchy.build_stencils", "hierarchy")

    out["conditions.scan_s"] = total("conditions.scan", "averaging", "check")
    out["conditions.spot_check_s"] = total("conditions.spot_check", "averaging", "check")
    out["conditions.spot_check.rows"] = sum(
        n["rows"] for _, n in notes("conditions.spot_check", "averaging", "check"))

    ensembles = notes("experiments.replicate", "averaging", "averaging")
    out["experiments.averaged_ensemble_s"] = sum(d for d, n in ensembles if n["averaged"])
    for eps in workloads.AVERAGING_EPSILONS:
        out[f"experiments.coupled_ensemble_s.eps{eps:g}"] = sum(
            d for d, n in ensembles if not n["averaged"] and n["epsilon"] == eps)
    out["experiments.ks_solve_s"] = total("experiments.ks_solve", "averaging", "averaging")
    return out


# ---------------------------------------------------------------------------
# untraced workload loop

def run_workload(workload: str, seed: int, seconds: float, env, tmp: Path,
                 clock: Clock, reference: dict):
    cmds = workloads.commands(workload, seed)
    cfg_paths = {}
    for c in cmds:
        cfg_paths[c.label] = tmp / f"{c.label}.json"
        cfg_paths[c.label].write_text(json.dumps(c.config))

    cals = []          # calibration after each pass
    passes = []        # per pass: {command name: wall summed over the pass}
    events = []        # per pass: total events (simulate commands only)
    rss, attempted, failed, problems = 0.0, 0, 0, []
    loop_start = time.perf_counter()
    while True:
        i = len(passes)
        walls: dict[str, float] = {}
        n_events = 0
        for c in cmds:
            out = tmp / f"pass{i}-{c.label}"
            argv = [sys.executable, "-c", CLI_LAUNCH] + c.argv(str(cfg_paths[c.label]), str(out))
            code, wall, peak = run_process(argv, env, tmp / f"pass{i}-{c.label}.log",
                                           clock.left())
            found = workloads.check_output(c, out, code, reference)
            attempted += 1
            failed += bool(found)
            problems += found
            rss = max(rss, peak)
            walls[c.name] = walls.get(c.name, 0.0) + wall
            if c.name == "simulate" and code == 0 and (out / "events.json").exists():
                n_events += json.loads((out / "events.json").read_text())["total_events"]
            shutil.rmtree(out, ignore_errors=True)
        passes.append(walls)
        events.append(n_events)
        cals.append(calibrate(env, tmp, clock))
        pass_wall = sum(walls.values())
        if time.perf_counter() - loop_start >= seconds or pass_wall > clock.left():
            break
    return passes, events, cals, rss, attempted, failed, problems


def main() -> int:
    ap = argparse.ArgumentParser(description="coupledbd benchmark")
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    clock = Clock()

    if not (SRC / "coupledbd" / "cli.py").is_file():
        print(f"coupledbd sources not found under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"]
             for m in spec["per_layer" if args.trace else "end_to_end"]}
    reference = workloads.load_reference()

    tmp = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        env = child_env(tmp)
        cmds = workloads.commands(args.workload, args.seed)
        probe_cfg = tmp / "probe-config.json"
        probe_cfg.write_text(json.dumps(cmds[0].config))
        cal_start = calibrate(env, tmp, clock)
        setup_walls, reports = setup_probes(probe_cfg, env, tmp, clock)
        cal_setup = calibrate(env, tmp, clock)
        print("environment: " + json.dumps(environment_record(args.seed, reports[0])))

        if args.trace:
            metrics, attempted, failed, problems = traced_run(
                args.workload, args.seed, env, tmp, clock)
            metrics["cli.import_s"] = statistics.median(r["import_s"] for r in reports)
            metrics["config.load_s"] = statistics.median(r["load_s"] for r in reports)
        else:
            passes, events, cals, rss, attempted, failed, problems = run_workload(
                args.workload, args.seed, args.seconds, env, tmp, clock, reference)
            pass_walls = [sum(p.values()) for p in passes]
            cals = [cal_start, cal_setup] + cals
            speed = CAL_REF_S / statistics.fmean(cals)
            print("calibration chunk ms (reference %.4g): %s; speed factor %.4f" % (
                1e3 * CAL_REF_S, " ".join(f"{1e3 * c:.4g}" for c in cals), speed))
            print("raw times as measured:")
            print(f"wall_s: {tail_summary(pass_walls)} s; passes "
                  + " ".join(f"{w:.3f}" for w in pass_walls))
            print(f"setup_s: {tail_summary(setup_walls)} s")
            for name in passes[0]:
                print(f"{name}_s: {tail_summary([p[name] for p in passes])} s")
            if args.workload == "sampler":
                eps = [e / p["simulate"] for e, p in zip(events, passes)]
                print(f"events_per_s: {tail_summary(eps)} 1/s")
            print(f"peak_rss_mb: {rss:.6g} MB")
            print(f"error_rate: {failed / attempted:.6g} ({failed} of {attempted} command runs)")
            metrics = {"wall_s": statistics.median(pass_walls) * speed,
                       "setup_s": statistics.median(setup_walls) * speed,
                       "peak_rss_mb": rss}
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    for p in problems:
        print(f"problem: {p}")
    if set(metrics) != set(units):
        print(f"metrics {sorted(set(metrics) ^ set(units))} do not match BENCHMARK.json",
              file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": float(metrics[k]), "unit": units[k]} for k in units},
    }))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except RuntimeError as e:
        print(f"benchmark error: {e}", file=sys.stderr)
        sys.exit(1)
