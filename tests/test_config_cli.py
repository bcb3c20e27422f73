"""Configuration schema, object construction, and the CLI end to end."""

import json
import os
import re
import subprocess
import sys
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coupledbd import cli
from coupledbd.cli import main
from coupledbd.config import (
    _PARAMS,
    CONFIG_SCHEMA,
    SEED_MAX,
    _variant_schema,
    config_hash,
    load_config,
    model_from_config,
    potential_from_config,
    resolve_config,
    torus_from_config,
    validate_config,
)
from coupledbd.errors import ConfigError, EvaluationError
from coupledbd.hierarchy import component_form, evolve_hierarchy
from coupledbd.models import BdlpInGlauber, BranchingInGlauber, GlauberGlauber, TwoBdlp
from coupledbd.tables import CorrelationTable, GridSpec


def _step(height, cutoff):
    return {"kind": "step", "height": height, "cutoff": cutoff}


def _gg_config(**check):
    cfg = {
        "model": {
            "variant": "glauber_glauber",
            "params": {
                "z_minus": 0.3, "z_plus": 0.3,
                "psi": _step(0.5, 1.0),
                "phi_minus": _step(0.5, 1.0),
                "phi_plus": _step(0.5, 1.0),
            },
        },
        "torus": {"side": 10.0, "dim": 1},
    }
    if check:
        cfg["check"] = check
    return cfg


def _bdlp_config():
    # the parameters of conftest.bdlp_model
    return {
        "model": {"variant": "bdlp_in_glauber", "params": {
            "z_minus": 0.3, "m_plus": 1.0, "psi": _step(0.5, 1.0),
            "a_minus": _step(0.6, 0.5), "a_plus": _step(0.5, 0.5),
            "b_minus": _step(0.4, 0.5), "b_plus": _step(0.3, 0.5)}},
        "torus": {"side": 10.0, "dim": 1},
    }


def _write(tmp_path, cfg, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def test_validate_accepts_a_complete_config():
    cfg = _gg_config(c_minus=0.5, c_plus=1.0)
    assert validate_config(cfg) is cfg


def test_validate_rejects_unknown_keys_and_variants():
    cfg = _gg_config()
    cfg["extra"] = 1
    with pytest.raises(ConfigError):
        validate_config(cfg)
    cfg = _gg_config()
    cfg["model"]["params"]["z_wrong"] = 1.0
    with pytest.raises(ConfigError):
        validate_config(cfg)
    cfg = _gg_config()
    cfg["model"]["variant"] = "unknown"
    with pytest.raises(ConfigError):
        validate_config(cfg)


def test_validate_rejects_out_of_range_values():
    cfg = _gg_config()
    cfg["model"]["params"]["z_minus"] = -0.1
    with pytest.raises(ConfigError):
        validate_config(cfg)
    cfg = _gg_config()
    cfg["torus"]["dim"] = 4
    with pytest.raises(ConfigError):
        validate_config(cfg)
    cfg = _gg_config()
    del cfg["torus"]
    with pytest.raises(ConfigError):
        validate_config(cfg)


_NON_FINITE = [
    ("simulate.t_end", float("nan")),
    ("simulate.t_end", float("inf")),
    ("model.params.z_minus", float("nan")),
    ("model.params.z_minus", float("inf")),
    ("averaging.epsilons[1]", float("inf")),
]


def _with_non_finite(key, value):
    # json.dumps writes NaN and Infinity, which json.load reads back
    cfg = _gg_config()
    cfg["simulate"] = {"t_end": 1.0, "n_replicas": 1, "n_times": 3,
                       "sys_density": 0.3, "env_density": 0.3, "seed": 5,
                       "max_events": 2000}
    cfg["averaging"] = {"epsilons": [1.0, 0.5], "n_replicas": 2, "t_end": 1.0,
                        "sys_density": 0.3}
    *parents, leaf = [int(k) if k.isdigit() else k for k in re.findall(r"\w+", key)]
    node = cfg
    for name in parents:
        node = node[name]
    node[leaf] = value
    return cfg


@pytest.mark.parametrize("key, value", _NON_FINITE)
def test_load_config_rejects_non_finite_numbers(tmp_path, key, value):
    with pytest.raises(ConfigError, match=re.escape(key)):
        load_config(_write(tmp_path, _with_non_finite(key, value)))


@pytest.mark.parametrize("key, value", _NON_FINITE)
def test_cli_exits_2_on_non_finite_numbers(tmp_path, key, value):
    path = _write(tmp_path, _with_non_finite(key, value))
    assert main(["simulate", path, "--out", str(tmp_path / "out")]) == 2
    assert not (tmp_path / "out").exists()


def test_validate_names_the_dotted_path_of_the_offending_key():
    cfg = _gg_config()
    cfg["simulate"] = {"t_end": -1.0}
    with pytest.raises(ConfigError, match=r"simulate\.t_end"):
        validate_config(cfg)
    cfg = _gg_config()
    cfg["model"]["params"]["psi"]["radii"] = [0.0]
    with pytest.raises(ConfigError, match=r"model\.params\.psi\.radii"):
        validate_config(cfg)
    cfg = _gg_config()
    del cfg["model"]["params"]["z_plus"]
    with pytest.raises(ConfigError, match=r"model\.params\.z_plus"):
        validate_config(cfg)


def test_potential_from_config_covers_all_kinds():
    assert potential_from_config(None).is_zero
    assert potential_from_config({"kind": "zero"}).is_zero
    p = potential_from_config(_step(0.5, 1.0))
    assert p.kind == "step" and p.cutoff == 1.0
    e = potential_from_config({"kind": "exponential", "amplitude": 1.0,
                               "decay": 2.0, "cutoff": 1.5})
    assert e.kind == "exponential"
    t = potential_from_config({"kind": "table", "radii": [0.0, 1.0, 2.0],
                               "values": [1.0, 0.5, 0.0]})
    assert t.kind == "table"
    with pytest.raises(ConfigError):
        potential_from_config({"kind": "step", "cutoff": 1.0})
    with pytest.raises(ConfigError):
        potential_from_config({"kind": "step", "height": -1.0, "cutoff": 1.0})


def test_model_from_config_builds_every_variant():
    m = model_from_config(_gg_config())
    assert isinstance(m, GlauberGlauber) and m.z_minus == 0.3
    b = model_from_config(_bdlp_config())
    assert isinstance(b, BdlpInGlauber) and b.a_minus.kind == "step"
    r = model_from_config({
        "model": {"variant": "branching_in_glauber", "params": {
            "z_minus": 0.3, "m_plus": 2.0, "psi": _step(0.5, 1.0),
            "kappa": _step(0.2, 0.5), "phi": _step(0.1, 0.5),
            "a_plus": _step(0.1, 0.5)}},
        "torus": {"side": 10.0, "dim": 1}})
    assert isinstance(r, BranchingInGlauber)
    t = model_from_config({
        "model": {"variant": "two_bdlp", "params": {
            "z": 0.5, "m_minus": 1.0, "m_plus": 1.0,
            "a_minus": _step(0.3, 0.5), "a_plus": _step(0.2, 0.5),
            "b_minus": _step(0.3, 0.5), "b_plus": _step(0.2, 0.5),
            "vphi_minus": _step(0.3, 0.5), "vphi_plus": _step(0.2, 0.5)}},
        "torus": {"side": 10.0, "dim": 1}})
    assert isinstance(t, TwoBdlp)
    # omitted potentials default to zero
    g = model_from_config({
        "model": {"variant": "glauber_glauber",
                  "params": {"z_minus": 0.5, "z_plus": 0.1}},
        "torus": {"side": 10.0, "dim": 1}})
    assert g.psi.is_zero and g.phi_plus.is_zero


def test_torus_from_config():
    t = torus_from_config(_gg_config())
    assert t.side == 10.0 and t.dim == 1


def test_config_hash_is_canonical():
    a = {"torus": {"side": 10.0, "dim": 1}, "model": {"variant": "x", "params": {}}}
    b = {"model": {"params": {}, "variant": "x"}, "torus": {"dim": 1, "side": 10.0}}
    assert config_hash(a) == config_hash(b)
    assert len(config_hash(a)) == 16
    b["torus"]["side"] = 9.0
    assert config_hash(a) != config_hash(b)


def test_load_config_error_paths(tmp_path):
    with pytest.raises(ConfigError):
        load_config(str(tmp_path / "missing.json"))
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ConfigError):
        load_config(str(bad))


# ---------------------------------------------------------------------------
# CLI end to end

def test_cli_check_feasible(tmp_path):
    cfg = _gg_config(c_minus=0.5, c_plus=1.0)
    out = tmp_path / "out"
    code = main(["check", _write(tmp_path, cfg), "--out", str(out)])
    assert code == 0
    report = json.loads((out / "report.json").read_text())
    assert report["feasible"] is True
    assert report["environment"]["a"] < 2.0
    man = json.loads((out / "manifest.json").read_text())
    assert man["command"] == "check"
    assert man["config_hash"] == config_hash(cfg)
    assert "report.json" in man["outputs"]


def test_cli_check_infeasible_weights_exit3(tmp_path):
    cfg = _gg_config(c_minus=3.0, c_plus=3.0)
    out = tmp_path / "out"
    code = main(["check", _write(tmp_path, cfg), "--out", str(out)])
    assert code == 3
    report = json.loads((out / "report.json").read_text())
    assert report["feasible"] is False


def test_cli_check_scan_with_no_feasible_regime_exit3(tmp_path):
    cfg = _gg_config(scan=True)
    cfg["model"]["params"]["z_minus"] = 50.0
    cfg["model"]["params"]["z_plus"] = 50.0
    out = tmp_path / "out"
    code = main(["check", _write(tmp_path, cfg), "--out", str(out)])
    assert code == 3
    assert (out / "scan.csv").exists()
    man = json.loads((out / "manifest.json").read_text())
    assert man["summary"]["feasible"] is False


def test_cli_rejects_broken_configs(tmp_path):
    missing = str(tmp_path / "none.json")
    assert main(["check", missing, "--out", str(tmp_path / "o1")]) == 2
    bad_schema = _gg_config()
    bad_schema["torus"]["dim"] = 9
    assert main(["check", _write(tmp_path, bad_schema, "a.json"),
                 "--out", str(tmp_path / "o2")]) == 2
    # interaction range exceeding half the torus side
    too_small = _gg_config(c_minus=0.5, c_plus=1.0)
    too_small["torus"]["side"] = 1.5
    assert main(["check", _write(tmp_path, too_small, "b.json"),
                 "--out", str(tmp_path / "o3")]) == 2


def test_cli_maps_evaluation_errors_to_the_runtime_exit(tmp_path, monkeypatch):
    # EvaluationError subclasses ValueError but is a runtime failure (exit 4)
    def broken(*args):
        raise EvaluationError("acceptance 1.5 exceeds 1; dominating bound is wrong")

    monkeypatch.setitem(cli._COMMANDS, "simulate", broken)
    code = main(["simulate", _write(tmp_path, _gg_config()),
                 "--out", str(tmp_path / "out")])
    assert code == 4


def test_cli_maps_non_finite_rates_to_the_runtime_exit(tmp_path):
    # exp(800) overflows for any two system points closer than 1
    cfg = {
        "model": {"variant": "branching_in_glauber", "params": {
            "z_minus": 0.3, "m_plus": 1.0, "kappa": _step(800.0, 1.0)}},
        "torus": {"side": 10.0, "dim": 1},
        "simulate": {"t_end": 1.0, "n_replicas": 1, "n_times": 3,
                     "sys_density": 2.0, "env_density": 0.3, "seed": 5},
    }
    with np.errstate(over="ignore"):
        code = main(["simulate", _write(tmp_path, cfg), "--out", str(tmp_path / "out")])
    assert code == 4


def _branching_check_config(kappa_height):
    return {
        "model": {"variant": "branching_in_glauber", "params": {
            "z_minus": 0.3, "m_plus": 2.0, "psi": _step(0.5, 1.0),
            "kappa": _step(kappa_height, 0.5), "phi": _step(0.1, 0.5),
            "a_plus": _step(0.1, 0.5)}},
        "torus": {"side": 10.0, "dim": 1},
        "check": {"c_minus": 1.0, "c_plus": 1.0, "spot_check": {"samples": 100}},
    }


def test_cli_check_reports_an_overflowing_death_energy_as_infeasible(tmp_path, capsys):
    # c_plus * beta_neg(kappa) is about 2.2e4, past the range of math.exp
    out = tmp_path / "out"
    code = main(["check", _write(tmp_path, _branching_check_config(10.0)), "--out", str(out)])
    assert code == 3
    assert "spot check: ok (14 rows, 0 violations, 8 unchecked)" in capsys.readouterr().out

    def no_constant(token):
        raise AssertionError(f"an artifact holds the non-JSON token {token}")

    for path in out.glob("*.json"):
        json.loads(path.read_text(), parse_constant=no_constant)
    report = json.loads((out / "report.json").read_text())
    assert report["system"]["feasible"] is False
    assert report["system"]["a"] == "inf"
    assert report["spot_check"]["ok"] is True
    # no system row has a finite bound to check against
    rows = report["spot_check"]["rows"]
    assert [r["ok_inequality"] for r in rows if r["component"] == "system"] == [None] * 8


def test_cli_check_maps_a_non_finite_spot_check_integrand_to_the_runtime_exit(tmp_path):
    # exp(800) overflows in the integrand of the Monte Carlo system mass
    with np.errstate(over="ignore"):
        code = main(["check", _write(tmp_path, _branching_check_config(800.0)),
                     "--out", str(tmp_path / "out")])
    assert code == 4


def test_cli_invariant_writes_summary_and_correlations(tmp_path):
    cfg = _gg_config()
    cfg["invariant"] = {"grid_points": 32, "order": 2}
    out = tmp_path / "out"
    code = main(["invariant", _write(tmp_path, cfg), "--out", str(out)])
    assert code == 0
    summ = json.loads((out / "summary.json").read_text())
    assert summ["converged"] is True
    assert summ["positivity_ok"] is True
    assert 0.0 < summ["density"] < 0.3
    assert "min_pairing" in summ and "symmetry_defect" in summ
    lines = (out / "correlations.csv").read_text().strip().splitlines()
    assert lines[0] == "r,pair_correlation"
    assert len(lines) > 2


def test_cli_invariant_of_the_averaged_additive_system_at_order3(tmp_path):
    cfg = _bdlp_config()
    cfg["invariant"] = {"component": "averaged", "order": 3, "grid_points": 64}
    out = tmp_path / "out"
    code = main(["invariant", _write(tmp_path, cfg), "--out", str(out)])
    assert code == 0
    summ = json.loads((out / "summary.json").read_text())
    assert summ["converged"] is True


def test_cli_evolve_writes_a_trajectory(tmp_path):
    cfg = _gg_config()
    cfg["evolve"] = {"t_final": 0.5, "dt": 0.01, "grid_points": 32,
                     "order": 1, "initial_density": 2.0}
    out = tmp_path / "out"
    code = main(["evolve", _write(tmp_path, cfg), "--out", str(out)])
    assert code == 0
    lines = (out / "trajectory.csv").read_text().strip().splitlines()
    assert lines[0] == "t,density"
    first = [float(v) for v in lines[1].split(",")]
    last = [float(v) for v in lines[-1].split(",")]
    assert first[0] == 0.0 and first[1] == pytest.approx(2.0)
    assert last[0] == pytest.approx(0.5)
    # density relaxes downward toward the invariant value
    assert last[1] < 2.0
    summ = json.loads((out / "summary.json").read_text())
    assert summ["final_density"] == pytest.approx(last[1], rel=1e-9)


def test_cli_evolve_ends_at_a_t_final_the_step_does_not_divide(tmp_path):
    cfg = _gg_config()
    cfg["evolve"] = {"t_final": 0.123, "grid_points": 32, "order": 1}
    out = tmp_path / "out"
    assert main(["evolve", _write(tmp_path, cfg), "--out", str(out)]) == 0
    last = (out / "trajectory.csv").read_text().strip().splitlines()[-1]
    assert float(last.split(",")[0]) == 0.123
    assert json.loads((out / "summary.json").read_text())["t_final"] == 0.123


def _evolve_and_expect(tmp_path, cfg, component):
    """Run `evolve` on cfg; (its trajectory.csv, the same file written from
    evolve_hierarchy at the section's order, the orders the CLI integrated)."""
    orders = []
    real = cli.evolve_hierarchy

    def spy(initial, *args, **kwargs):
        orders.append(initial.order)
        return real(initial, *args, **kwargs)

    out = tmp_path / "out"
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cli, "evolve_hierarchy", spy)
        assert main(["evolve", _write(tmp_path, cfg), "--out", str(out)]) == 0
    run = resolve_config(cfg)
    section = run["evolve"]
    grid = GridSpec(torus=torus_from_config(run), points_per_axis=section["grid_points"])
    traj = evolve_hierarchy(CorrelationTable.poisson(grid, section["order"], section["initial_density"]),
                            component_form(model_from_config(run), component),
                            section["t_final"], dt=section["dt"],
                            record_every=section["record_every"])
    cli._write_csv(str(tmp_path / "want.csv"), ["t", "density"], zip(traj.times, traj.density))
    return ((out / "trajectory.csv").read_bytes(), (tmp_path / "want.csv").read_bytes(),
            orders)


def _hierarchy_config(variant, params, dim, side, grid_points):
    return {"model": {"variant": variant, "params": params},
            "torus": {"dim": dim, "side": side},
            "evolve": {"grid_points": grid_points, "order": 3, "t_final": 0.5,
                       "dt": 0.05, "record_every": 1}}


# Constant-death environments: the hierarchy benchmark's 2D one, a strong 1D
# step and a 1D exponential psi.
@pytest.mark.parametrize("params,dim,side,grid_points", [
    ({"z_minus": 0.5, "psi": _step(0.5, 1.0), "z_plus": 0.3}, 2, 4.0, 16),
    ({"z_minus": 1.5, "psi": _step(3.0, 1.0), "z_plus": 0.3}, 1, 10.0, 64),
    ({"z_minus": 0.8, "z_plus": 0.3,
      "psi": {"kind": "exponential", "amplitude": 1.0, "decay": 0.5, "cutoff": 2.0}}, 1, 10.0, 64),
])
def test_cli_evolve_of_a_constant_death_form_writes_the_configured_order_trajectory(
        tmp_path, params, dim, side, grid_points):
    cfg = _hierarchy_config("glauber_glauber", params, dim, side, grid_points)
    got, want, _ = _evolve_and_expect(tmp_path, cfg, "environment")
    assert got == want


def test_cli_evolve_of_a_constant_death_form_integrates_the_density_alone(tmp_path):
    cfg = _hierarchy_config("glauber_glauber", _gg_config()["model"]["params"], 1, 10.0, 32)
    got, want, orders = _evolve_and_expect(tmp_path, cfg, "environment")
    assert orders == [1]
    assert got == want


def test_cli_evolve_of_an_additive_death_form_integrates_the_configured_order(tmp_path):
    params = {"z": 0.5, "m_minus": 1.0, "m_plus": 1.0,
              "a_minus": _step(0.3, 1.0), "b_minus": _step(0.3, 1.0)}
    cfg = _hierarchy_config("two_bdlp", params, 1, 10.0, 32)
    got, want, orders = _evolve_and_expect(tmp_path, cfg, "environment")
    assert orders == [3]
    assert got == want


def test_cli_evolve_of_the_averaged_interacting_system_keeps_its_trajectory(tmp_path):
    # lambda-bar reads k2 and k3 of the environment, so the environment solve
    # under the averaged system keeps the section's order
    cfg = _hierarchy_config("glauber_glauber", _gg_config()["model"]["params"], 1, 10.0, 32)
    cfg["evolve"]["component"] = "averaged"
    out = tmp_path / "out"
    assert main(["evolve", _write(tmp_path, cfg), "--out", str(out)]) == 0
    rows = np.loadtxt(out / "trajectory.csv", delimiter=",", skiprows=1)
    np.testing.assert_array_equal(rows[:, 0], 0.05 * np.arange(11))
    np.testing.assert_allclose(rows[:, 1], [
        1.0, 0.9540135197143574, 0.9106922234285538, 0.8698816482285137,
        0.8314362832244216, 0.7952190507288501, 0.7611008175036311,
        0.7289599343328154, 0.6986818022800558, 0.670158464083899,
        0.6432882192340952], rtol=1e-12, atol=0.0)


def test_cli_simulate_artifacts_and_seed_override(tmp_path):
    cfg = _gg_config()
    cfg["simulate"] = {"t_end": 2.0, "n_replicas": 3, "n_times": 5,
                       "sys_density": 0.3, "env_density": 0.3, "seed": 5}
    path = _write(tmp_path, cfg)
    out1, out2, out3 = (tmp_path / n for n in ("o1", "o2", "o3"))
    assert main(["simulate", path, "--out", str(out1), "--seed", "99"]) == 0
    assert main(["simulate", path, "--out", str(out2), "--seed", "99"]) == 0
    assert main(["simulate", path, "--out", str(out3), "--seed", "100"]) == 0
    d1 = (out1 / "densities.csv").read_text()
    assert d1 == (out2 / "densities.csv").read_text()
    assert d1 != (out3 / "densities.csv").read_text()
    assert len(d1.strip().splitlines()) == 6
    ev = json.loads((out1 / "events.json").read_text())
    assert ev["n_replicas"] == 3 and ev["total_events"] > 0


def test_seed_overrides_default_to_their_own_run_directories(tmp_path, monkeypatch):
    # runs/simulate_{hash} used to hold the last of the two runs, its
    # manifest saying seed 2 and the first run's artifacts overwritten
    cfg = _gg_config()
    cfg["simulate"] = {"t_end": 1.0, "n_replicas": 2, "seed": 5}
    cfg["invariant"] = {"grid_points": 32, "order": 1}
    path = _write(tmp_path, cfg)
    monkeypatch.chdir(tmp_path)
    for seed in ("1", "2"):
        assert main(["simulate", path, "--seed", seed]) == 0
        assert main(["invariant", path, "--seed", seed]) == 0
    assert main(["simulate", path]) == 0
    h = config_hash(cfg)
    assert sorted(os.listdir("runs")) == [f"invariant_{h}", f"simulate_{h}",
                                          f"simulate_{h}_seed1", f"simulate_{h}_seed2"]
    for name, seed in ((f"simulate_{h}_seed1", 1), (f"simulate_{h}_seed2", 2),
                       (f"simulate_{h}", 5)):
        man = json.loads((tmp_path / "runs" / name / "manifest.json").read_text())
        assert man["config"]["simulate"]["seed"] == seed
        assert man["config_hash"] == h


@pytest.mark.parametrize("command, seed_at", [
    ("simulate", ("simulate",)),
    ("check", ("check", "spot_check")),
    ("invariant", None),
])
def test_the_manifest_writes_the_resolved_config_with_the_seed_override(
        tmp_path, command, seed_at):
    cfg = _gg_config(c_minus=0.5, c_plus=1.0, spot_check={"samples": 50})
    cfg["invariant"] = {"grid_points": 32, "order": 1}
    cfg["simulate"] = {"t_end": 1, "n_replicas": 2.0}
    out = tmp_path / "out"
    assert main([command, _write(tmp_path, cfg), "--out", str(out), "--seed", "99"]) == 0
    man = json.loads((out / "manifest.json").read_text())
    assert set(man) == {"command", "config_hash", "config", "package_version",
                        "created_utc", "outputs", "summary"}
    assert man["config_hash"] == config_hash(cfg)
    want = resolve_config(cfg)
    if seed_at is not None:
        section = want
        for key in seed_at:
            section = section[key]
        section["seed"] = 99
    assert man["config"] == want
    assert man["config"]["simulate"]["t_end"] == 1.0
    assert man["config"]["simulate"]["n_replicas"] == 2
    assert man["config"]["invariant"]["tol"] == 1e-12


def test_cli_simulate_reports_counts_per_component(tmp_path):
    cfg = _gg_config()
    cfg["simulate"] = {"t_end": 2.0, "n_replicas": 3, "n_times": 5,
                       "sys_density": 0.3, "env_density": 0.3, "seed": 5}
    out = tmp_path / "out"
    assert main(["simulate", _write(tmp_path, cfg), "--out", str(out)]) == 0
    ev = json.loads((out / "events.json").read_text())
    comps = ev["components"]
    assert set(comps) == {"system", "environment"}
    assert sum(sum(c.values()) for c in comps.values()) == ev["total_events"]
    assert sum(c["virtual"] for c in comps.values()) == ev["virtual_events"]
    assert comps["environment"]["births"] > 0 and ev["peak_population"] > 0
    env = comps["environment"]
    assert ev["acceptance"]["environment"] == env["births"] / (env["births"] + env["virtual"])
    assert ev["recomputes"] >= ev["n_replicas"]
    summary = json.loads((out / "manifest.json").read_text())["summary"]
    assert summary["components"] == comps
    assert summary["peak_population"] == ev["peak_population"]
    assert summary["acceptance"] == ev["acceptance"]
    assert summary["recomputes"] == ev["recomputes"]


def test_cli_ergodicity_fits_the_free_rate(tmp_path):
    cfg = {
        "model": {"variant": "glauber_glauber",
                  "params": {"z_minus": 0.5, "z_plus": 0.1}},
        "torus": {"side": 10.0, "dim": 1},
        "ergodicity": {"n_replicas": 150, "t_end": 4.0, "n_times": 17,
                       "initial_density": 1.5, "target_density": 0.5,
                       "seed": 1, "c_minus": 10.0},
    }
    out = tmp_path / "out"
    code = main(["ergodicity", _write(tmp_path, cfg), "--out", str(out)])
    assert code == 0
    fit = json.loads((out / "fit.json").read_text())
    assert fit["lambda_0"] == pytest.approx(0.95)
    assert abs(fit["rate"] - 1.0) < 0.2
    assert fit["rate_consistent_with_gap"] is True
    lines = (out / "gaps.csv").read_text().strip().splitlines()
    assert lines[0] == "t,gap,se" and len(lines) == 18


def test_cli_ergodicity_requires_its_section(tmp_path):
    cfg = _gg_config()
    assert main(["ergodicity", _write(tmp_path, cfg),
                 "--out", str(tmp_path / "o")]) == 2


@pytest.mark.parametrize("command", ["evolve", "simulate", "ergodicity", "averaging"])
def test_cli_exits_2_naming_the_section_a_command_needs_when_it_is_missing(
        tmp_path, capsys, command):
    # evolve and simulate used to read t_final and t_end from the absent
    # section and escape with a KeyError traceback (exit 1)
    code = main([command, _write(tmp_path, _gg_config()), "--out", str(tmp_path / "o")])
    assert code == 2
    assert f"configuration error: {command} section is required" in capsys.readouterr().err


def test_grids_too_large_for_a_table_exit_2_naming_grid_points(tmp_path):
    # The default grid_points (64 per axis) on a 3D torus is P = 262144 cells,
    # whose P x P difference index alone needs 1.5 TiB: numpy's MemoryError
    # used to escape as a traceback (exit 1).  The commands run in a fresh
    # interpreter under an address-space limit, so that a regression fails
    # here instead of asking the machine for that memory.
    cfg = _gg_config()
    cfg["torus"] = {"side": 4.0, "dim": 3}
    cfg["evolve"] = {"t_final": 0.1}
    cfg["ergodicity"] = {"n_replicas": 2, "t_end": 0.1, "initial_density": 0.0}
    cfg["averaging"] = {"n_replicas": 2, "t_end": 0.1, "sys_density": 0.1}
    commands = ["invariant", "evolve", "ergodicity", "averaging"]
    script = (
        "import resource\n"
        "resource.setrlimit(resource.RLIMIT_AS, (2 ** 32, 2 ** 32))\n"
        "from coupledbd.cli import main\n"
        f"for command in {commands!r}:\n"
        f"    print(main([command, {_write(tmp_path, cfg)!r}, '--out', {str(tmp_path)!r}]),"
        " flush=True)\n"
    )
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    out = subprocess.run([sys.executable, "-c", script], env=env,
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == ["2"] * len(commands)
    errors = out.stderr.strip().splitlines()
    assert len(errors) == len(commands)
    for line in errors:
        assert line.startswith("configuration error: grid_points 64")
        assert "262144 cells" in line


def test_cli_averaging_runs_a_small_sweep(tmp_path):
    cfg = _gg_config()
    cfg["averaging"] = {"epsilons": [1.0, 0.5], "n_replicas": 8,
                        "t_end": 2.0, "sys_density": 0.3, "n_times": 5,
                        "seed": 3, "grid_points": 32}
    out = tmp_path / "out"
    code = main(["averaging", _write(tmp_path, cfg), "--out", str(out)])
    assert code == 0
    res = json.loads((out / "result.json").read_text())
    assert res["epsilons"] == [1.0, 0.5]
    assert len(res["distances"]) == 2
    assert 0.0 < res["lambda_bar"] <= 1.0
    lines = (out / "densities.csv").read_text().strip().splitlines()
    assert lines[0] == "t,averaged_mean,averaged_se,eps1_mean,eps1_se,eps0.5_mean,eps0.5_se"
    assert len(lines) == 6
    assert (out / "distances.csv").exists()


def test_cli_averaging_exits_2_on_a_repeated_epsilon(tmp_path, capsys):
    # densities.csv used to write the second ensemble's columns twice while
    # distances.csv kept the first ensemble's gap
    cfg = _gg_config()
    cfg["averaging"] = {"epsilons": [0.5, 0.5], "n_replicas": 2, "t_end": 0.5,
                        "sys_density": 0.3, "n_times": 3, "seed": 3, "grid_points": 32}
    out = tmp_path / "out"
    assert main(["averaging", _write(tmp_path, cfg), "--out", str(out)]) == 2
    assert "configuration error: epsilons must be distinct" in capsys.readouterr().err
    assert not (out / "densities.csv").exists()


def test_cli_averaging_exits_2_when_the_truncated_expansion_turns_negative(tmp_path, capsys):
    # a dense environment: the order-3 expansion of lambda_bar is negative
    # and its tail bound overflows, which used to raise OverflowError
    cfg = _gg_config()
    cfg["model"]["params"].update(z_minus=400.0, psi={"kind": "zero"},
                                  phi_minus=_step(5.0, 1.0))
    cfg["averaging"] = {"epsilons": [1.0, 0.5], "n_replicas": 2, "t_end": 0.01,
                        "sys_density": 0.3, "n_times": 3}
    assert main(["averaging", _write(tmp_path, cfg), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert "lambda_bar" in err and "is negative (truncation tail bound inf)" in err


def _every_command_config():
    """A config small enough for all six commands; ergodicity derives its
    target density by a hierarchy solve and its bound from c_minus."""
    cfg = _gg_config(c_minus=0.5, c_plus=1.0)
    cfg["invariant"] = {"grid_points": 32, "order": 2}
    cfg["evolve"] = {"t_final": 0.1, "dt": 0.05, "grid_points": 32, "order": 3}
    cfg["simulate"] = {"t_end": 0.5, "n_replicas": 1, "n_times": 3, "seed": 5}
    cfg["ergodicity"] = {"n_replicas": 10, "t_end": 2.0, "n_times": 17,
                         "initial_density": 3.0, "grid_points": 32,
                         "c_minus": 0.5, "seed": 1}
    cfg["averaging"] = {"epsilons": [1.0, 0.5], "n_replicas": 2, "t_end": 0.5,
                        "sys_density": 0.3, "n_times": 3, "seed": 3,
                        "grid_points": 32}
    return cfg


# Modules a command must not import, because it runs none of them: the
# package's by their short names, others by their full names.  numpy.random
# costs a fresh interpreter 14-16 ms.
_MODULES_NOT_RUN = {
    "check": {"simulate", "hierarchy", "tables", "experiments"},
    "invariant": {"conditions", "simulate", "experiments", "numpy.random"},
    "evolve": {"conditions", "simulate", "experiments", "numpy.random"},
    "simulate": {"conditions", "hierarchy", "tables", "experiments"},
    "ergodicity": set(),
    "averaging": {"conditions"},
}


def _run_fresh(argv):
    """Run cli.main(argv) in a fresh interpreter; (exit code, the names in
    sys.modules afterwards)."""
    script = (
        "import sys\n"
        "from coupledbd.cli import main\n"
        f"code = main({argv!r})\n"
        "print(code, *sorted(sys.modules))\n"
    )
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    out = subprocess.run([sys.executable, "-c", script], env=env,
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    code, *modules = out.stdout.strip().splitlines()[-1].split()
    return code, set(modules), out.stderr


@pytest.mark.parametrize("command", sorted(_MODULES_NOT_RUN))
def test_each_command_runs_in_a_fresh_interpreter_without_the_modules_it_does_not_run(
        tmp_path, command):
    # A fresh interpreter sees a name the command never bound, which an
    # in-process run can miss when an earlier test bound it.
    code, modules, err = _run_fresh([command, _write(tmp_path, _every_command_config()),
                                     "--out", str(tmp_path / "out")])
    assert code == "0", err
    modules |= {m.split('.')[1] for m in modules if m.startswith('coupledbd.')}
    assert not _MODULES_NOT_RUN[command] & modules


@pytest.mark.parametrize("command,exit_code", [("invariant", "0"), ("averaging", "0"),
                                               ("check", "3")])
def test_no_command_imports_numpy_ma(tmp_path, command, exit_code):
    # np.unique imports numpy.ma, 13-22 ms of a fresh command; the radial
    # profile (invariant, averaging) and the domination ratios of an
    # additive variant (check) used to call it
    cfg = _bdlp_config()
    cfg["invariant"] = {"grid_points": 32, "order": 2}
    cfg["check"] = {"scan": True}
    cfg["averaging"] = {"epsilons": [1.0, 0.5], "n_replicas": 2, "t_end": 0.2,
                        "sys_density": 0.3, "n_times": 3, "seed": 1, "grid_points": 32}
    code, modules, err = _run_fresh([command, _write(tmp_path, cfg),
                                     "--out", str(tmp_path / "out")])
    assert code == exit_code, err
    assert "numpy.ma" not in modules


def test_span_targets_resolve_on_cli_and_their_rebinding_is_what_the_commands_call(
        tmp_path, monkeypatch):
    # perfbench/trace_run.py looks these names up on cli and rebinds them
    calls = []
    for name in ("ks_solve", "evolve_hierarchy", "scan_feasible"):
        fn = getattr(cli, name)

        def spy(*args, _fn=fn, _name=name, **kwargs):
            calls.append(_name)
            return _fn(*args, **kwargs)

        monkeypatch.setattr(cli, name, spy)
    assert getattr(cli, "no_such_name", None) is None
    cfg = _every_command_config()
    del cfg["check"]  # no weights: check scans for them
    path = _write(tmp_path, cfg)
    for command, expected in (("invariant", "ks_solve"),
                              ("evolve", "evolve_hierarchy"),
                              ("check", "scan_feasible")):
        calls.clear()
        main([command, path, "--out", str(tmp_path / command)])
        assert calls == [expected]


@pytest.mark.parametrize("command", ["simulate", "check", "ergodicity", "averaging"])
@pytest.mark.parametrize("seed", ["-1", "x", str(2 ** 128)])
def test_cli_rejects_a_seed_that_is_not_a_nonnegative_integer_when_parsing(
        tmp_path, capsys, command, seed):
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        main([command, _write(tmp_path, _every_command_config()),
              "--out", str(out), "--seed", seed])
    assert exc.value.code == 2
    assert "--seed must be a nonnegative integer" in capsys.readouterr().err
    assert not out.exists()


_SEED_KEYS = {"check": ("check", "spot_check", "seed"), "simulate": ("simulate", "seed"),
              "ergodicity": ("ergodicity", "seed"), "averaging": ("averaging", "seed")}


def _with_seed(command, seed):
    cfg = _every_command_config()
    cfg["check"]["spot_check"] = {"samples": 50}
    *path, key = _SEED_KEYS[command]
    section = cfg
    for name in path:
        section = section[name]
    section[key] = seed
    return cfg


@pytest.mark.parametrize("command", sorted(_SEED_KEYS))
def test_cli_rejects_a_configured_seed_of_2_to_the_128_at_validation(tmp_path, capsys, command):
    # numpy's Philox takes keys below 2**128; a larger seed used to pass
    # validation and fail at the model build with numpy's message
    code = main([command, _write(tmp_path, _with_seed(command, 2 ** 128)),
                 "--out", str(tmp_path / "out")])
    assert code == 2
    err = capsys.readouterr().err
    assert (f"invalid configuration: {'.'.join(_SEED_KEYS[command])}: "
            f"{2 ** 128} is not at most {SEED_MAX}") in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["check", "simulate", "averaging"])
def test_the_largest_accepted_seed_runs(tmp_path, command):
    # every stream key derived from it (the spot check's seed * 1000 + ...,
    # the sweep's seed + 7919 * (i + 1)) stays a valid Philox key
    path = _write(tmp_path, _with_seed(command, SEED_MAX))
    assert main([command, path, "--out", str(tmp_path / "a")]) == 0
    assert main([command, path, "--out", str(tmp_path / "b"), "--seed", str(SEED_MAX)]) == 0
    with pytest.raises(ConfigError):
        validate_config(_with_seed(command, SEED_MAX + 1))


@pytest.mark.parametrize("n_times, code", [(8, 2), (9, 0)])
def test_cli_ergodicity_rejects_fewer_record_times_than_the_rate_fit_needs(
        tmp_path, capsys, n_times, code):
    # the fit drops the first 10% of the time range and needs 8 points
    # after it; 8 record times leave 7, which used to exit 4 after the run
    cfg = {
        "model": {"variant": "glauber_glauber",
                  "params": {"z_minus": 0.5, "z_plus": 0.1}},
        "torus": {"side": 10.0, "dim": 1},
        "ergodicity": {"n_replicas": 100, "t_end": 4.0, "n_times": n_times,
                       "initial_density": 5.0, "target_density": 0.5, "seed": 1},
    }
    assert main(["ergodicity", _write(tmp_path, cfg), "--out", str(tmp_path / "out")]) == code
    if code == 2:
        assert ("invalid configuration: ergodicity.n_times: 8 is not at least 9"
                in capsys.readouterr().err)


# ---------------------------------------------------------------------------
# Schema-driven configs: every command exits 0, 2, 3 or 4 and never raises

# Strategies for the keys that set a run's cost, so each drawn command stays
# small: few replicas, short horizons, coarse grids, few spot-check samples.
# Every other key is drawn from its schema.
_SMALL = {
    "simulate.t_end": st.floats(0.01, 0.5),
    "simulate.n_replicas": st.integers(1, 3),
    "simulate.n_times": st.integers(2, 5),
    "simulate.epsilon": st.floats(0.3, 2.0),
    "simulate.max_events": st.integers(1, 3000),
    "evolve.t_final": st.floats(0.01, 0.2),
    "evolve.dt": st.floats(0.05, 0.2),
    "ergodicity.n_replicas": st.integers(2, 3),
    "ergodicity.t_end": st.floats(0.05, 0.5),
    "ergodicity.n_times": st.integers(9, 11),
    "averaging.epsilons": st.lists(st.floats(0.3, 2.0), min_size=2, max_size=3),
    "averaging.n_replicas": st.integers(2, 3),
    "averaging.t_end": st.floats(0.05, 0.3),
    "averaging.n_times": st.integers(3, 4),
    "check.spot_check.samples": st.integers(2, 30),
    "check.spot_check.configs_per_size": st.integers(1, 2),
    "check.spot_check.max_points": st.integers(1, 2),
    "check.spot_check.order_cap": st.integers(0, 2),
    "max_iter": st.integers(1, 30),
    "grid_points": st.integers(2, 5),
    "density": st.floats(0.0, 1.0),
    "torus": st.sampled_from([1, 2, 3]).flatmap(lambda dim: st.fixed_dictionaries(
        {"dim": st.just(dim), "side": st.floats(2.0, {1: 12.0, 2: 5.0, 3: 3.0}[dim])})),
    "potential": st.one_of(
        st.fixed_dictionaries({"kind": st.just("step"), "height": st.floats(0.0, 2.0),
                               "cutoff": st.floats(0.05, 1.2)}),
        st.fixed_dictionaries({"kind": st.just("exponential"), "amplitude": st.floats(0.0, 2.0),
                               "decay": st.floats(0.5, 4.0), "cutoff": st.floats(0.05, 1.2)}),
        st.builds(lambda values: {"kind": "table", "radii": [0.0, 0.5, 1.0], "values": values},
                  st.lists(st.floats(0.0, 2.0), min_size=3, max_size=3)),
        st.just({"kind": "zero"})),
    "rate": st.floats(0.05, 1.0),
}


def _small(path):
    """The budget strategy of a dotted path, by full path or by last key."""
    key = path.rsplit(".", 1)[-1]
    if path in _SMALL or key in _SMALL:
        return _SMALL.get(path, _SMALL.get(key))
    if key.endswith("density"):
        return _SMALL["density"]
    return None


@st.composite
def _from_schema(draw, schema, path=""):
    """A value valid under schema; an optional key is present or absent."""
    small = _small(path)
    if small is not None:
        return draw(small)
    if "enum" in schema:
        return draw(st.sampled_from(schema["enum"]))
    kind = schema.get("type")
    if kind == "object":
        out = {}
        for key, sub in schema.get("properties", {}).items():
            if key in schema.get("required", ()) or draw(st.booleans()):
                out[key] = draw(_from_schema(sub, f"{path}.{key}" if path else key))
        return out
    if kind == "array":
        return draw(st.lists(_from_schema(schema["items"], f"{path}[]"),
                             min_size=schema.get("minItems", 0), max_size=2,
                             unique=schema.get("uniqueItems", False)))
    if kind == "boolean":
        return draw(st.booleans())
    low = schema.get("minimum", schema.get("exclusiveMinimum", 0))
    if kind == "integer":
        return draw(st.integers(low + ("exclusiveMinimum" in schema),
                                schema.get("maximum", low + 20)))
    return draw(st.floats(low, low + 20.0, exclude_min="exclusiveMinimum" in schema))


@st.composite
def _cli_configs(draw, command):
    """A valid config that holds the command's own section 7 times in 8."""
    cfg = draw(_from_schema(CONFIG_SCHEMA))
    if command not in cfg and draw(st.integers(0, 3)):
        cfg[command] = draw(_from_schema(CONFIG_SCHEMA["properties"][command], command))
    variant = cfg["model"]["variant"]
    params = {}
    for name, sub in _variant_schema(variant)["properties"].items():
        if name in _PARAMS[variant]["potentials"]:
            if draw(st.booleans()):
                params[name] = draw(_SMALL["potential"])
        else:
            params[name] = draw(_SMALL["rate"] if "minimum" in sub
                                else st.floats(0.2, 2.0))
    cfg["model"]["params"] = params
    if cfg["torus"]["dim"] > 1:
        # the default grid, 64 points per axis, makes an order-3 table of
        # 64**(2 * dim) entries: too large in 2D and 3D
        for name in ("invariant", "evolve", "ergodicity", "averaging"):
            if name in cfg or name == "invariant":
                cfg.setdefault(name, {}).setdefault("grid_points",
                                                   draw(_SMALL["grid_points"]))
    return cfg


_EXITS = {0, 2, 3, 4}


@pytest.mark.parametrize("command", sorted(cli._COMMANDS))
@settings(max_examples=6, derandomize=True)
@given(data=st.data(), seed=st.none() | st.integers(0, SEED_MAX))
def test_every_command_on_a_schema_drawn_config_exits_with_a_documented_code(
        command, data, seed):
    cfg = data.draw(_cli_configs(command))
    validate_config(cfg)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "config.json")
        with open(path, "w") as f:
            json.dump(cfg, f)
        argv = [command, path, "--out", os.path.join(tmp, "out")]
        if seed is not None:
            argv += ["--seed", str(seed)]
        assert main(argv) in _EXITS
