"""The config validator against its schema, and against jsonschema as oracle."""

import copy
import json
import os
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import coupledbd
from coupledbd import config
from coupledbd.config import CONFIG_SCHEMA, _PARAMS, _variant_schema, validate_config
from coupledbd.errors import ConfigError

_SCHEMAS = [("config", CONFIG_SCHEMA)] + [(v, _variant_schema(v)) for v in _PARAMS]


def _subschemas(schema):
    yield schema
    for sub in schema.get("properties", {}).values():
        yield from _subschemas(sub)
    if "items" in schema:
        yield from _subschemas(schema["items"])


@pytest.mark.parametrize("name, schema", _SCHEMAS, ids=[n for n, _ in _SCHEMAS])
def test_schemas_use_only_the_keywords_the_validator_implements(name, schema):
    for sub in _subschemas(schema):
        assert sub.keys() <= config._KEYWORDS, sub
        assert sub.get("type", "object") in config._TYPES, sub
        assert sub.get("additionalProperties", False) is False, sub


@pytest.mark.parametrize("key, value", [
    ("multipleOf", 2),
    ("type", "string"),
    ("additionalProperties", {"type": "number"}),
])
def test_an_unimplemented_schema_keyword_makes_the_validator_raise(monkeypatch, key, value):
    side = CONFIG_SCHEMA["properties"]["torus"]["properties"]["side"]
    monkeypatch.setitem(side, key, value)
    cfg = {"model": {"variant": "glauber_glauber",
                     "params": {"z_minus": 0.3, "z_plus": 0.3}},
           "torus": {"side": 10.0, "dim": 1}}
    with pytest.raises(NotImplementedError, match="torus.side"):
        validate_config(cfg)


def test_load_config_does_not_import_jsonschema(tmp_path):
    good = {"model": {"variant": "glauber_glauber",
                      "params": {"z_minus": 0.3, "z_plus": 0.3}},
            "torus": {"side": 10.0, "dim": 2},
            "simulate": {"t_end": 1.0}}
    bad = copy.deepcopy(good)
    bad["simulate"]["t_end"] = 0
    paths = []
    for name, cfg in (("good.json", good), ("bad.json", bad)):
        paths.append(tmp_path / name)
        paths[-1].write_text(json.dumps(cfg))
    script = (
        "import sys\n"
        "import coupledbd.cli as cli\n"
        f"cli.load_config({str(paths[0])!r})\n"
        "print('jsonschema' in sys.modules)\n"
        "try:\n"
        f"    cli.load_config({str(paths[1])!r})\n"
        "except cli.ConfigError as e:\n"
        "    print(e)\n"
    )
    src = os.path.dirname(os.path.dirname(coupledbd.__file__))
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    out = subprocess.run([sys.executable, "-c", script], env=env,
                         capture_output=True, text=True, check=True)
    imported, message = out.stdout.strip().splitlines()
    assert imported == "False"
    assert "simulate.t_end" in message


# ---------------------------------------------------------------------------
# Differential test: mutants of valid configs of all four variants

_POTENTIALS = [
    {"kind": "step", "height": 0.5, "cutoff": 1.0},
    {"kind": "exponential", "amplitude": 0.4, "decay": 2.0, "cutoff": 1.0},
    {"kind": "table", "radii": [0.0, 0.5, 1.0], "values": [0.6, 0.3, 0.0]},
    {"kind": "zero"},
]


_SECTIONS = {
    "check": {"c_minus": 0.5, "c_plus": 1.0, "scan": False, "rho_inv": 0.0,
              "spot_check": {"samples": 100, "order_cap": 3, "configs_per_size": 2,
                             "max_points": 2, "seed": 1, "sigma": 0.5}},
    "invariant": {"component": "environment", "grid_points": 32, "order": 2,
                  "tol": 1e-9, "max_iter": 50, "closure": "poisson"},
    "evolve": {"component": "averaged", "grid_points": 32, "order": 1,
               "t_final": 1.0, "dt": 0.01, "record_every": 10,
               "closure": "zero", "initial_density": 0.5},
    "simulate": {"epsilon": 0.5, "t_end": 2.0, "n_replicas": 3, "n_times": 5,
                 "sys_density": 0.3, "env_density": 0.3, "seed": 0,
                 "components": ["system", "environment"], "max_events": 1000},
    "ergodicity": {"n_replicas": 10, "t_end": 1.0, "initial_density": 1.5,
                   "target_density": 0.5, "n_times": 9, "seed": 2,
                   "c_minus": 10.0, "grid_points": 32},
    "averaging": {"epsilons": [1.0, 0.5], "n_replicas": 4, "t_end": 1.0,
                  "sys_density": 0.3, "env_density": 0.3, "n_times": 3,
                  "seed": 3, "grid_points": 32},
}


def _valid_config(variant, sections=True):
    """A valid config of the variant, with every optional section if asked."""
    spec = _PARAMS[variant]
    params = {name: 0.3 for name in spec["activities"]}
    params.update({name: 1.0 for name in spec["masses"]})
    for i, name in enumerate(spec["potentials"]):
        params[name] = copy.deepcopy(_POTENTIALS[i % len(_POTENTIALS)])
    cfg = {"model": {"variant": variant, "params": params},
           "torus": {"side": 10.0, "dim": 1}}
    if sections:
        cfg.update(copy.deepcopy(_SECTIONS))
    return cfg


_KEYS = st.sampled_from(sorted({key for _, schema in _SCHEMAS for sub in _subschemas(schema)
                                 for key in sub.get("properties", {})})) | st.text(max_size=3)
_WORDS = st.sampled_from(sorted({word for _, schema in _SCHEMAS for sub in _subschemas(schema)
                                 for word in sub.get("enum", ()) if isinstance(word, str)}))
_VALUES = st.recursive(
    st.one_of(st.booleans(), st.none(), st.integers(),
              st.floats(allow_nan=False, allow_infinity=False),
              _WORDS | st.text(max_size=3)),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(_KEYS, inner, max_size=3),
    max_leaves=6,
)
_DROP = "<drop>"


def _full_schema(variant):
    schema = copy.deepcopy(CONFIG_SCHEMA)
    schema["properties"]["model"]["properties"]["params"] = _variant_schema(variant)
    return schema


def _walk(node, schema, path=()):
    """(path, node, schema at that path or {}) for every node of a config."""
    yield path, node, schema
    if isinstance(node, dict):
        props = schema.get("properties", {})
        for key, child in node.items():
            yield from _walk(child, props.get(key, {}), path + (key,))
    elif isinstance(node, list):
        for i, child in enumerate(node):
            yield from _walk(child, schema.get("items", {}), path + (i,))


def _mutants(cfg, schema):
    """Every single mutation of cfg, as (path, new value or _DROP).

    Drops a key or item, adds an unknown key, switches a value to each JSON
    type, duplicates a list item, and moves a number across each bound.
    """
    for path, node, sub in _walk(cfg, schema):
        if path:
            yield path, _DROP
        if isinstance(node, dict):
            yield path + ("unknown",), 1.0
        values = [True, None, 1, 2.5, "x", [node], {"x": node}]
        if isinstance(node, list) and node:
            values.append(node + node[:1])
        if isinstance(node, (int, float)) and not isinstance(node, bool):
            values += [int(node), float(node), -node]
        for e in sub.get("enum", ()):
            values += [e, float(e), bool(e)] if isinstance(e, int) else [e]
        for bound in (sub[k] for k in config._BOUNDS if k in sub):
            values += [bound + d for d in (-1, -1e-9, 0, 0.0, 1e-9, 1)]
        for value in values:
            yield path, value


def _apply(cfg, mutant):
    path, value = mutant
    if not path:
        return value
    cfg = copy.deepcopy(cfg)
    parent = cfg
    for key in path[:-1]:
        parent = parent[key]
    if value is _DROP:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return cfg


def _agree(jsonschema, cfg):
    try:
        validate_config(cfg)
        accepted = True
    except ConfigError:
        accepted = False
    oracle = jsonschema.Draft202012Validator(CONFIG_SCHEMA).is_valid(cfg)
    if oracle:
        model = cfg["model"]
        oracle = jsonschema.Draft202012Validator(
            _variant_schema(model["variant"])).is_valid(model["params"])
    return accepted == oracle


@pytest.mark.parametrize("variant", sorted(_PARAMS))
def test_every_single_mutant_agrees_with_jsonschema(variant):
    # the optional sections do not depend on the variant: sweep them once
    jsonschema = pytest.importorskip("jsonschema")
    cfg = _valid_config(variant, sections=variant == "glauber_glauber")
    validate_config(cfg)
    for mutant in _mutants(cfg, _full_schema(variant)):
        assert _agree(jsonschema, _apply(cfg, mutant)), mutant


@settings(max_examples=200)
@given(st.sampled_from(sorted(_PARAMS)), st.data())
def test_compound_mutants_agree_with_jsonschema(variant, data):
    jsonschema = pytest.importorskip("jsonschema")
    cfg, schema = _valid_config(variant), _full_schema(variant)
    for _ in range(data.draw(st.integers(2, 4))):
        # indices, not sampled_from: hypothesis hashes every element it samples
        if data.draw(st.booleans()):
            mutants = list(_mutants(cfg, schema))
            mutant = mutants[data.draw(st.integers(0, len(mutants) - 1))]
        else:
            paths = [path for path, _, _ in _walk(cfg, schema)]
            mutant = paths[data.draw(st.integers(0, len(paths) - 1))], data.draw(_VALUES)
        cfg = _apply(cfg, mutant)
    assert _agree(jsonschema, cfg)


def test_variant_parameters_are_the_declared_table():
    # the schema of every variant follows from this table, in this order
    assert list(_PARAMS) == ["glauber_glauber", "bdlp_in_glauber",
                             "branching_in_glauber", "two_bdlp"]
    assert _PARAMS == {
        "glauber_glauber": {
            "activities": ["z_minus", "z_plus"],
            "masses": [],
            "potentials": ["psi", "phi_minus", "phi_plus"],
        },
        "bdlp_in_glauber": {
            "activities": ["z_minus"],
            "masses": ["m_plus"],
            "potentials": ["psi", "a_minus", "a_plus", "b_minus", "b_plus"],
        },
        "branching_in_glauber": {
            "activities": ["z_minus"],
            "masses": ["m_plus"],
            "potentials": ["psi", "kappa", "phi", "a_plus"],
        },
        "two_bdlp": {
            "activities": ["z"],
            "masses": ["m_minus", "m_plus"],
            "potentials": ["a_minus", "a_plus", "b_minus", "b_plus",
                           "vphi_minus", "vphi_plus"],
        },
    }
