"""The config validator against its schema, and against jsonschema as oracle."""

import ast
import copy
import inspect
import json
import os
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import coupledbd
from coupledbd import config
from coupledbd.config import CONFIG_SCHEMA, _PARAMS, _variant_schema, resolve_config
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
        resolve_config(cfg)


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
        resolve_config(cfg)
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
    resolve_config(cfg)
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


# ---------------------------------------------------------------------------
# Defaults: the schema is the one home of every option's default

def _paths(schema, path=""):
    """(dotted path, subschema) for every subschema of schema."""
    yield path, schema
    for key, sub in schema.get("properties", {}).items():
        yield from _paths(sub, f"{path}.{key}" if path else key)
    if "items" in schema:
        yield from _paths(schema["items"], f"{path}[]")


_DEFAULTS = [(path, sub) for path, sub in _paths(CONFIG_SCHEMA) if "default" in sub]


@pytest.mark.parametrize("path, sub", _DEFAULTS, ids=[p for p, _ in _DEFAULTS])
def test_every_default_passes_its_own_subschema(path, sub):
    resolved = config._check(sub["default"], sub, path)
    assert config._check(resolved, sub, path) == resolved


def _assert_resolved_types(value, schema, path=""):
    """Integers are int and numbers float, everywhere the schema types them."""
    kind = schema.get("type")
    if kind == "integer":
        assert type(value) is int, (path, value)
    elif kind == "number":
        assert type(value) is float, (path, value)
    elif isinstance(value, dict):
        for key, item in value.items():
            _assert_resolved_types(item, schema.get("properties", {}).get(key, {}),
                                   f"{path}.{key}")
    elif isinstance(value, list):
        for item in value:
            _assert_resolved_types(item, schema.get("items", {}), f"{path}[]")


def _integer_valued(cfg):
    """cfg with each integer-valued float written as an int and each int as
    a float, which the schema accepts alike."""
    if isinstance(cfg, dict):
        return {k: _integer_valued(v) for k, v in cfg.items()}
    if isinstance(cfg, list):
        return [_integer_valued(v) for v in cfg]
    if isinstance(cfg, float) and cfg.is_integer():
        return int(cfg)
    if isinstance(cfg, int) and not isinstance(cfg, bool):
        return float(cfg)
    return cfg


def _same_types(a, b):
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(_same_types(a[k], b[k]) for k in a)
    if isinstance(a, list):
        return len(a) == len(b) and all(map(_same_types, a, b))
    return type(a) is type(b)


_RESOLVE_CASES = [(v, sections, retyped) for v in sorted(_PARAMS)
                  for sections in (False, True) for retyped in (False, True)]


@pytest.mark.parametrize("variant, sections, retyped", _RESOLVE_CASES)
def test_resolving_leaves_the_input_alone_is_idempotent_and_types_every_number(
        variant, sections, retyped):
    cfg = _valid_config(variant, sections)
    if retyped:
        cfg = _integer_valued(cfg)
    before = copy.deepcopy(cfg)
    run = config.resolve_config(cfg)
    assert cfg == before and _same_types(cfg, before)
    assert config.resolve_config(run) == run
    _assert_resolved_types(run, CONFIG_SCHEMA)
    _assert_resolved_types(run["model"]["params"], _variant_schema(variant))
    # the resolved config is a new tree: changing it changes neither cfg
    # nor a default in the schema
    run["check"]["probe"] = 1
    run["model"]["params"]["probe"] = 1
    assert cfg == before
    assert CONFIG_SCHEMA["properties"]["check"]["default"] == {}


def test_a_given_value_wins_over_the_default_and_an_absent_one_takes_it():
    cfg = _valid_config("glauber_glauber", sections=False)
    cfg["simulate"] = {"t_end": 1, "n_replicas": 3.0}
    run = config.resolve_config(cfg)
    sim = run["simulate"]
    assert sim["t_end"] == 1.0 and type(sim["t_end"]) is float
    assert sim["n_replicas"] == 3 and type(sim["n_replicas"]) is int
    assert sim["seed"] == 12345 and sim["components"] == ["system", "environment"]
    assert run["check"] == {"scan": False}
    assert run["invariant"] == {"component": "environment", "grid_points": 64, "order": 3,
                                "closure": "poisson", "tol": 1e-12, "max_iter": 500}
    assert "evolve" not in run and "ergodicity" not in run and "averaging" not in run


# The smallest section of each command: its required keys only.  check and
# invariant need none and default to {}.
_MINIMAL = {
    "check": None,
    "invariant": None,
    "evolve": {"t_final": 1.0},
    "simulate": {"t_end": 1.0},
    "ergodicity": {"n_replicas": 2, "t_end": 1.0, "initial_density": 1.0},
    "averaging": {"n_replicas": 2, "t_end": 1.0, "sys_density": 0.3},
}

# Options whose absence means "not given": a command reads them with
# section.get(key), or with section[key] only where the key is present.
_NOT_GIVEN = {
    "check": {"c_minus", "c_plus", "rho_inv", "spot_check"},
    "ergodicity": {"target_density", "c_minus"},
    "averaging": {"env_density"},
}


def _section_reads(*functions):
    """The string keys read as section["key"] in the named cli functions."""
    from coupledbd import cli
    tree = ast.parse(inspect.getsource(cli))
    keys = set()
    for fn in (n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name in functions):
        for node in ast.walk(fn):
            if (isinstance(node, ast.Subscript) and isinstance(node.value, ast.Name)
                    and node.value.id == "section" and isinstance(node.slice, ast.Constant)):
                keys.add(node.slice.value)
    return keys


@pytest.mark.parametrize("command", sorted(_MINIMAL))
def test_a_minimal_config_resolves_every_key_its_command_reads(command):
    cfg = _valid_config("glauber_glauber", sections=False)
    if _MINIMAL[command] is not None:
        cfg[command] = dict(_MINIMAL[command])
    section = config.resolve_config(cfg)[command]
    props = CONFIG_SCHEMA["properties"][command]["properties"]
    assert section.keys() == props.keys() - _NOT_GIVEN.get(command, set())
    helpers = ("_section_form",) if command in ("invariant", "evolve") else ()
    reads = _section_reads(f"_cmd_{command}", *helpers) - _NOT_GIVEN.get(command, set())
    assert reads and reads <= section.keys()
