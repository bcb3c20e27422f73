"""Run configuration: JSON schema, loading, and object construction."""

from __future__ import annotations

import hashlib
import json
import math
import operator
from dataclasses import fields
from typing import Optional

from .errors import ConfigError
from .geometry import Torus
from .models import VARIANTS, RateModel
from .potentials import Potential

# Largest seed.  Every stream key derived from a seed (the spot check's
# seed * 1000 + ..., the averaging sweep's seed + 7919 * (i + 1)) then stays
# below 2**128, the bound of numpy's Philox keys.
SEED_MAX = 2 ** 64 - 1
_SEED_SCHEMA = {"type": "integer", "minimum": 0, "maximum": SEED_MAX}

# The relaxation fit (experiments.fit_exponential_rate) drops the first
# FIT_DISCARD_FRAC of the time range and needs FIT_MIN_POINTS points after it.
FIT_DISCARD_FRAC = 0.1
FIT_MIN_POINTS = 8


def _fewest_record_times(discard_frac: float, min_points: int) -> int:
    """Fewest evenly spaced record times over [0, t_end] that leave
    min_points of them at or after discard_frac * t_end."""
    n = min_points
    while n - math.ceil(discard_frac * (n - 1)) < min_points:
        n += 1
    return n

_POTENTIAL_SCHEMA = {
    "type": "object",
    "properties": {
        "kind": {"enum": ["zero", "step", "exponential", "table"]},
        "height": {"type": "number"},
        "amplitude": {"type": "number"},
        "decay": {"type": "number", "exclusiveMinimum": 0},
        "cutoff": {"type": "number", "minimum": 0},
        "radii": {"type": "array", "items": {"type": "number"}, "minItems": 2},
        "values": {"type": "array", "items": {"type": "number"}, "minItems": 2},
    },
    "required": ["kind"],
    "additionalProperties": False,
}

def _params(cls) -> dict:
    """Config parameters of a variant, in field order: the activities fill
    a birth_const, the masses a death_const, and the rest are potentials."""
    kinds = {terms[t]: kind for terms in (cls.ENV_TERMS, cls.SYS_TERMS)
             for t, kind in (("birth_const", "activities"), ("death_const", "masses"))}
    out = {"activities": [], "masses": [], "potentials": []}
    for f in fields(cls):
        out[kinds.get(f.name, "potentials")].append(f.name)
    return out


_PARAMS = {name: _params(cls) for name, cls in VARIANTS.items()}


def _variant_schema(variant: str) -> dict:
    spec = _PARAMS[variant]
    props = {}
    required = []
    for name in spec["activities"]:
        props[name] = {"type": "number", "minimum": 0}
        required.append(name)
    for name in spec["masses"]:
        props[name] = {"type": "number", "exclusiveMinimum": 0}
        required.append(name)
    for name in spec["potentials"]:
        props[name] = _POTENTIAL_SCHEMA
    return {"type": "object", "properties": props, "required": required,
            "additionalProperties": False}


# The options of both hierarchy sections (invariant, evolve).
_HIERARCHY = {
    "component": {"enum": ["environment", "averaged"], "default": "environment"},
    "grid_points": {"type": "integer", "minimum": 2, "default": 64},
    "order": {"type": "integer", "enum": [1, 2, 3], "default": 3},
    "closure": {"enum": ["poisson", "zero"], "default": "poisson"},
}

# The one home of each option's default (resolve_config fills them in).  An
# optional key without one means "not given" (spot_check's: SpotCheckSettings).
CONFIG_SCHEMA = {
    "type": "object",
    "properties": {
        "model": {
            "type": "object",
            "properties": {
                "variant": {"enum": list(_PARAMS)},
                "params": {"type": "object"},
            },
            "required": ["variant", "params"],
            "additionalProperties": False,
        },
        "torus": {
            "type": "object",
            "properties": {
                "side": {"type": "number", "exclusiveMinimum": 0},
                "dim": {"enum": [1, 2, 3]},
            },
            "required": ["side", "dim"],
            "additionalProperties": False,
        },
        "check": {
            "type": "object",
            "properties": {
                "c_minus": {"type": "number", "exclusiveMinimum": 0},
                "c_plus": {"type": "number", "exclusiveMinimum": 0},
                "scan": {"type": "boolean", "default": False},
                "rho_inv": {"type": "number", "minimum": 0},
                "spot_check": {
                    "type": "object",
                    "properties": {
                        "samples": {"type": "integer", "minimum": 2},
                        "order_cap": {"type": "integer", "minimum": 0, "maximum": 6},
                        "configs_per_size": {"type": "integer", "minimum": 1},
                        "max_points": {"type": "integer", "minimum": 1, "maximum": 4},
                        "seed": _SEED_SCHEMA,
                        "sigma": {"type": "number", "exclusiveMinimum": 0},
                    },
                    "additionalProperties": False,
                },
            },
            "additionalProperties": False,
            "default": {},
        },
        "invariant": {
            "type": "object",
            "properties": {
                **_HIERARCHY,
                "tol": {"type": "number", "exclusiveMinimum": 0, "default": 1e-12},
                "max_iter": {"type": "integer", "minimum": 1, "default": 500},
            },
            "additionalProperties": False,
            "default": {},
        },
        "evolve": {
            "type": "object",
            "properties": {
                **_HIERARCHY,
                "t_final": {"type": "number", "exclusiveMinimum": 0},
                "dt": {"type": "number", "exclusiveMinimum": 0, "default": 0.01},
                "record_every": {"type": "integer", "minimum": 1, "default": 10},
                "initial_density": {"type": "number", "minimum": 0, "default": 1.0},
            },
            "required": ["t_final"],
            "additionalProperties": False,
        },
        "simulate": {
            "type": "object",
            "properties": {
                "epsilon": {"type": "number", "exclusiveMinimum": 0, "default": 1.0},
                "t_end": {"type": "number", "exclusiveMinimum": 0},
                "n_replicas": {"type": "integer", "minimum": 1, "default": 10},
                "n_times": {"type": "integer", "minimum": 2, "default": 21},
                "sys_density": {"type": "number", "minimum": 0, "default": 1.0},
                "env_density": {"type": "number", "minimum": 0, "default": 1.0},
                "seed": {**_SEED_SCHEMA, "default": 12345},
                "components": {
                    "type": "array",
                    "items": {"enum": ["system", "environment"]},
                    "minItems": 1,
                    "uniqueItems": True,
                    "default": ["system", "environment"],
                },
                "max_events": {"type": "integer", "minimum": 1, "default": 10_000_000},
            },
            "required": ["t_end"],
            "additionalProperties": False,
        },
        "ergodicity": {
            "type": "object",
            "properties": {
                "n_replicas": {"type": "integer", "minimum": 2},
                "t_end": {"type": "number", "exclusiveMinimum": 0},
                "initial_density": {"type": "number", "minimum": 0},
                "target_density": {"type": "number", "minimum": 0},
                "n_times": {"type": "integer", "default": 21,
                            "minimum": _fewest_record_times(FIT_DISCARD_FRAC, FIT_MIN_POINTS)},
                "seed": {**_SEED_SCHEMA, "default": 2024},
                "c_minus": {"type": "number", "exclusiveMinimum": 0},
                "grid_points": {"type": "integer", "minimum": 2, "default": 64},
            },
            "required": ["n_replicas", "t_end", "initial_density"],
            "additionalProperties": False,
        },
        "averaging": {
            "type": "object",
            "properties": {
                "epsilons": {
                    "type": "array",
                    "items": {"type": "number", "exclusiveMinimum": 0},
                    "minItems": 2,
                    "default": [1.0, 0.5, 0.2, 0.1],
                },
                "n_replicas": {"type": "integer", "minimum": 2},
                "t_end": {"type": "number", "exclusiveMinimum": 0},
                "sys_density": {"type": "number", "minimum": 0},
                "env_density": {"type": "number", "minimum": 0},
                "n_times": {"type": "integer", "minimum": 3, "default": 21},
                "seed": {**_SEED_SCHEMA, "default": 77},
                "grid_points": {"type": "integer", "minimum": 2, "default": 64},
            },
            "required": ["n_replicas", "t_end", "sys_density"],
            "additionalProperties": False,
        },
    },
    "required": ["model", "torus"],
    "additionalProperties": False,
}


def _is_number(value) -> bool:
    # bool subclasses int but is no JSON number; NaN and the infinities that
    # json.load accepts are rejected too
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    return isinstance(value, int) or math.isfinite(value)


_TYPES = {
    "object": lambda v: isinstance(v, dict),
    "array": lambda v: isinstance(v, list),
    "boolean": lambda v: isinstance(v, bool),
    "number": _is_number,
    "integer": lambda v: _is_number(v) and (isinstance(v, int) or v.is_integer()),
}
_BOUNDS = {
    "minimum": (operator.ge, "at least"),
    "exclusiveMinimum": (operator.gt, "above"),
    "maximum": (operator.le, "at most"),
}
_KEYWORDS = {"type", "enum", "properties", "required", "additionalProperties",
             "items", "minItems", "uniqueItems", "default", *_BOUNDS}


def _equal(a, b) -> bool:
    """JSON equality: 1 equals 1.0, but True equals neither 1 nor 1.0."""
    if isinstance(a, bool) or isinstance(b, bool):
        return a is b
    if isinstance(a, list) and isinstance(b, list):
        return len(a) == len(b) and all(map(_equal, a, b))
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(_equal(a[k], b[k]) for k in a)
    return a == b


def _fail(path: str, reason: str):
    where = f"{path}: " if path else ""
    raise ConfigError(f"invalid configuration: {where}{reason}")


def _check(value, schema: dict, path: str):
    """value resolved against schema: a copy with each absent key that has a
    default filled in, integers as int and numbers as float.  Raise
    ConfigError, naming the dotted key path, where value breaks schema.

    Implements the JSON Schema (Draft 2020-12) keywords the schemas above
    use, with one deliberate difference: a number must be finite.  A
    default is resolved as if the config had given it.
    """
    unknown = schema.keys() - _KEYWORDS
    if schema.get("type", "object") not in _TYPES:
        unknown.add("type")
    if schema.get("additionalProperties", False) is not False:
        unknown.add("additionalProperties")
    if unknown:
        raise NotImplementedError(
            f"schema at {path!r} uses {sorted(unknown)} beyond what _check implements")
    kind = schema.get("type")
    if kind is not None and not _TYPES[kind](value):
        finite = "finite " if kind in ("number", "integer") else ""
        _fail(path, f"expected {finite}{kind}, got {value!r}")
    if "enum" in schema and not any(_equal(value, e) for e in schema["enum"]):
        _fail(path, f"{value!r} is not one of {schema['enum']}")
    if isinstance(value, dict):
        props = schema.get("properties", {})
        prefix = f"{path}." if path else ""
        for key in schema.get("required", ()):
            if key not in value:
                _fail(prefix + key, "required key is missing")
        out = {}
        for key, item in value.items():
            if key not in props and "additionalProperties" in schema:
                _fail(prefix + key, "unknown key")
            out[key] = _check(item, props.get(key, {}), prefix + key)
        for key, sub in props.items():
            if key not in value and "default" in sub:
                out[key] = _check(sub["default"], sub, prefix + key)
        return out
    if isinstance(value, list):
        if len(value) < schema.get("minItems", 0):
            _fail(path, f"needs at least {schema['minItems']} items")
        items = [_check(item, schema.get("items", {}), f"{path}[{i}]")
                 for i, item in enumerate(value)]
        if schema.get("uniqueItems") and any(
                _equal(a, b) for i, a in enumerate(value) for b in value[i + 1:]):
            _fail(path, f"items of {value!r} are not unique")
        return items
    if _is_number(value):
        for key, (holds, words) in _BOUNDS.items():
            if key in schema and not holds(value, schema[key]):
                _fail(path, f"{value!r} is not {words} {schema[key]}")
        return int(value) if kind == "integer" else float(value) if kind == "number" else value
    return value


def resolve_config(cfg: dict) -> dict:
    """Schema-check cfg, including the variant parameters, and return a
    resolved copy (_check); cfg itself is left alone."""
    run = _check(cfg, CONFIG_SCHEMA, "")
    model = run["model"]
    model["params"] = _check(model["params"], _variant_schema(model["variant"]),
                             "model.params")
    return run


def read_config(path: str) -> dict:
    """The config at path as written, not yet checked."""
    try:
        with open(path) as f:
            return json.load(f)
    except OSError as e:
        raise ConfigError(f"cannot read config {path}: {e}") from e
    except json.JSONDecodeError as e:
        raise ConfigError(f"config {path} is not valid JSON: {e}") from e


def load_config(path: str) -> dict:
    """The config at path, checked and resolved (resolve_config)."""
    return resolve_config(read_config(path))


def potential_from_config(d: Optional[dict]) -> Potential:
    if d is None:
        return Potential.zero()
    kind = d["kind"]
    try:
        if kind == "zero":
            return Potential.zero()
        if kind == "step":
            return Potential.step(height=d["height"], cutoff=d["cutoff"])
        if kind == "exponential":
            return Potential.exponential(amplitude=d["amplitude"],
                                         decay=d["decay"], cutoff=d["cutoff"])
        if kind == "table":
            return Potential.table(radii=d["radii"], values=d["values"])
    except KeyError as e:
        raise ConfigError(f"potential spec missing field {e}") from e
    except ValueError as e:
        raise ConfigError(str(e)) from e
    raise ConfigError(f"unknown potential kind {kind!r}")


def model_from_config(cfg: dict) -> RateModel:
    spec = cfg["model"]
    variant = spec["variant"]
    params = spec["params"]
    kwargs = {}
    meta = _PARAMS[variant]
    for name in meta["activities"] + meta["masses"]:
        kwargs[name] = float(params[name])
    for name in meta["potentials"]:
        try:
            kwargs[name] = potential_from_config(params.get(name))
        except ConfigError as e:
            _fail(f"model.params.{name}", str(e))
    try:
        return VARIANTS[variant](**kwargs)
    except ValueError as e:
        raise ConfigError(str(e)) from e


def torus_from_config(cfg: dict) -> Torus:
    t = cfg["torus"]
    return Torus(side=float(t["side"]), dim=int(t["dim"]))


def config_hash(cfg: dict) -> str:
    """Stable hash of the canonical JSON encoding."""
    canon = json.dumps(cfg, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()[:16]
