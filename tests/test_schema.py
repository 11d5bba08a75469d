"""The built-in config validator against jsonschema, the test oracle.

``harmonica.schema.validate`` checks the keyword subset the published
schemas use. Here it meets ``jsonschema.Draft202012Validator`` on
schema-valid configs for all five commands and on mutations of them: bools,
integral floats, wrong types, missing and extra keys, out-of-range values,
short and long lists. Both must accept the same configs and report the same
first error, by path and message, once the errors are sorted by path.
"""

import copy

import jsonschema
import pytest
from hypothesis import given, settings, strategies as st

from harmonica.activations import KINDS
from harmonica.cnn import BOUNDARY_MODES, POOLINGS
from harmonica.schema import SCHEMAS, validate


def _valid(schema):
    """Strategy for instances that satisfy ``schema``."""
    if "enum" in schema:
        return st.sampled_from(schema["enum"])
    kind = schema["type"]
    if kind == "object":
        props = {k: _valid(v) for k, v in schema["properties"].items()}
        required = schema.get("required", [])
        return st.fixed_dictionaries(
            {k: props[k] for k in required},
            optional={k: s for k, s in props.items() if k not in required})
    if kind == "array":
        lo = schema.get("minItems", 0)
        return st.lists(_valid(schema["items"]), min_size=lo,
                        max_size=schema.get("maxItems", lo + 2))
    if kind == "string":
        return st.text(max_size=3)
    lo = schema.get("minimum", schema.get("exclusiveMinimum"))
    hi = schema.get("maximum", schema.get("exclusiveMaximum"))
    if kind == "integer":
        return st.integers(lo, hi)
    return st.floats(lo, hi, exclude_min="exclusiveMinimum" in schema,
                     exclude_max="exclusiveMaximum" in schema,
                     allow_nan=False, allow_infinity=False)


def _names(schema):
    """Every property name in ``schema``, at any depth."""
    props = schema.get("properties", {})
    subs = [*props.values(), *([schema["items"]] if "items" in schema else [])]
    return set(props).union(*map(_names, subs))


_KEYS = sorted(set().union(*map(_names, SCHEMAS.values())) | {"extra"})
# bools, integral floats, the bounds and their neighbours, other types
_VALUES = st.one_of(
    st.sampled_from([True, False, None, 0, 1, 2, 3, -1, 0.0, 1.0, 2.0, 3.0,
                     0.5, -0.5, 2.5, 1e-300, "exp", "zero", "x", [], [1],
                     [1, 2, 3], [[1, 2]], {}, {"activation": "exp"}]),
    st.integers(-3, 5),
    st.floats(allow_nan=False, allow_infinity=False))


def _value(data):
    return copy.deepcopy(data.draw(_VALUES))  # a fresh copy of any constant


def _nodes(value, path=()):
    yield path, value
    items = (value.items() if isinstance(value, dict)
             else enumerate(value) if isinstance(value, list) else ())
    for key, child in items:
        yield from _nodes(child, (*path, key))


def _mutate(data, cfg):
    """``cfg`` with one random change at a random node: made in place,
    unless the change replaces ``cfg`` itself."""
    nodes = list(_nodes(cfg))
    path, node = data.draw(st.sampled_from(nodes))
    ops = ["replace"]
    if isinstance(node, dict):
        ops += ["add"] + ["drop"] * bool(node)
    elif isinstance(node, list):
        ops += ["append"] + ["drop"] * bool(node)
    op = data.draw(st.sampled_from(ops))
    if op == "replace" and not path:
        return _value(data)
    if op == "replace":
        parent = cfg
        for key in path[:-1]:
            parent = parent[key]
        parent[path[-1]] = _value(data)
    elif op == "add":
        node[data.draw(st.sampled_from(_KEYS))] = _value(data)
    elif op == "append":
        node.append(copy.deepcopy(node[-1]) if node and data.draw(st.booleans())
                    else _value(data))
    elif isinstance(node, dict):
        del node[data.draw(st.sampled_from(sorted(node)))]
    else:
        del node[data.draw(st.integers(0, len(node) - 1))]
    return cfg


_ORACLES = {command: jsonschema.Draft202012Validator(schema)
            for command, schema in SCHEMAS.items()}


@pytest.mark.parametrize("command", sorted(SCHEMAS))
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_validate_agrees_with_jsonschema(command, data):
    cfg = data.draw(_valid(SCHEMAS[command]))
    for _ in range(data.draw(st.integers(0, 3))):
        cfg = _mutate(data, cfg)
    ours = sorted(validate(cfg, SCHEMAS[command]), key=lambda e: e[0])
    theirs = sorted(((tuple(e.absolute_path), e.message)
                     for e in _ORACLES[command].iter_errors(cfg)),
                    key=lambda e: e[0])
    assert bool(ours) == bool(theirs)
    assert ours[:1] == theirs[:1]


def test_name_enums_are_the_interpreting_modules_lists():
    layer = SCHEMAS["spectrum"]["properties"]["kernel"]["properties"][
        "layers"]["items"]["properties"]
    network = SCHEMAS["cnn-label"]["properties"]["network"]["properties"]
    assert layer["activation"]["enum"] == list(KINDS)
    assert network["activations"]["items"]["properties"] == layer
    assert network["boundary"]["enum"] == list(BOUNDARY_MODES)
    assert network["pooling"]["enum"] == list(POOLINGS)
    # the order is part of the messages: "'x' is not one of [...]"
    assert KINDS == ("exp", "square", "poly", "erf_sigmoid", "smooth_hinge",
                     "custom", "identity", "geometric")
    assert (BOUNDARY_MODES, POOLINGS) == (("circular", "valid"),
                                          ("identity", "gaussian"))


_INT_MIN_10 = {"type": "integer", "minimum": 10}
_OBJECT = {"type": "object", "properties": {"x": {"type": "number"}},
           "required": ["x"], "additionalProperties": False}


@pytest.mark.parametrize("value,schema,errors", [
    # bool is neither integer nor number; an integral float is an integer
    (True, _INT_MIN_10, ["True is not of type 'integer'"]),
    (False, {"type": "number"}, ["False is not of type 'number'"]),
    (30.0, _INT_MIN_10, []),
    (5, _INT_MIN_10, ["5 is less than the minimum of 10"]),
    (5.0, _INT_MIN_10, ["5.0 is less than the minimum of 10"]),
    # a failed type is that node's only error
    (5.5, _INT_MIN_10, ["5.5 is not of type 'integer'"]),
    (0, {"type": "number", "exclusiveMinimum": 0},
     ["0 is less than or equal to the minimum of 0"]),
    (1, {"type": "number", "exclusiveMaximum": 1},
     ["1 is greater than or equal to the maximum of 1"]),
    (3, {"type": "number", "maximum": 2},
     ["3 is greater than the maximum of 2"]),
    ("tanh", {"enum": ["exp", "square"]},
     ["'tanh' is not one of ['exp', 'square']"]),
    ({"y": 1, "a": 2}, _OBJECT,
     ["'x' is a required property",
      "Additional properties are not allowed ('a', 'y' were unexpected)"]),
    ([], {"type": "array", "minItems": 1}, ["[] should be non-empty"]),
    ([1], {"type": "array", "minItems": 2}, ["[1] is too short"]),
    ([1, 2, 3], {"type": "array", "maxItems": 2}, ["[1, 2, 3] is too long"]),
    # without a type, each keyword constrains only its own kind of value
    (True, {"minimum": 1}, []),
    ("abc", {"minItems": 5, "required": ["x"]}, []),
])
def test_validate_semantics_and_messages(value, schema, errors):
    assert [m for _, m in validate(value, schema)] == errors


def test_validate_paths():
    schema = SCHEMAS["spectrum"]
    cfg = {"kernel": {"layers": [{"activation": "exp"}, {"activation": 1}],
                      "n": 0, "d": 3}, "fit_rank_range": [1, True]}
    assert sorted(p for p, _ in validate(cfg, schema)) == [
        ("fit_rank_range", 1), ("kernel", "layers", 1, "activation"),
        ("kernel", "n")]


@pytest.mark.parametrize("schema", [
    {"type": "string", "pattern": "^a"},
    {"type": "object", "additionalProperties": {"type": "integer"}},
])
def test_validate_refuses_keywords_outside_the_subset(schema):
    with pytest.raises(ValueError, match="unsupported schema keyword"):
        list(validate({} if schema["type"] == "object" else "a", schema))
