"""Published JSON schemas for the CLI run configurations, and their validator.

The schemas are JSON Schema (Draft 2020-12; the ``$schema`` keys say so) and
use only this subset of keywords: ``type`` (object, array, string, number,
integer), ``properties``, ``required``, ``additionalProperties: false``,
``items``, ``minItems``/``maxItems``, ``enum``, ``minimum``/``maximum`` and
``exclusiveMinimum``/``exclusiveMaximum``. ``validate`` checks exactly that
subset with Draft 2020-12 semantics, so the runtime needs no JSON Schema
library; the tests hold it to ``jsonschema.Draft202012Validator`` on
schema-valid and mutated configs for every command.
"""

import operator

# keyword: (test that fails the value, wording after "<value> is")
_BOUNDS = {
    "minimum": (operator.lt, "less than the minimum of"),
    "maximum": (operator.gt, "greater than the maximum of"),
    "exclusiveMinimum": (operator.le, "less than or equal to the minimum of"),
    "exclusiveMaximum": (operator.ge, "greater than or equal to the maximum of"),
}
_KEYWORDS = {"$schema", "type", "properties", "required",
             "additionalProperties", "items", "minItems", "maxItems", "enum",
             *_BOUNDS}


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


# bool is neither number nor integer; an integral float such as 3.0 is an
# integer
_TYPES = {
    "object": lambda v: isinstance(v, dict),
    "array": lambda v: isinstance(v, list),
    "string": lambda v: isinstance(v, str),
    "number": _is_number,
    "integer": lambda v: _is_number(v) and (isinstance(v, int)
                                            or v.is_integer()),
}


def validate(value, schema: dict, path: tuple = ()):
    """Yield a ``(path, message)`` pair for each way ``value`` breaks
    ``schema``; ``path`` holds the keys and indices down to the offending
    node. Messages use jsonschema's wording. A node of the wrong type gets
    that error alone, and every other keyword applies only to the types it
    constrains: bounds to numbers, item keywords to lists, property
    keywords to dicts. A keyword outside the subset raises ValueError.
    """
    kind = schema.get("type")
    if kind is not None and not _TYPES[kind](value):
        yield path, f"{value!r} is not of type {kind!r}"
        return
    for key, rule in schema.items():
        if key not in _KEYWORDS or (key == "additionalProperties"
                                   and rule is not False):
            raise ValueError(f"unsupported schema keyword {key}: {rule!r}")
        if key in _BOUNDS:
            fails, wording = _BOUNDS[key]
            if _is_number(value) and fails(value, rule):
                yield path, f"{value!r} is {wording} {rule!r}"
        elif key == "enum":
            if value not in rule:  # the enums are strings: == is JSON equality
                yield path, f"{value!r} is not one of {rule!r}"
        elif isinstance(value, list):
            if key == "items":
                for i, item in enumerate(value):
                    yield from validate(item, rule, (*path, i))
            elif key == "minItems" and len(value) < rule:
                short = "should be non-empty" if rule == 1 else "is too short"
                yield path, f"{value!r} {short}"
            elif key == "maxItems" and len(value) > rule:
                long = "is expected to be empty" if rule == 0 else "is too long"
                yield path, f"{value!r} {long}"
        elif isinstance(value, dict):
            if key == "properties":
                for name, sub in rule.items():
                    if name in value:
                        yield from validate(value[name], sub, (*path, name))
            elif key == "required":
                for name in rule:
                    if name not in value:
                        yield path, f"{name!r} is a required property"
            elif key == "additionalProperties":
                known = schema.get("properties", {})
                extras = sorted(k for k in value if k not in known)
                if extras:
                    names = ", ".join(map(repr, extras))
                    verb = "was" if len(extras) == 1 else "were"
                    yield path, ("Additional properties are not allowed "
                                 f"({names} {verb} unexpected)")


_ACTIVATION = {
    "type": "object",
    "properties": {
        "activation": {
            "enum": ["exp", "square", "poly", "erf_sigmoid", "smooth_hinge",
                     "custom", "identity", "geometric"],
        },
        "coeffs": {"type": "array", "items": {"type": "number"}},
        "ratio": {"type": "number", "exclusiveMinimum": 0, "exclusiveMaximum": 1},
    },
    "required": ["activation"],
    "additionalProperties": False,
}

_TRUNCATION = {
    "type": "object",
    "properties": {
        "K_max": {"type": "integer", "minimum": 0},
        "A_max": {"type": "integer", "minimum": 0},
        "Q_max": {"type": "integer", "minimum": 1},
        "s_tol": {"type": "number", "exclusiveMinimum": 0},
        "order": {"type": "integer", "minimum": 1},
        "L_max": {"type": "integer", "minimum": 1},
    },
    "additionalProperties": False,
}

_KERNEL = {
    "type": "object",
    "properties": {
        "layers": {"type": "array", "items": _ACTIVATION, "minItems": 1},
        "n": {"type": "integer", "minimum": 1},
        "d": {"type": "integer", "minimum": 2},
        "truncation": _TRUNCATION,
    },
    "required": ["layers", "n", "d"],
    "additionalProperties": False,
}

_NETWORK = {
    "type": "object",
    "properties": {
        "filters": {"type": "array", "items": {"type": "integer", "minimum": 1},
                    "minItems": 1},
        "patch_sizes": {"type": "array", "items": {"type": "integer", "minimum": 1}},
        "boundary": {"enum": ["circular", "valid"]},
        "pooling": {"enum": ["identity", "gaussian"]},
        "activations": {"type": "array", "items": _ACTIVATION, "minItems": 1},
        "weight_scale": {"type": "number"},
    },
    "required": ["filters", "activations"],
    "additionalProperties": False,
}

_PATCH_INPUT = {
    "type": "object",
    "properties": {
        "paths": {"type": "array", "items": {"type": "string"}, "minItems": 1},
        "r": {"type": "integer", "minimum": 2},
        "locations": {
            "type": "array",
            "items": {"type": "array", "items": {"type": "integer", "minimum": 1},
                      "minItems": 2, "maxItems": 2},
        },
        "stride": {"type": "integer", "minimum": 1},
    },
    "required": ["paths", "r"],
    "additionalProperties": False,
}

SPECTRUM_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "type": "object",
    "properties": {
        "kernel": _KERNEL,
        "k_max": {"type": "integer", "minimum": 1},
        "fit_rank_range": {"type": "array", "items": {"type": "integer", "minimum": 1},
                           "minItems": 2, "maxItems": 2},
    },
    "required": ["kernel"],
    "additionalProperties": False,
}

RECONSTRUCT_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "type": "object",
    "properties": {
        "kernel": _KERNEL,
        "k_max": {"type": "integer", "minimum": 1},
        "pairs": {"type": "integer", "minimum": 1},
        "tolerance": {"type": "number", "exclusiveMinimum": 0},
    },
    "required": ["kernel"],
    "additionalProperties": False,
}

LEARNING_CURVE_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "type": "object",
    "properties": {
        "kernel": _KERNEL,
        "schedule": {
            "type": "object",
            "properties": {
                "beta": {"type": "number", "exclusiveMinimum": 0, "maximum": 2},
                "mu_exp": {"type": "number"},
            },
            "required": ["beta"],
            "additionalProperties": False,
        },
        "sizes": {"type": "array", "items": {"type": "integer", "minimum": 3},
                  "minItems": 1},
        "test_size": {"type": "integer", "minimum": 1},
        "target": {
            "type": "object",
            "properties": {
                "type": {"enum": ["network", "source", "zero"]},
                "network": _NETWORK,
                "beta": {"type": "number", "exclusiveMinimum": 0},
                "profiles": {
                    "type": "array",
                    "items": {
                        "type": "object",
                        "properties": {
                            "degrees": {"type": "array",
                                        "items": {"type": "integer", "minimum": 0}},
                            "coeff": {"type": "number"},
                        },
                        "required": ["degrees"],
                        "additionalProperties": False,
                    },
                },
            },
            "required": ["type"],
            "additionalProperties": False,
        },
    },
    "required": ["kernel", "schedule", "sizes", "target"],
    "additionalProperties": False,
}

GRAM_EIG_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "type": "object",
    "properties": {
        "kernel": _KERNEL,
        "ell": {"type": "integer", "minimum": 1},
        "top_k": {"type": "integer", "minimum": 1},
        "k_max": {"type": "integer", "minimum": 1},
    },
    "required": ["kernel"],
    "additionalProperties": False,
}

CNN_LABEL_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "type": "object",
    "properties": {
        "n": {"type": "integer", "minimum": 1},
        "d": {"type": "integer", "minimum": 2},
        "count": {"type": "integer", "minimum": 1},
        "network": _NETWORK,
        "images": _PATCH_INPUT,
    },
    "required": ["network"],
    "additionalProperties": False,
}

SCHEMAS = {
    "spectrum": SPECTRUM_SCHEMA,
    "reconstruct": RECONSTRUCT_SCHEMA,
    "learning-curve": LEARNING_CURVE_SCHEMA,
    "gram-eig": GRAM_EIG_SCHEMA,
    "cnn-label": CNN_LABEL_SCHEMA,
}
