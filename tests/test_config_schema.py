"""The config validator against jsonschema, its oracle.

``experiments._violations`` implements the Draft 2020-12 keywords that the
config schemas use.  At every node of the three schemas (an experiment
config, a ``fit``/``adapt`` settings document and a ``simulate`` config)
each test document gets a value of each JSON kind, loses each key and
gains an unknown one; both validators must report the same violations,
by field path and keyword, in the same order and with the same message.
"""

import copy

import jsonschema
import pytest

from roblp.cli import _SETTINGS_SCHEMA, _SIMULATE_SCHEMA
from roblp.experiments import CONFIG_SCHEMA, ConfigError, _finite, _json_path, _validate, _violations
from roblp.harness import ESTIMATOR_FIELDS
from roblp.simulate import HETEROSCEDASTIC_KINDS, TEST_FUNCTIONS

# Draft 2020-12 with the validator's finite number and integer types.
Oracle = jsonschema.validators.extend(
    jsonschema.Draft202012Validator,
    type_checker=jsonschema.Draft202012Validator.TYPE_CHECKER.redefine_many(
        {"number": lambda c, v: _finite(v), "integer": lambda c, v: isinstance(v, int) and _finite(v)}
    ),
)

KINDS = [None, True, 0, -1, 1.5, 10**400, float("nan"), float("inf"), "s", [], {}, [None], {"zz": 1}]
EXPERIMENTS = ("rates", "tails", "compare")


def _documents() -> dict:
    """Per schema, documents that hold every node of it (arrays of two
    items), between them taking each branch of its ifs: every experiment,
    test function and estimator kind."""
    functions = [{"name": name, **dict.fromkeys(params, 1)} for name, (_, params) in TEST_FUNCTIONS.items()]
    noise = {
        "family": "laplace",
        "scale": 0.5,
        "sigma_min": 0.1,
        "heteroscedastic": {"kind": HETEROSCEDASTIC_KINDS[1], "factor": 2.0, "amplitude": 0.5, "period": 4},
    }
    estimators = [
        {
            "kind": kind,
            "contrast": {"kind": "huber", "gamma": 1.0},
            "kernel": "uniform",
            "bound": 8.0,
            "x0": [0.25, 0.5],
            "h": 0.2,
            "degree": 2,
            "beta": 2.0,
            "lipschitz": 1.0,
            "curvature": None,
            "risk_power": 2.0,
            "gradient_tolerance": 1e-8,
            "max_iterations": 100,
        }
        for kind in ESTIMATOR_FIELDS
    ]
    configs = [
        {
            "experiment": EXPERIMENTS[i % 3],
            "seed": 3,
            "function": functions[i],
            "noise": noise,
            "estimator": estimators[i % 3],
            "grid": {"n": 128, "n_values": [128, 256], "epsilon_multipliers": [1.0, 2.0]},
            "risk": {"replications": 10, "power": 2.0, "workers": 1},
            "output": {"directory": "out", "prefix": "p"},
        }
        for i in range(len(functions))
    ]
    return {
        "config": (CONFIG_SCHEMA, configs),
        "settings": (_SETTINGS_SCHEMA, [{"estimator": e, "noise": noise} for e in estimators]),
        "simulate": (
            _SIMULATE_SCHEMA,
            [{"function": f, "noise": noise, "n": 128, "seed": 3, "output": "d.csv"} for f in functions],
        ),
    }


def _nodes(schema, path=()) -> set:
    """The instance path of every node of ``schema``, an array's item at
    index 1."""
    paths = {path}
    if isinstance(schema, dict):
        for name, sub in schema.get("properties", {}).items():
            paths |= _nodes(sub, (*path, name))
        if "items" in schema:
            paths |= _nodes(schema["items"], (*path, 1))
        for sub in [*schema.get("allOf", []), schema.get("if"), schema.get("then")]:
            paths |= _nodes(sub, path)
    return paths


def _put(document, path, value):
    """A copy of ``document`` with ``value`` at ``path``."""
    if not path:
        return copy.deepcopy(value)
    out = copy.deepcopy(document)
    *parents, last = path
    node = out
    for step in parents:
        node = node[step]
    node[last] = copy.deepcopy(value)
    return out


def _cases(document, paths):
    """Each node of ``paths`` set to each of KINDS, each key of an object
    node dropped, and an unknown key added to it."""
    for path in sorted(paths, key=str):
        for value in KINDS:
            yield _put(document, path, value)
        node = document
        for step in path:
            node = node.get(step) if isinstance(node, dict) else node[step]
        if isinstance(node, dict):
            for key in node:
                yield _put(document, path, {k: v for k, v in node.items() if k != key})
            yield _put(document, path, {**node, "zz_unknown": 1})


def _ours(document, schema) -> list:
    errors = sorted(_violations(document, schema), key=lambda e: _json_path(e[0]))
    return [(_json_path(path), keyword, message) for path, keyword, message in errors]


def _oracle(document, validator) -> list:
    errors = sorted(validator.iter_errors(document), key=lambda e: e.json_path)
    return [(e.json_path, e.validator, e.message) for e in errors]


@pytest.mark.parametrize("name", ["config", "settings", "simulate"])
def test_validator_matches_jsonschema_at_every_node(name):
    schema, documents = _documents()[name]
    validator = Oracle(schema)
    paths = _nodes(schema)
    cases = failing = 0
    for document in documents:
        assert _ours(document, schema) == _oracle(document, validator)
        for case in _cases(document, paths):
            expected = _oracle(case, validator)
            assert _ours(case, schema) == expected, case
            cases += 1
            failing += bool(expected)
    # every node was reached, and most cases break the schema
    assert cases > len(paths) * len(KINDS) * len(documents) and failing > cases // 2


def test_keywords_used_only_in_conditions_report_as_jsonschema_does():
    # const appears only in the schemas' ifs, whose violations are never
    # reported; enum's JSON equality tells true from 1
    schema = {"properties": {"a": {"const": "x"}, "b": {"enum": [1, "s", None]}, "c": {"const": 0}}}
    validator = Oracle(schema)
    for value in [*KINDS, "x", False, 0.0, 1.0]:
        document = dict.fromkeys("abc", value)
        assert _ours(document, schema) == _oracle(document, validator), value


def test_an_unsupported_schema_keyword_raises():
    for schema in (
        {"properties": {"a": {"maxItems": 1}}},
        {"additionalProperties": {"type": "number"}},
        {"if": True, "then": True, "else": False},
    ):
        with pytest.raises(ValueError, match="unsupported schema keyword"):
            _validate({"a": [1, 2]}, schema)


def test_a_false_schema_rejects_and_an_if_without_then_passes():
    assert _ours({"a": 1}, {"properties": {"a": False}}) == [("$.a", None, "False schema does not allow 1")]
    assert _ours(1, {"if": {"type": "number"}}) == []
    with pytest.raises(ConfigError, match=r"^invalid experiment config:\n  \$\.a: False schema does not allow 1$"):
        _validate({"a": 1}, {"properties": {"a": False}})
