import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from lalec import operator_graph as og
from lalec import schema_model as sm
from lalec.space_normalizer import Cont
from oracles import (
    reference_best_effort_defaults,
    reference_cont_admits_scalar,
    reference_declared_default,
    reference_default_config,
    reference_exact_json_key,
    reference_in_range,
    reference_quantize_admitted,
)


LR_DOC = """
{
  "allOf": [
    {"type": "object", "additionalProperties": false, "properties": {
      "S": {"enum": ["linear", "sag", "lbfgs"], "default": "linear"},
      "P": {"enum": ["l1", "l2"], "default": "l2"}}},
    {"description": "sag and lbfgs only support penalty l2",
     "anyOf": [
       {"not": {"type": "object", "properties": {"S": {"enum": ["sag", "lbfgs"]}}}},
       {"type": "object", "properties": {"P": {"enum": ["l2"]}}}]}
  ]
}
"""


@pytest.fixture(scope="module")
def lr_schema():
    return sm.parse_schema(LR_DOC)


class TestParse:
    def test_lr_document_shape(self, lr_schema):
        assert isinstance(lr_schema, sm.AllOfNode)
        base, constraint = lr_schema.children
        assert isinstance(base, sm.ObjectNode)
        assert dict(base.properties)["S"].values == ("linear", "sag", "lbfgs")
        assert isinstance(constraint, sm.AnyOfNode)
        negated, implied = constraint.children
        assert isinstance(negated, sm.NotNode)
        assert dict(negated.child.properties)["S"].values == ("sag", "lbfgs")
        assert dict(implied.properties)["P"].values == ("l2",)

    def test_single_enum(self):
        node = sm.parse_schema('{"enum": ["mle"]}')
        assert node == sm.EnumNode(("mle",))

    def test_open_unit_interval(self):
        node = sm.parse_schema(
            '{"type": "number", "minimum": 0, "maximum": 1,'
            ' "exclusiveMinimum": true, "exclusiveMaximum": true}')
        assert (node.lo, node.hi, node.lo_open, node.hi_open) == (0, 1, True, True)
        assert not node.integer_valued

    def test_malformed_json(self):
        with pytest.raises(sm.MalformedJson):
            sm.parse_schema("{not json")

    @pytest.mark.parametrize("doc,keyword", [
        ('{"type": "string"}', "type:string"),
        ('{"oneOf": [{"enum": [1]}]}', "oneOf"),
        ('{"type": "number", "minimum": 0, "maximum": 1, "multipleOf": 2}', "multipleOf"),
        ('{"relevantToOptimizer": ["k"]}', "relevantToOptimizer"),
        ('{"$ref": "#/x"}', "$ref"),
    ])
    def test_unsupported_keywords(self, doc, keyword):
        with pytest.raises(sm.UnsupportedKeyword) as err:
            sm.parse_schema(doc)
        assert keyword in str(err.value)

    def test_negated_range_rejected_at_parse(self):
        doc = '{"not": {"type": "object", "properties": {"C": {"type": "number", "minimum": 0, "maximum": 1}}}}'
        with pytest.raises(sm.UnsupportedNegation):
            sm.parse_schema(doc)

    @pytest.mark.parametrize("doc", [
        '{"enum": []}',
        '{"enum": [1, 1]}',
        '{"enum": [1, 2], "default": 3}',
        '{"type": "number", "minimum": 2, "maximum": 1}',
        '{"type": "number", "minimum": 1, "maximum": 1, "exclusiveMinimum": true}',
        '{"type": "number", "minimum": 0, "maximum": 1, "distribution": "loguniform"}',
        '{"type": "number", "minimum": 0, "maximum": 1, "quantization": 0}',
        '{"type": "number", "maximum": 1}',
        '{"typeForOptimizer": "tensor"}',
    ])
    def test_invalid_schemas(self, doc):
        with pytest.raises(sm.InvalidSchema):
            sm.parse_schema(doc)

    @pytest.mark.parametrize("bounds", [(math.nan, 1.0), (0.0, math.nan), (math.nan, math.nan)])
    def test_nan_bound_is_refused(self, bounds):
        lo, hi = bounds
        with pytest.raises(sm.InvalidSchema, match="NaN"):
            sm.parse_schema({"type": "number", "minimum": lo, "maximum": hi})
        with pytest.raises(sm.InvalidSchema, match="NaN"):
            sm.parse_schema(f'{{"type": "number", "minimum": {lo}, "maximum": {hi}}}'
                            .replace("nan", "NaN"))

    @pytest.mark.parametrize("kind", ["number", "integer"])
    @pytest.mark.parametrize("bounds", [(0, math.inf), (-math.inf, 1), (-math.inf, math.inf)])
    def test_infinite_bound_is_refused(self, kind, bounds):
        lo, hi = bounds
        doc = {"type": kind, "minimum": lo, "maximum": hi}
        with pytest.raises(sm.InvalidSchema, match="finite"):
            sm.parse_schema(doc)
        with pytest.raises(sm.InvalidSchema, match="finite"):
            sm.parse_schema(json.dumps(doc))
        for big in ("1e400", "1" + "0" * 400):  # a float and an int past the largest float
            with pytest.raises(sm.InvalidSchema, match="finite"):
                sm.parse_schema(json.dumps(doc).replace("Infinity", big))

    def test_boolean_enum_distinct_from_numbers(self):
        node = sm.parse_schema('{"enum": [true, 1]}')
        assert node.values == (True, 1)

    def test_serialize_round_trip(self, registry):
        for op in registry.values():
            doc = sm.serialize(op.schema)
            assert sm.parse_schema(json.dumps(doc)) == op.schema


class TestValidate:
    def test_constraint_violation(self, lr_schema):
        report = sm.validate({"S": "sag", "P": "l1"}, lr_schema)
        assert not report.ok
        assert report.violations[0].kind == "constraintViolated"
        assert "l2" in report.violations[0].constraint

    def test_first_disjunct_admits_linear(self, lr_schema):
        assert sm.validate({"S": "linear", "P": "l1"}, lr_schema).ok

    def test_j48_implication(self, registry):
        schema = registry["J48"].schema
        report = sm.validate({"R": True, "C": 0.3}, schema)
        assert not report.ok
        assert report.violations[0].kind == "constraintViolated"
        assert sm.validate({"R": True, "C": 0.25}, schema).ok
        assert sm.validate({"R": False, "C": 0.3}, schema).ok

    def test_empty_config_vacuous(self, registry, lr_schema):
        assert sm.validate({}, lr_schema).ok
        for op in registry.values():
            assert sm.validate({}, op.schema).ok

    def test_unknown_name(self, lr_schema):
        report = sm.validate({"Q": 1}, lr_schema)
        assert not report.ok
        assert report.violations[0].kind == "unknownName"

    def test_type_and_range_kinds(self, registry):
        schema = registry["J48"].schema
        assert sm.validate({"C": "x"}, schema).violations[0].kind == "type"
        assert sm.validate({"C": 0.7}, schema).violations[0].kind == "range"
        assert sm.validate({"R": "yes"}, schema).violations[0].kind == "enum"

    def test_integer_valued(self, registry):
        schema = registry["KNN"].schema
        assert sm.validate({"k": 3}, schema).ok
        assert sm.validate({"k": 3.5}, schema).violations[0].kind == "type"
        assert sm.validate({"k": 3.0}, schema).ok

    def test_bool_not_a_number(self, registry):
        schema = registry["J48"].schema
        assert not sm.validate({"C": True}, schema).ok

    def test_open_bounds_strict(self, registry):
        schema = registry["J48"].schema
        assert not sm.validate({"C": 0.0}, schema).ok
        assert not sm.validate({"C": 0.5}, schema).ok
        assert sm.validate({"C": 0.25}, schema).ok

    def test_singleton_conjunction_identity(self, registry, lr_schema):
        configs = [{}, {"S": "sag", "P": "l1"}, {"S": "linear"}, {"P": "l2"}]
        for config in configs:
            wrapped = sm.AllOfNode((lr_schema,))
            assert sm.validate(config, wrapped) == sm.validate(config, lr_schema)

    def test_validate_pure(self, lr_schema):
        config = {"S": "sag", "P": "l1"}
        assert sm.validate(config, lr_schema) == sm.validate(config, lr_schema)

    def test_operator_slot(self, registry):
        schema = registry["BoostedEnsemble"].schema
        assert sm.validate({"base": None}, schema).ok
        assert sm.validate({"base": registry["PrunedTree"]}, schema).ok
        assert not sm.validate({"base": 3}, schema).ok

    @given(st.one_of(st.booleans(), st.integers(-5, 5), st.text(max_size=4)))
    def test_enum_membership_matches_python_semantics(self, value):
        node = sm.EnumNode((True, False, 1, "a"))
        report = sm.validate({"x": value}, sm.ObjectNode((("x", node),)))
        expected = any(sm.scalar_eq(value, v) for v in node.values)
        assert report.ok == expected


class TestDefaults:
    def test_j48_defaults(self, registry):
        schema = registry["J48"].schema
        config = sm.default_config(schema)
        assert config == {"R": False, "C": 0.25}
        assert sm.validate(config, schema).ok

    def test_lr_defaults(self, registry):
        schema = registry["LR"].schema
        config = sm.default_config(schema)
        assert config == {"solver": "linear", "penalty": "l2"}
        assert sm.validate(config, schema).ok

    def test_singleton_enum_default(self):
        schema = sm.parse_schema(
            '{"type": "object", "properties": {"N": {"enum": ["mle"], "default": "mle"}}}')
        assert sm.default_config(schema) == {"N": "mle"}

    def test_every_fixture_default_validates(self, registry):
        for name, op in registry.items():
            config = sm.default_config(op.schema)
            assert sm.validate(config, op.schema).ok, name

    def test_missing_default(self):
        schema = sm.parse_schema(
            '{"type": "object", "properties": {"x": {"enum": [1, 2]}}}')
        with pytest.raises(sm.MissingDefault):
            sm.default_config(schema)


DEFAULT_VALUES = st.one_of(st.just(sm.MISSING), st.none(), st.sampled_from([0, 2.5, "a", True]))
LEAF_DOMAINS = st.one_of(
    DEFAULT_VALUES.map(lambda d: sm.RangeNode(0, 10, default=d)),
    DEFAULT_VALUES.map(lambda d: sm.EnumNode(("a", "b"), default=d)),
    DEFAULT_VALUES.map(lambda d: sm.OperatorSlotNode(default=d)),
    st.just(sm.AnyNode()),
)
DOMAINS = st.recursive(LEAF_DOMAINS, lambda children: st.one_of(
    st.builds(lambda alts, d: sm.AnyOfNode(tuple(alts), default=d),
              st.lists(children, min_size=1, max_size=3), DEFAULT_VALUES),
    st.lists(children, min_size=1, max_size=2).map(lambda parts: sm.AllOfNode(tuple(parts))),
), max_leaves=8)


@st.composite
def default_schemas(draw):
    """Base objects of nested anyOf/allOf domains with and without defaults,
    bare or as the first conjunct of an allOf."""
    props = tuple((f"p{i}", draw(DOMAINS)) for i in range(draw(st.integers(0, 4))))
    base = sm.ObjectNode(props)
    return sm.AllOfNode((base, sm.AnyNode())) if draw(st.booleans()) else base


def _default_config_outcome(fn, schema):
    try:
        return ("returned", list(fn(schema).items()))
    except sm.MissingDefault as exc:
        return ("raised", exc.path, str(exc))


class TestOneDefaultResolver:
    """schema_model.defaults against the three resolvers it replaced."""

    def _agree(self, schema):
        found = sm.defaults(schema)
        declared = sm.declared_domains(schema)
        assert list(found.items()) == list(reference_best_effort_defaults(schema).items())
        assert list(found.items()) == [
            (name, d) for name, node in declared.items()
            if (d := reference_declared_default(node)) is not sm.MISSING]
        assert (_default_config_outcome(sm.default_config, schema)
                == _default_config_outcome(reference_default_config, schema))
        assert list(og._best_effort_defaults(schema).items()) == list(found.items())

    def test_registry_schemas(self, registry):
        for op in registry.values():
            self._agree(op.schema)

    @settings(max_examples=300, deadline=None)
    @given(schema=default_schemas())
    def test_built_schemas(self, schema):
        self._agree(schema)

    def test_nested_anyof_takes_the_first_alternative_with_a_default(self):
        inner = sm.AnyOfNode((sm.AnyNode(), sm.EnumNode((1, 2), default=2)))
        schema = sm.ObjectNode((
            ("x", sm.AnyOfNode((sm.RangeNode(0, 1), inner, sm.EnumNode((3,), default=3)))),
            ("y", sm.AnyOfNode((sm.RangeNode(0, 1, default=0.5),), default=None)),
            ("z", sm.AllOfNode((sm.EnumNode((1,), default=1),))),
        ))
        self._agree(schema)
        assert sm.defaults(schema) == {"x": 2, "y": None}
        with pytest.raises(sm.MissingDefault, match=r"\$\.z"):
            sm.default_config(schema)

    def test_no_base_object(self):
        schema = sm.AnyOfNode((sm.ObjectNode(()),))
        with pytest.raises(sm.NoBaseObject):
            sm.defaults(schema)
        assert og._best_effort_defaults(schema) == reference_best_effort_defaults(schema) == {}

    def test_each_call_gives_a_fresh_dict(self, registry):
        schema = registry["J48"].schema
        first = sm.defaults(schema)
        first["R"] = "changed"
        assert sm.defaults(schema) == {"R": False, "C": 0.25}
        op = registry["J48"]
        og.effective_config(op)["R"] = "changed"
        assert og.effective_config(op) == {"R": False, "C": 0.25}

    def test_mutating_a_defaults_dict_leaves_configure_alone(self, registry):
        # configure and effective_config read the schema's cached defaults;
        # defaults hands out a copy of them.
        op = registry["J48"]
        before = (og.configure(op, {"C": 0.1}), og.effective_config(op))
        found = sm.defaults(op.schema)
        found.update(R="changed", C=7.0, extra=1)
        assert og.configure(op, {"C": 0.1}) == before[0]
        assert og.effective_config(op) == before[1] == {"R": False, "C": 0.25}


class TestDeclaredDomains:
    def test_j48(self, registry):
        domains = sm.declared_domains(registry["J48"].schema)
        assert domains["R"].values == (True, False)
        assert (domains["C"].lo, domains["C"].hi) == (0.0, 0.5)

    def test_lr(self, registry):
        domains = sm.declared_domains(registry["LR"].schema)
        assert domains["solver"].values == ("linear", "sag", "lbfgs")
        assert domains["penalty"].values == ("l1", "l2")

    def test_unconstrained_passthrough(self):
        schema = sm.parse_schema('{"type": "object", "properties": {"x": {"enum": [1]}}}')
        assert sm.declared_domains(schema) == {"x": sm.EnumNode((1,))}

    def test_no_base_object(self):
        with pytest.raises(sm.NoBaseObject):
            sm.declared_domains(sm.EnumNode((1,)))


# Finite bounds: small integers (as int and as float), ±0, and floats of any
# finite size.
BOUNDS = st.one_of(st.integers(-20, 20), st.integers(-20, 20).map(float),
                   st.sampled_from([0.0, -0.0]), st.floats(allow_nan=False, allow_infinity=False))


@st.composite
def range_cases(draw):
    """(lo, hi, lo_open, hi_open, integer_valued, value), the value often on
    or next to a bound."""
    lo, hi = sorted((draw(BOUNDS), draw(BOUNDS)))
    near = [lo, hi, math.nextafter(lo, -math.inf), math.nextafter(hi, math.inf)]
    value = draw(st.one_of(
        st.sampled_from(near),
        st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan, True, False,
                         10**400, -10**400, 2**53 + 1, "1", None]),
        st.integers(-25, 25), st.integers(-25, 25).map(float),
        st.integers(), st.floats()))
    return lo, hi, draw(st.booleans()), draw(st.booleans()), draw(st.booleans()), value


def _outcome(predicate, *args):
    try:
        return predicate(*args)
    except (ValueError, OverflowError):  # int(nan), int(inf), float(10**400)
        return "raised"


class TestOneRangePredicate:
    """schema_model.in_range against the range tests it replaced."""

    @settings(max_examples=600, deadline=None)
    @given(case=range_cases())
    @example(case=(0.0, 1.0, False, False, False, math.nan))
    @example(case=(0, 1e300, False, False, True, 2**53 + 1))
    @example(case=(0, 1e300, False, False, True, 10**400))
    def test_agrees_with_each_old_predicate(self, case):
        lo, hi, lo_open, hi_open, integer, value = case
        new = sm.in_range(value, lo, hi, lo_open, hi_open, integer)
        domain = Cont(lo, hi, lo_open, hi_open, integer)
        olds = [_outcome(reference_in_range, value, lo, hi, lo_open, hi_open, integer),
                _outcome(reference_cont_admits_scalar, domain, value)]
        if not integer and isinstance(value, (int, float)) and not isinstance(value, bool):
            # The quantized draw's test only ever saw numbers on real domains.
            olds.append(_outcome(reference_quantize_admitted, value, lo, hi, lo_open, hi_open))
        for old in olds:
            if old == "raised":
                assert new is False
            elif isinstance(value, float) and math.isnan(value):
                # The one change on real domains: NaN was admitted.
                assert (old, new) == (True, False)
            elif integer and type(value) is int and float(value) != value:
                # An int that no float equals was refused as non-integral.
                assert old is False
                assert new == reference_in_range(value, lo, hi, lo_open, hi_open, False)
            else:
                assert new == old

    @pytest.mark.parametrize("value, integer, admitted", [
        (math.nan, False, False), (math.nan, True, False),
        (math.inf, True, False), (2**60 + 1, True, True), (10**400, True, False),
        (True, False, False), (-0.0, True, True), (3.0, True, True), (3.5, True, False),
    ])
    def test_edges(self, value, integer, admitted):
        assert sm.in_range(value, -0.0, 2.0**61, False, False, integer) is admitted


# Values that are equal in Python but not in type or bits, NaNs of both
# signs, values JSON cannot key (a tuple prints as a list, np.float64 as a
# float), and strings that look like the others.
_KEY_VALUES = st.one_of(
    st.sampled_from([0, 1, -1, 0.0, -0.0, 1.0, math.nan, -math.nan, math.inf, -math.inf,
                     True, False, None, "1", "1.0", "true", "nan", "", (1,), [1],
                     np.float64(1.0), np.int64(1), np.bool_(True)]),
    st.floats(allow_nan=True), st.integers(-2**70, 2**70), st.text(max_size=3))
_KEY_MAPPINGS = st.dictionaries(st.one_of(st.sampled_from(["a", "b", "a__b", ""]), st.text(max_size=2),
                                          st.sampled_from([1, None, 1.5])),
                                _KEY_VALUES, max_size=3)


class TestExactJsonKey:
    @settings(max_examples=400, deadline=None)
    @given(_KEY_MAPPINGS, _KEY_MAPPINGS, st.data())
    def test_tells_apart_what_the_json_key_tells_apart(self, a, b, data):
        if a and data.draw(st.booleans()):
            # b shares a's names, and most of its values.
            b = {**a, **{k: data.draw(_KEY_VALUES) for k in list(a)[:data.draw(st.integers(0, 1))]}}
        keys = [sm.exact_json_key(m) for m in (a, b)]
        references = [reference_exact_json_key(m) for m in (a, b)]
        assert [k is None for k in keys] == [r is None for r in references]
        if None not in keys:
            assert (keys[0] == keys[1]) == (references[0] == references[1])
            assert isinstance(keys[0], str)
