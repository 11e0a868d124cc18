import itertools
import json
import math
import random
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from lalec import operator_graph as og
from lalec import optimizer as opt
from lalec import schema_model as sm
from lalec import space_normalizer as norm
from lalec import toyml
from lalec.space_backends import CompileError, compile_space, sample_space
from lalec.space_normalizer import EMPTY, intersect_domain, member

from conftest import ENUM_POOL, has_overlapping_alternatives, partial_record_cases, probe_lattice
from oracles import reference_normalize, reference_validate, serialize, to_schema


def disjunct_sets(nf):
    """Order-insensitive canonical form of a normal form."""
    out = []
    for disjunct in nf.disjuncts:
        canon = {}
        for name, domain in disjunct.items():
            if isinstance(domain, sm.EnumNode):
                canon[name] = ("cat", tuple(domain.values))
            else:
                canon[name] = ("cont", domain.lo, domain.hi, domain.lo_open, domain.hi_open)
        out.append(tuple(sorted(canon.items())))
    return sorted(out)


class TestNormalize:
    def test_pca_normal_form(self, registry):
        nf = norm.normalize(registry["PCA"].schema)
        assert disjunct_sets(nf) == sorted([
            (("N", ("cont", 0.0, 1.0, True, True)),),
            (("N", ("cat", ("mle",))),),
        ])

    def test_j48_normal_form(self, registry):
        nf = norm.normalize(registry["J48"].schema)
        assert disjunct_sets(nf) == sorted([
            (("C", ("cont", 0.0, 0.5, True, True)), ("R", ("cat", (False,)))),
            (("C", ("cat", (0.25,))), ("R", ("cat", (True, False)))),
        ])

    def test_lr_normal_form(self, registry):
        nf = norm.normalize(registry["LR"].schema)
        assert disjunct_sets(nf) == sorted([
            (("penalty", ("cat", ("l1", "l2"))), ("solver", ("cat", ("linear",)))),
            (("penalty", ("cat", ("l2",))), ("solver", ("cat", ("linear", "sag", "lbfgs")))),
        ])

    def test_unconstrained_single_disjunct(self, registry):
        nf = norm.normalize(registry["KNN"].schema)
        assert len(nf.disjuncts) == 1
        assert set(nf.disjuncts[0]) == {"k", "weighting"}

    def test_implication_split_count(self, registry):
        # One implication splits the base disjunct in two, before empty-drop.
        for name in ("J48", "LR", "LogRegGD", "PrunedTree"):
            nf = norm.normalize(registry[name].schema)
            assert len(nf.disjuncts) == 2, name

    def test_same_name_set_per_disjunct(self, registry):
        for op in registry.values():
            nf = norm.normalize(op.schema)
            names = set(nf.disjuncts[0])
            assert all(set(d) == names for d in nf.disjuncts)

    def test_defaults_attached_when_admissible(self, registry):
        nf = norm.normalize(registry["J48"].schema)
        by_r = {d["R"].values: d for d in nf.disjuncts}
        assert by_r[(False,)]["C"].default == 0.25
        assert by_r[(True, False)]["C"].default == 0.25

    def test_empty_space(self):
        schema = sm.parse_schema("""
        {"allOf": [
          {"type": "object", "properties": {"x": {"enum": [1, 2]}}},
          {"type": "object", "properties": {"x": {"enum": [3]}}}]}
        """)
        with pytest.raises(norm.EmptySpace):
            norm.normalize(schema)

    def test_blowup_cap(self):
        properties = ", ".join(
            f'"p{i}": {{"anyOf": [{{"enum": [0]}}, {{"enum": [1]}}], "default": 0}}'
            for i in range(20)
        )
        schema = sm.parse_schema(f'{{"type": "object", "properties": {{{properties}}}}}')
        with pytest.raises(norm.BlowupExceeded):
            norm.normalize(schema, limit=1000)

    def test_complement_over_two_properties(self):
        # Negating an object with k enum properties yields up to k disjuncts.
        schema = sm.parse_schema("""
        {"allOf": [
          {"type": "object", "properties": {
            "a": {"enum": [1, 2, 3], "default": 1},
            "b": {"enum": [4, 5], "default": 4}}},
          {"not": {"type": "object", "properties": {
            "a": {"enum": [1]}, "b": {"enum": [4]}}}}]}
        """)
        nf = norm.normalize(schema)
        assert disjunct_sets(nf) == sorted([
            (("a", ("cat", (2, 3))), ("b", ("cat", (4, 5)))),
            (("a", ("cat", (1, 2, 3))), ("b", ("cat", (5,)))),
        ])
        # De Morgan oracle: membership must equal a brute-force check.
        for a in (1, 2, 3):
            for b in (4, 5):
                assert member(nf, {"a": a, "b": b}) == (not (a == 1 and b == 4))


class TestIntersect:
    def test_enum_inside_range(self):
        got = intersect_domain(sm.EnumNode((0.25,), 0.25), sm.RangeNode(0.0, 0.5, True, True))
        assert got == sm.EnumNode((0.25,), 0.25)

    def test_enum_enum(self):
        assert intersect_domain(sm.EnumNode(("l1", "l2")), sm.EnumNode(("l2",))) == sm.EnumNode(("l2",))

    def test_disjoint_ranges(self):
        assert intersect_domain(sm.RangeNode(0, 1), sm.RangeNode(2, 3)) is EMPTY

    def test_openness_or_at_coinciding_bounds(self):
        got = intersect_domain(sm.RangeNode(0, 1, False, True), sm.RangeNode(0, 1, True, False))
        assert (got.lo_open, got.hi_open) == (True, True)

    def test_degenerate_closed_point(self):
        got = intersect_domain(sm.RangeNode(0, 1), sm.RangeNode(1, 2))
        assert (got.lo, got.hi, got.lo_open, got.hi_open) == (1, 1, False, False)
        assert intersect_domain(sm.RangeNode(0, 1, False, True), sm.RangeNode(1, 2)) is EMPTY

    def test_prior_prefers_non_uniform(self):
        log = norm.Prior("loguniform", None)
        got = intersect_domain(sm.RangeNode(1, 2, prior=norm.Prior()), sm.RangeNode(1, 2, prior=log))
        assert got.prior.kind == "loguniform"

    def test_range_narrowing(self):
        got = intersect_domain(sm.RangeNode(0, 10), sm.RangeNode(3, 20, True, False))
        assert (got.lo, got.hi, got.lo_open, got.hi_open) == (3, 10, True, False)

    def test_enum_range_filters_values(self):
        got = intersect_domain(sm.EnumNode((0.1, 0.7, 0.3)), sm.RangeNode(0.0, 0.5, True, True))
        assert got.values == (0.1, 0.3)

    def test_boolean_values_never_match_numbers(self):
        assert intersect_domain(sm.EnumNode((True,)), sm.RangeNode(0.0, 2.0)) is EMPTY


class TestMember:
    def test_j48(self, registry):
        nf = norm.normalize(registry["J48"].schema)
        assert member(nf, {"R": True, "C": 0.25})
        assert not member(nf, {"R": True, "C": 0.3})
        assert member(nf, {"R": False, "C": 0.3})

    def test_defaults_are_members(self, registry):
        for name, op in registry.items():
            if name == "BoostedEnsemble":
                continue  # the slot disjunct is resolved at combine time
            config = sm.default_config(op.schema)
            assert sm.validate(config, op.schema).ok
            assert member(norm.normalize(op.schema), config), name

    def test_unknown_name_rejected(self, registry):
        nf = norm.normalize(registry["J48"].schema)
        assert not member(nf, {"R": False, "C": 0.3, "zz": 1})


def equivalence_probes(registry, name):
    domains = sm.declared_domains(registry[name].schema)
    axes = []
    for prop, node in sorted(domains.items()):
        if isinstance(node, sm.EnumNode):
            axes.append([(prop, v) for v in node.values])
        elif isinstance(node, sm.RangeNode):
            axes.append([(prop, v) for v in probe_lattice(node.lo, node.hi)])
        elif isinstance(node, sm.AnyOfNode):
            values = []
            for child in node.children:
                if isinstance(child, sm.EnumNode):
                    values.extend(child.values)
                elif isinstance(child, sm.RangeNode):
                    values.extend(probe_lattice(child.lo, child.hi))
            axes.append([(prop, v) for v in values])
    return [dict(combo) for combo in itertools.product(*axes)]


class TestEquivalenceOracle:
    @pytest.mark.parametrize("name", ["PCA", "J48", "LR", "LogRegGD", "KNN"])
    def test_member_agrees_with_validate(self, registry, name):
        schema = registry[name].schema
        nf = norm.normalize(schema)
        probes = equivalence_probes(registry, name)
        assert probes
        for config in probes:
            assert member(nf, config) == sm.validate(config, schema).ok, config

    @pytest.mark.parametrize("name", ["PCA", "J48", "LR"])
    def test_renormalization_equivalent(self, registry, name):
        # Idempotence in effect: renormalizing a schema rebuilt from the
        # normal form accepts exactly the same probes.
        schema = registry[name].schema
        nf = norm.normalize(schema)
        again = norm.normalize(to_schema(nf))
        for config in equivalence_probes(registry, name):
            assert member(again, config) == member(nf, config)


def _holds_a_value(domain):
    """Whether a domain admits some value, counting the integers of an
    integer range one by one (the ranges here are short)."""
    if isinstance(domain, sm.EnumNode):
        return bool(domain.values)
    if not isinstance(domain, sm.RangeNode):
        return True
    if domain.integer_valued:
        return any(sm.in_range(i, domain.lo, domain.hi, domain.lo_open, domain.hi_open, True)
                   for i in range(math.floor(domain.lo), math.ceil(domain.hi) + 1))
    return domain.lo < domain.hi or not (domain.lo_open or domain.hi_open)


# An operator to bind into slots: it has a name and a schema, as validate asks.
INNER = og.Individual("Inner", sm.parse_schema({"type": "object", "properties": {}}))


class TestRandomizedEquivalence:
    """Seeded fuzz: random schemas with implication constraints, checked
    exhaustively against validation over a probe grid."""

    POOL = ["a", "b", "c", 1, 2, True, False]

    def _random_schema(self, rng):
        properties = {}
        axes = {}
        for index in range(rng.randint(2, 3)):
            name = f"p{index}"
            if rng.random() < 0.6:
                values = rng.sample(self.POOL, rng.randint(2, 4))
                properties[name] = {"enum": values, "default": values[0]}
                axes[name] = list(values)
            else:
                lo, hi = sorted(rng.sample(range(0, 20), 2))
                properties[name] = {
                    "type": "integer", "minimum": lo, "maximum": hi + 1,
                    "default": lo, "distribution": "uniform",
                }
                span = hi + 1 - lo
                axes[name] = sorted({lo, lo + span // 2, hi + 1, lo + 1})
        base = {"type": "object", "additionalProperties": False, "properties": properties}
        conjuncts = [base]
        enum_names = [n for n in properties if "enum" in properties[n]]
        for _ in range(rng.randint(0, 2)):
            if len(enum_names) < 2:
                break
            trigger, implied = rng.sample(enum_names, 2)
            trigger_values = rng.sample(properties[trigger]["enum"],
                                        rng.randint(1, len(properties[trigger]["enum"]) - 1))
            implied_values = rng.sample(properties[implied]["enum"],
                                        rng.randint(1, len(properties[implied]["enum"])))
            conjuncts.append({"anyOf": [
                {"not": {"type": "object",
                         "properties": {trigger: {"enum": trigger_values}}}},
                {"type": "object", "properties": {implied: {"enum": implied_values}}},
            ]})
        doc = base if len(conjuncts) == 1 else {"allOf": conjuncts}
        return sm.parse_schema(json.dumps(doc)), axes

    def test_member_equals_validate_on_random_schemas(self):
        rng = random.Random(424242)
        for _ in range(60):
            schema, axes = self._random_schema(rng)
            names = sorted(axes)
            probes = [dict(zip(names, combo))
                      for combo in itertools.product(*(axes[n] for n in names))]
            try:
                nf = norm.normalize(schema)
            except norm.EmptySpace:
                for config in probes:
                    assert not sm.validate(config, schema).ok, config
                continue
            for config in probes:
                assert member(nf, config) == sm.validate(config, schema).ok, \
                    (serialize(schema), config)

    SLOT_PROBES = [INNER, {"operator": "Inner"}, {"operator": "Inner", "config": {}},
                   None, [1, 2], (1,), {"x": 1}, "Inner", 0]

    def _slot_schema(self, rng):
        """A slot, bare or beside null as in BoostedEnsemble, and an enum."""
        slot = {"typeForOptimizer": "operator"}
        if rng.random() < 0.5:
            slot = {"anyOf": [slot, {"enum": [None]}], "default": None}
        values = rng.sample(self.POOL, rng.randint(2, 4))
        properties = {"base": slot, "p0": {"enum": values, "default": values[0]}}
        doc = {"type": "object", "additionalProperties": False, "properties": properties}
        axes = {"base": self.SLOT_PROBES, "p0": values}
        return sm.parse_schema(json.dumps(doc)), axes

    def _numeric_schema(self, rng):
        """Integer ranges under constraint conjuncts whose number ranges
        are narrow enough to hold no integer, beside an enum alternative."""
        properties = {"w": {"enum": ["u", "d"], "default": "u"}}
        axes = {"w": ["u", "d"]}
        for index in range(rng.randint(1, 2)):
            lo = rng.randint(-3, 5)
            hi = lo + rng.randint(0, 20)
            properties[f"k{index}"] = {"type": "integer", "minimum": lo, "maximum": hi,
                                       "default": lo}
            axes[f"k{index}"] = sorted({lo, lo + 1, (lo + hi) // 2, hi, hi + 1,
                                        lo + 0.5, (lo + hi) / 2})
        conjuncts = [{"type": "object", "additionalProperties": False,
                      "properties": properties}]
        for _ in range(rng.randint(1, 3)):
            name = rng.choice([n for n in properties if n != "w"])
            at = properties[name]["minimum"] + rng.randint(-1, 6)
            lo = at + rng.choice([0.0, 0.2, 0.5])
            hi = lo + rng.choice([0.0, 0.3, 0.6, 1.5])
            narrow = {"type": "number", "minimum": lo, "maximum": hi,
                      "exclusiveMinimum": rng.random() < 0.3,
                      "exclusiveMaximum": rng.random() < 0.3}
            if lo == hi:
                narrow["exclusiveMinimum"] = narrow["exclusiveMaximum"] = False
            alternatives = [{"type": "object", "properties": {name: narrow}}]
            if rng.random() < 0.7:
                alternatives.append({"type": "object",
                                     "properties": {"w": {"enum": [rng.choice("ud")]}}})
            conjuncts.append({"anyOf": alternatives})
        return sm.parse_schema(json.dumps({"allOf": conjuncts})), axes

    def _check(self, schema, axes, bound=None):
        names = sorted(axes)
        probes = [dict(zip(names, combo))
                  for combo in itertools.product(*(axes[n] for n in names))]
        try:
            nf = norm.normalize(schema)
        except norm.EmptySpace:
            for config in probes:
                assert not sm.validate(config, schema).ok, config
            return
        for config in probes:
            assert member(nf, config) == sm.validate(config, schema).ok, \
                (serialize(schema), config)
        for disjunct in nf.disjuncts:
            for domain in disjunct.values():
                assert _holds_a_value(domain), (serialize(schema), domain)
        op = og.Individual("Probe", schema)
        if bound is not None:
            op = og.configure(op, bound)
        try:
            compiled = compile_space(op)
        except CompileError as exc:  # an unbound slot in every disjunct
            assert bound is None and "admits no search disjunct" in str(exc)
            return
        hier = compiled.hierarchical()
        rng = random.Random(len(probes))
        for _ in range(20):
            compiled.decode(sample_space(hier, rng))

    def test_operator_slots_admit_what_validate_admits(self):
        rng = random.Random(5150)
        for _ in range(20):
            schema, axes = self._slot_schema(rng)
            self._check(schema, axes)
            self._check(schema, axes, bound={"base": INNER})

    def test_member_equals_validate_on_numeric_constraints(self):
        rng = random.Random(1218)
        for _ in range(80):
            self._check(*self._numeric_schema(rng))

    def test_constrained_knn_keeps_its_one_satisfiable_disjunct(self):
        schema = sm.parse_schema({"allOf": [
            {"type": "object", "additionalProperties": False, "properties": {
                "k": {"type": "integer", "minimum": 1, "maximum": 25, "default": 5},
                "weighting": {"enum": ["uniform", "distance"], "default": "uniform"}}},
            {"anyOf": [
                {"type": "object", "properties": {
                    "k": {"type": "number", "minimum": 1.2, "maximum": 1.8}}},
                {"type": "object", "properties": {"weighting": {"enum": ["distance"]}}}]}]})
        nf = norm.normalize(schema)
        assert len(nf.disjuncts) == 1
        assert nf.disjuncts[0]["weighting"].values == ("distance",)
        self._check(schema, {"k": [0, 1, 1.5, 2, 25, 26], "weighting": ["uniform", "distance"]})
        compiled = compile_space(og.Individual("ConstrainedKNN", schema))
        history = opt.random_search(compiled.hierarchical(),
                                    lambda point: float(compiled.decode(point).bound["k"]),
                                    opt.OptimizerSpec(max_trials=20, seed=0))
        assert [t.status for t in history.trials] == [opt.VALID] * 20


def _property_schema(prop):
    return sm.parse_schema({"type": "object", "properties": {"x": prop}})


REGISTRY_SCHEMAS = {name: op.schema for name, op in toyml.load_registry().items()}
# Values that compare, print or convert alike (1, 1.0 and True; 0.0 and
# -0.0), that no range admits (NaN, infinities), ints beyond a float's
# reach, and values of every other kind validation meets.
ADVERSARIAL = [True, False, 0, 1, 1.0, -1, 0.0, -0.0, 0.5, 3, 3.0, 25, 25.5, math.nan,
               math.inf, -math.inf, 2**53 + 1, 10**400, -(10**30), None, "", "a", "1",
               "true", "uniform", [], [1], (1,), {}, {"x": 1}, INNER, {"operator": "Inner"}]


def _domain_probes(node) -> list:
    """Values in and at the edges of a declared domain."""
    if isinstance(node, sm.EnumNode):
        return list(node.values)
    if isinstance(node, sm.RangeNode):
        return [node.lo, node.hi, (node.lo + node.hi) / 2, node.lo - 1, node.hi + 1]
    if isinstance(node, sm.AnyOfNode):
        return [v for child in node.children for v in _domain_probes(child)]
    return []


@st.composite
def schemas_and_configs(draw):
    """A registry schema or a TestRandomizedEquivalence random schema, and
    a configuration of some declared names and an unknown one, each holding
    a value of its domain or an adversarial one."""
    if draw(st.booleans()):
        schema = REGISTRY_SCHEMAS[draw(st.sampled_from(sorted(REGISTRY_SCHEMAS)))]
    else:
        seed = draw(st.integers(0, 2**32))
        schema = TestRandomizedEquivalence()._random_schema(random.Random(seed))[0]
    domains = sm.declared_domains(schema)
    names = draw(st.lists(st.sampled_from(sorted(domains) + ["unknown"]), max_size=4,
                          unique=True))
    config = {}
    for name in names:
        values = st.sampled_from(_domain_probes(domains.get(name)) + ADVERSARIAL)
        config[name] = draw(values | st.integers() | st.floats() | st.text(max_size=3))
    return schema, config


def _report(validate, config, schema):
    try:
        report = validate(config, schema)
    except Exception as exc:
        return "raised", type(exc), str(exc)
    return report.ok, [(v.path, v.constraint, v.kind) for v in report.violations]


def assert_schema_leaves(nf):
    for disjunct in nf.disjuncts:
        for domain in disjunct.values():
            assert type(domain) in (sm.EnumNode, sm.RangeNode, sm.OperatorSlotNode), domain
            assert domain.description == "", domain


class TestNormalFormsHoldSchemaLeaves:
    """A normal form is written in the schema's own leaf nodes, without their
    descriptions, so two domains are equal exactly when they admit the same
    values under the same default and prior."""

    def test_every_registry_schema(self, registry):
        for op in registry.values():
            for schema in (op.schema, norm.drop_constraints(op.schema)):
                assert_schema_leaves(norm.normalize(schema))

    def test_random_schemas(self):
        rng = random.Random(424242)
        for _ in range(60):
            schema, _ = TestRandomizedEquivalence()._random_schema(rng)
            for each in (schema, norm.drop_constraints(schema)):
                try:
                    assert_schema_leaves(norm.normalize(each))
                except norm.EmptySpace:
                    pass

    def test_a_description_splits_no_domain(self):
        schema = sm.parse_schema({"type": "object", "properties": {
            "x": {"anyOf": [{"enum": ["a", "b"], "description": "first"},
                            {"enum": ["a", "b"], "description": "second"}]},
            "y": {"anyOf": [{"type": "number", "minimum": 0, "maximum": 1},
                            {"enum": ["c"]}]}}})
        nf = norm.normalize(schema)
        assert len(nf.disjuncts) == 4
        assert len({repr(d["x"]) for d in nf.disjuncts}) == 1
        pcs = compile_space(og.Individual("T", schema)).pcs()
        assert [line.split()[0] for line in pcs.splitlines() if line.startswith("t__x")] == \
            ["t__x"]


class TestValidateMatchesReference:
    @settings(max_examples=500, deadline=None)
    @given(case=schemas_and_configs())
    def test_same_report(self, case):
        schema, config = case
        got = _report(sm.validate, config, schema)
        assert got == _report(reference_validate, config, schema)
        if got[0] is True:
            assert sm.validate(config, schema) is sm.VALID

    def test_cases_reach_every_kind_of_violation(self):
        # Fixed cases of each kind, in case the draws above miss one.
        j48, knn = REGISTRY_SCHEMAS["J48"], REGISTRY_SCHEMAS["KNN"]
        cases = [(j48, {"R": True, "C": 0.3}, "constraintViolated"),
                 (j48, {"C": math.nan}, "range"), (j48, {"C": "0.3"}, "type"),
                 (knn, {"k": 3.5}, "type"), (knn, {"k": 10**400}, "range"),
                 (knn, {"weighting": 1}, "enum"), (knn, {"unknown": 1}, "unknownName")]
        for schema, config, kind in cases:
            got = _report(sm.validate, config, schema)
            assert got == _report(reference_validate, config, schema)
            assert got[0] is False and got[1][0][2] == kind


class TestBlowupCap:
    """The cap applies to every list the normal form builds, property
    alternatives included, as the list grows."""

    def test_property_product_refused_as_it_grows(self, monkeypatch):
        calls = 0

        def counting(a, b):
            nonlocal calls
            calls += 1
            return intersect_domain(a, b)

        monkeypatch.setattr(norm, "intersect_domain", counting)
        # Every pair of these ranges overlaps: 1,000 alternatives in full.
        schema = _property_schema({"allOf": [
            {"anyOf": [{"type": "number", "minimum": 0, "maximum": 10 + i + j}
                       for i in range(10)]}
            for j in range(3)]})
        with pytest.raises(norm.BlowupExceeded):
            norm.normalize(schema, limit=50)
        assert calls <= 2 * (50 + 1)

    def test_intermediate_property_product_is_refused_before_narrowing(self):
        # 40,000 intersections, of which a later conjunct keeps one.
        ranges = {"anyOf": [{"type": "number", "minimum": 0, "maximum": 10 + i}
                            for i in range(200)]}
        schema = _property_schema({"allOf": [
            ranges, ranges, {"type": "number", "minimum": 208.5, "maximum": 300}]})
        with pytest.raises(norm.BlowupExceeded):
            norm.normalize(schema)

    @pytest.mark.parametrize("names,alternatives", [(2, 200), (3, 100), (4, 50)])
    def test_a_product_past_the_cap_is_refused_before_it_is_built(self, names, alternatives):
        # The base object's product, and a constraint object's after a base
        # of one record, are counted before a record is built.
        def properties(domain):
            return {"type": "object", "properties": {f"p{i}": domain for i in range(names)}}

        split = {"anyOf": [{"enum": [value]} for value in range(alternatives)]}
        whole = {"enum": list(range(alternatives))}
        message = (f"^record count {alternatives ** names} exceeds the cap of "
                   f"{norm.DEFAULT_BLOWUP_LIMIT}$")
        for schema in (properties(split), {"allOf": [properties(whole), properties(split)]}):
            schema = sm.parse_schema(schema)
            tracemalloc.start()
            try:
                with pytest.raises(norm.BlowupExceeded, match=message):
                    norm.normalize(schema)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 64_000

    def test_object_combinations_capped_when_a_declared_domain_is_empty(self):
        # x admits nothing, so each of the constraint's 2**20 combinations
        # fills to no record; the combinations alone must meet the cap.
        properties = {f"p{i}": {"enum": [0, 1], "default": 0} for i in range(20)}
        empty = {"allOf": [{"type": "number", "minimum": 0, "maximum": 1},
                           {"type": "number", "minimum": 2, "maximum": 3}]}
        constraint = {f"p{i}": {"anyOf": [{"enum": [0]}, {"enum": [1]}]} for i in range(20)}
        schema = sm.parse_schema({"allOf": [
            {"type": "object", "properties": dict(properties, x=empty)},
            {"type": "object", "properties": constraint}]})
        with pytest.raises(norm.BlowupExceeded):
            norm.normalize(schema)

    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1), limit=st.integers(1, 6))
    def test_a_capped_normal_form_is_the_full_one(self, seed, limit):
        schema, _ = TestRandomizedEquivalence()._random_schema(random.Random(seed))
        try:
            full = norm.normalize(schema)
        except norm.EmptySpace:
            return
        try:
            capped = norm.normalize(schema, limit=limit)
        except norm.BlowupExceeded:
            return
        assert limit >= len(full.disjuncts)
        assert capped.disjuncts == full.disjuncts


def _whole_schema_normal_form(schema, limit):
    """normalize as it was: the base object normalized again as a
    conjunct, its declared domains expanded a second time."""
    declared = sm.declared_domains(schema)
    declared_alts = {name: norm._domain_alternatives(node, limit)
                     for name, node in declared.items()}
    disjuncts = [d for d in norm._norm(schema, declared_alts, limit)
                 if all(v is not EMPTY for v in d.values())]
    if not disjuncts:
        raise norm.EmptySpace("no satisfiable disjunct remains")
    defaults = schema.declared_defaults
    return tuple({name: norm._attach_default(d[name], defaults.get(name, sm.MISSING))
                  for name in declared} for d in disjuncts)


def _normal_form_outcome(normalize, schema, limit):
    try:
        return normalize(schema, limit)
    except norm.NormalizeError as exc:
        return type(exc)


class TestDeclaredDomainsExpandedOnce:
    def test_disjoint_range_lists_are_intersected_once(self, monkeypatch):
        calls = 0

        def counting(a, b):
            nonlocal calls
            calls += 1
            return intersect_domain(a, b)

        monkeypatch.setattr(norm, "intersect_domain", counting)
        # No range of the first list meets one of the second.
        schema = _property_schema({"allOf": [
            {"anyOf": [{"type": "number", "minimum": 2 * i, "maximum": 2 * i + 0.5}
                       for i in range(300)]},
            {"anyOf": [{"type": "number", "minimum": 2 * i + 1, "maximum": 2 * i + 1.5}
                       for i in range(300)]}]})
        with pytest.raises(norm.EmptySpace):
            norm.normalize(schema)
        assert calls == 300 * 300

    def test_each_declared_property_is_expanded_once(self, registry, monkeypatch):
        expanded = []
        alternatives = norm._domain_alternatives

        def counting(node, limit):
            expanded.append(node)
            return alternatives(node, limit)

        monkeypatch.setattr(norm, "_domain_alternatives", counting)
        for name, op in sorted(registry.items()):
            expanded.clear()
            norm.normalize(op.schema)
            for prop, node in sm.declared_domains(op.schema).items():
                assert sum(1 for seen in expanded if seen is node) == 1, (name, prop)

    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1), limit=st.integers(1, 12))
    def test_records_and_refusals_equal_the_whole_schema_pass(self, seed, limit):
        schema, _ = TestRandomizedEquivalence()._random_schema(random.Random(seed))
        got = _normal_form_outcome(norm.normalize, schema, limit)
        want = _normal_form_outcome(_whole_schema_normal_form, schema, limit)
        assert (got if isinstance(got, type) else got.disjuncts) == want


# Every value a drawn range can hold, a value beside each end, a value
# between integers and every enum value.
PROBES = {"range": list(range(-1, 10)) + [2.5], "enum": ENUM_POOL + ["z"]}


def _outcome(normalize, schema, limit):
    try:
        return normalize(schema, limit)
    except (norm.NormalizeError, sm.SchemaError) as exc:
        return exc


class TestPartialRecords:
    """Constraint records that name only what they constrain, against the
    reference that filled them with every declared domain."""

    def test_registry_normal_forms_equal_the_reference(self, registry):
        for name, op in sorted(registry.items()):
            for schema in (op.schema, norm.drop_constraints(op.schema)):
                got, want = norm.normalize(schema), reference_normalize(schema)
                assert [list(d.items()) for d in got.disjuncts] == \
                    [list(d.items()) for d in want.disjuncts], name

    def test_records_that_meet_no_base_record_drop_before_a_nested_conjoin(self):
        # Each constraint's lists pass the cap of 10 unless a record that can
        # meet no base record is dropped early: a leaf outside the declared
        # enum, an intersection in the gap between declared ranges, or any
        # record at all when a declared property has no alternative.
        def one(name, domain):
            return {"type": "object", "properties": {name: domain}}

        def ints(lo, hi):
            return {"type": "integer", "minimum": lo, "maximum": hi}

        def schema(properties, constraint):
            return sm.parse_schema({"allOf": [{"type": "object", "additionalProperties": False,
                                               "properties": properties}, constraint]})

        b_values = {"anyOf": [one("b", {"enum": [v]}) for v in range(4)]}
        cases = [
            (schema({"a": {"enum": [0]}, "b": {"enum": [0, 1]}},
                    {"allOf": [{"anyOf": [one("a", {"enum": [v]}) for v in range(8)]},
                               {"anyOf": [one("b", {"enum": [v]}) for v in range(2)]}]}), 2),
            (schema({"a": {"anyOf": [ints(0, 2), ints(5, 7)]}, "b": {"enum": [0, 1, 2, 3]}},
                    {"allOf": [{"allOf": [{"anyOf": [one("a", ints(-i, 3)) for i in range(4)]},
                                          one("a", ints(3, 6))]}, b_values]}), None),
            (schema({"x": {"allOf": [ints(0, 2), ints(5, 8)]}, "y": {"enum": list(range(20))}},
                    {"anyOf": [one("y", {"enum": [v]}) for v in range(20)]}), None),
        ]
        for nested, count in cases:
            want = _outcome(reference_normalize, nested, 10)
            got = _outcome(norm.normalize, nested, 10)
            if count is None:
                assert type(got) is type(want) is norm.EmptySpace
            else:
                assert got.disjuncts == want.disjuncts and len(got.disjuncts) == count

    @settings(max_examples=300, deadline=None)
    @given(case=partial_record_cases(), limit=st.integers(1, 60))
    def test_same_configurations_from_no_more_disjuncts(self, case, limit):
        schema, kinds = case
        want = _outcome(reference_normalize, schema, limit)
        got = _outcome(norm.normalize, schema, limit)
        if isinstance(want, norm.BlowupExceeded):
            assert isinstance(got, (norm.NormalForm, norm.NormalizeError, sm.SchemaError))
            return
        if isinstance(want, Exception):
            assert (type(got), str(got)) == (type(want), str(want))
            return
        assert isinstance(got, norm.NormalForm), got
        assert len(got.disjuncts) <= len(want.disjuncts)
        names = sorted(kinds)
        for combo in itertools.product(*(PROBES[kinds[n]] for n in names)):
            config = dict(zip(names, combo))
            assert member(got, config) == member(want, config), config
        if not has_overlapping_alternatives(schema):
            assert got.disjuncts == want.disjuncts


class TestDropConstraints:
    def test_j48(self, registry):
        dropped = norm.drop_constraints(registry["J48"].schema)
        assert isinstance(dropped, sm.ObjectNode)
        domains = dict(dropped.properties)
        assert domains["R"].values == (True, False)
        assert (domains["C"].lo, domains["C"].hi) == (0.0, 0.5)

    def test_unconstrained_unchanged(self, registry):
        schema = registry["KNN"].schema
        assert norm.drop_constraints(schema) is schema

    def test_lr_drop_gives_full_grid(self, registry):
        nf = norm.normalize(norm.drop_constraints(registry["LR"].schema))
        assert len(nf.disjuncts) == 1
        count = sum(
            1
            for s in ("linear", "sag", "lbfgs")
            for p in ("l1", "l2")
            if member(nf, {"solver": s, "penalty": p})
        )
        assert count == 6

    def test_single_disjunct_without_property_disjunctions(self, registry):
        # Holds for every fixture whose declared domains are single-alternative
        # (PCA's anyOf-typed N and the ensemble's slot legitimately split).
        for name in ("J48", "LR", "LogRegGD", "PrunedTree", "KNN", "StandardScaler"):
            nf = norm.normalize(norm.drop_constraints(registry[name].schema))
            assert len(nf.disjuncts) == 1, name


def _emitted(op, keep, seed):
    """What compiling and emitting `op` gives: the compile error's message,
    or each encoding (or the type and message of its refusal)."""
    try:
        compiled = compile_space(op, keep_constraints=keep)
    except CompileError as exc:
        return str(exc)
    outputs = []
    for emit in (compiled.hierarchical, compiled.flat, compiled.pcs,
                 lambda: compiled.grid(2, seed)):
        try:
            outputs.append(emit())
        except Exception as exc:
            outputs.append((type(exc), str(exc)))
    return outputs


class TestNormalFormKeptOnSchema:
    """SchemaNode.normal_form, the form every compile reads, against a
    fresh normalize as the reference."""

    @settings(max_examples=150, deadline=None)
    @given(data=st.data(), drop=st.booleans(), seed=st.integers(0, 2**16))
    def test_kept_normal_form_is_a_fresh_one(self, registry, data, drop, seed):
        source = data.draw(st.one_of(st.integers(0, 2**31 - 1), st.sampled_from(sorted(registry))))
        if isinstance(source, int):
            schema, _ = TestRandomizedEquivalence()._random_schema(random.Random(source))
        else:
            schema = registry[source].schema
        if drop:
            schema = norm.drop_constraints(schema)
        op = og.Individual("Kept", schema)
        for keep in (True, False):
            # A random schema is parsed afresh, so the first compile builds
            # the kept form and the second only reads it.
            assert _emitted(op, keep, seed) == _emitted(op, keep, seed)
        # No compile wrote into the shared disjuncts.
        want = _normal_form_outcome(norm.normalize, schema, norm.DEFAULT_BLOWUP_LIMIT)
        got = _normal_form_outcome(lambda s, _: s.normal_form, schema, None)
        if isinstance(want, type):
            assert got is want
        else:
            assert got.disjuncts == want.disjuncts
            assert schema.normal_form is got

    @pytest.mark.parametrize("keep", [True, False])
    def test_a_second_compile_expands_no_domain(self, monkeypatch, keep):
        op = toyml.load_registry()["J48"]  # parsed afresh: nothing kept yet
        expanded = []
        alternatives = norm._domain_alternatives

        def counting(node, limit):
            expanded.append(node)
            return alternatives(node, limit)

        monkeypatch.setattr(norm, "_domain_alternatives", counting)
        first = compile_space(op, keep_constraints=keep)
        assert expanded
        expanded.clear()
        second = compile_space(op, keep_constraints=keep)
        assert expanded == []
        assert second.hierarchical() == first.hierarchical()

    @pytest.mark.parametrize("schema,keeps,error", [
        (sm.ObjectNode((("x", sm.NotNode(sm.EnumNode((1, 2)))),)), (True, False),
         "negation of a single property domain is not supported"),
        (sm.AllOfNode((sm.ObjectNode((("x", sm.EnumNode((1, 2))),)), sm.AllOfNode(()))), (True,),
         "no satisfiable disjunct remains"),
        (sm.AnyOfNode((sm.ObjectNode(()), sm.ObjectNode(()))), (True, False),
         "schema has no base object of hyperparameters"),
    ], ids=["not-on-a-property", "empty-allOf", "no-base-object"])
    def test_a_schema_that_fails_fails_on_every_compile(self, schema, keeps, error):
        op = og.Individual("Broken", schema)
        for keep in keeps:
            for _ in range(2):
                with pytest.raises(CompileError, match=f"^Broken: {error}$"):
                    compile_space(op, keep_constraints=keep)
        assert "normal_form" not in vars(schema)
