import itertools

import numpy as np
import pytest
from hypothesis import strategies as st

from lalec import schema_model as sm
from lalec import space_normalizer as norm
from lalec import toyml


@pytest.fixture(scope="session")
def registry():
    return toyml.load_registry()


@pytest.fixture(scope="session")
def blobs():
    return toyml.synth_dataset("blobs", 120, 0)


@pytest.fixture(scope="session")
def xor_data():
    return toyml.synth_dataset("xor", 160, 1)


def probe_lattice(lo, hi, points=17):
    """Evenly spaced probe values over (lo, hi) plus near-bound points.

    The midpoint lands exactly on (lo+hi)/2, which the fixture schemas use
    as their pinned constants (0.25 for the tree's confidence).
    """
    inner = [lo + i * (hi - lo) / (points - 1) for i in range(1, points - 1)]
    delta = (hi - lo) * 1e-6
    return [lo + delta] + inner + [hi - delta]


def tree_shape(node):
    """(feature, threshold bits, counts, label) of every node, preorder."""
    out = [(node.get("feature"),
            None if "threshold" not in node else np.float64(node["threshold"]).tobytes(),
            node["counts"].tolist(), node["label"])]
    if "feature" in node:
        assert type(node["feature"]) is int and type(node["threshold"]) is float
        out += tree_shape(node["left"]) + tree_shape(node["right"])
    return out


def hier_member(doc, point):
    """Whether a hierarchical document, read as JSON, holds the point."""
    kind = doc["kind"]
    if kind == "steps":
        return all(hier_member(child, point) for child in doc["steps"].values())
    if kind == "choice":
        branch = point.get(doc["discriminant"])
        if branch not in doc["branches"]:
            return False
        return hier_member(doc["branches"][branch], point)
    for disjunct in doc["disjuncts"]:
        if all(_doc_admits(domain, point.get(name), point)
               for name, domain in disjunct.items()):
            return True
    return False


def _doc_admits(domain, value, point):
    if domain["kind"] == "categorical":
        return any(sm.scalar_eq(value, v) for v in domain["values"])
    if domain["kind"] == "continuous":
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            return False
        if domain["integer"] and float(value) != int(value):
            return False
        if value < domain["lo"] or (domain["loOpen"] and value == domain["lo"]):
            return False
        if value > domain["hi"] or (domain["hiOpen"] and value == domain["hi"]):
            return False
        return True
    return hier_member(domain["space"], point)  # an operator slot


ENUM_POOL = ["a", "b", 1, 2, True]


@st.composite
def _ranges(draw, most):
    """anyOf of integer ranges within [0, 8], which often overlap."""
    bounds = []
    for _ in range(draw(st.integers(1, most))):
        lo = draw(st.integers(0, 7))
        bounds.append((lo, draw(st.integers(lo, 8))))
    return {"anyOf": [{"type": "integer", "minimum": lo, "maximum": hi} for lo, hi in bounds]}


@st.composite
def _constraint(draw, kinds):
    """A negated enum, an object on one property (a name may be
    undeclared), anyOf of one to four constraints (perhaps with an empty
    object), allOf of two, or the empty schema."""
    kind = draw(st.sampled_from(["not", "object", "anyOf", "allOf", "empty"]))
    name = draw(st.sampled_from(sorted(kinds) + ["q"]))
    if kind == "not":
        values = draw(st.lists(st.sampled_from(ENUM_POOL), min_size=1, max_size=3, unique=True))
        return {"not": {"type": "object", "properties": {name: {"enum": values}}}}
    if kind == "object":
        if kinds.get(name) == "range":
            domain = draw(_ranges(2))
        else:
            domain = {"enum": draw(st.lists(st.sampled_from(ENUM_POOL), min_size=1, max_size=3,
                                            unique=True))}
        return {"type": "object", "properties": {name: domain}}
    if kind == "anyOf":
        children = draw(st.lists(_constraint(kinds), min_size=1, max_size=4))
        return {"anyOf": children + [{"type": "object"}] * draw(st.integers(0, 1))}
    if kind == "allOf":
        return {"allOf": [draw(_constraint(kinds)), draw(_constraint(kinds))]}
    return {}


@st.composite
def partial_record_cases(draw):
    """A schema of enum properties and anyOf range properties, now and then
    one with no alternative (allOf of disjoint ranges), with up to three
    constraints, and the kind of each property."""
    properties, kinds = {}, {}
    for index in range(draw(st.integers(1, 3))):
        name = f"p{index}"
        shape = draw(st.sampled_from(["enum", "range", "enum", "range", "empty"]))
        if shape == "enum":
            values = draw(st.lists(st.sampled_from(ENUM_POOL), min_size=1, max_size=4,
                                   unique=True))
            properties[name] = {"enum": values, "default": values[0]}
        elif shape == "range":
            properties[name] = draw(_ranges(3))
        else:
            properties[name] = {"allOf": [{"type": "integer", "minimum": 0, "maximum": 3},
                                          {"type": "integer", "minimum": 5, "maximum": 8}]}
        kinds[name] = "enum" if shape == "enum" else "range"
    base = {"type": "object", "additionalProperties": False, "properties": properties}
    constraints = draw(st.lists(_constraint(kinds), max_size=3))
    return sm.parse_schema({"allOf": [base] + constraints}), kinds


def has_overlapping_alternatives(schema):
    """Whether a declared property of the schema has two alternatives that
    share a value."""
    for node in sm.declared_domains(schema).values():
        alts = norm._domain_alternatives(node, norm.DEFAULT_BLOWUP_LIMIT)
        if any(norm.intersect_domain(a, b) is not norm.EMPTY
               for a, b in itertools.combinations(alts, 2)):
            return True
    return False
