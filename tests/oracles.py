"""Slow reference implementations that tests compare the library against.

Graph isomorphism is a test oracle only. The default resolvers are the three
the library had before `schema_model.defaults` replaced them; tests check
that all four agree. `reference_cv_objective` is the cross-validation
objective before it kept the loss of each point it scored; tests check that
searches under both give the same histories. `reference_cross_val_score` is
the cross-validation score with every fold fitted alone and nothing
stored; tests check that both give the same scores, or raise the same
exception type. The range predicates and
continuous draws below are the copies the library had before
`schema_model.in_range` and `space_backends._draw_cont` replaced them;
tests check that the replacements give the same answers and the same draws.
`to_schema` rebuilds a schema from a normal form; tests check that
normalizing it again accepts the same configurations.
`reference_exact_json_key` is the memo key as the sorted JSON of a mapping;
tests check that `schema_model.exact_json_key` tells the same mappings
apart.
"""

import json
import math

import numpy as np

from lalec import operator_graph as og
from lalec import schema_model as sm
from lalec import toyml
from lalec.optimizer import InvalidConfigError
from lalec.operator_graph import Choice, Individual, Operator, Pipeline, ValidationFailed
from lalec.schema_model import (
    MISSING,
    AllOfNode,
    AnyOfNode,
    EnumNode,
    MissingDefault,
    ObjectNode,
    OperatorSlotNode,
    RangeNode,
    SchemaNode,
)
from lalec.space_backends import (
    CompiledSpace,
    DecodeError,
    _integer_bounds,
    _real_bounds,
    compile_space,
    emit_hierarchical,
)
from lalec.space_normalizer import Cat, Cont, Domain, NormalForm, NormalizeError, OpSlot


# ---------------------------------------------------------------------------
# Structural comparison


def graph_isomorphic(a: Operator, b: Operator) -> bool:
    """Label-preserving isomorphism: same operators, same wiring, order-free."""
    if isinstance(a, Individual) and isinstance(b, Individual):
        return a.name == b.name and a.schema == b.schema and a.bound == b.bound
    if isinstance(a, Choice) and isinstance(b, Choice):
        return _match_multiset(list(a.alternatives), list(b.alternatives))
    if isinstance(a, Pipeline) and isinstance(b, Pipeline):
        return _match_graphs(a, b)
    return False


def _match_multiset(left, right) -> bool:
    if len(left) != len(right):
        return False
    if not left:
        return True
    head, rest = left[0], left[1:]
    for i, candidate in enumerate(right):
        if graph_isomorphic(head, candidate) and _match_multiset(rest, right[:i] + right[i + 1:]):
            return True
    return False


def _match_graphs(a: Pipeline, b: Pipeline) -> bool:
    n = len(a.steps)
    if n != len(b.steps) or len(a.edges) != len(b.edges):
        return False
    b_edges = set(b.edges)
    mapping: dict[int, int] = {}
    used: set[int] = set()

    def consistent(i, j) -> bool:
        for x, y in mapping.items():
            if ((i, x) in set(a.edges)) != ((j, y) in b_edges):
                return False
            if ((x, i) in set(a.edges)) != ((y, j) in b_edges):
                return False
        return True

    def assign(i) -> bool:
        if i == n:
            return True
        for j in range(n):
            if j in used:
                continue
            if graph_isomorphic(a.steps[i], b.steps[j]) and consistent(i, j):
                mapping[i] = j
                used.add(j)
                if assign(i + 1):
                    return True
                del mapping[i]
                used.remove(j)
        return False

    return assign(0)


# ---------------------------------------------------------------------------
# Default resolvers


def reference_default_of(node, path):
    """schema_model's per-domain resolver: raises MissingDefault at `path`."""
    if isinstance(node, (RangeNode, EnumNode, AnyOfNode, OperatorSlotNode)):
        if node.default is not MISSING:
            return node.default
        if isinstance(node, AnyOfNode):
            for child in node.children:
                try:
                    return reference_default_of(child, path)
                except MissingDefault:
                    continue
    raise MissingDefault(path)


def reference_default_config(schema):
    """schema_model.default_config's loop: every name, or MissingDefault."""
    domains = sm.declared_domains(schema)
    config = {}
    for name, node in domains.items():
        config[name] = reference_default_of(node, (name,))
    return config


def reference_best_effort_defaults(schema):
    """operator_graph's resolver: the names with a default, none without a
    base object."""
    try:
        domains = sm.declared_domains(schema)
    except sm.NoBaseObject:
        return {}
    out = {}
    for name, node in domains.items():
        try:
            out[name] = reference_default_of(node, (name,))
        except MissingDefault:
            continue
    return out


def reference_declared_default(node):
    """space_normalizer's per-domain resolver: MISSING when there is none."""
    if isinstance(node, (RangeNode, EnumNode, AnyOfNode, OperatorSlotNode)):
        if node.default is not MISSING:
            return node.default
        if isinstance(node, AnyOfNode):
            for child in node.children:
                d = reference_declared_default(child)
                if d is not MISSING:
                    return d
    return MISSING


# ---------------------------------------------------------------------------
# Memo keys


def reference_exact_json_key(mapping):
    """schema_model.exact_json_key as the canonical JSON of the mapping."""
    if all(type(k) is str and type(v) in (str, int, float, bool, type(None))
           for k, v in mapping.items()):
        return json.dumps(dict(mapping), sort_keys=True)
    return None


# ---------------------------------------------------------------------------
# Cross-validation objective


def reference_cv_objective(space, data, folds: int = 5, cv_seed: int = 0):
    """optimizer.make_cv_objective without its memo: every call decodes and
    fits, and the splits are made once, at the first point that decodes."""
    compiled = space if isinstance(space, CompiledSpace) else compile_space(space)
    splits = None

    def objective(point):
        nonlocal splits
        try:
            candidate = compiled.decode(point)
        except (ValidationFailed, DecodeError) as exc:
            raise InvalidConfigError(str(exc)) from exc
        if splits is None:
            splits = toyml.cv_splits(data, folds, cv_seed)
        return 1.0 - toyml.cross_val_score(candidate, splits)

    return objective


def reference_cross_val_score(op, splits) -> float:
    """toyml.cross_val_score without its store: each fold's copy is fitted
    alone (operator_graph.fit) and predicts its test slice."""
    scores = [toyml.accuracy(og.predict(og.fit(op, train), test_X), test_y)
              for train, test_X, test_y in splits]
    return float(np.mean(scores))


# ---------------------------------------------------------------------------
# Range admission


def reference_in_range(value, lo, hi, lo_open, hi_open, integer_valued) -> bool:
    """schema_model's range test."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    if integer_valued and float(value) != int(value):
        return False
    if value < lo or (lo_open and value == lo):
        return False
    if value > hi or (hi_open and value == hi):
        return False
    return True


def reference_cont_admits(domain: Cont, value) -> bool:
    """space_normalizer's range test, without a type check."""
    if domain.integer_valued and float(value) != int(value):
        return False
    if value < domain.lo or (domain.lo_open and value == domain.lo):
        return False
    if value > domain.hi or (domain.hi_open and value == domain.hi):
        return False
    return True


def reference_cont_admits_scalar(domain: Cont, value) -> bool:
    """space_normalizer's range test for values of any type."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    return reference_cont_admits(domain, value)


def reference_quantize_admitted(v, lo, hi, lo_open, hi_open) -> bool:
    """The range test of space_backends' quantized draw (the `admitted`
    closure of `_quantize`): no type test and no integer test."""
    if v < lo or (lo_open and v == lo):
        return False
    if v > hi or (hi_open and v == hi):
        return False
    return True


def reference_quantize(value, q, lo, hi, lo_open, hi_open, lo_eps, hi_eps):
    """space_backends' quantized draw."""
    # Round to a multiple of q; when that lands on or beyond an open bound,
    # step inward by whole multiples so the result stays a multiple of q.
    k = round(value / q)
    for candidate in (k * q, (k - 1) * q, (k + 1) * q):
        if reference_quantize_admitted(candidate, lo, hi, lo_open, hi_open):
            return candidate
    return min(max(value, lo_eps), hi_eps)


# ---------------------------------------------------------------------------
# Continuous draws


def reference_domain_doc(domain) -> dict:
    """space_backends' domain document, which the grid drew from."""
    if isinstance(domain, Cat):
        doc = {"kind": "categorical", "values": list(domain.values)}
        if domain.default is not MISSING:
            doc["default"] = domain.default
        return doc
    if isinstance(domain, Cont):
        doc = {
            "kind": "continuous",
            "lo": domain.lo,
            "hi": domain.hi,
            "loOpen": domain.lo_open,
            "hiOpen": domain.hi_open,
            "integer": domain.integer_valued,
            "distribution": domain.prior.kind,
        }
        if domain.prior.quantization is not None:
            doc["quantization"] = domain.prior.quantization
        if domain.default is not MISSING:
            doc["default"] = domain.default
        return doc
    assert isinstance(domain, OpSlot)
    return {"kind": "operator", "marker": domain.marker,
            "space": emit_hierarchical(domain.nested)}


def reference_draw_cont_doc(domain, rng):
    """The draw hierarchical points and grid samples made from a domain
    document."""
    if domain["integer"]:
        lo, hi = _integer_bounds(domain["lo"], domain["hi"], domain["loOpen"], domain["hiOpen"])
        if domain["distribution"] == "loguniform":
            value = int(round(math.exp(rng.uniform(math.log(lo), math.log(hi)))))
        else:
            value = rng.randint(lo, hi)
        return min(max(value, lo), hi)
    lo, hi = _real_bounds(domain["lo"], domain["hi"], domain["loOpen"], domain["hiOpen"])
    if domain["distribution"] == "loguniform":
        value = math.exp(rng.uniform(math.log(lo), math.log(hi)))
    else:
        value = rng.uniform(lo, hi)
    q = domain.get("quantization")
    if q:
        return reference_quantize(value, q, domain["lo"], domain["hi"],
                                  domain["loOpen"], domain["hiOpen"], lo, hi)
    return min(max(value, lo), hi)


def reference_pcs_sample(space, rng):
    """PcsSpace.sample with its own draws: no clamp on real values, integer
    bounds truncated by int()."""
    point = {}
    for name, param in space.parameters.items():
        if not space._active(name, point):
            continue
        if param.kind == "categorical":
            point[name] = param.values[rng.randrange(len(param.values))]
        elif param.kind == "integer":
            lo, hi = int(param.lo), int(param.hi)
            if param.log:
                point[name] = min(max(int(round(math.exp(
                    rng.uniform(math.log(lo), math.log(hi))))), lo), hi)
            else:
                point[name] = rng.randint(lo, hi)
        else:
            if param.log:
                point[name] = math.exp(rng.uniform(math.log(param.lo), math.log(param.hi)))
            else:
                point[name] = rng.uniform(param.lo, param.hi)
    return point


# ---------------------------------------------------------------------------
# Normal forms back to schemas


def to_schema(nf: NormalForm) -> SchemaNode:
    """Reconstruct a schema whose meaning is the normal form.

    The base object unions each property's domains across disjuncts; the
    disjunction itself rides along as a constraint conjunct, so the result
    has the standard base-plus-constraints layout.
    """
    branches = []
    for disjunct in nf.disjuncts:
        props = []
        for name, domain in disjunct.items():
            props.append((name, _domain_to_node(domain)))
        branches.append(ObjectNode(tuple(props), additional_allowed=False))
    if len(branches) == 1:
        return branches[0]
    union_props = []
    for name in nf.names():
        variants = []
        for disjunct in nf.disjuncts:
            node = _domain_to_node(disjunct[name])
            if node not in variants:
                variants.append(node)
        union_props.append((name, variants[0] if len(variants) == 1 else AnyOfNode(tuple(variants))))
    base = ObjectNode(tuple(union_props), additional_allowed=False)
    return AllOfNode((base, AnyOfNode(tuple(branches))))


def _domain_to_node(domain: Domain) -> SchemaNode:
    if isinstance(domain, Cat):
        return EnumNode(domain.values, domain.default)
    if isinstance(domain, Cont):
        return RangeNode(domain.lo, domain.hi, domain.lo_open, domain.hi_open,
                         domain.integer_valued, domain.prior, domain.default)
    if isinstance(domain, OpSlot):
        return OperatorSlotNode()
    raise NormalizeError(f"cannot express {domain!r} as a schema node")
