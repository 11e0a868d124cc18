"""Slow reference implementations that tests compare the library against.

Graph isomorphism is a test oracle only. The default resolvers are the three
the library had before `schema_model.defaults` replaced them; tests check
that all four agree. `reference_cv_objective` is the cross-validation
objective before it kept the loss of each point it scored; tests check that
searches under both give the same histories.
"""

from lalec import schema_model as sm
from lalec import toyml
from lalec.optimizer import InvalidConfigError
from lalec.operator_graph import Choice, Individual, Operator, Pipeline, ValidationFailed
from lalec.schema_model import (
    MISSING,
    AnyOfNode,
    EnumNode,
    MissingDefault,
    OperatorSlotNode,
    RangeNode,
)
from lalec.space_backends import CompiledSpace, DecodeError, compile_space


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
