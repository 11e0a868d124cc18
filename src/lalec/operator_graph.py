"""Operators and their algebra: individuals, pipeline DAGs, and choices.

An operator is an immutable value. Combinators build new graphs without
touching their arguments: ``pipe`` wires every sink of the left subgraph to
every source of the right one, ``both`` takes the disjoint union, and
``choose`` forms an exclusive disjunction. Lifecycle runs Planned (topology
captured) to Trainable (hyperparameters captured) to Trained (coefficients
captured); each step of the way unlocks more functionality.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Mapping, Sequence

import numpy as np

from . import schema_model
from .schema_model import (
    AllOfNode,
    MissingDefault,
    ObjectNode,
    SchemaNode,
    ValidationReport,
)


class OperatorError(Exception):
    pass


class TooFewAlternatives(OperatorError):
    pass


class ValidationFailed(OperatorError):
    def __init__(self, report: ValidationReport, context: str = ""):
        self.report = report
        prefix = f"{context}: " if context else ""
        super().__init__(prefix + report.message())


class UnknownProperty(OperatorError):
    pass


class NotTrainable(OperatorError):
    pass


class NotTrained(OperatorError):
    pass


class UnresolvedChoice(OperatorError):
    pass


class ShapeMismatch(OperatorError):
    pass


class ImplementationError(OperatorError):
    """Raised by a toy implementation at fit/predict time."""


class LifecycleState(enum.IntEnum):
    PLANNED = 0
    TRAINABLE = 1
    TRAINED = 2


@dataclass(frozen=True)
class Operator:
    pass


@dataclass(frozen=True)
class Individual(Operator):
    name: str
    schema: SchemaNode
    bound: dict[str, Any] = field(default_factory=dict)
    impl: str | None = None
    state: LifecycleState = LifecycleState.PLANNED
    frozen_trainable: bool = False
    frozen_trained: bool = False
    artifacts: Any = None

    def __post_init__(self):
        if (self.artifacts is not None) != (self.state == LifecycleState.TRAINED):
            raise OperatorError("trained artifacts present iff state is Trained")


@dataclass(frozen=True)
class Pipeline(Operator):
    steps: tuple[Operator, ...]
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self):
        n = len(self.steps)
        for i, j in self.edges:
            if not (0 <= i < n and 0 <= j < n):
                raise OperatorError(f"edge ({i}, {j}) out of range")
        if _has_cycle(n, self.edges):
            raise OperatorError("pipeline edges form a cycle")

    def predecessors(self, index: int) -> tuple[int, ...]:
        return tuple(i for i, j in self.edges if j == index)

    def successors(self, index: int) -> tuple[int, ...]:
        return tuple(j for i, j in self.edges if i == index)


@dataclass(frozen=True)
class Choice(Operator):
    alternatives: tuple[Operator, ...]

    def __post_init__(self):
        if len(self.alternatives) < 2:
            raise TooFewAlternatives("a choice needs at least two alternatives")


def _has_cycle(n, edges) -> bool:
    indegree = [0] * n
    adjacency = [[] for _ in range(n)]
    for i, j in edges:
        indegree[j] += 1
        adjacency[i].append(j)
    queue = [v for v in range(n) if indegree[v] == 0]
    seen = 0
    while queue:
        v = queue.pop()
        seen += 1
        for w in adjacency[v]:
            indegree[w] -= 1
            if indegree[w] == 0:
                queue.append(w)
    return seen != n


# ---------------------------------------------------------------------------
# Combinators


def _as_graph(op: Operator) -> tuple[tuple[Operator, ...], tuple[tuple[int, int], ...]]:
    if isinstance(op, Pipeline):
        return op.steps, op.edges
    return (op,), ()


def sources(op: Operator) -> tuple[int, ...]:
    steps, edges = _as_graph(op)
    targets = {j for _, j in edges}
    return tuple(i for i in range(len(steps)) if i not in targets)


def sinks(op: Operator) -> tuple[int, ...]:
    steps, edges = _as_graph(op)
    origins = {i for i, _ in edges}
    return tuple(i for i in range(len(steps)) if i not in origins)


def pipe(x: Operator, y: Operator) -> Pipeline:
    """Sequence two operators: edges from every sink of x to every source of y."""
    xs, xe = _as_graph(x)
    ys, ye = _as_graph(y)
    offset = len(xs)
    edges = list(xe) + [(i + offset, j + offset) for i, j in ye]
    for s in sinks(x):
        for t in sources(y):
            edges.append((s, t + offset))
    return Pipeline(xs + ys, tuple(edges))


def both(x: Operator, y: Operator) -> Pipeline:
    """Compose two operators side by side without introducing edges."""
    xs, xe = _as_graph(x)
    ys, ye = _as_graph(y)
    offset = len(xs)
    return Pipeline(xs + ys, tuple(xe) + tuple((i + offset, j + offset) for i, j in ye))


def choose(alternatives) -> Choice:
    """Exclusive disjunction; nested choices flatten into one alternative list."""
    alternatives = list(alternatives)
    if len(alternatives) < 2:
        raise TooFewAlternatives("choose requires at least two alternatives")
    flat: list[Operator] = []
    for alt in alternatives:
        if isinstance(alt, Choice):
            flat.extend(alt.alternatives)
        else:
            flat.append(alt)
    return Choice(tuple(flat))


# ---------------------------------------------------------------------------
# Configuration and lifecycle


def configure(op: Operator, partial: Mapping[str, Any]) -> Individual:
    """Bind some hyperparameters, keeping the rest latent.

    The provided values must validate on their own, and the merge must stay
    satisfiable once latents are completed with defaults; otherwise the
    combination is refutable and rejected here instead of at fit time.
    """
    if not isinstance(op, Individual):
        raise OperatorError("configure applies to individual operators")
    report = schema_model.validate(partial, op.schema)
    if not report.ok:
        raise ValidationFailed(report, op.name)
    merged = {**op.bound, **partial}
    completed = dict(_best_effort_defaults(op.schema))
    completed.update(merged)
    report = schema_model.validate(completed, op.schema)
    if not report.ok:
        raise ValidationFailed(report, op.name)
    if not partial and op.state != LifecycleState.PLANNED:
        return op
    state = op.state if op.state != LifecycleState.PLANNED else LifecycleState.TRAINABLE
    artifacts = op.artifacts
    if partial and op.state == LifecycleState.TRAINED:
        state, artifacts = LifecycleState.TRAINABLE, None
    return replace(op, bound=merged, state=state, artifacts=artifacts)


def _best_effort_defaults(schema: SchemaNode) -> dict[str, Any]:
    try:
        domains = schema_model.declared_domains(schema)
    except schema_model.NoBaseObject:
        return {}
    out = {}
    for name, node in domains.items():
        try:
            out[name] = schema_model._default_of(node, (name,))
        except MissingDefault:
            continue
    return out


def state_of(op: Operator) -> LifecycleState:
    """An operator supports an operation iff all its parts do, so composite
    state is the minimum of the step states."""
    if isinstance(op, Individual):
        return op.state
    if isinstance(op, Pipeline):
        return min(state_of(s) for s in op.steps)
    if isinstance(op, Choice):
        return min(state_of(a) for a in op.alternatives)
    raise TypeError(f"not an operator: {op!r}")


def freeze_trainable(op: Operator) -> Operator:
    """Fill latents with defaults and pin the hyperparameters: later
    auto-configuration contributes no search dimensions for this operator."""
    if isinstance(op, Individual):
        defaults = schema_model.default_config(op.schema)
        merged = {**defaults, **op.bound}
        state = max(op.state, LifecycleState.TRAINABLE)
        return replace(op, bound=merged, state=state, frozen_trainable=True)
    if isinstance(op, Pipeline):
        return Pipeline(tuple(freeze_trainable(s) for s in op.steps), op.edges)
    if isinstance(op, Choice):
        return Choice(tuple(freeze_trainable(a) for a in op.alternatives))
    raise TypeError(f"not an operator: {op!r}")


def freeze_trained(op: Operator) -> Operator:
    """Pin learned coefficients: later fits return the operator unchanged."""
    if state_of(op) != LifecycleState.TRAINED:
        raise NotTrained("freeze_trained requires a trained operator")
    return _freeze_trained(op)


def _freeze_trained(op: Operator) -> Operator:
    if isinstance(op, Individual):
        return replace(op, frozen_trained=True)
    if isinstance(op, Pipeline):
        return Pipeline(tuple(_freeze_trained(s) for s in op.steps), op.edges)
    if isinstance(op, Choice):
        return Choice(tuple(_freeze_trained(a) for a in op.alternatives))
    raise TypeError(f"not an operator: {op!r}")


def customize_schema(op: Individual, overrides: Mapping[str, SchemaNode],
                     rename: str | None = None) -> Individual:
    """Derive a variant of an individual operator with replaced property
    schemas; side constraints are retained."""
    if not isinstance(op, Individual):
        raise OperatorError("customize_schema applies to individual operators")
    domains = schema_model.declared_domains(op.schema)
    for name in overrides:
        if name not in domains:
            raise UnknownProperty(f"{op.name} has no hyperparameter {name!r}")
    if not overrides and rename is None:
        return op
    schema = _replace_properties(op.schema, overrides)
    if op.bound:
        report = schema_model.validate(op.bound, schema)
        if not report.ok:
            raise ValidationFailed(report, op.name)
    return replace(op, schema=schema, name=rename or op.name)


def _replace_properties(schema: SchemaNode, overrides) -> SchemaNode:
    def rebuild(obj: ObjectNode) -> ObjectNode:
        props = tuple((name, overrides.get(name, node)) for name, node in obj.properties)
        return replace(obj, properties=props)

    if isinstance(schema, AllOfNode):
        base = rebuild(schema.children[0])
        return replace(schema, children=(base,) + schema.children[1:])
    if isinstance(schema, ObjectNode):
        return rebuild(schema)
    raise schema_model.NoBaseObject("schema has no base object of hyperparameters")


# ---------------------------------------------------------------------------
# Toy implementation registry (populated by the toyml module)


@dataclass(frozen=True)
class ToyImplementation:
    """A native operator. ``fit(config, problems)`` takes the effective
    hyperparameters and a sequence of ``(X, y)`` problems and returns one
    artifact per problem, in order; ``apply(artifacts, X)`` maps features
    (transformer) or predicts labels (estimator) with one artifact.

    Each problem's fit is independent and deterministic: its artifact
    depends only on ``config`` and that problem, never on the other problems
    or their order, so fitting many at once gives what fitting each alone
    would, bit for bit.
    """

    name: str
    kind: str  # "transformer" | "estimator"
    fit: Callable[[Mapping[str, Any], Sequence[tuple[Any, Any]]], list[Any]]
    apply: Callable[[Any, Any], Any]
    inverse: Callable[[Any, Any], Any] | None = None


IMPLEMENTATIONS: dict[str, ToyImplementation] = {}


def register_impl(impl: ToyImplementation) -> None:
    IMPLEMENTATIONS[impl.name] = impl


def implementation_of(op: Individual) -> ToyImplementation:
    if op.impl is None:
        raise ImplementationError(f"{op.name} has no implementation binding")
    try:
        return IMPLEMENTATIONS[op.impl]
    except KeyError:
        raise ImplementationError(f"no implementation registered for {op.impl!r}") from None


def effective_config(op: Individual) -> dict[str, Any]:
    config = _best_effort_defaults(op.schema)
    config.update(op.bound)
    return config


# ---------------------------------------------------------------------------
# Fit / predict


def fit(op: Operator, data) -> Operator:
    """Train an operator on a labeled dataset, returning a trained copy."""
    return fit_each(op, [data])[0]


def fit_each(op: Operator, datasets) -> list[Operator]:
    """Train one copy of an operator per labeled dataset, in one pass.

    Pipelines fit steps in topological order: a source step trains on the
    pipeline's data, every other step on its predecessors' outputs. Labels
    pass through unchanged; only a Concat step may merge multiple
    predecessor outputs. Each step's implementation fits all datasets in one
    call, so it can share work across them (LogRegGD runs every descent in
    lockstep); each dataset's trained copy equals what fitting it alone
    gives.
    """
    if state_of(op) < LifecycleState.TRAINABLE:
        if isinstance(op, Choice) or _contains_choice(op):
            raise UnresolvedChoice("resolve operator choices before fitting")
        raise NotTrainable("operator is still planned; configure it first")
    if isinstance(op, Choice):
        raise UnresolvedChoice("cannot fit an unresolved choice")
    Xs = [np.asarray(data.X, dtype=float) for data in datasets]
    ys = [np.asarray(data.y) for data in datasets]
    trained, _ = _fit_node(op, Xs, ys, want_output=False)
    return trained


def _contains_choice(op: Operator) -> bool:
    if isinstance(op, Choice):
        return True
    if isinstance(op, Pipeline):
        return any(_contains_choice(s) for s in op.steps)
    return False


def _fit_node(op: Operator, Xs, ys, want_output: bool):
    """Trained copies of ``op`` for the inputs ``Xs`` (one per dataset) and,
    if wanted, their outputs on those inputs."""
    if isinstance(op, Choice):
        raise UnresolvedChoice("cannot fit an unresolved choice")
    if isinstance(op, Individual):
        if op.frozen_trained and op.state == LifecycleState.TRAINED:
            trained = [op] * len(Xs)
        else:
            impl = implementation_of(op)
            artifacts = impl.fit(effective_config(op), list(zip(Xs, ys)))
            trained = [replace(op, state=LifecycleState.TRAINED, artifacts=a) for a in artifacts]
        outputs = [_step_output(t, X) for t, X in zip(trained, Xs)] if want_output else None
        return trained, outputs
    assert isinstance(op, Pipeline)
    # outputs[k][index]: step index's output on dataset k.
    outputs: list[dict[int, Any]] = [{} for _ in Xs]
    trained_steps = []
    sink_set = set(sinks(op))
    for index, step in enumerate(op.steps):
        step_inputs = [_input_for(op, index, out, X) for out, X in zip(outputs, Xs)]
        need_out = want_output or index not in sink_set
        trained_step, step_outputs = _fit_node(step, step_inputs, ys, want_output=need_out)
        trained_steps.append(trained_step)
        if step_outputs is not None:
            for out, step_output in zip(outputs, step_outputs):
                out[index] = step_output
    trained = [Pipeline(tuple(steps), op.edges) for steps in zip(*trained_steps)]
    if want_output:
        only_sinks = sinks(op)
        if len(only_sinks) != 1:
            raise ShapeMismatch("pipeline output requires exactly one sink")
        return trained, [out[only_sinks[0]] for out in outputs]
    return trained, None


def _input_for(pipeline: Pipeline, index: int, outputs, X):
    preds = pipeline.predecessors(index)
    if not preds:
        return X
    if len(preds) == 1:
        return outputs[preds[0]]
    return tuple(outputs[p] for p in sorted(preds))


def _step_output(op: Individual, X):
    impl = implementation_of(op)
    out = impl.apply(op.artifacts, X)
    if impl.kind == "estimator":
        # Mid-pipeline estimators contribute predictions as a feature column.
        return np.asarray(out, dtype=float).reshape(-1, 1)
    return out


def predict(op: Operator, X):
    """Apply a trained operator: transformers map features, estimators label."""
    if state_of(op) != LifecycleState.TRAINED:
        raise NotTrained("operator is not trained")
    X = np.asarray(getattr(X, "X", X), dtype=float)
    return _predict_node(op, X, as_feature=False)


def _predict_node(op: Operator, X, as_feature: bool):
    if isinstance(op, Individual):
        impl = implementation_of(op)
        out = impl.apply(op.artifacts, X)
        if as_feature and impl.kind == "estimator":
            return np.asarray(out, dtype=float).reshape(-1, 1)
        return out
    if isinstance(op, Choice):
        raise UnresolvedChoice("cannot predict with an unresolved choice")
    assert isinstance(op, Pipeline)
    only_sinks = sinks(op)
    if len(only_sinks) != 1:
        raise ShapeMismatch("prediction requires exactly one sink step")
    outputs: dict[int, Any] = {}
    for index, step in enumerate(op.steps):
        step_input = _input_for(op, index, outputs, X)
        feature = as_feature or index != only_sinks[0]
        outputs[index] = _predict_node(step, step_input, as_feature=feature)
    return outputs[only_sinks[0]]


def auto_configure(op: Operator, data, spec=None, *, folds: int = 3,
                   keep_constraints: bool = True, cont_samples: int = 1):
    """Search the operator's compiled space, then fit the best configuration.

    Deterministic given the optimizer spec's seed. Returns the trained
    operator; use the cli/optimizer modules directly to keep the history.
    """
    from . import optimizer as opt
    from .space_backends import compile_space

    if spec is None:
        spec = opt.OptimizerSpec()
    compiled = compile_space(op, keep_constraints=keep_constraints)
    objective = opt.make_cv_objective(compiled, data, folds=folds)
    if spec.strategy == "grid":
        history = opt.grid_search(compiled.grid(cont_samples, spec.seed), objective, spec)
    elif spec.strategy == "bandit":
        history = opt.bandit_search(compiled.hierarchical(), objective, spec)
    else:
        history = opt.random_search(compiled.hierarchical(), objective, spec)
    if history.best is None:
        raise opt.NoValidTrial("every trial failed")
    best = compiled.decode(history.trials[history.best].point)
    return fit(best, data)


# ---------------------------------------------------------------------------
# Structural comparison (test oracles)


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
