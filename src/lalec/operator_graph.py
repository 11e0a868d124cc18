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
import hashlib
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Mapping

import numpy as np

from . import schema_model
from .schema_model import (
    AllOfNode,
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

    def _copy(self, bound: dict[str, Any], state: LifecycleState, artifacts: Any) -> Individual:
        """This operator with new bound values, state and artifacts. Calls the
        constructor directly, which costs about half of dataclasses.replace;
        __post_init__ still checks the artifacts rule."""
        return Individual(self.name, self.schema, bound, self.impl, state,
                          self.frozen_trainable, self.frozen_trained, artifacts)


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

    A valid configuration is validated once, completed (defaults, then the
    bound values, then `partial`). `partial` is a subset of it with the same
    values, and validation is monotone (a missing name is latent, and a
    negation fires only on names present), so `partial` passes too. When
    that check fails or raises, `partial` and then the completed
    configuration are checked in turn, so the error is the one the first
    failing check gives.
    """
    if not isinstance(op, Individual):
        raise OperatorError("configure applies to individual operators")
    merged = {**op.bound, **partial}
    completed = {**_best_effort_defaults(op.schema), **merged}
    try:
        valid = schema_model.validate(completed, op.schema).ok
    except Exception:  # re-raised below by the check that meets it first
        valid = False
    if not valid:
        for config in (partial, completed):
            report = schema_model.validate(config, op.schema)
            if not report.ok:
                raise ValidationFailed(report, op.name)
    if not partial and op.state != LifecycleState.PLANNED:
        return op
    state = op.state if op.state != LifecycleState.PLANNED else LifecycleState.TRAINABLE
    artifacts = op.artifacts
    if partial and op.state == LifecycleState.TRAINED:
        state, artifacts = LifecycleState.TRAINABLE, None
    return op._copy(merged, state, artifacts)


def _best_effort_defaults(schema: SchemaNode) -> Mapping[str, Any]:
    """The declared defaults, or none when the schema has no base object.
    This is the schema's cached mapping: read it, never write to it."""
    try:
        return schema.declared_defaults
    except schema_model.NoBaseObject:
        return {}


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

    ``budget`` names a hyperparameter that counts the fit's steps and
    changes nothing else: a fit of k steps is the first k steps of every
    longer one. Such a fit takes a third argument in scoring, ``runs``: a
    dict from counts to the state that fits on these problems, with this
    configuration but for the budget, reached after that many steps. It
    resumes from the longest stored run not longer than its own, gets the
    bits a fit from scratch gets, and stores its own run as it returns.
    """

    name: str
    kind: str  # "transformer" | "estimator"
    fit: Callable[..., list[Any]]
    apply: Callable[[Any, Any], Any]
    inverse: Callable[[Any, Any], Any] | None = None
    budget: str | None = None


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
    return {**_best_effort_defaults(op.schema), **op.bound}


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
    _check_fittable(op)
    Xs = [np.asarray(data.X, dtype=float) for data in datasets]
    ys = [np.asarray(data.y) for data in datasets]
    trained, _, _ = _fit_node(op, Xs, ys, want_output=False)
    return trained


def fit_predict_each(op: Operator, datasets, held_out, store: dict, runs: dict) -> list:
    """Each dataset's held-out predictions by a copy of an operator fitted
    on that dataset: what ``predict`` gives on ``held_out[i]`` with the
    ``i``-th copy from ``fit_each``, in one walk.

    Each step maps the held-out inputs right after it is fitted, and the
    final step maps only them. The walk builds no trained copies. A
    non-final step's outputs on both sides are kept in ``store`` under its
    prefix key, and a later call whose prefix has an equal key reuses them
    instead of fitting. A prefix is the step and everything upstream of it.
    Its key is the key of the step's input, the step's ``impl`` and the
    canonical JSON of its effective configuration. The walk's own input has
    the key ``()``, so ``store`` must only ever see these datasets and
    held-out features (``toyml.cv_splits`` gives each set of splits its
    own). A step whose configuration is not exact JSON
    (``schema_model.exact_json_key``), a frozen trained step, and every
    step downstream of either, get no key. A fit or map that raises stores
    nothing. Stored arrays are read-only views, so an implementation that
    writes into its input fails instead of corrupting later calls.

    A step whose implementation has a ``budget`` also resumes its fit from
    ``runs``, final step included (see ``ToyImplementation``). Fits share
    one dict of runs there when they have the same ``impl``, the same
    canonical JSON of the configuration without the budget, and training
    inputs and labels of the same shapes, dtypes and bytes (``_run_key``).
    Such a step gets no stored run when that configuration is not exact
    JSON or an input is not an array.
    """
    _check_fittable(op)
    Xs = [np.asarray(data.X, dtype=float) for data in datasets]
    Xs += [np.asarray(X, dtype=float) for X in held_out]
    ys = [np.asarray(data.y) for data in datasets]
    _, predictions, _ = _fit_node(op, Xs, ys, False, (), store, runs)
    return predictions


def _check_fittable(op: Operator) -> None:
    if state_of(op) < LifecycleState.TRAINABLE:
        if isinstance(op, Choice) or _contains_choice(op):
            raise UnresolvedChoice("resolve operator choices before fitting")
        raise NotTrainable("operator is still planned; configure it first")
    if isinstance(op, Choice):
        raise UnresolvedChoice("cannot fit an unresolved choice")


def _contains_choice(op: Operator) -> bool:
    if isinstance(op, Choice):
        return True
    if isinstance(op, Pipeline):
        return any(_contains_choice(s) for s in op.steps)
    return False


def _fit_node(op: Operator, Xs, ys, want_output: bool, key=None, store=None, runs=None):
    """Trained copies of ``op``, one per label vector in ``ys``, fitted on
    the first ``len(ys)`` inputs in ``Xs``; if wanted, op's outputs on
    ``Xs``; and the prefix key of those outputs.

    Fitting passes only the training inputs and no store. Scoring
    (``fit_predict_each``) appends one held-out input per dataset and
    passes both stores; it gets None for the trained copies, dataset i's fitted
    step maps inputs i and len(ys) + i, and an unwanted output is then op's
    predictions on the held-out inputs. ``key`` is the prefix key of
    ``Xs``; a key is None wherever there is none.
    """
    if isinstance(op, Choice):
        raise UnresolvedChoice("cannot fit an unresolved choice")
    if isinstance(op, Individual):
        return _fit_step(op, Xs, ys, want_output, key, store, runs)
    assert isinstance(op, Pipeline)
    # outputs[index]: step index's output on each input; keys[index]: its key.
    outputs: dict[int, list] = {}
    keys: dict[int, Any] = {}
    trained_steps = []
    sink_set = set(sinks(op))
    for index, step in enumerate(op.steps):
        preds = op.predecessors(index)
        need_out = want_output or index not in sink_set
        trained_step, outputs[index], keys[index] = _fit_node(
            step, _input_for(preds, outputs, Xs), ys, need_out,
            _input_key(preds, keys, key), store, runs)
        trained_steps.append(trained_step)
    trained = None
    if store is None:
        trained = [Pipeline(tuple(steps), op.edges) for steps in zip(*trained_steps)]
        if not want_output:
            return trained, None, None
    only_sinks = sinks(op)
    if len(only_sinks) != 1:
        raise ShapeMismatch("pipeline output requires exactly one sink")
    return trained, outputs[only_sinks[0]], keys[only_sinks[0]]


def _fit_step(op: Individual, Xs, ys, want_output: bool, key, store, runs):
    """_fit_node for one step."""
    scoring = store is not None
    frozen = op.frozen_trained and op.state == LifecycleState.TRAINED
    config = None if frozen else effective_config(op)
    if scoring and want_output and key is not None and not op.frozen_trained:
        canonical = schema_model.exact_json_key(config)
        key = None if canonical is None else (key, op.impl, canonical)
        if key in store:
            return None, store[key], key
    else:
        key = None
    if frozen:
        artifacts = [op.artifacts] * len(ys)
    else:
        impl = implementation_of(op)
        run_key = None
        if scoring and impl.budget is not None:
            run_key = _run_key(impl, config, Xs[:len(ys)], ys)
        if run_key is None:
            artifacts = impl.fit(config, list(zip(Xs, ys)))
        else:
            run = runs.get(run_key, {})
            artifacts = impl.fit(config, list(zip(Xs, ys)), run)
            runs[run_key] = run
    trained = None
    if not scoring:
        trained = [op] * len(ys) if frozen else [
            op._copy(op.bound, LifecycleState.TRAINED, a) for a in artifacts]
        if not want_output:
            return trained, None, None
    elif not want_output:
        impl = implementation_of(op)
        return None, [impl.apply(a, X) for a, X in zip(artifacts, Xs[len(ys):])], None
    impl = implementation_of(op)
    outputs = [_step_output(impl, a, X) for a, X in zip(artifacts * (1 + scoring), Xs)]
    if key is not None:
        outputs = store[key] = [_read_only(out) for out in outputs]
    return trained, outputs, key


def _run_key(impl: ToyImplementation, config, Xs, ys):
    """The key under which fits of ``impl`` on these problems share their
    runs: its name, the canonical JSON of ``config`` without the budget,
    every input's and label vector's dtype and shape, and a SHA-256 of
    their bytes. Fits that differ only in the budget get one key. None when
    the configuration is not exact JSON or an input is not a plain array."""
    rest = schema_model.exact_json_key(
        {name: value for name, value in config.items() if name != impl.budget})
    parts = (*Xs, *ys)
    if rest is None or not all(isinstance(part, np.ndarray) and not part.dtype.hasobject
                               for part in parts):
        return None
    digest = hashlib.sha256()
    for part in parts:
        digest.update(np.ascontiguousarray(part))
    layout = tuple((part.dtype.str, part.shape) for part in parts)
    return impl.name, rest, layout, digest.digest()


def _input_for(preds, outputs, Xs):
    """Each input's value for a step with predecessors ``preds``: the
    pipeline's input for a source step, else its predecessor's output, or
    for several predecessors a tuple of their outputs in index order."""
    if not preds:
        return Xs
    if len(preds) == 1:
        return outputs[preds[0]]
    return list(zip(*(outputs[p] for p in sorted(preds))))


def _input_key(preds, keys, key):
    """The prefix key of ``_input_for(preds, ...)``. A merged input's key
    is the tuple of its parts' keys, which holds no str and so never equals
    a step's key."""
    if not preds:
        return key
    if len(preds) == 1:
        return keys[preds[0]]
    parts = tuple(keys[p] for p in sorted(preds))
    return None if any(part is None for part in parts) else parts


def _step_output(impl: ToyImplementation, artifacts, X):
    out = impl.apply(artifacts, X)
    if impl.kind == "estimator":
        # Mid-pipeline estimators contribute predictions as a feature column.
        return np.asarray(out, dtype=float).reshape(-1, 1)
    return out


def _read_only(value):
    if isinstance(value, np.ndarray):
        value = value.view()
        value.flags.writeable = False
    return value


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
    outputs: dict[int, list] = {}
    for index, step in enumerate(op.steps):
        step_input = _input_for(op.predecessors(index), outputs, [X])[0]
        feature = as_feature or index != only_sinks[0]
        outputs[index] = [_predict_node(step, step_input, as_feature=feature)]
    return outputs[only_sinks[0]][0]


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
    history = opt.run(compiled, objective, spec, cont_samples)
    if history.best is None:
        raise opt.NoValidTrial("every trial failed")
    best = compiled.decode(history.trials[history.best].point)
    return fit(best, data)
