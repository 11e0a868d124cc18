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
import functools
import hashlib
import time
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
    """A dataflow graph of steps. The steps are listed in topological order:
    every edge ``(i, j)`` has ``i < j``, so a walk in index order visits a
    step after all of its predecessors."""

    steps: tuple[Operator, ...]
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self):
        n = len(self.steps)
        for i, j in self.edges:
            if not 0 <= i < j < n:
                raise OperatorError(f"edge ({i}, {j}) must run forward: 0 <= i < j < {n}")

    def predecessors(self, index: int) -> tuple[int, ...]:
        return tuple(i for i, j in self.edges if j == index)


@dataclass(frozen=True)
class Choice(Operator):
    alternatives: tuple[Operator, ...]

    def __post_init__(self):
        if len(self.alternatives) < 2:
            raise TooFewAlternatives("a choice needs at least two alternatives")


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
    completed = {**op.schema.declared_defaults, **merged}
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

    base = rebuild(schema_model.base_object(schema))
    if isinstance(schema, AllOfNode):
        return replace(schema, children=(base,) + schema.children[1:])
    return base


# ---------------------------------------------------------------------------
# Toy implementation registry (populated by the toyml module)


@dataclass(frozen=True)
class ToyImplementation:
    """A native operator. ``fit(jobs)`` fits many jobs in one call: each
    job is ``(config, problems, key)``, the effective hyperparameters, a
    sequence of ``(X, y)`` problems and the content key of the problems'
    inputs (None when they have none). It returns one list per job of one
    artifact per problem, in order. ``apply(artifacts, X)`` maps features
    (transformer) or predicts labels (estimator) with one artifact.

    Each problem's fit is independent and deterministic: its artifact
    depends only on its job's ``config`` and that problem, never on the
    other problems or jobs or their order, so fitting many at once gives
    what fitting each alone would, bit for bit. Most implementations loop
    over the jobs; LogRegGD runs all their descents in lockstep, jobs with
    one key and configuration but for ``iterations`` as one descent.

    ``budget``, when set, names the hyperparameter that counts a fit's
    steps; ``fit_predict_many`` shares a fit call's time by it.

    ``share``, when set, is work that depends only on a problem and on the
    hyperparameters named in ``share_by``: ``share(config, X, y)`` gets
    ``config`` cut down to those names. ``fit_predict_many`` then gives
    each problem a third item, ``shared``, a function of no arguments that
    returns ``share``'s result on that problem and the problem's own
    held-out input, the very object ``apply`` gets for that problem;
    ``fit`` calls it instead of doing the work, and must give the same
    artifacts, and ``apply`` the same answers, with or without it. The
    result is kept in the store as long as the store lives and handed to
    every fit that asks for it, so what it answers must never change: it
    may only grow. PrunedTree's grown tree depends on ``maxDepth`` and
    ``R``, and only its pruning on ``C``. KNN's neighbour table depends
    on nothing but the problem (``share_by=()``): ``apply`` widens it to
    the largest ``k`` asked for so far and reads it only for the held-out
    input that came with it, told by identity, since another array with
    equal values may be in another layout or belong to another input.
    """

    name: str
    kind: str  # "transformer" | "estimator"
    fit: Callable[..., list[list[Any]]]
    apply: Callable[[Any, Any], Any]
    budget: str | None = None
    share: Callable[[Mapping[str, Any], Any, Any], Any] | None = None
    share_by: tuple[str, ...] = ()


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
    return {**op.schema.declared_defaults, **op.bound}


# ---------------------------------------------------------------------------
# Fit / predict


def fit(op: Operator, data) -> Operator:
    """Train an operator on a labeled dataset, returning a trained copy.

    Pipelines fit steps in topological order: a source step trains on the
    pipeline's data, every other step on its predecessors' outputs. Labels
    pass through unchanged; only a Concat step may merge multiple
    predecessor outputs. Each step is fitted once and applied once, only
    when a successor needs its output. A frozen trained step is kept as it
    is.
    """
    _check_fittable(op)
    X, y = np.asarray(data.X, dtype=float), np.asarray(data.y)
    return _fit_node(op, X, y, as_feature=False)[0]


def fit_predict_many(ops, datasets, held_out, store: dict) -> list:
    """For each operator, ``(outcome, seconds)``. The outcome is each
    dataset's held-out predictions by a copy of the operator fitted on that
    dataset, what ``predict(fit(op, datasets[i]), held_out[i])`` gives, or
    the exception that raises; no trained copies are built. The operators
    are scored as one window, in three passes:

    1. each operator's walk, up to and without its final step;
    2. one ``fit`` call per implementation for all the final steps that
       have it (LogRegGD descends them in lockstep); if that call raises,
       each of its jobs is fitted alone, so each gets its own error;
    3. each final step's predictions on the held-out inputs.

    An operator whose walk raises leaves the window with that exception.
    ``seconds`` is the operator's own walk and predictions plus a share of
    each fit call its final step was in, in proportion to the steps it
    asked for (its budget; an equal share without one).

    Each step's implementation fits every dataset in one call and maps the
    held-out inputs right after. ``store`` keeps the non-final steps'
    outputs for later calls on the same labels: it must only ever see these
    datasets' label vectors (``toyml.cv_splits`` gives each set of splits
    its own store).

    Every value passed between steps has a content key: the SHA-256 of
    the dtype, shape, strides and bytes of all its training and held-out
    arrays. It is computed once, when a non-final step produces the value;
    the walk's own input gets its key once per store, stored under ``()``.
    A merged input's key is the tuple of its parts' keys. A non-final
    step's outputs and their key are stored under ``(impl, canonical
    config, input key)``, with ``canonical`` the exact-JSON key of a
    configuration (``schema_model.exact_json_key``), and a later step with
    an equal key is served from the store instead of fitted. Every fit gets
    its input's key in its jobs.

    A frozen trained step, a step whose configuration is not exact JSON
    and a step whose input is not a plain array get no entry and are
    fitted every call; a non-final one's outputs still get a content key,
    so its successors are stored. A fit or map that raises stores nothing.
    Stored arrays are read-only views, so an implementation that writes
    into its input fails instead of corrupting later calls.

    A step whose implementation has a ``share`` hook, final or not, gets
    the hook's result on problem i from the store, under ``(impl,
    canonical config cut to share_by, (input key, i))``; the input key
    covers the problem's held-out input too. It is computed the first
    time a fit asks for it, so a fit that raises before it asks stores
    nothing. Steps whose input has no key share nothing. Two kinds share:
    PrunedTree its grown trees (one per fold, input, ``maxDepth`` and
    ``R``) and KNN its neighbour tables (one per fold and input).
    """
    Xs = [np.asarray(data.X, dtype=float) for data in datasets]
    Xs += [np.asarray(X, dtype=float) for X in held_out]
    ys = [np.asarray(data.y) for data in datasets]
    outcomes: dict[int, tuple] = {}
    finals: dict[int, _Final] = {}
    for i, op in enumerate(ops):
        start = time.perf_counter()
        try:
            finals[i] = _walk(op, Xs, ys, store)
        except Exception as exc:
            outcomes[i] = exc, time.perf_counter() - start
        else:
            finals[i].seconds += time.perf_counter() - start
    groups: dict[str, list[_Final]] = {}
    for final in finals.values():
        if final.artifacts is None:
            groups.setdefault(final.impl.name, []).append(final)
    for group in groups.values():
        _fit_finals(group)
    for i, final in finals.items():
        start = time.perf_counter()
        outcome = final.error
        if outcome is None:
            try:
                outcome = final.predict()
            except Exception as exc:
                outcome = exc
        outcomes[i] = outcome, final.seconds + time.perf_counter() - start
    return [outcomes[i] for i in range(len(ops))]


@dataclass(eq=False)
class _Final:
    """A final step met by a walk, waiting for its fit (``job``, its
    ``(config, problems, key)``, or its ``artifacts`` when it is frozen
    trained) and its predictions on ``held_out``; ``weight`` is its share
    of a fit call."""
    impl: ToyImplementation
    job: tuple | None
    weight: float
    held_out: list
    artifacts: list | None = None
    error: Exception | None = None
    seconds: float = 0.0

    def predict(self) -> list:
        return [self.impl.apply(a, X) for a, X in zip(self.artifacts, self.held_out)]


def _walk(op: Operator, Xs, ys, store: dict) -> _Final:
    """Pass 1 of ``fit_predict_many`` for one operator: its final step.
    When the walk raises after meeting final steps (a graph with several
    sinks), they are fitted first, in order, so that it raises what fitting
    step by step would raise first."""
    _check_fittable(op)
    if () not in store:
        store[()] = _content_key(Xs)
    pending: list[_Final] = []
    try:
        _score_node(op, Xs, ys, store[()], store, pending)
    except Exception:
        for final in pending:
            if final.artifacts is None:
                _fit_finals([final])
                if final.error is not None:
                    raise final.error from None
        raise
    [final] = pending
    return final


def _fit_finals(finals: list[_Final]) -> None:
    """Fit the finals' jobs with one call of their implementation's fit
    and share its time by weight; if the call raises, fit each alone."""
    start = time.perf_counter()
    try:
        fitted = finals[0].impl.fit([f.job for f in finals])
    except Exception as exc:
        if len(finals) == 1:
            finals[0].error = exc
            finals[0].seconds += time.perf_counter() - start
        else:
            for final in finals:
                _fit_finals([final])
        return
    elapsed = time.perf_counter() - start
    total = sum(f.weight for f in finals)
    for final, artifacts in zip(finals, fitted):
        final.artifacts = artifacts
        final.seconds += elapsed * (final.weight / total if total else 1 / len(finals))


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


def _fit_node(op: Operator, X, y, as_feature: bool):
    """A copy of ``op`` trained on ``(X, y)``, and op's output on ``X`` as
    a feature if ``as_feature``, else None."""
    if isinstance(op, Choice):
        raise UnresolvedChoice("cannot fit an unresolved choice")
    if isinstance(op, Individual):
        impl = implementation_of(op)
        if not (op.frozen_trained and op.state == LifecycleState.TRAINED):
            [[artifacts]] = impl.fit([(effective_config(op), [(X, y)], None)])
            op = op._copy(op.bound, LifecycleState.TRAINED, artifacts)
        return op, (_step_output(impl, op.artifacts, X) if as_feature else None)
    assert isinstance(op, Pipeline)
    outputs: dict[int, list] = {}
    trained_steps = []
    sink_set = set(sinks(op))
    for index, step in enumerate(op.steps):
        step_input = _input_for(op.predecessors(index), outputs, [X])[0]
        trained, output = _fit_node(step, step_input, y, as_feature or index not in sink_set)
        trained_steps.append(trained)
        outputs[index] = [output]
    trained = Pipeline(tuple(trained_steps), op.edges)
    return trained, (outputs[_only_sink(op)][0] if as_feature else None)


def _score_node(op: Operator, Xs, ys, key, store: dict, final: list | None):
    """Fit ``op`` on each of the first ``len(ys)`` inputs in ``Xs`` with its
    labels; dataset i's fitted copy maps inputs i and len(ys) + i. Returns
    op's outputs as features on all of ``Xs`` and their content key. When
    ``final`` is a list, op is final: its final steps are not fitted but
    appended to ``final`` (``_Final``), and None is returned. ``key`` is
    the content key of ``Xs`` (None if it has none)."""
    if isinstance(op, Choice):
        raise UnresolvedChoice("cannot fit an unresolved choice")
    if isinstance(op, Individual):
        return _score_step(op, Xs, ys, key, store, final)
    assert isinstance(op, Pipeline)
    outputs: dict[int, list] = {}
    keys: dict[int, Any] = {}
    sink_set = set(sinks(op))
    for index, step in enumerate(op.steps):
        preds = op.predecessors(index)
        outputs[index], keys[index] = _score_node(
            step, _input_for(preds, outputs, Xs), ys, _input_key(preds, keys, key), store,
            final if index in sink_set else None)
    sink = _only_sink(op)
    return outputs[sink], keys[sink]


def _score_step(op: Individual, Xs, ys, key, store: dict, final: list | None):
    """_score_node for one step."""
    impl = implementation_of(op)
    n = len(ys)
    if op.frozen_trained and op.state == LifecycleState.TRAINED:
        if final is not None:
            final.append(_Final(impl, None, 0.0, Xs[n:], [op.artifacts] * n))
            return None, None
        artifacts, entry_key = [op.artifacts] * n, None
    else:
        config = effective_config(op)
        job = config, _problems(impl, config, Xs, ys, key, store), key
        if final is not None:
            steps = config.get(impl.budget) if impl.budget is not None else 1
            weight = float(steps) if type(steps) is int and steps > 0 else 0.0
            final.append(_Final(impl, job, weight, Xs[n:]))
            return None, None
        entry_key = _store_key(op.impl, config, key)
        if entry_key in store:
            return store[entry_key]
        [artifacts] = impl.fit([job])
    outputs = [_read_only(_step_output(impl, a, X)) for a, X in zip(artifacts * 2, Xs)]
    entry = outputs, _content_key(outputs)
    if entry_key is not None:
        store[entry_key] = entry
    return entry


def _problems(impl: ToyImplementation, config, Xs, ys, key, store: dict) -> list:
    """The ``(X, y)`` problems of a step's job, each with a third item,
    its ``shared`` function, when the implementation has a ``share`` hook
    and ``_store_key`` gives an entry key. Problem i's ``shared`` keeps
    the hook's result in ``store`` under the entry key with ``(key, i)``
    as its input key, which never equals a content key, and returns it
    with the problem's own held-out input ``Xs[len(ys) + i]``."""
    problems = list(zip(Xs, ys))
    if impl.share is None:
        return problems
    named = {name: config[name] for name in impl.share_by if name in config}
    entry_key = _store_key(impl.name, named, key)
    if entry_key is None:
        return problems
    return [(X, y, functools.partial(_shared, store, entry_key[:2] + ((key, i),),
                                     impl.share, named, X, y, Xs[len(ys) + i]))
            for i, (X, y) in enumerate(problems)]


def _shared(store: dict, entry_key, share, named, X, y, held_out):
    if entry_key not in store:
        store[entry_key] = share(named, X, y)
    return store[entry_key], held_out


def _store_key(impl_name: str, config, key):
    """``(impl_name, canonical config, key)``: the key of a store entry.
    None when ``key`` is None or ``config`` is not exact JSON."""
    if key is None:
        return None
    canonical = schema_model.exact_json_key(config)
    return None if canonical is None else (impl_name, canonical, key)


def _content_key(values):
    """The SHA-256 digest of the dtype, shape, strides and bytes of every
    array in ``values``, or None when one is not a plain array. Equal
    values in another memory layout get another key: a fit may give other
    bits on them (LogRegGD's gemv sums in layout order)."""
    digest = hashlib.sha256()
    for value in values:
        if not isinstance(value, np.ndarray) or value.dtype.hasobject:
            return None
        digest.update(f"{value.dtype.str}{value.shape}{value.strides}".encode())
        digest.update(np.ascontiguousarray(value))
    return digest.digest()


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
    """The content key of ``_input_for(preds, ...)``. A merged input's key
    is the tuple of its parts' keys, which never equals a digest."""
    if not preds:
        return key
    if len(preds) == 1:
        return keys[preds[0]]
    parts = tuple(keys[p] for p in sorted(preds))
    return None if any(part is None for part in parts) else parts


def _only_sink(op: Pipeline) -> int:
    only_sinks = sinks(op)
    if len(only_sinks) != 1:
        raise ShapeMismatch("pipeline output requires exactly one sink")
    return only_sinks[0]


def _step_output(impl: ToyImplementation, artifacts, X):
    """A step's output as its successors see it: mid-pipeline estimators
    contribute their predictions as a feature column."""
    out = impl.apply(artifacts, X)
    if impl.kind == "estimator":
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
        return _step_output(impl, op.artifacts, X) if as_feature else impl.apply(op.artifacts, X)
    if isinstance(op, Choice):
        raise UnresolvedChoice("cannot predict with an unresolved choice")
    assert isinstance(op, Pipeline)
    sink = _only_sink(op)
    outputs: dict[int, list] = {}
    for index, step in enumerate(op.steps):
        step_input = _input_for(op.predecessors(index), outputs, [X])[0]
        outputs[index] = [_predict_node(step, step_input, as_feature or index != sink)]
    return outputs[sink][0]


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
