"""Slow reference implementations that tests compare the library against.

Graph isomorphism is a test oracle only. The default resolvers are the three
the library had before `SchemaNode.declared_defaults` replaced them; tests
check that all four agree. `reference_cv_objective` is the cross-validation
objective before it kept the loss of each point it scored; tests check that
searches under both give the same histories. `reference_cross_val_score` is
the cross-validation score with every fold fitted alone and nothing
stored; tests check that both give the same scores, or raise the same
exception type. `reference_fit_pruned_tree` is PrunedTree's fit as it
pruned the tree it had just grown in place; tests check that fits pruning
grown trees kept in a store give the same trees. The range predicates and
continuous draws below are the copies the library had before
`schema_model.in_range` and the one continuous draw (now
`space_backends._draw_plan`) replaced them;
tests check that the replacements give the same answers and the same draws.
`reference_grid_params` is emit_grid with those draws and a scan of the
values kept so far for an equal one; tests check that emit_grid keeps the
same values. `reference_draw_cont`, `reference_flat_doc` and
`reference_emit_grid` are the draw, the flat document and the grid as they
were before each domain was rendered once per call: `rng.randint` and
`rng.uniform` on every draw, and a new document or value list for each
domain of each flat row; tests check that the draw plans and documents
give the same text. `reference_flat_rows` is the flat and grid emitters'
cross-product walker as it built an operator disjunct's slot rows from one
empty row and then merged the disjunct's fragment into each; tests check
that the walker gives the same rows, in the same key order.
`reference_point_keys`, `reference_pcs_plan` and `reference_entries` are
the point keys, the PCS plan and the decode table of a leaf as each walked
the leaf's disjuncts for names of its own; tests check that the one
per-name table, `LeafIR.entries`, gives the same keys in the same order,
the same plan and the same table.
`to_schema` rebuilds a schema from a normal form; tests check that
normalizing it again accepts the same configurations.
`reference_normalize` is normalization as it filled every constraint
record with the declared domains of the names the constraint leaves
alone, and intersected records name by name; tests check that partial records admit the same configurations
with no more disjuncts, and the same disjuncts where no declared property
has two overlapping alternatives.
`reference_exact_json_key` is the memo key as the sorted JSON of a mapping;
tests check that `schema_model.exact_json_key` tells the same mappings
apart. `derives` decides whether a grammar can derive a linear pipeline;
tests check that every pipeline sampled from a grammar is derivable and a
foreign one is not. `serialize` writes a schema back to JSON; tests check
that `parse_schema` reads it back to the same schema. `default_point` is
the all-defaults point of a space; decode tests decode it and compare it
across encodings.
`reference_bandit_search` is bandit search as it called the objective
once per trial; tests check that bandit search, which plans a window of
steps and cuts the plan where a greedy pick changes, gives the same
histories at every window length.
`reference_validate`, `reference_configure` and `reference_copy` are
validation, configuration and the operator copy as they were before the
valid path stopped allocating (a report per call, a property dict per
object, both merges always, the dataclass constructor); tests check that
the library gives equal reports and operators equal in `exact_form`.
`reference_unfold` is grammar unfolding as it counted the expansion,
built it whole with blocked nonterminals marked, and then pruned it, in
three walks, and built its operator with `reference_build_operator`, which
walks the pruned expansion as a tree; tests check that the one walk,
building each shared node once, gives equal operators, or the same error.
`space_dimensions` counts the dimensions of a hierarchical document, as
random search did; tests check that a drawn point is empty exactly when
there are none.
`reference_tokenize` is the pipeline language's hand scanner; tests check
that the one token pattern gives equal tokens and equal errors, apart from
the end of a text that ends inside a comment.
`reference_lockstep_descent` is LogRegGD's lockstep as it made two `.dot`
calls per segment on each input as given; tests check that the stacked
lockstep gives the same weights, bit for bit.
`reference_predict` is prediction as its own walk over the trained
operator, before it ran fit's walk over a frozen trained copy; tests check
that both give the same predictions, bit for bit.
`reference_stratified_folds` deals each row to the smallest fold, lowest
index first, by a scan of every fold; tests check that dealing row t to
fold t % k gives the same folds.
"""

import functools
import itertools
import json
import math
import random
import time
from collections.abc import Mapping
from dataclasses import dataclass
from statistics import NormalDist

import numpy as np

from lalec import operator_graph as og
from lalec import optimizer as opt
from lalec import schema_model as sm
from lalec import toyml
from lalec.grammar_engine import EmptyAfterPruning, GrammarError, UnfoldTooLarge, _choice_list
from lalec.optimizer import InvalidConfigError
from lalec.operator_graph import (
    Choice,
    Individual,
    Operator,
    Pipeline,
    ValidationFailed,
    configure,
)
from lalec.pipeline_dsl import (
    _COMBINATORS,
    Both,
    Call,
    Choose,
    ExprAst,
    GrammarFile,
    NontermRef,
    Pipe,
    Ref,
    SyntaxError_,
    UnknownOperator,
    _resolve,
    _Token,
    refuse_deep_nesting,
)
from lalec.schema_model import (
    MISSING,
    AllOfNode,
    AnyNode,
    AnyOfNode,
    EnumNode,
    MissingDefault,
    NotNode,
    ObjectNode,
    OperatorSlotNode,
    RangeNode,
    SchemaNode,
)
from lalec.space_backends import (
    ChoiceIR,
    CompiledSpace,
    DecodeError,
    LeafIR,
    SearchIR,
    StepMapIR,
    _join,
    _pcs_param,
    _real_bounds,
    _same_domain,
    emit_flat,
    emit_hierarchical,
    sample_space,
)
from lalec import space_normalizer as norm
from lalec.space_normalizer import DEFAULT_BLOWUP_LIMIT, Domain, NormalForm


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


def reference_cv_objective(compiled: CompiledSpace, data, folds: int = 5, cv_seed: int = 0):
    """optimizer.make_cv_objective without its memo: every call decodes and
    fits, and the splits are made once, at the first point that decodes."""
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


def reference_bandit_search(space_doc, objective, spec) -> opt.History:
    """optimizer.bandit_search before every search scored through ``many``:
    the objective is called once per trial, timed, and the best trial is
    the first valid one no later trial's loss is below."""
    found = opt._top_level_choice(space_doc)
    if found is None:
        return opt.random_search(space_doc, objective, spec)
    discriminant, branch_values = found
    rng = random.Random(spec.seed)
    means = {value: 0.0 for value in branch_values}
    counts = {value: 0 for value in branch_values}
    trials = []
    for index in range(spec.max_trials):
        unvisited = [v for v in branch_values if counts[v] == 0]
        if unvisited:
            branch = unvisited[0]
        elif rng.random() < spec.bandit_epsilon:
            branch = branch_values[rng.randrange(len(branch_values))]
        else:
            branch = min(branch_values, key=lambda v: means[v])
        point = sample_space(space_doc, rng, force_branch={discriminant: branch})
        start = time.perf_counter()
        try:
            outcome = float(objective(point))
        except Exception as exc:
            outcome = exc
        trial = opt._trial(index, point, outcome, time.perf_counter() - start)
        trials.append(trial)
        counts[branch] += 1
        means[branch] += (trial.loss - means[branch]) / counts[branch]
    best = None
    for t in trials:
        if t.status == opt.VALID and (best is None or t.loss < trials[best].loss):
            best = t.index
    return opt.History(tuple(trials), best, spec.seed, opt.space_digest(space_doc))


def space_dimensions(doc) -> int:
    """The number of dimensions of a hierarchical space document: one per
    choice and per domain of each leaf disjunct, nested operator spaces
    counted through."""
    kind = doc["kind"]
    if kind == "steps":
        return sum(space_dimensions(c) for c in doc["steps"].values())
    if kind == "choice":
        return 1 + sum(space_dimensions(b) for b in doc["branches"].values())
    count = 0
    for disjunct in doc["disjuncts"]:
        for domain in disjunct.values():
            count += space_dimensions(domain["space"]) if domain["kind"] == "operator" else 1
    return count


def reference_cross_val_score(op, splits) -> float:
    """toyml.cross_val_score without its store: each fold's copy is fitted
    alone (operator_graph.fit) and predicts its test slice."""
    scores = [toyml.accuracy(og.predict(og.fit(op, train), test_X), test_y)
              for train, test_X, test_y in splits]
    return float(np.mean(scores))


def reference_predict(op: Operator, X):
    """operator_graph.predict as a walk of its own over the trained steps."""
    if og.state_of(op) != og.LifecycleState.TRAINED:
        raise og.NotTrained("operator is not trained")
    X = np.asarray(getattr(X, "X", X), dtype=float)
    og._only_sink(op)
    return _reference_predict_node(op, X, as_feature=False)


def _reference_predict_node(op: Operator, X, as_feature: bool):
    if isinstance(op, Individual):
        impl = og.implementation_of(op)
        if as_feature:
            return og._step_output(impl, op.artifacts, X)
        return impl.apply(op.artifacts, X)
    if isinstance(op, Choice):
        raise og.UnresolvedChoice("cannot predict with an unresolved choice")
    assert isinstance(op, Pipeline)
    op_sinks = og.sinks(op)
    outputs: dict[int, list] = {}
    for index, step in enumerate(op.steps):
        step_input = og._input_for(op.predecessors(index), outputs, [X])[0]
        outputs[index] = [_reference_predict_node(step, step_input,
                                                  as_feature or index not in op_sinks)]
    return og._input_for(op_sinks, outputs, [X])[0]


def reference_stratified_folds(ds, k: int, seed: int) -> list[list[int]]:
    """toyml.stratified_folds as it scanned every fold for the smallest."""
    if k < 2 or k > len(ds.y):
        raise ValueError("folds must satisfy 2 <= k <= n")
    rng = random.Random(seed)
    folds: list[list[int]] = [[] for _ in range(k)]
    for cls in range(ds.n_classes):
        idx = [int(i) for i in np.flatnonzero(ds.y == cls)]
        rng.shuffle(idx)
        for i in idx:
            smallest = min(range(k), key=lambda f: (len(folds[f]), f))
            folds[smallest].append(i)
    return folds


# ---------------------------------------------------------------------------
# Pruned trees


def reference_fit_pruned_tree(config, X, y):
    """PrunedTree's fit as one growth and a pruning that rewrites the grown
    tree's own nodes, so nothing of it can be shared."""
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=int)
    reduced_error = bool(config.get("R", False))
    confidence = config.get("C", 0.25)
    if reduced_error and confidence != 0.25:
        raise toyml.ConstraintTrap(
            f"reduced-error pruning requires confidence 0.25, got {confidence!r}")
    max_depth = int(config.get("maxDepth", 6))
    n_classes = int(y.max()) + 1
    if reduced_error and len(y) >= 8:
        order = list(range(len(y)))
        random.Random(29).shuffle(order)
        cut = max(1, len(y) // 4)
        grow_idx = np.array(order[cut:], dtype=int)
        hold_idx = np.array(order[:cut], dtype=int)
        tree = toyml._grow_tree(X[grow_idx], y[grow_idx], n_classes, 0, max_depth)
        tree = _reference_prune_reduced_error(tree, X[hold_idx], y[hold_idx])
    else:
        tree = toyml._grow_tree(X, y, n_classes, 0, max_depth)
        if not reduced_error:
            z = NormalDist().inv_cdf(1.0 - min(max(float(confidence), 1e-6), 0.499999))
            tree = _reference_prune_pessimistic(tree, z)
    return {"tree": tree, "n_classes": n_classes}


def _reference_prune_pessimistic(node, z):
    if "feature" not in node:
        return node
    node["left"] = _reference_prune_pessimistic(node["left"], z)
    node["right"] = _reference_prune_pessimistic(node["right"], z)
    n = int(node["counts"].sum())
    leaf_errors = n - int(node["counts"].max())
    subtree = _reference_subtree_pessimistic(node, z)
    if toyml._wilson_upper(leaf_errors, n, z) * n <= subtree + 1e-12:
        return {"counts": node["counts"], "label": node["label"]}
    return node


def _reference_subtree_pessimistic(node, z) -> float:
    if "feature" not in node:
        n = int(node["counts"].sum())
        return toyml._wilson_upper(n - int(node["counts"].max()), n, z) * n
    return (_reference_subtree_pessimistic(node["left"], z)
            + _reference_subtree_pessimistic(node["right"], z))


def _reference_prune_reduced_error(node, X, y):
    if "feature" not in node or len(y) == 0:
        return node
    mask = X[:, node["feature"]] <= node["threshold"]
    node["left"] = _reference_prune_reduced_error(node["left"], X[mask], y[mask])
    node["right"] = _reference_prune_reduced_error(node["right"], X[~mask], y[~mask])
    subtree_errors = int((toyml._tree_predict(node, X) != y).sum())
    leaf_errors = int((y != node["label"]).sum())
    if leaf_errors <= subtree_errors:
        return {"counts": node["counts"], "label": node["label"]}
    return node


# ---------------------------------------------------------------------------
# LogRegGD descents


def reference_lockstep_descent(descents, penalty, solver):
    """Logistic-regression descents in lockstep: for each ``(problems, lr,
    counts)`` descent, its flat raw weights after each step count in
    ``counts`` (ascending).

    A descent fits one row of weights per target row of every ``(Xb, T)``
    problem, with its own learning rate; all descents share the penalty
    and the solver. Every descent's weights are those it would reach alone:
    a step depends only on the weights, the data, lr and penalty, and the
    sgd rows of a problem of n rows are taken once, for the longest
    descent, since fewer rows are a prefix of more (see ``toyml._sgd_rows``).
    """
    # Seeded search histories depend on these weights bit for bit, so every
    # step of every descent computes
    #   z = clip(Xs @ w, -30, 30); p = 1 / (1 + exp(-z))
    #   grad = Xs.T @ (p - ts) / batch + lam * (sign(w) or w)
    #   w = clip(w - lr * grad, -1e6, 1e6)
    # with the same float operations in the same order: rounding depends on
    # the order, and a reassociated or fused form (say, folding lr into the
    # gradient, or one gemm for all targets) would change the last bits. The
    # bits also depend on the memory layout of each Xb: gemv sums in another
    # order over a Fortran-ordered matrix than over a C-ordered copy of it,
    # so Xb is used as given, never copied or concatenated. A step is at
    # most 200x7, so the cost is the calls, not the arithmetic.
    # So each descent keeps its own two gemv calls, each writing into its
    # segment of a flat buffer (out passed by position, which parses faster
    # than out=), and every elementwise op runs once over all descents: z
    # holds every descent's rows, w, grad and lr one segment per descent,
    # and size each segment's batch. lr * grad has the bits of the scalar
    # product in each element. Constants are 0-d arrays, and
    # minimum(maximum(...)) has np.clip's bits, NaN included.
    #
    # Descents are aligned at their first step and laid out longest first,
    # so the ones still running at any step are a prefix of every buffer and
    # each op runs on a prefix view; a phase is a run of steps with no
    # descent ending or recording in it.
    #
    # Finiteness is left to the caller: the clip maps +-inf to +-1e6, and a
    # NaN weight stays NaN (w - lr * grad and the clip keep it), so a
    # descent that ever held a NaN ends with one, as if it had stopped at
    # that step. No op mixes segments, so a NaN in one descent leaves the
    # others alone.
    sgd, l1 = solver == "sgd", penalty == "l1"
    lam = np.array(1e-2)
    one, z_lo, z_hi = np.array(1.0), np.array(-30.0), np.array(30.0)
    w_lo, w_hi = np.array(-1e6), np.array(1e6)
    rows: dict = {}  # sgd rows by row count: the layout puts the longest descent first
    order = sorted(range(len(descents)), reverse=True, key=lambda j: descents[j][2][-1])
    # problems: per problem (Xb, sgd's rows of each aligned step or None,
    # batch, d); segments: per descent target (problem index, w, z and t
    # offsets); ends: per descent in layout order (w, z, segment) ends.
    problems, segments, ends, t_parts, spans = [], [], [], [], {}
    w_at = z_at = t_at = 0
    for j in order:
        problem_list, _, counts = descents[j]
        w0 = w_at
        for Xb, T in problem_list:
            n, d = Xb.shape
            batch = max(1, n // 4) if sgd else n
            if sgd and n not in rows:
                rows[n] = toyml._sgd_rows(n, counts[-1] * batch)
            steps = rows[n][:counts[-1] * batch].reshape(counts[-1], batch) if sgd else None
            problems.append((Xb, steps, batch, d))
            for target in T:
                segments.append((len(problems) - 1, w_at, z_at, t_at))
                t_parts.append(target)
                w_at, z_at, t_at = w_at + d, z_at + batch, t_at + len(target)
        spans[j] = (w0, w_at)
        ends.append((w_at, z_at, len(segments)))
    w, grad = np.zeros(w_at), np.empty(w_at)
    z = np.empty(z_at)
    lrs, size = np.empty(w_at), np.empty(w_at)
    for j in order:
        w0, w1 = spans[j]
        lrs[w0:w1] = descents[j][1]
    views = []
    for g, w0, z0, _ in segments:
        _, _, batch, d = problems[g]
        size[w0:w0 + d] = batch
        views.append((g, w[w0:w0 + d], grad[w0:w0 + d], z[z0:z0 + batch]))
    t_all = np.concatenate(t_parts) if t_parts else np.empty(0)
    if not sgd:
        Xs = [Xb for Xb, *_ in problems]
        XsT = [Xb.T for Xb in Xs]

    remaining = [counts[-1] for _, _, counts in descents]
    records: dict = {}  # step -> the descents that record their weights after it
    for j, (_, _, counts) in enumerate(descents):
        for c in counts:
            records.setdefault(c, []).append(j)
    recorded = [{} for _ in descents]
    active, step = len(order), 0
    for stop in sorted(records):
        while active and remaining[order[active - 1]] <= step:
            active -= 1
        if stop > step and active:
            W, Z, n_seg = ends[active - 1]
            wv, gv, zv, lv, sv = w[:W], grad[:W], z[:Z], lrs[:W], size[:W]
            segs = views[:n_seg]
            if sgd:
                live = {g: problems[g] for g, *_ in segs}
                # Per step: each problem's batch of rows, and per target its
                # row indices, their offsets and its targets.
                floats = sum(batch * d for _, _, batch, d in live.values()) + 3 * Z
                block = max(1, toyml.ROW_BLOCK_FLOATS // floats)
            else:
                block = stop - step
                ts = t_all[:Z]
            for b0 in range(step, stop, block):
                b1 = min(b0 + block, stop)
                if sgd:
                    # One gather per problem for the block's steps, and one
                    # for their targets; a step's batch is a view of it.
                    taken = {g: (Xb.take(steps[b0:b1].ravel(), axis=0), batch)
                             for g, (Xb, steps, batch, _) in live.items()}
                    t_block = t_all.take(np.concatenate(
                        [problems[g][1][b0:b1] + t0 for g, _, _, t0 in segments[:n_seg]], axis=1))
                for k in range(b1 - b0):
                    if sgd:
                        Xs = {g: X[k * batch:(k + 1) * batch] for g, (X, batch) in taken.items()}
                        XsT = {g: X.T for g, X in Xs.items()}
                        ts = t_block[k]
                    for g, w_k, _, z_k in segs:
                        Xs[g].dot(w_k, z_k)
                    np.maximum(zv, z_lo, out=zv)
                    np.minimum(zv, z_hi, out=zv)
                    np.negative(zv, out=zv)
                    np.exp(zv, out=zv)
                    np.add(one, zv, out=zv)
                    np.divide(one, zv, out=zv)
                    np.subtract(zv, ts, out=zv)
                    for g, _, grad_k, z_k in segs:
                        XsT[g].dot(z_k, grad_k)
                    gv /= sv
                    gv += lam * (np.sign(wv) if l1 else wv)
                    wv -= lv * gv
                    np.maximum(wv, w_lo, out=wv)
                    np.minimum(wv, w_hi, out=wv)
        step = stop
        for j in records[stop]:
            w0, w1 = spans[j]
            recorded[j][stop] = w[w0:w1].copy()
    return [[recorded[j][c] for c in counts] for j, (_, _, counts) in enumerate(descents)]


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


def reference_cont_admits(domain: RangeNode, value) -> bool:
    """space_normalizer's range test, without a type check."""
    if domain.integer_valued and float(value) != int(value):
        return False
    if value < domain.lo or (domain.lo_open and value == domain.lo):
        return False
    if value > domain.hi or (domain.hi_open and value == domain.hi):
        return False
    return True


def reference_cont_admits_scalar(domain: RangeNode, value) -> bool:
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
    if isinstance(domain, EnumNode):
        doc = {"kind": "categorical", "values": list(domain.values)}
        if domain.default is not MISSING:
            doc["default"] = domain.default
        return doc
    if isinstance(domain, RangeNode):
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
    assert isinstance(domain, SearchIR)
    return {"kind": "operator", "marker": domain.prefix, "space": emit_hierarchical(domain)}


def reference_draw_cont_doc(domain, rng):
    """The draw hierarchical points and grid samples made from a domain
    document."""
    if domain["integer"]:
        lo, hi = sm.integer_bounds(domain["lo"], domain["hi"], domain["loOpen"], domain["hiOpen"])
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
        if isinstance(param, EnumNode):
            point[name] = param.values[rng.randrange(len(param.values))]
        elif param.integer_valued:
            lo, hi = int(param.lo), int(param.hi)
            if param.prior.kind == "loguniform":
                point[name] = min(max(int(round(math.exp(
                    rng.uniform(math.log(lo), math.log(hi))))), lo), hi)
            else:
                point[name] = rng.randint(lo, hi)
        else:
            if param.prior.kind == "loguniform":
                point[name] = math.exp(rng.uniform(math.log(param.lo), math.log(param.hi)))
            else:
                point[name] = rng.uniform(param.lo, param.hi)
    return point


def reference_grid_params(compiled, cont_samples, seed):
    """emit_grid's values before the one draw body, drawn from domain
    documents built per flat row, and kept unless an equal value
    (``scalar_eq``) was kept before, found by scanning them."""
    rng = random.Random(seed)
    out = []
    for row in compiled.flat():
        params = {}
        for name, domain in row.items():
            values = [] if domain.default is MISSING else [domain.default]
            for _ in range(cont_samples):
                draw = reference_draw_cont_doc(reference_domain_doc(domain), rng)
                if not any(sm.scalar_eq(draw, v) for v in values):
                    values.append(draw)
            params[name] = values
        out.append(params)
    return out


def reference_draw_cont(rng, lo, hi, lo_open, hi_open, integer, log, q):
    """space_backends' continuous draw before draw plans: `rng.randint` and
    `rng.uniform`, with the bounds worked out again on every draw."""
    if integer:
        lo_i, hi_i = sm.integer_bounds(lo, hi, lo_open, hi_open)
        if log:
            value = int(round(math.exp(rng.uniform(math.log(lo_i), math.log(hi_i)))))
        else:
            value = rng.randint(lo_i, hi_i)
        return min(max(value, lo_i), hi_i)
    lo_eps, hi_eps = _real_bounds(lo, hi, lo_open, hi_open)
    if log:
        value = math.exp(rng.uniform(math.log(lo_eps), math.log(hi_eps)))
    else:
        value = rng.uniform(lo_eps, hi_eps)
    if q:
        k = round(value / q)
        for candidate in (k * q, (k - 1) * q, (k + 1) * q):
            if sm.in_range(candidate, lo, hi, lo_open, hi_open, False):
                return candidate
    return min(max(value, lo_eps), hi_eps)


def reference_flat_doc(rows):
    """flat_doc as it built a new document for each domain of each row."""
    return {"disjuncts": [{name: reference_domain_doc(domain) for name, domain in row.items()}
                          for row in rows]}


def reference_emit_grid(ir, cont_samples=1, seed=0, limit=DEFAULT_BLOWUP_LIMIT):
    """emit_grid as it scanned each row of emit_flat, with a new value list
    for each domain of each row and `reference_draw_cont` for each draw. It
    has no draw limit."""
    if cont_samples < 1:
        raise ValueError("cont_samples must be positive")
    rng = random.Random(seed)
    disjuncts = []
    cell_count = 0
    for row in emit_flat(ir, limit):
        params = {}
        for name, domain in row.items():
            if isinstance(domain, EnumNode):
                params[name] = list(domain.values)
            else:
                values = [] if domain.default is MISSING else [domain.default]
                seen = {(isinstance(v, bool), v) for v in values}
                for _ in range(cont_samples):
                    draw = reference_draw_cont(
                        rng, domain.lo, domain.hi, domain.lo_open, domain.hi_open,
                        domain.integer_valued, domain.prior.kind == "loguniform",
                        domain.prior.quantization)
                    if (isinstance(draw, bool), draw) not in seen:
                        seen.add((isinstance(draw, bool), draw))
                        values.append(draw)
                params[name] = values
        disjuncts.append({"params": params})
        cells = 1
        for values in params.values():
            cells *= len(values)
        cell_count += cells
    return {"disjuncts": disjuncts, "cellCount": cell_count}


def reference_flat_rows(ir: SearchIR, render) -> list[dict]:
    """space_backends._flat_rows as it built an operator disjunct's slot
    rows from one empty row, then merged the disjunct's fragment into each."""
    if isinstance(ir, StepMapIR):
        rows: list[dict] = [{}]
        for _, child in ir.steps:
            child_rows = reference_flat_rows(child, render)
            rows = [{**a, **b} for a in rows for b in child_rows]
        return rows
    if isinstance(ir, ChoiceIR):
        rows = []
        for value, body in ir.branches:
            stamp = render({ir.discriminant: EnumNode((value,), value)})
            rows += [{**stamp, **row} for row in reference_flat_rows(body, render)]
        return rows
    assert isinstance(ir, LeafIR)
    rows = []
    for _, base, slots in ir.mangled:
        slot_rows: list[dict] = [{}]
        for slot in slots:
            nested_rows = reference_flat_rows(slot, render)
            slot_rows = [{**a, **b} for a in slot_rows for b in nested_rows]
        base = render(base)
        rows += [{**base, **extra} for extra in slot_rows]
    return rows


def reference_point_keys(ir: SearchIR) -> dict:
    """space_backends._point_keys of a compiled, so collision-free, IR, as
    it walked each leaf's disjuncts in turn for their names: a key at its
    first place, and each operator slot's nested IR from the first disjunct
    that holds it."""
    keys: dict = {}
    if isinstance(ir, LeafIR):
        slots = {}
        for disjunct in ir.nf.disjuncts:
            for name, domain in disjunct.items():
                if isinstance(domain, SearchIR):
                    slots.setdefault(name, domain)
                else:
                    keys[_join(ir.prefix, name)] = ir.op.name, name
        for nested in slots.values():
            keys.update(reference_point_keys(nested))
    elif isinstance(ir, StepMapIR):
        for _, child in ir.steps:
            keys.update(reference_point_keys(child))
    else:
        keys[ir.discriminant] = None, ir.prefix
        for _, body in ir.branches:
            for key, owner in reference_point_keys(body).items():
                keys.setdefault(key, owner)
    return keys


def reference_pcs_plan(leaf: LeafIR) -> tuple:
    """LeafIR.pcs_plan as it read the first disjunct's names, and each
    name's domain from every disjunct."""
    disjuncts = leaf.nf.disjuncts
    selector = None
    if len(disjuncts) > 1:
        selector = (_join(leaf.unique, "disjunct"),
                    EnumNode(tuple(str(i) for i in range(len(disjuncts))), "0"))
    params: list = []
    for name in (disjuncts[0] if disjuncts else ()):
        domains = tuple(d[name] for d in disjuncts)
        public = _join(leaf.prefix, name)
        if isinstance(domains[0], SearchIR):
            params.append(domains[0])
        elif selector is None or all(_same_domain(d, domains[0]) for d in domains):
            params.append((public, _pcs_param(domains[0]), ("param", public, domains), None))
        else:
            params += [(public if index == 0 else f"{public}__{index}",
                        _pcs_param(domain), ("param", public, (domain,)), str(index))
                       for index, domain in enumerate(domains)]
    return selector, tuple(params)


def reference_entries(leaf: LeafIR) -> tuple:
    """LeafIR.entries as it took each name's domains from the disjuncts
    that name it."""
    entries = []
    for name in leaf.nf.names():
        domains = tuple(d[name] for d in leaf.nf.disjuncts if name in d)
        nested = domains[0] if isinstance(domains[0], SearchIR) else None
        entries.append((name, _join(leaf.prefix, name), domains, nested))
    return tuple(entries)


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
        branches.append(ObjectNode(tuple(disjunct.items()), additional_allowed=False))
    if len(branches) == 1:
        return branches[0]
    union_props = []
    for name in nf.names():
        variants = []
        for disjunct in nf.disjuncts:
            node = disjunct[name]
            if node not in variants:
                variants.append(node)
        union_props.append((name, variants[0] if len(variants) == 1 else AnyOfNode(tuple(variants))))
    base = ObjectNode(tuple(union_props), additional_allowed=False)
    return AllOfNode((base, AnyOfNode(tuple(branches))))


# ---------------------------------------------------------------------------
# Normalizing with every record filled to every declared name


def reference_normalize(schema: SchemaNode, limit: int = DEFAULT_BLOWUP_LIMIT) -> NormalForm:
    """space_normalizer.normalize as it filled each constraint record with
    the declared domains of every name the constraint leaves alone."""
    declared = sm.declared_domains(schema)
    declared_alts = {name: norm._domain_alternatives(node, limit)
                     for name, node in declared.items()}
    constraints = schema.children[1:] if isinstance(schema, AllOfNode) else ()
    conjuncts = itertools.chain([_reference_fill({}, declared_alts, limit)],
                                (_reference_norm(child, declared_alts, limit)
                                 for child in constraints))
    disjuncts = norm._conjoin(conjuncts, _reference_intersect_records, limit)
    if not disjuncts:
        raise norm.EmptySpace("no satisfiable disjunct remains")
    defaults = schema.declared_defaults
    return NormalForm(tuple(
        {name: norm._attach_default(d[name], defaults.get(name, MISSING)) for name in declared}
        for d in disjuncts))


def _reference_norm(node, declared_alts, limit):
    if isinstance(node, AnyOfNode):
        records = (record for child in node.children
                   for record in _reference_norm(child, declared_alts, limit))
        return norm.capped_list(records, limit)
    if isinstance(node, AllOfNode):
        branches = (_reference_norm(child, declared_alts, limit) for child in node.children)
        return norm._conjoin(branches, _reference_intersect_records, limit)
    if isinstance(node, NotNode):
        return norm.capped_list(_reference_complement(node.child, declared_alts, limit), limit)
    if isinstance(node, ObjectNode):
        return norm.capped_list(_reference_norm_object(node, declared_alts, limit), limit)
    if isinstance(node, AnyNode):
        return _reference_fill({}, declared_alts, limit)
    raise norm.NormalizeError(f"cannot normalize {type(node).__name__} as a constraint")


def _reference_norm_object(node, declared_alts, limit):
    names = [name for name, _ in node.properties]
    per_prop = [norm._domain_alternatives(sub, limit) for _, sub in node.properties]
    for combo in norm.capped_list(itertools.product(*per_prop), limit):
        yield from _reference_fill(dict(zip(names, combo)), declared_alts, limit)


def _reference_fill(record, declared_alts, limit):
    missing = [name for name in declared_alts if name not in record]
    if not missing:
        return [dict(record)]
    combos = itertools.product(*(declared_alts[name] for name in missing))
    return norm.capped_list((record | dict(zip(missing, combo)) for combo in combos), limit)


def _reference_intersect_records(a, b):
    merged = {}
    for name in a:
        if name not in b:
            merged[name] = a[name]
            continue
        domain = norm.intersect_domain(a[name], b[name])
        if domain is norm.EMPTY:
            return norm.EMPTY
        merged[name] = domain
    for name in b:
        if name not in a:
            merged[name] = b[name]
    return merged


def _reference_complement(child, declared_alts, limit):
    for name, sub in child.properties:
        if not isinstance(sub, EnumNode):
            raise sm.UnsupportedNegation(f"cannot complement non-enum property {name!r}")
        alts = declared_alts.get(name)
        if alts is None:
            raise norm.NormalizeError(f"negated property {name!r} has no declared domain")
        if len(alts) != 1 or not isinstance(alts[0], EnumNode):
            raise sm.UnsupportedNegation(f"declared domain of {name!r} is not a single enum")
        remaining = tuple(v for v in alts[0].values if not sm.enum_admits(sub.values, v))
        if remaining:
            yield from _reference_fill({name: EnumNode(remaining, alts[0].default)},
                                       declared_alts, limit)


# ---------------------------------------------------------------------------
# Grammar unfolding in three walks


@refuse_deep_nesting(GrammarError, "the unfolded pipeline nests too deeply")
def reference_unfold(grammar: GrammarFile, depth: int, registry) -> Operator:
    """grammar_engine.unfold as it counted the expansion, built it with
    blocked nonterminals marked, and then copied what survived pruning."""
    if depth < 1:
        raise ValueError("depth must be at least 1")
    args = grammar.body(grammar.start), grammar, {grammar.start: 1}, depth
    size = reference_expanded_size(*args, {})
    if size > DEFAULT_BLOWUP_LIMIT:
        raise UnfoldTooLarge(f"unfolding at depth {depth} would build {size} nodes, "
                             f"above the cap of {DEFAULT_BLOWUP_LIMIT}")
    pruned = _reference_prune(reference_expand(*args))
    if pruned is None:
        raise EmptyAfterPruning("every alternative still contained a nonterminal")
    return reference_build_operator(pruned, registry)


@dataclass(frozen=True)
class Blocked:
    """Marks a nonterminal left unexpanded because its depth ran out."""

    name: str


def reference_expand(ast: ExprAst, grammar: GrammarFile, counts: dict, depth: int):
    """The whole expansion, with a Blocked marker per exhausted nonterminal."""
    if isinstance(ast, NontermRef):
        used = counts.get(ast.name, 0)
        if used >= depth:
            return Blocked(ast.name)
        next_counts = dict(counts)
        next_counts[ast.name] = used + 1
        return reference_expand(grammar.body(ast.name), grammar, next_counts, depth)
    if isinstance(ast, (Pipe, Both, Choose)):
        return type(ast)(reference_expand(ast.left, grammar, counts, depth),
                         reference_expand(ast.right, grammar, counts, depth))
    return ast


def reference_expanded_size(ast: ExprAst, grammar: GrammarFile, counts: dict, depth: int,
                            memo: dict) -> int:
    """The number of nodes reference_expand builds, counted once per rule
    and counts along its path."""
    if isinstance(ast, NontermRef):
        used = counts.get(ast.name, 0)
        if used >= depth:
            return 1
        next_counts = {**counts, ast.name: used + 1}
        key = ast.name, frozenset(next_counts.items())
        if key not in memo:
            memo[key] = reference_expanded_size(grammar.body(ast.name), grammar, next_counts,
                                                depth, memo)
        return memo[key]
    if isinstance(ast, (Pipe, Both, Choose)):
        return (1 + reference_expanded_size(ast.left, grammar, counts, depth, memo)
                + reference_expanded_size(ast.right, grammar, counts, depth, memo))
    return 1


def _reference_prune(node):
    """Drop choice alternatives containing blocked nonterminals; collapse
    single-alternative choices; None means the whole subtree is unresolved."""
    if isinstance(node, Blocked):
        return None
    if isinstance(node, (Ref, Call)):
        return node
    if isinstance(node, (Pipe, Both)):
        left, right = _reference_prune(node.left), _reference_prune(node.right)
        return None if left is None or right is None else type(node)(left, right)
    if isinstance(node, Choose):
        alternatives = [a for a in map(_reference_prune, _choice_list(node)) if a is not None]
        return functools.reduce(Choose, alternatives) if alternatives else None
    raise TypeError(f"unexpected node {node!r}")


# ---------------------------------------------------------------------------
# Derivation membership (grammars without the & combinator)


def derives(grammar: GrammarFile, op: Operator) -> bool:
    """Oracle: can the grammar derive this concrete linear pipeline?"""
    chain = _linear_chain(op)
    if chain is None:
        raise GrammarError("the membership oracle only covers linear pipelines")
    return _derives_expr(NontermRef(grammar.start), tuple(chain), grammar,
                         {grammar.start: 0}, memo_depth=len(chain) + _grammar_size(grammar))


def _grammar_size(grammar: GrammarFile) -> int:
    return 2 * len(grammar.rules) + 2


def _linear_chain(op: Operator):
    if isinstance(op, Individual):
        return [op.name]
    if not isinstance(op, Pipeline):
        return None
    chain = []
    order = sorted(range(len(op.steps)))
    expected_edges = {(order[i], order[i + 1]) for i in range(len(order) - 1)}
    if set(op.edges) != expected_edges:
        return None
    for index in order:
        step = op.steps[index]
        if not isinstance(step, Individual):
            return None
        chain.append(step.name)
    return chain


def _derives_expr(ast: ExprAst, target: tuple, grammar, counts, memo_depth) -> bool:
    if isinstance(ast, NontermRef):
        # Bound recursion by the target length: deeper derivations can only
        # produce longer chains for the grammars this oracle serves.
        if counts.get(ast.name, 0) > memo_depth:
            return False
        next_counts = dict(counts)
        next_counts[ast.name] = next_counts.get(ast.name, 0) + 1
        return _derives_expr(grammar.body(ast.name), target, grammar, next_counts, memo_depth)
    if isinstance(ast, (Ref, Call)):
        name = ast.name
        return len(target) == 1 and target[0] == name
    if isinstance(ast, Choose):
        return any(_derives_expr(alt, target, grammar, counts, memo_depth)
                   for alt in _choice_list(ast))
    if isinstance(ast, Pipe):
        return any(
            _derives_expr(ast.left, target[:cut], grammar, counts, memo_depth)
            and _derives_expr(ast.right, target[cut:], grammar, counts, memo_depth)
            for cut in range(1, len(target))
        )
    if isinstance(ast, Both):
        raise GrammarError("the membership oracle only covers linear pipelines")
    return False


# ---------------------------------------------------------------------------
# Schemas back to JSON (inverse of parse_schema, up to key order)


def serialize(node: SchemaNode) -> dict:
    out: dict = {}
    if getattr(node, "description", ""):
        out["description"] = node.description
    if isinstance(node, ObjectNode):
        out["type"] = "object"
        out["properties"] = {name: serialize(sub) for name, sub in node.properties}
        if node.required:
            out["required"] = sorted(node.required)
        if not node.additional_allowed:
            out["additionalProperties"] = False
    elif isinstance(node, RangeNode):
        out["type"] = "integer" if node.integer_valued else "number"
        out["minimum"] = node.lo
        out["maximum"] = node.hi
        if node.lo_open:
            out["exclusiveMinimum"] = True
        if node.hi_open:
            out["exclusiveMaximum"] = True
        if node.prior.kind != "uniform":
            out["distribution"] = node.prior.kind
        if node.prior.quantization is not None:
            out["quantization"] = node.prior.quantization
        if node.default is not MISSING:
            out["default"] = node.default
    elif isinstance(node, EnumNode):
        out["enum"] = list(node.values)
        if node.default is not MISSING:
            out["default"] = node.default
    elif isinstance(node, AnyOfNode):
        out["anyOf"] = [serialize(c) for c in node.children]
        if node.default is not MISSING:
            out["default"] = node.default
    elif isinstance(node, AllOfNode):
        out["allOf"] = [serialize(c) for c in node.children]
    elif isinstance(node, NotNode):
        out["not"] = serialize(node.child)
    elif isinstance(node, OperatorSlotNode):
        out["typeForOptimizer"] = "operator"
        if node.default is not MISSING:
            out["default"] = node.default
    elif isinstance(node, AnyNode):
        pass
    else:  # pragma: no cover
        raise TypeError(f"cannot serialize {type(node).__name__}")
    return out


# ---------------------------------------------------------------------------
# Default points


def default_point(ir: SearchIR) -> dict:
    """The all-defaults point: first branch of every choice, first disjunct,
    declared defaults (midpoints when a domain has none)."""
    point: dict = {}
    _default_into(ir, point)
    return point


def _default_into(ir: SearchIR, point) -> None:
    if isinstance(ir, StepMapIR):
        for _, child in ir.steps:
            _default_into(child, point)
        return
    if isinstance(ir, ChoiceIR):
        value, body = ir.branches[0]
        point[ir.discriminant] = value
        _default_into(body, point)
        return
    assert isinstance(ir, LeafIR)
    for name, domain in ir.nf.disjuncts[0].items():
        if isinstance(domain, SearchIR):
            _default_into(domain, point)
            continue
        point[_join(ir.prefix, name)] = _domain_default(domain)


def _domain_default(domain: Domain):
    if isinstance(domain, EnumNode):
        if domain.default is not MISSING:
            return domain.default
        return domain.values[0]
    assert isinstance(domain, RangeNode)
    if domain.default is not MISSING:
        return domain.default
    if domain.integer_valued:
        lo, hi = sm.integer_bounds(domain.lo, domain.hi, domain.lo_open, domain.hi_open)
        return (lo + hi) // 2
    lo, hi = _real_bounds(domain.lo, domain.hi, domain.lo_open, domain.hi_open)
    return (lo + hi) / 2.0


# ---------------------------------------------------------------------------
# Validation and configuration


def reference_validate(config, schema) -> sm.ValidationReport:
    """schema_model.validate as it built a report, a property dict per
    object and an enum generator on every call."""
    violations: list = []
    _reference_check_config(config, schema, (), violations)
    first: dict = {}
    for v in violations:
        first.setdefault(v.path, v)
    kept = tuple(first.values())
    return sm.ValidationReport(ok=not kept, violations=kept)


def _reference_enum_admits(values, value) -> bool:
    return sm.is_scalar(value) and any(sm.scalar_eq(value, v) for v in values)


def _reference_check_config(config, node, path, out) -> bool:
    if isinstance(node, AllOfNode):
        ok = True
        for child in node.children:
            ok = _reference_check_config(config, child, path, out) and ok
        return ok
    if isinstance(node, AnyOfNode):
        for child in node.children:
            if _reference_check_config(config, child, path, []):
                return True
        out.append(sm.Violation(path, sm._describe(node), "constraintViolated"))
        return False
    if isinstance(node, NotNode):
        if _reference_negation_triggered(config, node.child):
            out.append(sm.Violation(path, sm._describe(node), "constraintViolated"))
            return False
        return True
    if isinstance(node, ObjectNode):
        ok = True
        props = node.property_map()
        for name, value in config.items():
            sub = props.get(name)
            if sub is None:
                if not node.additional_allowed:
                    out.append(sm.Violation(path + (name,), "unknown hyperparameter",
                                            "unknownName"))
                    ok = False
                continue
            ok = _reference_check_value(value, sub, path + (name,), out) and ok
        return ok
    if isinstance(node, AnyNode):
        return True
    raise sm.InvalidSchema(path, f"{type(node).__name__} cannot constrain a configuration")


def _reference_negation_triggered(config, child) -> bool:
    for name, sub in child.properties:
        if name not in config:
            return False
        if not _reference_check_value(config[name], sub, (name,), []):
            return False
    return True


def _reference_check_value(value, node, path, out) -> bool:
    if isinstance(node, AnyNode):
        return True
    if isinstance(node, EnumNode):
        if _reference_enum_admits(node.values, value):
            return True
        out.append(sm.Violation(path, f"value {value!r} not in {list(node.values)!r}", "enum"))
        return False
    if isinstance(node, RangeNode):
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            out.append(sm.Violation(path, f"expected a number, got {value!r}", "type"))
            return False
        if node.integer_valued and not sm._integral(value):
            out.append(sm.Violation(path, f"expected an integer, got {value!r}", "type"))
            return False
        if not sm.in_range(value, node.lo, node.hi, node.lo_open, node.hi_open,
                           node.integer_valued):
            text = sm.range_text(node.lo, node.hi, node.lo_open, node.hi_open)
            out.append(sm.Violation(path, f"value {value!r} outside {text}", "range"))
            return False
        return True
    if isinstance(node, OperatorSlotNode):
        if sm.is_operator_value(value):
            return True
        out.append(sm.Violation(path, f"expected an operator, got {value!r}", "type"))
        return False
    if isinstance(node, AnyOfNode):
        for child in node.children:
            if _reference_check_value(value, child, path, []):
                return True
        out.append(sm.Violation(path, sm._describe(node), "constraintViolated"))
        return False
    if isinstance(node, AllOfNode):
        ok = True
        for child in node.children:
            ok = _reference_check_value(value, child, path, out) and ok
        return ok
    if isinstance(node, NotNode):
        raise sm.UnsupportedNegation(
            f"negation is not allowed at property level ({sm.render_path(path)})")
    if isinstance(node, ObjectNode):
        if isinstance(value, Mapping):
            return _reference_check_config(value, node, path, out)
        out.append(sm.Violation(path, f"expected an object, got {value!r}", "type"))
        return False
    raise sm.InvalidSchema(path, f"unsupported node {type(node).__name__}")


def reference_configure(op, partial):
    """operator_graph.configure as it merged both sides of every merge,
    validated with `reference_validate` and built each copy through the
    dataclass constructor."""
    if not isinstance(op, Individual):
        raise og.OperatorError("configure applies to individual operators")
    merged = {**op.bound, **partial}
    completed = {**op.schema.declared_defaults, **merged}
    try:
        valid = reference_validate(completed, op.schema).ok
    except Exception:
        valid = False
    if not valid:
        for config in (partial, completed):
            report = reference_validate(config, op.schema)
            if not report.ok:
                raise ValidationFailed(report, op.name)
    if not partial and op.state != og.LifecycleState.PLANNED:
        return op
    state = op.state if op.state != og.LifecycleState.PLANNED else og.LifecycleState.TRAINABLE
    artifacts = op.artifacts
    if partial and op.state == og.LifecycleState.TRAINED:
        state, artifacts = og.LifecycleState.TRAINABLE, None
    return reference_copy(op, merged, state, artifacts)


def reference_copy(op, bound, state, artifacts):
    """Individual._copy as it called the constructor, whose __post_init__
    checks the artifacts rule."""
    return Individual(op.name, op.schema, bound, op.impl, state,
                      op.frozen_trainable, op.frozen_trained, artifacts)


def exact_form(value):
    """A form of a decoded value that two values share only when they are
    equal in class, name, state, artifacts and bound values, those in the
    same order and equal in type and bits (1, 1.0 and True differ, as do
    0.0 and -0.0, and NaN equals NaN); schemas are compared by identity."""
    if isinstance(value, Individual):
        return ("Individual", value.name, id(value.schema), value.impl, value.state,
                value.frozen_trainable, value.frozen_trained, repr(value.artifacts),
                tuple((name, exact_form(v)) for name, v in value.bound.items()))
    if isinstance(value, Pipeline):
        return "Pipeline", value.edges, tuple(exact_form(step) for step in value.steps)
    if isinstance(value, Choice):
        return "Choice", tuple(exact_form(alt) for alt in value.alternatives)
    if isinstance(value, float):
        return "float", value.hex()
    return type(value).__name__, repr(value)


# ---------------------------------------------------------------------------
# The pipeline language's scanner and operator builder


_PUNCT = (">>", ":=", "(", ")", "|", "&", ",", "=", ";")


def reference_tokenize(text: str) -> list[_Token]:
    """pipeline_dsl._tokenize as a hand scanner moving its position, line
    and column by hand, character by character."""
    tokens = []
    line, col = 1, 1
    i = 0
    n = len(text)
    while i < n:
        c = text[i]
        if c == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if c.isspace():
            i += 1
            col += 1
            continue
        if c == "#":
            while i < n and text[i] != "\n":
                i += 1
            continue
        start_col = col
        matched = next((p for p in _PUNCT if text.startswith(p, i)), None)
        if matched:
            tokens.append(_Token("punct", matched, line, start_col))
            i += len(matched)
            col += len(matched)
            continue
        if c == '"':
            j = i + 1
            chars = []
            while j < n and text[j] != '"':
                if text[j] == "\\" and j + 1 < n:
                    chars.append(text[j + 1])
                    j += 2
                else:
                    chars.append(text[j])
                    j += 1
            if j >= n:
                raise SyntaxError_(line, start_col, "unterminated string literal")
            tokens.append(_Token("string", "".join(chars), line, start_col))
            literal = text[i:j + 1]
            breaks = literal.count("\n")
            line += breaks
            col = len(literal) - literal.rfind("\n") if breaks else col + len(literal)
            i = j + 1
            continue
        if c.isdigit() or (c in "+-" and i + 1 < n and (text[i + 1].isdigit() or text[i + 1] == ".")) \
                or (c == "." and i + 1 < n and text[i + 1].isdigit()):
            j = i
            if text[j] in "+-":
                j += 1
            while j < n and (text[j].isdigit() or text[j] in ".eE" or
                             (text[j] in "+-" and text[j - 1] in "eE")):
                j += 1
            literal = text[i:j]
            try:
                value = int(literal)
            except ValueError:
                try:
                    value = float(literal)
                except ValueError:
                    raise SyntaxError_(line, start_col, f"bad number literal {literal!r}") from None
            tokens.append(_Token("number", value, line, start_col))
            col += j - i
            i = j
            continue
        if c.isalpha() or c == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(_Token("name", text[i:j], line, start_col))
            col += j - i
            i = j
            continue
        raise SyntaxError_(line, start_col, f"unexpected character {c!r}")
    tokens.append(_Token("end", None, line, col))
    return tokens


def reference_build_operator(ast: ExprAst, registry) -> Operator:
    """pipeline_dsl.build_operator as it walked the expression as a tree,
    building a shared node again at each place that shares it."""
    if isinstance(ast, Ref):
        return _resolve(ast.name, registry)
    if isinstance(ast, NontermRef):
        raise UnknownOperator(f"nonterminal {ast.name!r} outside a grammar")
    if isinstance(ast, Call):
        op = _resolve(ast.name, registry)
        config = {}
        for key, value in ast.args:
            if isinstance(value, Ref):
                value = _resolve(value.name, registry)
            config[key] = value
        return configure(op, config)
    if isinstance(ast, (Pipe, Both, Choose)):
        return _COMBINATORS[type(ast)](reference_build_operator(ast.left, registry),
                                       reference_build_operator(ast.right, registry))
    raise TypeError(f"not an expression node: {ast!r}")
