"""Small native operators, synthetic datasets, and evaluation helpers.

Just enough machine learning to drive compiled search spaces end to end:
scalers, a variance filter, feature concatenation, k-nearest neighbors,
gradient-descent logistic regression, a pruned decision tree, a stump, and
a boosting ensemble with an operator-valued base slot. Every fit is
deterministic given its inputs.
"""

from __future__ import annotations

import csv
import math
import random
import time
from dataclasses import dataclass
from pathlib import Path
from statistics import NormalDist

import numpy as np

from . import operator_graph as og
from . import schema_model
from .operator_graph import (
    ImplementationError,
    Individual,
    ShapeMismatch,
    ToyImplementation,
    register_impl,
)


class ConstraintTrap(ImplementationError):
    """Deliberate fit-time failure of the pruned tree when reduced-error
    pruning is combined with a non-default confidence. This is the late
    runtime error that early schema validation is meant to replace."""


class BadCsv(Exception):
    pass


class LabelColumnMissing(Exception):
    pass


@dataclass(frozen=True, eq=False)
class LabeledDataset:
    X: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "X", np.asarray(self.X, dtype=float))
        object.__setattr__(self, "y", np.asarray(self.y, dtype=int))
        if self.X.ndim != 2 or self.X.shape[0] < 1 or self.X.shape[1] < 1:
            raise ValueError("features must be a nonempty 2-d matrix")
        if self.y.shape != (self.X.shape[0],):
            raise ValueError("labels must match the number of rows")
        classes = np.unique(self.y)
        if classes[0] != 0 or classes[-1] != len(classes) - 1:
            raise ValueError("class ids must be contiguous from 0")

    @property
    def n_classes(self) -> int:
        return int(self.y.max()) + 1

    def subset(self, indices) -> "LabeledDataset":
        idx = np.asarray(indices, dtype=int)
        return _derived(self.X[idx], self.y[idx])


def _derived(X, y) -> LabeledDataset:
    """A dataset of rows taken from checked data, built without the checks:
    a training fold or a boosting sample may lack a class the data holds."""
    ds = object.__new__(LabeledDataset)
    ds.__dict__.update(X=X, y=y)
    return ds


def _matrix(X, width=None):
    """X as floats; given a width, a matrix of that many columns or ShapeMismatch."""
    if isinstance(X, tuple):
        raise ShapeMismatch("only a Concat step accepts multiple inputs")
    X = np.asarray(X, dtype=float)
    if width is not None and (X.ndim != 2 or X.shape[1] != width):
        raise ShapeMismatch(f"expected a matrix of {width} columns, got shape {X.shape}")
    return X


# ---------------------------------------------------------------------------
# Transformers


def _fit_noop(config, X, y):
    _matrix(X)
    return {}


def _apply_noop(artifacts, X):
    return _matrix(X)


def _fit_standard_scaler(config, X, y):
    X = _matrix(X)
    with_mean = config.get("withMean", True)
    with_std = config.get("withStd", True)
    mean = X.mean(axis=0) if with_mean else np.zeros(X.shape[1])
    scale = X.std(axis=0) if with_std else np.ones(X.shape[1])
    scale = np.where(scale == 0.0, 1.0, scale)
    return {"mean": mean, "scale": scale}


def _apply_standard_scaler(artifacts, X):
    return (_matrix(X, len(artifacts["mean"])) - artifacts["mean"]) / artifacts["scale"]


def _fit_minmax_scaler(config, X, y):
    X = _matrix(X)
    lo = X.min(axis=0)
    span = X.max(axis=0) - lo
    span = np.where(span == 0.0, 1.0, span)
    return {"lo": lo, "span": span}


def _apply_minmax_scaler(artifacts, X):
    return (_matrix(X, len(artifacts["lo"])) - artifacts["lo"]) / artifacts["span"]


def _fit_select_k_variance(config, X, y):
    X = _matrix(X)
    k = int(config.get("k", 2))
    k = max(1, min(k, X.shape[1]))
    variances = X.var(axis=0)
    ranked = sorted(range(X.shape[1]), key=lambda j: (-variances[j], j))
    return {"columns": np.array(sorted(ranked[:k]), dtype=int), "width": X.shape[1]}


def _apply_select_k_variance(artifacts, X):
    return _matrix(X, artifacts["width"])[:, artifacts["columns"]]


def _fit_concat(config, X, y):
    return {}


def _apply_concat(artifacts, X):
    parts = X if isinstance(X, tuple) else (X,)
    columns = [np.asarray(p, dtype=float) for p in parts]
    return np.hstack([c.reshape(len(c), math.prod(c.shape[1:])) for c in columns])


# ---------------------------------------------------------------------------
# k-nearest neighbors


def _fit_knn(config, X, y, shared=None):
    X = _matrix(X)
    return {
        "X": X,
        "y": np.asarray(y, dtype=int),
        "k": int(config.get("k", 5)),
        "weighting": config.get("weighting", "uniform"),
        "n_classes": int(np.max(y)) + 1,
        # The problem's neighbour table and its own held-out input, when shared.
        "neighbours": shared() if shared is not None else (None, None),
    }


def _distances(X, train_X):
    """Squared distances of every row of X to every training row."""
    return ((X[:, None, :] - train_X[None, :, :]) ** 2).sum(axis=2)


# The largest k that KNN's schema admits (schemas/KNN.schema.json).
KNN_TABLE_K = 25


def _neighbour_table(config, X, y, held_out):
    """KNN's ``share`` hook: for every held-out row, the first ``min(
    KNN_TABLE_K, training rows)`` training rows in stable order of squared
    distance (int32) and those distances, read-only. The first k of a stable
    order are a prefix of this one for every k up to its width. The
    distances are kept, not recomputed from the order: that would not always
    give the same bits."""
    X = _matrix(X)
    order, d2 = _smallest_k(_distances(_matrix(held_out, X.shape[1]), X), min(KNN_TABLE_K, len(X)))
    order = order.astype(np.int32)
    order.flags.writeable = d2.flags.writeable = False
    return order, d2


def _smallest_k(d2, k):
    """``np.argsort(d2, axis=1, kind="stable")[:, :k]`` and the values it
    picks, without sorting whole rows.

    Each row's k-th smallest value ``kth`` comes from ``np.partition``. The
    row's first k in stable order are every entry that sorts before ``kth``
    plus the lowest-index entries equal to it; those k are then sorted
    stably. NaN sorts last, as in ``np.sort``, and NaNs tie with each other.
    """
    m = d2.shape[1]
    kth = np.partition(d2, k - 1, axis=1)[:, k - 1:k]
    nan, nan_kth = np.isnan(d2), np.isnan(kth)
    picked = (d2 < kth) | (nan_kth & ~nan)
    # Flat indices of the entries equal to kth, ascending and so row by row;
    # each one's rank among its row's ties decides whether a slot is left.
    tied = np.flatnonzero((d2 == kth) | (nan_kth & nan))
    row = tied // m
    rank = np.arange(len(tied)) - np.searchsorted(row, row)
    open_slots = k - np.count_nonzero(picked, axis=1)
    np.put(picked, tied[rank < open_slots[row]], True)
    flat = np.flatnonzero(picked).reshape(len(d2), k)
    flat = np.take_along_axis(flat, np.argsort(d2.ravel()[flat], axis=1, kind="stable"), axis=1)
    return flat % m, d2.ravel()[flat]


def _votes(labels, weights, n_classes):
    """Summed weight per (row, class) of ``labels[row, j]`` voting with
    ``weights[row, j]``.

    One ``np.bincount`` over the (row, label) cells adds the weights of a
    cell in column order, bit for bit as a ``np.add.at`` per column would.
    """
    rows = len(labels)
    cells = (np.arange(rows)[:, None] * n_classes + labels).ravel()
    votes = np.bincount(cells, weights=weights.ravel(), minlength=rows * n_classes)
    return votes.reshape(rows, n_classes)


def _apply_knn(artifacts, X):
    train_X, train_y = artifacts["X"], artifacts["y"]
    X = _matrix(X, train_X.shape[1])
    k = max(1, min(artifacts["k"], len(train_X)))
    table, held_out = artifacts.get("neighbours", (None, None))
    if table is not None and X is held_out and k <= table[0].shape[1]:
        order, nearest = table[0][:, :k], table[1][:, :k]
    else:
        order, nearest = _smallest_k(_distances(X, train_X), k)
    if artifacts["weighting"] == "distance":
        w = 1.0 / (np.sqrt(nearest) + 1e-12)
    else:
        w = np.ones(order.shape)
    return _votes(train_y[order], w, artifacts["n_classes"]).argmax(axis=1)


# ---------------------------------------------------------------------------
# Logistic regression by gradient descent (one-vs-rest beyond two classes)


def _fit_logreg(jobs):
    """One list of artifacts per ``(config, problems, key)`` job, one
    artifact per problem, with every descent of every job in one lockstep
    per solver and penalty (``_logreg_descent``), which steps the problems
    of one input shape together, on stacked copies of their inputs.

    Jobs whose configurations differ at most in ``iterations``, whose
    problems' inputs have one content ``key`` and whose problems share
    their label arrays run as one descent, which records its weights at
    each of their counts. A job without a key, or with a configuration
    that is not exact JSON, descends alone. Between calls, only the sgd
    rows of the last row count are kept (``_sgd_rows``).
    """
    # Per (solver, penalty), one descent per run: [problems with a bias
    # column and 0/1 target rows, lr, counts, raw weights by count].
    groups: dict = {}
    plan = []
    # Per problem, the features with a bias column and one 0/1 target row
    # per one-vs-rest class (only class 1 for two classes). Jobs of one
    # window mostly share their inputs and labels, so each array gets one
    # biased copy or one set of target rows. hstack keeps the input's memory
    # order, and so do the lockstep's stacks, on which the bits depend.
    biases: dict = {}
    labels: dict = {}
    for config, problems, key in jobs:
        lr = float(config.get("learningRate", 0.1))
        count = max(int(config.get("iterations", 100)), 0)
        penalty = config.get("penalty", "l2")
        solver = config.get("solver", "gd")
        if solver not in ("gd", "sgd"):
            solver = "gd"
        biased, class_counts = [], []
        for X, y in problems:
            if id(X) not in biases:
                matrix = _matrix(X)
                biases[id(X)] = X, np.hstack([matrix, np.ones((len(matrix), 1))])
            if id(y) not in labels:
                classes = np.asarray(y, dtype=int)
                n_classes = int(classes.max()) + 1
                targets = np.arange(1, 2) if n_classes == 2 else np.arange(n_classes)
                labels[id(y)] = y, (classes == targets[:, None]).astype(float), n_classes
            _, T, n_classes = labels[id(y)]
            biased.append((biases[id(X)][1], T))
            class_counts.append(n_classes)
        canonical = None if key is None else schema_model.exact_json_key(
            {name: value for name, value in config.items() if name != "iterations"})
        run = len(plan) if canonical is None else (
            canonical, key, tuple(id(y) for _, y in problems))
        descent = groups.setdefault((solver, penalty), {}).setdefault(
            run, [biased, lr, set(), {}])
        descent[2].add(count)
        plan.append((descent, count, class_counts))
    for (solver, penalty), descents in groups.items():
        specs = [(biased, lr, sorted(counts)) for biased, lr, counts, _ in descents.values()]
        for descent, (_, _, counts), raws in zip(descents.values(), specs,
                                                 _logreg_descent(specs, penalty, solver)):
            descent[3].update(zip(counts, raws))
    fitted = []
    for (biased, _, _, raws), count, class_counts in plan:
        raw, at, artifacts = raws[count], 0, []
        for (Xb, T), n_classes in zip(biased, class_counts):
            W = raw[at:at + T.shape[0] * Xb.shape[1]].reshape(T.shape[0], Xb.shape[1]).copy()
            W[~np.isfinite(W).all(axis=1)] = 0.0
            artifacts.append({"weights": W, "n_classes": n_classes})
            at += W.size
        fitted.append(artifacts)
    return fitted


# The longest sgd rows drawn so far for the last row count: (n, rows).
_sgd_rows_memo = (0, np.empty(0, dtype=np.int64))


def _sgd_rows(n: int, count: int) -> np.ndarray:
    """``count`` rows ``random.Random(13).randrange(n)``, read-only. Rows
    for a count are a prefix of rows for a larger one, so the longest rows
    drawn for the last n serve every count up to theirs; a new n or a
    longer count draws afresh and replaces them, so what is kept is never
    more than one call draws."""
    global _sgd_rows_memo
    last_n, rows = _sgd_rows_memo
    if last_n != n or len(rows) < count:
        rng = random.Random(13)
        rows = np.array([rng.randrange(n) for _ in range(count)], dtype=np.int64)
        rows.flags.writeable = False
        _sgd_rows_memo = n, rows
    return rows[:count]


# The floats one stack of copied LogRegGD inputs may hold, and those (row
# indices included) one block of a stack's gathered sgd rows may hold. A
# segment whose input alone holds more runs on that input uncopied, and one
# step's rows are gathered even if they alone hold more.
ROW_BLOCK_FLOATS = 1 << 14
# The steps of one gd block: the clips a block's weight bound proves idle
# are skipped for the whole block (see _logreg_descent).
GD_BLOCK_STEPS = 32
# LogRegGD's penalty weight.
LAM = 1e-2


def _abs_bounds(source):
    """The largest |x| and the largest row sum of |x| in a stack of inputs
    (items x rows x columns), NaN if a cell is NaN, read in row blocks of
    at most ROW_BLOCK_FLOATS floats so that no full-size copy is made."""
    items, n, d = source.shape
    rows = max(1, ROW_BLOCK_FLOATS // (items * d))
    tops, sums = [], []
    for r in range(0, n, rows):
        block = np.abs(source[:, r:r + rows])
        tops.append(block.max())
        sums.append(block.sum(axis=2).max())
    return float(np.array(tops).max()), float(np.array(sums).max())


def _weight_bound(m, top, eta, steps):
    """B = (m + eta * (top + LAM) * steps) * (1 + eta * LAM) ** steps: no
    weight of a LogRegGD descent leaves B over `steps` steps from weights of
    at most m, at learning rates of at most eta, on inputs whose |x| are at
    most top (see _logreg_descent); inf where the power overflows."""
    try:
        return (m + eta * (top + LAM) * steps) * (1.0 + eta * LAM) ** steps
    except OverflowError:
        return math.inf


def _logreg_descent(descents, penalty, solver):
    """Logistic-regression descents in lockstep: for each ``(problems, lr,
    counts)`` descent, its flat raw weights after each step count in
    ``counts`` (ascending).

    A descent fits one row of weights per target row of every ``(Xb, T)``
    problem, with its own learning rate; all descents share the penalty
    and the solver. Every descent's weights are those it would reach alone:
    a step depends only on the weights, the data, lr and penalty, and the
    sgd rows of a problem of n rows are taken once, for the longest
    descent, since fewer rows are a prefix of more (see ``_sgd_rows``).
    """
    # Seeded search histories depend on these weights bit for bit, so every
    # step of every segment (one target row of one problem of one descent)
    # computes
    #   z = clip(Xs @ w, -30, 30); p = 1 / (1 + exp(-z))
    #   grad = Xs.T @ (p - ts) / batch + lam * (sign(w) or w)
    #   w = clip(w - lr * grad, -1e6, 1e6)
    # with the same float operations in the same order (but for a clip
    # proved idle, see below): rounding depends on the order, and a
    # reassociated or fused form (say, folding lr into the gradient, or one
    # gemm for all targets) would change the last bits.
    # A step is at most 200x7, so the cost is the calls, not the arithmetic.
    #
    # So segments whose inputs have one shape (and, for gd, one memory
    # order) step together in a stack: a copy of each segment's input, one
    # item per segment, at most ROW_BLOCK_FLOATS floats. A step makes one
    # np.matmul per stack for Xs @ w and one for Xs.T @ (p - ts), written as
    # the row (p - ts) @ Xs, and each elementwise op once over the stack.
    # numpy's matmul calls cblas_dgemv once per item, with the order, trans,
    # m, n and lda that Xs.dot(w) and Xs.T.dot(z) end up with (a row times
    # a matrix is passed as the matrix's transpose times a vector), so each
    # item gets the bits its own .dot calls give. (A 1x1 item aside: there
    # .dot multiplies as scalars, and a zero product may differ in sign,
    # which no weight shows: w is never -0, and exp(-0) is exp(0). A NaN
    # may differ in sign too, and the caller zeroes NaN weights. A
    # one-column item of more rows aside too: there .dot scales the column
    # by its one weight, and a zero weight gives 0 whatever the cell, where
    # matmul gives inf * 0 = NaN; a fit's one-column input is its bias
    # column alone, all ones.) The bits
    # depend on the memory order: gemv sums in another order over a
    # Fortran-ordered matrix than over a C-ordered copy of it. So a copy
    # keeps its input's order (a Fortran-ordered input is stacked as the
    # transpose of a C stack). sgd multiplies by its gathered rows, which
    # take gives C-ordered whatever the input's order, so its stacks only
    # need one shape. A stack of one segment runs on that segment's input
    # uncopied. lr * grad has the bits of the scalar product in each
    # element; constants are 0-d arrays, and minimum(maximum(...)) has
    # np.clip's bits, NaN included. A step allocates nothing: lam * w (or
    # lam * sign(w)) and lr * grad are written into one scratch buffer. The
    # ufuncs are bound to locals on each call, not at import, so that a
    # patched np.matmul is still the one called; out goes by position except
    # to maximum and minimum (numpy 2.4 deprecates that) and to matmul.
    #
    # Most steps' clips change nothing, so each block of steps (sgd's row
    # blocks; for gd, GD_BLOCK_STEPS steps of a phase) first bounds the
    # weights it can reach and drops each clip that bound proves idle. The
    # targets are 0 or 1, so |p - ts| <= 1 and no gradient entry exceeds
    # M + lam * |w| (l2) or M + lam (l1), with M the largest |x| of the
    # stack; so over L steps from weights of at most m in magnitude, at the
    # stack's largest lr eta, no weight leaves
    #   B = (m + eta * (M + lam) * L) * (1 + eta * lam) ** L  (_weight_bound),
    # and no |z| exceeds R * B, with R the largest row sum of |x|. The w
    # clip is skipped when 2B < 1e6 and the z clip when 2RB < 30; the
    # factor 2 covers rounding. M and R are read once per stack. A NaN or
    # an inf in the inputs, lrs or weights fails both comparisons, and so
    # does an M at which a gradient's sum over a batch could overflow before
    # its mean is taken; there the clips are kept.
    #
    # A stack's segments are laid out longest first, so the ones still
    # running at any step are a prefix of it and each op runs on a prefix
    # view; a phase is a run of steps with no segment ending or recording
    # in it. Stacks share no op, so each runs all its steps before the next
    # is built, and only one stack and its gathered rows are held at once.
    #
    # Finiteness is left to the caller: the clip maps +-inf to +-1e6, and a
    # NaN weight stays NaN (w - lr * grad and the clip keep it), so a
    # segment that ever held a NaN ends with one, as if it had stopped at
    # that step. No op mixes segments, so a NaN in one leaves the others
    # alone.
    sgd, l1 = solver == "sgd", penalty == "l1"
    matmul, maximum, minimum, negative, exp = np.matmul, np.maximum, np.minimum, np.negative, np.exp
    add, subtract, multiply, divide, sign = np.add, np.subtract, np.multiply, np.divide, np.sign
    lam = np.array(LAM)
    one, z_lo, z_hi = np.array(1.0), np.array(-30.0), np.array(30.0)
    w_lo, w_hi = np.array(-1e6), np.array(1e6)
    rows: dict = {}  # sgd rows by row count: the longest descent comes first
    # Segments by stack key, longest first, as (Xb, target, descent, slot);
    # parts: per descent, its segments' (stack snapshots by count, item).
    groups: dict = {}
    parts = [[] for _ in descents]
    for j in sorted(range(len(descents)), reverse=True, key=lambda j: descents[j][2][-1]):
        problems, _, counts = descents[j]
        for Xb, T in problems:
            n, d = Xb.shape
            if sgd and n not in rows:
                rows[n] = _sgd_rows(n, counts[-1] * max(1, n // 4))
            fortran = not sgd and Xb.flags.f_contiguous and not Xb.flags.c_contiguous
            for t in T:
                groups.setdefault((n, d, fortran), []).append((Xb, t, j, len(parts[j])))
                parts[j].append(None)
    for (n, d, fortran), group in groups.items():
        per = max(1, ROW_BLOCK_FLOATS // (n * d))
        for stack in (group[i:i + per] for i in range(0, len(group), per)):
            if len(stack) == 1:
                source = stack[0][0][None]
            elif fortran:
                source = np.stack([Xb.T for Xb, *_ in stack]).transpose(0, 2, 1)
            else:
                source = np.stack([Xb for Xb, *_ in stack])
            targets = np.stack([t for _, t, _, _ in stack])
            batch = max(1, n // 4) if sgd else n
            w, grad, scratch = (np.zeros((len(stack), d)), np.empty((len(stack), d)),
                                np.empty((len(stack), d)))
            z = np.empty((len(stack), batch))
            lrs = np.array([[descents[j][1]] * d for _, _, j, _ in stack])
            size = np.array(float(batch))
            top, row_sum = _abs_bounds(source)
            if not batch * top < 1e300:
                top = math.inf
            eta = float(np.abs(lrs).max())
            lengths = [descents[j][2][-1] for _, _, j, _ in stack]
            snapshots, step, active = {}, 0, len(stack)
            for stop in sorted({c for _, _, j, _ in stack for c in descents[j][2]}):
                while active and lengths[active - 1] <= step:
                    active -= 1
                if stop > step and active:
                    wv, gv, zv, lv = w[:active], grad[:active], z[:active], lrs[:active]
                    sv = scratch[:active]
                    W, G, Z, Zrow = wv[:, :, None], gv[:, None, :], zv[:, :, None], zv[:, None, :]
                    if sgd:
                        # Per step: each segment's batch of rows and targets,
                        # and the batch's row indices.
                        block = max(1, ROW_BLOCK_FLOATS // (batch * (active * (d + 1) + 1)))
                    else:
                        block = GD_BLOCK_STEPS
                    for b0 in range(step, stop, block):
                        b1 = min(b0 + block, stop)
                        if sgd:
                            # One gather per stack for the block's steps, and
                            # one for their targets; a step's batch is a view.
                            picked = rows[n][b0 * batch:b1 * batch].reshape(b1 - b0, batch)
                            Xs = np.take(source[:active], picked, axis=1).swapaxes(0, 1)
                            ts = np.take(targets[:active], picked, axis=1).swapaxes(0, 1)
                        else:
                            Xs, ts = [source[:active]] * (b1 - b0), [targets[:active]] * (b1 - b0)
                        reach = _weight_bound(float(np.abs(wv, sv).max()), top, eta, b1 - b0)
                        clip_z, clip_w = not 2 * row_sum * reach < 30, not 2 * reach < 1e6
                        for X, t in zip(Xs, ts):
                            matmul(X, W, out=Z)
                            if clip_z:
                                maximum(zv, z_lo, out=zv)
                                minimum(zv, z_hi, out=zv)
                            negative(zv, zv)
                            exp(zv, zv)
                            add(one, zv, zv)
                            divide(one, zv, zv)
                            subtract(zv, t, zv)
                            matmul(Zrow, X, out=G)
                            divide(gv, size, gv)
                            if l1:
                                multiply(lam, sign(wv, sv), sv)
                            else:
                                multiply(lam, wv, sv)
                            add(gv, sv, gv)
                            multiply(lv, gv, sv)
                            subtract(wv, sv, wv)
                            if clip_w:
                                maximum(wv, w_lo, out=wv)
                                minimum(wv, w_hi, out=wv)
                step = stop
                snapshots[stop] = w.copy()
            for i, (_, _, j, slot) in enumerate(stack):
                parts[j][slot] = snapshots, i
    return [[np.concatenate([snapshots[c][i] for snapshots, i in parts[j]] or [np.zeros(0)])
             for c in counts] for j, (_, _, counts) in enumerate(descents)]


def _apply_logreg(artifacts, X):
    X = _matrix(X, artifacts["weights"].shape[1] - 1)
    Xb = np.hstack([X, np.ones((len(X), 1))])
    scores = Xb @ artifacts["weights"].T
    if artifacts["n_classes"] == 2:
        return (scores[:, 0] > 0).astype(int)
    return scores.argmax(axis=1)


# ---------------------------------------------------------------------------
# Decision trees


def _gini(counts):
    """Gini impurity of class counts along the last axis (nonempty rows)."""
    p = counts / counts.sum(axis=-1, keepdims=True)
    return 1.0 - (p * p).sum(axis=-1)


def _grow_tree(X, y, n_classes, depth, max_depth):
    counts = np.bincount(y, minlength=n_classes)
    node = {"counts": counts, "label": int(counts.argmax())}
    n = len(y)
    if depth >= max_depth or np.count_nonzero(counts) <= 1 or n < 2:
        return node
    base = _gini(counts)
    # Gini plateaus (parity-style labels) make every cut look equally useless,
    # and tiny edge shavings then win on noise. Regularizing the gain by an
    # imbalance penalty steers plateau ties toward the even cut that actually
    # opens the data up, while real splits (gain well above the penalty scale)
    # are unaffected.
    min_leaf = max(1, n // 20)
    # CART's sweep: the class counts left of every candidate threshold are
    # prefix sums of the one-hot labels in each feature's sorted order. A
    # threshold's left side is every row with value <= threshold, so its size
    # comes from searchsorted(side="right"); that keeps the mask semantics
    # even where a midpoint rounds onto the upper value.
    onehot = np.eye(n_classes, dtype=np.int64)[y]
    features, thresholds, n_lefts, lefts = [], [], [], []
    for feature in range(X.shape[1]):
        column = X[:, feature]
        order = np.argsort(column, kind="stable")
        values = np.unique(column)
        midpoints = (values[:-1] + values[1:]) / 2.0
        n_left = np.searchsorted(column[order], midpoints, side="right")
        keep = (n_left >= min_leaf) & (n - n_left >= min_leaf)
        n_left = n_left[keep]
        features.append(np.full(len(n_left), feature))
        thresholds.append(midpoints[keep])
        n_lefts.append(n_left)
        lefts.append(np.cumsum(onehot[order], axis=0)[n_left - 1])
    n_left = np.concatenate(n_lefts)
    left = np.concatenate(lefts)
    weighted = (n_left * _gini(left) + (n - n_left) * _gini(counts - left)) / n
    gain = base - weighted
    score = gain - 0.05 * np.abs(2 * n_left - n) / n
    viable = ~(gain < -1e-12)
    # Features in order, thresholds ascending; a later candidate must beat the
    # best by more than 1e-12, so near-ties keep the earliest split.
    best = None
    best_score = -1.0
    for feature, threshold, candidate in zip(np.concatenate(features)[viable].tolist(),
                                             np.concatenate(thresholds)[viable].tolist(),
                                             score[viable].tolist()):
        if best is None or candidate > best_score + 1e-12:
            best = (feature, threshold)
            best_score = candidate
    if best is None:
        return node
    feature, threshold = best
    mask = X[:, feature] <= threshold
    node["feature"] = feature
    node["threshold"] = threshold
    node["left"] = _grow_tree(X[mask], y[mask], n_classes, depth + 1, max_depth)
    node["right"] = _grow_tree(X[~mask], y[~mask], n_classes, depth + 1, max_depth)
    return node


def _tree_predict(node, X):
    """Route row indices down the tree with one mask per internal node."""
    out = np.empty(len(X), dtype=int)
    pending = [(node, np.arange(len(X)))]
    while pending:
        node, rows = pending.pop()
        if "feature" not in node:
            out[rows] = node["label"]
        elif len(rows):
            go_left = X[rows, node["feature"]] <= node["threshold"]
            pending.append((node["left"], rows[go_left]))
            pending.append((node["right"], rows[~go_left]))
    return out


def _wilson_upper(errors, n, z) -> float:
    # C4.5-style pessimistic error: upper confidence bound on the error rate.
    if n == 0:
        return 0.0
    e = errors / n
    denom = 1.0 + z * z / n
    center = e + z * z / (2 * n)
    spread = z * math.sqrt(max(e * (1 - e) / n + z * z / (4 * n * n), 0.0))
    return (center + spread) / denom


def _prune_pessimistic(node, z):
    """The tree pruned bottom-up by C4.5's pessimistic error at ``z``, and
    its pessimistic error: a subtree becomes a leaf when the leaf's error is
    at most the sum of its pruned children's. Kept nodes are new, so
    ``node`` is left as it is."""
    n = int(node["counts"].sum())
    leaf_error = _wilson_upper(n - int(node["counts"].max()), n, z) * n
    if "feature" not in node:
        return node, leaf_error
    left, left_error = _prune_pessimistic(node["left"], z)
    right, right_error = _prune_pessimistic(node["right"], z)
    subtree = left_error + right_error
    if leaf_error <= subtree + 1e-12:
        return {"counts": node["counts"], "label": node["label"]}, leaf_error
    return {**node, "left": left, "right": right}, subtree


def _prune_reduced_error(node, X, y):
    """The tree pruned bottom-up on the held-out rows ``(X, y)``, and its
    errors on them: a subtree becomes a leaf when the leaf makes no more
    errors on the rows that reach it than its pruned children together.
    Kept nodes are new, so ``node`` is left as it is."""
    leaf_errors = int((y != node["label"]).sum())
    if "feature" not in node or len(y) == 0:
        return node, leaf_errors
    mask = X[:, node["feature"]] <= node["threshold"]
    left, left_errors = _prune_reduced_error(node["left"], X[mask], y[mask])
    right, right_errors = _prune_reduced_error(node["right"], X[~mask], y[~mask])
    subtree_errors = left_errors + right_errors
    if leaf_errors <= subtree_errors:
        return {"counts": node["counts"], "label": node["label"]}, leaf_errors
    return {**node, "left": left, "right": right}, subtree_errors


def _reduced_error_rows(n: int):
    """The (grow, hold-out) row indices of reduced-error pruning on n >= 8
    rows: a fixed shuffle, with a quarter held out."""
    order = list(range(n))
    random.Random(29).shuffle(order)
    cut = max(1, n // 4)
    return np.array(order[cut:], dtype=int), np.array(order[:cut], dtype=int)


def _grow_unpruned(config, X, y, held_out=None):
    """The tree a PrunedTree fit prunes, which depends only on the data,
    ``maxDepth`` and ``R``: grown on every row, or for reduced-error
    pruning of at least 8 rows on the rows ``_reduced_error_rows`` keeps
    for growing. PrunedTree's ``share`` hook, which ignores ``held_out``."""
    X = _matrix(X)
    y = np.asarray(y, dtype=int)
    max_depth = int(config.get("maxDepth", 6))
    n_classes = int(y.max()) + 1
    if bool(config.get("R", False)) and len(y) >= 8:
        grow_idx, _ = _reduced_error_rows(len(y))
        X, y = X[grow_idx], y[grow_idx]
    return _grow_tree(X, y, n_classes, 0, max_depth)


def _fit_pruned_tree(config, X, y, shared=None):
    X = _matrix(X)
    y = np.asarray(y, dtype=int)
    reduced_error = bool(config.get("R", False))
    confidence = config.get("C", 0.25)
    if reduced_error and confidence != 0.25:
        # The schema encodes (R=true) => (C=0.25); violating configurations
        # must fail here, exactly where late error checking would catch them.
        raise ConstraintTrap(
            f"reduced-error pruning requires confidence 0.25, got {confidence!r}"
        )
    tree = shared()[0] if shared is not None else _grow_unpruned(config, X, y)
    if reduced_error:
        if len(y) >= 8:
            _, hold_idx = _reduced_error_rows(len(y))
            tree, _ = _prune_reduced_error(tree, X[hold_idx], y[hold_idx])
    else:
        z = NormalDist().inv_cdf(1.0 - min(max(float(confidence), 1e-6), 0.499999))
        tree, _ = _prune_pessimistic(tree, z)
    return {"tree": tree, "n_classes": int(y.max()) + 1, "width": X.shape[1]}


def _apply_tree(artifacts, X):
    return _tree_predict(artifacts["tree"], _matrix(X, artifacts["width"]))


def _fit_stump(config, X, y):
    X = _matrix(X)
    y = np.asarray(y, dtype=int)
    n_classes = int(y.max()) + 1
    return {"tree": _grow_tree(X, y, n_classes, 0, 1), "n_classes": n_classes,
            "width": X.shape[1]}


# ---------------------------------------------------------------------------
# Boosting over an operator-valued base estimator


_STUMP = Individual(
    name="DecisionStump",
    schema=schema_model.ObjectNode((), additional_allowed=False),
    impl="decision_stump",
)


def _fit_boosted(config, X, y):
    X = _matrix(X)
    y = np.asarray(y, dtype=int)
    base = config.get("base")
    if base is None:
        base = _STUMP
    base = og.configure(base, {})
    n_estimators = int(config.get("n_estimators", 10))
    n_classes = int(y.max()) + 1
    classes = np.unique(y)
    rng = np.random.default_rng(911)
    data = _derived(X, y)
    weights = np.full(len(y), 1.0 / len(y))
    members = []
    for round_index in range(n_estimators):
        if round_index == 0:
            sample = data  # uniform weights: fit on the data as-is
        else:
            idx = rng.choice(len(y), size=len(y), replace=True, p=weights)
            if len(np.unique(y[idx])) < len(classes):
                idx = np.concatenate([idx, [int(np.argmax(y == c)) for c in classes]])
            sample = data.subset(idx)
        trained = og.fit(base, sample)
        pred = og.predict(trained, X)
        miss = pred != y
        err = float(weights[miss].sum())
        if err <= 1e-12:
            members.append((trained, 6.0 + math.log(max(n_classes - 1, 1))))
            break
        alpha = math.log((1.0 - err) / err) + math.log(max(n_classes - 1, 1))
        if alpha <= 0.0:
            if not members:
                members.append((trained, 1.0))
            break
        members.append((trained, alpha))
        weights = weights * np.exp(alpha * miss)
        weights = weights / weights.sum()
    return {"members": members, "n_classes": n_classes}


def _apply_boosted(artifacts, X):
    X = _matrix(X)
    members = artifacts["members"]
    preds = np.stack([np.asarray(og.predict(trained, X), dtype=int) for trained, _ in members],
                     axis=1)
    alphas = np.broadcast_to(np.array([alpha for _, alpha in members], dtype=float), preds.shape)
    return _votes(preds, alphas, artifacts["n_classes"]).argmax(axis=1)


def _each(fit_one):
    """A ``ToyImplementation.fit`` that fits every problem of every job
    alone with ``fit_one(config, X, y)``, or ``fit_one(config, X, y,
    shared)`` for a problem that has a ``shared`` item."""
    def fit(jobs):
        return [[fit_one(config, *problem) for problem in problems]
                for config, problems, _ in jobs]
    return fit


for _impl in (
    ToyImplementation("noop", "transformer", _each(_fit_noop), _apply_noop),
    ToyImplementation("standard_scaler", "transformer", _each(_fit_standard_scaler),
                      _apply_standard_scaler),
    ToyImplementation("minmax_scaler", "transformer", _each(_fit_minmax_scaler),
                      _apply_minmax_scaler),
    ToyImplementation("select_k_variance", "transformer", _each(_fit_select_k_variance),
                      _apply_select_k_variance),
    ToyImplementation("concat", "transformer", _each(_fit_concat), _apply_concat),
    ToyImplementation("knn", "estimator", _each(_fit_knn), _apply_knn,
                      share=_neighbour_table),
    ToyImplementation("logreg_gd", "estimator", _fit_logreg, _apply_logreg,
                      budget="iterations"),
    ToyImplementation("pruned_tree", "estimator", _each(_fit_pruned_tree), _apply_tree,
                      share=_grow_unpruned, share_by=("maxDepth", "R")),
    ToyImplementation("decision_stump", "estimator", _each(_fit_stump), _apply_tree),
    ToyImplementation("boosted_ensemble", "estimator", _each(_fit_boosted), _apply_boosted),
):
    register_impl(_impl)


# ---------------------------------------------------------------------------
# Datasets


def synth_dataset(kind: str, n: int, seed: int) -> LabeledDataset:
    """Deterministic synthetic classification sets.

    blobs: two linearly separable gaussian clusters (informative axis 0,
    five high-variance noise dimensions). xor: four clusters labeled by
    quadrant parity, not linearly separable. moonsApprox: two interleaved
    half-circles, exactly balanced for even n.
    """
    if n < 8:
        raise ValueError("datasets need at least 8 rows")
    rng = np.random.default_rng(seed)
    if kind == "blobs":
        n0 = n // 2
        signs = np.array([-1.0] * n0 + [1.0] * (n - n0))
        X = np.empty((n, 6))
        X[:, 0] = signs * 2.0 + 0.5 * rng.standard_normal(n)
        X[:, 1:] = 2.0 * rng.standard_normal((n, 5))
        y = (signs > 0).astype(int)
    elif kind == "xor":
        quadrant = np.arange(n) % 4
        cx = np.where(quadrant % 2 == 0, 1.5, -1.5)
        cy = np.where(quadrant < 2, 1.5, -1.5)
        X = np.stack([cx, cy], axis=1) + 0.45 * rng.standard_normal((n, 2))
        y = ((cx > 0) != (cy > 0)).astype(int)
    elif kind == "moonsApprox":
        n0 = n // 2
        t0 = np.linspace(0.0, math.pi, n0)
        t1 = np.linspace(0.0, math.pi, n - n0)
        upper = np.stack([np.cos(t0), np.sin(t0)], axis=1)
        lower = np.stack([1.0 - np.cos(t1), 0.5 - np.sin(t1)], axis=1)
        X = np.vstack([upper, lower]) + 0.18 * rng.standard_normal((n, 2))
        y = np.array([0] * n0 + [1] * (n - n0))
    else:
        raise ValueError(f"unknown dataset kind {kind!r}")
    order = rng.permutation(n)
    return LabeledDataset(X[order], y[order])


def load_csv(path, label_column: str) -> LabeledDataset:
    """Load a headered numeric CSV, mapping the label column to class ids.
    Blank lines after the header are skipped; errors name the file's line."""
    try:
        with open(path, newline="", encoding="utf-8-sig") as handle:
            rows = list(csv.reader(handle))
    except OSError as exc:
        raise BadCsv(str(exc)) from exc
    if not rows or not rows[0]:
        raise BadCsv("missing header row")
    header = rows[0]
    if label_column not in header:
        raise LabelColumnMissing(f"no column named {label_column!r}")
    label_idx = header.index(label_column)
    features, labels = [], []
    for lineno, row in enumerate(rows[1:], start=2):
        if not row:
            continue
        if len(row) != len(header):
            raise BadCsv(f"line {lineno}: expected {len(header)} cells, got {len(row)}")
        try:
            features.append([float(c) for i, c in enumerate(row) if i != label_idx])
        except ValueError as exc:
            raise BadCsv(f"line {lineno}: {exc}") from exc
        labels.append(row[label_idx])
    if not features:
        raise BadCsv("no data rows")
    classes = sorted(set(labels))
    mapping = {c: i for i, c in enumerate(classes)}
    return LabeledDataset(np.array(features), np.array([mapping[l] for l in labels]))


def stratified_folds(ds: LabeledDataset, k: int, seed: int) -> list[list[int]]:
    """k folds dealt from each class's rows in turn, each class shuffled by
    one seeded generator: the t-th row dealt goes to fold t % k."""
    if k < 2 or k > len(ds.y):
        raise ValueError("folds must satisfy 2 <= k <= n")
    rng = random.Random(seed)
    order: list[int] = []
    for cls in range(ds.n_classes):
        idx = [int(i) for i in np.flatnonzero(ds.y == cls)]
        rng.shuffle(idx)
        order += idx
    return [order[f::k] for f in range(k)]


def accuracy(predictions, labels) -> float:
    """The share of predictions equal to their labels, shaped alike or ShapeMismatch."""
    predictions = np.asarray(predictions)
    labels = np.asarray(labels)
    if predictions.shape != labels.shape:
        raise ShapeMismatch(f"predictions of shape {predictions.shape} "
                            f"for labels of shape {labels.shape}")
    return float((predictions == labels).mean())


class CvSplits(list):
    """The (train subset, test X, test y) parts of one split of a dataset,
    in fold order, and the store of the pipelines scored on them, which
    lives as long as the splits: at most one transformed copy of the folds
    per distinct non-final step and input, and each implementation's
    ``share`` results (see ``operator_graph.fit_predict_many``): one grown
    PrunedTree per fold and distinct input, ``maxDepth`` and ``R``, and one
    KNN neighbour table per fold and distinct input, of ``(held-out rows) x
    min(KNN_TABLE_K, training rows)`` int32 indices and float64 distances
    (``_neighbour_table``)."""

    def __init__(self, parts):
        super().__init__(parts)
        self.store: dict = {}


def cv_splits(ds: LabeledDataset, k: int, seed: int = 0) -> CvSplits:
    """Split the data once into (train subset, test X, test y) per
    stratified fold, rows in ascending order within each part."""
    splits = []
    for fold in stratified_folds(ds, k, seed):
        test = np.array(sorted(fold), dtype=int)
        train = np.setdiff1d(np.arange(len(ds.y)), test)
        splits.append((ds.subset(train), ds.X[test], ds.y[test]))
    return CvSplits(splits)


def cross_val_score(op, splits) -> float:
    """Mean accuracy of the operator fitted on each split from ``cv_splits``.

    Splitting is separate so that a search splits its folds once per
    objective (see ``optimizer.make_cv_objective``) and every trial reuses
    the same train subsets and test slices and the splits' store of
    non-final step outputs. Other sequences of splits share these only
    within one call. A window of one (``cross_val_scores``) that raises
    what scoring raised.
    """
    [(score, _)] = cross_val_scores([op], splits)
    if isinstance(score, Exception):
        raise score
    return score


def cross_val_scores(ops, splits) -> list:
    """``(outcome, seconds)`` per operator: its ``cross_val_score`` or the
    exception scoring it raised, and its seconds as
    ``operator_graph.fit_predict_many`` counts them plus its scoring. The
    operators are scored as one window, so their final LogRegGD steps
    descend in one lockstep."""
    store = splits.store if isinstance(splits, CvSplits) else {}
    results = []
    for outcome, seconds in og.fit_predict_many(
            ops, [train for train, _, _ in splits], [test_X for _, test_X, _ in splits], store):
        if not isinstance(outcome, Exception):
            start = time.perf_counter()
            try:
                outcome = float(np.mean([accuracy(predicted, test_y)
                                         for predicted, (_, _, test_y) in zip(outcome, splits)]))
            except Exception as exc:
                outcome = exc
            seconds += time.perf_counter() - start
        results.append((outcome, seconds))
    return results


# ---------------------------------------------------------------------------
# Operator registry


IMPL_BINDINGS = {
    "NoOp": "noop",
    "StandardScaler": "standard_scaler",
    "Scaler": "standard_scaler",
    "MinMaxScaler": "minmax_scaler",
    "SelectKVariance": "select_k_variance",
    "Concat": "concat",
    "KNN": "knn",
    "LogRegGD": "logreg_gd",
    "PrunedTree": "pruned_tree",
    "J48": "pruned_tree",
    "LR": "logreg_gd",
    "DecisionStump": "decision_stump",
    "BoostedEnsemble": "boosted_ensemble",
    # PCA ships as a compile-only schema fixture with no toy implementation.
}


def default_schemas_dir() -> Path:
    return Path(__file__).parent / "schemas"


def load_registry(schemas_dir=None) -> dict[str, Individual]:
    """Build the operator registry from a directory of <Name>.schema.json files.
    A path that is not a directory, and a file that cannot be read or
    parsed, raise SchemaError naming it."""
    directory = Path(schemas_dir) if schemas_dir else default_schemas_dir()
    if not directory.is_dir():
        raise schema_model.SchemaError(f"{directory}: not a directory")
    registry = {}
    for path in sorted(directory.glob("*.schema.json")):
        name = path.name[: -len(".schema.json")]
        try:
            schema = schema_model.parse_schema(path.read_text(encoding="utf-8"))
        except OSError as exc:
            raise schema_model.SchemaError(f"{path}: {exc.strerror or exc}") from None
        except (UnicodeDecodeError, schema_model.SchemaError) as exc:
            raise schema_model.SchemaError(f"{path}: {exc}") from None
        registry[name] = Individual(name=name, schema=schema, impl=IMPL_BINDINGS.get(name))
    return registry
