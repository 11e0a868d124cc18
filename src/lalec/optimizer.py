"""Search strategies over emitted spaces: random, exhaustive grid, and an
epsilon-greedy bandit over the top-level operator choice.

Failures never abort a run: a trial whose configuration cannot be decoded
records status invalidConfig, a trial whose objective raises records
runtimeError, and both score the penalty loss (the largest finite float) so
they can never outrank a valid trial.
"""

from __future__ import annotations

import hashlib
import json
import random
import sys
import time
from dataclasses import dataclass
from typing import Any, Callable, Mapping

from .schema_model import exact_json_key
from .space_backends import CompiledSpace, compile_space, grid_cells, sample_space


class NoValidTrial(Exception):
    pass


class GridTooLarge(Exception):
    pass


class InvalidConfigError(Exception):
    """The decoded configuration failed validation before any fitting."""


PENALTY = sys.float_info.max

VALID = "valid"
INVALID_CONFIG = "invalidConfig"
RUNTIME_ERROR = "runtimeError"


@dataclass(frozen=True)
class Trial:
    index: int
    point: dict[str, Any]
    loss: float
    status: str
    elapsed: float


@dataclass(frozen=True)
class OptimizerSpec:
    strategy: str = "random"  # random | grid | bandit
    max_trials: int = 100
    seed: int = 0
    bandit_epsilon: float = 0.25
    penalty: float = PENALTY

    def __post_init__(self):
        if self.strategy not in ("random", "grid", "bandit"):
            raise ValueError(f"unknown strategy {self.strategy!r}")
        if self.max_trials < 1:
            raise ValueError("max_trials must be positive")
        if not 0.0 <= self.bandit_epsilon <= 1.0:
            raise ValueError("bandit_epsilon must lie in [0, 1]")


@dataclass(frozen=True)
class History:
    trials: tuple[Trial, ...]
    best: int | None
    seed: int
    space_digest: str

    def invalid_count(self) -> int:
        return sum(1 for t in self.trials if t.status != VALID)

    def count(self, status: str) -> int:
        return sum(1 for t in self.trials if t.status == status)

    def best_so_far(self) -> list[tuple[int, float]]:
        curve = []
        best = float("inf")
        for t in self.trials:
            if t.status == VALID and t.loss < best:
                best = t.loss
            curve.append((t.index, best))
        return curve

    def to_json(self, include_timing: bool = True) -> dict:
        return {
            "seed": self.seed,
            "spaceDigest": self.space_digest,
            "best": self.best,
            "trials": [
                {
                    "index": t.index,
                    "point": t.point,
                    "loss": t.loss,
                    "status": t.status,
                    "elapsed": t.elapsed if include_timing else 0.0,
                }
                for t in self.trials
            ],
        }


def space_digest(space_doc: Mapping[str, Any]) -> str:
    canonical = json.dumps(space_doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


# Random and grid searches score their points in windows of this many
# trials (make_cv_objective's ``many``).
WINDOW = 64


def _trial(index: int, point: dict, outcome, elapsed: float, spec: OptimizerSpec) -> Trial:
    """The trial of a point whose objective returned ``outcome`` or raised
    it."""
    if isinstance(outcome, InvalidConfigError):
        return Trial(index, point, spec.penalty, INVALID_CONFIG, elapsed)
    if isinstance(outcome, Exception):
        return Trial(index, point, spec.penalty, RUNTIME_ERROR, elapsed)
    return Trial(index, point, outcome, VALID, elapsed)


def _evaluate(index: int, point: dict, objective, spec: OptimizerSpec) -> Trial:
    start = time.perf_counter()
    try:
        outcome = float(objective(point))
    except Exception as exc:
        outcome = exc
    return _trial(index, point, outcome, time.perf_counter() - start, spec)


def _evaluate_all(points, objective, spec: OptimizerSpec) -> tuple[Trial, ...]:
    """Every point's trial, in order: in windows of WINDOW points when the
    objective has a ``many`` method, else one call per point."""
    many = getattr(objective, "many", None)
    if many is None:
        return tuple(_evaluate(i, p, objective, spec) for i, p in enumerate(points))
    trials = []
    for lo in range(0, len(points), WINDOW):
        window = points[lo:lo + WINDOW]
        for i, (point, (outcome, elapsed)) in enumerate(zip(window, many(window)), lo):
            trials.append(_trial(i, point, outcome, elapsed, spec))
    return tuple(trials)


def _pick_best(trials) -> int | None:
    best = None
    for t in trials:
        if t.status != VALID:
            continue
        if best is None or t.loss < trials[best].loss:
            best = t.index
    return best


def _space_dimensions(doc: Mapping[str, Any]) -> int:
    kind = doc["kind"]
    if kind == "steps":
        return sum(_space_dimensions(c) for c in doc["steps"].values())
    if kind == "choice":
        return 1 + sum(_space_dimensions(b) for b in doc["branches"].values())
    count = 0
    for disjunct in doc["disjuncts"]:
        for domain in disjunct.values():
            count += _space_dimensions(domain["space"]) if domain["kind"] == "operator" else 1
    return count


def random_search(space_doc: Mapping[str, Any], objective: Callable[[dict], float],
                  spec: OptimizerSpec) -> History:
    """Seeded independent draws: branches and disjuncts uniform, continuous
    domains by their prior. A zero-dimension space runs one default trial."""
    rng = random.Random(spec.seed)
    if _space_dimensions(space_doc) == 0:
        points = [sample_space(space_doc, rng)]
    else:
        points = [sample_space(space_doc, rng) for _ in range(spec.max_trials)]
    trials = _evaluate_all(points, objective, spec)
    return History(trials, _pick_best(trials), spec.seed, space_digest(space_doc))


def grid_search(grid: Mapping[str, Any], objective: Callable[[dict], float],
                spec: OptimizerSpec) -> History:
    """Exhaustive evaluation of every grid cell in deterministic order. The
    grid's cellCount is checked against max_trials before any cell is built."""
    if grid["cellCount"] > spec.max_trials:
        raise GridTooLarge(f"{grid['cellCount']} cells exceed the cap of {spec.max_trials} trials")
    cells = list(grid_cells(grid))
    if not cells:
        cells = [{}]
    trials = _evaluate_all(cells, objective, spec)
    return History(trials, _pick_best(trials), spec.seed, space_digest(dict(grid)))


def _top_level_choice(space_doc) -> tuple[str, list[str]] | None:
    if space_doc.get("kind") != "steps":
        return None
    for child in space_doc["steps"].values():
        if child.get("kind") == "choice":
            return child["discriminant"], list(child["branches"])
    return None


def bandit_search(space_doc: Mapping[str, Any], objective: Callable[[dict], float],
                  spec: OptimizerSpec) -> History:
    """Epsilon-greedy allocation over the top-level operator choice; within
    the chosen branch, points are drawn as in random search. Falls back to
    random search when the pipeline has no top-level choice. Sequential by
    contract: each draw depends on the losses before it."""
    found = _top_level_choice(space_doc)
    if found is None:
        return random_search(space_doc, objective, spec)
    discriminant, branch_values = found
    rng = random.Random(spec.seed)
    # Running means are updated incrementally: summing several penalty
    # losses would overflow to infinity, and the allocation must stay in
    # finite arithmetic.
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
        trial = _evaluate(index, point, objective, spec)
        trials.append(trial)
        counts[branch] += 1
        means[branch] += (trial.loss - means[branch]) / counts[branch]
    trials = tuple(trials)
    return History(trials, _pick_best(trials), spec.seed, space_digest(space_doc))


def run(compiled: CompiledSpace, objective: Callable[[dict], float], spec: OptimizerSpec,
        cont_samples: int = 1) -> History:
    """Search a compiled space with the spec's strategy: grid search over its
    grid of `cont_samples` draws per continuous domain, seeded by the spec;
    random and bandit search over its hierarchical document."""
    if spec.strategy == "grid":
        return grid_search(compiled.grid(cont_samples, spec.seed), objective, spec)
    search = bandit_search if spec.strategy == "bandit" else random_search
    return search(compiled.hierarchical(), objective, spec)


def make_cv_objective(space, data, folds: int = 5, cv_seed: int = 0) -> Callable[[dict], float]:
    """Objective: one minus the mean cross-validated accuracy of the decoded
    configuration. Decode/validation failures signal invalidConfig; anything
    raised during splitting or fitting surfaces as runtimeError.

    The stratified folds, train subsets and test slices are split once per
    objective, at the first trial that decodes, and every later trial scores
    on the same splits. A split that fails is retried by the next trial, so
    it fails each trial as it would if every trial split on its own.

    Each distinct valid point is scored once per objective; a repeat skips
    decoding and fitting. A failing point runs, and raises, on every call.
    Only points keyed by ``schema_model.exact_json_key`` are stored.

    The objective's ``many(points)`` scores a window of points at once
    (``toyml.cross_val_scores``) and returns ``(outcome, elapsed)`` per
    point: the loss, or the exception that calling the objective on the
    point would raise. A point repeated within the window is scored once.
    ``elapsed`` is the point's own decoding and scoring, its share of the
    window's fit calls (``operator_graph.fit_predict_many``), and an equal
    share of the rest, so that the window's values sum to its wall time.
    Calling the objective is a window of one.
    """
    from . import toyml
    from .operator_graph import ValidationFailed
    from .space_backends import DecodeError

    compiled = space if isinstance(space, CompiledSpace) else compile_space(space)
    splits = None
    scored: dict[str, float] = {}

    def decode(point):
        try:
            return compiled.decode(point)
        except (ValidationFailed, DecodeError) as exc:
            raise InvalidConfigError(str(exc)) from exc

    def many(points) -> list:
        nonlocal splits
        window_start = time.perf_counter()
        outcomes: list = [None] * len(points)
        elapsed = [0.0] * len(points)
        keys = [exact_json_key(point) for point in points]
        first: dict[str, int] = {}  # the window's first index of each key
        candidates = {}
        for i, (point, key) in enumerate(zip(points, keys)):
            start = time.perf_counter()
            if key in scored:
                outcomes[i] = scored[key]
            elif key not in first:
                if key is not None:
                    first[key] = i
                try:
                    candidate = decode(point)
                    if splits is None:
                        splits = toyml.cv_splits(data, folds, cv_seed)
                    candidates[i] = candidate
                except Exception as exc:
                    outcomes[i] = exc
            elapsed[i] = time.perf_counter() - start
        if candidates:
            for i, (score, seconds) in zip(candidates, toyml.cross_val_scores(
                    list(candidates.values()), splits)):
                outcomes[i] = score if isinstance(score, Exception) else 1.0 - score
                elapsed[i] += seconds
                if keys[i] is not None and not isinstance(score, Exception):
                    scored[keys[i]] = outcomes[i]
        for i, key in enumerate(keys):
            if key in first and first[key] != i:
                outcomes[i] = outcomes[first[key]]
        rest = (time.perf_counter() - window_start - sum(elapsed)) / max(len(points), 1)
        return [(outcome, seconds + rest) for outcome, seconds in zip(outcomes, elapsed)]

    def objective(point: Mapping[str, Any]) -> float:
        [(outcome, _)] = many([point])
        if isinstance(outcome, Exception):
            raise outcome
        return outcome

    objective.many = many
    return objective
