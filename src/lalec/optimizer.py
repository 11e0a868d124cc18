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
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Any, Callable, Mapping

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

    @staticmethod
    def from_json(doc: Mapping[str, Any]) -> "History":
        trials = tuple(
            Trial(t["index"], dict(t["point"]), t["loss"], t["status"], t["elapsed"])
            for t in doc["trials"]
        )
        return History(trials, doc["best"], doc["seed"], doc["spaceDigest"])


def space_digest(space_doc: Mapping[str, Any]) -> str:
    canonical = json.dumps(space_doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def _evaluate(index: int, point: dict, objective, spec: OptimizerSpec) -> Trial:
    start = time.perf_counter()
    try:
        loss = float(objective(point))
        status = VALID
    except InvalidConfigError:
        loss, status = spec.penalty, INVALID_CONFIG
    except Exception:
        loss, status = spec.penalty, RUNTIME_ERROR
    return Trial(index, point, loss, status, time.perf_counter() - start)


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


def _run_points(points, objective, spec, jobs: int) -> tuple[Trial, ...]:
    if jobs <= 1:
        return tuple(_evaluate(i, p, objective, spec) for i, p in enumerate(points))
    # Indices were assigned at draw time, so ordering stays deterministic
    # no matter which evaluation finishes first.
    with ThreadPoolExecutor(max_workers=jobs) as pool:
        return tuple(pool.map(lambda ip: _evaluate(ip[0], ip[1], objective, spec),
                              enumerate(points)))


def random_search(space_doc: Mapping[str, Any], objective: Callable[[dict], float],
                  spec: OptimizerSpec, jobs: int = 1) -> History:
    """Seeded independent draws: branches and disjuncts uniform, continuous
    domains by their prior. A zero-dimension space runs one default trial."""
    rng = random.Random(spec.seed)
    if _space_dimensions(space_doc) == 0:
        points = [sample_space(space_doc, rng)]
    else:
        points = [sample_space(space_doc, rng) for _ in range(spec.max_trials)]
    trials = _run_points(points, objective, spec, jobs)
    return History(trials, _pick_best(trials), spec.seed, space_digest(space_doc))


def grid_search(grid: Mapping[str, Any], objective: Callable[[dict], float],
                spec: OptimizerSpec, jobs: int = 1) -> History:
    """Exhaustive evaluation of every grid cell in deterministic order."""
    cells = list(grid_cells(grid))
    if len(cells) > spec.max_trials:
        raise GridTooLarge(f"{len(cells)} cells exceed the cap of {spec.max_trials} trials")
    if not cells:
        cells = [{}]
    trials = _run_points(cells, objective, spec, jobs)
    return History(trials, _pick_best(trials), spec.seed, space_digest(dict(grid)))


def _top_level_choice(space_doc) -> tuple[str, list[str]] | None:
    if space_doc.get("kind") != "steps":
        return None
    for child in space_doc["steps"].values():
        if child.get("kind") == "choice":
            return child["discriminant"], list(child["branches"])
    return None


def bandit_search(space_doc: Mapping[str, Any], objective: Callable[[dict], float],
                  spec: OptimizerSpec, jobs: int = 1) -> History:
    """Epsilon-greedy allocation over the top-level operator choice; within
    the chosen branch, points are drawn as in random search. Falls back to
    random search when the pipeline has no top-level choice. Sequential by
    contract: each draw depends on the losses before it."""
    if jobs > 1:
        raise ValueError("bandit search is sequential; it rejects concurrent evaluation")
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


def make_cv_objective(space, data, folds: int = 5, cv_seed: int = 0) -> Callable[[dict], float]:
    """Objective: one minus the mean cross-validated accuracy of the decoded
    configuration. Decode/validation failures signal invalidConfig; anything
    raised during splitting or fitting surfaces as runtimeError.

    The stratified folds, train subsets and test slices are split once per
    objective, at the first trial that decodes, and every later trial scores
    on the same splits. A split that fails is retried by the next trial, so
    it fails each trial as it would if every trial split on its own.
    """
    from . import toyml
    from .operator_graph import ValidationFailed
    from .space_backends import DecodeError

    compiled = space if isinstance(space, CompiledSpace) else compile_space(space)
    splits = None

    def objective(point: Mapping[str, Any]) -> float:
        nonlocal splits
        try:
            candidate = compiled.decode(point)
        except (ValidationFailed, DecodeError) as exc:
            raise InvalidConfigError(str(exc)) from exc
        if splits is None:
            # Concurrent trials may both split; the splits are equal, so the
            # extra work is the only cost.
            splits = toyml.cv_splits(data, folds, cv_seed)
        return 1.0 - toyml.cross_val_score(candidate, splits)

    return objective
