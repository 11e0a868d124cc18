"""Combine per-operator normal forms over a pipeline into a nested search
structure, then emit it for different optimizer styles.

Four interchangeable encodings of one space: a hierarchical JSON document
(nested choices), a flattened grid of disjuncts (name-mangled parameters),
classic PCS text (conditionals gate branch-local parameters), and a
discretized grid (continuous domains become categorical samples around the
default). Points from any encoding decode back to configured operators.

Name mangling joins step-path tokens with double underscores: an individual
step contributes its lowercased operator name, a choice step contributes
``step<index>``, and each choice adds a synthetic discriminant ``<path>__D``
recording which alternative a point belongs to.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Any, Callable, Mapping

from . import schema_model
from .operator_graph import (
    Choice,
    Individual,
    Operator,
    Pipeline,
    configure,
)
from .space_normalizer import (
    Cat,
    Cont,
    Domain,
    NormalForm,
    OpSlot,
    drop_constraints,
    normalize,
    DEFAULT_BLOWUP_LIMIT,
    BlowupExceeded,
    _domain_admits,
)


class CompileError(Exception):
    pass


class DecodeError(Exception):
    pass


class UnknownMarker(DecodeError):
    pass


# ---------------------------------------------------------------------------
# Intermediate representation


@dataclass(frozen=True)
class SearchIR:
    pass


@dataclass(frozen=True)
class LeafIR(SearchIR):
    prefix: str   # mangled path parameters live under
    unique: str   # collision-free path for synthetic selector parameters
    op: Individual
    nf: NormalForm

    @cached_property
    def entries(self) -> tuple[tuple[str, str, tuple[Domain, ...], SearchIR | None], ...]:
        """Per name, built on the leaf's first decode: (name, mangled key,
        the name's domain in each disjunct, nested IR of an operator slot or
        None)."""
        entries = []
        for name in self.nf.names():
            domains = tuple(d[name] for d in self.nf.disjuncts if name in d)
            nested = domains[0].nested if isinstance(domains[0], OpSlot) else None
            entries.append((name, _join(self.prefix, name), domains, nested))
        return tuple(entries)


@dataclass(frozen=True)
class ChoiceIR(SearchIR):
    prefix: str
    discriminant: str
    branches: tuple[tuple[str, SearchIR], ...]


@dataclass(frozen=True)
class StepMapIR(SearchIR):
    prefix: str
    steps: tuple[tuple[str, SearchIR], ...]
    edges: tuple[tuple[int, int], ...] = ()
    wrapper: bool = False  # True when a non-pipeline operator was wrapped


def _join(prefix: str, token: str) -> str:
    return token if not prefix else f"{prefix}__{token}"


def combine(op: Operator, keep_constraints: bool = True,
            limit: int = DEFAULT_BLOWUP_LIMIT) -> SearchIR:
    """Build the nested IR for a planned or trainable operator.

    The root is always a step map; bound hyperparameters disappear from
    their operator's disjuncts, frozen steps contribute no dimensions, and
    operator-valued bindings recurse with a reconstruction marker.
    """
    if isinstance(op, Pipeline):
        return _combine_pipeline(op, "", keep_constraints, limit)
    token = _step_token(op, 0)
    child = _combine_node(op, token, token, keep_constraints, limit)
    return StepMapIR("", ((token, child),), wrapper=True)


def _step_token(op: Operator, index: int) -> str:
    if isinstance(op, Individual):
        return op.name.lower()
    return f"step{index}"


def _combine_pipeline(p: Pipeline, prefix: str, keep: bool, limit: int) -> StepMapIR:
    raw = [_step_token(s, i) for i, s in enumerate(p.steps)]
    counts: dict[str, int] = {}
    for token in raw:
        counts[token] = counts.get(token, 0) + 1
    seen: dict[str, int] = {}
    steps = []
    for token, step in zip(raw, p.steps):
        if counts[token] > 1:
            seen[token] = seen.get(token, 0) + 1
            token = f"{token}_{seen[token]}"
        path = _join(prefix, token)
        steps.append((token, _combine_node(step, path, path, keep, limit)))
    return StepMapIR(prefix, tuple(steps), p.edges)


def _branch_values(alternatives) -> list[str]:
    raw = []
    for alt in alternatives:
        if isinstance(alt, Individual):
            raw.append(alt.name)
        elif isinstance(alt, Pipeline):
            raw.append("Pipeline")
        else:
            raw.append("Choice")
    counts: dict[str, int] = {}
    for value in raw:
        counts[value] = counts.get(value, 0) + 1
    seen: dict[str, int] = {}
    out = []
    for value in raw:
        seen[value] = seen.get(value, 0) + 1
        out.append(value if counts[value] == 1 or seen[value] == 1 else f"{value}_{seen[value]}")
    return out


def _combine_node(op: Operator, path: str, unique: str, keep: bool, limit: int) -> SearchIR:
    if isinstance(op, Individual):
        return _combine_individual(op, path, unique, keep, limit)
    if isinstance(op, Choice):
        values = _branch_values(op.alternatives)
        branches = []
        for value, alt in zip(values, op.alternatives):
            branches.append((value, _combine_node(alt, path, _join(path, value), keep, limit)))
        return ChoiceIR(path, _join(path, "D"), tuple(branches))
    if isinstance(op, Pipeline):
        return _combine_pipeline(op, path, keep, limit)
    raise TypeError(f"not an operator: {op!r}")


_EMPTY_NF = NormalForm(({},))


def _combine_individual(op: Individual, path: str, unique: str, keep: bool, limit: int) -> LeafIR:
    from .operator_graph import LifecycleState

    if op.frozen_trainable or op.frozen_trained or op.state == LifecycleState.TRAINED:
        return LeafIR(path, unique, op, _EMPTY_NF)
    schema = op.schema if keep else drop_constraints(op.schema)
    effective_op = op if keep else replace(op, schema=schema)
    declared = schema_model.declared_domains(op.schema)
    try:
        nf = normalize(schema, declared, limit)
    except Exception as exc:
        raise CompileError(f"{op.name}: {exc}") from exc
    disjuncts = []
    for disjunct in nf.disjuncts:
        out: dict[str, Domain] = {}
        admitted = True
        for name, domain in disjunct.items():
            if name in op.bound:
                value = op.bound[name]
                if isinstance(value, Operator):
                    if not isinstance(domain, OpSlot):
                        admitted = False
                        break
                    marker = _join(unique, name)
                    nested = _combine_node(value, marker, marker, keep, limit)
                    out[name] = OpSlot(marker=marker, nested=nested)
                elif _domain_admits(domain, value):
                    continue  # fixed value: contributes no dimension
                else:
                    admitted = False
                    break
            elif isinstance(domain, OpSlot):
                admitted = False  # an unbound slot cannot be searched
                break
            else:
                out[name] = domain
        if admitted:
            disjuncts.append(out)
    if not disjuncts:
        raise CompileError(f"{op.name}: bound configuration admits no search disjunct")
    return LeafIR(path, unique, effective_op, NormalForm(tuple(disjuncts)))


# ---------------------------------------------------------------------------
# Hierarchical document


def emit_hierarchical(ir: SearchIR) -> dict:
    """Nested JSON document mirroring the operator structure."""
    if isinstance(ir, StepMapIR):
        doc: dict[str, Any] = {"kind": "steps",
                               "steps": {token: emit_hierarchical(c) for token, c in ir.steps}}
        if ir.edges:
            doc["edges"] = [list(e) for e in ir.edges]
        return doc
    if isinstance(ir, ChoiceIR):
        return {
            "kind": "choice",
            "discriminant": ir.discriminant,
            "branches": {value: emit_hierarchical(body) for value, body in ir.branches},
        }
    assert isinstance(ir, LeafIR)
    return {
        "kind": "disjuncts",
        "operator": ir.op.name,
        "disjuncts": [
            {_join(ir.prefix, name): _domain_doc(domain) for name, domain in disjunct.items()}
            for disjunct in ir.nf.disjuncts
        ],
    }


def _domain_doc(domain: Domain) -> dict:
    if isinstance(domain, Cat):
        doc: dict[str, Any] = {"kind": "categorical", "values": list(domain.values)}
        if domain.default is not schema_model.MISSING:
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
        if domain.default is not schema_model.MISSING:
            doc["default"] = domain.default
        return doc
    assert isinstance(domain, OpSlot)
    return {"kind": "operator", "marker": domain.marker,
            "space": emit_hierarchical(domain.nested)}


def sample_space(doc: Mapping[str, Any], rng: random.Random,
                 force_branch: Mapping[str, str] | None = None) -> dict[str, Any]:
    """Draw one point (flat mangled assignment) from a hierarchical document."""
    point: dict[str, Any] = {}
    _sample_into(doc, rng, point, force_branch or {})
    return point


def _sample_into(doc, rng, point, force_branch) -> None:
    kind = doc["kind"]
    if kind == "steps":
        for child in doc["steps"].values():
            _sample_into(child, rng, point, force_branch)
        return
    if kind == "choice":
        values = list(doc["branches"])
        value = force_branch.get(doc["discriminant"])
        if value is None:
            value = values[rng.randrange(len(values))]
        point[doc["discriminant"]] = value
        _sample_into(doc["branches"][value], rng, point, force_branch)
        return
    assert kind == "disjuncts"
    disjunct = doc["disjuncts"][rng.randrange(len(doc["disjuncts"]))]
    for name, domain in disjunct.items():
        if domain["kind"] == "categorical":
            point[name] = domain["values"][rng.randrange(len(domain["values"]))]
        elif domain["kind"] == "continuous":
            point[name] = _draw_cont(rng, domain["lo"], domain["hi"], domain["loOpen"],
                                     domain["hiOpen"], domain["integer"],
                                     domain["distribution"] == "loguniform",
                                     domain.get("quantization"))
        else:
            _sample_into(domain["space"], rng, point, force_branch)


def _draw_cont(rng: random.Random, lo, hi, lo_open, hi_open, integer, log, q):
    """The one draw from a continuous domain, for hierarchical points, grid
    samples and parsed PCS spaces (see docs/space_formats.md)."""
    if integer:
        lo, hi = _integer_bounds(lo, hi, lo_open, hi_open)
        if log:
            value = int(round(math.exp(rng.uniform(math.log(lo), math.log(hi)))))
        else:
            value = rng.randint(lo, hi)
        return min(max(value, lo), hi)
    lo_eps, hi_eps = _real_bounds(lo, hi, lo_open, hi_open)
    if log:
        value = math.exp(rng.uniform(math.log(lo_eps), math.log(hi_eps)))
    else:
        value = rng.uniform(lo_eps, hi_eps)
    if q:
        # Round to a multiple of q; when that lands on or beyond an open
        # bound, step inward by whole multiples so it stays a multiple of q.
        k = round(value / q)
        for candidate in (k * q, (k - 1) * q, (k + 1) * q):
            if schema_model.in_range(candidate, lo, hi, lo_open, hi_open, False):
                return candidate
    return min(max(value, lo_eps), hi_eps)


def _integer_bounds(lo, hi, lo_open, hi_open) -> tuple[int, int]:
    lo_i = int(math.floor(lo)) + 1 if (lo_open and float(lo).is_integer()) else int(math.ceil(lo))
    hi_i = int(math.ceil(hi)) - 1 if (hi_open and float(hi).is_integer()) else int(math.floor(hi))
    if lo_i > hi_i:
        raise CompileError(f"integer range [{lo}, {hi}] contains no integers")
    return lo_i, hi_i


def _real_bounds(lo, hi, lo_open, hi_open) -> tuple[float, float]:
    # PCS and grids have no open intervals; shrink by a relative epsilon.
    eps = 1e-9 * (hi - lo) if hi > lo else 0.0
    return (lo + eps if lo_open else float(lo), hi - eps if hi_open else float(hi))


def default_point(ir: SearchIR) -> dict[str, Any]:
    """The all-defaults point: first branch of every choice, first disjunct,
    declared defaults (midpoints when a domain has none)."""
    point: dict[str, Any] = {}
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
        if isinstance(domain, OpSlot):
            _default_into(domain.nested, point)
            continue
        point[_join(ir.prefix, name)] = _domain_default(domain)


def _domain_default(domain: Domain):
    if isinstance(domain, Cat):
        if domain.default is not schema_model.MISSING:
            return domain.default
        return domain.values[0]
    assert isinstance(domain, Cont)
    if domain.default is not schema_model.MISSING:
        return domain.default
    if domain.integer_valued:
        lo, hi = _integer_bounds(domain.lo, domain.hi, domain.lo_open, domain.hi_open)
        return (lo + hi) // 2
    lo, hi = _real_bounds(domain.lo, domain.hi, domain.lo_open, domain.hi_open)
    return (lo + hi) / 2.0


# ---------------------------------------------------------------------------
# Flattened grid of disjuncts


def flat_size(ir: SearchIR, limit: int = DEFAULT_BLOWUP_LIMIT) -> int:
    """|emit_flat(ir)| by arithmetic: a product over steps, a sum over choice
    branches, and per leaf disjunct a product over its nested operator slots.
    Raises BlowupExceeded at the first partial size beyond `limit`, so the
    numbers stay small and nothing is built."""
    if isinstance(ir, StepMapIR):
        size = 1
        for _, child in ir.steps:
            size *= flat_size(child, limit)
            if size > limit:
                raise BlowupExceeded(limit)
        return size
    if isinstance(ir, ChoiceIR):
        size = 0
        for _, body in ir.branches:
            size += flat_size(body, limit)
            if size > limit:
                raise BlowupExceeded(limit)
        return size
    assert isinstance(ir, LeafIR)
    size = 0
    for disjunct in ir.nf.disjuncts:
        rows = 1
        for domain in disjunct.values():
            if isinstance(domain, OpSlot):
                rows *= flat_size(domain.nested, limit)
                if rows > limit:
                    raise BlowupExceeded(limit)
        size += rows
        if size > limit:
            raise BlowupExceeded(limit)
    return size


def emit_flat(ir: SearchIR, limit: int = DEFAULT_BLOWUP_LIMIT) -> list[dict[str, Domain]]:
    """Cross product across steps, concatenation across choice branches:
    |flat| = product over steps of the per-step disjunct totals. Refuses
    with BlowupExceeded, before building any row, when flat_size exceeds
    `limit`."""
    flat_size(ir, limit)
    return _flat_rows(ir)


def _flat_rows(ir: SearchIR) -> list[dict[str, Domain]]:
    if isinstance(ir, StepMapIR):
        rows: list[dict[str, Domain]] = [{}]
        for _, child in ir.steps:
            child_rows = _flat_rows(child)
            rows = [{**a, **b} for a in rows for b in child_rows]
        return rows
    if isinstance(ir, ChoiceIR):
        rows = []
        for value, body in ir.branches:
            stamp = {ir.discriminant: Cat((value,), value)}
            for row in _flat_rows(body):
                rows.append({**stamp, **row})
        return rows
    assert isinstance(ir, LeafIR)
    rows = []
    for disjunct in ir.nf.disjuncts:
        base: dict[str, Domain] = {}
        slot_rows: list[dict[str, Domain]] = [{}]
        for name, domain in disjunct.items():
            if isinstance(domain, OpSlot):
                nested_rows = _flat_rows(domain.nested)
                slot_rows = [{**a, **b} for a in slot_rows for b in nested_rows]
            else:
                base[_join(ir.prefix, name)] = domain
        for extra in slot_rows:
            rows.append({**base, **extra})
    return rows


def flat_doc(rows: list[dict[str, Domain]]) -> dict:
    return {"disjuncts": [{name: _domain_doc(domain) for name, domain in row.items()}
                          for row in rows]}


# ---------------------------------------------------------------------------
# Discretized grid


def emit_grid(ir: SearchIR, cont_samples: int = 1, seed: int = 0,
              limit: int = DEFAULT_BLOWUP_LIMIT) -> dict:
    """Per flat disjunct, every continuous domain becomes the list of its
    default (when the domain contains it) plus `cont_samples` seeded draws."""
    if cont_samples < 1:
        raise ValueError("cont_samples must be positive")
    rng = random.Random(seed)
    disjuncts = []
    cell_count = 0
    for row in emit_flat(ir, limit):
        params: dict[str, list] = {}
        for name, domain in row.items():
            if isinstance(domain, Cat):
                params[name] = list(domain.values)
            else:
                assert isinstance(domain, Cont)
                values = []
                if domain.default is not schema_model.MISSING:
                    values.append(domain.default)
                log = domain.prior.kind == "loguniform"
                for _ in range(cont_samples):
                    draw = _draw_cont(rng, domain.lo, domain.hi, domain.lo_open, domain.hi_open,
                                      domain.integer_valued, log, domain.prior.quantization)
                    if not any(schema_model.scalar_eq(draw, v) for v in values):
                        values.append(draw)
                params[name] = values
        disjuncts.append({"params": params})
        cells = 1
        for values in params.values():
            cells *= len(values)
        cell_count += cells
    return {"disjuncts": disjuncts, "cellCount": cell_count}


def grid_cells(grid: Mapping[str, Any]):
    """Iterate every cell of a discretized grid in deterministic order."""
    for disjunct in grid["disjuncts"]:
        params = disjunct["params"]
        names = list(params)
        for combo in itertools.product(*(params[n] for n in names)):
            yield dict(zip(names, combo))


# ---------------------------------------------------------------------------
# PCS (classic whitespace dialect; see docs/pcs_format.md)


@dataclass
class PcsParameter:
    name: str
    kind: str            # "categorical" | "real" | "integer"
    values: tuple = ()   # categorical values as raw strings
    lo: float = 0.0
    hi: float = 0.0
    log: bool = False
    default: str = ""


@dataclass
class PcsSpace:
    parameters: dict[str, PcsParameter]
    conditions: dict[str, list[tuple[str, str]]]

    def sample(self, rng: random.Random) -> dict[str, Any]:
        """One assignment of every active parameter, honoring conditionals."""
        point: dict[str, Any] = {}
        for name, param in self.parameters.items():
            if not self._active(name, point):
                continue
            if param.kind == "categorical":
                point[name] = param.values[rng.randrange(len(param.values))]
            else:
                point[name] = _draw_cont(rng, param.lo, param.hi, False, False,
                                         param.kind == "integer", param.log, None)
        return point

    def _active(self, name: str, point) -> bool:
        for parent, value in self.conditions.get(name, ()):
            if parent not in point or str(point[parent]) != value:
                return False
        return True


@dataclass
class _PcsModel:
    params: list[PcsParameter]
    conditions: dict[str, list[tuple[str, str]]]
    decode_map: dict[str, tuple[str, Any]]  # pcs name -> ("param", public, domains) | ("selector",)

    def decode_point(self, point: Mapping[str, Any]) -> dict[str, Any]:
        """decode_pcs_point with this model."""
        out: dict[str, Any] = {}
        for name, value in point.items():
            entry = self.decode_map.get(name)
            if entry is None:
                raise UnknownMarker(f"point names unknown parameter {name!r}")
            if entry[0] == "selector":
                continue
            _, public, domains = entry
            out[public] = _coerce(domains, value)
        return out


def _pcs_value(value) -> str:
    if value is True:
        return "true"
    if value is False:
        return "false"
    if value is None:
        return "null"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _pcs_model(ir: SearchIR) -> _PcsModel:
    model = _PcsModel([], {}, {})
    used: set[str] = set()
    _pcs_build(ir, (), None, model, used)
    return model


def _pcs_unique(name: str, branch_ctx, used: set[str]) -> str:
    if name not in used:
        return name
    if branch_ctx is not None:
        choice_path, branch_value = branch_ctx
        if name.startswith(choice_path + "__"):
            qualified = f"{choice_path}__{branch_value}__{name[len(choice_path) + 2:]}"
            if qualified not in used:
                return qualified
            name = qualified
    suffix = 2
    while f"{name}_{suffix}" in used:
        suffix += 1
    return f"{name}_{suffix}"


def _pcs_add(model, used, name, branch_ctx, param: PcsParameter, ctx, decode_entry):
    final = _pcs_unique(name, branch_ctx, used)
    param.name = final
    used.add(final)
    model.params.append(param)
    if ctx:
        model.conditions[final] = list(ctx)
    model.decode_map[final] = decode_entry
    return final


def _pcs_build(ir: SearchIR, ctx, branch_ctx, model: _PcsModel, used: set[str]) -> None:
    if isinstance(ir, StepMapIR):
        for _, child in ir.steps:
            _pcs_build(child, ctx, branch_ctx, model, used)
        return
    if isinstance(ir, ChoiceIR):
        values = tuple(value for value, _ in ir.branches)
        disc = _pcs_add(
            model, used, ir.discriminant, branch_ctx,
            PcsParameter(ir.discriminant, "categorical", values=values, default=values[0]),
            ctx, ("param", ir.discriminant, (Cat(values),)),
        )
        for value, body in ir.branches:
            _pcs_build(body, ctx + ((disc, value),), (ir.prefix, value), model, used)
        return
    assert isinstance(ir, LeafIR)
    disjuncts = ir.nf.disjuncts
    names = list(disjuncts[0]) if disjuncts else []
    selector = None
    if len(disjuncts) > 1:
        values = tuple(str(i) for i in range(len(disjuncts)))
        selector_name = _join(ir.unique, "disjunct")
        selector = _pcs_add(
            model, used, selector_name, branch_ctx,
            PcsParameter(selector_name, "categorical", values=values, default="0"),
            ctx, ("selector",),
        )
    for name in names:
        domains = [d[name] for d in disjuncts]
        public = _join(ir.prefix, name)
        if isinstance(domains[0], OpSlot):
            _pcs_build(domains[0].nested, ctx, branch_ctx, model, used)
            continue
        if selector is None or all(d == domains[0] for d in domains):
            _pcs_add(model, used, public, branch_ctx,
                     _pcs_param(public, domains[0]), ctx,
                     ("param", public, tuple(domains)))
            continue
        for index, domain in enumerate(domains):
            pcs_name = public if index == 0 else f"{public}__{index}"
            _pcs_add(model, used, pcs_name, branch_ctx,
                     _pcs_param(pcs_name, domain),
                     ctx + ((selector, str(index)),),
                     ("param", public, (domain,)))


def _pcs_param(name: str, domain: Domain) -> PcsParameter:
    if isinstance(domain, Cat):
        values = tuple(_pcs_value(v) for v in domain.values)
        default = (_pcs_value(domain.default)
                   if domain.default is not schema_model.MISSING else values[0])
        return PcsParameter(name, "categorical", values=values, default=default)
    assert isinstance(domain, Cont)
    log = domain.prior.kind == "loguniform"
    if domain.integer_valued:
        lo, hi = _integer_bounds(domain.lo, domain.hi, domain.lo_open, domain.hi_open)
        default = domain.default if domain.default is not schema_model.MISSING else (lo + hi) // 2
        default = min(max(int(default), lo), hi)
        return PcsParameter(name, "integer", lo=lo, hi=hi, log=log, default=repr(default))
    lo, hi = _real_bounds(domain.lo, domain.hi, domain.lo_open, domain.hi_open)
    if domain.default is not schema_model.MISSING:
        default = min(max(float(domain.default), lo), hi)
    elif log:
        default = math.exp((math.log(lo) + math.log(hi)) / 2.0)
    else:
        default = (lo + hi) / 2.0
    return PcsParameter(name, "real", lo=lo, hi=hi, log=log, default=repr(default))


def emit_pcs(ir: SearchIR, limit: int = DEFAULT_BLOWUP_LIMIT,
             cached: Callable[[], _PcsModel] | None = None) -> str:
    """Classic PCS text: parameters, then `child | parent == value` lines
    (several lines on one child conjoin). `cached` gives ir's PCS model
    when the caller keeps one."""
    flat_size(ir, limit)  # enforce the blowup cap the flat form defines
    model = cached() if cached else _pcs_model(ir)
    lines = ["# parameter configuration space"]
    for param in model.params:
        if param.kind == "categorical":
            lines.append(f"{param.name} {{{', '.join(param.values)}}} [{param.default}]")
        elif param.kind == "integer":
            lines.append(f"{param.name} [{int(param.lo)}, {int(param.hi)}] [{param.default}]i"
                         + ("l" if param.log else ""))
        else:
            lines.append(f"{param.name} [{param.lo!r}, {param.hi!r}] [{param.default}]"
                         + ("l" if param.log else ""))
    conditions = [
        f"{child} | {parent} == {value}"
        for child, pairs in model.conditions.items()
        for parent, value in pairs
    ]
    if conditions:
        lines.append("")
        lines.append("# conditions")
        lines.extend(conditions)
    return "\n".join(lines) + "\n"


def read_pcs(text: str) -> PcsSpace:
    """Parse the bundled PCS dialect back into a sampleable space."""
    parameters: dict[str, PcsParameter] = {}
    conditions: dict[str, list[tuple[str, str]]] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "|" in line:
            child, rest = (part.strip() for part in line.split("|", 1))
            if "==" not in rest:
                raise ValueError(f"line {lineno}: malformed condition")
            parent, value = (part.strip() for part in rest.split("==", 1))
            conditions.setdefault(child, []).append((parent, value))
            continue
        categorical = "{" in line
        if not categorical and "[" not in line:
            raise ValueError(f"line {lineno}: expected {{values}} or [lo, hi]")
        name, _, rest = line.partition("{" if categorical else "[")
        domain_text, closed, default_text = rest.partition("}" if categorical else "]")
        if not closed:
            raise ValueError(f"line {lineno}: unclosed {'{' if categorical else '['}")
        name, default_text = name.strip(), default_text.strip()
        if not default_text.startswith("[") or "]" not in default_text:
            raise ValueError(f"line {lineno}: missing default")
        default, flags = (part.strip() for part in default_text[1:].split("]", 1))
        if categorical:
            values = tuple(v.strip() for v in domain_text.split(","))
            parameters[name] = PcsParameter(name, "categorical", values=values, default=default)
            continue
        try:
            lo, hi = (float(bound) for bound in domain_text.split(","))
        except ValueError:
            raise ValueError(f"line {lineno}: expected two numbers in [{domain_text}]") from None
        kind = "integer" if "i" in flags else "real"
        problem = _pcs_range_problem(lo, hi, kind == "integer", "l" in flags)
        if problem:
            raise ValueError(f"line {lineno}: {problem}")
        parameters[name] = PcsParameter(
            name, kind, lo=lo, hi=hi, log="l" in flags, default=default)
    for child in conditions:
        if child not in parameters:
            raise ValueError(f"condition references unknown parameter {child!r}")
    return PcsSpace(parameters, conditions)


def _pcs_range_problem(lo: float, hi: float, integer: bool, log: bool) -> str | None:
    """Why the closed range [lo, hi] cannot be sampled, or None."""
    if math.isnan(lo) or math.isnan(hi):
        return f"NaN bound in [{lo}, {hi}]"
    if math.isinf(lo) or math.isinf(hi):
        return f"infinite bound in [{lo}, {hi}]"
    if lo > hi:
        return f"empty range [{lo}, {hi}]"
    if integer and math.ceil(lo) > math.floor(hi):
        return f"integer range [{lo}, {hi}] contains no integers"
    if log and lo <= 0:
        return f"log range [{lo}, {hi}] needs a positive lower bound"
    return None


def decode_pcs_point(ir: SearchIR, point: Mapping[str, Any]) -> dict[str, Any]:
    """Translate a PCS assignment (raw strings, per-disjunct copies) back to
    the public mangled names with schema-typed values. Builds the PCS model
    for this call; a CompiledSpace keeps its own."""
    return _pcs_model(ir).decode_point(point)


def _coerce(domains, value):
    for domain in domains:
        if isinstance(domain, Cat):
            for candidate in domain.values:
                if (schema_model.scalar_eq(candidate, value)
                        or _pcs_value(candidate) == str(value)):
                    return candidate
        elif isinstance(domain, Cont) and not isinstance(value, bool):
            try:
                number = float(value)
            except (TypeError, ValueError, OverflowError):
                continue
            if domain.integer_valued:
                if not math.isfinite(number):
                    continue
                number = int(round(number))
            if schema_model.in_range(number, domain.lo, domain.hi, domain.lo_open,
                                     domain.hi_open, domain.integer_valued):
                return number
    raise DecodeError(f"value {value!r} fits none of the expected domains")


# ---------------------------------------------------------------------------
# Decoding points back to operators


def decode(ir: SearchIR, point: Mapping[str, Any]) -> Operator:
    """Rebuild the configured operator a point denotes: resolve choices by
    their discriminants, bind leaf values, instantiate marked slots."""
    if isinstance(ir, StepMapIR):
        decoded = [decode(child, point) for _, child in ir.steps]
        if ir.wrapper:
            return decoded[0]
        return Pipeline(tuple(decoded), ir.edges)
    if isinstance(ir, ChoiceIR):
        value = point.get(ir.discriminant)
        if value is None:
            raise DecodeError(f"point is missing discriminant {ir.discriminant!r}")
        for branch_value, body in ir.branches:
            if branch_value == str(value):
                return decode(body, point)
        raise UnknownMarker(f"{ir.discriminant!r} has no branch {value!r}")
    assert isinstance(ir, LeafIR)
    config: dict[str, Any] = {}
    for name, key, domains, nested in ir.entries:
        if nested is not None:
            config[name] = decode(nested, point)
        elif key in point:
            config[name] = _coerce(domains, point[key])
    return configure(ir.op, config)


# ---------------------------------------------------------------------------
# Bundled compile result


@dataclass(frozen=True)
class CompiledSpace:
    """A planned operator together with its combined IR and emitters.

    Decoding keeps what it derives on the object it comes from: each
    schema's defaults on the schema (through `configure`), each leaf's
    entries on the leaf, and the PCS model on the space, built by the first
    `pcs` or `decode_pcs`. Compiling and the other emitters build neither.
    """

    op: Operator
    ir: SearchIR
    keep_constraints: bool = True

    def hierarchical(self) -> dict:
        return emit_hierarchical(self.ir)

    def flat(self) -> list[dict[str, Domain]]:
        return emit_flat(self.ir)

    def pcs(self) -> str:
        return emit_pcs(self.ir, cached=lambda: self.pcs_model)

    def grid(self, cont_samples: int = 1, seed: int = 0) -> dict:
        return emit_grid(self.ir, cont_samples, seed)

    @cached_property
    def pcs_model(self) -> _PcsModel:
        return _pcs_model(self.ir)

    def decode(self, point: Mapping[str, Any]) -> Operator:
        return decode(self.ir, point)

    def decode_pcs(self, point: Mapping[str, Any]) -> Operator:
        return decode(self.ir, self.pcs_model.decode_point(point))

    def default_point(self) -> dict[str, Any]:
        return default_point(self.ir)


def compile_space(op: Operator, keep_constraints: bool = True,
                  limit: int = DEFAULT_BLOWUP_LIMIT) -> CompiledSpace:
    return CompiledSpace(op, combine(op, keep_constraints, limit), keep_constraints)
