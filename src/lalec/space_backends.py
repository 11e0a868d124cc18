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
import re
from dataclasses import dataclass, field, replace
from functools import cached_property
from operator import add, mul
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
    BlowupExceeded,
    Cat,
    Cont,
    Domain,
    NormalForm,
    OpSlot,
    drop_constraints,
    normalize,
    DEFAULT_BLOWUP_LIMIT,
    _domain_admits,
    capped_fold,
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
    @cached_property
    def flat_sizes(self) -> dict:
        """`flat_size`'s answers on this IR, kept on it: per limit, the
        size, or None for a refusal."""
        return {}


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


def combine(op: Operator, keep_constraints: bool = True) -> SearchIR:
    """Build the nested IR for a planned or trainable operator.

    The root is always a step map; bound hyperparameters disappear from
    their operator's disjuncts, frozen steps contribute no dimensions, and
    operator-valued bindings recurse with a reconstruction marker.
    """
    if isinstance(op, Pipeline):
        return _combine_pipeline(op, "", keep_constraints)
    token = _step_token(op, 0)
    child = _combine_node(op, token, token, keep_constraints)
    return StepMapIR("", ((token, child),), wrapper=True)


def _step_token(op: Operator, index: int) -> str:
    if isinstance(op, Individual):
        return op.name.lower()
    return f"step{index}"


def _combine_pipeline(p: Pipeline, prefix: str, keep: bool) -> StepMapIR:
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
        steps.append((token, _combine_node(step, path, path, keep)))
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


def _combine_node(op: Operator, path: str, unique: str, keep: bool) -> SearchIR:
    if isinstance(op, Individual):
        return _combine_individual(op, path, unique, keep)
    if isinstance(op, Choice):
        values = _branch_values(op.alternatives)
        branches = []
        for value, alt in zip(values, op.alternatives):
            branches.append((value, _combine_node(alt, path, _join(path, value), keep)))
        return ChoiceIR(path, _join(path, "D"), tuple(branches))
    if isinstance(op, Pipeline):
        return _combine_pipeline(op, path, keep)
    raise TypeError(f"not an operator: {op!r}")


_EMPTY_NF = NormalForm(({},))


def _combine_individual(op: Individual, path: str, unique: str, keep: bool) -> LeafIR:
    from .operator_graph import LifecycleState

    if op.frozen_trainable or op.frozen_trained or op.state == LifecycleState.TRAINED:
        return LeafIR(path, unique, op, _EMPTY_NF)
    schema = op.schema if keep else drop_constraints(op.schema)
    effective_op = op if keep else replace(op, schema=schema)
    try:
        nf = normalize(schema)
    except Exception as exc:
        raise CompileError(f"{op.name}: {exc}") from exc
    disjuncts = []
    for disjunct in nf.disjuncts:
        out: dict[str, Domain] = {}
        admitted = True
        for name, domain in disjunct.items():
            if name in op.bound:
                value = op.bound[name]
                if not _domain_admits(domain, value):
                    admitted = False
                    break
                if isinstance(value, Operator):  # admitted, so the domain is a slot
                    marker = _join(unique, name)
                    nested = _combine_node(value, marker, marker, keep)
                    out[name] = OpSlot(marker=marker, nested=nested)
                # any other fixed value contributes no dimension
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
        lo_i, hi_i = schema_model.integer_bounds(lo, hi, lo_open, hi_open)
        if lo_i > hi_i:  # only a document from outside the compiler holds one
            raise CompileError(f"integer range [{lo}, {hi}] contains no integers")
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
        # Round to a multiple of q; when that lands on or beyond an open
        # bound, step inward by whole multiples so it stays a multiple of q.
        k = round(value / q)
        for candidate in (k * q, (k - 1) * q, (k + 1) * q):
            if schema_model.in_range(candidate, lo, hi, lo_open, hi_open, False):
                return candidate
    return min(max(value, lo_eps), hi_eps)


def _real_bounds(lo, hi, lo_open, hi_open) -> tuple[float, float]:
    # PCS and grids have no open intervals; shrink by a relative epsilon.
    eps = 1e-9 * (hi - lo) if hi > lo else 0.0
    return (lo + eps if lo_open else float(lo), hi - eps if hi_open else float(hi))


# ---------------------------------------------------------------------------
# Flattened grid of disjuncts


def flat_size(ir: SearchIR, limit: int = DEFAULT_BLOWUP_LIMIT) -> int:
    """|emit_flat(ir)| by arithmetic: a product over steps, a sum over choice
    branches, and per leaf disjunct a product over its nested operator slots.
    Raises BlowupExceeded at the first partial size beyond `limit`, so the
    numbers stay small and nothing is built. The IR keeps the answer, the
    refusal included (`SearchIR.flat_sizes`), so the flat, PCS and grid
    emitters of one compiled space size it once."""
    sizes = ir.flat_sizes
    if limit not in sizes:
        try:
            sizes[limit] = _flat_size(ir, limit)
        except BlowupExceeded:
            sizes[limit] = None
            raise
    if sizes[limit] is None:
        raise BlowupExceeded(limit)
    return sizes[limit]


def _flat_size(ir: SearchIR, limit: int) -> int:
    if isinstance(ir, StepMapIR):
        steps = (_flat_size(child, limit) for _, child in ir.steps)
        return capped_fold(mul, 1, steps, limit)
    if isinstance(ir, ChoiceIR):
        branches = (_flat_size(body, limit) for _, body in ir.branches)
        return capped_fold(add, 0, branches, limit)
    assert isinstance(ir, LeafIR)
    rows = (_disjunct_rows(disjunct, limit) for disjunct in ir.nf.disjuncts)
    return capped_fold(add, 0, rows, limit)


def _disjunct_rows(disjunct: Mapping[str, Domain], limit: int) -> int:
    """Flat rows of one leaf disjunct: a product over its nested slots."""
    slots = (_flat_size(domain.nested, limit)
             for domain in disjunct.values() if isinstance(domain, OpSlot))
    return capped_fold(mul, 1, slots, limit)


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
                # Keys with scalar_eq's equality: 1 == 1.0 and -0.0 == 0.0,
                # but a bool only equals a bool. Ranges admit no NaN.
                seen = {(isinstance(v, bool), v) for v in values}
                log = domain.prior.kind == "loguniform"
                for _ in range(cont_samples):
                    draw = _draw_cont(rng, domain.lo, domain.hi, domain.lo_open, domain.hi_open,
                                      domain.integer_valued, log, domain.prior.quantization)
                    key = isinstance(draw, bool), draw
                    if key not in seen:
                        seen.add(key)
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
    """A PCS space: what `emit_pcs` prints and what `read_pcs` returns. A
    compiled space's own (`CompiledSpace.pcs_model`) also maps each PCS name
    back to its hyperparameter; a parsed one has no such map, and equality
    ignores it."""

    parameters: dict[str, PcsParameter]
    conditions: dict[str, list[tuple[str, str]]]
    # pcs name -> ("param", public, domains) | ("selector",)
    decode_map: dict[str, tuple] = field(default_factory=dict, compare=False)

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

    def decode_point(self, point: Mapping[str, Any]) -> dict[str, Any]:
        """decode_pcs_point with this space's decode map."""
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


def _pcs_model(ir: SearchIR) -> PcsSpace:
    model = PcsSpace({}, {})
    _pcs_build(ir, (), None, model)
    return model


def _pcs_unique(name: str, branch_ctx, used) -> str:
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


def _pcs_add(model, name, branch_ctx, param: PcsParameter, ctx, decode_entry):
    final = _pcs_unique(name, branch_ctx, model.parameters)
    param.name = final
    model.parameters[final] = param
    if ctx:
        model.conditions[final] = list(ctx)
    model.decode_map[final] = decode_entry
    return final


def _pcs_build(ir: SearchIR, ctx, branch_ctx, model: PcsSpace) -> None:
    if isinstance(ir, StepMapIR):
        for _, child in ir.steps:
            _pcs_build(child, ctx, branch_ctx, model)
        return
    if isinstance(ir, ChoiceIR):
        values = tuple(value for value, _ in ir.branches)
        disc = _pcs_add(
            model, ir.discriminant, branch_ctx,
            PcsParameter(ir.discriminant, "categorical", values=values, default=values[0]),
            ctx, ("param", ir.discriminant, (Cat(values),)),
        )
        for value, body in ir.branches:
            _pcs_build(body, ctx + ((disc, value),), (ir.prefix, value), model)
        return
    assert isinstance(ir, LeafIR)
    disjuncts = ir.nf.disjuncts
    names = list(disjuncts[0]) if disjuncts else []
    selector = None
    if len(disjuncts) > 1:
        values = tuple(str(i) for i in range(len(disjuncts)))
        selector_name = _join(ir.unique, "disjunct")
        selector = _pcs_add(
            model, selector_name, branch_ctx,
            PcsParameter(selector_name, "categorical", values=values, default="0"),
            ctx, ("selector",),
        )
    for name in names:
        domains = [d[name] for d in disjuncts]
        public = _join(ir.prefix, name)
        if isinstance(domains[0], OpSlot):
            _pcs_build(domains[0].nested, ctx, branch_ctx, model)
            continue
        if selector is None or all(_same_domain(d, domains[0]) for d in domains):
            _pcs_add(model, public, branch_ctx,
                     _pcs_param(public, domains[0]), ctx,
                     ("param", public, tuple(domains)))
            continue
        for index, domain in enumerate(domains):
            pcs_name = public if index == 0 else f"{public}__{index}"
            _pcs_add(model, pcs_name, branch_ctx,
                     _pcs_param(pcs_name, domain),
                     ctx + ((selector, str(index)),),
                     ("param", public, (domain,)))


def _same_domain(a: Domain, b: Domain) -> bool:
    """Domain equality in which a boolean equals only a boolean (scalar_eq's
    rule), where dataclass equality has 1 == True."""
    return a is b or (a == b and _bool_places(a) == _bool_places(b))


def _bool_places(domain: Domain) -> list[bool]:
    values = domain.values if isinstance(domain, Cat) else ()
    return [type(v) is bool for v in (*values, domain.default)]


def _pcs_param(name: str, domain: Domain) -> PcsParameter:
    if isinstance(domain, Cat):
        values = tuple(_pcs_value(v) for v in domain.values)
        default = (_pcs_value(domain.default)
                   if domain.default is not schema_model.MISSING else values[0])
        return PcsParameter(name, "categorical", values=values, default=default)
    assert isinstance(domain, Cont)
    log = domain.prior.kind == "loguniform"
    if domain.integer_valued:
        lo, hi = schema_model.integer_bounds(domain.lo, domain.hi, domain.lo_open,
                                             domain.hi_open)
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
             cached: Callable[[], PcsSpace] | None = None) -> str:
    """Classic PCS text: parameters, then `child | parent == value` lines
    (several lines on one child conjoin). `cached` gives ir's PCS model
    when the caller keeps one. Refuses with CompileError a parameter whose
    name or value `read_pcs` could not read back, or whose values spell
    alike (as 1 and "1" do), since the text could not tell them apart."""
    flat_size(ir, limit)  # enforce the blowup cap the flat form defines
    space = cached() if cached else _pcs_model(ir)
    for param in space.parameters.values():
        for text in (param.name, *param.values, param.default):
            if _PCS_UNREADABLE.search(text):
                raise CompileError(
                    f"PCS parameter {param.name!r}: {text!r} would not read back "
                    "(PCS names and values hold no whitespace and none of # | , = { } [ ])")
        if len(set(param.values)) < len(param.values):
            raise CompileError(
                f"PCS parameter {param.name!r}: values {{{', '.join(param.values)}}} "
                "spell alike, so PCS text cannot tell them apart")
    return _pcs_text(space)


# A character some PCS name or value cannot hold and still read back:
# read_pcs strips whitespace, splits lines at line breaks (all whitespace)
# and splits at this punctuation (see docs/pcs_format.md).
_PCS_UNREADABLE = re.compile(r"[\s#|,={}\[\]]")


def _pcs_text(space: PcsSpace) -> str:
    lines = ["# parameter configuration space"]
    for param in space.parameters.values():
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
        for child, pairs in space.conditions.items()
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
        kind = "integer" if "i" in flags else "real"
        try:
            lo, hi = (_pcs_number(bound, kind == "integer") for bound in domain_text.split(","))
        except ValueError:
            raise ValueError(f"line {lineno}: expected two numbers in [{domain_text}]") from None
        problem = _pcs_range_problem(lo, hi, kind == "integer", "l" in flags)
        if problem:
            raise ValueError(f"line {lineno}: {problem}")
        parameters[name] = PcsParameter(
            name, kind, lo=lo, hi=hi, log="l" in flags, default=default)
    for child in conditions:
        if child not in parameters:
            raise ValueError(f"condition references unknown parameter {child!r}")
    return PcsSpace(parameters, conditions)


def _pcs_number(text: str, integer: bool) -> float | int:
    """A number in PCS text: for an integer range, an integer spelling reads
    exactly (float() would round one above 2**53); other spellings, such as
    3.0, read as floats."""
    number = float(text)
    if integer and math.isfinite(number):
        try:
            return int(text)
        except ValueError:
            pass
    return number


def _pcs_range_problem(lo: float, hi: float, integer: bool, log: bool) -> str | None:
    """Why the closed range [lo, hi] cannot be sampled, or None."""
    if math.isnan(lo) or math.isnan(hi):
        return f"NaN bound in [{lo}, {hi}]"
    if math.isinf(lo) or math.isinf(hi):
        return f"infinite bound in [{lo}, {hi}]"
    if schema_model.range_is_empty(lo, hi, False, False, integer):
        return (f"empty range [{lo}, {hi}]" if lo > hi
                else f"integer range [{lo}, {hi}] contains no integers")
    if log and lo <= 0:
        return f"log range [{lo}, {hi}] needs a positive lower bound"
    return None


def decode_pcs_point(ir: SearchIR, point: Mapping[str, Any]) -> dict[str, Any]:
    """Translate a PCS assignment (raw strings, per-disjunct copies) back to
    the public mangled names with schema-typed values. Builds the PCS model
    for this call; a CompiledSpace keeps its own."""
    return _pcs_model(ir).decode_point(point)


def _coerce(domains, value):
    # Exact equality first, so that a value some other candidate spells like
    # in PCS (1 and "1", true and "true") still decodes to itself.
    for domain in domains:
        if isinstance(domain, Cat):
            for candidate in domain.values:
                if schema_model.scalar_eq(candidate, value):
                    return candidate
    for domain in domains:
        if isinstance(domain, Cat):
            for candidate in domain.values:
                if _pcs_value(candidate) == str(value):
                    return candidate
        elif isinstance(domain, Cont) and not isinstance(value, bool):
            try:
                number = float(value)
            except (TypeError, ValueError, OverflowError):
                continue
            if domain.integer_valued:
                if not math.isfinite(number):
                    continue
                # An int or an integer spelling is kept exact: float() rounds
                # one above 2**53. Other spellings, such as "3.0", round.
                exact = _pcs_number(value, True) if isinstance(value, str) else value
                number = exact if isinstance(exact, int) else int(round(number))
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

    def hierarchical(self) -> dict:
        return emit_hierarchical(self.ir)

    def flat(self) -> list[dict[str, Domain]]:
        return emit_flat(self.ir)

    def pcs(self) -> str:
        return emit_pcs(self.ir, cached=lambda: self.pcs_model)

    def grid(self, cont_samples: int = 1, seed: int = 0) -> dict:
        return emit_grid(self.ir, cont_samples, seed)

    @cached_property
    def pcs_model(self) -> PcsSpace:
        return _pcs_model(self.ir)

    def decode(self, point: Mapping[str, Any]) -> Operator:
        return decode(self.ir, point)

    def decode_pcs(self, point: Mapping[str, Any]) -> Operator:
        return decode(self.ir, self.pcs_model.decode_point(point))


def compile_space(op: Operator, keep_constraints: bool = True) -> CompiledSpace:
    return CompiledSpace(op, combine(op, keep_constraints))
