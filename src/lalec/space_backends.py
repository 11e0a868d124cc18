"""Combine per-operator normal forms over a pipeline into a nested search
structure, then emit it for different optimizer styles.

Four interchangeable encodings of one space: a hierarchical JSON document
(nested choices), a flattened grid of disjuncts (name-mangled parameters),
classic PCS text (conditionals gate branch-local parameters), and a
discretized grid (continuous domains become categorical samples around the
default). Points from any encoding decode back to configured operators.

Name mangling joins step-path tokens with double underscores: an individual
step contributes its lowercased operator name, a choice step ``step<index>``.
A branch value is the branch operator's name (else ``Pipeline`` or
``Choice``), and `_numbered` numbers repeated tokens and values apart. A
choice adds a discriminant ``<unique>__D`` recording a point's branch, where
``unique`` is a collision-free path: a step's is its path, a branch's its
choice's joined with the value (``step0__Choice__Choice__D``, three deep).
"""

from __future__ import annotations

import itertools
import math
import random
import re
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Any, Mapping

from . import schema_model
from .operator_graph import (
    Choice,
    Individual,
    LifecycleState,
    Operator,
    Pipeline,
    configure,
)
from .schema_model import EnumNode, OperatorSlotNode, RangeNode
from .space_normalizer import (
    BlowupExceeded,
    Domain,
    NormalForm,
    drop_constraints,
    DEFAULT_BLOWUP_LIMIT,
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
    def flat_count(self) -> int:
        """|emit_flat(self)|, counted on first use whatever the cap."""
        return _sizes(self)[0]

    @cached_property
    def grid_slots(self) -> int:
        """The continuous domains summed over the rows of emit_flat(self),
        each of which a grid draws for, counted on first use whatever the
        cap."""
        return _sizes(self)[1]

    @cached_property
    def pcs_model(self) -> PcsSpace:
        """This IR's PCS model, built on first use."""
        model = PcsSpace({}, {})
        _pcs_build(self, (), None, model)
        return model

    @cached_property
    def pcs_text(self) -> str:
        """`emit_pcs`'s text, checked and built on first use (`emit_pcs`
        checks the cap first). A str, so no caller can change it. A
        refusal raises CompileError and keeps nothing, so every call raises
        it again."""
        return _checked_pcs_text(self.pcs_model)


@dataclass(frozen=True)
class LeafIR(SearchIR):
    """An operator's leaf. Its operator keeps it (`_node`, through `_kept`),
    so what it derives on first use below is kept across compiles."""

    prefix: str   # mangled path parameters live under
    unique: str   # collision-free path for synthetic selector parameters
    op: Individual
    nf: NormalForm

    @cached_property
    def mangled(self) -> tuple[tuple[dict[str, Domain | SearchIR], dict[str, Domain],
                                     tuple[SearchIR, ...]], ...]:
        """Per disjunct: each name's mangled key with its domain, or its
        nested IR for an operator slot, in the disjunct's order; the same
        without the slots; and the slots' IRs. Read them, never write to
        them."""
        out = []
        for disjunct in self.nf.disjuncts:
            pairs = {_join(self.prefix, name): domain for name, domain in disjunct.items()}
            slots = tuple(d for d in pairs.values() if isinstance(d, SearchIR))
            base = {key: d for key, d in pairs.items() if not isinstance(d, SearchIR)}
            out.append((pairs, base if slots else pairs, slots))
        return tuple(out)

    @cached_property
    def entries(self) -> tuple[tuple[str, str, tuple[Domain, ...], SearchIR | None], ...]:
        """Per name, in the disjuncts' order: (name, mangled key, the name's
        domain in each disjunct, nested IR of an operator slot or None).
        Every disjunct names the same hyperparameters, in the same order."""
        entries = []
        for name in self.nf.names():
            domains = tuple(d[name] for d in self.nf.disjuncts)
            nested = domains[0] if isinstance(domains[0], SearchIR) else None
            entries.append((name, _join(self.prefix, name), domains, nested))
        return tuple(entries)

    @cached_property
    def point_keys(self) -> dict[str, tuple[str | None, str]]:
        """`_point_keys` of this leaf: its own parameters' keys, then its
        operator slots'. Read it, never write to it."""
        keys = {key: (self.op.name, name) for name, key, _, nested in self.entries
                if nested is None}
        for *_, nested in self.entries:
            if nested is not None:
                _add_keys(keys, _point_keys(nested))
        return keys

    @cached_property
    def pcs_plan(self) -> tuple[tuple[str, EnumNode] | None, tuple]:
        """What `_pcs_build` adds for this leaf under any context: the name
        and node of its disjunct selector (None for one disjunct), then per
        name its nested IR, or per PCS parameter (name, node, decode entry,
        the selector value its condition names or None)."""
        disjuncts = self.nf.disjuncts
        selector = None
        if len(disjuncts) > 1:
            selector = (_join(self.unique, "disjunct"),
                        EnumNode(tuple(str(i) for i in range(len(disjuncts))), "0"))
        params: list = []
        for _, public, domains, nested in self.entries:
            if nested is not None:
                params.append(nested)
            elif selector is None or all(_same_domain(d, domains[0]) for d in domains):
                params.append((public, _pcs_param(domains[0]), ("param", public, domains), None))
            else:
                params += [(public if index == 0 else f"{public}__{index}",
                            _pcs_param(domain), ("param", public, (domain,)), str(index))
                           for index, domain in enumerate(domains)]
        return selector, tuple(params)


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
    an operator bound into a slot stands in its disjuncts as its own IR,
    whose prefix is the slot's mangled path. A space in which two
    parameters would share one key is refused (`_point_keys`).

    Every node, the root at path "" and each operator bound into a slot
    among them, goes through one lookup (`_node`): built by its first
    compile at its path with `keep_constraints` and kept, with its
    operator, by the youngest operator leaf it names, so every later
    compile of the node shares it and what it derives, and it dies with
    that leaf. A refused node is not kept.
    """
    return _node(op, "", "", keep_constraints, {})


def _compiled(op: Individual) -> dict:
    """A new store of the search IRs compiled from `op`, read through
    `_kept`: each node whose youngest operator leaf is `op`, with the
    node's operator, by `_node`'s key. It lives as long as the operator;
    copies start without one (`Individual._copy`)."""
    return {}


_BIRTHS = itertools.count()


def _birth(op: Individual) -> int:
    """The order in which a compile first met `op`, read through `_kept`."""
    return next(_BIRTHS)


def _node(op: Operator, path: str, unique: str, keep: bool, shapes: dict) -> SearchIR:
    """The IR of `op` at `path`, kept with `op` by (shape, path, unique path,
    keep) in the store of the youngest operator leaf the shape names
    (`_shape`). Identity is safe because the entry holds `op`, and so every
    leaf its key names. A node that names no leaf (an empty pipeline) is not
    kept. The root, at path "", refuses parameters that share a key before
    it is kept."""
    shape, _, owner = _shape(op, shapes)
    kept = _kept(owner, _compiled) if owner is not None else {}
    entry = kept.get((shape, path, unique, keep))
    if entry is None:
        ir = _combine_node(op, path, unique, keep, shapes)
        if not path:
            _point_keys(ir)
        entry = kept[shape, path, unique, keep] = op, ir
    return entry[1]


def _shape(op: Operator, shapes: dict) -> tuple:
    """(shape, birth, leaf), the leaf the youngest operator leaf `op` names
    (-1, None for none). A leaf's shape is its identity, a pipeline's ("P",
    step shapes, edges) and a choice's ("C", alternative shapes), built
    once per compile and kept in `shapes` by identity."""
    if isinstance(op, Individual):
        return id(op), _kept(op, _birth), op
    if id(op) not in shapes:
        pipeline = isinstance(op, Pipeline)
        if not pipeline and not isinstance(op, Choice):
            raise TypeError(f"not an operator: {op!r}")
        inner, born, owner = [], -1, None
        for child in op.steps if pipeline else op.alternatives:
            part, birth, leaf = _shape(child, shapes)
            inner.append(part)
            if birth > born:
                born, owner = birth, leaf
        shape = ("P", tuple(inner), op.edges) if pipeline else ("C", tuple(inner))
        shapes[id(op)] = shape, born, owner
    return shapes[id(op)]


def _numbered(names: list[str], first: int) -> list[str]:
    """`names` numbered apart, for step tokens (`first` 1) and branch values
    (`first` 2): from the `first`-th occurrence of a repeated name on, its
    k-th occurrence is `<name>_<k>`, k stepping past any name already taken."""
    counts: dict[str, int] = {}
    for name in names:
        counts[name] = counts.get(name, 0) + 1
    if len(counts) == len(names):
        return names
    taken = set(counts) if first > 1 else {name for name, n in counts.items() if n == 1}
    seen: dict[str, int] = {}
    out = []
    for name in names:
        k, numbered = seen.get(name, 0) + 1, name
        if counts[name] > 1 and k >= first:
            while (numbered := f"{name}_{k}") in taken:
                k += 1
            taken.add(numbered)
        seen[name] = k
        out.append(numbered)
    return out


def _steps(ops, prefix: str, keep: bool, shapes: dict) -> tuple[tuple[str, SearchIR], ...]:
    """A step map's steps: each operator's IR under its numbered token."""
    tokens = _numbered([op.name.lower() if isinstance(op, Individual) else f"step{index}"
                        for index, op in enumerate(ops)], 1)
    steps = []
    for token, op in zip(tokens, ops):
        path = _join(prefix, token)
        steps.append((token, _node(op, path, path, keep, shapes)))
    return tuple(steps)


def _combine_node(op: Operator, path: str, unique: str, keep: bool, shapes: dict) -> SearchIR:
    """The IR `_node` keeps: at the root, a lone operator as a one-step map."""
    if isinstance(op, Pipeline):
        return StepMapIR(path, _steps(op.steps, path, keep, shapes), op.edges)
    if not path:
        return StepMapIR("", _steps((op,), "", keep, shapes), wrapper=True)
    if isinstance(op, Individual):
        return _build_leaf(op, path, unique, keep)
    values = _numbered([alt.name if isinstance(alt, Individual) else type(alt).__name__
                        for alt in op.alternatives], 2)
    branches = tuple((value, _node(alt, path, _join(unique, value), keep, shapes))
                     for value, alt in zip(values, op.alternatives))
    return ChoiceIR(path, _join(unique, "D"), branches)


_EMPTY_NF = NormalForm(({},))


def _build_leaf(op: Individual, path: str, unique: str, keep: bool) -> LeafIR:
    """The disjuncts of the operator's schema's normal form (of the base
    object alone when constraints are dropped) that admit its bound values,
    bound names removed. The normal form is the one the schema keeps, so it
    is only read here; an operator bound into a slot stands in the
    disjuncts as its IR."""
    if op.frozen_trainable or op.frozen_trained or op.state == LifecycleState.TRAINED:
        return LeafIR(path, unique, op, _EMPTY_NF)
    try:
        schema = op.schema if keep else drop_constraints(op.schema)
        nf = schema.normal_form
    except Exception as exc:
        raise CompileError(f"{op.name}: {exc}") from exc
    effective_op = op if keep else replace(op, schema=schema)
    disjuncts = []
    for disjunct in nf.disjuncts:
        out: dict[str, Domain | SearchIR] = {}
        admitted = True
        for name, domain in disjunct.items():
            if name in op.bound:
                value = op.bound[name]
                if not schema_model.leaf_admits(domain, value):
                    admitted = False
                    break
                if isinstance(value, Operator):  # admitted, so the domain is a slot
                    marker = _join(unique, name)
                    out[name] = _node(value, marker, marker, keep, {})
                # any other fixed value contributes no dimension
            elif isinstance(domain, OperatorSlotNode):
                admitted = False  # an unbound slot cannot be searched
                break
            else:
                out[name] = domain
        if admitted:
            disjuncts.append(out)
    if not disjuncts:
        raise CompileError(f"{op.name}: bound configuration admits no search disjunct")
    return LeafIR(path, unique, effective_op, NormalForm(tuple(disjuncts)))


def _point_keys(ir: SearchIR) -> dict[str, tuple[str | None, str]]:
    """Each key a point of `ir` can hold, with its owner: (operator name,
    hyperparameter name) for a leaf's parameter, (None, choice path) for a
    choice's discriminant. One choice's branches may share keys, since a
    point holds one branch; any other repeat would make two parameters
    share one value, so it is refused with a CompileError that names the
    operator and the key. A leaf keeps its own (`LeafIR.point_keys`)."""
    if isinstance(ir, LeafIR):
        return ir.point_keys
    keys: dict[str, tuple[str | None, str]] = {}
    if isinstance(ir, StepMapIR):
        for _, child in ir.steps:
            _add_keys(keys, _point_keys(child))
    else:
        assert isinstance(ir, ChoiceIR)
        keys[ir.discriminant] = None, ir.prefix
        branches: dict[str, tuple[str | None, str]] = {}
        for _, body in ir.branches:
            for key, owner in _point_keys(body).items():
                branches.setdefault(key, owner)
        _add_keys(keys, branches)
    return keys


def _add_keys(keys: dict, more: dict) -> None:
    for key, owner in more.items():
        if key in keys:
            (name, what), (other, other_what) = owner, keys[key]
            if name is None:  # name the operator: a discriminant meets only hyperparameters
                (name, what), (other, other_what) = keys[key], owner
            held = (f"the discriminant of the choice at {other_what!r}" if other is None
                    else f"hyperparameter {other_what!r} of {other}")
            raise CompileError(f"{name}: hyperparameter {what!r} mangles to {key!r}, "
                               f"as does {held}")
        keys[key] = owner


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
        "disjuncts": [{key: _domain_doc(domain) for key, domain in pairs.items()}
                      for pairs, _, _ in ir.mangled],
    }


def _domain_doc(domain: Domain | SearchIR) -> dict:
    if isinstance(domain, EnumNode):
        doc: dict[str, Any] = {"kind": "categorical", "values": list(domain.values)}
        if domain.default is not schema_model.MISSING:
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
        if domain.default is not schema_model.MISSING:
            doc["default"] = domain.default
        return doc
    assert isinstance(domain, SearchIR)
    return {"kind": "operator", "marker": domain.prefix, "space": emit_hierarchical(domain)}


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
            point[name] = _draw(rng, _draw_plan(
                domain["lo"], domain["hi"], domain["loOpen"], domain["hiOpen"],
                domain["integer"], domain["distribution"] == "loguniform",
                domain.get("quantization")))
        else:
            _sample_into(domain["space"], rng, point, force_branch)


def _draw_plan(lo, hi, lo_open, hi_open, integer, log, q) -> tuple:
    """The one definition of a draw from a continuous domain, for
    hierarchical points, grid samples and parsed PCS spaces (see
    docs/space_formats.md): what depends only on the domain, computed once,
    as a tuple `_draw` reads. An integer range keeps its lowest value and
    width, a loguniform one its log bounds; a real range keeps its bounds
    and the start and span of the uniform draw (in log space when
    loguniform), and a quantized one its declared range and `q`."""
    if integer:
        lo_i, hi_i = schema_model.integer_bounds(lo, hi, lo_open, hi_open)
        if lo_i > hi_i:  # only a document from outside the compiler holds one
            raise CompileError(schema_model.range_problem(lo, hi, lo_open, hi_open, True, log))
        if log:
            return ("logint", lo_i, hi_i, math.log(lo_i), math.log(hi_i) - math.log(lo_i))
        width = hi_i - lo_i + 1
        return ("int", lo_i, width, width.bit_length())
    lo_eps, hi_eps = _real_bounds(lo, hi, lo_open, hi_open)
    if log:
        start, span = math.log(lo_eps), math.log(hi_eps) - math.log(lo_eps)
    else:
        start, span = lo_eps, hi_eps - lo_eps
    return ("real", lo_eps, hi_eps, start, span, log, (lo, hi, lo_open, hi_open, q) if q else None)


def _node_plan(node: RangeNode) -> tuple:
    """The `_draw_plan` of a schema range leaf, read through `_kept`."""
    return _draw_plan(node.lo, node.hi, node.lo_open, node.hi_open, node.integer_valued,
                      node.prior.kind == "loguniform", node.prior.quantization)


def _draw(rng: random.Random, plan: tuple):
    """One draw by a `_draw_plan`. A uniform integer draw is what
    `random.Random.randint` draws, its rejection loop on `getrandbits`
    written out so that no range is checked again per draw. Any other draw
    is what `rng.uniform` draws: `start + span * rng.random()`."""
    kind = plan[0]
    if kind == "int":
        _, lo, width, bits = plan
        r = rng.getrandbits(bits)
        while r >= width:
            r = rng.getrandbits(bits)
        return lo + r
    if kind == "logint":
        _, lo, hi, start, span = plan
        return min(max(int(round(math.exp(start + span * rng.random()))), lo), hi)
    _, lo, hi, start, span, log, quantized = plan
    value = start + span * rng.random()
    if log:
        value = math.exp(value)
    if quantized:
        # Round to a multiple of q; when that lands on or beyond an open
        # bound, step inward by whole multiples so it stays a multiple of q.
        lo_raw, hi_raw, lo_open, hi_open, q = quantized
        k = round(value / q)
        for candidate in (k * q, (k - 1) * q, (k + 1) * q):
            if schema_model.in_range(candidate, lo_raw, hi_raw, lo_open, hi_open, False):
                return candidate
    return min(max(value, lo), hi)


def _kept(owner: EnumNode | RangeNode | Individual, build):
    """`build(owner)`, for a `build` that reads nothing but `owner`, a
    schema leaf or an operator (or, for `_birth`, the order of first use):
    built on first use and kept in the owner's own __dict__ under `build`'s
    name, as `SchemaNode.normal_form` is, so it lives as long as the owner
    and every compile that shares the owner shares it. It is never keyed by
    value: EnumNode((1,), 1) == EnumNode((True,), True), and the two hash
    alike, yet one prints 1 in PCS and the other true."""
    kept = owner.__dict__
    fragment = kept.get(build.__name__)
    if fragment is None:
        fragment = kept[build.__name__] = build(owner)
    return fragment


def _real_bounds(lo, hi, lo_open, hi_open) -> tuple[float, float]:
    # PCS and grids have no open intervals; shrink by a relative epsilon.
    eps = 1e-9 * (hi - lo) if hi > lo else 0.0
    return (lo + eps if lo_open else float(lo), hi - eps if hi_open else float(hi))


# ---------------------------------------------------------------------------
# Flattened grid of disjuncts


def flat_size(ir: SearchIR, limit: int = DEFAULT_BLOWUP_LIMIT) -> int:
    """|emit_flat(ir)|, refused with BlowupExceeded when it exceeds `limit`.
    The IR keeps its count (`SearchIR.flat_count`), so the flat, PCS and
    grid emitters of one compiled space count it once, and nothing is built
    before a refusal."""
    if ir.flat_count > limit:
        raise BlowupExceeded(limit, f"flat size {ir.flat_count}", _largest_step(ir))
    return ir.flat_count


def _largest_step(ir: StepMapIR) -> str:
    """The end of a refusal's message: the root IR's first top-level step
    of the largest flat size, named by its token (and its operator's name,
    for an operator leaf), with that size."""
    token, step = max(ir.steps, key=lambda item: item[1].flat_count)
    if isinstance(step, LeafIR):
        token = f"{token} ({step.op.name})"
    return f"; largest step: {token}, flat size {step.flat_count}"


def _sizes(ir: SearchIR) -> tuple[int, int]:
    """(rows, continuous domains over those rows) of emit_flat(ir), summed
    over products: a step map is one product of its steps, a choice one
    product per branch, and a leaf one product per disjunct of its operator
    slots, each row of which also holds the disjunct's own continuous
    domains. Over a product, rows multiply, and each factor's domains count
    once per row of the other factors. Each part keeps its own counts."""
    if isinstance(ir, StepMapIR):
        products = [(0, [child for _, child in ir.steps])]
    elif isinstance(ir, ChoiceIR):
        products = [(0, [body]) for _, body in ir.branches]
    else:
        assert isinstance(ir, LeafIR)
        products = [(sum(not isinstance(d, EnumNode) for d in base.values()), slots)
                    for _, base, slots in ir.mangled]
    rows = slots = 0
    for own, parts in products:
        prod_rows, prod_slots = 1, own
        for part in parts:
            prod_rows, prod_slots = (prod_rows * part.flat_count,
                                     prod_slots * part.flat_count + part.grid_slots * prod_rows)
        rows, slots = rows + prod_rows, slots + prod_slots
    return rows, slots


def emit_flat(ir: SearchIR, limit: int = DEFAULT_BLOWUP_LIMIT) -> list[dict[str, Domain]]:
    """Cross product across steps, concatenation across choice branches:
    |flat| = product over steps of the per-step disjunct totals. Refuses
    with BlowupExceeded, before building any row, when flat_size exceeds
    `limit`. Rows share their Domain objects."""
    flat_size(ir, limit)
    return _flat_rows(ir, _as_domains)


def _as_domains(domains: dict[str, Domain]) -> dict[str, Domain]:
    return domains


def _flat_rows(ir: SearchIR, render) -> list[dict]:
    """The one cross-product walker, for the flat and grid emitters. Each
    leaf disjunct's domains (by mangled name) and each choice's stamp are
    rendered once per walk, by `render`, and each row merges rendered
    fragments. Every row is a dict of its own; its values are shared."""
    if isinstance(ir, StepMapIR):
        return _product([{}], [child for _, child in ir.steps], render)
    if isinstance(ir, ChoiceIR):
        rows = []
        for value, body in ir.branches:
            stamp = render({ir.discriminant: EnumNode((value,), value)})
            rows += [{**stamp, **row} for row in _flat_rows(body, render)]
        return rows
    assert isinstance(ir, LeafIR)
    rows = []
    for _, base, slots in ir.mangled:
        rows += _product([{**render(base)}], slots, render)
    return rows


def _product(rows: list[dict], parts, render) -> list[dict]:
    """`rows` crossed with the flat rows of each IR in `parts`, in order:
    every row merged with every row of the next part. A step map starts
    from one empty row, an operator disjunct from a copy of its rendered
    fragment, so the fragment takes no merge pass of its own. A part with
    no rows empties the product."""
    for part in parts:
        part_rows = _flat_rows(part, render)
        rows = [{**a, **b} for a in rows for b in part_rows]
    return rows


def flat_doc(rows: list[dict[str, Domain]]) -> dict:
    """The flat JSON document of `emit_flat` rows. Each distinct Domain's
    document is built once per call, keyed by identity, and every row that
    holds the domain holds that document: read it, never write to it."""
    docs: dict[int, dict] = {}
    return {"disjuncts": [{name: docs.get(id(domain))
                                 or docs.setdefault(id(domain), _domain_doc(domain))
                           for name, domain in row.items()}
                          for row in rows]}


# ---------------------------------------------------------------------------
# Discretized grid

# The most values one grid may draw or keep from its continuous domains:
# each continuous domain of each flat row keeps at most its default and its
# `cont_samples` draws. `emit_grid` counts them (`SearchIR.grid_slots`)
# before it builds any row.
GRID_DRAW_LIMIT = 100_000


def emit_grid(ir: SearchIR, cont_samples: int = 1, seed: int = 0,
              limit: int = DEFAULT_BLOWUP_LIMIT) -> dict:
    """Per flat disjunct, every continuous domain becomes the list of its
    default (when the domain contains it) plus `cont_samples` seeded draws.
    Refuses with BlowupExceeded, before building any row, a grid whose flat
    size exceeds `limit` or whose continuous domains would draw or keep more
    than GRID_DRAW_LIMIT values. Rows share their categorical value lists."""
    if cont_samples < 1:
        raise ValueError("cont_samples must be positive")
    flat_size(ir, limit)
    draws = ir.grid_slots * (cont_samples + 1)
    if draws > GRID_DRAW_LIMIT:
        raise BlowupExceeded(GRID_DRAW_LIMIT, f"grid draw count {draws}", _largest_step(ir))
    rows = _flat_rows(ir, _grid_fragment)
    rng = random.Random(seed)
    for params in rows:  # row by row, in each row's order
        for name, slot in params.items():
            if slot.__class__ is tuple:
                plan, default = slot
                values = [] if default is schema_model.MISSING else [default]
                # Equal under scalar_eq: 1 == 1.0 and -0.0 == 0.0, but a bool only
                # equals a bool, and a draw never is one. Ranges admit no NaN.
                seen = set() if isinstance(default, bool) else set(values)
                for _ in range(cont_samples):
                    draw = _draw(rng, plan)
                    if draw not in seen:
                        seen.add(draw)
                        values.append(draw)
                params[name] = values
    return {"disjuncts": [{"params": params} for params in rows],
            "cellCount": sum(math.prod(map(len, params.values())) for params in rows)}


def _grid_fragment(domains: dict[str, Domain]) -> dict[str, list | tuple]:
    """A leaf disjunct's grid parameters: each categorical's value list, and
    for each continuous domain a slot (draw plan, default) that every row
    holding it replaces with its own draws, in row order."""
    return {name: list(domain.values) if isinstance(domain, EnumNode) else
            (_kept(domain, _node_plan), domain.default)
            for name, domain in domains.items()}


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
class PcsSpace:
    """A PCS space: what `emit_pcs` prints and what `read_pcs` returns. Each
    parameter is a schema leaf that holds its default: an EnumNode of its
    PCS text values, or a closed RangeNode with a uniform or loguniform
    prior and no quantization. An IR's own (`SearchIR.pcs_model`) also maps
    each PCS name back to its hyperparameter; a parsed one has no such map,
    and equality ignores it."""

    parameters: dict[str, EnumNode | RangeNode]
    conditions: dict[str, list[tuple[str, str]]]
    # pcs name -> ("param", public, domains) | ("selector",)
    decode_map: dict[str, tuple] = field(default_factory=dict, compare=False)

    def sample(self, rng: random.Random) -> dict[str, Any]:
        """One assignment of every active parameter, honoring conditionals."""
        point: dict[str, Any] = {}
        for name, node in self.parameters.items():
            if not self._active(name, point):
                continue
            if isinstance(node, EnumNode):
                point[name] = node.values[rng.randrange(len(node.values))]
            else:
                point[name] = _draw(rng, _kept(node, _node_plan))
        return point

    def _active(self, name: str, point) -> bool:
        for parent, value in self.conditions.get(name, ()):
            if parent not in point or str(point[parent]) != value:
                return False
        return True


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


def _pcs_add(model, name, branch_ctx, node: EnumNode | RangeNode, ctx, decode_entry):
    final = _pcs_unique(name, branch_ctx, model.parameters)
    model.parameters[final] = node
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
        node = EnumNode(tuple(value for value, _ in ir.branches), ir.branches[0][0])
        disc = _pcs_add(model, ir.discriminant, branch_ctx, node, ctx,
                        ("param", ir.discriminant, (node,)))
        for value, body in ir.branches:
            _pcs_build(body, ctx + ((disc, value),), (ir.prefix, value), model)
        return
    assert isinstance(ir, LeafIR)
    selector, params = ir.pcs_plan
    if selector is not None:
        name, node = selector
        selector = _pcs_add(model, name, branch_ctx, node, ctx, ("selector",))
    for param in params:
        if isinstance(param, SearchIR):
            _pcs_build(param, ctx, branch_ctx, model)
            continue
        name, node, entry, index = param
        _pcs_add(model, name, branch_ctx, node,
                 ctx if index is None else ctx + ((selector, index),), entry)


def _same_domain(a: Domain, b: Domain) -> bool:
    """Domain equality in which a boolean equals only a boolean (scalar_eq's
    rule), where dataclass equality has 1 == True."""
    return a is b or (a == b and _bool_places(a) == _bool_places(b))


def _bool_places(domain: Domain) -> list[bool]:
    values = domain.values if isinstance(domain, EnumNode) else ()
    return [type(v) is bool for v in (*values, domain.default)]


def _pcs_param(domain: Domain) -> EnumNode | RangeNode:
    """The PCS parameter of a domain, which `LeafIR.pcs_plan` keeps."""
    if isinstance(domain, EnumNode):
        # The default is spelled as the value it equals: 1 as 1.0 in {1.0, 2.0}.
        default = next((v for v in domain.values if schema_model.scalar_eq(v, domain.default)),
                       domain.values[0])
        return EnumNode(tuple(map(_pcs_value, domain.values)), _pcs_value(default))
    assert isinstance(domain, RangeNode)
    log = domain.prior.kind == "loguniform"
    prior = schema_model.LOGUNIFORM if log else schema_model.UNIFORM
    if domain.integer_valued:
        lo, hi = schema_model.integer_bounds(domain.lo, domain.hi, domain.lo_open,
                                             domain.hi_open)
        default = domain.default if domain.default is not schema_model.MISSING else (lo + hi) // 2
        return RangeNode(lo, hi, integer_valued=True, prior=prior,
                         default=min(max(int(default), lo), hi))
    lo, hi = _real_bounds(domain.lo, domain.hi, domain.lo_open, domain.hi_open)
    if domain.default is not schema_model.MISSING:
        default = float(domain.default)
    elif log:  # exp(log(lo)) can round above hi = lo
        default = math.exp((math.log(lo) + math.log(hi)) / 2.0)
    else:
        default = (lo + hi) / 2.0
    return RangeNode(lo, hi, prior=prior, default=min(max(default, lo), hi))


def emit_pcs(ir: SearchIR, limit: int = DEFAULT_BLOWUP_LIMIT) -> str:
    """Classic PCS text of `ir.pcs_model`: parameters, then `child | parent
    == value` lines (several lines on one child conjoin). Refuses with
    CompileError a parameter whose name or value `read_pcs` could not read
    back, or whose values spell alike (as 1 and "1" do), since the text
    could not tell them apart. The IR keeps the text (`SearchIR.pcs_text`),
    so a later call only checks the cap."""
    flat_size(ir, limit)  # enforce the blowup cap the flat form defines
    return ir.pcs_text


def _checked_pcs_text(space: PcsSpace) -> str:
    """`emit_pcs`'s text of a PCS model, or its CompileError refusal."""
    for name, node in space.parameters.items():
        _, unreadable, alike = _kept(node, _pcs_line)
        if _PCS_UNREADABLE.search(name):
            unreadable = name
        if unreadable is not None:
            raise CompileError(
                f"PCS parameter {name!r}: {unreadable!r} would not read back "
                "(PCS names and values hold no whitespace and none of # | , = { } [ ])")
        if alike:
            raise CompileError(
                f"PCS parameter {name!r}: values {{{', '.join(node.values)}}} "
                "spell alike, so PCS text cannot tell them apart")
    return _pcs_text(space)


# A character some PCS name or value cannot hold and still read back:
# read_pcs strips whitespace, splits lines at line breaks (all whitespace)
# and splits at this punctuation (see docs/pcs_format.md).
_PCS_UNREADABLE = re.compile(r"[\s#|,={}\[\]]")


def _pcs_line(node: EnumNode | RangeNode) -> tuple[str, str | None, bool]:
    """A PCS parameter's line after its name, read through `_kept`, with its
    verdicts: the first value read_pcs could not read back (None when every
    value reads back), and whether two values spell alike. A compiled
    enum's default is one of its values; a range's is a number."""
    if isinstance(node, EnumNode):
        values = node.values
        tail = f"{{{', '.join(values)}}} [{node.default}]"
        unreadable = next((text for text in values if _PCS_UNREADABLE.search(text)), None)
        return tail, unreadable, len(set(values)) < len(values)
    integer = "i" if node.integer_valued else ""
    log = "l" if node.prior.kind == "loguniform" else ""
    return f"[{node.lo!r}, {node.hi!r}] [{node.default!r}]{integer}{log}", None, False


def _pcs_text(space: PcsSpace) -> str:
    lines = ["# parameter configuration space"]
    lines += [f"{name} {_kept(node, _pcs_line)[0]}" for name, node in space.parameters.items()]
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
    parameters: dict[str, EnumNode | RangeNode] = {}
    conditions: dict[str, list[tuple[str, str]]] = {}
    condition_lines = []
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
            condition_lines.append((lineno, child, parent, value))
            continue
        categorical = "{" in line
        if not categorical and "[" not in line:
            raise ValueError(f"line {lineno}: expected {{values}} or [lo, hi]")
        name, _, rest = line.partition("{" if categorical else "[")
        domain_text, closed, default_text = rest.partition("}" if categorical else "]")
        if not closed:
            raise ValueError(f"line {lineno}: unclosed {'{' if categorical else '['}")
        name, default_text = name.strip(), default_text.strip()
        if not name:
            raise ValueError(f"line {lineno}: missing parameter name")
        if name in parameters:
            raise ValueError(f"line {lineno}: a second line for parameter {name!r}")
        if not default_text.startswith("[") or "]" not in default_text:
            raise ValueError(f"line {lineno}: missing default")
        default, flags = (part.strip() for part in default_text[1:].split("]", 1))
        if categorical:
            values = tuple(v.strip() for v in domain_text.split(","))
            if len(set(values)) < len(values):
                raise ValueError(f"line {lineno}: repeated value in {{{domain_text}}}")
            if default not in values:
                raise ValueError(f"line {lineno}: default {default!r} outside {{{domain_text}}}")
            parameters[name] = EnumNode(values, default)
            continue
        integer, log = "i" in flags, "l" in flags
        try:
            lo, hi = (_pcs_number(bound) for bound in domain_text.split(","))
        except ValueError:
            raise ValueError(f"line {lineno}: expected two numbers in [{domain_text}]") from None
        problem = schema_model.range_problem(lo, hi, False, False, integer, log)
        if problem:
            raise ValueError(f"line {lineno}: {problem}")
        try:
            number = _pcs_number(default)
        except ValueError:
            number = None
        node = RangeNode(lo, hi, integer_valued=integer, default=number,
                         prior=schema_model.LOGUNIFORM if log else schema_model.UNIFORM)
        if not schema_model.leaf_admits(node, number):
            raise ValueError(f"line {lineno}: default {default!r} outside [{domain_text}]")
        parameters[name] = node
    # PcsSpace.sample draws in line order and compares the parent's draw as
    # text, so a condition whose parent is unknown, comes later or is never
    # drawn as the value could never hold. A real draw all but never equals
    # a given value, so a real parent is refused too.
    order = {name: index for index, name in enumerate(parameters)}
    for lineno, child, parent, value in condition_lines:
        if child not in order:
            raise ValueError(f"line {lineno}: condition references unknown parameter {child!r}")
        if order.get(parent, len(order)) >= order[child]:
            raise ValueError(f"line {lineno}: condition of {child!r} names {parent!r}, "
                             "which has no parameter line before it")
        node = parameters[parent]
        if isinstance(node, RangeNode) and not node.integer_valued:
            raise ValueError(f"line {lineno}: condition of {child!r} names real parameter "
                             f"{parent!r}, whose draws all but never equal a value")
        if not _drawn_as(node, value):
            raise ValueError(f"line {lineno}: condition of {child!r} can never hold: "
                             f"{parent!r} is never drawn as {value!r}")
    return PcsSpace(parameters, conditions)


def _drawn_as(node: EnumNode | RangeNode, text: str) -> bool:
    """Whether a draw of a categorical or integer parameter by
    PcsSpace.sample can print as `text`: as one of its values, or as the
    decimal spelling of an integer in its range."""
    if isinstance(node, EnumNode):
        return text in node.values
    try:
        number = int(text)
    except ValueError:
        return False
    return str(number) == text and schema_model.leaf_admits(node, number)


def _pcs_number(text: str) -> float | int:
    """A number in PCS text, read as JSON reads one: an integer spelling as
    an exact int (float() would round one above 2**53, and make one past the
    largest float inf), any other spelling, such as 3.0 or 1e400, as a
    float."""
    number = float(text)
    if number.is_integer() or not math.isfinite(number):  # else no integer spelling
        try:
            return int(text)
        except ValueError:
            pass
    return number


def decode_pcs_point(ir: SearchIR, point: Mapping[str, Any]) -> dict[str, Any]:
    """Translate a PCS assignment (raw strings, per-disjunct copies) back to
    the public mangled names with schema-typed values, by `ir.pcs_model`."""
    decode_map = ir.pcs_model.decode_map
    out: dict[str, Any] = {}
    for name, value in point.items():
        entry = decode_map.get(name)
        if entry is None:
            raise UnknownMarker(f"point names unknown parameter {name!r}")
        if entry[0] == "selector":
            continue
        _, public, domains = entry
        out[public] = _coerce(domains, value)
    return out


def _coerce(domains, value):
    # A value some domain holds as it is decodes to itself: an enum value of
    # its type, an int in an integer range or a float in a real one. Only
    # then may an equal value (1.0 for 1), then one spelled alike in PCS ("1"
    # for 1, "true" for true), or a range's reading of it stand in for it.
    kind = value.__class__
    for domain in domains:
        if isinstance(domain, EnumNode):
            for candidate in domain.values:
                if candidate.__class__ is kind and candidate == value:
                    return candidate
        elif (kind is (int if domain.integer_valued else float)
              and schema_model.leaf_admits(domain, value)):
            return value
    for domain in domains:
        if isinstance(domain, EnumNode):
            for candidate in domain.values:
                if schema_model.scalar_eq(candidate, value):
                    return candidate
    for domain in domains:
        if isinstance(domain, EnumNode):
            for candidate in domain.values:
                if _pcs_value(candidate) == str(value):
                    return candidate
        elif isinstance(domain, RangeNode) and not isinstance(value, bool):
            try:
                number = float(value)
            except (TypeError, ValueError, OverflowError):
                continue
            if domain.integer_valued:
                if not math.isfinite(number):
                    continue
                # An int or an integer spelling is kept exact: float() rounds
                # one above 2**53. Other spellings, such as "3.0", round.
                exact = _pcs_number(value) if isinstance(value, str) else value
                number = exact if isinstance(exact, int) else int(round(number))
            if schema_model.in_range(number, domain.lo, domain.hi, domain.lo_open,
                                     domain.hi_open, domain.integer_valued):
                return number
    raise DecodeError(f"value {value!r} fits none of the expected domains")


# ---------------------------------------------------------------------------
# Decoding points back to operators


def decode(ir: SearchIR, point: Mapping[str, Any]) -> Operator:
    """Rebuild the configured operator a point denotes: resolve choices by
    their discriminants, bind leaf values, instantiate bound slots. A step
    map's pipeline is built by the one constructor, which checks its edges
    again."""
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

    Decoding reads what the objects it comes from keep: each schema's
    defaults on the schema (through `configure`), each leaf's entries on
    the leaf, built by its first compile and kept by its operator, and the
    PCS model on the IR, built by the first `pcs` or `decode_pcs`.
    """

    op: Operator
    ir: SearchIR

    def hierarchical(self) -> dict:
        return emit_hierarchical(self.ir)

    def flat(self) -> list[dict[str, Domain]]:
        return emit_flat(self.ir)

    def pcs(self) -> str:
        return emit_pcs(self.ir)

    def grid(self, cont_samples: int = 1, seed: int = 0) -> dict:
        return emit_grid(self.ir, cont_samples, seed)

    def decode(self, point: Mapping[str, Any]) -> Operator:
        return decode(self.ir, point)

    def decode_pcs(self, point: Mapping[str, Any]) -> Operator:
        return decode(self.ir, decode_pcs_point(self.ir, point))


def compile_space(op: Operator, keep_constraints: bool = True) -> CompiledSpace:
    return CompiledSpace(op, combine(op, keep_constraints))
