"""Rewrite an operator schema into search normal form.

Normal form is a disjunction of flat records, each mapping every
hyperparameter to a domain written in the schema's own leaf nodes: an
EnumNode, a RangeNode or an OperatorSlotNode, without its description, so
two domains are equal exactly when their values or bounds, default and
prior are. The base records are the product of the declared domains'
alternatives. Each constraint is rewritten bottom-up into records naming
only the hyperparameters it mentions (``anyOf`` hoists disjunctions to the
top, ``allOf`` distributes over them by pairwise intersection, ``not`` is
the complement against the declared domains); conjoined with the base, it
takes every other name from the base records. Empty intersections are
dropped, overlapping disjuncts kept, and every list goes through
capped_list, so none grows past the blowup cap. A constraint record that
can meet no base record is dropped as soon as it is built.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace
from typing import Any, Iterable, Mapping

from .schema_model import (
    MISSING,
    AllOfNode,
    AnyNode,
    AnyOfNode,
    EnumNode,
    NotNode,
    ObjectNode,
    OperatorSlotNode,
    Prior,
    RangeNode,
    SchemaNode,
    UnsupportedNegation,
    base_object,
    declared_domains,
    enum_admits,
    leaf_admits,
    range_is_empty,
)


class NormalizeError(Exception):
    pass


class BlowupExceeded(NormalizeError):
    def __init__(self, limit, what="disjunct count", where=""):
        super().__init__(f"{what} exceeds the cap of {limit}{where}")


def capped_list(items: Iterable, limit: int) -> list:
    """The items as a list, refused with BlowupExceeded as soon as it holds
    more than `limit` of them, so no more than limit + 1 are ever built."""
    out = []
    for item in items:
        out.append(item)
        if len(out) > limit:
            raise BlowupExceeded(limit)
    return out


class EmptySpace(NormalizeError):
    pass


DEFAULT_BLOWUP_LIMIT = 10_000


# A hyperparameter's domain in a normal form. In a compiled leaf
# (space_backends.LeafIR) an operator bound into a slot stands as its SearchIR.
Domain = EnumNode | RangeNode | OperatorSlotNode


class _Empty:
    def __repr__(self):
        return "EMPTY"


EMPTY = _Empty()


@dataclass(frozen=True)
class NormalForm:
    disjuncts: tuple[Mapping[str, Domain], ...]

    def names(self) -> tuple[str, ...]:
        return tuple(self.disjuncts[0]) if self.disjuncts else ()


def normalize(schema: SchemaNode, limit: int = DEFAULT_BLOWUP_LIMIT) -> NormalForm:
    """Normalize a full operator schema against its declared base domains,
    conjoined with each constraint after the base object. Every list of
    alternatives built on the way, per operator and per property, is refused
    with BlowupExceeded once it passes `limit`. Computed afresh on each call;
    the compiler reads the copy at the default cap that each schema keeps
    (SchemaNode.normal_form)."""
    declared = declared_domains(schema)
    declared_alts = {name: _domain_alternatives(node, limit) for name, node in declared.items()}
    constraints = schema.children[1:] if isinstance(schema, AllOfNode) else ()
    conjuncts = itertools.chain([_records(declared_alts, limit)],
                                (_norm(child, declared_alts, limit) for child in constraints))
    disjuncts = _conjoin(conjuncts, _intersect_records, limit)
    if not disjuncts:
        raise EmptySpace("no satisfiable disjunct remains")
    defaults = schema.declared_defaults
    final = []
    for d in disjuncts:
        final.append({name: _attach_default(d[name], defaults.get(name, MISSING)) for name in declared})
    return NormalForm(tuple(final))


def _attach_default(domain: Domain, default):
    if default is MISSING or isinstance(domain, OperatorSlotNode):
        return domain
    if not leaf_admits(domain, default):
        default = MISSING
    # Most domains already hold this default; replace() costs several µs.
    return domain if default is domain.default else replace(domain, default=default)


def _domain_alternatives(node: SchemaNode, limit: int) -> list[Domain]:
    """A property schema as a list of alternative domains (anyOf hoisted):
    each leaf as it is, but without its description."""
    if isinstance(node, (RangeNode, EnumNode)):
        return [replace(node, description="") if node.description else node]
    if isinstance(node, OperatorSlotNode):
        return [OperatorSlotNode()]
    if isinstance(node, AnyOfNode):
        alts = (alt for child in node.children for alt in _domain_alternatives(child, limit))
        return capped_list(alts, limit)
    if isinstance(node, AllOfNode):
        child_alts = (_domain_alternatives(child, limit) for child in node.children)
        return _conjoin(child_alts, intersect_domain, limit)
    if isinstance(node, NotNode):
        raise UnsupportedNegation("negation of a single property domain is not supported")
    raise NormalizeError(f"{type(node).__name__} is not a hyperparameter domain")


def _records(alternatives: Mapping[str, list[Domain]], limit) -> list[dict[str, Domain]]:
    """One record per combination of each name's alternatives, counted
    first: more than `limit` are refused before any is built."""
    count = math.prod(map(len, alternatives.values()))
    if count > limit:
        raise BlowupExceeded(limit, f"record count {count}")
    return [dict(zip(alternatives, combo)) for combo in itertools.product(*alternatives.values())]


def _norm(node: SchemaNode, declared_alts, limit) -> list[dict[str, Domain]]:
    """Bottom-up: return the node's disjuncts over the names it mentions,
    each one that can meet a base record (see _meets_base)."""
    if isinstance(node, AnyOfNode):
        records = (record for child in node.children
                   for record in _norm(child, declared_alts, limit))
        return capped_list(records, limit)
    if isinstance(node, AllOfNode):
        def intersect(a, b):
            merged = _intersect_records(a, b)
            return merged if merged is EMPTY or _meets_base(merged, declared_alts) else EMPTY

        branches = (_norm(child, declared_alts, limit) for child in node.children)
        return _conjoin(branches, intersect, limit)
    if isinstance(node, NotNode):
        records = capped_list(_complement(node.child, declared_alts), limit)
    elif isinstance(node, ObjectNode):
        records = _records({name: _domain_alternatives(sub, limit)
                            for name, sub in node.properties}, limit)
    elif isinstance(node, AnyNode):
        records = [{}]
    else:
        raise NormalizeError(f"cannot normalize {type(node).__name__} as a constraint")
    return [record for record in records if _meets_base(record, declared_alts)]


def _meets_base(record, declared_alts) -> bool:
    """Whether a constraint record can meet a base record: every declared
    name has an alternative, and each one the record holds meets one of
    them. Others are dropped before a conjoin in their constraint can
    multiply them, so with no base record every constraint's list is empty."""
    return all(any(intersect_domain(record[name], alt) is not EMPTY for alt in alts)
               if name in record else alts for name, alts in declared_alts.items())


def _conjoin(branches, intersect, limit) -> list:
    """Distribute allOf over its branches' alternatives, left to right: each
    next branch is intersected pairwise with the product so far, and empty
    intersections are dropped."""
    result = None
    for branch in branches:
        if result is None:
            result = branch
            continue
        merged = (intersect(left, right) for left in result for right in branch)
        result = capped_list((m for m in merged if m is not EMPTY), limit)
    return [] if result is None else result


def _complement(child: ObjectNode, declared_alts):
    """Relative complement of an enum-object: one record per property,
    naming that property alone, complemented against its declared values.
    Yields each property's record before checking the next property."""
    for name, sub in child.properties:
        if not isinstance(sub, EnumNode):
            raise UnsupportedNegation(f"cannot complement non-enum property {name!r}")
        alts = declared_alts.get(name)
        if alts is None:
            raise NormalizeError(f"negated property {name!r} has no declared domain")
        if len(alts) != 1 or not isinstance(alts[0], EnumNode):
            raise UnsupportedNegation(f"declared domain of {name!r} is not a single enum")
        remaining = tuple(v for v in alts[0].values if not enum_admits(sub.values, v))
        if remaining:
            yield {name: EnumNode(remaining, alts[0].default)}


def _intersect_records(a: dict[str, Domain], b: dict[str, Domain]):
    """Every name of either record with its domain, intersected where both
    hold it, or EMPTY when one intersection is empty."""
    merged = a | b
    for name in a:
        if name in b:
            domain = intersect_domain(a[name], b[name])
            if domain is EMPTY:
                return EMPTY
            merged[name] = domain
    return merged


def intersect_domain(a: Domain, b: Domain):
    """Intersection of two domains of one hyperparameter, or EMPTY."""
    if isinstance(a, RangeNode) and isinstance(b, EnumNode):
        a, b = b, a  # the values, their order and the default are the enum's
    if isinstance(a, EnumNode):
        values = tuple(v for v in a.values if leaf_admits(b, v))
        return EnumNode(values, a.default) if values else EMPTY
    if isinstance(a, RangeNode) and isinstance(b, RangeNode):
        if a.lo > b.lo:
            lo, lo_open = a.lo, a.lo_open
        elif b.lo > a.lo:
            lo, lo_open = b.lo, b.lo_open
        else:
            lo, lo_open = a.lo, a.lo_open or b.lo_open
        if a.hi < b.hi:
            hi, hi_open = a.hi, a.hi_open
        elif b.hi < a.hi:
            hi, hi_open = b.hi, b.hi_open
        else:
            hi, hi_open = a.hi, a.hi_open or b.hi_open
        integer_valued = a.integer_valued or b.integer_valued
        if range_is_empty(lo, hi, lo_open, hi_open, integer_valued):
            return EMPTY
        return RangeNode(lo, hi, lo_open, hi_open, integer_valued,
                         _merge_priors(a.prior, b.prior), a.default)
    if isinstance(a, OperatorSlotNode) and isinstance(b, OperatorSlotNode):
        return a
    # Operator slots intersect with nothing else.
    return EMPTY


def _merge_priors(a: Prior, b: Prior) -> Prior:
    # Prefer the non-default choice on both axes; ties favor the left.
    kind = a.kind if a.kind != "uniform" else b.kind
    quant = a.quantization if a.quantization is not None else b.quantization
    return Prior(kind, quant)


def member(nf: NormalForm, config: Mapping[str, Any]) -> bool:
    """True iff some disjunct admits every value of the config."""
    for disjunct in nf.disjuncts:
        if all(leaf_admits(disjunct[name], value)
               for name, value in config.items() if name in disjunct):
            if all(name in disjunct for name in config):
                return True
    return False


def drop_constraints(schema: SchemaNode) -> SchemaNode:
    """Keep only the base object of declared domains, discarding every
    constraint conjunct (the unconstrained-ablation compile). This is the
    schema's own base node, not a copy, so every unconstrained compile of
    the schema shares that node's normal form."""
    return base_object(schema)
