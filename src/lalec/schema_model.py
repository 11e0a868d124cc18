"""Hyperparameter schemas: a small JSON-Schema subset with side constraints.

The subset covers exactly what operator specifications need: an object of
named hyperparameters whose domains are numeric ranges, enumerations,
operator slots, or disjunctions of those, plus constraint conjuncts built
from ``allOf``/``anyOf``/``not``. Everything outside that subset is rejected
at parse time so misconfigurations surface immediately instead of at fit
time.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass
from functools import cached_property
from typing import Any, Mapping


class SchemaError(Exception):
    """Base class for schema parsing and authoring errors."""


class MalformedJson(SchemaError):
    pass


class UnsupportedKeyword(SchemaError):
    def __init__(self, path, keyword):
        self.path = tuple(path)
        self.keyword = keyword
        super().__init__(f"unsupported keyword {keyword!r} at {render_path(path)}")


class UnsupportedNegation(SchemaError):
    """``not`` is only allowed over an object of enum-valued properties."""


class InvalidSchema(SchemaError):
    def __init__(self, path, message):
        self.path = tuple(path)
        super().__init__(f"{message} at {render_path(path)}")


class MissingDefault(SchemaError):
    def __init__(self, path):
        self.path = tuple(path)
        super().__init__(f"no default declared at {render_path(path)}")


class NoBaseObject(SchemaError):
    pass


def render_path(path) -> str:
    return "$" + "".join(f".{p}" for p in path)


class _Missing:
    """Sentinel distinguishing 'no default' from a default of null."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "MISSING"


MISSING = _Missing()


@dataclass(frozen=True)
class Prior:
    """Search guidance for a numeric range: sampling distribution and
    optional quantization (values rounded to multiples of q)."""

    kind: str = "uniform"  # "uniform" | "loguniform"
    quantization: float | None = None


UNIFORM = Prior()
LOGUNIFORM = Prior("loguniform")


@dataclass(frozen=True)
class SchemaNode:
    @cached_property
    def declared_defaults(self) -> dict[str, Any]:
        """The declared default of each hyperparameter that has one, in
        declaration order, or {} for a schema without a base object. A
        domain's default is its own, or for an anyOf without one, the first
        alternative's that has one. Resolved on first use and kept on the
        node, so it is shared by every caller: read it, never write to it."""
        try:
            domains = declared_domains(self)
        except NoBaseObject:
            return {}
        out = {}
        for name, node in domains.items():
            value = _default_of(node)
            if value is not MISSING:
                out[name] = value
        return out

    @cached_property
    def normal_form(self):
        """normalize(self) at the default blowup cap, built by the first
        compile and kept on the node, so it is shared by every caller: read
        it, never write to it. A schema that fails to normalize keeps
        nothing, so each access raises again."""
        # space_normalizer imports this module, so it is imported here.
        from .space_normalizer import normalize

        return normalize(self)


@dataclass(frozen=True)
class ObjectNode(SchemaNode):
    properties: tuple[tuple[str, SchemaNode], ...]
    required: frozenset = frozenset()
    additional_allowed: bool = True
    description: str = ""

    def property_map(self) -> dict[str, SchemaNode]:
        """Each hyperparameter's schema by name, as a fresh dict the caller
        may change."""
        return dict(self.properties)

    @cached_property
    def _by_name(self) -> dict[str, SchemaNode]:
        """property_map() built on first validation and kept on the node for
        validation alone, which only reads it; it is never handed out."""
        return dict(self.properties)


@dataclass(frozen=True)
class RangeNode(SchemaNode):
    lo: float
    hi: float
    lo_open: bool = False
    hi_open: bool = False
    integer_valued: bool = False
    prior: Prior = UNIFORM
    default: Any = MISSING
    description: str = ""


@dataclass(frozen=True)
class EnumNode(SchemaNode):
    values: tuple
    default: Any = MISSING
    description: str = ""


@dataclass(frozen=True)
class AnyOfNode(SchemaNode):
    children: tuple[SchemaNode, ...]
    default: Any = MISSING
    description: str = ""


@dataclass(frozen=True)
class AllOfNode(SchemaNode):
    children: tuple[SchemaNode, ...]
    description: str = ""


@dataclass(frozen=True)
class NotNode(SchemaNode):
    child: SchemaNode
    description: str = ""


@dataclass(frozen=True)
class OperatorSlotNode(SchemaNode):
    """A hyperparameter whose value is another operator."""

    default: Any = MISSING
    description: str = ""


@dataclass(frozen=True)
class AnyNode(SchemaNode):
    description: str = ""


@dataclass(frozen=True)
class Violation:
    path: tuple[str, ...]
    constraint: str
    kind: str  # type | range | enum | unknownName | constraintViolated


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    violations: tuple[Violation, ...] = ()

    def message(self) -> str:
        if self.ok:
            return "ok"
        return "; ".join(
            f"{render_path(v.path)}: {v.constraint} [{v.kind}]" for v in self.violations
        )


# The report of every configuration without violations: one shared, frozen
# value, so a valid configuration allocates no report.
VALID = ValidationReport(ok=True)


def is_scalar(value) -> bool:
    return value is None or isinstance(value, (bool, int, float, str))


def scalar_eq(a, b) -> bool:
    # Booleans only compare to booleans: enum [true] must not admit 1.
    if isinstance(a, bool) != isinstance(b, bool):
        return False
    return a == b


# Types whose JSON pins down type and bits (1, 1.0 and true differ, as do -0.0
# and 0.0), unlike a tuple (printed as a list) or numpy's float64. Their repr
# pins the same: a float's repr is its JSON number (or nan, inf, -inf for
# NaN, Infinity, -Infinity) and always shows a point, an exponent or a word,
# and a str's repr is quoted.
_EXACT_JSON = frozenset((str, int, float, bool, type(None)))
_STR = frozenset((str,))


def exact_json_key(mapping: Mapping[str, Any]) -> str | None:
    """A key of a mapping with str keys and exact JSON scalar values, else
    None: two such mappings get one key exactly when their sorted JSON is
    equal, that is, when they have the same names and every value is equal
    in type and bits (all NaNs are one value, as JSON prints them). It is
    the repr of the sorted items, which the JSON encoder need not build.
    Memos key points and configurations by it."""
    if _STR.issuperset(map(type, mapping)) and _EXACT_JSON.issuperset(
            map(type, mapping.values())):
        return repr(sorted(mapping.items()))
    return None


# ---------------------------------------------------------------------------
# Parsing


_RANGE_KEYS = {
    "type", "minimum", "maximum", "exclusiveMinimum", "exclusiveMaximum",
    "default", "distribution", "quantization", "description",
}
_OBJECT_KEYS = {"type", "properties", "required", "additionalProperties", "description"}
_ENUM_KEYS = {"enum", "default", "description"}
_ANYOF_KEYS = {"anyOf", "default", "description"}
_ALLOF_KEYS = {"allOf", "description"}
_NOT_KEYS = {"not", "description"}
_SLOT_KEYS = {"typeForOptimizer", "default", "description"}


def parse_schema(document) -> SchemaNode:
    """Parse a JSON schema document (text or already-loaded dict).

    Only the supported subset is accepted; any other keyword raises
    UnsupportedKeyword with the offending path.
    """
    if isinstance(document, (str, bytes)):
        try:
            document = json.loads(document)
        except json.JSONDecodeError as exc:
            raise MalformedJson(str(exc)) from exc
    return _parse(document, ())


def _reject_extra_keys(node, allowed, path):
    for key in node:
        if key not in allowed:
            raise UnsupportedKeyword(path, key)


def _parse(node, path) -> SchemaNode:
    if not isinstance(node, dict):
        raise InvalidSchema(path, f"schema must be an object, got {type(node).__name__}")
    description = node.get("description", "")
    if not isinstance(description, str):
        raise InvalidSchema(path, "description must be a string")

    if "enum" in node:
        _reject_extra_keys(node, _ENUM_KEYS, path)
        return _parse_enum(node, path, description)
    if "anyOf" in node:
        _reject_extra_keys(node, _ANYOF_KEYS, path)
        children = node["anyOf"]
        if not isinstance(children, list) or not children:
            raise InvalidSchema(path, "anyOf requires a nonempty array")
        parsed = tuple(_parse(c, path + (f"anyOf[{i}]",)) for i, c in enumerate(children))
        return AnyOfNode(parsed, default=node.get("default", MISSING), description=description)
    if "allOf" in node:
        _reject_extra_keys(node, _ALLOF_KEYS, path)
        children = node["allOf"]
        if not isinstance(children, list) or not children:
            raise InvalidSchema(path, "allOf requires a nonempty array")
        parsed = tuple(_parse(c, path + (f"allOf[{i}]",)) for i, c in enumerate(children))
        return AllOfNode(parsed, description=description)
    if "not" in node:
        _reject_extra_keys(node, _NOT_KEYS, path)
        child = _parse(node["not"], path + ("not",))
        _check_negation_form(child, path)
        return NotNode(child, description=description)
    if "typeForOptimizer" in node:
        _reject_extra_keys(node, _SLOT_KEYS, path)
        if node["typeForOptimizer"] != "operator":
            raise InvalidSchema(path, "typeForOptimizer only supports \"operator\"")
        return OperatorSlotNode(default=node.get("default", MISSING), description=description)

    kind = node.get("type")
    if kind == "object":
        return _parse_object(node, path, description)
    if kind in ("number", "integer"):
        _reject_extra_keys(node, _RANGE_KEYS, path)
        return _parse_range(node, path, kind, description)
    if kind is not None:
        raise UnsupportedKeyword(path, f"type:{kind}")

    extra = set(node) - {"description"}
    if extra:
        raise UnsupportedKeyword(path, sorted(extra)[0])
    return AnyNode(description=description)


def _parse_enum(node, path, description) -> EnumNode:
    values = node["enum"]
    if not isinstance(values, list) or not values:
        raise InvalidSchema(path, "enum requires a nonempty array")
    seen = []
    for v in values:
        if not is_scalar(v):
            raise InvalidSchema(path, f"enum values must be scalars, got {v!r}")
        if enum_admits(seen, v):
            raise InvalidSchema(path, f"duplicate enum value {v!r}")
        seen.append(v)
    default = node.get("default", MISSING)
    if default is not MISSING and not enum_admits(values, default):
        raise InvalidSchema(path, f"default {default!r} is not among the enum values")
    return EnumNode(tuple(values), default=default, description=description)


def _parse_range(node, path, kind, description) -> RangeNode:
    if "minimum" not in node or "maximum" not in node:
        raise InvalidSchema(path, "numeric domains require both minimum and maximum")
    lo, hi = node["minimum"], node["maximum"]
    for bound in (lo, hi):
        if isinstance(bound, bool) or not isinstance(bound, (int, float)):
            raise InvalidSchema(path, "range bounds must be numbers")
    lo_open = bool(node.get("exclusiveMinimum", False))
    hi_open = bool(node.get("exclusiveMaximum", False))
    dist = node.get("distribution", "uniform")
    problem = range_problem(lo, hi, lo_open, hi_open, kind == "integer", dist == "loguniform")
    if problem:
        raise InvalidSchema(path, problem)
    if dist not in ("uniform", "loguniform"):
        raise InvalidSchema(path, f"unknown distribution {dist!r}")
    quant = node.get("quantization")
    if quant is not None and (isinstance(quant, bool) or not isinstance(quant, (int, float)) or quant <= 0):
        raise InvalidSchema(path, "quantization must be a positive number")
    default = node.get("default", MISSING)
    if default is not MISSING:
        if isinstance(default, bool) or not isinstance(default, (int, float)):
            raise InvalidSchema(path, "range default must be a number")
        if not in_range(default, lo, hi, lo_open, hi_open, kind == "integer"):
            raise InvalidSchema(path, f"default {default!r} lies outside "
                                      f"{range_text(lo, hi, lo_open, hi_open)}")
    return RangeNode(
        lo=lo, hi=hi, lo_open=lo_open, hi_open=hi_open,
        integer_valued=(kind == "integer"),
        prior=Prior(dist, float(quant) if quant is not None else None),
        default=default, description=description,
    )


def _parse_object(node, path, description) -> ObjectNode:
    _reject_extra_keys(node, _OBJECT_KEYS, path)
    props = node.get("properties", {})
    if not isinstance(props, dict):
        raise InvalidSchema(path, "properties must be an object")
    parsed = tuple((name, _parse(sub, path + (name,))) for name, sub in props.items())
    required = node.get("required", [])
    if not isinstance(required, list):
        raise InvalidSchema(path, "required must be an array")
    names = {name for name, _ in parsed}
    for name in required:
        if name not in names:
            raise InvalidSchema(path, f"required name {name!r} is not a declared property")
    additional = node.get("additionalProperties", True)
    if not isinstance(additional, bool):
        raise InvalidSchema(path, "additionalProperties must be a boolean")
    return ObjectNode(parsed, frozenset(required), additional, description)


def _check_negation_form(child, path):
    # Complements are only computable for objects whose properties are enums.
    if not isinstance(child, ObjectNode):
        raise UnsupportedNegation(f"not requires an object of enums at {render_path(path)}")
    for name, sub in child.properties:
        if not isinstance(sub, EnumNode):
            raise UnsupportedNegation(
                f"not over non-enum property {name!r} at {render_path(path)}"
            )


def in_range(value, lo, hi, lo_open, hi_open, integer_valued) -> bool:
    """The one admission test of a numeric range, for schemas, normal forms
    and decoding alike: a number (bool is not one), integral when the range
    is, within the bounds, and off an open bound. NaN is never admitted."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    if integer_valued and not _integral(value):
        return False
    if not lo <= value <= hi:
        return False
    return not ((lo_open and value == lo) or (hi_open and value == hi))


def _integral(value) -> bool:
    # Exact for every int, however large, and False for NaN and infinities.
    return isinstance(value, int) or value.is_integer()


def integer_bounds(lo, hi, lo_open, hi_open) -> tuple[int, int]:
    """The least and the greatest integer of a range with finite bounds;
    the first exceeds the second when the range holds no integer."""
    lo_i = math.floor(lo) + 1 if (lo_open and float(lo).is_integer()) else math.ceil(lo)
    hi_i = math.ceil(hi) - 1 if (hi_open and float(hi).is_integer()) else math.floor(hi)
    return lo_i, hi_i


def range_is_empty(lo, hi, lo_open, hi_open, integer_valued) -> bool:
    """The one emptiness test of a numeric range with finite bounds, for
    schemas, normal forms and parsed PCS alike: no number lies within the
    bounds, or the range is integer-valued and holds no integer."""
    if lo > hi or (lo == hi and (lo_open or hi_open)):
        return True
    if integer_valued:
        lo_i, hi_i = integer_bounds(lo, hi, lo_open, hi_open)
        return lo_i > hi_i
    return False


def range_problem(lo, hi, lo_open, hi_open, integer_valued, log) -> str | None:
    """The one rule for which numeric bounds can be sampled, for schemas and
    parsed PCS alike: why a range with these bounds is refused, or None. It
    refuses a NaN bound, an infinite one (an int too large for a float is
    one: JSON reads 1e400 as inf), an empty range, an integer range that
    holds no integer, and a log range whose lower bound is not positive."""
    if lo != lo or hi != hi:  # NaN, the one number unequal to itself
        return f"NaN bound in {range_text(lo, hi, lo_open, hi_open)}"
    if not (-sys.float_info.max <= lo <= sys.float_info.max
            and -sys.float_info.max <= hi <= sys.float_info.max):
        return f"infinite bound in {range_text(lo, hi, lo_open, hi_open)}"
    if range_is_empty(lo, hi, lo_open, hi_open, False):
        return f"empty range {range_text(lo, hi, lo_open, hi_open)}"
    if range_is_empty(lo, hi, lo_open, hi_open, integer_valued):
        return f"integer range {range_text(lo, hi, lo_open, hi_open)} contains no integers"
    if log and lo <= 0:
        return f"log range {range_text(lo, hi, lo_open, hi_open)} needs a positive lower bound"
    return None


def range_text(lo, hi, lo_open, hi_open) -> str:
    """The one way a message writes a range: a bracket at a closed end and a
    parenthesis at an open one, as in ``[0, 1)``."""
    return f"{'(' if lo_open else '['}{lo}, {hi}{')' if hi_open else ']'}"


def enum_admits(values, value) -> bool:
    """The one admission test of an enumeration: a scalar equal to one of
    the values (a bool only equals a bool)."""
    if is_scalar(value):
        for v in values:
            if scalar_eq(value, v):
                return True
    return False


def is_operator_value(value) -> bool:
    """The one admission test of an operator slot: an in-memory operator or
    the serialized {"operator": ..., "config": ...} form."""
    if isinstance(value, Mapping):
        return "operator" in value
    return hasattr(value, "schema") and hasattr(value, "name")


def leaf_admits(node: SchemaNode, value) -> bool:
    """The one admission test of a leaf node (an enum, a range or an operator
    slot), by the tests above, for normal forms and compiled leaves alike, so
    that membership and validate agree. Any other node admits nothing."""
    if isinstance(node, EnumNode):
        return enum_admits(node.values, value)
    if isinstance(node, RangeNode):
        return in_range(value, node.lo, node.hi, node.lo_open, node.hi_open, node.integer_valued)
    if isinstance(node, OperatorSlotNode):
        return is_operator_value(value)
    return False


# ---------------------------------------------------------------------------
# Validation


def validate(config: Mapping[str, Any], schema: SchemaNode) -> ValidationReport:
    """Check a (possibly partial) configuration against a schema.

    Missing hyperparameters are latent and never violations: the empty
    config satisfies every schema, and defaults fill latents at fit time.
    Unknown names are violations when the base object forbids them. A
    configuration without violations gets the shared, frozen VALID report.
    """
    violations: list[Violation] = []
    _check_config(config, schema, (), violations)
    if not violations:
        return VALID
    # Report only the first failing constraint per path.
    first: dict[tuple, Violation] = {}
    for v in violations:
        first.setdefault(v.path, v)
    return ValidationReport(ok=False, violations=tuple(first.values()))


def _check_config(config, node, path, out: list[Violation] | None) -> bool:
    """Append violations for `config` under `node`; return True when ok. A
    probe (an anyOf alternative) passes no list and builds no violation."""
    if isinstance(node, ObjectNode):
        ok = True
        props = node._by_name
        for name, value in config.items():
            sub = props.get(name)
            if sub is None:
                if not node.additional_allowed:
                    if out is not None:
                        out.append(Violation(path + (name,), "unknown hyperparameter",
                                             "unknownName"))
                    ok = False
                continue
            ok = _check_value(value, sub, path + (name,), out) and ok
        return ok
    if isinstance(node, AllOfNode):
        ok = True
        for child in node.children:
            ok = _check_config(config, child, path, out) and ok
        return ok
    if isinstance(node, AnyOfNode):
        for child in node.children:
            if _check_config(config, child, path, None):
                return True
        if out is not None:
            out.append(Violation(path, _describe(node), "constraintViolated"))
        return False
    if isinstance(node, NotNode):
        # A negation fires only on provided evidence: every property the
        # negated object mentions must be present and match. Latent names
        # cannot prove a violation (and for total configs this coincides
        # with the standard vacuous-match semantics).
        if _negation_triggered(config, node.child):
            if out is not None:
                out.append(Violation(path, _describe(node), "constraintViolated"))
            return False
        return True
    if isinstance(node, AnyNode):
        return True
    raise InvalidSchema(path, f"{type(node).__name__} cannot constrain a configuration")


def _negation_triggered(config, child: ObjectNode) -> bool:
    # _check_negation_form admits only enum properties under `not`.
    for name, sub in child.properties:
        if name not in config or not enum_admits(sub.values, config[name]):
            return False
    return True


def _check_value(value, node, path, out: list[Violation] | None) -> bool:
    """Append violations for `value` under `node`; return True when ok. A
    probe passes no list and builds no violation."""
    if isinstance(node, EnumNode):
        if enum_admits(node.values, value):
            return True
        if out is not None:
            out.append(Violation(path, f"value {value!r} not in {list(node.values)!r}", "enum"))
        return False
    if isinstance(node, RangeNode):
        if in_range(value, node.lo, node.hi, node.lo_open, node.hi_open, node.integer_valued):
            return True
        if out is not None:
            out.append(_range_violation(value, node, path))
        return False
    if isinstance(node, AnyNode):
        return True
    if isinstance(node, OperatorSlotNode):
        if is_operator_value(value):
            return True
        if out is not None:
            out.append(Violation(path, f"expected an operator, got {value!r}", "type"))
        return False
    if isinstance(node, AnyOfNode):
        for child in node.children:
            if _check_value(value, child, path, None):
                return True
        if out is not None:
            out.append(Violation(path, _describe(node), "constraintViolated"))
        return False
    if isinstance(node, AllOfNode):
        ok = True
        for child in node.children:
            ok = _check_value(value, child, path, out) and ok
        return ok
    if isinstance(node, NotNode):
        raise UnsupportedNegation(f"negation is not allowed at property level ({render_path(path)})")
    if isinstance(node, ObjectNode):
        if isinstance(value, Mapping):
            return _check_config(value, node, path, out)
        if out is not None:
            out.append(Violation(path, f"expected an object, got {value!r}", "type"))
        return False
    raise InvalidSchema(path, f"unsupported node {type(node).__name__}")


def _range_violation(value, node: RangeNode, path) -> Violation:
    """Why a range does not admit `value`, which in_range refuses."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return Violation(path, f"expected a number, got {value!r}", "type")
    if node.integer_valued and not _integral(value):
        return Violation(path, f"expected an integer, got {value!r}", "type")
    text = range_text(node.lo, node.hi, node.lo_open, node.hi_open)
    return Violation(path, f"value {value!r} outside {text}", "range")


def _describe(node) -> str:
    if getattr(node, "description", ""):
        return node.description
    if isinstance(node, AnyOfNode):
        return "no admissible alternative"
    if isinstance(node, NotNode):
        return "excluded combination"
    return "constraint violated"


# ---------------------------------------------------------------------------
# Defaults and declared domains


def default_config(schema: SchemaNode) -> dict[str, Any]:
    """Collect the declared default for every hyperparameter, as a fresh
    dict; raises MissingDefault for the first one without, and NoBaseObject
    for a schema without a base object."""
    found = dict(schema.declared_defaults)
    for name in declared_domains(schema):
        if name not in found:
            raise MissingDefault((name,))
    return found


def _default_of(node):
    if isinstance(node, (RangeNode, EnumNode, AnyOfNode, OperatorSlotNode)):
        if node.default is not MISSING:
            return node.default
        if isinstance(node, AnyOfNode):
            for child in node.children:
                value = _default_of(child)
                if value is not MISSING:
                    return value
    return MISSING


def declared_domains(schema: SchemaNode) -> dict[str, SchemaNode]:
    """Per-hyperparameter base domains, before side constraints."""
    return base_object(schema).property_map()


def base_object(schema: SchemaNode) -> ObjectNode:
    """The object of declared domains: the schema itself or the first
    conjunct of an allOf-rooted schema (constraints follow it)."""
    base = schema.children[0] if isinstance(schema, AllOfNode) and schema.children else schema
    if not isinstance(base, ObjectNode):
        raise NoBaseObject("schema has no base object of hyperparameters")
    return base
