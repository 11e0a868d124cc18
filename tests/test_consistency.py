"""The paper's consistency claim as one property: a space compiled from any
topology reads the same in each of its four encodings (hierarchical, flat,
PCS and grid) and under validation.

- Soundness: every point drawn from the hierarchical document, from the
  PCS text read back, and from the grid decodes, and every step of the
  decoded operator validates against its schema.
- Agreement: every hierarchical point and every grid cell is a member of
  the flat rows, and the PCS names map back onto every name a hierarchical
  point holds.
- Unconstrained compiles: a point of the space without side constraints
  fails validation exactly when the constrained space does not hold it.
- Completeness at probe resolution: a point moved to any boundary value of
  one of its hyperparameters' schema validates exactly when the flat rows
  and the hierarchical document hold it.
"""

import itertools
import math
import random
from pathlib import Path

from hypothesis import given, settings, strategies as st

from lalec import grammar_engine, toyml
from lalec import operator_graph as og
from lalec import schema_model as sm
from lalec.pipeline_dsl import parse_grammar
from lalec.space_backends import (
    ChoiceIR,
    CompileError,
    SearchIR,
    StepMapIR,
    _join,
    _pcs_text,
    compile_space,
    decode_pcs_point,
    grid_cells,
    read_pcs,
    sample_space,
)
from lalec.space_normalizer import BlowupExceeded

from conftest import has_overlapping_alternatives, hier_member, partial_record_cases

REGISTRY = toyml.load_registry()
GRAMMARS = {path.stem: parse_grammar(path.read_text(encoding="utf-8"), REGISTRY)
            for path in sorted((Path(__file__).parent.parent / "fixtures" / "grammars")
                               .glob("*.grammar"))}
STEPS = ["NoOp", "Scaler", "StandardScaler", "MinMaxScaler", "SelectKVariance", "PCA",
         "KNN", "LR", "J48", "LogRegGD", "PrunedTree", "DecisionStump", "BoostedEnsemble"]
BASES = ["PrunedTree", "DecisionStump", "KNN", "J48", "LR"]
POINTS = 10
GRID_CELLS = 30
PROBED_POINTS = 5


@st.composite
def individuals(draw, names=STEPS):
    """A registered operator, sometimes with one hyperparameter bound: an
    enum to one of its values, any other domain to its default."""
    op = REGISTRY[draw(st.sampled_from(names))]
    declared = sm.declared_domains(op.schema)
    if not declared or draw(st.booleans()):
        return op
    name = draw(st.sampled_from(sorted(declared)))
    node = declared[name]
    value = (draw(st.sampled_from(node.values)) if isinstance(node, sm.EnumNode)
             else op.schema.declared_defaults[name])
    try:
        return og.configure(op, {name: value})
    except og.ValidationFailed:  # the value breaks a side constraint
        return op


@st.composite
def boosted(draw, depth):
    """BoostedEnsemble with an operator bound as its base: a registered
    estimator, or another boosted ensemble."""
    if depth < 2 and draw(st.booleans()):
        base = draw(boosted(depth + 1))
    else:
        base = draw(individuals(BASES))
    return og.configure(REGISTRY["BoostedEnsemble"], {"base": base})


@st.composite
def topologies(draw, depth=0):
    """Operators combined by pipe, both (joined by Concat) and choose, down
    to individuals and boosted ensembles."""
    kinds = ["individual", "boosted"] + (["pipe", "both", "choose"] if depth < 2 else [])
    kind = draw(st.sampled_from(kinds))
    if kind == "individual":
        return draw(individuals())
    if kind == "boosted":
        return draw(boosted(0))
    left, right = draw(topologies(depth + 1)), draw(topologies(depth + 1))
    if kind == "pipe":
        return og.pipe(left, right)
    if kind == "both":
        return og.pipe(og.both(left, right), REGISTRY["Concat"])
    return og.choose([left, right])


grammar_topologies = st.builds(
    lambda name, seed: grammar_engine.sample(GRAMMARS[name], seed, 4, REGISTRY),
    st.sampled_from(sorted(GRAMMARS)), st.integers(0, 2**31 - 1))


def _individuals(op):
    """Every individual of a decoded operator, operators bound into slots
    included."""
    if isinstance(op, og.Individual):
        yield op
        for value in op.bound.values():
            if isinstance(value, og.Operator):
                yield from _individuals(value)
    elif isinstance(op, og.Pipeline):
        for step in op.steps:
            yield from _individuals(step)


def _validates(op) -> bool:
    """Whether every step, completed with its defaults, validates against the
    registered schema with its side constraints (an unregistered step against
    its own schema)."""
    for step in _individuals(op):
        schema = REGISTRY[step.name].schema if step.name in REGISTRY else step.schema
        if not sm.validate({**schema.declared_defaults, **step.bound}, schema).ok:
            return False
    return True


def _contains(ir, point) -> bool:
    """Whether the compiled space holds the point: each choice's branch by
    its discriminant, and in each leaf a disjunct that admits the point's
    values and whose bound slots hold it."""
    if isinstance(ir, StepMapIR):
        return all(_contains(child, point) for _, child in ir.steps)
    if isinstance(ir, ChoiceIR):
        body = dict(ir.branches).get(point[ir.discriminant])
        return body is not None and _contains(body, point)
    return any(all(_contains(domain, point) if isinstance(domain, SearchIR)
                   else sm.leaf_admits(domain, point[_join(ir.prefix, name)])
                   for name, domain in disjunct.items())
               for disjunct in ir.nf.disjuncts)


def _flat_member(rows_by_names, point) -> bool:
    return any(all(sm.leaf_admits(row[name], value) for name, value in point.items())
               for row in rows_by_names.get(frozenset(point), ()))


def _check_encodings(op, seed):
    rng = random.Random(seed)
    compiled = compile_space(op)
    hier = compiled.hierarchical()
    points = [sample_space(hier, rng) for _ in range(POINTS)]
    for point in points:
        assert _validates(compiled.decode(point)), point
    try:
        pcs = read_pcs(compiled.pcs())
        rows = compiled.flat()
        grid = compiled.grid(1, seed)
    except BlowupExceeded:
        return compiled
    for point in (pcs.sample(rng) for _ in range(POINTS)):
        assert _validates(compiled.decode_pcs(point)), point
    defaults = {name: param.default for name, param in pcs.parameters.items()}
    pcs_names = set(decode_pcs_point(compiled.ir, defaults))
    assert all(pcs_names.issuperset(point) for point in points)
    rows_by_names = {}
    for row in rows:
        rows_by_names.setdefault(frozenset(row), []).append(row)
    for point in points:
        assert _flat_member(rows_by_names, point), point
    for cell in itertools.islice(grid_cells(grid), GRID_CELLS):
        assert _flat_member(rows_by_names, cell), cell
        assert _validates(compiled.decode(cell)), cell
    return compiled


def _check_unconstrained(op, constrained, seed):
    rng = random.Random(seed)
    unconstrained = compile_space(op, keep_constraints=False)
    hier = unconstrained.hierarchical()
    for _ in range(POINTS):
        point = sample_space(hier, rng)
        held = _contains(constrained.ir, point)
        assert _validates(unconstrained.decode(point)) == held, point


def _check(op, seed):
    _check_unconstrained(op, _check_encodings(op, seed), seed)


def _leaf_keys(ir, point, out):
    """Each key of the point that a leaf of the IR holds, mapped to the leaf
    and its hyperparameter, down the branches the point takes."""
    if isinstance(ir, StepMapIR):
        for _, child in ir.steps:
            _leaf_keys(child, point, out)
    elif isinstance(ir, ChoiceIR):
        _leaf_keys(dict(ir.branches)[point[ir.discriminant]], point, out)
    else:
        for disjunct in ir.nf.disjuncts:
            for name, domain in disjunct.items():
                if isinstance(domain, SearchIR):
                    _leaf_keys(domain, point, out)
                elif _join(ir.prefix, name) in point:
                    out[_join(ir.prefix, name)] = (ir, name)
    return out


def _boundary_values(schema, name):
    """The values on and next to each bound of the hyperparameter's domains
    in every disjunct of the schema's normal form, and each enum value."""
    values = []
    for disjunct in schema.normal_form.disjuncts:
        node = disjunct.get(name)
        if isinstance(node, sm.EnumNode):
            values += node.values
        elif isinstance(node, sm.RangeNode) and node.integer_valued:
            lo, hi = sm.integer_bounds(node.lo, node.hi, node.lo_open, node.hi_open)
            values += [lo - 1, lo, hi, hi + 1, lo + 0.5]
        elif isinstance(node, sm.RangeNode):
            values += [bound for edge in (node.lo, node.hi)
                       for bound in (math.nextafter(edge, -math.inf), edge,
                                     math.nextafter(edge, math.inf))]
    return values


def _check_probes(op, seed):
    rng = random.Random(seed)
    compiled = compile_space(op)
    hier = compiled.hierarchical()
    try:
        rows = compiled.flat()
    except BlowupExceeded:
        return
    rows_by_names = {}
    for row in rows:
        rows_by_names.setdefault(frozenset(row), []).append(row)
    for _ in range(PROBED_POINTS):
        point = sample_space(hier, rng)
        keys = _leaf_keys(compiled.ir, point, {})
        for key, (leaf, name) in keys.items():
            schema = REGISTRY[leaf.op.name].schema
            config = {**schema.declared_defaults, **leaf.op.bound,
                      **{n: point[k] for k, (other, n) in keys.items() if other is leaf}}
            for value in _boundary_values(schema, name):
                probe = {**point, key: value}
                valid = sm.validate({**config, name: value}, schema).ok
                assert _flat_member(rows_by_names, probe) == valid, (key, value)
                assert hier_member(hier, probe) == valid, (key, value)


class TestOneSpaceInEveryEncoding:
    @settings(max_examples=100, deadline=None)
    @given(op=topologies(), seed=st.integers(0, 2**16))
    def test_random_topologies(self, op, seed):
        _check(op, seed)

    @settings(max_examples=40, deadline=None)
    @given(op=grammar_topologies, seed=st.integers(0, 2**16))
    def test_grammar_topologies(self, op, seed):
        _check(op, seed)

    @settings(max_examples=100, deadline=None)
    @given(op=grammar_topologies, seed=st.integers(0, 2**16))
    def test_grammar_topologies_at_probe_resolution(self, op, seed):
        _check_probes(op, seed)

    @settings(max_examples=40, deadline=None)
    @given(case=partial_record_cases().filter(lambda case: has_overlapping_alternatives(case[0])),
           seed=st.integers(0, 2**16))
    def test_overlapping_alternatives_beside_constraints(self, case, seed):
        # Schemas whose constraint records leave overlapping declared
        # alternatives to the base records.
        op = og.Individual("Overlapping", case[0])
        try:
            text = _check_encodings(op, seed).pcs()
        except (CompileError, BlowupExceeded):  # a refused schema or encoding
            return
        assert _pcs_text(read_pcs(text)) == text
