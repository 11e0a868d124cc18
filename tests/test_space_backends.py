import copy
import dataclasses
import functools
import gc
import itertools
import json
import math
import pickle
import random
import sys
import tracemalloc
import weakref
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from lalec import grammar_engine, toyml
from lalec import operator_graph as og
from lalec import schema_model as sm
from lalec import space_backends as sb
from lalec.operator_graph import choose, configure, freeze_trainable, pipe
from lalec.pipeline_dsl import parse_expr, parse_grammar
from lalec.schema_model import EnumNode, RangeNode, leaf_admits
from lalec.space_backends import (
    ChoiceIR,
    CompileError,
    LeafIR,
    SearchIR,
    StepMapIR,
    compile_space,
    emit_flat,
    emit_grid,
    emit_hierarchical,
    emit_pcs,
    read_pcs,
    sample_space,
)
from lalec.space_normalizer import DEFAULT_BLOWUP_LIMIT, BlowupExceeded, NormalForm

import test_space_normalizer
from conftest import hier_member, probe_lattice
from oracles import (
    default_point,
    exact_form,
    reference_configure,
    reference_draw_cont,
    reference_draw_cont_doc,
    reference_emit_grid,
    reference_entries,
    reference_flat_doc,
    reference_flat_rows,
    reference_grid_params,
    reference_pcs_plan,
    reference_pcs_sample,
    reference_point_keys,
    serialize,
)


@pytest.fixture(scope="module")
def running_example(registry):
    return compile_space(parse_expr("PCA >> (J48 | LR)", registry))


def running_probe_points(registry):
    """Every categorical combination x continuous lattice for the running
    example, expressed as flat mangled points."""
    n_values = probe_lattice(0.0, 1.0) + ["mle"]
    points = []
    for n in n_values:
        for r in (True, False):
            for c in probe_lattice(0.0, 0.5):
                points.append({"pca__N": n, "step1__D": "J48", "step1__R": r, "step1__C": c})
        for solver in ("linear", "sag", "lbfgs"):
            for penalty in ("l1", "l2"):
                points.append({"pca__N": n, "step1__D": "LR",
                               "step1__solver": solver, "step1__penalty": penalty})
    return points


def point_is_valid(registry, point):
    pca_ok = sm.validate({"N": point["pca__N"]}, registry["PCA"].schema).ok
    if point["step1__D"] == "J48":
        step_ok = sm.validate({"R": point["step1__R"], "C": point["step1__C"]},
                              registry["J48"].schema).ok
    else:
        step_ok = sm.validate({"solver": point["step1__solver"],
                               "penalty": point["step1__penalty"]},
                              registry["LR"].schema).ok
    return pca_ok and step_ok


def flat_member(rows, point):
    for row in rows:
        if set(row) != set(point):
            continue
        if all(leaf_admits(row[k], v) for k, v in point.items()):
            return True
    return False


class TestCombine:
    def test_running_example_ir_shape(self, running_example):
        ir = running_example.ir
        assert isinstance(ir, StepMapIR)
        tokens = [t for t, _ in ir.steps]
        assert tokens == ["pca", "step1"]
        pca = dict(ir.steps)["pca"]
        assert isinstance(pca, LeafIR)
        assert len(pca.nf.disjuncts) == 2
        choice = dict(ir.steps)["step1"]
        assert isinstance(choice, ChoiceIR)
        assert choice.discriminant == "step1__D"
        assert [v for v, _ in choice.branches] == ["J48", "LR"]
        assert [len(b.nf.disjuncts) for _, b in choice.branches] == [2, 2]

    def test_single_operator_wraps_into_step_map(self, registry):
        ir = sb.combine(registry["KNN"])
        assert isinstance(ir, StepMapIR)
        assert ir.wrapper
        (token, leaf), = ir.steps
        assert token == "knn"
        assert len(leaf.nf.disjuncts) == 1

    def test_bound_values_removed(self, registry):
        op = configure(registry["KNN"], {"k": 3})
        ir = sb.combine(op)
        (_, leaf), = ir.steps
        assert set(leaf.nf.disjuncts[0]) == {"weighting"}

    def test_bound_value_prunes_disjuncts(self, registry):
        op = configure(registry["J48"], {"R": True})
        ir = sb.combine(op)
        (_, leaf), = ir.steps
        # Only the implication disjunct admits R=true; C stays pinned there.
        assert len(leaf.nf.disjuncts) == 1
        assert leaf.nf.disjuncts[0]["C"].values == (0.25,)

    def test_frozen_contributes_no_dimensions(self, registry):
        frozen = freeze_trainable(configure(registry["KNN"], {}))
        ir = sb.combine(frozen)
        (_, leaf), = ir.steps
        assert leaf.nf.disjuncts == ({},)

    def test_higher_order_slot_recurses(self, registry):
        op = configure(registry["BoostedEnsemble"], {"base": registry["PrunedTree"]})
        ir = sb.combine(op)
        (_, leaf), = ir.steps
        disjunct = leaf.nf.disjuncts[0]
        nested_leaf = disjunct["base"]
        assert isinstance(nested_leaf, LeafIR)
        assert nested_leaf.prefix == "boostedensemble__base"
        assert nested_leaf.op.name == "PrunedTree"
        assert "maxDepth" in nested_leaf.nf.disjuncts[0] or \
            "maxDepth" in nested_leaf.nf.disjuncts[1]

    def test_unbound_slot_keeps_null_branch(self, registry):
        ir = sb.combine(registry["BoostedEnsemble"])
        (_, leaf), = ir.steps
        assert len(leaf.nf.disjuncts) == 1
        assert leaf.nf.disjuncts[0]["base"].values == (None,)

    def test_duplicate_step_tokens_suffixed(self, registry):
        p = pipe(registry["NoOp"], pipe(registry["NoOp"], registry["KNN"]))
        ir = sb.combine(p)
        assert [t for t, _ in ir.steps] == ["noop_1", "noop_2", "knn"]
        ir = sb.combine(og.Pipeline((registry["KNN"], registry["LR"], registry["KNN"]), ()))
        assert [t for t, _ in ir.steps] == ["knn_1", "lr", "knn_2"]

    def test_duplicate_branch_values_suffixed(self, registry):
        c = choose([registry["KNN"], registry["KNN"], registry["LR"]])
        ir = sb.combine(c)
        (_, node), = ir.steps
        assert [v for v, _ in node.branches] == ["KNN", "KNN_2", "LR"]
        ir = sb.combine(og.Choice((registry["KNN"], registry["LR"], registry["KNN"])))
        (_, node), = ir.steps
        assert [v for v, _ in node.branches] == ["KNN", "LR", "KNN_2"]

    def test_numbering_steps_past_a_name_taken(self):
        assert sb._numbered(["a"] * 3 + ["b"] * 2, 1) == ["a_1", "a_2", "a_3", "b_1", "b_2"]
        assert sb._numbered(["a"] * 3 + ["b"] * 2, 2) == ["a", "a_2", "a_3", "b", "b_2"]
        assert sb._numbered(["a", "a", "a_1"], 1) == ["a_2", "a_3", "a_1"]
        assert sb._numbered(["a", "a", "a_2"], 2) == ["a", "a_3", "a_2"]
        assert sb._numbered(["a", "a", "a_2", "a_2"], 2) == ["a", "a_3", "a_2", "a_2_2"]
        assert sb._numbered(["a_1", "a_1", "a", "a"], 1) == ["a_1_1", "a_1_2", "a_1", "a_2"]

    @given(st.lists(st.sampled_from(["a", "a_1", "a_2", "a_1_1", "b", "b_2"]), max_size=12),
           st.sampled_from([1, 2]))
    def test_numbered_names_are_distinct(self, names, first):
        out = sb._numbered(names, first)
        assert len(set(out)) == len(out) == len(names)
        # Where plain numbering (the k-th occurrence of a repeated name is
        # <name>_<k> from the first-th on, with no check against other
        # names) collides with nothing, it is what comes out.
        plain = [name if names.count(name) == 1 or names[:index].count(name) + 1 < first
                 else f"{name}_{names[:index].count(name) + 1}"
                 for index, name in enumerate(names)]
        if len(set(plain)) == len(plain):
            assert out == plain

    def test_a_branch_named_like_a_numbered_one_keeps_its_own_value(self, registry):
        lr = dataclasses.replace(registry["LR"], name="KNN_2")
        alternatives = (registry["KNN"], registry["KNN"], lr)
        compiled = compile_space(og.Choice(alternatives))
        (_, node), = compiled.ir.steps
        values = [v for v, _ in node.branches]
        assert values == ["KNN", "KNN_3", "KNN_2"]
        assert list(compiled.hierarchical()["steps"]["step0"]["branches"]) == values
        assert read_pcs(compiled.pcs()).parameters["step0__D"].values == tuple(values)
        decoded = {}
        for row in compiled.flat():
            point = {key: domain.values[0] if isinstance(domain, EnumNode) else domain.default
                     for key, domain in row.items()}
            decoded.setdefault(point["step0__D"], []).append(compiled.decode(point))
        assert sorted(decoded) == sorted(values)
        for value, alt in zip(values, alternatives):
            assert all(op.name == alt.name and op.schema is alt.schema for op in decoded[value])
        assert set(decoded["KNN_2"][0].bound) == {"solver", "penalty"}

    @pytest.mark.parametrize("name", ["NoOp", "KNN"])
    def test_a_step_named_like_a_numbered_one_keeps_its_own_token(self, registry, name):
        steps = (registry[name], registry[name],
                 dataclasses.replace(registry[name], name=f"{name.lower()}_1"))
        compiled = compile_space(og.Pipeline(steps, ()))
        tokens = [t for t, _ in compiled.ir.steps]
        assert tokens == [f"{name.lower()}_2", f"{name.lower()}_3", f"{name.lower()}_1"]
        assert list(compiled.hierarchical()["steps"]) == tokens
        read_pcs(compiled.pcs())
        for row in compiled.flat():
            point = {key: domain.values[0] if isinstance(domain, EnumNode) else domain.default
                     for key, domain in row.items()}
            if name == "KNN":  # each step reads its own keys
                point.update({f"{token}__k": k for k, token in enumerate(tokens, 1)})
            decoded = compiled.decode(point)
            assert [op.name for op in decoded.steps] == [op.name for op in steps]
            if name == "KNN":
                assert [op.bound["k"] for op in decoded.steps] == [1, 2, 3]


# An operator whose hyperparameter D mangles, under a choice, to the
# choice's discriminant <path>__D.
DEE = og.Individual("Dee", sm.parse_schema(
    {"type": "object", "properties": {"D": {"enum": ["x", "y"]}}}), impl="noop")


class TestPointKeys:
    """Every key a point can hold has one owner: a choice's discriminant or
    one operator's hyperparameter (the branches of one choice excepted)."""

    def test_a_hyperparameter_named_like_the_discriminant_is_refused(self, registry):
        for op, key in ((choose([DEE, registry["KNN"]]), "step0__D"),
                        (pipe(registry["NoOp"], choose([registry["KNN"], DEE])), "step1__D")):
            for keep in (True, False):
                with pytest.raises(CompileError, match=f"^Dee: hyperparameter 'D' mangles to "
                                                       f"'{key}', as does the discriminant"):
                    compile_space(op, keep_constraints=keep)

    def test_the_same_operator_outside_a_choice_compiles(self, registry):
        for op, key in ((DEE, "dee__D"), (pipe(DEE, registry["KNN"]), "dee__D"),
                        (choose([pipe(DEE, registry["KNN"]), registry["LR"]]), "step0__dee__D")):
            compiled = compile_space(op)
            assert key in compiled.flat()[0]
            for value in ("x", "y"):
                decoded = compiled.decode({**default_point(compiled.ir), key: value})
                dee = decoded if isinstance(decoded, og.Individual) else decoded.steps[0]
                assert dee.name == "Dee" and dee.bound == {"D": value}

    def test_a_slot_value_sharing_a_key_is_refused(self):
        # A hyperparameter spelled with the separator meets the slot's keys.
        inner = og.Individual("In", sm.parse_schema(
            {"type": "object", "properties": {"x": {"enum": [1, 2]}}}), impl="noop")
        outer = og.Individual("Out", sm.parse_schema({"type": "object", "properties": {
            "s": {"typeForOptimizer": "operator"}, "s__x": {"enum": [3, 4]}}}), impl="noop")
        with pytest.raises(CompileError, match="^(In|Out): hyperparameter .* mangles to "
                                               "'out__s__x'"):
            compile_space(configure(outer, {"s": inner}))

    def test_branches_of_one_choice_share_keys(self, registry):
        # J48 and PrunedTree both have R and C under one discriminant.
        compiled = compile_space(choose([registry["J48"], registry["PrunedTree"]]))
        assert {"step0__R", "step0__C"} <= set(compiled.flat()[0])

    def test_nested_choices_decode(self, registry):
        # A choice held as an alternative of another (not flattened by
        # choose) gets its own discriminant under its branch's path.
        nested = compile_space(
            og.Choice((registry["KNN"], og.Choice((registry["LR"], registry["J48"])))))
        (_, outer), = nested.ir.steps
        inner = dict(outer.branches)["Choice"]
        assert (outer.discriminant, inner.discriminant) == ("step0__D", "step0__Choice__D")
        rng = random.Random(1)
        names = set()
        for _ in range(30):
            names.add(nested.decode(sample_space(nested.hierarchical(), rng)).name)
        for row in nested.flat():
            point = {key: (domain.values[0] if isinstance(domain, EnumNode) else domain.default)
                     for key, domain in row.items()}
            names.add(nested.decode(point).name)
        assert names == {"KNN", "LR", "J48"}
        # Three levels deep: each choice's discriminant extends its branch's
        # collision-free path, so all three stay apart.
        nested = compile_space(og.Choice((og.Choice((og.Choice(
            (registry["KNN"], registry["LR"])), registry["J48"])), registry["PCA"])))
        (_, outer), = nested.ir.steps
        middle = dict(outer.branches)["Choice"]
        inner = dict(middle.branches)["Choice"]
        assert (outer.discriminant, middle.discriminant, inner.discriminant) == (
            "step0__D", "step0__Choice__D", "step0__Choice__Choice__D")
        leaves = {"KNN", "LR", "J48", "PCA"}
        rng = random.Random(1)
        doc = nested.hierarchical()
        assert {nested.decode(sample_space(doc, rng)).name for _ in range(60)} == leaves
        flat_names = set()
        for row in nested.flat():
            point = {key: (domain.values[0] if isinstance(domain, EnumNode) else domain.default)
                     for key, domain in row.items()}
            flat_names.add(nested.decode(point).name)
        assert flat_names == leaves
        space = read_pcs(nested.pcs())
        assert {nested.decode_pcs(space.sample(rng)).name for _ in range(60)} == leaves
        assert {nested.decode(cell).name for cell in sb.grid_cells(nested.grid())} == leaves


class TestFlat:
    def test_exactly_eight_disjuncts(self, running_example):
        rows = running_example.flat()
        assert len(rows) == 8

    def test_rows_match_reference_table(self, running_example):
        def canon(row):
            out = {}
            for name, domain in row.items():
                if isinstance(domain, EnumNode):
                    out[name] = tuple(domain.values)
                else:
                    out[name] = (domain.lo, domain.hi)
            return tuple(sorted(out.items()))

        got = {canon(r) for r in running_example.flat()}
        n_cont, n_mle = (0.0, 1.0), ("mle",)
        expected = set()
        for n in (n_cont, n_mle):
            expected.add(tuple(sorted({
                "pca__N": n, "step1__D": ("J48",),
                "step1__R": (False,), "step1__C": (0.0, 0.5)}.items())))
            expected.add(tuple(sorted({
                "pca__N": n, "step1__D": ("J48",),
                "step1__R": (True, False), "step1__C": (0.25,)}.items())))
            expected.add(tuple(sorted({
                "pca__N": n, "step1__D": ("LR",),
                "step1__solver": ("linear",), "step1__penalty": ("l1", "l2")}.items())))
            expected.add(tuple(sorted({
                "pca__N": n, "step1__D": ("LR",),
                "step1__solver": ("linear", "sag", "lbfgs"),
                "step1__penalty": ("l2",)}.items())))
        assert got == expected

    def test_single_operator_single_disjunct(self, registry):
        rows = emit_flat(sb.combine(registry["KNN"]))
        assert len(rows) == 1

    def test_two_choices_multiply(self, registry):
        op = parse_expr("NoOp >> (Scaler | MinMaxScaler) >> (Concat | NoOp)", registry)
        rows = emit_flat(sb.combine(op))
        assert len(rows) == 4

    def test_count_law_on_random_pipelines(self, registry):
        names = ["NoOp", "Scaler", "KNN", "LR", "J48", "PCA", "MinMaxScaler"]
        rng = random.Random(5)
        for _ in range(25):
            steps = []
            for _ in range(rng.randint(1, 4)):
                if rng.random() < 0.4:
                    alts = rng.sample(names, rng.randint(2, 3))
                    steps.append(choose([registry[a] for a in alts]))
                else:
                    steps.append(registry[rng.choice(names)])
            op = steps[0]
            for step in steps[1:]:
                op = pipe(op, step)
            ir = sb.combine(op)
            rows = emit_flat(ir)
            expected = 1
            for _, node in (ir.steps if isinstance(ir, StepMapIR) else ()):
                if isinstance(node, ChoiceIR):
                    expected *= sum(len(emit_flat(b)) for _, b in node.branches)
                else:
                    expected *= len(node.nf.disjuncts)
            assert len(rows) == expected

    def test_discriminant_only_on_active_path(self, registry):
        op = parse_expr("(KNN | LR) >> NoOp", registry)
        rows = emit_flat(sb.combine(op))
        for row in rows:
            assert sum(1 for k in row if k.endswith("__D")) == 1

    def test_flat_blowup_cap(self, registry):
        op = registry["J48"]
        for _ in range(6):
            op = pipe(op, registry["J48"])  # 2^7 disjuncts
        from lalec.space_normalizer import BlowupExceeded

        with pytest.raises(BlowupExceeded) as refused:
            emit_flat(sb.combine(op), limit=100)
        # Every step counts 2, and the first of them is named, by operator too.
        assert str(refused.value) == ("flat size 128 exceeds the cap of 100; "
                                      "largest step: j48_1 (J48), flat size 2")

    def test_a_refusal_states_the_flat_size(self):
        compiled = compile_space(grammar_engine.unfold(_grammar("feature_union"), 3, REGISTRY))
        # The largest top-level step is the choice of preprocessing.
        largest = "largest step: step0, flat size 6055"
        message = (f"flat size {compiled.ir.flat_count} exceeds the cap of "
                   f"{DEFAULT_BLOWUP_LIMIT}; {largest}")
        assert compiled.ir.flat_count == len(reference_emit_flat(compiled.ir, 10**6)) == 30275
        assert [step.flat_count for _, step in compiled.ir.steps] == [6055, 5]
        for emit in (compiled.flat, compiled.pcs, compiled.grid):
            with pytest.raises(BlowupExceeded) as refused:
                emit()
            assert str(refused.value) == message
        with pytest.raises(BlowupExceeded) as refused:
            sb.flat_size(compiled.ir, 30274)
        assert str(refused.value) == f"flat size 30275 exceeds the cap of 30274; {largest}"
        assert sb.flat_size(compiled.ir, 30275) == 30275

    def test_refused_pcs_builds_no_model(self, registry):
        op = registry["J48"]
        for _ in range(16):
            op = pipe(op, registry["J48"])  # 2^17 disjuncts
        compiled = compile_space(op)
        with pytest.raises(BlowupExceeded):
            compiled.pcs()
        assert "pcs_model" not in vars(compiled.ir)


class TestHierarchical:
    def test_choice_under_step1(self, running_example):
        doc = running_example.hierarchical()
        assert doc["kind"] == "steps"
        assert list(doc["steps"]) == ["pca", "step1"]
        choice = doc["steps"]["step1"]
        assert choice["kind"] == "choice"
        assert choice["discriminant"] == "step1__D"
        assert list(choice["branches"]) == ["J48", "LR"]

    def test_domains_carry_search_metadata(self, running_example):
        doc = running_example.hierarchical()
        pca = doc["steps"]["pca"]["disjuncts"][0]["pca__N"]
        assert pca == {"kind": "continuous", "lo": 0.0, "hi": 1.0, "loOpen": True,
                       "hiOpen": True, "integer": False, "distribution": "uniform",
                       "default": 0.5}

    def test_frozen_pipeline_document_has_zero_dimensions(self, registry, blobs):
        p = pipe(freeze_trainable(configure(registry["Scaler"], {})),
                 freeze_trainable(configure(registry["KNN"], {})))
        compiled = compile_space(p)
        doc = compiled.hierarchical()
        assert all(step["disjuncts"] == [{}] for step in doc["steps"].values())
        point = sample_space(doc, random.Random(0))
        assert point == {}
        decoded = compiled.decode(point)
        assert og.state_of(decoded) == og.LifecycleState.TRAINABLE

    def test_thousand_samples_decode_and_validate(self, running_example, registry):
        doc = running_example.hierarchical()
        rng = random.Random(123)
        for _ in range(1000):
            point = sample_space(doc, rng)
            decoded = running_example.decode(point)
            for step in decoded.steps:
                report = sm.validate(step.bound, step.schema)
                assert report.ok, (point, report.message())

    def test_slot_domain_carries_marker_and_space(self, registry):
        op = configure(registry["BoostedEnsemble"], {"base": registry["PrunedTree"]})
        doc = emit_hierarchical(sb.combine(op))
        slot = doc["steps"]["boostedensemble"]["disjuncts"][0]["boostedensemble__base"]
        assert slot["kind"] == "operator"
        assert slot["marker"] == "boostedensemble__base"
        assert slot["space"]["kind"] == "disjuncts"

    def test_emission_deterministic(self, running_example):
        first = json.dumps(running_example.hierarchical(), indent=2)
        second = json.dumps(running_example.hierarchical(), indent=2)
        assert first == second


class TestEquivalenceAtProbeResolution:
    def test_soundness_and_completeness(self, running_example, registry):
        rows = running_example.flat()
        doc = running_example.hierarchical()
        points = running_probe_points(registry)
        assert len(points) > 500
        for point in points:
            valid = point_is_valid(registry, point)
            assert flat_member(rows, point) == valid, point
            assert hier_member(doc, point) == valid, point

    def test_flattening_preserves_choice_space(self, registry):
        flat_choice = compile_space(
            choose([registry["KNN"], registry["LR"], registry["J48"]]))
        nested_choice = compile_space(
            og.Choice((registry["KNN"], og.Choice((registry["LR"], registry["J48"])))))

        def domains_without_discriminants(compiled):
            out = []
            for row in compiled.flat():
                out.append(tuple(sorted(
                    (k.split("__")[-1], repr(v)) for k, v in row.items()
                    if not k.endswith("__D"))))
            return sorted(out)

        assert domains_without_discriminants(flat_choice) == \
            domains_without_discriminants(nested_choice)


# Bounds of every kind the one bounds rule sorts: NaN, infinities, ints past
# the largest float, equal and reversed pairs, fractions between integers,
# and zero and negative lower bounds for log ranges.
PCS_BOUNDS = st.one_of(
    st.sampled_from([math.nan, math.inf, -math.inf, 10**400, -10**400, 2**60 + 1,
                     sys.float_info.max, 1e-300, 0, 0.0, -0.0]),
    st.integers(-3, 3),
    st.integers(-12, 12).map(lambda n: n / 4))


class TestPcs:
    def test_reparses_and_contains_conditionals(self, running_example):
        text = running_example.pcs()
        assert "step1__C | step1__D == J48" in text
        space = read_pcs(text)
        assert "step1__D" in space.parameters
        assert space.parameters["step1__D"].values == ("J48", "LR")
        assert space.parameters["step1__D"].default == "J48"

    @pytest.mark.parametrize("line,problem", [
        ("x [5.0, 3.0] [4.0]", "empty range"),
        ("x [5, 3] [4]i", "empty range"),
        ("x [1.5, 1.7] [1]i", "contains no integers"),
        ("x [nan, 1] [0.5]", "NaN bound"),
        ("x [0, nan] [0.5]", "NaN bound"),
        ("x [0, inf] [1]", "infinite bound"),
        ("x [-inf, 1] [0]", "infinite bound"),
        ("x [1, 1e400] [1]i", "infinite bound"),
        ("x [0.0, 1.0] [0.5]l", "positive lower bound"),
        ("x [-2, 3] [1]il", "positive lower bound"),
    ], ids=["reversed", "reversed_integer", "no_integer", "nan_lower", "nan_upper",
            "inf_upper", "inf_lower", "overflow_integer", "log_zero",
            "log_negative_integer"])
    def test_unsampleable_range_is_refused_with_its_line(self, line, problem):
        with pytest.raises(ValueError, match=f"^line 2: .*{problem}"):
            read_pcs(f"y {{a, b}} [a]\n{line}\n")

    @settings(max_examples=400, deadline=None)
    @given(lo=PCS_BOUNDS, hi=PCS_BOUNDS, integer=st.booleans(), log=st.booleans())
    @example(lo=0, hi=10**400, integer=True, log=False)
    @example(lo=-10**400, hi=1.5, integer=False, log=True)
    @example(lo=0.25, hi=0.75, integer=True, log=False)
    def test_bounds_are_refused_as_parse_schema_refuses_them(self, lo, hi, integer, log):
        """One rule for both readers: a numeric line is refused exactly when
        parse_schema refuses the same range, kind and distribution, and for
        the same reason."""
        try:
            sm.parse_schema({"type": "integer" if integer else "number", "minimum": lo,
                             "maximum": hi, "distribution": "loguniform" if log else "uniform"})
            reason = None
        except sm.InvalidSchema as exc:
            reason = str(exc).removesuffix(" at $")
        # repr spells a float so that it reads back exactly, and an int as digits.
        default = sm.integer_bounds(lo, hi, False, False)[0] if integer and not reason else lo
        line = f"x [{lo!r}, {hi!r}] [{default!r}]{'i' if integer else ''}{'l' if log else ''}"
        if reason is None:
            assert read_pcs(line + "\n").parameters["x"].lo == lo
        else:
            with pytest.raises(ValueError) as refused:
                read_pcs(line + "\n")
            assert str(refused.value) == f"line 1: {reason}"

    @pytest.mark.parametrize("line,problem", [
        ("x 5", "expected {values} or \\[lo, hi\\]"),
        ("x {a, b}", "missing default"),
        ("x [0, 1]", "missing default"),
    ], ids=["no_domain", "categorical_no_default", "range_no_default"])
    def test_parameter_line_without_domain_or_default_is_refused(self, line, problem):
        with pytest.raises(ValueError, match=f"^line 2: {problem}$"):
            read_pcs(f"y {{a, b}} [a]\n{line}\n")

    @pytest.mark.parametrize("line,problem", [
        ("x [0, 1, 2] [1]", "expected two numbers in \\[0, 1, 2\\]"),
        ("x [a, 1] [0]", "expected two numbers in \\[a, 1\\]"),
        ("x {a, b", "unclosed {"),
        ("x [0, 1] [0.5", "missing default"),
    ], ids=["three_bounds", "bound_not_a_number", "unclosed_values", "unclosed_default"])
    def test_malformed_parameter_line_is_refused_with_its_line(self, line, problem):
        with pytest.raises(ValueError, match=f"^line 2: {problem}$"):
            read_pcs(f"y {{a, b}} [a]\n{line}\n")

    @pytest.mark.parametrize("line,problem", [
        ("y {c, d} [c]", "a second line for parameter 'y'"),
        ("y [0, 1] [0.5]", "a second line for parameter 'y'"),
        (" {a, b} [a]", "missing parameter name"),
        ("x {a, a} [a]", "repeated value in \\{a, a\\}"),
        ("x {a, b} [c]", "default 'c' outside \\{a, b\\}"),
        ("x [0, 1] [5]", "default '5' outside \\[0, 1\\]"),
        ("x [0, 10] [zz]i", "default 'zz' outside \\[0, 10\\]"),
        ("x [0, 10] [2.5]i", "default '2.5' outside \\[0, 10\\]"),
        ("x [0, 1] [nan]", "default 'nan' outside \\[0, 1\\]"),
    ], ids=["second_categorical_line", "second_range_line", "empty_name", "repeated_value",
            "categorical_default", "range_default", "integer_default_not_a_number",
            "integer_default_not_integral", "nan_default"])
    def test_ambiguous_or_out_of_domain_line_is_refused(self, line, problem):
        with pytest.raises(ValueError, match=f"^line 2: {problem}$"):
            read_pcs(f"y {{a, b}} [a]\n{line}\n")

    @pytest.mark.parametrize("prop,line,value", [
        ({"enum": [1.0, 2.0], "default": 1}, "t__a {1.0, 2.0} [1.0]", 1.0),
        ({"type": "number", "minimum": 0.1, "maximum": 0.1, "distribution": "loguniform"},
         "t__a [0.1, 0.1] [0.1]l", 0.1),
    ], ids=["enum_default_spelled_as_its_value", "log_midpoint_clamped"])
    def test_default_is_written_inside_its_domain(self, prop, line, value):
        op = og.Individual("T", sm.parse_schema({"type": "object", "properties": {"a": prop}}))
        compiled = compile_space(op)
        assert line in compiled.pcs().splitlines()
        default = read_pcs(compiled.pcs()).parameters["t__a"].default
        assert compiled.decode_pcs({"t__a": default}).bound == {"a": value}

    @pytest.mark.parametrize("text,problem", [
        ("a {x, y} [x]\nc | a == x\n", "line 2: condition references unknown parameter 'c'"),
        ("b [0, 1] [0.5]\nb | c == x\n", "line 2: condition of 'b' names 'c', which has no "
                                         "parameter line before it"),
        ("b [0, 1] [0.5]\na {x, y} [x]\nb | a == x\n",
         "line 3: condition of 'b' names 'a', which has no parameter line before it"),
        ("b {x, y} [x]\nb | b == x\n",
         "line 2: condition of 'b' names 'b', which has no parameter line before it"),
        ("a {x, y} [x]\nb {u, v} [u]\nb | a == z\n",
         "line 3: condition of 'b' can never hold: 'a' is never drawn as 'z'"),
        ("r [0, 1] [0.5]\nb {u, v} [u]\nb | r == 0.5\n",
         "line 3: condition of 'b' names real parameter 'r', whose draws all but never "
         "equal a value"),
        ("n [0.5, 3.5] [1]i\nb {u, v} [u]\n\nb | n == 2\nb | n == 0\n",
         "line 5: condition of 'b' can never hold: 'n' is never drawn as '0'"),
        ("n [0, 3] [1]i\nb {u, v} [u]\nb | n == 2.0\n",
         "line 3: condition of 'b' can never hold: 'n' is never drawn as '2.0'"),
    ], ids=["unknown_child", "unknown_parent", "parent_after_child", "own_parent",
            "not_a_parent_value", "real_parent", "integer_outside_range", "integer_spelling"])
    def test_condition_that_can_never_hold_is_refused(self, text, problem):
        with pytest.raises(ValueError, match=f"^{problem}$"):
            read_pcs(text)

    def test_condition_on_an_integer_parent_can_hold(self):
        space = read_pcs("n [0, 3] [1]i\nb {u, v} [u]\nb | n == 2\n")
        rng = random.Random(0)
        draws = [space.sample(rng) for _ in range(200)]
        assert all(("b" in point) == (point["n"] == 2) for point in draws)
        assert any("b" in point for point in draws)

    def test_one_point_ranges_parse(self):
        space = read_pcs("x [2.5, 2.5] [2.5]\nn [1.5, 2.5] [2]i\n")
        assert space.sample(random.Random(0)) == {"x": 2.5, "n": 2}
        assert read_pcs(sb._pcs_text(space)) == space  # fractional bounds written as read

    def test_single_categorical_no_conditionals(self, registry):
        text = emit_pcs(sb.combine(registry["StandardScaler"]))
        space = read_pcs(text)
        assert len(space.parameters) == 2
        assert not space.conditions

    def test_spans_exactly_the_flat_disjuncts(self, running_example):
        # Each activity assignment (selectors + discriminant) must activate a
        # parameter set matching exactly one flat row, and cover all eight.
        text = running_example.pcs()
        space = read_pcs(text)
        selectors = [n for n, p in space.parameters.items()
                     if n.endswith("__disjunct") or n.endswith("__D")]
        rows = running_example.flat()
        matched = set()
        combos = itertools.product(*(space.parameters[s].values for s in selectors))
        for combo in combos:
            assignment = dict(zip(selectors, combo))
            active = {}
            for name, param in space.parameters.items():
                conditions = space.conditions.get(name, [])
                relevant = all(
                    assignment.get(parent) == value
                    for parent, value in conditions
                    if parent in assignment
                )
                if relevant and all(parent in assignment for parent, _ in conditions):
                    active[name] = param
                elif not conditions and name not in assignment:
                    active[name] = param
            # skip inconsistent combos (selector for the inactive branch)
            hits = [
                i for i, row in enumerate(rows)
                if _activity_matches_row(active, assignment, row)
            ]
            if hits:
                assert len(hits) == 1
                matched.add(hits[0])
        assert matched == set(range(len(rows)))

    def test_loguniform_flag(self, registry):
        text = emit_pcs(sb.combine(registry["LogRegGD"]))
        assert any(line.endswith("]l") and "learningRate" in line
                   for line in text.splitlines())

    def test_integer_flag(self, registry):
        text = emit_pcs(sb.combine(registry["KNN"]))
        assert any(line.rstrip().endswith("]i") and line.startswith("knn__k")
                   for line in text.splitlines())

    def test_thousand_parsed_samples_decode_and_validate(self, running_example):
        space = read_pcs(running_example.pcs())
        rng = random.Random(99)
        for _ in range(1000):
            point = space.sample(rng)
            decoded = running_example.decode_pcs(point)
            for step in decoded.steps:
                assert sm.validate(step.bound, step.schema).ok, point

    def test_conditional_activation_matches_discriminant(self, running_example):
        space = read_pcs(running_example.pcs())
        rng = random.Random(5)
        for _ in range(300):
            point = space.sample(rng)
            has_j48 = any(k in point for k in ("step1__C", "step1__C__1"))
            assert has_j48 == (point["step1__D"] == "J48")
            has_lr = any(k in point for k in ("step1__solver", "step1__solver__1"))
            assert has_lr == (point["step1__D"] == "LR")

    def test_branch_name_collision_qualified(self, registry):
        c = choose([registry["KNN"], registry["KNN"]])
        text = emit_pcs(sb.combine(c))
        space = read_pcs(text)
        ks = [n for n in space.parameters if n.endswith("__k")]
        assert len(ks) == 2
        assert len(set(ks)) == 2  # unique parameter names per branch

    def test_byte_identical_output(self, running_example):
        assert running_example.pcs() == running_example.pcs()

    def test_nested_slot_round_trip(self, registry):
        op = parse_expr(
            "(MinMaxScaler | StandardScaler) >> BoostedEnsemble(base=PrunedTree)",
            registry)
        compiled = compile_space(op)
        text = compiled.pcs()
        # maxDepth has the same domain in both tree disjuncts: shared line
        assert "boostedensemble__base__maxDepth [1, 8] [3]i" in text
        assert "boostedensemble__base__C__1 | boostedensemble__base__disjunct == 1" in text
        space = read_pcs(text)
        rng = random.Random(55)
        for _ in range(300):
            decoded = compiled.decode_pcs(space.sample(rng))
            nested = decoded.steps[1].bound["base"]
            assert sm.validate(nested.bound, nested.schema).ok


def _activity_matches_row(active, assignment, row):
    expected = {}
    for name, domain in row.items():
        if name.endswith("__D"):
            if assignment.get(name) != domain.values[0]:
                return False
            continue
        expected[name] = domain
    for name, domain in expected.items():
        matches = [p for n, p in active.items()
                   if n == name or n.startswith(name + "__")]
        if not any(_param_matches_domain(p, domain) for p in matches):
            return False
    return True


def _param_matches_domain(param, domain):
    if isinstance(domain, EnumNode):
        if not isinstance(param, EnumNode):
            return False
        from lalec.space_backends import _pcs_value

        return param.values == tuple(_pcs_value(v) for v in domain.values)
    if isinstance(param, EnumNode):
        return False
    return abs(param.lo - domain.lo) <= 1e-6 * max(1.0, abs(domain.lo) + 1) and \
        abs(param.hi - domain.hi) <= 1e-6 * max(1.0, abs(domain.hi) + 1)


class TestGrid:
    def test_structure_matches_reference_arity(self, running_example):
        grid = running_example.grid(1, 0)
        assert len(grid["disjuncts"]) == 8
        for disjunct in grid["disjuncts"]:
            for name, values in disjunct["params"].items():
                if name == "pca__N" and not isinstance(values[0], str):
                    assert len(values) == 2 and values[0] == 0.5
                if name == "step1__C" and len(values) > 1:
                    assert values[0] == 0.25

    def test_cell_count_law(self, running_example):
        grid = running_example.grid(1, 0)
        total = 0
        for disjunct in grid["disjuncts"]:
            cells = 1
            for values in disjunct["params"].values():
                cells *= len(values)
            total += cells
        assert grid["cellCount"] == total == 27

    def test_all_categorical_space_unchanged(self, registry):
        grid = emit_grid(sb.combine(registry["LR"]), 3, 42)
        by_solver = {tuple(d["params"]["lr__solver"]): d["params"] for d in grid["disjuncts"]}
        assert by_solver[("linear",)]["lr__penalty"] == ["l1", "l2"]

    def test_deterministic_per_seed(self, running_example):
        a = json.dumps(running_example.grid(2, 7))
        b = json.dumps(running_example.grid(2, 7))
        c = json.dumps(running_example.grid(2, 8))
        assert a == b
        assert a != c

    def test_draws_respect_open_bounds(self, running_example):
        grid = running_example.grid(5, 11)
        for disjunct in grid["disjuncts"]:
            for name, values in disjunct["params"].items():
                if name == "step1__C" and len(values) > 1:
                    assert all(0.0 < v < 0.5 for v in values)

    def test_integer_domain_draws_integers(self, registry):
        grid = emit_grid(sb.combine(registry["KNN"]), 4, 3)
        values = grid["disjuncts"][0]["params"]["knn__k"]
        assert all(isinstance(v, int) for v in values)
        assert values[0] == 5  # declared default first


@st.composite
def range_operators(draw):
    """An operator of one to three numeric ranges: integer or real, uniform
    or loguniform, open or closed ends, quantized or not, with a default or
    without."""
    props = {}
    for i in range(draw(st.integers(1, 3))):
        integer, log = draw(st.booleans()), draw(st.booleans())
        lo_open, hi_open = draw(st.booleans()), draw(st.booleans())
        opened = lo_open or hi_open
        if integer:
            lo = draw(st.integers(1 if log else -50, 60))
            hi = lo + draw(st.integers(2 if opened else 0, 200))
            if draw(st.booleans()):  # fractional bounds round inward
                lo, hi = lo - 0.5, hi + 0.5
        else:
            lo = draw(st.floats(1e-3 if log else -1e3, 1e3))
            hi = lo + draw(st.floats(1e-3 if opened else 0.0, 1e3))
        doc = {"type": "integer" if integer else "number", "minimum": lo, "maximum": hi,
               "exclusiveMinimum": lo_open, "exclusiveMaximum": hi_open,
               "distribution": "loguniform" if log else "uniform"}
        if draw(st.booleans()):
            doc["quantization"] = draw(st.floats(0.01, 50.0))
        if draw(st.booleans()):
            doc["default"] = (math.ceil(lo) + math.floor(hi)) // 2 if integer else (lo + hi) / 2
        props[f"p{i}"] = doc
    return og.Individual("Ranges", sm.parse_schema({"type": "object", "properties": props}))


@st.composite
def crowded_range_operators(draw):
    """An operator of one or two numeric ranges with at most seven values,
    so that most of many draws equal one drawn before: narrow integer
    ranges and real ranges a few quantization steps wide, uniform or
    loguniform, with a default or without (on an integer range, an int or
    an integral float)."""
    props = {}
    for i in range(draw(st.integers(1, 2))):
        integer, log = draw(st.booleans()), draw(st.booleans())
        if integer:
            lo = draw(st.integers(1 if log else -5, 10))
            hi = lo + draw(st.integers(0, 6))
            middle = (lo + hi) // 2
            default = draw(st.sampled_from([middle, float(middle)]))
        else:
            q = draw(st.floats(0.05, 5.0))
            lo = draw(st.floats(1e-2 if log else -10.0, 10.0))
            hi = lo + q * draw(st.integers(1, 6))
            default = (lo + hi) / 2
        doc = {"type": "integer" if integer else "number", "minimum": lo, "maximum": hi,
               "distribution": "loguniform" if log else "uniform"}
        if not integer:
            doc["quantization"] = q
        if draw(st.booleans()):
            doc["default"] = default
        props[f"p{i}"] = doc
    return og.Individual("Crowded", sm.parse_schema({"type": "object", "properties": props}))


def bits(value):
    """A value's type and exact bits."""
    return type(value).__name__, value.hex() if isinstance(value, float) else value


def point_bits(point):
    return {name: bits(value) for name, value in point.items()}


def reference_sample_space(doc, rng):
    """sample_space over steps of leaves before the one draw body: a draw of
    the disjunct, then one draw from each domain document."""
    point = {}
    for leaf in doc["steps"].values():
        disjunct = leaf["disjuncts"][rng.randrange(len(leaf["disjuncts"]))]
        for name, domain in disjunct.items():
            point[name] = reference_draw_cont_doc(domain, rng)
    return point


@st.composite
def draw_domains(draw):
    """The arguments of `_draw_plan`: every draw kind, integer ranges from
    one value to about 2**70 values (powers of two, where the rejection
    loop redraws least, among them) and bounds far beyond 2**53."""
    integer, log = draw(st.booleans()), draw(st.booleans())
    lo_open, hi_open = draw(st.booleans()), draw(st.booleans())
    q = draw(st.one_of(st.none(), st.floats(0.01, 50.0)))
    if integer:
        lo = draw(st.one_of(st.integers(1 if log else -5, 5),
                            st.integers(1 if log else -2**70, 2**70)))
        width = draw(st.one_of(st.integers(0, 10), st.integers(0, 70).map(lambda k: 2**k),
                               st.integers(0, 2**70)))
        # Open integer ends step one inward, so the range holds width + 1 values.
        return lo, lo + width + lo_open + hi_open, lo_open, hi_open, True, log, q
    lo = draw(st.floats(1e-6 if log else -1e6, 1e6))
    hi = lo + draw(st.floats(1e-6 if lo_open or hi_open else 0.0, 1e6))
    return lo, hi, lo_open, hi_open, False, log, q


class TestOneDrawBody:
    """sample_space, emit_grid and PcsSpace.sample against the draws they
    made before they shared one draw body: the same values, of the same type
    and bits, and the rng left in the same state."""

    @settings(max_examples=400, deadline=None)
    @given(domain=draw_domains(), seed=st.integers(0, 2**32), count=st.integers(1, 8))
    def test_every_draw_kind_draws_like_randint_and_uniform(self, domain, seed, count):
        # The reference calls this interpreter's own rng.randint and
        # rng.uniform, which the draw plan writes out.
        plan = sb._draw_plan(*domain)
        new, old = random.Random(seed), random.Random(seed)
        for _ in range(count):
            assert bits(sb._draw(new, plan)) == bits(reference_draw_cont(old, *domain))
        assert new.getstate() == old.getstate()

    @pytest.mark.parametrize("lo,hi,lo_open,hi_open,text", [
        (1.2, 1.8, False, False, "[1.2, 1.8]"), (1, 2, True, True, "(1, 2)")])
    def test_document_integer_range_without_an_integer_is_refused(self, lo, hi, lo_open,
                                                                   hi_open, text):
        # Only a document from outside the compiler holds such a range.
        doc = {"kind": "disjuncts", "disjuncts": [{"x": {
            "kind": "continuous", "lo": lo, "hi": hi, "loOpen": lo_open, "hiOpen": hi_open,
            "integer": True, "distribution": "uniform"}}]}
        with pytest.raises(CompileError) as refused:
            sample_space(doc, random.Random(0))
        assert str(refused.value) == f"integer range {text} contains no integers"

    @settings(max_examples=150, deadline=None)
    @given(op=range_operators(), seed=st.integers(0, 2**32), count=st.integers(1, 6))
    def test_hierarchical_points(self, op, seed, count):
        doc = compile_space(op).hierarchical()
        new, old = random.Random(seed), random.Random(seed)
        for _ in range(count):
            assert point_bits(sample_space(doc, new)) == point_bits(reference_sample_space(doc, old))
        assert new.getstate() == old.getstate()

    @staticmethod
    def _same_grid_values(op, seed, cont_samples):
        compiled = compile_space(op)
        grid = compiled.grid(cont_samples, seed)
        new = [{name: [bits(v) for v in values] for name, values in d["params"].items()}
               for d in grid["disjuncts"]]
        old = [{name: [bits(v) for v in values] for name, values in params.items()}
               for params in reference_grid_params(compiled, cont_samples, seed)]
        assert new == old

    @settings(max_examples=150, deadline=None)
    @given(op=range_operators(), seed=st.integers(0, 2**32), cont_samples=st.integers(1, 6))
    def test_grid_values(self, op, seed, cont_samples):
        self._same_grid_values(op, seed, cont_samples)

    @settings(max_examples=150, deadline=None)
    @given(op=crowded_range_operators(), seed=st.integers(0, 2**32),
           cont_samples=st.integers(1, 60))
    def test_grid_values_of_crowded_ranges(self, op, seed, cont_samples):
        # Most draws repeat a kept value, so the set lookup that replaced
        # the scan decides almost every draw.
        self._same_grid_values(op, seed, cont_samples)

    @settings(max_examples=150, deadline=None)
    @given(op=range_operators(), seed=st.integers(0, 2**32), count=st.integers(1, 6))
    def test_parsed_pcs_points(self, op, seed, count):
        space = read_pcs(compile_space(op).pcs())
        new, old = random.Random(seed), random.Random(seed)
        for _ in range(count):
            expected = reference_pcs_sample(space, old)
            for name, value in expected.items():
                # The one change: a real draw off the written bounds is clamped.
                param = space.parameters[name]
                if isinstance(param, RangeNode) and not param.integer_valued:
                    expected[name] = min(max(value, param.lo), param.hi)
            assert point_bits(space.sample(new)) == point_bits(expected)
        assert new.getstate() == old.getstate()

    def test_parsed_real_draws_stay_in_written_bounds(self):
        class Top(random.Random):
            def random(self):
                return 1.0 - 2.0**-53  # the largest value random() returns

        hi = 0.11030927835051547  # exp(log(hi)) rounds above hi here
        space = read_pcs(f"x [0.1, {hi!r}] [0.1]l\n")
        assert reference_pcs_sample(space, Top())["x"] > hi
        assert space.sample(Top())["x"] == hi


class TestRandomPipelineSoundness:
    def test_sampled_points_always_validate(self, registry):
        """Seeded fuzz over random pipelines: every point drawn from the
        constrained compile must decode into steps that pass validation."""
        names = ["NoOp", "Scaler", "StandardScaler", "MinMaxScaler", "SelectKVariance",
                 "KNN", "LR", "J48", "LogRegGD", "PrunedTree", "PCA"]
        rng = random.Random(31337)

        def random_operator(depth):
            kind = rng.randrange(4) if depth < 2 else 3
            if kind == 3:
                if rng.random() < 0.15:
                    base = registry[rng.choice(["PrunedTree", "DecisionStump", "KNN"])]
                    return configure(REGISTRY["BoostedEnsemble"], {"base": base})
                op = registry[rng.choice(names)]
                defaults = sm.default_config(op.schema)
                if defaults and rng.random() < 0.25:
                    key = rng.choice(sorted(defaults))
                    op = configure(op, {key: defaults[key]})
                return op
            left, right = random_operator(depth + 1), random_operator(depth + 1)
            if kind == 0:
                return pipe(left, right)
            if kind == 1:
                return pipe(og.both(left, right), registry["Concat"])
            return choose([left, right])

        def validate_everywhere(op):
            if isinstance(op, og.Individual):
                assert sm.validate(op.bound, op.schema).ok, op.name
                for value in op.bound.values():
                    if isinstance(value, og.Operator):
                        validate_everywhere(value)
            elif isinstance(op, og.Pipeline):
                for step in op.steps:
                    validate_everywhere(step)

        for _ in range(40):
            op = random_operator(0)
            compiled = compile_space(op)
            doc = compiled.hierarchical()
            for _ in range(15):
                point = sample_space(doc, rng)
                validate_everywhere(compiled.decode(point))


class TestDecode:
    def test_reference_flat_row_point(self, running_example):
        point = {"pca__N": "mle", "step1__D": "LR",
                 "step1__solver": "linear", "step1__penalty": "l1"}
        decoded = running_example.decode(point)
        assert decoded.steps[0].bound == {"N": "mle"}
        assert decoded.steps[1].name == "LR"
        assert decoded.steps[1].bound == {"solver": "linear", "penalty": "l1"}
        assert og.state_of(decoded) == og.LifecycleState.TRAINABLE

    def test_defaults_point(self, running_example):
        point = default_point(running_example.ir)
        decoded = running_example.decode(point)
        assert decoded.steps[0].bound == {"N": 0.5}
        assert decoded.steps[1].name == "J48"
        assert decoded.steps[1].bound == {"R": False, "C": 0.25}

    def test_ensemble_point_rebuilds_nested_operator(self, registry):
        op = parse_expr("(MinMaxScaler | StandardScaler) >> BoostedEnsemble(base=PrunedTree)",
                        registry)
        compiled = compile_space(op)
        rng = random.Random(17)
        point = sample_space(compiled.hierarchical(), rng)
        decoded = compiled.decode(point)
        ensemble = decoded.steps[1]
        nested = ensemble.bound["base"]
        assert nested.name == "PrunedTree"
        assert sm.validate(nested.bound, nested.schema).ok
        assert set(nested.bound) == {"maxDepth", "R", "C"}

    def test_unknown_discriminant_value(self, running_example):
        point = default_point(running_example.ir)
        point["step1__D"] = "SVM"
        with pytest.raises(sb.UnknownMarker):
            running_example.decode(point)

    def test_missing_discriminant(self, running_example):
        with pytest.raises(sb.DecodeError):
            running_example.decode({"pca__N": 0.5})

    @pytest.mark.parametrize("text", ["nan", "inf", "-inf", "1e400"])
    def test_non_finite_pcs_integer(self, registry, text):
        with pytest.raises(sb.DecodeError):
            compile_space(registry["KNN"]).decode_pcs({"knn__k": text})

    @pytest.mark.parametrize("point", [{"knn__k": math.nan}, {"knn__k": 10**400},
                                       {"knn__k": -math.inf}])
    def test_non_finite_or_huge_integer(self, registry, point):
        with pytest.raises(sb.DecodeError):
            compile_space(registry["KNN"]).decode(point)

    def test_nan_real(self, registry):
        with pytest.raises(sb.DecodeError):
            compile_space(registry["LogRegGD"]).decode({"logreggd__learningRate": math.nan})

    def test_pipeline_branch_inside_choice(self, registry, blobs):
        op = parse_expr("Scaler >> (KNN | (SelectKVariance >> LogRegGD))", registry)
        compiled = compile_space(op)
        rows = compiled.flat()
        # 1 scaler x (1 KNN + 1x2 LogRegGD disjuncts through the sub-pipeline)
        assert len(rows) == 3
        keys = {k for row in rows for k in row}
        assert "step1__selectkvariance__k" in keys
        assert "step1__logreggd__learningRate" in keys
        rng = random.Random(4)
        for _ in range(40):
            point = sample_space(compiled.hierarchical(), rng)
            decoded = compiled.decode(point)
            if point["step1__D"] == "Pipeline":
                inner = decoded.steps[1]
                assert isinstance(inner, og.Pipeline)
                assert [s.name for s in inner.steps] == ["SelectKVariance", "LogRegGD"]
            trained = og.fit(decoded, blobs)
            assert og.predict(trained, blobs.X).shape == blobs.y.shape

    def test_pcs_qualifies_colliding_pipeline_branches(self, registry):
        op = parse_expr("(SelectKVariance >> KNN) | (SelectKVariance >> LogRegGD)",
                        registry)
        text = emit_pcs(sb.combine(op))
        space = read_pcs(text)
        k_params = [n for n in space.parameters if n.endswith("selectkvariance__k")]
        assert len(k_params) == 2 and len(set(k_params)) == 2
        compiled = compile_space(op)
        rng = random.Random(12)
        for _ in range(100):
            decoded = compiled.decode_pcs(space.sample(rng))
            assert og.state_of(decoded) == og.LifecycleState.TRAINABLE

    def test_empty_space_emits_one_empty_point_everywhere(self, registry):
        frozen = pipe(freeze_trainable(configure(registry["Scaler"], {})),
                      freeze_trainable(configure(registry["KNN"], {})))
        compiled = compile_space(frozen)
        assert compiled.flat() == [{}]
        grid = compiled.grid(1, 0)
        assert grid["cellCount"] == 1
        assert list(sb.grid_cells(grid)) == [{}]
        space = read_pcs(compiled.pcs())
        assert not space.parameters
        assert space.sample(random.Random(0)) == {}

    def test_unconstrained_decode_accepts_trap_configs(self, registry):
        op = parse_expr("PCA >> (J48 | LR)", registry)
        compiled = compile_space(op, keep_constraints=False)
        point = {"pca__N": 0.5, "step1__D": "J48", "step1__R": True, "step1__C": 0.3}
        decoded = compiled.decode(point)  # dropped schema admits it
        assert decoded.steps[1].bound == {"R": True, "C": 0.3}
        with pytest.raises(og.ValidationFailed):
            compile_space(op).decode(point)  # constrained compile must not


# ---------------------------------------------------------------------------
# Size caps: flat_size against the flat emitter that checked while building


def reference_emit_flat(ir, limit=DEFAULT_BLOWUP_LIMIT):
    """The flat emitter that checked the cap after each step, branch row and
    operator slot it had already built, kept as the oracle for flat_size."""
    if isinstance(ir, StepMapIR):
        rows = [{}]
        for _, child in ir.steps:
            child_rows = reference_emit_flat(child, limit)
            rows = [{**a, **b} for a in rows for b in child_rows]
            if len(rows) > limit:
                raise BlowupExceeded(limit)
        return rows
    if isinstance(ir, ChoiceIR):
        rows = []
        for value, body in ir.branches:
            stamp = {ir.discriminant: EnumNode((value,), value)}
            for row in reference_emit_flat(body, limit):
                rows.append({**stamp, **row})
                if len(rows) > limit:
                    raise BlowupExceeded(limit)
        return rows
    assert isinstance(ir, LeafIR)
    rows = []
    for disjunct in ir.nf.disjuncts:
        base = {}
        slot_rows = [{}]
        for name, domain in disjunct.items():
            if isinstance(domain, SearchIR):
                nested_rows = reference_emit_flat(domain, limit)
                slot_rows = [{**a, **b} for a in slot_rows for b in nested_rows]
                if len(slot_rows) > limit:
                    raise BlowupExceeded(limit)
            else:
                base[sb._join(ir.prefix, name)] = domain
        for extra in slot_rows:
            rows.append({**base, **extra})
    if len(rows) > limit:
        raise BlowupExceeded(limit)
    return rows


GRAMMAR_DIR = Path(__file__).parent.parent / "fixtures" / "grammars"
# Unfolds whose oracle stays small: the cap check inside the oracle's loops
# bounds what it builds only after each product, so feature_union stops at
# depth 3 (30275 rows, refused at every drawn limit).
UNFOLDS = [("linear_stages", d) for d in range(1, 5)] + [("feature_union", d) for d in range(1, 4)]
REGISTRY = toyml.load_registry()
LEAF_NAMES = ["NoOp", "Scaler", "KNN", "LR", "J48", "PCA", "PrunedTree", "LogRegGD",
              "BoostedEnsemble", "SelectKVariance"]


@functools.lru_cache(maxsize=None)
def _grammar(name):
    return parse_grammar((GRAMMAR_DIR / f"{name}.grammar").read_text(), REGISTRY)


@st.composite
def registry_operators(draw, budget=6):
    """Pipelines, choices and operator-valued bindings over registry
    operators, with at most `budget` leaves so the oracle stays small."""
    if budget <= 1:
        return REGISTRY[draw(st.sampled_from(LEAF_NAMES))]
    kind = draw(st.sampled_from(["leaf", "pipe", "choice", "boosted"]))
    if kind == "leaf":
        return REGISTRY[draw(st.sampled_from(LEAF_NAMES))]
    if kind == "boosted":
        # A base must be an individual operator, itself possibly boosted.
        base = draw(registry_operators(budget - 1).filter(
            lambda op: isinstance(op, og.Individual)))
        return configure(REGISTRY["BoostedEnsemble"], {"base": base})
    parts = draw(st.integers(2, 3))
    children = [draw(registry_operators(budget // parts)) for _ in range(parts)]
    return choose(children) if kind == "choice" else functools.reduce(pipe, children)


@st.composite
def compiled_spaces(draw, unfolds=UNFOLDS, sources=("unfold", "sample", "registry")):
    source = draw(st.sampled_from(sources))
    if source == "unfold":
        name, depth = draw(st.sampled_from(unfolds))
        op = grammar_engine.unfold(_grammar(name), depth, REGISTRY)
    elif source == "sample":
        op = grammar_engine.sample(_grammar(draw(st.sampled_from(["linear_stages",
                                                                  "feature_union"]))),
                                   draw(st.integers(0, 2**31 - 1)), draw(st.integers(1, 4)),
                                   REGISTRY)
    else:
        op = draw(registry_operators())
    return compile_space(op, keep_constraints=draw(st.booleans()))


def compiled_irs(unfolds=UNFOLDS):
    return compiled_spaces(unfolds).map(lambda compiled: compiled.ir)


def _leaves(ir):
    """Every leaf of `ir`, those of its operator slots' IRs included."""
    if isinstance(ir, LeafIR):
        yield ir
        parts = [domain for disjunct in ir.nf.disjuncts for domain in disjunct.values()
                 if isinstance(domain, SearchIR)]
    else:
        parts = [part for _, part in (ir.steps if isinstance(ir, StepMapIR) else ir.branches)]
    for part in parts:
        yield from _leaves(part)


def _refused(emit):
    try:
        return False, emit()
    except BlowupExceeded:
        return True, None


def _scalar_key(value):
    return isinstance(value, bool), value


# Ranges put beside an enum. Each holds a value that an enum value may equal
# or spell alike in PCS: the integer 1 (1.0, "1"), or a real default, which
# the grid keeps as a cell (1.0 beside 1, 1.5 beside "1.5").
RANGES_BESIDE_ENUMS = [
    {"type": "integer", "minimum": 0, "maximum": 5},
    {"type": "integer", "minimum": 0, "maximum": 3},
    {"type": "number", "minimum": 0.0, "maximum": 2.0, "default": 1.0},
    {"type": "number", "minimum": 0.5, "maximum": 2.0, "default": 1.5},
]


@st.composite
def enum_operators(draw, disjuncts=False):
    """An operator of one or two enums of any text, numbers, booleans and
    null, often of values that compare or spell alike in PCS, some with a
    range beside them (an anyOf of the enum and the range); with
    `disjuncts`, also an anyOf whose alternatives each narrow every enum to
    one or two of its values, or to its range."""
    alike = st.sampled_from([1, 1.0, "1", 1.5, "1.5", True, "true", "True", None, "null"])
    scalars = st.one_of(alike, st.text(max_size=4), st.integers(-9, 9), st.booleans(),
                        st.none(), st.floats(allow_nan=False))
    props, beside = {}, {}
    for i in range(draw(st.integers(1, 2))):
        values = draw(st.lists(scalars, min_size=1, max_size=4, unique_by=_scalar_key))
        name = draw(st.sampled_from(["x", "a b", "c#d", f"p{i}"]))
        props[name] = {"enum": values}
        beside[name] = draw(st.none() | st.sampled_from(RANGES_BESIDE_ENUMS))
        if beside[name]:
            props[name] = {"anyOf": [props[name], beside[name]]}
    schema = {"type": "object", "properties": props}
    if disjuncts:
        def narrowings(name):
            enum = props[name]["anyOf"][0] if beside[name] else props[name]
            subsets = st.lists(st.sampled_from(enum["enum"]), min_size=1, max_size=2,
                               unique_by=_scalar_key).map(lambda values: {"enum": values})
            return subsets | st.just(beside[name]) if beside[name] else subsets

        narrowed = st.fixed_dictionaries({name: narrowings(name) for name in props})
        alternatives = draw(st.lists(narrowed, min_size=1, max_size=3))
        schema = {"allOf": [schema, {"anyOf": [{"type": "object", "properties": a}
                                               for a in alternatives]}]}
    return og.Individual("Enums", sm.parse_schema(schema))


def _pcs_role_space(role, strings):
    """A PCS space in which each string plays one role in its own lines."""
    def cat(values, default):
        return EnumNode(tuple(values), default)

    params, conditions = {}, {}
    for i, s in enumerate(strings):
        other = "f" if s == "e" else "e"  # read_pcs refuses a repeated value
        if role == "value":
            params[f"p{i}"] = cat((s, other), other)
        elif role == "default":
            params[f"p{i}"] = cat((s, other), s)
        elif role == "categorical name":
            params[s] = cat(("u", "v"), "u")
        elif role in ("real name", "integer name"):
            kind = role.split()[0]
            params[s] = RangeNode(0, 3, integer_valued=kind == "integer", default=1)
        elif role == "child":
            params[f"p{i}"] = cat(("u", "v"), "u")
            params[s] = cat(("x",), "x")
            conditions[s] = [(f"p{i}", "u")]
        elif role == "parent":
            params[s] = cat(("u", "v"), "u")
            params[f"q{i}"] = cat(("x",), "x")
            conditions[f"q{i}"] = [(s, "u")]
        else:
            assert role == "condition value"
            params[f"p{i}"] = cat((s, other), other)
            params[f"q{i}"] = cat(("x",), "x")
            conditions[f"q{i}"] = [(f"p{i}", s)]
    return sb.PcsSpace(params, conditions)


PCS_ROLES = ["value", "default", "categorical name", "real name", "integer name", "child",
             "parent", "condition value"]
PCS_PLACES = [lambda c: c, lambda c: f"a{c}b", lambda c: c + "a", lambda c: "a" + c,
              lambda c: f"a{c}{c}b"]


def _reads_back(space):
    try:
        return read_pcs(sb._pcs_text(space)) == space
    except ValueError:
        return False


def _drawn_values_decode(compiled, point):
    """The point of a one-operator space decodes to a configuration holding
    exactly its values."""
    bound = compiled.decode(point).bound
    prefix = compiled.op.name.lower()
    return ({f"{prefix}__{name}": repr(value) for name, value in bound.items()}
            == {key: repr(value) for key, value in point.items()})


def _parsed_pcs_failures(compiled, draws, seed=0):
    """How many of `draws` points sampled from the space's read-back PCS
    text fail to decode."""
    space, rng, failures = read_pcs(compiled.pcs()), random.Random(seed), 0
    for _ in range(draws):
        try:
            compiled.decode_pcs(space.sample(rng))
        except (sb.DecodeError, og.OperatorError):
            failures += 1
    return failures


class TestPcsRoundTrip:
    @settings(max_examples=200, deadline=None)
    @given(compiled=st.one_of(compiled_spaces(), range_operators().map(compile_space),
                              enum_operators().map(compile_space)))
    def test_read_back_equals_the_model(self, compiled):
        try:
            text = compiled.pcs()
        except BlowupExceeded:
            return
        except CompileError as exc:
            assert any(f"PCS parameter {name!r}:" in str(exc)
                       for name in compiled.ir.pcs_model.parameters)
            return
        assert read_pcs(text) == compiled.ir.pcs_model

    def test_unreadable_value_is_refused_naming_its_parameter(self):
        op = og.Individual("T", sm.parse_schema({"type": "object", "properties": {
            "x": {"enum": ["a,b", "c#d", "e"]}}}))
        compiled = compile_space(op)
        with pytest.raises(CompileError, match=r"^PCS parameter 't__x': 'a,b' would not"):
            compiled.pcs()
        # The model still decodes: only the text is refused.
        assert compiled.decode_pcs({"t__x": "c#d"}).bound == {"x": "c#d"}

    def test_refused_characters_are_those_some_name_or_value_loses(self):
        """A refused character fails to read back in some role and place,
        alone; every other character reads back in every role and place.
        The reader splits at ASCII punctuation, strips whitespace and splits
        lines at line breaks, which are whitespace; so past the first
        0x800 code points only whitespace is probed."""
        chars = sorted({chr(c) for c in range(0x800)}
                       | {chr(c) for c in range(sys.maxunicode + 1) if chr(c).isspace()})
        refused = [c for c in chars if sb._PCS_UNREADABLE.search(c)]
        assert set(refused) == {c for c in chars if c.isspace()} | set("#|,={}[]")
        for c in refused:
            assert not all(_reads_back(_pcs_role_space(role, [place(c)]))
                           for role in PCS_ROLES for place in PCS_PLACES), repr(c)
        kept = [c for c in chars if c not in refused]
        for role in PCS_ROLES:
            for place in PCS_PLACES:
                assert _reads_back(_pcs_role_space(role, [place(c) for c in kept])), role

    def test_integer_bounds_above_2_to_53_read_back(self):
        op = og.Individual("Big", sm.parse_schema({"type": "object", "properties": {
            "n": {"type": "integer", "minimum": 2**60, "maximum": 2**60 + 4096,
                  "exclusiveMinimum": True}}}))
        compiled = compile_space(op)
        assert read_pcs(compiled.pcs()) == compiled.ir.pcs_model
        assert _parsed_pcs_failures(compiled, 200) == 0
        rng = random.Random(0)
        doc = compiled.hierarchical()
        for _ in range(200):
            assert _drawn_values_decode(compiled, sample_space(doc, rng))

    def _big(self):
        return compile_space(og.Individual("Big", sm.parse_schema({
            "type": "object", "properties": {
                "n": {"type": "integer", "minimum": 2**60, "maximum": 2**60 + 4096,
                      "exclusiveMinimum": True}}})))

    def test_integer_spelling_next_to_an_open_bound_decodes(self):
        # float() rounds 2**60 + 1 onto the open bound 2**60.
        compiled = self._big()
        assert compiled.decode_pcs({"big__n": str(2**60 + 1)}).bound["n"] == 2**60 + 1

    def test_integer_spelling_above_2_to_53_decodes_exactly(self):
        # float() would turn 2**60 + 2025 into its neighbour 2**60 + 2048.
        compiled = self._big()
        for decode in (compiled.decode_pcs, compiled.decode):
            assert decode({"big__n": str(2**60 + 2025)}).bound["n"] == 2**60 + 2025
        # Other spellings of an integer still read through float().
        assert compiled.decode_pcs({"big__n": "1152921504606849024.0"}).bound["n"] == 2**60 + 2048


class TestMixedEnums:
    """Enums mixing values that compare alike (1 and true) or spell alike
    in PCS (1 and "1") decode to the values drawn, from every encoding."""

    @settings(max_examples=300, deadline=None)
    @given(op=enum_operators(disjuncts=True), seed=st.integers(0, 2**31 - 1))
    def test_every_draw_decodes_to_itself(self, op, seed):
        compiled = compile_space(op)
        rng = random.Random(seed)
        doc = compiled.hierarchical()
        for _ in range(20):
            assert _drawn_values_decode(compiled, sample_space(doc, rng))
        for cell in sb.grid_cells(compiled.grid()):
            assert _drawn_values_decode(compiled, cell)
        try:
            assert _parsed_pcs_failures(compiled, 20, seed) == 0
        except CompileError as exc:
            assert any(f"PCS parameter {name!r}:" in str(exc)
                       for name in compiled.ir.pcs_model.parameters)

    def test_disjuncts_differing_only_in_a_boolean_keep_apart(self):
        """x=1 goes with y=a and x=true with y=b; one merged PCS parameter
        for x would pair either value with either y."""
        op = og.Individual("T", sm.parse_schema({"allOf": [
            {"type": "object", "properties": {"x": {"enum": [1, True]},
                                              "y": {"enum": ["a", "b"]}}},
            {"anyOf": [
                {"type": "object", "properties": {"x": {"enum": [1]}, "y": {"enum": ["a"]}}},
                {"type": "object", "properties": {"x": {"enum": [True]}, "y": {"enum": ["b"]}}},
            ]},
        ]}))
        compiled = compile_space(op)
        assert "t__x {1} [1]" in compiled.pcs()
        assert "t__x__1 {true} [true]" in compiled.pcs()
        assert _parsed_pcs_failures(compiled, 200) == 0

    @pytest.mark.parametrize("prop,alike", [
        ({"anyOf": [{"enum": ["a", "1"]}, {"type": "integer", "minimum": 0, "maximum": 5}]},
         {"1", "'1'"}),
        ({"anyOf": [{"enum": [1.0, "z"]}, {"type": "integer", "minimum": 0, "maximum": 3}]},
         {"1", "1.0"}),
    ], ids=["range_beside_a_spelling", "range_beside_an_equal_float"])
    def test_a_draw_decodes_to_itself_beside_an_enum(self, prop, alike):
        """A value that one domain holds exactly decodes to itself, though an
        enum of another disjunct equals it or spells it alike."""
        compiled = compile_space(og.Individual("T", sm.parse_schema(
            {"type": "object", "properties": {"x": prop}})))
        rng = random.Random(0)
        doc = compiled.hierarchical()
        points = [sample_space(doc, rng) for _ in range(400)]
        points += sb.grid_cells(compiled.grid(3, 0))
        assert all(_drawn_values_decode(compiled, point) for point in points)
        assert {repr(point["t__x"]) for point in points} >= alike  # both were drawn

    def test_values_spelled_alike_decode_apart_and_refuse_pcs(self):
        op = og.Individual("T", sm.parse_schema({"type": "object", "properties": {
            "x": {"enum": ["1", 1, True, "true"]}}}))
        compiled = compile_space(op)
        rng = random.Random(0)
        doc = compiled.hierarchical()
        drawn = {repr(compiled.decode(sample_space(doc, rng)).bound["x"]) for _ in range(200)}
        assert drawn == {"'1'", "1", "True", "'true'"}
        grid = [compiled.decode(cell).bound["x"] for cell in sb.grid_cells(compiled.grid())]
        assert list(map(repr, grid)) == ["'1'", "1", "True", "'true'"]
        with pytest.raises(CompileError, match=r"^PCS parameter 't__x': values \{1, 1, true, true\} "
                                               "spell alike"):
            compiled.pcs()


class TestSizeFirst:
    @settings(max_examples=150, deadline=None)
    @given(ir=compiled_irs(), data=st.data())
    def test_flat_size_matches_the_building_oracle(self, ir, data):
        refused, rows = _refused(lambda: reference_emit_flat(ir))
        # Limits from 1 to 10^4, and just below, at and above the real size.
        limit = data.draw(st.integers(1, DEFAULT_BLOWUP_LIMIT) if refused else st.one_of(
            st.integers(1, DEFAULT_BLOWUP_LIMIT),
            st.integers(-1, 1).map(lambda offset: max(1, len(rows) + offset))))
        refused, rows = _refused(lambda: reference_emit_flat(ir, limit))
        assert _refused(lambda: sb.flat_size(ir, limit)) == (refused, None if refused else len(rows))
        assert _refused(lambda: emit_flat(ir, limit)) == (refused, rows)
        assert _refused(lambda: emit_pcs(ir, limit))[0] == refused
        assert _refused(lambda: emit_grid(ir, 1, 0, limit))[0] == refused

    def test_cap_refuses_before_building(self, registry):
        # feature_union at depth 4 flattens to 366,630,275 rows; building
        # them first ran out of memory. Each refusal must stay under 1 MB.
        compiled = compile_space(grammar_engine.unfold(_grammar("feature_union"), 4, registry))
        for emit in (compiled.flat, compiled.pcs, lambda: compiled.grid(1, 0)):
            tracemalloc.start()
            try:
                with pytest.raises(BlowupExceeded):
                    emit()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 1_000_000

    def test_a_compiled_space_is_sized_once(self, monkeypatch):
        # The flat, PCS and grid emitters each check the cap; each IR node
        # keeps its flat count and grid slots, refused or not, so a compiled
        # space sizes each node at most once per count it keeps, and a later
        # compile of the same tree shares the IR and its counts.
        # A fresh registry: a tree some earlier test compiled and counted
        # is kept by its youngest leaf.
        registry = toyml.load_registry()
        sized = []
        sizes = sb._sizes

        def counting(ir):
            sized.append(ir)
            return sizes(ir)

        monkeypatch.setattr(sb, "_sizes", counting)
        for op, count in ((parse_expr("Scaler >> (KNN | LR)", registry), 3),
                          (grammar_engine.unfold(_grammar("feature_union"), 4, registry),
                           366_630_275)):
            compiled = compile_space(op)
            for emit in (compiled.flat, compiled.pcs, lambda: compiled.grid(1, 0)) * 2:
                assert _refused(emit)[0] == (count > DEFAULT_BLOWUP_LIMIT)
            assert compiled.ir.flat_count == count
            nodes = {id(ir): ir for ir in sized}
            assert id(compiled.ir) in nodes
            for ir in nodes.values():
                kept = ("flat_count" in vars(ir)) + ("grid_slots" in vars(ir))
                assert 1 <= sum(node is ir for node in sized) <= kept
            calls = len(sized)
            again = compile_space(compiled.op)
            assert again.ir is compiled.ir
            for emit in (again.flat, again.pcs, lambda: again.grid(1, 0)):
                assert _refused(emit)[0] == (count > DEFAULT_BLOWUP_LIMIT)
            assert len(sized) == calls

    @pytest.mark.parametrize("depth,count", [(3, 30_275), (4, 366_630_275)])
    def test_count_above_the_cap_is_exact(self, registry, depth, count):
        compiled = compile_space(grammar_engine.unfold(_grammar("feature_union"), depth, registry))
        assert compiled.ir.flat_count == count
        for emit in (compiled.flat, compiled.pcs, lambda: compiled.grid(1, 0)):
            with pytest.raises(BlowupExceeded):
                emit()

    @settings(max_examples=100, deadline=None)
    @given(ir=compiled_irs())
    def test_every_space_counts_at_least_one(self, ir):
        # So partial totals never fall, and the cap refuses a space exactly
        # when some partial total of its count exceeds the cap.
        assert ir.flat_count >= 1

    @settings(max_examples=150, deadline=None)
    @given(ir=compiled_irs())
    def test_grid_slots_count_the_continuous_domains_of_the_rows(self, ir):
        # Counted by arithmetic, where reference_emit_grid draws for each
        # continuous domain of each row it builds.
        refused, rows = _refused(lambda: reference_emit_flat(ir))
        if refused:
            assert ir.grid_slots >= 0
            return
        assert ir.grid_slots == sum(isinstance(domain, RangeNode)
                                    for row in rows for domain in row.values())

    @settings(max_examples=150, deadline=None)
    @given(ir=compiled_irs(), cont_samples=st.integers(1, 40), data=st.data())
    def test_the_grid_refuses_exactly_above_the_draw_cap(self, ir, cont_samples, data):
        draws = ir.grid_slots * (cont_samples + 1)
        cap = data.draw(st.one_of(st.integers(0, 2 * draws + 1),
                                  st.integers(-1, 1).map(lambda offset: max(0, draws + offset))))
        with mock.patch.object(sb, "GRID_DRAW_LIMIT", cap):
            if ir.flat_count > DEFAULT_BLOWUP_LIMIT:
                with pytest.raises(BlowupExceeded, match="^flat size"):
                    emit_grid(ir, cont_samples, 0)
            elif draws > cap:
                with pytest.raises(BlowupExceeded, match=f"^grid draw count {draws} exceeds "
                                                         f"the cap of {cap}; largest step: "):
                    emit_grid(ir, cont_samples, 0)
            else:
                emit_grid(ir, cont_samples, 0)

    def test_the_draw_cap_is_checked_before_any_row(self):
        # linear_stages unfolded to depth 6 flattens to 720 rows with 3,312
        # continuous domains: 102,672 draws at 30 samples. Building its rows
        # before the check took 0.66 MB.
        compiled = compile_space(grammar_engine.unfold(_grammar("linear_stages"), 6, REGISTRY))
        tracemalloc.start()
        try:
            with pytest.raises(BlowupExceeded) as refused:
                compiled.grid(30)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (compiled.ir.flat_count, compiled.ir.grid_slots) == (720, 3312)
        assert str(refused.value).startswith("grid draw count 102672 exceeds the cap of 100000")
        assert peak < 100_000

    def test_the_draw_cap_comes_before_an_unsamplable_range(self):
        # parse_schema refuses an integer range with no integer inside, so
        # only a hand-built IR holds one. Its draw plan is built with the
        # first row, after the cap is checked.
        leaf = LeafIR("r", "r", REGISTRY["KNN"], NormalForm((
            {"x": RangeNode(0.2, 0.8, integer_valued=True)},)))
        ir = StepMapIR("", (("r", leaf),), wrapper=True)
        with pytest.raises(CompileError, match="contains no integers"):
            emit_grid(ir)
        with mock.patch.object(sb, "GRID_DRAW_LIMIT", 1):
            with pytest.raises(BlowupExceeded, match="^grid draw count 2 exceeds"):
                emit_grid(ir)

    # Unfolds up to depth 2 keep grids under 17k cells at two draws each.
    @settings(max_examples=60, deadline=None)
    @given(ir=compiled_irs(unfolds=[u for u in UNFOLDS if u[1] <= 2]),
           cont_samples=st.integers(1, 2), seed=st.integers(0, 3))
    def test_cell_count_is_the_number_of_cells(self, ir, cont_samples, seed):
        # grid_search refuses by cellCount before it builds any cell.
        grid = emit_grid(ir, cont_samples, seed)
        assert grid["cellCount"] == len(list(sb.grid_cells(grid)))


def _containers(doc):
    """Every list and dict in a JSON tree, each once, however often shared."""
    found, stack = {}, [doc]
    while stack:
        node = stack.pop()
        if isinstance(node, (list, dict)) and id(node) not in found:
            found[id(node)] = node
            stack.extend(node.values() if isinstance(node, dict) else node)
    return list(found.values())


def _continuous_names(compiled):
    """Per flat row, the names of its continuous domains."""
    return [[name for name, domain in row.items() if isinstance(domain, RangeNode)]
            for row in compiled.flat()]


class TestRenderedOnce:
    """flat_doc and emit_grid, which render each domain once per call,
    against the emitters that rendered it once per flat row, and the grid's
    draw count, checked before its first draw."""

    @settings(max_examples=150, deadline=None)
    @given(compiled=st.one_of(compiled_spaces(sources=("sample",)),
                              range_operators().map(compile_space)),
           cont_samples=st.integers(1, 6), seed=st.integers(0, 2**32))
    def test_documents_match_the_per_row_emitters(self, compiled, cont_samples, seed):
        # json.dumps without sort_keys, so key order, draw order, types and
        # bits must all match.
        def text(emit):
            refused, doc = _refused(emit)
            return refused, None if refused else json.dumps(doc)

        assert (text(lambda: sb.flat_doc(compiled.flat()))
                == text(lambda: reference_flat_doc(compiled.flat())))
        refused, grid = _refused(lambda: emit_grid(compiled.ir, cont_samples, seed))
        expected_refused, expected = _refused(
            lambda: reference_emit_grid(compiled.ir, cont_samples, seed))
        if not expected_refused:
            count = sum(map(len, _continuous_names(compiled))) * (cont_samples + 1)
            expected_refused = count > sb.GRID_DRAW_LIMIT
        assert refused == expected_refused
        if not refused:
            assert json.dumps(grid) == json.dumps(expected)
            assert grid["cellCount"] == expected["cellCount"]

    @settings(max_examples=100, deadline=None)
    @given(compiled=st.one_of(compiled_spaces(sources=("sample",)),
                              range_operators().map(compile_space)),
           cont_samples=st.integers(1, 6), seed=st.integers(0, 2**32))
    def test_the_draw_count_bounds_the_kept_values(self, compiled, cont_samples, seed):
        names = _refused(lambda: _continuous_names(compiled))[1]
        if names is None:
            return  # refused by the flat cap
        count = sum(map(len, names)) * (cont_samples + 1)
        with mock.patch.object(sb, "GRID_DRAW_LIMIT", count):
            grid = emit_grid(compiled.ir, cont_samples, seed)
        kept = sum(len(disjunct["params"][name])
                   for disjunct, row in zip(grid["disjuncts"], names) for name in row)
        assert kept <= count
        if count:
            with mock.patch.object(sb, "GRID_DRAW_LIMIT", count - 1):
                with pytest.raises(BlowupExceeded, match="grid draw count"):
                    emit_grid(compiled.ir, cont_samples, seed)

    def test_draws_beyond_the_limit_are_refused_before_the_first(self, registry):
        # KNN's one continuous domain at 10^8 samples: refused at once,
        # with no memory spent on draws.
        compiled = compile_space(registry["KNN"])
        tracemalloc.start()
        try:
            with pytest.raises(BlowupExceeded) as refused:
                compiled.grid(100_000_000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 100_000
        assert str(refused.value) == ("grid draw count 100000001 exceeds the cap of 100000; "
                                      "largest step: knn (KNN), flat size 1")

    @pytest.mark.parametrize("domain", [
        RangeNode(0, 2, integer_valued=True, default=True),
        RangeNode(0, 2, integer_valued=True, default=1),
        RangeNode(0, 2, integer_valued=True, default=1.0),
        RangeNode(0, 2, integer_valued=True),
        RangeNode(0.0, 0.0, default=-0.0),
        RangeNode(-0.0, 0.0, default=0.0),
        RangeNode(0.0, 1.0, default=1, prior=sm.Prior("uniform", 0.5)),
    ], ids=["true", "int", "float", "missing", "negative_zero", "zero", "quantized"])
    def test_repeated_draws_are_kept_once_as_the_set_kept_them(self, domain):
        # Every draw repeats, so a draw equal to the default or to a draw
        # kept before is left out: by ==, yet a bool default absorbs none.
        leaf = LeafIR("r", "r", REGISTRY["KNN"], NormalForm(({"x": domain, "y": domain},)))
        ir = StepMapIR("", (("r", leaf),), wrapper=True)
        # Few draws and many, each seed its own run of repeats.
        for cont_samples, seed in itertools.product((8, 40), range(4)):
            grid = emit_grid(ir, cont_samples, seed)
            assert repr(grid) == repr(reference_emit_grid(ir, cont_samples, seed))
            values = grid["disjuncts"][0]["params"]["r__x"]
            if domain.default is not sm.MISSING:
                assert repr(values[0]) == repr(domain.default)
            if domain.default is True:  # a draw of 1 is kept beside it
                assert 1 in values[1:]

    @settings(max_examples=150, deadline=None)
    @given(ir=compiled_irs())
    def test_the_walker_builds_the_reference_rows(self, ir):
        # The same rows, keys in the same order, with values that print
        # alike (so 1 and True differ), for flat and grid rows; every row a
        # dict of its own, shared with no other call and not the IR's, since
        # emit_grid writes its draws into its rows and callers may write too.
        if ir.flat_count > DEFAULT_BLOWUP_LIMIT:
            return
        for render in (sb._as_domains, sb._grid_fragment):
            rows = sb._flat_rows(ir, render)
            assert list(map(repr, rows)) == list(map(repr, reference_flat_rows(ir, render)))
            again = sb._flat_rows(ir, render)
            assert len({id(row) for row in rows + again}) == 2 * len(rows)

    def test_the_limit_admits_large_single_operator_grids(self, registry):
        grid = compile_space(registry["LogRegGD"]).grid(4000)
        assert sum(map(len, grid["disjuncts"][0]["params"].values())) > 4000

    def test_documents_share_nothing_between_calls(self, registry):
        # Rows of one document share domain documents and value lists, so
        # writing into one call's output must leave the next call's, and the
        # IR, as they were.
        spaces = [compile_space(parse_expr("PCA >> (J48 | LR)", registry)),
                  compile_space(pipe(registry["Scaler"], configure(
                      registry["BoostedEnsemble"], {"base": registry["PrunedTree"]})))]
        for compiled in spaces:
            emitters = (lambda: sb.flat_doc(compiled.flat()), lambda: compiled.grid(3, 5),
                        compiled.flat, compiled.hierarchical)
            before = [repr(emit()) for emit in emitters]
            for emit in emitters[:3]:
                for node in _containers(emit()):
                    if isinstance(node, list):
                        node.append("scribbled")
                    else:
                        node["scribbled"] = True
            assert [repr(emit()) for emit in emitters] == before


# A freshly configured and a higher-order step after a registry step.
FRESH_AFTER_REGISTRY = ["Scaler >> KNN(k=3)", "Scaler >> BoostedEnsemble(base=PrunedTree)"]


def _registry_entries(registry):
    """The entries in the IR stores of the registry's operators."""
    return sum(len(vars(op).get("_compiled", ())) for op in registry.values())


def _emitted(operator, keep, cont_samples, seed):
    """What `operator()` compiles to: each emission (hierarchical, flat, PCS
    and grid) or its refusal, then the decodes of hierarchical and PCS
    points drawn at `seed`; or the refusal of its compile."""
    try:
        compiled = compile_space(operator(), keep)
    except CompileError as exc:
        return f"CompileError: {exc}"
    out = []
    for emit in (lambda: json.dumps(compiled.hierarchical()),
                 lambda: json.dumps(sb.flat_doc(compiled.flat())), compiled.pcs,
                 lambda: json.dumps(compiled.grid(cont_samples, seed))):
        try:
            out.append(emit())
        except (BlowupExceeded, CompileError) as exc:
            out.append(f"{type(exc).__name__}: {exc}")
    rng = random.Random(seed)
    hier = compiled.hierarchical()
    decodes = [(compiled.decode, sample_space(hier, rng)) for _ in range(3)]
    if not out[2].startswith(("BlowupExceeded", "CompileError")):
        pcs = read_pcs(out[2])
        decodes += [(compiled.decode_pcs, pcs.sample(rng)) for _ in range(3)]
    for decode, point in decodes:
        try:
            out.append(_portable_form(decode(point)))
        except Exception as exc:
            out.append((type(exc).__name__, str(exc)))
    return out


def _portable_form(value):
    """`exact_form` of a decoded value, but with each schema given by its
    serialized form rather than its identity, so that the decodes of two
    registries compare."""
    if isinstance(value, og.Individual):
        return ("Individual", value.name, repr(serialize(value.schema)), value.impl,
                value.state, value.frozen_trainable, value.frozen_trained,
                repr(value.artifacts),
                tuple((name, _portable_form(v)) for name, v in value.bound.items()))
    if isinstance(value, og.Pipeline):
        return "Pipeline", value.edges, tuple(_portable_form(step) for step in value.steps)
    return exact_form(value)


# The fixed expressions of the compile_grammar benchmark workload.
FIXED_EXPRS = ("PCA >> (J48 | LR)",
               "(MinMaxScaler | StandardScaler) >> BoostedEnsemble(base=PrunedTree)")


class TestKeptFragments:
    """A schema leaf keeps its PCS parameter, that parameter's PCS line and
    verdicts, and a range's draw plan, and an operator keeps its leaf IR per
    path, each built on first use: what any later compile emits and decodes
    from them is what fresh leaves and operators give."""

    @settings(max_examples=60, deadline=None)
    @given(name=st.sampled_from(["linear_stages", "feature_union"]),
           seed=st.integers(0, 2**31 - 1), depth=st.integers(1, 4),
           warm=st.lists(st.integers(0, 2**31 - 1), max_size=3), keep=st.booleans(),
           cont_samples=st.integers(1, 3), grid_seed=st.integers(0, 2**32))
    def test_grammar_samples_emit_what_a_fresh_registry_does(self, name, seed, depth, warm,
                                                              keep, cont_samples, grid_seed):
        registry = toyml.load_registry()
        grammar = parse_grammar((GRAMMAR_DIR / f"{name}.grammar").read_text(), registry)
        fresh = _emitted(lambda: grammar_engine.sample(grammar, seed, depth, registry), keep,
                         cont_samples, grid_seed)
        # The shared registry's leaves, warmed by other compiles and emissions.
        for other in (seed, *warm):
            for other_keep in (True, False):
                _emitted(lambda: grammar_engine.sample(_grammar(name), other, depth, REGISTRY),
                         other_keep, 2, other)
        _emitted(lambda: grammar_engine.unfold(_grammar(name), 2, REGISTRY), keep, 1, 0)
        for _ in range(2):
            assert _emitted(lambda: grammar_engine.sample(_grammar(name), seed, depth, REGISTRY),
                            keep, cont_samples, grid_seed) == fresh
        # Whole trees, kept by their youngest leaf: the unfolded tree and the
        # fixed expressions, each against a registry of its own.
        trees = [lambda r, g: grammar_engine.unfold(g, 2, r)] + [
            lambda r, g, expr=expr: parse_expr(expr, r) for expr in FIXED_EXPRS]
        for tree in trees:
            for tree_keep in (True, False):
                fresh = toyml.load_registry()
                grammar = parse_grammar((GRAMMAR_DIR / f"{name}.grammar").read_text(), fresh)
                expected = _emitted(lambda: tree(fresh, grammar), tree_keep, cont_samples,
                                    grid_seed)
                for _ in range(2):
                    assert _emitted(lambda: tree(REGISTRY, _grammar(name)), tree_keep,
                                    cont_samples, grid_seed) == expected

    def test_copies_of_a_warmed_operator_compile_as_fresh_ones(self, blobs):
        # Were an operator's kept leaf IRs copied with its __dict__, a copy
        # that binds other values would compile to the leaf of the operator
        # it was made from: `configure(knn, {"k": 3})` would search k.
        copies = {
            "configured": lambda r: configure(r["KNN"], {"k": 3}),
            "configured_twice": lambda r: configure(configure(r["KNN"], {"k": 3}),
                                                    {"weighting": "distance"}),
            "frozen": lambda r: freeze_trainable(r["KNN"]),
            "replaced": lambda r: dataclasses.replace(r["KNN"], bound={"k": 5}),
            "slot_configured": lambda r: configure(configure(
                r["BoostedEnsemble"], {"base": r["PrunedTree"]}), {"n_estimators": 3}),
            "trained": lambda r: og.fit(configure(r["KNN"], {}), blobs),
            "frozen_trained": lambda r: og.freeze_trained(og.fit(configure(r["PrunedTree"], {}),
                                                                 blobs)),
            "pickled": lambda r: pickle.loads(pickle.dumps(configure(r["KNN"], {"k": 7}))),
            "deep_copied": lambda r: copy.deepcopy(configure(r["BoostedEnsemble"],
                                                             {"base": r["PrunedTree"]})),
        }

        def emitted(registry, made, keep):
            return _emitted(lambda: pipe(registry["Scaler"], made), keep, 1, 0)

        fresh = {}
        for name, make in copies.items():
            for keep in (True, False):
                registry = toyml.load_registry()
                fresh[name, keep] = emitted(registry, make(registry), keep)
        # Warm the registry, and each operator a copy is made from, at the
        # path the copies compile at and at others, with decodes.
        registry = toyml.load_registry()
        made = {name: make(registry) for name, make in copies.items()}
        sources = [registry[name] for name in ("KNN", "PrunedTree")] + [
            made["slot_configured"], made["deep_copied"], made["configured"]]
        for op in sources:
            for place in (lambda op: op, lambda op: pipe(registry["Scaler"], op),
                          lambda op: choose([op, registry["LR"]])):
                for keep in (True, False):
                    _emitted(lambda: place(op), keep, 1, 0)
        for name, make in copies.items():
            for keep in (True, False):
                assert emitted(registry, make(registry), keep) == fresh[name, keep], name
                # Copies of warmed copies, made after the warming.
                assert emitted(registry, pickle.loads(pickle.dumps(made[name])),
                               keep) == fresh[name, keep], name
                assert emitted(registry, copy.deepcopy(made[name]),
                               keep) == fresh[name, keep], name
        for op in sources:
            # Each source, compiled alone, keeps its tree: a later compile of
            # it shares that tree, and a compile of a copy does not.
            trees = {keep: sb.combine(op, keep) for keep in (True, False)}
            for copied in (op._copy(op.bound, op.state, op.artifacts), dataclasses.replace(op),
                           pickle.loads(pickle.dumps(op)), copy.deepcopy(op)):
                assert copied == op and "_compiled" not in vars(copied)
                for keep in (True, False):
                    assert sb.combine(op, keep) is trees[keep]
                    assert sb.combine(copied, keep) is not trees[keep]

    def test_copies_carry_fields_only(self, blobs):
        # What an operator's __dict__ holds besides its fields, such as the
        # IRs compiled from it, stays with it: every copy holds its fields
        # alone, in field order.
        fields = [f.name for f in dataclasses.fields(og.Individual)]
        registry = toyml.load_registry()
        planned = registry["KNN"]
        trainable = configure(registry["PrunedTree"], {"maxDepth": 2})
        for op in (planned, trainable):
            _emitted(lambda: pipe(registry["Scaler"], op), True, 1, 0)
            assert set(vars(op)) > set(fields)  # it keeps the IRs compiled from it
            vars(op)["extra"] = 1
        trained = og.fit(trainable, blobs)
        assert list(vars(trained)) == fields
        vars(trained)["extra"] = 1
        copies = {
            "configured": configure(planned, {"k": 3}),
            "configured_empty": configure(planned, {}),
            "frozen": freeze_trainable(planned),
            "replaced": dataclasses.replace(planned),
            "refitted": og.fit(configure(trained, {"C": 0.1}), blobs),
            "frozen_trained": og.freeze_trained(trained),
        }
        for op in (planned, trainable, trained):
            copies[f"pickled {op.name}"] = pickle.loads(pickle.dumps(op))
            copies[f"deep_copied {op.name}"] = copy.deepcopy(op)
        for name, copied in copies.items():
            assert list(vars(copied)) == fields, name

    @pytest.mark.parametrize("keep", [True, False])
    def test_a_tree_of_configured_copies_meets_no_kept_tree(self, keep):
        # The kept trees of registry leaves are keyed by leaf identity: the
        # same tree with `configure(knn, {"k": 3})` in KNN's place, which has
        # KNN's name, compiles as on a fresh registry, not to the kept tree
        # that searches k.
        trees = {
            "pipe": lambda r, knn: pipe(r["Scaler"], knn),
            "choice": lambda r, knn: choose([r["LR"], knn]),
            "nested": lambda r, knn: pipe(r["Scaler"], choose([knn, r["J48"]])),
            "slot": lambda r, knn: pipe(r["Scaler"], configure(r["BoostedEnsemble"],
                                                               {"base": knn})),
            "first": lambda r, knn: pipe(knn, r["Scaler"]),
        }
        for name, tree in trees.items():
            fresh = toyml.load_registry()
            expected = _emitted(lambda: tree(fresh, configure(fresh["KNN"], {"k": 3})), keep, 1, 0)
            registry = toyml.load_registry()
            kept = _emitted(lambda: tree(registry, registry["KNN"]), keep, 1, 0)
            assert kept != expected, name
            for _ in range(2):
                assert _emitted(lambda: tree(registry, configure(registry["KNN"], {"k": 3})),
                                keep, 1, 0) == expected, name

    @pytest.mark.parametrize("keep", [True, False])
    def test_an_operator_twice_in_one_choice_compiles_as_two_equal_ones(self, keep):
        # Both leaves sit at the choice's path, each with its own
        # collision-free path, which names its disjunct selector.
        registry = toyml.load_registry()
        lr = registry["LR"]
        apart = _emitted(lambda: pipe(registry["Scaler"], choose([lr, dataclasses.replace(lr)])),
                         keep, 1, 0)
        for _ in range(2):
            assert _emitted(lambda: pipe(registry["Scaler"], choose([lr, lr])), keep, 1, 0) == apart

    def test_a_leaf_at_another_path_with_a_collision_free_path_alike_is_another(self):
        # A step's token is its operator's name lowercased, and a branch's
        # value the name itself, so an operator named "x" has the
        # collision-free path "step0__x" both as a branch of a choice at
        # "step0" and as a step of a pipeline at "step0", whose path is
        # "step0__x".
        registry = toyml.load_registry()

        def trees(x):
            return [og.Pipeline((choose([x, registry["LR"]]),), ()),
                    og.Pipeline((pipe(x, registry["LR"]),), ())]

        def named_x():
            return og.Individual("x", registry["KNN"].schema)

        expected = [_emitted(lambda: trees(named_x())[i], True, 1, 0) for i in range(2)]
        x = named_x()
        for _ in range(2):
            assert [_emitted(lambda: tree, True, 1, 0) for tree in trees(x)] == expected

    @pytest.mark.parametrize("expr", FRESH_AFTER_REGISTRY)
    def test_a_fresh_step_after_a_registry_step_dies_with_its_tree(self, expr):
        # The tree is kept by its youngest operator leaf, the fresh step, so
        # no registry operator keeps the fresh one alive.
        registry = toyml.load_registry()
        op = parse_expr(expr, registry)
        fresh = weakref.ref(op.steps[1])
        assert op.steps[0] is registry["Scaler"]
        assert all(fresh() is not known for known in registry.values())
        compiled = compile_space(op)
        rng = random.Random(5)
        decoded = [compiled.decode(sample_space(compiled.hierarchical(), rng)),
                   compiled.decode_pcs(read_pcs(compiled.pcs()).sample(rng))]
        del op, compiled
        gc.collect()
        assert fresh() is None
        assert _registry_entries(registry) > 0 and len(decoded) == 2

    def test_compiles_of_fresh_steps_keep_no_more_in_the_registry(self):
        registry = toyml.load_registry()
        counts = set()
        for _ in range(2000):
            for expr in FRESH_AFTER_REGISTRY:
                compiled = compile_space(parse_expr(expr, registry))
                compiled.hierarchical()
                compiled.pcs()
            counts.add(_registry_entries(registry))
        assert len(counts) == 1

    @settings(max_examples=100, deadline=None)
    @given(source=st.integers(0, 2**32 - 1), keep=st.booleans(),
           cont_samples=st.integers(1, 3), grid_seed=st.integers(0, 2**32))
    def test_random_schemas_emit_what_fresh_ones_do(self, source, keep, cont_samples, grid_seed):
        def operator():
            schema = test_space_normalizer.TestRandomizedEquivalence()._random_schema(
                random.Random(source))[0]
            return og.Individual("R", schema)

        fresh = _emitted(operator, keep, cont_samples, grid_seed)
        op = operator()
        for warm in (lambda: pipe(op, REGISTRY["KNN"]), lambda: choose([REGISTRY["KNN"], op]),
                     lambda: op):
            for warm_keep in (True, False):
                _emitted(warm, warm_keep, 2, source)
        for _ in range(2):
            assert _emitted(lambda: op, keep, cont_samples, grid_seed) == fresh

    def test_equal_enum_leaves_keep_their_own_spelling(self):
        # The three leaves are equal and hash alike, so fragments kept by
        # value would print whichever compiled first.
        def operators():
            return [og.Individual(f"E{i}", sm.parse_schema({"type": "object", "properties": {
                "x": {"enum": [value]}}})) for i, value in enumerate([1, True, 1.0])]

        tails = [" {1} [1]\n", " {true} [true]\n", " {1.0} [1.0]\n"]
        leaves = [op.schema.normal_form.disjuncts[0]["x"] for op in operators()]
        assert leaves[0] == leaves[1] == leaves[2]
        assert len({hash(leaf) for leaf in leaves}) == 1
        for order in itertools.permutations(range(3)):
            ops = operators()
            for i in order:
                assert f"e{i}__x{tails[i]}" in compile_space(ops[i]).pcs()
            text = compile_space(choose([ops[i] for i in order])).pcs()
            assert all(tail in text for tail in tails)

    def test_a_parsed_space_builds_one_plan_per_numeric_node(self, registry, monkeypatch):
        text = compile_space(parse_expr("Scaler >> (PrunedTree | LogRegGD | KNN)",
                                        registry)).pcs()
        space, again = read_pcs(text), read_pcs(text)
        numeric = [name for name, node in space.parameters.items()
                   if isinstance(node, RangeNode)]
        plans = []
        draw_plan = sb._draw_plan
        monkeypatch.setattr(sb, "_draw_plan", lambda *args: plans.append(args) or draw_plan(*args))
        rng = random.Random(5)
        points = [space.sample(rng) for _ in range(300)]
        assert {name for point in points for name in point} >= set(numeric)  # each was drawn
        assert len(plans) == len(numeric) > 0
        # Another parsed space builds its own plans, and draws the same.
        rng = random.Random(5)
        assert [again.sample(rng) for _ in range(300)] == points
        assert len(plans) == 2 * len(numeric)

    def test_a_grid_builds_its_plans_once_per_leaf(self, registry, monkeypatch):
        compiled = compile_space(parse_expr("Scaler >> (PrunedTree | LogRegGD | KNN)", registry))
        plans = []
        draw_plan = sb._draw_plan
        monkeypatch.setattr(sb, "_draw_plan", lambda *args: plans.append(args) or draw_plan(*args))
        first = json.dumps(compiled.grid(3, 1))
        built = len(plans)
        assert json.dumps(compile_space(compiled.op).grid(3, 1)) == first
        assert len(plans) == built

    @pytest.mark.parametrize("expr", FIXED_EXPRS + ("Scaler >> (PrunedTree | LogRegGD | KNN)",))
    def test_pcs_text_of_a_warm_registry_is_a_fresh_ones(self, expr):
        # The IR keeps its checked text: a later call hands back that str.
        expected = compile_space(parse_expr(expr, toyml.load_registry())).pcs()
        registry = toyml.load_registry()
        for keep in (True, False, True):
            compiled = compile_space(parse_expr(expr, registry), keep)
            text = compiled.pcs()
            assert compiled.pcs() is text is compiled.ir.__dict__["pcs_text"]
        assert text == expected

    def test_a_kept_pcs_text_still_refuses_above_the_cap(self, registry):
        ir = compile_space(parse_expr("PCA >> (J48 | LR) >> (KNN | LR)", registry)).ir
        text = emit_pcs(ir)
        for _ in range(2):
            with pytest.raises(BlowupExceeded, match=f"^flat size {ir.flat_count} exceeds"):
                emit_pcs(ir, ir.flat_count - 1)
            assert emit_pcs(ir, ir.flat_count) is text

    def test_an_unreadable_name_refuses_on_every_call(self):
        op = og.Individual("T", sm.parse_schema({"type": "object", "properties": {
            "a b": {"enum": [1, 2]}}}))
        ir = compile_space(op).ir
        for _ in range(3):
            with pytest.raises(CompileError, match="^PCS parameter 't__a b': 't__a b' would not"):
                emit_pcs(ir)
            assert "pcs_text" not in ir.__dict__

    @pytest.mark.parametrize("prop,message", [
        ({"a b": {"enum": ["c,d", 1, "1"]}}, "PCS parameter 't__a b': 't__a b' would not read back "
         "(PCS names and values hold no whitespace and none of # | , = { } [ ])"),
        ({"x": {"enum": [1, "c,d", "1"]}}, "PCS parameter 't__x': 'c,d' would not read back "
         "(PCS names and values hold no whitespace and none of # | , = { } [ ])"),
        ({"x": {"enum": [1, "e", "1"]}}, "PCS parameter 't__x': values {1, e, 1} spell alike, "
         "so PCS text cannot tell them apart"),
    ], ids=["unreadable_name", "unreadable_value", "spelled_alike"])
    def test_refusals_keep_their_messages(self, prop, message):
        # The name is refused before its values, and an unreadable value
        # before values that spell alike; again from the kept verdicts.
        op = og.Individual("T", sm.parse_schema({"type": "object", "properties": prop}))
        for _ in range(2):
            with pytest.raises(CompileError) as refused:
                compile_space(op).pcs()
            assert str(refused.value) == message


# ---------------------------------------------------------------------------
# Decoding through a space's plan against the decoder it replaced


def reference_decode(ir, point):
    """decode as it was before decode plans: it derives each leaf's names,
    domains and defaults again on every call."""
    if isinstance(ir, StepMapIR):
        decoded = [reference_decode(child, point) for _, child in ir.steps]
        if ir.wrapper:
            return decoded[0]
        return og.Pipeline(tuple(decoded), ir.edges)
    if isinstance(ir, ChoiceIR):
        value = point.get(ir.discriminant)
        if value is None:
            raise sb.DecodeError(f"point is missing discriminant {ir.discriminant!r}")
        for branch_value, body in ir.branches:
            if branch_value == str(value):
                return reference_decode(body, point)
        raise sb.UnknownMarker(f"{ir.discriminant!r} has no branch {value!r}")
    assert isinstance(ir, LeafIR)
    config = {}
    for name in ir.nf.names():
        domains = [d[name] for d in ir.nf.disjuncts if name in d]
        if isinstance(domains[0], SearchIR):
            config[name] = reference_decode(domains[0], point)
            continue
        key = sb._join(ir.prefix, name)
        if key in point:
            config[name] = sb._coerce(domains, point[key])
    return configure(ir.op, config)


def reference_decode_pcs_point(ir, point):
    """decode_pcs_point as it was: the PCS model built again per point."""
    model = sb.PcsSpace({}, {})
    sb._pcs_build(ir, (), None, model)
    out = {}
    for name, value in point.items():
        entry = model.decode_map.get(name)
        if entry is None:
            raise sb.UnknownMarker(f"point names unknown parameter {name!r}")
        if entry[0] == "selector":
            continue
        _, public, domains = entry
        out[public] = sb._coerce(domains, value)
    return out


def _outcome(fn, *args):
    """A result with its repr (so 1, 1.0 and True differ), or the type,
    message and report of what was raised."""
    try:
        result = fn(*args)
    except Exception as exc:
        return ("raised", type(exc), str(exc), getattr(exc, "report", None))
    return ("returned", result, repr(result))


ODD_VALUES = ["zzz", 1e9, -1, True, None, 0.5, "0"]


def _mutated(point, rng):
    """The point unchanged, less one name, with one value replaced by an odd
    one, or with an unknown name added."""
    point = dict(point)
    kind = rng.randrange(4)
    if kind == 1 and point:
        del point[rng.choice(sorted(point))]
    elif kind == 2 and point:
        point[rng.choice(sorted(point))] = rng.choice(ODD_VALUES)
    elif kind == 3:
        point["no__such__param"] = 1
    return point


def _encoded_points(compiled, rng, count):
    """(encoding, point) pairs: hierarchical draws, the default point and
    draws from the space compiled without constraints (which a constrained
    space may refute), then PCS draws and grid cells unless the space is too
    large to emit."""
    loose = compile_space(compiled.op, keep_constraints=False)
    points = [("hier", sample_space(space.hierarchical(), rng))
              for space in (compiled, loose) for _ in range(count)]
    points.append(("hier", default_point(compiled.ir)))
    try:
        pcs = read_pcs(compiled.pcs())
        grid = compiled.grid(1, rng.randrange(4))
    except BlowupExceeded:
        return points
    points += [("pcs", pcs.sample(rng)) for _ in range(count)]
    for _ in range(count):
        params = rng.choice(grid["disjuncts"])["params"]
        points.append(("grid", {name: rng.choice(values) for name, values in params.items()}))
    return points


class TestDecodePlan:
    @settings(max_examples=150, deadline=None)
    @given(ir=compiled_irs())
    def test_the_per_name_table_matches_the_disjunct_walks(self, ir):
        # Every disjunct of a leaf names the same hyperparameters, in the
        # same order, so one table per leaf (LeafIR.entries) gives the keys,
        # in order, the PCS plan and the decode table that walking each
        # disjunct for its own names gave.
        assert list(sb._point_keys(ir).items()) == list(reference_point_keys(ir).items())
        for leaf in _leaves(ir):
            names = [list(disjunct) for disjunct in leaf.nf.disjuncts]
            assert all(other == names[0] for other in names)
            assert list(leaf.point_keys.items()) == list(reference_point_keys(leaf).items())
            assert leaf.pcs_plan == reference_pcs_plan(leaf)
            assert leaf.entries == reference_entries(leaf)

    @settings(max_examples=100, deadline=None)
    @given(compiled=compiled_spaces(), seed=st.integers(0, 2**31 - 1))
    def test_decodes_like_the_reference(self, compiled, seed):
        # Every point goes through one space, so all but the first decode
        # of each leaf take its cached entries.
        rng = random.Random(seed)
        ir = compiled.ir
        for encoding, point in _encoded_points(compiled, rng, 4):
            point = _mutated(point, rng)
            if encoding == "pcs":
                expected = _outcome(lambda: reference_decode(
                    ir, reference_decode_pcs_point(ir, point)))
                assert _outcome(compiled.decode_pcs, point) == expected
                assert (_outcome(sb.decode_pcs_point, ir, point)
                        == _outcome(reference_decode_pcs_point, ir, point))
            else:
                expected = _outcome(reference_decode, ir, point)
                assert _outcome(compiled.decode, point) == expected
                assert _outcome(sb.decode, ir, point) == expected

    def test_defaults_complete_a_point_before_it_is_validated(self):
        # A negation over a latent name fires through that name's default,
        # so the schema's defaults decide whether this point is refuted.
        op = og.Individual("Latent", sm.parse_schema({"allOf": [
            {"type": "object", "properties": {
                "a": {"enum": ["x", "z"], "default": "x"},
                "d": {"enum": [None, 1], "default": None}}},
            {"not": {"type": "object", "properties": {"a": {"enum": ["z"]},
                                                      "d": {"enum": [None]}}}}]}))
        compiled = compile_space(op)
        for point in ({"latent__a": "z"}, {"latent__a": "z", "latent__d": 1}, {}):
            expected = _outcome(reference_decode, compiled.ir, point)
            assert _outcome(compiled.decode, point) == expected
        assert expected[0] == "returned"
        assert _outcome(compiled.decode, {"latent__a": "z"})[1] is og.ValidationFailed

    def test_spaces_sharing_an_operator_decode_apart(self, registry):
        shared = configure(registry["BoostedEnsemble"], {"base": registry["PrunedTree"]})
        spaces = [compile_space(pipe(registry["Scaler"], shared)),
                  compile_space(choose([shared, registry["KNN"]]), keep_constraints=False),
                  compile_space(pipe(shared, shared))]
        rng = random.Random(5)
        for _ in range(30):
            for compiled in spaces:
                point = sample_space(compiled.hierarchical(), rng)
                assert (_outcome(compiled.decode, point)
                        == _outcome(reference_decode, compiled.ir, point))

    def test_a_decoded_space_survives_pickle_and_deepcopy(self, registry):
        # The cached entries and PCS model travel with the objects they were
        # derived from, so a copy decodes with its own.
        spaces = [compile_space(parse_expr("PCA >> (J48 | LR)", registry)),
                  compile_space(pipe(registry["Scaler"], configure(
                      registry["BoostedEnsemble"], {"base": registry["PrunedTree"]})))]
        rng = random.Random(6)
        for compiled in spaces:
            compiled.grid(2, 0)  # emitting keeps nothing that would not pickle
            sb.flat_doc(compiled.flat())
            hier = compiled.hierarchical()
            pcs = read_pcs(compiled.pcs())
            for _ in range(5):
                compiled.decode(sample_space(hier, rng))
                compiled.decode_pcs(pcs.sample(rng))
            for restored in (pickle.loads(pickle.dumps(compiled)), copy.deepcopy(compiled)):
                ir = restored.ir
                assert "pcs_model" in vars(ir) and "entries" in vars(ir.steps[0][1])
                for _ in range(10):
                    point = sample_space(hier, rng)
                    assert (_outcome(restored.decode, point)
                            == _outcome(reference_decode, ir, point))
                    point = pcs.sample(rng)
                    assert (_outcome(restored.decode_pcs, point)
                            == _outcome(lambda: reference_decode(
                                ir, reference_decode_pcs_point(ir, point))))

    def test_decoded_pipelines_behave_like_constructed_ones(self, registry, monkeypatch):
        spaces = [compile_space(parse_expr(expr, registry)) for expr in
                  ("PCA >> (J48 | LR)", "(Scaler & PCA) >> Concat >> KNN")]
        spaces.append(compile_space(pipe(registry["Scaler"], configure(
            registry["BoostedEnsemble"], {"base": registry["PrunedTree"]}))))
        rng = random.Random(8)
        points = [(compiled, sample_space(compiled.hierarchical(), rng))
                  for compiled in spaces for _ in range(5)]
        checks = []
        check = og.Pipeline.__post_init__
        monkeypatch.setattr(og.Pipeline, "__post_init__",
                            lambda self: checks.append(self) or check(self))
        decoded = [compiled.decode(point) for compiled, point in points]
        # Each decoded pipeline runs its one edge check, in the constructor.
        assert len(checks) == len(decoded) and all(c is op for c, op in zip(checks, decoded))
        del checks[:]
        for op, (compiled, point) in zip(decoded, points):
            built = reference_decode(compiled.ir, point)
            assert type(op) is og.Pipeline and op == built
            assert exact_form(op) == exact_form(built)
            assert list(vars(op)) == list(vars(built))
            assert pickle.dumps(op) == pickle.dumps(built)
            for restored in (pickle.loads(pickle.dumps(op)), copy.deepcopy(op)):
                assert type(restored) is og.Pipeline and restored == built
                assert list(vars(restored)) == list(vars(built))
            with pytest.raises(dataclasses.FrozenInstanceError):
                op.edges = ()
        assert len(checks) == len(points)  # the reference went through the constructor

    def test_valid_decodes_build_no_violation(self, registry, monkeypatch):
        # Each failed anyOf alternative of a valid configuration is a probe,
        # which records no violation.
        built = []
        init = sm.Violation.__init__
        monkeypatch.setattr(sm.Violation, "__init__",
                            lambda self, *args: built.append(args) or init(self, *args))
        rng = random.Random(1)
        for expr in ("Scaler >> (PrunedTree | LogRegGD | KNN)", "PCA >> (J48 | LR)"):
            compiled = compile_space(parse_expr(expr, registry))
            hier = compiled.hierarchical()
            for _ in range(300):
                compiled.decode(sample_space(hier, rng))
        assert built == []

    def test_compiling_and_emitting_cache_no_decode_data(self):
        # Compiling builds each leaf's per-name table, which the point keys
        # read too; of the decode data, only the PCS emitter builds the PCS
        # model, and decoding reuses it. A fresh registry: a tree some
        # earlier test emitted PCS for is kept by its youngest leaf.
        compiled = compile_space(parse_expr("PCA >> (J48 | LR)", toyml.load_registry()))
        pca = compiled.ir.steps[0][1]
        leaves = [pca, *(body for _, body in compiled.ir.steps[1][1].branches)]
        assert all("entries" in vars(leaf) for leaf in leaves)
        compiled.hierarchical()
        sb.flat_doc(compiled.flat())
        compiled.grid(2, 0)
        assert "pcs_model" not in vars(compiled.ir)
        text = compiled.pcs()
        assert text == emit_pcs(compiled.ir)
        model = vars(compiled.ir)["pcs_model"]  # the PCS emitter keeps its model
        pcs = read_pcs(text)
        rng = random.Random(2)
        for _ in range(3):
            compiled.decode(sample_space(compiled.hierarchical(), rng))
            compiled.decode_pcs(pcs.sample(rng))
        assert compiled.pcs() == text and compiled.ir.pcs_model is model

    def test_the_pcs_model_is_built_once_per_ir(self, monkeypatch):
        # Fresh registries: a tree's IR, and so its model, is kept by the
        # tree's youngest leaf, so the expected text comes from other leaves.
        compiled = compile_space(parse_expr("PCA >> (J48 | LR)", toyml.load_registry()))
        assert sb.combine(compiled.op) is compiled.ir
        pcs = read_pcs(emit_pcs(sb.combine(parse_expr("PCA >> (J48 | LR)",
                                                      toyml.load_registry()))))
        rng = random.Random(4)
        points = [pcs.sample(rng) for _ in range(3)]
        expected = [reference_decode_pcs_point(compiled.ir, point) for point in points]
        roots = []
        build = sb._pcs_build

        def counted(ir, ctx, branch_ctx, model):
            if ir is compiled.ir:
                roots.append(model)
            return build(ir, ctx, branch_ctx, model)

        monkeypatch.setattr(sb, "_pcs_build", counted)
        assert read_pcs(compiled.pcs()) == pcs
        assert read_pcs(emit_pcs(compiled.ir)) == pcs
        for point, want in zip(points, expected):
            assert sb.decode_pcs_point(compiled.ir, point) == want
            assert sb.decode_pcs_point(compiled.ir, point) == want
            compiled.decode_pcs(point)
        assert roots == [compiled.ir.pcs_model]

    def test_a_decoded_space_frees_its_ir(self):
        registry = toyml.load_registry()
        compiled = compile_space(pipe(registry["Scaler"], configure(
            registry["BoostedEnsemble"], {"base": registry["PrunedTree"]})))
        ir = weakref.ref(compiled.ir)
        rng = random.Random(3)
        decoded = [compiled.decode(sample_space(compiled.hierarchical(), rng)),
                   compiled.decode_pcs(read_pcs(compiled.pcs()).sample(rng)),
                   sb.decode(compiled.ir, default_point(compiled.ir))]
        del compiled
        gc.collect()
        # Kept by the tree's youngest operator leaf, the fresh BoostedEnsemble,
        # so it dies with that leaf while the registry lives on.
        assert ir() is None
        assert "Scaler" in registry
        assert len(decoded) == 3  # decoded operators do not hold the IR


# ---------------------------------------------------------------------------
# Decoding with the allocation-free configure against the allocating one


ADVERSARIAL_VALUES = [True, False, 1, 1.0, "1", -0.0, 0.0, math.nan, math.inf, -math.inf,
                      2**53 + 1, 10**400, None, "", "x", [], [1], {}, {"x": 1},
                      og.Individual("Inner", sm.parse_schema({"type": "object"})),
                      {"operator": "Inner"}]


def _adversarial(point, rng):
    """The point with one value replaced by an adversarial one, or with an
    unknown name added, or unchanged."""
    point = dict(point)
    kind = rng.randrange(3)
    if kind == 1 and point:
        point[rng.choice(sorted(point))] = rng.choice(ADVERSARIAL_VALUES)
    elif kind == 2:
        point[rng.choice(["no__such__param", "unknown"])] = rng.choice(ADVERSARIAL_VALUES)
    return point


def _exact_decode(decode, point):
    try:
        return "returned", exact_form(decode(point))
    except Exception as exc:
        return "raised", type(exc), str(exc), getattr(exc, "report", None)


class TestDecodeMatchesAllocatingReference:
    @settings(max_examples=100, deadline=None)
    @given(compiled=compiled_spaces(), seed=st.integers(0, 2**31 - 1))
    def test_same_operators_bit_for_bit(self, compiled, seed):
        rng = random.Random(seed)
        cases = [(compiled.decode_pcs if encoding == "pcs" else compiled.decode,
                  _adversarial(point, rng))
                 for encoding, point in _encoded_points(compiled, rng, 3)]
        got = [_exact_decode(decode, point) for decode, point in cases]
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(sb, "configure", reference_configure)
            expected = [_exact_decode(decode, point) for decode, point in cases]
        assert got == expected
