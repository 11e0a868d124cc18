"""Acceptance criteria, one test per criterion, each with its stated
tolerance and runtime budget. Run with ``pytest tests/test_acceptance.py -v -s``
to see one PASS line per criterion."""

import itertools
import json
import random
import statistics
import time

import pytest

from lalec import optimizer as opt
from lalec import schema_model as sm
from lalec import toyml
from lalec.cli import main as cli_main
from lalec.grammar_engine import derives, sample as grammar_sample, unfold
from lalec.operator_graph import configure
from lalec.pipeline_dsl import parse_expr, parse_grammar
from lalec.space_backends import (
    ChoiceIR,
    LeafIR,
    StepMapIR,
    compile_space,
    read_pcs,
    sample_space,
)
from lalec.space_normalizer import Cat, Cont, member, normalize

from conftest import probe_lattice


def report(number, description, elapsed=None):
    suffix = f" ({elapsed:.2f}s)" if elapsed is not None else ""
    print(f"PASS criterion {number}: {description}{suffix}")


def canon_nf(nf):
    rows = []
    for disjunct in nf.disjuncts:
        row = {}
        for name, domain in disjunct.items():
            if isinstance(domain, Cat):
                row[name] = ("cat", tuple(domain.values))
            else:
                row[name] = ("cont", domain.lo, domain.hi, domain.lo_open, domain.hi_open)
        rows.append(tuple(sorted(row.items())))
    return sorted(rows)


def test_criterion_1_normal_form_exactness(registry):
    start = time.perf_counter()
    expected = {
        "PCA": sorted([
            (("N", ("cont", 0.0, 1.0, True, True)),),
            (("N", ("cat", ("mle",))),),
        ]),
        "J48": sorted([
            (("C", ("cont", 0.0, 0.5, True, True)), ("R", ("cat", (False,)))),
            (("C", ("cat", (0.25,))), ("R", ("cat", (True, False)))),
        ]),
        "LR": sorted([
            (("penalty", ("cat", ("l1", "l2"))), ("solver", ("cat", ("linear",)))),
            (("penalty", ("cat", ("l2",))), ("solver", ("cat", ("linear", "sag", "lbfgs")))),
        ]),
    }
    for name, want in expected.items():
        assert canon_nf(normalize(registry[name].schema)) == want, name
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    report(1, "normal forms of the three fixture schemas are exact", elapsed)


def _probes(registry, name):
    domains = sm.declared_domains(registry[name].schema)
    axes = []
    for prop, node in sorted(domains.items()):
        values = []
        children = node.children if isinstance(node, sm.AnyOfNode) else (node,)
        for child in children:
            if isinstance(child, sm.EnumNode):
                values.extend(child.values)
            elif isinstance(child, sm.RangeNode):
                values.extend(probe_lattice(child.lo, child.hi))
        axes.append([(prop, v) for v in values])
    return [dict(combo) for combo in itertools.product(*axes)]


def test_criterion_2_equivalence_oracle(registry):
    start = time.perf_counter()
    total = 0
    for name in ("PCA", "J48", "LR"):
        schema = registry[name].schema
        nf = normalize(schema)
        for config in _probes(registry, name):
            assert member(nf, config) == sm.validate(config, schema).ok, (name, config)
            total += 1
    elapsed = time.perf_counter() - start
    assert total >= (17 + 1) + 2 * 17 + 6
    assert elapsed < 5.0
    report(2, f"membership agrees with validation on all {total} probes", elapsed)


def test_criterion_3_ir_and_flat_backend(registry):
    start = time.perf_counter()
    compiled = compile_space(parse_expr("PCA >> (J48 | LR)", registry))
    ir = compiled.ir
    assert isinstance(ir, StepMapIR)
    steps = dict(ir.steps)
    assert isinstance(steps["pca"], LeafIR) and len(steps["pca"].nf.disjuncts) == 2
    choice = steps["step1"]
    assert isinstance(choice, ChoiceIR)
    assert [v for v, _ in choice.branches] == ["J48", "LR"]
    assert [len(body.nf.disjuncts) for _, body in choice.branches] == [2, 2]

    rows = compiled.flat()
    assert len(rows) == 8

    def canon(row):
        out = {}
        for name, domain in row.items():
            out[name] = (tuple(domain.values) if isinstance(domain, Cat)
                         else (domain.lo, domain.hi))
        return tuple(sorted(out.items()))

    expected = set()
    for n in ((0.0, 1.0), ("mle",)):
        expected.add(tuple(sorted({"pca__N": n, "step1__D": ("J48",),
                                   "step1__R": (False,), "step1__C": (0.0, 0.5)}.items())))
        expected.add(tuple(sorted({"pca__N": n, "step1__D": ("J48",),
                                   "step1__R": (True, False), "step1__C": (0.25,)}.items())))
        expected.add(tuple(sorted({"pca__N": n, "step1__D": ("LR",),
                                   "step1__solver": ("linear",),
                                   "step1__penalty": ("l1", "l2")}.items())))
        expected.add(tuple(sorted({"pca__N": n, "step1__D": ("LR",),
                                   "step1__solver": ("linear", "sag", "lbfgs"),
                                   "step1__penalty": ("l2",)}.items())))
    assert {canon(r) for r in rows} == expected
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    report(3, "combined IR has the expected nested shape; flat backend emits the 8 rows", elapsed)


def test_criterion_4_pcs_round_trip(registry):
    compiled = compile_space(parse_expr("PCA >> (J48 | LR)", registry))
    text = compiled.pcs()
    space = read_pcs(text)
    assert space.parameters  # re-parses under the bundled reader

    rng = random.Random(2024)
    for _ in range(1000):
        point = space.sample(rng)
        decoded = compiled.decode_pcs(point)
        for step in decoded.steps:
            assert sm.validate(step.bound, step.schema).ok, point
        j48_active = any(k.startswith("step1__C") or k.startswith("step1__R")
                         for k in point)
        assert j48_active == (point["step1__D"] == "J48")
    report(4, "PCS re-parses; 1000 samples decode valid; J48 parameters "
              "activate only under their discriminant")


def test_criterion_5_grid_structure(registry):
    compiled = compile_space(parse_expr("PCA >> (J48 | LR)", registry))
    flat_rows = compiled.flat()
    for seed in (0, 7, 123):
        grid = compiled.grid(1, seed)
        assert len(grid["disjuncts"]) == 8
        cells = 0
        for row, disjunct in zip(flat_rows, grid["disjuncts"]):
            size = 1
            for name, values in disjunct["params"].items():
                domain = row[name]
                if isinstance(domain, Cont):
                    assert len(values) == 2, (seed, name, values)
                    assert values[0] == domain.default
                    assert all(isinstance(v, float) for v in values)
                else:
                    assert values == list(domain.values)
                size *= len(values)
            cells += size
        assert grid["cellCount"] == cells
    report(5, "grid discretization has the expected arity with defaults first")


def test_criterion_6_early_error_check(capsys):
    start = time.perf_counter()
    code = cli_main(["validate", "--op", "LR",
                     "--config", '{"solver": "sag", "penalty": "l1"}'])
    elapsed = time.perf_counter() - start
    assert code != 0
    out = capsys.readouterr().out
    assert "constraintViolated" in out and "l2" in out
    assert elapsed < 0.1, f"validation took {elapsed * 1000:.1f} ms"
    report(6, f"misconfiguration rejected in {elapsed * 1000:.1f} ms with a "
              "constraint message")


def test_criterion_7_constrained_search_guarantee(registry, blobs):
    start = time.perf_counter()
    op = parse_expr("Scaler >> (PrunedTree | LogRegGD | KNN)", registry)
    compiled = compile_space(op)
    objective = opt.make_cv_objective(compiled, blobs, folds=3)
    for seed in range(5):
        spec = opt.OptimizerSpec(max_trials=500, seed=seed)
        history = opt.random_search(compiled.hierarchical(), objective, spec)
        assert history.count(opt.INVALID_CONFIG) == 0, seed
        assert history.count(opt.RUNTIME_ERROR) == 0, seed
    report(7, "5 x 500 constrained random trials with zero invalid "
              "configurations or constraint traps", time.perf_counter() - start)


def test_criterion_8_ablation_dynamics(registry, blobs):
    start = time.perf_counter()
    op = parse_expr("Scaler >> (PrunedTree | LogRegGD | KNN)", registry)

    def run(keep_constraints, seed):
        compiled = compile_space(op, keep_constraints=keep_constraints)
        objective = opt.make_cv_objective(compiled, blobs, folds=3)
        spec = opt.OptimizerSpec(strategy="bandit", max_trials=200, seed=seed)
        return opt.bandit_search(compiled.hierarchical(), objective, spec)

    def tree_share(history):
        window = [t for t in history.trials if 100 <= t.index < 200]
        return sum(1 for t in window if t.point["step1__D"] == "PrunedTree") / len(window)

    share_lower = best_not_worse = 0
    for seed in range(5):
        constrained = run(True, seed)
        unconstrained = run(False, seed)
        assert unconstrained.invalid_count() >= 1, seed  # (a)
        share_lower += tree_share(unconstrained) < tree_share(constrained)
        best_c = constrained.trials[constrained.best].loss
        best_u = unconstrained.trials[unconstrained.best].loss
        best_not_worse += best_c <= best_u
    elapsed = time.perf_counter() - start
    assert share_lower >= 4  # (b)
    assert best_not_worse >= 4  # (c)
    assert elapsed < 180.0
    report(8, f"ablation reproduced: shares lower in {share_lower}/5 seeds, "
              f"constrained best <= unconstrained in {best_not_worse}/5", elapsed)


def test_criterion_9_grammar_engine(registry):
    start = time.perf_counter()
    text = (pytest.importorskip("pathlib").Path(__file__).parent.parent /
            "fixtures" / "grammars" / "linear_stages.grammar").read_text()
    grammar = parse_grammar(text, registry)

    def chains(op):
        from lalec.operator_graph import Choice, Individual, Pipeline

        if isinstance(op, Individual):
            return {() if op.name == "NoOp" else (op.name,)}
        if isinstance(op, Choice):
            out = set()
            for alt in op.alternatives:
                out |= chains(alt)
            return out
        assert isinstance(op, Pipeline)
        acc = {()}
        for step in op.steps:
            acc = {prefix + tail for prefix in acc for tail in chains(step)}
        return acc

    unfolded = unfold(grammar, 3, registry)
    language = chains(unfolded)
    for cleaners, transformers, est in itertools.product(
            range(3), range(3), ("PrunedTree", "LogRegGD", "KNN")):
        target = ("StandardScaler",) * cleaners + ("SelectKVariance",) * transformers + (est,)
        assert target in language, target

    assert chains(unfold(grammar, 2, registry)) <= language  # monotone in depth

    for seed in range(100):
        sampled = grammar_sample(grammar, seed, 3, registry)
        assert derives(grammar, sampled), seed
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    report(9, "depth-3 unfolding covers all small topologies; 100 samples "
              "are valid derivations", elapsed)


def test_criterion_10_higher_order_search(registry, xor_data):
    start = time.perf_counter()
    op = parse_expr("(MinMaxScaler | StandardScaler) >> BoostedEnsemble(base=PrunedTree)",
                    registry)
    compiled = compile_space(op)
    nested_keys = {k for row in compiled.flat() for k in row}
    assert "boostedensemble__base__maxDepth" in nested_keys
    assert "boostedensemble__base__C" in nested_keys

    default_score = toyml.cross_val_score(configure(registry["BoostedEnsemble"], {}),
                                          toyml.cv_splits(xor_data, 3))
    wins = 0
    for seed in range(5):
        objective = opt.make_cv_objective(compiled, xor_data, folds=3)
        spec = opt.OptimizerSpec(max_trials=50, seed=seed)
        history = opt.random_search(compiled.hierarchical(), objective, spec)
        best_score = 1.0 - history.trials[history.best].loss
        wins += best_score > default_score
    assert wins >= 3
    report(10, f"nested-dimension search beats the default ensemble in {wins}/5 seeds",
           time.perf_counter() - start)


def test_criterion_11_algebra_and_property_suite(registry, blobs):
    import copy

    from lalec.operator_graph import both, choose, graph_isomorphic, pipe

    start = time.perf_counter()
    a, b, c = registry["NoOp"], registry["Scaler"], registry["KNN"]

    # combinator associativity (pipe and both), commutativity of both
    assert graph_isomorphic(pipe(pipe(a, b), c), pipe(a, pipe(b, c)))
    assert graph_isomorphic(both(both(a, b), c), both(a, both(b, c)))
    assert graph_isomorphic(both(a, b), both(b, a))

    # no mutation by combinators or fit
    x = configure(registry["KNN"], {"k": 3})
    snapshot = copy.deepcopy(x)
    pipe(x, registry["LR"])
    choose([x, registry["LR"]])
    from lalec.operator_graph import fit

    fit(x, blobs)
    assert x == snapshot

    # choice flattening preserves the compiled space (modulo discriminants)
    from lalec.operator_graph import Choice

    flat_form = compile_space(choose([registry["KNN"], registry["LR"], registry["J48"]]))
    nested_form = compile_space(
        Choice((registry["KNN"], Choice((registry["LR"], registry["J48"])))))

    def space_signature(compiled):
        rows = []
        for row in compiled.flat():
            rows.append(tuple(sorted((k.split("__")[-1], repr(v))
                                     for k, v in row.items() if not k.endswith("__D"))))
        return sorted(rows)

    assert space_signature(flat_form) == space_signature(nested_form)

    # DSL parse/print round-trip over 200 random series-parallel pipelines
    from lalec.pipeline_dsl import parse_expr as parse, pretty_print

    names = ["NoOp", "Scaler", "StandardScaler", "MinMaxScaler",
             "SelectKVariance", "KNN", "LR", "J48", "Concat"]
    rng = random.Random(11)

    def random_op(depth):
        kind = rng.randrange(4) if depth < 3 else 3
        if kind == 3:
            return registry[rng.choice(names)]
        left, right = random_op(depth + 1), random_op(depth + 1)
        return [pipe, both, lambda l, r: choose([l, r])][kind](left, right)

    for _ in range(200):
        op = random_op(0)
        assert graph_isomorphic(op, parse(pretty_print(op), registry))

    # History determinism
    compiled = compile_space(parse("Scaler >> (PrunedTree | KNN)", registry))
    objective = opt.make_cv_objective(compiled, blobs, folds=3)
    spec = opt.OptimizerSpec(max_trials=25, seed=21)
    first = opt.random_search(compiled.hierarchical(), objective, spec)
    second = opt.random_search(compiled.hierarchical(), objective, spec)
    assert json.dumps(first.to_json(include_timing=False), sort_keys=True) == \
        json.dumps(second.to_json(include_timing=False), sort_keys=True)

    # loguniform median of 10,000 draws over (1, 1000) inside [20, 50]
    doc = {"kind": "disjuncts", "operator": "x", "disjuncts": [{
        "x": {"kind": "continuous", "lo": 1.0, "hi": 1000.0, "loOpen": False,
              "hiOpen": False, "integer": False, "distribution": "loguniform"}}]}
    draw_rng = random.Random(0)
    draws = [sample_space(doc, draw_rng)["x"] for _ in range(10000)]
    assert 20.0 <= statistics.median(draws) <= 50.0

    report(11, "algebra laws, round-trips, determinism, and sampling "
               "statistics all hold", time.perf_counter() - start)
