import itertools
import time
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from lalec import grammar_engine
from lalec.grammar_engine import (
    EmptyAfterPruning,
    GrammarError,
    NoTerminatingAlternative,
    UnfoldTooLarge,
    sample,
    unfold,
)
from lalec.operator_graph import Choice, Individual, Pipeline
from lalec.pipeline_dsl import (
    Both,
    Call,
    Choose,
    GrammarFile,
    NontermRef,
    Pipe,
    Ref,
    parse_grammar,
    pretty_print,
)
from lalec.space_normalizer import DEFAULT_BLOWUP_LIMIT

from oracles import derives, exact_form, reference_expand, reference_unfold

FIXTURES = Path(__file__).parent.parent / "fixtures" / "grammars"


@pytest.fixture(scope="module")
def linear_grammar(registry):
    return parse_grammar((FIXTURES / "linear_stages.grammar").read_text(), registry)


@pytest.fixture(scope="module")
def union_grammar(registry):
    return parse_grammar((FIXTURES / "feature_union.grammar").read_text(), registry)


def resolved_chains(op):
    """All linear operator-name chains a planned operator can realize,
    dropping the explicit no-op steps."""
    if isinstance(op, Individual):
        return {() if op.name == "NoOp" else (op.name,)}
    if isinstance(op, Choice):
        out = set()
        for alt in op.alternatives:
            out |= resolved_chains(alt)
        return out
    assert isinstance(op, Pipeline)
    order = sorted(range(len(op.steps)))
    assert set(op.edges) == {(order[i], order[i + 1]) for i in range(len(order) - 1)}
    chains = {()}
    for index in order:
        step_chains = resolved_chains(op.steps[index])
        chains = {prefix + tail for prefix in chains for tail in step_chains}
    return chains


class TestUnfold:
    def test_contains_no_nonterminals_and_builds(self, linear_grammar, registry):
        op = unfold(linear_grammar, 3, registry)
        assert isinstance(op, Pipeline)

    def test_depth3_admits_all_small_topologies(self, linear_grammar, registry):
        chains = resolved_chains(unfold(linear_grammar, 3, registry))
        estimators = ["PrunedTree", "LogRegGD", "KNN"]
        for cleaners, transformers, est in itertools.product(range(3), range(3), estimators):
            target = ("StandardScaler",) * cleaners + ("SelectKVariance",) * transformers + (est,)
            assert target in chains, target

    def test_unfold_monotone_in_depth(self, linear_grammar, registry):
        shallow = resolved_chains(unfold(linear_grammar, 2, registry))
        deep = resolved_chains(unfold(linear_grammar, 3, registry))
        assert shallow <= deep

    def test_non_recursive_grammar(self, registry):
        grammar = parse_grammar("start := NoOp >> KNN;", registry)
        for depth in (1, 2, 5):
            op = unfold(grammar, depth, registry)
            assert [s.name for s in op.steps] == ["NoOp", "KNN"]

    def test_unproductive_rule(self, registry):
        grammar = parse_grammar("start := start;", registry)
        with pytest.raises(EmptyAfterPruning):
            unfold(grammar, 3, registry)

    def test_pruned_alternative_is_never_configured(self, registry):
        # KNN(k=1000) does not validate, but its alternative never resolves.
        grammar = parse_grammar("start := KNN | a >> KNN(k=1000); a := a;", registry)
        assert unfold(grammar, 3, registry) == registry["KNN"]

    def test_pruned_choice_collapses_to_single_alternative(self, registry):
        grammar = parse_grammar("start := loop | KNN; loop := NoOp >> loop;", registry)
        op = unfold(grammar, 2, registry)
        assert isinstance(op, Individual)
        assert op.name == "KNN"

    def test_depth_must_be_positive(self, linear_grammar, registry):
        with pytest.raises(ValueError):
            unfold(linear_grammar, 0, registry)

    def test_deep_nesting_is_a_grammar_error(self, linear_grammar, registry):
        with pytest.raises(GrammarError, match="^the unfolded pipeline nests too deeply$"):
            unfold(linear_grammar, 400, registry)


def _node_count(ast) -> int:
    if isinstance(ast, (Pipe, Both, Choose)):
        return 1 + _node_count(ast.left) + _node_count(ast.right)
    return 1


def _outcome(unfolding, grammar, depth, registry):
    """The exact form of the unfolded operator, or the error's type and text."""
    try:
        return exact_form(unfolding(grammar, depth, registry))
    except Exception as exc:
        return type(exc), str(exc)


RULES = ["start", "a", "b", "c"]
LEAVES = [Ref(name) for name in ("KNN", "NoOp", "Concat", "StandardScaler", "LogRegGD")] + [
    Call("KNN", (("k", 3),)), Call("KNN", (("k", 1000),)),
    Call("BoostedEnsemble", (("base", Ref("PrunedTree")), ("n_estimators", 4)))]


@st.composite
def grammars(draw):
    """Grammars of one to four rules over registered operators, configured
    calls (one that does not validate) and references to the rules."""
    names = RULES[:draw(st.integers(1, len(RULES)))]
    leaves = st.sampled_from(LEAVES + [NontermRef(name) for name in names])
    bodies = st.recursive(leaves, lambda inner: st.builds(
        lambda kind, left, right: kind(left, right),
        st.sampled_from([Pipe, Both, Choose]), inner, inner), max_leaves=6)
    return GrammarFile(tuple((name, draw(bodies)) for name in names))


class TestUnfoldMatchesReference:
    @settings(max_examples=300, deadline=None)
    @given(grammar=grammars(), depth=st.integers(1, 5))
    def test_equal_operators_or_equal_errors(self, registry, grammar, depth):
        assert _outcome(unfold, grammar, depth, registry) == \
            _outcome(reference_unfold, grammar, depth, registry)


class TestUnfoldSizeCap:
    """unfold counts the nodes its expansion would build and refuses above
    DEFAULT_BLOWUP_LIMIT before building any."""

    @pytest.mark.parametrize("name,depths", [
        ("linear_stages", range(1, 9)), ("feature_union", range(1, 6)),
        ("start := a | KNN; a := a >> a | a & a | NoOp;", range(1, 5)),
        ("start := start;", range(1, 4))])
    def test_count_equals_the_expansion(self, registry, monkeypatch, name, depths):
        text = (FIXTURES / f"{name}.grammar").read_text() if " " not in name else name
        grammar = parse_grammar(text, registry)
        for depth in depths:
            assert _outcome(unfold, grammar, depth, registry) == \
                _outcome(reference_unfold, grammar, depth, registry)
        # With no room at all, every unfold refuses and names its count.
        monkeypatch.setattr(grammar_engine, "DEFAULT_BLOWUP_LIMIT", 0)
        for depth in depths:
            size = _node_count(reference_expand(grammar.body(grammar.start), grammar,
                                                {grammar.start: 1}, depth))
            with pytest.raises(UnfoldTooLarge, match=f"^unfolding at depth {depth} would "
                                                     f"build {size} nodes, above the cap of 0$"):
                unfold(grammar, depth, registry)

    @pytest.mark.parametrize("depth,size", [(6, 24577), (7, 98305), (12, 100663297)])
    def test_deep_feature_union_is_refused_before_expanding(self, union_grammar, registry,
                                                            depth, size):
        tracemalloc.start()
        start = time.perf_counter()
        try:
            with pytest.raises(UnfoldTooLarge, match=f"^unfolding at depth {depth} would build "
                                                     f"{size} nodes, above the cap of "
                                                     f"{DEFAULT_BLOWUP_LIMIT}$"):
                unfold(union_grammar, depth, registry)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert time.perf_counter() - start < 1.0
        assert peak < 1_000_000
        assert issubclass(UnfoldTooLarge, GrammarError)

    def test_depth_5_feature_union_peaks_small(self, union_grammar, registry):
        # The expansion has 6,145 nodes; the walk keeps one pruned node per
        # rule state, so it never holds the unpruned expansion.
        tracemalloc.start()
        try:
            unfold(union_grammar, 5, registry)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 200_000

    def test_shallower_unfolds_still_build(self, union_grammar, linear_grammar, registry):
        for grammar, depths in ((union_grammar, range(1, 6)), (linear_grammar, range(1, 9))):
            for depth in depths:
                assert unfold(grammar, depth, registry) is not None


class TestSample:
    def test_deterministic_per_seed(self, union_grammar, registry):
        first = sample(union_grammar, 0, 4, registry)
        second = sample(union_grammar, 0, 4, registry)
        assert first == second

    def test_no_choices_or_nonterminals(self, linear_grammar, registry):
        for seed in range(20):
            op = sample(linear_grammar, seed, 3, registry)
            stack = [op]
            while stack:
                node = stack.pop()
                assert not isinstance(node, Choice)
                if isinstance(node, Pipeline):
                    stack.extend(node.steps)

    def test_choice_free_grammar_ignores_seed(self, registry):
        grammar = parse_grammar("start := NoOp >> KNN;", registry)
        assert sample(grammar, 0, 3, registry) == sample(grammar, 99, 3, registry)

    def test_100_samples_are_derivations(self, linear_grammar, registry):
        for seed in range(100):
            op = sample(linear_grammar, seed, 3, registry)
            assert derives(linear_grammar, op), pretty_print(op)

    def test_samples_lie_in_unfolded_language(self, linear_grammar, registry):
        chains = resolved_chains(unfold(linear_grammar, 4, registry))
        for seed in range(50):
            op = sample(linear_grammar, seed, 3, registry)
            chain = tuple(s.name for s in
                          ([op] if isinstance(op, Individual) else op.steps)
                          if s.name != "NoOp")
            normalized = tuple(n for n in chain)
            assert normalized in chains

    def test_union_grammar_eventually_nonlinear(self, union_grammar, registry):
        shapes = set()
        for seed in range(40):
            op = sample(union_grammar, seed, 4, registry)
            if isinstance(op, Pipeline):
                shapes.add(max((j - i) for i, j in op.edges) if op.edges else 0)
                if any(len(op.predecessors(k)) > 1 for k in range(len(op.steps))):
                    shapes.add("join")
        assert "join" in shapes  # the & branch produced a real union

    def test_forced_recursion_fails(self, registry):
        grammar = parse_grammar("start := NoOp >> start;", registry)
        with pytest.raises(NoTerminatingAlternative):
            sample(grammar, 0, 3, registry)

    def test_deep_nesting_is_a_grammar_error(self, registry):
        grammar = parse_grammar("start := NoOp >> start;", registry)
        with pytest.raises(GrammarError, match="^the sampled pipeline nests too deeply$"):
            sample(grammar, 0, 2000, registry)

    def test_derives_rejects_foreign_pipeline(self, linear_grammar, registry):
        from lalec.operator_graph import pipe

        foreign = pipe(registry["KNN"], registry["KNN"])
        assert not derives(linear_grammar, foreign)
