import random
import re
import sys

import pytest
from hypothesis import given, settings, strategies as st

from lalec import pipeline_dsl as dsl
from lalec import operator_graph as og
from lalec.operator_graph import Choice, Pipeline, both, choose, pipe
from lalec.pipeline_dsl import (
    Call,
    Choose,
    NontermRef,
    Pipe,
    Ref,
    parse_expr,
    parse_expr_ast,
    parse_grammar,
    pretty_print,
)
from oracles import graph_isomorphic, reference_build_operator, reference_tokenize


class TestParseExpr:
    def test_running_example(self, registry):
        op = parse_expr("PCA >> (J48 | LR)", registry)
        assert isinstance(op, Pipeline)
        assert op.steps[0].name == "PCA"
        assert isinstance(op.steps[1], Choice)
        assert [a.name for a in op.steps[1].alternatives] == ["J48", "LR"]

    def test_precedence_choice_weakest(self, registry):
        op = parse_expr("KNN | LR >> NoOp", registry)
        expected = choose([registry["KNN"], pipe(registry["LR"], registry["NoOp"])])
        assert graph_isomorphic(op, expected)

    def test_precedence_law(self, registry):
        # a >> b & c | d  ==  choose([both(pipe(a,b), c), d])
        op = parse_expr("NoOp >> Scaler & KNN | LR", registry)
        expected = choose([
            both(pipe(registry["NoOp"], registry["Scaler"]), registry["KNN"]),
            registry["LR"],
        ])
        assert graph_isomorphic(op, expected)

    def test_call_applies_configure(self, registry):
        op = parse_expr("KNN(k=3, weighting=\"distance\")", registry)
        assert op.bound == {"k": 3, "weighting": "distance"}

    def test_call_literals(self, registry):
        op = parse_expr("PrunedTree(R=false, C=0.25, maxDepth=4)", registry)
        assert op.bound == {"R": False, "C": 0.25, "maxDepth": 4}

    def test_operator_valued_argument(self, registry):
        op = parse_expr("BoostedEnsemble(base=PrunedTree)", registry)
        assert op.bound["base"] is registry["PrunedTree"]

    def test_constraint_violation_surfaces(self, registry):
        with pytest.raises(og.ValidationFailed):
            parse_expr('LR(solver="sag", penalty="l1")', registry)

    def test_unknown_operator(self, registry):
        with pytest.raises(dsl.UnknownOperator):
            parse_expr("Nonesuch", registry)

    @pytest.mark.parametrize("text, line, col", [
        pytest.param("PCA >>", 1, 7, id="end_of_input"),
        # A string literal's line breaks count; the column restarts after the last.
        pytest.param('KNN(weighting="uni\nform") >> \n >> KNN', 3, 2,
                     id="after_multiline_string"),
        pytest.param('KNN(weighting="uni\nform") >> >> KNN', 2, 11,
                     id="on_multiline_string_last_line"),
    ])
    def test_syntax_error_position(self, registry, text, line, col):
        with pytest.raises(dsl.SyntaxError_) as err:
            parse_expr(text, registry)
        assert (err.value.line, err.value.col) == (line, col)

    def test_a_repeated_argument_is_refused_at_its_name(self, registry):
        with pytest.raises(dsl.SyntaxError_) as err:
            parse_expr("KNN(k=1,\n    k=2)", registry)
        assert str(err.value) == "line 2, column 5: repeated argument 'k'"

    def test_comments_ignored(self, registry):
        op = parse_expr("# choose an estimator\nKNN | LR", registry)
        assert isinstance(op, Choice)

    @pytest.mark.parametrize("text", [" >> ".join(["NoOp"] * 1000 + ["KNN"]),
                                      "(" * 2000 + "KNN" + ")" * 2000])
    def test_deep_nesting_is_a_dsl_error(self, registry, text):
        with pytest.raises(dsl.DslError, match="^the expression nests too deeply$"):
            parse_expr(text, registry)

    @given(st.text(max_size=40))
    @settings(max_examples=300, deadline=None)
    def test_parser_total(self, text):
        # Every input either parses or raises an error positioned inside it:
        # on one of its lines, at most one column past that line's end.
        try:
            parse_expr_ast(text)
        except dsl.SyntaxError_ as err:
            lines = text.split("\n")
            assert 1 <= err.line <= len(lines)
            assert 1 <= err.col <= len(lines[err.line - 1]) + 1

    def test_shared_node_is_built_once(self, registry, monkeypatch):
        shared = Call("KNN", (("k", 3),))
        ast = Pipe(Choose(shared, Ref("LR")), Choose(shared, Ref("LR")))
        calls = []
        monkeypatch.setattr(dsl, "configure", lambda op, config: calls.append(op) or
                            og.configure(op, config))
        op = dsl.build_operator(ast, registry)
        assert len(calls) == 1
        assert op == reference_build_operator(ast, registry)


# Characters the language gives a meaning to, and numerals and letters
# beyond ASCII: ² is a digit but not a decimal one, ½ and Ⅻ are numerals
# but not digits, ٣ is a decimal digit, é and 一 are letters.
_DSL_TEXT = st.text(st.sampled_from(list('#"\\+-eE.\n \t\r()|&,=;>:_aKz09²½Ⅻ٣é一')),
                    max_size=30)


def _scan(tokenize, text):
    try:
        return tokenize(text)
    except dsl.SyntaxError_ as err:
        return err.line, err.col, str(err)


class TestTokenizerAgainstReference:
    """The token pattern gives the hand scanner's tokens and errors, except
    that a text ending inside a comment ends at its true end, where the
    scanner left the end of input at the comment's `#`."""

    @given(st.one_of(st.text(max_size=30), _DSL_TEXT))
    @settings(max_examples=1500, deadline=None)
    def test_equal_tokens_and_errors(self, text):
        tokens, expected = _scan(dsl._tokenize, text), _scan(reference_tokenize, text)
        if tokens != expected and isinstance(expected, list):
            end, last_line = expected[-1], text.split("\n")[-1]
            assert last_line[end.col - 1] == "#"
            expected[-1] = dsl._Token("end", None, end.line, len(last_line) + 1)
        assert tokens == expected

    def test_text_ending_in_a_comment_ends_at_its_end(self):
        text = "KNN >> # tail comment"
        with pytest.raises(dsl.SyntaxError_, match="^line 1, column 22: "):
            parse_expr_ast(text)
        assert reference_tokenize(text)[-1].col == 8

    def test_digits_are_those_of_str_isdigit(self):
        digit = re.compile(f"[{dsl._DIGIT}]")
        assert [c for c in map(chr, range(sys.maxunicode + 1))
                if bool(digit.match(c)) != c.isdigit()] == []

    @pytest.mark.parametrize("text, col, message", [
        ("KNN(k=²)", 7, "bad number literal '²'"),
        ("KNN(k=1²3)", 7, "bad number literal '1²3'"),
        ("KNN(k=½)", 7, "unexpected character '½'"),
        ("KNN >> Ⅻ", 8, "unexpected character 'Ⅻ'"),
    ])
    def test_numerals_that_are_not_decimal_digits_are_refused(self, text, col, message):
        # Neither a name nor a number: str.isdigit admits ², and \w admits all four.
        with pytest.raises(dsl.SyntaxError_) as err:
            dsl._tokenize(text)
        assert (err.value.line, err.value.col, str(err.value)) == \
            (1, col, f"line 1, column {col}: {message}")
        assert _scan(reference_tokenize, text) == (1, col, str(err.value))


class TestParseGrammar:
    GRAMMAR = """
    start := clean >> tfm >> est;
    clean := StandardScaler >> clean | StandardScaler | NoOp;
    tfm   := SelectKVariance >> tfm | SelectKVariance | NoOp;
    est   := PrunedTree | LogRegGD | KNN;
    """

    def test_deep_nesting_is_a_dsl_error(self, registry):
        text = "start := " + "(" * 2000 + "KNN" + ")" * 2000 + ";"
        with pytest.raises(dsl.DslError, match="^the grammar nests too deeply$"):
            parse_grammar(text, registry)

    def test_recursive_rules(self, registry):
        grammar = parse_grammar(self.GRAMMAR, registry)
        assert [name for name, _ in grammar.rules] == ["start", "clean", "tfm", "est"]
        body = grammar.body("clean")
        alternatives = []

        def flatten(node):
            if isinstance(node, Choose):
                flatten(node.left)
                flatten(node.right)
            else:
                alternatives.append(node)

        flatten(body)
        assert alternatives[0] == Pipe(Ref("StandardScaler"), NontermRef("clean"))

    def test_single_rule(self, registry):
        grammar = parse_grammar("start := KNN;", registry)
        assert grammar.body("start") == Ref("KNN")

    def test_a_repeated_argument_is_refused_at_its_name(self, registry):
        with pytest.raises(dsl.SyntaxError_) as err:
            parse_grammar('start := KNN(k=1, weighting="uniform", k=3);', registry)
        assert str(err.value) == "line 1, column 40: repeated argument 'k'"

    def test_undefined_nonterminal(self, registry):
        with pytest.raises(dsl.UndefinedNonterminal):
            parse_grammar("start := foo;", registry)

    def test_missing_start(self, registry):
        with pytest.raises(dsl.MissingStart):
            parse_grammar("loop := KNN;", registry)

    @pytest.mark.parametrize("text, error, message", [
        # Rule-name errors, then a missing start, then the first bad
        # reference in rule order and left to right.
        ("loop := foo; KNN := LR;", dsl.DslError, "rule 'KNN' shadows a registered operator"),
        ("loop := KNN >> foo;", dsl.MissingStart, "grammar has no 'start' rule"),
        ("start := KNN >> foo | Nope; other := bar;", dsl.UndefinedNonterminal,
         "nonterminal 'foo' has no rule"),
        ("start := (Nope & KNN) >> foo; other := bar;", dsl.UnknownOperator,
         "unknown operator 'Nope'"),
        ("start := KNN | other; other := bar >> Nope(k=1);", dsl.UndefinedNonterminal,
         "nonterminal 'bar' has no rule"),
        # A call's operator arguments are checked after its name, left to
        # right, also where no unfold would reach them.
        ("start := BoostedEnsemble(base=Nonesuch) | KNN;", dsl.UnknownOperator,
         "unknown operator 'Nonesuch' in argument 'base' of BoostedEnsemble"),
        ("start := KNN | a >> BoostedEnsemble(base=Nonesuch); a := a;", dsl.UnknownOperator,
         "unknown operator 'Nonesuch' in argument 'base' of BoostedEnsemble"),
        ("start := BoostedEnsemble(base=est); est := KNN;", dsl.UnknownOperator,
         "unknown operator 'est' in argument 'base' of BoostedEnsemble"),
        ("start := Nope(base=Nonesuch);", dsl.UnknownOperator, "unknown operator 'Nope'"),
        ("start := BoostedEnsemble(n_estimators=2, base=Bad, other=Worse) >> foo;",
         dsl.UnknownOperator, "unknown operator 'Bad' in argument 'base' of BoostedEnsemble"),
        ("start := KNN(k=1) >> foo;", dsl.UndefinedNonterminal, "nonterminal 'foo' has no rule"),
    ])
    def test_error_order(self, registry, text, error, message):
        with pytest.raises(dsl.DslError) as err:
            parse_grammar(text, registry)
        assert (type(err.value), str(err.value)) == (error, message)

    def test_rule_shadowing_operator_rejected(self, registry):
        with pytest.raises(dsl.DslError):
            parse_grammar("start := KNN; KNN := LR;", registry)

    def test_uppercase_rule_rejected(self, registry):
        with pytest.raises(dsl.DslError):
            parse_grammar("start := Stage; Stage := KNN;", registry)


class TestPrettyPrint:
    def test_running_example(self, registry):
        op = pipe(registry["PCA"], choose([registry["J48"], registry["LR"]]))
        assert pretty_print(op) == "PCA >> (J48 | LR)"

    def test_flat_choice(self, registry):
        op = choose([registry["KNN"], registry["LR"], registry["J48"]])
        assert pretty_print(op) == "KNN | LR | J48"

    def test_union_parenthesization(self, registry):
        op = pipe(both(registry["PCA"], registry["KNN"]), registry["Concat"])
        assert pretty_print(op) == "(PCA & KNN) >> Concat"

    def test_configured_operator(self, registry):
        op = og.configure(registry["KNN"], {"k": 3, "weighting": "distance"})
        assert pretty_print(op) == 'KNN(k=3, weighting="distance")'

    def test_operator_valued_argument(self, registry):
        op = og.configure(registry["BoostedEnsemble"], {"base": registry["PrunedTree"]})
        assert pretty_print(op) == "BoostedEnsemble(base=PrunedTree)"

    def test_not_expressible_falls_back(self, registry):
        # Partial overlap between layers is not series-parallel.
        steps = (registry["NoOp"], registry["Scaler"], registry["Concat"], registry["KNN"])
        op = Pipeline(steps, ((0, 2), (0, 3), (1, 3)))
        with pytest.raises(dsl.NotExpressible):
            pretty_print(op)

    def test_round_trip_200_random_series_parallel(self, registry):
        names = ["NoOp", "Scaler", "StandardScaler", "MinMaxScaler",
                 "SelectKVariance", "KNN", "LR", "J48", "Concat"]
        rng = random.Random(2024)

        def random_op(depth):
            kind = rng.randrange(4) if depth < 3 else 3
            if kind == 3:
                return registry[rng.choice(names)]
            left, right = random_op(depth + 1), random_op(depth + 1)
            if kind == 0:
                return pipe(left, right)
            if kind == 1:
                return both(left, right)
            return choose([left, right])

        for index in range(200):
            op = random_op(0)
            reparsed = parse_expr(pretty_print(op), registry)
            assert graph_isomorphic(op, reparsed), (index, pretty_print(op))
