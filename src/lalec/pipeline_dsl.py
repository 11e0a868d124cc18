"""Textual front end for pipelines and grammars.

Combinator precedence is ``>>`` over ``&`` over ``|``, all left-associative,
so ``A | B >> C`` is a choice between A and the pipeline B-then-C. Note this
is the opposite of casual reading order: the pipe binds tightest.

Grammar files are lines of ``name := expression ;`` where lowercase-initial
names not present in the operator registry are nonterminal references.
"""

from __future__ import annotations

import functools
import re
from dataclasses import dataclass
from typing import Mapping

from .operator_graph import Choice, Individual, Operator, Pipeline, both, choose, configure, pipe


class DslError(Exception):
    pass


class SyntaxError_(DslError):
    def __init__(self, line, col, message):
        self.line = line
        self.col = col
        super().__init__(f"line {line}, column {col}: {message}")


class UnknownOperator(DslError):
    pass


class UndefinedNonterminal(DslError):
    pass


class MissingStart(DslError):
    pass


class NotExpressible(DslError):
    """The operator graph is not a series-parallel shape the DSL can spell."""


def refuse_deep_nesting(error: type[Exception], message: str):
    """Make a recursive function raise ``error(message)``, not RecursionError."""
    def decorate(func):
        @functools.wraps(func)
        def refusing(*args, **kwargs):
            try:
                return func(*args, **kwargs)
            except RecursionError:
                raise error(message) from None
        return refusing
    return decorate


# ---------------------------------------------------------------------------
# AST


@dataclass(frozen=True)
class ExprAst:
    pass


@dataclass(frozen=True)
class Ref(ExprAst):
    name: str


@dataclass(frozen=True)
class NontermRef(ExprAst):
    name: str


@dataclass(frozen=True)
class Call(ExprAst):
    name: str
    args: tuple[tuple[str, object], ...]


@dataclass(frozen=True)
class Pipe(ExprAst):
    left: ExprAst
    right: ExprAst


@dataclass(frozen=True)
class Both(ExprAst):
    left: ExprAst
    right: ExprAst


@dataclass(frozen=True)
class Choose(ExprAst):
    left: ExprAst
    right: ExprAst


@dataclass(frozen=True)
class GrammarFile:
    rules: tuple[tuple[str, ExprAst], ...]
    start: str = "start"

    def body(self, name: str) -> ExprAst:
        for rule, expr in self.rules:
            if rule == name:
                return expr
        raise UndefinedNonterminal(name)


# ---------------------------------------------------------------------------
# Tokenizer


@dataclass(frozen=True)
class _Token:
    kind: str  # name, number, string, punct, end
    value: object
    line: int
    col: int


# str.isdigit's digits: \d and numerals that int() and float() refuse.
_DIGIT = (r"\d\u00b2\u00b3\u00b9\u1369-\u1371\u19da\u2070\u2074-\u2079\u2080-\u2089"
          r"\u2460-\u2468\u2474-\u247c\u2488-\u2490\u24ea\u24f5-\u24fd\u24ff\u2776-\u277e"
          r"\u2780-\u2788\u278a-\u2792\U00010a40-\U00010a43\U00010e60-\U00010e68"
          r"\U00011052-\U0001105a\U0001f100-\U0001f10a")

# One token per match. Only a numeral such as ² could start two kinds, and
# number comes before name.
_TOKEN = re.compile(rf"""
    (?P<skip>(?:\s|\#[^\n]*)+)
  | (?P<punct>>>|:=|[()|&,=;])
  | (?P<string>"(?:\\[\s\S]|[^"\\])*")
  | (?P<number>(?:[+-][.{_DIGIT}]|\.?[{_DIGIT}])(?:[.eE{_DIGIT}]|(?<=[eE])[+-])*)
  | (?P<name>[^\W\d]\w*)
""", re.VERBOSE)


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    line, line_start, pos = 1, 0, 0
    while pos < len(text):
        match = _TOKEN.match(text, pos)
        col = pos - line_start + 1
        if match is None:
            c = text[pos]
            raise SyntaxError_(line, col, "unterminated string literal" if c == '"'
                               else f"unexpected character {c!r}")
        kind, lexeme, pos = match.lastgroup, match.group(), match.end()
        value = lexeme
        if kind == "string":
            value = re.sub(r"\\([\s\S])", r"\1", lexeme[1:-1])
        elif kind == "number":
            try:  # int() reads exactly a sign and decimal digits
                value = int(lexeme) if lexeme.lstrip("+-").isdecimal() else float(lexeme)
            except ValueError:
                raise SyntaxError_(line, col, f"bad number literal {lexeme!r}") from None
        elif kind == "name" and not (lexeme[0].isalpha() or lexeme[0] == "_"):
            # [^\W\d] admits numerals that are not digits, such as ½.
            raise SyntaxError_(line, col, f"unexpected character {lexeme[0]!r}")
        if kind != "skip":
            tokens.append(_Token(kind, value, line, col))
        if "\n" in lexeme:
            line += lexeme.count("\n")
            line_start = text.rindex("\n", 0, pos) + 1
    tokens.append(_Token("end", None, line, len(text) - line_start + 1))
    return tokens


# ---------------------------------------------------------------------------
# Parser (recursive descent following the precedence ladder)


# Loosest first; each rung's operands are the next rung's, the last one's atoms.
_PRECEDENCE = (("|", Choose), ("&", Both), (">>", Pipe))


class _Parser:
    def __init__(self, tokens: list[_Token]):
        self.tokens = tokens
        self.pos = 0

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        token = self.tokens[self.pos]
        self.pos += 1
        return token

    def accept(self, value: str) -> bool:
        """Consume the punctuation `value` if it comes next."""
        token = self.peek()
        if token.kind == "punct" and token.value == value:
            self.pos += 1
            return True
        return False

    def expect(self, value: str) -> None:
        if not self.accept(value):
            self.fail(f"expected {value!r}")

    def fail(self, message: str):
        token = self.peek()
        raise SyntaxError_(token.line, token.col, message)

    def parse_expression(self, level: int = 0) -> ExprAst:
        punct, node_class = _PRECEDENCE[level]
        last = level + 1 == len(_PRECEDENCE)
        node = self.parse_atom() if last else self.parse_expression(level + 1)
        while self.accept(punct):
            node = node_class(node, self.parse_atom() if last else self.parse_expression(level + 1))
        return node

    def parse_atom(self) -> ExprAst:
        if self.accept("("):
            node = self.parse_expression()
            self.expect(")")
            return node
        token = self.peek()
        if token.kind == "name":
            self.advance()
            if self.accept("("):
                args = self.parse_args()
                self.expect(")")
                return Call(token.value, args)
            return Ref(token.value)
        self.fail("expected an operator name or parenthesized expression")

    def parse_args(self) -> tuple:
        args = []
        if self.peek().kind == "punct" and self.peek().value == ")":
            return ()
        while True:
            name_token = self.peek()
            if name_token.kind != "name":
                self.fail("expected an argument name")
            if any(name == name_token.value for name, _ in args):
                self.fail(f"repeated argument {name_token.value!r}")
            self.advance()
            self.expect("=")
            args.append((name_token.value, self.parse_literal()))
            if not self.accept(","):
                return tuple(args)

    def parse_literal(self):
        token = self.peek()
        if token.kind in ("number", "string"):
            self.advance()
            return token.value
        if token.kind == "name":
            self.advance()
            if token.value == "true":
                return True
            if token.value == "false":
                return False
            if token.value == "null":
                return None
            return Ref(token.value)  # operator-valued argument
        self.fail("expected a literal or operator name")


def parse_expr_ast(text: str) -> ExprAst:
    parser = _Parser(_tokenize(text))
    node = parser.parse_expression()
    if parser.peek().kind != "end":
        parser.fail("unexpected trailing input")
    return node


# ---------------------------------------------------------------------------
# Building operators from ASTs


_COMBINATORS = {Pipe: pipe, Both: both, Choose: lambda left, right: choose([left, right])}


def build_operator(ast: ExprAst, registry: Mapping[str, Individual]) -> Operator:
    """The operator an expression spells. A node that several places share,
    as in an unfolded grammar, is built once and its operator reused."""
    return _build(ast, registry, {})


def _build(ast: ExprAst, registry, built: dict[int, Operator]) -> Operator:
    # Keyed by identity: the AST dataclasses hash and compare recursively.
    op = built.get(id(ast))
    if op is not None:
        return op
    if isinstance(ast, Ref):
        op = _resolve(ast.name, registry)
    elif isinstance(ast, NontermRef):
        raise UnknownOperator(f"nonterminal {ast.name!r} outside a grammar")
    elif isinstance(ast, Call):
        op = _resolve(ast.name, registry)
        op = configure(op, {key: _resolve(value.name, registry) if isinstance(value, Ref)
                            else value for key, value in ast.args})
    elif isinstance(ast, (Pipe, Both, Choose)):
        op = _COMBINATORS[type(ast)](_build(ast.left, registry, built),
                                     _build(ast.right, registry, built))
    else:
        raise TypeError(f"not an expression node: {ast!r}")
    built[id(ast)] = op
    return op


def _resolve(name: str, registry: Mapping[str, Individual]) -> Individual:
    try:
        return registry[name]
    except KeyError:
        raise UnknownOperator(f"unknown operator {name!r}") from None


@refuse_deep_nesting(DslError, "the expression nests too deeply")
def parse_expr(text: str, registry: Mapping[str, Individual]) -> Operator:
    """Parse a combinator expression into a planned operator."""
    return build_operator(parse_expr_ast(text), registry)


# ---------------------------------------------------------------------------
# Grammar files


@refuse_deep_nesting(DslError, "the grammar nests too deeply")
def parse_grammar(text: str, registry: Mapping[str, Individual]) -> GrammarFile:
    """Parse ``name := expression ;`` rules; bare lowercase names that are
    not registered operators become nonterminal references."""
    parser = _Parser(_tokenize(text))
    rules: list[tuple[str, ExprAst]] = []
    while parser.peek().kind != "end":
        name_token = parser.peek()
        if name_token.kind != "name":
            parser.fail("expected a rule name")
        parser.advance()
        parser.expect(":=")
        body = parser.parse_expression()
        parser.expect(";")
        rules.append((name_token.value, body))
    rule_names = [name for name, _ in rules]
    if len(set(rule_names)) != len(rule_names):
        raise DslError("duplicate rule names in grammar")
    for name in rule_names:
        if name in registry:
            raise DslError(f"rule {name!r} shadows a registered operator")
        if not name[0].islower():
            raise DslError(f"rule names must start lowercase, got {name!r}")
    if "start" not in rule_names:
        raise MissingStart("grammar has no 'start' rule")
    names = set(rule_names)
    return GrammarFile(tuple((name, _resolve_refs(body, names, registry))
                             for name, body in rules))


def _resolve_refs(ast: ExprAst, rule_names, registry) -> ExprAst:
    """Mark bare lowercase names that are not registered operators as
    nonterminal references, and check every reference left to right, the
    operator arguments of a call after the call's own name."""
    if isinstance(ast, (Pipe, Both, Choose)):
        return type(ast)(_resolve_refs(ast.left, rule_names, registry),
                         _resolve_refs(ast.right, rule_names, registry))
    if isinstance(ast, Ref) and ast.name not in registry and ast.name[0].islower():
        ast = NontermRef(ast.name)
    if isinstance(ast, NontermRef):
        if ast.name not in rule_names:
            raise UndefinedNonterminal(f"nonterminal {ast.name!r} has no rule")
    elif ast.name not in registry:
        raise UnknownOperator(f"unknown operator {ast.name!r}")
    arguments = ast.args if isinstance(ast, Call) else ()
    for key, value in arguments:
        if isinstance(value, Ref) and value.name not in registry:
            raise UnknownOperator(f"unknown operator {value.name!r} "
                                  f"in argument {key!r} of {ast.name}")
    return ast


# ---------------------------------------------------------------------------
# Pretty printing


_PREC_ATOM, _PREC_PIPE, _PREC_BOTH, _PREC_CHOOSE = 4, 3, 2, 1


def pretty_print(op: Operator) -> str:
    """Canonical minimally parenthesized text for series-parallel operators.

    Raises NotExpressible for graphs the combinators cannot spell; callers
    fall back to an explicit steps/edges rendering.
    """
    text, _ = _print(op)
    return text


def _print(op: Operator) -> tuple[str, int]:
    if isinstance(op, Individual):
        if not op.bound:
            return op.name, _PREC_ATOM
        parts = []
        for key in sorted(op.bound):
            parts.append(f"{key}={_literal(op.bound[key])}")
        return f"{op.name}({', '.join(parts)})", _PREC_ATOM
    if isinstance(op, Choice):
        rendered = [_wrap(_print(a), _PREC_CHOOSE) for a in op.alternatives]
        return " | ".join(rendered), _PREC_CHOOSE
    if isinstance(op, Pipeline):
        return _print_graph(list(range(len(op.steps))), op)
    raise TypeError(f"not an operator: {op!r}")


def _wrap(printed: tuple[str, int], parent_prec: int) -> str:
    text, prec = printed
    return f"({text})" if prec < parent_prec else text


def _literal(value) -> str:
    if value is True:
        return "true"
    if value is False:
        return "false"
    if value is None:
        return "null"
    if isinstance(value, str):
        escaped = value.replace("\\", "\\\\").replace('"', '\\"')
        return f'"{escaped}"'
    if isinstance(value, (int, float)):
        return repr(value)
    if isinstance(value, Individual) and not value.bound:
        return value.name
    raise NotExpressible(f"cannot spell argument {value!r} in the pipeline language")


def _print_graph(nodes: list[int], pipeline) -> tuple[str, int]:
    if len(nodes) == 1:
        return _print(pipeline.steps[nodes[0]])
    node_set = set(nodes)
    internal = [(i, j) for i, j in pipeline.edges if i in node_set and j in node_set]

    components = _components(nodes, internal)
    if len(components) > 1:
        rendered = [_wrap(_print_graph(sorted(c), pipeline), _PREC_BOTH) for c in components]
        return " & ".join(rendered), _PREC_BOTH

    # Series decomposition: the shortest prefix whose boundary is a complete
    # sinks-to-sources bipartite cut (exactly what the pipe combinator built).
    order = sorted(nodes)
    for cut in range(1, len(order)):
        prefix, suffix = set(order[:cut]), set(order[cut:])
        crossing = [(i, j) for i, j in internal if i in prefix and j in suffix]
        prefix_sinks = {i for i in prefix
                        if not any(a == i and b in prefix for a, b in internal)}
        suffix_sources = {j for j in suffix
                          if not any(b == j and a in suffix for a, b in internal)}
        expected = {(i, j) for i in prefix_sinks for j in suffix_sources}
        if set(crossing) == expected and expected:
            left = _print_graph(sorted(prefix), pipeline)
            right = _print_graph(sorted(suffix), pipeline)
            return f"{_wrap(left, _PREC_PIPE)} >> {_wrap(right, _PREC_PIPE)}", _PREC_PIPE
    raise NotExpressible("pipeline graph is not series-parallel")


def _components(nodes, edges) -> list[set[int]]:
    parent = {n: n for n in nodes}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for i, j in edges:
        ri, rj = find(i), find(j)
        if ri != rj:
            parent[ri] = rj
    groups: dict[int, set[int]] = {}
    for n in nodes:
        groups.setdefault(find(n), set()).add(n)
    return sorted(groups.values(), key=min)
