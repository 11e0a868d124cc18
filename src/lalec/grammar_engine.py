"""Turn pipeline grammars into planned pipelines.

Unfolding expands every nonterminal up to a per-nonterminal depth along each
derivation path, then prunes choice alternatives that still contain an
unresolved nonterminal. Sampling walks the grammar once, resolving each
choice with a seeded generator, so the result has no choices at all.
"""

from __future__ import annotations

import functools
import random
from dataclasses import dataclass
from typing import Mapping

from .operator_graph import Individual, Operator
from .pipeline_dsl import (
    Both,
    Call,
    Choose,
    ExprAst,
    GrammarFile,
    NontermRef,
    Pipe,
    Ref,
    build_operator,
    refuse_deep_nesting,
)
from .space_normalizer import DEFAULT_BLOWUP_LIMIT


class GrammarError(Exception):
    pass


class EmptyAfterPruning(GrammarError):
    pass


class NoTerminatingAlternative(GrammarError):
    pass


class UnfoldTooLarge(GrammarError):
    """The unfolded expression would have more nodes than the cap."""


@dataclass(frozen=True)
class _Blocked:
    """Marks a nonterminal left unexpanded because its depth ran out."""

    name: str


@refuse_deep_nesting(GrammarError, "the unfolded pipeline nests too deeply")
def unfold(grammar: GrammarFile, depth: int, registry: Mapping[str, Individual]) -> Operator:
    """Expand the start rule, bounding each nonterminal to `depth` expansions
    per derivation path, then prune unresolved alternatives. Refuses with
    UnfoldTooLarge, before expanding, when the expansion would have more
    than DEFAULT_BLOWUP_LIMIT nodes."""
    if depth < 1:
        raise ValueError("depth must be at least 1")
    size = _expanded_size(grammar.body(grammar.start), grammar, {grammar.start: 1}, depth, {})
    if size > DEFAULT_BLOWUP_LIMIT:
        raise UnfoldTooLarge(f"unfolding at depth {depth} would build {size} nodes, "
                             f"above the cap of {DEFAULT_BLOWUP_LIMIT}")
    expanded = _expand(grammar.body(grammar.start), grammar, {grammar.start: 1}, depth)
    pruned = _prune(expanded)
    if pruned is None:
        raise EmptyAfterPruning("every alternative still contained a nonterminal")
    return build_operator(pruned, registry)


def _expand(ast: ExprAst, grammar: GrammarFile, counts: dict[str, int], depth: int):
    if isinstance(ast, NontermRef):
        used = counts.get(ast.name, 0)
        if used >= depth:
            return _Blocked(ast.name)
        next_counts = dict(counts)
        next_counts[ast.name] = used + 1
        return _expand(grammar.body(ast.name), grammar, next_counts, depth)
    if isinstance(ast, (Pipe, Both, Choose)):
        return type(ast)(_expand(ast.left, grammar, counts, depth),
                         _expand(ast.right, grammar, counts, depth))
    return ast


def _expanded_size(ast: ExprAst, grammar: GrammarFile, counts: dict[str, int], depth: int,
                   memo: dict) -> int:
    """The number of nodes _expand(ast, grammar, counts, depth) builds,
    counted without building them. A rule's expansion depends only on the
    rule and the counts along its path, so each pair is counted once."""
    if isinstance(ast, NontermRef):
        used = counts.get(ast.name, 0)
        if used >= depth:
            return 1
        next_counts = {**counts, ast.name: used + 1}
        key = ast.name, frozenset(next_counts.items())
        if key not in memo:
            memo[key] = _expanded_size(grammar.body(ast.name), grammar, next_counts, depth, memo)
        return memo[key]
    if isinstance(ast, (Pipe, Both, Choose)):
        return (1 + _expanded_size(ast.left, grammar, counts, depth, memo)
                + _expanded_size(ast.right, grammar, counts, depth, memo))
    return 1


def _prune(node):
    """Drop choice alternatives containing blocked nonterminals; collapse
    single-alternative choices; None means the whole subtree is unresolved."""
    if isinstance(node, _Blocked):
        return None
    if isinstance(node, (Ref, Call)):
        return node
    if isinstance(node, (Pipe, Both)):
        left, right = _prune(node.left), _prune(node.right)
        return None if left is None or right is None else type(node)(left, right)
    if isinstance(node, Choose):
        alternatives = [a for a in map(_prune, _choice_list(node)) if a is not None]
        return functools.reduce(Choose, alternatives) if alternatives else None
    raise TypeError(f"unexpected node {node!r}")


def _choice_list(node) -> list:
    if isinstance(node, Choose):
        return _choice_list(node.left) + _choice_list(node.right)
    return [node]


@refuse_deep_nesting(GrammarError, "the sampled pipeline nests too deeply")
def sample(grammar: GrammarFile, seed: int, max_depth: int,
           registry: Mapping[str, Individual]) -> Operator:
    """Draw one concrete pipeline: choices resolve uniformly at random, and
    each nonterminal expands at most max_depth times along a derivation path."""
    if max_depth < 1:
        raise ValueError("max_depth must be at least 1")
    rng = random.Random(seed)
    ast = _sample(grammar.body(grammar.start), grammar, {grammar.start: 1}, max_depth, rng)
    return build_operator(ast, registry)


def _sample(ast: ExprAst, grammar, counts, max_depth, rng) -> ExprAst:
    if isinstance(ast, NontermRef):
        used = counts.get(ast.name, 0)
        if used >= max_depth:
            raise NoTerminatingAlternative(
                f"nonterminal {ast.name!r} forced beyond the depth limit"
            )
        next_counts = dict(counts)
        next_counts[ast.name] = used + 1
        return _sample(grammar.body(ast.name), grammar, next_counts, max_depth, rng)
    if isinstance(ast, Choose):
        alternatives = _choice_list(ast)
        eligible = [a for a in alternatives if _expandable(a, counts, max_depth)]
        if not eligible:
            raise NoTerminatingAlternative("no alternative free of exhausted nonterminals")
        return _sample(rng.choice(eligible), grammar, counts, max_depth, rng)
    if isinstance(ast, (Pipe, Both)):
        return type(ast)(_sample(ast.left, grammar, counts, max_depth, rng),
                         _sample(ast.right, grammar, counts, max_depth, rng))
    return ast


def _expandable(ast: ExprAst, counts, max_depth) -> bool:
    """True when every nonterminal in the alternative can still expand."""
    if isinstance(ast, NontermRef):
        return counts.get(ast.name, 0) < max_depth
    if isinstance(ast, (Pipe, Both, Choose)):
        return _expandable(ast.left, counts, max_depth) and \
            _expandable(ast.right, counts, max_depth)
    return True

