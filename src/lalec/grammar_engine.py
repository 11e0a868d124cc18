"""Turn pipeline grammars into planned pipelines.

Unfolding expands every nonterminal up to a per-nonterminal depth along each
derivation path and prunes the choice alternatives that still contain an
unresolved nonterminal. One walk does both and counts the nodes of the
unpruned expansion, keeping one pruned node and count per rule and set of
expansion counts along its path; so it refuses an expansion past the size
cap before building any operator, after work bounded by the number of those
states, not by the size of the expansion. Sampling walks the grammar once,
resolving each choice with a seeded generator, so the result has no choices
at all.
"""

from __future__ import annotations

import random
from typing import Mapping

from .operator_graph import Individual, Operator
from .pipeline_dsl import (
    Both,
    Choose,
    ExprAst,
    GrammarFile,
    NontermRef,
    Pipe,
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


@refuse_deep_nesting(GrammarError, "the unfolded pipeline nests too deeply")
def unfold(grammar: GrammarFile, depth: int, registry: Mapping[str, Individual]) -> Operator:
    """Expand the start rule, bounding each nonterminal to `depth` expansions
    per derivation path, and prune the alternatives that reach a nonterminal
    past its bound. One walk builds the pruned expansion and counts the
    nodes of the unpruned one, once per rule and expansion counts along its
    path. Refuses with UnfoldTooLarge when that count is above
    DEFAULT_BLOWUP_LIMIT, before any operator is built."""
    if depth < 1:
        raise ValueError("depth must be at least 1")
    pruned, size = _unfold(grammar.body(grammar.start), grammar, {grammar.start: 1}, depth, {})
    if size > DEFAULT_BLOWUP_LIMIT:
        raise UnfoldTooLarge(f"unfolding at depth {depth} would build {size} nodes, "
                             f"above the cap of {DEFAULT_BLOWUP_LIMIT}")
    if pruned is None:
        raise EmptyAfterPruning("every alternative still contained a nonterminal")
    return build_operator(pruned, registry)


def _unfold(ast: ExprAst, grammar: GrammarFile, counts: dict[str, int], depth: int,
            memo: dict) -> tuple[ExprAst | None, int]:
    """The expansion of `ast` with its unresolved alternatives pruned (None
    when nothing is left), and the node count of the expansion before
    pruning. A rule's expansion depends only on the rule and the counts
    along its path, so each pair is walked once and its result shared."""
    if isinstance(ast, NontermRef):
        used = counts.get(ast.name, 0)
        if used >= depth:
            return None, 1
        next_counts = {**counts, ast.name: used + 1}
        key = ast.name, frozenset(next_counts.items())
        if key not in memo:
            memo[key] = _unfold(grammar.body(ast.name), grammar, next_counts, depth, memo)
        return memo[key]
    if isinstance(ast, (Pipe, Both, Choose)):
        left, left_size = _unfold(ast.left, grammar, counts, depth, memo)
        right, right_size = _unfold(ast.right, grammar, counts, depth, memo)
        size = 1 + left_size + right_size
        if left is None or right is None:
            kept = left if right is None else right
            return (kept if isinstance(ast, Choose) else None), size
        return type(ast)(left, right), size
    return ast, 1


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

