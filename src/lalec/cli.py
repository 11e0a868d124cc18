"""Batch command-line surface.

Exit codes: compile — 0 ok, 2 compile error, 3 parse error; validate — 0
valid, 1 invalid, 2 unknown operator or bad input; grammar — 0 ok, 2
grammar error, 3 parse error; search — 0 finished (even with failed
trials), 4 no valid trial; render — 0 ok, 3 parse error.

All randomness flows from explicit --seed flags (default 0). The schemas
directory defaults to $LALEC_SCHEMA_PATH, then to the packaged fixtures.
Output files are written atomically.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import tempfile
from json.encoder import c_make_encoder, encode_basestring_ascii
from pathlib import Path
from typing import Any

from . import optimizer as opt
from . import pipeline_dsl as dsl
from . import toyml
from .grammar_engine import GrammarError, sample as grammar_sample, unfold as grammar_unfold
from .operator_graph import (
    Choice,
    Individual,
    LifecycleState,
    Operator,
    OperatorError,
    Pipeline,
    state_of,
)
from .schema_model import SchemaError
from .space_backends import CompileError, compile_space, flat_doc
from .space_normalizer import NormalizeError


def _schemas_dir(value):
    if value:
        return Path(value)
    env = os.environ.get("LALEC_SCHEMA_PATH")
    if env:
        return Path(env)
    return toyml.default_schemas_dir()


def _write_text(path, text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
        return
    target = Path(path)
    handle = tempfile.NamedTemporaryFile(
        "w", encoding="utf-8", dir=target.parent or Path("."),
        prefix=f".{target.name}.", delete=False)
    try:
        with handle:
            handle.write(text)
        os.replace(handle.name, target)
    except BaseException:
        os.unlink(handle.name)
        raise


def _write_json(path, doc) -> None:
    _write_text(path, _indented_json(doc) + "\n")


def _indented_json(doc) -> str:
    """``json.dumps(doc, indent=2)``, the same text without the pure-Python
    encoder that json falls back to for indented output. A container of
    scalars is one call of json's C encoder, with the line break and
    indentation of its depth as the item separator; other containers add
    their own line breaks around their items."""
    parts: list[str] = []
    _json_parts(doc, "\n", parts)
    return "".join(parts)


_SCALARS = frozenset((str, int, float, bool, type(None)))
_LITERALS = {True: "true", False: "false", None: "null"}
_C_ENCODERS: dict[str, Any] = {}  # compact C encoders by item separator


def _c_encode(value, separator: str) -> str:
    """``json.dumps(value, separators=(separator, ": "))`` by json's C
    encoder, built once per separator."""
    encode = _C_ENCODERS.get(separator)
    if encode is None:
        encode = _C_ENCODERS[separator] = c_make_encoder(
            None, json.JSONEncoder().default, encode_basestring_ascii, None, ": ", separator,
            False, False, True)
    return "".join(encode(value, 0))


def _json_parts(value, newline: str, parts: list) -> None:
    """Append the indented JSON of ``value``, whose first line is already
    written and whose later lines start with ``newline``."""
    kind = type(value)
    if kind is str:
        parts.append(encode_basestring_ascii(value))
        return
    if kind is float:
        parts.append(float.__repr__(value) if math.isfinite(value) else _c_encode(value, ","))
        return
    if kind in _SCALARS:
        parts.append(_LITERALS[value] if kind is bool or value is None else int.__repr__(value))
        return
    is_dict = isinstance(value, dict)
    if not (is_dict or isinstance(value, (list, tuple))) or not value:
        parts.append(_c_encode(value, ","))  # an empty container or a subclass
        return
    inner = newline + "  "
    items = value.values() if is_dict else value
    if _SCALARS.issuperset(map(type, items)):
        text = _c_encode(value, "," + inner)
        parts.append(text[0] + inner + text[1:-1] + newline + text[-1])
        return
    separator = ("{" if is_dict else "[") + inner
    for item in (value.items() if is_dict else value):
        parts.append(separator)
        separator = "," + inner
        if is_dict:
            key, item = item
            parts.append((encode_basestring_ascii(key) if type(key) is str
                          else _c_encode({key: None}, ",")[1:-7]) + ": ")
        _json_parts(item, inner, parts)
    parts.append(newline + ("}" if is_dict else "]"))


def _load_pipeline(args, registry) -> Operator:
    if getattr(args, "expr", None):
        return dsl.parse_expr(args.expr, registry)
    text = Path(args.pipeline).read_text(encoding="utf-8")
    return dsl.parse_expr(text, registry)


def _add_pipeline_args(parser):
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--pipeline", help="file holding one combinator expression")
    group.add_argument("--expr", help="combinator expression text")
    parser.add_argument("--schemas", help="directory of <Name>.schema.json files")


def cmd_compile(args) -> int:
    registry = toyml.load_registry(_schemas_dir(args.schemas))
    try:
        op = _load_pipeline(args, registry)
    except (dsl.DslError, OperatorError) as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 3
    try:
        compiled = compile_space(op, keep_constraints=not args.no_constraints)
        if args.backend == "hier":
            _write_json(args.out, compiled.hierarchical())
        elif args.backend == "flat":
            _write_json(args.out, flat_doc(compiled.flat()))
        elif args.backend == "pcs":
            _write_text(args.out, compiled.pcs())
        else:
            _write_json(args.out, compiled.grid(args.cont_samples, args.seed))
    except (CompileError, NormalizeError, SchemaError, OperatorError) as exc:
        print(f"compile error: {exc}", file=sys.stderr)
        return 2
    return 0


def cmd_validate(args) -> int:
    from . import schema_model

    registry = toyml.load_registry(_schemas_dir(args.schemas))
    op = registry.get(args.op)
    if op is None:
        print(f"unknown operator {args.op!r}", file=sys.stderr)
        return 2
    raw = args.config
    try:
        if raw.lstrip().startswith("{"):
            config = json.loads(raw)
        else:
            config = json.loads(Path(raw).read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        print(f"bad config: {exc}", file=sys.stderr)
        return 2
    if not isinstance(config, dict):
        print("bad config: expected a JSON object", file=sys.stderr)
        return 2
    report = schema_model.validate(config, op.schema)
    if report.ok:
        print("ok")
        return 0
    for violation in report.violations:
        print(f"{schema_model.render_path(violation.path)}: "
              f"{violation.constraint} [{violation.kind}]")
    return 1


def _operator_text(op: Operator) -> str:
    try:
        return dsl.pretty_print(op) + "\n"
    except dsl.NotExpressible:
        return json.dumps(_operator_doc(op), indent=2) + "\n"


def _operator_doc(op: Operator) -> dict:
    if isinstance(op, Individual):
        doc = {"operator": op.name}
        if op.bound:
            doc["config"] = {k: _config_value(v) for k, v in sorted(op.bound.items())}
        return doc
    if isinstance(op, Choice):
        return {"choice": [_operator_doc(a) for a in op.alternatives]}
    assert isinstance(op, Pipeline)
    return {
        "steps": [_operator_doc(s) for s in op.steps],
        "edges": [list(e) for e in op.edges],
    }


def _config_value(value):
    if isinstance(value, Operator):
        return _operator_doc(value)
    return value


def cmd_grammar(args) -> int:
    registry = toyml.load_registry(_schemas_dir(args.schemas))
    try:
        grammar = dsl.parse_grammar(Path(args.grammar).read_text(encoding="utf-8"), registry)
    except dsl.DslError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 3
    try:
        if args.mode == "unfold":
            op = grammar_unfold(grammar, args.depth, registry)
        else:
            op = grammar_sample(grammar, args.seed, args.max_depth, registry)
    except (GrammarError, OperatorError) as exc:
        print(f"grammar error: {exc}", file=sys.stderr)
        return 2
    _write_text(args.out, _operator_text(op))
    return 0


def _load_dataset(args) -> toyml.LabeledDataset:
    if args.synth:
        kind, n, seed = args.synth.split(",")
        return toyml.synth_dataset(kind, int(n), int(seed))
    if not args.label:
        raise toyml.LabelColumnMissing("--label is required with --data")
    return toyml.load_csv(args.data, args.label)


def cmd_search(args) -> int:
    registry = toyml.load_registry(_schemas_dir(args.schemas))
    try:
        op = _load_pipeline(args, registry)
    except (dsl.DslError, OperatorError) as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 3
    if args.folds < 2:
        print("search error: --folds must be at least 2", file=sys.stderr)
        return 2
    try:
        data = _load_dataset(args)
        compiled = compile_space(op, keep_constraints=not args.no_constraints)
        spec = opt.OptimizerSpec(strategy=args.optimizer, max_trials=args.max_trials,
                                 seed=args.seed, bandit_epsilon=args.epsilon)
        objective = opt.make_cv_objective(compiled, data, folds=args.folds)
        history = opt.run(compiled, objective, spec, args.cont_samples)
    except (CompileError, NormalizeError, SchemaError, OperatorError, opt.GridTooLarge,
            toyml.BadCsv, toyml.LabelColumnMissing, ValueError) as exc:
        print(f"search error: {exc}", file=sys.stderr)
        return 2
    if args.out:
        _write_json(args.out, history.to_json())
    if args.curve:
        rows = ["trial,best_loss"]
        rows += [f"{index},{loss!r}" for index, loss in history.best_so_far()]
        _write_text(args.curve, "\n".join(rows) + "\n")
    invalid = history.invalid_count()
    if history.best is None:
        print(f"no valid trial in {len(history.trials)} attempts "
              f"({invalid} invalid)")
        return 4
    best_trial = history.trials[history.best]
    best_op = compiled.decode(best_trial.point)
    if args.best_out:
        _write_json(args.best_out, _operator_doc(best_op))
    print(f"best loss {best_trial.loss!r} at trial {best_trial.index}; "
          f"{invalid} invalid trials out of {len(history.trials)}")
    return 0


_STATE_FILL = {
    LifecycleState.PLANNED: "planned",
    LifecycleState.TRAINABLE: "trainable",
    LifecycleState.TRAINED: "trained",
}

_FILL_COLORS = {"planned": "#2f4b7c", "trainable": "#a8c8f0", "trained": "#ffffff"}


def operator_to_dot(op: Operator) -> str:
    """DOT rendering: choices become clusters, lifecycle states become the
    documented fill names planned/trainable/trained."""
    lines = ["digraph pipeline {", "  rankdir=LR;", "  node [style=filled];"]
    counter = [0]

    def emit(node: Operator, indent: str) -> list[str]:
        if isinstance(node, Individual):
            ident = f"n{counter[0]}"
            counter[0] += 1
            state = _STATE_FILL[state_of(node)]
            lines.append(
                f'{indent}{ident} [label="{node.name}" lifecycle="{state}" '
                f'fillcolor="{_FILL_COLORS[state]}"];'
            )
            return [ident]
        if isinstance(node, Choice):
            cluster = f"cluster_{counter[0]}"
            counter[0] += 1
            lines.append(f"{indent}subgraph {cluster} {{")
            lines.append(f'{indent}  label="choice";')
            idents = []
            for alt in node.alternatives:
                idents.extend(emit(alt, indent + "  "))
            lines.append(f"{indent}}}")
            return idents
        assert isinstance(node, Pipeline)
        step_idents = [emit(step, indent) for step in node.steps]
        for i, j in node.edges:
            for a in step_idents[i]:
                for b in step_idents[j]:
                    lines.append(f"{indent}{a} -> {b};")
        return [ident for group in step_idents for ident in group]

    emit(op, "  ")
    lines.append("}")
    return "\n".join(lines) + "\n"


def cmd_render(args) -> int:
    registry = toyml.load_registry(_schemas_dir(args.schemas))
    try:
        op = _load_pipeline(args, registry)
    except (dsl.DslError, OperatorError) as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 3
    _write_text(args.out, operator_to_dot(op))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="lalec",
                                     description="search-space compiler for pipelines")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compile", help="emit a search space for a pipeline")
    _add_pipeline_args(p)
    p.add_argument("--backend", choices=["hier", "flat", "pcs", "grid"], default="hier")
    p.add_argument("--no-constraints", action="store_true",
                   help="drop side constraints before compiling")
    p.add_argument("--cont-samples", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_compile)

    p = sub.add_parser("validate", help="check a configuration against an operator schema")
    p.add_argument("--op", required=True)
    p.add_argument("--config", required=True, help="JSON file path or inline JSON object")
    p.add_argument("--schemas")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("grammar", help="unfold or sample a pipeline grammar")
    grammar_sub = p.add_subparsers(dest="mode", required=True)
    for mode in ("unfold", "sample"):
        g = grammar_sub.add_parser(mode)
        g.add_argument("--grammar", required=True)
        g.add_argument("--schemas")
        if mode == "unfold":
            g.add_argument("--depth", type=int, required=True)
        else:
            g.add_argument("--seed", type=int, default=0)
            g.add_argument("--max-depth", type=int, required=True)
        g.add_argument("--out", default=None)
        g.set_defaults(func=cmd_grammar, mode=mode)

    p = sub.add_parser("search", help="run an optimizer over the compiled space")
    _add_pipeline_args(p)
    data = p.add_mutually_exclusive_group(required=True)
    data.add_argument("--data", help="CSV file with a header row")
    data.add_argument("--synth", help="kind,n,seed synthetic dataset")
    p.add_argument("--label", help="label column name for --data")
    p.add_argument("--optimizer", choices=["random", "grid", "bandit"], default="random")
    p.add_argument("--max-trials", type=int, default=100)
    p.add_argument("--folds", type=int, default=3)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--epsilon", type=float, default=0.25)
    p.add_argument("--cont-samples", type=int, default=1)
    p.add_argument("--no-constraints", action="store_true")
    p.add_argument("--out", default=None, help="history JSON file")
    p.add_argument("--best-out", default=None, help="best decoded pipeline JSON file")
    p.add_argument("--curve", default=None, help="best-so-far CSV file")
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("render", help="render a pipeline as DOT")
    _add_pipeline_args(p)
    p.add_argument("--format", choices=["dot"], default="dot")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_render)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
