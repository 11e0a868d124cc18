"""Outside-in tracer for the benchmark.

The tracer never edits lalec: it replaces public functions at every name
their callers look up (module globals, including names bound by
``from``-imports), the two class methods the benchmark calls, and the
``fit``/``apply`` of every registered toy implementation. ``restore`` puts
every original back. Spans are kept in memory, one column each for name,
start, end and parent index (few objects for the garbage collector to
walk), and summarised or written out at the end.

A span's self time is its duration minus the durations of its direct
children. A wrapper re-entered while a span of the same name is open runs
the original without a new span, so recursive emitters and decoders count
once per outside call.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import sys
import time
from collections import Counter, defaultdict


def count_name(time_name: str) -> str:
    """``toyml.fit_s.knn`` -> ``toyml.fit_n.knn``; ``cli.self_s`` -> ``cli.self_n``."""
    parts = time_name.split(".")
    for i in range(len(parts) - 1, -1, -1):
        if parts[i].endswith("_s"):
            parts[i] = parts[i][:-2] + "_n"
            return ".".join(parts)
    raise ValueError(f"span name {time_name!r} has no _s segment")


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int | None] = []
        self.counters: Counter = Counter()
        self._stack: list[int] = []
        self._open: Counter = Counter()
        self._undo: list = []

    # -- spans -------------------------------------------------------------
    # A span opens before and closes after the tracer's own bookkeeping, so
    # that cost shows in the layer it wraps and in trace.overhead_s rather
    # than as time between spans.

    def _begin(self, name: str, start: float) -> int:
        index = len(self.names)
        self.parents.append(self._stack[-1] if self._stack else None)
        self.names.append(name)
        self.starts.append(start)
        self.ends.append(start)
        self._stack.append(index)
        self._open[name] += 1
        return index

    def _end(self, index: int) -> None:
        self._stack.pop()
        self._open[self.names[index]] -= 1
        self.ends[index] = time.perf_counter()

    def parent_name(self, index: int) -> str | None:
        parent = self.parents[index]
        return None if parent is None else self.names[parent]

    def wrap(self, name, fn, on_result=None, on_error=None):
        """Time every outside call of ``fn`` as a span called ``name``.
        ``on_result(tracer, result)`` and ``on_error(tracer, index, exc)``
        record counters."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            start = time.perf_counter()
            if tracer._open[name]:
                return fn(*args, **kwargs)
            index = tracer._begin(name, start)
            try:
                result = fn(*args, **kwargs)
                if on_result is not None:
                    on_result(tracer, result)
                return result
            except BaseException as exc:
                if on_error is not None:
                    on_error(tracer, index, exc)
                raise
            finally:
                tracer._end(index)

        return traced

    def wrap_iter(self, name, fn):
        """Like ``wrap`` for a generator function: each step is one span."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            iterator = fn(*args, **kwargs)
            while True:
                index = tracer._begin(name, time.perf_counter())
                try:
                    item = next(iterator)
                except StopIteration:
                    return
                finally:
                    tracer._end(index)
                yield item

        return traced

    # -- patching ------------------------------------------------------------

    def _set(self, owner, key, value, setter=setattr, getter=getattr):
        original = getter(owner, key)
        self._undo.append(lambda: setter(owner, key, original))
        setter(owner, key, value)

    def patch_function(self, module, attr, name, traced=None, **hooks):
        """Replace ``module.attr`` everywhere a lalec module binds it."""
        original = getattr(module, attr)
        if traced is None:
            traced = self.wrap(name, original, **hooks)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "lalec" or mod_name.startswith("lalec.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, key, traced)

    def patch_method(self, cls, attr, name):
        self._set(cls, attr, self.wrap(name, cls.__dict__[attr]))

    def patch_item(self, mapping, key, value):
        self._set(mapping, key, value,
                  setter=lambda m, k, v: m.__setitem__(k, v),
                  getter=lambda m, k: m[k])

    def restore(self) -> None:
        while self._undo:
            self._undo.pop()()

    # -- results -------------------------------------------------------------

    def summary(self) -> tuple[dict[str, float], Counter, float]:
        """Self seconds and call counts per span name, and the seconds
        covered by top-level spans (calls the benchmark made itself)."""
        durations = [end - start for start, end in zip(self.starts, self.ends)]
        child_seconds = [0.0] * len(durations)
        top_level = 0.0
        for duration, parent in zip(durations, self.parents):
            if parent is None:
                top_level += duration
            else:
                child_seconds[parent] += duration
        self_seconds: dict[str, float] = defaultdict(float)
        for name, duration, children in zip(self.names, durations, child_seconds):
            self_seconds[name] += duration - children
        return self_seconds, Counter(self.names), top_level

    def write(self, path) -> None:
        """One JSON array ``[name, start, end, parent]`` per line."""
        with open(path, "w", encoding="utf-8") as handle:
            for span in zip(self.names, self.starts, self.ends, self.parents):
                handle.write(json.dumps(span) + "\n")


def _count_disjuncts(tracer, nf):
    tracer.counters["space_normalizer.disjuncts"] += len(nf.disjuncts)


def _count_flat_rows(tracer, rows):
    # Rows built, including the flat forms emit_pcs and emit_grid build.
    tracer.counters["space_backends.flat_rows"] += len(rows)


def _count_grid_cells(tracer, grid):
    tracer.counters["space_backends.grid_cells"] += grid["cellCount"]


def _count_refusal(tracer, index, exc):
    from lalec.space_normalizer import BlowupExceeded

    # emit_pcs and emit_grid refuse through emit_flat: count the refusal
    # once, where it leaves the emitters.
    parent = tracer.parent_name(index) or ""
    if isinstance(exc, BlowupExceeded) and not parent.startswith("space_backends.emit_"):
        tracer.counters["space_backends.emit_refused"] += 1


def install(tracer: Tracer) -> None:
    """Wrap the public entry points of every lalec layer."""
    from lalec import (
        cli,
        grammar_engine,
        operator_graph,
        optimizer,
        pipeline_dsl,
        schema_model,
        space_backends,
        space_normalizer,
        toyml,
    )

    patch = tracer.patch_function
    patch(schema_model, "parse_schema", "schema_model.parse_schema_s")
    patch(schema_model, "validate", "schema_model.validate_s")
    patch(pipeline_dsl, "parse_expr", "pipeline_dsl.parse_s")
    patch(pipeline_dsl, "parse_grammar", "pipeline_dsl.parse_s")
    patch(space_normalizer, "normalize", "space_normalizer.normalize_s",
          on_result=_count_disjuncts)
    # compile_space is combine plus the CompiledSpace record; callers look it up.
    patch(space_backends, "compile_space", "space_backends.combine_s")
    patch(space_backends, "emit_hierarchical", "space_backends.emit_hier_s")
    patch(space_backends, "emit_flat", "space_backends.emit_flat_s",
          on_result=_count_flat_rows, on_error=_count_refusal)
    patch(space_backends, "flat_doc", "space_backends.flat_doc_s")
    patch(space_backends, "emit_pcs", "space_backends.emit_pcs_s", on_error=_count_refusal)
    patch(space_backends, "emit_grid", "space_backends.emit_grid_s",
          on_result=_count_grid_cells, on_error=_count_refusal)
    patch(space_backends, "read_pcs", "space_backends.read_pcs_s")
    patch(space_backends, "sample_space", "space_backends.sample_s")
    patch(space_backends, "decode", "space_backends.decode_s")
    patch(space_backends, "grid_cells", "space_backends.iter_cells_s",
          traced=tracer.wrap_iter("space_backends.iter_cells_s", space_backends.grid_cells))
    tracer.patch_method(space_backends.PcsSpace, "sample", "space_backends.sample_s")
    tracer.patch_method(space_backends.CompiledSpace, "decode_pcs", "space_backends.decode_s")
    patch(grammar_engine, "unfold", "grammar_engine.unfold_s")
    patch(grammar_engine, "sample", "grammar_engine.sample_s")
    patch(toyml, "load_registry", "toyml.load_registry_s")
    patch(toyml, "synth_dataset", "toyml.synth_dataset_s")
    patch(toyml, "stratified_folds", "toyml.folds_s")
    patch(toyml, "cross_val_score", "toyml.cross_val_s")
    patch(operator_graph, "fit", "operator_graph.fit_s")
    patch(operator_graph, "predict", "operator_graph.predict_s")
    for search in ("random_search", "grid_search", "bandit_search", "make_cv_objective"):
        patch(optimizer, search, "optimizer.self_s")
    patch(cli, "main", "cli.self_s")
    for key, impl in list(operator_graph.IMPLEMENTATIONS.items()):
        tracer.patch_item(operator_graph.IMPLEMENTATIONS, key, dataclasses.replace(
            impl,
            fit=tracer.wrap(f"toyml.fit_s.{key}", impl.fit),
            apply=tracer.wrap(f"toyml.apply_s.{key}", impl.apply)))
