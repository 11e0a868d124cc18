import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from lalec.cli import _indented_json, main, operator_to_dot
from lalec.operator_graph import configure, fit


def run_cli(args):
    return main(list(args))


class TestCompile:
    def test_flat_running_example(self, tmp_path, capsys):
        out = tmp_path / "space.json"
        code = run_cli(["compile", "--expr", "PCA >> (J48 | LR)",
                        "--backend", "flat", "--out", str(out)])
        assert code == 0
        doc = json.loads(out.read_text())
        assert len(doc["disjuncts"]) == 8

    def test_pcs_backend(self, tmp_path):
        out = tmp_path / "space.pcs"
        code = run_cli(["compile", "--expr", "PCA >> (J48 | LR)",
                        "--backend", "pcs", "--out", str(out)])
        assert code == 0
        text = out.read_text()
        assert "step1__C | step1__D == J48" in text
        assert text.endswith("\n")

    def test_parse_error_exit_3(self, capsys):
        assert run_cli(["compile", "--expr", "PCA >>", "--backend", "flat"]) == 3
        err = capsys.readouterr().err
        assert "line 1" in err and "column 7" in err

    def test_unknown_operator_exit_3(self, capsys):
        assert run_cli(["compile", "--expr", "Nonesuch", "--backend", "flat"]) == 3

    def test_pipeline_file(self, tmp_path):
        source = tmp_path / "p.pipe"
        source.write_text("# comment\nPCA >> (J48 | LR)\n")
        out = tmp_path / "space.json"
        assert run_cli(["compile", "--pipeline", str(source),
                        "--backend", "hier", "--out", str(out)]) == 0
        assert json.loads(out.read_text())["kind"] == "steps"

    def test_no_constraints_flag(self, tmp_path):
        out = tmp_path / "space.json"
        run_cli(["compile", "--expr", "J48", "--backend", "flat", "--out", str(out)])
        constrained = json.loads(out.read_text())
        run_cli(["compile", "--expr", "J48", "--backend", "flat",
                 "--no-constraints", "--out", str(out)])
        unconstrained = json.loads(out.read_text())
        assert len(constrained["disjuncts"]) == 2
        assert len(unconstrained["disjuncts"]) == 1

    def test_grid_deterministic_bytes(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for out in (a, b):
            run_cli(["compile", "--expr", "PCA >> (J48 | LR)", "--backend", "grid",
                     "--cont-samples", "1", "--seed", "5", "--out", str(out)])
        assert a.read_bytes() == b.read_bytes()


class TestValidate:
    def test_constraint_violation_exit_1(self, capsys):
        code = run_cli(["validate", "--op", "LR",
                        "--config", '{"solver": "sag", "penalty": "l1"}'])
        assert code == 1
        out = capsys.readouterr().out
        assert "l2" in out  # the constraint message names the implied penalty

    def test_valid_config_exit_0(self, capsys):
        code = run_cli(["validate", "--op", "LR",
                        "--config", '{"solver": "linear", "penalty": "l1"}'])
        assert code == 0
        assert "ok" in capsys.readouterr().out

    def test_unknown_operator_exit_2(self, capsys):
        assert run_cli(["validate", "--op", "SVMish", "--config", "{}"]) == 2

    def test_config_from_file(self, tmp_path):
        config = tmp_path / "c.json"
        config.write_text('{"R": true, "C": 0.3}')
        assert run_cli(["validate", "--op", "J48", "--config", str(config)]) == 1

    def test_bad_config_exit_2(self):
        assert run_cli(["validate", "--op", "LR", "--config", "{broken"]) == 2

    @pytest.mark.parametrize("value", ["NaN", "Infinity", "-Infinity", "1" + "0" * 400])
    def test_non_finite_or_huge_integer_exit_1(self, value, capsys):
        assert run_cli(["validate", "--op", "KNN", "--config", f'{{"k": {value}}}']) == 1
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("$.k: ") and lines[0].endswith(("[type]", "[range]"))

    def test_nan_real_exit_1(self, capsys):
        assert run_cli(["validate", "--op", "LogRegGD",
                        "--config", '{"learningRate": NaN}']) == 1
        assert capsys.readouterr().out == \
            "$.learningRate: value nan outside [0.0001, 10.0] [range]\n"


class TestGrammar:
    def test_unfold(self, tmp_path):
        out = tmp_path / "pipeline.txt"
        code = run_cli(["grammar", "unfold", "--grammar", "fixtures/grammars/linear_stages.grammar",
                        "--depth", "3", "--out", str(out)])
        assert code == 0
        text = out.read_text()
        assert "StandardScaler" in text and ">>" in text
        for nonterminal in ("clean", "tfm", "est", "start"):
            assert f" {nonterminal} " not in text

    def test_sample_stable(self, tmp_path):
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        for out in (a, b):
            code = run_cli(["grammar", "sample", "--grammar",
                            "fixtures/grammars/linear_stages.grammar",
                            "--seed", "0", "--max-depth", "3", "--out", str(out)])
            assert code == 0
        assert a.read_text() == b.read_text()

    def test_unproductive_exit_2(self, tmp_path, capsys):
        grammar = tmp_path / "loop.grammar"
        grammar.write_text("start := start;")
        code = run_cli(["grammar", "unfold", "--grammar", str(grammar), "--depth", "3"])
        assert code == 2


class TestSearch:
    def test_constrained_search_writes_artifacts(self, tmp_path, capsys):
        history_file = tmp_path / "history.json"
        best_file = tmp_path / "best.json"
        curve_file = tmp_path / "curve.csv"
        code = run_cli(["search", "--expr", "Scaler >> (PrunedTree | LogRegGD | KNN)",
                        "--synth", "blobs,96,0", "--optimizer", "random",
                        "--max-trials", "40", "--folds", "3", "--seed", "0",
                        "--out", str(history_file), "--best-out", str(best_file),
                        "--curve", str(curve_file)])
        assert code == 0
        message = capsys.readouterr().out
        assert "0 invalid trials" in message
        history = json.loads(history_file.read_text())
        assert len(history["trials"]) == 40
        assert all(t["status"] == "valid" for t in history["trials"])
        best = json.loads(best_file.read_text())
        assert [s["operator"] for s in best["steps"]][0] == "Scaler"
        lines = curve_file.read_text().splitlines()
        assert lines[0] == "trial,best_loss"
        assert len(lines) == 41

    def test_unconstrained_search_counts_invalid(self, tmp_path, capsys):
        code = run_cli(["search", "--expr", "Scaler >> (PrunedTree | LogRegGD | KNN)",
                        "--synth", "blobs,96,0", "--optimizer", "random",
                        "--max-trials", "60", "--folds", "3", "--seed", "0",
                        "--no-constraints"])
        assert code == 0
        message = capsys.readouterr().out
        invalid = int(message.split(";")[1].split()[0])
        assert invalid >= 1

    def test_grid_search_exhaustive(self, tmp_path, capsys):
        history_file = tmp_path / "history.json"
        code = run_cli(["search", "--expr", "PCA >> (J48 | LR)",
                        "--synth", "blobs,96,0", "--optimizer", "grid",
                        "--max-trials", "100", "--cont-samples", "1", "--seed", "0",
                        "--out", str(history_file)])
        assert code == 4  # PCA has no toy implementation: no trial can fit
        history = json.loads(history_file.read_text())
        assert len(history["trials"]) == 27

    def test_grid_counts_match_cells(self, tmp_path, capsys):
        history_file = tmp_path / "history.json"
        code = run_cli(["search", "--expr", "Scaler >> (J48 | LR)",
                        "--synth", "blobs,96,0", "--optimizer", "grid",
                        "--max-trials", "64", "--folds", "3",
                        "--cont-samples", "1", "--seed", "3",
                        "--out", str(history_file)])
        assert code == 0
        history = json.loads(history_file.read_text())
        # J48 rows: (1 R * 2 C) + (2 R * 1 C); LR rows: (1 * 2) + (3 * 1)
        assert len(history["trials"]) == 2 + 2 + 2 + 3

    def test_csv_input(self, tmp_path, capsys):
        rows = ["f0,f1,target"]
        rows += [f"{i},{i % 7},{'a' if i % 2 else 'b'}" for i in range(40)]
        data = tmp_path / "d.csv"
        data.write_text("\n".join(rows) + "\n")
        code = run_cli(["search", "--expr", "KNN", "--data", str(data),
                        "--label", "target", "--max-trials", "8", "--folds", "2"])
        assert code == 0


class TestRender:
    def test_two_node_graph(self, tmp_path):
        out = tmp_path / "g.dot"
        assert run_cli(["render", "--expr", "Scaler >> KNN", "--out", str(out)]) == 0
        text = out.read_text()
        assert "digraph" in text
        assert text.count("->") == 1
        assert 'lifecycle="planned"' in text

    def test_choice_cluster(self, tmp_path):
        out = tmp_path / "g.dot"
        run_cli(["render", "--expr", "KNN | LR", "--out", str(out)])
        text = out.read_text()
        assert "subgraph cluster_" in text
        assert text.count("->") == 0

    def test_union_has_two_edges_into_concat(self, tmp_path):
        out = tmp_path / "g.dot"
        run_cli(["render", "--expr", "(Scaler & NoOp) >> Concat", "--out", str(out)])
        assert out.read_text().count("->") == 2

    def test_lifecycle_fill_states(self, registry, blobs):
        planned = registry["KNN"]
        trainable = configure(planned, {"k": 3})
        trained = fit(trainable, blobs)
        for op, state in ((planned, "planned"), (trainable, "trainable"), (trained, "trained")):
            assert f'lifecycle="{state}"' in operator_to_dot(op)


class TestSchemasDirectory:
    def test_explicit_schemas_dir(self, tmp_path, capsys):
        (tmp_path / "Lone.schema.json").write_text(json.dumps({
            "type": "object", "additionalProperties": False,
            "properties": {"x": {"enum": [1, 2], "default": 1}}}))
        assert run_cli(["validate", "--op", "Lone", "--config", '{"x": 2}',
                        "--schemas", str(tmp_path)]) == 0
        assert run_cli(["validate", "--op", "KNN", "--config", "{}",
                        "--schemas", str(tmp_path)]) == 2

    def test_env_var_default(self, tmp_path, monkeypatch, capsys):
        (tmp_path / "EnvOp.schema.json").write_text(json.dumps({
            "type": "object", "additionalProperties": False,
            "properties": {"x": {"enum": [1], "default": 1}}}))
        monkeypatch.setenv("LALEC_SCHEMA_PATH", str(tmp_path))
        assert run_cli(["validate", "--op", "EnvOp", "--config", "{}"]) == 0

    def test_compile_error_names_operator(self, tmp_path, capsys):
        (tmp_path / "Broken.schema.json").write_text(json.dumps({
            "allOf": [
                {"type": "object", "additionalProperties": False,
                 "properties": {"x": {"enum": [1, 2], "default": 1}}},
                {"type": "object", "properties": {"x": {"enum": [3]}}},
            ]}))
        code = run_cli(["compile", "--expr", "Broken", "--backend", "flat",
                        "--schemas", str(tmp_path)])
        assert code == 2
        assert "Broken" in capsys.readouterr().err


class TestEntryPoint:
    def test_module_invocation(self):
        # The child process imports lalec from this checkout's sources, as
        # pytest's own pythonpath setting does for the tests.
        src = str(Path(__file__).resolve().parent.parent / "src")
        paths = [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
        proc = subprocess.run(
            [sys.executable, "-m", "lalec.cli", "validate", "--op", "J48",
             "--config", '{"R": false}'],
            capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": os.pathsep.join(paths)})
        assert proc.returncode == 0
        assert "ok" in proc.stdout


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


class TestReadmeSearchExample:
    # The README's `search` example, run through `main`. Each artifact is
    # pinned by its sha256; the history's `elapsed` fields are zeroed first,
    # as `History.to_json(include_timing=False)` writes them.
    STDOUT = "98941f81e787744e4c11f6a448ddebacfbf787fa73112da2f0a190d16626539d"
    HISTORY = "c7ffdc4c0cd2a575d492870614979cea716d158952aba818e147535b1c5715e2"
    BEST = "69222d739770728266ba62afc3f479ba85b8722076e968f519002bbd5e8dae73"
    CURVE = "2e6fcd274f3245d8d615c08b9930ed91a836a182fe606f990c9c6750705e1a6d"

    def test_artifacts_are_pinned(self, tmp_path, capsys):
        history_file = tmp_path / "history.json"
        best_file = tmp_path / "best.json"
        curve_file = tmp_path / "curve.csv"
        code = run_cli(["search", "--expr", "Scaler >> (PrunedTree | LogRegGD | KNN)",
                        "--synth", "blobs,120,0", "--optimizer", "bandit",
                        "--max-trials", "200", "--seed", "0",
                        "--out", str(history_file), "--best-out", str(best_file),
                        "--curve", str(curve_file)])
        assert code == 0
        history = json.loads(history_file.read_text())
        for trial in history["trials"]:
            trial["elapsed"] = 0.0
        digests = {
            "stdout": _sha256(capsys.readouterr().out),
            "history": _sha256(json.dumps(history, indent=2) + "\n"),
            "best": _sha256(best_file.read_text()),
            "curve": _sha256(curve_file.read_text()),
        }
        assert digests == {"stdout": self.STDOUT, "history": self.HISTORY,
                           "best": self.BEST, "curve": self.CURVE}


# ---------------------------------------------------------------------------
# The JSON writer against json.dumps(indent=2)

_JSON_SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(-2**70, 2**70), st.text(max_size=4),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([-0.0, sys.float_info.max, math.inf, -math.inf, math.nan]))
_JSON_DOCS = st.recursive(
    _JSON_SCALARS,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4), st.tuples(inner, inner),
        st.dictionaries(st.one_of(st.text(max_size=3), st.integers(-3, 3), st.none(),
                                  st.booleans(), st.floats(allow_nan=True)), inner, max_size=4)),
    max_leaves=12)


@st.composite
def _histories(draw):
    """Documents shaped as `search --out` writes them, failed trials' penalty
    losses and infinite or NaN losses included."""
    point = st.dictionaries(st.sampled_from(["step0__D", "knn__k", "logreggd__learningRate",
                                             "s\u00e9l\"ect"]), _JSON_SCALARS, max_size=4)
    trials = [{"index": i, "point": draw(point),
               "loss": draw(st.sampled_from([0.25, sys.float_info.max, math.inf, math.nan]) |
                            st.floats(0, 1)),
               "status": draw(st.sampled_from(["valid", "invalidConfig", "runtimeError"])),
               "elapsed": draw(st.floats(0, 1))}
              for i in range(draw(st.integers(0, 6)))]
    return {"seed": draw(st.integers(0, 2**31)), "spaceDigest": "ab" * 32,
            "best": draw(st.none() | st.integers(0, 5)), "trials": trials}


class TestIndentedJson:
    @settings(max_examples=300, deadline=None)
    @given(st.one_of(_histories(), _JSON_DOCS))
    def test_same_text_as_json_dumps(self, doc):
        assert _indented_json(doc) == json.dumps(doc, indent=2)

    @pytest.mark.parametrize("doc", [{"a": {1, 2}}, [object()], {(1, 2): 0}, {"a": [b"x"]}])
    def test_refuses_what_json_dumps_refuses(self, doc):
        with pytest.raises(TypeError):
            json.dumps(doc, indent=2)
        with pytest.raises(TypeError):
            _indented_json(doc)
