import hashlib
import itertools
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from lalec import optimizer as opt
from lalec.cli import main, operator_to_dot
from lalec.operator_graph import configure, fit
from lalec.pipeline_dsl import parse_expr
from lalec.space_backends import compile_space
from lalec.space_normalizer import DEFAULT_BLOWUP_LIMIT
from lalec.toyml import default_schemas_dir, load_registry


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

    def test_parse_error_after_a_tail_comment_is_at_the_end(self, capsys):
        assert run_cli(["compile", "--expr", "KNN >> # tail comment"]) == 3
        assert capsys.readouterr().err.startswith("parse error: line 1, column 22: ")

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

    def test_non_utf8_config_file_exit_2(self, tmp_path, capsys):
        config = tmp_path / "c.json"
        config.write_bytes(b'{"k": "\xff"}')
        assert run_cli(["validate", "--op", "KNN", "--config", str(config)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("bad config: ") and "Traceback" not in err

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

    def test_bad_call_argument_refused_at_parse(self, tmp_path, capsys):
        # No unfold reaches the argument: its alternative does not resolve.
        grammar = tmp_path / "bad.grammar"
        grammar.write_text("start := KNN | a >> BoostedEnsemble(base=Nonesuch); a := a;")
        assert run_cli(["grammar", "unfold", "--grammar", str(grammar), "--depth", "3"]) == 3
        assert capsys.readouterr().err == ("parse error: unknown operator 'Nonesuch' in "
                                           "argument 'base' of BoostedEnsemble\n")


GRAMMAR = "fixtures/grammars/linear_stages.grammar"


SEARCH = ["search", "--expr", "KNN", "--synth", "blobs,40,0", "--max-trials", "2"]


class TestExitCodes:
    """Bad arguments and unreadable files exit with the documented codes,
    not a traceback. MISSING, DIR and BINARY stand for a file that does not
    exist, a directory and a file that is not UTF-8 text."""

    @pytest.mark.parametrize("args,code,prefix", [
        (["compile", "--expr", "KNN", "--backend", "grid", "--cont-samples", "0"],
         2, "compile error"),
        (["grammar", "unfold", "--grammar", GRAMMAR, "--depth", "0"], 2, "grammar error"),
        (["grammar", "sample", "--grammar", GRAMMAR, "--max-depth", "0"], 2, "grammar error"),
        (["compile", "--pipeline", "MISSING"], 3, "parse error"),
        (["compile", "--pipeline", "DIR"], 3, "parse error"),
        (["compile", "--pipeline", "BINARY"], 3, "parse error"),
        (["search", "--pipeline", "MISSING", "--synth", "blobs,40,0"], 3, "parse error"),
        (["render", "--pipeline", "MISSING"], 3, "parse error"),
        (["grammar", "unfold", "--grammar", "MISSING", "--depth", "1"], 3, "parse error"),
        (["grammar", "sample", "--grammar", "BINARY", "--max-depth", "1"], 3, "parse error"),
        (["search", "--expr", "KNN", "--synth", "blobs,40,0", "--folds", "1"], 2, "search error"),
        (["search", "--expr", "KNN", "--synth", "blobs,40,0", "--folds", "41"], 2, "search error"),
        (["search", "--expr", "KNN", "--synth", "blobs,40"], 2, "search error"),
        (["search", "--expr", "KNN", "--synth", "blobs,40,0", "--epsilon", "2"],
         2, "search error"),
        (["compile", "--expr", " >> ".join(["NoOp"] * 1000 + ["KNN"])], 3, "parse error"),
        (["compile", "--expr", "(" * 2000 + "KNN" + ")" * 2000], 3, "parse error"),
        (["grammar", "unfold", "--grammar", GRAMMAR, "--depth", "200"], 2, "grammar error"),
        (["grammar", "unfold", "--grammar", GRAMMAR, "--depth", "400"], 2, "grammar error"),
    ])
    def test_documented_exit_code(self, tmp_path, capsys, args, code, prefix):
        (tmp_path / "binary").write_bytes(b"KNN \xff\n")
        files = {"MISSING": str(tmp_path / "missing.pipe"), "DIR": str(tmp_path),
                 "BINARY": str(tmp_path / "binary")}
        assert run_cli([files.get(arg, arg) for arg in args]) == code
        err = capsys.readouterr().err
        assert err.startswith(prefix + ": ")
        named = [files[arg] for arg in args if arg in files]
        assert all(f"cannot read {path}: " in err for path in named)

    @pytest.mark.parametrize("flag,value", [
        ("--folds", "1"), ("--folds", "41"), ("--synth", "blobs,40"), ("--synth", "blobs,x,0"),
        ("--epsilon", "2"), ("--epsilon", "-0.5"), ("--max-trials", "0")])
    def test_search_usage_error_names_the_flag(self, capsys, flag, value):
        args = {"--synth": "blobs,40,0", "--max-trials": "2", flag: value}
        assert run_cli(["search", "--expr", "KNN", *itertools.chain(*args.items())]) == 2
        assert capsys.readouterr().err.startswith(f"search error: {flag} ")

    @pytest.mark.parametrize("args,prefix", [
        (SEARCH + ["--optimizer", "grid", "--cont-samples", "0"], "search error"),
        (["compile", "--expr", "KNN", "--backend", "grid", "--cont-samples", "0"], "compile error"),
    ], ids=["search", "compile"])
    def test_cont_samples_error_names_the_flag(self, capsys, args, prefix):
        assert run_cli(args) == 2
        assert capsys.readouterr().err == f"{prefix}: --cont-samples must be positive\n"

    @pytest.mark.parametrize("args,prefix", [
        (SEARCH + ["--optimizer", "grid"], "search error"),
        (["compile", "--expr", "KNN", "--backend", "grid"], "compile error"),
    ], ids=["search", "compile"])
    def test_grid_past_the_draw_cap_is_refused(self, tmp_path, capsys, args, prefix):
        out = tmp_path / "out.json"
        assert run_cli(args + ["--cont-samples", "100000000", "--out", str(out)]) == 2
        assert capsys.readouterr().err == (f"{prefix}: grid draw count 100000001 exceeds the cap "
                                           "of 100000; largest step: knn (KNN), flat size 1\n")
        assert not out.exists()

    @pytest.mark.parametrize("backend", ["flat", "pcs", "grid"])
    def test_a_refused_emission_states_its_flat_size(self, tmp_path, capsys, backend):
        unfolded = tmp_path / "unfolded.pipe"
        assert run_cli(["grammar", "unfold", "--grammar", "fixtures/grammars/feature_union.grammar",
                        "--depth", "3", "--out", str(unfolded)]) == 0
        size = compile_space(parse_expr(unfolded.read_text(), load_registry())).ir.flat_count
        assert size == 30275
        out = tmp_path / "out"
        assert run_cli(["compile", "--pipeline", str(unfolded), "--backend", backend,
                        "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"compile error: flat size {size} exceeds the cap of {DEFAULT_BLOWUP_LIMIT}; "
            "largest step: step0, flat size 6055\n")
        assert not out.exists()

    def test_cont_samples_unused_by_random_search(self, capsys):
        assert run_cli(SEARCH + ["--cont-samples", "0"]) == 0

    def test_library_keeps_its_parameter_names(self):
        with pytest.raises(ValueError, match="^max_trials must be positive$"):
            opt.OptimizerSpec(max_trials=0)
        with pytest.raises(ValueError, match=r"^bandit_epsilon must lie in \[0, 1\]$"):
            opt.OptimizerSpec(bandit_epsilon=2)
        compiled = compile_space(load_registry()["KNN"])
        with pytest.raises(ValueError, match="^cont_samples must be positive$"):
            compiled.grid(0)

    def test_render_takes_no_format(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli(["render", "--expr", "KNN", "--format", "dot"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --format dot" in capsys.readouterr().err


class TestBadSchemaFile:
    """A schema file that cannot be parsed or read is a parse error naming
    the file, from --schemas or $LALEC_SCHEMA_PATH, not a traceback."""

    COMMANDS = pytest.mark.parametrize("args,code", [
        (["compile", "--expr", "KNN"], 3),
        (["grammar", "unfold", "--grammar", GRAMMAR, "--depth", "1"], 3),
        (["grammar", "sample", "--grammar", GRAMMAR, "--max-depth", "1"], 3),
        (SEARCH, 3),
        (["render", "--expr", "KNN"], 3),
        (["validate", "--op", "KNN", "--config", "{}"], 2),
    ], ids=["compile", "grammar-unfold", "grammar-sample", "search", "render", "validate"])

    @COMMANDS
    @pytest.mark.parametrize("content", [
        b'{"type": "object", "properties": {"k": {"type": "string"}}}', b"{\xff}"],
        ids=["unsupported", "binary"])
    def test_parse_error_names_the_file(self, tmp_path, capsys, args, code, content):
        path = tmp_path / "KNN.schema.json"
        path.write_bytes(content)
        assert run_cli(args + ["--schemas", str(tmp_path)]) == code
        err = capsys.readouterr().err
        assert err.startswith(f"parse error: {path}: ")
        assert "Traceback" not in err

    @COMMANDS
    def test_a_missing_directory_is_named(self, tmp_path, monkeypatch, capsys, args, code):
        missing = tmp_path / "nonexistent"
        assert run_cli(args + ["--schemas", str(missing)]) == code
        assert capsys.readouterr().err == f"parse error: {missing}: not a directory\n"
        monkeypatch.setenv("LALEC_SCHEMA_PATH", str(missing))
        assert run_cli(args) == code
        assert capsys.readouterr().err == f"parse error: {missing}: not a directory\n"

    def test_unreadable_schema_file(self, tmp_path, capsys):
        (tmp_path / "KNN.schema.json").mkdir()
        assert run_cli(["compile", "--expr", "KNN", "--schemas", str(tmp_path)]) == 3
        assert capsys.readouterr().err.startswith(
            f"parse error: {tmp_path / 'KNN.schema.json'}: ")

    def test_env_var_schemas_dir(self, tmp_path, monkeypatch, capsys):
        path = tmp_path / "KNN.schema.json"
        path.write_text('{"type": "object", "properties": {"k": {"type": "string"}}}')
        monkeypatch.setenv("LALEC_SCHEMA_PATH", str(tmp_path))
        assert run_cli(["validate", "--op", "KNN", "--config", "{}"]) == 2
        assert capsys.readouterr().err.startswith(f"parse error: {path}: unsupported keyword")


class TestRefusedBeforeBuilding:
    """A space whose keys collide and an unfold above the cap exit 2 with
    an error that names what was refused."""

    @pytest.mark.parametrize("args,prefix", [
        (["compile", "--expr", "Dee | KNN"], "compile error"),
        (["search", "--expr", "Dee | KNN", "--synth", "blobs,40,0", "--max-trials", "2"],
         "search error")])
    def test_a_hyperparameter_named_like_a_discriminant(self, tmp_path, capsys, args, prefix):
        for path in default_schemas_dir().glob("*.schema.json"):
            shutil.copy(path, tmp_path)
        (tmp_path / "Dee.schema.json").write_text(
            '{"type": "object", "properties": {"D": {"enum": ["x", "y"]}}}')
        assert run_cli(args + ["--schemas", str(tmp_path)]) == 2
        assert capsys.readouterr().err.startswith(
            f"{prefix}: Dee: hyperparameter 'D' mangles to 'step0__D', as does the "
            f"discriminant of the choice at 'step0'")

    def test_an_unfold_above_the_cap(self, capsys):
        args = ["grammar", "unfold", "--grammar", "fixtures/grammars/feature_union.grammar",
                "--depth", "7"]
        assert run_cli(args) == 2
        assert capsys.readouterr().err.startswith(
            "grammar error: unfolding at depth 7 would build 98305 nodes, above the cap of ")


class TestOutputErrors:
    """An output file that cannot be written exits 5 with an output error
    that names the path given, and leaves no temporary file beside it. The
    target is a file in a directory that does not exist, or an existing
    directory."""

    @pytest.mark.parametrize("target", ["missing", "directory"])
    @pytest.mark.parametrize("args", [
        ["compile", "--expr", "KNN", "--out"],
        ["grammar", "unfold", "--grammar", GRAMMAR, "--depth", "1", "--out"],
        ["render", "--expr", "KNN", "--out"],
        SEARCH + ["--out"],
        SEARCH + ["--best-out"],
        SEARCH + ["--curve"],
    ], ids=["compile", "grammar", "render", "search-out", "search-best-out", "search-curve"])
    def test_unwritable_output_exits_5(self, tmp_path, capsys, args, target):
        if target == "missing":
            path = tmp_path / "missing" / "out.txt"
        else:
            path = tmp_path / "out.txt"
            path.mkdir()
        assert run_cli(args + [str(path)]) == 5
        err = capsys.readouterr().err
        assert err.startswith(f"output error: cannot write {path}: ")
        assert "Traceback" not in err
        assert list(tmp_path.glob(".out.txt.*")) == []


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

    def test_a_transformer_final_pipeline_has_no_valid_trial(self, tmp_path, capsys):
        # Its predictions are feature columns, not one label per row.
        history_file = tmp_path / "history.json"
        code = run_cli(["search", "--expr", "Scaler >> SelectKVariance",
                        "--synth", "blobs,60,0", "--max-trials", "5",
                        "--out", str(history_file)])
        assert code == 4
        assert "no valid trial in 5 attempts" in capsys.readouterr().out
        history = json.loads(history_file.read_text())
        assert {t["status"] for t in history["trials"]} == {opt.RUNTIME_ERROR}

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

    def test_a_label_on_one_row_leaves_every_trial_valid(self, tmp_path, capsys):
        # The label sorts first, so a training fold without its row lacks class 0.
        rows = ["f1,f2,y", "0.1,1.0,a"]
        rows += [f"{i / 10},{(9 - i) / 10},b" for i in range(8)]
        data = tmp_path / "rare.csv"
        data.write_text("\n".join(rows) + "\n")
        code = run_cli(["search", "--expr", "KNN", "--data", str(data),
                        "--label", "y", "--max-trials", "3"])
        assert code == 0
        assert capsys.readouterr().out.endswith("; 0 invalid trials out of 3\n")


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


class TestJsonArtifactsArePinned:
    """The raw text of the JSON files the CLI writes, pinned by sha256:
    indentation, key order, float spelling and the final newline."""

    @pytest.mark.parametrize("backend,digest", [
        ("hier", "bff8dc8e6e62ed21c0586b970fc8426f06c51bc5507551fea977d82b7a75c975"),
        ("flat", "009ff760308883496963ab269f01387f5e3179178f949e98ef4b7c12b95290e5"),
        ("grid", "fcfc7f7a4263213514455a1f6390459e5e932c38021f2d1b5fbec32e1296d2d8"),
    ])
    def test_compile_out(self, tmp_path, backend, digest):
        out = tmp_path / "space.json"
        assert run_cli(["compile", "--expr", "PCA >> (J48 | LR)", "--backend", backend,
                        "--out", str(out)]) == 0
        assert _sha256(out.read_text()) == digest

    def test_search_best_out(self, tmp_path, capsys):
        # The best trial is a LogRegGD with a float learning rate.
        out = tmp_path / "best.json"
        assert run_cli(["search", "--expr", "Scaler >> (PrunedTree | LogRegGD)",
                        "--synth", "blobs,60,0", "--max-trials", "8", "--seed", "0",
                        "--best-out", str(out)]) == 0
        assert _sha256(out.read_text()) == (
            "e70181fc35180e87a0e9fd1acbd379276778a6caa1ad642e49fa3b0d99581176")
