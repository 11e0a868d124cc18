"""Golden search histories and compile outputs: seeded runs whose history
JSON (timing fields zeroed), and grammar unfolds whose four encodings, must
stay byte-identical when the evaluation or compile code is optimised.

The digests were recorded from the reference implementations kept in
tests/test_toyml.py: per-row tree growth, sgd row drawing and fold
splitting, the descent step that checks finiteness every iteration, and
k-nearest neighbours by a full stable sort of every distance row. A changed digest means a
seeded search result changed, which a speed-up must never do.
"""

import hashlib
import json
import random
from pathlib import Path

import numpy as np
import pytest

from lalec import grammar_engine
from lalec import optimizer as opt
from lalec import toyml
from lalec.pipeline_dsl import parse_expr, parse_grammar
from lalec.space_backends import compile_space, flat_doc, read_pcs
from lalec.space_normalizer import BlowupExceeded


def history_digest(history) -> str:
    doc = history.to_json(include_timing=False)
    text = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


CRITERION_8 = {
    True: "9807b7037dab4f3491a4c23fe50f8394c729903c2e8768f4edd2380caad2be0b",
    False: "460c281dab51e915341bd2c5942c233addf2c0d70b096fb2c737515068f87c1a",
}

# Valid trials whose point an earlier trial already drew: the scores the
# objective returns from its memo instead of fitting again.
CRITERION_8_REPEATS = {True: 69, False: 2}


def repeated_valid(history) -> int:
    seen, repeats = set(), 0
    for t in history.trials:
        key = json.dumps(t.point, sort_keys=True)
        repeats += t.status == opt.VALID and key in seen
        seen.add(key)
    return repeats


@pytest.mark.parametrize("keep_constraints", [True, False],
                         ids=["constrained", "unconstrained"])
def test_criterion_8_bandit_history_is_pinned(registry, blobs, keep_constraints):
    # The criterion-8 ablation run: blobs n=120 seed 0, 3 folds, 200 trials.
    op = parse_expr("Scaler >> (PrunedTree | LogRegGD | KNN)", registry)
    compiled = compile_space(op, keep_constraints=keep_constraints)
    objective = opt.make_cv_objective(compiled, blobs, folds=3)
    spec = opt.OptimizerSpec(strategy="bandit", max_trials=200, seed=0)
    history = opt.bandit_search(compiled.hierarchical(), objective, spec)
    assert history_digest(history) == CRITERION_8[keep_constraints]
    assert repeated_valid(history) == CRITERION_8_REPEATS[keep_constraints]


def test_random_search_with_sgd_and_boosting_is_pinned(registry, xor_data):
    op = parse_expr("Scaler >> (LogRegGD | BoostedEnsemble)", registry)
    compiled = compile_space(op)
    objective = opt.make_cv_objective(compiled, xor_data, folds=3)
    spec = opt.OptimizerSpec(strategy="random", max_trials=60, seed=0)
    history = opt.random_search(compiled.hierarchical(), objective, spec)
    sgd = [t for t in history.trials
           if t.point.get("step1__solver") == "sgd" and t.status == opt.VALID]
    assert len(sgd) >= 5  # the pin covers the stochastic solver's row draws
    assert history_digest(history) == (
        "41fd43722ae3cbffab7892335ebfe136def0f1e30c9f85ab744585d544be6815")


SEARCH_CLI_EXPR = "(StandardScaler | MinMaxScaler | NoOp) >> SelectKVariance >> (LogRegGD | KNN)"

KNN_LOGREG = {
    "random": "b4bced3fae691f36e7d2e2bf66449934e8b379d0abbaf7bdca66330fa76c10b0",
    "grid": "0d8627572f293f98edc881f48be101726f3e88068dfcb24389d41db0431d96f4",
}


def _covers_knn_and_logreg_variants(history) -> bool:
    valid = [t.point for t in history.trials if t.status == opt.VALID]
    return (any(p["step2__D"] == "KNN" and p["step2__weighting"] == "distance"
                and p["step2__k"] > 1 for p in valid)
            and any(p["step2__D"] == "LogRegGD" and p["step2__penalty"] == "l1"
                    for p in valid)
            and any(p["step2__D"] == "LogRegGD" and p["step2__solver"] == "sgd"
                    for p in valid))


@pytest.mark.parametrize("strategy", ["random", "grid"])
def test_knn_and_logreg_search_is_pinned(registry, strategy):
    # The search_cli benchmark's pipeline, smaller: moonsApprox n=120 seed 0,
    # 3 folds, 60 random trials or all 236 grid cells (cont_samples=1).
    compiled = compile_space(parse_expr(SEARCH_CLI_EXPR, registry))
    data = toyml.synth_dataset("moonsApprox", 120, 0)
    objective = opt.make_cv_objective(compiled, data, folds=3)
    spec = opt.OptimizerSpec(strategy=strategy, max_trials=60 if strategy == "random" else 300,
                             seed=0)
    if strategy == "random":
        history = opt.random_search(compiled.hierarchical(), objective, spec)
    else:
        history = opt.grid_search(compiled.grid(1, 0), objective, spec)
    # The pin covers distance-weighted votes over several neighbours, the l1
    # penalty and the stochastic solver.
    assert _covers_knn_and_logreg_variants(history)
    assert history_digest(history) == KNN_LOGREG[strategy]


def three_blobs(n=150, seed=4):
    """Three gaussian clusters in 3 features, labels 0-2 in shuffled order,
    so a LogRegGD fit runs one one-vs-rest descent per class."""
    rng = np.random.default_rng(seed)
    centers = np.array([[0.0, 2.0, 0.0], [2.0, -1.0, 0.5], [-2.0, -1.0, -0.5]])
    y = rng.permutation(np.arange(n) % 3)
    X = centers[y] + 1.1 * rng.standard_normal((n, 3))
    return toyml.LabeledDataset(X, y)


THREE_CLASS = {
    "random": "d3be83008ef23a808afbe8bec602474eb3f8a27359f5a79b7493004e24643c8f",
    "grid": "9bde8a7b7953612acec4cb1e33ebb88a684b3eadd16da3d4f8a4cca455bdf781",
}


@pytest.mark.parametrize("strategy", ["random", "grid"])
def test_three_class_logreg_search_is_pinned(registry, strategy):
    # 3 folds x 3 one-vs-rest targets: every LogRegGD trial runs nine descents.
    compiled = compile_space(parse_expr("(StandardScaler | NoOp) >> LogRegGD", registry))
    data = three_blobs()
    assert data.n_classes == 3
    objective = opt.make_cv_objective(compiled, data, folds=3)
    spec = opt.OptimizerSpec(strategy=strategy, max_trials=60 if strategy == "random" else 300,
                             seed=0)
    if strategy == "random":
        history = opt.random_search(compiled.hierarchical(), objective, spec)
    else:
        history = opt.grid_search(compiled.grid(1, 0), objective, spec)
    valid = [t.point for t in history.trials if t.status == opt.VALID]
    # The pin covers both solvers and both penalties.
    assert any(p["logreggd__solver"] == "gd" for p in valid)
    assert any(p["logreggd__solver"] == "sgd" for p in valid)
    assert any(p["logreggd__penalty"] == "l1" for p in valid)
    assert history_digest(history) == THREE_CLASS[strategy]


def test_concat_merge_search_is_pinned(registry, xor_data):
    # Two branches fitted on the same folds and merged by Concat before the
    # estimator: covers the merge path of the multi-dataset walker.
    op = parse_expr("(Scaler & NoOp) >> Concat >> (LogRegGD | KNN)", registry)
    compiled = compile_space(op)
    objective = opt.make_cv_objective(compiled, xor_data, folds=3)
    spec = opt.OptimizerSpec(strategy="random", max_trials=60, seed=0)
    history = opt.random_search(compiled.hierarchical(), objective, spec)
    valid = [t.point for t in history.trials if t.status == opt.VALID]
    assert any(p["step3__D"] == "LogRegGD" for p in valid)
    assert any(p["step3__D"] == "KNN" for p in valid)
    assert history_digest(history) == (
        "e7ca4328afd5e0d5d9606e827410ac183aabdbfaae1b8b57055c7856d33419b9")


NESTED_PIPELINE_EXPR = ("((StandardScaler >> SelectKVariance) | (MinMaxScaler >> KNN))"
                        " >> (LogRegGD | KNN)")


def test_nested_pipeline_search_is_pinned(registry, xor_data):
    # A choice between nested pipelines, one of which ends in an estimator
    # whose predictions feed the final step as a feature column.
    compiled = compile_space(parse_expr(NESTED_PIPELINE_EXPR, registry))
    objective = opt.make_cv_objective(compiled, xor_data, folds=3)
    spec = opt.OptimizerSpec(strategy="random", max_trials=20, seed=0)
    history = opt.random_search(compiled.hierarchical(), objective, spec)
    valid = [t.point for t in history.trials if t.status == opt.VALID]
    assert len(valid) == 20
    assert any(p["step0__D"] == "Pipeline" for p in valid)
    assert any(p["step0__D"] == "Pipeline_2" for p in valid)
    assert history_digest(history) == (
        "b786bf1deb187e2f8f6b5499fe09f1117414f58dd7e6fad244bc9f1220957d7a")

# sha256 of hierarchical(), flat_doc(flat()), pcs() and grid(2, 0), in that
# order, per (grammar, unfold depth, keep_constraints); "refused" where the
# emitter raises BlowupExceeded. Recorded before sizes were checked ahead of
# building the flat cross product, so the refusals at feature_union depth 3
# must stay exactly where they were.
COMPILE_PINS = {
    ("linear_stages", 1, True): (
        "fd197d34e893c7ac7900765075687be4776abe0496c624eb27a88a61cdba6384",
        "f8c7afcef23a57b9e21984ff4160ac1aa5aab060f818cd5269c0339cabc2f59d",
        "be1b63fd5118bfc3712ecd48073601e7f8c4429a18475836d67a329d30a41d42",
        "b6baf8a8af1e0e0e65f7c7c8bc2adc06bfa2d753bc1ab96610f6ce608791244e",
    ),
    ("linear_stages", 1, False): (
        "48b0deb26f204c6d77e28385b262fa907d3cdbe18c1db727274c1baacfaad354",
        "132027d986454c51689409442fde9369422342c4f67237134e17fbb3a05729f4",
        "27cae134e66a05e9ac3893af57bbc8476c2419b767915e843a2e74b2ae19fa0e",
        "a0f3ea09a3b79ea76f5d38bda22de534e77d8527fbacbd31c37768568d5f1983",
    ),
    ("linear_stages", 2, True): (
        "3e98fa6181d87f151390ef620230739c7ba5cb1c44f8eed87e96caf14e761f92",
        "775ee905d362719fc4e698d3f0e506a261ca48e9d42e5954ab84446ac7546198",
        "24da7e977f9aaa542064d7683cda4ea2f1649c8b99c93fbf32c3115579a8f3ec",
        "750ae979a8fa610f649825b8e6f5c6c7075f2223f274fe712269c5aae9dac139",
    ),
    ("linear_stages", 2, False): (
        "6dd1d13c467663ac4bf45750e2933a58a48f06cf7536a813e98e96c9518c6749",
        "e5d071b4e814a9b7dc45d9f41233e3355d1c814bd554ef43db75f344d52062f6",
        "38bcfe78c43f2c8f68b20be933a02af547b2445b35e301cfa863146e4efc97db",
        "25334c9c682fa0ba466031e4baf6704270fd43567f7de2d74e212370475e468f",
    ),
    ("linear_stages", 3, True): (
        "13dd97f18b013342cc4c0d4ac9e2ec52c19bdc839f9ea0545c7dcc3a9d743533",
        "f065b729584a12c4787a2b951006b821984a425a16cc4f52d72923413ff9b41a",
        "78949be27db7ed94c35a2a64b1d5dd503b89f9bd9afc5d7d3c978114ceb6ed6a",
        "0bcd949882736d8343f808a165ca60f07e238397a88427843cfa97f1f0903c24",
    ),
    ("linear_stages", 3, False): (
        "de00f136b4a030ca3939a8d465e5d736d4d5d720d91188e016236a3b5c7a24b9",
        "fced5d52cbe4b252643f4852de09d8a410d1188abdb6cbbcfa2823eedf6a4ca1",
        "31dafe96620a59d49be5894afd80ee58edfe9031a086589ebfa631e9c61dacd0",
        "5676b8c97718cc43658fac46c2c1940049b5022a54919eabe787ca21439201dd",
    ),
    ("linear_stages", 4, True): (
        "61f3ab43214528670066d4ab44399a7df3271212003d8717ffa2c279e3b21367",
        "4e161bdd01bd97e766579023bbe7136149e1c6b997bd9a001cc2b9221ffd68ba",
        "d2497c55a1b5b99854ea009f13486a9dff2bb21a33a186d639bb28eefa6df627",
        "861b327bb256e22117571b671b8ae9605bb087a4c6f7c8519676922001fe13ba",
    ),
    ("linear_stages", 4, False): (
        "7a355902100747d094ab748508a73891e2ecbb7abe4531f7714461a441a02f38",
        "0cef3f46bad7a326e5488d2d63baa7b9f1ad7b5d14382bf0f152a38fd6a60af1",
        "a087cfedaa3b870615c50cd67bcb253ae1898317684b37d0db843c2cf736efd8",
        "53f86200d7fa0471c94e0a28026da5886c7c65f7abffee574c0548c74af7edf8",
    ),
    ("linear_stages", 5, True): (
        "9ae6f875b820645a6ec9a6cf1c115371c6a68bc6955eb4df49da92d2adfa198b",
        "307b8990b97e51a8e93885333b6e019d580d3b1597db88ea2ed857812afebe95",
        "3cd5d6b182b2e716544a19103cdcfb1b87dd85493383028c493c2f1979801f86",
        "1d747a9ade95f37bb55a7fbf5482e2adcc1620898e75b3bf2ccbc815150eb238",
    ),
    ("linear_stages", 5, False): (
        "6a5a396c310734f13dd7edb18849d337e4ce565ef3ea4f250d9fc42583e1fce4",
        "d741d38e02f3a48757e1542f75115222bf4f36749f18f3c3377651470dac1cfd",
        "ec2ba65c78aa0e03468d90e467af98d2ece17d8bd8a347e4e153517c62146719",
        "bb76236cce0bcac78131bea3406888f38584508ca8f6d5a10c8557a0a8548738",
    ),
    ("linear_stages", 6, True): (
        "16ae79de3374a2aa9241571eacd20cf43d7fd756adedbaa220ee8f14c3edc3c3",
        "fd1ff808bed1cf6077e5a1fc371f28c584f267be86e60bbd87d8ff1991b43f45",
        "4879578520d1dd44d2f27832ecea1741c5f2f46e213ca73c9e3c3400c4ad5f4f",
        "09080d2b52c5f3b01f47b5b16a9cf993715b0b2cb1ca7ab5356b2f181ba660ea",
    ),
    ("linear_stages", 6, False): (
        "b8bf21ac56af306a9416195c8e3c1389ffb3bd7524670b27620ce3574546f4a0",
        "7452ec0ee5b34fb3032948d050eac6075326c16fd4b3c24c3b1a86b56bc7cda3",
        "1bf41d407b7f44fd7983339cd33d1e4f2672d88a91ebffdd6fbb2c90f5fc8afa",
        "f388c8dff22108c80b15aabc9701cfb2b5292ebd97a1e672d53bbe6212965e31",
    ),
    ("feature_union", 1, True): (
        "e3f3eb013e779091091b518210d9d39bbc60b7eea6b41479ad9b731d3b4814b1",
        "edd074acadea1f84cbbb1b8599cbbe2e17eefbbb5da7af17837e7840ff6a2d6d",
        "5f527524f7104115ac0a73dd4d36a97aa593ec6b62a10b272ff76d98196f7118",
        "87fbda9a66122a0ea45b64cc5fe42ec9464e9f7197b1d073885048060eee1aca",
    ),
    ("feature_union", 1, False): (
        "3c23589d67eb094d417897823c0d94f65ff3ff4fce0aba8c8447bcc9ccefde07",
        "5a368f233c0e66981ae7c5653d9646f6c1dabbd35de9475b3bcb502edf27660b",
        "0a1aa90e4f2c6163ffa4d95d68e0f96efd59ac20382f9eb6f7d380413164e0a4",
        "cd525b022b39253d3fa4628f329d6cfcb51f2506599c46757e7b69aa97e098ed",
    ),
    ("feature_union", 2, True): (
        "da870be4c2cd6daf5f3ae2f8b71244ec797acea4b843ccaf5e52eab7023612e6",
        "8985dc8a3a9f7db0a50b21f2e15c25145ccf0d1690d323242aff39564751d1d2",
        "e193ed093c95f48dd625f2c6e32b6a80bdd80a8ed04228ec7ab81a2746a82fa9",
        "75948b1dc8ae1b3ef5d399e89e21ba4689642ac7f0cad58c82c62d7b7c631ba4",
    ),
    ("feature_union", 2, False): (
        "6997bccec7ad107fec325b513b56b0a50d42b1cd049de54def53a140b14cbb74",
        "9e9ee97cc73d35d263641168bac6cd8749ad5a2f52b5dff2f592f4bbaf15fa7d",
        "39376b9f80b74245c1e724c1b3c57470aa52959ca847d0db4b082bb384b27dfc",
        "f56eceff67e680932b753746940762abbd5fb906489d4d5ce386cf7d019e5209",
    ),
    ("feature_union", 3, True): (
        "e18fa3dee48c5270f40c84d69a7cc677aef5872b97e7eedcc5768df3bcc20d14",
        "refused",
        "refused",
        "refused",
    ),
    ("feature_union", 3, False): (
        "96cbf32ac290fc6be611de061e006974794308973e0ff0dcdb93615238a85302",
        "refused",
        "refused",
        "refused",
    ),
}


GRAMMARS = Path(__file__).parent.parent / "fixtures" / "grammars"


def output_digest(emit) -> str:
    try:
        doc = emit()
    except BlowupExceeded:
        return "refused"
    text = doc if isinstance(doc, str) else json.dumps(doc, sort_keys=True,
                                                       separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("name,depth,keep_constraints", list(COMPILE_PINS))
def test_unfolded_grammar_compile_is_pinned(registry, name, depth, keep_constraints):
    grammar = parse_grammar((GRAMMARS / f"{name}.grammar").read_text(), registry)
    compiled = compile_space(grammar_engine.unfold(grammar, depth, registry),
                             keep_constraints=keep_constraints)
    digests = tuple(output_digest(emit) for emit in (
        compiled.hierarchical, lambda: flat_doc(compiled.flat()), compiled.pcs,
        lambda: compiled.grid(2, 0)))
    assert digests == COMPILE_PINS[name, depth, keep_constraints]


@pytest.mark.parametrize("name,depth,keep_constraints",
                         [case for case, pins in COMPILE_PINS.items() if pins[2] != "refused"])
def test_unfolded_grammar_pcs_parses(registry, name, depth, keep_constraints):
    # read_pcs refuses ranges it could not sample; every emitted one is sampleable.
    grammar = parse_grammar((GRAMMARS / f"{name}.grammar").read_text(), registry)
    compiled = compile_space(grammar_engine.unfold(grammar, depth, registry),
                             keep_constraints=keep_constraints)
    parsed = read_pcs(compiled.pcs())
    assert parsed.parameters and parsed.sample(random.Random(depth))
