import importlib
import json
import time
import warnings

import pytest

from swfair.cli import main
from swfair.experiment import CSV_HEADER, ExperimentConfig, generate_instance
from swfair.setfn import WeightVector, source_to_dict
from swfair.split import split

MODEL = {
    "type": "bit_pool",
    "users": ["1", "2", "3"],
    "bits": {"a": 1.0, "b": 0.5, "c": 0.5, "d": 0.1},
    "observes": {"1": ["a", "b", "c"], "2": ["c", "d"], "3": ["b", "d"]},
}


@pytest.fixture
def model_file(tmp_path):
    p = tmp_path / "model.json"
    p.write_text(json.dumps(MODEL))
    return str(p)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_egalitarian_default_weights(capsys, model_file):
    code, out, _ = run(capsys, "egalitarian", model_file, "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["rates"]["1"] == pytest.approx(1.0, abs=1e-9)
    assert doc["rates"]["2"] == pytest.approx(0.55, abs=1e-9)
    assert doc["rates"]["3"] == pytest.approx(0.55, abs=1e-9)
    assert doc["sum_rate"] == pytest.approx(2.1, abs=1e-9)


def test_egalitarian_weighted_with_trace(capsys, model_file, tmp_path):
    trace = tmp_path / "trace.json"
    code, out, _ = run(capsys, "egalitarian", model_file,
                       "--weights", "3,1,3", "--json", "--trace", str(trace))
    assert code == 0
    doc = json.loads(out)
    assert doc["rates"] == {
        "1": pytest.approx(1.125, abs=1e-9),
        "2": pytest.approx(0.375, abs=1e-9),
        "3": pytest.approx(0.6, abs=1e-9),
    }
    tree = json.loads(trace.read_text())
    assert tree["root"]["sfm"]["maximal_minimizer"] == ["3"]
    path = tree["adaptation_path"]
    assert len(path) == 3
    assert path[1] == {"1": pytest.approx(0.6), "2": pytest.approx(0.2),
                       "3": 0.0}


def test_egalitarian_weights_file(capsys, model_file, tmp_path):
    wfile = tmp_path / "weights.json"
    wfile.write_text(json.dumps({"1": 3, "2": 1, "3": 3}))
    code, out, _ = run(capsys, "egalitarian", model_file,
                       "--weights", str(wfile), "--json")
    assert code == 0
    assert json.loads(out)["rates"]["1"] == pytest.approx(1.125, abs=1e-9)


def test_single_user_model(capsys, tmp_path):
    p = tmp_path / "single.json"
    p.write_text(json.dumps({"type": "bit_pool", "users": ["1"],
                             "bits": {"a": 0.8}, "observes": {"1": ["a"]}}))
    code, out, _ = run(capsys, "egalitarian", str(p), "--json")
    assert code == 0
    assert json.loads(out)["rates"] == {"1": pytest.approx(0.8)}


TABLE = {"type": "table", "users": ["1", "2"],
         "values": {"1": 0.5, "2": 0.75, "1,2": 1.0}}


def changed(doc, **fields):
    """JSON text of ``doc`` with some fields replaced."""
    return json.dumps({**doc, **fields})


@pytest.mark.parametrize("command, bad, message", [
    ("egalitarian", json.dumps({"type": "mystery"}), "mystery"),
    ("egalitarian", None, "directory"),
    ("verify", None, "directory"),
    ("egalitarian", changed(MODEL, bits={**MODEL["bits"], "a": "1.0"}),
     "bit entropies"),
    ("egalitarian", changed(MODEL, bits={**MODEL["bits"], "a": True}),
     "bit entropies"),
    ("egalitarian", changed(TABLE, values={**TABLE["values"], "1": "0.5"}),
     "table values"),
    ("egalitarian", changed(TABLE, values={**TABLE["values"], "1": True}),
     "table values"),
    ("egalitarian", changed(MODEL, bits=list(MODEL["bits"])), "'bits'"),
    ("egalitarian", changed(MODEL, observes=list(MODEL["observes"])),
     "'observes'"),
    ("egalitarian", changed(TABLE, values=list(TABLE["values"])), "'values'"),
    ("egalitarian", changed(TABLE, users="12"), "'users'"),
    ("egalitarian", changed(MODEL, observes={**MODEL["observes"], "2": "cd"}),
     "'observes'"),
    ("egalitarian", changed(MODEL, bits={**MODEL["bits"], "a": 10 ** 400}),
     "bit entropies"),
    ("egalitarian", changed(TABLE, users=["a,b", "c"],
                            values={"a,b": 1.0, "c": 1.0, "a,b,c": 1.5}),
     "table user id 'a,b' contains a comma"),
    ("egalitarian", changed(TABLE, users=["a,b", "a", "b"],
                            values={"a": 1.0, "b": 1.0, "a,b": 1.5}),
     "table user id 'a,b' contains a comma"),
], ids=["unknown-type", "model-is-a-directory", "rates-is-a-directory",
        "string-entropy", "bool-entropy", "string-table-value",
        "bool-table-value", "bits-list", "observes-list", "values-list",
        "users-string", "observes-string", "huge-int-entropy",
        "comma-in-user-id", "comma-user-id-joining-two-users"])
def test_malformed_source_exits_2(capsys, model_file, tmp_path, command, bad,
                                  message):
    """A model of unknown type or of the wrong JSON types, or a directory
    (``bad`` None) where a model or rates file belongs, is an input
    error."""
    p = tmp_path / "bad.json"
    if bad is None:
        p.mkdir()
    else:
        p.write_text(bad)
    paths = [str(p)] if command == "egalitarian" else [model_file, str(p)]
    code, _, err = run(capsys, command, *paths)
    assert code == 2
    assert err.startswith("error:") and message in err


@pytest.mark.parametrize("spec, text", [
    ("1,2", None), ("file", "[null, 1, 1]"),
    ("file", '{"1": null, "2": 1, "3": 1}'), ("file", "5"),
    ("file", '{"1": "2", "2": "1", "3": "2"}'), ("file", '["2", "1", "2"]'),
    ("file", "[true, true, true]"), ("file", '"213"'),
    ("file", "[1%s, 1, 1]" % ("0" * 400)),
    ("file", '{"1": 3, "2": 1, "3": 3, "4": 1}'),
], ids=["too-few", "null-in-list", "null-in-object", "bare-number",
        "strings-in-object", "strings-in-list", "bools-in-list",
        "bare-string", "huge-int", "unknown-user"])
def test_bad_weights_exit_2(capsys, model_file, tmp_path, spec, text):
    """Weights of the wrong count, or a weights file (``spec`` "file")
    holding ``text``, are an input error."""
    if text is not None:
        spec = tmp_path / "weights.json"
        spec.write_text(text)
    code, _, err = run(capsys, "egalitarian", model_file, "--weights", str(spec))
    assert code == 2
    assert err.startswith("error:") and "weights" in err


@pytest.mark.parametrize("command, spec", [
    ("egalitarian", "1e308,1e308,1e308"),
    ("decompose", "1e-320,1e-320,1e-320"),
    ("egalitarian", "1e-320,1,1"),
])
def test_weights_that_overflow_or_are_subnormal_exit_2(capsys, model_file,
                                                       command, spec):
    """A weight sum past the float range, or a weight below the smallest
    normal float, is refused before any solve, with no numpy warning."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, command, model_file, "--weights", spec)
    assert (code, out) == (2, "")
    assert err.startswith("error: weights must be") and err.count("\n") == 1


def test_huge_equal_weights_give_the_unit_weight_rates(capsys, model_file):
    runs = [run(capsys, "egalitarian", model_file, "--json", *weights)
            for weights in ((), ("--weights", "1e300,1e300,1e300"))]
    assert [code for code, _, _ in runs] == [0, 0]
    unit, huge = (json.loads(out)["rates"] for _, out, _ in runs)
    assert huge == pytest.approx(unit, rel=1e-12)


def test_weights_spanning_1e200_get_splits_rates(capsys, tmp_path):
    """Weights 1e-200 and 1e200 on an 8-user model put the ratios near
    1e-200 and 1e200.  Ties are judged at each pair's own scale and every
    modular shift is formed over its block's users only, so the engine
    answers split's rates, verify finds them in the region, and no numpy
    warning is raised."""
    src = generate_instance(8, ExperimentConfig(seed=0))
    w = WeightVector(src.ground, [1e-200, 1e200] * 4)
    model = tmp_path / "model.json"
    model.write_text(json.dumps(source_to_dict(src)))
    weights = tmp_path / "w.json"
    weights.write_text(json.dumps(dict(zip(src.ground.users,
                                           w.values.tolist()))))
    rates = tmp_path / "rates.json"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, _, err = run(capsys, "egalitarian", str(model), "--weights",
                           str(weights), "--out", str(rates))
        assert (code, err) == (0, "")
        want, _ = split(src, w)
        assert json.loads(rates.read_text())["rates"] == want.as_dict()
        code, out, _ = run(capsys, "verify", str(model), str(rates), "--json")
    assert code == 0 and json.loads(out)["in_region"] is True


def test_solver_failure_exits_3(capsys, tmp_path, wolfe_capped):
    """A 17-user table is above the sweep and no min cut reads it, so its
    ground's block goes to Wolfe, which stops at its cap."""
    model = tmp_path / "t17.json"
    model.write_text(json.dumps(table_of(
        generate_instance(17, ExperimentConfig(), 0))))
    code, _, err = run(capsys, "egalitarian", str(model))
    assert code == 3
    assert "solver" in err and "iteration cap" in err


def test_shapley_exact(capsys, model_file):
    code, out, _ = run(capsys, "shapley", model_file, "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["rates"] == {"1": pytest.approx(1.5), "2": pytest.approx(0.3),
                            "3": pytest.approx(0.3)}


@pytest.mark.parametrize("n", [22, 64, 256])
def test_shapley_and_verify_answer_large_bit_pools(capsys, tmp_path, n):
    """Above the sweep's 20 users a bit pool gets exact Shapley rates and a
    membership verdict: the Shapley and egalitarian rates are members."""
    model = tmp_path / "model.json"
    model.write_text(json.dumps(source_to_dict(
        generate_instance(n, ExperimentConfig(), 0))))
    for command in ("shapley", "egalitarian"):
        rates = tmp_path / (command + ".json")
        code, out, _ = run(capsys, command, str(model), "--json",
                           "--out", str(rates))
        assert code == 0
        assert len(json.loads(out)["rates"]) == n
        code, out, _ = run(capsys, "verify", str(model), str(rates), "--json")
        assert (code, json.loads(out)["in_region"]) == (0, True)


def test_verify_refuses_an_infinite_rate(capsys, model_file, tmp_path):
    rates = tmp_path / "rates.json"
    rates.write_text('{"1": 1.5, "2": Infinity, "3": 0.3}')
    code, out, err = run(capsys, "verify", model_file, str(rates))
    assert (code, out) == (2, "")
    assert err.startswith("error:") and "finite" in err


def test_verify_roundtrip_egalitarian(capsys, model_file, tmp_path):
    rates_path = tmp_path / "rates.json"
    code, _, _ = run(capsys, "egalitarian", model_file, "--json",
                     "--out", str(rates_path))
    assert code == 0
    code, out, _ = run(capsys, "verify", model_file, str(rates_path))
    assert code == 0
    assert "member" in out


def test_verify_shapley_member(capsys, model_file, tmp_path):
    rates_path = tmp_path / "shap.json"
    rates_path.write_text(json.dumps({"1": 1.5, "2": 0.3, "3": 0.3}))
    code, out, _ = run(capsys, "verify", model_file, str(rates_path), "--json")
    assert code == 0
    assert json.loads(out)["in_region"] is True


def test_verify_rejects_zero_rates(capsys, model_file, tmp_path):
    rates_path = tmp_path / "zero.json"
    rates_path.write_text(json.dumps({"1": 0.0, "2": 0.0, "3": 0.0}))
    code, out, _ = run(capsys, "verify", model_file, str(rates_path))
    assert code == 4
    assert "NOT" in out


@pytest.mark.parametrize("c", [1e9, 1e-12])
def test_verify_default_tolerance_follows_the_source_scale(capsys, tmp_path,
                                                           c):
    """Without --tolerance, verify allows 1e-8 times the source's scale:
    it accepts egalitarian's own output for entropies times 1e9 and
    rejects those rates with one raised by half for entropies times
    1e-12."""
    src = generate_instance(8, ExperimentConfig(seed=0))
    doc = source_to_dict(src)
    doc["bits"] = {b: c * h for b, h in doc["bits"].items()}
    model, rates = tmp_path / "model.json", tmp_path / "rates.json"
    model.write_text(json.dumps(doc))
    code, out, _ = run(capsys, "egalitarian", str(model), "--json")
    assert code == 0
    rates.write_text(out)
    code, out, _ = run(capsys, "verify", str(model), str(rates), "--json")
    assert (code, json.loads(out)["in_region"]) == (0, True)
    raised = json.loads(rates.read_text())["rates"]
    raised["u0"] *= 1.5
    rates.write_text(json.dumps(raised))
    code, out, _ = run(capsys, "verify", str(model), str(rates), "--json")
    assert (code, json.loads(out)["in_region"]) == (4, False)


@pytest.mark.parametrize("tolerance, rates", [
    ("nan", None), ("-1", None), ("inf", {"1": 100, "2": 100, "3": 100}),
    ("1e-8", {"1": float("nan"), "2": 0.3, "3": 0.3}),
    ("1e-8", {"1": None, "2": 0.3, "3": 0.3}),
    ("1e-8", {"1": [1.5], "2": 0.3, "3": 0.3}),
    ("1e-8", {"1": "1.0", "2": "0.55", "3": "0.55"}),
    ("1e-8", {"1": True, "2": True, "3": True}),
    ("1e-8", {"1": 10 ** 400, "2": 0.3, "3": 0.3}),
], ids=["nan-tolerance", "negative-tolerance", "inf-tolerance", "nan-rate",
        "null-rate", "list-rate", "string-rate", "bool-rate", "huge-int-rate"])
def test_verify_refuses_non_finite_input(capsys, model_file, tmp_path,
                                         tolerance, rates):
    """A tolerance that is not finite and nonnegative, or a rate that is
    not a finite number, is an input error, not a verdict."""
    rates_path = tmp_path / "rates.json"
    if rates is None:
        run(capsys, "egalitarian", model_file, "--json",
            "--out", str(rates_path))
    else:
        rates_path.write_text(json.dumps(rates))
    code, out, err = run(capsys, "verify", model_file, str(rates_path),
                         "--tolerance", tolerance)
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "finite" in err


@pytest.mark.parametrize("command, doc, message", [
    ("verify", {"1": 1.5, "2": 0.6}, "rates file lacks users '3'"),
    ("verify", {"1": 1.5}, "rates file lacks users '2', '3'"),
    ("verify", {"1": 1.5, "2": 0.3, "3": 0.3, "4": 0.0},
     "rates file names unknown user '4'"),
    ("verify", [1.5, 0.3, 0.3], "rates file must be a JSON object of {user: rate}"),
    ("egalitarian", {"1": 3, "2": 1, "3": 3, "4": 1},
     "weights file names unknown user '4'"),
    ("egalitarian", {"1": 3, "2": 1}, "weights file lacks users '3'"),
], ids=["rates-missing-user", "rates-missing-users", "rates-unknown-user",
        "rates-list", "weights-unknown-user", "weights-missing-user"])
def test_user_files_name_every_user_once(capsys, model_file, tmp_path,
                                         command, doc, message):
    """A rates or weights object must name every user of the model and
    no other; any other is an input error naming the users, not a
    verdict."""
    path = tmp_path / "users.json"
    path.write_text(json.dumps(doc))
    args = ([model_file, str(path)] if command == "verify"
            else [model_file, "--weights", str(path)])
    code, out, err = run(capsys, command, *args)
    assert code == 2
    assert out == ""
    assert err == "error: %s\n" % message


def test_decompose(capsys, model_file):
    code, out, _ = run(capsys, "decompose", model_file, "--weights", "3,1,3",
                       "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["chain"] == [["3"], ["1", "2", "3"]]
    assert doc["critical_values"][0] == pytest.approx(0.2, abs=1e-12)
    assert doc["critical_values"][1] == pytest.approx(0.375, abs=1e-12)


def test_experiment_cli(capsys, tmp_path):
    out_csv = tmp_path / "sweep.csv"
    code, out, _ = run(capsys, "experiment", "--out", str(out_csv),
                       "--n-min", "3", "--n-max", "5", "--reps", "3",
                       "--seed", "4", "--no-timing")
    assert code == 0
    lines = out_csv.read_text().strip().split("\n")
    assert lines[0] == CSV_HEADER
    assert len(lines) == 4

    again = tmp_path / "sweep2.csv"
    run(capsys, "experiment", "--out", str(again), "--n-min", "3",
        "--n-max", "5", "--reps", "3", "--seed", "4", "--no-timing")
    assert again.read_text() == out_csv.read_text()


def test_check_submodular_model(capsys, model_file):
    code, out, _ = run(capsys, "check", model_file, "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc == {"submodular": True, "monotone": True}


def test_check_non_monotone_table(capsys, tmp_path):
    p = tmp_path / "table.json"
    p.write_text(json.dumps({"type": "table", "users": ["1", "2"],
                             "values": {"1": 1.0, "2": 1.0, "1,2": 0.5}}))
    code, out, _ = run(capsys, "check", str(p))
    assert code == 0
    assert out == ("submodular: yes\nmonotone:   NO\n"
                   "  adding 2 to {1} decreases the value\n")
    code, out, _ = run(capsys, "check", str(p), "--json")
    assert code == 0
    assert json.loads(out) == {"submodular": True, "monotone": False,
                               "monotone_witness": {"X": ["1"], "i": "2"}}


def test_check_supermodular_table(capsys, tmp_path):
    p = tmp_path / "table.json"
    p.write_text(json.dumps({"type": "table", "users": ["1", "2"],
                             "values": {"1": 0.0, "2": 0.0, "1,2": 1.0}}))
    code, out, _ = run(capsys, "check", str(p), "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["submodular"] is False
    assert "submodular_witness" in doc


@pytest.mark.parametrize("n", [40, 64])
def test_check_refuses_a_sparse_wide_table_at_once(capsys, tmp_path, n):
    p = tmp_path / "wide.json"
    p.write_text(json.dumps({"type": "table",
                             "users": ["u%d" % i for i in range(n)],
                             "values": {"u0": 1.0}}))
    start = time.perf_counter()
    code, _, err = run(capsys, "check", str(p))
    assert time.perf_counter() - start < 1.0
    assert code == 2
    assert "missing %d of %d nonempty subsets" % (2**n - 2, 2**n - 1) in err


HUGE_POOL = {"type": "bit_pool", "users": ["a", "b"],
             "bits": {"x": 1e154, "y": 1e154},
             "observes": {"a": ["x", "y"], "b": ["y"]}}


@pytest.mark.parametrize("model, rate", [
    (HUGE_POOL, 1e154),
    ({"type": "table", "users": ["a", "b"],
      "values": {"a": 1e200, "b": 1e200, "a,b": 1.5e200}}, 7.5e199),
    ({"type": "table", "users": ["a", "b"],
      "values": {"a": 1e308, "b": 1e308, "a,b": 1e308}}, 5e307),
], ids=["bit-pool-1e154", "table-1e200", "table-1e308"])
def test_values_near_the_float_range_solve_at_once(capsys, tmp_path,
                                                   deadline, model, rate):
    """Values near the float range solve at once: a min cut or a sweep
    settles the two users, and each ratio times w is formed per user, so
    nothing overflows and nothing loops."""
    p = tmp_path / "huge.json"
    p.write_text(json.dumps(model))
    with deadline(2.0):
        code, out, _ = run(capsys, "egalitarian", str(p), "--json")
        assert code == 0
        assert json.loads(out)["rates"] == {"a": pytest.approx(rate),
                                            "b": pytest.approx(rate)}
        code, out, _ = run(capsys, "decompose", str(p), "--json")
        assert code == 0
        assert json.loads(out) == {"chain": [["a", "b"]],
                                   "critical_values": [pytest.approx(rate)]}


def test_entropies_without_a_finite_sum_exit_2(capsys, tmp_path, deadline):
    p = tmp_path / "overflow.json"
    p.write_text(changed(HUGE_POOL, bits={"x": 1e308, "y": 1e308}))
    for command in ("egalitarian", "decompose", "shapley"):
        with deadline(2.0):
            code, _, err = run(capsys, command, str(p), "--json")
        assert code == 2
        assert err.startswith("error:") and "finite sum" in err


def test_non_finite_weights_exit_2(capsys, model_file, tmp_path):
    code, _, err = run(capsys, "egalitarian", model_file, "--weights", "1,nan,1")
    assert code == 2
    assert "finite" in err
    wfile = tmp_path / "weights.json"
    wfile.write_text('{"1": 1, "2": Infinity, "3": 1}')
    code, _, err = run(capsys, "egalitarian", model_file, "--weights", str(wfile))
    assert code == 2
    assert "finite" in err


def test_trace_above_64_users(capsys, tmp_path):
    from swfair.experiment import ExperimentConfig, generate_instance
    from swfair.setfn import source_to_dict

    model = tmp_path / "m80.json"
    model.write_text(json.dumps(source_to_dict(
        generate_instance(80, ExperimentConfig(), 0))))
    trace = tmp_path / "t.json"
    code, out, _ = run(capsys, "egalitarian", str(model), "--json",
                       "--trace", str(trace))
    assert code == 0
    tree = json.loads(trace.read_text())
    assert len(tree["subset"]) == 80
    assert tree["rates"] == pytest.approx(json.loads(out)["rates"])
    assert "adaptation_path" not in tree


def test_internal_consistency_error_exits_3(capsys, model_file, monkeypatch,
                                            tmp_path):
    from swfair import cli
    from swfair.split import InternalConsistencyError

    def broken(*args, **kwargs):
        raise InternalConsistencyError("chain does not cover the user subset")

    monkeypatch.setattr(cli, "traced_egalitarian", broken)
    monkeypatch.setattr(cli, "egalitarian", broken)
    code, _, err = run(capsys, "egalitarian", model_file)
    assert code == 3
    assert "chain does not cover" in err
    code, _, err = run(capsys, "egalitarian", model_file, "--trace",
                       str(tmp_path / "t.json"))
    assert code == 3


def table_of(source):
    """The table model of every nonempty subset's value under ``source``."""
    ground = source.ground
    return {"type": "table", "users": list(ground.users),
            "values": {",".join(ground.users_of(m)): source.value(m)
                       for m in range(1, ground.full_mask + 1)}}


def test_only_trace_runs_the_splitter(capsys, model_file, monkeypatch,
                                      tmp_path):
    """With --trace the answer still comes from the engine: stdout is the
    plain command's, byte for byte, and the tree comes from the same run
    of the refinement loop, which runs once."""
    split_module = importlib.import_module("swfair.split")

    table = tmp_path / "t12.json"
    table.write_text(json.dumps(table_of(
        generate_instance(12, ExperimentConfig(), 0))))
    calls = []
    real = split_module._refine

    def spy(*args, **kwargs):
        calls.append("_refine")
        return real(*args, **kwargs)

    monkeypatch.setattr(split_module, "_refine", spy)
    trace = tmp_path / "trace.json"
    for model, weights in ((model_file, "3,1,3"),
                           (str(table), "3," * 11 + "1")):
        for flags in ((), ("--json",), ("--weights", weights)):
            calls.clear()
            code, plain, _ = run(capsys, "egalitarian", model, *flags)
            assert (code, calls) == (0, ["_refine"])
            calls.clear()
            code, traced, _ = run(capsys, "egalitarian", model, *flags,
                                  "--trace", str(trace))
            assert (code, calls) == (0, ["_refine"])
            assert traced == plain
            assert json.loads(trace.read_text())["subset"]
            trace.unlink()


def test_non_submodular_table_is_refused(capsys, tmp_path):
    p = tmp_path / "table.json"
    p.write_text(json.dumps({"type": "table", "users": ["1", "2", "3"],
                             "values": {"1": 1.0, "2": 1.0, "3": 1.0,
                                        "1,2": 3.0, "1,3": 1.0, "2,3": 1.0,
                                        "1,2,3": 3.0}}))
    trace = tmp_path / "t.json"
    for args in (("egalitarian",), ("decompose",),
                 ("egalitarian", "--trace", str(trace))):
        code, out, err = run(capsys, args[0], str(p), "--json", *args[1:])
        assert code == 4
        assert out == ""
        assert "submodular" in err
    assert not trace.exists()


def test_sweep_solver_error_exits_3(capsys, tmp_path, monkeypatch):
    from swfair import experiment
    from swfair.sfm import ConvergenceError

    def stalled(*args, **kwargs):
        raise ConvergenceError("min-norm point stalled")

    monkeypatch.setattr(experiment, "split", stalled)
    out_csv = tmp_path / "sweep.csv"
    code, out, err = run(capsys, "experiment", "--out", str(out_csv),
                         "--n-min", "3", "--n-max", "4", "--reps", "2")
    assert code == 3
    assert out == "" and "stalled" in err
    assert not out_csv.exists()
