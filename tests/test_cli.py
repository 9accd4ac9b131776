import hashlib
import json
import warnings

import pytest

from capacities import AxiomCheckConfig
from capacities.cli import _print_json, _verify_config, build_parser, main

OVERLAP = {"n": 2, "values_by_mask": [0.0, 0.9, 0.9, 1.0]}
GRADED = {"n": 2, "values_by_mask": [0.0, 0.3, 0.6, 1.0]}
THREE = {"n": 3, "values_by_mask": [0, 0.2, 0.3, 0.6, 0.1, 0.5, 0.4, 1]}


@pytest.fixture
def write_json(tmp_path):
    def _write(name, payload):
        path = tmp_path / name
        path.write_text(json.dumps(payload))
        return str(path)

    return _write


@pytest.fixture
def overlap_file(write_json):
    return write_json("overlap.json", OVERLAP)


class TestEval:
    def test_multilinear_counterexample_values(self, overlap_file, capsys):
        assert main(["eval", "--integral", "mle", "--capacity", overlap_file,
                     "--scores", "1,1"]) == 0
        assert capsys.readouterr().out.strip() == "1"
        assert main(["eval", "--integral", "mle", "--capacity", overlap_file,
                     "--scores", "3,3"]) == 0
        assert capsys.readouterr().out.strip() == "-1.8"

    def test_sipos_at_origin(self, overlap_file, capsys):
        assert main(["eval", "--integral", "sipos", "--capacity", overlap_file,
                     "--scores", "0,0"]) == 0
        assert capsys.readouterr().out.strip() == "0"

    def test_choquet_example(self, write_json, capsys):
        path = write_json("graded.json", GRADED)
        assert main(["eval", "--integral", "choquet", "--capacity", path,
                     "--scores", "0.5,0.2"]) == 0
        assert capsys.readouterr().out.strip() == "0.29"

    def test_sugeno_prod_spelling(self, write_json, capsys):
        path = write_json("graded.json", GRADED)
        assert main(["eval", "--integral", "sugeno-prod", "--capacity", path,
                     "--scores", "0.5,0.2"]) == 0
        assert capsys.readouterr().out.strip() == "0.2"

    def test_twelve_significant_digits(self, write_json, capsys):
        path = write_json("graded.json", GRADED)
        third = 1.0 / 3.0
        assert main(["eval", "--integral", "choquet", "--capacity", path,
                     "--scores", f"{third!r},{third!r}"]) == 0
        assert capsys.readouterr().out.strip() == "0.333333333333"

    def test_json_format(self, overlap_file, capsys):
        assert main(["eval", "--integral", "mle", "--capacity", overlap_file,
                     "--scores", "3,3", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload == {"integral": "mle", "scores": [3.0, 3.0], "value": -1.8}

    def test_cpt_needs_second_capacity(self, overlap_file, capsys):
        assert main(["eval", "--integral", "cpt", "--capacity", overlap_file,
                     "--scores", "1,1"]) == 2
        assert "usage error" in capsys.readouterr().err

    def test_second_capacity_only_for_cpt(self, overlap_file, capsys):
        assert main(["eval", "--integral", "choquet", "--capacity", overlap_file,
                     "--capacity2", overlap_file, "--scores", "1,1"]) == 2
        assert "usage error" in capsys.readouterr().err

    def test_cpt_with_both_capacities(self, overlap_file, capsys):
        assert main(["eval", "--integral", "cpt", "--capacity", overlap_file,
                     "--capacity2", overlap_file, "--scores", "1,-1"]) == 0
        assert capsys.readouterr().out.strip() == "0"

    def test_cpt_capacities_must_agree_on_n(self, overlap_file, write_json, capsys):
        single = write_json("single.json", {"n": 1, "values_by_mask": [0.0, 1.0]})
        for argv in (["eval", "--scores", "1,-1"], ["verify", "--axioms", "HE"]):
            assert main(argv + ["--integral", "cpt", "--capacity", overlap_file,
                                "--capacity2", single]) == 1
            err = capsys.readouterr().err
            assert err.startswith("error:") and "disagree on n" in err

    # Zeros of either sign in the scores: a value prints as -0 when it is -0.0, so
    # the sign of a zero that the signed integrals give shows here. Each case is
    # the scores, then what sipos, cpt, sugeno-prod and choquet print.
    @pytest.mark.parametrize("scores, printed", [
        ("-0,0,-0", ["0", "0", "0", "0"]),
        ("-1,0,-0", ["-0.2", "-0.2", "-0.2", "-0.6"]),
        ("-0.5,0.5,-0", ["0.05", "0.05", "0.15", "-0.15"]),
    ], ids=["zeros", "one-loss", "gain-and-loss"])
    def test_signed_zeros_print_with_their_sign(self, scores, printed, write_json, capsys):
        path = write_json("mu3.json", THREE)
        for integral, want in zip(["sipos", "cpt", "sugeno-prod", "choquet"], printed):
            flags = ["--capacity2", path] if integral == "cpt" else []
            assert main(["eval", "--capacity", path, *flags, "--integral", integral,
                         "--scores=" + scores]) == 0
            assert capsys.readouterr() == (want + "\n", ""), integral

    def test_overflowing_value_is_out_of_domain(self, write_json, capsys):
        path = write_json("graded.json", GRADED)
        assert main(["eval", "--integral", "choquet", "--capacity", path,
                     "--scores", "1e308,-1e308"]) == 1
        assert capsys.readouterr().err.startswith("error:")

    @pytest.mark.parametrize("argv, message", [
        (["eval", "--integral", "mle", "--scores", "1,abc"], "argument --scores"),
        (["verify", "--integral", "sipos", "--score-bounds=a:b"],
         "argument --score-bounds: bounds must be numeric, got 'a:b'"),
    ], ids=["scores", "score-bounds"])
    def test_bad_scores_rejected_by_parser(self, argv, message, overlap_file, capsys):
        with pytest.raises(SystemExit) as err:
            main(argv + ["--capacity", overlap_file])
        assert err.value.code == 2
        assert message in capsys.readouterr().err


class TestTransform:
    def test_mobius_json(self, overlap_file, capsys):
        assert main(["transform", "mobius", "--input", overlap_file,
                     "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["n"] == 2
        assert payload["values_by_mask"] == [0.0, 0.9, 0.9, -0.8]

    def test_round_trip_through_files(self, overlap_file, write_json, capsys):
        main(["transform", "mobius", "--input", overlap_file, "--format", "json"])
        m = json.loads(capsys.readouterr().out)
        back = write_json("mobius.json", m)
        assert main(["transform", "zeta", "--input", back, "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["values_by_mask"] == OVERLAP["values_by_mask"]

    def test_text_table(self, overlap_file, capsys):
        assert main(["transform", "conjugate", "--input", overlap_file]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 4
        assert lines[0].split() == ["{}", "0"]
        assert lines[1].split() == ["{1}", "0.1"]
        assert lines[3].split() == ["{1,2}", "1"]

    def test_overflowing_transform_is_one_error_line(self, write_json, capsys):
        table = write_json("big.json", {"n": 2, "values_by_mask": [0, -1e308, -1e308, 1e308]})
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")  # as on a terminal: shown, not raised
            assert main(["transform", "mobius", "--input", table]) == 1
        assert not caught
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1

    def test_ordinal_requires_capacity(self, write_json, capsys):
        bad = write_json("bad.json", {"n": 2, "values_by_mask": [0.0, 0.5, 0.4, 0.3]})
        assert main(["transform", "ordinal", "--input", bad]) == 1
        assert "error:" in capsys.readouterr().err


class TestInteraction:
    def test_single_coalition(self, overlap_file, capsys):
        assert main(["interaction", "--capacity", overlap_file,
                     "--coalition", "1,2"]) == 0
        assert capsys.readouterr().out.strip() == "-0.8"

    def test_coalition_key_that_is_not_canonical(self, overlap_file, capsys):
        assert main(["interaction", "--capacity", overlap_file, "--coalition", " 1"]) == 1
        err = capsys.readouterr().err
        assert err == "error: bad subset key ' 1': ' 1' is not an index\n", err

    def test_report_text(self, overlap_file, capsys):
        assert main(["interaction", "--capacity", overlap_file]) == 0
        out = capsys.readouterr().out
        assert "shapley 1  0.5" in out
        assert "shapley 2  0.5" in out
        assert "negative" in out
        assert "{1,2}" in out

    def test_report_json(self, overlap_file, capsys):
        assert main(["interaction", "--capacity", overlap_file,
                     "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["shapley"] == [0.5, 0.5]
        assert payload["values"]["1,2"] == -0.8
        assert payload["labels"]["1,2"] == "negative"

    @pytest.mark.parametrize("flags", [
        ["--coalition", "1,2", "--max-order", "2"],
        ["--coalition", "1,2", "--tol", "0.5"],
        ["--tol", "nan"],
        ["--tol", "-1"],
        ["--tol", "inf"],
        ["--max-order", "0"],
        ["--max-order", "3"],
    ], ids=["coalition-max-order", "coalition-tol", "tol-nan", "tol-negative", "tol-inf",
            "max-order-0", "max-order-above-n"])
    def test_flags_that_cannot_apply_are_usage_errors(self, overlap_file, capsys, flags):
        assert main(["interaction", "--capacity", overlap_file] + flags) == 2
        err = capsys.readouterr().err
        assert err.startswith("usage error:") and err.count("\n") == 1, err

    def test_zero_tol(self, overlap_file, capsys):
        assert main(["interaction", "--capacity", overlap_file, "--tol", "0",
                     "--format", "json"]) == 0
        assert json.loads(capsys.readouterr().out)["tol"] == 0.0


class TestVerify:
    def test_pass_lines(self, overlap_file, capsys):
        assert main(["verify", "--capacity", overlap_file, "--integral", "sipos",
                     "--axioms", "HE,A,M", "--samples", "200"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 3
        for axiom, line in zip(("HE", "A", "M"), lines):
            assert line.startswith(axiom)
            assert "pass" in line

    def test_fail_line_carries_witness(self, overlap_file, capsys):
        assert main(["verify", "--capacity", overlap_file, "--integral", "choquet",
                     "--axioms", "A1", "--samples", "200"]) == 0
        line = capsys.readouterr().out.strip()
        assert line.startswith("A1")
        assert "FAIL" in line
        assert "expected" in line and "got" in line

    def test_all_axioms_default(self, overlap_file, capsys):
        assert main(["verify", "--capacity", overlap_file, "--integral", "sipos",
                     "--samples", "100"]) == 0
        assert len(capsys.readouterr().out.splitlines()) == 9

    def test_json_report(self, overlap_file, capsys):
        assert main(["verify", "--capacity", overlap_file, "--integral", "choquet",
                     "--axioms", "A", "--samples", "100", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["extension"] == "choquet"
        assert payload["axioms"][0]["passed"] is False
        assert payload["axioms"][0]["counterexample"]["inputs"]["value"] < 0

    def test_unknown_axiom_is_domain_error(self, overlap_file, capsys):
        for axioms, bad in (("Z9", "Z9"), ("M,bogus", "bogus")):  # alone, after a known one
            assert main(["verify", "--capacity", overlap_file, "--integral", "sipos",
                         "--axioms", axioms]) == 1
            err = capsys.readouterr().err
            assert err.startswith("error: unknown axiom %r" % bad) and err.count("\n") == 1, err

    def test_unit_domain_guard(self, overlap_file, capsys):
        assert main(["verify", "--capacity", overlap_file, "--integral", "mle",
                     "--axioms", "M", "--samples", "100"]) == 1
        err = capsys.readouterr().err
        assert "error:" in err

    def test_unit_domain_with_bounds(self, overlap_file, capsys):
        assert main(["verify", "--capacity", overlap_file, "--integral", "mle",
                     "--axioms", "M", "--samples", "100",
                     "--score-bounds", "0:1", "--alpha-bounds", "0.001:1"]) == 0
        assert "pass" in capsys.readouterr().out

    def test_out_of_domain_override(self, overlap_file, capsys):
        assert main(["verify", "--capacity", overlap_file, "--integral", "mle",
                     "--axioms", "M", "--samples", "100",
                     "--allow-out-of-domain"]) == 0
        assert "FAIL" in capsys.readouterr().out

    def test_second_capacity_only_for_cpt(self, overlap_file, capsys):
        assert main(["verify", "--capacity", overlap_file, "--integral", "choquet",
                     "--capacity2", overlap_file, "--axioms", "HE"]) == 2
        assert "usage error" in capsys.readouterr().err

    def test_overflowing_trials_are_skipped(self, write_json, capsys):
        path = write_json("graded.json", GRADED)
        assert main(["verify", "--capacity", path, "--integral", "choquet",
                     "--axioms", "C1", "--samples", "200",
                     "--score-bounds=-1e307:1e307", "--format", "json"]) == 0
        out, err = capsys.readouterr()
        assert err == ""
        (report,) = json.loads(out)["axioms"]
        assert report["passed"] and report["skipped"] > 0 and report["samples_tested"] > 0

    def test_negative_bounds_take_equals_form(self, overlap_file, capsys):
        assert main(["verify", "--capacity", overlap_file, "--integral", "sipos",
                     "--axioms", "M", "--samples", "100", "--score-bounds=-1:1"]) == 0
        assert "pass" in capsys.readouterr().out


BAD_SAMPLING_FLAGS = [
    ["--samples", "0"],
    ["--tol", "0"],
    ["--score-bounds", "1:-1"],
    ["--alpha-bounds", "2:1"],
    # Left through, nan flips verdicts, inf passes every axiom, and an
    # infinite alpha bound makes the alpha sweep warn.
    ["--tol=nan"],
    ["--tol=inf"],
    ["--alpha-bounds=1:inf"],
    # A negative seed made numpy's seeding raise a traceback.
    ["--seed=-1"],
]


@pytest.mark.parametrize("flags", BAD_SAMPLING_FLAGS, ids=lambda f: f[0])
@pytest.mark.parametrize("subcommand", ["verify", "compare"])
def test_bad_sampling_flags_are_usage_errors(subcommand, flags, overlap_file, write_json, capsys):
    if subcommand == "verify":
        argv = ["verify", "--integral", "sipos", "--capacity", overlap_file]
    else:
        argv = ["compare", "--capacity", overlap_file,
                "--scores-file", write_json("scores.json", [[1.0, 1.0]])]
    assert main(argv + flags) == 2
    assert "usage error" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["verify", "--capacity", "mu.json", "--integral", "choquet"],
    ["compare", "--capacity", "mu.json", "--scores-file", "points.json"],
], ids=["verify", "compare"])
def test_bare_sampling_flags_build_the_default_config(argv):
    assert _verify_config(build_parser().parse_args(argv)) == AxiomCheckConfig()


def test_score_bounds_must_span_a_finite_range(overlap_file, capsys):
    # hi - lo overflows, which the sampler cannot draw from
    assert main(["verify", "--integral", "sipos", "--capacity", overlap_file,
                 "--score-bounds=-1e308:1e308"]) == 2
    assert "usage error" in capsys.readouterr().err


class TestCompare:
    def test_text_table(self, overlap_file, write_json, capsys):
        scores = write_json("scores.json", [[1.0, 1.0], [3.0, 3.0]])
        assert main(["compare", "--capacity", overlap_file,
                     "--scores-file", scores, "--samples", "100"]) == 0
        out = capsys.readouterr().out
        assert "choquet" in out and "mle" in out
        assert "-1.8" in out
        assert "M=fail" in out and "M=pass" in out

    def test_json_table(self, overlap_file, write_json, capsys):
        scores = write_json("scores.json", [[1.0, 1.0]])
        assert main(["compare", "--capacity", overlap_file, "--scores-file",
                     scores, "--samples", "100", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["operators"] == ["choquet", "sipos", "mle", "smle",
                                        "sugeno_product"]
        assert payload["table"][0] == [1.0] * 5

    def test_overflowing_point_is_out_of_domain_without_warning(self, overlap_file, write_json, capsys):
        scores = write_json("scores.json", [[1e308, 1e308]])
        assert main(["compare", "--capacity", overlap_file, "--scores-file",
                     scores, "--samples", "100"]) == 1
        assert capsys.readouterr().err.startswith("error: mle overflows")

    @pytest.mark.parametrize(
        "points",
        [[[0.5, "ab"]], [[0.5, [1, 2]]], [{"a": 1}], [[0.5, 10**400]], [[True, 0.5]]],
        ids=["string", "nested", "object", "huge-int", "bool"],
    )
    def test_point_that_is_not_a_vector_of_numbers(self, points, overlap_file, write_json, capsys):
        scores = write_json("scores.json", points)
        assert main(["compare", "--capacity", overlap_file, "--scores-file", scores]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: comparison point 0 ") and err.count("\n") == 1

    def test_out_of_domain_flag_is_not_taken(self, overlap_file, write_json, capsys):
        # compare samples its verdicts out of domain whatever the flag says
        scores = write_json("scores.json", [[1.0, 1.0]])
        with pytest.raises(SystemExit) as err:
            main(["compare", "--capacity", overlap_file, "--scores-file", scores,
                  "--allow-out-of-domain"])
        assert err.value.code == 2
        assert "unrecognized arguments: --allow-out-of-domain" in capsys.readouterr().err

    def test_scores_file_must_be_array(self, overlap_file, write_json, capsys):
        scores = write_json("scores.json", {"not": "an array"})
        assert main(["compare", "--capacity", overlap_file,
                     "--scores-file", scores]) == 1


class TestRank:
    @pytest.fixture
    def model_file(self, write_json):
        return write_json("model.json", {
            "capacity": {"n": 2, "values_by_mask": [0.0, 0.5, 0.5, 1.0]},
            "extension": "sipos",
        })

    @pytest.fixture
    def acts_file(self, write_json):
        return write_json("acts.json", [
            {"entries": ["neutral", "neutral"], "label": "x"},
            {"entries": ["good", "neutral"], "label": "y"},
            {"entries": ["good", "good"], "label": "z"},
            {"entries": ["neutral", "good"], "label": "t"},
        ])

    def test_text_ranking(self, model_file, acts_file, capsys):
        assert main(["rank", "--model", model_file, "--acts", acts_file]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "1: z  score 1"
        assert lines[1] == "2: y  score 0.5"
        assert lines[2] == "3: t  score 0.5  ~ indifferent with previous"
        assert lines[3] == "4: x  score 0"

    def test_json_ranking(self, model_file, acts_file, capsys):
        assert main(["rank", "--model", model_file, "--acts", acts_file,
                     "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        ranking = payload["ranking"]
        assert [r["label"] for r in ranking] == ["z", "y", "t", "x"]
        assert [r["score"] for r in ranking] == [1.0, 0.5, 0.5, 0.0]
        assert ranking[2]["indifferent_to_previous"] is True

    @pytest.mark.parametrize("extension", ["choquet", "mle"])
    # the last: a level name that reads as a number is still an unknown level
    @pytest.mark.parametrize("entries", [["good"], ["good", "stellar"], [1e308, -1e308],
                                         ["good", "1.5"]])
    def test_bad_act_exits_1(self, write_json, capsys, extension, entries):
        model = write_json("model.json", {"capacity": GRADED, "extension": extension})
        acts = write_json("acts.json", [["good", "neutral"], entries])
        assert main(["rank", "--model", model, "--acts", acts]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1, err
        assert "Warning" not in err

    def test_missing_acts_flag_exits_2(self, model_file, capsys):
        with pytest.raises(SystemExit) as err:
            main(["rank", "--model", model_file])
        assert err.value.code == 2


class TestDiagnostics:
    def test_invalid_capacity_exit_code(self, write_json, capsys):
        bad = write_json("bad.json", {"n": 2, "values_by_mask": [0.0, 1.2, 0.6, 1.0]})
        assert main(["eval", "--integral", "choquet", "--capacity", bad,
                     "--scores", "1,1"]) == 1
        err = capsys.readouterr().err
        assert "error:" in err
        assert "monotone" in err or "monotonicity" in err

    def test_missing_file(self, tmp_path, capsys):
        assert main(["eval", "--integral", "choquet",
                     "--capacity", str(tmp_path / "nope.json"),
                     "--scores", "1,1"]) == 1
        assert "cannot read" in capsys.readouterr().err

    def test_malformed_json(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert main(["eval", "--integral", "choquet", "--capacity", str(path),
                     "--scores", "1,1"]) == 1
        assert "not valid JSON" in capsys.readouterr().err

    def test_unknown_subcommand(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["frobnicate"])
        assert err.value.code == 2

    def test_no_subcommand(self, capsys):
        with pytest.raises(SystemExit) as err:
            main([])
        assert err.value.code == 2


def huge_capacity(digits=400):
    return '{"n": 2, "values_by_mask": [0, 0.3, %s, 1]}' % ("9" * digits)


class TestHugeIntegers:
    """A JSON integer no double can hold is a domain error: exit 1, one line, no traceback."""

    @staticmethod
    def write(tmp_path, name, text):
        path = tmp_path / name
        path.write_text(text)
        return str(path)

    @staticmethod
    def assert_one_error_line(capsys, argv):
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("digits", [400, 5000])  # 5000 passes Python's int-parsing limit
    def test_capacity_value_in_eval_and_verify(self, tmp_path, capsys, digits):
        huge = self.write(tmp_path, "huge.json", huge_capacity(digits))
        self.assert_one_error_line(
            capsys, ["eval", "--integral", "choquet", "--capacity", huge, "--scores", "1,1"]
        )
        self.assert_one_error_line(capsys, ["verify", "--integral", "choquet", "--capacity", huge])

    @pytest.mark.parametrize(
        "capacity, level, entry",
        [
            (huge_capacity(), "-1", "0"),
            (json.dumps(GRADED), "9" * 400, "0"),
            (json.dumps(GRADED), "-1", "9" * 400),
        ],
        ids=["capacity", "level", "act"],
    )
    def test_rank(self, tmp_path, capsys, capacity, level, entry):
        scales = '{"1": {"neutral": 0, "good": 1, "bad": %s}}' % level
        model = '{"capacity": %s, "extension": "sipos", "scales": %s}' % (capacity, scales)
        model_file = self.write(tmp_path, "model.json", model)
        acts_file = self.write(tmp_path, "acts.json", "[[1, %s]]" % entry)
        self.assert_one_error_line(capsys, ["rank", "--model", model_file, "--acts", acts_file])


# The stdout of one invocation per subcommand case, in both formats, pinned
# by sha256. Every file is written by ``corpus_files``; no output names a path.
CORPUS_CAPACITY = {"n": 3, "values_by_mask": [0.0, 0.2, 0.35, 0.6, 0.1, 0.45, 0.5, 1.0]}
CORPUS_LOSSES = {"n": 3, "values": {"": 0, "1": 0.3, "2": 0.3, "1,2": 0.5, "3": 0.2,
                                    "1,3": 0.6, "2,3": 0.4, "1,2,3": 1}}
CORPUS_MOBIUS = {"n": 3, "values_by_mask": [0.0, 0.2, 0.35, 0.05, 0.1, 0.15, 0.05, 0.1]}
CORPUS_POINTS = [[0.7, -0.2, 0.4], [0.1, 0.5, 0.9], [1.0, 1.0, 1.0]]
CORPUS_MODEL = {
    "capacity": CORPUS_CAPACITY,
    "extension": "choquet",
    "scales": {"2": {"neutral": 0, "good": 1, "bad": -0.5, "great": 1.5}},
}
CORPUS_ACTS = [
    {"entries": ["good", "bad", "neutral"], "label": "p"},
    {"entries": ["neutral", "great", 0.25], "label": "q"},
    ["good", "good", "neutral"],
    {"entries": [0.6, "good", "neutral"], "label": "r"},
    [1, 1, 1],
    ["neutral", "good", "good"],
]

CLI_CORPUS = {
    **{"transform-" + op: ["transform", op, "--input", "{capacity}"]
       for op in ("mobius", "comobius", "ordinal", "conjugate")},
    "transform-zeta": ["transform", "zeta", "--input", "{mobius}"],
    **{"eval-" + integral: ["eval", "--integral", integral, "--capacity", "{capacity}",
                            "--scores=0.7,-0.2,0.4"]
       for integral in ("choquet", "sipos", "mle", "smle", "sugeno-prod")},
    "eval-cpt": ["eval", "--integral", "cpt", "--capacity", "{capacity}",
                 "--capacity2", "{losses}", "--scores=0.7,-0.2,0.4"],
    "interaction-report": ["interaction", "--capacity", "{capacity}", "--max-order", "3",
                           "--tol", "0.15"],
    "interaction-coalition": ["interaction", "--capacity", "{capacity}", "--coalition", "1,3"],
    "verify": ["verify", "--capacity", "{capacity}", "--integral", "choquet", "--samples", "300",
               "--seed", "7"],
    "compare": ["compare", "--capacity", "{capacity}", "--scores-file", "{points}",
                "--samples", "200"],
    "rank": ["rank", "--model", "{model}", "--acts", "{acts}"],
}

CLI_CORPUS_SHA256 = {
    ('compare', 'text'): "7e24c001d16f78395ce2056eec4238197ac7a412370345630be185ba59ac4338",
    ('compare', 'json'): "7bb7ab59cb175786fff5113c1046098a9863a4f75eb437a2ccabddd7f96aad9b",
    ('eval-choquet', 'text'): "342a2d9e91ecb95d736e0a0cd7540c7b4637173ebc0f3a12a09839873b863e56",
    ('eval-choquet', 'json'): "849ebdc90f57b3bab9e8b4156dfac6ece857de3648a28af831d4d9a1cf984006",
    ('eval-cpt', 'text'): "d5019abbdc8a5f2919e9e3510391891cd7fbdf0765bf16ec83caa779f370116d",
    ('eval-cpt', 'json'): "d96b50e261c1555c8b7b78f814d409c47b8d2e65205c386af63c980cfa21d426",
    ('eval-mle', 'text'): "5d97db8fadf0f5815c8d11a071385abbcd07900a5eb8ebbd56a6fe93dd56161c",
    ('eval-mle', 'json'): "140f9c82fe9036377d7ddfdc12e8e82a91749a527f456db527ce99c3cffbc85d",
    ('eval-sipos', 'text'): "84ee4798483725f50df0487f6ba7ef7eae4944f53cde26b46f2a5df8e70c6a84",
    ('eval-sipos', 'json'): "2b9807aebf7ddce171ce89d7267acdc405dd302d6b362b008ccc1eba766f75f8",
    ('eval-smle', 'text'): "a094b02106c26377f1d2b3211fa0052b8b9f4190c1a52d6761672f094a709617",
    ('eval-smle', 'json'): "de8eb7b3826cbbc9a679a0ef3ff46e82e5c8db4a7a2133eb5ad0113f71733fe4",
    ('eval-sugeno-prod', 'text'): "d5019abbdc8a5f2919e9e3510391891cd7fbdf0765bf16ec83caa779f370116d",
    ('eval-sugeno-prod', 'json'): "b766008855801a8d58f6a675ba92d2e465fb86509f006ecc9ff74a742ca66985",
    ('interaction-coalition', 'text'): "88930bd051d214a973581b9492a5ca110aea3fdd5dc65a68bc444b6173877bbd",
    ('interaction-coalition', 'json'): "e2d1c1d23429f94e83f62853ac9f655788e7f90801a7a5d135154814a2318dc7",
    ('interaction-report', 'text'): "552b67b41ba75d7905d6861ab35c27dd41f5c6340a57032764f35a32a5b80af4",
    ('interaction-report', 'json'): "991e3d2cf926a0628229129fcdc18ff034118ae43c1e16331916fffff4fac4a5",
    ('rank', 'text'): "f27c284de4541d5505fe9d962275f8a37f0c66460e6fe2f65b8b479ad32cbca9",
    ('rank', 'json'): "57e8973515cf208cc7df6ebe07fa26947a75472814d10b00dd25b7ff782ad332",
    ('transform-comobius', 'text'): "f2061ef6880ceee4d29b70982dcf73a2233f169738e6e7189ec1d1b2e44aee3e",
    ('transform-comobius', 'json'): "03aa9394422b4e3e73dacb59081ce7988865a8cbaad8ba0321cb6616e1ecf0ae",
    ('transform-conjugate', 'text'): "6f2a16189ca54ddfc8faa3f4a69b0b730d93ebde8e4e92a681b8a56044a1811b",
    ('transform-conjugate', 'json'): "0c1e4fe11c4ee5070819762abc5a38bdf44a70d00fe45b3c550444eb83284f48",
    ('transform-mobius', 'text'): "4426b0bfd519c34ca949220802fda1e2c44f4bdbbda67bf858d3b6d4ef38f565",
    ('transform-mobius', 'json'): "828d0be22da9924e0f7dca20c12c711702f084fbcbe3ab3a3f792bd952251272",
    ('transform-ordinal', 'text'): "ee3bd2204d4de778dc1fcb24df5a0d911537322de48447a71d5f1b5dd7a9323a",
    ('transform-ordinal', 'json'): "675349ad6addc39c6d757c5c58d7e2a3e2a21b556ecd55c669e0916d11891efe",
    ('transform-zeta', 'text'): "ee3bd2204d4de778dc1fcb24df5a0d911537322de48447a71d5f1b5dd7a9323a",
    ('transform-zeta', 'json'): "675349ad6addc39c6d757c5c58d7e2a3e2a21b556ecd55c669e0916d11891efe",
    ('verify', 'text'): "2fb3c1157f397bc02909a8c9d96e9e697f2204342c907892a1709b9200956a3e",
    ('verify', 'json'): "a4a23cb96e9f0a00d997fb7cf3ce6a8029de26faf4611a05f2371cd6747c7816",
}


@pytest.fixture
def corpus_files(write_json):
    return {
        "capacity": write_json("capacity.json", CORPUS_CAPACITY),
        "losses": write_json("losses.json", CORPUS_LOSSES),
        "mobius": write_json("mobius.json", CORPUS_MOBIUS),
        "points": write_json("points.json", CORPUS_POINTS),
        "model": write_json("model.json", CORPUS_MODEL),
        "acts": write_json("acts.json", CORPUS_ACTS),
    }


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("case", sorted(CLI_CORPUS))
def test_cli_output_is_pinned(case, fmt, corpus_files, capsys):
    argv = [arg.format(**corpus_files) for arg in CLI_CORPUS[case]] + ["--format", fmt]
    assert main(argv) == 0
    out, err = capsys.readouterr()
    assert err == ""
    assert hashlib.sha256(out.encode()).hexdigest() == CLI_CORPUS_SHA256[case, fmt]


@pytest.mark.parametrize("case", sorted(CLI_CORPUS))
def test_a_subcommand_returns_its_payload_and_main_alone_writes_it(case, corpus_files, capsys):
    argv = [arg.format(**corpus_files) for arg in CLI_CORPUS[case]]
    args = build_parser().parse_args(argv)
    payload = args.func(args)
    assert capsys.readouterr() == ("", "")
    _print_json(payload)
    written = capsys.readouterr().out
    assert main(argv + ["--format", "json"]) == 0
    assert capsys.readouterr() == (written, "")
