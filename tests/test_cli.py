import json

import pytest

from capacities.cli import main

OVERLAP = {"n": 2, "values_by_mask": [0.0, 0.9, 0.9, 1.0]}
GRADED = {"n": 2, "values_by_mask": [0.0, 0.3, 0.6, 1.0]}


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

    def test_overflowing_value_is_out_of_domain(self, write_json, capsys):
        path = write_json("graded.json", GRADED)
        assert main(["eval", "--integral", "choquet", "--capacity", path,
                     "--scores", "1e308,-1e308"]) == 1
        assert capsys.readouterr().err.startswith("error:")

    def test_bad_scores_rejected_by_parser(self, overlap_file, capsys):
        with pytest.raises(SystemExit) as err:
            main(["eval", "--integral", "mle", "--capacity", overlap_file,
                  "--scores", "1,abc"])
        assert err.value.code == 2


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

    def test_ordinal_requires_capacity(self, write_json, capsys):
        bad = write_json("bad.json", {"n": 2, "values_by_mask": [0.0, 0.5, 0.4, 0.3]})
        assert main(["transform", "ordinal", "--input", bad]) == 1
        assert "error:" in capsys.readouterr().err


class TestInteraction:
    def test_single_coalition(self, overlap_file, capsys):
        assert main(["interaction", "--capacity", overlap_file,
                     "--coalition", "1,2"]) == 0
        assert capsys.readouterr().out.strip() == "-0.8"

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
        assert "usage error" in capsys.readouterr().err

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
        assert main(["verify", "--capacity", overlap_file, "--integral", "sipos",
                     "--axioms", "Z9"]) == 1
        assert "unknown axiom" in capsys.readouterr().err

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
