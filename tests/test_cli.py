import json

import pytest

from germlab.cli import main, run_job, run_suite


def write_job(path, **fields):
    path.write_text(json.dumps(fields), encoding="utf-8")
    return path


def base_job(**overrides):
    job = {
        "variables": ["x1", "x2"],
        "ordering": {"weights": [1, 1], "tiebreak": "reverse"},
        "ideal": ["x1*x2"],
        "command": "diagram",
        "parameters": {},
    }
    job.update(overrides)
    return job


def test_flat_check_job(tmp_path):
    path = write_job(
        tmp_path / "flat.json",
        **base_job(
            ideal=["x1*x2"],
            map=["x1-x2"],
            command="flat-check",
            parameters={"seed": 7},
        ),
    )
    report, code = run_job(path)
    assert code == 0
    assert report["status"] == "ok"
    assert report["result"]["flat"] is True
    assert report["result"]["fibre_dimension"] == 0
    assert report["result"]["fibre_vertices"] == [[0, 2], [1, 0]]


def test_hs_job(tmp_path):
    path = write_job(
        tmp_path / "hs.json",
        **base_job(
            ideal=["x1^2-x2^3", "x1*x2"],
            command="hs",
            parameters={"eta_max": 4},
        ),
    )
    report, code = run_job(path)
    assert code == 0
    assert report["result"]["hs"] == [1, 3, 4, 5, 5]


def test_malformed_polynomial_exit_2(tmp_path):
    path = write_job(
        tmp_path / "bad.json", **base_job(ideal=["x1^"], command="diagram")
    )
    report, code = run_job(path)
    assert code == 2
    assert report["status"] == "error"
    assert report["error"]["kind"] == "parse"
    assert report["error"]["column"] == 4


def test_unknown_field_rejected(tmp_path):
    job = base_job()
    job["surprise"] = 1
    path = write_job(tmp_path / "unknown.json", **job)
    report, code = run_job(path)
    assert code == 2 and "surprise" in report["error"]["message"]


def test_unknown_parameter_rejected(tmp_path):
    path = write_job(
        tmp_path / "param.json", **base_job(parameters={"bogus": 3})
    )
    report, code = run_job(path)
    assert code == 2


def test_missing_seed_for_experiments(tmp_path):
    path = write_job(
        tmp_path / "noseed.json",
        **base_job(map=["x1-x2"], command="determinacy-exp", parameters={"mu": 2}),
    )
    report, code = run_job(path)
    assert code == 2
    assert "seed" in report["error"]["message"]


def test_non_flat_determinacy_order_exit_1(tmp_path):
    path = write_job(
        tmp_path / "notflat.json",
        **base_job(map=["x1"], command="determinacy-order", parameters={"seed": 3}),
    )
    report, code = run_job(path)
    assert code == 1
    assert report["status"] == "rejected"


def test_map_must_vanish(tmp_path):
    path = write_job(
        tmp_path / "const.json",
        **base_job(map=["1 + x1"], command="flat-check", parameters={"seed": 3}),
    )
    report, code = run_job(path)
    assert code == 2


def test_determinacy_order_job(tmp_path):
    path = write_job(
        tmp_path / "mu0.json",
        **base_job(
            map=["x1-x2"], command="determinacy-order", parameters={"seed": 3}
        ),
    )
    report, code = run_job(path)
    assert code == 0 and report["result"]["mu0"] == 2


def test_std_basis_and_roundtrip(tmp_path):
    from germlab import parse_poly

    path = write_job(
        tmp_path / "basis.json",
        **base_job(ideal=["x1^2-x2^3", "x1*x2"], command="std-basis"),
    )
    report, code = run_job(path)
    assert code == 0
    basis = report["result"]["basis"]
    assert basis == ["x1^2 - x2^3", "x1*x2", "x2^4"]
    for text in basis:
        parse_poly(text, 2)  # report polynomials re-parse
    assert len(report["result"]["certificates"]) == len(basis)


def test_cones_equal_job(tmp_path):
    path = write_job(
        tmp_path / "cones.json",
        **base_job(
            ideal=["x1^2-x2^3"], ideal2=["x1^2+x2^5"], command="cones-equal"
        ),
    )
    report, code = run_job(path)
    assert code == 0 and report["result"]["equal"] is True


def test_oracle_check_job(tmp_path):
    path = write_job(
        tmp_path / "oracle.json",
        **base_job(
            ideal=["x1^2-x2^3", "x1*x2"],
            command="oracle-check",
            parameters={"eta_max": 6},
        ),
    )
    report, code = run_job(path)
    assert code == 0
    assert report["result"]["hs_match"] is True
    assert report["result"]["staircase_match"] is True


def test_experiment_job(tmp_path):
    path = write_job(
        tmp_path / "exp.json",
        **base_job(
            map=["x1-x2"],
            command="determinacy-exp",
            parameters={"mu": 2, "trials": 3, "seed": 11},
        ),
    )
    report, code = run_job(path)
    assert code == 0
    assert report["result"]["all_pass"] is True
    assert report["result"]["guaranteed"] is True


def test_suite_empty_dir(tmp_path):
    empty = tmp_path / "jobs"
    empty.mkdir()
    aggregate, code = run_suite(empty)
    assert code == 0 and aggregate["total"] == 0


def test_suite_mixed(tmp_path):
    jobs = tmp_path / "jobs"
    jobs.mkdir()
    write_job(jobs / "good.json", **base_job())
    write_job(jobs / "bad.json", **base_job(ideal=["x1^"]))
    aggregate, code = run_suite(jobs, out_dir=tmp_path / "out")
    assert code == 1
    assert aggregate["total"] == 2 and aggregate["passed"] == 1
    names = {entry["job"] for entry in aggregate["jobs"]}
    assert names == {"good.json", "bad.json"}
    assert (tmp_path / "out" / "good.report.json").exists()


def test_suite_deterministic(tmp_path):
    jobs = tmp_path / "jobs"
    jobs.mkdir()
    write_job(
        jobs / "exp.json",
        **base_job(
            map=["x1-x2"],
            command="determinacy-exp",
            parameters={"mu": 2, "trials": 2, "seed": 5},
        ),
    )
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    run_suite(jobs, out_dir=out1)
    run_suite(jobs, out_dir=out2)
    a = (out1 / "exp.report.json").read_bytes()
    b = (out2 / "exp.report.json").read_bytes()
    assert a == b


def test_weighted_oracle_check(tmp_path):
    path = write_job(
        tmp_path / "weighted.json",
        **base_job(
            ordering={"weights": [1, 2], "tiebreak": "reverse"},
            ideal=["x2 + x1^2"],
            command="oracle-check",
            parameters={"eta_max": 5},
        ),
    )
    report, code = run_job(path)
    assert code == 0
    assert report["result"]["staircase_match"] is True
    assert report["result"]["hs_match"] == "skipped-nondegree-weights"


def test_env_resource_override(tmp_path, monkeypatch):
    monkeypatch.setenv("GERMLAB_MAX_PAIRS", "1")
    path = write_job(
        tmp_path / "tight.json",
        **base_job(
            variables=["x1", "x2", "x3"],
            ordering={"weights": [1, 1, 1], "tiebreak": "reverse"},
            ideal=["x1*x2 + x3^3", "x2*x3 + x1^3", "x1*x3 + x2^3"],
            command="std-basis",
        ),
    )
    report, code = run_job(path)
    assert code == 2
    assert report["error"]["kind"] == "resource"
    monkeypatch.setenv("GERMLAB_MAX_PAIRS", "junk")
    report, code = run_job(path)
    assert code == 2
    # no position: the error is in the environment, not in the job file
    assert report["error"] == {
        "kind": "parse",
        "message": "GERMLAB_MAX_PAIRS must be an integer, got 'junk'",
    }


def test_main_version(capsys):
    with pytest.raises(SystemExit) as info:
        main(["--version"])
    assert info.value.code == 0
    assert "germlab" in capsys.readouterr().out


def test_main_run(tmp_path, capsys):
    path = write_job(tmp_path / "d.json", **base_job())
    assert main(["run", str(path)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["result"]["vertices"] == [[1, 1]]


OUT_OF_RANGE = [
    ("hs", "eta_max", -1),
    ("determinacy-exp", "mu", -1),
    ("determinacy-exp", "trials", -1),
    ("determinacy-exp", "tail_degree_max", -1),
    ("cm-certify", "l_max", -1),
    ("determinacy-exp", "coefficient_range", 0),
    # JSON true decodes to a bool, which Python counts as the integer 1
    ("hs", "eta_max", True),
    ("determinacy-exp", "mu", True),
    ("determinacy-exp", "trials", True),
    ("determinacy-exp", "tail_degree_max", True),
    ("cm-certify", "l_max", True),
    ("determinacy-exp", "coefficient_range", True),
    ("determinacy-exp", "seed", True),
]


def out_of_range_job(command, field, value):
    params = {} if command == "hs" else {"seed": 3}
    params[field] = value
    extra = {}
    if command == "determinacy-exp":
        extra["map"] = ["x1-x2"]
    return base_job(command=command, parameters=params, **extra)


@pytest.mark.parametrize("command,field,value", OUT_OF_RANGE)
def test_parameter_out_of_range_exit_2(tmp_path, command, field, value):
    path = write_job(tmp_path / "range.json", **out_of_range_job(command, field, value))
    report, code = run_job(path)
    assert code == 2
    assert report["status"] == "error"
    assert report["error"]["kind"] == "parse"
    assert field in report["error"]["message"]


def test_boolean_weight_exit_2(tmp_path):
    path = write_job(
        tmp_path / "weights.json",
        **base_job(ordering={"weights": [True, 2], "tiebreak": "reverse"}),
    )
    report, code = run_job(path)
    assert code == 2
    assert report["error"]["kind"] == "parse"
    assert "weights" in report["error"]["message"]


def test_json_syntax_error_has_position(tmp_path):
    path = tmp_path / "syntax.json"
    path.write_text('{"variables": [\n  "x1",\n}', encoding="utf-8")
    report, code = run_job(path)
    assert code == 2
    assert report["error"]["kind"] == "parse"
    assert (report["error"]["line"], report["error"]["column"]) == (3, 1)


def _without(field):
    job = base_job()
    del job[field]
    return job


STRUCTURAL_ERRORS = [
    base_job(command=[[["x1"]]]),
    base_job(ordering={"weights": [0, 1], "tiebreak": "reverse"}),
    base_job(parameters={"eta_max": "four"}),
    base_job(command="hs", parameters={"eta_max": -1}),
    _without("command"),
    _without("variables"),
]


@pytest.mark.parametrize(
    "job",
    STRUCTURAL_ERRORS,
    ids=["command", "weights", "parameter", "range", "no-command", "no-variables"],
)
def test_structural_error_has_no_position(tmp_path, job):
    path = write_job(tmp_path / "structural.json", **job)
    report, code = run_job(path)
    assert code == 2
    assert report["error"]["kind"] == "parse"
    assert "line" not in report["error"] and "column" not in report["error"]


LATIN1_JOB = b'{"variables": ["x1"], "command": "diagram", "ideal": ["x1\xe9"]}'
DEEP_JOB = b"[" * 100_000 + b"]" * 100_000


@pytest.mark.parametrize("content,word", [(LATIN1_JOB, "UTF-8"), (DEEP_JOB, "nested")])
def test_undecodable_job_exit_2(tmp_path, content, word):
    path = tmp_path / "undecodable.json"
    path.write_bytes(content)
    report, code = run_job(path)
    assert code == 2
    assert report["status"] == "error"
    assert report["error"]["kind"] == "parse"
    assert word in report["error"]["message"]


def test_suite_survives_out_of_range_job(tmp_path, capsys):
    jobs = tmp_path / "jobs"
    jobs.mkdir()
    # "a-" sorts first, so the good job runs after the bad ones
    write_job(jobs / "a-bad.json", **out_of_range_job("hs", "eta_max", -1))
    (jobs / "a-latin1.json").write_bytes(LATIN1_JOB)
    (jobs / "a-deep.json").write_bytes(DEEP_JOB)
    write_job(jobs / "b-good.json", **base_job())
    out = tmp_path / "out"
    assert main(["suite", str(jobs), "--out", str(out)]) == 1
    aggregate = json.loads(capsys.readouterr().out)
    by_name = {entry["job"]: entry["exit_code"] for entry in aggregate["jobs"]}
    assert by_name == {"a-bad.json": 2, "a-deep.json": 2, "a-latin1.json": 2, "b-good.json": 0}
    assert aggregate["total"] == 4 and aggregate["passed"] == 1
    good = json.loads((out / "b-good.report.json").read_text(encoding="utf-8"))
    assert good["status"] == "ok" and good["result"]["vertices"] == [[1, 1]]
    for name in ("a-bad", "a-latin1", "a-deep"):
        bad = json.loads((out / f"{name}.report.json").read_text(encoding="utf-8"))
        assert bad["error"]["kind"] == "parse"


@pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
def test_weighted_job_tails_vanish_to_total_degree_mu(tmp_path, seed):
    # weight 3 on x1 used to admit the tail x1 (weight 3 >= mu + 1, degree
    # 1), which changes the fibre below the guaranteed total-degree bound
    path = write_job(
        tmp_path / "weighted-exp.json",
        **base_job(
            ordering={"weights": [3, 1], "tiebreak": "reverse"},
            ideal=["x2^2"],
            map=["x1"],
            command="determinacy-exp",
            parameters={
                "seed": seed,
                "mu": 2,
                "trials": 10,
                "tail_degree_max": 3,
                "coefficient_range": 1,
            },
        ),
    )
    report, code = run_job(path)
    assert code == 0
    result = report["result"]
    assert result["guaranteed"] is True
    assert result["passes"] == 10 and result["defect"] is False


BAD_DIGITS = [
    ("x²", 1),  # superscript two as a variable index
    ("x1^²", 4),  # superscript two as a power
    ("٣*x1", 1),  # Arabic-Indic three as a coefficient
    ("1" * 5000 + "*x1", 1),  # beyond the interpreter's int-string limit
    ("x1 + " + "7" * 5000, 6),
]


@pytest.mark.parametrize(
    "text,column", BAD_DIGITS, ids=["index", "power", "coeff", "long", "long-later"]
)
def test_bad_digits_are_parse_errors(tmp_path, text, column):
    path = write_job(tmp_path / "digits.json", **base_job(ideal=[text]))
    report, code = run_job(path)
    assert code == 2
    assert report["status"] == "error"
    assert report["error"]["kind"] == "parse"
    assert report["error"]["message"].startswith("ideal[0]: ")
    assert (report["error"]["line"], report["error"]["column"]) == (1, column)


def test_suite_survives_bad_digit_job(tmp_path):
    jobs = tmp_path / "jobs"
    jobs.mkdir()
    write_job(jobs / "a-bad.json", **base_job(ideal=["x1^²"]))
    write_job(jobs / "b-good.json", **base_job())
    aggregate, code = run_suite(jobs, out_dir=tmp_path / "out")
    assert code == 1
    by_name = {entry["job"]: entry["exit_code"] for entry in aggregate["jobs"]}
    assert by_name == {"a-bad.json": 2, "b-good.json": 0}
    good = json.loads((tmp_path / "out" / "b-good.report.json").read_text(encoding="utf-8"))
    assert good["result"]["vertices"] == [[1, 1]]
