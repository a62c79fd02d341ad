import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from germlab import cli, germs, standard_basis
from germlab.cli import main, run_job, run_suite
from germlab.seeding import derive_seed

SRC = Path(__file__).resolve().parent.parent / "src"


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


def test_flat_check_with_l_max_searches_the_domain_once(tmp_path, monkeypatch):
    searched = []
    original = germs.dimension_at_origin

    def counting(ideal, rng_seed, **kwargs):
        searched.append((len(ideal.generators), rng_seed))
        return original(ideal, rng_seed, **kwargs)

    monkeypatch.setattr(germs, "dimension_at_origin", counting)
    path = write_job(
        tmp_path / "flat.json",
        **base_job(
            ideal=["x1*x2"],
            map=["x1-x2"],
            command="flat-check",
            parameters={"seed": 7, "l_max": 4},
        ),
    )
    report, code = run_job(path)
    assert code == 0
    # one search on the domain, one on the fibre
    assert searched == [(1, derive_seed(7, "flat-domain")), (2, derive_seed(7, "flat-fibre"))]
    result = report["result"]
    assert result["cm_evidence"] == "certified(l=1)"
    assert result["domain"]["seed"] == derive_seed(7, "flat-domain")


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
    from germlab import Poly, parse_poly

    readme = base_job(ideal=["x1^2-x2^3", "x1*x2"], command="std-basis")
    # rational content under weights (1, 2): the integer contents and each
    # certificate's start run under a weighted order
    weighted = base_job(
        ordering={"weights": [1, 2], "tiebreak": "reverse"},
        ideal=["1/2*x1^2 + x2^3", "2/3*x1*x2 - 5/7*x2^2"],
        command="std-basis",
    )
    bases = []
    for job in (readme, weighted):
        report, code = run_job(write_job(tmp_path / "basis.json", **job))
        assert code == 0
        gens = [parse_poly(g, 2) for g in job["ideal"]]
        basis, certs = report["result"]["basis"], report["result"]["certificates"]
        # report polynomials re-parse, and each certificate re-expands to its
        # basis element
        for b, cert in zip(basis, certs, strict=True):
            total = Poly.zero(2)
            for c, g in zip(cert, gens, strict=True):
                total = total + parse_poly(c, 2) * g
            assert total == parse_poly(b, 2), (b, cert)
        bases.append(basis)
    assert bases[0] == ["x1^2 - x2^3", "x1*x2", "x2^4"]
    assert len(bases[1]) == 5


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


def test_oracle_check_rejection_exit_1(tmp_path, monkeypatch):
    # an oracle that disagrees with the engine: the report is a rejection
    monkeypatch.setattr(cli, "oracle_staircase", lambda ideal, order, eta_max: set())
    path = write_job(
        tmp_path / "oracle.json",
        **base_job(ideal=["x1^2-x2^3", "x1*x2"], command="oracle-check", parameters={"eta_max": 4}),
    )
    report, code = run_job(path)
    assert code == 1
    assert report["status"] == "rejected" and "error" not in report
    assert report["result"]["staircase_match"] is False
    assert report["result"]["staircase_size"] == 0


def test_cm_certify_job(tmp_path):
    path = write_job(
        tmp_path / "cm.json", **base_job(command="cm-certify", parameters={"seed": 3, "l_max": 4})
    )
    report, code = run_job(path)
    assert code == 0 and report["status"] == "ok"
    result = report["result"]
    assert result["coordinate_change"] == [[1, 1], [1, 2]]
    assert (result["dimension"], result["diagram"]) == (1, [[1, 1]])
    assert result["cm"]["status"] == "certified" and result["cm"]["l"] == 1


def test_approx_exp_job(tmp_path):
    path = write_job(
        tmp_path / "approx.json",
        **base_job(
            map=["x1-x2"], command="approx-exp", parameters={"mu": 2, "trials": 3, "seed": 11}
        ),
    )
    report, code = run_job(path)
    assert code == 0 and report["status"] == "ok"
    result = report["result"]
    assert result["kind"] == "approximation"
    assert result["all_pass"] is True and result["passes"] == 3
    assert [trial["trial"] for trial in result["trials"]] == [0, 1, 2]


def test_oracle_check_on_1100_variables(tmp_path):
    # the box is an odometer, so no variable count overflows the recursion limit
    n = 1100
    path = write_job(
        tmp_path / "wide.json",
        variables=[f"x{i}" for i in range(1, n + 1)],
        ideal=["x1"],
        command="oracle-check",
        parameters={"eta_max": 1},
    )
    report, code = run_job(path)
    assert code == 0, report
    assert report["result"]["staircase_match"] is True
    assert report["result"]["hs_match"] is True
    assert report["result"]["hs"] == [1, n]


@pytest.mark.parametrize(
    "ordering, ideal, generators",
    [
        ({"weights": [1, 1], "tiebreak": "forward"}, ["x1^2 + x1*x2", "x2^2"], ["x2^2", "x1*x2 + x1^2", "x1^3"]),
        ({"weights": [1, 1], "tiebreak": "reverse"}, ["x1^2 + x1*x2", "x2^2"], ["x1*x2 + x1^2", "x2^2"]),
        # other weights: the total-degree cone, as for hs
        ({"weights": [1, 2], "tiebreak": "reverse"}, ["x2 + x1^2", "x2"], ["x2", "x1^2"]),
        # the reduced basis: x2^3 lies in the diagram of (x2^2), so it is reduced away
        ({"weights": [1, 1], "tiebreak": "reverse"}, ["x2^2", "x2^3 + x1^2*x2"], ["x2^2", "x1^2*x2"]),
        # the README's ideal
        ({"weights": [1, 1], "tiebreak": "reverse"}, ["x1^2 - x2^3", "x1*x2"], ["x1^2", "x1*x2", "x2^4"]),
    ],
)
def test_tangent_cone_job_uses_the_job_tiebreak(tmp_path, ordering, ideal, generators):
    path = write_job(
        tmp_path / "cone.json", **base_job(ordering=ordering, ideal=ideal, command="tangent-cone")
    )
    report, code = run_job(path)
    assert code == 0, report
    assert report["result"]["generators"] == generators


def _holds(result, expected):
    """Whether every field of expected, at any depth, has its value in result."""
    if isinstance(expected, dict):
        return all(_holds(result[key], value) for key, value in expected.items())
    return result == expected


@pytest.mark.parametrize(
    "fields, expected",
    [
        # x1*x2 times (x1, x2): the echelon divides out the monomial content
        # and shifts the vertices back
        ({"ideal": ["x1^2*x2", "x1*x2^2"]}, {"vertices": [[1, 2], [2, 1]]}),
        # the witness is the Pascal matrix, and the CM scan reads the
        # presentation the domain search built
        (
            {"map": ["x1 + x2"], "command": "flat-check", "parameters": {"seed": 3, "l_max": 4}},
            {"flat": True, "cm_evidence": "certified(l=1)", "domain": {"change": [[1, 1], [1, 2]]}},
        ),
        # the oracle's rows are read off its weight-sorted columns, and its
        # staircase is the engine's
        (
            {
                "ordering": {"weights": [1, 2], "tiebreak": "forward"},
                "ideal": ["x1^2 - x2^3", "x1*x2 + x2^2"],
                "command": "oracle-check",
                "parameters": {"eta_max": 6},
            },
            {"staircase_match": True},
        ),
        # the staircase dimension is a branch-and-bound search, not an
        # enumeration of the C(30, 15) coordinate subsets
        (
            {
                "variables": [f"x{i}" for i in range(1, 31)],
                "ordering": {"weights": [1] * 30, "tiebreak": "reverse"},
                "ideal": [f"x{i}" for i in range(1, 16)],
                "command": "dim",
                "parameters": {"seed": 1},
            },
            {"dimension": 15},
        ),
    ],
    ids=["content-diagram", "flat-check-l-max", "weighted-oracle-check", "dim-30-variables"],
)
def test_job_answers(tmp_path, fields, expected):
    report, code = run_job(write_job(tmp_path / "job.json", **base_job(**fields)))
    assert code == 0, report
    assert _holds(report["result"], expected), report


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


def test_suite_on_a_missing_directory_reports_in_the_envelope(tmp_path, capsys):
    missing = tmp_path / "missing"
    expected = {
        "schema_version": cli.SCHEMA_VERSION,
        "tool": "germlab",
        "version": cli.__version__,
        "status": "error",
        "error": {"kind": "io", "message": f"not a directory: {missing}"},
    }
    assert run_suite(missing) == (expected, 2)
    assert main(["suite", str(missing)]) == 2
    assert json.loads(capsys.readouterr().out) == expected


def test_suite_whose_reports_cannot_be_written_exits_2(tmp_path, capsys):
    jobs = tmp_path / "jobs"
    jobs.mkdir()
    write_job(jobs / "good.json", **base_job())
    # the report directory is a regular file
    taken = tmp_path / "taken"
    taken.write_text("", encoding="utf-8")
    aggregate, code = run_suite(jobs, out_dir=taken)
    assert code == 2 and aggregate["status"] == "error"
    assert aggregate["error"]["kind"] == "io" and str(taken) in aggregate["error"]["message"]
    assert main(["suite", str(jobs), "--out", str(taken)]) == 2
    assert json.loads(capsys.readouterr().out) == aggregate
    # a report's path is a directory
    out = tmp_path / "out"
    (out / "good.report.json").mkdir(parents=True)
    aggregate, code = run_suite(jobs, out_dir=out)
    assert code == 2 and aggregate["error"]["kind"] == "io"
    assert "good.report.json" in aggregate["error"]["message"]


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


@pytest.mark.parametrize(
    "name,value",
    [("GERMLAB_MAX_TERMS", "-5"), ("GERMLAB_MAX_TERMS", "0"), ("GERMLAB_MAX_REDUCTIONS", "-1"),
     ("GERMLAB_MAX_PAIRS", "0")],
)
def test_env_bound_below_one_is_a_parse_error(tmp_path, monkeypatch, capsys, name, value):
    # the term and reduction bounds are only checked after a reduction
    # step, so a job that takes none would pass under a bound of -5
    path = write_job(tmp_path / "basis.json", **base_job(ideal=["x1^2 - x2^3", "x1*x2"], command="std-basis"))
    monkeypatch.setenv(name, value)
    message = f"{name} must be at least 1, got {int(value)}"
    report, code = run_job(path)
    assert code == 2
    assert report["status"] == "error"
    assert report["error"] == {"kind": "parse", "message": message}
    assert main(["run", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.strip() == message


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


JOB_ERRORS = {
    "not-an-object": ([1, 2], "must contain a JSON object"),
    "variables": (base_job(variables=["x1", "x3"]), "variables must be the list"),
    "ordering": (base_job(ordering={"weights": [1, 1], "order": "lex"}), "ordering must be"),
    "tiebreak": (base_job(ordering={"weights": [1, 1], "tiebreak": "lex"}), "tiebreak must be"),
    "parameters": (base_job(parameters=[1]), "parameters must be an object"),
    "ideal2-unused": (base_job(ideal2=["x1"]), "ideal2 is only meaningful"),
    "ideal2-missing": (base_job(command="cones-equal"), "cones-equal requires ideal2"),
    "map-missing": (base_job(command="flat-check", parameters={"seed": 1}), "requires a map"),
    "ideal-type": (base_job(ideal="x1*x2"), "ideal must be a list of polynomial strings"),
    "zero-generator": (base_job(ideal=["x1 - x1"]), "ideal[0] is the zero polynomial"),
}


@pytest.mark.parametrize("content, message", JOB_ERRORS.values(), ids=JOB_ERRORS)
def test_job_validation_errors_exit_2(tmp_path, content, message):
    path = tmp_path / "job.json"
    path.write_text(json.dumps(content), encoding="utf-8")
    report, code = run_job(path)
    assert code == 2 and report["status"] == "error"
    assert report["error"]["kind"] == "parse"
    assert message in report["error"]["message"]


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


HUGE_INT_JOB = (
    '{"variables": ["x1", "x2"], "ideal": ["x1*x2"], "command": "hs", '
    '"parameters": {"eta_max": ' + "9" * 5000 + "}}"
)


def test_oversized_integer_is_a_parse_error(tmp_path):
    path = tmp_path / "huge.json"
    path.write_text(HUGE_INT_JOB, encoding="utf-8")
    report, code = run_job(path)
    assert code == 2
    assert report["status"] == "error"
    assert report["error"]["kind"] == "parse"
    assert f"({sys.get_int_max_str_digits()} digits)" in report["error"]["message"]


def test_suite_survives_oversized_integer_job(tmp_path):
    jobs = tmp_path / "jobs"
    jobs.mkdir()
    (jobs / "a-huge.json").write_text(HUGE_INT_JOB, encoding="utf-8")
    write_job(jobs / "b-good.json", **base_job())
    out = tmp_path / "out"
    aggregate, code = run_suite(jobs, out_dir=out)
    assert code == 1
    assert aggregate["total"] == 2
    by_name = {entry["job"]: entry["exit_code"] for entry in aggregate["jobs"]}
    assert by_name == {"a-huge.json": 2, "b-good.json": 0}
    huge = json.loads((out / "a-huge.report.json").read_text(encoding="utf-8"))
    assert huge["error"]["kind"] == "parse"
    good = json.loads((out / "b-good.report.json").read_text(encoding="utf-8"))
    assert good["result"]["vertices"] == [[1, 1]]


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


HS_JOB = base_job(command="hs", parameters={"eta_max": 2})


def overflow_hs(monkeypatch):
    """Make the hs command overflow the recursion limit, as a fault would;
    nothing in germlab recurses per variable, so an overflow is a fault in
    germlab itself."""

    def deep(*args, **kwargs):
        raise RecursionError("maximum recursion depth exceeded")

    monkeypatch.setattr(cli, "hilbert_samuel", deep)


def test_recursion_overflow_is_a_resource_error(tmp_path, monkeypatch):
    overflow_hs(monkeypatch)
    report, code = run_job(write_job(tmp_path / "deep.json", **HS_JOB))
    assert code == 2
    assert report["status"] == "error"
    assert report["error"] == {
        "kind": "internal",
        "exception": "RecursionError",
        "message": "maximum recursion depth exceeded",
    }


def test_suite_survives_recursion_overflow(tmp_path, monkeypatch):
    overflow_hs(monkeypatch)
    jobs = tmp_path / "jobs"
    jobs.mkdir()
    write_job(jobs / "a-deep.json", **HS_JOB)
    write_job(jobs / "b-good.json", **base_job())
    aggregate, code = run_suite(jobs, out_dir=tmp_path / "out")
    assert code == 1
    by_name = {entry["job"]: entry["exit_code"] for entry in aggregate["jobs"]}
    assert by_name == {"a-deep.json": 2, "b-good.json": 0}
    deep = json.loads((tmp_path / "out" / "a-deep.report.json").read_text(encoding="utf-8"))
    assert deep["error"]["kind"] == "internal"
    assert deep["error"]["exception"] == "RecursionError"
    good = json.loads((tmp_path / "out" / "b-good.report.json").read_text(encoding="utf-8"))
    assert good["result"]["vertices"] == [[1, 1]]


def test_internal_error_is_an_exit_2_report(tmp_path, monkeypatch, capsys):
    real = cli._execute

    def faulty(job, limits):
        if job.command == "hs":
            raise ZeroDivisionError("division by zero")
        return real(job, limits)

    monkeypatch.setattr(cli, "_execute", faulty)
    path = write_job(tmp_path / "hs.json", **HS_JOB)
    assert main(["run", str(path)]) == 2
    captured = capsys.readouterr()
    report = json.loads(captured.out)
    assert report["status"] == "error"
    assert report["error"] == {
        "kind": "internal",
        "exception": "ZeroDivisionError",
        "message": "division by zero",
    }
    assert "Traceback" in captured.err and "ZeroDivisionError" in captured.err

    jobs = tmp_path / "jobs"
    jobs.mkdir()
    write_job(jobs / "a-faulty.json", **HS_JOB)
    write_job(jobs / "b-good.json", **base_job())
    out = tmp_path / "out"
    assert main(["suite", str(jobs), "--out", str(out)]) == 1
    aggregate = json.loads(capsys.readouterr().out)
    by_name = {entry["job"]: entry["exit_code"] for entry in aggregate["jobs"]}
    assert by_name == {"a-faulty.json": 2, "b-good.json": 0}
    faulty_report = json.loads((out / "a-faulty.report.json").read_text(encoding="utf-8"))
    assert faulty_report["error"]["kind"] == "internal"
    good = json.loads((out / "b-good.report.json").read_text(encoding="utf-8"))
    assert good["status"] == "ok" and good["result"]["vertices"] == [[1, 1]]


def test_interrupts_are_not_reported(tmp_path, monkeypatch):
    def interrupted(job, limits):
        raise KeyboardInterrupt

    monkeypatch.setattr(cli, "_execute", interrupted)
    with pytest.raises(KeyboardInterrupt):
        run_job(write_job(tmp_path / "hs.json", **HS_JOB))


def test_hs_and_dim_jobs_build_no_basis(tmp_path, monkeypatch):
    def refused(*args):
        raise AssertionError("a diagram-only job built a basis")

    monkeypatch.setattr(standard_basis, "_completion_result", refused)
    hs = write_job(
        tmp_path / "hs.json",
        **base_job(ideal=["x1^2-x2^3", "x1*x2"], command="hs", parameters={"eta_max": 4}),
    )
    report, code = run_job(hs)
    assert code == 0 and report["result"]["hs"] == [1, 3, 4, 5, 5]
    dim = write_job(
        tmp_path / "dim.json",
        **base_job(ideal=["x1^2-x2^3"], command="dim", parameters={"seed": 3}),
    )
    report, code = run_job(dim)
    assert code == 0 and report["result"]["dimension"] == 1


FRESH_MAIN = "import sys; from germlab.cli import main; sys.exit(main(sys.argv[1:]))"


def _fresh_env():
    env = dict(os.environ, COLUMNS="80")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def _in_process(argv, capsys):
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_parser_reuse_matches_fresh_processes(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "80")
    job = write_job(tmp_path / "d.json", **base_job())
    jobs = tmp_path / "jobs"
    jobs.mkdir()
    write_job(jobs / "a-bad.json", **base_job(ideal=["x1^"]))
    write_job(jobs / "b-good.json", **base_job())
    parser = cli._parser()
    out = object()  # each side writes its suite reports to its own directory
    runs = [
        (["--version"], 0),
        (["frobnicate"], 2),
        (["run"], 2),
        (["run", str(job)], 0),
        (["suite", str(jobs), "--out", out], 1),
    ]
    for argv, expected in runs:
        here = [str(tmp_path / "out-here") if a is out else a for a in argv]
        there = [str(tmp_path / "out-there") if a is out else a for a in argv]
        got = _in_process(here, capsys)
        fresh = subprocess.run(
            [sys.executable, "-c", FRESH_MAIN, *there],
            capture_output=True,
            text=True,
            env=_fresh_env(),
            timeout=120,
        )
        assert got == (fresh.returncode, fresh.stdout, fresh.stderr)
        assert got[0] == expected
    assert cli._parser() is parser
    for name in ("a-bad", "b-good"):
        here = (tmp_path / "out-here" / f"{name}.report.json").read_bytes()
        assert here == (tmp_path / "out-there" / f"{name}.report.json").read_bytes()


def test_import_builds_no_parser():
    script = textwrap.dedent(
        """
        import argparse, json
        built = []
        init = argparse.ArgumentParser.__init__
        def counting(self, *args, **kwargs):
            built.append(1)
            init(self, *args, **kwargs)
        argparse.ArgumentParser.__init__ = counting
        from germlab import cli
        counts = [len(built)]
        for _ in range(2):
            try:
                cli.main(["--version"])
            except SystemExit:
                pass
            counts.append(len(built))
        print(json.dumps(counts))
        """
    )
    fresh = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=_fresh_env(), timeout=120
    )
    assert fresh.returncode == 0, fresh.stderr
    imported, first, second = json.loads(fresh.stdout.splitlines()[-1])
    # one parser and its two subcommand parsers, built once
    assert imported == 0 and first == second == 3


DUMP_CASES = {
    "non-ascii and control characters": {
        "ünïcode ключ": "x1² ≠ ٣ \\ \"quoted\" \t\n\r\x00\x1f\x7f   😀",
        "\x01key\n": ["é", "\x08", ""],
    },
    "empty containers": {"empty dict": {}, "empty list": [], "nested": [{}, []]},
    "lists of lists": {"vertices": [[0, 2], [1, 1], [3, 0]], "deep": [[[1], [[2, [3]]]], []]},
    "big and negative ints": {"big": [2**64, 2**64 + 1, -(2**70), 10**100], "neg": -1, "zero": 0},
    "constants": {"t": True, "f": False, "none": None, "mixed": [True, 1, False, 0, None, "1"]},
    "a plain list": [1, "two", [3], {"b": 1, "a": [2]}],
}


@pytest.mark.parametrize("value", DUMP_CASES.values(), ids=DUMP_CASES)
def test_dump_is_byte_identical_to_json_dumps(value):
    assert cli._dump(value) == json.dumps(value, indent=2, sort_keys=True)


def test_dump_of_real_reports_is_byte_identical(tmp_path):
    reports = [
        run_job(write_job(tmp_path / "hs.json", **base_job(ideal=["x1^2 - x2^3", "x1*x2"], command="hs")))[0],
        run_job(write_job(tmp_path / "bad.json", **base_job(ideal=["x1²"])))[0],
        run_job(tmp_path / "missing.json")[0],
    ]
    for report in reports:
        assert cli._dump(report) == json.dumps(report, indent=2, sort_keys=True)


@pytest.mark.parametrize("value", [1.5, (1, 2), {"a": 0.0}, {"a": [1, (2,)]}, {"a": {1, 2}}])
def test_dump_rejects_other_types(value):
    with pytest.raises(TypeError):
        cli._dump(value)
