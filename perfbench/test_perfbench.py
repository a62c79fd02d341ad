"""The benchmark's own checks: every correctness gate fires, counters repeat.

Runs on a few items per workload, so it takes seconds:

    python3 -m pytest -q perfbench/test_perfbench.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run as bench  # noqa: E402

bench.import_program()

import germlab  # noqa: E402
import workloads as w  # noqa: E402
from tracing import Tracer  # noqa: E402

SMALL = {
    "corpus-verify": {"count": 6},
    "perturbed-swell": {"count": 6},
    "job-suite": {"per_command": 2},
}
REPEATED_COUNTERS = [
    "standard_basis.completion.calls",
    "standard_basis.completion.computed",
    "standard_basis.completion.basis_per_vertex",
    "standard_basis.completion.peak_coeff_bits",
    "germs.dimension_at_origin.trials",
    "oracle.truncated_echelon.columns",
    "oracle.truncated_echelon.rank",
]


def small_run(name, tmp_path, seed=3, recorded=None):
    """One checked pass over a few items; returns the checker."""
    workload = bench.Workload(name, SMALL[name])
    items = workload.setup(seed, tmp_path)
    checker = bench.Checker(workload, seed, len(items))
    assert checker.recorded is None  # recorded digests are for full-size runs
    if recorded is not None:
        checker.recorded = recorded
    bench.one_pass(workload, items, checker)
    return checker


@pytest.fixture
def small_config(monkeypatch):
    """run.main on a few items, with one set-up child."""
    config = bench.load_config()
    for name, params in SMALL.items():
        config["workloads"][name]["params"] = params
    monkeypatch.setattr(bench, "load_config", lambda: config)
    monkeypatch.setattr(bench, "SETUP_REPEATS", 1)
    monkeypatch.setattr(bench, "setup_seconds", lambda args: 0.5)


def last_json(capsys):
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


@pytest.mark.parametrize("name", sorted(SMALL))
def test_clean_pass_has_no_failures(name, tmp_path):
    checker = small_run(name, tmp_path)
    assert checker.failures == []


def test_inputs_are_a_function_of_the_seed(tmp_path):
    a = bench.Workload("job-suite", SMALL["job-suite"]).setup(5, tmp_path / "a")
    b = bench.Workload("job-suite", SMALL["job-suite"]).setup(5, tmp_path / "b")
    c = bench.Workload("job-suite", SMALL["job-suite"]).setup(6, tmp_path / "c")
    assert [i.data for i, _ in a] == [i.data for i, _ in b]
    assert [i.data for i, _ in a] != [i.data for i, _ in c]
    assert w.swell_items(5, 4) == w.swell_items(5, 4)


def test_tampered_diagram_fails(monkeypatch, tmp_path):
    real = germlab.diagram_of_ideal

    def shifted(ideal, order, *rest):
        d = real(ideal, order, *rest)
        v = d.sorted_vertices()[0]
        moved = (v[0] + 1,) + tuple(v[1:])
        return germlab.vertices_from_exponents((d.vertices - {tuple(v)}) | {moved}, d.n)

    monkeypatch.setattr(germlab, "diagram_of_ideal", shifted)
    for name in ("corpus-verify", "perturbed-swell"):
        checker = small_run(name, tmp_path / name)
        assert checker.failures, name
        assert any("staircase" in p for _, ps in checker.failures for p in ps)


def test_tampered_hs_table_fails_and_exits_nonzero(monkeypatch, capsys, small_config):
    real = germlab.hilbert_samuel

    def bumped(d, eta_max):
        table = real(d, eta_max)
        return germlab.HilbertSamuelTable((table.values[0] + 1,) + table.values[1:])

    monkeypatch.setattr(germlab, "hilbert_samuel", bumped)
    code = bench.main(["--workload", "corpus-verify", "--seed", "2", "--seconds", "0.1"])
    result = last_json(capsys)
    assert code == 1
    assert result["correct"] is False and result["failed"] == result["attempted"] > 0


def test_tampered_certificate_fails(monkeypatch, tmp_path):
    real = germlab.IdealPresentation.completion

    def doubled(self, order, *rest, **kwargs):
        result = real(self, order, *rest, **kwargs)
        if result.certificates is None:
            return result
        certs = [tuple(c.scale(2) for c in cert) for cert in result.certificates]
        return type(result)(result.basis, tuple(certs))

    monkeypatch.setattr(germlab.IdealPresentation, "completion", doubled)
    checker = small_run("corpus-verify", tmp_path)
    assert checker.failures
    assert all(any(p.startswith("certificate") for p in ps) for _, ps in checker.failures)


def test_unexpected_exit_code_fails(monkeypatch, tmp_path):
    real = germlab.cli.run_job

    def refused(path, limits=None):
        report, code = real(path, limits)
        return report, 2 if code == 0 else code

    monkeypatch.setattr(germlab.cli, "run_job", refused)
    workload = bench.Workload("job-suite", SMALL["job-suite"])
    items = workload.setup(3, tmp_path)
    checker = bench.Checker(workload, 3, len(items))
    bench.one_pass(workload, items, checker)
    assert sorted(index for index, _ in checker.failures) == [
        index for index, (item, _) in enumerate(items) if item.expect == 0
    ]
    assert all(ps[0] == "exit 2, expected 0" for _, ps in checker.failures)


def test_recorded_digest_mismatch_fails(tmp_path):
    clean = small_run("perturbed-swell", tmp_path / "clean")
    digests = "".join(clean.first[i] for i in range(SMALL["perturbed-swell"]["count"]))
    ok = small_run("perturbed-swell", tmp_path / "ok", recorded=digests)
    assert ok.failures == [] and ok.checked == len(clean.first)
    flipped = ("0" if digests[0] != "0" else "1") + digests[1:]
    bad = small_run("perturbed-swell", tmp_path / "bad", recorded=flipped)
    assert [index for index, _ in bad.failures] == [0]


def test_raising_item_fails(monkeypatch, tmp_path):
    def broken(*args, **kwargs):
        raise germlab.ResourceLimitError("max_pairs", 1)

    monkeypatch.setattr(germlab, "becker_check", broken)
    checker = small_run("corpus-verify", tmp_path)
    assert len(checker.failures) == SMALL["corpus-verify"]["count"]


@pytest.mark.parametrize("name", sorted(SMALL))
def test_work_counters_repeat_exactly(name, tmp_path):
    seen = []
    for attempt in range(2):
        workload = bench.Workload(name, SMALL[name])
        items = workload.setup(4, tmp_path / str(attempt))
        tracer = Tracer()
        tracer.install()
        try:
            bench.one_pass(workload, items, bench.Checker(workload, 4, len(items)), tracer)
        finally:
            tracer.uninstall()
        metrics = tracer.layer_metrics(0.0, 0.0)
        seen.append({k: metrics[k]["value"] for k in REPEATED_COUNTERS})
    assert seen[0] == seen[1]
    assert seen[0]["standard_basis.completion.calls"] > 0


def test_tracer_restores_every_binding():
    before = {
        (m.__name__, k): v
        for m in (germlab, germlab.cli, germlab.germs, germlab.standard_basis)
        for k, v in vars(m).items()
        if callable(v)
    }
    completion = germlab.IdealPresentation.completion
    tracer = Tracer()
    tracer.install()
    assert germlab.germs.dimension_at_origin is not before[("germlab.germs", "dimension_at_origin")]
    tracer.uninstall()
    after = {
        (m.__name__, k): v
        for m in (germlab, germlab.cli, germlab.germs, germlab.standard_basis)
        for k, v in vars(m).items()
        if callable(v)
    }
    assert after == before
    assert germlab.IdealPresentation.completion is completion


def test_trace_run_reports_every_layer_metric(capsys, small_config):
    declared = json.loads((HERE.parent / "BENCHMARK.json").read_text())["per_layer"]
    code = bench.main(["--workload", "job-suite", "--seed", "1", "--trace", "1"])
    result = last_json(capsys)
    assert code == 0 and result["correct"]
    assert sorted(result["metrics"]) == sorted(m["name"] for m in declared)
    units = {m["name"]: m["unit"] for m in declared}
    assert all(v["unit"] == units[k] for k, v in result["metrics"].items())


def test_untraced_run_reports_every_end_to_end_metric(capsys, small_config):
    declared = json.loads((HERE.parent / "BENCHMARK.json").read_text())["end_to_end"]
    code = bench.main(["--workload", "perturbed-swell", "--seed", "1", "--seconds", "0.2"])
    result = last_json(capsys)
    assert code == 0 and result["correct"] and result["failed"] == 0
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("_work", "__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "job-suite", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
