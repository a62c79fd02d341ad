"""Batch front end: job files in, deterministic JSON reports out.

One job file describes one command.  Exit codes: 0 on success, 1 on a
mathematical rejection (e.g. a non-flat map handed to determinacy-order, or
a failed oracle cross-check), 2 on parse or resource errors.  All
randomness comes from seeds in the job file, so re-running a job or a suite
reproduces its reports byte for byte.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from . import __version__
from .errors import (
    GermlabError,
    NotFlatError,
    ParseError,
    ResourceLimitError,
    UnitIdealError,
)
from .diagram import hilbert_samuel
from .experiments import (
    PerturbationSpec,
    approximation_experiment,
    determinacy_experiment,
)
from .germs import (
    MapGerm,
    analyze_germ,
    cm_certify,
    determinacy_order,
    dimension_at_origin,
    flatness_check,
    tangent_cone_ideal,
    tangent_cones_equal,
)
from .oracle import oracle_hs, oracle_staircase
from .orders import FORWARD, REVERSE, LocalOrder, PositiveLinearForm, degree_order
from .poly import format_poly
from .standard_basis import (
    DEFAULT_LIMITS,
    IdealPresentation,
    ResourceLimits,
    diagram_of_ideal,
)
from .textform import parse_poly

SCHEMA_VERSION = 1

COMMANDS = (
    "diagram",
    "std-basis",
    "hs",
    "dim",
    "cm-certify",
    "flat-check",
    "determinacy-order",
    "tangent-cone",
    "cones-equal",
    "oracle-check",
    "determinacy-exp",
    "approx-exp",
)

_TOP_FIELDS = {"variables", "ordering", "ideal", "ideal2", "map", "command", "parameters"}
_PARAM_FIELDS = {"eta_max", "mu", "l_max", "trials", "seed", "tail_degree_max", "coefficient_range"}
# smallest admissible value per bounded parameter (seed is any integer)
_PARAM_MINIMUM = {
    "eta_max": 0,
    "mu": 0,
    "l_max": 0,
    "trials": 0,
    "tail_degree_max": 0,
    "coefficient_range": 1,
}
_SEEDED = {"dim", "cm-certify", "flat-check", "determinacy-order", "determinacy-exp", "approx-exp"}
_NEEDS_MAP = {"flat-check", "determinacy-order", "determinacy-exp", "approx-exp"}


def _is_int(value) -> bool:
    """JSON integer; true and false decode to bool, a subclass of int."""
    return isinstance(value, int) and not isinstance(value, bool)


def limits_from_env() -> ResourceLimits:
    """Resource bounds, overridable through GERMLAB_MAX_* variables."""

    def get(name, default):
        raw = os.environ.get(name)
        if raw is None:
            return default
        try:
            return int(raw)
        except ValueError:
            raise ParseError(f"{name} must be an integer, got {raw!r}")

    return ResourceLimits(
        max_terms=get("GERMLAB_MAX_TERMS", DEFAULT_LIMITS.max_terms),
        max_pairs=get("GERMLAB_MAX_PAIRS", DEFAULT_LIMITS.max_pairs),
        max_reductions=get("GERMLAB_MAX_REDUCTIONS", DEFAULT_LIMITS.max_reductions),
    )


class Job:
    """Validated job file content."""

    def __init__(self, data: dict):
        if not isinstance(data, dict):
            raise ParseError("job file must contain a JSON object")
        unknown = set(data) - _TOP_FIELDS
        if unknown:
            raise ParseError(f"unknown job fields: {sorted(unknown)}")
        for required in ("variables", "command"):
            if required not in data:
                raise ParseError(f"missing job field {required!r}")

        variables = data["variables"]
        if (
            not isinstance(variables, list)
            or not variables
            or variables != [f"x{i + 1}" for i in range(len(variables))]
        ):
            raise ParseError("variables must be the list ['x1', ..., 'xn']")
        self.n = len(variables)

        command = data["command"]
        if command not in COMMANDS:
            raise ParseError(f"unknown command {command!r}")
        self.command = command

        ordering = data.get("ordering", {"weights": [1] * self.n, "tiebreak": REVERSE})
        if not isinstance(ordering, dict) or set(ordering) - {"weights", "tiebreak"}:
            raise ParseError("ordering must be {weights, tiebreak}")
        weights = ordering.get("weights", [1] * self.n)
        tiebreak = ordering.get("tiebreak", REVERSE)
        if tiebreak not in (FORWARD, REVERSE):
            raise ParseError(f"tiebreak must be 'forward' or 'reverse', got {tiebreak!r}")
        if (
            not isinstance(weights, list)
            or len(weights) != self.n
            or any(not _is_int(w) or w < 1 for w in weights)
        ):
            raise ParseError("ordering weights must be positive integers, one per variable")
        self.order = LocalOrder(PositiveLinearForm(tuple(weights)), tiebreak)

        params = data.get("parameters", {})
        if not isinstance(params, dict):
            raise ParseError("parameters must be an object")
        unknown = set(params) - _PARAM_FIELDS
        if unknown:
            raise ParseError(f"unknown parameters: {sorted(unknown)}")
        for key, value in params.items():
            if not _is_int(value):
                raise ParseError(f"parameter {key!r} must be an integer")
            low = _PARAM_MINIMUM.get(key)
            if low is not None and value < low:
                raise ParseError(f"parameter {key!r} must be >= {low}, got {value}")
        self.params = dict(params)

        if self.command in _SEEDED and "seed" not in self.params:
            raise ParseError(f"command {self.command!r} requires parameters.seed")

        self.ideal = self._parse_polys(data.get("ideal", []), "ideal")
        self.ideal2 = self._parse_polys(data.get("ideal2", []), "ideal2")
        if self.ideal2 and self.command != "cones-equal":
            raise ParseError("ideal2 is only meaningful for cones-equal")
        if self.command == "cones-equal" and not self.ideal2:
            raise ParseError("cones-equal requires ideal2")

        map_polys = self._parse_polys(data.get("map", []), "map")
        if self.command in _NEEDS_MAP:
            if not map_polys:
                raise ParseError(f"command {self.command!r} requires a map")
            for i, p in enumerate(map_polys):
                if p.constant_term():
                    raise ParseError(f"map[{i}] must vanish at the origin")
        self.map_polys = map_polys
        self.data = data

    def _parse_polys(self, entries, label):
        if not isinstance(entries, list) or any(not isinstance(s, str) for s in entries):
            raise ParseError(f"{label} must be a list of polynomial strings")
        polys = []
        for i, text in enumerate(entries):
            try:
                p = parse_poly(text, self.n)
            except ParseError as exc:
                raise ParseError(f"{label}[{i}]: {exc.reason}", exc.line, exc.column)
            if p.is_zero:
                raise ParseError(f"{label}[{i}] is the zero polynomial")
            polys.append(p)
        return polys

    def presentation(self) -> IdealPresentation:
        return IdealPresentation(self.n, self.ideal)

    def map_germ(self) -> MapGerm:
        return MapGerm(self.n, tuple(self.map_polys))

    def param(self, key, default=None):
        return self.params.get(key, default)


def _execute(job: Job, limits: ResourceLimits) -> dict:
    ideal = job.presentation()
    eta_max = job.param("eta_max", 8)
    seed = job.param("seed")
    cmd = job.command

    if cmd == "diagram":
        d = diagram_of_ideal(ideal, job.order, limits)
        return {"vertices": d.sorted_vertices()}

    if cmd == "std-basis":
        completion = ideal.completion(job.order, limits)
        return {
            "basis": [format_poly(g) for g in completion.basis],
            "certificates": [
                [format_poly(c) for c in cert] for cert in completion.certificates
            ],
        }

    if cmd == "hs":
        d = diagram_of_ideal(ideal, degree_order(job.n, job.order.tiebreak), limits)
        return {"hs": hilbert_samuel(d, eta_max).to_list()}

    if cmd == "dim":
        return dimension_at_origin(ideal, seed, limits=limits).as_dict()

    if cmd == "cm-certify":
        report = analyze_germ(ideal, seed, job.param("l_max", 6), eta_max, limits)
        return report.as_dict()

    if cmd == "flat-check":
        if "l_max" in job.params:
            cm = cm_certify(ideal, job.param("l_max"), seed, limits=limits)
            evidence = f"certified(l={cm.l})" if cm.certified else "not-certified"
        else:
            evidence = "asserted"
        verdict = flatness_check(
            ideal, job.map_germ(), seed, eta_max, cm_evidence=evidence, limits=limits
        )
        return verdict.as_dict()

    if cmd == "determinacy-order":
        return determinacy_order(ideal, job.map_germ(), seed, limits).as_dict()

    if cmd == "tangent-cone":
        return {"generators": [format_poly(g) for g in tangent_cone_ideal(ideal, limits=limits)]}

    if cmd == "cones-equal":
        other = IdealPresentation(job.n, job.ideal2)
        return {"equal": tangent_cones_equal(ideal, other, limits)}

    if cmd == "oracle-check":
        stair_engine = {
            tuple(e) for e in _staircase_points(diagram_of_ideal(ideal, job.order, limits), job.order, eta_max)
        }
        stair_oracle = oracle_staircase(ideal, job.order, eta_max)
        result = {
            "staircase_match": stair_engine == stair_oracle,
            "staircase_size": len(stair_oracle),
        }
        if all(w == 1 for w in job.order.form.weights):
            d = diagram_of_ideal(ideal, degree_order(job.n, job.order.tiebreak), limits)
            hs_engine = hilbert_samuel(d, eta_max)
            hs_oracle = oracle_hs(ideal, eta_max)
            result["hs"] = hs_engine.to_list()
            result["hs_match"] = hs_engine == hs_oracle
        else:
            result["hs_match"] = "skipped-nondegree-weights"
        return result

    spec = PerturbationSpec(
        mu=job.param("mu", 0),
        tail_degree_max=job.param("tail_degree_max", job.param("mu", 0) + 2),
        trials=job.param("trials", 0),
        rng_seed=seed,
        coefficient_range=job.param("coefficient_range", 5),
    )
    if cmd == "determinacy-exp":
        return determinacy_experiment(ideal, job.map_germ(), spec, eta_max, limits).as_dict()
    if cmd == "approx-exp":
        return approximation_experiment(ideal, job.map_germ(), spec, eta_max, limits).as_dict()
    raise AssertionError(f"unhandled command {cmd!r}")


def _staircase_points(diagram, order, eta):
    from .oracle import _weighted_box  # same enumeration, kept in one place

    return [e for e in _weighted_box(order.form, eta) if diagram.member(e)]


def _parse_failure(envelope: dict, message: str, line=None, column=None):
    """Exit-2 parse error report, with line and column only when known."""
    error = {"kind": "parse", "message": message}
    if line is not None:
        error.update(line=line, column=column)
    envelope.update(status="error", error=error)
    return envelope, 2


def run_job(path, limits: ResourceLimits | None = None):
    """Execute one job file; returns (report dict, exit code)."""
    envelope = {
        "schema_version": SCHEMA_VERSION,
        "tool": "germlab",
        "version": __version__,
    }
    if limits is None:
        try:
            limits = limits_from_env()
        except ParseError as exc:
            return _parse_failure(envelope, exc.reason)
    try:
        raw = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        envelope.update(status="error", error={"kind": "io", "message": str(exc)})
        return envelope, 2
    except UnicodeDecodeError as exc:
        return _parse_failure(
            envelope, f"job file is not UTF-8: {exc.reason} at byte {exc.start}"
        )
    try:
        data = json.loads(raw)
    except json.JSONDecodeError as exc:
        return _parse_failure(envelope, exc.msg, line=exc.lineno, column=exc.colno)
    except RecursionError:
        return _parse_failure(envelope, "job file is nested too deeply")

    try:
        job = Job(data)
    except ParseError as exc:
        return _parse_failure(envelope, exc.reason, line=exc.line, column=exc.column)

    envelope.update(command=job.command, job=job.data)
    try:
        result = _execute(job, limits)
    except (NotFlatError, UnitIdealError) as exc:
        envelope.update(status="rejected", error={"kind": "mathematical", "message": str(exc)})
        return envelope, 1
    except ResourceLimitError as exc:
        envelope.update(
            status="error",
            error={"kind": "resource", "bound": exc.bound, "limit": exc.limit},
        )
        return envelope, 2
    except ParseError as exc:
        return _parse_failure(envelope, exc.reason, line=exc.line, column=exc.column)
    except GermlabError as exc:
        envelope.update(status="error", error={"kind": "input", "message": str(exc)})
        return envelope, 2

    if job.command == "oracle-check" and not (
        result["staircase_match"] and result["hs_match"] in (True, "skipped-nondegree-weights")
    ):
        envelope.update(status="rejected", result=result)
        return envelope, 1

    envelope.update(status="ok", result=result)
    return envelope, 0


def _dump(report: dict) -> str:
    return json.dumps(report, indent=2, sort_keys=True)


def run_suite(directory, out_dir=None, limits: ResourceLimits | None = None):
    """Run every *.json job in a directory; returns (aggregate, exit code).

    Per-job reports are written next to the aggregate, keyed by job name, so
    parallel replacements of this loop cannot interleave output.
    """
    directory = Path(directory)
    if not directory.is_dir():
        return (
            {"schema_version": SCHEMA_VERSION, "status": "error", "error": {"kind": "io", "message": f"not a directory: {directory}"}},
            2,
        )
    out = Path(out_dir) if out_dir is not None else directory / "reports"
    jobs = sorted(p for p in directory.glob("*.json") if p.is_file())
    entries = []
    worst = 0
    out.mkdir(parents=True, exist_ok=True)
    for path in jobs:
        report, code = run_job(path, limits)
        (out / f"{path.stem}.report.json").write_text(_dump(report) + "\n", encoding="utf-8")
        entries.append({"job": path.name, "status": report["status"], "exit_code": code})
        worst = max(worst, 1 if code else 0)
    aggregate = {
        "schema_version": SCHEMA_VERSION,
        "tool": "germlab",
        "version": __version__,
        "jobs": entries,
        "total": len(entries),
        "passed": sum(1 for e in entries if e["exit_code"] == 0),
        "status": "ok" if worst == 0 else "failed",
    }
    return aggregate, worst


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="germlab",
        description="exact germ invariants: diagrams, standard bases, flatness, determinacy experiments",
    )
    parser.add_argument("--version", action="version", version=f"germlab {__version__}")
    sub = parser.add_subparsers(dest="mode", required=True)
    p_run = sub.add_parser("run", help="run a single job file")
    p_run.add_argument("job", help="path to a job JSON file")
    p_suite = sub.add_parser("suite", help="run every job in a directory")
    p_suite.add_argument("directory", help="directory of job JSON files")
    p_suite.add_argument("--out", help="directory for per-job reports", default=None)
    args = parser.parse_args(argv)

    try:
        limits = limits_from_env()
    except ParseError as exc:
        print(str(exc), file=sys.stderr)
        return 2

    if args.mode == "run":
        report, code = run_job(args.job, limits)
        print(_dump(report))
        return code
    report, code = run_suite(args.directory, args.out, limits)
    print(_dump(report))
    return code


if __name__ == "__main__":
    sys.exit(main())
