"""Per-layer spans recorded from outside the program.

``Tracer.install`` rebinds each public layer function listed in ``_layers``
in every loaded ``germlab`` module that holds it (and patches
``IdealPresentation.completion`` on the class), so internal calls between
modules are seen too.  A span is ``[name, start, end, parent]`` with times
from ``time.perf_counter``; spans stay in memory and are dumped once.
Self time is a span's duration minus the durations of its direct children.
Work counters are read off each call's arguments and result, after the
span has closed.
"""

from __future__ import annotations

import functools
import json
import sys
import time
import weakref
from collections import defaultdict

import germlab
from germlab import cli, diagram, experiments, germs, oracle, poly, standard_basis, textform


def _coeff_bits(basis) -> int:
    return max(
        (max(c.numerator.bit_length(), c.denominator.bit_length())
         for p in basis for _, c in p.items()),
        default=0,
    )


class Tracer:
    def __init__(self):
        self.spans = []
        self.counts = defaultdict(int)
        self._stack = []
        self._patches = []
        self._seen_completions = {}
        self.paused = False

    # -- counters, one per traced function ---------------------------------

    def _completion(self, result, args, kwargs):
        ideal = args[0]
        order = args[1] if len(args) > 1 else kwargs["order"]
        ref = self._seen_completions.get(id(result))
        if ref is not None and ref() is result:
            return
        self._seen_completions[id(result)] = weakref.ref(result)
        c = self.counts
        c["standard_basis.completion.computed"] += 1
        c["standard_basis.completion.basis_elements"] += len(result.basis)
        d = germlab.vertices_from_exponents(
            [germlab.initial_exponent(g, order) for g in result.basis], ideal.n
        )
        c["standard_basis.completion.vertices"] += len(d.vertices)
        c["standard_basis.completion.peak_coeff_bits"] = max(
            c["standard_basis.completion.peak_coeff_bits"], _coeff_bits(result.basis)
        )

    def _becker(self, result, args, kwargs):
        self.counts["standard_basis.becker_check.pairs"] += len(result.representations) + (
            result.failure is not None
        )

    def _wnf(self, result, args, kwargs):
        self.counts["standard_basis.weak_normal_form.zero_remainders"] += result.remainder.is_zero

    def _echelon(self, result, args, kwargs):
        self.counts["oracle.truncated_echelon.columns"] += len(result.basis.monomials)
        self.counts["oracle.truncated_echelon.rank"] += result.rank

    def _dimension(self, result, args, kwargs):
        self.counts["germs.dimension_at_origin.trials"] += result.trials

    def _cm(self, result, args, kwargs):
        n = args[0].n
        if 0 < result.k < n:
            self.counts["germs.cm_certify.l_scanned"] += (
                result.l if result.certified else result.l_max
            )

    def _linear_change(self, result, args, kwargs):
        self.counts["poly.apply_linear_change.terms_out"] += len(result)

    def _experiment(self, result, args, kwargs):
        self.counts["experiments.trials"] += len(result.trials)

    def _run_job(self, result, args, kwargs):
        report, _ = result
        self.counts["cli.run_job.report_bytes"] += len(
            json.dumps(report, indent=2, sort_keys=True)
        ) + 1

    # -- install / uninstall -----------------------------------------------

    def _layers(self):
        """(home module, attribute, span name, counter) per traced function."""
        return [
            (standard_basis, "becker_check", "standard_basis.becker_check", self._becker),
            (standard_basis, "weak_normal_form", "standard_basis.weak_normal_form", self._wnf),
            (oracle, "truncated_echelon", "oracle.truncated_echelon", self._echelon),
            (diagram, "complement_count", "diagram.complement_count", None),
            (germs, "dimension_at_origin", "germs.dimension_at_origin", self._dimension),
            (germs, "tangent_cones_equal", "germs.tangent_cones_equal", None),
            (germs, "cm_certify", "germs.cm_certify", self._cm),
            (poly, "apply_linear_change", "poly.apply_linear_change", self._linear_change),
            (experiments, "perturb", "experiments.perturb", None),
            (experiments, "determinacy_experiment", "experiments", self._experiment),
            (experiments, "approximation_experiment", "experiments", self._experiment),
            (cli, "run_job", "cli.run_job", self._run_job),
            (textform, "parse_poly", "textform.parse_poly", None),
        ]

    def _wrap(self, name, fn, counter):
        spans, stack, counts = self.spans, self._stack, self.counts
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.paused:
                return fn(*args, **kwargs)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            counts[name + ".calls"] += 1
            if counter is not None:
                counter(result, args, kwargs)
            return result

        return traced

    def install(self):
        modules = [m for k, m in sys.modules.items() if k == "germlab" or k.startswith("germlab.")]
        for home, attr, name, counter in self._layers():
            original = getattr(home, attr)
            traced = self._wrap(name, original, counter)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patches.append((module, key, value))
                        setattr(module, key, traced)
        cls = standard_basis.IdealPresentation
        self._patches.append((cls, "completion", cls.completion))
        cls.completion = self._wrap(
            "standard_basis.completion", cls.completion, self._completion
        )

    def uninstall(self):
        for owner, key, value in reversed(self._patches):
            setattr(owner, key, value)
        self._patches.clear()

    # -- results -----------------------------------------------------------

    def self_times(self):
        """{span name: total self seconds}."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = defaultdict(float)
        for (name, start, end, _), covered in zip(self.spans, child):
            out[name] += end - start - covered
        return out

    def fallbacks(self) -> int:
        """Division fallbacks: weak_normal_form spans directly under becker_check."""
        spans = self.spans
        return sum(
            1
            for name, _, _, parent in spans
            if name == "standard_basis.weak_normal_form"
            and parent >= 0
            and spans[parent][0] == "standard_basis.becker_check"
        )

    def layer_metrics(self, traced_s: float, overhead_s: float) -> dict:
        c = self.counts
        self_s = self.self_times()
        calls = c["standard_basis.completion.calls"]
        computed = c["standard_basis.completion.computed"]
        vertices = c["standard_basis.completion.vertices"]
        m = {
            "standard_basis.completion.calls": (calls, "count"),
            "standard_basis.completion.computed": (computed, "count"),
            "standard_basis.completion.cache_hit_ratio": (
                (calls - computed) / calls if calls else 0.0, "ratio"),
            "standard_basis.completion.self_s": (self_s["standard_basis.completion"], "s"),
            "standard_basis.completion.basis_per_vertex": (
                c["standard_basis.completion.basis_elements"] / vertices if vertices else 0.0,
                "ratio"),
            "standard_basis.completion.peak_coeff_bits": (
                c["standard_basis.completion.peak_coeff_bits"], "bits"),
            "standard_basis.becker_check.fallbacks": (self.fallbacks(), "count"),
        }
        for name, unit in COUNTERS:
            m[name] = (c[name], unit)
        for name in SELF_TIMED:
            m[name + ".self_s"] = (self_s[name], "s")
        m["trace.traced_s"] = (traced_s, "s")
        m["trace.overhead_s"] = (overhead_s, "s")
        return {k: {"value": v, "unit": u} for k, (v, u) in sorted(m.items())}

    def dump(self, path):
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "fields": ["name", "start_s", "end_s", "parent"],
                    "spans": [[n, round(s - t0, 9), round(e - t0, 9), p]
                              for n, s, e, p in self.spans],
                },
                fh,
                separators=(",", ":"),
            )


COUNTERS = [
    ("standard_basis.becker_check.calls", "count"),
    ("standard_basis.becker_check.pairs", "count"),
    ("standard_basis.weak_normal_form.calls", "count"),
    ("standard_basis.weak_normal_form.zero_remainders", "count"),
    ("oracle.truncated_echelon.calls", "count"),
    ("oracle.truncated_echelon.columns", "count"),
    ("oracle.truncated_echelon.rank", "count"),
    ("diagram.complement_count.calls", "count"),
    ("germs.dimension_at_origin.calls", "count"),
    ("germs.dimension_at_origin.trials", "count"),
    ("germs.tangent_cones_equal.calls", "count"),
    ("germs.cm_certify.calls", "count"),
    ("germs.cm_certify.l_scanned", "count"),
    ("poly.apply_linear_change.calls", "count"),
    ("poly.apply_linear_change.terms_out", "count"),
    ("experiments.perturb.calls", "count"),
    ("experiments.trials", "count"),
    ("cli.run_job.calls", "count"),
    ("cli.run_job.report_bytes", "bytes"),
    ("textform.parse_poly.calls", "count"),
]

SELF_TIMED = [
    "standard_basis.becker_check",
    "standard_basis.weak_normal_form",
    "oracle.truncated_echelon",
    "diagram.complement_count",
    "germs.dimension_at_origin",
    "germs.tangent_cones_equal",
    "poly.apply_linear_change",
    "experiments.perturb",
    "experiments",
    "cli.run_job",
    "textform.parse_poly",
]
