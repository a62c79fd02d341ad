"""Randomized perturbation experiments at fixed jet order.

Each trial adds seeded random tails above the chosen jet to the map
components (and, for the approximation experiment, to the domain generators
as well), then re-derives diagrams, Hilbert-Samuel tables, tangent cones and
the flatness verdict (from the dimension of those diagrams) and compares
them with the baseline.  The harness checks preservation of invariants over
the whole jet neighborhood; it does not construct distinguished
approximating maps, and the report header says so.  Trials are
independent, with per-trial seeds derived from (seed, trial, stream), so a
parallel schedule cannot change any outcome.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .diagram import diagrams_equal_up_to, hilbert_samuel, staircase_dimension
from .germs import MapGerm, determinacy_order, tangent_cones_equal
from .orders import REVERSE, degree_order
from .poly import Poly, format_poly
from .seeding import derive_seed, make_rng
from .standard_basis import (
    DEFAULT_LIMITS,
    IdealPresentation,
    ResourceLimits,
    diagram_of_ideal,
)

DISCLAIMER = (
    "verifies invariant preservation under random tail perturbations fixing "
    "the given jet; it does not construct distinguished approximating maps"
)


@dataclass(frozen=True)
class PerturbationSpec:
    """Jet-fixed random tails: every generated tail vanishes to order mu.

    Tails are supported on exponents with total degree between mu+1 and
    tail_degree_max, with integer coefficients drawn uniformly from
    [-coefficient_range, coefficient_range] (zero draws drop the term).
    """

    mu: int
    tail_degree_max: int
    trials: int
    rng_seed: int
    coefficient_range: int = 5

    def __post_init__(self):
        if self.mu < 0 or self.trials < 0 or self.tail_degree_max < 0:
            raise ValueError("mu, trials and tail_degree_max must be >= 0")
        if self.coefficient_range < 1:
            raise ValueError("coefficient_range must be >= 1")


def tail_candidates(n: int, spec: PerturbationSpec):
    """Admissible tail exponents, in a fixed deterministic order."""
    out = []

    def rec(i, prefix, degree_left):
        if i == n:
            exp = tuple(prefix)
            if sum(exp) >= spec.mu + 1:
                out.append(exp)
            return
        for b in range(degree_left + 1):
            prefix.append(b)
            rec(i + 1, prefix, degree_left - b)
            prefix.pop()

    rec(0, [], spec.tail_degree_max)
    return sorted(out)


def perturb(polys, spec: PerturbationSpec, trial_index: int, stream: str = ""):
    """polys plus seeded random tails; empty tails when no exponent fits."""
    if not polys:
        return []
    n = polys[0].n
    candidates = tail_candidates(n, spec)
    out = []
    for q, p in enumerate(polys):
        rng = make_rng(spec.rng_seed, trial_index, stream, q)
        tail = Poly(
            n,
            {
                exp: c
                for exp in candidates
                if (c := rng.randint(-spec.coefficient_range, spec.coefficient_range))
            },
        )
        out.append(p + tail)
    return out


@dataclass
class ExperimentReport:
    """Per-trial records plus aggregate counts; reproducible from the seed."""

    kind: str
    note: str
    parameters: dict
    guaranteed: bool
    bounds: dict
    baseline: dict
    trials: list = field(default_factory=list)
    passes: int = 0
    failures: int = 0

    @property
    def all_pass(self) -> bool:
        return self.failures == 0

    @property
    def defect(self) -> bool:
        """A failure inside the guaranteed regime falsifies the
        implementation, never the statement being exercised."""
        return self.guaranteed and self.failures > 0

    def record(self, trial: dict):
        self.trials.append(trial)
        if trial["pass"]:
            self.passes += 1
        else:
            self.failures += 1

    def as_dict(self):
        return {
            "kind": self.kind,
            "note": self.note,
            "parameters": self.parameters,
            "guaranteed": self.guaranteed,
            "bounds": self.bounds,
            "baseline": self.baseline,
            "trials": self.trials,
            "passes": self.passes,
            "failures": self.failures,
            "all_pass": self.all_pass,
            "defect": self.defect,
        }


def _spec_parameters(spec: PerturbationSpec, eta_max: int) -> dict:
    return {
        "mu": spec.mu,
        "tail_degree_max": spec.tail_degree_max,
        "trials": spec.trials,
        "seed": spec.rng_seed,
        "coefficient_range": spec.coefficient_range,
        "eta_max": eta_max,
    }


def determinacy_experiment(
    ideal: IdealPresentation,
    phi: MapGerm,
    spec: PerturbationSpec,
    eta_max: int = 8,
    limits: ResourceLimits = DEFAULT_LIMITS,
) -> ExperimentReport:
    """Perturb the map components only; the domain stays fixed.

    Per trial: flatness, fibre Hilbert-Samuel table, fibre diagram and fibre
    tangent cone must match the baseline.  With mu at or above the computed
    determinacy order every trial must pass; a failure there is reported as
    a defect, never as a counterexample.
    """
    bound = determinacy_order(ideal, phi, derive_seed(spec.rng_seed, "baseline"), limits)
    order = degree_order(ideal.n, REVERSE)
    fib0 = bound.verdict.fibre_presentation
    d0 = bound.verdict.fibre_diagram
    hs0 = hilbert_samuel(d0, eta_max)
    dom_dim = bound.verdict.domain_dimension
    expected = dom_dim - phi.m
    guaranteed = spec.mu >= bound.mu0

    report = ExperimentReport(
        kind="determinacy",
        note=DISCLAIMER,
        parameters=_spec_parameters(spec, eta_max),
        guaranteed=guaranteed,
        bounds={"mu0": bound.mu0},
        baseline={
            "fibre_vertices": d0.sorted_vertices(),
            "fibre_hs": hs0.to_list(),
            "domain_dimension": dom_dim,
            "expected_fibre_dimension": expected,
        },
    )
    for t in range(spec.trials):
        psi = perturb(list(phi.components), spec, t, stream="map")
        fib_t = ideal.extended(psi)
        d_t = diagram_of_ideal(fib_t, order, limits)
        checks = {
            "flat": staircase_dimension(d_t) == expected,
            "fibre_hs_equal": hilbert_samuel(d_t, eta_max) == hs0,
            "fibre_diagram_equal": d_t == d0,
            "fibre_cones_equal": tangent_cones_equal(fib0, fib_t, limits),
        }
        report.record(
            {
                "trial": t,
                "map": [format_poly(p) for p in psi],
                "checks": checks,
                "diagram_contains_original": d_t.contains(d0),
                "diagram_agrees_up_to_mu": diagrams_equal_up_to(
                    d_t, d0, order.form, spec.mu
                ),
                "pass": all(checks.values()),
            }
        )
    return report


def approximation_experiment(
    ideal: IdealPresentation,
    phi: MapGerm,
    spec: PerturbationSpec,
    eta_max: int = 8,
    limits: ResourceLimits = DEFAULT_LIMITS,
) -> ExperimentReport:
    """Perturb both the domain generators and the map components.

    Per trial: the domain and fibre Hilbert-Samuel tables, diagrams and
    tangent cones must match the baseline, and the perturbed map must stay
    flat on the perturbed domain.  The guarantee applies once mu exceeds the
    staircase vertex bounds of both the domain and the fibre; below that the
    outcomes are recorded as observations without assertion.
    """
    order = degree_order(ideal.n, REVERSE)
    base_flat = determinacy_order(ideal, phi, derive_seed(spec.rng_seed, "baseline"), limits)
    d_dom0 = diagram_of_ideal(ideal, order, limits)
    hs_dom0 = hilbert_samuel(d_dom0, eta_max)
    fib0 = base_flat.verdict.fibre_presentation
    d_fib0 = base_flat.verdict.fibre_diagram
    hs_fib0 = hilbert_samuel(d_fib0, eta_max)
    bound_dom = d_dom0.max_vertex_weight()
    bound_fib = d_fib0.max_vertex_weight()
    guaranteed = spec.mu > max(bound_dom, bound_fib)

    report = ExperimentReport(
        kind="approximation",
        note=DISCLAIMER,
        parameters=_spec_parameters(spec, eta_max),
        guaranteed=guaranteed,
        bounds={
            "domain_vertex_bound": bound_dom,
            "fibre_vertex_bound": bound_fib,
            "mu0": base_flat.mu0,
        },
        baseline={
            "domain_vertices": d_dom0.sorted_vertices(),
            "domain_hs": hs_dom0.to_list(),
            "fibre_vertices": d_fib0.sorted_vertices(),
            "fibre_hs": hs_fib0.to_list(),
            "domain_dimension": base_flat.verdict.domain_dimension,
        },
    )
    m = phi.m
    for t in range(spec.trials):
        gens_t = perturb(list(ideal.generators), spec, t, stream="domain")
        psi = perturb(list(phi.components), spec, t, stream="map")
        dom_t = IdealPresentation(ideal.n, gens_t)
        fib_t = dom_t.extended(psi)
        d_dom_t = diagram_of_ideal(dom_t, order, limits)
        d_fib_t = diagram_of_ideal(fib_t, order, limits)
        checks = {
            "domain_hs_equal": hilbert_samuel(d_dom_t, eta_max) == hs_dom0,
            "domain_diagram_equal": d_dom_t == d_dom0,
            "domain_cones_equal": tangent_cones_equal(ideal, dom_t, limits),
            "fibre_hs_equal": hilbert_samuel(d_fib_t, eta_max) == hs_fib0,
            "fibre_diagram_equal": d_fib_t == d_fib0,
            "fibre_cones_equal": tangent_cones_equal(fib0, fib_t, limits),
            "flat": staircase_dimension(d_fib_t) == staircase_dimension(d_dom_t) - m,
        }
        report.record(
            {
                "trial": t,
                "generators": [format_poly(p) for p in gens_t],
                "map": [format_poly(p) for p in psi],
                "checks": checks,
                "pass": all(checks.values()),
            }
        )
    return report
