"""Germ-level verdicts: dimension, Cohen-Macaulay certificates, flatness,
effective determinacy bounds and tangent cones.

Genericity of linear coordinate changes is realized by seeded random
integer matrices with a stabilization protocol: the verdict must survive a
configured number of consecutive independent samples without improving.
Every verdict records the witness matrix and the seed, so it can be
re-checked deterministically.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .diagram import (
    Diagram,
    HilbertSamuelTable,
    axis_vertex_prefix,
    hilbert_samuel,
    product_structure,
)
from .errors import DimensionMismatchError, NotFlatError, UnitIdealError
from .orders import REVERSE, LocalOrder, PositiveLinearForm, degree_order
from .poly import Poly, apply_linear_change, exact_det, initial_form
from .seeding import derive_seed, make_rng
from .standard_basis import (
    DEFAULT_LIMITS,
    IdealPresentation,
    ResourceLimits,
    diagram_of_ideal,
    is_proper,
    weak_normal_form,
)


@dataclass(frozen=True)
class MapGerm:
    """Tuple of polynomials vanishing at the origin: the map germ X -> K^m."""

    n: int
    components: tuple

    def __post_init__(self):
        if not self.components:
            raise ValueError("a map germ needs at least one component")
        comps = tuple(self.components)
        for c in comps:
            if not isinstance(c, Poly) or c.n != self.n:
                raise DimensionMismatchError(
                    "map component on the wrong ambient variable count"
                )
            if c.constant_term():
                raise ValueError("map components must vanish at the origin")
        object.__setattr__(self, "components", comps)

    @property
    def m(self) -> int:
        return len(self.components)


def _identity(n: int):
    return tuple(tuple(int(i == j) for j in range(n)) for i in range(n))


def _binomial(a: int, b: int) -> int:
    out = 1
    for i in range(b):
        out = out * (a - i) // (i + 1)
    return out


def _fixed_changes(n: int):
    """Deterministic strong candidates tried before random sampling.

    The Pascal matrix is totally positive (every minor is nonzero), which
    makes it escape the coefficient-vanishing loci of desk-scale inputs
    almost always; a column-scaled variant backs it up.
    """
    pascal = tuple(
        tuple(_binomial(i + j, i) for j in range(n)) for i in range(n)
    )
    scaled = tuple(
        tuple(_binomial(i + j, i) * (j + 1) for j in range(n)) for i in range(n)
    )
    return [_identity(n), pascal, scaled]


def _random_invertible(rng, n: int, radius: int):
    while True:
        m = tuple(
            tuple(rng.randint(-radius, radius) for _ in range(n)) for _ in range(n)
        )
        if exact_det(m):
            return m


def _changed_ideal(ideal: IdealPresentation, matrix) -> IdealPresentation:
    return IdealPresentation(
        ideal.n, [apply_linear_change(g, matrix) for g in ideal.generators]
    )


@dataclass(frozen=True)
class DimensionResult:
    """Output of the randomized dimension protocol.

    ``dim`` is exact once ``stabilized`` is true; otherwise it is only an
    upper bound (some generic change might still expose more axis vertices).
    """

    dim: int
    axis_count: int
    change: tuple
    diagram: Diagram
    stabilized: bool
    trials: int
    seed: int

    def as_dict(self):
        return {
            "dimension": self.dim,
            "axis_vertices": self.axis_count,
            "change": [list(row) for row in self.change],
            "diagram": self.diagram.sorted_vertices(),
            "stabilized": self.stabilized,
            "trials": self.trials,
            "seed": self.seed,
        }


def dimension_at_origin(
    ideal: IdealPresentation,
    rng_seed: int,
    max_trials: int = 60,
    stable_runs: int = 6,
    limits: ResourceLimits = DEFAULT_LIMITS,
) -> DimensionResult:
    """dim K{x}/I as n minus the best consecutive-axis vertex count seen.

    The identity and two fixed totally-positive matrices go first, then
    random invertible integer matrices from a growing entry range.  A
    vertex on each of the first k axes certifies dim <= n-k for any
    witness, and a generic change achieves the maximum, so the best k over
    trials converges from below; the verdict is accepted once k reaches n
    or survives ``stable_runs`` consecutive random trials unimproved.
    """
    order = degree_order(ideal.n, REVERSE)
    if not is_proper(ideal, order, limits):
        raise UnitIdealError("dimension of the unit ideal is undefined")
    n = ideal.n
    rng = make_rng(rng_seed, "dimension-at-origin")
    fixed = _fixed_changes(n)
    best_k = -1
    best = None
    since_improved = 0
    trials = 0
    for trial in range(max_trials):
        trials = trial + 1
        if trial == 0:
            matrix = fixed[0]
            d = diagram_of_ideal(ideal, order, limits)
        else:
            if trial < len(fixed):
                matrix = fixed[trial]
            else:
                matrix = _random_invertible(rng, n, 2 + (trial - len(fixed)) // 2)
            d = diagram_of_ideal(_changed_ideal(ideal, matrix), order, limits)
        k = axis_vertex_prefix(d)
        if k > best_k:
            best_k, best = k, (matrix, d)
            since_improved = 0
        elif trial >= len(fixed):
            since_improved += 1
        if best_k == n:
            break
        if since_improved >= stable_runs:
            break
    stabilized = best_k == n or since_improved >= stable_runs
    matrix, d = best
    return DimensionResult(
        n - best_k, best_k, matrix, d, stabilized, trials, rng_seed
    )


@dataclass(frozen=True)
class CmCertificate:
    """Semi-decision for Cohen-Macaulayness via staircase product structure.

    ``certified`` means: for the witness coordinates and the weight vector
    (1,..,1,l,..,l) the staircase splits as D x N^(n-k), which certifies
    flatness over the last n-k variables and hence CM.  ``not-certified``
    is not a refutation; the certifying l may simply exceed l_max.
    """

    status: str
    l: int | None
    l_max: int
    k: int
    dimension: DimensionResult
    factor: tuple | None

    @property
    def certified(self) -> bool:
        return self.status == "certified"

    def as_dict(self):
        return {
            "status": self.status,
            "l": self.l,
            "l_max": self.l_max,
            "codimension": self.k,
            "factor": [list(v) for v in self.factor] if self.factor is not None else None,
            "dimension": self.dimension.as_dict(),
        }


def cm_certify(
    ideal: IdealPresentation,
    l_max: int,
    rng_seed: int,
    dimension: DimensionResult | None = None,
    limits: ResourceLimits = DEFAULT_LIMITS,
) -> CmCertificate:
    """Search l = 1..l_max for a product-shaped staircase in the witness
    coordinates of the dimension run."""
    if dimension is None:
        dimension = dimension_at_origin(ideal, rng_seed, limits=limits)
    n = ideal.n
    k = n - dimension.dim
    if k == 0 or k == n:
        # Free and Artinian quotients respectively; both trivially CM.
        factor = () if k == 0 else tuple(sorted(dimension.diagram.vertices))
        return CmCertificate("certified", 1, l_max, k, dimension, factor)
    changed = _changed_ideal(ideal, dimension.change)
    for l in range(1, l_max + 1):
        form = PositiveLinearForm((1,) * k + (l,) * (n - k))
        d = diagram_of_ideal(changed, LocalOrder(form, REVERSE), limits)
        factor = product_structure(d, k)
        if factor is not None:
            return CmCertificate("certified", l, l_max, k, dimension, tuple(factor))
    return CmCertificate("not-certified", None, l_max, k, dimension, None)


@dataclass(frozen=True)
class FlatnessVerdict:
    """Dimension-route flatness verdict, valid under the CM hypothesis on
    the domain; ``cm_evidence`` records whether CM was certified or merely
    asserted by the caller."""

    flat: bool
    fibre_dimension: int
    expected: int
    domain_dimension: int
    fibre_diagram: Diagram
    fibre_hs: HilbertSamuelTable
    cm_evidence: str
    seed: int
    domain_result: DimensionResult
    fibre_result: DimensionResult
    # the fibre ideal whose completions produced the verdict, for callers
    # that go on working with the same fibre; not part of the report
    fibre_presentation: IdealPresentation = field(compare=False, repr=False)

    def as_dict(self):
        return {
            "flat": self.flat,
            "fibre_dimension": self.fibre_dimension,
            "expected_fibre_dimension": self.expected,
            "domain_dimension": self.domain_dimension,
            "fibre_vertices": self.fibre_diagram.sorted_vertices(),
            "fibre_hs": self.fibre_hs.to_list(),
            "cm_evidence": self.cm_evidence,
            "seed": self.seed,
            "domain": self.domain_result.as_dict(),
            "fibre": self.fibre_result.as_dict(),
        }


def fibre_ideal(ideal: IdealPresentation, phi: MapGerm) -> IdealPresentation:
    """Special fibre ideal I + (phi_1, ..., phi_m)."""
    if phi.n != ideal.n:
        raise DimensionMismatchError("map and ideal on different ambient sizes")
    return ideal.extended(phi.components)


def flatness_check(
    ideal: IdealPresentation,
    phi: MapGerm,
    rng_seed: int,
    eta_max: int = 8,
    cm_evidence: str = "asserted",
    limits: ResourceLimits = DEFAULT_LIMITS,
) -> FlatnessVerdict:
    """Flat iff dim of the special fibre drops by exactly m.

    The fibre diagram and Hilbert-Samuel table are reported in the original
    coordinates (the degree order with reverse tie-break).
    """
    dom = dimension_at_origin(ideal, derive_seed(rng_seed, "flat-domain"), limits=limits)
    fib_ideal = fibre_ideal(ideal, phi)
    fib = dimension_at_origin(fib_ideal, derive_seed(rng_seed, "flat-fibre"), limits=limits)
    expected = dom.dim - phi.m
    order = degree_order(ideal.n, REVERSE)
    d = diagram_of_ideal(fib_ideal, order, limits)
    return FlatnessVerdict(
        flat=fib.dim == expected,
        fibre_dimension=fib.dim,
        expected=expected,
        domain_dimension=dom.dim,
        fibre_diagram=d,
        fibre_hs=hilbert_samuel(d, eta_max),
        cm_evidence=cm_evidence,
        seed=rng_seed,
        domain_result=dom,
        fibre_result=fib,
        fibre_presentation=fib_ideal,
    )


@dataclass(frozen=True)
class DeterminacyBound:
    """Effective jet order: every map agreeing with phi to this order is
    flat as well.  Computed from the fibre staircase vertices in the
    stabilized witness coordinates."""

    mu0: int
    fibre_vertices: tuple
    change: tuple
    verdict: FlatnessVerdict

    def as_dict(self):
        return {
            "mu0": self.mu0,
            "witness_fibre_vertices": [list(v) for v in self.fibre_vertices],
            "change": [list(row) for row in self.change],
            "flatness": self.verdict.as_dict(),
        }


def determinacy_order(
    ideal: IdealPresentation,
    phi: MapGerm,
    rng_seed: int,
    limits: ResourceLimits = DEFAULT_LIMITS,
) -> DeterminacyBound:
    """max total degree over the witness fibre staircase vertices."""
    verdict = flatness_check(ideal, phi, rng_seed, limits=limits)
    if not verdict.flat:
        raise NotFlatError("determinacy order is defined only for flat maps")
    witness = verdict.fibre_result
    vertices = tuple(sorted(witness.diagram.vertices))
    mu0 = max(sum(v) for v in vertices)
    return DeterminacyBound(mu0, vertices, witness.change, verdict)


def tangent_cone_ideal(
    ideal: IdealPresentation,
    order: LocalOrder | None = None,
    limits: ResourceLimits = DEFAULT_LIMITS,
):
    """Generators of the initial-form ideal: initial forms of a completed
    standard basis, scaled monic on their initial coefficient."""
    if order is None:
        order = degree_order(ideal.n, REVERSE)
    if not is_proper(ideal, order, limits):
        raise UnitIdealError("tangent cone of the unit ideal is undefined")
    basis = ideal.completion(order, limits, certificates=False).basis
    out = []
    for g in basis:
        form = initial_form(g)
        exp = min(form.exponents(), key=order.key)
        form = form.scale(1 / form.coeff(exp))
        if form not in out:
            out.append(form)
    return out


def tangent_cones_equal(
    ideal_a: IdealPresentation,
    ideal_b: IdealPresentation,
    limits: ResourceLimits = DEFAULT_LIMITS,
) -> bool:
    """Equal diagrams plus one-sided containment of the initial-form ideals.

    For the degree order the initial forms of a standard basis are a
    standard basis of the tangent cone, so each cone has the diagram of its
    ideal and no cone needs completing.  Two homogeneous ideals with equal
    diagrams, one contained in the other, are equal; containment is checked
    by dividing cone b's generators by cone a's, which homogeneous input
    (ecart 0) lets run without units.
    """
    if ideal_a.n != ideal_b.n:
        raise DimensionMismatchError("ideals on different ambient sizes")
    order = degree_order(ideal_a.n, REVERSE)
    gens_a = tangent_cone_ideal(ideal_a, order, limits)
    gens_b = tangent_cone_ideal(ideal_b, order, limits)
    if diagram_of_ideal(ideal_a, order, limits) != diagram_of_ideal(ideal_b, order, limits):
        return False
    return all(
        weak_normal_form(g, gens_a, order, limits, certificates=False).remainder.is_zero
        for g in gens_b
    )


@dataclass(frozen=True)
class GermReport:
    """Bundle of the germ invariants for reporting."""

    dimension: int
    cm: CmCertificate
    diagram: Diagram
    hs: HilbertSamuelTable
    coordinate_change: tuple
    rng_seed: int

    def as_dict(self):
        return {
            "dimension": self.dimension,
            "cm": self.cm.as_dict(),
            "diagram": self.diagram.sorted_vertices(),
            "hs": self.hs.to_list(),
            "coordinate_change": [list(row) for row in self.coordinate_change],
            "seed": self.rng_seed,
        }


def analyze_germ(
    ideal: IdealPresentation,
    rng_seed: int,
    l_max: int = 6,
    eta_max: int = 8,
    limits: ResourceLimits = DEFAULT_LIMITS,
) -> GermReport:
    dim = dimension_at_origin(ideal, rng_seed, limits=limits)
    cm = cm_certify(ideal, l_max, rng_seed, dimension=dim, limits=limits)
    order = degree_order(ideal.n, REVERSE)
    d = diagram_of_ideal(ideal, order, limits)
    return GermReport(
        dim.dim, cm, d, hilbert_samuel(d, eta_max), dim.change, rng_seed
    )
