"""Germ-level verdicts: dimension, Cohen-Macaulay certificates, flatness,
effective determinacy bounds and tangent cones.

Dimensions are exact: each is read off the degree-order diagram in the
original coordinates.  Only the witness coordinates, in which the first
n - dim axes carry vertices, come from a search over seeded integer
matrices, which stops at the first witness.  Every verdict records the
witness matrix and the seed, so it can be re-checked deterministically.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import comb

from .diagram import (
    Diagram,
    HilbertSamuelTable,
    axis_vertex_prefix,
    hilbert_samuel,
    product_structure,
    staircase_dimension,
)
from .errors import DimensionMismatchError, NotFlatError, UnitIdealError
from .orders import REVERSE, LocalOrder, PositiveLinearForm, degree_order
from .poly import Poly, apply_linear_change, exact_det
from .seeding import derive_seed, make_rng
from .standard_basis import (
    DEFAULT_LIMITS,
    IdealPresentation,
    ResourceLimits,
    diagram_of_ideal,
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


# coordinate changes tried for a witness, the identity included
_WITNESS_TRIALS = 60


def _identity(n: int):
    return tuple(tuple(int(i == j) for j in range(n)) for i in range(n))


def _fixed_changes(n: int):
    """Deterministic strong candidates tried before random sampling.

    The Pascal matrix is totally positive (every minor is nonzero), which
    makes it escape the coefficient-vanishing loci of desk-scale inputs
    almost always; a column-scaled variant backs it up.
    """
    pascal = tuple(
        tuple(comb(i + j, i) for j in range(n)) for i in range(n)
    )
    scaled = tuple(
        tuple(comb(i + j, i) * (j + 1) for j in range(n)) for i in range(n)
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
    """Exact dimension plus a coordinate change that witnesses it.

    ``dim`` comes from the degree-order diagram in the original coordinates
    and is always exact.  ``stabilized`` is true when ``change`` is a
    witness: its ``diagram`` has vertices on the first n - dim axes.
    ``presentation`` is the ideal in the coordinates of ``change``, the one
    the search read ``diagram`` from (the ideal itself for the identity),
    with its cache; ``cm_certify`` scans its weighted diagrams there.  It
    takes no part in equality, ``repr`` or the report.
    """

    dim: int
    axis_count: int
    change: tuple
    diagram: Diagram
    stabilized: bool
    trials: int
    seed: int
    presentation: IdealPresentation = field(compare=False, repr=False)

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
    limits: ResourceLimits = DEFAULT_LIMITS,
) -> DimensionResult:
    """dim K{x}/I from the diagram, and the first witness change found.

    The dimension is the staircase dimension of the degree-order diagram
    (the degree of the Hilbert-Samuel polynomial).  The identity and two
    fixed totally-positive matrices go first, then random invertible
    integer matrices from a growing entry range, until some change puts
    vertices on the first n - dim axes.  Without a witness within
    ``_WITNESS_TRIALS`` changes, the one with the most axis vertices is
    reported.
    """
    order = degree_order(ideal.n, REVERSE)
    n = ideal.n
    d = diagram_of_ideal(ideal, order, limits)
    dim = staircase_dimension(d)
    if dim < 0:
        raise UnitIdealError("dimension of the unit ideal is undefined")
    rng = make_rng(rng_seed, "dimension-at-origin")
    fixed = _fixed_changes(n)
    best = None
    changed = ideal
    for trial in range(_WITNESS_TRIALS):
        if trial < len(fixed):
            matrix = fixed[trial]
        else:
            matrix = _random_invertible(rng, n, 2 + (trial - len(fixed)) // 2)
        if trial:  # trial 0 is the identity: d is the original diagram
            changed = _changed_ideal(ideal, matrix)
            d = diagram_of_ideal(changed, order, limits)
        k = axis_vertex_prefix(d)
        if best is None or k > best[0]:
            best = (k, matrix, d, changed)
        if k == n - dim:
            break
    k, matrix, d, changed = best
    return DimensionResult(dim, k, matrix, d, k == n - dim, trial + 1, rng_seed, changed)


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
    coordinates of the dimension run.

    ``dimension`` must be ``dimension_at_origin`` of this ``ideal`` (None
    runs it): the scan reads the witness presentation it carries, so the
    l = 1 diagram, the search's own degree-order one, is a cached entry.
    """
    if dimension is None:
        dimension = dimension_at_origin(ideal, rng_seed, limits=limits)
    n = ideal.n
    k = n - dimension.dim
    if k == 0 or k == n:
        # Free and Artinian quotients respectively; both trivially CM.
        factor = () if k == 0 else tuple(sorted(dimension.diagram.vertices))
        return CmCertificate("certified", 1, l_max, k, dimension, factor)
    for l in range(1, l_max + 1):
        form = PositiveLinearForm((1,) * k + (l,) * (n - k))
        d = diagram_of_ideal(dimension.presentation, LocalOrder(form, REVERSE), limits)
        factor = product_structure(d, k)
        if factor is not None:
            return CmCertificate("certified", l, l_max, k, dimension, tuple(factor))
    return CmCertificate("not-certified", None, l_max, k, dimension, None)


@dataclass(frozen=True)
class FlatnessVerdict:
    """Dimension-route flatness verdict, valid under the CM hypothesis on
    the domain.  ``flatness_check`` records ``cm_evidence`` as "asserted";
    a caller that certifies CM replaces it with the certificate's outcome."""

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
        cm_evidence="asserted",
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
    """The reduced Groebner basis of the tangent cone for a degree order:
    one monic generator per vertex of the diagram, led by it, every other
    term a standard monomial, ascending by lead.

    The basis is unique for the ideal and the order, so it does not depend
    on the generators given or on which engine, the truncated echelon or
    the completion, made the cached entry (``IdealPresentation._cone``).
    An order whose weights are not all 1 raises ``ValueError``: the
    initial forms of its standard basis need not generate the cone.
    """
    if order is None:
        order = degree_order(ideal.n, REVERSE)
    elif any(w != 1 for w in order.form.weights):
        raise ValueError("the tangent cone needs a degree order (all weights 1)")
    if (0,) * ideal.n in ideal.diagram(order, limits).vertices:
        raise UnitIdealError("tangent cone of the unit ideal is undefined")
    return list(ideal._cone(order, limits))


def tangent_cones_equal(
    ideal_a: IdealPresentation,
    ideal_b: IdealPresentation,
    limits: ResourceLimits = DEFAULT_LIMITS,
) -> bool:
    """Equal diagrams plus equal reduced bases of the tangent cones.

    For the degree order the initial forms of a standard basis are a
    standard basis of the tangent cone, so each cone has the diagram of its
    ideal.  The diagrams are read first, so unequal ones decide without any
    cone.  Two homogeneous ideals are equal exactly when their reduced
    Groebner bases are, and each presentation reduces its cone once
    (``IdealPresentation._cone``), from the echelon's vertex rows when the
    echelon certified its diagram, so such an ideal is not completed.
    """
    if ideal_a.n != ideal_b.n:
        raise DimensionMismatchError("ideals on different ambient sizes")
    order = degree_order(ideal_a.n, REVERSE)
    origin = (0,) * ideal_a.n
    diagrams = []
    for ideal in (ideal_a, ideal_b):
        d = diagram_of_ideal(ideal, order, limits)
        if origin in d.vertices:
            raise UnitIdealError("tangent cone of the unit ideal is undefined")
        diagrams.append(d)
    if diagrams[0] != diagrams[1]:
        return False
    return ideal_a._cone(order, limits) == ideal_b._cone(order, limits)


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
