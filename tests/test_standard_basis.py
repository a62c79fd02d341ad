import hashlib
import random
import sys
import threading
from fractions import Fraction
from itertools import chain
from math import gcd, lcm

import pytest

from germlab import (
    FORWARD,
    REVERSE,
    DimensionMismatchError,
    IdealPresentation,
    Poly,
    ResourceLimitError,
    ZeroPolynomialError,
    cm_certify,
    degree_order,
    diagram_of_ideal,
    dimension_at_origin,
    ideal_membership,
    initial_exponent,
    initial_form,
    parse_poly,
    s_series,
    standard_basis_complete,
    tangent_cone_ideal,
    vertices_from_exponents,
    weak_normal_form,
)
from germlab import standard_basis
from germlab.orders import LocalOrder, PositiveLinearForm, exp_divides, exp_max
from germlab.standard_basis import (
    DEFAULT_LIMITS,
    NormalFormResult,
    ResourceLimits,
    StandardRepresentation,
    _homogenize,
    _hreduce,
    _Packing,
    becker_check,
    is_proper,
)
from germlab.oracle import oracle_staircase, truncated_quotient_dim
from germlab.poly import _mul_into
from germlab.seeding import make_rng

from _corpus import corpus, random_poly

REV = degree_order(2, REVERSE)


def p(text, n=2):
    return parse_poly(text, n)


def test_s_series_monomials_cancel():
    assert s_series(p("x1^2"), p("x1*x2"), REV).is_zero


def test_s_series_worked_example():
    s = s_series(p("x1^2 - x2^3"), p("x1*x2"), REV)
    assert s == p("-x2^4")


def test_s_series_self_is_zero():
    f = p("x1^2 - x2^3")
    assert s_series(f, f, REV).is_zero


def test_s_series_rejects_zero():
    with pytest.raises(ZeroPolynomialError):
        s_series(Poly.zero(2), p("x1"), REV)


def test_weak_normal_form_irreducible_input():
    nf = weak_normal_form(p("x2^4"), [p("x1^2 - x2^3")], REV)
    assert nf.remainder == p("x2^4")
    assert nf.unit == Poly.constant(2, 1)
    assert nf.verify(p("x2^4"), [p("x1^2 - x2^3")])


def test_weak_normal_form_one_step():
    f, g = p("x1^2*x2"), p("x1^2 - x2^3")
    nf = weak_normal_form(f, [g], REV)
    assert nf.remainder == p("x2^4")
    assert nf.quotients == [p("x2")]
    assert nf.unit == Poly.constant(2, 1)
    assert nf.verify(f, [g])


def test_weak_normal_form_unit_example():
    f, g = parse_poly("x1", 1), parse_poly("x1 - x1^2", 1)
    nf = weak_normal_form(f, [g], degree_order(1, REVERSE))
    assert nf.remainder.is_zero
    assert nf.unit == parse_poly("1 - x1", 1)
    assert nf.quotients == [Poly.constant(1, 1)]
    assert nf.verify(f, [g])


def test_weak_normal_form_unit_constant_term_one():
    f = p("x1 + x2^2 + x1^3")
    basis = [p("x1 - x1^2 + x2^3"), p("x2^2 - x1*x2")]
    nf = weak_normal_form(f, basis, REV)
    assert nf.unit.constant_term() == 1
    assert nf.verify(f, basis)
    if not nf.remainder.is_zero:
        head = initial_exponent(nf.remainder, REV)
        assert not any(
            exp_divides(initial_exponent(g, REV), head) for g in basis
        )


def test_weak_normal_form_of_zero_without_certificates():
    nf = weak_normal_form(Poly.zero(2), [p("x1^2 - x2^3")], REV, certificates=False)
    assert nf.remainder.is_zero and nf.unit is None and nf.quotients is None


def test_weak_normal_form_rejects_a_zero_basis_element():
    with pytest.raises(ZeroPolynomialError):
        weak_normal_form(p("x1^2"), [p("x1"), Poly.zero(2)], REV)


@pytest.mark.parametrize("certificates", [True, False])
def test_weak_normal_form_stops_at_its_bounds(certificates):
    # three steps take x1^2*x2 + x1^3 to x2^4 + x2^5; one step takes
    # x1^2*x2 to a work of two terms
    f, basis = p("x1^2*x2 + x1^3"), [p("x1^2 - x2^3"), p("x1*x2 - x2^3")]
    with pytest.raises(ResourceLimitError) as info:
        weak_normal_form(f, basis, REV, ResourceLimits(max_reductions=2), certificates)
    assert (info.value.bound, info.value.limit) == ("max_reductions", 2)
    nf = weak_normal_form(f, basis, REV, ResourceLimits(max_reductions=3), certificates)
    assert nf.remainder == p("x2^4 + x2^5")
    f, basis = p("x1^2*x2"), [p("x1^2 - x2^3 - x2^4")]
    with pytest.raises(ResourceLimitError) as info:
        weak_normal_form(f, basis, REV, ResourceLimits(max_terms=1), certificates)
    assert (info.value.bound, info.value.limit) == ("max_terms", 1)
    nf = weak_normal_form(f, basis, REV, ResourceLimits(max_terms=2), certificates)
    assert nf.remainder == p("x2^4 + x2^5")


def test_weak_normal_form_self_inclusion_widens_the_packing(monkeypatch):
    # the work joins the reducers, and its shift by a power of the grading
    # variable outgrows the packing sized for the inputs
    order = LocalOrder(PositiveLinearForm((2, 1)), FORWARD)
    f = p("-26*x1^2*x2^3")
    basis = [p("-5*x2^2 - 3*x2^3"), p("-6*x2^2 - 2*x2^4"), p("7*x1^2 - x1^2*x2")]
    widened = []
    fit = standard_basis._fit

    def recording(packing, elems, grade):
        wide = fit(packing, elems, grade)
        widened.append(wide is not packing)
        return wide

    monkeypatch.setattr(standard_basis, "_fit", recording)
    nf = weak_normal_form(f, basis, order)
    assert any(widened)
    assert nf.remainder.is_zero
    assert nf.unit == p("1 + 3/5*x2")
    assert nf.quotients == [p("26/5*x1^2*x2"), Poly.zero(2), Poly.zero(2)]
    assert nf.verify(f, basis)
    bare = weak_normal_form(f, basis, order, certificates=False)
    assert bare.remainder.is_zero and bare.unit is None and bare.quotients is None


def test_becker_fallback_carries_a_unit():
    # s = -2*x1^3*x2 needs a unit: (1 + x1^2) * s = -2*x1^3 * g1
    gens = [p("x2 + x1^2*x2"), p("-x1 + x1^3")]
    result = becker_check(gens, REV)
    assert result.ok
    [(i, j, rep)] = result.representations
    assert (i, j) == (0, 1)
    assert rep.subject == p("-2*x1^3*x2")
    assert rep.unit == p("1 + x1^2")
    assert rep.quotients == [p("-2*x1^3"), Poly.zero(2)]
    assert rep.verify(gens) and rep.inequality_holds(gens, REV)


def test_weak_normal_form_zero_subject():
    nf = weak_normal_form(Poly.zero(2), [p("x1")], REV)
    assert nf.remainder.is_zero and nf.unit == Poly.constant(2, 1)


def test_becker_monomial_ideal():
    basis = [p("x1^2"), p("x1*x2"), p("x2^3")]
    assert becker_check(basis, REV).ok


def test_becker_single_element():
    assert becker_check([p("x1^2 - x2^3")], REV).ok


def test_becker_failure_witness():
    res = becker_check([p("x1^2 - x2^3"), p("x1*x2")], REV)
    assert not res.ok
    i, j, remainder = res.failure
    assert (i, j) == (0, 1)
    assert remainder == p("-x2^4")


def test_becker_witness_undoes_step_scaling():
    # s = 2*x2*f - 3*x1*g = -13*x1*x2^2; taking -13/2*x2*g off leaves
    # 39/2*x2^3, which no head divides.  The graded step multiplies by 2
    # and strips the content 39; the witness must undo both.
    res = becker_check([p("3*x1^2 - 2*x1*x2"), p("3*x2^2 + 2*x1*x2")], REV)
    assert res.failure == (0, 1, p("39/2*x2^3"))


def test_completion_worked_examples():
    assert standard_basis_complete(
        IdealPresentation(2, [p("x1^2 - x2^3")]), REV
    ) == [p("x1^2 - x2^3")]
    basis = standard_basis_complete(
        IdealPresentation(2, [p("x1^2 - x2^3"), p("x1*x2")]), REV
    )
    assert basis == [p("x1^2 - x2^3"), p("x1*x2"), p("x2^4")]
    assert standard_basis_complete(
        IdealPresentation(2, [p("x1"), p("x2")]), REV
    ) == [p("x1"), p("x2")]


def test_completion_passes_becker_and_certs():
    I = IdealPresentation(2, [p("x1^2 - x2^3"), p("x1*x2")])
    completion = I.completion(REV, certificates=True)
    assert becker_check(list(completion.basis), REV).ok
    for b, cert in zip(completion.basis, completion.certificates):
        acc = Poly.zero(2)
        for c, g in zip(cert, I.generators):
            acc = acc + c * g
        assert acc == b


def test_certificates_with_differing_content_denominators():
    gens = [p("1/2*x1^2 + x2^3"), p("2/3*x1*x2")]
    completion = IdealPresentation(2, gens).completion(REV, certificates=True)
    basis = list(completion.basis)
    assert len(basis) == 3
    for b, cert in zip(basis, completion.certificates):
        acc = Poly.zero(2)
        for c, g in zip(cert, gens):
            acc = acc + c * g
        assert acc == b
    result = becker_check(basis, REV)
    assert result.ok
    for _, _, rep in result.representations:
        if rep is not None:
            assert rep.verify(basis) and rep.inequality_holds(basis, REV)


def _tampered(polys, k, delta):
    return [q + delta if i == k else q for i, q in enumerate(polys)]


def test_verify_rejects_tampering():
    f = p("x1 + x2^2 + x1^3")
    basis = [p("x1 - x1^2 + x2^3"), p("x2^2 - x1*x2")]
    nf = weak_normal_form(f, basis, REV)
    assert nf.verify(f, basis)
    delta = p("1/3*x2")
    assert not NormalFormResult(nf.remainder, nf.unit, _tampered(nf.quotients, 0, delta)).verify(f, basis)
    assert not NormalFormResult(nf.remainder, nf.unit + delta, nf.quotients).verify(f, basis)
    assert not NormalFormResult(nf.remainder + delta, nf.unit, nf.quotients).verify(f, basis)

    basis = list(IdealPresentation(2, [p("x1^2 - x2^3"), p("x1*x2")]).completion(REV).basis)
    reps = [rep for _, _, rep in becker_check(basis, REV).representations if rep is not None]
    assert reps
    for rep in reps:
        assert rep.verify(basis)
        k = next(i for i, q in enumerate(rep.quotients) if q)
        tampered = _tampered(rep.quotients, k, delta)
        assert not StandardRepresentation(rep.subject, tampered, rep.unit).verify(basis)
        assert not StandardRepresentation(rep.subject, rep.quotients, rep.unit + delta).verify(basis)
        assert not StandardRepresentation(rep.subject + delta, rep.quotients, rep.unit).verify(basis)


def _inequality_by_products(rep, basis, order):
    """The definition: inexp(subject) <= inexp(Q_i * basis_i), products formed."""
    if rep.subject.is_zero:
        return True
    lead = order.key(initial_exponent(rep.subject, order))
    return all(
        order.key(initial_exponent(q * g, order)) >= lead
        for q, g in zip(rep.quotients, basis)
        if q
    )


@pytest.mark.parametrize("weights", [(1, 1), (2, 1)])
def test_inequality_holds_matches_the_products(weights):
    order = LocalOrder(PositiveLinearForm(weights), REVERSE)
    rng = make_rng("inequality-holds", *weights)
    verdicts = set()
    for _ in range(150):
        basis = [random_poly(rng, 2, max_degree=4, max_terms=3) for _ in range(rng.randint(1, 3))]
        subject = random_poly(rng, 2, max_degree=4, max_terms=3)
        quotients = [
            random_poly(rng, 2, max_degree=3, max_terms=2, min_term_degree=0)
            if rng.random() < 0.7 else Poly.zero(2)
            for _ in basis
        ]
        rep = StandardRepresentation(subject, quotients, Poly.constant(2, 1))
        got = rep.inequality_holds(basis, order)
        assert got == _inequality_by_products(rep, basis, order)
        verdicts.add(got)
    assert verdicts == {True, False}


def test_diagram_of_ideal():
    assert diagram_of_ideal(
        IdealPresentation(2, [p("x1^2 - x2^3")]), REV
    ).vertices == frozenset({(2, 0)})
    assert diagram_of_ideal(
        IdealPresentation(2, [p("x1^2 - x2^3"), p("x1*x2")]), REV
    ).vertices == frozenset({(2, 0), (1, 1), (0, 4)})
    assert diagram_of_ideal(
        IdealPresentation(2, [Poly.constant(2, 1)]), REV
    ).vertices == frozenset({(0, 0)})
    assert diagram_of_ideal(IdealPresentation(2, []), REV).is_empty


def test_membership_worked_examples():
    I = IdealPresentation(2, [p("x1^2 - x2^3"), p("x1*x2")])
    assert ideal_membership(p("x2^4"), I, REV)
    assert not ideal_membership(p("x2^3"), I, REV)
    assert ideal_membership(Poly.zero(2), I, REV)
    assert ideal_membership(Poly.zero(2), IdealPresentation(2, []), REV)
    assert not ideal_membership(p("x1"), IdealPresentation(2, []), REV)


def test_membership_with_unit():
    I = IdealPresentation(1, [parse_poly("x1 - x1^2", 1)])
    assert ideal_membership(parse_poly("x1", 1), I, degree_order(1, REVERSE))


def test_is_proper():
    for order in (REV, degree_order(2, FORWARD), LocalOrder(PositiveLinearForm((2, 1)), FORWARD)):
        assert is_proper(IdealPresentation(2, [p("x1")]), order)
        assert is_proper(IdealPresentation(2, [p("x1 - x1^2"), p("x1*x2 + x2^3")]), order)
        assert not is_proper(IdealPresentation(2, [p("1 + x1")]), order)
        assert not is_proper(IdealPresentation(2, [p("x1*x2"), p("2 + x2")]), order)
        assert is_proper(IdealPresentation(2, []), order)


def _diagram_by_initial_exponents(ideal, order):
    basis = standard_basis_complete(ideal, order)
    return vertices_from_exponents([initial_exponent(g, order) for g in basis], ideal.n)


@pytest.mark.parametrize("tiebreak", [REVERSE, FORWARD])
@pytest.mark.parametrize("weights", [(1, 1), (2, 1), (1, 1, 1), (1, 2, 1)])
def test_diagram_is_read_off_the_graded_leads(weights, tiebreak):
    n = len(weights)
    order = LocalOrder(PositiveLinearForm(weights), tiebreak)
    rng = make_rng("diagram-from-leads", n)
    for _ in range(25):
        gens = [random_poly(rng, n, max_degree=4 if n == 2 else 3) for _ in range(rng.randint(1, 3))]
        ideal = IdealPresentation(n, gens)
        assert diagram_of_ideal(ideal, order) == _diagram_by_initial_exponents(ideal, order)


@pytest.mark.parametrize("tiebreak", [REVERSE, FORWARD])
def test_diagram_after_widening(tiebreak):
    order = degree_order(2, tiebreak)
    single = IdealPresentation(2, [Poly(2, {(2**40, 0): 1, (0, 1): 1})])
    # the lcm of these two leads outgrows the initial packing (see
    # test_pair_crossing_the_packing_width), so _fit widens it mid-completion
    big = 2**40 + 2
    crossing = IdealPresentation(2, [Poly(2, {(0, 2): 1, (big, 0): 1}), Poly(2, {(big - 1, 1): 1})])
    for ideal in (single, crossing):
        assert diagram_of_ideal(ideal, order) == _diagram_by_initial_exponents(ideal, order)


def test_diagram_survives_a_rebuilt_completion(monkeypatch):
    real = IdealPresentation.completion

    def rebuilt(self, *args, **kwargs):
        result = real(self, *args, **kwargs)
        return type(result)(result.basis, result.certificates)

    monkeypatch.setattr(IdealPresentation, "completion", rebuilt)
    unit = IdealPresentation(2, [p("x1*x2"), p("2 + x2")])
    proper = IdealPresentation(2, [p("x1^2 - x2^3"), p("x1*x2")])
    for ideal in (unit, proper):
        # a certified completion is cached before the diagram is asked for
        ideal.completion(REV, certificates=True)
        assert diagram_of_ideal(ideal, REV) == _diagram_by_initial_exponents(ideal, REV)
    assert not is_proper(unit, REV)
    assert is_proper(proper, REV)


def test_generator_validation():
    with pytest.raises(ZeroPolynomialError):
        IdealPresentation(2, [Poly.zero(2)])
    with pytest.raises(ValueError):
        IdealPresentation(2, [parse_poly("x1", 1)])


def test_resource_limit_reported():
    tight = ResourceLimits(max_terms=5000, max_pairs=2, max_reductions=100000)
    I = IdealPresentation(
        3,
        [p("x1 + x2^2 + x3^3", 3), p("x2 + x3^2 + x1^2", 3), p("x3 + x1^3", 3)],
    )
    with pytest.raises(ResourceLimitError) as info:
        standard_basis_complete(I, degree_order(3, REVERSE), tight)
    assert info.value.bound == "max_pairs"


def _three_generator_ideal():
    return IdealPresentation(
        3,
        [p("x1 + x2^2 + x3^3", 3), p("x2 + x3^2 + x1^2", 3), p("x3 + x1^3", 3)],
    )


@pytest.mark.parametrize(
    "limits,bound",
    [
        (ResourceLimits(max_reductions=2), "max_reductions"),
        (ResourceLimits(max_terms=3), "max_terms"),
    ],
)
def test_reduction_limits_reported(limits, bound):
    with pytest.raises(ResourceLimitError) as info:
        standard_basis_complete(_three_generator_ideal(), degree_order(3, REVERSE), limits)
    assert info.value.bound == bound
    assert info.value.limit == getattr(limits, bound)


def test_becker_graded_path_enforces_max_terms():
    order = degree_order(3, REVERSE)
    basis = standard_basis_complete(_three_generator_ideal(), order)
    settled = becker_check(basis, order)
    one = Poly.constant(3, 1)
    assert settled.ok
    assert all(rep is None or rep.unit == one for _, _, rep in settled.representations)
    with pytest.raises(ResourceLimitError) as info:
        becker_check(basis, order, ResourceLimits(max_terms=3))
    assert info.value.bound == "max_terms"


def test_completion_cache_upgrades():
    I = IdealPresentation(2, [p("x1^2 - x2^3"), p("x1*x2")])
    bare = I.completion(REV, certificates=False)
    assert bare.certificates is None
    rich = I.completion(REV, certificates=True)
    assert rich.certificates is not None
    assert rich.basis == bare.basis
    assert I.completion(REV, certificates=False).certificates is not None


@pytest.mark.parametrize("tiebreak", [REVERSE, FORWARD])
@pytest.mark.parametrize("weights", [(1, 1), (2, 3), (1, 2, 1)])
def test_packing_matches_graded_order_and_divisibility(weights, tiebreak):
    order = LocalOrder(PositiveLinearForm(weights), tiebreak)
    n = len(weights)
    piece = 40
    packing = _Packing(order, piece)
    rng = random.Random(f"packing-{weights}-{tiebreak}")

    def in_piece():
        # an x-part of weight <= piece padded to that graded piece
        while True:
            x = tuple(rng.randint(0, piece // w) for w in weights)
            if order.form.weight(x) <= piece:
                return (*x, piece - order.form.weight(x))

    def grade(e):
        return order.form.weight(e[:n]) + e[n]

    def anywhere():
        while True:
            e = tuple(rng.randint(0, 12) for _ in range(n + 1))
            if grade(e) <= packing.max_grade:
                return e

    # the tuple sort key the graded engine used before packing: larger t
    # first, then the tie-break on the x-part
    if tiebreak == REVERSE:
        hkey = lambda e: (-e[n], e[n - 1 :: -1])
    else:
        hkey = lambda e: (-e[n], e[:n])
    for _ in range(400):
        a, b = in_piece(), in_piece()
        assert (packing.pack(a) < packing.pack(b)) == (hkey(a) < hkey(b))
        assert packing.unpack(packing.pack(a)) == a
    seen, xseen = set(), set()
    for _ in range(400):
        a, b = anywhere(), anywhere()
        # half the pairs are a against lcm(a, b): divisible unless too big
        if rng.random() < 0.5 and grade(exp_max(a, b)) <= packing.max_grade:
            b = exp_max(a, b)
        divides = not (packing.pack(b) - packing.pack(a)) & packing.guard
        assert divides == exp_divides(a, b)
        assert packing.grade(packing.pack(b)) == grade(b)
        seen.add(divides)
        # the x-part test ignores t: b again with a fresh t
        c = (*b[:n], rng.randint(0, 12))
        if grade(c) <= packing.max_grade:
            xdivides = packing.xdivides(packing.pack(a), packing.pack(c))
            assert xdivides == exp_divides(a[:n], c[:n])
            xseen.add((xdivides, a[n] > c[n]))
    assert seen == {True, False}
    assert {(True, True), (True, False), (False, True), (False, False)} <= xseen
    # strip_t divides out the least power of t, and leaves t-free dicts alone
    for _ in range(100):
        terms = [anywhere() for _ in range(rng.randint(1, 5))]
        work = {packing.pack(e): rng.choice((-3, 1, 2)) for e in terms}
        low = min(e[n] for e in terms)
        want = {packing.pack((*e[:n], e[n] - low)): work[packing.pack(e)] for e in terms}
        assert packing.strip_t(work) == want
        assert packing.strip_t(want) == want
    assert packing.strip_t({}) == {}
    # poly of a homogenized element, scaled by its content, is the input
    for _ in range(100):
        f = Poly(n, {
            anywhere()[:n]: Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 6))
            for _ in range(rng.randint(1, 5))
        })
        hpacking, (elem,), [(num, den)] = _homogenize([f], order)
        assert hpacking.poly(elem.poly, num, den) == f


def test_exponents_beyond_32_bits():
    big = 2**40
    order = degree_order(2, REVERSE)
    ideal = IdealPresentation(2, [Poly.monomial(2, (big, 0)), p("x2")])
    assert diagram_of_ideal(ideal, order).vertices == frozenset({(big, 0), (0, 1)})


@pytest.mark.parametrize("tiebreak", [REVERSE, FORWARD])
def test_pair_crossing_the_packing_width(tiebreak):
    # the lcm of the leads x2^2 and x1^(A-1)*x2 has grade 2A - 1, past the
    # fields sized for the generators' top grade A, and its s-pair is
    # x1^(2A-1), whose exponent overflows an x-field of the initial packing
    big = 2**40 + 2
    f = Poly(2, {(0, 2): 1, (big, 0): 1})
    g = Poly(2, {(big - 1, 1): 1})
    order = degree_order(2, tiebreak)
    packing, elems, _ = _homogenize([f, g], order)
    assert exp_max(elems[0].lm, elems[1].lm) == (big - 1, 2, big - 2)
    assert 2 * big - 1 > packing.max_grade
    ideal = IdealPresentation(2, [f, g])
    assert diagram_of_ideal(ideal, order).vertices == frozenset(
        {(0, 2), (big - 1, 1), (2 * big - 1, 0)}
    )
    completion = IdealPresentation(2, [f, g]).completion(order, certificates=True)
    for b, cert in zip(completion.basis, completion.certificates):
        acc = Poly.zero(2)
        for c, gen in zip(cert, (f, g)):
            acc = acc + c * gen
        assert acc == b
    assert becker_check(list(completion.basis), order).ok


@pytest.mark.parametrize("tiebreak", [REVERSE, FORWARD])
def test_widening_with_queued_pairs(tiebreak):
    # the third generator's pairs outgrow the fields sized for the top grade
    # 4 while the first pair is still queued, so its lcm is repacked too
    gens = [
        p("4*x1*x2 - 4*x2^3 + 5*x1^3 + 3*x2^4"),
        p("x1^2 + x1^2*x2 + 2*x1^3"),
        p("5*x1^2*x2 - 4*x1^3 - 10*x1^2*x2^2"),
    ]
    small = ResourceLimits(max_reductions=1000)
    d = diagram_of_ideal(IdealPresentation(2, gens), degree_order(2, tiebreak), small)
    assert d.vertices == frozenset({(0, 5), (1, 1), (2, 0)})


# -- the in-place reduction kernel ----------------------------------------------

# completing these runs one reduction through a step with a == -1 and
# content 3 and a step with a == 1 (see the recording in the test below)
KERNEL_GENS = ("-6*x2^3 + x1^2*x2", "2*x1^2*x2 + 3*x1^2*x2^2")


def _reexpands(completion, gens):
    n = gens[0].n
    for b, cert in zip(completion.basis, completion.certificates):
        acc = Poly.zero(n)
        for c, g in zip(cert, gens):
            acc = acc + c * g
        if acc != b:
            return False
    return True


def test_hreduce_leaves_its_input_and_reducers_unchanged():
    basis = list(IdealPresentation(2, [p(g) for g in KERNEL_GENS]).completion(REV).basis)
    subject = p("x1^2*x2^2 + 2*x2^5 - 4*x1^2*x2^3")
    packing, elems, _ = _homogenize([*basis, subject], REV)
    reducers, work = elems[:-1], elems[-1].poly
    before = dict(work)
    polys = [dict(b.poly) for b in reducers]
    out, steps = _hreduce(work, reducers, packing, DEFAULT_LIMITS)
    # several steps, scaling the work and dividing out contents
    assert any(a != 1 for _, _, a, _, _ in steps) and any(c != 1 for *_, c in steps)
    assert work == before
    assert [b.poly for b in reducers] == polys
    assert _hreduce(work, reducers, packing, DEFAULT_LIMITS) == (out, steps)


def test_building_a_cone_mutates_no_element(monkeypatch):
    kept = []
    real = standard_basis._complete

    def recording(*args):
        done = real(*args)
        kept.append([(b, dict(b.poly)) for b in done[3]])
        return done

    monkeypatch.setattr(standard_basis, "_complete", recording)
    echelon = IdealPresentation(2, [p("x1^2 + x1*x2 + x1^4"), p("x2^2 + x2^4")])
    # no pure power of x1, so the completion makes the entry
    completed = IdealPresentation(2, [p("x2^2"), p("x2^3 + x1^2*x2")])
    for ideal, cone in ((echelon, [p("x1^2 + x1*x2"), p("x2^2")]),
                        (completed, [p("x2^2"), p("x1^2*x2")])):
        rows = ideal._entry(REV, DEFAULT_LIMITS, False)[4]
        before = [dict(row) for row in rows]
        assert tangent_cone_ideal(ideal, REV) == cone
        assert ideal._entry(REV, DEFAULT_LIMITS, False)[4] is rows
        assert [dict(row) for row in rows] == before
    assert len(kept) == 1 and all(b.poly == poly for b, poly in kept[0])
    monkeypatch.undo()
    fresh = IdealPresentation(2, completed.generators)
    assert completed.completion(REV, certificates=False) == fresh.completion(REV, certificates=False)


def test_reduction_through_unit_and_negated_multipliers(monkeypatch):
    steps_seen = []
    real = standard_basis._hreduce

    def recording(*args):
        work, steps = real(*args)
        steps_seen.extend((a, c) for _, _, a, _, c in steps)
        return work, steps

    monkeypatch.setattr(standard_basis, "_hreduce", recording)
    gens = [p(g) for g in KERNEL_GENS]
    completion = IdealPresentation(2, gens).completion(REV, certificates=True)
    assert {1, -1} <= {a for a, _ in steps_seen}
    assert any(c != 1 for _, c in steps_seen)
    monkeypatch.undo()
    assert completion == IdealPresentation(2, gens).completion(REV, certificates=True)
    assert list(completion.basis) == [
        p("-6*x2^3 + x1^2*x2"), p("x1^2*x2 + 3/2*x1^2*x2^2"), p("x2^3 + 3/2*x2^4")
    ]
    assert _reexpands(completion, gens)
    assert becker_check(list(completion.basis), REV).ok


# -- diagrams and bases share one completion -------------------------------------


def test_diagram_and_completion_share_one_completion(monkeypatch):
    completed = []
    real_complete = standard_basis._complete

    def counting_complete(*args):
        completed.append(args[3])
        return real_complete(*args)

    asked = []
    real_completion = IdealPresentation.completion

    def counting_completion(self, order, *rest, **kwargs):
        asked.append(order)
        return real_completion(self, order, *rest, **kwargs)

    monkeypatch.setattr(standard_basis, "_complete", counting_complete)
    monkeypatch.setattr(IdealPresentation, "completion", counting_completion)
    gens = [p("x1^2 - x2^3"), p("x1*x2 + x2^4")]
    unit = IdealPresentation(2, [p("x1*x2"), p("2 + x2")])
    ideal = IdealPresentation(2, gens)
    d = diagram_of_ideal(ideal, REV)
    assert is_proper(ideal, REV)
    assert not is_proper(unit, REV)
    # every diagram is a completion call; at most one _complete per
    # presentation, and none until a basis is read (the echelon certifies both)
    assert asked == [REV] * 3 and completed == []
    bare = ideal.completion(REV, certificates=False)
    assert ideal.completion(REV, certificates=False) is bare
    assert completed == []
    monkeypatch.undo()

    assert d == _diagram_by_initial_exponents(IdealPresentation(2, gens), REV)
    assert bare.certificates is None
    assert bare == IdealPresentation(2, gens).completion(REV, certificates=False)
    assert len(set(bare.basis)) == len(bare.basis)
    rich = ideal.completion(REV, certificates=True)
    assert rich.basis == bare.basis
    assert _reexpands(rich, gens)
    assert ideal.diagram(REV) == d
    assert ideal.completion(REV, certificates=False) is rich



# -- the dehomogenized basis is built on first read ------------------------------


def test_diagram_path_builds_no_basis(monkeypatch):
    def refused(*args):
        raise AssertionError("a diagram-only caller built a basis")

    gens = [p("x1^2 - x2^3"), p("x1*x2 + x2^4")]
    ideal = IdealPresentation(2, gens)
    unit = IdealPresentation(2, [p("x1*x2"), p("2 + x2")])
    curve = IdealPresentation(2, [p("x1^2 - x2^3")])
    monkeypatch.setattr(standard_basis, "_completion_result", refused)
    d = diagram_of_ideal(ideal, REV)
    assert is_proper(ideal, REV)
    assert not is_proper(unit, REV)
    dim = dimension_at_origin(curve, 3)
    assert dim.dim == 1
    # k = 1 of n = 2, so the certificate scans weighted diagrams
    assert cm_certify(curve, 4, 3, dimension=dim).certified
    # the result exists; reading its basis builds, and a failed build is retried
    bare = ideal.completion(REV, certificates=False)
    with pytest.raises(AssertionError):
        bare.basis
    monkeypatch.undo()

    fresh = IdealPresentation(2, gens).completion(REV, certificates=False)
    assert bare.basis == fresh.basis and bare.certificates is None
    assert d == _diagram_by_initial_exponents(IdealPresentation(2, gens), REV)
    rich = ideal.completion(REV, certificates=True)
    assert rich.basis == bare.basis
    assert _reexpands(rich, gens)


def test_completion_result_keeps_its_value_semantics():
    gens = [p("x1^2 - x2^3"), p("x1*x2 + x2^4")]
    deferred = IdealPresentation(2, gens).completion(REV)
    plain = standard_basis.CompletionResult(deferred.basis, deferred.certificates)
    assert deferred == plain and not deferred != plain
    assert repr(deferred) == repr(plain)
    assert repr(plain).startswith("CompletionResult(basis=(")
    assert deferred != standard_basis.CompletionResult(deferred.basis, None)
    with pytest.raises(TypeError):
        hash(plain)


def test_concurrent_first_reads_complete_and_build_once(monkeypatch):
    completed, built = [], []
    real_complete = standard_basis._complete
    real_result = standard_basis._completion_result

    def counting_complete(*args):
        completed.append(args[3])
        return real_complete(*args)

    def counting_result(*args):
        built.append(args[4])
        return real_result(*args)

    monkeypatch.setattr(standard_basis, "_complete", counting_complete)
    monkeypatch.setattr(standard_basis, "_completion_result", counting_result)
    ideal = _three_generator_ideal()
    order = degree_order(3, REVERSE)
    count = 16  # more threads than cores
    start = threading.Barrier(count)
    bases, diagrams, errors = [None] * count, [None] * count, []

    def reader(i):
        try:
            start.wait()
            if i % 3 == 0:
                diagrams[i] = ideal.diagram(order)
                bases[i] = ideal.completion(order, certificates=False).basis
            elif i % 3 == 1:
                bases[i] = ideal.completion(order, certificates=False).basis
                diagrams[i] = ideal.diagram(order)
            else:
                result = ideal.completion(order, certificates=False)
                diagrams[i] = ideal.diagram(order)
                bases[i] = result.basis
        except BaseException as exc:  # reported by the main thread
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=reader, args=(i,)) for i in range(count)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
            assert not t.is_alive()
    finally:
        sys.setswitchinterval(interval)
    assert errors == []
    assert all(isinstance(b, tuple) and b == bases[0] for b in bases)
    assert all(d == diagrams[0] for d in diagrams)
    assert completed == [False] and built == [False]
    monkeypatch.undo()
    assert list(bases[0]) == standard_basis_complete(_three_generator_ideal(), order)


# -- diagrams of zero-dimensional ideals from one truncated echelon ----------------


def _completed_diagram(ideal, order):
    return standard_basis._complete(ideal.generators, order, DEFAULT_LIMITS, False)[0]


def test_echelon_diagram_matches_the_completion_on_the_corpus():
    orders = {n: [degree_order(n, t) for t in (REVERSE, FORWARD)] for n in (2, 3)}
    orders[2] += [
        LocalOrder(PositiveLinearForm(w), t) for w in ((1, 2), (2, 1)) for t in (REVERSE, FORWARD)
    ]
    certified = declined = 0
    for ideal in corpus():
        for order in orders[ideal.n]:
            got = standard_basis._echelon_diagram(ideal.generators, order)
            if got is None:
                declined += 1
                continue
            certified += 1
            assert got[0] == _completed_diagram(ideal, order), (ideal, order)
    assert certified > 0 and declined > 0


def test_kept_elements_and_vertex_rows_are_integer_primitive_on_the_corpus():
    # every reduction step, the s-pair's included, divides out the content
    checked = 0
    for ideal in corpus():
        n, gens = ideal.n, ideal.generators
        for weights in ((1,) * n, (2,) + (1,) * (n - 1)):
            for tiebreak in (REVERSE, FORWARD):
                order = LocalOrder(PositiveLinearForm(weights), tiebreak)
                *_, elems = standard_basis._complete(gens, order, DEFAULT_LIMITS, False)
                polys = [b.poly for b in elems]
                echelon = standard_basis._echelon_diagram(gens, order)
                if echelon is not None:
                    polys += echelon[2]
                for poly in polys:
                    assert gcd(*poly.values()) == 1, (ideal, order, poly)
                checked += len(polys)
    assert checked > 1000


def test_tangent_cone_is_the_reduced_basis_on_the_corpus():
    certified = completed = 0
    # x2^3 lies in the diagram of the last ideal: the reduced basis drops it
    for ideal in corpus() + [IdealPresentation(2, [p("x2^2"), p("x2^3 + x1^2*x2")])]:
        n, gens = ideal.n, ideal.generators
        for tiebreak in (REVERSE, FORWARD):
            order = degree_order(n, tiebreak)
            fresh = tangent_cone_ideal(IdealPresentation(n, gens), order)
            after_diagram = IdealPresentation(n, gens)
            d = after_diagram.diagram(order)
            after_completion = IdealPresentation(n, gens)
            after_completion.completion(order, certificates=True)
            # the same list whichever engine made the entry and whatever came first
            assert fresh == tangent_cone_ideal(after_diagram, order), (ideal, order)
            assert fresh == tangent_cone_ideal(after_completion, order), (ideal, order)
            if standard_basis._echelon_diagram(gens, order) is None:
                completed += 1
            else:
                certified += 1
            # one monic homogeneous generator per vertex, led by it, ascending
            leads = [initial_exponent(f, order) for f in fresh]
            assert leads == sorted(d.vertices, key=order.key), (ideal, order)
            for f, lead in zip(fresh, leads):
                assert f.coeff(lead) == 1
                assert f.total_degree() == f.min_total_degree()
                # reduced: no other term lies in the diagram
                assert not any(d.member(e) for e in f.exponents() if e != lead), (ideal, order)
    assert certified > 0 and completed > 0


def test_echelon_vertex_rows_give_the_tangent_cone_on_the_corpus():
    def refused(*args):
        raise AssertionError("a completion ran for an echelon-certified cone")

    certified = declined = 0
    for ideal in corpus():
        n, gens = ideal.n, ideal.generators
        for tiebreak in (REVERSE, FORWARD):
            order = degree_order(n, tiebreak)
            if standard_basis._echelon_diagram(gens, order) is None:
                declined += 1
                continue
            certified += 1
            fresh = IdealPresentation(n, gens)
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(standard_basis, "_complete", refused)
                cone = tangent_cone_ideal(fresh, order)
            # one vertex row per vertex, and the cone is built from them alone
            assert len(fresh._entry(order, DEFAULT_LIMITS, False)[4]) == len(cone)
            # reference: the initial forms of a standard basis generate the cone
            basis = IdealPresentation(n, gens).completion(order, certificates=False).basis
            reference = IdealPresentation(n, [initial_form(g) for g in basis])
            assert all(ideal_membership(f, reference, order) for f in cone), (ideal, order)
            spanned = IdealPresentation(n, cone)
            assert all(ideal_membership(g, spanned, order) for g in reference.generators), (ideal, order)
    assert certified > 0 and declined > 0


def test_echelon_window_spans_the_largest_variable_weight():
    order = LocalOrder(PositiveLinearForm((2, 1)), REVERSE)
    ideal = IdealPresentation(2, [p("x2"), p("x1^3 + x1*x2^3")])
    d = standard_basis._echelon_diagram(ideal.generators, order)[0]
    assert d == vertices_from_exponents([(0, 1), (3, 0)])
    assert d == _completed_diagram(ideal, order)
    # at eta = 5 every monomial of weight 5 is already a pivot, yet the
    # vertex x1^3 (weight 6) is not: a window of weight eta alone would
    # certify {x2} there
    pivots = oracle_staircase(ideal, order, 5)
    assert {(1, 3), (2, 1), (0, 5)} <= pivots and (3, 0) not in pivots


@pytest.mark.parametrize(
    "gens, order",
    [
        pytest.param(
            ["-x2^2 + 3*x1^4", "3*x2^2 + 5*x2^4", "3*x1*x2 - 5*x2^3"],
            LocalOrder(PositiveLinearForm((1, 2)), REVERSE),
            id="weights-1-2-reverse",
        ),
        pytest.param(
            [
                "-4*x1*x2 + x1^2*x2^2 + 2*x1^3*x2",
                "x1^2 - 5*x1*x2^3 - 5*x1^3*x2 + x1^4",
                "-x2^2 - 2*x1^2*x2 - 5*x1^2*x2^2",
            ],
            LocalOrder(PositiveLinearForm((2, 1)), FORWARD),
            id="weights-2-1-forward",
        ),
    ],
)
def test_echelon_reads_its_vertices_off_the_pivots(monkeypatch, gens, order):
    # a pivot of weight at most the closing eta is a vertex when no pivot lies
    # one step below it along a variable it carries; a pivot above eta, such
    # as x2^4 of the first ideal, can lack that predecessor, so it is never
    # tested, and only the vertices reach vertices_from_exponents
    passed = []
    real = standard_basis.vertices_from_exponents

    def recording(exponents, n=None):
        exponents = list(exponents)
        passed.append(exponents)
        return real(exponents, n)

    ideal = IdealPresentation(2, [p(g) for g in gens])
    monkeypatch.setattr(standard_basis, "vertices_from_exponents", recording)
    diagram, packing, rows = standard_basis._echelon_diagram(ideal.generators, order)
    monkeypatch.undo()
    assert diagram == _completed_diagram(ideal, order)
    assert len(passed) == 1 and sorted(passed[0]) == sorted(diagram.vertices)
    # one vertex row per vertex, in the diagram's vertex order
    assert [packing.xpart(min(row)) for row in rows] == list(diagram.vertices)


def test_echelon_layers_are_built_once_per_order_and_top(monkeypatch):
    built = []
    real = standard_basis.weighted_box

    def counting(weights, top):
        built.append((weights, top))
        return real(weights, top)

    monkeypatch.setattr(standard_basis, "weighted_box", counting)
    standard_basis._layers.cache_clear()
    orders = [degree_order(2, FORWARD), degree_order(2, REVERSE)]
    # zero-dimensional ideals the echelon certifies, all of top weight 4
    ideals = [
        [p("x1^2 + x2^4"), p("x2^2 - x1^3")],
        [p("x1^3 + x1*x2^3"), p("x2^2 + x1^4"), p("x1*x2")],
        [p("x1^2 - x2^4"), p("x2^3 + x1^3")],
    ]
    for gens in ideals:
        for order in orders:
            ideal = IdealPresentation(2, gens)
            assert standard_basis._echelon_diagram(gens, order) is not None
            assert ideal.diagram(order) == _completed_diagram(ideal, order)
    assert len(built) == 2
    # a larger top weight builds its own layers; an equal order made afresh
    # reads the cached ones
    assert standard_basis._echelon_diagram([p("x1^2 + x2^6"), p("x2^5")], orders[0]) is not None
    assert len(built) == 3
    again = LocalOrder(PositiveLinearForm((1, 1)), FORWARD)
    _, packing, _ = standard_basis._echelon_diagram(ideals[0], again)
    assert len(built) == 3
    layers = standard_basis._layers(again, 4)
    assert layers is standard_basis._layers(orders[0], 4)
    # immutable, and in the layout of the packing the echelon homogenized with
    assert isinstance(layers, tuple) and all(isinstance(layer, tuple) for layer in layers)
    box = [again.form.weight(packing.xpart(k)) for layer in layers for k in layer]
    assert box == sorted(box) and len(box) == 15
    assert [len(layer) for layer in layers] == [1, 2, 3, 4, 5]
    maxsize = standard_basis._layers.cache_info().maxsize
    assert maxsize is not None and maxsize <= 32


def test_echelon_declines_before_building_a_row(monkeypatch):
    def refused(*args):
        raise AssertionError("an echelon was started")

    big = 2**40 + 2
    declined = [
        # one generator in two variables: never zero-dimensional
        IdealPresentation(2, [p("x1^2 + x2^3")]),
        # no pure power of x2: the x2 axis lies in the zero set
        IdealPresentation(2, [p("x1^2 + x1*x2"), p("x1^3 - x1*x2^2")]),
        # the column count C(top + n, n) is far past the cap
        IdealPresentation(2, [Poly(2, {(0, 2): 1, (big, 0): 1}), Poly(2, {(big - 1, 1): 1})]),
    ]
    monkeypatch.setattr(standard_basis, "_Packing", refused)
    for ideal in declined:
        assert standard_basis._echelon_diagram(ideal.generators, REV) is None
    monkeypatch.undo()
    for ideal in declined:
        assert diagram_of_ideal(ideal, REV) == _completed_diagram(ideal, REV)


def test_positive_dimensional_ideal_falls_back():
    # (x1^2 - x2^2) * (1, x1): a curve, though both axes carry pure powers
    ideal = IdealPresentation(2, [p("x1^2 - x2^2"), p("x1^3 - x1*x2^2")])
    assert standard_basis._echelon_diagram(ideal.generators, REV) is None
    assert diagram_of_ideal(ideal, REV).vertices == frozenset({(2, 0)})


@pytest.mark.parametrize(
    "order", [REV, degree_order(2, FORWARD), LocalOrder(PositiveLinearForm((1, 2)), REVERSE)]
)
def test_basis_after_an_echelon_diagram(monkeypatch, order):
    completed = []
    real_complete = standard_basis._complete

    def counting_complete(*args):
        completed.append(args[3])
        return real_complete(*args)

    gens = [p("x1^2 - x2^3"), p("x1*x2 + x2^4")]
    ideal = IdealPresentation(2, gens)
    monkeypatch.setattr(standard_basis, "_complete", counting_complete)
    d = ideal.diagram(order)
    bare = ideal.completion(order, certificates=False)
    assert completed == []
    basis = bare.basis
    assert completed == [False] and bare.basis is basis
    monkeypatch.undo()

    fresh = IdealPresentation(2, gens).completion(order, certificates=False)
    assert basis == fresh.basis and bare.certificates is None
    assert d == _completed_diagram(ideal, order)
    rich = ideal.completion(order, certificates=True)
    assert rich.basis == basis
    assert _reexpands(rich, gens)
    assert ideal.diagram(order) == d


def test_verdict_only_completion_tries_the_echelon_first(monkeypatch):
    calls = []
    for name in ("_echelon_diagram", "_complete"):
        real = getattr(standard_basis, name)

        def counting(*args, name=name, real=real):
            calls.append(name)
            return real(*args)

        monkeypatch.setattr(standard_basis, name, counting)
    gens = [p("x1^2 - x2^3"), p("x1*x2 + x2^4")]
    bare = IdealPresentation(2, gens).completion(REV, certificates=False)
    assert calls == ["_echelon_diagram"]
    basis = bare.basis
    assert calls == ["_echelon_diagram", "_complete"]
    # certificates go straight to the completion
    rich = IdealPresentation(2, gens).completion(REV, certificates=True)
    assert calls == ["_echelon_diagram", "_complete", "_complete"]
    monkeypatch.undo()
    assert basis == IdealPresentation(2, gens).completion(REV, certificates=False).basis
    assert rich.basis == basis and _reexpands(rich, gens)


def test_diagram_runs_the_echelon_inside_its_completion_call(monkeypatch):
    open_calls, inside = [], []
    real_completion = IdealPresentation.completion
    real_echelon = standard_basis._echelon_diagram

    def completion(self, *args, **kwargs):
        open_calls.append(args)
        try:
            return real_completion(self, *args, **kwargs)
        finally:
            open_calls.pop()

    def echelon(*args):
        inside.append(len(open_calls))
        return real_echelon(*args)

    monkeypatch.setattr(IdealPresentation, "completion", completion)
    monkeypatch.setattr(standard_basis, "_echelon_diagram", echelon)
    ideal = IdealPresentation(2, [p("x1^2 - x2^3"), p("x1*x2 + x2^4")])
    d = ideal.diagram(REV)
    assert inside == [1]
    # a hit runs no echelon
    assert ideal.diagram(REV) is d and inside == [1]


def test_tangent_cone_runs_no_echelon(monkeypatch):
    def refused(*args):
        raise AssertionError("an echelon ran though a completion was cached")

    gens = [p("x1^2 - x2^3"), p("x1*x2 + x2^4")]
    assert standard_basis._echelon_diagram(gens, REV) is not None
    ideal = IdealPresentation(2, gens)
    ideal.completion(REV, certificates=True)
    monkeypatch.setattr(standard_basis, "_echelon_diagram", refused)
    cone = tangent_cone_ideal(ideal)
    monkeypatch.undo()
    # the completion's vertex elements give the basis the echelon's rows give
    assert cone == tangent_cone_ideal(IdealPresentation(2, gens), REV)
    assert cone == [p("x1^2"), p("x1*x2"), p("x2^4")]


def test_concurrent_cone_reads_reduce_once(monkeypatch):
    reduced = []
    real = standard_basis._reduced_cone

    def counting(*args):
        reduced.append(args)
        return real(*args)

    monkeypatch.setattr(standard_basis, "_reduced_cone", counting)
    gens = [p("x1^2 + x2^2 + x1*x3 + x3^4", 3), p("x2*x3^2 - x1^4", 3)]
    ideal = IdealPresentation(3, gens)
    order = degree_order(3, REVERSE)
    count = 8
    start = threading.Barrier(count)
    cones, errors = [None] * count, []

    def reader(i):
        try:
            start.wait()
            cones[i] = tangent_cone_ideal(ideal, order)
        except BaseException as exc:  # reported by the main thread
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=reader, args=(i,)) for i in range(count)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
            assert not t.is_alive()
    finally:
        sys.setswitchinterval(interval)
    assert errors == []
    assert all(cone == cones[0] for cone in cones) and len(reduced) == 1
    assert cones[0] == [p("x1^2 + x2^2 + x1*x3", 3), p("x2*x3^2", 3)]


@pytest.mark.parametrize("n", [1, 3])
@pytest.mark.parametrize(
    "call",
    [
        pytest.param(lambda I, order: oracle_staircase(I, order, 4), id="oracle_staircase"),
        pytest.param(
            lambda I, order: truncated_quotient_dim(I, order.form, 4), id="truncated_quotient_dim"
        ),
        pytest.param(lambda I, order: becker_check(list(I.generators), order), id="becker_check"),
        pytest.param(
            lambda I, order: weak_normal_form(I.generators[0], list(I.generators), order),
            id="weak_normal_form",
        ),
        pytest.param(lambda I, order: I.diagram(order), id="diagram"),
        pytest.param(lambda I, order: I.completion(order), id="completion"),
    ],
)
def test_an_order_on_another_number_of_variables_is_refused(call, n):
    I = IdealPresentation(2, [p("x1^2 - x2^3"), p("x1*x2")])
    with pytest.raises(DimensionMismatchError):
        call(I, degree_order(n))


def _fraction_cofactors(steps, packing, scale, start=()):
    """``_cofactors`` as it was on Fraction step scalars: the reference.
    It takes the same (num, den) pairs and turns them into Fractions."""
    scale = Fraction(*scale)
    terms = [(Fraction(*coeff), m, elem) for coeff, m, elem in start]
    for t, m, a, b, c in steps:
        terms.append((scale * b / a, m, t))
        if a != c:
            scale = scale * c / a
    den = lcm(*[coeff.denominator * elem.cof[0] for coeff, _, elem in terms])
    cof: dict = {}
    for coeff, m, elem in terms:
        eden, parts = elem.cof
        mult = coeff.numerator * (den // (coeff.denominator * eden))
        term = ((packing.xpart(m), mult),)
        for k, ck in parts.items():
            _mul_into(cof.setdefault(k, {}), term, ck.items())
    g = gcd(den, *chain.from_iterable(ck.values() for ck in cof.values()))
    if g != 1:
        den //= g
        cof = {k: {e: v // g for e, v in ck.items()} for k, ck in cof.items()}
    return den, cof


def _no_fraction(*args, **kwargs):
    raise AssertionError("a Fraction was built or combined inside _cofactors")


_FRACTION_ARITHMETIC = (
    "__new__", "__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
    "__truediv__", "__rtruediv__", "__neg__", "__pow__",
)


def _terms(polys):
    return [list(q.items()) for q in polys]


def _certified_outputs(ideal, order):
    """Completion certificates, Becker representations and division
    quotients and units of the ideal, term order included."""
    result = ideal.completion(order, certificates=True)
    basis = list(result.basis)
    out = [_terms(basis), [_terms(cert) for cert in result.certificates]]
    becker = becker_check(basis, order)
    out.append((becker.ok, becker.failure))
    for i, j, rep in becker.representations:
        if rep is not None:
            out.append((i, j, _terms(rep.quotients), list(rep.unit.items())))
    for g in ideal.generators:
        nf = weak_normal_form(g, basis, order)
        out.append((_terms(nf.quotients), list(nf.unit.items()), list(nf.remainder.items())))
    return out


def test_integer_cofactors_match_the_fraction_reference_on_the_corpus(monkeypatch):
    # the engine builds no Fraction: it has no name to build one with
    assert not hasattr(standard_basis, "Fraction")
    real = standard_basis._cofactors
    calls = []

    def integer_only(steps, packing, scale, start=()):
        with monkeypatch.context() as m:
            for name in _FRACTION_ARITHMETIC:
                m.setattr(Fraction, name, _no_fraction)
            den, cof = real(steps, packing, scale, start)
        assert den > 0
        assert gcd(den, *chain.from_iterable(ck.values() for ck in cof.values())) == 1
        calls.append(den)
        return den, cof

    ideals = corpus()
    for ideal in ideals:
        n = ideal.n
        for order in (degree_order(n), LocalOrder(PositiveLinearForm((2,) + (1,) * (n - 1)))):
            monkeypatch.setattr(standard_basis, "_cofactors", _fraction_cofactors)
            want = _certified_outputs(IdealPresentation(n, ideal.generators), order)
            monkeypatch.setattr(standard_basis, "_cofactors", integer_only)
            got = _certified_outputs(IdealPresentation(n, ideal.generators), order)
            assert got == want, (ideal, order)
    assert len(calls) > 1000 and max(calls) > 1


# sha256 of the outputs below over the corpus, recorded before the engine's
# step scalars became integer pairs; any change to a certificate, quotient,
# unit or remainder, or to the order of its terms, changes it
_CERTIFIED_OUTPUTS_SHA256 = "58fc72dea0720707948343ac59457156343423d645dbd75a2759e444dfd3f93d"


def test_certified_outputs_repeat_byte_for_byte_on_the_corpus():
    digest = hashlib.sha256()
    for ideal in corpus():
        n = ideal.n
        for order in (degree_order(n), LocalOrder(PositiveLinearForm((2,) + (1,) * (n - 1)))):
            outputs = _certified_outputs(IdealPresentation(n, ideal.generators), order)
            digest.update(repr(outputs).encode())
    assert digest.hexdigest() == _CERTIFIED_OUTPUTS_SHA256
