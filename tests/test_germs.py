import pytest

from germlab import (
    REVERSE,
    IdealPresentation,
    MapGerm,
    NotFlatError,
    Poly,
    UnitIdealError,
    analyze_germ,
    cm_certify,
    degree_order,
    determinacy_order,
    diagram_of_ideal,
    dimension_at_origin,
    fibre_ideal,
    flatness_check,
    ideal_membership,
    parse_poly,
    tangent_cone_ideal,
    tangent_cones_equal,
)
from germlab import germs, standard_basis
from germlab.diagram import axis_vertex_prefix
from germlab.seeding import make_rng

from _corpus import random_poly


def p(text, n=2):
    return parse_poly(text, n)


def ideal(*texts, n=2):
    return IdealPresentation(n, [parse_poly(t, n) for t in texts])


def test_dimension_examples():
    assert dimension_at_origin(ideal("x1", "x2"), 1).dim == 0
    assert dimension_at_origin(ideal("x1*x2"), 1).dim == 1
    assert dimension_at_origin(IdealPresentation(2, []), 1).dim == 2
    with pytest.raises(UnitIdealError):
        dimension_at_origin(ideal("1 + x1"), 1)


def test_dimension_reseed_invariance():
    for texts, expected in [
        (("x1*x2",), 1),
        (("x1^2 - x2^3",), 1),
        (("x1", "x2"), 0),
    ]:
        I = ideal(*texts)
        results = [dimension_at_origin(I, seed).dim for seed in range(5)]
        assert results == [expected] * 5


def test_dimension_axis_arithmetic():
    # the identity leaves x1*x2 with no axis vertex; the Pascal matrix,
    # the second change tried, is a witness and ends the search
    I = ideal("x1*x2")
    order = degree_order(2, REVERSE)
    assert axis_vertex_prefix(diagram_of_ideal(I, order)) == 0
    res = dimension_at_origin(I, 3)
    assert res.dim + res.axis_count == 2
    assert res.stabilized
    assert res.trials == 2
    assert res.change == ((1, 1), (1, 2))
    assert axis_vertex_prefix(diagram_of_ideal(germs._changed_ideal(I, res.change), order)) == 1


def test_dimension_needs_no_change_when_the_identity_is_a_witness():
    for I in (ideal("x1", "x2"), IdealPresentation(2, []), ideal("x1^2 - x2^3")):
        res = dimension_at_origin(I, 1)
        assert res.trials == 1 and res.stabilized
        assert res.change == ((1, 0), (0, 1))


def _stabilized_dimension(ideal, rng_seed, max_trials=60, stable_runs=6):
    """The search that used to decide the dimension: the best axis-vertex
    count over changes, accepted once it reaches n or survives stable_runs
    consecutive random changes unimproved."""
    order = degree_order(ideal.n, REVERSE)
    n = ideal.n
    rng = make_rng(rng_seed, "dimension-at-origin")
    fixed = germs._fixed_changes(n)
    best_k, best, since_improved = -1, None, 0
    for trial in range(max_trials):
        if trial < len(fixed):
            matrix = fixed[trial]
        else:
            matrix = germs._random_invertible(rng, n, 2 + (trial - len(fixed)) // 2)
        d = diagram_of_ideal(germs._changed_ideal(ideal, matrix), order)
        k = axis_vertex_prefix(d)
        if k > best_k:
            best_k, best, since_improved = k, (matrix, d), 0
        elif trial >= len(fixed):
            since_improved += 1
        if best_k == n or since_improved >= stable_runs:
            break
    matrix, d = best
    return n - best_k, matrix, d


def test_dimension_matches_the_stabilization_protocol():
    rng = make_rng("dimension-vs-stabilization")
    dims, searched = set(), 0
    for trial in range(160):
        n = 2 + trial % 2
        gens = [random_poly(rng, n, max_degree=3, max_terms=3) for _ in range(rng.randint(1, n))]
        I = IdealPresentation(n, gens)
        seed = rng.randint(1, 10**6)
        res = dimension_at_origin(I, seed)
        assert (res.dim, res.change, res.diagram) == _stabilized_dimension(I, seed), gens
        assert res.stabilized
        dims.add((n, res.dim))
        searched += res.trials > 1
    # every dimension below n occurs, and many cases needed a search
    assert dims == {(2, 0), (2, 1), (3, 0), (3, 1), (3, 2)}
    assert searched >= 40


def test_map_germ_validation():
    with pytest.raises(ValueError):
        MapGerm(2, (p("1 + x1"),))
    with pytest.raises(ValueError):
        MapGerm(2, ())
    germ = MapGerm(2, (p("x1 - x2"),))
    assert germ.m == 1


def test_cm_certify_examples():
    res = cm_certify(ideal("x1^2 - x2^3"), 6, 1)
    assert res.certified and res.l == 1 and res.k == 1
    free = cm_certify(IdealPresentation(2, []), 6, 1)
    assert free.certified
    artinian = cm_certify(ideal("x1", "x2"), 6, 1)
    assert artinian.certified
    mixed = cm_certify(
        IdealPresentation(3, [parse_poly("x1*x2", 3), parse_poly("x1*x3", 3)]), 4, 1
    )
    assert mixed.status == "not-certified" and mixed.l is None


def test_flatness_worked_examples():
    I = ideal("x1*x2")
    flat = flatness_check(I, MapGerm(2, (p("x1 - x2"),)), 7)
    assert flat.flat and flat.fibre_dimension == 0 and flat.expected == 0
    assert flat.fibre_diagram.vertices == frozenset({(1, 0), (0, 2)})

    not_flat = flatness_check(I, MapGerm(2, (p("x1"),)), 7)
    assert not not_flat.flat and not_flat.fibre_dimension == 1

    free = flatness_check(IdealPresentation(2, []), MapGerm(2, (p("x1"),)), 7)
    assert free.flat and free.fibre_dimension == 1


def test_flatness_verdict_carries_its_fibre():
    I, phi = ideal("x1*x2"), MapGerm(2, (p("x1 - x2"),))
    verdict = flatness_check(I, phi, 7)
    assert verdict.fibre_presentation.generators == fibre_ideal(I, phi).generators
    # the presentation is neither reported nor compared
    assert verdict.as_dict() == flatness_check(I, phi, 7).as_dict()
    assert verdict == flatness_check(I, phi, 7)
    assert "IdealPresentation" not in repr(verdict)


def test_flatness_too_many_components():
    verdict = flatness_check(
        ideal("x1", "x2"), MapGerm(2, (p("x1 - x2"),)), 7
    )
    assert not verdict.flat and verdict.expected < 0


def test_fibre_hs_finite_iff_dim_matches():
    # flat with fibre dimension 0: complement eventually stabilizes
    flat = flatness_check(ideal("x1*x2"), MapGerm(2, (p("x1 - x2"),)), 7)
    hs = flat.fibre_hs.to_list()
    assert hs[-1] == hs[-2]
    # flat with fibre dimension 1: complement keeps growing
    free = flatness_check(IdealPresentation(2, []), MapGerm(2, (p("x1"),)), 7)
    hs2 = free.fibre_hs.to_list()
    assert hs2[-1] > hs2[-2]


def test_determinacy_order_examples():
    bound = determinacy_order(ideal("x1*x2"), MapGerm(2, (p("x1 - x2"),)), 7)
    assert bound.mu0 == 2

    free3 = IdealPresentation(3, [])
    germ = MapGerm(3, tuple(parse_poly(f"x{i+1}", 3) for i in range(2)))
    assert determinacy_order(free3, germ, 7).mu0 == 1

    cusp = determinacy_order(ideal("x1^2 - x2^3"), MapGerm(2, (p("x2"),)), 7)
    assert cusp.mu0 == 2
    assert set(cusp.fibre_vertices) == {(2, 0), (0, 1)}

    with pytest.raises(NotFlatError):
        determinacy_order(ideal("x1*x2"), MapGerm(2, (p("x1"),)), 7)


def test_tangent_cone_examples():
    assert tangent_cone_ideal(ideal("x1^2 - x2^3")) == [p("x1^2")]
    cone = tangent_cone_ideal(ideal("x1^2 - x2^3", "x1*x2"))
    assert cone == [p("x1^2"), p("x1*x2"), p("x2^4")]
    assert tangent_cone_ideal(ideal("x1", "x2")) == [p("x1"), p("x2")]
    for g in cone:
        assert g.total_degree() == g.min_total_degree()


def test_tangent_cones_equal_examples():
    I = ideal("x1^2 - x2^3")
    assert tangent_cones_equal(I, I)
    assert tangent_cones_equal(I, ideal("x1^2 + x2^5"))
    assert not tangent_cones_equal(ideal("x1"), ideal("x2"))


def test_cones_differ_with_equal_diagrams():
    # both diagrams are {(2, 0)}, but the cones are (x1^2) and (x1^2 + x1*x2)
    a, b = ideal("x1^2"), ideal("x1^2 + x1*x2")
    order = degree_order(2, REVERSE)
    assert diagram_of_ideal(a, order) == diagram_of_ideal(b, order)
    assert not tangent_cones_equal(a, b)
    assert not tangent_cones_equal(b, a)


def test_cones_of_the_zero_ideal():
    zero = IdealPresentation(2, [])
    assert tangent_cones_equal(zero, zero)
    assert not tangent_cones_equal(zero, ideal("x1^2"))
    assert not tangent_cones_equal(ideal("x1^2"), zero)


def test_cones_of_a_unit_ideal_raise():
    unit = ideal("1 + x1")
    with pytest.raises(UnitIdealError):
        tangent_cones_equal(unit, ideal("x1^2"))
    with pytest.raises(UnitIdealError):
        tangent_cones_equal(ideal("x1^2"), unit)


def _cones_equal_by_mutual_membership(a, b):
    """Completed cone presentations, membership both ways."""
    order = degree_order(a.n, REVERSE)
    gens_a = tangent_cone_ideal(a, order)
    gens_b = tangent_cone_ideal(b, order)
    cone_a, cone_b = IdealPresentation(a.n, gens_a), IdealPresentation(b.n, gens_b)
    return all(ideal_membership(g, cone_a, order) for g in gens_b) and all(
        ideal_membership(g, cone_b, order) for g in gens_a
    )


def _verdict(equal, a, b):
    try:
        return equal(a, b)
    except UnitIdealError:
        return "unit"


def _cone_pair(rng, n):
    """A random ideal and a partner: a higher-order tail, a change of the
    initial forms that may keep the diagram, an unrelated ideal, or a unit."""
    gens = [random_poly(rng, n, max_degree=3, max_terms=3) for _ in range(rng.randint(1, 2))]
    kind = rng.randrange(4)
    if kind == 0:
        other = [g + random_poly(rng, n, max_degree=5, max_terms=2, min_term_degree=4) for g in gens]
    elif kind == 1:
        other = []
        for g in gens:
            low = g.min_total_degree()
            other.append(g + random_poly(
                rng, n, max_degree=low, max_terms=1, min_terms=1, min_term_degree=low))
        other = [g for g in other if not g.is_zero]
    elif kind == 2:
        other = [random_poly(rng, n, max_degree=3, max_terms=3)]
    else:
        other = [Poly.constant(n, 1) + gens[0]]
    if rng.random() < 0.5:
        gens, other = other, gens
    return IdealPresentation(n, gens), IdealPresentation(n, other)


def test_cones_equal_matches_mutual_membership():
    rng = make_rng("cones-vs-membership")
    order_outcomes = set()
    same_diagram_outcomes = set()
    for trial in range(240):
        n = 2 + trial % 2
        a, b = _cone_pair(rng, n)
        got = _verdict(tangent_cones_equal, a, b)
        assert got == _verdict(_cones_equal_by_mutual_membership, a, b), (a, b)
        order_outcomes.add(got)
        if got != "unit":
            order = degree_order(n, REVERSE)
            if diagram_of_ideal(a, order) == diagram_of_ideal(b, order):
                same_diagram_outcomes.add(got)
    # every branch ran: units, and both verdicts among equal diagrams
    assert order_outcomes == {True, False, "unit"}
    assert same_diagram_outcomes == {True, False}


def test_cones_equal_completes_nothing_after_the_diagrams(monkeypatch):
    a, b = ideal("x1^2 - x2^3"), ideal("x1^2 + x2^5")
    order = degree_order(2, REVERSE)
    diagram_of_ideal(a, order)
    diagram_of_ideal(b, order)
    completed = []
    original = standard_basis._complete

    def counting(*args, **kwargs):
        completed.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(standard_basis, "_complete", counting)
    assert tangent_cones_equal(a, b)
    assert not tangent_cones_equal(a, ideal("x1^2 + x1*x2"))
    assert len(completed) == 1  # the one unseen ideal, nothing for either cone


def test_fibre_ideal_drops_zero_components():
    I = ideal("x1*x2")
    fib = fibre_ideal(I, MapGerm(2, (p("x1 - x2"),)))
    assert len(fib.generators) == 2


def test_analyze_germ_report():
    report = analyze_germ(ideal("x1^2 - x2^3"), 5, l_max=4, eta_max=6)
    assert report.dimension == 1
    assert report.cm.certified
    assert report.hs.to_list() == [1, 3, 5, 7, 9, 11, 13]
    payload = report.as_dict()
    assert payload["dimension"] == 1 and payload["cm"]["status"] == "certified"