from fractions import Fraction
from itertools import combinations

import pytest

from germlab import (
    DimensionMismatchError,
    Diagram,
    IdealPresentation,
    Poly,
    PositiveLinearForm,
    complement_count,
    degree_form,
    diagrams_equal_up_to,
    has_axis_vertices,
    hilbert_samuel,
    invert_matrix,
    product_structure,
    staircase_dimension,
    parse_poly,
    vertices_from_exponents,
)
from germlab.seeding import make_rng


def brute_complement(d, form, eta):
    """Exhaustive lattice enumeration oracle."""
    n = d.n
    count = 0

    def rec(i, prefix, budget):
        nonlocal count
        if i == n:
            if not d.member(tuple(prefix)):
                count += 1
            return
        w = form.weights[i]
        for b in range(budget // w + 1):
            prefix.append(b)
            rec(i + 1, prefix, budget - w * b)
            prefix.pop()

    rec(0, [], eta)
    return count


def test_vertices_minimality():
    d = vertices_from_exponents({(2, 0), (1, 1), (2, 1)})
    assert d.vertices == frozenset({(2, 0), (1, 1)})
    assert vertices_from_exponents(set(), 2).is_empty
    d2 = vertices_from_exponents({(1, 0), (0, 1)})
    assert d2.vertices == frozenset({(1, 0), (0, 1)})


def test_vertices_idempotent():
    d = vertices_from_exponents({(2, 0), (1, 1), (0, 4), (3, 2)})
    assert vertices_from_exponents(d.vertices, 2) == d


def test_membership():
    d = vertices_from_exponents({(2, 0), (0, 3)})
    assert d.member((2, 5)) and d.member((4, 0)) and d.member((0, 3))
    assert not d.member((1, 2)) and not d.member((0, 0))


def test_complement_count_examples():
    form = degree_form(2)
    assert complement_count(Diagram(2), form, 3) == 10
    d = vertices_from_exponents({(1, 0), (0, 1)})
    for eta in range(5):
        assert complement_count(d, form, eta) == 1
    d3 = vertices_from_exponents({(2, 0), (1, 1), (0, 4)})
    assert complement_count(d3, form, 4) == 5


def test_complement_count_against_enumeration():
    rng = make_rng("diagram-oracle")
    # n = 1 and 4 come after the first two, so those draws stay as they were
    for n in (2, 3, 1, 4):
        for _ in range(25):
            exps = {
                tuple(rng.randint(0, 4) for _ in range(n))
                for _ in range(rng.randint(0, 4))
            }
            exps = {e for e in exps if sum(e) > 0}
            d = vertices_from_exponents(exps, n)
            weights = tuple(rng.randint(1, 3) for _ in range(n))
            form = PositiveLinearForm(weights)
            eta = rng.randint(0, 7)
            assert complement_count(d, form, eta) == brute_complement(d, form, eta)


def test_staircase_counts_on_2000_variables():
    # one pass per variable, no recursion: (x1) on 2000 variables
    n = 2000
    d = Diagram(n, frozenset({(1,) + (0,) * (n - 1)}))
    assert hilbert_samuel(d, 2).to_list() == [1, 2000, 2001000]
    assert complement_count(d, degree_form(n), 2) == 2001000
    # weights 1, 2, 1, 2, ...: 999 free variables of weight 1, 1000 of weight 2
    form = PositiveLinearForm((1, 2) * (n // 2))
    assert complement_count(d, form, 2) == 1 + 999 + 999 * 1000 // 2 + 1000


def test_hilbert_samuel_examples():
    assert hilbert_samuel(Diagram(2), 4).to_list() == [
        (e + 1) * (e + 2) // 2 for e in range(5)
    ]
    d = vertices_from_exponents({(2, 0)})
    assert hilbert_samuel(d, 5).to_list() == [1] + [2 * e + 1 for e in range(1, 6)]
    d3 = vertices_from_exponents({(2, 0), (1, 1), (0, 4)})
    assert hilbert_samuel(d3, 6).to_list() == [1, 3, 4, 5, 5, 5, 5]


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_hilbert_samuel_against_enumeration(n):
    rng = make_rng("hs-oracle", n)
    form = degree_form(n)
    diagrams = [Diagram(n), Diagram(n, frozenset({(0,) * n}))]
    for _ in range(12):
        exps = {
            tuple(rng.randint(0, 4) for _ in range(n))
            for _ in range(rng.randint(1, 5))
        }
        diagrams.append(vertices_from_exponents({e for e in exps if sum(e) > 0}, n))
    for d in diagrams:
        for eta_max in (0, 6 - n):
            assert hilbert_samuel(d, eta_max).to_list() == [
                brute_complement(d, form, eta) for eta in range(eta_max + 1)
            ]


def test_hs_monotone():
    d = vertices_from_exponents({(3, 0), (0, 2)})
    hs = hilbert_samuel(d, 8).values
    assert all(a <= b for a, b in zip(hs, hs[1:]))
    assert hs[0] >= 1


def test_axis_vertices():
    assert has_axis_vertices(vertices_from_exponents({(2, 0), (0, 4)}), 2)
    assert not has_axis_vertices(vertices_from_exponents({(2, 0)}), 2)
    assert not has_axis_vertices(vertices_from_exponents({(1, 1)}), 1)
    with pytest.raises(ValueError):
        has_axis_vertices(Diagram(2), 3)


def test_product_structure():
    assert product_structure(vertices_from_exponents({(2, 0)}), 1) == [(2,)]
    assert product_structure(vertices_from_exponents({(1, 1)}), 1) is None
    assert product_structure(Diagram(2), 1) == []
    d3 = vertices_from_exponents({(2, 0, 0), (1, 1, 0)}, 3)
    assert product_structure(d3, 2) == [(1, 1), (2, 0)]
    assert product_structure(d3, 1) is None


def test_diagrams_equal_up_to():
    form = degree_form(2)
    d = vertices_from_exponents({(2, 0)})
    assert diagrams_equal_up_to(d, d, form, 10)
    d2 = vertices_from_exponents({(2, 0), (0, 9)})
    assert diagrams_equal_up_to(d, d2, form, 8)
    assert not diagrams_equal_up_to(d, d2, form, 9)
    assert diagrams_equal_up_to(
        vertices_from_exponents({(1, 0)}), Diagram(2), form, 0
    )


def test_diagrams_equal_up_to_matches_enumeration():
    rng = make_rng("equal-up-to")
    form = degree_form(2)
    for _ in range(40):
        ds = []
        for _ in range(2):
            exps = {
                (rng.randint(0, 4), rng.randint(0, 4))
                for _ in range(rng.randint(0, 3))
            }
            ds.append(vertices_from_exponents({e for e in exps if sum(e)}, 2))
        l = rng.randint(0, 8)
        brute = all(
            ds[0].member((a, b)) == ds[1].member((a, b))
            for a in range(l + 1)
            for b in range(l + 1 - a)
        )
        assert diagrams_equal_up_to(ds[0], ds[1], form, l) == brute


def test_monotone_under_added_exponent():
    form = degree_form(2)
    d = vertices_from_exponents({(2, 1)})
    bigger = vertices_from_exponents(set(d.vertices) | {(0, 3)}, 2)
    for eta in range(8):
        assert complement_count(bigger, form, eta) <= complement_count(d, form, eta)
    assert bigger.contains(d)


def test_staircase_dimension_examples():
    assert staircase_dimension(Diagram(3)) == 3
    assert staircase_dimension(Diagram(2, frozenset({(1, 1)}))) == 1  # x1*x2
    assert staircase_dimension(Diagram(2, frozenset({(1, 0), (0, 1)}))) == 0  # (x1, x2)
    # (x1*x2, x1*x3): the plane x1 = 0
    assert staircase_dimension(Diagram(3, frozenset({(1, 1, 0), (1, 0, 1)}))) == 2
    assert staircase_dimension(Diagram(2, frozenset({(0, 0)}))) == -1  # unit ideal


def enumerated_dimension(d):
    """The largest coordinate set containing no vertex support, by trying
    every subset from size n down (the reference the search must match)."""
    supports = [{i for i, e in enumerate(v) if e} for v in d.vertices]
    for size in range(d.n, -1, -1):
        for s in map(set, combinations(range(d.n), size)):
            if not any(sup <= s for sup in supports):
                return size
    return -1


def test_staircase_dimension_against_enumeration():
    rng = make_rng("staircase-dimension-search")
    for _ in range(300):
        n = rng.randint(1, 7)
        exps = {
            tuple(rng.randint(0, 1) * rng.randint(1, 3) for _ in range(n))
            for _ in range(rng.randint(0, 6))
        }
        d = vertices_from_exponents(exps, n)
        assert staircase_dimension(d) == enumerated_dimension(d), d
    # 20 axes of 40 variables: the enumeration would try C(40, 20) sets
    axes = vertices_from_exponents([tuple(int(j == i) for j in range(40)) for i in range(20)], 40)
    assert staircase_dimension(axes) == 20


def test_staircase_dimension_is_the_hilbert_samuel_degree():
    # H(eta) of a quotient of dimension d grows like eta^d: the differences
    # of order d of the complement counts settle at a positive constant
    rng = make_rng("staircase-dimension")
    for _ in range(60):
        n = rng.randint(1, 3)
        exps = [tuple(rng.randint(0, 3) for _ in range(n)) for _ in range(rng.randint(1, 3))]
        d = vertices_from_exponents([e for e in exps if any(e)] or [(1,) * n], n)
        dim = staircase_dimension(d)
        values = hilbert_samuel(d, 16).to_list()
        for _ in range(dim):
            values = [b - a for a, b in zip(values, values[1:])]
        assert values[-1] == values[-2] > 0, d


_D = Diagram(2, {(1, 0)})


@pytest.mark.parametrize(
    "call, error",
    [
        pytest.param(
            lambda: parse_poly("x1 + x2^2", 2).mul_term(3, (1,)),
            DimensionMismatchError,
            id="mul_term-short",
        ),
        pytest.param(
            lambda: parse_poly("x1 + x2^2", 2).mul_term(3, (1, -2)),
            ValueError,
            id="mul_term-negative",
        ),
        pytest.param(lambda: _D.member((1,)), DimensionMismatchError, id="member-short"),
        pytest.param(
            lambda: _D.contains(Diagram(3, {(1, 0, 5)})), DimensionMismatchError, id="contains"
        ),
        pytest.param(
            lambda: _D.max_vertex_weight(PositiveLinearForm((1, 2, 3))),
            DimensionMismatchError,
            id="max_vertex_weight",
        ),
        pytest.param(
            lambda: diagrams_equal_up_to(_D, _D, PositiveLinearForm((1, 2, 3)), 4),
            DimensionMismatchError,
            id="diagrams_equal_up_to",
        ),
        pytest.param(lambda: invert_matrix([[1, 2]]), DimensionMismatchError, id="invert_matrix"),
        pytest.param(
            lambda: IdealPresentation(2, [Poly.variable(3, 0)]),
            DimensionMismatchError,
            id="IdealPresentation",
        ),
    ],
)
def test_size_and_sign_mismatches_are_refused(call, error):
    # a wrong size is a DimensionMismatchError, a negative exponent a plain
    # ValueError; neither gives an answer
    with pytest.raises(ValueError) as raised:
        call()
    assert raised.type is error


def test_total_degree_defaults_read_the_unit_weights():
    # max_vertex_weight() and hilbert_samuel build no form: they agree with
    # the total-degree form and, as it does, refuse zero coordinates
    d = Diagram(3, {(2, 0, 1), (0, 4, 0), (1, 1, 1)})
    assert d.max_vertex_weight() == d.max_vertex_weight(degree_form(3)) == 4
    assert hilbert_samuel(d, 6).to_list() == [
        complement_count(d, degree_form(3), eta) for eta in range(7)
    ]
    assert Diagram(2).max_vertex_weight() == 0
    for call in (Diagram(0).max_vertex_weight, lambda: hilbert_samuel(Diagram(0), 2)):
        with pytest.raises(ValueError, match="at least one weight"):
            call()


def test_exponents_off_the_lattice_are_refused():
    # vertices and members live in N^n: a negative entry used to build a
    # diagram containing (1, 0) and (5, -1), and to make member answer
    with pytest.raises(ValueError):
        Diagram(2, {(1, -1)})
    with pytest.raises(ValueError):
        Diagram(2, {(1, 0.5)})
    with pytest.raises(ValueError):
        Diagram(2, {(1, 0)}).member((5, -1))
    with pytest.raises(ValueError):
        Diagram(2, {(1, 0)}).member((1, -3))
    # a coordinate that is not an int is refused as it is in a vertex; (1, 0.5)
    # used to count as a member of the staircase of (1, 0)
    for off in ((1, 0.5), (2.0, 1), (1, Fraction(1)), (1, "a")):
        with pytest.raises(ValueError, match=r"is not in N\^2$"):
            Diagram(2, {(1, 0)}).member(off)
        with pytest.raises(ValueError, match=r"is not in N\^2$"):
            Diagram(2, {off})
    assert Diagram(2, {(1, 0)}).member((1, 3))
    assert not Diagram(2, {(1, 0)}).member((0, 3))
