import pytest

from germlab import (
    Diagram,
    PositiveLinearForm,
    complement_count,
    degree_form,
    diagrams_equal_up_to,
    has_axis_vertices,
    hilbert_samuel,
    product_structure,
    staircase_dimension,
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
    for n in (2, 3):
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


def test_hilbert_samuel_examples():
    assert hilbert_samuel(Diagram(2), 4).to_list() == [
        (e + 1) * (e + 2) // 2 for e in range(5)
    ]
    d = vertices_from_exponents({(2, 0)})
    assert hilbert_samuel(d, 5).to_list() == [1] + [2 * e + 1 for e in range(1, 6)]
    d3 = vertices_from_exponents({(2, 0), (1, 1), (0, 4)})
    assert hilbert_samuel(d3, 6).to_list() == [1, 3, 4, 5, 5, 5, 5]


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
