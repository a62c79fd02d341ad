from itertools import product

import pytest

from germlab import (
    FORWARD,
    REVERSE,
    DimensionMismatchError,
    LocalOrder,
    PositiveLinearForm,
    compare_exponents,
    degree_order,
)
from germlab.orders import EQUAL, GREATER, LESS, exp_divides, weighted_box


def test_form_validation():
    with pytest.raises(ValueError):
        PositiveLinearForm((1, 0))
    with pytest.raises(ValueError):
        PositiveLinearForm(())
    for weights in [(True, 2), (1, False)]:
        with pytest.raises(ValueError, match="positive integers"):
            PositiveLinearForm(weights)
    form = PositiveLinearForm((1, 3))
    assert form.weight((2, 1)) == 5
    assert form.weight((0, 0)) == 0


def test_weight_comparison_decides():
    order = degree_order(2, FORWARD)
    assert compare_exponents((2, 0), (0, 3), order) == LESS


def test_forward_tiebreak():
    order = degree_order(2, FORWARD)
    assert compare_exponents((1, 1), (2, 0), order) == LESS


def test_reverse_tiebreak():
    order = degree_order(2, REVERSE)
    assert compare_exponents((2, 0), (1, 1), order) == LESS


def test_equal_iff_same():
    order = degree_order(3, FORWARD)
    assert compare_exponents((1, 2, 0), (1, 2, 0), order) == EQUAL
    assert compare_exponents((1, 2, 1), (1, 2, 0), order) == GREATER


def test_dimension_mismatch():
    order = degree_order(2, FORWARD)
    with pytest.raises(DimensionMismatchError):
        compare_exponents((1, 0, 0), (0, 1, 0), order)
    with pytest.raises(DimensionMismatchError):
        compare_exponents((1, 0), (0, 1), degree_order(3, FORWARD))


def test_zero_is_minimum():
    for tiebreak in (FORWARD, REVERSE):
        order = LocalOrder(PositiveLinearForm((2, 5)), tiebreak)
        for exp in [(1, 0), (0, 1), (3, 4)]:
            assert compare_exponents((0, 0), exp, order) == LESS


def test_divisibility():
    assert exp_divides((1, 0, 2), (1, 1, 2))
    assert not exp_divides((2, 0), (1, 1))


@pytest.mark.parametrize("weights", [(1,), (1, 1), (1, 2), (2, 1), (3, 1, 2), (1, 1, 1, 1)])
def test_box_matches_a_brute_force_enumeration(weights):
    form = PositiveLinearForm(weights)
    for eta in range(-1, 9):
        brute = sorted(
            e for e in product(range(max(eta, 0) + 1), repeat=len(weights)) if form.weight(e) <= eta
        )
        assert weighted_box(weights, eta) == brute, (weights, eta)
    assert weighted_box(weights, -1) == []
    assert weighted_box(weights, 0) == [(0,) * len(weights)]
