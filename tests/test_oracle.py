import gc
import sys
import threading
import weakref
from math import lcm

import pytest

from germlab import (
    FORWARD,
    REVERSE,
    IdealPresentation,
    LocalOrder,
    Poly,
    PositiveLinearForm,
    degree_form,
    degree_order,
    oracle_hs,
    oracle_staircase,
    parse_poly,
    truncated_quotient_dim,
)
from germlab import oracle
from germlab.oracle import TruncationBasis, _integer_rows
from germlab.orders import exp_add, weighted_box

from _corpus import corpus


def p(text, n=2):
    return parse_poly(text, n)


def test_quotient_dim_examples():
    I = IdealPresentation(2, [p("x1"), p("x2")])
    assert truncated_quotient_dim(I, degree_form(2), 3) == 1
    I2 = IdealPresentation(2, [p("x1^2 - x2^3"), p("x1*x2")])
    assert truncated_quotient_dim(I2, degree_form(2), 4) == 5
    assert truncated_quotient_dim(IdealPresentation(2, []), degree_form(2), 2) == 6


def test_oracle_hs_examples():
    I = IdealPresentation(2, [p("x1^2 - x2^3"), p("x1*x2")])
    assert oracle_hs(I, 4).to_list() == [1, 3, 4, 5, 5]
    free = IdealPresentation(1, [])
    assert oracle_hs(free, 4).to_list() == [1, 2, 3, 4, 5]
    unit = IdealPresentation(2, [Poly.constant(2, 1)])
    assert oracle_hs(unit, 3).to_list() == [0, 0, 0, 0]


def test_oracle_staircase_examples():
    I = IdealPresentation(2, [p("x1^2 - x2^3")])
    got = oracle_staircase(I, degree_order(2, REVERSE), 4)
    expected = {(2, 0), (3, 0), (2, 1), (4, 0), (3, 1), (2, 2)}
    assert got == expected
    axes = IdealPresentation(2, [p("x1"), p("x2")])
    assert oracle_staircase(axes, degree_order(2, REVERSE), 1) == {(1, 0), (0, 1)}
    assert oracle_staircase(IdealPresentation(2, []), degree_order(2, FORWARD), 4) == set()


def test_rank_monotone_in_eta():
    I = IdealPresentation(2, [p("x1^2 - x2^3"), p("x1*x2 + x2^2")])
    dims = [truncated_quotient_dim(I, degree_form(2), eta) for eta in range(7)]
    assert all(a <= b for a, b in zip(dims, dims[1:]))


def test_weighted_form():
    from germlab import PositiveLinearForm

    # K{x}/(x2 + x1^2) is K{x1}, and x1^a has weight a under (1, 2)
    I = IdealPresentation(2, [p("x2 + x1^2")])
    form = PositiveLinearForm((1, 2))
    for eta in range(5):
        assert truncated_quotient_dim(I, form, eta) == eta + 1


def _counting_rows(monkeypatch):
    """Record (order, eta) of every row build the oracle makes."""
    built = []
    real = oracle._integer_rows

    def counting(ideal, tb):
        built.append((tb.order, tb.eta))
        return real(ideal, tb)

    monkeypatch.setattr(oracle, "_integer_rows", counting)
    return built


def test_one_echelon_per_presentation_order_and_eta(monkeypatch):
    built = _counting_rows(monkeypatch)
    I = IdealPresentation(2, [p("x1^2 - x2^3"), p("x1*x2")])
    forward = degree_order(2, FORWARD)
    stair = oracle_staircase(I, forward, 6)
    assert built == [(forward, 6)]
    # oracle_hs and the quotient dimension read the same forward echelon
    assert oracle_hs(I, 6).to_list() == [1, 3, 4, 5, 5, 5, 5]
    assert truncated_quotient_dim(I, degree_form(2), 6) == 5
    assert len(built) == 1
    # another eta, another order, another presentation: each builds its rows
    oracle_hs(I, 5)
    oracle_staircase(I, degree_order(2, REVERSE), 6)
    oracle_staircase(IdealPresentation(2, list(I.generators)), forward, 6)
    assert built[1:] == [(forward, 5), (degree_order(2, REVERSE), 6), (forward, 6)]
    # a caller's set is its own
    expected = set(stair)
    stair.add((9, 9))
    stair.discard((2, 0))
    assert oracle_staircase(I, forward, 6) == expected
    assert len(built) == 4


def test_the_echelon_memo_holds_its_presentation_weakly():
    I = IdealPresentation(2, [p("x1^2 - x2^3"), p("x1*x2")])
    oracle_staircase(I, degree_order(2, FORWARD), 6)
    assert I in oracle._ECHELONS
    held = len(oracle._ECHELONS)
    ref = weakref.ref(I)
    del I
    gc.collect()
    assert ref() is None
    assert len(oracle._ECHELONS) < held


def test_concurrent_oracle_reads_agree(monkeypatch):
    # two readers may both build an echelon before either stores it; what
    # they store and return is the same
    built = _counting_rows(monkeypatch)
    I = IdealPresentation(2, [p("x1^2 - x2^3"), p("x1*x2 + x2^2")])
    forward = degree_order(2, FORWARD)
    count = 8
    start = threading.Barrier(count)
    answers, errors = [None] * count, []

    def reader(i):
        try:
            start.wait()
            answers[i] = (oracle_staircase(I, forward, 6), oracle_hs(I, 6).to_list())
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
    assert 1 <= len(built) <= count
    assert all(a == answers[0] for a in answers)
    assert answers[0] == (
        oracle_staircase(IdealPresentation(2, list(I.generators)), forward, 6),
        oracle_hs(IdealPresentation(2, list(I.generators)), 6).to_list(),
    )
    assert list(oracle._ECHELONS[I]) == [(forward, 6)]


def _box_rows(ideal, tb):
    """The rows as they were enumerated before they were read off the
    sorted columns: per generator a freshly sorted weighted box of shifts,
    and every shifted term's weight tested."""
    form = tb.order.form
    eta = tb.eta
    rows = []
    for gen in ideal.generators:
        terms = sorted(gen.items(), key=lambda t: tb.order.key(t[0]))
        scale = lcm(*(c.denominator for _, c in terms)) if terms else 1
        int_terms = [(e, int(c * scale)) for e, c in terms]
        min_w = min(form.weight(e) for e, _ in int_terms)
        for alpha in sorted(weighted_box(form.weights, eta - min_w), key=tb.order.key):
            row = {}
            for e, c in int_terms:
                shifted = exp_add(e, alpha)
                if form.weight(shifted) <= eta:
                    row[tb.index[shifted]] = c
            if row:
                rows.append(row)
    return rows


@pytest.mark.parametrize("weights", [(1, 2), (2, 1)])
@pytest.mark.parametrize("tiebreak", [FORWARD, REVERSE])
def test_rows_are_the_sorted_box_enumeration(weights, tiebreak):
    order = LocalOrder(PositiveLinearForm(weights), tiebreak)
    rational = IdealPresentation(
        2, [p("1/2*x1^2 - 2/3*x2^3"), p("x1*x2 + 3/5*x2^2"), p("x2 - 7/4*x1^3")]
    )
    ideals = [rational, IdealPresentation(2, []), *corpus(n2=12, n3=0)]
    for ideal in ideals:
        for eta in range(8):
            tb = TruncationBasis.build(order, eta)
            got = _integer_rows(ideal, tb)
            assert [list(r.items()) for r in got] == [
                list(r.items()) for r in _box_rows(ideal, tb)
            ], (ideal, eta)
    assert _integer_rows(IdealPresentation(2, []), TruncationBasis.build(order, 5)) == []
