import gc
import random
import sys
import threading
import weakref
from math import gcd, lcm

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
from germlab.oracle import TruncationBasis, _integer_rows, _normalize
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


def _reference_echelon(rows) -> dict:
    """The echelon as it was before rows were sorted or dropped: rows in the
    given order, each reduced to the end."""
    pivots: dict = {}
    for r in rows:
        while r:
            lead = min(r)
            p = pivots.get(lead)
            if p is None:
                pivots[lead] = _normalize(r)
                break
            a, b = r[lead], p[lead]
            g = gcd(a, b)
            a, b = a // g, b // g
            new = {c: b * v for c, v in r.items()}
            for c, v in p.items():
                acc = new.get(c, 0) - a * v
                if acc:
                    new[c] = acc
                elif c in new:
                    del new[c]
            r = _normalize(new) if new else {}
    return pivots


@pytest.mark.parametrize("weights", [(1, 1), (1, 2), (2, 1)])
@pytest.mark.parametrize("tiebreak", [FORWARD, REVERSE])
def test_pivot_columns_match_the_reference_echelon_in_any_row_order(weights, tiebreak):
    rational = IdealPresentation(
        2, [p("1/2*x1^2 - 2/3*x2^3"), p("x1*x2 + 3/5*x2^2"), p("x2 - 7/4*x1^3")]
    )
    rng = random.Random(f"echelon-{weights}-{tiebreak}")
    for ideal in [rational, *corpus(n2=12, n3=4)]:
        order = LocalOrder(PositiveLinearForm(weights + (1,) * (ideal.n - 2)), tiebreak)
        for eta in range(9):
            tb = TruncationBasis.build(order, eta)
            rows = _integer_rows(ideal, tb)
            expected = sorted(_reference_echelon(rows))
            shuffled = list(rows)
            rng.shuffle(shuffled)
            for given in (rows, rows[::-1], shuffled):
                got = oracle._echelon(given, len(tb.monomials))
                assert sorted(got) == expected, (ideal, order, eta)
            summary = oracle.truncated_echelon(ideal, order, eta)
            assert list(summary.pivot_columns) == expected


def test_a_row_past_the_last_free_column_is_dropped_partway(monkeypatch):
    # columns 1, x1, x2, x1^2, x1*x2, x2^2; taken by descending lead,
    # x2*(x2 + x1*x2) and x1*(x2 + x1*x2) give pivots at x2^2 and x1*x2
    # (their copies from x2 + x2^2 are dropped on entry) and x2 + x1*x2 one
    # at x2, so x1^2 is the last free column.  x2 + x2^2 then reduces once,
    # to x2^2 - x1*x2 with lead x1*x2, past x1^2, and is dropped there
    # instead of being reduced to zero in two more steps.
    ideal = IdealPresentation(2, [p("x2 + x1*x2"), p("x2 + x2^2")])
    order = degree_order(2, REVERSE)
    tb = TruncationBasis.build(order, 2)
    expected = _reference_echelon(_integer_rows(ideal, tb))
    leads = []

    def recording(row):
        leads.append(tb.monomials[min(row)])
        return _normalize(row)

    monkeypatch.setattr(oracle, "_normalize", recording)
    assert oracle_staircase(ideal, order, 2) == {(0, 2), (1, 1), (0, 1)}
    assert {tb.monomials[c] for c in expected} == {(0, 2), (1, 1), (0, 1)}
    # three pivots, then the one step of x2 + x2^2
    assert leads == [(0, 2), (1, 1), (0, 1), (1, 1)]


def test_column_boxes_are_built_once_per_order_and_eta(monkeypatch):
    built = []
    build = TruncationBasis.build.__func__

    def counting(cls, order, eta):
        built.append((order, eta))
        return build(cls, order, eta)

    monkeypatch.setattr(TruncationBasis, "build", classmethod(counting))
    oracle._columns.cache_clear()
    gens = [p("x1^2 - x2^3"), p("x1*x2")]
    first = IdealPresentation(2, gens)
    second = IdealPresentation(2, [p("x1^3"), p("x2^2 + x1*x2")])
    orders = [degree_order(2, FORWARD), degree_order(2, REVERSE)]
    for ideal in (first, second):
        for order in orders:
            for eta in (4, 6):
                oracle_staircase(ideal, order, eta)
    assert len(built) == 4
    assert set(built) == {(order, eta) for order in orders for eta in (4, 6)}
    # an equal order made afresh, on a new presentation, reads the same box
    again = LocalOrder(PositiveLinearForm((1, 1)), FORWARD)
    summary = oracle.truncated_echelon(IdealPresentation(2, gens), again, 6)
    assert len(built) == 4
    assert summary.basis is oracle.truncated_echelon(second, orders[0], 6).basis
    maxsize = oracle._columns.cache_info().maxsize
    assert maxsize is not None and maxsize <= 32
