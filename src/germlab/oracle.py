"""Independent brute-force verification by exact linear algebra.

Truncated quotient dimensions are computed from scratch: rows are the
weight-truncated monomial multiples of the generators, columns are the
monomials of weight <= eta sorted by the order under test, and the rank is
found by exact integer elimination (denominators cleared per row, rows kept
primitive by gcd).  Pivot columns of the echelon form are precisely the
initial exponents realized inside the truncation, which is what makes this
an oracle for diagrams as well as for Hilbert-Samuel tables.  It exists to
be trusted, not to be fast, and stays plain: exponent tuples, dict rows
and gcds, with nothing taken from the completion engine.  Its columns and
row shifts come from ``orders.weighted_box``, a primitive at the level of
the order keys it sorts them by, and checked against a brute-force
enumeration of its own.  One echelon is kept per (presentation, order,
eta), held weakly by the presentation, so ``oracle_hs`` reads the
forward-degree echelon ``oracle_staircase`` built for the same eta.  The
sorted columns depend on (order, eta) alone, so a small bounded cache
shares one column box among all presentations, and the box keeps, per
generator exponent, the columns of its shifts, off which rows are read.

The elimination skips work that cannot change its answer.  The pivot
columns are the leads of the row space, whatever order the rows come in,
so rows are taken by descending lead and fill the high columns first.
Past the last column without a pivot every column has one, and each
reduction step raises a row's lead, so a row whose lead lies there
reduces to zero: it is dropped at once.
"""

from __future__ import annotations

import weakref
from bisect import bisect_right
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import accumulate
from math import gcd
from operator import add

from .diagram import HilbertSamuelTable
from .errors import DimensionMismatchError
from .orders import FORWARD, LocalOrder, PositiveLinearForm, degree_order, weighted_box
from .poly import _integral
from .standard_basis import IdealPresentation

# truncated_echelon's summaries, {(order, eta): summary} per presentation;
# a presentation that is collected takes its entry with it
_ECHELONS: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


@dataclass(frozen=True)
class TruncationBasis:
    """Monomials of weight <= eta, sorted ascending by a local order, with
    the weight of each, and per exponent e the column indices of e + alpha
    over the columns alpha that fit (filled by ``_shifted``)."""

    order: LocalOrder
    eta: int
    monomials: tuple
    index: dict
    weights: tuple
    shifted: dict = field(default_factory=dict, compare=False, repr=False)

    @classmethod
    def build(cls, order: LocalOrder, eta: int) -> "TruncationBasis":
        monos = sorted(weighted_box(order.form.weights, eta), key=order.key)
        return cls(
            order,
            eta,
            tuple(monos),
            {m: i for i, m in enumerate(monos)},
            tuple(map(order.form.weight, monos)),
        )


# a few (order, eta) column boxes at a time: oracle-check puts no cap on eta
@lru_cache(maxsize=16)
def _columns(order: LocalOrder, eta: int) -> TruncationBasis:
    return TruncationBasis.build(order, eta)


def _shifted(tb: TruncationBasis, e) -> list:
    """The column of e + alpha for each column alpha of weight at most
    eta - weight(e), in column order, built once per exponent and box.
    The columns go up by weight, so those alpha are a prefix of them."""
    got = tb.shifted.get(e)
    if got is None:
        fit = bisect_right(tb.weights, tb.eta - tb.order.form.weight(e))
        index = tb.index
        got = tb.shifted[e] = [index[tuple(map(add, e, a))] for a in tb.monomials[:fit]]
    return got


def _integer_rows(ideal: IdealPresentation, tb: TruncationBasis):
    """Truncated jets of x^alpha * F_i as sparse integer rows.

    Per generator the shifts alpha are the columns themselves, in column
    order, up to weight eta minus the generator's order, so every row keeps
    at least that lowest-weight term; a term e stays when its weight fits
    in what alpha leaves of eta, that is, while ``_shifted(tb, e)`` still
    has a column for alpha.
    """
    key = tb.order.key
    rows = []
    for gen in ideal.generators:
        # the stored numerators are gen times its least common denominator
        terms = sorted(_integral(gen)[1].items(), key=lambda t: key(t[0]))
        shifted = [(_shifted(tb, e), c) for e, c in terms]
        lists = [(cols, len(cols), c) for cols, c in shifted]
        for j in range(max(m for _, m, _ in lists)):
            rows.append({cols[j]: c for cols, m, c in lists if j < m})
    return rows


def _normalize(row: dict) -> dict:
    """The row divided by its content, with a positive lead."""
    g = gcd(*row.values())
    if row[min(row)] < 0:
        g = -g
    if g != 1:
        row = {c: v // g for c, v in row.items()}
    return row


def _echelon(rows, width: int) -> dict:
    """Sparse integer echelon of rows over columns 0..width-1; returns
    {pivot column: pivot row}.

    The pivot columns are the leads of the row space and do not depend on
    the order of the rows; taken by descending lead, the rows fill the high
    columns first.  Every column past ``free``, the last one without a
    pivot, has one, and each reduction step raises the lead, so a row whose
    lead lies past ``free`` reduces to zero and is dropped there.
    """
    pivots: dict = {}
    free = width - 1
    for r in sorted(rows, key=min, reverse=True):
        while r:
            lead = min(r)
            if lead > free:
                break
            p = pivots.get(lead)
            if p is None:
                pivots[lead] = _normalize(r)
                while free in pivots:
                    free -= 1
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


@dataclass(frozen=True)
class EchelonSummary:
    """Rank data of a truncated generator-multiple matrix."""

    basis: TruncationBasis
    pivot_columns: tuple

    @property
    def rank(self) -> int:
        return len(self.pivot_columns)

    def pivot_exponents(self):
        return {self.basis.monomials[c] for c in self.pivot_columns}


def truncated_echelon(
    ideal: IdealPresentation, order: LocalOrder, eta: int
) -> EchelonSummary:
    """The echelon summary of the truncation at eta, built once per
    (presentation, order, eta) and kept while the presentation lives."""
    if order.n != ideal.n:
        raise DimensionMismatchError(
            f"order on {order.n} variables for an ideal on {ideal.n}"
        )
    if eta < 0:
        raise ValueError("eta must be >= 0")
    memo = _ECHELONS.setdefault(ideal, {})
    summary = memo.get((order, eta))
    if summary is None:
        tb = _columns(order, eta)
        pivots = _echelon(_integer_rows(ideal, tb), len(tb.monomials))
        summary = memo[(order, eta)] = EchelonSummary(tb, tuple(sorted(pivots)))
    return summary


def truncated_quotient_dim(
    ideal: IdealPresentation, form: PositiveLinearForm, eta: int
) -> int:
    """dim of the truncated quotient: #monomials minus exact rank."""
    summary = truncated_echelon(ideal, LocalOrder(form, FORWARD), eta)
    return len(summary.basis.monomials) - summary.rank


def oracle_hs(ideal: IdealPresentation, eta_max: int) -> HilbertSamuelTable:
    """Ground-truth Hilbert-Samuel table from a single elimination.

    With columns sorted by the forward degree order, the rank of each
    weight-prefix of columns is the number of pivots inside it, so one
    echelon at eta_max yields every eta <= eta_max.
    """
    if eta_max < 0:
        raise ValueError("eta_max must be >= 0")
    summary = truncated_echelon(ideal, degree_order(ideal.n, FORWARD), eta_max)
    weights = summary.basis.weights
    free = [0] * (eta_max + 1)  # columns minus pivots, per degree
    for w in weights:
        free[w] += 1
    for c in summary.pivot_columns:
        free[weights[c]] -= 1
    return HilbertSamuelTable(tuple(accumulate(free)))


def oracle_staircase(ideal: IdealPresentation, order: LocalOrder, eta: int):
    """Initial exponents realized in the truncation: the echelon pivots."""
    return truncated_echelon(ideal, order, eta).pivot_exponents()
