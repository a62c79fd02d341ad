"""Independent brute-force verification by exact linear algebra.

Truncated quotient dimensions are computed from scratch: rows are the
weight-truncated monomial multiples of the generators, columns are the
monomials of weight <= eta sorted by the order under test, and the rank is
found by exact integer elimination (denominators cleared per row, rows kept
primitive by gcd).  Pivot columns of the echelon form are precisely the
initial exponents realized inside the truncation, which is what makes this
an oracle for diagrams as well as for Hilbert-Samuel tables.  It exists to
be trusted, not to be fast.  Its columns and row shifts come from
``orders.weighted_box``, a primitive at the level of the order keys it
sorts them by, and checked against a brute-force enumeration of its own.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd, lcm

from .diagram import HilbertSamuelTable
from .orders import FORWARD, LocalOrder, PositiveLinearForm, degree_order, exp_add, weighted_box
from .standard_basis import IdealPresentation


@dataclass(frozen=True)
class TruncationBasis:
    """Monomials of weight <= eta, sorted ascending by a local order."""

    order: LocalOrder
    eta: int
    monomials: tuple
    index: dict

    @classmethod
    def build(cls, order: LocalOrder, eta: int) -> "TruncationBasis":
        monos = sorted(weighted_box(order.form.weights, eta), key=order.key)
        return cls(order, eta, tuple(monos), {m: i for i, m in enumerate(monos)})


def _integer_rows(ideal: IdealPresentation, tb: TruncationBasis):
    """Truncated jets of x^alpha * F_i as sparse integer rows.

    Multiples with every term pushed past eta are skipped outright; the
    remaining rows are generated in a deterministic order.
    """
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


def _normalize(row: dict) -> dict:
    g = 0
    for v in row.values():
        g = gcd(g, v)
    if g > 1:
        row = {c: v // g for c, v in row.items()}
    lead = min(row)
    if row[lead] < 0:
        row = {c: -v for c, v in row.items()}
    return row


def _echelon(rows) -> dict:
    """Sparse integer echelon; returns {pivot column: pivot row}."""
    pivots: dict = {}
    for row in rows:
        r = dict(row)
        while r:
            lead = min(r)
            p = pivots.get(lead)
            if p is None:
                pivots[lead] = _normalize(r)
                break
            a, b = r[lead], p[lead]
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
    if eta < 0:
        raise ValueError("eta must be >= 0")
    tb = TruncationBasis.build(order, eta)
    pivots = _echelon(_integer_rows(ideal, tb))
    return EchelonSummary(tb, tuple(sorted(pivots)))


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
    monos = summary.basis.monomials
    values = []
    for eta in range(eta_max + 1):
        cols = sum(1 for m in monos if sum(m) <= eta)
        rank = sum(1 for c in summary.pivot_columns if sum(monos[c]) <= eta)
        values.append(cols - rank)
    return HilbertSamuelTable(tuple(values))


def oracle_staircase(ideal: IdealPresentation, order: LocalOrder, eta: int):
    """Initial exponents realized in the truncation: the echelon pivots."""
    return truncated_echelon(ideal, order, eta).pivot_exponents()
