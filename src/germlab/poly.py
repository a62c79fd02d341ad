"""Sparse multivariate polynomials with exact rational coefficients.

A polynomial is stored as integer numerators over one denominator: a
map from exponent tuples to nonzero ints and a ``den >= 1``, kept
canonical (``gcd(den, *numerators) == 1``, and ``den == 1`` for zero), so
equality and hashing compare the stored fields.  Values are immutable
after construction and every operation is a pure function, so instances
can be shared freely between workers.  Floating point never appears:
staircase and flatness verdicts downstream are discrete and must be
exact.  Numbers from outside, coefficients, scalars and matrix entries,
enter as integer pairs through ``_pair``, and arithmetic runs on the
stored integers: ``_over`` builds a polynomial from integer numerators
over any nonzero denominator, cut to the canonical form by one gcd in
``_canonical``.  One fraction-free elimination, ``_eliminate``, gives a
matrix's determinant, the singularity check of a coordinate change and
the inverse.  Fractions are built only for values handed out: by
``items()``, ``coeff()``, ``constant_term()``, ``exact_det`` and
``invert_matrix``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from operator import add

from .errors import (
    DimensionMismatchError,
    SingularMatrixError,
    ZeroPolynomialError,
)
from .orders import LocalOrder, exp_add


def _pair(c) -> tuple:
    """(numerator, denominator >= 1) of an int or a Fraction: the one way
    a number from outside enters a polynomial or a matrix."""
    if isinstance(c, int):
        return c, 1
    if isinstance(c, Fraction):
        return c.numerator, c.denominator
    raise TypeError(f"coefficients must be int or Fraction, got {type(c).__name__}")


def _exponent(exp, n: int) -> tuple:
    """exp as a tuple, checked to be n non-negative ints."""
    exp = tuple(exp)
    if len(exp) != n:
        raise DimensionMismatchError(f"exponent {exp} in a polynomial on {n} variables")
    if any(not isinstance(b, int) or b < 0 for b in exp):
        raise ValueError(f"exponents must be non-negative ints: {exp}")
    return exp


class Poly:
    """Polynomial in ``n`` variables, stored as {exponent tuple: int} over
    one denominator."""

    __slots__ = ("n", "_den", "_num", "_hash")

    def __init__(self, n: int, terms=None):
        if n < 1:
            raise ValueError("ambient variable count must be >= 1")
        checked = []
        if terms:
            for exp, coeff in terms.items() if isinstance(terms, dict) else terms:
                exp = _exponent(exp, n)
                p, q = _pair(coeff)
                if p:
                    checked.append((exp, p, q))
        den, num = _from_ratios(checked)
        _SET_N(self, n)
        _SET_DEN(self, den)
        _SET_NUM(self, num)

    def __setattr__(self, name, value):
        raise AttributeError("Poly is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, n: int) -> "Poly":
        """The canonical zero, with no pass over terms."""
        if n < 1:
            raise ValueError("ambient variable count must be >= 1")
        return _raw(n, 1, {})

    @classmethod
    def constant(cls, n: int, c) -> "Poly":
        return cls(n, {(0,) * n: c})

    @classmethod
    def monomial(cls, n: int, exponent, coeff=1) -> "Poly":
        return cls(n, {tuple(exponent): coeff})

    @classmethod
    def variable(cls, n: int, i: int) -> "Poly":
        """The variable x_{i+1} (0-based index i)."""
        if not 0 <= i < n:
            raise ValueError(f"variable index {i} outside 0..{n - 1}")
        return cls(n, {tuple(int(j == i) for j in range(n)): 1})

    # -- inspection --------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self._num

    def __bool__(self) -> bool:
        return bool(self._num)

    def __len__(self) -> int:
        return len(self._num)

    def items(self) -> list:
        """(exponent, Fraction coefficient) pairs in term order."""
        den = self._den
        return [(e, Fraction(v, den)) for e, v in self._num.items()]

    def exponents(self):
        return self._num.keys()

    def coeff(self, exponent) -> Fraction:
        return Fraction(self._num.get(_exponent(exponent, self.n), 0), self._den)

    def constant_term(self) -> Fraction:
        return Fraction(self._num.get((0,) * self.n, 0), self._den)

    def total_degree(self) -> int:
        """Max total degree of the support; -1 for the zero polynomial."""
        if not self._num:
            return -1
        return max(sum(e) for e in self._num)

    def min_total_degree(self) -> int:
        if not self._num:
            return -1
        return min(sum(e) for e in self._num)

    # -- ring operations ---------------------------------------------------

    def _check_same_n(self, other: "Poly"):
        if self.n != other.n:
            raise DimensionMismatchError(
                f"polynomials on {self.n} and {other.n} variables"
            )

    def __add__(self, other: "Poly") -> "Poly":
        return _sum(self, other, 1)

    def __sub__(self, other: "Poly") -> "Poly":
        return _sum(self, other, -1)

    def __neg__(self) -> "Poly":
        return _raw(self.n, self._den, {e: -v for e, v in self._num.items()})

    def __mul__(self, other):
        if not isinstance(other, Poly):
            return self.scale(other)
        self._check_same_n(other)
        return _raw(self.n, *_canonical(*_products([(self, other)])))

    __rmul__ = __mul__

    def scale(self, c) -> "Poly":
        return self.mul_term(c, (0,) * self.n)

    def mul_term(self, coeff, exponent) -> "Poly":
        """Multiply by the single term coeff * x^exponent."""
        exponent = _exponent(exponent, self.n)
        p, q = _pair(coeff)
        if not p:
            return Poly.zero(self.n)
        return _over(
            self.n, self._den * q, [(exp_add(e, exponent), p * v) for e, v in self._num.items()]
        )

    # -- equality ----------------------------------------------------------

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Poly)
            and self.n == other.n
            and self._den == other._den
            and self._num == other._num
        )

    def __hash__(self) -> int:
        try:
            return self._hash
        except AttributeError:  # first call: the slot starts unset
            h = hash((self.n, self._den, frozenset(self._num.items())))
            object.__setattr__(self, "_hash", h)
            return h

    def __str__(self) -> str:
        return format_poly(self)

    def __repr__(self) -> str:
        return f"Poly({self.n}, '{format_poly(self)}')"


def _products(pairs):
    """Sum of p * q over (p, q) pairs on integer numerators.

    Returns (den, num): the sum is num[e] / den at each exponent e, num
    holds no zero, and den is a common denominator, not always the least.
    Each operand's stored numerators are read as they are, so the double
    loop multiplies ints only.
    """
    operands = [(p._den, p._num, q._den, q._num) for p, q in pairs]
    den = lcm(*[dp * dq for dp, _, dq, _ in operands])
    num: dict = {}
    for dp, left, dq, right in operands:
        left = left.items()
        if dp * dq != den:
            left = [(e, v * (den // (dp * dq))) for e, v in left]
        _mul_into(num, left, right.items())
    return den, num


def _integral(p: Poly) -> tuple:
    """(den, {exponent: int}): p's stored numerators over its denominator,
    the least common one.  The mapping is p's own; callers only read it."""
    return p._den, p._num


def _over(n: int, den: int, pairs) -> Poly:
    """The polynomial of v / den over (exponent, nonzero int v) pairs, for
    any nonzero den, cut to the canonical form by one gcd."""
    num = dict(pairs)
    if den != 1:
        den, num = _canonical(den, num)
    return _raw(n, den, num)


def _canonical(den: int, num: dict) -> tuple:
    """(den, num) divided by gcd(den, *num.values()) and signed so that
    den >= 1; num itself is returned when nothing divides it."""
    if den == 1 or not num:
        return 1, num
    g = gcd(den, *num.values())
    if den < 0:
        g = -g
    if g != 1:
        den //= g
        num = {e: v // g for e, v in num.items()}
    return den, num


def _from_ratios(terms) -> tuple:
    """The canonical (den, num) of the sum of p/q * x^e over (e, p, q)
    triples with p != 0 and q > 0: every term is brought over the lcm of
    the q and the numerators are added by ``_add_into``, so the terms come
    out in the order of the Fraction sum.  The constructor and
    ``parse_poly`` convert their input here, once."""
    den = lcm(*[q for _, _, q in terms])
    return _canonical(den, _add_into({}, [(e, p * (den // q)) for e, p, q in terms]))


def _sum(p: Poly, q, sign: int) -> Poly:
    """p + sign * q over the lcm of the two denominators; NotImplemented
    when q is not a polynomial."""
    if not isinstance(q, Poly):
        return NotImplemented
    p._check_same_n(q)
    dp, dq = p._den, q._den
    den = dp if dp == dq else lcm(dp, dq)
    kp, kq = den // dp, (den // dq) * sign
    acc = dict(p._num) if kp == 1 else {e: v * kp for e, v in p._num.items()}
    terms = q._num.items() if kq == 1 else [(e, v * kq) for e, v in q._num.items()]
    return _raw(p.n, *_canonical(den, _add_into(acc, terms)))


def _add_into(acc: dict, terms) -> dict:
    """Add the nonzero (exponent, coefficient) pairs of terms to acc.

    A sum that reaches zero is deleted at once, so a later term at that
    exponent enters at the end.  The one sum loop: ``+``, ``-``,
    ``apply_linear_change``, the constructor and ``parse_poly`` add here.
    """
    get = acc.get
    for e, c in terms:
        old = get(e)
        if old is None:
            acc[e] = c
        else:
            old += c
            if old:
                acc[e] = old
            else:
                del acc[e]
    return acc


def _mul_into(num: dict, left, right) -> dict:
    """Add left * right to num, on (exponent, int) pairs.

    A sum that reaches zero is deleted at once, so a later contribution to
    that exponent enters at the end: the insertion order is the Fraction
    double loop's.
    """
    get = num.get
    for e1, c1 in left:
        for e2, c2 in right:
            exp = tuple(map(add, e1, e2))
            acc = get(exp)
            if acc is None:
                num[exp] = c1 * c2
            else:
                acc += c1 * c2
                if acc:
                    num[exp] = acc
                else:
                    del num[exp]
    return num


# the slots' own setters, past Poly.__setattr__, which refuses every write
_SET_N, _SET_DEN, _SET_NUM = Poly.n.__set__, Poly._den.__set__, Poly._num.__set__


def _raw(n: int, den: int, num: dict) -> Poly:
    """Internal constructor for numerators already in canonical form."""
    p = Poly.__new__(Poly)
    _SET_N(p, n)
    _SET_DEN(p, den)
    _SET_NUM(p, num)
    return p


# -- order-sensitive operations ---------------------------------------------


def initial_exponent(f: Poly, order: LocalOrder):
    """Minimal support exponent of f under the order.

    The zero polynomial has no initial exponent (by convention it sits above
    every exponent) and is rejected.
    """
    if f.is_zero:
        raise ZeroPolynomialError("the zero polynomial has no initial exponent")
    if f.n != order.n:
        raise DimensionMismatchError(
            f"polynomial on {f.n} variables, order on {order.n}"
        )
    return min(f.exponents(), key=order.key)


def initial_term(f: Poly, order: LocalOrder):
    """(initial exponent, its coefficient)."""
    exp = initial_exponent(f, order)
    return exp, f.coeff(exp)


def initial_form(f: Poly) -> Poly:
    """Homogeneous part of lowest total degree."""
    if f.is_zero:
        raise ZeroPolynomialError("the zero polynomial has no initial form")
    d = f.min_total_degree()
    return _over(f.n, f._den, [(e, v) for e, v in f._num.items() if sum(e) == d])


@dataclass(frozen=True)
class JetContext:
    """Truncation context: keep exactly the terms of weight <= mu."""

    order: LocalOrder
    mu: int

    def __post_init__(self):
        if self.mu < 0:
            raise ValueError("jet order must be >= 0")


def jet_truncate(f: Poly, ctx: JetContext) -> Poly:
    """Drop every term whose weight is >= mu + 1.  Idempotent."""
    form = ctx.order.form
    if f.n != form.n:
        raise DimensionMismatchError(f"polynomial on {f.n} variables, form on {form.n}")
    return _over(f.n, f._den, [(e, v) for e, v in f._num.items() if form.weight(e) <= ctx.mu])


# -- exact matrices and linear coordinate changes ----------------------------


def _integer_matrix(M, n: int) -> tuple:
    """(den, integer rows): M, checked to be n x n, times the lcm den of
    its entries' denominators."""
    rows = [[_pair(x) for x in row] for row in M]
    if len(rows) != n or any(len(r) != n for r in rows):
        raise DimensionMismatchError(f"expected a {n}x{n} matrix")
    den = lcm(*[q for row in rows for _, q in row])
    return den, [[p * (den // q) for p, q in row] for row in rows]


def _eliminate(a, b=()) -> tuple:
    """(det(a), rows of det(a) * a^-1 * b) for a square integer matrix a and
    integer rows b beside it, by Bareiss's fraction-free elimination: step k
    sets each entry e of a row i != k to (e * pivot - a[i][k] * a[k][j]) //
    prev, prev the previous pivot, exact by Sylvester's identity.  With b
    the steps clear the pivot column above the pivot too (Gauss-Jordan),
    without only below it.  A singular a gives (0, []); a and b are kept."""
    n = len(a)
    rows = [[*row, *extra] for row, extra in zip(a, b or [()] * n)]
    sign, prev = 1, 1
    for k in range(n):
        piv = next((r for r in range(k, n) if rows[r][k]), None)
        if piv is None:
            return 0, []
        if piv != k:
            rows[k], rows[piv] = rows[piv], rows[k]
            sign = -sign
        row = rows[k]
        pivot = row[k]
        for ri in rows if b else rows[k + 1 :]:
            if ri is not row:
                rik = ri[k]
                for j in range(k + 1, len(ri)):
                    ri[j] = (ri[j] * pivot - rik * row[j]) // prev
        prev = pivot
    # prev = sign * det(a) sits on the diagonal, beside prev * a^-1 * b
    return sign * prev, [[sign * x for x in row[n:]] for row in rows]


def exact_det(M) -> Fraction:
    """Exact determinant: the matrix is brought over the lcm of its
    denominators and eliminated fraction-free on integers."""
    den, a = _integer_matrix(M, len(M))
    return Fraction(_eliminate(a)[0], den ** len(a))


def invert_matrix(M):
    """Exact inverse as nested tuples of Fractions: M = a / den, and the
    elimination beside the identity gives det(a) * a^-1."""
    n = len(M)
    den, a = _integer_matrix(M, n)
    det, adj = _eliminate(a, [[int(i == j) for j in range(n)] for i in range(n)])
    if not det:
        raise SingularMatrixError("matrix is singular")
    return tuple(tuple(Fraction(x * den, det) for x in row) for row in adj)


def apply_linear_change(f: Poly, M) -> Poly:
    """Substitute x_i -> sum_j M[i][j] * x_j and expand.

    M must be invertible (checked by ``_eliminate``), so the total degree
    and the lowest homogeneous degree are preserved.  The expansion runs on
    integer numerators: M is brought over the lcm D of its entries'
    denominators and f's stored numerators are read as they are, each term
    of f of degree d is scaled by D^(deg f - d) so that all terms share one
    denominator, and the result is cut to its canonical form once.  Products
    and sums follow the term-by-term Fraction expansion, so the terms come
    out in its order.
    """
    n = f.n
    den, a = _integer_matrix(M, n)
    if not _eliminate(a)[0]:
        raise SingularMatrixError("coordinate change matrix is singular")
    images = [
        [(tuple(1 if j == k else 0 for k in range(n)), c) for j, c in enumerate(row) if c]
        for row in a
    ]
    df, terms = _integral(f)
    top = max(map(sum, f.exponents()), default=0)
    zero = (0,) * n
    powers = [[[(zero, 1)]] for _ in range(n)]
    result: dict = {}
    for exp, c in terms.items():
        term = [(zero, c * den ** (top - sum(exp)))]
        for i, e in enumerate(exp):
            if e:
                cache = powers[i]
                while len(cache) <= e:
                    cache.append(list(_mul_into({}, cache[-1], images[i]).items()))
                term = _mul_into({}, term, cache[e]).items()
        _add_into(result, term)
    return _over(n, df * den**top, result.items())


# -- canonical text form ------------------------------------------------------


def _format_monomial(exp) -> str:
    parts = []
    for i, e in enumerate(exp):
        if e == 1:
            parts.append(f"x{i + 1}")
        elif e > 1:
            parts.append(f"x{i + 1}^{e}")
    return "*".join(parts)


def format_poly(f: Poly) -> str:
    """Deterministic text form; terms sorted by the forward degree order."""
    if f.is_zero:
        return "0"
    pieces = []
    d = f._den
    for exp, num in sorted(f._num.items(), key=_forward_degree):
        g = gcd(num, d)
        mag = str(abs(num) // g) if g == d else f"{abs(num) // g}/{d // g}"
        mono = _format_monomial(exp)
        if not mono:
            body = mag
        elif mag == "1":
            body = mono
        else:
            body = f"{mag}*{mono}"
        if not pieces:
            pieces.append(body if num > 0 else f"-{body}")
        else:
            pieces.append(f"+ {body}" if num > 0 else f"- {body}")
    return " ".join(pieces)


def _forward_degree(item):
    """Sort key of an (exponent, numerator) pair under the forward degree
    order: total degree, then the exponent itself."""
    exp = item[0]
    return sum(exp), exp
