"""Sparse multivariate polynomials with exact rational coefficients.

A polynomial is a finite map from exponent tuples to nonzero Fractions.
Values are immutable after construction and every operation is a pure
function, so instances can be shared freely between workers.  Floating
point never appears: staircase and flatness verdicts downstream are
discrete and must be exact.  Storage stays Fraction-valued, but
arithmetic runs on integers, with one conversion each way: ``_integral``
brings a polynomial over the lcm of its denominators, and ``_over``
builds one from integer numerators over one denominator.  Products,
re-expansion checks and linear changes run on integers in between.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from operator import add

from .errors import (
    DimensionMismatchError,
    SingularMatrixError,
    ZeroPolynomialError,
)
from .orders import LocalOrder, exp_add


def _as_fraction(c) -> Fraction:
    if isinstance(c, Fraction):
        return c
    if isinstance(c, int):
        return Fraction(c)
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
    """Polynomial in ``n`` variables, stored as {exponent tuple: Fraction}."""

    __slots__ = ("n", "_terms", "_hash")

    def __init__(self, n: int, terms=None):
        if n < 1:
            raise ValueError("ambient variable count must be >= 1")
        checked = []
        if terms:
            for exp, coeff in terms.items() if isinstance(terms, dict) else terms:
                exp = _exponent(exp, n)
                c = _as_fraction(coeff)
                if c:
                    checked.append((exp, c))
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "_terms", _add_into({}, checked))
        object.__setattr__(self, "_hash", None)

    def __setattr__(self, name, value):
        raise AttributeError("Poly is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, n: int) -> "Poly":
        return cls(n)

    @classmethod
    def constant(cls, n: int, c) -> "Poly":
        return cls(n, {(0,) * n: _as_fraction(c)})

    @classmethod
    def monomial(cls, n: int, exponent, coeff=1) -> "Poly":
        return cls(n, {tuple(exponent): _as_fraction(coeff)})

    @classmethod
    def variable(cls, n: int, i: int) -> "Poly":
        """The variable x_{i+1} (0-based index i)."""
        exp = tuple(1 if j == i else 0 for j in range(n))
        return cls(n, {exp: Fraction(1)})

    # -- inspection --------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __len__(self) -> int:
        return len(self._terms)

    def items(self):
        """Read-only view of (exponent, coefficient) pairs."""
        return self._terms.items()

    def exponents(self):
        return self._terms.keys()

    def coeff(self, exponent) -> Fraction:
        return self._terms.get(tuple(exponent), Fraction(0))

    def constant_term(self) -> Fraction:
        return self._terms.get((0,) * self.n, Fraction(0))

    def total_degree(self) -> int:
        """Max total degree of the support; -1 for the zero polynomial."""
        if not self._terms:
            return -1
        return max(sum(e) for e in self._terms)

    def min_total_degree(self) -> int:
        if not self._terms:
            return -1
        return min(sum(e) for e in self._terms)

    # -- ring operations ---------------------------------------------------

    def _check_same_n(self, other: "Poly"):
        if self.n != other.n:
            raise DimensionMismatchError(
                f"polynomials on {self.n} and {other.n} variables"
            )

    def __add__(self, other: "Poly") -> "Poly":
        self._check_same_n(other)
        return _raw(self.n, _add_into(dict(self._terms), other._terms.items()))

    def __sub__(self, other: "Poly") -> "Poly":
        self._check_same_n(other)
        negated = [(e, -c) for e, c in other._terms.items()]
        return _raw(self.n, _add_into(dict(self._terms), negated))

    def __neg__(self) -> "Poly":
        return _raw(self.n, {e: -c for e, c in self._terms.items()})

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        self._check_same_n(other)
        den, num = _products([(self, other)])
        return _over(self.n, den, num.items())

    __rmul__ = __mul__

    def scale(self, c) -> "Poly":
        c = _as_fraction(c)
        if not c:
            return Poly.zero(self.n)
        return _raw(self.n, {e: c * v for e, v in self._terms.items()})

    def mul_term(self, coeff, exponent) -> "Poly":
        """Multiply by the single term coeff * x^exponent."""
        exponent = _exponent(exponent, self.n)
        c = _as_fraction(coeff)
        if not c:
            return Poly.zero(self.n)
        return _raw(self.n, {exp_add(e, exponent): c * v for e, v in self._terms.items()})

    # -- equality ----------------------------------------------------------

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Poly)
            and self.n == other.n
            and self._terms == other._terms
        )

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = hash((self.n, frozenset(self._terms.items())))
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
    Each operand is brought over the lcm of its denominators once
    (``_integral``), so the double loop multiplies ints only.
    """
    operands = [(*_integral(p), *_integral(q)) for p, q in pairs]
    den = lcm(*[dp * dq for dp, _, dq, _ in operands])
    num: dict = {}
    for dp, left, dq, right in operands:
        if dp * dq != den:
            left = [(e, v * (den // (dp * dq))) for e, v in left]
        _mul_into(num, left, right)
    return den, num


def _integral(p: Poly) -> tuple:
    """(d, [(exponent, int c * d)]) for d the lcm of p's denominators."""
    terms = p._terms
    d = lcm(*[c.denominator for c in terms.values()])
    return d, [(e, c.numerator * (d // c.denominator)) for e, c in terms.items()]


def _over(n: int, den: int, pairs) -> Poly:
    """The polynomial of v / den over (exponent, nonzero int v) pairs."""
    if den == 1:  # Fraction(v) skips the gcd of Fraction(v, 1)
        return _raw(n, {e: Fraction(v) for e, v in pairs})
    return _raw(n, {e: Fraction(v, den) for e, v in pairs})


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


def _raw(n: int, terms: dict) -> Poly:
    """Internal constructor for already-normalized term dicts."""
    p = Poly.__new__(Poly)
    object.__setattr__(p, "n", n)
    object.__setattr__(p, "_terms", terms)
    object.__setattr__(p, "_hash", None)
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
    return _raw(f.n, {e: c for e, c in f.items() if sum(e) == d})


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
    return _raw(f.n, {e: c for e, c in f.items() if form.weight(e) <= ctx.mu})


# -- exact matrices and linear coordinate changes ----------------------------


def _matrix_rows(M, n: int):
    rows = [[_as_fraction(x) for x in row] for row in M]
    if len(rows) != n or any(len(r) != n for r in rows):
        raise DimensionMismatchError(f"expected a {n}x{n} matrix")
    return rows


def exact_det(M) -> Fraction:
    """Exact determinant: the matrix is brought over the lcm of its
    denominators and eliminated fraction-free on integers."""
    den, a = _integer_matrix(_matrix_rows(M, len(M)))
    return Fraction(_int_det(a), den ** len(a))


def _integer_matrix(rows):
    """(den, integer rows): the Fraction rows times the lcm of their denominators."""
    den = lcm(*(x.denominator for row in rows for x in row))
    return den, [[x.numerator * (den // x.denominator) for x in row] for row in rows]


def _int_det(a) -> int:
    """Determinant of a square integer matrix by Bareiss elimination; a is consumed."""
    n = len(a)
    sign, prev = 1, 1
    for k in range(n):
        piv = next((r for r in range(k, n) if a[r][k]), None)
        if piv is None:
            return 0
        if piv != k:
            a[k], a[piv] = a[piv], a[k]
            sign = -sign
        pivot, row = a[k][k], a[k]
        for i in range(k + 1, n):
            ai = a[i]
            aik = ai[k]
            # exact: every entry of the eliminated minor is divisible by prev
            for j in range(k + 1, n):
                ai[j] = (ai[j] * pivot - aik * row[j]) // prev
        prev = pivot
    return sign * prev


def invert_matrix(M):
    """Exact inverse as nested tuples of Fractions."""
    rows = _matrix_rows(M, len(M))
    n = len(rows)
    aug = [rows[i] + [Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    for col in range(n):
        piv = next((r for r in range(col, n) if aug[r][col]), None)
        if piv is None:
            raise SingularMatrixError("matrix is singular")
        aug[col], aug[piv] = aug[piv], aug[col]
        inv = 1 / aug[col][col]
        aug[col] = [a * inv for a in aug[col]]
        for r in range(n):
            if r != col and aug[r][col]:
                factor = aug[r][col]
                aug[r] = [a - factor * b for a, b in zip(aug[r], aug[col])]
    return tuple(tuple(row[n:]) for row in aug)


def apply_linear_change(f: Poly, M) -> Poly:
    """Substitute x_i -> sum_j M[i][j] * x_j and expand.

    M must be invertible (checked by exact determinant), so the total degree
    and the lowest homogeneous degree are preserved.  The expansion runs on
    integer numerators: M is brought over the lcm D of its entries'
    denominators and f over the lcm of its own, each term of f of degree d
    is scaled by D^(deg f - d) so that all terms share one denominator, and
    one Fraction is built per output term.  Products and sums follow the
    term-by-term Fraction expansion, so the terms come out in its order.
    """
    n = f.n
    den, a = _integer_matrix(_matrix_rows(M, n))
    images = [
        [(tuple(1 if j == k else 0 for k in range(n)), c) for j, c in enumerate(row) if c]
        for row in a
    ]
    if not _int_det(a):
        raise SingularMatrixError("coordinate change matrix is singular")
    df, terms = _integral(f)
    top = max(map(sum, f.exponents()), default=0)
    zero = (0,) * n
    powers = [[[(zero, 1)]] for _ in range(n)]
    result: dict = {}
    for exp, c in terms:
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
    for exp, c in sorted(f.items(), key=_forward_degree):
        num, den = c.numerator, c.denominator
        mag = str(abs(num)) if den == 1 else f"{abs(num)}/{den}"
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
    """Sort key of an (exponent, coefficient) pair under the forward degree
    order: total degree, then the exponent itself."""
    exp = item[0]
    return sum(exp), exp
