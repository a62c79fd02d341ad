"""Parser for the polynomial text grammar.

Variables are ``x1 .. xn``, coefficients are integers or ``p/q`` rationals,
``^`` raises a variable to a power and ``*`` is optional between a
coefficient and its monomial.  Whitespace is insignificant.  The canonical
printer lives in :mod:`germlab.poly`; parse/print round-trips are exact.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import ParseError
from .poly import Poly


def _position(text: str, pos: int):
    line = text.count("\n", 0, pos) + 1
    last_nl = text.rfind("\n", 0, pos)
    column = pos + 1 if last_nl < 0 else pos - last_nl
    return line, column


def _is_digit(ch: str) -> bool:
    """ASCII digits only: str.isdigit also accepts '²' and '٣'."""
    return "0" <= ch <= "9"


class _Scanner:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def error(self, message: str, at: int | None = None):
        line, column = _position(self.text, self.pos if at is None else at)
        raise ParseError(message, line, column)

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def take_integer(self) -> int:
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and _is_digit(self.text[self.pos]):
            self.pos += 1
        if self.pos == start:
            self.error("expected a digit")
        try:
            return int(self.text[start:self.pos])
        except ValueError:  # beyond the interpreter's int-string limit
            self.error(f"integer of {self.pos - start} digits is too long", start)

    def take_variable(self, n: int) -> int:
        """Consume x<k> and return the 0-based variable index."""
        self.skip_ws()
        at = self.pos
        self.pos += 1  # the 'x'
        if self.pos >= len(self.text) or not _is_digit(self.text[self.pos]):
            self.error("expected a variable index after 'x'", at)
        k = self.take_integer()
        if not 1 <= k <= n:
            self.error(f"variable x{k} outside x1..x{n}", at)
        return k - 1


def parse_poly(text: str, n: int) -> Poly:
    """Parse ``text`` as a polynomial in x1..xn."""
    sc = _Scanner(text)
    terms = []
    sign = 1
    ch = sc.peek()
    if ch == "":
        sc.error("empty polynomial")
    if ch in "+-":
        sign = -1 if ch == "-" else 1
        sc.pos += 1
    while True:
        exp, coeff = _parse_term(sc, n)
        terms.append((exp, sign * coeff))
        ch = sc.peek()
        if ch == "":
            break
        if ch not in "+-":
            sc.error(f"unexpected character {ch!r}")
        sign = -1 if ch == "-" else 1
        sc.pos += 1
    return Poly(n, terms)


def _parse_term(sc: _Scanner, n: int):
    coeff = Fraction(1)
    exp = [0] * n
    saw_factor = False
    ch = sc.peek()
    if _is_digit(ch):
        num = sc.take_integer()
        den = 1
        if sc.peek() == "/":
            sc.pos += 1
            at = sc.pos
            den = sc.take_integer()
            if den == 0:
                sc.error("zero denominator", at)
        coeff = Fraction(num, den)
        saw_factor = True
        if sc.peek() == "*":
            sc.pos += 1
            _parse_monomial(sc, n, exp)
        elif sc.peek() == "x":
            _parse_monomial(sc, n, exp)
    elif ch == "x":
        _parse_monomial(sc, n, exp)
        saw_factor = True
    else:
        sc.error("expected a coefficient or a variable" if ch else "unexpected end of input")
    if not saw_factor:
        sc.error("empty term")
    return tuple(exp), coeff


def _parse_monomial(sc: _Scanner, n: int, exp: list):
    while True:
        if sc.peek() != "x":
            sc.error("expected a variable")
        i = sc.take_variable(n)
        power = 1
        if sc.peek() == "^":
            sc.pos += 1
            power = sc.take_integer()
        exp[i] += power
        if sc.peek() == "*":
            sc.pos += 1
            continue
        break
