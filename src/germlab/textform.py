"""Parser for the polynomial text grammar.

Variables are ``x1 .. xn``, coefficients are integers or ``p/q`` rationals,
``^`` raises a variable to a power and ``*`` is optional between a
coefficient and its monomial.  Whitespace is insignificant.  The canonical
printer lives in :mod:`germlab.poly`; parse/print round-trips are exact.
"""

from __future__ import annotations

import re

from .errors import ParseError
from .poly import Poly, _from_ratios, _raw

# One token: an optional operator, then a factor, whitespace around both.
# Digits are ASCII only ('²' and '٣' pass str.isdigit); \s matches exactly
# the characters of str.isspace.  Groups: 1 operator ('' if none), 2/3 a
# coefficient p or p/q, 4/5 a variable index and its power, 6 any other
# character.  No group beyond the operator matches at the end of the text.
_TOKEN = re.compile(
    r"\s*([-+*]?)\s*"
    r"(?:([0-9]+)(?:\s*/\s*([0-9]+))?"
    r"|x([0-9]+)(?:\s*\^\s*([0-9]+))?"
    r"|(.))?",
    re.S,
)


def _position(text: str, pos: int):
    line = text.count("\n", 0, pos) + 1
    last_nl = text.rfind("\n", 0, pos)
    column = pos + 1 if last_nl < 0 else pos - last_nl
    return line, column


def _error(text: str, message: str, pos: int) -> ParseError:
    return ParseError(message, *_position(text, pos))


def _after_space(text: str, pos: int) -> int:
    while pos < len(text) and text[pos].isspace():
        pos += 1
    return pos


def _integer(text: str, m, group: int) -> int:
    digits = m.group(group)
    try:
        return int(digits)
    except ValueError:  # beyond the interpreter's int-string limit
        raise _error(text, f"integer of {len(digits)} digits is too long", m.start(group))


def parse_poly(text: str, n: int) -> Poly:
    """Parse ``text`` as a polynomial in x1..xn."""
    if n < 1:
        raise ValueError("ambient variable count must be >= 1")
    match = _TOKEN.match
    m = match(text)
    op, num, den, index, power, other = m.groups()
    if op == "*":
        raise _error(text, "expected a coefficient or a variable", m.start(1))
    if not op and num is None and index is None and other is None:
        raise _error(text, "empty polynomial", m.end())
    terms = []
    while True:
        # a term: op is its sign ('' before an unsigned first term) and m
        # holds its first factor
        negative = op == "-"
        exp = [0] * n
        p = q = 1
        if num is not None:
            p = _integer(text, m, 2)
            if den is not None:
                q = _integer(text, m, 3)
                if not q:
                    raise _error(text, "zero denominator", text.index("/", m.end(2)) + 1)
            fraction = den is not None
            m = match(text, m.end())
            op, num, den, index, power, other = m.groups()
            monomial = op == "*" or not op and (index is not None or other == "x")
            if not op and other == "/" and not fraction:
                raise _error(text, "expected a digit", _after_space(text, m.start(6) + 1))
        elif index is not None or other == "x":
            monomial = True
        elif other is not None:
            raise _error(text, "expected a coefficient or a variable", m.start(6))
        else:
            raise _error(text, "unexpected end of input", m.end())
        if monomial:
            while True:
                if index is None:
                    if other == "x":
                        raise _error(text, "expected a variable index after 'x'", m.start(6))
                    raise _error(text, "expected a variable", _after_space(text, m.end(1)))
                k = _integer(text, m, 4)
                if not 1 <= k <= n:
                    raise _error(text, f"variable x{k} outside x1..x{n}", m.start(4) - 1)
                bare = power is None
                exp[k - 1] += 1 if bare else _integer(text, m, 5)
                m = match(text, m.end())
                op, num, den, index, power, other = m.groups()
                if op != "*":
                    break
            if not op and other == "^" and bare:
                raise _error(text, "expected a digit", _after_space(text, m.start(6) + 1))
        if not op and (num is not None or index is not None or other is not None):
            at = _after_space(text, m.end(1))
            raise _error(text, f"unexpected character {text[at]!r}", at)
        if p:
            terms.append((tuple(exp), -p if negative else p, q))
        if not op:
            break
    return _raw(n, *_from_ratios(terms))
