"""Total orderings on exponent vectors induced by positive linear forms.

Exponent vectors are plain tuples of non-negative ints.  A positive linear
form assigns every exponent an integer weight; ties between equal-weight
exponents are broken lexicographically, either on (b_1, ..., b_n) or on
(b_n, ..., b_1).  Both tie-breaks give total orders with the zero exponent
as unique minimum, compatible with exponent addition.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import add, le, mul

from .errors import DimensionMismatchError

Exponent = tuple  # tuple[int, ...]

FORWARD = "forward"
REVERSE = "reverse"

LESS, EQUAL, GREATER = -1, 0, 1


@dataclass(frozen=True)
class PositiveLinearForm:
    """Weight functional sum(weights[i] * b[i]) with strictly positive integer weights."""

    weights: tuple

    def __post_init__(self):
        if not self.weights:
            raise ValueError("a positive linear form needs at least one weight")
        for w in self.weights:
            if isinstance(w, bool) or not isinstance(w, int) or w < 1:
                raise ValueError(f"weights must be positive integers, got {w!r}")
        object.__setattr__(self, "weights", tuple(self.weights))

    @property
    def n(self) -> int:
        return len(self.weights)

    def weight(self, exponent) -> int:
        return sum(map(mul, self.weights, exponent))


def degree_form(n: int) -> PositiveLinearForm:
    """The total-degree form (all weights 1)."""
    return PositiveLinearForm((1,) * n)


@dataclass(frozen=True)
class LocalOrder:
    """A positive linear form plus a tie-break rule.

    ``forward`` compares (weight, b_1, ..., b_n) lexicographically,
    ``reverse`` compares (weight, b_n, ..., b_1).
    """

    form: PositiveLinearForm
    tiebreak: str = REVERSE

    def __post_init__(self):
        if self.tiebreak not in (FORWARD, REVERSE):
            raise ValueError(f"unknown tiebreak {self.tiebreak!r}")

    @property
    def n(self) -> int:
        return self.form.n

    def key(self, exponent):
        """Sort key; exponents compare under the order as their keys compare."""
        w = self.form.weight(exponent)
        if self.tiebreak == FORWARD:
            return (w, *exponent)
        return (w, *exponent[::-1])

    def compare(self, a, b) -> int:
        ka, kb = self.key(a), self.key(b)
        if ka < kb:
            return LESS
        if ka > kb:
            return GREATER
        return EQUAL


def degree_order(n: int, tiebreak: str = REVERSE) -> LocalOrder:
    return LocalOrder(degree_form(n), tiebreak)


def compare_exponents(a, b, order: LocalOrder) -> int:
    """Total-order verdict (-1, 0, 1) for exponents a, b under ``order``."""
    if len(a) != len(b) or len(a) != order.n:
        raise DimensionMismatchError(
            f"exponent lengths {len(a)}, {len(b)} vs order on {order.n} variables"
        )
    return order.compare(a, b)


def weighted_box(weights, eta: int) -> list:
    """Every exponent of weight at most eta, ascending as tuples; [] when
    eta < 0.

    An odometer: the next exponent takes the last coordinate that has room
    once the coordinates after it are cleared, and raises it by one.  That
    is one pass over the coordinates per exponent, and nothing recurses.
    """
    if eta < 0:
        return []
    e = [0] * len(weights)
    out = [tuple(e)]
    room = eta  # eta minus the weight of e
    i = len(e) - 1
    while i >= 0:
        if room >= weights[i]:
            e[i] += 1
            room -= weights[i]
            out.append(tuple(e))
            i = len(e) - 1
        else:
            room += weights[i] * e[i]
            e[i] = 0
            i -= 1
    return out


def exp_add(a, b):
    return tuple(map(add, a, b))

def exp_sub(a, b):
    return tuple(x - y for x, y in zip(a, b))

def exp_max(a, b):
    return tuple(x if x >= y else y for x, y in zip(a, b))

def exp_divides(a, b) -> bool:
    """Componentwise a <= b; the divisibility test x^a | x^b."""
    return all(map(le, a, b))
