"""Staircase sets of initial exponents and their lattice combinatorics.

A diagram is the upward-closed set union_v (v + N^n) determined by its
finite set of componentwise-minimal vertices.  The empty diagram (no
vertices) represents the empty staircase, i.e. the diagram of the zero
ideal.  Complement counts with respect to a positive linear form recover
Hilbert-Samuel data.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import accumulate
from operator import add, le

from .errors import DimensionMismatchError
from .orders import PositiveLinearForm


def _minimal_elements(exponents):
    exps = sorted(set(map(tuple, exponents)), key=lambda e: (sum(e), e))
    kept = []
    for e in exps:
        for v in kept:
            if all(map(le, v, e)):
                break
        else:
            kept.append(e)
    return frozenset(kept)


def _in_lattice(exponent) -> bool:
    """Whether every coordinate is an int (of type int itself, so a bool is
    not one) and non-negative."""
    for c in exponent:
        if type(c) is not int or c < 0:
            return False
    return True


@dataclass(frozen=True)
class Diagram:
    """Staircase in N^n, stored by its minimal vertex set."""

    n: int
    vertices: frozenset = field(default_factory=frozenset)

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("a diagram needs at least one coordinate")
        for v in self.vertices:
            if len(v) != self.n:
                raise ValueError(f"vertex {v} in a diagram on {self.n} coordinates")
            if not _in_lattice(v):
                raise ValueError(f"vertex {v} is not in N^{self.n}")
        object.__setattr__(self, "vertices", _minimal_elements(self.vertices))

    @property
    def is_empty(self) -> bool:
        return not self.vertices

    def member(self, exponent) -> bool:
        exponent = tuple(exponent)
        if len(exponent) != self.n:
            raise DimensionMismatchError(f"exponent {exponent} in a diagram on {self.n}")
        if not _in_lattice(exponent):
            raise ValueError(f"exponent {exponent} is not in N^{self.n}")
        for v in self.vertices:
            if all(map(le, v, exponent)):
                return True
        return False

    def sorted_vertices(self):
        """Vertices as sorted lists of ints, the serialized form."""
        return [list(v) for v in sorted(self.vertices)]

    def max_vertex_weight(self, form: PositiveLinearForm | None = None) -> int:
        """Largest vertex weight, by default the total degree; 0 for the
        empty diagram."""
        if form is None:
            return max(map(sum, self.vertices), default=0)
        _check_form(form, self.n)
        return max(map(form.weight, self.vertices), default=0)

    def contains(self, other: "Diagram") -> bool:
        """Staircase containment: every vertex of ``other`` is a member."""
        if other.n != self.n:
            raise DimensionMismatchError(f"diagrams on {self.n} and {other.n} coordinates")
        return all(self.member(v) for v in other.vertices)


def _check_form(form: PositiveLinearForm, n: int):
    """DimensionMismatchError unless the form is on n coordinates."""
    if form.n != n:
        raise DimensionMismatchError(f"form on {form.n} coordinates, diagram on {n}")


def vertices_from_exponents(exponents, n: int | None = None) -> Diagram:
    """Minimal generators of union(e + N^n) over the given exponents."""
    exps = [tuple(e) for e in exponents]
    if n is None:
        if not exps:
            raise ValueError("cannot infer ambient size from an empty exponent set")
        n = len(exps[0])
    return Diagram(n, frozenset(exps))


@dataclass(frozen=True)
class HilbertSamuelTable:
    """Values H(0), H(1), ..., H(eta_max)."""

    values: tuple

    def __post_init__(self):
        values = tuple(self.values)
        if not _in_lattice(values):
            raise ValueError(f"Hilbert-Samuel values {values} are not all non-negative ints")
        object.__setattr__(self, "values", values)

    def __getitem__(self, eta: int) -> int:
        if eta < 0:
            raise IndexError(f"eta {eta} is negative")
        return self.values[eta]

    def to_list(self):
        return list(self.values)


def _complement_histogram(d: Diagram, weights, eta: int) -> list:
    """hist[w]: lattice points outside the staircase of weight exactly w,
    for w = 0..eta.

    One pass per variable over the prefixes of the points, grouped by the
    vertices below the prefix (only they can still dominate its points);
    equal groups share one weight histogram.  The vertices below only
    accumulate as the next coordinate b grows, and once one is zero on every
    later coordinate, the points with that b or any larger one lie inside
    the staircase.  The answer is the group with no vertex left.
    """
    groups = {tuple(sorted(d.vertices)): [1] + [0] * eta}
    for i, w in enumerate(weights):
        merged: dict = {}
        for below, hist in groups.items():
            steps = {v[i] for v in below}
            for b in range(eta // w + 1):
                if b == 0 or b in steps:
                    kept = tuple(v for v in below if v[i] <= b)
                    if any(not any(v[i + 1:]) for v in kept):
                        break
                    target = merged.setdefault(kept, [0] * (eta + 1))
                off = w * b
                target[off:] = map(add, target[off:], hist)
        groups = merged
    return groups.get((), [0] * (eta + 1))


def complement_count(d: Diagram, form: PositiveLinearForm, eta: int) -> int:
    """Number of lattice points outside the staircase with weight <= eta.

    The sum of the complement's weight histogram up to eta, from the same
    walk that gives ``hilbert_samuel`` its table.
    """
    if eta < 0:
        raise ValueError("eta must be >= 0")
    _check_form(form, d.n)
    return sum(_complement_histogram(d, form.weights, eta))


def hilbert_samuel(d: Diagram, eta_max: int) -> HilbertSamuelTable:
    """Complement counts for the total-degree form, eta = 0..eta_max.

    The prefix sums of one weight histogram of the complement up to
    eta_max, so the staircase is walked once for the whole table.
    """
    if eta_max < 0:
        raise ValueError("eta_max must be >= 0")
    hist = _complement_histogram(d, (1,) * d.n, eta_max)
    return HilbertSamuelTable(tuple(accumulate(hist)))


def _vertex_axes(d: Diagram) -> set:
    """The axes that carry a vertex, a positive multiple of a unit vector."""
    supports = ([i for i, e in enumerate(v) if e] for v in d.vertices)
    return {s[0] for s in supports if len(s) == 1}


def has_axis_vertices(d: Diagram, k: int) -> bool:
    """True iff each of the first k axes carries a vertex.

    A vertex lies on axis i when it is a positive multiple of the i-th unit
    vector.
    """
    if not 1 <= k <= d.n:
        raise ValueError(f"k must be in 1..{d.n}")
    return _vertex_axes(d).issuperset(range(k))


def axis_vertex_prefix(d: Diagram) -> int:
    """Largest k with vertices on all of the first k axes (0 if none)."""
    axes = _vertex_axes(d)
    k = 0
    while k in axes:
        k += 1
    return k


def staircase_dimension(d: Diagram) -> int:
    """Dimension of the monomial quotient: the largest |S| such that no
    vertex is supported inside the coordinate set S.

    n for the empty diagram; -1 when the origin is a vertex (unit ideal).
    S is the complement of the fewest coordinates that meet every support,
    found by branching on the smallest support not yet met and cut at the
    best size so far.
    """
    supports = [frozenset(i for i, e in enumerate(v) if e) for v in d.vertices]
    if frozenset() in supports:
        return -1
    best = d.n
    stack = [frozenset()]
    while stack:
        chosen = stack.pop()
        unmet = [s for s in supports if not s & chosen]
        if not unmet:
            best = min(best, len(chosen))
        elif len(chosen) + 1 < best:
            stack.extend(chosen | {i} for i in min(unmet, key=len))
    return d.n - best


def product_structure(d: Diagram, k: int):
    """Projection D of the vertices to the first k coordinates, when the
    staircase splits as D x N^(n-k); None otherwise."""
    if not 1 <= k < d.n:
        raise ValueError(f"k must be in 1..{d.n - 1}")
    for v in d.vertices:
        if any(v[j] != 0 for j in range(k, d.n)):
            return None
    return sorted(set(v[:k] for v in d.vertices))


def diagrams_equal_up_to(
    d1: Diagram, d2: Diagram, form: PositiveLinearForm, l: int
) -> bool:
    """Membership agreement on the box {weight <= l}.

    Staircases are upward closed, so they agree on the box iff every vertex
    of one inside the box belongs to the other.
    """
    if d1.n != d2.n:
        raise DimensionMismatchError(f"diagrams on {d1.n} and {d2.n} coordinates")
    _check_form(form, d1.n)
    for v in d1.vertices:
        if form.weight(v) <= l and not d2.member(v):
            return False
    for v in d2.vertices:
        if form.weight(v) <= l and not d1.member(v):
            return False
    return True
