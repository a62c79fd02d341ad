"""Staircase sets of initial exponents and their lattice combinatorics.

A diagram is the upward-closed set union_v (v + N^n) determined by its
finite set of componentwise-minimal vertices.  The empty diagram (no
vertices) represents the empty staircase, i.e. the diagram of the zero
ideal.  Complement counts with respect to a positive linear form recover
Hilbert-Samuel data.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import accumulate, combinations
from operator import add

from .orders import PositiveLinearForm, degree_form, exp_divides


def _minimal_elements(exponents):
    exps = sorted(set(tuple(e) for e in exponents), key=lambda e: (sum(e), e))
    kept = []
    for e in exps:
        if not any(exp_divides(v, e) for v in kept):
            kept.append(e)
    return frozenset(kept)


@dataclass(frozen=True)
class Diagram:
    """Staircase in N^n, stored by its minimal vertex set."""

    n: int
    vertices: frozenset = field(default_factory=frozenset)

    def __post_init__(self):
        for v in self.vertices:
            if len(v) != self.n:
                raise ValueError(f"vertex {v} in a diagram on {self.n} coordinates")
        object.__setattr__(self, "vertices", _minimal_elements(self.vertices))

    @property
    def is_empty(self) -> bool:
        return not self.vertices

    def member(self, exponent) -> bool:
        exponent = tuple(exponent)
        return any(exp_divides(v, exponent) for v in self.vertices)

    def sorted_vertices(self):
        """Vertices as sorted lists of ints, the serialized form."""
        return [list(v) for v in sorted(self.vertices)]

    def max_vertex_weight(self, form: PositiveLinearForm | None = None) -> int:
        """Largest vertex weight; 0 for the empty diagram."""
        if not self.vertices:
            return 0
        if form is None:
            form = degree_form(self.n)
        return max(form.weight(v) for v in self.vertices)

    def contains(self, other: "Diagram") -> bool:
        """Staircase containment: every vertex of ``other`` is a member."""
        return all(self.member(v) for v in other.vertices)


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
        object.__setattr__(self, "values", tuple(int(v) for v in self.values))

    def __getitem__(self, eta: int) -> int:
        return self.values[eta]

    def to_list(self):
        return list(self.values)


def _complement_histogram(d: Diagram, weights, eta: int) -> list:
    """hist[w]: lattice points outside the staircase of weight exactly w,
    for w = 0..eta.

    Recursive walk over the leading coordinates of the points, one variable
    per level, keeping the vertices that lie below the prefix so far (only
    they can still dominate a point with that prefix).  A prefix with a kept
    vertex that is zero on every remaining coordinate lies inside the
    staircase and is skipped.  A prefix with no kept vertex counts every
    completion, read off the tail histogram of the remaining coordinates:
    the walk of the next coordinate with no vertices, kept per coordinate.
    As the value b of a coordinate grows the kept vertices only accumulate,
    so the walk below is redone only when b passes a vertex coordinate and
    is shifted by the weight of b in between.  Points inside the staircase
    are never materialized.
    """
    n = d.n
    tails: dict = {}

    def walk(i: int, active) -> list | None:
        # None when a kept vertex dominates every point with this prefix
        if any(not any(v[i:]) for v in active):
            return None
        if i == n:
            return [1] + [0] * eta
        if not active and i in tails:
            return tails[i]
        w = weights[i]
        hist = [0] * (eta + 1)
        prev = sub = None
        for b in range(eta // w + 1):
            kept = [v for v in active if v[i] <= b]
            if kept != prev:
                prev, sub = kept, walk(i + 1, kept)
            if sub is not None:
                off = w * b
                hist[off:] = map(add, hist[off:], sub)
        if not active:
            tails[i] = hist
        return hist

    return walk(0, sorted(d.vertices)) or [0] * (eta + 1)


def complement_count(d: Diagram, form: PositiveLinearForm, eta: int) -> int:
    """Number of lattice points outside the staircase with weight <= eta.

    The sum of the complement's weight histogram up to eta, from the same
    walk that gives ``hilbert_samuel`` its table.
    """
    if eta < 0:
        raise ValueError("eta must be >= 0")
    if form.n != d.n:
        raise ValueError(f"form on {form.n} coordinates, diagram on {d.n}")
    return sum(_complement_histogram(d, form.weights, eta))


def hilbert_samuel(d: Diagram, eta_max: int) -> HilbertSamuelTable:
    """Complement counts for the total-degree form, eta = 0..eta_max.

    The prefix sums of one weight histogram of the complement up to
    eta_max, so the staircase is walked once for the whole table.
    """
    if eta_max < 0:
        raise ValueError("eta_max must be >= 0")
    hist = _complement_histogram(d, degree_form(d.n).weights, eta_max)
    return HilbertSamuelTable(tuple(accumulate(hist)))


def has_axis_vertices(d: Diagram, k: int) -> bool:
    """True iff each of the first k axes carries a vertex.

    A vertex lies on axis i when it is a positive multiple of the i-th unit
    vector.
    """
    if not 1 <= k <= d.n:
        raise ValueError(f"k must be in 1..{d.n}")
    for i in range(k):
        if not any(
            v[i] > 0 and all(v[j] == 0 for j in range(d.n) if j != i)
            for v in d.vertices
        ):
            return False
    return True


def axis_vertex_prefix(d: Diagram) -> int:
    """Largest k with vertices on all of the first k axes (0 if none)."""
    k = 0
    while k < d.n and has_axis_vertices(d, k + 1):
        k += 1
    return k


def staircase_dimension(d: Diagram) -> int:
    """Dimension of the monomial quotient: the largest |S| such that no
    vertex is supported inside the coordinate set S.

    n for the empty diagram; -1 when the origin is a vertex (unit ideal).
    """
    supports = [{i for i, e in enumerate(v) if e} for v in d.vertices]
    for size in range(d.n, -1, -1):
        for s in map(set, combinations(range(d.n), size)):
            if not any(sup <= s for sup in supports):
                return size
    return -1


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
        raise ValueError("diagrams on different ambient sizes")
    for v in d1.vertices:
        if form.weight(v) <= l and not d2.member(v):
            return False
    for v in d2.vertices:
        if form.weight(v) <= l and not d1.member(v):
            return False
    return True
