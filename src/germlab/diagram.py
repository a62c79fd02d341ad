"""Staircase sets of initial exponents and their lattice combinatorics.

A diagram is the upward-closed set union_v (v + N^n) determined by its
finite set of componentwise-minimal vertices.  The empty diagram (no
vertices) represents the empty staircase, i.e. the diagram of the zero
ideal.  Complement counts with respect to a positive linear form recover
Hilbert-Samuel data.
"""

from __future__ import annotations

from dataclasses import dataclass, field

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


def complement_count(d: Diagram, form: PositiveLinearForm, eta: int) -> int:
    """Number of lattice points outside the staircase with weight <= eta.

    Recursive per-coordinate enumeration: once no vertex can still dominate
    the chosen prefix the whole remaining simplex is counted in closed
    recursive form, and subtrees that are entirely inside the staircase are
    pruned, so points inside the staircase are never materialized.
    """
    if eta < 0:
        raise ValueError("eta must be >= 0")
    if form.n != d.n:
        raise ValueError(f"form on {form.n} coordinates, diagram on {d.n}")
    weights = form.weights
    vertices = sorted(d.vertices)
    simplex_cache: dict = {}

    def simplex(i: int, budget: int) -> int:
        # count of (b_i, ..., b_{n-1}) >= 0 with sum weights[j]*b_j <= budget
        if budget < 0:
            return 0
        if i == d.n:
            return 1
        key = (i, budget)
        got = simplex_cache.get(key)
        if got is None:
            got = sum(
                simplex(i + 1, budget - weights[i] * b)
                for b in range(budget // weights[i] + 1)
            )
            simplex_cache[key] = got
        return got

    def walk(i: int, budget: int, active) -> int:
        if any(all(v[j] == 0 for j in range(i, d.n)) for v in active):
            return 0  # some vertex already dominates: subtree inside
        if not active:
            return simplex(i, budget)
        total = 0
        for b in range(budget // weights[i] + 1):
            total += walk(i + 1, budget - weights[i] * b, [v for v in active if v[i] <= b])
        return total

    return walk(0, eta, vertices)


def hilbert_samuel(d: Diagram, eta_max: int) -> HilbertSamuelTable:
    """Complement counts for the total-degree form, eta = 0..eta_max."""
    if eta_max < 0:
        raise ValueError("eta_max must be >= 0")
    form = degree_form(d.n)
    return HilbertSamuelTable(
        tuple(complement_count(d, form, eta) for eta in range(eta_max + 1))
    )


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
