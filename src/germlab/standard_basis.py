"""Local division, s-series, Becker's criterion and standard-basis completion.

Division for a local order cannot proceed naively: reducing x by x - x^2
gives x^2, x^3, ... forever.  The classical fix is the ecart-driven weak
normal form: among the applicable reducers pick one of minimal ecart, and
when even that minimal ecart exceeds the ecart of the current polynomial,
adjoin the current polynomial itself to the reducer list first.  Each
self-included reducer strictly shrinks the antichain of (initial exponent,
ecart) pairs available for further inclusions, so by Dickson's lemma only
finitely many inclusions happen; afterwards the top weight is non-increasing
while the initial exponent strictly climbs through a finite box, so the
loop stops.  The price is an explicit unit: the division identity reads

    unit * f  =  sum_i quotient_i * basis_i  +  remainder

with unit(0) = 1.  The remainder's initial exponent lies outside the
staircase of the basis initial exponents; a zero remainder certifies ideal
membership.  Units never move initial exponents, so every verdict built on
top (membership, diagrams, Becker's criterion) is unaffected by them.

Division, Becker's check, completion and the tangent cone's reduced basis
all reduce through one kernel, ``_submul``, on integer polynomials
homogenized with a grading variable t (Lazard's view of Mora's algorithm).
The kernel also divides the integer content out of each result, so every
element the engine keeps or reduces is integer-primitive and coefficients
stay at Gaussian-elimination size.  A ``Poly`` stores integer numerators
over one denominator, so coefficients enter by a read of that pair
(``poly._integral``) and leave at t = 1 through ``_Packing.poly``, which
cuts a result to the stored form by one gcd; no Fraction is built on
either side, and in between contents and step scalars are reduced integer
pairs (num, den).  With the common power of t divided out, a polynomial's
ecart is the t-exponent of its homogenized lead, and adjoining the current
polynomial followed by a shift by t^k is what lets a reducer of larger
ecart divide it.  Reductions record their steps, and cofactors are
rebuilt from the records only where they are needed.  Becker's check
reduces against the homogenized basis alone, each element the given one
times a constant, so its quotients are read straight off the steps, one
term per step, each quotient over its own denominator; and its
initial-exponent inequality compares order keys, which add as exponents
do, without forming an exponent.

Diagrams of zero-dimensional ideals, and of monomials times them, need no
completion: the same kernel top-reduces a truncated Macaulay matrix of the
ideal with its monomial content divided out, with t = 0, until its pivots
cover a window of weights, and the minimal pivots, shifted back, are the
diagram.  The matrix, its box and its column cap are those of the
quotient alone, the content entering only in that shift; its rows are
packed from the stored numerators, so only the graded engine
homogenizes.
Both engines give the cache (diagram, packing, rows), one row per vertex,
whose lowest-weight parts, reduced against each other, are the reduced
basis of the tangent cone, so an ideal the echelon settles needs no
completion for its cone either.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from functools import lru_cache
from heapq import heapify, heappop, heappush
from itertools import chain
from math import comb, gcd, lcm
from operator import add, mul

from .diagram import Diagram, vertices_from_exponents
from .errors import DimensionMismatchError, ResourceLimitError, ZeroPolynomialError
from .orders import REVERSE, LocalOrder, exp_add, exp_max, exp_sub, weighted_box
from .poly import Poly, _integral, _mul_into, _over, _products, initial_term


@dataclass(frozen=True)
class ResourceLimits:
    """Desk-scale guards; exceeding one raises, nothing is truncated."""

    max_terms: int = 20000
    max_pairs: int = 4000
    max_reductions: int = 200000


DEFAULT_LIMITS = ResourceLimits()


def s_series(f: Poly, g: Poly, order: LocalOrder) -> Poly:
    """g_lead * x^(gamma-bf) * f - f_lead * x^(gamma-bg) * g.

    gamma is the componentwise max of the two initial exponents; the initial
    terms cancel, so the result is zero or sits strictly above gamma.
    """
    bf, cf = initial_term(f, order)
    bg, cg = initial_term(g, order)
    gamma = exp_max(bf, bg)
    return f.mul_term(cg, exp_sub(gamma, bf)) - g.mul_term(cf, exp_sub(gamma, bg))


@dataclass
class NormalFormResult:
    """Exact outcome of weak normal form against a basis list.

    ``unit`` and ``quotients`` are None when the caller asked for the
    remainder only (verdicts like membership need nothing else).
    """

    remainder: Poly
    unit: Poly | None
    quotients: list | None

    def verify(self, subject: Poly, basis) -> bool:
        """Re-expand sum(quotients*basis) + remainder - unit*subject to zero."""
        one = Poly.constant(subject.n, 1)
        pairs = [*zip(self.quotients, basis), (self.remainder, one), (-self.unit, subject)]
        return not _products(pairs)[1]


def _check_variables(polys, order: LocalOrder):
    """DimensionMismatchError unless every polynomial is on order.n variables."""
    for p in polys:
        if p.n != order.n:
            raise DimensionMismatchError(
                f"polynomial on {p.n} variables under an order on {order.n}"
            )


def weak_normal_form(
    f: Poly,
    basis,
    order: LocalOrder,
    limits: ResourceLimits = DEFAULT_LIMITS,
    certificates: bool = True,
) -> NormalFormResult:
    """Mora weak normal form of f against a list of nonzero polynomials.

    Always terminates on polynomial input (see module docstring).  When the
    remainder is nonzero its initial exponent is divisible by no basis
    initial exponent.  With ``certificates`` the unit and quotients of the
    division identity are materialized; without, only the remainder.

    The division runs on the homogenized subject and basis, one ``_submul``
    per step.  The kernel strips the integer content; each step then divides
    out the common power of the grading variable t, so the lead's
    t-exponent is the ecart.  Among the reducers whose lead x-part divides
    the work's, the one of least ecart (first in list order) is taken;
    when its ecart exceeds the work's by k, a copy of the work joins the
    reducers and the work is shifted by t^k first.  The copy carries its
    cofactors, rebuilt by ``_cofactors`` from the steps since the previous
    copy, so the unit and quotients of the result need only the steps since
    the last one.  Each step's scalar a / c is tracked exactly, as a
    running integer pair, which gives the remainder with unit(0) = 1.
    """
    n = f.n
    _check_variables((f, *basis), order)
    if f.is_zero:
        zero = Poly.zero(n)
        if certificates:
            return NormalFormResult(zero, Poly.constant(n, 1), [zero] * len(basis))
        return NormalFormResult(zero, None, None)
    if any(g.is_zero for g in basis):
        raise ZeroPolynomialError("basis elements must be nonzero")
    packing, reducers, contents = _homogenize([*basis, f], order)
    # at t = 1 the work is lam * (base.poly - what the steps took off), lam
    # the product of their a / c, and scale * base.poly is the division's
    # value at base: the subject until the first self-inclusion, then the
    # latest self-included work; both are (num, den) pairs in lowest terms
    base = reducers.pop()
    scale = contents[-1]
    work = dict(base.poly)
    lam = (1, 1)
    steps = []
    done = 0
    while work:
        mask = packing.max_grade
        lead = min(work)
        divisors = [r for r in reducers if packing.xdivides(r.lead, lead)]
        if not divisors:
            break
        t = min(divisors, key=lambda r: r.lead & mask)
        k = (t.lead & mask) - (lead & mask)
        if k > 0:
            neg = (-lam[0], lam[1])
            cof = _cofactors(steps, packing, neg, [(lam, 0, base)]) if certificates else None
            base = _HElement(work, packing, cof)
            reducers.append(base)
            scale = _lowest(scale[0] * lam[1], scale[1] * lam[0])
            lam = (1, 1)
            steps = []
            # _fit repacks the copy with the reducers; the work is a shifted copy
            packing = _fit(packing, reducers, packing.grade(lead) + k)
            work = {e + k: v for e, v in base.poly.items()}
            lead = base.lead + k
        m = lead - t.lead
        a, b, c = _submul(work, t.lc, work[lead], m, t.poly)
        work = packing.strip_t(work)
        if a != c:
            lam = _lowest(lam[0] * a, lam[1] * c)
        if certificates:
            steps.append((t, m, a, b, c))
        done += 1
        if done > limits.max_reductions:
            raise ResourceLimitError("max_reductions", limits.max_reductions)
        if len(work) > limits.max_terms:
            raise ResourceLimitError("max_terms", limits.max_terms)

    remainder = packing.poly(work, *_lowest(scale[0] * lam[1], scale[1] * lam[0]))
    if not certificates:
        return NormalFormResult(remainder, None, None)
    # the combination of -remainder = sum_i Q_i * basis_i - unit * f
    cof = _cofactors(steps, packing, scale, [((-scale[0], scale[1]), 0, base)])
    *quotients, unit = _cofactor_polys(n, cof, len(basis) + 1)
    return NormalFormResult(remainder, -unit, quotients)


@dataclass
class StandardRepresentation:
    """Unit-adjusted standard representation unit*subject = sum Q_i basis_i.

    The representation is honest (unit-free) exactly when ``unit`` is the
    constant 1; either way the initial-exponent inequality below holds, and
    dividing by the unit would change no initial exponent.
    """

    subject: Poly
    quotients: list
    unit: Poly

    def verify(self, basis) -> bool:
        """Re-expand sum(quotients*basis) - unit*subject to zero."""
        pairs = [*zip(self.quotients, basis), (-self.unit, self.subject)]
        return not _products(pairs)[1]

    def inequality_holds(self, basis, order: LocalOrder) -> bool:
        """inexp(subject) <= inexp(Q_i basis_i) for every nonzero product.

        inexp(Q_i basis_i) is inexp(Q_i) + inexp(basis_i): the order is
        compatible with exponent addition and the coefficients have no zero
        divisors, so no product is formed.  ``order.key`` is additive,
        component by component, so the product's least key is the sum of
        the two least keys, and only keys are compared.
        """
        if self.subject.is_zero:
            return True
        n = order.n
        if self.subject.n != n:
            raise DimensionMismatchError(
                f"polynomial on {self.subject.n} variables, order on {n}"
            )
        key = order.key
        lead = min(map(key, self.subject.exponents()))
        for q, g in zip(self.quotients, basis):
            if q.is_zero or g.is_zero:
                continue
            if q.n != n or g.n != n:
                raise DimensionMismatchError(
                    f"polynomials on {q.n} and {g.n} variables, order on {n}"
                )
            least = tuple(map(add, min(map(key, q.exponents())), min(map(key, g.exponents()))))
            if least < lead:
                return False
        return True


@dataclass
class BeckerResult:
    """Outcome of the s-series criterion over all pairs of a basis."""

    ok: bool
    representations: list = field(default_factory=list)
    failure: tuple | None = None  # (i, j, remainder)


def becker_check(
    basis, order: LocalOrder, limits: ResourceLimits = DEFAULT_LIMITS
) -> BeckerResult:
    """Try a standard representation for every pairwise s-series.

    Returns the first failing pair with its irreducible remainder, or all
    representations on success.  Pairs are scanned in index order, so the
    witness is deterministic.  Each s-polynomial is reduced by ``_hreduce``
    against the homogenized basis; its subject is the packed s-pair at
    grading variable 1, rescaled to the s-series of the given elements.  A
    zero result gives a unit-free representation, its quotients read off
    the step records by ``_step_quotients``, one term per step and each
    quotient over its own denominator.  A nonzero result's smallest
    key is the first term found irreducible: when no lead's x-part divides
    its x-part, the result at grading variable 1 is the witness; otherwise
    only the grading variable blocked it and the unit-carrying division is
    the fallback.
    """
    n = order.n
    _check_variables(basis, order)
    if any(g.is_zero for g in basis):
        raise ZeroPolynomialError("basis elements must be nonzero")
    packing, helems, contents = _homogenize(basis, order)
    where = {h: k for k, h in enumerate(helems)}
    one = Poly.constant(n, 1)  # the unit of every unit-free representation

    reps = []
    for i in range(len(basis)):
        for j in range(i + 1, len(basis)):
            bound = packing.grade(helems[i].lead) + packing.grade(helems[j].lead)
            packing = _fit(packing, helems, bound)
            gamma = packing.pack(exp_max(helems[i].lm, helems[j].lm))
            work, a, _, c = _spair(helems[i], helems[j], gamma)
            if not work:
                # dehomogenizing is injective on a homogeneous polynomial
                reps.append((i, j, None))
                continue
            # the s-series is scale * work at grading variable 1: the packed
            # elements are the true ones divided by their contents, and the
            # s-pair is divided by its own content c
            (ni, di), (nj, dj) = contents[i], contents[j]
            scale = _lowest(ni * nj * (helems[j].lc // a) * c, di * dj)
            s = packing.poly(work, *scale)
            work, steps = _hreduce(work, helems, packing, limits)
            if not work:
                # work ended at 0, so s = scale * sum_r beta_r * x^(m_r) * t_r.poly
                quotients = _step_quotients(n, steps, packing, scale, where, contents)
                reps.append(
                    (i, j, StandardRepresentation(s, quotients, one))
                )
                continue
            lead = min(work)
            if not any(packing.xdivides(b.lead, lead) for b in helems):
                # the witness is scale / lam * work at grading variable 1
                lnum, lden = _ratio(steps)
                witness = packing.poly(work, *_lowest(scale[0] * lden, scale[1] * lnum))
                return BeckerResult(False, reps, (i, j, witness))
            nf = weak_normal_form(s, basis, order, limits)
            if not nf.remainder.is_zero:
                return BeckerResult(False, reps, (i, j, nf.remainder))
            reps.append(
                (i, j, StandardRepresentation(s, nf.quotients, nf.unit))
            )
    return BeckerResult(True, reps)


@dataclass(frozen=True)
class CompletionResult:
    """Completed basis plus, per element, its combination over the original
    generators (an exact polynomial identity, re-expandable in tests).
    Certificates are None when the completion ran in verdict-only mode.

    ``CompletionResult(basis, certificates)`` holds both as given.  A result
    made by the presentation cache starts with neither field set and a
    pending build that holds the graded elements (or, when an echelon
    certified the entry's diagram, only the generators); the first read of
    either field runs it, once, under the presentation's lock, completing
    first if no completion ran yet, and drops it.  A build that raises
    leaves the fields unset, so the next read retries.  Equality and repr
    read both fields, so they build too.
    """

    basis: tuple
    certificates: tuple | None  # certificates[k][i] multiplies generator i

    __hash__ = None

    @classmethod
    def _deferred(cls, build, lock) -> "CompletionResult":
        """A result whose (basis, certificates) is ``build()``, run on first read."""
        result = cls.__new__(cls)
        object.__setattr__(result, "_build", (build, lock))
        return result

    def __getattr__(self, name):
        # reached only when normal lookup fails: a field not built yet
        if name not in self.__dataclass_fields__:
            raise AttributeError(name)
        pending = vars(self).get("_build")
        if pending is not None:
            build, lock = pending
            with lock:
                if "_build" in vars(self):
                    basis, certificates = build()
                    object.__setattr__(self, "basis", basis)
                    object.__setattr__(self, "certificates", certificates)
                    object.__delattr__(self, "_build")
        return object.__getattribute__(self, name)


class IdealPresentation:
    """Generator list with cached standard bases, diagrams and tangent
    cones per order.

    An empty generator list represents the zero ideal.  Each cache entry
    holds a ``CompletionResult``, the diagram, whether the result carries
    certificates, and one packed element of the ideal per vertex with its
    packing; both engines hand the entry the same (diagram, packing, rows).
    A verdict-only miss is certified without any completion by the
    truncated echelon of ``_echelon_diagram`` when it can (the
    zero-dimensional ideals it settles, and monomials times them), else
    the verdict-only completion
    runs and the diagram is read off its graded leads; a request for
    certificates always completes.  The per-vertex elements give the
    tangent cone's reduced basis (``_cone``), whichever engine made the
    entry, so an echelon-certified ideal needs no completion for its cone.
    The result builds its dehomogenized basis on first read, completing
    then if the echelon stood in for the completion, so a caller that only
    asks for diagrams never pays for a basis, and for an echelon-certified
    diagram not for a completion either.  A presentation completes at most
    once per order (twice when certificates are asked of a verdict-only
    entry) and reduces its cone once per order.  Certifying, completing,
    building and reducing run under one lock, each once per entry, so
    concurrent readers are safe; a cached verdict-only entry is replaced by
    a certified one when certificates are requested later.
    """

    def __init__(self, n: int, generators):
        gens = []
        for g in generators:
            if not isinstance(g, Poly):
                raise TypeError("generators must be Poly instances")
            if g.n != n:
                raise DimensionMismatchError(f"generator on {g.n} variables in an ideal on {n}")
            if g.is_zero:
                raise ZeroPolynomialError("generators must be nonzero")
            gens.append(g)
        self.n = n
        self.generators = tuple(gens)
        self._cache: dict = {}
        self._cones: dict = {}
        self._lock = threading.Lock()

    def __repr__(self):
        gens = ", ".join(str(g) for g in self.generators)
        return f"IdealPresentation({self.n}, [{gens}])"

    def extended(self, extra) -> "IdealPresentation":
        """New presentation with extra generators appended (zeroes dropped)."""
        return IdealPresentation(
            self.n, list(self.generators) + [g for g in extra if not g.is_zero]
        )

    def _entry(self, order: LocalOrder, limits: ResourceLimits, certificates: bool):
        """The cache entry (result, diagram, certified, packing, rows) of
        ``order``, made when there is none or when certificates are asked
        of a verdict-only one.  The result's basis is left to its first
        read.  ``rows`` holds one packed element of the ideal per vertex,
        led by it, as both engines give it: the echelon's vertex rows, or
        the first kept graded element of the completion whose lead's x-part
        is the vertex.

        A verdict-only miss tries ``_echelon_diagram`` first, unless a
        diagram cached for another order shows the ideal, its monomial
        content divided out, to be positive-dimensional, where the echelon
        could only decline; when it certifies the diagram, the entry holds
        it, and the result runs the completion on its first read, under
        these ``limits``.  A request for certificates goes straight to
        ``_complete``.
        """
        if order.n != self.n:
            raise DimensionMismatchError(
                f"order on {order.n} variables for an ideal on {self.n}"
            )
        with self._lock:
            got = self._cache.get(order)
            if got is None or (certificates and not got[2]):
                gens, n = self.generators, self.n
                certified = None
                if not (certificates or self._positive_dimensional()):
                    certified = _echelon_diagram(gens, order)
                done = None if certified else _complete(gens, order, limits, certificates)
                diagram, packing, rows = certified or done[:3]

                def build():
                    _, packing, _, kept = done or _complete(gens, order, limits, certificates)
                    return _completion_result(n, len(gens), packing, kept, certificates)

                result = CompletionResult._deferred(build, self._lock)
                got = self._cache[order] = (result, diagram, certificates, packing, rows)
            return got

    def _positive_dimensional(self) -> bool:
        """Whether a cached diagram D shows the ideal divided by its
        monomial content x^c to be positive-dimensional: D - c lacks a
        vertex on some axis.  The dimension does not depend on the order,
        so the echelon, which certifies only zero-dimensional quotients,
        could only decline for any other order.  Called under the lock."""
        entry = next(iter(self._cache.values()), None)
        if entry is None:
            return False
        c = _content(self.generators, self.n)
        return not _reaches_every_axis((exp_sub(v, c) for v in entry[1].vertices), self.n)

    def completion(
        self,
        order: LocalOrder,
        limits: ResourceLimits = DEFAULT_LIMITS,
        certificates: bool = True,
    ) -> CompletionResult:
        return self._entry(order, limits, certificates)[0]

    def diagram(
        self, order: LocalOrder, limits: ResourceLimits = DEFAULT_LIMITS
    ) -> Diagram:
        """Diagram of initial exponents of the ideal under ``order``.

        The call goes through ``completion`` first, verdict-only, so every
        diagram is one ``completion`` call, whoever asks for it; on a miss
        that call tries the truncated echelon of ``_echelon_diagram``, and
        when it gives no answer the verdict-only completion runs.  The
        diagram is then read off the cached entry.
        """
        self.completion(order, limits, certificates=False)
        return self._entry(order, limits, False)[1]

    def _cone(self, order: LocalOrder, limits: ResourceLimits) -> tuple:
        """The reduced Groebner basis of the tangent cone for the degree
        ``order``, ascending by lead, reduced once and cached per order.

        The entry comes by the verdict-only path, the echelon first, and
        ``_reduced_cone`` turns its per-vertex elements into the basis,
        which depends only on the ideal and the order: not on the engine
        that made the entry, the generators given or the calls before.
        """
        _, _, _, packing, rows = self._entry(order, limits, False)
        with self._lock:
            cone = self._cones.get(order)
            if cone is None:
                cone = self._cones[order] = _reduced_cone(packing, rows, limits)
            return cone


class _Packing:
    """Monomials of the homogenized ring (x_1..x_n, t) packed into one int.

    Packed exponent vectors after Monagan and Pearce (CASC 2007).  The
    fields, most significant first, are weight(x), the x-exponents in
    tie-break order (x_n..x_1 for reverse, x_1..x_n for forward) and t, each
    ``bits`` wide with its top bit a guard.  Inside one graded piece
    weight(x) + t is constant, so comparing packed ints is the graded order
    (grade first, then the local order on the x-part) and the lead of a
    homogeneous polynomial is its smallest key.  Exponent addition is int
    addition, and a divides b exactly when b - a sets no guard bit.  Both
    hold while every field stays below its guard, which every monomial of
    grade at most ``max_grade`` does; ``_fit`` widens the fields before any
    work in a higher grade.  t is the lowest field, so dividing by t^k is an
    int subtraction and shifting t out leaves the x-part.  The methods read
    this layout; only the hot loops test ``guard`` inline.
    """

    __slots__ = ("order", "n", "bits", "max_grade", "guard", "shifts", "wshift", "mults")

    def __init__(self, order: LocalOrder, grade: int):
        n = order.n
        bits = grade.bit_length() + 1
        fields = range(1, n + 1) if order.tiebreak == REVERSE else range(n, 0, -1)
        self.order = order
        self.n = n
        self.bits = bits
        self.max_grade = (1 << (bits - 1)) - 1
        self.guard = sum(1 << (f * bits + bits - 1) for f in range(n + 2))
        self.shifts = [f * bits for f in fields]
        self.wshift = wshift = (n + 1) * bits
        self.mults = [
            (w << wshift) + (1 << s) for w, s in zip(order.form.weights, self.shifts)
        ] + [1]

    def pack(self, exp) -> int:
        return sum(map(mul, exp, self.mults))

    def unpack(self, key) -> tuple:
        mask = self.max_grade
        return tuple([(key >> s) & mask for s in self.shifts] + [key & mask])

    def xpart(self, key) -> tuple:
        """The x-exponents of a packed monomial: ``unpack`` without t."""
        mask = self.max_grade
        return tuple([(key >> s) & mask for s in self.shifts])

    def grade(self, key) -> int:
        """weight(x) + t, read off the top and bottom fields."""
        return (key >> self.wshift) + (key & self.max_grade)

    def poly(self, work: dict, num: int = 1, den: int = 1) -> Poly:
        """num / den times a homogeneous packed dict at t = 1, as a ``Poly``."""
        values = work.values() if num == 1 else [v * num for v in work.values()]
        return _over(self.n, den, zip(map(self.xpart, work), values))

    def strip_t(self, work: dict) -> dict:
        """work divided by the highest power of t that divides every term."""
        mask = self.max_grade
        tmin = min((e & mask for e in work), default=0)
        return {e - tmin: v for e, v in work.items()} if tmin else work

    def xdivides(self, a: int, b: int) -> bool:
        """Whether the x-part of a divides that of b, whatever their t."""
        bits = self.bits
        return not ((b >> bits) - (a >> bits)) & (self.guard >> bits)


class _HElement:
    """Weighted-homogeneous basis element over Z with cached lead data.

    ``poly`` maps packed monomials to ints, ``lead`` is its smallest key and
    ``lm`` the same monomial as an exponent tuple for the pair update.
    ``cof`` (when tracked) holds the element's cofactors in the local ring
    as integer numerators over their least common denominator,
    (den, {generator index: {x-exponent: int}}), with

        poly at t = 1  =  sum_k cof[k] * generator_k / den.

    Evaluating the grading variable t at 1 is a ring map, so cofactors never
    carry t, and powers of t divided out of ``poly`` leave them unchanged.
    """

    __slots__ = ("poly", "lead", "lm", "lc", "cof")

    def __init__(self, poly: dict, packing: _Packing, cof):
        self.poly = poly
        self.lead = min(poly)
        self.lm = packing.unpack(self.lead)
        self.lc = poly[self.lead]
        self.cof = cof


def _homogenize(polys, order: LocalOrder):
    """Weighted homogenization of nonzero polynomials into packed elements,
    for the graded engine: Mora division, Becker's check and ``_complete``.

    Pads each term with a grading variable so every term reaches the top
    weight of its polynomial, and strips the rational content c, so each
    element's poly equals f_hom / c and its cofactor is the unit e_k / c.
    c is the pair (num, den): den f's stored denominator, the lcm of its
    coefficients' denominators, and num the gcd of its stored numerators
    (``_integral``).  Each term's weight, computed once, gives the top
    weight and the term's t-exponent, top minus it, and since t is the
    lowest field the term's key is its packed x-part plus that exponent.
    Returns (packing, elements, contents), the packing sized for the top weights.
    """
    weights = order.form.weights
    weighed = [[sum(map(mul, weights, e)) for e in f.exponents()] for f in polys]
    tops = list(map(max, weighed))
    packing = _Packing(order, max(tops, default=0))
    pack = packing.pack
    origin = (0,) * order.n
    elems = []
    contents = []
    for k, (f, ws, top) in enumerate(zip(polys, weighed, tops)):
        den, terms = _integral(f)
        num = gcd(*terms.values())
        poly = {pack(e) + top - w: v // num for (e, v), w in zip(terms.items(), ws)}
        elems.append(_HElement(poly, packing, (num, {k: {origin: den}})))
        contents.append((num, den))
    return packing, elems, contents


def _fit(packing: _Packing, elems, grade: int) -> _Packing:
    """A packing whose fields hold ``grade``, repacking the elements in
    place when the current one is too narrow.  Callers pass the sum of two
    lead grades, a bound on the grade of their lcm, before packing that lcm,
    or the grade of a division's work before shifting it up.  The new width
    covers twice the grade, so work climbing through the grades repacks only
    a logarithmic number of times."""
    if grade <= packing.max_grade:
        return packing
    wide = _Packing(packing.order, 2 * grade)
    for b in elems:
        b.poly = {wide.pack(packing.unpack(e)): v for e, v in b.poly.items()}
        b.lead = wide.pack(b.lm)
    return wide


def _submul(work: dict, lc: int, lt: int, m: int, poly: dict, heap=None):
    """The reduction kernel: work becomes (a * work - b * x^m * poly) / c, in
    place, over packed keys.

    Fraction-free: with lc the lead coefficient of poly and lt the
    coefficient of x^m * lead(poly) in work, the multipliers (a, b) are
    (lc, lt) divided by their gcd, so that term cancels with the smallest
    integers; work is multiplied only when a != 1.  Terms that cancel are
    dropped; keys new to the support are pushed onto ``heap`` when one is
    given.  c is the integer content of the result (1 when it is zero),
    divided out so coefficients stay at Gaussian-elimination size, and
    every result is integer-primitive.  Returns (a, b, c).
    """
    g = gcd(lc, lt)
    a, b = lc // g, lt // g
    if a != 1:
        for e in work:
            work[e] *= a
    get = work.get
    for e, v in poly.items():
        key = e + m
        acc = get(key)
        if acc is None:
            work[key] = -b * v
            if heap is not None:
                heappush(heap, key)
        else:
            acc -= b * v
            if acc:
                work[key] = acc
            else:
                del work[key]
    c = gcd(*work.values())
    if c > 1:
        for e in work:
            work[e] //= c
    return a, b, c or 1


def _spair(f: _HElement, g: _HElement, gamma: int):
    """The s-polynomial (a * x^(gamma - lm(f)) * f - b * x^(gamma - lm(g)) * g) / c
    of two elements with packed lead lcm gamma, built in a fresh dict by
    ``_submul``; returns it with (a, b, c)."""
    shift = gamma - f.lead
    work = {e + shift: v for e, v in f.poly.items()}
    return (work, *_submul(work, g.lc, f.lc, gamma - g.lead, g.poly))


def _hreduce(work, reducers, packing: _Packing, limits: ResourceLimits):
    """Full reduction in the homogenized world, fraction-free over Z.

    The one reduction loop: the completion and Becker's check both reduce
    through it.  Each step is one call of the kernel ``_submul``, which
    strips the integer content, so coefficients stay at
    Gaussian-elimination size; because every polynomial is
    weighted-homogeneous the working position walks through the finitely
    many exponents of one graded piece, so reduction is short.
    Terms are taken smallest first off a heap of packed keys.  A step at key
    k only adds keys above k, so a term found irreducible stays below every
    later lead and is never looked at again.  Every term of the result is
    head-irreducible against the basis, and common powers of the grading
    variable are divided out of it.  The input is copied once on entry and
    the copy reduced in place, so no caller's dict (an element's poly among
    them) changes.  Returns (work, steps): each step (t, m, a, b, c) records
    that work became (a*work - b*x^m*t.poly)/c, from which ``_cofactors``
    rebuilds the combination.
    """
    guard = packing.guard
    heads = [(b.lead, b) for b in reducers]
    work = dict(work)
    heap = list(work)
    heapify(heap)
    steps = []
    while heap:
        lm = heappop(heap)
        if lm not in work:
            continue
        for head, t in heads:
            if not (lm - head) & guard:
                break
        else:
            continue
        m = lm - head
        steps.append((t, m, *_submul(work, t.lc, work[lm], m, t.poly, heap)))
        if len(steps) > limits.max_reductions:
            raise ResourceLimitError("max_reductions", limits.max_reductions)
        if len(work) > limits.max_terms:
            raise ResourceLimitError("max_terms", limits.max_terms)
    return packing.strip_t(work), steps


def _reduced_cone(packing: _Packing, rows, limits: ResourceLimits) -> tuple:
    """The reduced Groebner basis of the tangent cone, ascending by lead,
    from one packed element of the ideal per vertex of its degree-order
    diagram, each led by its vertex.

    Each element is homogeneous in (x, t) with its lead the smallest key,
    so its lowest-degree part, shifted to t = 0, is the initial form of the
    element at t = 1: the forms are a Groebner basis of the cone, led by
    the vertices.  Each form is fully reduced by ``_hreduce`` against the
    others and made monic.  No other vertex divides its lead (the vertices
    are an antichain), its lead divides none of its other terms (same
    degree, other exponent), and a step only adds terms above the one it
    removes; so the lead stays and every other term left is a standard
    monomial, which makes the forms the reduced basis (Greuel-Pfister
    ch. 1), unique for the ideal and the order.
    """
    forms = []
    for row in rows:
        lead = min(row)
        weight, t = lead >> packing.wshift, lead & packing.max_grade
        form = {k - t: c for k, c in row.items() if k >> packing.wshift == weight}
        forms.append(_HElement(form, packing, None))
    forms.sort(key=lambda f: f.lead)
    cone = []
    for f in forms:
        work, _ = _hreduce(f.poly, [g for g in forms if g is not f], packing, limits)
        cone.append(packing.poly(work, 1, work[f.lead]))
    return tuple(cone)


def _betas(steps, scale):
    """(p, q, m, t) per step (t, m, a, b, c) of ``_hreduce``: p / q is
    scale * beta_r, beta_r = b_r / (a_r * lam_(r-1)), as a ``_lowest``
    pair, so scale * sum_r beta_r * x^(m_r) * t_r.poly is what the steps
    took off."""
    snum, sden = scale
    for t, m, a, b, c in steps:
        # scale / lam_(r-1) times b/a, then scale / lam_r for the next step
        yield (*_lowest(snum * b, sden * a), m, t)
        if a != c:
            snum, sden = _lowest(snum * c, sden * a)


def _cofactors(steps, packing: _Packing, scale, start=()):
    """Local-ring cofactors of what ``_hreduce`` took off, from its steps.

    Each step (t, m, a, b, c) made work (a*work - b*x^m*t.poly)/c.  With
    lam_r the product of a/c over the first r steps this telescopes to

        work_end = lam * (work_start - sum_r beta_r * x^(m_r) * t_r.poly),
        beta_r = b_r / (a_r * lam_(r-1)),

    lam being the product over all steps.  Returns, as in ``_HElement.cof``,
    the combination of scale * sum_r beta_r * x^(m_r) * t_r.poly plus the
    sum of coeff * x^m * elem.poly over the (coeff, packed m, elem) triples
    of ``start``, summed from the elements' own cofactors.  Evaluating the
    grading variable at 1 is a ring map, so only the x-part of each m counts.
    ``scale`` and the coefficients of ``start`` are integer pairs
    (num, den) in lowest terms with den > 0, as ``_lowest`` makes them;
    each step's coefficient and the running scale are such pairs too, cut
    by one gcd as they are made.  The sum runs on ints over one common
    denominator, which is then cut to the least one.
    """
    terms = [(p, q, m, elem) for (p, q), m, elem in start]
    terms.extend(_betas(steps, scale))
    den = lcm(*[q * elem.cof[0] for _, q, _, elem in terms])
    cof: dict = {}
    for p, q, m, elem in terms:
        eden, parts = elem.cof
        term = ((packing.xpart(m), p * (den // (q * eden))),)
        for k, ck in parts.items():
            _mul_into(cof.setdefault(k, {}), term, ck.items())
    g = gcd(den, *chain.from_iterable(ck.values() for ck in cof.values()))
    if g != 1:
        den //= g
        cof = {k: {e: v // g for e, v in ck.items()} for k, ck in cof.items()}
    return den, cof


def _step_quotients(n: int, steps, packing: _Packing, scale, where, contents) -> list:
    """The quotients of scale * sum_r beta_r * x^(m_r) * t_r.poly over the
    original polynomials, when every reducer is an element of
    ``_homogenize``: reducer k is the polynomial k times the unit
    den_k / num_k, (num_k, den_k) = contents[k], and ``where`` maps it to k.

    The coefficients beta_r come from ``_betas``, as ``_cofactors``'s do,
    so quotient k has one term scale * beta_r * den_k / num_k * x^(xpart m_r) per step r whose
    reducer is k, in step order.  No two of those steps share an x-part:
    ``_hreduce`` reduces each key once, and the shifts of one reducer all
    lie in one grade, where the x-part fixes the rest.  Each quotient is
    brought over the lcm of its own denominators and cut to lowest terms
    by ``_over``: the polynomial, term order included, that
    ``_cofactor_polys`` reads off ``_cofactors``'s combination, with no
    denominator shared between quotients.
    """
    terms = [[] for _ in contents]
    for p, q, m, t in _betas(steps, scale):
        terms[where[t]].append((m, p, q))
    xpart = packing.xpart
    zero = Poly.zero(n)
    quotients = []
    for (num, den), ts in zip(contents, terms):
        if not ts:
            quotients.append(zero)
            continue
        qden = lcm(*[q for _, _, q in ts])
        quotients.append(
            _over(n, qden * num, [(xpart(m), p * (qden // q) * den) for m, p, q in ts])
        )
    return quotients


def _lowest(p: int, q: int) -> tuple:
    """p / q as (num, den) in lowest terms with den > 0, as Fraction keeps it."""
    g = gcd(p, q) if q > 0 else -gcd(p, q)
    return p // g, q // g


def _ratio(steps) -> tuple:
    """lam, the product of a / c over steps (t, m, a, b, c), as a ``_lowest`` pair."""
    num = den = 1
    for _, _, a, _, c in steps:
        if a != c:
            num, den = _lowest(num * a, den * c)
    return num, den


def _cofactor_polys(n: int, cof, count: int, lc: int = 1) -> list:
    """The ``count`` polynomials cof[k] / (den * lc) of a (den, parts) pair."""
    den, parts = cof
    zero = Poly.zero(n)
    return [_over(n, den * lc, parts[k].items()) if k in parts else zero for k in range(count)]


def _complete(
    generators, order: LocalOrder, limits: ResourceLimits, certificates: bool
) -> tuple:
    """Completion through the weighted-homogeneous Buchberger loop.

    The generators are homogenized with a grading variable and a
    Groebner-style basis is computed for the graded global order (grade
    first, then the local order on the x-part).  Initial exponents survive
    evaluating the grading variable back at 1, which makes the dehomogenized
    set a standard basis for the local order.  Pairs are processed by
    smallest lcm weight first, ties by pair index, so output is a
    deterministic function of (generators, order).  Each s-pair reduces
    against the active elements, those whose leads no later lead divides,
    in the order they became active: ``active`` is the reducer set.
    Returns (diagram, packing, rows, kept): ``kept`` are the kept graded
    elements (the surviving graded basis with the original generators
    alongside), each carrying its cofactors over the original generators
    when certificates are requested, ``diagram`` is the diagram of their
    leads, and ``rows``, as from ``_echelon_diagram``, holds per vertex the
    poly of the first kept element whose lead's x-part is the vertex.
    Nothing is dehomogenized here; ``_completion_result`` does that on the
    first read of the cached result's basis.
    """
    n = order.n
    if not generators:
        return Diagram(n), None, [], []

    packing, basis, _ = _homogenize(generators, order)

    pairs: dict = {}  # (i, j) -> (lcm grade, creation counter, packed lcm)
    counter = 0
    active = []  # indices whose leads are not divisible by a later lead

    def push_pairs(new_index):
        """Becker-Weispfenning update: Gebauer-Moeller pruning of the pair
        set plus deletion of elements dominated by the new lead."""
        nonlocal counter, packing
        t = basis[new_index].lm
        # an lcm's grade is at most the sum of its two leads' grades, so with
        # the packing fitted to that bound every new pair's lcm packs
        # exactly from its creation on; queued lcms are repacked with it
        bound = max((packing.grade(basis[i].lead) for i in active), default=0)
        wide = _fit(packing, basis, bound + packing.grade(basis[new_index].lead))
        if wide is not packing:
            pairs.update(
                {
                    ab: (g, c, wide.pack(packing.unpack(lab)))
                    for ab, (g, c, lab) in pairs.items()
                }
            )
            packing = wide
        guard = packing.guard
        lead = basis[new_index].lead
        keys = {i: packing.pack(exp_max(basis[i].lm, t)) for i in active}
        # new pairs whose lcm is properly divisible by another new lcm go
        survivors = []
        for i in active:
            li = keys[i]
            for j in active:
                lj = keys[j]
                if lj == li:
                    if j < i:
                        break  # keep one representative per lcm
                elif not (li - lj) & guard:
                    break
            else:
                survivors.append(i)
        # chain criterion on the old pairs; lcm(a, t) divides lcm(a, b)
        # whenever t does, so it fits the packing too
        for (a, b), (_, _, lab) in list(pairs.items()):
            if (lab - lead) & guard:
                continue
            if lab != packing.pack(exp_max(basis[a].lm, t)) and lab != packing.pack(
                exp_max(basis[b].lm, t)
            ):
                del pairs[(a, b)]
        # product criterion last: coprime survivors vanish outright (a field
        # sum stays below twice the guard, so the packed test is exact)
        for i in survivors:
            if keys[i] == basis[i].lead + lead:
                continue
            pairs[(i, new_index)] = (packing.grade(keys[i]), counter, keys[i])
            counter += 1
        if len(pairs) > limits.max_pairs:
            raise ResourceLimitError("max_pairs", limits.max_pairs)
        # leads now divisible by the new lead retire from the active set
        for i in list(active):
            if not (basis[i].lead - lead) & guard:
                active.remove(i)
        active.append(new_index)

    active.append(0)
    for k in range(1, len(basis)):
        push_pairs(k)

    while pairs:
        (i, j) = min(pairs, key=lambda key: pairs[key])
        _, _, gamma = pairs.pop((i, j))
        bi, bj = basis[i], basis[j]
        sp, a, b, c = _spair(bi, bj, gamma)
        sp, steps = _hreduce(sp, [basis[k] for k in active], packing, limits)
        if not sp:
            continue
        cof = None
        if certificates:
            # the new element is lam * (s-pair - sum_r beta_r ...), see
            # _cofactors, and the s-pair is (a * bi - b * bj) / c
            lnum, lden = _ratio(steps)
            start = [
                (_lowest(a * lnum, c * lden), gamma - bi.lead, bi),
                (_lowest(-b * lnum, c * lden), gamma - bj.lead, bj),
            ]
            cof = _cofactors(steps, packing, (-lnum, lden), start)
        basis.append(_HElement(sp, packing, cof))
        push_pairs(len(basis) - 1)

    # The surviving elements form the graded basis; the original generators
    # ride along (they reduce to zero against it, trivially so when their
    # own lead survived), keeping s-series and generator reductions against
    # the result inside the graded engine.
    kept = [basis[k] for k in sorted(set(active) | set(range(len(generators))))]
    # the x-part of a graded lead is the local initial exponent of its element
    diagram = vertices_from_exponents([b.lm[:n] for b in kept], n)
    # reversed, so the first kept element led by a vertex wins
    firsts = {b.lm[:n]: b.poly for b in reversed(kept)}
    return diagram, packing, [firsts[v] for v in diagram.vertices], kept


def _completion_result(n: int, count: int, packing: _Packing, elems, certified: bool):
    """Back to the local world: the (basis, certificates) of the graded
    elements ``_complete`` kept from ``count`` generators.

    Each kept element is evaluated at grading variable 1 and scaled monic
    on its initial coefficient; repeats are dropped.  Certificates come
    with it when the elements carry cofactors (``certified``), else None.
    A cached ``CompletionResult`` calls this on the first read of its
    basis or certificates, never before.
    """
    out_basis = []
    out_certs = []
    seen: dict = {}  # initial exponent -> the polynomials kept with it
    for b in elems:
        # the graded lead is the local initial term, so lc is its coefficient
        p = packing.poly(b.poly, 1, b.lc)
        # a repeat has the same initial exponent, so only those are compared
        twins = seen.setdefault(b.lm[:n], [])
        if p in twins:
            continue
        twins.append(p)
        out_basis.append(p)
        if certified:
            out_certs.append(tuple(_cofactor_polys(n, b.cof, count, b.lc)))
    return tuple(out_basis), tuple(out_certs) if certified else None


# The widest truncated Macaulay matrix ``_echelon_diagram`` builds, counted
# in columns before anything is allocated; wider inputs go to ``_complete``.
_ECHELON_COLUMNS = 2000


@lru_cache(maxsize=32)
def _layers(order: LocalOrder, top: int) -> tuple:
    """(packing, layers): the one ``_Packing(order, top)``, shared by every
    presentation's echelon on an ideal without monomial content, and by its
    cache entry and cone (nothing writes to a packing; ``_fit`` makes a new
    one), and the packed monomials of each weight 0..top on it at t = 0, as
    immutable tuples in ``weighted_box`` order, so x_1 is outermost; a
    key's top field is its weight, its layer.  The echelon asks for J's
    truncation T; an entry with content x^c gets its own
    ``_Packing(order, T + weight(c))`` for its shifted rows.  A seed-1
    benchmark pass read 23 distinct keys (2,977 hits) on corpus-verify, 14
    (3,186) on perturbed-swell and 20 (1,741) on job-suite; the bound of 32
    holds them and keeps many top weights from pinning their boxes."""
    packing = _Packing(order, top)
    layers = [[] for _ in range(top + 1)]
    for e in weighted_box(order.form.weights, top):
        k = packing.pack(e)
        layers[k >> packing.wshift].append(k)
    return packing, tuple(map(tuple, layers))


def _content(generators, n: int) -> tuple:
    """c, the componentwise least exponent over every term of the
    generators: x^c is the largest monomial dividing each of them (the
    origin for an empty list)."""
    return tuple(map(min, zip(*chain.from_iterable(g.exponents() for g in generators)))) or (0,) * n


def _reaches_every_axis(exponents, n: int) -> bool:
    """Whether some exponent lies on each axis: a pure power of every
    variable among them, the origin counting for all."""
    axes = set()
    for e in exponents:
        support = [i for i, b in enumerate(e) if b]
        if len(support) < 2:
            axes.update(support or range(n))
    return len(axes) == n


def _echelon_diagram(generators, order: LocalOrder):
    """The diagram of an ideal I = x^c * J with J zero-dimensional, from one
    exact truncated Macaulay echelon of J, as (diagram, packing, rows), or
    None when the input is left to ``_complete``.

    x^c is the monomial content of the generators (``_content``).  A local
    order is multiplicative, so L(x^c * J) = x^c * L(J): the echelon runs on
    the generators divided by x^c, and J's vertices and vertex rows are
    shifted by c at the end.  On two variables every input without a pure
    power of some variable has such a factor.  The matrix is J's alone: its
    box, column cap and layers never see x^c, so a content of any weight
    costs only the final shift.

    The rows are the multiples x^a * g of J's content-stripped stored
    numerators (``_integral``), every term of weight above the truncation
    T dropped, on x-keys of the packing of ``_layers``: the grading
    variable is never used, so key order is the local order and a row's
    smallest key is its lead.  Each row is top-reduced through ``_submul``
    against the pivot rows, the kernel stripping its content.  The rows
    span J modulo the monomials of weight above T, and the order is led by
    the weight, so for eta <= T the pivots of weight at most eta are
    exactly J's initial exponents of that weight (Lazard, EUROCAL 1983).
    Once every monomial with weight in (eta - w, eta] is a pivot, w the
    largest variable weight, each monomial above eta has a pivot divisor
    among them: no vertex lies above eta, and the diagram is the set of
    minimal pivots (Greuel-Pfister ch. 1, the highest corner).  A window
    of weight eta alone is not enough under unequal weights.  The pivots
    of weight at most eta are the diagram's points of that weight, so such
    a pivot is a vertex exactly when no pivot lies one step below it along
    a variable it carries: n lookups of packed keys, key minus the
    variable's multiplier.  Pivots above eta are never vertices and need
    not have their predecessors among the pivots, so only the others are
    tested, and only the vertices reach ``vertices_from_exponents``.

    T is two past J's largest generator top weight, and eta climbs to T:
    windows that close just past the top weight certify too.  The rows
    enter in batches by the weight of their initial term, weight(a) plus
    the order of g.  A row's lead only climbs, so the pivots of weight at
    most eta all come from the batches up to eta, and the window of eta is
    checked as soon as its batch is in.  The echelon is tried only when J
    can be zero-dimensional, with at least n generators and a pure power
    of every variable (a constant counts for all) among their terms, and
    only when the number of monomials of weight at most T, bounded by
    C(T + n, n), is at most ``_ECHELON_COLUMNS``, checked before anything
    is built.  An input whose window is not covered by T also gives None.
    The columns are the layers of ``_layers(order, T)``, so rows of one
    batch enter with x_1 outermost.

    The vertices are J's corners shifted by c, and ``rows`` holds, in the
    diagram's vertex order, the pivot row of each vertex minus c, times
    x^c, as packed integer dicts of ``packing``: ``_layers``' own when c is
    the origin, else ``_Packing(order, T + weight(c))``, which holds the
    shifted keys.  Each row is the truncation above T + weight(c) of an
    element of the ideal whose lead is its own, so the row's lowest-weight
    part is that element's initial form, as ``_reduced_cone`` needs.
    """
    n = order.n
    if len(generators) < n:
        return None
    stored = [_integral(g)[1] for g in generators]
    c = _content(generators, n)
    if any(c):
        stored = [{exp_sub(e, c): v for e, v in terms.items()} for terms in stored]
    if not _reaches_every_axis(chain.from_iterable(stored), n):
        return None
    weights = order.form.weights
    weighed = [[sum(map(mul, weights, e)) for e in terms] for terms in stored]
    top = max(map(max, weighed)) + 2  # T, two past J's largest top weight
    if comb(top + n, n) > _ECHELON_COLUMNS:
        return None
    packing, layers = _layers(order, top)
    pack, mask, wshift = packing.pack, packing.max_grade, packing.wshift
    gens = []
    for terms, ws in zip(stored, weighed):
        num = gcd(*terms.values())
        gens.append((min(ws), [(pack(e), w, v // num) for (e, v), w in zip(terms.items(), ws)]))

    pivots: dict = {}
    found = [0] * (top + 1)  # pivots per weight
    span = max(weights)
    for eta in range(top + 1):
        for low, terms in gens:
            if low > eta:
                continue
            room = top - (eta - low)
            for shift in layers[eta - low]:
                row = {shift + k: v for k, w, v in terms if w <= room}
                while row:
                    lead = min(row)
                    pivot = pivots.get(lead)
                    if pivot is None:
                        pivots[lead] = row
                        found[lead >> wshift] += 1
                        break
                    _submul(row, pivot[lead], row[lead], 0, pivot)
        window = range(max(0, eta - span + 1), eta + 1)
        if all(found[w] == len(layers[w]) for w in window):
            below = list(zip(packing.shifts, packing.mults))
            corners = []
            for k in pivots:
                if k >> wshift > eta:
                    continue
                for s, m in below:
                    if (k >> s) & mask and k - m in pivots:
                        break
                else:
                    corners.append(k)
            xpart = packing.xpart
            diagram = vertices_from_exponents([exp_add(xpart(k), c) for k in corners], n)
            rows = [pivots[pack(exp_sub(v, c))] for v in diagram.vertices]
            if any(c):
                packing = _Packing(order, top + sum(map(mul, weights, c)))
                xc = packing.pack(c)
                rows = [{packing.pack(xpart(k)) + xc: v for k, v in row.items()} for row in rows]
            return diagram, packing, rows
    return None


def standard_basis_complete(
    ideal: IdealPresentation, order: LocalOrder, limits: ResourceLimits = DEFAULT_LIMITS
):
    """Completed standard basis of the ideal for the given order.

    Certificates over the generators come from ``ideal.completion(order,
    certificates=True)``; this completion builds none, as their bookkeeping
    dominates on adversarial inputs while every verdict needs only the basis.
    """
    return list(ideal.completion(order, limits, certificates=False).basis)


def diagram_of_ideal(
    ideal: IdealPresentation, order: LocalOrder, limits: ResourceLimits = DEFAULT_LIMITS
) -> Diagram:
    """Diagram of initial exponents: ``ideal.diagram`` (the truncated
    echelon for the zero-dimensional ideals it settles, else the
    completion's graded leads)."""
    return ideal.diagram(order, limits)


def ideal_membership(
    f: Poly,
    ideal: IdealPresentation,
    order: LocalOrder,
    limits: ResourceLimits = DEFAULT_LIMITS,
) -> bool:
    """Zero weak-normal-form remainder against the completed basis."""
    if f.is_zero:
        return True
    basis = ideal.completion(order, limits, certificates=False).basis
    if not basis:
        return False
    return weak_normal_form(f, basis, order, limits, certificates=False).remainder.is_zero


def is_proper(
    ideal: IdealPresentation, order: LocalOrder, limits: ResourceLimits = DEFAULT_LIMITS
) -> bool:
    """True unless some completed basis element is a unit (head = origin)."""
    return (0,) * ideal.n not in ideal.diagram(order, limits).vertices
