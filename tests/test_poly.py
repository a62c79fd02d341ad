from fractions import Fraction
from math import gcd

import pytest

from germlab import (
    FORWARD,
    REVERSE,
    JetContext,
    LocalOrder,
    DimensionMismatchError,
    Poly,
    PositiveLinearForm,
    SingularMatrixError,
    ZeroPolynomialError,
    apply_linear_change,
    degree_order,
    initial_exponent,
    initial_form,
    initial_term,
    invert_matrix,
    jet_truncate,
    parse_poly,
)
from germlab.poly import _integral, _over, exact_det
from germlab.seeding import make_rng


def p(text, n=2):
    return parse_poly(text, n)


def test_arithmetic_basics():
    x, y = Poly.variable(2, 0), Poly.variable(2, 1)
    assert (x - y) + y == x
    assert (x + y) * (x - y) == p("x1^2 - x2^2")
    assert p("2*x1").scale(Fraction(1, 2)) == x
    assert (x * 0).is_zero
    assert -(x - y) == y - x


def _product_by_double_loop(a, b):
    """Reference product: every term pair multiplied as Fractions."""
    terms = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = tuple(x + y for x, y in zip(e1, e2))
            terms[e] = terms.get(e, Fraction(0)) + c1 * c2
    return {e: c for e, c in terms.items() if c}


def test_product_matches_the_fraction_double_loop():
    rng = make_rng("poly-products")
    cancelled = 0
    for trial in range(300):
        n = 1 + trial % 3
        polys = []
        for _ in range(2):
            terms = {}
            for _ in range(rng.randint(0, 5)):
                exp = tuple(rng.randint(0, 3) for _ in range(n))
                terms[exp] = Fraction(rng.randint(-6, 6), rng.choice([1, 1, 2, 3, 4, 9]))
            polys.append(Poly(n, terms))
        a, b = polys
        if trial % 5 == 0 and not a.is_zero:
            # (a + c)(a - c) = a^2 - c^2: the cross terms cancel
            b = a - b
            a = a + polys[1]
        got = a * b
        assert dict(got.items()) == _product_by_double_loop(a, b)
        assert all(c for _, c in got.items())
        if a and b and len(got) < len(a) * len(b):
            cancelled += 1
    assert (Poly.zero(2) * p("1/2*x1 + 1/3")).is_zero
    assert (p("1/2*x1 + 1/3") * Poly.zero(2)).is_zero
    assert (p("1/2*x1 - 1/3") * p("1/2*x1 + 1/3")) == p("1/4*x1^2 - 1/9")
    assert (p("x1 - x2") * p("x1 + x2")) == p("x1^2 - x2^2")
    assert cancelled


def test_no_zero_terms_stored():
    q = p("x1 + x2") - p("x2")
    assert set(q.exponents()) == {(1, 0)}
    assert Poly(2, {(1, 0): Fraction(0)}).is_zero


def test_zero_is_the_canonical_form():
    zero = Poly.zero(3)
    assert zero.is_zero and zero == Poly(3) and hash(zero) == hash(Poly(3, {}))
    assert _integral(zero) == (1, {}) and zero.n == 3
    # each call gives its own polynomial, equal to every other zero
    assert Poly.zero(3) is not zero and Poly.zero(3) == zero
    assert zero + p("x1", 3) == p("x1", 3)
    for n in (0, -1):
        with pytest.raises(ValueError, match=r"^ambient variable count must be >= 1$"):
            Poly.zero(n)


def test_constructor_sums_repeated_exponents_in_order():
    # (1, 0) cancels after its second pair and re-enters after (0, 1)
    q = Poly(2, [((1, 0), 1), ((0, 1), 2), ((1, 0), -1), ((1, 0), 3)])
    assert list(q.exponents()) == [(0, 1), (1, 0)]
    assert q.coeff((1, 0)) == 3 and q.coeff((0, 1)) == 2
    assert Poly(2, [((1, 1), 2), ((0, 2), 1), ((1, 1), -2), ((0, 2), -1)]).is_zero


@pytest.mark.parametrize(
    "call",
    [
        pytest.param(lambda: Poly(2, {(True, 0): 1}), id="constructor"),
        pytest.param(lambda: Poly.monomial(2, (0, False)), id="monomial"),
        pytest.param(lambda: p("x1").mul_term(1, (True, 0)), id="mul_term"),
    ],
)
def test_bool_exponents_are_refused(call):
    # True is an int to isinstance: a kept (True, 0) became the initial
    # exponent, which the diagram then refused as a vertex
    with pytest.raises(ValueError, match="exponents must be non-negative ints"):
        call()


def test_initial_exponent_worked_examples():
    either = [degree_order(2, FORWARD), degree_order(2, REVERSE)]
    for order in either:
        assert initial_exponent(p("x1^2 - x2^3"), order) == (2, 0)
    assert initial_exponent(p("x1*x2 + x2^2"), degree_order(2, FORWARD)) == (0, 2)
    assert initial_exponent(p("x1*x2 + x2^2"), degree_order(2, REVERSE)) == (1, 1)
    exp, coeff = initial_term(p("-3*x1^2 + x2^3"), degree_order(2, REVERSE))
    assert exp == (2, 0) and coeff == -3


def test_initial_exponent_zero_rejected():
    with pytest.raises(ZeroPolynomialError):
        initial_exponent(Poly.zero(2), degree_order(2, FORWARD))


def test_initial_form():
    assert initial_form(p("x1^2 - x2^3")) == p("x1^2")
    assert initial_form(p("x1*x2 + x2^2 + x1^3")) == p("x1*x2 + x2^2")
    h = p("x1^2 + x1*x2")
    assert initial_form(h) == h
    with pytest.raises(ZeroPolynomialError):
        initial_form(Poly.zero(2))


def test_jet_truncate():
    ctx = JetContext(degree_order(1, FORWARD), 2)
    assert jet_truncate(parse_poly("x1 + x1^3", 1), ctx) == parse_poly("x1", 1)
    weighted = LocalOrder(PositiveLinearForm((1, 3)), FORWARD)
    f = p("x2 + x1^2")
    assert jet_truncate(f, JetContext(weighted, 3)) == f
    assert jet_truncate(f, JetContext(weighted, 2)) == p("x1^2")
    assert jet_truncate(Poly.zero(2), ctx2d := JetContext(degree_order(2, FORWARD), 1)).is_zero
    # idempotence
    g = p("x1 + x1*x2 + x2^3")
    once = jet_truncate(g, ctx2d)
    assert jet_truncate(once, ctx2d) == once


def test_apply_linear_change_examples():
    f = p("x1*x2")
    ident = [[1, 0], [0, 1]]
    assert apply_linear_change(f, ident) == f
    assert apply_linear_change(f, [[1, 1], [1, -1]]) == p("x1^2 - x2^2")
    assert apply_linear_change(p("x1 + x2"), [[0, 1], [1, 0]]) == p("x1 + x2")
    with pytest.raises(SingularMatrixError):
        apply_linear_change(f, [[1, 1], [1, 1]])


def test_apply_linear_change_against_sympy():
    import sympy

    x1, x2 = sympy.symbols("x1 x2")
    f = p("x1^2 - 3/2*x1*x2 + x2^3")
    M = [[2, 1], [1, 1]]
    got = apply_linear_change(f, M)
    subs = {x1: 2 * x1 + x2, x2: x1 + x2}
    expected = sympy.expand((x1**2 - sympy.Rational(3, 2) * x1 * x2 + x2**3).subs(subs, simultaneous=True))
    sym_got = sympy.expand(sympy.sympify(str(got).replace("^", "**")))
    assert sympy.simplify(sym_got - expected) == 0


def test_invert_matrix_roundtrip():
    import sympy

    M = [[2, 1], [1, 1]]
    Minv = invert_matrix(M)
    f = p("x1^2 - x2^3 + x1*x2")
    assert apply_linear_change(apply_linear_change(f, M), Minv) == f
    with pytest.raises(SingularMatrixError):
        invert_matrix([[1, 2], [2, 4]])
    # exact_det and invert_matrix against sympy on random int and Fraction
    # matrices up to 5x5, some singular and some needing a row swap
    rng = make_rng("invert-matrix")

    def entry():
        if rng.random() < 0.6:
            return rng.randint(-4, 4)
        return Fraction(rng.randint(-9, 9), rng.randint(1, 6))

    singular = swapped = 0
    for trial in range(90):
        n = trial % 6
        M = [[entry() for _ in range(n)] for _ in range(n)]
        if n > 1 and trial % 4 == 1:
            M[0][0] = 0
        if n > 1 and trial % 5 == 2:
            M[-1] = list(M[0])
        S = sympy.Matrix(n, n, [sympy.Rational(x) for row in M for x in row])
        det = exact_det(M)
        assert type(det) is Fraction and det == Fraction(str(S.det()))
        if not det:
            singular += 1
            with pytest.raises(SingularMatrixError, match="^matrix is singular$"):
                invert_matrix(M)
            continue
        swapped += n > 1 and M[0][0] == 0
        inverse = invert_matrix(M)
        expected = S.inv()
        assert type(inverse) is tuple and all(type(row) is tuple for row in inverse)
        assert [[type(x) for x in row] for row in inverse] == [[Fraction] * n] * n
        assert inverse == tuple(
            tuple(Fraction(str(expected[i, j])) for j in range(n)) for i in range(n)
        )
    assert singular and swapped


@pytest.mark.parametrize(
    "op",
    [lambda f: f + 3, lambda f: 3 + f, lambda f: f - None, lambda f: None - f],
    ids=["poly+int", "int+poly", "poly-None", "None-poly"],
)
def test_sum_with_a_non_polynomial_is_a_type_error(op):
    with pytest.raises(TypeError, match="unsupported operand"):
        op(p("x1 + x2"))


@pytest.mark.parametrize(
    "op, name",
    [
        (lambda f: f * 1.5, "float"),
        (lambda f: 1.5 * f, "float"),
        (lambda f: f * None, "NoneType"),
        (lambda f: f * "2", "str"),
    ],
    ids=["poly*float", "float*poly", "poly*None", "poly*str"],
)
def test_product_with_a_non_number_names_its_type(op, name):
    with pytest.raises(TypeError, match=f"^coefficients must be int or Fraction, got {name}$"):
        op(p("x1 + x2"))


def test_degree_helpers():
    f = p("x1 + x2^3")
    assert f.total_degree() == 3
    assert f.min_total_degree() == 1
    assert Poly.zero(2).total_degree() == -1


def test_hash_and_eq():
    a = p("x1 + 2*x2")
    b = p("2*x2 + x1")
    assert a == b and hash(a) == hash(b)
    assert a != p("x1 + 2*x2 + x1^2")


def _times(a: dict, b: dict, deleted: list) -> dict:
    """Fraction double loop; a sum that reaches zero is deleted at once."""
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = tuple(x + y for x, y in zip(e1, e2))
            acc = out.get(e, 0) + c1 * c2
            if acc:
                out[e] = acc
            else:
                del out[e]
                deleted.append(e)
    return out


def _plus(a: dict, b: dict, deleted: list) -> dict:
    """a + b in a fresh dict; a sum that reaches zero is deleted at once, so
    a later term at that exponent enters at the end."""
    out = dict(a)
    for e, c in b.items():
        acc = out.get(e, 0) + c
        if acc:
            out[e] = acc
        else:
            del out[e]
            deleted.append(e)
    return out


def _linear_change_by_terms(f, M, deleted):
    """Reference: each term of f expanded on Fractions with the powers of
    the row images cached, then added to the result."""
    n = f.n
    unit = [tuple(int(j == k) for k in range(n)) for j in range(n)]
    images = [{unit[j]: Fraction(M[i][j]) for j in range(n) if M[i][j]} for i in range(n)]
    powers = [[{(0,) * n: Fraction(1)}] for _ in range(n)]
    result = {}
    for exp, c in f.items():
        term = {(0,) * n: c}
        for i, e in enumerate(exp):
            cache = powers[i]
            while len(cache) <= e:
                cache.append(_times(cache[-1], images[i], deleted))
            term = _times(term, cache[e], deleted)
        result = _plus(result, term, deleted)
    return Poly(n, result)


def test_linear_change_matches_the_term_by_term_expansion_in_order():
    rng = make_rng("poly-linear-change")
    deleted = []
    singular = 0
    for trial in range(600):
        n = 1 + trial % 3
        terms = {}
        for _ in range(rng.randint(0, 6)):
            exp = tuple(rng.randint(0, 3) for _ in range(n))
            terms[exp] = Fraction(rng.randint(-6, 6), rng.choice([1, 1, 2, 3, 4, 9]))
        f = Poly(n, terms)
        M = [
            [Fraction(rng.randint(-3, 3), rng.choice([1, 1, 2, 3, 5])) for _ in range(n)]
            for _ in range(n)
        ]
        if trial % 10 == 9:
            M[0] = [2 * x for x in M[-1]]  # a multiple of the last row: singular
        if not exact_det(M):
            singular += 1
            with pytest.raises(SingularMatrixError):
                apply_linear_change(f, M)
            continue
        got = apply_linear_change(f, M)
        assert list(got.items()) == list(_linear_change_by_terms(f, M, deleted).items())
    assert singular >= 60
    assert deleted  # some sums cancelled on the way, so the order was at stake


def test_sums_keep_the_term_by_term_order():
    rng = make_rng("poly-sum-order")
    cancelled = reentered = 0
    for trial in range(300):
        n = 1 + trial % 2
        got, want, deleted = Poly.zero(n), {}, []
        for _ in range(rng.randint(1, 6)):
            # few exponents and coefficients, so sums cancel and re-enter
            b = Poly(n, {
                tuple(rng.randint(0, 2) for _ in range(n)):
                    Fraction(rng.choice([-2, -1, 1, 2]), rng.choice([1, 2]))
                for _ in range(rng.randint(0, 5))
            })
            sign = rng.choice([1, -1])
            got = got + b if sign == 1 else got - b
            reentered += sum(1 for e in b.exponents() if e in deleted and e not in want)
            want = _plus(want, {e: sign * c for e, c in b.items()}, deleted)
            assert list(got.items()) == list(want.items())
        cancelled += len(deleted)
    # sums reached zero, and cancelled exponents came back at the end
    assert cancelled and reentered


def test_integers_in_and_out_round_trip_in_order():
    rng = make_rng("poly-integral")
    dens = set()
    for trial in range(300):
        n = 1 + trial % 3
        f = Poly(n, {
            tuple(rng.randint(0, 3) for _ in range(n)):
                Fraction(rng.randint(-9, 9), rng.choice([1, 1, 2, 3, 4, 6, 35]))
            for _ in range(rng.randint(0, 6))
        })
        den, terms = _integral(f)
        pairs = list(terms.items())
        assert all(isinstance(v, int) and v for _, v in pairs)
        dens.add(den)
        for back in (_over(n, den, pairs), _over(n, -den, [(e, -v) for e, v in pairs])):
            assert back == f
            assert list(back.items()) == list(f.items())
            assert all(type(c) is Fraction for _, c in back.items())
    assert 1 in dens and len(dens) > 5


def test_variable_index_outside_the_ring_is_refused():
    assert Poly.variable(2, 1) == p("x2")
    for i in (2, 5, -1):
        with pytest.raises(ValueError):
            Poly.variable(2, i)


def test_coeff_checks_the_exponent_length():
    f = Poly(2, {(1, 0): 1})
    assert f.coeff((1, 0)) == 1 and f.coeff((0, 1)) == 0
    with pytest.raises(DimensionMismatchError):
        f.coeff((1,))
    with pytest.raises(DimensionMismatchError):
        f.coeff((1, 0, 0))


def _assert_canonical(f):
    den, num = _integral(f)
    assert type(den) is int and den >= 1
    assert all(type(v) is int and v for v in num.values())
    assert gcd(den, *num.values()) == 1
    assert num or den == 1


def _model_scale(a: dict, c, shift=None) -> dict:
    if shift is None:
        return {e: c * v for e, v in a.items()}
    return {tuple(x + y for x, y in zip(e, shift)): c * v for e, v in a.items()}


def _drawn(rng, n):
    """A Poly from repeated exponents, ints and Fractions with shared
    factors, and its Fraction-dict model."""
    pairs = []
    for _ in range(rng.randint(0, 5)):
        exp = tuple(rng.randint(0, 2) for _ in range(n))
        num, den = rng.randint(-6, 6), rng.choice([1, 2, 3, 4, 6, 9, 12])
        pairs.append((exp, Fraction(num, den) if den > 1 or rng.random() < 0.5 else num))
    model = {}
    for e, c in pairs:
        if c:
            model = _plus(model, {e: Fraction(c)}, [])
    return Poly(n, pairs), model


def test_every_route_gives_the_canonical_form_in_the_fraction_order():
    rng = make_rng("poly-canonical")
    seen = 0
    for trial in range(300):
        n = 1 + trial % 3
        (a, ma), (b, mb) = _drawn(rng, n), _drawn(rng, n)
        c = Fraction(rng.choice([-4, -2, 2, 3, 6]), rng.choice([1, 2, 3, 4]))
        m = tuple(rng.randint(0, 2) for _ in range(n))
        order = degree_order(n, FORWARD)
        routes = [
            (a, ma),
            (a + b, _plus(ma, mb, [])),
            (a - b, _plus(ma, {e: -v for e, v in mb.items()}, [])),
            (-a, {e: -v for e, v in ma.items()}),
            (a * b, _times(ma, mb, [])),
            (a.scale(c), _model_scale(ma, c)),
            (a.mul_term(c, m), _model_scale(ma, c, m)),
            (jet_truncate(a, JetContext(order, 2)), {e: v for e, v in ma.items() if sum(e) <= 2}),
        ]
        if a:
            low = a.min_total_degree()
            routes.append((initial_form(a), {e: v for e, v in ma.items() if sum(e) == low}))
        M = [
            [Fraction(rng.randint(-3, 3), rng.choice([1, 2, 6])) for _ in range(n)]
            for _ in range(n)
        ]
        if exact_det(M):
            changed = dict(_linear_change_by_terms(a, M, []).items())
            routes.append((apply_linear_change(a, M), changed))
        den, num = _integral(a)
        k = rng.choice([2, 6, 10])
        scaled = [(e, k * v) for e, v in num.items()]
        routes.append((_over(n, k * den, scaled), ma))
        routes.append((_over(n, -k * den, [(e, -v) for e, v in scaled]), ma))
        for got, want in routes:
            _assert_canonical(got)
            assert list(got.items()) == list(want.items())
            seen += _integral(got)[0] > 1
        # equal values reached in another insertion order hash equal
        assert b + a == a + b and hash(b + a) == hash(a + b)
        assert _over(n, k * den, scaled) == a and hash(_over(n, k * den, scaled)) == hash(a)
    text = p("2/4*x1 - 6/8*x2^2 - 3/6*x1 + 0/5*x2 + 1/2*x1")
    _assert_canonical(text)
    assert list(text.items()) == [((0, 2), Fraction(-3, 4)), ((1, 0), Fraction(1, 2))]
    assert _integral(p("4/2*x1 + 6/3*x2")) == (1, {(1, 0): 2, (0, 1): 2})
    assert _integral(p("3/4*x1 - 3/4*x1")) == (1, {})
    assert seen


def test_integral_reads_the_stored_pair():
    f = p("1/2*x1^2 - 2/3*x1*x2 + 5")
    first, second = _integral(f), _integral(f)
    assert first[1] is second[1] and first == second == (6, {(2, 0): 3, (1, 1): -4, (0, 0): 30})
