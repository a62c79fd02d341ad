"""Seeded randomized checks of the structural invariants."""

from germlab import (
    FORWARD,
    REVERSE,
    IdealPresentation,
    JetContext,
    LocalOrder,
    Poly,
    PositiveLinearForm,
    degree_form,
    degree_order,
    diagram_of_ideal,
    hilbert_samuel,
    ideal_membership,
    initial_exponent,
    initial_form,
    invert_matrix,
    apply_linear_change,
    jet_truncate,
    complement_count,
    vertices_from_exponents,
    weak_normal_form,
)
from germlab.orders import exp_add, exp_divides
from germlab.seeding import make_rng
from germlab.standard_basis import becker_check, s_series

from _corpus import random_poly


def random_exponent(rng, n, bound=6):
    return tuple(rng.randint(0, bound) for _ in range(n))


def test_order_compatible_with_addition():
    rng = make_rng("order-compat")
    for _ in range(300):
        n = rng.randint(1, 4)
        form = PositiveLinearForm(tuple(rng.randint(1, 5) for _ in range(n)))
        for tiebreak in (FORWARD, REVERSE):
            order = LocalOrder(form, tiebreak)
            a, b, d = (random_exponent(rng, n) for _ in range(3))
            if order.compare(a, b) < 0:
                assert order.compare(exp_add(a, d), exp_add(b, d)) < 0


def test_initial_exponent_multiplicative():
    rng = make_rng("inexp-mult")
    for _ in range(120):
        n = rng.randint(1, 3)
        order = degree_order(n, rng.choice([FORWARD, REVERSE]))
        f = random_poly(rng, n)
        g = random_poly(rng, n)
        assert initial_exponent(f * g, order) == exp_add(
            initial_exponent(f, order), initial_exponent(g, order)
        )


def test_truncation_is_multiplicative():
    rng = make_rng("jet-hom")
    for _ in range(80):
        n = rng.randint(1, 3)
        mu = rng.randint(0, 5)
        ctx = JetContext(degree_order(n), mu)
        f = random_poly(rng, n)
        g = random_poly(rng, n)
        lhs = jet_truncate(f * g, ctx)
        rhs = jet_truncate(jet_truncate(f, ctx) * jet_truncate(g, ctx), ctx)
        assert lhs == rhs


def test_linear_change_roundtrip():
    rng = make_rng("change-roundtrip")
    for _ in range(40):
        n = rng.randint(2, 3)
        f = random_poly(rng, n)
        while True:
            M = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
            from germlab.poly import exact_det

            if exact_det(M):
                break
        assert apply_linear_change(apply_linear_change(f, M), invert_matrix(M)) == f


def test_initial_form_multiplicative():
    rng = make_rng("inform-mult")
    for _ in range(80):
        n = rng.randint(1, 3)
        f = random_poly(rng, n)
        g = random_poly(rng, n)
        assert initial_form(f * g) == initial_form(f) * initial_form(g)


def test_staircase_bigger_complement_differs_somewhere():
    # strictly nested staircases disagree in some truncation (searched)
    rng = make_rng("eqdiags-search")
    form = degree_form(2)
    found = 0
    for _ in range(120):
        base = {
            (rng.randint(0, 4), rng.randint(0, 4)) for _ in range(rng.randint(1, 3))
        }
        base = {e for e in base if sum(e)}
        if not base:
            continue
        extra = (rng.randint(0, 5), rng.randint(0, 5))
        if sum(extra) == 0:
            continue
        d1 = vertices_from_exponents(base, 2)
        d2 = vertices_from_exponents(base | {extra}, 2)
        if d1 == d2:
            continue
        found += 1
        bound = d2.max_vertex_weight()
        assert any(
            complement_count(d1, form, eta) != complement_count(d2, form, eta)
            for eta in range(bound + 1)
        )
    assert found > 20


def test_s_series_cancels_past_gamma():
    rng = make_rng("s-series")
    for _ in range(100):
        n = rng.randint(1, 3)
        order = degree_order(n, rng.choice([FORWARD, REVERSE]))
        f = random_poly(rng, n)
        g = random_poly(rng, n)
        bf, bg = initial_exponent(f, order), initial_exponent(g, order)
        gamma = tuple(max(a, b) for a, b in zip(bf, bg))
        s = s_series(f, g, order)
        if not s.is_zero:
            assert order.compare(initial_exponent(s, order), gamma) > 0


def test_weak_normal_form_invariants():
    rng = make_rng("nf-props")
    for _ in range(60):
        n = rng.randint(1, 3)
        order = degree_order(n, REVERSE)
        basis = [random_poly(rng, n) for _ in range(rng.randint(1, 2))]
        f = random_poly(rng, n)
        nf = weak_normal_form(f, basis, order)
        assert nf.verify(f, basis)
        assert nf.unit.constant_term() != 0
        if not nf.remainder.is_zero:
            head = initial_exponent(nf.remainder, order)
            assert not any(
                exp_divides(initial_exponent(g, order), head) for g in basis
            )


def test_completion_soundness_random():
    rng = make_rng("completion-sound")
    for _ in range(25):
        n = rng.randint(2, 3)
        order = degree_order(n, REVERSE)
        gens = [random_poly(rng, n, max_degree=3, max_terms=3) for _ in range(rng.randint(1, 3))]
        I = IdealPresentation(n, gens)
        basis = list(I.completion(order, certificates=True).basis)
        assert becker_check(basis, order).ok
        for g, cert in zip(
            basis, I.completion(order, certificates=True).certificates
        ):
            acc = Poly.zero(n)
            for c, gen in zip(cert, I.generators):
                acc = acc + c * gen
            assert acc == g
        for gen in I.generators:
            assert weak_normal_form(gen, basis, order).remainder.is_zero


def test_diagram_perturbation_stability():
    # adding tails above the top vertex weight keeps the staircase equal
    rng = make_rng("diag-stability")
    from germlab import PerturbationSpec, perturb

    for trial in range(15):
        I = IdealPresentation(
            2, [random_poly(rng, 2, max_degree=3, max_terms=3)]
        )
        order = degree_order(2, REVERSE)
        d = diagram_of_ideal(I, order)
        mu = d.max_vertex_weight()
        spec = PerturbationSpec(
            mu=mu, tail_degree_max=mu + 2, trials=1, rng_seed=trial
        )
        perturbed = IdealPresentation(2, perturb(list(I.generators), spec, 0))
        d2 = diagram_of_ideal(perturbed, order)
        assert d2.contains(d)


def test_cone_equality_follows_diagram_equality():
    # jet-fixed perturbations that keep the staircase also keep the cone
    from germlab import tangent_cones_equal

    rng = make_rng("cones-stability")
    checked = 0
    for trial in range(12):
        I = IdealPresentation(2, [random_poly(rng, 2, max_degree=3, max_terms=3)])
        order = degree_order(2, REVERSE)
        d = diagram_of_ideal(I, order)
        mu = d.max_vertex_weight() + 1
        tail = Poly.monomial(2, (0, mu + 1), rng.choice([-2, -1, 1, 2]))
        perturbed = IdealPresentation(2, [g + tail for g in I.generators])
        if diagram_of_ideal(perturbed, order) == d:
            assert tangent_cones_equal(I, perturbed)
            checked += 1
    assert checked > 5


def test_hs_matches_oracle_small():
    from germlab import oracle_hs

    rng = make_rng("hs-vs-oracle")
    for _ in range(12):
        n = rng.randint(2, 3)
        I = IdealPresentation(
            n, [random_poly(rng, n, max_degree=3, max_terms=3) for _ in range(2)]
        )
        d = diagram_of_ideal(I, degree_order(n, REVERSE))
        assert hilbert_samuel(d, 6) == oracle_hs(I, 6)


def test_becker_failure_witness_in_ideal_outside_staircase():
    # raw generator lists are rarely standard bases, so most checks fail
    rng = make_rng("becker-witness")
    failures = 0
    for _ in range(30):
        gens = [random_poly(rng, 2) for _ in range(rng.randint(2, 3))]
        for tiebreak in (REVERSE, FORWARD):
            order = degree_order(2, tiebreak)
            result = becker_check(gens, order)
            if result.ok:
                continue
            failures += 1
            _, _, witness = result.failure
            assert ideal_membership(witness, IdealPresentation(2, gens), order)
            head = initial_exponent(witness, order)
            assert not any(
                exp_divides(initial_exponent(g, order), head) for g in gens
            )
    assert failures >= 30
