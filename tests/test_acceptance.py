"""Acceptance gate: every criterion at its stated tolerance.

Each test prints one PASS line (run with -s to see them); a failed assert
is the corresponding FAIL.  The random corpus and every experiment seed are
fixed, so the whole gate is reproducible bit for bit.
"""

import json
import time

import pytest

from germlab import (
    FORWARD,
    REVERSE,
    IdealPresentation,
    JetContext,
    MapGerm,
    PerturbationSpec,
    Poly,
    approximation_experiment,
    degree_order,
    determinacy_experiment,
    determinacy_order,
    diagram_of_ideal,
    flatness_check,
    hilbert_samuel,
    jet_truncate,
    oracle_hs,
    oracle_staircase,
    parse_poly,
    standard_basis_complete,
    weak_normal_form,
)
from germlab.cli import run_suite
from germlab.orders import weighted_box
from germlab.seeding import make_rng
from germlab.standard_basis import becker_check

from _corpus import corpus

ETA = 8
EXPERIMENT_SEED = 20260808


def announce(number, label, detail):
    print(f"ACCEPTANCE {number} ({label}): PASS: {detail}", flush=True)


@pytest.fixture(scope="module")
def shared_corpus():
    return corpus()


def p(text, n=2):
    return parse_poly(text, n)


def test_criterion_1_oracle_equivalence(shared_corpus):
    started = time.time()
    for idx, ideal in enumerate(shared_corpus):
        table = hilbert_samuel(
            diagram_of_ideal(ideal, degree_order(ideal.n, REVERSE)), ETA
        )
        assert table == oracle_hs(ideal, ETA), f"ideal #{idx}"
    elapsed = time.time() - started
    assert elapsed <= 60, f"runtime {elapsed:.1f}s exceeds 60s"
    announce(
        1,
        "oracle equivalence",
        f"{len(shared_corpus)} ideals, eta <= {ETA}, {elapsed:.1f}s",
    )


def test_criterion_2_staircase_equivalence(shared_corpus):
    started = time.time()
    for idx, ideal in enumerate(shared_corpus):
        for tiebreak in (REVERSE, FORWARD):
            order = degree_order(ideal.n, tiebreak)
            diagram = diagram_of_ideal(ideal, order)
            engine = {
                e for e in weighted_box(order.form.weights, ETA) if diagram.member(e)
            }
            assert engine == oracle_staircase(ideal, order, ETA), (
                f"ideal #{idx} {tiebreak}"
            )
    announce(
        2,
        "staircase equivalence",
        f"{len(shared_corpus)} ideals, both tiebreaks, {time.time() - started:.1f}s",
    )


def test_criterion_3_becker_soundness(shared_corpus):
    started = time.time()
    reps_checked = 0
    for idx, ideal in enumerate(shared_corpus):
        order = degree_order(ideal.n, REVERSE)
        basis = standard_basis_complete(ideal, order)
        result = becker_check(basis, order)
        assert result.ok, f"ideal #{idx}"
        for i, j, rep in result.representations:
            if rep is None:
                continue
            assert rep.verify(basis), f"ideal #{idx} pair ({i},{j})"
            assert rep.inequality_holds(basis, order), f"ideal #{idx} pair ({i},{j})"
            reps_checked += 1
        for gen in ideal.generators:
            nf = weak_normal_form(gen, basis, order)
            assert nf.remainder.is_zero, f"ideal #{idx}"
            assert nf.verify(gen, basis), f"ideal #{idx}"
    announce(
        3,
        "Becker soundness",
        f"{len(shared_corpus)} bases, {reps_checked} representations re-expanded, "
        f"{time.time() - started:.1f}s",
    )


def test_criterion_4_worked_germ_regression():
    I = IdealPresentation(2, [p("x1*x2")])
    phi = MapGerm(2, (p("x1 - x2"),))
    verdict = flatness_check(I, phi, EXPERIMENT_SEED)
    assert verdict.flat and verdict.fibre_dimension == 0
    assert verdict.fibre_diagram.vertices == frozenset({(1, 0), (0, 2)})
    assert determinacy_order(I, phi, EXPERIMENT_SEED).mu0 == 2

    assert not flatness_check(I, MapGerm(2, (p("x1"),)), EXPERIMENT_SEED).flat

    cusp_pair = IdealPresentation(2, [p("x1^2 - x2^3"), p("x1*x2")])
    table = hilbert_samuel(diagram_of_ideal(cusp_pair, degree_order(2, REVERSE)), ETA)
    assert table.to_list() == [1, 3, 4, 5, 5, 5, 5, 5, 5]
    assert table == oracle_hs(cusp_pair, ETA)
    announce(4, "worked-germ regression", "flatness, vertices, mu0 and HS all exact")


def test_criterion_5_determinacy_experiment():
    started = time.time()
    cases = [
        (IdealPresentation(2, [p("x1*x2")]), MapGerm(2, (p("x1 - x2"),))),
        (IdealPresentation(2, [p("x1^2 - x2^3")]), MapGerm(2, (p("x2"),))),
    ]
    total = 0
    for ideal, phi in cases:
        mu0 = determinacy_order(ideal, phi, EXPERIMENT_SEED).mu0
        spec = PerturbationSpec(
            mu=mu0,
            tail_degree_max=mu0 + 2,
            trials=100,
            rng_seed=EXPERIMENT_SEED,
        )
        report = determinacy_experiment(ideal, phi, spec, eta_max=ETA)
        assert report.guaranteed
        assert report.passes == 100 and report.failures == 0, report.as_dict()["trials"][:2]
        total += report.passes
    elapsed = time.time() - started
    assert elapsed <= 120, f"runtime {elapsed:.1f}s exceeds 120s"
    announce(
        5,
        "determinacy experiment",
        f"{total}/200 trials preserved flatness, HS, diagram, cone; {elapsed:.1f}s",
    )


def test_criterion_6_approximation_experiment():
    ideal = IdealPresentation(2, [p("x1^2 - x2^3")])
    phi = MapGerm(2, (p("x2"),))
    spec = PerturbationSpec(
        mu=3, tail_degree_max=5, trials=50, rng_seed=EXPERIMENT_SEED
    )
    started = time.time()
    report = approximation_experiment(ideal, phi, spec, eta_max=ETA)
    assert report.guaranteed
    assert report.passes == 50 and report.failures == 0
    for trial in report.trials:
        checks = trial["checks"]
        assert checks["domain_hs_equal"] and checks["fibre_hs_equal"]
        assert checks["domain_cones_equal"] and checks["fibre_cones_equal"]
    announce(
        6,
        "approximation experiment",
        f"50/50 trials preserved H_I, H_(I+J) and both cones; {time.time() - started:.1f}s",
    )


def test_criterion_7_hs_equality_implies_diagram_equality(shared_corpus):
    started = time.time()
    fired = 0
    for idx, ideal in enumerate(shared_corpus):
        order = degree_order(ideal.n, REVERSE)
        diagram = diagram_of_ideal(ideal, order)
        mu = diagram.max_vertex_weight() + 1
        # one seeded tail term of degree mu+1 per generator (a power of the
        # last variable): a jet-fixed perturbation of the generator tuple
        rng = make_rng("eqdiags", idx)
        exp = tuple(0 if i < ideal.n - 1 else mu + 1 for i in range(ideal.n))
        perturbed_gens = []
        for gen in ideal.generators:
            coeff = rng.choice([-3, -2, -1, 1, 2, 3])
            tail = Poly.monomial(ideal.n, exp, coeff)
            assert jet_truncate(tail, JetContext(order, mu)).is_zero
            perturbed_gens.append(gen + tail)
        perturbed = IdealPresentation(ideal.n, perturbed_gens)
        perturbed_diagram = diagram_of_ideal(perturbed, order)
        eta_star = max(
            diagram.max_vertex_weight(), perturbed_diagram.max_vertex_weight()
        )
        if hilbert_samuel(diagram, eta_star) == hilbert_samuel(
            perturbed_diagram, eta_star
        ):
            fired += 1
            assert perturbed_diagram == diagram, f"ideal #{idx}"
    assert fired > 0
    announce(
        7,
        "HS equality implies diagram equality",
        f"{fired}/{len(shared_corpus)} implications fired, zero violations, "
        f"{time.time() - started:.1f}s",
    )


def test_criterion_8_deterministic_reports(tmp_path):
    jobs = tmp_path / "jobs"
    jobs.mkdir()
    (jobs / "diagram.json").write_text(
        json.dumps(
            {
                "variables": ["x1", "x2"],
                "ordering": {"weights": [1, 1], "tiebreak": "reverse"},
                "ideal": ["x1^2-x2^3", "x1*x2"],
                "command": "diagram",
            }
        ),
        encoding="utf-8",
    )
    (jobs / "flat.json").write_text(
        json.dumps(
            {
                "variables": ["x1", "x2"],
                "ideal": ["x1*x2"],
                "map": ["x1-x2"],
                "command": "flat-check",
                "parameters": {"seed": 7},
            }
        ),
        encoding="utf-8",
    )
    (jobs / "exp.json").write_text(
        json.dumps(
            {
                "variables": ["x1", "x2"],
                "ideal": ["x1*x2"],
                "map": ["x1-x2"],
                "command": "determinacy-exp",
                "parameters": {"mu": 2, "trials": 5, "seed": 11},
            }
        ),
        encoding="utf-8",
    )
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    agg1, code1 = run_suite(jobs, out_dir=out1)
    agg2, code2 = run_suite(jobs, out_dir=out2)
    assert code1 == code2 == 0
    assert json.dumps(agg1, sort_keys=True) == json.dumps(agg2, sort_keys=True)
    for name in ("diagram", "flat", "exp"):
        b1 = (out1 / f"{name}.report.json").read_bytes()
        b2 = (out2 / f"{name}.report.json").read_bytes()
        assert b1 == b2, name
    announce(8, "determinism", "suite reports byte-identical across reruns")
