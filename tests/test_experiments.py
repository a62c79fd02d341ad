from itertools import product

import pytest

from germlab import (
    IdealPresentation,
    JetContext,
    MapGerm,
    NotFlatError,
    PerturbationSpec,
    approximation_experiment,
    degree_order,
    determinacy_experiment,
    jet_truncate,
    parse_poly,
    perturb,
)
from germlab import experiments, germs, standard_basis
from germlab.experiments import tail_candidates


def p(text, n=2):
    return parse_poly(text, n)


def spec_for(mu, trials=3, seed=11, tdm=None):
    return PerturbationSpec(
        mu=mu,
        tail_degree_max=tdm if tdm is not None else mu + 2,
        trials=trials,
        rng_seed=seed,
    )


def test_perturb_fixes_jet():
    spec = spec_for(2, tdm=4)
    base = [p("x1 - x2")]
    ctx = JetContext(degree_order(2), 2)
    for trial in range(6):
        (out,) = perturb(base, spec, trial)
        tail = out - base[0]
        assert jet_truncate(tail, ctx).is_zero
        assert tail.is_zero or tail.total_degree() <= 4
        assert jet_truncate(out, ctx) == jet_truncate(base[0], ctx)


def test_perturb_deterministic():
    spec = spec_for(2, tdm=4, seed=77)
    a = perturb([p("x1 - x2"), p("x1*x2")], spec, 3)
    b = perturb([p("x1 - x2"), p("x1*x2")], spec, 3)
    assert a == b
    c = perturb([p("x1 - x2"), p("x1*x2")], spec, 4)
    assert a != c


def test_perturb_no_admissible_terms():
    # every candidate needs weight >= mu+1 but degree <= tail_degree_max
    spec = PerturbationSpec(mu=6, tail_degree_max=3, trials=1, rng_seed=1)
    assert tail_candidates(2, spec) == []
    out = perturb([p("x1 - x2")], spec, 0)
    assert out == [p("x1 - x2")]


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_tail_candidates_match_a_brute_force_enumeration(n):
    for mu, tdm in ((0, 0), (0, 3), (2, 4), (3, 5), (6, 3)):
        spec = PerturbationSpec(mu=mu, tail_degree_max=tdm, trials=1, rng_seed=1)
        brute = [
            e for e in product(range(tdm + 1), repeat=n) if mu + 1 <= sum(e) <= tdm
        ]
        assert tail_candidates(n, spec) == brute


def test_determinacy_experiment_guaranteed():
    I = IdealPresentation(2, [p("x1*x2")])
    phi = MapGerm(2, (p("x1 - x2"),))
    report = determinacy_experiment(I, phi, spec_for(2, trials=8, seed=5))
    assert report.guaranteed and report.bounds["mu0"] == 2
    assert report.passes == 8 and report.all_pass
    for trial in report.trials:
        assert trial["pass"] and all(trial["checks"].values())
        assert trial["diagram_contains_original"]
        assert trial["diagram_agrees_up_to_mu"]


def test_determinacy_experiment_free_domain():
    I = IdealPresentation(2, [])
    phi = MapGerm(2, (p("x1"),))
    report = determinacy_experiment(I, phi, spec_for(1, trials=4, seed=5))
    assert report.all_pass


def test_determinacy_experiment_zero_trials():
    I = IdealPresentation(2, [p("x1*x2")])
    phi = MapGerm(2, (p("x1 - x2"),))
    report = determinacy_experiment(I, phi, spec_for(2, trials=0))
    assert report.all_pass and report.trials == []


def test_determinacy_experiment_rejects_non_flat():
    I = IdealPresentation(2, [p("x1*x2")])
    with pytest.raises(NotFlatError):
        determinacy_experiment(I, MapGerm(2, (p("x1"),)), spec_for(2))


def test_sub_mu0_flagged():
    I = IdealPresentation(2, [p("x1*x2")])
    phi = MapGerm(2, (p("x1 - x2"),))
    report = determinacy_experiment(I, phi, spec_for(1, trials=2, seed=5))
    assert not report.guaranteed


def test_approximation_experiment():
    I = IdealPresentation(2, [p("x1^2 - x2^3")])
    phi = MapGerm(2, (p("x2"),))
    report = approximation_experiment(I, phi, spec_for(3, trials=4, seed=5))
    assert report.guaranteed
    assert report.bounds["domain_vertex_bound"] == 2
    assert report.bounds["fibre_vertex_bound"] == 2
    assert report.all_pass
    for trial in report.trials:
        checks = trial["checks"]
        assert checks["domain_hs_equal"] and checks["fibre_hs_equal"]
        assert checks["domain_cones_equal"] and checks["fibre_cones_equal"]
        assert checks["flat"]


def test_reports_reproducible():
    I = IdealPresentation(2, [p("x1*x2")])
    phi = MapGerm(2, (p("x1 - x2"),))
    a = determinacy_experiment(I, phi, spec_for(2, trials=5, seed=9)).as_dict()
    b = determinacy_experiment(I, phi, spec_for(2, trials=5, seed=9)).as_dict()
    assert a == b


@pytest.mark.parametrize("experiment", [determinacy_experiment, approximation_experiment])
def test_trials_run_no_dimension_search(monkeypatch, experiment):
    # only the baseline verdict searches for witness coordinates; each
    # trial reads its flatness off the diagrams it computes anyway
    calls = []
    original = germs.dimension_at_origin

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(germs, "dimension_at_origin", counting)
    monkeypatch.setattr(experiments, "dimension_at_origin", counting, raising=False)
    I = IdealPresentation(2, [p("x1^2 - x2^3")])
    phi = MapGerm(2, (p("x2"),))
    experiment(I, phi, spec_for(3, trials=0, seed=5))
    baseline = len(calls)
    report = experiment(I, phi, spec_for(3, trials=4, seed=5))
    assert report.all_pass and len(report.trials) == 4
    assert len(calls) == 2 * baseline


@pytest.mark.parametrize("experiment", [determinacy_experiment, approximation_experiment])
def test_each_cone_is_reduced_once(monkeypatch, experiment):
    # every presentation reduces its cone once: the baselines' cones are
    # not rebuilt per trial
    reduced = []
    original = standard_basis._reduced_cone

    def counting(packing, rows, limits):
        reduced.append(rows)  # kept alive, so no two ids coincide
        return original(packing, rows, limits)

    monkeypatch.setattr(standard_basis, "_reduced_cone", counting)
    I = IdealPresentation(2, [p("x1^2 - x2^3")])
    phi = MapGerm(2, (p("x2"),))
    report = experiment(I, phi, spec_for(3, trials=3, seed=5))
    assert report.all_pass and len(report.trials) == 3
    # one fibre baseline, and for the approximation one domain baseline too
    baselines = 1 if experiment is determinacy_experiment else 2
    assert len(reduced) == baselines * (1 + 3)
    assert len({id(rows) for rows in reduced}) == len(reduced)
