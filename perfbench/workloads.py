"""Seeded inputs and per-item work for the three benchmark workloads.

Inputs are a pure function of (workload, seed): they come from the standard
library's ``random`` seeded by a hash, never from germlab's own seeding, so
a change to the program cannot change what it is fed.  Each item returns a
verdict dict; its digest is compared with the one recorded in
``digests.json``.  Checks that compare the program with itself (oracle,
re-expansion) run inside the item, as the acceptance gate runs them; checks
on a CLI report run afterwards, untimed, in ``job_verdict``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
from dataclasses import dataclass
from fractions import Fraction

import germlab
import germlab.cli

ETA = 8
# Random ideals use two variables.  On three, a single ideal costs anything
# from 0.1 ms to 56 s under the criterion-7 construction (3.6 s as a
# corpus-verify item, 1.7 s as a dim job), so no run of bounded length is
# steady across seeds.  Germ pairs, whose cost is bounded, also use three.
RANDOM_IDEAL_N = 2
NONZERO = [c for c in range(-5, 6) if c]
REVERSE, FORWARD = "reverse", "forward"


def rng_for(*parts) -> random.Random:
    digest = hashlib.sha256(repr(parts).encode()).digest()
    return random.Random(int.from_bytes(digest[:8], "big"))


# -- polynomials as plain data: tuples of (exponent, int coefficient) ---------


def random_poly(rng, n, max_degree=4, max_terms=4, min_terms=2, min_term_degree=2):
    """The acceptance corpus distribution: 2..4 terms of total degree 2..4,
    nonzero integer coefficients in [-5, 5]."""
    while True:
        terms = {}
        for _ in range(rng.randint(min_terms, max_terms)):
            while True:
                exp = tuple(rng.randint(0, max_degree) for _ in range(n))
                if min_term_degree <= sum(exp) <= max_degree:
                    break
            terms[exp] = terms.get(exp, 0) + rng.choice(NONZERO)
        terms = {e: c for e, c in terms.items() if c}
        if terms:
            return tuple(sorted(terms.items()))


def random_gens(rng, n, count):
    """``count`` generators.  The corpus draws 1..3 at random; callers cycle
    the count over items instead, so the mix of generator counts, the main
    source of cost, is the same for every seed."""
    return [random_poly(rng, n) for _ in range(count)]


def to_poly(n, data):
    return germlab.Poly(n, dict(data))


def poly_text(data) -> str:
    """x1..xn text accepted by germlab's parser."""
    pieces = []
    for exp, c in data:
        mono = "*".join(
            f"x{i + 1}" if e == 1 else f"x{i + 1}^{e}" for i, e in enumerate(exp) if e
        )
        body = f"{abs(c)}*{mono}" if mono else str(abs(c))
        sign = "-" if c < 0 else "+"
        pieces.append(("-" if c < 0 else "") + body if not pieces else f"{sign} {body}")
    return " ".join(pieces)


def weighted_box(weights, eta):
    """Every exponent of weight <= eta (the benchmark's own enumeration)."""
    out = [()]
    for w in weights:
        out = [p + (b,) for p in out for b in range(eta // w + 1)]
    return [e for e in out if sum(w * b for w, b in zip(weights, e)) <= eta]


def engine_staircase(diagram, weights, eta):
    return {e for e in weighted_box(weights, eta) if diagram.member(e)}


def vertices(diagram):
    return [list(v) for v in diagram.sorted_vertices()]


def digest(verdict) -> str:
    text = json.dumps(verdict, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:DIGEST_HEX]


DIGEST_HEX = 4


# -- corpus-verify -------------------------------------------------------------


@dataclass(frozen=True)
class CorpusItem:
    n: int
    gens: tuple  # germlab Poly generators
    weights: tuple  # the weighted order under test (reverse tie-break)


def corpus_items(seed, count):
    n = RANDOM_IDEAL_N
    items = []
    for k in range(count):
        rng = rng_for("corpus-verify", seed, n, k)
        gens = tuple(to_poly(n, g) for g in random_gens(rng, n, 1 + k % 3))
        # weight 2 on one variable, taking turns like the generator count
        # (larger weights made single items cost seconds and spike memory)
        w = (k // 3) % n
        weights = tuple(2 if i == w else 1 for i in range(n))
        items.append(CorpusItem(n, gens, weights))
    rng_for("corpus-verify", seed, "order").shuffle(items)
    return items


def corpus_run(item: CorpusItem):
    """The acceptance gate's work on one ideal; returns (verdict, problems)."""
    n = item.n
    ideal = germlab.IdealPresentation(n, item.gens)
    rev = germlab.degree_order(n, REVERSE)
    orders = [
        (rev, (1,) * n),
        (germlab.degree_order(n, FORWARD), (1,) * n),
        (germlab.LocalOrder(germlab.PositiveLinearForm(item.weights), REVERSE), item.weights),
    ]
    problems = []
    diagrams = []
    for order, weights in orders:
        d = germlab.diagram_of_ideal(ideal, order)
        diagrams.append(d)
        if engine_staircase(d, weights, ETA) != germlab.oracle_staircase(ideal, order, ETA):
            problems.append(f"staircase/{order.tiebreak}/{weights}")
    hs = germlab.hilbert_samuel(diagrams[0], ETA)
    if hs != germlab.oracle_hs(ideal, ETA):
        problems.append("hs")

    completion = ideal.completion(rev, certificates=True)
    basis = list(completion.basis)
    zero = germlab.Poly.zero(n)
    for k, (b, cert) in enumerate(zip(basis, completion.certificates)):
        acc = zero
        for c, g in zip(cert, item.gens):
            acc = acc + c * g
        if acc != b:
            problems.append(f"certificate/{k}")

    result = germlab.becker_check(basis, rev)
    if not result.ok:
        problems.append("becker")
    for i, j, rep in result.representations:
        if rep is not None and not (
            rep.verify(basis) and rep.inequality_holds(basis, rev)
        ):
            problems.append(f"representation/{i},{j}")
    for k, g in enumerate(item.gens):
        nf = germlab.weak_normal_form(g, basis, rev)
        if not (nf.remainder.is_zero and nf.verify(g, basis)):
            problems.append(f"normal-form/{k}")

    verdict = {
        "diagrams": [vertices(d) for d in diagrams],
        "hs": hs.to_list(),
        "becker_ok": result.ok,
    }
    return verdict, problems


# -- perturbed-swell -----------------------------------------------------------


@dataclass(frozen=True)
class SwellItem:
    n: int
    gens: tuple
    tail_coeffs: tuple  # one coefficient per generator


def swell_items(seed, count):
    n = RANDOM_IDEAL_N
    items = []
    for k in range(count):
        rng = rng_for("perturbed-swell", seed, n, k)
        gens = tuple(to_poly(n, g) for g in random_gens(rng, n, 1 + k % 3))
        coeffs = tuple(rng.choice([-3, -2, -1, 1, 2, 3]) for _ in gens)
        items.append(SwellItem(n, gens, coeffs))
    rng_for("perturbed-swell", seed, "order").shuffle(items)
    return items


def swell_run(item: SwellItem):
    """Criterion-7 construction: a tail c*x_n^(mu+1) per generator with mu one
    above the diagram's vertex bound; both diagrams are checked against the
    oracle and HS equality must imply diagram equality."""
    n = item.n
    order = germlab.degree_order(n, REVERSE)
    ideal = germlab.IdealPresentation(n, item.gens)
    d = germlab.diagram_of_ideal(ideal, order)
    mu = d.max_vertex_weight() + 1
    exp = (0,) * (n - 1) + (mu + 1,)
    tails = [g + germlab.Poly.monomial(n, exp, c) for g, c in zip(item.gens, item.tail_coeffs)]
    # a generator that is minus its own tail vanishes; the rest stay
    perturbed = germlab.IdealPresentation(n, [t for t in tails if not t.is_zero])
    pd = germlab.diagram_of_ideal(perturbed, order)
    eta = max(d.max_vertex_weight(), pd.max_vertex_weight())
    problems = []
    ones = (1,) * n
    for label, ideal_, diagram in (("base", ideal, d), ("perturbed", perturbed, pd)):
        if engine_staircase(diagram, ones, eta) != germlab.oracle_staircase(ideal_, order, eta):
            problems.append(f"staircase/{label}")
    fired = germlab.hilbert_samuel(d, eta) == germlab.hilbert_samuel(pd, eta)
    if fired and pd != d:
        problems.append("hs-equality-without-diagram-equality")
    verdict = {"diagram": vertices(d), "perturbed": vertices(pd), "fired": fired}
    return verdict, problems


# -- job-suite -----------------------------------------------------------------


@dataclass(frozen=True)
class JobItem:
    name: str
    data: dict  # the job file content
    expect: int  # exit code the job must end with


def _restricted_to_line(f, line):
    """f restricted to the line t -> t*line, as a dict degree -> coefficient."""
    out = {}
    for exp, c in f:
        v = Fraction(c)
        for x, e in zip(line, exp):
            v *= Fraction(x) ** e
        d = sum(exp)
        out[d] = out.get(d, 0) + v
    return {d: v for d, v in out.items() if v}


def _kernel_line(forms, n):
    """Direction spanning the common kernel of n-1 independent linear forms."""
    if n == 2:
        (a, b), = forms
        return (b, -a)
    (a1, a2, a3), (b1, b2, b3) = forms
    return (a2 * b3 - a3 * b2, a3 * b1 - a1 * b3, a1 * b2 - a2 * b1)


def flat_pair(rng, n):
    """A hypersurface germ f and n-1 linear map components with f not
    vanishing on their common kernel line: the fibre is zero-dimensional, so
    the map is flat by construction (checked here, not by germlab)."""
    f = random_poly(rng, n)
    while True:
        forms = [tuple(rng.randint(-3, 3) for _ in range(n)) for _ in range(n - 1)]
        line = _kernel_line(forms, n)
        if any(line) and _restricted_to_line(f, line):
            return f, forms


def _linear_text(form):
    return poly_text(
        tuple(
            (tuple(int(i == j) for j in range(len(form))), c)
            for i, c in enumerate(form)
            if c
        )
    )


def _job(n, command, ideal, **extra):
    data = {"variables": [f"x{i + 1}" for i in range(n)], "command": command}
    data["ideal"] = [poly_text(g) for g in ideal]
    data.update(extra)
    return data


def job_items(seed, per_command):
    """per_command jobs of each single-step kind; a quarter as many of each
    experiment and of each rejection.  Germ pairs alternate n = 2, 3;
    experiments use n = 2."""
    items = []

    def add(kind, k, data, expect=0):
        items.append(JobItem(f"{kind}-{k:03d}", data, expect))

    for k in range(per_command):
        rng = rng_for("job-suite", seed, k)
        s = rng.randint(1, 10**6)
        # germ pairs alternate n = 2, 3; random ideals stay on two variables
        m = 2 + k % 2
        f, forms = flat_pair(rng, m)
        flat_map = [_linear_text(form) for form in forms]
        add("flat-check", k, _job(m, "flat-check", [f], map=flat_map, parameters={"seed": s}))
        f, forms = flat_pair(rng, m)
        add("determinacy-order", k, _job(
            m, "determinacy-order", [f], map=[_linear_text(form) for form in forms],
            parameters={"seed": s}))
        n, count = RANDOM_IDEAL_N, 1 + k % 3
        add("dim", k, _job(n, "dim", random_gens(rng, n, count), parameters={"seed": s}))
        add("cm-certify", k, _job(
            n, "cm-certify", random_gens(rng, n, count), parameters={"seed": s, "l_max": 4}))
        add("tangent-cone", k, _job(n, "tangent-cone", random_gens(rng, n, count)))
        gens = random_gens(rng, n, count)
        tails = [tuple(sorted(dict(g + (((0,) * (n - 1) + (5,), rng.choice(NONZERO)),)).items()))
                 for g in gens]
        add("cones-equal", k, _job(n, "cones-equal", gens, ideal2=[poly_text(t) for t in tails]))
        add("std-basis", k, _job(n, "std-basis", random_gens(rng, n, count)))
        add("hs", k, _job(n, "hs", random_gens(rng, n, count), parameters={"eta_max": ETA}))
    for k in range(max(1, per_command // 4)):
        rng = rng_for("job-suite", seed, "experiment", k)
        n = 2  # with dense random tails on three variables one job ran over 50 s
        params = {"seed": rng.randint(1, 10**6), "mu": 4, "trials": 3}
        f, forms = flat_pair(rng, n)
        add("determinacy-exp", k, _job(
            n, "determinacy-exp", [f], map=[_linear_text(form) for form in forms],
            parameters=params))
        f, forms = flat_pair(rng, n)
        add("approx-exp", k, _job(
            n, "approx-exp", [f], map=[_linear_text(form) for form in forms],
            parameters=dict(params, mu=3, tail_degree_max=5)))
        # rejected with exit 1: a map component inside the ideal is never
        # flat, and an ideal containing a unit has no dimension
        f = random_poly(rng, n)
        line = tuple(rng.randint(1, 3) for _ in range(n))
        inside = {}
        for i in range(n):
            for e, c in f:
                shifted = tuple(a + int(i == j) for j, a in enumerate(e))
                inside[shifted] = inside.get(shifted, 0) + c * line[i]
        inside = poly_text(tuple(sorted((e, c) for e, c in inside.items() if c)))
        add("reject-not-flat", k, _job(
            n, "determinacy-order", [f], map=[inside],
            parameters={"seed": rng.randint(1, 10**6)}), expect=1)
        unit = ((((0,) * n), 1),) + random_poly(rng, n)
        add("reject-unit", k, _job(n, "dim", [unit], parameters={"seed": 1}), expect=1)
    rng_for("job-suite", seed, "order").shuffle(items)
    return items


def run_cli(path):
    """germlab.cli.main(["run", path]) with stdout captured."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = germlab.cli.main(["run", str(path)])
    return code, buf.getvalue()


def job_verdict(item: JobItem, code, text):
    """(verdict, problems) from a captured report; canonical invariants only."""
    problems = []
    if code != item.expect:
        problems.append(f"exit {code}, expected {item.expect}")
    report = json.loads(text)
    verdict = {"status": report.get("status"), "code": code}
    if code != 0 or report.get("status") != "ok":
        return verdict, problems
    r = report["result"]
    data = item.data
    n = len(data["variables"])
    cmd = data["command"]
    if cmd == "dim":
        verdict["dimension"] = r["dimension"]
    elif cmd == "cm-certify":
        verdict.update(dimension=r["dimension"], cm=r["cm"]["status"],
                       diagram=r["diagram"], hs=r["hs"])
    elif cmd == "flat-check":
        verdict.update({k: r[k] for k in ("flat", "fibre_dimension", "domain_dimension",
                                         "fibre_vertices", "fibre_hs")})
    elif cmd == "determinacy-order":
        verdict.update(mu0=r["mu0"], flat=r["flatness"]["flat"])
    elif cmd in ("tangent-cone", "std-basis"):
        order = germlab.degree_order(n, REVERSE)
        key = "generators" if cmd == "tangent-cone" else "basis"
        polys = [germlab.parse_poly(t, n) for t in r[key]]
        verdict["diagram"] = vertices(germlab.vertices_from_exponents(
            [germlab.initial_exponent(p, order) for p in polys], n))
        if cmd == "std-basis":
            gens = [germlab.parse_poly(t, n) for t in data["ideal"]]
            for k, (b, cert) in enumerate(zip(polys, r["certificates"])):
                acc = germlab.Poly.zero(n)
                for c, g in zip(cert, gens):
                    acc = acc + germlab.parse_poly(c, n) * g
                if acc != b:
                    problems.append(f"certificate/{k}")
    elif cmd == "cones-equal":
        verdict["equal"] = r["equal"]
    elif cmd == "hs":
        verdict["hs"] = r["hs"]
        ideal = germlab.IdealPresentation(n, [germlab.parse_poly(t, n) for t in data["ideal"]])
        if germlab.oracle_hs(ideal, ETA).to_list() != r["hs"]:
            problems.append("hs")
    else:  # determinacy-exp, approx-exp
        verdict.update({k: r[k] for k in ("guaranteed", "bounds", "baseline", "passes", "failures")})
    return verdict, problems
