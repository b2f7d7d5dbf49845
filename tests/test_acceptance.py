"""Acceptance criteria, one test per criterion.

Every check is exact (zero tolerance) over rational arithmetic; each test
prints a single pass line with its elapsed time and asserts the stated
budget.  Corpora are seeded, so runs are reproducible.
"""

import random
import time
from fractions import Fraction

import pytest

from cohdiff import polymap as pm
from cohdiff.ccdc import LawConfig, check_axioms
from cohdiff.gen import (
    DEFAULT_CONTEXT,
    _build_model,
    default_pcs_model,
    default_poly_model,
    default_signature,
    generate_typed_terms,
    law_generators,
    random_multilinear,
    truncated_nat,
)
from cohdiff.objects import d_space, web
from cohdiff.pcs import corrupted_sigma_instance, sup_norm
from cohdiff.polymap import is_multilinear
from cohdiff.rewrite import TermMultiset, normalize
from cohdiff.semantics import check_diff_theorem, check_invariance
from cohdiff.syntax import (
    App,
    DInj,
    DProj,
    Theta,
    Var,
    d_type,
    differentiate,
    typecheck,
)

F = Fraction


class Budget:
    def __init__(self, number, name, seconds):
        self.number = number
        self.name = name
        self.seconds = seconds
        self.start = time.perf_counter()

    def done(self):
        elapsed = time.perf_counter() - self.start
        print(
            f"\nACCEPTANCE {self.number} {self.name}: PASS "
            f"({elapsed:.2f}s < {self.seconds}s)"
        )
        assert elapsed < self.seconds, (
            f"criterion {self.number} exceeded its {self.seconds}s budget "
            f"({elapsed:.2f}s)"
        )


@pytest.fixture(scope="module")
def pcs_model():
    return default_pcs_model()


@pytest.fixture(scope="module")
def poly_model():
    return default_poly_model()


def test_criterion_1_typing_preservation():
    budget = Budget(1, "typing preservation", 5)
    sig = default_signature()
    names = [v for v, _ in DEFAULT_CONTEXT]
    count = 0
    for i, (ctx, t, _) in enumerate(generate_typed_terms(500, seed=101)):
        x = names[i % len(names)]
        ty = typecheck(sig, ctx, t)
        dctx = tuple((v, d_type(vt) if v == x else vt) for v, vt in ctx)
        dty = typecheck(sig, dctx, differentiate(t, x))
        assert dty == d_type(ty)
        count += 1
    assert count >= 500
    budget.done()


def test_criterion_2_semantic_invariance(pcs_model):
    budget = Budget(2, "semantic invariance", 60)
    count = 0
    for ctx, t, _ in generate_typed_terms(200, seed=202):
        verdict = check_invariance(pcs_model, ctx, t, 5000)
        assert verdict.holds, verdict.render()
        assert not verdict.fuel_exhausted
        count += 1
    assert count >= 200
    budget.done()


def test_criterion_3_differential_theorem(pcs_model, poly_model):
    budget = Budget(3, "differential theorem", 60)
    names = [v for v, _ in DEFAULT_CONTEXT]
    count = 0
    for i, (ctx, t, _) in enumerate(generate_typed_terms(200, seed=202)):
        x = names[i % len(names)]
        for model in (pcs_model, poly_model):
            verdict = check_diff_theorem(model, ctx, t, x)
            assert verdict.holds, f"{model.inst.name}: {verdict.render()}"
        count += 1
    assert count >= 200
    budget.done()


def test_criterion_4_axiom_suite(pcs_model, poly_model):
    budget = Budget(4, "axiom suite", 120)
    for model in (pcs_model, poly_model):
        gens, multis, objs = law_generators(model, seed=404)
        report = check_axioms(
            model.inst, gens, multis, objs, LawConfig(seed=404, cases=100)
        )
        failed = [r.name for r in report.results if not r.passed]
        assert not failed, f"{model.inst.name} failed laws: {failed}"
        assert all(r.cases >= 100 for r in report.results)
    corrupt = corrupted_sigma_instance()
    corrupt_model = _build_model(corrupt, truncated_nat())
    gens, multis, objs = law_generators(corrupt_model, seed=404)
    report = check_axioms(
        corrupt, gens, multis, objs, LawConfig(seed=404, cases=10)
    )
    result = report.result("D-zero")
    assert not result.passed
    assert result.counterexample, "negative control must carry a counterexample"
    budget.done()


def test_criterion_5_pcs_monotone_bound(pcs_model):
    budget = Budget(5, "monotone derivative bound", 10)
    rng = random.Random(505)
    gens, _, _ = law_generators(pcs_model, seed=505)
    pool = [f for f in gens if f.entries]
    checked = 0
    while checked < 100:
        f = rng.choice(pool)
        dom_web = web(f.dom)
        raw_x = {a: F(rng.randint(0, 3), 7) for a in dom_web}
        raw_u = {a: F(rng.randint(0, 2), 9) for a in dom_web}
        total = {a: raw_x[a] + raw_u[a] for a in dom_web}
        norm = sup_norm(f.dom, total)
        scale = max(norm, F(1))
        x = {a: c / scale for a, c in raw_x.items() if c}
        u = {a: c / scale for a, c in raw_u.items() if c}
        fx = f.eval(x)
        fxu = f.eval({a: x.get(a, F(0)) + u.get(a, F(0)) for a in dom_web})
        derivative = pm.compose(pm.proj(1, f.cod), pm.differential(f))
        point = {}
        for a, c in x.items():
            point[_tag(0, a)] = c
        for a, c in u.items():
            point[_tag(1, a)] = c
        dfx = derivative.eval(point)
        for b in web(f.cod):
            assert (
                fx.get(b, F(0)) + dfx.get(b, F(0)) <= fxu.get(b, F(0))
            ), f"bound violated at {b} for {f!r}"
        checked += 1
    assert checked >= 100
    budget.done()


def _tag(i, a):
    from cohdiff.objects import tag_d

    return tag_d(i, a)


def test_criterion_6_multilinearity_theorems(pcs_model):
    budget = Budget(6, "multilinearity theorems", 30)
    inst = pcs_model.inst
    rng = random.Random(606)
    base = pcs_model.grounds["N"]
    checked = 0
    for _ in range(50):
        phi = random_multilinear(rng, [base, base], base)
        slots = (base, base)
        # D_i preserves bilinearity (support shape on the lifted slots).
        for i in (0, 1):
            di = inst.partial_derivative(phi, 2, (i,))
            assert is_multilinear(di, 2)
        # Bilinear expansion: second coordinate of D phi . c^-1.
        lhs = pm.compose(
            pm.proj(1, phi.cod),
            pm.compose(pm.differential(phi), inst.c_n_inv([base, base])),
        )
        rhs = pm.add(
            pm.compose(phi, pm.with_map(pm.proj(1, base), pm.proj(0, base))),
            pm.compose(phi, pm.with_map(pm.proj(0, base), pm.proj(1, base))),
        )
        assert lhs == rhs
        checked += 1
    assert checked >= 50

    # Projection commutation for d <= 2 on the trilinear default symbol.
    tri = pcs_model.symbols["tri"]
    slots3 = [base, base, base]
    for d in (0, 1, 2):
        for _ in range(6):
            i = rng.randrange(3)
            tail = [rng.randrange(3) for _ in range(d)]
            lhs_inner = inst.partial_derivative(tri, 3, [i] + tail)
            h = sum(1 for letter in tail if letter == i)
            rhs_inner = inst.partial_derivative(tri, 3, tail)
            rhs_slots = list(slots3)
            for letter in tail:
                rhs_slots[letter] = d_space(rhs_slots[letter])
            for k in (0, 1):
                pk = pm.proj(k, tri.cod)
                dpk = inst.partial_derivative(pk, 1, (0,) * d)
                lhs = pm.compose(dpk, lhs_inner)
                pk_i = pm.proj(k, slots3[i])
                pk_h = inst.partial_derivative(pk_i, 1, (0,) * h)
                rhs = pm.compose(
                    rhs_inner, inst.single_app(rhs_slots, i, pk_h)
                )
                assert lhs == rhs, f"k={k} d={d} i={i} tail={tail}"
    budget.done()


def test_criterion_7_cdc_correspondence(poly_model):
    budget = Budget(7, "cartesian differential correspondence", 30)
    inst = poly_model.inst
    gens, multis, objs = law_generators(poly_model, seed=707)
    report = check_axioms(
        inst, gens, multis, objs, LawConfig(seed=707, cases=100)
    )
    failed = [r.name for r in report.results if not r.passed]
    assert not failed, f"poly failed laws: {failed}"
    # Total summability: pair_witness is never absent on parallel pairs.
    rng = random.Random(707)
    pairs = 0
    while pairs < 100:
        f = rng.choice(gens)
        g = rng.choice([h for h in gens if h.dom == f.dom and h.cod == f.cod])
        assert inst.pair_witness(f, g) is not None
        pairs += 1
    budget.done()


def test_criterion_8_golden_reduction_traces():
    budget = Budget(8, "golden reduction traces", 1)
    x = Var("x")

    def iota0(t):
        return App(DInj(0), (), (t,))

    seed = iota0(iota0(x))
    t1 = App(DProj(1), (), (App(Theta(1), (), (seed,)),))
    final1, trace1 = normalize(t1, 20)
    assert final1 == TermMultiset([])
    assert trace1.render_lines() == [
        "#1 pi1-theta @ 0 : [pi0(pi1(iota0(iota0(x)))), pi1(pi0(iota0(iota0(x))))]",
        "#2 pi-iota-other @ 0.0 : [pi1(pi0(iota0(iota0(x))))]",
        "#3 pi-iota-same @ 0.0 : [pi1(iota0(x))]",
        "#4 pi-iota-other @ 0 : []",
    ]

    t2 = App(DProj(0), (), (App(Theta(1), (), (seed,)),))
    final2, trace2 = normalize(t2, 20)
    assert final2 == TermMultiset([x])
    assert trace2.render_lines() == [
        "#1 pi0-theta @ 0 : [pi0(pi0(iota0(iota0(x))))]",
        "#2 pi-iota-same @ 0.0 : [pi0(iota0(x))]",
        "#3 pi-iota-same @ 0 : [x]",
    ]

    # Rule 6 produces exactly n + 1 members, counted with multiplicity.
    from cohdiff.rewrite import _match_root

    for n in range(4):
        t = App(DProj(1), (), (App(Theta(n), (), (Var("z"),)),))
        m = _match_root(t)
        assert m is not None and len(TermMultiset(m[1]).terms()) == n + 1
    budget.done()
