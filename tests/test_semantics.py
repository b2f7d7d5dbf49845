import ast
import io
import os
import subprocess
import sys
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest

import cohdiff
from cohdiff import polymap as pm
from cohdiff import cli, rewrite, syntax
from cohdiff.ccdc import Instance
from cohdiff.cli import main
from cohdiff.gen import (
    DEFAULT_CONTEXT,
    _build_model,
    default_pcs_model,
    default_poly_model,
    generate_typed_terms,
    truncated_nat,
)
from cohdiff.objects import d_space, prodn, product, strip_d_space
from cohdiff.pcs import PcsInstance, corrupted_sigma_instance
from cohdiff.rewrite import TermMultiset
from cohdiff.semantics import (
    Model,
    ModelError,
    check_diff_theorem,
    check_invariance,
    interp_ctx,
    interp_multiset,
    interp_term,
    interp_type,
)
from cohdiff.syntax import (
    App,
    DInj,
    DProj,
    FunctionType,
    Pair,
    ProdProj,
    ProductType,
    Signature,
    Theta,
    TypeCheckError,
    UserFn,
    Var,
    d_type,
    d_type_n,
    differentiate,
    ground,
    typecheck,
)

F = Fraction
N = ground("N")


@pytest.fixture(scope="module")
def pcs():
    return default_pcs_model()


@pytest.fixture(scope="module")
def poly():
    return default_poly_model()


def test_interp_type_compositional(pcs):
    base = pcs.grounds["N"]
    ty = ProductType(d_type(N), N)
    assert interp_type(pcs.grounds, ty) == product(d_space(base), base)
    # interp commutes with the type-level D.
    assert interp_type(pcs.grounds, d_type(ty)) == d_space(
        interp_type(pcs.grounds, ty)
    )


def test_interp_empty_context_is_terminal(pcs):
    assert interp_ctx(pcs, ()) == prodn([])


def test_interp_var_is_projection(pcs):
    ctx = (("x", N),)
    base = pcs.grounds["N"]
    assert interp_term(pcs, ctx, Var("x")) == pm.identity(base)
    ctx2 = (("x", N), ("y", N))
    left = interp_term(pcs, ctx2, Var("x"))
    assert left == pm.prod_proj(0, base, base)


def test_interp_pair_of_same_var(pcs):
    ctx = (("x", N),)
    got = interp_term(pcs, ctx, Pair(Var("x"), Var("x")))
    ident = pm.identity(pcs.grounds["N"])
    assert got == pm.prod_pair(ident, ident)


def test_interp_app_with_word_is_iterated_partial(pcs):
    # bil^[1,0](x, q) = D0 D1 bil composed with the argument pairing.
    inst = pcs.inst
    base = pcs.grounds["N"]
    nn = product(base, base)
    ctx = (("x", d_type(N)), ("q", d_type(ProductType(N, N))))
    t = App(UserFn("bil"), (1, 0), (Var("x"), Var("q")))
    got = interp_term(pcs, ctx, t)
    lifted = inst.partial_derivative(pcs.symbols["bil"], 2, (1, 0))
    args = pm.prod_pair(
        pm.prod_proj(0, d_space(base), d_space(nn)),
        pm.prod_proj(1, d_space(base), d_space(nn)),
    )
    assert got == pm.compose(lifted, args)


def test_interp_builtins_with_depth(pcs):
    base = pcs.grounds["N"]
    ctx = (("z", d_type_n(N, 2)),)
    t = App(DProj(0), (0,), (Var("z"),))
    got = interp_term(pcs, ctx, t)
    expected = pm.differential(pm.proj(0, base))
    assert got == expected  # composed with the identity projection


def _builtin_by_iterated_differential(model, ctx, t):
    """A built-in application as D^d of its base map composed with the
    argument's map: the rule the one-slot lift must agree with."""
    f, d = t.fn, len(t.word)
    arg = interp_term(model, ctx, t.args[0])
    x = arg.cod
    for _ in range(d + f.strips):
        x = strip_d_space(x)
    if isinstance(f, DProj):
        base = pm.proj(f.i, x)
    elif isinstance(f, DInj):
        base = model.inst.inj(f.i, x)
    elif isinstance(f, Theta):
        base = model.inst.theta_pow(x, f.n)
    else:
        base = pm.prod_proj(f.i, x.left, x.right)
    for _ in range(d):
        base = pm.differential(base)
    return pm.compose(base, arg)


@pytest.mark.parametrize("which", ["pcs", "poly"])
def test_builtins_lifted_by_their_word_match_iterated_differential(
    which, request
):
    model = request.getfixturevalue(which)
    # Each context variable under up to four iota's, alternating sides,
    # reaches depth 5, which theta_2 with a word of length 2 needs.
    args = []
    for name, _ in DEFAULT_CONTEXT:
        arg = Var(name)
        for k in range(5):
            args.append(arg)
            arg = App(DInj(k % 2), (), (arg,))
    heads = [DProj(0), DProj(1), DInj(0), DInj(1), Theta(0), Theta(1),
             Theta(2), ProdProj(0), ProdProj(1)]
    checked = set()
    for f in heads:
        for d in range(3):
            for arg in args:
                t = App(f, (0,) * d, (arg,))
                try:
                    typecheck(model.sig, DEFAULT_CONTEXT, t)
                except TypeCheckError:
                    continue
                expected = _builtin_by_iterated_differential(
                    model, DEFAULT_CONTEXT, t
                )
                assert interp_term(model, DEFAULT_CONTEXT, t) == expected, t
                checked.add((f, d))
    assert checked == {(f, d) for f in heads for d in range(3)}


def test_empty_word_application_keeps_codomain(pcs):
    ctx = (("x", N), ("p", ProductType(N, N)))
    t = App(UserFn("bil"), (), (Var("x"), Var("p")))
    got = interp_term(pcs, ctx, t)
    assert got.cod == pcs.grounds["N"]


def test_interp_reads_objects_off_the_maps(pcs, poly):
    # interp_term types nothing: the objects of an application come from
    # its argument maps, and they must be the objects of the typed term.
    names = [v for v, _ in DEFAULT_CONTEXT]
    for i, (ctx, t, _) in enumerate(generate_typed_terms(40, seed=11)):
        x = names[i % len(names)]
        dctx = tuple((v, d_type(ty) if v == x else ty) for v, ty in ctx)
        for model in (pcs, poly):
            for c, u in ((ctx, t), (dctx, differentiate(t, x))):
                got = interp_term(model, c, u)
                assert got.dom == interp_ctx(model, c)
                assert got.cod == interp_type(
                    model.grounds, typecheck(model.sig, c, u)
                )


def test_interp_ill_typed_builtin_raises(pcs):
    ctx = (("x", N),)
    for fn in (DProj(0), ProdProj(0)):
        with pytest.raises((pm.ShapeError, TypeCheckError)):
            interp_term(pcs, ctx, App(fn, (), (Var("x"),)))


def test_interp_multiset_empty_singleton(pcs):
    ctx = (("x", N),)
    zero = interp_multiset(pcs, ctx, TermMultiset([]), N)
    assert zero == pm.zero(interp_ctx(pcs, ctx), pcs.grounds["N"])
    single = interp_multiset(pcs, ctx, TermMultiset([Var("x")]), N)
    assert single == interp_term(pcs, ctx, Var("x"))


def test_interp_rule6_contractum_matches_theta(pcs):
    # [pi1 pi0 u, pi0 pi1 u] sums to pi1 . theta_1 . interp(u), exactly.
    inst = pcs.inst
    ctx = (("u", d_type_n(N, 2)),)
    u = Var("u")
    members = TermMultiset(
        [
            App(DProj(1), (), (App(DProj(0), (), (u,)),)),
            App(DProj(0), (), (App(DProj(1), (), (u,)),)),
        ]
    )
    got = interp_multiset(pcs, ctx, members, d_type_n(N, 0))
    base = pcs.grounds["N"]
    theta = inst.theta(base)
    expected = pm.compose(
        pm.proj(1, base), pm.compose(theta, interp_term(pcs, ctx, u))
    )
    assert got == expected


def test_diff_theorem_variable_cases(pcs):
    ctx = (("y", N), ("x", N))
    for var in ("x", "y"):
        verdict = check_diff_theorem(pcs, ctx, Var(var), "x")
        assert verdict.holds, verdict.detail


def test_diff_theorem_on_generated_corpus_both_backends(pcs, poly):
    names = [v for v, _ in DEFAULT_CONTEXT]
    for i, (ctx, t, _) in enumerate(generate_typed_terms(25, seed=23)):
        x = names[i % len(names)]
        for model in (pcs, poly):
            verdict = check_diff_theorem(model, ctx, t, x)
            assert verdict.holds, f"{model.inst.name}: {verdict.render()}"


def test_invariance_rule_examples(pcs):
    ctx = (("x", N),)
    # pi1(iota0(x)) -> [] whose interpretation is 0.
    t = App(DProj(1), (), (App(DInj(0), (), (Var("x"),)),))
    verdict = check_invariance(pcs, ctx, t, 10)
    assert verdict.holds, verdict.detail
    # pi0(theta_1(iota0(iota0(x)))) -> [x].
    t2 = App(
        DProj(0),
        (),
        (App(Theta(1), (), (App(DInj(0), (), (App(DInj(0), (), (Var("x"),)),)),)),),
    )
    verdict2 = check_invariance(pcs, ctx, t2, 20)
    assert verdict2.holds, verdict2.detail


def test_invariance_on_generated_corpus(pcs):
    for ctx, t, _ in generate_typed_terms(25, seed=40):
        verdict = check_invariance(pcs, ctx, t, 2000)
        assert verdict.holds, verdict.render()
        assert not verdict.fuel_exhausted


def test_invariance_detects_fuel_exhaustion(pcs):
    ctx = (("x", N),)
    t = App(
        DProj(0),
        (),
        (App(Theta(1), (), (App(DInj(0), (), (App(DInj(0), (), (Var("x"),)),)),)),),
    )
    verdict = check_invariance(pcs, ctx, t, 1)
    assert verdict.fuel_exhausted
    assert verdict.holds  # the one checked step is still semantics-preserving


def test_invariance_verdict_render_format(pcs):
    t = App(
        DProj(1),
        (),
        (App(Theta(1), (), (App(DInj(0), (), (App(DInj(0), (), (Var("x"),)),)),)),),
    )
    verdict = check_invariance(pcs, (("x", N),), t, 1)
    assert verdict.steps == 1
    assert verdict.render() == (
        "THEOREM semantic-invariance HOLDS "
        "term=pi1(theta_1(iota0(iota0(x)))) (fuel exhausted)"
    )
    violated = replace(
        verdict, holds=False, term="t", steps=2, detail="step 2: x"
    )
    assert violated.render() == (
        "THEOREM semantic-invariance VIOLATED term=t (fuel exhausted)\n"
        "  step 2: x"
    )


# ---------------------------------------------------------------------------
# Structural maps: pi and pr are polymap's shared maps, iota and theta the
# instance's.

STRUCTURAL_BUILDERS = ("identity", "proj", "sigma", "prod_proj")


def test_no_run_mutates_a_shared_structural_map(monkeypatch):
    built = {}
    for name in STRUCTURAL_BUILDERS:
        def record(*args, _name=name, _build=getattr(pm, name)):
            f = built[(_name, args)] = _build(*args)
            return f

        monkeypatch.setattr(pm, name, record)
    laws = ["laws", "--backend", "poly", "--seed", "7", "--cases", "20"]
    theorems = ["theorems", "--backend", "both", "--cases", "200", "--seed", "202"]
    assert main(laws, out=io.StringIO()) == 0
    assert main(theorems, out=io.StringIO()) == 0
    monkeypatch.undo()
    assert {name for name, _ in built} == set(STRUCTURAL_BUILDERS)
    for (name, args), f in built.items():
        build = getattr(pm, name)
        assert build(*args) is f, (name, args)
        assert f == build.__wrapped__(*args), (name, args)


def test_pi_and_pr_are_not_kept_on_the_instance_but_iota_is():
    model = default_pcs_model()
    inst = model.inst
    ctx = (("y", d_type(N)), ("p", ProductType(N, N)), ("x", N))
    before = set(inst._derived)
    for t in (
        App(DProj(0), (), (Var("y"),)),
        App(ProdProj(0), (), (Var("p"),)),
    ):
        interp_term(model, ctx, t)
    assert set(inst._derived) == before
    iota = ("inj", 0, model.grounds["N"])
    assert iota not in before
    interp_term(model, ctx, App(DInj(0), (), (Var("x"),)))
    assert iota in inst._derived


# ---------------------------------------------------------------------------
# Negative controls: each theorem check reaches VIOLATED on a broken model or
# a broken rewrite rule.

CTX_XP = (("x", N), ("p", ProductType(N, N)))


def test_diff_theorem_violated_under_corrupted_sigma():
    # d bil(x, p) / dx carries theta_1, which is built through sigma.
    model = _build_model(corrupted_sigma_instance(), truncated_nat())
    t = App(UserFn("bil"), (), (Var("x"), Var("p")))
    verdict = check_diff_theorem(model, CTX_XP, t, "x")
    assert not verdict.holds
    assert verdict.render().startswith(
        "THEOREM differential VIOLATED term=bil(x, p)\n  lhs map "
    )


def test_invariance_violated_by_a_wrong_rewrite_rule(pcs, monkeypatch):
    match_root = rewrite._match_root

    def wrong(t):  # pi1(iota0(t)) -> [t] instead of []
        hit = match_root(t)
        if hit is not None and hit[0] == "pi-iota-other":
            return hit[0], [t.args[0].args[0]]
        return hit

    monkeypatch.setattr(rewrite, "_match_root", wrong)
    t = App(DProj(1), (), (App(DInj(0), (), (Var("x"),)),))
    verdict = check_invariance(pcs, (("x", N),), t, 10)
    assert not verdict.holds and verdict.steps == 1
    assert verdict.detail == "step 1: interpretation changed at [x]"
    out = io.StringIO()
    assert main(["theorems", "--cases", "3"], out=out) == 4
    lines = out.getvalue().splitlines()
    assert any(
        line.startswith("[pcs] THEOREM semantic-invariance VIOLATED ")
        for line in lines
    )
    assert lines[-1] == "checked 3 terms: violations found"


class _NothingSums(PcsInstance):
    def family_sum(self, maps, dom, cod, expected=None):
        return None


def test_invariance_violated_when_a_step_is_not_summable():
    model = _build_model(_NothingSums(), truncated_nat())
    x, p = Var("x"), Var("p")

    def iota0(t):
        return App(DInj(0), (), (t,))

    def pr(i):
        return iota0(App(ProdProj(i), (), (p,)))

    inner = App(UserFn("bil"), (1, 0), (iota0(x), Pair(pr(0), pr(1))))
    t = App(DProj(1), (), (App(Theta(1), (), (inner,)),))
    verdict = check_invariance(model, CTX_XP, t, 50)
    assert not verdict.holds and verdict.steps == 1
    assert verdict.detail.startswith("step 1: multiset [pi0(pi1(bil^[1,0](")
    assert verdict.detail.endswith("] is not summable")


def test_model_validation_rejects_non_multilinear(pcs):
    inst = pcs.inst
    base = pcs.grounds["N"]
    sig = Signature({"f": FunctionType((N, N), N)})
    nn = product(base, base)
    diag = pm.PolyMap(
        nn, base, {(pm.mono(["L.0", "L.0"]), "0"): F(1, 2)}
    )
    with pytest.raises(ModelError):
        Model(inst, {"N": base}, sig, {"f": diag})


def test_model_validation_rejects_wrong_domain(pcs):
    inst = pcs.inst
    base = pcs.grounds["N"]
    sig = Signature({"f": FunctionType((N,), N)})
    wrong = pm.identity(d_space(base))
    with pytest.raises(ModelError):
        Model(inst, {"N": base}, sig, {"f": wrong})


def test_backend_parametric_interpretation(pcs, poly):
    # The same law-equality holds for the same term in both backends.
    ctx = (("x", N), ("p", ProductType(N, N)))
    t = App(UserFn("bil"), (), (Var("x"), Var("p")))
    for model in (pcs, poly):
        f = interp_term(model, ctx, t)
        lhs = pm.compose(pm.proj(0, f.cod), pm.differential(f))
        rhs = pm.compose(f, pm.proj(0, f.dom))
        assert lhs == rhs


def test_interp_cache_reproducible(pcs):
    ctx = (("x", N), ("p", ProductType(N, N)))
    t = App(UserFn("bil"), (1, 0, 1), (
        App(DInj(0), (), (Var("x"),)),
        App(DInj(0), (0,), (App(DInj(1), (), (Var("p"),)),)),
    ))
    first = interp_term(pcs, ctx, t)
    pcs._cache.clear()
    assert interp_term(pcs, ctx, t) == first


def test_blocked_pair_split_redex_keeps_invariance(pcs):
    # Splitting a pair component into a 2-element multiset is unsound: the
    # untouched component would have to be summable with itself.  The
    # strategy therefore blocks that redex, and the naive contractum is
    # indeed not summable in the probabilistic model.
    ctx = (("v", d_type_n(N, 2)), ("z", N))
    inner = App(DProj(1), (), (App(Theta(1), (), (Var("v"),)),))
    t = Pair(inner, Var("z"))
    # blocked, hence normal for the strategy
    assert list(rewrite.steps(TermMultiset([t]))) == []
    verdict = check_invariance(pcs, ctx, t, 50)
    assert verdict.holds and verdict.steps == 0

    naive = TermMultiset(
        [
            Pair(App(DProj(1), (), (App(DProj(0), (), (Var("v"),)),)), Var("z")),
            Pair(App(DProj(0), (), (App(DProj(1), (), (Var("v"),)),)), Var("z")),
        ]
    )
    ty = ProductType(N, N)
    assert interp_multiset(pcs, ctx, naive, ty) is None  # not C-summable


def test_poly_constant_is_a_map_out_of_the_empty_product(poly):
    base = poly.grounds["N"]
    k = pm.PolyMap(prodn([]), base, {((), "1"): F(1, 2)})
    sig = Signature({**poly.sig.decls, "k": FunctionType((), N)})
    model = Model(poly.inst, poly.grounds, sig, {**poly.symbols, "k": k})
    ctx = (("x", N), ("p", ProductType(N, N)))
    got = interp_term(model, ctx, App(UserFn("k")))
    assert got == pm.PolyMap(interp_ctx(model, ctx), base, {((), "1"): F(1, 2)})
    succ = interp_term(model, ctx, App(UserFn("lin"), (), (App(UserFn("k")),)))
    assert succ == pm.PolyMap(interp_ctx(model, ctx), base, {((), "0"): F(1, 2)})


def _interpret_corpus(models, cases):
    """Each case's map, or its DegreeCapError text, on each model, computed
    afresh: the model's cache and the application memo start empty."""
    out = []
    for model in models:
        model._cache.clear()
        model._tails.clear()
        for ctx, t in cases:
            out.append(_map_or_cap(model, ctx, t))
        model._cache.clear()
        model._tails.clear()
    return out


def _map_or_cap(model, ctx, t):
    try:
        return interp_term(model, ctx, t)
    except pm.DegreeCapError as exc:
        return str(exc)


def _acceptance_cases():
    """The acceptance corpus (seed 202), each term followed by its derivative."""
    names = [v for v, _ in DEFAULT_CONTEXT]
    cases = []
    for i, (ctx, t, _) in enumerate(generate_typed_terms(200, seed=202)):
        x = names[i % len(names)]
        dctx = tuple((v, d_type(ty) if v == x else ty) for v, ty in ctx)
        cases += [(ctx, t), (dctx, differentiate(t, x))]
    return cases


@pytest.mark.parametrize("cap", [pm.DEGREE_CAP, 3])
def test_heads_lifted_within_the_pairings_reach_give_the_same_maps(
    pcs, poly, monkeypatch, cap
):
    cases = _acceptance_cases()
    monkeypatch.setattr(pm, "DEGREE_CAP", cap)
    pruned = _interpret_corpus((pcs, poly), cases)
    full_head = Instance.partial_derivative
    monkeypatch.setattr(
        Instance,
        "partial_derivative",
        lambda self, f, arity, word, reach=None: full_head(self, f, arity, word),
    )
    assert _interpret_corpus((pcs, poly), cases) == pruned
    capped = sum(isinstance(r, str) for r in pruned)
    assert (capped > 0) == (cap == 3)


def test_memoized_applications_give_the_maps_computed_afresh(pcs, poly):
    # One memo serves pcs and then poly; the reference clears it before
    # every term.  The two backends interpret every case alike.
    cases = _acceptance_cases()
    assert pcs._tails is poly._tails
    pcs._tails.clear()
    shared = []
    for model in (pcs, poly):
        model._cache.clear()
        shared.append([_map_or_cap(model, ctx, t) for ctx, t in cases])
        model._cache.clear()
    fresh = [
        [got for case in cases for got in _interpret_corpus((model,), [case])]
        for model in (pcs, poly)
    ]
    assert shared == fresh
    assert shared[0] == shared[1]


def test_the_memo_keeps_every_tail_while_its_models_live(monkeypatch):
    model = default_pcs_model()
    cases = _acceptance_cases()
    first = [interp_term(model, ctx, t) for ctx, t in cases]
    model._cache.clear()
    compose, calls = pm.compose, []
    monkeypatch.setattr(
        pm, "compose", lambda f, g: calls.append(1) or compose(f, g)
    )
    assert [interp_term(model, ctx, t) for ctx, t in cases] == first
    assert len(calls) == 0


def test_typecheck_types_each_application_once_per_context(monkeypatch):
    # The acceptance corpus through both theorems: every (ctx, node) that
    # reaches _check_app is typed once and then read from the memo.
    model = default_pcs_model()
    check_app, seen = syntax._check_app, {}

    def counted(sig, ctx, t):
        key = (id(sig), ctx, t)
        seen[key] = seen.get(key, 0) + 1
        return check_app(sig, ctx, t)

    monkeypatch.setattr(syntax, "_check_app", counted)
    names = [v for v, _ in DEFAULT_CONTEXT]
    for i, (ctx, t, _) in enumerate(generate_typed_terms(200, seed=202)):
        assert check_diff_theorem(model, ctx, t, names[i % len(names)]).holds
        assert check_invariance(model, ctx, t).holds
    assert len(seen) > 1000
    assert max(seen.values()) == 1


def test_the_poly_pass_adds_nothing_to_the_memo(monkeypatch):
    # In theorems --backend both, each term is interpreted on pcs first; the
    # poly pass finds every tail and reference derivative already there, so
    # it lifts no head and grows no memo.
    sizes = {"pcs": [], "poly": []}
    lifts = {"pcs": 0, "poly": 0}
    check, lift = cli.check_diff_theorem, Instance.partial_derivative

    def counted(self, *args):
        lifts[self.name] += 1
        return lift(self, *args)

    def sized(model, ctx, t, x):
        before = len(model._tails)
        verdict = check(model, ctx, t, x)
        sizes[model.inst.name].append(len(model._tails) - before)
        return verdict

    monkeypatch.setattr(cli, "check_diff_theorem", sized)
    monkeypatch.setattr(Instance, "partial_derivative", counted)
    out = io.StringIO()
    args = ["theorems", "--backend", "both", "--cases", "200", "--seed", "202"]
    assert main(args, out=out) == 0
    assert len(sizes["poly"]) == 200 and not any(sizes["poly"])
    assert lifts["poly"] == 0
    assert sum(sizes["pcs"]) > 0 and lifts["pcs"] > 0


def test_the_memo_goes_with_the_last_of_its_models():
    # In a fresh interpreter: here the module's fixtures keep a memo alive.
    script = """
import weakref
from cohdiff.gen import default_pcs_model, default_poly_model, generate_typed_terms
from cohdiff.semantics import interp_term
pcs, poly = default_pcs_model(), default_poly_model()
assert pcs._tails is poly._tails
ctx, t, _ = next(generate_typed_terms(1, seed=202))
for model in (pcs, poly):
    interp_term(model, ctx, t)
assert pcs._tails
tails = weakref.ref(pcs._tails)
del pcs, poly, model
assert tails() is None
assert not default_pcs_model()._tails
"""
    env = {**os.environ, "PYTHONPATH": str(Path(cohdiff.__file__).parent.parent)}
    result = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr


def test_a_map_memoized_under_one_cap_is_not_served_under_a_lower_one(
    pcs, monkeypatch
):
    # tri(tri(x, x, x), x, x) has degree 5; its inner application degree 3.
    x = Var("x")
    inner = App(UserFn("tri"), (), (x, x, x))
    t = App(UserFn("tri"), (), (inner, x, x))
    ctx = (("x", N),)
    pcs._cache.clear()
    assert interp_term(pcs, ctx, t).max_degree() == 5
    pcs._cache.clear()
    monkeypatch.setattr(pm, "DEGREE_CAP", 3)
    with pytest.raises(pm.DegreeCapError, match="degree 5 exceeds cap 3"):
        interp_term(pcs, ctx, t)
    pcs._cache.clear()


# ---------------------------------------------------------------------------
# Reduction oracle: every step rewrite.steps lists, not only the first one
# normalize takes, ends in normal forms that sum to interp(t).

ORACLE_STATES = 2_000


def _normal_forms(t, bound):
    """The normal forms reachable from [t], over at most bound multisets,
    and whether some multiset had a choice of two or more steps."""
    start = TermMultiset([t])
    seen, todo, normal, branched = {start}, [start], [], False
    while todo and len(seen) < bound:
        ms = todo.pop()
        nexts = [new for new, _, _ in rewrite.steps(ms)]
        if not nexts:
            normal.append(ms)
        branched = branched or len(nexts) > 1
        for n in nexts:
            if n not in seen:
                seen.add(n)
                todo.append(n)
    return normal, branched


def test_every_reduction_route_preserves_the_interpretation(pcs, poly):
    branched_terms = 0
    for ctx, t, _ in generate_typed_terms(200, seed=202):
        normal, branched = _normal_forms(t, ORACLE_STATES)
        assert normal, t
        branched_terms += branched
        for model in (pcs, poly):
            base = interp_term(model, ctx, t)
            for ms in normal:
                total = pm.zero(base.dom, base.cod)
                for member in ms.terms():
                    total = pm.add(total, interp_term(model, ctx, member))
                assert total == base, (model.inst.name, t, ms.render())
    assert branched_terms  # the oracle saw more than the one route


# ---------------------------------------------------------------------------
# Layering: the shared modules know no backend, generator or front-end.

SHARED = ["objects", "polymap", "ccdc", "syntax", "parser", "rewrite", "semantics"]


def _package_imports(module):
    """The cohdiff modules a source file imports, anywhere in it."""
    tree = ast.parse((Path(cohdiff.__file__).parent / f"{module}.py").read_text())
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            dotted = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = ".".join(filter(None, ["cohdiff" * bool(node.level), node.module]))
            dotted = [f"{base}.{alias.name}" for alias in node.names]
        else:
            continue
        for name in dotted:
            parts = name.split(".")
            if parts[0] == "cohdiff" and len(parts) > 1:
                names.add(parts[1])
    return names


@pytest.mark.parametrize("module", SHARED)
def test_shared_modules_import_no_backend(module):
    assert not _package_imports(module) & {"pcs", "poly", "gen", "cli"}
