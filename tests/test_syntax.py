import dataclasses
import gc
import weakref

from hypothesis import given, strategies as st
import pytest

from cohdiff import syntax
from cohdiff.parser import parse_program
from cohdiff.syntax import (
    App,
    UserFn,
    DInj,
    DProj,
    FunctionType,
    GroundType,
    Pair,
    ProductType,
    Signature,
    Theta,
    TypeCheckError,
    Var,
    d_type,
    d_type_n,
    differentiate,
    ground,
    strip_depth,
    term_key,
    term_str,
    type_str,
    typecheck,
)

A = ground("a")
B = ground("b")
C = ground("c")


def D(ty, n=1):
    return d_type_n(ty, n)


def test_d_type_ground():
    assert d_type(A) == GroundType(1, "a")


def test_d_type_product_distributes():
    assert d_type(ProductType(A, B)) == ProductType(D(A), D(B))


def test_d_type_mixed_depths():
    # D (D^2 a & b) = D^3 a & D b, applying both clauses by hand.
    assert d_type(ProductType(D(A, 2), B)) == ProductType(D(A, 3), D(B))


def test_d_type_strip_roundtrip():
    ty = ProductType(D(A, 2), D(B))
    assert d_type_n(d_type(ty), -1) == ty
    assert strip_depth(A) == 0


def test_typecheck_var():
    sig = Signature()
    assert typecheck(sig, (("x", A),), Var("x")) == A
    with pytest.raises(TypeCheckError):
        typecheck(sig, (("x", A),), Var("y"))


def test_typecheck_app_word():
    sig = Signature({"f": FunctionType((A, B), C)})
    ctx = (("x", D(A)), ("y", D(B)))
    t = App(UserFn("f"), (1, 0), (Var("x"), Var("y")))
    assert typecheck(sig, ctx, t) == D(C, 2)


def test_typecheck_proj_empty_word():
    sig = Signature()
    ctx = (("x", D(A)),)
    assert typecheck(sig, ctx, App(DProj(0), (), (Var("x"),))) == A


def test_typecheck_pair():
    sig = Signature()
    ctx = (("x", A), ("y", B))
    t = Pair(Var("x"), Var("y"))
    assert typecheck(sig, ctx, t) == ProductType(A, B)


def test_typecheck_reports_argument_mismatch():
    sig = Signature({"f": FunctionType((A,), C)})
    with pytest.raises(TypeCheckError) as err:
        typecheck(sig, (("x", B),), App(UserFn("f"), (), (Var("x"),)))
    assert "expected a" in str(err.value) and "got b" in str(err.value)


def test_differentiate_var_clauses():
    assert differentiate(Var("x"), "x") == Var("x")
    assert differentiate(Var("y"), "x") == App(DInj(0), (), (Var("y"),))


def test_differentiate_pair_clause():
    t = Pair(Var("x"), Var("y"))
    dt = differentiate(t, "x")
    assert dt == Pair(Var("x"), App(DInj(0), (), (Var("y"),)))


def test_differentiate_app_clause():
    t = App(UserFn("f"), (), (Var("x"), Var("y")))
    dt = differentiate(t, "x")
    inner = App(UserFn("f"), (1, 0), (Var("x"), App(DInj(0), (), (Var("y"),))))
    assert dt == App(Theta(1), (), (inner,))


def test_differentiate_constant_is_a_foreign_term():
    sig = Signature({"k": FunctionType((), A)})
    ctx = (("x", B),)
    k = App(UserFn("k"))
    dk = differentiate(k, "x")
    assert dk == App(DInj(0), (), (k,))
    assert typecheck(sig, (("x", D(B)),), dk) == d_type(typecheck(sig, ctx, k))


def test_differentiate_preserves_typing():
    sig = Signature({"f": FunctionType((A, B), C)})
    ctx = (("y", B), ("x", A))
    t = App(UserFn("f"), (), (Var("x"), Var("y")))
    ty = typecheck(sig, ctx, t)
    dctx = (("y", B), ("x", D(A)))
    assert typecheck(sig, dctx, differentiate(t, "x")) == d_type(ty)


@given(st.lists(st.integers(min_value=0, max_value=2), max_size=6))
def test_word_bookkeeping(word):
    # Appending n...1 0 raises every per-letter count by exactly one.
    n = 2
    appended = tuple(word) + tuple(range(n, -1, -1))
    for i in range(n + 1):
        assert appended.count(i) == word.count(i) + 1


def test_type_str_parenthesizes_right_products():
    ty = ProductType(ProductType(A, B), C)
    assert type_str(ty) == "a & b & c"
    ty2 = ProductType(A, ProductType(B, C))
    assert type_str(ty2) == "a & (b & c)"


def test_term_str_word_rendering():
    t = App(UserFn("f"), (1, 0), (Var("x"), Var("y")))
    assert term_str(t) == "f^[1,0](x, y)"
    assert term_str(App(DProj(0), (), (Var("x"),))) == "pi0(x)"


# Canonical-form properties on randomly built types.

types_strategy = st.recursive(
    st.tuples(
        st.integers(min_value=0, max_value=3), st.sampled_from(["a", "b"])
    ).map(lambda p: GroundType(*p)),
    lambda inner: st.tuples(inner, inner).map(lambda p: ProductType(*p)),
    max_leaves=6,
)


@given(types_strategy)
def test_d_type_distributes_over_products(ty):
    if isinstance(ty, ProductType):
        assert d_type(ty) == ProductType(d_type(ty.left), d_type(ty.right))
    assert d_type_n(d_type(ty), -1) == ty


@given(types_strategy, st.integers(min_value=0, max_value=3))
def test_d_type_iterates_depth(ty, k):
    lifted = d_type_n(ty, k)
    if isinstance(ty, GroundType):
        assert lifted == GroundType(ty.depth + k, ty.symbol)
    assert strip_depth(lifted) == strip_depth(ty) + k
    assert d_type_n(lifted, -k) == ty


def test_types_and_terms_hash_once_as_their_fields():
    def build():
        x = Var("x")
        return (
            App(UserFn("f"), (0,), (Pair(x, App(DProj(0), (), (x,))),)),
            ProductType(D(A, 2), B),
        )

    for first, second in zip(build(), build()):
        assert first == second and first is second
        assert hash(first) == hash(second)
        fields = tuple(getattr(first, f.name) for f in dataclasses.fields(first))
        assert hash(first) == hash(fields) == hash(first)
    t, _ = build()
    assert [f.name for f in dataclasses.fields(t)] == ["fn", "word", "args"]
    assert repr(Var("x")) == "Var(name='x')"
    assert repr(GroundType(1, "a")) == "GroundType(depth=1, symbol='a')"


def test_equal_nodes_built_apart_are_one_object():
    # Through every constructor path: the parser's, d_type's, differentiate's.
    assert d_type(A) is GroundType(1, "a") is D(A)
    assert d_type(ProductType(A, B)) is ProductType(D(A), D(B))
    t = App(UserFn("f"), (), (Var("x"), Var("y")))
    program = parse_program("fn f : (a, b) -> c;\nterm t [x: a, y: b] = f(x, y);\n")
    assert program.terms["t"] == ((("x", A), ("y", B)), t)
    assert program.terms["t"][1] is t
    assert differentiate(t, "x") is App(
        Theta(1),
        (),
        (App(UserFn("f"), (1, 0), (Var("x"), App(DInj(0), (), (Var("y"),)))),),
    )
    assert Var("x") is not Var("y") and Var("x") != Var("y")
    assert Pair(Var("x"), Var("y")) is not Pair(Var("y"), Var("x"))


def test_a_term_prints_once():
    x = Var("x")
    t = App(DProj(0), (0,), (Pair(x, x),))
    printed, key = term_str(t), term_key(t)
    assert printed == "pi0^[0](<x, x>)"
    assert key == (2, (0, 0), (0,), ((1, (0, "x"), (0, "x")),))
    assert term_str(t) is printed and term_key(t) is key
    # A sub-term rebuilt elsewhere is the node already printed.
    assert term_str(Pair(Var("x"), Var("x"))) is term_str(t.args[0])


def test_a_term_that_nobody_holds_leaves_its_table():
    name = "held_by_nobody"
    t = App(UserFn(name), (), (Var(name),))
    gone = weakref.ref(t)
    assert syntax._APPS[(UserFn(name), (), (Var(name),))] is t
    assert name in syntax._VARS
    del t
    gc.collect()
    assert gone() is None
    assert UserFn(name) not in {fn for fn, _, _ in syntax._APPS.keys()}
    assert name not in syntax._VARS


def test_an_ill_typed_term_raises_on_every_call():
    sig = Signature({"f": FunctionType((A,), B)})
    ctx = (("x", B),)
    t = App(UserFn("f"), (), (Var("x"),))
    for _ in range(3):
        with pytest.raises(TypeCheckError, match="argument 0 of f"):
            typecheck(sig, ctx, t)
    assert typecheck(sig, (("x", A),), t) is B


def test_declare_empties_the_typecheck_memo():
    sig = Signature({"f": FunctionType((A,), B)})
    ctx = (("x", A),)
    t = App(UserFn("f"), (), (Var("x"),))
    assert typecheck(sig, ctx, t) is B
    sig.declare("f", FunctionType((A,), C))
    assert typecheck(sig, ctx, t) is C
    sig.declare("f", FunctionType((B,), C))
    with pytest.raises(TypeCheckError):
        typecheck(sig, ctx, t)


def test_a_type_keeps_what_is_built_from_it_and_leaves_with_it():
    def build():
        # In a frame of its own, which keeps no checked value once it returns.
        a = ProductType(GroundType(2, "held_by_nobody"), B)
        da = d_type(a)
        assert d_type(a) is da is d_type_n(a, 1) and d_type_n(da, -1) is a
        assert strip_depth(a) == 0 and strip_depth(da) == 1
        assert strip_depth(d_type_n(a.left, -1)) == 1
        return weakref.ref(da)

    gone = build()
    # D a and a hold each other, as their grounds do; the first pass frees the
    # products, whose table keys held the grounds, and the second the grounds.
    gc.collect()
    gc.collect()
    assert gone() is None
    assert all(g.symbol != "held_by_nobody" for g in syntax._GROUND_TYPES.values())
