from hypothesis import given, strategies as st
import pytest

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
