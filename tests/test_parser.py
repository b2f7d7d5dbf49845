import pytest

from cohdiff.parser import ParseError, _Parser, parse_program, tokenize
from cohdiff.syntax import (
    App,
    DInj,
    DProj,
    FunctionType,
    Pair,
    ProdProj,
    ProductType,
    Theta,
    UserFn,
    Var,
    d_type_n,
    ground,
    term_str,
    typecheck,
)

A, B, C = ground("a"), ground("b"), ground("c")


def parse_term_text(text):
    """Parse a single term with the program parser's term grammar."""
    parser = _Parser(tokenize(text))
    t = parser.parse_term()
    if parser.peek().kind != "eof":
        raise parser.error("trailing input after term")
    return t


def test_fn_decl():
    prog = parse_program("fn f : (a, b) -> c;")
    assert prog.signature.lookup("f") == FunctionType((A, B), C)


def test_fn_decl_arity_zero():
    prog = parse_program("fn k : () -> a;")
    assert prog.signature.lookup("k") == FunctionType((), A)


def test_term_decl_pair():
    prog = parse_program("term t [x: a, y: b] = <x, y>;")
    ctx, t = prog.terms["t"]
    assert t == Pair(Var("x"), Var("y"))
    assert ctx == (("x", A), ("y", B))


def test_term_decl_word_app():
    prog = parse_program("fn f : (a, b) -> c;\nterm u [x: D a, y: D b] = f^[1,0](x, y);")
    ctx, t = prog.terms["u"]
    assert t == App(UserFn("f"), (1, 0), (Var("x"), Var("y")))
    assert typecheck(prog.signature, ctx, t) == d_type_n(C, 2)


def test_type_precedence_and_assoc():
    prog = parse_program("term t [x: D a & b, y: a & b & c, z: a & (b & c)] = x;")
    ctx, _ = prog.terms["t"]
    types = dict(ctx)
    assert types["x"] == ProductType(d_type_n(A, 1), B)
    assert types["y"] == ProductType(ProductType(A, B), C)
    assert types["z"] == ProductType(A, ProductType(B, C))


def test_builtin_names():
    assert parse_term_text("pi0(x)") == App(DProj(0), (), (Var("x"),))
    assert parse_term_text("pr1(x)") == App(ProdProj(1), (), (Var("x"),))
    assert parse_term_text("iota1(x)") == App(DInj(1), (), (Var("x"),))
    assert parse_term_text("theta_2(x)") == App(Theta(2), (), (Var("x"),))
    assert parse_term_text("pi0^[0,0](x)") == App(DProj(0), (0, 0), (Var("x"),))


def test_variable_vs_nullary_application():
    assert parse_term_text("f") == Var("f")
    assert parse_term_text("f()") == App(UserFn("f"), (), ())


def test_parse_error_carries_position():
    with pytest.raises(ParseError) as err:
        parse_program("fn f : (a,, b) -> c;")
    assert err.value.line == 1
    assert err.value.col == 11


def test_empty_word_and_context_rejected():
    # Argument lists may be empty; a word or a context may not.
    for text, col in [("term t [] = x;", 9), ("term t = f^[]();", 13)]:
        with pytest.raises(ParseError) as err:
            parse_program(text)
        assert (err.value.line, err.value.col) == (1, col)


def test_parse_error_bad_character():
    with pytest.raises(ParseError) as err:
        parse_program("term t = %;")
    assert "unexpected character" in str(err.value)


def test_comments_and_newlines():
    prog = parse_program(
        """
        # a signature
        fn f : (a) -> a;
        term t [x: a] = f(x);  # application
        """
    )
    assert "f" in prog.signature
    assert "t" in prog.terms


def test_reserved_fn_names_rejected():
    with pytest.raises(ParseError):
        parse_program("fn pi0 : (a) -> a;")
    with pytest.raises(ParseError):
        parse_program("fn theta_3 : (a) -> a;")


@pytest.mark.parametrize("name", ["theta_00", "theta_010"])
def test_theta_with_leading_zero_is_an_ordinary_name(name):
    prog = parse_program(f"fn {name} : (a) -> a;\nterm t [x: a] = {name}(x);")
    _, t = prog.terms["t"]
    assert t == App(UserFn(name), (), (Var("x"),))
    assert term_str(t) == f"{name}(x)"
    assert parse_term_text(term_str(t)) == t
    assert parse_term_text("theta_10(x)") == App(Theta(10), (), (Var("x"),))


def test_print_parse_roundtrip():
    text = "theta_1(f^[1,0](pi0(x), <iota0(y), pr1(z)>))"
    t = parse_term_text(text)
    assert term_str(t) == text
    assert parse_term_text(term_str(t)) == t


def test_duplicate_declarations_rejected():
    with pytest.raises(ParseError):
        parse_program("fn f : (a) -> a;\nfn f : (b) -> b;")
    with pytest.raises(ParseError):
        parse_program("term t [x: a] = x;\nterm t [x: a] = x;")
    with pytest.raises(ParseError):
        parse_program("term t [x: a, x: b] = x;")
    # The only check for a repeated context variable: interpretation and
    # typing both read a variable's first binding.
    with pytest.raises(ParseError) as err:
        parse_program("term t [x: N, x: N] = x;")
    assert "duplicate variable in the context of 't'" in str(err.value)
    assert (err.value.line, err.value.col) == (1, 21)


# Print-parse round-tripping on randomly built (unannotated) terms.

from hypothesis import given, strategies as st


def _vars():
    return st.sampled_from(["x", "y", "zed"]).map(Var)


def _apps(inner):
    words = st.lists(st.integers(min_value=0, max_value=2), max_size=3).map(tuple)

    def build(args):
        fn, word, terms = args
        return App(fn, word, tuple(terms))

    unary_fn = st.one_of(
        st.sampled_from([DProj(0), DProj(1), ProdProj(0), ProdProj(1), DInj(0), DInj(1)]),
        st.integers(min_value=0, max_value=2).map(Theta),
    )
    unary = st.tuples(
        unary_fn,
        st.lists(st.just(0), max_size=2).map(tuple),
        st.lists(inner, min_size=1, max_size=1),
    ).map(build)
    user = st.tuples(
        st.sampled_from(["f", "g"]).map(UserFn),
        words,
        st.lists(inner, min_size=3, max_size=3),
    ).map(build)
    return st.one_of(unary, user)


terms_strategy = st.recursive(
    _vars(),
    lambda inner: st.one_of(
        st.tuples(inner, inner).map(lambda p: Pair(*p)),
        _apps(inner),
    ),
    max_leaves=12,
)


@given(terms_strategy)
def test_print_parse_roundtrip_random(t):
    assert parse_term_text(term_str(t)) == t
