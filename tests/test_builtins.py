"""Golden typing and interpretation of the built-ins pi, iota, pr and theta.

Each built-in is applied to a variable over a grid of word depths and
argument types.  A line records the term's type, or the TypeCheckError it
raises, and for a typed term the header and entry count of its
interpretation in the probabilistic model.  The polynomial model's matrix
must be the same.  Regenerate the golden file with

    PYTHONPATH=src python tests/test_builtins.py > tests/golden/builtins.txt

only when a change to the built-ins is meant to change what they type.
"""

from pathlib import Path

import pytest

from cohdiff.gen import default_pcs_model, default_poly_model
from cohdiff.parser import ParseError, parse_program
from cohdiff.semantics import interp_term
from cohdiff.syntax import (
    App,
    DInj,
    DProj,
    ProdProj,
    ProductType,
    Signature,
    Theta,
    TypeCheckError,
    Var,
    d_type_n,
    ground,
    term_str,
    type_str,
    typecheck,
)

GOLDEN = Path(__file__).resolve().parent / "golden" / "builtins.txt"

N = ground("N")
BUILTINS = [
    DProj(0), DProj(1), DInj(0), DInj(1), ProdProj(0), ProdProj(1),
    Theta(0), Theta(1), Theta(2),
]
ARG_TYPES = [
    N,
    d_type_n(N, 1),
    d_type_n(N, 2),
    d_type_n(N, 3),
    ProductType(N, N),
    d_type_n(ProductType(N, N), 1),
    ProductType(N, d_type_n(N, 1)),
]
X = Var("x")


def cases():
    """(term, argument type) pairs: the depth grid, then per built-in one
    two-argument and one letter-1 case."""
    for f in BUILTINS:
        for d in range(3):
            for ty in ARG_TYPES:
                yield App(f, (0,) * d, (X,)), ty
    for f in BUILTINS:
        yield App(f, (), (X, X)), d_type_n(N, 1)
        yield App(f, (1,), (X,)), d_type_n(N, 1)


def golden_line(sig, models, t, ty):
    ctx = (("x", ty),)
    head = f"{term_str(t)} [x: {type_str(ty)}]"
    try:
        result = typecheck(sig, ctx, t)
    except TypeCheckError as exc:
        return f"{head} ! {exc}"
    pcs, poly = (interp_term(model, ctx, t) for model in models)
    assert pcs == poly, head
    header = pcs.render().splitlines()[0]
    return f"{head} : {type_str(result)} ; {header} ; {len(pcs.entries)} entries"


def golden_lines():
    pcs, poly = default_pcs_model(), default_poly_model()
    return [golden_line(Signature(), (pcs, poly), t, ty) for t, ty in cases()]


def test_builtins_match_golden():
    assert "\n".join(golden_lines()) + "\n" == GOLDEN.read_text()


def test_head_that_is_no_function_is_a_type_error():
    with pytest.raises(TypeCheckError, match="^not a function: 'pi0'$"):
        typecheck(Signature(), (("x", N),), App("pi0", (), (X,)))


NAMES = ["pi0", "pi1", "iota0", "iota1", "pr0", "pr1",
         "theta_0", "theta_1", "theta_2"]


@pytest.mark.parametrize("name, f", zip(NAMES, BUILTINS), ids=NAMES)
def test_reserved_name_parses_prints_back_and_is_no_fn_name(name, f):
    prog = parse_program(f"term t [x: D D D N] = {name}(x);")
    _, t = prog.terms["t"]
    assert t == App(f, (), (X,))
    assert term_str(t) == f"{name}(x)"
    with pytest.raises(ParseError, match="reserved function name"):
        parse_program(f"fn {name} : (N) -> N;")


if __name__ == "__main__":
    print("\n".join(golden_lines()))
