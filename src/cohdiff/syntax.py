"""Syntax and typing of the first-order differential term language.

Types are kept canonical: the D constructor lives on ground leaves only, so
D(A & B) is stored as DA & DB and type equality is structural.  Terms are
variables, pairs, and applications f^w(t0, ..., tn) of a function symbol
decorated with a word w over the argument positions.  The built-ins pi,
pr, iota and theta carry no type of their own: typecheck, the only code that
types a term, reads their object off the argument's type.  Each carries
strips, the D's it strips from its argument beyond the word's (1 for pi,
0 for iota and pr, n+1 for theta_n); the interpretation reads it too.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union


class TypeCheckError(Exception):
    pass


# ---------------------------------------------------------------------------
# Types


@dataclass(frozen=True)
class GroundType:
    """D^depth applied to a ground symbol."""

    depth: int
    symbol: str


@dataclass(frozen=True)
class ProductType:
    left: "Type"
    right: "Type"


Type = Union[GroundType, ProductType]


def ground(symbol: str) -> GroundType:
    return GroundType(0, symbol)


def d_type(a: Type) -> Type:
    """D on types; raises ground depths, distributes over products."""
    if isinstance(a, GroundType):
        return GroundType(a.depth + 1, a.symbol)
    return ProductType(d_type(a.left), d_type(a.right))


def d_type_n(a: Type, n: int) -> Type:
    """Add n to every ground depth: D^n, or for negative n the inverse of
    D^-n, which needs strip_depth(a) >= -n."""
    if n == 0:
        return a
    if isinstance(a, GroundType):
        return GroundType(a.depth + n, a.symbol)
    return ProductType(d_type_n(a.left, n), d_type_n(a.right, n))


def strip_depth(a: Type) -> int:
    """How many times d_type can be undone."""
    if isinstance(a, GroundType):
        return a.depth
    return min(strip_depth(a.left), strip_depth(a.right))


def type_str(a: Type) -> str:
    if isinstance(a, GroundType):
        return "D " * a.depth + a.symbol
    left = type_str(a.left)
    right = type_str(a.right)
    if isinstance(a.right, ProductType):
        right = f"({right})"
    return f"{left} & {right}"


# ---------------------------------------------------------------------------
# Functions and signatures


@dataclass(frozen=True)
class FunctionType:
    args: tuple[Type, ...]
    result: Type

    def __str__(self) -> str:
        args = ", ".join(type_str(a) for a in self.args)
        return f"({args}) -> {type_str(self.result)}"


@dataclass(frozen=True)
class UserFn:
    name: str


@dataclass(frozen=True)
class DProj:
    """pi_i : DA -> A; A is read off the argument's type."""

    i: int
    strips = 1


@dataclass(frozen=True)
class ProdProj:
    """pr_i : A & B -> A (resp. B); arity 1, not 2."""

    i: int
    strips = 0


@dataclass(frozen=True)
class DInj:
    """iota_i : A -> DA."""

    i: int
    strips = 0


@dataclass(frozen=True)
class Theta:
    """theta_n : D^(n+1) A -> DA, the n-fold monad sum."""

    n: int

    def __post_init__(self):
        if self.n < 0:
            raise ValueError("theta requires n >= 0")

    @property
    def strips(self) -> int:
        return self.n + 1


Function = Union[UserFn, DProj, ProdProj, DInj, Theta]


class Signature:
    """Function-type assignment for user symbols."""

    def __init__(self, decls: Optional[dict[str, FunctionType]] = None):
        self.decls: dict[str, FunctionType] = dict(decls or {})

    def declare(self, name: str, ftype: FunctionType) -> None:
        self.decls[name] = ftype

    def lookup(self, name: str) -> FunctionType:
        if name not in self.decls:
            raise TypeCheckError(f"unknown function symbol {name!r}")
        return self.decls[name]

    def __contains__(self, name: str) -> bool:
        return name in self.decls


def fn_name(f: Function) -> str:
    if isinstance(f, UserFn):
        return f.name
    if isinstance(f, DProj):
        return f"pi{f.i}"
    if isinstance(f, ProdProj):
        return f"pr{f.i}"
    if isinstance(f, DInj):
        return f"iota{f.i}"
    return f"theta_{f.n}"


# ---------------------------------------------------------------------------
# Terms


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Pair:
    t0: "Term"
    t1: "Term"


@dataclass(frozen=True)
class App:
    fn: Function
    word: tuple[int, ...] = ()
    args: tuple["Term", ...] = ()


Term = Union[Var, Pair, App]

Context = tuple[tuple[str, Type], ...]


def term_str(t: Term) -> str:
    if isinstance(t, Var):
        return t.name
    if isinstance(t, Pair):
        return f"<{term_str(t.t0)}, {term_str(t.t1)}>"
    name = fn_name(t.fn)
    sup = ""
    if t.word:
        sup = "^[" + ",".join(str(i) for i in t.word) + "]"
    args = ", ".join(term_str(a) for a in t.args)
    return f"{name}{sup}({args})"


def term_key(t: Term):
    """Total order on terms; used for canonical multisets and traces."""
    if isinstance(t, Var):
        return (0, t.name)
    if isinstance(t, Pair):
        return (1, term_key(t.t0), term_key(t.t1))
    f = t.fn
    if isinstance(f, DProj):
        fk = (0, f.i)
    elif isinstance(f, ProdProj):
        fk = (1, f.i)
    elif isinstance(f, DInj):
        fk = (2, f.i)
    elif isinstance(f, Theta):
        fk = (3, f.n)
    else:
        fk = (4, f.name)
    return (2, fk, t.word, tuple(term_key(a) for a in t.args))


def context_lookup(ctx: Context, name: str) -> Type:
    for var, ty in ctx:
        if var == name:
            return ty
    raise TypeCheckError(f"unbound variable {name!r}")


def typecheck(sig: Signature, ctx: Context, t: Term) -> Type:
    """The unique type of t in ctx, or a TypeCheckError describing why not."""
    if isinstance(t, Var):
        return context_lookup(ctx, t.name)
    if isinstance(t, Pair):
        return ProductType(typecheck(sig, ctx, t.t0), typecheck(sig, ctx, t.t1))
    return _check_app(sig, ctx, t)


def _expect(actual: Type, expected: Type, what: str) -> None:
    if actual != expected:
        raise TypeCheckError(
            f"{what}: expected {type_str(expected)}, got {type_str(actual)}"
        )


def _check_app(sig: Signature, ctx: Context, t: App) -> Type:
    f = t.fn
    arg_types = [typecheck(sig, ctx, a) for a in t.args]
    if isinstance(f, UserFn):
        ftype = sig.lookup(f.name)
        n = len(ftype.args)
        if len(t.args) != n:
            raise TypeCheckError(
                f"{f.name} expects {n} arguments, got {len(t.args)}"
            )
        for letter in t.word:
            if not 0 <= letter < n:
                raise TypeCheckError(
                    f"word letter {letter} out of range for arity {n}"
                )
        for i, (ai, ti) in enumerate(zip(ftype.args, arg_types)):
            expected = d_type_n(ai, t.word.count(i))
            _expect(ti, expected, f"argument {i} of {f.name}")
        return d_type_n(ftype.result, len(t.word))

    try:
        strips = f.strips
    except AttributeError:
        raise TypeCheckError(f"not a function: {f!r}") from None
    # Built-ins all have arity 1; their word is over the single letter 0.
    if len(t.args) != 1:
        raise TypeCheckError(f"{fn_name(f)} expects 1 argument, got {len(t.args)}")
    d = len(t.word)
    if t.word.count(0) != d:
        raise TypeCheckError(f"word letters of {fn_name(f)} must be 0")
    # f^(0...0) at depth d is D^d f, so its object A is the argument's type
    # with d D's and f's own stripped; the result is D^d of f's codomain on A.
    ti = arg_types[0]
    if strip_depth(ti) >= d + strips:
        if isinstance(f, DInj):
            return d_type(ti)
        if isinstance(f, DProj):
            return d_type_n(ti, -1)
        if isinstance(f, Theta):
            return d_type_n(ti, -f.n)
        if isinstance(ti, ProductType):
            return ti.left if f.i == 0 else ti.right
    is_pr = isinstance(f, ProdProj)
    if is_pr and not isinstance(ti, ProductType):
        raise TypeCheckError(
            f"{fn_name(f)} needs a product argument, got {type_str(ti)}"
        )
    raise TypeCheckError(
        f"{fn_name(f)} with word depth {d} needs an argument of shape "
        f"D^{d + strips} {'(A & B)' if is_pr else 'A'}, got {type_str(ti)}"
    )


# ---------------------------------------------------------------------------
# The syntactic differential


def differentiate(t: Term, x: str) -> Term:
    """The term d t / d x, total on well-formed terms.

    Variables: x goes to itself (now at type DA), others get iota_0.
    Pairs are differentiated componentwise.  An application f^w(...) becomes
    theta_n(f^(w n...1 0)(...)) with every argument differentiated.
    """
    if isinstance(t, Var):
        return t if t.name == x else App(DInj(0), (), (t,))
    if isinstance(t, Pair):
        return Pair(differentiate(t.t0, x), differentiate(t.t1, x))
    if not t.args:
        # Constants: theta_(-1) does not exist, and a closed application is
        # differentiated exactly like a foreign variable.
        return App(DInj(0), (), (t,))
    n = len(t.args) - 1
    new_word = t.word + tuple(range(n, -1, -1))
    new_args = tuple(differentiate(a, x) for a in t.args)
    inner = App(t.fn, new_word, new_args)
    return App(Theta(n), (), (inner,))
