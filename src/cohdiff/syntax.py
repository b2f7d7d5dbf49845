"""Syntax and typing of the first-order differential term language.

Types are kept canonical: the D constructor lives on ground leaves only, so
D(A & B) is stored as DA & DB and type equality is structural.  Terms are
variables, pairs, and applications f^w(t0, ..., tn) of a function symbol
decorated with a word w over the argument positions.  The built-ins pi,
pr, iota and theta carry no type of their own: typecheck, the only code that
types a term, reads their object off the argument's type.  Each carries
strips, the D's it strips from its argument beyond the word's (1 for pi,
0 for iota and pr, n+1 for theta_n); the interpretation reads it too.

Types and terms are hash-consed by the one rule of objects, with its
helpers, as spaces are: GroundType, ProductType, Var, Pair and App each keep
one node per field tuple in a weak table of their own, so equal nodes are
one object, each hashes as its field tuple, and a term that nobody holds
leaves its table; a run's memory follows the terms it keeps, not every term
it ever built.  A term prints once: term_str and term_key are kept on the
node, and a rebuilt sub-term is the node already printed.  A type keeps its
strip_depth and the types d_type and d_type_n have built from it, so they
live only as long as the type.  typecheck keeps the type of each (context,
term) it has typed on the Signature, and declare empties that memo; a term
that fails is typed again, and raises again, on every call.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from typing import Optional, Union

from .objects import _interned, _node


class TypeCheckError(Exception):
    pass


# One table per node class.  A node's slots are its fields and its hash; a
# type's also hold its strip_depth and its d_type_n results by n, and a
# term's its term_str and term_key, which stay None until their first call.
_GROUND_TYPES: weakref.WeakValueDictionary = weakref.WeakValueDictionary()
_PRODUCT_TYPES: weakref.WeakValueDictionary = weakref.WeakValueDictionary()
_VARS: weakref.WeakValueDictionary = weakref.WeakValueDictionary()
_PAIRS: weakref.WeakValueDictionary = weakref.WeakValueDictionary()
_APPS: weakref.WeakValueDictionary = weakref.WeakValueDictionary()


# ---------------------------------------------------------------------------
# Types


@_node
@dataclass(frozen=True, eq=False, init=False)
class GroundType:
    """D^depth applied to a ground symbol."""

    __slots__ = ("depth", "symbol", "_hash", "_strip", "_shifted", "__weakref__")
    depth: int
    symbol: str

    def __new__(cls, depth: int, symbol: str):
        key = (depth, symbol)
        ref = _GROUND_TYPES.data.get(key)
        return (ref and ref()) or _interned(
            cls, _GROUND_TYPES, key, depth, symbol, hash(key), depth, {}
        )


@_node
@dataclass(frozen=True, eq=False, init=False)
class ProductType:
    __slots__ = ("left", "right", "_hash", "_strip", "_shifted", "__weakref__")
    left: "Type"
    right: "Type"

    def __new__(cls, left: "Type", right: "Type"):
        key = (left, right)
        ref = _PRODUCT_TYPES.data.get(key)
        return (ref and ref()) or _interned(
            cls, _PRODUCT_TYPES, key, left, right, hash(key),
            min(left._strip, right._strip), {},
        )


Type = Union[GroundType, ProductType]


def ground(symbol: str) -> GroundType:
    return GroundType(0, symbol)


def d_type(a: Type) -> Type:
    """D on types; raises ground depths, distributes over products."""
    return d_type_n(a, 1)


def d_type_n(a: Type, n: int) -> Type:
    """Add n to every ground depth: D^n, or for negative n the inverse of
    D^-n, which needs strip_depth(a) >= -n.  Kept on a, under n."""
    if n == 0:
        return a
    b = a._shifted.get(n)
    if b is None:
        if isinstance(a, GroundType):
            b = GroundType(a.depth + n, a.symbol)
        else:
            b = ProductType(d_type_n(a.left, n), d_type_n(a.right, n))
        a._shifted[n] = b
    return b


def strip_depth(a: Type) -> int:
    """How many times d_type can be undone; kept on the type when built."""
    return a._strip


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
    """Function-type assignment for user symbols, and the memo of the
    types typecheck has found under them."""

    def __init__(self, decls: Optional[dict[str, FunctionType]] = None):
        self.decls: dict[str, FunctionType] = dict(decls or {})
        self._typed: dict = {}

    def declare(self, name: str, ftype: FunctionType) -> None:
        self.decls[name] = ftype
        self._typed.clear()

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


@_node
@dataclass(frozen=True, eq=False, init=False)
class Var:
    __slots__ = ("name", "_hash", "_str", "_key", "__weakref__")
    name: str

    def __new__(cls, name: str):
        ref = _VARS.data.get(name)
        return (ref and ref()) or _interned(
            cls, _VARS, name, name, hash((name,)), None, None
        )


@_node
@dataclass(frozen=True, eq=False, init=False)
class Pair:
    __slots__ = ("t0", "t1", "_hash", "_str", "_key", "__weakref__")
    t0: "Term"
    t1: "Term"

    def __new__(cls, t0: "Term", t1: "Term"):
        key = (t0, t1)
        ref = _PAIRS.data.get(key)
        return (ref and ref()) or _interned(
            cls, _PAIRS, key, t0, t1, hash(key), None, None
        )


@_node
@dataclass(frozen=True, eq=False, init=False)
class App:
    __slots__ = ("fn", "word", "args", "_hash", "_str", "_key", "__weakref__")
    fn: Function
    word: tuple[int, ...]
    args: tuple["Term", ...]

    def __new__(cls, fn: Function, word: tuple[int, ...] = (),
                args: tuple["Term", ...] = ()):
        key = (fn, word, args)
        ref = _APPS.data.get(key)
        return (ref and ref()) or _interned(
            cls, _APPS, key, fn, word, args, hash(key), None, None
        )


Term = Union[Var, Pair, App]

Context = tuple[tuple[str, Type], ...]


def term_str(t: Term) -> str:
    s = t._str
    if s is not None:
        return s
    if isinstance(t, Var):
        s = t.name
    elif isinstance(t, Pair):
        s = f"<{term_str(t.t0)}, {term_str(t.t1)}>"
    else:
        sup = ""
        if t.word:
            sup = "^[" + ",".join(str(i) for i in t.word) + "]"
        args = ", ".join(term_str(a) for a in t.args)
        s = f"{fn_name(t.fn)}{sup}({args})"
    object.__setattr__(t, "_str", s)
    return s


def term_key(t: Term):
    """Total order on terms; used for canonical multisets and traces."""
    k = t._key
    if k is not None:
        return k
    if isinstance(t, Var):
        k = (0, t.name)
    elif isinstance(t, Pair):
        k = (1, term_key(t.t0), term_key(t.t1))
    else:
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
        k = (2, fk, t.word, tuple(term_key(a) for a in t.args))
    object.__setattr__(t, "_key", k)
    return k


def context_lookup(ctx: Context, name: str) -> Type:
    for var, ty in ctx:
        if var == name:
            return ty
    raise TypeCheckError(f"unbound variable {name!r}")


def typecheck(sig: Signature, ctx: Context, t: Term) -> Type:
    """The unique type of t in ctx, or a TypeCheckError describing why not.
    A type found is kept in sig's memo under (ctx, t)."""
    key = (ctx, t)
    ty = sig._typed.get(key)
    if ty is None:
        if isinstance(t, Var):
            ty = context_lookup(ctx, t.name)
        elif isinstance(t, Pair):
            ty = ProductType(typecheck(sig, ctx, t.t0), typecheck(sig, ctx, t.t1))
        else:
            ty = _check_app(sig, ctx, t)
        sig._typed[key] = ty
    return ty


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
