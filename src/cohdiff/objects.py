"""Coordinate spaces shared by both backends.

A space is a finite labelled coordinate system: a ground space carries its
atoms directly, with a finite predual that only the probabilistic backend
reads, and composite spaces arise from the binary product and from the
summable-pair construction D.  The terminal object is prodn([]), the empty
web with one empty predual row, so that it is a valid PCS.

An atom is a str, its dotted tag path: product tags "L."/"R.", then D tags
"0."/"1.", then a ground's web name, which is nonempty and holds no ".", e.g.
"L.0.e2".  A str caches its hash, so a lookup never walks the path.  Atoms
of one space share a tag path until they differ at a tag ("0" < "1" < "L" <
"R"), or end in two web names of one ground, so str order (where a "." meets
only a ".") is the tag-path order.  web() lists atoms and a monomial lists
its atoms in this order, and tag_d(0, -) keeps it, so D-tagging a sorted
monomial leaves it sorted.

D tags are pushed inside product tags, so that d_space(X & Y) and
d_space(X) & d_space(Y) are the same space with the same atoms.  Both
backends rely on this: the swap mediating D(X & Y) and DX & DY is literally
the identity matrix.

An n-fold product is a left-nested binary product, whose sides are
embed_slot(side, 2, -).  prodn, embed_slot and peel_product are the only code
that knows this layout; other modules place slot i's atoms with the cached
embed_slot(i, n, -) and read them back by its prefix embed_slot(i, n, "").

Spaces, like the types and terms of syntax, are hash-consed by one rule.
A node class is a frozen dataclass whose __slots__ are its fields, its hash,
any caches kept on the node, then __weakref__; _node makes it hash as its
stored hash, and its __new__ looks its key up in the .data of its own
weakref.WeakValueDictionary, one C call on a hit, and builds the node with
_interned only on a miss.  So equal nodes built apart are one object and
compare by identity; each keeps the hash of its field tuple, computed once,
so no dict or set order depends on interning; and a node lives as long as
something holds it, since one that nobody holds leaves its table.  Ground,
Prod and DPair hash as hash((name, web, predual)), hash((left, right)) and
hash((inner,)).  A ground space stores its predual as Fraction, whatever
rationals it was given (ints compare and hash alike), since the vertex
enumeration divides by them.  d_space and its inverse strip_d_space are
cached like web(), in unbounded caches that hold the spaces they have seen.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Union

Atom = str  # dotted path: product tags, D tags, then a web name

_D_TAGS = ("0.", "1.")
_PROD_TAGS = ("L.", "R.")


class ShapeError(Exception):
    """Domain/codomain mismatch."""


class _Ref(weakref.ref):
    """A table's reference to its node: a weakref.KeyedRef built without
    KeyedRef's Python-level constructor.  The table's callback, which drops
    the entry when the node dies, reads only .key."""

    __slots__ = ("key",)


def _stored_hash(node) -> int:
    return node._hash


def _node(cls: type) -> type:
    """Make cls hash as the hash stored in its _hash slot, and give it _put,
    the __set__ of each of its slots but __weakref__, in order; a slot's own
    __set__ skips the frozen dataclass's __setattr__, as object.__setattr__
    does, with no lookup by name."""
    cls.__hash__ = _stored_hash
    cls._put = tuple(
        getattr(cls, name).__set__ for name in cls.__slots__[:-1]
    )
    return cls


def _interned(cls: type, table: weakref.WeakValueDictionary, key, *values):
    """A new cls whose slots take values in order, kept weakly in table
    under key."""
    self = object.__new__(cls)
    for put, value in zip(cls._put, values):
        put(self, value)
    ref = _Ref(self, table._remove)
    ref.key = key
    table.data[key] = ref
    return self


_GROUNDS: weakref.WeakValueDictionary = weakref.WeakValueDictionary()
_PRODS: weakref.WeakValueDictionary = weakref.WeakValueDictionary()
_DPAIRS: weakref.WeakValueDictionary = weakref.WeakValueDictionary()


@_node
@dataclass(frozen=True, eq=False, init=False)
class Ground:
    """A named finite web; predual rows align with the web tuple order."""

    __slots__ = ("name", "web", "predual", "_hash", "__weakref__")
    name: str
    web: tuple[str, ...]
    predual: tuple[tuple[Fraction, ...], ...]

    def __new__(cls, name: str, web: tuple[str, ...], predual=()):
        if not all(web) or any("." in a for a in web):
            raise ValueError(f"web of {name!r} has an empty or dotted name")
        predual = tuple(tuple(map(Fraction, row)) for row in predual)
        key = (name, web, predual)
        ref = _GROUNDS.data.get(key)
        return (ref and ref()) or _interned(
            cls, _GROUNDS, key, name, web, predual, hash(key)
        )


@_node
@dataclass(frozen=True, eq=False, init=False)
class Prod:
    __slots__ = ("left", "right", "_hash", "__weakref__")
    left: "Space"
    right: "Space"

    def __new__(cls, left: "Space", right: "Space"):
        key = (left, right)
        ref = _PRODS.data.get(key)
        return (ref and ref()) or _interned(
            cls, _PRODS, key, left, right, hash(key)
        )


@_node
@dataclass(frozen=True, eq=False, init=False)
class DPair:
    """Space of pairs (x, u) with x + u in the inner space."""

    __slots__ = ("inner", "_hash", "__weakref__")
    inner: "Space"

    def __new__(cls, inner: "Space"):
        ref = _DPAIRS.data.get(inner)
        return (ref and ref()) or _interned(
            cls, _DPAIRS, inner, inner, hash((inner,))
        )


Space = Union[Ground, Prod, DPair]


@lru_cache(maxsize=None)
def d_space(x: Space) -> Space:
    """D on objects; distributes over products so atoms stay canonical."""
    if isinstance(x, Prod):
        return Prod(d_space(x.left), d_space(x.right))
    return DPair(x)


@lru_cache(maxsize=None)
def strip_d_space(space: Space) -> Space:
    """Inverse of d_space; a space that is not a D-space raises ShapeError."""
    if isinstance(space, DPair):
        return space.inner
    if isinstance(space, Prod):
        return Prod(strip_d_space(space.left), strip_d_space(space.right))
    raise ShapeError(f"{space_str(space)} is not a D-space")


def product(left: Space, right: Space) -> Space:
    return Prod(left, right)


# The empty product; its one predual row makes {} its one point.
_TERMINAL = Ground("top", (), ((),))


def prodn(spaces: list[Space]) -> Space:
    """Left-associated n-ary product; the empty product is the terminal
    object."""
    if not spaces:
        return _TERMINAL
    acc = spaces[0]
    for s in spaces[1:]:
        acc = Prod(acc, s)
    return acc


def peel_product(space: Space, arity: int) -> list[Space]:
    """Inverse of prodn for a known arity (left-associated)."""
    if arity < 1:
        raise ValueError("arity must be >= 1")
    slots: list[Space] = []
    for _ in range(arity - 1):
        if not isinstance(space, Prod):
            raise ValueError(f"space is not a {arity}-fold product")
        slots.append(space.right)
        space = space.left
    slots.append(space)
    slots.reverse()
    return slots


def _prod_prefix(a: Atom) -> int:
    """The length of a's leading product tags."""
    k = 0
    while a[k : k + 2] in _PROD_TAGS:
        k += 2
    return k


@lru_cache(maxsize=None)
def tag_d(i: int, a: Atom) -> Atom:
    """Prefix a D tag, pushing it under any product tags."""
    k = _prod_prefix(a)
    return a[:k] + _D_TAGS[i] + a[k:]


def untag_d(a: Atom) -> tuple[int, Atom]:
    """Strip the outermost D tag (under product tags); inverse of tag_d."""
    k = _prod_prefix(a)
    if a[k : k + 2] not in _D_TAGS:
        raise ValueError(f"atom {a!r} carries no D tag")
    return _D_TAGS.index(a[k : k + 2]), a[:k] + a[k + 2 :]


@lru_cache(maxsize=None)
def embed_slot(i: int, arity: int, atom: Atom) -> Atom:
    """Slot i's atom in prodn: an R tag unless i == 0, then L^(arity-1-i)."""
    return "L." * (arity - 1 - i) + ("R." if i else "") + atom


@lru_cache(maxsize=None)
def web(space: Space) -> tuple[Atom, ...]:
    """All atoms of a space, sorted canonically."""
    if isinstance(space, Ground):
        atoms: list[Atom] = list(space.web)
    elif isinstance(space, Prod):
        atoms = [embed_slot(0, 2, a) for a in web(space.left)]
        atoms += [embed_slot(1, 2, a) for a in web(space.right)]
    else:
        atoms = [tag_d(i, a) for i in (0, 1) for a in web(space.inner)]
    return tuple(sorted(atoms))


def atom_from_str(text: str) -> Atom:
    """Check the tags of a dotted atom, which is the atom itself."""
    parts = text.split(".")
    for k, tag in enumerate(parts[:-1]):
        if tag + "." not in _PROD_TAGS + _D_TAGS:
            raise ValueError(f"unknown atom tag {tag!r} in {'.'.join(parts[k:])!r}")
    return text


def space_str(space: Space) -> str:
    if isinstance(space, Ground):
        return space.name
    if isinstance(space, Prod):
        left = space_str(space.left)
        right = space_str(space.right)
        if isinstance(space.right, Prod):
            right = f"({right})"
        return f"{left} & {right}"
    inner = space_str(space.inner)
    if isinstance(space.inner, Prod):
        inner = f"({inner})"
    return f"D {inner}"


def fingerprint(space: Space) -> str:
    """Stable textual identity, independent of PYTHONHASHSEED."""
    if isinstance(space, Ground):
        rows = ";".join(",".join(str(c) for c in row) for row in space.predual)
        return f"G[{space.name}|{','.join(space.web)}|{rows}]"
    if isinstance(space, Prod):
        return f"P[{fingerprint(space.left)}|{fingerprint(space.right)}]"
    return f"D[{fingerprint(space.inner)}]"
