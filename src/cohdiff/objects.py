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

Spaces key the web() cache and every derived-morphism cache, and a ground
space's hash walks its predual, so each space computes its hash once, at
construction.  The value and equality are the dataclass defaults.  A ground
space stores its predual as Fraction, whatever rationals it was given (ints
compare and hash alike), since the vertex enumeration divides by them, and
equal preduals share one interned tuple, so comparing two equal grounds built
apart never compares their Fractions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from typing import Union

Atom = str  # dotted path: product tags, D tags, then a web name

_D_TAGS = ("0.", "1.")
_PROD_TAGS = ("L.", "R.")


# One predual tuple per value, so that equal grounds compare theirs by identity.
_PREDUALS: dict = {}


@dataclass(frozen=True)
class Ground:
    """A named finite web; predual rows align with the web tuple order."""

    name: str
    web: tuple[str, ...]
    predual: tuple[tuple[Fraction, ...], ...] = ()
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not all(self.web) or any("." in a for a in self.web):
            raise ValueError(f"web of {self.name!r} has an empty or dotted name")
        predual = tuple(tuple(map(Fraction, row)) for row in self.predual)
        predual = _PREDUALS.setdefault(predual, predual)
        object.__setattr__(self, "predual", predual)
        object.__setattr__(self, "_hash", hash((self.name, self.web, predual)))

    def __hash__(self) -> int:
        return self._hash


@dataclass(frozen=True)
class Prod:
    left: "Space"
    right: "Space"
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "_hash", hash((self.left, self.right)))

    def __hash__(self) -> int:
        return self._hash


@dataclass(frozen=True)
class DPair:
    """Space of pairs (x, u) with x + u in the inner space."""

    inner: "Space"
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "_hash", hash((self.inner,)))

    def __hash__(self) -> int:
        return self._hash


Space = Union[Ground, Prod, DPair]


def d_space(x: Space) -> Space:
    """D on objects; distributes over products so atoms stay canonical."""
    if isinstance(x, Prod):
        return Prod(d_space(x.left), d_space(x.right))
    return DPair(x)


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
