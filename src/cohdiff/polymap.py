"""Sparse power-series matrices between coordinate spaces.

A map f : X -> Y is stored as a dictionary from (monomial, output atom) to a
nonzero exact rational, where a monomial is a finite multiset over the atoms
of X (a tuple sorted in the atom order of objects).  Evaluation reads the
entry (m, b) as the coefficient of x^m in the power series for coordinate b.
Composition is formal substitution of series.

A coefficient is a plain int when it is integral and a Fraction only where a
real denominator appears.  The two compare, hash and print alike, and the
engine only adds and multiplies, so results stay exact, never float, and
integral arithmetic runs on ints.

A map is never mutated, so it hashes its content, (dom, cod, the set of its
entries), once, on first use, and keeps the hash in a slot.  The hash agrees
with ==: entries compare as dicts, whatever their insertion order, and an
integral Fraction hashes as its int.

Composition has a fast path for substitutions: when every entry of f is a
one-atom monomial with coefficient 1 and no output atom repeats (projections,
injections, the strengths and their pairings), g . f renames the
atoms of g's monomials and sums their coefficients, with no series
multiplication.  Every renamed monomial of two or more atoms is sorted again,
since a renaming need not keep the atom order (a swap of product sides, say).
Every other map takes the series path.  On both paths a monomial of g that
reads a coordinate f does not produce substitutes to 0 and is skipped first.

with_map, prod_pair and prod_proj are n-ary: they build f0 & ... & fn,
<f0, ..., fn> and pr_i out of prodn(slots) in one pass with embed_slot; the
binary forms are the case n = 2.

There is one differentiation loop, partial_differential(f, arity, i).  It
peels f's domain into its arity slots and builds the partial derivative
D_i f = Df . phi_i in one pass over f's entries: atoms of slot i are
0-tagged, the others kept, and only slot i's atoms give derivative
monomials.  Given a reach, a set of atoms of the new domain, it builds no
monomial with an atom outside the reach: compose after a map that produces
only the reach's atoms would skip exactly those monomials.
differential(f) is its one-slot case.  is_multilinear(f, arity), which
Model asks of each symbol's map, reads slots the same way, by prefix.

On the series path a monomial p = (b,) of one atom adds its coefficient
times f's series for b to the entries, with no product, and multiplies only
when that coefficient is not 1.  Every other monomial is multiplied out on
its own: its coefficient times f's series for each atom of p in turn, a
repeated atom once per copy.  The degree cap is one rule on p, checked first
on both branches.  With deg_b the largest monomial degree in f's series for
b, substituting p gives a polynomial of degree exactly d = sum of deg_b over
the atoms of p, copies included: over the rationals the top terms of nonzero
series never cancel.  compose raises DegreeCapError naming d when
d > DEGREE_CAP (16), before it multiplies anything.  It reads the module
constant at call time, so a test can lower it with monkeypatch.

A map holds no zero.  PolyMap() drops the zeros it is given; past that, an
entry is dropped only where a sum cancels to 0 (_add_to, inlined in the
compose loops and _poly_mul), so compose, add and eval copy no result
through a zero filter.

The probabilistic backend restricts coefficients to be positive; the
polynomial backend allows any nonzero rational.  Both use the same engine.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Optional

from .objects import (
    Atom,
    ShapeError,
    Space,
    d_space,
    embed_slot,
    peel_product,
    prodn,
    space_str,
    tag_d,
    web,
)

Mono = tuple  # sorted tuple of atoms, multiplicity by repetition
Entries = dict  # {(Mono, Atom): int | Fraction}

DEGREE_CAP = 16


class DegreeCapError(Exception):
    """Composition produced a monomial of degree above DEGREE_CAP."""


def mono(atoms: Iterable[Atom]) -> Mono:
    return tuple(sorted(atoms))


class PolyMap:
    """An exact sparse power-series map between two spaces."""

    __slots__ = ("dom", "cod", "entries", "_hash")

    def __init__(self, dom: Space, cod: Space, entries: Entries):
        self.dom = dom
        self.cod = cod
        self.entries = {k: v for k, v in entries.items() if v != 0}
        self._hash = None

    def __eq__(self, other) -> bool:
        if not isinstance(other, PolyMap):
            return NotImplemented
        return (
            self.dom == other.dom
            and self.cod == other.cod
            and self.entries == other.entries
        )

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self.dom, self.cod, frozenset(self.entries.items())))
        return self._hash

    def __repr__(self) -> str:
        return f"PolyMap({space_str(self.dom)} -> {space_str(self.cod)}, {len(self.entries)} entries)"

    def max_degree(self) -> int:
        return max((len(m) for m, _ in self.entries), default=0)

    def eval(self, x: dict) -> dict:
        """Evaluate the power series at a point (sparse atom -> rational)."""
        out: dict = {}
        for (m, b), c in self.entries.items():
            val = c
            for a in m:
                xa = x.get(a)
                if not xa:
                    break  # an absent or zero coordinate zeroes the monomial
                val *= xa
            else:
                _add_to(out, b, val)
        return out

    def render(self, limit: Optional[int] = None) -> str:
        lines = [f"map {space_str(self.dom)} -> {space_str(self.cod)}"]
        keys = sorted(self.entries, key=lambda k: (k[1], k[0]))
        if limit is not None:
            keys = keys[:limit]
        for m, b in keys:
            lines.append(f"  entry ({', '.join(m)}) -> {b} : {self.entries[(m, b)]}")
        return "\n".join(lines)


def _trusted(dom: Space, cod: Space, entries: Entries) -> PolyMap:
    """A map over entries that hold no zero, kept without the filter's copy."""
    f = PolyMap.__new__(PolyMap)
    f.dom, f.cod, f.entries, f._hash = dom, cod, entries, None
    return f


def identity(x: Space) -> PolyMap:
    return _trusted(x, x, {((a,), a): 1 for a in web(x)})


def zero(dom: Space, cod: Space) -> PolyMap:
    return PolyMap(dom, cod, {})


def add(f: PolyMap, g: PolyMap) -> PolyMap:
    if f.dom != g.dom or f.cod != g.cod:
        raise ShapeError("pointwise sum needs parallel maps")
    entries = dict(f.entries)
    for k, c in g.entries.items():
        _add_to(entries, k, c)
    return _trusted(f.dom, f.cod, entries)


def scale(f: PolyMap, factor: int | Fraction) -> PolyMap:
    return PolyMap(f.dom, f.cod, {k: c * factor for k, c in f.entries.items()})


def _add_to(acc: dict, key, c) -> None:
    """acc[key] += c, deleting the entry if the sum cancels to 0.  The compose
    loops and _poly_mul inline this rule."""
    prev = acc.get(key)
    if prev is not None:
        c = prev + c
        if not c:
            del acc[key]
            return
    acc[key] = c


def _poly_mul(p: dict, q: dict) -> dict:
    out: dict = {}
    for m1, c1 in p.items():
        for m2, c2 in q.items():
            m = tuple(sorted(m1 + m2)) if m1 and m2 else m1 or m2
            c = c1 * c2
            prev = out.get(m)
            if prev is not None:
                c = prev + c
                if not c:
                    del out[m]
                    continue
            out[m] = c
    return out


def compose(g: PolyMap, f: PolyMap) -> PolyMap:
    """Formal substitution: (g . f)(x) = g(f(x)), exact on coefficients."""
    if f.cod != g.dom:
        raise ShapeError(
            f"cannot compose: {space_str(g.dom)} expected, got {space_str(f.cod)}"
        )
    renaming = _substitution(f)
    if renaming is None:
        entries = _series_entries(g, f, DEGREE_CAP)
    else:
        entries = _renamed_entries(g, renaming, DEGREE_CAP)
    return _trusted(f.dom, g.cod, entries)


def _series_entries(g: PolyMap, f: PolyMap, cap: int) -> Entries:
    """The entries of g . f by substituting f's coordinate series."""
    f_polys: dict = {}  # {b: {mono: coeff}}
    for (m, b), c in f.entries.items():
        f_polys.setdefault(b, {})[m] = c
    degree = {b: max(map(len, poly)) for b, poly in f_polys.items()}
    entries: Entries = {}
    for (p, c_out), coeff in g.entries.items():
        if not all(b in degree for b in p):
            continue  # p reads a coordinate f does not produce
        d = sum([degree[b] for b in p])
        if d > cap:
            raise _cap_error(d, cap)
        if len(p) == 1:  # coeff times one series: no product to multiply out
            terms = f_polys[p[0]].items()
            if coeff != 1:
                terms = [(m, c * coeff) for m, c in terms]
        else:
            acc = {(): coeff}
            for b in p:
                acc = _poly_mul(acc, f_polys[b])
            terms = acc.items()
        for m, c in terms:
            key = (m, c_out)
            prev = entries.get(key)
            if prev is not None:
                c = prev + c
                if not c:
                    del entries[key]
                    continue
            entries[key] = c
    return entries


def _substitution(f: PolyMap) -> Optional[dict]:
    """{output atom: input atom} when f is a substitution, else None."""
    renaming: dict = {}
    for (m, b), c in f.entries.items():
        if len(m) != 1 or c != 1 or b in renaming:
            return None
        renaming[b] = m[0]
    return renaming


def _renamed_entries(g: PolyMap, renaming: dict, cap: int) -> Entries:
    """The entries of g . f for a substitution f, in the series path's order."""
    entries: Entries = {}
    for (p, c_out), coeff in g.entries.items():
        try:
            m = tuple([renaming[b] for b in p])
        except KeyError:
            continue  # p reads a coordinate f does not produce
        if len(m) > cap:
            raise _cap_error(len(m), cap)
        if len(m) > 1:
            m = tuple(sorted(m))
        key = (m, c_out)
        prev = entries.get(key)
        if prev is not None:
            coeff = prev + coeff
            if not coeff:
                del entries[key]
                continue
        entries[key] = coeff
    return entries


def _cap_error(degree: int, cap: int) -> DegreeCapError:
    return DegreeCapError(f"monomial degree {degree} exceeds cap {cap}")


def differential(f: PolyMap) -> PolyMap:
    """D on maps: Df = (f(x), sum_a m(a) x^(m-[a]) u_a) over the D-tagged webs."""
    return partial_differential(f, 1, 0)


def partial_differential(
    f: PolyMap, arity: int, i: int, reach: Optional[set] = None
) -> PolyMap:
    """D_i f : D at slot i of f's domain -> D(cod), for f out of an
    arity-fold product, its slots peeled off f.dom.

    D f . phi_i in one pass: slot i's atoms are 0-tagged and the others kept,
    and only slot i's atoms a give the 1-tagged terms m(a) x^(m-[a]) u_a.
    With reach, a set of atoms of the new domain, only the monomials whose
    atoms all lie in reach are built."""
    slots = peel_product(f.dom, arity)
    # None when the whole domain is slot i, so no atom needs the test.
    in_slot = (
        None if arity == 1
        else {embed_slot(i, arity, a) for a in web(slots[i])}
    )
    slots[i] = d_space(slots[i])
    # No key repeats: tag_d is injective, and a derivative monomial's one
    # 1-tagged atom names the atom a it came from.
    entries: Entries = {}
    for (m, b), c in f.entries.items():
        # Stays sorted: tag_d(0, -) keeps the order within slot i, and
        # atoms of different slots differ at a product tag.
        if in_slot is None:
            base = tuple([tag_d(0, a) for a in m])
        else:
            base = tuple([tag_d(0, a) if a in in_slot else a for a in m])
        lost = None  # base's one atom outside reach; two leave nothing
        if reach is not None:
            missing = [x for x in base if x not in reach]
            if len(missing) > 1:
                continue  # a derivative monomial replaces one atom of base
            lost = missing[0] if missing else None
        if lost is None:
            entries[(base, tag_d(0, b))] = c
        d_out = tag_d(1, b)
        for idx, a in enumerate(m):
            if idx and m[idx - 1] == a:
                continue  # equal atoms are adjacent; count each once
            if in_slot is not None and a not in in_slot:
                continue
            if reach is not None and (
                tag_d(1, a) not in reach or lost not in (None, base[idx])
            ):
                continue
            if len(m) == 1:
                mm = (tag_d(1, a),)
            else:
                mm = mono(base[:idx] + base[idx + 1 :] + (tag_d(1, a),))
            mult = m.count(a)
            entries[(mm, d_out)] = c * mult if mult > 1 else c
    return _trusted(prodn(slots), d_space(f.cod), entries)


def is_multilinear(f: PolyMap, arity: int) -> bool:
    """One atom from each argument slot in every monomial: sorted, its i-th
    atom starts with slot i's prefix embed_slot(i, arity, "")."""
    peel_product(f.dom, arity)  # raises if the domain is not such a product
    prefixes = [embed_slot(i, arity, "") for i in range(arity)]
    return all(
        len(m) == arity and all(map(str.startswith, m, prefixes))
        for m, _ in f.entries
    )


def proj(i: int, x: Space) -> PolyMap:
    """pi_i : DX -> X."""
    return _trusted(d_space(x), x, {((tag_d(i, a),), a): 1 for a in web(x)})


def sigma(x: Space) -> PolyMap:
    """sigma : DX -> X, the sum of the two projections."""
    entries: Entries = {}
    for a in web(x):
        entries[((tag_d(0, a),), a)] = 1
        entries[((tag_d(1, a),), a)] = 1
    return _trusted(d_space(x), x, entries)


def prod_proj(i: int, *slots: Space) -> PolyMap:
    """pr_i : prodn(slots) -> slots[i], slot i's atoms placed by embed_slot."""
    n = len(slots)
    entries = {((embed_slot(i, n, a),), a): 1 for a in web(slots[i])}
    return _trusted(prodn(list(slots)), slots[i], entries)


def prod_pair(*maps: PolyMap) -> PolyMap:
    """<f0, ..., fn> : X -> prodn(cods), slot j's outputs placed by embed_slot."""
    if len(maps) == 1:
        return maps[0]  # <f> is f: prodn([X]) is X and embed_slot(0, 1, b) is b
    dom = maps[0].dom
    if any(f.dom != dom for f in maps):
        raise ShapeError("pairing needs a common domain")
    n = len(maps)
    entries: Entries = {}
    for j, f in enumerate(maps):
        for (m, b), c in f.entries.items():
            entries[(m, embed_slot(j, n, b))] = c
    return _trusted(dom, prodn([f.cod for f in maps]), entries)


def with_map(*maps: PolyMap) -> PolyMap:
    """f0 & ... & fn acting componentwise on prodn of the domains."""
    n = len(maps)
    entries: Entries = {}
    for j, f in enumerate(maps):
        # One tag path per slot: a sorted monomial stays sorted.
        for (m, b), c in f.entries.items():
            key = (tuple([embed_slot(j, n, a) for a in m]), embed_slot(j, n, b))
            entries[key] = c
    return _trusted(
        prodn([f.dom for f in maps]), prodn([f.cod for f in maps]), entries
    )


def pair_witness_matrix(f0: PolyMap, f1: PolyMap) -> PolyMap:
    """The unique candidate witness <f0, f1> : X -> D(cod)."""
    if f0.dom != f1.dom or f0.cod != f1.cod:
        raise ShapeError("witness needs parallel maps")
    entries: Entries = {}
    for (m, b), c in f0.entries.items():
        entries[(m, tag_d(0, b))] = c
    for (m, b), c in f1.entries.items():
        entries[(m, tag_d(1, b))] = c
    return _trusted(f0.dom, d_space(f0.cod), entries)

