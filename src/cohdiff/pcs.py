"""Finite probabilistic coherence spaces and analytic morphisms.

A finite PCS is a ground space with a finite predual of non-negative
rational vectors; membership of a point x is sup over the predual of
<x, x'> <= 1.  Composite spaces have a structural predual (functionals): a
product the union of its two sides' rows, and a D-space each inner row on
both D tags, i.e. pi0(z) + pi1(z) in the inner space.  Analytic morphisms
are the shared sparse matrices with positive coefficients, evaluated as
power series.

PcsInstance is ccdc.Instance with one difference, certify(candidate): a
pair is summable only when its witness <f0, f1> : X -> DY certifies as a
morphism, which, since functionals(DY) puts each row of Y on both D tags,
is the test of f0 + f1 for non-negative maps; a family only when its
pointwise total certifies.  A total equal to a compositionally known
morphism is decided before certify, in Instance.family_sum, on every
backend.

certify reads a candidate f off the codomain's rows pulled back along it
once (pulled_rows): q_r = sum over b of r_b f_b for each row r of
functionals(cod), as int numerators over one denominator, and f(x) lies in
the codomain exactly when q_r(x) <= 1 for every r.  It is exact over a
domain whose ground spaces are enumerable (_VERTEX_BASES) for two kinds of
candidate.  The domain splits into blocks (_layout), the atoms under one
L/R path: D^k of a ground leaf G, whose points spread a point of G over
the 2^k D-tag chains.
- An affine f is a morphism exactly when the constant of each q_r plus the
  sup over the domain of its linear part is at most 1; the sup (space_sup)
  folds each atom to its max over the D tags, then adds up one max over
  G's vertices per block.
- A block-multilinear f, each monomial reading each block at most once, is
  affine in each block, so it is a morphism exactly when it maps every
  product of block vertices into the codomain (vertex_points), checked when
  there are at most _VERTEX_PRODUCTS of them.  Model-file symbols are
  multilinear, so loading one is exact within these caps.

Everything else is a documented semi-decision: a candidate of degree >= 2
that reads a block twice or has too many vertex products, and any
candidate over a ground space too large to enumerate.  It is checked at a
deterministic probe set (zero, the per-coordinate suprema, seeded
boundary and interior rationals).  A probe failure refutes exactly;
survival certifies.

Predual rows, vertex coordinates and probe points are ints when integral,
as map coefficients are, and a point meets the q_r as int numerators over
one denominator (_scaled); the vertex enumeration divides Fractions, never
ints.

Model files are read with the program tokenizer (parse_model_file), so their
errors carry line:col, and turned into certified matrices by
build_symbol_matrix, whose faults carry the line:col of their entry.

Only what is particular to PCSs lives here: the model checks and ModelError
(semantics) and multilinearity (polymap) serve every backend.
"""

from __future__ import annotations

import hashlib
import random
import re
from fractions import Fraction
from functools import lru_cache
from itertools import chain, combinations, product
from math import comb, lcm
from typing import Optional

from . import polymap as pm
from .ccdc import Instance
from .objects import (
    Atom,
    Ground,
    Prod,
    Space,
    atom_from_str,
    embed_slot,
    fingerprint,
    prodn,
    tag_d,
    web,
)
from .parser import ParseError, _Parser, tokenize
from .polymap import PolyMap
from .semantics import ModelError

_ONE = Fraction(1)


def validate_space(space: Ground) -> None:
    """Enforce the finite-PCS invariants on a ground space."""
    if not space.predual:
        raise ModelError(f"ground space {space.name!r} has an empty predual")
    for row in space.predual:
        if len(row) != len(space.web):
            raise ModelError(f"predual row of {space.name!r} has wrong length")
        if any(c < 0 for c in row):
            raise ModelError(f"negative predual entry in {space.name!r}")
    for idx, a in enumerate(space.web):
        if max((row[idx] for row in space.predual), default=0) <= 0:
            raise ModelError(
                f"coordinate {a!r} of {space.name!r} is unbounded "
                "(no predual vector is positive there)"
            )
    if len(set(space.web)) != len(space.web):
        raise ModelError(f"duplicate atoms in web of {space.name!r}")


def _num(c: Fraction) -> int | Fraction:
    """c as an int when integral (polymap's coefficient rule)."""
    return c.numerator if c.denominator == 1 else c


@lru_cache(maxsize=None)
def functionals(space: Space) -> tuple[dict, ...]:
    """The structural predual as sparse {atom: coeff} rows (shared; do not
    mutate): a ground space's predual rows, the union of a product's two
    sides' rows, and each row of a D-space's inner space placed on both D
    tags.  A point lies in the space exactly when its pairing with every row
    is at most 1."""
    if isinstance(space, Ground):
        return tuple(
            {a: _num(c) for a, c in zip(space.web, row) if c}
            for row in space.predual
        )
    if isinstance(space, Prod):
        return tuple(
            {embed_slot(side, 2, a): c for a, c in row.items()}
            for side, part in enumerate((space.left, space.right))
            for row in functionals(part)
        )
    return tuple(
        {tag_d(i, a): c for a, c in row.items() for i in (0, 1)}
        for row in functionals(space.inner)
    )


def _dot(row: dict, vec: dict) -> int | Fraction:
    """<row, vec> for sparse vectors; a coefficient 1 multiplies nothing."""
    total = 0
    for a, c in row.items():
        x = vec.get(a)
        if x:
            total += x if c == 1 else c * x
    return total


def sup_norm(space: Space, vec: dict) -> int | Fraction:
    """max over functionals(space) of <vec, row>; membership is <= 1."""
    return max((_dot(row, vec) for row in functionals(space)), default=0)


def membership(space: Space, vec: dict) -> bool:
    """Exact test that a vector lies in the space.  Callers pass a
    non-negative vector over the web: a probe's image under a non-negative
    map is one, and eval's point parser checks a point given by hand."""
    return sup_norm(space, vec) <= 1


# A ground space with more candidate bases than this, C(|web| + |predual|,
# |web|), is not enumerated; maps out of it keep the probe path.
_VERTEX_BASES = 4096

# A candidate of degree >= 2 with more products of block vertices than this
# keeps the probe path.
_VERTEX_PRODUCTS = 256


def _solve_ones(a: list[list[Fraction]]) -> Optional[list[Fraction]]:
    """The solution x of a x = (1, ..., 1) for square a, or None if a is
    singular; exact Gauss-Jordan elimination."""
    k = len(a)
    rows = [row + [_ONE] for row in a]
    for col in range(k):
        piv = next((r for r in range(col, k) if rows[r][col]), None)
        if piv is None:
            return None
        rows[col], rows[piv] = rows[piv], rows[col]
        top = rows[col]
        for r in range(k):
            if r != col and rows[r][col]:
                factor = rows[r][col] / top[col]
                rows[r] = [x - factor * y for x, y in zip(rows[r], top)]
    return [rows[i][k] / rows[i][i] for i in range(k)]


@lru_cache(maxsize=None)
def _vertices(space: Ground) -> Optional[tuple[dict, ...]]:
    """The vertices of {x >= 0, Px <= 1} as sparse points, or None when
    there are more than _VERTEX_BASES candidate bases.

    A vertex has a support S and |S| tight predual rows R whose square
    block P[R, S] is nonsingular; every such pair is tried."""
    n, m = len(space.web), len(space.predual)
    if comb(n + m, n) > _VERTEX_BASES:
        return None
    found: dict = {}
    for k in range(min(n, m) + 1):
        for cols in combinations(range(n), k):
            for rows in combinations(range(m), k):
                x = _solve_ones([[space.predual[r][j] for j in cols] for r in rows])
                if x is None or any(c < 0 for c in x):
                    continue
                if all(
                    sum(row[j] * c for j, c in zip(cols, x)) <= 1
                    for row in space.predual
                ):
                    key = tuple((space.web[j], _num(c)) for j, c in zip(cols, x) if c)
                    found[key] = None
    return tuple(dict(v) for v in found)


def _chains(depth: int) -> tuple[str, ...]:
    """The D-tag chains of length depth: "" for 0, "0." and "1." for 1."""
    chains = ("",)
    for _ in range(depth):
        chains = tuple(tag_d(i, t) for i in (0, 1) for t in chains)
    return chains


def _leaves(space: Space, prefix: str = "", depth: int = 0) -> list:
    """(prefix, depth, ground) for each ground leaf, whose atoms are the
    product prefix, a chain of depth D tags, then a web name."""
    if isinstance(space, Ground):
        return [(prefix, depth, space)]
    if isinstance(space, Prod):
        return [
            leaf
            for side, part in enumerate((space.left, space.right))
            for leaf in _leaves(part, prefix + embed_slot(side, 2, ""), depth)
        ]
    return _leaves(space.inner, prefix, depth + 1)


@lru_cache(maxsize=None)
def _layout(space: Space) -> Optional[tuple[tuple, dict]]:
    """The space's blocks (_leaves), and each atom's (block index, web
    name) (shared; do not mutate); or None when a ground leaf has too many
    candidate bases."""
    blocks = tuple(_leaves(space))
    if any(_vertices(g) is None for _, _, g in blocks):
        return None
    where = {
        prefix + t + name: (i, name)
        for i, (prefix, depth, g) in enumerate(blocks)
        for t in _chains(depth)
        for name in g.web
    }
    return blocks, where


@lru_cache(maxsize=None)
def _block_vertices(prefix: str, depth: int, ground: Ground) -> tuple[dict, ...]:
    """The vertices of a block (shared; do not mutate): a vertex of its
    ground with each coordinate on one D-tag chain, since a vertex splits
    no coordinate between two chains."""
    return tuple(
        {prefix + t + name: c for t, (name, c) in zip(pick, x.items())}
        for x in _vertices(ground)
        for pick in product(_chains(depth), repeat=len(x))
    )


def space_sup(space: Space, v: dict) -> int | Fraction:
    """sup over the points x of the space of <x, v>, for v >= 0.

    A block's points put a point of its ground on the D-tag chains, so the
    block's sup puts all of each coordinate on its heaviest chain: each atom
    is folded by (block, web name) to its max over the D tags, the block
    takes its max over the ground's vertices, and the blocks add up.
    Requires _layout(space)."""
    blocks, where = _layout(space)
    folded: dict = {}  # block index -> {web name: max weight}
    for a, c in v.items():
        i, name = where[a]
        weights = folded.setdefault(i, {})
        if c > weights.get(name, 0):
            weights[name] = c
    return sum(
        max(_dot(x, weights) for x in _vertices(blocks[i][2]))
        for i, weights in folded.items()
    )


@lru_cache(maxsize=None)
def _int_functionals(space: Space) -> tuple[tuple[dict, ...], int]:
    """functionals(space) as int numerators over one int denominator (shared)."""
    rows = functionals(space)
    den = lcm(*{c.denominator for row in rows for c in row.values()})
    if den > 1:
        rows = tuple({b: (r * den).numerator for b, r in row.items()} for row in rows)
    return rows, den


def pulled_rows(f: PolyMap) -> tuple[list[dict], int]:
    """The rows r of functionals(f.cod) that f pulls back to non-zero
    q_r = sum over b of r_b f_b, each {monomial: int numerator} over one int
    denominator den.  A non-negative f maps x into its codomain exactly when
    q_r(x) <= 1 for every r."""
    rows, d_rows = _int_functionals(f.cod)
    d_f = lcm(*{c.denominator for c in f.entries.values()})
    by_out: dict = {}  # output atom -> [(monomial, numerator)]
    for (m, b), c in f.entries.items():
        by_out.setdefault(b, []).append((m, c.numerator * (d_f // c.denominator)))
    pulled = []
    for row in rows:
        q: dict = {}
        for b, r in row.items():
            for m, c in by_out.get(b, ()):
                q[m] = q.get(m, 0) + r * c
        if q:
            pulled.append(q)
    return pulled, d_f * d_rows


def affine_morphism(f: PolyMap) -> bool:
    """Exact test that a non-negative f of degree <= 1 is a morphism: each
    pulled row is (k + <l, x>) / den, and f maps the domain into the codomain
    exactly when k + space_sup(dom, l) <= den for each.  Requires
    _layout(f.dom)."""
    rows, den = pulled_rows(f)
    for q in rows:
        lin = {m[0]: w for m, w in q.items() if m}
        if q.get((), 0) + space_sup(f.dom, lin) > den:
            return False
    return True


def _scaled(x: dict) -> tuple[dict, int]:
    """A point as int numerators X over one int denominator e, x = X / e."""
    e = lcm(*{c.denominator for c in x.values()})
    return {a: c.numerator * (e // c.denominator) for a, c in x.items()}, e


def maps_points_into(f: PolyMap, points) -> bool:
    """Whether a non-negative f maps every point (X, e) (_scaled) into its
    codomain.  At degree K, a pulled row's monomial m adds up W_m prod X_a
    e^(K - |m|), to at most den e^K; the first row above that refutes."""
    rows, den = pulled_rows(f)
    top = f.max_degree()
    terms = [[(m, w, top - len(m)) for m, w in q.items()] for q in rows]
    for x, e in points:
        powers = [e**k for k in range(top + 1)]
        for q in terms:
            total = 0
            for m, w, k in q:
                for a in m:
                    xa = x.get(a)
                    if not xa:
                        break  # an absent or zero coordinate zeroes the monomial
                    w *= xa
                else:
                    total += w * powers[k]
            if total > den * powers[top]:
                return False
    return True


def vertex_points(f: PolyMap) -> Optional[list[dict]]:
    """The products of block vertices, restricted to the atoms f reads and
    without a block's zero vertex (f is non-negative, so monotone); None
    when a monomial of f reads a block twice or there are more than
    _VERTEX_PRODUCTS products.  Requires _layout(f.dom)."""
    blocks, where = _layout(f.dom)
    read: dict = {}  # block index -> the atoms f reads there
    for m, _ in f.entries:
        owners = [where[a][0] for a in m]
        if len(set(owners)) < len(owners):
            return None
        for i, a in zip(owners, m):
            read.setdefault(i, set()).add(a)
    choices, count = [], 1
    for i, atoms in read.items():
        picks = {
            tuple(item for item in x.items() if item[0] in atoms)
            for x in _block_vertices(*blocks[i])
        }
        picks.discard(())
        count *= len(picks)
        if count > _VERTEX_PRODUCTS:
            return None
        choices.append(picks)
    return [dict(chain.from_iterable(pick)) for pick in product(*choices)]


def coord_sup(space: Space, atom: Atom) -> int | Fraction:
    """sup of a single coordinate over the space (finite by validation)."""
    return _num(_ONE / max(row.get(atom, 0) for row in functionals(space)))


@lru_cache(maxsize=None)
def probe_points(space: Space) -> tuple[dict, ...]:
    """Deterministic probe set (shared; do not mutate): zero, coordinate
    suprema, and six rounds of rationals seeded by the space's fingerprint."""
    points: list[dict] = [{}]
    for a in web(space):
        points.append({a: coord_sup(space, a)})
    digest = hashlib.sha256(f"0|{fingerprint(space)}".encode()).digest()
    rng = random.Random(int.from_bytes(digest[:8], "big"))
    atoms = web(space)
    for _ in range(6):
        raw = {
            a: Fraction(rng.randint(0, 4), rng.randint(1, 5))
            for a in atoms
            if rng.random() < 0.7
        }
        raw = {a: c for a, c in raw.items() if c > 0}
        if not raw:
            continue
        norm = sup_norm(space, raw)
        if norm > 0:
            points.append({a: _num(c / norm) for a, c in raw.items()})
            points.append({a: _num(c / (2 * norm)) for a, c in raw.items()})
    return tuple(points)


_SCALED_PROBES: dict = {}  # space -> (probe_points(space), their _scaled forms)


def _scaled_probes(space: Space) -> tuple:
    """probe_points(space) scaled (_scaled), once per result; probe_points is
    still called on every use, so each probed candidate makes one call."""
    points = probe_points(space)
    kept = _SCALED_PROBES.get(space)
    if kept is None or kept[0] is not points:
        kept = _SCALED_PROBES[space] = (points, tuple(map(_scaled, points)))
    return kept[1]


class PcsInstance(Instance):
    """Analytic morphisms between finite PCSs, with partial sums."""

    name = "pcs"

    def certify(self, candidate: PolyMap) -> bool:
        """Whether candidate maps its domain into its codomain, decided on
        the codomain rows pulled back along it once (pulled_rows).

        Exact when its domain's ground spaces are enumerable and it is
        affine (affine_morphism) or block-multilinear with few enough
        vertex products (vertex_points).  Any other candidate is tested at
        the probe points of its domain: a semi-decision."""
        if any(c < 0 for c in candidate.entries.values()):
            return False
        points = None
        if _layout(candidate.dom) is not None:
            if candidate.max_degree() <= 1:
                return affine_morphism(candidate)
            points = vertex_points(candidate)
        if points is None:
            return maps_points_into(candidate, _scaled_probes(candidate.dom))
        return maps_points_into(candidate, map(_scaled, points))


def corrupted_sigma_instance() -> PcsInstance:
    """Negative control: sigma replaced by the first projection."""

    class CorruptedInstance(PcsInstance):
        name = "pcs-corrupt-sigma"

        def sigma(self, x: Space) -> PolyMap:
            return pm.proj(0, x)

    return CorruptedInstance()


# ---------------------------------------------------------------------------
# Model files


_RATIONAL = re.compile(r"-?[0-9]+(?:/[0-9]+)?")


def _parse_rational(text: str) -> int | Fraction:
    """n or p/q in ASCII digits, p and n optionally negative, as an int when
    integral (polymap's coefficient rule)."""
    text = text.strip()
    if not _RATIONAL.fullmatch(text):
        raise ModelError(f"bad rational {text!r}")
    num, _, den = text.partition("/")
    try:
        value = Fraction(int(num), int(den or 1))
    except ZeroDivisionError:
        raise ModelError(f"zero denominator in {text!r}") from None
    return _num(value)


def _parse_atom(text: str) -> Atom:
    try:
        return atom_from_str(text)
    except ValueError as exc:
        raise ModelError(str(exc)) from None


Pos = tuple[int, int]  # line, column


class PcsModelFile:
    """Parsed model file: named ground spaces and symbol matrices.

    where[f] holds the line:col of interp f's header and of each entry, in
    the order of interps[f].
    """

    def __init__(self):
        self.spaces: dict[str, Ground] = {}
        self.interps: dict[str, list[tuple[tuple[str, ...], str, int | Fraction]]] = {}
        self.where: dict[str, tuple[Pos, list[Pos]]] = {}


class _ModelReader(_Parser):
    """Recursive descent over program tokens; see parse_model_file."""

    def parse_model(self) -> PcsModelFile:
        model = PcsModelFile()
        while self.peek().kind != "eof":
            kind = self.peek().text
            if kind not in ("object", "interp"):
                raise self.error(f"expected 'object' or 'interp', found {kind!r}")
            header = self.next()
            blocks = model.spaces if kind == "object" else model.interps
            if self.peek().text in blocks:
                raise self.error(f"{kind} {self.peek().text!r} declared twice")
            name = self.expect_kind("ident").text
            self.expect("{")
            if kind == "object":
                blocks[name] = self.parse_object_body(name)
            else:
                entries, at = self.parse_interp_body(name)
                blocks[name] = entries
                model.where[name] = ((header.line, header.col), at)
            self.expect("}")
        return model

    def parse_object_body(self, name: str) -> Ground:
        fields: dict = {}
        while self.peek().text != "}":
            key = self.peek().text
            if key not in ("web", "predual"):
                raise self.error(f"expected 'web' or 'predual', found {key!r}")
            if key in fields:
                raise self.error(f"object {name!r} has a second {key}")
            self.next()
            self.expect("=")
            self.expect("[")
            item = self.parse_web_atom if key == "web" else self.parse_row
            fields[key] = tuple(self.comma_list(item, "]", allow_empty=True))
            self.expect(";")
        for key in ("web", "predual"):
            if key not in fields:
                raise self.error(f"object {name!r} lacks a {key}")
        space = Ground(name, fields["web"], fields["predual"])
        try:
            validate_space(space)
        except ModelError as exc:
            raise self.error(str(exc)) from None
        return space

    def parse_web_atom(self) -> str:
        tok = self.peek()
        if tok.kind not in ("ident", "nat"):
            raise self.error(f"expected an atom, found {tok.text!r}")
        return self.next().text

    def parse_row(self) -> tuple[Fraction, ...]:
        self.expect("[")
        return tuple(self.comma_list(self.parse_rational, "]", allow_empty=True))

    def parse_rational(self) -> int | Fraction:
        tok = self.peek()
        text = self.expect_kind("nat").text
        if self.peek().text == "/":
            text += self.next().text + self.expect_kind("nat").text
        try:
            return _parse_rational(text)
        except ModelError as exc:
            raise ParseError(str(exc), tok.line, tok.col) from None

    def parse_path(self) -> str:
        path = self.parse_web_atom()
        while self.peek().text == ".":
            path += self.next().text + self.parse_web_atom()
        return path

    def parse_interp_body(self, name: str) -> tuple[list, list[Pos]]:
        entries, at = [], []
        while self.peek().text != "}":
            tok = self.expect("entry")
            at.append((tok.line, tok.col))
            self.expect("(")
            slot_atoms = tuple(
                self.comma_list(self.parse_path, ")", allow_empty=True)
            )
            self.expect("->")
            out = self.parse_path()
            self.expect(":")
            entries.append((slot_atoms, out, self.parse_rational()))
            self.expect(";")
        if not entries:
            raise self.error(f"interp {name!r} has no entries")
        return entries, at


def parse_model_file(text: str) -> PcsModelFile:
    """Parse object and interp blocks, with the program file's tokens.

    object N { web = [e0, e1]; predual = [[1, 1]]; }
    interp f { entry (a0, ..., an) -> b : p/q; ... }

    Web atoms are identifiers or naturals; entry atoms are dotted paths
    (L./R. for products, 0./1. for D tags) ending in a web atom, one per
    argument slot.  Every error, a repeated block or key included, is a
    ModelError that starts with line:col.
    """
    try:
        return _ModelReader(tokenize(text)).parse_model()
    except ParseError as exc:
        raise ModelError(str(exc)) from None


def build_symbol_matrix(
    inst: PcsInstance,
    slots: list[Space],
    cod: Space,
    entries: list[tuple[tuple[str, ...], str, int | Fraction]],
    name: str,
    where: tuple[Pos, list[Pos]],
) -> PolyMap:
    """Assemble a multilinear matrix from per-slot entries and validate it.

    where holds the interp's positions, as in PcsModelFile.where: a fault
    names the line:col of its entry, or of the header when the whole matrix
    escapes.
    """
    header, at = where

    def fault(pos: Pos, text: str) -> ModelError:
        return ModelError(f"{pos[0]}:{pos[1]}: interp {name!r}: {text}")

    def atom(text: str, pos: Pos) -> Atom:
        try:
            return atom_from_str(text)
        except ValueError as exc:
            raise fault(pos, str(exc)) from None

    arity = len(slots)
    dom = prodn(slots)
    matrix: dict = {}
    slot_webs = [set(web(s)) for s in slots]
    cod_web = set(web(cod))
    for (slot_atoms, out_text, coeff), pos in zip(entries, at, strict=True):
        if len(slot_atoms) != arity:
            raise fault(pos, f"entry has {len(slot_atoms)} atoms, expected {arity}")
        if coeff <= 0:
            raise fault(pos, "coefficients must be positive")
        out_atom = atom(out_text, pos)
        if out_atom not in cod_web:
            raise fault(pos, f"{out_text!r} not in codomain web")
        mono_atoms = []
        for i, text in enumerate(slot_atoms):
            slot_atom = atom(text, pos)
            if slot_atom not in slot_webs[i]:
                raise fault(pos, f"atom {text!r} not in slot {i} web")
            mono_atoms.append(embed_slot(i, arity, slot_atom))
        key = (pm.mono(mono_atoms), out_atom)
        if key in matrix:
            written = f"({', '.join(slot_atoms)}) -> {out_text}"
            raise fault(pos, f"duplicate entry {written}")
        matrix[key] = coeff
    result = PolyMap(dom, cod, matrix)
    if not inst.certify(result):
        raise ModelError(f"{header[0]}:{header[1]}: interp {name!r} escapes "
                         "the codomain")
    return result
