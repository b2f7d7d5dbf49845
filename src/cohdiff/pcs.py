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

certify is exact when every monomial has degree <= 1.  An affine
f(x) = k + Lx is a morphism exactly when <k, r> + sup_x <x, L^T r> <= 1 for
every row r of the codomain's structural predual; the sup (space_sup) is a
sum over a product, a coordinatewise max over the two D tags, and a max
over the enumerated vertices of a ground space.

Everything else is a documented semi-decision: a candidate of degree >= 2
(model-file symbols of arity >= 2 included), and an affine one whose
domain has a ground space too large to enumerate (_VERTEX_BASES).  It is
evaluated at a deterministic probe set (zero, the per-coordinate suprema,
seeded boundary and interior rationals) and each result is tested for
membership.  A probe failure refutes exactly; survival certifies.

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
from itertools import combinations
from math import comb
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
    untag_d,
    web,
)
from .parser import ParseError, _Parser, tokenize
from .polymap import PolyMap
from .semantics import ModelError

_ZERO = Fraction(0)
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
        if max((row[idx] for row in space.predual), default=_ZERO) <= 0:
            raise ModelError(
                f"coordinate {a!r} of {space.name!r} is unbounded "
                "(no predual vector is positive there)"
            )
    if len(set(space.web)) != len(space.web):
        raise ModelError(f"duplicate atoms in web of {space.name!r}")


@lru_cache(maxsize=None)
def functionals(space: Space) -> tuple[dict, ...]:
    """The structural predual as sparse {atom: coeff} rows (shared; do not
    mutate): a ground space's predual rows, the union of a product's two
    sides' rows, and each row of a D-space's inner space placed on both D
    tags.  A point lies in the space exactly when its pairing with every row
    is at most 1."""
    if isinstance(space, Ground):
        return tuple(
            {a: c for a, c in zip(space.web, row) if c} for row in space.predual
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


def sup_norm(space: Space, vec: dict) -> Fraction:
    """max over functionals(space) of <vec, row>; membership is <= 1."""
    return max(
        (
            sum((c * vec[a] for a, c in row.items() if a in vec), _ZERO)
            for row in functionals(space)
        ),
        default=_ZERO,
    )


def membership(space: Space, vec: dict) -> bool:
    """Exact test that a vector lies in the space.  Callers pass a
    non-negative vector over the web: a probe's image under a non-negative
    map is one, and eval's point parser checks a point given by hand."""
    return sup_norm(space, vec) <= 1


# A ground space with more candidate bases than this, C(|web| + |predual|,
# |web|), is not enumerated; maps out of it keep the probe path.
_VERTEX_BASES = 4096


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
                    sum((row[j] * c for j, c in zip(cols, x)), _ZERO) <= 1
                    for row in space.predual
                ):
                    found[tuple((space.web[j], c) for j, c in zip(cols, x) if c)] = None
    return tuple(dict(v) for v in found)


@lru_cache(maxsize=None)
def _enumerable(space: Space) -> bool:
    """Every ground leaf of the space has its vertices enumerated."""
    if isinstance(space, Ground):
        return _vertices(space) is not None
    if isinstance(space, Prod):
        return _enumerable(space.left) and _enumerable(space.right)
    return _enumerable(space.inner)


def space_sup(space: Space, v: dict) -> Fraction:
    """sup over the points x of the space of <x, v>, for v >= 0.

    A ground space attains it at a vertex; a product is the sum of its two
    sides' sups; a D-space puts all of x + u on the larger of the 0./1.
    coefficients, so it is the inner sup of their coordinatewise max.
    Requires _enumerable(space)."""
    if isinstance(space, Ground):
        return max(
            sum((c * v[a] for a, c in x.items() if a in v), _ZERO)
            for x in _vertices(space)
        )
    if isinstance(space, Prod):
        total = _ZERO
        for side, part in enumerate((space.left, space.right)):
            p = embed_slot(side, 2, "")
            sub = {a.removeprefix(p): c for a, c in v.items() if a.startswith(p)}
            total += space_sup(part, sub)
        return total
    folded: dict = {}
    for a, c in v.items():
        _, inner = untag_d(a)
        if c > folded.get(inner, _ZERO):
            folded[inner] = c
    return space_sup(space.inner, folded)


def affine_morphism(f: PolyMap) -> bool:
    """Exact test that a non-negative f of degree <= 1 is a morphism.

    With f(x) = k + Lx, f maps the domain into the codomain exactly when
    <k, row> + space_sup(dom, L^T row) <= 1 for every row of
    functionals(cod).  Requires _enumerable(f.dom)."""
    const: dict = {}
    lin: dict = {}  # output atom -> {input atom: coeff}
    for (m, b), c in f.entries.items():
        if m:
            lin.setdefault(b, {})[m[0]] = c
        else:
            const[b] = c
    for row in functionals(f.cod):
        pulled: dict = {}
        for b, r in row.items():
            for a, c in lin.get(b, {}).items():
                pulled[a] = pulled.get(a, _ZERO) + r * c
        offset = sum((r * const[b] for b, r in row.items() if b in const), _ZERO)
        if offset + space_sup(f.dom, pulled) > 1:
            return False
    return True


def coord_sup(space: Space, atom: Atom) -> Fraction:
    """sup of a single coordinate over the space (finite by validation)."""
    return _ONE / max(row.get(atom, _ZERO) for row in functionals(space))


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
            points.append({a: c / norm for a, c in raw.items()})
            points.append({a: c / (2 * norm) for a, c in raw.items()})
    return tuple(points)


class PcsInstance(Instance):
    """Analytic morphisms between finite PCSs, with partial sums."""

    name = "pcs"

    def certify(self, candidate: PolyMap) -> bool:
        """Whether candidate maps its domain into its codomain.

        Exact when every monomial has degree <= 1 and its domain's ground
        spaces are enumerable (affine_morphism).  Otherwise, a candidate of
        degree >= 2 or over too large a ground space, it is tested at the
        probe points of its domain: a semi-decision."""
        if any(c < 0 for c in candidate.entries.values()):
            return False
        if candidate.max_degree() <= 1 and _enumerable(candidate.dom):
            return affine_morphism(candidate)
        for x in probe_points(candidate.dom):
            if not membership(candidate.cod, candidate.eval(x)):
                return False
        return True


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
    return value.numerator if value.denominator == 1 else value


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
