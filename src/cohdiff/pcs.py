"""Finite probabilistic coherence spaces and analytic morphisms.

A finite PCS is a ground space with a finite predual of non-negative
rational vectors; membership of a point x is sup over the predual of
<x, x'> <= 1.  Composite spaces test membership recursively: a product
componentwise, and a D-space via pi0(z) + pi1(z).  Analytic morphisms are
the shared sparse matrices with positive coefficients, evaluated as power
series.

PcsInstance is ccdc.Instance with two differences: a pair or family is
summable only when its pointwise sum certifies as a morphism, and the
terminal object (the empty web) carries one empty predual row, so that it
is a valid PCS.

Whether an arbitrary non-negative matrix is a morphism is a sup of a
posynomial over a polytope and is not decided here.  Certification is exact
when the candidate equals a compositionally known morphism, and otherwise a
documented semi-decision: evaluate at a deterministic probe set (zero, the
per-coordinate suprema, seeded boundary and interior rationals) and check
membership of each result.  A probe failure refutes exactly; survival
certifies.

Model files are read with the program tokenizer (parse_model_file), so their
errors carry line:col, and turned into certified matrices by
build_symbol_matrix, whose faults carry the line:col of their entry.
"""

from __future__ import annotations

import hashlib
import random
from fractions import Fraction
from typing import Optional, Sequence

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
    peel_product,
    prodn,
    slot_of,
    untag_d,
    web,
)
from .parser import ParseError, _Parser, tokenize
from .polymap import PolyMap

_ZERO = Fraction(0)
_ONE = Fraction(1)


class ModelError(Exception):
    """A model failed validation: a PCS object, an interpretation, or the
    assignment of objects and matrices to a signature."""


def validate_space(space: Space) -> None:
    """Enforce the finite-PCS invariants on every ground leaf."""
    if isinstance(space, Ground):
        if not space.predual:
            raise ModelError(f"ground space {space.name!r} has an empty predual")
        for row in space.predual:
            if len(row) != len(space.web):
                raise ModelError(
                    f"predual row of {space.name!r} has wrong length"
                )
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
        return
    if isinstance(space, Prod):
        validate_space(space.left)
        validate_space(space.right)
        return
    validate_space(space.inner)


def _split_prod(vec: dict) -> tuple[dict, dict]:
    left: dict = {}
    right: dict = {}
    for a, c in vec.items():
        side, inner = a
        (left if side == "L" else right)[inner] = c
    return left, right


def _fold_d(vec: dict) -> dict:
    """pi0(z) + pi1(z) on a D-space vector."""
    out: dict = {}
    for a, c in vec.items():
        _, inner = untag_d(a)
        out[inner] = out.get(inner, _ZERO) + c
    return out


def sup_norm(space: Space, vec: dict) -> Fraction:
    """sup over the (structural) predual of <vec, x'>; membership is <= 1."""
    if isinstance(space, Ground):
        index = {a: i for i, a in enumerate(space.web)}
        best = _ZERO
        for row in space.predual:
            val = sum((row[index[a]] * c for a, c in vec.items()), _ZERO)
            if val > best:
                best = val
        return best
    if isinstance(space, Prod):
        left, right = _split_prod(vec)
        return max(sup_norm(space.left, left), sup_norm(space.right, right))
    return sup_norm(space.inner, _fold_d(vec))


def membership(space: Space, vec: dict) -> bool:
    """Exact test that a non-negative vector lies in the space."""
    known = set(web(space))
    for a, c in vec.items():
        if a not in known:
            raise ModelError(f"atom {a!r} outside the web")
        if c < 0:
            raise ModelError(f"negative coordinate at {a!r}")
    return sup_norm(space, vec) <= 1


def coord_sup(space: Space, atom: Atom) -> Fraction:
    """sup of a single coordinate over the space (finite by validation)."""
    if isinstance(space, Ground):
        idx = space.web.index(atom)
        best = max(row[idx] for row in space.predual)
        return _ONE / best
    if isinstance(space, Prod):
        side, inner = atom
        return coord_sup(space.left if side == "L" else space.right, inner)
    _, inner = untag_d(atom)
    return coord_sup(space.inner, inner)


def probe_points(space: Space) -> list[dict]:
    """Deterministic probe set: zero, coordinate suprema, and six rounds of
    rationals seeded by the space's fingerprint."""
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
    return points


class PcsInstance(Instance):
    """Analytic morphisms between finite PCSs, with partial sums."""

    name = "pcs"

    def __init__(self):
        super().__init__()
        self._probes: dict = {}

    def terminal(self) -> Space:
        return Ground("top", (), ((),))

    def probes(self, space: Space) -> list[dict]:
        if space not in self._probes:
            self._probes[space] = probe_points(space)
        return self._probes[space]

    def certify(self, candidate: PolyMap,
                expected: Optional[PolyMap] = None) -> bool:
        """Exact when compared against a known morphism, else probe-based."""
        if expected is not None and candidate == expected:
            return True
        if any(c < 0 for c in candidate.entries.values()):
            return False
        for x in self.probes(candidate.dom):
            if not membership(candidate.cod, candidate.eval(x)):
                return False
        return True

    def pair_witness(self, f0: PolyMap, f1: PolyMap) -> Optional[PolyMap]:
        w = super().pair_witness(f0, f1)
        return w if self.certify(pm.add(f0, f1)) else None

    def family_sum(self, maps: Sequence[PolyMap], dom: Space, cod: Space,
                   expected: Optional[PolyMap] = None) -> Optional[PolyMap]:
        """Coefficients are non-negative, so a family is summable exactly
        when its pointwise total is a morphism; partial sums are dominated."""
        total = super().family_sum(maps, dom, cod)
        return total if self.certify(total, expected) else None


def is_linear(f: PolyMap) -> bool:
    """Support shape: every monomial is a single atom."""
    return all(len(m) == 1 for m, _ in f.entries)


def is_multilinear(f: PolyMap, arity: int) -> bool:
    """One atom from each argument slot in every monomial."""
    peel_product(f.dom, arity)  # raises if the domain is not such a product
    for m, _ in f.entries:
        if len(m) != arity:
            return False
        slots = sorted(slot_of(a, arity) for a in m)
        if slots != list(range(arity)):
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


def _parse_rational(text: str) -> Fraction:
    text = text.strip()
    try:
        if "/" in text:
            num, den = text.split("/")
            return Fraction(int(num), int(den))
        return Fraction(int(text))
    except (ValueError, ZeroDivisionError) as exc:
        raise ModelError(f"bad rational {text!r}: {exc}") from None


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
        self.interps: dict[str, list[tuple[tuple[str, ...], str, Fraction]]] = {}
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

    def parse_rational(self) -> Fraction:
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
    entries: list[tuple[tuple[str, ...], str, Fraction]],
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
    dom = prodn(slots) if slots else inst.terminal()
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
            raise fault(pos, f"duplicate entry {key}")
        matrix[key] = coeff
    result = PolyMap(dom, cod, matrix)
    if not inst.certify(result):
        raise ModelError(f"{header[0]}:{header[1]}: interp {name!r} escapes "
                         "the codomain on a probe")
    return result
