"""The total-sum instance: multivariate polynomial maps.

PolyInstance is ccdc.Instance as it stands, under its own name: every pair
of parallel maps is summable (hom-sets are commutative monoids), which
makes this the cartesian-differential-category end of the correspondence.  The differential combinator d sends f : X -> Y to
d f : X & X -> Y, the directional derivative with the base point in the
left factor; Df = <f . pi0, d f> up to the relabelling between the product
tags of X & X and the D tags of DX.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Sequence

from . import polymap as pm
from .ccdc import Instance
from .objects import Atom, Ground, Space, product, tag_prod, untag_d, web
from .polymap import PolyMap


class PolyInstance(Instance):
    """Sums always defined: the carrier of a cartesian differential category."""

    name = "poly"


def poly_ground(name: str, dimension: int) -> Ground:
    """A polynomial object with coordinates x0 ... x(dimension-1)."""
    return Ground(name, tuple(f"x{i}" for i in range(dimension)), ())


def ground_like(space: Ground) -> Ground:
    """The same web without a predual, for reuse across backends."""
    return Ground(space.name, space.web, ())


def _retag_d_to_prod(a: Atom) -> Atom:
    """Relabel the outer D tag of an atom of DX as a product tag of X & X."""
    i, inner = untag_d(a)
    return tag_prod(i, inner)


def d_combinator(f: PolyMap) -> PolyMap:
    """d f : X & X -> Y, base point left, direction right.

    This is the second component of Df transported along the canonical
    relabelling web(DX) = web(X & X).
    """
    derivative = pm.compose(pm.proj(1, f.cod), pm.differential(f))
    entries = {}
    for (m, b), c in derivative.entries.items():
        entries[(pm.mono(_retag_d_to_prod(a) for a in m), b)] = c
    return PolyMap(product(f.dom, f.dom), f.cod, entries)


def is_additive(f: PolyMap) -> bool:
    """h . 0 = 0 and h pi0 + h pi1 = h sigma, with pi = pr on X & X."""
    x = f.dom
    if pm.compose(f, pm.zero(x, x)) != pm.zero(x, f.cod):
        return False
    pr0 = pm.prod_proj(0, x, x)
    pr1 = pm.prod_proj(1, x, x)
    both = pm.add(pm.compose(f, pr0), pm.compose(f, pr1))
    diag = pm.add(pr0, pr1)
    return both == pm.compose(f, diag)


def is_linear(f: PolyMap) -> bool:
    """Additive and equal to its own derivative: d f = f . pr1."""
    if not is_additive(f):
        return False
    pr1 = pm.prod_proj(1, f.dom, f.dom)
    return d_combinator(f) == pm.compose(f, pr1)


def directional_oracle(f: PolyMap, x: dict, u: dict) -> dict:
    """Coefficient of epsilon in f(x + eps u), by truncated expansion.

    Independent of the differential code path: expands each monomial as a
    product of binomials (x_a + eps u_a)^k keeping epsilon-degree <= 1.
    """
    zero = Fraction(0)
    out: dict = {}
    for (m, b), c in f.entries.items():
        const, eps = c, zero
        for a in m:
            xa = x.get(a, zero)
            ua = u.get(a, zero)
            const, eps = const * xa, const * ua + eps * xa
            if const == 0 and eps == 0:
                break
        if eps != 0:
            out[b] = out.get(b, zero) + eps
    return {b: v for b, v in out.items() if v != 0}


_TERM_RE = re.compile(r"[+-]?[^+-]+")
_FACTOR_RE = re.compile(r"x(\d+)(?:\^(\d+))?$")


def parse_poly(text: str, space: Space) -> dict:
    """One polynomial literal, e.g. '2*x0^2*x1 + 1/3*x2 - 1'.

    Variables xi refer to the i-th atom of the space's web; returns a
    monomial-to-coefficient dictionary.
    """
    atoms = web(space)
    poly: dict = {}
    stripped = text.replace(" ", "")
    if not stripped:
        raise ValueError("empty polynomial literal")
    for piece in _TERM_RE.findall(stripped):
        sign = Fraction(-1 if piece.startswith("-") else 1)
        piece = piece.lstrip("+-")
        coeff = sign
        mono_atoms: list[Atom] = []
        for factor in piece.split("*"):
            if not factor:
                raise ValueError(f"empty factor in {text!r}")
            m = _FACTOR_RE.match(factor)
            if m:
                idx = int(m.group(1))
                if idx >= len(atoms):
                    raise ValueError(f"variable x{idx} outside the web")
                mono_atoms.extend([atoms[idx]] * int(m.group(2) or 1))
            else:
                coeff *= Fraction(factor)
        key = pm.mono(mono_atoms)
        poly[key] = poly.get(key, Fraction(0)) + coeff
    return {m: c for m, c in poly.items() if c != 0}


def poly_map(dom: Space, cod: Space, literals: Sequence[str]) -> PolyMap:
    """A map from one polynomial literal per output coordinate."""
    cod_atoms = web(cod)
    if len(literals) != len(cod_atoms):
        raise ValueError(
            f"need {len(cod_atoms)} literals for {len(cod_atoms)} coordinates"
        )
    entries = {}
    for b, text in zip(cod_atoms, literals):
        for m, c in parse_poly(text, dom).items():
            entries[(m, b)] = c
    return PolyMap(dom, cod, entries)
