"""The total-sum instance and the cartesian differential combinator.

PolyInstance is ccdc.Instance as it stands, under its own name: certify is
always true, so every pair of parallel maps is summable (hom-sets are
commutative monoids), which makes this the cartesian-differential-category
end of the correspondence.  Its spaces are the probabilistic backend's; no
predual is ever read.  The differential combinator d sends f : X -> Y to
d f : X & X -> Y, the directional derivative with the base point in the
left factor; Df = <f . pi0, d f> up to the relabelling between the product
tags of X & X and the D tags of DX.  is_additive and is_linear are the
additive and linear maps of that presentation.
"""

from __future__ import annotations

from . import polymap as pm
from .ccdc import Instance
from .objects import Atom, product, tag_prod, untag_d
from .polymap import PolyMap


class PolyInstance(Instance):
    """Sums always defined: the carrier of a cartesian differential category."""

    name = "poly"


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
