"""Interpretation of the term language into a concrete instance.

Ground symbols go to objects and user function symbols to multilinear
morphisms; Model checks these for every backend, raising ModelError.  Every
application f^w(t1, ..., tn) follows one rule: the iterated partial
derivative D_w of its head's map at arity n, composed with the pairing
<t1, ..., tn> of the argument interpretations.  The pairing is built
first and the head lifted only over the atoms it produces, since compose
skips every monomial that reads another; the differential theorem's
right-hand side, its reference, is lifted in full.  Every head, built-ins
included, has one slot per argument, read off the domain of its map.  A
built-in takes one argument, so f^(0...0) is D^d f; its object is read off
the codomain of its argument's morphism by stripping the word's D's and the
built-in's own strips, as typecheck does.  A constant has no slot, and the
pairing of no arguments is the zero map into the terminal object.
The interpretation is compositional and types nothing.
The rule's tail, the lift of the head and its composite with the pairing,
is computed once per content, in one memo that the models alive at the
same time share and that goes with the last of them.  It is keyed on
(head, arity, word, pairing, DEGREE_CAP), maps by their content hash, so
two models with equal grounds and symbols share their composites, and a
map computed under one degree cap is not served under another.  The
instance is not in the key: the lift and the composition never call
certify, and the head is built first through the instance's own
derived-morphism cache (iota, theta, pi and pr alike), so each backend
still certifies its own structural maps.  Building a Model empties the
memo, so a run that builds its models first (a CLI command, a benchmark
round) computes the same tails whatever ran before it.
A variable and pr_i are both prod_proj out of a product of slots.  So
interp_term takes a term that typechecks in its context, as every caller
checks first; an ill-typed built-in raises ShapeError or TypeCheckError.
The two executable theorems live here: the syntactic differential matches
the model's partial derivative, and the interpretation of a term is
invariant along reduction, with every multiset along the way summable.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field
from typing import Optional

from . import polymap as pm
from .ccdc import Instance
from .objects import (
    Prod,
    Space,
    d_space,
    prodn,
    product,
    space_str,
    strip_d_space,
)
from .polymap import PolyMap, is_multilinear
from .rewrite import (
    DEFAULT_FUEL,
    FuelExhausted,
    TermMultiset,
    normalize,
)
from .syntax import (
    App,
    Context,
    DInj,
    DProj,
    GroundType,
    Pair,
    Signature,
    Term,
    Theta,
    Type,
    TypeCheckError,
    UserFn,
    Var,
    d_type,
    differentiate,
    term_str,
    type_str,
    typecheck,
)


class ModelError(Exception):
    """A model failed validation: a PCS object, an interpretation, or the
    assignment of objects and matrices to a signature."""


class _Tails(dict):
    """The application memo; a dict subclass, so it can be weakly referenced."""


# The memo of the live models, gone with the last of them.
_LIVE: weakref.WeakValueDictionary = weakref.WeakValueDictionary()


@dataclass
class Model:
    """An instance with ground-object and symbol assignments."""

    inst: Instance
    grounds: dict[str, Space]
    sig: Signature
    symbols: dict[str, PolyMap]
    _cache: dict = field(default_factory=dict, repr=False)
    _tails: _Tails = field(
        init=False, repr=False,
        default_factory=lambda: _LIVE.setdefault("tails", _Tails()),
    )

    def __post_init__(self):
        self._tails.clear()
        for name, ftype in self.sig.decls.items():
            if name not in self.symbols:
                raise ModelError(f"symbol {name!r} has no matrix")
            matrix = self.symbols[name]
            slots = [interp_type(self.grounds, a) for a in ftype.args]
            if matrix.dom != prodn(slots):
                raise ModelError(
                    f"symbol {name!r}: domain does not match its type"
                )
            if matrix.cod != interp_type(self.grounds, ftype.result):
                raise ModelError(
                    f"symbol {name!r}: codomain does not match its type"
                )
            if slots and not is_multilinear(matrix, len(slots)):
                raise ModelError(
                    f"symbol {name!r} must be interpreted multilinearly"
                )


def interp_type(grounds: dict[str, Space], a: Type) -> Space:
    """The object of a type, given the objects of the ground symbols."""
    if isinstance(a, GroundType):
        if a.symbol not in grounds:
            raise ModelError(f"ground symbol {a.symbol!r} unassigned")
        space = grounds[a.symbol]
        for _ in range(a.depth):
            space = d_space(space)
        return space
    return product(interp_type(grounds, a.left), interp_type(grounds, a.right))


def interp_ctx(model: Model, ctx: Context) -> Space:
    return prodn(_ctx_slots(model, ctx))


def _ctx_slots(model: Model, ctx: Context) -> list[Space]:
    return [interp_type(model.grounds, ty) for _, ty in ctx]


def interp_term(model: Model, ctx: Context, t: Term) -> PolyMap:
    """The morphism interp(ctx) -> interp(type of t), for t well typed."""
    key = (ctx, t)
    result = model._cache.get(key)
    if result is not None:
        return result
    result = _interp(model, ctx, t)
    model._cache[key] = result
    return result


def _interp(model: Model, ctx: Context, t: Term) -> PolyMap:
    if isinstance(t, Var):
        slots = _ctx_slots(model, ctx)
        for i, (name, _) in enumerate(ctx):
            if name == t.name:
                return pm.prod_proj(i, *slots)
        raise TypeCheckError(f"unbound variable {t.name!r}")
    if isinstance(t, Pair):
        return pm.prod_pair(
            interp_term(model, ctx, t.t0), interp_term(model, ctx, t.t1)
        )
    return _interp_app(model, ctx, t)


def _interp_app(model: Model, ctx: Context, t: App) -> PolyMap:
    inst = model.inst
    f = t.fn
    arg_maps = [interp_term(model, ctx, a) for a in t.args]
    if isinstance(f, UserFn):
        base = model.symbols.get(f.name)
        if base is None:
            raise ModelError(f"symbol {f.name!r} unassigned")
    else:
        # A built-in's object is its one argument's codomain with the
        # word's D's and the built-in's own strips stripped.
        x = arg_maps[0].cod
        for _ in range(len(t.word) + f.strips):
            x = strip_d_space(x)
        if isinstance(f, DProj):
            base = inst._cache(("proj", f.i, x), lambda: pm.proj(f.i, x))
        elif isinstance(f, DInj):
            base = inst.inj(f.i, x)
        elif isinstance(f, Theta):
            base = inst.theta_pow(x, f.n)
        elif isinstance(x, Prod):
            base = inst._cache(
                ("prod_proj", f.i, x), lambda: pm.prod_proj(f.i, x.left, x.right)
            )
        else:
            raise TypeCheckError(f"pr applied to non-product {space_str(x)}")
    if arg_maps:
        pairing = pm.prod_pair(*arg_maps)
    else:
        pairing = pm.zero(interp_ctx(model, ctx), prodn([]))
    # The tail D_w base composed with pairing, computed once per content.
    key = (base, len(t.args), t.word, pairing, pm.DEGREE_CAP)
    result = model._tails.get(key)
    if result is None:
        reach = {b for _, b in pairing.entries} if t.word else None
        head = inst.partial_derivative(base, len(t.args), t.word, reach)
        result = model._tails[key] = pm.compose(head, pairing)
    return result


def interp_multiset(
    model: Model,
    ctx: Context,
    ms: TermMultiset,
    ty: Type,
    expected: Optional[PolyMap] = None,
) -> Optional[PolyMap]:
    """Sum of member interpretations when summable; None otherwise."""
    for member in ms.terms():
        actual = typecheck(model.sig, ctx, member)
        if actual != ty:
            raise TypeCheckError(
                f"multiset member {term_str(member)} has type "
                f"{type_str(actual)}, expected {type_str(ty)}"
            )
    maps = [interp_term(model, ctx, member) for member in ms.terms()]
    return model.inst.family_sum(
        maps, interp_ctx(model, ctx), interp_type(model.grounds, ty), expected
    )


@dataclass
class TheoremVerdict:
    """steps and fuel_exhausted describe the reduction that
    check_invariance followed; check_diff_theorem leaves them unset."""

    name: str
    holds: bool
    term: str
    detail: str = ""
    steps: int = 0
    fuel_exhausted: bool = False

    def render(self) -> str:
        verdict = "HOLDS" if self.holds else "VIOLATED"
        line = f"THEOREM {self.name} {verdict} term={self.term}"
        if self.fuel_exhausted:
            line += " (fuel exhausted)"
        if self.detail and not self.holds:
            line += f"\n  {self.detail}"
        return line


def check_diff_theorem(model: Model, ctx: Context, t: Term, x: str) -> TheoremVerdict:
    """interp(dt/dx) must equal the partial derivative at x's slot."""
    name = "differential"
    printed = term_str(t)
    slot = next((i for i, (v, _) in enumerate(ctx) if v == x), None)
    if slot is None:
        raise TypeCheckError(f"variable {x!r} not in context")
    typecheck(model.sig, ctx, t)
    dctx = tuple(
        (v, d_type(ty) if v == x else ty) for v, ty in ctx
    )
    lhs = interp_term(model, dctx, differentiate(t, x))
    base = interp_term(model, ctx, t)
    rhs = model.inst.partial_derivative(base, len(ctx), (slot,))
    if lhs == rhs:
        return TheoremVerdict(name, True, printed)
    return TheoremVerdict(
        name,
        False,
        printed,
        f"lhs {lhs.render(limit=8)}\nrhs {rhs.render(limit=8)}",
    )


def check_invariance(
    model: Model, ctx: Context, t: Term, max_steps: int = DEFAULT_FUEL
) -> TheoremVerdict:
    """Along the whole trace every multiset is summable with interp(t)."""
    name = "semantic-invariance"
    printed = term_str(t)
    ty = typecheck(model.sig, ctx, t)
    base = interp_term(model, ctx, t)
    fuel_exhausted = False
    try:
        _, trace = normalize(t, max_steps)
        snapshots = [ms for ms, _, _ in trace.steps]
    except FuelExhausted as exc:
        fuel_exhausted = True
        snapshots = [ms for ms, _, _ in exc.trace.steps]
    for k, ms in enumerate(snapshots, start=1):
        total = interp_multiset(model, ctx, ms, ty, expected=base)
        if total is None:
            return TheoremVerdict(
                name, False, printed,
                f"step {k}: multiset {ms.render()} is not summable",
                k, fuel_exhausted,
            )
        if total != base:
            return TheoremVerdict(
                name, False, printed,
                f"step {k}: interpretation changed at {ms.render()}",
                k, fuel_exhausted,
            )
    return TheoremVerdict(name, True, printed, "", len(snapshots), fuel_exhausted)
