"""Default models and a seeded generator of well-typed terms.

The default signature has one linear, one bilinear and one trilinear symbol
over a truncated base of natural numbers (web {0, ..., k}), interpreted by
the same matrices in both backends: a truncated successor, an if-zero style
branch, and a mass-weighted third argument.  The term generator produces
terms of bounded depth at a requested type, biased toward redexes, and is
the corpus source for the acceptance suite.
"""

from __future__ import annotations

import random
from fractions import Fraction

from . import polymap as pm
from .ccdc import Instance
from .objects import Ground, Space, d_space, embed_slot, prodn, product, web
from .pcs import PcsInstance, validate_space
from .poly import PolyInstance
from .polymap import PolyMap
from .semantics import Model
from .syntax import (
    App,
    Context,
    DInj,
    DProj,
    FunctionType,
    GroundType,
    Pair,
    ProdProj,
    ProductType,
    Signature,
    Term,
    Theta,
    Type,
    UserFn,
    Var,
    d_type,
    d_type_n,
    ground,
    strip_depth,
)

N = ground("N")
NN = ProductType(N, N)
MAX_DEPTH = 5  # nesting depth of generated terms


def truncated_nat(k: int = 2) -> Ground:
    """The sub-probability simplex on {0, ..., k}."""
    atoms = tuple(str(i) for i in range(k + 1))
    space = Ground("N", atoms, ((1,) * (k + 1),))
    validate_space(space)
    return space


def default_signature() -> Signature:
    return Signature(
        {
            "lin": FunctionType((N,), N),
            "bil": FunctionType((N, NN), N),
            "tri": FunctionType((N, N, N), N),
        }
    )


def _symbol_matrices(base: Ground) -> dict[str, dict]:
    """Shared matrix data for the three default symbols over the base web."""
    atoms = base.web
    k = len(atoms) - 1
    lin = {}
    for i in range(k):
        lin[(pm.mono([atoms[i + 1]]), atoms[i])] = 1

    # bil(u, (x, y)) = u_0 * x + (u_1 + ... + u_k) * y, an if-zero branch.
    bil = {}
    for c in atoms:
        for m in atoms:
            pair_atom = embed_slot(0 if m == atoms[0] else 1, 2, c)
            key = pm.mono([embed_slot(0, 2, m), embed_slot(1, 2, pair_atom)])
            bil[(key, c)] = 1

    # tri(u, v, w) = (total mass of u) * (total mass of v) * w.
    tri = {}
    for m in atoms:
        for p in atoms:
            for c in atoms:
                key = pm.mono([embed_slot(i, 3, a) for i, a in enumerate((m, p, c))])
                tri[(key, c)] = 1
    return {"lin": lin, "bil": bil, "tri": tri}


def default_pcs_model() -> Model:
    return _build_model(PcsInstance(), truncated_nat())


def default_poly_model() -> Model:
    return _build_model(PolyInstance(), truncated_nat())


def _build_model(inst: Instance, base: Ground) -> Model:
    sig = default_signature()
    data = _symbol_matrices(base)
    bb = prodn([base, prodn([base, base])])
    ttt = prodn([base, base, base])
    symbols = {
        "lin": PolyMap(base, base, data["lin"]),
        "bil": PolyMap(bb, base, data["bil"]),
        "tri": PolyMap(ttt, base, data["tri"]),
    }
    return Model(inst, {"N": base}, sig, symbols)


DEFAULT_CONTEXT: Context = (
    ("x", N),
    ("y", d_type(N)),
    ("p", NN),
)


class TermGenerator:
    """Seeded generator of well-typed terms of bounded depth."""

    def __init__(self, sig: Signature, seed: int = 0):
        self.sig = sig
        self.rng = random.Random(seed)

    # -- fallbacks -----------------------------------------------------------

    def _ground_var(self) -> tuple[str, GroundType]:
        for name, ty in DEFAULT_CONTEXT:
            if isinstance(ty, GroundType) and ty.depth == 0:
                return name, ty
        raise ValueError("context must contain a depth-0 ground variable")

    def filler(self, ty: Type) -> Term:
        """A canonical small term of the requested type."""
        for name, vty in DEFAULT_CONTEXT:
            if vty == ty:
                return Var(name)
        if isinstance(ty, ProductType):
            return Pair(self.filler(ty.left), self.filler(ty.right))
        name, base = self._ground_var()
        if base.symbol != ty.symbol:
            raise ValueError(f"no variable for ground symbol {ty.symbol!r}")
        t: Term = Var(name)
        for _ in range(ty.depth):
            t = App(DInj(0), (), (t,))
        return t

    # -- generation ----------------------------------------------------------

    def generate(self, ty: Type, depth: int = MAX_DEPTH) -> Term:
        if depth <= 0:
            return self.filler(ty)
        options = self._options(ty)
        return self.rng.choice(options)(depth - 1)

    def _vars_of(self, ty: Type) -> list[str]:
        return [name for name, vty in DEFAULT_CONTEXT if vty == ty]

    def _options(self, ty: Type):
        rng = self.rng
        opts = []
        names = self._vars_of(ty)
        if names:
            opts += [lambda d, n=name: Var(n) for name in names] * 2
        if isinstance(ty, ProductType):
            opts.append(
                lambda d: Pair(
                    self.generate(ty.left, d), self.generate(ty.right, d)
                )
            )
        sd = strip_depth(ty)
        # iota_i^(e): argument at strip(ty), any word depth e < strip depth.
        if sd >= 1:
            def make_iota(d):
                e = rng.randint(0, min(sd - 1, 2))
                arg = self.generate(d_type_n(ty, -1), d)
                return App(DInj(rng.randint(0, 1)), (0,) * e, (arg,))

            opts += [make_iota, make_iota]

            def make_theta(d):
                e = rng.randint(0, min(sd - 1, 1))
                n = rng.randint(0, 2)
                arg = self.generate(d_type_n(ty, n), d)
                return App(Theta(n), (0,) * e, (arg,))

            opts += [make_theta, make_theta]

        # pi_i^(e): argument at D(ty), word depth e <= strip depth.
        def make_pi(d):
            e = rng.randint(0, min(sd, 2))
            arg = self.generate(d_type(ty), d)
            return App(DProj(rng.randint(0, 1)), (0,) * e, (arg,))

        opts += [make_pi, make_pi]

        # pr_i^(e): project ty out of a product, other side small.
        def make_pr(d):
            e = rng.randint(0, min(sd, 1))
            other = rng.choice([N, d_type(N), NN])
            side = rng.randint(0, 1)
            padded = d_type_n(other, e)
            prod = (
                ProductType(ty, padded) if side == 0 else ProductType(padded, ty)
            )
            arg = self.generate(prod, d)
            return App(ProdProj(side), (0,) * e, (arg,))

        opts.append(make_pr)

        # User symbols with result N and a word of length = ground depth.
        if isinstance(ty, GroundType) and ty.symbol == "N" and ty.depth <= 3:
            h = ty.depth

            def make_app(d):
                name = rng.choice(list(self.sig.decls))
                ftype = self.sig.lookup(name)
                n = len(ftype.args)
                word = tuple(rng.randrange(n) for _ in range(h))
                args = tuple(
                    self.generate(d_type_n(a, word.count(i)), d)
                    for i, a in enumerate(ftype.args)
                )
                return App(UserFn(name), word, args)

            opts += [make_app, make_app]
        return opts


def generate_typed_terms(count: int, seed: int = 0):
    """Yield (ctx, term, target type) triples, deterministically."""
    gen = TermGenerator(default_signature(), seed=seed)
    targets = [
        N,
        d_type(N),
        d_type_n(N, 2),
        NN,
        ProductType(d_type(N), N),
        d_type(NN),
    ]
    for i in range(count):
        ty = targets[i % len(targets)]
        yield DEFAULT_CONTEXT, gen.generate(ty), ty


def law_generators(model: Model, seed: int = 0):
    """Generator morphisms, multilinear pool, and objects for check_axioms."""
    inst = model.inst
    rng = random.Random(seed)
    base = model.grounds["N"]
    unit = Ground("one", ("*",), ((1,),))
    nn = product(base, base)
    objects = [unit, base, nn, d_space(base), product(base, d_space(base))]

    morphisms: list[PolyMap] = []
    for x in objects:
        morphisms.append(pm.identity(x))
        morphisms.append(pm.proj(0, x))
        morphisms.append(pm.proj(1, x))
        morphisms.append(inst.sigma(x))
        morphisms.append(inst.inj(0, x))
    morphisms.append(pm.zero(base, base))
    morphisms += list(model.symbols.values())
    morphisms.append(pm.prod_proj(0, base, base))
    morphisms.append(pm.prod_proj(1, base, base))

    if not isinstance(inst, PcsInstance):
        # Total-sum backend: exercise left-only compatibility with maps that
        # are not additive (a square, an affine shift) and one that is, plus
        # a negative coefficient, none of which live in the probabilistic
        # hom-sets.
        a0 = web(base)[0]
        morphisms.append(PolyMap(base, base, {((a0, a0), a0): 1}))
        morphisms.append(PolyMap(base, base, {((a0,), a0): 1, ((), a0): 1}))
        morphisms.append(PolyMap(base, base, {((a0,), a0): 3}))
        morphisms.append(PolyMap(base, base, {((a0,), a0): 1, ((a0, a0), a0): -1}))

    # Random sub-convex matrices: scaled monomial maps are always morphisms
    # over webs whose coordinate suprema are 1.
    spaces = [base, nn, d_space(base)]
    for _ in range(14):
        dom = rng.choice(spaces)
        cod = rng.choice([base, nn])
        entries: dict = {}
        budget = Fraction(1)
        for _ in range(rng.randint(1, 4)):
            degree = rng.randint(0, 3)
            m = pm.mono([rng.choice(web(dom)) for _ in range(degree)])
            b = rng.choice(web(cod))
            coeff = Fraction(rng.randint(1, 3), rng.randint(4, 9))
            if budget - coeff < 0:
                break
            budget -= coeff
            key = (m, b)
            entries[key] = entries.get(key, Fraction(0)) + coeff
        if entries:
            morphisms.append(PolyMap(dom, cod, entries))

    multilinear = [
        (model.symbols["lin"], (base,)),
        (model.symbols["bil"], (base, nn)),
        (model.symbols["tri"], (base, base, base)),
    ]
    for _ in range(4):
        multilinear.append(
            (random_multilinear(rng, [base, base], base), (base, base))
        )
    return morphisms, multilinear, objects


def random_multilinear(rng: random.Random, slots: list[Space], cod: Space) -> PolyMap:
    """A random multilinear matrix, sub-convex so it is always a morphism."""
    arity = len(slots)
    dom = prodn(slots)
    slot_webs = [
        [embed_slot(i, arity, a) for a in web(s)] for i, s in enumerate(slots)
    ]
    entries: dict = {}
    budget = Fraction(1)
    for _ in range(rng.randint(1, 5)):
        key = (pm.mono([rng.choice(ws) for ws in slot_webs]), rng.choice(web(cod)))
        coeff = Fraction(rng.randint(1, 3), rng.randint(5, 11))
        if budget - coeff < 0:
            break
        budget -= coeff
        entries[key] = entries.get(key, Fraction(0)) + coeff
    if not entries:
        entries = {(pm.mono([ws[0] for ws in slot_webs]), web(cod)[0]): Fraction(1, 4)}
    return PolyMap(dom, cod, entries)
